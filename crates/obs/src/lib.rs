//! Zero-dependency telemetry for the secloc workspace.
//!
//! The paper's claims are rates measured over noisy pipelines — detection
//! rate, false positives, N′ — and tuning them at production scale needs
//! visibility *inside* a run, not just the end-of-run outcome. This crate
//! supplies that visibility with four building blocks, none of which pull
//! in external dependencies (the build environment is offline):
//!
//! - [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s (with p50/p90/p99 estimation) behind cheap cloneable
//!   handles, safe to update from hot paths;
//! - [`Span`] / [`Stopwatch`] — wall-clock phase timing that lands in
//!   histograms and events;
//! - [`EventSink`] — structured event export with a JSONL file sink
//!   ([`JsonlSink`]), an in-memory sink for tests ([`MemorySink`]), a
//!   bounded post-mortem ring ([`FlightRecorder`]), a broadcast combinator
//!   ([`FanoutSink`]) and hand-rolled JSON (module [`json`], no serde);
//! - [`health`] — pluggable detectors over the event stream (stalled
//!   streams, counter anomalies, cache-hit collapse, checkpoint gaps)
//!   surfaced as `health.*` events.
//!
//! The [`Obs`] facade bundles an optional registry with an optional sink so
//! instrumented code pays almost nothing when observability is off:
//!
//! ```
//! use secloc_obs::{MemorySink, MetricsRegistry, Obs, Value};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let sink = Arc::new(MemorySink::new());
//! let obs = Obs::new(Some(registry.clone()), Some(sink.clone()));
//!
//! obs.incr("demo.widgets");
//! obs.emit("demo", &[("widgets", Value::U64(1))]);
//!
//! assert_eq!(registry.snapshot().counter("demo.widgets"), Some(1));
//! assert_eq!(sink.kinds(), vec!["demo".to_string()]);
//!
//! // Disabled observability is a couple of `Option` checks per call.
//! let off = Obs::disabled();
//! off.incr("demo.widgets"); // no-op
//! ```
//!
//! ## Tracing
//!
//! [`Obs::scoped`] returns a facade stamped with a [`SpanContext`] and a set
//! of standard fields (in the sweep: the cell key and seed). Every event the
//! scoped facade emits carries the trace coordinates plus those fields, so
//! a JSONL stream from a thousand-cell sweep can be sliced back into
//! per-cell narratives:
//!
//! ```
//! use secloc_obs::{MemorySink, Obs, SpanContext, Value};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let obs = Obs::with_sink(sink.clone());
//! let cell = obs.scoped(
//!     SpanContext::root(0xc0ffee),
//!     &[("cell", Value::Str("0000000000c0ffee".into()))],
//! );
//! cell.emit("cell.start", &[]);
//! let events = sink.events();
//! assert_eq!(events[0].ctx.unwrap().trace_id, 0xc0ffee);
//! assert!(events[0].field("cell").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hash;
pub mod health;
pub mod json;
mod metrics;
pub mod num;
pub mod output;
mod span;

pub use event::{
    Event, EventSink, FanoutSink, FlightRecorder, JsonlSink, MemorySink, SpanContext, Value,
};
pub use hash::{fnv1a, Fnv1a};
pub use health::{HealthAlert, HealthDetector, HealthMonitor};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot};
pub use span::{Span, Stopwatch};

use std::sync::Arc;

/// The per-scope state carried by a scoped [`Obs`]: trace coordinates plus
/// standard fields appended to every emitted event.
#[derive(Debug)]
struct ObsScope {
    ctx: SpanContext,
    fields: Vec<(String, Value)>,
}

/// The observability facade handed through instrumented code paths.
///
/// Holds an optional [`MetricsRegistry`] and an optional [`EventSink`];
/// every method is a no-op (an `Option` check) when the corresponding half
/// is absent, so uninstrumented callers pass [`Obs::disabled`] and pay
/// near-zero cost.
#[derive(Clone, Default)]
pub struct Obs {
    metrics: Option<Arc<MetricsRegistry>>,
    sink: Option<Arc<dyn EventSink + Send + Sync>>,
    scope: Option<Arc<ObsScope>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.metrics.is_some())
            .field("sink", &self.sink.is_some())
            .field("scope", &self.scope.is_some())
            .finish()
    }
}

impl Obs {
    /// Observability with both halves attached (either may be `None`).
    pub fn new(
        metrics: Option<Arc<MetricsRegistry>>,
        sink: Option<Arc<dyn EventSink + Send + Sync>>,
    ) -> Self {
        Obs {
            metrics,
            sink,
            scope: None,
        }
    }

    /// The no-op facade: all methods return immediately.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Metrics only.
    pub fn with_metrics(metrics: Arc<MetricsRegistry>) -> Self {
        Obs {
            metrics: Some(metrics),
            sink: None,
            scope: None,
        }
    }

    /// Events only.
    pub fn with_sink(sink: Arc<dyn EventSink + Send + Sync>) -> Self {
        Obs {
            metrics: None,
            sink: Some(sink),
            scope: None,
        }
    }

    /// Whether any half is attached.
    pub fn enabled(&self) -> bool {
        self.metrics.is_some() || self.sink.is_some()
    }

    /// Whether an event sink is attached. Callers constructing expensive
    /// per-event field vectors (per-alert decision events, say) should gate
    /// on this so metrics-only and disabled facades skip the allocation.
    pub fn sink_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// The attached event sink, if any — for composing it into a
    /// [`FanoutSink`] alongside additional sinks (a flight recorder, say).
    pub fn sink(&self) -> Option<&Arc<dyn EventSink + Send + Sync>> {
        self.sink.as_ref()
    }

    /// A facade that stamps `ctx` and appends `fields` to every event it
    /// emits. Metrics are unaffected (counters stay global across the
    /// sweep). When no sink is attached the scope is not allocated at all —
    /// the clone behaves exactly like `self`.
    pub fn scoped(&self, ctx: SpanContext, fields: &[(&str, Value)]) -> Obs {
        let mut scoped = self.clone();
        if scoped.sink.is_some() {
            scoped.scope = Some(Arc::new(ObsScope {
                ctx,
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            }));
        }
        scoped
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.counter(name).incr();
        }
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(m) = &self.metrics {
            m.counter(name).add(n);
        }
    }

    /// Records `value` into the named histogram (default time buckets).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(m) = &self.metrics {
            m.histogram(name, Histogram::DEFAULT_TIME_BOUNDS_NS)
                .observe(value);
        }
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, value: i64) {
        if let Some(m) = &self.metrics {
            m.gauge(name).set(value);
        }
    }

    /// Emits a structured event when a sink is attached. A scoped facade
    /// stamps its span context and appends its standard fields.
    pub fn emit(&self, kind: &str, fields: &[(&str, Value)]) {
        if let Some(sink) = &self.sink {
            sink.emit(&self.build_event(kind, fields));
        }
    }

    fn build_event(&self, kind: &str, fields: &[(&str, Value)]) -> Event {
        let mut event = Event::new(kind, fields);
        if let Some(scope) = &self.scope {
            event.ctx = Some(scope.ctx);
            // Call-site fields win over scope defaults: skip any standard
            // field the emitter already supplied (e.g. `seed` in run.start).
            event.fields.extend(
                scope
                    .fields
                    .iter()
                    .filter(|(key, _)| !fields.iter().any(|(k, _)| *k == key.as_str()))
                    .cloned(),
            );
        }
        event
    }

    /// Starts a named span: on [`Span::finish`] (or drop) the elapsed time
    /// lands in histogram `span.<name>.ns` and a `span` event is emitted.
    /// With nothing attached the span allocates nothing and reads no clock.
    pub fn span(&self, name: &str) -> Span<'_> {
        Span::enter(self, name)
    }

    pub(crate) fn record_span(&self, name: &str, nanos: u64) {
        if let Some(m) = &self.metrics {
            m.histogram(
                &format!("span.{name}.ns"),
                Histogram::DEFAULT_TIME_BOUNDS_NS,
            )
            .observe(nanos as f64);
        }
        if let Some(sink) = &self.sink {
            let mut event = self.build_event(
                "span",
                &[
                    ("name", Value::Str(name.to_string())),
                    ("nanos", Value::U64(nanos)),
                ],
            );
            // A span event gets its own child span id under the scope, so
            // phase spans nest beneath the cell's root span.
            if let Some(scope) = &self.scope {
                event.ctx = Some(scope.ctx.child(name));
            }
            sink.emit(&event);
        }
    }

    /// Flushes the sink, if one is attached.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        assert!(!obs.sink_attached());
        obs.incr("a");
        obs.add("a", 5);
        obs.observe("h", 1.0);
        obs.set_gauge("g", 3);
        obs.emit("kind", &[]);
        obs.flush();
        let span = obs.span("phase");
        span.finish();
        // Scoping a disabled facade allocates nothing and stays inert.
        let scoped = obs.scoped(SpanContext::root(1), &[("k", Value::U64(1))]);
        assert!(scoped.scope.is_none());
        scoped.emit("kind", &[]);
    }

    #[test]
    fn facade_routes_to_registry_and_sink() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(Some(registry.clone()), Some(sink.clone()));
        assert!(obs.enabled());
        assert!(obs.sink_attached());
        obs.incr("c");
        obs.add("c", 2);
        obs.set_gauge("g", -4);
        obs.observe("h", 123.0);
        obs.emit("evt", &[("x", Value::I64(-1))]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(-4));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(sink.kinds(), vec!["evt".to_string()]);
    }

    #[test]
    fn span_records_histogram_and_event() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(Some(registry.clone()), Some(sink.clone()));
        obs.span("work").finish();
        {
            let _implicit = obs.span("dropped");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("span.work.ns").unwrap().count, 1);
        assert_eq!(snap.histogram("span.dropped.ns").unwrap().count, 1);
        assert_eq!(sink.kinds(), vec!["span".to_string(), "span".to_string()]);
    }

    #[test]
    fn scoped_facade_stamps_context_and_standard_fields() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        let ctx = SpanContext::root(0xfeed);
        let cell = obs.scoped(
            ctx,
            &[
                ("cell", Value::Str("000000000000feed".into())),
                ("seed", Value::U64(7)),
            ],
        );
        assert_eq!(cell.scope.as_ref().map(|s| s.ctx), Some(ctx));
        cell.emit("cell.start", &[("extra", Value::Bool(true))]);
        cell.span("phase_x").finish();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        // Scope fields ride after the call-site fields on every event.
        for event in &events {
            assert_eq!(event.ctx.unwrap().trace_id, 0xfeed);
            assert_eq!(
                event.field("cell"),
                Some(&Value::Str("000000000000feed".into()))
            );
            assert_eq!(event.field("seed"), Some(&Value::U64(7)));
        }
        assert_eq!(events[0].field("extra"), Some(&Value::Bool(true)));
        // The span event nests under the scope root.
        assert_eq!(events[1].ctx.unwrap().parent_id, Some(ctx.span_id));
        assert_ne!(events[1].ctx.unwrap().span_id, ctx.span_id);
        // The unscoped facade is unaffected.
        obs.emit("plain", &[]);
        assert!(sink.events()[2].ctx.is_none());
    }
}
