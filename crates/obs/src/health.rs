//! Health watchdog: pluggable detectors over the event stream.
//!
//! A [`HealthMonitor`] sits in the sink chain (usually inside a
//! [`crate::FanoutSink`]) and feeds every event to a set of
//! [`HealthDetector`]s. When a detector finds something wrong it produces a
//! [`HealthAlert`]; the monitor retains the alert and re-emits it as a
//! `health.<detector>` event on its downstream sink so alerts land in the
//! same JSONL stream as everything else. `health.*` events are never fed
//! back into detectors, so a noisy detector cannot trigger itself.
//!
//! ## Detector contract
//!
//! Detectors are driven three ways:
//!
//! - [`HealthDetector::on_event`] for every non-`health.*` event, in
//!   emission order (the monitor serializes calls under a lock);
//! - [`HealthDetector::on_tick`] from a caller-driven clock (the sweep
//!   CLI's progress loop calls [`HealthMonitor::tick`]) with the wall-clock
//!   time since the last event — event streams have no heartbeat of their
//!   own, so stall detection must come from outside;
//! - [`HealthDetector::on_finish`] once, when the monitored workload says
//!   it is done, for end-of-stream invariants.
//!
//! Detectors must be cheap: they run inline on the emit path.
//!
//! The stock detectors cover the failure modes the sweep orchestrator and
//! ROADMAP item 2 (`secloc-alerter`) care about:
//!
//! - [`StalledStreamDetector`] — no events for longer than a timeout;
//! - [`CounterAnomalyDetector`] — a `revocation` event without τ′+1
//!   distinct accepted accusers, or an `alerts.summary` whose delivered
//!   total disagrees with the per-decision `bs.alert` events;
//! - [`MalformedInputDetector`] — more malformed input lines than an
//!   alerter stream's budget allows;
//! - [`CacheHitRateDetector`] — a warm sweep whose cache-hit rate
//!   collapsed;
//! - [`CheckpointGapDetector`] — completed cells running far ahead of the
//!   persisted checkpoint frontier.

use crate::event::{Event, EventSink, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One problem a detector found.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// Which detector raised it (e.g. `"counter_anomaly"`).
    pub detector: String,
    /// Human-readable description.
    pub message: String,
    /// Structured context (copied onto the emitted `health.*` event).
    pub fields: Vec<(String, Value)>,
}

/// A pluggable health check over the event stream. See the module docs for
/// the driving contract.
pub trait HealthDetector: Send {
    /// A short identifier; the emitted event kind is `health.<name>`.
    fn name(&self) -> &'static str;

    /// Inspects one event (never a `health.*` event).
    fn on_event(&mut self, event: &Event, alerts: &mut Vec<HealthAlert>);

    /// Periodic wall-clock callback; `idle` is the time since the last
    /// event (or since monitor creation when none arrived yet).
    fn on_tick(&mut self, idle: Duration, alerts: &mut Vec<HealthAlert>) {
        let _ = (idle, alerts);
    }

    /// End-of-stream callback for final invariants.
    fn on_finish(&mut self, alerts: &mut Vec<HealthAlert>) {
        let _ = alerts;
    }
}

struct MonitorInner {
    detectors: Vec<Box<dyn HealthDetector>>,
    alerts: Vec<HealthAlert>,
    last_event: Instant,
}

/// An [`EventSink`] that feeds events through health detectors and forwards
/// them (plus any `health.*` alerts) to an optional downstream sink.
pub struct HealthMonitor {
    inner: Mutex<MonitorInner>,
    downstream: Option<Arc<dyn EventSink + Send + Sync>>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("health monitor poisoned");
        f.debug_struct("HealthMonitor")
            .field("detectors", &inner.detectors.len())
            .field("alerts", &inner.alerts.len())
            .field("downstream", &self.downstream.is_some())
            .finish()
    }
}

impl HealthMonitor {
    /// A monitor over `detectors`, forwarding events (and emitting
    /// `health.*` alert events) to `downstream` when given.
    pub fn new(
        detectors: Vec<Box<dyn HealthDetector>>,
        downstream: Option<Arc<dyn EventSink + Send + Sync>>,
    ) -> Self {
        HealthMonitor {
            inner: Mutex::new(MonitorInner {
                detectors,
                alerts: Vec::new(),
                last_event: Instant::now(),
            }),
            downstream,
        }
    }

    /// All alerts raised so far, in order.
    pub fn alerts(&self) -> Vec<HealthAlert> {
        self.inner
            .lock()
            .expect("health monitor poisoned")
            .alerts
            .clone()
    }

    /// Number of alerts raised so far.
    pub fn alert_count(&self) -> usize {
        self.inner
            .lock()
            .expect("health monitor poisoned")
            .alerts
            .len()
    }

    /// Whether no detector has raised an alert.
    pub fn is_healthy(&self) -> bool {
        self.alert_count() == 0
    }

    /// Drives the wall-clock detectors; call periodically (the sweep CLI's
    /// progress loop does) while the monitored workload runs.
    pub fn tick(&self) {
        let mut inner = self.inner.lock().expect("health monitor poisoned");
        let idle = inner.last_event.elapsed();
        let mut fresh = Vec::new();
        for detector in &mut inner.detectors {
            detector.on_tick(idle, &mut fresh);
        }
        self.publish(&mut inner, fresh);
    }

    /// Signals end-of-stream so detectors can check final invariants.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().expect("health monitor poisoned");
        let mut fresh = Vec::new();
        for detector in &mut inner.detectors {
            detector.on_finish(&mut fresh);
        }
        self.publish(&mut inner, fresh);
    }

    fn publish(&self, inner: &mut MonitorInner, fresh: Vec<HealthAlert>) {
        for alert in fresh {
            if let Some(down) = &self.downstream {
                let mut event = Event::new(
                    &format!("health.{}", alert.detector),
                    &[("message", Value::Str(alert.message.clone()))],
                );
                event.fields.extend(alert.fields.iter().cloned());
                down.emit(&event);
            }
            inner.alerts.push(alert);
        }
    }
}

impl EventSink for HealthMonitor {
    fn emit(&self, event: &Event) {
        if let Some(down) = &self.downstream {
            down.emit(event);
        }
        let mut inner = self.inner.lock().expect("health monitor poisoned");
        inner.last_event = Instant::now();
        // health.* events are downstream-only: feeding them back into
        // detectors could loop a noisy detector through itself.
        if event.kind.starts_with("health.") {
            return;
        }
        let mut fresh = Vec::new();
        for detector in &mut inner.detectors {
            detector.on_event(event, &mut fresh);
        }
        self.publish(&mut inner, fresh);
    }

    fn flush(&self) {
        if let Some(down) = &self.downstream {
            down.flush();
        }
    }
}

fn field_u64(event: &Event, name: &str) -> Option<u64> {
    match event.field(name) {
        Some(Value::U64(v)) => Some(*v),
        Some(Value::I64(v)) => u64::try_from(*v).ok(),
        _ => None,
    }
}

fn field_str<'e>(event: &'e Event, name: &str) -> Option<&'e str> {
    match event.field(name) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Alerts when no event has arrived for longer than `timeout` (driven by
/// [`HealthMonitor::tick`]). One alert per stall: the flag rearms when the
/// stream resumes.
#[derive(Debug)]
pub struct StalledStreamDetector {
    timeout: Duration,
    stalled: bool,
}

impl StalledStreamDetector {
    /// A detector alerting after `timeout` of silence.
    pub fn new(timeout: Duration) -> Self {
        StalledStreamDetector {
            timeout,
            stalled: false,
        }
    }
}

impl HealthDetector for StalledStreamDetector {
    fn name(&self) -> &'static str {
        "stalled_stream"
    }

    fn on_event(&mut self, _event: &Event, _alerts: &mut Vec<HealthAlert>) {
        self.stalled = false;
    }

    fn on_tick(&mut self, idle: Duration, alerts: &mut Vec<HealthAlert>) {
        if idle >= self.timeout && !self.stalled {
            self.stalled = true;
            alerts.push(HealthAlert {
                detector: self.name().to_string(),
                message: format!(
                    "no events for {:.1}s (timeout {:.1}s)",
                    idle.as_secs_f64(),
                    self.timeout.as_secs_f64()
                ),
                fields: vec![("idle_ms".to_string(), Value::U64(idle.as_millis() as u64))],
            });
        }
    }
}

#[derive(Debug, Default)]
struct TraceCounters {
    tau_prime: Option<u64>,
    /// Per target: distinct reporters whose accusations were accepted.
    accusers: HashMap<u64, Vec<u64>>,
    /// Total `bs.alert` decision events seen (one per delivered alert).
    decisions: u64,
}

/// Cross-checks the §3.1 revocation counters against the decision stream.
///
/// Two invariants, per trace (per sweep cell):
///
/// - a `revocation` event must be preceded by at least τ′+1 `bs.alert`
///   events with distinct reporters and an `accepted`/`accepted_and_revoked`
///   outcome for that target — a revocation below quorum means the base
///   station's counters are corrupt;
/// - an `alerts.summary` event's `delivered` total must equal the number of
///   `bs.alert` decision events seen — a mismatch means decisions went
///   uncounted (exactly the telemetry bug class satellite S3 fixes).
///
/// τ′ is learned from `run.start`/`cell.start`/`alerter.deploy` events
/// (field `tau_prime`) and falls back to the constructor value.
///
/// The streaming alerter's own decision vocabulary is checked under the
/// same invariants: `alerter.decision` counts like `bs.alert` and
/// `alerter.revocation` like `revocation`, so one detector audits both
/// the batch recording and the live re-decisions in a replayed stream.
#[derive(Debug)]
pub struct CounterAnomalyDetector {
    default_tau_prime: Option<u64>,
    traces: HashMap<Option<u64>, TraceCounters>,
}

impl CounterAnomalyDetector {
    /// A detector with `default_tau_prime` used when the stream itself
    /// never announces τ′.
    pub fn new(default_tau_prime: Option<u64>) -> Self {
        CounterAnomalyDetector {
            default_tau_prime,
            traces: HashMap::new(),
        }
    }
}

impl HealthDetector for CounterAnomalyDetector {
    fn name(&self) -> &'static str {
        "counter_anomaly"
    }

    fn on_event(&mut self, event: &Event, alerts: &mut Vec<HealthAlert>) {
        let detector = self.name().to_string();
        let trace = event.ctx.map(|c| c.trace_id);
        match event.kind.as_str() {
            "run.start" | "cell.start" | "alerter.deploy" => {
                if let Some(tp) = field_u64(event, "tau_prime") {
                    self.traces.entry(trace).or_default().tau_prime = Some(tp);
                }
            }
            "bs.alert" | "alerter.decision" => {
                let counters = self.traces.entry(trace).or_default();
                // `alerts.summary` reconciles `delivered` against the batch
                // path's `bs.alert` events only; the alerter's re-decisions
                // still feed the quorum tracking below.
                if event.kind == "bs.alert" {
                    counters.decisions += 1;
                }
                let accepted = matches!(
                    field_str(event, "outcome"),
                    Some("accepted" | "accepted_and_revoked")
                );
                if accepted {
                    if let (Some(reporter), Some(target)) =
                        (field_u64(event, "reporter"), field_u64(event, "target"))
                    {
                        let reporters = counters.accusers.entry(target).or_default();
                        if !reporters.contains(&reporter) {
                            reporters.push(reporter);
                        }
                    }
                }
            }
            "revocation" | "alerter.revocation" => {
                let counters = self.traces.entry(trace).or_default();
                let tau_prime = counters.tau_prime.or(self.default_tau_prime);
                let Some(tau_prime) = tau_prime else {
                    return; // quorum unknown: nothing to check
                };
                let Some(target) = field_u64(event, "target") else {
                    return;
                };
                let distinct = counters.accusers.get(&target).map_or(0, |r| r.len() as u64);
                let required = tau_prime + 1;
                if distinct < required {
                    alerts.push(HealthAlert {
                        detector: detector.clone(),
                        message: format!(
                            "target {target} revoked with {distinct} distinct accepted \
                             accusers, quorum is {required} (tau'={tau_prime})"
                        ),
                        fields: vec![
                            ("target".to_string(), Value::U64(target)),
                            ("distinct_accusers".to_string(), Value::U64(distinct)),
                            ("required".to_string(), Value::U64(required)),
                        ],
                    });
                }
            }
            "alerts.summary" => {
                let counters = self.traces.entry(trace).or_default();
                if let Some(delivered) = field_u64(event, "delivered") {
                    if delivered != counters.decisions {
                        alerts.push(HealthAlert {
                            detector: detector.clone(),
                            message: format!(
                                "alerts.summary reports {delivered} delivered but {} \
                                 bs.alert decisions were seen",
                                counters.decisions
                            ),
                            fields: vec![
                                ("delivered".to_string(), Value::U64(delivered)),
                                ("decisions".to_string(), Value::U64(counters.decisions)),
                            ],
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Alerts when a stream carried more malformed input lines than a budget.
///
/// The alerter survives malformed JSONL (counts it, emits
/// `alerter.malformed`, moves on); this detector turns those per-line
/// events into one actionable `health.malformed_input` alert when the
/// budget is exceeded — a producer that suddenly speaks a different
/// dialect should fail the smoke job, a single truncated line should not.
#[derive(Debug)]
pub struct MalformedInputDetector {
    max_malformed: u64,
    seen: u64,
    breached: bool,
}

impl MalformedInputDetector {
    /// Alerts once more than `max_malformed` malformed lines were seen
    /// (`0` = any malformed line alerts).
    pub fn new(max_malformed: u64) -> Self {
        MalformedInputDetector {
            max_malformed,
            seen: 0,
            breached: false,
        }
    }
}

impl HealthDetector for MalformedInputDetector {
    fn name(&self) -> &'static str {
        "malformed_input"
    }

    fn on_event(&mut self, event: &Event, alerts: &mut Vec<HealthAlert>) {
        if event.kind != "alerter.malformed" {
            return;
        }
        self.seen += 1;
        if self.seen > self.max_malformed && !self.breached {
            self.breached = true;
            alerts.push(HealthAlert {
                detector: self.name().to_string(),
                message: format!(
                    "{} malformed input line(s) exceed the budget of {}",
                    self.seen, self.max_malformed
                ),
                fields: vec![
                    ("seen".to_string(), Value::U64(self.seen)),
                    ("budget".to_string(), Value::U64(self.max_malformed)),
                ],
            });
        }
    }
}

/// Alerts when a finished sweep's cache-hit rate fell below a floor.
///
/// Reads the `sweep.end` event (`resumed` + `cached` over `cells`); sweeps
/// smaller than `min_cells` are exempt, as is any sweep that executed from
/// cold (hit rate 0 with zero resumed/cached cells is normal — collapse
/// means a *warm* sweep stopped hitting).
#[derive(Debug)]
pub struct CacheHitRateDetector {
    floor: f64,
    min_cells: u64,
}

impl CacheHitRateDetector {
    /// Alerts when `(resumed + cached) / cells < floor` for sweeps of at
    /// least `min_cells` cells that reused *some* prior work.
    pub fn new(floor: f64, min_cells: u64) -> Self {
        CacheHitRateDetector { floor, min_cells }
    }
}

impl HealthDetector for CacheHitRateDetector {
    fn name(&self) -> &'static str {
        "cache_hit_rate"
    }

    fn on_event(&mut self, event: &Event, alerts: &mut Vec<HealthAlert>) {
        if event.kind != "sweep.end" {
            return;
        }
        let (Some(cells), Some(resumed), Some(cached)) = (
            field_u64(event, "cells"),
            field_u64(event, "resumed"),
            field_u64(event, "cached"),
        ) else {
            return;
        };
        let hits = resumed + cached;
        if cells < self.min_cells || hits == 0 {
            return;
        }
        let rate = hits as f64 / cells as f64;
        if rate < self.floor {
            alerts.push(HealthAlert {
                detector: self.name().to_string(),
                message: format!(
                    "cache hit rate {rate:.3} below floor {:.3} ({hits}/{cells} cells)",
                    self.floor
                ),
                fields: vec![
                    ("hits".to_string(), Value::U64(hits)),
                    ("cells".to_string(), Value::U64(cells)),
                    ("rate".to_string(), Value::F64(rate)),
                ],
            });
        }
    }
}

/// Alerts when completed cells run too far ahead of the persisted
/// checkpoint frontier (`cell.complete` count vs the `frontier` field of
/// the latest `checkpoint.advance` event) — a growing gap means a crash
/// would redo that much work, or the checkpoint writer wedged.
#[derive(Debug)]
pub struct CheckpointGapDetector {
    max_gap: u64,
    completed: u64,
    frontier: u64,
    breached: bool,
}

impl CheckpointGapDetector {
    /// Alerts when more than `max_gap` completed cells are not yet covered
    /// by the checkpoint frontier.
    pub fn new(max_gap: u64) -> Self {
        CheckpointGapDetector {
            max_gap,
            completed: 0,
            frontier: 0,
            breached: false,
        }
    }
}

impl HealthDetector for CheckpointGapDetector {
    fn name(&self) -> &'static str {
        "checkpoint_gap"
    }

    fn on_event(&mut self, event: &Event, alerts: &mut Vec<HealthAlert>) {
        match event.kind.as_str() {
            "cell.complete" => self.completed += 1,
            "checkpoint.advance" => {
                if let Some(frontier) = field_u64(event, "frontier") {
                    self.frontier = self.frontier.max(frontier);
                }
            }
            _ => return,
        }
        let gap = self.completed.saturating_sub(self.frontier);
        if gap > self.max_gap {
            if !self.breached {
                self.breached = true;
                alerts.push(HealthAlert {
                    detector: self.name().to_string(),
                    message: format!(
                        "{} cells complete but checkpoint frontier is {} (gap {gap} > {})",
                        self.completed, self.frontier, self.max_gap
                    ),
                    fields: vec![
                        ("completed".to_string(), Value::U64(self.completed)),
                        ("frontier".to_string(), Value::U64(self.frontier)),
                        ("gap".to_string(), Value::U64(gap)),
                    ],
                });
            }
        } else {
            self.breached = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MemorySink, SpanContext};

    fn ev(kind: &str, fields: &[(&str, Value)]) -> Event {
        Event::new(kind, fields)
    }

    #[test]
    fn monitor_forwards_and_collects_alerts() {
        struct AlwaysAlert;
        impl HealthDetector for AlwaysAlert {
            fn name(&self) -> &'static str {
                "always"
            }
            fn on_event(&mut self, _event: &Event, alerts: &mut Vec<HealthAlert>) {
                alerts.push(HealthAlert {
                    detector: "always".to_string(),
                    message: "boom".to_string(),
                    fields: vec![("n".to_string(), Value::U64(1))],
                });
            }
        }
        let down = Arc::new(MemorySink::new());
        let monitor = HealthMonitor::new(vec![Box::new(AlwaysAlert)], Some(down.clone()));
        assert!(monitor.is_healthy());
        monitor.emit(&ev("anything", &[]));
        assert_eq!(monitor.alert_count(), 1);
        assert!(!monitor.is_healthy());
        let kinds = down.kinds();
        assert_eq!(kinds, vec!["anything", "health.always"]);
        let health = &down.events()[1];
        assert_eq!(health.field("message"), Some(&Value::Str("boom".into())));
        assert_eq!(health.field("n"), Some(&Value::U64(1)));
        // health.* events do not re-enter detectors.
        monitor.emit(&ev("health.always", &[]));
        assert_eq!(monitor.alert_count(), 1);
    }

    #[test]
    fn stalled_stream_fires_once_per_stall() {
        let mut det = StalledStreamDetector::new(Duration::from_millis(100));
        let mut alerts = Vec::new();
        det.on_tick(Duration::from_millis(50), &mut alerts);
        assert!(alerts.is_empty());
        det.on_tick(Duration::from_millis(150), &mut alerts);
        assert_eq!(alerts.len(), 1);
        det.on_tick(Duration::from_millis(200), &mut alerts);
        assert_eq!(alerts.len(), 1, "no repeat while still stalled");
        det.on_event(&ev("any", &[]), &mut alerts);
        det.on_tick(Duration::from_millis(150), &mut alerts);
        assert_eq!(alerts.len(), 2, "rearmed after the stream resumed");
    }

    #[test]
    fn counter_anomaly_accepts_a_legitimate_quorum() {
        let mut det = CounterAnomalyDetector::new(None);
        let mut alerts = Vec::new();
        det.on_event(
            &ev("run.start", &[("tau_prime", Value::U64(1))]),
            &mut alerts,
        );
        for reporter in [1u64, 2] {
            det.on_event(
                &ev(
                    "bs.alert",
                    &[
                        ("reporter", Value::U64(reporter)),
                        ("target", Value::U64(9)),
                        ("outcome", Value::Str("accepted".into())),
                    ],
                ),
                &mut alerts,
            );
        }
        det.on_event(&ev("revocation", &[("target", Value::U64(9))]), &mut alerts);
        assert!(alerts.is_empty(), "tau'+1 = 2 distinct accusers suffice");
    }

    #[test]
    fn counter_anomaly_flags_revocation_below_quorum() {
        let mut det = CounterAnomalyDetector::new(Some(1));
        let mut alerts = Vec::new();
        // Duplicate reporter: only one distinct accuser.
        for _ in 0..3 {
            det.on_event(
                &ev(
                    "bs.alert",
                    &[
                        ("reporter", Value::U64(1)),
                        ("target", Value::U64(9)),
                        ("outcome", Value::Str("accepted".into())),
                    ],
                ),
                &mut alerts,
            );
        }
        det.on_event(&ev("revocation", &[("target", Value::U64(9))]), &mut alerts);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].message.contains("quorum"));
    }

    #[test]
    fn counter_anomaly_ignores_rejected_accusations() {
        let mut det = CounterAnomalyDetector::new(Some(1));
        let mut alerts = Vec::new();
        for reporter in [1u64, 2] {
            det.on_event(
                &ev(
                    "bs.alert",
                    &[
                        ("reporter", Value::U64(reporter)),
                        ("target", Value::U64(9)),
                        ("outcome", Value::Str("ignored_reporter_budget".into())),
                    ],
                ),
                &mut alerts,
            );
        }
        det.on_event(&ev("revocation", &[("target", Value::U64(9))]), &mut alerts);
        assert_eq!(alerts.len(), 1, "rejected accusations do not count");
    }

    #[test]
    fn counter_anomaly_tracks_traces_independently() {
        let mut det = CounterAnomalyDetector::new(Some(0));
        let mut alerts = Vec::new();
        let t1 = SpanContext::root(1);
        let t2 = SpanContext::root(2);
        let revocation = |ctx| Event {
            ctx: Some(ctx),
            ..ev("revocation", &[("target", Value::U64(9))])
        };
        det.on_event(
            &Event {
                ctx: Some(t1),
                ..ev(
                    "bs.alert",
                    &[
                        ("reporter", Value::U64(5)),
                        ("target", Value::U64(9)),
                        ("outcome", Value::Str("accepted_and_revoked".into())),
                    ],
                )
            },
            &mut alerts,
        );
        // Trace 1 has its quorum; trace 2 has nothing for target 9.
        det.on_event(&revocation(t1), &mut alerts);
        assert!(alerts.is_empty());
        det.on_event(&revocation(t2), &mut alerts);
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn counter_anomaly_checks_summary_totals() {
        let mut det = CounterAnomalyDetector::new(None);
        let mut alerts = Vec::new();
        det.on_event(
            &ev(
                "bs.alert",
                &[
                    ("reporter", Value::U64(1)),
                    ("target", Value::U64(2)),
                    ("outcome", Value::Str("accepted".into())),
                ],
            ),
            &mut alerts,
        );
        det.on_event(
            &ev("alerts.summary", &[("delivered", Value::U64(1))]),
            &mut alerts,
        );
        assert!(alerts.is_empty());
        det.on_event(
            &ev("alerts.summary", &[("delivered", Value::U64(5))]),
            &mut alerts,
        );
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].message.contains("5 delivered"));
    }

    #[test]
    fn counter_anomaly_audits_alerter_decisions_too() {
        let mut det = CounterAnomalyDetector::new(None);
        let mut alerts = Vec::new();
        det.on_event(
            &ev("alerter.deploy", &[("tau_prime", Value::U64(2))]),
            &mut alerts,
        );
        det.on_event(
            &ev(
                "alerter.decision",
                &[
                    ("reporter", Value::U64(1)),
                    ("target", Value::U64(9)),
                    ("outcome", Value::Str("accepted".into())),
                ],
            ),
            &mut alerts,
        );
        det.on_event(
            &ev("alerter.revocation", &[("target", Value::U64(9))]),
            &mut alerts,
        );
        assert_eq!(alerts.len(), 1, "one accuser is below the tau'+1=3 quorum");
        // alerter.decision events do not disturb the bs.alert/delivered
        // reconciliation.
        det.on_event(
            &ev("alerts.summary", &[("delivered", Value::U64(0))]),
            &mut alerts,
        );
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn malformed_input_respects_budget_and_fires_once() {
        let mut det = MalformedInputDetector::new(2);
        let mut alerts = Vec::new();
        det.on_event(&ev("alerter.malformed", &[]), &mut alerts);
        det.on_event(&ev("alerter.malformed", &[]), &mut alerts);
        assert!(alerts.is_empty(), "within budget");
        det.on_event(&ev("alerter.malformed", &[]), &mut alerts);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].message.contains("exceed the budget"));
        det.on_event(&ev("alerter.malformed", &[]), &mut alerts);
        assert_eq!(alerts.len(), 1, "fires once");
        det.on_event(&ev("other", &[]), &mut alerts);
        assert!(alerts.is_empty() || alerts.len() == 1);
    }

    #[test]
    fn cache_hit_rate_flags_warm_collapse_only() {
        let mut det = CacheHitRateDetector::new(0.5, 10);
        let mut alerts = Vec::new();
        let end = |cells, resumed, cached| {
            ev(
                "sweep.end",
                &[
                    ("cells", Value::U64(cells)),
                    ("resumed", Value::U64(resumed)),
                    ("cached", Value::U64(cached)),
                ],
            )
        };
        det.on_event(&end(100, 0, 0), &mut alerts);
        assert!(alerts.is_empty(), "cold sweep is fine");
        det.on_event(&end(5, 1, 0), &mut alerts);
        assert!(alerts.is_empty(), "below min_cells is exempt");
        det.on_event(&end(100, 10, 10), &mut alerts);
        assert_eq!(alerts.len(), 1, "warm sweep at 20% hit rate collapsed");
        det.on_event(&end(100, 50, 30), &mut alerts);
        assert_eq!(alerts.len(), 1, "healthy warm sweep stays quiet");
    }

    #[test]
    fn checkpoint_gap_fires_once_until_frontier_catches_up() {
        let mut det = CheckpointGapDetector::new(2);
        let mut alerts = Vec::new();
        for _ in 0..3 {
            det.on_event(&ev("cell.complete", &[]), &mut alerts);
        }
        assert_eq!(alerts.len(), 1, "gap 3 > 2");
        det.on_event(&ev("cell.complete", &[]), &mut alerts);
        assert_eq!(alerts.len(), 1, "still breached, no repeat");
        det.on_event(
            &ev("checkpoint.advance", &[("frontier", Value::U64(4))]),
            &mut alerts,
        );
        for _ in 0..3 {
            det.on_event(&ev("cell.complete", &[]), &mut alerts);
        }
        assert_eq!(alerts.len(), 2, "rearmed after the frontier advanced");
    }
}
