//! Structured events and pluggable sinks.
//!
//! An [`Event`] is a kind plus ordered key/value fields, optionally stamped
//! with a [`SpanContext`] so it can be attributed to one trace (in this
//! workspace: one sweep cell). Sinks decide where events land:
//! [`JsonlSink`] appends one JSON object per line to a file (the format
//! every `results/` consumer in this workspace reads), [`MemorySink`]
//! buffers events for test assertions, [`FlightRecorder`] keeps a bounded
//! ring of recent events for post-mortem dumps, and [`FanoutSink`]
//! broadcasts to several sinks at once.

use crate::hash::{Fnv1a, FNV1A_OFFSET};
use crate::json::{push_json_f64, push_json_string};
use crate::num::{push_hex16, push_i64, push_u64};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A single typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (non-finite values serialize as `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string (JSON-escaped on serialization).
    Str(String),
}

impl Value {
    fn push_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => push_u64(out, *v),
            Value::I64(v) => push_i64(out, *v),
            Value::F64(v) => push_json_f64(out, *v),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => push_json_string(out, v),
        }
    }
}

/// The trace coordinates of an event: which trace it belongs to and which
/// span within that trace emitted it.
///
/// Identifiers are deterministic — the orchestrator derives `trace_id` from
/// the cell key and `span_id` from (trace, span name) via FNV — so replaying
/// a seeded sweep reproduces the same ids, and a flight-recorder dump can be
/// joined against a fresh run of the same cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this event belongs to (one sweep cell = one trace).
    pub trace_id: u64,
    /// The span within the trace (e.g. a pipeline phase).
    pub span_id: u64,
    /// The enclosing span, when there is one.
    pub parent_id: Option<u64>,
}

impl SpanContext {
    /// A root span context for `trace_id` (span = trace, no parent).
    pub fn root(trace_id: u64) -> Self {
        SpanContext {
            trace_id,
            span_id: trace_id,
            parent_id: None,
        }
    }

    /// A deterministic child context: the child's span id is derived from
    /// this context's span id and `name` by FNV-1a, and this context's span
    /// becomes the parent.
    pub fn child(&self, name: &str) -> Self {
        let mut hash = Fnv1a::with_state(FNV1A_OFFSET ^ self.span_id);
        hash.update(name.as_bytes());
        SpanContext {
            trace_id: self.trace_id,
            span_id: hash.finish(),
            parent_id: Some(self.span_id),
        }
    }
}

/// A structured event: a kind, a sequence number, an optional span context
/// and ordered fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What happened, e.g. `"bs.alert"` or `"phase"`.
    pub kind: String,
    /// Monotonic per-process sequence number, assigned at construction.
    pub seq: u64,
    /// Trace coordinates, when the event was emitted inside a trace.
    pub ctx: Option<SpanContext>,
    /// Ordered field name/value pairs.
    pub fields: Vec<(String, Value)>,
}

static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);

impl Event {
    /// A new event with the next process-wide sequence number and no span
    /// context.
    pub fn new(kind: &str, fields: &[(&str, Value)]) -> Self {
        Event {
            kind: kind.to_string(),
            seq: EVENT_SEQ.fetch_add(1, Ordering::Relaxed),
            ctx: None,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// The value of field `name`, if present.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Serializes the event as a single-line JSON object
    /// (`{"kind":...,"seq":...[,"trace":...,"span":...[,"parent":...]],<fields>}`).
    ///
    /// Trace/span/parent ids are 16-hex-digit strings (matching the cell-key
    /// format in checkpoint and cache files), not JSON numbers, so consumers
    /// that read numbers as `f64` cannot corrupt them.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.fields.len());
        out.push_str("{\"kind\":");
        push_json_string(&mut out, &self.kind);
        out.push_str(",\"seq\":");
        push_u64(&mut out, self.seq);
        if let Some(ctx) = &self.ctx {
            let ids = [
                ("trace", Some(ctx.trace_id)),
                ("span", Some(ctx.span_id)),
                ("parent", ctx.parent_id),
            ];
            for (name, id) in ids {
                let Some(id) = id else { continue };
                out.push_str(",\"");
                out.push_str(name);
                out.push_str("\":\"");
                push_hex16(&mut out, id);
                out.push('"');
            }
        }
        for (key, value) in &self.fields {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            value.push_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Where events go. Implementations must be cheap enough for hot paths or
/// buffer internally.
pub trait EventSink {
    /// Consumes one event.
    fn emit(&self, event: &Event);
    /// Flushes buffered events to their destination. Default: no-op.
    fn flush(&self) {}
}

/// Appends one JSON object per line to a file (JSON Lines).
///
/// I/O errors never panic or take down the instrumented run; the first
/// error is retained ("sticky") and surfaced through [`JsonlSink::try_flush`]
/// or [`JsonlSink::last_error`] so callers that care (the sweep CLI, tests)
/// can fail loudly at the end instead of silently losing telemetry.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    // io::Error is not Clone, so the sticky error is stored as kind+message.
    error: Mutex<Option<(std::io::ErrorKind, String)>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
            error: Mutex::new(None),
        })
    }

    fn record_error(&self, err: &std::io::Error) {
        let mut slot = self.error.lock().expect("jsonl sink poisoned");
        if slot.is_none() {
            *slot = Some((err.kind(), err.to_string()));
        }
    }

    /// The first I/O error seen by this sink, if any.
    pub fn last_error(&self) -> Option<(std::io::ErrorKind, String)> {
        self.error.lock().expect("jsonl sink poisoned").clone()
    }

    /// Flushes buffered lines and reports the first error seen over the
    /// sink's lifetime (from any earlier `emit` as well as this flush).
    pub fn try_flush(&self) -> std::io::Result<()> {
        {
            let mut writer = self.writer.lock().expect("jsonl sink poisoned");
            if let Err(err) = writer.flush() {
                self.record_error(&err);
            }
        }
        match self.last_error() {
            None => Ok(()),
            Some((kind, message)) => Err(std::io::Error::new(kind, message)),
        }
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        // I/O errors on telemetry must not take down the instrumented run;
        // they are retained for try_flush() instead.
        if let Err(err) = writeln!(writer, "{}", event.to_json()) {
            drop(writer);
            self.record_error(&err);
        }
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        if let Err(err) = writer.flush() {
            drop(writer);
            self.record_error(&err);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Buffers events in memory for test assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// All events seen so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// The kinds of all events seen so far, in emission order.
    pub fn kinds(&self) -> Vec<String> {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .map(|e| e.kind.clone())
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no events were emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns all buffered events.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// A bounded ring of the most recent events, for post-mortem "flight
/// recorder" dumps.
///
/// The recorder is meant to ride alongside the primary sink (via
/// [`FanoutSink`]): it costs one clone + ring push per event and holds only
/// the last `capacity` events, so it can stay attached to long sweeps. When
/// something goes wrong — a worker panic, an outcome mismatch, a health
/// alert — the tail is dumped to `results/flightrec_<cell>.jsonl` with
/// [`FlightRecorder::dump`] or, filtered to one cell's trace,
/// [`FlightRecorder::dump_trace`].
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight recorder poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("flight recorder poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The retained events belonging to `trace_id`, oldest first.
    pub fn snapshot_trace(&self, trace_id: u64) -> Vec<Event> {
        self.ring
            .lock()
            .expect("flight recorder poisoned")
            .iter()
            .filter(|e| e.ctx.map(|c| c.trace_id) == Some(trace_id))
            .cloned()
            .collect()
    }

    /// Writes the retained events to `path` as JSONL, oldest first.
    pub fn dump(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        Self::write_jsonl(path, &self.snapshot())
    }

    /// Writes the retained events for `trace_id` to `path` as JSONL.
    pub fn dump_trace(&self, path: impl AsRef<Path>, trace_id: u64) -> std::io::Result<usize> {
        Self::write_jsonl(path, &self.snapshot_trace(trace_id))
    }

    fn write_jsonl(path: impl AsRef<Path>, events: &[Event]) -> std::io::Result<usize> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut writer = BufWriter::new(File::create(path)?);
        for event in events {
            writeln!(writer, "{}", event.to_json())?;
        }
        writer.flush()?;
        Ok(events.len())
    }
}

impl EventSink for FlightRecorder {
    fn emit(&self, event: &Event) {
        let mut ring = self.ring.lock().expect("flight recorder poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event.clone());
    }
}

/// Broadcasts every event to several sinks (primary JSONL file + flight
/// recorder + health monitor, for instance).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn EventSink + Send + Sync>>,
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl FanoutSink {
    /// A fanout over `sinks`, which receive events in the given order.
    pub fn new(sinks: Vec<Arc<dyn EventSink + Send + Sync>>) -> Self {
        FanoutSink { sinks }
    }

    /// Appends another downstream sink (builder style).
    pub fn with(mut self, sink: Arc<dyn EventSink + Send + Sync>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl EventSink for FanoutSink {
    fn emit(&self, event: &Event) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// The `format!`-based encoder `to_json` replaced, kept as its oracle.
    fn to_json_fmt(event: &Event) -> String {
        let mut out = String::new();
        out.push_str("{\"kind\":");
        push_json_string(&mut out, &event.kind);
        out.push_str(",\"seq\":");
        out.push_str(&event.seq.to_string());
        if let Some(ctx) = &event.ctx {
            let _ = write!(out, ",\"trace\":\"{:016x}\"", ctx.trace_id);
            let _ = write!(out, ",\"span\":\"{:016x}\"", ctx.span_id);
            if let Some(parent) = ctx.parent_id {
                let _ = write!(out, ",\"parent\":\"{parent:016x}\"");
            }
        }
        for (key, value) in &event.fields {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            match value {
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::I64(v) => out.push_str(&v.to_string()),
                Value::F64(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                Value::F64(_) => out.push_str("null"),
                Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                Value::Str(v) => push_json_string(&mut out, v),
            }
        }
        out.push('}');
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn to_json_matches_the_fmt_oracle(
            seq in any::<u64>(),
            ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>()),
            raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..8),
        ) {
            let (trace_id, span_id, parent, shape) = ids;
            let fields = raw
                .iter()
                .enumerate()
                .map(|(i, &(selector, payload))| {
                    let value = match selector % 5 {
                        0 => Value::U64(payload >> (selector / 5 % 64)),
                        1 => Value::I64((payload as i64) >> (selector / 5 % 64)),
                        2 => Value::F64(f64::from_bits(payload)),
                        3 => Value::Bool(payload % 2 == 1),
                        _ => Value::Str(format!("s{payload}")),
                    };
                    (format!("f{i}"), value)
                })
                .collect();
            let event = Event {
                kind: "prop".to_string(),
                seq,
                ctx: match shape % 3 {
                    0 => None,
                    1 => Some(SpanContext { trace_id, span_id, parent_id: None }),
                    _ => Some(SpanContext { trace_id, span_id, parent_id: Some(parent) }),
                },
                fields,
            };
            prop_assert_eq!(event.to_json(), to_json_fmt(&event));
        }
    }

    #[test]
    fn event_serializes_all_value_types() {
        let e = Event::new(
            "verdict",
            &[
                ("node", Value::U64(7)),
                ("delta", Value::I64(-3)),
                ("score", Value::F64(0.5)),
                ("malicious", Value::Bool(true)),
                ("note", Value::Str("line\n\"two\"".to_string())),
            ],
        );
        let json = e.to_json();
        assert!(json.starts_with("{\"kind\":\"verdict\",\"seq\":"));
        assert!(json.contains("\"node\":7"));
        assert!(json.contains("\"delta\":-3"));
        assert!(json.contains("\"score\":0.5"));
        assert!(json.contains("\"malicious\":true"));
        assert!(json.contains("\"note\":\"line\\n\\\"two\\\"\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn sequence_numbers_increase() {
        let a = Event::new("a", &[]);
        let b = Event::new("b", &[]);
        assert!(b.seq > a.seq);
    }

    #[test]
    fn field_lookup() {
        let e = Event::new("k", &[("x", Value::U64(1))]);
        assert_eq!(e.field("x"), Some(&Value::U64(1)));
        assert_eq!(e.field("y"), None);
    }

    #[test]
    fn span_context_serializes_as_hex() {
        let ctx = SpanContext::root(0xabcd).child("phase");
        let e = Event {
            ctx: Some(ctx),
            ..Event::new("k", &[])
        };
        let json = e.to_json();
        assert!(json.contains("\"trace\":\"000000000000abcd\""));
        assert!(json.contains(&format!("\"span\":\"{:016x}\"", ctx.span_id)));
        assert!(json.contains("\"parent\":\"000000000000abcd\""));
        // Context-free events keep the original shape.
        assert!(!Event::new("k", &[]).to_json().contains("trace"));
    }

    #[test]
    fn child_span_ids_are_deterministic_and_distinct() {
        let root = SpanContext::root(42);
        let a = root.child("detection");
        let b = root.child("location");
        assert_eq!(a, root.child("detection"));
        assert_ne!(a.span_id, b.span_id);
        assert_eq!(a.trace_id, 42);
        assert_eq!(a.parent_id, Some(root.span_id));
        // Grandchildren chain off the child's span id.
        let aa = a.child("inner");
        assert_eq!(aa.parent_id, Some(a.span_id));
        assert_ne!(aa.span_id, root.child("inner").span_id);
        // Pinned: FNV-1a of the name from `offset basis ^ parent span`, so
        // recorded streams keep joining against fresh runs.
        assert_eq!(
            SpanContext::root(0xabcd).child("phase").span_id,
            0x6108_ac10_7a7a_25df
        );
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        sink.emit(&Event::new("first", &[]));
        sink.emit(&Event::new("second", &[]));
        assert_eq!(sink.kinds(), vec!["first", "second"]);
        assert_eq!(sink.len(), 2);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("secloc-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("events-{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(&Event::new("one", &[("s", Value::Str("a\"b".into()))]));
            sink.emit(&Event::new("two", &[]));
            assert!(sink.try_flush().is_ok());
            assert!(sink.last_error().is_none());
        } // drop flushes
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"one\""));
        assert!(lines[0].contains("\\\"b"));
        assert!(lines[1].contains("\"kind\":\"two\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flight_recorder_keeps_only_the_tail() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.emit(&Event::new("e", &[("i", Value::U64(i))]));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        let indices: Vec<_> = snap.iter().map(|e| e.field("i").cloned()).collect();
        assert_eq!(
            indices,
            vec![
                Some(Value::U64(2)),
                Some(Value::U64(3)),
                Some(Value::U64(4))
            ]
        );
    }

    #[test]
    fn flight_recorder_filters_by_trace() {
        let rec = FlightRecorder::new(16);
        let t1 = SpanContext::root(1);
        let t2 = SpanContext::root(2);
        let traced = |kind, ctx| Event {
            ctx: Some(ctx),
            ..Event::new(kind, &[])
        };
        rec.emit(&traced("a", t1));
        rec.emit(&traced("b", t2));
        rec.emit(&traced("c", t1));
        rec.emit(&Event::new("d", &[])); // no context
        let only_t1 = rec.snapshot_trace(1);
        assert_eq!(only_t1.len(), 2);
        assert_eq!(only_t1[0].kind, "a");
        assert_eq!(only_t1[1].kind, "c");
    }

    #[test]
    fn flight_recorder_dump_writes_jsonl() {
        let dir = std::env::temp_dir().join("secloc-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flightrec-{}.jsonl", std::process::id()));
        let rec = FlightRecorder::new(8);
        rec.emit(&Event {
            ctx: Some(SpanContext::root(9)),
            ..Event::new("x", &[])
        });
        rec.emit(&Event::new("y", &[]));
        assert_eq!(rec.dump(&path).unwrap(), 2);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2);
        assert_eq!(rec.dump_trace(&path, 9).unwrap(), 1);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("\"kind\":\"x\""));
        assert!(!contents.contains("\"kind\":\"y\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fanout_broadcasts_to_all_sinks() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![a.clone()]).with(b.clone());
        fan.emit(&Event::new("e", &[]));
        fan.flush();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
