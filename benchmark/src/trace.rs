//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only here, in the benchmark, around calls into each
//! layer's public entry points: name, start, end, parent span and the op
//! they belong to. They stay in memory until the run ends, when they are
//! summarised into per-layer self times and optionally written as JSONL.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// How much of a parent's time its parts account for: `sum(parts) /
/// whole`. 1.0 means the parts explain the whole exactly; below 1 leaves a
/// gap nobody measured, above 1 means the parts did more work than the
/// whole (or overlap). 0 when `whole` is not positive.
pub fn closure(whole: f64, parts: &[f64]) -> f64 {
    if whole > 0.0 {
        parts.iter().sum::<f64>() / whole
    } else {
        0.0
    }
}

/// The sentence a report prints for a closure outside [0.9, 1.1]: which
/// share of the whole is unattributed (or over-attributed).
pub fn closure_gap(name: &str, value: f64) -> Option<String> {
    if (0.9..=1.1).contains(&value) {
        None
    } else if value < 0.9 {
        Some(format!(
            "{name} = {value:.3}: {:.1}% of the whole is not covered by the measured parts",
            (1.0 - value) * 100.0
        ))
    } else {
        Some(format!(
            "{name} = {value:.3}: the measured parts exceed the whole by {:.1}%",
            (value - 1.0) * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_parts_over_whole() {
        assert_eq!(closure(10.0, &[4.0, 3.0, 3.0]), 1.0);
        assert_eq!(closure(10.0, &[4.0, 4.0]), 0.8);
        assert_eq!(closure(0.0, &[1.0]), 0.0);
        assert!(closure_gap("runner.closure", 0.95).is_none());
        assert!(closure_gap("runner.closure", 1.1).is_none());
        let gap = closure_gap("runner.closure", 0.8).expect("gap");
        assert!(gap.contains("20.0%"), "{gap}");
        assert!(closure_gap("alerter.closure", 1.25)
            .expect("over")
            .contains("exceed"));
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        let op = t.open("op", None, 0);
        let child = t.open("child", Some(op), 0);
        t.close(child);
        t.close(op);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[op].start_ns = 0;
        t.spans[op].end_ns = 100;
        t.spans[child].start_ns = 10;
        t.spans[child].end_ns = 70;
        let totals = t.totals();
        assert_eq!(totals["op"].total_ns, 100);
        assert_eq!(totals["op"].self_ns, 40);
        assert_eq!(totals["child"].self_ns, 60);
        assert_eq!(totals["child"].count, 1);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\":0"));
    }
}
