//! The metric catalogue and the result a run prints.
//!
//! `BENCHMARK.json` at the repository root declares the same metrics with
//! their bounds; a unit test keeps the two in step.

use secloc_obs::json::{push_json_f64, push_json_string};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric. Which direction is better, and the bound, live
/// only in `BENCHMARK.json`, where `compare` reads them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Reported by every untraced run. `throughput` counts each workload's work
/// unit (runs, cells or stream lines) per second of its fastest round;
/// `setup_s` is the median set-up time.
pub const END_TO_END: &[Def] = &[def("throughput", "1/s"), def("setup_s", "s")];

/// Reported by every traced run. Per-call times come from the layer probes
/// on the workload's own inputs; shares, counts and orchestrator figures
/// come from the workload's own ops and are 0 where it bypasses the layer.
pub const PER_LAYER: &[Def] = &[
    def("deploy.generate_ms", "ms"),
    def("runner.probe_stage_ms", "ms"),
    def("localization.impact_chain_ms", "ms"),
    def("runner.finish_ms", "ms"),
    def("runner.closure", "ratio"),
    def("runner.stage_share", "ratio"),
    def("localization.mmse_ns", "ns"),
    def("deploy.audible_pairs", "count"),
    def("localization.sensors_solved", "count"),
    def("core.alerts_per_run", "count"),
    def("core.revocations_per_run", "count"),
    def("core.decide_ns", "ns"),
    def("wire.parse_ns", "ns"),
    def("alerter.ingest_ns", "ns"),
    def("alerter.closure", "ratio"),
    def("alerter.accusation_share", "ratio"),
    def("alerter.bytes_per_line", "bytes"),
    def("orchestrator.cell_key_ns", "ns"),
    def("cache.insert_ns", "ns"),
    def("cache.get_ns", "ns"),
    def("cache.open_ms", "ms"),
    def("cache.bytes_per_cell", "bytes"),
    def("cache.hit_ratio", "ratio"),
    def("cache.append_share", "ratio"),
    def("checkpoint.write_share", "ratio"),
    def("checkpoint.bytes_per_cell", "bytes"),
    def("orchestrator.units_per_busy_s", "1/s"),
    def("orchestrator.idle_share", "ratio"),
    def("orchestrator.steal_batches", "count"),
    def("orchestrator.scaling_eff", "ratio"),
    def("orchestrator.inmem_cells_per_s", "1/s"),
    def("trace.overhead", "ratio"),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Ops executed (runs, sweep calls or replay passes).
    pub attempted: u64,
    /// Ops or invariance checks that failed.
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Printed and written with `--out`, never gated: host probes, tail
    /// percentiles, sample counts.
    pub diagnostics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    /// Traced runs: every recorded span as JSONL, written with `--spans`.
    pub spans: String,
}

impl RunResult {
    /// The metrics this run must report.
    pub fn defs(&self) -> &'static [Def] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    pub fn diag(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push((name.into(), value, unit));
    }

    /// Records a failure for every declared metric that is missing or not
    /// finite, so a broken measurement can never print as correct.
    pub fn validate(&mut self) {
        let bad: Vec<&'static str> = self
            .defs()
            .iter()
            .filter(|d| !self.metrics.get(d.name).is_some_and(|v| v.is_finite()))
            .map(|d| d.name)
            .collect();
        for name in bad {
            self.fail(format!("metric {name} was not measured"));
            self.metrics.insert(name, 0.0);
        }
        if self.attempted == 0 {
            self.fail("no op was attempted");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn push_metrics(&self, out: &mut String) {
        out.push('{');
        for (i, d) in self.defs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, d.name);
            out.push_str(":{\"value\":");
            push_json_f64(out, self.metrics.get(d.name).copied().unwrap_or(0.0));
            out.push_str(",\"unit\":");
            push_json_string(out, d.unit);
            out.push('}');
        }
        out.push('}');
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn summary_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.correct(),
            self.attempted,
            self.failed
        );
        self.push_metrics(&mut out);
        out.push('}');
        out
    }

    /// The `--out` file: the summary plus what `compare` needs to group
    /// results and what a reader needs to explain them.
    pub fn full_json(&self) -> String {
        let mut out = String::with_capacity(8192);
        out.push_str("{\"workload\":");
        push_json_string(&mut out, &self.workload);
        let _ = write!(
            out,
            ",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.seed,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed
        );
        self.push_metrics(&mut out);
        out.push_str(",\"diagnostics\":{");
        for (i, (name, value, unit)) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(":{\"value\":");
            push_json_f64(&mut out, *value);
            out.push_str(",\"unit\":");
            push_json_string(&mut out, unit);
            out.push('}');
        }
        out.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, f);
        }
        out.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, n);
        }
        out.push_str("]}");
        out
    }

    /// Human-readable lines: every metric by name with its unit, then the
    /// diagnostics, notes and failures.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed={} trace={} attempted={} failed={}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed
        );
        for d in self.defs() {
            let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {:<34} {:>20.9} {}", d.name, v, d.unit);
        }
        for (name, value, unit) in &self.diagnostics {
            let _ = writeln!(out, "  ({:<32} {:>16.6} {})", name, value, unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_obs::json::JsonValue;

    /// Whether `name` is a legal metric or workload name: 1 to 64 characters
    /// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        for w in crate::workloads::NAMES {
            assert!(valid_name(w), "{w}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("semi;colon"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(d.name));
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(d.unit));
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn summary_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            workload: "paper_run".into(),
            attempted: 3,
            ..RunResult::default()
        };
        r.metrics.insert("throughput", 1.5);
        r.validate();
        assert_eq!(r.failed, 1, "setup_s is missing");
        let doc = JsonValue::parse(&r.summary_json()).expect("json");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.pointer(&["throughput", "value"]).and_then(|v| v.as_f64()),
            Some(1.5)
        );
        assert_eq!(
            m.pointer(&["setup_s", "unit"]).and_then(|v| v.as_str()),
            Some("s")
        );
        assert!(JsonValue::parse(&r.full_json()).is_ok());
    }
}
