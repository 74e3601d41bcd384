//! Human- and machine-readable reports of instrumented runs.
//!
//! [`RunReport`] pairs a run's [`SimOutcome`] with the metric snapshot an
//! [`Obs`]-instrumented run accumulated — per-phase wall times, pipeline
//! verdict counts, base-station decisions — and renders them as an aligned
//! text summary plus CSV artifacts under `results/`, all through the shared
//! writers in [`secloc_obs::output`].

use crate::SimOutcome;
use secloc_obs::{output, Obs, Snapshot};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Wall-time statistics of one experiment phase, from its span histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (`deploy`, `detection`, `location`, `alert_delivery`,
    /// `revocation`, `impact`).
    pub name: String,
    /// Number of recorded runs of the phase.
    pub count: u64,
    /// Total wall time across runs, in nanoseconds.
    pub total_ns: f64,
    /// Mean wall time per run, in nanoseconds.
    pub mean_ns: f64,
    /// Estimated p99 wall time, in nanoseconds.
    pub p99_ns: f64,
}

/// Everything worth keeping from one (or a batch of) instrumented runs.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The final run's measurements.
    pub outcome: SimOutcome,
    /// Per-phase wall-time statistics, in pipeline order.
    pub phases: Vec<PhaseTiming>,
    /// The full metric snapshot (counters, gauges, histograms).
    pub snapshot: Snapshot,
}

/// The experiment's phases in execution order; span histograms are named
/// `span.phase.<name>.ns`.
pub const PHASE_NAMES: [&str; 6] = [
    "deploy",
    "detection",
    "location",
    "alert_delivery",
    "revocation",
    "impact",
];

impl RunReport {
    /// Collects a report from `telemetry`'s registry (empty snapshot when
    /// the run was not instrumented).
    pub fn collect(outcome: SimOutcome, telemetry: &Obs) -> Self {
        let snapshot = telemetry
            .metrics()
            .map(|r| r.snapshot())
            .unwrap_or_default();
        Self::from_snapshot(outcome, snapshot)
    }

    /// Builds the report from an already-taken snapshot.
    pub fn from_snapshot(outcome: SimOutcome, snapshot: Snapshot) -> Self {
        let phases = PHASE_NAMES
            .iter()
            .filter_map(|name| {
                let h = snapshot.histogram(&format!("span.phase.{name}.ns"))?;
                Some(PhaseTiming {
                    name: name.to_string(),
                    count: h.count,
                    total_ns: h.sum,
                    mean_ns: h.mean(),
                    p99_ns: h.quantile(0.99),
                })
            })
            .collect();
        RunReport {
            outcome,
            phases,
            snapshot,
        }
    }

    /// Renders the report as aligned human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let o = &self.outcome;
        let _ = writeln!(out, "run report");
        let _ = writeln!(out, "==========");
        let _ = writeln!(
            out,
            "detection rate        {:.3} ({}/{} malicious revoked)",
            o.detection_rate(),
            o.revoked_malicious,
            o.malicious_total
        );
        let _ = writeln!(
            out,
            "false positive rate   {:.3} ({}/{} benign revoked)",
            o.false_positive_rate(),
            o.revoked_benign,
            o.benign_total
        );
        let _ = writeln!(
            out,
            "affected sensors      {:.2} before -> {:.2} after revocation",
            o.affected_before, o.affected_after
        );
        let _ = writeln!(
            out,
            "alerts                {} detection + {} collusion",
            o.benign_alerts, o.collusion_alerts
        );
        if let (Some(b), Some(a)) = (o.mean_loc_error_before_ft, o.mean_loc_error_after_ft) {
            let _ = writeln!(out, "mean loc error (ft)   {b:.2} before -> {a:.2} after");
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphase timings");
            let _ = writeln!(out, "-------------");
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<16} runs={:<4} total={:>10.3} ms  mean={:>10.3} ms  p99={:>10.3} ms",
                    p.name,
                    p.count,
                    p.total_ns / 1e6,
                    p.mean_ns / 1e6,
                    p.p99_ns / 1e6
                );
            }
        }
        if !self.snapshot.counters.is_empty() || !self.snapshot.gauges.is_empty() {
            let _ = writeln!(out, "\nmetrics");
            let _ = writeln!(out, "-------");
            out.push_str(&self.snapshot.render_text());
        }
        out
    }

    /// Writes `<stem>_summary.txt`, `<stem>_metrics.csv` and
    /// `<stem>_phases.csv` into `dir`, returning the written paths.
    pub fn write(&self, dir: impl AsRef<Path>, stem: &str) -> std::io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        let mut written = Vec::new();
        written.push(output::write_text(
            dir,
            &format!("{stem}_summary.txt"),
            &self.render_text(),
        )?);

        let mut metric_rows: Vec<Vec<String>> = Vec::new();
        for (name, value) in &self.snapshot.counters {
            metric_rows.push(vec!["counter".into(), name.clone(), value.to_string()]);
        }
        for (name, value) in &self.snapshot.gauges {
            metric_rows.push(vec!["gauge".into(), name.clone(), value.to_string()]);
        }
        written.push(output::write_csv(
            dir,
            &format!("{stem}_metrics.csv"),
            &["kind", "name", "value"],
            &metric_rows,
        )?);

        let phase_rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    p.count.to_string(),
                    format!("{:.0}", p.total_ns),
                    format!("{:.0}", p.mean_ns),
                    format!("{:.0}", p.p99_ns),
                ]
            })
            .collect();
        written.push(output::write_csv(
            dir,
            &format!("{stem}_phases.csv"),
            &["phase", "runs", "total_ns", "mean_ns", "p99_ns"],
            &phase_rows,
        )?);
        Ok(written)
    }
}

/// Writes one CSV row per seeded run (`round`), via the shared writer.
pub fn write_rounds_csv(
    dir: impl AsRef<Path>,
    name: &str,
    rounds: &[(u64, SimOutcome)],
) -> std::io::Result<PathBuf> {
    let rows: Vec<Vec<String>> = rounds
        .iter()
        .map(|(seed, o)| {
            vec![
                seed.to_string(),
                format!("{:.4}", o.detection_rate()),
                format!("{:.4}", o.false_positive_rate()),
                format!("{:.3}", o.affected_before),
                format!("{:.3}", o.affected_after),
                o.benign_alerts.to_string(),
                o.collusion_alerts.to_string(),
            ]
        })
        .collect();
    output::write_csv(
        dir,
        name,
        &[
            "seed",
            "detection_rate",
            "false_positive_rate",
            "affected_before",
            "affected_after",
            "benign_alerts",
            "collusion_alerts",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, Runner, SimConfig};
    use secloc_obs::MetricsRegistry;
    use std::sync::Arc;

    fn shrunk() -> SimConfig {
        SimConfig {
            nodes: 200,
            beacons: 20,
            malicious: 2,
            attacker_p: 0.5,
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn report_collects_phases_and_renders() {
        let registry = Arc::new(MetricsRegistry::new());
        let telemetry = Obs::with_metrics(registry.clone());
        let runner = Runner::new_observed(shrunk(), 3, &telemetry);
        let outcome = runner.run(RunOptions::new().observed(&telemetry)).outcome;
        let report = RunReport::collect(outcome, &telemetry);
        // All six phases timed exactly once.
        assert_eq!(report.phases.len(), PHASE_NAMES.len());
        for (p, name) in report.phases.iter().zip(PHASE_NAMES) {
            assert_eq!(p.name, name);
            assert_eq!(p.count, 1);
            assert!(p.total_ns > 0.0);
        }
        let text = report.render_text();
        assert!(text.contains("detection rate"));
        assert!(text.contains("phase timings"));
        assert!(text.contains("pipeline.verdict.benign"));
    }

    #[test]
    fn report_without_registry_is_still_renderable() {
        let runner = Runner::new(shrunk(), 3);
        let outcome = runner.run(RunOptions::new()).outcome;
        let report = RunReport::collect(outcome, &Obs::disabled());
        assert!(report.phases.is_empty());
        assert!(report.render_text().contains("detection rate"));
    }

    #[test]
    fn write_produces_three_artifacts() {
        let registry = Arc::new(MetricsRegistry::new());
        let telemetry = Obs::with_metrics(registry);
        let runner = Runner::new_observed(shrunk(), 5, &telemetry);
        let outcome = runner.run(RunOptions::new().observed(&telemetry)).outcome;
        let report = RunReport::collect(outcome, &telemetry);
        let dir = std::env::temp_dir().join(format!("secloc-report-{}", std::process::id()));
        let written = report.write(&dir, "t").unwrap();
        assert_eq!(written.len(), 3);
        for path in &written {
            assert!(path.exists());
        }
        let metrics_csv = std::fs::read_to_string(&written[1]).unwrap();
        assert!(metrics_csv.starts_with("kind,name,value\n"));
        assert!(metrics_csv.contains("probe.exchanges"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rounds_csv_one_row_per_seed() {
        let outcomes: Vec<(u64, SimOutcome)> = (0..2)
            .map(|s| (s, Runner::new(shrunk(), s).run(RunOptions::new()).outcome))
            .collect();
        let dir = std::env::temp_dir().join(format!("secloc-rounds-{}", std::process::id()));
        let path = write_rounds_csv(&dir, "rounds.csv", &outcomes).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3); // header + 2 rounds
        std::fs::remove_dir_all(&dir).ok();
    }
}
