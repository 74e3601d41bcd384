//! Instrumented simulation run: metrics, events, and a phase-timing report.
//!
//! Attaches a [`MetricsRegistry`] and a JSONL event sink to a shrunk
//! experiment, runs it over a handful of seeds, and writes under
//! `results/`:
//!
//! - `obs_events.jsonl` — every emitted event, one JSON object per line;
//! - `obs_summary.txt` — the human-readable [`RunReport`];
//! - `obs_metrics.csv` / `obs_phases.csv` — counters, gauges and
//!   per-phase wall times;
//! - `obs_rounds.csv` — one row of headline measurements per seed.
//!
//! Run with: `cargo run --example obs_report`

use secloc::obs::{output, MetricsRegistry, Obs};
use secloc::sim::report::write_rounds_csv;
use secloc::sim::{RunOptions, RunReport, Runner, SimConfig, SimOutcome};
use std::path::PathBuf;
use std::sync::Arc;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() {
    let mut config = SimConfig::paper_default();
    config.nodes = 300;
    config.beacons = 30;
    config.malicious = 3;
    config.attacker_p = 0.3;

    let dir = results_dir();
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(output::jsonl_sink(&dir, "obs_events.jsonl").expect("create event log"));
    let telemetry = Obs::new(Some(registry.clone()), Some(sink));

    let seeds = [1u64, 2, 3, 4, 5];
    let mut rounds: Vec<(u64, SimOutcome)> = Vec::new();
    for &seed in &seeds {
        let runner = Runner::new_observed(config.clone(), seed, &telemetry);
        let outcome = runner.run(RunOptions::new().observed(&telemetry)).outcome;
        println!(
            "seed {seed}: detection {:.2}, false positives {:.2}, N' = {:.2}",
            outcome.detection_rate(),
            outcome.false_positive_rate(),
            outcome.affected_after,
        );
        rounds.push((seed, outcome));
    }

    let (_, last_outcome) = rounds.last().expect("at least one seed").clone();
    let report = RunReport::collect(last_outcome, &telemetry);
    println!("\n{}", report.render_text());

    let mut written = report.write(&dir, "obs").expect("write report");
    written.push(write_rounds_csv(&dir, "obs_rounds.csv", &rounds).expect("write rounds"));
    written.push(dir.join("obs_events.jsonl"));
    println!("artifacts:");
    for path in written {
        println!("  {}", path.display());
    }
}
