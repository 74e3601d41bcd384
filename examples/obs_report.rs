//! Instrumented simulation run: metrics, events, and per-seed headlines.
//!
//! Attaches a [`MetricsRegistry`] and a JSONL event sink to a shrunk
//! experiment, runs it over a handful of seeds, and writes under
//! `results/`:
//!
//! - `obs_events.jsonl` — every emitted event, one JSON object per line.
//!   Each seed's run is its own deployment: its events carry a
//!   `deployment` key (the seed in 16 hex digits) between a `deploy.start`
//!   announcing τ/τ′ and a `deploy.end`, so `secloc-alerter replay
//!   --events results/obs_events.jsonl` re-decides every run's alerts;
//! - `obs_rounds.csv` — one row of headline measurements per seed;
//! - `obs_summary.txt` — the registry snapshot: counters, gauges and the
//!   `span.phase.*` wall-time histograms.
//!
//! Run with: `cargo run --example obs_report`

use secloc::obs::{output, MetricsRegistry, Obs, SpanContext, Value};
use secloc::sim::{RunOptions, Runner, SimConfig};
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

    let mut rounds: Vec<Vec<String>> = Vec::new();
    for seed in 1u64..=5 {
        let deployment = telemetry.scoped(
            SpanContext::root(seed),
            &[("deployment", Value::Str(format!("{seed:016x}")))],
        );
        deployment.emit(
            "deploy.start",
            &[
                ("tau", Value::U64(config.tau.into())),
                ("tau_prime", Value::U64(config.tau_prime.into())),
            ],
        );
        let runner = Runner::new_observed(config.clone(), seed, &deployment);
        let o = runner.run(RunOptions::new().observed(&deployment)).outcome;
        deployment.emit("deploy.end", &[]);
        println!(
            "seed {seed}: detection {:.2}, false positives {:.2}, N' = {:.2}",
            o.detection_rate(),
            o.false_positive_rate(),
            o.affected_after,
        );
        rounds.push(vec![
            seed.to_string(),
            format!("{:.4}", o.detection_rate()),
            format!("{:.4}", o.false_positive_rate()),
            format!("{:.3}", o.affected_before),
            format!("{:.3}", o.affected_after),
            o.benign_alerts.to_string(),
            o.collusion_alerts.to_string(),
        ]);
    }

    let summary = registry.snapshot().render_text();
    println!("\n{summary}");
    let written = [
        dir.join("obs_events.jsonl"),
        output::write_csv(
            &dir,
            "obs_rounds.csv",
            &[
                "seed",
                "detection_rate",
                "false_positive_rate",
                "affected_before",
                "affected_after",
                "benign_alerts",
                "collusion_alerts",
            ],
            &rounds,
        )
        .expect("write rounds"),
        output::write_text(&dir, "obs_summary.txt", &summary).expect("write summary"),
    ];
    println!("artifacts:");
    for path in written {
        println!("  {}", path.display());
    }
}
