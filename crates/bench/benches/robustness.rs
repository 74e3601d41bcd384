//! Robustness sweep: detection / false-positive curves under injected
//! degradation.
//!
//! The figure benches reproduce the paper under its own (clean-channel,
//! bounded-error) assumptions; this bench asks how gracefully the scheme
//! degrades when those assumptions break:
//!
//! 1. **Noise figure** — uniform ranging degradation at figures
//!    1.0 / 1.5 / 2.0 / 3.0. Above 1.0 the detector's hard `ε_max`
//!    premise fails for benign measurements, so false positives climb.
//! 2. **Burst loss** — a Gilbert–Elliott alert channel from "off" through
//!    `mild()` to `severe()`, against a tight retransmission budget, plus
//!    a matched-long-run-rate *uniform* control curve showing that
//!    correlation — not just rate — is what defeats the retry budget.
//!
//! Writes `results/BENCH_robustness.json` with one empirical curve per
//! axis (the [`secloc_analysis::roc::RobustnessCurve`] shape) and the
//! injected-fault counters from one observed worst-case run. Pass
//! `--quick` (the CI perf-smoke mode) to cut seed counts.

use secloc_analysis::roc::{EmpiricalPoint, RobustnessCurve};
use secloc_bench::{banner, results_dir, Table};
use secloc_faults::{BurstLossSpec, ChurnSpec, FaultPlan, NoiseRegion};
use secloc_obs::{MetricsRegistry, Obs};
use secloc_sim::orchestrator::{code_version_tag, config_fingerprint, outcome_revision};
use secloc_sim::{average_outcomes, Orchestrator, RunOptions, Runner, SimConfig, SweepSpec};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cumulative cache accounting across all measured points, for the JSON
/// artifact: a re-run against a warm `BENCH_robustness_cache.bin` should
/// show `cells_executed = 0`.
static CACHE_HITS: AtomicUsize = AtomicUsize::new(0);
static CELLS_EXECUTED: AtomicUsize = AtomicUsize::new(0);

fn base_config() -> SimConfig {
    SimConfig {
        nodes: 500,
        beacons: 50,
        malicious: 5,
        attacker_p: 0.6,
        ..SimConfig::paper_default()
    }
}

/// Averages `seeds` runs of `config` (with its embedded fault plan) into
/// one empirical point at `severity`. Cells go through the sweep
/// orchestrator with a persistent result cache, so re-running the bench
/// (or running `--quick` after a full pass, whose seeds are a subset)
/// simulates only what the cache has not seen.
fn measure(config: &SimConfig, severity: f64, seeds: &[u64]) -> EmpiricalPoint {
    let report = Orchestrator::new()
        .cache(results_dir().join("BENCH_robustness_cache.bin"))
        .run(&SweepSpec::single(config, seeds))
        .expect("robustness sweep cache I/O");
    CACHE_HITS.fetch_add(report.cache_hits, Ordering::Relaxed);
    CELLS_EXECUTED.fetch_add(report.executed, Ordering::Relaxed);
    let agg = average_outcomes(&report.outcomes);
    EmpiricalPoint {
        severity,
        detection_rate: agg.detection_rate,
        false_positive_rate: agg.false_positive_rate,
        runs: seeds.len() as u32,
    }
}

fn noise_curve(seeds: &[u64]) -> RobustnessCurve {
    let mut curve = RobustnessCurve::new("noise_figure");
    for figure in [1.0, 1.5, 2.0, 3.0] {
        let mut cfg = base_config();
        if figure > 1.0 {
            cfg.faults = FaultPlan::default()
                .with_noise_region(NoiseRegion::whole_field(cfg.field_side_ft, figure));
        }
        curve.push(measure(&cfg, figure, seeds));
    }
    curve
}

/// The swept burst severities: deep fades get longer and deeper left to
/// right. `None` is the fault-free baseline.
fn burst_settings() -> Vec<Option<BurstLossSpec>> {
    vec![
        None,
        Some(BurstLossSpec::mild()),
        Some(BurstLossSpec {
            good_loss: 0.05,
            bad_loss: 0.8,
            p_good_to_bad: 0.08,
            p_bad_to_good: 0.15,
        }),
        Some(BurstLossSpec::severe()),
    ]
}

fn burst_curves(seeds: &[u64]) -> (RobustnessCurve, RobustnessCurve) {
    // A tight retry budget and no collusion/wormhole noise: the only thing
    // separating the two curves is the loss process on the alert path.
    let shape = |mut cfg: SimConfig| {
        cfg.collusion = false;
        cfg.wormhole = None;
        cfg.alert_retransmissions = 3;
        cfg
    };
    let mut burst = RobustnessCurve::new("burst_long_run_loss_rate");
    let mut uniform = RobustnessCurve::new("uniform_loss_rate");
    for spec in burst_settings() {
        let rate = spec.map_or(0.0, |s| s.long_run_loss_rate());
        let mut bcfg = shape(base_config());
        bcfg.alert_loss_rate = 0.0;
        if let Some(s) = spec {
            bcfg.faults = FaultPlan::default().with_burst_loss(s);
        }
        burst.push(measure(&bcfg, rate, seeds));
        // The control: independent loss at the same long-run rate.
        let mut ucfg = shape(base_config());
        ucfg.alert_loss_rate = rate;
        uniform.push(measure(&ucfg, rate, seeds));
    }
    (burst, uniform)
}

fn write_curve(json: &mut String, curve: &RobustnessCurve, last: bool) {
    let _ = writeln!(json, "    \"{}\": [", curve.axis);
    for (i, p) in curve.points.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"severity\": {:.4}, \"detection_rate\": {:.4}, \
             \"false_positive_rate\": {:.4}, \"runs\": {}}}",
            p.severity, p.detection_rate, p.false_positive_rate, p.runs
        );
        json.push_str(if i + 1 < curve.points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str(if last { "    ]\n" } else { "    ],\n" });
}

fn print_curve(curve: &RobustnessCurve) {
    println!("\n  axis: {}", curve.axis);
    let mut table = Table::new(["severity", "detection", "false positives", "runs"]);
    for p in &curve.points {
        table.row([
            format!("{:.3}", p.severity),
            format!("{:.3}", p.detection_rate),
            format!("{:.3}", p.false_positive_rate),
            p.runs.to_string(),
        ]);
    }
    table.print();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: Vec<u64> = if quick {
        (0..3).collect()
    } else {
        (0..8).collect()
    };
    banner(
        "BENCH robustness",
        if quick {
            "degradation curves under injected faults (quick mode)"
        } else {
            "degradation curves under injected faults"
        },
    );

    let noise = noise_curve(&seeds);
    let (burst, uniform) = burst_curves(&seeds);
    for curve in [&noise, &burst, &uniform] {
        print_curve(curve);
    }

    // One observed worst-case run, for the injected-fault accounting.
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = Obs::with_metrics(registry.clone());
    let mut worst = base_config();
    worst.faults = FaultPlan::default()
        .with_noise_region(NoiseRegion::whole_field(worst.field_side_ft, 3.0))
        .with_burst_loss(BurstLossSpec::severe())
        .with_clock_drift(2_000)
        .with_churn(ChurnSpec::random(0.2, 0.5));
    let _ = Runner::new(worst, 1).run(RunOptions::new().observed(&telemetry));
    let snapshot = registry.snapshot();
    let fault_counters: Vec<(&String, &u64)> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("faults."))
        .collect();

    let mut json = String::from("{\n  \"bench\": \"robustness\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"seeds_per_point\": {},", seeds.len());
    let _ = writeln!(
        json,
        "  \"config\": \"paper_default shrunk to 500/50/5, attacker_p 0.6\","
    );
    let _ = writeln!(json, "  \"outcome_revision\": {},", outcome_revision());
    let _ = writeln!(json, "  \"code_version\": \"{}\",", code_version_tag());
    let _ = writeln!(
        json,
        "  \"config_fingerprint\": \"{}\",",
        config_fingerprint(&base_config())
    );
    json.push_str("  \"curves\": {\n");
    write_curve(&mut json, &noise, false);
    write_curve(&mut json, &burst, false);
    write_curve(&mut json, &uniform, true);
    json.push_str("  },\n");
    json.push_str("  \"worst_case_fault_counters\": {\n");
    for (i, (name, value)) in fault_counters.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {value}");
        json.push_str(if i + 1 < fault_counters.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"cache_hits\": {},",
        CACHE_HITS.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        json,
        "  \"cells_executed\": {},",
        CELLS_EXECUTED.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        json,
        "  \"noise_detection_drop\": {:.4},",
        noise.detection_drop().unwrap_or(0.0)
    );
    let _ = writeln!(
        json,
        "  \"burst_detection_drop\": {:.4},",
        burst.detection_drop().unwrap_or(0.0)
    );
    let _ = writeln!(
        json,
        "  \"uniform_detection_drop\": {:.4}",
        uniform.detection_drop().unwrap_or(0.0)
    );
    json.push_str("}\n");

    let path = secloc_obs::output::write_text(results_dir(), "BENCH_robustness.json", &json)
        .expect("write BENCH_robustness.json");
    println!(
        "\n  detection drop — noise {:.3}, burst {:.3} (uniform control {:.3})",
        noise.detection_drop().unwrap_or(0.0),
        burst.detection_drop().unwrap_or(0.0),
        uniform.detection_drop().unwrap_or(0.0)
    );
    println!(
        "  cache: {} hits, {} cells simulated",
        CACHE_HITS.load(Ordering::Relaxed),
        CELLS_EXECUTED.load(Ordering::Relaxed)
    );
    println!("  [json] {}", path.display());
}
