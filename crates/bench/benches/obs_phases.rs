//! Observability bench — per-phase wall times of the instrumented
//! simulation, plus the overhead of instrumentation itself.
//!
//! Times `RUNS` seeded runs in two arms — observability disabled vs a live
//! metrics registry (which populates the `span.phase.*.ns` histograms) —
//! and writes `results/BENCH_obs.json` with per-phase p50/p90/p99 and the
//! overhead ratio. Each seed runs both arms back-to-back and the gated
//! ratio is the median of the per-seed paired ratios, which holds still
//! on a noisy shared container where single-pass arm totals wander ±10%.

use secloc_bench::{banner, results_dir};
use secloc_obs::{MetricsRegistry, Obs};
use secloc_sim::{RunOptions, Runner, SimConfig, PHASE_NAMES};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const RUNS: u64 = 60;

fn config() -> SimConfig {
    SimConfig {
        nodes: 600,
        beacons: 60,
        malicious: 3,
        attacker_p: 0.3,
        ..SimConfig::paper_default()
    }
}

fn main() {
    banner(
        "BENCH obs",
        "per-phase wall time and instrumentation overhead (60 seeded runs, paired median)",
    );

    let time_run = |seed: u64, telemetry: &Obs| -> u64 {
        let start = Instant::now();
        let _ = Runner::new_observed(config(), seed, telemetry)
            .run(RunOptions::new().observed(telemetry));
        start.elapsed().as_nanos() as u64
    };

    // Baseline: observability fully disabled (the default path).
    // Instrumented: metrics registry attached, no event sink. Each seed is
    // timed in both arms back-to-back (order alternating so either arm's
    // cache-warming benefit cancels), and the gated ratio is the median of
    // the per-seed paired ratios: a shared-container noise burst spans
    // both halves of a pair, so it cannot bias the median the way it can
    // bias an arm total.
    let disabled = Obs::disabled();
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = Obs::with_metrics(registry.clone());
    let mut ratios: Vec<f64> = Vec::with_capacity(RUNS as usize);
    let (mut disabled_ns, mut observed_ns) = (0u64, 0u64);
    for seed in 0..RUNS {
        let (d, o) = if seed % 2 == 0 {
            let d = time_run(seed, &disabled);
            (d, time_run(seed, &telemetry))
        } else {
            let o = time_run(seed, &telemetry);
            (time_run(seed, &disabled), o)
        };
        disabled_ns += d;
        observed_ns += o;
        ratios.push(o as f64 / d as f64);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));

    let overhead = ratios[ratios.len() / 2];
    println!("  disabled: {:>12} ns for {RUNS} runs", disabled_ns);
    println!("  observed: {:>12} ns for {RUNS} runs", observed_ns);
    println!("  ratio:    {overhead:.3}");

    // Hand-rolled JSON: the bench crate is as dependency-free as the rest.
    let snapshot = registry.snapshot();
    let mut json = String::from("{\n  \"bench\": \"obs_phases\",\n");
    let _ = writeln!(json, "  \"runs\": {RUNS},");
    let _ = writeln!(json, "  \"disabled_total_ns\": {disabled_ns},");
    let _ = writeln!(json, "  \"observed_total_ns\": {observed_ns},");
    let _ = writeln!(json, "  \"overhead_ratio\": {overhead:.4},");
    json.push_str("  \"phases\": {\n");
    let mut first = true;
    for name in PHASE_NAMES {
        let Some(h) = snapshot.histogram(&format!("span.phase.{name}.ns")) else {
            continue;
        };
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let (p50, p90, p99) = h.p50_p90_p99();
        let _ = write!(
            json,
            "    \"{name}\": {{\"runs\": {}, \"total_ns\": {:.0}, \"mean_ns\": {:.0}, \
             \"p50_ns\": {:.0}, \"p90_ns\": {:.0}, \"p99_ns\": {:.0}}}",
            h.count,
            h.sum,
            h.mean(),
            p50,
            p90,
            p99
        );
        println!(
            "  {name:<16} mean {:>10.1} us  p99 {:>10.1} us",
            h.mean() / 1e3,
            p99 / 1e3
        );
    }
    json.push_str("\n  }\n}\n");

    let path = secloc_obs::output::write_text(results_dir(), "BENCH_obs.json", &json)
        .expect("write BENCH_obs.json");
    println!("\n  wrote {}", path.display());
}
