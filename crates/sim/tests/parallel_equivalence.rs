//! Serial-vs-parallel seeded equivalence for the intra-run localization
//! pipeline.
//!
//! `RunOptions::location_workers` claims that fanning the per-sensor
//! estimate chain over a scoped thread pool is *bit-identical* to the
//! in-line serial loop: workers claim sensor batches off an atomic
//! cursor, each solves on its own pre-sized scratch, and the
//! contributions are merged back in sensor order before any accumulator
//! is folded. This suite holds that claim across worker counts, config
//! corners, fault plans, the staged probe-stage path, and the
//! orchestrator's divided-budget wiring — the same shape as
//! `tests/equivalence.rs` holds for the optimized-vs-reference paths.

use secloc_faults::{ChurnSpec, FaultPlan, NoiseRegion};
use secloc_sim::{Orchestrator, RunOptions, Runner, SimConfig, SweepSpec};

fn base() -> SimConfig {
    SimConfig {
        nodes: 500,
        beacons: 50,
        malicious: 5,
        ..SimConfig::paper_default()
    }
}

fn corner_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "default",
            SimConfig {
                attacker_p: 0.3,
                ..base()
            },
        ),
        (
            "aggressive",
            SimConfig {
                attacker_p: 0.9,
                ..base()
            },
        ),
        (
            "no-wormhole-no-collusion",
            SimConfig {
                attacker_p: 0.5,
                wormhole: None,
                collusion: false,
                ..base()
            },
        ),
        (
            "no-malicious",
            SimConfig {
                malicious: 0,
                ..base()
            },
        ),
    ]
}

#[test]
fn parallel_run_matches_serial_across_worker_counts() {
    for (name, cfg) in corner_configs() {
        for seed in 0..3u64 {
            let runner = Runner::new(cfg.clone(), seed);
            let serial = runner.run(RunOptions::new()).outcome;
            for workers in [1usize, 2, 3, 4, 7] {
                let parallel = runner
                    .run(RunOptions::new().location_workers(workers))
                    .outcome;
                assert_eq!(
                    serial, parallel,
                    "{workers}-worker run diverged from serial: {name}, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn parallel_run_matches_serial_under_faults() {
    // Faulted kept-reference sets (churn holes, noise-skewed distances)
    // change which sensors solve and how — the merge order must still be
    // invisible.
    let plan = FaultPlan::default()
        .with_churn(ChurnSpec::random(0.2, 0.5))
        .with_noise_region(NoiseRegion::whole_field(1000.0, 1.8))
        .with_clock_drift(500);
    let cfg = SimConfig {
        attacker_p: 0.6,
        ..base()
    };
    for seed in 0..2u64 {
        let runner = Runner::new(cfg.clone(), seed);
        let serial = runner.run(RunOptions::new().faults(plan.clone())).outcome;
        let parallel = runner
            .run(RunOptions::new().faults(plan.clone()).location_workers(4))
            .outcome;
        assert_eq!(
            serial, parallel,
            "faulted parallel run diverged, seed {seed}"
        );
    }
}

#[test]
fn parallel_probe_stage_matches_serial_staged_finish() {
    // The shared probe-stage snapshot embeds the τ-independent impact
    // precompute; solving it on a pool must leave every staged finish
    // bit-identical.
    let cfg = SimConfig {
        attacker_p: 0.6,
        ..base()
    };
    let runner = Runner::new(cfg.clone(), 17);
    let serial_stage = runner.probe_stage();
    let parallel_stage = runner.probe_stage_with(4);
    let mut policy = cfg;
    for (tau, tau_prime) in [(1, 1), (2, 2), (3, 4)] {
        policy.tau = tau;
        policy.tau_prime = tau_prime;
        let cell = Runner::from_deployment(
            runner
                .deployment()
                .with_policy(policy.clone())
                .expect("policy"),
        );
        assert_eq!(
            cell.finish_from_stage(&serial_stage),
            cell.finish_from_stage(&parallel_stage),
            "staged finish diverged: tau={tau} tau'={tau_prime}"
        );
    }
}

#[test]
fn sweep_with_location_budget_is_bit_identical() {
    // Orchestrator wiring: the localization budget divides across the
    // sweep pool, and any (sweep workers × location budget) combination
    // produces the same outcomes as the all-serial sweep.
    let mut strict = base();
    strict.tau += 1;
    strict.tau_prime += 1;
    let spec = SweepSpec::product(&[base(), strict], &[7, 8, 9]);
    let plain = Orchestrator::new().workers(2).run(&spec).expect("plain");
    for (sweep_workers, budget) in [(1usize, 4usize), (2, 4), (2, 8), (4, 2)] {
        let budgeted = Orchestrator::new()
            .workers(sweep_workers)
            .location_workers(budget)
            .run(&spec)
            .expect("budgeted");
        assert_eq!(
            plain.outcomes, budgeted.outcomes,
            "sweep diverged at workers={sweep_workers} budget={budget}"
        );
    }
}
