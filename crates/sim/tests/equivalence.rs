//! Optimized-vs-reference seeded equivalence.
//!
//! The allocation-free hot paths (scratch-buffer neighbour queries, batch
//! event drains, the cached audible graph, impact metrics that re-solve only
//! the sensors revocation touched) claim
//! to be *bit-identical* to the code they replaced: same seeded RNG draw
//! order, same floating-point operations, same `SimOutcome`. This test
//! holds that claim against the straight-line reference run of
//! `secloc-oracle` across seeds and across the attack-surface corners a
//! run can exercise.
//!
//! The fault-injection subsystem makes a second bit-identity claim: a run
//! under an **empty** `FaultPlan` is indistinguishable — same draws, same
//! bits — from a run of the pre-fault simulator.

use proptest::prelude::*;
use secloc_faults::{BurstLossSpec, ChurnSpec, NoiseRegion, Outage};
use secloc_geometry::Point2;
use secloc_sim::{
    Deployment, FaultPlan, Orchestrator, RunOptions, Runner, SimConfig, SimOutcome, SweepSpec,
};

/// The reference run of `runner`'s deployment under `plan`.
fn reference(runner: &Runner, plan: &FaultPlan) -> SimOutcome {
    secloc_oracle::run(runner.deployment(), plan)
}

/// The reference run under the configuration's own fault plan.
fn reference_plain(runner: &Runner) -> SimOutcome {
    reference(runner, &runner.deployment().config().faults)
}

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
            "silent-attackers",
            SimConfig {
                attacker_p: 0.0,
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
            "lossy-alert-channel",
            SimConfig {
                attacker_p: 0.6,
                alert_loss_rate: 0.5,
                alert_retransmissions: 3,
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
fn optimized_run_matches_reference_across_seeds_and_configs() {
    for (name, cfg) in corner_configs() {
        for seed in 0..3u64 {
            let runner = Runner::new(cfg.clone(), seed);
            assert_eq!(
                runner.run(RunOptions::new()).outcome,
                reference_plain(&runner),
                "optimized and reference runs diverged: {name}, seed {seed}"
            );
        }
    }
}

#[test]
fn empty_fault_plan_is_bit_identical_to_fault_free_run() {
    // The config's default plan is empty: the run must yield the exact
    // same `SimOutcome` as the reference run under an explicitly empty
    // plan.
    for (name, cfg) in corner_configs() {
        for seed in 0..3u64 {
            let runner = Runner::new(cfg.clone(), seed);
            let plain = runner.run(RunOptions::new()).outcome;
            let reference_empty = reference(&runner, &FaultPlan::none());
            assert_eq!(
                plain, reference_empty,
                "reference path under empty plan diverged: {name}, seed {seed}"
            );
        }
    }
}

#[test]
fn faulted_runs_match_reference_across_fault_categories() {
    // Each fault category alone, then all at once: the optimized and
    // reference paths must stay bit-identical under injection too (the
    // fault draws come from their own streams on both paths).
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "burst-loss",
            FaultPlan::default().with_burst_loss(BurstLossSpec::severe()),
        ),
        (
            "regional-noise",
            FaultPlan::default().with_noise_region(NoiseRegion::disc(
                Point2::new(300.0, 300.0),
                250.0,
                3.0,
            )),
        ),
        ("clock-drift", FaultPlan::default().with_clock_drift(1_000)),
        (
            "churn",
            FaultPlan::default().with_churn(ChurnSpec {
                outage_rate: 0.25,
                max_downtime_frac: 0.6,
                scheduled: vec![Outage {
                    node: 3,
                    from_frac: 0.0,
                    until_frac: f64::INFINITY,
                }],
            }),
        ),
        (
            "everything",
            FaultPlan::default()
                .with_burst_loss(BurstLossSpec::mild())
                .with_noise_region(NoiseRegion::whole_field(1000.0, 1.8))
                .with_clock_drift(500)
                .with_churn(ChurnSpec::random(0.15, 0.4)),
        ),
    ];
    let cfg = SimConfig {
        attacker_p: 0.6,
        ..base()
    };
    for (name, faults) in plans {
        for seed in 0..2u64 {
            let runner = Runner::new(
                SimConfig {
                    faults: faults.clone(),
                    ..cfg.clone()
                },
                seed,
            );
            assert_eq!(
                runner.run(RunOptions::new()).outcome,
                reference(&runner, &faults),
                "faulted paths diverged: {name}, seed {seed}"
            );
        }
    }
}

/// One randomized policy variant layered on a fixed topology. The
/// revocation knobs always vary; `probe_sel` sometimes also varies the
/// probe-relevant fields, so the generated grids mix cells that can share
/// a probe stage with cells that cannot — both orchestrator scheduling
/// shapes are exercised.
fn policy_variant() -> impl Strategy<Value = (u32, u32, f64, bool, u8)> {
    (1u32..4, 0u32..3, 0.0..0.4f64, any::<bool>(), 0u8..3)
}

/// The fault plans the sharing property must hold under: sharing groups by
/// `(topology_key, seed)` and the fault plan is a topology field, so every
/// policy variant replays the same injected degradations.
fn fault_plan(selector: u8) -> FaultPlan {
    match selector {
        0 => FaultPlan::default(),
        1 => FaultPlan::default().with_churn(ChurnSpec::random(0.2, 0.5)),
        _ => FaultPlan::default()
            .with_noise_region(NoiseRegion::whole_field(1000.0, 1.5))
            .with_clock_drift(500),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: a topology-sharing sweep — deployment and
    /// probe stage built once per `(topology_key, seed)` group, policy
    /// variants finished from the shared state — is bit-identical to
    /// building every cell from scratch, for randomized policy grids and
    /// under non-empty fault plans.
    #[test]
    fn shared_topology_sweep_is_bit_identical_to_fresh_runs(
        nodes in 200u32..350,
        beacons in 10u32..30,
        wormhole in any::<bool>(),
        faults_sel in 0u8..3,
        variants in proptest::collection::vec(policy_variant(), 2..5),
        seed in 0u64..100,
    ) {
        let base = SimConfig {
            nodes,
            beacons,
            malicious: beacons / 4,
            wormhole: if wormhole {
                SimConfig::paper_default().wormhole
            } else {
                None
            },
            faults: fault_plan(faults_sel),
            ..SimConfig::paper_default()
        };
        let configs: Vec<SimConfig> = variants
            .into_iter()
            .map(|(tau, tau_prime, alert_loss_rate, collusion, probe_sel)| {
                let mut c = SimConfig {
                    tau,
                    tau_prime,
                    alert_loss_rate,
                    collusion,
                    ..base.clone()
                };
                match probe_sel {
                    0 => {}
                    1 => c.detecting_ids += 2,
                    _ => {
                        c.attacker_p = 0.8;
                        c.max_ranging_error_ft = 20.0;
                    }
                }
                c
            })
            .collect();
        let spec = SweepSpec::product(&configs, &[seed, seed + 1]);
        let shared = Orchestrator::new()
            .workers(2)
            .run(&spec)
            .expect("shared sweep");
        let fresh: Vec<_> = spec
            .cells()
            .iter()
            .map(|c| {
                let d = Deployment::generate(c.config.clone(), c.seed);
                secloc_oracle::run(&d, &c.config.faults)
            })
            .collect();
        prop_assert_eq!(shared.outcomes, fresh);
    }
}

#[test]
fn fully_traced_sweep_is_bit_identical_to_unobserved_sweep() {
    // The observability tentpole's equivalence claim: per-cell span
    // tracing, per-decision `bs.alert` events, a flight-recorder tap and
    // the health monitor together consume no RNG and perturb nothing —
    // outcomes and checkpoint bytes match an `Obs::disabled()` sweep.
    use secloc_obs::health::{CounterAnomalyDetector, HealthDetector, HealthMonitor};
    use secloc_obs::{FlightRecorder, MemorySink, MetricsRegistry, Obs};
    use std::sync::Arc;

    let mut policy = base();
    policy.nodes = 250;
    policy.beacons = 25;
    policy.malicious = 4;
    let mut strict = policy.clone();
    strict.tau += 1;
    strict.tau_prime += 1;
    let spec = SweepSpec::product(&[policy, strict], &[7, 8]);

    let dir = std::env::temp_dir().join(format!("secloc-equiv-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plain_ckpt = dir.join("plain.jsonl");
    let traced_ckpt = dir.join("traced.jsonl");

    let plain = Orchestrator::new()
        .workers(2)
        .checkpoint(&plain_ckpt)
        .run(&spec)
        .expect("plain sweep");

    let sink = Arc::new(MemorySink::new());
    let detectors: Vec<Box<dyn HealthDetector>> = vec![Box::new(CounterAnomalyDetector::new(None))];
    let monitor = Arc::new(HealthMonitor::new(detectors, Some(sink.clone())));
    let obs = Obs::new(
        Some(Arc::new(MetricsRegistry::new())),
        Some(monitor.clone()),
    );
    let traced = Orchestrator::new()
        .workers(2)
        .checkpoint(&traced_ckpt)
        .observed(&obs)
        .flight_recorder(Arc::new(FlightRecorder::new(1024)), &dir)
        .run(&spec)
        .expect("traced sweep");

    assert_eq!(
        plain.outcomes, traced.outcomes,
        "tracing perturbed outcomes"
    );
    assert_eq!(
        std::fs::read(&plain_ckpt).unwrap(),
        std::fs::read(&traced_ckpt).unwrap(),
        "tracing perturbed checkpoint bytes"
    );
    monitor.finish();
    assert!(monitor.is_healthy(), "clean sweep raised health alerts");
    assert!(
        sink.events().iter().any(|e| e.kind == "bs.alert"),
        "traced sweep should carry per-decision events"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paper_scale_run_matches_reference() {
    // One full paper_default-scale run (1000 nodes): the scale the ≥2×
    // throughput claim is made at must also be the scale equivalence holds
    // at.
    let runner = Runner::new(SimConfig::paper_default(), 42);
    let plain = runner.run(RunOptions::new()).outcome;
    assert_eq!(plain, reference_plain(&runner));
}

#[test]
fn reference_run_matches_plain_run() {
    let r = Runner::new(
        SimConfig {
            nodes: 400,
            beacons: 40,
            malicious: 4,
            attacker_p: 0.5,
            ..SimConfig::paper_default()
        },
        3,
    );
    let plain = r.run(RunOptions::new());
    assert_eq!(reference_plain(&r), plain.outcome);
}

#[test]
fn faulted_runs_are_deterministic_and_match_reference() {
    let r = Runner::new(
        SimConfig {
            nodes: 400,
            beacons: 40,
            malicious: 4,
            attacker_p: 0.6,
            faults: FaultPlan::default()
                .with_burst_loss(BurstLossSpec::mild())
                .with_noise_region(NoiseRegion::disc(Point2::new(500.0, 500.0), 250.0, 2.5))
                .with_clock_drift(800)
                .with_churn(ChurnSpec::random(0.2, 0.5)),
            ..SimConfig::paper_default()
        },
        21,
    );
    let a = r.run(RunOptions::new());
    let b = r.run(RunOptions::new());
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(reference_plain(&r), a.outcome);
}

#[test]
fn dense_run_past_the_dropped_mask_width_matches_reference() {
    // 250 beacons in a 400 ft field: sensors hear 100+ beacons, more than
    // the staged finish's 64-bit dropped-reference mask covers, so every
    // sensor that loses a reference to revocation takes the direct
    // re-solve fallback.
    let cfg = SimConfig {
        nodes: 500,
        beacons: 250,
        malicious: 40,
        field_side_ft: 400.0,
        range_ft: 150.0,
        attacker_p: 0.6,
        wormhole: None,
        ..SimConfig::paper_default()
    };
    for seed in 0..3u64 {
        let runner = Runner::new(cfg.clone(), seed);
        assert!(runner.deployment().max_audible_len() > 64, "seed {seed}");
        let plain = runner.run(RunOptions::new()).outcome;
        assert!(
            plain.revoked_malicious + plain.revoked_benign > 0,
            "seed {seed} revokes nothing"
        );
        assert_eq!(
            runner.finish_from_stage(&runner.probe_stage()),
            plain,
            "staged finish diverged: seed {seed}"
        );
        assert_eq!(
            plain,
            reference_plain(&runner),
            "reference run diverged: seed {seed}"
        );
    }
}

#[test]
#[ignore = "paper scale: run in release with `-- --ignored`"]
fn paper_scale_policy_grid_sweep_matches_plain_runs() {
    // The revocation axis of Figs. 6, 10 and 14 as the policy_grid
    // benchmark sweeps it: τ 1..5 × τ′ 1..5 × alert loss {0, 0.1, 0.3} on
    // the paper's configuration. Each seed is one scheduling unit, so all
    // of its cells but the first finish from one shared stage and its
    // memo, in the sweep's own order, on one worker and on two.
    let mut configs = Vec::new();
    for tau in 1..=5 {
        for tau_prime in 1..=5 {
            for alert_loss_rate in [0.0, 0.1, 0.3] {
                configs.push(SimConfig {
                    tau,
                    tau_prime,
                    alert_loss_rate,
                    ..SimConfig::paper_default()
                });
            }
        }
    }
    let seeds = [41, 42, 43];
    let spec = SweepSpec::product(&configs, &seeds);
    let serial = Orchestrator::new()
        .workers(1)
        .run(&spec)
        .expect("one-worker sweep");
    let parallel = Orchestrator::new()
        .workers(2)
        .run(&spec)
        .expect("two-worker sweep");
    for (i, cell) in spec.cells().iter().enumerate() {
        let runner = Runner::new(cell.config.clone(), cell.seed);
        let plain = runner.run(RunOptions::new()).outcome;
        assert_eq!(serial.outcomes[i], plain, "workers(1), cell {i}");
        assert_eq!(parallel.outcomes[i], plain, "workers(2), cell {i}");
        if cell.seed == seeds[0] {
            assert_eq!(plain, reference_plain(&runner), "oracle, cell {i}");
        }
    }
}
