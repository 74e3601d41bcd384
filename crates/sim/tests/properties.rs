//! Property-based tests for the simulation layer.

use proptest::prelude::*;
use secloc_faults::{BurstLossSpec, ChurnSpec, NoiseRegion};
use secloc_geometry::{Field, GridIndex, Point2};
use secloc_sim::distributed::{run_distributed, DistributedConfig};
use secloc_sim::orchestrator::{cell_key, code_version_tag, CacheInsert};
use secloc_sim::{
    BinaryCache, Deployment, FaultPlan, NodeKind, Orchestrator, RunOptions, Runner, SimConfig,
    SimOutcome, SweepSpec,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn small_config() -> impl Strategy<Value = SimConfig> {
    (
        100u32..400,   // nodes
        5u32..40,      // beacons
        0.0..1.0f64,   // attacker P
        0u32..4,       // tau'
        1u32..4,       // tau
        1u32..9,       // m
        any::<bool>(), // collusion
        any::<bool>(), // wormhole on/off
    )
        .prop_map(
            |(nodes, beacons, p, tau_prime, tau, m, collusion, wormhole)| {
                let beacons = beacons.min(nodes / 3).max(2);
                SimConfig {
                    nodes,
                    beacons,
                    malicious: beacons / 4,
                    attacker_p: p,
                    tau,
                    tau_prime,
                    detecting_ids: m,
                    collusion,
                    wormhole: if wormhole {
                        SimConfig::paper_default().wormhole
                    } else {
                        None
                    },
                    ..SimConfig::paper_default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn experiment_invariants(cfg in small_config(), seed in 0u64..1000) {
        let outcome = Runner::new(cfg.clone(), seed).run(RunOptions::new()).outcome;
        // Rates are probabilities.
        prop_assert!((0.0..=1.0).contains(&outcome.detection_rate()));
        prop_assert!((0.0..=1.0).contains(&outcome.false_positive_rate()));
        // Revocation never increases poisoning.
        prop_assert!(outcome.affected_after <= outcome.affected_before + 1e-9);
        // Counts are bounded by the population.
        prop_assert!(outcome.revoked_malicious <= cfg.malicious);
        prop_assert!(outcome.revoked_benign <= cfg.benign_beacons());
        // The collusion bound (§4) plus wormhole slack.
        if cfg.collusion {
            let bound = (cfg.malicious * (cfg.tau + 1)) / (cfg.tau_prime + 1);
            prop_assert!(
                outcome.revoked_benign <= bound + 5,
                "{} benign revoked vs bound {}",
                outcome.revoked_benign,
                bound
            );
        }
    }

    #[test]
    fn experiment_deterministic(cfg in small_config(), seed in 0u64..1000) {
        let a = Runner::new(cfg.clone(), seed).run(RunOptions::new()).outcome;
        let b = Runner::new(cfg, seed).run(RunOptions::new()).outcome;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn no_attackers_no_damage(seed in 0u64..1000) {
        let cfg = SimConfig {
            nodes: 300,
            beacons: 30,
            malicious: 0,
            wormhole: None,
            collusion: false,
            ..SimConfig::paper_default()
        };
        let outcome = Runner::new(cfg, seed).run(RunOptions::new()).outcome;
        prop_assert_eq!(outcome.benign_alerts, 0);
        prop_assert_eq!(outcome.revoked_benign, 0);
        prop_assert_eq!(outcome.affected_before, 0.0);
    }

    #[test]
    fn distributed_invariants(
        seed in 0u64..200,
        hops in 0u32..4,
        p in 0.0..1.0f64,
    ) {
        let cfg = SimConfig {
            nodes: 300,
            beacons: 30,
            malicious: 4,
            attacker_p: p,
            wormhole: None,
            ..SimConfig::paper_default()
        };
        let d = Deployment::generate(cfg, seed);
        let out = run_distributed(
            &d,
            DistributedConfig { tau: 2, tau_prime: 2, gossip_hops: hops },
            seed + 1,
        );
        prop_assert!((0.0..=1.0).contains(&out.neighbourhood_detection_rate));
        prop_assert!((0.0..=1.0).contains(&out.neighbourhood_false_positive_rate));
        prop_assert!(out.affected_after >= 0.0);
    }
}

/// Node `i`'s audible beacons by the per-node definition: the beacons
/// among its radio neighbours, ascending, then the benign beacons whose
/// signal a wormhole carries into its range, ascending.
fn audible_by_definition(d: &Deployment, i: u32) -> Vec<u32> {
    let cfg = d.config();
    let mut out: Vec<u32> = d
        .neighbors(i)
        .into_iter()
        .filter(|&v| v < cfg.beacons)
        .collect();
    if let Some(w) = d.wormhole() {
        let p = d.position(i);
        for v in 0..cfg.beacons {
            let vp = d.position(v);
            if v != i
                && d.kind(v) == NodeKind::BenignBeacon
                && p.distance(vp) > cfg.range_ft
                && w.tunnels(vp, p, cfg.range_ft)
            {
                out.push(v);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn audible_graph_matches_the_per_node_definition(
        nodes in 20u32..400,
        beacon_share in 0.02f64..0.6,
        side in 300.0f64..1500.0,
        range_share in 0.03f64..0.45,
        wormhole in any::<bool>(),
        exact in any::<bool>(),
        picks in (any::<u64>(), any::<u64>()),
        seed in 0u64..10_000,
    ) {
        let beacons = ((f64::from(nodes) * beacon_share) as u32).max(1);
        let mut cfg = SimConfig {
            nodes,
            beacons,
            malicious: beacons / 5,
            field_side_ft: side,
            range_ft: side * range_share,
            lie_offset_ft: 2.0 * side,
            wormhole: wormhole.then(|| {
                (Point2::new(0.1 * side, 0.1 * side), Point2::new(0.8 * side, 0.7 * side))
            }),
            ..SimConfig::paper_default()
        };
        let mut d = Deployment::generate(cfg.clone(), seed);
        if exact {
            // Positions do not depend on the range, so redeploying at one
            // beacon-to-node distance puts that node exactly `range` from
            // that beacon.
            let b = (picks.0 % u64::from(beacons)) as u32;
            let n = (picks.1 % u64::from(nodes)) as u32;
            let range = d.position(b).distance(d.position(n));
            prop_assume!(range > 0.0);
            cfg.range_ft = range;
            let redeployed = Deployment::generate(cfg.clone(), seed);
            prop_assert_eq!(redeployed.position(n), d.position(n));
            d = redeployed;
        }
        let mut total = 0usize;
        for i in 0..nodes {
            let want = audible_by_definition(&d, i);
            prop_assert_eq!(d.audible_beacons(i), want.as_slice(), "node {}", i);
            total += want.len();
        }
        prop_assert_eq!(d.audible_pair_count(0, nodes), total);
        let longest = (0..nodes).map(|i| d.audible_beacons(i).len()).max();
        prop_assert_eq!(d.max_audible_len(), longest.unwrap_or(0));
        // N_c by its definition: each beacon's range count less itself.
        let index = GridIndex::build(
            &Field::square(side),
            cfg.range_ft,
            (0..nodes).map(|i| d.position(i)),
        );
        let requesters: usize = (0..beacons)
            .map(|b| index.count_within(d.position(b), cfg.range_ft) - 1)
            .sum();
        prop_assert_eq!(
            d.mean_requesters_per_beacon().to_bits(),
            (requesters as f64 / f64::from(beacons)).to_bits()
        );
    }
}

/// A probability that is exactly 0 or exactly 1 a quarter of the time each.
fn edge_probability() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0..=1.0f64).prop_map(|(edge, inner)| match edge {
        0 => 0.0,
        1 => 1.0,
        _ => inner,
    })
}

/// A random fault plan over a unit field (scale its noise regions by the
/// field side): each channel on or off, noise regions inside or outside
/// the field.
fn any_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (any::<bool>(), edge_probability(), edge_probability()),
        (edge_probability(), edge_probability()),
        proptest::collection::vec(
            (-0.5..1.5f64, -0.5..1.5f64, 0.01..1.0f64, 0.25..4.0f64),
            0..3,
        ),
        (any::<bool>(), 0u64..20_000),
        (any::<bool>(), edge_probability(), edge_probability()),
    )
        .prop_map(
            |(
                (burst, good, bad),
                (to_bad, to_good),
                regions,
                (drift, skew),
                (churn, rate, down),
            )| {
                let mut plan = FaultPlan::default();
                if burst {
                    plan = plan.with_burst_loss(BurstLossSpec {
                        good_loss: good,
                        bad_loss: bad,
                        p_good_to_bad: to_bad,
                        p_bad_to_good: to_good,
                    });
                }
                for (x, y, radius, figure) in regions {
                    plan = plan.with_noise_region(NoiseRegion::disc(
                        Point2::new(x, y),
                        radius,
                        figure,
                    ));
                }
                if drift {
                    plan = plan.with_clock_drift(skew);
                }
                if churn {
                    plan = plan.with_churn(ChurnSpec::random(rate, down));
                }
                plan
            },
        )
}

/// Any configuration `SimConfig::validate` accepts within 300 nodes:
/// every count from its minimum, m 0–9, τ and τ′ 0–3, probabilities on
/// their edges, wormholes inside or outside the field and a random fault
/// plan. Drawn configurations the validator rejects are redrawn.
fn any_valid_config() -> impl Strategy<Value = SimConfig> {
    let counts = (1u32..=300, 0.0..=1.0f64, 0.0..=1.0f64);
    let geometry = (50.0..2000.0f64, 0.03..1.5f64, 0.0..1.0f64, 1.0..4.0f64);
    let policy = (0u32..=9, 0u32..=3, 0u32..=3, any::<bool>(), 1u32..=4);
    let probabilities = (edge_probability(), edge_probability(), edge_probability());
    let wormhole = (
        any::<bool>(),
        -0.5..1.5f64,
        -0.5..1.5f64,
        -0.5..1.5f64,
        -0.5..1.5f64,
    );
    (
        counts,
        geometry,
        policy,
        probabilities,
        wormhole,
        any_fault_plan(),
    )
        .prop_map(
            |(
                (nodes, beacon_share, malicious_share),
                (side, range_share, eps_share, lie_factor),
                (m, tau, tau_prime, collusion, retransmissions),
                (p_d, p, loss),
                (tunnel, ax, ay, bx, by),
                mut faults,
            )| {
                let beacons = ((nodes as f64 * beacon_share) as u32).clamp(1, nodes);
                let range = side * range_share;
                for region in &mut faults.noise_regions {
                    region.center = Point2::new(region.center.x * side, region.center.y * side);
                    region.radius_ft *= side;
                }
                SimConfig {
                    nodes,
                    beacons,
                    malicious: (beacons as f64 * malicious_share) as u32,
                    field_side_ft: side,
                    range_ft: range,
                    max_ranging_error_ft: range * eps_share,
                    detecting_ids: m,
                    tau,
                    tau_prime,
                    wormhole: tunnel.then(|| {
                        (
                            Point2::new(ax * side, ay * side),
                            Point2::new(bx * side, by * side),
                        )
                    }),
                    wormhole_detection_rate: p_d,
                    attacker_p: p,
                    lie_offset_ft: range * lie_factor,
                    collusion,
                    alert_loss_rate: loss,
                    alert_retransmissions: retransmissions,
                    faults,
                }
            },
        )
        .prop_filter("valid", |c| c.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The config-space property: whatever `validate`
    /// accepts runs to an outcome equal to itself — no NaN anywhere, so
    /// checkpoints and the result cache can hold it.
    #[test]
    fn every_valid_config_runs_to_a_self_equal_outcome(cfg in any_valid_config(), seed in any::<u64>()) {
        let outcome = Runner::new(cfg.clone(), seed).run(RunOptions::new()).outcome;
        prop_assert_eq!(&outcome, &outcome.clone(), "{:?} seed {}", cfg, seed);
    }
}

/// Every field of `o`, each float as its bits, so equal values mean
/// identical bytes (`None` errors included).
fn outcome_bits(o: &SimOutcome) -> ([u32; 4], [usize; 2], [u64; 3], [Option<u64>; 2]) {
    let SimOutcome {
        malicious_total,
        benign_total,
        revoked_malicious,
        revoked_benign,
        affected_before,
        affected_after,
        benign_alerts,
        collusion_alerts,
        mean_requesters_per_beacon,
        mean_loc_error_before_ft,
        mean_loc_error_after_ft,
    } = *o;
    (
        [
            malicious_total,
            benign_total,
            revoked_malicious,
            revoked_benign,
        ],
        [benign_alerts, collusion_alerts],
        [affected_before, affected_after, mean_requesters_per_beacon].map(f64::to_bits),
        [mean_loc_error_before_ft, mean_loc_error_after_ft].map(|e| e.map(f64::to_bits)),
    )
}

/// A fresh directory per case — the suite runs tests in parallel.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "secloc-properties-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The config-space property through the persistent layers: the
    /// outcome of whatever `validate` accepts is stored once by the binary
    /// cache, known again on a second insert and read back after a reopen,
    /// and a one-cell checkpointed sweep returns it both fresh and resumed
    /// from its own checkpoint — bit for bit every time.
    #[test]
    fn every_valid_outcome_survives_the_cache_and_a_resume(
        cfg in any_valid_config(),
        seed in any::<u64>(),
    ) {
        let outcome = Runner::new(cfg.clone(), seed).run(RunOptions::new()).outcome;
        let want = outcome_bits(&outcome);
        let dir = scratch_dir();

        let key = cell_key(&cfg, seed, &code_version_tag());
        let cache_dir = dir.join("cache.bin");
        let mut cache = BinaryCache::open(&cache_dir, 1).expect("open cache");
        let first = cache.insert_checked(key, outcome.clone()).expect("insert");
        let second = cache.insert_checked(key, outcome).expect("insert");
        drop(cache);
        let cached = BinaryCache::open(&cache_dir, 1)
            .and_then(|c| c.get(key))
            .expect("reopen cache");

        let spec = SweepSpec::single(&cfg, &[seed]);
        let checkpoint = dir.join("checkpoint.jsonl");
        let sweep = || {
            Orchestrator::new()
                .workers(1)
                .checkpoint(&checkpoint)
                .run(&spec)
                .expect("checkpointed sweep")
        };
        let fresh = sweep();
        let resumed = sweep();
        fs::remove_dir_all(&dir).ok();

        prop_assert_eq!((first, second), (CacheInsert::Inserted, CacheInsert::Duplicate));
        prop_assert_eq!(cached.as_ref().map(outcome_bits), Some(want));
        prop_assert_eq!((fresh.executed, resumed.resumed, resumed.executed), (1, 1, 0));
        prop_assert_eq!(outcome_bits(&fresh.outcomes[0]), want, "{:?} seed {}", cfg, seed);
        prop_assert_eq!(outcome_bits(&resumed.outcomes[0]), want, "{:?} seed {}", cfg, seed);
    }
}
