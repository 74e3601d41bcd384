//! Criterion microbenchmarks for the performance-sensitive kernels:
//! the localization estimators, the detection pipeline, the
//! binomial analysis, and a full simulation step. These measure *our*
//! implementation's throughput (the paper reports no performance numbers).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_analysis::{revocation_rate_pd, NetworkPopulation};
use secloc_core::{DetectionPipeline, Observation};
use secloc_geometry::Point2;
use secloc_localization::{BatchedMmse, Estimator, LocationReference, MmseEstimator, MmseScratch};
use secloc_oracle::mmse;
use secloc_radio::timing::RttModel;
use secloc_radio::Cycles;
use secloc_sim::{Orchestrator, RunOptions, Runner, SimConfig, SweepSpec};

fn bench_localization(c: &mut Criterion) {
    let truth = Point2::new(420.0, 310.0);
    let refs: Vec<LocationReference> = [
        (100.0, 100.0),
        (900.0, 150.0),
        (500.0, 800.0),
        (200.0, 600.0),
        (750.0, 500.0),
        (400.0, 50.0),
    ]
    .iter()
    .map(|&(x, y)| {
        let a = Point2::new(x, y);
        LocationReference::new(a, a.distance(truth) + 3.0)
    })
    .collect();
    let est = MmseEstimator::default();
    c.bench_function("mmse_estimate_6refs", |b| {
        b.iter(|| est.estimate(black_box(&refs)).unwrap())
    });
}

/// The oracle's scalar MMSE vs the SoA-scratch batched solver on the
/// impact phase's workload shape: solve the full set, then a filtered
/// subset — the scalar side re-materializes the subset `Vec` per solve
/// (what the impact phase used to do), the batched side selects rows by
/// index.
fn bench_mmse_batched_vs_scalar(c: &mut Criterion) {
    let truth = Point2::new(420.0, 310.0);
    let refs: Vec<LocationReference> = (0..8)
        .map(|i| {
            let a = Point2::new(
                137.0 * (i as f64 + 1.0) % 1000.0,
                211.0 * (i as f64) % 900.0,
            );
            LocationReference::new(a, a.distance(truth) + 2.0)
        })
        .collect();
    let drop_mask = [false, true, false, false, true, false, false, false];
    let scalar = MmseEstimator::default();
    c.bench_function("mmse_batched_vs_scalar/scalar", |b| {
        b.iter(|| {
            let full = mmse::estimate(&scalar, black_box(&refs)).unwrap();
            let subset: Vec<LocationReference> = refs
                .iter()
                .zip(&drop_mask)
                .filter(|(_, &dropped)| !dropped)
                .map(|(r, _)| *r)
                .collect();
            let filtered = mmse::estimate(&scalar, &subset).unwrap();
            (full, filtered)
        })
    });
    let batched = BatchedMmse::default();
    let mut scratch = MmseScratch::new();
    c.bench_function("mmse_batched_vs_scalar/batched", |b| {
        b.iter(|| {
            scratch.load(black_box(&refs));
            let full = batched.estimate(&scratch).unwrap();
            scratch.load_from_iter(
                refs.iter()
                    .zip(&drop_mask)
                    .filter(|(_, &dropped)| !dropped)
                    .map(|(r, _)| *r),
            );
            let filtered = batched.estimate(&scratch).unwrap();
            (full, filtered)
        })
    });
}

fn bench_detection(c: &mut Criterion) {
    let pipeline = DetectionPipeline::paper_default();
    let obs = Observation {
        detector_position: Point2::new(100.0, 100.0),
        declared_position: Point2::new(600.0, 500.0),
        measured_distance_ft: 104.0,
        rtt: Cycles::new(6_700),
        wormhole_detector_fired: false,
    };
    c.bench_function("pipeline_evaluate", |b| {
        b.iter(|| pipeline.evaluate(black_box(&obs)))
    });
}

fn bench_rtt_model(c: &mut Criterion) {
    let model = RttModel::paper_default();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("rtt_sample", |b| {
        b.iter(|| model.sample(black_box(100.0), Cycles::ZERO, &mut rng))
    });
}

fn bench_analysis(c: &mut Criterion) {
    let pop = NetworkPopulation::paper_simulation();
    c.bench_function("revocation_rate_pd_nc100", |b| {
        b.iter(|| revocation_rate_pd(black_box(0.2), 8, 2, 100, pop))
    });
}

fn bench_simulation(c: &mut Criterion) {
    let cfg = SimConfig {
        nodes: 200,
        beacons: 20,
        malicious: 2,
        ..SimConfig::paper_default()
    };
    c.bench_function("experiment_200_nodes", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            Runner::new(cfg.clone(), seed)
                .run(RunOptions::new())
                .outcome
        })
    });
}

/// A small policy-axis sweep through the orchestrator vs one fresh
/// `Runner::run` per cell. The orchestrator builds the deployment + probe
/// stage once per `(topology_key, seed)` group and finishes each policy
/// cell from the shared state; the fresh loop rebuilds everything per
/// cell.
fn bench_sweep_shared_vs_fresh(c: &mut Criterion) {
    let base = SimConfig {
        nodes: 200,
        beacons: 20,
        malicious: 2,
        ..SimConfig::paper_default()
    };
    let configs: Vec<SimConfig> = [(1u32, 1u32), (1, 2), (2, 1), (2, 2)]
        .iter()
        .map(|&(tau, tau_prime)| SimConfig {
            tau,
            tau_prime,
            ..base.clone()
        })
        .collect();
    let spec = SweepSpec::product(&configs, &[7]);
    c.bench_function("sweep_shared_vs_fresh/shared", |b| {
        b.iter(|| {
            Orchestrator::new()
                .workers(1)
                .run(black_box(&spec))
                .unwrap()
                .outcomes
        })
    });
    c.bench_function("sweep_shared_vs_fresh/fresh", |b| {
        b.iter(|| {
            black_box(&spec)
                .cells()
                .iter()
                .map(|cell| {
                    Runner::new(cell.config.clone(), cell.seed)
                        .run(RunOptions::new())
                        .outcome
                })
                .collect::<Vec<_>>()
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_localization,
    bench_mmse_batched_vs_scalar,
    bench_detection,
    bench_rtt_model,
    bench_analysis,
    bench_simulation,
    bench_sweep_shared_vs_fresh
);
criterion_main!(micro);
