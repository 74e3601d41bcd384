//! Perf regression harness for the allocation-free hot paths.
//!
//! Measures before/after pairs on the same binary — the "before" sides
//! run the reference implementations of the dev-only `secloc-oracle`
//! crate (or, for grid queries, a fresh buffer per query) — so the ratios
//! are honest and machine-independent:
//!
//! 1. **grid queries** — a fresh `Vec` per `within_into` query vs one
//!    reused scratch buffer, over every node position at paper scale;
//! 2. **full run** — `secloc_oracle::run` vs `Runner::run` at
//!    `SimConfig::paper_default` scale, plus per-phase p50/p90/p99 from
//!    observed optimized runs;
//! 3. **location solve** — the oracle's scalar MMSE on a fresh `Vec` per
//!    sensor vs the lane-kernel `BatchedMmse` on a reused scratch;
//! 4. **sweep sharing** — a revocation-policy grid as one `Runner::run`
//!    per cell vs one orchestrator sweep sharing the probe stage.
//!
//! Writes `results/BENCH_perf.json`. The acceptance bars are a full-run
//! throughput ratio ≥ 3.5 and a location-phase ratio ≥ 3.0. Pass `--quick`
//! (the CI perf-smoke mode) to cut iteration counts; ratios get noisier but
//! the artifact shape is the same (the trend gate keys baselines by mode).

use secloc_bench::{banner, results_dir, Table};
use secloc_geometry::GridIndex;
use secloc_localization::{BatchedMmse, LocationReference, MmseEstimator, MmseScratch};
use secloc_obs::{MetricsRegistry, Obs};
use secloc_oracle::mmse;
use secloc_sim::orchestrator::{code_version_tag, config_fingerprint, outcome_revision, CellKey};
use secloc_sim::{
    BinaryCache, Deployment, Orchestrator, RunOptions, Runner, SimConfig, SimOutcome, SweepSpec,
    PHASE_NAMES,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One measured before/after pair.
struct Section {
    name: &'static str,
    iters: u64,
    before_ns: u64,
    after_ns: u64,
}

impl Section {
    fn ratio(&self) -> f64 {
        self.before_ns as f64 / self.after_ns as f64
    }
    fn per_iter(&self, total_ns: u64) -> f64 {
        total_ns as f64 / self.iters as f64
    }
}

fn time<R>(mut f: impl FnMut() -> R) -> u64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as u64
}

fn bench_grid(deployment: &Deployment, rounds: u32) -> Section {
    let cfg = deployment.config();
    let positions: Vec<_> = (0..cfg.nodes).map(|i| deployment.position(i)).collect();
    let field = secloc_geometry::Field::square(cfg.field_side_ft);
    let idx = GridIndex::build(&field, cfg.range_ft, positions.iter().copied());
    let r = cfg.range_ft;

    // Warm both paths once so neither pays first-touch costs.
    let mut scratch = Vec::new();
    idx.within_into(positions[0], r, &mut scratch);
    idx.within_into(positions[0], r, &mut Vec::new());

    let before_ns = time(|| {
        let mut total = 0usize;
        for _ in 0..rounds {
            for &p in &positions {
                // A fresh buffer per query, as an allocating query pays.
                let mut hits = Vec::new();
                idx.within_into(p, r, &mut hits);
                total += hits.len();
            }
        }
        total
    });
    let after_ns = time(|| {
        let mut total = 0usize;
        for _ in 0..rounds {
            for &p in &positions {
                idx.within_into(p, r, &mut scratch);
                total += scratch.len();
            }
        }
        total
    });
    Section {
        name: "grid_within",
        iters: u64::from(rounds) * positions.len() as u64,
        before_ns,
        after_ns,
    }
}

fn bench_full_run(cfg: &SimConfig, runs: u64, registry: &Arc<MetricsRegistry>) -> Section {
    // Same seeds on both sides; deployment generation is outside the timed
    // region (it is identical work for both paths).
    let runners: Vec<Runner> = (0..runs).map(|s| Runner::new(cfg.clone(), s)).collect();
    let before_ns = time(|| {
        for r in &runners {
            let d = r.deployment();
            black_box(secloc_oracle::run(d, &d.config().faults));
        }
    });
    // The optimized side runs observed so the per-phase histograms in
    // `registry` describe exactly the timed workload. Instrumentation
    // overhead lands on the optimized side, which only understates the
    // ratio.
    let telemetry = Obs::with_metrics(registry.clone());
    let after_ns = time(|| {
        for r in &runners {
            black_box(r.run(RunOptions::new().observed(&telemetry)));
        }
    });
    Section {
        name: "full_run",
        iters: runs,
        before_ns,
        after_ns,
    }
}

fn bench_location_simd(deployment: &Deployment, rounds: u32) -> Section {
    // Per-sensor reference sets with the audible-beacon shape of a real
    // run (anchor = beacon position, distance = true range). The before
    // side mirrors the reference run's impact phase — materialize each
    // sensor's set into a fresh `Vec`, solve with the oracle's scalar
    // MMSE — and the after side mirrors the optimized path: load one
    // reused pre-sized scratch, solve with the lane-kernel batched
    // solver. An equivalence gate precedes the timing: the two must agree
    // bit-for-bit.
    let d = deployment;
    let sets: Vec<Vec<LocationReference>> = d
        .sensors()
        .map(|w| {
            d.audible_beacons(w)
                .iter()
                .map(|&b| {
                    let anchor = d.position(b);
                    LocationReference::new(anchor, anchor.distance(d.position(w)))
                })
                .collect()
        })
        .collect();
    let estimator = MmseEstimator::default();
    let batched = BatchedMmse::default();
    let mut scratch = MmseScratch::with_capacity(d.max_audible_len());
    for refs in &sets {
        scratch.load(refs);
        assert_eq!(
            mmse::estimate(&estimator, refs)
                .map(|e| (e.position.x.to_bits(), e.position.y.to_bits())),
            batched
                .estimate(&scratch)
                .map(|e| (e.position.x.to_bits(), e.position.y.to_bits())),
            "lane-kernel solve diverged from scalar — ratios are meaningless"
        );
    }
    let before_ns = time(|| {
        let mut solved = 0usize;
        for _ in 0..rounds {
            for refs in &sets {
                // Fresh per-solve Vec, as the reference run's impact
                // phase pays on every sensor.
                let materialized: Vec<LocationReference> = refs.to_vec();
                solved += usize::from(mmse::estimate(&estimator, &materialized).is_ok());
            }
        }
        solved
    });
    let after_ns = time(|| {
        let mut solved = 0usize;
        for _ in 0..rounds {
            for refs in &sets {
                scratch.load(refs);
                solved += usize::from(batched.estimate(&scratch).is_ok());
            }
        }
        solved
    });
    Section {
        name: "location_simd",
        iters: u64::from(rounds) * sets.len() as u64,
        before_ns,
        after_ns,
    }
}

/// The shared-vs-fresh sweep measurement: a τ × τ′ revocation-policy grid
/// (the fig10/fig14 axis) over one topology, run 100% cache-cold — first
/// as one fresh `Runner::run` per cell, then through the orchestrator,
/// which deploys and probes once and finishes every cell from that
/// shared stage.
struct SweepSharing {
    policies: usize,
    cells: usize,
    fresh_ns: u64,
    shared_ns: u64,
    target: f64,
}

impl SweepSharing {
    fn ratio(&self) -> f64 {
        self.fresh_ns as f64 / self.shared_ns as f64
    }
}

fn bench_sweep_sharing(cfg: &SimConfig, quick: bool) -> SweepSharing {
    // Quick mode shrinks the policy grid; with fewer cells amortizing the
    // one shared probe stage the achievable ratio drops, so the recorded
    // target drops with it (the CI gate reads the target from the JSON).
    let (taus, tau_primes, target): (&[u32], &[u32], f64) = if quick {
        (&[1, 2], &[1, 2], 1.5)
    } else {
        (&[1, 2, 3], &[1, 2, 3, 4], 5.0)
    };
    let mut configs = Vec::new();
    for &tau in taus {
        for &tau_prime in tau_primes {
            let mut c = cfg.clone();
            c.tau = tau;
            c.tau_prime = tau_prime;
            configs.push(c);
        }
    }
    let spec = SweepSpec::product(&configs, &[11]);
    let fresh = || -> Vec<SimOutcome> {
        spec.cells()
            .iter()
            .map(|c| {
                Runner::new(c.config.clone(), c.seed)
                    .run(RunOptions::new())
                    .outcome
            })
            .collect()
    };
    let shared = || {
        Orchestrator::new()
            .workers(1)
            .run(&spec)
            .expect("in-memory sweep performs no I/O")
            .outcomes
    };
    // Warm both paths once and gate on equivalence: a sharing speedup
    // that changes any outcome is a bug, not a result.
    assert_eq!(
        shared(),
        fresh(),
        "shared-topology sweep diverged from fresh per-cell runs"
    );
    // Best of three a side, interleaved: the shared sweep takes a few
    // milliseconds, so one scheduler hiccup would otherwise swing the
    // ratio.
    let (mut fresh_ns, mut shared_ns) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        fresh_ns = fresh_ns.min(time(fresh));
        shared_ns = shared_ns.min(time(shared));
    }
    SweepSharing {
        policies: configs.len(),
        cells: spec.len(),
        fresh_ns,
        shared_ns,
        target,
    }
}

/// Work-stealing scale + binary-cache warm-start measurement: a τ × τ′ × p
/// policy grid over per-seed topology units, swept cache-cold at 1, 2 and
/// min(4, cores) workers, then warm-started over a binary cache before and
/// after flooding it with dead entries (cells outside the grid). A warm
/// start probes an in-memory index per cell, so dead cells cost lookups
/// nothing; open reads their slots once, and `warm_ratio`'s ceiling bounds
/// that. Its cost per cell (`warm_ns_per_cell`) is gated too: keying plus
/// windowed record reads. A second warm pass writes a checkpoint
/// (`warm_ckpt_ns_per_cell`, gated): every cell adds one encoded line, so
/// it moves with the number encoders.
struct SweepScale {
    cells: usize,
    units: usize,
    cores: usize,
    worker_counts: Vec<usize>,
    cold_ns: Vec<u64>,
    efficiency: f64,
    efficiency_workers: usize,
    efficiency_target: f64,
    cache_shards: u32,
    warm_hits_ns: u64,
    warm_ckpt_ns: u64,
    warm_dead_ns: u64,
    dead_cells: usize,
    warm_ratio: f64,
    warm_ratio_target: f64,
}

impl SweepScale {
    fn cells_per_sec(&self, i: usize) -> f64 {
        self.cells as f64 / (self.cold_ns[i] as f64 / 1e9)
    }

    /// Warm-start cost per cell over the live cache: keying, one index
    /// probe and one record read per cell, no checkpoint.
    fn warm_ns_per_cell(&self) -> f64 {
        self.warm_hits_ns as f64 / self.cells as f64
    }

    /// The same warm start writing a fresh checkpoint: one encoded line
    /// per cell on top of the lookups.
    fn warm_ckpt_ns_per_cell(&self) -> f64 {
        self.warm_ckpt_ns as f64 / self.cells as f64
    }
}

fn bench_sweep_scale(quick: bool) -> SweepScale {
    // 5 τ × 5 τ′ × 5 p = 125 policy cells per (topology, seed) unit; the
    // seed count scales the grid: 10^3 cells in quick/CI mode, 10^5 at
    // full scale (the ISSUE 7 acceptance bar).
    let (seeds, dead_cells) = if quick {
        (8u64, 2_000usize)
    } else {
        (800, 200_000)
    };
    let mut configs = Vec::new();
    for tau in 1..=5u32 {
        for tau_prime in 1..=5u32 {
            for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
                configs.push(SimConfig {
                    nodes: 120,
                    beacons: 12,
                    malicious: 3,
                    tau,
                    tau_prime,
                    attacker_p: p,
                    ..SimConfig::paper_default()
                });
            }
        }
    }
    let seed_list: Vec<u64> = (1..=seeds).collect();
    let spec = SweepSpec::product(&configs, &seed_list);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let wmax = cores.min(4);
    let mut worker_counts = vec![1usize];
    if wmax >= 2 {
        worker_counts.push(2);
    }
    if wmax > 2 {
        worker_counts.push(wmax);
    }

    // Cold scaling passes, in-memory (no cache/checkpoint I/O in the
    // timed region — this measures scheduling, not the disk). Timed as
    // the warm passes below are: one untimed pass per worker count, then
    // the best of three, the worker counts alternating. A fresh process's
    // first multi-worker passes can run at one worker's speed, and the
    // alternation spreads a slow host phase over every count.
    let cold = |w: usize| {
        time(|| {
            Orchestrator::new()
                .workers(w)
                .run(&spec)
                .expect("in-memory sweep")
        })
    };
    for &w in &worker_counts {
        let _ = cold(w);
    }
    let mut cold_ns = vec![u64::MAX; worker_counts.len()];
    for _ in 0..3 {
        for (best, &w) in cold_ns.iter_mut().zip(&worker_counts) {
            *best = (*best).min(cold(w));
        }
    }
    // Efficiency at the widest pool: perfect scaling would cut the serial
    // time by the worker count. On a single-core host the pool never
    // widens and the efficiency is trivially 1 — `cores` is recorded so
    // the artifact says which case it measured.
    let efficiency = (cold_ns[0] as f64 / *cold_ns.last().expect("nonempty") as f64) / wmax as f64;

    // Warm-start latency: populate a binary cache, warm-start over it,
    // flood it with dead cells, warm-start again.
    let dir = std::env::temp_dir().join(format!("secloc-bench-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache.bin");
    let populate = Orchestrator::new()
        .workers(wmax)
        .cache(&cache)
        .run(&spec)
        .expect("cold populate");
    let cache_shards = populate.cache_shards;
    let warm = || {
        time(|| {
            let report = Orchestrator::new()
                .cache(&cache)
                .run(&spec)
                .expect("warm sweep");
            assert_eq!(report.executed, 0, "warm start must be all hits");
        })
    };
    // Untimed warm-up pulls the index and shards into the page cache;
    // best-of-3 suppresses scheduler noise on the millisecond-scale quick
    // measurement.
    let _ = warm();
    let best_of_3 = |measure: &dyn Fn() -> u64| (0..3).map(|_| measure()).min().expect("3 runs");
    let warm_hits_ns = best_of_3(&warm);
    // An existing checkpoint would be resumed, so each pass starts without
    // one (removed outside the timed region).
    let checkpoint = dir.join("checkpoint.jsonl");
    let warm_ckpt = || {
        let _ = std::fs::remove_file(&checkpoint);
        time(|| {
            let report = Orchestrator::new()
                .cache(&cache)
                .checkpoint(&checkpoint)
                .run(&spec)
                .expect("warm checkpointed sweep");
            assert_eq!(report.executed, 0, "warm start must be all hits");
        })
    };
    let warm_ckpt_ns = best_of_3(&warm_ckpt);
    let mut bc = BinaryCache::open(&cache, dead_cells).expect("open cache for flooding");
    let donor = bc.entries().expect("scan cache")[0].1.clone();
    for i in 0..dead_cells as u64 {
        let key = CellKey((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD0A0_BEEF);
        bc.insert_checked(key, donor.clone()).expect("dead insert");
    }
    drop(bc);
    let _ = warm();
    let warm_dead_ns = best_of_3(&warm);
    let _ = std::fs::remove_dir_all(&dir);

    SweepScale {
        cells: spec.len(),
        units: seed_list.len(),
        cores,
        worker_counts,
        cold_ns,
        efficiency,
        efficiency_workers: wmax,
        efficiency_target: 0.7,
        cache_shards,
        warm_hits_ns,
        warm_ckpt_ns,
        warm_dead_ns,
        dead_cells,
        warm_ratio: warm_dead_ns as f64 / warm_hits_ns as f64,
        warm_ratio_target: 2.0,
    }
}

/// Streaming decision cost: the alerter must sustain ≥ 1000 concurrent
/// deployment machines; we measure ns per ingested event (parse + demux +
/// `RevocationMachine::decide` + emit) with every machine live the whole
/// time.
struct AlerterScale {
    deployments: usize,
    events: u64,
    total_ns: u64,
    peak_active: usize,
}

impl AlerterScale {
    fn ns_per_event(&self) -> f64 {
        self.total_ns as f64 / self.events as f64
    }
}

fn bench_alerter(quick: bool) -> AlerterScale {
    use secloc_alerter::{Alerter, AlerterConfig};
    // ≥ 1000 concurrent machines even in --quick (the acceptance bar);
    // the full run widens the table. Both modes run 40 rounds, so
    // deployment creation (the first round) is the same 1/40 share of the
    // stream and the ns/event ceiling secloc-trend applies fits both.
    let (deployments, rounds) = if quick {
        (1_000usize, 40u32)
    } else {
        (5_000, 40)
    };
    let mut lines: Vec<String> = Vec::with_capacity(deployments * rounds as usize);
    for round in 0..rounds {
        for dep in 0..deployments {
            // Spread reporters/targets so the stream mixes acceptances,
            // duplicates, budget exhaustion, and revocations.
            let reporter = (round * 7 + dep as u32) % 23;
            let target = (dep as u32 + round / 3) % 17;
            lines.push(format!(
                r#"{{"kind":"alert","deployment":"dep-{dep}","reporter":{reporter},"target":{target}}}"#
            ));
        }
    }
    let mut alerter = Alerter::new(AlerterConfig::default(), Obs::disabled());
    let total_ns = time(|| {
        for line in &lines {
            alerter.ingest_line(line);
        }
    });
    let stats = alerter.stats();
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.decisions, lines.len() as u64);
    assert!(
        stats.peak_active >= 1_000,
        "acceptance bar: >= 1000 concurrent deployment machines, got {}",
        stats.peak_active
    );
    AlerterScale {
        deployments,
        events: lines.len() as u64,
        total_ns,
        peak_active: stats.peak_active,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (grid_rounds, full_runs) = if quick { (2, 3) } else { (10, 20) };
    banner(
        "BENCH perf",
        if quick {
            "hot-path before/after ratios (quick mode)"
        } else {
            "hot-path before/after ratios at paper scale"
        },
    );

    let cfg = SimConfig::paper_default();
    let deployment = Deployment::generate(cfg.clone(), 1);

    // Equivalence gate: a speedup that changes the answer is a bug, not a
    // result. One full paper-scale run through both paths must agree.
    let probe = Runner::new(cfg.clone(), 7);
    assert_eq!(
        probe.run(RunOptions::new()).outcome,
        secloc_oracle::run(probe.deployment(), &cfg.faults),
        "optimized and reference runs diverged — ratios are meaningless"
    );

    let registry = Arc::new(MetricsRegistry::new());
    let sections = [
        bench_grid(&deployment, grid_rounds),
        bench_full_run(&cfg, full_runs, &registry),
        bench_location_simd(&deployment, grid_rounds),
    ];
    let sweep = bench_sweep_sharing(&cfg, quick);
    let scale = bench_sweep_scale(quick);
    let alerter = bench_alerter(quick);

    let mut table = Table::new([
        "section",
        "iters",
        "before ns/iter",
        "after ns/iter",
        "ratio",
    ]);
    for s in &sections {
        table.row([
            s.name.to_string(),
            s.iters.to_string(),
            format!("{:.0}", s.per_iter(s.before_ns)),
            format!("{:.0}", s.per_iter(s.after_ns)),
            format!("{:.2}x", s.ratio()),
        ]);
    }
    table.print();

    let mut json = String::from("{\n  \"bench\": \"hot_paths\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"config\": \"paper_default\",");
    let _ = writeln!(json, "  \"outcome_revision\": {},", outcome_revision());
    let _ = writeln!(json, "  \"code_version\": \"{}\",", code_version_tag());
    let _ = writeln!(
        json,
        "  \"config_fingerprint\": \"{}\",",
        config_fingerprint(&cfg)
    );
    json.push_str("  \"sections\": {\n");
    for (i, s) in sections.iter().enumerate() {
        let _ = write!(
            json,
            "    \"{}\": {{\"iters\": {}, \"before_total_ns\": {}, \"after_total_ns\": {}, \
             \"before_ns_per_iter\": {:.0}, \"after_ns_per_iter\": {:.0}, \"ratio\": {:.4}}}",
            s.name,
            s.iters,
            s.before_ns,
            s.after_ns,
            s.per_iter(s.before_ns),
            s.per_iter(s.after_ns),
            s.ratio()
        );
        json.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    json.push_str("  },\n");

    // Per-phase quantiles of the observed optimized runs.
    let snapshot = registry.snapshot();
    json.push_str("  \"optimized_phases\": {\n");
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
            "    \"{name}\": {{\"runs\": {}, \"mean_ns\": {:.0}, \"p50_ns\": {:.0}, \
             \"p90_ns\": {:.0}, \"p99_ns\": {:.0}}}",
            h.count,
            h.mean(),
            p50,
            p90,
            p99
        );
    }
    json.push_str("\n  },\n");

    // The single-run location phase against its PR 2 baseline (p50 over
    // the observed optimized full runs above, paper scale, same machine
    // class as the recorded baseline).
    const LOCATION_BASELINE_P50_NS: f64 = 1_555_556.0;
    let location_p50 = snapshot
        .histogram("span.phase.location.ns")
        .map(|h| h.p50_p90_p99().0)
        .unwrap_or(f64::NAN);
    json.push_str("  \"location_phase\": {");
    let _ = write!(
        json,
        "\"baseline_pr2_p50_ns\": {LOCATION_BASELINE_P50_NS:.0}, \"p50_ns\": {location_p50:.0}, \
         \"ratio\": {:.4}, \"target\": 3.0",
        LOCATION_BASELINE_P50_NS / location_p50
    );
    json.push_str("},\n");

    json.push_str("  \"sweep_sharing\": {");
    let _ = write!(
        json,
        "\"policies\": {}, \"seeds\": 1, \"cells\": {}, \"fresh_total_ns\": {}, \
         \"shared_total_ns\": {}, \"ratio\": {:.4}, \"target\": {:.1}",
        sweep.policies,
        sweep.cells,
        sweep.fresh_ns,
        sweep.shared_ns,
        sweep.ratio(),
        sweep.target
    );
    json.push_str("},\n");

    json.push_str("  \"sweep_scale\": {\n");
    let _ = writeln!(
        json,
        "    \"cells\": {}, \"units\": {}, \"cores\": {}, \"cache_shards\": {},",
        scale.cells, scale.units, scale.cores, scale.cache_shards
    );
    json.push_str("    \"cold\": {");
    for (i, &w) in scale.worker_counts.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"w{w}\": {{\"total_ns\": {}, \"cells_per_sec\": {:.0}}}",
            scale.cold_ns[i],
            scale.cells_per_sec(i)
        );
    }
    json.push_str("},\n");
    let best_rate = (0..scale.worker_counts.len())
        .map(|i| scale.cells_per_sec(i))
        .fold(0.0f64, f64::max);
    let _ = writeln!(json, "    \"cells_per_sec_max\": {best_rate:.0},");
    let _ = writeln!(json, "    \"ns_per_cell_best\": {:.0},", 1e9 / best_rate);
    let _ = writeln!(
        json,
        "    \"efficiency\": {:.4}, \"efficiency_workers\": {}, \"efficiency_target\": {:.1},",
        scale.efficiency, scale.efficiency_workers, scale.efficiency_target
    );
    let _ = writeln!(
        json,
        "    \"warm_hits_ns\": {}, \"warm_dead_ns\": {}, \"dead_cells\": {},",
        scale.warm_hits_ns, scale.warm_dead_ns, scale.dead_cells
    );
    let _ = writeln!(
        json,
        "    \"warm_ns_per_cell\": {:.0},",
        scale.warm_ns_per_cell()
    );
    let _ = writeln!(
        json,
        "    \"warm_ckpt_ns\": {}, \"warm_ckpt_ns_per_cell\": {:.0},",
        scale.warm_ckpt_ns,
        scale.warm_ckpt_ns_per_cell()
    );
    let _ = writeln!(
        json,
        "    \"warm_ratio\": {:.4}, \"warm_ratio_target\": {:.1}",
        scale.warm_ratio, scale.warm_ratio_target
    );
    json.push_str("  },\n");

    json.push_str("  \"alerter\": {");
    let _ = write!(
        json,
        "\"deployments\": {}, \"peak_active\": {}, \"events\": {}, \"total_ns\": {}, \
         \"ns_per_event\": {:.0}",
        alerter.deployments,
        alerter.peak_active,
        alerter.events,
        alerter.total_ns,
        alerter.ns_per_event()
    );
    json.push_str("},\n");

    let full = sections
        .iter()
        .find(|s| s.name == "full_run")
        .expect("the full_run section");
    let _ = writeln!(json, "  \"full_run_ratio_target\": 3.5,");
    let _ = writeln!(json, "  \"full_run_ratio\": {:.4}", full.ratio());
    json.push_str("}\n");

    let path = secloc_obs::output::write_text(results_dir(), "BENCH_perf.json", &json)
        .expect("write BENCH_perf.json");
    println!(
        "\n  full-run throughput ratio: {:.2}x (target 3.5x)",
        full.ratio()
    );
    println!(
        "  sweep sharing: {} policy cells in {:.1} ms shared vs {:.1} ms fresh — {:.2}x (target {:.1}x)",
        sweep.cells,
        sweep.shared_ns as f64 / 1e6,
        sweep.fresh_ns as f64 / 1e6,
        sweep.ratio(),
        sweep.target
    );
    println!(
        "  location phase p50: {:.2} ms vs {:.2} ms PR 2 baseline — {:.2}x (target 3.0x)",
        location_p50 / 1e6,
        LOCATION_BASELINE_P50_NS / 1e6,
        LOCATION_BASELINE_P50_NS / location_p50
    );
    let rates: Vec<String> = scale
        .worker_counts
        .iter()
        .enumerate()
        .map(|(i, w)| format!("{:.0} @ {w}w", scale.cells_per_sec(i)))
        .collect();
    println!(
        "  sweep scale: {} cells over {} units ({} shards) — {} cells/s; \
         efficiency {:.2} at {} worker(s) on {} core(s) (target {:.1})",
        scale.cells,
        scale.units,
        scale.cache_shards,
        rates.join(", "),
        scale.efficiency,
        scale.efficiency_workers,
        scale.cores,
        scale.efficiency_target
    );
    println!(
        "  warm start: {:.1} ms over live cache ({:.0} ns/cell; {:.0} ns/cell writing a checkpoint) \
         vs {:.1} ms with {} dead cells — ratio {:.2} (ceiling {:.1})",
        scale.warm_hits_ns as f64 / 1e6,
        scale.warm_ns_per_cell(),
        scale.warm_ckpt_ns_per_cell(),
        scale.warm_dead_ns as f64 / 1e6,
        scale.dead_cells,
        scale.warm_ratio,
        scale.warm_ratio_target
    );
    println!(
        "  alerter: {} events across {} live deployments — {:.0} ns/event",
        alerter.events,
        alerter.peak_active,
        alerter.ns_per_event()
    );
    println!("  wrote {}", path.display());
}
