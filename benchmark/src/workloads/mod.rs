//! The workloads and the closed loop that runs them.
//!
//! Every workload is one process issuing fixed ops back to back: the next
//! op starts when the previous one returns. Ops are grouped into rounds of
//! fixed work that repeat the same inputs. Round 0 is an untimed warm-up;
//! then a fixed number of rounds is measured, the same on every commit, so
//! a faster commit simply finishes sooner. Inputs come only from `--seed`:
//! op `i` of a workload draws its simulation seeds as `seed·10⁶ + i`
//! (sweeps: `seed·10⁶ + i·seeds_per_op + j`).

mod alerter_replay;
mod paper_run;
mod policy_grid;
mod scale;

use crate::digest;
use crate::host::{self, HostCounters};
use crate::layers::{self, LayerInputs};
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;
use secloc_obs::{MemorySink, Obs};
use secloc_sim::{Orchestrator, SimConfig, SweepReport, SweepSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "paper_run",
    "policy_grid",
    "scale_cold",
    "scale_warm",
    "alerter_replay",
];

/// The seed the digests in `digests.txt` are pinned at.
pub const DEFAULT_SEED: u64 = 1;
/// Largest accepted `--seed`: simulation seeds are `seed·10⁶ + index`.
pub const MAX_SEED: u64 = u64::MAX / 1_000_000 - 1;

/// Workers for every sweep: up to two, leaving one CPU to the
/// orchestrator's merge thread, which writes the checkpoint and the cache
/// while the workers simulate. A run thus never has more busy threads than
/// CPUs; on a 2-CPU host sweeps run on one worker.
pub fn sweep_workers() -> usize {
    host::nproc().saturating_sub(1).clamp(1, 2)
}

/// Set-up slots per run. The first slot builds the state the run measures;
/// the others are spread evenly over the measured rounds, because the
/// speed of a shared host changes from one second to the next: set-ups
/// timed back to back sample one such phase (in one process, two batches
/// a few seconds apart differed by up to 50%), set-ups spread over the
/// run sample all of them. `setup_s` is the median of every set-up timed.
const SETUP_SLOTS: usize = 13;
/// A spread slot repeats set-up until it has taken this long (at least
/// once), so a set-up of a fraction of a millisecond is timed often enough.
const SLOT_MIN_S: f64 = 0.01;
/// A run measures at least this many rounds.
const MIN_ROUNDS: usize = 3;
/// Safety cap: a run stops measuring once its rounds have taken this many
/// times their budget (a much slower commit), and says so in a note.
const CAP_FACTOR: f64 = 3.0;

/// Measured rounds for a loop budget of `budget_s` seconds: the budget
/// over the workload's calibrated round time. It depends only on the
/// budget, never on how fast this commit runs, so every commit measures
/// the same rounds and the fastest round is picked from as many on each.
pub fn measured_rounds(budget_s: f64, round_s: f64) -> usize {
    ((budget_s / round_s).round() as usize).max(MIN_ROUNDS)
}

/// The measured rounds that a spread set-up slot runs before, evenly
/// spaced from the first one on.
pub fn setup_slot_rounds(rounds: usize) -> Vec<usize> {
    let spread = SETUP_SLOTS - 1;
    (0..spread).map(|k| 1 + k * rounds / spread).collect()
}

/// What every workload is built from.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Tiny inputs for unit tests: same code paths, seconds not minutes.
    pub smoke: bool,
    /// Scratch directory inside the working directory, removed at exit.
    pub tmp: PathBuf,
}

impl Ctx {
    /// Seed of the workload's `index`-th simulation. `main` bounds `seed`
    /// so this cannot overflow.
    pub fn sim_seed(&self, index: u64) -> u64 {
        self.seed * 1_000_000 + index
    }
}

/// One workload's prepared state.
pub trait Workload {
    /// Ops per round.
    fn ops_per_round(&self) -> usize;
    /// Wall time of one round (ops plus their checks) on a shared 2-vCPU
    /// VM at the commit that introduced this benchmark. It only turns
    /// `--seconds` into a round count; it is never measured again.
    fn round_s(&self) -> f64;
    /// Runs op `i` and returns the work units it completed (runs, cells
    /// or lines). Only this call is timed. With a tracer, spans are
    /// recorded around the layer calls the op makes.
    fn op(&mut self, i: usize, tracer: Option<(&mut Tracer, u64)>) -> Result<u64, String>;
    /// Untimed: checks the output of op `i` in `round`; returns failures.
    /// Round 0, the warm-up, records the outputs later rounds must repeat.
    fn verify(&mut self, round: usize, i: usize) -> Vec<String>;
    /// Digest of round 0's outputs.
    fn digest(&self) -> String;
    /// Untimed invariance checks that need extra work, run once per run.
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Inputs for the layer probes: the workload's own configuration,
    /// seed and event stream.
    fn layer_inputs(&mut self) -> Result<LayerInputs, String>;
    /// Traced runs only: the workload's own layer figures (orchestrator,
    /// cache, checkpoint), gathered from its traced ops and from variants
    /// of its op. Metrics it leaves unset are 0: the workload bypasses
    /// that layer.
    fn workload_layers(&mut self, _out: &mut RunResult) -> Result<(), String> {
        Ok(())
    }
}

fn build(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_run" => Box::new(paper_run::PaperRun::setup(ctx)?),
        "policy_grid" => Box::new(policy_grid::PolicyGrid::setup(ctx)?),
        "scale_cold" => Box::new(scale::Scale::setup(ctx, false)?),
        "scale_warm" => Box::new(scale::Scale::setup(ctx, true)?),
        "alerter_replay" => Box::new(alerter_replay::AlerterReplay::setup(ctx)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs one workload end to end and returns everything it measured.
pub fn run(name: &str, ctx: &Ctx, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    std::fs::create_dir_all(&ctx.tmp).map_err(|e| format!("create {}: {e}", ctx.tmp.display()))?;
    let result = run_in(name, ctx, seconds, trace);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    if let Some(parent) = ctx.tmp.parent() {
        let _ = std::fs::remove_dir(parent); // only succeeds once empty
    }
    result
}

fn run_in(name: &str, ctx: &Ctx, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut out = RunResult {
        workload: name.to_string(),
        seed: ctx.seed,
        trace,
        ..RunResult::default()
    };
    // A set-up builds the inputs (seeds and specs, filled caches, the
    // recorded stream) and the reference outputs the checks compare
    // against; the warm-up is round 0 of the loop below.
    let t = Instant::now();
    let mut w = build(name, ctx)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // Traced runs spend half their budget on the op loop (alternating
    // untraced and traced rounds for the overhead ratio) and the rest on
    // the layer probes.
    let budget = if trace { seconds / 2.0 } else { seconds };
    let rounds = if ctx.smoke {
        2
    } else {
        measured_rounds(budget, w.round_s())
    };
    let slot_rounds = setup_slot_rounds(rounds);
    let mut tracer = Tracer::default();
    let mut rates = Vec::new();
    let mut latencies_ms = Vec::new();
    let (mut plain_round_s, mut traced_round_s) = (Vec::new(), Vec::new());
    let mut calib_ms = Vec::new();
    let mut counters_before = HostCounters::read();
    let mut started = Instant::now();
    let mut op_id = 0u64;
    // Round 0 warms allocator and CPU caches and records the outputs every
    // later round must reproduce; its times feed no metric.
    for round in 0..=rounds {
        let warm_up = round == 0;
        for _ in slot_rounds.iter().filter(|&&r| r == round) {
            time_setups(name, ctx, &mut setup_s)?;
        }
        if round == 1 {
            counters_before = HostCounters::read();
            started = Instant::now();
        } else if !warm_up && started.elapsed().as_secs_f64() >= CAP_FACTOR * budget {
            out.notes.push(format!(
                "stopped at the time cap after {} of {rounds} measured rounds",
                round - 1
            ));
            break;
        }
        if !warm_up {
            calib_ms.push(host::calibrate_ms());
        }
        let traced_round = trace && !warm_up && round % 2 == 0;
        let (mut busy_s, mut units) = (0.0f64, 0u64);
        for i in 0..w.ops_per_round() {
            let t = Instant::now();
            let done = if traced_round {
                w.op(i, Some((&mut tracer, op_id)))
            } else {
                w.op(i, None)
            };
            let dt = t.elapsed().as_secs_f64();
            op_id += 1;
            out.attempted += 1;
            busy_s += dt;
            match done {
                Ok(u) => units += u,
                Err(e) => {
                    out.fail(format!("round {round} op {i}: {e}"));
                    continue;
                }
            }
            if !traced_round && !warm_up {
                latencies_ms.push(dt * 1e3);
            }
            for f in w.verify(round, i) {
                out.fail(format!("round {round} op {i}: {f}"));
            }
        }
        if warm_up {
            continue;
        }
        if traced_round {
            traced_round_s.push(busy_s);
        } else {
            plain_round_s.push(busy_s);
            rates.push(units as f64 / busy_s.max(1e-12));
        }
    }
    let counters_after = HostCounters::read();
    let measured = calib_ms.len();
    out.diag("setups", setup_s.len() as f64, "count");
    out.diag("setup_s.spread", stats::relative_spread(&setup_s), "ratio");
    out.diag(
        "round_wall_s",
        started.elapsed().as_secs_f64() / measured.max(1) as f64,
        "s",
    );

    for f in w.final_checks() {
        out.fail(f);
    }
    let digest = w.digest();
    out.notes.push(format!("round-0 digest {digest}"));
    if ctx.seed == DEFAULT_SEED && !ctx.smoke {
        match digest::pinned(name) {
            Some(pinned) if pinned == digest => {}
            Some(pinned) => out.fail(format!(
                "round-0 digest {digest} differs from the pinned {pinned} at the default seed"
            )),
            None => out.fail(format!("no digest pinned for {name}")),
        }
    }

    // Interference from other tenants only ever slows a round down, and
    // every round repeats the same work, so the fastest of the fixed
    // number of rounds is the best estimate of what the code itself costs.
    // The median round and the op latencies are printed beside it.
    let throughput = rates.iter().copied().fold(0.0, f64::max);
    out.diag("rounds", measured as f64, "count");
    out.diag("throughput.median_round", stats::median(&rates), "1/s");
    out.diag(
        "throughput.round_spread",
        stats::relative_spread(&rates),
        "ratio",
    );
    out.diag("latency_ms_p50", stats::median(&latencies_ms), "ms");
    out.diag("latency_ms.samples", latencies_ms.len() as f64, "count");
    if let Some((p, v)) = stats::tail_percentile(&latencies_ms).filter(|&(p, _)| p > 50.0) {
        out.diag(format!("latency_ms_p{p}"), v, "ms");
    }
    out.diag("host.calib_ms_p50", stats::median(&calib_ms), "ms");
    if let Some(ms) = counters_before.steal_ms_until(&counters_after) {
        out.diag("host.steal_ms", ms, "ms");
    }
    if let Some(ms) = counters_before.runq_wait_ms_until(&counters_after) {
        out.diag("host.runq_wait_ms", ms, "ms");
    }
    out.diag("host.nproc", host::nproc() as f64, "count");

    if trace {
        out.diag("throughput", throughput, "1/s");
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        out.metrics.insert(
            "trace.overhead",
            fastest(&traced_round_s) / fastest(&plain_round_s),
        );
        for d in crate::report::PER_LAYER {
            out.metrics.entry(d.name).or_insert(0.0);
        }
        w.workload_layers(&mut out)?;
        let inputs = w.layer_inputs()?;
        layers::probe(&inputs, ctx, &mut tracer, &mut out)?;
        for (name, t) in tracer.totals() {
            out.notes.push(format!(
                "span {name}: count {} total {:.3} ms self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        out.spans = tracer.to_jsonl();
    } else {
        out.metrics.insert("throughput", throughput);
        out.metrics.insert("setup_s", stats::median(&setup_s));
    }
    out.validate();
    Ok(out)
}

/// One spread set-up slot: builds the workload again and again in a
/// directory of its own, apart from the state the run measures, until the
/// slot has taken `SLOT_MIN_S`, and appends each set-up's time.
fn time_setups(name: &str, ctx: &Ctx, setup_s: &mut Vec<f64>) -> Result<(), String> {
    let ctx = Ctx {
        tmp: ctx.tmp.join("setup"),
        ..ctx.clone()
    };
    let slot = Instant::now();
    loop {
        let t = Instant::now();
        let w = build(name, &ctx)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(w);
        let _ = std::fs::remove_dir_all(&ctx.tmp);
        if slot.elapsed().as_secs_f64() >= SLOT_MIN_S {
            return Ok(());
        }
    }
}

/// Records the event stream, checkpoint and report of a cold sweep over
/// `spec` into memory, on one worker so the stream's line order (and so
/// the input to every replay) is a pure function of the spec.
pub fn record_sweep(spec: &SweepSpec, dir: &Path) -> Result<Recording, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let checkpoint = dir.join("recording.jsonl");
    let _ = std::fs::remove_file(&checkpoint);
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_sink(sink.clone());
    let report = Orchestrator::new()
        .workers(1)
        .observed(&obs)
        .checkpoint(&checkpoint)
        .run(spec)
        .map_err(|e| format!("recording sweep: {e}"))?;
    drop(obs);
    let events = sink.drain();
    let mut stream = Vec::with_capacity(events.len() * 160);
    for e in &events {
        stream.extend_from_slice(e.to_json().as_bytes());
        stream.push(b'\n');
    }
    let checkpoint_text = std::fs::read_to_string(&checkpoint)
        .map_err(|e| format!("read {}: {e}", checkpoint.display()))?;
    let _ = std::fs::remove_file(&checkpoint);
    Ok(Recording {
        stream,
        checkpoint: checkpoint_text,
        report,
    })
}

/// Layer-probe inputs for a workload whose sweeps span `configs`: a
/// one-seed sweep of the same shape, recorded.
pub fn sweep_layer_inputs(
    ctx: &Ctx,
    configs: &[SimConfig],
    seed: u64,
) -> Result<LayerInputs, String> {
    let spec = SweepSpec::product(configs, &[seed]);
    let rec = record_sweep(&spec, &ctx.tmp.join("layers"))?;
    Ok(LayerInputs {
        config: configs[0].clone(),
        seed,
        cells_per_unit: cells_per_unit(&rec.report),
        outcomes: rec.report.outcomes,
        stream: rec.stream,
    })
}

/// A recorded sweep.
pub struct Recording {
    /// JSONL event stream, one event per line.
    pub stream: Vec<u8>,
    /// The sweep's checkpoint file.
    pub checkpoint: String,
    pub report: SweepReport,
}

/// Cells per scheduling unit: how many policy cells share one deployment
/// and probe stage in a sweep of this shape.
pub fn cells_per_unit(report: &SweepReport) -> f64 {
    let units: u64 = report.worker_stats.iter().map(|s| s.units).sum();
    if units == 0 {
        1.0
    } else {
        report.executed as f64 / units as f64
    }
}

/// Adds the orchestrator's own figures from the reports of a workload's
/// traced ops: per-worker unit rate, idle share and steals per op.
pub fn orchestrator_layers(reports: &[SweepReport], out: &mut RunResult) {
    let stats = reports.iter().flat_map(|r| &r.worker_stats);
    let (mut units, mut busy, mut idle) = (0u64, 0u64, 0u64);
    for s in stats {
        units += s.units;
        busy += s.busy_ns;
        idle += s.idle_ns;
    }
    let steals: u64 = reports.iter().map(|r| r.steal_batches).sum();
    if busy > 0 {
        out.metrics.insert(
            "orchestrator.units_per_busy_s",
            units as f64 / (busy as f64 / 1e9),
        );
        out.metrics.insert(
            "orchestrator.idle_share",
            idle as f64 / (busy + idle) as f64,
        );
    }
    if !reports.is_empty() {
        out.metrics.insert(
            "orchestrator.steal_batches",
            steals as f64 / reports.len() as f64,
        );
    }
}

/// `orchestrator.scaling_eff` from interleaved timings of one op at one
/// worker and at two: 1.0 is perfect scaling. Two workers plus the merge
/// thread need three CPUs; a smaller host cannot measure it, so the metric
/// stays 0 and a note says "unmeasured".
pub fn scaling_efficiency(
    ctx: &Ctx,
    out: &mut RunResult,
    mut time_with_workers: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(), String> {
    if host::nproc() < 3 {
        out.notes.push(format!(
            "orchestrator.scaling_eff unmeasured: {} CPUs, 3 needed",
            host::nproc()
        ));
        return Ok(());
    }
    let reps = if ctx.smoke { 1 } else { 3 };
    let (mut w1, mut w2) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        w1.push(time_with_workers(1)?);
        w2.push(time_with_workers(2)?);
    }
    let (w1, w2) = (stats::median(&w1), stats::median(&w2));
    out.diag("orchestrator.w1_ms", w1 * 1e3, "ms");
    out.diag("orchestrator.w2_ms", w2 * 1e3, "ms");
    out.metrics
        .insert("orchestrator.scaling_eff", w1 / w2 / 2.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_ctx(name: &str, seed: u64) -> Ctx {
        Ctx {
            seed,
            smoke: true,
            tmp: PathBuf::from(".bench_tmp").join(format!("test-{name}-{}", std::process::id())),
        }
    }

    #[test]
    fn every_workload_runs_and_checks_at_smoke_size() {
        for name in NAMES {
            for trace in [false, true] {
                let r = run(name, &smoke_ctx(name, 3), 1.0, trace).expect(name);
                assert!(r.correct(), "{name} trace={trace}: {:?}", r.failures);
                assert!(r.attempted >= 2, "{name}");
                for d in r.defs() {
                    assert!(r.metrics[d.name].is_finite(), "{name} {}", d.name);
                }
                if trace {
                    assert!(!r.spans.is_empty(), "{name}: no spans recorded");
                    assert!(r.metrics["deploy.generate_ms"] > 0.0, "{name}");
                    assert!(r.metrics["wire.parse_ns"] > 0.0, "{name}");
                    assert!(r.metrics["cache.get_ns"] > 0.0, "{name}");
                } else {
                    assert!(r.metrics["throughput"] > 0.0, "{name}");
                    assert!(r.metrics["setup_s"] > 0.0, "{name}");
                }
            }
        }
    }

    #[test]
    fn round_count_depends_only_on_the_budget() {
        assert_eq!(measured_rounds(18.0, 0.224), 80);
        assert_eq!(measured_rounds(9.0, 0.224), 40);
        assert_eq!(measured_rounds(0.1, 0.224), MIN_ROUNDS);
    }

    #[test]
    fn setup_slots_spread_over_the_measured_rounds() {
        assert_eq!(
            setup_slot_rounds(63),
            [1, 6, 11, 16, 22, 27, 32, 37, 43, 48, 53, 58]
        );
        assert_eq!(setup_slot_rounds(2), [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn the_same_seed_gives_the_same_outputs() {
        let digest = |seed| {
            run("policy_grid", &smoke_ctx("digest", seed), 1.0, false)
                .expect("run")
                .notes
                .into_iter()
                .find(|n| n.starts_with("round-0 digest"))
                .expect("digest note")
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }

    #[test]
    fn warm_scale_run_hits_every_cell() {
        let r = run("scale_warm", &smoke_ctx("warm", 4), 1.0, true).expect("run");
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(r.metrics["cache.hit_ratio"], 1.0);
    }
}
