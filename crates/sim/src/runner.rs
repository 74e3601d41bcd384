//! The unified experiment entry point: [`Runner`] + [`RunOptions`].
//!
//! One `run` method serves every caller: they compose what they need with
//! the [`RunOptions`] builder and get back a [`RunOutput`]. The same entry
//! point threads an optional [`FaultPlan`] through every phase; an empty
//! plan is guaranteed bit-identical to a fault-free run, and every run is
//! bit-identical to the straight-line reference run of the dev-only
//! `secloc-oracle` crate (`tests/equivalence.rs` enforces both).

use crate::deploy::subseed;
use crate::probe::ProbeFaults;
use crate::trace::{AlertSource, Trace};
use crate::{Deployment, NodeKind, ProbeContext, SimConfig, SimOutcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use secloc_attack::{Action, CollusionPolicy};
use secloc_core::{Alert, AlertMetrics, BaseStation, RevocationConfig};
use secloc_crypto::NodeId;
use secloc_faults::{AlertChannel, ChurnSchedule, DriftTable, FaultPlan, NoiseField};
use secloc_localization::{BatchedMmse, LocationReference, MmseScratch};
use secloc_obs::{Obs, Value};
use secloc_radio::loss::send_reliable;
use secloc_radio::Cycles;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A reference a sensor kept for localization, tagged with its source.
#[derive(Debug, Clone, Copy)]
struct KeptReference {
    beacon: u32,
    reference: LocationReference,
}

/// Flat probe-pair schedule, drained in `(dispatch time, insertion
/// sequence)` order — the pop order of a discrete-event heap (the
/// reference run's `EventQueue` in `secloc-oracle`).
///
/// The priority is packed into a single `u64` sort key — dispatch times
/// are drawn from `0..1_000_000` (well under 2³²) and the sequence number
/// is the push index — so one stable sort over a flat vec reproduces the
/// heap's drain order exactly while skipping both the per-push sift-up and
/// the per-pop heap maintenance. The sort itself is a three-pass LSD
/// counting radix over the 24 time bits: each pass is stable, so entries
/// with equal dispatch times keep insertion order, which is precisely the
/// sequence tie-break.
struct ScheduledPairs {
    entries: Vec<(u64, u32, u32)>,
}

impl ScheduledPairs {
    fn with_capacity(n: usize) -> Self {
        ScheduledPairs {
            entries: Vec::with_capacity(n),
        }
    }

    fn schedule(&mut self, at: u64, u: u32, v: u32) {
        debug_assert!(at < (1 << 32), "dispatch time overflows the packed key");
        debug_assert!(self.entries.len() < u32::MAX as usize);
        let key = (at << 32) | self.entries.len() as u64;
        self.entries.push((key, u, v));
    }

    /// Consumes the schedule in `(time, sequence)` order.
    ///
    /// LSD radix sort over the dispatch-time bits (`key >> 32`, which is
    /// `< 1_000_000 < 2²⁴`): three stable 8-bit counting passes. Stability
    /// makes the sequence bits in the low key half redundant for ordering —
    /// equal times stay in push order — but they remain packed so a debug
    /// assertion can check full-key monotonicity against the comparison
    /// sort's contract.
    fn drain_ordered(self) -> impl Iterator<Item = (Cycles, u32, u32)> {
        let n = self.entries.len();
        let mut src = self.entries;
        let mut dst: Vec<(u64, u32, u32)> = vec![(0, 0, 0); n];
        for shift in [32u32, 40, 48] {
            let mut starts = [0usize; 256];
            for &(key, _, _) in &src {
                starts[((key >> shift) & 0xff) as usize] += 1;
            }
            let mut acc = 0usize;
            for slot in &mut starts {
                let count = *slot;
                *slot = acc;
                acc += count;
            }
            for &entry in &src {
                let bucket = ((entry.0 >> shift) & 0xff) as usize;
                dst[starts[bucket]] = entry;
                starts[bucket] += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
        debug_assert!(
            src.windows(2).all(|w| w[0].0 <= w[1].0),
            "radix drain order diverged from the packed-key comparison sort"
        );
        src.into_iter()
            .map(|(key, u, v)| (Cycles::new(key >> 32), u, v))
    }
}

/// Claims the next batch of indices off the shared cursor — the same
/// shrinking-batch shape as the sweep scheduler's work-stealing loop, so
/// workers take big bites while the range is full and finish together as
/// it drains.
fn claim_batch(
    cursor: &AtomicUsize,
    total: usize,
    workers: usize,
) -> Option<std::ops::Range<usize>> {
    loop {
        let start = cursor.load(Ordering::SeqCst);
        if start >= total {
            return None;
        }
        let remaining = total - start;
        let take = (remaining / (workers * 4)).clamp(1, remaining);
        if cursor
            .compare_exchange(start, start + take, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return Some(start..start + take);
        }
    }
}

/// Maps `f` over `0..total` on `workers` scoped threads — each thread
/// owns one state value from `make_state` (a pre-sized scratch, in
/// practice) — and returns the results **in index order** regardless of
/// which thread computed what. Callers fold the returned vec serially,
/// so any accumulation stays bit-identical to an in-line loop.
fn parallel_index_map<S, T, FS, F>(total: usize, workers: usize, make_state: FS, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    FS: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let mut chunks: Vec<(usize, Vec<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = make_state();
                    let mut out: Vec<(usize, Vec<T>)> = Vec::new();
                    while let Some(range) = claim_batch(&cursor, total, workers) {
                        let start = range.start;
                        out.push((start, range.map(|i| f(i, &mut state)).collect()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("location worker panicked"))
            .collect()
    });
    chunks.sort_unstable_by_key(|&(start, _)| start);
    chunks.into_iter().flat_map(|(_, batch)| batch).collect()
}

/// Everything phases 1–2 produce that the revocation/impact phases
/// consume, plus the `order_rng` state at phase-3 entry. A `StageCore` is
/// a pure function of the deployment, the seed, and the probe-relevant
/// config fields — the revocation knobs (τ, τ′, collusion, alert-channel
/// parameters) have not been read yet when it is captured.
#[derive(Debug)]
struct StageCore {
    detectors: Vec<u32>,
    benign_alerts: Vec<Alert>,
    kept: Vec<Vec<KeptReference>>,
    poisoned: Vec<Vec<u32>>,
    order_rng: StdRng,
    churn: Option<ChurnSchedule>,
}

/// The τ-independent slice of the impact phase: each sensor's clamped
/// pre-revocation localization-error contribution, with the running sum in
/// sensor order. Revocation can only *remove* references, so per policy
/// cell only sensors that actually lost one need re-estimation.
#[derive(Debug)]
struct ImpactPrecompute {
    /// Indexed by node; `None` when the sensor could not be estimated.
    before: Vec<Option<f64>>,
    sum_b: f64,
    n_b: usize,
}

/// A snapshot of the probe stage (detection + location discovery) of a
/// plain run, reusable by every sweep cell that shares the
/// deployment and the probe-relevant policy fields. Produced by
/// [`Runner::probe_stage`], consumed by [`Runner::finish_from_stage`].
#[derive(Debug)]
pub struct ProbeStage {
    core: StageCore,
    impact: ImpactPrecompute,
}

/// Cross-cell cache for [`Runner::finish_from_stage_observed`]: each
/// sensor's post-revocation error contribution, keyed by *which* of its
/// kept references revocation dropped (a bitmask over the kept list in
/// order).
///
/// The contribution is a pure function of (topology, kept list, dropped
/// subset), and every cell sharing one [`ProbeStage`] shares the first two
/// — so policy cells whose revocation verdicts overlap re-solve each
/// sensor at most once per distinct dropped subset, and the memo cannot
/// change any outcome. A memo is only valid for the stage it was grown
/// against; use a fresh one per shared stage.
#[derive(Debug, Default)]
pub struct ImpactMemo {
    /// Indexed by node; each entry is the (dropped-mask, contribution)
    /// pairs seen so far, few enough per sensor for linear scans to beat
    /// hashing.
    per_sensor: Vec<Vec<(u64, Option<f64>)>>,
}

impl ImpactMemo {
    /// An empty memo; grows to the node count on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// How to run one experiment: tracing, telemetry, fault injection and
/// intra-run localization workers, all opt-in.
///
/// ```
/// use secloc_sim::{RunOptions, Runner, SimConfig};
///
/// let runner = Runner::new(SimConfig {
///     nodes: 300,
///     beacons: 30,
///     malicious: 3,
///     ..SimConfig::paper_default()
/// }, 7);
/// let plain = runner.run(RunOptions::new());
/// assert!(plain.trace.is_none());
/// let traced = runner.run(RunOptions::new().traced());
/// assert_eq!(traced.outcome, plain.outcome);
/// assert!(traced.trace.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    traced: bool,
    observed: Option<&'a Obs>,
    faults: Option<FaultPlan>,
    location_workers: usize,
}

impl<'a> RunOptions<'a> {
    /// The plain run: no trace, no telemetry, faults taken from the
    /// configuration's [`SimConfig::faults`] plan.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Also return the ordered audit [`Trace`] of the revocation phase.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Record telemetry on `obs`: per-phase wall-time spans
    /// (`phase.{detection,location,alert_delivery,revocation,impact}`),
    /// verdict/alert counters, `phase` / `revocation` / `round.snapshot`
    /// events, and a final `run.end` marker. Instrumentation consumes no
    /// randomness, so observed and unobserved runs produce identical
    /// outcomes.
    pub fn observed(mut self, obs: &'a Obs) -> Self {
        self.observed = Some(obs);
        self
    }

    /// Inject `plan` instead of the configuration's [`SimConfig::faults`]
    /// plan. Passing `FaultPlan::default()` explicitly disables injection
    /// even when the configuration carries a plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Solve the per-sensor localization chain of the impact phase on a
    /// scoped pool of `n` worker threads (`0` — the default — and `1` both
    /// mean in-line serial). Workers claim sensor batches off an atomic
    /// cursor, each with its own pre-sized `MmseScratch`, and the per-
    /// sensor contributions are merged back in sensor order before the
    /// mean is folded — so outcomes and RNG streams are bit-identical to
    /// the serial run (`tests/parallel_equivalence.rs` is the oracle).
    /// Lives on the options, not `SimConfig`, so it can never perturb
    /// sweep cell keys or config fingerprints.
    pub fn location_workers(mut self, n: usize) -> Self {
        self.location_workers = n;
        self
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The paper's measurements.
    pub outcome: SimOutcome,
    /// The revocation audit trail, present iff [`RunOptions::traced`].
    pub trace: Option<Trace>,
}

/// One end-to-end simulation run on a fixed deployment.
///
/// Phases (probes drain in seeded dispatch-time order):
///
/// 1. **Detection** — every benign beacon probes, under each of its `m`
///    detecting IDs, every beacon it can hear (directly or through the
///    wormhole) and raises at most one alert per target.
/// 2. **Location discovery** — every sensor requests a beacon signal from
///    each beacon it can hear and keeps the signals that pass its replay
///    filters.
/// 3. **Revocation** — colluding malicious beacons flood their alert
///    budget first (worst case for the defender), then benign alerts
///    arrive in randomised order; the base station applies the (τ, τ′)
///    counters of §3.1.
/// 4. **Impact measurement** — poisoned references from revoked beacons
///    are discarded and the paper's metrics are computed.
///
/// Under a non-empty [`FaultPlan`] the run additionally suffers beacon
/// churn (dead nodes neither probe nor reply), regional ranging noise and
/// per-node clock skew (degrading each affected exchange), and bursty
/// alert-channel loss. Every fault category draws from its own seeded RNG
/// stream, so enabling one never perturbs the draws of the others — or of
/// the fault-free machinery.
#[derive(Debug)]
pub struct Runner {
    deployment: Deployment,
    seed: u64,
}

impl Runner {
    /// Creates a runner on a fresh deployment drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`SimConfig::validate`]; use
    /// [`Runner::try_new`] to handle the error instead.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        Runner {
            deployment: Deployment::generate(config, seed),
            seed,
        }
    }

    /// Fallible [`Runner::new`], reporting an invalid configuration as a
    /// typed [`crate::ConfigError`].
    pub fn try_new(config: SimConfig, seed: u64) -> Result<Self, crate::ConfigError> {
        Ok(Runner {
            deployment: Deployment::try_generate(config, seed)?,
            seed,
        })
    }

    /// Like [`Runner::new`], but times deployment generation under the
    /// `phase.deploy` span and announces the phase on the event sink.
    pub fn new_observed(config: SimConfig, seed: u64, telemetry: &Obs) -> Self {
        telemetry.emit("phase", &[("name", Value::Str("deploy".to_string()))]);
        let span = telemetry.span("phase.deploy");
        let deployment = Deployment::generate(config, seed);
        span.finish();
        Runner { deployment, seed }
    }

    /// Wraps an already-built deployment — e.g. one re-keyed via
    /// [`Deployment::with_policy`] — in a runner. Equivalent to
    /// `Runner::new(deployment.config().clone(), deployment.seed())`
    /// without regenerating anything.
    pub fn from_deployment(deployment: Deployment) -> Self {
        let seed = deployment.seed();
        Runner { deployment, seed }
    }

    /// The underlying deployment (for inspection and plotting).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Runs all phases per `options` and returns the measurements (plus
    /// the audit trace when requested).
    pub fn run(&self, options: RunOptions<'_>) -> RunOutput {
        let disabled = Obs::disabled();
        let telemetry = options.observed.unwrap_or(&disabled);
        let plan = options
            .faults
            .as_ref()
            .unwrap_or(&self.deployment.config().faults);
        let (outcome, trace) = self.run_impl(telemetry, plan, options.location_workers);
        RunOutput {
            outcome,
            trace: options.traced.then_some(trace),
        }
    }

    /// Runs phases 1–2 (detection + location discovery) of a plain run —
    /// config fault plan, no trace, no telemetry — and
    /// snapshots everything the remaining phases need, including the
    /// τ-independent impact precompute.
    ///
    /// The snapshot is a pure function of `(topology, seed)` plus the
    /// probe-relevant policy fields (ε_max, `m`, `p_d`, `attacker_p`,
    /// `lie_offset_ft`); the revocation knobs (τ, τ′, collusion, alert
    /// loss/retransmissions) are untouched, so one stage serves every cell
    /// of a revocation-axis sweep via [`Runner::finish_from_stage`].
    pub fn probe_stage(&self) -> ProbeStage {
        self.probe_stage_with(0)
    }

    /// [`Runner::probe_stage`] with the τ-independent impact precompute
    /// solved on `workers` threads (`0`/`1` = serial; see
    /// [`RunOptions::location_workers`]). Bit-identical snapshots either
    /// way — the per-sensor solves are pure and the accumulation is merged
    /// in sensor order.
    pub fn probe_stage_with(&self, workers: usize) -> ProbeStage {
        let disabled = Obs::disabled();
        let plan = self.deployment.config().faults.clone();
        let core = self.stage_phases(&disabled, &plan);
        let impact = self.impact_precompute(&core, workers);
        ProbeStage { core, impact }
    }

    /// Re-solves the τ-independent per-sensor localization chain of
    /// `stage`'s probe snapshot on `workers` threads and returns how many
    /// sensors produced an estimate. The solve result is discarded — this
    /// exists so the perf harness can time the parallel localization
    /// pipeline in isolation from the (inherently serial, RNG-ordered)
    /// probing phases, and so callers can check a worker count changes
    /// nothing.
    pub fn solve_impact_chain(&self, stage: &ProbeStage, workers: usize) -> usize {
        self.impact_precompute(&stage.core, workers).n_b
    }

    /// Completes a plain run from a shared probe-stage snapshot:
    /// bit-identical to `self.run(RunOptions::new()).outcome` when `stage`
    /// came from a runner agreeing with `self` on the seed, the topology,
    /// and every probe-relevant policy field (the equivalence suite is the
    /// oracle). Only the revocation and impact phases execute.
    pub fn finish_from_stage(&self, stage: &ProbeStage) -> SimOutcome {
        self.finish_from_stage_inner(stage, None, &Obs::disabled())
    }

    /// [`Runner::finish_from_stage`] with a cross-cell [`ImpactMemo`] and
    /// telemetry. The memo caches pure-function results, so outcomes stay
    /// bit-identical, but sensors whose dropped-reference subset repeats
    /// across the cells of one shared stage are re-estimated only once;
    /// the memo must be fresh for each distinct [`ProbeStage`]. The
    /// revocation and impact phases report on `telemetry` (spans,
    /// counters, `bs.alert` / `revocation` / `alerts.summary` events)
    /// exactly as a full observed run would. Instrumentation consumes no
    /// randomness, so the outcome is still bit-identical to the plain
    /// staged finish — this is how the sweep orchestrator attributes
    /// per-cell revocation decisions to their cell's trace.
    pub fn finish_from_stage_observed(
        &self,
        stage: &ProbeStage,
        memo: &mut ImpactMemo,
        telemetry: &Obs,
    ) -> SimOutcome {
        self.finish_from_stage_inner(stage, Some(memo), telemetry)
    }

    fn finish_from_stage_inner(
        &self,
        stage: &ProbeStage,
        memo: Option<&mut ImpactMemo>,
        telemetry: &Obs,
    ) -> SimOutcome {
        let plan = self.deployment.config().faults.clone();
        let (outcome, _) = self.finish_phases(
            telemetry,
            &plan,
            &stage.core,
            stage.core.benign_alerts.clone(),
            stage.core.order_rng.clone(),
            Some(&stage.impact),
            memo,
            0,
        );
        outcome
    }

    fn run_impl(
        &self,
        telemetry: &Obs,
        plan: &FaultPlan,
        location_workers: usize,
    ) -> (SimOutcome, Trace) {
        let mut core = self.stage_phases(telemetry, plan);
        let benign_alerts = std::mem::take(&mut core.benign_alerts);
        let order_rng = core.order_rng.clone();
        self.finish_phases(
            telemetry,
            plan,
            &core,
            benign_alerts,
            order_rng,
            None,
            None,
            location_workers,
        )
    }

    fn stage_phases(&self, telemetry: &Obs, plan: &FaultPlan) -> StageCore {
        let d = &self.deployment;
        let cfg = d.config();
        let ctx = ProbeContext::with_obs(d, telemetry);
        let mut probe_rng = StdRng::seed_from_u64(subseed(self.seed, b"probe"));
        let mut order_rng = StdRng::seed_from_u64(subseed(self.seed, b"order"));
        telemetry.emit(
            "run.start",
            &[
                ("seed", Value::U64(self.seed)),
                ("nodes", Value::U64(cfg.nodes as u64)),
                ("beacons", Value::U64(cfg.beacons as u64)),
                ("malicious", Value::U64(cfg.malicious as u64)),
                ("tau", Value::U64(cfg.tau as u64)),
                ("tau_prime", Value::U64(cfg.tau_prime as u64)),
            ],
        );

        // ---- Fault-plan resolution. -----------------------------------
        // Each category resolves from its own subseeded stream; an absent
        // category touches no RNG and installs no machinery, which is what
        // makes an empty plan bit-identical to a fault-free run.
        let noise = (!plan.noise_regions.is_empty()).then(|| NoiseField::new(&plan.noise_regions));
        let drift = plan
            .clock_drift
            .map(|spec| DriftTable::generate(&spec, cfg.nodes, subseed(self.seed, b"fault-drift")));
        let churn = plan.churn.as_ref().map(|spec| {
            ChurnSchedule::generate(spec, cfg.beacons, subseed(self.seed, b"fault-churn"))
        });
        // Per-node degradation, resolved once: the requester's position is
        // static, so its noise figure and skew are too.
        let node_faults: Option<Vec<ProbeFaults>> =
            (noise.is_some() || drift.is_some()).then(|| {
                (0..cfg.nodes)
                    .map(|i| ProbeFaults {
                        noise_figure: noise.as_ref().map_or(1.0, |f| f.figure_at(d.position(i))),
                        skew: drift.as_ref().map_or(Cycles::ZERO, |t| t.skew(i)),
                    })
                    .collect()
            });
        let fx_of = |i: u32| {
            node_faults
                .as_ref()
                .map_or(&ProbeFaults::NONE, |v| &v[i as usize])
        };
        if let Some(c) = &churn {
            telemetry.add("faults.churn.outages", c.outage_count() as u64);
        }
        let mut churn_suppressed = 0u64;
        let mut noise_perturbed = 0u64;
        let mut drift_skewed = 0u64;

        // ---- Phase 1: detection probes by benign beacons. -------------
        telemetry.emit("phase", &[("name", Value::Str("detection".to_string()))]);
        let detection_span = telemetry.span("phase.detection");
        let detectors = d.beacons_of_kind(NodeKind::BenignBeacon);
        // Audible beacons come from the topology's precomputed CSR cache,
        // and probes schedule into a flat key-packed vec (see
        // `ScheduledPairs`) instead of paying per-push heap maintenance.
        let mut pairs = ScheduledPairs::with_capacity(
            detectors.iter().map(|&u| d.audible_beacons(u).len()).sum(),
        );
        for &u in &detectors {
            for &v in d.audible_beacons(u) {
                pairs.schedule(order_rng.gen_range(0..1_000_000), u, v);
            }
        }
        let mut benign_alerts: Vec<Alert> = Vec::new();
        for (t, u, v) in pairs.drain_ordered() {
            if let Some(c) = &churn {
                let frac = t.as_u64() as f64 / 1_000_000.0;
                if !c.is_alive(u, frac) || !c.is_alive(v, frac) {
                    churn_suppressed += 1;
                    continue;
                }
            }
            let fx = fx_of(u);
            if fx.noise_figure != 1.0 {
                noise_perturbed += 1;
            }
            if fx.skew != Cycles::ZERO {
                drift_skewed += 1;
            }
            for k in 0..cfg.detecting_ids {
                let wire = d.ids().detecting_id(u, k);
                let Some(result) = ctx.probe_with(u, wire, v, fx, &mut probe_rng) else {
                    break;
                };
                if result.outcome.raises_alert() {
                    benign_alerts.push(Alert::new(NodeId(u), NodeId(v)));
                    break; // one alert per (detector, target)
                }
            }
        }
        telemetry.add("detect.alerts_raised", benign_alerts.len() as u64);
        detection_span.finish();

        // ---- Phase 2: location discovery by sensors. ------------------
        telemetry.emit("phase", &[("name", Value::Str("location".to_string()))]);
        let location_span = telemetry.span("phase.location");
        let mut pairs = ScheduledPairs::with_capacity(d.audible_pair_count(cfg.beacons, cfg.nodes));
        for w in d.sensors() {
            for &v in d.audible_beacons(w) {
                pairs.schedule(order_rng.gen_range(0..1_000_000), w, v);
            }
        }
        // Pre-size each sensor's kept list to its audible-beacon count —
        // the exact upper bound, since a sensor keeps at most one
        // reference per audible beacon — so the probe loop below never
        // reallocates mid-phase. Capacity is invisible to outcomes.
        let mut kept: Vec<Vec<KeptReference>> = (0..cfg.nodes)
            .map(|u| {
                Vec::with_capacity(if u >= cfg.beacons {
                    d.audible_beacons(u).len()
                } else {
                    0
                })
            })
            .collect();
        // poisoned[v] = sensors that accepted a malicious signal from v.
        let mut poisoned: Vec<Vec<u32>> = vec![Vec::new(); cfg.beacons as usize];
        for (t, w, v) in pairs.drain_ordered() {
            if let Some(c) = &churn {
                let frac = t.as_u64() as f64 / 1_000_000.0;
                if !c.is_alive(v, frac) {
                    churn_suppressed += 1;
                    continue;
                }
            }
            let fx = fx_of(w);
            if fx.noise_figure != 1.0 {
                noise_perturbed += 1;
            }
            if fx.skew != Cycles::ZERO {
                drift_skewed += 1;
            }
            let Some(result) = ctx.probe_with(w, NodeId(w), v, fx, &mut probe_rng) else {
                continue;
            };
            if !result.accepted_for_localization {
                continue;
            }
            kept[w as usize].push(KeptReference {
                beacon: v,
                reference: LocationReference::new(
                    result.observation.declared_position,
                    result.observation.measured_distance_ft,
                ),
            });
            if result.action == Some(Action::MaliciousSignal) {
                poisoned[v as usize].push(w);
            }
        }
        telemetry.add(
            "location.references_kept",
            kept.iter().map(|k| k.len() as u64).sum(),
        );
        telemetry.add(
            "location.sensors_poisoned",
            poisoned.iter().map(|p| p.len() as u64).sum(),
        );
        if churn.is_some() {
            telemetry.add("faults.churn.suppressed", churn_suppressed);
        }
        if noise.is_some() {
            telemetry.add("faults.noise.perturbed", noise_perturbed);
        }
        if drift.is_some() {
            telemetry.add("faults.drift.skewed", drift_skewed);
        }
        location_span.finish();

        StageCore {
            detectors,
            benign_alerts,
            kept,
            poisoned,
            order_rng,
            churn,
        }
    }

    /// The τ-independent slice of the impact phase, accumulated in sensor
    /// order with exactly the float operations of the in-run single-pass
    /// computation (so a shared-stage mean is bit-identical to a fresh
    /// run's). Solves run on the lane-kernel [`BatchedMmse`] over a
    /// pre-sized [`MmseScratch`]; with `workers` ≥ 2 the per-sensor
    /// solves fan out over scoped threads and are merged back in sensor
    /// order before the fold, which cannot change the sums.
    fn impact_precompute(&self, core: &StageCore, workers: usize) -> ImpactPrecompute {
        let cfg = self.deployment.config();
        let per_sensor = self.map_sensors(workers, |w, scratch| {
            scratch.load_from_iter(core.kept[w as usize].iter().map(|k| k.reference));
            self.clamped_error(w, scratch)
        });
        let mut before: Vec<Option<f64>> = vec![None; cfg.nodes as usize];
        let (mut sum_b, mut n_b) = (0.0f64, 0usize);
        for (i, c) in per_sensor.into_iter().enumerate() {
            if let Some(c) = c {
                before[cfg.beacons as usize + i] = Some(c);
                sum_b += c;
                n_b += 1;
            }
        }
        ImpactPrecompute { before, sum_b, n_b }
    }

    /// Maps `solve` over the sensors in sensor order, handing each call a
    /// scratch pre-sized to the topology's largest audible set. With
    /// `workers` ≥ 2 the calls fan out over scoped threads, each with its
    /// own scratch; the results still come back in sensor order.
    fn map_sensors<T: Send>(
        &self,
        workers: usize,
        solve: impl Fn(u32, &mut MmseScratch) -> T + Sync,
    ) -> Vec<T> {
        let d = &self.deployment;
        let cap = d.max_audible_len();
        let sensor0 = d.config().beacons;
        let total = (d.config().nodes - sensor0) as usize;
        if workers >= 2 {
            return parallel_index_map(
                total,
                workers,
                || MmseScratch::with_capacity(cap),
                |i, scratch| solve(sensor0 + i as u32, scratch),
            );
        }
        let mut scratch = MmseScratch::with_capacity(cap);
        let cap0 = scratch.capacity();
        let out = (0..total)
            .map(|i| solve(sensor0 + i as u32, &mut scratch))
            .collect();
        debug_assert_eq!(scratch.capacity(), cap0, "MmseScratch grew mid-run");
        out
    }

    /// Sensor `w`'s localization error from the scratch's active rows, or
    /// `None` when they do not solve. A deployed node knows the field
    /// bounds, and poisoned constraints can push the least-squares
    /// solution outside them, so the estimate is clamped like a real stack
    /// would clamp it.
    fn clamped_error(&self, w: u32, scratch: &MmseScratch) -> Option<f64> {
        let d = &self.deployment;
        let field = secloc_geometry::Field::square(d.config().field_side_ft);
        BatchedMmse::default()
            .estimate(scratch)
            .ok()
            .map(|est| field.clamp(est.position).distance(d.position(w)))
    }

    /// Phases 3a–4. `core` supplies the probe-stage snapshot;
    /// `benign_alerts` and `order_rng` are owned copies because phase 3a
    /// shuffles the former and advances the latter. With `shared` set, the
    /// impact phase reuses the τ-independent precompute and re-estimates
    /// only sensors that lost a reference to revocation.
    #[allow(clippy::too_many_arguments)]
    fn finish_phases(
        &self,
        telemetry: &Obs,
        plan: &FaultPlan,
        core: &StageCore,
        benign_alerts: Vec<Alert>,
        mut order_rng: StdRng,
        shared: Option<&ImpactPrecompute>,
        memo: Option<&mut ImpactMemo>,
        location_workers: usize,
    ) -> (SimOutcome, Trace) {
        let mut trace = Trace::new();
        let d = &self.deployment;
        let cfg = d.config();
        let churn = &core.churn;
        let detectors = &core.detectors;
        let kept = &core.kept;
        let poisoned = &core.poisoned;
        let mut benign_alerts = benign_alerts;

        // ---- Phase 3a: alert delivery over the lossy report channel. ---
        // Alerts cross a lossy multi-hop path; the paper assumes
        // retransmission makes delivery effectively reliable, which the
        // loss model + retransmission budget discharge explicitly. The
        // delivery draws happen here, alert by alert in submission order,
        // exactly as before the phase split. A burst-loss plan swaps the
        // Bernoulli process for a Gilbert–Elliott channel; without one the
        // channel wraps the identical Bernoulli process (same draws).
        telemetry.emit(
            "phase",
            &[("name", Value::Str("alert_delivery".to_string()))],
        );
        let delivery_span = telemetry.span("phase.alert_delivery");
        let mut alert_loss = AlertChannel::from_plan(plan, cfg.alert_loss_rate);
        let mut loss_rng = StdRng::seed_from_u64(subseed(self.seed, b"alert-loss"));
        let mut lost_transmissions = 0u64;
        let mut delivered = |rng: &mut StdRng, loss: &mut AlertChannel| {
            let sent = send_reliable(loss, cfg.alert_retransmissions, rng);
            lost_transmissions += (sent.transmissions - u32::from(sent.delivered)) as u64;
            sent.delivered
        };
        let mut submissions: Vec<(Alert, AlertSource, bool)> = Vec::new();
        let mut collusion_alerts = 0usize;
        if cfg.collusion && cfg.malicious > 0 {
            let colluders: Vec<NodeId> = d
                .beacons_of_kind(NodeKind::MaliciousBeacon)
                .into_iter()
                // A colluder that churn killed for good sends nothing; one
                // that rebooted rejoins the spam campaign.
                .filter(|&b| churn.as_ref().is_none_or(|c| c.is_alive(b, 1.0)))
                .map(NodeId)
                .collect();
            let mut victims: Vec<NodeId> = detectors.iter().copied().map(NodeId).collect();
            victims.shuffle(&mut order_rng);
            let policy = CollusionPolicy::new(cfg.tau, cfg.tau_prime);
            for (reporter, target) in policy.alerts(&colluders, &victims) {
                let ok = delivered(&mut loss_rng, &mut alert_loss);
                submissions.push((Alert::new(reporter, target), AlertSource::Collusion, ok));
                collusion_alerts += 1;
            }
        }
        benign_alerts.shuffle(&mut order_rng);
        let benign_alert_count = benign_alerts.len();
        for alert in benign_alerts {
            let ok = delivered(&mut loss_rng, &mut alert_loss);
            submissions.push((alert, AlertSource::Detection, ok));
        }
        let dropped_in_transit = submissions.iter().filter(|(_, _, ok)| !ok).count();
        telemetry.add("alerts.sent.collusion", collusion_alerts as u64);
        telemetry.add("alerts.sent.detection", benign_alert_count as u64);
        telemetry.add("alerts.dropped_in_transit", dropped_in_transit as u64);
        if plan.burst_loss.is_some() {
            telemetry.add("faults.channel.lost_transmissions", lost_transmissions);
        }
        delivery_span.finish();

        // ---- Phase 3b: revocation at the base station. -----------------
        telemetry.emit("phase", &[("name", Value::Str("revocation".to_string()))]);
        let revocation_span = telemetry.span("phase.revocation");
        let alert_metrics = telemetry.metrics().map(|r| AlertMetrics::new(r));
        // Every delivered alert is arbitrated by the shared
        // `RevocationMachine` (behind the `BaseStation` façade) — the same
        // state machine the streaming `secloc-alerter` service runs, so
        // the batch and stream paths cannot drift apart.
        let mut station = BaseStation::new(RevocationConfig {
            tau: cfg.tau,
            tau_prime: cfg.tau_prime,
        });
        // Per-decision events are only built when a sink is listening:
        // metrics-only telemetry (the BENCH_obs overhead configuration)
        // skips the string formatting entirely.
        let decisions_attended = telemetry.sink_attached();
        for (alert, source, ok) in submissions {
            let outcome = if ok {
                station.process(alert)
            } else {
                secloc_core::AlertOutcome::Accepted // hypothetical; not counted
            };
            if ok {
                if let Some(m) = &alert_metrics {
                    m.record(outcome);
                }
                let source_label = match source {
                    AlertSource::Detection => "detection",
                    AlertSource::Collusion => "collusion",
                };
                if decisions_attended {
                    telemetry.emit(
                        "bs.alert",
                        &[
                            ("reporter", Value::U64(alert.reporter.0 as u64)),
                            ("target", Value::U64(alert.target.0 as u64)),
                            ("source", Value::Str(source_label.to_string())),
                            ("outcome", Value::Str(outcome.wire_label().to_string())),
                        ],
                    );
                }
                if outcome == secloc_core::AlertOutcome::AcceptedAndRevoked {
                    telemetry.emit(
                        "revocation",
                        &[
                            ("target", Value::U64(alert.target.0 as u64)),
                            ("reporter", Value::U64(alert.reporter.0 as u64)),
                            ("source", Value::Str(source_label.to_string())),
                        ],
                    );
                }
            }
            trace.record(alert.reporter, alert.target, source, outcome, ok);
        }
        // Emitted after the last decision so any stream consumer (the
        // counter-anomaly health detector in particular) can reconcile the
        // delivered total against the bs.alert events it has already seen.
        telemetry.emit(
            "alerts.summary",
            &[
                ("sent_detection", Value::U64(benign_alert_count as u64)),
                ("sent_collusion", Value::U64(collusion_alerts as u64)),
                ("dropped", Value::U64(dropped_in_transit as u64)),
                (
                    "delivered",
                    Value::U64((benign_alert_count + collusion_alerts - dropped_in_transit) as u64),
                ),
            ],
        );
        revocation_span.finish();

        // ---- Phase 4: impact metrics. ----------------------------------
        telemetry.emit("phase", &[("name", Value::Str("impact".to_string()))]);
        let impact_span = telemetry.span("phase.impact");
        let malicious = d.beacons_of_kind(NodeKind::MaliciousBeacon);
        let benign = detectors;
        let revoked_malicious = malicious
            .iter()
            .filter(|&&v| station.is_revoked(NodeId(v)))
            .count() as u32;
        let revoked_benign = benign
            .iter()
            .filter(|&&v| station.is_revoked(NodeId(v)))
            .count() as u32;

        let (affected_before, affected_after) = if malicious.is_empty() {
            (0.0, 0.0)
        } else {
            let before: usize = malicious.iter().map(|&v| poisoned[v as usize].len()).sum();
            let after: usize = malicious
                .iter()
                .filter(|&&v| !station.is_revoked(NodeId(v)))
                .map(|&v| poisoned[v as usize].len())
                .sum();
            (
                before as f64 / malicious.len() as f64,
                after as f64 / malicious.len() as f64,
            )
        };

        // Revocation state materialized once as a bitmap so the inner
        // loops avoid per-reference hash lookups.
        let revoked: Vec<bool> = (0..cfg.beacons)
            .map(|b| station.is_revoked(NodeId(b)))
            .collect();
        telemetry.set_gauge("run.location_workers", location_workers as i64);
        telemetry.set_gauge("impact.workers", location_workers.max(1) as i64);

        let (err_before, err_after) = match shared {
            // Shared-stage path: the pre-revocation contributions were
            // accumulated once per probe stage in the same sensor order;
            // only sensors that actually lost a reference to revocation
            // are re-estimated here.
            Some(pre) => {
                let (mut sum_a, mut n_a) = (0.0f64, 0usize);
                let mut scratch = MmseScratch::with_capacity(d.max_audible_len());
                let cap0 = scratch.capacity();
                let mut memo = memo;
                if let Some(m) = memo.as_deref_mut() {
                    if m.per_sensor.len() < cfg.nodes as usize {
                        m.per_sensor.resize(cfg.nodes as usize, Vec::new());
                    }
                }
                for w in d.sensors() {
                    let ks = &kept[w as usize];
                    // Which kept references revocation dropped, as a mask
                    // over the list (None when it doesn't fit in 64 bits
                    // and at least one reference was dropped).
                    let dropped: Option<u64> = if ks.len() <= 64 {
                        let mut m = 0u64;
                        for (j, k) in ks.iter().enumerate() {
                            if revoked[k.beacon as usize] {
                                m |= 1 << j;
                            }
                        }
                        Some(m)
                    } else if ks.iter().all(|k| !revoked[k.beacon as usize]) {
                        Some(0)
                    } else {
                        None
                    };
                    let solve = |scratch: &mut MmseScratch| {
                        scratch.load_from_iter(
                            ks.iter()
                                .filter(|k| !revoked[k.beacon as usize])
                                .map(|k| k.reference),
                        );
                        self.clamped_error(w, scratch)
                    };
                    let contribution = match (dropped, memo.as_deref_mut()) {
                        // Nothing dropped: identical inputs, reuse the
                        // shared pre-revocation estimate.
                        (Some(0), _) => pre.before[w as usize],
                        (Some(mask), Some(m)) => {
                            let entries = &mut m.per_sensor[w as usize];
                            match entries.iter().find(|&&(key, _)| key == mask) {
                                Some(&(_, c)) => c,
                                None => {
                                    let c = solve(&mut scratch);
                                    entries.push((mask, c));
                                    c
                                }
                            }
                        }
                        _ => solve(&mut scratch),
                    };
                    if let Some(c) = contribution {
                        sum_a += c;
                        n_a += 1;
                    }
                }
                debug_assert_eq!(scratch.capacity(), cap0, "MmseScratch grew mid-run");
                (
                    (pre.n_b > 0).then(|| pre.sum_b / pre.n_b as f64),
                    (n_a > 0).then(|| sum_a / n_a as f64),
                )
            }
            // Single pass over the sensors on the lane-kernel solver with a
            // reused pre-sized scratch; when revocation removed none of a
            // sensor's references the second (filtered) estimate is the same
            // pure function of the same inputs, so the first result is reused
            // instead of recomputed. Per-sensor contributions are folded in
            // sensor order whether solved in-line or on worker threads, and
            // the per-accumulator addition order matches the two-pass impact
            // phase of the reference run (`secloc-oracle`), so the means are
            // bit-identical to it.
            None => {
                let pairs = self.map_sensors(location_workers, |w, scratch| {
                    let ks = &kept[w as usize];
                    scratch.load_from_iter(ks.iter().map(|k| k.reference));
                    let before = self.clamped_error(w, scratch);
                    let after = if ks.iter().all(|k| !revoked[k.beacon as usize]) {
                        before // nothing filtered: identical inputs
                    } else {
                        scratch.retain(|i| !revoked[ks[i].beacon as usize]);
                        self.clamped_error(w, scratch)
                    };
                    (before, after)
                });
                let (mut sum_b, mut n_b) = (0.0f64, 0usize);
                let (mut sum_a, mut n_a) = (0.0f64, 0usize);
                for (b, a) in pairs {
                    if let Some(c) = b {
                        sum_b += c;
                        n_b += 1;
                    }
                    if let Some(c) = a {
                        sum_a += c;
                        n_a += 1;
                    }
                }
                (
                    (n_b > 0).then(|| sum_b / n_b as f64),
                    (n_a > 0).then(|| sum_a / n_a as f64),
                )
            }
        };

        let outcome = SimOutcome {
            malicious_total: malicious.len() as u32,
            benign_total: benign.len() as u32,
            revoked_malicious,
            revoked_benign,
            affected_before,
            affected_after,
            benign_alerts: benign_alert_count,
            collusion_alerts,
            mean_requesters_per_beacon: d.mean_requesters_per_beacon(),
            mean_loc_error_before_ft: err_before,
            mean_loc_error_after_ft: err_after,
        };
        impact_span.finish();
        telemetry.set_gauge("sim.revoked_malicious", outcome.revoked_malicious as i64);
        telemetry.set_gauge("sim.revoked_benign", outcome.revoked_benign as i64);
        telemetry.emit(
            "round.snapshot",
            &[
                ("seed", Value::U64(self.seed)),
                (
                    "revoked_malicious",
                    Value::U64(outcome.revoked_malicious as u64),
                ),
                ("revoked_benign", Value::U64(outcome.revoked_benign as u64)),
                ("benign_alerts", Value::U64(outcome.benign_alerts as u64)),
                (
                    "collusion_alerts",
                    Value::U64(outcome.collusion_alerts as u64),
                ),
                ("detection_rate", Value::F64(outcome.detection_rate())),
                (
                    "false_positive_rate",
                    Value::F64(outcome.false_positive_rate()),
                ),
                ("affected_after", Value::F64(outcome.affected_after)),
            ],
        );
        telemetry.emit("run.end", &[("seed", Value::U64(self.seed))]);
        telemetry.flush();
        (outcome, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_faults::{ChurnSpec, Outage};

    fn small_cfg(p: f64) -> SimConfig {
        SimConfig {
            nodes: 400,
            beacons: 40,
            malicious: 4,
            attacker_p: p,
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn options_compose_and_trace_is_opt_in() {
        let r = Runner::new(small_cfg(0.5), 3);
        let plain = r.run(RunOptions::new());
        assert!(plain.trace.is_none());
        let traced = r.run(RunOptions::new().traced());
        assert_eq!(traced.outcome, plain.outcome);
        let t = traced.trace.expect("requested");
        assert_eq!(
            t.records().len(),
            plain.outcome.benign_alerts + plain.outcome.collusion_alerts
        );
    }

    #[test]
    fn try_new_surfaces_config_errors() {
        let mut bad = small_cfg(0.5);
        bad.alert_retransmissions = 0;
        assert!(matches!(
            Runner::try_new(bad, 1),
            Err(crate::ConfigError::NoTransmissionBudget)
        ));
        assert!(Runner::try_new(small_cfg(0.5), 1).is_ok());
    }

    #[test]
    fn explicit_empty_plan_matches_config_plan() {
        // A config-level plan is overridden by an explicit empty plan.
        let mut cfg = small_cfg(0.5);
        cfg.faults = FaultPlan::default().with_clock_drift(5_000);
        let r = Runner::new(cfg, 9);
        let clean = Runner::new(small_cfg(0.5), 9).run(RunOptions::new());
        let overridden = r.run(RunOptions::new().faults(FaultPlan::default()));
        assert_eq!(overridden.outcome, clean.outcome);
        // And without the override, the config plan applies.
        let drifted = r.run(RunOptions::new());
        let drifted_again = r.run(RunOptions::new());
        assert_eq!(
            drifted.outcome, drifted_again.outcome,
            "still deterministic"
        );
    }

    #[test]
    fn shared_probe_stage_matches_plain_runs_across_revocation_policies() {
        let base_cfg = small_cfg(0.6);
        let base = Runner::new(base_cfg.clone(), 17);
        let stage = base.probe_stage();
        for (tau, tau_prime, collusion, loss, retx) in [
            (2, 2, true, 0.1, 8),
            (1, 1, true, 0.1, 8),
            (3, 4, true, 0.3, 2),
            (2, 2, false, 0.0, 1),
            (5, 1, true, 0.9, 16),
        ] {
            let mut cfg = base_cfg.clone();
            cfg.tau = tau;
            cfg.tau_prime = tau_prime;
            cfg.collusion = collusion;
            cfg.alert_loss_rate = loss;
            cfg.alert_retransmissions = retx;
            let cell = Runner::from_deployment(
                base.deployment().with_policy(cfg.clone()).expect("policy"),
            );
            let staged = cell.finish_from_stage(&stage);
            let fresh = Runner::new(cfg, 17).run(RunOptions::new()).outcome;
            assert_eq!(staged, fresh, "tau={tau} tau'={tau_prime}");
        }
    }

    #[test]
    fn probe_stage_respects_config_fault_plan() {
        let mut cfg = small_cfg(0.6);
        cfg.faults = FaultPlan::default()
            .with_clock_drift(800)
            .with_churn(ChurnSpec::random(0.2, 0.5));
        let r = Runner::new(cfg.clone(), 31);
        let stage = r.probe_stage();
        let staged = r.finish_from_stage(&stage);
        let plain = r.run(RunOptions::new()).outcome;
        assert_eq!(staged, plain);
    }

    #[test]
    fn dead_from_start_beacons_never_interact() {
        // Kill every malicious beacon before the run starts: no alerts can
        // be raised against them and none of them can be revoked.
        let mut cfg = small_cfg(0.9);
        cfg.wormhole = None;
        cfg.collusion = true;
        let r = Runner::new(cfg.clone(), 5);
        let malicious = r.deployment().beacons_of_kind(NodeKind::MaliciousBeacon);
        let plan = FaultPlan::default().with_churn(ChurnSpec::scheduled_only(
            malicious
                .iter()
                .map(|&b| Outage::dead_from_start(b))
                .collect(),
        ));
        let dead = r.run(RunOptions::new().faults(plan)).outcome;
        assert_eq!(dead.benign_alerts, 0, "dead beacons emit no signals");
        assert_eq!(dead.collusion_alerts, 0, "dead colluders send no spam");
        assert_eq!(dead.revoked_malicious, 0, "never revoked post-death");
        assert_eq!(dead.affected_before, 0.0, "no sensor heard them");
        // Sanity: alive they do get caught.
        let alive = r.run(RunOptions::new()).outcome;
        assert!(alive.revoked_malicious > 0);
    }
}
