//! The unified experiment entry point: [`Runner`] + [`RunOptions`].
//!
//! One `run` method serves every caller: they compose what they need with
//! the [`RunOptions`] builder and get back a [`RunOutput`]. Every phase
//! applies the configuration's fault plan ([`SimConfig::faults`]); an
//! empty plan is guaranteed bit-identical to a fault-free run, and every
//! run is bit-identical to the straight-line reference run of the dev-only
//! `secloc-oracle` crate (`tests/equivalence.rs` enforces both).

use crate::deploy::subseed;
use crate::probe::ProbeFaults;
use crate::{Deployment, NodeKind, ProbeContext, SimConfig, SimOutcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use secloc_attack::{Action, CollusionPolicy, CollusionScratch};
use secloc_core::{Alert, AlertMetrics, AlertOutcome, RevocationConfig, RevocationMachine};
use secloc_crypto::NodeId;
use secloc_faults::{AlertChannel, ChurnSchedule, DriftTable, NoiseField};
use secloc_localization::{BatchedMmse, LocationReference, MmseScratch};
use secloc_obs::{Obs, Value};
use secloc_radio::loss::send_reliable;
use secloc_radio::Cycles;
use std::sync::{Mutex, OnceLock};

/// A reference a sensor kept for localization, tagged with its source.
#[derive(Debug, Clone, Copy)]
struct KeptReference {
    beacon: u32,
    reference: LocationReference,
}

/// Dispatch times of a probe phase are drawn from `0..DISPATCH_SPAN`
/// (order-stream cycles); churn reads a time as the fraction
/// `t / DISPATCH_SPAN` of the phase.
const DISPATCH_SPAN: u64 = 1_000_000;

/// Flat probe-pair schedule, drained in `(dispatch time, insertion
/// sequence)` order — the pop order of a discrete-event heap (the
/// reference run's `EventQueue` in `secloc-oracle`).
///
/// Each push packs its priority into one `u64` key, `(time << 32) | seq`,
/// with the pair itself in a parallel vec at index `seq`. One stable sort
/// of the 8-byte keys then reproduces the heap's drain order exactly,
/// skipping both the per-push sift-up and the per-pop heap maintenance:
/// two stable 10-bit LSD counting passes over the time bits
/// (`DISPATCH_SPAN` < 2²⁰), so entries with equal times keep push order,
/// which is precisely the sequence tie-break.
struct ScheduledPairs {
    keys: Vec<u64>,
    pairs: Vec<(u32, u32)>,
}

impl ScheduledPairs {
    const DIGIT: u32 = 10;

    fn with_capacity(n: usize) -> Self {
        ScheduledPairs {
            keys: Vec::with_capacity(n),
            pairs: Vec::with_capacity(n),
        }
    }

    fn schedule(&mut self, at: u64, u: u32, v: u32) {
        debug_assert!(at < DISPATCH_SPAN, "dispatch time {at} out of range");
        debug_assert!(self.keys.len() < u32::MAX as usize);
        self.keys.push((at << 32) | self.keys.len() as u64);
        self.pairs.push((u, v));
    }

    /// Consumes the schedule in `(time, sequence)` order.
    fn drain_ordered(self) -> impl Iterator<Item = (Cycles, u32, u32)> {
        const _: () = assert!(DISPATCH_SPAN <= 1 << (2 * ScheduledPairs::DIGIT));
        const BUCKETS: usize = 1 << ScheduledPairs::DIGIT;
        let mask = BUCKETS as u64 - 1;
        let lo = |key: u64| ((key >> 32) & mask) as usize;
        let hi = |key: u64| ((key >> (32 + Self::DIGIT)) & mask) as usize;
        let mut src = self.keys;
        // Both histograms from one read of the keys, then each turned
        // into its digit's bucket starts.
        let mut starts = [[0u32; BUCKETS]; 2];
        for &key in &src {
            starts[0][lo(key)] += 1;
            starts[1][hi(key)] += 1;
        }
        for digit in &mut starts {
            let mut acc = 0u32;
            for slot in digit.iter_mut() {
                let count = *slot;
                *slot = acc;
                acc += count;
            }
        }
        let mut dst = vec![0u64; src.len()];
        let [lo_starts, hi_starts] = &mut starts;
        for &key in &src {
            let at = &mut lo_starts[lo(key)];
            dst[*at as usize] = key;
            *at += 1;
        }
        for &key in &dst {
            let at = &mut hi_starts[hi(key)];
            src[*at as usize] = key;
            *at += 1;
        }
        debug_assert!(
            src.windows(2).all(|w| w[0] <= w[1]),
            "radix drain order diverged from the packed-key comparison sort"
        );
        let pairs = self.pairs;
        src.into_iter().map(move |key| {
            let (u, v) = pairs[key as u32 as usize];
            (Cycles::new(key >> 32), u, v)
        })
    }
}

/// Every kept reference indexed by its beacon, in CSR form: beacon `b`'s
/// references are `refs[offsets[b] .. offsets[b + 1]]`, each the
/// `(sensor, slot)` that kept it, `slot` being its position in the
/// sensor's kept list; sensors ascend within a beacon. Built once per
/// stage, so a finish finds what revocation dropped by reading only the
/// revoked beacons' references instead of every kept list.
#[derive(Debug)]
struct KeptIndex {
    offsets: Vec<u32>,
    refs: Vec<(u32, u32)>,
}

impl KeptIndex {
    /// One counting pass by beacon over the kept lists in node order.
    fn build(kept: &[Vec<KeptReference>], beacons: u32) -> Self {
        let mut offsets = vec![0u32; beacons as usize + 1];
        for k in kept.iter().flatten() {
            offsets[k.beacon as usize + 1] += 1;
        }
        for b in 0..beacons as usize {
            offsets[b + 1] += offsets[b];
        }
        let mut cursor = offsets.clone();
        let mut refs = vec![(0, 0); offsets[beacons as usize] as usize];
        for (w, list) in kept.iter().enumerate() {
            for (slot, k) in list.iter().enumerate() {
                let at = &mut cursor[k.beacon as usize];
                refs[*at as usize] = (w as u32, slot as u32);
                *at += 1;
            }
        }
        KeptIndex { offsets, refs }
    }

    /// Which of each node's kept references revocation dropped, written
    /// into `masks` indexed by node: a mask over its kept list in order, or
    /// `None` when the list is longer than 64 and at least one reference
    /// was dropped.
    fn dropped_masks(
        &self,
        kept: &[Vec<KeptReference>],
        revoked: &RevokedSet,
        masks: &mut Vec<Option<u64>>,
    ) {
        masks.clear();
        masks.resize(kept.len(), Some(0));
        for (b, span) in self.offsets.windows(2).enumerate() {
            if !revoked.contains(b as u32) {
                continue;
            }
            for &(w, slot) in &self.refs[span[0] as usize..span[1] as usize] {
                let mask = &mut masks[w as usize];
                if kept[w as usize].len() > 64 {
                    *mask = None;
                } else if let Some(m) = mask {
                    *m |= 1 << slot;
                }
            }
        }
    }
}

/// The beacons revocation removed, as a bitset over beacon indices: one
/// word per 64 beacons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RevokedSet(Vec<u64>);

impl RevokedSet {
    /// Rewrites the set, in place, as `machine`'s verdicts on beacons
    /// `0..beacons`.
    fn refill(&mut self, machine: &RevocationMachine, beacons: u32) {
        let words = &mut self.0;
        words.clear();
        words.resize(beacons.div_ceil(64) as usize, 0);
        for b in 0..beacons {
            if machine.is_revoked(NodeId(b)) {
                words[(b / 64) as usize] |= 1 << (b % 64);
            }
        }
    }

    fn contains(&self, b: u32) -> bool {
        self.0[(b / 64) as usize] >> (b % 64) & 1 == 1
    }
}

/// Phase 3a's submission order: the colluders that survive churn and
/// their victims in spam order (both empty unless colluders spam), then
/// the benign alerts in sending order. Both shuffles draw from the
/// stage's order stream, the victims' first and only when colluders spam,
/// so the order is a pure function of the stage and that one flag.
#[derive(Debug)]
struct AlertOrder {
    colluders: Vec<NodeId>,
    victims: Vec<NodeId>,
    benign: Vec<Alert>,
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

/// A snapshot of a run's probe stage (detection + location discovery):
/// everything phases 1–2 produce that the revocation and impact phases
/// consume, plus the `order_rng` state at phase-3 entry. It is a pure
/// function of the deployment, the seed, the fault plan and the
/// probe-relevant config fields — the revocation knobs (τ, τ′, collusion,
/// alert-channel parameters) have not been read yet when it is captured —
/// so one stage serves every sweep cell that shares those. Every
/// [`Runner::run`] builds one and finishes from it; [`Runner::probe_stage`]
/// builds one for [`Runner::finish_from_stage`].
#[derive(Debug)]
pub struct ProbeStage {
    detectors: Vec<u32>,
    benign_alerts: Vec<Alert>,
    kept: Vec<Vec<KeptReference>>,
    /// `kept` indexed by beacon.
    index: KeptIndex,
    poisoned: Vec<Vec<u32>>,
    order_rng: StdRng,
    churn: Option<ChurnSchedule>,
    /// The τ-independent impact precompute: solved by
    /// [`Runner::probe_stage`], or inside `phase.impact` by the first
    /// finish that needs it.
    impact: OnceLock<ImpactPrecompute>,
    /// Post-revocation results already computed against this stage,
    /// shared by every finish from it, with the buffers a finish works in.
    memo: Mutex<ImpactMemo>,
    /// Phase 3a's order, built on first use, indexed by whether colluders
    /// spam.
    orders: [OnceLock<AlertOrder>; 2],
}

/// Cross-cell cache of one [`ProbeStage`], in two levels, plus the
/// buffers its finishes borrow.
///
/// Every entry is a pure function of the stage and of what revocation
/// removed, and every cell finishing from one stage shares the stage, so
/// the memo cannot change any outcome: a finish that lands on a revoked
/// set already seen skips the impact pass, and one that does not still
/// re-solves each sensor at most once per distinct dropped subset.
#[derive(Debug)]
struct ImpactMemo {
    /// The after-revocation mean error of every revoked set finished so
    /// far. A stage sees a few dozen sets, so a linear scan does.
    by_revoked: Vec<(RevokedSet, Option<f64>)>,
    /// Indexed by node: each sensor's post-revocation error contribution,
    /// keyed by *which* of its kept references revocation dropped (a mask
    /// over the kept list in order). The entries seen so far are few
    /// enough per sensor for linear scans to beat hashing.
    per_sensor: Vec<SensorEntries>,
    /// The working buffers of the finish that holds the lock.
    buffers: FinishBuffers,
}

/// One sensor's level of the memo: `(dropped mask, contribution)` pairs.
type SensorEntries = Vec<(u64, Option<f64>)>;

/// What a finish works in, kept by its stage from one finish to the next
/// (under the memo's lock), so that once they have grown a finish
/// allocates only what it adds to the memo. Nothing in them outlives a
/// finish: each is cleared or rewritten before it is read.
#[derive(Debug)]
struct FinishBuffers {
    /// The base station: sized for the beacon IDs once, reset per finish.
    machine: RevocationMachine,
    /// The colluders' alert stream, and its working memory.
    collusion: Vec<(NodeId, NodeId)>,
    collusion_scratch: CollusionScratch,
    /// Delivered alerts with their source label, in submission order.
    delivered: Vec<(Alert, &'static str)>,
    /// What revocation removed; cloned only into a new memo entry.
    revoked: RevokedSet,
    impact: ImpactBuffers,
}

impl FinishBuffers {
    fn new(cfg: &SimConfig) -> Self {
        FinishBuffers {
            machine: RevocationMachine::with_nodes(revocation_config(cfg), cfg.beacons as usize),
            collusion: Vec::new(),
            collusion_scratch: CollusionScratch::default(),
            delivered: Vec::new(),
            revoked: RevokedSet::default(),
            impact: ImpactBuffers::default(),
        }
    }
}

/// The working memory of one impact pass (see [`Runner::impact_pass`]).
#[derive(Debug, Default)]
struct ImpactBuffers {
    /// Every sensor's contribution, in sensor order: the pass's result.
    out: Vec<Option<f64>>,
    /// The sensors left to solve, in sensor order, each with the memo key
    /// its result is stored under.
    pending: Vec<(u32, Option<u64>)>,
    /// Per node, which of its kept references revocation dropped.
    masks: Vec<Option<u64>>,
    /// The solver's two scratches, made on the first solve.
    slots: Option<[MmseScratch; 2]>,
}

/// What one impact pass solves each sensor over.
enum ImpactPass<'a> {
    /// The τ-independent precompute: every sensor over all its kept
    /// references.
    Before,
    /// After revocation: a sensor that lost no reference keeps its
    /// `before` contribution, and the others re-solve over the references
    /// that survive — through the memo's per-sensor level when there is
    /// one.
    After {
        revoked: &'a RevokedSet,
        before: &'a [Option<f64>],
        memo: Option<&'a mut [SensorEntries]>,
    },
}

/// The (τ, τ′) thresholds of `cfg`.
fn revocation_config(cfg: &SimConfig) -> RevocationConfig {
    RevocationConfig {
        tau: cfg.tau,
        tau_prime: cfg.tau_prime,
    }
}

/// The run's phases in execution order. Each is timed by a
/// `phase.<name>` span, whose histogram is `span.phase.<name>.ns`.
pub const PHASE_NAMES: [&str; 6] = [
    "deploy",
    "detection",
    "location",
    "alert_delivery",
    "revocation",
    "impact",
];

/// Announces phase `name` on the event sink; without a sink it builds
/// nothing.
fn announce_phase(telemetry: &Obs, name: &str) {
    if telemetry.sink_attached() {
        telemetry.emit("phase", &[("name", Value::Str(name.to_string()))]);
    }
}

/// How to run one experiment: telemetry and fault injection, both opt-in.
///
/// ```
/// use secloc_obs::{MemorySink, Obs, Value};
/// use secloc_sim::{RunOptions, Runner, SimConfig};
/// use std::sync::Arc;
///
/// let runner = Runner::new(SimConfig {
///     nodes: 300,
///     beacons: 30,
///     malicious: 3,
///     ..SimConfig::paper_default()
/// }, 7);
/// let plain = runner.run(RunOptions::new()).outcome;
/// let sink = Arc::new(MemorySink::new());
/// let obs = Obs::new(None, Some(sink.clone()));
/// assert_eq!(runner.run(RunOptions::new().observed(&obs)).outcome, plain);
/// // Every alert sent is either decided (`bs.alert`) or lost in transit.
/// let events = sink.events();
/// let decided = events.iter().filter(|e| e.kind == "bs.alert").count();
/// let summary = events.iter().find(|e| e.kind == "alerts.summary").unwrap();
/// let Some(&Value::U64(dropped)) = summary.field("dropped") else { panic!() };
/// assert_eq!(
///     decided + dropped as usize,
///     plain.benign_alerts + plain.collusion_alerts
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    observed: Option<&'a Obs>,
}

impl<'a> RunOptions<'a> {
    /// The plain run: no telemetry, faults taken from the configuration's
    /// [`SimConfig::faults`] plan.
    pub fn new() -> Self {
        RunOptions::default()
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
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The paper's measurements.
    pub outcome: SimOutcome,
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
/// Under a non-empty fault plan ([`SimConfig::faults`]) the run
/// additionally suffers beacon churn (dead nodes neither probe nor reply),
/// regional ranging noise and per-node clock skew (degrading each affected
/// exchange), and bursty alert-channel loss. Every fault category draws
/// from its own seeded RNG stream, so enabling one never perturbs the draws
/// of the others — or of the fault-free machinery.
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
    /// [`Deployment::try_generate`] with [`Runner::from_deployment`] to
    /// handle the error instead.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        Runner {
            deployment: Deployment::generate(config, seed),
            seed,
        }
    }

    /// Like [`Runner::new`], but times deployment generation under the
    /// `phase.deploy` span and announces the phase on the event sink.
    pub fn new_observed(config: SimConfig, seed: u64, telemetry: &Obs) -> Self {
        announce_phase(telemetry, "deploy");
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

    /// Runs all phases per `options` and returns the measurements: the
    /// probe stage of [`Runner::probe_stage`] under the run's telemetry,
    /// then the finish of [`Runner::finish_from_stage`], which solves the
    /// τ-independent precompute inside `phase.impact`.
    pub fn run(&self, options: RunOptions<'_>) -> RunOutput {
        let disabled = Obs::disabled();
        let telemetry = options.observed.unwrap_or(&disabled);
        let stage = self.stage_phases(telemetry);
        RunOutput {
            outcome: self.finish_phases(telemetry, &stage),
        }
    }

    /// Runs phases 1–2 (detection + location discovery) of a plain run —
    /// config fault plan, no telemetry — and
    /// snapshots everything the remaining phases need, including the
    /// τ-independent impact precompute.
    ///
    /// The snapshot is a pure function of `(topology, seed)` plus the
    /// probe-relevant policy fields (ε_max, `m`, `p_d`, `attacker_p`,
    /// `lie_offset_ft`); the revocation knobs (τ, τ′, collusion, alert
    /// loss/retransmissions) are untouched, so one stage serves every cell
    /// of a revocation-axis sweep via [`Runner::finish_from_stage`].
    pub fn probe_stage(&self) -> ProbeStage {
        let stage = self.stage_phases(&Obs::disabled());
        self.precompute(&stage);
        stage
    }

    /// Re-solves the τ-independent per-sensor localization chain of
    /// `stage`'s probe snapshot and returns how many sensors produced an
    /// estimate. The solve result is discarded — this exists so the perf
    /// harness can time the localization pipeline in isolation from the
    /// (inherently serial, RNG-ordered) probing phases. `workers` is
    /// ignored: a run is single-threaded.
    pub fn solve_impact_chain(&self, stage: &ProbeStage, _workers: usize) -> usize {
        self.impact_precompute(stage).n_b
    }

    /// Completes a plain run from a shared probe-stage snapshot:
    /// bit-identical to `self.run(RunOptions::new()).outcome` when `stage`
    /// came from a runner agreeing with `self` on the seed, the topology,
    /// and every probe-relevant policy field (the equivalence suite is the
    /// oracle). Only the revocation and impact phases execute.
    ///
    /// Every finish from one stage shares the stage's impact memo and its
    /// alert order: a finish whose revoked set repeats across the cells of
    /// the stage skips the impact pass, and a sensor whose
    /// dropped-reference subset repeats is re-estimated only once. The memo
    /// caches pure-function results, so outcomes stay bit-identical. The
    /// finishes of one stage also share its working buffers (alert lists,
    /// the revocation machine, impact scratch), so once those have grown a
    /// finish allocates only what it adds to the memo, and a finish whose
    /// revoked set the memo holds allocates nothing. A finish that finds
    /// the memo held by a concurrent finish of the same stage solves
    /// without it, on fresh buffers, rather than wait.
    pub fn finish_from_stage(&self, stage: &ProbeStage) -> SimOutcome {
        self.finish_from_stage_observed(stage, &Obs::disabled())
    }

    /// [`Runner::finish_from_stage`] reporting on `telemetry`: the
    /// revocation and impact phases emit spans, counters and `bs.alert` /
    /// `revocation` / `alerts.summary` events exactly as a full observed
    /// run would. Instrumentation consumes no randomness, so the outcome
    /// is still bit-identical to the plain staged finish — this is how
    /// the sweep orchestrator attributes per-cell revocation decisions to
    /// their cell's trace.
    pub fn finish_from_stage_observed(&self, stage: &ProbeStage, telemetry: &Obs) -> SimOutcome {
        self.finish_phases(telemetry, stage)
    }

    fn stage_phases(&self, telemetry: &Obs) -> ProbeStage {
        let d = &self.deployment;
        let cfg = d.config();
        let plan = &cfg.faults;
        let ctx = ProbeContext::new(d, telemetry);
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
        announce_phase(telemetry, "detection");
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
                pairs.schedule(order_rng.gen_range(0..DISPATCH_SPAN), u, v);
            }
        }
        let mut benign_alerts: Vec<Alert> = Vec::new();
        for (t, u, v) in pairs.drain_ordered() {
            if let Some(c) = &churn {
                let frac = t.as_u64() as f64 / DISPATCH_SPAN as f64;
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
                let Some(result) = ctx.probe(u, wire, v, fx, &mut probe_rng) else {
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
        announce_phase(telemetry, "location");
        let location_span = telemetry.span("phase.location");
        let mut pairs = ScheduledPairs::with_capacity(d.audible_pair_count(cfg.beacons, cfg.nodes));
        for w in d.sensors() {
            for &v in d.audible_beacons(w) {
                pairs.schedule(order_rng.gen_range(0..DISPATCH_SPAN), w, v);
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
                let frac = t.as_u64() as f64 / DISPATCH_SPAN as f64;
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
            let Some(result) = ctx.probe(w, NodeId(w), v, fx, &mut probe_rng) else {
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

        ProbeStage {
            detectors,
            benign_alerts,
            index: KeptIndex::build(&kept, cfg.beacons),
            kept,
            poisoned,
            order_rng,
            churn,
            impact: OnceLock::new(),
            memo: Mutex::new(ImpactMemo {
                by_revoked: Vec::new(),
                per_sensor: vec![Vec::new(); cfg.nodes as usize],
                buffers: FinishBuffers::new(cfg),
            }),
            orders: Default::default(),
        }
    }

    /// `stage`'s τ-independent precompute, solved on first use.
    fn precompute<'s>(&self, stage: &'s ProbeStage) -> &'s ImpactPrecompute {
        stage.impact.get_or_init(|| self.impact_precompute(stage))
    }

    /// The τ-independent slice of the impact phase, accumulated in sensor
    /// order with exactly the float operations of the reference run's
    /// pre-revocation pass (`secloc-oracle`).
    fn impact_precompute(&self, stage: &ProbeStage) -> ImpactPrecompute {
        let cfg = self.deployment.config();
        let mut pass = ImpactBuffers::default();
        self.impact_pass(stage, ImpactPass::Before, &mut pass);
        let mut before: Vec<Option<f64>> = vec![None; cfg.nodes as usize];
        let (mut sum_b, mut n_b) = (0.0f64, 0usize);
        for (i, &c) in pass.out.iter().enumerate() {
            if let Some(c) = c {
                before[cfg.beacons as usize + i] = Some(c);
                sum_b += c;
                n_b += 1;
            }
        }
        ImpactPrecompute { before, sum_b, n_b }
    }

    /// The impact loop: every sensor's contribution under `pass`, in
    /// sensor order (indexed from the first sensor), left in `buffers.out`
    /// for the caller to fold. Sensors whose contribution is already known
    /// — untouched by revocation, or a memo hit — resolve at once; the rest
    /// are solved (see [`Runner::solve_sensors`]) and, under a memo,
    /// recorded in it.
    fn impact_pass(&self, stage: &ProbeStage, pass: ImpactPass<'_>, buffers: &mut ImpactBuffers) {
        let d = &self.deployment;
        let kept = &stage.kept;
        let sensor0 = d.config().beacons;
        let ImpactBuffers {
            out,
            pending,
            masks,
            slots,
        } = buffers;
        out.clear();
        pending.clear();
        let (revoked, mut memo) = match pass {
            ImpactPass::Before => {
                pending.extend(d.sensors().map(|w| (w, None)));
                out.resize(pending.len(), None);
                (None, None)
            }
            ImpactPass::After {
                revoked,
                before,
                memo,
            } => {
                stage.index.dropped_masks(kept, revoked, masks);
                for w in d.sensors() {
                    let dropped = masks[w as usize];
                    let known = match (dropped, memo.as_deref()) {
                        (Some(0), _) => Some(before[w as usize]),
                        (Some(mask), Some(memo)) => memo[w as usize]
                            .iter()
                            .find(|&&(key, _)| key == mask)
                            .map(|&(_, c)| c),
                        _ => None,
                    };
                    if known.is_none() {
                        pending.push((w, dropped));
                    }
                    out.push(known.flatten());
                }
                (Some(revoked), memo)
            }
        };
        let pending = &*pending;
        self.solve_sensors(
            slots,
            pending.len(),
            |i| pending[i].0,
            |w, scratch| {
                let refs = kept[w as usize].iter();
                match revoked {
                    None => scratch.load_from_iter(refs.map(|k| k.reference)),
                    Some(revoked) => scratch.load_from_iter(
                        refs.filter(|k| !revoked.contains(k.beacon))
                            .map(|k| k.reference),
                    ),
                }
            },
            |i, c| {
                let (w, key) = pending[i];
                out[(w - sensor0) as usize] = c;
                if let (Some(key), Some(memo)) = (key, memo.as_deref_mut()) {
                    memo[w as usize].push((key, c));
                }
            },
        );
    }

    /// Solves the reference sets of sensors `sensor_of(0..n)` —
    /// `load(w, scratch)` fills a scratch with sensor `w`'s set — and hands
    /// each sensor's localization error to `emit(i, error)` as it
    /// completes: `None` when its set does not solve. Every solve runs
    /// through [`BatchedMmse::positions`] over the two scratches in
    /// `slots`, made pre-sized to the topology's largest audible set when
    /// the first set is solved.
    ///
    /// A deployed node knows the field bounds, and poisoned constraints
    /// can push the least-squares solution outside them, so the estimate
    /// is clamped like a real stack would clamp it.
    fn solve_sensors(
        &self,
        slots: &mut Option<[MmseScratch; 2]>,
        n: usize,
        sensor_of: impl Fn(usize) -> u32,
        load: impl Fn(u32, &mut MmseScratch),
        mut emit: impl FnMut(usize, Option<f64>),
    ) {
        if n == 0 {
            return;
        }
        let d = &self.deployment;
        let field = secloc_geometry::Field::square(d.config().field_side_ft);
        let cap = d.max_audible_len();
        let slots = slots.get_or_insert_with(|| {
            [
                MmseScratch::with_capacity(cap),
                MmseScratch::with_capacity(cap),
            ]
        });
        let caps = slots.each_ref().map(MmseScratch::capacity);
        let load = |j: usize, s: &mut MmseScratch| load(sensor_of(j), s);
        BatchedMmse::default().positions(slots, n, load, |j, position| {
            emit(
                j,
                position
                    .ok()
                    .map(|p| field.clamp(p).distance(d.position(sensor_of(j)))),
            );
        });
        debug_assert_eq!(
            slots.each_ref().map(MmseScratch::capacity),
            caps,
            "MmseScratch grew mid-run"
        );
    }

    /// Phase 3a's submission order on `stage` (see [`AlertOrder`]), which
    /// the stage builds once per `spam` flag.
    fn alert_order(&self, stage: &ProbeStage, spam: bool) -> AlertOrder {
        let mut order_rng = stage.order_rng.clone();
        let (mut colluders, mut victims) = (Vec::new(), Vec::new());
        if spam {
            colluders = self
                .deployment
                .malicious_beacons()
                .iter()
                .copied()
                // A colluder that churn killed for good sends nothing; one
                // that rebooted rejoins the spam campaign.
                .filter(|&b| stage.churn.as_ref().is_none_or(|c| c.is_alive(b, 1.0)))
                .map(NodeId)
                .collect();
            victims = stage.detectors.iter().copied().map(NodeId).collect();
            victims.shuffle(&mut order_rng);
        }
        let mut benign = stage.benign_alerts.clone();
        benign.shuffle(&mut order_rng);
        AlertOrder {
            colluders,
            victims,
            benign,
        }
    }

    /// Phases 3a–4 on the probe-stage snapshot `stage`. The impact phase
    /// re-estimates only the sensors that lost a reference to revocation;
    /// every other sensor keeps its pre-revocation contribution from the
    /// stage's precompute.
    fn finish_phases(&self, telemetry: &Obs, stage: &ProbeStage) -> SimOutcome {
        let d = &self.deployment;
        let cfg = d.config();
        let plan = &cfg.faults;
        let detectors = &stage.detectors;
        let poisoned = &stage.poisoned;
        let spam = cfg.collusion && cfg.malicious > 0;
        let order = stage.orders[usize::from(spam)].get_or_init(|| self.alert_order(stage, spam));

        // One lock per finish covers the memo and the buffers it works in.
        // A memo held by a concurrent finish of the same stage, or poisoned
        // by a panicking one, is skipped, and the finish works in fresh
        // buffers: the memo only saves work, and every entry in it is
        // complete.
        let mut held = stage.memo.try_lock().ok();
        let mut spare = None;
        let (buffers, mut memo) = match held.as_deref_mut() {
            Some(ImpactMemo {
                by_revoked,
                per_sensor,
                buffers,
            }) => (buffers, Some((by_revoked, per_sensor))),
            None => (spare.insert(FinishBuffers::new(cfg)), None),
        };
        let FinishBuffers {
            machine,
            collusion,
            collusion_scratch,
            delivered,
            revoked,
            impact,
        } = buffers;

        // ---- Phase 3a: alert delivery over the lossy report channel. ---
        // Alerts cross a lossy multi-hop path; the paper assumes
        // retransmission makes delivery effectively reliable, which the
        // loss model + retransmission budget discharge explicitly. The
        // delivery draws happen here, alert by alert in submission order,
        // exactly as before the phase split. A burst-loss plan swaps the
        // Bernoulli process for a Gilbert–Elliott channel; without one the
        // channel wraps the identical Bernoulli process (same draws).
        announce_phase(telemetry, "alert_delivery");
        let delivery_span = telemetry.span("phase.alert_delivery");
        let mut alert_loss = AlertChannel::from_plan(plan, cfg.alert_loss_rate);
        let mut loss_rng = StdRng::seed_from_u64(subseed(self.seed, b"alert-loss"));
        let mut lost_transmissions = 0u64;
        delivered.clear();
        let mut dropped_in_transit = 0usize;
        let mut submit = |alert: Alert, source: &'static str| {
            let sent = send_reliable(&mut alert_loss, cfg.alert_retransmissions, &mut loss_rng);
            lost_transmissions += (sent.transmissions - u32::from(sent.delivered)) as u64;
            if sent.delivered {
                delivered.push((alert, source));
            } else {
                dropped_in_transit += 1;
            }
        };
        let mut collusion_alerts = 0usize;
        if spam {
            let policy = CollusionPolicy::new(cfg.tau, cfg.tau_prime);
            policy.alerts_into(
                &order.colluders,
                &order.victims,
                collusion,
                collusion_scratch,
            );
            for &(reporter, target) in collusion.iter() {
                submit(Alert::new(reporter, target), "collusion");
            }
            collusion_alerts = collusion.len();
        }
        let benign_alert_count = order.benign.len();
        for &alert in &order.benign {
            submit(alert, "detection");
        }
        telemetry.add("alerts.sent.collusion", collusion_alerts as u64);
        telemetry.add("alerts.sent.detection", benign_alert_count as u64);
        telemetry.add("alerts.dropped_in_transit", dropped_in_transit as u64);
        if plan.burst_loss.is_some() {
            telemetry.add("faults.channel.lost_transmissions", lost_transmissions);
        }
        delivery_span.finish();

        // ---- Phase 3b: revocation at the base station. -----------------
        announce_phase(telemetry, "revocation");
        let revocation_span = telemetry.span("phase.revocation");
        let alert_metrics = telemetry.metrics().map(|r| AlertMetrics::new(r));
        // Every delivered alert is arbitrated by the shared
        // `RevocationMachine` — the same state machine the streaming
        // `secloc-alerter` service runs, so the batch and stream paths
        // cannot drift apart.
        machine.reset(revocation_config(cfg));
        // Per-decision events are only built when a sink is listening:
        // metrics-only telemetry (the BENCH_obs overhead configuration)
        // skips the string formatting entirely.
        let decisions_attended = telemetry.sink_attached();
        for &(alert, source) in delivered.iter() {
            let outcome = machine.decide(alert.reporter, alert.target);
            if let Some(m) = &alert_metrics {
                m.record(outcome);
            }
            if decisions_attended {
                telemetry.emit(
                    "bs.alert",
                    &[
                        ("reporter", Value::U64(alert.reporter.0 as u64)),
                        ("target", Value::U64(alert.target.0 as u64)),
                        ("source", Value::Str(source.to_string())),
                        ("outcome", Value::Str(outcome.wire_label().to_string())),
                    ],
                );
                if outcome == AlertOutcome::AcceptedAndRevoked {
                    telemetry.emit(
                        "revocation",
                        &[
                            ("target", Value::U64(alert.target.0 as u64)),
                            ("reporter", Value::U64(alert.reporter.0 as u64)),
                            ("source", Value::Str(source.to_string())),
                        ],
                    );
                }
            }
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
        announce_phase(telemetry, "impact");
        let impact_span = telemetry.span("phase.impact");
        // Revocation state materialized once as a bitset: the counts and
        // the inner loops read it instead of the machine, and it keys the
        // memo's per-set level.
        revoked.refill(machine, cfg.beacons);
        let malicious = d.malicious_beacons();
        let benign = detectors;
        let revoked_malicious = malicious.iter().filter(|&&v| revoked.contains(v)).count() as u32;
        let revoked_benign = benign.iter().filter(|&&v| revoked.contains(v)).count() as u32;

        let (affected_before, affected_after) = if malicious.is_empty() {
            (0.0, 0.0)
        } else {
            let before: usize = malicious.iter().map(|&v| poisoned[v as usize].len()).sum();
            let after: usize = malicious
                .iter()
                .filter(|&&v| !revoked.contains(v))
                .map(|&v| poisoned[v as usize].len())
                .sum();
            (
                before as f64 / malicious.len() as f64,
                after as f64 / malicious.len() as f64,
            )
        };

        // A revoked set the stage has already finished takes its mean
        // from the memo. Otherwise revocation can only drop references, so
        // only sensors that lost one re-solve, folded in sensor order.
        let pre = self.precompute(stage);
        let err_before = (pre.n_b > 0).then(|| pre.sum_b / pre.n_b as f64);
        let seen = memo
            .as_ref()
            .and_then(|(by_revoked, _)| by_revoked.iter().find(|(set, _)| set == revoked));
        let err_after = match seen {
            Some(&(_, err)) => err,
            None => {
                let pass = ImpactPass::After {
                    revoked,
                    before: &pre.before,
                    memo: memo
                        .as_mut()
                        .map(|(_, per_sensor)| per_sensor.as_mut_slice()),
                };
                self.impact_pass(stage, pass, impact);
                let (mut sum_a, mut n_a) = (0.0f64, 0usize);
                for &c in impact.out.iter().flatten() {
                    sum_a += c;
                    n_a += 1;
                }
                let err = (n_a > 0).then(|| sum_a / n_a as f64);
                if let Some((by_revoked, _)) = memo.as_mut() {
                    by_revoked.push((revoked.clone(), err));
                }
                err
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
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_faults::{ChurnSpec, FaultPlan, Outage};

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
    fn options_compose_and_events_are_opt_in() {
        let r = Runner::new(small_cfg(0.5), 3);
        let plain = r.run(RunOptions::new()).outcome;
        let sink = std::sync::Arc::new(secloc_obs::MemorySink::new());
        let obs = Obs::new(None, Some(sink.clone()));
        let observed = r.run(RunOptions::new().observed(&obs));
        assert_eq!(observed.outcome, plain);
        // Every alert sent is either decided at the base station or lost.
        let events = sink.events();
        let decided = events.iter().filter(|e| e.kind == "bs.alert").count();
        let summary = events
            .iter()
            .find(|e| e.kind == "alerts.summary")
            .expect("one summary per run");
        let Some(&Value::U64(dropped)) = summary.field("dropped") else {
            panic!("alerts.summary without a dropped count");
        };
        assert_eq!(
            decided + dropped as usize,
            plain.benign_alerts + plain.collusion_alerts
        );
    }

    #[test]
    fn scheduled_pairs_drain_as_a_stable_sort_by_time() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 2, 9, 1_000, 20_000] {
            let times: Vec<u64> = (0..n)
                .map(|_| match rng.gen_range(0..5) {
                    0 => 0,
                    1 => DISPATCH_SPAN - 1,
                    // Few distinct times, so many entries tie.
                    2 => rng.gen_range(0..6) << 10,
                    3 => rng.gen_range(1_020..1_030),
                    _ => rng.gen_range(0..DISPATCH_SPAN),
                })
                .collect();
            let mut schedule = ScheduledPairs::with_capacity(n);
            let mut want = Vec::with_capacity(n);
            for (k, &t) in times.iter().enumerate() {
                let (u, v) = (k as u32, (k as u32).wrapping_mul(2_654_435_761));
                schedule.schedule(t, u, v);
                want.push((Cycles::new(t), u, v));
            }
            want.sort_by_key(|&(t, _, _)| t);
            let got: Vec<(Cycles, u32, u32)> = schedule.drain_ordered().collect();
            assert_eq!(got, want, "{n} entries");
        }
    }

    #[test]
    fn probe_stage_is_shareable_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<ProbeStage>();
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

    /// The `policy_grid` benchmark's revocation axis on `base`: τ 1..5 ×
    /// τ′ 1..5 × alert loss {0, 0.1, 0.3}.
    fn policy_grid(base: &SimConfig) -> Vec<SimConfig> {
        let mut out = Vec::new();
        for tau in 1..=5 {
            for tau_prime in 1..=5 {
                for alert_loss_rate in [0.0, 0.1, 0.3] {
                    out.push(SimConfig {
                        tau,
                        tau_prime,
                        alert_loss_rate,
                        ..base.clone()
                    });
                }
            }
        }
        out
    }

    /// `base`'s deployment re-keyed under each of `policies`.
    fn cells(base: &Runner, policies: &[SimConfig]) -> Vec<Runner> {
        policies
            .iter()
            .map(|c| Runner::from_deployment(base.deployment().with_policy(c.clone()).unwrap()))
            .collect()
    }

    #[test]
    fn policy_grid_finishes_match_plain_runs_in_either_order() {
        let base = Runner::new(small_cfg(0.6), 23);
        let cells = cells(&base, &policy_grid(base.deployment().config()));
        let plain: Vec<SimOutcome> = cells
            .iter()
            .map(|c| c.run(RunOptions::new()).outcome)
            .collect();
        let forward = base.probe_stage();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.finish_from_stage(&forward),
                plain[i],
                "forward, cell {i}"
            );
        }
        let backward = base.probe_stage();
        for (i, cell) in cells.iter().enumerate().rev() {
            assert_eq!(
                cell.finish_from_stage(&backward),
                plain[i],
                "reverse, cell {i}"
            );
        }
        for stage in [&forward, &backward] {
            let sets = stage.memo.lock().unwrap().by_revoked.len();
            assert!((2..cells.len()).contains(&sets), "{sets} revoked sets");
        }
    }

    #[test]
    fn dense_stage_finishes_match_plain_runs_across_policies() {
        // Sensors hear 60+ beacons in a 400 ft field, so some keep more
        // references than a 64-bit dropped mask covers.
        let cfg = SimConfig {
            nodes: 320,
            beacons: 200,
            malicious: 30,
            field_side_ft: 400.0,
            attacker_p: 0.6,
            wormhole: None,
            ..SimConfig::paper_default()
        };
        let base = Runner::new(cfg.clone(), 4);
        let stage = base.probe_stage();
        let kept = &stage.kept;
        assert!(kept.iter().any(|k| k.len() > 64), "no dense sensor");
        // Each τ/τ′ pair without colluder spam, then with it: the first
        // finish builds the stage's spam-free alert order, which the
        // second must not reuse.
        let policies: Vec<SimConfig> = [(1, 1), (2, 2), (3, 1), (1, 4), (4, 4), (2, 5), (5, 2)]
            .into_iter()
            .flat_map(|(tau, tau_prime)| {
                [false, true].map(|collusion| SimConfig {
                    tau,
                    tau_prime,
                    collusion,
                    ..cfg.clone()
                })
            })
            .collect();
        // Dense sensors that lost a reference, over all policies.
        let mut past_mask_width = 0;
        for (i, cell) in cells(&base, &policies).iter().enumerate() {
            let sink = std::sync::Arc::new(secloc_obs::MemorySink::new());
            let obs = Obs::new(None, Some(sink.clone()));
            let plain = cell.run(RunOptions::new().observed(&obs)).outcome;
            assert_eq!(cell.finish_from_stage(&stage), plain, "policy {i}");
            let mut revoked = RevokedSet(vec![0; cfg.beacons.div_ceil(64) as usize]);
            for event in sink.events().iter().filter(|e| e.kind == "revocation") {
                let Some(&Value::U64(b)) = event.field("target") else {
                    panic!("revocation without a target");
                };
                revoked.0[b as usize / 64] |= 1 << (b % 64);
            }
            // The index's masks against their definition, a scan of every
            // kept list.
            let scanned: Vec<Option<u64>> = kept
                .iter()
                .map(|k| {
                    let mut dropped = (0..k.len()).filter(|&j| revoked.contains(k[j].beacon));
                    if k.len() <= 64 {
                        Some(dropped.fold(0, |m, j| m | 1 << j))
                    } else {
                        dropped.next().is_none().then_some(0)
                    }
                })
                .collect();
            let mut masks = vec![None; 3];
            stage.index.dropped_masks(kept, &revoked, &mut masks);
            assert_eq!(masks, scanned, "policy {i}");
            past_mask_width += masks.iter().filter(|m| m.is_none()).count();
        }
        assert!(past_mask_width > 0, "no dense sensor lost a reference");
    }

    #[test]
    fn concurrent_finishes_of_one_stage_match_serial_ones() {
        let base = Runner::new(small_cfg(0.6), 29);
        let cells = cells(&base, &policy_grid(base.deployment().config()));
        let serial_stage = base.probe_stage();
        let serial: Vec<SimOutcome> = cells
            .iter()
            .map(|c| c.finish_from_stage(&serial_stage))
            .collect();
        let shared = base.probe_stage();
        // A finish that finds the memo held solves without it.
        {
            let _held = shared.memo.lock().unwrap();
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(cell.finish_from_stage(&shared), serial[i], "cell {i}");
            }
        }
        assert!(shared.memo.lock().unwrap().by_revoked.is_empty());
        // Two threads released together contend for the memo on every cell.
        let start = std::sync::Barrier::new(2);
        let finish_all = || -> Vec<SimOutcome> {
            start.wait();
            cells.iter().map(|c| c.finish_from_stage(&shared)).collect()
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(finish_all);
            let mine = finish_all();
            (mine, other.join().expect("finishing thread panicked"))
        });
        assert_eq!(a, serial);
        assert_eq!(b, serial);
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
        cfg.faults = FaultPlan::default().with_churn(ChurnSpec {
            scheduled: malicious
                .iter()
                .map(|&node| Outage {
                    node,
                    from_frac: 0.0,
                    until_frac: f64::INFINITY,
                })
                .collect(),
            ..ChurnSpec::default()
        });
        let dead = Runner::new(cfg, 5).run(RunOptions::new()).outcome;
        assert_eq!(dead.benign_alerts, 0, "dead beacons emit no signals");
        assert_eq!(dead.collusion_alerts, 0, "dead colluders send no spam");
        assert_eq!(dead.revoked_malicious, 0, "never revoked post-death");
        assert_eq!(dead.affected_before, 0.0, "no sensor heard them");
        // Sanity: alive they do get caught.
        let alive = r.run(RunOptions::new()).outcome;
        assert!(alive.revoked_malicious > 0);
    }
}
