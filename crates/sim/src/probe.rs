//! One request/reply beacon exchange.

use crate::{Deployment, NodeKind};
use rand::rngs::StdRng;
use secloc_attack::Action;
use secloc_core::{DetectionOutcome, DetectionPipeline, Observation, PipelineMetrics};
use secloc_crypto::NodeId;
use secloc_geometry::Point2;
use secloc_obs::{Counter, Obs};
use secloc_radio::ranging::BoundedRanging;
use secloc_radio::timing::RttModel;
use secloc_radio::Cycles;
use std::cell::Cell;

/// Counters resolved once per context. Per-probe recording bumps plain
/// `Cell` tallies — the probe loop is the simulation's hottest path, and
/// even relaxed atomic adds per exchange were a measurable slice of the
/// detection and location phases — and the totals land in the registry in
/// one update per counter when the context drops.
#[derive(Debug)]
struct ProbeTelemetry {
    pipeline: PipelineMetrics,
    exchanges: Counter,
    no_signal: Counter,
    tally_exchanges: Cell<u64>,
    tally_no_signal: Cell<u64>,
    /// Indexed by [`ProbeTelemetry::VERDICTS`] position.
    tally_verdicts: [Cell<u64>; 4],
    tally_loc_accepted: Cell<u64>,
    tally_loc_rejected: Cell<u64>,
}

impl ProbeTelemetry {
    const VERDICTS: [DetectionOutcome; 4] = [
        DetectionOutcome::Benign,
        DetectionOutcome::IgnoredWormholeReplay,
        DetectionOutcome::IgnoredLocalReplay,
        DetectionOutcome::Alert,
    ];

    fn verdict_slot(outcome: DetectionOutcome) -> usize {
        match outcome {
            DetectionOutcome::Benign => 0,
            DetectionOutcome::IgnoredWormholeReplay => 1,
            DetectionOutcome::IgnoredLocalReplay => 2,
            DetectionOutcome::Alert => 3,
        }
    }
}

impl Drop for ProbeTelemetry {
    fn drop(&mut self) {
        self.exchanges.add(self.tally_exchanges.get());
        self.no_signal.add(self.tally_no_signal.get());
        for (slot, outcome) in Self::VERDICTS.into_iter().enumerate() {
            self.pipeline
                .add_verdicts(outcome, self.tally_verdicts[slot].get());
        }
        self.pipeline
            .add_localizations(true, self.tally_loc_accepted.get());
        self.pipeline
            .add_localizations(false, self.tally_loc_rejected.get());
    }
}

/// The shared machinery for running probes against one deployment.
#[derive(Debug)]
pub struct ProbeContext<'a> {
    deployment: &'a Deployment,
    pipeline: DetectionPipeline,
    ranging: BoundedRanging,
    rtt_model: RttModel,
    wormhole_detector_seed: u64,
    telemetry: Option<ProbeTelemetry>,
}

/// Degradations applied to one exchange: the requester's local noise
/// figure (scales the ranging error bound) and its clock skew (added to
/// every RTT it measures). [`ProbeFaults::NONE`] leaves the exchange
/// untouched — and, crucially, byte-identical to a fault-free probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeFaults {
    /// Multiplier on the maximum ranging error at the requester.
    pub noise_figure: f64,
    /// Clock skew added to every RTT the requester measures.
    pub skew: Cycles,
}

impl ProbeFaults {
    /// No degradation at all.
    pub const NONE: ProbeFaults = ProbeFaults {
        noise_figure: 1.0,
        skew: Cycles::ZERO,
    };
}

impl Default for ProbeFaults {
    fn default() -> Self {
        ProbeFaults::NONE
    }
}

/// Everything produced by one exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    /// What the requester observed.
    pub observation: Observation,
    /// The detection pipeline's verdict on the observation.
    pub outcome: DetectionOutcome,
    /// Whether a non-beacon requester would keep the signal for
    /// localization.
    pub accepted_for_localization: bool,
    /// The malicious action behind the reply (`None` for benign targets).
    pub action: Option<Action>,
    /// Whether the signal travelled through the wormhole.
    pub via_wormhole: bool,
}

impl<'a> ProbeContext<'a> {
    /// Builds the probe machinery for `deployment`, with probe/verdict
    /// counters resolved from `telemetry` (none when it carries no
    /// registry). Counter names: `probe.exchanges`, `probe.no_signal`, and
    /// the [`PipelineMetrics`] family.
    pub fn new(deployment: &'a Deployment, telemetry: &Obs) -> Self {
        let cfg = deployment.config();
        let pipeline = DetectionPipeline::new(
            secloc_core::SignalDetector::new(cfg.max_ranging_error_ft),
            secloc_core::WormholeFilter::new(cfg.range_ft),
            secloc_core::RttFilter::paper_default(),
        );
        ProbeContext {
            deployment,
            pipeline,
            ranging: BoundedRanging::new(cfg.max_ranging_error_ft),
            rtt_model: RttModel::paper_default(),
            wormhole_detector_seed: crate::deploy::subseed(deployment.seed(), b"wormhole-detector"),
            telemetry: telemetry.metrics().map(|registry| ProbeTelemetry {
                pipeline: PipelineMetrics::new(registry),
                exchanges: registry.counter("probe.exchanges"),
                no_signal: registry.counter("probe.no_signal"),
                tally_exchanges: Cell::new(0),
                tally_no_signal: Cell::new(0),
                tally_verdicts: [const { Cell::new(0) }; 4],
                tally_loc_accepted: Cell::new(0),
                tally_loc_rejected: Cell::new(0),
            }),
        }
    }

    /// The wormhole detector's verdict for the link `requester -> target`.
    ///
    /// Real wormhole detectors (geographic/temporal leashes, directional
    /// antennas) judge a *link*, so their verdict is consistent across
    /// repeated exchanges on the same pair; modelling it as an independent
    /// coin per probe would inflate the per-pair false-alert probability
    /// from the paper's `1 − p_d` to `1 − p_d^m`. The verdict is therefore
    /// a deterministic Bernoulli(`p_d`) draw keyed by the pair.
    fn wormhole_detector_fires(&self, requester: u32, target: u32) -> bool {
        let tag = secloc_crypto::prf::prf64(
            (self.wormhole_detector_seed, requester as u64),
            &target.to_le_bytes(),
        );
        let uniform = (tag >> 11) as f64 / (1u64 << 53) as f64;
        uniform < self.deployment.config().wormhole_detection_rate
    }

    /// The detection pipeline in force.
    pub fn pipeline(&self) -> &DetectionPipeline {
        &self.pipeline
    }

    /// Runs one exchange: the node at index `requester` (presenting wire
    /// identity `requester_wire_id`) requests a beacon signal from beacon
    /// index `target`, with `faults` degrading the requester's
    /// measurements. [`ProbeFaults::NONE`] draws exactly what a fault-free
    /// exchange draws.
    ///
    /// Returns `None` when no signal reaches the requester at all (out of
    /// range and not wormhole-connected; or a malicious target contacted
    /// via the wormhole — §4: "a malicious beacon node only contacts the
    /// nodes within its communication range").
    pub fn probe(
        &self,
        requester: u32,
        requester_wire_id: NodeId,
        target: u32,
        faults: &ProbeFaults,
        rng: &mut StdRng,
    ) -> Option<ProbeResult> {
        let result = self.probe_inner(requester, requester_wire_id, target, faults, rng);
        if let Some(t) = &self.telemetry {
            let tally = match result {
                Some(_) => &t.tally_exchanges,
                None => &t.tally_no_signal,
            };
            tally.set(tally.get() + 1);
        }
        result
    }

    fn probe_inner(
        &self,
        requester: u32,
        requester_wire_id: NodeId,
        target: u32,
        fx: &ProbeFaults,
        rng: &mut StdRng,
    ) -> Option<ProbeResult> {
        let cfg = self.deployment.config();
        let rq_pos = self.deployment.position(requester);
        let tg_pos = self.deployment.position(target);
        // Computed once here and passed down: every reply needs the true
        // requester-target distance, and recomputing it per branch was a
        // measurable slice of the location phase.
        let true_d = rq_pos.distance(tg_pos);
        let direct = true_d <= cfg.range_ft;

        match self.deployment.kind(target) {
            NodeKind::Sensor => None, // sensors do not emit beacon signals
            NodeKind::MaliciousBeacon if direct => {
                let beacon = self.deployment.compromised(target).expect("malicious");
                let action = beacon.decide(requester_wire_id);
                // A normal reply is indistinguishable from an honest
                // beacon's; a malicious one declares the lie, with honest
                // timing.
                let declared = match action {
                    Action::Normal => tg_pos,
                    Action::MaliciousSignal => beacon.declared_position(),
                };
                Some(self.direct_reply(rq_pos, declared, true_d, Some(action), fx, rng))
            }
            NodeKind::MaliciousBeacon => None,
            NodeKind::BenignBeacon => {
                if direct {
                    Some(self.direct_reply(rq_pos, tg_pos, true_d, None, fx, rng))
                } else {
                    // `Deployment::wormhole_exits` holds `exit_for` for
                    // every benign beacon in a wormhole mouth, ascending by
                    // index — a binary search replaces the per-probe
                    // geometry with a lookup of the identical value.
                    let exits = self.deployment.wormhole_exits();
                    let exit = exits
                        .binary_search_by_key(&target, |&(v, _)| v)
                        .ok()
                        .map(|at| exits[at].1)
                        .filter(|exit| exit.distance(rq_pos) <= cfg.range_ft)?;
                    Some(self.benign_wormhole_reply(requester, target, exit, fx, rng))
                }
            }
        }
    }

    fn finish(
        &self,
        observation: Observation,
        action: Option<Action>,
        via_wormhole: bool,
    ) -> ProbeResult {
        let (outcome, accepted_for_localization) =
            self.pipeline.evaluate_with_acceptance(&observation);
        if let Some(t) = &self.telemetry {
            let verdict = &t.tally_verdicts[ProbeTelemetry::verdict_slot(outcome)];
            verdict.set(verdict.get() + 1);
            let loc = if accepted_for_localization {
                &t.tally_loc_accepted
            } else {
                &t.tally_loc_rejected
            };
            loc.set(loc.get() + 1);
        }
        ProbeResult {
            observation,
            outcome,
            accepted_for_localization,
            action,
            via_wormhole,
        }
    }

    /// One ranging measurement under the requester's noise figure. A unit
    /// figure takes the exact fault-free path so the bits cannot drift.
    fn measure(&self, d: f64, fx: &ProbeFaults, rng: &mut StdRng) -> f64 {
        if fx.noise_figure == 1.0 {
            self.ranging.measure(d, rng)
        } else {
            self.ranging
                .with_noise_figure(fx.noise_figure)
                .measure(d, rng)
        }
    }

    /// A reply over the direct link at true distance `d`, declaring
    /// `declared`: one ranging draw, then one RTT draw.
    fn direct_reply(
        &self,
        rq: Point2,
        declared: Point2,
        d: f64,
        action: Option<Action>,
        fx: &ProbeFaults,
        rng: &mut StdRng,
    ) -> ProbeResult {
        let obs = Observation {
            detector_position: rq,
            declared_position: declared,
            measured_distance_ft: self.measure(d, fx, rng),
            rtt: self.rtt_model.sample(d, Cycles::ZERO, rng) + fx.skew,
            wormhole_detector_fired: false,
        };
        self.finish(obs, action, false)
    }

    fn benign_wormhole_reply(
        &self,
        requester: u32,
        target: u32,
        exit: Point2,
        fx: &ProbeFaults,
        rng: &mut StdRng,
    ) -> ProbeResult {
        let rq = self.deployment.position(requester);
        let tg = self.deployment.position(target);
        let tunnel_extra = self
            .deployment
            .wormhole()
            .map(|w| w.extra_delay())
            .unwrap_or(Cycles::ZERO);
        // The signal re-enters the air at the wormhole exit: distance (and
        // hence RSSI ranging) reflects the exit, not the true beacon.
        let apparent = rq.distance(exit);
        let obs = Observation {
            detector_position: rq,
            declared_position: tg, // truthful beacon, distant location
            measured_distance_ft: self.measure(apparent, fx, rng),
            rtt: self.rtt_model.sample(apparent, tunnel_extra, rng) + fx.skew,
            wormhole_detector_fired: self.wormhole_detector_fires(requester, target),
        };
        self.finish(obs, None, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use rand::SeedableRng;

    const CLEAN: &ProbeFaults = &ProbeFaults::NONE;

    fn deployment() -> Deployment {
        Deployment::generate(
            SimConfig {
                nodes: 400,
                beacons: 40,
                malicious: 8,
                attacker_p: 0.5,
                ..SimConfig::paper_default()
            },
            11,
        )
    }

    #[test]
    fn benign_direct_probes_are_benign() {
        let d = deployment();
        let ctx = ProbeContext::new(&d, &Obs::disabled());
        let mut rng = StdRng::seed_from_u64(1);
        let mut checked = 0;
        for u in d.beacons_of_kind(NodeKind::BenignBeacon) {
            for v in d.neighbors(u) {
                if d.kind(v) == NodeKind::BenignBeacon {
                    let r = ctx
                        .probe(u, d.ids().detecting_id(u, 0), v, CLEAN, &mut rng)
                        .expect("in range");
                    assert_eq!(r.outcome, DetectionOutcome::Benign, "{u}->{v}");
                    assert!(r.accepted_for_localization);
                    assert!(!r.via_wormhole);
                    checked += 1;
                }
            }
        }
        assert!(checked > 10, "too few benign pairs: {checked}");
    }

    #[test]
    fn malicious_signal_probes_alert() {
        let d = deployment();
        let ctx = ProbeContext::new(&d, &Obs::disabled());
        let mut rng = StdRng::seed_from_u64(2);
        let mut alerted = 0;
        let mut hidden = 0;
        for v in d.beacons_of_kind(NodeKind::MaliciousBeacon) {
            for u in d.neighbors(v) {
                if d.kind(u) != NodeKind::BenignBeacon {
                    continue;
                }
                let wire = d.ids().detecting_id(u, 0);
                let r = ctx.probe(u, wire, v, CLEAN, &mut rng).expect("in range");
                match r.action.expect("malicious target") {
                    Action::MaliciousSignal => {
                        assert_eq!(r.outcome, DetectionOutcome::Alert);
                        alerted += 1;
                    }
                    Action::Normal => {
                        assert_eq!(r.outcome, DetectionOutcome::Benign);
                        hidden += 1;
                    }
                }
            }
        }
        assert!(alerted > 0, "P=0.5 must produce alerts");
        assert!(hidden > 0, "P=0.5 must also hide sometimes");
    }

    #[test]
    fn sensors_accept_malicious_and_normal_signals() {
        let d = deployment();
        let ctx = ProbeContext::new(&d, &Obs::disabled());
        let mut rng = StdRng::seed_from_u64(3);
        for v in d.beacons_of_kind(NodeKind::MaliciousBeacon) {
            for u in d.neighbors(v) {
                if d.kind(u) != NodeKind::Sensor {
                    continue;
                }
                let r = ctx
                    .probe(u, NodeId(u), v, CLEAN, &mut rng)
                    .expect("in range");
                assert!(r.action.is_some());
                assert!(r.accepted_for_localization);
            }
        }
    }

    #[test]
    fn wormhole_replays_follow_pd_per_pair() {
        // Across many deployments, the fraction of wormhole-connected
        // (detector, beacon) pairs whose replay survives the wormhole
        // detector must track 1 - p_d. Within one pair the verdict is
        // consistent (a leash judges the link, not the packet), so the
        // paper's per-pair false-alert bound (1 - p_d) holds even with
        // m = 8 probes.
        let mut suppressed = 0usize;
        let mut false_alerts = 0usize;
        for seed in 0..12 {
            let cfg = SimConfig {
                nodes: 1000,
                beacons: 100,
                malicious: 0,
                ..SimConfig::paper_default()
            };
            let d = Deployment::generate(cfg, seed);
            let ctx = ProbeContext::new(&d, &Obs::disabled());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let w = *d.wormhole().unwrap();
            for u in d.beacons_of_kind(NodeKind::BenignBeacon) {
                for v in d.beacons_of_kind(NodeKind::BenignBeacon) {
                    if u == v {
                        continue;
                    }
                    let (up, vp) = (d.position(u), d.position(v));
                    if up.distance(vp) <= 150.0 || !w.tunnels(vp, up, 150.0) {
                        continue;
                    }
                    // Probe the same pair under several detecting IDs: the
                    // outcome class must not flip within a pair.
                    let mut outcomes = Vec::new();
                    for k in 0..4 {
                        let r = ctx
                            .probe(u, d.ids().detecting_id(u, k), v, CLEAN, &mut rng)
                            .expect("wormhole-connected");
                        assert!(r.via_wormhole);
                        outcomes.push(r.outcome);
                    }
                    assert!(
                        outcomes.windows(2).all(|w| w[0] == w[1]),
                        "verdict flipped within a pair: {outcomes:?}"
                    );
                    match outcomes[0] {
                        DetectionOutcome::IgnoredWormholeReplay => suppressed += 1,
                        DetectionOutcome::Alert => false_alerts += 1,
                        other => panic!("unexpected outcome {other:?}"),
                    }
                }
            }
        }
        let total = suppressed + false_alerts;
        assert!(total > 50, "need wormhole-connected pairs, got {total}");
        let miss_rate = false_alerts as f64 / total as f64;
        assert!(
            (miss_rate - 0.1).abs() < 0.06,
            "false-alert rate {miss_rate} should track 1-p_d=0.1 ({total} pairs)"
        );
    }

    #[test]
    fn out_of_range_probe_returns_none() {
        let d = deployment();
        let ctx = ProbeContext::new(&d, &Obs::disabled());
        let mut rng = StdRng::seed_from_u64(5);
        // Find a pair farther apart than range and not wormhole-connected.
        for u in 0..40u32 {
            for v in 0..40u32 {
                if u == v || d.kind(v) != NodeKind::BenignBeacon {
                    continue;
                }
                let dist = d.position(u).distance(d.position(v));
                let tunneled = d
                    .wormhole()
                    .map(|w| w.tunnels(d.position(v), d.position(u), 150.0))
                    .unwrap_or(false);
                if dist > 150.0 && !tunneled {
                    assert!(ctx.probe(u, NodeId(u), v, CLEAN, &mut rng).is_none());
                    return;
                }
            }
        }
        panic!("no out-of-range pair found");
    }

    #[test]
    fn skew_shifts_rtt_and_noise_widens_error() {
        let d = deployment();
        let ctx = ProbeContext::new(&d, &Obs::disabled());
        let skewed = ProbeFaults {
            noise_figure: 1.0,
            skew: Cycles::new(500),
        };
        let mut found = false;
        for u in d.beacons_of_kind(NodeKind::BenignBeacon) {
            for v in d.neighbors(u) {
                if d.kind(v) != NodeKind::BenignBeacon {
                    continue;
                }
                let mut rng_a = StdRng::seed_from_u64(8);
                let mut rng_b = StdRng::seed_from_u64(8);
                let plain = ctx.probe(u, NodeId(u), v, CLEAN, &mut rng_a).unwrap();
                let shifted = ctx.probe(u, NodeId(u), v, &skewed, &mut rng_b).unwrap();
                assert_eq!(
                    shifted.observation.rtt,
                    plain.observation.rtt + Cycles::new(500)
                );
                assert_eq!(
                    shifted.observation.measured_distance_ft,
                    plain.observation.measured_distance_ft
                );
                found = true;
            }
        }
        assert!(found);

        // Under a large noise figure, some benign direct measurement must
        // exceed the fault-free ε bound.
        let noisy = ProbeFaults {
            noise_figure: 5.0,
            skew: Cycles::ZERO,
        };
        let eps = d.config().max_ranging_error_ft;
        let mut rng = StdRng::seed_from_u64(9);
        let mut exceeded = false;
        for u in d.beacons_of_kind(NodeKind::BenignBeacon) {
            for v in d.neighbors(u) {
                if d.kind(v) != NodeKind::BenignBeacon {
                    continue;
                }
                let r = ctx.probe(u, NodeId(u), v, &noisy, &mut rng).unwrap();
                let true_d = d.position(u).distance(d.position(v));
                if (r.observation.measured_distance_ft - true_d).abs() > eps {
                    exceeded = true;
                }
            }
        }
        assert!(exceeded, "figure 5 should breach the fault-free bound");
    }

    #[test]
    fn probing_a_sensor_yields_nothing() {
        let d = deployment();
        let ctx = ProbeContext::new(&d, &Obs::disabled());
        let mut rng = StdRng::seed_from_u64(6);
        let sensor = d.sensors().next().unwrap();
        assert!(ctx.probe(0, NodeId(0), sensor, CLEAN, &mut rng).is_none());
    }
}
