//! The composed detection pipeline: §2.1 + §2.2 in the paper's order.

use crate::{LocalReplayVerdict, RttFilter, SignalDetector, WormholeFilter};
use secloc_geometry::Point2;
use secloc_radio::Cycles;

/// Everything a detecting node observes about one beacon exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The detecting node's own location.
    pub detector_position: Point2,
    /// The location declared in the received beacon packet.
    pub declared_position: Point2,
    /// The distance measured from the beacon signal, in feet.
    pub measured_distance_ft: f64,
    /// The measured round-trip time `(t4−t1)−(t3−t2)`.
    pub rtt: Cycles,
    /// Whether the node's wormhole detector flagged this exchange.
    pub wormhole_detector_fired: bool,
}

/// Final classification of one observed beacon signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionOutcome {
    /// Signal is consistent — usable for localization, no alert.
    Benign,
    /// Malicious-looking but attributed to a wormhole replay of a benign
    /// signal; ignored without an alert (false-positive avoidance).
    IgnoredWormholeReplay,
    /// Malicious-looking but the RTT shows a local replay; ignored without
    /// an alert.
    IgnoredLocalReplay,
    /// Malicious and fresh: report an alert against the target node.
    Alert,
}

impl DetectionOutcome {
    /// Whether a requesting *non-beacon* node would keep this signal for
    /// location estimation. (Non-beacons run the same filters; they keep
    /// only signals that are fresh — malicious ones they cannot recognise
    /// as such without the detector's vantage, so `Alert` here corresponds
    /// to "accepted and poisoned" at a non-beacon, which is exactly the
    /// paper's `P` event. See [`DetectionPipeline::evaluate_with_acceptance`].)
    pub fn raises_alert(self) -> bool {
        matches!(self, DetectionOutcome::Alert)
    }
}

/// The full §2 pipeline, run by a beacon node under a detecting ID.
///
/// Order mandated by the paper: consistency check first; only signals found
/// malicious go through the wormhole filter, and only those that survive it
/// go through the local-replay filter; whatever remains triggers an alert.
///
/// # Examples
///
/// ```
/// use secloc_core::{DetectionOutcome, DetectionPipeline, Observation};
/// use secloc_geometry::Point2;
/// use secloc_radio::Cycles;
///
/// let p = DetectionPipeline::paper_default();
/// let honest = Observation {
///     detector_position: Point2::new(0.0, 0.0),
///     declared_position: Point2::new(60.0, 80.0),
///     measured_distance_ft: 103.0,
///     rtt: Cycles::new(6_800),
///     wormhole_detector_fired: false,
/// };
/// assert_eq!(p.evaluate(&honest), DetectionOutcome::Benign);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionPipeline {
    signal: SignalDetector,
    wormhole: WormholeFilter,
    rtt: RttFilter,
}

impl DetectionPipeline {
    /// Composes a pipeline from its three stages.
    pub fn new(signal: SignalDetector, wormhole: WormholeFilter, rtt: RttFilter) -> Self {
        DetectionPipeline {
            signal,
            wormhole,
            rtt,
        }
    }

    /// The reconstructed paper configuration: ε = 10 ft, range = 150 ft,
    /// RTT threshold from the calibrated paper model.
    pub fn paper_default() -> Self {
        DetectionPipeline {
            signal: SignalDetector::new(10.0),
            wormhole: WormholeFilter::new(150.0),
            rtt: RttFilter::paper_default(),
        }
    }

    /// Classifies one observation, in the paper's stage order.
    pub fn evaluate(&self, obs: &Observation) -> DetectionOutcome {
        self.evaluate_with_acceptance(obs).0
    }

    /// Classifies one observation and says whether a requesting
    /// *non-beacon* node would keep the signal for location estimation.
    ///
    /// The verdict follows the paper's stage order: a consistent signal is
    /// benign; a malicious-looking one is ignored as a wormhole replay when
    /// the declared location is out of range and the wormhole detector
    /// fired, else as a local replay when its RTT is too slow, else it
    /// raises an alert. A non-beacon keeps a signal exactly when it is
    /// neither replay: a malicious-but-fresh signal *is* kept, since a
    /// non-beacon cannot tell it is being lied to — that asymmetry is why
    /// the paper's `P` both poisons sensors and exposes the attacker to
    /// detectors. Every stage is a pure function of the observation, and
    /// the detector-to-declared distance is computed once for both.
    pub fn evaluate_with_acceptance(&self, obs: &Observation) -> (DetectionOutcome, bool) {
        let calculated = obs.detector_position.distance(obs.declared_position);
        let wormhole_replay = calculated > self.wormhole.range() && obs.wormhole_detector_fired;
        let fresh = self.rtt.classify(obs.rtt) == LocalReplayVerdict::Fresh;
        // Same comparison direction as `SignalDetector::check` so that
        // non-finite measurements classify identically.
        let malicious = (obs.measured_distance_ft - calculated).abs() > self.signal.max_error();
        let outcome = if !malicious {
            DetectionOutcome::Benign
        } else if wormhole_replay {
            DetectionOutcome::IgnoredWormholeReplay
        } else if fresh {
            DetectionOutcome::Alert
        } else {
            DetectionOutcome::IgnoredLocalReplay
        };
        (outcome, !wormhole_replay && fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> DetectionPipeline {
        DetectionPipeline::paper_default()
    }

    /// The paper's stages composed one after another: the consistency
    /// check first, then the wormhole filter on malicious-looking signals,
    /// then the RTT filter on what survives it. A non-beacon runs the
    /// wormhole pre-check and the RTT filter on every signal.
    fn staged(p: &DetectionPipeline, obs: &Observation) -> (DetectionOutcome, bool) {
        use crate::{SignalVerdict, WormholeVerdict};
        let wormhole = p.wormhole.classify(
            obs.detector_position,
            obs.declared_position,
            obs.wormhole_detector_fired,
        );
        let rtt = p.rtt.classify(obs.rtt);
        let outcome = match p.signal.check(
            obs.detector_position,
            obs.declared_position,
            obs.measured_distance_ft,
        ) {
            SignalVerdict::Consistent => DetectionOutcome::Benign,
            SignalVerdict::Malicious => match wormhole {
                WormholeVerdict::WormholeReplay => DetectionOutcome::IgnoredWormholeReplay,
                WormholeVerdict::Proceed => match rtt {
                    LocalReplayVerdict::LocallyReplayed => DetectionOutcome::IgnoredLocalReplay,
                    LocalReplayVerdict::Fresh => DetectionOutcome::Alert,
                },
            },
        };
        let accepted =
            wormhole != WormholeVerdict::WormholeReplay && rtt == LocalReplayVerdict::Fresh;
        (outcome, accepted)
    }

    fn accepts(p: &DetectionPipeline, obs: &Observation) -> bool {
        p.evaluate_with_acceptance(obs).1
    }

    fn base_obs() -> Observation {
        Observation {
            detector_position: Point2::new(0.0, 0.0),
            declared_position: Point2::new(60.0, 80.0), // 100 ft away
            measured_distance_ft: 100.0,
            rtt: Cycles::new(6_800),
            wormhole_detector_fired: false,
        }
    }

    #[test]
    fn honest_signal_is_benign() {
        assert_eq!(pipeline().evaluate(&base_obs()), DetectionOutcome::Benign);
    }

    #[test]
    fn undisguised_malicious_signal_alerts() {
        let obs = Observation {
            measured_distance_ft: 100.0,
            declared_position: Point2::new(600.0, 800.0), // claims 1000 ft
            ..base_obs()
        };
        assert_eq!(pipeline().evaluate(&obs), DetectionOutcome::Alert);
    }

    #[test]
    fn wormhole_replay_suppressed() {
        // Benign beacon truthfully at (600,800), heard via wormhole: the
        // measured distance (to the wormhole exit nearby) is ~50 ft but the
        // declared location is ~1000 ft away => malicious-looking.
        let obs = Observation {
            declared_position: Point2::new(600.0, 800.0),
            measured_distance_ft: 50.0,
            wormhole_detector_fired: true,
            ..base_obs()
        };
        assert_eq!(
            pipeline().evaluate(&obs),
            DetectionOutcome::IgnoredWormholeReplay
        );
        // Wormhole detector misses (prob 1 - p_d): false alert — the
        // paper's only benign-on-benign alert path.
        let missed = Observation {
            wormhole_detector_fired: false,
            ..obs
        };
        assert_eq!(pipeline().evaluate(&missed), DetectionOutcome::Alert);
    }

    #[test]
    fn local_replay_suppressed() {
        // A neighbour's benign signal replayed by an attacker: consistent
        // declared location but distance now measured to the replayer, and
        // RTT one packet too slow.
        let obs = Observation {
            declared_position: Point2::new(60.0, 80.0),
            measured_distance_ft: 30.0, // looks wrong => malicious-looking
            rtt: Cycles::new(6_800 + 45 * 8 * 384),
            ..base_obs()
        };
        assert_eq!(
            pipeline().evaluate(&obs),
            DetectionOutcome::IgnoredLocalReplay
        );
    }

    #[test]
    fn malicious_target_faking_local_replay_is_not_alerted() {
        // §2.2.2's limitation: a malicious target can delay its own reply
        // to masquerade as a replay victim; the detector then stays silent
        // (but non-beacons also refuse the signal, so no damage is done).
        let p = pipeline();
        let obs = Observation {
            declared_position: Point2::new(600.0, 0.0),
            measured_distance_ft: 90.0,
            rtt: Cycles::new(20_000),
            ..base_obs()
        };
        assert_eq!(p.evaluate(&obs), DetectionOutcome::IgnoredLocalReplay);
        assert!(!accepts(&p, &obs), "sensors must refuse it too");
    }

    #[test]
    fn nonbeacon_keeps_fresh_signals_even_if_malicious() {
        let p = pipeline();
        let poisoned = Observation {
            declared_position: Point2::new(600.0, 800.0),
            measured_distance_ft: 100.0,
            ..base_obs()
        };
        // Alert for a detector...
        assert_eq!(p.evaluate(&poisoned), DetectionOutcome::Alert);
        // ...but a plain sensor accepts and is poisoned (the paper's P event,
        // wait for revocation to stop it).
        assert!(accepts(&p, &poisoned));
    }

    #[test]
    fn nonbeacon_discards_wormhole_and_replays() {
        let p = pipeline();
        let wormholed = Observation {
            declared_position: Point2::new(600.0, 800.0),
            measured_distance_ft: 50.0,
            wormhole_detector_fired: true,
            ..base_obs()
        };
        assert!(!accepts(&p, &wormholed));
        let replayed = Observation {
            rtt: Cycles::new(50_000),
            ..base_obs()
        };
        assert!(!accepts(&p, &replayed));
        assert!(accepts(&p, &base_obs()));
    }

    #[test]
    fn outcome_alert_flag() {
        assert!(DetectionOutcome::Alert.raises_alert());
        assert!(!DetectionOutcome::Benign.raises_alert());
        assert!(!DetectionOutcome::IgnoredWormholeReplay.raises_alert());
        assert!(!DetectionOutcome::IgnoredLocalReplay.raises_alert());
    }

    #[test]
    fn combined_evaluation_agrees_with_separate_methods() {
        // Every verdict class, both wormhole-detector states, boundary
        // RTTs and a non-finite measurement: the classifier must agree
        // with the staged composition on all of them.
        let p = pipeline();
        let positions = [
            Point2::new(60.0, 80.0),   // in range, consistent
            Point2::new(600.0, 800.0), // far: malicious-looking
            Point2::new(100.0, 0.0),   // in range, inconsistent distance
        ];
        let x_max = p.rtt.x_max().as_u64();
        for declared in positions {
            for measured in [100.0, 50.0, 1000.0, f64::NAN] {
                for fired in [false, true] {
                    for rtt in [
                        Cycles::new(6_800),
                        Cycles::new(x_max),
                        Cycles::new(x_max + 1),
                    ] {
                        let obs = Observation {
                            detector_position: Point2::new(0.0, 0.0),
                            declared_position: declared,
                            measured_distance_ft: measured,
                            rtt,
                            wormhole_detector_fired: fired,
                        };
                        assert_eq!(
                            p.evaluate_with_acceptance(&obs),
                            staged(&p, &obs),
                            "{obs:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_stages() {
        let p = pipeline();
        assert_eq!(p.signal.max_error(), 10.0);
        assert_eq!(p.wormhole.range(), 150.0);
        assert!(p.rtt.x_max().as_u64() >= 7656);
    }
}
