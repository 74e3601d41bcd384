//! Compromised beacon nodes and their attack strategy.

use secloc_crypto::{prf, NodeId};
use secloc_geometry::{Point2, Vector2};

/// What a compromised beacon does for one particular requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send a normal, correct beacon signal (no attack, no evidence).
    Normal,
    /// Send an undisguised malicious signal: accepted by non-beacon
    /// requesters (location poisoned), detected by detecting nodes.
    MaliciousSignal,
}

/// The per-requester behaviour mix of a compromised beacon (§2.3).
///
/// The paper parameterises the attacker by three fractions: `p_n` of
/// requesters get a normal signal, `p_w` of the rest are convinced the
/// signal is a wormhole replay, and `p_l` of what remains are convinced it
/// is a local replay. Detectors and sensors alike discard a disguised
/// signal, so, like a normal one, it neither raises an alert nor poisons a
/// sensor: the paper's analysis depends only on the probability a
/// requester both *receives* a malicious signal and *keeps* it,
/// `P = (1 − p_n)(1 − p_w)(1 − p_l)` — the x-axis of Figs. 5–9, 12, 13. A
/// strategy is therefore that one probability, and the disguises are not
/// modelled (`DESIGN.md` §2, Substitutions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconStrategy {
    /// Fraction of requesters answered honestly, `1 − P`.
    p_normal: f64,
}

impl BeaconStrategy {
    /// An always-attacking strategy (`P = 1`).
    pub fn always_malicious() -> Self {
        BeaconStrategy { p_normal: 0.0 }
    }

    /// A strategy with acceptance probability `p`: each requester gets an
    /// undisguised malicious signal with probability `p` and a normal one
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics unless `p` lies in `[0, 1]`.
    pub fn with_acceptance(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "P must be in [0,1], got {p}");
        BeaconStrategy { p_normal: 1.0 - p }
    }

    /// The acceptance probability `P` — the chance a requester receives a
    /// malicious beacon signal that survives the replay filters.
    pub fn acceptance_probability(&self) -> f64 {
        1.0 - self.p_normal
    }
}

/// A compromised beacon node: valid keys, false words.
///
/// `lie_offset` is the displacement between the beacon's true position and
/// the location it declares in malicious signals; the declared location is
/// `true_position + lie_offset`. The detector's consistency check fires
/// when the measured distance (to the true position) and the calculated
/// distance (to the declared one) disagree by more than the ranging error
/// bound, which for almost all requester positions happens whenever
/// `|lie_offset|` comfortably exceeds `2ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompromisedBeacon {
    id: NodeId,
    true_position: Point2,
    lie_offset: Vector2,
    strategy: BeaconStrategy,
    seed: u64,
}

impl CompromisedBeacon {
    /// Creates a compromised beacon.
    ///
    /// `seed` fixes the deterministic requester→action map so simulations
    /// are reproducible.
    pub fn new(
        id: NodeId,
        true_position: Point2,
        lie_offset: Vector2,
        strategy: BeaconStrategy,
        seed: u64,
    ) -> Self {
        CompromisedBeacon {
            id,
            true_position,
            lie_offset,
            strategy,
            seed,
        }
    }

    /// The beacon's network identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Where the node physically is.
    pub fn true_position(&self) -> Point2 {
        self.true_position
    }

    /// The location declared in malicious beacon packets.
    pub fn declared_position(&self) -> Point2 {
        self.true_position + self.lie_offset
    }

    /// The action taken for `requester` — deterministic per requester
    /// (§2.3's best-evasion assumption), uniform across requesters in the
    /// strategy's proportions.
    pub fn decide(&self, requester: NodeId) -> Action {
        // One uniform draw from a keyed PRF of the pair.
        let tag = prf::prf64((self.seed, self.id.0 as u64), &requester.0.to_le_bytes());
        let u = (tag >> 32) as f64 / u32::MAX as f64;
        if u < self.strategy.p_normal {
            Action::Normal
        } else {
            Action::MaliciousSignal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(strategy: BeaconStrategy) -> CompromisedBeacon {
        CompromisedBeacon::new(
            NodeId(7),
            Point2::new(100.0, 100.0),
            Vector2::new(300.0, -50.0),
            strategy,
            42,
        )
    }

    #[test]
    fn zero_acceptance_always_normal() {
        let b = beacon(BeaconStrategy::with_acceptance(0.0));
        for r in 0..200 {
            assert_eq!(b.decide(NodeId(r)), Action::Normal);
        }
    }

    #[test]
    fn always_malicious_never_hides() {
        let b = beacon(BeaconStrategy::always_malicious());
        for r in 0..200 {
            assert_eq!(b.decide(NodeId(r)), Action::MaliciousSignal);
        }
    }

    #[test]
    fn decisions_deterministic_per_requester() {
        let b = beacon(BeaconStrategy::with_acceptance(0.5));
        for r in 0..100 {
            assert_eq!(b.decide(NodeId(r)), b.decide(NodeId(r)));
        }
    }

    #[test]
    fn different_seeds_give_different_maps() {
        let s = BeaconStrategy::with_acceptance(0.5);
        let b1 = CompromisedBeacon::new(NodeId(7), Point2::ORIGIN, Vector2::ZERO, s, 1);
        let b2 = CompromisedBeacon::new(NodeId(7), Point2::ORIGIN, Vector2::ZERO, s, 2);
        let diff = (0..500)
            .filter(|&r| b1.decide(NodeId(r)) != b2.decide(NodeId(r)))
            .count();
        assert!(diff > 100, "maps identical across seeds: {diff} differ");
    }

    #[test]
    fn empirical_fractions_match_strategy() {
        let s = BeaconStrategy::with_acceptance(0.35);
        let b = beacon(s);
        let n = 20_000u32;
        let malicious = (0..n)
            .filter(|&r| b.decide(NodeId(r)) == Action::MaliciousSignal)
            .count();
        let f = malicious as f64 / n as f64;
        let p = s.acceptance_probability();
        assert!((f - p).abs() < 0.02, "malicious {f} vs P {p}");
    }

    #[test]
    fn acceptance_probability_formula() {
        assert_eq!(
            BeaconStrategy::with_acceptance(0.0).acceptance_probability(),
            0.0
        );
        assert_eq!(
            BeaconStrategy::always_malicious().acceptance_probability(),
            1.0
        );
        let w = BeaconStrategy::with_acceptance(0.35);
        assert!((w.acceptance_probability() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn declared_position_applies_offset() {
        let b = beacon(BeaconStrategy::always_malicious());
        assert_eq!(b.declared_position(), Point2::new(400.0, 50.0));
        assert_eq!(b.true_position(), Point2::new(100.0, 100.0));
        assert_eq!(b.id(), NodeId(7));
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_fraction_rejected() {
        BeaconStrategy::with_acceptance(1.5);
    }
}
