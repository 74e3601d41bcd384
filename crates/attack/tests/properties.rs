//! Property-based tests for the attacker models.

use proptest::prelude::*;
use secloc_attack::{Action, BeaconStrategy, CollusionPolicy, CompromisedBeacon, Wormhole};
use secloc_crypto::{prf, NodeId};
use secloc_geometry::{Point2, Vector2};
use secloc_radio::Cycles;

/// A copy of `CompromisedBeacon::decide` as it stood while the strategy
/// still carried the disguise fractions: two keyed draws, here for a
/// `with_acceptance(p)` strategy (`p_n = 1 − p`, `p_w = p_l = 0`). It
/// returns that version's four-way action.
fn two_draw_decide(seed: u64, id: NodeId, requester: NodeId, p: f64) -> OldAction {
    let (p_normal, p_fake_wormhole, p_fake_local) = (1.0 - p, 0.0, 0.0);
    let tag = prf::prf64((seed, id.0 as u64), &requester.0.to_le_bytes());
    let u1 = (tag >> 32) as f64 / u32::MAX as f64;
    let u2 = (tag & 0xffff_ffff) as f64 / u32::MAX as f64;
    let tag2 = prf::prf64(
        (seed ^ 0x5a5a_5a5a, id.0 as u64),
        &requester.0.to_le_bytes(),
    );
    let u3 = (tag2 >> 32) as f64 / u32::MAX as f64;
    if u1 < p_normal {
        OldAction::Normal
    } else if u2 < p_fake_wormhole {
        OldAction::FakeWormhole
    } else if u3 < p_fake_local {
        OldAction::FakeLocalReplay
    } else {
        OldAction::MaliciousSignal
    }
}

/// `Action` as it stood with the disguises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OldAction {
    Normal,
    FakeWormhole,
    FakeLocalReplay,
    MaliciousSignal,
}

/// Acceptance probabilities with both ends drawn often.
fn acceptance() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0..=1.0f64).prop_map(|(end, p)| match end {
        0 => 0.0,
        1 => 1.0,
        _ => p,
    })
}

proptest! {
    #[test]
    fn acceptance_probability_is_p(p in acceptance()) {
        let s = BeaconStrategy::with_acceptance(p);
        prop_assert!((s.acceptance_probability() - p).abs() < 1e-12);
    }

    #[test]
    fn decisions_match_the_two_draw_decide(
        seed in any::<u64>(),
        id in any::<u32>(),
        p in acceptance(),
        requesters in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let b = CompromisedBeacon::new(
            NodeId(id),
            Point2::ORIGIN,
            Vector2::new(300.0, 0.0),
            BeaconStrategy::with_acceptance(p),
            seed,
        );
        for r in requesters {
            let want = two_draw_decide(seed, NodeId(id), NodeId(r), p);
            let got = match b.decide(NodeId(r)) {
                Action::Normal => OldAction::Normal,
                Action::MaliciousSignal => OldAction::MaliciousSignal,
            };
            prop_assert_eq!(got, want, "seed {} id {} requester {} P {}", seed, id, r, p);
        }
    }

    #[test]
    fn decisions_deterministic_and_seed_sensitive(
        seed in any::<u64>(),
        p in 0.05..0.95f64,
        requester in any::<u32>(),
    ) {
        let b = CompromisedBeacon::new(
            NodeId(1),
            Point2::new(10.0, 10.0),
            Vector2::new(300.0, 0.0),
            BeaconStrategy::with_acceptance(p),
            seed,
        );
        prop_assert_eq!(b.decide(NodeId(requester)), b.decide(NodeId(requester)));
    }

    #[test]
    fn empirical_acceptance_tracks_p(seed in any::<u64>(), p in 0.0..1.0f64) {
        let b = CompromisedBeacon::new(
            NodeId(1),
            Point2::ORIGIN,
            Vector2::new(300.0, 0.0),
            BeaconStrategy::with_acceptance(p),
            seed,
        );
        let n = 3000u32;
        let malicious = (0..n)
            .filter(|&r| b.decide(NodeId(r)) == Action::MaliciousSignal)
            .count();
        let rate = malicious as f64 / n as f64;
        prop_assert!((rate - p).abs() < 0.05, "P={p}, measured {rate}");
    }

    #[test]
    fn wormhole_tunneling_symmetric(
        ax in 0.0..1000.0f64, ay in 0.0..1000.0f64,
        bx in 0.0..1000.0f64, by in 0.0..1000.0f64,
        sx in 0.0..1000.0f64, sy in 0.0..1000.0f64,
        dx in 0.0..1000.0f64, dy in 0.0..1000.0f64,
        range in 50.0..300.0f64,
    ) {
        let w = Wormhole::new(Point2::new(ax, ay), Point2::new(bx, by), Cycles::ZERO);
        let s = Point2::new(sx, sy);
        let d = Point2::new(dx, dy);
        // The tunnel is symmetric except when a node sits in capture range
        // of BOTH ends (exit_for then picks one end deterministically).
        let near_both = |p: Point2| {
            p.distance(w.end_a()) <= range && p.distance(w.end_b()) <= range
        };
        if !near_both(s) && !near_both(d) {
            prop_assert_eq!(w.tunnels(s, d, range), w.tunnels(d, s, range));
        }
        // Tunneling implies the source is captured by some end.
        if w.tunnels(s, d, range) {
            prop_assert!(w.exit_for(s, range).is_some());
        }
    }

    #[test]
    fn collusion_alert_stream_respects_budgets(
        tau in 0u32..6,
        tau_prime in 0u32..6,
        n_colluders in 1usize..16,
        n_victims in 1usize..128,
    ) {
        let policy = CollusionPolicy::new(tau, tau_prime);
        let colluders: Vec<NodeId> = (0..n_colluders as u32).map(NodeId).collect();
        let victims: Vec<NodeId> = (1000..1000 + n_victims as u32).map(NodeId).collect();
        let alerts = policy.alerts(&colluders, &victims);
        // Budget per reporter.
        for c in &colluders {
            let used = alerts.iter().filter(|(r, _)| r == c).count();
            prop_assert!(used <= policy.budget_per_reporter() as usize);
        }
        // Nobody accuses a colluder, nobody self-accuses.
        for (r, t) in &alerts {
            prop_assert!(colluders.contains(r));
            prop_assert!(victims.contains(t));
            prop_assert!(r != t);
        }
        // Fully-hit victims never exceed the expected revocation bound.
        let fully = victims
            .iter()
            .filter(|v| {
                alerts.iter().filter(|(_, t)| t == *v).count()
                    >= policy.cost_per_revocation() as usize
            })
            .count();
        prop_assert!(fully <= policy.expected_revocations(n_colluders));
    }
}
