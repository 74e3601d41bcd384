//! Property-based tests for the detection and revocation core.

use proptest::prelude::*;
use secloc_core::{
    AlertOutcome, DetectionOutcome, DetectionPipeline, Observation, RevocationConfig,
    RevocationMachine, SignalDetector, SignalVerdict,
};
use secloc_crypto::NodeId;
use secloc_geometry::Point2;
use secloc_radio::Cycles;

fn field_point() -> impl Strategy<Value = Point2> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point2::new(x, y))
}

/// IDs a machine may see: some inside a `with_nodes` machine's `0..16`
/// pre-sized tables, some past them.
const IDS: u32 = 24;

/// An accusation stream over [`IDS`], self-accusations included.
fn accusations() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..IDS, 0..IDS), 0..150)
}

fn thresholds() -> impl Strategy<Value = RevocationConfig> {
    (0u32..5, 0u32..5).prop_map(|(tau, tau_prime)| RevocationConfig { tau, tau_prime })
}

/// Feeds `stream` to `machine` and returns the verdicts in order.
fn decide_all(machine: &mut RevocationMachine, stream: &[(u32, u32)]) -> Vec<AlertOutcome> {
    stream
        .iter()
        .map(|&(r, t)| machine.decide(NodeId(r), NodeId(t)))
        .collect()
}

/// Asserts that everything a caller can read of two machines agrees.
fn assert_same_machine(a: &RevocationMachine, b: &RevocationMachine) {
    assert_eq!(a, b);
    assert_eq!(a.to_wire(), b.to_wire());
    assert_eq!(a.config(), b.config());
    assert_eq!(a.revoked_nodes(), b.revoked_nodes());
    for id in (0..IDS + 2).map(NodeId) {
        assert_eq!(a.is_revoked(id), b.is_revoked(id), "{id:?}");
        assert_eq!(a.suspiciousness(id), b.suspiciousness(id), "{id:?}");
        assert_eq!(a.reports_spent(id), b.reports_spent(id), "{id:?}");
    }
}

proptest! {
    #[test]
    fn honest_observations_never_alert(
        detector in field_point(),
        beacon in field_point(),
        noise in -10.0..10.0f64,
        rtt in 5_950u64..7_656,
    ) {
        // A truthful beacon within the error bound is benign regardless of
        // the wormhole detector's (possibly spurious) verdict.
        let p = DetectionPipeline::paper_default();
        let obs = Observation {
            detector_position: detector,
            declared_position: beacon,
            measured_distance_ft: (detector.distance(beacon) + noise).max(0.0),
            rtt: Cycles::new(rtt),
            wormhole_detector_fired: false,
        };
        // Clipping at zero only shrinks the discrepancy.
        prop_assert_eq!(p.evaluate(&obs), DetectionOutcome::Benign);
    }

    #[test]
    fn large_lies_never_classified_benign(
        detector in field_point(),
        true_pos in field_point(),
        noise in -10.0..10.0f64,
        lie_dx in 50.0..500.0f64,
        rtt in 5_000u64..20_000,
        wd in any::<bool>(),
    ) {
        // Declared location displaced by more than 2*eps along the
        // detector->beacon axis: the consistency check must fire.
        let p = DetectionPipeline::paper_default();
        let axis = true_pos - detector;
        let dir = if axis.norm() > f64::EPSILON {
            axis / axis.norm()
        } else {
            secloc_geometry::Vector2::new(1.0, 0.0)
        };
        let declared = true_pos + dir * lie_dx;
        let obs = Observation {
            detector_position: detector,
            declared_position: declared,
            measured_distance_ft: (detector.distance(true_pos) + noise).max(0.0),
            rtt: Cycles::new(rtt),
            wormhole_detector_fired: wd,
        };
        prop_assert_ne!(p.evaluate(&obs), DetectionOutcome::Benign);
    }

    #[test]
    fn signal_detector_symmetric_in_error_sign(
        detector in field_point(),
        declared in field_point(),
        err in 0.0..100.0f64,
    ) {
        let det = SignalDetector::new(10.0);
        let d = detector.distance(declared);
        let over = det.check(detector, declared, d + err);
        let under = det.check(detector, declared, (d - err).max(0.0));
        if d - err >= 0.0 {
            prop_assert_eq!(over, under);
        }
        prop_assert_eq!(over == SignalVerdict::Malicious, err > 10.0);
    }

    #[test]
    fn base_station_budget_and_threshold_invariants(
        tau in 0u32..6,
        tau_prime in 0u32..6,
        alerts in proptest::collection::vec((0u32..20, 20u32..40), 0..200),
    ) {
        let mut bs = RevocationMachine::new(RevocationConfig { tau, tau_prime });
        let mut accepted = 0usize;
        for (r, t) in alerts {
            if bs.decide(NodeId(r), NodeId(t)).accepted() {
                accepted += 1;
            }
        }
        // Each reporter's accepted alerts never exceed tau + 1.
        for r in 0..20 {
            prop_assert!(bs.reports_spent(NodeId(r)) <= tau + 1);
        }
        // Revoked targets have suspiciousness exactly tau' + 1 (counting
        // stops at revocation); live targets are at or below tau'.
        for t in 20..40 {
            let s = bs.suspiciousness(NodeId(t));
            if bs.is_revoked(NodeId(t)) {
                prop_assert_eq!(s, tau_prime + 1);
            } else {
                prop_assert!(s <= tau_prime);
            }
        }
        // Conservation: accepted alerts == total suspiciousness.
        let total: u32 = (20..40).map(|t| bs.suspiciousness(NodeId(t))).sum();
        prop_assert_eq!(total as usize, accepted);
        let spent: u32 = (0..20).map(|r| bs.reports_spent(NodeId(r))).sum();
        prop_assert_eq!(spent as usize, accepted);
        // Revocations cost tau' + 1 alerts each.
        prop_assert!(bs.revoked_nodes().len() <= accepted / (tau_prime as usize + 1));
    }

    #[test]
    fn collusion_cannot_exceed_paper_bound(
        tau in 0u32..5,
        tau_prime in 0u32..5,
        n_colluders in 1usize..12,
    ) {
        use secloc_attack::CollusionPolicy;
        let cfg = RevocationConfig { tau, tau_prime };
        let policy = CollusionPolicy::new(tau, tau_prime);
        let colluders: Vec<NodeId> = (0..n_colluders as u32).map(NodeId).collect();
        let victims: Vec<NodeId> = (100..400).map(NodeId).collect();
        let mut bs = RevocationMachine::new(cfg);
        for (r, t) in policy.alerts(&colluders, &victims) {
            bs.decide(r, t);
        }
        let bound = policy.expected_revocations(n_colluders);
        prop_assert!(
            bs.revoked_nodes().len() <= bound,
            "revoked {} > bound {}", bs.revoked_nodes().len(), bound
        );
        // The concentrated strategy achieves the bound exactly when enough
        // victims exist.
        prop_assert_eq!(bs.revoked_nodes().len(), bound.min(victims.len()));
    }

    #[test]
    fn a_reset_machine_is_a_fresh_machine(
        first_cfg in thresholds(),
        first in accusations(),
        cfg in thresholds(),
        second in accusations(),
        nodes in 0usize..16,
    ) {
        // A machine that already arbitrated one stream, from either
        // constructor, reset to new thresholds...
        let mut grown = RevocationMachine::new(first_cfg);
        let mut sized = RevocationMachine::with_nodes(first_cfg, nodes);
        decide_all(&mut grown, &first);
        decide_all(&mut sized, &first);
        grown.reset(cfg);
        sized.reset(cfg);
        // ...decides a second stream as a fresh machine does.
        let mut fresh = RevocationMachine::new(cfg);
        assert_same_machine(&grown, &fresh);
        assert_same_machine(&sized, &fresh);
        let want = decide_all(&mut fresh, &second);
        prop_assert_eq!(&decide_all(&mut grown, &second), &want);
        prop_assert_eq!(&decide_all(&mut sized, &second), &want);
        assert_same_machine(&grown, &fresh);
        assert_same_machine(&sized, &fresh);
    }

    #[test]
    fn a_machine_with_nodes_is_a_fresh_machine(
        cfg in thresholds(),
        stream in accusations(),
        nodes in 0usize..16,
    ) {
        let mut sized = RevocationMachine::with_nodes(cfg, nodes);
        let mut fresh = RevocationMachine::new(cfg);
        assert_same_machine(&sized, &fresh);
        prop_assert_eq!(decide_all(&mut sized, &stream), decide_all(&mut fresh, &stream));
        assert_same_machine(&sized, &fresh);
        let resumed = RevocationMachine::from_wire(&sized.to_wire()).expect("rv1 round trip");
        assert_same_machine(&resumed, &fresh);
    }
}
