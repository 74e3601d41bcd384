//! §2.3's generality claim, end to end: "the proposed techniques can be
//! used to provide security for any existing localization scheme based on
//! location references from beacon nodes" — including range-free schemes.
//!
//! Scenario: a network localizes with DV-hop (no distance measurement at
//! all). One anchor is compromised and floods a false location. The
//! distance-consistency detector — run by detecting beacons that *can*
//! range — still catches the lie, the base station revokes the anchor, and
//! DV-hop accuracy recovers once the revoked anchor's floods are ignored.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc::localization::dvhop::DvHop;
use secloc::prelude::*;
use secloc::radio::ranging::BoundedRanging;

#[test]
fn detection_and_revocation_protect_dvhop() {
    // --- The network. -------------------------------------------------
    let honest_anchor_positions = [
        Point2::new(50.0, 50.0),
        Point2::new(450.0, 60.0),
        Point2::new(250.0, 420.0),
        Point2::new(60.0, 300.0),
        Point2::new(420.0, 280.0),
    ];
    let liar_true = Point2::new(250.0, 150.0);
    let liar_declared = Point2::new(800.0, 800.0);
    let liar_id = NodeId(5);

    let mut anchors_true: Vec<Point2> = honest_anchor_positions.to_vec();
    anchors_true.push(liar_true);
    let mut anchors_declared: Vec<Point2> = honest_anchor_positions.to_vec();
    anchors_declared.push(liar_declared);

    // Sensors scattered across the field.
    let field = secloc::geometry::Field::square(500.0);
    let sensors = secloc::geometry::deploy::uniform(&field, 60, 77);

    let dv = DvHop::new(170.0);

    // --- Baseline vs attacked DV-hop accuracy. -------------------------
    let honest_estimates = dv.localize(&honest_anchor_positions, &sensors);
    let honest_err =
        DvHop::mean_error(&honest_estimates, &sensors).expect("dense network localizes");
    let attacked_estimates = dv.localize_with_declared(&anchors_true, &anchors_declared, &sensors);
    let attacked_err =
        DvHop::mean_error(&attacked_estimates, &sensors).expect("the attacked network localizes");
    assert!(
        attacked_err > honest_err * 2.0,
        "the lie should hurt: {honest_err:.1} -> {attacked_err:.1}"
    );

    // --- Detection: ranging-capable detecting beacons probe the liar. --
    // The honest anchors double as detecting nodes (the paper's beacons
    // with detecting IDs). They measure the distance to the liar's
    // true position and compare with its declared location.
    let pipeline = DetectionPipeline::paper_default();
    let ranging = BoundedRanging::new(10.0);
    let rtt = RttModel::paper_default();
    let mut rng = StdRng::seed_from_u64(3);
    let mut station = RevocationMachine::new(RevocationConfig::paper_default());

    for (i, &detector_pos) in honest_anchor_positions.iter().enumerate() {
        let true_distance = detector_pos.distance(liar_true);
        if true_distance > 300.0 {
            continue; // out of probing range for this test's radio
        }
        let obs = Observation {
            detector_position: detector_pos,
            declared_position: liar_declared,
            measured_distance_ft: ranging.measure(true_distance, &mut rng),
            rtt: rtt.sample(true_distance, Cycles::ZERO, &mut rng),
            wormhole_detector_fired: false,
        };
        if pipeline.evaluate(&obs).raises_alert() {
            station.decide(NodeId(i as u32), liar_id);
        }
    }
    assert!(
        station.is_revoked(liar_id),
        "the lying anchor must be revoked"
    );

    // --- Recovery: drop the revoked anchor from the flood set. ---------
    let recovered_estimates = dv.localize(&honest_anchor_positions, &sensors);
    let recovered_err = DvHop::mean_error(&recovered_estimates, &sensors).expect("still localizes");
    assert!(
        recovered_err < attacked_err / 2.0,
        "revocation should restore accuracy: attacked {attacked_err:.1}, recovered {recovered_err:.1}"
    );
    assert!((recovered_err - honest_err).abs() < 1e-9, "full recovery");
}
