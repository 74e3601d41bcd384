//! Quickstart: detect a malicious beacon signal, filter replays, revoke the
//! attacker — the paper's whole pipeline on a handful of hand-built
//! observations, then one full simulated network.
//!
//! Run with: `cargo run --example quickstart`

use secloc::prelude::*;

fn main() {
    // ---------------------------------------------------------------
    // 1. The §2.1 detector: one observation at a time.
    // ---------------------------------------------------------------
    let pipeline = DetectionPipeline::paper_default();

    // A detecting node at (100, 100) — a beacon posing as a plain sensor
    // under one of its detecting IDs — asks a nearby beacon for a signal.
    let detector_position = Point2::new(100.0, 100.0);

    // Honest reply: the beacon is 100 ft away at (200, 100) and says so.
    let honest = Observation {
        detector_position,
        declared_position: Point2::new(200.0, 100.0),
        measured_distance_ft: 104.2, // ranging error within the 10 ft bound
        rtt: Cycles::new(6_600),
        wormhole_detector_fired: false,
    };
    println!("honest beacon     -> {:?}", pipeline.evaluate(&honest));

    // Lying reply: same physics, but the packet claims (600, 500).
    let lying = Observation {
        declared_position: Point2::new(600.0, 500.0),
        ..honest
    };
    println!("lying beacon      -> {:?}", pipeline.evaluate(&lying));

    // Wormhole replay of a distant benign beacon: looks malicious, but the
    // wormhole detector fired, so no alert — false positive avoided.
    let wormholed = Observation {
        declared_position: Point2::new(800.0, 700.0),
        measured_distance_ft: 40.0,
        wormhole_detector_fired: true,
        ..honest
    };
    println!("wormhole replay   -> {:?}", pipeline.evaluate(&wormholed));

    // Local replay: a neighbour's signal re-sent by an attacker arrives a
    // whole packet late; the RTT filter catches it.
    let replayed = Observation {
        measured_distance_ft: 55.0,
        rtt: Cycles::new(6_600 + 45 * 8 * 384), // one 45-byte packet later
        ..honest
    };
    println!("local replay      -> {:?}", pipeline.evaluate(&replayed));

    // ---------------------------------------------------------------
    // 2. The §3 revocation scheme.
    // ---------------------------------------------------------------
    let mut station = RevocationMachine::new(RevocationConfig::paper_default());
    println!("\nbase station thresholds: {:?}", station.config());
    for detector in [11, 12, 13] {
        let outcome = station.decide(NodeId(detector), NodeId(7));
        println!("alert n{detector} -> n7: {outcome:?}");
    }
    println!("n7 revoked: {}", station.is_revoked(NodeId(7)));

    // ---------------------------------------------------------------
    // 3. The §4 experiment, end to end.
    // ---------------------------------------------------------------
    let config = SimConfig::paper_default();
    println!(
        "\nsimulating {} nodes / {} beacons / {} malicious (P = {}) ...",
        config.nodes, config.beacons, config.malicious, config.attacker_p
    );
    let runner = Runner::new(config, 2005);
    let outcome = runner.run(RunOptions::new()).outcome;
    println!("detection rate        : {:.2}", outcome.detection_rate());
    println!(
        "false positive rate   : {:.3}",
        outcome.false_positive_rate()
    );
    println!(
        "affected sensors (N') : {:.2} per malicious beacon",
        outcome.affected_after
    );
    println!("benign alerts         : {}", outcome.benign_alerts);
    println!("collusion alerts      : {}", outcome.collusion_alerts);
    if let (Some(before), Some(after)) = (
        outcome.mean_loc_error_before_ft,
        outcome.mean_loc_error_after_ft,
    ) {
        println!("localization error    : {before:.2} ft -> {after:.2} ft after revocation");
    }

    // ---------------------------------------------------------------
    // 4. The same network under degraded conditions: a fault plan.
    // ---------------------------------------------------------------
    let faulted = SimConfig {
        faults: FaultPlan::default()
            .with_burst_loss(BurstLossSpec::mild())
            .with_clock_drift(500)
            .with_churn(ChurnSpec::random(0.1, 0.4)),
        ..runner.deployment().config().clone()
    };
    let degraded = Runner::new(faulted, 2005).run(RunOptions::new()).outcome;
    println!(
        "\nunder mild faults     : detection {:.2} (clean {:.2})",
        degraded.detection_rate(),
        outcome.detection_rate()
    );
}
