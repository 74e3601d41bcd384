//! Frame-level end-to-end test: the detection protocol running over the
//! radio medium, with a physical wormhole tap in the air — no statistical
//! shortcuts, every byte authenticated, every timestamp earned.

use secloc::core::DetectionOutcome;
use secloc::prelude::*;
use secloc::radio::ranging::BoundedRanging;
use secloc_oracle::{
    BeaconResponder, FrameBody, GeographicLeash, Key, LeashContext, Medium, PairwiseKeyStore,
    RequesterSession, Tap,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

const RANGE: f64 = 150.0;

/// Drives one full request/beacon/report exchange across the medium and
/// returns the pipeline outcome seen by the requester at `rq_idx`.
#[allow(clippy::too_many_arguments)]
fn exchange_over_medium(
    medium: &mut Medium,
    rq_idx: usize,
    rq_wire: NodeId,
    bc_idx: usize,
    bc_id: NodeId,
    keys: &PairwiseKeyStore,
    use_tap_copy: bool,
    tap_replay_point: Option<Point2>,
) -> Option<DetectionOutcome> {
    let mut rng = StdRng::seed_from_u64(42);
    let rtt_model = RttModel::paper_default();
    let ranging = BoundedRanging::new(10.0);
    let pipeline = DetectionPipeline::paper_default();

    let requester = RequesterSession::new(rq_wire, medium.position(rq_idx), keys.clone());
    let responder = BeaconResponder::new(bc_id, medium.position(bc_idx), keys.clone());

    // --- Request leg. ---
    let t1 = Cycles::new(1_000_000);
    let (request, pending) = requester.request(bc_id, t1);
    let deliveries = medium.transmit(rq_idx, &request, t1);
    let to_beacon = deliveries.iter().find(|d| d.receiver == bc_idx)?;
    let t2 = to_beacon.at;

    // --- Beacon reply leg (possibly via the tap). ---
    let turnaround = Cycles::new(30_000); // MAC queueing at the beacon
    let t3 = t2 + turnaround;
    let (beacon_frame, report_frame) = responder.respond(&request, t2, t3).ok()?;
    let reply_deliveries = medium.transmit(bc_idx, &beacon_frame, t3);
    let copy = reply_deliveries
        .iter()
        .find(|d| d.receiver == rq_idx && d.via_tap == use_tap_copy)?;

    // The radio measures the distance to the *apparent* source. For a
    // direct copy that is the beacon; for a tapped copy we measure to the
    // tap's replay point, which the test encodes via the true geometry.
    let apparent_source = if use_tap_copy {
        tap_replay_point.expect("tapped exchanges must state the replay point")
    } else {
        medium.position(bc_idx)
    };
    let true_apparent_distance = medium.position(rq_idx).distance(apparent_source);
    let measured = ranging.measure(true_apparent_distance, &mut rng);

    // Hardware RTT (the paper's d1..d4) rides on top of the medium's
    // airtime accounting; sample it from the calibrated model.
    let hw = rtt_model.sample(true_apparent_distance, Cycles::ZERO, &mut rng);

    // --- Timestamp report leg. ---
    let report_deliveries = medium.transmit(bc_idx, &report_frame, t3);
    let report_copy = report_deliveries
        .iter()
        .find(|d| d.receiver == rq_idx && d.via_tap == use_tap_copy)?;

    // Assemble the observation through the typestate machine. The RTT the
    // filter sees = hardware component + any extra store-and-forward the
    // tap added (visible as the tapped copy's extra arrival delay).
    let direct_arrival = reply_deliveries
        .iter()
        .find(|d| d.receiver == rq_idx && !d.via_tap)
        .map(|d| d.at);
    let tap_extra = match (use_tap_copy, direct_arrival) {
        (true, Some(direct)) => copy.at - direct,
        _ => Cycles::ZERO,
    };
    let received = pending
        .on_beacon(&copy.frame, t1 + hw + tap_extra + turnaround, measured)
        .ok()?;

    // Wormhole detector: a geographic leash over the *declared* location.
    let leash = GeographicLeash {
        range_ft: RANGE,
        slack_ft: 20.0,
    };
    let declared = match copy.frame.peek_body() {
        FrameBody::Beacon(b) => b.declared,
        _ => return None,
    };
    let wd_fired = leash.detects(&LeashContext {
        receiver_position: medium.position(rq_idx),
        sender_claimed_position: declared,
    });

    let observation = received
        .on_timestamp_report(&report_copy.frame, wd_fired)
        .ok()?;
    Some(pipeline.evaluate(&observation))
}

#[test]
fn honest_neighbours_over_the_air() {
    let keys = PairwiseKeyStore::new(Key::from_u128(0xaaa));
    let mut medium = Medium::new(
        vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)],
        RANGE,
        0.0,
        1,
    );
    let outcome = exchange_over_medium(
        &mut medium,
        0,
        NodeId(500),
        1,
        NodeId(1),
        &keys,
        false,
        None,
    )
    .expect("exchange completes");
    assert_eq!(outcome, DetectionOutcome::Benign);
}

#[test]
fn wormholed_beacon_signal_suppressed_by_leash() {
    // Beacon near (100,100); requester near (800,700); joined only by a
    // tap replaying the paper's wormhole path.
    let keys = PairwiseKeyStore::new(Key::from_u128(0xbbb));
    let mut medium = Medium::new(
        vec![Point2::new(810.0, 690.0), Point2::new(110.0, 105.0)],
        RANGE,
        0.0,
        2,
    );
    medium.add_tap(Tap {
        capture_at: Point2::new(100.0, 100.0),
        capture_range: RANGE,
        replay_from: Point2::new(800.0, 700.0),
        extra_delay: Cycles::ZERO,
    });
    // Also tap the reverse direction so the request reaches the beacon.
    medium.add_tap(Tap {
        capture_at: Point2::new(800.0, 700.0),
        capture_range: RANGE,
        replay_from: Point2::new(100.0, 100.0),
        extra_delay: Cycles::ZERO,
    });
    let outcome = exchange_over_medium(
        &mut medium,
        0,
        NodeId(500),
        1,
        NodeId(1),
        &keys,
        true,
        Some(Point2::new(800.0, 700.0)),
    )
    .expect("wormhole path completes");
    // The truthful-but-distant declared location plus the firing leash
    // classify this as a wormhole replay — no false alert.
    assert_eq!(outcome, DetectionOutcome::IgnoredWormholeReplay);
}

#[test]
fn out_of_range_without_tap_yields_nothing() {
    let keys = PairwiseKeyStore::new(Key::from_u128(0xccc));
    let mut medium = Medium::new(
        vec![Point2::new(0.0, 0.0), Point2::new(900.0, 0.0)],
        RANGE,
        0.0,
        3,
    );
    assert!(exchange_over_medium(
        &mut medium,
        0,
        NodeId(500),
        1,
        NodeId(1),
        &keys,
        false,
        None
    )
    .is_none());
}

#[test]
fn locally_replayed_copy_rejected_by_rtt() {
    // A replayer tap sits next to both nodes and re-injects the beacon's
    // reply one store-and-forward later; the requester that locks onto the
    // replayed copy must classify it as a local replay.
    let keys = PairwiseKeyStore::new(Key::from_u128(0xddd));
    let mut medium = Medium::new(
        vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)],
        RANGE,
        0.0,
        4,
    );
    medium.add_tap(Tap {
        capture_at: Point2::new(50.0, 0.0),
        capture_range: 80.0,
        replay_from: Point2::new(50.0, 10.0),
        extra_delay: Cycles::new(1_000),
    });
    // For this requester geometry the tapped copy replays from nearby, so
    // the declared location stays in leash range; detection must come from
    // the RTT margin instead.
    let outcome = exchange_over_medium(
        &mut medium,
        0,
        NodeId(500),
        1,
        NodeId(1),
        &keys,
        true,
        Some(Point2::new(50.0, 10.0)),
    );
    // The exchange completes over the replayed copy, whose measured
    // distance (to the replay point) disagrees with the declared location:
    // the signal is flagged malicious, and the RTT margin then ignores it
    // as a local replay instead of accusing the honest beacon.
    assert_eq!(outcome, Some(DetectionOutcome::IgnoredLocalReplay));
}
