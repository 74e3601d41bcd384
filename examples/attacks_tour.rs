//! A tour of the attacks of the paper's Figure 1 — and of the defences that
//! stop each one.
//!
//! Run with: `cargo run --example attacks_tour`

use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc::core::{LocalReplayVerdict, RttFilter};
use secloc::localization::{CentroidEstimator, Estimator, LocationReference, MmseEstimator};
use secloc::prelude::*;
use secloc::radio::timing::RttModel;
use secloc_oracle::{
    BeaconPayload, Frame, FrameBody, Key, LocalReplayer, Masquerader, PairwiseKeyStore,
};

fn main() {
    masquerade_attack();
    compromised_beacon_attack();
    wormhole_attack();
    local_replay_attack();
}

/// Fig. 1a: an outsider pretends to be beacon n3 — defeated by packet MACs.
fn masquerade_attack() {
    println!("== masquerade attack (Fig. 1a) ==");
    let keys = PairwiseKeyStore::new(Key::from_u128(0xdeadbeef));
    let victim = NodeId(500);
    let attacker = Masquerader::new(NodeId(3), Point2::new(10.0, 10.0), Key::from_u128(0xbad));
    let forged = attacker.forge_beacon(victim);
    let verdict = forged.open(victim, &keys.pairwise(NodeId(3), victim));
    println!("victim opens forged beacon: {verdict:?}");
    assert!(verdict.is_err());
    println!("-> rejected by MAC verification; outsiders need no further defence\n");
}

/// Fig. 1b: an insider beacon with valid keys lies about its location —
/// this is what the detection suite exists for.
fn compromised_beacon_attack() {
    println!("== compromised beacon attack (Fig. 1b) ==");
    let truth = Point2::new(120.0, 80.0);
    // Three honest beacons and one liar feeding a sensor's estimator.
    let mut refs: Vec<LocationReference> = [(0.0, 0.0), (250.0, 0.0), (0.0, 250.0)]
        .iter()
        .map(|&(x, y)| {
            let a = Point2::new(x, y);
            LocationReference::new(a, a.distance(truth))
        })
        .collect();
    let honest_estimate = MmseEstimator::default().estimate(&refs).unwrap();
    refs.push(LocationReference::new(Point2::new(600.0, 600.0), 50.0));
    let attacked_estimate = MmseEstimator::default().estimate(&refs).unwrap();
    println!("true position    : {truth}");
    println!(
        "honest estimate  : {} (residual {:.2})",
        honest_estimate.position, honest_estimate.residual_rms
    );
    println!(
        "attacked estimate: {} (residual {:.2})",
        attacked_estimate.position, attacked_estimate.residual_rms
    );
    println!("centroid is even softer: {}", {
        let c = CentroidEstimator::default().estimate(&refs).unwrap();
        c.position
    });

    // The detector's view of the same lie:
    let detector = SignalDetector::new(10.0);
    let verdict = detector.check(truth, Point2::new(600.0, 600.0), 50.0);
    println!("detector verdict on the lying signal: {verdict:?}\n");
}

/// Fig. 1c: a wormhole replays a distant benign beacon — geographic check
/// plus wormhole detector suppress the false accusation.
fn wormhole_attack() {
    println!("== wormhole replay (Fig. 1c / §2.2.1) ==");
    let wormhole = Wormhole::paper_default();
    println!(
        "wormhole spans {:.0} ft between {} and {}",
        wormhole.span(),
        wormhole.end_a(),
        wormhole.end_b()
    );
    let detector_pos = Point2::new(820.0, 680.0); // near end B
    let victim_beacon = Point2::new(90.0, 120.0); // near end A, truthful
    let exit = wormhole.exit_for(victim_beacon, 150.0).expect("captured");
    println!("signal re-enters the air at {exit}");

    let filter = WormholeFilter::new(150.0);
    let verdict = filter.classify(detector_pos, victim_beacon, true);
    println!("wormhole filter verdict (detector fired): {verdict:?}");
    let missed = filter.classify(detector_pos, victim_beacon, false);
    println!("... and when the wormhole detector misses (prob 1-p_d): {missed:?}");
    println!("-> the miss case is the paper's only benign-vs-benign false-alert path\n");
}

/// §2.2.2: an attacker replays a neighbour's beacon signal; the RTT filter
/// sees the extra store-and-forward delay.
fn local_replay_attack() {
    println!("== local replay (§2.2.2) ==");
    let model = RttModel::paper_default();
    let filter = RttFilter::paper_default();
    let mut rng = StdRng::seed_from_u64(7);

    let honest_rtt = model.sample(80.0, Cycles::ZERO, &mut rng);
    println!(
        "honest RTT   : {honest_rtt} -> {:?}",
        filter.classify(honest_rtt)
    );

    let frame = Frame::seal(
        NodeId(1),
        NodeId(2),
        FrameBody::Beacon(BeaconPayload {
            beacon: NodeId(1),
            declared: Point2::new(50.0, 50.0),
        }),
        &Key::from_u128(1),
    );
    let replayer = LocalReplayer::new(Point2::new(60.0, 60.0), Cycles::new(500));
    let delay = replayer.replay_delay(&frame);
    let replayed_rtt = model.sample(80.0, delay, &mut rng);
    println!(
        "replayed RTT : {replayed_rtt} ({} bit-times late) -> {:?}",
        delay.as_bits(),
        filter.classify(replayed_rtt)
    );
    assert_eq!(
        filter.classify(replayed_rtt),
        LocalReplayVerdict::LocallyReplayed
    );
    println!("-> any whole-packet replay exceeds the ~4.5-bit margin and is caught");
}
