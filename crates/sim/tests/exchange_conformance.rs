//! Exchange conformance: the simulator's one-call exchange against the
//! frame-level exchange of Fig. 3.
//!
//! `ProbeContext::probe` produces a requester's `Observation` in one
//! call. `secloc-oracle` holds the same exchange as MAC'd frames between
//! two typestate machines: the requester sends a Request at `t1`, the
//! beacon answers with a Beacon frame and a TimestampReport carrying its
//! turnaround `t3 − t2`, and the requester assembles
//! `RTT = (t4 − t1) − (t3 − t2)`. Every probe of seeded paper runs is
//! replayed through those machines here, and the assembled observation
//! must equal the probe's bit for bit, with the same verdict.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_attack::Action;
use secloc_core::{DetectionOutcome, Observation};
use secloc_crypto::NodeId;
use secloc_obs::Obs;
use secloc_oracle::{BeaconResponder, Key, PairwiseKeyStore, RequesterSession};
use secloc_radio::Cycles;
use secloc_sim::{Deployment, NodeKind, ProbeContext, ProbeFaults, ProbeResult, SimConfig};

/// Beacon-side turnarounds `t3 − t2`: a MAC queueing delay and one far
/// longer than any RTT, so a formula that forgets to subtract it cannot
/// pass.
const TURNAROUNDS: [Cycles; 2] = [Cycles::new(30_000), Cycles::new(1 << 40)];

/// A requester degraded by both fault channels: ranging noise and clock
/// skew.
const DEGRADED: ProbeFaults = ProbeFaults {
    noise_figure: 1.5,
    skew: Cycles::new(800),
};

/// What the replays exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Replies of malicious targets, by action.
    actions: [usize; 2],
    /// Benign replies heard directly.
    benign_direct: usize,
    /// Benign replies carried through the wormhole, and how many of those
    /// tripped the wormhole detector.
    wormhole: usize,
    wormhole_fired: usize,
    /// Probes that returned no signal.
    no_signal: usize,
    /// Verdicts, indexed like [`outcome_slot`].
    outcomes: [usize; 4],
}

fn action_slot(action: Action) -> usize {
    match action {
        Action::Normal => 0,
        Action::MaliciousSignal => 1,
    }
}

fn outcome_slot(outcome: DetectionOutcome) -> usize {
    match outcome {
        DetectionOutcome::Benign => 0,
        DetectionOutcome::IgnoredWormholeReplay => 1,
        DetectionOutcome::IgnoredLocalReplay => 2,
        DetectionOutcome::Alert => 3,
    }
}

/// The observation's fields as raw bits, so `-0.0` vs `0.0` or a one-ulp
/// drift fails the comparison.
fn bits(o: &Observation) -> [u64; 7] {
    [
        o.detector_position.x.to_bits(),
        o.detector_position.y.to_bits(),
        o.declared_position.x.to_bits(),
        o.declared_position.y.to_bits(),
        o.measured_distance_ft.to_bits(),
        o.rtt.as_u64(),
        u64::from(o.wormhole_detector_fired),
    ]
}

/// Replays one probe as Request → Beacon + TimestampReport frames and
/// returns the observation the requester assembles.
fn replay(
    keys: &PairwiseKeyStore,
    d: &Deployment,
    requester: u32,
    wire_id: NodeId,
    target: u32,
    result: &ProbeResult,
    turnaround: Cycles,
) -> Observation {
    let probed = &result.observation;
    let target_id = d.ids().beacon(target);
    let session = RequesterSession::new(wire_id, d.position(requester), keys.clone());
    let responder = BeaconResponder::new(target_id, probed.declared_position, keys.clone());

    // The two sides keep their own clocks: only differences matter.
    let t1 = Cycles::new(1_000_000);
    let t2 = Cycles::new(77_000_000);
    let t3 = t2 + turnaround;
    let t4 = t1 + turnaround + probed.rtt;

    let (request, pending) = session.request(target_id, t1);
    let (beacon, report) = responder
        .respond(&request, t2, t3)
        .expect("the responder accepts its peer's request");
    pending
        .on_beacon(&beacon, t4, probed.measured_distance_ft)
        .expect("the beacon frame authenticates")
        .on_timestamp_report(&report, probed.wormhole_detector_fired)
        .expect("the timestamps are causal")
}

/// Probes every (requester, beacon) pair of `d` under `faults` — detectors
/// under each of their m detecting IDs, sensors under their own ID — and
/// replays each signal that arrives through the frame exchange.
fn conform(d: &Deployment, faults: &ProbeFaults, rng_seed: u64, coverage: &mut Coverage) {
    let cfg = d.config();
    let ctx = ProbeContext::new(d, &Obs::disabled());
    let keys = PairwiseKeyStore::new(Key::from_u128(0x5ec1_0c00 ^ u128::from(rng_seed)));
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let detectors = d.beacons_of_kind(NodeKind::BenignBeacon);
    let requesters = detectors
        .iter()
        .flat_map(|&u| (0..cfg.detecting_ids).map(move |k| (u, d.ids().detecting_id(u, k))))
        .chain(d.sensors().map(|w| (w, NodeId(w))));
    for (u, wire_id) in requesters {
        let audible = d.audible_beacons(u);
        for v in (0..cfg.beacons).filter(|&v| v != u) {
            let probed = ctx.probe(u, wire_id, v, faults, &mut rng);
            assert_eq!(
                probed.is_some(),
                audible.contains(&v),
                "{u} ({wire_id}) -> {v}: a signal arrives exactly on audible pairs"
            );
            let Some(result) = probed else {
                coverage.no_signal += 1;
                continue;
            };
            for turnaround in TURNAROUNDS {
                let replayed = replay(&keys, d, u, wire_id, v, &result, turnaround);
                assert_eq!(
                    bits(&replayed),
                    bits(&result.observation),
                    "{u} ({wire_id}) -> {v}, turnaround {turnaround}: {replayed:?} vs {:?}",
                    result.observation
                );
                assert_eq!(
                    ctx.pipeline().evaluate_with_acceptance(&replayed),
                    (result.outcome, result.accepted_for_localization),
                    "{u} ({wire_id}) -> {v}"
                );
            }
            coverage.outcomes[outcome_slot(result.outcome)] += 1;
            match (result.action, result.via_wormhole) {
                (Some(action), _) => coverage.actions[action_slot(action)] += 1,
                (None, true) => {
                    coverage.wormhole += 1;
                    coverage.wormhole_fired +=
                        usize::from(result.observation.wormhole_detector_fired);
                }
                (None, false) => coverage.benign_direct += 1,
            }
        }
    }
}

#[test]
fn every_probe_replays_through_the_frame_exchange() {
    let configs = [
        (SimConfig::paper_default(), 1),
        (SimConfig::paper_default(), 2),
        (
            SimConfig {
                attacker_p: 0.6,
                ..SimConfig::paper_default()
            },
            3,
        ),
    ];
    let mut coverage = Coverage::default();
    for (config, seed) in configs {
        let d = Deployment::generate(config, seed);
        for (i, faults) in [ProbeFaults::NONE, DEGRADED].iter().enumerate() {
            conform(&d, faults, seed * 10 + i as u64, &mut coverage);
        }
    }

    // Malicious beacons answer normally or lie outright. Both actions,
    // both wormhole verdicts and every detection outcome occur.
    let [normal, lies] = coverage.actions;
    assert!(normal > 0 && lies > 0, "{coverage:?}");
    assert!(coverage.benign_direct > 0, "{coverage:?}");
    assert!(
        coverage.wormhole_fired > 0 && coverage.wormhole > coverage.wormhole_fired,
        "{coverage:?}"
    );
    assert!(coverage.no_signal > 0, "{coverage:?}");
    assert!(coverage.outcomes.iter().all(|&n| n > 0), "{coverage:?}");
}
