//! Workspace-level integration tests: exercise the whole stack through the
//! `secloc` facade, the way a downstream user would.

use secloc::attack::CollusionPolicy;
use secloc::core::{DetectionOutcome, LocalReplayVerdict};
use secloc::localization::{CentroidEstimator, MinMaxEstimator};
use secloc::prelude::*;
use secloc_oracle::{
    BeaconPayload, Frame, FrameBody, Key, LocalReplayer, Masquerader, PairwiseKeyStore, SignedAlert,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's core narrative in one test: an insider lies, a detector
/// notices, the base station revokes, and sensors stop being poisoned.
#[test]
fn full_story_detection_to_revocation() {
    let pipeline = DetectionPipeline::paper_default();

    // The compromised beacon claims a spot 400 ft from where it stands.
    let liar = CompromisedBeacon::new(
        NodeId(7),
        Point2::new(300.0, 300.0),
        Vector2::new(400.0, 0.0),
        BeaconStrategy::always_malicious(),
        1,
    );

    // Three detecting beacons at different spots each probe it once.
    let mut station = RevocationMachine::new(RevocationConfig::paper_default());
    let keys = PairwiseKeyStore::new(Key::from_u128(0xfeed));
    let mut rng = StdRng::seed_from_u64(2);
    let ranging = secloc::radio::ranging::BoundedRanging::new(10.0);
    let rtt = RttModel::paper_default();

    for (i, spot) in [
        (11u32, (250.0, 250.0)),
        (12, (380.0, 350.0)),
        (13, (290.0, 420.0)),
    ] {
        let detector_pos = Point2::new(spot.0, spot.1);
        let obs = Observation {
            detector_position: detector_pos,
            declared_position: liar.declared_position(),
            measured_distance_ft: ranging
                .measure(detector_pos.distance(liar.true_position()), &mut rng),
            rtt: rtt.sample(
                detector_pos.distance(liar.true_position()),
                Cycles::ZERO,
                &mut rng,
            ),
            wormhole_detector_fired: false,
        };
        assert_eq!(pipeline.evaluate(&obs), DetectionOutcome::Alert);
        let alert = Alert::new(NodeId(i), liar.id());
        let signed = SignedAlert::sign(alert, &keys.base_station(NodeId(i)));
        assert!(signed.verify(&keys.base_station(NodeId(i))));
        let alert = signed.alert();
        station.decide(alert.reporter, alert.target);
    }

    assert!(station.is_revoked(liar.id()), "three alerts clear tau' = 2");
}

/// External forgeries die at the MAC layer; insider frames verify.
#[test]
fn crypto_boundary_masquerade_vs_insider() {
    let keys = PairwiseKeyStore::new(Key::from_u128(0xabc));
    let victim = NodeId(900);

    let outsider = Masquerader::new(NodeId(5), Point2::new(1.0, 1.0), Key::from_u128(0x666));
    assert!(outsider
        .forge_beacon(victim)
        .open(victim, &keys.pairwise(NodeId(5), victim))
        .is_err());

    let insider_key = keys.pairwise(NodeId(5), victim);
    let insider_frame = Frame::seal(
        NodeId(5),
        victim,
        FrameBody::Beacon(BeaconPayload {
            beacon: NodeId(5),
            declared: Point2::new(999.0, 999.0), // a lie, but authenticated
        }),
        &insider_key,
    );
    assert!(insider_frame.open(victim, &insider_key).is_ok());
}

/// The RTT filter end-to-end: model → measurement → threshold, with a
/// physical replayer in the loop.
#[test]
fn local_replay_physics() {
    let model = RttModel::paper_default();
    let filter = RttFilter::paper_default();
    let mut rng = StdRng::seed_from_u64(3);

    let frame = Frame::seal(
        NodeId(1),
        NodeId(2),
        FrameBody::Beacon(BeaconPayload {
            beacon: NodeId(1),
            declared: Point2::new(10.0, 10.0),
        }),
        &Key::from_u128(1),
    );
    let replayer = LocalReplayer::new(Point2::new(40.0, 0.0), Cycles::new(1000));
    for _ in 0..200 {
        let honest = model.sample(80.0, Cycles::ZERO, &mut rng);
        assert_eq!(filter.classify(honest), LocalReplayVerdict::Fresh);
        let replayed = model.sample(80.0, replayer.replay_delay(&frame), &mut rng);
        assert_eq!(
            filter.classify(replayed),
            LocalReplayVerdict::LocallyReplayed
        );
    }
}

/// All three estimators survive a poisoned reference set and expose the
/// inconsistency through their residuals.
#[test]
fn estimators_expose_poisoned_references() {
    let truth = Point2::new(100.0, 100.0);
    let mut refs: Vec<LocationReference> = [(0.0, 0.0), (200.0, 0.0), (0.0, 200.0), (200.0, 200.0)]
        .iter()
        .map(|&(x, y)| {
            let a = Point2::new(x, y);
            LocationReference::new(a, a.distance(truth))
        })
        .collect();
    refs.push(LocationReference::new(Point2::new(900.0, 900.0), 30.0));

    use secloc::localization::Estimator as _;
    let mmse = MmseEstimator::default().estimate(&refs).unwrap();
    let minmax = MinMaxEstimator.estimate(&refs).unwrap();
    let centroid = CentroidEstimator::default().estimate(&refs).unwrap();
    for (name, est) in [("mmse", mmse), ("minmax", minmax), ("centroid", centroid)] {
        assert!(
            est.residual_rms > 50.0,
            "{name} failed to flag the poisoned set: rms {}",
            est.residual_rms
        );
    }
}

/// Collusion at the base station stays within the paper's bound even when
/// interleaved with honest alerts in adversary-favourable order.
#[test]
fn collusion_interleaved_with_honest_traffic() {
    let cfg = RevocationConfig {
        tau: 2,
        tau_prime: 2,
    };
    let mut station = RevocationMachine::new(cfg);
    let colluders: Vec<NodeId> = (0..10).map(NodeId).collect();
    let benign: Vec<NodeId> = (10..100).map(NodeId).collect();

    // Colluders strike first.
    for (r, t) in CollusionPolicy::new(cfg.tau, cfg.tau_prime).alerts(&colluders, &benign) {
        station.decide(r, t);
    }
    let framed = station.revoked_nodes().len();
    assert_eq!(framed, 10); // Na(tau+1)/(tau'+1) = 10*3/3

    // Honest detectors (including framed ones) still convict every
    // colluder with 3 alerts each — distinct reporters per colluder, since
    // each honest reporter also only has a tau + 1 = 3 budget.
    for (i, &m) in colluders.iter().enumerate() {
        let i = i as u32;
        for r in [NodeId(10 + i), NodeId(25 + i), NodeId(40 + i)] {
            station.decide(r, m);
        }
        assert!(station.is_revoked(m));
    }
}

/// The simulation, analysis and configuration layers agree on the network
/// arithmetic.
#[test]
fn population_bookkeeping_consistent() {
    let sim = SimConfig::paper_default();
    let pop = NetworkPopulation::paper_simulation();
    assert_eq!(sim.nodes as u64, pop.total);
    assert_eq!(sim.beacons as u64, pop.beacons);
    assert_eq!(sim.malicious as u64, pop.malicious);
    assert_eq!(sim.benign_beacons() as u64, pop.benign_beacons());
    assert_eq!(sim.non_beacons() as u64, pop.non_beacons());
}

/// A downsized end-to-end simulation through the facade.
#[test]
fn facade_simulation_smoke() {
    let cfg = SimConfig {
        nodes: 300,
        beacons: 30,
        malicious: 3,
        attacker_p: 0.5,
        ..SimConfig::paper_default()
    };
    let a = Runner::new(cfg.clone(), 77).run(RunOptions::new()).outcome;
    let b = Runner::new(cfg, 77).run(RunOptions::new()).outcome;
    assert_eq!(a, b, "facade runs must be deterministic");
    assert!(a.detection_rate() >= 0.0 && a.detection_rate() <= 1.0);
    assert!(a.affected_after <= a.affected_before);
}
