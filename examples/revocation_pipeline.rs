//! The base-station revocation scheme under collusion pressure (§3).
//!
//! Shows the report-counter cap τ doing its job: colluding malicious
//! beacons spend their whole alert budget framing benign beacons, yet the
//! damage stays bounded by `N_a (τ+1) / (τ′+1)` — and honest alerts from
//! already-revoked (framed) detectors are still heard.
//!
//! Run with: `cargo run --example revocation_pipeline`

use secloc::attack::CollusionPolicy;
use secloc::prelude::*;
use secloc_oracle::{Key, PairwiseKeyStore, SignedAlert};

fn main() {
    let config = RevocationConfig::paper_default();
    let keys = PairwiseKeyStore::new(Key::from_u128(0x5ec10c));
    let mut station = RevocationMachine::new(config);
    let mut accepted = 0;

    // Population: beacons 0..9 are compromised, 10..99 benign.
    let colluders: Vec<NodeId> = (0..10).map(NodeId).collect();
    let benign: Vec<NodeId> = (10..100).map(NodeId).collect();

    // ---- Phase 1: the colluders strike first. ----------------------
    let policy = CollusionPolicy::new(config.tau, config.tau_prime);
    println!(
        "collusion: {} reporters x budget {} = {} alerts, {} per kill -> expect {} victims",
        colluders.len(),
        policy.budget_per_reporter(),
        colluders.len() * policy.budget_per_reporter() as usize,
        policy.cost_per_revocation(),
        policy.expected_revocations(colluders.len()),
    );
    for (reporter, target) in policy.alerts(&colluders, &benign) {
        // Alerts are authenticated with the reporter's base-station key;
        // the station verifies before processing.
        let signed = SignedAlert::sign(Alert::new(reporter, target), &keys.base_station(reporter));
        assert!(signed.verify(&keys.base_station(reporter)));
        let alert = signed.alert();
        if station.decide(alert.reporter, alert.target).accepted() {
            accepted += 1;
        }
    }
    let framed = station.revoked_nodes();
    println!("benign beacons framed: {:?}", framed);
    assert_eq!(framed.len(), policy.expected_revocations(colluders.len()));

    // ---- Phase 2: honest detectors report the real attackers. ------
    // Even the framed (revoked) detectors' alerts still count — the rule
    // the paper adds exactly for this scenario.
    let mut honest_reports = 0;
    'outer: for &malicious in &colluders {
        for &detector in benign.iter() {
            let out = station.decide(detector, malicious);
            if out.accepted() {
                accepted += 1;
            }
            honest_reports += 1;
            if station.is_revoked(malicious) {
                println!("{malicious} revoked after {honest_reports} honest alerts ({out:?})");
                continue 'outer;
            }
        }
    }

    let revoked_malicious = colluders.iter().filter(|c| station.is_revoked(**c)).count();
    println!("\nmalicious revoked : {revoked_malicious}/10");
    println!(
        "benign revoked    : {} (bound: {})",
        station
            .revoked_nodes()
            .iter()
            .filter(|n| benign.contains(n))
            .count(),
        policy.expected_revocations(colluders.len()),
    );
    println!("accepted alerts   : {accepted}");

    // A framed detector can still convict an attacker:
    let framed_detector = framed[0];
    let spent = station.reports_spent(framed_detector);
    println!(
        "\nframed detector {framed_detector} spent {spent} of its {} budget — \
         its voice was never silenced",
        config.tau + 1
    );
}
