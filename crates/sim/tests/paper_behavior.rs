//! End-to-end behavioral checks of the paper's headline claims, driven
//! through the unified [`Runner::run`]/[`RunOptions`] entry point.
//!
//! These started life as the `Experiment` façade's test suite; the façade
//! and its deprecated `run*` wrappers are gone (PR 3's API migration,
//! completed in PR 8), so the behavioral assertions now live against the
//! API callers actually use.

use secloc_obs::{MemorySink, Obs, Value};
use secloc_sim::{average_outcomes, RunOptions, Runner, SimConfig, SimOutcome};
use std::sync::Arc;

fn small(p: f64, seed: u64) -> SimOutcome {
    Runner::new(
        SimConfig {
            nodes: 500,
            beacons: 50,
            malicious: 5,
            attacker_p: p,
            ..SimConfig::paper_default()
        },
        seed,
    )
    .run(RunOptions::new())
    .outcome
}

#[test]
fn runs_are_reproducible() {
    let a = small(0.3, 5);
    let b = small(0.3, 5);
    assert_eq!(a, b);
}

#[test]
fn aggressive_attackers_get_revoked() {
    // At paper density (~6 detector-neighbours per beacon) an attacker
    // with P = 0.8 hands out alerts to nearly every detector; clearing
    // tau' = 2 is then near-certain.
    let outcomes: Vec<SimOutcome> = (0..3)
        .map(|s| {
            Runner::new(
                SimConfig {
                    attacker_p: 0.8,
                    ..SimConfig::paper_default()
                },
                s,
            )
            .run(RunOptions::new())
            .outcome
        })
        .collect();
    let agg = average_outcomes(&outcomes);
    // Theory: P_d ~ 0.84-0.92 at the empirical N_c of ~50-60 (border
    // effects shrink N_c below the toroidal 70).
    assert!(
        agg.detection_rate > 0.7,
        "P=0.8 should be detected most of the time, got {}",
        agg.detection_rate
    );
    // The sparser 500-node layout has ~3 detector-neighbours per
    // beacon, so detection saturates well below 1 — the N_c dependence
    // of Fig. 7 seen from the simulation side.
    let sparse: Vec<SimOutcome> = (0..3).map(|s| small(0.8, s)).collect();
    let sparse_agg = average_outcomes(&sparse);
    assert!(sparse_agg.detection_rate < agg.detection_rate + 1e-9);
}

#[test]
fn silent_attackers_survive_but_do_no_damage() {
    let o = small(0.0, 3);
    assert_eq!(o.revoked_malicious, 0, "P=0 gives no evidence");
    assert_eq!(o.affected_before, 0.0);
    assert_eq!(o.affected_after, 0.0);
}

#[test]
fn revocation_reduces_affected_sensors() {
    let outcomes: Vec<SimOutcome> = (0..5).map(|s| small(0.6, 100 + s)).collect();
    let agg = average_outcomes(&outcomes);
    assert!(
        agg.affected_after < agg.affected_before,
        "revocation must reduce impact: {} vs {}",
        agg.affected_after,
        agg.affected_before
    );
    assert!(agg.detection_rate > 0.5);
}

#[test]
fn collusion_bounded_by_formula() {
    let o = small(0.3, 7);
    // Na=5, tau=2, tau'=2: at most 5 benign beacons revoked by spam,
    // plus potential wormhole false positives.
    assert!(
        o.revoked_benign <= 5 + 3,
        "too many false positives: {}",
        o.revoked_benign
    );
    assert!(o.collusion_alerts > 0);
}

#[test]
fn disabling_collusion_removes_spam_false_positives() {
    let mut cfg = SimConfig {
        nodes: 500,
        beacons: 50,
        malicious: 5,
        attacker_p: 0.3,
        wormhole: None, // no wormhole => no false-positive path at all
        ..SimConfig::paper_default()
    };
    cfg.collusion = false;
    let o = Runner::new(cfg, 11).run(RunOptions::new()).outcome;
    assert_eq!(o.collusion_alerts, 0);
    assert_eq!(o.revoked_benign, 0, "no collusion, no wormhole, no FPs");
}

#[test]
fn localization_error_improves_after_revocation() {
    // With aggressive attackers, discarding revoked beacons' references
    // should not hurt localization (usually it helps).
    let outcomes: Vec<SimOutcome> = (0..4).map(|s| small(0.9, 200 + s)).collect();
    let before: f64 = outcomes
        .iter()
        .filter_map(|o| o.mean_loc_error_before_ft)
        .sum::<f64>()
        / outcomes.len() as f64;
    let after: f64 = outcomes
        .iter()
        .filter_map(|o| o.mean_loc_error_after_ft)
        .sum::<f64>()
        / outcomes.len() as f64;
    assert!(
        after <= before + 0.5,
        "revocation should not degrade localization: {before:.2} -> {after:.2}"
    );
    assert!(before > after - 50.0, "sanity");
}

#[test]
fn retransmission_discharges_the_reliability_assumption() {
    // Heavy loss without retransmission cripples revocation; with the
    // paper's assumed retransmission it is indistinguishable from a
    // lossless channel.
    let base = SimConfig {
        nodes: 500,
        beacons: 50,
        malicious: 5,
        attacker_p: 0.6,
        collusion: false,
        wormhole: None,
        ..SimConfig::paper_default()
    };
    let run = |loss: f64, retx: u32| -> f64 {
        let cfg = SimConfig {
            alert_loss_rate: loss,
            alert_retransmissions: retx,
            ..base.clone()
        };
        let outs: Vec<SimOutcome> = (0..6)
            .map(|s| Runner::new(cfg.clone(), s).run(RunOptions::new()).outcome)
            .collect();
        average_outcomes(&outs).detection_rate
    };
    let lossless = run(0.0, 1);
    let lossy_no_retx = run(0.6, 1);
    let lossy_retx = run(0.6, 10);
    assert!(
        lossy_no_retx < lossless - 0.1,
        "60% loss without retransmission should hurt: {lossy_no_retx} vs {lossless}"
    );
    assert!(
        (lossy_retx - lossless).abs() < 0.1,
        "retransmission should restore reliability: {lossy_retx} vs {lossless}"
    );
}

#[test]
fn event_stream_agrees_with_outcome() {
    let runner = Runner::new(
        SimConfig {
            nodes: 500,
            beacons: 50,
            malicious: 5,
            attacker_p: 0.6,
            ..SimConfig::paper_default()
        },
        13,
    );
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(None, Some(sink.clone()));
    let outcome = runner.run(RunOptions::new().observed(&obs)).outcome;
    let events = sink.events();
    let decisions: Vec<_> = events.iter().filter(|e| e.kind == "bs.alert").collect();
    // Every revocation event corresponds to a revoked beacon.
    assert_eq!(
        events.iter().filter(|e| e.kind == "revocation").count() as u32,
        outcome.revoked_malicious + outcome.revoked_benign
    );
    // Alert volume matches the outcome counters: every alert sent is
    // either decided at the base station or dropped in transit.
    let summary = events
        .iter()
        .find(|e| e.kind == "alerts.summary")
        .expect("one summary per run");
    let Some(&Value::U64(dropped)) = summary.field("dropped") else {
        panic!("alerts.summary without a dropped count");
    };
    assert_eq!(
        decisions.len() + dropped as usize,
        outcome.benign_alerts + outcome.collusion_alerts
    );
    // The observed run returns the same outcome as the plain one.
    assert_eq!(runner.run(RunOptions::new()).outcome, outcome);
    // Colluders fire first in the worst-case ordering: no collusion alert
    // is decided after the first detection alert.
    let source = |e: &&secloc_obs::Event| match e.field("source") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("bs.alert without a source: {other:?}"),
    };
    let sources: Vec<String> = decisions.iter().map(source).collect();
    let first_detection = sources
        .iter()
        .position(|s| s == "detection")
        .unwrap_or(sources.len());
    assert!(first_detection > 0, "this run delivers collusion alerts");
    assert!(
        sources[first_detection..].iter().all(|s| s != "collusion"),
        "a collusion alert arrived after detection alerts: {sources:?}"
    );
}

#[test]
fn mean_requesters_recorded() {
    let o = small(0.1, 9);
    assert!(o.mean_requesters_per_beacon > 5.0);
    assert!(o.mean_requesters_per_beacon < 500.0);
}
