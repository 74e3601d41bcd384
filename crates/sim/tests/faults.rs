//! Behavioural integration tests for fault injection: each category must
//! degrade the system in the direction its physics predicts, and the
//! injected-fault telemetry counters must account for it.

use secloc_faults::{BurstLossSpec, ChurnSpec, FaultPlan, NoiseRegion, Outage};
use secloc_obs::{MetricsRegistry, Obs};
use secloc_sim::{
    average_outcomes, NodeKind, Orchestrator, RunOptions, Runner, SimConfig, SimOutcome, SweepSpec,
};
use std::sync::Arc;

fn cfg(p: f64) -> SimConfig {
    SimConfig {
        nodes: 500,
        beacons: 50,
        malicious: 5,
        attacker_p: p,
        ..SimConfig::paper_default()
    }
}

fn sweep(config: &SimConfig, plan: &FaultPlan, seeds: std::ops::Range<u64>) -> Vec<SimOutcome> {
    let config = SimConfig {
        faults: plan.clone(),
        ..config.clone()
    };
    seeds
        .map(|s| {
            Runner::new(config.clone(), s)
                .run(RunOptions::new())
                .outcome
        })
        .collect()
}

#[test]
fn churn_killed_beacons_raise_no_alerts_and_are_never_revoked() {
    // Kill every malicious beacon from t=0. A dead beacon emits no beacon
    // signals, so no detector can gather evidence against it, no sensor
    // is poisoned by it, and the base station never revokes it — churn
    // deaths must not be confused with successful detection.
    let mut config = cfg(0.9); // aggressive: alive, they would surely be caught
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = Obs::with_metrics(registry.clone());
    let malicious = Runner::new(config.clone(), 31)
        .deployment()
        .beacons_of_kind(NodeKind::MaliciousBeacon);
    config.faults = FaultPlan::default().with_churn(ChurnSpec {
        scheduled: malicious
            .iter()
            .map(|&node| Outage {
                node,
                from_frac: 0.0,
                until_frac: f64::INFINITY,
            })
            .collect(),
        ..ChurnSpec::default()
    });
    let dead = Runner::new(config, 31)
        .run(RunOptions::new().observed(&telemetry))
        .outcome;
    assert_eq!(dead.benign_alerts, 0, "no signal, no evidence");
    assert_eq!(dead.revoked_malicious, 0, "never revoked post-death");
    assert_eq!(dead.affected_before, 0.0, "no sensor ever heard them");
    assert_eq!(dead.affected_after, 0.0);
    // The suppressed exchanges are visible on the fault counters.
    let snapshot = registry.snapshot();
    let suppressed = snapshot
        .counter("faults.churn.suppressed")
        .expect("churn counter registered");
    assert!(suppressed > 0, "dead beacons must suppress exchanges");
    assert_eq!(
        snapshot.counter("faults.churn.outages"),
        Some(malicious.len() as u64)
    );

    // Baseline sanity: alive, the same attackers do get caught.
    let alive = Runner::new(cfg(0.9), 31).run(RunOptions::new()).outcome;
    assert!(alive.revoked_malicious > 0);
    assert!(alive.benign_alerts > 0);
}

#[test]
fn regional_noise_produces_false_alerts_where_none_existed() {
    // With zero malicious beacons and no wormhole, the clean system raises
    // no alerts at all. A noise figure of 3 breaks the detector's ε_max
    // premise: benign direct measurements exceed the consistency bound and
    // honest beacons start getting flagged.
    let config = SimConfig {
        malicious: 0,
        wormhole: None,
        collusion: false,
        ..cfg(0.0)
    };
    let clean = sweep(&config, &FaultPlan::default(), 0..4);
    assert!(
        clean.iter().all(|o| o.benign_alerts == 0),
        "clean runs must be alert-free"
    );
    let noisy_plan = FaultPlan::default().with_noise_region(NoiseRegion::whole_field(1000.0, 3.0));
    let noisy = sweep(&config, &noisy_plan, 0..4);
    let total_alerts: usize = noisy.iter().map(|o| o.benign_alerts).sum();
    assert!(
        total_alerts > 0,
        "figure 3.0 must break the ε_max premise somewhere"
    );
}

#[test]
fn clock_skew_degrades_detection() {
    // Skewed detector clocks push measured RTTs past x_max, so malicious
    // signals are misclassified as local replays instead of raising
    // alerts: detection must drop substantially.
    let config = cfg(0.8);
    let baseline = average_outcomes(&sweep(&config, &FaultPlan::default(), 0..5));
    // paper_default RTTs top out near 7.7k cycles; +20k cycles of skew
    // puts every measurement far beyond the replay threshold.
    let skewed_plan = FaultPlan::default().with_clock_drift(20_000);
    let skewed = average_outcomes(&sweep(&config, &skewed_plan, 0..5));
    assert!(
        skewed.detection_rate < baseline.detection_rate - 0.2,
        "heavy skew should gut detection: {} vs baseline {}",
        skewed.detection_rate,
        baseline.detection_rate
    );
}

#[test]
fn burst_loss_hurts_more_than_matched_rate_uniform_loss() {
    // Same long-run loss rate, different correlation structure: retries
    // land inside the same bad period that ate the original, so a small
    // retransmission budget fails far more often under bursts.
    let spec = BurstLossSpec::severe();
    let rate = spec.long_run_loss_rate();
    let base = SimConfig {
        attacker_p: 0.6,
        collusion: false,
        wormhole: None,
        alert_retransmissions: 3,
        ..cfg(0.6)
    };
    let uniform_cfg = SimConfig {
        alert_loss_rate: rate,
        ..base.clone()
    };
    let seeds = 0..8;
    let uniform = average_outcomes(&sweep(&uniform_cfg, &FaultPlan::default(), seeds.clone()));
    let burst_plan = FaultPlan::default().with_burst_loss(spec);
    let burst = average_outcomes(&sweep(&base, &burst_plan, seeds));
    assert!(
        burst.detection_rate < uniform.detection_rate,
        "bursts at rate {rate:.3} should beat the retry budget more often: \
         burst {} vs uniform {}",
        burst.detection_rate,
        uniform.detection_rate
    );
}

#[test]
fn config_level_plan_applies_to_runs_and_sweeps() {
    // A plan carried in SimConfig::faults is in force for plain runs and
    // for sweeps that never mention faults.
    let mut config = cfg(0.8);
    config.faults = FaultPlan::default().with_clock_drift(20_000);
    let via_config = Runner::new(config.clone(), 2)
        .run(RunOptions::new())
        .outcome;
    let clean = Runner::new(cfg(0.8), 2).run(RunOptions::new()).outcome;
    assert_ne!(via_config, clean);
    let swept = Orchestrator::new()
        .workers(1)
        .run(&SweepSpec::single(&config, &[2]))
        .unwrap();
    assert_eq!(swept.outcomes[0], via_config);
}
