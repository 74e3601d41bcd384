//! Distributed revocation — the paper's §6 future-work item, built out.
//!
//! "It is particularly interesting to investigate distributed algorithms
//! to revoke malicious beacon nodes without using the base station."
//!
//! The scheme implemented here removes the base station entirely:
//!
//! 1. detecting beacons run the same §2 pipeline and *locally broadcast*
//!    their alerts instead of unicasting them to a base station;
//! 2. alerts flood through the beacon overlay for a bounded number of
//!    hops (`gossip_hops`);
//! 3. every sensor runs the §3 counters *locally*, through the same
//!    [`RevocationMachine`] the base station uses: at most `τ + 1`
//!    accepted alerts per reporter, blacklist a target once its distinct
//!    accepted alerts exceed `τ′`.
//!
//! The trade-off against the centralised scheme is coverage: a sensor only
//! blacklists a malicious beacon if enough accusations *reach* it, so
//! detection is no longer a global property — the metrics below are
//! averaged over each beacon's own radio neighbourhood. More gossip hops
//! buy coverage at more communication (and give colluders equally wider
//! reach); the `ablation_distributed` bench quantifies both sides.

use crate::deploy::subseed;
use crate::{Deployment, NodeKind, ProbeContext, ProbeFaults};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_core::{RevocationConfig, RevocationMachine};
use secloc_crypto::NodeId;
use secloc_obs::Obs;
use std::collections::{HashMap, HashSet, VecDeque};

/// Parameters of the distributed scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedConfig {
    /// Per-reporter cap τ applied locally by every node.
    pub tau: u32,
    /// Local blacklist threshold τ′.
    pub tau_prime: u32,
    /// How many hops alerts flood through the beacon overlay
    /// (0 = only the reporter's own neighbourhood hears it).
    pub gossip_hops: u32,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            tau: 2,
            tau_prime: 2,
            gossip_hops: 2,
        }
    }
}

/// Measurements from one distributed-revocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedOutcome {
    /// Average, over malicious beacons, of the fraction of their sensor
    /// neighbours that blacklisted them — the distributed analogue of the
    /// detection rate.
    pub neighbourhood_detection_rate: f64,
    /// Average, over benign beacons, of the fraction of their sensor
    /// neighbours that (wrongly) blacklisted them.
    pub neighbourhood_false_positive_rate: f64,
    /// The `N′` analogue: average sensors per malicious beacon that
    /// accepted its malicious signal and did **not** blacklist it.
    pub affected_after: f64,
    /// Total alert transmissions (originals + gossip relays) — the
    /// communication cost the base station used to absorb.
    pub alert_transmissions: usize,
}

/// Runs detection + local-broadcast gossip + local blacklisting on a
/// deployment. `seed` must differ from the deployment seed stream (it
/// drives the probe randomness).
pub fn run_distributed(
    deployment: &Deployment,
    config: DistributedConfig,
    seed: u64,
) -> DistributedOutcome {
    let cfg = deployment.config();
    let ctx = ProbeContext::new(deployment, &Obs::disabled());
    let mut probe_rng = StdRng::seed_from_u64(subseed(seed, b"dist-probe"));

    // ---- Phase 1: detection, exactly as in the centralised scheme. ----
    let detectors = deployment.beacons_of_kind(NodeKind::BenignBeacon);
    let mut alerts: Vec<(u32, u32)> = Vec::new(); // (reporter, target)
    for &u in &detectors {
        for v in deployment.neighbors(u) {
            if v >= cfg.beacons {
                continue;
            }
            for k in 0..cfg.detecting_ids {
                let wire = deployment.ids().detecting_id(u, k);
                let Some(result) = ctx.probe(u, wire, v, &ProbeFaults::NONE, &mut probe_rng) else {
                    break;
                };
                if result.outcome.raises_alert() {
                    alerts.push((u, v));
                    break;
                }
            }
        }
    }

    // Colluders adapt to the distributed scheme. Local blacklists count
    // *distinct* accusers, so the centralised spam strategy (one colluder
    // dumping its whole budget on one victim) is worthless here; instead,
    // τ′ + 1 different colluders must co-accuse a victim, and their gossip
    // must actually reach the victim's neighbourhood. Greedy plan: for
    // each benign beacon with enough in-reach colluders, spend one budget
    // unit from each of τ′ + 1 of them.
    if cfg.collusion && cfg.malicious > 0 {
        let malicious = deployment.beacons_of_kind(NodeKind::MaliciousBeacon);
        let reach = (config.gossip_hops as f64 + 1.0) * cfg.range_ft;
        let mut budget: HashMap<u32, u32> =
            malicious.iter().map(|&c| (c, config.tau + 1)).collect();
        let quorum = (config.tau_prime + 1) as usize;
        for &victim in &detectors {
            let vp = deployment.position(victim);
            let in_reach: Vec<u32> = malicious
                .iter()
                .copied()
                .filter(|&c| deployment.position(c).distance(vp) <= reach && budget[&c] > 0)
                .collect();
            if in_reach.len() >= quorum {
                for &c in in_reach.iter().take(quorum) {
                    alerts.push((c, victim));
                    *budget.get_mut(&c).expect("budgeted colluder") -= 1;
                }
            }
        }
    }

    // ---- Phase 2: gossip flood through the beacon overlay. ------------
    // Beacon adjacency graph.
    let beacon_adj: Vec<Vec<u32>> = (0..cfg.beacons)
        .map(|b| {
            deployment
                .neighbors(b)
                .into_iter()
                .filter(|&n| n < cfg.beacons)
                .collect()
        })
        .collect();

    // For each alert, the set of beacons that relay it (BFS from the
    // reporter, bounded by gossip_hops), and hence the nodes that hear it.
    let mut heard_by: HashMap<u32, Vec<(u32, u32)>> = HashMap::new(); // node -> alerts
    let mut transmissions = 0usize;
    for &(reporter, target) in &alerts {
        let mut frontier = VecDeque::from([(reporter, 0u32)]);
        let mut visited: HashSet<u32> = HashSet::from([reporter]);
        while let Some((beacon, depth)) = frontier.pop_front() {
            transmissions += 1; // this beacon broadcasts the alert once
                                // Every node in radio range hears the broadcast.
            for n in deployment.neighbors(beacon) {
                heard_by.entry(n).or_default().push((reporter, target));
            }
            if depth < config.gossip_hops {
                for &next in &beacon_adj[beacon as usize] {
                    if visited.insert(next) {
                        frontier.push_back((next, depth + 1));
                    }
                }
            }
        }
    }

    // ---- Phase 3: local counters at every sensor. ----------------------
    // blacklist[sensor] = the beacons it revoked locally, sorted. Beacons
    // keep lists too, but the metrics are sensor-side.
    let policy = RevocationConfig {
        tau: config.tau,
        tau_prime: config.tau_prime,
    };
    let mut machine = RevocationMachine::with_nodes(policy, cfg.beacons as usize);
    let blacklists: HashMap<u32, Vec<NodeId>> = heard_by
        .into_iter()
        .filter(|&(node, _)| node >= cfg.beacons)
        .map(|(node, heard)| (node, local_blacklist(&mut machine, policy, heard)))
        .collect();

    // ---- Phase 4: neighbourhood metrics. --------------------------------
    let sensor_neighbours = |b: u32| -> Vec<u32> {
        deployment
            .neighbors(b)
            .into_iter()
            .filter(|&n| n >= cfg.beacons)
            .collect()
    };
    let blacklisted = |sensor: u32, beacon: u32| -> bool {
        blacklists
            .get(&sensor)
            .is_some_and(|list| list.binary_search(&NodeId(beacon)).is_ok())
    };
    let neighbourhood_rate = |beacons: &[u32]| -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for &b in beacons {
            let sensors = sensor_neighbours(b);
            if sensors.is_empty() {
                continue;
            }
            let hits = sensors.iter().filter(|&&s| blacklisted(s, b)).count();
            total += hits as f64 / sensors.len() as f64;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    };

    let malicious = deployment.beacons_of_kind(NodeKind::MaliciousBeacon);
    let benign = deployment.beacons_of_kind(NodeKind::BenignBeacon);
    let detection = neighbourhood_rate(&malicious);
    let false_positive = neighbourhood_rate(&benign);

    // N' analogue: sensors poisoned by v that did not blacklist v.
    let mut affected = 0usize;
    for &v in &malicious {
        let compromised = deployment.compromised(v).expect("malicious");
        for s in sensor_neighbours(v) {
            let action = compromised.decide(NodeId(s));
            if action == secloc_attack::Action::MaliciousSignal && !blacklisted(s, v) {
                affected += 1;
            }
        }
    }
    let affected_after = if malicious.is_empty() {
        0.0
    } else {
        affected as f64 / malicious.len() as f64
    };

    DistributedOutcome {
        neighbourhood_detection_rate: detection,
        neighbourhood_false_positive_rate: false_positive,
        affected_after,
        alert_transmissions: transmissions,
    }
}

/// Phase 3 at one sensor: feeds the `(reporter, target)` alerts it heard,
/// sorted and deduplicated so the result is reproducible, through
/// `machine` reset to `policy`, and returns the beacons it blacklists,
/// sorted by ID.
fn local_blacklist(
    machine: &mut RevocationMachine,
    policy: RevocationConfig,
    mut heard: Vec<(u32, u32)>,
) -> Vec<NodeId> {
    machine.reset(policy);
    heard.sort_unstable();
    heard.dedup();
    for (reporter, target) in heard {
        machine.decide(NodeId(reporter), NodeId(target));
    }
    machine.revoked_nodes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    fn deployment(p: f64, seed: u64) -> Deployment {
        Deployment::generate(
            SimConfig {
                attacker_p: p,
                wormhole: None,
                ..SimConfig::paper_default()
            },
            seed,
        )
    }

    #[test]
    fn an_alert_against_a_blacklisted_target_spends_no_budget() {
        // At τ = τ′ = 0 the first accepted alert revokes its target and
        // spends its reporter's whole budget. Reporter 2's alert against
        // the already revoked 5 is ignored at no cost, so its budget is
        // still there for 9.
        let policy = RevocationConfig {
            tau: 0,
            tau_prime: 0,
        };
        let mut machine = RevocationMachine::with_nodes(policy, 10);
        assert_eq!(
            local_blacklist(&mut machine, policy, vec![(1, 5), (2, 5), (2, 9)]),
            [NodeId(5), NodeId(9)]
        );
        // The machine is reset per sensor: a second sensor's list owes
        // nothing to the first's.
        assert_eq!(
            local_blacklist(&mut machine, policy, vec![(3, 9)]),
            [NodeId(9)]
        );
        assert!(local_blacklist(&mut machine, policy, Vec::new()).is_empty());
    }

    #[test]
    fn runs_are_reproducible() {
        let d = deployment(0.4, 1);
        let a = run_distributed(&d, DistributedConfig::default(), 9);
        let b = run_distributed(&d, DistributedConfig::default(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn aggressive_attackers_blacklisted_locally() {
        let d = deployment(0.8, 2);
        let out = run_distributed(&d, DistributedConfig::default(), 3);
        assert!(
            out.neighbourhood_detection_rate > 0.5,
            "got {}",
            out.neighbourhood_detection_rate
        );
    }

    #[test]
    fn silent_attackers_invisible() {
        let d = deployment(0.0, 3);
        let out = run_distributed(&d, DistributedConfig::default(), 4);
        assert_eq!(out.neighbourhood_detection_rate, 0.0);
        assert_eq!(out.affected_after, 0.0);
    }

    #[test]
    fn gossip_extends_coverage_and_cost() {
        let d = deployment(0.5, 4);
        let near = run_distributed(
            &d,
            DistributedConfig {
                gossip_hops: 0,
                ..Default::default()
            },
            5,
        );
        let far = run_distributed(
            &d,
            DistributedConfig {
                gossip_hops: 3,
                ..Default::default()
            },
            5,
        );
        assert!(
            far.neighbourhood_detection_rate >= near.neighbourhood_detection_rate,
            "gossip should not reduce coverage: {} vs {}",
            far.neighbourhood_detection_rate,
            near.neighbourhood_detection_rate
        );
        assert!(
            far.alert_transmissions > near.alert_transmissions,
            "gossip must cost transmissions"
        );
    }

    #[test]
    fn collusion_false_positives_stay_bounded_locally() {
        let d = deployment(0.3, 5);
        let out = run_distributed(&d, DistributedConfig::default(), 6);
        // The per-reporter cap applies at every node, so colluders cannot
        // push the neighbourhood FP rate anywhere near 1.
        assert!(
            out.neighbourhood_false_positive_rate < 0.35,
            "got {}",
            out.neighbourhood_false_positive_rate
        );
    }

    #[test]
    fn blacklisting_reduces_affected_sensors() {
        let d = deployment(0.7, 6);
        let out = run_distributed(&d, DistributedConfig::default(), 7);
        // Poisoned-but-unblacklisted must be well below the raw poisoned
        // count (P * sensor-neighbours ~ 0.7 * 55 ~ 38).
        assert!(out.affected_after < 20.0, "got {}", out.affected_after);
    }
}
