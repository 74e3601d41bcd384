//! The straight-line reference run.

use crate::{mmse, EventQueue};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use secloc_attack::{Action, CollusionPolicy};
use secloc_core::{Alert, RevocationConfig, RevocationMachine};
use secloc_crypto::NodeId;
use secloc_faults::{AlertChannel, ChurnSchedule, DriftTable, FaultPlan, NoiseField};
use secloc_localization::{Estimator, LocationReference, MmseEstimator};
use secloc_obs::Obs;
use secloc_radio::loss::send_reliable;
use secloc_radio::Cycles;
use secloc_sim::{subseed, Deployment, NodeKind, ProbeContext, ProbeFaults, SimOutcome};

/// A reference a sensor kept for localization, tagged with its source.
#[derive(Debug, Clone, Copy)]
struct KeptReference {
    beacon: u32,
    reference: LocationReference,
}

/// Runs one seeded simulation of `deployment` under `plan`, the way the
/// simulator did before its hot paths were optimized.
///
/// It draws from the seeded streams of `secloc_sim::Runner` in the same
/// order, so when `plan` is the deployment's own `SimConfig::faults` the
/// outcome equals `Runner::from_deployment(deployment).run(RunOptions::new())`.
/// Telemetry and traces are left out: they consume no randomness.
///
/// 1. **Detection** — every live benign beacon probes, under each of its
///    `m` detecting IDs, every beacon it can hear (directly or through the
///    wormhole) and raises at most one alert per target.
/// 2. **Location discovery** — every sensor requests a beacon signal from
///    each beacon it can hear and keeps the signals that pass its replay
///    filters.
/// 3. **Alert delivery** — colluding malicious beacons flood their alert
///    budget first, then benign alerts follow in shuffled order; each alert
///    crosses the lossy report channel with retransmissions.
/// 4. **Revocation** — the base station applies the (τ, τ′) counters to
///    every delivered alert.
/// 5. **Impact** — mean localization error before and after revocation,
///    each a separate pass over the sensors.
pub fn run(deployment: &Deployment, plan: &FaultPlan) -> SimOutcome {
    let d = deployment;
    let cfg = d.config();
    let seed = d.seed();
    let ctx = ProbeContext::new(d, &Obs::disabled());
    let mut probe_rng = StdRng::seed_from_u64(subseed(seed, b"probe"));
    let mut order_rng = StdRng::seed_from_u64(subseed(seed, b"order"));

    // ---- Fault-plan resolution. -----------------------------------------
    // Each category resolves from its own subseeded stream; an absent
    // category touches no RNG and installs no machinery.
    let noise = (!plan.noise_regions.is_empty()).then(|| NoiseField::new(&plan.noise_regions));
    let drift = plan
        .clock_drift
        .map(|spec| DriftTable::generate(&spec, cfg.nodes, subseed(seed, b"fault-drift")));
    let churn = plan
        .churn
        .as_ref()
        .map(|spec| ChurnSchedule::generate(spec, cfg.beacons, subseed(seed, b"fault-churn")));
    // Per-node degradation: the requester's position is static, so its
    // noise figure and skew are too.
    let node_faults: Option<Vec<ProbeFaults>> = (noise.is_some() || drift.is_some()).then(|| {
        (0..cfg.nodes)
            .map(|i| ProbeFaults {
                noise_figure: noise.as_ref().map_or(1.0, |f| f.figure_at(d.position(i))),
                skew: drift.as_ref().map_or(Cycles::ZERO, |t| t.skew(i)),
            })
            .collect()
    });
    let fx_of = |i: u32| {
        node_faults
            .as_ref()
            .map_or(&ProbeFaults::NONE, |v| &v[i as usize])
    };
    let alive = |node: u32, t: Cycles| {
        churn
            .as_ref()
            .is_none_or(|c| c.is_alive(node, t.as_u64() as f64 / 1_000_000.0))
    };

    // ---- Phase 1: detection probes by benign beacons. -------------------
    let detectors = d.beacons_of_kind(NodeKind::BenignBeacon);
    let mut queue: EventQueue<(u32, u32)> = EventQueue::new();
    for &u in &detectors {
        for v in audible_beacons(d, u) {
            queue.schedule(Cycles::new(order_rng.gen_range(0..1_000_000)), (u, v));
        }
    }
    let mut benign_alerts: Vec<Alert> = Vec::new();
    while let Some((t, (u, v))) = queue.pop() {
        if !alive(u, t) || !alive(v, t) {
            continue;
        }
        for k in 0..cfg.detecting_ids {
            let wire = d.ids().detecting_id(u, k);
            let Some(result) = ctx.probe(u, wire, v, fx_of(u), &mut probe_rng) else {
                break;
            };
            if result.outcome.raises_alert() {
                benign_alerts.push(Alert::new(NodeId(u), NodeId(v)));
                break; // one alert per (detector, target)
            }
        }
    }

    // ---- Phase 2: location discovery by sensors. ------------------------
    let mut queue: EventQueue<(u32, u32)> = EventQueue::new();
    for w in d.sensors() {
        for v in audible_beacons(d, w) {
            queue.schedule(Cycles::new(order_rng.gen_range(0..1_000_000)), (w, v));
        }
    }
    let mut kept: Vec<Vec<KeptReference>> = vec![Vec::new(); cfg.nodes as usize];
    // poisoned[v] = sensors that accepted a malicious signal from v.
    let mut poisoned: Vec<Vec<u32>> = vec![Vec::new(); cfg.beacons as usize];
    while let Some((t, (w, v))) = queue.pop() {
        if !alive(v, t) {
            continue;
        }
        let Some(result) = ctx.probe(w, NodeId(w), v, fx_of(w), &mut probe_rng) else {
            continue;
        };
        if !result.accepted_for_localization {
            continue;
        }
        kept[w as usize].push(KeptReference {
            beacon: v,
            reference: LocationReference::new(
                result.observation.declared_position,
                result.observation.measured_distance_ft,
            ),
        });
        if result.action == Some(Action::MaliciousSignal) {
            poisoned[v as usize].push(w);
        }
    }

    // ---- Phase 3: alert delivery over the lossy report channel. ---------
    let mut alert_loss = AlertChannel::from_plan(plan, cfg.alert_loss_rate);
    let mut loss_rng = StdRng::seed_from_u64(subseed(seed, b"alert-loss"));
    let mut submissions: Vec<(Alert, bool)> = Vec::new();
    let mut collusion_alerts = 0usize;
    if cfg.collusion && cfg.malicious > 0 {
        let colluders: Vec<NodeId> = d
            .beacons_of_kind(NodeKind::MaliciousBeacon)
            .into_iter()
            // A colluder that churn killed for good sends nothing; one
            // that rebooted rejoins the spam campaign.
            .filter(|&b| churn.as_ref().is_none_or(|c| c.is_alive(b, 1.0)))
            .map(NodeId)
            .collect();
        let mut victims: Vec<NodeId> = detectors.iter().copied().map(NodeId).collect();
        victims.shuffle(&mut order_rng);
        let policy = CollusionPolicy::new(cfg.tau, cfg.tau_prime);
        for (reporter, target) in policy.alerts(&colluders, &victims) {
            let sent = send_reliable(&mut alert_loss, cfg.alert_retransmissions, &mut loss_rng);
            submissions.push((Alert::new(reporter, target), sent.delivered));
            collusion_alerts += 1;
        }
    }
    benign_alerts.shuffle(&mut order_rng);
    let benign_alert_count = benign_alerts.len();
    for alert in benign_alerts {
        let sent = send_reliable(&mut alert_loss, cfg.alert_retransmissions, &mut loss_rng);
        submissions.push((alert, sent.delivered));
    }

    // ---- Phase 4: revocation at the base station. -----------------------
    let mut station = RevocationMachine::new(RevocationConfig {
        tau: cfg.tau,
        tau_prime: cfg.tau_prime,
    });
    for (alert, delivered) in submissions {
        if delivered {
            station.decide(alert.reporter, alert.target);
        }
    }

    // ---- Phase 5: impact metrics. ---------------------------------------
    let malicious = d.beacons_of_kind(NodeKind::MaliciousBeacon);
    let revoked = |v: u32| station.is_revoked(NodeId(v));
    let (affected_before, affected_after) = if malicious.is_empty() {
        (0.0, 0.0)
    } else {
        let before: usize = malicious.iter().map(|&v| poisoned[v as usize].len()).sum();
        let after: usize = malicious
            .iter()
            .filter(|&&v| !revoked(v))
            .map(|&v| poisoned[v as usize].len())
            .sum();
        (
            before as f64 / malicious.len() as f64,
            after as f64 / malicious.len() as f64,
        )
    };
    let estimator = MmseEstimator::default();
    let field = secloc_geometry::Field::square(cfg.field_side_ft);
    let mean_error = |filter_revoked: bool| -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for w in d.sensors() {
            let refs: Vec<LocationReference> = kept[w as usize]
                .iter()
                .filter(|k| !filter_revoked || !revoked(k.beacon))
                .map(|k| k.reference)
                .collect();
            if refs.len() < estimator.min_references() {
                continue;
            }
            if let Ok(est) = mmse::estimate(&estimator, &refs) {
                // A deployed node knows the field bounds; poisoned
                // constraints can push the least-squares solution outside
                // them, so clamp like a real stack would.
                sum += field.clamp(est.position).distance(d.position(w));
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    };

    SimOutcome {
        malicious_total: malicious.len() as u32,
        benign_total: detectors.len() as u32,
        revoked_malicious: malicious.iter().filter(|&&v| revoked(v)).count() as u32,
        revoked_benign: detectors.iter().filter(|&&v| revoked(v)).count() as u32,
        affected_before,
        affected_after,
        benign_alerts: benign_alert_count,
        collusion_alerts,
        mean_requesters_per_beacon: d.mean_requesters_per_beacon(),
        mean_loc_error_before_ft: mean_error(false),
        mean_loc_error_after_ft: mean_error(true),
    }
}

/// Beacons a node can hear: direct neighbours plus benign beacons
/// reachable through the wormhole. Allocates the result and scans every
/// beacon for wormhole reachability; production reads the per-topology
/// cache behind `Deployment::audible_beacons` instead.
fn audible_beacons(d: &Deployment, node: u32) -> Vec<u32> {
    let cfg = d.config();
    let mut targets: Vec<u32> = d
        .neighbors(node)
        .into_iter()
        .filter(|&v| v < cfg.beacons)
        .collect();
    if let Some(w) = d.wormhole() {
        let my_pos = d.position(node);
        for v in 0..cfg.beacons {
            if v == node || d.kind(v) != NodeKind::BenignBeacon {
                continue;
            }
            let vp = d.position(v);
            if my_pos.distance(vp) > cfg.range_ft && w.tunnels(vp, my_pos, cfg.range_ft) {
                targets.push(v);
            }
        }
    }
    targets
}
