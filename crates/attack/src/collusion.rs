//! Colluding alert-spam against the revocation scheme (§3.2, §4).

use secloc_crypto::NodeId;
use std::cmp::Reverse;

/// The strategy colluding malicious beacons use against the base station:
/// each reporter's accepted alerts are capped at `τ + 1` (the report
/// counter must not have *exceeded* `τ` when an alert arrives), and the
/// station counts only **distinct** accusers toward τ′ — repeats of an
/// accepted `(reporter, target)` accusation are discarded. The best the
/// colluders can do is therefore gang up: every victim is accused by a
/// quorum of `τ′ + 1` *different* colluders, one budget unit each.
///
/// "They can always make the base station revoke about
/// `N_a (τ+1) / (τ′+1)` benign beacon nodes by simply reporting alerts"
/// (§4) — the quorum strategy achieves exactly that bound whenever
/// `N_a ≥ τ′ + 1`; fewer colluders than a quorum revoke nobody.
/// [`CollusionPolicy::expected_revocations`] is that bound;
/// [`CollusionPolicy::alerts`] emits the concrete alert stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollusionPolicy {
    /// The base station's per-reporter cap τ.
    pub tau: u32,
    /// The base station's revocation threshold τ′.
    pub tau_prime: u32,
}

impl CollusionPolicy {
    /// Creates a policy tuned against thresholds `(τ, τ′)`.
    pub fn new(tau: u32, tau_prime: u32) -> Self {
        CollusionPolicy { tau, tau_prime }
    }

    /// Alerts each malicious beacon can have accepted: `τ + 1`.
    pub fn budget_per_reporter(&self) -> u32 {
        self.tau + 1
    }

    /// Alerts needed to revoke one victim: `τ′ + 1`.
    pub fn cost_per_revocation(&self) -> u32 {
        self.tau_prime + 1
    }

    /// The paper's bound on benign beacons revoked through collusion —
    /// zero when the gang cannot field a full `τ′ + 1` quorum of distinct
    /// accusers.
    pub fn expected_revocations(&self, num_malicious: usize) -> usize {
        if num_malicious < self.cost_per_revocation() as usize {
            return 0;
        }
        (num_malicious * self.budget_per_reporter() as usize) / self.cost_per_revocation() as usize
    }

    /// Generates the colluders' alert stream: `(reporter, target)` pairs,
    /// concentrating fire so victims fall one after another. For each
    /// victim (taken in the order given) the `τ′ + 1` colluders with the
    /// most remaining budget accuse it once each — distinct accusers, as
    /// the base station requires; drawing from the largest budgets keeps
    /// them balanced, which is what achieves the `N_a (τ+1) / (τ′+1)`
    /// bound. The stream ends when no full quorum has budget left.
    /// Malicious beacons never accuse each other ("since this will
    /// increase the probability of a malicious beacon node being
    /// detected", §3.2).
    pub fn alerts(&self, colluders: &[NodeId], victims: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        self.alerts_into(
            colluders,
            victims,
            &mut out,
            &mut CollusionScratch::default(),
        );
        out
    }

    /// [`CollusionPolicy::alerts`] written into `out`, which is cleared
    /// first, with `scratch` as working memory: a caller that generates
    /// many streams reuses both and allocates nothing once they have grown.
    pub fn alerts_into(
        &self,
        colluders: &[NodeId],
        victims: &[NodeId],
        out: &mut Vec<(NodeId, NodeId)>,
        scratch: &mut CollusionScratch,
    ) {
        out.clear();
        let quorum = self.cost_per_revocation() as usize;
        if colluders.len() < quorum {
            return;
        }
        let CollusionScratch {
            budget,
            with_budget,
        } = scratch;
        budget.clear();
        budget.resize(colluders.len(), self.budget_per_reporter());
        for &victim in victims {
            with_budget.clear();
            with_budget.extend((0..colluders.len()).filter(|&i| budget[i] > 0));
            if with_budget.len() < quorum {
                break;
            }
            // Most budget first, ties in colluder-list order, keeping the
            // stream fully deterministic: the key is unique per colluder,
            // so the unstable sort orders exactly as a stable one would,
            // and needs no buffer.
            with_budget.sort_unstable_by_key(|&i| (Reverse(budget[i]), i));
            for &i in with_budget.iter().take(quorum) {
                out.push((colluders[i], victim));
                budget[i] -= 1;
            }
        }
    }
}

/// The working memory of [`CollusionPolicy::alerts_into`]: each
/// colluder's remaining budget, and the colluders that still have some.
#[derive(Debug, Clone, Default)]
pub struct CollusionScratch {
    budget: Vec<u32>,
    with_budget: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    #[test]
    fn budgets_and_costs() {
        let p = CollusionPolicy::new(2, 2);
        assert_eq!(p.budget_per_reporter(), 3);
        assert_eq!(p.cost_per_revocation(), 3);
        assert_eq!(p.expected_revocations(10), 10);
    }

    #[test]
    fn paper_bound_examples() {
        // tau=2, tau'=4: 10 colluders * 3 alerts / 5 per kill = 6 victims.
        assert_eq!(CollusionPolicy::new(2, 4).expected_revocations(10), 6);
        assert_eq!(CollusionPolicy::new(3, 2).expected_revocations(5), 6);
    }

    #[test]
    fn alert_stream_respects_budget() {
        let p = CollusionPolicy::new(2, 2);
        let colluders = ids(0..4);
        let victims = ids(100..200);
        let alerts = p.alerts(&colluders, &victims);
        for c in &colluders {
            let reported = alerts.iter().filter(|(r, _)| r == c).count();
            assert!(reported <= p.budget_per_reporter() as usize);
        }
    }

    #[test]
    fn alert_stream_concentrates_fire() {
        let p = CollusionPolicy::new(2, 2);
        let colluders = ids(0..4);
        let victims = ids(100..200);
        let alerts = p.alerts(&colluders, &victims);
        // First victim gets exactly cost_per_revocation alerts before any
        // later victim is touched.
        let first: Vec<_> = alerts.iter().take(3).map(|(_, t)| *t).collect();
        assert_eq!(first, vec![NodeId(100); 3]);
        // Expected revocation count achieved: 4*3/3 = 4 victims fully hit.
        let fully_hit = (100..200)
            .filter(|&v| alerts.iter().filter(|(_, t)| *t == NodeId(v)).count() >= 3)
            .count();
        assert_eq!(fully_hit, p.expected_revocations(4));
    }

    #[test]
    fn colluders_never_accuse_each_other() {
        let p = CollusionPolicy::new(2, 3);
        let colluders = ids(0..5);
        let victims = ids(50..60);
        for (r, t) in p.alerts(&colluders, &victims) {
            assert!(colluders.contains(&r));
            assert!(victims.contains(&t));
            assert!(!colluders.contains(&t));
        }
    }

    #[test]
    fn no_victims_no_alerts() {
        let p = CollusionPolicy::new(2, 2);
        assert!(p.alerts(&ids(0..3), &[]).is_empty());
    }

    #[test]
    fn each_victim_gets_distinct_accusers() {
        let p = CollusionPolicy::new(2, 2);
        let alerts = p.alerts(&ids(0..5), &ids(100..200));
        for v in 100..200u32 {
            let accusers: Vec<NodeId> = alerts
                .iter()
                .filter(|(_, t)| *t == NodeId(v))
                .map(|(r, _)| *r)
                .collect();
            let mut unique = accusers.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(
                accusers.len(),
                unique.len(),
                "victim {v} accused twice by one colluder"
            );
            assert!(
                accusers.is_empty() || accusers.len() == 3,
                "partial quorum on {v}"
            );
        }
    }

    #[test]
    fn below_quorum_gang_stays_silent() {
        // Two colluders cannot field a tau'+1 = 3 quorum: the distinct-
        // accuser base station would never revoke, so spending budget only
        // raises their own profile.
        let p = CollusionPolicy::new(2, 2);
        assert!(p.alerts(&ids(0..2), &ids(100..110)).is_empty());
        assert_eq!(p.expected_revocations(2), 0);
        assert_eq!(p.expected_revocations(3), 3);
    }

    /// The stream as first written: a fresh standings vector per victim,
    /// stably sorted by remaining budget.
    fn reference_alerts(
        p: CollusionPolicy,
        colluders: &[NodeId],
        victims: &[NodeId],
    ) -> Vec<(NodeId, NodeId)> {
        let quorum = p.cost_per_revocation() as usize;
        let mut out = Vec::new();
        if colluders.len() < quorum {
            return out;
        }
        let mut budget = vec![p.budget_per_reporter(); colluders.len()];
        for &victim in victims {
            let mut with_budget: Vec<usize> =
                (0..colluders.len()).filter(|&i| budget[i] > 0).collect();
            if with_budget.len() < quorum {
                break;
            }
            with_budget.sort_by(|&a, &b| budget[b].cmp(&budget[a]));
            for &i in with_budget.iter().take(quorum) {
                out.push((colluders[i], victim));
                budget[i] -= 1;
            }
        }
        out
    }

    #[test]
    fn streams_into_a_reused_scratch_match_the_stably_sorted_stream() {
        // Past 20 colluders the ranking runs past the sort's small-slice
        // path, with many ties in remaining budget.
        let mut out = vec![(NodeId(7), NodeId(7))];
        let mut scratch = CollusionScratch::default();
        for (tau, tau_prime, n) in [
            (2, 2, 4),
            (0, 0, 1),
            (4, 1, 30),
            (1, 3, 2),
            (3, 2, 25),
            (6, 4, 41),
        ] {
            let p = CollusionPolicy::new(tau, tau_prime);
            let (colluders, victims) = (ids(0..n), ids(100..160));
            let want = reference_alerts(p, &colluders, &victims);
            p.alerts_into(&colluders, &victims, &mut out, &mut scratch);
            assert_eq!(out, want, "tau={tau} tau'={tau_prime} n={n}");
            assert_eq!(p.alerts(&colluders, &victims), want);
        }
    }

    #[test]
    fn fewer_victims_than_budget_stops_early() {
        let p = CollusionPolicy::new(10, 0); // budget 11 each, 1 alert kills
        let alerts = p.alerts(&ids(0..2), &ids(100..103));
        // Only 3 victims exist; stream stops once all are dispatched.
        assert_eq!(alerts.len(), 3);
    }
}
