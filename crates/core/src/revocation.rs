//! The thresholds and verdicts of the base station's revocation scheme
//! (§3.1). [`RevocationMachine`](crate::RevocationMachine) is the one
//! implementation of the scheme; the §3.1 regressions below drive it
//! directly.

/// The two thresholds of the revocation scheme.
///
/// - `tau` (τ): per-reporter cap — an alert is accepted only while the
///   reporter's report counter "has not exceeded" τ, so each node gets at
///   most `τ + 1` alerts accepted.
/// - `tau_prime` (τ′): revocation threshold — a target is revoked when the
///   number of **distinct** reporters accusing it "exceeds" τ′, i.e. when
///   its `τ′ + 1`-th distinct accuser is heard. Repeats of an accusation
///   the base station has already accepted are discarded, so a single
///   reporter can never drive a target's alert counter past τ′ alone; the
///   per-reporter damage cap the scheme is built around holds per target
///   as well as in aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocationConfig {
    /// Per-reporter report cap τ.
    pub tau: u32,
    /// Per-target revocation threshold τ′.
    pub tau_prime: u32,
}

impl RevocationConfig {
    /// The candidate pair the paper's §3.2 analysis settles on:
    /// `(τ, τ′) = (2, 2)`.
    pub fn paper_default() -> Self {
        RevocationConfig {
            tau: 2,
            tau_prime: 2,
        }
    }
}

/// What the base station did with one alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertOutcome {
    /// Counted; the target is still in the network.
    Accepted,
    /// Counted, and it pushed the target over τ′: the target is revoked.
    AcceptedAndRevoked,
    /// Ignored: the reporter has spent its report budget.
    IgnoredReporterBudget,
    /// Ignored: the target is already revoked.
    IgnoredTargetRevoked,
    /// Ignored: this (reporter, target) accusation was already accepted.
    /// Duplicates count toward neither the target's alert counter nor the
    /// reporter's budget.
    IgnoredDuplicate,
}

impl AlertOutcome {
    /// Whether the alert was counted at all.
    pub fn accepted(self) -> bool {
        matches!(
            self,
            AlertOutcome::Accepted | AlertOutcome::AcceptedAndRevoked
        )
    }

    /// The wire label of this decision, as carried by `bs.alert` and
    /// `alerter.decision` events (and cross-checked by
    /// `secloc_obs::health`'s counter-anomaly detector — keep the two
    /// vocabularies in sync).
    pub fn wire_label(self) -> &'static str {
        match self {
            AlertOutcome::Accepted => "accepted",
            AlertOutcome::AcceptedAndRevoked => "accepted_and_revoked",
            AlertOutcome::IgnoredReporterBudget => "ignored_reporter_budget",
            AlertOutcome::IgnoredTargetRevoked => "ignored_target_revoked",
            AlertOutcome::IgnoredDuplicate => "ignored_duplicate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alert, RevocationMachine};
    use secloc_crypto::NodeId;

    /// Submits reporter `r`'s accusation against `t`.
    fn alert(m: &mut RevocationMachine, r: u32, t: u32) -> AlertOutcome {
        m.decide(NodeId(r), NodeId(t))
    }

    #[test]
    fn revokes_after_tau_prime_plus_one_alerts() {
        let mut m = RevocationMachine::new(RevocationConfig {
            tau: 10,
            tau_prime: 2,
        });
        assert_eq!(alert(&mut m, 1, 50), AlertOutcome::Accepted);
        assert_eq!(alert(&mut m, 2, 50), AlertOutcome::Accepted);
        assert!(!m.is_revoked(NodeId(50)));
        assert_eq!(alert(&mut m, 3, 50), AlertOutcome::AcceptedAndRevoked);
        assert!(m.is_revoked(NodeId(50)));
        assert_eq!(m.suspiciousness(NodeId(50)), 3);
    }

    #[test]
    fn reporter_budget_is_tau_plus_one() {
        let cfg = RevocationConfig {
            tau: 2,
            tau_prime: 100,
        };
        let mut m = RevocationMachine::new(cfg);
        // Reporter 1 fires at distinct targets.
        assert!(alert(&mut m, 1, 10).accepted());
        assert!(alert(&mut m, 1, 11).accepted());
        assert!(alert(&mut m, 1, 12).accepted());
        // Counter now 3 > tau=2: further alerts ignored.
        assert_eq!(alert(&mut m, 1, 13), AlertOutcome::IgnoredReporterBudget);
        assert_eq!(m.reports_spent(NodeId(1)), 3);
        assert_eq!(m.suspiciousness(NodeId(13)), 0);
    }

    #[test]
    fn alerts_against_revoked_targets_ignored_and_cost_nothing() {
        let mut m = RevocationMachine::new(RevocationConfig {
            tau: 5,
            tau_prime: 0,
        });
        assert_eq!(alert(&mut m, 1, 9), AlertOutcome::AcceptedAndRevoked);
        let spent_before = m.reports_spent(NodeId(2));
        assert_eq!(alert(&mut m, 2, 9), AlertOutcome::IgnoredTargetRevoked);
        // The ignored alert does not consume reporter 2's budget.
        assert_eq!(m.reports_spent(NodeId(2)), spent_before);
    }

    #[test]
    fn revoked_reporter_still_heard() {
        // §3.1: "the alert from a revoked detecting node will still be
        // accepted ... if its report counter does not exceed τ".
        let mut m = RevocationMachine::new(RevocationConfig {
            tau: 5,
            tau_prime: 0,
        });
        alert(&mut m, 1, 2); // revokes node 2 instantly (tau'=0)
        assert!(m.is_revoked(NodeId(2)));
        // Node 2 (revoked) reports node 3: still accepted.
        assert_eq!(alert(&mut m, 2, 3), AlertOutcome::AcceptedAndRevoked);
        assert!(m.is_revoked(NodeId(3)));
    }

    #[test]
    fn collusion_bound_matches_formula() {
        // Na=4 colluders, tau=2 (budget 3 each), tau'=2 (cost 3): they can
        // revoke exactly 4*3/3 = 4 benign victims.
        let cfg = RevocationConfig {
            tau: 2,
            tau_prime: 2,
        };
        let mut m = RevocationMachine::new(cfg);
        let colluders: Vec<NodeId> = (0..4).map(NodeId).collect();
        let victims: Vec<NodeId> = (100..200).map(NodeId).collect();
        let policy = secloc_attack_stub::alerts(&colluders, &victims, cfg.tau, cfg.tau_prime);
        for a in policy {
            m.decide(a.reporter, a.target);
        }
        assert_eq!(m.revoked_nodes().len(), 4);
    }

    /// Minimal local copy of the collusion stream so this crate's tests
    /// don't depend on `secloc-attack` (keeping the dependency graph
    /// acyclic and lean). Mirrors the distinct-quorum strategy: every
    /// victim is accused by `τ′ + 1` *different* colluders, each spending
    /// one unit of its `τ + 1` budget.
    mod secloc_attack_stub {
        use super::*;
        pub(crate) fn alerts(
            colluders: &[NodeId],
            victims: &[NodeId],
            tau: u32,
            tau_prime: u32,
        ) -> Vec<Alert> {
            let quorum = (tau_prime + 1) as usize;
            let mut budget = vec![tau + 1; colluders.len()];
            let mut out = Vec::new();
            for &victim in victims {
                let mut with_budget: Vec<usize> =
                    (0..colluders.len()).filter(|&i| budget[i] > 0).collect();
                if with_budget.len() < quorum {
                    break;
                }
                with_budget.sort_by(|&a, &b| budget[b].cmp(&budget[a]));
                for &i in with_budget.iter().take(quorum) {
                    out.push(Alert::new(colluders[i], victim));
                    budget[i] -= 1;
                }
            }
            out
        }
    }

    #[test]
    fn paper_default_thresholds() {
        let cfg = RevocationConfig::paper_default();
        assert_eq!((cfg.tau, cfg.tau_prime), (2, 2));
        assert_eq!(RevocationMachine::new(cfg).config(), cfg);
    }

    #[test]
    fn single_reporter_spam_cannot_revoke() {
        // Regression: with the paper's (τ, τ′) = (2, 2) a lone malicious
        // reporter used to revoke any benign beacon by repeating itself
        // three times. Repeats are now IgnoredDuplicate and count nowhere.
        let mut m = RevocationMachine::new(RevocationConfig::paper_default());
        assert_eq!(alert(&mut m, 1, 9), AlertOutcome::Accepted);
        for _ in 0..10 {
            assert_eq!(alert(&mut m, 1, 9), AlertOutcome::IgnoredDuplicate);
        }
        assert!(!m.is_revoked(NodeId(9)), "one accuser is never a quorum");
        assert_eq!(m.suspiciousness(NodeId(9)), 1);
        assert_eq!(m.reports_spent(NodeId(1)), 1);
    }

    #[test]
    fn tau_prime_plus_one_distinct_reporters_still_revoke() {
        // Regression counterpart: τ′ + 1 = 3 distinct accusers do revoke.
        let mut m = RevocationMachine::new(RevocationConfig::paper_default());
        assert_eq!(alert(&mut m, 1, 9), AlertOutcome::Accepted);
        assert_eq!(alert(&mut m, 2, 9), AlertOutcome::Accepted);
        assert!(!m.is_revoked(NodeId(9)));
        assert_eq!(alert(&mut m, 3, 9), AlertOutcome::AcceptedAndRevoked);
        assert!(m.is_revoked(NodeId(9)));
    }

    #[test]
    fn duplicates_consume_no_report_budget() {
        let mut m = RevocationMachine::new(RevocationConfig {
            tau: 2,
            tau_prime: 100,
        });
        alert(&mut m, 1, 10);
        for _ in 0..5 {
            assert_eq!(alert(&mut m, 1, 10), AlertOutcome::IgnoredDuplicate);
        }
        assert_eq!(m.reports_spent(NodeId(1)), 1);
        assert!(m.state().accused[1].contains(&NodeId(10)));
        // The saved budget still buys distinct accusations.
        assert!(alert(&mut m, 1, 11).accepted());
        assert!(alert(&mut m, 1, 12).accepted());
        assert_eq!(m.reports_spent(NodeId(1)), 3);
    }

    #[test]
    fn over_budget_repeat_reads_as_budget_not_duplicate() {
        // Check ordering: the §3.1 budget gate fires before the duplicate
        // filter, so an exhausted reporter's repeat is budget exhaustion.
        let mut m = RevocationMachine::new(RevocationConfig {
            tau: 0,
            tau_prime: 100,
        });
        assert!(alert(&mut m, 1, 10).accepted()); // spends the whole budget
        assert_eq!(alert(&mut m, 1, 10), AlertOutcome::IgnoredReporterBudget);
    }

    #[test]
    fn revoking_a_detector_does_not_silence_it() {
        // §3.1 ordering audit: colluders who spend a quorum revoking a
        // benign detector FIRST must not thereby silence it — the paper
        // keeps accepting alerts from revoked reporters precisely so this
        // pre-emptive strike buys the attacker nothing.
        let mut m = RevocationMachine::new(RevocationConfig::paper_default());
        // Colluders 100..103 revoke benign detector 7.
        assert_eq!(alert(&mut m, 100, 7), AlertOutcome::Accepted);
        assert_eq!(alert(&mut m, 101, 7), AlertOutcome::Accepted);
        assert_eq!(alert(&mut m, 102, 7), AlertOutcome::AcceptedAndRevoked);
        assert!(m.is_revoked(NodeId(7)));
        // Detector 7's accusation against malicious beacon 50 still counts
        // toward the quorum exactly like anyone else's.
        assert_eq!(alert(&mut m, 7, 50), AlertOutcome::Accepted);
        assert_eq!(alert(&mut m, 8, 50), AlertOutcome::Accepted);
        assert_eq!(alert(&mut m, 9, 50), AlertOutcome::AcceptedAndRevoked);
        assert!(m.is_revoked(NodeId(50)));
        assert_eq!(m.suspiciousness(NodeId(50)), 3);
    }
}
