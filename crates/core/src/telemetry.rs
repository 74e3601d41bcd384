//! Metric handles for the detection pipeline and the base station.
//!
//! The domain types ([`DetectionPipeline`], [`RevocationMachine`]) hold no
//! metric handles; callers that want telemetry resolve these handle
//! bundles once from a [`MetricsRegistry`] and record outcomes at the call
//! site. Each handle is an `Arc`-backed counter, so recording is
//! a single atomic add; code without a registry simply holds `None` and
//! pays one branch.

use crate::{AlertOutcome, DetectionOutcome};
use secloc_obs::{Counter, Gauge, MetricsRegistry};

/// Counters for every stage of the §2 detection pipeline.
///
/// Names (see `DESIGN.md` § Observability):
///
/// - `pipeline.verdict.{benign,wormhole_replay,local_replay,alert}` — final
///   classification of each evaluated observation;
/// - `pipeline.wormhole.{replay,proceed}` — the wormhole filter's decision
///   on malicious-looking signals;
/// - `pipeline.rtt.{fresh,local_replay}` — the RTT filter's decision on
///   signals that survived the wormhole filter;
/// - `pipeline.localization.{accepted,rejected}` — the non-beacon view:
///   whether a sensor keeps the signal for location estimation.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    verdict_benign: Counter,
    verdict_wormhole_replay: Counter,
    verdict_local_replay: Counter,
    verdict_alert: Counter,
    wormhole_replay: Counter,
    wormhole_proceed: Counter,
    rtt_fresh: Counter,
    rtt_local_replay: Counter,
    localization_accepted: Counter,
    localization_rejected: Counter,
}

impl PipelineMetrics {
    /// Resolves the pipeline counters from `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        PipelineMetrics {
            verdict_benign: registry.counter("pipeline.verdict.benign"),
            verdict_wormhole_replay: registry.counter("pipeline.verdict.wormhole_replay"),
            verdict_local_replay: registry.counter("pipeline.verdict.local_replay"),
            verdict_alert: registry.counter("pipeline.verdict.alert"),
            wormhole_replay: registry.counter("pipeline.wormhole.replay"),
            wormhole_proceed: registry.counter("pipeline.wormhole.proceed"),
            rtt_fresh: registry.counter("pipeline.rtt.fresh"),
            rtt_local_replay: registry.counter("pipeline.rtt.local_replay"),
            localization_accepted: registry.counter("pipeline.localization.accepted"),
            localization_rejected: registry.counter("pipeline.localization.rejected"),
        }
    }

    /// Records `n` identical final verdicts with one update per counter,
    /// including the implied per-stage decisions (the pipeline's stage
    /// order makes them derivable: only malicious-looking signals reach the
    /// wormhole filter, only its survivors reach the RTT filter). Callers
    /// tally a hot loop locally and flush once.
    pub fn add_verdicts(&self, outcome: DetectionOutcome, n: u64) {
        if n == 0 {
            return;
        }
        match outcome {
            DetectionOutcome::Benign => self.verdict_benign.add(n),
            DetectionOutcome::IgnoredWormholeReplay => {
                self.verdict_wormhole_replay.add(n);
                self.wormhole_replay.add(n);
            }
            DetectionOutcome::IgnoredLocalReplay => {
                self.verdict_local_replay.add(n);
                self.wormhole_proceed.add(n);
                self.rtt_local_replay.add(n);
            }
            DetectionOutcome::Alert => {
                self.verdict_alert.add(n);
                self.wormhole_proceed.add(n);
                self.rtt_fresh.add(n);
            }
        }
    }

    /// Records `n` non-beacon requesters that kept (`accepted`) or
    /// dropped the signal.
    pub fn add_localizations(&self, accepted: bool, n: u64) {
        if n == 0 {
            return;
        }
        if accepted {
            self.localization_accepted.add(n);
        } else {
            self.localization_rejected.add(n);
        }
    }
}

/// Counters for the base station's §3.1 alert decisions.
///
/// Names: `bs.alert.{accepted,accepted_and_revoked,ignored_reporter_budget,
/// ignored_target_revoked,ignored_duplicate}`, plus gauge
/// `bs.revoked_nodes`.
#[derive(Debug, Clone)]
pub struct AlertMetrics {
    accepted: Counter,
    accepted_and_revoked: Counter,
    ignored_reporter_budget: Counter,
    ignored_target_revoked: Counter,
    ignored_duplicate: Counter,
    revoked_nodes: Gauge,
}

impl AlertMetrics {
    /// Resolves the alert counters from `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        AlertMetrics {
            accepted: registry.counter("bs.alert.accepted"),
            accepted_and_revoked: registry.counter("bs.alert.accepted_and_revoked"),
            ignored_reporter_budget: registry.counter("bs.alert.ignored_reporter_budget"),
            ignored_target_revoked: registry.counter("bs.alert.ignored_target_revoked"),
            ignored_duplicate: registry.counter("bs.alert.ignored_duplicate"),
            revoked_nodes: registry.gauge("bs.revoked_nodes"),
        }
    }

    /// Records one base-station decision; revocations also bump the
    /// `bs.revoked_nodes` gauge.
    pub fn record(&self, outcome: AlertOutcome) {
        match outcome {
            AlertOutcome::Accepted => self.accepted.incr(),
            AlertOutcome::AcceptedAndRevoked => {
                self.accepted_and_revoked.incr();
                self.revoked_nodes.add(1);
            }
            AlertOutcome::IgnoredReporterBudget => self.ignored_reporter_budget.incr(),
            AlertOutcome::IgnoredTargetRevoked => self.ignored_target_revoked.incr(),
            AlertOutcome::IgnoredDuplicate => self.ignored_duplicate.incr(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_imply_stage_counters() {
        let registry = MetricsRegistry::new();
        let m = PipelineMetrics::new(&registry);
        m.add_verdicts(DetectionOutcome::Benign, 1);
        m.add_verdicts(DetectionOutcome::IgnoredWormholeReplay, 1);
        m.add_verdicts(DetectionOutcome::IgnoredLocalReplay, 1);
        m.add_verdicts(DetectionOutcome::Alert, 1);
        m.add_verdicts(DetectionOutcome::Alert, 1);
        let s = registry.snapshot();
        assert_eq!(s.counter("pipeline.verdict.benign"), Some(1));
        assert_eq!(s.counter("pipeline.verdict.wormhole_replay"), Some(1));
        assert_eq!(s.counter("pipeline.verdict.local_replay"), Some(1));
        assert_eq!(s.counter("pipeline.verdict.alert"), Some(2));
        // Four malicious-looking signals hit the wormhole filter: one
        // suppressed, three proceed to the RTT filter.
        assert_eq!(s.counter("pipeline.wormhole.replay"), Some(1));
        assert_eq!(s.counter("pipeline.wormhole.proceed"), Some(3));
        assert_eq!(s.counter("pipeline.rtt.local_replay"), Some(1));
        assert_eq!(s.counter("pipeline.rtt.fresh"), Some(2));
    }

    #[test]
    fn localization_split() {
        let registry = MetricsRegistry::new();
        let m = PipelineMetrics::new(&registry);
        m.add_localizations(true, 1);
        m.add_localizations(true, 1);
        m.add_localizations(false, 1);
        let s = registry.snapshot();
        assert_eq!(s.counter("pipeline.localization.accepted"), Some(2));
        assert_eq!(s.counter("pipeline.localization.rejected"), Some(1));
    }

    #[test]
    fn alert_outcomes_and_revoked_gauge() {
        let registry = MetricsRegistry::new();
        let m = AlertMetrics::new(&registry);
        m.record(AlertOutcome::Accepted);
        m.record(AlertOutcome::AcceptedAndRevoked);
        m.record(AlertOutcome::AcceptedAndRevoked);
        m.record(AlertOutcome::IgnoredReporterBudget);
        m.record(AlertOutcome::IgnoredTargetRevoked);
        m.record(AlertOutcome::IgnoredDuplicate);
        m.record(AlertOutcome::IgnoredDuplicate);
        let s = registry.snapshot();
        assert_eq!(s.counter("bs.alert.accepted"), Some(1));
        assert_eq!(s.counter("bs.alert.accepted_and_revoked"), Some(2));
        assert_eq!(s.counter("bs.alert.ignored_reporter_budget"), Some(1));
        assert_eq!(s.counter("bs.alert.ignored_target_revoked"), Some(1));
        assert_eq!(s.counter("bs.alert.ignored_duplicate"), Some(2));
        assert_eq!(s.gauge("bs.revoked_nodes"), Some(2));
    }
}
