//! Beacon churn: nodes dying and rebooting mid-run.

use crate::FaultError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One downtime window for one beacon, as fractions of the run's
/// `[0, 1)` timeline. `until_frac >= 1.0` (including `f64::INFINITY`)
/// means the beacon never reboots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// The beacon index the outage applies to.
    pub node: u32,
    /// Start of the downtime, as a fraction of the run.
    pub from_frac: f64,
    /// End of the downtime (exclusive), as a fraction of the run.
    pub until_frac: f64,
}

/// Churn parameters: explicit scheduled outages plus an optional random
/// outage process over the remaining beacons.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnSpec {
    /// Probability that each beacon (without a scheduled outage) suffers
    /// one random outage during the run.
    pub outage_rate: f64,
    /// Maximum length of a random outage as a fraction of the run, in
    /// `(0, 1]`. Outages starting late enough simply never end (no
    /// reboot). Ignored when `outage_rate` is zero.
    pub max_downtime_frac: f64,
    /// Explicit outages, applied verbatim before any random draws.
    pub scheduled: Vec<Outage>,
}

impl ChurnSpec {
    /// Random churn: each beacon goes down once with probability
    /// `outage_rate`, for up to `max_downtime_frac` of the run.
    pub fn random(outage_rate: f64, max_downtime_frac: f64) -> Self {
        ChurnSpec {
            outage_rate,
            max_downtime_frac,
            scheduled: Vec::new(),
        }
    }

    /// Checks the spec's parameters for internal consistency.
    pub fn validate(&self) -> Result<(), FaultError> {
        if !(0.0..=1.0).contains(&self.outage_rate) {
            return Err(FaultError::ProbabilityOutOfRange {
                field: "churn.outage_rate",
                value: self.outage_rate,
            });
        }
        if self.outage_rate > 0.0
            && !(self.max_downtime_frac > 0.0 && self.max_downtime_frac <= 1.0)
        {
            return Err(FaultError::BadDowntimeFraction(self.max_downtime_frac));
        }
        for o in &self.scheduled {
            let start_ok = (0.0..1.0).contains(&o.from_frac);
            // `partial_cmp` keeps NaN windows invalid (no ordering => reject).
            let window_ok =
                o.until_frac.partial_cmp(&o.from_frac) == Some(std::cmp::Ordering::Greater);
            if !start_ok || !window_ok {
                return Err(FaultError::BadOutageWindow {
                    node: o.node,
                    from: o.from_frac,
                    until: o.until_frac,
                });
            }
        }
        Ok(())
    }
}

/// The resolved downtime windows for one run.
///
/// Built once per run from its own seeded stream; `is_alive` is then a
/// pure lookup. Nodes at or beyond `beacons` (sensors) never churn.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    beacons: u32,
    // windows[b] = downtime intervals of beacon b, possibly empty.
    windows: Vec<Vec<(f64, f64)>>,
}

impl ChurnSchedule {
    /// Resolves `spec` over `beacons` beacons, drawing random outages from
    /// the churn stream seeded by `seed`.
    ///
    /// Random draws happen for every beacon in ascending index order
    /// (whether or not it ends up with an outage), so the schedule is
    /// fully determined by `(spec, beacons, seed)`.
    pub fn generate(spec: &ChurnSpec, beacons: u32, seed: u64) -> Self {
        let mut windows = vec![Vec::new(); beacons as usize];
        for o in &spec.scheduled {
            if o.node < beacons {
                windows[o.node as usize].push((o.from_frac, o.until_frac));
            }
        }
        if spec.outage_rate > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            for b in 0..beacons {
                if !rng.gen_bool(spec.outage_rate) {
                    continue;
                }
                let from: f64 = rng.gen_range(0.0..1.0);
                let len: f64 = rng.gen_range(0.0..spec.max_downtime_frac);
                windows[b as usize].push((from, from + len));
            }
        }
        ChurnSchedule { beacons, windows }
    }

    /// Whether node `i` is up at time `frac` (a fraction of the run).
    /// Non-beacon nodes are always up.
    pub fn is_alive(&self, i: u32, frac: f64) -> bool {
        if i >= self.beacons {
            return true;
        }
        !self.windows[i as usize]
            .iter()
            .any(|&(from, until)| frac >= from && frac < until)
    }

    /// Total number of downtime windows in the schedule.
    pub fn outage_count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_outage_windows_apply() {
        let spec = ChurnSpec {
            scheduled: vec![
                Outage {
                    node: 2,
                    from_frac: 0.25,
                    until_frac: 0.5,
                },
                Outage {
                    node: 5,
                    from_frac: 0.0,
                    until_frac: f64::INFINITY,
                },
            ],
            ..ChurnSpec::default()
        };
        assert!(spec.validate().is_ok());
        let s = ChurnSchedule::generate(&spec, 10, 0);
        assert_eq!(s.outage_count(), 2);
        assert!(s.is_alive(2, 0.1));
        assert!(!s.is_alive(2, 0.3));
        assert!(s.is_alive(2, 0.5), "window end is exclusive");
        assert!(!s.is_alive(5, 0.0));
        assert!(!s.is_alive(5, 0.999));
        assert!(s.is_alive(3, 0.3), "unscheduled beacon stays up");
        assert!(s.is_alive(10, 0.3), "sensors never churn");
        assert!(s.is_alive(999, 0.3));
    }

    #[test]
    fn random_churn_is_deterministic_per_seed() {
        let spec = ChurnSpec::random(0.5, 0.4);
        let a = ChurnSchedule::generate(&spec, 50, 9);
        let b = ChurnSchedule::generate(&spec, 50, 9);
        assert_eq!(a, b);
        let c = ChurnSchedule::generate(&spec, 50, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn outage_rate_tracks_outage_count() {
        let spec = ChurnSpec::random(0.3, 0.2);
        let total: usize = (0..20)
            .map(|seed| ChurnSchedule::generate(&spec, 100, seed).outage_count())
            .sum();
        let rate = total as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "outage rate drifted: {rate}");
    }

    #[test]
    fn zero_rate_schedules_nothing() {
        let s = ChurnSchedule::generate(&ChurnSpec::default(), 40, 1);
        assert_eq!(s.outage_count(), 0);
        assert!((0..40).all(|b| s.is_alive(b, 0.5)));
    }

    #[test]
    fn validation_catches_bad_windows() {
        let spec = ChurnSpec {
            scheduled: vec![Outage {
                node: 1,
                from_frac: 0.5,
                until_frac: 0.5,
            }],
            ..ChurnSpec::default()
        };
        assert!(matches!(
            spec.validate(),
            Err(FaultError::BadOutageWindow { node: 1, .. })
        ));
        assert!(matches!(
            ChurnSpec::random(0.5, 0.0).validate(),
            Err(FaultError::BadDowntimeFraction(_))
        ));
        assert!(ChurnSpec::random(0.0, 0.0).validate().is_ok());
    }
}
