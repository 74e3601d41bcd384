//! Closed-form ROC curves (the theory behind Fig. 14).
//!
//! Each operating point of the revocation scheme is a pair of thresholds
//! `(τ, τ′)`. For a worst-case attacker (who sets `P` to maximise `N′` and
//! spends the full collusion budget):
//!
//! - the **detection rate** is `P_d` evaluated at the attacker-optimal `P`;
//! - the **false positive rate** is the §3.2 bound
//!   `N_f / (N_b − N_a)` clamped to 1.
//!
//! Sweeping `τ′` traces one ROC curve per `(N_a, τ)`.

use crate::impact::{false_positives_nf, max_affected_over_p};
use crate::revocation::{revocation_rate_pd, NetworkPopulation};

/// One closed-form ROC operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Revocation threshold τ′ of this point.
    pub tau_prime: u32,
    /// The attacker-optimal `P` at this operating point.
    pub attacker_p: f64,
    /// Expected false positive rate (worst-case collusion + wormholes).
    pub false_positive_rate: f64,
    /// Expected detection rate.
    pub detection_rate: f64,
}

/// Parameters of one ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocModel {
    /// Node population.
    pub population: NetworkPopulation,
    /// Report cap τ.
    pub tau: u32,
    /// Detecting IDs per beacon `m`.
    pub detecting_ids: u32,
    /// Requesting nodes per beacon `N_c`.
    pub requesters_per_beacon: u64,
    /// Wormholes among benign beacons `N_w`.
    pub wormholes: u64,
    /// Wormhole-detector rate `p_d`.
    pub wormhole_detection_rate: f64,
}

impl RocModel {
    /// Computes the operating point at `tau_prime`.
    pub fn point(&self, tau_prime: u32) -> RocPoint {
        let pop = self.population.validate();
        let opt = max_affected_over_p(
            self.detecting_ids,
            tau_prime,
            self.requesters_per_beacon,
            pop,
        );
        let detection = revocation_rate_pd(
            opt.p,
            self.detecting_ids,
            tau_prime,
            self.requesters_per_beacon,
            pop,
        );
        let nf = false_positives_nf(
            self.wormhole_detection_rate,
            self.wormholes,
            pop.malicious,
            self.tau,
            tau_prime,
        );
        let fp = (nf / pop.benign_beacons() as f64).min(1.0);
        RocPoint {
            tau_prime,
            attacker_p: opt.p,
            false_positive_rate: fp,
            detection_rate: detection,
        }
    }

    /// The curve over a τ′ sweep, ordered as given.
    pub fn curve(&self, tau_primes: &[u32]) -> Vec<RocPoint> {
        tau_primes.iter().map(|&tp| self.point(tp)).collect()
    }
}

/// One *measured* operating point: detection and false-positive rates
/// averaged over seeded simulation runs at a given severity of some
/// degradation (noise figure, burst-loss severity, …).
///
/// The closed-form [`RocPoint`] answers "what does the theory predict";
/// an `EmpiricalPoint` answers "what did the simulator actually do" —
/// the robustness bench sweeps severity and reports one of these per
/// setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalPoint {
    /// The swept severity parameter at this point (axis defined by the
    /// owning [`RobustnessCurve`]).
    pub severity: f64,
    /// Mean detection rate across runs.
    pub detection_rate: f64,
    /// Mean false positive rate across runs.
    pub false_positive_rate: f64,
    /// Runs averaged into this point.
    pub runs: u32,
}

/// A named curve of [`EmpiricalPoint`]s over one degradation axis.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessCurve {
    /// What the severity axis measures, e.g. `"noise_figure"`.
    pub axis: String,
    /// The measured points, in sweep order.
    pub points: Vec<EmpiricalPoint>,
}

impl RobustnessCurve {
    /// An empty curve over `axis`.
    pub fn new(axis: impl Into<String>) -> Self {
        RobustnessCurve {
            axis: axis.into(),
            points: Vec::new(),
        }
    }

    /// Appends a measured point.
    pub fn push(&mut self, point: EmpiricalPoint) {
        self.points.push(point);
    }

    /// Total detection-rate drop from the first point (the baseline
    /// severity) to the last (the harshest) — positive when the
    /// degradation hurts.
    pub fn detection_drop(&self) -> Option<f64> {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) if self.points.len() >= 2 => {
                Some(first.detection_rate - last.detection_rate)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(na: u64, tau: u32) -> RocModel {
        RocModel {
            population: NetworkPopulation {
                total: 1000,
                beacons: 100,
                malicious: na,
            },
            tau,
            detecting_ids: 8,
            requesters_per_beacon: 60,
            wormholes: 1,
            wormhole_detection_rate: 0.9,
        }
    }

    #[test]
    fn fp_falls_with_tau_prime() {
        let m = model(10, 2);
        let curve = m.curve(&[0, 1, 2, 3, 4, 6]);
        for w in curve.windows(2) {
            assert!(
                w[0].false_positive_rate >= w[1].false_positive_rate,
                "FP must fall as tau' rises: {curve:?}"
            );
        }
    }

    #[test]
    fn more_malicious_nodes_shift_fp_up() {
        // The paper's headline degradation: at matched tau', Na=10 costs
        // more false positives than Na=5.
        let small = model(5, 2).point(2);
        let large = model(10, 2).point(2);
        assert!(large.false_positive_rate > small.false_positive_rate);
    }

    #[test]
    fn small_na_achieves_high_detection_at_low_fp() {
        // "our technique can detect most of malicious beacon nodes with
        // small false positive rate (e.g., 5%) when there are a small
        // number of compromised beacon nodes".
        let curve = model(5, 2).curve(&[0, 1, 2, 3, 4]);
        let good = curve
            .iter()
            .find(|p| p.false_positive_rate <= 0.07 && p.detection_rate >= 0.8);
        assert!(good.is_some(), "no good operating point: {curve:?}");
    }

    #[test]
    fn larger_tau_raises_fp_at_matched_tau_prime() {
        let t2 = model(10, 2).point(2);
        let t4 = model(10, 4).point(2);
        assert!(t4.false_positive_rate > t2.false_positive_rate);
        // Detection is tau-independent in the closed form (tau only caps
        // reporters, which the analysis assumes non-binding).
        assert!((t4.detection_rate - t2.detection_rate).abs() < 1e-12);
    }

    #[test]
    fn robustness_curve_summaries() {
        let mut c = RobustnessCurve::new("noise_figure");
        assert!(c.detection_drop().is_none());
        for (severity, det) in [(1.0, 0.9), (2.0, 0.7), (3.0, 0.4)] {
            c.push(EmpiricalPoint {
                severity,
                detection_rate: det,
                false_positive_rate: 0.02,
                runs: 5,
            });
        }
        assert_eq!(c.axis, "noise_figure");
        assert!((c.detection_drop().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_are_probabilities() {
        for na in [0u64, 5, 10, 50] {
            for tp in 0..6 {
                let p = model(na, 3).point(tp);
                assert!((0.0..=1.0).contains(&p.false_positive_rate));
                assert!((0.0..=1.0).contains(&p.detection_rate));
                assert!((0.0..=1.0).contains(&p.attacker_p));
            }
        }
    }
}
