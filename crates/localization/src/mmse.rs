//! Minimum-mean-square-error multilateration.

use crate::{BatchedMmse, Estimate, EstimateError, Estimator, LocationReference, MmseScratch};

/// Least-squares multilateration, the paper's canonical stage-2 estimator.
///
/// Solving `min Σ (|p − aᵢ| − dᵢ)²` proceeds in two steps:
///
/// 1. **Linear seed.** Subtracting the circle equation of the last anchor
///    from every other yields a linear system `A p = b`, solved in closed
///    form via the 2×2 normal equations.
/// 2. **Gauss–Newton refinement** of the true nonlinear objective, which
///    tightens the seed under noisy distances.
///
/// Both steps run on the lane kernels of [`BatchedMmse`]: `estimate`
/// loads the references into a fresh [`MmseScratch`] and solves there.
/// Callers solving many sets should keep one scratch and call
/// [`BatchedMmse::estimate`] directly.
///
/// # Examples
///
/// ```
/// use secloc_geometry::Point2;
/// use secloc_localization::{Estimator, LocationReference, MmseEstimator};
///
/// let refs = vec![
///     LocationReference::new(Point2::new(0.0, 0.0), 5.0),
///     LocationReference::new(Point2::new(6.0, 0.0), 5.0),
///     LocationReference::new(Point2::new(3.0, 9.0), 5.0),
/// ];
/// let est = MmseEstimator::default().estimate(&refs)?;
/// assert!(est.position.distance(Point2::new(3.0, 4.0)) < 0.1);
/// # Ok::<(), secloc_localization::EstimateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmseEstimator {
    /// Maximum Gauss–Newton iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the update step, in feet.
    pub tolerance_ft: f64,
}

impl Default for MmseEstimator {
    fn default() -> Self {
        MmseEstimator {
            max_iterations: 50,
            tolerance_ft: 1e-6,
        }
    }
}

impl Estimator for MmseEstimator {
    fn estimate(&self, refs: &[LocationReference]) -> Result<Estimate, EstimateError> {
        let mut scratch = MmseScratch::with_capacity(refs.len());
        scratch.load(refs);
        BatchedMmse::exact(*self).estimate(&scratch)
    }

    fn min_references(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secloc_geometry::Point2;

    fn exact_refs(truth: Point2, anchors: &[(f64, f64)]) -> Vec<LocationReference> {
        anchors
            .iter()
            .map(|&(x, y)| {
                let a = Point2::new(x, y);
                LocationReference::new(a, a.distance(truth))
            })
            .collect()
    }

    #[test]
    fn exact_recovery_from_three_anchors() {
        let truth = Point2::new(40.0, 60.0);
        let refs = exact_refs(truth, &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]);
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) < 1e-6, "{}", e.position);
        assert!(e.residual_rms < 1e-6);
    }

    #[test]
    fn exact_recovery_overdetermined() {
        let truth = Point2::new(123.0, 456.0);
        let refs = exact_refs(
            truth,
            &[
                (0.0, 0.0),
                (1000.0, 0.0),
                (0.0, 1000.0),
                (1000.0, 1000.0),
                (500.0, 100.0),
            ],
        );
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) < 1e-6);
    }

    #[test]
    fn noisy_distances_recovered_within_error_scale() {
        let truth = Point2::new(420.0, 310.0);
        let anchors = [
            (100.0, 100.0),
            (900.0, 150.0),
            (500.0, 800.0),
            (200.0, 600.0),
            (750.0, 500.0),
            (400.0, 50.0),
        ];
        let mut rng = StdRng::seed_from_u64(8);
        let refs: Vec<LocationReference> = anchors
            .iter()
            .map(|&(x, y)| {
                let a = Point2::new(x, y);
                let noise: f64 = rng.gen_range(-10.0..=10.0);
                LocationReference::new(a, (a.distance(truth) + noise).max(0.0))
            })
            .collect();
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        // With eps = 10 ft and 6 anchors, the estimate lands within ~eps.
        assert!(
            e.position.distance(truth) < 12.0,
            "off by {}",
            e.position.distance(truth)
        );
    }

    #[test]
    fn malicious_reference_skews_estimate() {
        // The attack the paper defends against: one lying beacon drags the
        // position away; this is the baseline "no detection" damage.
        let truth = Point2::new(100.0, 100.0);
        let mut refs = exact_refs(truth, &[(0.0, 0.0), (200.0, 0.0), (0.0, 200.0)]);
        refs.push(LocationReference::new(Point2::new(200.0, 200.0), 400.0));
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) > 20.0, "attack had no effect");
        assert!(
            e.residual_rms > 10.0,
            "diagnostic failed to flag inconsistency"
        );
    }

    #[test]
    fn too_few_references() {
        let refs = exact_refs(Point2::ORIGIN, &[(1.0, 0.0), (0.0, 1.0)]);
        assert_eq!(
            MmseEstimator::default().estimate(&refs),
            Err(EstimateError::TooFewReferences { got: 2, need: 3 })
        );
    }

    #[test]
    fn collinear_anchors_rejected() {
        let truth = Point2::new(5.0, 7.0);
        let refs = exact_refs(truth, &[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        assert_eq!(
            MmseEstimator::default().estimate(&refs),
            Err(EstimateError::DegenerateGeometry)
        );
    }

    #[test]
    fn anchor_coincident_with_truth_is_fine() {
        let truth = Point2::new(50.0, 50.0);
        let refs = exact_refs(truth, &[(50.0, 50.0), (0.0, 0.0), (100.0, 0.0)]);
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) < 1e-4);
    }

    #[test]
    fn min_references_is_three() {
        assert_eq!(MmseEstimator::default().min_references(), 3);
    }
}
