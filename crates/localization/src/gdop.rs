//! Geometric dilution of precision (GDOP).
//!
//! Bounded ranging error does not imply bounded *position* error: the
//! anchor geometry amplifies measurement noise by a factor computable from
//! the Jacobian of the range equations. This diagnostic explains (and lets
//! tests assert) where multilateration is trustworthy — e.g. why the Fig.
//! 12 simulation undershoots its theory at the field borders, and why the
//! bounded-noise localization property only holds for well-spread anchors.

use crate::LocationReference;
use secloc_geometry::Point2;

/// Horizontal dilution of precision at `position` for the given anchors:
/// `sqrt(trace((JᵀJ)⁻¹))` with `J` the unit-vector Jacobian of the range
/// model. Position error ≈ `HDOP × ranging error` for uncorrelated noise.
///
/// Returns `None` when fewer than two usable anchors exist or the
/// geometry is singular (collinear anchors / anchor coincident with the
/// position).
pub fn hdop(position: Point2, anchors: &[Point2]) -> Option<f64> {
    hdop_rows(position, anchors.iter().copied())
}

/// HDOP computed from a reference set (anchor positions only). Reads the
/// anchors straight off the references — no intermediate buffer.
pub fn hdop_of_references(position: Point2, refs: &[LocationReference]) -> Option<f64> {
    hdop_rows(position, refs.iter().map(|r| r.anchor()))
}

/// The shared accumulation behind [`hdop`] and [`hdop_of_references`]:
/// whichever container holds the anchors, the float operations (and hence
/// the bits) are the same.
fn hdop_rows(position: Point2, anchors: impl Iterator<Item = Point2>) -> Option<f64> {
    let (mut a, mut b, mut c) = (0.0f64, 0.0f64, 0.0f64); // JtJ = [a b; b c]
    let mut used = 0usize;
    for anchor in anchors {
        let diff = position - anchor;
        let norm = diff.norm();
        if norm < 1e-9 {
            continue;
        }
        let ux = diff.x / norm;
        let uy = diff.y / norm;
        a += ux * ux;
        b += ux * uy;
        c += uy * uy;
        used += 1;
    }
    if used < 2 {
        return None;
    }
    let det = a * c - b * b;
    if det.abs() < 1e-12 {
        return None;
    }
    // trace of inverse = (a + c) / det.
    let t = (a + c) / det;
    (t.is_finite() && t >= 0.0).then(|| t.sqrt())
}

/// Expected position-error bound: `HDOP × max ranging error`, when the
/// geometry is usable.
pub fn error_bound(position: Point2, anchors: &[Point2], max_ranging_error: f64) -> Option<f64> {
    hdop(position, anchors).map(|h| h * max_ranging_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_geometry_has_hdop_about_one() {
        // Four anchors at the cardinal points around the position: the
        // classic HDOP = 1 configuration.
        let p = Point2::new(0.0, 0.0);
        let anchors = [
            Point2::new(100.0, 0.0),
            Point2::new(-100.0, 0.0),
            Point2::new(0.0, 100.0),
            Point2::new(0.0, -100.0),
        ];
        let h = hdop(p, &anchors).unwrap();
        assert!((h - 1.0).abs() < 1e-9, "got {h}");
    }

    #[test]
    fn clustered_anchors_dilute_precision() {
        // All anchors in a narrow cone: cross-range is unobservable, HDOP
        // blows up.
        let p = Point2::new(0.0, 0.0);
        let spread = [
            Point2::new(100.0, 0.0),
            Point2::new(0.0, 100.0),
            Point2::new(-70.0, -70.0),
        ];
        let cone = [
            Point2::new(100.0, 0.0),
            Point2::new(100.0, 5.0),
            Point2::new(100.0, -5.0),
        ];
        let good = hdop(p, &spread).unwrap();
        let bad = hdop(p, &cone).unwrap();
        assert!(bad > good * 5.0, "spread {good}, cone {bad}");
    }

    #[test]
    fn collinear_anchors_singular() {
        let p = Point2::new(0.0, 50.0);
        let line = [
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 100.0),
            Point2::new(0.0, 200.0),
        ];
        assert_eq!(hdop(p, &line), None);
    }

    #[test]
    fn too_few_anchors() {
        let p = Point2::ORIGIN;
        assert_eq!(hdop(p, &[]), None);
        assert_eq!(hdop(p, &[Point2::new(10.0, 0.0)]), None);
        // Anchor exactly on the position is skipped.
        assert_eq!(hdop(p, &[p, Point2::new(10.0, 0.0)]), None);
    }

    #[test]
    fn border_positions_worse_than_center() {
        // The Fig. 12 border effect: anchors all on one side.
        let anchors = [
            Point2::new(100.0, 100.0),
            Point2::new(300.0, 150.0),
            Point2::new(200.0, 300.0),
            Point2::new(150.0, 200.0),
        ];
        let center = hdop(Point2::new(190.0, 190.0), &anchors).unwrap();
        let border = hdop(Point2::new(600.0, 600.0), &anchors).unwrap();
        assert!(border > center, "center {center}, border {border}");
    }

    #[test]
    fn error_bound_scales_linearly() {
        let p = Point2::ORIGIN;
        let anchors = [
            Point2::new(100.0, 0.0),
            Point2::new(-100.0, 0.0),
            Point2::new(0.0, 100.0),
            Point2::new(0.0, -100.0),
        ];
        let e10 = error_bound(p, &anchors, 10.0).unwrap();
        let e20 = error_bound(p, &anchors, 20.0).unwrap();
        assert!((e20 / e10 - 2.0).abs() < 1e-12);
        assert!((e10 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reference_wrapper_matches_anchor_form() {
        let p = Point2::new(5.0, 5.0);
        let anchors = [
            Point2::new(100.0, 0.0),
            Point2::new(0.0, 100.0),
            Point2::new(-50.0, -50.0),
        ];
        let refs: Vec<LocationReference> = anchors
            .iter()
            .map(|&a| LocationReference::new(a, a.distance(p)))
            .collect();
        assert_eq!(hdop(p, &anchors), hdop_of_references(p, &refs));
    }

    #[test]
    fn empirical_error_tracks_hdop() {
        // Monte-Carlo: MMSE error with bounded noise should scale with
        // HDOP across geometries.
        use crate::{Estimator, MmseEstimator};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let truth = Point2::new(0.0, 0.0);
        let geoms: Vec<Vec<Point2>> = vec![
            vec![
                Point2::new(120.0, 0.0),
                Point2::new(-120.0, 10.0),
                Point2::new(0.0, 120.0),
                Point2::new(10.0, -120.0),
            ],
            vec![
                Point2::new(120.0, 0.0),
                Point2::new(119.0, 8.0),
                Point2::new(119.0, -8.0),
                Point2::new(118.0, 12.0),
            ],
        ];
        let mut rng = StdRng::seed_from_u64(11);
        let mut results = Vec::new();
        for anchors in &geoms {
            let h = hdop(truth, anchors).unwrap();
            let mut total = 0.0;
            let trials = 300;
            for _ in 0..trials {
                let refs: Vec<LocationReference> = anchors
                    .iter()
                    .map(|&a| {
                        let d = (a.distance(truth) + rng.gen_range(-5.0..=5.0)).max(0.0);
                        LocationReference::new(a, d)
                    })
                    .collect();
                let est = MmseEstimator::default().estimate(&refs).unwrap();
                total += est.position.distance(truth);
            }
            results.push((h, total / trials as f64));
        }
        let (h_good, err_good) = results[0];
        let (h_bad, err_bad) = results[1];
        assert!(h_bad > h_good * 2.0);
        assert!(
            err_bad > err_good * 1.5,
            "HDOP {h_good}->{h_bad} but error {err_good}->{err_bad}"
        );
    }
}
