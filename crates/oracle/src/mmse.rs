//! The scalar MMSE solve.
//!
//! Production solves every MMSE problem on the lane kernels behind
//! [`BatchedMmse`](secloc_localization::BatchedMmse), and
//! [`MmseEstimator`]'s `estimate` delegates to them. This is the scalar
//! chain they mirror operation for operation: a closed-form linear seed,
//! then Gauss–Newton refinement of the nonlinear objective.

use secloc_geometry::{Point2, Vector2};
use secloc_localization::{Estimate, EstimateError, Estimator, LocationReference, MmseEstimator};

/// Solves `min Σ (|p − aᵢ| − dᵢ)²` over `refs` with the iteration budget
/// and tolerance of `params`.
///
/// # Errors
///
/// Fewer than three references, degenerate geometry in the linear seed,
/// or a non-finite Gauss–Newton iterate.
pub fn estimate(
    params: &MmseEstimator,
    refs: &[LocationReference],
) -> Result<Estimate, EstimateError> {
    if refs.len() < params.min_references() {
        return Err(EstimateError::TooFewReferences {
            got: refs.len(),
            need: params.min_references(),
        });
    }
    let seed = linear_seed(refs)?;
    let refined = gauss_newton(params, seed, refs)?;
    Ok(Estimate::at(refined, refs))
}

fn gauss_newton(
    params: &MmseEstimator,
    mut p: Point2,
    refs: &[LocationReference],
) -> Result<Point2, EstimateError> {
    for _ in 0..params.max_iterations {
        // Normal equations J^T J dp = -J^T r with row_i =
        // d(residual_i)/dp = (p - a_i)/|p - a_i|.
        let (mut jtj00, mut jtj01, mut jtj11) = (0.0f64, 0.0f64, 0.0f64);
        let mut jtr = Vector2::ZERO;
        for r in refs {
            let diff = p - r.anchor();
            let dist = diff.norm();
            if dist < 1e-9 {
                continue; // gradient undefined exactly on an anchor
            }
            let g = diff / dist;
            let res = dist - r.distance();
            jtj00 += g.x * g.x;
            jtj01 += g.x * g.y;
            jtj11 += g.y * g.y;
            jtr += g * res;
        }
        let det = jtj00 * jtj11 - jtj01 * jtj01;
        if det.abs() < 1e-12 {
            // Singular normal matrix: anchors effectively collinear from
            // here; the linear seed is the best available answer.
            return Ok(p);
        }
        let dp = Vector2::new(
            -(jtj11 * jtr.x - jtj01 * jtr.y) / det,
            -(jtj00 * jtr.y - jtj01 * jtr.x) / det,
        );
        p += dp;
        if !p.is_finite() {
            return Err(EstimateError::DidNotConverge);
        }
        if dp.norm() < params.tolerance_ft {
            return Ok(p);
        }
    }
    // Ran out of iterations — still return the last iterate; callers can
    // judge quality from the residual. (Noisy references routinely stop
    // short of the tight tolerance without being wrong.)
    Ok(p)
}

/// Closed-form linearised solution: subtract the last reference's circle
/// equation from each of the others.
fn linear_seed(refs: &[LocationReference]) -> Result<Point2, EstimateError> {
    let last = refs.last().expect("caller checked len >= 3");
    let (ax, ay, ad) = (last.anchor().x, last.anchor().y, last.distance());
    // Rows: 2(x_i - ax) x + 2(y_i - ay) y = d_n^2 - d_i^2 + |a_i|^2 - |a_n|^2
    let (mut m00, mut m01, mut m11) = (0.0f64, 0.0f64, 0.0f64);
    let mut v = Vector2::ZERO;
    for r in &refs[..refs.len() - 1] {
        let row_x = 2.0 * (r.anchor().x - ax);
        let row_y = 2.0 * (r.anchor().y - ay);
        let rhs = ad * ad - r.distance() * r.distance()
            + r.anchor().x * r.anchor().x
            + r.anchor().y * r.anchor().y
            - ax * ax
            - ay * ay;
        m00 += row_x * row_x;
        m01 += row_x * row_y;
        m11 += row_y * row_y;
        v += Vector2::new(row_x * rhs, row_y * rhs);
    }
    let det = m00 * m11 - m01 * m01;
    // Scale-aware singularity test: det has units ft^4.
    let scale = (m00 + m11).max(1e-30);
    if det.abs() < 1e-9 * scale * scale {
        return Err(EstimateError::DegenerateGeometry);
    }
    Ok(Point2::new(
        (m11 * v.x - m01 * v.y) / det,
        (m00 * v.y - m01 * v.x) / det,
    ))
}
