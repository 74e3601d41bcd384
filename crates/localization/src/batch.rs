//! Batched MMSE solving over structure-of-arrays scratch.
//!
//! The simulator's impact phase solves one MMSE problem per sensor, and
//! robust estimators re-solve the same reference set many times while
//! filtering. This module is the crate's one MMSE arithmetic, allocation
//! free once its buffers have grown ([`MmseEstimator`] delegates here):
//!
//! - [`MmseScratch`] holds the reference set once as structure-of-arrays
//!   (`ax`/`ay`/`d`) plus an *active row* index list, so subsets are
//!   selected by index without copying references;
//! - [`BatchedMmse`] runs the exact linear-seed → Gauss–Newton → residual
//!   chain over the active rows.
//!
//! **Bit-identity contract:** every routine here performs the same float
//! operations in the same order as its scalar counterpart: the scalar
//! solve kept in the dev-only `secloc-oracle` crate, [`Estimate::at`] and
//! `gdop.rs`. The tests at the bottom and in `tests/batch_oracle.rs`
//! enforce this with `to_bits` equality over randomized inputs.

use crate::{Estimate, EstimateError, Estimator, LocationReference, MmseEstimator};
use secloc_geometry::{Point2, Vector2};

/// Reusable structure-of-arrays geometry for one reference set.
///
/// `load` fills the arrays from a reference slice and marks every row
/// active; `retain` narrows the active set by original row index. Once the
/// buffers have grown to their high-water mark, reuse is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MmseScratch {
    pub(crate) ax: Vec<f64>,
    pub(crate) ay: Vec<f64>,
    pub(crate) d: Vec<f64>,
    /// Active rows, as indices into the SoA arrays, in solve order.
    pub(crate) idx: Vec<usize>,
}

impl MmseScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty scratch pre-sized for reference sets of up to `rows`
    /// rows — e.g. the topology's maximum audible-beacon count — so a
    /// whole run's worth of `load` calls never reallocates. Pair with
    /// [`MmseScratch::capacity`] and a debug assertion to catch mid-run
    /// growth.
    pub fn with_capacity(rows: usize) -> Self {
        MmseScratch {
            ax: Vec::with_capacity(rows),
            ay: Vec::with_capacity(rows),
            d: Vec::with_capacity(rows),
            idx: Vec::with_capacity(rows),
        }
    }

    /// The row capacity currently reserved (the smallest of the SoA
    /// buffers' capacities — they grow in lockstep, so after
    /// [`MmseScratch::with_capacity`] this is exactly the requested size
    /// until a larger set is loaded).
    pub fn capacity(&self) -> usize {
        self.ax
            .capacity()
            .min(self.ay.capacity())
            .min(self.d.capacity())
            .min(self.idx.capacity())
    }

    /// Loads `refs` into the SoA arrays, replacing any previous contents,
    /// and marks every row active.
    pub fn load(&mut self, refs: &[LocationReference]) {
        self.load_from_iter(refs.iter().copied());
    }

    /// [`MmseScratch::load`] from any reference iterator — lets callers
    /// holding references embedded in richer records load without
    /// materializing a `Vec<LocationReference>` first.
    pub fn load_from_iter(&mut self, refs: impl Iterator<Item = LocationReference>) {
        self.ax.clear();
        self.ay.clear();
        self.d.clear();
        for r in refs {
            self.ax.push(r.anchor().x);
            self.ay.push(r.anchor().y);
            self.d.push(r.distance());
        }
        self.reset();
    }

    /// Restores every loaded row to the active set, in load order.
    pub fn reset(&mut self) {
        self.idx.clear();
        self.idx.extend(0..self.ax.len());
    }

    /// Narrows the active set to rows whose *original* index satisfies
    /// `keep`, preserving order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        self.idx.retain(|&i| keep(i));
    }

    /// Number of loaded rows.
    pub fn len(&self) -> usize {
        self.ax.len()
    }

    /// Whether no rows are loaded.
    pub fn is_empty(&self) -> bool {
        self.ax.is_empty()
    }

    /// Number of active rows.
    pub fn active_len(&self) -> usize {
        self.idx.len()
    }

    pub(crate) fn anchor(&self, i: usize) -> Point2 {
        Point2::new(self.ax[i], self.ay[i])
    }

    /// The scratch counterpart of [`Estimate::at`] over the active rows:
    /// same residual formula, same accumulation order.
    pub fn estimate_at(&self, position: Point2) -> Estimate {
        let rms = if self.idx.is_empty() {
            0.0
        } else {
            (self
                .idx
                .iter()
                .map(|&i| (position.distance(self.anchor(i)) - self.d[i]).powi(2))
                .sum::<f64>()
                / self.idx.len() as f64)
                .sqrt()
        };
        Estimate {
            position,
            residual_rms: rms,
        }
    }

    /// The scratch counterpart of [`crate::gdop::hdop_of_references`] over
    /// the active rows.
    pub fn hdop_at(&self, position: Point2) -> Option<f64> {
        crate::gdop::hdop_rows(position, self.idx.iter().map(|&i| self.anchor(i)))
    }
}

/// MMSE over [`MmseScratch`]: free of per-call allocation and able to
/// solve filtered subsets without materializing them. The inner
/// accumulations run through the crate's lane kernels (`simd.rs`), whose
/// sequential reduction order keeps the scalar solve's float operations
/// and their order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchedMmse {
    /// The parameters (iterations, tolerance) that govern the chain.
    pub inner: MmseEstimator,
}

impl BatchedMmse {
    /// The solver with `inner`'s parameters.
    pub fn exact(inner: MmseEstimator) -> Self {
        BatchedMmse { inner }
    }

    /// Solves over the scratch's active rows.
    ///
    /// # Errors
    ///
    /// Too few active rows, degenerate geometry in the linear seed, or a
    /// non-finite Gauss–Newton iterate.
    pub fn estimate(&self, s: &MmseScratch) -> Result<Estimate, EstimateError> {
        if s.idx.len() < self.inner.min_references() {
            return Err(EstimateError::TooFewReferences {
                got: s.idx.len(),
                need: self.inner.min_references(),
            });
        }
        let seed = linear_seed_rows(s)?;
        let refined = gauss_newton_rows(&self.inner, seed, s)?;
        Ok(s.estimate_at(refined))
    }
}

/// Closed-form linearised seed over the active rows: subtract the last
/// active row's circle equation from each of the others. The row
/// accumulation runs on the [`crate::simd`] lane kernel.
fn linear_seed_rows(s: &MmseScratch) -> Result<Point2, EstimateError> {
    let &last = s.idx.last().expect("caller checked len >= 3");
    // The active set is the identity exactly when nothing was filtered
    // (`idx` only ever shrinks from `0..len`); route that common case
    // through the contiguous kernel instantiation — same operations in the
    // same order, but addressable without the index gather.
    let acc = if s.idx.len() == s.ax.len() {
        // Slices trimmed to exactly the row count so the bounds checks
        // inside the kernel fold away (the loop bound and the slice length
        // become the same value).
        let m = s.idx.len() - 1;
        crate::simd::seed_accumulate(
            &s.ax[..m],
            &s.ay[..m],
            &s.d[..m],
            crate::simd::Dense(m),
            (s.ax[last], s.ay[last], s.d[last]),
        )
    } else {
        crate::simd::seed_accumulate(
            &s.ax,
            &s.ay,
            &s.d,
            &s.idx[..s.idx.len() - 1],
            (s.ax[last], s.ay[last], s.d[last]),
        )
    };
    let (m00, m01, m11) = (acc.m00, acc.m01, acc.m11);
    let v = Vector2::new(acc.vx, acc.vy);
    let det = m00 * m11 - m01 * m01;
    let scale = (m00 + m11).max(1e-30);
    if det.abs() < 1e-9 * scale * scale {
        return Err(EstimateError::DegenerateGeometry);
    }
    Ok(Point2::new(
        (m11 * v.x - m01 * v.y) / det,
        (m00 * v.y - m01 * v.x) / det,
    ))
}

/// Gauss–Newton refinement over the active rows, with the per-iteration
/// accumulation on the [`crate::simd`] lane kernel. Returns the seed when
/// the normal matrix is singular, and the last iterate when the budget
/// runs out (noisy references routinely stop short of the tolerance
/// without being wrong).
fn gauss_newton_rows(
    est: &MmseEstimator,
    mut p: Point2,
    s: &MmseScratch,
) -> Result<Point2, EstimateError> {
    let dense = s.idx.len() == s.ax.len();
    let n = s.idx.len();
    for _ in 0..est.max_iterations {
        let acc = if dense {
            // Trimmed slices: loop bound == slice length, bounds checks fold.
            crate::simd::gn_accumulate(
                p.x,
                p.y,
                &s.ax[..n],
                &s.ay[..n],
                &s.d[..n],
                crate::simd::Dense(n),
            )
        } else {
            crate::simd::gn_accumulate(p.x, p.y, &s.ax, &s.ay, &s.d, s.idx.as_slice())
        };
        let (jtj00, jtj01, jtj11) = (acc.jtj00, acc.jtj01, acc.jtj11);
        let jtr = Vector2::new(acc.jtrx, acc.jtry);
        let det = jtj00 * jtj11 - jtj01 * jtj01;
        if det.abs() < 1e-12 {
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
        if dp.norm() < est.tolerance_ft {
            return Ok(p);
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_refs(rng: &mut StdRng, n: usize) -> Vec<LocationReference> {
        (0..n)
            .map(|_| {
                let a = Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                LocationReference::new(a, rng.gen_range(0.0..300.0))
            })
            .collect()
    }

    #[test]
    fn scratch_rms_matches_estimate_at() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut s = MmseScratch::new();
        for n in 0..8 {
            let refs = random_refs(&mut rng, n);
            let p = Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            s.load(&refs);
            let scalar = Estimate::at(p, &refs);
            let soa = s.estimate_at(p);
            assert_eq!(scalar.residual_rms.to_bits(), soa.residual_rms.to_bits());
        }
    }

    #[test]
    fn scratch_hdop_matches_gdop_module() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut s = MmseScratch::new();
        for n in 0..8 {
            let refs = random_refs(&mut rng, n);
            let p = Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            s.load(&refs);
            assert_eq!(crate::gdop::hdop_of_references(p, &refs), s.hdop_at(p));
        }
    }

    #[test]
    fn degenerate_and_too_few_errors_match_scalar() {
        let mut s = MmseScratch::new();
        let two = vec![
            LocationReference::new(Point2::new(0.0, 0.0), 5.0),
            LocationReference::new(Point2::new(10.0, 0.0), 5.0),
        ];
        s.load(&two);
        assert_eq!(
            BatchedMmse::default().estimate(&s),
            Err(EstimateError::TooFewReferences { got: 2, need: 3 })
        );
        let line: Vec<LocationReference> = (0..4)
            .map(|i| LocationReference::new(Point2::new(10.0 * i as f64, 0.0), 7.0))
            .collect();
        s.load(&line);
        assert_eq!(
            BatchedMmse::default().estimate(&s),
            Err(EstimateError::DegenerateGeometry)
        );
    }
}
