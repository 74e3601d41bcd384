//! Batched MMSE solving over structure-of-arrays scratch.
//!
//! The simulator's impact phase solves one MMSE problem per sensor, and
//! robust estimators re-solve the same reference set many times while
//! filtering. The scalar [`MmseEstimator`] is
//! correct but re-derives anchor geometry from `&[LocationReference]` on
//! every call and forces callers to materialize filtered subsets into
//! fresh `Vec`s. This module provides the allocation-free fast path:
//!
//! - [`MmseScratch`] holds the reference set once as structure-of-arrays
//!   (`ax`/`ay`/`d`) plus an *active row* index list, so subsets are
//!   selected by index without copying references;
//! - [`BatchedMmse`] runs the exact linear-seed → Gauss–Newton → residual
//!   chain over the active rows.
//!
//! **Bit-identity contract:** every routine here performs the same float
//! operations in the same order as its scalar counterpart in `mmse.rs` /
//! `estimator.rs` / `gdop.rs`. The tests at the bottom enforce this with
//! `to_bits` equality over randomized inputs; any change to the scalar
//! code must be mirrored here (and vice versa) or they will fail.

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

/// MMSE over [`MmseScratch`]: bit-identical to
/// [`MmseEstimator`] — same float operations in the
/// same order — but free of per-call allocation and able to solve filtered
/// subsets without materializing them. The inner accumulations run through
/// the crate's lane kernels (`simd.rs`), whose sequential reduction order
/// keeps the bit-identity contract.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchedMmse {
    /// The scalar solver whose parameters (iterations, tolerance) govern
    /// the batched chain.
    pub inner: MmseEstimator,
}

impl BatchedMmse {
    /// The bit-identical solver around `inner`.
    pub fn exact(inner: MmseEstimator) -> Self {
        BatchedMmse { inner }
    }

    /// Solves over the scratch's active rows.
    ///
    /// # Errors
    ///
    /// Exactly the scalar solver's errors: too few active rows, degenerate
    /// geometry in the linear seed, or a non-finite Gauss–Newton iterate.
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

/// Mirror of `mmse::linear_seed` over the active rows, with the row
/// accumulation delegated to the [`crate::simd`] lane kernel. Keep the
/// surrounding solve in lockstep with the scalar version.
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

/// Mirror of `MmseEstimator::gauss_newton` over the active rows, with the
/// per-iteration accumulation delegated to the [`crate::simd`] lane
/// kernel. Keep the surrounding solve in lockstep with the scalar version.
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

    fn assert_same(a: Result<Estimate, EstimateError>, b: Result<Estimate, EstimateError>) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.position.x.to_bits(), y.position.x.to_bits());
                assert_eq!(x.position.y.to_bits(), y.position.y.to_bits());
                assert_eq!(x.residual_rms.to_bits(), y.residual_rms.to_bits());
            }
            (x, y) => assert_eq!(x, y),
        }
    }

    #[test]
    fn full_set_matches_scalar_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(42);
        let scalar = MmseEstimator::default();
        let batched = BatchedMmse::default();
        let mut s = MmseScratch::new();
        for trial in 0..200 {
            let refs = random_refs(&mut rng, 3 + (trial % 10));
            s.load(&refs);
            assert_same(scalar.estimate(&refs), batched.estimate(&s));
        }
    }

    #[test]
    fn filtered_subset_matches_materialized_vec() {
        let mut rng = StdRng::seed_from_u64(43);
        let scalar = MmseEstimator::default();
        let batched = BatchedMmse::default();
        let mut s = MmseScratch::new();
        for _ in 0..200 {
            let refs = random_refs(&mut rng, 12);
            let mask: Vec<bool> = (0..refs.len()).map(|_| rng.gen_bool(0.6)).collect();
            let subset: Vec<LocationReference> = refs
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|(r, _)| *r)
                .collect();
            s.load(&refs);
            s.retain(|i| mask[i]);
            assert_same(scalar.estimate(&subset), batched.estimate(&s));
        }
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
    fn reset_restores_the_full_set() {
        let mut rng = StdRng::seed_from_u64(46);
        let refs = random_refs(&mut rng, 9);
        let mut s = MmseScratch::new();
        s.load(&refs);
        s.retain(|i| i % 3 == 0);
        assert_eq!(s.active_len(), 3);
        s.reset();
        assert_eq!(s.active_len(), 9);
        let batched = BatchedMmse::default();
        assert_same(
            MmseEstimator::default().estimate(&refs),
            batched.estimate(&s),
        );
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

    #[test]
    fn reuse_does_not_leak_previous_rows() {
        let mut rng = StdRng::seed_from_u64(47);
        let big = random_refs(&mut rng, 20);
        let small = random_refs(&mut rng, 4);
        let mut s = MmseScratch::new();
        s.load(&big);
        s.load(&small);
        assert_eq!(s.len(), 4);
        assert_same(
            MmseEstimator::default().estimate(&small),
            BatchedMmse::default().estimate(&s),
        );
    }
}
