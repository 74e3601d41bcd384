//! Batched MMSE solving over structure-of-arrays scratch.
//!
//! The simulator's impact phase solves one MMSE problem per sensor, and
//! robust estimators re-solve the same reference set many times while
//! filtering. This module is the crate's one MMSE arithmetic, allocation
//! free once its buffers have grown ([`MmseEstimator`] delegates here):
//!
//! - [`MmseScratch`] holds one reference set as structure-of-arrays
//!   (`ax`/`ay`/`d`); a subset is solved by loading just that subset;
//! - [`BatchedMmse`] runs the exact linear-seed → Gauss–Newton → residual
//!   chain over the loaded rows, which the kernels read as contiguous
//!   slices; [`BatchedMmse::positions`] keeps two sets' chains in flight
//!   over two scratches, for callers with many sets to solve.
//!
//! **Bit-identity contract:** every routine here performs the same float
//! operations in the same order as its scalar counterpart: the scalar
//! solve kept in the dev-only `secloc-oracle` crate and [`Estimate::at`].
//! The tests at the bottom and in `tests/batch_oracle.rs` enforce this
//! with `to_bits` equality over randomized inputs.

use crate::{Estimate, EstimateError, Estimator, LocationReference, MmseEstimator};
use secloc_geometry::{Point2, Vector2};

/// Reusable structure-of-arrays geometry for one reference set.
///
/// `load` fills the arrays from a reference slice, replacing the previous
/// set. Once the buffers have grown to their high-water mark, reuse is
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MmseScratch {
    ax: Vec<f64>,
    ay: Vec<f64>,
    d: Vec<f64>,
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
    }

    /// Loads `refs` into the SoA arrays, replacing any previous contents.
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
    }

    /// Number of loaded rows.
    pub fn len(&self) -> usize {
        self.ax.len()
    }

    /// Whether no rows are loaded.
    pub fn is_empty(&self) -> bool {
        self.ax.is_empty()
    }

    fn anchor(&self, i: usize) -> Point2 {
        Point2::new(self.ax[i], self.ay[i])
    }

    /// The scratch counterpart of [`Estimate::at`]: same residual formula,
    /// same accumulation order.
    pub fn estimate_at(&self, position: Point2) -> Estimate {
        let rms = if self.is_empty() {
            0.0
        } else {
            ((0..self.len())
                .map(|i| (position.distance(self.anchor(i)) - self.d[i]).powi(2))
                .sum::<f64>()
                / self.len() as f64)
                .sqrt()
        };
        Estimate {
            position,
            residual_rms: rms,
        }
    }
}

/// MMSE over [`MmseScratch`]: free of per-call allocation. The inner
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

    /// Solves over the scratch's rows: [`BatchedMmse::position`] plus the
    /// residual at it.
    ///
    /// # Errors
    ///
    /// Too few rows, degenerate geometry in the linear seed, or a
    /// non-finite Gauss–Newton iterate.
    pub fn estimate(&self, s: &MmseScratch) -> Result<Estimate, EstimateError> {
        self.position(s).map(|p| s.estimate_at(p))
    }

    /// The position [`BatchedMmse::estimate`] reports, without the
    /// residual pass.
    ///
    /// # Errors
    ///
    /// As [`BatchedMmse::estimate`].
    pub fn position(&self, s: &MmseScratch) -> Result<Point2, EstimateError> {
        self.start(s)?.finish(&self.inner, s)
    }

    /// Solves the sets `0..n` two at a time: `load(i, scratch)` fills a
    /// slot with set `i`, and `emit(i, position)` receives each result in
    /// completion order. The two slots' Gauss–Newton chains step
    /// alternately, so one chain's latency overlaps the other's instead of
    /// bounding the solve. Every result is bit-identical to
    /// [`BatchedMmse::position`] on the same set: both run the same seed
    /// and the same step.
    pub fn positions(
        &self,
        slots: &mut [MmseScratch; 2],
        n: usize,
        mut load: impl FnMut(usize, &mut MmseScratch),
        mut emit: impl FnMut(usize, Result<Point2, EstimateError>),
    ) {
        let [sa, sb] = slots;
        let mut next = 0;
        let mut a = self.fill(sa, &mut next, n, &mut load, &mut emit);
        let mut b = self.fill(sb, &mut next, n, &mut load, &mut emit);
        while let (Some((i, ca)), Some((j, cb))) = (&mut a, &mut b) {
            let (i, j) = (*i, *j);
            let ra = ca.step(&self.inner, sa);
            let rb = cb.step(&self.inner, sb);
            if let Some(r) = ra {
                emit(i, r);
                a = self.fill(sa, &mut next, n, &mut load, &mut emit);
            }
            if let Some(r) = rb {
                emit(j, r);
                b = self.fill(sb, &mut next, n, &mut load, &mut emit);
            }
        }
        // No set is left to load, and at most one chain is in flight.
        for (slot, s) in [(a, &*sa), (b, &*sb)] {
            if let Some((i, chain)) = slot {
                emit(i, chain.finish(&self.inner, s));
            }
        }
    }

    /// Loads sets into `s` until one needs iterating, emitting those that
    /// fail at the seed on the way.
    fn fill(
        &self,
        s: &mut MmseScratch,
        next: &mut usize,
        n: usize,
        load: &mut impl FnMut(usize, &mut MmseScratch),
        emit: &mut impl FnMut(usize, Result<Point2, EstimateError>),
    ) -> Option<(usize, Chain)> {
        while *next < n {
            let i = *next;
            *next += 1;
            load(i, s);
            match self.start(s) {
                Ok(chain) => return Some((i, chain)),
                Err(e) => emit(i, Err(e)),
            }
        }
        None
    }

    /// The linear seed of a Gauss–Newton chain over the scratch's rows.
    fn start(&self, s: &MmseScratch) -> Result<Chain, EstimateError> {
        if s.len() < self.inner.min_references() {
            return Err(EstimateError::TooFewReferences {
                got: s.len(),
                need: self.inner.min_references(),
            });
        }
        Ok(Chain {
            p: linear_seed_rows(s)?,
            left: self.inner.max_iterations,
        })
    }
}

/// Closed-form linearised seed: subtract the last row's circle equation
/// from each of the others. The row accumulation runs on the
/// [`crate::simd`] lane kernel.
fn linear_seed_rows(s: &MmseScratch) -> Result<Point2, EstimateError> {
    let last = s.len() - 1; // the caller checked len >= 3
    let acc = crate::simd::seed_accumulate(
        &s.ax[..last],
        &s.ay[..last],
        &s.d[..last],
        (s.ax[last], s.ay[last], s.d[last]),
    );
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

/// One Gauss–Newton refinement in flight: the current iterate and the
/// iterations it may still take.
#[derive(Debug, Clone, Copy)]
struct Chain {
    p: Point2,
    left: usize,
}

impl Chain {
    /// One Gauss–Newton iteration over the rows, with the accumulation on
    /// the [`crate::simd`] lane kernel; `Some` once the chain is done.
    /// A singular normal matrix ends it at the current iterate, and so does
    /// a spent budget (noisy references routinely stop short of the
    /// tolerance without being wrong).
    #[inline]
    fn step(
        &mut self,
        est: &MmseEstimator,
        s: &MmseScratch,
    ) -> Option<Result<Point2, EstimateError>> {
        if self.left == 0 {
            return Some(Ok(self.p));
        }
        self.left -= 1;
        let acc = crate::simd::gn_accumulate(self.p.x, self.p.y, &s.ax, &s.ay, &s.d);
        let (jtj00, jtj01, jtj11) = (acc.jtj00, acc.jtj01, acc.jtj11);
        let jtr = Vector2::new(acc.jtrx, acc.jtry);
        let det = jtj00 * jtj11 - jtj01 * jtj01;
        if det.abs() < 1e-12 {
            return Some(Ok(self.p));
        }
        let dp = Vector2::new(
            -(jtj11 * jtr.x - jtj01 * jtr.y) / det,
            -(jtj00 * jtr.y - jtj01 * jtr.x) / det,
        );
        self.p += dp;
        if !self.p.is_finite() {
            return Some(Err(EstimateError::DidNotConverge));
        }
        (dp.norm() < est.tolerance_ft).then_some(Ok(self.p))
    }

    /// Steps the chain to its end.
    fn finish(mut self, est: &MmseEstimator, s: &MmseScratch) -> Result<Point2, EstimateError> {
        loop {
            if let Some(done) = self.step(est, s) {
                return done;
            }
        }
    }
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
