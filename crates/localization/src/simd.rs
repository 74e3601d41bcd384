//! Hand-unrolled f64x4 lane kernels for the MMSE hot loops.
//!
//! The three inner loops that dominate batched solving — the linear-seed
//! normal-equation accumulation, the Gauss–Newton JᵀJ/Jᵀr accumulation,
//! and the residual-filter distance pass — are rewritten here over
//! [`MmseScratch`](crate::MmseScratch)'s structure-of-arrays rows in a
//! shape the autovectorizer keeps in SIMD registers: plain `[f64; 4]`
//! lane arrays and unrolled element-wise arithmetic, no `std::simd`
//! nightly features and no new dependencies.
//!
//! # Lane-reduction convention
//!
//! The two accumulation kernels reduce exactly: a fused sequential loop —
//! terms computed and folded row by row in ascending active order,
//! exactly the operations (and operation order) of the scalar
//! `BatchedMmse`/`MmseEstimator` chain, so the result is bit-identical
//! (enforced by `to_bits` tests and the proptest sweep). The strict
//! left-fold is a serial dependency chain, which caps how much the
//! compiler may vectorize; on the small per-sensor reference sets the
//! simulator solves (≤ a dozen rows), the fused loop measured *faster*
//! than staging terms through lane arrays, so the kernels do not stage.
//! Rows skipped by the scalar loop (the `dist < 1e-9` Gauss–Newton guard)
//! are skipped under the identical predicate — they are *not* folded as
//! `+0.0`, which would flip a `-0.0` accumulator to `+0.0`.
//!
//! The lane arrays serve the order-free passes: the worst-residual scan
//! computes distances four rows at a time (pure, order-free) and then
//! scans them in row order, preserving the scalar `max_by(total_cmp)`
//! tie-break (last maximal element wins); the inlier count is a count.

const LANES: usize = 4;

/// Row addressing for the lane kernels.
///
/// The kernels are generic over *how* active rows map to SoA indices so
/// the unfiltered case — `MmseScratch` right after `load`, where the
/// active set is the identity — monomorphizes to contiguous slice loads
/// the autovectorizer turns into packed `sqrtpd`/`divpd`, while filtered
/// sets keep the indexed gather. Both instantiations perform the same
/// float operations in the same order; only addressing differs, so
/// bit-identity is preserved by construction (and checked in the tests
/// below).
pub(crate) trait RowIx: Copy {
    fn count(self) -> usize;
    fn row(self, k: usize) -> usize;
}

/// The identity mapping over rows `0..n`: contiguous SoA access.
#[derive(Clone, Copy)]
pub(crate) struct Dense(pub usize);

impl RowIx for Dense {
    #[inline(always)]
    fn count(self) -> usize {
        self.0
    }
    #[inline(always)]
    fn row(self, k: usize) -> usize {
        k
    }
}

impl RowIx for &[usize] {
    #[inline(always)]
    fn count(self) -> usize {
        self.len()
    }
    #[inline(always)]
    fn row(self, k: usize) -> usize {
        self[k]
    }
}

/// Accumulated linear-seed normal equations: `m` is the 2×2 Gram matrix,
/// `v` the right-hand side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SeedAcc {
    pub m00: f64,
    pub m01: f64,
    pub m11: f64,
    pub vx: f64,
    pub vy: f64,
}

/// Accumulated Gauss–Newton normal equations: `jtj` is JᵀJ, `jtr` is Jᵀr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GnAcc {
    pub jtj00: f64,
    pub jtj01: f64,
    pub jtj11: f64,
    pub jtrx: f64,
    pub jtry: f64,
}

/// Linear-seed accumulation over the active rows `rows` (all but the last
/// active row), differencing against the last active row's circle
/// equation: `last` is its anchor `(x, y)` and measured distance.
#[inline]
pub(crate) fn seed_accumulate<R: RowIx>(
    ax: &[f64],
    ay: &[f64],
    d: &[f64],
    rows: R,
    last: (f64, f64, f64),
) -> SeedAcc {
    let (axl, ayl, adl) = last;
    // Row-independent part of the right-hand side, hoisted exactly as the
    // scalar loop leaves it: the scalar expression is
    //   adl² − dᵢ² + axᵢ² + ayᵢ² − axl² − ayl²
    // evaluated left to right, so the hoisted prefix is adl² and the
    // suffix subtractions stay per-row to preserve operation order.
    let adl2 = adl * adl;
    let mut acc = SeedAcc {
        m00: 0.0,
        m01: 0.0,
        m11: 0.0,
        vx: 0.0,
        vy: 0.0,
    };
    // Fused sequential left-fold, the scalar loop verbatim.
    for k in 0..rows.count() {
        let i = rows.row(k);
        let row_x = 2.0 * (ax[i] - axl);
        let row_y = 2.0 * (ay[i] - ayl);
        let rhs = adl2 - d[i] * d[i] + ax[i] * ax[i] + ay[i] * ay[i] - axl * axl - ayl * ayl;
        acc.m00 += row_x * row_x;
        acc.m01 += row_x * row_y;
        acc.m11 += row_y * row_y;
        acc.vx += row_x * rhs;
        acc.vy += row_y * rhs;
    }
    acc
}

/// Gauss–Newton design-matrix/residual accumulation over the active rows
/// at the current iterate `(px, py)`.
///
/// The scalar guard — rows whose anchor coincides with the iterate
/// (`dist < 1e-9`) contribute nothing — is reproduced as a conditional
/// fold under the identical predicate.
#[inline]
pub(crate) fn gn_accumulate<R: RowIx>(
    px: f64,
    py: f64,
    ax: &[f64],
    ay: &[f64],
    d: &[f64],
    rows: R,
) -> GnAcc {
    let mut acc = GnAcc {
        jtj00: 0.0,
        jtj01: 0.0,
        jtj11: 0.0,
        jtrx: 0.0,
        jtry: 0.0,
    };
    // Fused sequential left-fold, the scalar loop verbatim.
    for k in 0..rows.count() {
        let i = rows.row(k);
        let dx = px - ax[i];
        let dy = py - ay[i];
        let dist = (dx * dx + dy * dy).sqrt();
        if dist < 1e-9 {
            continue;
        }
        let (gx, gy) = (dx / dist, dy / dist);
        let res = dist - d[i];
        acc.jtj00 += gx * gx;
        acc.jtj01 += gx * gy;
        acc.jtj11 += gy * gy;
        acc.jtrx += gx * res;
        acc.jtry += gy * res;
    }
    acc
}

/// The residual-filter distance pass: position of the worst absolute
/// residual among the active rows, and its value.
///
/// Returns `(k, |r_k|)` where `k` indexes into `rows`, replicating
/// `Iterator::max_by(total_cmp)` exactly — on ties the **last** maximal
/// element wins — so the filter drops the same reference the Vec-backed
/// scan would. The distance computation is lane-unrolled; the selection
/// scan runs in ascending row order.
#[inline]
pub(crate) fn worst_abs_residual<R: RowIx>(
    px: f64,
    py: f64,
    ax: &[f64],
    ay: &[f64],
    d: &[f64],
    rows: R,
) -> (usize, f64) {
    let n = rows.count();
    debug_assert!(n > 0, "non-empty reference set");
    let mut r = [0.0f64; LANES];
    let mut best = f64::NEG_INFINITY;
    let mut best_pos = 0usize;
    let mut scan = |vals: &[f64], base: usize| {
        for (j, &v) in vals.iter().enumerate() {
            // `total_cmp != Less` keeps the last maximal element, matching
            // `max_by`; NEG_INFINITY seeds below every total-order value
            // except itself, and a first-row -inf residual is impossible
            // (residuals are absolute values or NaN, both ≥ -inf, and the
            // `!= Less` rule still replaces on the tie).
            if v.total_cmp(&best) != std::cmp::Ordering::Less {
                best = v;
                best_pos = base + j;
            }
        }
    };
    let mut base = 0usize;
    while base + LANES <= n {
        for (j, rj) in r.iter_mut().enumerate() {
            let i = rows.row(base + j);
            let dx = px - ax[i];
            let dy = py - ay[i];
            *rj = ((dx * dx + dy * dy).sqrt() - d[i]).abs();
        }
        scan(&r, base);
        base += LANES;
    }
    let rem = n - base;
    for (j, rj) in r[..rem].iter_mut().enumerate() {
        let i = rows.row(base + j);
        let dx = px - ax[i];
        let dy = py - ay[i];
        *rj = ((dx * dx + dy * dy).sqrt() - d[i]).abs();
    }
    scan(&r[..rem], base);
    (best_pos, best)
}

/// Lane-unrolled inlier count over **all** loaded rows `0..n`: how many
/// references sit within `threshold` of the candidate position. A count
/// is order-free, so the lane version is exact by construction.
pub(crate) fn count_within(
    px: f64,
    py: f64,
    ax: &[f64],
    ay: &[f64],
    d: &[f64],
    n: usize,
    threshold: f64,
) -> usize {
    let mut count = 0usize;
    let mut lane = [false; LANES];
    let mut i = 0;
    while i + LANES <= n {
        for j in 0..LANES {
            let dx = px - ax[i + j];
            let dy = py - ay[i + j];
            lane[j] = ((dx * dx + dy * dy).sqrt() - d[i + j]).abs() <= threshold;
        }
        count += lane.iter().filter(|&&b| b).count();
        i += LANES;
    }
    while i < n {
        let dx = px - ax[i];
        let dy = py - ay[i];
        if ((dx * dx + dy * dy).sqrt() - d[i]).abs() <= threshold {
            count += 1;
        }
        i += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rows_data(rng: &mut StdRng, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let ax: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
        let ay: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..300.0)).collect();
        (ax, ay, d)
    }

    /// The scalar reference loops, verbatim from `mmse.rs` shapes.
    fn seed_scalar(
        ax: &[f64],
        ay: &[f64],
        d: &[f64],
        rows: &[usize],
        l: (f64, f64, f64),
    ) -> SeedAcc {
        let (axl, ayl, adl) = l;
        let (mut m00, mut m01, mut m11, mut vx, mut vy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for &i in rows {
            let row_x = 2.0 * (ax[i] - axl);
            let row_y = 2.0 * (ay[i] - ayl);
            let rhs =
                adl * adl - d[i] * d[i] + ax[i] * ax[i] + ay[i] * ay[i] - axl * axl - ayl * ayl;
            m00 += row_x * row_x;
            m01 += row_x * row_y;
            m11 += row_y * row_y;
            vx += row_x * rhs;
            vy += row_y * rhs;
        }
        SeedAcc {
            m00,
            m01,
            m11,
            vx,
            vy,
        }
    }

    fn gn_scalar(px: f64, py: f64, ax: &[f64], ay: &[f64], d: &[f64], rows: &[usize]) -> GnAcc {
        let (mut jtj00, mut jtj01, mut jtj11, mut jtrx, mut jtry) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for &i in rows {
            let dx = px - ax[i];
            let dy = py - ay[i];
            let dist = (dx * dx + dy * dy).sqrt();
            if dist < 1e-9 {
                continue;
            }
            let (gx, gy) = (dx / dist, dy / dist);
            let res = dist - d[i];
            jtj00 += gx * gx;
            jtj01 += gx * gy;
            jtj11 += gy * gy;
            jtrx += gx * res;
            jtry += gy * res;
        }
        GnAcc {
            jtj00,
            jtj01,
            jtj11,
            jtrx,
            jtry,
        }
    }

    fn assert_bits(a: f64, b: f64) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    #[test]
    fn exact_seed_matches_scalar_all_lengths() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..24 {
            let (ax, ay, d) = rows_data(&mut rng, n + 1);
            let rows: Vec<usize> = (0..n).collect();
            let l = (ax[n], ay[n], d[n]);
            let s = seed_scalar(&ax, &ay, &d, &rows, l);
            let k = seed_accumulate(&ax, &ay, &d, &rows[..], l);
            let dense = seed_accumulate(&ax, &ay, &d, Dense(n), l);
            assert_eq!(k, dense, "dense addressing diverged at n={n}");
            assert_bits(s.m00, k.m00);
            assert_bits(s.m01, k.m01);
            assert_bits(s.m11, k.m11);
            assert_bits(s.vx, k.vx);
            assert_bits(s.vy, k.vy);
        }
    }

    #[test]
    fn exact_gn_matches_scalar_including_skip_guard() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in 1..24 {
            let (mut ax, mut ay, d) = rows_data(&mut rng, n);
            let (px, py) = (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            if n > 2 {
                // Force the dist < 1e-9 skip guard on an interior row.
                ax[n / 2] = px;
                ay[n / 2] = py;
            }
            let rows: Vec<usize> = (0..n).collect();
            let s = gn_scalar(px, py, &ax, &ay, &d, &rows);
            let k = gn_accumulate(px, py, &ax, &ay, &d, &rows[..]);
            let dense = gn_accumulate(px, py, &ax, &ay, &d, Dense(n));
            assert_eq!(k, dense, "dense addressing diverged at n={n}");
            assert_bits(s.jtj00, k.jtj00);
            assert_bits(s.jtj01, k.jtj01);
            assert_bits(s.jtj11, k.jtj11);
            assert_bits(s.jtrx, k.jtrx);
            assert_bits(s.jtry, k.jtry);
        }
    }

    #[test]
    fn skip_guard_preserves_negative_zero_accumulators() {
        // All rows skipped: accumulators must stay exactly +0.0 (their
        // initial value), and a fold of `+0.0` per skipped row would have
        // been indistinguishable here — so also check a single -0.0
        // contribution survives subsequent skipped rows.
        let ax = [5.0, 5.0];
        let ay = [5.0, 5.0];
        let d = [1.0, 1.0];
        let rows = [0usize, 1];
        let k = gn_accumulate(5.0, 5.0, &ax, &ay, &d, &rows[..]);
        let s = gn_scalar(5.0, 5.0, &ax, &ay, &d, &rows);
        assert_bits(s.jtj00, k.jtj00);
        assert_bits(s.jtrx, k.jtrx);
    }

    #[test]
    fn worst_residual_matches_max_by_scan() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in 1..24 {
            let (ax, ay, d) = rows_data(&mut rng, n);
            let (px, py) = (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let rows: Vec<usize> = (0..n).collect();
            let expect = rows
                .iter()
                .enumerate()
                .map(|(k, &i)| {
                    let dx = px - ax[i];
                    let dy = py - ay[i];
                    (k, ((dx * dx + dy * dy).sqrt() - d[i]).abs())
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let got = worst_abs_residual(px, py, &ax, &ay, &d, &rows[..]);
            assert_eq!(got, worst_abs_residual(px, py, &ax, &ay, &d, Dense(n)));
            assert_eq!(expect.0, got.0);
            assert_bits(expect.1, got.1);
        }
    }

    #[test]
    fn worst_residual_tie_break_keeps_last() {
        // Two identical anchors and distances: equal residuals; max_by
        // keeps the later element.
        let ax = [10.0, 10.0];
        let ay = [0.0, 0.0];
        let d = [3.0, 3.0];
        let rows = [0usize, 1];
        let (pos, _) = worst_abs_residual(0.0, 0.0, &ax, &ay, &d, &rows[..]);
        assert_eq!(pos, 1);
    }

    #[test]
    fn count_within_matches_scalar_filter() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in 0..24 {
            let (ax, ay, d) = rows_data(&mut rng, n);
            let (px, py) = (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let expect = (0..n)
                .filter(|&i| {
                    let dx = px - ax[i];
                    let dy = py - ay[i];
                    ((dx * dx + dy * dy).sqrt() - d[i]).abs() <= 20.0
                })
                .count();
            assert_eq!(expect, count_within(px, py, &ax, &ay, &d, n, 20.0));
        }
    }
}
