//! Property-based bit-identity sweep for the lane-kernel solve chain.
//!
//! The generated reference sets deliberately include the degenerate
//! shapes the scalar chain special-cases — collinear anchors, duplicate
//! beacon positions, fewer than three active rows, and huge lie offsets —
//! and assert that the lane-kernel `BatchedMmse` returns *bit-for-bit*
//! the results of the scalar solve kept in `secloc-oracle`, errors
//! included.

use proptest::prelude::*;
use secloc_geometry::Point2;
use secloc_localization::{
    BatchedMmse, Estimate, EstimateError, LocationReference, MmseEstimator, MmseScratch,
};
use secloc_oracle::mmse;

/// One reference whose shape is drawn from the degenerate zoo: a free
/// anchor, an anchor snapped onto a shared line (collinear pressure), a
/// duplicate of the first anchor, or a liar with a huge offset distance.
fn reference() -> impl Strategy<Value = (u8, f64, f64, f64)> {
    (0u8..4, 0.0..1000.0f64, 0.0..1000.0f64, 0.0..400.0f64)
}

fn materialize(shapes: &[(u8, f64, f64, f64)]) -> Vec<LocationReference> {
    shapes
        .iter()
        .map(|&(kind, x, y, d)| match kind {
            // Collinear pressure: anchors on the y = x diagonal.
            1 => LocationReference::new(Point2::new(x, x), d),
            // Duplicate position of the first anchor (distances differ).
            2 => {
                let (_, fx, fy, _) = shapes[0];
                LocationReference::new(Point2::new(fx, fy), d)
            }
            // Huge lie offset: distance wildly inconsistent with geometry.
            3 => LocationReference::new(Point2::new(x, y), d + 10_000.0),
            _ => LocationReference::new(Point2::new(x, y), d),
        })
        .collect()
}

fn assert_bits(a: &Result<Estimate, EstimateError>, b: &Result<Estimate, EstimateError>) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.position.x.to_bits(), y.position.x.to_bits());
            assert_eq!(x.position.y.to_bits(), y.position.y.to_bits());
            assert_eq!(x.residual_rms.to_bits(), y.residual_rms.to_bits());
        }
        (x, y) => assert_eq!(x, y),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full active set, including sets below the 3-reference floor.
    #[test]
    fn batched_matches_scalar_bit_for_bit(
        shapes in proptest::collection::vec(reference(), 1..16),
    ) {
        let refs = materialize(&shapes);
        let mut s = MmseScratch::with_capacity(refs.len());
        s.load(&refs);
        assert_bits(
            &mmse::estimate(&MmseEstimator::default(), &refs),
            &BatchedMmse::default().estimate(&s),
        );
    }

    /// Filtered subsets: the scratch's index-selected solve must match a
    /// materialized subset solve, down to <3-row error cases.
    #[test]
    fn filtered_subset_matches_materialized(
        shapes in proptest::collection::vec(reference(), 1..16),
        mask in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let refs = materialize(&shapes);
        let subset: Vec<LocationReference> = refs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[*i])
            .map(|(_, r)| *r)
            .collect();
        let mut s = MmseScratch::new();
        s.load(&refs);
        s.retain(|i| mask[i]);
        assert_bits(
            &mmse::estimate(&MmseEstimator::default(), &subset),
            &BatchedMmse::default().estimate(&s),
        );
    }
}
