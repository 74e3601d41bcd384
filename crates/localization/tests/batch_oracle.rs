//! The batched MMSE chain — and `MmseEstimator`, which delegates to it —
//! against the scalar linear-seed plus Gauss–Newton solve kept in
//! `secloc-oracle`, compared with `to_bits`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secloc_geometry::Point2;
use secloc_localization::{
    BatchedMmse, Estimate, EstimateError, Estimator, LocationReference, MmseEstimator, MmseScratch,
};
use secloc_oracle::mmse;

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
        assert_same(mmse::estimate(&scalar, &refs), batched.estimate(&s));
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
        assert_same(mmse::estimate(&scalar, &subset), batched.estimate(&s));
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
        mmse::estimate(&MmseEstimator::default(), &refs),
        batched.estimate(&s),
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
        mmse::estimate(&MmseEstimator::default(), &small),
        BatchedMmse::default().estimate(&s),
    );
}

#[test]
fn estimator_parameters_reach_the_batched_solve() {
    // A tight iteration budget and a loose tolerance stop Gauss–Newton
    // early on noisy sets, so an estimator that solved with the default
    // parameters instead of its own would land elsewhere.
    let params = MmseEstimator {
        max_iterations: 2,
        tolerance_ft: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(48);
    let mut sensitive = 0;
    for trial in 0..200 {
        let refs = random_refs(&mut rng, 3 + (trial % 10));
        let want = mmse::estimate(&params, &refs);
        assert_same(params.estimate(&refs), want);
        if want != mmse::estimate(&MmseEstimator::default(), &refs) {
            sensitive += 1;
        }
    }
    assert!(
        sensitive > 50,
        "only {sensitive} of 200 sets tell the parameters apart"
    );
}
