//! The batched MMSE chain — and `MmseEstimator`, which delegates to it —
//! against the scalar linear-seed plus Gauss–Newton solve kept in
//! `secloc-oracle`, compared with `to_bits`.

use proptest::prelude::*;
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
        // Survivors loaded straight off the full list, as the impact phase
        // loads a sensor's unrevoked references.
        s.load_from_iter(refs.iter().zip(&mask).filter(|(_, &m)| m).map(|(r, _)| *r));
        assert_same(mmse::estimate(&scalar, &subset), batched.estimate(&s));
    }
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

/// The set shapes the two-slot driver is checked on.
const SHAPES: u8 = 6;

/// Whether the default 50-iteration budget ends the Gauss–Newton chain on
/// `refs`: one more iteration would move the result.
fn reaches_the_cap(refs: &[LocationReference]) -> bool {
    let one_more = MmseEstimator {
        max_iterations: 51,
        ..MmseEstimator::default()
    };
    mmse::estimate(&MmseEstimator::default(), refs) != mmse::estimate(&one_more, refs)
}

/// One reference set of shape `kind`, drawn from `seed`: noisy, fewer
/// than 3 rows, collinear anchors, coincident anchors (a duplicated
/// anchor, with exact distances to a point on another anchor), a set that
/// reaches the iteration cap, or one with more than 64 rows.
fn shaped_set(kind: u8, seed: u64) -> Vec<LocationReference> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut random_set = |rows: std::ops::Range<usize>| {
        let n = rng.gen_range(rows);
        random_refs(&mut rng, n)
    };
    match kind % SHAPES {
        0 => random_set(3..14),
        1 => random_set(0..3),
        2 => (0..rng.gen_range(3..9))
            .map(|_| {
                let x: f64 = rng.gen_range(0.0..1000.0);
                LocationReference::new(Point2::new(x, 0.5 * x + 20.0), rng.gen_range(0.0..300.0))
            })
            .collect(),
        3 => {
            let mut anchors: Vec<Point2> = (0..rng.gen_range(3..8))
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            anchors.push(anchors[0]);
            let truth = anchors[1];
            anchors
                .into_iter()
                .map(|a| LocationReference::new(a, a.distance(truth)))
                .collect()
        }
        4 => loop {
            let refs = random_set(3..12);
            if reaches_the_cap(&refs) {
                break refs;
            }
        },
        _ => random_set(65..90),
    }
}

fn assert_same_position(a: Result<Point2, EstimateError>, b: Result<Point2, EstimateError>) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.x.to_bits(), y.x.to_bits());
            assert_eq!(x.y.to_bits(), y.y.to_bits());
        }
        (x, y) => assert_eq!(x, y),
    }
}

#[test]
fn set_shapes_cover_the_edge_cases() {
    let solver = BatchedMmse::default();
    let mut s = MmseScratch::new();
    for seed in 0..20 {
        let few = shaped_set(1, seed);
        s.load(&few);
        assert!(matches!(
            solver.position(&s),
            Err(EstimateError::TooFewReferences { .. })
        ));
        s.load(&shaped_set(2, seed));
        assert_eq!(solver.position(&s), Err(EstimateError::DegenerateGeometry));
        assert!(reaches_the_cap(&shaped_set(4, seed)));
        assert!(shaped_set(5, seed).len() > 64);
    }
    // The coincident shape keeps a duplicated anchor, and a reference at
    // distance 0 from the point it solves towards.
    let coincident = shaped_set(3, 7);
    assert_eq!(coincident[0].anchor(), coincident.last().unwrap().anchor());
    assert_eq!(coincident[1].distance(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn two_slot_driver_matches_single_and_scalar_solves(
        size in 0usize..5,
        shapes in proptest::collection::vec((0u8..SHAPES, any::<u64>()), 17),
    ) {
        let n = [0, 1, 2, 3, 17][size];
        let sets: Vec<Vec<LocationReference>> = shapes[..n]
            .iter()
            .map(|&(kind, seed)| shaped_set(kind, seed))
            .collect();
        let solver = BatchedMmse::default();
        let mut slots = [MmseScratch::new(), MmseScratch::new()];
        let mut results: Vec<Vec<Result<Point2, EstimateError>>> = vec![Vec::new(); n];
        solver.positions(
            &mut slots,
            n,
            |i, s| s.load(&sets[i]),
            |i, r| results[i].push(r),
        );
        let mut single = MmseScratch::new();
        for (refs, got) in sets.iter().zip(results) {
            prop_assert_eq!(got.len(), 1, "each set is emitted exactly once");
            single.load(refs);
            assert_same_position(got[0], solver.position(&single));
            let scalar = mmse::estimate(&MmseEstimator::default(), refs).map(|e| e.position);
            assert_same_position(got[0], scalar);
        }
    }
}
