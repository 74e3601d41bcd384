//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use secloc_geometry::{deploy, Field, GridIndex, Point2, Vector2};

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e4..1.0e4
}

fn point() -> impl Strategy<Value = Point2> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #[test]
    fn triangle_inequality(a in point(), b in point(), c in point()) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }

    #[test]
    fn distance_symmetry_and_identity(a in point(), b in point()) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-12);
        prop_assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn vector_roundtrip(a in point(), b in point()) {
        let v = b - a;
        let back = a + v;
        prop_assert!((back.x - b.x).abs() < 1e-9 && (back.y - b.y).abs() < 1e-9);
    }

    #[test]
    fn dot_cross_pythagoras(a in point(), b in point()) {
        // |u|^2 |v|^2 = (u.v)^2 + (u x v)^2
        let u = b - a;
        let v = a - b;
        let lhs = u.norm_squared() * v.norm_squared();
        let rhs = u.dot(v).powi(2) + u.cross(v).powi(2);
        let scale = lhs.abs().max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-9);
    }

    #[test]
    fn clamp_idempotent_and_contained(
        w in 1.0..2000.0f64,
        h in 1.0..2000.0f64,
        p in point(),
    ) {
        let f = Field::new(w, h);
        let c = f.clamp(p);
        prop_assert!(f.contains(c));
        prop_assert_eq!(f.clamp(c), c);
        if f.contains(p) {
            prop_assert_eq!(c, p);
        }
    }

    #[test]
    fn uniform_deploy_contained(n in 0usize..200, seed in any::<u64>()) {
        let f = Field::new(300.0, 120.0);
        let pts = deploy::uniform(&f, n, seed);
        prop_assert_eq!(pts.len(), n);
        prop_assert!(pts.iter().all(|p| f.contains(*p)));
    }

    #[test]
    fn grid_index_agrees_with_brute_force(
        n in 1usize..120,
        seed in any::<u64>(),
        qx in 0.0..200.0f64,
        qy in 0.0..200.0f64,
        r in 0.5..80.0f64,
    ) {
        let f = Field::square(200.0);
        let pts = deploy::uniform(&f, n, seed);
        let idx = GridIndex::build(&f, 25.0, pts.iter().copied());
        let q = Point2::new(qx, qy);
        let expected: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(q) <= r)
            .map(|(i, _)| i)
            .collect();
        let mut hits = Vec::new();
        idx.within_into(q, r, &mut hits);
        prop_assert_eq!(hits, expected);
    }

    #[test]
    fn within_into_agrees_with_brute_force(
        n in 1usize..120,
        seed in any::<u64>(),
        qx in 0.0..200.0f64,
        qy in 0.0..200.0f64,
        r in 0.5..80.0f64,
    ) {
        // Mirror of `grid_index_agrees_with_brute_force` for the
        // scratch-buffer API: the reused buffer must produce exactly the
        // oracle result on every random deployment, including when it
        // already holds stale entries from a previous query.
        let f = Field::square(200.0);
        let pts = deploy::uniform(&f, n, seed);
        let idx = GridIndex::build(&f, 25.0, pts.iter().copied());
        let q = Point2::new(qx, qy);
        let expected: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(q) <= r)
            .map(|(i, _)| i)
            .collect();
        let mut scratch = vec![usize::MAX; 3]; // stale garbage must be cleared
        idx.within_into(q, r, &mut scratch);
        prop_assert_eq!(&scratch, &expected);
        prop_assert_eq!(idx.count_within(q, r), expected.len());
        let mut unsorted: Vec<usize> = idx.within_iter(q, r).collect();
        unsorted.sort_unstable();
        prop_assert_eq!(unsorted, expected);
    }

    #[test]
    fn normalized_has_unit_norm(x in -100.0..100.0f64, y in -100.0..100.0f64) {
        let v = Vector2::new(x, y);
        if let Some(u) = v.normalized() {
            prop_assert!((u.norm() - 1.0).abs() < 1e-9);
        } else {
            prop_assert!(v.norm() <= f64::EPSILON);
        }
    }
}
