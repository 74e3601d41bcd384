//! Seeded deployment generators.
//!
//! The paper deploys nodes "randomly ... in a sensing field" (§3.2, §4).
//! Every generator here takes an explicit seed so experiments are exactly
//! reproducible; the simulation crate derives per-run seeds from a master
//! seed.

use crate::{Field, Point2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniformly random deployment of `n` nodes inside `field`.
///
/// # Examples
///
/// ```
/// use secloc_geometry::{deploy, Field};
///
/// let field = Field::square(100.0);
/// let a = deploy::uniform(&field, 50, 7);
/// let b = deploy::uniform(&field, 50, 7);
/// assert_eq!(a, b); // same seed, same deployment
/// assert!(a.iter().all(|p| field.contains(*p)));
/// ```
pub fn uniform(field: &Field, n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    uniform_with(field, n, &mut rng)
}

/// Uniformly random deployment drawing from a caller-supplied RNG.
pub fn uniform_with<R: Rng + ?Sized>(field: &Field, n: usize, rng: &mut R) -> Vec<Point2> {
    (0..n)
        .map(|_| {
            Point2::new(
                rng.gen_range(0.0..=field.width()),
                rng.gen_range(0.0..=field.height()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let f = Field::square(100.0);
        assert_eq!(uniform(&f, 20, 1), uniform(&f, 20, 1));
        assert_ne!(uniform(&f, 20, 1), uniform(&f, 20, 2));
    }

    #[test]
    fn uniform_points_inside_field() {
        let f = Field::new(10.0, 500.0);
        for p in uniform(&f, 1000, 99) {
            assert!(f.contains(p), "{p} escaped {f}");
        }
    }

    #[test]
    fn uniform_covers_the_field_roughly() {
        let f = Field::square(100.0);
        let pts = uniform(&f, 4000, 5);
        let left = pts.iter().filter(|p| p.x < 50.0).count();
        // Binomial(4000, .5): 3-sigma band is about +-95.
        assert!((left as i64 - 2000).abs() < 200, "left half got {left}");
    }
}
