//! Distance measurement from beacon signals.
//!
//! The paper assumes "location estimation is based on the distances measured
//! from beacon signals (through, e.g., RSSI)" with a known **maximum
//! measurement error** ε_max (reconstructed as 10 ft; every API takes it as
//! a parameter). [`BoundedRanging`] draws the error uniformly from
//! `[-ε, +ε]`, the exact abstraction the paper's detector analysis uses;
//! it is deterministic given an RNG.

use rand::Rng;

/// Uniform bounded-error ranging: `measured = true ± U(0, ε)`.
///
/// # Examples
///
/// ```
/// use secloc_radio::ranging::BoundedRanging;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let r = BoundedRanging::new(10.0);
/// let mut rng = StdRng::seed_from_u64(2);
/// let d = r.measure(100.0, &mut rng);
/// assert!((d - 100.0).abs() <= 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedRanging {
    max_error_ft: f64,
}

impl BoundedRanging {
    /// Creates a model with maximum error `max_error_ft` (the paper's ε).
    ///
    /// # Panics
    ///
    /// Panics if `max_error_ft` is negative or not finite.
    pub fn new(max_error_ft: f64) -> Self {
        assert!(
            max_error_ft.is_finite() && max_error_ft >= 0.0,
            "max error must be >= 0, got {max_error_ft}"
        );
        BoundedRanging { max_error_ft }
    }

    /// Scales the error bound by `figure`, the regional noise figure of
    /// `secloc-faults`: figures above 1 model interference-degraded regions
    /// where the calibrated `ε_max` bound no longer holds at its nominal
    /// value. Figure 1.0 is the identity.
    ///
    /// # Panics
    ///
    /// Panics unless `figure` is positive and finite.
    pub fn with_noise_figure(self, figure: f64) -> Self {
        assert!(
            figure.is_finite() && figure > 0.0,
            "noise figure must be positive, got {figure}"
        );
        BoundedRanging::new(self.max_error_ft * figure)
    }

    /// Produces a measured distance for a true distance of `true_ft` feet.
    pub fn measure<R: Rng + ?Sized>(&self, true_ft: f64, rng: &mut R) -> f64 {
        assert!(true_ft >= 0.0, "distance must be >= 0, got {true_ft}");
        let err = if self.max_error_ft == 0.0 {
            0.0
        } else {
            rng.gen_range(-self.max_error_ft..=self.max_error_ft)
        };
        (true_ft + err).max(0.0)
    }

    /// The guaranteed maximum absolute measurement error, in feet.
    pub fn max_error(&self) -> f64 {
        self.max_error_ft
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounded_error_within_epsilon() {
        let r = BoundedRanging::new(10.0);
        let mut rng = StdRng::seed_from_u64(1);
        for d in [0.0, 5.0, 50.0, 149.9] {
            for _ in 0..500 {
                let m = r.measure(d, &mut rng);
                assert!((m - d).abs() <= 10.0 + 1e-9, "d={d} m={m}");
                assert!(m >= 0.0);
            }
        }
    }

    #[test]
    fn bounded_zero_epsilon_is_exact() {
        let r = BoundedRanging::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(r.measure(42.0, &mut rng), 42.0);
    }

    #[test]
    fn bounded_errors_cover_both_signs() {
        let r = BoundedRanging::new(5.0);
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..1000)
            .map(|_| r.measure(100.0, &mut rng) - 100.0)
            .collect();
        assert!(samples.iter().any(|&e| e > 2.0));
        assert!(samples.iter().any(|&e| e < -2.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.5, "biased: {mean}");
    }

    #[test]
    fn noise_figure_scales_the_bound() {
        let b = BoundedRanging::new(10.0).with_noise_figure(2.5);
        assert_eq!(b.max_error(), 25.0);
        // Figure 1.0 is the identity.
        assert_eq!(
            BoundedRanging::new(10.0).with_noise_figure(1.0),
            BoundedRanging::new(10.0)
        );
        // The scaled bound is actually honoured by measurements.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let m = b.measure(60.0, &mut rng);
            assert!((m - 60.0).abs() <= 25.0 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "noise figure")]
    fn zero_noise_figure_rejected() {
        BoundedRanging::new(10.0).with_noise_figure(0.0);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_epsilon_rejected() {
        BoundedRanging::new(-1.0);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_distance_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        BoundedRanging::new(1.0).measure(-5.0, &mut rng);
    }
}
