//! The malicious beacon signal detector (§2.1).

use secloc_geometry::Point2;

/// Verdict of the distance-consistency check on one beacon signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalVerdict {
    /// Measured and calculated distances agree within the error bound.
    /// (The signal may still originate from a compromised node, but then it
    /// is "equivalent to the situation where a benign beacon node located at
    /// (x′, y′) sends a benign beacon signal" — it cannot mislead anyone.)
    Consistent,
    /// The distances disagree beyond the maximum measurement error: the
    /// signal is provably malicious (or replayed — see the filters).
    Malicious,
}

/// The §2.1 detector: compare the distance *measured* from the beacon
/// signal with the distance *calculated* from the detector's own location
/// and the location declared in the beacon packet.
///
/// "If the difference between them is larger than the maximum distance
/// error, the detecting node can infer that the received beacon signal must
/// be malicious."
///
/// # Examples
///
/// ```
/// use secloc_core::{SignalDetector, SignalVerdict};
/// use secloc_geometry::Point2;
///
/// let det = SignalDetector::new(10.0);
/// let me = Point2::new(0.0, 0.0);
/// // Beacon claims (30, 40) => calculated distance 50. Measured 55: within
/// // the 10 ft bound.
/// assert_eq!(det.check(me, Point2::new(30.0, 40.0), 55.0), SignalVerdict::Consistent);
/// // Measured 90: malicious.
/// assert_eq!(det.check(me, Point2::new(30.0, 40.0), 90.0), SignalVerdict::Malicious);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalDetector {
    max_error_ft: f64,
}

impl SignalDetector {
    /// Creates a detector for a ranging subsystem whose maximum distance
    /// error is `max_error_ft` (the paper's ε, reconstructed as 10 ft).
    ///
    /// # Panics
    ///
    /// Panics if `max_error_ft` is negative or not finite.
    pub fn new(max_error_ft: f64) -> Self {
        assert!(
            max_error_ft.is_finite() && max_error_ft >= 0.0,
            "max error must be >= 0, got {max_error_ft}"
        );
        SignalDetector { max_error_ft }
    }

    /// The error bound in force.
    pub fn max_error(&self) -> f64 {
        self.max_error_ft
    }

    /// Runs the consistency check.
    ///
    /// `detector_position` is the detecting node's own (known) location,
    /// `declared_position` the location in the received beacon packet, and
    /// `measured_distance_ft` the distance estimated from the signal.
    pub fn check(
        &self,
        detector_position: Point2,
        declared_position: Point2,
        measured_distance_ft: f64,
    ) -> SignalVerdict {
        let calculated = detector_position.distance(declared_position);
        if (measured_distance_ft - calculated).abs() > self.max_error_ft {
            SignalVerdict::Malicious
        } else {
            SignalVerdict::Consistent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_is_exclusive() {
        // "larger than the maximum distance error" — exactly eps passes.
        let det = SignalDetector::new(10.0);
        assert_eq!(det.max_error(), 10.0);
        let me = Point2::ORIGIN;
        let claim = Point2::new(100.0, 0.0);
        assert_eq!(det.check(me, claim, 110.0), SignalVerdict::Consistent);
        assert_eq!(det.check(me, claim, 110.0 + 1e-9), SignalVerdict::Malicious);
        assert_eq!(det.check(me, claim, 90.0), SignalVerdict::Consistent);
        assert_eq!(det.check(me, claim, 90.0 - 1e-9), SignalVerdict::Malicious);
    }

    #[test]
    fn honest_beacon_with_bounded_noise_never_flagged() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let det = SignalDetector::new(10.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2000 {
            let me = Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let beacon = Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let true_d = me.distance(beacon);
            let measured = (true_d + rng.gen_range(-10.0..=10.0)).max(0.0);
            // measured can clip at 0 when true_d < 10; clipping only shrinks
            // the error, so the check still passes.
            assert_eq!(
                det.check(me, beacon, measured),
                SignalVerdict::Consistent,
                "false positive at me={me} beacon={beacon} measured={measured}"
            );
        }
    }

    #[test]
    fn location_lie_detected_when_geometry_reveals_it() {
        let det = SignalDetector::new(10.0);
        let me = Point2::new(0.0, 0.0);
        let true_pos = Point2::new(100.0, 0.0);
        let declared = Point2::new(400.0, 0.0); // 300 ft lie, along the axis
                                                // Measured distance reflects the true position (±eps).
        for noise in [-10.0, 0.0, 10.0] {
            let measured = me.distance(true_pos) + noise;
            assert_eq!(det.check(me, declared, measured), SignalVerdict::Malicious);
        }
    }

    #[test]
    fn small_lie_can_hide_inside_noise() {
        // A lie smaller than the error bound is undetectable from some
        // positions — and harmless at the same scale.
        let det = SignalDetector::new(10.0);
        let me = Point2::new(0.0, 0.0);
        let true_pos = Point2::new(100.0, 0.0);
        let declared = Point2::new(105.0, 0.0); // 5 ft lie
        let measured = me.distance(true_pos); // zero noise
        assert_eq!(det.check(me, declared, measured), SignalVerdict::Consistent);
    }

    #[test]
    fn distance_manipulation_detected() {
        // Fig. 1b's other manipulation: correct declared location, wrong
        // signal strength (measured distance off by more than eps).
        let det = SignalDetector::new(10.0);
        let me = Point2::new(0.0, 0.0);
        let beacon = Point2::new(60.0, 80.0); // 100 ft away, truthfully declared
        assert_eq!(det.check(me, beacon, 140.0), SignalVerdict::Malicious);
        assert_eq!(det.check(me, beacon, 60.0), SignalVerdict::Malicious);
        assert_eq!(det.check(me, beacon, 105.0), SignalVerdict::Consistent);
    }

    #[test]
    fn zero_epsilon_exact_match_required() {
        let det = SignalDetector::new(0.0);
        let me = Point2::ORIGIN;
        let b = Point2::new(3.0, 4.0);
        assert_eq!(det.check(me, b, 5.0), SignalVerdict::Consistent);
        assert_eq!(det.check(me, b, 5.0001), SignalVerdict::Malicious);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_epsilon_rejected() {
        SignalDetector::new(-1.0);
    }
}
