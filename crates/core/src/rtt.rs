//! The local-replay filter: round-trip-time thresholding (§2.2.2).

use secloc_radio::timing::{RttCdf, RttModel};
use secloc_radio::Cycles;

/// Verdict of the RTT-based local-replay filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalReplayVerdict {
    /// `RTT ≤ x_max`: the signal came straight from the transmitter.
    Fresh,
    /// `RTT > x_max`: at least one store-and-forward hop was inserted —
    /// the signal is locally replayed and must be ignored.
    LocallyReplayed,
}

/// The local-replay detector "installed on every beacon and non-beacon
/// node": compare the observed RTT against the calibrated maximum
/// attack-free RTT `x_max`.
///
/// # Examples
///
/// ```
/// use secloc_core::{LocalReplayVerdict, RttFilter};
/// use secloc_radio::Cycles;
///
/// let filter = RttFilter::paper_default();
/// assert_eq!(filter.classify(Cycles::new(7_000)), LocalReplayVerdict::Fresh);
/// assert_eq!(filter.classify(Cycles::new(9_500)), LocalReplayVerdict::LocallyReplayed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttFilter {
    x_max: Cycles,
}

impl RttFilter {
    /// Creates a filter with an explicit threshold.
    pub fn new(x_max: Cycles) -> Self {
        RttFilter { x_max }
    }

    /// The filter calibrated from the paper's reconstructed measurement
    /// campaign: threshold `x_max` from [`RttModel::paper_default`] plus
    /// its in-range propagation allowance.
    pub fn paper_default() -> Self {
        RttFilter::new(RttModel::paper_default().max_rtt_with_range(150.0))
    }

    /// Calibrates the threshold from an empirical attack-free RTT
    /// distribution, exactly as the paper derives `x_max` from Fig. 4.
    pub fn from_cdf(cdf: &RttCdf) -> Self {
        RttFilter::new(cdf.x_max())
    }

    /// The threshold `x_max` in force.
    pub fn x_max(&self) -> Cycles {
        self.x_max
    }

    /// Classifies one measured RTT.
    pub fn classify(&self, rtt: Cycles) -> LocalReplayVerdict {
        if rtt > self.x_max {
            LocalReplayVerdict::LocallyReplayed
        } else {
            LocalReplayVerdict::Fresh
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secloc_radio::timing::PAPER_X_MIN;
    use secloc_radio::CYCLES_PER_BIT;

    #[test]
    fn threshold_boundary_inclusive() {
        let f = RttFilter::new(Cycles::new(7656));
        assert_eq!(f.classify(Cycles::new(7656)), LocalReplayVerdict::Fresh);
        assert_eq!(
            f.classify(Cycles::new(7657)),
            LocalReplayVerdict::LocallyReplayed
        );
        assert_eq!(f.x_max(), Cycles::new(7656));
    }

    #[test]
    fn honest_exchanges_pass_the_paper_filter() {
        let f = RttFilter::paper_default();
        let m = RttModel::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let rtt = m.sample(150.0, Cycles::ZERO, &mut rng);
            assert_eq!(f.classify(rtt), LocalReplayVerdict::Fresh, "{rtt}");
        }
    }

    #[test]
    fn whole_packet_replays_always_caught() {
        let f = RttFilter::paper_default();
        let m = RttModel::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let replay = Cycles::from_bytes(36);
        for _ in 0..5000 {
            let rtt = m.sample(150.0, replay, &mut rng);
            assert_eq!(f.classify(rtt), LocalReplayVerdict::LocallyReplayed);
        }
    }

    #[test]
    fn sub_margin_replays_can_slip_through() {
        // The paper's stated limitation: delays under ~4.5 bit-times are
        // undetectable — and physically unrealisable for store-and-forward.
        let f = RttFilter::paper_default();
        let m = RttModel::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let tiny = Cycles::from_bits(1.0);
        let slipped = (0..5000)
            .filter(|_| f.classify(m.sample(10.0, tiny, &mut rng)) == LocalReplayVerdict::Fresh)
            .count();
        assert!(
            slipped > 0,
            "a 1-bit delay should sometimes evade the filter"
        );
    }

    #[test]
    fn calibration_from_cdf_matches_observed_max() {
        let m = RttModel::paper_default();
        let mut rng = StdRng::seed_from_u64(4);
        let cdf = m.empirical_cdf(10_000, 100.0, &mut rng);
        let f = RttFilter::from_cdf(&cdf);
        assert_eq!(f.x_max(), cdf.x_max());
        // Everything in the calibration set passes by construction.
        assert_eq!(f.classify(cdf.x_max()), LocalReplayVerdict::Fresh);
    }

    #[test]
    fn catch_margin_close_to_four_and_a_half_bits() {
        let f = RttFilter::paper_default();
        // A replay is missed only when its delay is at most x_max − x_min.
        let margin = f.x_max.saturating_sub(Cycles::new(PAPER_X_MIN));
        let bits = margin.as_u64() as f64 / CYCLES_PER_BIT as f64;
        assert!((bits - 4.5).abs() < 0.1, "margin {bits} bits");
    }
}
