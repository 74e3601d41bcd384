//! Per-node clock drift.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secloc_radio::Cycles;

/// Clock-drift parameters: each node's clock runs fast by a per-node skew
/// drawn uniformly from `0..=max_skew_cycles` once per run.
///
/// The skew is added to every RTT the node measures. The paper's replay
/// filter accepts RTTs up to `x_max` plus a ranging margin; honest
/// exchanges already use most of that window, so even a few hundred cycles
/// of skew pushes some legitimate-looking malicious signals past the
/// threshold — they get *ignored as replays* instead of alerted on, and
/// the detection rate erodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDriftSpec {
    /// Maximum per-node skew, in CPU cycles.
    pub max_skew_cycles: u64,
}

/// The resolved per-node skews for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftTable {
    skews: Vec<u64>,
}

impl DriftTable {
    /// Draws one skew per node from the drift stream seeded by `seed`.
    ///
    /// Fully determined by `(spec, nodes, seed)`; the draws touch no other
    /// RNG stream.
    pub fn generate(spec: &ClockDriftSpec, nodes: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let skews = (0..nodes)
            .map(|_| {
                if spec.max_skew_cycles == 0 {
                    0
                } else {
                    rng.gen_range(0..=spec.max_skew_cycles)
                }
            })
            .collect();
        DriftTable { skews }
    }

    /// The skew of node `i`'s clock.
    pub fn skew(&self, i: u32) -> Cycles {
        Cycles::new(self.skews[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_bounded() {
        let spec = ClockDriftSpec {
            max_skew_cycles: 500,
        };
        let a = DriftTable::generate(&spec, 100, 7);
        let b = DriftTable::generate(&spec, 100, 7);
        assert_eq!(a, b);
        for i in 0..100 {
            assert!(a.skew(i) <= Cycles::new(500));
        }
        let c = DriftTable::generate(&spec, 100, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn zero_max_skew_is_all_zero() {
        let t = DriftTable::generate(&ClockDriftSpec { max_skew_cycles: 0 }, 10, 1);
        for i in 0..10 {
            assert_eq!(t.skew(i), Cycles::ZERO);
        }
    }

    #[test]
    fn skews_spread_across_the_range() {
        let t = DriftTable::generate(
            &ClockDriftSpec {
                max_skew_cycles: 1000,
            },
            200,
            3,
        );
        let distinct: std::collections::HashSet<u64> =
            (0..200).map(|i| t.skew(i).as_u64()).collect();
        assert!(distinct.len() > 100, "skews collapsed: {}", distinct.len());
    }
}
