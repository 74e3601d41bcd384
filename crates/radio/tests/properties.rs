//! Property-based tests for the radio substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_radio::ranging::BoundedRanging;
use secloc_radio::timing::{DelayComponent, RttModel};
use secloc_radio::Cycles;

proptest! {
    #[test]
    fn rtt_samples_bounded_by_model(
        seed in any::<u64>(),
        bases in proptest::array::uniform4(100u64..5000),
        jitters in proptest::array::uniform4(0u64..1000),
        dist in 0.0..1000.0f64,
    ) {
        let model = RttModel::new([
            DelayComponent { base: bases[0], jitter_max: jitters[0] },
            DelayComponent { base: bases[1], jitter_max: jitters[1] },
            DelayComponent { base: bases[2], jitter_max: jitters[2] },
            DelayComponent { base: bases[3], jitter_max: jitters[3] },
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let rtt = model.sample(dist, Cycles::ZERO, &mut rng);
            prop_assert!(rtt >= model.min_rtt());
            prop_assert!(rtt <= model.max_rtt_with_range(dist));
        }
    }

    #[test]
    fn replay_strictly_increases_rtt(seed in any::<u64>(), extra in 1u64..100_000) {
        let model = RttModel::paper_default();
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let honest = model.sample(50.0, Cycles::ZERO, &mut a);
        let replayed = model.sample(50.0, Cycles::new(extra), &mut b);
        prop_assert_eq!(replayed, honest + Cycles::new(extra));
    }

    #[test]
    fn bounded_ranging_honours_epsilon(
        seed in any::<u64>(),
        eps in 0.0..50.0f64,
        d in 0.0..500.0f64,
    ) {
        let r = BoundedRanging::new(eps);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = r.measure(d, &mut rng);
        prop_assert!((m - d).abs() <= eps + 1e-9);
        prop_assert!(m >= 0.0);
    }
}
