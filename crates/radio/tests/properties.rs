//! Property-based tests for the radio substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_crypto::{Key, NodeId};
use secloc_geometry::Point2;
use secloc_radio::ranging::{BoundedRanging, Ranging, RssiRanging};
use secloc_radio::timing::{DelayComponent, RttModel};
use secloc_radio::{BeaconPayload, Cycles, Frame, FrameBody, RequestPayload};

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

    #[test]
    fn rssi_ranging_honours_epsilon(seed in any::<u64>(), d in 0.0..300.0f64) {
        let r = RssiRanging::mica2_outdoor();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = r.measure(d, &mut rng);
        prop_assert!((m - d).abs() <= r.max_error() + 1e-9);
    }

    #[test]
    fn frame_roundtrip_and_forgery(
        key in any::<u128>(),
        other_key in any::<u128>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        x in -1e4..1e4f64,
        y in -1e4..1e4f64,
    ) {
        prop_assume!(key != other_key);
        let k = Key::from_u128(key);
        let body = FrameBody::Beacon(BeaconPayload {
            beacon: NodeId(src),
            declared: Point2::new(x, y),
        });
        let f = Frame::seal(NodeId(src), NodeId(dst), body, &k);
        prop_assert_eq!(f.open(NodeId(dst), &k).unwrap(), body);
        prop_assert!(f.open(NodeId(dst), &Key::from_u128(other_key)).is_err());
    }

    #[test]
    fn request_frames_roundtrip(key in any::<u128>(), req in any::<u32>()) {
        let k = Key::from_u128(key);
        let body = FrameBody::Request(RequestPayload { requester: NodeId(req) });
        let f = Frame::seal(NodeId(req), NodeId(req.wrapping_add(1)), body, &k);
        prop_assert_eq!(f.open(NodeId(req.wrapping_add(1)), &k).unwrap(), body);
    }

    #[test]
    fn wire_roundtrip_any_beacon(
        key in any::<u128>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        x in -1e6..1e6f64,
        y in -1e6..1e6f64,
    ) {
        use secloc_radio::wire;
        let k = Key::from_u128(key);
        let frame = Frame::seal(
            NodeId(src),
            NodeId(dst),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(src),
                declared: Point2::new(x, y),
            }),
            &k,
        );
        let parsed = wire::decode(&wire::encode(&frame)).unwrap();
        prop_assert_eq!(parsed, frame);
        prop_assert!(parsed.open(NodeId(dst), &k).is_ok());
    }

    #[test]
    fn wire_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // The strict parser must reject or parse — never panic — on
        // arbitrary input.
        let _ = secloc_radio::wire::decode(&bytes);
    }
}
