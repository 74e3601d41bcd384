//! Property-based tests for the frame-level stack: MACs, pairwise keys
//! and authenticated frames.

use proptest::prelude::*;
use secloc_crypto::NodeId;
use secloc_geometry::Point2;
use secloc_oracle::{BeaconPayload, Frame, FrameBody, Key, Mac, PairwiseKeyStore, RequestPayload};

proptest! {
    #[test]
    fn mac_verifies_genuine_and_rejects_bitflips(
        key in any::<u128>(),
        data in proptest::collection::vec(any::<u8>(), 1..64),
        flip_at in any::<proptest::sample::Index>(),
    ) {
        let k = Key::from_u128(key);
        let tag = Mac::compute(&k, &data);
        prop_assert!(tag.verify(&k, &data));
        let mut tampered = data.clone();
        let i = flip_at.index(tampered.len());
        tampered[i] ^= 0x01;
        prop_assert!(!tag.verify(&k, &tampered));
    }

    #[test]
    fn pairwise_symmetric_unique(a in 0u32..10_000, b in 0u32..10_000, c in 0u32..10_000) {
        prop_assume!(a != b && a != c && b != c);
        let s = PairwiseKeyStore::new(Key::from_u128(77));
        let kab = s.pairwise(NodeId(a), NodeId(b));
        prop_assert_eq!(kab, s.pairwise(NodeId(b), NodeId(a)));
        prop_assert_ne!(kab, s.pairwise(NodeId(a), NodeId(c)));
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
}
