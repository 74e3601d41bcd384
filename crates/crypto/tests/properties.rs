//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use secloc_crypto::{prf, IdSpace, NodeId};

proptest! {
    #[test]
    fn prf_deterministic(k0 in any::<u64>(), k1 in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(prf::prf64((k0, k1), &data), prf::prf64((k0, k1), &data));
    }

    #[test]
    fn prf_distinguishes_appended_byte(
        k in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        extra in any::<u8>(),
    ) {
        let mut longer = data.clone();
        longer.push(extra);
        prop_assert_ne!(prf::prf64((k, !k), &data), prf::prf64((k, !k), &longer));
    }

    #[test]
    fn id_space_roundtrips(beacons in 1u32..64, sensors in 0u32..256, m in 0u32..16) {
        let ids = IdSpace::new(beacons, sensors, m);
        for i in (0..beacons).step_by(7).chain([beacons - 1]) {
            prop_assert_eq!(ids.role_of(ids.beacon(i)), secloc_crypto::NodeRole::Beacon);
            for k in 0..m {
                let d = ids.detecting_id(i, k);
                prop_assert!(ids.is_detecting_id(d));
                prop_assert_eq!(ids.owner_of_detecting_id(d), Some(NodeId(i)));
                prop_assert_eq!(ids.role_of(d), secloc_crypto::NodeRole::NonBeacon);
            }
        }
        prop_assert_eq!(ids.total(), beacons + sensors + beacons * m);
    }
}
