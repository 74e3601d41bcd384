//! Master-key-derived pairwise keys.

use crate::Key;
use secloc_crypto::NodeId;

/// The idealised pairwise-key substrate the paper assumes.
///
/// "We assume that two communicating nodes share a unique pairwise key"
/// (§2). Random key predistribution schemes approximate this; the master-key
/// derivation here realises it exactly, which is the appropriate model when
/// the experiments under study are about *localization* security rather than
/// key-establishment coverage.
///
/// Every node pair `(a, b)` shares `K_{ab} = KDF(master, min(a,b) || max(a,b))`
/// and every node shares `K_{a,BS} = KDF(master, "bs" || a)` with the base
/// station, as required by the revocation scheme in §3.
///
/// # Examples
///
/// ```
/// use secloc_crypto::NodeId;
/// use secloc_oracle::{Key, PairwiseKeyStore};
///
/// let store = PairwiseKeyStore::new(Key::from_u128(7));
/// assert_eq!(store.pairwise(NodeId(1), NodeId(2)), store.pairwise(NodeId(2), NodeId(1)));
/// assert_ne!(store.pairwise(NodeId(1), NodeId(2)), store.pairwise(NodeId(1), NodeId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct PairwiseKeyStore {
    master: Key,
}

impl PairwiseKeyStore {
    /// Creates a store rooted at `master`.
    pub fn new(master: Key) -> Self {
        PairwiseKeyStore { master }
    }

    /// The unique pairwise key of nodes `a` and `b` (symmetric in its
    /// arguments).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`: a node does not share a pairwise key with itself.
    pub fn pairwise(&self, a: NodeId, b: NodeId) -> Key {
        assert_ne!(a, b, "no pairwise key between {a} and itself");
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.master
            .derive_indexed(b"pairwise", ((lo.0 as u64) << 32) | hi.0 as u64)
    }

    /// The key node `a` shares with the base station (used to authenticate
    /// alert reports in the revocation scheme).
    pub fn base_station(&self, a: NodeId) -> Key {
        self.master.derive_indexed(b"basestation", a.0 as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_in_arguments() {
        let s = PairwiseKeyStore::new(Key::from_u128(3));
        for (a, b) in [(0u32, 1u32), (5, 17), (1000, 2)] {
            assert_eq!(
                s.pairwise(NodeId(a), NodeId(b)),
                s.pairwise(NodeId(b), NodeId(a))
            );
        }
    }

    #[test]
    fn unique_per_pair() {
        let s = PairwiseKeyStore::new(Key::from_u128(3));
        let k01 = s.pairwise(NodeId(0), NodeId(1));
        let k02 = s.pairwise(NodeId(0), NodeId(2));
        let k12 = s.pairwise(NodeId(1), NodeId(2));
        assert_ne!(k01, k02);
        assert_ne!(k01, k12);
        assert_ne!(k02, k12);
    }

    #[test]
    fn pair_packing_does_not_collide_across_pairs() {
        // (1, 2) must differ from (0, large) style packings.
        let s = PairwiseKeyStore::new(Key::from_u128(3));
        let a = s.pairwise(NodeId(1), NodeId(2));
        let b = s.pairwise(NodeId(0), NodeId((1u64 << 32 | 2) as u32));
        assert_ne!(a, b);
    }

    #[test]
    fn base_station_keys_differ_from_pairwise() {
        let s = PairwiseKeyStore::new(Key::from_u128(3));
        assert_ne!(s.base_station(NodeId(1)), s.base_station(NodeId(2)));
        assert_ne!(s.base_station(NodeId(1)), s.pairwise(NodeId(1), NodeId(2)));
    }

    #[test]
    fn different_masters_give_different_networks() {
        let s1 = PairwiseKeyStore::new(Key::from_u128(1));
        let s2 = PairwiseKeyStore::new(Key::from_u128(2));
        assert_ne!(
            s1.pairwise(NodeId(0), NodeId(1)),
            s2.pairwise(NodeId(0), NodeId(1))
        );
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_pair_rejected() {
        PairwiseKeyStore::new(Key::from_u128(1)).pairwise(NodeId(4), NodeId(4));
    }
}
