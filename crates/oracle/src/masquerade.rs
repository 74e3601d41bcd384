//! Masquerading external attackers (Fig. 1a).

use crate::{BeaconPayload, Frame, FrameBody, Key};
use secloc_crypto::NodeId;
use secloc_geometry::Point2;

/// An external attacker pretending to be a beacon node without holding any
/// valid key material.
///
/// It fabricates beacon frames under a guessed key. Since "every beacon
/// packet is authenticated ... with the pairwise key shared between two
/// communicating nodes", these forgeries fail MAC verification at every
/// honest receiver — the paper's justification for focusing on *insider*
/// (compromised-beacon) attacks. Kept as an executable baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Masquerader {
    claimed_id: NodeId,
    declared_position: Point2,
    guessed_key: Key,
}

impl Masquerader {
    /// Creates a masquerader claiming to be beacon `claimed_id` located at
    /// `declared_position`, signing with `guessed_key` (which, lacking a
    /// compromise, differs from every real pairwise key).
    pub fn new(claimed_id: NodeId, declared_position: Point2, guessed_key: Key) -> Self {
        Masquerader {
            claimed_id,
            declared_position,
            guessed_key,
        }
    }

    /// The beacon identity being impersonated.
    pub fn claimed_id(&self) -> NodeId {
        self.claimed_id
    }

    /// Fabricates a beacon frame addressed to `victim`.
    pub fn forge_beacon(&self, victim: NodeId) -> Frame {
        Frame::seal(
            self.claimed_id,
            victim,
            FrameBody::Beacon(BeaconPayload {
                beacon: self.claimed_id,
                declared: self.declared_position,
            }),
            &self.guessed_key,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairwiseKeyStore;

    #[test]
    fn forgery_rejected_by_honest_receiver() {
        let store = PairwiseKeyStore::new(Key::from_u128(1234));
        let attacker = Masquerader::new(
            NodeId(3),
            Point2::new(10.0, 10.0),
            Key::from_u128(0xbad), // not the real pairwise key
        );
        let victim = NodeId(40);
        let frame = attacker.forge_beacon(victim);
        let real_key = store.pairwise(NodeId(3), victim);
        assert!(frame.open(victim, &real_key).is_err(), "forgery accepted!");
    }

    #[test]
    fn forgery_with_stolen_key_succeeds() {
        // Sanity check of the threat model: only *key compromise* defeats
        // MAC filtering, which is why the paper's detector exists at all.
        let store = PairwiseKeyStore::new(Key::from_u128(1234));
        let victim = NodeId(40);
        let stolen = store.pairwise(NodeId(3), victim);
        let attacker = Masquerader::new(NodeId(3), Point2::new(10.0, 10.0), stolen);
        let frame = attacker.forge_beacon(victim);
        assert!(frame.open(victim, &stolen).is_ok());
    }

    #[test]
    fn frame_carries_claimed_identity() {
        let attacker = Masquerader::new(NodeId(9), Point2::ORIGIN, Key::from_u128(7));
        let frame = attacker.forge_beacon(NodeId(1));
        assert_eq!(frame.src(), NodeId(9));
        assert_eq!(attacker.claimed_id(), NodeId(9));
        match frame.peek_body() {
            FrameBody::Beacon(b) => assert_eq!(b.beacon, NodeId(9)),
            other => panic!("unexpected body {other:?}"),
        }
    }
}
