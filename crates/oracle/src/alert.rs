//! Alerts authenticated for the base station.

use crate::{Key, Mac};
use secloc_core::Alert;

/// An alert authenticated with the reporter's base-station key.
///
/// "We assume each beacon node shares a unique random key with the base
/// station. With this key, a beacon node can report its detecting results
/// securely to the base station" (§3.1).
///
/// # Examples
///
/// ```
/// use secloc_core::Alert;
/// use secloc_crypto::NodeId;
/// use secloc_oracle::{Key, PairwiseKeyStore, SignedAlert};
///
/// let keys = PairwiseKeyStore::new(Key::from_u128(5));
/// let alert = Alert::new(NodeId(3), NodeId(8));
/// let signed = SignedAlert::sign(alert, &keys.base_station(NodeId(3)));
/// assert!(signed.verify(&keys.base_station(NodeId(3))));
/// assert!(!signed.verify(&keys.base_station(NodeId(4))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedAlert {
    alert: Alert,
    tag: Mac,
}

impl SignedAlert {
    /// Signs `alert` with the reporter's base-station key.
    pub fn sign(alert: Alert, reporter_bs_key: &Key) -> Self {
        SignedAlert {
            alert,
            tag: Mac::compute(reporter_bs_key, &wire_bytes(&alert)),
        }
    }

    /// Verifies the signature under the claimed reporter's key.
    pub fn verify(&self, reporter_bs_key: &Key) -> bool {
        self.tag.verify(reporter_bs_key, &wire_bytes(&self.alert))
    }

    /// The alert content (use only after [`SignedAlert::verify`]).
    pub fn alert(&self) -> Alert {
        self.alert
    }
}

/// The MAC input: reporter then target, little-endian.
fn wire_bytes(alert: &Alert) -> [u8; 8] {
    let mut b = [0u8; 8];
    b[..4].copy_from_slice(&alert.reporter.0.to_le_bytes());
    b[4..].copy_from_slice(&alert.target.0.to_le_bytes());
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairwiseKeyStore;
    use secloc_crypto::NodeId;

    #[test]
    fn sign_verify_roundtrip() {
        let keys = PairwiseKeyStore::new(Key::from_u128(9));
        let k = keys.base_station(NodeId(1));
        let s = SignedAlert::sign(Alert::new(NodeId(1), NodeId(2)), &k);
        assert!(s.verify(&k));
        assert_eq!(s.alert(), Alert::new(NodeId(1), NodeId(2)));
    }

    #[test]
    fn forged_reporter_rejected() {
        // A malicious node cannot submit alerts in another node's name.
        let keys = PairwiseKeyStore::new(Key::from_u128(9));
        let attacker_key = keys.base_station(NodeId(66));
        let forged = SignedAlert::sign(Alert::new(NodeId(1), NodeId(2)), &attacker_key);
        assert!(!forged.verify(&keys.base_station(NodeId(1))));
    }

    #[test]
    fn tampered_target_rejected() {
        let keys = PairwiseKeyStore::new(Key::from_u128(9));
        let k = keys.base_station(NodeId(1));
        let s = SignedAlert::sign(Alert::new(NodeId(1), NodeId(2)), &k);
        let tampered = SignedAlert {
            alert: Alert::new(NodeId(1), NodeId(3)),
            tag: s.tag,
        };
        assert!(!tampered.verify(&k));
    }
}
