//! Keys and message authentication tags.
//!
//! The primitives are *simulation-grade*: real keyed functions with real
//! verification (forged packets are rejected), with no claim of
//! production cryptographic strength.

use secloc_crypto::prf::prf64;
use std::fmt;

/// A 128-bit symmetric key.
///
/// Keys are deliberately opaque: `Debug`/`Display` never print key material.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    k0: u64,
    k1: u64,
}

impl Key {
    /// Builds a key from two 64-bit halves.
    pub const fn new(k0: u64, k1: u64) -> Self {
        Key { k0, k1 }
    }

    /// Builds a key from a single 128-bit value.
    pub const fn from_u128(v: u128) -> Self {
        Key {
            k0: (v >> 64) as u64,
            k1: v as u64,
        }
    }

    /// Derives a child key bound to `context` (domain separation).
    pub fn derive(&self, context: &[u8]) -> Key {
        let (k0, k1) = derive_key((self.k0, self.k1), context);
        Key { k0, k1 }
    }

    /// Derives a child key bound to a context label and a numeric suffix —
    /// convenient for per-node and per-pair keys.
    pub fn derive_indexed(&self, context: &[u8], index: u64) -> Key {
        let mut c = Vec::with_capacity(context.len() + 8);
        c.extend_from_slice(context);
        c.extend_from_slice(&index.to_le_bytes());
        self.derive(&c)
    }

    pub(crate) fn halves(&self) -> (u64, u64) {
        (self.k0, self.k1)
    }
}

/// Derives a fresh 128-bit key from a parent key and a context label.
///
/// Used to expand one master secret into pairwise keys, detecting-ID keys and
/// base-station keys without key reuse across domains.
fn derive_key(parent: (u64, u64), context: &[u8]) -> (u64, u64) {
    let mut left = Vec::with_capacity(context.len() + 1);
    left.push(0x4c); // 'L'
    left.extend_from_slice(context);
    let mut right = Vec::with_capacity(context.len() + 1);
    right.push(0x52); // 'R'
    right.extend_from_slice(context);
    (prf64(parent, &left), prf64(parent, &right))
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(<redacted>)")
    }
}

/// A 64-bit message authentication tag.
///
/// # Examples
///
/// ```
/// use secloc_oracle::{Key, Mac};
///
/// let k = Key::from_u128(1);
/// let tag = Mac::compute(&k, b"msg");
/// assert!(tag.verify(&k, b"msg"));
/// assert!(!tag.verify(&Key::from_u128(2), b"msg"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mac(u64);

impl Mac {
    /// Computes the tag of `data` under `key`.
    pub fn compute(key: &Key, data: &[u8]) -> Mac {
        Mac(prf64(key.halves(), data))
    }

    /// Verifies that `self` authenticates `data` under `key`.
    pub fn verify(&self, key: &Key, data: &[u8]) -> bool {
        // Constant-time-ish compare; irrelevant in simulation but cheap.
        let expected = Mac::compute(key, data).0;
        (expected ^ self.0) == 0
    }

    /// Raw tag bits.
    pub fn into_bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a tag from its wire representation.
    pub fn from_bits(bits: u64) -> Mac {
        Mac(bits)
    }
}

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mac:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_accepts_genuine_rejects_forged() {
        let k = Key::new(11, 22);
        let tag = Mac::compute(&k, b"location=(10,20)");
        assert!(tag.verify(&k, b"location=(10,20)"));
        assert!(!tag.verify(&k, b"location=(10,21)"));
        assert!(!Mac::from_bits(tag.into_bits() ^ 1).verify(&k, b"location=(10,20)"));
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = Key::new(1, 2);
        let k2 = Key::new(1, 3);
        let tag = Mac::compute(&k1, b"payload");
        assert!(!tag.verify(&k2, b"payload"));
    }

    #[test]
    fn bits_roundtrip() {
        let k = Key::from_u128(0xabcd);
        let tag = Mac::compute(&k, b"x");
        assert_eq!(Mac::from_bits(tag.into_bits()), tag);
    }

    #[test]
    fn derive_indexed_distinct_per_index() {
        let master = Key::from_u128(99);
        let a = master.derive_indexed(b"node", 1);
        let b = master.derive_indexed(b"node", 2);
        let c = master.derive_indexed(b"pair", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, master.derive_indexed(b"node", 1));
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let k = Key::new(0x1234_5678, 0x9abc_def0);
        let s = format!("{k:?}");
        assert!(!s.contains("1234"), "debug leaked key: {s}");
        assert!(s.contains("redacted"));
    }

    #[test]
    fn derive_key_domain_separation() {
        let parent = (42, 43);
        let a = derive_key(parent, b"pairwise");
        let b = derive_key(parent, b"basestation");
        assert_ne!(a, b);
        assert_ne!(a.0, a.1, "halves should be independent");
        assert_eq!(a, derive_key(parent, b"pairwise"));
    }

    #[test]
    fn from_u128_splits_halves() {
        let k = Key::from_u128((5u128 << 64) | 7);
        assert_eq!(k, Key::new(5, 7));
    }
}
