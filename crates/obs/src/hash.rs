//! 64-bit FNV-1a, the workspace's one content hash.

use std::fmt;

/// The FNV-1a 64-bit offset basis: the state before any byte.
pub(crate) const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming 64-bit FNV-1a state.
///
/// Sweep cell keys, binary-cache record checksums, alerter trace ids and
/// span ids are all FNV-1a: stable across platforms and releases, unlike
/// `std::hash`'s randomly keyed `SipHash`. The state implements
/// [`fmt::Write`], so `write!(hasher, "{value:?}")` hashes a value's
/// formatted text without building a `String`. FNV-1a folds one byte at a
/// time and the state is `Copy`, so a copy saved after a shared prefix
/// continues exactly as re-hashing the whole text would.
///
/// ```
/// use secloc_obs::{fnv1a, Fnv1a};
/// use std::fmt::Write as _;
///
/// let mut prefix = Fnv1a::new();
/// write!(prefix, "config;seed=").unwrap();
/// let mut cell = prefix;
/// write!(cell, "{}", 7).unwrap();
/// assert_eq!(cell.finish(), fnv1a(b"config;seed=7"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the standard offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(FNV1A_OFFSET)
    }

    /// A hasher resuming from `state`, e.g. an offset basis mixed with a
    /// parent id.
    #[inline]
    pub(crate) const fn with_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV1A_PRIME);
        }
        self.0 = h;
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// 64-bit FNV-1a over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
