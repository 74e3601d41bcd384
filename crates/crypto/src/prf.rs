//! A from-scratch 64-bit keyed pseudo-random function.
//!
//! This is the SipHash-2-4 construction (Aumasson & Bernstein), implemented
//! here directly so the workspace has no external crypto dependency. It keys
//! the simulator's per-link wormhole verdicts and seed derivation.
//!
//! # Examples
//!
//! ```
//! let k = (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
//! let t1 = secloc_crypto::prf::prf64(k, b"hello");
//! let t2 = secloc_crypto::prf::prf64(k, b"hello");
//! let t3 = secloc_crypto::prf::prf64(k, b"hellp");
//! assert_eq!(t1, t2);
//! assert_ne!(t1, t3);
//! ```

/// State of the SipHash-2-4 permutation.
#[derive(Debug, Clone, Copy)]
struct SipState {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl SipState {
    fn new(k0: u64, k1: u64) -> Self {
        SipState {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
        }
    }

    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.round();
        self.v0 ^= m;
    }

    fn finish(mut self) -> u64 {
        self.v2 ^= 0xff;
        for _ in 0..4 {
            self.round();
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// Computes the 64-bit PRF of `data` under the 128-bit key `(k0, k1)`.
pub fn prf64(key: (u64, u64), data: &[u8]) -> u64 {
    let mut state = SipState::new(key.0, key.1);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        state.compress(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = data.len() as u8;
    state.compress(u64::from_le_bytes(last));
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the SipHash paper (Appendix A):
    /// key = 00 01 .. 0f, message = 00 01 .. 0e, output = 0xa129ca6149be45e5.
    #[test]
    fn matches_siphash_reference_vector() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let msg: Vec<u8> = (0u8..15).collect();
        assert_eq!(prf64((k0, k1), &msg), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let k = (1, 2);
        assert_eq!(prf64(k, b"abc"), prf64(k, b"abc"));
        assert_ne!(prf64(k, b"abc"), prf64((1, 3), b"abc"));
        assert_ne!(prf64(k, b"abc"), prf64((2, 2), b"abc"));
    }

    #[test]
    fn length_extension_guard() {
        // "ab" and "ab\0" must differ because the length is folded in.
        let k = (7, 7);
        assert_ne!(prf64(k, b"ab"), prf64(k, b"ab\0"));
        assert_ne!(prf64(k, b""), prf64(k, b"\0"));
    }

    #[test]
    fn empty_input_is_defined() {
        let k = (0, 0);
        let t = prf64(k, b"");
        assert_eq!(t, prf64(k, b""));
    }

    #[test]
    fn avalanche_flipping_one_bit_changes_about_half_the_output() {
        let k = (0xdead_beef, 0xcafe_f00d);
        let base = prf64(k, b"avalanche test vector!");
        let mut msg = b"avalanche test vector!".to_vec();
        msg[0] ^= 1;
        let flipped = prf64(k, &msg);
        let differing = (base ^ flipped).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "poor diffusion: {differing} bits differ"
        );
    }

    #[test]
    fn outputs_spread_across_buckets() {
        // Crude uniformity check: hash 4096 counters, bucket by top 4 bits.
        let k = (9, 9);
        let mut buckets = [0u32; 16];
        for i in 0..4096u32 {
            let t = prf64(k, &i.to_le_bytes());
            buckets[(t >> 60) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((150..=370).contains(&b), "bucket {i} has {b}");
        }
    }
}
