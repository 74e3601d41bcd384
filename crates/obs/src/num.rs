//! Allocation-free integer and hex writers that bypass `core::fmt`.
//!
//! Every integer the sweep engine and the event stream write — cell
//! indices, seeds, counts, sequence numbers, 16-hex-digit keys — goes
//! through these functions. Each appends exactly the bytes `Display` (or
//! `{:016x}`, for the hex form) would, so a writer that switches from
//! `write!` to them changes no byte on disk; it only skips the formatting
//! machinery, which costs several times the conversion itself. Floats are
//! not here: they print through `core::fmt`, and the sweep engine's float
//! memo formats each repeated value once (DESIGN.md §11).
//!
//! ```
//! use secloc_obs::num::{push_hex16, push_i64, push_u64};
//!
//! let mut s = String::new();
//! push_u64(&mut s, 1_000_007);
//! s.push(' ');
//! push_i64(&mut s, -42);
//! s.push(' ');
//! push_hex16(&mut s, 0xc0ffee);
//! assert_eq!(s, "1000007 -42 0000000000c0ffee");
//! ```

/// `"00" "01" … "99"`: two digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// The writers only ever produce ASCII digits and signs.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("number writers produce ASCII")
}

/// Writes `v`'s decimal digits, right-aligned, into `buf` and returns
/// them — the bytes `Display` prints for `v`. Hashing a number's text
/// (a sweep's cell-key suffix, say) can fold these straight into the hash.
///
/// ```
/// let mut buf = [0u8; 20];
/// assert_eq!(secloc_obs::num::u64_digits(u64::MAX, &mut buf), b"18446744073709551615");
/// ```
pub fn u64_digits(v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let start = write_digits(v, buf, 20);
    &buf[start..]
}

/// Writes `v`'s decimal digits so that they end at `buf[end]` and returns
/// where they start.
fn write_digits(mut v: u64, buf: &mut [u8], end: usize) -> usize {
    let mut at = end;
    // Eight digits per 64-bit division; the rest in 32-bit arithmetic.
    while v >= 100_000_000 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        at -= 8;
        put_pair(buf, at, low / 1_000_000);
        put_pair(buf, at + 2, low / 10_000 % 100);
        put_pair(buf, at + 4, low / 100 % 100);
        put_pair(buf, at + 6, low % 100);
    }
    let mut v = v as u32;
    while v >= 100 {
        at -= 2;
        put_pair(buf, at, v % 100);
        v /= 100;
    }
    if v >= 10 {
        at -= 2;
        put_pair(buf, at, v);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Writes the two digits of `pair` (< 100) at `buf[at..at + 2]`.
fn put_pair(buf: &mut [u8], at: usize, pair: u32) {
    let from = pair as usize * 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[from..from + 2]);
}

/// Appends `v` as `Display` would.
pub fn push_u64(out: &mut String, v: u64) {
    if v < 10 {
        // Most counts in an outcome line are one digit.
        out.push(char::from(b'0' + v as u8));
        return;
    }
    let mut buf = [0u8; 20];
    out.push_str(ascii(u64_digits(v, &mut buf)));
}

/// Appends `v` as `Display` would.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// `v` as 16 lowercase hex digits, zero-padded: the bytes of
/// `format!("{v:016x}")`, the form of every cell key and trace id.
pub fn hex16(v: u64) -> [u8; 16] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; 16];
    for (i, b) in out.iter_mut().enumerate() {
        *b = HEX[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// Appends `v` as `format!("{v:016x}")` would.
pub fn push_hex16(out: &mut String, v: u64) {
    out.push_str(ascii(&hex16(v)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a seeded stream of bit patterns.
    fn bit_patterns(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::from_fn(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            Some(z ^ (z >> 31))
        })
    }

    #[test]
    fn integers_match_display() {
        let mut samples = vec![0, 1, 9, 10, 99, 100, 101, u64::MAX, u64::MAX - 1];
        samples.extend((0..64).flat_map(|p| [(1u64 << p) - 1, 1 << p]));
        samples.extend((0..20).map(|p| 10u64.pow(p)));
        samples.extend(bit_patterns(3).take(100_000).map(|b| b >> (b % 64)));
        for v in samples {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
            for i in [v as i64, (v as i64).wrapping_neg(), i64::MIN, i64::MAX] {
                s.clear();
                push_i64(&mut s, i);
                assert_eq!(s, i.to_string());
            }
            s.clear();
            push_hex16(&mut s, v);
            assert_eq!(s, format!("{v:016x}"));
        }
    }
}
