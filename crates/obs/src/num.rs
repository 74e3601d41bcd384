//! Allocation-free number writers that bypass `core::fmt`.
//!
//! Every number the sweep engine and the event stream write — outcome
//! floats, cell indices, seeds, sequence numbers, 16-hex-digit keys — goes
//! through these functions. Each appends exactly the bytes `Display` (or
//! `{:016x}`, for the hex form) would, so a writer that switches from
//! `write!` to them changes no byte on disk; it only skips the formatting
//! machinery, which costs several times the conversion itself.
//!
//! [`push_f64`] is the shortest round-trip conversion of Ryū (Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018): scale the value's
//! rounding interval to about 17 decimal digits with one 64×128-bit
//! multiply by a power of 5 (or its inverse), then drop digits while the
//! interval still holds a shorter decimal. Two points make it
//! byte-identical to `Display` rather than to textbook Ryū:
//!
//! - a value exactly halfway between the two shortest candidates rounds
//!   **up**, as `core::fmt` does (`125000000000000.125` prints
//!   `125000000000000.13`), where Ryū rounds half to even;
//! - the digits are laid out the way `Display` lays them out — never in
//!   exponent form, so `1e21` prints `1000000000000000000000` and
//!   `5e-324` prints `0.` followed by 323 zeros and a `5`; `-0.0` prints
//!   `-0`.
//!
//! ```
//! use secloc_obs::num::{push_f64, push_hex16, push_i64, push_u64};
//!
//! let mut s = String::new();
//! push_f64(&mut s, 0.1 + 0.2);
//! s.push(' ');
//! push_u64(&mut s, 1_000_007);
//! s.push(' ');
//! push_i64(&mut s, -42);
//! s.push(' ');
//! push_hex16(&mut s, 0xc0ffee);
//! assert_eq!(s, "0.30000000000000004 1000007 -42 0000000000c0ffee");
//! ```

use std::sync::OnceLock;

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

/// Enough zeros that most runs need one append.
const ZEROS: &[u8] = b"0000000000000000000000000000000000000000000000000000000000000000";

/// The writers only ever produce ASCII digits, signs and points.
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

/// Appends `v` exactly as `format!("{v}")` would: the shortest decimal
/// that parses back to the same bits, ties rounded up, laid out without
/// an exponent (see the module docs). Non-finite values print as
/// `Display` prints them (`NaN`, `inf`, `-inf`); JSON writers map them to
/// `null` first.
pub fn push_f64(out: &mut String, v: f64) {
    write_f64(out, v);
}

/// [`push_f64`] into a byte buffer: the same bytes, appended without the
/// UTF-8 check a `String` makes, for writers that stage whole lines as
/// bytes.
///
/// ```
/// let mut out = b"x=".to_vec();
/// secloc_obs::num::push_f64_bytes(&mut out, 0.1 + 0.2);
/// assert_eq!(out, b"x=0.30000000000000004");
/// ```
pub fn push_f64_bytes(out: &mut Vec<u8>, v: f64) {
    write_f64(out, v);
}

/// A buffer the float writer appends ASCII to.
trait Ascii {
    fn put(&mut self, bytes: &[u8]);
}

impl Ascii for String {
    fn put(&mut self, bytes: &[u8]) {
        self.push_str(ascii(bytes));
    }
}

impl Ascii for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

fn write_f64(out: &mut impl Ascii, v: f64) {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    if ieee_exponent == 0x7ff {
        out.put(match (ieee_mantissa != 0, negative) {
            (true, _) => b"NaN",
            (false, true) => b"-inf",
            (false, false) => b"inf",
        });
        return;
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.put(if negative { b"-0" } else { b"0" });
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    // The (at most 17) digits go at the end of `buf`, leaving room in front
    // for a sign, "0." and up to 28 leading zeros, so all but extreme
    // magnitudes go out in one push.
    let mut buf = [0u8; 48];
    let start = write_digits(mantissa, &mut buf, 48);
    let len = 48 - start;
    // The value is `digits × 10^exponent`; `point` digits precede the
    // decimal point (none, and leading zeros after it, when ≤ 0).
    let point = len as i32 + exponent;
    let (mut from, trailing_zeros) = if point <= 0 {
        let zeros = point.unsigned_abs() as usize;
        if zeros + 3 > start {
            out.put(if negative { b"-0." } else { b"0." });
            push_zeros(out, zeros);
            out.put(&buf[start..]);
            return;
        }
        buf[start - zeros..start].fill(b'0');
        buf[start - zeros - 2..start - zeros].copy_from_slice(b"0.");
        (start - zeros - 2, 0)
    } else if (point as usize) < len {
        // Shift the whole part one place left to open the point.
        let point = point as usize;
        buf.copy_within(start..start + point, start - 1);
        buf[start - 1 + point] = b'.';
        (start - 1, 0)
    } else {
        (start, point as usize - len)
    };
    if negative {
        from -= 1;
        buf[from] = b'-';
    }
    out.put(&buf[from..]);
    push_zeros(out, trailing_zeros);
}

fn push_zeros(out: &mut impl Ascii, mut n: usize) {
    while n > 0 {
        let run = n.min(ZEROS.len());
        out.put(&ZEROS[..run]);
        n -= run;
    }
}

// ---------------------------------------------------------------------------
// Shortest digits (Ryū, double precision)
// ---------------------------------------------------------------------------

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of 5 and of each inverse.
const POW5_BITCOUNT: u32 = 125;
/// Entries `5^i` for `i = -e2 - q` with `e2 < 0`: the smallest `e2`
/// (a subnormal, -1076) gives `q = 751`, `i = 325`.
const POW5_LEN: usize = 326;
/// Entries `2^j / 5^q` for `e2 ≥ 0`: the largest `e2` (969, at
/// `f64::MAX`) gives `q = log10_pow2(969) - 1 = 290`.
const POW5_INV_LEN: usize = 291;

/// `ceil(log2(5^e))` for `e` in `1..=3528` (1 for `e = 0`).
fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))` for `e` in `0..=1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))` for `e` in `0..=2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut factor = 0;
    while v.is_multiple_of(5) && factor < p {
        v /= 5;
        factor += 1;
    }
    factor >= p
}

/// `floor(m × mul / 2^j)` for `j ≥ 64`, exact: `m < 2^55` and
/// `mul < 2^125`, so the partial products fit in 128 bits.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, exponent)` with `digits × 10^exponent` inside
/// the rounding interval of the finite, nonzero double with these fields,
/// closest to its exact value, ties rounded up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits of e2 leave room for the interval bounds mv ± 2.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps an interval bound back to this value
    // exactly when the mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mp = mv + 2;
    // The lower gap halves at a power of two (except at the smallest
    // normal exponent).
    let mm = mv - 1 - u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let pow5 = tables();

    // Scale the interval to decimal: vr, vp, vm = (mv, mp, mm) × 2^e2 /
    // 10^e10, floored, with e10 chosen one digit below the shortest
    // plausible length so at least one digit is always removed (which
    // makes the first removed digit decide the rounding).
    let (mut vr, mut vp, mut vm, e10);
    // Whether vm is exact, i.e. the floor dropped only zeros; an exact,
    // acceptable lower bound may itself be the shortest output.
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = (q + POW5_BITCOUNT + pow5bits(q) - 1) as i32 - e2;
        let mul = pow5.inv[q as usize];
        vr = mul_shift(mv, mul, j as u32);
        vp = mul_shift(mp, mul, j as u32);
        vm = mul_shift(mm, mul, j as u32);
        // The products are exact when mm (or mp) × 2^e2 is a multiple of
        // 10^q, which for q ≤ 21 comes down to 5^q dividing it.
        if q <= 21 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                // An exact, excluded upper bound is not a candidate.
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(e2.unsigned_abs()) - u32::from(e2 < -1);
        e10 = q as i32 + e2;
        let i = e2.unsigned_abs() - q;
        let j = (q + POW5_BITCOUNT) - pow5bits(i);
        let mul = pow5.pow5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // For q ≤ 1 the products are exact: mm has a trailing zero bit
        // exactly when its gap was 2, and mp always has one.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mv - mm == 2;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still contains a shorter decimal.
    // Only the first removed digit below the kept ones decides rounding:
    // ≥ 5 means the exact value is at or past the midpoint, and a tie
    // rounds up.
    let mut removed = 0i32;
    let output = if vm_exact {
        // Rare path (~0.7% of values): also track whether vm stays exact,
        // and keep stripping while it ends in zeros.
        let mut last_removed = 0u64;
        while vp / 10 > vm / 10 {
            vm_exact &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_exact {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // vr + 1 when vr fell below the interval or must round up.
        vr + u64::from((vr == vm && !(accept_bounds && vm_exact)) || last_removed >= 5)
    } else {
        let mut round_up = false;
        // Two digits at a time first: most values drop at least two.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// The 125-bit multipliers: `pow5[i]` holds the top bits of `5^i` and
/// `inv[q]` is `floor(2^j / 5^q) + 1` with `j = bitlen(5^q) - 1 + 125`.
struct Pow5Tables {
    pow5: Vec<u128>,
    inv: Vec<u128>,
}

/// The tables, derived by exact integer arithmetic on first use (about a
/// millisecond) instead of shipped as 600 lines of constants.
fn tables() -> &'static Pow5Tables {
    static TABLES: OnceLock<Pow5Tables> = OnceLock::new();
    TABLES.get_or_init(Pow5Tables::derive)
}

/// Little-endian 64-bit limbs: 13 hold `2 × 5^325 < 2^756`.
type Big = [u64; 13];

impl Pow5Tables {
    fn derive() -> Pow5Tables {
        let mut pow5 = Vec::with_capacity(POW5_LEN);
        let mut inv = Vec::with_capacity(POW5_INV_LEN);
        let mut power: Big = [0; 13];
        power[0] = 1;
        for i in 0..POW5_LEN.max(POW5_INV_LEN) {
            let bits = bit_len(&power);
            if i < POW5_LEN {
                pow5.push(if bits <= POW5_BITCOUNT {
                    (power[0] as u128 | (power[1] as u128) << 64) << (POW5_BITCOUNT - bits)
                } else {
                    shr_low128(&power, bits - POW5_BITCOUNT)
                });
            }
            if i < POW5_INV_LEN {
                inv.push(inverse(&power, bits) + 1);
            }
            let mut carry = 0u128;
            for limb in power.iter_mut() {
                let product = u128::from(*limb) * 5 + carry;
                *limb = product as u64;
                carry = product >> 64;
            }
        }
        Pow5Tables { pow5, inv }
    }
}

fn bit_len(x: &Big) -> u32 {
    x.iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |top| 64 * top as u32 + 64 - x[top].leading_zeros())
}

/// The low 128 bits of `x >> shift`.
fn shr_low128(x: &Big, shift: u32) -> u128 {
    let word = |k: usize| x.get(k).map_or(0, |&limb| u128::from(limb));
    let at = (shift / 64) as usize;
    let low = word(at) | word(at + 1) << 64;
    match shift % 64 {
        0 => low,
        bit => low >> bit | word(at + 2) << (128 - bit),
    }
}

/// `floor(2^(bits - 1 + 125) / d)` for `d` of bit length `bits`, by
/// restoring binary long division.
fn inverse(d: &Big, bits: u32) -> u128 {
    // Remainder = 2^(bits - 1), reduced once; each step then brings down
    // one more zero bit of the dividend.
    let mut rem: Big = [0; 13];
    rem[(bits as usize - 1) / 64] = 1 << ((bits - 1) % 64);
    let mut quotient = 0u128;
    for step in 0..=POW5_BITCOUNT {
        if step > 0 {
            let mut carry = 0;
            for limb in rem.iter_mut() {
                let next = *limb >> 63;
                *limb = *limb << 1 | carry;
                carry = next;
            }
            quotient <<= 1;
        }
        if rem.iter().rev().cmp(d.iter().rev()).is_ge() {
            let mut borrow = false;
            for (r, &s) in rem.iter_mut().zip(d) {
                let (diff, b1) = r.overflowing_sub(s);
                let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
                *r = diff;
                borrow = b1 || b2;
            }
            quotient |= 1;
        }
    }
    quotient
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shown(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    /// Asserts byte identity with `Display`, naming the bits on failure.
    fn check(v: f64) {
        assert_eq!(shown(v), format!("{v}"), "bits {:#018x}", v.to_bits());
    }

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

    /// `v`, its ±1-ulp neighbours and all three negated.
    fn check_neighbourhood(v: f64) {
        for bits in [v.to_bits() - 1, v.to_bits(), v.to_bits() + 1] {
            check(f64::from_bits(bits));
            check(-f64::from_bits(bits));
        }
    }

    #[test]
    fn special_values_match_display() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.3,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            1e21,
            1e22,
            1e23,
            9007199254740993.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(v);
        }
        assert_eq!(shown(-0.0), "-0");
        assert_eq!(shown(1e21), "1000000000000000000000");
        assert_eq!(shown(5e-324), format!("0.{}5", "0".repeat(323)));
    }

    #[test]
    fn exact_ties_round_up_like_display() {
        // 125000000000000.125, exactly: 10^15 + 1 eighths.
        let tie = 1_000_000_000_000_001_f64 / 8.0;
        assert_eq!(format!("{tie}"), "125000000000000.13");
        assert_eq!(shown(tie), "125000000000000.13");
        // An odd m over 2^k has exactly k decimals, the last one a 5. With
        // 18 significant digits it lies exactly halfway between its two
        // 17-digit neighbours; when both sit inside its rounding interval,
        // that tie decides the shortest output.
        let mut draws = bit_patterns(17);
        let mut ties = 0;
        for k in 2..=17u32 {
            let lo = 10u128.pow(17 - k) << k;
            let hi = (10u128.pow(18 - k) << k).min(1 << 53);
            for _ in 0..4000 {
                let m = (lo + u128::from(draws.next().expect("endless")) % (hi - lo)) | 1;
                let v = m as f64 / (1u64 << k) as f64; // exact: m < 2^53
                check(v);
                check(-v);
                let exact_digits = (m * 5u128.pow(k)).to_string().len();
                let shown_digits = shown(v).bytes().filter(u8::is_ascii_digit).count();
                ties += usize::from(exact_digits == 18 && shown_digits == 17);
            }
        }
        assert!(ties > 20_000, "only {ties} exact ties exercised");
    }

    #[test]
    fn powers_of_two_and_ten_with_neighbours() {
        for e in -1074..=1023i32 {
            let bits = match e {
                -1074..=-1023 => 1 << (e + 1074),
                _ => ((e + 1023) as u64) << MANTISSA_BITS,
            };
            check_neighbourhood(f64::from_bits(bits));
        }
        for e in -323..=308 {
            let v: f64 = format!("1e{e}").parse().expect("parses");
            check_neighbourhood(v);
        }
    }

    #[test]
    fn small_integers_tenths_and_binary_fractions() {
        for k in 0..2_000_000u64 {
            let v = k as f64;
            check(v);
            check(v / 10.0);
            check(v / 1024.0);
        }
    }

    #[test]
    fn subnormals_match_display() {
        for bits in (1..1u64 << 52).step_by(1 << 33).chain(1..5000) {
            check(f64::from_bits(bits));
        }
        for bits in bit_patterns(7).take(50_000) {
            check(f64::from_bits(bits & ((1 << 52) - 1)));
        }
    }

    #[test]
    fn random_bit_patterns_match_display() {
        for bits in bit_patterns(0x5eed).take(300_000) {
            check(f64::from_bits(bits));
        }
    }

    #[test]
    fn the_byte_writer_appends_the_string_writers_bytes() {
        let specials = [
            0.0,
            -0.0,
            0.1,
            1e21,
            -1e-7,
            f64::MAX,
            f64::NAN,
            -f64::INFINITY,
        ];
        let subnormals = (1..2000).chain(bit_patterns(11).take(2000).map(|b| b >> 12));
        let patterns = specials
            .into_iter()
            .chain(subnormals.map(f64::from_bits))
            .chain(bit_patterns(0xb17e).take(20_000).map(f64::from_bits));
        let mut bytes = b"prefix".to_vec();
        for v in patterns {
            bytes.truncate(6);
            push_f64_bytes(&mut bytes, v);
            assert_eq!(
                bytes[6..],
                *shown(v).as_bytes(),
                "bits {:#018x}",
                v.to_bits()
            );
        }
    }

    /// Ten million more patterns; run with
    /// `cargo test --release -p secloc-obs -- --ignored`.
    #[test]
    #[ignore]
    fn ten_million_random_bit_patterns_match_display() {
        let mut s = String::new();
        let mut want = String::new();
        for bits in bit_patterns(0xfeed_f00d).take(10_000_000) {
            let v = f64::from_bits(bits);
            s.clear();
            want.clear();
            push_f64(&mut s, v);
            std::fmt::Write::write_fmt(&mut want, format_args!("{v}")).expect("formats");
            assert_eq!(s, want, "bits {bits:#018x}");
        }
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

    /// Every derived entry re-checked by exact multiplication over 32-bit
    /// limbs, independently of the division that produced it.
    #[test]
    fn tables_satisfy_their_defining_inequalities() {
        fn mul(x: &[u32], y: u128) -> Vec<u32> {
            let ys: Vec<u32> = (0..4).map(|k| (y >> (32 * k)) as u32).collect();
            let mut out = vec![0u32; x.len() + ys.len() + 1];
            for (i, &a) in x.iter().enumerate() {
                let mut carry = 0u64;
                for (k, &b) in ys.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(out[i + k]) + carry;
                    out[i + k] = t as u32;
                    carry = t >> 32;
                }
                out[i + ys.len()] = carry as u32;
            }
            out
        }
        fn pow2(j: u32) -> Vec<u32> {
            let mut out = vec![0u32; j as usize / 32 + 1];
            out[j as usize / 32] = 1 << (j % 32);
            out
        }
        fn cmp(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
            let len = a.len().max(b.len());
            let at = |x: &[u32], k: usize| x.get(k).copied().unwrap_or(0);
            (0..len)
                .rev()
                .map(|k| at(a, k).cmp(&at(b, k)))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        }
        let t = tables();
        let mut five_q: Vec<u32> = vec![1];
        for q in 0..POW5_LEN.max(POW5_INV_LEN) {
            let bits = pow5bits(q as u32);
            if q < POW5_INV_LEN {
                // (e − 1)·5^q ≤ 2^j < e·5^q
                let e = t.inv[q];
                let j = bits - 1 + POW5_BITCOUNT;
                assert!(
                    cmp(&mul(&five_q, e - 1), &pow2(j)).is_le(),
                    "inv[{q}] too large"
                );
                assert!(
                    cmp(&pow2(j), &mul(&five_q, e)).is_lt(),
                    "inv[{q}] too small"
                );
            }
            if q < POW5_LEN {
                // e·2^s ≤ 5^q < (e + 1)·2^s, s = bits − 125, or exact.
                let e = t.pow5[q];
                assert_eq!(
                    128 - e.leading_zeros(),
                    POW5_BITCOUNT,
                    "pow5[{q}] normalized"
                );
                if bits <= POW5_BITCOUNT {
                    let scaled = mul(&five_q, 1u128 << (POW5_BITCOUNT - bits));
                    assert!(cmp(&scaled, &mul(&[1], e)).is_eq(), "pow5[{q}] exact");
                } else {
                    let s = bits - POW5_BITCOUNT;
                    assert!(
                        cmp(&mul(&pow2(s), e), &five_q).is_le(),
                        "pow5[{q}] too large"
                    );
                    assert!(
                        cmp(&five_q, &mul(&pow2(s), e + 1)).is_lt(),
                        "pow5[{q}] too small"
                    );
                }
            }
            five_q = mul(&five_q, 5);
        }
    }
}
