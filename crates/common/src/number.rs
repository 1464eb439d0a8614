//! The text of a number, for the codec's walk over a value — which is
//! what writes it, what `encoded_len` counts and what `Display` prints.
//!
//! Integers are a digit loop. A double takes an exact fast path when it
//! is a short decimal — `m / 10^k` for some `k ≤ 7` and `|m| < 2^50` —
//! and falls back to `fmt` otherwise. The fast path's text is the one
//! `fmt` would print, byte for byte: an integral value keeps a trailing
//! `.0` (so it reads back as a double), and any other is the shortest
//! decimal that reads back as the same double, which is what `{}` prints
//! for an `f64`. PigMix revenues have two places, and so do the bags of
//! every stored group over them and most sums of them: on each of the
//! four `restore-e2e` workloads, over 99 % of the doubles written or
//! counted take the fast path.

use std::fmt;

/// Where rendered text goes: an output buffer, a formatter, or a
/// [`Count`].
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that only measures.
pub(crate) struct Count(pub(crate) usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Room for any fast-path rendering: a sign, 16 digits, a point and a
/// zero (an `i64` needs 20).
const BUF: usize = 24;

/// Write `i` in decimal.
pub(crate) fn write_int(i: i64, out: &mut impl Sink) {
    let mut buf = [0; BUF];
    let mut at = put_digits(i.unsigned_abs(), &mut buf, BUF);
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.put(&buf[at..]);
}

/// `10^k` for the decimal places the fast path tries; each is exact.
const POW10: [f64; 8] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

/// The bound on `|m|` the fast path takes. Below it the rounding error of
/// `d * 10^k` is under a quarter, so rounding to the nearest integer finds
/// the one candidate, and the double's half-ulp interval is narrower than
/// one step of `m`, so no other decimal with `k` places reads back as `d`
/// either.
const MAX_MANTISSA: u64 = 1 << 50;

/// Write `d` as `{d}` prints it, or `{d:.1}` when it is integral and
/// below `1e15` in magnitude.
pub(crate) fn write_double(d: f64, out: &mut impl Sink) {
    match short_decimal(d) {
        Some((m, places)) => {
            let mut buf = [0; BUF];
            let mut at = BUF;
            let mut int = m;
            if places == 0 {
                at -= 2;
                buf[at..].copy_from_slice(b".0");
            } else {
                for _ in 0..places {
                    at -= 1;
                    buf[at] = b'0' + (int % 10) as u8;
                    int /= 10;
                }
                at -= 1;
                buf[at] = b'.';
            }
            at = put_digits(int, &mut buf, at);
            if d.is_sign_negative() {
                at -= 1;
                buf[at] = b'-';
            }
            out.put(&buf[at..]);
        }
        // Every integral value below 1e15 takes the fast path (with k = 0),
        // so what is left prints as `{}` does.
        None => {
            use fmt::Write as _;
            write!(Text(out), "{d}").expect("a sink cannot fail");
        }
    }
}

/// `(|m|, k)` with `d == m / 10^k` for the smallest `k`, when `d` is a
/// short decimal below 1e15. The smallest `k` is the fewest decimal
/// places — the shortest text that reads back as `d` — and the division
/// check is exact, because `m` and `10^k` are exact doubles and IEEE
/// division rounds correctly. NaN and the infinities fail the first test.
fn short_decimal(d: f64) -> Option<(u64, usize)> {
    let magnitude = d.abs();
    if magnitude.is_nan() || magnitude >= 1e15 {
        return None;
    }
    for (places, &scale) in POW10.iter().enumerate() {
        // Round to nearest by truncating `+ 0.5` (`f64::round` is a libm
        // call); a candidate is only ever taken after the exact check.
        let m = (magnitude * scale + 0.5) as u64;
        if m >= MAX_MANTISSA {
            return None;
        }
        if m as f64 / scale == magnitude {
            return Some((m, places));
        }
    }
    None
}

/// The digits of `n`, written backwards so they end at `buf[end]`; at
/// least one. Returns where they start.
fn put_digits(mut n: u64, buf: &mut [u8; BUF], end: usize) -> usize {
    let mut at = end;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return at;
        }
    }
}

/// `fmt::Write` onto a sink, for the fallback.
struct Text<'a, S>(&'a mut S);

impl<S: Sink> fmt::Write for Text<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The rendering this module replaced, kept as the oracle.
    fn by_fmt(d: f64) -> String {
        if d.is_finite() && d.fract() == 0.0 && d.abs() < 1e15 {
            format!("{d:.1}")
        } else {
            format!("{d}")
        }
    }

    fn check(d: f64) {
        let mut text = Vec::new();
        write_double(d, &mut text);
        assert_eq!(String::from_utf8(text).unwrap(), by_fmt(d), "bits {:#x}", d.to_bits());
        let mut count = Count(0);
        write_double(d, &mut count);
        assert_eq!(count.0, by_fmt(d).len());
    }

    fn check_int(i: i64) {
        let mut text = Vec::new();
        write_int(i, &mut text);
        assert_eq!(String::from_utf8(text).unwrap(), i.to_string());
    }

    /// Cases per sweep: bounded in a debug build, millions optimized
    /// (`cargo test --release -p restore-common`).
    const CASES: u64 = if cfg!(debug_assertions) { 20_000 } else { 2_000_000 };

    #[test]
    fn doubles_match_fmt_on_random_bit_patterns() {
        let mut rng = SplitMix64::new(0x5eed_d0b1e);
        for _ in 0..CASES {
            check(f64::from_bits(rng.next_u64()));
        }
    }

    #[test]
    fn doubles_match_fmt_on_short_decimals_and_their_neighbours() {
        let mut rng = SplitMix64::new(0xdec1_4a15);
        for i in 0..CASES {
            let k = (i % 8) as i32;
            // Mantissas of every size up to past 2^50, both signs.
            let bits = rng.next_u64() % 54;
            let m = (rng.next_u64() >> (64 - bits.max(1))) as f64;
            let d = if rng.next_u64() & 1 == 0 { m } else { -m } / 10f64.powi(k);
            check(d);
            check(f64::from_bits(d.to_bits() + 1));
            check(f64::from_bits(d.to_bits().wrapping_sub(1)));
        }
    }

    #[test]
    fn doubles_match_fmt_at_the_edges() {
        let mut edges = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            MAX_MANTISSA as f64,
            (MAX_MANTISSA - 1) as f64,
            0.1 + 0.2,
            67.88,
            1e-7,
            1.5e-7,
        ];
        // Both sides of 1e15 (where `.0` stops) and of 1e-3.
        for edge in [1e15, 1e-3] {
            edges.push(edge);
            let mut up = edge;
            let mut down = edge;
            for _ in 0..64 {
                up = f64::from_bits(up.to_bits() + 1);
                down = f64::from_bits(down.to_bits() - 1);
                edges.extend([up, down]);
            }
            edges.extend([edge + 1.0, edge - 1.0, edge * 10.0, edge / 10.0]);
        }
        for d in edges {
            check(d);
            check(-d);
        }
    }

    #[test]
    fn ints_match_fmt() {
        for i in [0, 1, -1, 9, 10, -10, 99, 100, i64::MAX, i64::MIN, i64::MIN + 1] {
            check_int(i);
        }
        let mut rng = SplitMix64::new(0x1a7);
        for _ in 0..CASES {
            let i = rng.next_u64() as i64;
            check_int(i);
            check_int(i >> (rng.next_u64() % 64));
        }
    }
}
