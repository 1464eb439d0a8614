//! [`SmallStr`]: the string a [`crate::Value::Str`] holds.
//!
//! Nearly every string the engine builds is short — user names, keys,
//! the fields of a stored group's bag — and decoding a stored result used
//! to spend more on allocating and freeing them than on parsing. A
//! `SmallStr` of at most 22 bytes lives inside the value
//! itself; a longer one is one boxed `str`. Both are 24 bytes, so a
//! `Value` stays 32.
//!
//! It behaves as the `str` it holds: `Eq` and `Ord` compare bytes (which
//! is `str`'s order), `Hash` feeds a hasher exactly what `str`'s does,
//! and `Debug` / `Display` are `str`'s. The bytes are what the encoders,
//! `len` and the comparisons read; only a `&str` view of an inline string
//! ([`SmallStr::as_str`], `Deref`) re-checks its UTF-8, which is the one
//! way safe code can turn a byte array back into a `str`.
//!
//! Decoding builds a short string from bytes in one step
//! ([`SmallStr::from_utf8`]): the bytes are copied into the inline array,
//! and three word reads of the array find them all ASCII, which is UTF-8.
//! Any other string goes through `std::str::from_utf8`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest string kept inline.
const INLINE_CAP: usize = 22;

/// A UTF-8 string kept inline up to 22 bytes, boxed past it.
#[derive(Clone)]
pub struct SmallStr(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the string.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<SmallStr>() == 24);

impl SmallStr {
    /// The string `bytes` spell, if they are UTF-8; a short one is copied
    /// inline with no allocation. A short all-ASCII string is built and
    /// checked in one step (see the [module docs](self)); anything else
    /// goes through `std::str::from_utf8`, so what it refuses is refused.
    pub fn from_utf8(bytes: &[u8]) -> Result<Self, std::str::Utf8Error> {
        match ascii_inline(bytes) {
            Some(inline) => Ok(SmallStr(Repr::Inline { len: bytes.len() as u8, bytes: inline })),
            None => std::str::from_utf8(bytes).map(SmallStr::from),
        }
    }

    /// The string's bytes, read without a check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes are copied from a str")
            }
            Repr::Heap(s) => s,
        }
    }

    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Check that `bytes` are UTF-8 as [`SmallStr::from_utf8`] does, building
/// nothing.
pub(crate) fn check_utf8(bytes: &[u8]) -> Result<(), std::str::Utf8Error> {
    match ascii_inline(bytes) {
        Some(_) => Ok(()),
        None => std::str::from_utf8(bytes).map(drop),
    }
}

/// `bytes` copied into an inline array, if they fit and are all ASCII,
/// which makes them UTF-8. The array is read as three overlapping words,
/// bytes 0–7, 8–15 and 14–21, whose high bits must all be clear; the
/// bytes past `bytes.len()` are zeros and pass.
fn ascii_inline(bytes: &[u8]) -> Option<[u8; INLINE_CAP]> {
    let mut inline = [0; INLINE_CAP];
    inline.get_mut(..bytes.len())?.copy_from_slice(bytes);
    let word = |at: usize| u64::from_le_bytes(inline[at..at + 8].try_into().expect("8 bytes"));
    ((word(0) | word(8) | word(INLINE_CAP - 8)) & 0x8080_8080_8080_8080 == 0).then_some(inline)
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> Self {
        if s.len() > INLINE_CAP {
            return SmallStr(Repr::Heap(s.into()));
        }
        let mut bytes = [0; INLINE_CAP];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        SmallStr(Repr::Inline { len: s.len() as u8, bytes })
    }
}

impl From<String> for SmallStr {
    /// A long string keeps its allocation (shrunk to fit); a short one
    /// moves inline and frees it.
    fn from(s: String) -> Self {
        if s.len() > INLINE_CAP {
            SmallStr(Repr::Heap(s.into_boxed_str()))
        } else {
            SmallStr::from(s.as_str())
        }
    }
}

impl Deref for SmallStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SmallStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for SmallStr {}

impl PartialOrd for SmallStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for SmallStr {
    /// What `str`'s `Hash` writes: the bytes, then `0xff` (a byte no
    /// UTF-8 string holds, which keeps the encoding prefix-free). The
    /// partitioner hashes keys, so this is what keeps every key in the
    /// partition it had as a `String`, and every output byte in place.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &(impl Hash + ?Sized)) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Strings of every length 0..=40, built from characters of one to
    /// four bytes so that some straddle the inline limit at byte 22.
    fn samples() -> Vec<String> {
        let mut out = Vec::new();
        for unit in ["a", "é", "€", "😀", "z\u{7f}"] {
            for len in 0..=40 {
                let mut s = String::new();
                while s.len() + unit.len() <= len {
                    s.push_str(unit);
                }
                // Pad with ASCII to exactly `len` bytes, after the last
                // whole character.
                while s.len() < len {
                    s.push('b');
                }
                out.push(s);
            }
        }
        // A four- and a two-byte character starting on either side of
        // byte 22, so that each string is 20 to 24 bytes long.
        for at in 19..=22 {
            out.push(format!("{}😀", "x".repeat(at - 3)));
            out.push(format!("{}é", "x".repeat(at)));
        }
        out
    }

    #[test]
    fn agrees_with_string_on_order_equality_hash_and_text() {
        let samples = samples();
        let small: Vec<SmallStr> = samples.iter().map(|s| SmallStr::from(s.as_str())).collect();
        for (a, sa) in samples.iter().zip(&small) {
            assert_eq!(sa.as_str(), a.as_str());
            assert_eq!(sa.len(), a.len());
            assert_eq!(hash_of(sa), hash_of(a.as_str()), "{a:?}");
            assert_eq!(hash_of(sa), hash_of(a), "{a:?}");
            assert_eq!(format!("{sa:?}"), format!("{a:?}"));
            assert_eq!(format!("{sa}"), a.to_string());
            assert_eq!(format!("[{sa:>45}]"), format!("[{a:>45}]"));
            assert_eq!(SmallStr::from(a.clone()), *sa);
            assert_eq!(SmallStr::from_utf8(a.as_bytes()).unwrap(), *sa);
            for (b, sb) in samples.iter().zip(&small) {
                assert_eq!(sa.cmp(sb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(sa == sb, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    /// At every length 0–23, one byte ≥ 0x80 at each position, in ASCII
    /// padding: alone (never UTF-8), or opening a two-, three- or
    /// four-byte character that is whole, cut short, or overlong.
    /// `from_utf8` and `check_utf8` refuse exactly what `std` refuses,
    /// and build what `std::str::from_utf8` then `SmallStr::from` build.
    #[test]
    fn from_utf8_is_std_then_from_at_every_length_and_position() {
        let units: [&[u8]; 10] = [
            b"\x80",
            b"\xff",
            b"\xc3\xa9",
            b"\xc3",
            b"\xc0\xaf",
            b"\xe2\x82\xac",
            b"\xe2\x82",
            b"\xed\xa0\x80",
            b"\xf0\x9f\x98\x80",
            b"\xf0\x9f\x98",
        ];
        let mut cases = 0;
        for len in 0..=INLINE_CAP + 1 {
            let ascii = vec![b'a'; len];
            check_against_std(&ascii);
            for at in 0..len {
                for unit in units {
                    let mut bytes = ascii.clone();
                    let end = (at + unit.len()).min(len);
                    bytes[at..end].copy_from_slice(&unit[..end - at]);
                    check_against_std(&bytes);
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 10 * (0..=INLINE_CAP + 1).sum::<usize>());
    }

    fn check_against_std(bytes: &[u8]) {
        let want = std::str::from_utf8(bytes).map(SmallStr::from);
        let got = SmallStr::from_utf8(bytes);
        assert_eq!(got.is_ok(), want.is_ok(), "{bytes:x?}");
        assert_eq!(check_utf8(bytes).is_ok(), want.is_ok(), "{bytes:x?}");
        if let (Ok(got), Ok(want)) = (got, want) {
            assert_eq!(got.as_bytes(), want.as_bytes());
            assert_eq!(got.as_str(), std::str::from_utf8(bytes).unwrap());
            assert_eq!(matches!(got.0, Repr::Inline { .. }), bytes.len() <= INLINE_CAP);
        }
    }

    #[test]
    fn short_strings_are_inline_and_long_ones_boxed() {
        let inline = |s: &SmallStr| matches!(s.0, Repr::Inline { .. });
        assert!(inline(&SmallStr::from("x".repeat(INLINE_CAP))));
        assert!(!inline(&SmallStr::from("x".repeat(INLINE_CAP + 1))));
        assert!(inline(&SmallStr::from(String::from("short"))));
        assert!(SmallStr::from("").is_empty());
        assert!(SmallStr::from_utf8(b"\xc3").is_err());
    }
}
