//! Dynamically typed scalar values.
//!
//! The Pig data model is dynamically typed; a field of a tuple can hold a
//! null, an integer, a floating point number, or a character array. The
//! MapReduce shuffle needs a *total* order and a stable hash over values,
//! which `f64` does not provide natively, so [`Value`] defines both
//! explicitly (NaN sorts last among doubles; hashing uses the bit pattern
//! with `-0.0` normalized to `+0.0` and every NaN to `f64::NAN`'s, since
//! all NaNs compare equal).

use crate::bag::Bag;
use crate::codec::{self, Out};
use crate::number::{Count, Sink};
use crate::small_str::SmallStr;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamically typed scalar, the atom of the data model.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL-style null; sorts before everything else.
    #[default]
    Null,
    /// 64-bit signed integer (covers Pig's int and long).
    Int(i64),
    /// 64-bit float (covers Pig's float and double).
    Double(f64),
    /// Character array (Pig `chararray`), inline up to 22 bytes.
    Str(SmallStr),
    /// A bag of tuples (Pig `bag`), produced by Group/CoGroup. Bags are
    /// what makes a grouped relation storable: one row = one whole group,
    /// so a reused Group output can be aggregated map-side. A bag is flat,
    /// one allocation however many members it holds ([`Bag`]).
    Bag(Bag),
}

const _: () = assert!(std::mem::size_of::<Value>() == 32);

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl Into<SmallStr>) -> Self {
        Value::Str(s.into())
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and aggregates: ints widen to f64,
    /// nulls and strings yield `None` (strings holding numbers are *not*
    /// implicitly coerced; Pig would insert an explicit cast).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Integer view: doubles truncate only if they are whole numbers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Double(d) if d.fract() == 0.0 => Some(*d as i64),
            _ => None,
        }
    }

    /// String view (no implicit numeric-to-string coercion).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Bag view.
    pub fn as_bag(&self) -> Option<&Bag> {
        match self {
            Value::Bag(b) => Some(b),
            _ => None,
        }
    }

    /// Truthiness used by Filter: null is false, numbers compare to zero,
    /// strings and bags are true when non-empty.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Double(d) => *d != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Bag(b) => !b.is_empty(),
        }
    }

    /// Estimated on-disk size in bytes under the text codec. This drives the
    /// DFS accounting and the cost model, so it must agree with
    /// [`crate::codec`]'s actual encoding length for representative data:
    /// it is that encoding, counted, with strings unescaped and a null as
    /// an empty field.
    pub fn encoded_len(&self) -> usize {
        let mut len = Count(0);
        codec::write_value(self, &mut len);
        len.0
    }

    /// Rank used to order values of different runtime types, mirroring
    /// Pig's cross-type ordering: null < int/double < chararray < bag.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Double(_) => 1,
            Value::Str(_) => 2,
            Value::Bag(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bag(a), Bag(b)) => a.cmp(b),
            (Double(a), Double(b)) => total_f64_cmp(*a, *b),
            (Int(a), Double(b)) => total_f64_cmp(*a as f64, *b),
            (Double(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// Total order over f64 with NaN greatest, used for shuffle-key sorting.
fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp only fails on NaN"),
        },
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and a whole Double must hash alike because they compare
            // equal (hash/eq consistency for group keys like `1 == 1.0`).
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                1u8.hash(state);
                // Equal values hash alike: -0.0 == 0.0, and every NaN,
                // whatever its sign and payload, equals every other.
                let d = if *d == 0.0 {
                    0.0
                } else if d.is_nan() {
                    f64::NAN
                } else {
                    *d
                };
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bag(ts) => {
                3u8.hash(state);
                ts.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Formatted { f, result: Ok(()) };
        codec::write_value(self, &mut out);
        out.result
    }
}

/// A formatter as a codec sink: `Display` is the encoding with strings
/// unescaped and a null as nothing, the text [`Value::encoded_len`] counts.
struct Formatted<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    result: fmt::Result,
}

impl Sink for Formatted<'_, '_> {
    fn put(&mut self, bytes: &[u8]) {
        self.text(bytes);
    }
}

impl Out for Formatted<'_, '_> {
    fn text(&mut self, s: &[u8]) {
        if self.result.is_ok() {
            // Syntax and numbers are ASCII, and a string value is UTF-8.
            self.result = self.f.write_str(std::str::from_utf8(s).expect("encoded text is UTF-8"));
        }
    }

    fn null(&mut self) {}
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(1), Value::Null, Value::str("a"), Value::Double(0.5)];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[3], Value::str("a"));
    }

    #[test]
    fn numeric_cross_type_ordering() {
        assert_eq!(Value::Int(2).cmp(&Value::Double(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).cmp(&Value::Double(2.5)), Ordering::Less);
        assert_eq!(Value::Double(3.0).cmp(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn nan_sorts_greatest_among_numbers() {
        let mut vals = [Value::Double(f64::NAN), Value::Double(1.0), Value::Int(5)];
        vals.sort();
        assert!(matches!(vals[2], Value::Double(d) if d.is_nan()));
    }

    #[test]
    fn eq_hash_consistency_for_int_double() {
        let a = Value::Int(7);
        let b = Value::Double(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(Value::Double(-0.0), Value::Double(0.0));
        assert_eq!(hash_of(&Value::Double(-0.0)), hash_of(&Value::Double(0.0)));
    }

    #[test]
    fn equal_values_hash_alike() {
        let nans = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0xfff8_0000_0000_0000),
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_dead_beef),
            f64::from_bits(0x7fff_ffff_ffff_ffff),
            f64::INFINITY - f64::INFINITY,
        ];
        let mut vals: Vec<Value> = nans.into_iter().map(Value::Double).collect();
        vals.extend([0.0, -0.0, 1.0, -1.5, f64::INFINITY].map(Value::Double));
        for n in [0, 1, -1, 7, 1 << 53, (1 << 53) + 1, i64::MIN, i64::MAX] {
            vals.push(Value::Int(n));
            vals.push(Value::Double(n as f64));
        }
        for a in &vals {
            for b in &vals {
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
            }
        }
        assert!(nans.iter().all(|d| d.is_nan()));
        assert_eq!(Value::Double(nans[2]), Value::Double(f64::NAN), "the NaNs compare equal");
    }

    #[test]
    fn encoded_len_matches_display() {
        for v in [
            Value::Null,
            Value::Int(0),
            Value::Int(-12345),
            Value::Int(i64::MAX),
            Value::Double(1.5),
            Value::Double(-2.0),
            Value::str("hello"),
            Value::str(""),
        ] {
            assert_eq!(v.encoded_len(), v.to_string().len(), "value {v:?}");
        }
    }

    #[test]
    fn display_is_the_encoding_unescaped() {
        let bag = Value::Bag(Bag::from_rows([
            vec![Value::str("a,b"), Value::Int(1), Value::Double(2.5)],
            vec![Value::Null, Value::str("")],
        ]));
        assert_eq!(bag.to_string(), "{(a,b,1,2.5),(,)}");
        assert_eq!(bag.encoded_len(), bag.to_string().len());
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(-1).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(Value::str("x").is_truthy());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64).as_i64(), Some(3));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Double(4.0).as_i64(), Some(4));
        assert_eq!(Value::Double(4.5).as_i64(), None);
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Null.as_f64(), None);
    }
}
