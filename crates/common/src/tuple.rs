//! Tuples: ordered collections of [`Value`]s, the rows of the system.

use crate::codec;
use crate::number::Count;
use crate::value::Value;
use std::fmt;

/// A row of values. Tuples flow from Load operators through mappers,
/// the shuffle, reducers, and into Store operators.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Empty tuple.
    pub fn new() -> Self {
        Tuple(Vec::new())
    }

    /// Tuple from a vector of values.
    pub fn from_values(vals: Vec<Value>) -> Self {
        Tuple(vals)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field accessor; out-of-range positions read as null, mirroring Pig's
    /// forgiving positional access on ragged rows.
    pub fn get(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.0.get(idx).unwrap_or(&NULL)
    }

    /// Append a field.
    pub fn push(&mut self, v: Value) {
        self.0.push(v);
    }

    /// Build a new tuple holding the listed positions (projection).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple(cols.iter().map(|&c| self.get(c).clone()).collect())
    }

    /// Concatenate two tuples (used by Join to build output rows).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut vals = Vec::with_capacity(self.0.len() + other.0.len());
        vals.extend_from_slice(&self.0);
        vals.extend_from_slice(&other.0);
        Tuple(vals)
    }

    /// Estimated on-disk size under the text codec: field bytes plus one
    /// separator byte between fields plus the newline. Must agree with
    /// [`crate::codec::encode_tuple`] for data without escape characters.
    pub fn encoded_len(&self) -> usize {
        Tuple::encoded_len_of(self.0.iter())
    }

    /// [`Tuple::encoded_len`] of the tuple these fields would make.
    pub fn encoded_len_of<'a>(fields: impl Iterator<Item = &'a Value>) -> usize {
        let mut len = Count(0);
        codec::write_fields(fields, &mut len);
        len.0
    }

    /// Iterate over the fields.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(vals: Vec<Value>) -> Self {
        Tuple(vals)
    }
}

impl IntoIterator for Tuple {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

/// Shorthand for building tuples in tests and examples:
/// `tuple![1, "a", 2.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::from_values(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_get_is_null() {
        let t = tuple![1, "x"];
        assert_eq!(t.get(0), &Value::Int(1));
        assert!(t.get(5).is_null());
    }

    #[test]
    fn project_and_concat() {
        let t = tuple![1, "a", 2.5];
        assert_eq!(t.project(&[2, 0]), tuple![2.5, 1]);
        let u = tuple!["b"];
        assert_eq!(t.concat(&u), tuple![1, "a", 2.5, "b"]);
    }

    #[test]
    fn encoded_len_counts_separators_and_newline() {
        // "12\tab\n" = 6 bytes
        assert_eq!(tuple![12, "ab"].encoded_len(), 6);
        // empty tuple: just the newline
        assert_eq!(Tuple::new().encoded_len(), 1);
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple![1, 2] < tuple![1, 3]);
        assert!(tuple![1] < tuple![1, 0]);
    }
}
