//! [`Bag`]: the tuples a Group or CoGroup gathers into one field.
//!
//! A bag is flat. Its members' fields lie one member after another in one
//! boxed slice, and the bag keeps its shape beside them: how many members
//! it has and how many fields each one holds. Readers see a member as a
//! row slice (`&[Value]`), never as a [`Tuple`] of its own, so a bag of
//! any size is one allocation, and an empty bag is none.
//!
//! Members nearly always share one arity: a group's tuples come from one
//! relation. When they do not, the bag is *ragged*, and its slice goes on
//! past the fields with one [`Value::Int`] per member, the position where
//! that member's fields end. That keeps a ragged bag to the same one
//! allocation; a `Value` has no room for a second pointer (see DESIGN.md,
//! "Data model").
//!
//! A bag behaves exactly as the `Vec<Tuple>` of its members would: `Eq`
//! and `Ord` compare member by member, a shorter prefix first, and `Hash`
//! feeds a hasher the same calls — the member count, then each member's
//! arity and fields — so a key holding a bag lands in the partition it
//! would land in as nested tuples.

use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The `arity` of a ragged bag.
const RAGGED: u32 = u32::MAX;

static NULL: Value = Value::Null;

/// A bag of tuples, flat: see the [module docs](self).
#[derive(Clone, Default)]
pub struct Bag {
    /// The members' fields, member after member; in a ragged bag, then
    /// each member's end as a [`Value::Int`].
    values: Box<[Value]>,
    /// Members.
    len: u32,
    /// Fields per member, or [`RAGGED`].
    arity: u32,
}

const _: () = assert!(std::mem::size_of::<Bag>() == 24);

impl Bag {
    /// The bag of `rows`, each given as its fields.
    pub fn from_rows<R: IntoIterator<Item = Value>>(rows: impl IntoIterator<Item = R>) -> Bag {
        let mut bag = BagBuilder::default();
        for row in rows {
            bag.push_row(row);
        }
        bag.finish()
    }

    /// How many members the bag holds.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members' fields, without a ragged bag's ends.
    fn fields(&self) -> &[Value] {
        let ends = if self.arity == RAGGED { self.len() } else { 0 };
        &self.values[..self.values.len() - ends]
    }

    /// Where member `i`'s fields end in [`Bag::fields`].
    fn end(&self, i: usize) -> usize {
        if self.arity != RAGGED {
            return (i + 1) * self.arity as usize;
        }
        match self.values[self.values.len() - self.len() + i] {
            Value::Int(end) => end as usize,
            _ => unreachable!("a ragged bag's ends are ints"),
        }
    }

    /// Member `i`'s fields. Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.len(), "member {i} of a bag of {}", self.len());
        let start = if i == 0 { 0 } else { self.end(i - 1) };
        &self.fields()[start..self.end(i)]
    }

    /// The members, in order, each as its fields.
    pub fn rows(&self) -> Rows<'_> {
        let (fields, ends) = self.values.split_at(self.fields().len());
        Rows { fields, ends, arity: self.arity as usize, left: self.len(), at: 0 }
    }

    /// Field `col` of each member, in order; a member too short to have
    /// one reads [`Value::Null`], as [`Tuple::get`] would.
    pub fn column(&self, col: usize) -> impl Iterator<Item = &Value> + '_ {
        self.rows().map(move |row| row.get(col).unwrap_or(&NULL))
    }

    /// The members, handed over by value.
    pub fn into_rows(self) -> IntoRows {
        let fields = self.fields().len();
        let ends = (self.arity == RAGGED).then(|| (0..self.len()).map(|i| self.end(i)).collect());
        let (arity, len) = (self.arity as usize, self.len());
        let mut values = self.values.into_vec();
        values.truncate(fields);
        IntoRows { values: values.into_iter(), total: fields, ends, arity, len, next: 0, at: 0 }
    }
}

/// The members of a [`Bag`], borrowed.
#[derive(Clone)]
pub struct Rows<'a> {
    /// The fields of the members not yet handed out.
    fields: &'a [Value],
    /// A ragged bag's ends of those members; empty when every member has
    /// `arity` fields.
    ends: &'a [Value],
    arity: usize,
    /// Members left, and where `fields` starts in the bag's.
    left: usize,
    at: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        self.left = self.left.checked_sub(1)?;
        let len = match self.ends.split_first() {
            None => self.arity,
            Some((Value::Int(end), rest)) => {
                self.ends = rest;
                *end as usize - self.at
            }
            Some(_) => unreachable!("a ragged bag's ends are ints"),
        };
        let (row, rest) = self.fields.split_at(len);
        self.fields = rest;
        self.at += len;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// The members of a [`Bag`], by value: [`IntoRows::next_row`] hands out
/// each member's fields in turn, moved out of the bag.
pub struct IntoRows {
    values: std::vec::IntoIter<Value>,
    /// How many fields `values` started with.
    total: usize,
    /// A ragged bag's member ends; `None` when every member has `arity`
    /// fields.
    ends: Option<Vec<usize>>,
    arity: usize,
    len: usize,
    /// The next member, and where its fields start.
    next: usize,
    at: usize,
}

impl IntoRows {
    /// The next member's fields, if a member is left. Fields the caller
    /// does not take are dropped when the next member is asked for.
    pub fn next_row(&mut self) -> Option<std::iter::Take<&mut std::vec::IntoIter<Value>>> {
        if self.next == self.len {
            return None;
        }
        let end = match &self.ends {
            None => self.at + self.arity,
            Some(ends) => ends[self.next],
        };
        let pulled = self.total - self.values.len();
        self.values.by_ref().take(self.at - pulled).for_each(drop);
        self.next += 1;
        let len = end - self.at;
        self.at = end;
        Some(self.values.by_ref().take(len))
    }
}

/// Builds a [`Bag`] one member at a time.
#[derive(Debug, Default)]
pub struct BagBuilder {
    values: Vec<Value>,
    /// Members so far, the first one's arity, and where the open member
    /// starts.
    len: usize,
    arity: usize,
    row_start: usize,
    /// Each member's end, once the bag has turned out ragged.
    ends: Option<Vec<usize>>,
}

impl BagBuilder {
    /// Room for exactly `fields` more fields, over all members: a bag
    /// that fills it keeps that one allocation through [`Self::finish`].
    pub fn reserve(&mut self, fields: usize) {
        self.values.reserve_exact(fields);
    }

    /// Add a field to the open member.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Close the open member: the fields pushed since the last one closed.
    pub fn end_row(&mut self) {
        let (end, arity) = (self.values.len(), self.values.len() - self.row_start);
        if self.len == 0 {
            self.arity = arity;
        } else if self.ends.is_none() && arity != self.arity {
            self.ends = Some((1..=self.len).map(|i| i * self.arity).collect());
        }
        if let Some(ends) = &mut self.ends {
            ends.push(end);
        }
        self.len += 1;
        self.row_start = end;
    }

    /// Add a whole member.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        self.values.extend(row);
        self.end_row();
    }

    /// The bag built so far; the builder starts the next one empty.
    pub fn finish(&mut self) -> Bag {
        let BagBuilder { mut values, len, arity, ends, .. } = std::mem::take(self);
        let len = u32::try_from(len).expect("a bag holds fewer than 2^32 members");
        let arity = match ends {
            Some(ends) => {
                values.extend(ends.into_iter().map(|end| Value::Int(end as i64)));
                RAGGED
            }
            None => u32::try_from(arity)
                .ok()
                .filter(|&a| a != RAGGED)
                .expect("a bag member has fewer than 2^32 - 1 fields"),
        };
        Bag { values: values.into_boxed_slice(), len, arity }
    }
}

impl PartialEq for Bag {
    fn eq(&self, other: &Bag) -> bool {
        self.len == other.len && self.rows().eq(other.rows())
    }
}

impl Eq for Bag {}

impl PartialOrd for Bag {
    fn partial_cmp(&self, other: &Bag) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bag {
    fn cmp(&self, other: &Bag) -> Ordering {
        self.rows().cmp(other.rows())
    }
}

impl Hash for Bag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `[Tuple]`'s hash: a length prefix, then each tuple's, which is
        // its own length prefix and then its fields'. Hashing a slice of
        // that many units makes the outer prefix exactly the call a slice
        // makes (`write_length_prefix`, not callable on stable Rust).
        // `Vec<()>` never allocates.
        vec![(); self.len()].hash(state);
        for row in self.rows() {
            row.hash(state);
        }
    }
}

impl fmt::Debug for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

impl From<Vec<Tuple>> for Bag {
    fn from(tuples: Vec<Tuple>) -> Bag {
        tuples.into_iter().collect()
    }
}

impl FromIterator<Tuple> for Bag {
    fn from_iter<I: IntoIterator<Item = Tuple>>(tuples: I) -> Bag {
        Bag::from_rows(tuples.into_iter().map(|Tuple(fields)| fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rows_of(bag: &Bag) -> Vec<Vec<Value>> {
        bag.rows().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn members_read_back_in_every_shape() {
        let shapes: [Vec<Tuple>; 5] = [
            vec![],
            vec![tuple![1, "a"], tuple![2, "b"], tuple![3, "c"]],
            vec![Tuple::new(), Tuple::new()],
            vec![tuple![1], tuple![2, "x"], Tuple::new(), tuple![4]],
            vec![Tuple::new(), tuple![1, 2]],
        ];
        for tuples in shapes {
            let bag = Bag::from(tuples.clone());
            let want: Vec<Vec<Value>> = tuples.iter().map(|t| t.0.clone()).collect();
            assert_eq!(bag.len(), tuples.len());
            assert_eq!(rows_of(&bag), want, "{tuples:?}");
            assert_eq!(bag.rows().len(), tuples.len());
            for (i, t) in tuples.iter().enumerate() {
                assert_eq!(bag.row(i), t.0.as_slice());
            }
            let column: Vec<&Value> = bag.column(1).collect();
            assert_eq!(column, tuples.iter().map(|t| t.get(1)).collect::<Vec<_>>());
            // Moved out whole, and with every member left half taken.
            let mut moved = Vec::new();
            let mut members = bag.clone().into_rows();
            while let Some(fields) = members.next_row() {
                moved.push(fields.collect::<Vec<_>>());
            }
            assert_eq!(moved, want);
            let mut firsts = Vec::new();
            let mut members = bag.into_rows();
            while let Some(mut fields) = members.next_row() {
                firsts.push(fields.next());
            }
            assert_eq!(firsts, want.iter().map(|r| r.first().cloned()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_builder_turns_ragged_late_and_starts_over() {
        let mut builder = BagBuilder::default();
        for row in [vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3), Value::Int(4)]] {
            builder.push_row(row);
        }
        builder.push_row([Value::Int(5)]);
        let ragged = builder.finish();
        assert_eq!(ragged.arity, RAGGED);
        assert_eq!(
            rows_of(&ragged),
            [vec![1.into(), 2.into()], vec![3.into(), 4.into()], vec![5.into()]]
        );
        // The builder starts the next bag empty.
        builder.push_row([Value::str("x")]);
        let next = builder.finish();
        assert_eq!((next.len(), next.arity), (1, 1));
        assert_eq!(builder.finish(), Bag::default());
    }

    #[test]
    fn a_bag_reserved_exactly_keeps_its_buffer() {
        for arity in 1..=4 {
            for members in 1..=3 {
                let mut builder = BagBuilder::default();
                builder.reserve(arity * members);
                let buffer = builder.values.as_ptr();
                for m in 0..members {
                    builder.push_row((0..arity).map(|f| Value::Int((m * arity + f) as i64)));
                }
                let bag = builder.finish();
                assert_eq!(bag.values.as_ptr(), buffer, "{members} x {arity}");
                assert_eq!(bag.values.len(), arity * members);
            }
        }
    }

    #[test]
    fn order_is_member_by_member_and_a_prefix_first() {
        let bag = |ts: Vec<Tuple>| Bag::from(ts);
        assert!(bag(vec![]) < bag(vec![Tuple::new()]));
        assert!(bag(vec![tuple![1]]) < bag(vec![tuple![1], Tuple::new()]));
        assert!(bag(vec![tuple![1]]) < bag(vec![tuple![1, 0]]));
        assert!(bag(vec![tuple![1, 9]]) < bag(vec![tuple![2]]));
        assert_eq!(bag(vec![tuple![1]]), bag(vec![tuple![1.0]]));
        assert_ne!(bag(vec![tuple![1, 2]]), bag(vec![tuple![1], tuple![2]]));
    }
}
