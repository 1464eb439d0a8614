//! Shuffle runs: map output as it crosses from map threads to reduce
//! threads.
//!
//! The engine's ownership rule is that a heap object is freed by the
//! thread that allocated it, and that what crosses a thread boundary is a
//! contiguous byte buffer the other side only reads. A map task therefore
//! encodes each `(key, tag, value)` emission into a [`RunBuilder`] the
//! moment it is made — from the mapper's own values, which it then drops —
//! and ends by laying the encoded records out as one [`Run`]: grouped by
//! reduce partition, emission order kept within a partition. Reduce task
//! *p* decodes range *p* of every run into an [`Arena`] it owns: every
//! record's fields in one vector of values, and per record where its key
//! and value lie. It sorts and groups the records by those positions, and
//! moves a group's fields out of the arena into its key and its bags, so
//! what it allocates is per group, not per record.
//!
//! Records are written in the one typed value codec,
//! [`restore_common::typed`], that ReStore's stored files use too: every
//! value carries its type, so reducers get exactly what mappers emitted,
//! down to the bits of a double. Runs are process-internal — never written
//! to the DFS, the journal or a state file — so a range has no trailer and
//! no version of its own, and doubles go in their raw form
//! ([`Doubles::Raw`]): a run is read once, straight from memory, and the
//! search for a double's decimal form would cost more than its bytes.
//!
//! ```text
//! range  := varint(records) record*
//! record := tuple(key) varint(tag) tuple(value)
//! ```

use restore_common::bag::{Bag, BagBuilder};
use restore_common::typed::{self, Doubles, Reader};
use restore_common::{Error, Result, Tuple, Value};

/// One shuffle emission: key, input tag, value.
pub type Record = (Tuple, usize, Tuple);

/// The smallest record: an empty key, a one-byte tag, an empty value.
const MIN_RECORD_BYTES: usize = 3;

/// One map task's shuffle output: every partition's records in one buffer,
/// partition `p` occupying `bounds[p]..bounds[p + 1]`.
#[derive(Debug, Default)]
pub struct Run {
    bytes: Vec<u8>,
    bounds: Vec<usize>,
}

impl Run {
    /// The encoded records of partition `p`, for [`decode_range`].
    pub fn range(&self, p: usize) -> &[u8] {
        &self.bytes[self.bounds[p]..self.bounds[p + 1]]
    }
}

/// A [`Run`] in the making: records encoded as they are emitted, in
/// emission order, each with the partition it is bound for.
#[derive(Debug)]
pub struct RunBuilder {
    bytes: Vec<u8>,
    /// Per record: its partition, and where it ends in `bytes`.
    records: Vec<(usize, usize)>,
    /// Records per partition.
    counts: Vec<usize>,
}

impl RunBuilder {
    pub fn new(partitions: usize) -> Self {
        RunBuilder { bytes: Vec::new(), records: Vec::new(), counts: vec![0; partitions] }
    }

    pub fn partitions(&self) -> usize {
        self.counts.len()
    }

    /// Encode one record bound for `partition`. The key is given as its
    /// fields, so a caller whose key is some columns of `value` builds no
    /// key tuple to say so.
    ///
    /// Panics when `partition` is out of range.
    pub fn push<'a>(
        &mut self,
        partition: usize,
        key: impl ExactSizeIterator<Item = &'a Value>,
        tag: usize,
        value: &Tuple,
    ) {
        self.counts[partition] += 1;
        typed::put_fields(key, Doubles::Raw, &mut self.bytes);
        typed::put_varint(tag as u64, &mut self.bytes);
        typed::put_tuple(value, Doubles::Raw, &mut self.bytes);
        self.records.push((partition, self.bytes.len()));
    }

    /// Lay the records out by partition: one pass sizes the ranges, one
    /// copies each record's bytes to its place. Records keep their
    /// relative order within a partition, which is what lets the reduce
    /// side's stable sort see the same sequence at every thread count.
    pub fn finish(self) -> Run {
        let mut sizes = vec![0usize; self.counts.len()];
        let mut start = 0;
        for &(p, end) in &self.records {
            sizes[p] += end - start;
            start = end;
        }
        let mut run = Run { bytes: Vec::new(), bounds: Vec::with_capacity(sizes.len() + 1) };
        // Where each partition's next record goes.
        let mut cursors = Vec::with_capacity(sizes.len());
        for (&count, &size) in self.counts.iter().zip(&sizes) {
            run.bounds.push(run.bytes.len());
            typed::put_varint(count as u64, &mut run.bytes);
            cursors.push(run.bytes.len());
            run.bytes.resize(run.bytes.len() + size, 0);
        }
        run.bounds.push(run.bytes.len());
        let mut start = 0;
        for &(p, end) in &self.records {
            let record = &self.bytes[start..end];
            run.bytes[cursors[p]..cursors[p] + record.len()].copy_from_slice(record);
            cursors[p] += record.len();
            start = end;
        }
        run
    }
}

/// A reduce task's shuffled records: every record's key and value fields
/// in one vector, and per record where they lie.
#[derive(Debug, Default)]
pub struct Arena {
    values: Vec<Value>,
    records: Vec<Slot>,
}

/// Where one record lies in its [`Arena`]: its key's fields from `start`,
/// then its value's.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: u32,
    key_len: u32,
    value_len: u32,
    tag: u32,
}

impl Slot {
    fn key(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.key_len as usize
    }

    fn value(self) -> std::ops::Range<usize> {
        let start = self.key().end;
        start..start + self.value_len as usize
    }
}

fn out_of_range(what: &str) -> Error {
    Error::Codec(format!("shuffle run: {what} out of range"))
}

impl Arena {
    /// Decode one partition range, appending its records in the order they
    /// were encoded. The whole range must be consumed: a truncated range is
    /// an error, never a shorter answer. Every length is checked against
    /// the bytes remaining before anything is allocated for it, so a
    /// corrupt length cannot make the decoder reserve more elements than
    /// the range has bytes.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = Reader::new(bytes);
        let records = r.count(MIN_RECORD_BYTES)?;
        self.records.reserve(records);
        let position = |n: usize| u32::try_from(n).map_err(|_| out_of_range("arena position"));
        for _ in 0..records {
            let start = position(self.values.len())?;
            let key_len = position(r.fields_into(&mut self.values)?)?;
            let tag = u32::try_from(r.varint()?).map_err(|_| out_of_range("tag"))?;
            let value_len = position(r.fields_into(&mut self.values)?)?;
            position(self.values.len())?;
            self.records.push(Slot { start, key_len, value_len, tag });
        }
        if !r.is_empty() {
            return Err(Error::Codec("shuffle run: bytes after the last record".into()));
        }
        Ok(())
    }

    /// How many records the arena holds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sort the records by key, stably: records with equal keys keep the
    /// order they were decoded in.
    pub fn sort(&mut self) {
        let values = &self.values;
        self.records.sort_by(|a, b| values[a.key()].cmp(&values[b.key()]));
    }

    /// Record `i`: its key's fields, its tag, its value's fields.
    pub fn record(&self, i: usize) -> (&[Value], usize, &[Value]) {
        let slot = self.records[i];
        (&self.values[slot.key()], slot.tag as usize, &self.values[slot.value()])
    }

    /// Call `reduce` once per run of records with equal keys, in order,
    /// with the key and one bag per tag (`bags[tag]` holds the values of
    /// the run's records from input `tag`, in record order). Both are built
    /// by moving the fields out of the arena: the key once per group, each
    /// bag one allocation, exactly as large as its fields. The number of
    /// groups; an error for a tag of `tags` or more.
    pub fn groups(
        &mut self,
        tags: usize,
        mut reduce: impl FnMut(Tuple, &mut [Bag]) -> Result<()>,
    ) -> Result<u64> {
        let Arena { values, records } = self;
        let mut bags: Vec<Bag> = (0..tags).map(|_| Bag::default()).collect();
        let mut builders: Vec<BagBuilder> = (0..tags).map(|_| BagBuilder::default()).collect();
        let mut sizes = vec![0usize; tags];
        let mut groups = 0;
        let mut rest = records.as_slice();
        while let Some(first) = rest.first() {
            let key = &values[first.key()];
            let len = 1 + rest[1..].iter().take_while(|s| values[s.key()] == *key).count();
            let (group, after) = rest.split_at(len);
            rest = after;
            sizes.fill(0);
            for slot in group {
                let size = sizes.get_mut(slot.tag as usize).ok_or_else(|| {
                    Error::Codec(format!("shuffle run: tag {} of {tags}", slot.tag))
                })?;
                *size += slot.value_len as usize;
            }
            for (builder, &size) in builders.iter_mut().zip(&sizes) {
                builder.reserve(size);
            }
            for slot in group {
                let fields = values[slot.value()].iter_mut().map(std::mem::take);
                builders[slot.tag as usize].push_row(fields);
            }
            for (bag, builder) in bags.iter_mut().zip(&mut builders) {
                *bag = builder.finish();
            }
            let key = values[first.key()].iter_mut().map(std::mem::take).collect();
            groups += 1;
            reduce(key, &mut bags)?;
        }
        Ok(groups)
    }
}

/// Decode one partition range as [`Arena::decode`] does, appending its
/// records to `out` as tuples.
pub fn decode_range(bytes: &[u8], out: &mut Vec<Record>) -> Result<()> {
    let mut arena = Arena::default();
    arena.decode(bytes)?;
    out.extend((0..arena.len()).map(|i| {
        let (key, tag, value) = arena.record(i);
        (Tuple::from_values(key.to_vec()), tag, Tuple::from_values(value.to_vec()))
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_common::tuple;

    /// `records` as one run over `partitions` ranges.
    fn encode(
        records: &[Record],
        partitions: usize,
        partition_of: impl Fn(&Tuple) -> usize,
    ) -> Run {
        let mut run = RunBuilder::new(partitions);
        for (key, tag, value) in records {
            run.push(partition_of(key), key.iter(), *tag, value);
        }
        run.finish()
    }

    fn decode(run: &Run, p: usize) -> Vec<Record> {
        let mut out = Vec::new();
        decode_range(run.range(p), &mut out).unwrap();
        out
    }

    #[test]
    fn partitions_keep_emission_order_and_types() {
        let records: Vec<Record> = vec![
            (tuple!["b"], 0, tuple!["123", 1]),
            (tuple!["a"], 1, tuple![2.0]),
            (tuple!["b"], 0, Tuple::new()),
            (
                Tuple::new(),
                2,
                Tuple::from_values(vec![Value::Null, Value::Bag(vec![tuple![1]].into())]),
            ),
        ];
        // Partition by key arity and first letter: "b" -> 1, others -> 0.
        let run = encode(&records, 3, |k| usize::from(k.get(0) == &Value::str("b")));
        assert_eq!(
            format!("{:?}", decode(&run, 0)),
            format!("{:?}", vec![&records[1], &records[3]])
        );
        assert_eq!(
            format!("{:?}", decode(&run, 1)),
            format!("{:?}", vec![&records[0], &records[2]])
        );
        assert!(decode(&run, 2).is_empty());
    }

    #[test]
    fn zero_partitions_encode_nothing() {
        let run = encode(&[], 0, |_| unreachable!());
        assert!(run.bytes.is_empty());
        assert_eq!(run.bounds, vec![0]);
    }

    #[test]
    fn varint_edges() {
        for n in [0u64, 0x7f, 0x80, 0x3fff, 0x4000, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            typed::put_varint(n, &mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), n);
            assert!(r.is_empty());
        }
        // Ten continuation bytes, and a tenth byte with more than one bit.
        assert!(Reader::new(&[0xff; 10]).varint().is_err());
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert!(Reader::new(&over).varint().is_err());
    }

    #[test]
    fn a_huge_length_is_refused_before_allocating() {
        // One record whose key claims 2^62 fields.
        let mut buf = vec![1];
        typed::put_varint(1 << 62, &mut buf);
        buf.extend_from_slice(&[0, 0, 0]);
        assert!(decode_range(&buf, &mut Vec::new()).is_err());
    }
}
