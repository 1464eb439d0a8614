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
//! *p* decodes range *p* of every run into objects it owns.
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

/// Decode one partition range, appending its records to `out` in the order
/// they were encoded. The whole range must be consumed: a truncated range
/// is an error, never a shorter answer. Every length is checked against
/// the bytes remaining before anything is allocated for it, so a corrupt
/// length cannot make the decoder reserve more elements than the range has
/// bytes.
pub fn decode_range(bytes: &[u8], out: &mut Vec<Record>) -> Result<()> {
    let mut r = Reader::new(bytes);
    let records = r.count(MIN_RECORD_BYTES)?;
    out.reserve(records);
    for _ in 0..records {
        let key = r.tuple()?;
        let tag = usize::try_from(r.varint()?)
            .map_err(|_| Error::Codec("shuffle run: tag out of range".into()))?;
        let value = r.tuple()?;
        out.push((key, tag, value));
    }
    if !r.is_empty() {
        return Err(Error::Codec("shuffle run: bytes after the last record".into()));
    }
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
            (Tuple::new(), 2, Tuple::from_values(vec![Value::Null, Value::Bag(vec![tuple![1]])])),
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
