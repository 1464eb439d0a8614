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
//! The format is typed and binary, not the text [`restore_common::codec`]:
//! that codec stores values untyped and re-infers them on read (a
//! `Str("123")` comes back as `Int(123)`), which is right for PigStorage
//! files and wrong for a shuffle that must hand reducers exactly what
//! mappers emitted. Here every value carries a type byte, and `Int` and
//! `Double` travel as their 8 raw bytes, so the round trip is bit-exact
//! (`-0.0`, NaN payloads). Runs are process-internal — never written to the
//! DFS, the journal or a state file — so the format carries no version.
//!
//! ```text
//! range  := varint(records) record*
//! record := tuple(key) varint(tag) tuple(value)
//! tuple  := varint(arity) value*
//! value  := 0 | 1 i64-le | 2 f64-bits-le | 3 varint(len) utf8 | 4 varint(tuples) tuple*
//! ```

use restore_common::{Error, Result, SmallStr, Tuple, Value};

/// One shuffle emission: key, input tag, value.
pub type Record = (Tuple, usize, Tuple);

const NULL: u8 = 0;
const INT: u8 = 1;
const DOUBLE: u8 = 2;
const STR: u8 = 3;
const BAG: u8 = 4;

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
        put_varint(key.len() as u64, &mut self.bytes);
        for v in key {
            put_value(v, &mut self.bytes);
        }
        put_varint(tag as u64, &mut self.bytes);
        put_tuple(value, &mut self.bytes);
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
            put_varint(count as u64, &mut run.bytes);
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

fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn put_tuple(t: &Tuple, out: &mut Vec<u8>) {
    put_varint(t.arity() as u64, out);
    for v in t.iter() {
        put_value(v, out);
    }
}

fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(NULL),
        Value::Int(i) => {
            out.push(INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(DOUBLE);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(STR);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bag(ts) => {
            out.push(BAG);
            put_varint(ts.len() as u64, out);
            for t in ts {
                put_tuple(t, out);
            }
        }
    }
}

/// Decode one partition range, appending its records to `out` in the order
/// they were encoded. The whole range must be consumed: a truncated range
/// is an error, never a shorter answer. Every length is checked against
/// the bytes remaining before anything is allocated for it, so a corrupt
/// length cannot make the decoder reserve more elements than the range has
/// bytes.
pub fn decode_range(bytes: &[u8], out: &mut Vec<Record>) -> Result<()> {
    let mut r = Reader { bytes };
    let records = r.count(MIN_RECORD_BYTES)?;
    out.reserve(records);
    for _ in 0..records {
        let key = r.tuple()?;
        let tag = usize::try_from(r.varint()?).map_err(|_| corrupt("tag out of range"))?;
        let value = r.tuple()?;
        out.push((key, tag, value));
    }
    if !r.bytes.is_empty() {
        return Err(corrupt("bytes after the last record"));
    }
    Ok(())
}

fn corrupt(what: &str) -> Error {
    Error::Codec(format!("shuffle run: {what}"))
}

/// Cursor over the undecoded rest of a range.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(corrupt("unexpected end"));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn word(&mut self) -> Result<[u8; 8]> {
        Ok(self.take(8)?.try_into().expect("took 8 bytes"))
    }

    fn varint(&mut self) -> Result<u64> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.take(1)?[0];
            let bits = u64::from(b & 0x7f);
            if (bits << shift) >> shift != bits {
                break; // the tenth byte carries one bit
            }
            n |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(corrupt("varint overflows 64 bits"))
    }

    /// A count of items that each occupy at least `min_bytes`.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.bytes.len() / min_bytes => Ok(n),
            _ => Err(corrupt("count exceeds the bytes remaining")),
        }
    }

    fn tuple(&mut self) -> Result<Tuple> {
        let arity = self.count(1)?;
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(self.value()?);
        }
        Ok(Tuple::from_values(vals))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.take(1)?[0] {
            NULL => Value::Null,
            INT => Value::Int(i64::from_le_bytes(self.word()?)),
            DOUBLE => Value::Double(f64::from_bits(u64::from_le_bytes(self.word()?))),
            STR => {
                let len = self.count(1)?;
                let s = SmallStr::from_utf8(self.take(len)?)
                    .map_err(|_| corrupt("string is not valid UTF-8"))?;
                Value::Str(s)
            }
            BAG => {
                let tuples = self.count(1)?;
                let mut bag = Vec::with_capacity(tuples);
                for _ in 0..tuples {
                    bag.push(self.tuple()?);
                }
                Value::Bag(bag)
            }
            other => return Err(corrupt(&format!("unknown value type {other}"))),
        })
    }
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
            put_varint(n, &mut buf);
            let mut r = Reader { bytes: &buf };
            assert_eq!(r.varint().unwrap(), n);
            assert!(r.bytes.is_empty());
        }
        // Ten continuation bytes, and a tenth byte with more than one bit.
        assert!(Reader { bytes: &[0xff; 10] }.varint().is_err());
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert!(Reader { bytes: &over }.varint().is_err());
    }

    #[test]
    fn a_huge_length_is_refused_before_allocating() {
        // One record whose key claims 2^62 fields.
        let mut buf = vec![1];
        put_varint(1 << 62, &mut buf);
        buf.extend_from_slice(&[0, 0, 0]);
        assert!(decode_range(&buf, &mut Vec::new()).is_err());
    }
}
