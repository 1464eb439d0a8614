//! Mapper/Reducer traits and their emit contexts.
//!
//! Mirrors Hadoop's task API shape. The dataflow crate implements these
//! traits with plan-driven interpreters; tests implement them directly.

use crate::counters::Counters;
use crate::job::Format;
use crate::phases::PhaseTimes;
use crate::shuffle::{Run, RunBuilder};
use restore_common::codec::{self, ColumnSet};
use restore_common::{typed, Bag, Result, Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What a task hands back to the engine: bytes and counts only.
#[derive(Debug)]
pub struct TaskOutput {
    /// Shuffle records by reduce partition (map tasks of jobs with a
    /// reduce phase; empty otherwise).
    pub shuffle: Run,
    /// The task's share of the job's main output.
    pub output: Chunk,
    /// The task's share of each side-output channel.
    pub side: Vec<Chunk>,
    pub counters: Counters,
    /// The phases the task timed.
    pub phases: PhaseTimes,
}

/// One task's share of one output file, encoded in the file's
/// [`Format`]. The engine commits a file's chunks in task order.
#[derive(Debug)]
pub enum Chunk {
    /// PigStorage text, and whether some record in it does not read back
    /// as itself ([`codec::reads_back`]).
    Text {
        bytes: Vec<u8>,
        lossy: bool,
    },
    Typed(typed::Chunk),
}

impl Chunk {
    pub fn new(format: Format) -> Chunk {
        match format {
            Format::Text => Chunk::Text { bytes: Vec::new(), lossy: false },
            Format::Typed => Chunk::Typed(typed::Chunk::default()),
        }
    }

    /// Append one record; the bytes the cost model charges for it: the
    /// text estimate [`Tuple::encoded_len`] (as `encode_tuple` returns
    /// it), or what the typed record takes.
    pub fn push(&mut self, t: &Tuple) -> usize {
        match self {
            Chunk::Text { bytes, lossy } => {
                *lossy |= !codec::reads_back(t);
                codec::encode_tuple(t, bytes)
            }
            Chunk::Typed(chunk) => chunk.push(t),
        }
    }

    pub fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Text { bytes, .. } => bytes,
            Chunk::Typed(chunk) => chunk.bytes(),
        }
    }
}

/// Output collector handed to mappers.
///
/// A mapper can emit into three channels:
/// * [`MapContext::emit`] / [`MapContext::emit_by`] — keyed records for
///   the shuffle (jobs with a reduce phase);
/// * [`MapContext::output`] — direct records for map-only jobs;
/// * [`MapContext::side`] — records for an injected Store operator
///   (ReStore sub-job materialization in the map phase).
///
/// Nothing emitted is kept as a tuple. Each record is counted for the cost
/// model and encoded on the spot — shuffle records into the task's
/// [`RunBuilder`] under the partition their key hashes to, direct and side
/// records into the [`Chunk`] of their output's format — so a map task
/// ends holding exactly the bytes it hands back.
#[derive(Debug)]
pub struct MapContext {
    /// `None` in a map-only job, which has no shuffle: what a mapper emits
    /// there is counted and dropped.
    shuffle: Option<RunBuilder>,
    /// Direct output; a job with a reduce phase counts it and drops it.
    direct: Chunk,
    side: Vec<Chunk>,
    counters: Counters,
}

impl MapContext {
    /// Collector for one map task of a job with `reduce_partitions` reduce
    /// tasks (0 = map-only), whose main output is written as `output` and
    /// whose side channels as `side` ([`crate::JobSpec::formats`]).
    pub fn new(reduce_partitions: usize, output: Format, side: &[Format]) -> Self {
        MapContext {
            shuffle: (reduce_partitions > 0).then(|| RunBuilder::new(reduce_partitions)),
            direct: Chunk::new(output),
            side: side.iter().map(|&f| Chunk::new(f)).collect(),
            counters: Counters::default(),
        }
    }

    /// Emit a keyed record into the shuffle, tagged with the input index.
    /// The tag identifies which job input produced the record so reducers
    /// can separate Join/CoGroup sides.
    pub fn emit(&mut self, key: Tuple, tag: usize, value: Tuple) {
        self.put(key.iter(), tag, &value);
    }

    /// [`MapContext::emit`] for the usual case of a key that is some
    /// positions of the record itself (a position past its end is null):
    /// the key is hashed and written from `row`'s own fields.
    pub fn emit_by(&mut self, key_cols: &[usize], tag: usize, row: &Tuple) {
        self.put(key_cols.iter().map(|&c| row.get(c)), tag, row);
    }

    /// The one emission encoder.
    fn put<'a>(
        &mut self,
        key: impl ExactSizeIterator<Item = &'a Value> + Clone,
        tag: usize,
        value: &Tuple,
    ) {
        self.counters.map_output_records += 1;
        self.counters.map_output_bytes +=
            (Tuple::encoded_len_of(key.clone()) + value.encoded_len()) as u64;
        if let Some(run) = &mut self.shuffle {
            run.push(partition_of(key.clone(), run.partitions()), key, tag, value);
        }
    }

    /// Emit a record to the job's main output (map-only jobs).
    pub fn output(&mut self, value: Tuple) {
        self.counters.map_direct_output_records += 1;
        if self.shuffle.is_none() {
            self.direct.push(&value);
        }
    }

    /// Emit a record to side-output channel `channel`.
    pub fn side(&mut self, channel: usize, value: Tuple) {
        self.counters.map_side_bytes += self.side[channel].push(&value) as u64;
    }

    /// Everything emitted, as the bytes the engine commits or shuffles and
    /// the counters the cost model is charged with.
    pub fn finish(mut self) -> TaskOutput {
        let shuffle = match self.shuffle {
            Some(run) => run.finish(),
            None => {
                self.counters.output_records = self.counters.map_direct_output_records;
                Run::default()
            }
        };
        TaskOutput {
            shuffle,
            output: self.direct,
            side: self.side,
            counters: self.counters,
            phases: PhaseTimes::default(),
        }
    }
}

/// Stable hash partitioner (`DefaultHasher` has fixed keys, so
/// partitioning is reproducible across runs and platforms). It hashes what
/// a [`Tuple`] of the same fields hashes — the arity, then each field — so
/// a key lands in the same partition however it was emitted.
fn partition_of<'a>(key: impl ExactSizeIterator<Item = &'a Value>, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    h.write_usize(key.len());
    for v in key {
        v.hash(&mut h);
    }
    (h.finish() % partitions as u64) as usize
}

/// Output collector handed to reducers.
#[derive(Debug, Default)]
pub struct ReduceContext {
    /// Main output records.
    pub output: Vec<Tuple>,
    /// Side-output records per channel.
    pub side: Vec<Vec<Tuple>>,
}

impl ReduceContext {
    pub fn new(side_channels: usize) -> Self {
        ReduceContext { output: Vec::new(), side: (0..side_channels).map(|_| Vec::new()).collect() }
    }

    pub fn output(&mut self, value: Tuple) {
        self.output.push(value);
    }

    pub fn side(&mut self, channel: usize, value: Tuple) {
        self.side[channel].push(value);
    }
}

/// Per-record map function. One instance processes one input split.
pub trait Mapper: Send {
    /// Process one record from input `tag` (the index of the job input
    /// the current split belongs to). The record is laid out as the
    /// mapper's factory asked: see [`MapperFactory::columns`].
    fn map(&mut self, tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()>;

    /// Called once after the last record of the split.
    fn finish(&mut self, _ctx: &mut MapContext) -> Result<()> {
        Ok(())
    }
}

/// Reduce function. One instance processes one partition.
pub trait Reducer: Send {
    /// Process one key group. `bags[tag]` holds the values that arrived
    /// from input `tag`, in arrival order (Join and CoGroup need per-input
    /// bags; Group uses a single bag). A bag is flat: its members are read
    /// as row slices ([`Bag::rows`]).
    ///
    /// The key and the bags are the reducer's to take: they were built by
    /// this task's thread for this call and nothing reads them afterwards,
    /// so a reducer that builds its output from them should move them
    /// (`std::mem::take` a bag, [`Bag::into_rows`]) rather than clone. The
    /// engine owns the slice itself — one bag per tag — and replaces every
    /// bag before the next call.
    fn reduce(&mut self, key: Tuple, bags: &mut [Bag], ctx: &mut ReduceContext) -> Result<()>;

    /// Called once after the last key of the partition.
    fn finish(&mut self, _ctx: &mut ReduceContext) -> Result<()> {
        Ok(())
    }
}

/// Factory producing a fresh [`Mapper`] per map task. Must be shareable
/// across the engine's worker threads.
pub trait MapperFactory: Send + Sync {
    fn create(&self) -> Box<dyn Mapper>;

    /// The field positions of input `tag`'s records that this factory's
    /// mappers read. With `Some(set)` the scan builds nothing else and
    /// [`Mapper::map`] receives rows holding exactly the set's positions,
    /// in ascending order; `None` — the default — hands over whole
    /// records. The layout is the mapper's to declare because the mapper
    /// is what was written (or compiled) against it: a job cannot scan one
    /// layout and map another.
    fn columns(&self, _tag: usize) -> Option<&ColumnSet> {
        None
    }
}

/// Factory producing a fresh [`Reducer`] per reduce task.
pub trait ReducerFactory: Send + Sync {
    fn create(&self) -> Box<dyn Reducer>;
}

impl<F> MapperFactory for F
where
    F: Fn() -> Box<dyn Mapper> + Send + Sync,
{
    fn create(&self) -> Box<dyn Mapper> {
        self()
    }
}

impl<F> ReducerFactory for F
where
    F: Fn() -> Box<dyn Reducer> + Send + Sync,
{
    fn create(&self) -> Box<dyn Reducer> {
        self()
    }
}

/// Identity mapper: forwards every record keyed by its first field.
/// Useful in tests and as the degenerate map stage of reduce-heavy jobs.
pub struct IdentityMapper;

impl Mapper for IdentityMapper {
    fn map(&mut self, tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()> {
        ctx.emit_by(&[0], tag, &record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle;
    use restore_common::tuple;

    fn shuffled(out: &TaskOutput, partitions: usize) -> Vec<Vec<shuffle::Record>> {
        (0..partitions)
            .map(|p| {
                let mut records = Vec::new();
                shuffle::decode_range(out.shuffle.range(p), &mut records).unwrap();
                records
            })
            .collect()
    }

    #[test]
    fn map_context_channels() {
        // With a reduce phase: emissions reach the shuffle, side records
        // their channel, and direct output is counted and dropped.
        let mut ctx = MapContext::new(1, Format::Text, &[Format::Text, Format::Text]);
        ctx.emit(tuple![1], 0, tuple![1, "a"]);
        ctx.output(tuple![9]);
        ctx.side(1, tuple!["s", "a\tb"]);
        let out = ctx.finish();
        assert_eq!(shuffled(&out, 1), vec![vec![(tuple![1], 0, tuple![1, "a"])]]);
        assert!(out.output.bytes().is_empty());
        assert!(out.side[0].bytes().is_empty());
        assert_eq!(out.side[1].bytes(), codec::encode_all(&[tuple!["s", "a\tb"]]));
        let c = &out.counters;
        assert_eq!((c.map_output_records, c.map_output_bytes), (1, 2 + 4));
        assert_eq!((c.map_direct_output_records, c.output_records), (1, 0));
        assert_eq!(c.map_side_bytes, tuple!["s", "a\tb"].encoded_len() as u64);

        // Map-only: direct output is the task's output, and what goes to
        // the shuffle is counted and dropped.
        let mut ctx = MapContext::new(0, Format::Text, &[]);
        ctx.emit(tuple![1], 0, tuple![1, "a"]);
        ctx.output(tuple![9]);
        ctx.output(tuple![10, "x"]);
        let out = ctx.finish();
        assert_eq!(out.output.bytes(), codec::encode_all(&[tuple![9], tuple![10, "x"]]));
        let c = &out.counters;
        assert_eq!((c.map_output_records, c.map_output_bytes), (1, 2 + 4));
        assert_eq!((c.map_direct_output_records, c.output_records), (2, 2));
    }

    #[test]
    fn identity_mapper_keys_on_first_field() {
        let mut ctx = MapContext::new(1, Format::Text, &[]);
        IdentityMapper.map(0, tuple!["k", 5], &mut ctx).unwrap();
        IdentityMapper.map(3, Tuple::new(), &mut ctx).unwrap();
        let null_key = Tuple::from_values(vec![Value::Null]);
        assert_eq!(
            shuffled(&ctx.finish(), 1),
            vec![vec![(tuple!["k"], 0, tuple!["k", 5]), (null_key, 3, Tuple::new())]]
        );
    }

    #[test]
    fn a_key_lands_in_the_same_partition_however_it_is_emitted() {
        let rows = [
            tuple!["user_1", 2, 3.5],
            tuple![7, "x"],
            Tuple::from_values(vec![Value::Null, Value::Bag(vec![tuple![1]].into())]),
            Tuple::new(),
        ];
        let key_cols: [&[usize]; 4] = [&[0], &[1, 0], &[], &[0, 5]];
        let partitions = 5;
        let (mut by_ref, mut owned) = (
            MapContext::new(partitions, Format::Text, &[]),
            MapContext::new(partitions, Format::Text, &[]),
        );
        for row in &rows {
            for cols in key_cols {
                by_ref.emit_by(cols, 1, row);
                owned.emit(row.project(cols), 1, row.clone());
                // And that partition is the one `Tuple`'s own hash names.
                let mut h = DefaultHasher::new();
                row.project(cols).hash(&mut h);
                assert_eq!(
                    partition_of(row.project(cols).iter(), partitions),
                    (h.finish() % partitions as u64) as usize
                );
            }
        }
        let (by_ref, owned) = (by_ref.finish(), owned.finish());
        assert_eq!(by_ref.counters, owned.counters);
        let records = shuffled(&by_ref, partitions);
        assert_eq!(format!("{records:?}"), format!("{:?}", shuffled(&owned, partitions)));
        assert_eq!(records.iter().map(Vec::len).sum::<usize>(), rows.len() * key_cols.len());
    }

    /// Grouped rows of every shape: bags of one arity, empty, of tuples
    /// with no fields, ragged, nested, holding `-0.0` and NaN.
    fn grouped_rows() -> Vec<Tuple> {
        let bag = |ts: Vec<Tuple>| Value::Bag(ts.into());
        let row = |key: &str, bag: Value| Tuple::from_values(vec![Value::str(key), bag]);
        vec![
            row("alice", bag(vec![tuple!["alice", 1, 2.5], tuple!["alice", 2, -0.0]])),
            row("bob", bag(vec![])),
            row("carol", bag(vec![Tuple::new(), Tuple::new()])),
            row("dave", bag(vec![tuple![1], tuple![2, "x"], Tuple::new()])),
            row("eve", bag(vec![Tuple::from_values(vec![bag(vec![tuple![1]])]), tuple![f64::NAN]])),
        ]
    }

    #[test]
    fn a_grouped_row_keys_the_partition_it_always_did() {
        // Distinct over grouped rows shuffles each whole row as its key.
        let mut got = Vec::new();
        for partitions in [7, 13] {
            let mut ctx = MapContext::new(partitions, Format::Text, &[]);
            for row in grouped_rows() {
                ctx.emit(row, 0, Tuple::new());
            }
            let shuffled = shuffled(&ctx.finish(), partitions);
            for row in grouped_rows() {
                got.push(shuffled.iter().position(|p| p.iter().any(|r| r.0 == row)).unwrap());
            }
        }
        // As computed when a bag was a `Vec` of tuples.
        assert_eq!(got, [1, 2, 4, 6, 5, 2, 0, 0, 1, 0]);
    }

    #[test]
    fn closures_are_factories() {
        let f = || Box::new(IdentityMapper) as Box<dyn Mapper>;
        let _mapper = MapperFactory::create(&f);
    }
}
