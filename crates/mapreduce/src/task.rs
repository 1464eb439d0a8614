//! Mapper/Reducer traits and their emit contexts.
//!
//! Mirrors Hadoop's task API shape. The dataflow crate implements these
//! traits with plan-driven interpreters; tests implement them directly.

use restore_common::{Result, Tuple};

/// Output collector handed to mappers.
///
/// A mapper can emit into three channels:
/// * [`MapContext::emit`] — keyed records for the shuffle (jobs with a
///   reduce phase);
/// * [`MapContext::output`] — direct records for map-only jobs;
/// * [`MapContext::side`] — records for an injected Store operator
///   (ReStore sub-job materialization in the map phase).
#[derive(Debug, Default)]
pub struct MapContext {
    /// (key, input-tag, value) triples destined for the shuffle. The tag
    /// identifies which job input produced the record so reducers can
    /// separate Join/CoGroup sides.
    pub shuffle: Vec<(Tuple, usize, Tuple)>,
    /// Direct output of map-only jobs.
    pub direct: Vec<Tuple>,
    /// Side-output records per channel.
    pub side: Vec<Vec<Tuple>>,
}

impl MapContext {
    pub fn new(side_channels: usize) -> Self {
        MapContext {
            shuffle: Vec::new(),
            direct: Vec::new(),
            side: (0..side_channels).map(|_| Vec::new()).collect(),
        }
    }

    /// Emit a keyed record into the shuffle, tagged with the input index.
    pub fn emit(&mut self, key: Tuple, tag: usize, value: Tuple) {
        self.shuffle.push((key, tag, value));
    }

    /// Emit a record to the job's main output (map-only jobs).
    pub fn output(&mut self, value: Tuple) {
        self.direct.push(value);
    }

    /// Emit a record to side-output channel `channel`.
    pub fn side(&mut self, channel: usize, value: Tuple) {
        self.side[channel].push(value);
    }
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
    /// the current split belongs to).
    fn map(&mut self, tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()>;

    /// Called once after the last record of the split.
    fn finish(&mut self, _ctx: &mut MapContext) -> Result<()> {
        Ok(())
    }
}

/// Reduce function. One instance processes one partition.
pub trait Reducer: Send {
    /// Process one key group. `bags[tag]` holds the values that arrived
    /// from input `tag` (Join and CoGroup need per-input bags; Group uses
    /// a single bag).
    ///
    /// The key and the bags' contents are the reducer's to take: they were
    /// decoded by this task's thread for this call and nothing reads them
    /// afterwards, so a reducer that builds its output from them should
    /// move them (`std::mem::take` a bag, `drain` it, sort it in place)
    /// rather than clone. The engine owns the slice itself — one bag per
    /// tag, allocated once per task — and clears every bag after the call.
    fn reduce(
        &mut self,
        key: Tuple,
        bags: &mut [Vec<Tuple>],
        ctx: &mut ReduceContext,
    ) -> Result<()>;

    /// Called once after the last key of the partition.
    fn finish(&mut self, _ctx: &mut ReduceContext) -> Result<()> {
        Ok(())
    }
}

/// Factory producing a fresh [`Mapper`] per map task. Must be shareable
/// across the engine's worker threads.
pub trait MapperFactory: Send + Sync {
    fn create(&self) -> Box<dyn Mapper>;
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
        let key = Tuple::from_values(vec![record.get(0).clone()]);
        ctx.emit(key, tag, record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_common::tuple;

    #[test]
    fn map_context_channels() {
        let mut ctx = MapContext::new(2);
        ctx.emit(tuple![1], 0, tuple![1, "a"]);
        ctx.output(tuple![9]);
        ctx.side(1, tuple!["s"]);
        assert_eq!(ctx.shuffle.len(), 1);
        assert_eq!(ctx.direct.len(), 1);
        assert!(ctx.side[0].is_empty());
        assert_eq!(ctx.side[1].len(), 1);
    }

    #[test]
    fn identity_mapper_keys_on_first_field() {
        let mut ctx = MapContext::new(0);
        IdentityMapper.map(0, tuple!["k", 5], &mut ctx).unwrap();
        assert_eq!(ctx.shuffle[0].0, tuple!["k"]);
        assert_eq!(ctx.shuffle[0].2, tuple!["k", 5]);
    }

    #[test]
    fn closures_are_factories() {
        let f = || Box::new(IdentityMapper) as Box<dyn Mapper>;
        let _mapper = MapperFactory::create(&f);
    }
}
