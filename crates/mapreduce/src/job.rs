//! Job specifications.

use crate::task::{MapperFactory, ReducerFactory};
use std::sync::Arc;

/// One input of a job. The index of the input within
/// [`JobSpec::inputs`] is the *tag* mappers and reducers see. Which of
/// its fields the scan builds is not said here but by the mapper:
/// [`MapperFactory::columns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInput {
    pub path: String,
}

impl JobInput {
    pub fn new(path: impl Into<String>) -> Self {
        JobInput { path: path.into() }
    }
}

/// Everything the engine needs to run one MapReduce job.
///
/// `cpu_weight_map` / `cpu_weight_reduce` summarize how expensive the
/// job's physical operators are per record; the dataflow compiler derives
/// them from the plan (Filter is cheap, Join is not) and the cost model
/// multiplies them into the `Σ ET(op_i)` term of Equation (2).
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable name (shows up in stats and experiment output).
    pub name: String,
    /// Inputs; the position is the tag.
    pub inputs: Vec<JobInput>,
    /// Main output path.
    pub output: String,
    /// Side-output paths (injected Store operators). Channel index is the
    /// position in this vector.
    pub side_outputs: Vec<String>,
    /// The outputs written in the typed stored format
    /// ([`restore_common::typed`]): files the system writes for itself to
    /// read back. The dataflow compiler names its inter-job temporaries
    /// and ReStore adds the candidates it materializes. Every other
    /// output is PigStorage text, for a user to read.
    pub typed_outputs: Vec<String>,
    /// Mapper factory.
    pub mapper: Arc<dyn MapperFactory>,
    /// Reducer factory; `None` makes this a map-only job.
    pub reducer: Option<Arc<dyn ReducerFactory>>,
    /// Reduce task count; `None` uses the engine default. Ignored for
    /// map-only jobs.
    pub reduce_tasks: Option<usize>,
    /// Number of distinct shuffle tags mappers may emit. Usually equals
    /// `inputs.len()`, but a map-side Union can funnel several input files
    /// into one join branch, and a self-join can fan one input out to two
    /// branches. `None` defaults to `inputs.len()`.
    pub shuffle_tags: Option<usize>,
    /// Per-record operator CPU weight charged in the map phase.
    pub cpu_weight_map: f64,
    /// Per-record operator CPU weight charged in the reduce phase.
    pub cpu_weight_reduce: f64,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("output", &self.output)
            .field("side_outputs", &self.side_outputs)
            .field("typed_outputs", &self.typed_outputs)
            .field("map_only", &self.reducer.is_none())
            .finish()
    }
}

impl JobSpec {
    /// Minimal job: one input, one output, identity-style configuration
    /// to be customized by the caller.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<JobInput>,
        output: impl Into<String>,
        mapper: Arc<dyn MapperFactory>,
        reducer: Option<Arc<dyn ReducerFactory>>,
    ) -> Self {
        JobSpec {
            name: name.into(),
            inputs,
            output: output.into(),
            side_outputs: Vec::new(),
            typed_outputs: Vec::new(),
            mapper,
            reducer,
            reduce_tasks: None,
            shuffle_tags: None,
            cpu_weight_map: 1.0,
            cpu_weight_reduce: 1.0,
        }
    }

    pub fn is_map_only(&self) -> bool {
        self.reducer.is_none()
    }

    /// The format the output at `path` is written in.
    fn format_of(&self, path: &str) -> Format {
        if self.typed_outputs.iter().any(|p| p == path) {
            Format::Typed
        } else {
            Format::Text
        }
    }

    /// The formats of the main output and of each side channel.
    pub fn formats(&self) -> (Format, Vec<Format>) {
        let side = self.side_outputs.iter().map(|p| self.format_of(p)).collect();
        (self.format_of(&self.output), side)
    }
}

/// How a job writes one of its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// PigStorage text ([`restore_common::codec`]).
    Text,
    /// The typed stored format ([`restore_common::typed`]).
    Typed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{IdentityMapper, Mapper};

    #[test]
    fn job_spec_construction() {
        let mapper: Arc<dyn MapperFactory> =
            Arc::new(|| Box::new(IdentityMapper) as Box<dyn Mapper>);
        let job = JobSpec::new("j", vec![JobInput::new("/in")], "/out", mapper, None);
        assert!(job.is_map_only());
        assert_eq!(job.inputs[0].path, "/in");
        let dbg = format!("{job:?}");
        assert!(dbg.contains("map_only: true"));
    }
}
