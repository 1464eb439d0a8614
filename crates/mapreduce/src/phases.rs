//! Measured phase times of one job: where its wall time went, as the
//! engine saw it. Nothing reads them to decide anything, and the cost
//! model never sees them — [`crate::JobTimes`] is the modeled counterpart.
//! A task measures its own phases with a few clock reads; the engine sums
//! the tasks' and adds the phases it times itself.

use std::time::Duration;

/// One job's measured phase times. Fields summed over tasks are CPU
/// time spent by the worker threads (at two threads they may exceed the
/// wall time of their phase); the others are wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Wall time of the map phase: every map task, start to last finish.
    pub map_wall: Duration,
    /// Decoding input splits into rows (typed or text), summed over map
    /// tasks.
    pub map_decode: Duration,
    /// Decoding the shuffle's ranges, summed over reduce tasks.
    pub shuffle_decode: Duration,
    /// Sorting the shuffled records by key, summed over reduce tasks.
    pub sort: Duration,
    /// Grouping, the reducer's calls and encoding their output, summed
    /// over reduce tasks.
    pub reduce: Duration,
    /// Wall time of committing the job's outputs to the DFS.
    pub commit_wall: Duration,
}

impl PhaseTimes {
    /// Add a task's times to the job's.
    pub fn absorb(&mut self, task: &PhaseTimes) {
        self.map_wall += task.map_wall;
        self.map_decode += task.map_decode;
        self.shuffle_decode += task.shuffle_decode;
        self.sort += task.sort;
        self.reduce += task.reduce;
        self.commit_wall += task.commit_wall;
    }
}
