//! Job execution: map tasks over input splits, hash-partitioned
//! sort-merge shuffle, reduce tasks, DFS output commit.
//!
//! Execution is multi-threaded but **deterministic**: reduce task *p*
//! decodes range *p* of every map task's shuffle run in task order, the
//! shuffle sort is stable, and outputs are committed in task (map) or
//! partition (reduce) order, so the bytes written to the DFS do not depend
//! on the number of worker threads.
//!
//! One ownership rule keeps the threads out of each other's way: a heap
//! object is freed by the thread that allocated it, and what crosses a
//! thread boundary is a contiguous byte buffer the other side only reads.
//! Tuples never leave the task that made them — map output crosses as a
//! [`Run`], task output as [`Chunk`]s of bytes ready to commit —
//! and the buffers are dropped by the calling thread after the workers
//! have gone. A reduce task's [`Arena`] falls under the same rule: the
//! task decodes its ranges into it, moves each group's fields out of it
//! into the key and bags it hands the reducer, and drops it, all on one
//! thread; the reducer's own output leaves as encoded chunks.
//!
//! Each output is written in its [`crate::Format`]: PigStorage text for a
//! user's, the typed stored format for the files the system reads back
//! itself ([`JobSpec::typed_outputs`], which the job's builder fills: a
//! compiled workflow's temporaries and ReStore's candidates). The engine
//! decides no format of its own. A typed file is its chunks' bytes
//! and then their trailer, which indexes groups that never span two
//! chunks. Each input is read in whichever format it is in: its end is
//! looked at once per job ([`InputFile::open`]).
//!
//! A map task has a rule of its own: it reads each input byte once and
//! builds each row once. The split is parsed in one pass straight into the
//! columns the mapper declared ([`crate::MapperFactory::columns`]), rows go
//! to the mapper a batch at a time in the order they are cut (a batch is
//! what lets decoding be timed apart from mapping, [`crate::PhaseTimes`]),
//! and whatever the mapper emits is counted and encoded on the spot
//! ([`MapContext`]).

use crate::config::{ClusterConfig, EngineConfig};
use crate::cost::{CostModel, JobTimes};
use crate::counters::Counters;
use crate::job::{Format, JobSpec};
use crate::phases::PhaseTimes;
use crate::shuffle::{Arena, Run};
use crate::split_reader::{read_split, InputFile};
use crate::task::{Chunk, MapContext, ReduceContext, ReducerFactory, TaskOutput};
use parking_lot::Mutex;
use restore_common::{typed, Error, Result};
use restore_dfs::{Dfs, FileSplit};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Result of one executed job: measured counters, modeled times, output
/// locations.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub job_name: String,
    pub counters: Counters,
    pub times: JobTimes,
    pub output: String,
    pub side_outputs: Vec<String>,
    /// The text outputs holding a record that does not read back as itself
    /// ([`restore_common::codec::reads_back`]): a later job must not Load
    /// one in place of recomputing it. A typed output is never lossy.
    pub lossy_outputs: Vec<String>,
    /// The version each output was committed at, the DFS clock's tick at
    /// its commit (what `Dfs::status` reads as its `mtime` until the path
    /// changes again): the main output's first, then each side output's
    /// in channel order.
    pub versions: Vec<u64>,
    /// The version each input was read at, its `mtime` when the job
    /// opened it ([`InputFile::open`]): one per [`JobSpec::inputs`]
    /// entry, in order.
    pub input_versions: Vec<u64>,
    /// Where the job's time went, measured ([`PhaseTimes`]).
    pub phases: PhaseTimes,
}

/// A job whose tasks have run and whose outputs are not yet committed:
/// its counters, the versions its inputs were opened at, and each
/// output's chunks in commit order.
pub(crate) struct Ran {
    counters: Counters,
    phases: PhaseTimes,
    input_versions: Vec<u64>,
    main: Vec<Chunk>,
    side: Vec<Vec<Chunk>>,
}

impl JobResult {
    /// The version the output at `path`, main or side, was committed at;
    /// `None` if the job wrote no such output.
    pub fn version_of(&self, path: &str) -> Option<u64> {
        let outputs = std::iter::once(&self.output).chain(&self.side_outputs);
        outputs.zip(&self.versions).find(|(p, _)| *p == path).map(|(_, v)| *v)
    }
}

/// The MapReduce engine. Holds the DFS handle and configuration; cheap to
/// clone.
#[derive(Clone)]
pub struct Engine {
    dfs: Dfs,
    cluster: ClusterConfig,
    engine_cfg: EngineConfig,
}

impl Engine {
    pub fn new(dfs: Dfs, cluster: ClusterConfig, engine_cfg: EngineConfig) -> Self {
        Engine { dfs, cluster, engine_cfg }
    }

    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Execute one job to completion.
    pub fn run(&self, spec: &JobSpec) -> Result<JobResult> {
        let ran = self.execute(spec)?;
        self.commit_outputs(spec, ran)
    }

    /// Run a job's tasks, up to the point where its outputs would be
    /// committed; [`Engine::commit_outputs`] commits them.
    pub(crate) fn execute(&self, spec: &JobSpec) -> Result<Ran> {
        if spec.inputs.is_empty() {
            return Err(Error::Job(format!("job {:?} has no inputs", spec.name)));
        }
        // Plan input splits, tagged with their input index.
        let mut files = Vec::with_capacity(spec.inputs.len());
        let mut splits: Vec<(usize, FileSplit)> = Vec::new();
        for (tag, input) in spec.inputs.iter().enumerate() {
            let file = InputFile::open(&self.dfs, &input.path)?;
            splits.extend(file.splits(&self.dfs)?.into_iter().map(|s| (tag, s)));
            files.push(file);
        }

        let reduce_tasks = if spec.is_map_only() {
            0
        } else {
            spec.reduce_tasks.unwrap_or(self.engine_cfg.default_reduce_tasks).max(1)
        };

        // ---- Map phase ----
        let map_started = Instant::now();
        let map_outs = self.run_tasks(splits.len(), |idx| {
            let (tag, split) = &splits[idx];
            self.run_map_task(spec, *tag, split, &files[*tag], reduce_tasks)
        })?;
        let mut phases = PhaseTimes { map_wall: map_started.elapsed(), ..Default::default() };

        // ---- Reduce phase ----
        let reduce_outs =
            self.run_tasks(reduce_tasks, |p| self.run_reduce_task(spec, &map_outs, p))?;

        let mut counters = Counters::default();
        for out in map_outs.iter().chain(&reduce_outs) {
            counters.absorb(&out.counters);
            phases.absorb(&out.phases);
        }
        counters.map_tasks = map_outs.len() as u64;
        counters.reduce_tasks = reduce_tasks as u64;

        // Main output: the reduce tasks' chunks in partition order, or the
        // map tasks' in task order for a map-only job. Side outputs: map
        // tasks', then reduce tasks'. The shuffle runs are dropped here.
        let (maps, map_only) = (map_outs.len(), spec.is_map_only());
        let mut main = Vec::new();
        let mut side: Vec<Vec<Chunk>> = spec.side_outputs.iter().map(|_| Vec::new()).collect();
        for (i, out) in map_outs.into_iter().chain(reduce_outs).enumerate() {
            if (i < maps) == map_only {
                main.push(out.output);
            }
            for (channel, chunk) in side.iter_mut().zip(out.side) {
                channel.push(chunk);
            }
        }
        let input_versions = files.iter().map(|f| f.version).collect();
        Ok(Ran { counters, phases, input_versions, main, side })
    }

    /// Commit what [`Engine::execute`] left: the main output, then each
    /// side output in channel order, each one DFS commit. If one fails,
    /// the outputs committed before it are deleted: a failed job leaves
    /// no visible output.
    pub(crate) fn commit_outputs(&self, spec: &JobSpec, ran: Ran) -> Result<JobResult> {
        let Ran { mut counters, mut phases, input_versions, main, side } = ran;
        let commit_started = Instant::now();
        let outputs: Vec<&String> =
            std::iter::once(&spec.output).chain(&spec.side_outputs).collect();
        let mut lossy_outputs = Vec::new();
        let mut versions = Vec::with_capacity(outputs.len());
        let mut lens = Vec::with_capacity(outputs.len());
        for (&path, chunks) in outputs.iter().zip(std::iter::once(main).chain(side)) {
            let (len, lossy, version) = match self.commit(path, &chunks) {
                Ok(committed) => committed,
                Err(e) => {
                    for done in &outputs[..versions.len()] {
                        self.dfs.delete(done);
                    }
                    return Err(e);
                }
            };
            if lossy {
                lossy_outputs.push(path.clone());
            }
            versions.push(version);
            lens.push(len);
        }
        counters.output_bytes = lens[0];
        counters.side_output_bytes = lens.split_off(1);
        phases.commit_wall = commit_started.elapsed();

        let times = CostModel::new(self.cluster.clone()).job_times(spec, &counters);
        Ok(JobResult {
            job_name: spec.name.clone(),
            counters,
            times,
            output: spec.output.clone(),
            side_outputs: spec.side_outputs.clone(),
            lossy_outputs,
            versions,
            input_versions,
            phases,
        })
    }

    /// Write `chunks`, in order, as the file at `path` — and, when they are
    /// typed, their trailer after them. The file's length, whether a text
    /// chunk was lossy, and the version the file was committed at.
    fn commit(&self, path: &str, chunks: &[Chunk]) -> Result<(u64, bool, u64)> {
        let mut w = self.dfs.create_overwrite(path)?;
        let mut lossy = false;
        let mut typed_chunks = Vec::new();
        for chunk in chunks {
            w.write(chunk.bytes());
            match chunk {
                Chunk::Text { lossy: l, .. } => lossy |= l,
                Chunk::Typed(t) => typed_chunks.push(t),
            }
        }
        w.write(&typed::trailer(typed_chunks));
        let len = w.len();
        Ok((len, lossy, w.close()?))
    }

    /// Run `task(0..n)` on the worker threads; results in index order, or
    /// the first error in index order. No task is started once one has
    /// failed. Indices are handed out in order, so every task below a
    /// failed one was already started and runs to its end: the error
    /// returned is still that of the lowest failing index.
    fn run_tasks<T: Send>(
        &self,
        n: usize,
        task: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let next = AtomicUsize::new(0);
        // A hint to stop early and nothing more: results travel under the
        // mutex, so `Relaxed` is enough.
        let failed = AtomicBool::new(false);
        let results: Mutex<Vec<(usize, Result<T>)>> = Mutex::new(Vec::with_capacity(n));
        let threads = self.engine_cfg.worker_threads.max(1).min(n);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let out = task(idx);
                    if out.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    results.lock().push((idx, out));
                });
            }
        });

        let mut results = results.into_inner();
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// One map task of `spec`: `split` of input `tag` (`file`) through a
    /// fresh mapper, for a job with `reduce_tasks` reduce tasks (0 =
    /// map-only). [`Engine::run`] runs one per split; it is public so a
    /// bench can time the map phase alone.
    pub fn run_map_task(
        &self,
        spec: &JobSpec,
        tag: usize,
        split: &FileSplit,
        file: &InputFile,
        reduce_tasks: usize,
    ) -> Result<TaskOutput> {
        let mut mapper = spec.mapper.create();
        let (output, side) = spec.formats();
        let mut ctx = MapContext::new(reduce_tasks, output, &side);
        let mut records = 0;
        let read = read_split(&self.dfs, split, file, spec.mapper.columns(tag), |row| {
            records += 1;
            mapper.map(tag, row, &mut ctx)
        })?;
        mapper.finish(&mut ctx)?;
        let mut out = ctx.finish();
        out.counters.map_input_records = records;
        out.counters.map_input_bytes = read.payload_bytes;
        out.phases.map_decode = read.decode;
        Ok(out)
    }

    /// Reduce task `partition` of `spec`, over `map_outs`, the outputs of
    /// every one of its map tasks in task order. [`Engine::run`] runs one
    /// per partition; it is public so a bench can time the reduce phase
    /// alone. An error for a map-only job.
    pub fn run_reduce_task(
        &self,
        spec: &JobSpec,
        map_outs: &[TaskOutput],
        partition: usize,
    ) -> Result<TaskOutput> {
        let factory = spec
            .reducer
            .as_ref()
            .ok_or_else(|| Error::Job(format!("job {:?} has no reduce phase", spec.name)))?;
        let n_tags = spec.shuffle_tags.unwrap_or(spec.inputs.len()).max(1);
        let (output, side) = spec.formats();
        reduce_task(factory.as_ref(), map_outs, partition, n_tags, (output, &side))
    }
}

fn reduce_task(
    factory: &dyn ReducerFactory,
    map_outs: &[TaskOutput],
    partition: usize,
    n_tags: usize,
    (output, side): (Format, &[Format]),
) -> Result<TaskOutput> {
    // Map-task order, then emission order within a task: with the stable
    // sort by key only, bag contents do not depend on which thread ran
    // which map task.
    let started = Instant::now();
    let mut arena = Arena::default();
    for out in map_outs {
        arena.decode(out.shuffle.range(partition))?;
    }
    let decoded = Instant::now();
    arena.sort();
    let sorted = Instant::now();

    let mut reducer = factory.create();
    let mut ctx = ReduceContext::new(side.len());
    let mut counters = Counters { reduce_input_records: arena.len() as u64, ..Default::default() };
    counters.reduce_input_groups =
        arena.groups(n_tags, |key, bags| reducer.reduce(key, bags, &mut ctx))?;
    reducer.finish(&mut ctx)?;

    counters.output_records = ctx.output.len() as u64;
    let mut main = Chunk::new(output);
    for t in &ctx.output {
        main.push(t);
    }
    // Side-output bytes as the cost model counts them: what `Chunk::push`
    // charges, not the committed length.
    let side = ctx
        .side
        .iter()
        .zip(side)
        .map(|(ts, &format)| {
            let mut chunk = Chunk::new(format);
            for t in ts {
                counters.reduce_side_bytes += chunk.push(t) as u64;
            }
            chunk
        })
        .collect();
    let phases = PhaseTimes {
        shuffle_decode: decoded - started,
        sort: sorted - decoded,
        reduce: sorted.elapsed(),
        ..Default::default()
    };
    Ok(TaskOutput { shuffle: Run::default(), output: main, side, counters, phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Mapper, Reducer};
    use restore_common::{codec, tuple, Bag, Tuple, Value};
    use restore_dfs::DfsConfig;
    use std::sync::Arc;

    fn small_engine(threads: usize) -> Engine {
        let dfs =
            Dfs::new(DfsConfig { nodes: 4, block_size: 64, replication: 2, node_capacity: None });
        Engine::new(
            dfs,
            ClusterConfig::default(),
            EngineConfig { worker_threads: threads, default_reduce_tasks: 3 },
        )
    }

    fn write_tuples(dfs: &Dfs, path: &str, tuples: &[Tuple]) {
        dfs.write_all(path, &codec::encode_all(tuples)).unwrap();
    }

    fn read_tuples(dfs: &Dfs, path: &str) -> Vec<Tuple> {
        codec::decode_all(&dfs.read_all(path).unwrap()).unwrap()
    }

    /// Mapper emitting (word, 1); reducer summing counts — the classic.
    struct WcMap;
    impl Mapper for WcMap {
        fn map(&mut self, tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()> {
            ctx.emit(Tuple::from_values(vec![record.get(0).clone()]), tag, tuple![1]);
            Ok(())
        }
    }
    struct WcReduce;
    impl Reducer for WcReduce {
        fn reduce(&mut self, key: Tuple, bags: &mut [Bag], ctx: &mut ReduceContext) -> Result<()> {
            let count = bags[0].len() as i64;
            ctx.output(Tuple::from_values(vec![key.get(0).clone(), Value::Int(count)]));
            Ok(())
        }
    }

    fn word_count_job(input: &str, output: &str) -> JobSpec {
        let mut spec = JobSpec::new(
            "wordcount",
            vec![crate::job::JobInput::new(input)],
            output,
            Arc::new(|| Box::new(WcMap) as Box<dyn Mapper>),
            Some(Arc::new(|| Box::new(WcReduce) as Box<dyn Reducer>)),
        );
        spec.reduce_tasks = Some(3);
        spec
    }

    #[test]
    fn word_count_end_to_end() {
        let eng = small_engine(4);
        let words = ["apple", "pear", "apple", "fig", "pear", "apple"];
        let input: Vec<Tuple> = words.iter().map(|w| tuple![*w]).collect();
        write_tuples(eng.dfs(), "/in", &input);
        let res = eng.run(&word_count_job("/in", "/out")).unwrap();

        let mut out = read_tuples(eng.dfs(), "/out");
        out.sort();
        assert_eq!(out, vec![tuple!["apple", 3], tuple!["fig", 1], tuple!["pear", 2]]);
        assert_eq!(res.counters.map_input_records, 6);
        assert_eq!(res.counters.map_output_records, 6);
        assert_eq!(res.counters.reduce_input_groups, 3);
        assert_eq!(res.counters.output_records, 3);
        assert_eq!(res.counters.reduce_tasks, 3);
        assert!(res.times.total_s > 0.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mk_input = |eng: &Engine| {
            let input: Vec<Tuple> =
                (0..500).map(|i| tuple![format!("w{}", i % 17), i as i64]).collect();
            write_tuples(eng.dfs(), "/in", &input);
        };
        let run = |threads: usize| {
            let eng = small_engine(threads);
            mk_input(&eng);
            eng.run(&word_count_job("/in", "/out")).unwrap();
            eng.dfs().read_all("/out").unwrap()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn map_only_job_writes_direct_output() {
        struct ProjectFirst;
        impl Mapper for ProjectFirst {
            fn map(&mut self, _tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()> {
                ctx.output(record.project(&[0]));
                Ok(())
            }
        }
        let eng = small_engine(2);
        write_tuples(eng.dfs(), "/in", &[tuple![1, "a"], tuple![2, "b"]]);
        let spec = JobSpec::new(
            "proj",
            vec![crate::job::JobInput::new("/in")],
            "/out",
            Arc::new(|| Box::new(ProjectFirst) as Box<dyn Mapper>),
            None,
        );
        let res = eng.run(&spec).unwrap();
        assert!(res.counters.is_map_only());
        assert_eq!(read_tuples(eng.dfs(), "/out"), vec![tuple![1], tuple![2]]);
    }

    #[test]
    fn join_via_tags() {
        // Input 0: (name); Input 1: (user, revenue). Join on key.
        struct JoinMap;
        impl Mapper for JoinMap {
            fn map(&mut self, tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()> {
                ctx.emit(Tuple::from_values(vec![record.get(0).clone()]), tag, record);
                Ok(())
            }
        }
        struct JoinReduce;
        impl Reducer for JoinReduce {
            fn reduce(
                &mut self,
                _k: Tuple,
                bags: &mut [Bag],
                ctx: &mut ReduceContext,
            ) -> Result<()> {
                for l in bags[0].rows() {
                    for r in bags[1].rows() {
                        ctx.output(l.iter().chain(r).cloned().collect());
                    }
                }
                Ok(())
            }
        }
        let eng = small_engine(4);
        write_tuples(eng.dfs(), "/users", &[tuple!["ann"], tuple!["bob"]]);
        write_tuples(
            eng.dfs(),
            "/views",
            &[tuple!["ann", 10], tuple!["cid", 99], tuple!["ann", 5]],
        );
        let mut spec = JobSpec::new(
            "join",
            vec![crate::job::JobInput::new("/users"), crate::job::JobInput::new("/views")],
            "/out",
            Arc::new(|| Box::new(JoinMap) as Box<dyn Mapper>),
            Some(Arc::new(|| Box::new(JoinReduce) as Box<dyn Reducer>)),
        );
        spec.reduce_tasks = Some(2);
        eng.run(&spec).unwrap();
        let mut out = read_tuples(eng.dfs(), "/out");
        out.sort();
        assert_eq!(out, vec![tuple!["ann", "ann", 5], tuple!["ann", "ann", 10]]);
    }

    #[test]
    fn side_outputs_written_from_map_and_reduce() {
        struct TeeMap;
        impl Mapper for TeeMap {
            fn map(&mut self, tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()> {
                ctx.side(0, record.clone());
                ctx.emit(Tuple::from_values(vec![record.get(0).clone()]), tag, record);
                Ok(())
            }
        }
        struct TeeReduce;
        impl Reducer for TeeReduce {
            fn reduce(
                &mut self,
                key: Tuple,
                bags: &mut [Bag],
                ctx: &mut ReduceContext,
            ) -> Result<()> {
                let t =
                    Tuple::from_values(vec![key.get(0).clone(), Value::Int(bags[0].len() as i64)]);
                ctx.side(1, t.clone());
                ctx.output(t);
                Ok(())
            }
        }
        let eng = small_engine(3);
        write_tuples(eng.dfs(), "/in", &[tuple!["a", 1], tuple!["a", 2], tuple!["b", 3]]);
        let mut spec = JobSpec::new(
            "tee",
            vec![crate::job::JobInput::new("/in")],
            "/out",
            Arc::new(|| Box::new(TeeMap) as Box<dyn Mapper>),
            Some(Arc::new(|| Box::new(TeeReduce) as Box<dyn Reducer>)),
        );
        spec.side_outputs = vec!["/side/map".into(), "/side/reduce".into()];
        spec.reduce_tasks = Some(2);
        let res = eng.run(&spec).unwrap();

        let mut side_map = read_tuples(eng.dfs(), "/side/map");
        side_map.sort();
        assert_eq!(side_map, vec![tuple!["a", 1], tuple!["a", 2], tuple!["b", 3]]);
        let mut side_red = read_tuples(eng.dfs(), "/side/reduce");
        side_red.sort();
        assert_eq!(side_red, vec![tuple!["a", 2], tuple!["b", 1]]);
        assert_eq!(res.counters.side_output_bytes.len(), 2);
        assert!(res.counters.map_side_bytes > 0);
        assert!(res.counters.reduce_side_bytes > 0);
        // Each output's version is the one its file carries.
        for path in ["/out", "/side/map", "/side/reduce"] {
            assert_eq!(res.version_of(path), Some(eng.dfs().status(path).unwrap().mtime), "{path}");
        }
        assert_eq!(res.version_of("/in"), None);
    }

    /// Each input's version is the `mtime` the job opened it at, text or
    /// typed, and a later overwrite moves the file, not the result.
    #[test]
    fn a_job_reports_the_version_it_read_each_input_at() {
        let eng = small_engine(2);
        let rows = [tuple!["a", 1], tuple!["b", 2]];
        write_tuples(eng.dfs(), "/text", &rows);
        eng.dfs().write_all("/typed", &typed::encode_file(&rows)).unwrap();
        let mut spec = word_count_job("/text", "/out");
        spec.inputs.push(crate::job::JobInput::new("/typed"));
        let mtime = |path| eng.dfs().status(path).unwrap().mtime;
        let opened = vec![mtime("/text"), mtime("/typed")];

        let res = eng.run(&spec).unwrap();
        assert_eq!(res.input_versions, opened);
        let mut w = eng.dfs().create_overwrite("/text").unwrap();
        w.write(&codec::encode_all(&rows[..1]));
        w.close().unwrap();
        assert_ne!(mtime("/text"), opened[0]);
        assert_eq!(res.input_versions, opened, "what the job read stays what it read");
        let rerun = eng.run(&spec).unwrap();
        assert_eq!(rerun.input_versions, vec![mtime("/text"), opened[1]]);
    }

    #[test]
    fn a_job_reports_the_phases_it_ran() {
        let eng = small_engine(2);
        let input: Vec<Tuple> = (0..200).map(|i| tuple![format!("w{}", i % 7), i as i64]).collect();
        write_tuples(eng.dfs(), "/in", &input);
        let grouped = eng.run(&word_count_job("/in", "/out")).unwrap().phases;
        let zero = std::time::Duration::ZERO;
        for (phase, t) in [
            ("map_wall", grouped.map_wall),
            ("map_decode", grouped.map_decode),
            ("shuffle_decode", grouped.shuffle_decode),
            ("sort", grouped.sort),
            ("reduce", grouped.reduce),
            ("commit_wall", grouped.commit_wall),
        ] {
            assert!(t > zero, "{phase} of a map+reduce job");
        }
        let mut map_only = word_count_job("/in", "/out2");
        map_only.reducer = None;
        let map_only = eng.run(&map_only).unwrap().phases;
        assert!(map_only.map_wall > zero && map_only.map_decode > zero);
        assert_eq!((map_only.shuffle_decode, map_only.sort, map_only.reduce), (zero, zero, zero));
        assert!(map_only.commit_wall > zero);
    }

    #[test]
    fn empty_input_produces_empty_output_file() {
        let eng = small_engine(2);
        write_tuples(eng.dfs(), "/in", &[]);
        let res = eng.run(&word_count_job("/in", "/out")).unwrap();
        assert_eq!(res.counters.output_records, 0);
        assert!(eng.dfs().exists("/out"));
        assert_eq!(eng.dfs().file_len("/out").unwrap(), 0);
    }

    #[test]
    fn missing_input_is_an_error() {
        let eng = small_engine(1);
        let err = eng.run(&word_count_job("/nope", "/out")).unwrap_err();
        assert!(matches!(err, Error::FileNotFound(_)));
    }

    #[test]
    fn jobs_without_inputs_rejected() {
        let eng = small_engine(1);
        let spec = JobSpec::new(
            "empty",
            vec![],
            "/out",
            Arc::new(|| Box::new(WcMap) as Box<dyn Mapper>),
            None,
        );
        assert!(matches!(eng.run(&spec), Err(Error::Job(_))));
    }
}
