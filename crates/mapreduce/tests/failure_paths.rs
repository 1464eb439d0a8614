//! Failure injection: corrupt records, vanishing inputs, capacity
//! exhaustion, and mapper/reducer errors must surface as errors — never
//! panics, hangs, or silent truncation.

use restore_common::{codec, tuple, Error, Result, Tuple};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{
    Engine, EngineConfig, JobInput, JobSpec, MapContext, Mapper, ReduceContext, Reducer,
};
use restore_testkit::engine_over;
use std::sync::Arc;

fn engine(dfs: Dfs) -> Engine {
    engine_over(dfs, Some(EngineConfig { worker_threads: 3, default_reduce_tasks: 2 }))
}

struct KeyFirst;
impl Mapper for KeyFirst {
    fn map(&mut self, tag: usize, r: Tuple, ctx: &mut MapContext) -> Result<()> {
        ctx.emit(Tuple::from_values(vec![r.get(0).clone()]), tag, r);
        Ok(())
    }
}

struct CountRed;
impl Reducer for CountRed {
    fn reduce(
        &mut self,
        key: Tuple,
        bags: &mut [Vec<Tuple>],
        ctx: &mut ReduceContext,
    ) -> Result<()> {
        ctx.output(Tuple::from_values(vec![key.get(0).clone(), (bags[0].len() as i64).into()]));
        Ok(())
    }
}

fn job(input: &str, output: &str) -> JobSpec {
    JobSpec::new(
        "j",
        vec![JobInput::new(input)],
        output,
        Arc::new(|| Box::new(KeyFirst) as Box<dyn Mapper>),
        Some(Arc::new(|| Box::new(CountRed) as Box<dyn Reducer>)),
    )
}

#[test]
fn corrupt_records_fail_the_job_cleanly() {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    // A dangling escape is invalid under the codec.
    dfs.write_all("/in", b"good\t1\nbad\\").unwrap();
    let err = engine(dfs).run(&job("/in", "/out")).unwrap_err();
    assert!(matches!(err, Error::Codec(_)), "{err}");
}

#[test]
fn mapper_errors_propagate() {
    struct Exploding;
    impl Mapper for Exploding {
        fn map(&mut self, _t: usize, r: Tuple, _c: &mut MapContext) -> Result<()> {
            if r.get(0).as_i64() == Some(13) {
                return Err(Error::Eval("unlucky record".into()));
            }
            Ok(())
        }
    }
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    let rows: Vec<Tuple> = (0..50).map(|i| tuple![i]).collect();
    dfs.write_all("/in", &codec::encode_all(&rows)).unwrap();
    let spec = JobSpec::new(
        "explode",
        vec![JobInput::new("/in")],
        "/out",
        Arc::new(|| Box::new(Exploding) as Box<dyn Mapper>),
        None,
    );
    let err = engine(dfs).run(&spec).unwrap_err();
    assert!(err.to_string().contains("unlucky"), "{err}");
}

#[test]
fn reducer_errors_propagate() {
    struct BadReduce;
    impl Reducer for BadReduce {
        fn reduce(
            &mut self,
            _k: Tuple,
            _b: &mut [Vec<Tuple>],
            _c: &mut ReduceContext,
        ) -> Result<()> {
            Err(Error::Eval("reduce failed".into()))
        }
    }
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/in", &codec::encode_all(&[tuple!["k", 1]])).unwrap();
    let spec = JobSpec::new(
        "badred",
        vec![JobInput::new("/in")],
        "/out",
        Arc::new(|| Box::new(KeyFirst) as Box<dyn Mapper>),
        Some(Arc::new(|| Box::new(BadReduce) as Box<dyn Reducer>)),
    );
    let err = engine(dfs).run(&spec).unwrap_err();
    assert!(err.to_string().contains("reduce failed"), "{err}");
    // The failed job must not have committed its output.
    // (Output commit happens after all phases succeed.)
}

#[test]
fn failed_job_commits_no_output() {
    struct Exploding;
    impl Mapper for Exploding {
        fn map(&mut self, _t: usize, _r: Tuple, _c: &mut MapContext) -> Result<()> {
            Err(Error::Eval("boom".into()))
        }
    }
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/in", &codec::encode_all(&[tuple![1]])).unwrap();
    let eng = engine(dfs);
    let spec = JobSpec::new(
        "boom",
        vec![JobInput::new("/in")],
        "/out/never",
        Arc::new(|| Box::new(Exploding) as Box<dyn Mapper>),
        None,
    );
    assert!(eng.run(&spec).is_err());
    assert!(!eng.dfs().exists("/out/never"));
}

#[test]
fn out_of_capacity_fails_the_write() {
    let dfs =
        Dfs::new(DfsConfig { nodes: 2, block_size: 64, replication: 2, node_capacity: Some(400) });
    let rows: Vec<Tuple> = (0..40).map(|i| tuple![i, "data"]).collect();
    dfs.write_all("/in", &codec::encode_all(&rows)).unwrap();
    // The job output (plus shuffle-free identity copy) exceeds capacity.
    struct Amplify;
    impl Mapper for Amplify {
        fn map(&mut self, _t: usize, r: Tuple, ctx: &mut MapContext) -> Result<()> {
            for _ in 0..50 {
                ctx.output(r.clone());
            }
            Ok(())
        }
    }
    let eng = engine(dfs);
    let spec = JobSpec::new(
        "amp",
        vec![JobInput::new("/in")],
        "/out/amp",
        Arc::new(|| Box::new(Amplify) as Box<dyn Mapper>),
        None,
    );
    let err = eng.run(&spec).unwrap_err();
    assert!(matches!(err, Error::OutOfStorage { .. }), "{err}");
}

#[test]
fn workflow_stops_at_first_failed_job() {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/in", &codec::encode_all(&[tuple!["k", 1]])).unwrap();
    let eng = engine(dfs);
    // One job at a time, the way a workflow runs without wave
    // parallelism; the second reads a file nobody produced.
    let (ok, bad, after) = (job("/in", "/mid"), job("/missing", "/out"), job("/in", "/after"));
    let err = eng.run_wave(&[&ok, &bad, &after], false).unwrap_err();
    assert!(matches!(err, Error::FileNotFound(_)), "{err}");
    // First job's output committed; nothing after the failure ran.
    assert!(eng.dfs().exists("/mid"));
    assert!(!eng.dfs().exists("/out"));
    assert!(!eng.dfs().exists("/after"));
}

#[test]
fn a_failed_task_stops_the_job() {
    use restore_mapreduce::split_reader::{read_split, InputFile};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Fails on the last record of the first split, and — so that with
    /// several workers several tasks fail — on every fiftieth after it.
    struct FailsAt {
        first: i64,
        calls: Arc<AtomicUsize>,
    }
    impl Mapper for FailsAt {
        fn map(&mut self, _t: usize, r: Tuple, _c: &mut MapContext) -> Result<()> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            match r.get(0).as_i64() {
                Some(id) if id >= self.first && (id - self.first) % 50 == 0 => {
                    Err(Error::Eval(format!("record {id} is bad")))
                }
                _ => Ok(()),
            }
        }
    }

    let dfs =
        Dfs::new(DfsConfig { nodes: 2, block_size: 256, replication: 1, node_capacity: None });
    let rows: Vec<Tuple> = (0..3000).map(|i| tuple![i, "some payload"]).collect();
    dfs.write_all("/in", &codec::encode_all(&rows)).unwrap();
    let splits = dfs.splits("/in").unwrap();
    assert!(splits.len() > 100, "{} splits", splits.len());
    let mut first_split = Vec::new();
    let file = InputFile::open(&dfs, "/in").unwrap();
    read_split(&dfs, &splits[0], &file, None, |t| {
        first_split.push(t);
        Ok(())
    })
    .unwrap();
    let first = first_split.last().unwrap().get(0).as_i64().unwrap();

    for threads in [1, 2, 8] {
        let calls = Arc::new(AtomicUsize::new(0));
        let factory_calls = Arc::clone(&calls);
        let spec = JobSpec::new(
            "stops",
            vec![JobInput::new("/in")],
            "/out/never",
            Arc::new(move || {
                Box::new(FailsAt { first, calls: Arc::clone(&factory_calls) }) as Box<dyn Mapper>
            }),
            None,
        );
        let engine = engine_over(
            dfs.clone(),
            Some(EngineConfig { worker_threads: threads, default_reduce_tasks: 2 }),
        );
        // Whichever tasks failed, the error is that of the lowest split.
        let err = engine.run(&spec).unwrap_err();
        assert_eq!(err.to_string(), Error::Eval(format!("record {first} is bad")).to_string());
        assert!(!dfs.exists("/out/never"));
        if threads == 1 {
            // The one worker took split 0 first and nothing after it.
            assert_eq!(calls.load(Ordering::Relaxed), first_split.len());
        }
    }
}
