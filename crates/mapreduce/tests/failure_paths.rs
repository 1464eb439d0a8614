//! Failure injection: corrupt records, vanishing inputs, capacity
//! exhaustion, and mapper/reducer errors must surface as errors — never
//! panics, hangs, or silent truncation.

use restore_common::{codec, tuple, Error, Result, Tuple};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{
    ClusterConfig, Engine, EngineConfig, JobInput, JobSpec, MapContext, Mapper, ReduceContext,
    Reducer,
};
use std::sync::Arc;

fn engine(dfs: Dfs) -> Engine {
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 3, default_reduce_tasks: 2 },
    )
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
    use restore_mapreduce::Workflow;
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/in", &codec::encode_all(&[tuple!["k", 1]])).unwrap();
    let eng = engine(dfs);
    let mut wf = Workflow::new();
    let ok = wf.add_job(job("/in", "/mid"));
    // Second job reads a file the first never produces (wrong path).
    let bad = wf.add_job(job("/missing", "/out"));
    wf.add_dependency(bad, ok);
    let err = eng.run_workflow(&wf).unwrap_err();
    assert!(matches!(err, Error::FileNotFound(_)), "{err}");
    // First job's output committed; second never ran.
    assert!(eng.dfs().exists("/mid"));
    assert!(!eng.dfs().exists("/out"));
}
