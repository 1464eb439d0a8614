//! Property-based tests of the cluster cost model and Equation (1)
//! workflow totals: monotonicity, scaling, and wave arithmetic.

use proptest::prelude::*;
use restore_mapreduce::workflow::equation_one;
use restore_mapreduce::{ClusterConfig, CostModel, Counters, JobInput, JobSpec};
use std::sync::Arc;

fn spec() -> JobSpec {
    use restore_mapreduce::{MapContext, Mapper};
    struct Nop;
    impl Mapper for Nop {
        fn map(
            &mut self,
            _tag: usize,
            _r: restore_common::Tuple,
            _ctx: &mut MapContext,
        ) -> restore_common::Result<()> {
            Ok(())
        }
    }
    JobSpec::new(
        "p",
        vec![JobInput::new("/in")],
        "/out",
        Arc::new(|| Box::new(Nop) as Box<dyn Mapper>),
        None,
    )
}

fn counters() -> impl Strategy<Value = Counters> {
    (
        1u64..5000,      // map tasks
        0u64..1 << 30,   // map input bytes
        0u64..1 << 28,   // map output bytes
        0u64..64,        // reduce tasks
        0u64..1 << 26,   // output bytes
        0u64..1 << 26,   // map side bytes
        0u64..1_000_000, // records
    )
        .prop_map(|(m, mib, mob, r, ob, msb, rec)| Counters {
            map_tasks: m,
            map_input_bytes: mib,
            map_output_bytes: mob,
            reduce_tasks: r,
            reduce_input_records: if r > 0 { rec } else { 0 },
            map_input_records: rec,
            output_bytes: ob,
            map_side_bytes: if m > 0 { msb } else { 0 },
            ..Default::default()
        })
}

proptest! {
    /// Times are finite, non-negative, and at least the startup cost.
    #[test]
    fn times_are_sane(c in counters()) {
        let model = CostModel::new(ClusterConfig::default());
        let t = model.job_times(&spec(), &c);
        prop_assert!(t.total_s.is_finite());
        prop_assert!(t.total_s >= model.config().job_startup_s);
        prop_assert!(t.map_phase_s >= 0.0);
        prop_assert!(t.reduce_phase_s >= 0.0);
        if c.reduce_tasks == 0 {
            prop_assert_eq!(t.reduce_phase_s, 0.0);
        }
    }

    /// More input bytes never makes a job faster (same task layout).
    #[test]
    fn more_input_never_faster(c in counters(), extra in 1u64..1 << 24) {
        let model = CostModel::new(ClusterConfig::default());
        let t0 = model.job_times(&spec(), &c);
        let mut c2 = c.clone();
        c2.map_input_bytes += extra;
        let t1 = model.job_times(&spec(), &c2);
        prop_assert!(t1.total_s >= t0.total_s - 1e-9);
    }

    /// Injected side-store bytes never make a job faster.
    #[test]
    fn side_stores_cost(c in counters(), extra in 1u64..1 << 24) {
        let model = CostModel::new(ClusterConfig::default());
        let t0 = model.job_times(&spec(), &c);
        let mut c2 = c.clone();
        c2.map_side_bytes += extra;
        let t1 = model.job_times(&spec(), &c2);
        prop_assert!(t1.total_s >= t0.total_s);
    }

    /// Wave count is the exact ceiling of tasks over slots.
    #[test]
    fn waves_are_ceilings(tasks in 1u64..10_000) {
        let cfg = ClusterConfig::default();
        let slots = cfg.map_slots() as u64;
        let model = CostModel::new(cfg);
        let c = Counters { map_tasks: tasks, ..Default::default() };
        let t = model.job_times(&spec(), &c);
        prop_assert_eq!(t.map_waves, tasks.div_ceil(slots));
    }

    /// Doubling byte_scale doubles IO-bound time (startup removed, CPU
    /// and wave overhead zeroed).
    #[test]
    fn byte_scale_is_linear_for_io(c in counters(), scale in 1.0f64..1000.0) {
        let cfg = ClusterConfig {
            job_startup_s: 0.0,
            wave_overhead_s: 0.0,
            cpu_per_record_weight: 0.0,
            sort_cost_per_byte_log: 0.0,
            side_commit_s: 0.0,
            ..Default::default()
        };
        let cfg2 = ClusterConfig { byte_scale: scale, ..cfg.clone() };
        let t1 = CostModel::new(cfg).job_times(&spec(), &c);
        let t2 = CostModel::new(cfg2).job_times(&spec(), &c);
        if t1.total_s > 1e-9 {
            let ratio = t2.total_s / t1.total_s;
            prop_assert!((ratio - scale).abs() / scale < 1e-6, "ratio {ratio} vs {scale}");
        }
    }

    /// Equation (1) totals on random DAGs: the workflow total is at least
    /// the longest job and at most the serial sum, and every job's total
    /// is its own time plus the max of its dependencies' totals.
    #[test]
    fn equation_one_bounds(
        et in prop::collection::vec(0.1f64..100.0, 1..10),
        edges in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..15),
    ) {
        let n = et.len();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Only forward edges (lower index -> higher) keep the DAG acyclic.
        for (a, b) in edges {
            let (x, y) = (a.index(n), b.index(n));
            if x < y && !deps[y].contains(&x) {
                deps[y].push(x);
            }
        }
        let (totals, total, path) = equation_one(&deps, &et).unwrap();
        let max_et = et.iter().cloned().fold(0.0f64, f64::max);
        let sum_et: f64 = et.iter().sum();
        prop_assert!(total >= max_et - 1e-9);
        prop_assert!(total <= sum_et + 1e-9);
        for i in 0..n {
            let dep_max = deps[i].iter().map(|&d| totals[d]).fold(0.0f64, f64::max);
            prop_assert!((totals[i] - (et[i] + dep_max)).abs() < 1e-9);
        }
        // The critical path is a real dependency chain ending at the max.
        prop_assert!((totals[*path.last().unwrap()] - total).abs() < 1e-9);
        for w in path.windows(2) {
            prop_assert!(deps[w[1]].contains(&w[0]));
        }
    }
}
