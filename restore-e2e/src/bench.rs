//! Set-up, the timed passes and the end-to-end metrics of one workload.
//!
//! Every loop is closed: a client submits its next query when the
//! previous one has come back. A pass is one submission of every query
//! of the workload's mix; its outputs are verified against the oracle
//! and deleted after its clock has stopped, so DFS memory stays flat.

use crate::env::{peak_rss_mb, Env};
use crate::oracle::{Oracle, Verifier};
use crate::stats;
use crate::workload::{submission_order, Workload, WARM_OUT, WARM_WF};
use restore_core::QueryExecution;
use restore_pigmix::DataScale;
use restore_service::{RestoreService, ServiceError};
use std::time::{Duration, Instant};

/// One workload, set up and ready to be timed.
pub struct Bench {
    pub env: Env,
    pub workload: Workload,
    pub seed: u64,
    pub oracle: Oracle,
    /// The long-lived session; `None` where every pass gets a fresh one.
    service: Option<RestoreService>,
    /// Mean modeled time (Eq. 1) of the populating pass's submissions.
    pub populate_modeled_s: f64,
    /// Repository entries once the session is populated and warmed up;
    /// a timed pass of a warm workload must leave the count alone.
    /// `None` during set-up and where every pass has its own session.
    warm_entries: Option<usize>,
    /// Failures met during set-up (populating and warm-up passes).
    pub setup_failed: u64,
}

/// What one pass of one client measured.
#[derive(Default)]
pub struct PassOutcome {
    /// Wall time of each submission, `submit` call to `wait` return, ms.
    pub wall_ms: Vec<f64>,
    /// First submission to last return, seconds.
    pub timed_s: f64,
    pub failed: u64,
    /// Sum of the submissions' modeled times (Eq. 1), seconds.
    pub modeled_s: f64,
    /// Repository bytes after the pass (`ReStoreStats::stored_bytes`).
    pub stored_bytes: u64,
}

/// One round: every client running passes for the round's window.
pub struct RoundOutcome {
    pub wall_ms: Vec<f64>,
    pub qps: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Mean modeled time (Eq. 1) of each pass's verified submissions.
    pub modeled_s: Vec<f64>,
    /// One value per pass.
    pub stored_bytes: Vec<u64>,
}

impl Bench {
    /// Data generation, the oracle's reference pass, the session, the
    /// pass that populates its repository, and one untimed warm-up pass.
    pub fn set_up(workload: Workload, scale: DataScale, seed: u64) -> Bench {
        let env = Env::build(scale, seed);
        let oracle = Oracle::build(&env, workload);
        let service = (!workload.session_per_pass()).then(|| env.session(workload.config()));
        let mut bench = Bench {
            env,
            workload,
            seed,
            oracle,
            service,
            populate_modeled_s: 0.0,
            warm_entries: None,
            setup_failed: 0,
        };
        bench.populate();
        // The warm-up pass may still register what the populating pass
        // could not (an entry whose inputs were not stored yet), so the
        // entry count is pinned only after it.
        let warm_up = bench.pass(0, 0, &mut Verifier::default());
        bench.setup_failed += warm_up.failed;
        bench.warm_entries =
            bench.service.as_ref().map(|s| s.driver().stats_as(None).repository_entries);
        bench
    }

    fn populate(&mut self) {
        let Some(service) = &self.service else { return };
        let queries = self.workload.populate(WARM_OUT);
        let mut modeled = Vec::new();
        for (label, text) in &queries {
            match submit_and_wait(service, text, &format!("{WARM_WF}/{label}")) {
                Ok(exec) => modeled.push(exec.total_s),
                Err(_) => self.setup_failed += 1,
            }
        }
        self.populate_modeled_s = stats::mean(&modeled);
    }

    /// One untraced pass: each query goes through `submit` and `wait`.
    pub fn pass(&self, client: usize, pass_no: u64, verifier: &mut Verifier) -> PassOutcome {
        self.pass_with(client, pass_no, verifier, &mut Untraced)
    }

    /// One pass of `client`: submit every query of the mix, then — with
    /// the clock stopped — verify each result and delete what was
    /// written. Pass numbers start at 1; 0 is the warm-up pass.
    pub fn pass_with(
        &self,
        client: usize,
        pass_no: u64,
        verifier: &mut Verifier,
        via: &mut dyn Submitter,
    ) -> PassOutcome {
        let out_prefix = format!("/out/c{client}/p{pass_no}");
        let wf_prefix = format!("/wf/c{client}/p{pass_no}");
        let mix = self.workload.mix(&out_prefix);
        let order = match self.workload {
            Workload::ServeWarm => submission_order(self.seed, client, mix.len()),
            _ => (0..mix.len()).collect(),
        };
        let wf_prefixes: Vec<String> =
            mix.iter().map(|(label, _)| format!("{wf_prefix}/{label}")).collect();
        let fresh =
            self.workload.session_per_pass().then(|| self.env.session(self.workload.config()));
        let service = fresh.as_ref().or(self.service.as_ref()).expect("a session to submit to");

        let mut out = PassOutcome::default();
        let mut results = Vec::with_capacity(order.len());
        via.begin(service);
        let started = Instant::now();
        for &q in &order {
            let t0 = Instant::now();
            let result = via.submit(service, q, &mix[q].1, &wf_prefixes[q]);
            out.wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            results.push(result);
        }
        out.timed_s = started.elapsed().as_secs_f64();
        via.end(service);

        let dfs = self.env.dfs();
        for (&q, result) in order.iter().zip(&results) {
            let served_warm = |exec: &QueryExecution| {
                self.workload != Workload::ServeWarm || exec.job_results.is_empty()
            };
            match result {
                Ok(exec)
                    if served_warm(exec)
                        && verifier.matches(dfs, &exec.final_output, self.oracle.expected[q]) =>
                {
                    out.modeled_s += exec.total_s;
                }
                _ => out.failed += 1,
            }
        }
        let stats = service.driver().stats_as(None);
        out.stored_bytes = stats.stored_bytes;
        if let Some(warm_entries) = self.warm_entries {
            out.failed += u64::from(stats.repository_entries != warm_entries);
        }
        if let Some(fresh) = fresh {
            let repo_prefix = fresh.driver().config().repo_prefix;
            fresh.shutdown();
            dfs.delete_prefix(&repo_prefix);
        }
        dfs.delete_prefix(&out_prefix);
        dfs.delete_prefix(&wf_prefix);
        verifier.forget_prefix(&out_prefix);
        out
    }

    /// One round: each client runs whole passes until `window` has
    /// passed. `next_pass[client]` numbers its passes across rounds.
    pub fn round(&self, window: Duration, next_pass: &mut [u64]) -> RoundOutcome {
        let per_client: Vec<Vec<PassOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = next_pass
                .iter_mut()
                .enumerate()
                .map(|(client, next)| {
                    scope.spawn(move || {
                        let mut verifier = Verifier::default();
                        let mut passes = Vec::new();
                        let started = Instant::now();
                        loop {
                            passes.push(self.pass(client, *next, &mut verifier));
                            *next += 1;
                            if started.elapsed() >= window {
                                return passes;
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });

        let mut round = RoundOutcome {
            wall_ms: Vec::new(),
            qps: 0.0,
            attempted: 0,
            failed: 0,
            modeled_s: Vec::new(),
            stored_bytes: Vec::new(),
        };
        for passes in per_client {
            let attempted: u64 = passes.iter().map(|p| p.wall_ms.len() as u64).sum();
            let failed: u64 = passes.iter().map(|p| p.failed).sum();
            let timed_s: f64 = passes.iter().map(|p| p.timed_s).sum();
            // Closed-loop clients: the system's rate is the sum of theirs.
            round.qps += attempted.saturating_sub(failed) as f64 / timed_s;
            round.attempted += attempted;
            round.failed += failed;
            for pass in passes {
                let verified = (pass.wall_ms.len() as u64).saturating_sub(pass.failed);
                round.modeled_s.push(pass.modeled_s / verified.max(1) as f64);
                round.wall_ms.extend(pass.wall_ms);
                round.stored_bytes.push(pass.stored_bytes);
            }
        }
        round
    }
}

/// How a pass hands a query to its session. The end-to-end run uses
/// [`Untraced`]; the traced run takes the same pass apart into the calls
/// `submit` is made of and records a span around each.
pub trait Submitter {
    /// Called with the pass's session just before its clock starts.
    fn begin(&mut self, _service: &RestoreService) {}
    /// Submit query `q` of the mix and wait for its result.
    fn submit(
        &mut self,
        service: &RestoreService,
        q: usize,
        text: &str,
        wf_prefix: &str,
    ) -> Result<QueryExecution, ServiceError>;
    /// Called just after the pass's clock stops, before verification
    /// reads and clean-up deletes touch the DFS.
    fn end(&mut self, _service: &RestoreService) {}
}

pub struct Untraced;

impl Submitter for Untraced {
    fn submit(
        &mut self,
        service: &RestoreService,
        _q: usize,
        text: &str,
        wf_prefix: &str,
    ) -> Result<QueryExecution, ServiceError> {
        submit_and_wait(service, text, wf_prefix)
    }
}

fn submit_and_wait(
    service: &RestoreService,
    text: &str,
    wf_prefix: &str,
) -> Result<QueryExecution, ServiceError> {
    service.submit(None, text, wf_prefix)?.wait()
}

/// A value with the quartiles of the samples it is the median of.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    pub fn exact(value: f64) -> Measured {
        Measured { value, q1: value, q3: value }
    }

    pub fn median_of(samples: &[f64]) -> Measured {
        let (q1, q3) = stats::quartiles(samples);
        Measured { value: stats::median(samples), q1, q3 }
    }
}

/// The end-to-end result of one untraced run.
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)` in `report::END_TO_END` order.
    pub metrics: Vec<(&'static str, Measured)>,
}

/// Set the workload up, run `rounds` rounds that together measure for
/// `seconds`, and reduce them to the end-to-end metrics; then set it up
/// again until there are `setups` set-up times to take the median of.
/// The repeats come last and peak RSS is read before them, so that it is
/// the memory one workload needs, not what repeating its set-up leaves
/// fragmented. Tracing is off throughout.
pub fn run(
    workload: Workload,
    scale: &DataScale,
    seed: u64,
    seconds: f64,
    rounds: usize,
    setups: usize,
) -> EndToEnd {
    let timed_set_up = || {
        let t0 = Instant::now();
        let bench = Bench::set_up(workload, scale.clone(), seed);
        (bench, t0.elapsed().as_secs_f64())
    };
    let (bench, first) = timed_set_up();
    let outcome = measure(&bench, seconds, rounds);
    drop(bench);
    let setup_s: Vec<f64> =
        std::iter::once(first).chain((1..setups).map(|_| timed_set_up().1)).collect();
    EndToEnd {
        metrics: std::iter::once(("setup_s", Measured::median_of(&setup_s)))
            .chain(outcome.metrics)
            .collect(),
        ..outcome
    }
}

/// The timed part of [`run`], on a workload that is already set up.
pub fn measure(bench: &Bench, seconds: f64, rounds: usize) -> EndToEnd {
    let rounds = rounds.max(1);
    let window = Duration::from_secs_f64(seconds / rounds as f64);
    let mut next_pass = vec![1u64; bench.workload.clients()];
    let outcomes: Vec<RoundOutcome> =
        (0..rounds).map(|_| bench.round(window, &mut next_pass)).collect();

    let attempted: u64 = outcomes.iter().map(|r| r.attempted).sum();
    let failed: u64 = outcomes.iter().map(|r| r.failed).sum();
    let qps: Vec<f64> = outcomes.iter().map(|r| r.qps).collect();
    let per_round = |p: f64| -> Vec<f64> {
        outcomes.iter().map(|r| stats::percentile(&stats::sorted(r.wall_ms.clone()), p)).collect()
    };

    // Every pass models the same, so the median over passes repeats
    // exactly however many passes a run completed. On serve_warm every
    // timed submission is answered without a job and so models as zero
    // seconds; what the repository cost to fill is the modeled time a
    // user of that workload pays.
    let modeled_s = match bench.workload {
        Workload::ServeWarm => bench.populate_modeled_s,
        _ => stats::median(&outcomes.iter().flat_map(|r| r.modeled_s.clone()).collect::<Vec<_>>()),
    };
    // One value per pass: the same after every pass of a long-lived
    // session, one per fresh session on pigmix_cold.
    let stored: Vec<f64> =
        outcomes.iter().flat_map(|r| r.stored_bytes.iter().map(|&b| b as f64)).collect();
    let input_bytes = bench.env.data.total_bytes() as f64;

    EndToEnd {
        attempted,
        failed: failed + bench.setup_failed,
        metrics: vec![
            ("throughput_qps", Measured::median_of(&qps)),
            ("query_wall_ms_p50", Measured::median_of(&per_round(0.5))),
            ("query_wall_ms_p95", Measured::median_of(&per_round(0.95))),
            ("modeled_s_per_query", Measured::exact(modeled_s)),
            (
                "footprint_per_input_byte",
                Measured::exact((input_bytes + stats::mean(&stored)) / input_bytes),
            ),
            ("peak_rss_mb", Measured::exact(peak_rss_mb())),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_verifies_all_its_outputs_at_tiny_scale() {
        for workload in Workload::ALL {
            let e2e = run(workload, &DataScale::tiny(), 11, 0.05, 2, 1);
            assert!(e2e.attempted >= 16, "{}: two rounds of at least one pass", workload.name());
            assert_eq!(e2e.failed, 0, "{}", workload.name());
            let names: Vec<&str> = e2e.metrics.iter().map(|(name, _)| *name).collect();
            let expected: Vec<&str> = crate::report::END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, expected);
            assert!(e2e.metrics.iter().all(|(_, m)| m.value.is_finite() && m.value > 0.0));
        }
    }

    /// The oracle is what makes a fast wrong answer worthless: one
    /// flipped bit in one reference hash must fail the run.
    #[test]
    fn a_corrupted_reference_hash_fails_the_run() {
        let mut bench = Bench::set_up(Workload::Reuse, DataScale::tiny(), 11);
        assert_eq!(measure(&bench, 0.02, 1).failed, 0);
        bench.oracle.expected[2].hash ^= 1;
        let broken = measure(&bench, 0.02, 1);
        assert!(broken.failed > 0 && broken.failed < broken.attempted);
        let report = crate::report::Report {
            workload: bench.workload.name(),
            attempted: broken.attempted,
            failed: broken.failed,
            metrics: Vec::new(),
        };
        assert!(!report.correct(), "main exits non-zero unless the report is correct");
    }

    #[test]
    fn serve_warm_counts_an_executed_job_as_a_failure() {
        // A session that was never populated has to run every query.
        let env = Env::build(DataScale::tiny(), 11);
        let oracle = Oracle::build(&env, Workload::ServeWarm);
        let service = Some(env.session(Workload::ServeWarm.config()));
        let bench = Bench {
            env,
            workload: Workload::ServeWarm,
            seed: 11,
            oracle,
            service,
            populate_modeled_s: 0.0,
            warm_entries: None,
            setup_failed: 0,
        };
        let cold = bench.pass(0, 1, &mut Verifier::default());
        assert!(cold.failed > 0, "executed jobs are unexpected on serve_warm");
    }
}
