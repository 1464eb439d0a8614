//! Equation (2) against the engine: every PigMix job's modeled
//! [`JobTimes`] terms beside the phases the engine measured for it
//! ([`restore_mapreduce::JobResult::phases`]), and how well the two rank the jobs alike.
//!
//! The model prices a job on the paper's cluster; the engine runs it in
//! this process. Their units never meet, so the check is of order: for
//! each term, Spearman's rank correlation over all jobs, and each job
//! whose two ranks are more than a quarter of the jobs apart, by name.
//! Each job runs [`PASSES`] times; a measured phase is its median.
//!
//! A measured reduce-side phase is summed over the job's reduce tasks,
//! not wall time, and the measured total is the map and commit walls plus
//! those sums. `map_cpu_s` and `map_write_s` have no counterpart: the
//! engine times a map task's operators and output encoding only inside
//! `map_wall` ([`UNPAIRED`]).

use crate::env::PigMixEnv;
use restore_core::{ReStore, ReStoreConfig};
use restore_mapreduce::{JobTimes, PhaseTimes};
use restore_pigmix::{queries, DataScale};

/// How many times each query runs per mode. Fixed, so that two reports
/// (a parent's and a change's, say) always take their medians alike.
pub const PASSES: usize = 50;

/// One term: its name in the model, the measured phase it is set beside,
/// and how each is read.
pub struct Term {
    pub model: &'static str,
    pub measured: &'static str,
    model_s: fn(&JobTimes) -> f64,
    measured_s: fn(&PhaseTimes) -> f64,
}

pub const TERMS: [Term; 7] = [
    Term {
        model: "load_s",
        measured: "map_decode",
        model_s: |t| t.load_s,
        measured_s: |p| p.map_decode.as_secs_f64(),
    },
    Term {
        model: "map_phase_s",
        measured: "map_wall",
        model_s: |t| t.map_phase_s,
        measured_s: |p| p.map_wall.as_secs_f64(),
    },
    Term {
        model: "sort_s",
        measured: "shuffle_decode+sort",
        model_s: |t| t.sort_s,
        measured_s: |p| (p.shuffle_decode + p.sort).as_secs_f64(),
    },
    Term {
        model: "reduce_cpu_s",
        measured: "reduce",
        model_s: |t| t.reduce_cpu_s,
        measured_s: |p| p.reduce.as_secs_f64(),
    },
    Term {
        model: "reduce_phase_s",
        measured: "shuffle_decode+sort+reduce",
        model_s: |t| t.reduce_phase_s,
        measured_s: |p| (p.shuffle_decode + p.sort + p.reduce).as_secs_f64(),
    },
    Term {
        model: "store_s",
        measured: "commit_wall",
        model_s: |t| t.store_s,
        measured_s: |p| p.commit_wall.as_secs_f64(),
    },
    Term {
        model: "total_s",
        measured: "map_wall+shuffle_decode+sort+reduce+commit_wall",
        model_s: |t| t.total_s,
        measured_s: |p| {
            (p.map_wall + p.shuffle_decode + p.sort + p.reduce + p.commit_wall).as_secs_f64()
        },
    },
];

/// The model's terms no measured phase stands beside.
pub const UNPAIRED: [&str; 2] = ["map_cpu_s", "map_write_s"];

/// One executed job: per term of [`TERMS`], the modeled seconds and the
/// median measured seconds.
#[derive(Debug, Clone)]
pub struct JobRow {
    /// `L3/plain/0`: the query, how it ran, and the job's place among the
    /// query's executed jobs.
    pub name: String,
    pub model_s: Vec<f64>,
    pub measured_s: Vec<f64>,
}

/// One executed job of a query: its modeled times, and each pass's
/// measured phases.
type JobRuns = (JobTimes, Vec<PhaseTimes>);

/// How one term ranks the jobs, model against measurement.
#[derive(Debug, Clone)]
pub struct Agreement {
    /// Spearman's rho; NaN when either side ranks every job alike.
    pub rho: f64,
    /// `(job, model rank, measured rank)` of each job whose ranks are more
    /// than a quarter of the jobs apart (rank 1 is the cheapest).
    pub disagreements: Vec<(String, f64, f64)>,
}

/// Run the PigMix workload over `env`, each query [`PASSES`] times: plain
/// (no reuse), and as a rerun on a repository one untimed pass
/// populated, with final outputs unregistered so the final job runs on
/// stored inputs, as `restore-e2e`'s `pigmix_reuse` does. One row per
/// executed job.
pub fn measure(env: &PigMixEnv) -> Vec<JobRow> {
    let plain = ReStore::new(env.engine.clone(), ReStoreConfig::baseline());
    let reuse = ReStore::new(
        env.engine.clone(),
        ReStoreConfig { register_final_outputs: false, ..Default::default() },
    );
    // Every query gets its own workflow prefix, here and in the timed
    // passes: with one prefix per pass, L11's `tmp-0` overwrote L3's
    // registered temporary, the staleness pass forgot L3's join, and the
    // next rerun stored it again. So one pass settles the repository.
    for (label, query) in queries::standard_workload("/out/model/warm0") {
        let wf = format!("/wf/model/warm0/{label}");
        reuse.execute_query(&query, &wf).expect("populating query failed");
    }
    let mut rows = Vec::new();
    for (mode, rs) in [("plain", &plain), ("rerun", &reuse)] {
        let mut jobs: Vec<(String, Vec<JobRuns>)> = Vec::new();
        for pass in 0..PASSES {
            let out = format!("/out/model/{mode}{pass}");
            for (q, (label, query)) in queries::standard_workload(&out).into_iter().enumerate() {
                let wf = format!("/wf/model/{mode}{pass}/{label}");
                let exec = rs.execute_query(&query, &wf).expect("query failed");
                if mode == "rerun" {
                    assert_eq!(exec.candidates_stored, 0, "{label}: a rerun stored a candidate");
                }
                if pass == 0 {
                    jobs.push((
                        label,
                        exec.job_results.iter().map(|r| (r.times, vec![])).collect(),
                    ));
                }
                let (label, of_query) = &mut jobs[q];
                assert_eq!(of_query.len(), exec.job_results.len(), "{label}: jobs run per pass");
                for ((_, phases), result) in of_query.iter_mut().zip(&exec.job_results) {
                    phases.push(result.phases);
                }
            }
        }
        for (label, of_query) in jobs {
            for (i, (times, phases)) in of_query.into_iter().enumerate() {
                rows.push(JobRow {
                    name: format!("{label}/{mode}/{i}"),
                    model_s: TERMS.iter().map(|t| (t.model_s)(&times)).collect(),
                    measured_s: TERMS
                        .iter()
                        .map(|t| median(phases.iter().map(|p| (t.measured_s)(p)).collect()))
                        .collect(),
                });
            }
        }
    }
    rows
}

/// The rank agreement of term `t` of [`TERMS`] over `rows`.
pub fn agreement(rows: &[JobRow], t: usize) -> Agreement {
    let model = ranks(&rows.iter().map(|r| r.model_s[t]).collect::<Vec<_>>());
    let measured = ranks(&rows.iter().map(|r| r.measured_s[t]).collect::<Vec<_>>());
    let apart = rows.len() as f64 / 4.0;
    let disagreements = rows
        .iter()
        .zip(model.iter().zip(&measured))
        .filter(|(_, (m, e))| (*m - *e).abs() > apart)
        .map(|(row, (&m, &e))| (row.name.clone(), m, e))
        .collect();
    Agreement { rho: pearson(&model, &measured), disagreements }
}

/// The report as a JSON document: the host, the date and commit, each
/// term's agreement, every job's terms, and each query's summed per mode
/// (a rerun's one or two jobs are what reuse still costs).
pub fn to_json(scale: &DataScale, rows: &[JobRow], agreed: &[Agreement]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let terms = |values: &[f64], unit: f64| {
        let pairs = TERMS.iter().zip(values).map(|(t, v)| {
            let name = if unit == 1.0 { t.model } else { t.measured };
            format!("\"{name}\": {}", number(v * unit))
        });
        format!("{{{}}}", pairs.collect::<Vec<_>>().join(", "))
    };
    let agreements = TERMS.iter().zip(agreed).map(|(t, a)| {
        let apart = a.disagreements.iter().map(|(job, m, e)| {
            format!("{{\"job\": \"{job}\", \"model_rank\": {m}, \"measured_rank\": {e}}}")
        });
        format!(
            "    {{\"model\": \"{}\", \"measured\": \"{}\", \"rho\": {}, \"disagreements\": [{}]}}",
            t.model,
            t.measured,
            number(a.rho),
            apart.collect::<Vec<_>>().join(", ")
        )
    });
    let jobs = rows.iter().map(|r| {
        format!(
            "    {{\"job\": \"{}\", \"model_s\": {}, \"measured_ms\": {}}}",
            r.name,
            terms(&r.model_s, 1.0),
            terms(&r.measured_s, 1e3)
        )
    });
    let mut queries: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for r in rows {
        let key = r.name.rsplit_once('/').map_or(&r.name[..], |(query, _)| query);
        if queries.last().is_none_or(|q| q.0 != key) {
            queries.push((key.to_string(), vec![0.0; TERMS.len()], vec![0.0; TERMS.len()]));
        }
        let q = queries.last_mut().expect("pushed");
        q.1.iter_mut().zip(&r.model_s).for_each(|(sum, v)| *sum += v);
        q.2.iter_mut().zip(&r.measured_s).for_each(|(sum, v)| *sum += v);
    }
    let queries = queries.iter().map(|(key, model, measured)| {
        format!(
            "    {{\"query\": \"{key}\", \"model_s\": {}, \"measured_ms\": {}}}",
            terms(model, 1.0),
            terms(measured, 1e3)
        )
    });
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    let fields = [
        ("suite", "\"model_check\"".to_string()),
        ("date", format!("\"{}\"", command_line("date", &["-u", "+%F"]))),
        ("commit", format!("\"{}\"", command_line("git", &["describe", "--always", "--dirty"]))),
        ("host_cores", cores.to_string()),
        ("scale", format!("\"{}\"", scale.name)),
        ("passes", PASSES.to_string()),
        ("unpaired", format!("[{}]", UNPAIRED.map(|t| format!("\"{t}\"")).join(", "))),
        ("agreement", list(agreements.collect())),
        ("queries", list(queries.collect())),
        ("jobs", list(jobs.collect())),
    ];
    let fields = fields.map(|(key, value)| format!("  \"{key}\": {value}"));
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// A finite number as JSON, `null` otherwise.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{}", (x * 1e6).round() / 1e6)
    } else {
        "null".to_string()
    }
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// 1-based ranks, ties sharing the mean of the ranks they span.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut start = 0;
    while start < order.len() {
        let mut end = start + 1;
        while end < order.len() && xs[order[end]] == xs[order[start]] {
            end += 1;
        }
        let rank = (start + end + 1) as f64 / 2.0;
        for &i in &order[start..end] {
            out[i] = rank;
        }
        start = end;
    }
    out
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    cov / (va * vb).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_share_their_mean_rank() {
        assert_eq!(ranks(&[3.0, 1.0, 3.0, 0.5]), vec![3.5, 2.0, 3.5, 1.0]);
    }

    #[test]
    fn rank_agreement_is_spearmans_rho() {
        let row = |name: &str, model: f64, measured: f64| JobRow {
            name: name.into(),
            model_s: vec![model],
            measured_s: vec![measured],
        };
        let same = [row("a", 1.0, 10.0), row("b", 2.0, 30.0), row("c", 3.0, 31.0)];
        let a = agreement(&same, 0);
        assert!((a.rho - 1.0).abs() < 1e-12 && a.disagreements.is_empty());
        let reversed = [row("a", 1.0, 3.0), row("b", 2.0, 2.0), row("c", 3.0, 1.0)];
        let a = agreement(&reversed, 0);
        assert!((a.rho + 1.0).abs() < 1e-12);
        let names: Vec<&str> = a.disagreements.iter().map(|d| d.0.as_str()).collect();
        assert_eq!(names, ["a", "c"]);
    }
}
