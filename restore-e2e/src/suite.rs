//! `all` and `check`: every workload, each in a child process of its
//! own so that peak RSS is per workload, and two sets compared against
//! the bounds.

use crate::report::{self, MetricDef};
use crate::workload::Workload;
use crate::{write_out, Options};
use std::process::{Command, Stdio};

/// One `workload metric value unit [q1 q3]` line of a child's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub metric: String,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

pub fn parse_line(workload: &str, line: &str) -> Option<Line> {
    let mut fields = line.split_whitespace();
    if fields.next()? != workload {
        return None;
    }
    let metric = fields.next()?.to_string();
    let value: f64 = fields.next()?.parse().ok()?;
    let _unit = fields.next()?;
    let q1 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(value);
    let q3 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(value);
    Some(Line { metric, value, q1, q3 })
}

struct ChildRun {
    lines: Vec<Line>,
    /// The child's last line: the JSON object.
    json: String,
    ok: bool,
}

/// Run one workload in a child process, echo what it prints, and wait
/// for it to end.
fn run_child(opts: &Options, workload: Workload) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--rounds", &opts.rounds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a child run of this executable");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    ChildRun {
        lines: stdout.lines().filter_map(|l| parse_line(workload.name(), l)).collect(),
        json: stdout.lines().last().unwrap_or("null").to_string(),
        ok: output.status.success(),
    }
}

fn run_set(opts: &Options) -> Vec<(Workload, ChildRun)> {
    let workloads = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    workloads.into_iter().map(|w| (w, run_child(opts, w))).collect()
}

/// Every workload once. True when every child verified all its outputs.
pub fn all(opts: &Options) -> bool {
    let set = run_set(opts);
    let members: Vec<String> =
        set.iter().map(|(w, run)| format!("\"{}\": {}", w.name(), run.json)).collect();
    let mode = if opts.trace { "layers" } else { "e2e" };
    write_out(&format!("{mode}-all.json"), &format!("{{{}}}", members.join(", ")));
    set.iter().all(|(_, run)| run.ok)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The rounds of one run disagree by more than the bound, so two
    /// runs agreeing says nothing.
    Unresolved,
    Exceeded,
}

/// Compare one metric of two sets of the same code. The first value
/// returned is by how much the second set is worse, as a share of the
/// first (negative when it is better); two sets of one program must
/// agree, so a difference beyond the bound in either direction fails.
pub fn verdict(def: &MetricDef, a: &Line, b: &Line) -> (f64, Verdict) {
    let change = if a.value == 0.0 { b.value } else { (b.value - a.value) / a.value.abs() };
    let worse = if def.higher_is_better { -change } else { change };
    let spread = |l: &Line| if l.value == 0.0 { 0.0 } else { (l.q3 - l.q1).abs() / l.value.abs() };
    let verdict = if worse.abs() > def.bound {
        Verdict::Exceeded
    } else if spread(a).max(spread(b)) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Two full sets back to back, compared per workload and end-to-end
/// metric. True when no run failed and no difference exceeds its bound;
/// unresolved metrics are flagged, not passed.
pub fn check(opts: &Options) -> bool {
    let opts = Options { trace: false, ..opts.clone() };
    let first = run_set(&opts);
    let second = run_set(&opts);
    let mut ok = first.iter().chain(&second).all(|(_, run)| run.ok);
    let (mut unresolved, mut exceeded) = (0, 0);
    println!("# check: workload metric first second worse-by bound verdict");
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for def in report::END_TO_END {
            let find = |run: &ChildRun| run.lines.iter().find(|l| l.metric == def.name).cloned();
            let (Some(a), Some(b)) = (find(a), find(b)) else {
                println!("{} {} missing", workload.name(), def.name);
                ok = false;
                continue;
            };
            let (worse, verdict) = verdict(def, &a, &b);
            match verdict {
                Verdict::Ok => {}
                Verdict::Unresolved => unresolved += 1,
                Verdict::Exceeded => exceeded += 1,
            }
            println!(
                "{} {} {} {} {:+.4} {} {:?}",
                workload.name(),
                def.name,
                a.value,
                b.value,
                worse,
                def.bound,
                verdict
            );
        }
    }
    println!("# check: {exceeded} exceeded, {unresolved} unresolved");
    ok && exceeded == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_and_other_lines_do_not() {
        let l = parse_line("serve_warm", "serve_warm throughput_qps 8000.5 1/s 7900 8100").unwrap();
        assert_eq!(
            l,
            Line { metric: "throughput_qps".into(), value: 8000.5, q1: 7900.0, q3: 8100.0 }
        );
        let l = parse_line("serve_warm", "serve_warm peak_rss_mb 120 MB").unwrap();
        assert_eq!((l.q1, l.q3), (120.0, 120.0));
        assert_eq!(parse_line("serve_warm", "# restore-e2e commit=abc"), None);
        assert_eq!(parse_line("serve_warm", "pigmix_plain peak_rss_mb 120 MB"), None);
        assert_eq!(parse_line("serve_warm", "{\"correct\": true}"), None);
    }

    #[test]
    fn verdicts_separate_agreement_noise_and_regression() {
        let def = &MetricDef { name: "rate", unit: "1/s", higher_is_better: true, bound: 0.1 };
        let line = |value: f64, q1: f64, q3: f64| Line { metric: def.name.into(), value, q1, q3 };
        let steady = line(100.0, 99.0, 101.0);
        assert_eq!(verdict(def, &steady, &line(105.0, 104.0, 106.0)).1, Verdict::Ok);
        assert_eq!(verdict(def, &steady, &line(105.0, 95.0, 115.0)).1, Verdict::Unresolved);
        let (worse, v) = verdict(def, &steady, &line(80.0, 79.0, 81.0));
        assert_eq!(v, Verdict::Exceeded);
        assert!((worse - 0.2).abs() < 1e-12, "a lower throughput is worse");
        let (worse, v) = verdict(def, &steady, &line(125.0, 124.0, 126.0));
        assert_eq!(v, Verdict::Exceeded, "two sets of one program must agree");
        assert!((worse + 0.25).abs() < 1e-12);
    }
}
