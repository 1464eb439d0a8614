//! The metric catalogue and the two output forms: one line per metric
//! for people, one JSON object for the driver.

use crate::bench::Measured;
use std::fmt::Write as _;
use std::process::Command;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; 0 for layer metrics,
    /// which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: 0.0 }
}

/// What a user of the system sees. `BENCHMARK.json` repeats this table;
/// a unit test keeps the two in step.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_qps", "1/s", true, 0.25),
    e2e("query_wall_ms_p50", "ms", false, 0.25),
    e2e("query_wall_ms_p95", "ms", false, 0.25),
    e2e("modeled_s_per_query", "s", false, 0.01),
    e2e("footprint_per_input_byte", "B/B", false, 0.05),
    e2e("peak_rss_mb", "MB", false, 0.2),
];

/// One ladder rung per crate, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("service.submit_us", "us", false),
    layer("service.handoff_us", "us", false),
    layer("service.queue_wait_us_mean", "us", false),
    layer("service.rejected", "count", false),
    layer("core.compile_as_us", "us", false),
    layer("core.execute_ms", "ms", false),
    layer("core.materialize_overhead_ms", "ms", false),
    layer("core.reuse_saving_ms", "ms", true),
    layer("core.jobs_skipped_share", "share", true),
    layer("core.rewrites_per_query", "count", true),
    layer("core.match_hit_share", "share", true),
    layer("core.candidates_stored_per_query", "count", false),
    layer("core.candidate_bytes_per_query", "B", false),
    layer("core.repo_entries", "count", false),
    layer("core.never_used_share", "share", false),
    layer("core.publishes_per_query", "count", false),
    layer("core.writer_sections_per_query", "count", false),
    layer("core.journal_records_per_query", "count", false),
    layer("core.modeled_s_timed_per_query", "s", false),
    layer("dataflow.compile_us", "us", false),
    layer("dataflow.compile_canonical_us", "us", false),
    layer("dataflow.analyzer_us", "us", false),
    layer("dataflow.parse_us", "us", false),
    layer("dataflow.plan_us", "us", false),
    layer("dataflow.segment_us", "us", false),
    layer("dataflow.job_spec_us", "us", false),
    layer("dataflow.jobs_per_query", "count", false),
    layer("dataflow.plan_nodes_per_query", "count", false),
    layer("mapreduce.run_ms_per_job", "ms", false),
    layer("mapreduce.identity_scan_mb_s", "MB/s", true),
    layer("mapreduce.records_per_s", "1/s", true),
    layer("mapreduce.map_input_mb_per_query", "MB", false),
    layer("mapreduce.shuffle_mb_per_query", "MB", false),
    layer("mapreduce.tasks_per_query", "count", false),
    layer("dfs.read_mb_s", "MB/s", true),
    layer("dfs.split_read_mb_s", "MB/s", true),
    layer("dfs.write_mb_s", "MB/s", true),
    layer("dfs.bytes_read_per_query", "B", false),
    layer("dfs.bytes_written_per_query", "B", false),
    layer("dfs.logical_bytes_written_per_query", "B", false),
    layer("dfs.files_created_per_query", "count", false),
    layer("dfs.files_deleted_per_query", "count", false),
    layer("dfs.replayed_io_ms_per_query", "ms", false),
    layer("dfs.used_mb_end", "MB", false),
    layer("common.decode_mb_s", "MB/s", true),
    layer("common.encode_mb_s", "MB/s", true),
    layer("share.service", "share", false),
    layer("share.core", "share", false),
    layer("share.dataflow_compile", "share", false),
    layer("share.mapreduce_exec", "share", false),
    layer("share.dfs_replayed", "share", false),
    layer("share.sum", "share", false),
    layer("trace.overhead_share", "share", false),
];

pub fn find(defs: &'static [MetricDef], name: &str) -> &'static MetricDef {
    defs.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// The result of one run of one workload, in either mode.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `(definition, value)` for every metric of the run's mode.
    pub metrics: Vec<(&'static MetricDef, Measured)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Errors, rejections, wrong bytes and unexpected executions as a
    /// share of the operations attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `workload metric value unit [q1 q3]`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (def, m) in &self.metrics {
            let _ = write!(out, "{} {} {} {}", self.workload, def.name, m.value, def.unit);
            if m.q1 != m.value || m.q3 != m.value {
                let _ = write!(out, " {} {}", m.q1, m.q3);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{} failed_share {} share", self.workload, self.failed_share());
        out
    }

    /// The one-line JSON object the driver reads.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, m)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", def.name, m.value, def.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// What a number is worthless without: the code, the day, the host, the
/// compiler and the inputs.
pub fn header(seed: u64, scale: &str, seconds: f64, rounds: usize) -> String {
    format!(
        "# restore-e2e commit={} date={} nproc={} rustc=\"{}\" seed={seed:#x} scale={scale} seconds={seconds} rounds={rounds}\n",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        utc_date(),
        crate::env::nproc(),
        command_line("rustc", &["--version"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the tables above without a JSON parser.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = manifest.find(&format!("\"{key}\"")).expect(key);
            let end = manifest[start..].find(']').expect("closing bracket") + start;
            &manifest[start..end]
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), defs.len(), "{key}");
            for d in defs {
                let better = if d.higher_is_better { "higher" } else { "lower" };
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    d.name, d.unit
                );
                if d.bound > 0.0 {
                    let _ = write!(entry, ", \"bound\": {}", d.bound);
                }
                entry.push('}');
                assert!(text.contains(&entry), "{key} lacks {entry}");
            }
        }
        for w in crate::workload::Workload::ALL {
            assert!(section("workloads").contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn json_carries_exactly_the_contract_keys() {
        let report = Report {
            workload: "w",
            attempted: 10,
            failed: 1,
            metrics: vec![(find(END_TO_END, "setup_s"), Measured { value: 1.5, q1: 1.0, q3: 2.0 })],
        };
        assert_eq!(
            report.json(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(report.lines().starts_with("w setup_s 1.5 s 1 2\n"));
        assert!(report.lines().ends_with("w failed_share 0.1 share\n"));
    }

    #[test]
    fn utc_date_is_well_formed() {
        let d = utc_date();
        assert_eq!(d.len(), 10);
        assert!(d[..4].parse::<i32>().unwrap() >= 2024);
    }
}
