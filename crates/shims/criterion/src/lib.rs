//! Minimal API-compatible stand-in for the `criterion` crate.
//!
//! The build environment is fully offline, so the workspace vendors the
//! subset of criterion its benches use: `Criterion`, benchmark groups
//! with `sample_size` / `throughput` / `bench_with_input`, `BenchmarkId`,
//! and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple — one warm-up iteration, then
//! `sample_size` timed iterations — and reports min / mean / max wall
//! time plus derived throughput. Results are printed to stdout and, when
//! `CRITERION_JSON` names a file, appended to it as JSON lines so the
//! experiment harness can archive `BENCH_*.json` snapshots. As with the
//! real crate, a positional argument (`cargo bench --bench b -- name`)
//! runs only the benchmarks whose full name contains it.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Hierarchical benchmark name: `function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { name: format!("{}/{}", function.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { name: parameter.to_string() }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self.to_string() }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self }
    }
}

/// Drives the timed iterations of one benchmark.
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up, untimed
        self.times.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            self.times.push(start.elapsed());
        }
    }

    /// For a routine that times itself: `f(iters)` runs the measured
    /// code `iters` times and returns the time that counts, so whatever
    /// else it does around the measured code stays out of the result.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        f(1); // warm-up, untimed
        self.times.clear();
        for _ in 0..self.samples {
            self.times.push(f(1));
        }
    }
}

/// The harness entry point.
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let default_samples =
            std::env::var("CRITERION_SAMPLES").ok().and_then(|v| v.parse().ok()).unwrap_or(10);
        Criterion { default_samples }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), samples: None, throughput: None }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let samples = self.default_samples;
        run_one(None, &id.into_benchmark_id().name, samples, None, f);
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    samples: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n);
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let samples = self.samples.unwrap_or(self.criterion.default_samples);
        run_one(Some(&self.name), &id.into_benchmark_id().name, samples, self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    group: Option<&str>,
    name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let full = match group {
        Some(g) => format!("{g}/{name}"),
        None => name.to_string(),
    };
    if std::env::args().skip(1).any(|arg| !arg.starts_with('-') && !full.contains(&arg)) {
        return;
    }
    let mut b = Bencher { samples: samples.max(1), times: Vec::new() };
    f(&mut b);
    if b.times.is_empty() {
        println!("{full:<48} (no iterations run)");
        return;
    }
    let total: Duration = b.times.iter().sum();
    let mean = total / b.times.len() as u32;
    let min = *b.times.iter().min().unwrap();
    let max = *b.times.iter().max().unwrap();
    let rate = throughput
        .map(|t| {
            let per_s = |n: u64| n as f64 / mean.as_secs_f64().max(1e-12);
            match t {
                Throughput::Bytes(n) => format!("  {:>10.1} MB/s", per_s(n) / 1e6),
                Throughput::Elements(n) => format!("  {:>12.0} elem/s", per_s(n)),
            }
        })
        .unwrap_or_default();
    println!("{full:<48} time: [{:>10?} {:>10?} {:>10?}]{rate}", min, mean, max);
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(
                file,
                "{{\"bench\":\"{full}\",\"samples\":{},\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{}}}",
                b.times.len(),
                min.as_nanos(),
                mean.as_nanos(),
                max.as_nanos(),
            );
        }
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.throughput(Throughput::Elements(10));
        let mut runs = 0usize;
        group.bench_with_input(BenchmarkId::new("count", 10), &10, |b, &n| {
            b.iter(|| {
                runs += 1;
                (0..n).sum::<i32>()
            })
        });
        group.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }
}
