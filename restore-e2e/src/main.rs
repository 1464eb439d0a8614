//! `restore-e2e`: the end-to-end benchmark of the ReStore stack.
//!
//! ```text
//! restore-e2e --workload NAME [--seed N] [--seconds S] [--rounds R] [--trace 0|1] [--quick]
//! restore-e2e all   [same options]     every workload, each in a process of its own
//! restore-e2e check [same options]     two full sets, compared against the bounds
//! ```
//!
//! See `README.md` beside `Cargo.toml` for what is measured and why.

mod bench;
mod env;
mod layers;
mod oracle;
mod report;
mod spans;
mod stats;
mod suite;
mod workload;

use report::Report;
use restore_pigmix::DataScale;
use std::process::ExitCode;
use workload::Workload;

/// Default seed; a claim made with this benchmark must also hold on a
/// second one.
const DEFAULT_SEED: u64 = 0x5E_57_0E;
/// Where reports and traces are written, relative to the working
/// directory (the repository root, whose `.gitignore` names `/target`).
const OUT_DIR: &str = "target/restore-e2e";

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub command: Command,
    pub workload: Option<Workload>,
    pub seed: u64,
    /// How long one run measures, all rounds together.
    pub seconds: f64,
    pub rounds: usize,
    pub trace: bool,
    /// `DataScale::tiny()`, one round, one set-up: a smoke run.
    pub quick: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Run,
    All,
    Check,
}

impl Options {
    pub fn scale(&self) -> DataScale {
        if self.quick {
            DataScale::tiny()
        } else {
            DataScale::gb15()
        }
    }

    fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: Command::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        rounds: 10,
        trace: false,
        quick: false,
    };
    let (mut seconds_given, mut rounds_given) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "all" => opts.command = Command::All,
            "check" => opts.command = Command::Check,
            "--workload" => {
                let name = value("a workload name")?;
                opts.workload =
                    Some(Workload::from_name(name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--seed" => {
                let text = value("a number")?;
                opts.seed = parse_u64(text).ok_or_else(|| format!("bad seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                opts.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {text:?}"))?;
                seconds_given = true;
            }
            "--rounds" => {
                let text = value("a number")?;
                opts.rounds = text
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or_else(|| format!("bad rounds {text:?}"))?;
                rounds_given = true;
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace {other:?}")),
                };
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.quick {
        if !seconds_given {
            opts.seconds = 1.0;
        }
        if !rounds_given {
            opts.rounds = 1;
        }
    }
    if opts.command == Command::Run && opts.workload.is_none() {
        return Err("name a workload with --workload, or say `all` or `check`".to_string());
    }
    Ok(opts)
}

/// One workload in this process, so that peak RSS is the workload's own.
fn run_one(opts: &Options, workload: Workload) -> Report {
    let scale = opts.scale();
    print!("{}", report::header(opts.seed, scale.name, opts.seconds, opts.rounds));
    let report = if opts.trace {
        let layered = layers::run(workload, scale, opts.seed, opts.seconds);
        write_out(&format!("trace-{}.json", workload.name()), &layered.trace_json);
        layered.report
    } else {
        let e2e = bench::run(workload, &scale, opts.seed, opts.seconds, opts.rounds, opts.setups());
        Report {
            workload: workload.name(),
            attempted: e2e.attempted,
            failed: e2e.failed,
            metrics: e2e
                .metrics
                .into_iter()
                .map(|(name, m)| (report::find(report::END_TO_END, name), m))
                .collect(),
        }
    };
    print!("{}", report.lines());
    let mode = if opts.trace { "layers" } else { "e2e" };
    write_out(&format!("{mode}-{}.json", workload.name()), &report.json());
    println!("{}", report.json());
    report
}

/// Best effort: a report that cannot be archived is still printed.
fn write_out(file: &str, content: &str) {
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/{file}"), content));
    if let Err(e) = written {
        eprintln!("restore-e2e: could not write {OUT_DIR}/{file}: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("restore-e2e: {msg}");
            return ExitCode::from(2);
        }
    };
    let ok = match opts.command {
        Command::Run => run_one(&opts, opts.workload.expect("checked by parse_args")).correct(),
        Command::All => suite::all(&opts),
        Command::Check => suite::check(&opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let o =
            parse_args(&args("--workload serve_warm --seed 17 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.command, Command::Run);
        assert_eq!(o.workload, Some(Workload::ServeWarm));
        assert_eq!((o.seed, o.seconds, o.rounds, o.trace, o.quick), (17, 10.0, 10, true, false));
        assert_eq!(parse_args(&args("--workload pigmix_plain --seed 0x10")).unwrap().seed, 16);
    }

    #[test]
    fn quick_shrinks_the_defaults_but_not_what_was_asked_for() {
        let o = parse_args(&args("all --quick")).unwrap();
        assert_eq!((o.command, o.seconds, o.rounds), (Command::All, 1.0, 1));
        let o = parse_args(&args("check --quick --rounds 3 --seconds 2")).unwrap();
        assert_eq!((o.command, o.seconds, o.rounds), (Command::Check, 2.0, 3));
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload pigmix_plain --trace 2",
            "--workload pigmix_plain --seconds 0",
            "--workload pigmix_plain --rounds 0",
            "--workload pigmix_plain --seed x",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}
