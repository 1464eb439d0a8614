//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|table1|table2|all]
//!             [--quick]
//! experiments model-check [--quick] [--json FILE]
//! ```
//!
//! `--quick` substitutes smaller data so everything finishes in seconds
//! (shapes hold, absolute numbers shrink). Times are *modeled* cluster
//! minutes from the calibrated cost model (see DESIGN.md §4); the paper's
//! reference values are printed alongside where they exist.
//!
//! `model-check` is not a figure and `all` leaves it out: it runs every
//! PigMix job at gb15, plain and as a reuse rerun, 50 times each
//! ([`restore_bench::model::PASSES`]), and prints each modeled `JobTimes`
//! term beside the median phase the engine measured for it, then how
//! alike the two rank the jobs ([`restore_bench::model`]); `--json` also
//! writes that to FILE.

use restore_bench::env::{pigmix_env, synthetic_env, PigMixEnv, SyntheticEnv};
use restore_bench::figures::{
    filter_sweep, matcher_ablation, minutes, projection_sweep, subjob_sweep, table2_check,
    whole_job_sweep, SubJobRow, WholeJobRow,
};
use restore_bench::model;
use restore_bench::report::{fmin, fratio, mean, Table};
use restore_pigmix::DataScale;

struct Args {
    what: String,
    quick: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { what: "all".to_string(), quick: false, json: None };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--json" => {
                args.json = Some(argv.next().unwrap_or_else(|| usage("--json takes a file")))
            }
            other if !other.starts_with('-') => args.what = other.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn usage(why: &str) -> ! {
    eprintln!("{why}");
    std::process::exit(2);
}

fn scales(quick: bool) -> (DataScale, DataScale) {
    if quick {
        let mut small = DataScale::tiny();
        small.name = "15GB";
        let mut large = DataScale::tiny();
        large.name = "150GB";
        large.page_views_rows *= 10;
        large.paper_bytes = 10 * small.paper_bytes;
        (small, large)
    } else {
        (DataScale::gb15(), DataScale::gb150())
    }
}

fn synthetic_rows(quick: bool) -> usize {
    if quick {
        2_000
    } else {
        60_000
    }
}

/// Environments are built lazily and shared across the figures that need
/// them, because the sweeps are the expensive part.
struct Lazy {
    quick: bool,
    small: Option<PigMixEnv>,
    large: Option<PigMixEnv>,
    synth: Option<SyntheticEnv>,
    subjob_small: Option<Vec<SubJobRow>>,
    subjob_large: Option<Vec<SubJobRow>>,
    whole_large: Option<Vec<WholeJobRow>>,
}

impl Lazy {
    fn new(quick: bool) -> Self {
        Lazy {
            quick,
            small: None,
            large: None,
            synth: None,
            subjob_small: None,
            subjob_large: None,
            whole_large: None,
        }
    }

    fn large(&mut self) -> &PigMixEnv {
        if self.large.is_none() {
            let (_, l) = scales(self.quick);
            eprintln!("[setup] generating {} PigMix instance…", l.name);
            self.large = Some(pigmix_env(l));
        }
        self.large.as_ref().unwrap()
    }

    fn small(&mut self) -> &PigMixEnv {
        if self.small.is_none() {
            let (s, _) = scales(self.quick);
            eprintln!("[setup] generating {} PigMix instance…", s.name);
            self.small = Some(pigmix_env(s));
        }
        self.small.as_ref().unwrap()
    }

    fn synth(&mut self) -> &SyntheticEnv {
        if self.synth.is_none() {
            eprintln!("[setup] generating synthetic §7.5 data…");
            self.synth = Some(synthetic_env(synthetic_rows(self.quick)));
        }
        self.synth.as_ref().unwrap()
    }

    fn subjob_large(&mut self) -> &[SubJobRow] {
        if self.subjob_large.is_none() {
            self.large();
            eprintln!("[sweep] sub-job sweep at 150GB scale…");
            self.subjob_large = Some(subjob_sweep(self.large.as_ref().unwrap()));
        }
        self.subjob_large.as_ref().unwrap()
    }

    fn subjob_small(&mut self) -> &[SubJobRow] {
        if self.subjob_small.is_none() {
            self.small();
            eprintln!("[sweep] sub-job sweep at 15GB scale…");
            self.subjob_small = Some(subjob_sweep(self.small.as_ref().unwrap()));
        }
        self.subjob_small.as_ref().unwrap()
    }

    fn whole_large(&mut self) -> &[WholeJobRow] {
        if self.whole_large.is_none() {
            self.large();
            eprintln!("[sweep] whole-job sweep at 150GB scale…");
            self.whole_large = Some(whole_job_sweep(self.large.as_ref().unwrap()));
        }
        self.whole_large.as_ref().unwrap()
    }
}

fn fig9(lazy: &mut Lazy) {
    println!("\n== Figure 9: reusing whole job outputs (150GB) ==");
    println!("(paper: average speedup 9.8, overhead 0%)\n");
    let rows = lazy.whole_large().to_vec();
    let mut t = Table::new(&["Query", "No reuse (min)", "Reusing jobs (min)", "Speedup"]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            fmin(minutes(r.plain_s)),
            fmin(minutes(r.whole_s)),
            fratio(r.plain_s / r.whole_s),
        ]);
    }
    print!("{}", t.render());
    let avg = mean(rows.iter().map(|r| r.plain_s / r.whole_s));
    println!("\nAverage speedup: {avg:.1} (paper: 9.8)");
}

fn fig10(lazy: &mut Lazy) {
    println!("\n== Figure 10: reusing sub-job outputs, Aggressive heuristic (150GB) ==");
    println!("(paper: average speedup 24.4, average overhead 1.6)\n");
    let rows = lazy.subjob_large().to_vec();
    let mut t = Table::new(&[
        "Query",
        "No reuse (min)",
        "Generating sub-jobs (min)",
        "Reusing sub-jobs (min)",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            fmin(minutes(r.plain_s)),
            fmin(minutes(r.gen_s[1])),
            fmin(minutes(r.reuse_s[1])),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nAverage speedup: {:.1} (paper: 24.4); average overhead: {:.1} (paper: 1.6)",
        mean(rows.iter().map(|r| r.speedup(1))),
        mean(rows.iter().map(|r| r.overhead(1))),
    );
}

fn fig11(lazy: &mut Lazy) {
    println!("\n== Figure 11: overhead of generating sub-jobs (HA), 15GB vs 150GB ==");
    println!("(paper: average overhead 2.4 at 15GB, 1.6 at 150GB)\n");
    let small = lazy.subjob_small().to_vec();
    let large = lazy.subjob_large().to_vec();
    let mut t = Table::new(&["Query", "15GB", "150GB"]);
    for (s, l) in small.iter().zip(large.iter()) {
        t.row(vec![s.label.clone(), fratio(s.overhead(1)), fratio(l.overhead(1))]);
    }
    print!("{}", t.render());
    println!(
        "\nAverage overhead: {:.1} at 15GB (paper 2.4), {:.1} at 150GB (paper 1.6)",
        mean(small.iter().map(|r| r.overhead(1))),
        mean(large.iter().map(|r| r.overhead(1))),
    );
}

fn fig12(lazy: &mut Lazy) {
    println!("\n== Figure 12: speedup from reusing sub-jobs (HA), 15GB vs 150GB ==");
    println!("(paper: average speedup 3.0 at 15GB, 24.4 at 150GB)\n");
    let small = lazy.subjob_small().to_vec();
    let large = lazy.subjob_large().to_vec();
    let mut t = Table::new(&["Query", "15GB", "150GB"]);
    for (s, l) in small.iter().zip(large.iter()) {
        t.row(vec![s.label.clone(), fratio(s.speedup(1)), fratio(l.speedup(1))]);
    }
    print!("{}", t.render());
    println!(
        "\nAverage speedup: {:.1} at 15GB (paper 3.0), {:.1} at 150GB (paper 24.4)",
        mean(small.iter().map(|r| r.speedup(1))),
        mean(large.iter().map(|r| r.speedup(1))),
    );
}

fn fig13(lazy: &mut Lazy) {
    println!("\n== Figure 13: execution time reusing sub-jobs per heuristic (150GB) ==");
    println!("(paper: HA matches NH; HC gives less benefit)\n");
    let rows = lazy.subjob_large().to_vec();
    let mut t = Table::new(&[
        "Query",
        "No reuse (min)",
        "HC reuse (min)",
        "HA reuse (min)",
        "NH reuse (min)",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            fmin(minutes(r.plain_s)),
            fmin(minutes(r.reuse_s[0])),
            fmin(minutes(r.reuse_s[1])),
            fmin(minutes(r.reuse_s[2])),
        ]);
    }
    print!("{}", t.render());
}

fn fig14(lazy: &mut Lazy) {
    println!("\n== Figure 14: execution time with injected Stores per heuristic (150GB) ==");
    println!("(paper: NH most expensive; HA usually close to HC, much worse on L6)\n");
    let rows = lazy.subjob_large().to_vec();
    let mut t = Table::new(&[
        "Query",
        "No reuse (min)",
        "HC stores (min)",
        "HA stores (min)",
        "NH stores (min)",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            fmin(minutes(r.plain_s)),
            fmin(minutes(r.gen_s[0])),
            fmin(minutes(r.gen_s[1])),
            fmin(minutes(r.gen_s[2])),
        ]);
    }
    print!("{}", t.render());
}

fn table1(lazy: &mut Lazy) {
    println!("\n== Table 1: input size, bytes stored per heuristic, output size (150GB) ==");
    println!("(paper: HA close to HC and much less than NH; L6 the exception)\n");
    let rows = lazy.subjob_large().to_vec();
    let mut t = Table::new(&["Q", "I/P", "HC", "HA", "NH", "O/P"]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            restore_common::human_bytes(r.input_bytes),
            restore_common::human_bytes(r.stored_bytes[0]),
            restore_common::human_bytes(r.stored_bytes[1]),
            restore_common::human_bytes(r.stored_bytes[2]),
            restore_common::human_bytes(r.output_bytes),
        ]);
    }
    print!("{}", t.render());
}

fn fig15(lazy: &mut Lazy) {
    println!("\n== Figure 15: whole jobs vs sub-jobs (150GB) ==");
    println!("(paper: all reuse types help; whole jobs close to HA sub-jobs)\n");
    let rows = lazy.whole_large().to_vec();
    let mut t = Table::new(&[
        "Query",
        "No reuse (min)",
        "HC sub-jobs (min)",
        "HA sub-jobs (min)",
        "Whole jobs (min)",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            fmin(minutes(r.plain_s)),
            fmin(minutes(r.hc_s)),
            fmin(minutes(r.ha_s)),
            fmin(minutes(r.whole_s)),
        ]);
    }
    print!("{}", t.render());
}

fn table2(lazy: &mut Lazy) {
    println!("\n== Table 2: synthetic data set fields (spec vs generated) ==\n");
    let stats = table2_check(lazy.synth());
    let mut t = Table::new(&[
        "Field",
        "Cardinality (spec)",
        "Cardinality (measured)",
        "% selected (spec)",
        "% selected (measured)",
    ]);
    for s in stats {
        t.row(vec![
            format!("field{}", s.field),
            format!("{}", s.spec_cardinality),
            format!("{}", s.measured_cardinality),
            format!("{}%", s.spec_selected_pct),
            format!("{:.2}%", s.measured_selected_pct),
        ]);
    }
    print!("{}", t.render());
}

fn fig16(lazy: &mut Lazy) {
    println!("\n== Figure 16: overhead and speedup vs projected data fraction (QP) ==");
    println!("(paper: overhead rises and speedup falls as projection keeps more data)\n");
    let pts = projection_sweep(lazy.synth());
    let mut t = Table::new(&["Projected fields", "% of data", "Overhead", "Speedup"]);
    for (k, p) in pts.iter().enumerate() {
        t.row(vec![
            format!("{}", k + 1),
            format!("{:.0}%", p.pct_kept),
            format!("{:.2}", p.overhead()),
            format!("{:.2}", p.speedup()),
        ]);
    }
    print!("{}", t.render());
}

fn fig17(lazy: &mut Lazy) {
    println!("\n== Figure 17: overhead and speedup vs filtered data fraction (QF) ==");
    println!("(paper: overhead rises and speedup falls as the filter keeps more data)\n");
    let pts = filter_sweep(lazy.synth());
    let mut t = Table::new(&["Filter field", "% selected", "Overhead", "Speedup"]);
    for (i, p) in pts.iter().enumerate() {
        t.row(vec![
            format!("field{}", i + 6),
            format!("{:.1}%", p.pct_kept),
            format!("{:.2}", p.overhead()),
            format!("{:.2}", p.speedup()),
        ]);
    }
    print!("{}", t.render());
}

fn ablation(_lazy: &mut Lazy) {
    println!("\n== Ablation: repository lookup, sequential scan vs fingerprint index ==");
    println!("(both return identical matches; §3's scan is the paper's design)\n");
    let rows = matcher_ablation();
    let mut t = Table::new(&["Repo entries", "Scan (µs)", "Index (µs)", "Speedup", "Identical"]);
    for r in &rows {
        t.row(vec![
            format!("{}", r.repo_size),
            format!("{:.1}", r.scan_us),
            format!("{:.1}", r.index_us),
            format!("{:.1}x", r.scan_us / r.index_us.max(0.001)),
            format!("{}", r.agree),
        ]);
    }
    print!("{}", t.render());
}

/// The model-vs-engine report: one table of every job's terms, one of
/// the rank agreement per term, and the JSON archive when asked for.
fn model_check(args: &Args) {
    let scale = if args.quick { DataScale::tiny() } else { DataScale::gb15() };
    let env = pigmix_env(scale.clone());
    let rows = model::measure(&env);
    println!("\n== Model check: JobTimes terms (modeled s) beside measured phases (ms) ==");
    println!("({} scale, {} passes, median per phase)\n", scale.name, model::PASSES);
    let mut header = vec!["Job".to_string()];
    for t in &model::TERMS {
        header.push(t.model.to_string());
        header.push(t.measured.to_string());
    }
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for r in &rows {
        let mut cells = vec![r.name.clone()];
        for (m, e) in r.model_s.iter().zip(&r.measured_s) {
            cells.push(format!("{m:.2}"));
            cells.push(format!("{:.3}", e * 1e3));
        }
        table.row(cells);
    }
    print!("{}", table.render());

    println!(
        "\nRank agreement over {} jobs (Spearman's rho; rank 1 is the cheapest)\n",
        rows.len()
    );
    let agreements: Vec<model::Agreement> =
        (0..model::TERMS.len()).map(|t| model::agreement(&rows, t)).collect();
    let mut table = Table::new(&["Model term", "Measured phase", "rho", "Disagreements"]);
    for (t, a) in model::TERMS.iter().zip(&agreements) {
        let apart: Vec<String> =
            a.disagreements.iter().map(|(job, m, e)| format!("{job} ({m} vs {e})")).collect();
        table.row(vec![
            t.model.to_string(),
            t.measured.to_string(),
            format!("{:.3}", a.rho),
            apart.join(", "),
        ]);
    }
    print!("{}", table.render());
    println!("\nNo measured counterpart: {}", model::UNPAIRED.join(", "));
    if let Some(path) = &args.json {
        std::fs::write(path, model::to_json(&scale, &rows, &agreements))
            .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    if args.what == "model-check" {
        model_check(&args);
        return;
    }
    let mut lazy = Lazy::new(args.quick);
    let what = args.what.as_str();
    let all = what == "all";
    let mut ran = false;

    type Runner = fn(&mut Lazy);
    let runners: [(&str, Runner); 12] = [
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("table1", table1),
        ("fig14", fig14),
        ("fig15", fig15),
        ("table2", table2),
        ("fig16", fig16),
        ("fig17", fig17),
        ("ablation", ablation),
    ];
    for (name, f) in runners {
        if all || what == name {
            f(&mut lazy);
            ran = true;
        }
    }

    if !ran {
        eprintln!(
            "unknown experiment {what:?}; expected fig9..fig17, table1, table2, ablation, all, \
             or model-check"
        );
        std::process::exit(2);
    }
}
