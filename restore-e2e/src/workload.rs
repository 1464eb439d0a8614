//! The four workloads. They span the one variable the paper's argument
//! turns on: how much of a submission's work the repository already
//! holds — none with reuse off, none while paying to materialize, a
//! shared prefix, everything.

use crate::env::nproc;
use restore_common::rng::SplitMix64;
use restore_core::ReStoreConfig;
use restore_pigmix::{paraphrase, queries};

/// Where a session's untimed populating pass stores its outputs; they
/// back repository entries and stay for the session's life.
pub const WARM_OUT: &str = "/out/warm";
pub const WARM_WF: &str = "/wf/warm";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Plain,
    Cold,
    Reuse,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Plain, Workload::Cold, Workload::Reuse, Workload::ServeWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Plain => "pigmix_plain",
            Workload::Cold => "pigmix_cold",
            Workload::Reuse => "pigmix_reuse",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The session policy. `pigmix_cold` and `pigmix_reuse` follow the
    /// paper's experiments: final outputs are not registered, so a rerun
    /// re-executes its final job on stored inputs.
    pub fn config(self) -> ReStoreConfig {
        match self {
            Workload::Plain => ReStoreConfig::baseline(),
            Workload::Cold | Workload::Reuse => {
                ReStoreConfig { register_final_outputs: false, ..Default::default() }
            }
            Workload::ServeWarm => ReStoreConfig::default(),
        }
    }

    /// Closed-loop clients: a Pig client waits for its result. Only
    /// `serve_warm` is concurrent, and never beyond the host's cores.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeWarm => nproc().min(2),
            _ => 1,
        }
    }

    /// A fresh, empty repository for every pass?
    pub fn session_per_pass(self) -> bool {
        self == Workload::Cold
    }

    /// The `(label, query text)` pairs of one pass, storing under
    /// `out_prefix`: PigMix L2–L8 and L11, and on `serve_warm` also the
    /// paraphrase suite's rewrites of queries the repository holds.
    pub fn mix(self, out_prefix: &str) -> Vec<(String, String)> {
        let mut mix = queries::standard_workload(out_prefix);
        if self == Workload::ServeWarm {
            for case in paraphrase::paraphrase_suite(out_prefix) {
                for (i, text) in case.paraphrases.into_iter().enumerate() {
                    mix.push((format!("{}-p{}", case.label, i + 1), text));
                }
            }
        }
        mix
    }

    /// The queries of the untimed pass that populates a session's
    /// repository before timing starts.
    pub fn populate(self, out_prefix: &str) -> Vec<(String, String)> {
        match self {
            Workload::Plain | Workload::Cold => Vec::new(),
            Workload::Reuse => queries::standard_workload(out_prefix),
            Workload::ServeWarm => {
                let mut mix = queries::standard_workload(out_prefix);
                for case in paraphrase::paraphrase_suite(out_prefix) {
                    mix.push((format!("{}-o", case.label), case.original));
                }
                mix
            }
        }
    }
}

/// The order in which `client` submits the `n` queries of a pass: a
/// Fisher–Yates shuffle drawn from the seed, so the same seed replays
/// the same interleaving. Only `serve_warm` shuffles.
pub fn submission_order(seed: u64, client: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed).derive(0x0C11_E470 ^ client as u64);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn serve_warm_mixes_eight_queries_with_thirteen_paraphrases() {
        assert_eq!(Workload::Plain.mix("/o").len(), 8);
        let mix = Workload::ServeWarm.mix("/o");
        assert_eq!(mix.len(), 21);
        let mut labels: Vec<&str> = mix.iter().map(|(l, _)| l.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 21, "labels key the oracle and must be distinct");
        assert_eq!(Workload::ServeWarm.populate("/o").len(), 12);
    }

    #[test]
    fn submission_order_is_a_seed_determined_permutation() {
        let a = submission_order(7, 0, 21);
        assert_eq!(a, submission_order(7, 0, 21), "same seed, same order");
        assert_ne!(a, submission_order(8, 0, 21), "another seed, another order");
        assert_ne!(a, submission_order(7, 1, 21), "clients do not march in step");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
    }
}
