//! `restore-state` (de)serialization: the durable session format.
//!
//! Two wire versions are read — the current one and the one before it —
//! by one parser:
//!
//! * **v5** (current, the only one written) — the counters, one
//!   `seq <n>` line (the snapshot-journal sequence number the dump is
//!   anchored at, see [`crate::journal`]: recovery loads the base and
//!   replays only journal records with a later sequence number), the
//!   global configuration, and **every** namespace (default and
//!   per-tenant) with its repository, provenance table, and its
//!   `ReStoreConfig` when the tenant carries a policy override.
//! * **v4** (previous) — the same document without the `canonicalize`
//!   configuration key (the analyzer toggle; missing = **on**, the v5
//!   default).
//!
//! Configuration keys missing from a document keep their defaults, so
//! dropping a key from the writer does not need a new version. Some
//! keys are read but no longer written:
//!
//! * `repo_shards`, from releases whose repository could be striped.
//!   `0` and `1` mean the one ordered list and are ignored; a larger
//!   value means the document's entries are in shard-concatenation
//!   order, not §3 order, and the document is refused with
//!   [`Error::Config`].
//! * `store_all`, the switch that kept every candidate whatever rules
//!   1–2 said. `true` now clears `require_size_reduction` and
//!   `require_time_benefit`, whatever their lines say, and `false` is
//!   ignored: with neither rule on, every candidate is kept, so the
//!   switch repeated what the two rule keys already say.
//! * `check_input_versions`, the switch that turned §5 rule 4 on. Rule
//!   4 is no longer a choice: every execution evicts an entry whose
//!   inputs changed, so `true` and `false` are both ignored.
//! * `dlq_max_entries` and `dlq_max_age_ticks`, the caps of the
//!   dead-letter queue earlier releases kept. They are ignored, and a
//!   value of `on_failure dlq` reads as `retry`: a `dlq` tenant got
//!   exactly `retry`'s retries, breaker accounting and ticket error.
//!
//! The format is line-oriented. Section headers are `--config--`,
//! `--provenance--`, `--repository--`, and `--space "<tenant>"--`
//! (the empty name is the default namespace); body lines never begin
//! with `--`, so sections split unambiguously. A `--dlq--` section
//! after a namespace's repository, written by those earlier releases,
//! is skipped up to the next header. Tenants are written in sorted
//! order and config fields in a fixed order, which makes
//! `save_state → recover → save_state` byte-identical.
//!
//! Parse failures surface as [`Error::State`] carrying the 1-based line
//! number and the offending line, so a corrupt snapshot points at
//! itself instead of a generic "malformed restore-state".

use crate::driver::ReStoreConfig;
use crate::enumerator::Heuristic;
use crate::failure::FailureDisposition;
use crate::plan_text;
use crate::provenance::Provenance;
use crate::repository::Repository;
use restore_common::{Error, Result};

const V4_HEADER: &str = "restore-state v4";
pub(crate) const V5_HEADER: &str = "restore-state v5";

/// One deserialized namespace (`name == ""` is the default).
pub(crate) struct LoadedSpace {
    pub name: String,
    pub config: Option<ReStoreConfig>,
    /// The namespace's repository, its provenance table included.
    pub repo: Repository,
}

/// A fully deserialized `restore-state` document.
pub(crate) struct LoadedState {
    pub tick: u64,
    pub cand: u64,
    /// Journal sequence number the document is anchored at.
    pub seq: u64,
    /// The global (default) policy.
    pub global_config: ReStoreConfig,
    pub spaces: Vec<LoadedSpace>,
}

/// Typed parse error pointing at a 1-based document line.
fn err_at(line_idx: usize, msg: impl Into<String>) -> Error {
    Error::State { line: line_idx + 1, msg: msg.into() }
}

// ---- config codec ----

fn heuristic_name(h: Heuristic) -> &'static str {
    match h {
        Heuristic::None => "none",
        Heuristic::Conservative => "conservative",
        Heuristic::Aggressive => "aggressive",
        Heuristic::NoHeuristic => "no-heuristic",
    }
}

fn heuristic_from(name: &str) -> Option<Heuristic> {
    match name {
        "none" => Some(Heuristic::None),
        "conservative" => Some(Heuristic::Conservative),
        "aggressive" => Some(Heuristic::Aggressive),
        "no-heuristic" => Some(Heuristic::NoHeuristic),
        _ => None,
    }
}

fn disposition_name(d: FailureDisposition) -> &'static str {
    match d {
        FailureDisposition::FailFast => "fail_fast",
        FailureDisposition::Retry => "retry",
        FailureDisposition::Drop => "drop",
    }
}

fn disposition_from(name: &str) -> Option<FailureDisposition> {
    match name {
        "fail_fast" => Some(FailureDisposition::FailFast),
        // `dlq` retried, then parked the workflow as well; without the
        // queue it is `retry`.
        "retry" | "dlq" => Some(FailureDisposition::Retry),
        "drop" => Some(FailureDisposition::Drop),
        _ => None,
    }
}

/// Serialize a configuration as `key value` lines in fixed order (the
/// fixed order is what makes re-saving a loaded state byte-identical).
pub(crate) fn encode_config(c: &ReStoreConfig) -> String {
    let window = match c.selection.eviction_window {
        Some(w) => w.to_string(),
        None => "none".to_string(),
    };
    format!(
        "reuse_enabled {}\nheuristic {}\nrepo_prefix {:?}\n\
         register_final_outputs {}\nwave_parallel {}\n\
         require_size_reduction {}\nrequire_time_benefit {}\nreload_read_bps {}\n\
         eviction_window {}\n\
         on_failure {}\nmax_retries {}\nretry_backoff_base_ms {}\n\
         retry_backoff_factor {}\nretry_backoff_cap_ms {}\nretry_backoff_jitter {}\n\
         failure_window {}\nfailure_threshold {}\nbreaker_cooldown_ms {}\n\
         breaker_half_open_probes {}\nbreaker_success_threshold {}\ncanonicalize {}\n",
        c.reuse_enabled,
        heuristic_name(c.heuristic),
        c.repo_prefix,
        c.register_final_outputs,
        c.wave_parallel,
        c.selection.require_size_reduction,
        c.selection.require_time_benefit,
        c.selection.reload_read_bps,
        window,
        disposition_name(c.failure.on_failure),
        c.failure.max_retries,
        c.failure.retry_backoff_base_ms,
        c.failure.retry_backoff_factor,
        c.failure.retry_backoff_cap_ms,
        c.failure.retry_backoff_jitter,
        c.failure.failure_window,
        c.failure.failure_threshold,
        c.failure.breaker_cooldown_ms,
        c.failure.breaker_half_open_probes,
        c.failure.breaker_success_threshold,
        c.canonicalize,
    )
}

/// Decode `key value` config lines. `base` is the document index of the
/// first line, used for error positions. Unknown keys and malformed
/// values are errors; missing keys keep their defaults (older snapshots
/// stay loadable if fields are added later).
pub(crate) fn decode_config(lines: &[&str], base: usize) -> Result<ReStoreConfig> {
    let mut c = ReStoreConfig::default();
    let mut store_all = false;
    for (i, line) in lines.iter().enumerate() {
        let at = base + i;
        if line.trim().is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| err_at(at, format!("config line has no value: {line:?}")))?;
        let bad = || err_at(at, format!("bad value for config key {key}: {line:?}"));
        let parse_bool = |v: &str| match v {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(bad()),
        };
        match key {
            "reuse_enabled" => c.reuse_enabled = parse_bool(value)?,
            "heuristic" => c.heuristic = heuristic_from(value).ok_or_else(bad)?,
            "repo_prefix" => c.repo_prefix = unquote(value, at)?,
            // Follows from `reuse_enabled` and `heuristic`: checked, then ignored.
            "delete_tmp" => parse_bool(value).map(drop)?,
            "register_final_outputs" => c.register_final_outputs = parse_bool(value)?,
            "wave_parallel" => c.wave_parallel = parse_bool(value)?,
            "store_all" => store_all = parse_bool(value)?,
            "require_size_reduction" => c.selection.require_size_reduction = parse_bool(value)?,
            "require_time_benefit" => c.selection.require_time_benefit = parse_bool(value)?,
            "reload_read_bps" => c.selection.reload_read_bps = value.parse().map_err(|_| bad())?,
            "eviction_window" => {
                c.selection.eviction_window = match value {
                    "none" => None,
                    v => Some(v.parse().map_err(|_| bad())?),
                }
            }
            // Rule 4 always holds (see `selector`): checked, then ignored.
            "check_input_versions" => parse_bool(value).map(drop)?,
            "repo_shards" => {
                let n: usize = value.parse().map_err(|_| bad())?;
                if n > 1 {
                    return Err(Error::Config(format!(
                        "repo_shards {n}: the document was saved from a sharded repository, \
                         so its entries are in shard-concatenation order and cannot be \
                         loaded into one ordered list"
                    )));
                }
            }
            "on_failure" => c.failure.on_failure = disposition_from(value).ok_or_else(bad)?,
            "max_retries" => c.failure.max_retries = value.parse().map_err(|_| bad())?,
            "retry_backoff_base_ms" => {
                c.failure.retry_backoff_base_ms = value.parse().map_err(|_| bad())?
            }
            "retry_backoff_factor" => {
                c.failure.retry_backoff_factor = value.parse().map_err(|_| bad())?
            }
            "retry_backoff_cap_ms" => {
                c.failure.retry_backoff_cap_ms = value.parse().map_err(|_| bad())?
            }
            "retry_backoff_jitter" => {
                c.failure.retry_backoff_jitter = value.parse().map_err(|_| bad())?
            }
            "failure_window" => c.failure.failure_window = value.parse().map_err(|_| bad())?,
            "failure_threshold" => {
                c.failure.failure_threshold = value.parse().map_err(|_| bad())?
            }
            "breaker_cooldown_ms" => {
                c.failure.breaker_cooldown_ms = value.parse().map_err(|_| bad())?
            }
            "breaker_half_open_probes" => {
                c.failure.breaker_half_open_probes = value.parse().map_err(|_| bad())?
            }
            "breaker_success_threshold" => {
                c.failure.breaker_success_threshold = value.parse().map_err(|_| bad())?
            }
            // The dead-letter queue's caps: checked, then ignored.
            "dlq_max_entries" | "dlq_max_age_ticks" => {
                value.parse::<u64>().map_err(|_| bad())?;
            }
            "canonicalize" => c.canonicalize = parse_bool(value)?,
            _ => return Err(err_at(at, format!("unknown config key {key:?}"))),
        }
    }
    if store_all {
        c.selection.require_size_reduction = false;
        c.selection.require_time_benefit = false;
    }
    Ok(c)
}

/// Invert `{:?}` string quoting. The input must be exactly one quoted
/// string: [`plan_text::unquote`] trims, which would let a padded header
/// field slip through.
pub(crate) fn unquote(s: &str, at: usize) -> Result<String> {
    if !(s.len() >= 2 && s.starts_with('"') && s.ends_with('"')) {
        return Err(err_at(at, format!("expected a quoted string, got {s}")));
    }
    plan_text::unquote(s).map_err(|_| err_at(at, format!("bad quoted string {s}")))
}

// ---- document structure ----

/// Is this line a section header (`--…--`)?
fn is_header(line: &str) -> bool {
    line.len() >= 4 && line.starts_with("--") && line.ends_with("--")
}

/// Collect body lines from `idx` until the next section header (or the
/// end of the document); returns the body slice bounds.
fn body_end(lines: &[&str], mut idx: usize) -> usize {
    while idx < lines.len() && !is_header(lines[idx]) {
        idx += 1;
    }
    idx
}

fn parse_counter(lines: &[&str], idx: usize, key: &str) -> Result<u64> {
    lines
        .get(idx)
        .and_then(|l| l.strip_prefix(key))
        .and_then(|l| l.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            err_at(
                idx,
                format!("expected \"{key} <number>\", got {:?}", lines.get(idx).unwrap_or(&"")),
            )
        })
}

/// Parse a `--provenance--` + `--repository--` pair starting at `idx`.
/// Returns the repository holding both tables and the index just past
/// the repository body.
fn parse_tables(lines: &[&str], idx: usize) -> Result<(Repository, usize)> {
    if lines.get(idx).copied() != Some("--provenance--") {
        return Err(err_at(
            idx,
            format!("expected --provenance--, got {:?}", lines.get(idx).unwrap_or(&"<eof>")),
        ));
    }
    let prov_end = body_end(lines, idx + 1);
    let prov = Provenance::load(&lines[idx + 1..prov_end].join("\n"))
        .map_err(|e| err_at(idx, format!("in --provenance-- section: {e}")))?;
    if lines.get(prov_end).copied() != Some("--repository--") {
        return Err(err_at(
            prov_end,
            format!("expected --repository--, got {:?}", lines.get(prov_end).unwrap_or(&"<eof>")),
        ));
    }
    let repo_end = body_end(lines, prov_end + 1);
    let repo = Repository::load_with(&lines[prov_end + 1..repo_end].join("\n"), prov)
        .map_err(|e| err_at(prov_end, format!("in --repository-- section: {e}")))?;
    Ok((repo, repo_end))
}

/// Parse a v5 or v4 document into a [`LoadedState`].
pub(crate) fn parse(text: &str) -> Result<LoadedState> {
    let lines: Vec<&str> = text.lines().collect();
    if !matches!(lines.first().copied(), Some(V4_HEADER | V5_HEADER)) {
        return Err(err_at(
            0,
            format!(
                "expected \"{V5_HEADER}\" or \"{V4_HEADER}\", got {:?}",
                lines.first().copied().unwrap_or("<empty document>")
            ),
        ));
    }
    let tick = parse_counter(&lines, 1, "tick")?;
    let cand = parse_counter(&lines, 2, "cand")?;
    let seq = parse_counter(&lines, 3, "seq")?;
    if lines.get(4).copied() != Some("--config--") {
        return Err(err_at(
            4,
            format!("expected --config--, got {:?}", lines.get(4).unwrap_or(&"<eof>")),
        ));
    }
    let cfg_end = body_end(&lines, 5);
    let global_config = decode_config(&lines[5..cfg_end], 5)?;

    let mut spaces = Vec::new();
    let mut idx = cfg_end;
    while idx < lines.len() {
        let header = lines[idx];
        let bad_header = || err_at(idx, format!("expected --space \"<tenant>\"--, got {header:?}"));
        let name = header
            .strip_prefix("--space ")
            .and_then(|r| r.strip_suffix("--"))
            .ok_or_else(bad_header)
            .and_then(|quoted| unquote(quoted, idx).map_err(|_| bad_header()))?;
        if spaces.iter().any(|s: &LoadedSpace| s.name == name) {
            return Err(err_at(idx, format!("duplicate --space-- section for {name:?}")));
        }
        idx += 1;
        let config = if lines.get(idx).copied() == Some("--config--") {
            let end = body_end(&lines, idx + 1);
            let c = decode_config(&lines[idx + 1..end], idx + 1)?;
            idx = end;
            Some(c)
        } else {
            None
        };
        let (repo, end) = parse_tables(&lines, idx)?;
        idx = end;
        // An earlier release's dead-letter queue: skipped.
        if lines.get(idx).copied() == Some("--dlq--") {
            idx = body_end(&lines, idx + 1);
        }
        spaces.push(LoadedSpace { name, config, repo });
    }
    Ok(LoadedState { tick, cand, seq, global_config, spaces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::SelectionPolicy;

    #[test]
    fn config_codec_round_trips_every_field() {
        let config = ReStoreConfig {
            reuse_enabled: false,
            heuristic: Heuristic::Conservative,
            selection: SelectionPolicy {
                require_size_reduction: true,
                require_time_benefit: true,
                reload_read_bps: 12345.5,
                eviction_window: Some(42),
            },
            repo_prefix: "/re store/\"x\"".to_string(),
            register_final_outputs: false,
            wave_parallel: false,
            failure: crate::failure::FailurePolicy {
                on_failure: FailureDisposition::Retry,
                max_retries: 3,
                retry_backoff_base_ms: 10,
                retry_backoff_factor: 1.5,
                retry_backoff_cap_ms: 500,
                retry_backoff_jitter: 0.25,
                failure_window: 8,
                failure_threshold: 5,
                breaker_cooldown_ms: 750,
                breaker_half_open_probes: 1,
                breaker_success_threshold: 3,
            },
            canonicalize: false,
        };
        let text = encode_config(&config);
        let lines: Vec<&str> = text.lines().collect();
        let back = decode_config(&lines, 0).unwrap();
        assert_eq!(back, config);
        // And encoding is canonical: re-encoding is byte-identical.
        assert_eq!(encode_config(&back), text);
    }

    #[test]
    fn config_codec_default_round_trips() {
        let text = encode_config(&ReStoreConfig::default());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(decode_config(&lines, 0).unwrap(), ReStoreConfig::default());
    }

    #[test]
    fn pre_v5_documents_default_the_new_keys() {
        // A config body without `canonicalize` (any v4-or-earlier dump)
        // loads with the analyzer on.
        let back = decode_config(&["reuse_enabled true"], 0).unwrap();
        assert!(back.canonicalize);
    }

    #[test]
    fn dead_letter_caps_are_read_ignored_and_never_written() {
        let lines = ["max_retries 2", "dlq_max_entries 64", "dlq_max_age_ticks 1000"];
        let back = decode_config(&lines, 0).unwrap();
        let want = ReStoreConfig {
            failure: crate::failure::FailurePolicy { max_retries: 2, ..Default::default() },
            ..Default::default()
        };
        assert_eq!(back, want);
        assert!(!encode_config(&back).contains("dlq"));
        // A value that never parsed is still a positioned error.
        match decode_config(&["dlq_max_entries many"], 4).unwrap_err() {
            Error::State { line, msg } => {
                assert_eq!(line, 5);
                assert!(msg.contains("dlq_max_entries"), "{msg}");
            }
            other => panic!("expected Error::State, got {other:?}"),
        }
    }

    #[test]
    fn store_all_is_read_as_the_rules_it_overrode_and_never_written() {
        // `true` beat both admission rules, in whichever order the lines
        // come; `false` left them as written.
        let rules = ["require_size_reduction true", "require_time_benefit true"];
        for store_all in ["store_all true", "store_all false"] {
            for lines in [[store_all, rules[0], rules[1]], [rules[0], rules[1], store_all]] {
                let back = decode_config(&lines, 0).unwrap();
                let kept = store_all.ends_with("false");
                assert_eq!(back.selection.require_size_reduction, kept, "{lines:?}");
                assert_eq!(back.selection.require_time_benefit, kept, "{lines:?}");
                assert!(!encode_config(&back).contains("store_all"));
            }
        }
        assert!(decode_config(&["store_all maybe"], 0).is_err());
    }

    #[test]
    fn delete_tmp_is_read_ignored_and_never_written() {
        // Whether temporaries are deleted follows from the policy: a stored
        // flag, either way, changes nothing.
        for line in ["delete_tmp true", "delete_tmp false"] {
            let back = decode_config(&[line], 0).unwrap();
            assert_eq!(back, ReStoreConfig::default(), "{line}");
            assert!(!encode_config(&back).contains("delete_tmp"));
        }
        assert!(decode_config(&["delete_tmp maybe"], 0).is_err());
    }

    #[test]
    fn on_failure_dlq_decodes_to_retry() {
        let back = decode_config(&["on_failure dlq"], 0).unwrap();
        assert_eq!(back.failure.on_failure, FailureDisposition::Retry);
        assert!(encode_config(&back).contains("on_failure retry\n"));
    }

    #[test]
    fn repo_shards_zero_normalizes_to_one() {
        // 0 ("unset") and 1 both mean the one ordered list: read and
        // ignored, and never written back.
        for line in ["repo_shards 0", "repo_shards 1"] {
            let back = decode_config(&[line], 0).unwrap();
            assert_eq!(back, ReStoreConfig::default());
            assert!(!encode_config(&back).contains("repo_shards"));
        }
    }

    #[test]
    fn absurd_repo_shards_is_a_typed_config_error() {
        // A striped repository's dump is in shard-concatenation order:
        // refused, not loaded mis-ordered.
        for n in [2usize, 8, 1025] {
            let line = format!("repo_shards {n}");
            match decode_config(&[&line], 0).unwrap_err() {
                Error::Config(msg) => {
                    assert!(msg.contains(&n.to_string()), "{msg}");
                    assert!(msg.contains("shard-concatenation order"), "{msg}");
                }
                other => panic!("expected Error::Config, got {other:?}"),
            }
        }
        // And an unparseable value is still a positioned parse error.
        match decode_config(&["repo_shards many"], 0).unwrap_err() {
            Error::State { line, msg } => {
                assert_eq!(line, 1);
                assert!(msg.contains("repo_shards"), "{msg}");
            }
            other => panic!("expected Error::State, got {other:?}"),
        }
    }

    #[test]
    fn unknown_config_key_names_its_line() {
        let e = decode_config(&["reuse_enabled true", "frobnicate 7"], 10).unwrap_err();
        match e {
            Error::State { line, msg } => {
                assert_eq!(line, 12, "1-based document line of the bad key");
                assert!(msg.contains("frobnicate"), "{msg}");
            }
            other => panic!("expected Error::State, got {other:?}"),
        }
    }

    #[test]
    fn bad_config_value_names_key_and_line() {
        let e = decode_config(&["wave_parallel maybe"], 0).unwrap_err();
        match e {
            Error::State { line, msg } => {
                assert_eq!(line, 1);
                assert!(msg.contains("wave_parallel"), "{msg}");
            }
            other => panic!("expected Error::State, got {other:?}"),
        }
    }
}
