//! `restore-state` (de)serialization: the durable session format.
//!
//! One format epoch is readable, the one this build writes. Its number,
//! [`EPOCH`], ends the first line of every document (`restore-state v8`)
//! and of every journal segment (`restore-journal v8`, see
//! [`crate::journal`]); a document or segment that names another epoch
//! is refused with [`Error::Epoch`], which shows the line and names both
//! epochs. A format change either fits inside the epoch — a new optional
//! config key, which a document without it reads as its default — or
//! bumps it. Epoch 6 bumped it because an entry's input versions became
//! DFS commit ticks: an earlier document's versions count writes per
//! path, and a count can equal a later tick. Epoch 7 bumped it because
//! an entry records its own file — the version it was committed at and
//! whether it is typed — in an `output` line an epoch-6 entry lacks.
//! Epoch 8 bumped it because the path → plan fact became one record per
//! stored file: an entry's file, and a second file holding a plan an
//! entry stores, are both `file …` blocks carrying the file's tick and
//! inputs, and epoch 7's provenance section, whose `path …` blocks
//! carried neither, is gone.
//!
//! The format is line-oriented:
//!
//! ```text
//! restore-state v8
//! tick <n>
//! cand <n>
//! seq <n>                  the journal sequence number the document is anchored at
//! --config--               the global configuration, `key value` lines
//! --space "<tenant>"--     one per namespace, sorted by name ("" is the default)
//! --config--               the tenant's policy override (only when it has one)
//! --repository--           `entry …` lines, each with its `file …` block, in
//!                          match-priority order, then the `file …` blocks of
//!                          records without an entry, by path (see `repository.rs`)
//! ```
//!
//! `seq` anchors the document in the journal: recovery loads it and
//! replays only records with a later sequence number. Config keys are
//! written in the fixed order of [`encode_config`]; an unknown key or a
//! malformed value is an error, a missing key keeps its default. Body
//! lines never begin with `--`, so sections split unambiguously. Tenants
//! in sorted order and config keys in a fixed order make
//! `save_state → recover → save_state` byte-identical.
//!
//! Parse failures surface as [`Error::State`] carrying the 1-based line
//! number and the offending line, so a corrupt snapshot points at
//! itself instead of a generic "malformed restore-state".

use crate::driver::ReStoreConfig;
use crate::enumerator::Heuristic;
use crate::failure::FailureDisposition;
use crate::plan_text;
use crate::repository::Repository;
use restore_common::{Error, Result};

/// Expands to the format epoch as a literal, so the headers below are
/// built from the one number.
macro_rules! epoch {
    () => {
        8
    };
}
pub(crate) use epoch;

/// The format epoch both durable writers name in their first line.
pub const EPOCH: u64 = epoch!();

/// First line of every `restore-state` document.
pub(crate) const HEADER: &str = concat!("restore-state v", epoch!());

/// Refuse a first line that names another epoch of `header`'s kind
/// (`restore-state v7` where `restore-state v8` is read). A line of any
/// other shape passes: the caller reports it as a malformed header.
pub(crate) fn check_epoch(line: &str, header: &str) -> Result<()> {
    let kind = header.trim_end_matches(|c: char| c.is_ascii_digit());
    match line.strip_prefix(kind).and_then(|n| n.parse().ok()) {
        Some(found) if found != EPOCH => {
            Err(Error::Epoch { line: line.to_string(), found, reads: EPOCH })
        }
        _ => Ok(()),
    }
}

/// One deserialized namespace (`name == ""` is the default).
pub(crate) struct LoadedSpace {
    pub name: String,
    pub config: Option<ReStoreConfig>,
    /// The namespace's repository, every record included.
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
        "retry" => Some(FailureDisposition::Retry),
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
/// values are errors; missing keys keep their defaults (so a key added
/// within the epoch is optional).
pub(crate) fn decode_config(lines: &[&str], base: usize) -> Result<ReStoreConfig> {
    let mut c = ReStoreConfig::default();
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
            "register_final_outputs" => c.register_final_outputs = parse_bool(value)?,
            "wave_parallel" => c.wave_parallel = parse_bool(value)?,
            "require_size_reduction" => c.selection.require_size_reduction = parse_bool(value)?,
            "require_time_benefit" => c.selection.require_time_benefit = parse_bool(value)?,
            "reload_read_bps" => c.selection.reload_read_bps = value.parse().map_err(|_| bad())?,
            "eviction_window" => {
                c.selection.eviction_window = match value {
                    "none" => None,
                    v => Some(v.parse().map_err(|_| bad())?),
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
            "canonicalize" => c.canonicalize = parse_bool(value)?,
            _ => return Err(err_at(at, format!("unknown config key {key:?}"))),
        }
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

/// Parse a `--repository--` section starting at `idx`. Returns the
/// repository and the index just past its body.
fn parse_repository(lines: &[&str], idx: usize) -> Result<(Repository, usize)> {
    if lines.get(idx).copied() != Some("--repository--") {
        return Err(err_at(
            idx,
            format!("expected --repository--, got {:?}", lines.get(idx).unwrap_or(&"<eof>")),
        ));
    }
    let end = body_end(lines, idx + 1);
    let repo = Repository::load(&lines[idx + 1..end].join("\n"))
        .map_err(|e| err_at(idx, format!("in --repository-- section: {e}")))?;
    Ok((repo, end))
}

/// Parse a document of this epoch into a [`LoadedState`].
pub(crate) fn parse(text: &str) -> Result<LoadedState> {
    let lines: Vec<&str> = text.lines().collect();
    let first = lines.first().copied().unwrap_or("<empty document>");
    check_epoch(first, HEADER)?;
    if first != HEADER {
        return Err(err_at(0, format!("expected {HEADER:?}, got {first:?}")));
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
        let (repo, end) = parse_repository(&lines, idx)?;
        idx = end;
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
        // A config body without a key (here `canonicalize`) loads with
        // that key's default: how a new optional key fits inside an epoch.
        let back = decode_config(&["reuse_enabled true"], 0).unwrap();
        assert!(back.canonicalize);
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
        // The keys earlier epochs wrote are read as what they are now:
        // unknown.
        for line in [
            "repo_shards 1",
            "store_all true",
            "check_input_versions true",
            "delete_tmp false",
            "dlq_max_entries 64",
            "dlq_max_age_ticks 1000",
        ] {
            match decode_config(&[line], 0).unwrap_err() {
                Error::State { line: 1, msg } => {
                    assert!(msg.contains("unknown config key"), "{msg}")
                }
                other => panic!("{line}: expected Error::State, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_config_value_names_key_and_line() {
        // `dlq` was a disposition of an earlier epoch.
        for (text, key) in
            [("wave_parallel maybe", "wave_parallel"), ("on_failure dlq", "on_failure")]
        {
            match decode_config(&[text], 0).unwrap_err() {
                Error::State { line, msg } => {
                    assert_eq!(line, 1);
                    assert!(msg.contains(key), "{msg}");
                }
                other => panic!("expected Error::State, got {other:?}"),
            }
        }
    }
}
