//! The format epoch, and the config codec every durable record of a
//! configuration shares.
//!
//! A session is saved in one format, the journal's (see
//! [`crate::journal`]): a base checkpoint and a delta are both
//! `restore-journal` segments of framed, checksummed records. One format
//! epoch is readable, the one this build writes. Its number, [`EPOCH`],
//! ends the first line of every segment (`restore-journal v9`); a segment
//! that names another epoch, or a `restore-state` document of an earlier
//! one, is refused with [`Error::Epoch`](restore_common::Error::Epoch),
//! which shows the line and names both epochs. A format change either
//! fits inside the epoch — a new optional config key, which a record
//! without it reads as its default — or bumps it. Epoch 6 bumped it
//! because an entry's input versions became DFS commit ticks: an earlier
//! document's versions count writes per path, and a count can equal a
//! later tick. Epoch 7 bumped it because an entry records its own file —
//! the version it was committed at and whether it is typed. Epoch 8
//! bumped it because the path → plan fact became one record per stored
//! file. Epoch 9 bumped it because a base checkpoint stopped being a
//! `restore-state` document and became a segment: a `repository` record
//! per namespace and a closing `base-end` record carrying the anchor.
//!
//! Config keys are written in the fixed order of [`encode_config`]; an
//! unknown key or a malformed value is an error, a missing key keeps its
//! default. The fixed order is what makes
//! `save_state → recover → save_state` byte-identical.

use crate::driver::ReStoreConfig;
use crate::enumerator::Heuristic;
use crate::failure::FailureDisposition;
use crate::plan_text;

/// Expands to the format epoch as a literal, so the segment header is
/// built from the one number.
macro_rules! epoch {
    () => {
        9
    };
}
pub(crate) use epoch;

/// The format epoch every segment, base or delta, names in its first line.
pub const EPOCH: u64 = epoch!();

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

/// Decode the `key value` lines of a config record's body. Unknown keys
/// and malformed values are errors naming the line; missing keys keep
/// their defaults (so a key added within the epoch is optional).
pub(crate) fn decode_config(body: &str) -> Result<ReStoreConfig, String> {
    let mut c = ReStoreConfig::default();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let (key, value) =
            line.split_once(' ').ok_or_else(|| format!("config line has no value: {line:?}"))?;
        let bad = || format!("bad value for config key {key}: {line:?}");
        let parse_bool = |v: &str| match v {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(bad()),
        };
        match key {
            "reuse_enabled" => c.reuse_enabled = parse_bool(value)?,
            "heuristic" => c.heuristic = heuristic_from(value).ok_or_else(bad)?,
            "repo_prefix" => c.repo_prefix = unquote(value).ok_or_else(bad)?,
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
            _ => return Err(format!("unknown config key {key:?} in {line:?}")),
        }
    }
    Ok(c)
}

/// Invert `{:?}` string quoting. The input must be exactly one quoted
/// string: [`plan_text::unquote`] trims, which would let a padded field
/// slip through.
pub(crate) fn unquote(s: &str) -> Option<String> {
    let quoted = s.len() >= 2 && s.starts_with('"') && s.ends_with('"');
    quoted.then(|| plan_text::unquote(s).ok()).flatten()
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
        let back = decode_config(&text).unwrap();
        assert_eq!(back, config);
        // And encoding is canonical: re-encoding is byte-identical.
        assert_eq!(encode_config(&back), text);
    }

    #[test]
    fn config_codec_default_round_trips() {
        let text = encode_config(&ReStoreConfig::default());
        assert_eq!(decode_config(&text).unwrap(), ReStoreConfig::default());
    }

    #[test]
    fn pre_v5_documents_default_the_new_keys() {
        // A config body without a key (here `canonicalize`) loads with
        // that key's default: how a new optional key fits inside an epoch.
        let back = decode_config("reuse_enabled true\n").unwrap();
        assert!(back.canonicalize);
    }

    #[test]
    fn unknown_config_key_names_its_line() {
        let msg = decode_config("reuse_enabled true\nfrobnicate 7\n").unwrap_err();
        assert!(msg.contains("unknown config key \"frobnicate\""), "{msg}");
        assert!(msg.contains("\"frobnicate 7\""), "the line itself: {msg}");
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
            let msg = decode_config(line).unwrap_err();
            assert!(msg.contains("unknown config key") && msg.contains(line), "{line}: {msg}");
        }
    }

    #[test]
    fn bad_config_value_names_key_and_line() {
        // `dlq` was a disposition of an earlier epoch.
        for (text, key) in
            [("wave_parallel maybe", "wave_parallel"), ("on_failure dlq", "on_failure")]
        {
            let msg = decode_config(text).unwrap_err();
            assert!(msg.contains(key) && msg.contains(text), "{msg}");
        }
        let msg = decode_config("repo_prefix /restore").unwrap_err();
        assert!(msg.contains("repo_prefix"), "an unquoted prefix: {msg}");
    }
}
