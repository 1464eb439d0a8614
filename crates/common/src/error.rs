//! Shared error type for all ReStore crates.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the DFS, the MapReduce engine, the dataflow compiler,
/// and ReStore itself.
///
/// A single error enum keeps cross-crate plumbing simple; each variant
/// carries enough context to be actionable in tests and examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A DFS path does not exist.
    FileNotFound(String),
    /// A DFS path already exists and overwrite was not requested.
    FileExists(String),
    /// A path is syntactically invalid (empty, no leading '/', ...).
    InvalidPath(String),
    /// The DFS cluster cannot satisfy the requested replication.
    ReplicationUnsatisfiable { wanted: usize, live_nodes: usize },
    /// A datanode ran out of configured capacity.
    OutOfStorage { node: usize, needed: u64, free: u64 },
    /// Query text failed to lex/parse. Holds position and message.
    Parse { line: usize, col: usize, msg: String },
    /// Semantic analysis failed (unknown alias, bad field reference, ...).
    Plan(String),
    /// Expression evaluation failed at run time.
    Eval(String),
    /// A MapReduce job failed.
    Job(String),
    /// The workflow DAG is malformed (cycle, missing dependency).
    Workflow(String),
    /// Repository (de)serialization failure.
    Repository(String),
    /// A base checkpoint is not whole: it failed to decode, was cut, or
    /// lacks its opening or closing record. Carries the 1-based record
    /// ordinal (0 for the header), so a damaged base points at itself.
    Base { record: usize, msg: String },
    /// A snapshot-journal segment failed to decode. Carries the 0-based
    /// segment index and the 1-based record ordinal within it, so a
    /// corrupt journal points at the offending record instead of a
    /// generic "malformed journal".
    Journal { segment: usize, record: usize, msg: String },
    /// A journal segment, base or delta, or an earlier epoch's
    /// `restore-state` document, whose first line names another format
    /// epoch than the one this build reads. Carries that line and both
    /// epochs.
    Epoch { line: String, found: u64, reads: u64 },
    /// Record decoding failure when reading DFS files.
    Codec(String),
    /// Catch-all with context.
    Other(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::FileNotFound(p) => write!(f, "file not found: {p}"),
            Error::FileExists(p) => write!(f, "file already exists: {p}"),
            Error::InvalidPath(p) => write!(f, "invalid path: {p:?}"),
            Error::ReplicationUnsatisfiable { wanted, live_nodes } => {
                write!(f, "cannot place {wanted} replicas on {live_nodes} live datanodes")
            }
            Error::OutOfStorage { node, needed, free } => {
                write!(f, "datanode {node} out of storage: needed {needed} bytes, {free} free")
            }
            Error::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Job(m) => write!(f, "job error: {m}"),
            Error::Workflow(m) => write!(f, "workflow error: {m}"),
            Error::Repository(m) => write!(f, "repository error: {m}"),
            Error::Base { record, msg } => write!(f, "base error in record {record}: {msg}"),
            Error::Journal { segment, record, msg } => {
                write!(f, "journal error in segment {segment} record {record}: {msg}")
            }
            Error::Epoch { line, found, reads } => {
                write!(f, "{line:?} is format epoch {found}; this build reads epoch {reads} only")
            }
            Error::Codec(m) => write!(f, "codec error: {m}"),
            Error::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Build a parse error with position information.
    pub fn parse(line: usize, col: usize, msg: impl Into<String>) -> Self {
        Error::Parse { line, col, msg: msg.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::FileNotFound("/data/x".into());
        assert_eq!(e.to_string(), "file not found: /data/x");
        let e = Error::OutOfStorage { node: 3, needed: 10, free: 5 };
        assert!(e.to_string().contains("datanode 3"));
        let e = Error::parse(4, 7, "unexpected token");
        assert!(e.to_string().contains("4:7"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::Plan("x".into()), Error::Plan("x".into()));
        assert_ne!(Error::Plan("x".into()), Error::Eval("x".into()));
    }
}
