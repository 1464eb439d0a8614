//! The correctness oracle: every timed result is compared, byte for
//! byte, with what a sequential no-reuse session wrote for the same
//! query.

use crate::env::Env;
use crate::workload::Workload;
use restore_dfs::Dfs;
use std::collections::HashMap;

/// Where the no-reuse reference pass stores its outputs.
const REFERENCE_OUT: &str = "/out/reference";

/// Length and 64-bit hash of one output file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: u64,
    pub hash: u64,
}

/// FNV-1a, 64 bit.
pub fn digest(bytes: &[u8]) -> Digest {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Digest { len: bytes.len() as u64, hash }
}

/// Expected output of every query of a mix, in mix order.
pub struct Oracle {
    pub expected: Vec<Digest>,
}

impl Oracle {
    /// Run every query of the workload's mix once on a sequential
    /// no-reuse driver, record its output's digest, and delete what the
    /// pass wrote.
    pub fn build(env: &Env, workload: Workload) -> Oracle {
        let driver = env.reference_driver();
        let expected = workload
            .mix(REFERENCE_OUT)
            .iter()
            .map(|(label, text)| {
                let exec = driver
                    .execute_query(text, &format!("/wf/reference/{label}"))
                    .unwrap_or_else(|e| panic!("reference run of {label} failed: {e}"));
                let bytes = env.dfs().read_all(&exec.final_output).expect("reference output");
                digest(&bytes)
            })
            .collect();
        env.dfs().delete_prefix("/wf/reference");
        env.dfs().delete_prefix(REFERENCE_OUT);
        Oracle { expected }
    }
}

/// Digests of result files, remembered per file version: a warm
/// submission returns the same stored file tens of thousands of times,
/// and hashing it again each time would measure the oracle, not the
/// system. `mtime` is the DFS's logical clock at the file's last write,
/// so a rewritten file is hashed afresh.
#[derive(Default)]
pub struct Verifier {
    seen: HashMap<String, (u64, Digest)>,
}

impl Verifier {
    /// Does the file at `path` hold exactly the expected bytes?
    pub fn matches(&mut self, dfs: &Dfs, path: &str, expected: Digest) -> bool {
        let Ok(status) = dfs.status(path) else { return false };
        if let Some((mtime, seen)) = self.seen.get(path) {
            if *mtime == status.mtime {
                return *seen == expected;
            }
        }
        let Ok(bytes) = dfs.read_all(path) else { return false };
        let actual = digest(&bytes);
        self.seen.insert(path.to_string(), (status.mtime, actual));
        actual == expected
    }

    /// Drop remembered files under a deleted prefix.
    pub fn forget_prefix(&mut self, prefix: &str) {
        self.seen.retain(|path, _| !path.starts_with(prefix));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dfs::DfsConfig;

    #[test]
    fn digest_tells_length_and_content_apart() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
        assert_eq!(digest(b"").len, 0);
    }

    #[test]
    fn verifier_rehashes_a_rewritten_file_and_rejects_a_missing_one() {
        let dfs =
            Dfs::new(DfsConfig { nodes: 2, block_size: 64, replication: 1, node_capacity: None });
        dfs.write_all("/out/a", b"first").unwrap();
        let mut v = Verifier::default();
        assert!(v.matches(&dfs, "/out/a", digest(b"first")));
        assert!(!v.matches(&dfs, "/out/a", digest(b"other")));
        dfs.delete("/out/a");
        dfs.write_all("/out/a", b"second").unwrap();
        assert!(v.matches(&dfs, "/out/a", digest(b"second")));
        assert!(!v.matches(&dfs, "/out/missing", digest(b"second")));
    }
}
