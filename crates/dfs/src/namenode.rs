//! Namenode: the file namespace.

use crate::block::BlockId;
use std::collections::BTreeMap;

/// Metadata of one block of a file: identity, length, replica hosts.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    pub id: BlockId,
    pub len: u64,
    pub replicas: Vec<usize>,
}

/// Metadata of one file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    pub blocks: Vec<BlockMeta>,
    pub len: u64,
    pub replication: usize,
    /// The cluster clock's tick at the commit that wrote the file (not
    /// wall time). Each commit takes its own tick, so it is the file's
    /// version: a later write under the same path, an overwrite or a
    /// recreate after a delete, always carries a larger one. ReStore's
    /// eviction rule 4 compares recorded input versions against it.
    pub mtime: u64,
}

/// Public status view of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    pub path: String,
    pub len: u64,
    pub replication: usize,
    pub block_count: usize,
    pub mtime: u64,
}

/// The namespace: a sorted map so prefix listing is a range scan.
#[derive(Debug, Default)]
pub struct NameNode {
    files: BTreeMap<String, FileMeta>,
}

impl NameNode {
    pub fn new() -> Self {
        NameNode::default()
    }

    pub fn get(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }

    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Insert or replace a file entry. Returns the previous entry, whose
    /// blocks the caller must release.
    pub fn upsert(&mut self, path: String, meta: FileMeta) -> Option<FileMeta> {
        self.files.insert(path, meta)
    }

    pub fn remove(&mut self, path: &str) -> Option<FileMeta> {
        self.files.remove(path)
    }

    /// All paths with the given prefix, in lexicographic order.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Total logical bytes (without replication) under a prefix.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(_, m)| m.len)
            .sum()
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &FileMeta)> {
        self.files.iter()
    }
}

/// Validate a DFS path: absolute, no empty segments, no traversal.
pub fn validate_path(path: &str) -> bool {
    if !path.starts_with('/') || path.len() < 2 {
        return false;
    }
    path.split('/')
        .skip(1)
        .all(|seg| !seg.is_empty() && seg != "." && seg != ".." && !seg.contains('\0'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(len: u64, mtime: u64) -> FileMeta {
        FileMeta { blocks: vec![], len, replication: 3, mtime }
    }

    /// The version is the commit's tick, kept as given: the namenode keeps
    /// no per-path counter, so a path removed and written again does not
    /// start over.
    #[test]
    fn upsert_bumps_version() {
        let mut nn = NameNode::new();
        assert!(nn.upsert("/a".into(), meta(1, 1)).is_none());
        assert_eq!(nn.upsert("/a".into(), meta(2, 2)).unwrap().mtime, 1);
        assert_eq!(nn.get("/a").unwrap().mtime, 2);
        nn.remove("/a");
        assert!(nn.upsert("/a".into(), meta(3, 4)).is_none());
        assert_eq!(nn.get("/a").unwrap().mtime, 4);
    }

    #[test]
    fn prefix_listing_is_sorted_and_scoped() {
        let mut nn = NameNode::new();
        for p in ["/out/b", "/out/a", "/outx", "/other"] {
            nn.upsert(p.into(), meta(10, 0));
        }
        assert_eq!(nn.list_prefix("/out/"), vec!["/out/a", "/out/b"]);
        assert_eq!(nn.bytes_under("/out/"), 20);
        assert_eq!(nn.bytes_under("/"), 40);
    }

    #[test]
    fn path_validation() {
        assert!(validate_path("/a"));
        assert!(validate_path("/a/b/c.txt"));
        assert!(!validate_path("a/b"));
        assert!(!validate_path("/"));
        assert!(!validate_path("/a//b"));
        assert!(!validate_path("/a/../b"));
        assert!(!validate_path("/a/./b"));
    }
}
