//! The DFS cluster: public API tying namenode, datanodes, and metrics
//! together.

use crate::block::{BlockId, FileSplit};
use crate::datanode::DataNode;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::namenode::{validate_path, BlockMeta, FileMeta, FileStatus, NameNode};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use restore_common::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster configuration. Defaults mirror the paper's testbed: 14 worker
/// datanodes, 64 MB blocks, 3-way replication.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    pub nodes: usize,
    pub block_size: u64,
    pub replication: usize,
    /// Per-node capacity in bytes; `None` = unlimited.
    pub node_capacity: Option<u64>,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig { nodes: 14, block_size: 64 << 20, replication: 3, node_capacity: None }
    }
}

impl DfsConfig {
    /// Small configuration convenient for unit tests: 4 nodes, tiny blocks.
    pub fn small_for_tests() -> Self {
        DfsConfig { nodes: 4, block_size: 256, replication: 2, node_capacity: None }
    }
}

struct Inner {
    config: DfsConfig,
    namenode: RwLock<NameNode>,
    nodes: Vec<Mutex<DataNode>>,
    next_block: AtomicU64,
    clock: AtomicU64,
    metrics: Metrics,
}

/// Handle to the distributed file system. Cheap to clone; all clones share
/// the same cluster state.
///
/// ```
/// use restore_dfs::{Dfs, DfsConfig};
///
/// let dfs = Dfs::new(DfsConfig { nodes: 3, block_size: 8, replication: 2, node_capacity: None });
/// dfs.write_all("/data/x", b"hello blocks").unwrap();
/// assert_eq!(dfs.read_all("/data/x").unwrap(), b"hello blocks");
/// // 12 bytes over 8-byte blocks -> 2 input splits for map tasks.
/// assert_eq!(dfs.splits("/data/x").unwrap().len(), 2);
/// // Replication is accounted: 2 replicas of every byte.
/// assert_eq!(dfs.used_bytes(), 24);
/// ```
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Dfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dfs")
            .field("nodes", &self.inner.config.nodes)
            .field("files", &self.inner.namenode.read().file_count())
            .finish()
    }
}

impl Dfs {
    /// Bring up a cluster.
    pub fn new(config: DfsConfig) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one datanode");
        assert!(config.block_size > 0, "block size must be positive");
        let nodes = (0..config.nodes)
            .map(|id| Mutex::new(DataNode::new(id, config.node_capacity)))
            .collect();
        Dfs {
            inner: Arc::new(Inner {
                config,
                namenode: RwLock::new(NameNode::new()),
                nodes,
                next_block: AtomicU64::new(0),
                clock: AtomicU64::new(0),
                metrics: Metrics::default(),
            }),
        }
    }

    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    /// Advance and return the logical clock, with `Release`. A delete
    /// ticks after removing its path, a commit inside the namespace lock
    /// it upserts under (the tick is the file's `mtime`): either way a
    /// reader that sees the tick sees the change (see [`Dfs::now`]).
    fn tick(&self) -> u64 {
        self.inner.clock.fetch_add(1, Ordering::Release) + 1
    }

    /// Current logical time. A reader that sees clock `c` sees every
    /// delete and commit that ticked at or before `c`: the read is
    /// `Acquire` and pairs with the `Release` of the tick each of them
    /// takes. So a reader that found its paths present, at the versions
    /// it expected, at clock `c` knows they still are while the clock
    /// reads `c`.
    pub fn now(&self) -> u64 {
        self.inner.clock.load(Ordering::Acquire)
    }

    /// Point-in-time I/O metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.namenode.read().contains(path)
    }

    /// Run `f` with a lookup of each path's version (`None`: no such
    /// file), every lookup under one namespace read. A version is the
    /// file's `mtime`, the tick of the commit that wrote it: unique, and
    /// larger for every later write of the same path, a recreate after a
    /// delete included. `f` must not call back into this DFS.
    pub fn with_versions<R>(&self, f: impl FnOnce(&dyn Fn(&str) -> Option<u64>) -> R) -> R {
        let nn = self.inner.namenode.read();
        f(&|path| nn.get(path).map(|meta| meta.mtime))
    }

    /// Status of a file.
    pub fn status(&self, path: &str) -> Result<FileStatus> {
        let nn = self.inner.namenode.read();
        let meta = nn.get(path).ok_or_else(|| Error::FileNotFound(path.into()))?;
        Ok(FileStatus {
            path: path.to_string(),
            len: meta.len,
            replication: meta.replication,
            block_count: meta.blocks.len(),
            mtime: meta.mtime,
        })
    }

    /// Logical length of a file in bytes.
    pub fn file_len(&self, path: &str) -> Result<u64> {
        Ok(self.status(path)?.len)
    }

    /// All paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.namenode.read().list_prefix(prefix)
    }

    /// Total logical bytes stored under a prefix (pre-replication), the
    /// quantity Table 1 reports.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.inner.namenode.read().bytes_under(prefix)
    }

    /// Total bytes used across datanodes (replicas included).
    pub fn used_bytes(&self) -> u64 {
        self.inner.nodes.iter().map(|n| n.lock().used()).sum()
    }

    /// Open a streaming writer. Fails if the path exists (HDFS semantics);
    /// use [`Dfs::create_overwrite`] to replace.
    pub fn create(&self, path: &str) -> Result<DfsWriter> {
        if !validate_path(path) {
            return Err(Error::InvalidPath(path.into()));
        }
        if self.exists(path) {
            return Err(Error::FileExists(path.into()));
        }
        Ok(DfsWriter::new(self.clone(), path.to_string()))
    }

    /// Open a streaming writer, replacing any existing file at `path`.
    pub fn create_overwrite(&self, path: &str) -> Result<DfsWriter> {
        if !validate_path(path) {
            return Err(Error::InvalidPath(path.into()));
        }
        Ok(DfsWriter::new(self.clone(), path.to_string()))
    }

    /// Write an entire buffer as a new file.
    pub fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        let mut w = self.create(path)?;
        w.write(data);
        w.close()
    }

    /// Read an entire file into memory.
    pub fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        let len = self.file_len(path)?;
        self.read_range(path, 0, len)
    }

    /// Read `len` bytes starting at `offset`, possibly spanning blocks.
    pub fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        // The namespace stays read-locked across the copy: that costs a
        // writer a memcpy's wait and saves every reader a deep clone of
        // the file's block list.
        let nn = self.inner.namenode.read();
        let meta = nn.get(path).ok_or_else(|| Error::FileNotFound(path.into()))?;
        if offset + len > meta.len {
            return Err(Error::Other(format!(
                "read past end of {path}: offset {offset} + len {len} > {}",
                meta.len
            )));
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = 0u64;
        for bm in &meta.blocks {
            let block_start = pos;
            let block_end = pos + bm.len;
            pos = block_end;
            if block_end <= offset {
                continue;
            }
            if block_start >= offset + len {
                break;
            }
            let data = self.fetch_block(bm)?;
            let from = offset.saturating_sub(block_start) as usize;
            let to = ((offset + len).min(block_end) - block_start) as usize;
            out.extend_from_slice(&data[from..to]);
        }
        self.inner.metrics.add_read(out.len() as u64);
        Ok(out)
    }

    /// Open a sequential reader over the whole file.
    pub fn open(&self, path: &str) -> Result<DfsReader> {
        let len = self.file_len(path)?;
        Ok(DfsReader { dfs: self.clone(), path: path.to_string(), pos: 0, len })
    }

    /// Delete a file, releasing every replica. Returns true if it existed.
    pub fn delete(&self, path: &str) -> bool {
        let meta = self.inner.namenode.write().remove(path);
        match meta {
            Some(meta) => {
                self.release_blocks(&meta);
                self.inner.metrics.files_deleted.fetch_add(1, Ordering::Relaxed);
                self.tick();
                true
            }
            None => false,
        }
    }

    /// Delete every file under a prefix, returning how many were removed.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let paths = self.list(prefix);
        paths.iter().filter(|p| self.delete(p)).count()
    }

    /// Block-aligned input splits for a file (the MR engine's input).
    pub fn splits(&self, path: &str) -> Result<Vec<FileSplit>> {
        let nn = self.inner.namenode.read();
        let meta = nn.get(path).ok_or_else(|| Error::FileNotFound(path.into()))?;
        let mut out = Vec::with_capacity(meta.blocks.len());
        let mut offset = 0u64;
        for (i, bm) in meta.blocks.iter().enumerate() {
            out.push(FileSplit {
                path: path.to_string(),
                block_index: i,
                offset,
                len: bm.len,
                hosts: bm.replicas.clone(),
            });
            offset += bm.len;
        }
        Ok(out)
    }

    fn fetch_block(&self, bm: &BlockMeta) -> Result<Bytes> {
        for &host in &bm.replicas {
            if let Some(data) = self.inner.nodes[host].lock().get(bm.id) {
                return Ok(data);
            }
        }
        Err(Error::Other(format!(
            "block {:?} unreadable: no live replica on {:?}",
            bm.id, bm.replicas
        )))
    }

    fn release_blocks(&self, meta: &FileMeta) {
        for bm in &meta.blocks {
            for &host in &bm.replicas {
                self.inner.nodes[host].lock().evict(bm.id);
            }
        }
    }

    /// Choose replica hosts for one block: round-robin over nodes starting
    /// at a rotating cursor, skipping nodes that are full.
    fn place_replicas(&self, len: u64, cursor: usize) -> Result<Vec<usize>> {
        let n = self.inner.config.nodes;
        let want = self.inner.config.replication.min(n);
        let mut hosts = Vec::with_capacity(want);
        for i in 0..n {
            if hosts.len() == want {
                break;
            }
            let node = (cursor + i) % n;
            if self.inner.nodes[node].lock().can_store(len) {
                hosts.push(node);
            }
        }
        if hosts.len() < want {
            // Report the fullest constraint for diagnosis.
            let node = cursor % n;
            let free = self.inner.nodes[node].lock().free();
            return Err(Error::OutOfStorage { node, needed: len, free });
        }
        Ok(hosts)
    }

    /// Commit a fully buffered file: split into blocks, place replicas,
    /// register in the namespace. Called by [`DfsWriter::close`].
    fn commit_file(&self, path: String, data: Vec<u8>) -> Result<()> {
        let block_size = self.inner.config.block_size as usize;
        let total_len = data.len() as u64;
        let replication = self.inner.config.replication.min(self.inner.config.nodes);
        let payload = Bytes::from(data);

        let mut blocks = Vec::new();
        let mut start = 0usize;
        // Files always have at least one (possibly empty) block so empty
        // outputs still exist as files.
        loop {
            let end = (start + block_size).min(payload.len());
            let chunk = payload.slice(start..end);
            let id = BlockId(self.inner.next_block.fetch_add(1, Ordering::Relaxed));
            let cursor = (id.0 as usize) % self.inner.config.nodes;
            let hosts = self.place_replicas(chunk.len() as u64, cursor)?;
            for &h in &hosts {
                self.inner.nodes[h].lock().put(id, chunk.clone());
            }
            self.inner.metrics.blocks_created.fetch_add(1, Ordering::Relaxed);
            blocks.push(BlockMeta { id, len: chunk.len() as u64, replicas: hosts });
            start = end;
            if start >= payload.len() {
                break;
            }
        }

        self.inner.metrics.add_write(total_len, total_len * replication as u64);
        self.inner.metrics.files_created.fetch_add(1, Ordering::Relaxed);

        let old = {
            let mut nn = self.inner.namenode.write();
            let mtime = self.tick();
            nn.upsert(path, FileMeta { blocks, len: total_len, replication, mtime })
        };
        if let Some(old) = old {
            self.release_blocks(&old);
        }
        Ok(())
    }
}

/// Buffering writer. Data becomes visible atomically on [`DfsWriter::close`],
/// like an HDFS output committer.
pub struct DfsWriter {
    dfs: Dfs,
    path: String,
    buf: Vec<u8>,
    closed: bool,
}

impl DfsWriter {
    fn new(dfs: Dfs, path: String) -> Self {
        DfsWriter { dfs, path, buf: Vec::new(), closed: false }
    }

    /// Append bytes to the file being written.
    pub fn write(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered so far.
    pub fn len(&self) -> u64 {
        self.buf.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Commit the file. Consumes the writer.
    pub fn close(mut self) -> Result<()> {
        self.closed = true;
        let buf = std::mem::take(&mut self.buf);
        let path = std::mem::take(&mut self.path);
        self.dfs.commit_file(path, buf)
    }

    /// Abandon the write without committing.
    pub fn abort(mut self) {
        self.closed = true;
        self.buf.clear();
    }
}

/// Sequential reader with chunked access.
pub struct DfsReader {
    dfs: Dfs,
    path: String,
    pos: u64,
    len: u64,
}

impl DfsReader {
    /// Read up to `n` bytes from the current position.
    pub fn read(&mut self, n: u64) -> Result<Vec<u8>> {
        let take = n.min(self.len - self.pos);
        if take == 0 {
            return Ok(Vec::new());
        }
        let out = self.dfs.read_range(&self.path, self.pos, take)?;
        self.pos += take;
        Ok(out)
    }

    /// Remaining bytes.
    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dfs {
        Dfs::new(DfsConfig { nodes: 4, block_size: 8, replication: 2, node_capacity: None })
    }

    #[test]
    fn write_read_round_trip() {
        let dfs = tiny();
        let data: Vec<u8> = (0u8..=255).collect();
        dfs.write_all("/data/x", &data).unwrap();
        assert_eq!(dfs.read_all("/data/x").unwrap(), data);
        assert_eq!(dfs.file_len("/data/x").unwrap(), 256);
        // 256 bytes / 8-byte blocks = 32 blocks.
        assert_eq!(dfs.status("/data/x").unwrap().block_count, 32);
    }

    #[test]
    fn create_refuses_existing_path() {
        let dfs = tiny();
        dfs.write_all("/x", b"a").unwrap();
        assert!(matches!(dfs.create("/x"), Err(Error::FileExists(_))));
        // Overwrite path works and moves the version (the commit tick).
        let before = dfs.status("/x").unwrap().mtime;
        let mut w = dfs.create_overwrite("/x").unwrap();
        w.write(b"bb");
        w.close().unwrap();
        let st = dfs.status("/x").unwrap();
        assert_eq!(st.len, 2);
        assert!(st.mtime > before, "{} > {before}", st.mtime);
    }

    #[test]
    fn invalid_paths_rejected() {
        let dfs = tiny();
        assert!(matches!(dfs.create("relative"), Err(Error::InvalidPath(_))));
        assert!(matches!(dfs.create("/a//b"), Err(Error::InvalidPath(_))));
    }

    #[test]
    fn read_range_spans_blocks() {
        let dfs = tiny();
        let data: Vec<u8> = (0..64u8).collect();
        dfs.write_all("/r", &data).unwrap();
        // Range [6, 18) crosses the 8-byte block boundary twice.
        assert_eq!(dfs.read_range("/r", 6, 12).unwrap(), data[6..18].to_vec());
        assert!(dfs.read_range("/r", 60, 10).is_err());
    }

    #[test]
    fn replication_places_distinct_nodes() {
        let dfs = tiny();
        dfs.write_all("/x", &[7u8; 20]).unwrap();
        for split in dfs.splits("/x").unwrap() {
            assert_eq!(split.hosts.len(), 2);
            assert_ne!(split.hosts[0], split.hosts[1]);
        }
        // Replicated usage is 2x logical.
        assert_eq!(dfs.used_bytes(), 40);
    }

    #[test]
    fn delete_frees_replicas() {
        let dfs = tiny();
        dfs.write_all("/x", &[1u8; 100]).unwrap();
        assert!(dfs.used_bytes() > 0);
        assert!(dfs.delete("/x"));
        assert_eq!(dfs.used_bytes(), 0);
        assert!(!dfs.delete("/x"));
        assert!(!dfs.exists("/x"));
    }

    #[test]
    fn missing_lists_absent_paths_and_a_delete_moves_the_clock() {
        let dfs = tiny();
        dfs.write_all("/a", b"1").unwrap();
        dfs.write_all("/b", b"2").unwrap();
        let versions = |paths: &[&str]| {
            dfs.with_versions(|version| paths.iter().map(|p| version(p)).collect::<Vec<_>>())
        };
        // A version is the tick of the commit that wrote the file.
        assert_eq!(versions(&["/a", "/z", "/b", "/y"]), [Some(1), None, Some(2), None]);
        let before = dfs.now();
        assert!(!dfs.delete("/z"), "nothing to delete");
        assert_eq!(dfs.now(), before, "a delete of nothing leaves the clock");
        assert!(dfs.delete("/a"));
        assert!(dfs.now() > before);
        assert_eq!(versions(&["/a", "/b"]), [None, Some(2)]);
        let before = dfs.now();
        dfs.create_overwrite("/b").unwrap().close().unwrap();
        assert!(dfs.now() > before, "so does an overwrite");
        assert_eq!(versions(&["/b"]), [Some(dfs.now())]);
        dfs.write_all("/a", b"3").unwrap();
        assert_eq!(versions(&["/a"]), [Some(dfs.now())], "a recreate does not start over");
    }

    #[test]
    fn delete_prefix_scopes() {
        let dfs = tiny();
        dfs.write_all("/out/a", b"1").unwrap();
        dfs.write_all("/out/b", b"2").unwrap();
        dfs.write_all("/keep", b"3").unwrap();
        assert_eq!(dfs.delete_prefix("/out/"), 2);
        assert!(dfs.exists("/keep"));
    }

    #[test]
    fn splits_cover_file_exactly() {
        let dfs = tiny();
        let data = vec![0u8; 30]; // 8+8+8+6
        dfs.write_all("/s", &data).unwrap();
        let splits = dfs.splits("/s").unwrap();
        assert_eq!(splits.len(), 4);
        let mut pos = 0;
        for s in &splits {
            assert_eq!(s.offset, pos);
            pos += s.len;
        }
        assert_eq!(pos, 30);
        assert_eq!(splits[3].len, 6);
    }

    #[test]
    fn empty_file_has_one_empty_block() {
        let dfs = tiny();
        dfs.write_all("/empty", b"").unwrap();
        assert!(dfs.exists("/empty"));
        assert_eq!(dfs.file_len("/empty").unwrap(), 0);
        assert_eq!(dfs.splits("/empty").unwrap().len(), 1);
        assert_eq!(dfs.read_all("/empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn capacity_limit_is_enforced() {
        let dfs = Dfs::new(DfsConfig {
            nodes: 2,
            block_size: 64,
            replication: 2,
            node_capacity: Some(100),
        });
        dfs.write_all("/a", &[0u8; 90]).unwrap();
        let err = dfs.write_all("/b", &[0u8; 90]).unwrap_err();
        assert!(matches!(err, Error::OutOfStorage { .. }));
    }

    #[test]
    fn metrics_track_io() {
        let dfs = tiny();
        let before = dfs.metrics();
        dfs.write_all("/m", &[0u8; 10]).unwrap();
        dfs.read_all("/m").unwrap();
        let delta = dfs.metrics().since(&before);
        assert_eq!(delta.logical_bytes_written, 10);
        assert_eq!(delta.bytes_written, 20); // 2x replication
        assert_eq!(delta.bytes_read, 10);
        assert_eq!(delta.files_created, 1);
    }

    #[test]
    fn sequential_reader_chunks() {
        let dfs = tiny();
        let data: Vec<u8> = (0..50u8).collect();
        dfs.write_all("/seq", &data).unwrap();
        let mut r = dfs.open("/seq").unwrap();
        let mut out = Vec::new();
        loop {
            let chunk = r.read(7).unwrap();
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        assert_eq!(out, data);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn concurrent_reads() {
        let dfs = tiny();
        let data: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        dfs.write_all("/c", &data).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let dfs = dfs.clone();
                let expected = data.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(dfs.read_all("/c").unwrap(), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn overwrite_releases_old_blocks() {
        let dfs = tiny();
        dfs.write_all("/o", &[0u8; 80]).unwrap();
        let used_before = dfs.used_bytes();
        let mut w = dfs.create_overwrite("/o").unwrap();
        w.write(&[1u8; 8]);
        w.close().unwrap();
        assert!(dfs.used_bytes() < used_before);
        assert_eq!(dfs.read_all("/o").unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn writer_abort_leaves_no_file() {
        let dfs = tiny();
        let mut w = dfs.create("/never").unwrap();
        w.write(b"data");
        w.abort();
        assert!(!dfs.exists("/never"));
    }
}
