//! Property-based tests of the DFS: storage round trips, split
//! partitioning, and accounting invariants under arbitrary workloads.

use proptest::prelude::*;
use restore_dfs::{Dfs, DfsConfig};

fn cluster(block_size: u64, replication: usize) -> Dfs {
    Dfs::new(DfsConfig { nodes: 5, block_size, replication, node_capacity: None })
}

proptest! {
    /// Whatever we write, we read back, regardless of block size.
    #[test]
    fn write_read_round_trip(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        block_size in 1u64..512,
        replication in 1usize..4,
    ) {
        let dfs = cluster(block_size, replication);
        dfs.write_all("/f", &data).unwrap();
        prop_assert_eq!(dfs.read_all("/f").unwrap(), data);
    }

    /// Splits tile the file exactly: contiguous, non-overlapping, total
    /// length = file length, each split within block size.
    #[test]
    fn splits_partition_file(
        len in 0usize..5000,
        block_size in 1u64..700,
    ) {
        let dfs = cluster(block_size, 2);
        dfs.write_all("/f", &vec![7u8; len]).unwrap();
        let splits = dfs.splits("/f").unwrap();
        let mut pos = 0u64;
        for s in &splits {
            prop_assert_eq!(s.offset, pos);
            prop_assert!(s.len <= block_size);
            pos += s.len;
        }
        prop_assert_eq!(pos, len as u64);
        // Every split has the requested replica count.
        for s in &splits {
            prop_assert_eq!(s.hosts.len(), 2);
        }
    }

    /// Arbitrary byte ranges read the same bytes as a full read sliced.
    #[test]
    fn read_range_equals_slice(
        data in prop::collection::vec(any::<u8>(), 1..2048),
        block_size in 1u64..300,
        range in (0usize..2048, 0usize..2048),
    ) {
        let dfs = cluster(block_size, 1);
        dfs.write_all("/f", &data).unwrap();
        let (a, b) = range;
        let lo = a.min(b) % data.len();
        let hi = (a.max(b) % data.len()).max(lo);
        let got = dfs.read_range("/f", lo as u64, (hi - lo) as u64).unwrap();
        prop_assert_eq!(&got[..], &data[lo..hi]);
    }

    /// Used bytes = replication × logical bytes, and deletion returns the
    /// cluster to its previous footprint.
    #[test]
    fn accounting_balances(
        sizes in prop::collection::vec(0usize..2000, 1..6),
        replication in 1usize..4,
    ) {
        let dfs = cluster(128, replication);
        let mut logical = 0u64;
        for (i, len) in sizes.iter().enumerate() {
            dfs.write_all(&format!("/f{i}"), &vec![1u8; *len]).unwrap();
            logical += *len as u64;
        }
        prop_assert_eq!(dfs.used_bytes(), logical * replication as u64);
        prop_assert_eq!(dfs.bytes_under("/"), logical);
        for i in 0..sizes.len() {
            dfs.delete(&format!("/f{i}"));
        }
        prop_assert_eq!(dfs.used_bytes(), 0);
    }

    /// Across any mix of overwrites, deletes and recreates over a few
    /// paths, every commit's version is strictly above every earlier
    /// one, and a delete leaves no version behind.
    #[test]
    fn versions_count_overwrites(ops in prop::collection::vec((0u8..3, 0usize..3), 1..24)) {
        let dfs = cluster(64, 1);
        let mut last = None;
        for (op, p) in ops {
            let path = format!("/v{p}");
            let version = || dfs.with_versions(|v| v(&path));
            match op {
                0 => {
                    dfs.delete(&path);
                    prop_assert_eq!(version(), None);
                    continue;
                }
                1 => {
                    let committed = dfs.create_overwrite(&path).unwrap().close().unwrap();
                    prop_assert_eq!(version(), Some(committed));
                }
                _ => {
                    dfs.delete(&path);
                    dfs.write_all(&path, &[op]).unwrap();
                }
            }
            let now = version().unwrap();
            prop_assert!(last.is_none_or(|l| now > l), "{} after {:?}", now, last);
            prop_assert_eq!(dfs.status(&path).unwrap().mtime, now);
            last = Some(now);
        }
    }
}
