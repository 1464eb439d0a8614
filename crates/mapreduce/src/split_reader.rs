//! Record-boundary-aware split reading.
//!
//! DFS blocks split files at arbitrary byte offsets, so a record can
//! straddle two blocks. Like Hadoop's `LineRecordReader`, a map task over
//! a split with `offset > 0` skips the partial first record (it belongs to
//! the previous split) and reads past its end to finish its last record.

use restore_common::codec::{self, ColumnSet};
use restore_common::{Result, Tuple};
use restore_dfs::{Dfs, FileSplit};

/// How far past the split end the first read reaches to complete the last
/// record: a couple of typical records, not another split's worth.
const FIRST_TAIL_PROBE: u64 = 1024;
/// Each further probe doubles, up to this much per read.
const MAX_TAIL_PROBE: u64 = 64 * 1024;

/// Read the records logically belonging to `split`, handing each to `row`
/// as it is cut from the bytes, and return the number of payload bytes
/// charged to this split. With `columns`, a row holds exactly those
/// positions (see [`codec::Rows`]); `None` decodes whole records. The
/// first error — the decoder's or `row`'s — ends the read.
pub fn read_split(
    dfs: &Dfs,
    split: &FileSplit,
    file_len: u64,
    columns: Option<&ColumnSet>,
    mut row: impl FnMut(Tuple) -> Result<()>,
) -> Result<u64> {
    if split.len == 0 {
        return Ok(0);
    }
    // One read covers the byte before the split (does the split open
    // mid-record?), the split, and the first tail probe.
    let lead = u64::from(split.offset > 0);
    let split_end = split.offset + split.len;
    let mut probe = FIRST_TAIL_PROBE.min(file_len.saturating_sub(split_end));
    let read_from = split.offset - lead;
    let mut bytes = dfs.read_range(&split.path, read_from, lead + split.len + probe)?;

    // Complete the trailing record: the payload ends after the first
    // newline at or past the split's last byte, or at end of file.
    let mut searched = (lead + split.len - 1) as usize;
    let end = loop {
        if let Some(nl) = bytes[searched..].iter().position(|&b| b == b'\n') {
            break searched + nl + 1;
        }
        let tail_pos = read_from + bytes.len() as u64;
        if tail_pos >= file_len {
            break bytes.len();
        }
        searched = bytes.len();
        probe = (probe * 2).min(MAX_TAIL_PROBE).min(file_len - tail_pos);
        bytes.extend_from_slice(&dfs.read_range(&split.path, tail_pos, probe)?);
    };

    // Skip the partial leading record: a record belongs to the split that
    // contains its first byte, so when the byte just before this split is
    // not a record terminator, the leading bytes continue a record owned
    // by the previous split.
    let body = lead as usize;
    let continues_previous = lead == 1 && bytes[0] != b'\n';
    let start = if !continues_previous {
        body
    } else {
        match bytes[body..end].iter().position(|&b| b == b'\n') {
            Some(nl) => body + nl + 1,
            // No newline in the entire extended split: the single record
            // started earlier, so nothing belongs to this split.
            None => end,
        }
    };

    let payload = &bytes[start..end];
    // A payload that is one bare newline is not a row.
    if payload != b"\n" {
        for decoded in codec::Rows::new(payload, columns) {
            row(decoded?)?;
        }
    }
    Ok(payload.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_common::tuple;
    use restore_dfs::DfsConfig;

    fn dfs_with(block_size: u64, tuples: &[Tuple]) -> (Dfs, u64) {
        let dfs = Dfs::new(DfsConfig { nodes: 3, block_size, replication: 1, node_capacity: None });
        dfs.write_all("/t", &codec::encode_all(tuples)).unwrap();
        let file_len = dfs.file_len("/t").unwrap();
        (dfs, file_len)
    }

    /// Every row of `split`, collected.
    fn rows_of(
        dfs: &Dfs,
        split: &FileSplit,
        file_len: u64,
        columns: Option<&ColumnSet>,
    ) -> (Vec<Tuple>, u64) {
        let mut rows = Vec::new();
        let charged = read_split(dfs, split, file_len, columns, |t| {
            rows.push(t);
            Ok(())
        })
        .unwrap();
        (rows, charged)
    }

    /// Write records, then check that reading all splits yields exactly
    /// the original records (projected onto the column set) with no
    /// duplicates or losses, regardless of where block boundaries fall.
    fn check_partition(block_size: u64, tuples: &[Tuple], columns: Option<&ColumnSet>) {
        let (dfs, file_len) = dfs_with(block_size, tuples);
        let mut seen = Vec::new();
        let mut charged = 0;
        for split in dfs.splits("/t").unwrap() {
            let (ts, payload) = rows_of(&dfs, &split, file_len, columns);
            charged += payload;
            seen.extend(ts);
        }
        let expected: Vec<Tuple> = match columns {
            None => tuples.to_vec(),
            Some(columns) => tuples.iter().map(|t| t.project(columns.as_slice())).collect(),
        };
        assert_eq!(seen, expected, "block_size={block_size} columns={columns:?}");
        assert_eq!(charged, file_len, "payload bytes partition the file");
    }

    fn short_rows(rows: usize) -> Vec<Tuple> {
        (0..rows).map(|i| tuple![i as i64, format!("row-{i}")]).collect()
    }

    #[test]
    fn record_boundaries_respected_across_block_sizes() {
        for bs in [7, 16, 32, 57, 128, 1024] {
            check_partition(bs, &short_rows(100), None);
        }
    }

    #[test]
    fn record_boundaries_respected_with_column_sets() {
        // Nothing read, one of two, and a position past the arity.
        for cols in [ColumnSet::new([]), ColumnSet::new([1]), ColumnSet::new([0, 5])] {
            for bs in [7, 57, 1024] {
                check_partition(bs, &short_rows(100), Some(&cols));
            }
        }
    }

    #[test]
    fn records_longer_than_the_first_probe_and_than_a_block() {
        // ≈ 3 KB rows: three first-probes long, so completing a trailing
        // record takes the doubling path; at 512 B blocks each row also
        // spans several whole splits that own no record at all.
        let rows: Vec<Tuple> =
            (0..12).map(|i| tuple![i as i64, "x".repeat(2900 + 37 * i), format!("r{i}")]).collect();
        assert!(rows[0].encoded_len() as u64 > 2 * FIRST_TAIL_PROBE);
        for bs in [512, 2048, 4096, 10_000] {
            check_partition(bs, &rows, None);
            check_partition(bs, &rows, Some(&ColumnSet::new([0, 2])));
        }
    }

    #[test]
    fn single_record_larger_than_block() {
        let dfs =
            Dfs::new(DfsConfig { nodes: 2, block_size: 8, replication: 1, node_capacity: None });
        let t = tuple!["this-is-a-long-single-record-spanning-blocks"];
        dfs.write_all("/big", &codec::encode_all(std::slice::from_ref(&t))).unwrap();
        let file_len = dfs.file_len("/big").unwrap();
        let splits = dfs.splits("/big").unwrap();
        assert!(splits.len() > 1);
        let mut seen = Vec::new();
        for s in &splits {
            seen.extend(rows_of(&dfs, s, file_len, None).0);
        }
        assert_eq!(seen, vec![t]);
    }

    #[test]
    fn the_first_error_ends_the_read() {
        use restore_common::Error;
        let (dfs, file_len) = dfs_with(1024, &short_rows(10));
        let split = &dfs.splits("/t").unwrap()[0];
        let mut seen = 0;
        let err = read_split(&dfs, split, file_len, None, |_| {
            seen += 1;
            if seen == 3 {
                return Err(Error::Eval("third row".into()));
            }
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("third row"), "{err}");
        assert_eq!(seen, 3, "no row is cut after the one that failed");

        // A record the decoder refuses: the rows before it were handed
        // over, none after it.
        dfs.write_all("/bad", b"ok\t1\nbad\\q\nnever\t3\n").unwrap();
        let split = &dfs.splits("/bad").unwrap()[0];
        let mut rows = Vec::new();
        let result = read_split(&dfs, split, dfs.file_len("/bad").unwrap(), None, |t| {
            rows.push(t);
            Ok(())
        });
        assert!(matches!(result, Err(Error::Codec(_))));
        assert_eq!(rows, vec![tuple!["ok", 1]]);
    }

    #[test]
    fn empty_split_reads_nothing() {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/e", b"").unwrap();
        let splits = dfs.splits("/e").unwrap();
        let (ts, n) = rows_of(&dfs, &splits[0], 0, None);
        assert!(ts.is_empty());
        assert_eq!(n, 0);
    }

    #[test]
    fn a_full_scan_reads_little_more_than_the_file() {
        // PigMix-shaped: ≈ 600 B rows over 24 KiB blocks. Each split may
        // read one byte before it and one first probe past it, no more.
        let rows: Vec<Tuple> =
            (0..8500).map(|i| tuple![format!("user_{i}"), i as i64, "p".repeat(580)]).collect();
        let (dfs, file_len) = dfs_with(24 << 10, &rows);
        let splits = dfs.splits("/t").unwrap();
        assert!(splits.len() >= 200, "{} splits", splits.len());
        let before = dfs.metrics();
        let mut records = 0;
        for split in &splits {
            records += rows_of(&dfs, split, file_len, Some(&ColumnSet::new([0]))).0.len();
        }
        assert_eq!(records, rows.len());
        let read = dfs.metrics().since(&before).bytes_read;
        assert!(read as f64 <= 1.05 * file_len as f64, "scan read {read} B of a {file_len} B file");
    }
}
