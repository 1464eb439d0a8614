//! Record-boundary-aware split reading.
//!
//! DFS blocks split files at arbitrary byte offsets, so a record can
//! straddle two blocks. Each input is read in its own format, told apart
//! once per job by the file's last bytes ([`InputFile::open`]).
//!
//! A text file is read like Hadoop's `LineRecordReader`: a map task over
//! a split with `offset > 0` skips the partial first record (it belongs to
//! the previous split) and reads past its end to finish its last record.
//! A split in which no record starts owns nothing and reads no further.
//!
//! A typed file ([`restore_common::typed`]) says where its groups start,
//! so a split reads and decodes exactly the groups that start inside it.
//! It is split where its text would be, one split per block of text
//! ([`InputFile::splits`]): a denser file gets as many map tasks, each
//! reading fewer bytes, not fewer tasks of more records each.

use restore_common::codec::{self, ColumnSet};
use restore_common::typed::{self, Index};
use restore_common::{Error, Result, Tuple};
use restore_dfs::{Dfs, FileSplit};
use std::time::{Duration, Instant};

/// How far past the split end the first read reaches to complete the last
/// record: a couple of typical records, not another split's worth.
const FIRST_TAIL_PROBE: u64 = 1024;
/// Each further probe doubles, up to this much per read.
const MAX_TAIL_PROBE: u64 = 64 * 1024;
/// Text rows decoded per timed batch: enough that the two clock reads a
/// batch costs are lost in its decoding.
const TEXT_BATCH: usize = 64;
/// How much of a file's end [`InputFile::open`] reads: the footer and,
/// for a file of up to a few hundred KB, its whole index.
const TRAILER_PROBE: u64 = 256;

/// One job input as its map tasks read it: its length, its version when
/// opened, and the index of a typed file.
#[derive(Debug, Clone)]
pub struct InputFile {
    path: String,
    len: u64,
    /// The file's `mtime` when it was opened.
    pub(crate) version: u64,
    index: Option<Index>,
}

impl InputFile {
    /// Look at the end of the file at `path`: one read for a text file, or
    /// for a typed one whose index fits the first look.
    pub fn open(dfs: &Dfs, path: &str) -> Result<InputFile> {
        let status = dfs.status(path)?;
        let (len, version) = (status.len, status.mtime);
        let probe = len.min(TRAILER_PROBE);
        let tail = dfs.read_range(path, len - probe, probe)?;
        let path = path.to_string();
        if !typed::is_typed(&tail) {
            return Ok(InputFile { path, len, version, index: None });
        }
        let (index_len, footer_len) = typed::footer(&tail)?;
        let data_len = (len - footer_len as u64)
            .checked_sub(index_len)
            .ok_or_else(|| Error::Codec(format!("{path}: index longer than the file")))?;
        let index_end = tail.len() - footer_len;
        let index = match usize::try_from(index_len) {
            Ok(n) if n <= index_end => Index::parse(&tail[index_end - n..index_end], data_len)?,
            _ => Index::parse(&dfs.read_range(&path, data_len, index_len)?, data_len)?,
        };
        Ok(InputFile { path, len, version, index: Some(index) })
    }

    /// The file's splits: its DFS blocks when it is text; when it is
    /// typed, one per block its text would fill ([`Index::splits`]).
    pub fn splits(&self, dfs: &Dfs) -> Result<Vec<FileSplit>> {
        let Some(index) = &self.index else { return dfs.splits(&self.path) };
        let runs = index.splits(dfs.config().block_size);
        Ok(runs
            .into_iter()
            .enumerate()
            .map(|(block_index, (offset, len))| FileSplit {
                path: self.path.clone(),
                block_index,
                offset,
                len,
                hosts: Vec::new(),
            })
            .collect())
    }
}

/// What reading one split cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitRead {
    /// The payload bytes charged to the split.
    pub payload_bytes: u64,
    /// The time spent decoding them into rows, the handing over excluded.
    pub decode: Duration,
}

/// Read the records logically belonging to `split` of `file`, handing
/// each to `row` in the order they are cut from the bytes. With
/// `columns`, a row holds exactly those positions (see [`codec::Rows`]);
/// `None` decodes whole records. Rows are decoded a batch at a time — a
/// typed group, or 64 text records — so that decoding can be
/// timed apart from `row` at two clock reads a batch. The first error —
/// the decoder's or `row`'s — ends the read; the rows decoded before a
/// decoder error are handed over first.
pub fn read_split(
    dfs: &Dfs,
    split: &FileSplit,
    file: &InputFile,
    columns: Option<&ColumnSet>,
    row: impl FnMut(Tuple) -> Result<()>,
) -> Result<SplitRead> {
    if split.len == 0 {
        return Ok(SplitRead::default());
    }
    match &file.index {
        None => read_text_split(dfs, split, file.len, columns, row),
        Some(index) => read_typed_split(dfs, split, index, columns, row),
    }
}

/// Decode one batch with `fill`, timed into `decode`, then hand its rows
/// to `row`; the decoder's error, if any, after them.
fn batch(
    rows: &mut Vec<Tuple>,
    decode: &mut Duration,
    fill: impl FnOnce(&mut Vec<Tuple>) -> Result<()>,
    row: &mut impl FnMut(Tuple) -> Result<()>,
) -> Result<()> {
    let started = Instant::now();
    let decoded = fill(rows);
    *decode += started.elapsed();
    for t in rows.drain(..) {
        row(t)?;
    }
    decoded
}

/// A typed split: the groups that start inside it, in one read.
fn read_typed_split(
    dfs: &Dfs,
    split: &FileSplit,
    index: &Index,
    columns: Option<&ColumnSet>,
    mut row: impl FnMut(Tuple) -> Result<()>,
) -> Result<SplitRead> {
    let groups = index.starting_in(split.offset, split.offset + split.len);
    let (Some(first), Some(last)) = (groups.first(), groups.last()) else {
        return Ok(SplitRead::default());
    };
    let bytes = dfs.read_range(&split.path, first.start, last.end() - first.start)?;
    let (mut rows, mut decode) = (Vec::new(), Duration::ZERO);
    for g in groups {
        let at = (g.start - first.start) as usize;
        let group = &bytes[at..at + g.len as usize];
        let fill = |rows: &mut Vec<Tuple>| {
            typed::decode_group(group, g, columns, |t| {
                rows.push(t);
                Ok(())
            })
        };
        batch(&mut rows, &mut decode, fill, &mut row)?;
    }
    Ok(SplitRead { payload_bytes: bytes.len() as u64, decode })
}

fn read_text_split(
    dfs: &Dfs,
    split: &FileSplit,
    file_len: u64,
    columns: Option<&ColumnSet>,
    mut row: impl FnMut(Tuple) -> Result<()>,
) -> Result<SplitRead> {
    // One read covers the byte before the split (does the split open
    // mid-record?), the split, and the first tail probe.
    let lead = u64::from(split.offset > 0);
    let split_end = split.offset + split.len;
    let mut probe = FIRST_TAIL_PROBE.min(file_len.saturating_sub(split_end));
    let read_from = split.offset - lead;
    let mut bytes = dfs.read_range(&split.path, read_from, lead + split.len + probe)?;

    // A record belongs to the split that contains its first byte: one
    // starts inside this split when it opens the file or follows a
    // newline at or before the split's second-to-last byte. Without one,
    // the split lies inside a record owned by an earlier split, and
    // completing that record is not this split's business.
    let last = (lead + split.len - 1) as usize;
    if lead == 1 && !bytes[..last].contains(&b'\n') {
        return Ok(SplitRead::default());
    }

    // Complete the trailing record: the payload ends after the first
    // newline at or past the split's last byte, or at end of file.
    let mut searched = last;
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

    // Skip the partial leading record: when the byte just before this
    // split is not a record terminator, the leading bytes continue a
    // record owned by the previous split (one starts later in this one).
    let body = lead as usize;
    let start = if lead == 1 && bytes[0] != b'\n' {
        let nl = bytes[body..last].iter().position(|&b| b == b'\n');
        body + nl.expect("a record starts inside the split") + 1
    } else {
        body
    };

    let payload = &bytes[start..end];
    let (mut rows, mut decode) = (Vec::with_capacity(TEXT_BATCH), Duration::ZERO);
    // A payload that is one bare newline is not a row.
    if payload != b"\n" {
        let mut decoder = codec::Rows::new(payload, columns);
        let mut more = true;
        while more {
            let fill = |rows: &mut Vec<Tuple>| {
                for decoded in decoder.by_ref().take(TEXT_BATCH) {
                    rows.push(decoded?);
                }
                more = rows.len() == TEXT_BATCH;
                Ok(())
            };
            batch(&mut rows, &mut decode, fill, &mut row)?;
        }
    }
    Ok(SplitRead { payload_bytes: payload.len() as u64, decode })
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_common::tuple;
    use restore_dfs::DfsConfig;

    fn dfs_with(block_size: u64, bytes: &[u8]) -> (Dfs, InputFile) {
        let dfs = Dfs::new(DfsConfig { nodes: 3, block_size, replication: 1, node_capacity: None });
        dfs.write_all("/t", bytes).unwrap();
        let file = InputFile::open(&dfs, "/t").unwrap();
        (dfs, file)
    }

    /// Every row of `split`, collected.
    fn rows_of(
        dfs: &Dfs,
        split: &FileSplit,
        file: &InputFile,
        columns: Option<&ColumnSet>,
    ) -> (Vec<Tuple>, u64) {
        let mut rows = Vec::new();
        let read = read_split(dfs, split, file, columns, |t| {
            rows.push(t);
            Ok(())
        })
        .unwrap();
        (rows, read.payload_bytes)
    }

    /// Write records, then check that reading all splits yields exactly
    /// the original records (projected onto the column set) with no
    /// duplicates or losses, regardless of where block boundaries fall.
    fn check_partition(block_size: u64, tuples: &[Tuple], columns: Option<&ColumnSet>) {
        check_partition_of(block_size, tuples, &codec::encode_all(tuples), columns);
    }

    /// [`check_partition`] over `bytes`, the file `tuples` encode to. The
    /// payload bytes charged partition a text file, and a typed file's
    /// groups: everything but its trailer.
    fn check_partition_of(
        block_size: u64,
        tuples: &[Tuple],
        bytes: &[u8],
        columns: Option<&ColumnSet>,
    ) {
        let (dfs, file) = dfs_with(block_size, bytes);
        let expected: Vec<Tuple> = match columns {
            None => tuples.to_vec(),
            Some(columns) => tuples.iter().map(|t| t.project(columns.as_slice())).collect(),
        };
        let payload = match &file.index {
            None => file.len,
            Some(index) => index.groups().last().map_or(0, |g| g.end()),
        };
        // The file's own splits, and (the same for text) its DFS blocks.
        for splits in [file.splits(&dfs).unwrap(), dfs.splits("/t").unwrap()] {
            let mut seen = Vec::new();
            let mut charged = 0;
            for split in splits {
                let (ts, bytes) = rows_of(&dfs, &split, &file, columns);
                charged += bytes;
                seen.extend(ts);
            }
            assert_eq!(
                format!("{seen:?}"),
                format!("{expected:?}"),
                "block_size={block_size} columns={columns:?}"
            );
            assert_eq!(charged, payload, "payload bytes partition the file");
        }
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
        let t = tuple!["this-is-a-long-single-record-spanning-blocks"];
        let (dfs, file) = dfs_with(8, &codec::encode_all(std::slice::from_ref(&t)));
        let splits = dfs.splits("/t").unwrap();
        assert!(splits.len() > 1);
        let mut seen = Vec::new();
        for s in &splits {
            seen.extend(rows_of(&dfs, s, &file, None).0);
        }
        assert_eq!(seen, vec![t]);
    }

    #[test]
    fn the_first_error_ends_the_read() {
        use restore_common::Error;
        let (dfs, file) = dfs_with(1024, &codec::encode_all(&short_rows(10)));
        let split = &dfs.splits("/t").unwrap()[0];
        let mut seen = 0;
        let err = read_split(&dfs, split, &file, None, |_| {
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
        let bad = InputFile::open(&dfs, "/bad").unwrap();
        let result = read_split(&dfs, split, &bad, None, |t| {
            rows.push(t);
            Ok(())
        });
        assert!(matches!(result, Err(Error::Codec(_))));
        assert_eq!(rows, vec![tuple!["ok", 1]]);
    }

    #[test]
    fn empty_split_reads_nothing() {
        let (dfs, file) = dfs_with(64, b"");
        assert!(file.index.is_none());
        let splits = dfs.splits("/t").unwrap();
        let (ts, n) = rows_of(&dfs, &splits[0], &file, None);
        assert!(ts.is_empty());
        assert_eq!(n, 0);
    }

    #[test]
    fn a_full_scan_reads_little_more_than_the_file() {
        // PigMix-shaped: ≈ 600 B rows over 24 KiB blocks. Each split may
        // read one byte before it and one first probe past it, no more.
        let rows: Vec<Tuple> =
            (0..8500).map(|i| tuple![format!("user_{i}"), i as i64, "p".repeat(580)]).collect();
        let (dfs, file) = dfs_with(24 << 10, &codec::encode_all(&rows));
        let splits = dfs.splits("/t").unwrap();
        assert!(splits.len() >= 200, "{} splits", splits.len());
        let before = dfs.metrics();
        let mut records = 0;
        for split in &splits {
            records += rows_of(&dfs, split, &file, Some(&ColumnSet::new([0]))).0.len();
        }
        assert_eq!(records, rows.len());
        let read = dfs.metrics().since(&before).bytes_read;
        let len = file.len;
        assert!(read as f64 <= 1.05 * len as f64, "scan read {read} B of a {len} B file");
    }

    #[test]
    fn a_split_inside_one_record_reads_only_its_own_bytes() {
        // One ≈ 150 KB record over ten 16 KiB blocks, like L8's one group:
        // the split where it starts reads it to its end, every other split
        // reads its own bytes (and one probe) and owns nothing.
        let t = tuple!["head", "r".repeat(150_000), 7];
        let (dfs, file) = dfs_with(16 << 10, &codec::encode_all(std::slice::from_ref(&t)));
        let splits = dfs.splits("/t").unwrap();
        assert!(splits.len() >= 8, "{} splits", splits.len());
        let before = dfs.metrics();
        let mut seen = Vec::new();
        for split in &splits {
            seen.extend(rows_of(&dfs, split, &file, None).0);
        }
        assert_eq!(seen, vec![t]);
        let read = dfs.metrics().since(&before).bytes_read;
        let len = file.len;
        assert!(read <= 2 * len, "splits read {read} B of a {len} B file");
    }

    #[test]
    fn typed_files_partition_by_group_at_every_block_size() {
        // Rows of every kind, some longer than a group, so groups of one
        // record and groups of hundreds both cross block boundaries.
        let rows: Vec<Tuple> = (0..6000)
            .map(|i| {
                let text = if i % 997 == 0 { "w".repeat(5000) } else { format!("row-{i}") };
                Tuple::from_values(vec![
                    restore_common::Value::Int(i as i64 - 300),
                    restore_common::Value::str(text),
                    restore_common::Value::Double(f64::from(i) / 8.0),
                    restore_common::Value::Bag(vec![tuple![i as i64, "007"]].into()),
                ])
            })
            .collect();
        let bytes = typed::encode_file(&rows);
        assert!(typed::is_typed(&bytes));
        let sets = [
            None,
            Some(ColumnSet::new([])),
            Some(ColumnSet::new([1, 3])),
            Some(ColumnSet::new([0, 9])),
        ];
        for bs in [7, 64, 1000, 4096, 10_000] {
            for cols in &sets {
                check_partition_of(bs, &rows, &bytes, cols.as_ref());
            }
        }
        // Split by text bytes: as many splits as the text has blocks, give
        // or take the groups' granularity.
        let (dfs, file) = dfs_with(32 << 10, &bytes);
        assert!(file.index.is_some());
        let text_blocks = codec::encode_all(&rows).len().div_ceil(32 << 10);
        let splits = file.splits(&dfs).unwrap().len();
        assert!(bytes.len().div_ceil(32 << 10) < text_blocks, "the typed file is denser");
        assert!((text_blocks..=text_blocks + 1).contains(&splits), "{splits} of {text_blocks}");
    }
}
