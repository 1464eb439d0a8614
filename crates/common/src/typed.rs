//! The typed value codec, and the stored format built on it.
//!
//! One binary grammar carries every value that the system writes for
//! itself to read back: the shuffle's runs (`restore_mapreduce::shuffle`)
//! and the files ReStore stores — the compiler's inter-job temporaries and
//! the candidates its injected Stores materialize. The text
//! [`crate::codec`] is left for what a user writes or reads: Load inputs
//! and final outputs. Text re-infers a value's type on read, so
//! `Str("007")` comes back `Int(7)`; here every value says its type, and
//! a round trip is exact down to the bits of a double.
//!
//! ```text
//! value := tag payload             tag = arg << 3 | type
//!   type 0 null                    arg 0
//!   type 1 int                     arg 0, zig-zag varint
//!   type 2 decimal double          arg k ≤ 22, zig-zag varint(m): the double m / 10^k
//!   type 3 raw double              arg 0, 8 bytes of IEEE bits, little-endian
//!   type 4 string                  arg = byte length < 31, or 31 then varint(len); UTF-8
//!   type 5 bag                     arg = tuple count < 31, or 31 then varint(count); tuples
//! tuple := varint(arity) value*
//! ```
//!
//! The grammar is compact because stored bytes are what a reused result
//! costs to read: a short string or a small int is as long as its text
//! and its separator, a null is one byte, and a double is a decimal
//! whenever `m as f64 / 10^k` is the double bit for bit. With `|m| < 2^53`
//! and `k ≤ 22` both operands are exact doubles and IEEE division rounds
//! correctly (Clinger's exact case), so a decimal the encoder checked is
//! one the decoder's division gives back to the bit. What is not one —
//! `-0.0`, NaN payloads, ±inf, long fractions — is its raw 8 bytes.
//!
//! ## Stored files
//!
//! ```text
//! file   := group+ index footer    |  (nothing, for no records)
//! group  := record+                ≈ 4 KiB; never spans two task chunks
//! record := value*                 as many as the group's arity; 0 when it is 0
//! index  := (varint(group bytes) varint(records) varint(arity) varint(text bytes))+
//! footer := varint(index bytes), bytes reversed · version · magic
//! ```
//!
//! The records of a group share one arity, so a record is its values and
//! nothing else (a record of no fields is one 0 byte, so that every record
//! is counted in bytes); a record of another arity starts a new group. A
//! relation's records are then no longer than their text, whose
//! separators the tags replace; the trailer is what a file adds.
//!
//! A task encodes its share of an output as a [`Chunk`] of whole groups;
//! the engine commits the chunks in order and then their [`trailer`]. The
//! footer is read from the end: the magic's last byte is `0xFF`, which no
//! UTF-8 text holds, so one look at a file's last bytes tells the two
//! formats apart ([`is_typed`]), and an empty file is empty in both. A
//! split decodes exactly the groups that start inside it
//! ([`Index::starting_in`]); the index also says how long each group's
//! records would be as text, so a file is split where its text would be
//! ([`Index::splits`]). Each group's record count is checked, so a damaged
//! file is an error or the same number of records, never a shorter answer.

use crate::bag::{Bag, BagBuilder};
use crate::codec::{ColumnSet, Pick};
use crate::error::{Error, Result};
use crate::small_str::{check_utf8, SmallStr};
use crate::tuple::Tuple;
use crate::value::Value;

const NULL: u8 = 0;
const INT: u8 = 1;
const DECIMAL: u8 = 2;
const RAW_DOUBLE: u8 = 3;
const STR: u8 = 4;
const BAG: u8 = 5;

/// A tag's argument that says "the length follows as a varint".
const LONG: u8 = 31;

/// The largest `k` of a decimal double: `10^22` is the last exact power.
const MAX_PLACES: usize = 22;
const POW10: [f64; MAX_PLACES + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];
/// Every integer below this magnitude is an exact double.
const EXACT_INTS: f64 = 9_007_199_254_740_992.0; // 2^53

/// The stored format's version, and the magic that ends every typed file.
pub const VERSION: u8 = 1;
const MAGIC: [u8; 2] = [b'T', 0xFF];

/// A group is closed once it holds this many bytes.
pub const GROUP_BYTES: usize = 4 << 10;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Which of a double's two forms an encoder writes; a reader takes
/// either. The decimal form is searched for, which costs ≈ 10 ns a double:
/// worth it for what is stored and read again, not for the shuffle, whose
/// runs never leave memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doubles {
    /// The decimal form whenever it is exact, else the raw bits.
    Shortest,
    /// Always the raw bits.
    Raw,
}

pub fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// A tuple of `fields`.
pub fn put_fields<'a>(
    fields: impl ExactSizeIterator<Item = &'a Value>,
    doubles: Doubles,
    out: &mut Vec<u8>,
) {
    put_varint(fields.len() as u64, out);
    for v in fields {
        put_value(v, doubles, out);
    }
}

pub fn put_tuple(t: &Tuple, doubles: Doubles, out: &mut Vec<u8>) {
    put_fields(t.iter(), doubles, out);
}

pub fn put_value(v: &Value, doubles: Doubles, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(NULL),
        Value::Int(i) => {
            out.push(INT);
            put_varint(zigzag(*i), out);
        }
        Value::Double(d) => match (doubles == Doubles::Shortest).then(|| decimal(*d)).flatten() {
            Some((m, k)) => {
                out.push(k << 3 | DECIMAL);
                put_varint(zigzag(m), out);
            }
            None => {
                out.push(RAW_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
        },
        Value::Str(s) => {
            put_sized(STR, s.len(), out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bag(bag) => {
            put_sized(BAG, bag.len(), out);
            for row in bag.rows() {
                put_fields(row.iter(), doubles, out);
            }
        }
    }
}

/// A tag whose argument is a length, inline when it fits.
fn put_sized(ty: u8, len: usize, out: &mut Vec<u8>) {
    match u8::try_from(len) {
        Ok(n) if n < LONG => out.push(n << 3 | ty),
        _ => {
            out.push(LONG << 3 | ty);
            put_varint(len as u64, out);
        }
    }
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// `(m, k)` with `m as f64 / 10^k` bit-identical to `d`, for the smallest
/// such `k` with `|m| < 2^53` and `k ≤ 22`. Every one with `|m| < 2^50` is
/// found: below that, rounding `d · 10^k` lands on `m`. Above it the
/// rounding may miss and the double is stored raw, which is as exact.
fn decimal(d: f64) -> Option<(i64, u8)> {
    let magnitude = d.abs();
    if magnitude.is_nan() || magnitude >= EXACT_INTS {
        return None;
    }
    for (k, &scale) in POW10.iter().enumerate() {
        let scaled = magnitude * scale;
        if scaled >= EXACT_INTS {
            return None;
        }
        // Round to nearest by truncating `+ 0.5`; only the exact check
        // below decides. When `d` is `m / 10^k`, `scaled` is `m` to within
        // two roundings (a relative 2^-52), so a `scaled` further from an
        // integer than that is not worth the division.
        let m = (scaled + 0.5) as i64;
        if (m as f64 - scaled).abs() > scaled * 4.5e-16 {
            continue;
        }
        let m = if d < 0.0 { -m } else { m };
        if (m as f64 / scale).to_bits() == d.to_bits() {
            return Some((m, k as u8));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn corrupt(what: &str) -> Error {
    Error::Codec(format!("typed data: {what}"))
}

/// A cursor over the undecoded rest of some typed bytes. Every length is
/// checked against the bytes remaining before anything is allocated for
/// it, so a corrupt length cannot make the decoder reserve more elements
/// than there are bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(corrupt("unexpected end"));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn byte(&mut self) -> Result<u8> {
        let (&b, rest) = self.bytes.split_first().ok_or_else(|| corrupt("unexpected end"))?;
        self.bytes = rest;
        Ok(b)
    }

    /// A varint of at most ten bytes, read in one pass over the bytes
    /// remaining: the tenth byte carries one bit, so one above 1 is an
    /// overflow, and bytes that end on a continuation are a truncation.
    pub fn varint(&mut self) -> Result<u64> {
        let mut n = 0;
        for (i, &b) in self.bytes.iter().take(10).enumerate() {
            if i == 9 && b > 1 {
                return Err(corrupt("varint overflows 64 bits"));
            }
            n |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                self.bytes = &self.bytes[i + 1..];
                return Ok(n);
            }
        }
        Err(corrupt("unexpected end"))
    }

    /// A count of items that each occupy at least `min_bytes`.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.bytes.len() / min_bytes => Ok(n),
            _ => Err(corrupt("count exceeds the bytes remaining")),
        }
    }

    /// The length a sized tag's argument gives, for items of at least
    /// `min_bytes` each.
    fn size(&mut self, arg: u8, min_bytes: usize) -> Result<usize> {
        if arg < LONG {
            let n = usize::from(arg);
            if n > self.bytes.len() / min_bytes {
                return Err(corrupt("count exceeds the bytes remaining"));
            }
            return Ok(n);
        }
        self.count(min_bytes)
    }

    pub fn tuple(&mut self) -> Result<Tuple> {
        let arity = self.count(1)?;
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(self.value()?);
        }
        Ok(Tuple::from_values(vals))
    }

    /// A stored record of `arity` values laid out as `cols` asks: exactly
    /// the set's positions, in ascending order, a position past the
    /// record's end reading null, and a bag column's members holding the
    /// fields the set names (see [`crate::codec::Rows`]); `None` is the
    /// whole record. A value nobody asked for is skipped by its length,
    /// and still checked.
    fn record(&mut self, arity: usize, cols: Option<&ColumnSet>) -> Result<Tuple> {
        if arity == 0 {
            return match self.byte()? {
                0 => Ok(Tuple::from_values(vec![
                    Value::Null;
                    cols.map_or(0, |c| c.as_slice().len())
                ])),
                _ => Err(corrupt("a record of no fields is not one 0 byte")),
            };
        }
        let Some(cols) = cols else {
            let mut vals = Vec::with_capacity(arity);
            for _ in 0..arity {
                vals.push(self.value()?);
            }
            return Ok(Tuple::from_values(vals));
        };
        let mut pick = Pick::new(Some(cols.as_slice()));
        let mut vals = Vec::with_capacity(cols.as_slice().len());
        for idx in 0..arity {
            if !pick.take(idx) {
                self.skip_value()?;
                continue;
            }
            vals.push(self.value_picked(cols.members(vals.len()))?);
        }
        vals.resize(vals.len() + pick.missing(), Value::Null);
        Ok(Tuple::from_values(vals))
    }

    #[inline]
    pub fn value(&mut self) -> Result<Value> {
        self.value_picked(None)
    }

    /// A value whole, except that a bag's members hold only the fields
    /// `members` names when it is `Some` (see [`Reader::bag`]); a value
    /// that is not a bag is read whole either way.
    fn value_picked(&mut self, members: Option<&[usize]>) -> Result<Value> {
        let tag = self.byte()?;
        let arg = tag >> 3;
        Ok(match tag & 7 {
            NULL if arg == 0 => Value::Null,
            INT if arg == 0 => Value::Int(unzigzag(self.varint()?)),
            DECIMAL if usize::from(arg) <= MAX_PLACES => {
                Value::Double(unzigzag(self.varint()?) as f64 / POW10[usize::from(arg)])
            }
            RAW_DOUBLE if arg == 0 => {
                let bits = self.take(8)?.try_into().expect("took 8 bytes");
                Value::Double(f64::from_bits(u64::from_le_bytes(bits)))
            }
            STR => {
                let len = self.size(arg, 1)?;
                Value::Str(SmallStr::from_utf8(self.take(len)?).map_err(not_utf8)?)
            }
            BAG => {
                let count = self.size(arg, 1)?;
                // Two calls, so a whole bag's loop is built without the
                // per-field pick test a member-selected one needs.
                Value::Bag(match members {
                    None => self.bag(count, Pick::new(None))?,
                    Some(fields) => self.bag(count, Pick::new(Some(fields)))?,
                })
            }
            _ => return Err(corrupt(&format!("unknown tag {tag:#04x}"))),
        })
    }

    /// A bag of `members` tuples, decoded flat, each holding its `pick`ed
    /// fields: a field past a member's end reads null, and one not picked
    /// is skipped and still checked. The first member sizes the whole
    /// bag, which is exact when the members share an arity (as a group's
    /// do); room is never reserved past the bytes remaining, each field
    /// taking at least one.
    fn bag(&mut self, members: usize, pick: Pick) -> Result<Bag> {
        let mut bag = BagBuilder::default();
        for i in 0..members {
            let arity = self.count(1)?;
            if i == 0 {
                bag.reserve(pick.width(arity).saturating_mul(members).min(self.bytes.len()));
            }
            let mut pick = pick;
            for idx in 0..arity {
                if pick.take(idx) {
                    bag.push(self.value()?);
                } else {
                    self.skip_value()?;
                }
            }
            for _ in 0..pick.missing() {
                bag.push(Value::Null);
            }
            bag.end_row();
        }
        Ok(bag.finish())
    }

    /// Append one tuple's fields to `out`; how many there were.
    pub fn fields_into(&mut self, out: &mut Vec<Value>) -> Result<usize> {
        let arity = self.count(1)?;
        out.reserve(arity);
        for _ in 0..arity {
            out.push(self.value()?);
        }
        Ok(arity)
    }

    /// Step over one value, checking it as [`Reader::value`] would and
    /// building nothing.
    fn skip_value(&mut self) -> Result<()> {
        let tag = self.byte()?;
        let arg = tag >> 3;
        match tag & 7 {
            NULL if arg == 0 => {}
            INT if arg == 0 => {
                self.varint()?;
            }
            DECIMAL if usize::from(arg) <= MAX_PLACES => {
                self.varint()?;
            }
            RAW_DOUBLE if arg == 0 => {
                self.take(8)?;
            }
            STR => {
                let len = self.size(arg, 1)?;
                check_utf8(self.take(len)?).map_err(not_utf8)?;
            }
            BAG => {
                for _ in 0..self.size(arg, 1)? {
                    for _ in 0..self.count(1)? {
                        self.skip_value()?;
                    }
                }
            }
            _ => return Err(corrupt(&format!("unknown tag {tag:#04x}"))),
        }
        Ok(())
    }
}

fn not_utf8<E>(_: E) -> Error {
    corrupt("string is not valid UTF-8")
}

// ---------------------------------------------------------------------
// Stored files
// ---------------------------------------------------------------------

/// One task's share of a typed file: records in whole groups.
#[derive(Debug, Default)]
pub struct Chunk {
    bytes: Vec<u8>,
    /// The closed groups, placed as if the chunk began the file.
    groups: Vec<Group>,
    /// The open group: where it starts in `bytes`, its records so far,
    /// their arity and their text bytes.
    open_at: usize,
    open_records: u64,
    open_arity: usize,
    open_text: u64,
}

impl Chunk {
    /// Append one record; the bytes it took.
    pub fn push(&mut self, t: &Tuple) -> usize {
        if self.open_records > 0 && t.arity() != self.open_arity {
            self.close_group();
        }
        self.open_arity = t.arity();
        let before = self.bytes.len();
        if t.arity() == 0 {
            self.bytes.push(0);
        }
        for v in t.iter() {
            put_value(v, Doubles::Shortest, &mut self.bytes);
        }
        self.open_records += 1;
        self.open_text += t.encoded_len() as u64;
        if self.bytes.len() - self.open_at >= GROUP_BYTES {
            self.close_group();
        }
        self.bytes.len() - before
    }

    fn close_group(&mut self) {
        self.groups.push(self.open_group());
        self.open_at = self.bytes.len();
        self.open_records = 0;
        self.open_text = 0;
    }

    fn open_group(&self) -> Group {
        Group {
            start: self.open_at as u64,
            len: (self.bytes.len() - self.open_at) as u64,
            records: self.open_records,
            arity: self.open_arity as u64,
            text_len: self.open_text,
        }
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Every group, the open one included.
    fn groups(&self) -> impl Iterator<Item = Group> + '_ {
        let open = (self.open_records > 0).then(|| self.open_group());
        self.groups.iter().copied().chain(open)
    }
}

/// What follows `chunks`' bytes, committed in order, to make them a typed
/// file: their index and the footer. Nothing when they hold no record.
pub fn trailer<'a>(chunks: impl IntoIterator<Item = &'a Chunk>) -> Vec<u8> {
    let mut out = Vec::new();
    for g in chunks.into_iter().flat_map(Chunk::groups) {
        put_varint(g.len, &mut out);
        put_varint(g.records, &mut out);
        put_varint(g.arity, &mut out);
        put_varint(g.text_len, &mut out);
    }
    if out.is_empty() {
        return out;
    }
    let mut len = Vec::new();
    put_varint(out.len() as u64, &mut len);
    out.extend(len.iter().rev());
    out.push(VERSION);
    out.extend_from_slice(&MAGIC);
    out
}

/// Encode `tuples` as one typed file.
pub fn encode_file(tuples: &[Tuple]) -> Vec<u8> {
    let mut chunk = Chunk::default();
    for t in tuples {
        chunk.push(t);
    }
    let trailer = trailer([&chunk]);
    let mut file = chunk.bytes;
    file.extend(trailer);
    file
}

/// Does a file ending in `tail` hold the typed format?
pub fn is_typed(tail: &[u8]) -> bool {
    tail.ends_with(&MAGIC)
}

/// The footer at the end of `tail` (a file's last bytes): how long the
/// index before it is and how long the footer itself is. An error when
/// the magic is there and the rest is not, or `tail` is too short to
/// hold the footer.
pub fn footer(tail: &[u8]) -> Result<(u64, usize)> {
    if !is_typed(tail) {
        return Err(corrupt("no typed-file magic"));
    }
    let mut at = tail.len() - MAGIC.len();
    let version = at.checked_sub(1).map(|v| tail[v]);
    if version != Some(VERSION) {
        return Err(corrupt(&format!("unknown version {version:?}")));
    }
    at -= 1;
    let mut n = 0u64;
    for shift in (0..64).step_by(7) {
        at = at.checked_sub(1).ok_or_else(|| corrupt("truncated footer"))?;
        let b = tail[at];
        n |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok((n, tail.len() - at));
        }
    }
    Err(corrupt("index length overflows"))
}

/// One group of a typed file: where it lies, its records' count and
/// arity, and how long they would be as text ([`Tuple::encoded_len`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    pub start: u64,
    pub len: u64,
    pub records: u64,
    pub arity: u64,
    pub text_len: u64,
}

impl Group {
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Where a typed file's groups lie, as its index says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Index {
    groups: Vec<Group>,
}

impl Index {
    /// Parse an index that describes `data_len` bytes of groups. Every
    /// group holds at least one record, every value takes a byte (and a
    /// record of none takes one), and the groups must cover the data
    /// exactly.
    pub fn parse(index: &[u8], data_len: u64) -> Result<Index> {
        let mut r = Reader::new(index);
        let mut groups = Vec::new();
        let mut start = 0u64;
        while !r.is_empty() {
            let len = r.varint()?;
            let records = r.varint()?;
            let arity = r.varint()?;
            let text_len = r.varint()?;
            let least = records.checked_mul(arity.max(1));
            if records == 0 || least.is_none_or(|n| n > len) || len > data_len - start {
                return Err(corrupt("index does not describe the data"));
            }
            groups.push(Group { start, len, records, arity, text_len });
            start += len;
        }
        if start != data_len || groups.is_empty() {
            return Err(corrupt("index does not cover the data"));
        }
        Ok(Index { groups })
    }

    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The file's splits, as `(offset, len)`, laid out as its text would
    /// be split into blocks of `text_bytes`: one per block, holding the
    /// groups whose first text byte falls in it, so a group longer than a
    /// block leaves the next splits empty as a long line would. A map task
    /// is charged by the records it reads, so the typed file gets as many
    /// tasks of as many records as its text, each reading fewer bytes.
    pub fn splits(&self, text_bytes: u64) -> Vec<(u64, u64)> {
        let total: u64 = self.groups.iter().map(|g| g.text_len).sum();
        let blocks = total.div_ceil(text_bytes.max(1)).max(1);
        let mut out = Vec::new();
        let mut groups = self.groups.iter().peekable();
        let mut text_at = 0;
        let mut offset = 0;
        for block in 1..=blocks {
            let start = offset;
            while let Some(g) = groups.next_if(|_| text_at < block * text_bytes) {
                text_at += g.text_len;
                offset = g.end();
            }
            out.push((start, offset - start));
        }
        out
    }

    /// The groups that start in `from..to`.
    pub fn starting_in(&self, from: u64, to: u64) -> &[Group] {
        let first = self.groups.partition_point(|g| g.start < from);
        let end = self.groups.partition_point(|g| g.start < to);
        &self.groups[first..end.max(first)]
    }
}

/// Decode `group`'s bytes, handing each record to `row` as it is cut:
/// exactly as many as the index says, using every byte.
pub fn decode_group(
    bytes: &[u8],
    group: &Group,
    cols: Option<&ColumnSet>,
    mut row: impl FnMut(Tuple) -> Result<()>,
) -> Result<()> {
    let mut r = Reader::new(bytes);
    let arity = usize::try_from(group.arity).map_err(|_| corrupt("arity out of range"))?;
    for _ in 0..group.records {
        row(r.record(arity, cols)?)?;
    }
    if !r.is_empty() {
        return Err(corrupt("a group holds more than its index says"));
    }
    Ok(())
}

/// Decode a whole typed file.
pub fn decode_file(bytes: &[u8]) -> Result<Vec<Tuple>> {
    let (index_len, footer_len) = footer(bytes)?;
    let data_len = (bytes.len() - footer_len)
        .checked_sub(usize::try_from(index_len).unwrap_or(usize::MAX))
        .ok_or_else(|| corrupt("index longer than the file"))?;
    let index = Index::parse(&bytes[data_len..bytes.len() - footer_len], data_len as u64)?;
    let mut out = Vec::new();
    for g in index.groups() {
        let group = &bytes[g.start as usize..g.end() as usize];
        decode_group(group, g, None, |t| {
            out.push(t);
            Ok(())
        })?;
    }
    Ok(out)
}

/// Decode a stored file in whichever format it is: typed when it ends in
/// the magic, text otherwise.
pub fn decode_any(bytes: &[u8]) -> Result<Vec<Tuple>> {
    if is_typed(bytes) {
        decode_file(bytes)
    } else {
        crate::codec::decode_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn round_trip(v: Value) {
        let mut buf = Vec::new();
        put_value(&v, Doubles::Shortest, &mut buf);
        let mut r = Reader::new(&buf);
        let back = r.value().unwrap();
        assert!(r.is_empty());
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
        if let (Value::Double(a), Value::Double(b)) = (&v, &back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn values_round_trip_exactly() {
        for d in [0.0, -0.0, 2.5, -2.5, 1e15, 2e15, 1e22, 1e300, 0.1 + 0.2, f64::NAN, f64::INFINITY]
        {
            round_trip(Value::Double(d));
        }
        round_trip(Value::Double(f64::from_bits(0x7ff8_dead_beef_0001)));
        for i in [0, 1, -1, 63, -64, i64::MIN, i64::MAX] {
            round_trip(Value::Int(i));
        }
        for s in ["", "007", "x".repeat(30).as_str(), "y".repeat(31).as_str(), "ünï"] {
            round_trip(Value::str(s));
        }
        round_trip(Value::Bag(vec![tuple![1, "a"], Tuple::new()].into()));
        round_trip(Value::Null);
    }

    #[test]
    fn short_values_are_as_long_as_their_text() {
        let len = |v: Value| {
            let mut buf = Vec::new();
            put_value(&v, Doubles::Shortest, &mut buf);
            buf.len()
        };
        assert_eq!(len(Value::Null), 1);
        assert_eq!(len(Value::Int(7)), 2);
        assert_eq!(len(Value::Double(12.34)), 3, "decimal: tag with k, varint(2468)");
        assert_eq!(len(Value::Double(-0.0)), 9, "raw bits");
        assert_eq!(len(Value::str("user_12")), 8);
        assert_eq!(len(Value::str("z".repeat(31))), 33);
    }

    /// The byte-at-a-time varint `Reader::varint` replaced: its value and
    /// the bytes it took, or its error's text.
    fn varint_reference(bytes: &[u8]) -> std::result::Result<(u64, usize), String> {
        let end = || corrupt("unexpected end").to_string();
        let mut n = 0u64;
        for (i, shift) in (0..64).step_by(7).enumerate() {
            let b = *bytes.get(i).ok_or_else(end)?;
            let bits = u64::from(b & 0x7f);
            if (bits << shift) >> shift != bits {
                break;
            }
            n |= bits << shift;
            if b < 0x80 {
                return Ok((n, i + 1));
            }
        }
        Err(corrupt("varint overflows 64 bits").to_string())
    }

    fn varint_read(bytes: &[u8]) -> std::result::Result<(u64, usize), String> {
        let mut r = Reader::new(bytes);
        let n = r.varint().map_err(|e| e.to_string())?;
        Ok((n, bytes.len() - r.bytes.len()))
    }

    #[test]
    fn a_varint_reads_as_the_byte_wise_reference() {
        let mut rng = crate::rng::SplitMix64::new(0x7a71);
        let mut cases = 0;
        // Every encoded length 1-10, its least, greatest and random
        // values, at every distance 0-9 from the buffer's end; then every
        // strict prefix of it, each of which is a truncation.
        for len in 1..=10u32 {
            let least = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
            let most = if len == 10 { u64::MAX } else { (1u64 << (7 * len)) - 1 };
            for n in [least, most, least + rng.next_u64() % (most - least)] {
                let mut encoded = Vec::new();
                put_varint(n, &mut encoded);
                assert_eq!(encoded.len(), len as usize);
                for after in 0..10 {
                    let mut buf = encoded.clone();
                    buf.extend((0..after).map(|_| rng.next_u64() as u8));
                    assert_eq!(varint_read(&buf), Ok((n, len as usize)));
                    assert_eq!(varint_read(&buf), varint_reference(&buf));
                    cases += 1;
                }
                for cut in 0..encoded.len() {
                    let got = varint_read(&encoded[..cut]);
                    assert_eq!(got, Err(corrupt("unexpected end").to_string()));
                    assert_eq!(got, varint_reference(&encoded[..cut]));
                }
            }
        }
        assert_eq!(cases, 10 * 3 * 10);
        // A tenth byte of each value, after nine continuations: only 0
        // and 1 fit; every other one overflows, as does an eleventh byte.
        for tenth in 0..=255u8 {
            let mut buf = vec![0xff; 9];
            buf.push(tenth);
            let got = varint_read(&buf);
            assert_eq!(got, varint_reference(&buf), "{tenth:#04x}");
            assert_eq!(got.is_ok(), tenth <= 1, "{tenth:#04x}");
        }
        // Random bytes, mostly continuations, of every length to 12.
        for _ in 0..200_000 {
            let len = rng.next_below(13) as usize;
            let mut byte = || match rng.next_below(8) {
                0 => rng.next_u64() as u8 & 0x7f,
                _ => rng.next_u64() as u8 | 0x80,
            };
            let buf: Vec<u8> = (0..len).map(|_| byte()).collect();
            assert_eq!(varint_read(&buf), varint_reference(&buf), "{buf:x?}");
        }
    }

    #[test]
    fn decimals_take_the_fewest_places() {
        assert_eq!(decimal(12.34), Some((1234, 2)));
        assert_eq!(decimal(-3.0), Some((-3, 0)));
        assert_eq!(decimal(1e-22), Some((1, 22)));
        assert_eq!(decimal(-0.0), None);
        assert_eq!(decimal(f64::INFINITY), None);
        assert_eq!(decimal(1e16), None, "past 2^53");
    }

    #[test]
    fn every_exact_decimal_is_found() {
        // `m / 10^k` for random mantissas of every size below 2^50: the
        // search finds a decimal no longer than the one it was made from.
        let mut rng = crate::rng::SplitMix64::new(0xdec1);
        for i in 0..200_000u64 {
            let bits = 1 + rng.next_below(50);
            let m = (rng.next_u64() >> (64 - bits)) as i64 * if i % 2 == 0 { 1 } else { -1 };
            let k = (i % 23) as usize;
            let d = m as f64 / POW10[k];
            let (found_m, found_k) = decimal(d).unwrap_or_else(|| panic!("{m} / 10^{k}"));
            assert!(usize::from(found_k) <= k);
            assert_eq!((found_m as f64 / POW10[usize::from(found_k)]).to_bits(), d.to_bits());
        }
    }

    #[test]
    fn files_split_into_groups_and_read_back() {
        let rows: Vec<Tuple> =
            (0..2000).map(|i| tuple![i as i64, format!("row-{i}"), 0.5]).collect();
        let file = encode_file(&rows);
        assert!(is_typed(&file));
        assert_eq!(decode_file(&file).unwrap(), rows);
        assert_eq!(decode_any(&file).unwrap(), rows);
        let (index_len, footer_len) = footer(&file).unwrap();
        let data_len = file.len() - footer_len - index_len as usize;
        let index =
            Index::parse(&file[data_len..file.len() - footer_len], data_len as u64).unwrap();
        assert!(index.groups().len() > 3);
        assert!(index
            .groups()
            .iter()
            .all(|g| g.len >= GROUP_BYTES as u64 || g.end() == data_len as u64));
        assert_eq!(index.starting_in(0, 1), &index.groups()[..1]);
        assert_eq!(index.starting_in(1, GROUP_BYTES as u64), &[]);
        assert!(encode_file(&[]).is_empty());
    }
}
