//! Line-oriented record codec for the files a user writes and reads.
//!
//! Mirrors Pig's `PigStorage`: one tuple per line, fields separated by
//! tabs, bags rendered as `{(f,f),(f,f)}`. Values are stored untyped (like
//! PigStorage); readers re-infer int/double/string, with a `\0N` marker
//! distinguishing genuine nulls from empty strings. String content that
//! collides with the syntax (tab, newline, backslash, comma, parens,
//! braces) is backslash-escaped.
//!
//! It is the format of Load inputs and of final outputs. Inference makes
//! it lossy — `"007"` reads back `Int(7)` — so what the system stores to
//! read back itself (the shuffle, inter-job temporaries, materialized
//! candidates) is in [`crate::typed`] instead, and [`reads_back`] says
//! whether a record survives the round trip: a final output holding one
//! that does not is never registered for reuse.

use crate::bag::BagBuilder;
use crate::error::{Error, Result};
use crate::number::{self, Count, Sink};
use crate::small_str::SmallStr;
use crate::tuple::Tuple;
use crate::value::Value;

const SEP: u8 = b'\t';
const NL: u8 = b'\n';
const ESC: u8 = b'\\';
/// Marker encoding a null field (vs. an empty string field).
const NULL_MARK: &[u8] = b"\\0N";
/// Bytes that must be escaped inside string payloads.
const SPECIALS: &[u8] = b"\t\n\\,(){}";

/// Per byte, what follows the backslash that escapes it, or 0 for a byte
/// that is written as itself.
const ESCAPED: [u8; 256] = {
    let mut table = [0; 256];
    let mut i = 0;
    while i < SPECIALS.len() {
        let b = SPECIALS[i];
        table[b as usize] = match b {
            SEP => b't',
            NL => b'n',
            other => other,
        };
        i += 1;
    }
    table
};

/// Where the encoder writes: a file's bytes, a count of them, or
/// `Display`'s formatter.
///
/// The codec and the cost model's estimate of it are one walk over the
/// values. The estimate ([`Value::encoded_len`]) is the text with strings
/// unescaped and a null as nothing, so a sink differs only in how it takes
/// a string and a null.
pub(crate) trait Out: Sink {
    /// A string's bytes.
    fn text(&mut self, s: &[u8]);
    /// A null field.
    fn null(&mut self);
}

impl Out for Vec<u8> {
    fn text(&mut self, s: &[u8]) {
        encode_str(s, self);
    }

    fn null(&mut self) {
        self.extend_from_slice(NULL_MARK);
    }
}

impl Out for Count {
    fn text(&mut self, s: &[u8]) {
        self.0 += s.len();
    }

    fn null(&mut self) {}
}

/// A file's bytes and their estimate in one pass.
struct Measured<'a> {
    out: &'a mut Vec<u8>,
    estimate: Count,
}

impl Sink for Measured<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.out.put(bytes);
        self.estimate.put(bytes);
    }
}

impl Out for Measured<'_> {
    fn text(&mut self, s: &[u8]) {
        self.out.text(s);
        self.estimate.text(s);
    }

    fn null(&mut self) {
        self.out.null();
    }
}

/// Append the encoded form of `t` to `out`, including the trailing newline,
/// and return [`Tuple::encoded_len`] of it — the estimate the cost model
/// charges — counted as the bytes are written.
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) -> usize {
    let mut both = Measured { out, estimate: Count(0) };
    write_fields(t.iter(), &mut both);
    both.estimate.0
}

/// One record: `fields` tab-separated, then the newline.
pub(crate) fn write_fields<'a>(fields: impl Iterator<Item = &'a Value>, out: &mut impl Out) {
    for (i, v) in fields.enumerate() {
        if i > 0 {
            out.put(&[SEP]);
        }
        write_value(v, out);
    }
    out.put(&[NL]);
}

/// One field. Numbers never contain special bytes.
pub(crate) fn write_value(v: &Value, out: &mut impl Out) {
    match v {
        Value::Null => out.null(),
        Value::Int(i) => number::write_int(*i, out),
        Value::Double(d) => number::write_double(*d, out),
        Value::Str(s) => out.text(s.as_bytes()),
        Value::Bag(bag) => {
            out.put(b"{");
            for (i, t) in bag.rows().enumerate() {
                out.put(if i > 0 { b",(" } else { b"(" });
                for (j, f) in t.iter().enumerate() {
                    if j > 0 {
                        out.put(b",");
                    }
                    write_value(f, out);
                }
                out.put(b")");
            }
            out.put(b"}");
        }
    }
}

/// A string's bytes, escaped: each run between special bytes is copied in
/// one go, so a string with none is a single copy.
fn encode_str(mut s: &[u8], out: &mut Vec<u8>) {
    while let Some(at) = s.iter().position(|&b| ESCAPED[usize::from(b)] != 0) {
        out.extend_from_slice(&s[..at]);
        out.extend_from_slice(&[ESC, ESCAPED[usize::from(s[at])]]);
        s = &s[at + 1..];
    }
    out.extend_from_slice(s);
}

/// Encode a whole batch of tuples.
pub fn encode_all(tuples: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tuples {
        write_fields(t.iter(), &mut out);
    }
    out
}

/// Field positions a reader wants materialized: ascending and distinct,
/// which is what lets the decoder test membership with one cursor as it
/// walks a line left to right, and what fixes the layout of the rows it
/// hands back — value `i` of a row is position `as_slice()[i]` of its line.
///
/// A column may also name the member fields its readers use of the bag it
/// holds ([`ColumnSet::members`]): a bag there is built with exactly those
/// fields of each member, ascending, a field past a short member's end
/// reading [`Value::Null`]. No fields at all still builds every member,
/// empty, so the bag keeps its count. A value there that is not a bag is
/// read whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSet {
    cols: Vec<usize>,
    /// Per entry of `cols`: the member fields read of its bag, ascending
    /// and distinct, or `None` when the column is read whole.
    members: Vec<Option<Box<[usize]>>>,
}

impl ColumnSet {
    /// Every column of `cols` read whole.
    pub fn new(cols: impl IntoIterator<Item = usize>) -> Self {
        ColumnSet::with_members(cols, [])
    }

    /// The columns of `whole`, read whole, and those of `members`, each a
    /// bag column with one member field its readers use (`None`: only the
    /// member count). A column in both is read whole.
    pub fn with_members(
        whole: impl IntoIterator<Item = usize>,
        members: impl IntoIterator<Item = (usize, Option<usize>)>,
    ) -> Self {
        let whole: Vec<usize> = whole.into_iter().collect();
        let mut fields: Vec<(usize, Option<usize>)> =
            members.into_iter().filter(|(col, _)| !whole.contains(col)).collect();
        let mut cols: Vec<usize> =
            whole.iter().copied().chain(fields.iter().map(|f| f.0)).collect();
        cols.sort_unstable();
        cols.dedup();
        fields.sort_unstable();
        let members = cols
            .iter()
            .map(|&col| {
                let of_col = fields.iter().filter(|f| f.0 == col);
                let mut read: Vec<usize> = of_col.filter_map(|f| f.1).collect();
                read.dedup();
                (!whole.contains(&col)).then(|| read.into_boxed_slice())
            })
            .collect();
        ColumnSet { cols, members }
    }

    pub fn as_slice(&self) -> &[usize] {
        &self.cols
    }

    /// Where position `col` of a line sits in a row decoded with this set.
    pub fn index_of(&self, col: usize) -> Option<usize> {
        self.cols.binary_search(&col).ok()
    }

    /// The member fields read of the bag in the set's `i`th column, or
    /// `None` when that column is read whole.
    pub fn members(&self, i: usize) -> Option<&[usize]> {
        self.members[i].as_deref()
    }
}

/// The fields of one tuple a reader builds, as it walks them left to
/// right: all of them, or the positions of an ascending list.
#[derive(Clone, Copy)]
pub(crate) struct Pick<'a>(Option<&'a [usize]>);

impl<'a> Pick<'a> {
    pub(crate) fn new(fields: Option<&'a [usize]>) -> Self {
        Pick(fields)
    }

    /// Is field `idx`, the one after the last asked about, built?
    #[inline(always)]
    pub(crate) fn take(&mut self, idx: usize) -> bool {
        match &mut self.0 {
            None => true,
            Some(rest) if rest.first() == Some(&idx) => {
                *rest = &rest[1..];
                true
            }
            Some(_) => false,
        }
    }

    /// How many fields a tuple of `arity` holds once picked.
    pub(crate) fn width(&self, arity: usize) -> usize {
        self.0.map_or(arity, <[usize]>::len)
    }

    /// The picked fields the tuple ended before, each to read null.
    pub(crate) fn missing(&self) -> usize {
        self.0.map_or(0, <[usize]>::len)
    }
}

/// Decode one line (without its trailing newline) into a tuple.
pub fn decode_line(line: &[u8]) -> Result<Tuple> {
    if line.contains(&NL) {
        return Err(Error::Codec("raw newline inside a record".into()));
    }
    Parser::new(line).row(None, 0)
}

/// Decode an entire byte buffer of newline-separated records.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<Tuple>> {
    Rows::new(bytes, None).collect()
}

/// The records of a byte buffer, decoded one at a time in a single pass
/// over it. Raw newline bytes are always record boundaries because
/// newlines inside strings are escaped; a last record need not end in one.
///
/// With a [`ColumnSet`], a row holds *exactly* the set's positions, in
/// ascending order — a position past the end of a short line reads
/// [`Value::Null`], as [`Tuple::get`] would — and nothing is built for the
/// others. Every field is still checked: a buffer is accepted or rejected
/// exactly as without the set. The first error ends the iteration.
pub struct Rows<'a> {
    parser: Parser<'a>,
    cols: Option<&'a ColumnSet>,
    /// Arity of the previous row: records of one file nearly always share
    /// one. A wrong hint costs a reallocation, never a wrong answer.
    arity_hint: usize,
}

impl<'a> Rows<'a> {
    pub fn new(bytes: &'a [u8], cols: Option<&'a ColumnSet>) -> Self {
        Rows { parser: Parser::new(bytes), cols, arity_hint: 0 }
    }
}

impl Iterator for Rows<'_> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        if self.parser.pos >= self.parser.bytes.len() {
            return None;
        }
        let row = self.parser.row(self.cols, self.arity_hint);
        match &row {
            Ok(t) => self.arity_hint = t.arity(),
            Err(_) => self.parser.pos = self.parser.bytes.len(),
        }
        Some(row)
    }
}

/// Bytes classified per step of the scan: what the compiler turns into a
/// handful of vector compares.
const BLOCK: usize = 32;

/// The bytes that end a top-level field, and those that end a field of a
/// bag tuple. A raw newline ends the record wherever it stands.
const FIELD_STOPS: [u8; 3] = [SEP, ESC, NL];
const NESTED_STOPS: [u8; 4] = [b',', b')', ESC, NL];

/// One block of the scan: which of its bytes are stop bytes, and whether
/// any byte has its high bit set (nothing else can make it invalid UTF-8).
#[derive(Clone, Copy, Default)]
struct Block {
    /// Bit `i` is set when byte `i` is a stop byte.
    stops: u32,
    high_bit: bool,
}

impl Block {
    /// Classify the (up to) `BLOCK` bytes of `bytes` from `at`, in one pass
    /// without branches: a flag byte per input byte, the flag bytes OR-ed
    /// as four words to say "nothing here" at once, and only otherwise
    /// packed into the bit mask.
    #[inline(always)]
    fn at<const N: usize>(bytes: &[u8], at: usize, stop_bytes: [u8; N]) -> Block {
        const LOW: u64 = 0x0101_0101_0101_0101;
        let rest = &bytes[at..];
        let block = match rest.first_chunk::<BLOCK>() {
            Some(block) => *block,
            None => {
                // The buffer's last few bytes, padded with a byte that is
                // neither a stop nor high.
                let mut block = [0; BLOCK];
                block[..rest.len()].copy_from_slice(rest);
                block
            }
        };
        let mut flags = [0u8; BLOCK];
        for (flag, b) in flags.iter_mut().zip(block) {
            let stop = stop_bytes.iter().fold(false, |any, &s| any | (b == s));
            *flag = u8::from(stop) | (b & 0x80);
        }
        let words: [u64; BLOCK / 8] = std::array::from_fn(|i| {
            u64::from_le_bytes(flags[8 * i..8 * i + 8].try_into().expect("eight bytes"))
        });
        let any = words.iter().fold(0, |any, w| any | w);
        let mut stops = 0;
        if any & LOW != 0 {
            for (i, w) in words.iter().enumerate() {
                // Gather the low bit of each of the eight flag bytes into
                // the product's top byte: byte k's bit lands on bit 56 + k,
                // and no two terms of the product meet.
                let packed = (w & LOW).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                stops |= (packed as u32) << (8 * i);
            }
        }
        Block { stops, high_bit: any & (LOW << 7) != 0 }
    }
}

/// The one line parser: a cursor over a buffer of records, reading each
/// byte of it once. A raw newline ends a record wherever it stands, so
/// everything below sees it as "no more bytes".
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The top-level scan's current block: `bytes[block_at..]`, classified
    /// once and kept, so the several short fields that share a block cost
    /// one classification between them.
    block_at: usize,
    block: Block,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser { bytes, pos: 0, block_at: 0, block: Block::at(bytes, 0, FIELD_STOPS) }
    }

    /// Index of the first byte at or after the cursor that ends a
    /// top-level field (or `bytes.len()`), and whether a byte ≥ 0x80 may
    /// come before it: the flag is kept per block, so it can ask for a
    /// UTF-8 check that was not needed, never miss one.
    fn field_stop(&mut self) -> (usize, bool) {
        match self.pos.checked_sub(self.block_at) {
            // Still inside the kept block: forget the stops behind.
            Some(done) if done < BLOCK => self.block.stops &= u32::MAX << done,
            // A bag or an escape took the cursor elsewhere.
            _ => {
                self.block_at = self.pos.min(self.bytes.len());
                self.block = Block::at(self.bytes, self.block_at, FIELD_STOPS);
            }
        }
        let mut high_bit = self.block.high_bit;
        while self.block.stops == 0 {
            if self.bytes.len() - self.block_at <= BLOCK {
                return (self.bytes.len(), high_bit);
            }
            self.block_at += BLOCK;
            self.block = Block::at(self.bytes, self.block_at, FIELD_STOPS);
            high_bit |= self.block.high_bit;
        }
        (self.block_at + self.block.stops.trailing_zeros() as usize, high_bit)
    }

    /// [`Parser::field_stop`] for a field of a bag tuple. Bags are rare and
    /// their fields short: nothing is kept between calls.
    fn nested_stop(&self) -> (usize, bool) {
        let mut at = self.pos.min(self.bytes.len());
        let mut high_bit = false;
        loop {
            let block = Block::at(self.bytes, at, NESTED_STOPS);
            high_bit |= block.high_bit;
            if block.stops != 0 {
                return (at + block.stops.trailing_zeros() as usize, high_bit);
            }
            if self.bytes.len() - at <= BLOCK {
                return (self.bytes.len(), high_bit);
            }
            at += BLOCK;
        }
    }

    /// Parse the record at the cursor and step over the newline that ends
    /// it. `arity_hint` sizes an all-columns tuple up front.
    fn row(&mut self, cols: Option<&ColumnSet>, arity_hint: usize) -> Result<Tuple> {
        let mut pick = Pick::new(cols.map(ColumnSet::as_slice));
        let mut vals = Vec::with_capacity(cols.map_or(arity_hint, |c| c.as_slice().len()));
        let mut idx = 0;
        loop {
            let want = pick.take(idx);
            let members = match cols {
                Some(set) if want => set.members(vals.len()),
                _ => None,
            };
            let v = self.parse_field(false, want, members)?;
            if want {
                vals.push(v);
            }
            idx += 1;
            if self.peek().is_none() {
                break;
            }
            // Skip the separator (after a bag, whatever byte stands there
            // is taken for one, as it always was). The line may be over
            // now: the next turn then reads the final, empty field.
            self.pos += 1;
        }
        // Over the newline, if that is what ended the record.
        self.pos = (self.pos + 1).min(self.bytes.len());
        // Wanted positions the line did not reach.
        vals.resize(vals.len() + pick.missing(), Value::Null);
        Ok(Tuple::from_values(vals))
    }

    /// Parse one field, stopping (without consuming) at the first
    /// unescaped separator: a tab at the top level, `,` or `)` when
    /// `nested` in a bag tuple. With `want` false the field is checked the
    /// same way but nothing is built and `Value::Null` comes back. A bag
    /// is built with the `members` fields of each member (see
    /// [`ColumnSet::members`]), or whole when `None`.
    #[inline]
    fn parse_field(
        &mut self,
        nested: bool,
        want: bool,
        members: Option<&[usize]>,
    ) -> Result<Value> {
        if self.peek() == Some(b'{') {
            return self.parse_bag(want, members);
        }
        let start = self.pos;
        let (stop, high_bit) = if nested { self.nested_stop() } else { self.field_stop() };
        self.pos = stop;
        if self.peek() == Some(ESC) {
            return self.parse_escaped(start, high_bit, nested, want);
        }
        // A field without escapes is its raw bytes.
        let raw = &self.bytes[start..stop];
        Ok(if want {
            infer_value(std::str::from_utf8(raw).map_err(not_utf8)?)
        } else {
            // Bytes the scan saw no high bit in are ASCII.
            if high_bit {
                std::str::from_utf8(raw).map_err(not_utf8)?;
            }
            Value::Null
        })
    }

    /// The rest of a field that began at `start`, from its first escape,
    /// which the cursor is on.
    #[inline(never)]
    fn parse_escaped(
        &mut self,
        start: usize,
        mut high_bit: bool,
        nested: bool,
        want: bool,
    ) -> Result<Value> {
        // The unescaped content, when somebody wants it.
        let mut buf = if want { self.bytes[start..self.pos].to_vec() } else { Vec::new() };
        let mut has_content = self.pos > start;
        let mut is_null = false;
        while self.peek() == Some(ESC) {
            self.pos += 1;
            match self.next_byte()? {
                b'0' => {
                    // Null marker "\0N"; only valid as the whole field.
                    if self.next_byte()? != b'N' || has_content {
                        return Err(Error::Codec("misplaced null marker".into()));
                    }
                    is_null = true;
                }
                escaped => {
                    let unescaped = match escaped {
                        b't' => SEP,
                        b'n' => NL,
                        b if SPECIALS.contains(&b) => b,
                        other => {
                            return Err(Error::Codec(format!("invalid escape \\{}", other as char)))
                        }
                    };
                    has_content = true;
                    if want {
                        buf.push(unescaped);
                    }
                }
            }
            let (stop, high) = if nested { self.nested_stop() } else { self.field_stop() };
            high_bit |= high;
            has_content |= stop > self.pos;
            if want {
                buf.extend_from_slice(&self.bytes[self.pos..stop]);
            }
            self.pos = stop;
        }
        if is_null {
            if has_content {
                return Err(Error::Codec("data after null marker".into()));
            }
            return Ok(Value::Null);
        }
        Ok(if want {
            // Fields that needed escaping are necessarily strings.
            Value::Str(SmallStr::from(String::from_utf8(buf).map_err(not_utf8)?))
        } else {
            // Escapes swap one ASCII pair for one ASCII byte, so checking
            // the raw bytes of a skipped field checks its content.
            if high_bit {
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(not_utf8)?;
            }
            Value::Null
        })
    }

    fn parse_bag(&mut self, want: bool, members: Option<&[usize]>) -> Result<Value> {
        self.expect(b'{')?;
        let mut bag = BagBuilder::default();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.parse_bag_tuple(want, Pick::new(members), &mut bag)?;
                match self.next_byte()? {
                    b',' => continue,
                    b'}' => break,
                    other => {
                        return Err(Error::Codec(format!(
                            "expected ',' or '}}' in bag, found {:?}",
                            other as char
                        )))
                    }
                }
            }
        }
        Ok(if want { Value::Bag(bag.finish()) } else { Value::Null })
    }

    /// One member of a bag, its `pick`ed fields straight into `bag` when
    /// it is `want`ed.
    fn parse_bag_tuple(&mut self, want: bool, mut pick: Pick, bag: &mut BagBuilder) -> Result<()> {
        self.expect(b'(')?;
        if self.peek() == Some(b')') {
            self.pos += 1;
        } else {
            let mut idx = 0;
            loop {
                let keep = want && pick.take(idx);
                let v = self.parse_field(true, keep, None)?;
                if keep {
                    bag.push(v);
                }
                idx += 1;
                match self.next_byte()? {
                    b',' => continue,
                    b')' => break,
                    other => {
                        return Err(Error::Codec(format!(
                            "expected ',' or ')' in bag tuple, found {:?}",
                            other as char
                        )))
                    }
                }
            }
        }
        if want {
            for _ in 0..pick.missing() {
                bag.push(Value::Null);
            }
            bag.end_row();
        }
        Ok(())
    }

    /// The byte at the cursor; `None` at the end of the record.
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied().filter(|&b| b != NL)
    }

    fn next_byte(&mut self) -> Result<u8> {
        let b = self.peek().ok_or_else(|| Error::Codec("unexpected end of record".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<()> {
        let got = self.next_byte()?;
        if got != want {
            return Err(Error::Codec(format!(
                "expected {:?}, found {:?}",
                want as char, got as char
            )));
        }
        Ok(())
    }
}

fn not_utf8<E>(_: E) -> Error {
    Error::Codec("record is not valid UTF-8".into())
}

/// Does `t`, written as text, read back as exactly itself? Text stores no
/// types, so a value does not when the reader's inference types it
/// otherwise: a string that looks numeric (`"007"` reads back `Int(7)`),
/// an integral double of 1e15 or more (written without `.0`, it reads
/// back an `Int`), a NaN or an infinity (they read back as strings). Nor
/// does a tuple of no fields, or of one empty string: both are a bare
/// newline, which reads back as one empty string or as no record.
pub fn reads_back(t: &Tuple) -> bool {
    match t.0.as_slice() {
        [] => false,
        [Value::Str(s)] if s.is_empty() => false,
        fields => fields.iter().all(value_reads_back),
    }
}

fn value_reads_back(v: &Value) -> bool {
    match v {
        Value::Null | Value::Int(_) => true,
        Value::Double(d) => d.is_finite() && (d.fract() != 0.0 || d.abs() < 1e15),
        // The bytes first: viewing an inline string as a `str` re-checks
        // its UTF-8, which only a string that looks numeric needs.
        Value::Str(s) => !looks_numeric(s.as_bytes()) || infer_number(s).is_none(),
        Value::Bag(bag) => {
            bag.rows().all(|row| !row.is_empty() && row.iter().all(value_reads_back))
        }
    }
}

/// The number a field's text reads as, if it reads as one.
fn infer_number(s: &str) -> Option<Value> {
    if looks_numeric(s.as_bytes()) {
        if let Ok(i) = s.parse::<i64>() {
            return Some(Value::Int(i));
        }
        if let Ok(d) = s.parse::<f64>() {
            return Some(Value::Double(d));
        }
    }
    None
}

/// Re-infer the runtime type of a decoded field that needed no escaping:
/// try int, then double, else string.
fn infer_value(s: &str) -> Value {
    infer_number(s).unwrap_or_else(|| Value::Str(SmallStr::from(s)))
}

fn looks_numeric(b: &[u8]) -> bool {
    let start = match b.first() {
        None => return false,
        Some(b'-' | b'+') => 1,
        Some(_) => 0,
    };
    if start >= b.len() || !b[start].is_ascii_digit() {
        return false;
    }
    b[start..].iter().all(|&c| {
        c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'-' || c == b'+'
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn round_trip(t: &Tuple) -> Tuple {
        let mut buf = Vec::new();
        encode_tuple(t, &mut buf);
        assert_eq!(buf.last(), Some(&NL));
        decode_line(&buf[..buf.len() - 1]).unwrap()
    }

    #[test]
    fn simple_round_trip() {
        let t = tuple!["alice", 42, 2.5];
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn null_round_trip() {
        let t = Tuple::from_values(vec![Value::Null, Value::str(""), Value::Int(1), Value::Null]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn escapes_round_trip() {
        let t = tuple!["a\tb", "c\nd", "e\\f", "g,h", "i(j)", "k{l}"];
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn bag_round_trip() {
        let bag = Value::Bag(vec![tuple!["u1", 10], tuple!["u2", 20]].into());
        let t = Tuple::from_values(vec![Value::str("k"), bag]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn empty_bag_and_empty_tuple_in_bag() {
        let t = Tuple::from_values(vec![Value::Bag(vec![].into())]);
        assert_eq!(round_trip(&t), t);
        let t = Tuple::from_values(vec![Value::Bag(vec![Tuple::new()].into())]);
        // An empty tuple encodes as "()" whose single field decodes as
        // empty string — acceptable PigStorage-style lossiness.
        let rt = round_trip(&t);
        assert_eq!(rt.get(0).as_bag().unwrap().len(), 1);
    }

    #[test]
    fn bag_with_nulls_and_specials() {
        let bag = Value::Bag(
            vec![
                Tuple::from_values(vec![Value::Null, Value::str("a,b")]),
                Tuple::from_values(vec![Value::str("c}d"), Value::Double(1.5)]),
            ]
            .into(),
        );
        let t = Tuple::from_values(vec![bag, Value::Int(7)]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn nested_bag_round_trip() {
        // CoGroup output carries multiple bags in one row.
        let t = Tuple::from_values(vec![
            Value::str("key"),
            Value::Bag(vec![tuple![1], tuple![2]].into()),
            Value::Bag(vec![tuple!["x", "y"]].into()),
        ]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn numeric_string_stays_numeric_after_decode() {
        // "42" written as a *string* decodes as Int: PigStorage's untyped
        // storage, which `reads_back` reports.
        let t = tuple!["42"];
        assert_eq!(round_trip(&t), tuple![42]);
    }

    #[test]
    fn batch_round_trip() {
        let ts = vec![tuple![1, "a"], tuple![2, "b"], tuple![3, "c\nd"]];
        let bytes = encode_all(&ts);
        assert_eq!(decode_all(&bytes).unwrap(), ts);
    }

    #[test]
    fn double_round_trip_keeps_type() {
        let rt = round_trip(&tuple![3.0]);
        assert!(matches!(rt.get(0), Value::Double(_)));
    }

    #[test]
    fn invalid_escape_is_error() {
        assert!(decode_line(b"a\\qb").is_err());
        assert!(decode_line(b"trailing\\").is_err());
        assert!(decode_line(b"{(a),").is_err());
        assert!(decode_line(b"{(a)").is_err());
    }

    #[test]
    fn line_iter_splits_records() {
        // At every raw newline, with or without one after the last record;
        // an empty line is a record of one empty string.
        let rows = |bytes: &[u8]| decode_all(bytes).unwrap();
        assert_eq!(rows(b"a\nb\nc"), vec![tuple!["a"], tuple!["b"], tuple!["c"]]);
        assert_eq!(rows(b"a\nb\n"), vec![tuple!["a"], tuple!["b"]]);
        assert_eq!(rows(b"a\n\nb"), vec![tuple!["a"], tuple![""], tuple!["b"]]);
        assert_eq!(rows(b"\n"), vec![tuple![""]]);
        assert!(rows(b"").is_empty());
        assert!(decode_line(b"a\nb").is_err(), "one line holds no raw newline");
    }

    #[test]
    fn narrow_rows_hold_exactly_the_column_set() {
        let bytes = b"u1\t7\t2.5\tlong text\nu2\t8\n\\0N\t9\t\t{(a)}\tx\n";
        let rows = |cols: &[usize]| -> Vec<Tuple> {
            let set = ColumnSet::new(cols.iter().copied());
            Rows::new(bytes, Some(&set)).collect::<Result<_>>().unwrap()
        };
        assert_eq!(
            rows(&[2, 0]),
            vec![
                tuple!["u1", 2.5],
                // A position past the row's end reads null.
                Tuple::from_values(vec![Value::str("u2"), Value::Null]),
                Tuple::from_values(vec![Value::Null, Value::str("")]),
            ]
        );
        assert_eq!(rows(&[]), vec![Tuple::new(), Tuple::new(), Tuple::new()]);
        assert_eq!(rows(&[3])[2], Tuple::from_values(vec![Value::Bag(vec![tuple!["a"]].into())]));
        // An unread field is still checked.
        let set = ColumnSet::new([0]);
        assert!(Rows::new(b"a\tb\\q", Some(&set)).any(|r| r.is_err()));
        assert!(Rows::new(b"a\t\xff", Some(&set)).any(|r| r.is_err()));
        assert_eq!(set.index_of(0), Some(0));
        assert_eq!(ColumnSet::new([3, 0]).index_of(3), Some(1));
        assert_eq!(set.index_of(1), None);
    }

    #[test]
    fn encoded_len_estimate_is_exact_for_clean_data() {
        let cases = vec![
            tuple!["alice", 42, 2.5],
            Tuple::from_values(vec![
                Value::str("k"),
                Value::Bag(vec![tuple!["u", 1], tuple!["v", 2]].into()),
            ]),
        ];
        for t in cases {
            let mut buf = Vec::new();
            encode_tuple(&t, &mut buf);
            assert_eq!(buf.len(), t.encoded_len(), "tuple {t}");
        }
    }

    #[test]
    fn reads_back_is_what_the_decoder_gives_back() {
        let cases = [
            (tuple!["alice", 42, 2.5, 3.0, -0.0, 1e14], true),
            (tuple!["007"], false),
            (tuple!["-1.5e3"], false),
            (tuple!["7up", "e7", ""], true),
            (tuple![2e15], false),
            (tuple![f64::NAN], false),
            (tuple![f64::NEG_INFINITY], false),
            (Tuple::new(), false),
            (tuple![""], false),
            (Tuple::from_values(vec![Value::Null, Value::Bag(vec![tuple!["a", 1]].into())]), true),
            (Tuple::from_values(vec![Value::Bag(vec![tuple!["12"]].into())]), false),
            (Tuple::from_values(vec![Value::Bag(vec![Tuple::new()].into())]), false),
        ];
        for (t, clean) in cases {
            assert_eq!(reads_back(&t), clean, "{t:?}");
            if clean {
                let back = round_trip(&t);
                assert_eq!(format!("{back:?}"), format!("{t:?}"));
            }
        }
    }

    #[test]
    fn trailing_empty_field_round_trips() {
        let t = Tuple::from_values(vec![Value::Int(1), Value::str("")]);
        assert_eq!(round_trip(&t), t);
    }
}
