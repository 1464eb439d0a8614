//! Line-oriented record codec for DFS files.
//!
//! Mirrors Pig's `PigStorage`: one tuple per line, fields separated by
//! tabs, bags rendered as `{(f,f),(f,f)}`. Values are stored untyped (like
//! PigStorage); readers re-infer int/double/string, with a `\0N` marker
//! distinguishing genuine nulls from empty strings. String content that
//! collides with the syntax (tab, newline, backslash, comma, parens,
//! braces) is backslash-escaped.

use crate::error::{Error, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt::Write as _;

const SEP: u8 = b'\t';
const NL: u8 = b'\n';
const ESC: u8 = b'\\';
/// Marker encoding a null field (vs. an empty string field).
const NULL_MARK: &[u8] = b"\\0N";
/// Bytes that must be escaped inside string payloads.
const SPECIALS: &[u8] = b"\t\n\\,(){}";

/// Append the encoded form of `t` to `out`, including the trailing newline.
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    for (i, v) in t.iter().enumerate() {
        if i > 0 {
            out.push(SEP);
        }
        encode_value(v, out);
    }
    out.push(NL);
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.extend_from_slice(NULL_MARK),
        Value::Str(s) => encode_str(s, out),
        Value::Bag(ts) => {
            out.push(b'{');
            for (i, t) in ts.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.push(b'(');
                for (j, f) in t.iter().enumerate() {
                    if j > 0 {
                        out.push(b',');
                    }
                    encode_value(f, out);
                }
                out.push(b')');
            }
            out.push(b'}');
        }
        // Ints and doubles never contain special bytes.
        number => write!(Text(out), "{number}").expect("writing to a Vec cannot fail"),
    }
}

/// `fmt::Write` onto the output buffer, so numbers are rendered in place.
struct Text<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for Text<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    for &b in s.as_bytes() {
        if SPECIALS.contains(&b) {
            out.push(ESC);
            out.push(match b {
                SEP => b't',
                NL => b'n',
                other => other,
            });
        } else {
            out.push(b);
        }
    }
}

/// Encode a whole batch of tuples.
pub fn encode_all(tuples: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tuples {
        encode_tuple(t, &mut out);
    }
    out
}

/// Field positions a reader wants materialized: ascending and distinct,
/// which is what lets the decoder test membership with one cursor as it
/// walks a line left to right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSet(Vec<usize>);

impl ColumnSet {
    pub fn new(cols: impl IntoIterator<Item = usize>) -> Self {
        let mut cols: Vec<usize> = cols.into_iter().collect();
        cols.sort_unstable();
        cols.dedup();
        ColumnSet(cols)
    }

    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }
}

/// Decode one line (without its trailing newline) into a tuple.
pub fn decode_line(line: &[u8]) -> Result<Tuple> {
    decode_fields(line, None, 0)
}

/// Decode one line, materializing only the positions in `cols` (`None` =
/// every position). Unread positions come back as [`Value::Null`] with the
/// arity intact, and are still validated: the line is accepted or rejected
/// exactly as [`decode_line`] would.
pub fn decode_columns(line: &[u8], cols: Option<&ColumnSet>) -> Result<Tuple> {
    decode_fields(line, cols, 0)
}

/// The one line parser. `arity_hint` sizes the tuple up front; a wrong
/// hint costs a reallocation, never a wrong answer.
fn decode_fields(line: &[u8], cols: Option<&ColumnSet>, arity_hint: usize) -> Result<Tuple> {
    let mut p = Parser { bytes: line, pos: 0 };
    let mut unread = cols.map(ColumnSet::as_slice);
    let mut want = |idx: usize| match &mut unread {
        None => true,
        Some(cols) if cols.first() == Some(&idx) => {
            *cols = &cols[1..];
            true
        }
        Some(_) => false,
    };
    let mut vals = Vec::with_capacity(arity_hint);
    loop {
        let want_field = want(vals.len());
        vals.push(p.parse_field(false, want_field)?);
        if p.pos >= p.bytes.len() {
            break;
        }
        // Skip the separator.
        p.pos += 1;
        if p.pos == p.bytes.len() {
            // Trailing separator: final empty field.
            vals.push(if want(vals.len()) { Value::Str(String::new()) } else { Value::Null });
            break;
        }
    }
    Ok(Tuple::from_values(vals))
}

/// Index of the first byte of `hay` equal to one of `needles`, testing a
/// machine word at a time.
fn find_byte<const N: usize>(hay: &[u8], needles: [u8; N]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        let mut hits = 0u64;
        for n in needles {
            // Zero-byte test on `w ^ nnnnnnnn`. A borrow can flag a byte
            // above a real match but never below one, so the lowest flag
            // (= first byte in memory, little-endian) is exact.
            let x = w ^ (LO * n as u64);
            hits |= x.wrapping_sub(LO) & !x & HI;
        }
        if hits != 0 {
            return Some(base + (hits.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    words.remainder().iter().position(|b| needles.contains(b)).map(|i| base + i)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Parse one field, stopping (without consuming) at the first
    /// unescaped separator: a tab at the top level, `,` or `)` when
    /// `nested` in a bag tuple. With `want` false the field is checked the
    /// same way but nothing is built and `Value::Null` comes back.
    fn parse_field(&mut self, nested: bool, want: bool) -> Result<Value> {
        if self.peek() == Some(b'{') {
            return self.parse_bag(want);
        }
        let start = self.pos;
        // Unescaped content; filled only from the first escape on (a field
        // without escapes is its raw bytes).
        let mut buf = Vec::new();
        let mut had_escape = false;
        let mut is_null = false;
        let mut has_content = false;
        loop {
            let rest = &self.bytes[self.pos..];
            let run = if nested {
                find_byte(rest, [b',', b')', ESC])
            } else {
                find_byte(rest, [SEP, ESC])
            }
            .unwrap_or(rest.len());
            self.pos += run;
            let at_escape = self.peek() == Some(ESC);
            has_content |= run > 0;
            if want && (had_escape || at_escape) {
                buf.extend_from_slice(&rest[..run]);
            }
            if !at_escape {
                break;
            }
            had_escape = true;
            self.pos += 1;
            let unescaped = match self.next_byte()? {
                b't' => SEP,
                b'n' => NL,
                b'0' => {
                    // Null marker "\0N"; only valid as the whole field.
                    if self.next_byte()? != b'N' || has_content {
                        return Err(Error::Codec("misplaced null marker".into()));
                    }
                    is_null = true;
                    continue;
                }
                b if SPECIALS.contains(&b) => b,
                other => return Err(Error::Codec(format!("invalid escape \\{}", other as char))),
            };
            has_content = true;
            if want {
                buf.push(unescaped);
            }
        }
        if is_null {
            if has_content {
                return Err(Error::Codec("data after null marker".into()));
            }
            return Ok(Value::Null);
        }
        Ok(if want && had_escape {
            // Fields that needed escaping are necessarily strings.
            Value::Str(String::from_utf8(buf).map_err(not_utf8)?)
        } else {
            // Escapes swap one ASCII pair for one ASCII byte, so checking
            // the raw bytes of a skipped field checks its content.
            let raw = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(not_utf8)?;
            if want {
                infer_value(raw)
            } else {
                Value::Null
            }
        })
    }

    fn parse_bag(&mut self, want: bool) -> Result<Value> {
        self.expect(b'{')?;
        let mut tuples = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let t = self.parse_bag_tuple(want)?;
                if want {
                    tuples.push(t);
                }
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
        Ok(if want { Value::Bag(tuples) } else { Value::Null })
    }

    fn parse_bag_tuple(&mut self, want: bool) -> Result<Tuple> {
        self.expect(b'(')?;
        let mut vals = Vec::new();
        if self.peek() == Some(b')') {
            self.pos += 1;
            return Ok(Tuple::from_values(vals));
        }
        loop {
            let v = self.parse_field(true, want)?;
            if want {
                vals.push(v);
            }
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
        Ok(Tuple::from_values(vals))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

/// Re-infer the runtime type of a decoded field that needed no escaping:
/// try int, then double, else string.
fn infer_value(s: &str) -> Value {
    if !s.is_empty() && looks_numeric(s) {
        if let Ok(i) = s.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(d) = s.parse::<f64>() {
            return Value::Double(d);
        }
    }
    Value::Str(s.to_owned())
}

fn looks_numeric(s: &str) -> bool {
    let b = s.as_bytes();
    let start = if b[0] == b'-' || b[0] == b'+' { 1 } else { 0 };
    if start >= b.len() {
        return false;
    }
    b[start..].iter().all(|&c| {
        c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'-' || c == b'+'
    }) && b[start].is_ascii_digit()
}

/// Decode an entire byte buffer of newline-separated records.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<Tuple>> {
    decode_all_columns(bytes, None)
}

/// [`decode_all`], materializing only the positions in `cols` (see
/// [`decode_columns`]).
pub fn decode_all_columns(bytes: &[u8], cols: Option<&ColumnSet>) -> Result<Vec<Tuple>> {
    let mut out: Vec<Tuple> = Vec::new();
    for line in LineIter::new(bytes) {
        // Records of one file nearly always share an arity.
        let arity_hint = out.last().map_or(0, Tuple::arity);
        out.push(decode_fields(line, cols, arity_hint)?);
    }
    Ok(out)
}

/// Iterator over newline-delimited records. Raw newline bytes are always
/// record boundaries because newlines inside strings are escaped.
pub struct LineIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LineIter<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        LineIter { bytes, pos: 0 }
    }
}

impl<'a> Iterator for LineIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        match find_byte(rest, [NL]) {
            Some(n) => {
                self.pos += n + 1;
                Some(&rest[..n])
            }
            None => {
                self.pos = self.bytes.len();
                Some(rest)
            }
        }
    }
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
        let bag = Value::Bag(vec![tuple!["u1", 10], tuple!["u2", 20]]);
        let t = Tuple::from_values(vec![Value::str("k"), bag]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn empty_bag_and_empty_tuple_in_bag() {
        let t = Tuple::from_values(vec![Value::Bag(vec![])]);
        assert_eq!(round_trip(&t), t);
        let t = Tuple::from_values(vec![Value::Bag(vec![Tuple::new()])]);
        // An empty tuple encodes as "()" whose single field decodes as
        // empty string — acceptable PigStorage-style lossiness.
        let rt = round_trip(&t);
        assert_eq!(rt.get(0).as_bag().unwrap().len(), 1);
    }

    #[test]
    fn bag_with_nulls_and_specials() {
        let bag = Value::Bag(vec![
            Tuple::from_values(vec![Value::Null, Value::str("a,b")]),
            Tuple::from_values(vec![Value::str("c}d"), Value::Double(1.5)]),
        ]);
        let t = Tuple::from_values(vec![bag, Value::Int(7)]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn nested_bag_round_trip() {
        // CoGroup output carries multiple bags in one row.
        let t = Tuple::from_values(vec![
            Value::str("key"),
            Value::Bag(vec![tuple![1], tuple![2]]),
            Value::Bag(vec![tuple!["x", "y"]]),
        ]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn numeric_string_stays_numeric_after_decode() {
        // "42" written as a *string* decodes as Int — acceptable
        // lossiness matching PigStorage's untyped storage.
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
        let bytes = b"a\nb\nc";
        let lines: Vec<&[u8]> = LineIter::new(bytes).collect();
        assert_eq!(lines, vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
    }

    #[test]
    fn encoded_len_estimate_is_exact_for_clean_data() {
        let cases = vec![
            tuple!["alice", 42, 2.5],
            Tuple::from_values(vec![
                Value::str("k"),
                Value::Bag(vec![tuple!["u", 1], tuple!["v", 2]]),
            ]),
        ];
        for t in cases {
            let mut buf = Vec::new();
            encode_tuple(&t, &mut buf);
            assert_eq!(buf.len(), t.encoded_len(), "tuple {t}");
        }
    }

    #[test]
    fn trailing_empty_field_round_trips() {
        let t = Tuple::from_values(vec![Value::Int(1), Value::str("")]);
        assert_eq!(round_trip(&t), t);
    }
}
