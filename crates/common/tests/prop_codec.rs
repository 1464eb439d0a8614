//! Property-based tests of the record codec and the value ordering.

use proptest::prelude::*;
use restore_common::{codec, Bag, Tuple, Value};

/// Arbitrary scalar values, biased toward the nasty cases (empty
/// strings, codec specials, negative zero, extreme ints).
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN breaks Eq-based comparison, and the
        // engine never produces NaN from well-formed input.
        prop_oneof![
            any::<i32>().prop_map(|i| Value::Double(i as f64)),
            (-1e9f64..1e9).prop_map(Value::Double),
            Just(Value::Double(-0.0)),
        ],
        // Strings including every codec special character.
        "[a-z0-9 ,(){}\\\\\t\n=;:/.\\-_]{0,24}".prop_map(Value::str),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => scalar(),
        // Inner tuples have arity ≥ 1: the empty tuple `()` and the
        // 1-tuple of an empty string share an encoding (PigStorage-style
        // lossiness), and no operator ever produces arity-0 rows.
        1 => prop::collection::vec(
            prop::collection::vec(scalar(), 1..4).prop_map(Tuple::from_values),
            0..4
        )
        .prop_map(|ts| Value::Bag(ts.into())),
    ]
}

fn tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(value(), 1..6).prop_map(Tuple::from_values)
}

/// Arbitrary byte lines built from the fragments the decoder branches on
/// (escapes valid and not, null markers in odd places, bag punctuation,
/// raw tabs after a backslash, multi-byte and broken UTF-8), mixed with
/// plain bytes.
fn nasty_line() -> impl Strategy<Value = Vec<u8>> {
    #[rustfmt::skip]
    let fragments: Vec<&'static [u8]> = vec![
        b"\t", b"\t", b"\\", b"\\t", b"\\n", b"\\\\", b"\\\t", b"\\0N", b"\\0", b"\\0x", b"\\q", b"{", b"}",
        b"(", b")", b",", b"{}", b"{(a,1)}", b"{(\\0N),(b\\,c)}", b"{(", b"\\{", b"\\}", b"\\(", b"\\)",
        b"\\,", b"a", b"user_7", b"42", b"-3.5", b"1e9", b"+", b"", b" ", b"\n", b"\xc3\xa9", b"\xc3", b"\xff",
        b"\xe2\x82\xac", b"\xa9", b"title=abcdefghijklmnop;summary=qrstuvwxyz",
    ];
    prop_oneof![
        4 => prop::collection::vec(prop::sample::select(fragments), 0..12)
            .prop_map(|parts| parts.concat()),
        1 => prop::collection::vec(any::<u8>(), 0..40),
    ]
}

/// Columns read whole and, now and then, bag columns read for some member
/// fields (the sets `exec` derives from Projects and Aggregates).
fn column_set() -> impl Strategy<Value = codec::ColumnSet> {
    let members = prop::collection::vec((0usize..10, prop::option::of(0usize..4)), 0..4);
    prop_oneof![
        prop::collection::vec(0usize..10, 0..5).prop_map(codec::ColumnSet::new),
        (prop::collection::vec(0usize..10, 0..3), members)
            .prop_map(|(whole, members)| codec::ColumnSet::with_members(whole, members)),
    ]
}

/// A group record as text: keys, then a bag whose members have any arity
/// (zero, short and ragged ones included) and hold nulls, NaN and nested
/// bags; now and then a scalar where the bag would be.
fn group_line() -> impl Strategy<Value = Tuple> {
    let field = prop_oneof![
        4 => scalar(),
        1 => Just(Value::Null),
        1 => Just(Value::Double(f64::NAN)),
        1 => prop::collection::vec(prop::collection::vec(scalar(), 0..3), 0..3)
            .prop_map(|members| Value::Bag(Bag::from_rows(members))),
    ];
    let group = prop::collection::vec(prop::collection::vec(field, 0..4), 0..4)
        .prop_map(|members| Value::Bag(Bag::from_rows(members)));
    (prop::collection::vec(scalar(), 1..3), prop_oneof![3 => group, 1 => scalar()]).prop_map(
        |(mut keys, group)| {
            keys.push(group);
            Tuple::from_values(keys)
        },
    )
}

proptest! {
    /// encode → decode is the identity for any batch of tuples, up to
    /// PigStorage's documented type-lossiness (numeric strings decode as
    /// numbers), which the generator avoids by never emitting pure
    /// numeric strings.
    #[test]
    fn codec_round_trips(tuples in prop::collection::vec(tuple(), 0..10)) {
        let bytes = codec::encode_all(&tuples);
        let decoded = codec::decode_all(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), tuples.len());
        for (orig, back) in tuples.iter().zip(&decoded) {
            prop_assert_eq!(orig.arity(), back.arity(), "arity of {}", orig);
            for (a, b) in orig.iter().zip(back.iter()) {
                round_trip_equiv(a, b)?;
            }
        }
    }

    /// The one parser against the frozen pre-pruning decoder, over
    /// adversarial buffers (raw newlines included) and arbitrary column
    /// sets: the same lines accepted, the same values, and a narrow row
    /// that is the oracle's row projected onto the set.
    #[test]
    fn pruned_decode_matches_full_decode(
        lines in prop::collection::vec(nasty_line(), 0..4),
        cols in column_set(),
    ) {
        let payload = lines.join(&b'\n');
        if let Err(why) = check_against_oracle(&payload, &cols) {
            prop_assert!(false, "{}", why);
        }
    }

    /// A read with a member selection is the oracle's whole read projected
    /// onto it, over group records as the encoder writes them.
    #[test]
    fn a_member_selection_reads_as_the_whole_read_projected(
        rows in prop::collection::vec(group_line(), 0..6),
        cols in column_set(),
    ) {
        if let Err(why) = check_against_oracle(&codec::encode_all(&rows), &cols) {
            prop_assert!(false, "{}", why);
        }
    }

    /// Record splitting is byte-exact at every length and alignment the
    /// block-at-a-time scan can meet: bytes that merely look like a
    /// newline (0x0b, and 0x8a inside a two-byte character) are content.
    #[test]
    fn line_iter_splits_at_every_raw_newline(pieces in prop::collection::vec(
        prop_oneof![
            3 => Just(&b"\n"[..]),
            1 => Just(&b"\t"[..]),
            1 => Just(&b"\x0b"[..]),
            1 => Just(&b"\xc2\x8a"[..]),
            6 => prop::sample::select(vec![&b"a"[..], b"q", b"z", b" "]),
        ],
        0..100,
    )) {
        let bytes = pieces.concat();
        let mut expected: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if bytes.is_empty() || bytes.ends_with(b"\n") {
            expected.pop();
        }
        let expected: Vec<Tuple> = expected
            .into_iter()
            .map(|line| {
                line.split(|&b| b == b'\t')
                    .map(|f| Value::str(std::str::from_utf8(f).unwrap()))
                    .collect()
            })
            .collect();
        let rows = codec::decode_all(&bytes).unwrap();
        prop_assert_eq!(format!("{rows:?}"), format!("{expected:?}"));
    }

    /// The value ordering is a total order: antisymmetric and transitive
    /// on arbitrary triples.
    #[test]
    fn value_order_is_total(a in value(), b in value(), c in value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // Transitivity (≤).
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    /// Hash/Eq consistency: equal values hash equally.
    #[test]
    fn value_hash_consistent_with_eq(a in value(), b in value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// `encoded_len` never under-estimates (it may over-estimate only
    /// for... it must be exact for specials-free data, and encode adds
    /// escapes otherwise, so actual >= estimate is NOT guaranteed both
    /// ways; assert the invariant the DFS accounting relies on: actual
    /// length is at least the field content).
    #[test]
    fn encoded_len_close_to_actual(t in tuple()) {
        let mut buf = Vec::new();
        // The writer measures what `encoded_len` would count.
        prop_assert_eq!(codec::encode_tuple(&t, &mut buf), t.encoded_len());
        // Escaping only adds bytes; the estimate is a lower bound except
        // for the null marker (3 actual vs 0 estimated per null field).
        let nulls = t.iter().filter(|v| v.is_null()).count()
            + t.iter()
                .filter_map(|v| match v {
                    Value::Bag(ts) => Some(ts.rows().flatten().filter(|v| v.is_null()).count()),
                    _ => None,
                })
                .sum::<usize>();
        prop_assert!(buf.len() + 1 >= t.encoded_len());
        prop_assert!(buf.len() <= 2 * t.encoded_len() + 3 * nulls + 2);
    }
}

/// Compare `codec::Rows` over `payload` — every column, and `cols` only —
/// with the oracle applied to each raw-newline-separated line: same
/// verdict line by line up to the first rejected one, where the iteration
/// must end; same values (by `Debug`: `Value`'s `Eq` equates `Int(x)` with
/// `Double(x)`); and a narrow row holding exactly the set's positions of
/// the oracle's row, null past its end, a bag read for its members holding
/// exactly those fields of each member, null past a member's end.
fn check_against_oracle(payload: &[u8], cols: &codec::ColumnSet) -> Result<(), String> {
    let mut lines: Vec<&[u8]> = payload.split(|&b| b == b'\n').collect();
    if payload.is_empty() || payload.ends_with(b"\n") {
        lines.pop();
    }
    let mut full = codec::Rows::new(payload, None);
    let mut narrow = codec::Rows::new(payload, Some(cols));
    for line in lines {
        let oracle = reference::decode_line(line);
        let (Some(full_row), Some(narrow_row)) = (full.next(), narrow.next()) else {
            return Err(format!("rows ended before line {line:?} of {payload:?}"));
        };
        let alone = codec::decode_line(line);
        if full_row.is_ok() != oracle.is_ok()
            || narrow_row.is_ok() != oracle.is_ok()
            || alone.is_ok() != oracle.is_ok()
        {
            return Err(format!(
                "accept set moved on {line:?} (cols {cols:?}): oracle {oracle:?}, full \
                 {full_row:?}, narrow {narrow_row:?}, alone {alone:?}"
            ));
        }
        let Ok(oracle) = oracle else {
            if full.next().is_some() || narrow.next().is_some() {
                return Err(format!("rows went on after rejecting {line:?}"));
            }
            return Ok(());
        };
        let projected: Tuple = cols
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &c)| match (oracle.get(c), cols.members(i)) {
                (Value::Bag(bag), Some(fields)) => {
                    Value::Bag(Bag::from_rows(bag.rows().map(|member| {
                        let field = |f: &usize| member.get(*f).cloned().unwrap_or(Value::Null);
                        fields.iter().map(field).collect::<Vec<_>>()
                    })))
                }
                (v, _) => v.clone(),
            })
            .collect();
        let want = (format!("{oracle:?}"), format!("{projected:?}"));
        let got = (format!("{:?}", full_row.unwrap()), format!("{:?}", narrow_row.unwrap()));
        if got != want || format!("{:?}", alone.unwrap()) != want.0 {
            return Err(format!("{line:?} (cols {cols:?}): got {got:?}, want {want:?}"));
        }
    }
    if full.next().is_some() || narrow.next().is_some() {
        return Err(format!("rows past the last line of {payload:?}"));
    }
    Ok(())
}

/// The block scan against the byte-at-a-time oracle: every byte the parser
/// branches on — and the sequences around it — at every offset modulo the
/// block size, at a field start and inside a field, with nothing, one
/// byte and a whole block after it; and plain lines of every length up to
/// three blocks.
#[test]
fn block_scan_matches_a_byte_at_a_time_decoder_at_every_offset() {
    /// `codec`'s scanning step, in bytes.
    const BLOCK: usize = 32;
    #[rustfmt::skip]
    let fragments: [&[u8]; 22] = [
        b"\t", b"\n", b"\\t", b"\\\\", b"\\", b"\\q", b"\\0N", b"\\0", b"{(a,1),(\\0N)}", b"{}", b"{(", b"{",
        // Two-, three- and four-byte characters: whole, cut short, and a
        // continuation byte with no lead — each straddles a block edge
        // at some offset.
        "\u{e9}".as_bytes(), "\u{20ac}".as_bytes(), "\u{1f600}".as_bytes(), b"\xc3", b"\xe2\x82",
        b"\xf0\x9f\x98", b"\xa9", b"\xff", b"\xc3\n\xa9", b"\xc3\t\xa9",
    ];
    let sets = [
        codec::ColumnSet::new([]),
        codec::ColumnSet::new([0]),
        codec::ColumnSet::new([1, 3]),
        codec::ColumnSet::with_members([0], [(1, Some(1))]),
        codec::ColumnSet::with_members([], [(0, None), (1, Some(0))]),
    ];
    let check = |payload: &[u8]| {
        for cols in &sets {
            check_against_oracle(payload, cols).unwrap();
        }
    };
    for len in 0..=3 * BLOCK {
        check(&vec![b'x'; len]);
        check(&[vec![b'x'; len], b"\n".to_vec(), vec![b'y'; len]].concat());
    }
    for fragment in fragments {
        for offset in 0..=2 * BLOCK + 1 {
            for after in [0, 1, BLOCK] {
                let (before, after) = (vec![b'a'; offset], vec![b'b'; after]);
                // Inside the first field, and at the start of the second.
                check(&[&before[..], fragment, &after[..]].concat());
                check(&[&before[..], b"\t", fragment, &after[..], b"\tlast"].concat());
            }
        }
    }
}

/// A member field a reader skips is still checked: a bad escape, broken
/// UTF-8 or broken bag syntax in it, or in a bag nested there, makes the
/// line an error, read for the other field as when read whole.
#[test]
fn a_skipped_member_field_is_checked() {
    let members = codec::ColumnSet::with_members([0], [(1, Some(1))]);
    let count_only = codec::ColumnSet::with_members([], [(1, None)]);
    let good: &[u8] = b"k\t{(a\\,b,1),(\\0N,2),({(x)},3)}";
    for cols in [&members, &count_only] {
        check_against_oracle(good, cols).unwrap();
        assert!(codec::Rows::new(good, Some(cols)).next().unwrap().is_ok());
    }
    for bad in [
        &b"k\t{(a\\q,1)}"[..],
        b"k\t{(\xff,1)}",
        b"k\t{(\xc3,1)}",
        b"k\t{(a\\0Nb,1)}",
        b"k\t{({(\\q)},1)}",
        b"k\t{({(x),1)}",
        b"k\t{(x,1)",
        b"k\t{(x,1}",
        b"k\t{x,1}",
    ] {
        for cols in [&members, &count_only] {
            check_against_oracle(bad, cols).unwrap();
            let narrow = codec::Rows::new(bad, Some(cols)).next().unwrap();
            assert!(narrow.is_err(), "{:?} read for {cols:?}", String::from_utf8_lossy(bad));
            assert!(codec::decode_all(bad).is_err());
        }
    }
}

/// PigStorage-style equivalence after a round trip: values compare equal,
/// or a string re-decoded as the number it spells.
fn round_trip_equiv(orig: &Value, back: &Value) -> Result<(), TestCaseError> {
    if orig == back {
        return Ok(());
    }
    match (orig, back) {
        // A string that *spells* a number decodes as that number.
        (Value::Str(s), Value::Int(i)) => {
            prop_assert_eq!(s.parse::<i64>().ok(), Some(*i));
        }
        (Value::Str(s), Value::Double(d)) => {
            prop_assert_eq!(s.parse::<f64>().ok(), Some(*d));
        }
        // Doubles whose text form loses the fraction come back as Int —
        // Value's Eq already treats Int(x) == Double(x), so reaching
        // here means a genuine mismatch.
        (Value::Bag(a), Value::Bag(b)) => {
            prop_assert_eq!(a.len(), b.len());
            for (ta, tb) in a.rows().zip(b.rows()) {
                for (va, vb) in ta.iter().zip(tb.iter()) {
                    round_trip_equiv(va, vb)?;
                }
            }
        }
        other => prop_assert!(false, "round trip changed value: {other:?}"),
    }
    Ok(())
}

/// The decoder as it stood before column pruning, frozen as the oracle
/// for the accept/reject set and the decoded values: byte-at-a-time, one
/// buffer per field, every position materialized, one pre-cut line at a
/// time.
mod reference {
    use restore_common::{Error, Result, Tuple, Value};

    const SEP: u8 = b'\t';
    const NL: u8 = b'\n';
    const ESC: u8 = b'\\';
    const SPECIALS: &[u8] = b"\t\n\\,(){}";

    /// Decode one line (without its trailing newline) into a tuple.
    pub fn decode_line(line: &[u8]) -> Result<Tuple> {
        let mut p = Parser { bytes: line, pos: 0 };
        let mut vals = Vec::new();
        loop {
            vals.push(p.parse_field(&[SEP])?);
            if p.pos >= p.bytes.len() {
                break;
            }
            // Skip the separator.
            p.pos += 1;
            if p.pos == p.bytes.len() {
                // Trailing separator: final empty field.
                vals.push(Value::str(""));
                break;
            }
        }
        Ok(Tuple::from_values(vals))
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        /// Parse one field, stopping (without consuming) at any unescaped byte
        /// in `stop`.
        fn parse_field(&mut self, stop: &[u8]) -> Result<Value> {
            if self.peek() == Some(b'{') {
                return self.parse_bag();
            }
            let mut buf = Vec::new();
            let mut had_escape = false;
            let mut is_null = false;
            while let Some(b) = self.peek() {
                if stop.contains(&b) {
                    break;
                }
                self.pos += 1;
                if b == ESC {
                    let next = self.next_byte()?;
                    match next {
                        b't' => buf.push(SEP),
                        b'n' => buf.push(NL),
                        b'0' => {
                            // Null marker "\0N"; only valid as the whole field.
                            let n = self.next_byte()?;
                            if n != b'N' || !buf.is_empty() {
                                return Err(Error::Codec("misplaced null marker".into()));
                            }
                            is_null = true;
                        }
                        b if SPECIALS.contains(&b) => buf.push(b),
                        other => {
                            return Err(Error::Codec(format!("invalid escape \\{}", other as char)))
                        }
                    }
                    had_escape = true;
                } else {
                    buf.push(b);
                }
            }
            if is_null {
                if buf.is_empty() {
                    return Ok(Value::Null);
                }
                return Err(Error::Codec("data after null marker".into()));
            }
            let s = String::from_utf8(buf)
                .map_err(|_| Error::Codec("record is not valid UTF-8".into()))?;
            Ok(infer_value(s, had_escape))
        }

        fn parse_bag(&mut self) -> Result<Value> {
            self.expect(b'{')?;
            let mut tuples = Vec::new();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Bag(tuples.into()));
            }
            loop {
                tuples.push(self.parse_bag_tuple()?);
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
            Ok(Value::Bag(tuples.into()))
        }

        fn parse_bag_tuple(&mut self) -> Result<Tuple> {
            self.expect(b'(')?;
            let mut vals = Vec::new();
            if self.peek() == Some(b')') {
                self.pos += 1;
                return Ok(Tuple::from_values(vals));
            }
            loop {
                vals.push(self.parse_field(b",)")?);
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

    /// Re-infer the runtime type of a decoded field. Fields that needed
    /// escaping are necessarily strings; otherwise try int, then double.
    fn infer_value(s: String, had_escape: bool) -> Value {
        if had_escape {
            return Value::str(s);
        }
        if !s.is_empty() && looks_numeric(&s) {
            if let Ok(i) = s.parse::<i64>() {
                return Value::Int(i);
            }
            if let Ok(d) = s.parse::<f64>() {
                return Value::Double(d);
            }
        }
        Value::str(s)
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
}
