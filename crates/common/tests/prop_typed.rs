//! Property-based tests of the typed value codec and the stored format:
//! every value comes back as itself, compared by `Debug` (which tells
//! `-0.0` from `0.0` and an `Int` from a `Double`), and a damaged file is
//! an error, never a panic or a shorter answer.

use proptest::prelude::*;
use restore_common::{codec, typed, Bag, Tuple, Value};

/// Doubles the text codec cannot carry, and their neighbours.
fn edge_double() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(5e-324),
        // NaN payloads.
        any::<u64>().prop_map(|bits| f64::from_bits(0x7ff0_0000_0000_0001 | bits)),
        // Integral doubles of 1e15 and more, to past 2^53.
        (1_000_000_000_000_000i64..20_000_000_000_000_000).prop_map(|i| i as f64),
        // Short decimals (the decimal form) and arbitrary bits (the raw one).
        (-1_000_000i64..1_000_000, 0i32..8).prop_map(|(m, k)| m as f64 / 10f64.powi(k)),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        edge_double().prop_map(Value::Double),
        // Numeric-looking strings, empty ones, and long and non-ASCII ones.
        "[0-9]{1,4}".prop_map(Value::str),
        "-?[0-9]{1,3}\\.[0-9]{1,2}".prop_map(Value::str),
        "[a-z0-9 \t\n,(){}éü€]{0,40}".prop_map(Value::str),
        Just(Value::str("")),
        Just(Value::str("NaN")),
        Just(Value::str("1e300")),
    ]
}

/// A bag of tuples of any arity, zero included.
fn bag(element: impl Strategy<Value = Value>) -> impl Strategy<Value = Value> {
    prop::collection::vec(prop::collection::vec(element, 0..4).prop_map(Tuple::from_values), 0..4)
        .prop_map(|ts| Value::Bag(ts.into()))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => scalar(),
        1 => bag(scalar()),
        // Nested bags.
        1 => bag(prop_oneof![scalar(), bag(scalar())]),
    ]
}

/// A relation: mostly of one arity, as a stored relation is, sometimes
/// ragged, with records of no fields among them.
fn rows() -> impl Strategy<Value = Vec<Tuple>> {
    let of_arity = |arity: std::ops::Range<usize>| {
        prop::collection::vec(
            prop::collection::vec(value(), arity).prop_map(Tuple::from_values),
            0..60,
        )
    };
    prop_oneof![2 => of_arity(3..4), 1 => of_arity(1..2), 1 => of_arity(0..5)]
}

/// Group records: keys, then a bag of members of any arity (zero, short
/// and ragged ones included) holding nulls, NaN and nested bags; now and
/// then a scalar where the bag would be.
fn grouped() -> impl Strategy<Value = Vec<Tuple>> {
    let group = prop_oneof![3 => bag(prop_oneof![scalar(), bag(scalar())]), 1 => scalar()];
    prop::collection::vec(
        (prop::collection::vec(scalar(), 1..3), group).prop_map(|(mut keys, group)| {
            keys.push(group);
            Tuple::from_values(keys)
        }),
        0..30,
    )
}

/// Columns read whole and bag columns read for some member fields, the
/// two overlapping at times: the sets `exec` derives from a plan's
/// Projects and Aggregates.
fn member_column_set() -> impl Strategy<Value = codec::ColumnSet> {
    (
        prop::collection::vec(0usize..5, 0..3),
        prop::collection::vec((0usize..5, prop::option::of(0usize..4)), 0..5),
    )
        .prop_map(|(whole, members)| codec::ColumnSet::with_members(whole, members))
}

/// `rows` as a reader with `cols` builds them, from the whole read: the
/// set's positions, null past a record's end, and a bag read for its
/// members holding exactly those fields of each member, null past a
/// member's end.
fn projected(rows: &[Tuple], cols: &codec::ColumnSet) -> Vec<Tuple> {
    let member_fields = |v: &Value, fields: Option<&[usize]>| match (v, fields) {
        (Value::Bag(bag), Some(fields)) => Value::Bag(Bag::from_rows(bag.rows().map(|member| {
            fields
                .iter()
                .map(|&f| member.get(f).cloned().unwrap_or(Value::Null))
                .collect::<Vec<_>>()
        }))),
        _ => v.clone(),
    };
    rows.iter()
        .map(|row| {
            let at = cols.as_slice().iter().enumerate();
            at.map(|(i, &c)| member_fields(row.get(c), cols.members(i))).collect()
        })
        .collect()
}

fn debug(rows: &[Tuple]) -> String {
    format!("{rows:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value, and every file of them, reads back as itself.
    #[test]
    fn values_and_files_round_trip_exactly(rows in rows()) {
        for t in &rows {
            let mut buf = Vec::new();
            typed::put_tuple(t, typed::Doubles::Shortest, &mut buf);
            let mut r = typed::Reader::new(&buf);
            prop_assert_eq!(format!("{:?}", r.tuple().unwrap()), format!("{t:?}"));
            prop_assert!(r.is_empty());
        }
        let file = typed::encode_file(&rows);
        prop_assert_eq!(file.is_empty(), rows.is_empty());
        prop_assert_eq!(debug(&typed::decode_any(&file).unwrap()), debug(&rows));
    }

    /// A file's records are as long as their text or shorter, whenever the
    /// text carries them: what the text cannot carry is not a size claim.
    /// (One double it carries is longer typed: `-0.0`, four characters of
    /// text and nine raw bytes.)
    #[test]
    fn records_are_no_longer_than_their_text(rows in rows()) {
        let mut chunk = typed::Chunk::default();
        let typed_len: usize = rows.iter().map(|t| chunk.push(t)).sum();
        let comparable = |t: &Tuple| codec::reads_back(t) && t.iter().all(no_escapes_or_minus_zero);
        if rows.iter().all(comparable) {
            prop_assert!(typed_len <= codec::encode_all(&rows).len());
        }
    }

    /// Every strict prefix of a file is an error: a truncated file is never
    /// a shorter answer.
    #[test]
    fn every_strict_prefix_is_an_error(rows in rows()) {
        let file = typed::encode_file(&rows);
        for end in 0..file.len() {
            prop_assert!(typed::decode_file(&file[..end]).is_err(), "prefix of {} bytes", end);
        }
    }

    /// One flipped byte anywhere is an error or decodes the same number of
    /// records; it never panics.
    #[test]
    fn a_flipped_byte_is_an_error_or_as_many_records(
        rows in rows(),
        at in any::<prop::sample::Index>(),
        mask in 1u8..255,
    ) {
        let mut file = typed::encode_file(&rows);
        if file.is_empty() {
            return Ok(());
        }
        let at = at.index(file.len());
        file[at] ^= mask;
        if let Ok(back) = typed::decode_file(&file) {
            prop_assert_eq!(back.len(), rows.len(), "byte {} ^ {:#04x}", at, mask);
        }
    }
}

/// `file`'s records decoded group by group as a split reader decodes
/// them: only `cols`, every other field skipped by its length. A file of
/// no records is empty.
fn decode_columns(file: &[u8], cols: &codec::ColumnSet) -> restore_common::Result<Vec<Tuple>> {
    if file.is_empty() {
        return Ok(Vec::new());
    }
    let (index_len, footer_len) = typed::footer(file)?;
    let data_len = file.len() - footer_len - index_len as usize;
    let index = typed::Index::parse(&file[data_len..file.len() - footer_len], data_len as u64)?;
    let mut out = Vec::new();
    for g in index.groups() {
        typed::decode_group(&file[g.start as usize..g.end() as usize], g, Some(cols), |t| {
            out.push(t);
            Ok(())
        })?;
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A read with a member selection is the whole read projected onto
    /// it: the same records, the same verdict.
    #[test]
    fn a_member_selection_reads_as_the_whole_read_projected(
        rows in prop_oneof![grouped(), rows()],
        cols in member_column_set(),
    ) {
        let file = typed::encode_file(&rows);
        let whole = typed::decode_any(&file).unwrap();
        let got = decode_columns(&file, &cols);
        prop_assert_eq!(debug(&got.unwrap()), debug(&projected(&whole, &cols)), "{:?}", cols);
    }
}

/// A skipped field is still checked: a string of any length to 40 that
/// the reader does not ask for, in a column or in a member field of a bag
/// read for its other fields, with one byte at each position changed to
/// one that breaks its UTF-8, makes the file an error, pruned and whole.
#[test]
fn a_pruned_column_holding_invalid_utf8_is_refused() {
    let (one, two) = (Value::Int(1), Value::Int(2));
    let pruned = codec::ColumnSet::new([0, 2]);
    let members = codec::ColumnSet::with_members([0], [(1, Some(1))]);
    for len in 1..=40 {
        let s: String = (b'a'..=b'z').cycle().take(len).map(char::from).collect();
        let group = |fields: Vec<Value>| Value::Bag(Bag::from_rows([fields]));
        let cases = [
            (
                &pruned,
                Tuple::from_values(vec![one.clone(), Value::str(s.as_str()), two.clone()]),
                Tuple::from_values(vec![one.clone(), two.clone()]),
            ),
            (
                &members,
                Tuple::from_values(vec![
                    one.clone(),
                    group(vec![Value::str(s.as_str()), two.clone()]),
                ]),
                Tuple::from_values(vec![one.clone(), group(vec![two.clone()])]),
            ),
        ];
        for (cols, row, want) in cases {
            let file = typed::encode_file(&[row]);
            assert_eq!(decode_columns(&file, cols).unwrap(), vec![want]);
            let at = file.windows(len).position(|w| w == s.as_bytes()).unwrap();
            for i in 0..len {
                for bad in [0x80, 0xc3, 0xff] {
                    let mut damaged = file.clone();
                    damaged[at + i] = bad;
                    let what = format!("{len} bytes, {bad:#x} at {i}, {cols:?}");
                    assert!(decode_columns(&damaged, cols).is_err(), "{what}");
                    assert!(typed::decode_file(&damaged).is_err(), "{what}");
                }
            }
        }
    }
}

/// The member reads the properties above may not draw: a bag column read
/// for no field keeps every member, empty, so COUNT(*) counts them; a
/// field past a member's end reads null; a scalar or a null where a bag
/// would be is read whole; a nested bag in a picked field is whole.
#[test]
fn member_reads_at_the_edges() {
    let int = Value::Int;
    let bag = |members: Vec<Vec<Value>>| Value::Bag(Bag::from_rows(members));
    let nested = bag(vec![vec![int(7), int(8)]]);
    let group = bag(vec![
        vec![int(1), nested.clone(), int(3)],
        vec![],
        vec![int(4)],
        vec![Value::Null, Value::Double(f64::NAN)],
    ]);
    let rows = vec![
        Tuple::from_values(vec![int(0), group]),
        Tuple::from_values(vec![int(1), Value::str("not a bag")]),
        Tuple::from_values(vec![int(2), Value::Null]),
        Tuple::from_values(vec![int(3)]),
    ];
    let file = typed::encode_file(&rows);
    let read = |cols: &codec::ColumnSet| debug(&decode_columns(&file, cols).unwrap());
    let one_column = |values: [Value; 4]| values.map(|v| Tuple::from_values(vec![v]));

    let count_only = codec::ColumnSet::with_members([], [(1, None)]);
    let counted = bag(vec![vec![]; 4]);
    let rest = [Value::str("not a bag"), Value::Null, Value::Null];
    let [a, b, c] = rest.clone();
    assert_eq!(read(&count_only), debug(&one_column([counted, a, b, c])));

    let picked = codec::ColumnSet::with_members([], [(1, Some(2)), (1, Some(1))]);
    let null = || Value::Null;
    let two_fields = bag(vec![
        vec![nested, int(3)],
        vec![null(), null()],
        vec![null(), null()],
        vec![Value::Double(f64::NAN), null()],
    ]);
    let [a, b, c] = rest;
    assert_eq!(read(&picked), debug(&one_column([two_fields, a, b, c])));

    // Read whole as well: whole wins.
    let both = codec::ColumnSet::with_members([1], [(1, Some(0))]);
    assert_eq!(both.members(0), None);
    assert_eq!(read(&both), debug(&projected(&rows, &codec::ColumnSet::new([1]))));
}

/// No byte the text codec escapes (an escaped string is longer as text),
/// and no `-0.0`.
fn no_escapes_or_minus_zero(v: &Value) -> bool {
    match v {
        Value::Str(s) => !s.bytes().any(|b| b"\t\n\\,(){}".contains(&b)),
        Value::Double(d) => d.to_bits() != (-0.0f64).to_bits(),
        Value::Bag(ts) => ts.rows().all(|t| t.iter().all(no_escapes_or_minus_zero)),
        _ => true,
    }
}

#[test]
fn the_edge_values_are_covered() {
    let rows = vec![
        Tuple::from_values(vec![
            Value::Double(-0.0),
            Value::Double(f64::from_bits(0x7ff8_0000_dead_beef)),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Int(i64::MIN),
            Value::Double(4e15),
            Value::str("007"),
            Value::str("ünïcödé €"),
            Value::Bag(vec![].into()),
            Value::Bag(
                vec![Tuple::new(), Tuple::from_values(vec![Value::Bag(vec![Tuple::new()].into())])]
                    .into(),
            ),
        ]),
        Tuple::new(),
    ];
    let back = typed::decode_file(&typed::encode_file(&rows)).unwrap();
    assert_eq!(debug(&back), debug(&rows));
    let Value::Double(nan) = back[0].get(1) else { panic!() };
    assert_eq!(nan.to_bits(), 0x7ff8_0000_dead_beef, "the NaN payload survives");
}

// ---------------------------------------------------------------------
// The flat bag against the nested form it replaced
// ---------------------------------------------------------------------

/// A value as it was when a bag was a `Vec` of tuples, each a `Vec` of
/// values: the reference a flat [`restore_common::Bag`] must behave as.
/// Its order, equality and hash are the ones `Value` had then; its
/// scalars encode through the library, which did not change for them.
#[derive(Debug, Clone)]
enum Nested {
    Scalar(Value),
    Bag(Vec<Vec<Nested>>),
}

impl Nested {
    /// The flat value this reference stands for.
    fn flat(&self) -> Value {
        match self {
            Nested::Scalar(v) => v.clone(),
            Nested::Bag(tuples) => Value::Bag(restore_common::Bag::from_rows(
                tuples.iter().map(|t| t.iter().map(Nested::flat).collect::<Vec<_>>()),
            )),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Nested::Scalar(Value::Null) => 0,
            Nested::Scalar(Value::Int(_) | Value::Double(_)) => 1,
            Nested::Scalar(Value::Str(_)) => 2,
            Nested::Scalar(Value::Bag(_)) => unreachable!("bags are nested"),
            Nested::Bag(_) => 3,
        }
    }

    /// Text: a scalar as the codec writes it, a bag as `{(f,f),(f)}`.
    fn text(&self, out: &mut Vec<u8>) {
        match self {
            Nested::Scalar(v) => {
                codec::encode_tuple(&Tuple::from_values(vec![v.clone()]), out);
                out.pop(); // the newline
            }
            Nested::Bag(tuples) => {
                out.push(b'{');
                for (i, t) in tuples.iter().enumerate() {
                    out.extend_from_slice(if i > 0 { b",(" } else { b"(" });
                    for (j, f) in t.iter().enumerate() {
                        if j > 0 {
                            out.push(b',');
                        }
                        f.text(out);
                    }
                    out.push(b')');
                }
                out.push(b'}');
            }
        }
    }

    /// What the cost model counts: the text, strings unescaped and a null
    /// as nothing.
    fn encoded_len(&self) -> usize {
        match self {
            Nested::Scalar(v) => v.encoded_len(),
            Nested::Bag(tuples) => {
                let members: usize = tuples
                    .iter()
                    .map(|t| {
                        2 + t.len().saturating_sub(1)
                            + t.iter().map(Nested::encoded_len).sum::<usize>()
                    })
                    .sum();
                2 + tuples.len().saturating_sub(1) + members
            }
        }
    }

    /// Typed: a bag's tag and count, then each tuple's arity and values.
    fn typed(&self, out: &mut Vec<u8>) {
        match self {
            Nested::Scalar(v) => typed::put_value(v, typed::Doubles::Shortest, out),
            Nested::Bag(tuples) => {
                match u8::try_from(tuples.len()) {
                    Ok(n) if n < 31 => out.push(n << 3 | 5),
                    _ => {
                        out.push(31 << 3 | 5);
                        typed::put_varint(tuples.len() as u64, out);
                    }
                }
                for t in tuples {
                    typed::put_varint(t.len() as u64, out);
                    for f in t {
                        f.typed(out);
                    }
                }
            }
        }
    }
}

impl PartialEq for Nested {
    fn eq(&self, other: &Nested) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Nested {}

impl PartialOrd for Nested {
    fn partial_cmp(&self, other: &Nested) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nested {
    fn cmp(&self, other: &Nested) -> std::cmp::Ordering {
        match (self, other) {
            // Scalars compare as they always did.
            (Nested::Scalar(a), Nested::Scalar(b)) => a.cmp(b),
            (Nested::Bag(a), Nested::Bag(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl std::hash::Hash for Nested {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Nested::Scalar(v) => v.hash(state),
            Nested::Bag(tuples) => {
                3u8.hash(state);
                tuples.hash(state);
            }
        }
    }
}

fn nested(depth: u32) -> BoxedStrategy<Nested> {
    let mut variants: Vec<(u32, BoxedStrategy<Nested>)> = vec![
        (4, scalar().prop_map(Nested::Scalar).boxed()),
        (1, Just(Nested::Scalar(Value::Double(-0.0))).boxed()),
        (1, Just(Nested::Scalar(Value::Double(f64::NAN))).boxed()),
    ];
    if depth > 0 {
        variants.push((3, nested_bag(depth - 1).boxed()));
    }
    proptest::Union::new_weighted(variants).boxed()
}

/// Bags empty, of one arity, ragged, and of tuples with no fields.
fn nested_bag(depth: u32) -> BoxedStrategy<Nested> {
    let bag = |arity: std::ops::Range<usize>| {
        prop::collection::vec(prop::collection::vec(nested(depth), arity), 1..6)
            .prop_map(Nested::Bag)
    };
    prop_oneof![
        1 => Just(Nested::Bag(Vec::new())),
        1 => bag(1..2),
        1 => bag(2..3),
        1 => bag(3..4),
        3 => bag(0..4),
        1 => bag(0..1),
    ]
    .boxed()
}

fn default_hash(v: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A flat bag orders, compares, hashes and encodes (text, typed, and
    /// the cost model's length) exactly as its nested form did; a grouped
    /// row holding one, the whole key of a Distinct over grouped rows,
    /// hashes as the nested row did, so it lands in the same partition.
    #[test]
    fn a_flat_bag_is_its_nested_form(a in nested_bag(2), b in nested_bag(2), key in scalar()) {
        let (fa, fb) = (a.flat(), b.flat());
        prop_assert_eq!(fa.cmp(&fb), a.cmp(&b));
        prop_assert_eq!(fa == fb, a == b);
        prop_assert_eq!(default_hash(&fa), default_hash(&a));
        prop_assert_eq!(fa.encoded_len(), a.encoded_len());
        let mut text = Vec::new();
        a.text(&mut text);
        prop_assert_eq!(fa.to_string().len(), fa.encoded_len());
        let mut flat_text = Vec::new();
        codec::encode_tuple(&Tuple::from_values(vec![fa.clone()]), &mut flat_text);
        flat_text.pop();
        prop_assert_eq!(flat_text, text);
        let (mut typed_ref, mut typed_flat) = (Vec::new(), Vec::new());
        a.typed(&mut typed_ref);
        typed::put_value(&fa, typed::Doubles::Shortest, &mut typed_flat);
        prop_assert_eq!(&typed_flat, &typed_ref);
        let back = typed::Reader::new(&typed_flat).value().unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{fa:?}"));

        let row = Tuple::from_values(vec![key.clone(), fa]);
        let nested_row = vec![Nested::Scalar(key), a];
        prop_assert_eq!(default_hash(&row), default_hash(&nested_row));
    }
}
