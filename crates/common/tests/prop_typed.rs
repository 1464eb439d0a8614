//! Property-based tests of the typed value codec and the stored format:
//! every value comes back as itself, compared by `Debug` (which tells
//! `-0.0` from `0.0` and an `Int` from a `Double`), and a damaged file is
//! an error, never a panic or a shorter answer.

use proptest::prelude::*;
use restore_common::{codec, typed, Tuple, Value};

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
        .prop_map(Value::Bag)
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

/// No byte the text codec escapes (an escaped string is longer as text),
/// and no `-0.0`.
fn no_escapes_or_minus_zero(v: &Value) -> bool {
    match v {
        Value::Str(s) => !s.bytes().any(|b| b"\t\n\\,(){}".contains(&b)),
        Value::Double(d) => d.to_bits() != (-0.0f64).to_bits(),
        Value::Bag(ts) => ts.iter().all(|t| t.iter().all(no_escapes_or_minus_zero)),
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
            Value::Bag(vec![]),
            Value::Bag(vec![
                Tuple::new(),
                Tuple::from_values(vec![Value::Bag(vec![Tuple::new()])]),
            ]),
        ]),
        Tuple::new(),
    ];
    let back = typed::decode_file(&typed::encode_file(&rows)).unwrap();
    assert_eq!(debug(&back), debug(&rows));
    let Value::Double(nan) = back[0].get(1) else { panic!() };
    assert_eq!(nan.to_bits(), 0x7ff8_0000_dead_beef, "the NaN payload survives");
}
