//! Property tests of the shuffle run format: reducers get exactly what
//! mappers emitted, and a damaged run is refused or decoded, never a
//! panic.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use restore_common::{Tuple, Value};
use restore_mapreduce::shuffle::{decode_range, Record, Run, RunBuilder};

/// Strings the text codec would escape or re-type, and plain ones.
fn string() -> impl Strategy<Value = String> {
    let chars =
        vec!['a', 'z', '1', '2', '3', '.', '-', '\t', '\n', '\\', ',', '{', 'é', '雪', '😀'];
    prop_oneof![
        Just(String::new()),
        Just("123".to_string()),
        vec(select(chars), 0..8).prop_map(|cs| cs.into_iter().collect::<String>()),
    ]
}

fn value(depth: u32) -> BoxedStrategy<Value> {
    let mut variants: Vec<(u32, BoxedStrategy<Value>)> = vec![
        (1, Just(Value::Null).boxed()),
        (2, any::<i64>().prop_map(Value::Int).boxed()),
        (1, select(vec![i64::MIN, i64::MAX, 0, -1, 1]).prop_map(Value::Int).boxed()),
        // Every bit pattern: NaN payloads, infinities, subnormals.
        (2, any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits))).boxed()),
        (1, select(vec![-0.0, 0.0, 1.0, f64::NAN]).prop_map(Value::Double).boxed()),
        (3, string().prop_map(Value::str).boxed()),
    ];
    if depth > 0 {
        variants
            .push((2, vec(tuple(depth - 1), 0..4).prop_map(|ts| Value::Bag(ts.into())).boxed()));
    }
    proptest::Union::new_weighted(variants).boxed()
}

/// Tuples of arity 0–4, bags nested up to `depth` deep.
fn tuple(depth: u32) -> BoxedStrategy<Tuple> {
    vec(value(depth), 0..5).prop_map(Tuple::from_values).boxed()
}

fn records() -> impl Strategy<Value = Vec<Record>> {
    vec((tuple(1), 0usize..4, tuple(2)), 0..12)
}

fn partition_of(key: &Tuple, partitions: usize) -> usize {
    key.arity() % partitions
}

/// `records` pushed one by one, as a map task emits them.
fn encode(records: &[Record], partitions: usize) -> Run {
    let mut run = RunBuilder::new(partitions);
    for (key, tag, value) in records {
        run.push(partition_of(key, partitions), key.iter(), *tag, value);
    }
    run.finish()
}

proptest! {
    /// Each partition decodes to the records sent to it, in emission
    /// order, with identical `Debug` text — stricter than `==`, which
    /// equates `Int(1)` with `Double(1.0)` and `-0.0` with `0.0`.
    #[test]
    fn a_run_round_trips_debug_identical(records in records(), partitions in 1usize..6) {
        let run = encode(&records, partitions);
        for p in 0..partitions {
            let sent: Vec<&Record> =
                records.iter().filter(|(k, _, _)| partition_of(k, partitions) == p).collect();
            let mut got = Vec::new();
            decode_range(run.range(p), &mut got).unwrap();
            prop_assert_eq!(format!("{got:?}"), format!("{sent:?}"));
        }
    }

    /// Every strict prefix of a range is an error. A flipped byte is an
    /// error or — when it lands in a payload and leaves the structure
    /// whole, which no format without a checksum can tell from the
    /// original — a decode of the same number of records. Neither panics,
    /// and a length that the flip made huge is refused against the bytes
    /// remaining rather than reserved.
    #[test]
    fn a_damaged_range_is_refused_or_decoded_never_a_panic(
        records in records(),
        masks in vec(1u8..255, 3),
    ) {
        let run = encode(&records, 2);
        for p in 0..2 {
            let range = run.range(p);
            let mut whole = Vec::new();
            decode_range(range, &mut whole).unwrap();
            for cut in 0..range.len() {
                prop_assert!(decode_range(&range[..cut], &mut Vec::new()).is_err(), "cut at {}", cut);
            }
            let mut damaged = range.to_vec();
            for at in 0..range.len() {
                for mask in [0x01, 0x80, 0xff].into_iter().chain(masks.iter().copied()) {
                    damaged[at] ^= mask;
                    let mut got = Vec::new();
                    if decode_range(&damaged, &mut got).is_ok() {
                        prop_assert_eq!(got.len(), whole.len(), "byte {} ^ {:#x}", at, mask);
                    }
                    damaged[at] = range[at];
                }
            }
        }
    }
}
