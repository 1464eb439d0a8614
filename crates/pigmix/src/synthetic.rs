//! The §7.5 synthetic data set and query templates (Table 2, Figures
//! 16/17).
//!
//! Twelve fields: `field1..field5` are 20-character random strings (the
//! Project sweep's payload), `field6..field12` are integers whose
//! cardinality sets the selectivity of an equality predicate (the Filter
//! sweep). Cardinality 1.6 means two values split 60/40, so selecting the
//! majority value keeps 60 % of rows.

use restore_common::rng::SplitMix64;
use restore_common::{codec, Result, Tuple, Value};
use restore_dfs::Dfs;

/// Canonical DFS location of the synthetic table.
pub const SYNTH: &str = "/data/synthetic";

/// Table 2: (field index, cardinality, fraction selected by `field == 0`).
pub const FILTER_FIELDS: [(usize, f64, f64); 7] = [
    (6, 200.0, 0.005),
    (7, 100.0, 0.01),
    (8, 20.0, 0.05),
    (9, 10.0, 0.10),
    (10, 5.0, 0.20),
    (11, 2.0, 0.50),
    (12, 1.6, 0.60),
];

/// Generate `rows` rows of the synthetic table; returns encoded bytes.
pub fn generate(dfs: &Dfs, rows: usize, seed: u64) -> Result<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut t = Tuple::new();
        for _ in 0..5 {
            t.push(Value::str(rng.next_string(20)));
        }
        for (_, card, pct) in FILTER_FIELDS {
            // Value 0 is the "selected" value with probability `pct`;
            // the remaining mass spreads over the other card-1 values
            // (for fractional cardinality 1.6 that is a single value 1).
            let v = if rng.next_f64() < pct {
                0
            } else {
                let others = (card.ceil() as u64 - 1).max(1);
                1 + rng.next_below(others) as i64
            };
            t.push(Value::Int(v));
        }
        data.push(t);
    }
    let bytes = codec::encode_all(&data);
    let len = bytes.len() as u64;
    if dfs.exists(SYNTH) {
        dfs.delete(SYNTH);
    }
    dfs.write_all(SYNTH, &bytes)?;
    Ok(len)
}

fn schema_clause() -> String {
    let names: Vec<String> = (1..=12).map(|i| format!("field{i}")).collect();
    names.join(", ")
}

/// Query template QP (§7.5): project the first `k` string fields
/// (1 ≤ k ≤ 5), then group-count — the Project data-reduction sweep.
pub fn qp(k: usize, out: &str) -> String {
    assert!((1..=5).contains(&k), "QP projects 1..=5 fields");
    let projected: Vec<String> = (1..=k).map(|i| format!("field{i}")).collect();
    format!(
        "A = load '{SYNTH}' as ({schema});
         B = foreach A generate {proj};
         C = group B by field1;
         D = foreach C generate group, COUNT(B);
         store D into '{out}';",
        schema = schema_clause(),
        proj = projected.join(", "),
    )
}

/// Query template QF (§7.5): equality-filter on `field{i}` (6 ≤ i ≤ 12),
/// then group-count — the Filter data-reduction sweep.
pub fn qf(field: usize, out: &str) -> String {
    assert!((6..=12).contains(&field), "QF filters field6..field12");
    format!(
        "A = load '{SYNTH}' as ({schema});
         B = filter A by field{field} == 0;
         C = group B by field1;
         D = foreach C generate group, COUNT(B);
         store D into '{out}';",
        schema = schema_clause(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dfs::DfsConfig;

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig { nodes: 3, block_size: 4096, replication: 1, node_capacity: None })
    }

    #[test]
    fn selectivities_match_table2() {
        let d = dfs();
        generate(&d, 20_000, 11).unwrap();
        let rows = codec::decode_all(&d.read_all(SYNTH).unwrap()).unwrap();
        for (field, _card, pct) in FILTER_FIELDS {
            let hits = rows.iter().filter(|t| t.get(field - 1).as_i64() == Some(0)).count();
            let actual = hits as f64 / rows.len() as f64;
            assert!(
                (actual - pct).abs() < pct * 0.25 + 0.004,
                "field{field}: selected {actual:.4}, expected {pct}"
            );
        }
    }

    #[test]
    fn cardinalities_match_table2() {
        let d = dfs();
        generate(&d, 20_000, 11).unwrap();
        let rows = codec::decode_all(&d.read_all(SYNTH).unwrap()).unwrap();
        for (field, card, _) in FILTER_FIELDS {
            let mut vals: Vec<i64> =
                rows.iter().filter_map(|t| t.get(field - 1).as_i64()).collect();
            vals.sort_unstable();
            vals.dedup();
            let expect = card.ceil() as usize;
            assert!(
                vals.len() <= expect && vals.len() >= expect.saturating_sub(1).max(2).min(expect),
                "field{field}: {} distinct values, cardinality {card}",
                vals.len()
            );
        }
    }

    #[test]
    fn string_fields_are_20_chars() {
        let d = dfs();
        generate(&d, 100, 3).unwrap();
        let rows = codec::decode_all(&d.read_all(SYNTH).unwrap()).unwrap();
        for t in &rows {
            for i in 0..5 {
                assert_eq!(t.get(i).as_str().unwrap().len(), 20);
            }
        }
    }

    #[test]
    fn projection_fractions_span_paper_range() {
        // Paper: one projected field ≈ 18 % of bytes, five ≈ 74 %.
        let d = dfs();
        let total = generate(&d, 5_000, 5).unwrap();
        let rows = codec::decode_all(&d.read_all(SYNTH).unwrap()).unwrap();
        let frac = |cols: &[usize]| {
            let s: usize = rows.iter().map(|t| t.project(cols).encoded_len()).sum();
            s as f64 / total as f64
        };
        let one = frac(&[0]);
        let five = frac(&[0, 1, 2, 3, 4]);
        assert!((0.1..0.3).contains(&one), "1 field keeps {one:.2}");
        assert!((0.6..0.9).contains(&five), "5 fields keep {five:.2}");
    }

    #[test]
    fn qp_and_qf_compile_and_run() {
        use restore_core::{ReStore, ReStoreConfig};
        use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
        let d = dfs();
        generate(&d, 500, 9).unwrap();
        let eng = Engine::new(
            d,
            ClusterConfig::default(),
            EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
        );
        let rs = ReStore::new(eng, ReStoreConfig::baseline());
        for k in 1..=5 {
            rs.execute_query(&qp(k, &format!("/out/qp{k}")), &format!("/wf/qp{k}")).unwrap();
        }
        for (f, _, _) in FILTER_FIELDS {
            rs.execute_query(&qf(f, &format!("/out/qf{f}")), &format!("/wf/qf{f}")).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "QP projects")]
    fn qp_rejects_out_of_range() {
        qp(6, "/o");
    }
}
