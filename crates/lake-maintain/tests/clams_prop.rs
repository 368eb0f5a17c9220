//! Differential suite for the canon-coded RFD/CLAMS kernel: on every
//! table it must return exactly what the string-keyed oracle
//! (`src/clean/oracle.rs`) returns — the same discovered RFDs with
//! bit-equal confidences, the same violation rows for every RFD, and the
//! same CLAMS report (constraints, hypergraph, review queue).
//!
//! Two sources of tables: synthetic lakes at the fixed seeds 7, 42 and
//! 1337, each table also run through a seeded perturbation (case and
//! whitespace variants, nulls, numeric representation swaps, empty
//! strings), and a property over random small tables drawn from a value
//! pool where canonical forms collide across types.

use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_core::{Column, Table, Value};
use lake_maintain::clean::clams::{self, CellTriple, ClamsReport, DenialConstraint};
use lake_maintain::enrich::rfd::{self, Rfd};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[path = "../src/clean/oracle.rs"]
mod oracle;

/// RFD thresholds each table's CLAMS analysis runs at: everything,
/// loose, the lake's promotion gate, exact only (no FD constraints).
const THRESHOLDS: [f64; 4] = [0.0, 0.5, 0.85, 1.0];

/// Compare every public entry point of the kernel with the oracle.
fn check(table: &Table) -> Result<(), String> {
    for skip_keys in [false, true] {
        for threshold in [0.0, 0.85] {
            let found = rfd::discover_rfds(table, threshold, skip_keys);
            let expected = oracle::discover_rfds(table, threshold, skip_keys);
            if found != expected {
                return Err(format!(
                    "{}: discover_rfds({threshold}, {skip_keys}): {found:?} != {expected:?}",
                    table.name
                ));
            }
            let bits: Vec<u64> = found.iter().map(|r| r.confidence.to_bits()).collect();
            let want: Vec<u64> = expected.iter().map(|r| r.confidence.to_bits()).collect();
            if bits != want {
                return Err(format!("{}: confidence bits {bits:?} != {want:?}", table.name));
            }
        }
    }
    // At threshold 0 without key skipping every ordered pair is returned,
    // so every pair's confidence and violations are compared.
    for r in rfd::discover_rfds(table, 0.0, false) {
        let c = rfd::rfd_confidence(table, r.lhs, r.rhs).to_bits();
        let want = oracle::rfd_confidence(table, r.lhs, r.rhs).to_bits();
        if c != want {
            return Err(format!("{}: rfd_confidence {r:?}: {c:#x} != {want:#x}", table.name));
        }
        let (v, want) = (rfd::violations(table, &r), oracle::violations(table, &r));
        if v != want {
            return Err(format!("{}: violations {r:?}: {v:?} != {want:?}", table.name));
        }
    }
    for threshold in THRESHOLDS {
        let report = clams::analyze(table, threshold);
        let expected = oracle::analyze(table, threshold);
        if report != expected {
            return Err(format!(
                "{}: analyze({threshold}):\n{report:#?}\n!=\n{expected:#?}",
                table.name
            ));
        }
    }
    Ok(())
}

/// Values whose canonical forms collide or nearly collide: case and
/// whitespace variants, `Int(3)`/`Float(3.0)`/`"3"` (all render `"3"`),
/// `0.0`/`-0.0`, `""` and `" "` next to null, booleans against strings.
fn pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::str(""),
        Value::str(" "),
        Value::str("delft"),
        Value::str("Delft "),
        Value::str("DELFT"),
        Value::str("paris"),
        Value::str("Paris"),
        Value::Int(3),
        Value::Float(3.0),
        Value::str("3"),
        Value::str(" 3"),
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(2.5),
        Value::Bool(true),
        Value::str("TRUE"),
        Value::Float(f64::NAN),
        Value::str("nan"),
    ]
}

/// Rewrite a share of a table's cells into variants with the same or a
/// colliding canonical form, plus nulls and empty strings.
fn perturb(table: &Table, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let columns: Vec<Column> = table
        .columns()
        .iter()
        .map(|c| {
            let values = c
                .values
                .iter()
                .map(|v| match (rng.random_range(0..10u32), v) {
                    (0, Value::Str(s)) => Value::str(format!(" {} ", s.to_uppercase())),
                    (1, Value::Str(s)) => Value::str(s.to_lowercase()),
                    (0 | 1, Value::Int(i)) => Value::Float(*i as f64),
                    (0 | 1, Value::Float(f)) => Value::str(format!("{f} ")),
                    (2, _) => Value::Null,
                    (3, _) => Value::str(""),
                    _ => v.clone(),
                })
                .collect();
            Column { name: c.name.clone(), values }
        })
        .collect();
    Table::from_columns(format!("{}~{seed}", table.name), columns).unwrap()
}

#[test]
fn seeded_lakes_match_the_oracle() {
    for seed in [7, 42, 1337] {
        let lake = generate_lake(&LakeGenConfig { seed, ..LakeGenConfig::default() });
        for table in &lake.tables {
            check(table).unwrap();
            check(&perturb(table, seed)).unwrap();
        }
    }
}

#[test]
fn degenerate_tables_match_the_oracle() {
    let empty = Table::from_rows("empty", &["a", "b"], vec![]).unwrap();
    let single = Table::from_rows("single", &["a", "b"], vec![vec![Value::Null, Value::str("")]])
        .unwrap();
    let all_null = Table::from_rows(
        "all_null",
        &["a", "b"],
        vec![vec![Value::Null, Value::Int(1)], vec![Value::Null, Value::Int(2)]],
    )
    .unwrap();
    for t in [empty, single, all_null] {
        check(&t).unwrap();
    }
}

#[test]
fn reports_compare_whole() {
    // The equality `check` relies on covers every report field.
    let t = Table::from_rows(
        "t",
        &["k", "v"],
        vec![
            vec![Value::str("a"), Value::str("x")],
            vec![Value::str("a"), Value::str("x")],
            vec![Value::str("a"), Value::str("x")],
            vec![Value::str("a"), Value::str("x")],
            vec![Value::str("a"), Value::str("y")],
        ],
    )
    .unwrap();
    let report = clams::analyze(&t, 0.5);
    let triple = CellTriple { row: 4, column: "v".into(), value: "y".into() };
    let rfd = Rfd { lhs: 0, rhs: 1, confidence: 0.8 };
    let expected = ClamsReport {
        constraints: vec![DenialConstraint::FunctionalEquality(rfd)],
        hypergraph: [(triple.clone(), vec![0])].into_iter().collect(),
        review_queue: vec![(triple, 1)],
    };
    assert_eq!(report, expected);
}

proptest! {
    // Random tables of 1–4 columns and 0–40 rows over the colliding
    // pool; `nulls` blanks one column entirely (when in range) and
    // `width` narrows every column to a slice of the pool so majority
    // ties and repeated groups are common.
    #[test]
    fn random_tables_match_the_oracle(
        cells in proptest::collection::vec(0usize..64, 0..160),
        cols in 1usize..5,
        nulls in 0usize..8,
        width in 2usize..21,
    ) {
        let pool = pool();
        let rows = cells.len() / cols;
        let columns: Vec<Column> = (0..cols)
            .map(|c| {
                let values = (0..rows)
                    .map(|r| {
                        if c == nulls {
                            return Value::Null;
                        }
                        let pick = cells[r * cols + c] % width;
                        pool[(pick + c * 3) % pool.len()].clone()
                    })
                    .collect();
                Column { name: format!("c{c}"), values }
            })
            .collect();
        let table = Table::from_columns("random", columns).unwrap();
        if let Err(e) = check(&table) {
            prop_assert!(false, "{}", e);
        }
    }
}
