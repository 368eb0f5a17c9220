//! CLAMS: bringing quality to data lakes with discovered denial
//! constraints (§6.5.1).
//!
//! "Given the RDF triples, a conditional denial constraint specifies a set
//! of negation conditions about the tuples. The proposed approach
//! automatically detects such constraints … It examines the triples
//! violating the obtained constraints and uses them to build a hypergraph,
//! which indicates the number of constraints violated by each triple.
//! Then, it accordingly ranks the RDF triples and asks the user to
//! validate whether such a candidate dirty triple should be removed."
//!
//! Pipeline: tables are viewed as RDF triples `(row, column, value)`;
//! constraints are inferred from the data (here: high-confidence relaxed
//! FDs as equality denial constraints, plus type-uniformity constraints);
//! violations form a hypergraph whose per-triple violation degree ranks
//! the review queue.

use crate::enrich::rfd::{CanonTable, Rfd};
use lake_core::batch::DictColumn;
use lake_core::{DataType, Table};
use std::collections::{BTreeMap, BTreeSet};

#[cfg(test)]
#[path = "oracle.rs"]
pub(crate) mod oracle;

/// An RDF-ish triple view of one table cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellTriple {
    /// Row index (the subject).
    pub row: usize,
    /// Column name (the predicate).
    pub column: String,
    /// Rendered value (the object).
    pub value: String,
}

/// A discovered denial constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum DenialConstraint {
    /// ¬(t.lhs = u.lhs ∧ t.rhs ≠ u.rhs): the FD `lhs → rhs` must hold
    /// (discovered as a high-confidence RFD).
    FunctionalEquality(Rfd),
    /// ¬(typeof(t.col) ≠ dominant_type): a column's values must share its
    /// dominant type (mixed-type cells are suspicious in raw CSVs).
    TypeUniformity {
        /// Column index.
        column: usize,
        /// The dominant type.
        dominant: DataType,
    },
}

/// The CLAMS analysis of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct ClamsReport {
    /// Discovered constraints.
    pub constraints: Vec<DenialConstraint>,
    /// Violation hypergraph: triple → indexes of violated constraints.
    pub hypergraph: BTreeMap<CellTriple, Vec<usize>>,
    /// Review queue: triples ranked by violation degree (desc).
    pub review_queue: Vec<(CellTriple, usize)>,
}

/// The dominant type of a column's non-null values if it covers at least
/// 80% of them while another type is present too.
fn dominant_type(col: &DictColumn) -> Option<DataType> {
    let mut counts: BTreeMap<DataType, usize> = BTreeMap::new();
    for e in col.entries() {
        *counts.entry(e.value.data_type()).or_insert(0) += e.count as usize;
    }
    let (&dominant, &n) = counts.iter().max_by_key(|&(_, &n)| n)?;
    let total: usize = counts.values().sum();
    (counts.len() >= 2 && n * 10 >= total * 8).then_some(dominant)
}

/// Rows of `col` holding a non-null value of a type other than `dominant`.
fn off_type_rows(col: &DictColumn, dominant: DataType) -> Vec<usize> {
    let entries = col.entries();
    col.codes()
        .iter()
        .enumerate()
        .filter(|&(_, &code)| {
            entries.get(code as usize).is_some_and(|e| e.value.data_type() != dominant)
        })
        .map(|(row, _)| row)
        .collect()
}

/// Run CLAMS: infer constraints with the given RFD confidence threshold,
/// then rank violating triples. The table is dictionary-encoded and
/// canonicalized once; constraint discovery, the type census and the
/// violation hypergraph all read those codes.
pub fn analyze(table: &Table, min_rfd_confidence: f64) -> ClamsReport {
    let canon = CanonTable::new(table);
    let batch = canon.batch();
    // Functional denial constraints from confident RFDs.
    let mut constraints: Vec<DenialConstraint> = canon
        .discover(min_rfd_confidence, true)
        .into_iter()
        .filter(|rfd| rfd.confidence < 1.0)
        .map(DenialConstraint::FunctionalEquality)
        .collect();
    // Type-uniformity constraints for columns with a dominant type.
    for (column, col) in batch.columns().iter().enumerate() {
        if let Some(dominant) = dominant_type(col) {
            constraints.push(DenialConstraint::TypeUniformity { column, dominant });
        }
    }

    // Violations → hypergraph.
    let mut hypergraph: BTreeMap<CellTriple, Vec<usize>> = BTreeMap::new();
    for (k, c) in constraints.iter().enumerate() {
        let column = match c {
            DenialConstraint::FunctionalEquality(rfd) => rfd.rhs,
            DenialConstraint::TypeUniformity { column, .. } => *column,
        };
        let Some(col) = batch.column(column) else { continue };
        let rows = match c {
            DenialConstraint::FunctionalEquality(rfd) => canon.violations(rfd),
            DenialConstraint::TypeUniformity { dominant, .. } => off_type_rows(col, *dominant),
        };
        for row in rows {
            // A null cell renders as "": NULL_CODE has no entry.
            let value = col
                .codes()
                .get(row)
                .and_then(|&code| col.entries().get(code as usize))
                .map_or_else(String::new, |e| e.text.clone());
            let t = CellTriple { row, column: col.name().to_string(), value };
            hypergraph.entry(t).or_default().push(k);
        }
    }
    let mut review_queue: Vec<(CellTriple, usize)> = hypergraph
        .iter()
        .map(|(t, ks)| (t.clone(), ks.len()))
        .collect();
    review_queue.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ClamsReport { constraints, hypergraph, review_queue }
}

/// Apply user validation: remove the rows of confirmed-dirty triples.
pub fn remove_confirmed(table: &Table, confirmed: &[CellTriple]) -> Table {
    let dirty_rows: BTreeSet<usize> = confirmed.iter().map(|t| t.row).collect();
    let mut i = 0;
    table.filter(|_| {
        let keep = !dirty_rows.contains(&i);
        i += 1;
        keep
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::Value;

    /// city→country with one violation; "pop" has one stray string.
    fn dirty() -> Table {
        Table::from_rows(
            "cities",
            &["city", "country", "pop"],
            vec![
                vec![Value::str("delft"), Value::str("nl"), Value::Int(100)],
                vec![Value::str("delft"), Value::str("nl"), Value::Int(101)],
                vec![Value::str("delft"), Value::str("nl"), Value::Int(99)],
                vec![Value::str("paris"), Value::str("fr"), Value::Int(500)],
                vec![Value::str("paris"), Value::str("fr"), Value::str("n/a?")],
                vec![Value::str("paris"), Value::str("xx"), Value::Int(502)], // dirty
                vec![Value::str("rome"), Value::str("it"), Value::Int(300)],
                vec![Value::str("rome"), Value::str("it"), Value::Int(301)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn discovers_both_constraint_kinds() {
        let report = analyze(&dirty(), 0.8);
        assert!(report
            .constraints
            .iter()
            .any(|c| matches!(c, DenialConstraint::FunctionalEquality(r) if r.lhs == 0 && r.rhs == 1)));
        assert!(report
            .constraints
            .iter()
            .any(|c| matches!(c, DenialConstraint::TypeUniformity { column: 2, dominant: DataType::Int })));
    }

    #[test]
    fn review_queue_surfaces_planted_errors() {
        let report = analyze(&dirty(), 0.8);
        assert!(!report.review_queue.is_empty());
        let flagged_rows: Vec<usize> = report.review_queue.iter().map(|(t, _)| t.row).collect();
        assert!(flagged_rows.contains(&5), "FD violation row flagged");
        assert!(flagged_rows.contains(&4), "type anomaly row flagged");
        // Clean rows are not in the queue.
        assert!(!flagged_rows.contains(&0));
    }

    #[test]
    fn user_confirmation_removes_rows() {
        let t = dirty();
        let report = analyze(&t, 0.8);
        let confirmed: Vec<CellTriple> =
            report.review_queue.iter().map(|(t, _)| t.clone()).collect();
        let cleaned = remove_confirmed(&t, &confirmed);
        assert_eq!(cleaned.num_rows(), 6);
        let report2 = analyze(&cleaned, 0.8);
        assert!(report2.review_queue.is_empty(), "{:?}", report2.review_queue);
    }

    #[test]
    fn clean_table_yields_empty_queue() {
        let t = Table::from_rows(
            "ok",
            &["a", "b"],
            vec![
                vec![Value::str("x"), Value::Int(1)],
                vec![Value::str("y"), Value::Int(2)],
            ],
        )
        .unwrap();
        let report = analyze(&t, 0.8);
        assert!(report.review_queue.is_empty());
    }

    #[test]
    fn several_triples_on_one_row_remove_it_once() {
        let t = dirty();
        let triple = |row: usize, column: &str| CellTriple {
            row,
            column: column.to_string(),
            value: String::new(),
        };
        let confirmed =
            vec![triple(5, "country"), triple(4, "pop"), triple(5, "pop"), triple(5, "country")];
        let cleaned = remove_confirmed(&t, &confirmed);
        assert_eq!(cleaned.num_rows(), 6);
        // Rows 3 and 6 slide into positions 3 and 4.
        let cities = &cleaned.columns()[0].values;
        assert_eq!(cities[3..5], [Value::str("paris"), Value::str("rome")]);
        assert_eq!(remove_confirmed(&t, &[]).num_rows(), t.num_rows());
    }

    #[test]
    fn matches_the_string_keyed_oracle() {
        let mixed = Table::from_rows(
            "mixed",
            &["k", "v", "n"],
            vec![
                vec![Value::str("Delft "), Value::Int(3), Value::Null],
                vec![Value::str("delft"), Value::Float(3.0), Value::str("")],
                vec![Value::str("delft"), Value::str(" 3"), Value::Int(1)],
                vec![Value::Null, Value::str("x"), Value::Int(2)],
                vec![Value::str(""), Value::Null, Value::Int(2)],
                vec![Value::str(""), Value::str("y"), Value::Float(2.5)],
                vec![Value::str("paris"), Value::str("B"), Value::Int(4)],
                vec![Value::str("PARIS"), Value::str("a"), Value::Int(4)],
            ],
        )
        .unwrap();
        for table in [dirty(), mixed] {
            for threshold in [0.0, 0.5, 0.8] {
                assert_eq!(analyze(&table, threshold), oracle::analyze(&table, threshold));
            }
        }
    }
}
