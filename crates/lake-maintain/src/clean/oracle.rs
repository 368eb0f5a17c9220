//! String-keyed reference implementation of relaxed-FD discovery and the
//! CLAMS analysis — the test oracle for the canon-coded kernel in
//! `enrich::rfd` and `clean::clams`.
//!
//! Every cell is canonicalized on the spot (`render` + trim + lowercase)
//! and grouped through nested string-keyed hash maps: slow, but short
//! enough to check by eye. The coded kernel must return exactly what
//! these functions return — equal constraint lists (confidences equal to
//! the bit), violation rows, hypergraphs and review queues.
//!
//! This file is compiled only into tests: the crate's unit tests include
//! it under `#[cfg(test)]` from `clean::clams`, and `tests/clams_prop.rs`
//! includes it by path. The including module must have `CellTriple`,
//! `ClamsReport`, `DenialConstraint` and `Rfd` in scope.

use super::{CellTriple, ClamsReport, DenialConstraint, Rfd};
use lake_core::{DataType, Table, Value};
use std::collections::{BTreeMap, HashMap};

fn canon(v: &Value) -> String {
    v.render().trim().to_lowercase()
}

fn column(table: &Table, i: usize) -> &[Value] {
    table.columns().get(i).map_or(&[], |c| c.values.as_slice())
}

/// Per lhs group, the count of each rhs value (null lhs skipped).
fn groups(table: &Table, lhs: usize, rhs: usize) -> HashMap<String, HashMap<String, usize>> {
    let mut groups: HashMap<String, HashMap<String, usize>> = HashMap::new();
    for (l, r) in column(table, lhs).iter().zip(column(table, rhs)) {
        if l.is_null() {
            continue;
        }
        *groups.entry(canon(l)).or_default().entry(canon(r)).or_insert(0) += 1;
    }
    groups
}

/// Reference `rfd::rfd_confidence`.
pub fn rfd_confidence(table: &Table, lhs: usize, rhs: usize) -> f64 {
    let groups = groups(table, lhs, rhs);
    let total: usize = groups.values().flat_map(HashMap::values).sum();
    if total == 0 {
        return 0.0;
    }
    let consistent: usize =
        groups.values().map(|dist| dist.values().copied().max().unwrap_or(0)).sum();
    consistent as f64 / total as f64
}

/// Reference `rfd::discover_rfds`.
pub fn discover_rfds(table: &Table, min_confidence: f64, skip_keys: bool) -> Vec<Rfd> {
    let mut out = Vec::new();
    for (lhs, col) in table.columns().iter().enumerate() {
        if skip_keys && col.is_unique() {
            continue;
        }
        for rhs in 0..table.num_columns() {
            if lhs == rhs {
                continue;
            }
            let confidence = rfd_confidence(table, lhs, rhs);
            if confidence >= min_confidence {
                out.push(Rfd { lhs, rhs, confidence });
            }
        }
    }
    out.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    out
}

/// Reference `rfd::violations`: the majority is the highest count, ties
/// going to the smallest canonical string.
pub fn violations(table: &Table, rfd: &Rfd) -> Vec<usize> {
    let majority: HashMap<String, String> = groups(table, rfd.lhs, rfd.rhs)
        .into_iter()
        .map(|(k, dist)| {
            let best = dist
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(v, _)| v)
                .unwrap_or_default();
            (k, best)
        })
        .collect();
    column(table, rfd.lhs)
        .iter()
        .zip(column(table, rfd.rhs))
        .enumerate()
        .filter(|(_, (l, r))| {
            !l.is_null() && majority.get(&canon(l)).is_some_and(|m| *m != canon(r))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Reference `clams::analyze`.
pub fn analyze(table: &Table, min_rfd_confidence: f64) -> ClamsReport {
    let mut constraints: Vec<DenialConstraint> = discover_rfds(table, min_rfd_confidence, true)
        .into_iter()
        .filter(|rfd| rfd.confidence < 1.0)
        .map(DenialConstraint::FunctionalEquality)
        .collect();
    for (ci, col) in table.columns().iter().enumerate() {
        let mut counts: BTreeMap<DataType, usize> = BTreeMap::new();
        for v in &col.values {
            if !v.is_null() {
                *counts.entry(v.data_type()).or_insert(0) += 1;
            }
        }
        if counts.len() >= 2 {
            if let Some((&dominant, &n)) = counts.iter().max_by_key(|&(_, &n)| n) {
                let total: usize = counts.values().sum();
                if n * 10 >= total * 8 {
                    constraints.push(DenialConstraint::TypeUniformity { column: ci, dominant });
                }
            }
        }
    }
    let mut hypergraph: BTreeMap<CellTriple, Vec<usize>> = BTreeMap::new();
    for (k, c) in constraints.iter().enumerate() {
        let (ci, rows) = match c {
            DenialConstraint::FunctionalEquality(rfd) => (rfd.rhs, violations(table, rfd)),
            DenialConstraint::TypeUniformity { column: ci, dominant } => {
                let rows = column(table, *ci)
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_null() && v.data_type() != *dominant)
                    .map(|(row, _)| row)
                    .collect();
                (*ci, rows)
            }
        };
        let Some(col) = table.columns().get(ci) else { continue };
        for row in rows {
            let value = col.values.get(row).map(Value::render).unwrap_or_default();
            let t = CellTriple { row, column: col.name.clone(), value };
            hypergraph.entry(t).or_default().push(k);
        }
    }
    let mut review_queue: Vec<(CellTriple, usize)> =
        hypergraph.iter().map(|(t, ks)| (t.clone(), ks.len())).collect();
    review_queue.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ClamsReport { constraints, hypergraph, review_queue }
}
