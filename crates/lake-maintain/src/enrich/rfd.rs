//! Relaxed functional dependency discovery (Constance, §6.4.2).
//!
//! "The relaxed functional dependencies are relaxed in the sense that they
//! do not apply to all tuples of a relation, or that similar attribute
//! values are also considered to be matched. Such dependencies provide
//! insights that specific attributes functionally depend on some other
//! attributes in a loose manner, which apply to the ingested datasets even
//! though they have a certain percentage of inconsistent tuples."
//!
//! An RFD `X ⇝ Y` holds with confidence `c` when, after grouping rows by
//! the (canonicalized) value of X, a fraction `c` of rows agree with their
//! group's majority Y value. Canonicalization (trim + lowercase) is the
//! "similar values match" relaxation.

use lake_core::batch::{ColumnBatch, DictColumn, NULL_CODE};
use lake_core::Table;

/// A discovered relaxed functional dependency on one table.
#[derive(Debug, Clone, PartialEq)]
pub struct Rfd {
    /// Determinant column index.
    pub lhs: usize,
    /// Dependent column index.
    pub rhs: usize,
    /// Fraction of rows consistent with the dependency.
    pub confidence: f64,
}

/// Canon code of `""`: the smallest string always takes code 0, and a
/// null dependent (which renders `""`) counts as this value.
const EMPTY_CODE: u32 = 0;

/// One column's cells as canon codes: the distinct canonical strings
/// (rendered, trimmed, lowercased) numbered in sorted order, `""`
/// included as code 0. Null cells keep [`NULL_CODE`].
#[derive(Debug)]
struct CanonColumn {
    codes: Vec<u32>,
    /// Number of canon codes (one past the largest).
    width: usize,
}

impl CanonColumn {
    /// Canonicalize each dictionary entry once and number the distinct
    /// results in sorted order, so that comparing codes compares
    /// canonical strings.
    fn new(col: &DictColumn) -> CanonColumn {
        let mut canon: Vec<(String, u32)> = col
            .entries()
            .iter()
            .zip(0u32..)
            .map(|(e, i)| (e.text.trim().to_lowercase(), i))
            .collect();
        canon.sort_unstable();
        let mut of_entry = vec![EMPTY_CODE; canon.len()];
        let mut code = EMPTY_CODE;
        let mut prev = "";
        for (text, entry) in &canon {
            if text != prev {
                code += 1;
                prev = text;
            }
            if let Some(slot) = of_entry.get_mut(*entry as usize) {
                *slot = code;
            }
        }
        // NULL_CODE is out of `of_entry`'s range, so nulls stay NULL_CODE.
        let codes = col
            .codes()
            .iter()
            .map(|&c| of_entry.get(c as usize).copied().unwrap_or(NULL_CODE))
            .collect();
        CanonColumn { codes, width: code as usize + 1 }
    }
}

/// A dependent cell's canon code: nulls count as `""`.
fn rhs_code(c: u32) -> u32 {
    if c == NULL_CODE {
        EMPTY_CODE
    } else {
        c
    }
}

/// Group the rows of `lhs ⇝ rhs` by determinant and call
/// `on_group(lhs_code, majority_rhs_code, majority_count)` once per
/// group; returns the number of grouped rows. Rows with a null
/// determinant are skipped. Keys `lhs << 32 | rhs` are sorted, so each
/// group is a run of keys and each dependent value a run within it; the
/// majority is the longest run, ties going to the smallest code — the
/// smallest canonical string. `keys` is scratch space.
fn scan_groups(
    lhs: &CanonColumn,
    rhs: &CanonColumn,
    keys: &mut Vec<u64>,
    mut on_group: impl FnMut(u32, u32, usize),
) -> usize {
    keys.clear();
    keys.extend(
        lhs.codes
            .iter()
            .zip(&rhs.codes)
            .filter(|(&l, _)| l != NULL_CODE)
            .map(|(&l, &r)| u64::from(l) << 32 | u64::from(rhs_code(r))),
    );
    keys.sort_unstable();
    for group in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
        let mut best: Option<(u64, usize)> = None;
        for run in group.chunk_by(|a, b| a == b) {
            if best.is_none_or(|(_, n)| run.len() > n) {
                best = run.first().map(|&key| (key, run.len()));
            }
        }
        if let Some((key, n)) = best {
            on_group((key >> 32) as u32, key as u32, n);
        }
    }
    keys.len()
}

/// Fraction of determinant-bearing rows that agree with their group's
/// majority (0 when there are none).
fn confidence(lhs: &CanonColumn, rhs: &CanonColumn, keys: &mut Vec<u64>) -> f64 {
    let mut consistent = 0usize;
    let total = scan_groups(lhs, rhs, keys, |_, _, n| consistent += n);
    if total == 0 {
        return 0.0;
    }
    consistent as f64 / total as f64
}

/// Rows whose dependent differs from their group's majority.
fn violating_rows(lhs: &CanonColumn, rhs: &CanonColumn) -> Vec<usize> {
    let mut majority = vec![NULL_CODE; lhs.width];
    scan_groups(lhs, rhs, &mut Vec::with_capacity(lhs.codes.len()), |l, r, _| {
        if let Some(slot) = majority.get_mut(l as usize) {
            *slot = r;
        }
    });
    lhs.codes
        .iter()
        .zip(&rhs.codes)
        .enumerate()
        .filter(|&(_, (&l, &r))| {
            l != NULL_CODE && majority.get(l as usize).is_some_and(|&m| m != rhs_code(r))
        })
        .map(|(i, _)| i)
        .collect()
}

/// A table dictionary-encoded once and canonicalized once per distinct
/// value, shared by RFD discovery and violation detection (and by the
/// CLAMS analysis built on both).
#[derive(Debug)]
pub(crate) struct CanonTable {
    batch: ColumnBatch,
    columns: Vec<CanonColumn>,
}

impl CanonTable {
    /// Encode and canonicalize every column of `table`.
    pub(crate) fn new(table: &Table) -> CanonTable {
        let batch = ColumnBatch::from_table(table);
        let columns = batch.columns().iter().map(CanonColumn::new).collect();
        CanonTable { batch, columns }
    }

    /// The dictionary-encoded table the codes were built from.
    pub(crate) fn batch(&self) -> &ColumnBatch {
        &self.batch
    }

    /// See [`discover_rfds`].
    pub(crate) fn discover(&self, min_confidence: f64, skip_keys: bool) -> Vec<Rfd> {
        let mut keys = Vec::with_capacity(self.batch.len());
        let mut out = Vec::new();
        for (lhs, (lcol, dict)) in self.columns.iter().zip(self.batch.columns()).enumerate() {
            if skip_keys && dict.is_unique() {
                continue;
            }
            for (rhs, rcol) in self.columns.iter().enumerate() {
                if lhs == rhs {
                    continue;
                }
                let confidence = confidence(lcol, rcol, &mut keys);
                if confidence >= min_confidence {
                    out.push(Rfd { lhs, rhs, confidence });
                }
            }
        }
        out.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
        out
    }

    /// See [`rfd_confidence`].
    fn confidence(&self, lhs: usize, rhs: usize) -> f64 {
        match (self.columns.get(lhs), self.columns.get(rhs)) {
            (Some(l), Some(r)) => confidence(l, r, &mut Vec::new()),
            _ => 0.0,
        }
    }

    /// See [`violations`].
    pub(crate) fn violations(&self, rfd: &Rfd) -> Vec<usize> {
        match (self.columns.get(rfd.lhs), self.columns.get(rfd.rhs)) {
            (Some(lhs), Some(rhs)) => violating_rows(lhs, rhs),
            _ => Vec::new(),
        }
    }
}

/// Confidence of `lhs ⇝ rhs` on `table` (1.0 = exact FD). Null-valued
/// determinants are skipped (they determine nothing); a column index out
/// of range gives 0.
pub fn rfd_confidence(table: &Table, lhs: usize, rhs: usize) -> f64 {
    CanonTable::new(table).confidence(lhs, rhs)
}

/// Discover all single-column RFDs with confidence in
/// `[min_confidence, 1.0]`. Pairs where the determinant is a key
/// (trivially functional) can optionally be excluded.
pub fn discover_rfds(table: &Table, min_confidence: f64, skip_keys: bool) -> Vec<Rfd> {
    CanonTable::new(table).discover(min_confidence, skip_keys)
}

/// Row indexes violating `rfd` (rows disagreeing with their group's
/// majority dependent value; on a tie the majority is the smallest
/// canonical value) — the data-cleaning hook of §6.5.1.
pub fn violations(table: &Table, rfd: &Rfd) -> Vec<usize> {
    CanonTable::new(table).violations(rfd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clams::oracle;
    use lake_core::Value;

    /// city → country holds except one typo'd row.
    fn table() -> Table {
        Table::from_rows(
            "t",
            &["city", "country", "x"],
            vec![
                vec![Value::str("delft"), Value::str("nl"), Value::Int(1)],
                vec![Value::str("delft"), Value::str("nl"), Value::Int(2)],
                vec![Value::str("Delft "), Value::str("nl"), Value::Int(3)],
                vec![Value::str("paris"), Value::str("fr"), Value::Int(4)],
                vec![Value::str("paris"), Value::str("de"), Value::Int(5)], // error
                vec![Value::str("paris"), Value::str("fr"), Value::Int(6)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn confidence_counts_majority_agreement() {
        let t = table();
        let c = rfd_confidence(&t, 0, 1);
        assert!((c - 5.0 / 6.0).abs() < 1e-9, "{c}");
        // Reverse direction is weaker: nl→delft (3/3 via canon), fr→paris (2/2), de→paris(1).
        let rev = rfd_confidence(&t, 1, 0);
        assert!(rev > 0.9);
    }

    #[test]
    fn canonicalization_is_the_relaxation() {
        // "Delft " matches "delft" thanks to trim+lowercase.
        let t = table();
        let c = rfd_confidence(&t, 0, 1);
        assert!(c > 0.8);
    }

    #[test]
    fn discovery_finds_relaxed_dependency() {
        let t = table();
        let rfds = discover_rfds(&t, 0.8, true);
        assert!(rfds.iter().any(|r| r.lhs == 0 && r.rhs == 1));
        // x is a key and excluded as determinant.
        assert!(!rfds.iter().any(|r| r.lhs == 2));
        // Strict threshold excludes the noisy pair.
        let strict = discover_rfds(&t, 0.99, true);
        assert!(!strict.iter().any(|r| r.lhs == 0 && r.rhs == 1));
    }

    #[test]
    fn violations_point_at_erroneous_rows() {
        let t = table();
        let rfd = Rfd { lhs: 0, rhs: 1, confidence: 5.0 / 6.0 };
        assert_eq!(violations(&t, &rfd), vec![4]);
    }

    #[test]
    fn majority_tie_keeps_the_smallest_canonical_value() {
        // Inside group "k" the dependents "Zeta " and "alpha" tie at two
        // rows each; the majority is the smaller canonical value
        // ("alpha" < "zeta"), so the rows holding "zeta" are flagged —
        // wherever they sit in row order.
        let t = Table::from_rows(
            "tie",
            &["a", "b"],
            vec![
                vec![Value::str("k"), Value::str("Zeta ")],
                vec![Value::str("k"), Value::str("alpha")],
                vec![Value::str("K"), Value::str("zeta")],
                vec![Value::str("k"), Value::str("ALPHA")],
                vec![Value::str("m"), Value::str("zeta")],
            ],
        )
        .unwrap();
        let rfd = Rfd { lhs: 0, rhs: 1, confidence: 0.6 };
        assert_eq!(violations(&t, &rfd), vec![0, 2]);
        assert_eq!(oracle::violations(&t, &rfd), vec![0, 2]);
        assert_eq!(rfd_confidence(&t, 0, 1), 3.0 / 5.0);
    }

    #[test]
    fn coded_kernel_matches_the_oracle() {
        let tie = Table::from_rows(
            "tie",
            &["a", "b", "c"],
            vec![
                vec![Value::str("k"), Value::str("b"), Value::Null],
                vec![Value::str("k"), Value::str("a"), Value::str("")],
                vec![Value::Null, Value::str("a"), Value::Int(3)],
                vec![Value::str("m"), Value::Null, Value::Float(3.0)],
                vec![Value::str("m"), Value::str(""), Value::str(" 3 ")],
            ],
        )
        .unwrap();
        for t in [table(), tie] {
            let found = discover_rfds(&t, 0.0, false);
            let expected = oracle::discover_rfds(&t, 0.0, false);
            assert_eq!(found, expected);
            for rfd in &found {
                let bits = rfd_confidence(&t, rfd.lhs, rfd.rhs).to_bits();
                assert_eq!(bits, oracle::rfd_confidence(&t, rfd.lhs, rfd.rhs).to_bits());
                assert_eq!(violations(&t, rfd), oracle::violations(&t, rfd), "{rfd:?}");
            }
        }
    }

    #[test]
    fn out_of_range_columns_are_empty() {
        let t = table();
        assert_eq!(rfd_confidence(&t, 0, 9), 0.0);
        assert!(violations(&t, &Rfd { lhs: 9, rhs: 1, confidence: 1.0 }).is_empty());
    }

    #[test]
    fn null_determinants_are_ignored() {
        let t = Table::from_rows(
            "n",
            &["a", "b"],
            vec![
                vec![Value::Null, Value::str("x")],
                vec![Value::str("k"), Value::str("y")],
            ],
        )
        .unwrap();
        assert_eq!(rfd_confidence(&t, 0, 1), 1.0);
        assert!(violations(&t, &Rfd { lhs: 0, rhs: 1, confidence: 1.0 }).is_empty());
    }

    #[test]
    fn empty_table_confidence_zero() {
        let t = Table::from_rows("e", &["a", "b"], vec![]).unwrap();
        assert_eq!(rfd_confidence(&t, 0, 1), 0.0);
    }
}
