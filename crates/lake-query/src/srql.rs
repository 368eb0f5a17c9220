//! Aurum's discovery-primitive query language (§6.2.1, §7.1).
//!
//! "In its primitive-based query language, an Aurum user can compose
//! queries to search schemata or data values with keywords to find
//! specific columns, tables, or paths. Users can specify criteria and
//! obtain ranked querying results in a flexible manner, i.e., they can
//! obtain the ranking results of different criteria without re-running
//! the query."
//!
//! Syntax: a pipeline of primitives separated by `|`:
//!
//! ```text
//! similar_content(table.column)
//! similar_name(table.column)
//! pkfk_of(table.column)
//! keyword(term)            -- columns whose name contains term
//! intersect                 -- keep candidates present in both branches
//! ```
//!
//! Execution returns a [`ResultSet`] holding *per-criterion* scores, so
//! [`ResultSet::ranked_by`] re-ranks without re-running the search.

use lake_core::{LakeError, Result};
use lake_discovery::aurum::Aurum;
use lake_discovery::corpus::{ColumnRef, TableCorpus};
use std::collections::BTreeMap;

/// A parsed primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Primitive {
    /// Content-similar columns of the argument.
    SimilarContent(String),
    /// Name-similar columns of the argument.
    SimilarName(String),
    /// PK-FK partners of the argument.
    PkfkOf(String),
    /// Columns whose name contains the keyword.
    Keyword(String),
    /// Set intersection with the accumulated result.
    Intersect,
}

/// Scores per criterion per candidate column.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// candidate → criterion → score.
    pub scores: BTreeMap<ColumnRef, BTreeMap<&'static str, f64>>,
}

impl ResultSet {
    fn add(&mut self, at: ColumnRef, criterion: &'static str, score: f64) {
        let entry = self.scores.entry(at).or_default().entry(criterion).or_insert(0.0);
        if score > *entry {
            *entry = score;
        }
    }

    /// Candidates ranked by one criterion, descending (re-rankable without
    /// re-executing the query — Aurum's flexibility claim).
    pub fn ranked_by(&self, criterion: &str) -> Vec<(ColumnRef, f64)> {
        let mut v: Vec<(ColumnRef, f64)> = self
            .scores
            .iter()
            .filter_map(|(at, m)| m.get(criterion).map(|&s| (*at, s)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Candidates ranked by their best score across all criteria.
    pub fn ranked_overall(&self) -> Vec<(ColumnRef, f64)> {
        let mut v: Vec<(ColumnRef, f64)> = self
            .scores
            .iter()
            .map(|(at, m)| (*at, m.values().copied().fold(0.0, f64::max)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` when no candidate matched.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// Parse an SRQL pipeline.
pub fn parse(text: &str) -> Result<Vec<Primitive>> {
    text.split('|')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|part| {
            if part == "intersect" {
                return Ok(Primitive::Intersect);
            }
            let (name, rest) = part
                .split_once('(')
                .ok_or_else(|| LakeError::query(format!("expected primitive(arg): {part}")))?;
            let arg = rest
                .strip_suffix(')')
                .ok_or_else(|| LakeError::query(format!("missing ')': {part}")))?
                .trim()
                .to_string();
            match name.trim() {
                "similar_content" => Ok(Primitive::SimilarContent(arg)),
                "similar_name" => Ok(Primitive::SimilarName(arg)),
                "pkfk_of" => Ok(Primitive::PkfkOf(arg)),
                "keyword" => Ok(Primitive::Keyword(arg)),
                other => Err(LakeError::query(format!("unknown primitive {other}"))),
            }
        })
        .collect()
}

fn resolve(corpus: &TableCorpus, arg: &str) -> Result<ColumnRef> {
    let (t, c) = arg
        .split_once('.')
        .ok_or_else(|| LakeError::query(format!("expected table.column, got {arg}")))?;
    let ti = corpus
        .table_index(t)
        .ok_or_else(|| LakeError::not_found(format!("table {t}")))?;
    let ci = corpus.tables()[ti]
        .column_index(c)
        .ok_or_else(|| LakeError::not_found(format!("column {c} in {t}")))?;
    Ok(ColumnRef { table: ti, column: ci })
}

/// Execute a pipeline against a built Aurum EKG.
pub fn execute(
    aurum: &Aurum,
    corpus: &TableCorpus,
    pipeline: &[Primitive],
) -> Result<ResultSet> {
    let mut acc = ResultSet::default();
    let mut first_branch = true;
    for p in pipeline {
        let mut branch = ResultSet::default();
        match p {
            Primitive::Intersect => {
                first_branch = false;
                continue;
            }
            Primitive::SimilarContent(arg) => {
                let at = resolve(corpus, arg)?;
                for (c, s) in aurum.similar_content_to(corpus, at) {
                    branch.add(c, "content", s);
                }
            }
            Primitive::SimilarName(arg) => {
                let at = resolve(corpus, arg)?;
                for (c, s) in aurum.similar_name_to(corpus, at) {
                    branch.add(c, "name", s);
                }
            }
            Primitive::PkfkOf(arg) => {
                let at = resolve(corpus, arg)?;
                for (c, s) in aurum.pkfk_of(corpus, at) {
                    branch.add(c, "pkfk", s);
                }
            }
            Primitive::Keyword(term) => {
                let lower = term.to_lowercase();
                for prof in corpus.profiles() {
                    if prof.name.to_lowercase().contains(&lower) {
                        branch.add(prof.at, "keyword", 1.0);
                    }
                }
            }
        }
        if first_branch {
            // Union criteria scores.
            for (at, crits) in branch.scores {
                for (k, v) in crits {
                    acc.add(at, k, v);
                }
            }
        } else {
            // Intersect: keep candidates present in both, merging scores.
            let keep: Vec<ColumnRef> = acc
                .scores
                .keys()
                .filter(|at| branch.scores.contains_key(at))
                .copied()
                .collect();
            acc.scores.retain(|at, _| keep.contains(at));
            for at in keep {
                if let Some(crits) = branch.scores.get(&at) {
                    for (k, v) in crits {
                        acc.add(at, k, *v);
                    }
                }
            }
            first_branch = true;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, LakeGenConfig};
    use lake_discovery::DiscoverySystem;

    fn setup() -> (TableCorpus, Aurum) {
        let lake = generate_lake(&LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables);
        let mut aurum = Aurum::default();
        aurum.build(&corpus);
        (corpus, aurum)
    }

    #[test]
    fn parse_pipeline() {
        let p = parse("similar_content(g0_t0.customer_id) | intersect | keyword(cust)").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p[1], Primitive::Intersect);
        assert!(parse("bogus(x)").is_err());
        assert!(parse("similar_content(x").is_err());
    }

    #[test]
    fn content_primitive_finds_joinable_columns() {
        let (corpus, aurum) = setup();
        // Key column of g0_t0 (index 0 by construction).
        let key = corpus.tables()[corpus.table_index("g0_t0").unwrap()].columns()[0]
            .name
            .clone();
        let rs = execute(&aurum, &corpus, &parse(&format!("similar_content(g0_t0.{key})")).unwrap())
            .unwrap();
        assert!(!rs.is_empty());
        let top = rs.ranked_by("content");
        assert!(top[0].1 > 0.2);
    }

    #[test]
    fn keyword_primitive_matches_names() {
        let (corpus, aurum) = setup();
        let rs = execute(&aurum, &corpus, &parse("keyword(price)").unwrap()).unwrap();
        for (at, _) in rs.ranked_by("keyword") {
            assert!(corpus.profile(at).unwrap().name.contains("price"));
        }
    }

    #[test]
    fn intersect_narrows_results() {
        let (corpus, aurum) = setup();
        let key = corpus.tables()[corpus.table_index("g0_t0").unwrap()].columns()[0]
            .name
            .clone();
        let broad = execute(&aurum, &corpus, &parse(&format!("similar_content(g0_t0.{key})")).unwrap())
            .unwrap();
        let narrowed = execute(
            &aurum,
            &corpus,
            &parse(&format!("similar_content(g0_t0.{key}) | intersect | keyword(id)")).unwrap(),
        )
        .unwrap();
        assert!(narrowed.len() <= broad.len());
        for (at, _) in narrowed.ranked_overall() {
            assert!(corpus.profile(at).unwrap().name.contains("id"));
        }
    }

    #[test]
    fn reranking_without_rerun() {
        let (corpus, aurum) = setup();
        let key = corpus.tables()[corpus.table_index("g0_t0").unwrap()].columns()[0]
            .name
            .clone();
        let rs = execute(
            &aurum,
            &corpus,
            &parse(&format!("similar_content(g0_t0.{key}) | similar_name(g0_t0.{key})")).unwrap(),
        )
        .unwrap();
        // Two independent rankings from one execution.
        let by_content = rs.ranked_by("content");
        let by_name = rs.ranked_by("name");
        assert!(!by_content.is_empty());
        // Both rankings draw from the same candidate pool.
        assert!(by_name.len() <= rs.len());
    }

    #[test]
    fn bad_references_error() {
        let (corpus, aurum) = setup();
        assert!(execute(&aurum, &corpus, &parse("similar_content(ghost.c)").unwrap()).is_err());
        assert!(execute(&aurum, &corpus, &parse("similar_content(noarg)").unwrap()).is_err());
    }
}
