//! Float-ordering lint: a `partial_cmp` result must stay an `Option`.
//!
//! Ranking code that sorts by `f64` scores via `partial_cmp(..)` plus
//! `.unwrap()` panics the moment a NaN reaches the
//! comparator — and NaNs *do* reach Table-3 comparators (an empty
//! numeric column's mean, a zero-magnitude cosine). The `unwrap_or(..)`
//! variant is no better: it silently maps every NaN comparison to a
//! fixed ordering, so sorts stop being transitive and the result order
//! depends on the sort algorithm's probe sequence. `f64::total_cmp` is
//! total, panic-free, and agrees with `partial_cmp` on every non-NaN
//! comparison except `-0.0` vs `+0.0` — the workspace-wide replacement.
//!
//! Flags any `partial_cmp(…)` call whose result is chained into a
//! method starting with `unwrap` or `expect`, even across line breaks.
//! `#[cfg(test)]` regions are exempt like every other source lint, and
//! tests/benches/bins/examples are exempt via the shared directory walk.

use crate::lex::SourceFile;
use crate::{Finding, Rule};

/// Scan one library source file for `partial_cmp` chains that discard
/// the `Option` through the unwrap/expect family.
pub fn scan_source(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        // A bare `partial_cmp` (e.g. a trait-method definition) is not a call.
        if t.test || file.ident(i) != Some("partial_cmp") || !file.punct(i + 1, '(') {
            continue;
        }
        let after = file.group_end(i + 1, '(', ')');
        let Some(m) = file.ident(after + 1).filter(|_| file.punct(after, '.')) else { continue };
        if m.starts_with("unwrap") || m.starts_with("expect") {
            findings.push(file.finding(
                Rule::FloatOrdering,
                t.line,
                format!(
                    "partial_cmp(..).{m} orders floats partially and dies (or \
                     lies) on NaN; sort with f64::total_cmp instead"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_source(&SourceFile::new("f.rs", src))
    }

    // The embedded sources below always break the chain across lines:
    // this crate's own acceptance gate greps for `partial_cmp` and the
    // unwrap family co-occurring on one line, and must stay silent here.

    #[test]
    fn chained_partial_cmp_is_flagged() {
        let src = r#"
pub fn rank(mut v: Vec<(usize, f64)>) {
    v.sort_by(|a, b| b.1.partial_cmp(&a.1)
        .unwrap().then(a.0.cmp(&b.0)));
    v.sort_by(|a, b| a.1.partial_cmp(&b.1)
        .expect("comparable"));
}
"#;
        let f = scan(src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == Rule::FloatOrdering));
        // Findings anchor to the comparison line, not the chained line.
        assert_eq!((f[0].line, f[1].line), (3, 5));
        assert!(f[0].message.contains("total_cmp"), "{}", f[0].message);
    }

    #[test]
    fn unwrap_or_variants_are_flagged_too() {
        let src = "
pub fn s(mut v: Vec<f64>) {
    v.sort_by(|a, b| a.partial_cmp(b)
        .unwrap_or(std::cmp::Ordering::Equal));
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or_else(|| std::cmp::Ordering::Equal)
    });
}
";
        let f = scan(src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert_eq!((f[0].line, f[1].line), (3, 6));
    }

    #[test]
    fn benign_uses_are_not_flagged() {
        let src = r#"
pub fn fine(mut v: Vec<f64>, a: f64, b: f64) -> Option<std::cmp::Ordering> {
    v.sort_by(f64::total_cmp);
    let kept = a.partial_cmp(&b);
    if let Some(ord) = a.partial_cmp(&b) { let _ = ord; }
    kept
}
impl PartialOrd for Wrapper {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}
#[cfg(test)]
mod tests {
    fn t(a: f64, b: f64) {
        let _ = a.partial_cmp(&b)
            .unwrap();
    }
}
"#;
        assert!(scan(src).is_empty(), "{:#?}", scan(src));
    }
}
