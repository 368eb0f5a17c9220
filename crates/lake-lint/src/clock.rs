//! Clock-discipline lint: library code must not read wall/monotonic time
//! directly.
//!
//! Every timed code path in the workspace threads a
//! `lake_core::retry::Clock` so that tests, chaos suites, and latency
//! histograms replay deterministically under a `ManualClock`. A stray
//! `std::time::Instant::now()` (or `SystemTime::now()`) re-introduces
//! nondeterminism that no functional test will catch — the code works,
//! it just stops being replayable — so the ban has to be structural.
//!
//! Flags `Instant::now` / `SystemTime::now` tokens in library sources,
//! with two exemptions:
//!
//! * `impl … Clock for …` blocks — a `Clock` *implementation* is the one
//!   place that legitimately touches the real clock (`SystemClock`);
//! * `#[cfg(test)]` regions, like every other source lint (tests may
//!   time themselves).
//!
//! Tests, benches, bins, and examples are exempt via the shared
//! directory walk, same as the panic lint.

use crate::lex::SourceFile;
use crate::{Finding, Rule};

/// The banned time sources: `<type>::now`.
const BANNED: &[&str] = &["Instant", "SystemTime"];

/// Scan one library source file for direct time reads outside `Clock`
/// implementations.
pub fn scan_source(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < file.toks.len() {
        // Skip whole `impl … Clock for …` blocks: Clock implementations
        // are the designated owners of the real time source.
        if let Some(open) = file.trait_impl_at(i, "Clock") {
            i = file.group_end(open, '{', '}');
            continue;
        }
        let t = file.toks[i];
        let now_call =
            file.punct(i + 1, ':') && file.punct(i + 2, ':') && file.ident(i + 3) == Some("now");
        if let Some(source) = file.ident(i).filter(|s| !t.test && now_call && BANNED.contains(s)) {
            findings.push(file.finding(
                Rule::ClockDiscipline,
                t.line,
                format!(
                    "{source}::now read outside a Clock implementation; thread a \
                     lake_core::retry::Clock so the path replays under ManualClock"
                ),
            ));
        }
        i += 1;
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_source(&SourceFile::new("f.rs", src))
    }

    #[test]
    fn direct_time_reads_are_flagged() {
        let src = r#"
pub fn timed() -> u64 {
    let t0 = std::time::Instant::now();
    let _wall = std::time::SystemTime::now();
    t0.elapsed().as_micros() as u64
}
"#;
        let f = scan(src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == Rule::ClockDiscipline));
        assert_eq!((f[0].line, f[1].line), (3, 4));
        assert!(f[0].message.contains("Instant::now"), "{}", f[0].message);
        assert!(f[1].message.contains("SystemTime::now"), "{}", f[1].message);
    }

    #[test]
    fn clock_impls_are_the_designated_owners() {
        let src = r#"
impl Clock for SystemClock {
    fn now_micros(&self) -> u64 {
        let start = START.get_or_init(std::time::Instant::now);
        u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}
impl retry::Clock for OtherClock {
    fn now_micros(&self) -> u64 { Instant::now().elapsed().as_micros() as u64 }
}
"#;
        assert!(scan(src).is_empty(), "{:#?}", scan(src));
    }

    #[test]
    fn non_clock_impls_are_still_scanned() {
        let src = r#"
impl Profiler for Wall {
    fn profile(&self) -> u64 { Instant::now().elapsed().as_micros() as u64 }
}
"#;
        assert_eq!(scan(src).len(), 1);
    }

    #[test]
    fn cfg_test_regions_and_lookalike_idents_are_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn t() { let _ = std::time::Instant::now(); }
}
fn f() { let _ = MyInstant::now(); }
// Instant::now() in a comment
fn g() { let s = "Instant::now()"; }
"#;
        assert!(scan(src).is_empty(), "{:#?}", scan(src));
    }
}
