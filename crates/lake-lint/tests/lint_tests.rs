//! Integration tests: fixture files with known violation counts, plus the
//! workspace-honesty test asserting the checked-in baseline matches what a
//! fresh scan of this repository produces.

use lake_lint::{baseline::Baseline, layering, lex::SourceFile, scanner, Rule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn panic_fixture_has_expected_findings() {
    let src = fixture("panic_lib.rs");

    // Cold path: panic-family findings only, no indexing.
    let cold = scanner::scan_source(&SourceFile::new("fixtures/panic_lib.rs", &src), false);
    assert_eq!(cold.len(), 5, "{cold:#?}");
    assert!(cold.iter().all(|f| f.rule == Rule::Panic), "{cold:#?}");
    let unwraps = cold.iter().filter(|f| f.message.contains(".unwrap()")).count();
    let expects = cold.iter().filter(|f| f.message.contains(".expect()")).count();
    assert_eq!((unwraps, expects), (2, 1), "{cold:#?}");

    // Hot path: the same five plus two slice-indexing findings.
    let hot = scanner::scan_source(&SourceFile::new("fixtures/panic_lib.rs", &src), true);
    assert_eq!(hot.len(), 7, "{hot:#?}");
    assert_eq!(hot.iter().filter(|f| f.rule == Rule::Indexing).count(), 2, "{hot:#?}");
}

#[test]
fn tier_inversion_fixture_fails_layering() {
    let manifest = layering::parse_manifest(&fixture("tier_invert.toml"));
    assert_eq!(manifest.name, "lake-store");
    // dev-dependency on lake-house must NOT be parsed as an edge.
    assert!(!manifest.dependencies.contains(&"lake-house".to_string()), "{manifest:?}");

    let findings = layering::check_manifest(&manifest, "fixtures/tier_invert.toml");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::Layering);
    assert!(findings[0].message.contains("lake-query"), "{}", findings[0].message);

    // Layering findings can never be hidden by a baseline.
    let base = Baseline::from_findings(&findings);
    assert!(base.entries.is_empty());
    let cmp = lake_lint::baseline::compare(&findings, &base);
    assert_eq!(cmp.new_violations.len(), 1);
}

#[test]
fn string_error_fixture_has_expected_findings() {
    let src = fixture("string_error.rs");
    let findings = lake_lint::errors::scan_source(&SourceFile::new("fixtures/string_error.rs", &src));
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::ErrorDiscipline));
    assert!(findings[0].message.contains("String"), "{}", findings[0].message);
    assert!(findings[1].message.contains("Box<dyn Error>"), "{}", findings[1].message);
}

#[test]
fn clock_misuse_fixture_has_expected_findings() {
    let src = fixture("clock_misuse.rs");
    let findings = lake_lint::clock::scan_source(&SourceFile::new("fixtures/clock_misuse.rs", &src));
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::ClockDiscipline));
    let instants =
        findings.iter().filter(|f| f.message.contains("Instant::now")).count();
    let walls =
        findings.iter().filter(|f| f.message.contains("SystemTime::now")).count();
    assert_eq!((instants, walls), (2, 1), "{findings:#?}");
}

#[test]
fn float_ordering_fixture_has_expected_findings() {
    let src = fixture("float_ordering.rs");
    let findings = lake_lint::float::scan_source(&SourceFile::new("fixtures/float_ordering.rs", &src));
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::FloatOrdering));
    assert!(findings[0].message.contains("unwrap"), "{}", findings[0].message);
    assert!(findings[1].message.contains("unwrap_or"), "{}", findings[1].message);
}

#[test]
fn wal_no_sync_fixture_has_expected_findings() {
    let src = fixture("wal_no_sync.rs");
    // The fixture name contains `wal`, so it is in scope…
    let findings = lake_lint::durability::scan_source(&SourceFile::new("fixtures/wal_no_sync.rs", &src));
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::Durability);
    assert!(findings[0].message.contains("sync_all"), "{}", findings[0].message);
    // …while the same source under a non-journal path is not.
    assert!(lake_lint::durability::scan_source(&SourceFile::new("fixtures/other.rs", &src)).is_empty());
}

/// Run the workspace-wide concurrency analysis over a single fixture.
fn analyze_fixture(name: &str) -> Vec<lake_lint::Finding> {
    let src = fixture(name);
    let mut conc = lake_lint::concurrency::Analysis::default();
    conc.add_source(&SourceFile::new(&format!("fixtures/{name}"), &src));
    conc.finish()
}

#[test]
fn lock_cycle_fixture_inverts_and_cycles() {
    let findings = analyze_fixture("lock_cycle.rs");
    assert!(findings.iter().all(|f| f.rule == Rule::LockOrder), "{findings:#?}");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let inversions =
        findings.iter().filter(|f| f.message.contains("inversion")).count();
    let cycles = findings.iter().filter(|f| f.message.contains("cycle")).count();
    assert_eq!((inversions, cycles), (1, 2), "{findings:#?}");

    // Baseline honesty: lock-order findings can never be grandfathered —
    // regeneration drops them, and even a forged entry buys no tolerance.
    let base = Baseline::from_findings(&findings);
    assert!(base.entries.is_empty(), "{base:#?}");
    let mut forged = Baseline::default();
    for f in &findings {
        *forged.entries.entry((f.rule, f.file.clone())).or_insert(0) += 1;
    }
    let cmp = lake_lint::baseline::compare(&findings, &forged);
    assert_eq!(cmp.new_violations.len(), findings.len(), "{cmp:#?}");
}

#[test]
fn guard_across_store_fixture_flags_blocking_calls_only() {
    let findings = analyze_fixture("guard_across_store.rs");
    assert!(findings.iter().all(|f| f.rule == Rule::GuardBlocking), "{findings:#?}");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    for needle in ["put", "retry_with_stats", "send"] {
        assert!(
            findings.iter().any(|f| f.message.contains(&format!("`{needle}`"))),
            "missing {needle}: {findings:#?}"
        );
    }
}

#[test]
fn stray_relaxed_fixture_flags_only_unjustified_site() {
    let findings = analyze_fixture("stray_relaxed.rs");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::AtomicOrdering);
    assert_eq!(findings[0].line, 12, "{findings:#?}");
}

/// Rule triggers quoted inside strings, line comments, and block
/// comments must not fire for any of the eight rules.
#[test]
fn quoted_triggers_never_fire() {
    let src = fixture("strings_and_comments.rs");
    let file = "fixtures/strings_and_comments.rs";
    let mut findings = scanner::scan_source(&SourceFile::new(file, &src), true);
    findings.extend(lake_lint::errors::scan_source(&SourceFile::new(file, &src)));
    findings.extend(lake_lint::errors::scan_atomicity(&SourceFile::new(file, &src)));
    findings.extend(lake_lint::clock::scan_source(&SourceFile::new(file, &src)));
    findings.extend(lake_lint::float::scan_source(&SourceFile::new(file, &src)));
    findings.extend(analyze_fixture("strings_and_comments.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

/// Quote/brace characters in char literals must not open phantom
/// strings or corrupt brace depth: the real `.unwrap()` placed after
/// them must still be the one (and only) finding.
#[test]
fn char_literals_do_not_derail_the_scan() {
    let src = fixture("char_literals.rs");
    let findings = scanner::scan_source(&SourceFile::new("fixtures/char_literals.rs", &src), false);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::Panic);
    assert!(findings[0].message.contains(".unwrap()"), "{}", findings[0].message);
    assert!(analyze_fixture("char_literals.rs").is_empty());
}

/// Every rule's findings on one fixture, scanned under a journal path so
/// the durability rule is in scope, as `(line, rule)` in line order.
fn all_rules(name: &str) -> Vec<(usize, Rule)> {
    let src = fixture(name);
    let path = format!("fixtures/wal/{name}");
    let mut conc = lake_lint::concurrency::Analysis::default();
    let mut findings = lake_lint::scan_file(&SourceFile::new(&path, &src), &mut conc);
    findings.extend(conc.finish());
    let mut got: Vec<(usize, Rule)> = findings.iter().map(|f| (f.line, f.rule)).collect();
    got.sort();
    got
}

/// One violation of each source rule, in the order the fixtures write
/// them, starting at the `pub fn` on `fn_line`.
fn one_of_each(fn_line: usize) -> Vec<(usize, Rule)> {
    vec![
        (fn_line, Rule::ErrorDiscipline),
        (fn_line + 1, Rule::ClockDiscipline),
        (fn_line + 2, Rule::FloatOrdering),
        (fn_line + 3, Rule::Panic),
        (fn_line + 4, Rule::AtomicOrdering),
        (fn_line + 5, Rule::Durability),
    ]
}

/// A top-level `#[cfg(test)] mod oracle;` exempts that declaration only:
/// the code after it is library code for every rule, not just the panic
/// scanner.
#[test]
fn cfg_test_item_exempts_only_that_item() {
    assert_eq!(all_rules("cfg_test_item.rs"), one_of_each(14));
}

/// `r"C:\"` and `r#"a"b"#` end where Rust says they end, so the code
/// after each literal stays visible to every rule.
#[test]
fn raw_strings_do_not_swallow_code() {
    let mut expected = one_of_each(12);
    expected.extend(one_of_each(23));
    assert_eq!(all_rules("raw_strings.rs"), expected);
}

fn workspace_root() -> PathBuf {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    lake_lint::find_workspace_root(manifest_dir).expect("workspace root above lake-lint")
}

/// The checked-in baseline must exactly match a fresh scan: no new
/// violations (the check would fail) and no stale entries (the baseline
/// would be lying about how much debt remains).
#[test]
fn checked_in_baseline_matches_workspace() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");

    let text = std::fs::read_to_string(lake_lint::baseline_path(&root))
        .expect("lake-lint.baseline.toml is checked in");
    let checked_in = Baseline::parse(&text).expect("baseline parses");
    let regenerated = Baseline::from_findings(&findings);
    assert_eq!(
        checked_in, regenerated,
        "lake-lint.baseline.toml is out of date; run `cargo run -p lake-lint -- fix-baseline`"
    );

    let cmp = lake_lint::baseline::compare(&findings, &checked_in);
    assert!(cmp.new_violations.is_empty(), "{:#?}", cmp.new_violations);
    assert!(cmp.stale.is_empty(), "{:#?}", cmp.stale);
}

/// The lakehouse ACID paths were burned down to zero: the baseline must
/// hold no lake-house entries, and a fresh scan must agree.
#[test]
fn lake_house_is_panic_free() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let house: Vec<_> =
        findings.iter().filter(|f| f.file.starts_with("crates/lake-house/")).collect();
    assert!(house.is_empty(), "{house:#?}");
}

/// The Table-3 comparator burn-down is complete: no library source
/// forces a `partial_cmp` result open anywhere in the workspace, so the
/// float-ordering rule starts (and must stay) at a zero baseline.
#[test]
fn workspace_has_no_float_ordering_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let float: Vec<_> = findings.iter().filter(|f| f.rule == Rule::FloatOrdering).collect();
    assert!(float.is_empty(), "{float:#?}");
}

/// The concurrency rules launch at zero debt and must stay there: no
/// lock-order inversion, no guard held across blocking, and no stray
/// `Ordering::Relaxed` anywhere in the workspace.
#[test]
fn workspace_has_no_concurrency_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let conc: Vec<_> = findings
        .iter()
        .filter(|f| {
            matches!(f.rule, Rule::LockOrder | Rule::GuardBlocking | Rule::AtomicOrdering)
        })
        .collect();
    assert!(conc.is_empty(), "{conc:#?}");
}

/// The WAL shipped with its fsync discipline intact: the durability
/// rule launches at a zero baseline and must stay there — every journal
/// write in the workspace is followed by a sync in the same fn.
#[test]
fn workspace_has_no_durability_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let dur: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Durability).collect();
    assert!(dur.is_empty(), "{dur:#?}");
}

/// Every first-party manifest respects the tier DAG right now.
#[test]
fn workspace_has_no_layering_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let layering: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Layering).collect();
    assert!(layering.is_empty(), "{layering:#?}");
}
