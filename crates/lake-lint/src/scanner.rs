//! Panic-freedom lint over the shared token stream ([`crate::lex`]).
//!
//! Finds panic-prone constructs in library code:
//!
//! - `.unwrap()` / `.expect(…)` method calls
//! - `panic!`, `todo!`, `unimplemented!`, `unreachable!` macro invocations
//! - slice/array indexing `expr[…]` — only reported for files the caller
//!   marks as hot paths, where an out-of-bounds abort would break an ACID
//!   guarantee rather than a test
//!
//! Literals and comments never match: the lexer drops them. Code in a
//! `#[cfg(test)]` item is exempt.

use crate::lex::{SourceFile, Tok, Token};
use crate::{Finding, Rule};

/// Macro names whose invocation aborts the process.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Scan one library source file; `hot_path` additionally enables the
/// slice-indexing rule.
pub fn scan_source(file: &SourceFile, hot_path: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        if t.test {
            continue;
        }
        match t.tok {
            Tok::Ident(name @ ("unwrap" | "expect"))
                if i > 0 && file.punct(i - 1, '.') && file.punct(i + 1, '(') =>
            {
                findings.push(file.finding(
                    Rule::Panic,
                    t.line,
                    format!(".{name}() can abort; return a LakeError instead"),
                ));
            }
            Tok::Ident(name) if file.punct(i + 1, '!') && PANIC_MACROS.contains(&name) => {
                findings.push(file.finding(
                    Rule::Panic,
                    t.line,
                    format!("{name}! aborts the process in library code"),
                ));
            }
            Tok::Punct('[') if hot_path && is_index_expression(&file.toks, i) => {
                findings.push(file.finding(
                    Rule::Indexing,
                    t.line,
                    "slice indexing on a hot path can abort; use .get()",
                ));
            }
            _ => {}
        }
    }
    findings
}

/// Heuristic: a `[` opens an *index expression* when the preceding token
/// could end an expression (identifier, `)`, or `]`) and is not a macro
/// bang or attribute hash. Type positions (`&[u8]`, `[T; 4]`) follow
/// punctuation and are excluded.
fn is_index_expression(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else { return false };
    match prev.tok {
        Tok::Ident(name) => {
            // `vec![…]`-style macro brackets arrive as ident + `!` + `[`,
            // so the direct predecessor here is an ident only for real
            // postfix indexing — except type paths like `Vec<[u8; 4]>`
            // never place an ident directly before `[`.
            !matches!(
                name,
                "mut" | "dyn" | "impl" | "ref" | "return" | "in" | "as" | "let" | "for" | "if"
                    | "else" | "match" | "while" | "loop" | "move" | "where" | "unsafe" | "const"
                    | "static" | "break" | "continue" | "box"
            )
        }
        Tok::Punct(')' | ']') => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str, hot: bool) -> Vec<Finding> {
        scan_source(&SourceFile::new("f.rs", src), hot)
    }

    fn count(src: &str, hot: bool) -> usize {
        scan(src, hot).len()
    }

    #[test]
    fn finds_unwrap_and_expect_calls() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.expect(\"boom\") }\n";
        let f = scan(src, false);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn finds_panic_family_macros() {
        let src = "fn f() { panic!(\"x\") }\nfn g() { todo!() }\nfn h() { unimplemented!() }\nfn i() { unreachable!() }\n";
        assert_eq!(count(src, false), 4);
    }

    #[test]
    fn ignores_strings_comments_and_identifier_lookalikes() {
        let src = r##"
// a comment with .unwrap() and panic!
/* block /* nested */ with .expect("x") */
fn f() {
    let s = "contains .unwrap() and panic!(oops)";
    let r = r#"raw with .unwrap()"#;
    let b = b"bytes .unwrap()";
    let c = '"';
    let lt: &'static str = "lifetime then string with .unwrap()";
    let ok = x.unwrap_or(3);
    let ok2 = x.unwrap_or_else(|| 4);
    let ok3 = expectations(5);
}
"##;
        assert_eq!(count(src, false), 0, "{:?}", scan(src, false));
    }

    #[test]
    fn cfg_test_modules_and_fns_are_exempt() {
        let src = r#"
fn lib() -> u8 { 1 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!("fine in tests"); }
}
"#;
        assert_eq!(count(src, false), 0);
        let attr_fn = r#"
#[cfg(test)]
fn helper() { Some(1).unwrap(); }
fn lib() { Some(1).unwrap(); }
"#;
        assert_eq!(count(attr_fn, false), 1);
    }

    #[test]
    fn indexing_only_flagged_on_hot_paths() {
        let src = "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
        assert_eq!(count(src, false), 0);
        let f = scan(src, true);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Indexing);
    }

    #[test]
    fn indexing_heuristic_skips_types_attrs_and_macros() {
        let src = r#"
#[derive(Debug)]
struct S { a: [u8; 4] }
fn f(x: &[u8]) -> Vec<u8> { vec![1, 2] }
fn g() -> [u8; 2] { [0, 1] }
"#;
        assert_eq!(count(src, true), 0, "{:?}", scan(src, true));
        // …but chained and call-result indexing is caught.
        assert_eq!(count("fn f() { g()[0]; }", true), 1);
        assert_eq!(count("fn f() { a[0][1]; }", true), 2);
    }

    #[test]
    fn numeric_suffixes_do_not_confuse_ranges() {
        assert_eq!(count("fn f() { for i in 0..2usize { let _ = i; } }", false), 0);
    }
}
