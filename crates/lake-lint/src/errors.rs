//! Error-discipline lint: public library functions must fail with
//! `lake_core::error` types, not stringly errors.
//!
//! Flags `pub fn` signatures whose return type is a `Result` with error
//! position `String` or `Box<dyn … Error …>`. The workspace-wide
//! convention is `lake_core::Result<T>` / `LakeError`, which keeps error
//! kinds matchable (`Conflict` vs `NotFound` drives retry logic in the
//! lakehouse commit path).
//!
//! Signatures are read off the shared token stream ([`crate::lex`]) and
//! judged conservatively: only the tokens up to the body `{` (or a
//! bodyless `;`) count, and only a `Result<…>` after the top-level `->`.
//!
//! A second pass ([`scan_atomicity`]) guards the lakehouse's one
//! correctness primitive: any `ObjectStore` impl that provides
//! `put_if_absent` must say — in its docs or body comments — what makes
//! the conditional put atomic. An impl that silently does
//! check-then-write would corrupt the commit protocol without failing a
//! single functional test, so the claim has to be written down where
//! reviewers will see it.

use crate::lex::{is_punct, SourceFile, Tok, Token};
use crate::{Finding, Rule};

/// Scan one library source file for stringly-typed public error returns.
pub fn scan_source(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.toks;
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.test || file.ident(i) != Some("pub") || file.ident(i + 1) != Some("fn") {
            continue;
        }
        let end = (i..toks.len())
            .find(|&k| file.punct(k, '{') || file.punct(k, ';'))
            .unwrap_or(toks.len());
        if let Some(bad) = stringly_error(&toks[i..end]) {
            findings.push(file.finding(
                Rule::ErrorDiscipline,
                t.line,
                format!("public fn returns Result<_, {bad}>; use lake_core::error types"),
            ));
        }
    }
    findings
}

/// Scan one library source file for `ObjectStore` impls whose
/// `put_if_absent` carries no atomicity documentation.
///
/// The word `atomic` is searched case-insensitively in the *raw* source,
/// from ~20 lines above the impl header (leading doc comments) through
/// the end of the impl block (body comments). `#[cfg(test)]` impls are
/// exempt, like every other source lint.
pub fn scan_atomicity(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < file.toks.len() {
        let Some(open) = file.trait_impl_at(i, "ObjectStore").filter(|_| !file.toks[i].test)
        else {
            i += 1;
            continue;
        };
        let end = file.group_end(open, '{', '}');
        let impl_line = file.toks[i].line;
        let end_line = file.toks.get(end - 1).map_or(impl_line, |t| t.line);
        let provides = |k: usize| {
            file.ident(k) == Some("fn") && file.ident(k + 1) == Some("put_if_absent")
        };
        if (open..end).any(provides) {
            let from = impl_line.saturating_sub(21); // 0-based: 20 lines of leading docs
            let documented = file
                .lines
                .get(from..end_line.min(file.lines.len()))
                .unwrap_or(&[])
                .iter()
                .any(|l| l.to_ascii_lowercase().contains("atomic"));
            if !documented {
                findings.push(file.finding(
                    Rule::ErrorDiscipline,
                    impl_line,
                    "ObjectStore impl provides put_if_absent without documenting its \
                     atomicity guarantee",
                ));
            }
        }
        i = end;
    }
    findings
}

/// If the signature's return type is a stringly-typed Result, name the
/// offending error type.
fn stringly_error(sig: &[Token]) -> Option<&'static str> {
    // The return type follows the `->` outside parameters and generics
    // (`impl Fn() -> u8` parameters have arrows too) and ends at `where`.
    let mut depth = 0i32;
    let mut k = 0;
    let ret_start = loop {
        match sig.get(k)?.tok {
            Tok::Punct('-') if is_punct(sig, k + 1, '>') => {
                if depth == 0 {
                    break k + 2;
                }
                k += 1;
            }
            Tok::Punct('(' | '<' | '[') => depth += 1,
            Tok::Punct(')' | '>' | ']') => depth -= 1,
            _ => {}
        }
        k += 1;
    };
    let ret = &sig[ret_start..];
    let ret = &ret[..ret.iter().position(|t| t.tok == Tok::Ident("where")).unwrap_or(ret.len())];
    // Find `Result<…>` (std or aliased path, but NOT lake_core::Result,
    // whose error type is fixed to LakeError).
    let at = (0..ret.len()).find(|&k| {
        matches!(ret[k].tok, Tok::Ident(s) if s.ends_with("Result")) && is_punct(ret, k + 1, '<')
    })?;
    if ret[..at].iter().any(|t| t.tok == Tok::Ident("lake_core")) {
        return None;
    }
    let args = &ret[at + 2..];
    // Split the generic arguments at top level.
    let mut depth = 0i32;
    let mut first_comma = None;
    let mut end = args.len();
    for (k, t) in args.iter().enumerate() {
        match t.tok {
            Tok::Punct('<' | '(' | '[') => depth += 1,
            Tok::Punct('>') if depth == 0 => {
                end = k;
                break;
            }
            Tok::Punct('>' | ')' | ']') => depth -= 1,
            Tok::Punct(',') if depth == 0 => {
                first_comma.get_or_insert(k);
            }
            _ => {}
        }
    }
    let second: Vec<Tok> = args.get(first_comma? + 1..end)?.iter().map(|t| t.tok).collect();
    match second.as_slice() {
        [Tok::Ident("String")] => Some("String"),
        [Tok::Ident("Box"), Tok::Punct('<'), Tok::Ident("dyn"), rest @ ..]
            if rest.iter().any(|t| matches!(t, Tok::Ident(s) if s.contains("Error"))) =>
        {
            Some("Box<dyn Error>")
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_source(&SourceFile::new("f.rs", src))
    }

    fn atomicity(src: &str) -> Vec<Finding> {
        scan_atomicity(&SourceFile::new("f.rs", src))
    }

    #[test]
    fn flags_string_and_boxed_errors() {
        let src = r#"
pub fn bad_string(x: u8) -> Result<u8, String> { Ok(x) }
pub fn bad_boxed() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }
"#;
        let f = scan(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("String"));
        assert!(f[1].message.contains("Box<dyn Error>"));
    }

    #[test]
    fn accepts_lake_error_results_and_non_results() {
        let src = r#"
pub fn good(x: u8) -> lake_core::Result<u8> { Ok(x) }
pub fn also_good() -> Result<u8, LakeError> { Ok(1) }
pub fn renders() -> String { String::new() }
pub fn tuple() -> (String, u8) { (String::new(), 0) }
fn private_is_exempt() -> Result<(), String> { Ok(()) }
"#;
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn nested_generics_split_correctly() {
        let src = "pub fn f() -> Result<Vec<(String, u8)>, String> { todo!() }";
        assert_eq!(scan(src).len(), 1);
        let ok = "pub fn f() -> Result<HashMap<String, Vec<u8>>, LakeError> { todo!() }";
        assert!(scan(ok).is_empty());
    }

    #[test]
    fn cfg_test_helpers_are_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    pub fn helper() -> Result<(), String> { Ok(()) }
}
"#;
        assert!(scan(src).is_empty());
    }

    #[test]
    fn undocumented_put_if_absent_impl_is_flagged() {
        let src = r#"
impl ObjectStore for SilentStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> { Ok(()) }
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        if self.exists(key) { return Err(LakeError::already_exists(key)); }
        self.put(key, data)
    }
}
"#;
        let f = atomicity(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ErrorDiscipline);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("atomicity"));
    }

    #[test]
    fn atomicity_doc_before_or_inside_the_impl_satisfies_the_rule() {
        let leading = r#"
/// Conditional put is atomic via the map's write lock.
impl ObjectStore for DocStore {
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> { todo!() }
}
"#;
        assert!(atomicity(leading).is_empty());
        let inline = r#"
impl ObjectStore for DocStore {
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        // Atomic: one critical section covers check and insert.
        todo!()
    }
}
"#;
        assert!(atomicity(inline).is_empty());
    }

    #[test]
    fn impls_without_put_if_absent_and_test_impls_are_exempt() {
        let no_conditional_put = r#"
impl ObjectStore for ReadOnlyStore {
    fn get(&self, key: &str) -> Result<Vec<u8>> { todo!() }
}
"#;
        assert!(atomicity(no_conditional_put).is_empty());
        let in_tests = r#"
#[cfg(test)]
mod tests {
    impl ObjectStore for FakeStore {
        fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> { todo!() }
    }
}
"#;
        assert!(atomicity(in_tests).is_empty());
    }

    #[test]
    fn generic_decorator_impls_are_also_checked() {
        // Delegation is not an excuse: the wrapper must still say the
        // guarantee is inherited.
        let src = r#"
impl<S: ObjectStore> ObjectStore for Wrapper<S> {
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        self.inner.put_if_absent(key, data)
    }
}
"#;
        assert_eq!(atomicity(src).len(), 1);
    }

    #[test]
    fn comments_and_strings_never_match() {
        let src = r#"
// pub fn commented() -> Result<u8, String> {}
fn f() { let s = "pub fn fake() -> Result<u8, String>"; }
"#;
        assert!(scan(src).is_empty());
    }
}
