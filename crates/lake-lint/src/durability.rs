//! Durability-discipline lint: journal paths must fsync what they write.
//!
//! The server's ack contract (DESIGN.md §16) is "acked means on disk":
//! a mutation's journal frame is `write_all`-ed *and* fsynced before the
//! 200 reaches the socket. A `write_all` that is never followed by
//! `sync_all`/`sync_data` keeps the contract true in every functional
//! test — the page cache serves the bytes back — and silently false on
//! power loss, which is exactly the failure the WAL exists to survive.
//! No test short of pulling the plug catches it, so the discipline has
//! to be structural.
//!
//! Scope: library sources whose repo path contains `wal` or `durable`
//! (the journal and its fsync helpers). In every `fn` of a scoped file,
//! a `.write_all(` call must be followed — later in the same function,
//! closures included — by a `.sync_all(` or `.sync_data(` call. Writes
//! that are deliberately volatile (say, a scratch file recreated on
//! boot) carry a `// lint: durability <why>` justification on the same
//! or preceding line. `#[cfg(test)]` regions are exempt, like every
//! other source lint; tests, benches, and bins are exempt via the
//! shared directory walk.

use crate::lex::{SourceFile, Tok};
use crate::{Finding, Rule};

/// One function body being tracked: the brace depth of its body and the
/// lines of `.write_all(` calls not yet followed by a sync.
struct FnFrame {
    body_depth: usize,
    pending: Vec<usize>,
}

/// Does this repo-relative path carry journal/fsync code the rule owns?
fn in_scope(file: &str) -> bool {
    file.contains("wal") || file.contains("durable")
}

/// Scan one library source file for unsynced journal writes.
pub fn scan_source(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(file.path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let mut frames: Vec<FnFrame> = Vec::new();
    let mut depth = 0usize;
    // Set while between a `fn` keyword and its body `{` (or a bodyless
    // `;`); tracks paren/bracket nesting so a `;` inside `[u8; 12]` in
    // the signature does not end the header early.
    let mut fn_header: Option<usize> = None;
    for (i, t) in file.toks.iter().enumerate() {
        let call = |name: &str| file.ident(i + 1) == Some(name) && file.punct(i + 2, '(');
        match t.tok {
            Tok::Ident("fn") => fn_header = Some(0),
            Tok::Punct('{') => {
                depth += 1;
                if fn_header.take().is_some() {
                    frames.push(FnFrame { body_depth: depth, pending: Vec::new() });
                }
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                while let Some(frame) = frames.pop_if(|f| depth < f.body_depth) {
                    findings.extend(frame.pending.into_iter().map(|at| {
                        file.finding(
                            Rule::Durability,
                            at,
                            "write_all on a journal path with no following sync_all/sync_data \
                             in this fn; the ack contract needs the bytes on disk, not in the \
                             page cache — fsync or justify with `// lint: durability <why>`",
                        )
                    }));
                }
            }
            Tok::Punct('(' | '[') => {
                if let Some(d) = fn_header.as_mut() {
                    *d += 1;
                }
            }
            Tok::Punct(')' | ']') => {
                if let Some(d) = fn_header.as_mut() {
                    *d = d.saturating_sub(1);
                }
            }
            // Bodyless declaration (trait method, extern).
            Tok::Punct(';') if fn_header == Some(0) => fn_header = None,
            Tok::Punct('.')
                if !t.test
                    && call("write_all")
                    && !file.justified(t.line, "lint: durability") =>
            {
                if let Some(frame) = frames.last_mut() {
                    frame.pending.push(t.line);
                }
            }
            Tok::Punct('.') if !t.test && (call("sync_all") || call("sync_data")) => {
                if let Some(frame) = frames.last_mut() {
                    frame.pending.clear();
                }
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        scan_source(&SourceFile::new(path, src))
    }

    #[test]
    fn unsynced_write_is_flagged_synced_write_is_not() {
        let src = r#"
pub fn synced(f: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
    f.write_all(buf)?;
    f.sync_data()
}
pub fn unsynced(f: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
    f.write_all(buf)
}
"#;
        let f = scan("crates/x/src/wal.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::Durability);
        assert_eq!(f[0].line, 7, "{f:#?}");
    }

    #[test]
    fn sync_inside_a_closure_chain_counts() {
        let src = r#"
pub fn chained(f: &std::fs::File, b: &[u8]) -> std::io::Result<()> {
    (&*f).write_all(b).and_then(|()| f.sync_all())
}
"#;
        assert!(scan("crates/x/src/durable.rs", src).is_empty());
    }

    #[test]
    fn a_sync_before_the_write_does_not_satisfy_it() {
        let src = r#"
pub fn backwards(f: &mut std::fs::File, b: &[u8]) -> std::io::Result<()> {
    f.sync_data()?;
    f.write_all(b)
}
"#;
        assert_eq!(scan("crates/x/src/wal.rs", src).len(), 1);
    }

    #[test]
    fn out_of_scope_files_and_cfg_test_regions_are_exempt() {
        let src = r#"
pub fn unsynced(f: &mut std::fs::File, b: &[u8]) -> std::io::Result<()> {
    f.write_all(b)
}
"#;
        assert!(scan("crates/x/src/object.rs", src).is_empty());
        let test_src = r#"
#[cfg(test)]
mod tests {
    fn tear(f: &mut std::fs::File, b: &[u8]) { let _ = f.write_all(b); }
}
"#;
        assert!(scan("crates/x/src/wal.rs", test_src).is_empty());
    }

    #[test]
    fn justified_writes_and_array_signatures_are_handled()  {
        let src = r#"
pub fn scratch(f: &mut std::fs::File) -> std::io::Result<()> {
    // lint: durability scratch file, recreated from the journal on boot
    f.write_all(b"tmp")
}
pub fn header(f: &mut std::fs::File, b: [u8; 12]) -> std::io::Result<()> {
    f.write_all(&b)?;
    f.sync_data()
}
"#;
        assert!(scan("crates/x/src/wal.rs", src).is_empty());
    }
}
