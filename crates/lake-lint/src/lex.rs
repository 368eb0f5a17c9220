//! The one Rust lexer behind every source rule.
//!
//! No `syn` (the build environment has no crates.io access), so this is a
//! hand-rolled lexer that understands just enough Rust to be trustworthy:
//! line and (nested) block comments, string literals with escapes, raw
//! strings (`r"…"`, `r#"…"#`, any hash depth), byte strings, char and
//! byte-char literals, and lifetimes (so `'a` is not mistaken for an
//! unterminated char). Comments and non-numeric literals are dropped;
//! what remains is a stream of identifiers, single-character punctuation
//! and numeric literals, each with its 1-based line.
//!
//! `#[cfg(test)]` scope is computed once, here: the attribute, any
//! further attributes on the same item, and the one item that follows
//! (through its `{…}` block or terminating `;`) are flagged `test`, and
//! every rule exempts flagged tokens.
//!
//! [`crate::scan_workspace`] reads and lexes each file once and hands the
//! same [`SourceFile`] to all nine rules.

use crate::{Finding, Rule};

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Any single punctuation character.
    Punct(char),
    /// Numeric literal, suffix included (`10`, `1_000u32`, `2.5f64`).
    Num(&'a str),
}

/// One lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    /// The token itself.
    pub(crate) tok: Tok<'a>,
    /// 1-based line.
    pub(crate) line: usize,
    /// Inside a `#[cfg(test)]` item (the attribute included).
    pub(crate) test: bool,
}

/// One library source file, lexed once and read by every rule.
#[derive(Debug)]
pub struct SourceFile<'a> {
    /// Repo-relative path (forward slashes), as findings report it.
    pub(crate) path: &'a str,
    /// The raw source lines, for checks that read comments
    /// (`// lint: …` justifications, atomicity docs).
    pub(crate) lines: Vec<&'a str>,
    /// The token stream.
    pub(crate) toks: Vec<Token<'a>>,
}

impl<'a> SourceFile<'a> {
    /// Lex `src`, reported under the repo-relative `path`.
    pub fn new(path: &'a str, src: &'a str) -> SourceFile<'a> {
        let mut toks = lex(src);
        mark_cfg_test(&mut toks);
        SourceFile { path, lines: src.lines().collect(), toks }
    }

    /// The identifier at token `i`, if it is one.
    pub(crate) fn ident(&self, i: usize) -> Option<&'a str> {
        match self.toks.get(i)?.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Is token `i` the punctuation `c`?
    pub(crate) fn punct(&self, i: usize, c: char) -> bool {
        is_punct(&self.toks, i, c)
    }

    /// Index one past the `close` matching the `open` at token `at` (or
    /// the end of the file when it is unbalanced).
    pub(crate) fn group_end(&self, at: usize, open: char, close: char) -> usize {
        group_end(&self.toks, at, open, close)
    }

    /// If token `i` is `impl` opening a block whose header reads
    /// `… Trait for …` (any path prefix, e.g. `retry::Clock for`), the
    /// index of the block's `{`.
    pub(crate) fn trait_impl_at(&self, i: usize, trait_name: &str) -> Option<usize> {
        if self.ident(i) != Some("impl") {
            return None;
        }
        let open = (i..self.toks.len()).find(|&k| self.punct(k, '{') || self.punct(k, ';'))?;
        let names_trait = (i..open).any(|k| {
            self.ident(k).is_some_and(|s| s.ends_with(trait_name))
                && self.ident(k + 1) == Some("for")
        });
        (names_trait && self.punct(open, '{')).then_some(open)
    }

    /// A finding for `rule` at `line` of this file.
    pub(crate) fn finding(&self, rule: Rule, line: usize, message: impl Into<String>) -> Finding {
        Finding { rule, file: self.path.to_string(), line, message: message.into() }
    }

    /// Is `marker` (e.g. `lint: ordering`) on `line` or in the contiguous
    /// `//` comment block immediately above it?
    pub(crate) fn justified(&self, line: usize, marker: &str) -> bool {
        let Some(at) = line.checked_sub(1) else { return false };
        if self.lines.get(at).is_some_and(|l| l.contains(marker)) {
            return true;
        }
        self.lines
            .get(..at)
            .unwrap_or(&[])
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("//"))
            .any(|l| l.contains(marker))
    }
}

/// Is `toks[i]` the punctuation `c`?
pub(crate) fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.tok == Tok::Punct(c))
}

fn group_end(toks: &[Token], at: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(at) {
        if t.tok == Tok::Punct(open) {
            depth += 1;
        } else if t.tok == Tok::Punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

/// Flag every token of each `#[cfg(test)]` item.
fn mark_cfg_test(toks: &mut [Token]) {
    let mut i = 0;
    while i < toks.len() {
        if !is_cfg_test_at(toks, i) {
            i += 1;
            continue;
        }
        let end = cfg_test_item_end(toks, i);
        for t in &mut toks[i..end] {
            t.test = true;
        }
        i = end;
    }
}

/// Is `toks[i..]` `# [ cfg ( test …`?
fn is_cfg_test_at(toks: &[Token], i: usize) -> bool {
    toks.iter().skip(i).take(5).map(|t| t.tok).eq([
        Tok::Punct('#'),
        Tok::Punct('['),
        Tok::Ident("cfg"),
        Tok::Punct('('),
        Tok::Ident("test"),
    ])
}

/// Index one past the item whose attributes start at `i`: every `#[…]`,
/// then the item through its matching `{…}` block or a `;` that comes
/// before any block (`#[cfg(test)] mod oracle;`). A `}` closing the
/// enclosing block ends the item too.
fn cfg_test_item_end(toks: &[Token], mut i: usize) -> usize {
    while is_punct(toks, i, '#') {
        i = group_end(toks, i + 1, '[', ']');
    }
    let mut depth = 0usize;
    while let Some(t) = toks.get(i) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') if depth == 0 => return i,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Lex `src` into identifiers, punctuation and numeric literals.
fn lex(src: &str) -> Vec<Token<'_>> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    // Newlines are counted up to each token's start, so the skips below
    // need not track lines inside comments and literals.
    let (mut line, mut counted) = (1, 0);
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if let Some(end) = prefixed_literal_end(b, i) {
            i = end;
            continue;
        }
        let tok = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i = b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |k| i + k);
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i = block_comment_end(b, i);
                continue;
            }
            b'"' => {
                i = string_end(b, i + 1);
                continue;
            }
            b'\'' => {
                i = char_or_lifetime_end(src, i);
                continue;
            }
            c if c.is_ascii_digit() => {
                i = number_end(b, i);
                Tok::Num(&src[start..i])
            }
            _ => {
                let c = src.get(i..).and_then(|rest| rest.chars().next()).unwrap_or(' ');
                if c.is_alphabetic() || c == '_' {
                    i = ident_end(src, i);
                    Tok::Ident(&src[start..i])
                } else {
                    i += c.len_utf8();
                    if c.is_whitespace() {
                        continue;
                    }
                    Tok::Punct(c)
                }
            }
        };
        line += b[counted..start].iter().filter(|&&c| c == b'\n').count();
        counted = start;
        toks.push(Token { tok, line, test: false });
    }
    toks
}

fn ident_end(src: &str, i: usize) -> usize {
    src[i..]
        .char_indices()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_'))
        .map_or(src.len(), |(k, _)| i + k)
}

/// End of a numeric literal: digits, suffix and underscores, plus a `.`
/// only as a decimal point, so `0..n`, `t.0.unwrap()` and
/// `1.0f64.total_cmp(..)` keep their dots as punctuation.
fn number_end(b: &[u8], mut i: usize) -> usize {
    while let Some(&c) = b.get(i) {
        let decimal_point = c == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit);
        if !(c.is_ascii_alphanumeric() || c == b'_' || decimal_point) {
            break;
        }
        i += 1;
    }
    i
}

/// End of a (nested) block comment starting at the `/` of `/*`.
fn block_comment_end(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < b.len() {
        if b[i..].starts_with(b"/*") {
            depth += 1;
            i += 2;
        } else if b[i..].starts_with(b"*/") {
            depth -= 1;
            i += 2;
            if depth == 0 {
                break;
            }
        } else {
            i += 1;
        }
    }
    i
}

/// End of a `"…"` literal whose body starts at `i`.
fn string_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'"' => return i + 1,
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    i
}

/// If a byte char, byte string or raw (byte) string starts at `i` —
/// `b'x'`, `b"…"`, `r"…"`, `br##"…"##` — the index past its end. (The
/// `r` of `for r in xs` or of a raw identifier `r#type` starts none.)
fn prefixed_literal_end(b: &[u8], mut i: usize) -> Option<usize> {
    if b[i] == b'b' {
        i += 1;
        match b.get(i) {
            Some(b'\'') => return Some(char_body_end(b, i + 1)),
            Some(b'"') => return Some(string_end(b, i + 1)),
            _ => {}
        }
    }
    if b.get(i) != Some(&b'r') {
        return None;
    }
    let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
    i += 1 + hashes;
    if b.get(i) != Some(&b'"') {
        return None;
    }
    // The body ends at a quote followed by as many hashes as opened it.
    let closes = |k: usize| {
        b[k] == b'"' && b.get(k + 1..k + 1 + hashes).is_some_and(|h| h.iter().all(|&c| c == b'#'))
    };
    Some((i + 1..b.len()).find(|&k| closes(k)).map_or(b.len(), |k| k + 1 + hashes))
}

/// End of a char literal (`'x'`, `'\n'`, `'\u{1F600}'`) or a lifetime or
/// label (`'a`, `'static`) starting at the tick.
fn char_or_lifetime_end(src: &str, i: usize) -> usize {
    match src[i + 1..].chars().next() {
        Some(c) if c.is_alphabetic() || c == '_' => {
            let j = ident_end(src, i + 1);
            // `'a'` is a char literal; `'a` with no closing tick a lifetime.
            if src.as_bytes().get(j) == Some(&b'\'') {
                j + 1
            } else {
                j
            }
        }
        _ => char_body_end(src.as_bytes(), i + 1),
    }
}

/// End of a char literal whose body starts at `i` (just past the opening
/// tick): one char or an escape sequence, then the closing tick.
fn char_body_end(b: &[u8], mut i: usize) -> usize {
    i += if b.get(i) == Some(&b'\\') { 2 } else { 1 };
    // The rest of a `\x7f` / `\u{…}` escape or of a multi-byte char.
    while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
        i += 1;
    }
    if b.get(i) == Some(&b'\'') {
        i + 1
    } else {
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn emits_idents_puncts_and_numbers_with_lines() {
        let toks = lex("const A: u32 = 1_000;\nlet x = t.0.unwrap() + 2.5f64;");
        assert_eq!(toks[5].tok, Tok::Num("1_000"));
        assert_eq!(toks[5].line, 1);
        let second: Vec<Tok> = toks.iter().filter(|t| t.line == 2).map(|t| t.tok).collect();
        assert_eq!(
            second,
            [
                Tok::Ident("let"),
                Tok::Ident("x"),
                Tok::Punct('='),
                Tok::Ident("t"),
                Tok::Punct('.'),
                Tok::Num("0"),
                Tok::Punct('.'),
                Tok::Ident("unwrap"),
                Tok::Punct('('),
                Tok::Punct(')'),
                Tok::Punct('+'),
                Tok::Num("2.5f64"),
                Tok::Punct(';'),
            ]
        );
        assert_eq!(
            kinds("0..2usize"),
            [Tok::Num("0"), Tok::Punct('.'), Tok::Punct('.'), Tok::Num("2usize")]
        );
    }

    #[test]
    fn literals_comments_and_lifetimes_vanish() {
        let src = r###"a /* x /* y */ z */ "s\"" r"C:\" r#"q"q"# b"by"
            b'\'' '\u{1F600}' '"' 'é' '→' &'a b"###;
        assert_eq!(kinds(src), [Tok::Ident("a"), Tok::Punct('&'), Tok::Ident("b")]);
    }

    #[test]
    fn newlines_inside_literals_and_comments_still_count() {
        let src = "/*\n*/ \"a\\\nb\" r#\"\n\"# x";
        assert_eq!(lex(src)[0].line, 4);
    }
}
