//! Fixture: raw strings whose bodies hold a quote or end in a backslash.
//! Neither may swallow the code after it: each literal is followed by one
//! violation per rule.

use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const QUOTED: &str = r#"a"b"#;

pub fn after_quote(v: &mut [f64], hits: &AtomicU64, f: &mut File) -> Result<u8, String> {
    let _t0 = Instant::now();
    v.sort_by(|a, b| a.partial_cmp(b)
        .unwrap());
    hits.fetch_add(1, Ordering::Relaxed);
    f.write_all(b"frame").map_err(|e| e.to_string())?;
    Ok(0)
}

pub const WINDOWS_ROOT: &str = r"C:\";

pub fn after_backslash(v: &mut [f64], hits: &AtomicU64, f: &mut File) -> Result<u8, String> {
    let _t0 = Instant::now();
    v.sort_by(|a, b| a.partial_cmp(b)
        .unwrap());
    hits.fetch_add(1, Ordering::Relaxed);
    f.write_all(b"frame").map_err(|e| e.to_string())?;
    Ok(0)
}
