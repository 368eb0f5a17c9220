//! Fixture: a top-level `#[cfg(test)]` declaration exempts that one item
//! and nothing after it. Every rule must still see the library code
//! below — one violation each.

#[cfg(test)]
#[path = "oracle.rs"]
mod oracle;

use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub fn after_test_item(v: &mut [f64], hits: &AtomicU64, f: &mut File) -> Result<u8, String> {
    let _t0 = Instant::now();
    v.sort_by(|a, b| a.partial_cmp(b)
        .unwrap());
    hits.fetch_add(1, Ordering::Relaxed);
    f.write_all(b"frame").map_err(|e| e.to_string())?;
    Ok(0)
}
