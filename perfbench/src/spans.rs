//! Spans recorded from the benchmark's own code around each call into a
//! layer, on the `lake_obs` tracer, plus the self-time arithmetic that
//! turns them into per-layer metrics.
//!
//! A run without tracing carries no tracer at all, so the untraced
//! measurement pays nothing for the instrumentation.

use crate::stats::Samples;
use lake_core::retry::SystemClock;
use lake_core::Json;
use lake_obs::{Span, SpanRecord, Tracer};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Ring size of the tracer. Spans are drained into [`Trace::records`]
/// after every traced pass, so a pass must not finish more than this
/// many; [`Trace::drain`] fails the run if the ring ever evicted one.
const RING: usize = 1 << 18;

/// Start a root span when tracing.
pub fn root(tracer: Option<&Tracer>, name: &str) -> Option<Span> {
    tracer.map(|t| t.span(name))
}

/// Start a child of `parent` when tracing.
pub fn child(parent: &Option<Span>, name: &str) -> Option<Span> {
    parent.as_ref().map(|p| p.child(name))
}

/// Every span of a traced run, tagged with the pass ("run id") that
/// produced it.
pub struct Trace {
    tracer: Tracer,
    records: Vec<(usize, SpanRecord)>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            tracer: Tracer::with_capacity(Arc::new(SystemClock), RING),
            records: Vec::new(),
        }
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Move the ring's finished spans into memory under run id `run`.
    pub fn drain(&mut self, run: usize) -> Result<(), String> {
        if self.tracer.dropped_spans() > 0 {
            return Err(format!(
                "tracer ring of {RING} evicted {} spans",
                self.tracer.dropped_spans()
            ));
        }
        let spans = self.tracer.finished_spans();
        self.tracer.clear();
        self.records.extend(spans.into_iter().map(|s| (run, s)));
        Ok(())
    }

    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter().map(|(_, s)| s)
    }

    pub fn dropped(&self) -> u64 {
        self.tracer.dropped_spans()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (run, s) in &self.records {
            let span = Json::obj(vec![
                ("run", Json::Num(*run as f64)),
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(&s.name)),
                ("start_us", Json::Num(s.start_micros as f64)),
                ("end_us", Json::Num(s.end_micros as f64)),
            ]);
            writeln!(out, "{span}")?;
        }
        out.flush()
    }
}

/// Per-name aggregate of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub calls: usize,
    /// Sum of self time (duration minus the part covered by children).
    pub self_ms: f64,
    /// Sum of whole durations.
    pub total_ms: f64,
    /// Whole durations of each call.
    pub durations: Samples,
}

/// Self time of each span, in µs: its duration minus the union of its
/// children's intervals clipped to it. Overlapping children (parallel
/// work under one parent) are counted once.
pub fn self_times_us(spans: &[&SpanRecord]) -> Vec<u64> {
    let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_micros, s.end_micros));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = kids
                .get_mut(&s.id)
                .map(|iv| covered_us(iv, s.start_micros, s.end_micros))
                .unwrap_or(0);
            s.duration_micros().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_us(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Aggregate spans by name.
pub fn aggregate<'a>(spans: impl Iterator<Item = &'a SpanRecord>) -> BTreeMap<String, SpanStats> {
    let spans: Vec<&SpanRecord> = spans.collect();
    let selfs = self_times_us(&spans);
    let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.calls += 1;
        e.self_ms += self_us as f64 / 1e3;
        e.total_ms += s.duration_micros() as f64 / 1e3;
        e.durations.push(Duration::from_micros(s.duration_micros()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_micros: start,
            end_micros: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec(1, 0, "stage", 0, 100),
            rec(2, 1, "a", 10, 30),
            rec(3, 1, "b", 40, 70),
            rec(4, 2, "a.inner", 12, 20),
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        assert_eq!(self_times_us(&refs), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = [
            rec(1, 0, "p", 100, 200),
            rec(2, 1, "c", 90, 150),  // starts before the parent
            rec(3, 1, "c", 120, 160), // overlaps the first child
            rec(4, 1, "c", 190, 260), // ends after the parent
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        // Covered: [100,160) + [190,200) = 70 of 100.
        assert_eq!(self_times_us(&refs)[0], 30);
    }

    #[test]
    fn children_longer_than_parent_never_underflow() {
        let spans = [
            rec(1, 0, "p", 0, 10),
            rec(2, 1, "c", 0, 10),
            rec(3, 1, "c", 0, 10),
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        assert_eq!(self_times_us(&refs), vec![0, 10, 10]);
    }

    #[test]
    fn aggregate_sums_self_and_whole_time_by_name() {
        let spans = [
            rec(1, 0, "stage", 0, 1000),
            rec(2, 1, "call", 0, 400),
            rec(3, 1, "call", 500, 700),
        ];
        let agg = aggregate(spans.iter());
        let stage = &agg["stage"];
        assert_eq!(stage.calls, 1);
        assert!((stage.self_ms - 0.4).abs() < 1e-12);
        assert!((stage.total_ms - 1.0).abs() < 1e-12);
        let call = &agg["call"];
        assert_eq!(call.calls, 2);
        assert!((call.self_ms - 0.6).abs() < 1e-12);
        assert_eq!(call.durations.ms(), vec![0.4, 0.2]);
    }

    #[test]
    fn traced_pass_is_drained_with_its_run_id() {
        let mut trace = Trace::new();
        {
            let stage = root(Some(trace.tracer()), "stage.ingest");
            let _call = child(&stage, "lake.ingest_file");
        }
        trace.drain(7).expect("no evictions");
        assert_eq!(trace.records().count(), 2);
        assert!(trace.records.iter().all(|(run, _)| *run == 7));
        assert!(root(None, "x").is_none());
        assert!(child(&None, "x").is_none());
    }
}
