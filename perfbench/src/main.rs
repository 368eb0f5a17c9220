//! Wall-clock benchmark of the rustlake server and the Fig. 2 pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_durable|lake_bulk|lake_many_small> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A full record (host, build, seed, sample counts, wrong
//! answers) goes to `perfbench/out/`, the only place a run writes. A wrong
//! answer makes the exit code 1. See `perfbench/README.md`.

mod bulk;
mod serve;
mod small;
mod spans;
mod stats;

use lake_core::Json;
use lake_obs::Tracer;
use spans::Trace;
use stats::{fastest, median, Samples};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Metrics a user of the system sees, reported from untraced runs.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("req_p50_ms", "ms"),
    ("pipeline_s", "s"),
    ("land_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
];

/// Metrics of single layers, reported from traced runs. A layer a
/// workload does not exercise reads 0. The end-to-end tails and restart
/// times come first: on a shared host they move from run to run by more
/// than any bound a regression gate could use, so they are reported (from
/// the traced run's untraced passes) without one.
const PER_LAYER: [(&str, &str); 60] = [
    ("req_p99_ms", "ms"),
    ("land_p99_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("recovery_s", "s"),
    ("protocol.connect_ms.p50", "ms"),
    ("protocol.send_ms.p50", "ms"),
    ("protocol.decode_ms.p50", "ms"),
    ("server.wait_ms.p50", "ms"),
    ("server.wait_ms.p99", "ms"),
    ("server.connections", "count"),
    ("server.shed", "count"),
    ("tenant.quota_rejected", "count"),
    ("tenant.breaker_rejected", "count"),
    ("wal.appended", "count"),
    ("wal.fsync_batches", "count"),
    ("wal.frames_per_fsync", "frames"),
    ("wal.rotations", "count"),
    ("wal.recovery_replayed", "count"),
    ("lake.ingest_file.total_ms", "ms"),
    ("lake.ingest_file.p50_ms", "ms"),
    ("lake.ingest_file.calls", "count"),
    ("lake.ingest_file.growth", "ratio"),
    ("lake.bytes_in", "B"),
    ("lake.rows_in", "count"),
    ("store.retrieve.total_ms", "ms"),
    ("store.retrieve.p50_ms", "ms"),
    ("store.retrieve.calls", "count"),
    ("discovery.profile.total_ms", "ms"),
    ("discovery.profile.p50_ms", "ms"),
    ("discovery.profile.calls", "count"),
    ("discovery.columns", "count"),
    ("discovery.build.aurum.total_ms", "ms"),
    ("discovery.build.josie.total_ms", "ms"),
    ("discovery.build.d3l.total_ms", "ms"),
    ("discovery.upsert.total_ms", "ms"),
    ("discovery.upsert.p50_ms", "ms"),
    ("discovery.upsert.calls", "count"),
    ("discovery.topk.aurum.p50_ms", "ms"),
    ("discovery.topk.josie.p50_ms", "ms"),
    ("discovery.topk.d3l.p50_ms", "ms"),
    ("discovery.topk.incremental.p50_ms", "ms"),
    ("maintain.clean.total_ms", "ms"),
    ("house.append.total_ms", "ms"),
    ("house.append.p50_ms", "ms"),
    ("house.append.calls", "count"),
    ("house.append.growth", "ratio"),
    ("house.files", "count"),
    ("house.scan.p50_ms", "ms"),
    ("query.search.p50_ms", "ms"),
    ("query.search.calls", "count"),
    ("query.federated.p50_ms", "ms"),
    ("query.federated.rows_moved_per_row", "ratio"),
    ("stage.ingest.share_pct", "%"),
    ("stage.maintain.share_pct", "%"),
    ("stage.commit.share_pct", "%"),
    ("stage.explore.share_pct", "%"),
    ("stage.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.dropped_spans", "count"),
];

/// Spans reported with self time, median duration and call count.
const SPAN_FAMILIES: [&str; 5] = [
    "lake.ingest_file",
    "store.retrieve",
    "discovery.profile",
    "discovery.upsert",
    "house.append",
];
/// Spans reported by median duration only.
const SPAN_MEDIANS: [&str; 7] = [
    "discovery.topk.aurum",
    "discovery.topk.josie",
    "discovery.topk.d3l",
    "discovery.topk.incremental",
    "house.scan",
    "query.search",
    "query.federated",
];
/// Spans reported by self time only.
const SPAN_TOTALS: [&str; 4] = [
    "discovery.build.aurum",
    "discovery.build.josie",
    "discovery.build.d3l",
    "maintain.clean",
];
const STAGES: [&str; 4] = ["ingest", "maintain", "commit", "explore"];
/// Largest gap allowed between the stage spans and the traced pipeline.
const COVERAGE_TOLERANCE_PCT: f64 = 5.0;

const WORKLOADS: [&str; 3] = ["serve_durable", "lake_bulk", "lake_many_small"];

/// Parsed command line plus where the run may write.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    out_dir: PathBuf,
    scratch: PathBuf,
}

impl RunConfig {
    fn parse(args: &[String]) -> Result<RunConfig, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" => {
                    flags.insert(flag, value);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let get = |f: &str| flags.get(f).copied().ok_or(format!("missing {f}"));
        let workload = get("--workload")?;
        if !WORKLOADS.contains(&workload) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        // Output lives next to the benchmark's sources in the checkout the
        // command runs from; a binary copied elsewhere cannot reach back.
        let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
        if !root.join("perfbench/Cargo.toml").is_file() {
            return Err("run from the repository root (perfbench/Cargo.toml not found)".into());
        }
        let out_dir = root.join("perfbench/out");
        let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
        Ok(RunConfig {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            out_dir,
            scratch,
        })
    }

    /// A fresh directory under this run's scratch dir, removed on drop.
    pub fn temp_dir(&self, name: &str) -> Result<TempDir, String> {
        let path = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

/// A directory removed (with its contents) when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// Samples behind each percentile metric, reported or withheld.
    samples: BTreeMap<String, usize>,
    pub spans: Option<Trace>,
}

impl Report {
    /// Record a failed operation or wrong answer.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Set a metric; `None` (not measurable in this run) leaves it unset.
    pub fn set(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.metrics.insert(name.to_string(), v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Record the process's peak RSS so far; a workload calls this before
    /// checks that hold extra copies of the system's state.
    pub fn set_peak_rss(&mut self) {
        self.set("peak_rss_mb", peak_rss_mb());
    }

    /// Set a latency percentile over samples in arrival order: the
    /// median window's percentile (see [`stats::windowed_percentile`]).
    pub fn pct(&mut self, name: &str, samples: &Samples, pct: u32) {
        self.samples.insert(name.to_string(), samples.len());
        let found = stats::windowed_percentile(samples, pct);
        self.set(name, found.map(|(v, _)| v));
        if let Some((_, window)) = found {
            self.samples.insert(format!("{name}.window"), window);
        }
    }

    /// Set a timing measured once per pipeline pass: the fastest pass
    /// (see [`stats::fastest`]). The record also keeps the median pass
    /// under `<name>.pass_median`.
    pub fn per_pass(&mut self, name: &str, values: &[f64]) {
        self.samples.insert(format!("{name}.passes"), values.len());
        self.set(name, fastest(values));
        self.set(&format!("{name}.pass_median"), median(values));
    }

    /// Set a latency percentile over calls that every pass makes in the
    /// same order: the percentile of each call's fastest instance over
    /// the passes (see [`Samples::fastest_each`]).
    pub fn pct_fastest_each<'a>(
        &mut self,
        name: &str,
        passes: impl Iterator<Item = &'a Samples>,
        pct: u32,
    ) {
        let passes: Vec<&Samples> = passes.collect();
        self.samples.insert(format!("{name}.passes"), passes.len());
        let best = Samples::fastest_each(&passes);
        self.samples
            .insert(name.to_string(), best.as_ref().map_or(0, Samples::len));
        self.set(name, best.and_then(|b| b.percentile(pct)));
    }

    /// Set a pipeline time from the laps of every pass: the sum over lap
    /// positions of each lap's fastest instance, so a quiet moment of the
    /// run counts wherever in a pass it fell. The record also keeps the
    /// fastest and the median whole pass (`<name>.pass_fastest`,
    /// `<name>.pass_median`). Returns the pipeline time.
    pub fn pipeline_laps<'a>(
        &mut self,
        name: &str,
        laps: impl Iterator<Item = &'a Samples>,
        whole: &[f64],
    ) -> Option<f64> {
        let laps: Vec<&Samples> = laps.collect();
        self.samples.insert(format!("{name}.passes"), laps.len());
        let best = Samples::fastest_each(&laps).map(|b| b.sum_s());
        self.set(name, best);
        self.set(&format!("{name}.pass_fastest"), fastest(whole));
        self.set(&format!("{name}.pass_median"), median(whole));
        best
    }

    /// Per-layer metrics from the traced run's spans.
    pub fn layer_spans(&mut self, trace: &Trace) {
        let agg = spans::aggregate(trace.records());
        for (name, s) in &agg {
            let durations = &s.durations;
            if SPAN_FAMILIES.contains(&name.as_str()) {
                self.set(&format!("{name}.total_ms"), Some(s.self_ms));
                self.set(&format!("{name}.calls"), Some(s.calls as f64));
                self.pct(&format!("{name}.p50_ms"), durations, 50);
            } else if SPAN_MEDIANS.contains(&name.as_str()) {
                self.pct(&format!("{name}.p50_ms"), durations, 50);
                self.set(&format!("{name}.calls"), Some(s.calls as f64));
            } else if SPAN_TOTALS.contains(&name.as_str()) {
                self.set(&format!("{name}.total_ms"), Some(s.self_ms));
            }
        }
        let stage_total: f64 = STAGES
            .iter()
            .filter_map(|st| agg.get(&format!("stage.{st}")))
            .map(|s| s.total_ms)
            .sum();
        for st in STAGES {
            let share = agg
                .get(&format!("stage.{st}"))
                .map(|s| 100.0 * s.total_ms / stage_total);
            self.set(&format!("stage.{st}.share_pct"), share);
        }
        self.set("trace.spans", Some(trace.records().count() as f64));
        self.set("trace.dropped_spans", Some(trace.dropped() as f64));
    }

    /// Per-layer metrics of a traced pipeline run: the tracing overhead
    /// (median traced against median untraced pass), a check that the
    /// stage spans account for the traced pipeline time, and the span
    /// metrics. Keeps the spans for writing out.
    pub fn traced_passes<T>(&mut self, passes: Passes<T>, pipeline_s: impl Fn(&T) -> f64) {
        let Some(trace) = passes.trace else { return };
        let untraced = median(&passes.untraced.iter().map(&pipeline_s).collect::<Vec<_>>());
        let traced = median(
            &passes
                .traced
                .iter()
                .map(|(p, _)| pipeline_s(p))
                .collect::<Vec<_>>(),
        );
        if let (Some(t), Some(u)) = (traced, untraced) {
            self.set("trace.overhead_pct", Some(100.0 * (t - u) / u));
        }
        let staged: f64 = passes.traced.iter().map(|(_, staged)| staged).sum();
        let wall: f64 = passes.traced.iter().map(|(p, _)| pipeline_s(p)).sum();
        if wall > 0.0 {
            let pct = 100.0 * staged / wall;
            self.set("stage.coverage_pct", Some(pct));
            if (pct - 100.0).abs() > COVERAGE_TOLERANCE_PCT {
                self.fail(format!(
                    "stage spans cover {pct:.1}% of the traced pipeline time"
                ));
            }
        }
        self.layer_spans(&trace);
        self.spans = Some(trace);
    }
}

/// The passes of a pipeline workload, split by whether they were traced.
pub struct Passes<T> {
    pub untraced: Vec<T>,
    /// Traced passes, each with the time its stage spans cover inside the
    /// pipeline window, in s.
    pub traced: Vec<(T, f64)>,
    trace: Option<Trace>,
}

/// Run back-to-back passes until `cfg.seconds` have passed and at least
/// `min_passes` ran (in a traced run, `min_passes` of each kind). A traced
/// run alternates untraced and traced passes, so the overhead compares
/// passes made under the same conditions. Root stage spans named in
/// `after_pipeline` lie outside the pipeline window.
pub fn run_passes<T>(
    cfg: &RunConfig,
    min_passes: usize,
    after_pipeline: &[&str],
    mut pass: impl FnMut(Option<&Tracer>) -> Result<T, String>,
) -> Result<Passes<T>, String> {
    let mut trace = cfg.trace.then(Trace::new);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let min_passes = if cfg.trace {
        2 * min_passes
    } else {
        min_passes
    };
    let opened = Instant::now();
    let mut n = 0;
    while n < min_passes || opened.elapsed().as_secs_f64() < cfg.seconds {
        match trace.as_mut().filter(|_| n % 2 == 1) {
            Some(trace) => {
                let times = pass(Some(trace.tracer()))?;
                let before = trace.records().count();
                trace.drain(n)?;
                let staged: f64 = trace
                    .records()
                    .skip(before)
                    .filter(|s| s.parent == 0 && !after_pipeline.contains(&s.name.as_str()))
                    .map(|s| s.duration_micros() as f64 / 1e6)
                    .sum();
                traced.push((times, staged));
            }
            None => untraced.push(pass(None)?),
        }
        n += 1;
    }
    Ok(Passes {
        untraced,
        traced,
        trace,
    })
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checkout's commit, read from `.git` when present.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The result line: every metric of the requested kind with its unit.
fn result_line(report: &Report, correct: bool, wanted: &[(&str, &str)]) -> Json {
    let metrics = wanted
        .iter()
        .map(|&(name, unit)| {
            let metric = Json::obj(vec![
                ("value", Json::Num(report.get(name))),
                ("unit", Json::str(unit)),
            ]);
            (name.to_string(), metric)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
}

/// The full record written next to the result line.
fn record(cfg: &RunConfig, report: &Report, correct: bool) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|(k, &v)| (k.clone(), Json::Num(v)))
        .collect();
    let samples = report
        .samples
        .iter()
        .map(|(k, &n)| (k.clone(), Json::Num(n as f64)))
        .collect();
    let problems = report.problems.iter().map(Json::str).collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj(vec![
        ("workload", Json::str(&cfg.workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("nproc", Json::Num(nproc() as f64)),
        ("profile", Json::str(profile)),
        ("git_rev", Json::str(git_rev())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "failed_frac",
            Json::Num(report.failed as f64 / report.attempted.max(1) as f64),
        ),
        ("problems", Json::Array(problems)),
        ("metrics", Json::Object(metrics)),
        ("samples", Json::Object(samples)),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn run(cfg: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    match cfg.workload.as_str() {
        "serve_durable" => serve::run(cfg, &mut report)?,
        "lake_bulk" => bulk::run(cfg, &mut report)?,
        "lake_many_small" => small::run(cfg, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    if !report.metrics.contains_key("peak_rss_mb") {
        report.set_peak_rss();
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match RunConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("perfbench: create {}: {e}", cfg.scratch.display());
        return ExitCode::from(2);
    }
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };

    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    if !cfg.trace {
        for (name, _) in END_TO_END {
            if !report.metrics.contains_key(name) {
                let n = report.samples.get(name).copied().unwrap_or(0);
                report.fail(format!("{name} not measured ({n} samples)"));
            }
        }
    } else if report.spans.as_ref().is_none_or(|t| t.dropped() > 0) {
        report.fail("traced run dropped spans or recorded none".into());
    }
    let correct = report.failed == 0;

    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let record_path = cfg.out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(
        &record_path,
        format!("{}\n", record(&cfg, &report, correct)),
    ) {
        eprintln!("perfbench: write {}: {e}", record_path.display());
    }
    if let Some(trace) = &report.spans {
        let spans_path = cfg.out_dir.join(format!("{stem}-spans.jsonl"));
        if let Err(e) = trace.write_jsonl(&spans_path) {
            eprintln!("perfbench: write {}: {e}", spans_path.display());
        }
    }
    for p in &report.problems {
        eprintln!("perfbench: wrong: {p}");
    }
    println!(
        "{} seed={} trace={} nproc={} attempted={} failed={} record={}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        nproc(),
        report.attempted,
        report.failed,
        record_path.display()
    );
    println!("{}", result_line(&report, correct, wanted));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
