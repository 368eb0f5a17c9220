//! `lake_bulk`: the Fig. 2 pipeline over a few dozen large tables.
//!
//! Each pass lands the whole generated lake into a fresh `DataLake` in
//! stages (ingest every file; retrieve and profile; build Aurum, JOSIE and
//! D³L; the CLAMS gate; one lakehouse commit per table), then runs a query
//! phase, then reopens every lakehouse table through log recovery.

use crate::spans;
use crate::stats::{growth, median, Laps, Samples};
use crate::{run_passes, Report, RunConfig};
use lake::users::Role;
use lake::DataLake;
use lake_core::synth::{generate_lake, GroundTruth, LakeGenConfig, SynthLake};
use lake_core::{Dataset, DatasetId, Table};
use lake_discovery::aurum::Aurum;
use lake_discovery::d3l::D3l;
use lake_discovery::josie::Josie;
use lake_discovery::{DiscoverySystem, TableCorpus};
use lake_house::table::LakeTable;
use lake_obs::Tracer;
use lake_store::object::MemoryStore;
use std::time::Instant;

const USER: &str = "ops";
/// Fewest passes (of each kind, in a traced run): enough for a median of
/// the once-per-pass spans.
const MIN_PASSES: usize = 20;
const K: usize = 3;
const RECOVERY_REPS: usize = 5;

/// e19's generator shape at a size one pass lands in a few hundred ms.
/// Every table has the same row count, so the seed changes the values but
/// not the amount of work.
fn lake_config(seed: u64) -> LakeGenConfig {
    LakeGenConfig {
        seed,
        groups: 8,
        tables_per_group: 4,
        noise_tables: 4,
        rows: (500, 500),
        key_pool: 2_000,
        ..LakeGenConfig::default()
    }
}

/// Query-phase mix per pass, 100 queries. Aurum and search answer in
/// µs, JOSIE, federated queries and scans in about 0.3 ms, D³L in about
/// 20 ms. The counts put p50 and p90 inside the middle band (queries
/// 33–96 of 100 by latency), several queries from either edge, so a
/// percentile does not flip between bands from run to run. The four D³L
/// queries take most of the phase's time, so `throughput_rps` (queries
/// per second of the phase) is the end-to-end metric a D³L change moves.
const MIX: [(Query, usize); 6] = [
    (Query::Search, 16),
    (Query::Aurum, 16),
    (Query::Federated, 16),
    (Query::Scan, 16),
    (Query::Josie, 32),
    (Query::D3l, 4),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Query {
    Search,
    Aurum,
    Josie,
    D3l,
    Federated,
    Scan,
}

struct Inputs {
    lake: SynthLake,
    /// One CSV file per table: name and bytes.
    files: Vec<(String, Vec<u8>)>,
}

fn generate(seed: u64) -> Inputs {
    let lake = generate_lake(&lake_config(seed));
    let files = lake
        .tables
        .iter()
        .map(|t| {
            let csv = lake_formats::csv::write_table(t, ',').into_bytes();
            (format!("{}.csv", t.name), csv)
        })
        .collect();
    Inputs { lake, files }
}

/// Answers recorded during a pass, checked after it.
#[derive(Default)]
struct Answers {
    related: Vec<(Query, String, Vec<String>)>,
    d3l_empty: usize,
    rows: Vec<(Query, String, usize)>,
    /// Federated rows moved from sources and rows returned.
    moved: (usize, usize),
    search_misses: Vec<String>,
    errors: Vec<String>,
}

/// Latencies of one pass, one sample per call.
#[derive(Default)]
struct PassTimes {
    pipeline_s: f64,
    /// The pipeline, one lap per call into the system.
    laps: Samples,
    recovery_s: f64,
    /// Per `ingest_file` call, in arrival order.
    ingest: Samples,
    /// Per lakehouse commit (`LakeTable::append`).
    commit: Samples,
    query: Samples,
}

fn lakehouse_prefix(name: &str) -> String {
    format!("house/{name}")
}

fn pass(
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    answers: &mut Answers,
) -> Result<PassTimes, String> {
    let mut dl = DataLake::new();
    dl.access.add_user(USER, Role::Operations);
    let house = MemoryStore::new();
    let mut times = PassTimes::default();

    let t0 = Instant::now();
    let mut laps = Laps::start();
    let stage = spans::root(tracer, "stage.ingest");
    let mut ids: Vec<DatasetId> = Vec::with_capacity(inputs.files.len());
    for (name, bytes) in &inputs.files {
        let t = Instant::now();
        let call = spans::child(&stage, "lake.ingest_file");
        let id = dl
            .ingest_file(USER, name, bytes)
            .map_err(|e| format!("ingest {name}: {e}"))?;
        drop(call);
        times.ingest.push(t.elapsed());
        laps.mark();
        ids.push(id);
    }
    drop(stage);

    let stage = spans::root(tracer, "stage.maintain");
    let mut tables: Vec<Table> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let _call = spans::child(&stage, "store.retrieve");
        match dl
            .dataset(USER, id)
            .map_err(|e| format!("retrieve {id}: {e}"))?
        {
            Dataset::Table(t) => tables.push(t),
            other => return Err(format!("{id} landed as {:?}, not a table", other.kind())),
        }
        laps.mark();
    }
    let call = spans::child(&stage, "discovery.profile");
    let corpus = TableCorpus::new(tables);
    drop(call);
    laps.mark();
    let call = spans::child(&stage, "discovery.build.aurum");
    let mut aurum = Aurum::default();
    aurum.build(&corpus);
    drop(call);
    laps.mark();
    let call = spans::child(&stage, "discovery.build.josie");
    let mut josie = Josie::default();
    josie.build(&corpus);
    drop(call);
    laps.mark();
    let call = spans::child(&stage, "discovery.build.d3l");
    let mut d3l = D3l::default();
    d3l.build(&corpus);
    drop(call);
    laps.mark();
    for &id in &ids {
        let _call = spans::child(&stage, "maintain.clean");
        // landing → raw is ungated; raw → trusted runs the CLAMS gate.
        dl.promote_checked(USER, id)
            .map_err(|e| format!("promote {id}: {e}"))?;
        match dl.promote_checked(USER, id) {
            Ok(_) => {}
            // A refusal is the gate's answer, not a failure.
            Err(e) if e.to_string().contains("blocked from trusted zone") => {}
            Err(e) => answers.errors.push(format!("CLAMS gate {id}: {e}")),
        }
        laps.mark();
    }
    drop(stage);

    let stage = spans::root(tracer, "stage.commit");
    for table in corpus.tables() {
        let t = Instant::now();
        let call = spans::child(&stage, "house.append");
        LakeTable::open(&house, &lakehouse_prefix(&table.name))
            .append(table)
            .map_err(|e| format!("append {}: {e}", table.name))?;
        drop(call);
        times.commit.push(t.elapsed());
        laps.mark();
    }
    drop(stage);
    times.pipeline_s = t0.elapsed().as_secs_f64();
    times.laps = laps.laps;

    let stage = spans::root(tracer, "stage.explore");
    let (groups, members) = (lake_config(0).groups, lake_config(0).tables_per_group);
    // Search needs the lake mutably, the federated engine borrows it: all
    // searches go first.
    for i in 0..MIX[0].1 {
        let term = search_term(inputs, i % groups);
        let t = Instant::now();
        let call = spans::child(&stage, "query.search");
        let hits = dl
            .search(USER, &term, K)
            .map_err(|e| format!("search {term}: {e}"))?;
        drop(call);
        times.query.push(t.elapsed());
        if hits.is_empty() {
            answers.search_misses.push(term);
        }
    }
    let fe = dl.federated();
    for &(kind, count) in &MIX[1..] {
        for i in 0..count {
            let (g, member) = (i % groups, i % members);
            let t = Instant::now();
            match kind {
                Query::Search => {}
                Query::Aurum | Query::Josie | Query::D3l => {
                    let name = format!("g{g}_t0");
                    let q = corpus
                        .table_index(&name)
                        .ok_or(format!("{name} not in corpus"))?;
                    let (system, span): (&dyn DiscoverySystem, _) = match kind {
                        Query::Aurum => (&aurum, "discovery.topk.aurum"),
                        Query::Josie => (&josie, "discovery.topk.josie"),
                        _ => (&d3l, "discovery.topk.d3l"),
                    };
                    let call = spans::child(&stage, span);
                    let top = system.top_k_related(&corpus, q, K);
                    drop(call);
                    times.query.push(t.elapsed());
                    let names = top
                        .iter()
                        .map(|&(ti, _)| corpus.tables()[ti].name.clone())
                        .collect();
                    if kind == Query::D3l {
                        answers.d3l_empty += usize::from(top.is_empty());
                    } else {
                        answers.related.push((kind, name, names));
                    }
                }
                Query::Federated => {
                    let name = format!("g{g}_t{member}");
                    let query = lake_query::parse_query(&format!("select * from {name}"))
                        .map_err(|e| format!("parse: {e}"))?;
                    let call = spans::child(&stage, "query.federated");
                    let (rows, stats) = fe
                        .execute(&query, true)
                        .map_err(|e| format!("federated {name}: {e}"))?;
                    drop(call);
                    times.query.push(t.elapsed());
                    answers.moved.0 += stats.rows_moved;
                    answers.moved.1 += rows.num_rows();
                    answers.rows.push((kind, name, rows.num_rows()));
                }
                Query::Scan => {
                    let name = format!("g{g}_t{member}");
                    let call = spans::child(&stage, "house.scan");
                    let (rows, _) = LakeTable::open(&house, &lakehouse_prefix(&name))
                        .scan(&[])
                        .map_err(|e| format!("scan {name}: {e}"))?;
                    drop(call);
                    times.query.push(t.elapsed());
                    answers.rows.push((kind, name, rows.len()));
                }
            }
        }
    }
    drop(fe);
    drop(stage);

    // Restart cost of the lakehouse: reopen every table through recovery,
    // a few times (one reopen of 36 one-commit tables takes well under a
    // millisecond).
    let mut reopens = Vec::with_capacity(RECOVERY_REPS);
    for _ in 0..RECOVERY_REPS {
        let t = Instant::now();
        for table in corpus.tables() {
            let report = LakeTable::open(&house, &lakehouse_prefix(&table.name))
                .log()
                .recover()
                .map_err(|e| format!("recover {}: {e}", table.name))?;
            if report.recovered_version != 1 || !report.quarantined.is_empty() {
                answers
                    .errors
                    .push(format!("recover {}: {report:?}", table.name));
            }
        }
        reopens.push(t.elapsed().as_secs_f64());
    }
    times.recovery_s = median(&reopens).unwrap_or(0.0);
    Ok(times)
}

/// A value of the group's first table, which full-text search must find.
fn search_term(inputs: &Inputs, group: usize) -> String {
    inputs
        .lake
        .tables
        .iter()
        .find(|t| t.name == format!("g{group}_t0"))
        .and_then(|t| t.columns().get(1))
        .and_then(|c| c.values.first())
        .map(|v| v.to_string())
        .unwrap_or_default()
}

/// Group index of a generated group table (`g{g}_t{m}`).
fn group_of(table: &str) -> Option<usize> {
    table.strip_prefix('g')?.split_once("_t")?.0.parse().ok()
}

/// The categorical values group `g` draws from, by the generator's own
/// slicing rule (`lake_core::synth::generate_lake`): `want` words starting
/// at `g * size`, wrapping around the vocabulary.
fn vocab_slice(words: &'static [&'static str], g: usize, want: usize) -> Vec<&'static str> {
    let groups = lake_config(0).groups;
    let size = (words.len() / groups).max(want.min(words.len()));
    (0..size)
        .map(|i| words[(g * size + i) % words.len()])
        .collect()
}

/// Whether the generated lake relates tables `a` and `b`: a planted pair,
/// or two groups whose city or product slices overlap. With 8 groups the
/// product vocabulary wraps, so groups 5–7 draw exactly the products of
/// groups 0–2; the planted `GroundTruth` does not list those pairs, but a
/// system scoring tables by their best column overlap ties them with the
/// planted ones.
fn related(truth: &GroundTruth, a: &str, b: &str) -> bool {
    use lake_core::synth::vocab::{CITIES, PRODUCTS};
    if truth.tables_related(a, b) {
        return true;
    }
    let (Some(ga), Some(gb)) = (group_of(a), group_of(b)) else {
        return false;
    };
    [(CITIES, 6), (PRODUCTS, 3)].iter().any(|&(words, want)| {
        let sa = vocab_slice(words, ga, want);
        vocab_slice(words, gb, want).iter().any(|w| sa.contains(w))
    })
}

/// Check one pass's answers; returns the number of checks made.
fn check(inputs: &Inputs, answers: &Answers, report: &mut Report) -> u64 {
    let mut checks = 0u64;
    let truth = &inputs.lake.truth;
    for (kind, query, found) in &answers.related {
        checks += 1;
        let wrong: Vec<&String> = found.iter().filter(|t| !related(truth, query, t)).collect();
        if found.len() != K || !wrong.is_empty() {
            report.fail(format!(
                "{kind:?} top-{K} of {query}: {found:?} (unrelated: {wrong:?})"
            ));
        }
    }
    for (kind, name, rows) in &answers.rows {
        checks += 1;
        let want = inputs
            .lake
            .tables
            .iter()
            .find(|t| t.name == *name)
            .map(Table::num_rows);
        if want != Some(*rows) {
            report.fail(format!("{kind:?} {name}: {rows} rows, source has {want:?}"));
        }
    }
    checks += (answers.search_misses.len() + answers.d3l_empty + answers.errors.len()) as u64;
    for term in &answers.search_misses {
        report.fail(format!("search {term:?} found nothing"));
    }
    if answers.d3l_empty > 0 {
        report.fail(format!(
            "{} D3L queries answered nothing",
            answers.d3l_empty
        ));
    }
    for e in &answers.errors {
        report.fail(e.clone());
    }
    checks
}

pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    // One untimed warm-up pass (allocator growth, first-touch page
    // faults, lazy statics).
    let inputs = generate(cfg.seed);
    pass(&inputs, None, &mut Answers::default())?;
    report.set(
        "lake.bytes_in",
        Some(inputs.files.iter().map(|f| f.1.len() as f64).sum()),
    );
    report.set(
        "lake.rows_in",
        Some(inputs.lake.tables.iter().map(|t| t.num_rows() as f64).sum()),
    );
    report.set(
        "discovery.columns",
        Some(
            inputs
                .lake
                .tables
                .iter()
                .map(|t| t.num_columns() as f64)
                .sum(),
        ),
    );

    // Set-up (generate the lake, render it to CSV) is timed before every
    // pass, which then lands what it made: spread over the run, set-ups
    // meet the host as the passes do. Seven back-to-back set-ups span
    // ~0.1 s and read up to 1.75x apart from run to run, by which CPU
    // state they happened to fall in.
    let mut setups = Vec::new();
    let mut moved = (0usize, 0usize);
    let passes = run_passes(cfg, MIN_PASSES, &["stage.explore"], |tracer| {
        let t = Instant::now();
        let inputs = generate(cfg.seed);
        setups.push(t.elapsed().as_secs_f64());
        let mut answers = Answers::default();
        let times = pass(&inputs, tracer, &mut answers)?;
        report.attempted += check(&inputs, &answers, report) + inputs.files.len() as u64;
        moved.0 += answers.moved.0;
        moved.1 += answers.moved.1;
        Ok(times)
    })?;
    report.set(
        "query.federated.rows_moved_per_row",
        (moved.1 > 0).then(|| moved.0 as f64 / moved.1 as f64),
    );
    report.set("house.files", Some(inputs.files.len() as f64));

    // Timings: set-up by its fastest pass; the pipeline and every call
    // by each lap's or call's fastest instance over the passes; tails pool
    // every pass's calls.
    report.per_pass("setup_s", &setups);
    let untraced = &passes.untraced;
    let whole: Vec<f64> = untraced.iter().map(|p| p.pipeline_s).collect();
    report.pipeline_laps("pipeline_s", untraced.iter().map(|p| &p.laps), &whole);
    let queries: Vec<&Samples> = untraced.iter().map(|p| &p.query).collect();
    report.set(
        "throughput_rps",
        Samples::fastest_each(&queries).map(|q| q.len() as f64 / q.sum_s()),
    );
    report.set(
        "recovery_s",
        median(&untraced.iter().map(|p| p.recovery_s).collect::<Vec<_>>()),
    );
    report.pct_fastest_each("req_p50_ms", untraced.iter().map(|p| &p.ingest), 50);
    report.pct_fastest_each("land_p50_ms", untraced.iter().map(|p| &p.commit), 50);
    report.pct_fastest_each("query_p50_ms", queries.into_iter(), 50);
    let (mut ingest, mut commit, mut query) = (Samples::new(), Samples::new(), Samples::new());
    for p in untraced {
        ingest.extend(&p.ingest);
        commit.extend(&p.commit);
        query.extend(&p.query);
    }
    report.pct("req_p99_ms", &ingest, 99);
    report.pct("land_p99_ms", &commit, 99);
    report.pct("query_p90_ms", &query, 90);
    let measured: Vec<&PassTimes> = match cfg.trace {
        true => passes.traced.iter().map(|(p, _)| p).collect(),
        false => untraced.iter().collect(),
    };
    let growths: Vec<f64> = measured.iter().filter_map(|p| growth(&p.ingest)).collect();
    report.set("lake.ingest_file.growth", median(&growths));
    report.traced_passes(passes, |p| p.pipeline_s);
    Ok(())
}
