//! `lake_many_small`: small files arriving one at a time, a thousand per pass.
//!
//! Every file goes through `DataLake::ingest_file`. A CSV file then is
//! retrieved, upserted into `IncrementalDiscovery` and appended as one
//! commit to its source's lakehouse table. Every [`QUERY_EVERY`] files the
//! benchmark asks discovery and full-text search a question about the
//! newest data.

use crate::spans;
use crate::stats::{growth, median, Laps, Samples};
use crate::{run_passes, Report, RunConfig};
use lake::users::Role;
use lake::DataLake;
use lake_core::{Dataset, Parallelism, Table};
use lake_discovery::corpus::ColumnRef;
use lake_discovery::d3l::D3l;
use lake_discovery::IncrementalDiscovery;
use lake_house::table::LakeTable;
use lake_obs::Tracer;
use lake_store::object::MemoryStore;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const USER: &str = "ops";
/// Files the untimed warm-up pass lands.
const WARMUP_FILES: usize = 400;
/// Files landed per pass.
const FILES: usize = 1000;
/// Sources of tabular files; each has one lakehouse table.
const SOURCES: usize = 8;
/// Every `QUERY_EVERY` files discovery is asked for the top-k overlapping
/// columns of a new batch; every `SEARCH_EVERY`-th such point full-text
/// search is asked too. One search per five discovery queries keeps p50
/// inside the (fast) discovery band and p90 inside the (slow,
/// corpus-sized) search band, each several queries from its edge.
const QUERY_EVERY: usize = 20;
const SEARCH_EVERY: usize = 5;
const K: usize = 5;
const MIN_PASSES: usize = 3;

const CITIES: [&str; 12] = [
    "delft", "paris", "oslo", "berlin", "lyon", "porto", "turin", "graz", "ghent", "bergen",
    "malmo", "leeds",
];
const ACTIONS: [&str; 6] = ["login", "logout", "upload", "query", "export", "share"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A CSV batch from source `n`.
    Csv(usize),
    Json,
    Log,
}

struct File {
    name: String,
    kind: Kind,
    bytes: Vec<u8>,
    rows: usize,
}

/// 70% CSV batches from [`SOURCES`] sources whose device and city
/// columns share values, 20% JSON-lines documents, 10% logs, of 5–40 rows
/// each. Kinds and sizes follow the file index, so the seed changes the
/// values and sources but not the amount of work.
fn generate(seed: u64) -> Vec<File> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..FILES)
        .map(|i| {
            let rows = 5 + (i * 17) % 36;
            match i % 10 {
                0..=6 => {
                    let s = i % SOURCES;
                    let mut text = String::from("event_id,device,city,reading\n");
                    for r in 0..rows {
                        let device = rng.random_range(0..60u32);
                        let city = CITIES[rng.random_range(0..CITIES.len())];
                        let reading = rng.random_range(0..10_000u32);
                        text.push_str(&format!("s{s}f{i}r{r},dev{device},{city},{reading}\n"));
                    }
                    File { name: format!("src{s}_b{i:05}.csv"), kind: Kind::Csv(s), bytes: text.into_bytes(), rows }
                }
                7 | 8 => {
                    let mut text = String::new();
                    for _ in 0..rows {
                        let user = rng.random_range(0..500u32);
                        let action = ACTIONS[rng.random_range(0..ACTIONS.len())];
                        let city = CITIES[rng.random_range(0..CITIES.len())];
                        text.push_str(&format!(
                            "{{\"user\": \"u{user}\", \"action\": \"{action}\", \"city\": \"{city}\"}}\n"
                        ));
                    }
                    File { name: format!("doc_b{i:05}.json"), kind: Kind::Json, bytes: text.into_bytes(), rows }
                }
                _ => {
                    let mut text = String::new();
                    for r in 0..rows {
                        let level = ["INFO", "WARN", "ERROR"][rng.random_range(0..3usize)];
                        let action = ACTIONS[rng.random_range(0..ACTIONS.len())];
                        text.push_str(&format!(
                            "2024-03-{:02} 12:{:02}:{:02} {level} user u{} {action}\n",
                            1 + i % 28,
                            r % 60,
                            (i + r) % 60,
                            rng.random_range(0..500u32)
                        ));
                    }
                    File { name: format!("log_b{i:05}.log"), kind: Kind::Log, bytes: text.into_bytes(), rows }
                }
            }
        })
        .collect()
}

#[derive(Default)]
struct PassTimes {
    pipeline_s: f64,
    /// The pipeline, one lap per file (with the queries that follow it).
    laps: Samples,
    recovery_s: f64,
    ingest: Samples,
    land: Samples,
    append: Samples,
    query: Samples,
    files_in_house: usize,
}

/// Answers recorded during a pass, checked after it.
#[derive(Default)]
struct Answers {
    /// Each discovery answer: the query column and its `(profile, overlap)` hits.
    overlaps: Vec<(ColumnRef, Vec<(usize, usize)>)>,
    search_misses: Vec<String>,
    errors: Vec<String>,
}

fn pass(
    files: &[File],
    tracer: Option<&Tracer>,
    answers: &mut Answers,
) -> Result<(PassTimes, IncrementalDiscovery), String> {
    let mut dl = DataLake::new();
    dl.access.add_user(USER, Role::Operations);
    let mut inc = IncrementalDiscovery::new(Vec::new());
    let house = MemoryStore::new();
    let tables: Vec<LakeTable<'_>> = (0..SOURCES)
        .map(|s| LakeTable::open(&house, &format!("house/src{s}")))
        .collect();
    let mut appended_rows = [0usize; SOURCES];
    let mut times = PassTimes::default();
    // The two newest tabular batches (corpus index) and a city of the newest.
    let mut newest: Option<([usize; 2], String)> = None;

    let t0 = Instant::now();
    let mut laps = Laps::start();
    for (i, file) in files.iter().enumerate() {
        let t = Instant::now();
        let stage = spans::root(tracer, "stage.ingest");
        let call = spans::child(&stage, "lake.ingest_file");
        let id = dl
            .ingest_file(USER, &file.name, &file.bytes)
            .map_err(|e| format!("ingest {}: {e}", file.name))?;
        drop(call);
        drop(stage);
        times.ingest.push(t.elapsed());

        if let Kind::Csv(source) = file.kind {
            let stage = spans::root(tracer, "stage.maintain");
            let call = spans::child(&stage, "store.retrieve");
            let table = match dl
                .dataset(USER, id)
                .map_err(|e| format!("retrieve {id}: {e}"))?
            {
                Dataset::Table(t) => t,
                other => {
                    return Err(format!(
                        "{} landed as {:?}, not a table",
                        file.name,
                        other.kind()
                    ))
                }
            };
            drop(call);
            let call = spans::child(&stage, "discovery.upsert");
            let (ti, _) = inc
                .upsert_table(table.clone())
                .map_err(|e| format!("upsert {}: {e}", file.name))?;
            drop(call);
            drop(stage);

            let ta = Instant::now();
            let stage = spans::root(tracer, "stage.commit");
            let call = spans::child(&stage, "house.append");
            tables[source]
                .append(&table)
                .map_err(|e| format!("append {}: {e}", file.name))?;
            drop(call);
            drop(stage);
            times.append.push(ta.elapsed());
            appended_rows[source] += file.rows;
            let city = table
                .columns()
                .get(2)
                .and_then(|c| c.values.first())
                .map(|v| v.to_string());
            let previous = newest.as_ref().map_or(ti, |(n, _)| n[0]);
            newest = city.map(|c| ([ti, previous], c));
        }
        times.land.push(t.elapsed());

        if (i + 1) % QUERY_EVERY == 0 {
            if let Some((recent, city)) = &newest {
                let point = i / QUERY_EVERY;
                let stage = spans::root(tracer, "stage.explore");
                // The device or city column of the newest or previous batch.
                let at = ColumnRef {
                    table: recent[point / 2 % 2],
                    column: 1 + point % 2,
                };
                let tq = Instant::now();
                let call = spans::child(&stage, "discovery.topk.incremental");
                let hits = inc.top_k_overlap(at, K);
                drop(call);
                times.query.push(tq.elapsed());
                answers.overlaps.push((at, hits));
                if point.is_multiple_of(SEARCH_EVERY) {
                    let tq = Instant::now();
                    let call = spans::child(&stage, "query.search");
                    let hits = dl
                        .search(USER, city, K)
                        .map_err(|e| format!("search {city}: {e}"))?;
                    drop(call);
                    times.query.push(tq.elapsed());
                    if hits.is_empty() {
                        answers.search_misses.push(city.clone());
                    }
                }
            }
        }
        laps.mark();
    }
    times.pipeline_s = t0.elapsed().as_secs_f64();
    times.laps = laps.laps;

    let t = Instant::now();
    for (s, table) in tables.iter().enumerate() {
        let reopened = LakeTable::open(&house, &format!("house/src{s}"));
        let report = reopened
            .log()
            .recover()
            .map_err(|e| format!("recover src{s}: {e}"))?;
        if !report.quarantined.is_empty()
            || report.recovered_version != table.log().latest_version()
        {
            answers.errors.push(format!("recover src{s}: {report:?}"));
        }
    }
    times.recovery_s = t.elapsed().as_secs_f64();

    for (s, table) in tables.iter().enumerate() {
        let rows = table
            .log()
            .snapshot()
            .map(|snap| snap.total_rows())
            .map_err(|e| format!("snapshot src{s}: {e}"))?;
        if rows != appended_rows[s] {
            answers.errors.push(format!(
                "lakehouse src{s}: {rows} rows, {} appended",
                appended_rows[s]
            ));
        }
        times.files_in_house += table
            .file_count()
            .map_err(|e| format!("files src{s}: {e}"))?;
    }
    drop(tables);
    Ok((times, inc))
}

/// Check one pass's answers against the pass's final discovery state;
/// returns the number of checks made.
fn check(inc: &IncrementalDiscovery, answers: &Answers, report: &mut Report) -> u64 {
    let mut checks = 0u64;
    let profiles = inc.corpus().profiles();
    // Every reported overlap equals the exact one. Tables are only ever
    // added, so the counts still hold in the final corpus.
    for (at, hits) in &answers.overlaps {
        checks += 1;
        let Some(q) = inc.corpus().profile(*at) else {
            report.fail(format!("query column {at:?} has no profile"));
            continue;
        };
        let wrong: Vec<_> = hits
            .iter()
            .filter(|&&(pi, n)| profiles.get(pi).map(|p| q.overlap(p)) != Some(n))
            .collect();
        if hits.is_empty() || !wrong.is_empty() {
            report.fail(format!(
                "top-{K} overlap of {at:?}: {} hits, wrong counts {wrong:?}",
                hits.len()
            ));
        }
    }
    // The last answer is also the true top-k over the final corpus.
    if let Some((at, hits)) = answers.overlaps.last() {
        checks += 1;
        if let Some(q) = inc.corpus().profile(*at) {
            let qi = inc.corpus().profile_index(*at);
            let mut exact: Vec<usize> = profiles
                .iter()
                .enumerate()
                .filter(|&(pi, _)| Some(pi) != qi)
                .map(|(_, p)| q.overlap(p))
                .filter(|&n| n > 0)
                .collect();
            exact.sort_unstable_by(|a, b| b.cmp(a));
            exact.truncate(K);
            let got: Vec<usize> = hits.iter().map(|&(_, n)| n).collect();
            if got != exact {
                report.fail(format!(
                    "top-{K} overlap of {at:?}: {got:?}, brute force {exact:?}"
                ));
            }
        }
    }
    checks += (answers.search_misses.len() + answers.errors.len()) as u64;
    for term in &answers.search_misses {
        report.fail(format!("search {term:?} found nothing"));
    }
    for e in &answers.errors {
        report.fail(e.clone());
    }
    checks
}

/// The delta-maintained state equals a from-scratch build over the same
/// tables: profiles, LSH candidates and signatures, inverted postings
/// counts, D³L embedding bits.
fn equals_rebuild(inc: &IncrementalDiscovery) -> Result<(), String> {
    let tables: Vec<Table> = inc.corpus().tables().to_vec();
    // Sequential: the state is identical for every worker count, and one
    // thread keeps the check from growing extra allocator arenas.
    let scratch = IncrementalDiscovery::with_parallelism(tables, Parallelism::fixed(1));
    if inc.corpus().profiles() != scratch.corpus().profiles() {
        return Err("profiles".into());
    }
    if inc.lsh().len() != scratch.lsh().len()
        || inc.lsh().candidate_pairs() != scratch.lsh().candidate_pairs()
    {
        return Err("LSH index".into());
    }
    if inc.inverted().num_sets() != scratch.inverted().num_sets()
        || inc.inverted().num_tokens() != scratch.inverted().num_tokens()
    {
        return Err("inverted index".into());
    }
    let bits = |d: &D3l| -> Vec<Vec<u64>> {
        d.embeddings()
            .iter()
            .map(|e| e.iter().map(|f| f.to_bits()).collect())
            .collect()
    };
    if bits(inc.d3l()) != bits(scratch.d3l()) {
        return Err("D3L embeddings".into());
    }
    Ok(())
}

pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    // An untimed warm-up pass over the first few hundred files (allocator
    // growth, first-touch page faults).
    let files = generate(cfg.seed);
    pass(&files[..WARMUP_FILES], None, &mut Answers::default())?;
    report.set(
        "lake.bytes_in",
        Some(files.iter().map(|f| f.bytes.len() as f64).sum()),
    );
    report.set(
        "lake.rows_in",
        Some(files.iter().map(|f| f.rows as f64).sum()),
    );

    // Query points sit inside the landing loop: every stage counts towards
    // the pipeline. The last pass's discovery state is kept for the rebuild
    // comparison, which runs once, after the passes and after the peak
    // memory is read: it holds a second copy of every index.
    // Set-up (generating the files) is timed before every pass, which then
    // lands what it made, for the reason given in `bulk::run`.
    let mut setups = Vec::new();
    let mut last = None;
    let passes = run_passes(cfg, MIN_PASSES, &[], |tracer| {
        last = None;
        let t = Instant::now();
        let files = generate(cfg.seed);
        setups.push(t.elapsed().as_secs_f64());
        let mut answers = Answers::default();
        let (times, inc) = pass(&files, tracer, &mut answers)?;
        report.attempted += check(&inc, &answers, report) + files.len() as u64;
        report.set(
            "discovery.columns",
            Some(inc.corpus().profiles().len() as f64),
        );
        last = Some(inc);
        Ok(times)
    })?;
    report.set_peak_rss();
    let inc = last.ok_or("no pass ran")?;
    report.attempted += 1;
    if let Err(e) = equals_rebuild(&inc) {
        report.fail(format!("incremental discovery differs from a rebuild: {e}"));
    }
    drop(inc);

    // Timings: set-up by its fastest pass; the pipeline and every call
    // by each lap's or call's fastest instance over the passes; tails pool
    // every pass's calls.
    report.per_pass("setup_s", &setups);
    let untraced = &passes.untraced;
    let whole: Vec<f64> = untraced.iter().map(|p| p.pipeline_s).collect();
    let pipeline = report.pipeline_laps("pipeline_s", untraced.iter().map(|p| &p.laps), &whole);
    report.set("throughput_rps", pipeline.map(|p| files.len() as f64 / p));
    report.set(
        "recovery_s",
        median(&untraced.iter().map(|p| p.recovery_s).collect::<Vec<_>>()),
    );
    report.pct_fastest_each("req_p50_ms", untraced.iter().map(|p| &p.ingest), 50);
    report.pct_fastest_each("land_p50_ms", untraced.iter().map(|p| &p.land), 50);
    report.pct_fastest_each("query_p50_ms", untraced.iter().map(|p| &p.query), 50);
    let (mut ingest, mut land, mut query) = (Samples::new(), Samples::new(), Samples::new());
    for p in untraced {
        ingest.extend(&p.ingest);
        land.extend(&p.land);
        query.extend(&p.query);
    }
    report.pct("req_p99_ms", &ingest, 99);
    report.pct("land_p99_ms", &land, 99);
    report.pct("query_p90_ms", &query, 90);

    let measured: Vec<&PassTimes> = match cfg.trace {
        true => passes.traced.iter().map(|(p, _)| p).collect(),
        false => untraced.iter().collect(),
    };
    let per_pass = |f: fn(&PassTimes) -> Option<f64>| {
        median(&measured.iter().filter_map(|p| f(p)).collect::<Vec<_>>())
    };
    report.set("lake.ingest_file.growth", per_pass(|p| growth(&p.ingest)));
    report.set("house.append.growth", per_pass(|p| growth(&p.append)));
    report.set("house.files", per_pass(|p| Some(p.files_in_house as f64)));
    report.traced_passes(passes, |p| p.pipeline_s);
    Ok(())
}
