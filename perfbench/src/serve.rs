//! `serve_durable`: an in-process, journaled `LakeServer` driven over
//! TCP by closed-loop clients with a write-heavy mix.
//!
//! Each client owns its key space (per tenant), so it knows the last body
//! the server acknowledged for every key it wrote and checks each `get`
//! against that model. Bodies are rebuilt from `(client, sequence number)`,
//! so the model stores one integer per key.

use crate::spans::{self, Trace};
use crate::stats::{fastest, median, Samples};
use crate::{Report, RunConfig, TempDir};
use lake_core::retry::SystemClock;
use lake_core::Json;
use lake_obs::{MetricsRegistry, Span, Tracer};
use lake_server::protocol::{self, DEFAULT_MAX_FRAME_BYTES};
use lake_server::{
    ErrorCode, LakeServer, Request, Response, ServerConfig, ServerHandle, Verb, WalConfig,
};
use lake_store::polystore::Polystore;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients: each waits for a reply before sending again.
const CLIENTS: usize = 2;
const TENANTS: usize = 4;
/// Operations generated per client; the loop cycles through them.
const PLAN_LEN: usize = 4096;
const WARMUP_OPS: usize = 200;
const SETUP_REPS: usize = 7;
/// Completed requests per batch timed for `pipeline_s`.
const BATCH: usize = 500;
/// Journal frames left for the timed restarts to replay.
const REPLAY_FRAMES: u64 = 256;
const DURABLE_RESTARTS: usize = 9;
/// Traced and untraced slices alternate at this period in a traced run.
const SLICE: Duration = Duration::from_millis(250);
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Put bodies are this long.
const BODY_LEN: usize = 4096;
/// Keys each client writes per tenant.
const KEYS_PER_TENANT: usize = 64;

/// Write-heavy: ~80% puts of 4 KiB, 10% dels, 10% gets.
fn draw(rng: &mut StdRng) -> Op {
    let t = rng.random_range(0..TENANTS);
    let k = rng.random_range(0..KEYS_PER_TENANT);
    match rng.random_range(0..100u32) {
        0..=79 => Op::Put(t, k),
        80..=89 => Op::Del(t, k),
        _ => Op::Get(t, k),
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Put(usize, usize),
    Get(usize, usize),
    Del(usize, usize),
}

impl Op {
    fn is_write(self) -> bool {
        matches!(self, Op::Put(..) | Op::Del(..))
    }
}

/// Everything set-up produces: the per-client plans and body filler.
struct Inputs {
    plans: Vec<Vec<Op>>,
    filler: Arc<String>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let filler: String = (0..BODY_LEN)
        .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
        .collect();
    let plans = (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9 * (c as u64 + 1)));
            (0..PLAN_LEN).map(|_| draw(&mut rng)).collect()
        })
        .collect();
    Inputs {
        plans,
        filler: Arc::new(filler),
    }
}

fn tenant(t: usize) -> String {
    format!("t{t}")
}

fn key(client: usize, k: usize) -> String {
    format!("c{client}k{k}")
}

/// The body of a client's `seq`-th put: unique prefix, shared filler.
fn body(client: usize, seq: u64, filler: &str) -> String {
    let mut b = format!("c{client}s{seq:010}-");
    let room = filler.len().saturating_sub(b.len());
    b.push_str(&filler[..room]);
    b
}

/// A client's view of what the server acknowledged.
struct Model {
    client: usize,
    /// Sequence number of the last acknowledged put per key; `None` when
    /// never written or deleted.
    last: Vec<Option<u64>>,
    next_seq: u64,
}

impl Model {
    fn new(client: usize) -> Model {
        Model {
            client,
            last: vec![None; TENANTS * KEYS_PER_TENANT],
            next_seq: 0,
        }
    }

    fn slot(&mut self, t: usize, k: usize) -> &mut Option<u64> {
        &mut self.last[t * KEYS_PER_TENANT + k]
    }

    fn acked(&self, t: usize, k: usize) -> Option<u64> {
        self.last[t * KEYS_PER_TENANT + k]
    }

    /// Check a `get` reply against the model.
    fn check_get(&self, t: usize, k: usize, resp: &Response, filler: &str) -> Result<(), String> {
        let client = self.client;
        match self.acked(t, k) {
            Some(seq) => {
                let want = body(client, seq, filler);
                let got = resp.body.get("body").and_then(Json::as_str);
                if resp.code == ErrorCode::Ok && got == Some(want.as_str()) {
                    Ok(())
                } else {
                    Err(format!(
                        "get t{t}/{}: wanted put #{seq}, got {:?}",
                        key(client, k),
                        resp.code
                    ))
                }
            }
            None if resp.code == ErrorCode::NotFound => Ok(()),
            None => Err(format!(
                "get t{t}/{}: wanted not_found, got {:?}",
                key(client, k),
                resp.code
            )),
        }
    }
}

fn request_for(op: Op, model: &mut Model, filler: &str) -> (Request, Option<u64>) {
    let client = model.client;
    match op {
        Op::Put(t, k) => {
            let seq = model.next_seq;
            model.next_seq += 1;
            let req = Request::new(&tenant(t), Verb::Put)
                .with_name(&key(client, k))
                .with_kind("text")
                .with_body(Json::str(body(client, seq, filler)));
            (req, Some(seq))
        }
        Op::Get(t, k) => (
            Request::new(&tenant(t), Verb::Get).with_name(&key(client, k)),
            None,
        ),
        Op::Del(t, k) => (
            Request::new(&tenant(t), Verb::Del).with_name(&key(client, k)),
            None,
        ),
    }
}

/// Apply a reply to the model and check it; `Err` is a wrong answer.
fn settle(
    op: Op,
    seq: Option<u64>,
    resp: &Response,
    model: &mut Model,
    filler: &str,
) -> Result<(), String> {
    let client = model.client;
    match op {
        Op::Put(t, k) => {
            if resp.code != ErrorCode::Ok {
                return Err(format!(
                    "put t{t}/{}: {:?} {}",
                    key(client, k),
                    resp.code,
                    resp.error
                ));
            }
            *model.slot(t, k) = seq;
            Ok(())
        }
        Op::Get(t, k) => model.check_get(t, k, resp, filler),
        Op::Del(t, k) => {
            let live = model.acked(t, k).is_some();
            match (live, resp.code) {
                (true, ErrorCode::Ok) | (false, ErrorCode::NotFound) => {
                    *model.slot(t, k) = None;
                    Ok(())
                }
                (_, c) => Err(format!(
                    "del t{t}/{} (live={live}): got {c:?}",
                    key(client, k)
                )),
            }
        }
    }
}

/// One request over a fresh connection (the server serves one request
/// per connection), with a span per protocol phase when traced.
fn exchange(addr: &SocketAddr, req: &Request, parent: &Option<Span>) -> Result<Response, String> {
    let phase = spans::child(parent, "protocol.connect");
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    reset_on_close(&stream).map_err(|e| format!("SO_LINGER: {e}"))?;
    drop(phase);
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("timeouts: {e}"))?;
    let phase = spans::child(parent, "protocol.send");
    protocol::write_json(&mut stream, &req.to_json()).map_err(|e| format!("send: {e}"))?;
    drop(phase);
    let phase = spans::child(parent, "server.wait");
    let frame = protocol::read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "server closed before replying".to_string())?;
    drop(phase);
    let _phase = spans::child(parent, "protocol.decode");
    let text = std::str::from_utf8(&frame).map_err(|_| "reply is not UTF-8".to_string())?;
    let json = lake_formats::json::parse(text).map_err(|e| format!("decode: {e}"))?;
    Response::from_json(&json).map_err(|e| format!("decode: {e}"))
}

/// Make dropping `stream` send an RST instead of a FIN (`SO_LINGER` with
/// a zero timeout), so the connection leaves no TIME_WAIT socket behind.
/// The server serves one request per connection: at ~2000 requests a
/// second a run would otherwise leave tens of thousands of loopback
/// sockets in TIME_WAIT for a minute, and the next run's connects would
/// pay for the kernel's port search among them, so results would depend
/// on what ran before. The client closes only after reading the whole
/// reply, so the reset never cuts an answer short.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn reset_on_close(stream: &TcpStream) -> std::io::Result<()> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: c_int,
        l_linger: c_int,
    }
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    // <asm-generic/socket.h>, shared by x86_64 and aarch64.
    const SOL_SOCKET: c_int = 1;
    const SO_LINGER: c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which outlives the call;
    // `value` points at a live `struct linger` (two C ints, `repr(C)`) and
    // `len` is its exact size, which is all setsockopt(2) reads.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            std::ptr::addr_of!(linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn reset_on_close(_stream: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

/// One finished request.
struct Done {
    write: bool,
    rtt: Duration,
    /// Completion time since the window opened, µs.
    at_us: u64,
    traced: bool,
}

struct ClientLog {
    done: Vec<Done>,
    failed: u64,
    problems: Vec<String>,
    model: Model,
}

struct Shared {
    stop: AtomicBool,
    tracing: AtomicBool,
    writes: AtomicU64,
    reads: AtomicU64,
}

fn client_loop(
    client: usize,
    addr: SocketAddr,
    inputs: &Inputs,
    shared: &Shared,
    tracer: Option<&Tracer>,
    opened: Instant,
) -> ClientLog {
    let plan = &inputs.plans[client];
    let filler = inputs.filler.as_str();
    let mut log = ClientLog {
        done: Vec::new(),
        failed: 0,
        problems: Vec::new(),
        model: Model::new(client),
    };
    let mut i = 0usize;
    while !shared.stop.load(Ordering::Acquire) {
        let op = plan[i % plan.len()];
        i += 1;
        let (req, seq) = request_for(op, &mut log.model, filler);
        let traced = tracer.is_some() && shared.tracing.load(Ordering::Acquire);
        let started = Instant::now();
        let span = if traced {
            spans::root(tracer, "request")
        } else {
            None
        };
        let reply = exchange(&addr, &req, &span);
        drop(span);
        let rtt = started.elapsed();
        let at_us = u64::try_from(opened.elapsed().as_micros()).unwrap_or(u64::MAX);
        let outcome = reply.and_then(|resp| settle(op, seq, &resp, &mut log.model, filler));
        if let Err(problem) = outcome {
            log.failed += 1;
            if log.problems.len() < 5 {
                log.problems.push(format!("client {client}: {problem}"));
            }
        }
        let counter = if op.is_write() {
            &shared.writes
        } else {
            &shared.reads
        };
        counter.fetch_add(1, Ordering::Relaxed);
        log.done.push(Done {
            write: op.is_write(),
            rtt,
            at_us,
            traced,
        });
    }
    log
}

/// `ServerConfig::default()` (127.0.0.1:0), journaled into `wal_dir`.
fn start(wal_dir: &TempDir, registry: &Arc<MetricsRegistry>) -> Result<ServerHandle, String> {
    let cfg = ServerConfig {
        wal: Some(WalConfig::new(
            wal_dir.path().to_string_lossy().into_owned(),
        )),
        ..ServerConfig::default()
    };
    LakeServer::start(
        cfg,
        Arc::new(Polystore::new()),
        Arc::clone(registry),
        Arc::new(SystemClock),
    )
    .map_err(|e| format!("server start: {e}"))
}

fn addr_of(handle: &ServerHandle) -> Result<SocketAddr, String> {
    handle
        .addr()
        .parse()
        .map_err(|e| format!("server address: {e}"))
}

/// Warm the accept path, allocator and tenant tables on a tenant the
/// measured clients never touch.
fn warm_up(addr: &SocketAddr, filler: &str) -> Result<(), String> {
    for i in 0..WARMUP_OPS {
        let name = format!("w{}", (i / 2) % 16);
        let req = if i % 2 == 0 {
            Request::new("warm", Verb::Put)
                .with_name(&name)
                .with_kind("text")
                .with_body(Json::str(body(9, i as u64, filler)))
        } else {
            Request::new("warm", Verb::Get).with_name(&name)
        };
        let resp = exchange(addr, &req, &None)?;
        if !resp.is_ok() {
            return Err(format!("warm-up {:?}: {:?}", req.verb, resp.code));
        }
    }
    Ok(())
}

fn join(handle: ServerHandle, report: &mut Report) {
    match handle.join() {
        Ok(d) if d.drained && d.admission.is_conserved() && d.worker_panics == 0 => {}
        Ok(d) => report.fail(format!("unclean drain: {d:?}")),
        Err(e) => report.fail(format!("drain: {e}")),
    }
}

fn counter(registry: &MetricsRegistry, name: &str) -> f64 {
    registry.snapshot().counter_value(name) as f64
}

fn tenant_counter(registry: &MetricsRegistry, name: &str) -> f64 {
    let snap = registry.snapshot();
    (0..TENANTS)
        .map(|t| snap.counter_value_with(name, &[("tenant", &tenant(t))]) as f64)
        .sum()
}

/// Server-side counters the per-layer metrics report as window deltas.
const COUNTERS: [(&str, &str); 5] = [
    ("server.connections", "lake_server_connections_total"),
    ("server.shed", "lake_server_shed_total"),
    ("wal.appended", "lake_server_wal_appended_total"),
    ("wal.fsync_batches", "lake_server_wal_fsync_batches_total"),
    ("wal.rotations", "lake_server_wal_rotations_total"),
];

pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    // Set-up, repeated: generate inputs, start, warm up. The last one is
    // measured against.
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let inputs = generate(cfg.seed);
        let wal_dir = cfg.temp_dir(&format!("wal{rep}"))?;
        let registry = Arc::new(MetricsRegistry::new());
        let handle = start(&wal_dir, &registry)?;
        let addr = addr_of(&handle)?;
        warm_up(&addr, &inputs.filler)?;
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            join(handle, report);
        } else {
            kept = Some((inputs, wal_dir, registry, handle, addr));
        }
    }
    report.set("setup_s", median(&setups));
    let (inputs, wal_dir, registry, handle, addr) = kept.ok_or("no set-up ran")?;

    let before: Vec<f64> = COUNTERS
        .iter()
        .map(|(_, c)| counter(&registry, c))
        .collect();
    let (quota0, breaker0) = (
        tenant_counter(&registry, "lake_server_quota_rejected_total"),
        tenant_counter(&registry, "lake_server_breaker_rejected_total"),
    );

    let mut trace = cfg.trace.then(Trace::new);
    let shared = Shared {
        stop: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
        writes: AtomicU64::new(0),
        reads: AtomicU64::new(0),
    };
    let opened = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let tracer = trace.as_ref().map(Trace::tracer);
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (inputs, shared) = (&inputs, &shared);
                scope.spawn(move || client_loop(c, addr, inputs, shared, tracer, opened))
            })
            .collect();
        coordinate(cfg, &shared, opened);
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = opened.elapsed().as_secs_f64();
    // Peak memory of serving the traffic; the drain, restarts and
    // read-back that follow are checks of the journal, not traffic.
    report.set_peak_rss();

    for (name, c) in COUNTERS
        .iter()
        .zip(&before)
        .map(|((n, c), b)| (n, counter(&registry, c) - b))
    {
        report.set(name, Some(c));
    }
    let (appended, batches) = (report.get("wal.appended"), report.get("wal.fsync_batches"));
    report.set(
        "wal.frames_per_fsync",
        (batches > 0.0).then(|| appended / batches),
    );
    report.set(
        "tenant.quota_rejected",
        Some(tenant_counter(&registry, "lake_server_quota_rejected_total") - quota0),
    );
    report.set(
        "tenant.breaker_rejected",
        Some(tenant_counter(&registry, "lake_server_breaker_rejected_total") - breaker0),
    );

    let mut done: Vec<Done> = Vec::new();
    let mut models = Vec::new();
    for log in logs {
        report.attempted += log.done.len() as u64;
        report.failed += log.failed;
        report.problems.extend(log.problems);
        done.extend(log.done);
        models.push(log.model);
    }
    // Percentile windows follow completion order across both clients.
    done.sort_by_key(|d| d.at_us);
    let (mut all, mut writes, mut reads) = (Samples::new(), Samples::new(), Samples::new());
    let mut traced_rtt = Samples::new();
    for d in &done {
        if d.traced {
            traced_rtt.push(d.rtt);
            continue;
        }
        all.push(d.rtt);
        if d.write {
            writes.push(d.rtt)
        } else {
            reads.push(d.rtt)
        }
    }
    let finished: Vec<u64> = done.iter().map(|d| d.at_us).collect();
    let batches: Vec<f64> = finished
        .chunks_exact(BATCH)
        .scan(0u64, |prev, chunk| {
            let end = *chunk.last()?;
            let took = end - *prev;
            *prev = end;
            Some(took as f64 / 1e6)
        })
        .collect();
    report.set("pipeline_s", fastest(&batches));
    report.set("pipeline_s.batch_median", median(&batches));
    report.set("throughput_rps", Some(all.len() as f64 / window_s));
    report.pct("req_p50_ms", &all, 50);
    report.pct("req_p99_ms", &all, 99);
    report.pct("land_p50_ms", &writes, 50);
    report.pct("land_p99_ms", &writes, 99);
    report.pct("query_p50_ms", &reads, 50);
    report.pct("query_p90_ms", &reads, 90);

    if let Some(mut trace) = trace.take() {
        trace.drain(0)?;
        let overhead = match (traced_rtt.mean_ms(), all.mean_ms()) {
            (Some(t), Some(u)) if u > 0.0 => Some(100.0 * (t - u) / u),
            _ => None,
        };
        report.set("trace.overhead_pct", overhead);
        report.set("trace.spans", Some(trace.records().count() as f64));
        report.set("trace.dropped_spans", Some(trace.dropped() as f64));
        let agg = spans::aggregate(trace.records());
        for (span, metric) in [
            ("protocol.connect", "protocol.connect_ms.p50"),
            ("protocol.send", "protocol.send_ms.p50"),
            ("protocol.decode", "protocol.decode_ms.p50"),
            ("server.wait", "server.wait_ms.p50"),
        ] {
            if let Some(s) = agg.get(span) {
                report.pct(metric, &s.durations, 50);
            }
        }
        if let Some(s) = agg.get("server.wait") {
            report.pct("server.wait_ms.p99", &s.durations, 99);
        }
        report.spans = Some(trace);
    }

    top_up(&addr, &registry, &mut models[0], &inputs.filler, report)?;
    join(handle, report);
    restart_and_read_back(&wal_dir, &models, &inputs.filler, report)?;
    Ok(())
}

/// Open the window, flip tracing slices in a traced run, and stop the
/// clients once the time is up and every reported percentile has the
/// samples it needs (bounded at four times the requested time).
fn coordinate(cfg: &RunConfig, shared: &Shared, opened: Instant) {
    let need_writes = Samples::needed_for(99) as u64;
    let need_reads = Samples::needed_for(90) as u64;
    let hard_stop = cfg.seconds * 4.0;
    loop {
        std::thread::sleep(SLICE);
        if cfg.trace {
            shared.tracing.fetch_xor(true, Ordering::AcqRel);
        }
        let elapsed = opened.elapsed().as_secs_f64();
        let enough = shared.writes.load(Ordering::Relaxed) >= need_writes
            && shared.reads.load(Ordering::Relaxed) >= need_reads;
        if elapsed >= hard_stop || (elapsed >= cfg.seconds && enough) {
            shared.stop.store(true, Ordering::Release);
            return;
        }
    }
}

/// Bring the journal to a fixed state before the timed restarts: write
/// until the server rotates, then exactly [`REPLAY_FRAMES`] more, so every
/// run's restart replays the same number of frames over a snapshot of the
/// same key space.
fn top_up(
    addr: &SocketAddr,
    registry: &MetricsRegistry,
    model: &mut Model,
    filler: &str,
    report: &mut Report,
) -> Result<(), String> {
    let rotations = counter(registry, "lake_server_wal_rotations_total");
    let mut extra = None;
    let mut k = 0usize;
    while extra != Some(0) {
        let op = Op::Put(k % TENANTS, (k / TENANTS) % KEYS_PER_TENANT);
        k += 1;
        let (req, seq) = request_for(op, model, filler);
        report.attempted += 1;
        let outcome = exchange(addr, &req, &None).and_then(|r| settle(op, seq, &r, model, filler));
        if let Err(e) = outcome {
            report.fail(format!("top-up: {e}"));
        }
        extra = match extra {
            None if counter(registry, "lake_server_wal_rotations_total") > rotations => {
                Some(REPLAY_FRAMES)
            }
            None => None,
            Some(n) => Some(n - 1),
        };
        if k > 1 << 16 {
            return Err("journal never rotated during top-up".into());
        }
    }
    Ok(())
}

/// Restart on the journal dir several times (timing `LakeServer::start`
/// until it returns), then read every key back from the last instance.
fn restart_and_read_back(
    dir: &TempDir,
    models: &[Model],
    filler: &str,
    report: &mut Report,
) -> Result<(), String> {
    let mut restarts = Vec::new();
    for i in 0..DURABLE_RESTARTS {
        let registry = Arc::new(MetricsRegistry::new());
        let t = Instant::now();
        let h = start(dir, &registry)?;
        restarts.push(t.elapsed().as_secs_f64());
        let replayed = h.recovery_report().map(|r| r.replayed as f64);
        report.set("wal.recovery_replayed", replayed);
        if i + 1 < DURABLE_RESTARTS {
            join(h, report);
            continue;
        }
        let addr = addr_of(&h)?;
        for model in models {
            for t in 0..TENANTS {
                for k in 0..KEYS_PER_TENANT {
                    report.attempted += 1;
                    let req = Request::new(&tenant(t), Verb::Get).with_name(&key(model.client, k));
                    let outcome = exchange(&addr, &req, &None)
                        .and_then(|resp| model.check_get(t, k, &resp, filler));
                    if let Err(e) = outcome {
                        report.fail(format!("after restart: {e}"));
                    }
                }
            }
        }
        join(h, report);
    }
    report.set("recovery_s", median(&restarts));
    Ok(())
}
