//! `serve-mixed`: an in-process `Server` on loopback (`workers` = nproc,
//! one engine thread per request, an in-memory row cache over a scratch
//! disk row cache, a warm context) driven by nproc closed-loop clients.
//!
//! The clients POST fig4-family specs (mode `both`, 3-σ subsets of the
//! paper grid, 32 iterations) from a seeded stream: two thirds repeat an
//! earlier body exactly (a full row-cache replay), the rest are new
//! subsets overlapping earlier ones (partial hits plus delta compute).
//!
//! One operation is a session: a fresh server and fresh row caches, then
//! the whole stream. Set-up is bind + `/healthz` + one warm-up request;
//! the report phase runs until every stream is assembled. Latency is per
//! request, connect to close. Every stream is assembled with
//! `assemble_report` and must render byte-identically to the batch
//! report for the same spec.

use crate::util::{median, secs, timed, Rendered, SplitMix};
use crate::{engine_config, EndToEnd, Options, Outcome, Scale, Tally};
use spnn_core::KernelProfile;
use spnn_engine::{
    assemble_report, CancelToken, ContextCache, EngineConfig, RowCache, ScenarioSpec, ServeConfig,
    Server,
};
use spnn_photonics::PerturbTarget;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// σ indices (into the paper grid) of one request, ascending.
pub type Subset = [usize; 3];

/// How much of a request's work earlier completed requests had done when
/// it was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The identical body completed before: a full row-cache replay.
    Full,
    /// Some of its σ rows completed before.
    Partial,
    /// None of its rows existed.
    Novel,
}

/// Requests per session.
fn session_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 48,
        Scale::Smoke => 6,
    }
}

/// The fig4-family base spec every request varies.
pub(crate) fn base_spec(scale: Scale) -> ScenarioSpec {
    let mut spec = crate::campaign_specs(scale).swap_remove(0);
    spec.name = "fig4_mixed".to_string();
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.iterations = match scale {
        Scale::Full => 32,
        Scale::Smoke => 4,
    };
    spec.min_iterations = spec.min_iterations.min(spec.iterations);
    spec
}

/// The spec text of the request for `sigmas`.
pub(crate) fn body(base: &ScenarioSpec, sigmas: &[f64]) -> String {
    let mut spec = base.clone();
    spec.sweep.sigmas = sigmas.to_vec();
    spec.to_text()
}

/// Share of a session's requests that repeat an earlier body. Above ½,
/// so the median request is a replay and the 90th percentile a compute
/// request: each percentile then sits inside one request kind instead of
/// on the boundary between the two. The count is exact per session, so
/// every seed offers the same mix of work.
pub const REPEAT_SHARE: f64 = 2.0 / 3.0;

/// The seeded request stream: `n` subsets of the `grid`-point σ grid.
/// Exactly `n − round(n·REPEAT_SHARE)` requests (the first among them)
/// are subsets not sent before that share a σ with the earlier ones; the
/// others repeat a uniformly chosen earlier body. Fresh requests fall in
/// the first two thirds of the stream, so a session ends on replays and
/// its wall time does not hinge on where the last compute request lands.
/// The seed picks the positions, the subsets and the repeats.
pub fn request_stream(seed: u64, n: usize, grid: usize) -> Vec<Subset> {
    let mut rng = SplitMix::new(seed ^ 0x5e55_1011);
    let fresh_count = n - (n as f64 * REPEAT_SHARE).round() as usize;
    let head = (2 * n).div_ceil(3).max(fresh_count);
    let mut fresh_at: Vec<bool> = (1..head).map(|i| i < fresh_count).collect();
    rng.shuffle(&mut fresh_at);
    fresh_at.insert(0, true);
    fresh_at.resize(n, false);
    let mut out: Vec<Subset> = Vec::with_capacity(n);
    for fresh in fresh_at {
        if !fresh {
            out.push(out[rng.below(out.len())]);
            continue;
        }
        let seen: HashSet<usize> = out.iter().flatten().copied().collect();
        let novel = (0..256).find_map(|_| {
            let mut idx: Vec<usize> = (0..grid).collect();
            rng.shuffle(&mut idx);
            let mut s = [idx[0], idx[1], idx[2]];
            s.sort_unstable();
            let unsent = !out.contains(&s);
            let overlaps = out.is_empty() || s.iter().any(|i| seen.contains(i));
            (unsent && overlaps).then_some(s)
        });
        out.push(novel.unwrap_or_else(|| out[rng.below(out.len())]));
    }
    out
}

// ---------------------------------------------------------------------------
// A minimal HTTP/1.1 client that notes when the first row arrives
// ---------------------------------------------------------------------------

/// One completed exchange.
#[derive(Debug)]
pub(crate) struct Reply {
    /// Response status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Connect to close, ms.
    pub latency_ms: f64,
    /// Connect to the first NDJSON `row` line, ms.
    pub first_row_ms: Option<f64>,
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut first_row_ms = None;
    const ROW: &[u8] = b"{\"event\": \"row\"";
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        let from = raw.len().saturating_sub(ROW.len());
        raw.extend_from_slice(&chunk[..n]);
        if first_row_ms.is_none() && raw[from..].windows(ROW.len()).any(|w| w == ROW) {
            first_row_ms = Some(secs(start) * 1e3);
        }
    }
    let latency_ms = secs(start) * 1e3;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
        latency_ms,
        first_row_ms,
    })
}

/// Sum of every sample of Prometheus metric `name` (all label sets) in
/// the text exposition `text`.
pub(crate) fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            (key.split('{').next()? == name).then(|| value.parse::<f64>().ok())?
        })
        .fold(0.0, |a, b| a + b)
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// A running server with its own row-cache directory.
struct Running {
    addr: SocketAddr,
    cancel: CancelToken,
    handle: std::thread::JoinHandle<io::Result<()>>,
    rows_dir: PathBuf,
}

impl Running {
    fn start(ctx_dir: &Path, rows_dir: PathBuf, warm_body: &str) -> io::Result<Self> {
        let _ = std::fs::remove_dir_all(&rows_dir);
        let config = ServeConfig {
            workers: crate::nproc(),
            engine: EngineConfig {
                cache_dir: Some(ctx_dir.to_path_buf()),
                row_cache: Some(Arc::new(RowCache::on_disk(rows_dir.clone()))),
                ..engine_config(Some(1), KernelProfile::Reference)
            },
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config)?;
        let addr = server.local_addr()?;
        let cancel = server.cancel_token();
        let handle = std::thread::spawn(move || server.run());
        let running = Running {
            addr,
            cancel,
            handle,
            rows_dir,
        };
        let ready = running.get("/healthz").and_then(|health| {
            let warm = exchange(addr, "POST", "/run", warm_body)?;
            Ok((health.status, warm.status))
        });
        match ready {
            Ok((200, 200)) => Ok(running),
            other => {
                running.stop();
                Err(io::Error::other(format!("server not ready: {other:?}")))
            }
        }
    }

    fn get(&self, path: &str) -> io::Result<Reply> {
        exchange(self.addr, "GET", path, "")
    }

    fn stop(self) {
        self.cancel.cancel();
        let _ = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.rows_dir);
    }
}

/// One request's outcome.
#[derive(Debug)]
struct Sent {
    subset: Subset,
    kind: Kind,
    result: Result<Reply, String>,
    assembled: Option<Rendered>,
    assemble_s: f64,
}

/// Sends `stream` through `clients` closed-loop connections.
fn drive(
    addr: SocketAddr,
    stream: &[Subset],
    bodies: &HashMap<Subset, String>,
    clients: usize,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    // Completed bodies and σ rows, for the send-time classification.
    let done: Mutex<(HashSet<Subset>, HashSet<usize>)> = Mutex::default();
    let sent: Mutex<Vec<(usize, Sent)>> = Mutex::default();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&subset) = stream.get(i) else { break };
                let kind = {
                    let d = done.lock().expect("client thread panicked");
                    if d.0.contains(&subset) {
                        Kind::Full
                    } else if subset.iter().any(|s| d.1.contains(s)) {
                        Kind::Partial
                    } else {
                        Kind::Novel
                    }
                };
                let result =
                    exchange(addr, "POST", "/run", &bodies[&subset]).map_err(|e| e.to_string());
                let (assembled, assemble_s) = match &result {
                    Ok(r) if r.status == 200 => {
                        let (a, s) = timed(|| assemble_report(&r.body));
                        (a.ok().map(|report| Rendered::of(&report)), s)
                    }
                    _ => (None, 0.0),
                };
                if assembled.is_some() {
                    let mut d = done.lock().expect("client thread panicked");
                    d.0.insert(subset);
                    d.1.extend(subset);
                }
                sent.lock().expect("client thread panicked").push((
                    i,
                    Sent {
                        subset,
                        kind,
                        result,
                        assembled,
                        assemble_s,
                    },
                ));
            });
        }
    });
    let mut sent = sent.into_inner().expect("client thread panicked");
    sent.sort_by_key(|(i, _)| *i);
    sent.into_iter().map(|(_, s)| s).collect()
}

/// The request stream, its bodies, and the spec of each distinct body.
struct Plan {
    stream: Vec<Subset>,
    bodies: HashMap<Subset, String>,
    warm_body: String,
    distinct: Vec<(Subset, ScenarioSpec)>,
}

impl Plan {
    fn new(opts: &Options, n: usize) -> Self {
        let base = base_spec(opts.scale);
        let grid = base.sweep.sigmas.clone();
        let stream = request_stream(opts.seed, n, grid.len());
        let mut distinct: Vec<(Subset, ScenarioSpec)> = Vec::new();
        let mut bodies = HashMap::new();
        for s in &stream {
            if !bodies.contains_key(s) {
                let sigmas: Vec<f64> = s.iter().map(|&i| grid[i]).collect();
                let text = body(&base, &sigmas);
                distinct.push((
                    *s,
                    ScenarioSpec::parse(&text).expect("generated spec parses"),
                ));
                bodies.insert(*s, text);
            }
        }
        // The warm-up row (σ = 0.2) lies off the paper grid, so it never
        // pre-caches a row of the stream.
        let warm_body = body(&base, &[0.2]);
        Plan {
            stream,
            bodies,
            warm_body,
            distinct,
        }
    }

    fn specs(&self) -> Vec<ScenarioSpec> {
        self.distinct.iter().map(|(_, s)| s.clone()).collect()
    }
}

/// Checks every sent request: 200, assembled, and byte-identical to the
/// batch report of its spec (`refs`, in `plan.distinct` order).
fn verify(plan: &Plan, refs: &[(String, Rendered)], sent: &[Sent], tally: &mut Tally) {
    let by_subset: HashMap<Subset, &Rendered> = plan
        .distinct
        .iter()
        .map(|(s, _)| *s)
        .zip(refs.iter().map(|(_, r)| r))
        .collect();
    for s in sent {
        match (&s.result, &s.assembled) {
            (Ok(_), Some(got)) => tally.check(
                &format!("served stream {:?} equals the batch report", s.subset),
                &got.digest(),
                &by_subset[&s.subset].digest(),
            ),
            (Ok(r), None) if r.status == 429 => {
                tally.fail(format!("request {:?} shed (429)", s.subset))
            }
            (Ok(r), None) => tally.fail(format!(
                "request {:?}: status {} or unassemblable stream",
                s.subset, r.status
            )),
            (Err(e), _) => tally.fail(format!("request {:?}: {e}", s.subset)),
        }
    }
}

fn share(sent: &[Sent], kind: Kind) -> f64 {
    sent.iter().filter(|s| s.kind == kind).count() as f64 / sent.len().max(1) as f64
}

fn mix_line(sent: &[Sent]) -> String {
    format!(
        "serve-mixed stream: n={} full={:.3} partial={:.3} novel={:.3}",
        sent.len(),
        share(sent, Kind::Full),
        share(sent, Kind::Partial),
        share(sent, Kind::Novel)
    )
}

/// Runs the timed phase (`--trace 0`): sessions until `seconds` have
/// passed and, at full scale, at least 100 requests were sent.
pub fn run(opts: &Options, ctx_dir: &Path, out: &mut Outcome) {
    let plan = Plan::new(opts, session_len(opts.scale));
    let min_requests = if opts.scale == Scale::Full { 100 } else { 1 };
    let mut e2e = EndToEnd::default();
    let mut all: Vec<Sent> = Vec::new();
    let start = Instant::now();
    let mut session = 0;
    while session == 0 || secs(start) < opts.seconds || all.len() < min_requests {
        let setup = Instant::now();
        let running = match Running::start(
            ctx_dir,
            opts.scratch.join(format!("rows-{session}")),
            &plan.warm_body,
        ) {
            Ok(r) => r,
            Err(e) => {
                out.tally.fail(format!("session {session}: {e}"));
                break;
            }
        };
        e2e.setup_s.push(secs(setup));
        let (sent, wall) =
            timed(|| drive(running.addr, &plan.stream, &plan.bodies, crate::nproc()));
        running.stop();
        e2e.report_s.push(wall);
        all.extend(sent);
        session += 1;
    }
    let refs = crate::untraced_run(
        &plan.specs(),
        &ContextCache::on_disk(ctx_dir),
        None,
        KernelProfile::Reference,
    )
    .0;
    verify(&plan, &refs, &all, &mut out.tally);
    for s in &all {
        if let Ok(r) = &s.result {
            e2e.units += usize::from(r.status == 200);
            e2e.latency_ms.push(r.latency_ms);
            e2e.first_row_ms.extend(r.first_row_ms);
        }
    }
    out.info.push(format!(
        "{}; {session} session(s); percentiles over n={} latencies, {} first rows",
        mix_line(&all),
        e2e.latency_ms.len(),
        e2e.first_row_ms.len()
    ));
    out.info.push(e2e.per_op());
    out.metrics = e2e.metrics(&out.tally);
}

/// The serve layers from one traced session: row cache, admission,
/// dedup, latency split by request kind, assembly, and the request mix.
/// With `pipeline`, the batch references come from both the decomposed
/// pipeline and the batch driver (the serve workload's own traced run);
/// otherwise from the batch driver alone (a probe inside another
/// workload's traced run, with a shorter stream).
pub fn session_metrics(opts: &Options, ctx_dir: &Path, pipeline: bool, out: &mut Outcome) {
    let n = if pipeline {
        session_len(opts.scale)
    } else {
        session_len(opts.scale) / 2
    };
    let plan = Plan::new(opts, n);
    let running = match Running::start(ctx_dir, opts.scratch.join("rows-traced"), &plan.warm_body) {
        Ok(r) => r,
        Err(e) => {
            out.tally.fail(format!("traced session: {e}"));
            return;
        }
    };
    let sent = drive(running.addr, &plan.stream, &plan.bodies, crate::nproc());
    let healthz_ms: Vec<f64> = (0..20)
        .filter_map(|_| running.get("/healthz").ok().map(|r| r.latency_ms))
        .collect();
    let text = running.get("/metrics").map(|r| r.body).unwrap_or_default();
    running.stop();

    let specs = plan.specs();
    let warm = || ContextCache::on_disk(ctx_dir);
    let kernel = KernelProfile::Reference;
    let references = if pipeline {
        crate::pipeline_metrics(&specs, warm, None, kernel, &mut out.tally, &mut out.metrics)
    } else {
        crate::untraced_run(&specs, &warm(), None, kernel).0
    };
    verify(&plan, &references, &sent, &mut out.tally);

    let m = &mut out.metrics;
    let hits = scrape(&text, "spnn_rowcache_hits_total");
    let misses = scrape(&text, "spnn_rowcache_misses_total");
    m.put(
        "rowcache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put(
        "rowcache.bytes_written",
        scrape(&text, "spnn_rowcache_bytes_written_total"),
        "bytes",
    );
    m.put(
        "rowcache.replay_ms",
        replay_ms(&specs[0], &warm()) * 1e3,
        "ms",
    );
    m.put("http.healthz_ms.p50", median(&healthz_ms), "ms");
    let latency = |kind: Option<Kind>| -> Vec<f64> {
        sent.iter()
            .filter(|s| kind.map_or(s.kind != Kind::Full, |k| s.kind == k))
            .filter_map(|s| s.result.as_ref().ok().map(|r| r.latency_ms))
            .collect()
    };
    m.put(
        "serve.latency_ms.replay",
        median(&latency(Some(Kind::Full))),
        "ms",
    );
    m.put("serve.latency_ms.compute", median(&latency(None)), "ms");
    let waits = scrape(&text, "spnn_admission_queue_wait_seconds_count");
    m.put(
        "serve.queue_wait_ms",
        scrape(&text, "spnn_admission_queue_wait_seconds_sum") / waits.max(1.0) * 1e3,
        "ms",
    );
    m.put(
        "serve.shed_total",
        scrape(&text, "spnn_admission_shed_total"),
        "count",
    );
    m.put(
        "serve.dedup_total",
        scrape(&text, "spnn_rowcache_dedup_total"),
        "count",
    );
    let assemble: Vec<f64> = sent
        .iter()
        .filter(|s| s.assembled.is_some())
        .map(|s| s.assemble_s * 1e3)
        .collect();
    m.put("serve.assemble_ms", median(&assemble), "ms");
    m.put("serve.share.full", share(&sent, Kind::Full), "ratio");
    m.put("serve.share.partial", share(&sent, Kind::Partial), "ratio");
    m.put("serve.share.novel", share(&sent, Kind::Novel), "ratio");
    m.put("serve.requests_n", sent.len() as f64, "count");
    out.info.push(mix_line(&sent));
}

/// Median seconds of an in-process full replay of `spec` via
/// `run_scenario_with` from a row cache that holds every row.
fn replay_ms(spec: &ScenarioSpec, cache: &ContextCache) -> f64 {
    let config = EngineConfig {
        row_cache: Some(Arc::new(RowCache::in_memory())),
        ..engine_config(None, KernelProfile::Reference)
    };
    let _ = spnn_engine::run_scenario_with(spec, &config, cache);
    crate::util::median_secs(9, || {
        let _ = spnn_engine::run_scenario_with(spec, &config, cache);
    })
}
