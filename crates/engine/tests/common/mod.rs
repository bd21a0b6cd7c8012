//! Shared integration-test fixtures: the tiny scenario specs, the
//! raw-socket HTTP client (every exchange carries a timeout so a wedged
//! server fails the test instead of hanging it), the in-process server
//! spawn helpers, a Prometheus text-exposition parser, and the
//! [`FaultWorker`] chaos proxy used by `tests/exec.rs` and
//! `tests/steal.rs`.
//!
//! Each integration-test binary compiles its own copy of this module and
//! uses a different subset of it, hence the file-wide `dead_code` allow.
#![allow(dead_code)]

use spnn_engine::prelude::*;
use spnn_photonics::PerturbTarget;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-socket read/write budget for every test HTTP exchange. Far above
/// any healthy response time, but bounded: a deadlocked server turns
/// into a failing assertion, not a stuck CI job.
pub const IO_TIMEOUT: Duration = Duration::from_secs(120);

// ---------------------------------------------------------------------------
// Tiny scenario specs
// ---------------------------------------------------------------------------

/// The standard tiny fig4 sweep: 3 points, 8 iterations in rounds of 4.
pub fn tiny_fig4() -> ScenarioSpec {
    let mut spec = presets::fig4(&RunScale::tiny());
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0, 0.05, 0.1];
    spec.iterations = 8;
    spec.min_iterations = 2;
    spec.round_size = 4;
    spec
}

/// The tiny fig5 (zonal) sweep — the plan whose queue size is not
/// statically derivable, exercising the prepared-geometry paths.
pub fn tiny_fig5() -> ScenarioSpec {
    use spnn_engine::spec::LayerSelect;
    let mut spec = presets::fig5(&RunScale::tiny());
    spec.iterations = 6;
    spec.min_iterations = 2;
    spec.round_size = 4;
    spec.zonal.layers = LayerSelect::List(vec![0]);
    spec.zonal.stages = vec![spnn_core::Stage::UMesh];
    spec
}

/// `spec` with enough training to beat chance: 300 samples × 30 epochs
/// (tested on 40), where `RunScale::tiny()`'s 60 × 2 stays at chance. A
/// byte-identity gate over a near-constant classifier sees little, so
/// the gates that compare whole reports run on this recipe.
pub fn classifying(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.dataset.n_train = 300;
    spec.train.epochs = 30;
    spec.dataset.n_test = 40;
    spec
}

/// Asserts every topology of `report` classifies past chance.
pub fn assert_classifies(report: &EngineReport) {
    for t in &report.topologies {
        assert!(
            t.software_accuracy > 0.3,
            "{}: software accuracy {} is near chance",
            t.topology,
            t.software_accuracy
        );
    }
}

/// One on-disk trained-context cache shared by everything a test runs:
/// the unsharded reference trains into it, and the workers and
/// coordinators started from it load the context instead of training
/// it again. Removed on drop.
pub struct TrainedCache(Scratch);

impl TrainedCache {
    pub fn new(tag: &str) -> Self {
        TrainedCache(Scratch::new(&format!("trained-{tag}")))
    }

    /// The test engine configuration, pointed at this cache.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig {
            cache_dir: Some(self.0 .0.clone()),
            ..test_engine()
        }
    }

    /// A context cache over this directory.
    pub fn context(&self) -> ContextCache {
        ContextCache::new(Some(self.0 .0.clone()))
    }

    /// The unsharded run of `spec` through this cache (training it on
    /// first use), asserted to classify past chance.
    pub fn reference(&self, spec: &ScenarioSpec) -> EngineReport {
        let report = spnn_engine::runner::run_scenario_with(spec, &self.engine(), &self.context())
            .expect("unsharded run");
        assert_classifies(&report);
        report
    }

    /// Starts a worker service that loads from this cache.
    pub fn worker(&self) -> SocketAddr {
        start_server_raw(ServeConfig {
            workers: 2,
            engine: self.engine(),
            ..ServeConfig::default()
        })
    }
}

/// Asserts `report` renders byte-identically to `reference`.
pub fn assert_same_bytes(report: &EngineReport, reference: &EngineReport, what: &str) {
    assert_eq!(to_json(report), to_json(reference), "{what}: JSON diverged");
    assert_eq!(to_csv(report), to_csv(reference), "{what}: CSV diverged");
}

// ---------------------------------------------------------------------------
// Raw-socket HTTP client (the one copy, with timeouts)
// ---------------------------------------------------------------------------

/// Sends one raw HTTP request and returns the **entire** close-delimited
/// response (status line, headers, body) — for asserting on headers such
/// as `Retry-After`.
pub fn http_raw(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .expect("write timeout");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// Sends one raw HTTP request and returns `(status, body)` of the
/// close-delimited response.
pub fn http(addr: SocketAddr, request: &str) -> (u16, String) {
    let raw = http_raw(addr, request);
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// `POST /run` with the spec text as the body; returns `(status, body)`.
pub fn post_run(addr: SocketAddr, spec_text: &str) -> (u16, String) {
    http(addr, &run_request(spec_text))
}

/// Like [`post_run`], returning the entire raw response.
pub fn post_run_raw(addr: SocketAddr, spec_text: &str) -> String {
    http_raw(addr, &run_request(spec_text))
}

fn run_request(spec_text: &str) -> String {
    format!(
        "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        spec_text.len(),
        spec_text
    )
}

/// `POST /shard` with an explicit query string (`shards=K&index=I` or
/// `span=LO-HI`); returns `(status, body)`.
pub fn post_shard(addr: SocketAddr, query: &str, spec_text: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST /shard?{query} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            spec_text.len(),
            spec_text
        ),
    )
}

/// Opens a `/run` stream with the given extra header block and reads the
/// socket until `marker` appears, returning the open stream plus what was
/// read so far — the request is provably in flight when this returns.
pub fn open_stream_until(
    addr: SocketAddr,
    headers: &str,
    spec_text: &str,
    marker: &str,
) -> (TcpStream, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .expect("read timeout");
    stream
        .write_all(
            format!(
                "POST /run HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\n\r\n{}",
                spec_text.len(),
                spec_text
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut seen = String::new();
    let mut buf = [0u8; 1024];
    while !seen.contains(marker) {
        let n = stream.read(&mut buf).expect("read stream");
        assert!(n > 0, "stream closed before {marker:?} appeared: {seen}");
        seen.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    (stream, seen)
}

// ---------------------------------------------------------------------------
// In-process server spawns
// ---------------------------------------------------------------------------

/// The engine configuration every test server runs with: two threads,
/// quiet, no on-disk caches.
pub fn test_engine() -> EngineConfig {
    EngineConfig {
        threads: Some(2),
        verbose: false,
        cache_dir: None,
        ..EngineConfig::default()
    }
}

/// Binds a server with the config exactly as given (the caller owns the
/// engine part too) and leaves it running for the rest of the process.
pub fn start_server_raw(config: ServeConfig) -> SocketAddr {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());
    addr
}

/// Binds a server with full control over the traffic config (quotas,
/// budgets, breakers) — the engine part is always the tiny test one.
pub fn start_server_cfg(config: ServeConfig) -> SocketAddr {
    start_server_raw(ServeConfig {
        engine: test_engine(),
        ..config
    })
}

/// Binds a worker service on an ephemeral port with an in-memory cache
/// and a small pool, and leaves it running for the rest of the process.
pub fn start_server(workers: usize) -> SocketAddr {
    start_server_with(workers, Vec::new())
}

/// Like [`start_server`], with a coordinator worker list.
pub fn start_server_with(workers: usize, remote_workers: Vec<String>) -> SocketAddr {
    start_server_cfg(ServeConfig {
        workers,
        remote_workers,
        ..ServeConfig::default()
    })
}

/// Like [`start_server`], with a shared in-memory row cache attached —
/// the configuration the dedup tests need.
pub fn start_server_rowcached(workers: usize) -> SocketAddr {
    start_server_raw(ServeConfig {
        workers,
        engine: EngineConfig {
            row_cache: Some(std::sync::Arc::new(spnn_engine::RowCache::in_memory())),
            ..test_engine()
        },
        ..ServeConfig::default()
    })
}

/// An address that refuses connections: bind an ephemeral port, then
/// free it again.
pub fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("probe port");
    listener.local_addr().expect("local addr")
}

/// A worker that accepts connections and slams them shut before
/// answering — the shape of a worker killed mid-run.
pub fn flaky_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind flaky");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for conn in listener.incoming().flatten() {
            drop(conn);
        }
    });
    addr
}

// ---------------------------------------------------------------------------
// Scratch dirs and the spnn binary
// ---------------------------------------------------------------------------

/// A per-test temp directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spnn-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the built `spnn` binary with a scrubbed environment.
pub fn spnn(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_spnn"))
        .args(args)
        .env_remove("SPNN_THREADS")
        .env_remove("SPNN_ROW_CACHE_DIR")
        .output()
        .expect("run spnn")
}

pub fn assert_ok(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---------------------------------------------------------------------------
// Prometheus text-exposition parsing
// ---------------------------------------------------------------------------

/// One metric sample: family name, raw label pairs, value.
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed `/metrics` body: every sample plus the `# TYPE` declarations.
pub struct Exposition {
    pub samples: Vec<Sample>,
    pub types: std::collections::BTreeMap<String, String>,
}

impl Exposition {
    /// Sum of all samples of `name` across label sets.
    pub fn total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }
}

/// Parses a Prometheus text-exposition body, panicking on any line that
/// violates the exposition grammar — the line-level checker the CI
/// scrape step mirrors with grep.
pub fn parse_exposition(body: &str) -> Exposition {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut samples = Vec::new();
    let mut types = std::collections::BTreeMap::new();
    for line in body.lines() {
        assert!(!line.is_empty(), "exposition must not contain blank lines");
        if let Some(comment) = line.strip_prefix("# ") {
            let mut words = comment.splitn(3, ' ');
            let keyword = words.next().unwrap_or_default();
            let name = words.next().unwrap_or_default();
            let rest = words.next().unwrap_or_default();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword in {line:?}"
            );
            assert!(valid_name(name), "bad metric name in {line:?}");
            if keyword == "TYPE" {
                assert!(
                    matches!(rest, "counter" | "gauge" | "histogram"),
                    "bad TYPE in {line:?}"
                );
                types.insert(name.to_string(), rest.to_string());
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value in {line:?}"));
        let (name, labels) = match series.split_once('{') {
            None => (series, Vec::new()),
            Some((n, rest)) => {
                let inner = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated labels in {line:?}"));
                let pairs = inner
                    .split(',')
                    .map(|kv| {
                        let (k, v) = kv
                            .split_once('=')
                            .unwrap_or_else(|| panic!("label without '=' in {line:?}"));
                        assert!(valid_name(k), "bad label name in {line:?}");
                        assert!(
                            v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                            "unquoted label value in {line:?}"
                        );
                        (k.to_string(), v[1..v.len() - 1].to_string())
                    })
                    .collect();
                (n, pairs)
            }
        };
        assert!(valid_name(name), "bad series name in {line:?}");
        let value = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad sample value in {line:?}"))
        };
        samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Exposition { samples, types }
}

/// Scrapes and parses `GET /metrics`.
pub fn scrape(addr: SocketAddr) -> Exposition {
    let (status, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    parse_exposition(&body)
}

// ---------------------------------------------------------------------------
// FaultWorker: the chaos proxy
// ---------------------------------------------------------------------------

/// What a [`FaultWorker`] does to each proxied exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully.
    None,
    /// Hold each request for this long before forwarding it upstream —
    /// the shape of an overloaded or artificially slowed worker. The
    /// upstream still answers; the answer just arrives late (possibly
    /// after the shard was already stolen and re-dispatched).
    Latency(Duration),
    /// Relay the first `after` response bytes, stall for `stall`, then
    /// relay the rest — a worker that wedges mid-response and recovers.
    MidStall { after: usize, stall: Duration },
    /// Accept and immediately drop the next N connections (connection
    /// reset mid-dispatch), then behave normally.
    DropConnections(u32),
}

/// A TCP proxy wrapping a real worker (an in-process [`Server`] or a
/// `spnn serve` child), injecting one [`Fault`] per exchange. The fault
/// can be swapped at runtime, so one worker can misbehave for the first
/// dispatch and recover for the retry.
pub struct FaultWorker {
    addr: SocketAddr,
    fault: Arc<std::sync::Mutex<Fault>>,
    drops_left: Arc<AtomicU32>,
}

impl FaultWorker {
    /// Starts the proxy in front of `upstream` with an initial fault.
    pub fn start(upstream: SocketAddr, fault: Fault) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fault proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let shared = Arc::new(std::sync::Mutex::new(Fault::None));
        let drops = Arc::new(AtomicU32::new(0));
        let worker = FaultWorker {
            addr,
            fault: Arc::clone(&shared),
            drops_left: Arc::clone(&drops),
        };
        worker.set_fault(fault);
        std::thread::spawn(move || {
            for client in listener.incoming().flatten() {
                let fault = *shared.lock().expect("fault mode");
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || proxy_one(client, upstream, fault, &drops));
            }
        });
        worker
    }

    /// The proxy's listen address — hand `self.url()` to the coordinator
    /// in place of the real worker's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Swaps the fault applied to *future* exchanges; in-flight ones
    /// keep the mode they started with.
    pub fn set_fault(&self, fault: Fault) {
        if let Fault::DropConnections(n) = fault {
            self.drops_left.store(n, Ordering::SeqCst);
        }
        *self.fault.lock().expect("fault mode") = fault;
    }
}

/// Relays one close-delimited HTTP exchange through the fault.
fn proxy_one(mut client: TcpStream, upstream: SocketAddr, fault: Fault, drops: &AtomicU32) {
    if let Fault::DropConnections(_) = fault {
        // Decrement-and-drop until the budget is spent, then relay.
        if drops
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return; // dropping `client` resets the connection
        }
    }
    let _ = client.set_read_timeout(Some(IO_TIMEOUT));
    let _ = client.set_write_timeout(Some(IO_TIMEOUT));
    let Some(request) = read_http_message(&mut client) else {
        return;
    };
    if let Fault::Latency(delay) = fault {
        std::thread::sleep(delay);
    }
    let Ok(mut server) = TcpStream::connect(upstream) else {
        return;
    };
    let _ = server.set_read_timeout(Some(IO_TIMEOUT));
    if server.write_all(&request).is_err() {
        return;
    }
    // Responses are close-delimited: relay until upstream EOF, stalling
    // once mid-stream if asked to.
    let mut relayed = 0usize;
    let mut stalled = false;
    let mut buf = [0u8; 4096];
    loop {
        let n = match server.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = &buf[..n];
        if let Fault::MidStall { after, stall } = fault {
            if !stalled && relayed + n > after {
                let head = after.saturating_sub(relayed);
                if client.write_all(&chunk[..head]).is_err() {
                    return;
                }
                let _ = client.flush();
                std::thread::sleep(stall);
                stalled = true;
                chunk = &chunk[head..];
            }
        }
        relayed += n;
        if client.write_all(chunk).is_err() {
            return;
        }
    }
}

/// Reads one HTTP message (head + `Content-Length` body) off a socket.
/// Returns `None` on a malformed or truncated message.
fn read_http_message(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut message = Vec::new();
    let mut buf = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&message) {
            break pos;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => message.extend_from_slice(&buf[..n]),
        }
    };
    let head = String::from_utf8_lossy(&message[..head_end]).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let total = head_end + 4 + content_length;
    while message.len() < total {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => message.extend_from_slice(&buf[..n]),
        }
    }
    Some(message)
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}
