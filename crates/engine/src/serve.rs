//! `spnn serve` — a long-lived scenario service that streams Monte-Carlo
//! results as they are computed.
//!
//! The service wraps the engine's one sweep entry point
//! ([`crate::exec::run_distributed`]) in a small,
//! dependency-free HTTP front-end ([`crate::http`]): clients `POST` a
//! scenario spec (the same `.scn` text `spnn run` takes) and receive
//! **NDJSON** — one JSON object per line — with every sweep point's row
//! pushed the moment it completes. One process-lifetime
//! [`ContextCache`] is shared by all requests, so repeat scenarios skip
//! training entirely, and concurrent identical requests train **once**
//! (the cache serializes in-flight training per fingerprint).
//!
//! With a row cache configured ([`EngineConfig::row_cache`]; the CLI
//! enables one by default — see `docs/row-cache.md`), finished sweep
//! points are also memoized **across requests**, and identical in-flight
//! `/run` bodies share one *execution*: the first request runs the
//! scenario, every concurrent duplicate subscribes to the same stream
//! and receives byte-identical output (counted by
//! `spnn_rowcache_dedup_total`, with current fan-out in the
//! `spnn_rowcache_dedup_subscribers` gauge).
//!
//! # Endpoints
//!
//! | method, path | behavior |
//! |---|---|
//! | `POST /run` | body = scenario spec text; streams NDJSON events |
//! | `POST /run?format=csv` | same, streaming CSV rows (curl-friendly) |
//! | `POST /shard?shards=K&index=I` | worker endpoint: run one shard, return its [`crate::shard::PartialReport`] JSON |
//! | `GET /healthz` | liveness, uptime, version, role, run/shard counters |
//! | `GET /cache/stats` | trained-context cache counters and location |
//! | `GET /metrics` | this server's registry in Prometheus text format |
//!
//! # Observability
//!
//! Every server owns a **private** [`crate::metrics::MetricsRegistry`]
//! (created at bind time, exposed via [`Server::metrics`]), so embedded
//! and test servers never share counters. `GET /metrics` renders it:
//! request counts/latency/in-flight, run and shard outcomes, the cache's
//! counters (the same atomics `/cache/stats` reads — see
//! [`ContextCache::register_metrics`]), engine phase timers, and — in
//! coordinator mode — per-worker dispatch latency and merge progress.
//! Each request additionally emits one structured access-log line on
//! stderr (see [`crate::trace`]; `--log-json` switches it to JSON).
//! The full catalog lives in `docs/observability.md`.
//!
//! Invalid specs are rejected *before* any work starts with `400` and a
//! JSON body carrying the parser's line-numbered message.
//!
//! # Coordinator mode
//!
//! With [`ServeConfig::remote_workers`] non-empty (CLI:
//! `spnn serve --workers-from FILE`), `POST /run` no longer sweeps
//! in-process: every run goes through the one
//! [`crate::exec::RemoteExecutor`] the server builds at bind time, which
//! plans one slice per peer (`POST /shard` on each worker; the fleet
//! settings add local peers, capacity weights and stealing), merges
//! partials **as they arrive** through
//! [`crate::shard::MergeState`], and streams each row the moment its
//! prefix coverage is decidable — the stream is byte-identical to the
//! in-process one, because both paths emit the same [`StreamEvent`]s
//! with the same values. A worker failing mid-run is retried on another
//! worker transparently. `POST /shard` works in either mode, so
//! coordinators can be layered.
//!
//! # Graceful shutdown
//!
//! After [`crate::exec::install_signal_handlers`] (the CLI installs them
//! for `spnn serve`), SIGTERM/SIGINT is observed in one place: the accept
//! loop of [`Server::run`] sees the process shutdown flag and cancels the
//! server token. The loop stops accepting, in-flight local streams finish
//! (budgeted or not — their per-request tokens are standalone, so only
//! the budget meter can cancel them), outstanding remote shard dispatches
//! are cancelled (coordinator request tokens are children of the server
//! token; their streams end with an `error` event), the worker pool
//! joins, and [`Server::run`] returns — a second signal exits
//! immediately. [`Server::cancel_token`] gives embedders the same lever
//! programmatically.
//!
//! # The NDJSON event stream
//!
//! A successful `POST /run` answers `200` with
//! `Content-Type: application/x-ndjson` and a close-delimited body (no
//! chunked framing — the stream ends when the server closes the
//! connection). Events, in order:
//!
//! ```text
//! {"event":"started","scenario":"fig4","total_points":54}
//! {"event":"topology","topology":"clements","software_accuracy":0.94,"nominal_accuracy":0.93}
//! {"event":"row","index":0,"topology":"clements","labels":[["mode","both"],["sigma","0"]],
//!  "mean_accuracy":0.93,"std_dev":0,"moe95":0,"iterations":60,"stopped_early":false}
//! ...
//! {"event":"done","scenario":"fig4","rows":54}
//! ```
//!
//! Floats are emitted in Rust's shortest-round-trip decimal form, so
//! [`assemble_report`] recovers every value **bit-exactly**: a report
//! assembled from the stream renders byte-for-byte identically
//! (`to_json` / `to_csv`) to the `spnn run` report for the same spec —
//! the batch driver *is* the streaming driver with a no-op observer.
//! Both are the one-shard [`crate::exec::run_distributed`] run.
//! A run that fails after the head was sent (e.g. a mapping error) ends
//! the stream with `{"event":"error","message":…}` instead of `done`.
//!
//! `docs/serving.md` is the operator's manual: curl examples, error
//! codes, concurrency and determinism semantics.

use crate::cache::ContextCache;
use crate::exec::{
    process_shutdown_requested, run_distributed, BreakerConfig, CancelToken, ExecContext, Executor,
    LocalExecutor, RemoteExecutor, WeightSource, WorkerBreakers,
};
use crate::http::{http_get, read_request, HttpError, Request, Response};
use crate::json;
use crate::metrics::{self, histogram_quantile, Counter, Gauge, MetricsRegistry, Reading};
use crate::queue::static_queue_len;
use crate::report::{self, csv_header, csv_row, label_keys};
use crate::runner::{
    run_slice, EngineConfig, EngineError, EngineReport, StreamEvent, SweepRow, TopologySummary,
};
use crate::shard::Slice;
use crate::spec::ScenarioSpec;
use crate::tevent;
use crate::trace::Level;
use spnn_core::{detected_tier, KernelProfile};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-request work ceilings, enforced on `POST /run`. A request whose
/// spec provably exceeds a ceiling is rejected with `400` before any
/// compute; a request that crosses one mid-run (adaptive stop rules,
/// zonal plans whose queue size depends on the mapped mesh) is aborted
/// between sweep points and its stream ends with a structured `error`
/// event. `0` means unlimited. Budgets never change the value of any
/// row that *is* emitted — enforcement is point-granular.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestBudget {
    /// Maximum sweep points a request may produce (0 = unlimited).
    pub max_points: u64,
    /// Maximum Monte-Carlo iterations a request may spend (0 = unlimited).
    pub max_iterations: u64,
    /// Maximum Monte-Carlo rounds a request may spend (0 = unlimited).
    pub max_rounds: u64,
}

impl RequestBudget {
    /// Checks the floors derivable from the spec alone — the compiled
    /// queue length for global plans, exact totals for fixed stop rules,
    /// `min_iterations` floors for adaptive ones. Returns the rejection
    /// reason when the spec cannot possibly fit the budget.
    fn static_violation(&self, spec: &ScenarioSpec) -> Option<String> {
        let points_per_topology = static_queue_len(spec)?; // zonal: runtime only
        let points = (points_per_topology * spec.topologies.len()) as u64;
        if self.max_points > 0 && points > self.max_points {
            return Some(format!(
                "budget exceeded: spec compiles to {points} point(s), max_points is {}",
                self.max_points
            ));
        }
        let round_size = spec.round_size.max(1) as u64;
        // Fixed stop rule: exact per-point cost. Adaptive: at least
        // min_iterations per point — still a provable floor.
        let (iters_per_point, qualifier) = if spec.target_moe > 0.0 {
            (spec.min_iterations as u64, "at least ")
        } else {
            (spec.iterations as u64, "")
        };
        let iterations = points * iters_per_point;
        if self.max_iterations > 0 && iterations > self.max_iterations {
            return Some(format!(
                "budget exceeded: spec needs {qualifier}{iterations} iteration(s), \
                 max_iterations is {}",
                self.max_iterations
            ));
        }
        let rounds = points * iters_per_point.div_ceil(round_size);
        if self.max_rounds > 0 && rounds > self.max_rounds {
            return Some(format!(
                "budget exceeded: spec needs {qualifier}{rounds} round(s), max_rounds is {}",
                self.max_rounds
            ));
        }
        None
    }
}

/// Tracks a request's spend against its [`RequestBudget`] as stream
/// events arrive; detects the first violation.
struct BudgetMeter {
    budget: RequestBudget,
    round_size: u64,
    points: u64,
    iterations: u64,
    rounds: u64,
}

impl BudgetMeter {
    fn new(budget: RequestBudget, round_size: usize) -> Self {
        BudgetMeter {
            budget,
            round_size: round_size.max(1) as u64,
            points: 0,
            iterations: 0,
            rounds: 0,
        }
    }

    /// Accounts one event; returns the violation message the first time
    /// a ceiling is crossed.
    fn observe(&mut self, event: &StreamEvent<'_>) -> Option<String> {
        match event {
            StreamEvent::Started { total_points, .. } => {
                let total = *total_points as u64;
                if self.budget.max_points > 0 && total > self.budget.max_points {
                    return Some(format!(
                        "budget exceeded: scenario has {total} point(s), max_points is {}",
                        self.budget.max_points
                    ));
                }
            }
            StreamEvent::Row { row, .. } => {
                self.points += 1;
                self.iterations += row.iterations as u64;
                self.rounds += (row.iterations as u64).div_ceil(self.round_size);
                if self.budget.max_iterations > 0 && self.iterations > self.budget.max_iterations {
                    return Some(format!(
                        "budget exceeded: {} iteration(s) spent, max_iterations is {}",
                        self.iterations, self.budget.max_iterations
                    ));
                }
                if self.budget.max_rounds > 0 && self.rounds > self.budget.max_rounds {
                    return Some(format!(
                        "budget exceeded: {} round(s) spent, max_rounds is {}",
                        self.rounds, self.budget.max_rounds
                    ));
                }
            }
            _ => {}
        }
        None
    }
}

/// Per-client concurrency and rate limits for `POST /run` and
/// `POST /shard`, keyed by the `X-Client-Id` header (falling back to the
/// peer IP). Token-bucket: a client holds up to `burst` tokens,
/// replenished at `rate` per second; each admitted request spends one.
/// `0` disables the corresponding limit. Denied requests get `429` with
/// a `Retry-After` estimating when a token will be available.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuotaConfig {
    /// Maximum concurrent `/run` + `/shard` requests per client
    /// (0 = unlimited).
    pub max_concurrent: u32,
    /// Sustained request rate per client, in requests/second
    /// (0 = unlimited).
    pub rate: f64,
    /// Token-bucket capacity — the burst a client may spend at once.
    /// `0` with a positive `rate` defaults to `max(rate, 1)`.
    pub burst: f64,
}

impl QuotaConfig {
    fn enabled(&self) -> bool {
        self.max_concurrent > 0 || self.rate > 0.0
    }

    fn capacity(&self) -> f64 {
        if self.burst > 0.0 {
            self.burst
        } else {
            self.rate.max(1.0)
        }
    }
}

/// How the service runs. Like [`EngineConfig`], nothing here may change
/// the results of admitted requests — only capacity, placement,
/// admission, and logging. (Admission knobs decide *whether* a request
/// runs, never *what* it computes: an admitted stream is byte-identical
/// under any setting.)
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connection-handling worker threads (each runs at most one
    /// scenario at a time; the Monte-Carlo sweep inside a request is
    /// additionally parallelized per [`EngineConfig::threads`]). This is
    /// the service's in-flight cap.
    pub workers: usize,
    /// Engine execution knobs applied to every request.
    /// `engine.cache_dir` seeds the service's process-lifetime
    /// [`ContextCache`].
    pub engine: EngineConfig,
    /// Remote worker base URLs (`http://host:port`). Empty (the
    /// default) serves every `POST /run` in-process; non-empty turns the
    /// service into a **coordinator** that plans one slice per peer and
    /// merges partials as they arrive (see the module docs).
    pub remote_workers: Vec<String>,
    /// Admission queue depth: connections accepted but not yet picked up
    /// by a worker. Overflow is shed immediately with `429` +
    /// `Retry-After` instead of piling into the kernel accept backlog.
    pub queue_depth: usize,
    /// Longest a connection may wait in the admission queue; a request
    /// dequeued after this deadline is shed with `429` (its spot was a
    /// promise the server could no longer keep in time).
    pub queue_wait: Duration,
    /// Socket read budget per request: a client that sends half a head
    /// and stalls is answered `408` instead of pinning a worker forever.
    pub read_timeout: Duration,
    /// Socket write budget: a client that stops reading its stream stalls
    /// writes at most this long before the connection is abandoned.
    pub write_timeout: Duration,
    /// Per-request work ceilings (see [`RequestBudget`]).
    pub budget: RequestBudget,
    /// Per-client concurrency/rate quotas (see [`QuotaConfig`]).
    pub quota: QuotaConfig,
    /// Circuit-breaker tuning for coordinator-side worker health (see
    /// [`BreakerConfig`]; only used when `remote_workers` is non-empty).
    pub breaker: BreakerConfig,
    /// Coordinator work stealing (`--steal`): a worker that drains its
    /// slice re-dispatches the slowest outstanding slice's span;
    /// overlapping speculative partials are deduplicated by the merge,
    /// so the stream stays byte-identical (only wall-clock changes).
    pub steal: bool,
    /// Coordinator capacity weighting (`--weights-from`): how the shard
    /// plan sizes each worker's slice (see [`WeightSource`]).
    pub weights_from: WeightSource,
    /// In-process peers the coordinator adds to its own plan
    /// (`--local-peers`): mixed dispatch — the coordinator's cores work
    /// alongside the remote fleet.
    pub local_peers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            engine: EngineConfig::default(),
            remote_workers: Vec::new(),
            queue_depth: 64,
            queue_wait: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(60),
            budget: RequestBudget::default(),
            quota: QuotaConfig::default(),
            breaker: BreakerConfig::default(),
            steal: false,
            weights_from: WeightSource::Equal,
            local_peers: 0,
        }
    }
}

/// Run counters, served by `GET /healthz`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    started: u64,
    completed: u64,
    failed: u64,
    shards_completed: u64,
    shards_failed: u64,
}

/// Identity of an in-flight `/run` execution: the exact request body plus
/// the stream format. Requests with equal keys produce byte-identical
/// streams, so they can share one execution.
type RunKey = (Vec<u8>, u8);

/// The shared stream buffer of one in-flight `/run` execution: the
/// leader appends each emitted line, subscribers replay and then follow.
struct RunBuffer {
    /// Every line emitted so far, in stream order.
    lines: Vec<String>,
    /// `true` once the execution ended (successfully or not).
    done: bool,
    /// The execution outcome, meaningful once `done`.
    ok: bool,
}

/// One in-flight `/run` execution being fanned out to every request with
/// the same [`RunKey`]. The leader only ever appends and subscribers only
/// ever read, so a slow or disconnected subscriber cannot affect the
/// leader or its peers.
struct InflightRun {
    buffer: Mutex<RunBuffer>,
    cv: Condvar,
}

impl InflightRun {
    fn new() -> Self {
        InflightRun {
            buffer: Mutex::new(RunBuffer {
                lines: Vec::new(),
                done: false,
                ok: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// The buffer, poison-proof: a panicking leader must not wedge its
    /// subscribers (the buffer is always structurally valid — appends
    /// and flag flips cannot tear).
    fn lock_buffer(&self) -> MutexGuard<'_, RunBuffer> {
        self.buffer.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn push_line(&self, line: &str) {
        self.lock_buffer().lines.push(line.to_string());
        self.cv.notify_all();
    }

    /// Marks the execution finished and releases every subscriber. The
    /// first call wins; later calls (the leader's cleanup guard) are
    /// no-ops.
    fn finish(&self, ok: bool) {
        let mut buf = self.lock_buffer();
        if !buf.done {
            buf.done = true;
            buf.ok = ok;
        }
        drop(buf);
        self.cv.notify_all();
    }
}

/// Removes the leader's in-flight map entry when its request ends — and,
/// should the leader die between registering and finishing, releases
/// waiting subscribers with a failed outcome so none of them blocks
/// forever.
struct LeaderGuard<'a> {
    state: &'a ServerState,
    key: RunKey,
    run: Arc<InflightRun>,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        self.state
            .inflight_runs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.key);
        self.run.finish(false); // no-op after a clean finish
    }
}

/// One client's token-bucket state (see [`QuotaConfig`]).
struct ClientBucket {
    tokens: f64,
    refilled_at: Instant,
    in_flight: u32,
}

/// RAII release of one admitted request's quota spend.
struct QuotaGuard<'a> {
    state: &'a ServerState,
    key: String,
}

impl Drop for QuotaGuard<'_> {
    fn drop(&mut self) {
        let mut clients = self
            .state
            .quota_clients
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if let Some(bucket) = clients.get_mut(&self.key) {
            bucket.in_flight = bucket.in_flight.saturating_sub(1);
        }
    }
}

struct ServerState {
    engine: EngineConfig,
    cache: ContextCache,
    workers: usize,
    /// The coordinator's executor, built once at bind time (`None` in
    /// worker role).
    coordinator: Option<RemoteExecutor>,
    cancel: CancelToken,
    /// This server's private registry — `GET /metrics` renders it and
    /// every handle below is registered in it.
    metrics: MetricsRegistry,
    started_at: Instant,
    started: Counter,
    completed: Counter,
    failed: Counter,
    shards_completed: Counter,
    shards_failed: Counter,
    in_flight: Gauge,
    /// In-flight `/run` executions, for cross-request dedup: the first
    /// request with a given key leads, identical concurrent requests
    /// subscribe to its stream.
    inflight_runs: Mutex<HashMap<RunKey, Arc<InflightRun>>>,
    /// Requests served by subscribing to another request's execution.
    dedup_fanouts: Counter,
    /// Requests currently subscribed to another request's stream.
    dedup_subscribers: Gauge,
    /// Admission-queue capacity and deadline (see
    /// [`ServeConfig::queue_depth`] / [`ServeConfig::queue_wait`]).
    queue_depth: usize,
    queue_wait: Duration,
    /// Socket timeouts applied to every admitted connection.
    read_timeout: Duration,
    write_timeout: Duration,
    /// Per-request work ceilings.
    budget: RequestBudget,
    /// Per-client quotas plus their token-bucket state.
    quota: QuotaConfig,
    quota_clients: Mutex<HashMap<String, ClientBucket>>,
    quota_client_count: Gauge,
    /// Requests admitted past the queue (picked up by a worker in time).
    admission_accepted: Counter,
    /// Connections currently waiting in the admission queue.
    admission_queue_depth: Gauge,
}

impl ServerState {
    fn counters(&self) -> Counters {
        Counters {
            started: self.started.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            shards_completed: self.shards_completed.get(),
            shards_failed: self.shards_failed.get(),
        }
    }

    /// `worker` when serving sweeps in-process, `coordinator` when
    /// dispatching to remote workers.
    fn role(&self) -> &'static str {
        if self.coordinator.is_some() {
            "coordinator"
        } else {
            "worker"
        }
    }

    /// The coordinator's shared worker circuit breakers.
    fn breakers(&self) -> Option<&Arc<WorkerBreakers>> {
        self.coordinator.as_ref()?.breakers()
    }
}

/// The scenario service: a bound listener plus its shared state.
///
/// [`Server::bind`] reserves the address (use port `0` to let the OS
/// pick — [`Server::local_addr`] reports the result); [`Server::run`]
/// then serves connections forever on a pool of
/// [`ServeConfig::workers`] threads.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("workers", &self.state.workers)
            .finish()
    }
}

impl Server {
    /// Binds the service to `addr` (e.g. `"127.0.0.1:7878"`, or port `0`
    /// for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = config.workers.max(1);
        let mut engine = config.engine;
        let cache = ContextCache::new(engine.cache_dir.take());
        // A private registry per server: embedded and test servers must
        // not share counters. Routing the engine config's handle at it
        // makes every layer below (runner, executor, merge) record here.
        let registry = MetricsRegistry::new();
        engine.metrics = registry.clone();
        cache.register_metrics(&registry);
        if let Some(rc) = &engine.row_cache {
            rc.register_metrics(&registry);
        }
        // Info gauge: the configured kernel profile and the CPU dispatch
        // tier it resolves to on this machine, as labels set to 1.
        registry
            .gauge(
                "spnn_kernel_profile",
                "Active kernel profile and the CPU dispatch tier selected for it (info gauge).",
                &[
                    ("profile", engine.kernel.as_str()),
                    ("tier", detected_tier().as_str()),
                ],
            )
            .set(1);
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        // Coordinator role only: one executor for every request, with
        // one breaker per worker, registered up front so `/healthz` and
        // `/metrics` show every worker as "closed" from the first
        // scrape, not only after a failure.
        let coordinator = (!config.remote_workers.is_empty()).then(|| {
            let executor = RemoteExecutor::new(config.remote_workers);
            let breakers = Arc::new(WorkerBreakers::new(config.breaker, &registry));
            for worker in &executor.workers {
                breakers.admits(worker);
            }
            executor
                .with_breakers(breakers)
                .with_local_peers(config.local_peers)
                .with_weights(config.weights_from)
                .with_steal(config.steal)
        });
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                engine,
                cache,
                workers,
                coordinator,
                cancel: CancelToken::new(),
                started_at: Instant::now(),
                started: counter("spnn_runs_started_total", "Scenario runs accepted."),
                completed: counter("spnn_runs_completed_total", "Scenario runs completed."),
                failed: counter("spnn_runs_failed_total", "Scenario runs failed."),
                shards_completed: counter(
                    "spnn_shards_completed_total",
                    "Shard requests completed (worker role).",
                ),
                shards_failed: counter(
                    "spnn_shards_failed_total",
                    "Shard requests failed (worker role).",
                ),
                in_flight: registry.gauge(
                    "spnn_requests_in_flight",
                    "Requests currently being handled.",
                    &[],
                ),
                inflight_runs: Mutex::new(HashMap::new()),
                dedup_fanouts: counter(
                    "spnn_rowcache_dedup_total",
                    "Identical in-flight /run requests served by subscribing to \
                     another request's execution.",
                ),
                dedup_subscribers: registry.gauge(
                    "spnn_rowcache_dedup_subscribers",
                    "Requests currently subscribed to another request's /run stream.",
                    &[],
                ),
                queue_depth: config.queue_depth.max(1),
                queue_wait: config.queue_wait,
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                budget: config.budget,
                quota: config.quota,
                quota_clients: Mutex::new(HashMap::new()),
                quota_client_count: registry.gauge(
                    "spnn_quota_clients",
                    "Distinct clients currently tracked by the quota layer.",
                    &[],
                ),
                admission_accepted: counter(
                    "spnn_admission_accepted_total",
                    "Connections admitted past the queue and handed to a worker.",
                ),
                admission_queue_depth: registry.gauge(
                    "spnn_admission_queue_depth",
                    "Connections currently waiting in the admission queue.",
                    &[],
                ),
                metrics: registry,
            }),
        })
    }

    /// This server's private metrics registry — the one `GET /metrics`
    /// renders. Useful for embedders that want to scrape without HTTP.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.state.metrics
    }

    /// The server's cancellation token: cancelling it makes
    /// [`Server::run`] stop accepting, finish in-flight local streams,
    /// cancel outstanding remote dispatches, and return. SIGTERM works
    /// the same way: after [`crate::exec::install_signal_handlers`], the
    /// accept loop cancels this token when the process shutdown flag is
    /// raised.
    pub fn cancel_token(&self) -> CancelToken {
        self.state.cancel.clone()
    }

    /// The address the service actually listens on.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until the listener fails persistently or the
    /// server is asked to shut down (see [`Server::cancel_token`]). Each
    /// accepted connection is handed to one of the worker threads; a
    /// worker handles one request per connection (`Connection: close`).
    ///
    /// Accepting: the loop waits for the listener to become readable
    /// (`poll(2)` on Unix) and then accepts every pending connection, so
    /// a connection is picked up as soon as it arrives — there is no
    /// accept latency floor. The wait times out only to re-check for
    /// shutdown, once per shutdown-check interval (25 ms).
    ///
    /// Admission: accepted connections enter a bounded FIFO queue of
    /// [`ServeConfig::queue_depth`] slots. When the queue is full the
    /// connection is shed immediately with `429 Too Many Requests` and a
    /// `Retry-After` header instead of accumulating open sockets; a
    /// queued connection that no worker picks up within
    /// [`ServeConfig::queue_wait`] is shed the same way at dequeue —
    /// better a prompt 429 than a stream that starts after the client
    /// gave up.
    ///
    /// Shutdown: once the cancel token fires (programmatically, or via
    /// SIGTERM/SIGINT after [`crate::exec::install_signal_handlers`])
    /// the loop notices within one shutdown-check interval and stops
    /// accepting, in-flight request streams run to completion (remote
    /// shard dispatches are cancelled — their streams end with an
    /// `error` event), the worker pool drains, and `run` returns
    /// `Ok(())`.
    ///
    /// # Errors
    ///
    /// Transient accept failures (aborted handshakes, fd exhaustion) are
    /// logged and retried; only a persistently failing listener — many
    /// consecutive accept errors with no success in between — returns an
    /// error.
    pub fn run(self) -> io::Result<()> {
        let verbose = self.state.engine.verbose;
        // Bounded FIFO admission queue; `try_send` fails fast when it is
        // full so overflow is shed at accept time, not buffered.
        let (tx, rx) = mpsc::sync_channel::<(TcpStream, Instant)>(self.state.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(self.state.workers);
        for _ in 0..self.state.workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            pool.push(std::thread::spawn(move || loop {
                let conn = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(_) => break,
                };
                match conn {
                    Ok((stream, enqueued_at)) => {
                        state.admission_queue_depth.dec();
                        let waited = enqueued_at.elapsed();
                        if waited > state.queue_wait {
                            // The queue deadline passed while this
                            // connection waited for a worker.
                            shed(&state, stream, "deadline", waited);
                            continue;
                        }
                        state
                            .metrics
                            .histogram(
                                "spnn_admission_queue_wait_seconds",
                                "Time admitted connections spent queued for a worker.",
                                &[],
                                metrics::DURATION_BUCKETS,
                            )
                            .observe_duration(waited);
                        state.admission_accepted.inc();
                        handle_connection(stream, &state);
                    }
                    Err(_) => break, // listener gone
                }
            }));
        }
        // Coordinator role: a background prober revives open breakers by
        // polling the worker's /healthz once its cooldown elapses, so
        // recovery does not have to wait for live request traffic.
        let prober = self.state.breakers().cloned().map(|breakers| {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || probe_breakers(&state, &breakers))
        });
        // Non-blocking accept: the loop drains every pending connection,
        // re-checking shutdown between them, and on `WouldBlock` waits
        // for readiness (at most one shutdown-check interval) instead of
        // sleeping, so no connection waits on a poll tick. A spurious
        // wake costs one `WouldBlock`. Accepted sockets are switched back
        // to blocking before hand-off.
        self.listener.set_nonblocking(true)?;
        let mut consecutive_failures = 0usize;
        loop {
            if process_shutdown_requested() {
                self.state.cancel.cancel();
            }
            if self.state.cancel.is_cancelled() {
                if verbose {
                    eprintln!("[serve] shutdown requested; draining in-flight requests");
                }
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    consecutive_failures = 0;
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    self.state.admission_queue_depth.inc();
                    match tx.try_send((stream, Instant::now())) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full((stream, _))) => {
                            self.state.admission_queue_depth.dec();
                            shed(&self.state, stream, "queue_full", Duration::ZERO);
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => {
                            self.state.admission_queue_depth.dec();
                            break; // all workers died — surface below
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_readable(&self.listener, SHUTDOWN_POLL);
                }
                Err(e) => {
                    // Aborted handshakes, EMFILE under load, and the like
                    // must not take the whole service down; back off
                    // briefly and keep accepting. A listener that *only*
                    // fails is genuinely broken — surface that.
                    consecutive_failures += 1;
                    if consecutive_failures >= 100 {
                        return Err(e);
                    }
                    if verbose {
                        eprintln!("[serve] accept failed (retrying): {e}");
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }
        if let Some(prober) = prober {
            let _ = prober.join();
        }
        Ok(())
    }
}

/// Sheds one connection with `429 Too Many Requests` plus a
/// `Retry-After` hint derived from the configured queue deadline. Writes
/// under a short timeout and drains under [`DRAIN_DEADLINE`] — a shed
/// runs on the accept thread and must never hold it for long.
fn shed(state: &ServerState, stream: TcpStream, reason: &'static str, waited: Duration) {
    state
        .metrics
        .counter(
            "spnn_admission_shed_total",
            "Connections shed by admission control, by reason.",
            &[("reason", reason)],
        )
        .inc();
    tevent!(
        Level::Warn,
        "serve",
        "shed",
        reason = reason,
        waited_seconds = waited.as_secs_f64(),
    );
    let retry_after = state.queue_wait.as_secs().clamp(1, 60);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut stream = stream;
    let _ = Response::error(
        429,
        &format!("server overloaded ({reason}), retry after {retry_after}s"),
    )
    .with_header("Retry-After", retry_after.to_string())
    .write_to(&mut stream);
    // The client is mid-way through sending the request this 429
    // rejects.
    drain_then_close(stream, Instant::now() + DRAIN_DEADLINE);
    record_request(state, "", "", 429, waited, 0);
}

/// Ends a rejected exchange whose client may still be sending: closing
/// with unread data pending would make the kernel send RST and eat the
/// response just written. Half-closes the write side to signal
/// end-of-response, then discards input until EOF, [`MAX_BODY_BYTES`]
/// read, or `deadline` — whichever comes first, so a client trickling
/// bytes cannot hold the calling thread.
///
/// [`MAX_BODY_BYTES`]: crate::http::MAX_BODY_BYTES
fn drain_then_close(mut stream: TcpStream, deadline: Instant) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 8192];
    let mut drained = 0usize;
    while drained <= crate::http::MAX_BODY_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Blocks until `listener` has a connection to accept, a signal
/// interrupts the wait, or `timeout` passes. Spurious or early returns
/// are harmless: the caller re-checks shutdown and tries `accept`.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 1;

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let millis = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: poll(2) on one valid `pollfd` owned by this frame.
    if unsafe { poll(&mut fd, 1, millis) } < 0
        && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted
    {
        // A failing poll must not turn the accept loop into a spin;
        // `EINTR` (a signal, maybe SIGTERM) returns at once instead.
        std::thread::sleep(timeout);
    }
}

/// Without `poll(2)` the loop sleeps between accept attempts.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// Background half-open prober (coordinator role): wakes every
/// [`PROBE_POLL`], asks the breaker layer which workers are due, and
/// settles each with a `GET /healthz` — `200` closes the breaker,
/// anything else re-opens it for another cooldown.
fn probe_breakers(state: &ServerState, breakers: &WorkerBreakers) {
    let probes = |outcome: &'static str| {
        state.metrics.counter(
            "spnn_breaker_probes_total",
            "Half-open health probes sent to workers, by outcome.",
            &[("outcome", outcome)],
        )
    };
    while !state.cancel.is_cancelled() {
        for worker in breakers.probe_due() {
            let abort = || state.cancel.is_cancelled();
            let ok = http_get(
                &format!("{worker}/healthz"),
                Some(&abort),
                Some(PROBE_TIMEOUT),
            )
            .is_ok_and(|r| r.status == 200);
            if ok {
                probes("success").inc();
                breakers.record_success(&worker);
            } else {
                probes("failure").inc();
                breakers.record_failure(&worker);
            }
        }
        std::thread::sleep(PROBE_POLL);
    }
}

/// How often the breaker prober checks for workers due a health probe.
const PROBE_POLL: Duration = Duration::from_millis(250);

/// Socket budget for one half-open `/healthz` probe.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// The shutdown-check interval: the longest the accept loop's readiness
/// wait blocks before re-checking the cancel token and the process
/// shutdown flag. Connections never wait on it; they wake the loop.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// How long a rejected exchange may spend draining its client's unread
/// request before the socket closes (see [`drain_then_close`]).
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// A write-through wrapper counting bytes actually written — feeds the
/// access log's `bytes` field without touching response rendering.
struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Collapses arbitrary request paths/methods into a bounded label set so
/// a scanner cannot inflate `/metrics` cardinality.
fn route_label(route: &str) -> &'static str {
    match route {
        "/run" => "/run",
        "/shard" => "/shard",
        "/healthz" => "/healthz",
        "/cache/stats" => "/cache/stats",
        "/metrics" => "/metrics",
        _ => "other",
    }
}

fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "HEAD" => "HEAD",
        _ => "other",
    }
}

/// Records one finished request: counters, latency histogram, and the
/// structured access-log line.
fn record_request(
    state: &ServerState,
    method: &str,
    route: &str,
    status: u16,
    elapsed: Duration,
    bytes: u64,
) {
    let (method_l, route_l) = (method_label(method), route_label(route));
    state
        .metrics
        .counter(
            "spnn_requests_total",
            "HTTP requests served, by method, route, and status.",
            &[
                ("method", method_l),
                ("route", route_l),
                ("status", &status.to_string()),
            ],
        )
        .inc();
    state
        .metrics
        .histogram(
            "spnn_request_duration_seconds",
            "Request handling latency, per route.",
            &[("route", route_l)],
            metrics::DURATION_BUCKETS,
        )
        .observe_duration(elapsed);
    tevent!(
        Level::Info,
        "serve",
        "request",
        method = method,
        route = route,
        status = status,
        seconds = elapsed.as_secs_f64(),
        bytes = bytes,
    );
}

/// Clients tracked before the quota layer prunes idle buckets — a
/// cardinality bound, not a client limit (a pruned idle client just
/// starts over with a full bucket).
const QUOTA_CLIENT_CAP: usize = 4096;

/// Per-client admission for work endpoints: enforces [`QuotaConfig`]
/// against the client's token bucket. Clients are keyed by their
/// `X-Client-Id` header, falling back to the peer IP. Returns a guard
/// that releases the concurrency slot when the request finishes, or the
/// denial reason plus a `Retry-After` hint in whole seconds.
fn admit_client<'a>(
    state: &'a ServerState,
    request: &Request,
    peer_ip: &str,
) -> Result<Option<QuotaGuard<'a>>, (&'static str, u64)> {
    if !state.quota.enabled() {
        return Ok(None);
    }
    let key = match request.header("x-client-id") {
        Some(id) if !id.is_empty() => id.to_string(),
        _ => peer_ip.to_string(),
    };
    let capacity = state.quota.capacity();
    let now = Instant::now();
    let mut clients = state
        .quota_clients
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if clients.len() >= QUOTA_CLIENT_CAP {
        // Idle, fully-refilled buckets carry no state worth keeping.
        clients.retain(|_, b| {
            b.in_flight > 0 || now.duration_since(b.refilled_at) < Duration::from_secs(60)
        });
    }
    let bucket = clients.entry(key.clone()).or_insert(ClientBucket {
        tokens: capacity,
        refilled_at: now,
        in_flight: 0,
    });
    if state.quota.max_concurrent > 0 && bucket.in_flight >= state.quota.max_concurrent {
        return Err(("concurrency", 1));
    }
    if state.quota.rate > 0.0 {
        let dt = now.duration_since(bucket.refilled_at).as_secs_f64();
        bucket.tokens = capacity.min(bucket.tokens + dt * state.quota.rate);
        bucket.refilled_at = now;
        if bucket.tokens < 1.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let wait = ((1.0 - bucket.tokens) / state.quota.rate).ceil() as u64;
            return Err(("rate", wait.clamp(1, 60)));
        }
        bucket.tokens -= 1.0;
    }
    bucket.in_flight += 1;
    #[allow(clippy::cast_possible_wrap)]
    state.quota_client_count.set(clients.len() as i64);
    Ok(Some(QuotaGuard { state, key }))
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(state.read_timeout));
    let _ = stream.set_write_timeout(Some(state.write_timeout));
    let _ = stream.set_nodelay(true);
    // Captured before any read: the quota layer falls back to the peer
    // IP when the client does not identify itself.
    let peer_ip = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut writer = stream;
    let mut reader = match writer.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => return,
    };
    let started = Instant::now();
    let request = match read_request(&mut reader) {
        Ok(r) => r,
        Err(HttpError::Io(_)) => return, // client went away mid-request
        Err(e) => {
            let _ = Response::error(e.status(), &e.to_string()).write_to(&mut writer);
            record_request(state, "", "", e.status(), started.elapsed(), 0);
            // The client may still be sending the body this request was
            // rejected over (413/411).
            drain_then_close(writer, Instant::now() + DRAIN_DEADLINE);
            return;
        }
    };
    state.in_flight.inc();
    let mut writer = CountingWriter {
        inner: writer,
        bytes: 0,
    };
    let status = match (request.method.as_str(), request.route()) {
        ("POST", route @ ("/run" | "/shard")) => match admit_client(state, &request, &peer_ip) {
            Ok(_quota_guard) => {
                if route == "/run" {
                    handle_run(&request, &mut writer, state)
                } else {
                    handle_shard(&request, &mut writer, state)
                }
            }
            Err((reason, retry_after)) => {
                state
                    .metrics
                    .counter(
                        "spnn_quota_shed_total",
                        "Requests shed by per-client quotas, by reason.",
                        &[("reason", reason)],
                    )
                    .inc();
                Response::error(
                    429,
                    &format!("client quota exceeded ({reason}), retry after {retry_after}s"),
                )
                .with_header("Retry-After", retry_after.to_string())
                .send(&mut writer)
            }
        },
        ("GET", "/healthz") => {
            let c = state.counters();
            // Coordinator role: per-worker breaker state, so an operator
            // (or orchestration probe) sees which workers are being
            // skipped without scraping /metrics.
            let breakers = state.breakers().map_or_else(String::new, |b| {
                let entries: Vec<String> = b
                    .snapshot()
                    .into_iter()
                    .map(|(worker, breaker_state)| {
                        format!(
                            "\"{}\": \"{}\"",
                            json::escape(&worker),
                            breaker_state.as_str()
                        )
                    })
                    .collect();
                format!(", \"worker_breakers\": {{{}}}", entries.join(", "))
            });
            let body = format!(
                "{{\"status\": \"ok\", \"version\": \"{}\", \"role\": \"{}\", \
                 \"cores\": {}, \"kernel_profile\": \"{}\", \"kernel_tier\": \"{}\", \
                 \"uptime_seconds\": {}, \"workers\": {}, \
                 \"remote_workers\": {}, \
                 \"runs_started\": {}, \"runs_completed\": {}, \"runs_failed\": {}, \
                 \"shards_completed\": {}, \"shards_failed\": {}{breakers}}}\n",
                env!("CARGO_PKG_VERSION"),
                state.role(),
                std::thread::available_parallelism().map_or(1, |n| n.get()),
                state.engine.kernel.as_str(),
                detected_tier().as_str(),
                state.started_at.elapsed().as_secs(),
                state.workers,
                state.coordinator.as_ref().map_or(0, |c| c.workers.len()),
                c.started,
                c.completed,
                c.failed,
                c.shards_completed,
                c.shards_failed
            );
            Response::json(200, body).send(&mut writer)
        }
        ("GET", "/cache/stats") => {
            let stats = state.cache.stats();
            let dir = match state.cache.dir() {
                Some(d) => format!("\"{}\"", json::escape(&d.display().to_string())),
                None => "null".to_string(),
            };
            let body = format!(
                "{{\"dir\": {dir}, \"mem_hits\": {}, \"disk_hits\": {}, \"trains\": {}, \
                 \"corrupt_healed\": {}, \"flock_waits\": {}}}\n",
                stats.mem_hits,
                stats.disk_hits,
                stats.trains,
                stats.corrupt_healed,
                stats.flock_waits
            );
            Response::json(200, body).send(&mut writer)
        }
        ("GET", "/metrics") => {
            update_latency_quantiles(&state.metrics);
            let body = state.metrics.render();
            Response::text(200, "text/plain; version=0.0.4; charset=utf-8", body).send(&mut writer)
        }
        (_, "/run" | "/shard" | "/healthz" | "/cache/stats" | "/metrics") => {
            Response::error(405, "method not allowed").send(&mut writer)
        }
        (_, route) => Response::error(404, &format!("no such endpoint {route}")).send(&mut writer),
    };
    state.in_flight.dec();
    record_request(
        state,
        &request.method,
        request.route(),
        status,
        started.elapsed(),
        writer.bytes,
    );
}

/// Refreshes the p50/p95/p99 per-route latency gauges from the request
/// duration histograms — called at scrape time, so the gauges are as
/// fresh as the histograms they summarize. The estimate is the same
/// linear interpolation PromQL's `histogram_quantile` applies.
fn update_latency_quantiles(registry: &MetricsRegistry) {
    for series in registry.snapshot() {
        if series.name != "spnn_request_duration_seconds" {
            continue;
        }
        let Reading::Histogram { buckets, count, .. } = &series.value else {
            continue;
        };
        let Some(route) = series
            .labels
            .iter()
            .find(|(k, _)| k == "route")
            .map(|(_, v)| v.as_str())
        else {
            continue;
        };
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            registry
                .float_gauge(
                    "spnn_request_latency_quantile_seconds",
                    "Estimated request latency quantiles per route, derived from \
                     the duration histogram at scrape time.",
                    &[("route", route), ("quantile", label)],
                )
                .set(histogram_quantile(buckets, *count, q));
        }
    }
}

/// Parses and validates the request body as a scenario spec, or the
/// `400` that says why not (with the parser's line number when
/// available).
fn parse_spec(request: &Request) -> Result<ScenarioSpec, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "spec body must be UTF-8 text"))?;
    // Reject before any work starts: parse failures carry the .scn
    // parser's line number, validation failures its message.
    let spec = ScenarioSpec::parse(text)
        .map_err(|e| Response::error_at_line(400, &e.to_string(), e.line))?;
    spec.validate()
        .map_err(|m| Response::error(400, &format!("invalid scenario: {m}")))?;
    Ok(spec)
}

/// The streaming output dialect of a `POST /run` response.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StreamFormat {
    /// One JSON event object per line (the default; see the module docs).
    Ndjson,
    /// CSV rows as they complete — the concatenated stream is
    /// byte-identical to `spnn run --format csv` ([`crate::report::to_csv`]).
    Csv,
}

fn handle_run(request: &Request, writer: &mut impl Write, state: &ServerState) -> u16 {
    let format = match request.query_param("format") {
        None | Some("ndjson") => StreamFormat::Ndjson,
        Some("csv") => StreamFormat::Csv,
        Some(other) => {
            return Response::error(400, &format!("unknown format {other} (ndjson|csv)"))
                .send(writer);
        }
    };
    let spec = match parse_spec(request) {
        Ok(spec) => spec,
        Err(rejection) => return rejection.send(writer),
    };
    // Statically derivable budget violations are rejected before any
    // work (or stream head) exists — the client gets a plain 400 it can
    // act on, not a mid-stream error event.
    if let Some(message) = state.budget.static_violation(&spec) {
        return Response::error(400, &message).send(writer);
    }

    let content_type = match format {
        StreamFormat::Ndjson => "application/x-ndjson",
        StreamFormat::Csv => "text/csv",
    };

    // Cross-request dedup: identical in-flight bodies share one
    // execution. The first request with a given (body, format) key runs
    // the scenario; every concurrent duplicate subscribes to its stream
    // and receives byte-identical output.
    let key: RunKey = (request.body.clone(), format as u8);
    let run = {
        let mut map = state
            .inflight_runs
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        match map.get(&key) {
            Some(run) => {
                let run = Arc::clone(run);
                drop(map);
                return follow_run(&run, writer, state, content_type);
            }
            None => {
                let run = Arc::new(InflightRun::new());
                map.insert(key.clone(), Arc::clone(&run));
                run
            }
        }
    };
    let _guard = LeaderGuard {
        state,
        key,
        run: Arc::clone(&run),
    };

    state.started.inc();
    // A client that disconnects mid-stream (or before the head is even
    // out) must not kill the run: subscribers may be sharing this
    // stream, and the sweep completes either way — warming the shared
    // caches for the retry. Further writes to this socket are skipped.
    let mut broken = Response::write_streaming_head(writer, 200, content_type).is_err();
    let mut emit = |line: String| {
        // Subscribers first: the shared buffer is never gated by this
        // socket's state.
        run.push_line(&line);
        if broken {
            return;
        }
        if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
            broken = true;
        }
    };
    // Per-request cancellation seam for the runtime budget meter. The
    // worker path uses a standalone token, so only the meter can trip it
    // and in-flight streams drain through a graceful shutdown. The
    // coordinator path chains off the server token so shutdown still
    // cancels remote dispatch.
    let request_cancel = if state.coordinator.is_some() {
        state.cancel.child()
    } else {
        CancelToken::new()
    };
    let mut meter = BudgetMeter::new(state.budget, spec.round_size);
    let mut budget_msg: Option<String> = None;
    // Both execution paths feed the same observer: the CSV writer shares
    // the report's row formatter, the NDJSON writer the event formatter —
    // streamed output cannot diverge from the batch renderings. The
    // budget meter audits the same stream and trips the request token at
    // the first violation; rows already emitted stay bit-identical to an
    // unbudgeted run.
    let mut header_written = false;
    let mut observe = |event: StreamEvent<'_>| {
        if budget_msg.is_none() {
            if let Some(message) = meter.observe(&event) {
                budget_msg = Some(message);
                request_cancel.cancel();
            }
        }
        match format {
            StreamFormat::Ndjson => emit(event_line(&event)),
            StreamFormat::Csv => {
                if let StreamEvent::Row { row, .. } = event {
                    let keys = label_keys(row);
                    if !header_written {
                        header_written = true;
                        emit(csv_header(&keys));
                    }
                    emit(csv_row(row, &keys));
                }
            }
        }
    };
    // Worker: the one-shard local run. Coordinator: one shard per peer,
    // merged as they arrive; the executor retries a failed worker's
    // shard on the next worker, skipping workers whose circuit breaker
    // is open.
    let (executor, shards): (&dyn Executor, usize) = match &state.coordinator {
        Some(remote) => (remote, remote.peers()),
        None => (&LocalExecutor, 1),
    };
    let ctx = ExecContext {
        config: &state.engine,
        cache: &state.cache,
        cancel: &request_cancel,
    };
    let result =
        run_distributed(&spec, executor, shards, &ctx, &mut observe).map_err(|e| e.to_string());
    match result {
        Ok(report) => {
            match format {
                StreamFormat::Ndjson => emit(done_line(&report)),
                StreamFormat::Csv => {
                    if report.rows.is_empty() {
                        // No rows ever streamed: emit the bare header so
                        // the stream still equals `to_csv(report)`.
                        emit(crate::report::to_csv(&report));
                    }
                }
            }
            state.completed.inc();
            run.finish(true);
        }
        Err(message) => {
            // A budget abort surfaces the meter's structured reason, not
            // the runner's generic cancellation error.
            let message = budget_msg.take().unwrap_or(message);
            match format {
                StreamFormat::Ndjson => emit(format!(
                    "{{\"event\": \"error\", \"message\": \"{}\"}}\n",
                    json::escape(&message)
                )),
                // CSV has no event framing; a comment line is the best a
                // mid-stream failure can do.
                StreamFormat::Csv => emit(format!("# error: {message}\n")),
            }
            state.failed.inc();
            run.finish(false);
        }
    }
    200
}

/// Streams a deduplicated `/run` response: replays the leader's buffered
/// lines, then follows the live stream until the shared execution
/// finishes. Subscribers only ever read the shared buffer, so a slow or
/// mid-stream-disconnected subscriber cannot affect the leader or any
/// other subscriber.
fn follow_run(
    run: &InflightRun,
    writer: &mut impl Write,
    state: &ServerState,
    content_type: &str,
) -> u16 {
    state.started.inc();
    state.dedup_fanouts.inc();
    state.dedup_subscribers.inc();
    let mut broken = Response::write_streaming_head(writer, 200, content_type).is_err();
    let mut pos = 0usize;
    let ok = loop {
        let (chunk, finished, ok) = {
            let mut buf = run.lock_buffer();
            while buf.lines.len() == pos && !buf.done {
                buf = run.cv.wait(buf).unwrap_or_else(|p| p.into_inner());
            }
            (buf.lines[pos..].to_vec(), buf.done, buf.ok)
        };
        pos += chunk.len();
        for line in &chunk {
            if broken {
                break;
            }
            if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
                broken = true;
            }
        }
        if finished {
            break ok;
        }
    };
    state.dedup_subscribers.dec();
    // Mirror the leader's accounting: the shared run's outcome decides,
    // not this socket's health.
    if ok {
        state.completed.inc();
    } else {
        state.failed.inc();
    }
    200
}

/// `POST /shard?shards=K&index=I` — the worker half of distributed
/// serving: runs exactly one deterministic slice of the spec's queue and
/// returns the [`PartialReport`] JSON (`spnn merge`-compatible, the same
/// bytes `spnn run --shards K --shard-index I` writes).
///
/// `POST /shard?span=LO-HI` is the weighted/stealing variant: instead of
/// an equal 1-of-K slice the coordinator names an explicit half-open
/// round-space range. Both forms produce overlapping-merge-safe partials
/// because every iteration's bits depend only on `(seed, k)`.
fn handle_shard(request: &Request, writer: &mut impl Write, state: &ServerState) -> u16 {
    // Test-only chaos hook: an operator-invisible way for the CI chaos
    // job to slow one worker without a proxy. Parsed per-request so the
    // shell can export it before spawning just the straggler.
    if let Ok(ms) = std::env::var("SPNN_TEST_SHARD_DELAY_MS") {
        if let Ok(ms) = ms.parse::<u64>() {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
    let slice = match Slice::from_query(|key| request.query_param(key)) {
        Ok(slice) => slice,
        Err(message) => return Response::error(400, &message).send(writer),
    };
    // Coordinator-selected kernel profile: the coordinator appends
    // `&kernel=fma` so every worker computes the same bits it expects
    // (the partial's fingerprint is profile-scoped, so a worker that
    // ignored this would be rejected as foreign). Absent means the
    // worker's own configured profile.
    let engine = match request.query_param("kernel") {
        None => state.engine.clone(),
        Some(raw) => match raw.parse::<KernelProfile>() {
            Ok(kernel) => {
                let mut engine = state.engine.clone();
                engine.kernel = kernel;
                engine
            }
            Err(e) => return Response::error(400, &e).send(writer),
        },
    };
    let spec = match parse_spec(request) {
        Ok(spec) => spec,
        Err(rejection) => return rejection.send(writer),
    };
    let response = match run_slice(&spec, &engine, &state.cache, slice) {
        Ok(partial) => Response::json(200, partial.to_json()),
        Err(EngineError::Invalid(message)) => Response::error(400, &message),
        Err(e) => Response::error(500, &e.to_string()),
    };
    if response.status == 200 {
        state.shards_completed.inc();
    } else {
        state.shards_failed.inc();
    }
    response.send(writer)
}

/// Serializes one [`StreamEvent`] as its NDJSON line (newline included).
fn event_line(event: &StreamEvent<'_>) -> String {
    let mut out = String::with_capacity(256);
    match event {
        StreamEvent::Started {
            scenario,
            total_points,
        } => {
            let _ = write!(
                out,
                "{{\"event\": \"started\", \"scenario\": \"{}\", \"total_points\": {total_points}",
                json::escape(scenario)
            );
        }
        StreamEvent::Topology(t) => {
            out.push_str("{\"event\": \"topology\", ");
            report::write_topology(&mut out, t);
        }
        StreamEvent::Row { index, row } => {
            let _ = write!(
                out,
                "{{\"event\": \"row\", \"index\": {index}, \"topology\": \"{}\", ",
                json::escape(&row.topology)
            );
            report::write_labels(&mut out, &row.labels);
            out.push_str(", ");
            report::write_estimate(&mut out, row);
        }
    }
    out.push_str("}\n");
    out
}

/// The NDJSON line that ends a completed run's stream.
fn done_line(report: &EngineReport) -> String {
    format!(
        "{{\"event\": \"done\", \"scenario\": \"{}\", \"rows\": {}}}\n",
        json::escape(&report.scenario),
        report.rows.len()
    )
}

/// Why an NDJSON stream could not be assembled into a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// A line is not a readable event object.
    Format(String),
    /// The stream ended without a `done` event, or its events are
    /// inconsistent (out-of-order rows, wrong counts).
    Incomplete(String),
    /// The stream carries a server-side `error` event.
    Run(String),
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::Format(m) => write!(f, "unreadable event stream: {m}"),
            AssembleError::Incomplete(m) => write!(f, "incomplete event stream: {m}"),
            AssembleError::Run(m) => write!(f, "run failed server-side: {m}"),
        }
    }
}

impl std::error::Error for AssembleError {}

/// Reassembles the [`EngineReport`] from a completed `POST /run` NDJSON
/// stream.
///
/// The assembled report is **byte-identical** (through
/// [`crate::report::to_json`] / [`crate::report::to_csv`]) to what
/// `spnn run` produces for the same spec: every float crosses the wire
/// in shortest-round-trip decimal form and is recovered from the
/// literal digits. Pinned by tests and by the CI `serve` job.
///
/// # Errors
///
/// - [`AssembleError::Format`] on unparseable lines or missing fields;
/// - [`AssembleError::Incomplete`] when the stream lacks `started`/`done`
///   events, a `topology`, `row` or `done` event precedes `started`,
///   `started` repeats, `done` names another scenario, rows arrive out
///   of order, or counts disagree;
/// - [`AssembleError::Run`] when the stream ends with a server-side
///   `error` event.
pub fn assemble_report(ndjson: &str) -> Result<EngineReport, AssembleError> {
    let mut scenario: Option<String> = None;
    let mut total_points: usize = 0;
    let mut topologies: Vec<TopologySummary> = Vec::new();
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut done = false;

    for (i, line) in ndjson.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = i + 1;
        let incomplete = |msg: String| AssembleError::Incomplete(format!("line {at}: {msg}"));
        if done {
            return Err(incomplete("content after the done event".into()));
        }
        let v = json::parse(line).map_err(|e| AssembleError::Format(format!("line {at}: {e}")))?;
        let event: &str = v
            .field("event")
            .map_err(|e| AssembleError::Format(format!("line {at}: {e}")))?;
        let format = |e: String| AssembleError::Format(format!("line {at}: {event} event: {e}"));
        match (event, scenario.as_deref()) {
            ("started", Some(_)) => return Err(incomplete("a second started event".into())),
            ("started", None) => {
                scenario = Some(v.field("scenario").map_err(format)?);
                total_points = v.field("total_points").map_err(format)?;
            }
            ("topology" | "row" | "done", None) => {
                return Err(incomplete(format!(
                    "{event} event before the started event"
                )));
            }
            ("topology", _) => topologies.push(report::read_topology(&v).map_err(format)?),
            ("row", _) => {
                let index: usize = v.field("index").map_err(format)?;
                if index != rows.len() {
                    return Err(incomplete(format!(
                        "row index {index} where {} was expected",
                        rows.len()
                    )));
                }
                rows.push(report::read_row(&v).map_err(format)?);
            }
            ("done", Some(started)) => {
                let name: &str = v.field("scenario").map_err(format)?;
                if name != started {
                    return Err(incomplete(format!(
                        "done event for scenario {name:?} in a stream started for {started:?}"
                    )));
                }
                let n: usize = v.field("rows").map_err(format)?;
                if n != rows.len() {
                    return Err(incomplete(format!(
                        "done event says {n} row(s) but {} arrived",
                        rows.len()
                    )));
                }
                done = true;
            }
            ("error", _) => {
                return Err(AssembleError::Run(
                    v.field("message")
                        .unwrap_or_else(|_| "(no message)".to_string()),
                ));
            }
            // Forward compatibility: skip events this build does not
            // know, as long as the known ones are consistent.
            _ => {}
        }
    }

    let Some(scenario) = scenario else {
        return Err(AssembleError::Incomplete("no started event".into()));
    };
    if !done {
        return Err(AssembleError::Incomplete(format!(
            "stream ended after {} of {total_points} row(s) without a done event",
            rows.len()
        )));
    }
    if rows.len() != total_points {
        return Err(AssembleError::Incomplete(format!(
            "started event announced {total_points} point(s) but {} arrived",
            rows.len()
        )));
    }
    Ok(EngineReport {
        scenario,
        topologies,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::arbitrary;
    use proptest::prelude::*;

    fn row(index: usize) -> SweepRow {
        SweepRow {
            topology: "clements".into(),
            labels: vec![
                ("mode".into(), "both".into()),
                ("sigma".into(), "0.05".into()),
            ],
            mean: 1.0 / 3.0,
            std_dev: 0.49999999999999994,
            moe95: f64::MIN_POSITIVE,
            iterations: 10 + index,
            stopped_early: index == 0,
        }
    }

    /// The NDJSON stream a completed run of `report` writes.
    fn stream_of(report: &EngineReport) -> String {
        let mut out = event_line(&StreamEvent::Started {
            scenario: &report.scenario,
            total_points: report.rows.len(),
        });
        for t in &report.topologies {
            out.push_str(&event_line(&StreamEvent::Topology(t)));
        }
        for (index, row) in report.rows.iter().enumerate() {
            out.push_str(&event_line(&StreamEvent::Row { index, row }));
        }
        out.push_str(&done_line(report));
        out
    }

    fn stream_for(rows: &[SweepRow]) -> String {
        stream_of(&EngineReport {
            scenario: "demo".into(),
            topologies: vec![TopologySummary {
                topology: "clements".into(),
                software_accuracy: 0.9375,
                nominal_accuracy: 0.90625,
            }],
            rows: rows.to_vec(),
        })
    }

    #[test]
    fn events_assemble_into_the_exact_report() {
        let rows = vec![row(0), row(1)];
        let report = assemble_report(&stream_for(&rows)).unwrap();
        assert_eq!(report.scenario, "demo");
        assert_eq!(report.topologies.len(), 1);
        assert_eq!(report.rows.len(), 2);
        for (got, want) in report.rows.iter().zip(&rows) {
            assert_eq!(got.labels, want.labels);
            assert_eq!(got.mean.to_bits(), want.mean.to_bits());
            assert_eq!(got.std_dev.to_bits(), want.std_dev.to_bits());
            assert_eq!(got.moe95.to_bits(), want.moe95.to_bits());
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(got.stopped_early, want.stopped_early);
        }
    }

    #[test]
    fn assembler_rejects_truncated_and_disordered_streams() {
        let rows = vec![row(0), row(1)];
        let full = stream_for(&rows);

        // Truncation: drop the done line.
        let cut = full
            .rsplit_once('\n')
            .unwrap()
            .0
            .rsplit_once('\n')
            .unwrap()
            .0;
        assert!(matches!(
            assemble_report(cut),
            Err(AssembleError::Incomplete(_))
        ));

        // Row indices must be contiguous from zero.
        let swapped = full
            .replace("\"index\": 0", "\"index\": 9")
            .replace("\"index\": 1", "\"index\": 0");
        assert!(matches!(
            assemble_report(&swapped),
            Err(AssembleError::Incomplete(_))
        ));

        // A server-side failure surfaces as Run.
        let failed = "{\"event\": \"started\", \"scenario\": \"x\", \"total_points\": 1}\n\
                      {\"event\": \"error\", \"message\": \"mapping failed\"}\n";
        assert!(matches!(
            assemble_report(failed),
            Err(AssembleError::Run(_))
        ));

        // Garbage is Format.
        assert!(matches!(
            assemble_report("not json\n"),
            Err(AssembleError::Format(_))
        ));
        assert!(matches!(
            assemble_report(""),
            Err(AssembleError::Incomplete(_))
        ));
    }

    #[test]
    fn unknown_events_are_skipped_for_forward_compatibility() {
        let rows = vec![row(0)];
        let mut text = stream_for(&rows);
        let insert_at = text.find("{\"event\": \"row\"").unwrap();
        text.insert_str(insert_at, "{\"event\": \"progress\", \"pct\": 50}\n");
        assert!(assemble_report(&text).is_ok());
    }

    #[test]
    fn assembler_rejects_events_around_the_started_event() {
        let lines = [
            r#"{"event": "started", "scenario": "x", "total_points": 1}"#,
            r#"{"event": "topology", "topology": "t", "software_accuracy": 0.5, "nominal_accuracy": 0.5}"#,
            r#"{"event": "row", "index": 0, "topology": "t", "labels": [], "mean_accuracy": 0.5, "std_dev": 0, "moe95": 0, "iterations": 1, "stopped_early": false}"#,
            r#"{"event": "done", "scenario": "x", "rows": 1}"#,
            r#"{"event": "started", "scenario": "y", "total_points": 1}"#,
            r#"{"event": "done", "scenario": "y", "rows": 1}"#,
        ];
        let stream = |order: &[usize]| -> String {
            order.iter().map(|&i| format!("{}\n", lines[i])).collect()
        };
        assert!(assemble_report(&stream(&[0, 1, 2, 3])).is_ok());
        for order in [
            &[2, 0, 1, 4, 3][..], // a row first; started twice; done for "x"
            &[2, 0, 1, 3],        // a row before started
            &[1, 0, 2, 3],        // a topology before started
            &[0, 1, 4, 2, 3],     // a second started
            &[0, 1, 2, 5],        // done names another scenario
        ] {
            assert!(
                matches!(
                    assemble_report(&stream(order)),
                    Err(AssembleError::Incomplete(_))
                ),
                "{order:?}"
            );
        }
    }

    /// A report with every field drawn at random: wire strings and any
    /// finite float bit patterns.
    fn any_report() -> impl Strategy<Value = EngineReport> {
        let topology = (arbitrary::text(), arbitrary::finite(), arbitrary::finite()).prop_map(
            |(topology, software_accuracy, nominal_accuracy)| TopologySummary {
                topology,
                software_accuracy,
                nominal_accuracy,
            },
        );
        let row = (
            arbitrary::text(),
            collection::vec((arbitrary::text(), arbitrary::text()), 0..3),
            (
                arbitrary::finite(),
                arbitrary::finite(),
                arbitrary::finite(),
            ),
            (0usize..1 << 40, 0u8..2),
        )
            .prop_map(
                |(topology, labels, (mean, std_dev, moe95), (iterations, stopped))| SweepRow {
                    topology,
                    labels,
                    mean,
                    std_dev,
                    moe95,
                    iterations,
                    stopped_early: stopped == 1,
                },
            );
        (
            arbitrary::text(),
            collection::vec(topology, 0..3),
            collection::vec(row, 0..4),
        )
            .prop_map(|(scenario, topologies, rows)| EngineReport {
                scenario,
                topologies,
                rows,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn event_lines_assemble_into_any_report(report in any_report()) {
            let assembled = assemble_report(&stream_of(&report)).unwrap();
            prop_assert_eq!(report::to_json(&assembled), report::to_json(&report));
            prop_assert_eq!(report::to_csv(&assembled), report::to_csv(&report));
        }

        #[test]
        fn damaged_streams_assemble_without_panicking(
            report in any_report(),
            damage in collection::vec(arbitrary::damage(), 4..5),
        ) {
            let stream = stream_of(&report);
            for d in damage {
                for mangled in arbitrary::mangle(&stream, d) {
                    let _ = assemble_report(&mangled);
                }
            }
        }
    }
}
