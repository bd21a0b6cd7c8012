//! The Executor layer: one seam for local, child-process, and remote
//! shard execution — with merge-as-they-arrive streaming.
//!
//! Every way to run a scenario implements one trait:
//!
//! - [`Executor`] — "run all `k` shards of this spec, hand me each
//!   [`PartialReport`] as it completes, in whatever order they finish."
//! - [`LocalExecutor`] — in-process threads: prepares the scenario
//!   **once** (training comes from the shared [`ContextCache`]) and runs
//!   every shard on the prepared queue. With one shard it **is** the
//!   unsharded run: [`crate::run_scenario_streaming_with`] calls
//!   [`run_distributed`] with [`LocalExecutor`] and `shards == 1`.
//! - [`SpawnExecutor`] — child processes: one
//!   `spnn run --shards k --shard-index i` per shard on the canonical
//!   spec text, cache pre-warmed by the parent, cores split across
//!   children.
//! - [`RemoteExecutor`] — worker `spnn serve` instances (see
//!   [`crate::serve`]) over `POST /shard`, a failed worker's slice
//!   retried on the next; its fleet builders add local peers, capacity
//!   weights and work stealing to the same plan.
//!
//! All three run one slice loop. It takes a plan of slices (shard `i` of
//! `k`, or a round-space span) and runs each on a thread of its own with
//! one of three slice runners: the blocks of the one prepared scenario
//! in process, a child process, or an HTTP worker. The calling thread
//! runs a lone local slice itself and delivers what the slice threads
//! send as it arrives. When any slice runs in process, the prepared
//! scenario's header is delivered before any slice starts, so `Started`
//! precedes every block; and each slice waits until its block was
//! delivered before it starts the next, so the observer paces the sweep.
//!
//! [`run_distributed`] is the single driver on top: it feeds arriving
//! partials into the incremental [`MergeState`] and emits the engine's
//! usual [`StreamEvent`]s the moment a row's coverage is decidable —
//! rows stream in prefix order from whichever shard finishes first, and
//! the finalized report is byte-identical to the one-shard run (CI-gated,
//! like every other execution path).
//!
//! Cancellation is cooperative: every long operation polls a
//! [`CancelToken`] — local slices between blocks, remote dispatches
//! mid-read. SIGTERM is observed in one place only: `spnn serve`'s accept
//! loop ([`crate::serve::Server::run`]) sees [`process_shutdown_requested`]
//! and cancels the server token. Coordinator request tokens are its
//! children, so one SIGTERM to a coordinator stops new dispatches and
//! abandons outstanding remote shards (workers finish their slices and
//! find nobody reading; their own lifecycle is independent), while local
//! streams hold standalone tokens and drain.

use crate::cache::ContextCache;
use crate::http::{self, FetchResponse};
use crate::metrics::{self, Counter, MetricsRegistry, Reading};
use crate::rowcache::{RowContext, RowManifest};
use crate::runner::{
    execute_blocks, persist_context, prepare, replay_cached_scenario, sweep_rounds_per_point,
    thread_budget, EngineConfig, EngineError, EngineReport, PreparedScenario, StreamEvent,
};
use crate::shard::{
    queue_fingerprint_with, weighted_span, MergeError, MergeState, PartialReport, Slice,
};
use crate::spec::ScenarioSpec;
use crate::tevent;
use crate::trace::Level;
use spnn_core::KernelProfile;
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// The process-wide shutdown flag, set by the signal handler installed
/// with [`install_signal_handlers`].
static PROCESS_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// `true` once SIGTERM/SIGINT has been received (after
/// [`install_signal_handlers`]).
pub fn process_shutdown_requested() -> bool {
    PROCESS_SHUTDOWN.load(Ordering::Relaxed)
}

#[cfg(unix)]
mod signals {
    use super::PROCESS_SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    /// Async-signal-safe by construction: one atomic store, or `_exit`
    /// on the second signal (an operator pressing Ctrl-C twice means
    /// *now*).
    extern "C" fn on_shutdown_signal(_signum: i32) {
        if PROCESS_SHUTDOWN.swap(true, Ordering::Relaxed) {
            unsafe { _exit(130) }
        }
    }

    pub fn install() -> bool {
        const SIG_ERR: usize = usize::MAX;
        let handler = on_shutdown_signal as extern "C" fn(i32) as usize;
        // SAFETY: registering an async-signal-safe handler for two
        // standard termination signals.
        unsafe { signal(SIGTERM, handler) != SIG_ERR && signal(SIGINT, handler) != SIG_ERR }
    }
}

/// Installs SIGTERM/SIGINT handlers that request a graceful shutdown:
/// the first signal sets the process-wide flag
/// ([`process_shutdown_requested`]) — `spnn serve`'s accept loop sees it,
/// cancels the server token, stops accepting, finishes in-flight local
/// streams, cancels outstanding remote shards, then exits; a second
/// signal exits immediately with status 130.
///
/// Returns `false` when handlers could not be installed (non-Unix
/// platforms, or a hostile environment) — the process then keeps the
/// default terminate-on-signal behavior.
pub fn install_signal_handlers() -> bool {
    #[cfg(unix)]
    {
        signals::install()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// A shareable, cloneable cancellation flag.
///
/// [`CancelToken::is_cancelled`] reports `true` once
/// [`cancel`](CancelToken::cancel) was called on this token (or any clone),
/// *or* once any ancestor token (see [`CancelToken::child`]) was
/// cancelled. Tokens never read the process-wide shutdown flag: the
/// server's accept loop turns a signal into a cancellation of its own
/// token (see [`install_signal_handlers`]).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Cancellation flows down a parent chain, never up: cancelling a
    /// child (e.g. one over-budget request) leaves the parent (the
    /// server) running.
    parent: Option<Box<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A child token that observes this token's cancellation in addition
    /// to its own — the seam for per-request aborts: the server cancels
    /// one request's child token (budget violation) without touching its
    /// own, while a server shutdown still cancels every child.
    pub fn child(&self) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Box::new(self.clone())),
        }
    }

    /// Requests cancellation on this token and all its clones (and, via
    /// the parent chain, all its children — but never its ancestors).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once cancelled — directly or via an ancestor.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

// ---------------------------------------------------------------------------
// The Executor seam
// ---------------------------------------------------------------------------

/// Shared context an [`Executor`] runs under: execution knobs, the
/// trained-context cache, and the cancellation token.
#[derive(Debug, Clone, Copy)]
pub struct ExecContext<'a> {
    /// Execution knobs (threads, verbosity, cache directory) — like
    /// everywhere else in the engine, nothing here may change results.
    pub config: &'a EngineConfig,
    /// The trained-context cache. [`LocalExecutor`] trains/loads through
    /// it once before fan-out; [`SpawnExecutor`] pre-warms it so child
    /// processes all load instead of training `k` times; workers reached
    /// by [`RemoteExecutor`] have their own.
    pub cache: &'a ContextCache,
    /// Cooperative cancellation (see [`CancelToken`]).
    pub cancel: &'a CancelToken,
}

/// Why an executor could not produce every shard.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// Scenario preparation failed (validation, mapping) before any
    /// shard ran.
    Engine(EngineError),
    /// A child process could not be launched, exited non-zero, or wrote
    /// an unreadable partial.
    Spawn(String),
    /// A shard could not be computed by any worker.
    Remote(String),
    /// Execution was cancelled before every shard completed.
    Cancelled,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Engine(e) => write!(f, "{e}"),
            ExecError::Spawn(m) => write!(f, "shard process failed: {m}"),
            ExecError::Remote(m) => write!(f, "remote execution failed: {m}"),
            ExecError::Cancelled => write!(f, "execution cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Engine(e)
    }
}

/// A strategy for executing every shard of a `k`-way split of one
/// scenario.
///
/// Implementations must deliver [`PartialReport`]s to `deliver` **as
/// they complete**, in any order, from the calling thread
/// ([`run_distributed`] feeds them straight into [`MergeState`], which is how
/// merge-as-they-arrive streaming falls out). A partial may hold a whole
/// shard's blocks, any part of them, or none: [`LocalExecutor`] delivers
/// a header-only partial as soon as the scenario is prepared, then one
/// partial per finished block. Returning `Ok(())` promises every block of
/// every shard `0..shards` was delivered.
///
/// `deliver` returns `false` when the consumer rejected the partial
/// (e.g. it does not merge) — the executor should stop wasting work
/// where it can, and preserve any on-disk artifacts it would normally
/// clean up, so the operator can inspect what was produced.
pub trait Executor {
    /// A short human-readable name for logs (`local`, `spawn`, `remote`).
    fn name(&self) -> &'static str;

    /// Executes shards `0..shards` of `spec`, delivering each partial as
    /// it completes.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] when any shard could not be produced;
    /// partials already delivered may have been handed out before the
    /// failure surfaced.
    fn execute(
        &self,
        spec: &ScenarioSpec,
        shards: usize,
        ctx: &ExecContext<'_>,
        deliver: &mut dyn FnMut(PartialReport) -> bool,
    ) -> Result<(), ExecError>;
}

impl fmt::Debug for dyn Executor + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Executor({})", self.name())
    }
}

// ---------------------------------------------------------------------------
// LocalExecutor
// ---------------------------------------------------------------------------

/// In-process execution: prepares the scenario once (one training/cache
/// load, one queue compilation) and runs every shard on a thread of its
/// own, splitting the cores between them (one shard runs on the calling
/// thread).
///
/// The merge gets the scenario's header (name, topologies, point count)
/// as soon as preparation returns, so `Started` precedes any Monte-Carlo
/// work, and then each block the moment it finishes. A slice starts no
/// block before its previous one was delivered, and polls the context's
/// token between blocks. With `shards == 1` this is exactly the
/// unsharded run, on no extra thread: [`crate::run_scenario_streaming_with`] is
/// [`run_distributed`] over this executor with one shard.
#[derive(Debug, Clone, Default)]
pub struct LocalExecutor;

impl Executor for LocalExecutor {
    fn name(&self) -> &'static str {
        "local"
    }

    fn execute(
        &self,
        spec: &ScenarioSpec,
        shards: usize,
        ctx: &ExecContext<'_>,
        deliver: &mut dyn FnMut(PartialReport) -> bool,
    ) -> Result<(), ExecError> {
        let prep = prepare(spec, ctx.config, ctx.cache)?;
        let rounds = sweep_rounds_per_point(&prep);
        let config = EngineConfig {
            threads: Some(thread_budget(ctx.config.threads, shards)),
            ..ctx.config.clone()
        };
        let runner = Runner::Local {
            prep: &prep,
            rounds: &rounds,
            config: &config,
        };
        let slices = (0..shards)
            .map(|index| (Slice::Shard { shards, index }, runner))
            .collect();
        fan_out(slices, Some(&prep), None, ctx, deliver)
    }
}

// ---------------------------------------------------------------------------
// SpawnExecutor
// ---------------------------------------------------------------------------

/// Child-process execution: each shard is one
/// `spnn run --shards k --shard-index i` child on this machine, launched
/// and awaited by its slice thread, whose partial file is delivered as
/// the child exits.
///
/// Children run the **canonical** spec text (`ScenarioSpec::to_text`
/// round-trips exactly, so queue fingerprints match) from a scratch
/// directory of their own per call; presets and env-scaled specs need no
/// environment agreement. When the shared cache has a persistence
/// directory the parent pre-warms it first, so `k` cold children all
/// load the trained context instead of training it `k` times
/// concurrently. A failed or rejected shard keeps the scratch directory
/// for inspection.
#[derive(Debug, Clone)]
pub struct SpawnExecutor {
    /// Path to the `spnn` binary to launch (the CLI passes
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
}

impl Executor for SpawnExecutor {
    fn name(&self) -> &'static str {
        "spawn"
    }

    fn execute(
        &self,
        spec: &ScenarioSpec,
        shards: usize,
        ctx: &ExecContext<'_>,
        deliver: &mut dyn FnMut(PartialReport) -> bool,
    ) -> Result<(), ExecError> {
        // One scratch directory per call: two runs of one spec in one
        // process must not share (or delete) each other's part files.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let fp = queue_fingerprint_with(spec, ctx.config.kernel);
        let dir = std::env::temp_dir().join(format!(
            "spnn-exec-{}-{}-{}",
            std::process::id(),
            &fp[..12],
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| ExecError::Spawn(format!("creating {}: {e}", dir.display())))?;
        let spec_path = dir.join(SPEC_FILE);
        std::fs::write(&spec_path, spec.to_text())
            .map_err(|e| ExecError::Spawn(format!("writing {}: {e}", spec_path.display())))?;

        // Pre-warm the shared cache once in the parent (wall-clock only;
        // results are identical either way).
        if ctx.cache.dir().is_some() {
            let _ = ctx.cache.get_or_train(spec, ctx.config.verbose);
        }
        let children = Children {
            exe: &self.exe,
            dir: &dir,
            threads: thread_budget(ctx.config.threads, shards),
            ctx,
        };
        let slices = (0..shards)
            .map(|index| (Slice::Shard { shards, index }, Runner::Child(&children)))
            .collect();
        match fan_out(slices, None, None, ctx, deliver) {
            Err(ExecError::Spawn(message)) => {
                let kept = format!("shard scratch kept for inspection: {}", dir.display());
                if ctx.config.verbose {
                    // The caller may surface a more specific (e.g. merge)
                    // error instead of this one; the scratch location must
                    // not get lost with it.
                    eprintln!("[exec] {kept}");
                }
                Err(ExecError::Spawn(format!("{message}; {kept}")))
            }
            other => {
                let _ = std::fs::remove_dir_all(&dir);
                other
            }
        }
    }
}

/// The spec file in a [`SpawnExecutor`] run's scratch directory.
const SPEC_FILE: &str = "scenario.scn";

/// What every child process of one [`SpawnExecutor`] run shares.
struct Children<'a> {
    exe: &'a Path,
    /// The run's scratch directory: the spec file and every part file.
    dir: &'a Path,
    /// Worker threads per child.
    threads: usize,
    ctx: &'a ExecContext<'a>,
}

impl Children<'_> {
    /// Runs `slice` in a child process and reads back the partial it
    /// wrote.
    fn run(&self, slice: Slice) -> Result<PartialReport, String> {
        let Slice::Shard { shards, index } = slice else {
            return Err(format!("{slice}: a child process runs whole shards only"));
        };
        let (config, verbose) = (self.ctx.config, self.ctx.config.verbose);
        let part = self.dir.join(format!("part-{index}.json"));
        let mut cmd = std::process::Command::new(self.exe);
        cmd.arg("run")
            .arg(self.dir.join(SPEC_FILE))
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--shard-index")
            .arg(index.to_string())
            .arg("--out")
            .arg(&part)
            .arg("--quiet")
            .arg("--threads")
            .arg(self.threads.to_string())
            .stdout(std::process::Stdio::null());
        if !verbose {
            cmd.stderr(std::process::Stdio::null());
        }
        // Reference children keep the historical command line; only a
        // non-default profile is forwarded explicitly.
        if config.kernel != KernelProfile::Reference {
            cmd.arg("--kernel").arg(config.kernel.as_str());
        }
        match self.ctx.cache.dir() {
            Some(dir) => cmd.arg("--cache-dir").arg(dir),
            None => cmd.arg("--no-cache"),
        };
        // Children can only share an on-disk row cache; an in-memory
        // tier (or none) in the parent means the children run cold.
        match config.row_cache.as_ref().and_then(|rc| rc.dir()) {
            Some(dir) => cmd.arg("--row-cache-dir").arg(dir),
            None => cmd.arg("--no-row-cache"),
        };
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning shard {index}: {e}"))?;
        if verbose {
            eprintln!("[exec] spawned {slice} (pid {})", child.id());
        }
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => return Err(format!("shard {index}: exited with {status}")),
            Err(e) => return Err(format!("shard {index}: waiting: {e}")),
        }
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("shard {index}: reading {}: {e}", part.display()))?;
        PartialReport::parse(&text).map_err(|e| format!("shard {index}: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Worker circuit breakers
// ---------------------------------------------------------------------------

/// Tuning for [`WorkerBreakers`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that open a worker's breaker.
    pub failure_threshold: u32,
    /// How long an open breaker skips its worker before allowing a
    /// half-open trial (lazily on the next dispatch, or eagerly via the
    /// coordinator's background `/healthz` prober).
    pub cooldown: std::time::Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: std::time::Duration::from_secs(10),
        }
    }
}

/// The state of one worker's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: dispatches flow normally.
    Closed,
    /// Tripped: the worker is skipped until the cooldown elapses.
    Open,
    /// Probation: one trial (dispatch or probe) decides — success closes
    /// the breaker, failure re-opens it for another cooldown.
    HalfOpen,
}

impl BreakerState {
    /// Lower-case name, as reported by `/healthz`.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// The `spnn_worker_breaker_state` gauge encoding:
    /// 0 closed, 1 open, 2 half-open.
    fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

#[derive(Debug)]
struct BreakerEntry {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<std::time::Instant>,
    gauge: crate::metrics::Gauge,
}

/// Per-worker circuit breakers shared by every dispatch a coordinator
/// makes: consecutive failures open a worker's breaker, an open breaker
/// skips the worker (zero dispatch attempts) for a cooldown, and a
/// half-open trial — the next dispatch after the cooldown, or a
/// background `GET /healthz` probe — decides whether it closes or
/// re-opens. This replaces rediscovering a dead worker from scratch on
/// every shard attempt.
///
/// State per worker is surfaced as the `spnn_worker_breaker_state{worker}`
/// gauge (0 closed, 1 open, 2 half-open) and in the coordinator's
/// `/healthz` body. Breakers affect **placement only** — which worker
/// computes a slice — never results: the shard planner is deterministic,
/// so any admitted worker produces the identical partial.
#[derive(Debug)]
pub struct WorkerBreakers {
    config: BreakerConfig,
    registry: MetricsRegistry,
    inner: std::sync::Mutex<std::collections::HashMap<String, BreakerEntry>>,
}

impl WorkerBreakers {
    /// Fresh breakers (all closed), registering per-worker state gauges
    /// in `registry` as workers are first seen.
    pub fn new(config: BreakerConfig, registry: &MetricsRegistry) -> Self {
        WorkerBreakers {
            config,
            registry: registry.clone(),
            inner: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// The breaker tuning this set was built with.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    fn with_entry<T>(&self, worker: &str, f: impl FnOnce(&mut BreakerEntry) -> T) -> T {
        let mut inner = self.inner.lock().expect("breaker lock");
        let entry = inner.entry(worker.to_string()).or_insert_with(|| {
            let gauge = self.registry.gauge(
                "spnn_worker_breaker_state",
                "Per-worker circuit breaker state: 0 closed, 1 open, 2 half-open.",
                &[("worker", worker)],
            );
            gauge.set(BreakerState::Closed.gauge_value());
            BreakerEntry {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                gauge,
            }
        });
        f(entry)
    }

    fn set_state(entry: &mut BreakerEntry, state: BreakerState) {
        entry.state = state;
        entry.gauge.set(state.gauge_value());
        entry.opened_at = if state == BreakerState::Open {
            Some(std::time::Instant::now())
        } else {
            None
        };
    }

    /// Whether a dispatch to `worker` is admitted right now. An open
    /// breaker whose cooldown has elapsed transitions to half-open here
    /// (lazily) and admits the trial.
    pub fn admits(&self, worker: &str) -> bool {
        let cooldown = self.config.cooldown;
        self.with_entry(worker, |entry| match entry.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if entry.opened_at.is_none_or(|t| t.elapsed() >= cooldown) {
                    Self::set_state(entry, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        })
    }

    /// Records a successful dispatch or probe: the breaker closes and the
    /// failure count resets.
    pub fn record_success(&self, worker: &str) {
        self.with_entry(worker, |entry| {
            entry.consecutive_failures = 0;
            if entry.state != BreakerState::Closed {
                tevent!(Level::Info, "exec", "breaker closed", worker = worker,);
                Self::set_state(entry, BreakerState::Closed);
            }
        });
    }

    /// Records a failed dispatch or probe: at the threshold a closed
    /// breaker opens; a half-open trial failure re-opens immediately.
    pub fn record_failure(&self, worker: &str) {
        let threshold = self.config.failure_threshold.max(1);
        self.with_entry(worker, |entry| {
            entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
            let trip = match entry.state {
                BreakerState::Closed => entry.consecutive_failures >= threshold,
                BreakerState::HalfOpen => true,
                BreakerState::Open => {
                    // A straggler failure while already open refreshes the
                    // cooldown clock.
                    entry.opened_at = Some(std::time::Instant::now());
                    false
                }
            };
            if trip {
                tevent!(
                    Level::Warn,
                    "exec",
                    "breaker opened",
                    worker = worker,
                    consecutive_failures = entry.consecutive_failures,
                );
                Self::set_state(entry, BreakerState::Open);
            }
        });
    }

    /// Workers due a half-open probe: open breakers past their cooldown
    /// transition to half-open and are returned, along with workers
    /// already half-open (a probe re-check is harmless). The caller
    /// probes each and feeds the verdict back via
    /// [`record_success`](Self::record_success) /
    /// [`record_failure`](Self::record_failure).
    pub fn probe_due(&self) -> Vec<String> {
        let cooldown = self.config.cooldown;
        let mut inner = self.inner.lock().expect("breaker lock");
        let mut due = Vec::new();
        for (worker, entry) in inner.iter_mut() {
            match entry.state {
                BreakerState::Open if entry.opened_at.is_none_or(|t| t.elapsed() >= cooldown) => {
                    Self::set_state(entry, BreakerState::HalfOpen);
                    due.push(worker.clone());
                }
                BreakerState::HalfOpen => due.push(worker.clone()),
                _ => {}
            }
        }
        due.sort();
        due
    }

    /// Every known worker's current state, sorted by worker URL — the
    /// `/healthz` view.
    pub fn snapshot(&self) -> Vec<(String, BreakerState)> {
        let inner = self.inner.lock().expect("breaker lock");
        let mut out: Vec<(String, BreakerState)> =
            inner.iter().map(|(w, e)| (w.clone(), e.state)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

// ---------------------------------------------------------------------------
// Capacity weights
// ---------------------------------------------------------------------------

/// Where a fleet dispatch's capacity weights come from (see
/// [`RemoteExecutor::with_weights`] and the CLI's `--weights-from`).
///
/// Weights feed [`crate::shard::plan_shard_weighted`]: peer `i`'s slice
/// of the global round space is proportional to `weights[i]`. The peer
/// order is the worker list order, followed by local peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightSource {
    /// Equal slices — exactly the classic [`crate::shard::plan_shard`].
    Equal,
    /// Seed each remote peer's weight from its `/healthz`-reported core
    /// count (local peers use this machine's core count, split across
    /// them). Unreachable workers weigh 1.
    Healthz,
    /// The [`Healthz`](Self::Healthz) seed, refined by observed
    /// per-worker throughput: Monte-Carlo iterations returned per second
    /// of dispatch time (`spnn_shard_iterations_total{worker}` over the
    /// `spnn_shard_dispatch_duration_seconds{worker}` sum) — a
    /// coordinator that has already dispatched to a fleet weighs it by
    /// measured speed, not advertised cores.
    Metrics,
    /// Operator-pinned integer weights, one per peer in peer order.
    Static(Vec<u64>),
}

impl WeightSource {
    /// Parses a `--weights-from` value: `equal`, `healthz`, `metrics`,
    /// or a comma-separated integer list (`"3,1,2"`) pinning one weight
    /// per peer.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the value is neither a
    /// known source nor a parseable integer list.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.trim() {
            "equal" => Ok(WeightSource::Equal),
            "healthz" => Ok(WeightSource::Healthz),
            "metrics" => Ok(WeightSource::Metrics),
            other => other
                .split(',')
                .map(|tok| tok.trim().parse::<u64>())
                .collect::<Result<Vec<u64>, _>>()
                .map(WeightSource::Static)
                .map_err(|_| {
                    format!(
                        "unknown weight source {other:?} \
                         (expected equal, healthz, metrics, or a comma-separated integer list)"
                    )
                }),
        }
    }
}

/// Fetches a worker's `/healthz` and extracts its advertised core count
/// (the `"cores"` field workers report since the fleet release).
fn probe_worker_cores(worker: &str, cancel: &CancelToken) -> Option<u64> {
    let abort = || cancel.is_cancelled();
    let url = format!("{worker}/healthz");
    let resp = http::http_get(&url, Some(&abort), Some(Duration::from_secs(5))).ok()?;
    if resp.status != 200 {
        return None;
    }
    crate::json::parse(&resp.text()).ok()?.field("cores").ok()
}

/// The per-worker counter of Monte-Carlo iterations returned by
/// successful dispatches.
const ITERATIONS_SERIES: &str = "spnn_shard_iterations_total";

/// The observed throughput of `worker`: iterations its successful
/// dispatches returned ([`ITERATIONS_SERIES`]) per second of round-trip
/// time spent on it (the `spnn_shard_dispatch_duration_seconds{worker}`
/// sum, failed attempts included). Counting iterations rather than
/// dispatches keeps a worker that was handed a larger slice from looking
/// slower. `None` until the worker has returned work.
fn observed_iteration_rate(registry: &MetricsRegistry, worker: &str) -> Option<f64> {
    let (mut iterations, mut seconds) = (0u64, 0.0f64);
    for series in registry.snapshot() {
        if !series
            .labels
            .iter()
            .any(|(k, v)| k == "worker" && v == worker)
        {
            continue;
        }
        match (series.name.as_str(), series.value) {
            (ITERATIONS_SERIES, Reading::Counter(n)) => iterations = n,
            ("spnn_shard_dispatch_duration_seconds", Reading::Histogram { sum, .. }) => {
                seconds = sum;
            }
            _ => {}
        }
    }
    (iterations > 0 && seconds > 0.0).then(|| iterations as f64 / seconds)
}

/// Scales positive scores to integer weights in `1..=1000` (the fastest
/// peer gets 1000; nobody is starved to zero — a mis-probed peer still
/// contributes instead of idling).
fn integerize_weights(scores: &[f64]) -> Vec<u64> {
    let max = scores.iter().copied().fold(0.0f64, f64::max);
    if !max.is_finite() || max <= 0.0 {
        return vec![1; scores.len()];
    }
    scores
        .iter()
        .map(|&s| ((s / max) * 1000.0).round().max(1.0) as u64)
        .collect()
}

// ---------------------------------------------------------------------------
// RemoteExecutor
// ---------------------------------------------------------------------------

/// Remote execution: dispatches slices of the plan to worker `spnn serve`
/// instances with the canonical spec text as the body, and parses the
/// returned [`PartialReport`]s.
///
/// Every configuration runs the same slice loop. It plans `shards`
/// uniform slices — or one slice per peer when local peers or unequal
/// capacity weights are set — and runs each on a thread of its own.
/// A uniform slice `i` goes out as `POST /shard?shards=K&index=i`: the
/// worker plans it itself, so the coordinator needs no geometry. A
/// weighted or stolen slice goes out as an explicit round-space span,
/// `POST /shard?span=LO-HI`.
///
/// Remote slice `i` starts on worker `i mod n` (round-robin); on any
/// failure — refused connection, worker killed mid-run, torn or foreign
/// response — it is **retried on the next worker**, each worker at most
/// once per slice. The planner is a pure function of the spec, so a
/// recomputed slice is bit-identical wherever it runs; a merge over
/// retried slices is indistinguishable from one without failures.
///
/// # Fleet mode
///
/// Three builders change what the loop plans and who runs it,
/// individually or together:
///
/// - [`with_local_peers`](Self::with_local_peers) adds in-process
///   peers: one `run_distributed` call drives local threads *and*
///   remote workers as peers of a single plan;
/// - [`with_weights`](Self::with_weights) slices the round space
///   proportionally to capacity ([`WeightSource`]) instead of equally;
/// - [`with_steal`](Self::with_steal) enables work stealing: a slice
///   thread that drains its own slice re-dispatches the slowest
///   outstanding one, sub-sliced across idle threads as spans. The
///   straggler keeps computing — every iteration is a pure function of
///   `(seed, k)`, so the overlapping speculative results are
///   bit-identical and the merge deduplicates them; completion cancels
///   whatever is still in flight.
///
/// A zonal spec's queue length is known only after mapping, so without
/// local peers its plan stays uniform and steals nothing (a logged
/// fallback, never a different result).
///
/// In every mode the assembled report is byte-identical to the
/// unsharded run (chaos-gated in CI).
#[derive(Debug, Clone)]
pub struct RemoteExecutor {
    /// Worker base URLs (`http://host:port`, no trailing slash needed).
    pub workers: Vec<String>,
    /// Optional shared circuit breakers: an open breaker's worker is
    /// skipped with zero dispatch attempts (see [`WorkerBreakers`]).
    breakers: Option<Arc<WorkerBreakers>>,
    /// In-process peers joining the plan after the remote workers.
    local_peers: usize,
    /// Capacity weighting for the initial plan.
    weights_from: WeightSource,
    /// Whether drained peers steal from the slowest outstanding slice.
    steal: bool,
}

/// What every remote dispatch of one run shares.
struct Wire<'a> {
    spec_text: String,
    fingerprint: String,
    kernel: KernelProfile,
    cancel: &'a CancelToken,
    verbose: bool,
    registry: &'a MetricsRegistry,
}

impl RemoteExecutor {
    /// A remote executor over `workers`, trailing slashes trimmed.
    pub fn new(workers: impl IntoIterator<Item = String>) -> Self {
        RemoteExecutor {
            workers: workers
                .into_iter()
                .map(|w| w.trim_end_matches('/').to_string())
                .collect(),
            breakers: None,
            local_peers: 0,
            weights_from: WeightSource::Equal,
            steal: false,
        }
    }

    /// Attaches shared circuit breakers — every dispatch consults them
    /// and reports its outcome back. A coordinator shares one set across
    /// all requests so worker health outlives any single run.
    #[must_use]
    pub fn with_breakers(mut self, breakers: Arc<WorkerBreakers>) -> Self {
        self.breakers = Some(breakers);
        self
    }

    /// Adds `n` in-process peers to the plan (mixed dispatch): they rank
    /// after the remote workers in peer order, prepare the scenario once
    /// between them, and split this machine's cores evenly.
    #[must_use]
    pub fn with_local_peers(mut self, n: usize) -> Self {
        self.local_peers = n;
        self
    }

    /// Slices the round space proportionally to capacity instead of
    /// equally. See [`WeightSource`] for the probing strategies.
    #[must_use]
    pub fn with_weights(mut self, source: WeightSource) -> Self {
        self.weights_from = source;
        self
    }

    /// Enables work stealing: a peer that drains its slice re-dispatches
    /// the slowest outstanding slice across idle peers. Overlapping
    /// speculative results are deduplicated by the merge.
    #[must_use]
    pub fn with_steal(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// The attached circuit breakers, if any.
    pub fn breakers(&self) -> Option<&Arc<WorkerBreakers>> {
        self.breakers.as_ref()
    }

    /// Total peers in the plan: remote workers then local peers — the
    /// shard count a coordinator asks for.
    pub fn peers(&self) -> usize {
        self.workers.len() + self.local_peers
    }

    /// Runs `slice` remotely: tries each worker at most once, round-robin
    /// from `start`, skipping open breakers.
    ///
    /// Every attempt — successful or not — is counted in
    /// `spnn_shard_dispatch_total{worker,outcome}` and timed in
    /// `spnn_shard_dispatch_duration_seconds{worker}`, and produces one
    /// structured `shard complete` / `shard retry` event on stderr with
    /// the worker URL, attempt number, latency, and (on success) row
    /// count — retries are never silent. A success also adds the
    /// iterations its partial returned to
    /// `spnn_shard_iterations_total{worker}`, the work half of
    /// [`WeightSource::Metrics`]'s score.
    fn dispatch(
        &self,
        wire: &Wire<'_>,
        slice: Slice,
        start: usize,
    ) -> Result<PartialReport, String> {
        let (registry, cancel) = (wire.registry, wire.cancel);
        let n = self.workers.len();
        let bytes_streamed = registry.counter(
            "spnn_shard_response_bytes_total",
            "Bytes of shard partials received from workers.",
            &[],
        );
        let retries = registry.counter(
            "spnn_shard_retries_total",
            "Shard attempts retried on another worker.",
            &[],
        );
        let mut reasons = Vec::new();
        // Round-robin order, then drop workers whose breaker is open —
        // zero dispatch attempts reach a tripped worker. If *every*
        // breaker is open the full rotation is tried anyway: a guaranteed
        // failure helps nobody, and the attempts double as trials.
        let rotation: Vec<&String> = (0..n).map(|a| &self.workers[(start + a) % n]).collect();
        let candidates: Vec<&String> = match &self.breakers {
            Some(breakers) => {
                let admitted: Vec<&String> = rotation
                    .iter()
                    .copied()
                    .filter(|w| {
                        let ok = breakers.admits(w);
                        if !ok {
                            registry
                                .counter(
                                    "spnn_shard_breaker_skips_total",
                                    "Shard dispatches skipped because the worker's breaker was open.",
                                    &[("worker", w)],
                                )
                                .inc();
                            reasons.push(format!("{w}: skipped (breaker open)"));
                        }
                        ok
                    })
                    .collect();
                if admitted.is_empty() {
                    rotation.clone()
                } else {
                    admitted
                }
            }
            None => rotation,
        };
        let query = slice.query(wire.kernel);
        let tries = candidates.len();
        for (attempt, worker) in candidates.into_iter().enumerate() {
            if cancel.is_cancelled() {
                reasons.push("cancelled".to_string());
                break;
            }
            let url = format!("{worker}/shard?{query}");
            let abort = || cancel.is_cancelled();
            let dispatch_timer = std::time::Instant::now();
            // No idle timeout: a /shard response arrives only once the
            // whole slice is computed, which may legitimately take hours.
            // A killed worker closes the socket (an error → retry); a
            // shutdown cancels via `abort`.
            let body = wire.spec_text.as_bytes();
            let outcome = match http::http_post(&url, body, "text/plain", Some(&abort), None) {
                Ok(FetchResponse { status: 200, body }) => {
                    bytes_streamed.add(body.len() as u64);
                    let text = String::from_utf8_lossy(&body);
                    match PartialReport::parse(&text) {
                        Ok(p) if p.queue_fingerprint == wire.fingerprint => Ok(p),
                        Ok(p) => Err(format!(
                            "returned foreign fingerprint {}",
                            p.queue_fingerprint
                        )),
                        Err(e) => Err(format!("unreadable partial: {e}")),
                    }
                }
                Ok(resp) => Err(format!("HTTP {}: {}", resp.status, resp.text().trim())),
                Err(e) => Err(format!("{e}")),
            };
            let elapsed = dispatch_timer.elapsed();
            registry
                .histogram(
                    "spnn_shard_dispatch_duration_seconds",
                    "Round-trip latency of shard dispatches, per worker.",
                    &[("worker", worker)],
                    metrics::DURATION_BUCKETS,
                )
                .observe_duration(elapsed);
            registry
                .counter(
                    "spnn_shard_dispatch_total",
                    "Shard dispatches to workers, by outcome.",
                    &[
                        ("worker", worker),
                        ("outcome", if outcome.is_ok() { "ok" } else { "error" }),
                    ],
                )
                .inc();
            if let Some(breakers) = &self.breakers {
                if outcome.is_ok() {
                    breakers.record_success(worker);
                } else {
                    breakers.record_failure(worker);
                }
            }
            match outcome {
                Ok(p) => {
                    let iterations: usize = p.points.iter().map(|b| b.samples.len()).sum();
                    registry
                        .counter(
                            ITERATIONS_SERIES,
                            "Monte-Carlo iterations returned by successful shard dispatches, \
                             per worker.",
                            &[("worker", worker)],
                        )
                        .add(iterations as u64);
                    tevent!(
                        Level::Info,
                        "exec",
                        "shard complete",
                        job = &slice.to_string(),
                        worker = worker,
                        attempt = attempt + 1,
                        seconds = elapsed.as_secs_f64(),
                        rows = p.points.len(),
                    );
                    if wire.verbose {
                        eprintln!("[exec] {slice} completed on {worker}");
                    }
                    return Ok(p);
                }
                Err(reason) => {
                    if attempt + 1 < tries {
                        retries.inc();
                    }
                    tevent!(
                        Level::Warn,
                        "exec",
                        "shard retry",
                        job = &slice.to_string(),
                        worker = worker,
                        attempt = attempt + 1,
                        seconds = elapsed.as_secs_f64(),
                        error = &reason,
                        will_retry = attempt + 1 < tries,
                    );
                    if wire.verbose {
                        eprintln!(
                            "[exec] {slice} failed on {worker}, retrying elsewhere: {reason}"
                        );
                    }
                    reasons.push(format!("{worker}: {reason}"));
                }
            }
        }
        registry
            .counter(
                "spnn_shard_failures_total",
                "Shards no worker could produce.",
                &[],
            )
            .inc();
        Err(format!(
            "{slice}: every worker failed ({})",
            reasons.join("; ")
        ))
    }

    /// Resolves one capacity weight per peer (worker order, then local
    /// peers) from the configured [`WeightSource`].
    fn resolve_weights(&self, registry: &MetricsRegistry, cancel: &CancelToken) -> Vec<u64> {
        let peers = self.peers();
        match &self.weights_from {
            WeightSource::Equal => vec![1u64; peers],
            WeightSource::Static(v) => {
                if v.len() != peers {
                    tevent!(
                        Level::Warn,
                        "exec",
                        "static weight count differs from peer count",
                        weights = v.len(),
                        peers = peers,
                    );
                }
                let mut v = v.clone();
                v.resize(peers, 1);
                v
            }
            source @ (WeightSource::Healthz | WeightSource::Metrics) => {
                let machine_cores = std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1);
                let local_share = if self.local_peers > 0 {
                    (machine_cores / self.local_peers as u64).max(1)
                } else {
                    1
                };
                let mut cores: Vec<f64> = self
                    .workers
                    .iter()
                    .map(|w| probe_worker_cores(w, cancel).unwrap_or(1) as f64)
                    .collect();
                cores.extend(std::iter::repeat_n(local_share as f64, self.local_peers));
                let mut scores = cores.clone();
                if *source == WeightSource::Metrics {
                    // Refine with observed throughput where we have it.
                    // Unobserved peers keep their core count, scaled into
                    // rate units by the mean observed rate-per-core so
                    // the two kinds of score stay comparable.
                    let rates: Vec<Option<f64>> = self
                        .workers
                        .iter()
                        .map(|w| observed_iteration_rate(registry, w))
                        .collect();
                    let per_core: Vec<f64> = rates
                        .iter()
                        .enumerate()
                        .filter_map(|(i, r)| r.map(|r| r / cores[i].max(1.0)))
                        .collect();
                    if !per_core.is_empty() {
                        let mean = per_core.iter().sum::<f64>() / per_core.len() as f64;
                        for (i, score) in scores.iter_mut().enumerate() {
                            *score = match rates.get(i).copied().flatten() {
                                Some(rate) => rate,
                                None => cores[i] * mean,
                            };
                        }
                    }
                }
                integerize_weights(&scores)
            }
        }
    }

    /// Surfaces the weights a plan uses on the
    /// `spnn_worker_capacity_weight{worker}` gauge.
    fn publish_weights(&self, registry: &MetricsRegistry, weights: &[u64]) {
        for (i, &wt) in weights.iter().enumerate() {
            let label = if i < self.workers.len() {
                self.workers[i].clone()
            } else {
                format!("local-{}", i - self.workers.len())
            };
            registry
                .gauge(
                    "spnn_worker_capacity_weight",
                    "Resolved capacity weight of each fleet peer (slice size is proportional).",
                    &[("worker", &label)],
                )
                .set(wt as i64);
        }
    }
}

impl Executor for RemoteExecutor {
    fn name(&self) -> &'static str {
        if self.local_peers > 0 {
            "fleet"
        } else {
            "remote"
        }
    }

    fn execute(
        &self,
        spec: &ScenarioSpec,
        shards: usize,
        ctx: &ExecContext<'_>,
        deliver: &mut dyn FnMut(PartialReport) -> bool,
    ) -> Result<(), ExecError> {
        let peers = self.peers();
        if peers == 0 {
            return Err(ExecError::Remote("no workers configured".into()));
        }
        let registry = &ctx.config.metrics;
        let weights = self.resolve_weights(registry, ctx.cancel);
        let uniform = weights.windows(2).all(|w| w[0] == w[1]);

        // Geometry — the per-point round counts of the global round
        // space — is needed only for unequal weights, stolen sub-spans
        // and local peers. Local peers read it off the prepared queue; a
        // pure-remote coordinator derives it from the spec, except for a
        // zonal queue, whose length is known only after mapping: that
        // plan stays uniform and steals nothing.
        let prep = if self.local_peers > 0 {
            Some(prepare(spec, ctx.config, ctx.cache)?)
        } else {
            None
        };
        let rounds_per_point: Option<Vec<usize>> = match &prep {
            Some(p) => Some(sweep_rounds_per_point(p)),
            None if self.steal || !uniform => {
                let rounds = crate::queue::static_queue_len(spec).map(|per_topology| {
                    let points = per_topology * spec.topologies.len();
                    vec![spec.iterations.div_ceil(spec.round_size.max(1)); points]
                });
                if rounds.is_none() {
                    tevent!(
                        Level::Warn,
                        "exec",
                        "fleet plan falls back to equal remote dispatch",
                        reason = "queue length not statically derivable from the spec",
                    );
                }
                rounds
            }
            None => None,
        };
        // A plan that fell back to uniform slices uses no weights.
        if uniform || rounds_per_point.is_some() {
            self.publish_weights(registry, &weights);
        }
        let plan: Vec<Slice> = match &rounds_per_point {
            Some(rounds) if !uniform => (0..peers)
                .map(|i| {
                    let (lo, hi) = weighted_span(rounds, &weights, i);
                    Slice::Span { lo, hi }
                })
                .collect(),
            _ => {
                let k = if self.local_peers > 0 { peers } else { shards };
                (0..k)
                    .map(|index| Slice::Shard { shards: k, index })
                    .collect()
            }
        };
        // Registered for every remote run, so a coordinator's `/metrics`
        // lists them before its first steal.
        let claims = registry.counter(
            "spnn_steal_total",
            "Work-steal claims: a drained peer re-dispatched a straggler's span.",
            &[],
        );
        let redispatched = registry.counter(
            "spnn_shard_rounds_redispatched_total",
            "Rounds re-dispatched speculatively by work stealing.",
            &[],
        );

        let kernel = ctx.config.kernel;
        let wire = Wire {
            spec_text: spec.to_text(),
            fingerprint: queue_fingerprint_with(spec, kernel),
            kernel,
            cancel: ctx.cancel,
            verbose: ctx.config.verbose,
            registry,
        };
        let local_config = EngineConfig {
            threads: Some(thread_budget(ctx.config.threads, self.local_peers)),
            ..ctx.config.clone()
        };
        // Slices past the remote workers belong to local peers (a plan
        // with local peers has exactly one slice per peer).
        let remote = self.workers.len();
        let slices = plan
            .into_iter()
            .enumerate()
            .map(|(i, slice)| match (&prep, &rounds_per_point) {
                (Some(prep), Some(rounds)) if i >= remote => (
                    slice,
                    Runner::Local {
                        prep,
                        rounds,
                        config: &local_config,
                    },
                ),
                _ => (slice, Runner::Worker(self, &wire)),
            })
            .collect();
        let steal = match (self.steal, rounds_per_point.as_deref()) {
            (true, Some(rounds)) => Some(Steal {
                rounds,
                claims,
                redispatched,
            }),
            _ => None,
        };
        fan_out(slices, prep.as_ref(), steal, ctx, deliver)
    }
}

// ---------------------------------------------------------------------------
// The slice loop
// ---------------------------------------------------------------------------

/// Who computes a slice.
#[derive(Clone, Copy)]
enum Runner<'a> {
    /// [`execute_blocks`] on the run's one prepared scenario, under a
    /// configuration holding this slice's share of the cores.
    Local {
        prep: &'a PreparedScenario,
        rounds: &'a [usize],
        config: &'a EngineConfig,
    },
    /// A child `spnn run --shards K --shard-index I` process.
    Child(&'a Children<'a>),
    /// A worker `spnn serve`, through [`RemoteExecutor::dispatch`].
    Worker(&'a RemoteExecutor, &'a Wire<'a>),
}

/// What work stealing needs: the round space to sub-slice, and its
/// counters. A thread computes stolen spans with its own slice's runner.
struct Steal<'a> {
    rounds: &'a [usize],
    claims: Counter,
    redispatched: Counter,
}

/// The fan-out of every executor: one thread per entry of `slices`
/// computes that slice with that runner, and the calling thread delivers
/// what the threads send as it arrives. A lone local slice runs on the
/// calling thread itself. A slice thread waits until what it sent was
/// delivered before it goes on, so the observer paces the sweep: a
/// cancellation raised while a block is delivered stops every local
/// slice before its next block.
///
/// With a prepared scenario (`prep`, when any slice runs in process), its
/// header is delivered before any slice starts, so `Started` precedes
/// every block, and its trained context is persisted after the last
/// slice ends.
///
/// With `steal`, a thread that drains its own slice claims the first
/// outstanding one (every slice starts with the plan, so that is the
/// longest-running) and splits its whole span across the slice threads.
/// The victim keeps computing — its eventual answer is bit-identical to
/// the speculative re-dispatch, and the merge deduplicates; whole-span
/// re-dispatch is required because a remote victim's dispatch is one
/// blocking POST that only completion (and cancellation) unblocks.
///
/// # Errors
///
/// [`ExecError::Cancelled`] once the context's token fired (cancellation
/// aborts in-flight dispatches, so their failures are expected, and
/// [`run_distributed`] decides whether the merge completed first);
/// otherwise the slices' failures and merge rejections, joined —
/// [`ExecError::Spawn`] for a plan of child processes, else
/// [`ExecError::Remote`].
fn fan_out(
    slices: Vec<(Slice, Runner<'_>)>,
    prep: Option<&PreparedScenario>,
    steal: Option<Steal<'_>>,
    ctx: &ExecContext<'_>,
    deliver: &mut dyn FnMut(PartialReport) -> bool,
) -> Result<(), ExecError> {
    let (cancel, count) = (ctx.cancel, slices.len());
    if let Some(prep) = prep {
        deliver(prep.partial(count, 0));
    }
    type Sink<'s> = dyn FnMut(Result<PartialReport, String>) + 's;
    // An empty span has nothing to compute (and workers refuse it); a
    // shard always goes out.
    let starts = |own: Slice| !matches!(own, Slice::Span { lo, hi } if lo >= hi);
    let run = |me: usize, slice: Slice, runner: Runner<'_>, send: &mut Sink<'_>| match runner {
        Runner::Local {
            prep,
            rounds,
            config,
        } => {
            let blocks = match slice.blocks(rounds) {
                Ok(blocks) => blocks,
                Err(e) => return send(Err(e)),
            };
            let (shards, index) = slice.coordinates();
            let header = prep.partial(shards, index);
            // A cancelled slice stops between blocks; the loop reports
            // the cancellation once, for every slice.
            let _ = execute_blocks(prep, config, &blocks, cancel, &mut |point| {
                send(Ok(PartialReport {
                    points: vec![point],
                    ..header.clone()
                }));
            });
        }
        Runner::Child(children) => send(children.run(slice)),
        Runner::Worker(remote, wire) => send(remote.dispatch(wire, slice, me)),
    };

    // Per slice: whether its own run returned, and whether a stealer
    // already re-dispatched it (each slice is stolen at most once).
    let progress = Mutex::new(vec![(false, false); count]);
    let stolen_spans: Mutex<VecDeque<Slice>> = Mutex::new(VecDeque::new());
    let next_steal = |steal: &Steal<'_>| -> Option<Slice> {
        if let Some(span) = stolen_spans.lock().expect("steal queue lock").pop_front() {
            return Some(span);
        }
        let (victim, lo, hi) = {
            let mut progress = progress.lock().expect("slice progress lock");
            let (victim, (lo, hi)) = slices
                .iter()
                .zip(progress.iter())
                .enumerate()
                .filter(|(_, (_, &(done, stolen)))| !done && !stolen)
                .map(|(i, ((slice, _), _))| (i, slice.span(steal.rounds)))
                .find(|&(_, (lo, hi))| lo < hi)?;
            progress[victim].1 = true;
            (victim, lo, hi)
        };
        let units = hi - lo;
        let parts = count.min(units).max(1);
        steal.claims.inc();
        steal.redispatched.add(units as u64);
        tevent!(
            Level::Info,
            "exec",
            "steal",
            victim = victim,
            lo = lo,
            hi = hi,
            parts = parts,
        );
        let part = |p: usize| Slice::Span {
            lo: lo + p * units / parts,
            hi: lo + (p + 1) * units / parts,
        };
        let mut queue = stolen_spans.lock().expect("steal queue lock");
        queue.extend((1..parts).map(part));
        Some(part(0))
    };

    let (tx, rx) = mpsc::channel::<(Result<PartialReport, String>, mpsc::Sender<()>)>();
    let mut failures = Vec::new();
    // A lone local slice runs on the calling thread: a one-shard run
    // spawns no thread, and delivers each block the moment it finishes.
    // With more slices the calling thread only delivers, so no slice
    // waits on another's block for its delivery.
    let inline = matches!(slices[..], [(_, Runner::Local { .. })]);
    std::thread::scope(|scope| {
        for (me, &(own, runner)) in slices.iter().enumerate().skip(usize::from(inline)) {
            let tx = tx.clone();
            let (run, next_steal, progress, steal) = (&run, &next_steal, &progress, &steal);
            scope.spawn(move || {
                let (ack, delivered) = mpsc::channel();
                let mut send = |result| {
                    if tx.send((result, ack.clone())).is_ok() {
                        let _ = delivered.recv();
                    }
                };
                if starts(own) && !cancel.is_cancelled() {
                    run(me, own, runner, &mut send);
                }
                progress.lock().expect("slice progress lock")[me].0 = true;
                if let Some(steal) = steal {
                    while !cancel.is_cancelled() {
                        let Some(span) = next_steal(steal) else { break };
                        run(me, span, runner, &mut send);
                    }
                }
            });
        }
        drop(tx);
        let mut receive = |result: Result<PartialReport, String>, ack: Option<mpsc::Sender<()>>| {
            match result.map(&mut *deliver) {
                Ok(true) => {}
                Ok(false) => failures.push("a partial was rejected by the merge".to_string()),
                Err(e) => failures.push(e),
            }
            if let Some(ack) = ack {
                let _ = ack.send(());
            }
        };
        if let Some(&(own, runner)) = slices.first().filter(|_| inline) {
            if starts(own) && !cancel.is_cancelled() {
                run(0, own, runner, &mut |result| receive(result, None));
            }
        }
        for (result, ack) in rx {
            receive(result, Some(ack));
        }
    });
    if let Some(prep) = prep {
        persist_context(ctx.cache, prep, ctx.config.verbose);
    }

    let failed = failures.join("; ");
    if cancel.is_cancelled() {
        Err(ExecError::Cancelled)
    } else if failures.is_empty() {
        Ok(())
    } else if slices.iter().any(|(_, r)| matches!(r, Runner::Child(_))) {
        Err(ExecError::Spawn(failed))
    } else {
        Err(ExecError::Remote(failed))
    }
}

// ---------------------------------------------------------------------------
// The unified distributed driver
// ---------------------------------------------------------------------------

/// Why a distributed run failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum DistError {
    /// The executor could not produce every shard.
    Exec(ExecError),
    /// Delivered partials do not merge (foreign fingerprint, overlap,
    /// corrupt block, incomplete coverage).
    Merge(MergeError),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Exec(e) => write!(f, "{e}"),
            DistError::Merge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<ExecError> for DistError {
    fn from(e: ExecError) -> Self {
        DistError::Exec(e)
    }
}

impl From<MergeError> for DistError {
    fn from(e: MergeError) -> Self {
        DistError::Merge(e)
    }
}

/// Runs `spec` as a `shards`-way split through `executor`, merging
/// partials **as they arrive** and emitting the engine's standard
/// [`StreamEvent`]s: `Started` and per-topology events when the first
/// partial lands (all partials carry identical summaries — validated),
/// then each `Row` the moment its coverage is decidable, in prefix
/// order, from whichever shard finishes first.
///
/// Every run goes through this function: the unsharded run
/// ([`crate::run_scenario_streaming_with`] is this function over
/// [`LocalExecutor`] with one shard), `spnn run --shards k --exec local`,
/// `--shards k --spawn`, `spnn run --workers …`, and both roles of
/// `spnn serve`. The merge replays the adaptive stop rule over
/// recombined samples exactly as [`crate::shard::merge_partials`] does,
/// because both *are* [`MergeState`], so every spelling produces the
/// same report bytes. With a row cache, the merge publishes each
/// completed point once, and the run's manifest is written here.
///
/// Once `ctx.cancel` is cancelled (a request abort, a budget trip in the
/// observer) nothing more is merged, so no `Row` follows the event that
/// cancelled the run.
///
/// # Errors
///
/// [`DistError::Exec`] when the executor fails (or is cancelled),
/// [`DistError::Merge`] when delivered partials do not merge cleanly.
pub fn run_distributed(
    spec: &ScenarioSpec,
    executor: &dyn Executor,
    shards: usize,
    ctx: &ExecContext<'_>,
    observe: &mut dyn FnMut(StreamEvent<'_>),
) -> Result<EngineReport, DistError> {
    if shards == 0 {
        return Err(DistError::Exec(ExecError::Engine(EngineError::Invalid(
            "shards must be positive".into(),
        ))));
    }
    // A spec whose every row is resident in the row cache never fans out
    // at all: the report replays coordinator-side, zero dispatches.
    if let Some(rc) = &ctx.config.row_cache {
        if let Some(report) = replay_cached_scenario(spec, ctx.config.kernel, rc, observe) {
            return Ok(report);
        }
    }
    if ctx.cancel.is_cancelled() {
        return Err(ExecError::Cancelled.into());
    }
    let row_ctx = RowContext::of_spec_with(spec, ctx.config.kernel);
    let mut merge = MergeState::with_metrics(&ctx.config.metrics);
    if let Some(rc) = &ctx.config.row_cache {
        merge.publish_rows_to(Arc::clone(rc), row_ctx.clone());
    }
    // The executor runs under a child token: the moment the merge has
    // every row, outstanding dispatches are pure speculation (work
    // stealing re-covers spans a straggler still holds) — cancel them
    // rather than wait. The straggler's eventual answer would have been
    // a bit-identical duplicate anyway.
    let work = ctx.cancel.child();
    let work_ctx = ExecContext {
        config: ctx.config,
        cache: ctx.cache,
        cancel: &work,
    };
    let mut merge_err: Option<MergeError> = None;
    let mut started = false;
    // Set when a cancellation cut off rows the merge had already emitted.
    let mut withheld = false;
    let exec_result = executor.execute(spec, shards, &work_ctx, &mut |partial| {
        if merge_err.is_some() {
            return false;
        }
        if ctx.cancel.is_cancelled() {
            return true;
        }
        if !started {
            started = true;
            observe(StreamEvent::Started {
                scenario: &partial.scenario,
                total_points: partial.total_points,
            });
            for t in &partial.topologies {
                observe(StreamEvent::Topology(t));
            }
        }
        match merge.push(partial) {
            Ok(rows) => {
                for (index, row) in &rows {
                    if ctx.cancel.is_cancelled() {
                        withheld = true;
                        break;
                    }
                    observe(StreamEvent::Row { index: *index, row });
                }
                if merge.is_complete() {
                    work.cancel();
                }
                true
            }
            Err(e) => {
                merge_err = Some(e);
                false
            }
        }
    });
    // A merge inconsistency is the root cause; executor errors observed
    // afterwards are usually downstream of it.
    if let Some(e) = merge_err {
        return Err(e.into());
    }
    match exec_result {
        // Early completion: the merge finished off the speculative
        // overlap before every dispatch returned, and the remainder was
        // cancelled deliberately. The report below is whole.
        Ok(()) | Err(ExecError::Cancelled) if merge.is_complete() && !withheld => {}
        Ok(()) if ctx.cancel.is_cancelled() => return Err(ExecError::Cancelled.into()),
        Ok(()) => {}
        Err(e) => return Err(e.into()),
    }
    let report = merge.finalize()?;
    if let Some(rc) = &ctx.config.row_cache {
        rc.put_manifest(
            &queue_fingerprint_with(spec, ctx.config.kernel),
            RowManifest {
                scenario: report.scenario.clone(),
                topologies: report.topologies.clone(),
                row_keys: report
                    .rows
                    .iter()
                    .map(|r| row_ctx.key(&r.topology, &r.labels).hex())
                    .collect(),
            },
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // A fresh token is unaffected by other tokens.
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn child_tokens_observe_the_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        assert!(!child.is_cancelled());
        // Cancelling the child leaves the parent alone.
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        // Cancelling the parent cancels (fresh) children.
        let other = parent.child();
        parent.cancel();
        assert!(other.is_cancelled());
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_recovers_via_half_open() {
        let registry = MetricsRegistry::new();
        let breakers = WorkerBreakers::new(
            BreakerConfig {
                failure_threshold: 2,
                cooldown: std::time::Duration::from_millis(20),
            },
            &registry,
        );
        let w = "http://w:1";
        assert!(breakers.admits(w));
        breakers.record_failure(w);
        assert!(breakers.admits(w), "one failure is below the threshold");
        breakers.record_failure(w);
        assert_eq!(
            breakers.snapshot(),
            vec![(w.to_string(), BreakerState::Open)]
        );
        assert!(!breakers.admits(w), "open breaker skips the worker");
        assert!(
            registry
                .render()
                .contains("spnn_worker_breaker_state{worker=\"http://w:1\"} 1"),
            "{}",
            registry.render()
        );
        // After the cooldown the next admit is a half-open trial.
        std::thread::sleep(std::time::Duration::from_millis(25));
        assert!(breakers.admits(w));
        assert_eq!(
            breakers.snapshot(),
            vec![(w.to_string(), BreakerState::HalfOpen)]
        );
        // Trial success closes; the counter resets (two more failures to
        // re-open, not one).
        breakers.record_success(w);
        assert_eq!(
            breakers.snapshot(),
            vec![(w.to_string(), BreakerState::Closed)]
        );
        breakers.record_failure(w);
        assert!(breakers.admits(w));
    }

    #[test]
    fn half_open_probe_failure_reopens_the_breaker() {
        let registry = MetricsRegistry::new();
        let breakers = WorkerBreakers::new(
            BreakerConfig {
                failure_threshold: 1,
                cooldown: std::time::Duration::from_millis(10),
            },
            &registry,
        );
        let w = "http://w:2";
        breakers.record_failure(w);
        assert!(!breakers.admits(w));
        assert!(breakers.probe_due().is_empty(), "cooldown not elapsed yet");
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert_eq!(breakers.probe_due(), vec![w.to_string()]);
        // The failed probe re-opens for a fresh cooldown.
        breakers.record_failure(w);
        assert_eq!(
            breakers.snapshot(),
            vec![(w.to_string(), BreakerState::Open)]
        );
        assert!(!breakers.admits(w));
        // Next cooldown, the probe succeeds and the breaker closes.
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert_eq!(breakers.probe_due(), vec![w.to_string()]);
        breakers.record_success(w);
        assert_eq!(
            breakers.snapshot(),
            vec![(w.to_string(), BreakerState::Closed)]
        );
        assert!(breakers.probe_due().is_empty());
    }

    #[test]
    fn all_breakers_open_still_tries_the_rotation() {
        // With every breaker open, the dispatch's candidate filter falls
        // back to the full rotation: a dispatch attempt is made (and
        // fails, since nothing listens) rather than failing with zero
        // attempts forever.
        let registry = MetricsRegistry::new();
        let breakers = Arc::new(WorkerBreakers::new(
            BreakerConfig {
                failure_threshold: 1,
                cooldown: std::time::Duration::from_secs(3600),
            },
            &registry,
        ));
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            format!("http://{}", l.local_addr().unwrap())
        };
        breakers.record_failure(&dead);
        assert!(!breakers.admits(&dead));
        let ex = RemoteExecutor::new(vec![dead.clone()]).with_breakers(Arc::clone(&breakers));
        let cancel = CancelToken::new();
        let wire = Wire {
            spec_text: "spec".to_string(),
            fingerprint: "fp".to_string(),
            kernel: KernelProfile::Reference,
            cancel: &cancel,
            verbose: false,
            registry: &registry,
        };
        let err = ex
            .dispatch(
                &wire,
                Slice::Shard {
                    shards: 1,
                    index: 0,
                },
                0,
            )
            .expect_err("nothing listens");
        assert!(err.contains("shard 0"), "{err}");
        // The fallback attempt was dispatched (counted), not skipped.
        let rendered = registry.render();
        assert!(rendered.contains("spnn_shard_dispatch_total"), "{rendered}");
    }

    #[test]
    fn metrics_weights_score_iterations_per_second_not_dispatches() {
        // Two workers that each took one 1 s dispatch: by dispatch count
        // they look equal, but the first returned four times the work.
        let registry = MetricsRegistry::new();
        let workers: Vec<String> = (0..2)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                format!("http://{}", l.local_addr().unwrap())
            })
            .collect();
        for (worker, iterations) in workers.iter().zip([400u64, 100]) {
            registry
                .histogram(
                    "spnn_shard_dispatch_duration_seconds",
                    "",
                    &[("worker", worker)],
                    metrics::DURATION_BUCKETS,
                )
                .observe(1.0);
            registry
                .counter(ITERATIONS_SERIES, "", &[("worker", worker)])
                .add(iterations);
        }
        assert_eq!(observed_iteration_rate(&registry, &workers[0]), Some(400.0));
        assert_eq!(observed_iteration_rate(&registry, "http://unseen:1"), None);
        // Nothing listens, so both /healthz probes fall back to 1 core
        // and the observed rates alone decide the 4:1 split.
        let ex = RemoteExecutor::new(workers).with_weights(WeightSource::Metrics);
        let weights = ex.resolve_weights(&registry, &CancelToken::new());
        assert_eq!(weights, vec![1000, 250]);
    }

    #[test]
    fn remote_executor_normalizes_worker_urls() {
        let ex = RemoteExecutor::new(vec!["http://a:1/".to_string(), "http://b:2".to_string()]);
        assert_eq!(ex.workers, vec!["http://a:1", "http://b:2"]);
    }

    #[test]
    fn remote_executor_without_workers_fails_fast() {
        let ex = RemoteExecutor::new(Vec::new());
        let spec = ScenarioSpec::default();
        let config = EngineConfig::default();
        let cache = ContextCache::in_memory();
        let cancel = CancelToken::new();
        let ctx = ExecContext {
            config: &config,
            cache: &cache,
            cancel: &cancel,
        };
        let err =
            run_distributed(&spec, &ex, 2, &ctx, &mut |_| {}).expect_err("no workers must fail");
        assert!(
            matches!(err, DistError::Exec(ExecError::Remote(_))),
            "{err}"
        );
    }

    #[test]
    fn zero_shards_is_rejected() {
        let spec = ScenarioSpec::default();
        let config = EngineConfig::default();
        let cache = ContextCache::in_memory();
        let cancel = CancelToken::new();
        let ctx = ExecContext {
            config: &config,
            cache: &cache,
            cancel: &cancel,
        };
        assert!(run_distributed(&spec, &LocalExecutor, 0, &ctx, &mut |_| {}).is_err());
    }
}
