//! The Monte-Carlo driver: deterministic, multi-threaded, adaptive —
//! and shardable across processes.
//!
//! Execution model per sweep point:
//!
//! 1. Iterations are processed in **rounds** of `spec.round_size`. Within a
//!    round, iterations are split across worker threads; iteration `k`
//!    derives its RNG purely from `(seed, k)` via
//!    [`spnn_core::monte_carlo::iteration_rng`], so the schedule cannot
//!    affect any sample.
//! 2. After each round the samples are folded **in iteration order** into a
//!    [`Welford`] estimator and the [`StopRule`] is consulted. Stopping
//!    decisions therefore happen at thread-count-independent boundaries:
//!    the result is bit-identical for 1, 2 or 64 workers.
//! 3. Each iteration realizes the network's transfer matrices **once** and
//!    pushes the whole test set through as matrix-matrix products
//!    ([`TestBatch::accuracy_with`]), bit-identical to the seed's
//!    per-sample `mc_accuracy` path. The realization's deterministic part
//!    (resolved specs, quantization, thermal crosstalk, correlated FPV)
//!    is a [`RealizationPlan`] built once per round range, so iterations
//!    only draw the random errors.
//!
//! Because per-iteration RNGs are position-independent, any run is a
//! **sharded** run: `execute_blocks` is the one loop that runs sweep
//! points, over the blocks of a deterministic slice of the compiled
//! queue's rounds (see [`crate::shard`]), and the merge recombines blocks
//! into the report. The unsharded run is the one-shard local run —
//! [`run_scenario_streaming_with`] (and so [`run_scenario_with`] and
//! [`run_scenario`]) is
//! [`crate::exec::run_distributed`] over [`LocalExecutor`] with one shard;
//! [`run_scenario_shard_with`] runs one slice of a `k`-way plan and
//! returns its partial report for [`crate::shard::merge_partials`].

use crate::cache::ContextCache;
use crate::estimator::{StopRule, Welford};
use crate::exec::{run_distributed, CancelToken, DistError, ExecContext, ExecError, LocalExecutor};
use crate::metrics::{self, MetricsRegistry};
use crate::queue::{compile, WorkItem};
use crate::rowcache::{CachedPoint, RowCache, RowContext};
use crate::shard::{queue_fingerprint_with, PartialPoint, PartialReport, ShardBlock, Slice};
use crate::spec::{topology_name, ScenarioSpec};
use crate::tevent;
use crate::trace::{Level, Span};
use spnn_core::monte_carlo::iteration_rng;
use spnn_core::network::SpnnError;
use spnn_core::{
    BatchScratch, HardwareEffects, KernelProfile, McResult, PerturbationPlan, PhotonicNetwork,
    RealizationPlan, RealizeScratch, TestBatch,
};
use spnn_linalg::CMatrix;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Execution knobs. Every field except `kernel` must not change results —
/// only speed. `kernel` selects the arithmetic profile: each profile is
/// individually deterministic (thread-count-, executor-, and
/// machine-independent), but the two profiles produce different sample
/// bits, which is why the profile participates in queue fingerprints and
/// row-cache keys (see [`crate::shard::queue_fingerprint_with`]).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads per sweep point (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Kernel profile for the batched Monte-Carlo forward
    /// ([`spnn_core::kernel`]). Defaults to [`KernelProfile::Reference`]
    /// — the seed-faithful kernel whose outputs match the per-sample
    /// path bit for bit. [`KernelProfile::Fma`] opts into the
    /// fused-multiply-add kernels under its own pinned goldens.
    pub kernel: KernelProfile,
    /// Print per-point progress to stderr.
    pub verbose: bool,
    /// Trained-context cache directory. `None` (the default) keeps the
    /// cache in memory only; results are bit-identical either way (see
    /// [`crate::cache`]).
    pub cache_dir: Option<PathBuf>,
    /// Where instrumentation records (phase timers, point/iteration
    /// counters). Defaults to the process-global registry
    /// ([`crate::metrics::global`]); [`crate::serve::Server`] swaps in a
    /// per-server registry so `GET /metrics` reflects that server alone.
    /// Purely observational — results never depend on it.
    pub metrics: MetricsRegistry,
    /// Row-level result cache ([`crate::rowcache`]). `None` (the default)
    /// disables it: every point computes cold. When set, finished rows are
    /// consulted before any Monte-Carlo work and published as they
    /// finalize; reports are bit-identical either way (the cache stores
    /// the retained sample stream, so replay reproduces every statistic
    /// exactly — see `docs/row-cache.md`).
    pub row_cache: Option<Arc<RowCache>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: None,
            kernel: KernelProfile::default(),
            verbose: false,
            cache_dir: None,
            metrics: metrics::global().clone(),
            row_cache: None,
        }
    }
}

/// The worker threads each of `slices` concurrent slices of a run may
/// use: [`EngineConfig::threads`] when pinned, else an even share of the
/// available cores; at least one. Results are identical either way.
pub(crate) fn thread_budget(threads: Option<usize>, slices: usize) -> usize {
    threads
        .or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get() / slices.max(1))
                .ok()
        })
        .unwrap_or(1)
        .max(1)
}

/// The per-phase wall-clock histogram (`spnn_phase_duration_seconds`)
/// for `phase` in `registry`.
pub(crate) fn phase_histogram(
    registry: &MetricsRegistry,
    phase: &str,
) -> crate::metrics::Histogram {
    registry.histogram(
        "spnn_phase_duration_seconds",
        "Wall-clock spent per engine phase (train, cache_load, test_split, mapping, rounds).",
        &[("phase", phase)],
        metrics::DURATION_BUCKETS,
    )
}

/// Counter handles for the Monte-Carlo sweep, recorded by
/// [`execute_blocks`].
struct SweepCounters {
    rounds_hist: crate::metrics::Histogram,
    points: crate::metrics::Counter,
    iterations: crate::metrics::Counter,
    rounds: crate::metrics::Counter,
    early_stops: crate::metrics::Counter,
}

impl SweepCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        SweepCounters {
            rounds_hist: phase_histogram(registry, "rounds"),
            points: registry.counter(
                "spnn_points_total",
                "Sweep points (or shard blocks) completed.",
                &[],
            ),
            iterations: registry.counter(
                "spnn_mc_iterations_total",
                "Monte-Carlo iterations executed.",
                &[],
            ),
            rounds: registry.counter("spnn_mc_rounds_total", "Monte-Carlo rounds executed.", &[]),
            early_stops: registry.counter(
                "spnn_early_stops_total",
                "Sweep points stopped early by the adaptive rule.",
                &[],
            ),
        }
    }

    fn record(&self, samples: usize, round_size: usize, stopped_early: bool) {
        self.points.inc();
        self.iterations.add(samples as u64);
        self.rounds.add(samples.div_ceil(round_size.max(1)) as u64);
        if stopped_early {
            self.early_stops.inc();
        }
    }
}

/// The outcome of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Per-iteration accuracies in iteration order.
    pub samples: Vec<f64>,
    /// Mean accuracy.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 95 % margin of error of the mean.
    pub moe95: f64,
    /// `true` when the adaptive rule stopped before the iteration cap.
    pub stopped_early: bool,
}

/// One Monte-Carlo worker's reusable buffers: realized-matrix scratch, the
/// realized per-layer matrices, and the batched-forward activation planes.
/// Warm after the first iteration; every later iteration allocates nothing
/// on the hot path.
#[derive(Debug, Default)]
struct IterScratch {
    realize: RealizeScratch,
    matrices: Vec<CMatrix>,
    batch: BatchScratch,
}

/// The outcome of a contiguous round range of one sweep point
/// (see [`run_point_range`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RangeResult {
    /// Per-iteration accuracies of the range, in iteration order.
    pub samples: Vec<f64>,
    /// `true` when the range starts at round 0 and the adaptive rule
    /// stopped inside it before the iteration cap.
    pub stopped_early: bool,
}

/// Runs a contiguous range of rounds of one sweep point: rounds
/// `first_round .. first_round + rounds`, i.e. iterations
/// `first_round·round_size .. min(cap, (first_round + rounds)·round_size)`.
///
/// This is the shard-execution primitive. Iteration `k` depends only on
/// `(seed, k)`, so the samples of any range are bit-identical to the
/// corresponding slice of an unsharded [`run_point`] run.
///
/// Adaptive early termination is applied **only when `first_round == 0`**:
/// stopping decisions at a round boundary require the full sample prefix,
/// which only the range that starts at the beginning has seen. Ranges
/// starting later run all their rounds unconditionally (speculation); the
/// merge replays the stop rule over the recombined stream and discards
/// iterations past the stopping boundary (see [`crate::shard`]).
///
/// # Panics
///
/// Panics if `round_size == 0`, the stop rule's cap is zero, `rounds == 0`,
/// or the range lies entirely past the cap.
#[allow(clippy::too_many_arguments)] // the engine's primitive: each knob is load-bearing
pub fn run_point_range(
    network: &PhotonicNetwork,
    plan: &PerturbationPlan,
    effects: &HardwareEffects,
    batch: &TestBatch,
    stop: &StopRule,
    round_size: usize,
    seed: u64,
    threads: Option<usize>,
    kernel: KernelProfile,
    first_round: usize,
    rounds: usize,
) -> RangeResult {
    assert!(round_size > 0, "round_size must be positive");
    assert!(stop.max_iterations > 0, "need at least one iteration");
    assert!(rounds > 0, "need at least one round");
    let cap = stop.max_iterations;
    let k_start = first_round * round_size;
    assert!(k_start < cap, "round range starts past the iteration cap");
    let k_end = cap.min(k_start + rounds * round_size);
    let n_threads = thread_budget(threads, 1);

    // Only the range holding the prefix can make stopping decisions.
    let adaptive = first_round == 0;
    let mut est = Welford::new();
    let mut samples: Vec<f64> = Vec::new();
    let mut next_k = k_start;
    let mut stopped_early = false;

    // The point's deterministic per-site state (resolved specs, quantized
    // phases, thermal crosstalk, correlated FPV), built once per call and
    // shared by reference: workers only draw the random errors.
    let realization = RealizationPlan::new(network, plan, effects);
    let realization = &realization;

    // Per-worker scratch, reused across every iteration and round this
    // worker executes: realized-matrix buffers and batch activation
    // planes. Worker `t` always takes scratch `t`, and an iteration's
    // result is a pure function of `(seed, k)` regardless of buffer
    // reuse, so this cannot perturb any sample.
    let mut scratches: Vec<IterScratch> = (0..n_threads).map(|_| IterScratch::default()).collect();

    while next_k < k_end {
        let n_this = round_size.min(k_end - next_k);
        let mut round = vec![0.0f64; n_this];
        let chunk = n_this.div_ceil(n_threads.min(n_this));
        std::thread::scope(|scope| {
            for ((t, out_chunk), scratch) in round
                .chunks_mut(chunk)
                .enumerate()
                .zip(scratches.iter_mut())
            {
                let start = next_k + t * chunk;
                scope.spawn(move || {
                    for (off, slot) in out_chunk.iter_mut().enumerate() {
                        let mut rng = iteration_rng(seed, start + off);
                        realization.realize_into(
                            &mut rng,
                            &mut scratch.realize,
                            &mut scratch.matrices,
                        );
                        *slot = batch.accuracy_with_profile(
                            network,
                            &scratch.matrices,
                            kernel,
                            &mut scratch.batch,
                        );
                    }
                });
            }
        });
        samples.extend_from_slice(&round);
        next_k += n_this;
        if adaptive {
            for &s in &round {
                est.push(s);
            }
            if stop.should_stop(&est) {
                stopped_early = next_k < cap;
                break;
            }
        }
    }

    RangeResult {
        samples,
        stopped_early,
    }
}

/// Runs one sweep point to completion.
///
/// [`run_point_range`] over every round, aggregated into a
/// [`PointResult`] — the whole-point block an unsharded [`run_scenario`]
/// runs for each sweep point. With
/// [`StopRule::fixed`]`(n)` the returned `samples` are bit-identical to
/// `spnn_core::mc_accuracy(network, plan, effects, …, n, seed).samples`.
///
/// # Panics
///
/// Panics if `round_size == 0` or the stop rule's cap is zero.
#[allow(clippy::too_many_arguments)] // the engine's primitive: each knob is load-bearing
pub fn run_point(
    network: &PhotonicNetwork,
    plan: &PerturbationPlan,
    effects: &HardwareEffects,
    batch: &TestBatch,
    stop: &StopRule,
    round_size: usize,
    seed: u64,
    threads: Option<usize>,
    kernel: KernelProfile,
) -> PointResult {
    assert!(round_size > 0, "round_size must be positive");
    assert!(stop.max_iterations > 0, "need at least one iteration");
    let total_rounds = stop.max_iterations.div_ceil(round_size);
    let r = run_point_range(
        network,
        plan,
        effects,
        batch,
        stop,
        round_size,
        seed,
        threads,
        kernel,
        0,
        total_rounds,
    );

    // Final statistics via the same aggregation as the per-sample
    // reference, so fixed-count engine results equal `mc_accuracy` exactly.
    let mc = McResult::from_samples(r.samples);
    PointResult {
        mean: mc.mean,
        std_dev: mc.std_dev,
        moe95: mc.margin_of_error_95(),
        samples: mc.samples,
        stopped_early: r.stopped_early,
    }
}

/// Per-topology context of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySummary {
    /// Topology name (`clements` / `reck`).
    pub topology: String,
    /// Software (pre-mapping) test accuracy.
    pub software_accuracy: f64,
    /// Ideal (σ = 0) hardware accuracy.
    pub nominal_accuracy: f64,
}

/// One row of a scenario report: a sweep point plus its estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Topology the point ran on.
    pub topology: String,
    /// The point's labels (same keys for every row of a report).
    pub labels: Vec<(String, String)>,
    /// Mean accuracy.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 95 % margin of error.
    pub moe95: f64,
    /// Iterations actually spent.
    pub iterations: usize,
    /// Whether the adaptive rule stopped early.
    pub stopped_early: bool,
}

impl SweepRow {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses label `key` as `f64` (e.g. `sigma`).
    pub fn label_f64(&self, key: &str) -> Option<f64> {
        self.label(key).and_then(|v| v.parse().ok())
    }

    /// The row of a point whose retained sample stream is `samples`. The
    /// merge and the row-cache replay both build rows here, through the
    /// same aggregation as [`run_point`] ([`McResult::from_samples`]), so
    /// identical samples give identical rows, bit for bit.
    pub(crate) fn from_samples(
        topology: String,
        labels: Vec<(String, String)>,
        samples: Vec<f64>,
        stopped_early: bool,
    ) -> SweepRow {
        let mc = McResult::from_samples(samples);
        SweepRow {
            topology,
            labels,
            mean: mc.mean,
            std_dev: mc.std_dev,
            moe95: mc.margin_of_error_95(),
            iterations: mc.samples.len(),
            stopped_early,
        }
    }
}

/// Owned copies of a [`WorkItem`]'s labels (queue labels use static keys;
/// reports and partials carry owned strings so they survive (de)serialization).
pub(crate) fn owned_labels(item: &WorkItem) -> Vec<(String, String)> {
    item.labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect()
}

/// A completed scenario: context plus one row per sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Per-topology training/mapping context.
    pub topologies: Vec<TopologySummary>,
    /// Sweep results in queue order.
    pub rows: Vec<SweepRow>,
}

impl EngineReport {
    /// Rows restricted to one topology.
    pub fn rows_for<'a>(&'a self, topology: &'a str) -> impl Iterator<Item = &'a SweepRow> + 'a {
        self.rows.iter().filter(move |r| r.topology == topology)
    }

    /// Total Monte-Carlo iterations spent across all points.
    pub fn total_iterations(&self) -> usize {
        self.rows.iter().map(|r| r.iterations).sum()
    }
}

/// Failures of a scenario run.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The spec is internally inconsistent.
    Invalid(String),
    /// Photonic mapping failed.
    Mapping(SpnnError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Invalid(m) => write!(f, "invalid scenario: {m}"),
            EngineError::Mapping(e) => write!(f, "photonic mapping failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One fully-resolved sweep point of the **global** queue: the
/// concatenation, in spec topology order, of every topology's compiled
/// queue. The position in this list is the point's global index — the
/// coordinate system of shard plans and partial reports.
pub(crate) struct PreparedPoint {
    pub(crate) topology: &'static str,
    pub(crate) hardware: Arc<PhotonicNetwork>,
    pub(crate) item: WorkItem,
}

/// Everything a scenario run needs after training/mapping and queue
/// compilation — shared by every slice of every run.
pub(crate) struct PreparedScenario {
    pub(crate) name: String,
    /// [`queue_fingerprint_with`] of the spec under `kernel`.
    pub(crate) queue_fp: String,
    pub(crate) kernel: KernelProfile,
    pub(crate) batch: TestBatch,
    pub(crate) stop: StopRule,
    pub(crate) round_size: usize,
    pub(crate) topologies: Vec<TopologySummary>,
    pub(crate) points: Vec<PreparedPoint>,
    pub(crate) ctx: Arc<crate::cache::TrainedContext>,
    /// Row-cache key context, present when the run has a row cache.
    pub(crate) row_ctx: Option<RowContext>,
}

impl PreparedScenario {
    /// An empty partial report of this scenario, labelled as slice
    /// `shard_index` of a `shards`-way plan: the header a run's blocks
    /// are delivered under.
    pub(crate) fn partial(&self, shards: usize, shard_index: usize) -> PartialReport {
        PartialReport {
            scenario: self.name.clone(),
            queue_fingerprint: self.queue_fp.clone(),
            kernel: self.kernel,
            shards,
            shard_index,
            total_points: self.points.len(),
            round_size: self.round_size,
            iterations: self.stop.max_iterations,
            min_iterations: self.stop.min_iterations,
            target_moe: self.stop.target_moe,
            topologies: self.topologies.clone(),
            points: Vec::new(),
        }
    }
}

/// Validates the spec, obtains the trained context (cache or fresh),
/// generates the test split, maps every topology and compiles the global
/// work queue. Pure function of the spec — identical whether invoked by
/// a one-shard run, by any shard, or in any process.
pub(crate) fn prepare(
    spec: &ScenarioSpec,
    config: &EngineConfig,
    cache: &ContextCache,
) -> Result<PreparedScenario, EngineError> {
    spec.validate().map_err(EngineError::Invalid)?;

    // Time context acquisition and label the phase by what actually
    // happened: a fresh training run or a cache load. The counters are
    // per-cache, so the delta is exact for this call.
    let trains_before = cache.stats().trains;
    let ctx_timer = std::time::Instant::now();
    let ctx = cache.get_or_train(spec, config.verbose);
    let ctx_elapsed = ctx_timer.elapsed();
    let trained = cache.stats().trains > trains_before;
    let phase = if trained { "train" } else { "cache_load" };
    phase_histogram(&config.metrics, phase).observe_duration(ctx_elapsed);
    tevent!(
        Level::Debug,
        "engine",
        "context ready",
        scenario = &spec.name,
        phase = phase,
        seconds = ctx_elapsed.as_secs_f64(),
    );
    // Only the test split is generated here; the training split lives
    // behind the cache (its RNG stream is independent, so the test set is
    // identical either way). The split streams straight into the batch
    // planes, scored by the software model on the way, so prepare — run
    // once per run and per served request — never holds a second copy.
    // It is cut into one same-bits part per thread of the run's budget; a
    // budget of 1 streams it inline on this thread. Each part counts its
    // own correct predictions, and an integer sum is order-independent.
    let split_span = Span::start("test_split", phase_histogram(&config.metrics, "test_split"));
    let parts = spec.test_samples().split(thread_budget(config.threads, 1));
    let mut correct = vec![0usize; parts.len()];
    let software = ctx.software();
    let batch = TestBatch::from_parts(
        parts
            .into_iter()
            .zip(&mut correct)
            .map(|(part, correct)| {
                part.inspect(move |(f, label)| {
                    *correct += usize::from(software.predict(f) == *label);
                })
            })
            .collect(),
    );
    split_span.finish();
    let software_accuracy = correct.iter().sum::<usize>() as f64 / batch.len() as f64;
    if config.verbose {
        eprintln!(
            "[engine] {}: context {} (train acc {:.2}%, test acc {:.2}%)",
            spec.name,
            ctx.fingerprint().short(),
            ctx.train_accuracy() * 100.0,
            software_accuracy * 100.0
        );
    }
    let stop = if spec.target_moe > 0.0 {
        StopRule::adaptive(spec.iterations, spec.min_iterations, spec.target_moe)
    } else {
        StopRule::fixed(spec.iterations)
    };

    let shuffle_seed = spec.shuffle_seed();
    let mapping_span = Span::start("mapping", phase_histogram(&config.metrics, "mapping"));
    let mut topologies = Vec::with_capacity(spec.topologies.len());
    let mut points = Vec::new();
    for &topology in &spec.topologies {
        let hardware = ctx
            .mapping(topology, shuffle_seed)
            .map_err(EngineError::Mapping)?;
        // The nominal (ideal-hardware) accuracy runs through the same
        // kernel profile as the sweep, so topology summaries are
        // profile-consistent and shard-merge bit-comparisons agree. The
        // software accuracy above stays per-sample and profile-independent.
        let nominal_accuracy = batch.accuracy_with_profile(
            &hardware,
            &hardware.ideal_matrices(),
            config.kernel,
            &mut BatchScratch::default(),
        );
        let topo_name = topology_name(topology);
        topologies.push(TopologySummary {
            topology: topo_name.to_string(),
            software_accuracy,
            nominal_accuracy,
        });
        for item in compile(spec, &hardware) {
            points.push(PreparedPoint {
                topology: topo_name,
                hardware: Arc::clone(&hardware),
                item,
            });
        }
    }

    let mapping_elapsed = mapping_span.finish();
    tevent!(
        Level::Debug,
        "engine",
        "prepared",
        scenario = &spec.name,
        topologies = topologies.len(),
        points = points.len(),
        mapping_seconds = mapping_elapsed.as_secs_f64(),
    );

    Ok(PreparedScenario {
        name: spec.name.clone(),
        queue_fp: queue_fingerprint_with(spec, config.kernel),
        kernel: config.kernel,
        batch,
        stop,
        round_size: spec.round_size,
        topologies,
        points,
        ctx,
        row_ctx: config
            .row_cache
            .as_ref()
            .map(|_| RowContext::of_spec_with(spec, config.kernel)),
    })
}

/// Re-persists the trained context so mappings synthesized during a run
/// land on disk — the next warm load then skips SVD + mesh synthesis too.
pub(crate) fn persist_context(cache: &ContextCache, prep: &PreparedScenario, verbose: bool) {
    if let Err(e) = cache.persist(&prep.ctx) {
        if verbose {
            eprintln!("[engine] warning: could not persist trained context: {e}");
        }
    }
}

/// One milestone of a streaming scenario run, delivered to the observer
/// callback of [`run_scenario_streaming_with`] the moment it happens.
///
/// Events borrow from the running scenario; copy out whatever must
/// outlive the callback. The event stream for a given spec is itself
/// deterministic: the same spec produces the same events in the same
/// order, regardless of thread count or cache temperature.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum StreamEvent<'a> {
    /// Preparation finished (training/cache load, mapping, queue
    /// compilation); the sweep is about to start.
    Started {
        /// Scenario name (from the spec).
        scenario: &'a str,
        /// Number of sweep points the run will produce, in queue order.
        total_points: usize,
    },
    /// One topology's training/mapping context (emitted after `Started`,
    /// once per topology, in spec order).
    Topology(&'a TopologySummary),
    /// One sweep point completed. Rows arrive in queue order; `index` is
    /// 0-based.
    Row {
        /// 0-based position of the row in the report.
        index: usize,
        /// The completed row, exactly as it will appear in the report.
        row: &'a SweepRow,
    },
}

/// Attempts to replay a whole scenario from the row cache alone: the
/// spec's manifest names every row key in queue order, and if all of them
/// are resident the report — and the full event stream — is rebuilt
/// without training, mapping, or a single Monte-Carlo iteration.
///
/// Returns `None` (emitting no events) unless **every** row is available;
/// a partial replay would reorder the stream relative to a cold run.
pub(crate) fn replay_cached_scenario(
    spec: &ScenarioSpec,
    kernel: KernelProfile,
    rc: &RowCache,
    observe: &mut dyn FnMut(StreamEvent<'_>),
) -> Option<EngineReport> {
    let manifest = rc.get_manifest(&queue_fingerprint_with(spec, kernel))?;
    let mut rows = Vec::with_capacity(manifest.row_keys.len());
    for hex in &manifest.row_keys {
        let point = rc.get_by_hex(hex)?;
        rows.push(SweepRow::from_samples(
            point.topology.clone(),
            point.labels.clone(),
            point.samples.clone(),
            point.stopped_early,
        ));
    }
    tevent!(
        Level::Debug,
        "rowcache",
        "scenario replayed from row cache",
        scenario = &manifest.scenario,
        rows = rows.len(),
    );
    observe(StreamEvent::Started {
        scenario: &manifest.scenario,
        total_points: rows.len(),
    });
    for t in &manifest.topologies {
        observe(StreamEvent::Topology(t));
    }
    for (i, row) in rows.iter().enumerate() {
        observe(StreamEvent::Row { index: i, row });
    }
    Some(EngineReport {
        scenario: manifest.scenario.clone(),
        topologies: manifest.topologies.clone(),
        rows,
    })
}

/// Runs a whole scenario: dataset generation, software training, photonic
/// mapping per topology, queue compilation, and the Monte-Carlo sweep.
///
/// Deterministic: the report is a pure function of `(spec)`; `config` only
/// affects wall-clock and logging. Training goes through a fresh
/// [`ContextCache`] built from `config.cache_dir` — use
/// [`run_scenario_with`] with one shared cache to train once across
/// scenarios that share a training fingerprint.
///
/// # Errors
///
/// Returns [`EngineError`] if the spec fails validation or a weight matrix
/// cannot be mapped onto hardware (not expected for trained weights).
pub fn run_scenario(
    spec: &ScenarioSpec,
    config: &EngineConfig,
) -> Result<EngineReport, EngineError> {
    let cache = ContextCache::new(config.cache_dir.clone());
    run_scenario_with(spec, config, &cache)
}

/// Runs one scenario against an explicit trained-context `cache` — the
/// primitive behind [`run_scenario`]. Scenarios run through one shared
/// cache train once per training fingerprint (dataset, architecture,
/// optimizer hyper-parameters, seed). The report is bit-identical whether
/// the context comes from memory, from disk, or from a fresh training run.
///
/// # Errors
///
/// Returns [`EngineError`] if the spec fails validation or a weight matrix
/// cannot be mapped onto hardware (not expected for trained weights).
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    config: &EngineConfig,
    cache: &ContextCache,
) -> Result<EngineReport, EngineError> {
    run_scenario_streaming_with(spec, config, cache, &mut |_| {})
}

/// Runs one scenario like [`run_scenario_with`], delivering a
/// [`StreamEvent`] to `observe` at every milestone: once preparation is
/// done, per topology summary, and per completed sweep point — the hook
/// behind `spnn serve`'s NDJSON row streaming (see [`crate::serve`]).
///
/// This is the one-shard local run:
/// [`run_distributed`] over
/// [`LocalExecutor`] with `shards == 1`, so every spelling of a run —
/// unsharded, `--shards k --exec local`, `--spawn`, `--workers`, the
/// coordinator — goes through the same block loop and the same merge.
/// [`run_scenario_with`] **is** this function with a no-op observer, so
/// a report assembled from the event stream is identical — bit for bit —
/// to the batch report.
///
/// The observer runs on the calling thread and paces the sweep: the run
/// starts no block before the previous one was observed, so a
/// cancellation raised while a row is observed stops the run before its
/// next block. A slow observer delays the sweep but cannot change any
/// result.
///
/// # Errors
///
/// Returns [`EngineError`] if the spec fails validation or a weight matrix
/// cannot be mapped onto hardware. Preparation errors precede the first
/// event: once `Started` has been observed, the run can no longer fail.
pub fn run_scenario_streaming_with(
    spec: &ScenarioSpec,
    config: &EngineConfig,
    cache: &ContextCache,
    observe: &mut dyn FnMut(StreamEvent<'_>),
) -> Result<EngineReport, EngineError> {
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config,
        cache,
        cancel: &cancel,
    };
    run_distributed(spec, &LocalExecutor, 1, &ctx, observe).map_err(|e| match e {
        DistError::Exec(ExecError::Engine(e)) => e,
        // Nothing cancels this run's private token, and the local
        // executor's blocks always merge: only preparation can fail.
        other => unreachable!("one-shard local run failed after preparation: {other}"),
    })
}

/// Runs shard `shard_index` of a `shards`-way split of a scenario and
/// returns the partial report covering exactly that slice of the global
/// work queue's rounds (see [`crate::shard`] for the plan, the format,
/// and the merge semantics).
///
/// Every shard independently prepares the scenario (training comes from
/// the shared cache when available) and executes only its assigned round
/// ranges. Merging all `shards` partials with
/// [`crate::shard::merge_partials`] yields a report bit-identical to
/// [`run_scenario_with`] — pinned by tests and by the CI `shard-merge`
/// job.
///
/// # Errors
///
/// Returns [`EngineError::Invalid`] when `shard_index >= shards`, and
/// propagates preparation errors.
pub fn run_scenario_shard_with(
    spec: &ScenarioSpec,
    config: &EngineConfig,
    cache: &ContextCache,
    shards: usize,
    shard_index: usize,
) -> Result<PartialReport, EngineError> {
    let slice = Slice::shard(shards, shard_index).map_err(EngineError::Invalid)?;
    run_slice(spec, config, cache, slice)
}

/// The one partial-run entry point behind [`run_scenario_shard_with`] and
/// `POST /shard`: prepares the scenario, runs the blocks of `slice`, and
/// returns them as one partial report.
///
/// # Errors
///
/// Returns [`EngineError::Invalid`] when a span is empty or overruns the
/// round space, and propagates preparation errors.
pub(crate) fn run_slice(
    spec: &ScenarioSpec,
    config: &EngineConfig,
    cache: &ContextCache,
    slice: Slice,
) -> Result<PartialReport, EngineError> {
    let prep = prepare(spec, config, cache)?;
    let blocks = slice
        .blocks(&sweep_rounds_per_point(&prep))
        .map_err(EngineError::Invalid)?;
    let (shards, index) = slice.coordinates();
    let mut partial = prep.partial(shards, index);
    execute_blocks(&prep, config, &blocks, &CancelToken::new(), &mut |point| {
        partial.points.push(point);
    })
    .expect("a fresh token is never cancelled");
    persist_context(cache, &prep, config.verbose);
    Ok(partial)
}

/// Attempts to serve block `[first_round, first_round + rounds)` of a
/// point from a cached full-point sample stream.
///
/// A cached point that ran to the iteration cap serves **any** block as a
/// slice of its stream. An early-stopped point retains only the samples
/// up to the stopping boundary, so it can serve only prefix blocks
/// (`first_round == 0`): a non-prefix block must speculate past samples
/// the cache never kept, and computes cold instead.
fn serve_block_from_cache(
    cached: &CachedPoint,
    cap: usize,
    round_size: usize,
    first_round: usize,
    rounds: usize,
) -> Option<RangeResult> {
    let k_start = first_round * round_size;
    let k_end = cap.min(k_start + rounds * round_size);
    let retained = cached.samples.len();
    if !cached.stopped_early {
        // Full stream on hand (retained == cap): any slice is exact.
        return Some(RangeResult {
            samples: cached.samples[k_start..k_end].to_vec(),
            stopped_early: false,
        });
    }
    if first_round != 0 {
        return None;
    }
    // Prefix block of an early-stopped point: the cold run would fold the
    // same prefix and stop at the same boundary — either inside this
    // block (serve the retained stream, report the stop) or past its end
    // (serve the full block, no stop inside it).
    Some(RangeResult {
        samples: cached.samples[..retained.min(k_end)].to_vec(),
        stopped_early: retained <= k_end,
    })
}

/// The per-point round count vector of a prepared scenario — the global
/// round space that [`crate::shard::plan_shard`],
/// [`crate::shard::plan_shard_weighted`] and [`crate::shard::plan_span`]
/// all slice. Every point carries the same round count
/// (the iteration cap split into rounds), so peers can compute this
/// without preparing when the queue length is statically known.
pub(crate) fn sweep_rounds_per_point(prep: &PreparedScenario) -> Vec<usize> {
    let cap = prep.stop.max_iterations;
    vec![cap.div_ceil(prep.round_size); prep.points.len()]
}

/// Runs `blocks` of a prepared scenario in order and hands each finished
/// block to `emit` the moment it completes. This is the one loop that
/// runs sweep points, under every execution spelling: the unsharded run
/// (one shard, one block per point), each [`LocalExecutor`] shard and
/// in-process fleet peer, and `POST /shard` (via [`run_slice`]).
///
/// A block that a cached point covers is served from the row cache
/// (`config.row_cache`); every other block computes through
/// [`run_point_range`] on `config.threads` workers. `cancel` is polled
/// between blocks: a block in flight always completes, so every emitted
/// block is bit-identical to the same block of an uncancelled run.
///
/// # Errors
///
/// [`ExecError::Cancelled`] when `cancel` fired before every block ran.
pub(crate) fn execute_blocks(
    prep: &PreparedScenario,
    config: &EngineConfig,
    blocks: &[ShardBlock],
    cancel: &CancelToken,
    emit: &mut dyn FnMut(PartialPoint),
) -> Result<(), ExecError> {
    let cap = prep.stop.max_iterations;
    let counters = SweepCounters::new(&config.metrics);
    let rows = config.row_cache.as_deref().zip(prep.row_ctx.as_ref());
    for block in blocks {
        if cancel.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        let point = &prep.points[block.point];
        let served = rows
            .and_then(|(rc, ctx)| rc.get(&ctx.key(point.topology, &point.item.labels)))
            .and_then(|cached| {
                serve_block_from_cache(
                    &cached,
                    cap,
                    prep.round_size,
                    block.first_round,
                    block.rounds,
                )
            });
        let r = match served {
            Some(r) => {
                tevent!(
                    Level::Trace,
                    "rowcache",
                    "shard block served from row cache",
                    scenario = &prep.name,
                    point = block.point,
                    iterations = r.samples.len(),
                );
                r
            }
            None => {
                let block_span = Span::start("shard_block", counters.rounds_hist.clone());
                let r = run_point_range(
                    &point.hardware,
                    &point.item.plan,
                    &point.item.effects,
                    &prep.batch,
                    &prep.stop,
                    prep.round_size,
                    point.item.seed,
                    config.threads,
                    prep.kernel,
                    block.first_round,
                    block.rounds,
                );
                let block_elapsed = block_span.finish();
                counters.record(r.samples.len(), prep.round_size, r.stopped_early);
                tevent!(
                    Level::Trace,
                    "engine",
                    "shard block done",
                    scenario = &prep.name,
                    point = block.point,
                    first_round = block.first_round,
                    iterations = r.samples.len(),
                    early_stop = r.stopped_early,
                    seconds = block_elapsed.as_secs_f64(),
                );
                r
            }
        };
        let mut welford = Welford::new();
        for &s in &r.samples {
            welford.push(s);
        }
        if config.verbose {
            let labels = point
                .item
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            eprintln!(
                "[engine] {}/{} point {}/{} {labels} rounds {}..{} → mean {:.4} over {} sample(s){}",
                prep.name,
                point.topology,
                block.point + 1,
                prep.points.len(),
                block.first_round,
                block.first_round + block.rounds,
                welford.mean(),
                r.samples.len(),
                if r.stopped_early { ", early stop" } else { "" },
            );
        }
        emit(PartialPoint {
            index: block.point,
            topology: point.topology.to_string(),
            labels: owned_labels(&point.item),
            seed: point.item.seed,
            first_iteration: block.first_round * prep.round_size,
            stopped_early: r.stopped_early,
            welford,
            samples: r.samples,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnn_core::{mc_accuracy, MeshTopology};
    use spnn_linalg::C64;
    use spnn_neural::ComplexNetwork;
    use spnn_photonics::UncertaintySpec;

    fn setup() -> (PhotonicNetwork, Vec<Vec<C64>>, Vec<usize>) {
        let sw = ComplexNetwork::new(&[4, 4, 3], 31);
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let features: Vec<Vec<C64>> = (0..12)
            .map(|i| {
                (0..4)
                    .map(|j| {
                        C64::new(
                            ((i * 7 + j * 3) % 5) as f64 * 0.2,
                            ((i + j) % 3) as f64 * 0.3,
                        )
                    })
                    .collect()
            })
            .collect();
        let ideal = hw.ideal_matrices();
        let labels: Vec<usize> = features
            .iter()
            .map(|f| hw.classify_with(&ideal, f))
            .collect();
        (hw, features, labels)
    }

    #[test]
    fn fixed_count_run_point_matches_mc_accuracy_bitwise() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.06));
        let fx = HardwareEffects::default();
        let reference = mc_accuracy(&hw, &plan, &fx, &xs, &ys, 10, 99);
        let engine = run_point(
            &hw,
            &plan,
            &fx,
            &batch,
            &StopRule::fixed(10),
            4,
            99,
            Some(2),
            KernelProfile::Reference,
        );
        assert_eq!(engine.samples, reference.samples);
        assert_eq!(engine.mean.to_bits(), reference.mean.to_bits());
        assert_eq!(engine.std_dev.to_bits(), reference.std_dev.to_bits());
        assert!(!engine.stopped_early);
    }

    #[test]
    fn range_samples_are_slices_of_the_full_run() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
        let fx = HardwareEffects::default();
        let stop = StopRule::fixed(14); // cap not a multiple of round_size
        let full = run_point(
            &hw,
            &plan,
            &fx,
            &batch,
            &stop,
            4,
            7,
            Some(2),
            KernelProfile::Reference,
        );
        assert_eq!(full.samples.len(), 14);
        // Ranges [0,2), [2,3), [3,4) (the last round is short: 2 iters).
        for (first, rounds, lo, hi) in [
            (0usize, 2usize, 0usize, 8usize),
            (2, 1, 8, 12),
            (3, 1, 12, 14),
        ] {
            let r = run_point_range(
                &hw,
                &plan,
                &fx,
                &batch,
                &stop,
                4,
                7,
                Some(3),
                KernelProfile::Reference,
                first,
                rounds,
            );
            let want: Vec<u64> = full.samples[lo..hi].iter().map(|s| s.to_bits()).collect();
            let got: Vec<u64> = r.samples.iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want, "range [{first}, {first}+{rounds})");
            assert!(!r.stopped_early);
        }
    }

    #[test]
    fn non_prefix_range_never_stops_early() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        // Zero variance (no perturbation) satisfies any target immediately,
        // but a range that does not hold the prefix must not act on it.
        let stop = StopRule::adaptive(32, 4, 0.01);
        let r = run_point_range(
            &hw,
            &PerturbationPlan::None,
            &HardwareEffects::default(),
            &batch,
            &stop,
            4,
            3,
            Some(1),
            KernelProfile::Reference,
            2,
            3,
        );
        assert_eq!(r.samples.len(), 12, "speculative range runs all rounds");
        assert!(!r.stopped_early);
    }

    #[test]
    fn zero_variance_point_stops_at_min_iterations() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        // No uncertainty → every iteration yields the same accuracy.
        let r = run_point(
            &hw,
            &PerturbationPlan::None,
            &HardwareEffects::default(),
            &batch,
            &StopRule::adaptive(100, 6, 0.01),
            4,
            1,
            Some(1),
            KernelProfile::Reference,
        );
        // Stops at the first round boundary ≥ min_iterations = 6 → 8.
        assert_eq!(r.samples.len(), 8);
        assert!(r.stopped_early);
        assert!(r.moe95 <= 0.01);
    }

    #[test]
    fn early_stop_never_violates_the_moe_target() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
        let fx = HardwareEffects::default();
        let stop = StopRule::adaptive(64, 8, 0.04);
        let r = run_point(
            &hw,
            &plan,
            &fx,
            &batch,
            &stop,
            8,
            5,
            Some(2),
            KernelProfile::Reference,
        );
        if r.stopped_early {
            assert!(r.moe95 <= 0.04, "stopped early at moe {} > target", r.moe95);
        } else {
            assert_eq!(r.samples.len(), 64);
        }
    }

    #[test]
    fn report_accessors() {
        let row = SweepRow {
            topology: "clements".into(),
            labels: vec![
                ("sigma".into(), "0.05".into()),
                ("mode".into(), "both".into()),
            ],
            mean: 0.5,
            std_dev: 0.1,
            moe95: 0.02,
            iterations: 10,
            stopped_early: false,
        };
        assert_eq!(row.label("mode"), Some("both"));
        assert_eq!(row.label_f64("sigma"), Some(0.05));
        assert_eq!(row.label("nope"), None);
        let report = EngineReport {
            scenario: "t".into(),
            topologies: vec![],
            rows: vec![row],
        };
        assert_eq!(report.total_iterations(), 10);
        assert_eq!(report.rows_for("clements").count(), 1);
        assert_eq!(report.rows_for("reck").count(), 0);
    }
}
