//! The layered benchmark of the spnn workspace.
//!
//! Three workloads, each timed end to end through the engine's public
//! API, plus a traced mode that splits the same work into per-layer
//! spans. See `perfbench/README.md` for the metric catalogue and how to
//! run it.
//!
//! Nothing inside the engine is instrumented: every per-layer number is
//! a span the benchmark records around its own call into a public
//! function (`ContextCache::get_or_train`, `TrainedContext::mapping`,
//! `run_point`, `run_scenario_shard_with`, `merge_partials`,
//! `Server::bind`, `assemble_report`, `to_csv`/`to_json`, …).

mod ablation;
mod campaign;
mod probes;
pub mod serve;
mod util;

use spnn_core::{BatchScratch, KernelProfile, PhotonicNetwork, RealizeScratch};
use spnn_dataset::{DatasetConfig, SpnnDataset};
use spnn_engine::queue::{compile, WorkItem};
use spnn_engine::runner::TopologySummary;
use spnn_engine::{
    run_point, ContextCache, EngineConfig, EngineReport, MetricsRegistry, ScenarioSpec, StopRule,
    SweepRow, TestBatch,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use util::{secs, timed, Rendered, Spans};

/// How much work each operation does. `Full` is the benchmark; `Smoke`
/// runs the same code paths on shrunken inputs so a broken harness fails
/// in seconds (the package's own tests use it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The checked-in scenario scale.
    Full,
    /// Tiny datasets, few epochs and iterations.
    Smoke,
}

impl Scale {
    /// The name used in the digest table.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig4.scn` + `fig5.scn` through one fresh in-memory context cache.
    CampaignCold,
    /// The three ablation scenarios, `--kernel fma`, sharded in-process.
    AblationSharded,
    /// Two closed-loop clients against an in-process `Server`.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignCold,
        Workload::AblationSharded,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCold => "campaign-cold",
            Workload::AblationSharded => "ablation-sharded",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The kernel profile the workload's scenarios run under.
    pub fn kernel(self) -> KernelProfile {
        match self {
            Workload::AblationSharded => KernelProfile::Fma,
            _ => KernelProfile::Reference,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed phase keeps starting new operations.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Private scratch directory (context and row caches). Created on
    /// demand; the caller removes it.
    pub scratch: PathBuf,
}

/// Load threads and client connections: the machine's available
/// parallelism (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Counts operations and their failures. A byte mismatch is a failure
/// that also makes the result incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (scenario reports produced, requests sent).
    pub attempted: u64,
    /// Operations that failed: errors, shed requests, byte mismatches.
    pub failed: u64,
    /// Byte mismatches and broken invariants among `failed`.
    pub mismatched: u64,
    /// Human-readable reasons, printed before the result line.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one failed (but not incorrect) operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(why);
    }

    /// Records one operation whose output must equal `want`.
    pub fn check(&mut self, what: &str, got: &str, want: &str) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            self.mismatched += 1;
            self.notes
                .push(format!("mismatch: {what}: got {got}, want {want}"));
        }
    }

    /// Records a broken harness invariant (not an operation).
    pub fn violated(&mut self, why: String) {
        self.mismatched += 1;
        self.notes.push(format!("invariant: {why}"));
    }

    /// `true` when no output mismatched and no invariant broke.
    pub fn correct(&self) -> bool {
        self.mismatched == 0
    }
}

/// Named metric values in emission order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) metric `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }
}

/// What one invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation counts and failures.
    pub tally: Tally,
    /// The metrics for the requested mode.
    pub metrics: Metrics,
    /// Context lines (stream mix, sample counts) printed before the result.
    pub info: Vec<String>,
}

/// End-to-end measurements every workload reports in the same vocabulary
/// (see the README for what an operation and a unit are per workload).
#[derive(Debug, Default)]
pub(crate) struct EndToEnd {
    /// Set-up seconds, one per operation.
    pub setup_s: Vec<f64>,
    /// Seconds from set-up end until every report is rendered, one per
    /// operation.
    pub report_s: Vec<f64>,
    /// Delivered units (rows or requests) over the timed phases.
    pub units: usize,
    /// Per-unit latencies, ms.
    pub latency_ms: Vec<f64>,
    /// Per-operation time to the first delivered row, ms.
    pub first_row_ms: Vec<f64>,
}

impl EndToEnd {
    /// Per-operation set-up, report and first-row times, for the context
    /// lines.
    pub fn per_op(&self) -> String {
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "setup_s=[{}] report_s=[{}] first_row_ms=[{}]",
            fmt(&self.setup_s),
            fmt(&self.report_s),
            fmt(&self.first_row_ms)
        )
    }

    /// The end-to-end metric set (`--trace 0`).
    pub fn metrics(&self, tally: &Tally) -> Metrics {
        let mut m = Metrics::default();
        let timed: f64 = self.report_s.iter().sum();
        m.put("setup_s", util::median(&self.setup_s), "s");
        m.put("report_s", util::median(&self.report_s), "s");
        m.put("req_per_s", self.units as f64 / timed.max(1e-9), "1/s");
        m.put(
            "latency_p50_ms",
            util::quantile(&self.latency_ms, 0.5),
            "ms",
        );
        m.put(
            "latency_p90_ms",
            util::quantile(&self.latency_ms, 0.9),
            "ms",
        );
        m.put("first_row_p50_ms", util::median(&self.first_row_ms), "ms");
        let attempted = tally.attempted.max(1) as f64;
        m.put("ok_share", 1.0 - tally.failed as f64 / attempted, "ratio");
        m.put("peak_rss_mb", util::peak_rss_mb(), "MB");
        m
    }
}

/// Runs one invocation of the benchmark.
///
/// `--trace 0` runs the workload's timed phase. `--trace 1` runs its
/// traced twin, then the layer probes every traced run shares, and the
/// shard and serve layers on their home inputs when the workload is not
/// already theirs — so every traced run reports every per-layer metric.
pub fn run(opts: &Options) -> Outcome {
    std::fs::create_dir_all(&opts.scratch).expect("create scratch directory");
    let ctx_dir = opts.scratch.join("ctx");
    let mut out = Outcome::default();
    let needs_context = opts.trace || opts.workload != Workload::CampaignCold;
    let prime = needs_context.then(|| prime_context(&ctx_dir, opts.scale));
    match (opts.workload, opts.trace) {
        (Workload::CampaignCold, false) => campaign::run(opts, &mut out),
        (Workload::AblationSharded, false) => ablation::run(opts, &ctx_dir, &mut out),
        (Workload::ServeMixed, false) => serve::run(opts, &ctx_dir, &mut out),
        (workload, true) => {
            match workload {
                Workload::CampaignCold => campaign::traced(opts, &mut out),
                Workload::AblationSharded => ablation::traced(opts, &ctx_dir, &mut out),
                Workload::ServeMixed => {}
            }
            probes::layers(
                opts,
                &ctx_dir,
                prime.as_ref().expect("primed"),
                &mut out.metrics,
            );
            ablation::shard_metrics(opts, &ctx_dir, &mut out.tally, &mut out.metrics);
            serve::session_metrics(opts, &ctx_dir, workload == Workload::ServeMixed, &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Scenario inputs
// ---------------------------------------------------------------------------

/// The checked-in scenarios the benchmark runs, with the kernel profile
/// their workload runs them under.
const SCENARIOS: [(&str, &str, KernelProfile); 5] = [
    (
        "fig4",
        include_str!("../../scenarios/fig4.scn"),
        KernelProfile::Reference,
    ),
    (
        "fig5",
        include_str!("../../scenarios/fig5.scn"),
        KernelProfile::Reference,
    ),
    (
        "ablation_mesh",
        include_str!("../../scenarios/ablation_mesh.scn"),
        KernelProfile::Fma,
    ),
    (
        "ablation_quant",
        include_str!("../../scenarios/ablation_quant.scn"),
        KernelProfile::Fma,
    ),
    (
        "ablation_thermal",
        include_str!("../../scenarios/ablation_thermal.scn"),
        KernelProfile::Fma,
    ),
];

/// Parses checked-in scenario `name` and applies `scale`.
pub(crate) fn load_spec_named(name: &str, scale: Scale) -> ScenarioSpec {
    let (_, text, _) = SCENARIOS
        .iter()
        .find(|(n, _, _)| *n == name)
        .expect("known scenario");
    let mut spec = ScenarioSpec::parse(text).expect("checked-in scenario parses");
    if scale == Scale::Smoke {
        spec.dataset.n_train = 200;
        spec.dataset.n_test = 100;
        spec.train.epochs = 2;
        spec.iterations = spec.iterations.min(8);
        spec.min_iterations = spec.min_iterations.min(4);
        spec.round_size = 4;
    }
    spec
}

/// The campaign's scenarios (fig4, fig5).
pub(crate) fn campaign_specs(scale: Scale) -> Vec<ScenarioSpec> {
    ["fig4", "fig5"]
        .iter()
        .map(|n| load_spec_named(n, scale))
        .collect()
}

/// The ablation trio (mesh, quant, thermal).
pub(crate) fn ablation_specs(scale: Scale) -> Vec<ScenarioSpec> {
    ["ablation_mesh", "ablation_quant", "ablation_thermal"]
        .iter()
        .map(|n| load_spec_named(n, scale))
        .collect()
}

const DIGESTS: &str = include_str!("../digests.txt");

/// The pinned digest of `scenario`'s report at `scale` under `kernel`.
pub(crate) fn pinned_digest(
    scale: Scale,
    scenario: &str,
    kernel: KernelProfile,
) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 4 && f[0] == scale.as_str() && f[1] == scenario && f[2] == kernel.as_str())
            .then_some(f[3])
    })
}

/// Checks a rendered report against its pinned digest.
pub(crate) fn check_pinned(
    tally: &mut Tally,
    scale: Scale,
    kernel: KernelProfile,
    name: &str,
    r: &Rendered,
) {
    let want = pinned_digest(scale, name, kernel).unwrap_or("<not pinned>");
    tally.check(
        &format!("{name} ({kernel:?}) report digest"),
        &r.digest(),
        want,
    );
}

/// The `digests.txt` table, recomputed with the engine's batch driver.
pub fn compute_digests() -> String {
    let mut out = String::from(
        "# scale scenario kernel fnv1a64(csv NUL json): report digests pinned by the benchmark.\n\
         # Regenerate with: bash perfbench/run.sh --print-digests\n",
    );
    for scale in [Scale::Full, Scale::Smoke] {
        let cache = ContextCache::in_memory();
        for (name, _, kernel) in SCENARIOS {
            let spec = load_spec_named(name, scale);
            let report =
                spnn_engine::run_scenario_with(&spec, &engine_config(None, kernel), &cache)
                    .expect("pinned scenario runs");
            let digest = Rendered::of(&report).digest();
            out.push_str(&format!(
                "{} {} {} {digest}\n",
                scale.as_str(),
                spec.name,
                kernel.as_str()
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Engine plumbing shared by the workloads
// ---------------------------------------------------------------------------

/// An engine configuration with a private metrics registry and no row
/// cache.
pub(crate) fn engine_config(threads: Option<usize>, kernel: KernelProfile) -> EngineConfig {
    EngineConfig {
        threads,
        kernel,
        verbose: false,
        cache_dir: None,
        metrics: MetricsRegistry::new(),
        row_cache: None,
    }
}

/// Trains the shared context once into the on-disk cache `dir` and
/// persists both mappings, so later caches on `dir` warm-load. Every
/// pinned scenario shares this training fingerprint.
pub(crate) fn prime_context(dir: &Path, scale: Scale) -> PrimeTimes {
    let spec = load_spec_named("ablation_mesh", scale);
    let cache = ContextCache::on_disk(dir);
    let (ctx, fit_s) = timed(|| cache.get_or_train(&spec, false));
    let shuffle = shuffle_seed(&spec);
    let mut mapping_s = Vec::new();
    for &topology in &spec.topologies {
        mapping_s.push(timed(|| ctx.mapping(topology, shuffle).expect("mapping")).1);
    }
    let persist_s = timed(|| cache.persist(&ctx).expect("persist context")).1;
    PrimeTimes {
        fit_s,
        mapping_s,
        persist_s,
    }
}

/// Span times of [`prime_context`].
#[derive(Debug, Clone)]
pub(crate) struct PrimeTimes {
    /// Cold `get_or_train` (dataset, training, first persist).
    pub fit_s: f64,
    /// `TrainedContext::mapping` per topology (clements, reck).
    pub mapping_s: Vec<f64>,
    /// `ContextCache::persist` with both mappings.
    pub persist_s: f64,
}

fn shuffle_seed(spec: &ScenarioSpec) -> Option<u64> {
    spec.train
        .shuffle_singular_values
        .then_some(spec.seed ^ 0x33)
}

fn topology_name(t: spnn_core::MeshTopology) -> &'static str {
    match t {
        spnn_core::MeshTopology::Clements => "clements",
        spnn_core::MeshTopology::Reck => "reck",
    }
}

/// A scenario prepared through public calls: the work the runner does
/// before its first Monte-Carlo iteration.
pub(crate) struct Prepared {
    name: String,
    kernel: KernelProfile,
    batch: TestBatch,
    stop: StopRule,
    round_size: usize,
    topologies: Vec<TopologySummary>,
    points: Vec<(&'static str, Arc<PhotonicNetwork>, WorkItem)>,
}

/// Context acquisition, mapping, test batch and queue compilation for
/// `spec`, each a top-level span in `spans`.
pub(crate) fn prepare(
    spec: &ScenarioSpec,
    cache: &ContextCache,
    kernel: KernelProfile,
    spans: &mut Spans,
) -> Prepared {
    let ctx = spans.span("context", || cache.get_or_train(spec, false));
    let shuffle = shuffle_seed(spec);
    let hardware: Vec<_> = spans.span("mapping", || {
        spec.topologies
            .iter()
            .map(|&t| (topology_name(t), ctx.mapping(t, shuffle).expect("mapping")))
            .collect()
    });
    let (data, batch) = spans.span("test_batch", || {
        let data = SpnnDataset::generate(&DatasetConfig {
            n_train: 0,
            n_test: spec.dataset.n_test,
            crop: spec.dataset.crop,
            seed: spec.seed,
        });
        let batch = TestBatch::new(&data.test_features, &data.test_labels);
        (data, batch)
    });
    let (topologies, points) = spans.span("compile", || {
        let software_accuracy = ctx
            .software()
            .accuracy(&data.test_features, &data.test_labels);
        let mut topologies = Vec::new();
        let mut points = Vec::new();
        for (name, hw) in &hardware {
            let nominal_accuracy = batch.accuracy_with_profile(
                hw,
                &hw.ideal_matrices(),
                kernel,
                &mut BatchScratch::default(),
            );
            topologies.push(TopologySummary {
                topology: name.to_string(),
                software_accuracy,
                nominal_accuracy,
            });
            points.extend(
                compile(spec, hw)
                    .into_iter()
                    .map(|item| (*name, Arc::clone(hw), item)),
            );
        }
        (topologies, points)
    });
    let stop = if spec.target_moe > 0.0 {
        StopRule::adaptive(spec.iterations, spec.min_iterations, spec.target_moe)
    } else {
        StopRule::fixed(spec.iterations)
    };
    Prepared {
        name: spec.name.clone(),
        kernel,
        batch,
        stop,
        round_size: spec.round_size,
        topologies,
        points,
    }
}

/// One sweep point of a traced run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PointTrace {
    /// `run_point` wall seconds.
    pub seconds: f64,
    /// Iterations spent.
    pub iterations: usize,
    /// Whether the adaptive rule stopped early.
    pub stopped_early: bool,
    /// Single-threaded `realize_into` seconds of one iteration.
    pub realize_s: f64,
    /// Single-threaded batched forward seconds of one iteration.
    pub forward_s: f64,
}

/// Runs every point of `prep` with `run_point` (one span each) and
/// renders the report (one span).
pub(crate) fn sweep(
    prep: &Prepared,
    threads: Option<usize>,
    spans: &mut Spans,
) -> (Rendered, Vec<PointTrace>) {
    let mut rows = Vec::with_capacity(prep.points.len());
    let mut traces = Vec::with_capacity(prep.points.len());
    for (topology, hw, item) in &prep.points {
        let r = spans.span("run_point", || {
            run_point(
                hw,
                &item.plan,
                &item.effects,
                &prep.batch,
                &prep.stop,
                prep.round_size,
                item.seed,
                threads,
                prep.kernel,
            )
        });
        traces.push(PointTrace {
            seconds: spans.last(),
            iterations: r.samples.len(),
            stopped_early: r.stopped_early,
            realize_s: 0.0,
            forward_s: 0.0,
        });
        rows.push(SweepRow {
            topology: topology.to_string(),
            labels: item
                .labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            mean: r.mean,
            std_dev: r.std_dev,
            moe95: r.moe95,
            iterations: r.samples.len(),
            stopped_early: r.stopped_early,
        });
    }
    let report = EngineReport {
        scenario: prep.name.clone(),
        topologies: prep.topologies.clone(),
        rows,
    };
    (spans.span("render", || Rendered::of(&report)), traces)
}

/// Times one single-threaded iteration (realize, then forward) of every
/// point of `prep`, outside any traced span.
pub(crate) fn sample_iterations(prep: &Prepared, traces: &mut [PointTrace]) {
    let mut realize = RealizeScratch::default();
    let mut matrices = Vec::new();
    let mut scratch = BatchScratch::default();
    for ((_, hw, item), t) in prep.points.iter().zip(traces.iter_mut()) {
        let mut rng = spnn_core::iteration_rng(item.seed, 0);
        let start = Instant::now();
        hw.realize_into(
            &item.plan,
            &item.effects,
            &mut rng,
            &mut realize,
            &mut matrices,
        );
        t.realize_s = secs(start);
        let start = Instant::now();
        std::hint::black_box(prep.batch.accuracy_with_profile(
            hw,
            &matrices,
            prep.kernel,
            &mut scratch,
        ));
        t.forward_s = secs(start);
    }
}

/// The traced pipeline over `specs`: every scenario prepared and swept
/// through public calls and rendered.
pub(crate) struct TracedRun {
    /// Rendered reports, in spec order.
    pub reports: Vec<(String, Rendered)>,
    /// Every point, in report order.
    pub points: Vec<PointTrace>,
    /// Top-level spans.
    pub spans: Spans,
    /// Wall seconds of the whole pipeline.
    pub wall_s: f64,
}

/// Runs the traced pipeline; single-iteration samples are taken after the
/// timed part.
pub(crate) fn traced_run(
    specs: &[ScenarioSpec],
    cache: &ContextCache,
    threads: Option<usize>,
    kernel: KernelProfile,
) -> TracedRun {
    let mut spans = Spans::default();
    let mut reports = Vec::new();
    let mut points = Vec::new();
    let mut prepared = Vec::new();
    let start = Instant::now();
    for spec in specs {
        let prep = prepare(spec, cache, kernel, &mut spans);
        let (rendered, traces) = sweep(&prep, threads, &mut spans);
        reports.push((spec.name.clone(), rendered));
        prepared.push((prep, traces));
    }
    let wall_s = secs(start);
    for (prep, mut traces) in prepared {
        sample_iterations(&prep, &mut traces);
        points.extend(traces);
    }
    TracedRun {
        reports,
        points,
        spans,
        wall_s,
    }
}

/// The untraced twin of [`traced_run`]: the engine's batch driver over
/// the same specs. Returns the rendered reports and the wall seconds.
pub(crate) fn untraced_run(
    specs: &[ScenarioSpec],
    cache: &ContextCache,
    threads: Option<usize>,
    kernel: KernelProfile,
) -> (Vec<(String, Rendered)>, f64) {
    let config = engine_config(threads, kernel);
    timed(|| {
        specs
            .iter()
            .map(|spec| {
                let report =
                    spnn_engine::run_scenario_with(spec, &config, cache).expect("scenario runs");
                (spec.name.clone(), Rendered::of(&report))
            })
            .collect()
    })
}

/// Stated tolerance of the accounting check: top-level spans must cover
/// the traced wall time to within this share.
pub(crate) const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// Per-workload layer metrics: runs the untraced twin, the traced
/// pipeline and the untraced twin again (so slow drift of the machine
/// cancels out of the overhead), checks that every traced report equals
/// the untraced one, and emits runner, realize share, estimator, report,
/// trace overhead and the (asserted) accounting check. Returns the
/// untraced reports. `cache` makes a fresh context cache per pass.
pub(crate) fn pipeline_metrics(
    specs: &[ScenarioSpec],
    cache: impl Fn() -> ContextCache,
    threads: Option<usize>,
    kernel: KernelProfile,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Vec<(String, Rendered)> {
    let (reports, before) = untraced_run(specs, &cache(), threads, kernel);
    let traced = traced_run(specs, &cache(), threads, kernel);
    let after = untraced_run(specs, &cache(), threads, kernel).1;
    let untraced_s = (before + after) / 2.0;
    let threads = threads.unwrap_or_else(nproc);
    for ((name, t), (_, u)) in traced.reports.iter().zip(&reports) {
        tally.check(
            &format!("{name}: traced report equals untraced"),
            &t.digest(),
            &u.digest(),
        );
    }
    let point_ms: Vec<f64> = traced.points.iter().map(|p| p.seconds * 1e3).collect();
    let run_point_s: f64 = traced.points.iter().map(|p| p.seconds).sum();
    let iterations: usize = traced.points.iter().map(|p| p.iterations).sum();
    let realize: f64 = traced
        .points
        .iter()
        .map(|p| p.realize_s * p.iterations as f64)
        .sum();
    let forward: f64 = traced
        .points
        .iter()
        .map(|p| p.forward_s * p.iterations as f64)
        .sum();
    m.put("runner.point_ms.p50", util::median(&point_ms), "ms");
    m.put(
        "runner.point_ms.max",
        point_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.put(
        "runner.mc_iters_per_s",
        iterations as f64 / run_point_s.max(1e-9),
        "1/s",
    );
    m.put(
        "runner.parallel_efficiency",
        (realize + forward) / (threads as f64 * run_point_s.max(1e-9)),
        "ratio",
    );
    m.put(
        "realize.share",
        realize / (realize + forward).max(1e-12),
        "ratio",
    );
    m.put("estimator.iterations_spent", iterations as f64, "count");
    m.put(
        "estimator.early_stop_points",
        traced.points.iter().filter(|p| p.stopped_early).count() as f64,
        "count",
    );
    m.put("report.render_ms", traced.spans.total("render") * 1e3, "ms");
    m.put(
        "trace.overhead_share",
        traced.wall_s / untraced_s.max(1e-9) - 1.0,
        "ratio",
    );
    let residual = (traced.wall_s - traced.spans.sum()).abs() / traced.wall_s.max(1e-9);
    m.put("accounting.residual_share", residual, "ratio");
    if residual > ACCOUNTING_TOLERANCE {
        tally.violated(format!(
            "accounting residual {residual:.4} exceeds the stated tolerance {ACCOUNTING_TOLERANCE}"
        ));
    }
    reports
}
