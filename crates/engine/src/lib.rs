//! `spnn-engine` — a batched, adaptive, deterministic Monte-Carlo
//! simulation engine for silicon-photonic neural networks.
//!
//! The paper estimates accuracy-under-uncertainty with 1000-iteration
//! Monte-Carlo sweeps (§III-D). The seed repository ran every sweep point
//! through a fixed-count, per-figure ad-hoc loop; this crate replaces those
//! loops with one reusable engine:
//!
//! - [`spec::ScenarioSpec`] — a declarative description of a whole
//!   experiment campaign: sweep grids over perturbation plans × hardware
//!   effects × mesh topologies, serializable to/from a simple text format
//!   (`*.scn` files, see `scenarios/` at the workspace root).
//! - [`queue`] — compiles a spec into a flat work queue of fully-resolved
//!   [`queue::WorkItem`]s (one per sweep point).
//! - [`TestBatch`] (from `spnn-core`) — the batched forward path: each realized
//!   hardware sample's transfer matrices are computed once per iteration
//!   and the whole test set is pushed through as tiled split-plane
//!   matrix-matrix products that preserve `CMatrix::mul_vec`'s
//!   accumulation order, bit-identical to the per-sample `mc_accuracy`
//!   reference.
//! - [`estimator`] — Welford-style streaming mean/variance per sweep point
//!   with **adaptive early termination**: iteration stops at a round
//!   boundary once the 95 % margin of error falls below the spec's target.
//! - [`runner`] — the sweep-point primitives and the one block loop every
//!   run executes: deterministic multi-threaded execution using the
//!   per-iteration `splitmix64` seeding of `spnn_core::monte_carlo`, so
//!   results are bit-identical for any worker-thread count.
//! - [`report`] — CSV/JSON emission for downstream plotting.
//! - [`presets`] — built-in scenarios reproducing the paper's figures
//!   (Fig. 4 / EXP 1, Fig. 5 / EXP 2, quantization/thermal/topology
//!   ablations), run by `spnn run --preset` and the figure examples.
//! - [`cache`] — the trained-context cache: scenarios sharing a training
//!   [`cache::Fingerprint`] (dataset, architecture, optimizer
//!   hyper-parameters, seed) train **once**, in-memory within a run and
//!   on disk across runs, with bit-identical results either way.
//! - [`rowcache`] — the point-level result cache (the "scenario CDN"):
//!   every sweep row is a pure function of the spec, so finished rows are
//!   content-addressed by [`rowcache::RowKey`] and memoized in a
//!   two-tier [`rowcache::RowCache`] (in-memory LRU + optional shared
//!   disk dir). The runner consults it before any Monte-Carlo work, the
//!   coordinator before any dispatch; overlapping sweeps only compute
//!   their delta and replayed reports stay byte-identical.
//! - [`store`] — the on-disk artifact discipline both caches share:
//!   content addresses, versioned checksummed record framing, atomic
//!   tmp+rename publishing, and the one listing / `rm` / `gc` /
//!   default-directory implementation behind `spnn cache` and
//!   `spnn rowcache`.
//! - [`shard`] — distributed shard-and-merge execution: a deterministic
//!   planner partitions the compiled queue's rounds across `k` processes
//!   (`spnn run --shards k --shard-index i`, or `--shards k --spawn` for
//!   a local process pool), each writes a versioned JSON
//!   [`shard::PartialReport`], and [`shard::merge_partials`]
//!   (`spnn merge`) validates coverage and recombines them into a report
//!   **bit-identical** to the unsharded run — enforced by CI on every
//!   push.
//! - [`exec`] — the Executor layer: [`exec::LocalExecutor`] (in-process
//!   threads), [`exec::SpawnExecutor`] (child processes), and
//!   [`exec::RemoteExecutor`] (worker `spnn serve` instances over
//!   `POST /shard`, with retry-on-another-worker) behind one trait;
//!   [`exec::run_distributed`] merges partials **as they arrive**
//!   through [`shard::MergeState`] and streams rows in prefix order. It
//!   is the one way a sweep runs: the unsharded run
//!   ([`run_scenario_streaming_with`], and so [`run_scenario_with`]
//!   and [`run_scenario`]) is the one-shard
//!   [`exec::LocalExecutor`] run, so every executor and shard count
//!   produces the same bytes.
//! - [`serve`] — the long-lived scenario service (`spnn serve`): `POST`
//!   a spec, receive per-point rows as **NDJSON the moment they
//!   complete** (or CSV via `?format=csv`), over a dependency-free
//!   [`http`] layer; one process-lifetime [`cache::ContextCache`] makes
//!   repeat requests skip training, [`serve::assemble_report`] rebuilds
//!   the exact batch report from a completed stream, `--workers-from`
//!   turns the service into a streaming coordinator over remote
//!   workers, and SIGTERM drains gracefully.
//! - [`metrics`] — a dependency-free [`metrics::MetricsRegistry`]
//!   (atomic counters, gauges, fixed-bucket histograms) rendered in the
//!   Prometheus text exposition format; every server exposes its own
//!   registry at `GET /metrics`, and `spnn run --stats` prints the
//!   process-global one as an end-of-run phase table.
//! - [`trace`] — structured key=value event lines on stderr (filtered
//!   by `SPNN_LOG`, JSON lines via `SPNN_LOG_FORMAT=json` or
//!   `spnn serve --log-json`) and [`trace::Span`] RAII timers that feed
//!   the registry's histograms; purely observational, so reports stay
//!   bit-identical at any verbosity.
//!
//! The guides under `docs/` at the workspace root complement the rustdoc:
//! `docs/scenario-format.md` is the complete `.scn` reference,
//! `docs/architecture.md` maps the crate stack and the engine's data
//! flow, `docs/sharding.md` covers distributed execution,
//! `docs/serving.md` is the service's operator manual, and
//! `docs/observability.md` catalogs every metric and the log schema.
//!
//! # CLI
//!
//! The crate ships a binary:
//!
//! ```text
//! spnn run scenarios/fig4.scn --format csv --out results/fig4.csv
//! spnn run scenarios/fig4.scn scenarios/fig5.scn --out results/
//! spnn run fig4.scn --shards 3 --shard-index 0 --out part0.json
//! spnn merge part*.json --format json --out fig4.json
//! spnn example fig4          # print a ready-to-edit scenario file
//! spnn validate my.scn       # parse + compile, print the queue size
//! spnn cache ls              # inspect the trained-context cache
//! spnn cache gc --max-entries 16   # evict least-recently-written entries
//! ```
//!
//! # Example
//!
//! ```
//! use spnn_engine::prelude::*;
//!
//! let mut spec = presets::fig4(&RunScale::tiny());
//! spec.sweep.sigmas = vec![0.0, 0.1];
//! spec.sweep.modes = vec![spnn_photonics::PerturbTarget::Both];
//! let report = run_scenario(&spec, &EngineConfig::default()).unwrap();
//! assert_eq!(report.rows.len(), 2);
//! // σ = 0 has zero Monte-Carlo variance; σ = 0.1 does not.
//! assert_eq!(report.rows[0].std_dev, 0.0);
//! assert!(report.rows.iter().all(|r| (0.0..=1.0).contains(&r.mean)));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod estimator;
pub mod exec;
mod fnv;
pub mod http;
mod json;
pub mod metrics;
pub mod presets;
pub mod queue;
pub mod report;
pub mod rowcache;
pub mod runner;
pub mod serve;
pub mod shard;
pub mod spec;
pub mod store;
pub mod trace;

pub use cache::{ContextCache, Fingerprint, TrainedContext};
pub use estimator::{StopRule, Welford};
pub use exec::{
    run_distributed, BreakerConfig, BreakerState, CancelToken, DistError, ExecContext, ExecError,
    Executor, LocalExecutor, RemoteExecutor, SpawnExecutor, WeightSource, WorkerBreakers,
};
pub use metrics::{histogram_quantile, Counter, FloatGauge, Gauge, Histogram, MetricsRegistry};
pub use queue::WorkItem;
pub use report::{to_csv, to_json};
pub use rowcache::{RowCache, RowContext, RowKey};
pub use runner::{
    run_point, run_point_range, run_scenario, run_scenario_shard_with, run_scenario_streaming_with,
    run_scenario_with, EngineConfig, EngineReport, PointResult, RangeResult, StreamEvent, SweepRow,
};
pub use serve::{assemble_report, AssembleError, QuotaConfig, RequestBudget, ServeConfig, Server};
pub use shard::{
    merge_partials, plan_shard, plan_shard_weighted, plan_span, queue_fingerprint,
    queue_fingerprint_with, weighted_span, MergeError, MergeState, PartialReport, ShardBlock,
};
pub use spec::{ParseError, PlanKind, RunScale, ScenarioSpec};
pub use spnn_core::{detected_tier, KernelProfile, KernelTier, TestBatch};
pub use trace::{Level, Span};

/// Commonly used items, importable with `use spnn_engine::prelude::*`.
pub mod prelude {
    pub use crate::cache::{ContextCache, Fingerprint};
    pub use crate::estimator::{StopRule, Welford};
    pub use crate::exec::{
        run_distributed, CancelToken, ExecContext, Executor, LocalExecutor, RemoteExecutor,
        SpawnExecutor, WeightSource,
    };
    pub use crate::metrics::MetricsRegistry;
    pub use crate::presets;
    pub use crate::report::{to_csv, to_json};
    pub use crate::rowcache::{RowCache, RowContext};
    pub use crate::runner::{
        run_point, run_scenario, run_scenario_shard_with, run_scenario_streaming_with,
        run_scenario_with, EngineConfig, EngineReport, StreamEvent, SweepRow,
    };
    pub use crate::serve::{assemble_report, AssembleError, ServeConfig, Server};
    pub use crate::shard::{merge_partials, MergeError, MergeState, PartialReport};
    pub use crate::spec::{PlanKind, RunScale, ScenarioSpec};
    pub use spnn_core::{detected_tier, KernelProfile, KernelTier, TestBatch};
}
