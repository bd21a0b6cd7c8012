//! Work-stealing chaos tests: the acceptance guarantee is that a fleet
//! with stealing enabled produces reports **byte-for-byte identical** to
//! the unsharded run while a straggler is stolen from, killed mid-steal,
//! or answers only after its slice was already re-dispatched — and that
//! the steal is observable (`spnn_steal_total`,
//! `spnn_shard_rounds_redispatched_total`) and actually beats the
//! no-steal wall clock. Overlap safety rests on determinism under
//! redundancy: iteration `k` of a point is a pure function of
//! `(seed, k)`, so speculative duplicates carry identical bits and
//! `MergeState` can drop them. Every fleet trains past chance, once,
//! into an on-disk cache its workers and coordinators load.

mod common;

use common::{
    assert_same_bytes, classifying, post_shard, scrape, start_server_raw, tiny_fig4, Fault,
    FaultWorker, TrainedCache,
};
use spnn_engine::exec::{run_distributed, CancelToken, ExecContext, Executor, RemoteExecutor};
use spnn_engine::metrics::{MetricsRegistry, Reading};
use spnn_engine::prelude::*;
use spnn_engine::shard::merge_partials;
use std::time::{Duration, Instant};

/// Sums a counter family across label sets in a fresh-per-run registry.
fn counter_total(registry: &MetricsRegistry, name: &str) -> u64 {
    registry
        .snapshot()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            Reading::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Runs `spec` through `executor` over `cache` with a fresh registry;
/// returns the merged report, the registry, and the wall clock.
fn fleet_run(
    spec: &ScenarioSpec,
    executor: &dyn Executor,
    peers: usize,
    cache: &TrainedCache,
) -> (EngineReport, MetricsRegistry, Duration) {
    let registry = MetricsRegistry::new();
    let config = EngineConfig {
        threads: Some(2),
        verbose: false,
        cache_dir: None,
        metrics: registry.clone(),
        ..EngineConfig::default()
    };
    let cache = cache.context();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let start = Instant::now();
    let report = run_distributed(spec, executor, peers, &ctx, &mut |_| {})
        .unwrap_or_else(|e| panic!("{} run failed: {e}", executor.name()));
    (report, registry, start.elapsed())
}

fn assert_matches_unsharded(
    cache: &TrainedCache,
    spec: &ScenarioSpec,
    report: &EngineReport,
    what: &str,
) {
    assert_same_bytes(report, &cache.reference(spec), what);
}

/// Tentpole acceptance: with one worker slowed far past its peers, a
/// stealing fleet re-dispatches the straggler's slice, stays
/// byte-identical to the unsharded run, counts the steal, and beats the
/// no-steal wall clock (which must wait the full injected latency).
#[test]
fn stolen_straggler_is_byte_identical_and_beats_no_steal() {
    let cache = TrainedCache::new("steal-straggler");
    let spec = classifying(tiny_fig4());
    cache.reference(&spec);
    let delay = Duration::from_secs(4);
    let straggler = FaultWorker::start(cache.worker(), Fault::Latency(delay));
    let workers = vec![
        straggler.url(),
        format!("http://{}", cache.worker()),
        format!("http://{}", cache.worker()),
    ];

    // No-steal first: its wall clock is bounded below by the injected
    // latency, because the straggler's slice has exactly one home.
    let no_steal = RemoteExecutor::new(workers.clone());
    let (report, registry, without) = fleet_run(&spec, &no_steal, 3, &cache);
    assert_matches_unsharded(&cache, &spec, &report, "no-steal fleet with straggler");
    assert_eq!(counter_total(&registry, "spnn_steal_total"), 0);
    assert!(
        without >= delay,
        "without stealing the straggler must gate the run ({without:?})"
    );

    let stealing = RemoteExecutor::new(workers).with_steal(true);
    let (report, registry, with) = fleet_run(&spec, &stealing, 3, &cache);
    assert_matches_unsharded(&cache, &spec, &report, "stealing fleet with straggler");
    assert!(
        counter_total(&registry, "spnn_steal_total") >= 1,
        "a drained peer must have claimed the straggler's slice"
    );
    assert!(
        counter_total(&registry, "spnn_shard_rounds_redispatched_total") >= 1,
        "re-dispatched rounds must be counted"
    );
    assert!(
        with < without,
        "stealing must beat the no-steal wall clock ({with:?} vs {without:?})"
    );
}

/// A straggler that never answers at all — killed mid-steal, socket left
/// open — must not wedge the run: the stolen re-dispatch completes the
/// round space, the coordinator cancels the orphaned dispatch, and the
/// report is byte-identical.
#[test]
fn straggler_killed_mid_steal_still_completes_byte_identical() {
    let cache = TrainedCache::new("steal-corpse");
    let spec = classifying(tiny_fig4());
    cache.reference(&spec);
    // Far beyond the test's lifetime: the victim's answer never comes.
    let corpse = FaultWorker::start(cache.worker(), Fault::Latency(Duration::from_secs(300)));
    let workers = vec![
        corpse.url(),
        format!("http://{}", cache.worker()),
        format!("http://{}", cache.worker()),
    ];
    let executor = RemoteExecutor::new(workers).with_steal(true);
    let start = Instant::now();
    let (report, registry, _) = fleet_run(&spec, &executor, 3, &cache);
    assert_matches_unsharded(
        &cache,
        &spec,
        &report,
        "stealing fleet with dead-socket straggler",
    );
    assert!(counter_total(&registry, "spnn_steal_total") >= 1);
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "the run must not wait for the corpse's socket"
    );
}

/// The merge-level half of overlap safety, deterministic and
/// order-independent: a victim that answers *after* its slice was
/// re-dispatched delivers a partial whose rounds are already covered.
/// `MergeState` must absorb full/subset/duplicate overlaps in any
/// arrival order without changing a byte.
#[test]
fn late_and_duplicate_span_partials_merge_byte_identical() {
    let cache = TrainedCache::new("steal-overlap");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let text = spec.to_text();
    let worker_a = cache.worker();
    let worker_b = cache.worker();

    // tiny_fig4: 3 points x ceil(8/4) = 6 round-space units.
    let full = |addr| {
        let (status, body) = post_shard(addr, "span=0-6", &text);
        assert_eq!(status, 200, "{body}");
        PartialReport::parse(&body).expect("parse span partial")
    };
    let victim = full(worker_a); // the late answer: the whole slice
    let stolen_lo = {
        let (status, body) = post_shard(worker_b, "span=0-3", &text);
        assert_eq!(status, 200, "{body}");
        PartialReport::parse(&body).expect("parse span partial")
    };
    let stolen_hi = {
        let (status, body) = post_shard(worker_b, "span=3-6", &text);
        assert_eq!(status, 200, "{body}");
        PartialReport::parse(&body).expect("parse span partial")
    };
    let duplicate = full(worker_b); // the same bytes from a different box

    // Every arrival order, including duplicates-first, merges to the
    // same bytes as the unsharded run.
    let orders: Vec<Vec<&PartialReport>> = vec![
        vec![&stolen_lo, &stolen_hi, &victim],
        vec![&victim, &stolen_lo, &stolen_hi],
        vec![&duplicate, &victim, &stolen_lo, &stolen_hi],
        vec![&stolen_hi, &duplicate, &stolen_lo],
    ];
    for (i, order) in orders.iter().enumerate() {
        let parts: Vec<PartialReport> = order.iter().map(|p| (*p).clone()).collect();
        let merged = merge_partials(&parts)
            .unwrap_or_else(|e| panic!("order {i}: overlapping merge rejected: {e}"));
        assert_eq!(
            to_json(&merged),
            to_json(&reference),
            "order {i}: JSON diverged"
        );
        assert_eq!(
            to_csv(&merged),
            to_csv(&reference),
            "order {i}: CSV diverged"
        );
    }
}

/// The serve-layer wiring end to end: a coordinator configured with
/// stealing, a local peer, and healthz-seeded weights streams a report
/// byte-identical to the batch run while one worker drags, and exposes
/// the steal counters and per-worker capacity gauges on `/metrics`.
#[test]
fn coordinator_with_steal_flag_streams_byte_identical_and_counts_steals() {
    let cache = TrainedCache::new("steal-coordinator");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let straggler = FaultWorker::start(cache.worker(), Fault::Latency(Duration::from_secs(3)));
    let coordinator = start_server_raw(ServeConfig {
        workers: 2,
        engine: cache.engine(),
        remote_workers: vec![straggler.url(), format!("http://{}", cache.worker())],
        steal: true,
        local_peers: 1,
        weights_from: spnn_engine::WeightSource::Healthz,
        ..ServeConfig::default()
    });
    let (status, stream) = common::post_run(coordinator, &spec.to_text());
    assert_eq!(status, 200, "{stream}");
    let assembled = spnn_engine::assemble_report(&stream).expect("assemble");
    assert_same_bytes(&assembled, &reference, "stealing coordinator stream");

    let exp = scrape(coordinator);
    assert!(
        exp.total("spnn_steal_total") >= 1.0,
        "the slowed worker's slice must have been stolen"
    );
    assert!(
        exp.total("spnn_shard_rounds_redispatched_total") >= 1.0,
        "re-dispatched rounds must be visible on /metrics"
    );
    let capacity_series = exp
        .samples
        .iter()
        .filter(|s| s.name == "spnn_worker_capacity_weight")
        .count();
    assert!(
        capacity_series >= 3,
        "healthz weighting must export one capacity gauge per peer \
         (remote and local), saw {capacity_series}"
    );
}
