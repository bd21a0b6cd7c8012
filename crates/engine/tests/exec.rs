//! Executor-layer integration tests: the acceptance guarantee is that
//! `LocalExecutor`, `SpawnExecutor`, and `RemoteExecutor` all drive the
//! same `run_distributed` merge path and produce reports **byte-for-byte
//! identical** to the unsharded `spnn run` — including when a remote
//! worker is dead or fails mid-response and its shard is retried on
//! another worker — and that rows stream in strict prefix order while
//! shards complete out of order. The byte-identity gates run on the
//! past-chance training recipe (`common::classifying`), trained once per
//! test into an on-disk cache its executors and workers share.

mod common;

use common::{
    assert_same_bytes, classifying, dead_addr, flaky_addr, http, Fault, FaultWorker, TrainedCache,
};
use spnn_engine::exec::{
    run_distributed, CancelToken, DistError, ExecContext, ExecError, Executor, LocalExecutor,
    RemoteExecutor, SpawnExecutor, WeightSource,
};
use spnn_engine::prelude::*;
use spnn_engine::runner::StreamEvent;
use spnn_engine::serve::{ServeConfig, Server};
use spnn_photonics::PerturbTarget;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// A slightly wider fig4 than the shared tiny one: 6 points so every
/// executor shape (more shards than workers, local+remote mixes) has
/// work to spread.
fn tiny_fig4() -> ScenarioSpec {
    let mut spec = common::tiny_fig4();
    spec.sweep.modes = vec![PerturbTarget::Both, PerturbTarget::PhaseShiftersOnly];
    spec.iterations = 10;
    spec
}

/// Runs `spec` through `executor` over `cache`, asserting rows stream in
/// prefix order, and returns the merged report.
fn distribute(
    spec: &ScenarioSpec,
    executor: &dyn Executor,
    shards: usize,
    cache: &ContextCache,
) -> EngineReport {
    let config = EngineConfig {
        threads: Some(2),
        verbose: false,
        cache_dir: None,
        ..EngineConfig::default()
    };
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache,
        cancel: &cancel,
    };
    let mut row_indices = Vec::new();
    let report = run_distributed(spec, executor, shards, &ctx, &mut |event| {
        if let StreamEvent::Row { index, .. } = event {
            row_indices.push(index);
        }
    })
    .unwrap_or_else(|e| panic!("{} executor failed: {e}", executor.name()));
    let expected: Vec<usize> = (0..report.rows.len()).collect();
    assert_eq!(
        row_indices,
        expected,
        "{}: rows must stream in prefix order",
        executor.name()
    );
    report
}

/// Acceptance criterion: the in-process threaded executor is
/// byte-identical to the unsharded run for several shard counts.
#[test]
fn local_executor_is_byte_identical() {
    let cache = TrainedCache::new("local");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    for shards in [1, 3, 5] {
        let report = distribute(&spec, &LocalExecutor, shards, &cache.context());
        assert_same_bytes(&report, &reference, &format!("local k={shards}"));
    }
}

/// In-process slices poll the token between blocks: a one-shard local
/// run cancelled at its first row stops computing instead of finishing
/// its whole span, and reports the cancellation.
#[test]
fn local_run_cancelled_at_the_first_row_stops_between_blocks() {
    let mut spec = tiny_fig4();
    // Heavier blocks, so the cancellation lands while blocks remain.
    spec.iterations = 400;
    spec.target_moe = 0.0;
    let registry = MetricsRegistry::new();
    let config = EngineConfig {
        threads: Some(1),
        metrics: registry.clone(),
        ..EngineConfig::default()
    };
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let mut rows = 0usize;
    let err = run_distributed(&spec, &LocalExecutor, 1, &ctx, &mut |event| {
        if let StreamEvent::Row { .. } = event {
            rows += 1;
            cancel.cancel();
        }
    })
    .expect_err("a run cancelled mid-sweep must fail");
    assert!(
        matches!(err, DistError::Exec(ExecError::Cancelled)),
        "{err}"
    );
    assert_eq!(rows, 1, "no row may follow the cancellation");
    let points: u64 = registry
        .snapshot()
        .into_iter()
        .filter(|series| series.name == "spnn_points_total")
        .map(|series| match series.value {
            spnn_engine::metrics::Reading::Counter(v) => v,
            _ => 0,
        })
        .sum();
    assert_eq!(
        points, 1,
        "the cancelled slice must stop before its next block, ran {points} of 6 points"
    );
}

/// A local run plans no fleet: no capacity weights are published and no
/// steal counters are registered.
#[test]
fn local_run_registers_no_fleet_series() {
    let registry = MetricsRegistry::new();
    let config = EngineConfig {
        threads: Some(1),
        metrics: registry.clone(),
        ..EngineConfig::default()
    };
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    run_distributed(&tiny_fig4(), &LocalExecutor, 3, &ctx, &mut |_| {}).expect("local k=3 run");
    let names: Vec<String> = registry.snapshot().into_iter().map(|s| s.name).collect();
    assert!(names.iter().any(|n| n == "spnn_points_total"), "{names:?}");
    for fleet in [
        "spnn_worker_capacity_weight",
        "spnn_steal_total",
        "spnn_shard_rounds_redispatched_total",
    ] {
        assert!(
            !names.iter().any(|n| n == fleet),
            "{fleet} registered: {names:?}"
        );
    }
}

/// Acceptance criterion: the child-process executor (the library home of
/// `spnn run --shards k --spawn`) is byte-identical to the unsharded run.
#[test]
fn spawn_executor_is_byte_identical() {
    let cache = TrainedCache::new("spawn");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let executor = SpawnExecutor {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_spnn")),
    };
    let report = distribute(&spec, &executor, 3, &cache.context());
    assert_same_bytes(&report, &reference, "spawn k=3");
}

/// Two spawn runs of one spec in one process at the same time keep their
/// scratch apart: neither reads, overwrites or deletes the other's spec
/// and part files. The k=3 run pre-warms a cold cache (it trains) before
/// it launches a child, so the warm k=1 run finishes and cleans up first.
#[test]
fn concurrent_spawn_runs_of_one_spec_do_not_collide() {
    let (warm, cold) = (
        TrainedCache::new("spawn-warm"),
        TrainedCache::new("spawn-cold"),
    );
    let spec = classifying(tiny_fig4());
    let reference = warm.reference(&spec);
    let executor = SpawnExecutor {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_spnn")),
    };
    std::thread::scope(|scope| {
        for (shards, cache) in [(3, &cold), (1, &warm)] {
            let (spec, executor, reference) = (&spec, &executor, &reference);
            scope.spawn(move || {
                let report = distribute(spec, executor, shards, &cache.context());
                assert_same_bytes(&report, reference, &format!("concurrent spawn k={shards}"));
            });
        }
    });
}

/// Starts `n` workers on `cache` and returns their addresses and URLs.
fn workers(cache: &TrainedCache, n: usize) -> (Vec<SocketAddr>, Vec<String>) {
    let addrs: Vec<SocketAddr> = (0..n).map(|_| cache.worker()).collect();
    let urls = addrs.iter().map(|a| format!("http://{a}")).collect();
    (addrs, urls)
}

/// A worker's `/healthz` count of completed `/shard` requests.
fn shards_completed(addr: SocketAddr) -> u64 {
    let (status, body) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    body.split_once("\"shards_completed\": ")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no shards_completed in {body}"))
}

/// An executor wrapper that records the plan coordinates every delivered
/// partial carries: `(K, i)` for a `shards=K&index=i` dispatch, `(1, 0)`
/// for a span.
struct Recording<'a> {
    inner: &'a dyn Executor,
    seen: Mutex<Vec<(usize, usize)>>,
}

impl Executor for Recording<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(
        &self,
        spec: &ScenarioSpec,
        shards: usize,
        ctx: &ExecContext<'_>,
        deliver: &mut dyn FnMut(PartialReport) -> bool,
    ) -> Result<(), ExecError> {
        self.inner.execute(spec, shards, ctx, &mut |partial| {
            let coordinates = (partial.shards, partial.shard_index);
            self.seen.lock().unwrap().push(coordinates);
            deliver(partial)
        })
    }
}

/// Acceptance criterion: a remote fan-out across healthy workers is
/// byte-identical to the unsharded run — with as many shards as workers,
/// more shards than workers, and for the zonal fig5, whose queue length
/// the coordinator cannot derive (so stealing falls back to the uniform
/// plan). Without stealing, shard `i` of `K` is exactly one
/// `shards=K&index=i` dispatch, answered by worker `i mod n`.
#[test]
fn remote_executor_is_byte_identical() {
    let cache = TrainedCache::new("remote");
    let cases = [
        (classifying(tiny_fig4()), 3, 3),
        (classifying(tiny_fig4()), 2, 5),
        (classifying(common::tiny_fig5()), 2, 3),
    ];
    for (spec, n, k) in cases {
        let reference = cache.reference(&spec);
        let zonal = spnn_engine::queue::static_queue_len(&spec).is_none();
        for steal in [false, true] {
            let what = format!("{} k={k} over {n} workers, steal={steal}", spec.name);
            let (addrs, urls) = workers(&cache, n);
            let remote = RemoteExecutor::new(urls).with_steal(steal);
            let recording = Recording {
                inner: &remote,
                seen: Mutex::new(Vec::new()),
            };
            let report = distribute(&spec, &recording, k, &cache.context());
            assert_same_bytes(&report, &reference, &what);
            for &addr in &addrs {
                let (_, stats) = http(addr, "GET /cache/stats HTTP/1.1\r\nHost: t\r\n\r\n");
                assert!(
                    stats.contains("\"trains\": 0"),
                    "{what}: a worker trained: {stats}"
                );
            }
            if steal && !zonal {
                continue; // healthy stealers may re-dispatch spans
            }
            let mut seen = recording.seen.into_inner().unwrap();
            seen.sort_unstable();
            let expected: Vec<(usize, usize)> = (0..k).map(|i| (k, i)).collect();
            assert_eq!(
                seen, expected,
                "{what}: one shards=K&index=i partial per shard"
            );
            let completed: Vec<u64> = addrs.iter().map(|&a| shards_completed(a)).collect();
            let rotation: Vec<u64> = (0..n).map(|w| (w..k).step_by(n).count() as u64).collect();
            assert_eq!(
                completed, rotation,
                "{what}: shard i must run on worker i mod n"
            );
        }
    }
}

/// Satellite acceptance: shards whose first worker is dead (connection
/// refused) or fails mid-response are retried on another worker, and the
/// merged report is still byte-identical — a failure is invisible in the
/// output.
#[test]
fn worker_failure_is_retried_on_another_worker() {
    let cache = TrainedCache::new("retry");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let workers = vec![
        format!("http://{}", dead_addr()),
        format!("http://{}", flaky_addr()),
        format!("http://{}", cache.worker()),
        format!("http://{}", cache.worker()),
    ];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 4, &cache.context());
    assert_same_bytes(&report, &reference, "remote with dead+flaky workers");
}

/// With every worker unreachable the run fails with a Remote error that
/// names the per-worker reasons — it must not hang or fabricate rows.
#[test]
fn all_workers_dead_is_an_error() {
    let spec = tiny_fig4();
    let executor = RemoteExecutor::new(vec![
        format!("http://{}", dead_addr()),
        format!("http://{}", dead_addr()),
    ]);
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let err =
        run_distributed(&spec, &executor, 2, &ctx, &mut |_| {}).expect_err("dead fleet must fail");
    assert!(err.to_string().contains("every worker failed"), "{err}");
}

/// A cancelled token makes the remote executor give up quickly with
/// `Cancelled` instead of dispatching work.
#[test]
fn cancelled_remote_run_reports_cancellation() {
    let spec = tiny_fig4();
    let executor = RemoteExecutor::new(vec![format!("http://{}", dead_addr())]);
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    cancel.cancel();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let err = run_distributed(&spec, &executor, 1, &ctx, &mut |_| {})
        .expect_err("cancelled run must fail");
    assert!(
        matches!(
            err,
            spnn_engine::exec::DistError::Exec(ExecError::Cancelled)
        ),
        "{err}"
    );
}

/// Graceful shutdown, library form: cancelling the server's token makes
/// `Server::run` stop accepting and return `Ok` after draining.
#[test]
fn server_run_returns_after_cancel() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let token = server.cancel_token();
    let handle = std::thread::spawn(move || server.run());
    // The server is live…
    std::net::TcpStream::connect(addr).expect("server accepts while running");
    // …until cancelled.
    token.cancel();
    let start = std::time::Instant::now();
    while !handle.is_finished() {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "run() must return promptly after cancel"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.join().expect("join").expect("clean shutdown");
}

// ---------------------------------------------------------------------------
// Fleets: mixed local+remote dispatch, capacity weights, chaos smoke
// ---------------------------------------------------------------------------

/// Tentpole acceptance (mixed dispatch): one `run_distributed` call
/// driving in-process peers *and* remote workers as peers in a single
/// plan produces a report byte-identical to the unsharded run.
#[test]
fn fleet_of_local_and_remote_peers_is_byte_identical() {
    let cache = TrainedCache::new("mixed");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let executor =
        RemoteExecutor::new(vec![format!("http://{}", cache.worker())]).with_local_peers(2);
    assert_eq!(executor.name(), "fleet");
    let report = distribute(&spec, &executor, 3, &cache.context());
    assert_same_bytes(&report, &reference, "fleet: 1 remote + 2 local");
}

/// Tentpole acceptance (weighted planning): arbitrary static capacity
/// skews — including a zero-weight peer that gets an empty slice — never
/// change a byte of the assembled report, only who computes what. The
/// zonal fig5 cannot be weighted without local peers (its queue length
/// is known only after mapping), so its skew falls back to the uniform
/// plan — with the same bytes.
#[test]
fn weighted_fleet_is_byte_identical_for_any_static_skew() {
    let cache = TrainedCache::new("weighted");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let (_, urls) = workers(&cache, 2);
    for weights in [vec![1, 1, 1], vec![7, 1, 2], vec![0, 3, 1]] {
        let executor = RemoteExecutor::new(urls.clone())
            .with_local_peers(1)
            .with_weights(WeightSource::Static(weights.clone()));
        let report = distribute(&spec, &executor, 3, &cache.context());
        assert_same_bytes(&report, &reference, &format!("fleet weights {weights:?}"));
    }
    let zonal = classifying(common::tiny_fig5());
    let reference = cache.reference(&zonal);
    let executor = RemoteExecutor::new(urls).with_weights(WeightSource::Static(vec![3, 1]));
    let report = distribute(&zonal, &executor, 2, &cache.context());
    assert_same_bytes(&report, &reference, "zonal remote weights [3, 1]");
}

/// `--weights-from healthz` probes each worker's core count and weights
/// the plan accordingly — still byte-identical, because weights only
/// move slice boundaries.
#[test]
fn healthz_weighted_fleet_is_byte_identical() {
    let cache = TrainedCache::new("healthz");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let (_, urls) = workers(&cache, 2);
    let executor = RemoteExecutor::new(urls).with_weights(WeightSource::Healthz);
    let report = distribute(&spec, &executor, 2, &cache.context());
    assert_same_bytes(&report, &reference, "fleet weighted from /healthz");
}

/// Chaos smoke ([`FaultWorker`] drop mode): a worker whose connections
/// are reset mid-dispatch is retried on a healthy peer; the failure is
/// invisible in the output.
#[test]
fn dropped_connections_are_retried_and_stay_byte_identical() {
    let cache = TrainedCache::new("drop");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let chaos = FaultWorker::start(cache.worker(), Fault::DropConnections(2));
    let workers = vec![chaos.url(), format!("http://{}", cache.worker())];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 2, &cache.context());
    assert_same_bytes(
        &report,
        &reference,
        "remote with connection-dropping worker",
    );
}

/// Chaos smoke ([`FaultWorker`] stall mode): a worker that wedges
/// mid-response and recovers delivers a late but intact partial — the
/// client has no idle timeout on /shard, so the bytes are unchanged.
#[test]
fn mid_response_stall_recovers_and_stays_byte_identical() {
    let cache = TrainedCache::new("stall");
    let spec = classifying(tiny_fig4());
    let reference = cache.reference(&spec);
    let chaos = FaultWorker::start(
        cache.worker(),
        Fault::MidStall {
            after: 100,
            stall: Duration::from_millis(800),
        },
    );
    let workers = vec![chaos.url(), format!("http://{}", cache.worker())];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 2, &cache.context());
    assert_same_bytes(&report, &reference, "remote with mid-response stall");
}
