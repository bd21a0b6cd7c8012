//! Executor-layer integration tests: the acceptance guarantee is that
//! `LocalExecutor`, `SpawnExecutor`, and `RemoteExecutor` all drive the
//! same `run_distributed` merge path and produce reports **byte-for-byte
//! identical** to the unsharded `spnn run` — including when a remote
//! worker is dead or fails mid-response and its shard is retried on
//! another worker — and that rows stream in strict prefix order while
//! shards complete out of order.

mod common;

use common::{dead_addr, flaky_addr, start_server, Fault, FaultWorker};
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

/// Runs `spec` through `executor` with a fresh context, asserting rows
/// stream in prefix order, and returns the merged report.
fn distribute(spec: &ScenarioSpec, executor: &dyn Executor, shards: usize) -> EngineReport {
    let config = EngineConfig {
        threads: Some(2),
        verbose: false,
        cache_dir: None,
        ..EngineConfig::default()
    };
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
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

fn assert_matches_unsharded(spec: &ScenarioSpec, report: &EngineReport, what: &str) {
    let unsharded = run_scenario(spec, &EngineConfig::default()).expect("unsharded run");
    assert_eq!(
        to_json(report),
        to_json(&unsharded),
        "{what}: JSON diverged"
    );
    assert_eq!(to_csv(report), to_csv(&unsharded), "{what}: CSV diverged");
}

/// Acceptance criterion: the in-process threaded executor is
/// byte-identical to the unsharded run for several shard counts.
#[test]
fn local_executor_is_byte_identical() {
    let spec = tiny_fig4();
    for shards in [1, 3, 5] {
        let report = distribute(&spec, &LocalExecutor, shards);
        assert_matches_unsharded(&spec, &report, &format!("local k={shards}"));
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
    assert!(
        points < 6,
        "the cancelled slice must stop between blocks, ran {points} of 6 points"
    );
}

/// Acceptance criterion: the child-process executor (the library home of
/// `spnn run --shards k --spawn`) is byte-identical to the unsharded run.
#[test]
fn spawn_executor_is_byte_identical() {
    let spec = tiny_fig4();
    let executor = SpawnExecutor {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_spnn")),
    };
    let report = distribute(&spec, &executor, 3);
    assert_matches_unsharded(&spec, &report, "spawn k=3");
}

/// Binds a worker service on an ephemeral port (in-memory cache) and
/// leaves it running for the rest of the test process.
fn start_worker() -> SocketAddr {
    start_server(2)
}

/// Acceptance criterion: a remote fan-out across healthy workers is
/// byte-identical to the unsharded run.
#[test]
fn remote_executor_is_byte_identical() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 3);
    assert_matches_unsharded(&spec, &report, "remote k=3");
}

/// Satellite acceptance: shards whose first worker is dead (connection
/// refused) or fails mid-response are retried on another worker, and the
/// merged report is still byte-identical — a failure is invisible in the
/// output.
#[test]
fn worker_failure_is_retried_on_another_worker() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", dead_addr()),
        format!("http://{}", flaky_addr()),
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 4);
    assert_matches_unsharded(&spec, &report, "remote with dead+flaky workers");
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
    let spec = tiny_fig4();
    let executor =
        RemoteExecutor::new(vec![format!("http://{}", start_worker())]).with_local_peers(2);
    assert_eq!(executor.name(), "fleet");
    let report = distribute(&spec, &executor, 3);
    assert_matches_unsharded(&spec, &report, "fleet: 1 remote + 2 local");
}

/// Tentpole acceptance (weighted planning): arbitrary static capacity
/// skews — including a zero-weight peer that gets an empty slice — never
/// change a byte of the assembled report, only who computes what.
#[test]
fn weighted_fleet_is_byte_identical_for_any_static_skew() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    for weights in [vec![1, 1, 1], vec![7, 1, 2], vec![0, 3, 1]] {
        let executor = RemoteExecutor::new(workers.clone())
            .with_local_peers(1)
            .with_weights(WeightSource::Static(weights.clone()));
        let report = distribute(&spec, &executor, 3);
        assert_matches_unsharded(&spec, &report, &format!("fleet weights {weights:?}"));
    }
}

/// `--weights-from healthz` probes each worker's core count and weights
/// the plan accordingly — still byte-identical, because weights only
/// move slice boundaries.
#[test]
fn healthz_weighted_fleet_is_byte_identical() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    let executor = RemoteExecutor::new(workers).with_weights(WeightSource::Healthz);
    let report = distribute(&spec, &executor, 2);
    assert_matches_unsharded(&spec, &report, "fleet weighted from /healthz");
}

/// Chaos smoke ([`FaultWorker`] drop mode): a worker whose connections
/// are reset mid-dispatch is retried on a healthy peer; the failure is
/// invisible in the output.
#[test]
fn dropped_connections_are_retried_and_stay_byte_identical() {
    let spec = tiny_fig4();
    let chaos = FaultWorker::start(start_worker(), Fault::DropConnections(2));
    let workers = vec![chaos.url(), format!("http://{}", start_worker())];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 2);
    assert_matches_unsharded(&spec, &report, "remote with connection-dropping worker");
}

/// Chaos smoke ([`FaultWorker`] stall mode): a worker that wedges
/// mid-response and recovers delivers a late but intact partial — the
/// client has no idle timeout on /shard, so the bytes are unchanged.
#[test]
fn mid_response_stall_recovers_and_stays_byte_identical() {
    let spec = tiny_fig4();
    let chaos = FaultWorker::start(
        start_worker(),
        Fault::MidStall {
            after: 100,
            stall: Duration::from_millis(800),
        },
    );
    let workers = vec![chaos.url(), format!("http://{}", start_worker())];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 2);
    assert_matches_unsharded(&spec, &report, "remote with mid-response stall");
}
