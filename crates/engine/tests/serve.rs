//! Scenario-service integration tests: the acceptance guarantee is that
//! a report assembled from `spnn serve`'s NDJSON stream is
//! **byte-for-byte identical** (CSV and JSON) to the batch `spnn run`
//! report for the same spec, that concurrent requests share one
//! trained-context cache (the second request trains zero times), that
//! malformed specs are rejected with `400` before any work starts — and
//! that `spnn run --shards k --spawn` output is `cmp`-identical to both
//! the unsharded run and a manual shard-and-merge (also enforced at
//! scale by the CI `serve` and `shard-merge` jobs).

mod common;

use common::{
    assert_same_bytes, classifying, http, open_stream_until, post_run, post_shard, scrape, spnn,
    start_server, start_server_cfg, start_server_raw, start_server_rowcached, start_server_with,
    tiny_fig4, tiny_fig5, Exposition, Sample, Scratch, TrainedCache,
};
use spnn_engine::prelude::*;
use spnn_engine::runner::StreamEvent;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;

/// The value of counter `name` in `registry` (0 when never registered).
fn counter_value(registry: &MetricsRegistry, name: &str) -> u64 {
    registry
        .snapshot()
        .into_iter()
        .filter(|series| series.name == name)
        .map(|series| match series.value {
            spnn_engine::metrics::Reading::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// The streaming driver must deliver exactly the rows of the report it
/// returns, in order, after a `Started` + per-topology preamble — and
/// `Started` must arrive before any block of the sweep has run.
#[test]
fn streaming_events_mirror_the_returned_report() {
    let trained = TrainedCache::new("streaming");
    let spec = classifying(tiny_fig4());
    let cache = trained.context();
    let registry = MetricsRegistry::new();
    let config = EngineConfig {
        metrics: registry.clone(),
        ..trained.engine()
    };
    let mut starts = 0usize;
    let mut topologies = 0usize;
    let mut rows: Vec<(usize, String, u64)> = Vec::new();
    let report = run_scenario_streaming_with(&spec, &config, &cache, &mut |event| match event {
        StreamEvent::Started {
            scenario,
            total_points,
        } => {
            assert_eq!(scenario, "fig4");
            assert_eq!(total_points, 3);
            assert_eq!(
                counter_value(&registry, "spnn_points_total"),
                0,
                "Started must precede every Monte-Carlo block"
            );
            starts += 1;
        }
        StreamEvent::Topology(t) => {
            assert_eq!(t.topology, "clements");
            topologies += 1;
        }
        StreamEvent::Row { index, row } => {
            rows.push((index, row.topology.clone(), row.mean.to_bits()));
        }
        _ => {}
    })
    .expect("streaming run");
    assert_eq!((starts, topologies), (1, 1));
    assert_eq!(counter_value(&registry, "spnn_points_total"), 3);
    assert_eq!(rows.len(), report.rows.len());
    for (i, (index, topology, mean_bits)) in rows.iter().enumerate() {
        assert_eq!(*index, i, "rows must stream in queue order");
        assert_eq!(*topology, report.rows[i].topology);
        assert_eq!(*mean_bits, report.rows[i].mean.to_bits());
    }

    // And the batch entry point is the streaming one with a no-op
    // observer — the same report, bit for bit.
    assert_eq!(to_json(&trained.reference(&spec)), to_json(&report));
}

/// Acceptance criterion: a report assembled from the service's NDJSON
/// stream is byte-identical (JSON and CSV) to the batch report.
#[test]
fn streamed_fig4_assembles_byte_identical_to_batch() {
    let trained = TrainedCache::new("streamed");
    let addr = trained.worker();
    for spec in [classifying(tiny_fig4()), classifying(tiny_fig5())] {
        let reference = trained.reference(&spec);
        let (status, stream) = post_run(addr, &spec.to_text());
        assert_eq!(status, 200, "stream: {stream}");
        let assembled = spnn_engine::assemble_report(&stream).expect("assemble");
        assert_same_bytes(&assembled, &reference, &spec.name);
    }
}

/// Two *concurrent* identical requests share the service's
/// process-lifetime cache: exactly one trains, the second request trains
/// zero times — and both streams carry identical rows.
#[test]
fn concurrent_requests_share_one_cache() {
    let addr = start_server(4);
    let text = tiny_fig4().to_text();
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| post_run(addr, &text));
        let tb = scope.spawn(|| post_run(addr, &text));
        (ta.join().expect("request a"), tb.join().expect("request b"))
    });
    assert_eq!(a.0, 200);
    assert_eq!(b.0, 200);
    assert_eq!(a.1, b.1, "identical requests must stream identical bytes");

    let (status, stats) = http(addr, "GET /cache/stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        stats.contains("\"trains\": 1"),
        "second request must train 0 times: {stats}"
    );

    let (status, health) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(health.contains("\"runs_completed\": 2"), "{health}");
}

/// Tentpole acceptance: N identical in-flight `/run` bodies produce one
/// execution and N byte-identical streams. With the row cache attached
/// the single-execution claim is race-proof: a request that misses the
/// in-flight dedup window replays its rows from the cache instead of
/// recomputing, so `spnn_points_total` stays at one sweep's worth no
/// matter how the requests interleave.
#[test]
fn identical_inflight_runs_share_one_execution() {
    const N: usize = 6;
    let addr = start_server_rowcached(8);
    let text = tiny_fig4().to_text();
    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| scope.spawn(|| post_run(addr, &text)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request"))
            .collect()
    });
    for (status, body) in &results {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(
            body, &results[0].1,
            "every subscriber must stream identical bytes"
        );
    }

    let exp = scrape(addr);
    assert_eq!(
        exp.total("spnn_points_total"),
        3.0,
        "N identical requests must compute exactly one sweep's worth of points"
    );
    assert_eq!(exp.total("spnn_runs_completed_total"), N as f64);
    assert_eq!(
        exp.total("spnn_rowcache_dedup_subscribers"),
        0.0,
        "the fan-out gauge must return to zero"
    );
    assert!(exp.total("spnn_rowcache_dedup_total") <= (N - 1) as f64);

    // A straggler arriving after everything finished replays entirely
    // from the row cache: same bytes, still zero new points.
    let (status, body) = post_run(addr, &text);
    assert_eq!(status, 200);
    assert_eq!(body, results[0].1);
    let exp = scrape(addr);
    assert_eq!(exp.total("spnn_points_total"), 3.0);
    assert!(
        exp.total("spnn_rowcache_hits_total") >= 3.0,
        "the replayed request must hit the row cache for every point"
    );
}

/// A client that disconnects mid-stream must not poison the shared
/// execution: the run completes server-side (subscribers may be fanned
/// off the same buffer) and an identical request still receives the
/// full stream, byte-identical to the batch report.
#[test]
fn mid_stream_disconnect_does_not_poison_other_requests() {
    let addr = start_server_rowcached(4);
    let spec = tiny_fig4();
    let text = spec.to_text();

    // Fire a request and slam the connection shut right after the
    // status line — mid-stream from the server's point of view.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!(
                    "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                    text.len(),
                    text
                )
                .as_bytes(),
            )
            .expect("send");
        let mut head = [0u8; 16];
        stream.read_exact(&mut head).expect("status line");
        assert!(head.starts_with(b"HTTP/1.1 200"));
    }

    // An identical request — racing the dying one, or replaying from the
    // row cache it warmed — still gets the complete report.
    let (status, body) = post_run(addr, &text);
    assert_eq!(status, 200);
    let reference = run_scenario(&spec, &EngineConfig::default()).expect("batch run");
    let assembled = spnn_engine::assemble_report(&body).expect("assemble");
    assert_eq!(to_json(&assembled), to_json(&reference));
    assert_eq!(to_csv(&assembled), to_csv(&reference));
}

/// Malformed specs are rejected with 400 and the parser's line-numbered
/// message, before any training or sweeping happens.
#[test]
fn malformed_spec_is_rejected_with_400() {
    let addr = start_server(1);

    // Unparseable: the line number points at the offending line.
    let (status, body) = post_run(addr, "name = x\nbogus_key = 1\n");
    assert_eq!(status, 400);
    assert!(body.contains("\"line\": 2"), "{body}");
    assert!(body.contains("bogus_key"), "{body}");

    // Line-by-line parseable but inconsistent as a whole: the parser's
    // end-of-input validation reports it as line 0.
    let mut invalid = tiny_fig4();
    invalid.iterations = 0;
    let (status, body) = post_run(addr, &invalid.to_text());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("iterations must be positive"), "{body}");
    assert!(body.contains("\"line\": 0"), "{body}");

    // Non-UTF-8 bodies are rejected too.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe")
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    // An oversized spec body gets the 413 JSON, not a connection reset:
    // the server drains what the client is still sending before closing.
    let huge = "x".repeat(spnn_engine::http::MAX_BODY_BYTES + 1);
    let (status, body) = post_run(addr, &huge);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("exceeds"), "{body}");

    // Nothing ran: no training happened for any rejected request.
    let (_, stats) = http(addr, "GET /cache/stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(stats.contains("\"trains\": 0"), "{stats}");
}

/// The worker endpoint: `POST /shard?shards=K&index=I` returns exactly
/// the partial report `spnn run --shards K --shard-index I` computes —
/// the three shards merge into a report byte-identical to the batch run.
#[test]
fn shard_endpoint_partials_merge_byte_identical() {
    let trained = TrainedCache::new("shard-endpoint");
    let spec = classifying(tiny_fig4());
    let reference = trained.reference(&spec);
    let addr = trained.worker();
    let text = spec.to_text();
    let mut partials = Vec::new();
    for i in 0..3 {
        let (status, body) = http(
            addr,
            &format!(
                "POST /shard?shards=3&index={i} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                text.len(),
                text
            ),
        );
        assert_eq!(status, 200, "{body}");
        partials.push(spnn_engine::PartialReport::parse(&body).expect("parse partial"));
    }
    let merged = merge_partials(&partials).expect("merge worker partials");
    assert_same_bytes(&merged, &reference, "/shard partials");

    let (status, health) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(health.contains("\"shards_completed\": 3"), "{health}");
}

/// The weighted/stealing wire form: `POST /shard?span=LO-HI` names an
/// explicit round-space range. Unevenly sized spans merge byte-identical
/// to the batch run, exactly like the equal 1-of-K form.
#[test]
fn shard_endpoint_span_partials_merge_byte_identical() {
    let trained = TrainedCache::new("span-endpoint");
    let spec = classifying(tiny_fig4());
    let reference = trained.reference(&spec);
    let addr = trained.worker();
    let text = spec.to_text();
    // tiny_fig4 compiles to 3 points x 2 rounds = 6 round-space units;
    // slice them unevenly, the way a weighted plan would.
    let mut partials = Vec::new();
    for span in ["span=0-1", "span=1-4", "span=4-6"] {
        let (status, body) = post_shard(addr, span, &text);
        assert_eq!(status, 200, "{span}: {body}");
        partials.push(spnn_engine::PartialReport::parse(&body).expect("parse span partial"));
    }
    let merged = merge_partials(&partials).expect("merge span partials");
    assert_same_bytes(&merged, &reference, "/shard span partials");
}

/// Bad shard coordinates are rejected with 400 before any work.
#[test]
fn shard_endpoint_validates_its_query() {
    let addr = start_server(1);
    let text = tiny_fig4().to_text();
    for query in [
        "",                  // missing both
        "?shards=3",         // missing index
        "?shards=3&index=3", // out of range
        "?shards=0&index=0", // zero shards
        "?shards=x&index=0", // not an integer
        "?span=3-3",         // empty span
        "?span=4-2",         // reversed span
        "?span=0",           // no '-'
        "?span=a-b",         // not integers
        "?span=0-999",       // out of range for the queue
    ] {
        let (status, body) = http(
            addr,
            &format!(
                "POST /shard{query} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                text.len(),
                text
            ),
        );
        assert_eq!(status, 400, "query {query:?}: {body}");
    }
}

/// Satellite acceptance: `POST /run?format=csv` streams bytes identical
/// to `spnn run --format csv` (the writers are shared), and unknown
/// formats are rejected.
#[test]
fn run_format_csv_streams_the_exact_csv() {
    let trained = TrainedCache::new("csv-stream");
    let spec = classifying(tiny_fig4());
    let reference = trained.reference(&spec);
    let addr = trained.worker();
    let text = spec.to_text();
    let (status, stream) = http(
        addr,
        &format!(
            "POST /run?format=csv HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        ),
    );
    assert_eq!(status, 200, "{stream}");
    assert_eq!(stream, to_csv(&reference), "streamed CSV must equal to_csv");

    let (status, body) = http(
        addr,
        &format!(
            "POST /run?format=yaml HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        ),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown format"), "{body}");
}

/// Acceptance criterion: a coordinator service dispatching across
/// remote workers streams NDJSON that assembles byte-identical to the
/// batch report — including when one configured worker is dead and its
/// shard is retried on a live one.
#[test]
fn coordinator_streams_byte_identical_reports_despite_a_dead_worker() {
    let trained = TrainedCache::new("coordinator");
    let specs = [classifying(tiny_fig4()), classifying(tiny_fig5())];
    let references: Vec<EngineReport> = specs.iter().map(|s| trained.reference(s)).collect();
    let (worker_a, worker_b) = (trained.worker(), trained.worker());
    // A dead URL: bind an ephemeral port, then free it again.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let coordinator = start_server_raw(ServeConfig {
        workers: 2,
        remote_workers: vec![
            format!("http://{dead}"),
            format!("http://{worker_a}"),
            format!("http://{worker_b}"),
        ],
        engine: trained.engine(),
        ..ServeConfig::default()
    });
    for (spec, reference) in specs.iter().zip(&references) {
        let (status, stream) = post_run(coordinator, &spec.to_text());
        assert_eq!(status, 200, "{stream}");
        let assembled = spnn_engine::assemble_report(&stream).expect("assemble");
        let what = format!("{}: coordinator stream", spec.name);
        assert_same_bytes(&assembled, reference, &what);
    }
    // CSV works through the coordinator too — same writers, same bytes.
    let (spec, reference) = (&specs[0], &references[0]);
    let text = spec.to_text();
    let (status, stream) = http(
        coordinator,
        &format!(
            "POST /run?format=csv HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(stream, to_csv(reference));
}

// ---------------------------------------------------------------------------
// GET /metrics: Prometheus text exposition
// ---------------------------------------------------------------------------

/// Satellite acceptance: after one `/run`, the worker's `/metrics` body
/// is grammatically valid exposition text, the request/cache/engine
/// counters are non-zero, and every histogram is internally consistent
/// (cumulative buckets are monotone and the `+Inf` bucket equals
/// `_count`).
#[test]
fn metrics_exposition_is_well_formed_after_a_run() {
    let addr = start_server(2);
    let (status, _) = post_run(addr, &tiny_fig4().to_text());
    assert_eq!(status, 200);
    let exp = scrape(addr);

    for name in [
        "spnn_requests_total",
        "spnn_runs_completed_total",
        "spnn_cache_trains_total",
        "spnn_points_total",
        "spnn_mc_iterations_total",
    ] {
        assert!(
            exp.total(name) > 0.0,
            "{name} must be non-zero after one /run"
        );
        assert_eq!(
            exp.types.get(name).map(String::as_str),
            Some("counter"),
            "{name} must be declared a counter"
        );
    }

    // Histogram invariants, for every histogram family present.
    let mut histograms = 0usize;
    for s in &exp.samples {
        let Some(base) = s.name.strip_suffix("_count") else {
            continue;
        };
        if exp.types.get(base).map(String::as_str) != Some("histogram") {
            continue;
        }
        histograms += 1;
        let buckets: Vec<&Sample> = exp
            .samples
            .iter()
            .filter(|b| {
                b.name == format!("{base}_bucket")
                    && b.labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .eq(s.labels.iter())
            })
            .collect();
        assert!(!buckets.is_empty(), "{base}: histogram without buckets");
        // Buckets render in ascending `le` order; counts are cumulative.
        let mut prev = 0.0f64;
        for b in &buckets {
            assert!(
                b.value >= prev,
                "{base}: cumulative bucket counts must be monotone"
            );
            prev = b.value;
        }
        let inf = buckets.last().expect("at least the +Inf bucket");
        assert_eq!(
            inf.labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str()),
            Some("+Inf"),
            "{base}: last bucket must be +Inf"
        );
        assert_eq!(inf.value, s.value, "{base}: +Inf bucket must equal _count");
        let sum = exp
            .samples
            .iter()
            .find(|b| b.name == format!("{base}_sum") && b.labels == s.labels)
            .unwrap_or_else(|| panic!("{base}: missing _sum"));
        assert!(
            sum.value >= 0.0 && sum.value.is_finite(),
            "{base}: _sum must be a finite non-negative duration"
        );
    }
    assert!(
        histograms >= 2,
        "expected request and phase histograms, saw {histograms}"
    );
}

/// Satellite acceptance: counters only move up — a second `/run` bumps
/// the run counter from 1 to 2 and leaves every counter sample at or
/// above its previous reading.
#[test]
fn metrics_counters_are_monotonic_across_runs() {
    let addr = start_server(2);
    let text = tiny_fig4().to_text();
    let before = scrape(addr);
    assert_eq!(before.total("spnn_runs_completed_total"), 0.0);

    let (status, _) = post_run(addr, &text);
    assert_eq!(status, 200);
    let mid = scrape(addr);
    assert_eq!(mid.total("spnn_runs_completed_total"), 1.0);

    let (status, _) = post_run(addr, &text);
    assert_eq!(status, 200);
    let after = scrape(addr);
    assert_eq!(after.total("spnn_runs_completed_total"), 2.0);

    // The warm second run hits the cache instead of training again.
    assert_eq!(after.total("spnn_cache_trains_total"), 1.0);
    assert!(after.total("spnn_cache_hits_total") >= 1.0);

    for s in &mid.samples {
        if mid.types.get(&s.name).map(String::as_str) != Some("counter") {
            continue;
        }
        let later = after
            .samples
            .iter()
            .find(|a| a.name == s.name && a.labels == s.labels)
            .unwrap_or_else(|| panic!("{}: counter series vanished", s.name));
        assert!(
            later.value >= s.value,
            "{}: counter went backwards ({} -> {})",
            s.name,
            s.value,
            later.value
        );
    }
}

/// Unknown routes 404, wrong methods 405, and the health endpoint stays
/// truthful about failures.
#[test]
fn routing_and_error_statuses() {
    let addr = start_server(1);
    let (status, _) = http(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET /run HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "GET /shard HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "gibberish\r\n\r\n");
    assert_eq!(status, 400);
}

// ---------------------------------------------------------------------------
// The `--spawn` local shard launcher (process-level, via the built binary)
// ---------------------------------------------------------------------------

use common::assert_ok;

/// `/healthz` self-identifies: role, crate version, and an uptime the
/// scraper can alert on.
#[test]
fn healthz_reports_role_version_and_uptime() {
    let worker = start_server(1);
    let (status, health) = http(worker, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(health.contains("\"role\": \"worker\""), "{health}");
    assert!(health.contains("\"cores\": "), "{health}");
    assert!(health.contains("\"uptime_seconds\": "), "{health}");
    assert!(
        health.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))),
        "{health}"
    );

    let coordinator = start_server_with(1, vec![format!("http://{worker}")]);
    let (_, health) = http(coordinator, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.contains("\"role\": \"coordinator\""), "{health}");
}

/// Tentpole acceptance: instrumentation reads clocks but never feeds the
/// computation — the report bytes are identical with the structured log
/// cranked to `trace` (and `--stats` on) versus fully quiet, across a
/// cold and a warm cache.
#[test]
fn trace_logging_never_changes_report_bytes() {
    let scratch = Scratch::new("trace-determinism");
    let spec_path = scratch.path("tiny.scn");
    std::fs::write(&spec_path, tiny_fig4().to_text()).expect("write spec");
    let cache = scratch.path("cache");

    let run = |env: &[(&str, &str)], extra_args: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_spnn"));
        // --no-row-cache keeps this about the trained-context cache: a
        // row replay on the warm run would bypass the traced code paths.
        cmd.args([
            "run",
            spec_path.to_str().unwrap(),
            "--quiet",
            "--no-row-cache",
            "--format",
            "json",
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .args(extra_args)
        .env_remove("SPNN_THREADS")
        .env_remove("SPNN_LOG")
        .env_remove("SPNN_LOG_FORMAT");
        for (k, v) in env {
            cmd.env(k, v);
        }
        let out = cmd.output().expect("run spnn");
        assert!(
            out.status.success(),
            "spnn run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };

    let baseline = run(&[], &[]);
    let traced = run(&[("SPNN_LOG", "trace")], &["--stats"]);
    assert_eq!(
        baseline.stdout, traced.stdout,
        "SPNN_LOG=trace must not change report bytes"
    );
    let stderr = String::from_utf8_lossy(&traced.stderr);
    assert!(
        stderr.contains("phase breakdown (--stats):"),
        "--stats must print the phase table: {stderr}"
    );
    assert!(
        stderr.contains("spnn_cache_hits_total"),
        "--stats must list the cache counters: {stderr}"
    );
}

/// Acceptance criterion: `spnn run --shards 3 --spawn` output is
/// `cmp`-identical to the unsharded run *and* to `spnn merge` over
/// manually-launched shards.
#[test]
fn spawn_matches_unsharded_and_manual_merge() {
    let scratch = Scratch::new("spawn");
    let trained = TrainedCache::new("spawn-cli");
    let spec = classifying(tiny_fig4());
    let reference = trained.reference(&spec);
    let spec_path = scratch.path("tiny-fig4.scn");
    std::fs::write(&spec_path, spec.to_text()).expect("write spec");
    let cache = trained.engine().cache_dir.expect("on-disk cache");
    let spec = spec_path.to_str().unwrap();
    let cache_dir = cache.to_str().unwrap();

    // --no-row-cache throughout: this test gates the shard machinery,
    // which a warm row cache would legitimately replay around.
    let full = scratch.path("full.json");
    let out = spnn(&[
        "run",
        spec,
        "--quiet",
        "--no-row-cache",
        "--format",
        "json",
        "--cache-dir",
        cache_dir,
        "--out",
        full.to_str().unwrap(),
    ]);
    assert_ok(&out, "unsharded run");

    let spawned = scratch.path("spawned.json");
    let out = spnn(&[
        "run",
        spec,
        "--quiet",
        "--no-row-cache",
        "--format",
        "json",
        "--shards",
        "3",
        "--spawn",
        "--cache-dir",
        cache_dir,
        "--out",
        spawned.to_str().unwrap(),
    ]);
    assert_ok(&out, "--spawn run");

    let mut parts = Vec::new();
    for i in 0..3 {
        let part = scratch.path(&format!("part-{i}.json"));
        let out = spnn(&[
            "run",
            spec,
            "--quiet",
            "--no-row-cache",
            "--shards",
            "3",
            "--shard-index",
            &i.to_string(),
            "--cache-dir",
            cache_dir,
            "--out",
            part.to_str().unwrap(),
        ]);
        assert_ok(&out, "manual shard");
        parts.push(part);
    }
    let merged = scratch.path("merged.json");
    let mut merge_args = vec!["merge"];
    let part_strs: Vec<&str> = parts.iter().map(|p| p.to_str().unwrap()).collect();
    merge_args.extend(part_strs);
    merge_args.extend(["--format", "json", "--out", merged.to_str().unwrap()]);
    let out = spnn(&merge_args);
    assert_ok(&out, "manual merge");

    let full_bytes = std::fs::read(&full).expect("full report");
    assert_eq!(
        full_bytes,
        to_json(&reference).as_bytes(),
        "the CLI's unsharded run must print the library's report"
    );
    assert_eq!(
        full_bytes,
        std::fs::read(&spawned).expect("spawned report"),
        "--spawn output must be cmp-identical to the unsharded run"
    );
    assert_eq!(
        full_bytes,
        std::fs::read(&merged).expect("merged report"),
        "--spawn output must equal a manual shard-and-merge"
    );
}

/// `--spawn` flag validation: the launcher owns shard indices.
#[test]
fn spawn_flag_validation() {
    let scratch = Scratch::new("spawn-flags");
    let spec_path = scratch.path("tiny.scn");
    std::fs::write(&spec_path, tiny_fig4().to_text()).expect("write spec");
    let spec = spec_path.to_str().unwrap();

    let out = spnn(&["run", spec, "--spawn"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spawn requires --shards"));

    let out = spnn(&[
        "run",
        spec,
        "--shards",
        "2",
        "--spawn",
        "--shard-index",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("drop --shard-index"));

    let out = spnn(&["run", spec, "--shards", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shard-index (or --spawn)"));
}

/// A misspelled option fails the command instead of being taken for a
/// flag and silently running with the default.
#[test]
fn unknown_options_are_rejected() {
    let scratch = Scratch::new("unknown-option");
    let spec_path = scratch.path("tiny.scn");
    std::fs::write(&spec_path, tiny_fig4().to_text()).expect("write spec");
    let spec = spec_path.to_str().unwrap();

    for args in [
        &["validate", spec, "--kernal", "fma"][..],
        &["run", "--preset", "fig4", "--kernal", "fma"],
        &["cache", "rm", "--al"],
    ] {
        let out = spnn(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option --"), "{args:?}: {stderr}");
    }

    let out = spnn(&["validate", spec, "--kernel", "fma", "--quiet"]);
    assert_ok(&out, "validate with known options");
    assert!(String::from_utf8_lossy(&out.stdout).contains("kernel:      fma"));
}

/// `--help` / `-h` after any command prints the usage and succeeds
/// instead of failing as an unknown option.
#[test]
fn command_help_prints_usage() {
    for args in [
        &["run", "--help"][..],
        &["serve", "-h"],
        &["cache", "ls", "--help"],
        &["validate", "--kernel", "fma", "--help"],
        &["--help"],
        &["help"],
    ] {
        let out = spnn(args);
        assert_ok(&out, &format!("{args:?}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("spnn "), "{args:?}: {stdout}");
        assert!(stdout.contains("spnn run"), "{args:?}: {stdout}");
    }
}

/// Runs `spnn` at a small scale with throwaway caches, killing it if it
/// is still running after 60 s (a command line that should be rejected
/// may instead start a run, or a server that never exits).
fn spnn_bounded(scratch: &Scratch, args: &[&str]) -> std::process::Output {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_spnn"))
        .args(args)
        .env_remove("SPNN_THREADS")
        .env("SPNN_CACHE_DIR", scratch.path("cache"))
        .env("SPNN_ROW_CACHE_DIR", scratch.path("rows"))
        .envs([
            ("SPNN_MC", "2"),
            ("SPNN_NTRAIN", "60"),
            ("SPNN_NTEST", "20"),
            ("SPNN_EPOCHS", "1"),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn spnn");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().expect("poll spnn").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("{args:?} still running after 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect spnn output")
}

/// Each command parses against its own flag table: an option with no
/// value, a repeated option, a spec file next to `--preset`, and an
/// option that belongs to another command all fail, naming the option,
/// before any work starts.
#[test]
fn malformed_command_lines_are_rejected_by_name() {
    let scratch = Scratch::new("malformed-cli");
    for (args, named) in [
        (&["run", "--preset", "fig4", "--out"][..], "--out"),
        (
            &[
                "run", "--preset", "fig4", "--format", "json", "--format", "csv",
            ],
            "--format",
        ),
        (&["run", "x.scn", "--preset", "fig4"], "--preset"),
        (
            &[
                "run",
                "--preset",
                "fig4",
                "--addr",
                "H:P",
                "--queue-depth",
                "9",
            ],
            "--addr",
        ),
        (
            &["run", "--preset", "fig4", "--addr", "127.0.0.1:1"],
            "--addr",
        ),
        (&["serve", "--spawn", "--shards", "3", "--stats"], "--spawn"),
        (&["cache", "path", "--threads", "3"], "--threads"),
        (&["cache", "ls", "--row-cache-dir", "D"], "--row-cache-dir"),
    ] {
        let out = spnn_bounded(&scratch, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            stderr.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
    }
}

/// `spnn cache` and `spnn rowcache` give each verb its own options: an
/// option of another verb fails, naming the option and the verb it
/// belongs to, while each verb's own options still run.
#[test]
fn store_verbs_reject_another_verbs_options() {
    let scratch = Scratch::new("store-verbs");
    for (args, named) in [
        (&["cache", "ls", "--all"][..], "--all"),
        (&["cache", "path", "--max-entries", "3"], "--max-entries"),
        (&["cache", "gc", "--all"], "--all"),
        (
            &["cache", "rm", "--all", "--max-bytes", "1M"],
            "--max-bytes",
        ),
        (&["rowcache", "ls", "--max-bytes", "1M"], "--max-bytes"),
        (&["rowcache", "path", "--all"], "--all"),
    ] {
        let out = spnn_bounded(&scratch, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            stderr.contains(&format!("option {named} is for `spnn {} ", args[0])),
            "{args:?} must name {named} and its verb: {stderr}"
        );
    }
    let dir = scratch.path("cache");
    let dir = dir.to_str().unwrap();
    for args in [
        &["cache", "path", "--cache-dir", dir, "--quiet"][..],
        &["cache", "ls", "--quiet"],
        &["cache", "rm", "--all"],
        &["cache", "gc", "--max-entries", "3", "--max-bytes", "1M"],
        &["rowcache", "gc", "--max-entries", "3"],
    ] {
        assert_ok(&spnn_bounded(&scratch, args), &format!("{args:?}"));
    }
}

/// A fleet run (`--workers` with `--local-peers`, `--weights-from` or
/// `--steal`) plans one slice per peer, so a `--shards` count is a usage
/// error before any dispatch instead of being ignored.
#[test]
fn shards_with_fleet_flags_is_a_usage_error() {
    let scratch = Scratch::new("fleet-shards");
    for fleet in [
        &["--local-peers", "1"][..],
        &["--weights-from", "1,2"],
        &["--steal"],
    ] {
        let mut args = vec![
            "run",
            "--preset",
            "fig4",
            "--workers",
            "http://127.0.0.1:1,http://127.0.0.1:2",
            "--shards",
            "4",
        ];
        args.extend_from_slice(fleet);
        let out = spnn_bounded(&scratch, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            stderr.contains(&format!("--shards conflicts with {}", fleet[0])),
            "{args:?}: {stderr}"
        );
    }
}

/// Commands read their positionals after the options are parsed:
/// `validate` takes exactly one, `example` at most one and `cache ls`
/// none, and every option is checked before anything is printed.
#[test]
fn positionals_are_read_after_the_options() {
    let scratch = Scratch::new("positionals");
    let spec_path = scratch.path("tiny.scn");
    std::fs::write(&spec_path, tiny_fig4().to_text()).expect("write spec");
    let spec = spec_path.to_str().unwrap();

    let out = spnn_bounded(&scratch, &["validate", "--kernel", "fma", spec]);
    assert_ok(&out, "validate with the option first");
    assert!(String::from_utf8_lossy(&out.stdout).contains("kernel:      fma"));
    let out = spnn_bounded(&scratch, &["example", "--quiet"]);
    assert_ok(&out, "example --quiet");
    assert!(String::from_utf8_lossy(&out.stdout).contains("name = fig4"));

    for args in [
        &["validate", spec, spec][..],
        &["validate"],
        &["example", "fig5", "junk"],
        &["validate", spec, "--kernel", "bogus"],
        &["cache", "ls", "junk"],
    ] {
        let out = spnn_bounded(&scratch, args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

/// The flag table in `docs/serving.md` lists exactly the options of the
/// `serve` section of `spnn help`, which renders the command's table.
#[test]
fn serving_doc_lists_exactly_the_serve_flags() {
    let out = spnn(&["help"]);
    assert_ok(&out, "spnn help");
    let usage = String::from_utf8_lossy(&out.stdout);
    let mut from_usage: Vec<&str> = usage
        .lines()
        .skip_while(|l| *l != "OPTIONS (serve):")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.strip_prefix("    --"))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/serving.md"
    ))
    .expect("read docs/serving.md");
    let mut from_doc: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("| `--"))
        .map(|l| l.split('`').next().unwrap())
        .collect();
    from_usage.sort_unstable();
    from_doc.sort_unstable();
    assert!(from_usage.len() > 20, "serve section not found: {usage}");
    assert_eq!(
        from_doc, from_usage,
        "docs/serving.md flag table vs `spnn help`"
    );
}

// ---------------------------------------------------------------------------
// Traffic hardening: admission control, quotas, budgets, circuit breakers
// ---------------------------------------------------------------------------

use common::http_raw;

/// Tentpole acceptance (quotas): with a per-client concurrency cap of 1,
/// a client's second concurrent request is shed with `429` and a
/// `Retry-After` header while a different client's stream is untouched —
/// and the limited client's first stream still assembles byte-identical
/// to the batch report.
#[test]
fn quota_sheds_second_concurrent_request_of_one_client_only() {
    let mut spec = tiny_fig4();
    // Enough fixed work per point that the first stream is still running
    // while the second request arrives.
    spec.iterations = 64;
    spec.min_iterations = 64;
    let addr = start_server_cfg(ServeConfig {
        workers: 3,
        quota: spnn_engine::QuotaConfig {
            max_concurrent: 1,
            ..Default::default()
        },
        ..ServeConfig::default()
    });
    let text = spec.to_text();

    let (mut first, mut seen) = open_stream_until(
        addr,
        "X-Client-Id: alice\r\n",
        &text,
        "\"event\": \"started\"",
    );

    // Same client, second concurrent request: shed with 429 + Retry-After.
    let shed = http_raw(
        addr,
        &format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nX-Client-Id: alice\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        ),
    );
    assert!(
        shed.starts_with("HTTP/1.1 429 "),
        "expected 429 for the quota-limited client: {shed}"
    );
    assert!(shed.contains("\r\nRetry-After: "), "{shed}");
    assert!(shed.contains("client quota exceeded"), "{shed}");

    // A different client is untouched: its stream completes normally.
    let (status, stream) = http(
        addr,
        &format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nX-Client-Id: bob\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        ),
    );
    assert_eq!(status, 200, "{stream}");
    let reference = run_scenario(&spec, &EngineConfig::default()).expect("batch run");
    let assembled = spnn_engine::assemble_report(&stream).expect("assemble bob");
    assert_eq!(to_json(&assembled), to_json(&reference));

    // The shed did not corrupt alice's in-flight stream.
    first.read_to_string(&mut seen).expect("drain alice");
    let body = seen.split_once("\r\n\r\n").expect("head").1;
    let assembled = spnn_engine::assemble_report(body).expect("assemble alice");
    assert_eq!(to_json(&assembled), to_json(&reference));

    // With alice's run finished, her next request is admitted again.
    let (status, stream) = http(
        addr,
        &format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nX-Client-Id: alice\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        ),
    );
    assert_eq!(status, 200, "{stream}");

    let exp = scrape(addr);
    assert!(
        exp.total("spnn_quota_shed_total") >= 1.0,
        "quota sheds must be counted"
    );
}

/// Budgets that are statically derivable from the compiled queue reject
/// the request up front with a plain 400 — no stream head, no work.
#[test]
fn budget_static_violation_is_rejected_before_any_work() {
    let addr = start_server_cfg(ServeConfig {
        workers: 1,
        budget: spnn_engine::RequestBudget {
            // tiny_fig4 compiles to 3 points at >= 2 iterations each:
            // a floor of 6, over this ceiling before anything runs.
            max_iterations: 4,
            ..Default::default()
        },
        ..ServeConfig::default()
    });
    let (status, body) = post_run(addr, &tiny_fig4().to_text());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("budget exceeded"), "{body}");

    // Nothing ran: the rejection happened before training.
    let (_, stats) = http(addr, "GET /cache/stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(stats.contains("\"trains\": 0"), "{stats}");
}

/// A budget the compiled queue cannot predict (zonal plans size their
/// grids off the mapped mesh) is enforced mid-run: the stream starts,
/// then ends with a structured `error` event naming the budget.
#[test]
fn budget_midrun_violation_ends_the_stream_with_an_error_event() {
    let addr = start_server_cfg(ServeConfig {
        workers: 1,
        budget: spnn_engine::RequestBudget {
            max_points: 1,
            ..Default::default()
        },
        ..ServeConfig::default()
    });
    // Zonal: static_queue_len is None, so admission cannot pre-reject.
    let (status, stream) = post_run(addr, &tiny_fig5().to_text());
    assert_eq!(status, 200, "{stream}");
    assert!(stream.contains("\"event\": \"started\""), "{stream}");
    assert!(stream.contains("\"event\": \"error\""), "{stream}");
    assert!(stream.contains("budget exceeded"), "{stream}");
    assert!(!stream.contains("\"event\": \"done\""), "{stream}");

    // An adaptive stop rule makes the iteration spend a runtime fact: the
    // static floor (points × min_iterations = 8) fits a ceiling of 10,
    // but the σ = 0 point stops at 4 and the next runs to the cap of 8.
    let addr = start_server_cfg(ServeConfig {
        workers: 1,
        budget: spnn_engine::RequestBudget {
            max_iterations: 10,
            ..Default::default()
        },
        ..ServeConfig::default()
    });
    let mut spec = tiny_fig4();
    spec.sweep.sigmas = vec![0.0, 0.05, 0.1, 0.15];
    spec.target_moe = 0.001;
    let (status, stream) = post_run(addr, &spec.to_text());
    assert_eq!(status, 200, "{stream}");
    let lines: Vec<&str> = stream.lines().filter(|l| l.starts_with('{')).collect();
    let rows: Vec<usize> = lines
        .iter()
        .filter(|l| l.contains("\"event\": \"row\""))
        .map(|l| {
            let tail = l.split("\"iterations\": ").nth(1).expect("row iterations");
            tail[..tail.find(',').expect("field end")]
                .parse()
                .expect("integer iterations")
        })
        .collect();
    let spent: usize = rows.iter().sum();
    let before_last: usize = rows[..rows.len() - 1].iter().sum();
    assert!(
        spent > 10 && before_last <= 10,
        "the last streamed row must be the one that crossed the budget: {stream}"
    );
    assert!(rows.len() < spec.sweep.sigmas.len(), "{stream}");
    let last = lines.last().expect("stream has events");
    assert!(
        last.contains("\"event\": \"error\"") && last.contains("max_iterations"),
        "no row may follow the row that trips the budget: {stream}"
    );
}

/// `Started` reaches the budget meter before any slice computes: a zonal
/// run whose point count trips `max_points` at `Started` spends no
/// Monte-Carlo iteration.
#[test]
fn budget_tripped_at_started_spends_no_iterations() {
    let addr = start_server_cfg(ServeConfig {
        workers: 1,
        budget: spnn_engine::RequestBudget {
            max_points: 1,
            ..Default::default()
        },
        ..ServeConfig::default()
    });
    let (status, stream) = post_run(addr, &tiny_fig5().to_text());
    assert_eq!(status, 200, "{stream}");
    assert!(stream.contains("max_points"), "{stream}");
    let exp = scrape(addr);
    assert_eq!(
        exp.total("spnn_mc_iterations_total"),
        0.0,
        "a slice computed"
    );
}

/// A stalled client (request head never finishes) is answered with `408`
/// once the configured read timeout elapses, instead of pinning a worker.
#[test]
fn stalled_request_head_gets_408_after_the_read_timeout() {
    let addr = start_server_cfg(ServeConfig {
        workers: 1,
        read_timeout: std::time::Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /run HTTP/1.1\r\nHost: t\r\nX-Stall:")
        .expect("send partial head");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(
        raw.starts_with("HTTP/1.1 408 "),
        "expected 408 for a stalled head: {raw}"
    );
}

/// A client that trickles bytes into a shed connection cannot stall the
/// accept loop. With the one worker pinned and the one queue slot taken,
/// the trickler is shed; the shed's drain stops at its wall-clock
/// deadline, so a fresh `/healthz` connection still gets its own `429`
/// within 2 s.
#[test]
fn trickling_shed_client_cannot_stall_accepting() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            engine: common::test_engine(),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let metrics = server.metrics().clone();
    std::thread::spawn(move || server.run());

    // The worker: a stalled request head pins it for the read timeout.
    let mut busy = TcpStream::connect(addr).expect("connect busy");
    busy.write_all(b"POST /run HTTP/1.1\r\n")
        .expect("send head");
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter_value(&metrics, "spnn_admission_accepted_total") < 1 {
        assert!(Instant::now() < deadline, "the worker never took the stall");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The queue slot: accepted in backlog order, before the trickler.
    let _queued = TcpStream::connect(addr).expect("connect queued");

    // The trickler is shed on arrival, then sends one byte every 200 ms,
    // each inside the shed's per-read timeout.
    let mut trickler = TcpStream::connect(addr).expect("connect trickler");
    let mut reply = trickler.try_clone().expect("clone trickler");
    let stop = Arc::new(AtomicBool::new(false));
    let trickling = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) && trickler.write_all(b"x").is_ok() {
                std::thread::sleep(Duration::from_millis(200));
            }
        })
    };
    // The server half-closes after its 429, so EOF means the drain began.
    let mut shed = String::new();
    reply
        .set_read_timeout(Some(common::IO_TIMEOUT))
        .expect("read timeout");
    reply.read_to_string(&mut shed).expect("read shed reply");
    assert!(
        shed.starts_with("HTTP/1.1 429 "),
        "trickler not shed: {shed}"
    );

    let started = Instant::now();
    let mut health = TcpStream::connect(addr).expect("connect healthz");
    health
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    health
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send healthz");
    let mut raw = String::new();
    let read = health.read_to_string(&mut raw);
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    trickling.join().expect("join trickler");
    read.unwrap_or_else(|e| panic!("no reply after {elapsed:?}, accept loop stalled: {e}"));
    assert!(raw.starts_with("HTTP/1.1 429 "), "expected a shed: {raw}");
    assert!(
        elapsed < Duration::from_secs(2),
        "a trickling shed held the accept loop for {elapsed:?}"
    );
}

/// Accepting has no latency floor: 40 sequential `/healthz` exchanges
/// against an idle server finish in well under 0.5 s, where a 25 ms
/// accept sleep alone would cost a second. Best of three, so a loaded
/// test box cannot fail it by scheduling noise.
#[test]
fn sequential_healthz_pays_no_accept_floor() {
    use std::time::{Duration, Instant};

    let addr = start_server(1);
    let healthz = || http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(healthz().0, 200, "warm-up");
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        for _ in 0..40 {
            assert_eq!(healthz().0, 200);
        }
        best = best.min(started.elapsed());
        if best < Duration::from_millis(500) {
            return;
        }
    }
    panic!("40 sequential /healthz took at best {best:?}; accept has a latency floor");
}

/// Cancelling an idle server's token makes `run` return within one
/// shutdown-check interval, though no connection ever wakes the
/// readiness wait.
#[test]
fn cancel_stops_an_idle_server_promptly() {
    use std::time::{Duration, Instant};

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            engine: common::test_engine(),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let token = server.cancel_token();
    let handle = std::thread::spawn(move || server.run());
    // Let the accept loop park in its readiness wait.
    std::thread::sleep(Duration::from_millis(200));
    let cancelled = Instant::now();
    token.cancel();
    while !handle.is_finished() {
        assert!(
            cancelled.elapsed() < Duration::from_secs(1),
            "run did not return within 1 s of cancel"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().expect("join").expect("clean shutdown");
}

/// Sums `spnn_shard_dispatch_total` across outcomes for one worker URL.
fn dispatches_to(exp: &Exposition, worker: &str) -> f64 {
    exp.samples
        .iter()
        .filter(|s| {
            s.name == "spnn_shard_dispatch_total"
                && s.labels.iter().any(|(k, v)| k == "worker" && v == worker)
        })
        .map(|s| s.value)
        .sum()
}

/// Acceptance criterion (breakers, open phase): after a dead worker
/// trips its breaker, subsequent runs dispatch **zero** attempts to it
/// while the breaker is open — asserted via `spnn_shard_dispatch_total`
/// and the breaker metrics.
#[test]
fn open_breaker_skips_the_dead_worker_entirely() {
    let live = start_server(2);
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let dead_url = format!("http://{dead}");
    let coordinator = start_server_cfg(ServeConfig {
        workers: 2,
        remote_workers: vec![dead_url.clone(), format!("http://{live}")],
        breaker: spnn_engine::BreakerConfig {
            failure_threshold: 1,
            // Long enough that this test never reaches half-open.
            cooldown: std::time::Duration::from_secs(600),
        },
        ..ServeConfig::default()
    });

    // Run 1: the dead worker's shard fails over to the live one and the
    // breaker trips at the first failure.
    let (status, stream) = post_run(coordinator, &tiny_fig4().to_text());
    assert_eq!(status, 200, "{stream}");
    assert!(stream.contains("\"event\": \"done\""), "{stream}");
    let exp = scrape(coordinator);
    let dispatched_while_closed = dispatches_to(&exp, &dead_url);
    assert!(
        dispatched_while_closed >= 1.0,
        "run 1 must have attempted the dead worker"
    );
    assert_eq!(
        exp.samples
            .iter()
            .find(|s| s.name == "spnn_worker_breaker_state"
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "worker" && v == &dead_url))
            .map(|s| s.value),
        Some(1.0),
        "breaker must be open (gauge 1) after run 1"
    );
    let (_, health) = http(coordinator, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.contains("\"worker_breakers\": "), "{health}");
    assert!(
        health.contains(&format!("\"{dead_url}\": \"open\"")),
        "{health}"
    );

    // Run 2: zero new dispatches to the dead worker; the skip counter
    // moves instead.
    let (status, stream) = post_run(coordinator, &tiny_fig4().to_text());
    assert_eq!(status, 200, "{stream}");
    assert!(stream.contains("\"event\": \"done\""), "{stream}");
    let exp = scrape(coordinator);
    assert_eq!(
        dispatches_to(&exp, &dead_url),
        dispatched_while_closed,
        "an open breaker must shed every dispatch to its worker"
    );
    assert!(
        exp.total("spnn_shard_breaker_skips_total") >= 1.0,
        "skips must be counted"
    );
}

/// Acceptance criterion (breakers, revival): once the worker is back, a
/// background half-open `/healthz` probe closes the breaker without any
/// request traffic, and later runs dispatch to the revived worker again.
#[test]
fn half_open_probe_revives_a_recovered_worker() {
    let live = start_server(2);
    // Reserve a port for the "crashed" worker, then free it so the
    // coordinator sees connection-refused until the revival below.
    let reserved = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let reserved_url = format!("http://{reserved}");
    let coordinator = start_server_cfg(ServeConfig {
        workers: 2,
        remote_workers: vec![reserved_url.clone(), format!("http://{live}")],
        breaker: spnn_engine::BreakerConfig {
            failure_threshold: 1,
            cooldown: std::time::Duration::from_millis(300),
        },
        ..ServeConfig::default()
    });

    // Trip the breaker while the reserved port is dead.
    let (status, stream) = post_run(coordinator, &tiny_fig4().to_text());
    assert_eq!(status, 200, "{stream}");
    assert!(stream.contains("\"event\": \"done\""), "{stream}");

    // Revive the worker on the reserved port; the prober's next
    // half-open /healthz probe should close the breaker on its own.
    let server = Server::bind(
        reserved,
        ServeConfig {
            workers: 2,
            engine: EngineConfig {
                threads: Some(2),
                verbose: false,
                cache_dir: None,
                ..EngineConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("rebind reserved port");
    std::thread::spawn(move || server.run());

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let (_, health) = http(coordinator, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        if health.contains(&format!("\"{reserved_url}\": \"closed\"")) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "breaker never closed after revival: {health}"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let probes = scrape(coordinator).total("spnn_breaker_probes_total");
    assert!(probes >= 1.0, "revival must come from a health probe");

    // The revived worker takes dispatches again — and the stream is
    // still byte-identical to the batch report.
    let before = dispatches_to(&scrape(coordinator), &reserved_url);
    let spec = tiny_fig4();
    let (status, stream) = post_run(coordinator, &spec.to_text());
    assert_eq!(status, 200, "{stream}");
    let reference = run_scenario(&spec, &EngineConfig::default()).expect("batch run");
    let assembled = spnn_engine::assemble_report(&stream).expect("assemble");
    assert_eq!(to_json(&assembled), to_json(&reference));
    assert!(
        dispatches_to(&scrape(coordinator), &reserved_url) > before,
        "the revived worker must receive dispatches again"
    );
}
