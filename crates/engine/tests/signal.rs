//! Graceful-shutdown signal tests, quarantined in their own test binary:
//! raising SIGTERM sets a process-wide flag, so these must not share a
//! process with tests that run a `Server` (its accept loop observes the
//! flag).
//!
//! Covers `spnn serve` under SIGTERM: it stops accepting, finishes the
//! in-flight stream (with or without a request budget), and exits
//! cleanly (status 0); and the in-process flag plumbing
//! (`install_signal_handlers` → `process_shutdown_requested` → the
//! server's accept loop cancels the server token).

#![cfg(unix)]

use spnn_engine::prelude::*;
use spnn_photonics::PerturbTarget;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

extern "C" {
    fn raise(sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// The flag plumbing, in-process: after installing handlers, SIGTERM no
/// longer kills the process — it raises the shutdown flag, which a
/// running `Server`'s accept loop turns into a cancellation of its own
/// token. Tokens themselves never read the flag: a standalone token (a
/// local stream's) stays un-cancelled, so local streams drain.
#[test]
fn sigterm_stops_the_server_but_not_standalone_tokens() {
    let token = spnn_engine::exec::CancelToken::new();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let server_token = server.cancel_token();
    let handle = std::thread::spawn(move || server.run());
    assert!(
        spnn_engine::exec::install_signal_handlers(),
        "handler installation must succeed on Unix"
    );
    // SAFETY: raising a signal we just installed a handler for.
    assert_eq!(unsafe { raise(SIGTERM) }, 0);
    assert!(spnn_engine::exec::process_shutdown_requested());

    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "Server::run must return promptly after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join().expect("join").expect("clean shutdown");
    assert!(
        server_token.is_cancelled(),
        "the server token carries the shutdown"
    );
    assert!(
        !token.is_cancelled(),
        "a standalone token does not observe process shutdown"
    );
}

fn spec_text() -> String {
    let mut spec = presets::fig4(&RunScale::tiny());
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0, 0.02, 0.04, 0.06, 0.08, 0.1];
    // A fixed, long stop rule keeps the run in flight for a while after
    // its `started` event.
    spec.iterations = 2048;
    spec.min_iterations = 2;
    spec.target_moe = 0.0;
    spec.round_size = 8;
    spec.to_text()
}

/// Runs `spnn serve` with `extra` options, starts an in-flight
/// `POST /run`, sends SIGTERM, and requires the stream to finish with a
/// `done` event and the process to exit 0 — whether the signal lands
/// mid-run or just after.
fn assert_serve_drains_on_sigterm(extra: &[&str]) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_spnn"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--no-cache",
            "--no-row-cache",
        ])
        .args(extra)
        .env_remove("SPNN_THREADS")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn spnn serve");

    // The service logs its ephemeral address on stderr; keep draining the
    // pipe afterwards so the child never blocks on a full pipe.
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve must announce its address")
            .expect("readable stderr");
        if let Some(rest) = line.split("serving on http://").nth(1) {
            break rest.trim().to_string();
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});

    // Start a run and wait until its stream has started, so the signal
    // lands while it is in flight.
    let spec = spec_text();
    let request_addr = addr.clone();
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let request = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&request_addr).expect("connect");
        write!(
            stream,
            "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            spec.len(),
            spec
        )
        .expect("send request");
        let mut body = String::new();
        for line in BufReader::new(stream).lines() {
            let line = line.expect("read stream");
            if line.contains("\"event\": \"started\"") {
                let _ = started_tx.send(());
            }
            body.push_str(&line);
            body.push('\n');
        }
        body
    });
    started_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run must start streaming");

    // SIGTERM: drain and exit — never abort the stream.
    let kill = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());

    let body = request.join().expect("request thread");
    assert!(
        body.contains("\"event\": \"done\""),
        "in-flight stream must finish under SIGTERM: {body}"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("spnn serve did not exit within 60s of SIGTERM");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert!(status.success(), "graceful drain must exit 0, got {status}");
}

/// The full binary: `spnn serve` + an in-flight `POST /run` + SIGTERM.
#[test]
fn spnn_serve_drains_in_flight_stream_on_sigterm() {
    assert_serve_drains_on_sigterm(&[]);
}

/// A request budget does not change the drain: the budget meter is the
/// only thing that may cancel a local stream, and SIGTERM is not a budget
/// violation.
#[test]
fn budgeted_serve_drains_in_flight_stream_on_sigterm() {
    assert_serve_drains_on_sigterm(&["--max-iterations", "100000000"]);
}
