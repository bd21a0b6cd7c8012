//! Reduced-scale smoke of every workload in both modes: the same code
//! paths as the benchmark on tiny inputs, so a broken harness fails in
//! seconds. Each run must be correct, fail nothing, and emit exactly the
//! metrics `BENCHMARK.json` lists for its mode.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::{run, Options, Scale, Workload};
use std::path::PathBuf;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Metric names listed in `BENCHMARK.json` under `section`
/// (`end_to_end` or `per_layer`).
fn listed(section: &str) -> Vec<String> {
    let start = BENCHMARK
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &BENCHMARK[start..];
    let end = rest[1..]
        .find("\"per_layer\"")
        .map_or(rest.len(), |i| i + 1);
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        scratch: scratch.clone(),
    };
    let out = run(&opts);
    let _ = std::fs::remove_dir_all(&scratch);

    assert!(out.tally.correct(), "{:?}", out.tally.notes);
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.notes);
    assert!(out.tally.attempted > 0);
    let mut emitted: Vec<&str> = out.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut expected = listed(if trace { "per_layer" } else { "end_to_end" });
    emitted.sort_unstable();
    expected.sort_unstable();
    assert_eq!(
        emitted, expected,
        "emitted metrics must match BENCHMARK.json"
    );
    for (name, value, _) in &out.metrics.0 {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn campaign_cold_untraced() {
    smoke(Workload::CampaignCold, false);
}

#[test]
fn campaign_cold_traced() {
    smoke(Workload::CampaignCold, true);
}

#[test]
fn ablation_sharded_untraced() {
    smoke(Workload::AblationSharded, false);
}

#[test]
fn ablation_sharded_traced() {
    smoke(Workload::AblationSharded, true);
}

#[test]
fn serve_mixed_untraced() {
    smoke(Workload::ServeMixed, false);
}

#[test]
fn serve_mixed_traced() {
    smoke(Workload::ServeMixed, true);
}

#[test]
fn request_stream_is_seeded_and_mixed() {
    let a = perfbench::serve::request_stream(3, 48, 9);
    assert_eq!(a, perfbench::serve::request_stream(3, 48, 9));
    assert_ne!(a, perfbench::serve::request_stream(4, 48, 9));
    // Two thirds repeat an earlier body; every fresh body shares a σ
    // with an earlier one; the last third only repeats.
    let fresh: Vec<usize> = (0..a.len()).filter(|&i| !a[..i].contains(&a[i])).collect();
    assert_eq!(fresh.len(), 16);
    assert!(fresh.iter().all(|&i| i < 32));
    for &i in &fresh[1..] {
        assert!(a[i].iter().any(|s| a[..i].iter().flatten().any(|t| t == s)));
    }
}
