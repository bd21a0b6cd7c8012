//! Kernel-profile integration tests: the `fma` profile is a *different
//! deterministic contract*, not a loosening of the reference one. Every
//! guarantee the engine makes for the reference profile must hold
//! verbatim under `--kernel fma` — bit-stability across thread counts,
//! byte-identical reports from every executor, profile-scoped
//! fingerprints — plus two of its own: pinned goldens for the preset
//! scenarios, and statistical agreement with the reference profile
//! within the Monte-Carlo margin of error.
//!
//! To re-pin the goldens after an *intentional* kernel change, run
//! `cargo test -p spnn-engine --test kernel -- --nocapture` and copy the
//! printed hashes (see `docs/kernels.md`).

mod common;

use common::{start_server, TrainedCache};
use spnn_engine::exec::{
    run_distributed, CancelToken, ExecContext, Executor, LocalExecutor, RemoteExecutor,
    SpawnExecutor,
};
use spnn_engine::prelude::*;
use spnn_engine::runner::{run_scenario_shard_with, run_scenario_with};
use spnn_engine::{queue_fingerprint_with, KernelProfile};
use std::path::PathBuf;

/// FNV-1a over the rendered report — a compact, dependency-free digest
/// for golden pinning (any byte change flips it).
fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn config(kernel: KernelProfile, threads: usize) -> EngineConfig {
    EngineConfig {
        threads: Some(threads),
        kernel,
        verbose: false,
        cache_dir: None,
        ..EngineConfig::default()
    }
}

fn run(spec: &ScenarioSpec, kernel: KernelProfile, threads: usize) -> EngineReport {
    run_scenario(spec, &config(kernel, threads)).expect("scenario runs")
}

// ---------------------------------------------------------------------------
// Determinism under the fma profile
// ---------------------------------------------------------------------------

/// The fma profile keeps the engine's thread-count invariance: every
/// iteration is a pure function of `(seed, k)` regardless of which
/// worker computes it, so 1 thread and 8 threads emit identical bytes.
#[test]
fn fma_reports_are_bit_stable_across_thread_counts() {
    for spec in [common::tiny_fig4(), common::tiny_fig5()] {
        let one = run(&spec, KernelProfile::Fma, 1);
        let eight = run(&spec, KernelProfile::Fma, 8);
        assert_eq!(to_json(&one), to_json(&eight), "{}: JSON", spec.name);
        assert_eq!(to_csv(&one), to_csv(&eight), "{}: CSV", spec.name);
    }
}

/// Golden pin: the tiny fig4 sweep under `--kernel fma`. A change to
/// this hash means the fma kernels changed their bits — which is a
/// breaking change to the profile's determinism contract and must be
/// deliberate (re-pin per the module docs and docs/kernels.md).
#[test]
fn fma_golden_fig4() {
    let report = run(&common::tiny_fig4(), KernelProfile::Fma, 2);
    let got = digest(&to_json(&report));
    assert_eq!(
        got, 0x82e7_b4ff_a932_dbd3,
        "fig4 fma golden diverged (got {got:#018x})"
    );
}

/// Golden pin: the tiny fig5 zonal sweep under `--kernel fma`.
#[test]
fn fma_golden_fig5() {
    let report = run(&common::tiny_fig5(), KernelProfile::Fma, 2);
    let got = digest(&to_json(&report));
    assert_eq!(
        got, 0x79bc_bf1e_fd2d_9a91,
        "fig5 fma golden diverged (got {got:#018x})"
    );
}

/// A tiny thermal-crosstalk ablation (κ ∈ {0, 0.01}, decay 60 µm, with
/// and without σ = 0.02 random noise) at a scale where both the crosstalk
/// and the noise move the accuracy, under a fixed iteration count.
fn tiny_thermal() -> ScenarioSpec {
    let scale = RunScale {
        n_train: 600,
        n_test: 200,
        epochs: 8,
        ..RunScale::tiny()
    };
    let mut spec = presets::thermal(&scale);
    spec.sweep.sigmas = vec![0.0, 0.02];
    spec.effects.thermal_kappa = vec![0.0, 0.01];
    spec.iterations = 8;
    spec.min_iterations = 8;
    spec.target_moe = 0.0;
    spec.round_size = 4;
    spec
}

/// Golden pin: the tiny thermal ablation under the reference kernel. It
/// pins the realization path with crosstalk on (quantized phases plus
/// crosstalk offsets, then the random draws) end to end; the hash was
/// recorded before realizations were planned once per sweep point, so the
/// planned path reproduces the per-iteration one byte for byte.
#[test]
fn reference_golden_thermal() {
    let report = run(&tiny_thermal(), KernelProfile::Reference, 2);
    let got = digest(&to_json(&report));
    assert_eq!(
        got, 0xf4ff_c41e_5eff_b37a,
        "thermal reference golden diverged (got {got:#018x})"
    );
}

/// The reference profile's bytes are the same with the kernel subsystem
/// in place as they were before it existed: the default config and an
/// explicit `KernelProfile::Reference` agree bit-for-bit.
#[test]
fn reference_profile_is_the_default_and_unchanged() {
    let spec = common::tiny_fig4();
    let default_run = run_scenario(
        &spec,
        &EngineConfig {
            threads: Some(2),
            verbose: false,
            ..EngineConfig::default()
        },
    )
    .expect("default run");
    let explicit = run(&spec, KernelProfile::Reference, 2);
    assert_eq!(to_json(&default_run), to_json(&explicit));
}

// ---------------------------------------------------------------------------
// Executor parity under fma
// ---------------------------------------------------------------------------

fn distribute(
    spec: &ScenarioSpec,
    executor: &dyn Executor,
    shards: usize,
    kernel: KernelProfile,
    cache: &TrainedCache,
) -> EngineReport {
    let config = config(kernel, 2);
    let cache = cache.context();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    run_distributed(spec, executor, shards, &ctx, &mut |_| {})
        .unwrap_or_else(|e| panic!("{} executor failed under fma: {e}", executor.name()))
}

/// Local threads, spawned child processes, and remote workers all
/// produce the same bytes as the unsharded fma run. The spawn executor
/// forwards `--kernel fma` on the child command line; the remote
/// executor appends `&kernel=fma` to the `/shard` query, overriding the
/// worker's own (reference) default. The scenario trains past chance,
/// once, into a cache every executor and the worker load.
#[test]
fn every_executor_is_byte_identical_under_fma() {
    let cache = TrainedCache::new("fma-executors");
    let spec = common::classifying(common::tiny_fig4());
    let unsharded = run_scenario_with(&spec, &config(KernelProfile::Fma, 2), &cache.context())
        .expect("unsharded fma run");
    common::assert_classifies(&unsharded);
    let expected = to_json(&unsharded);

    let local = distribute(&spec, &LocalExecutor, 2, KernelProfile::Fma, &cache);
    assert_eq!(to_json(&local), expected, "local executor");

    let spawn = SpawnExecutor {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_spnn")),
    };
    let spawned = distribute(&spec, &spawn, 2, KernelProfile::Fma, &cache);
    assert_eq!(to_json(&spawned), expected, "spawn executor");

    // The worker serves with the *reference* default; only the
    // coordinator asks for fma. A worker that ignored the query
    // parameter would return a foreign (reference) fingerprint and be
    // rejected, so success here proves the override is honored.
    let remote = RemoteExecutor::new([format!("http://{}", cache.worker())]);
    let report = distribute(&spec, &remote, 2, KernelProfile::Fma, &cache);
    assert_eq!(to_json(&report), expected, "remote executor");
}

// ---------------------------------------------------------------------------
// Statistical agreement with the reference profile
// ---------------------------------------------------------------------------

/// The two profiles estimate the same physical quantity: per sweep
/// point, their means agree within the combined 95 % margins of error
/// (plus one test-set quantum for the zero-variance σ = 0 points, where
/// a single borderline sample may legitimately classify differently).
#[test]
fn fma_agrees_with_reference_within_the_margin_of_error() {
    let mut spec = common::tiny_fig4();
    spec.iterations = 32;
    spec.min_iterations = 32; // fixed count: MoE comparison, not early stop
    let reference = run(&spec, KernelProfile::Reference, 2);
    let fma = run(&spec, KernelProfile::Fma, 2);
    assert_eq!(reference.rows.len(), fma.rows.len());
    for (r, f) in reference.rows.iter().zip(&fma.rows) {
        assert_eq!(r.labels, f.labels);
        let tolerance = r.moe95 + f.moe95 + 0.05;
        assert!(
            (r.mean - f.mean).abs() <= tolerance,
            "{:?}: reference {} vs fma {} (moe {} + {})",
            r.labels,
            r.mean,
            f.mean,
            r.moe95,
            f.moe95
        );
    }
}

// ---------------------------------------------------------------------------
// Profile-scoped fingerprints end to end
// ---------------------------------------------------------------------------

/// Partials computed under different profiles never merge: the shard
/// layer rejects them with a typed mismatch *before* comparing
/// fingerprints, so the operator sees "kernel profile" and not a
/// baffling hash diff.
#[test]
fn mixed_profile_partials_do_not_merge() {
    let spec = common::tiny_fig4();
    let cache = ContextCache::in_memory();
    let reference =
        run_scenario_shard_with(&spec, &config(KernelProfile::Reference, 2), &cache, 2, 0)
            .expect("reference shard");
    let fma = run_scenario_shard_with(&spec, &config(KernelProfile::Fma, 2), &cache, 2, 1)
        .expect("fma shard");
    let err = merge_partials(&[reference, fma]).expect_err("profiles must not mix");
    assert!(
        err.to_string().contains("kernel profile"),
        "unexpected merge error: {err}"
    );
}

/// The worker's `/shard` endpoint: `&kernel=fma` switches the computed
/// profile (visible in the partial's fingerprint), an unknown name is a
/// 400, and `/healthz` advertises the profile and CPU tier.
#[test]
fn shard_endpoint_selects_and_validates_the_kernel_profile() {
    let spec = common::tiny_fig4();
    let text = spec.to_text();
    let addr = start_server(2);

    let (status, body) = common::post_shard(addr, "shards=2&index=0&kernel=fma", &text);
    assert_eq!(status, 200, "fma shard failed: {body}");
    let partial = PartialReport::parse(&body).expect("fma partial parses");
    assert_eq!(
        partial.queue_fingerprint,
        queue_fingerprint_with(&spec, KernelProfile::Fma)
    );

    let (status, body) = common::post_shard(addr, "shards=2&index=0", &text);
    assert_eq!(status, 200);
    let partial = PartialReport::parse(&body).expect("reference partial parses");
    assert_eq!(
        partial.queue_fingerprint,
        queue_fingerprint_with(&spec, KernelProfile::Reference),
        "no kernel parameter means the worker's own (reference) profile"
    );

    let (status, body) = common::post_shard(addr, "shards=2&index=0&kernel=turbo", &text);
    assert_eq!(status, 400, "unknown profile must be rejected: {body}");
    assert!(body.contains("kernel profile"), "unhelpful 400: {body}");

    let (status, health) = common::http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        health.contains("\"kernel_profile\": \"reference\""),
        "healthz missing profile: {health}"
    );
    assert!(
        health.contains("\"kernel_tier\": \""),
        "healthz missing tier: {health}"
    );
}
