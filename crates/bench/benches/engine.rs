//! Criterion bench: `spnn-engine` batched forward path vs per-sample
//! Monte-Carlo loops.
//!
//! Three variants of one accuracy evaluation (the per-iteration hot path)
//! are measured for the paper's 16-16-16-10 network:
//!
//! - **`naive_seed`** — the per-figure loop exactly as the seed repository
//!   shipped it: per-sample `mul_vec` products, per-sample allocations,
//!   libm-based softplus on a `hypot` modulus (reproduced verbatim in
//!   [`naive`] below). This is the baseline the engine replaced.
//! - **`per_sample`** — today's `PhotonicNetwork::accuracy_with`: still a
//!   per-sample loop, but it already benefits from the polynomial
//!   activation kernels introduced with the engine.
//! - **`batched`** — the engine's `TestBatch::accuracy_with`: tiled
//!   split-plane matrix products + vectorized activation planes,
//!   bit-identical to `per_sample`.
//!
//! A full Monte-Carlo iteration (hardware realization + accuracy) is also
//! timed to bound the end-to-end win (`mc_iteration/thermal` times the
//! thermal-crosstalk ablation's iteration with its realization plan built
//! once, as the engine runs it), and one additional datapoint covers the
//! trained-context cache: a cold `ContextCache::get_or_train` (dataset
//! generation + training + mapping + persist) is compared with a warm one
//! (load + deserialize) at a reduced training scale.
//!
//! `SPNN_NTEST` scales the test-set size (default 1000, the acceptance
//! configuration). A `BENCH_engine.json` datapoint with the measured
//! speedups is written to the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spnn_core::{
    BatchScratch, HardwareEffects, KernelProfile, MeshTopology, PerturbationPlan, PhotonicNetwork,
    RealizationPlan, RealizeScratch,
};
use spnn_engine::cache::ContextCache;
use spnn_engine::{presets, RunScale, TestBatch};
use spnn_linalg::{CMatrix, C64};
use spnn_neural::ComplexNetwork;
use spnn_photonics::thermal::ThermalCrosstalk;
use spnn_photonics::UncertaintySpec;
use std::time::Instant;

/// The seed's original forward path, reproduced verbatim as the
/// historical baseline (see the seed's `network.rs`/`activation.rs`):
/// libm `exp`/`ln_1p` softplus on a `hypot` modulus, one heap-allocated
/// vector per layer per sample.
mod naive {
    use super::*;
    use spnn_neural::loss::argmax;

    fn softplus(x: f64) -> f64 {
        x.max(0.0) + (-x.abs()).exp().ln_1p()
    }

    fn mod_softplus(z: &[C64]) -> Vec<C64> {
        z.iter().map(|v| C64::from(softplus(v.abs()))).collect()
    }

    pub fn accuracy_with(matrices: &[CMatrix], features: &[Vec<C64>], labels: &[usize]) -> f64 {
        let last = matrices.len() - 1;
        let correct = features
            .iter()
            .zip(labels.iter())
            .filter(|(x, &y)| {
                let mut a = x.to_vec();
                for (l, m) in matrices.iter().enumerate() {
                    let z = m.mul_vec(&a);
                    a = if l < last { mod_softplus(&z) } else { z };
                }
                let intensities: Vec<f64> = a.iter().map(|v| v.abs_sq()).collect();
                argmax(&intensities) == y
            })
            .count();
        correct as f64 / features.len() as f64
    }
}

fn n_test() -> usize {
    std::env::var("SPNN_NTEST")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn setup(n: usize) -> (PhotonicNetwork, Vec<Vec<C64>>, Vec<usize>, Vec<CMatrix>) {
    let sw = ComplexNetwork::new(&[16, 16, 16, 10], 9);
    let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
    let features: Vec<Vec<C64>> = (0..n)
        .map(|i| {
            (0..16)
                .map(|j| {
                    C64::new(
                        ((i * 3 + j) % 7) as f64 * 0.1,
                        ((i + j * 5) % 4) as f64 * 0.1,
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
    // Bench against a realistically-perturbed realization, not the ideal.
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
    let matrices = hw.realize(
        &plan,
        &HardwareEffects::default(),
        &mut spnn_core::iteration_rng(3, 0),
    );
    (hw, features, labels, matrices)
}

fn bench_accuracy_paths(c: &mut Criterion) {
    let n = n_test();
    let (hw, xs, ys, matrices) = setup(n);
    let batch = TestBatch::new(&xs, &ys);
    assert_eq!(
        hw.accuracy_with(&matrices, &xs, &ys),
        batch.accuracy_with(&hw, &matrices),
        "paths must agree before timing them"
    );

    let mut group = c.benchmark_group("accuracy_eval");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("naive_seed", n), &n, |b, _| {
        b.iter(|| naive::accuracy_with(std::hint::black_box(&matrices), &xs, &ys))
    });
    group.bench_with_input(BenchmarkId::new("per_sample", n), &n, |b, _| {
        b.iter(|| hw.accuracy_with(std::hint::black_box(&matrices), &xs, &ys))
    });
    group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
        b.iter(|| batch.accuracy_with(&hw, std::hint::black_box(&matrices)))
    });
    group.finish();
}

fn bench_full_iteration(c: &mut Criterion) {
    let n = n_test();
    let (hw, xs, ys, _) = setup(n);
    let batch = TestBatch::new(&xs, &ys);
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
    let fx = HardwareEffects::default();

    let mut group = c.benchmark_group("mc_iteration");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("per_sample", n), &n, |b, _| {
        let mut k = 0usize;
        b.iter(|| {
            let m = hw.realize(&plan, &fx, &mut spnn_core::iteration_rng(7, k));
            k += 1;
            hw.accuracy_with(&m, &xs, &ys)
        })
    });
    group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
        let mut k = 0usize;
        b.iter(|| {
            let m = hw.realize(&plan, &fx, &mut spnn_core::iteration_rng(7, k));
            k += 1;
            batch.accuracy_with(&hw, &m)
        })
    });
    // The thermal-crosstalk ablation's iteration as the engine's worker
    // loop runs it: the realization plan (crosstalk offsets included) is
    // built once per sweep point, outside the timed iterations.
    let thermal = HardwareEffects::with_thermal(ThermalCrosstalk::new(0.01, 60.0));
    group.bench_with_input(BenchmarkId::new("thermal", n), &n, |b, _| {
        let realization = RealizationPlan::new(&hw, &plan, &thermal);
        let mut k = 0usize;
        let mut realize = RealizeScratch::default();
        let mut scratch = BatchScratch::default();
        let mut m = Vec::new();
        b.iter(|| {
            realization.realize_into(&mut spnn_core::iteration_rng(7, k), &mut realize, &mut m);
            k += 1;
            batch.accuracy_with_profile(&hw, &m, KernelProfile::Reference, &mut scratch)
        })
    });
    group.finish();
}

/// The opt-in fma profile vs the reference path, measured exactly as the
/// engine's worker loop runs them: reference is realize + batched
/// accuracy (the pre-profile hot path), fma adds the runtime-dispatched
/// FMA/SIMD kernels *and* the reused realize/batch scratch.
fn bench_fma_profile(c: &mut Criterion) {
    let n = n_test();
    let (hw, xs, ys, _) = setup(n);
    let batch = TestBatch::new(&xs, &ys);
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
    let fx = HardwareEffects::default();

    let mut group = c.benchmark_group("fma_profile");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
        let mut k = 0usize;
        b.iter(|| {
            let m = hw.realize(&plan, &fx, &mut spnn_core::iteration_rng(7, k));
            k += 1;
            batch.accuracy_with(&hw, &m)
        })
    });
    group.bench_with_input(BenchmarkId::new("fma", n), &n, |b, _| {
        let mut k = 0usize;
        let mut realize = RealizeScratch::default();
        let mut scratch = BatchScratch::default();
        let mut m = Vec::new();
        b.iter(|| {
            hw.realize_into(
                &plan,
                &fx,
                &mut spnn_core::iteration_rng(7, k),
                &mut realize,
                &mut m,
            );
            k += 1;
            batch.accuracy_with_profile(&hw, &m, KernelProfile::Fma, &mut scratch)
        })
    });
    group.finish();
}

/// Times `f` over `reps` calls and returns ns/call (min of 7 samples —
/// robust against scheduler noise on shared machines).
fn time_ns<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// Writes the `BENCH_engine.json` datapoint at the workspace root.
fn emit_datapoint(_c: &mut Criterion) {
    let n = n_test();
    let (hw, xs, ys, matrices) = setup(n);
    let batch = TestBatch::new(&xs, &ys);
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
    let fx = HardwareEffects::default();

    let naive_eval = time_ns(5, || naive::accuracy_with(&matrices, &xs, &ys));
    let per_sample_eval = time_ns(5, || hw.accuracy_with(&matrices, &xs, &ys));
    let batched_eval = time_ns(5, || batch.accuracy_with(&hw, &matrices));
    let mut k = 0usize;
    let per_sample_iter = time_ns(5, || {
        let m = hw.realize(&plan, &fx, &mut spnn_core::iteration_rng(7, k));
        k += 1;
        hw.accuracy_with(&m, &xs, &ys)
    });
    let batched_iter = time_ns(5, || {
        let m = hw.realize(&plan, &fx, &mut spnn_core::iteration_rng(7, k));
        k += 1;
        batch.accuracy_with(&hw, &m)
    });

    // The opt-in fma profile: FMA/SIMD kernels + reused iteration
    // scratch, against the reference per-iteration path above.
    let fma_eval = {
        let mut scratch = BatchScratch::default();
        let m = hw.realize(&plan, &fx, &mut spnn_core::iteration_rng(3, 0));
        time_ns(5, || {
            batch.accuracy_with_profile(&hw, &m, KernelProfile::Fma, &mut scratch)
        })
    };
    let fma_iter = {
        let mut realize = RealizeScratch::default();
        let mut scratch = BatchScratch::default();
        let mut m = Vec::new();
        time_ns(5, || {
            hw.realize_into(
                &plan,
                &fx,
                &mut spnn_core::iteration_rng(7, k),
                &mut realize,
                &mut m,
            );
            k += 1;
            batch.accuracy_with_profile(&hw, &m, KernelProfile::Fma, &mut scratch)
        })
    };

    // Trained-context cache: cold train vs warm load, at a reduced
    // training scale so the bench stays quick (the win grows with scale —
    // the warm path is O(weights), the cold path O(epochs × n_train)).
    let cache_scale = RunScale {
        mc: 1,
        n_train: 600,
        n_test: 100,
        epochs: 8,
        seed: 7,
        target_moe: 0.0,
    };
    let cache_spec = presets::fig4(&cache_scale);
    let shuffle_seed = Some(cache_spec.seed ^ 0x33);
    let dir = std::env::temp_dir().join(format!("spnn-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let cold_cache = ContextCache::on_disk(&dir);
    let ctx = cold_cache.get_or_train(&cache_spec, false);
    ctx.mapping(MeshTopology::Clements, shuffle_seed)
        .expect("mapping");
    cold_cache.persist(&ctx).expect("persist");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut warm_ms = f64::INFINITY;
    for _ in 0..5 {
        let t1 = Instant::now();
        let warm_cache = ContextCache::on_disk(&dir);
        let warm_ctx = warm_cache.get_or_train(&cache_spec, false);
        warm_ctx
            .mapping(MeshTopology::Clements, shuffle_seed)
            .expect("mapping");
        warm_ms = warm_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        assert_eq!(warm_cache.stats().trains, 0, "warm path must not train");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let cache_speedup = cold_ms / warm_ms;

    let vs_naive = naive_eval / batched_eval;
    let vs_per_sample = per_sample_eval / batched_eval;
    let iter_speedup = per_sample_iter / batched_iter;
    let fma_eval_speedup = batched_eval / fma_eval;
    let fma_iter_speedup = batched_iter / fma_iter;
    let tier = spnn_core::detected_tier();
    let json = format!(
        "{{\n  \"bench\": \"engine_batched_vs_per_sample\",\n  \"network\": \"16-16-16-10\",\n  \"n_test\": {n},\n  \"accuracy_eval\": {{\n    \"naive_seed_ns\": {naive_eval:.0},\n    \"per_sample_ns\": {per_sample_eval:.0},\n    \"batched_ns\": {batched_eval:.0},\n    \"speedup_vs_naive_seed\": {vs_naive:.2},\n    \"speedup_vs_per_sample\": {vs_per_sample:.2}\n  }},\n  \"mc_iteration\": {{\"per_sample_ns\": {per_sample_iter:.0}, \"batched_ns\": {batched_iter:.0}, \"speedup\": {iter_speedup:.2}}},\n  \"fma_profile\": {{\n    \"tier\": \"{tier}\",\n    \"accuracy_eval\": {{\"reference_ns\": {batched_eval:.0}, \"fma_ns\": {fma_eval:.0}, \"speedup\": {fma_eval_speedup:.2}}},\n    \"mc_iteration\": {{\"reference_ns\": {batched_iter:.0}, \"fma_ns\": {fma_iter:.0}, \"speedup\": {fma_iter_speedup:.2}}}\n  }},\n  \"trained_context_cache\": {{\n    \"scale\": \"n_train=600 epochs=8\",\n    \"cold_train_ms\": {cold_ms:.1},\n    \"warm_load_ms\": {warm_ms:.2},\n    \"speedup\": {cache_speedup:.0}\n  }}\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    std::fs::write(&path, &json).expect("write BENCH_engine.json");
    println!(
        "engine datapoint: batched {vs_naive:.2}x vs the seed's naive loop, fma profile {fma_iter_speedup:.2}x per iteration ({tier}), warm cache {cache_speedup:.0}x vs cold train → {}",
        path.display()
    );
}

criterion_group!(
    benches,
    bench_accuracy_paths,
    bench_full_iteration,
    bench_fma_profile,
    emit_datapoint
);
criterion_main!(benches);
