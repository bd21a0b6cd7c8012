//! Layer probes shared by every traced run: training, the context cache,
//! the batched kernel and hardware realization, each timed in isolation
//! through its public function on fixed inputs.

use crate::util::{median, median_secs, timed};
use crate::{load_spec_named, Metrics, Options, PrimeTimes};
use spnn_core::{
    BatchScratch, HardwareEffects, KernelProfile, MeshTopology, PerturbationPlan, PhotonicNetwork,
    RealizeScratch,
};
use spnn_dataset::{DatasetConfig, SpnnDataset};
use spnn_engine::queue::compile;
use spnn_engine::{ContextCache, TestBatch};
use spnn_linalg::C64;
use spnn_neural::{Adam, ComplexNetwork, Optimizer};
use spnn_photonics::UncertaintySpec;
use std::path::Path;

/// Emits the training, cache, kernel and realize metrics.
pub fn layers(opts: &Options, ctx_dir: &Path, prime: &PrimeTimes, m: &mut Metrics) {
    training(opts, prime, m);
    cache(opts, ctx_dir, prime, m);
    kernel_and_realize(opts, m);
}

/// Train-split generation plus one epoch split into forward
/// (`ComplexNetwork::loss`), backward (`::backward`, which includes its
/// own forward) and `Adam::step`.
fn training(opts: &Options, prime: &PrimeTimes, m: &mut Metrics) {
    let spec = load_spec_named("fig4", opts.scale);
    let (data, dataset_s) = timed(|| {
        SpnnDataset::generate(&DatasetConfig {
            n_train: spec.dataset.n_train,
            n_test: 0,
            crop: spec.dataset.crop,
            seed: spec.seed,
        })
    });
    let mut net = ComplexNetwork::new(&spec.train.layers, spec.seed ^ 0x11);
    let (x, y) = (&data.train_features, &data.train_labels);
    let forward_s = timed(|| {
        for (xi, &yi) in x.iter().zip(y) {
            std::hint::black_box(net.loss(xi, yi));
        }
    })
    .1;
    let mut adam = Adam::new(spec.train.learning_rate);
    let (mut backward_s, mut adam_s) = (0.0, 0.0);
    let order: Vec<usize> = (0..x.len()).collect();
    for batch in order.chunks(spec.train.batch_size) {
        net.zero_grads();
        backward_s += timed(|| {
            for &i in batch {
                std::hint::black_box(net.backward(&x[i], y[i]));
            }
        })
        .1;
        net.scale_grads(1.0 / batch.len() as f64);
        adam_s += timed(|| adam.step(&mut net)).1;
    }
    m.put("training.dataset_ms", dataset_s * 1e3, "ms");
    m.put("training.forward_ms", forward_s * 1e3, "ms");
    m.put("training.backward_ms", backward_s * 1e3, "ms");
    m.put("training.adam_ms", adam_s * 1e3, "ms");
    m.put("training.fit_s", prime.fit_s, "s");
}

/// Warm loads from the primed directory, plus the priming's mapping and
/// persist spans.
fn cache(opts: &Options, ctx_dir: &Path, prime: &PrimeTimes, m: &mut Metrics) {
    let spec = load_spec_named("ablation_mesh", opts.scale);
    let warm_s = median_secs(7, || {
        let cache = ContextCache::on_disk(ctx_dir);
        std::hint::black_box(cache.get_or_train(&spec, false));
        assert_eq!(cache.stats().trains, 0, "a primed cache must warm-load");
    });
    m.put("cache.warm_load_ms", warm_s * 1e3, "ms");
    m.put("cache.mapping_ms.clements", prime.mapping_s[0] * 1e3, "ms");
    m.put("cache.mapping_ms.reck", prime.mapping_s[1] * 1e3, "ms");
    m.put("cache.persist_ms", prime.persist_s * 1e3, "ms");
}

/// The kernel set-up of `BENCH_engine.json` (16-16-16-10, σ = 0.05,
/// n_test 1000 at full scale), so the two files cross-check: one batched
/// forward per profile, and `realize_into` under four effect mixes (the
/// last queue point of fig4, fig5, ablation_thermal and ablation_quant).
fn kernel_and_realize(opts: &Options, m: &mut Metrics) {
    let n = match opts.scale {
        crate::Scale::Full => 1000,
        crate::Scale::Smoke => 100,
    };
    let sw = ComplexNetwork::new(&[16, 16, 16, 10], 9);
    let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).expect("mapping");
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
    let batch = TestBatch::new(&features, &labels);
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
    let matrices = hw.realize(
        &plan,
        &HardwareEffects::default(),
        &mut spnn_core::iteration_rng(3, 0),
    );
    let mut scratch = BatchScratch::default();
    let mut forward_us = |profile| {
        median_secs(15, || {
            std::hint::black_box(batch.accuracy_with_profile(
                &hw,
                &matrices,
                profile,
                &mut scratch,
            ));
        }) * 1e6
    };
    let reference_us = forward_us(KernelProfile::Reference);
    let fma_us = forward_us(KernelProfile::Fma);
    let macs: usize = ideal.iter().map(|w| w.rows() * w.cols()).sum::<usize>() * n;
    m.put("kernel.forward_us.reference", reference_us, "us");
    m.put("kernel.forward_us.fma", fma_us, "us");
    // Computed, not counted: 8 flops per complex MAC over the reference time.
    m.put(
        "kernel.forward_gflops",
        8.0 * macs as f64 / (reference_us * 1e3),
        "GFLOP/s",
    );

    for (metric, scenario) in [
        ("realize.us.global", "fig4"),
        ("realize.us.zonal", "fig5"),
        ("realize.us.thermal", "ablation_thermal"),
        ("realize.us.quant", "ablation_quant"),
    ] {
        let item = compile(&load_spec_named(scenario, opts.scale), &hw)
            .pop()
            .expect("non-empty queue");
        let mut realize = RealizeScratch::default();
        let mut out = Vec::new();
        let mut k = 0;
        let times: Vec<f64> = (0..31)
            .map(|_| {
                k += 1;
                let mut rng = spnn_core::iteration_rng(item.seed, k);
                timed(|| {
                    hw.realize_into(&item.plan, &item.effects, &mut rng, &mut realize, &mut out)
                })
                .1
            })
            .collect();
        m.put(metric, median(&times) * 1e6, "us");
    }
}
