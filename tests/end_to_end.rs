//! End-to-end integration tests spanning every crate: dataset → training →
//! photonic mapping → uncertainty injection → Monte-Carlo accuracy. The
//! sweeps are scenario specs run by the engine, as every experiment is.

use spnn::engine::runner::run_scenario_with;
use spnn::engine::spec::LayerSelect;
use spnn::engine::{presets, ContextCache, PlanKind, TrainedContext};
use spnn::prelude::*;
use std::sync::{Arc, OnceLock};

/// The shared small-but-real pipeline: the paper's architecture and Fig. 4
/// sweep at test scale. Every test narrows this spec without touching its
/// training fields, so all of them share one training fingerprint.
fn base_spec() -> ScenarioSpec {
    presets::fig4(&RunScale {
        mc: 12,
        n_train: 600,
        n_test: 150,
        epochs: 18,
        seed: 1234,
        target_moe: 0.0,
    })
}

/// One trained-context cache per test binary: training runs once, on the
/// first test to need it, and every later scenario loads it from memory.
fn cache() -> &'static ContextCache {
    static CACHE: OnceLock<ContextCache> = OnceLock::new();
    CACHE.get_or_init(ContextCache::in_memory)
}

fn run(spec: &ScenarioSpec) -> EngineReport {
    let report = run_scenario_with(spec, &EngineConfig::default(), cache()).expect("scenario runs");
    assert_eq!(cache().stats().trains, 1, "every test shares one training");
    report
}

/// The trained software network with its Clements mapping and test split,
/// for the tests that inspect the pipeline's stages directly.
struct Trained {
    ctx: Arc<TrainedContext>,
    hw: Arc<PhotonicNetwork>,
    features: Vec<Vec<C64>>,
    labels: Vec<usize>,
}

fn trained() -> &'static Trained {
    static TRAINED: OnceLock<Trained> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let spec = base_spec();
        let ctx = cache().get_or_train(&spec, false);
        let hw = ctx.mapping(MeshTopology::Clements, None).unwrap();
        let (features, labels) = spec.test_samples().unzip();
        Trained {
            ctx,
            hw,
            features,
            labels,
        }
    })
}

/// The mean accuracy of the row labelled `mode` at `sigma`.
fn mean_at(report: &EngineReport, mode: &str, sigma: &str) -> f64 {
    report
        .rows
        .iter()
        .find(|r| r.label("mode") == Some(mode) && r.label("sigma") == Some(sigma))
        .unwrap_or_else(|| panic!("no row for {mode} at σ = {sigma}"))
        .mean
}

#[test]
fn software_training_learns_the_synthetic_task() {
    let t = trained();
    let acc = t.ctx.software().accuracy(&t.features, &t.labels);
    assert!(
        acc > 0.6,
        "trained SPNN should comfortably beat the 10% random guess, got {acc}"
    );
}

#[test]
fn photonic_hardware_reproduces_software_exactly_without_noise() {
    let mut spec = base_spec();
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0];
    spec.iterations = 1;
    spec.min_iterations = 1;
    let report = run(&spec);
    let t = &report.topologies[0];
    assert!(
        (t.software_accuracy - t.nominal_accuracy).abs() < 1e-12,
        "ideal hardware must match software: {} vs {}",
        t.software_accuracy,
        t.nominal_accuracy
    );
    assert_eq!(report.rows[0].mean, t.nominal_accuracy);
}

#[test]
fn per_sample_logits_match_between_software_and_hardware() {
    let t = trained();
    let ideal = t.hw.ideal_matrices();
    for f in t.features.iter().take(20) {
        let sw = t.ctx.software().forward(f);
        let hwv = t.hw.forward_with(&ideal, f);
        for (a, b) in sw.iter().zip(hwv.iter()) {
            assert!((a - b).abs() < 1e-6, "logit mismatch: {a} vs {b}");
        }
    }
}

#[test]
fn uncertainty_degrades_accuracy_monotonically_in_expectation() {
    // Coarse grid with enough MC iterations for a stable ordering.
    let mut spec = base_spec();
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.01, 0.05, 0.15];
    let report = run(&spec);
    let mut last = report.topologies[0].nominal_accuracy + 1e-9;
    for sigma in ["0.01", "0.05", "0.15"] {
        let mean = mean_at(&report, "both", sigma);
        assert!(
            mean < last + 0.05,
            "accuracy should trend down: σ={sigma} gave {mean} after {last}"
        );
        last = mean;
    }
    // At the largest σ the network is near random guessing (10%).
    assert!(
        last < 0.35,
        "σ=0.15 should approach the random-guess floor, got {last}"
    );
}

#[test]
fn phase_shifter_errors_hurt_more_than_beam_splitter_errors() {
    // The paper's Fig. 4 ordering at moderate σ.
    let mut spec = base_spec();
    spec.sweep.modes = vec![
        PerturbTarget::PhaseShiftersOnly,
        PerturbTarget::BeamSplittersOnly,
    ];
    spec.sweep.sigmas = vec![0.05];
    spec.iterations = 15;
    let report = run(&spec);
    let phs = mean_at(&report, "phs_only", "0.05");
    let bes = mean_at(&report, "bes_only", "0.05");
    assert!(
        phs < bes,
        "PhS-only accuracy ({phs}) should be below BeS-only ({bes}) at σ = 0.05"
    );
}

#[test]
fn exp2_zonal_heatmap_shows_zone_dependent_impact() {
    // The Fig. 5 sweep (fig5 is fig4 with `plan = zonal`) on one mesh. The
    // test set is not part of the training fingerprint: a smaller one keeps
    // this quick without retraining.
    let mut spec = base_spec();
    spec.plan = PlanKind::Zonal;
    spec.dataset.n_test = 60;
    spec.iterations = 6;
    spec.zonal.layers = LayerSelect::List(vec![0]);
    spec.zonal.stages = vec![Stage::UMesh];
    let report = run(&spec);
    // The 16×16 Clements U mesh is a 4×8 grid of 2×2 zones, each swept once.
    assert_eq!(report.rows.len(), 4 * 8, "16×16 Clements zone grid");
    let nominal = report.topologies[0].nominal_accuracy;
    let losses: Vec<f64> = report
        .rows
        .iter()
        .map(|r| {
            assert!(
                (0.0..=1.0).contains(&r.mean),
                "accuracy {} out of range",
                r.mean
            );
            (nominal - r.mean) * 100.0
        })
        .collect();
    let lo = losses.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = losses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(hi > lo, "zonal losses should vary across zones");
    // All zones suffer substantially (the paper: losses hover near the
    // global-σ=0.05 figure) — every zone's loss is within 35 pts of the max.
    assert!(hi - lo < 35.0, "zone spread implausibly wide: {lo}–{hi}");
}

#[test]
fn census_of_paper_architecture() {
    let census = ComponentCensus::of(&trained().hw);
    assert_eq!(census.total_mzis(), 687);
    assert_eq!(census.total_phase_shifters(), 1374);
}

#[test]
fn quantization_and_noise_compose() {
    let mut spec = base_spec();
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0];
    spec.effects.quantization_bits = vec![Some(8), Some(2)];
    spec.iterations = 1;
    spec.min_iterations = 1;
    let report = run(&spec);
    let nominal = report.topologies[0].nominal_accuracy;
    let at_bits = |bits: &str| {
        report
            .rows
            .iter()
            .find(|r| r.label("quant_bits") == Some(bits))
            .unwrap()
            .mean
    };
    // 8-bit quantization alone is almost free.
    let fine = at_bits("8");
    assert!(
        nominal - fine < 0.1,
        "8-bit quantization should be nearly free: {fine} vs {nominal}"
    );
    // 2-bit quantization is destructive.
    let coarse = at_bits("2");
    assert!(
        coarse < fine,
        "2-bit ({coarse}) should underperform 8-bit ({fine})"
    );
}
