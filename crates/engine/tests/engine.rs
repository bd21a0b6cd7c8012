//! Integration tests for the `spnn-engine` subsystem: thread-count
//! determinism, batched-forward parity with the per-sample Monte-Carlo
//! reference, adaptive early-termination correctness, and trained-context
//! cache reuse (bit-identical warm runs, train-once across scenarios,
//! corruption fallback).

mod common;

use spnn_core::{mc_accuracy, HardwareEffects, MeshTopology, PerturbationPlan, PhotonicNetwork};
use spnn_engine::cache::{entry_path, ContextCache, Fingerprint};
use spnn_engine::prelude::*;
use spnn_engine::runner::run_scenario_with;
use spnn_engine::spec::PlanKind;
use spnn_engine::StopRule;
use spnn_linalg::C64;
use spnn_neural::ComplexNetwork;
use spnn_photonics::{PerturbTarget, UncertaintySpec};
use std::path::PathBuf;

fn tiny_network() -> (PhotonicNetwork, Vec<Vec<C64>>, Vec<usize>) {
    let sw = ComplexNetwork::new(&[5, 5, 4], 17);
    let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
    let features: Vec<Vec<C64>> = (0..20)
        .map(|i| {
            (0..5)
                .map(|j| {
                    C64::new(
                        ((i * 3 + j * 7) % 6) as f64 * 0.22 - 0.4,
                        ((i * 5 + j) % 4) as f64 * 0.17,
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
    (hw, features, labels)
}

fn tiny_spec() -> ScenarioSpec {
    let mut spec = presets::fig4(&RunScale::tiny());
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0, 0.05, 0.1];
    spec.iterations = 6;
    spec.min_iterations = 2;
    spec
}

/// The tentpole determinism guarantee: the full per-point sample streams —
/// not just the aggregates — are bit-identical for 1, 2 and 8 worker
/// threads, including with adaptive early termination enabled.
#[test]
fn point_results_are_bit_identical_across_1_2_8_threads() {
    let (hw, xs, ys) = tiny_network();
    let batch = TestBatch::new(&xs, &ys);
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
    let fx = HardwareEffects::default();
    for stop in [StopRule::fixed(24), StopRule::adaptive(48, 8, 0.05)] {
        let reference = run_point(
            &hw,
            &plan,
            &fx,
            &batch,
            &stop,
            8,
            42,
            Some(1),
            KernelProfile::Reference,
        );
        for threads in [2usize, 8] {
            let other = run_point(
                &hw,
                &plan,
                &fx,
                &batch,
                &stop,
                8,
                42,
                Some(threads),
                KernelProfile::Reference,
            );
            assert_eq!(
                reference.samples, other.samples,
                "sample stream diverged at {threads} threads ({stop:?})"
            );
            assert_eq!(reference.mean.to_bits(), other.mean.to_bits());
            assert_eq!(reference.std_dev.to_bits(), other.std_dev.to_bits());
            assert_eq!(reference.stopped_early, other.stopped_early);
        }
    }
}

/// Whole-scenario determinism: identical reports for different thread
/// counts (sharing one training) and across repeated runs (training
/// afresh), on a classifier past chance.
#[test]
fn scenario_reports_are_identical_across_thread_counts() {
    let spec = common::classifying(tiny_spec());
    let cache = ContextCache::in_memory();
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let cfg = EngineConfig {
            threads: Some(threads),
            verbose: false,
            ..EngineConfig::default()
        };
        reports.push(run_scenario_with(&spec, &cfg, &cache).expect("scenario runs"));
    }
    common::assert_classifies(&reports[0]);
    assert_eq!(reports[0], reports[1], "1 vs 2 threads");
    assert_eq!(reports[0], reports[2], "1 vs 8 threads");
    // And a repeat run is a pure function of the spec.
    let again = run_scenario(
        &spec,
        &EngineConfig {
            threads: Some(2),
            verbose: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(reports[0], again);
}

/// The test split is generated in one same-bits part per thread of the
/// run's budget: a 40-sample split cut 14/14/12 over 3 threads, or over
/// every core, renders byte-identical reports to the inline 1-thread path
/// (software and nominal accuracy included).
#[test]
fn test_split_parts_render_byte_identical_reports() {
    // Training past chance, so a misplaced test sample moves the
    // software and nominal accuracy too.
    let mut spec = common::classifying(presets::fig4(&RunScale::tiny()));
    spec.sweep.sigmas = vec![0.0, 0.1];
    let cache = ContextCache::in_memory();
    let run = |threads: Option<usize>| {
        let config = EngineConfig {
            threads,
            verbose: false,
            ..EngineConfig::default()
        };
        run_scenario_with(&spec, &config, &cache).expect("scenario runs")
    };
    let bytes = |report: &EngineReport| (to_csv(report), to_json(report));
    let inline = run(Some(1));
    common::assert_classifies(&inline);
    for threads in [Some(3), None] {
        assert_eq!(bytes(&run(threads)), bytes(&inline), "{threads:?} threads");
    }
}

/// Batched-forward parity: with a fixed-count rule and the same seed, the
/// engine's per-iteration accuracies equal the seed's per-sample
/// `mc_accuracy` bit for bit.
#[test]
fn batched_engine_matches_per_sample_mc_accuracy_bitwise() {
    let (hw, xs, ys) = tiny_network();
    let batch = TestBatch::new(&xs, &ys);
    let fx = HardwareEffects::default();
    let plans = [
        PerturbationPlan::None,
        PerturbationPlan::global(UncertaintySpec::both(0.05)),
        PerturbationPlan::global_no_sigma(UncertaintySpec::phase_shifters_only(0.1)),
        PerturbationPlan::global(UncertaintySpec::beam_splitters_only(0.08)),
    ];
    for (p, plan) in plans.iter().enumerate() {
        let seed = 1000 + p as u64;
        let reference = mc_accuracy(&hw, plan, &fx, &xs, &ys, 12, seed);
        let engine = run_point(
            &hw,
            plan,
            &fx,
            &batch,
            &StopRule::fixed(12),
            5,
            seed,
            None,
            KernelProfile::Reference,
        );
        let ref_bits: Vec<u64> = reference.samples.iter().map(|s| s.to_bits()).collect();
        let eng_bits: Vec<u64> = engine.samples.iter().map(|s| s.to_bits()).collect();
        assert_eq!(ref_bits, eng_bits, "plan {p} diverged");
        assert_eq!(engine.mean.to_bits(), reference.mean.to_bits());
    }
}

/// Parity also holds with deterministic hardware effects switched on
/// (quantization + insertion loss exercise the full `realize` path).
#[test]
fn parity_holds_with_hardware_effects() {
    let (hw, xs, ys) = tiny_network();
    let batch = TestBatch::new(&xs, &ys);
    let fx = HardwareEffects {
        quantization_bits: Some(5),
        mzi_loss_db: 0.05,
        ..HardwareEffects::default()
    };
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.03));
    let reference = mc_accuracy(&hw, &plan, &fx, &xs, &ys, 8, 77);
    let engine = run_point(
        &hw,
        &plan,
        &fx,
        &batch,
        &StopRule::fixed(8),
        3,
        77,
        Some(3),
        KernelProfile::Reference,
    );
    assert_eq!(engine.samples, reference.samples);
}

/// Early termination may only fire once the measured 95 % margin of error
/// is at or below the target, never before `min_iterations`, and a
/// `target_moe` of zero must always run the full budget.
#[test]
fn early_termination_respects_the_margin_of_error_target() {
    let (hw, xs, ys) = tiny_network();
    let batch = TestBatch::new(&xs, &ys);
    let fx = HardwareEffects::default();

    // Sweep several targets; verify the stop invariant for each.
    for (sigma, target) in [(0.05, 0.08), (0.05, 0.03), (0.1, 0.06)] {
        let plan = PerturbationPlan::global(UncertaintySpec::both(sigma));
        let stop = StopRule::adaptive(80, 8, target);
        let r = run_point(
            &hw,
            &plan,
            &fx,
            &batch,
            &stop,
            8,
            9,
            None,
            KernelProfile::Reference,
        );
        assert!(r.samples.len() >= 8, "stopped before min_iterations");
        if r.stopped_early {
            assert!(r.samples.len() < 80);
            assert!(
                r.moe95 <= target,
                "σ={sigma}: stopped early at moe {} > target {target}",
                r.moe95
            );
        } else {
            assert_eq!(r.samples.len(), 80);
        }
        // Invariant regardless of early stop: at every round boundary
        // before the stop, the rule must NOT have been satisfied. Replay
        // the stream to verify the engine stopped at the first legal
        // opportunity (no over- or under-shooting).
        let mut est = Welford::new();
        let mut expected_stop_at = None;
        let full = run_point(
            &hw,
            &plan,
            &fx,
            &batch,
            &StopRule::fixed(80),
            8,
            9,
            None,
            KernelProfile::Reference,
        );
        for (k, &s) in full.samples.iter().enumerate() {
            est.push(s);
            let boundary = (k + 1) % 8 == 0 || k + 1 == 80;
            if boundary && stop.should_stop(&est) {
                expected_stop_at = Some(k + 1);
                break;
            }
        }
        let expected = expected_stop_at.unwrap_or(80);
        assert_eq!(
            r.samples.len(),
            expected,
            "σ={sigma}, target {target}: engine did not stop at the first legal boundary"
        );
    }
}

/// `target_moe = 0` disables adaptivity at the scenario level.
#[test]
fn zero_target_runs_the_full_budget() {
    let spec = tiny_spec();
    assert_eq!(spec.target_moe, 0.0);
    let report = run_scenario(
        &spec,
        &EngineConfig {
            threads: Some(2),
            verbose: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for row in &report.rows {
        assert_eq!(row.iterations, spec.iterations);
        assert!(!row.stopped_early);
    }
}

/// An adaptive scenario never exceeds the cap and spends fewer iterations
/// on easy (zero-variance) points.
#[test]
fn adaptive_scenario_saves_iterations_on_easy_points() {
    let mut spec = tiny_spec();
    spec.iterations = 40;
    spec.min_iterations = 4;
    spec.round_size = 4;
    spec.target_moe = 0.05;
    let report = run_scenario(
        &spec,
        &EngineConfig {
            threads: Some(2),
            verbose: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for row in &report.rows {
        assert!(row.iterations <= 40);
        if row.stopped_early {
            assert!(row.moe95 <= 0.05, "row {:?}", row.labels);
        }
    }
    // σ = 0 has zero variance → must stop at the first legal boundary.
    let zero_row = report
        .rows
        .iter()
        .find(|r| r.label("sigma") == Some("0"))
        .expect("σ=0 row present");
    assert_eq!(zero_row.iterations, 4);
    assert!(zero_row.stopped_early);
}

/// The engine reproduces the Fig. 4 / EXP 1 sweep semantics: a Fig. 4 spec
/// compiled and run through the engine produces one row per (mode, σ) and
/// a monotone-degrading accuracy curve on this easy instance.
#[test]
fn fig4_scenario_shape() {
    let mut spec = presets::fig4(&RunScale::tiny());
    spec.sweep.sigmas = vec![0.0, 0.15];
    spec.iterations = 6;
    spec.min_iterations = 2;
    let report = run_scenario(
        &spec,
        &EngineConfig {
            threads: None,
            verbose: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.rows.len(), 3 * 2, "3 modes × 2 sigmas");
    assert_eq!(report.topologies.len(), 1);
    let nominal = report.topologies[0].nominal_accuracy;
    for mode in ["phs_only", "bes_only", "both"] {
        let at = |sig: &str| {
            report
                .rows
                .iter()
                .find(|r| r.label("mode") == Some(mode) && r.label("sigma") == Some(sig))
                .unwrap()
                .mean
        };
        // The mean of n identical samples differs from the sample only by
        // summation rounding.
        assert!(
            (at("0") - nominal).abs() < 1e-12,
            "σ=0 equals nominal for {mode}"
        );
        assert!(
            at("0.15") <= at("0"),
            "σ=0.15 should not beat σ=0 for {mode}"
        );
    }
}

/// Zonal scenarios cover every zone and report distinct labels.
#[test]
fn fig5_zonal_scenario_runs_end_to_end() {
    let mut spec = presets::fig5(&RunScale::tiny());
    spec.plan = PlanKind::Zonal;
    spec.iterations = 3;
    spec.min_iterations = 2;
    // Keep it small: a 4-4-3-like tiny architecture is not possible for
    // the 10-class dataset, so restrict to one layer and stage instead.
    spec.zonal.layers = spnn_engine::spec::LayerSelect::List(vec![0]);
    spec.zonal.stages = vec![spnn_core::Stage::UMesh];
    let report = run_scenario(
        &spec,
        &EngineConfig {
            threads: Some(2),
            verbose: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(!report.rows.is_empty());
    let mut label_sets: Vec<String> = report
        .rows
        .iter()
        .map(|r| {
            format!(
                "{}-{}-{}",
                r.label("stage").unwrap(),
                r.label("zone_row").unwrap(),
                r.label("zone_col").unwrap()
            )
        })
        .collect();
    let n = label_sets.len();
    label_sets.sort();
    label_sets.dedup();
    assert_eq!(label_sets.len(), n, "every zone appears exactly once");
}

/// A zonal heat map of one mesh has one point per zone of that mesh's grid,
/// and with hardware-made labels the unperturbed network scores 100 %.
#[test]
fn zonal_heatmap_shape_matches_zone_grid() {
    let (hw, xs, ys) = tiny_network();
    let batch = TestBatch::new(&xs, &ys);
    let mut spec = ScenarioSpec {
        plan: PlanKind::Zonal,
        ..ScenarioSpec::default()
    };
    spec.zonal.layers = spnn_engine::spec::LayerSelect::List(vec![0]);
    spec.zonal.stages = vec![spnn_core::Stage::VMesh];
    let queue = spnn_engine::queue::compile(&spec, &hw);
    let zones = hw.layers()[0].v_zones();
    assert_eq!(queue.len(), zones.rows() * zones.cols());
    let mut cells: Vec<(String, String)> = Vec::new();
    for item in &queue {
        let label = |key: &str| {
            item.labels
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(label("stage"), spnn_core::Stage::VMesh.label());
        cells.push((label("zone_row"), label("zone_col")));
        let point = run_point(
            &hw,
            &item.plan,
            &item.effects,
            &batch,
            &StopRule::fixed(3),
            3,
            item.seed,
            Some(1),
            KernelProfile::Reference,
        );
        assert_eq!(point.samples.len(), 3);
        assert!((0.0..=1.0).contains(&point.mean));
    }
    let mut expected: Vec<(String, String)> = Vec::new();
    for zr in 0..zones.rows() {
        for zc in 0..zones.cols() {
            expected.push((zr.to_string(), zc.to_string()));
        }
    }
    assert_eq!(cells, expected);

    let nominal = run_point(
        &hw,
        &PerturbationPlan::None,
        &HardwareEffects::default(),
        &batch,
        &StopRule::fixed(1),
        1,
        0,
        Some(1),
        KernelProfile::Reference,
    );
    assert!((nominal.mean - 1.0).abs() < 1e-12);
}

// ---------------------------------------------------------------------------
// Trained-context cache
// ---------------------------------------------------------------------------

fn cache_tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spnn-engine-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reports must be equal *bitwise*, not just `PartialEq`-equal (which
/// would already fail on any difference, but says nothing about NaN and
/// signed zeros).
fn assert_reports_bit_identical(a: &EngineReport, b: &EngineReport) {
    assert_eq!(a, b, "reports differ structurally");
    for (ta, tb) in a.topologies.iter().zip(&b.topologies) {
        assert_eq!(
            ta.software_accuracy.to_bits(),
            tb.software_accuracy.to_bits()
        );
        assert_eq!(ta.nominal_accuracy.to_bits(), tb.nominal_accuracy.to_bits());
    }
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.mean.to_bits(), rb.mean.to_bits(), "{:?}", ra.labels);
        assert_eq!(ra.std_dev.to_bits(), rb.std_dev.to_bits());
        assert_eq!(ra.moe95.to_bits(), rb.moe95.to_bits());
    }
}

/// The acceptance guarantee: a warm-cache re-run of a scenario skips
/// training entirely and produces a bit-identical report.
#[test]
fn warm_cache_rerun_is_bit_identical_and_skips_training() {
    let dir = cache_tmp_dir("warm-rerun");
    let spec = tiny_spec();
    let config = EngineConfig::default();

    let cold_cache = ContextCache::on_disk(&dir);
    let cold = run_scenario_with(&spec, &config, &cold_cache).expect("cold run");
    assert_eq!(cold_cache.stats().trains, 1);

    // A fresh cache over the same directory models a new process.
    let warm_cache = ContextCache::on_disk(&dir);
    let warm = run_scenario_with(&spec, &config, &warm_cache).expect("warm run");
    let s = warm_cache.stats();
    assert_eq!(s.trains, 0, "warm run must not train");
    assert_eq!(s.disk_hits, 1, "warm run must load from disk");
    assert_reports_bit_identical(&cold, &warm);

    // And both equal the uncached reference — caching is invisible in the
    // results.
    let uncached = run_scenario(&spec, &config).expect("uncached run");
    assert_reports_bit_identical(&cold, &uncached);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two scenarios sharing (dataset, architecture, seed) — e.g. fig4's
/// global sweep and fig5's zonal sweep — train exactly once.
#[test]
fn scenarios_sharing_a_fingerprint_train_once() {
    let scale = RunScale::tiny();
    let mut fig4 = presets::fig4(&scale);
    fig4.sweep.modes = vec![PerturbTarget::Both];
    fig4.sweep.sigmas = vec![0.0, 0.1];
    fig4.iterations = 3;
    fig4.min_iterations = 2;
    let mut fig5 = presets::fig5(&scale);
    fig5.iterations = 3;
    fig5.min_iterations = 2;
    fig5.zonal.layers = spnn_engine::spec::LayerSelect::List(vec![0]);
    fig5.zonal.stages = vec![spnn_core::Stage::UMesh];
    assert_eq!(
        Fingerprint::of_spec(&fig4),
        Fingerprint::of_spec(&fig5),
        "fig4/fig5 share dataset, architecture and seed"
    );

    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let a = run_scenario_with(&fig4, &config, &cache).expect("fig4");
    let b = run_scenario_with(&fig5, &config, &cache).expect("fig5");
    let s = cache.stats();
    assert_eq!(s.trains, 1, "second scenario must reuse the context");
    assert_eq!(s.mem_hits, 1);

    // Reuse must not change results relative to isolated runs.
    assert_reports_bit_identical(&a, &run_scenario(&fig4, &config).unwrap());
    assert_reports_bit_identical(&b, &run_scenario(&fig5, &config).unwrap());
}

/// Several scenarios run through one shared cache train once and match
/// their isolated runs.
#[test]
fn run_scenarios_matches_individual_runs() {
    let mut a = tiny_spec();
    a.name = "a".into();
    let mut b = tiny_spec();
    b.name = "b".into();
    b.sweep.sigmas = vec![0.0, 0.08];
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let batch: Vec<EngineReport> = [&a, &b]
        .into_iter()
        .map(|spec| run_scenario_with(spec, &config, &cache).expect("batch run"))
        .collect();
    assert_eq!(
        cache.stats().trains,
        1,
        "one training fingerprint trains once"
    );
    assert_eq!(batch[0].scenario, "a");
    assert_eq!(batch[1].scenario, "b");
    assert_reports_bit_identical(&batch[0], &run_scenario(&a, &config).unwrap());
    assert_reports_bit_identical(&batch[1], &run_scenario(&b, &config).unwrap());
}

/// A corrupted cache file must fall back to retraining and still produce
/// the bit-identical report.
#[test]
fn corrupted_cache_entry_falls_back_to_identical_results() {
    let dir = cache_tmp_dir("corrupt-report");
    let spec = tiny_spec();
    let config = EngineConfig::default();

    let cold_cache = ContextCache::on_disk(&dir);
    let cold = run_scenario_with(&spec, &config, &cold_cache).expect("cold run");
    let path = entry_path(&dir, &Fingerprint::of_spec(&spec));
    let mut bytes = std::fs::read(&path).expect("entry written");
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x5A;
    std::fs::write(&path, &bytes).unwrap();

    let warm_cache = ContextCache::on_disk(&dir);
    let warm = run_scenario_with(&spec, &config, &warm_cache).expect("fallback run");
    let s = warm_cache.stats();
    assert_eq!(s.disk_hits, 0, "corrupt entry must not load");
    assert_eq!(s.trains, 1, "fallback must retrain");
    assert_reports_bit_identical(&cold, &warm);

    // The retrain overwrote the corrupt entry with a good one.
    let healed = ContextCache::on_disk(&dir);
    let again = run_scenario_with(&spec, &config, &healed).expect("healed run");
    assert_eq!(healed.stats().disk_hits, 1, "entry was healed");
    assert_reports_bit_identical(&cold, &again);
    let _ = std::fs::remove_dir_all(&dir);
}
