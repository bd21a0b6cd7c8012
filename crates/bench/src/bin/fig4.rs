//! Fig. 4 / EXP 1 — SPNN accuracy under global uncertainties, on the
//! `spnn-engine` batched Monte-Carlo engine.
//!
//! The sweep itself is the engine's built-in `fig4` scenario (identical to
//! `scenarios/fig4.scn`; also runnable as `spnn run --preset fig4`): σ ∈
//! [0, 0.15] × {PhS-only, BeS-only, both}. This binary only adds the
//! paper-shape commentary (the spec is walked through in
//! `docs/scenario-format.md`, worked example 1):
//!
//! - accuracy collapses below 10 % (random guess) near σ ≈ 0.075,
//! - the loss at σ_PhS = σ_BeS = 0.05 is 69.98 %,
//! - PhS uncertainties dominate BeS uncertainties.
//!
//! Usage: `cargo run --release -p spnn-bench --bin fig4`
//! (paper scale: `SPNN_MC=1000 SPNN_NTEST=10000`; add
//! `SPNN_TARGET_MOE=0.01` for adaptive early termination)

use spnn_bench::write_engine_csv;
use spnn_engine::prelude::*;

fn main() {
    let scale = RunScale::from_env();
    let spec = presets::fig4(&scale);
    let report = run_scenario(&spec, &EngineConfig::default()).expect("fig4 scenario");
    let nominal = report.topologies[0].nominal_accuracy;

    println!(
        "Fig. 4 / EXP 1 reproduction ({} MC iterations/point cap, {} test images)",
        spec.iterations, spec.dataset.n_test
    );
    println!("nominal accuracy: {:.2}%", nominal * 100.0);
    println!(
        "{:<10} {:>8} {:>10} {:>9} {:>9} {:>7}",
        "mode", "sigma", "accuracy%", "std%", "moe95%", "iters"
    );
    for row in &report.rows {
        println!(
            "{:<10} {:>8.3} {:>10.2} {:>9.2} {:>9.2} {:>7}",
            row.label("mode").unwrap_or("?"),
            row.label_f64("sigma").unwrap_or(f64::NAN),
            row.mean * 100.0,
            row.std_dev * 100.0,
            row.moe95 * 100.0,
            row.iterations,
        );
    }
    write_engine_csv("fig4_exp1.csv", &report);

    // Paper-shape checks.
    let acc_at = |mode: &str, sigma: f64| -> f64 {
        report
            .rows
            .iter()
            .find(|r| {
                r.label("mode") == Some(mode)
                    && (r.label_f64("sigma").unwrap_or(f64::NAN) - sigma).abs() < 1e-12
            })
            .map(|r| r.mean)
            .unwrap_or(f64::NAN)
    };
    let both_005 = acc_at("both", 0.05);
    let loss_005 = (nominal - both_005) * 100.0;
    println!("\nshape checks vs. paper:");
    println!("  loss at σ = 0.05 (both): {loss_005:.2} pts   (paper: 69.98)");
    let both_0075 = acc_at("both", 0.075);
    println!(
        "  accuracy at σ = 0.075 (both): {:.2}%   (paper: < 10%, random guess)",
        both_0075 * 100.0
    );
    let phs_005 = acc_at("phs_only", 0.05);
    let bes_005 = acc_at("bes_only", 0.05);
    println!(
        "  PhS-only {:.2}% vs BeS-only {:.2}% at σ = 0.05   (paper: PhS impact > BeS impact ⇒ PhS-only accuracy lower)",
        phs_005 * 100.0,
        bes_005 * 100.0
    );
}
