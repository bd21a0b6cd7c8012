//! Quickstart: train a small SPNN, map it to photonic hardware, and measure
//! how fabrication-process variations degrade its accuracy — the built-in
//! Fig. 4 scenario, narrowed to the σ_PhS = σ_BeS curve.
//!
//! Run with: `cargo run --release --example quickstart`

use spnn::engine::presets;
use spnn::engine::runner::run_scenario_with;
use spnn::engine::ContextCache;
use spnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The scenario covers the whole pipeline: the synthetic digit dataset
    // with the paper's 4×4-crop shifted-FFT features (16 per image), the
    // 16-16-16-10 complex network trained in software, its SVD + Clements
    // mapping onto MZI meshes, and 20 Monte-Carlo iterations per σ.
    let mut spec = presets::fig4(&RunScale {
        mc: 20,
        n_train: 1500,
        n_test: 400,
        epochs: 30,
        seed: 7,
        target_moe: 0.0,
    });
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.01, 0.025, 0.05, 0.1];

    println!("training 16-16-16-10 complex network and mapping it onto MZI meshes…");
    let cache = ContextCache::in_memory();
    let report = run_scenario_with(&spec, &EngineConfig::default(), &cache)?;

    // The trained context stays in the cache for inspection.
    let ctx = cache.get_or_train(&spec, false);
    let summary = &report.topologies[0];
    println!("  train accuracy: {:.1}%", ctx.train_accuracy() * 100.0);
    println!(
        "  test accuracy:  {:.1}%",
        summary.software_accuracy * 100.0
    );
    let census = ComponentCensus::of(&*ctx.mapping(MeshTopology::Clements, None)?);
    println!(
        "photonic mapping: {} MZIs, {} tunable phase shifters",
        census.total_mzis(),
        census.total_phase_shifters()
    );
    let nominal = summary.nominal_accuracy;
    println!("  nominal hardware accuracy: {:.1}%", nominal * 100.0);

    // The paper's uncertainties and the accuracy collapse they cause.
    println!(
        "\naccuracy under global uncertainties ({} Monte-Carlo iterations each):",
        spec.iterations
    );
    for row in &report.rows {
        println!(
            "  σ_PhS = σ_BeS = {:<5}: {:5.1}%  ({:+.1} pts, ±{:.1})",
            row.label("sigma").unwrap_or("?"),
            row.mean * 100.0,
            (row.mean - nominal) * 100.0,
            row.moe95 * 100.0
        );
    }
    println!("\nthe paper's headline: at σ = 0.05 a 16-16-16-10 SPNN loses ~70 pts of accuracy.");
    Ok(())
}
