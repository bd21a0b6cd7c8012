//! Ablation D — post-fabrication calibration (the paper's §II-C
//! compensation discussion, quantified).
//!
//! Fabricates each unitary mesh of the trained fig4 SPNN with both PhS
//! and BeS errors, then re-tunes every θ/φ by exact-coordinate descent
//! while the faulty splitters stay fixed. Reports RVD recovery per mesh,
//! the tuning cost (number of phase updates — the scaling concern the
//! paper raises), and end-to-end accuracy before/after calibration, and
//! writes `results/ablation_calibration.csv`.
//!
//! The network and its Clements mapping come from the engine's
//! trained-context cache (the on-disk store `spnn run` uses).
//!
//! Run with: `cargo run --release --example ablation_calibration` (scale
//! from the usual `SPNN_*` variables)

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnn::core::calibration::{
    calibrate_mesh, calibrate_network_accuracy, CalibrationConfig, FabricatedMesh,
};
use spnn::engine::cache::{self, ContextCache};
use spnn::engine::presets;
use spnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = presets::fig4(&RunScale::from_env());
    let hardware = ContextCache::on_disk(cache::STORE.default_dir())
        .get_or_train(&spec, true)
        .mapping(MeshTopology::Clements, spec.shuffle_seed())?;

    println!("Ablation D: post-fabrication phase calibration (σ_PhS = σ_BeS = 0.05)");
    let errors = UncertaintySpec::both(0.05);
    let cal_cfg = CalibrationConfig {
        max_sweeps: 60,
        ..CalibrationConfig::default()
    };

    // Per-mesh RVD recovery on the first layer's multipliers.
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>14}",
        "mesh", "RVD before", "RVD after", "recovery%", "phase updates"
    );
    for (name, mesh) in [
        ("U_L0", hardware.layers()[0].u_mesh()),
        ("VH_L0", hardware.layers()[0].v_mesh()),
        ("U_L2", hardware.layers()[2].u_mesh()),
    ] {
        let intended = mesh.matrix();
        let mut fab =
            FabricatedMesh::fabricate(mesh, &errors, &mut StdRng::seed_from_u64(spec.seed ^ 0xCA1));
        let outcome = calibrate_mesh(&mut fab, &intended, &cal_cfg);
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>10.1} {:>14}",
            name,
            outcome.rvd_before,
            outcome.rvd_after,
            outcome.recovery() * 100.0,
            outcome.phase_updates
        );
        rows.push(format!(
            "{name},{:.6},{:.6},{:.6},{}",
            outcome.rvd_before,
            outcome.rvd_after,
            outcome.recovery(),
            outcome.phase_updates
        ));
    }

    // End-to-end accuracy recovery on the first 400 test images (speed).
    let (xs, ys): (Vec<_>, Vec<_>) = spec.test_samples().take(400).unzip();
    let (before, after, nominal) = calibrate_network_accuracy(
        &hardware,
        &errors,
        &xs,
        &ys,
        &CalibrationConfig {
            max_sweeps: 30,
            ..CalibrationConfig::default()
        },
        &mut StdRng::seed_from_u64(spec.seed ^ 0xCA2),
    );
    println!("\nend-to-end accuracy ({} test images):", xs.len());
    println!("  nominal (no errors):        {:.1}%", nominal * 100.0);
    println!("  fabricated, uncalibrated:   {:.1}%", before * 100.0);
    println!("  fabricated, calibrated:     {:.1}%", after * 100.0);
    rows.push(format!("network,{before:.6},{after:.6},{nominal:.6},"));
    common::write_csv(
        "ablation_calibration.csv",
        "mesh,rvd_before_or_acc_before,rvd_after_or_acc_after,recovery_or_nominal,phase_updates",
        &rows,
    )?;
    println!("\nthe paper's point: calibration works but requires tuning every MZI (counts above), and residual error from fixed splitters remains — motivating design-time criticality analysis instead.");
    Ok(())
}
