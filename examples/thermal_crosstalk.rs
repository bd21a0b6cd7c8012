//! Thermal-crosstalk study: how mutual heating between neighbouring
//! micro-heaters (paper §II-C, ref. \[8\]) corrupts a unitary multiplier —
//! at the physics level (phase offsets) and at the layer level (RVD).
//!
//! Run with: `cargo run --release --example thermal_crosstalk`

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnn::core::HardwareEffects;
use spnn::engine::presets;
use spnn::linalg::random::haar_unitary;
use spnn::mesh::rvd::rvd;
use spnn::photonics::thermal::{HeaterPosition, ThermalCrosstalk};
use spnn::photonics::PhaseShifter;
use spnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Component level: two neighbouring heaters.
    println!("component level: π-driven aggressor next to an idle victim");
    let model = ThermalCrosstalk::new(0.01, 60.0);
    for gap_um in [20.0, 40.0, 80.0, 160.0] {
        let errors = model.phase_errors(
            &[std::f64::consts::PI, 0.0],
            &[
                HeaterPosition::new(0.0, 0.0),
                HeaterPosition::new(0.0, gap_um),
            ],
        );
        println!(
            "  gap {gap_um:>5.0} µm → victim phase error {:.4} rad ({:.2}% of π)",
            errors[1],
            errors[1] / std::f64::consts::PI * 100.0
        );
    }

    // Also show the underlying thermo-optic physics.
    let ps = PhaseShifter::new(std::f64::consts::PI);
    println!(
        "\nthermo-optic phase shifter (l = {:.0} µm): dφ/dT = {:.4} rad/K, ΔT for π = {:.1} K, heater power ≈ {:.1} mW",
        ps.length() * 1e6,
        ps.phase_per_kelvin(),
        ps.temperature_delta_k(),
        ps.heater_power_w() * 1e3
    );

    // Layer level: RVD of a 16×16 unitary under increasing coupling.
    println!("\nlayer level: RVD of a 16×16 Clements mesh vs coupling strength κ");
    let u = haar_unitary(16, &mut StdRng::seed_from_u64(33));
    let mesh = clements::decompose(&u)?;
    let intended = mesh.matrix();
    for kappa in [0.0, 0.001, 0.005, 0.01, 0.02] {
        let fx = if kappa > 0.0 {
            HardwareEffects::with_thermal(ThermalCrosstalk::new(kappa, 60.0))
        } else {
            HardwareEffects::default()
        };
        let offsets = fx.mesh_crosstalk(&mesh);
        let realized = mesh.matrix_with(|i, site| {
            let (dt, dp) = offsets.get(i).unwrap_or((0.0, 0.0));
            Mzi::ideal(site.theta + dt, site.phi + dp)
        });
        println!("  κ = {kappa:<6}: RVD = {:.4}", rvd(&realized, &intended));
    }

    // System level: the built-in crosstalk ablation without random FPVs.
    println!("\nsystem level: trained SPNN accuracy vs κ (deterministic, no random FPV)");
    let mut spec = presets::thermal(&RunScale {
        mc: 1, // deterministic effect → single evaluation
        n_train: 1000,
        n_test: 300,
        epochs: 20,
        seed: 13,
        target_moe: 0.0,
    });
    spec.target_moe = 0.0; // nothing to stop early with one iteration
    spec.sweep.sigmas = vec![0.0];
    spec.effects.thermal_kappa = vec![0.002, 0.005, 0.01, 0.02];
    let report = run_scenario(&spec, &EngineConfig::default())?;
    let nominal = report.topologies[0].nominal_accuracy;
    println!("  κ = 0 (nominal): {:.1}%", nominal * 100.0);
    for row in &report.rows {
        println!(
            "  κ = {:<6}: {:.1}%  ({:+.1} pts)",
            row.label("thermal_kappa").unwrap_or("?"),
            row.mean * 100.0,
            (row.mean - nominal) * 100.0
        );
    }
    println!("\ncrosstalk is deterministic given the tuned phases — a calibration loop could cancel it (ref. [9]), unlike random FPVs.");
    Ok(())
}
