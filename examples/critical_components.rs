//! Critical-component identification — the paper's design-time framework.
//!
//! Part 1 reproduces Fig. 3: four random 5×5 unitaries with a faulty MZI
//! at a time (σ_PhS = σ_BeS = 0.05), the average RVD per MZI over
//! `max(SPNN_MC, 100)` Monte-Carlo iterations (paper scale: 1000),
//! written to `results/fig3_rvd.csv`. Part 2 applies the same machinery
//! to a *trained* SPNN layer — the fig4 network from the engine's
//! trained-context cache — ranking its most uncertainty-critical MZIs
//! before "fabrication".
//!
//! Run with: `cargo run --release --example critical_components` (scale
//! from the usual `SPNN_*` variables)

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnn::core::criticality::{analyze_mesh, rank_by_rvd};
use spnn::engine::cache::{self, ContextCache};
use spnn::engine::presets;
use spnn::linalg::random::haar_unitary;
use spnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = RunScale::from_env();
    let errors = UncertaintySpec::both(0.05);

    // Part 1 — Fig. 3: four random 5×5 unitaries, one faulty MZI at a time.
    let iterations = scale.mc.max(100);
    println!(
        "Fig. 3 reproduction: per-MZI average RVD, {iterations} MC iterations, σ_PhS = σ_BeS = 0.05"
    );
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xF163);
    for m in 0..4 {
        let u = haar_unitary(5, &mut rng);
        let mesh = clements::decompose(&u)?;
        let report = analyze_mesh(&mesh, &errors, iterations, scale.seed ^ m);
        print!("  matrix {m}: ");
        for (i, v) in report.rvd_profile.iter().enumerate() {
            print!("#{:<3}{v:.2} ", i + 1);
            rows.push(format!("{m},{},{v:.6}", i + 1));
        }
        println!();
        let (min, max) = report.rvd_range;
        println!(
            "    most critical MZI: #{} (RVD {max:.2}); spread {min:.2}–{max:.2} ({:.2}x); phase-load proxy agreement {:+.2}",
            report.most_critical + 1,
            max / min,
            report.proxy_agreement
        );
    }
    common::write_csv("fig3_rvd.csv", "matrix,mzi,avg_rvd", &rows)?;
    println!("  paper observation: significant RVD variation across MZIs and across matrices");

    // Part 2 — the same analysis on a trained layer of the real SPNN.
    let spec = presets::fig4(&scale);
    let hardware = ContextCache::on_disk(cache::STORE.default_dir())
        .get_or_train(&spec, true)
        .mapping(MeshTopology::Clements, spec.shuffle_seed())?;
    let u_mesh = hardware.layers()[0].u_mesh();
    let top = rank_by_rvd(u_mesh, &errors, 50, 11);
    println!(
        "\nU_L0 mesh of the trained fig4 SPNN: {} MZIs; ten most critical (index, avg RVD):",
        u_mesh.n_mzis()
    );
    for (idx, score) in top.iter().take(10) {
        let site = &u_mesh.mzis()[*idx];
        println!(
            "  MZI {idx:>3}  column {:>2}, modes ({},{})  θ={:.2} φ={:.2}  RVD {score:.3}",
            site.column,
            site.top,
            site.top + 1,
            site.theta,
            site.phi
        );
    }
    println!("\nthe paper: such pre-fabrication analysis lets designers harden or recalibrate exactly these devices.");
    Ok(())
}
