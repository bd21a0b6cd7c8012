//! Finite phase-encoding precision: how many DAC bits does an SPNN need?
//!
//! The paper's introduction lists "the finite-encoding precision on phase
//! settings" among the roadblocks to SPNN scaling. This example quantizes
//! every commanded phase to a b-bit code over [0, 2π) and measures the
//! accuracy — first alone, then on top of mature-process random noise
//! (σ_PhS ≈ 0.0334, i.e. the paper's 0.21 rad figure).
//!
//! Run with: `cargo run --release --example phase_quantization`

use spnn::engine::presets;
use spnn::photonics::phase_shifter::quantize_phase;
use spnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Device level: quantization error magnitude.
    println!("device level: worst-case phase error per DAC resolution");
    for bits in [2u32, 4, 6, 8] {
        let step = std::f64::consts::TAU / (1u64 << bits) as f64;
        println!(
            "  {bits} bits → step {:.4} rad, worst-case error {:.4} rad ({:.2}% of 2π)",
            step,
            step / 2.0,
            step / 2.0 / std::f64::consts::TAU * 100.0
        );
        // Sanity: quantizer respects the bound.
        let q = quantize_phase(1.234, bits);
        assert!((q - 1.234).abs() <= step / 2.0 + 1e-12);
    }

    // System level: the built-in quantization ablation, narrowed to this
    // example's bit counts. Its σ = 0 column is deterministic, so the
    // preset's adaptive rule stops those points after a few iterations.
    println!("\ntraining SPNN…");
    let mut spec = presets::quant(&RunScale {
        mc: 12,
        n_train: 1500,
        n_test: 400,
        epochs: 25,
        seed: 23,
        target_moe: 0.0,
    });
    spec.effects.quantization_bits = [2u32, 3, 4, 5, 6, 8].map(Some).to_vec();
    let report = run_scenario(&spec, &EngineConfig::default())?;
    let nominal = report.topologies[0].nominal_accuracy;
    println!(
        "nominal accuracy (continuous phases): {:.1}%\n",
        nominal * 100.0
    );

    // The preset's noisy column is the mature-process σ = 0.0334.
    let accuracy = |bits: &str, sigma: &str| {
        report
            .rows
            .iter()
            .find(|r| r.label("quant_bits") == Some(bits) && r.label("sigma") == Some(sigma))
            .map_or(f64::NAN, |r| r.mean)
    };
    println!(
        "{:>6} {:>16} {:>26}",
        "bits", "quantized only", "quantized + σ = 0.0334"
    );
    for bits in ["2", "3", "4", "5", "6", "8"] {
        println!(
            "{bits:>6} {:>15.1}% {:>25.1}%",
            accuracy(bits, "0") * 100.0,
            accuracy(bits, "0.0334") * 100.0
        );
    }
    println!("\nonce the quantization step sinks below the analog noise floor, more bits stop paying off — precision budgets should target the process σ, not zero.");
    Ok(())
}
