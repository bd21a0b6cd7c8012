//! Drive the `spnn-engine` Monte-Carlo engine from code: build a
//! scenario, run it, and read the sweep back — the programmatic
//! equivalent of `spnn run scenarios/fig4.scn` — ending with EXP 1 in
//! miniature: the three Fig. 4 curves (PhS-only, BeS-only, both) as an
//! ASCII chart.
//!
//! Run with: `cargo run --release --example scenario_engine`

use spnn::prelude::*;

fn main() {
    // Start from the built-in Fig. 4 preset at a quick demo scale, then
    // customize it like any other value — the spec is plain data.
    let mut spec = spnn::engine::presets::fig4(&RunScale {
        mc: 40,
        n_train: 600,
        n_test: 200,
        epochs: 10,
        seed: 7,
        target_moe: 0.02, // adaptive: stop a point once its 95 % MoE ≤ 2 %
    });
    spec.sweep.sigmas = vec![0.0, 0.01, 0.025, 0.05, 0.075, 0.1, 0.15];

    // The same spec serializes to the `.scn` text format:
    println!("--- scenario file ---\n{}", spec.to_text());

    let report = run_scenario(&spec, &EngineConfig::default()).expect("scenario runs");

    let t = &report.topologies[0];
    println!(
        "nominal accuracy {:.2}% (software {:.2}%)",
        t.nominal_accuracy * 100.0,
        t.software_accuracy * 100.0
    );
    println!(
        "{:<10} {:>7} {:>10} {:>8} {:>7} {:>6}",
        "mode", "sigma", "accuracy%", "moe95%", "iters", "early"
    );
    for row in &report.rows {
        println!(
            "{:<10} {:>7} {:>10.2} {:>8.2} {:>7} {:>6}",
            row.label("mode").unwrap_or("?"),
            row.label("sigma").unwrap_or("?"),
            row.mean * 100.0,
            row.moe95 * 100.0,
            row.iterations,
            row.stopped_early,
        );
    }

    // ASCII rendition of Fig. 4.
    println!("\naccuracy (%) vs σ — the three curves of Fig. 4:");
    println!(
        "{:>7} {:>10} {:>10} {:>10}",
        "σ", "PhS-only", "BeS-only", "both"
    );
    for &sigma in &spec.sweep.sigmas {
        let find = |mode: &str| {
            report
                .rows
                .iter()
                .find(|r| r.label("mode") == Some(mode) && r.label_f64("sigma") == Some(sigma))
                .map_or(f64::NAN, |r| r.mean * 100.0)
        };
        let (phs, bes, both) = (find("phs_only"), find("bes_only"), find("both"));
        let bar_len = (both / 2.0).round().max(0.0) as usize;
        println!(
            "{sigma:>7.3} {phs:>10.1} {bes:>10.1} {both:>10.1}  |{}",
            "█".repeat(bar_len)
        );
    }
    println!("expected shape (paper Fig. 4): steep decline, saturation near 10%");
    println!("(random guess) around σ ≈ 0.075, and PhS curves below BeS curves.");

    println!(
        "\ntotal Monte-Carlo iterations: {} (cap would be {})",
        report.total_iterations(),
        spec.iterations * report.rows.len()
    );
    println!("\n--- CSV ---\n{}", spnn::engine::to_csv(&report));
}
