//! Architecture table — the paper's §I / §III-D component arithmetic.
//!
//! Checks the headline "1374 tunable-thermal-phase shifters" census of
//! the trained 16-16-16-10 SPNN and the feature-compression trade-off
//! (784-dim full spectrum vs 16-dim central crop; the paper reports
//! 94.12 % → 87.35 %, a 6.77-pt cost). Writes `results/arch_table.csv`
//! and `results/arch_crop_sweep.csv`.
//!
//! Every network comes from the engine's trained-context cache (the
//! on-disk store `spnn run` uses), so the fig4 context is reused when
//! `spnn run --preset fig4` ran first at the same scale.
//!
//! Run with: `cargo run --release --example arch_table` (scale from the
//! usual `SPNN_*` variables)

mod common;

use spnn::engine::cache::{self, ContextCache};
use spnn::engine::presets;
use spnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = presets::fig4(&RunScale::from_env());
    let cache = ContextCache::on_disk(cache::STORE.default_dir());
    let hardware = cache
        .get_or_train(&spec, true)
        .mapping(MeshTopology::Clements, spec.shuffle_seed())?;

    let census = ComponentCensus::of(&hardware);
    println!("Architecture census (16-16-16-10 SPNN, Clements meshes):\n");
    println!("{census}");
    assert_eq!(census.total_phase_shifters(), 1374, "paper headline count");
    println!("matches the paper's 1374 tunable thermal phase shifters ✓\n");

    let mut rows: Vec<String> = census
        .layers
        .iter()
        .map(|l| {
            format!(
                "{},{}x{},{},{},{},{},{}",
                l.layer,
                l.out_dim,
                l.in_dim,
                l.u_mzis,
                l.v_mzis,
                l.sigma_mzis,
                l.mzis(),
                l.phase_shifters()
            )
        })
        .collect();
    rows.push(format!(
        "total,,,,,,{},{}",
        census.total_mzis(),
        census.total_phase_shifters()
    ));
    common::write_csv(
        "arch_table.csv",
        "layer,shape,u_mzis,v_mzis,sigma_mzis,mzis,phase_shifters",
        &rows,
    )?;

    // Feature-compression comparison: central crop k ∈ {2, 4, 6, 8}, the
    // fig4 spec with only the crop and the input width changed. (The full
    // 784-dim run would need a 784×784 mesh — the paper also trains it
    // only in software; the crop sweep shows the same saturation trend.)
    println!("feature-compression trade-off (software accuracy, test set):");
    let mut crop_rows = Vec::new();
    for crop in [2usize, 4, 6, 8] {
        let mut crop_spec = spec.clone();
        crop_spec.name = format!("crop{crop}");
        crop_spec.dataset.crop = crop;
        crop_spec.train.layers[0] = crop * crop;
        let ctx = cache.get_or_train(&crop_spec, true);
        let (features, labels): (Vec<_>, Vec<_>) = crop_spec.test_samples().unzip();
        let acc = ctx.software().accuracy(&features, &labels);
        let dim = crop * crop;
        println!(
            "  crop {crop}x{crop} ({dim:>3} features): {:.2}%",
            acc * 100.0
        );
        crop_rows.push(format!("{crop},{dim},{acc:.6}"));
    }
    println!("  (paper: 28x28 baseline 94.12%, 4x4 crop costs 6.77 pts)");
    common::write_csv(
        "arch_crop_sweep.csv",
        "crop,features,test_accuracy",
        &crop_rows,
    )?;
    Ok(())
}
