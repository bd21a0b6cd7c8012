//! Fig. 2 — device-level relative deviation surfaces.
//!
//! Regenerates the four panels of Fig. 2: `|ΔTᵢⱼ|/|Tᵢⱼ|` over a
//! `(θ, φ) ∈ [0, 2π)²` grid for a common relative phase error `K = 0.05`
//! (paper Eq. 4). Writes one CSV per panel (`results/fig2_t11.csv` …
//! `fig2_t22.csv`) and prints a monotonicity summary that checks the
//! paper's observation: "the relative deviation increases monotonically as
//! θ and φ increase". A single MZI needs no trained network.
//!
//! Run with: `cargo run --release --example fig2`

mod common;

use spnn::photonics::mzi::relative_deviation;
use std::f64::consts::TAU;

const K: f64 = 0.05;
const GRID: usize = 65;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let panels = [
        ("fig2_t11.csv", 0usize, 0usize),
        ("fig2_t12.csv", 0, 1),
        ("fig2_t21.csv", 1, 0),
        ("fig2_t22.csv", 1, 1),
    ];

    // Interior grid: exact 0 and 2π are the transfer-matrix zeros where the
    // relative deviation genuinely diverges (documented in the paper's Fig. 2
    // by the plotted range).
    let coords: Vec<f64> = (1..GRID).map(|i| TAU * i as f64 / GRID as f64).collect();

    let mut surfaces = vec![vec![vec![0.0f64; coords.len()]; coords.len()]; 4];
    for (ti, &theta) in coords.iter().enumerate() {
        for (pi, &phi) in coords.iter().enumerate() {
            let rd = relative_deviation(theta, phi, K, 1e-9);
            for (panel, &(_, r, c)) in panels.iter().enumerate() {
                surfaces[panel][ti][pi] = rd[r][c];
            }
        }
    }

    for ((name, _, _), surface) in panels.iter().zip(&surfaces) {
        let mut rows = Vec::new();
        for (ti, &theta) in coords.iter().enumerate() {
            for (pi, &phi) in coords.iter().enumerate() {
                rows.push(format!("{theta:.6},{phi:.6},{:.8}", surface[ti][pi]));
            }
        }
        common::write_csv(name, "theta,phi,relative_deviation", &rows)?;
    }

    // Paper check 1: max/min of each surface (compare against Fig. 2 ranges).
    println!(
        "Fig. 2 reproduction (K = {K}), grid {}x{} over (0, 2π)²:",
        GRID - 1,
        GRID - 1
    );
    for ((name, r, c), surface) in panels.iter().zip(&surfaces) {
        let finite = surface.iter().flatten().copied().filter(|v| v.is_finite());
        let min = finite.clone().fold(f64::INFINITY, f64::min);
        let max = finite.fold(0.0, f64::max);
        println!(
            "  T{}{}  ({name}): min {min:.3}, max {max:.3}",
            r + 1,
            c + 1
        );
    }

    // Paper check 2: monotonic growth along the diagonal θ = φ in the bulk
    // region (up to the first transfer-matrix zero).
    let mut increasing = 0;
    let mut total = 0;
    let diag_limit = coords.iter().take_while(|&&t| t < 0.9 * TAU).count();
    for surface in &surfaces {
        for i in 1..diag_limit {
            let prev = surface[i - 1][i - 1];
            let cur = surface[i][i];
            if prev.is_finite() && cur.is_finite() {
                total += 1;
                if cur >= prev - 1e-9 {
                    increasing += 1;
                }
            }
        }
    }
    let pct = 100.0 * increasing as f64 / total as f64;
    println!(
        "  monotone-increase check along θ = φ diagonal: {increasing}/{total} steps ({pct:.1}%)"
    );
    println!("  paper observation: deviation grows with θ, φ ⇒ MZIs with larger tuned phases are more susceptible");
    Ok(())
}
