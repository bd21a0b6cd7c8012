//! Built-in scenarios reproducing the paper's figures and the repo's
//! ablations.
//!
//! Each preset returns a full [`ScenarioSpec`]; the [`RunScale`] argument
//! carries the `SPNN_*` environment knobs so the same preset serves quick
//! smoke runs (`RunScale::tiny`) and paper-scale campaigns
//! (`SPNN_MC=1000 SPNN_NTEST=10000`). The checked-in `scenarios/*.scn`
//! files at the workspace root are the serialized form of these presets at
//! default scale — regenerate them with `spnn example <name>`.
//!
//! All presets share the paper's dataset, architecture and seed, so at any
//! one scale they share a single training [`crate::cache::Fingerprint`]:
//! running several of them through one cache (`spnn run a.scn b.scn …`, or
//! [`crate::run_scenario_with`] with one shared cache) trains exactly once.

use crate::spec::{PlanKind, RunScale, ScenarioSpec};
use spnn_core::MeshTopology;
use spnn_photonics::PerturbTarget;

fn base(name: &str, scale: &RunScale) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: name.to_string(),
        seed: scale.seed,
        iterations: scale.mc,
        min_iterations: (scale.mc / 10).max(2).min(scale.mc),
        target_moe: scale.target_moe,
        ..ScenarioSpec::default()
    };
    spec.dataset.n_train = scale.n_train;
    spec.dataset.n_test = scale.n_test;
    spec.train.epochs = scale.epochs;
    spec
}

/// Fig. 4 / EXP 1 — global uncertainty sweep: three targeting modes over
/// the paper's σ grid, Σ lines included.
pub fn fig4(scale: &RunScale) -> ScenarioSpec {
    base("fig4", scale)
}

/// Fig. 5 / EXP 2 — zonal perturbations: every 2×2 zone of every unitary
/// multiplier heated to σ = 0.1 over a σ = 0.05 baseline, Σ error-free.
pub fn fig5(scale: &RunScale) -> ScenarioSpec {
    let mut spec = base("fig5", scale);
    spec.plan = PlanKind::Zonal;
    spec
}

/// Ablation A — Clements vs Reck topology robustness on the EXP 1 "both"
/// sweep.
pub fn mesh(scale: &RunScale) -> ScenarioSpec {
    let mut spec = base("ablation_mesh", scale);
    spec.topologies = vec![MeshTopology::Clements, MeshTopology::Reck];
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0, 0.01, 0.025, 0.05, 0.075, 0.1];
    spec
}

/// Ablation B — phase-DAC quantization: bits × {no noise, the paper's
/// mature-process σ = 0.0334}.
///
/// Adaptive stopping is on by default (target moe 1 %): the σ = 0 points
/// are fully deterministic, so the engine proves a zero margin of error
/// after `min_iterations` and skips the rest of the budget.
pub fn quant(scale: &RunScale) -> ScenarioSpec {
    let mut spec = base("ablation_quant", scale);
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0, 0.0334];
    spec.effects.quantization_bits = vec![
        Some(2),
        Some(3),
        Some(4),
        Some(5),
        Some(6),
        Some(8),
        Some(10),
    ];
    // The seed's binary capped the noisy column at 40 iterations.
    spec.iterations = scale.mc.min(40);
    if spec.target_moe == 0.0 {
        spec.target_moe = 0.01;
    }
    spec.min_iterations = 4.min(spec.iterations);
    spec.round_size = 8;
    spec
}

/// Ablation C — thermal-crosstalk coupling sweep (decay length 60 µm),
/// with and without the residual σ = 0.01 random noise.
///
/// Adaptive stopping is on by default (target moe 1 %), as in
/// [`quant`] — crosstalk without random noise is deterministic.
pub fn thermal(scale: &RunScale) -> ScenarioSpec {
    let mut spec = base("ablation_thermal", scale);
    spec.sweep.modes = vec![PerturbTarget::Both];
    spec.sweep.sigmas = vec![0.0, 0.01];
    spec.effects.thermal_kappa = vec![0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05];
    spec.effects.thermal_decay_um = 60.0;
    spec.iterations = scale.mc.min(40);
    if spec.target_moe == 0.0 {
        spec.target_moe = 0.01;
    }
    spec.min_iterations = 4.min(spec.iterations);
    spec.round_size = 8;
    spec
}

/// Every preset by name (the `spnn example` / `--preset` vocabulary).
pub const PRESET_NAMES: [&str; 5] = ["fig4", "fig5", "mesh", "quant", "thermal"];

/// Looks up a preset builder by name.
pub fn by_name(name: &str, scale: &RunScale) -> Option<ScenarioSpec> {
    match name {
        "fig4" => Some(fig4(scale)),
        "fig5" => Some(fig5(scale)),
        "mesh" => Some(mesh(scale)),
        "quant" => Some(quant(scale)),
        "thermal" => Some(thermal(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates_and_round_trips() {
        let scale = RunScale::tiny();
        for name in PRESET_NAMES {
            let spec = by_name(name, &scale).expect(name);
            assert_eq!(spec.validate(), Ok(()), "{name}");
            let reparsed = ScenarioSpec::parse(&spec.to_text()).expect(name);
            assert_eq!(reparsed, spec, "{name} round trip");
        }
        assert!(by_name("nope", &scale).is_none());
    }

    #[test]
    fn fig4_matches_the_paper_grid() {
        let spec = fig4(&RunScale::tiny());
        assert_eq!(spec.sweep.sigmas, crate::spec::PAPER_SIGMAS.to_vec());
        assert_eq!(spec.sweep.modes.len(), 3);
        assert_eq!(spec.plan, PlanKind::Global);
    }

    #[test]
    fn scale_flows_into_the_spec() {
        let mut scale = RunScale::tiny();
        scale.mc = 123;
        scale.n_test = 77;
        scale.target_moe = 0.02;
        let spec = fig4(&scale);
        assert_eq!(spec.iterations, 123);
        assert_eq!(spec.dataset.n_test, 77);
        assert_eq!(spec.target_moe, 0.02);
    }
}
