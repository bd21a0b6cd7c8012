//! Compilation of a [`ScenarioSpec`] into a flat work queue.
//!
//! Each [`WorkItem`] is one fully-resolved sweep point: a concrete
//! [`PerturbationPlan`], concrete [`HardwareEffects`], a stable per-point
//! seed, and the label set that names the point in reports. The queue is
//! the cartesian product of every sweep axis; zonal plans expand to one
//! item per 2×2 zone of every selected unitary multiplier (which is why
//! compilation needs the mapped [`PhotonicNetwork`] — the zone grids
//! depend on the mesh shapes).
//!
//! Queue compilation is independent of *how* the mapped network was
//! obtained: the runner hands it either a freshly synthesized mapping or
//! one restored from the trained-context cache ([`crate::cache`]), and the
//! resulting queue — per-point seeds included — is identical, because
//! seeds derive from the spec seed and the point labels alone (see
//! [`WorkItem::seed`]), never from queue position or mapping identity.

use crate::spec::{LayerSelect, PlanKind, ScenarioSpec};
use spnn_core::monte_carlo::splitmix64;
use spnn_core::{HardwareEffects, PerturbationPlan, PhotonicNetwork, Stage};
use spnn_photonics::thermal::ThermalCrosstalk;
use spnn_photonics::{PerturbTarget, UncertaintySpec};

/// One fully-resolved sweep point.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Report labels, e.g. `[("mode", "both"), ("sigma", "0.05"), …]`.
    /// Every item of a queue carries the same keys in the same order, so
    /// the labels double as CSV columns.
    pub labels: Vec<(&'static str, String)>,
    /// The perturbation plan of this point.
    pub plan: PerturbationPlan,
    /// The deterministic hardware effects of this point.
    pub effects: HardwareEffects,
    /// Base Monte-Carlo seed — derived from the spec seed and the point's
    /// labels, so it is stable under sweep-axis reordering or extension.
    pub seed: u64,
}

/// FNV-1a over the label set: the per-point seed is a pure function of the
/// spec seed and the point's *semantic identity*, not its queue position.
/// Adding values to an axis therefore never reseeds existing points.
///
/// Uses the crate-shared [`crate::fnv`] streaming hasher over the
/// `key=value;` byte stream — byte-for-byte the same hash the original
/// inline implementation computed, so existing per-point seeds are
/// unchanged.
fn label_seed(spec_seed: u64, labels: &[(&'static str, String)]) -> u64 {
    let mut h = crate::fnv::Fnv1a64::with_basis(crate::fnv::FNV_BASIS);
    for (k, v) in labels {
        h.write(k.as_bytes());
        h.write(b"=");
        h.write(v.as_bytes());
        h.write(b";");
    }
    splitmix64(spec_seed ^ h.finish())
}

/// The [`UncertaintySpec`] of targeting `mode` at `sigma`.
fn spec_for_mode(mode: PerturbTarget, sigma: f64) -> UncertaintySpec {
    match mode {
        PerturbTarget::PhaseShiftersOnly => UncertaintySpec::phase_shifters_only(sigma),
        PerturbTarget::BeamSplittersOnly => UncertaintySpec::beam_splitters_only(sigma),
        PerturbTarget::Both => UncertaintySpec::both(sigma),
    }
}

fn effects_grid(spec: &ScenarioSpec) -> Vec<(Vec<(&'static str, String)>, HardwareEffects)> {
    let mut out = Vec::new();
    for &bits in &spec.effects.quantization_bits {
        for &kappa in &spec.effects.thermal_kappa {
            for &loss in &spec.effects.mzi_loss_db {
                let thermal = if kappa > 0.0 {
                    ThermalCrosstalk::new(kappa, spec.effects.thermal_decay_um)
                } else {
                    ThermalCrosstalk::disabled()
                };
                let effects = HardwareEffects {
                    quantization_bits: bits,
                    thermal,
                    mzi_loss_db: loss,
                    ..HardwareEffects::default()
                };
                let labels = vec![
                    (
                        "quant_bits",
                        bits.map_or_else(|| "none".to_string(), |b| b.to_string()),
                    ),
                    ("thermal_kappa", kappa.to_string()),
                    ("loss_db", loss.to_string()),
                ];
                out.push((labels, effects));
            }
        }
    }
    out
}

/// Compiles the spec into the flat queue for one mapped network.
///
/// The queue order is deterministic: effects-grid outer, plan axes inner,
/// in spec order.
pub fn compile(spec: &ScenarioSpec, hardware: &PhotonicNetwork) -> Vec<WorkItem> {
    let mut queue = Vec::new();
    for (fx_labels, effects) in effects_grid(spec) {
        match spec.plan {
            PlanKind::Global | PlanKind::GlobalNoSigma => {
                let include_sigma = spec.plan == PlanKind::Global;
                for &mode in &spec.sweep.modes {
                    for &sigma in &spec.sweep.sigmas {
                        let plan = if sigma == 0.0 {
                            PerturbationPlan::None
                        } else {
                            let uspec = spec_for_mode(mode, sigma);
                            if include_sigma {
                                PerturbationPlan::global(uspec)
                            } else {
                                PerturbationPlan::global_no_sigma(uspec)
                            }
                        };
                        let mut labels = vec![
                            ("plan", spec_plan_label(spec.plan).to_string()),
                            ("mode", crate::spec::mode_name(mode).to_string()),
                            ("sigma", sigma.to_string()),
                        ];
                        labels.extend(fx_labels.iter().cloned());
                        let seed = label_seed(spec.seed, &labels);
                        queue.push(WorkItem {
                            labels,
                            plan,
                            effects: effects.clone(),
                            seed,
                        });
                    }
                }
            }
            PlanKind::Zonal => {
                let layers: Vec<usize> = match &spec.zonal.layers {
                    LayerSelect::All => (0..hardware.n_layers()).collect(),
                    LayerSelect::List(v) => v.clone(),
                };
                for &layer in &layers {
                    assert!(
                        layer < hardware.n_layers(),
                        "zonal layer {layer} out of range ({} layers)",
                        hardware.n_layers()
                    );
                    for &stage in &spec.zonal.stages {
                        let zones = match stage {
                            Stage::UMesh => hardware.layers()[layer].u_zones(),
                            Stage::VMesh => hardware.layers()[layer].v_zones(),
                            Stage::Sigma => unreachable!("validated out"),
                        };
                        for zr in 0..zones.rows() {
                            for zc in 0..zones.cols() {
                                let plan = PerturbationPlan::Zonal {
                                    base: UncertaintySpec::both(spec.zonal.base_sigma),
                                    hot: UncertaintySpec::both(spec.zonal.hot_sigma),
                                    layer,
                                    stage,
                                    zone: (zr, zc),
                                };
                                let mut labels = vec![
                                    ("plan", "zonal".to_string()),
                                    ("layer", layer.to_string()),
                                    ("stage", stage.label().to_string()),
                                    ("zone_row", zr.to_string()),
                                    ("zone_col", zc.to_string()),
                                ];
                                labels.extend(fx_labels.iter().cloned());
                                let seed = label_seed(spec.seed, &labels);
                                queue.push(WorkItem {
                                    labels,
                                    plan,
                                    effects: effects.clone(),
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    queue
}

/// The queue length per mapped network when it is derivable from the
/// spec alone — i.e. without training/mapping the hardware. Global plans
/// are a pure cartesian product (effects grid × modes × sigmas); zonal
/// plans depend on the mapped mesh's zone grids, so they return `None`.
///
/// This is what lets the server reject an over-budget request *before*
/// spending any compute on it: `Some(n)` here times the topology count
/// is exactly `compile(...).len()` summed over topologies.
pub fn static_queue_len(spec: &ScenarioSpec) -> Option<usize> {
    match spec.plan {
        PlanKind::Global | PlanKind::GlobalNoSigma => {
            let effects = spec.effects.quantization_bits.len()
                * spec.effects.thermal_kappa.len()
                * spec.effects.mzi_loss_db.len();
            Some(effects * spec.sweep.modes.len() * spec.sweep.sigmas.len())
        }
        PlanKind::Zonal => None,
    }
}

fn spec_plan_label(plan: PlanKind) -> &'static str {
    match plan {
        PlanKind::Global => "global",
        PlanKind::GlobalNoSigma => "global-no-sigma",
        PlanKind::Zonal => "zonal",
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // specs are built by mutating defaults
mod tests {
    use super::*;
    use spnn_core::MeshTopology;
    use spnn_neural::ComplexNetwork;

    fn tiny_hw() -> PhotonicNetwork {
        let sw = ComplexNetwork::new(&[4, 4, 3], 5);
        PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap()
    }

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::default();
        spec.sweep.modes = vec![PerturbTarget::Both, PerturbTarget::PhaseShiftersOnly];
        spec.sweep.sigmas = vec![0.0, 0.05];
        spec
    }

    #[test]
    fn global_queue_is_the_cartesian_product() {
        let hw = tiny_hw();
        let mut spec = tiny_spec();
        spec.effects.quantization_bits = vec![None, Some(6)];
        let queue = compile(&spec, &hw);
        // 2 quant × 2 modes × 2 sigmas
        assert_eq!(queue.len(), 8);
        // All items share the same label keys in the same order.
        let keys: Vec<&str> = queue[0].labels.iter().map(|(k, _)| *k).collect();
        for item in &queue {
            assert_eq!(
                item.labels.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                keys
            );
        }
    }

    #[test]
    fn sigma_zero_compiles_to_plan_none() {
        let hw = tiny_hw();
        let queue = compile(&tiny_spec(), &hw);
        let zero_points: Vec<_> = queue
            .iter()
            .filter(|i| i.labels.iter().any(|(k, v)| *k == "sigma" && v == "0"))
            .collect();
        assert!(!zero_points.is_empty());
        for p in zero_points {
            assert_eq!(p.plan, PerturbationPlan::None);
        }
    }

    #[test]
    fn per_point_seeds_are_stable_under_axis_extension() {
        let hw = tiny_hw();
        let base = compile(&tiny_spec(), &hw);
        let mut extended_spec = tiny_spec();
        extended_spec.sweep.sigmas = vec![0.0, 0.025, 0.05]; // insert a value
        let extended = compile(&extended_spec, &hw);
        for item in &base {
            let twin = extended
                .iter()
                .find(|i| i.labels == item.labels)
                .expect("original point survives extension");
            assert_eq!(twin.seed, item.seed, "seed moved for {:?}", item.labels);
        }
    }

    #[test]
    fn distinct_points_get_distinct_seeds() {
        let hw = tiny_hw();
        let queue = compile(&tiny_spec(), &hw);
        let mut seeds: Vec<u64> = queue.iter().map(|i| i.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), queue.len());
    }

    #[test]
    fn zonal_queue_covers_every_zone_of_selected_meshes() {
        let hw = tiny_hw();
        let mut spec = ScenarioSpec::default();
        spec.plan = PlanKind::Zonal;
        spec.zonal.stages = vec![Stage::UMesh];
        spec.zonal.layers = LayerSelect::List(vec![0]);
        let queue = compile(&spec, &hw);
        let zones = hw.layers()[0].u_zones();
        assert_eq!(queue.len(), zones.rows() * zones.cols());
        for item in &queue {
            assert!(matches!(item.plan, PerturbationPlan::Zonal { .. }));
        }
    }

    /// The Fig. 5 default sweep: two panels per layer, U then Vᴴ, each
    /// covering its zone grid row-major.
    #[test]
    fn default_zonal_queue_has_u_and_v_panels_per_layer() {
        let hw = tiny_hw();
        let mut spec = ScenarioSpec::default();
        spec.plan = PlanKind::Zonal;
        let mut expected = Vec::new();
        for (l, layer) in hw.layers().iter().enumerate() {
            for (stage, zones) in [
                (Stage::UMesh, layer.u_zones()),
                (Stage::VMesh, layer.v_zones()),
            ] {
                for zr in 0..zones.rows() {
                    for zc in 0..zones.cols() {
                        expected.push((l, stage, (zr, zc)));
                    }
                }
            }
        }
        let got: Vec<_> = compile(&spec, &hw)
            .iter()
            .map(|item| match item.plan {
                PerturbationPlan::Zonal {
                    layer, stage, zone, ..
                } => (layer, stage, zone),
                _ => panic!("non-zonal item {:?}", item.labels),
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn static_queue_len_matches_compile_for_global_plans() {
        let hw = tiny_hw();
        let mut spec = tiny_spec();
        spec.effects.quantization_bits = vec![None, Some(6)];
        spec.effects.mzi_loss_db = vec![0.0, 0.1, 0.2];
        assert_eq!(static_queue_len(&spec), Some(compile(&spec, &hw).len()));

        let mut zonal = ScenarioSpec::default();
        zonal.plan = PlanKind::Zonal;
        zonal.zonal.stages = vec![Stage::UMesh];
        zonal.zonal.layers = LayerSelect::List(vec![0]);
        assert_eq!(static_queue_len(&zonal), None);
    }

    #[test]
    fn thermal_axis_materializes_crosstalk_models() {
        let hw = tiny_hw();
        let mut spec = tiny_spec();
        spec.sweep.modes = vec![PerturbTarget::Both];
        spec.sweep.sigmas = vec![0.0];
        spec.effects.thermal_kappa = vec![0.0, 0.02];
        let queue = compile(&spec, &hw);
        assert_eq!(queue.len(), 2);
        assert!(queue[0].effects.thermal.is_disabled());
        assert!(!queue[1].effects.thermal.is_disabled());
        assert!((queue[1].effects.thermal.coupling() - 0.02).abs() < 1e-15);
    }
}
