//! Perturbation plans — *where* uncertainty strikes — and deterministic
//! hardware effects (quantization, thermal crosstalk, loss).
//!
//! The paper's experiments differ only in targeting:
//!
//! - **EXP 1**: one global [`spnn_photonics::UncertaintySpec`] across every
//!   MZI of every mesh *and* Σ line → [`PerturbationPlan::Global`].
//! - **EXP 2**: σ = 0.1 inside one 2×2 zone of one unitary multiplier,
//!   σ = 0.05 everywhere else, Σ error-free → [`PerturbationPlan::Zonal`].
//! - **Fig. 3 / criticality**: a single faulty MZI, everything else ideal →
//!   [`PerturbationPlan::SingleMzi`].

use rand::Rng;
use spnn_mesh::UnitaryMesh;
use spnn_photonics::phase_shifter::quantize_phase;
use spnn_photonics::spatial::CorrelatedFpv;
use spnn_photonics::thermal::{HeaterPosition, ThermalCrosstalk};
use spnn_photonics::{Mzi, UncertaintySpec};

/// Which hardware stage of a layer a site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The mesh realizing `Vᴴ` (light meets it first).
    VMesh,
    /// The Σ attenuator line.
    Sigma,
    /// The mesh realizing `U`.
    UMesh,
}

impl Stage {
    /// Short label used in CSV output (`"VH"`, `"Sigma"`, `"U"`).
    pub fn label(&self) -> &'static str {
        match self {
            Stage::VMesh => "VH",
            Stage::Sigma => "Sigma",
            Stage::UMesh => "U",
        }
    }
}

/// Address of one MZI in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteRef {
    /// Linear-layer index (0 = input layer).
    pub layer: usize,
    /// Hardware stage within the layer.
    pub stage: Stage,
    /// MZI index within the stage (mesh physical order / Σ diagonal order).
    pub index: usize,
}

impl SiteRef {
    /// Creates a site reference.
    pub fn new(layer: usize, stage: Stage, index: usize) -> Self {
        Self {
            layer,
            stage,
            index,
        }
    }
}

/// A complete description of which uncertainty hits which MZI.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum PerturbationPlan {
    /// No uncertainty anywhere (nominal hardware).
    #[default]
    None,
    /// The same spec on every MZI; `include_sigma` extends it to the Σ
    /// attenuator lines (EXP 1 does; EXP 2-style analyses do not).
    Global {
        /// Uncertainty applied to every targeted MZI.
        spec: UncertaintySpec,
        /// Whether Σ-line MZIs are perturbed too.
        include_sigma: bool,
    },
    /// EXP 2: `hot` inside the selected zone of the selected unitary
    /// multiplier, `base` on every other unitary-mesh MZI, Σ error-free.
    Zonal {
        /// Spec for all non-selected unitary-mesh MZIs.
        base: UncertaintySpec,
        /// Spec for the selected zone.
        hot: UncertaintySpec,
        /// Target layer index.
        layer: usize,
        /// Target stage (must be `VMesh` or `UMesh`).
        stage: Stage,
        /// Target zone coordinates `(row, col)` in the stage's [`spnn_mesh::ZoneGrid`].
        zone: (usize, usize),
    },
    /// A single faulty MZI; everything else ideal (Fig. 3 machinery).
    SingleMzi {
        /// Spec for the faulty device.
        spec: UncertaintySpec,
        /// The faulty device's address.
        site: SiteRef,
    },
}

impl PerturbationPlan {
    /// EXP 1 style: global uncertainty including the Σ lines.
    pub fn global(spec: UncertaintySpec) -> Self {
        PerturbationPlan::Global {
            spec,
            include_sigma: true,
        }
    }

    /// Global uncertainty on the unitary meshes only (Σ error-free).
    pub fn global_no_sigma(spec: UncertaintySpec) -> Self {
        PerturbationPlan::Global {
            spec,
            include_sigma: false,
        }
    }

    /// EXP 2 style zonal plan with the paper's defaults
    /// (base σ = 0.05, hot σ = 0.1, both PhS and BeS).
    pub fn zonal_paper_defaults(layer: usize, stage: Stage, zone: (usize, usize)) -> Self {
        PerturbationPlan::Zonal {
            base: UncertaintySpec::both(0.05),
            hot: UncertaintySpec::both(0.1),
            layer,
            stage,
            zone,
        }
    }

    /// Single-MZI plan.
    pub fn single(spec: UncertaintySpec, site: SiteRef) -> Self {
        PerturbationPlan::SingleMzi { spec, site }
    }

    /// Resolves the uncertainty spec for a site. `zone` is the site's zone
    /// in its own mesh's [`spnn_mesh::ZoneGrid`] (ignored except by zonal plans).
    pub fn spec_for(&self, site: &SiteRef, zone: &(usize, usize)) -> UncertaintySpec {
        match self {
            PerturbationPlan::None => UncertaintySpec::none(),
            PerturbationPlan::Global {
                spec,
                include_sigma,
            } => {
                if site.stage == Stage::Sigma && !include_sigma {
                    UncertaintySpec::none()
                } else {
                    *spec
                }
            }
            PerturbationPlan::Zonal {
                base,
                hot,
                layer,
                stage,
                zone: hot_zone,
            } => {
                if site.stage == Stage::Sigma {
                    UncertaintySpec::none() // paper: Σ assumed error-free
                } else if site.layer == *layer && site.stage == *stage && zone == hot_zone {
                    *hot
                } else {
                    *base
                }
            }
            PerturbationPlan::SingleMzi { spec, site: s } => {
                if site == s {
                    *spec
                } else {
                    UncertaintySpec::none()
                }
            }
        }
    }
}

/// Precomputed thermal-crosstalk phase offsets for one mesh: `(Δθ, Δφ)` per
/// MZI, or `None` when the model is disabled.
#[derive(Debug, Clone, Default)]
pub struct CrosstalkOffsets(Option<Vec<(f64, f64)>>);

impl CrosstalkOffsets {
    /// Offsets for MZI `i`, if crosstalk is enabled.
    pub fn get(&self, i: usize) -> Option<(f64, f64)> {
        self.0.as_ref().map(|v| v[i])
    }
}

/// Deterministic hardware effects applied to every MZI on top of the random
/// uncertainty plan.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareEffects {
    /// Phase-DAC resolution in bits (`None` = continuous, the paper's
    /// baseline assumption).
    pub quantization_bits: Option<u32>,
    /// Mutual-heating crosstalk model (disabled by default).
    pub thermal: ThermalCrosstalk,
    /// Layout-correlated fabrication variation (ref. \[7\] of the paper;
    /// disabled by default — the paper's experiments assume i.i.d. errors).
    pub spatial: Option<CorrelatedFpv>,
    /// Excess insertion loss per MZI in dB (0 by default).
    pub mzi_loss_db: f64,
    /// Heater pitch `(x per mesh column, y per mode)` in µm, used to place
    /// heaters for the crosstalk model.
    pub heater_pitch_um: (f64, f64),
}

impl Default for HardwareEffects {
    /// The paper's baseline: ideal DAC, no crosstalk model, lossless MZIs.
    fn default() -> Self {
        Self {
            quantization_bits: None,
            thermal: ThermalCrosstalk::disabled(),
            spatial: None,
            mzi_loss_db: 0.0,
            heater_pitch_um: (300.0, 80.0),
        }
    }
}

impl HardwareEffects {
    /// Returns effects with only phase quantization enabled.
    pub fn with_quantization(bits: u32) -> Self {
        Self {
            quantization_bits: Some(bits),
            ..Self::default()
        }
    }

    /// Returns effects with only thermal crosstalk enabled.
    pub fn with_thermal(thermal: ThermalCrosstalk) -> Self {
        Self {
            thermal,
            ..Self::default()
        }
    }

    /// Returns effects with only per-MZI insertion loss enabled.
    ///
    /// # Panics
    ///
    /// Panics if `loss_db < 0`.
    pub fn with_loss(loss_db: f64) -> Self {
        assert!(loss_db >= 0.0, "loss must be non-negative");
        Self {
            mzi_loss_db: loss_db,
            ..Self::default()
        }
    }

    /// Returns effects with only layout-correlated FPV enabled.
    pub fn with_spatial(spatial: CorrelatedFpv) -> Self {
        Self {
            spatial: Some(spatial),
            ..Self::default()
        }
    }

    /// Precomputes per-MZI correlated-FPV offsets `(Δθ, Δφ, Δr_in, Δr_out)`
    /// for a mesh from the device positions, or `None` when disabled.
    pub fn mesh_spatial(&self, mesh: &UnitaryMesh) -> Option<Vec<(f64, f64, f64, f64)>> {
        let fpv = self.spatial.as_ref()?;
        let (px, py) = self.heater_pitch_um;
        Some(
            mesh.mzis()
                .iter()
                .map(|site| {
                    let x0 = site.column as f64 * px;
                    let y = site.top as f64 * py;
                    (
                        fpv.phase_offset(x0 + 0.6 * px, y),
                        fpv.phase_offset(x0 + 0.1 * px, y),
                        fpv.reflectance_offset(x0, y),
                        fpv.reflectance_offset(x0 + px, y),
                    )
                })
                .collect(),
        )
    }

    /// Precomputes the crosstalk-induced `(Δθ, Δφ)` for every MZI of a mesh.
    /// Both heaters of every MZI act as aggressors and victims.
    pub fn mesh_crosstalk(&self, mesh: &UnitaryMesh) -> CrosstalkOffsets {
        if self.thermal.is_disabled() || mesh.n_mzis() == 0 {
            return CrosstalkOffsets(None);
        }
        let (px, py) = self.heater_pitch_um;
        let mut phases = Vec::with_capacity(2 * mesh.n_mzis());
        let mut positions = Vec::with_capacity(2 * mesh.n_mzis());
        for site in mesh.mzis() {
            let x0 = site.column as f64 * px;
            let y = site.top as f64 * py;
            // φ heater sits at the MZI input, θ heater mid-device.
            phases.push(site.phi);
            positions.push(HeaterPosition::new(x0 + 0.1 * px, y));
            phases.push(site.theta);
            positions.push(HeaterPosition::new(x0 + 0.6 * px, y));
        }
        let errors = self.thermal.phase_errors(&phases, &positions);
        let offsets = errors
            .chunks(2)
            .map(|pair| (pair[1], pair[0])) // (Δθ, Δφ)
            .collect();
        CrosstalkOffsets(Some(offsets))
    }

    /// The deterministic half of building a site's (possibly faulty)
    /// device: quantizes the commanded phases, then adds the crosstalk
    /// offsets, then the correlated-FPV offsets (in that order), and
    /// records the FPV splitter offsets and the insertion loss. The RNG
    /// half is [`SiteBase::draw`].
    pub fn site_base(
        &self,
        theta: f64,
        phi: f64,
        crosstalk: Option<(f64, f64)>,
        spatial: Option<(f64, f64, f64, f64)>,
    ) -> SiteBase {
        let (mut th, mut ph) = (theta, phi);
        if let Some(bits) = self.quantization_bits {
            th = quantize_phase(th, bits);
            ph = quantize_phase(ph, bits);
        }
        if let Some((dt, dp)) = crosstalk {
            th += dt;
            ph += dp;
        }
        let (dr_in, dr_out) = match spatial {
            Some((dt, dp, dri, dro)) => {
                th += dt;
                ph += dp;
                (dri, dro)
            }
            None => (0.0, 0.0),
        };
        SiteBase {
            theta: th,
            phi: ph,
            dr_in,
            dr_out,
            loss_db: self.mzi_loss_db,
        }
    }
}

/// The deterministic part of one device: its effective phases after
/// quantization, crosstalk and correlated FPV, its FPV splitter offsets,
/// and its insertion loss. Built once per sweep point by
/// [`HardwareEffects::site_base`]; each Monte-Carlo iteration then only
/// draws the random errors ([`SiteBase::draw`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteBase {
    theta: f64,
    phi: f64,
    dr_in: f64,
    dr_out: f64,
    loss_db: f64,
}

impl SiteBase {
    /// The RNG half of building a site's device: draws the random errors
    /// prescribed by `spec` around the base phases, then adds the FPV
    /// splitter offsets and the insertion loss.
    pub fn draw<R: Rng + ?Sized>(&self, spec: &UncertaintySpec, rng: &mut R) -> Mzi {
        let dev = spec
            .perturb_mzi(&Mzi::ideal(self.theta, self.phi), rng)
            .with_splitter_errors(self.dr_in, self.dr_out);
        if self.loss_db > 0.0 {
            dev.with_loss_db(self.loss_db)
        } else {
            dev
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn global_plan_covers_sigma_optionally() {
        let spec = UncertaintySpec::both(0.05);
        let with = PerturbationPlan::global(spec);
        let without = PerturbationPlan::global_no_sigma(spec);
        let sigma_site = SiteRef::new(0, Stage::Sigma, 3);
        let mesh_site = SiteRef::new(1, Stage::UMesh, 7);
        let z = (0, 0);
        assert_eq!(with.spec_for(&sigma_site, &z), spec);
        assert_eq!(without.spec_for(&sigma_site, &z), UncertaintySpec::none());
        assert_eq!(with.spec_for(&mesh_site, &z), spec);
        assert_eq!(without.spec_for(&mesh_site, &z), spec);
    }

    #[test]
    fn zonal_plan_targets_one_zone() {
        let plan = PerturbationPlan::zonal_paper_defaults(1, Stage::UMesh, (2, 3));
        let hot_site = SiteRef::new(1, Stage::UMesh, 0);
        let cold_same_mesh = SiteRef::new(1, Stage::UMesh, 1);
        let other_layer = SiteRef::new(0, Stage::VMesh, 0);
        let sigma = SiteRef::new(1, Stage::Sigma, 0);
        assert_eq!(plan.spec_for(&hot_site, &(2, 3)).sigma_phs(), 0.1);
        assert_eq!(plan.spec_for(&cold_same_mesh, &(2, 4)).sigma_phs(), 0.05);
        assert_eq!(plan.spec_for(&other_layer, &(2, 3)).sigma_phs(), 0.05);
        assert_eq!(plan.spec_for(&sigma, &(2, 3)), UncertaintySpec::none());
    }

    #[test]
    fn single_mzi_plan_isolates_site() {
        let spec = UncertaintySpec::both(0.05);
        let target = SiteRef::new(0, Stage::VMesh, 4);
        let plan = PerturbationPlan::single(spec, target);
        assert_eq!(plan.spec_for(&target, &(0, 0)), spec);
        let other = SiteRef::new(0, Stage::VMesh, 5);
        assert_eq!(plan.spec_for(&other, &(0, 0)), UncertaintySpec::none());
    }

    #[test]
    fn effects_apply_quantization() {
        let fx = HardwareEffects::with_quantization(4);
        let mut rng = StdRng::seed_from_u64(1);
        let dev = fx
            .site_base(0.4, 1.3, None, None)
            .draw(&UncertaintySpec::none(), &mut rng);
        let step = std::f64::consts::TAU / 16.0;
        assert!((dev.theta() / step - (dev.theta() / step).round()).abs() < 1e-10);
        assert!((dev.phi() / step - (dev.phi() / step).round()).abs() < 1e-10);
    }

    #[test]
    fn effects_apply_crosstalk_offsets() {
        let fx = HardwareEffects::default();
        let mut rng = StdRng::seed_from_u64(2);
        let dev = fx
            .site_base(1.0, 2.0, Some((0.1, -0.2)), None)
            .draw(&UncertaintySpec::none(), &mut rng);
        assert!((dev.theta() - 1.1).abs() < 1e-12);
        assert!((dev.phi() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn effects_apply_loss() {
        let fx = HardwareEffects::with_loss(0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let dev = fx
            .site_base(1.0, 0.0, None, None)
            .draw(&UncertaintySpec::none(), &mut rng);
        assert!((dev.loss_db() - 0.5).abs() < 1e-15);
        assert!(!dev.transfer_matrix().is_unitary(1e-6), "lossy device");
    }

    #[test]
    fn mesh_crosstalk_disabled_returns_none() {
        let fx = HardwareEffects::default();
        let mesh = UnitaryMesh::from_physical_order(2, &[(0, 1.0, 0.5)], vec![0.0; 2]);
        assert!(fx.mesh_crosstalk(&mesh).get(0).is_none());
    }

    #[test]
    fn spatial_offsets_are_correlated_across_neighbours() {
        let fx = HardwareEffects::with_spatial(CorrelatedFpv::new(9, 2000.0, 0.05, 0.01));
        let mesh = UnitaryMesh::from_physical_order(
            4,
            &[(0, 1.0, 0.5), (2, 1.5, 0.2), (1, 0.7, 0.9)],
            vec![0.0; 4],
        );
        let offsets = fx.mesh_spatial(&mesh).expect("spatial enabled");
        assert_eq!(offsets.len(), 3);
        // With a 2 mm correlation length, devices a few hundred µm apart see
        // nearly identical offsets — the signature of correlated FPV.
        let (t0, ..) = offsets[0];
        let (t1, ..) = offsets[2];
        assert!(
            (t0 - t1).abs() < 0.05,
            "neighbouring offsets should be close"
        );
        // Disabled model yields None.
        assert!(HardwareEffects::default().mesh_spatial(&mesh).is_none());
    }

    #[test]
    fn apply_folds_spatial_offsets_into_device() {
        let fx = HardwareEffects::default();
        let mut rng = StdRng::seed_from_u64(11);
        let dev = fx
            .site_base(1.0, 2.0, None, Some((0.05, -0.1, 0.02, -0.03)))
            .draw(&UncertaintySpec::none(), &mut rng);
        assert!((dev.theta() - 1.05).abs() < 1e-12);
        assert!((dev.phi() - 1.9).abs() < 1e-12);
        assert!(dev.splitter_in().reflectance() > std::f64::consts::FRAC_1_SQRT_2);
        assert!(dev.splitter_out().reflectance() < std::f64::consts::FRAC_1_SQRT_2);
        assert!(dev.transfer_matrix().is_unitary(1e-10), "still lossless");
    }

    #[test]
    fn mesh_crosstalk_enabled_gives_offsets() {
        let fx = HardwareEffects::with_thermal(ThermalCrosstalk::new(0.02, 100.0));
        let mesh =
            UnitaryMesh::from_physical_order(3, &[(0, 1.5, 0.5), (1, 2.0, 1.0)], vec![0.0; 3]);
        let xt = fx.mesh_crosstalk(&mesh);
        let (dt0, dp0) = xt.get(0).unwrap();
        assert!(dt0 > 0.0 && dp0 > 0.0, "heaters should couple");
        let (dt1, _) = xt.get(1).unwrap();
        assert!(dt1 > 0.0);
    }
}
