//! The photonic realization of a trained network: per-layer
//! `Vᴴ mesh → Σ line → U mesh` (paper Fig. 1 and §II-B).
//!
//! Construction performs, for every trained weight matrix `M`:
//!
//! 1. complex SVD `M = U·Σ·Vᴴ`,
//! 2. optional seeded shuffle of the singular-value order (the paper notes
//!    "the singular values arranged in random order" for EXP 2 — the order
//!    permutes the columns of `U` and `V` and therefore redistributes tuned
//!    phases across the meshes),
//! 3. Clements (or Reck) decomposition of `U` and `Vᴴ`,
//! 4. a [`DiagonalLine`] for `Σ` with global gain `β`.
//!
//! Inference then alternates realized layer matrices with the same
//! activations used in software training (`spnn-neural`), so the *only*
//! difference between software and hardware accuracy is the photonic
//! hardware model.

use crate::perturbation::{HardwareEffects, PerturbationPlan, SiteBase, SiteRef, Stage};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spnn_linalg::svd::svd;
use spnn_linalg::{CMatrix, LinalgError, C64};
use spnn_mesh::{clements, reck, DiagonalLine, MeshError, UnitaryMesh, ZoneGrid};
use spnn_neural::activation::{intensity, mod_softplus};
use spnn_neural::loss::argmax;
use spnn_neural::ComplexNetwork;
use spnn_photonics::{Mzi, UncertaintySpec};
use std::error::Error;
use std::fmt;

/// Mesh topology used to realize the unitary multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeshTopology {
    /// Clements rectangular design (the paper's choice).
    #[default]
    Clements,
    /// Reck triangular design (topology-robustness baseline).
    Reck,
}

/// Errors raised while mapping a network onto photonic hardware.
#[derive(Debug)]
#[non_exhaustive]
pub enum SpnnError {
    /// SVD failure (should not occur for finite weights).
    Linalg(LinalgError),
    /// Mesh synthesis failure (should not occur for SVD factors).
    Mesh(MeshError),
}

impl fmt::Display for SpnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpnnError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            SpnnError::Mesh(e) => write!(f, "mesh synthesis error: {e}"),
        }
    }
}

impl Error for SpnnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpnnError::Linalg(e) => Some(e),
            SpnnError::Mesh(e) => Some(e),
        }
    }
}

impl From<LinalgError> for SpnnError {
    fn from(e: LinalgError) -> Self {
        SpnnError::Linalg(e)
    }
}

impl From<MeshError> for SpnnError {
    fn from(e: MeshError) -> Self {
        SpnnError::Mesh(e)
    }
}

/// One photonic linear layer: `M = U·Σ·Vᴴ` in hardware form.
#[derive(Debug, Clone)]
pub struct PhotonicLayer {
    v_mesh: UnitaryMesh,
    sigma: DiagonalLine,
    u_mesh: UnitaryMesh,
    v_zones: ZoneGrid,
    u_zones: ZoneGrid,
    intended: CMatrix,
}

impl PhotonicLayer {
    /// Maps one weight matrix onto hardware.
    fn from_weight(
        weight: &CMatrix,
        topology: MeshTopology,
        shuffle_rng: Option<&mut StdRng>,
    ) -> Result<Self, SpnnError> {
        let f = svd(weight)?;
        let (mut u, mut s, mut v) = (f.u, f.s, f.v);

        if let Some(rng) = shuffle_rng {
            let k = s.len();
            let mut perm: Vec<usize> = (0..k).collect();
            perm.shuffle(rng);
            let s_old = s.clone();
            let u_old = u.clone();
            let v_old = v.clone();
            for (new_i, &old_i) in perm.iter().enumerate() {
                s[new_i] = s_old[old_i];
                for r in 0..u.rows() {
                    u[(r, new_i)] = u_old[(r, old_i)];
                }
                for r in 0..v.rows() {
                    v[(r, new_i)] = v_old[(r, old_i)];
                }
            }
        }

        let decompose = |m: &CMatrix| -> Result<UnitaryMesh, SpnnError> {
            Ok(match topology {
                MeshTopology::Clements => clements::decompose(m)?,
                MeshTopology::Reck => reck::decompose(m)?,
            })
        };
        let v_mesh = decompose(&v.adjoint())?;
        let u_mesh = decompose(&u)?;
        let sigma = DiagonalLine::from_singular_values(&s, weight.rows(), weight.cols());
        let v_zones = ZoneGrid::for_mesh(&v_mesh);
        let u_zones = ZoneGrid::for_mesh(&u_mesh);
        Ok(Self {
            v_mesh,
            sigma,
            u_mesh,
            v_zones,
            u_zones,
            intended: weight.clone(),
        })
    }

    /// Reassembles a layer from its tuned hardware parts — the persistence
    /// twin of the SVD-and-decompose construction, used by the engine's
    /// trained-context cache to restore a stored photonic mapping without
    /// re-running SVD or mesh synthesis. The zone grids are re-derived from
    /// the mesh shapes (they carry no tuned state).
    ///
    /// Reconstruction is exact: meshes, Σ line and the intended weight all
    /// round-trip bit for bit, so a cached layer's [`PhotonicLayer::matrix`]
    /// and every realization drawn from it equal the original's.
    ///
    /// # Panics
    ///
    /// Panics if the part dimensions do not chain as `U·Σ·Vᴴ` for the
    /// `intended` weight's shape.
    pub fn from_parts(
        v_mesh: UnitaryMesh,
        sigma: DiagonalLine,
        u_mesh: UnitaryMesh,
        intended: CMatrix,
    ) -> Self {
        assert_eq!(v_mesh.n(), intended.cols(), "Vᴴ mesh size must equal cols");
        assert_eq!(u_mesh.n(), intended.rows(), "U mesh size must equal rows");
        assert_eq!(sigma.out_dim(), intended.rows(), "Σ rows mismatch");
        assert_eq!(sigma.in_dim(), intended.cols(), "Σ cols mismatch");
        let v_zones = ZoneGrid::for_mesh(&v_mesh);
        let u_zones = ZoneGrid::for_mesh(&u_mesh);
        Self {
            v_mesh,
            sigma,
            u_mesh,
            v_zones,
            u_zones,
            intended,
        }
    }

    /// The mesh realizing `Vᴴ`.
    pub fn v_mesh(&self) -> &UnitaryMesh {
        &self.v_mesh
    }

    /// The mesh realizing `U`.
    pub fn u_mesh(&self) -> &UnitaryMesh {
        &self.u_mesh
    }

    /// The Σ attenuator line.
    pub fn sigma(&self) -> &DiagonalLine {
        &self.sigma
    }

    /// Zone partition of the `Vᴴ` mesh (EXP 2).
    pub fn v_zones(&self) -> &ZoneGrid {
        &self.v_zones
    }

    /// Zone partition of the `U` mesh (EXP 2).
    pub fn u_zones(&self) -> &ZoneGrid {
        &self.u_zones
    }

    /// The trained weight matrix this layer realizes.
    pub fn intended(&self) -> &CMatrix {
        &self.intended
    }

    /// The ideal hardware matrix `U·Σ·Vᴴ` — equal to the trained weight up
    /// to numerical rounding.
    pub fn matrix(&self) -> CMatrix {
        self.u_mesh
            .matrix()
            .mul(&self.sigma.matrix())
            .mul(&self.v_mesh.matrix())
    }
}

/// Reusable per-layer buffers for [`RealizationPlan::realize_into`]: the
/// realized `V`, `Σ`, `U` factors and the `U·Σ` intermediate of every
/// layer. One realization allocates nothing once the scratch is warm.
#[derive(Debug, Default, Clone)]
pub struct RealizeScratch {
    layers: Vec<LayerScratch>,
}

#[derive(Debug, Clone)]
struct LayerScratch {
    v: CMatrix,
    s: CMatrix,
    u: CMatrix,
    us: CMatrix,
}

impl RealizeScratch {
    /// (Re)builds the per-layer buffers when they do not match `network`'s
    /// layer shapes; a warm, matching scratch is left untouched.
    fn ensure_shapes(&mut self, network: &PhotonicNetwork) {
        let matches = self.layers.len() == network.layers.len()
            && self
                .layers
                .iter()
                .zip(&network.layers)
                .all(|(s, l)| s.us.shape() == l.intended.shape());
        if matches {
            return;
        }
        self.layers = network
            .layers
            .iter()
            .map(|l| {
                let (rows, cols) = l.intended.shape();
                LayerScratch {
                    v: CMatrix::zeros(cols, cols),
                    s: CMatrix::zeros(rows, cols),
                    u: CMatrix::zeros(rows, rows),
                    us: CMatrix::zeros(rows, cols),
                }
            })
            .collect();
    }
}

/// A full photonic network: one [`PhotonicLayer`] per trained weight matrix.
///
/// # Example
///
/// ```
/// use spnn_core::{PhotonicNetwork, MeshTopology};
/// use spnn_neural::ComplexNetwork;
///
/// let software = ComplexNetwork::new(&[4, 4, 3], 11);
/// let hardware = PhotonicNetwork::from_network(&software, MeshTopology::Clements, None)?;
/// // With no uncertainty, hardware matches software exactly.
/// let m = hardware.ideal_matrices();
/// assert!(m[0].approx_eq(software.weights()[0], 1e-8));
/// # Ok::<(), spnn_core::network::SpnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhotonicNetwork {
    layers: Vec<PhotonicLayer>,
    topology: MeshTopology,
}

impl PhotonicNetwork {
    /// Maps a trained software network onto photonic hardware.
    ///
    /// `shuffle_seed` — when `Some`, the singular values of every layer are
    /// arranged in seeded-random order (paper §III-D, EXP 2); when `None`
    /// they stay sorted descending.
    ///
    /// # Errors
    ///
    /// Returns [`SpnnError`] if SVD or mesh synthesis fails (not expected
    /// for finite trained weights).
    pub fn from_network(
        network: &ComplexNetwork,
        topology: MeshTopology,
        shuffle_seed: Option<u64>,
    ) -> Result<Self, SpnnError> {
        let mut rng = shuffle_seed.map(StdRng::seed_from_u64);
        let layers = network
            .weights()
            .into_iter()
            .map(|w| PhotonicLayer::from_weight(w, topology, rng.as_mut()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { layers, topology })
    }

    /// Assembles a network from already-built layers — the persistence twin
    /// of [`PhotonicNetwork::from_network`], used to restore a cached
    /// mapping (see [`PhotonicLayer::from_parts`]).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive layer shapes do not chain.
    pub fn from_layers(layers: Vec<PhotonicLayer>, topology: MeshTopology) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[1].intended().cols(),
                pair[0].intended().rows(),
                "layer shapes must chain"
            );
        }
        Self { layers, topology }
    }

    /// The photonic layers.
    pub fn layers(&self) -> &[PhotonicLayer] {
        &self.layers
    }

    /// Number of linear layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The mesh topology in use.
    pub fn topology(&self) -> MeshTopology {
        self.topology
    }

    /// The ideal (σ = 0) per-layer matrices.
    pub fn ideal_matrices(&self) -> Vec<CMatrix> {
        self.layers.iter().map(|l| l.matrix()).collect()
    }

    /// Samples one hardware realization: every MZI in every mesh and Σ line
    /// receives the uncertainty prescribed by `plan` plus the deterministic
    /// `effects` (quantization, thermal crosstalk, loss). Returns the
    /// realized per-layer matrices.
    ///
    /// A one-shot wrapper: it builds a [`RealizationPlan`] and realizes
    /// once. Loops that draw many realizations under the same plan and
    /// effects should build the plan once and call
    /// [`RealizationPlan::realize_into`] per iteration.
    pub fn realize<R: Rng + ?Sized>(
        &self,
        plan: &PerturbationPlan,
        effects: &HardwareEffects,
        rng: &mut R,
    ) -> Vec<CMatrix> {
        let mut out = Vec::new();
        self.realize_into(plan, effects, rng, &mut RealizeScratch::default(), &mut out);
        out
    }

    /// [`PhotonicNetwork::realize`] into caller-owned buffers: the
    /// intermediate `V`/`Σ`/`U`/`U·Σ` matrices live in `scratch` and the
    /// realized per-layer products in `out`, all reused across calls
    /// instead of reallocated.
    ///
    /// A one-shot wrapper over the single planned path: it builds a
    /// [`RealizationPlan`] (the deterministic per-site state, including
    /// the O(shifters²) thermal-crosstalk sum) and realizes once, so it is
    /// bit-identical to `realize` and to a reused plan. The Monte-Carlo
    /// hot loop builds the plan once per sweep point instead.
    pub fn realize_into<R: Rng + ?Sized>(
        &self,
        plan: &PerturbationPlan,
        effects: &HardwareEffects,
        rng: &mut R,
        scratch: &mut RealizeScratch,
        out: &mut Vec<CMatrix>,
    ) {
        RealizationPlan::new(self, plan, effects).realize_into(rng, scratch, out);
    }

    /// Runs inference through explicit layer matrices (ideal or realized),
    /// returning the output intensities.
    ///
    /// # Panics
    ///
    /// Panics if `matrices.len() != n_layers()` or dims mismatch.
    pub fn forward_with(&self, matrices: &[CMatrix], input: &[C64]) -> Vec<f64> {
        assert_eq!(matrices.len(), self.layers.len(), "layer count mismatch");
        let last = matrices.len() - 1;
        let mut a = input.to_vec();
        for (l, m) in matrices.iter().enumerate() {
            let z = m.mul_vec(&a);
            a = if l < last { mod_softplus(&z) } else { z };
        }
        intensity(&a)
    }

    /// Predicted class through explicit layer matrices.
    pub fn classify_with(&self, matrices: &[CMatrix], input: &[C64]) -> usize {
        argmax(&self.forward_with(matrices, input))
    }

    /// Accuracy over a labelled set through explicit layer matrices.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != labels.len()`.
    pub fn accuracy_with(
        &self,
        matrices: &[CMatrix],
        features: &[Vec<C64>],
        labels: &[usize],
    ) -> f64 {
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        if features.is_empty() {
            return 0.0;
        }
        let correct = features
            .iter()
            .zip(labels.iter())
            .filter(|(x, &y)| self.classify_with(matrices, x) == y)
            .count();
        correct as f64 / features.len() as f64
    }

    /// Accuracy of the ideal (uncertainty-free) hardware.
    pub fn ideal_accuracy(&self, features: &[Vec<C64>], labels: &[usize]) -> f64 {
        self.accuracy_with(&self.ideal_matrices(), features, labels)
    }
}

/// One sweep point's realization plan: everything about a hardware
/// realization that does not depend on the iteration's RNG, resolved once
/// from `(network, perturbation plan, hardware effects)`.
///
/// For every device site, in the RNG draw order (per layer: Vᴴ mesh → Σ
/// line → U mesh; layers in order), the plan stores the resolved
/// [`UncertaintySpec`] and the site's [`SiteBase`]: its phases after
/// quantization, then thermal crosstalk, then correlated FPV (see
/// [`HardwareEffects::site_base`]), its FPV splitter offsets and its
/// insertion loss. Each [`RealizationPlan::realize_into`] call then only
/// draws the random errors, builds the device transfers and multiplies
/// the factors. The crosstalk sum alone is quadratic in the number of
/// phase shifters per mesh, so hoisting it out of the Monte-Carlo loop is
/// what keeps thermal sweep points as cheap as the others.
///
/// The plan borrows its network and is `Sync`: the engine builds one per
/// round range and shares it by reference across worker threads.
///
/// # Example
///
/// ```
/// use spnn_core::{HardwareEffects, MeshTopology, PerturbationPlan, PhotonicNetwork};
/// use spnn_core::{iteration_rng, RealizationPlan, RealizeScratch};
/// use spnn_photonics::thermal::ThermalCrosstalk;
/// use spnn_photonics::UncertaintySpec;
///
/// let sw = spnn_neural::ComplexNetwork::new(&[4, 4, 3], 11);
/// let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None)?;
/// let plan = PerturbationPlan::global(UncertaintySpec::both(0.02));
/// let fx = HardwareEffects::with_thermal(ThermalCrosstalk::new(0.01, 60.0));
///
/// let planned = RealizationPlan::new(&hw, &plan, &fx);
/// let (mut scratch, mut out) = (RealizeScratch::default(), Vec::new());
/// for k in 0..3 {
///     planned.realize_into(&mut iteration_rng(5, k), &mut scratch, &mut out);
///     // Same bits as the one-shot path.
///     assert_eq!(out, hw.realize(&plan, &fx, &mut iteration_rng(5, k)));
/// }
/// # Ok::<(), spnn_core::network::SpnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RealizationPlan<'a> {
    network: &'a PhotonicNetwork,
    layers: Vec<LayerSites>,
}

/// The planned sites of one layer, per stage in draw order.
#[derive(Debug, Clone)]
struct LayerSites {
    v: Vec<PlannedSite>,
    sigma: Vec<PlannedSite>,
    u: Vec<PlannedSite>,
}

#[derive(Debug, Clone, Copy)]
struct PlannedSite {
    base: SiteBase,
    spec: UncertaintySpec,
}

impl PlannedSite {
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Mzi {
        self.base.draw(&self.spec, rng)
    }
}

impl<'a> RealizationPlan<'a> {
    /// Resolves every site's uncertainty spec and deterministic base
    /// (quantization, thermal crosstalk, correlated FPV, loss) once.
    pub fn new(
        network: &'a PhotonicNetwork,
        plan: &PerturbationPlan,
        effects: &HardwareEffects,
    ) -> Self {
        let layers = network
            .layers
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                let mesh_sites = |mesh: &UnitaryMesh, zones: &ZoneGrid, stage: Stage| {
                    let xt = effects.mesh_crosstalk(mesh);
                    let sp = effects.mesh_spatial(mesh);
                    let zone_of = zones.zone_of_each(mesh.n_mzis());
                    mesh.mzis()
                        .iter()
                        .enumerate()
                        .map(|(i, site)| PlannedSite {
                            spec: plan.spec_for(&SiteRef::new(li, stage, i), &zone_of[i]),
                            base: effects.site_base(
                                site.theta,
                                site.phi,
                                xt.get(i),
                                sp.as_ref().map(|o| o[i]),
                            ),
                        })
                        .collect()
                };
                let sigma = (0..layer.sigma.n_mzis())
                    .map(|i| {
                        let (theta, phi) = layer.sigma.phases(i);
                        let site_ref = SiteRef::new(li, Stage::Sigma, i);
                        PlannedSite {
                            spec: plan.spec_for(&site_ref, &(usize::MAX, usize::MAX)),
                            base: effects.site_base(theta, phi, None, None),
                        }
                    })
                    .collect();
                LayerSites {
                    v: mesh_sites(&layer.v_mesh, &layer.v_zones, Stage::VMesh),
                    sigma,
                    u: mesh_sites(&layer.u_mesh, &layer.u_zones, Stage::UMesh),
                }
            })
            .collect();
        Self { network, layers }
    }

    /// Draws one realization into caller-owned buffers: `scratch` holds the
    /// intermediate `V`/`Σ`/`U`/`U·Σ` matrices, `out` the realized
    /// per-layer products. The Monte-Carlo hot loop keeps one
    /// `(RealizeScratch, Vec<CMatrix>)` pair per worker thread; once they
    /// are warm a call allocates nothing.
    ///
    /// Per site, the random errors are drawn by [`SiteBase::draw`] in the
    /// RNG draw order (V mesh → Σ line → U mesh per layer, layers in
    /// order). Each buffer is fully overwritten before being read, so
    /// reused buffers never change a bit. Buffers sized for a different network are rebuilt
    /// transparently.
    pub fn realize_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut RealizeScratch,
        out: &mut Vec<CMatrix>,
    ) {
        let network = self.network;
        scratch.ensure_shapes(network);
        if out.len() != network.layers.len()
            || out
                .iter()
                .zip(&network.layers)
                .any(|(m, l)| m.shape() != l.intended.shape())
        {
            *out = network
                .layers
                .iter()
                .map(|l| CMatrix::zeros(l.intended.rows(), l.intended.cols()))
                .collect();
        }
        for (((layer, sites), slot), realized) in network
            .layers
            .iter()
            .zip(&self.layers)
            .zip(&mut scratch.layers)
            .zip(out.iter_mut())
        {
            layer
                .v_mesh
                .matrix_with_into(|i, _| sites.v[i].draw(rng), &mut slot.v);
            layer
                .sigma
                .matrix_with_into(|i, _| sites.sigma[i].draw(rng), &mut slot.s);
            layer
                .u_mesh
                .matrix_with_into(|i, _| sites.u[i].draw(rng), &mut slot.u);
            slot.u.mul_into(&slot.s, &mut slot.us);
            slot.us.mul_into(&slot.v, realized);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn software_net() -> ComplexNetwork {
        ComplexNetwork::new(&[6, 5, 4], 21)
    }

    #[test]
    fn hardware_matches_software_weights() {
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        for (layer, w) in hw.layers().iter().zip(sw.weights()) {
            assert!(
                layer.matrix().approx_eq(w, 1e-8),
                "U·Σ·Vᴴ mesh does not reproduce the weight"
            );
        }
    }

    /// The per-call realization loop the plan replaced, kept as the oracle
    /// the planned path must match bit for bit: it recomputes crosstalk,
    /// spatial offsets, zone maps and specs on every call and applies the
    /// hardware effects inline in their original op order.
    fn realize_per_call<R: Rng + ?Sized>(
        hw: &PhotonicNetwork,
        plan: &PerturbationPlan,
        effects: &HardwareEffects,
        rng: &mut R,
    ) -> Vec<CMatrix> {
        fn apply<R: Rng + ?Sized>(
            effects: &HardwareEffects,
            (theta, phi): (f64, f64),
            crosstalk: Option<(f64, f64)>,
            spatial: Option<(f64, f64, f64, f64)>,
            spec: &UncertaintySpec,
            rng: &mut R,
        ) -> Mzi {
            let (mut th, mut ph) = (theta, phi);
            if let Some(bits) = effects.quantization_bits {
                th = spnn_photonics::phase_shifter::quantize_phase(th, bits);
                ph = spnn_photonics::phase_shifter::quantize_phase(ph, bits);
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
            let dev = spec
                .perturb_mzi(&Mzi::ideal(th, ph), rng)
                .with_splitter_errors(dr_in, dr_out);
            if effects.mzi_loss_db > 0.0 {
                dev.with_loss_db(effects.mzi_loss_db)
            } else {
                dev
            }
        }

        let mut out = Vec::new();
        for (li, layer) in hw.layers().iter().enumerate() {
            let v_xt = effects.mesh_crosstalk(&layer.v_mesh);
            let u_xt = effects.mesh_crosstalk(&layer.u_mesh);
            let v_sp = effects.mesh_spatial(&layer.v_mesh);
            let u_sp = effects.mesh_spatial(&layer.u_mesh);
            let v_zone_of = layer.v_zones.zone_of_each(layer.v_mesh.n_mzis());
            let u_zone_of = layer.u_zones.zone_of_each(layer.u_mesh.n_mzis());
            let v = layer.v_mesh.matrix_with(|i, site| {
                let spec = plan.spec_for(&SiteRef::new(li, Stage::VMesh, i), &v_zone_of[i]);
                let sp = v_sp.as_ref().map(|o| o[i]);
                apply(effects, (site.theta, site.phi), v_xt.get(i), sp, &spec, rng)
            });
            let s = layer.sigma.matrix_with(|i, dev| {
                let site_ref = SiteRef::new(li, Stage::Sigma, i);
                let spec = plan.spec_for(&site_ref, &(usize::MAX, usize::MAX));
                apply(effects, (dev.theta(), dev.phi()), None, None, &spec, rng)
            });
            let u = layer.u_mesh.matrix_with(|i, site| {
                let spec = plan.spec_for(&SiteRef::new(li, Stage::UMesh, i), &u_zone_of[i]);
                let sp = u_sp.as_ref().map(|o| o[i]);
                apply(effects, (site.theta, site.phi), u_xt.get(i), sp, &spec, rng)
            });
            let mut us = CMatrix::zeros(u.rows(), s.cols());
            u.mul_into(&s, &mut us);
            let mut m = CMatrix::zeros(us.rows(), v.cols());
            us.mul_into(&v, &mut m);
            out.push(m);
        }
        out
    }

    fn assert_bits_equal(a: &[CMatrix], b: &[CMatrix], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: layer count");
        for (li, (ma, mb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ma.shape(), mb.shape(), "{what}: layer {li} shape");
            for (x, y) in ma.as_slice().iter().zip(mb.as_slice()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: layer {li}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: layer {li}");
            }
        }
    }

    /// Every deterministic effect on at once: DAC quantization, thermal
    /// crosstalk, layout-correlated FPV and insertion loss.
    fn all_effects() -> HardwareEffects {
        use spnn_photonics::spatial::CorrelatedFpv;
        use spnn_photonics::thermal::ThermalCrosstalk;
        HardwareEffects {
            quantization_bits: Some(6),
            thermal: ThermalCrosstalk::new(0.01, 60.0),
            spatial: Some(CorrelatedFpv::new(9, 2000.0, 0.05, 0.01)),
            mzi_loss_db: 0.1,
            ..HardwareEffects::default()
        }
    }

    #[test]
    fn realize_into_reuse_is_bit_identical_to_realize() {
        use crate::monte_carlo::iteration_rng;
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.06));
        let fx = HardwareEffects::default();
        let mut scratch = RealizeScratch::default();
        let mut reused = Vec::new();
        for k in 0..10 {
            hw.realize_into(
                &plan,
                &fx,
                &mut iteration_rng(44, k),
                &mut scratch,
                &mut reused,
            );
            let fresh = hw.realize(&plan, &fx, &mut iteration_rng(44, k));
            assert_bits_equal(&reused, &fresh, &format!("iter {k}"));
        }
    }

    #[test]
    fn planned_realization_matches_the_per_call_oracle() {
        use crate::monte_carlo::iteration_rng;
        let sw = software_net();
        let plans = [
            PerturbationPlan::None,
            PerturbationPlan::global(UncertaintySpec::both(0.03)),
            PerturbationPlan::global_no_sigma(UncertaintySpec::phase_shifters_only(0.04)),
            PerturbationPlan::zonal_paper_defaults(0, Stage::UMesh, (0, 0)),
            PerturbationPlan::single(
                UncertaintySpec::both(0.05),
                SiteRef::new(1, Stage::VMesh, 2),
            ),
        ];
        let mut scratch = RealizeScratch::default();
        let mut reused = Vec::new();
        for topology in [MeshTopology::Clements, MeshTopology::Reck] {
            let hw = PhotonicNetwork::from_network(&sw, topology, Some(5)).unwrap();
            for fx in [all_effects(), HardwareEffects::default()] {
                for plan in &plans {
                    let planned = RealizationPlan::new(&hw, plan, &fx);
                    for k in 0..50 {
                        let what = format!("{topology:?} {plan:?} iter {k}");
                        let oracle = realize_per_call(&hw, plan, &fx, &mut iteration_rng(44, k));
                        planned.realize_into(&mut iteration_rng(44, k), &mut scratch, &mut reused);
                        assert_bits_equal(&reused, &oracle, &what);
                        let one_shot = hw.realize(plan, &fx, &mut iteration_rng(44, k));
                        assert_bits_equal(&one_shot, &oracle, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn planned_effects_change_the_realization() {
        // Guards the oracle test against vacuity: every effect it enables
        // moves the realized matrices.
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let plan = PerturbationPlan::None;
        let ideal = hw.realize(
            &plan,
            &HardwareEffects::default(),
            &mut StdRng::seed_from_u64(1),
        );
        let full = all_effects();
        for fx in [
            HardwareEffects {
                quantization_bits: full.quantization_bits,
                ..HardwareEffects::default()
            },
            HardwareEffects::with_thermal(full.thermal),
            HardwareEffects {
                spatial: full.spatial.clone(),
                ..HardwareEffects::default()
            },
            HardwareEffects::with_loss(full.mzi_loss_db),
        ] {
            let got = hw.realize(&plan, &fx, &mut StdRng::seed_from_u64(1));
            let dev = (&got[0] - &ideal[0]).frobenius_norm();
            assert!(dev > 1e-6, "effect had no influence: {fx:?}");
        }
    }

    #[test]
    fn hardware_matches_with_shuffled_singular_values() {
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, Some(99)).unwrap();
        for (layer, w) in hw.layers().iter().zip(sw.weights()) {
            assert!(layer.matrix().approx_eq(w, 1e-8), "shuffled mapping broken");
        }
    }

    #[test]
    fn reck_topology_also_reproduces_weights() {
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Reck, None).unwrap();
        for (layer, w) in hw.layers().iter().zip(sw.weights()) {
            assert!(layer.matrix().approx_eq(w, 1e-8));
        }
    }

    #[test]
    fn hardware_forward_matches_software_forward() {
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let input: Vec<C64> = (0..6)
            .map(|i| C64::new(0.1 * i as f64, -0.05 * i as f64))
            .collect();
        let sw_out = sw.forward(&input);
        let hw_out = hw.forward_with(&hw.ideal_matrices(), &input);
        for (a, b) in sw_out.iter().zip(hw_out.iter()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn from_parts_round_trip_realizes_bit_identically() {
        // The trained-context cache's core guarantee: a mapping rebuilt
        // from its stored parts draws bit-identical realizations.
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, Some(3)).unwrap();
        let rebuilt_layers: Vec<PhotonicLayer> = hw
            .layers()
            .iter()
            .map(|l| {
                let remesh = |m: &UnitaryMesh| {
                    let ts: Vec<(usize, f64, f64)> =
                        m.mzis().iter().map(|s| (s.top, s.theta, s.phi)).collect();
                    UnitaryMesh::from_physical_order(m.n(), &ts, m.output_phases().to_vec())
                };
                let (thetas, phis): (Vec<f64>, Vec<f64>) =
                    (0..l.sigma().n_mzis()).map(|i| l.sigma().phases(i)).unzip();
                let sigma = DiagonalLine::from_raw_parts(
                    l.sigma().out_dim(),
                    l.sigma().in_dim(),
                    l.sigma().beta(),
                    thetas,
                    phis,
                );
                PhotonicLayer::from_parts(
                    remesh(l.v_mesh()),
                    sigma,
                    remesh(l.u_mesh()),
                    l.intended().clone(),
                )
            })
            .collect();
        let rebuilt = PhotonicNetwork::from_layers(rebuilt_layers, hw.topology());
        assert_eq!(rebuilt.topology(), hw.topology());

        let plan = PerturbationPlan::global(UncertaintySpec::both(0.06));
        let fx = HardwareEffects::default();
        let a = hw.realize(&plan, &fx, &mut StdRng::seed_from_u64(4));
        let b = rebuilt.realize(&plan, &fx, &mut StdRng::seed_from_u64(4));
        for (ma, mb) in a.iter().zip(b.iter()) {
            for r in 0..ma.rows() {
                for c in 0..ma.cols() {
                    assert_eq!(ma[(r, c)].re.to_bits(), mb[(r, c)].re.to_bits());
                    assert_eq!(ma[(r, c)].im.to_bits(), mb[(r, c)].im.to_bits());
                }
            }
        }
    }

    #[test]
    fn realize_without_uncertainty_is_ideal() {
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let realized = hw.realize(
            &PerturbationPlan::None,
            &HardwareEffects::default(),
            &mut rng,
        );
        for (r, i) in realized.iter().zip(hw.ideal_matrices().iter()) {
            assert!(r.approx_eq(i, 1e-10));
        }
    }

    #[test]
    fn realize_with_uncertainty_deviates() {
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
        let realized = hw.realize(&plan, &HardwareEffects::default(), &mut rng);
        let ideal = hw.ideal_matrices();
        let dev = (&realized[0] - &ideal[0]).frobenius_norm();
        assert!(dev > 1e-3, "perturbation had no effect: {dev}");
    }

    #[test]
    fn realizations_differ_across_draws() {
        let sw = software_net();
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
        let a = hw.realize(
            &plan,
            &HardwareEffects::default(),
            &mut StdRng::seed_from_u64(1),
        );
        let b = hw.realize(
            &plan,
            &HardwareEffects::default(),
            &mut StdRng::seed_from_u64(2),
        );
        assert!((&a[0] - &b[0]).frobenius_norm() > 1e-6);
        // Same seed → same realization.
        let c = hw.realize(
            &plan,
            &HardwareEffects::default(),
            &mut StdRng::seed_from_u64(1),
        );
        assert!(a[0].approx_eq(&c[0], 0.0));
    }
}
