//! Mach–Zehnder interferometer device model (device level, paper §III-B).
//!
//! An MZI is two phase shifters (`φ` at the input, `θ` between the
//! splitters, both on the upper arm) and two beam splitters:
//!
//! ```text
//! T_MZI(θ, φ) = U_BeS · U_PhS(θ) · U_BeS · U_PhS(φ)        (paper Eq. 1)
//! ```
//!
//! With ideal 50:50 splitters this evaluates to the closed form
//!
//! ```text
//!         ⎛ e^{iφ}(e^{iθ}−1)/2     i(e^{iθ}+1)/2  ⎞
//! T_MZI = ⎜                                        ⎟
//!         ⎝ ie^{iφ}(e^{iθ}+1)/2   −(e^{iθ}−1)/2   ⎠
//! ```
//!
//! and with non-ideal splitters (reflectances `r`, `r′`, transmittances
//! `t`, `t′`) to Eq. (5) of the paper. The first-order sensitivity to phase
//! errors, Eqs. (3)–(4), generates the Fig. 2 deviation surfaces.

use crate::beam_splitter::BeamSplitter;
use spnn_linalg::{CMatrix, C64};

/// A 2×2 Mach–Zehnder interferometer.
///
/// # Example
///
/// ```
/// use spnn_photonics::Mzi;
///
/// // θ = π puts the MZI in the full "bar↔cross" switching point.
/// let mzi = Mzi::ideal(std::f64::consts::PI, 0.0);
/// let t = mzi.transfer_matrix();
/// assert!(t.is_unitary(1e-12));
/// // At θ = π all power exits the bar port: |T11| = 1.
/// assert!((t[(0, 0)].abs() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mzi {
    theta: f64,
    phi: f64,
    bs_in: BeamSplitter,
    bs_out: BeamSplitter,
    loss_db: f64,
}

impl Mzi {
    /// Creates an MZI with ideal 50:50 splitters and no excess loss.
    pub fn ideal(theta: f64, phi: f64) -> Self {
        Self {
            theta,
            phi,
            bs_in: BeamSplitter::ideal_50_50(),
            bs_out: BeamSplitter::ideal_50_50(),
            loss_db: 0.0,
        }
    }

    /// Creates an MZI with explicit (possibly imperfect) splitters.
    ///
    /// `bs_in` is the splitter the light meets first (after the `φ`
    /// shifter); in the paper's Eq. (5) notation it carries `(r, t)` and
    /// `bs_out` carries `(r′, t′)`.
    pub fn with_splitters(theta: f64, phi: f64, bs_in: BeamSplitter, bs_out: BeamSplitter) -> Self {
        Self {
            theta,
            phi,
            bs_in,
            bs_out,
            loss_db: 0.0,
        }
    }

    /// Returns a copy with the given excess insertion loss in dB (≥ 0),
    /// applied as a uniform amplitude factor `10^{−loss/20}`.
    ///
    /// # Panics
    ///
    /// Panics if `loss_db < 0` (gain is modeled by the β layer, not here).
    #[must_use]
    pub fn with_loss_db(mut self, loss_db: f64) -> Self {
        assert!(loss_db >= 0.0, "insertion loss must be non-negative");
        self.loss_db = loss_db;
        self
    }

    /// Internal phase `θ` (controls the splitting ratio of the device).
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Input phase `φ` (controls the relative output phase).
    #[inline]
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// The input-side beam splitter `(r, t)`.
    #[inline]
    pub fn splitter_in(&self) -> BeamSplitter {
        self.bs_in
    }

    /// The output-side beam splitter `(r′, t′)`.
    #[inline]
    pub fn splitter_out(&self) -> BeamSplitter {
        self.bs_out
    }

    /// Excess insertion loss in dB.
    #[inline]
    pub fn loss_db(&self) -> f64 {
        self.loss_db
    }

    /// Returns a copy with perturbed phases (`θ + dθ`, `φ + dφ`).
    #[must_use]
    pub fn with_phase_errors(&self, d_theta: f64, d_phi: f64) -> Self {
        Self {
            theta: self.theta + d_theta,
            phi: self.phi + d_phi,
            ..*self
        }
    }

    /// Returns a copy with perturbed splitter reflectances (`r + dr`,
    /// `r′ + dr′`), both kept lossless.
    #[must_use]
    pub fn with_splitter_errors(&self, dr_in: f64, dr_out: f64) -> Self {
        Self {
            bs_in: self.bs_in.perturbed(dr_in),
            bs_out: self.bs_out.perturbed(dr_out),
            ..*self
        }
    }

    /// The 2×2 transfer matrix as a stack array `[[T₀₀, T₀₁], [T₁₀, T₁₁]]`,
    /// using the general non-ideal-BeS closed form (paper Eq. 5), which
    /// reduces to Eq. (1) for ideal 50:50 splitters. Includes the
    /// insertion-loss amplitude factor.
    ///
    /// Allocation-free, so mesh evaluation can call it once per device per
    /// Monte-Carlo iteration; [`Mzi::transfer_matrix`] wraps it.
    pub fn transfer_2x2(&self) -> [[C64; 2]; 2] {
        let (r, t) = (self.bs_in.reflectance(), self.bs_in.transmittance());
        let (rp, tp) = (self.bs_out.reflectance(), self.bs_out.transmittance());
        let e_tp = C64::cis(self.theta + self.phi); // e^{i(θ+φ)}
        let e_t = C64::cis(self.theta); // e^{iθ}
        let e_p = C64::cis(self.phi); // e^{iφ}
        let i = C64::i();

        let mut m = [
            [
                e_tp.scale(r * rp) - e_p.scale(t * tp),
                i * e_t.scale(rp * t) + i.scale(tp * r),
            ],
            [
                i * e_tp.scale(tp * r) + i * e_p.scale(t * rp),
                -e_t.scale(t * tp) + C64::from(r * rp),
            ],
        ];

        let amp = loss_amplitude(self.loss_db);
        if amp != 1.0 {
            for z in m.iter_mut().flatten() {
                *z = z.scale(amp);
            }
        }
        m
    }

    /// The 2×2 transfer matrix ([`Mzi::transfer_2x2`]) as a [`CMatrix`].
    pub fn transfer_matrix(&self) -> CMatrix {
        let t = self.transfer_2x2();
        CMatrix::from_fn(2, 2, |r, c| t[r][c])
    }

    /// The same transfer matrix built compositionally as
    /// `U_BeS(out) · U_PhS(θ) · U_BeS(in) · U_PhS(φ)` — used to cross-check
    /// the closed form (they must agree to machine precision).
    pub fn transfer_matrix_composed(&self) -> CMatrix {
        let phase = |x: f64| {
            let mut m = CMatrix::identity(2);
            m[(0, 0)] = C64::cis(x);
            m
        };
        let m = self
            .bs_out
            .matrix()
            .mul(&phase(self.theta))
            .mul(&self.bs_in.matrix())
            .mul(&phase(self.phi));
        let amp = loss_amplitude(self.loss_db);
        if amp != 1.0 {
            let mut m = m;
            m.map_inplace(|z| z.scale(amp));
            return m;
        }
        m
    }

    /// Bar-path amplitude `T₁₁` — the transmission used when the MZI acts as
    /// a terminated attenuator in the diagonal Σ line (paper §II-B).
    pub fn bar_amplitude(&self) -> C64 {
        self.transfer_2x2()[0][0]
    }

    /// Extinction ratio of the bar port in dB: the max/min power
    /// transmission achievable by sweeping `θ` with the *fabricated*
    /// splitters held fixed.
    ///
    /// `|T₁₁| = |r·r′·e^{iθ} − t·t′|` ranges over `[|rr′ − tt′|, rr′ + tt′]`,
    /// so `ER = 20·log₁₀((rr′ + tt′)/|rr′ − tt′|)`. Ideal 50:50 splitters
    /// give `rr′ = tt′` and therefore **infinite** ER; any splitter
    /// imbalance makes the ER finite, which is why fabricated BeS errors
    /// cannot be tuned away with the phase shifters (paper §II-C) — the
    /// quantitative limit used by the calibration study.
    pub fn extinction_ratio_db(&self) -> f64 {
        let rr = self.bs_in.reflectance() * self.bs_out.reflectance();
        let tt = self.bs_in.transmittance() * self.bs_out.transmittance();
        let max = rr + tt;
        let min = (rr - tt).abs();
        if min == 0.0 {
            f64::INFINITY
        } else {
            20.0 * (max / min).log10()
        }
    }
}

impl Default for Mzi {
    /// An untuned ideal MZI (`θ = φ = 0`), which is the full-cross state.
    fn default() -> Self {
        Self::ideal(0.0, 0.0)
    }
}

/// Converts an insertion loss in dB to an amplitude factor `10^{−dB/20}`.
pub fn loss_amplitude(loss_db: f64) -> f64 {
    if loss_db == 0.0 {
        1.0
    } else {
        10f64.powf(-loss_db / 20.0)
    }
}

/// The ideal MZI transfer matrix of Eq. (1) as a free function —
/// convenient for mesh synthesis where no device state is needed.
///
/// Closed form: `T = i·e^{iθ/2}·[[e^{iφ}·sin(θ/2), cos(θ/2)],
/// [e^{iφ}·cos(θ/2), −sin(θ/2)]]`, identical to Eq. (1).
pub fn ideal_transfer(theta: f64, phi: f64) -> CMatrix {
    let half = theta / 2.0;
    let (s, c) = (half.sin(), half.cos());
    let pre = C64::i() * C64::cis(half);
    let e_p = C64::cis(phi);
    let mut m = CMatrix::zeros(2, 2);
    m[(0, 0)] = pre * e_p.scale(s);
    m[(0, 1)] = pre.scale(c);
    m[(1, 0)] = pre * e_p.scale(c);
    m[(1, 1)] = pre.scale(-s);
    m
}

/// First-order sensitivity of the ideal transfer matrix to phase errors:
/// `(∂T/∂θ, ∂T/∂φ)` per Eq. (3) of the paper.
pub fn phase_sensitivity(theta: f64, phi: f64) -> (CMatrix, CMatrix) {
    let e_tp = C64::cis(theta + phi);
    let e_t = C64::cis(theta);
    let e_p = C64::cis(phi);
    let i = C64::i();
    let half = 0.5;

    let mut d_theta = CMatrix::zeros(2, 2);
    d_theta[(0, 0)] = (i * e_tp).scale(half);
    d_theta[(0, 1)] = -e_t.scale(half);
    d_theta[(1, 0)] = -e_tp.scale(half);
    d_theta[(1, 1)] = -(i * e_t).scale(half);

    let mut d_phi = CMatrix::zeros(2, 2);
    d_phi[(0, 0)] = (i * e_p * (e_t - C64::one())).scale(half);
    d_phi[(0, 1)] = C64::zero();
    d_phi[(1, 0)] = -(e_p * (e_t + C64::one())).scale(half);
    d_phi[(1, 1)] = C64::zero();

    (d_theta, d_phi)
}

/// First-order deviation `ΔT` under a *common relative* phase error
/// `Δθ/θ = Δφ/φ = k` — Eq. (4) of the paper, used for the Fig. 2 surfaces.
pub fn first_order_deviation(theta: f64, phi: f64, k: f64) -> CMatrix {
    let (d_theta, d_phi) = phase_sensitivity(theta, phi);
    let mut out = CMatrix::zeros(2, 2);
    for r in 0..2 {
        for c in 0..2 {
            out[(r, c)] = (d_theta[(r, c)].scale(theta) + d_phi[(r, c)].scale(phi)).scale(k);
        }
    }
    out
}

/// Element-wise relative deviation `|ΔTᵢⱼ| / |Tᵢⱼ|` for a common relative
/// phase error `k` — the quantity plotted in Fig. 2(a)–(d).
///
/// Elements whose nominal modulus is below `eps` yield `f64::INFINITY`
/// (the deviation ratio genuinely diverges at the transfer-matrix zeros).
pub fn relative_deviation(theta: f64, phi: f64, k: f64, eps: f64) -> [[f64; 2]; 2] {
    let t = ideal_transfer(theta, phi);
    let dt = first_order_deviation(theta, phi, k);
    let mut out = [[0.0; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            let denom = t[(r, c)].abs();
            out[r][c] = if denom > eps {
                dt[(r, c)].abs() / denom
            } else {
                f64::INFINITY
            };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn closed_form_matches_composition_ideal() {
        for &theta in &[0.0, 0.3, FRAC_PI_2, PI, 2.5, TAU - 0.1] {
            for &phi in &[0.0, 0.7, PI, 4.0] {
                let mzi = Mzi::ideal(theta, phi);
                assert!(
                    mzi.transfer_matrix()
                        .approx_eq(&mzi.transfer_matrix_composed(), 1e-12),
                    "mismatch at θ={theta}, φ={phi}"
                );
            }
        }
    }

    #[test]
    fn closed_form_matches_composition_non_ideal() {
        let bs1 = BeamSplitter::from_reflectance(0.6);
        let bs2 = BeamSplitter::from_reflectance(0.8);
        for &theta in &[0.4, 1.9, 3.3] {
            for &phi in &[0.1, 2.2, 5.0] {
                let mzi = Mzi::with_splitters(theta, phi, bs1, bs2);
                assert!(
                    mzi.transfer_matrix()
                        .approx_eq(&mzi.transfer_matrix_composed(), 1e-12),
                    "mismatch at θ={theta}, φ={phi}"
                );
            }
        }
    }

    #[test]
    fn eq1_verbatim() {
        // Check the paper's Eq. (1) entries literally.
        let (theta, phi) = (1.1, 0.4);
        let t = Mzi::ideal(theta, phi).transfer_matrix();
        let e_t = C64::cis(theta);
        let e_p = C64::cis(phi);
        let i = C64::i();
        let one = C64::one();
        assert!(t[(0, 0)].approx_eq((e_p * (e_t - one)).scale(0.5), 1e-12));
        assert!(t[(0, 1)].approx_eq((i * (e_t + one)).scale(0.5), 1e-12));
        assert!(t[(1, 0)].approx_eq((i * e_p * (e_t + one)).scale(0.5), 1e-12));
        assert!(t[(1, 1)].approx_eq((one - e_t).scale(0.5), 1e-12));
    }

    #[test]
    fn ideal_transfer_free_function_matches_struct() {
        for &theta in &[0.0, 0.9, PI, 5.1] {
            for &phi in &[0.0, 1.3, 4.4] {
                let a = ideal_transfer(theta, phi);
                let b = Mzi::ideal(theta, phi).transfer_matrix();
                assert!(a.approx_eq(&b, 1e-12), "θ={theta}, φ={phi}");
            }
        }
    }

    #[test]
    fn unitary_for_lossless_splitters() {
        let mzi = Mzi::with_splitters(
            1.2,
            0.3,
            BeamSplitter::from_reflectance(0.55),
            BeamSplitter::from_reflectance(0.75),
        );
        assert!(mzi.transfer_matrix().is_unitary(1e-12));
    }

    #[test]
    fn bar_and_cross_states() {
        // θ = π: bar state (|T11| = 1). θ = 0: cross state (|T01| = 1).
        let bar = Mzi::ideal(PI, 0.0).transfer_matrix();
        assert!((bar[(0, 0)].abs() - 1.0).abs() < 1e-12);
        assert!(bar[(0, 1)].abs() < 1e-12);
        let cross = Mzi::ideal(0.0, 0.0).transfer_matrix();
        assert!((cross[(0, 1)].abs() - 1.0).abs() < 1e-12);
        assert!(cross[(0, 0)].abs() < 1e-12);
    }

    #[test]
    fn theta_controls_power_split() {
        // |T11|² = sin²(θ/2): tunable splitter.
        for &theta in &[0.2, 1.0, 2.0, 3.0] {
            let t = Mzi::ideal(theta, 0.7).transfer_matrix();
            let expect = (theta / 2.0).sin().powi(2);
            assert!((t[(0, 0)].abs_sq() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn sensitivity_matches_finite_differences() {
        let (theta, phi) = (1.3, 2.1);
        let (d_theta, d_phi) = phase_sensitivity(theta, phi);
        let h = 1e-6;
        let base = ideal_transfer(theta, phi);
        let bumped_t = ideal_transfer(theta + h, phi);
        let bumped_p = ideal_transfer(theta, phi + h);
        for r in 0..2 {
            for c in 0..2 {
                let fd_t = (bumped_t[(r, c)] - base[(r, c)]).scale(1.0 / h);
                let fd_p = (bumped_p[(r, c)] - base[(r, c)]).scale(1.0 / h);
                assert!(fd_t.approx_eq(d_theta[(r, c)], 1e-5), "dθ ({r},{c})");
                assert!(fd_p.approx_eq(d_phi[(r, c)], 1e-5), "dφ ({r},{c})");
            }
        }
    }

    #[test]
    fn eq4_matches_eq3_combination() {
        let (theta, phi, k) = (0.9, 1.7, 0.05);
        let dev = first_order_deviation(theta, phi, k);
        // ΔT = K(θ·∂T/∂θ + φ·∂T/∂φ); check the paper's explicit entries.
        let e_tp = C64::cis(theta + phi);
        let e_t = C64::cis(theta);
        let e_p = C64::cis(phi);
        let i = C64::i();
        let expect00 = ((i * e_tp).scale(theta + phi) - (i * e_p).scale(phi)).scale(k / 2.0);
        let expect01 = (-e_t.scale(theta)).scale(k / 2.0);
        let expect10 = (-e_tp.scale(theta + phi) - e_p.scale(phi)).scale(k / 2.0);
        let expect11 = (-(i * e_t).scale(theta)).scale(k / 2.0);
        assert!(dev[(0, 0)].approx_eq(expect00, 1e-12));
        assert!(dev[(0, 1)].approx_eq(expect01, 1e-12));
        assert!(dev[(1, 0)].approx_eq(expect10, 1e-12));
        assert!(dev[(1, 1)].approx_eq(expect11, 1e-12));
    }

    #[test]
    fn relative_deviation_t22_known_value() {
        // |ΔT22|/|T22| = K·θ/(2·sin(θ/2)) for any φ.
        let (theta, phi, k) = (2.0, 1.0, 0.05);
        let rd = relative_deviation(theta, phi, k, 1e-12);
        let expect = k * theta / (2.0 * (theta / 2.0).sin());
        assert!((rd[1][1] - expect).abs() < 1e-12);
    }

    #[test]
    fn relative_deviation_grows_with_phases() {
        // Paper Fig. 2 observation: deviation increases with θ and φ
        // (checked for T11 in the interior region).
        let k = 0.05;
        let rd_small = relative_deviation(1.0, 1.0, k, 1e-9)[0][0];
        let rd_large = relative_deviation(2.5, 2.5, k, 1e-9)[0][0];
        assert!(rd_large > rd_small);
    }

    #[test]
    fn relative_deviation_diverges_at_zeros() {
        // T11 = 0 at θ = 0 ⇒ infinite relative deviation.
        let rd = relative_deviation(0.0, 1.0, 0.05, 1e-9);
        assert!(rd[0][0].is_infinite());
    }

    #[test]
    fn loss_reduces_power_uniformly() {
        use spnn_linalg::vector::norm_sq;
        let mzi = Mzi::ideal(1.0, 0.5).with_loss_db(3.0);
        let input = vec![C64::one(), C64::zero()];
        let out = mzi.transfer_matrix().mul_vec(&input);
        let expect = 10f64.powf(-3.0 / 10.0); // 3 dB ≈ half power
        assert!((norm_sq(&out) - expect).abs() < 1e-9);
    }

    #[test]
    fn with_phase_errors_shifts_parameters() {
        let mzi = Mzi::ideal(1.0, 2.0).with_phase_errors(0.1, -0.2);
        assert!((mzi.theta() - 1.1).abs() < 1e-15);
        assert!((mzi.phi() - 1.8).abs() < 1e-15);
    }

    #[test]
    fn with_splitter_errors_stays_lossless() {
        let mzi = Mzi::ideal(1.0, 2.0).with_splitter_errors(0.05, -0.08);
        assert!(mzi.splitter_in().is_lossless(1e-12));
        assert!(mzi.splitter_out().is_lossless(1e-12));
        assert!(mzi.transfer_matrix().is_unitary(1e-12));
    }

    #[test]
    fn bar_amplitude_matches_t11() {
        let mzi = Mzi::ideal(0.8, 1.9);
        assert!(mzi
            .bar_amplitude()
            .approx_eq(mzi.transfer_matrix()[(0, 0)], 1e-15));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_loss_panics() {
        let _ = Mzi::ideal(0.0, 0.0).with_loss_db(-1.0);
    }

    #[test]
    fn ideal_mzi_has_infinite_extinction_ratio() {
        assert!(Mzi::ideal(1.0, 0.0).extinction_ratio_db().is_infinite());
    }

    #[test]
    fn splitter_imbalance_makes_extinction_finite() {
        let er = |dr: f64| {
            Mzi::ideal(1.0, 0.0)
                .with_splitter_errors(dr, 0.0)
                .extinction_ratio_db()
        };
        let small = er(0.01);
        let large = er(0.05);
        assert!(small.is_finite() && large.is_finite());
        assert!(
            small > large,
            "bigger imbalance ⇒ worse ER: {small} vs {large}"
        );
        assert!(large > 10.0, "5% error still leaves a usable device");
    }

    #[test]
    fn extinction_ratio_matches_theta_sweep() {
        // Brute-force sweep of |T11|² must reach the closed-form extremes.
        let mzi = Mzi::ideal(0.0, 0.0).with_splitter_errors(0.07, -0.04);
        let mut min_p = f64::INFINITY;
        let mut max_p = 0.0f64;
        for k in 0..=2000 {
            let theta = TAU * k as f64 / 2000.0;
            let p = Mzi::with_splitters(theta, 0.0, mzi.splitter_in(), mzi.splitter_out())
                .transfer_matrix()[(0, 0)]
                .abs_sq();
            min_p = min_p.min(p);
            max_p = max_p.max(p);
        }
        let er_swept = 10.0 * (max_p / min_p).log10();
        assert!(
            (er_swept - mzi.extinction_ratio_db()).abs() < 0.05,
            "swept {er_swept} vs closed form {}",
            mzi.extinction_ratio_db()
        );
    }
}
