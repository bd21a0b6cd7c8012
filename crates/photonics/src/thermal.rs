//! Thermal-crosstalk model (paper §II-C, §III-A).
//!
//! Thermo-optic phase shifters are micro-heaters, and heat spreads: driving
//! heater `j` raises the temperature of neighbouring waveguide `i`,
//! producing an *unintended* phase shift there. The paper cites this mutual
//! thermal crosstalk (ref. \[8\], Milanizadeh et al.) as a primary source of
//! correlated phase error, then folds it into the Gaussian phase-uncertainty
//! budget. Here we model the mechanism explicitly so its contribution can be
//! studied separately (ablation C in DESIGN.md):
//!
//! ```text
//! Δφᵢ = κ · Σ_{j≠i} exp(−dᵢⱼ / d₀) · φⱼ
//! ```
//!
//! where `φⱼ` is the phase commanded on heater `j` (proportional to its
//! dissipated power), `dᵢⱼ` the Euclidean distance between heaters, `d₀` the
//! thermal decay length, and `κ` the nearest-neighbour coupling strength.
//! With `κ = 0` the model reduces to the paper's i.i.d. assumption.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Physical position of a heater on the chip, in micrometers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeaterPosition {
    /// Horizontal position (µm), increasing along the light path.
    pub x_um: f64,
    /// Vertical position (µm), across waveguides.
    pub y_um: f64,
}

impl HeaterPosition {
    /// Creates a position.
    pub fn new(x_um: f64, y_um: f64) -> Self {
        Self { x_um, y_um }
    }

    /// Euclidean distance to another heater (µm).
    pub fn distance_um(&self, other: &HeaterPosition) -> f64 {
        (self.x_um - other.x_um).hypot(self.y_um - other.y_um)
    }
}

/// Mutual-heating crosstalk model with exponential distance decay.
///
/// # Example
///
/// ```
/// use spnn_photonics::thermal::{HeaterPosition, ThermalCrosstalk};
///
/// let model = ThermalCrosstalk::new(0.01, 50.0);
/// let positions = [
///     HeaterPosition::new(0.0, 0.0),
///     HeaterPosition::new(0.0, 50.0),
/// ];
/// let phases = [std::f64::consts::PI, 0.0];
/// let errors = model.phase_errors(&phases, &positions);
/// // Heater 0 is hot; heater 1 picks up a crosstalk phase of
/// // κ·e^{−1}·π ≈ 0.0116 rad.
/// assert!((errors[1] - 0.01 * (-1.0f64).exp() * std::f64::consts::PI).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalCrosstalk {
    coupling: f64,
    decay_length_um: f64,
}

impl ThermalCrosstalk {
    /// Creates a model with nearest-neighbour coupling strength `coupling`
    /// (dimensionless, typically 0–0.05) and thermal decay length
    /// `decay_length_um` (µm, typically tens of µm on SOI).
    ///
    /// # Panics
    ///
    /// Panics if `coupling < 0` or `decay_length_um <= 0`.
    pub fn new(coupling: f64, decay_length_um: f64) -> Self {
        assert!(coupling >= 0.0, "coupling must be non-negative");
        assert!(decay_length_um > 0.0, "decay length must be positive");
        Self {
            coupling,
            decay_length_um,
        }
    }

    /// A disabled model (κ = 0) — the paper's i.i.d. baseline.
    pub fn disabled() -> Self {
        Self {
            coupling: 0.0,
            decay_length_um: 1.0,
        }
    }

    /// Nearest-neighbour coupling strength κ.
    #[inline]
    pub fn coupling(&self) -> f64 {
        self.coupling
    }

    /// Thermal decay length d₀ (µm).
    #[inline]
    pub fn decay_length_um(&self) -> f64 {
        self.decay_length_um
    }

    /// `true` when the model contributes no crosstalk.
    pub fn is_disabled(&self) -> bool {
        self.coupling == 0.0
    }

    /// Computes the crosstalk-induced phase error on every heater given the
    /// commanded phases and heater positions.
    ///
    /// # Panics
    ///
    /// Panics if `phases.len() != positions.len()`.
    pub fn phase_errors(&self, phases: &[f64], positions: &[HeaterPosition]) -> Vec<f64> {
        assert_eq!(
            phases.len(),
            positions.len(),
            "phases and positions must align"
        );
        let n = phases.len();
        let mut errors = vec![0.0; n];
        if self.is_disabled() || n < 2 {
            return errors;
        }
        // Phase is proportional to dissipated power, and power wraps with
        // the commanded phase: use the wrapped magnitude.
        let drives: Vec<f64> = phases
            .iter()
            .map(|p| p.rem_euclid(std::f64::consts::TAU))
            .collect();
        // `hypot` ignores operand signs, so the coupling weight is a pure
        // function of the exact bits of (|dx|, |dy|). Heaters sit on a
        // regular grid, so few distinct offsets recur across many pairs
        // (351 among 57,360 on a 16-mode Clements mesh): memoizing them
        // drops most `hypot`/`exp` calls without changing a bit.
        let mut weights: HashMap<(u64, u64), f64, BuildHasherDefault<OffsetHasher>> =
            HashMap::default();
        for (i, (error, victim)) in errors.iter_mut().zip(positions).enumerate() {
            let mut acc = 0.0;
            for (j, (aggressor, &drive)) in positions.iter().zip(&drives).enumerate() {
                if i == j {
                    continue;
                }
                let dx = (victim.x_um - aggressor.x_um).abs();
                let dy = (victim.y_um - aggressor.y_um).abs();
                let weight = *weights
                    .entry((dx.to_bits(), dy.to_bits()))
                    .or_insert_with(|| (-dx.hypot(dy) / self.decay_length_um).exp());
                acc += weight * drive;
            }
            *error = self.coupling * acc;
        }
        errors
    }
}

/// A multiply-rotate hasher for the offset memo of
/// [`ThermalCrosstalk::phase_errors`]: its keys are a few hundred exact
/// `f64` bit patterns, for which the default SipHash costs more than the
/// `hypot` and `exp` the memo saves. The keys are heater offsets computed
/// from mesh geometry, not outside input, so SipHash's protection against
/// crafted collisions buys nothing here.
#[derive(Default)]
struct OffsetHasher(u64);

impl Hasher for OffsetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ThermalCrosstalk {
    /// Disabled (κ = 0).
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn line_positions(n: usize, pitch_um: f64) -> Vec<HeaterPosition> {
        (0..n)
            .map(|i| HeaterPosition::new(0.0, i as f64 * pitch_um))
            .collect()
    }

    #[test]
    fn disabled_model_gives_zero_errors() {
        let model = ThermalCrosstalk::disabled();
        let pos = line_positions(4, 50.0);
        let errors = model.phase_errors(&[1.0, 2.0, 3.0, 0.5], &pos);
        assert!(errors.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn single_heater_has_no_crosstalk() {
        let model = ThermalCrosstalk::new(0.05, 50.0);
        let errors = model.phase_errors(&[PI], &[HeaterPosition::new(0.0, 0.0)]);
        assert_eq!(errors, vec![0.0]);
    }

    #[test]
    fn closer_heaters_couple_more() {
        let model = ThermalCrosstalk::new(0.02, 30.0);
        // Victim at origin; one aggressor close, scenario two: same aggressor far.
        let near = model.phase_errors(
            &[0.0, PI],
            &[
                HeaterPosition::new(0.0, 0.0),
                HeaterPosition::new(0.0, 20.0),
            ],
        );
        let far = model.phase_errors(
            &[0.0, PI],
            &[
                HeaterPosition::new(0.0, 0.0),
                HeaterPosition::new(0.0, 100.0),
            ],
        );
        assert!(near[0] > far[0]);
        assert!(far[0] > 0.0);
    }

    #[test]
    fn error_scales_linearly_with_coupling_and_drive() {
        let pos = line_positions(2, 40.0);
        let e1 = ThermalCrosstalk::new(0.01, 40.0).phase_errors(&[0.0, 1.0], &pos)[0];
        let e2 = ThermalCrosstalk::new(0.02, 40.0).phase_errors(&[0.0, 1.0], &pos)[0];
        assert!((e2 - 2.0 * e1).abs() < 1e-15);
        let e3 = ThermalCrosstalk::new(0.01, 40.0).phase_errors(&[0.0, 2.0], &pos)[0];
        assert!((e3 - 2.0 * e1).abs() < 1e-15);
    }

    #[test]
    fn superposition_over_aggressors() {
        let model = ThermalCrosstalk::new(0.01, 50.0);
        let pos = line_positions(3, 50.0);
        let both = model.phase_errors(&[0.0, 1.0, 1.0], &pos)[0];
        let only1 = model.phase_errors(&[0.0, 1.0, 0.0], &pos)[0];
        let only2 = model.phase_errors(&[0.0, 0.0, 1.0], &pos)[0];
        assert!((both - only1 - only2).abs() < 1e-15);
    }

    #[test]
    fn drive_wraps_modulo_two_pi() {
        let model = ThermalCrosstalk::new(0.01, 50.0);
        let pos = line_positions(2, 50.0);
        let base = model.phase_errors(&[0.0, 1.0], &pos)[0];
        let wrapped = model.phase_errors(&[0.0, 1.0 + std::f64::consts::TAU], &pos)[0];
        assert!((base - wrapped).abs() < 1e-12);
    }

    #[test]
    fn symmetric_pair_symmetric_errors() {
        let model = ThermalCrosstalk::new(0.03, 60.0);
        let pos = line_positions(2, 45.0);
        let errors = model.phase_errors(&[1.5, 1.5], &pos);
        assert!((errors[0] - errors[1]).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_decay_length_panics() {
        let _ = ThermalCrosstalk::new(0.01, 0.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        let model = ThermalCrosstalk::new(0.01, 50.0);
        let _ = model.phase_errors(&[1.0], &line_positions(2, 50.0));
    }

    #[test]
    fn memoized_weights_match_the_pairwise_formula_bit_for_bit() {
        // A mesh-like heater grid (two heaters per site, columns offset by
        // fractions of the pitch), so many pairs share an offset up to
        // sign, plus phases outside [0, 2π) to exercise the wrap.
        let (px, py) = (100.0, 25.0);
        let mut positions = Vec::new();
        let mut phases = Vec::new();
        for col in 0..6 {
            for top in (col % 2..7).step_by(2) {
                let (x0, y) = (col as f64 * px, top as f64 * py);
                positions.push(HeaterPosition::new(x0 + 0.1 * px, y));
                positions.push(HeaterPosition::new(x0 + 0.6 * px, y));
                phases.push(0.37 * (col * 7 + top) as f64 - 3.0);
                phases.push(1.3 + 0.91 * (top * 5 + col) as f64);
            }
        }
        let model = ThermalCrosstalk::new(0.013, 60.0);
        let errors = model.phase_errors(&phases, &positions);
        for (i, &error) in errors.iter().enumerate() {
            let mut acc = 0.0;
            for j in 0..positions.len() {
                if i != j {
                    let d = positions[i].distance_um(&positions[j]);
                    acc += (-d / 60.0).exp() * phases[j].rem_euclid(2.0 * PI);
                }
            }
            assert_eq!(error.to_bits(), (0.013 * acc).to_bits(), "heater {i}");
        }
    }
}
