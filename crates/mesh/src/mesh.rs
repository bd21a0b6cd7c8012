//! The physical MZI array: tuned parameters, grid placement, and ideal /
//! perturbed matrix evaluation.
//!
//! A [`UnitaryMesh`] is an ordered list of [`MeshMzi`]s plus a screen of
//! output phases (the diagonal `D` left over by the Clements factorization
//! `U = D·ΠT`). Light traverses columns in increasing order; MZIs in the
//! same column act on disjoint mode pairs and therefore commute.
//!
//! The mesh knows nothing about *how* it was synthesized — Clements and Reck
//! decompositions both produce this type — and everything about how to
//! evaluate itself, including with per-MZI faulty device models, which is
//! what the uncertainty experiments need.

use spnn_linalg::{CMatrix, C64};
use spnn_photonics::Mzi;

/// One MZI inside a mesh: grid placement plus tuned phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshMzi {
    /// Physical column (0 = first encountered by the light).
    pub column: usize,
    /// Upper mode index: the device couples modes `top` and `top + 1`.
    pub top: usize,
    /// Internal phase θ (radians), tuned at design/training time.
    pub theta: f64,
    /// Input phase φ (radians), tuned at design/training time.
    pub phi: f64,
}

impl MeshMzi {
    /// The ideal device model for this mesh site.
    pub fn device(&self) -> Mzi {
        Mzi::ideal(self.theta, self.phi)
    }

    /// Grid row of the MZI (each row holds devices two modes apart):
    /// `top / 2` — used by the EXP 2 zone partition.
    pub fn grid_row(&self) -> usize {
        self.top / 2
    }
}

/// A rectangular (or triangular) array of MZIs realizing an `n × n` unitary.
///
/// # Example
///
/// ```
/// use spnn_mesh::clements;
/// use spnn_linalg::random::haar_unitary;
/// use rand::SeedableRng;
///
/// let u = haar_unitary(4, &mut rand::rngs::StdRng::seed_from_u64(1));
/// let mesh = clements::decompose(&u)?;
/// // Perturb one device and measure the deviation:
/// let noisy = mesh.matrix_with(|idx, site| {
///     let dev = site.device();
///     if idx == 0 { dev.with_phase_errors(0.1, 0.0) } else { dev }
/// });
/// assert!(!noisy.approx_eq(&u, 1e-3));
/// # Ok::<(), spnn_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UnitaryMesh {
    n: usize,
    mzis: Vec<MeshMzi>,
    output_phases: Vec<f64>,
}

impl UnitaryMesh {
    /// Assembles a mesh from raw parts, assigning physical columns greedily
    /// (each device is placed in the earliest column where both of its modes
    /// are free). `ts` is the device list in *physical order* — the order in
    /// which light meets them; `output_phases` is the output phase screen.
    ///
    /// # Panics
    ///
    /// Panics if `output_phases.len() != n`, if any device's `top + 1 >= n`,
    /// or if `n == 0`.
    pub fn from_physical_order(
        n: usize,
        ts: &[(usize, f64, f64)],
        output_phases: Vec<f64>,
    ) -> Self {
        assert!(n > 0, "mesh size must be positive");
        assert_eq!(
            output_phases.len(),
            n,
            "output phase screen must have n entries"
        );
        let mut next_free = vec![0usize; n];
        let mut mzis = Vec::with_capacity(ts.len());
        for &(top, theta, phi) in ts {
            assert!(top + 1 < n, "MZI top mode {top} out of range for n = {n}");
            let column = next_free[top].max(next_free[top + 1]);
            next_free[top] = column + 1;
            next_free[top + 1] = column + 1;
            mzis.push(MeshMzi {
                column,
                top,
                theta,
                phi,
            });
        }
        Self {
            n,
            mzis,
            output_phases,
        }
    }

    /// Number of optical modes (the unitary is `n × n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The MZIs in physical order.
    #[inline]
    pub fn mzis(&self) -> &[MeshMzi] {
        &self.mzis
    }

    /// Number of MZIs (`N(N−1)/2` for a full Clements or Reck mesh).
    #[inline]
    pub fn n_mzis(&self) -> usize {
        self.mzis.len()
    }

    /// Number of tunable phase shifters: two per MZI (`θ` and `φ`).
    ///
    /// The output phase screen is *not* counted — this matches the paper's
    /// census of 1374 shifters for the 16-16-16-10 network.
    #[inline]
    pub fn n_phase_shifters(&self) -> usize {
        2 * self.mzis.len()
    }

    /// Number of physical columns (mesh depth).
    pub fn n_columns(&self) -> usize {
        self.mzis.iter().map(|m| m.column + 1).max().unwrap_or(0)
    }

    /// The output phase screen (the `D` of `U = D·ΠT`), applied after the
    /// last column. Treated as ideal in all of the paper's experiments.
    #[inline]
    pub fn output_phases(&self) -> &[f64] {
        &self.output_phases
    }

    /// The ideal transfer matrix of the whole mesh.
    pub fn matrix(&self) -> CMatrix {
        self.matrix_with(|_, site| site.device())
    }

    /// The transfer matrix with every mesh site replaced by the device the
    /// callback returns — the hook through which all uncertainty injection
    /// flows. The callback receives the site index (position in
    /// [`UnitaryMesh::mzis`]) and the site itself.
    pub fn matrix_with<F>(&self, device_at: F) -> CMatrix
    where
        F: FnMut(usize, &MeshMzi) -> Mzi,
    {
        let mut acc = CMatrix::identity(self.n);
        self.matrix_with_into(device_at, &mut acc);
        acc
    }

    /// [`UnitaryMesh::matrix_with`] written into an existing `n × n`
    /// matrix, avoiding the per-call allocation. `acc` is reset to the
    /// identity first, so its prior contents never influence the result —
    /// bit-identical to `matrix_with`. Monte-Carlo hot loops reuse one
    /// accumulator per mesh across iterations.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is not `n × n`.
    pub fn matrix_with_into<F>(&self, mut device_at: F, acc: &mut CMatrix)
    where
        F: FnMut(usize, &MeshMzi) -> Mzi,
    {
        assert_eq!(acc.shape(), (self.n, self.n), "accumulator shape mismatch");
        acc.set_identity();
        for (idx, site) in self.mzis.iter().enumerate() {
            let t = device_at(idx, site).transfer_2x2();
            apply_two_mode(acc, site.top, &t);
        }
        // Output phase screen.
        for (mode, &phase) in self.output_phases.iter().enumerate() {
            if phase != 0.0 {
                let ph = C64::cis(phase);
                for c in 0..self.n {
                    acc[(mode, c)] *= ph;
                }
            }
        }
    }

    /// Propagates a field vector through the ideal mesh.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n`.
    pub fn forward(&self, input: &[C64]) -> Vec<C64> {
        self.forward_with(input, |_, site| site.device())
    }

    /// Propagates a field vector through the mesh with per-site device
    /// substitution (same contract as [`UnitaryMesh::matrix_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n`.
    pub fn forward_with<F>(&self, input: &[C64], mut device_at: F) -> Vec<C64>
    where
        F: FnMut(usize, &MeshMzi) -> Mzi,
    {
        assert_eq!(input.len(), self.n, "input length must equal mesh size");
        let mut field = input.to_vec();
        for (idx, site) in self.mzis.iter().enumerate() {
            let t = device_at(idx, site).transfer_2x2();
            let a = field[site.top];
            let b = field[site.top + 1];
            field[site.top] = t[0][0] * a + t[0][1] * b;
            field[site.top + 1] = t[1][0] * a + t[1][1] * b;
        }
        for (mode, &phase) in self.output_phases.iter().enumerate() {
            if phase != 0.0 {
                field[mode] *= C64::cis(phase);
            }
        }
        field
    }

    /// Sum of tuned phase magnitudes per site — a cheap proxy for the
    /// device-level susceptibility result of Fig. 2 (larger tuned phases ⇒
    /// larger relative deviation under the same relative error).
    pub fn phase_load(&self) -> Vec<f64> {
        self.mzis
            .iter()
            .map(|m| {
                m.theta.rem_euclid(std::f64::consts::TAU) + m.phi.rem_euclid(std::f64::consts::TAU)
            })
            .collect()
    }
}

/// Left-multiplies `acc` by the 2×2 block `t` embedded at modes
/// `(top, top+1)` — O(n) instead of a full matrix product.
fn apply_two_mode(acc: &mut CMatrix, top: usize, t: &[[C64; 2]; 2]) {
    let n = acc.cols();
    for c in 0..n {
        let a = acc[(top, c)];
        let b = acc[(top + 1, c)];
        acc[(top, c)] = t[0][0] * a + t[0][1] * b;
        acc[(top + 1, c)] = t[1][0] * a + t[1][1] * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnn_linalg::vector::norm_sq;

    fn two_mzi_mesh() -> UnitaryMesh {
        // Three modes, two MZIs: (0,1) then (1,2), no output phases.
        UnitaryMesh::from_physical_order(3, &[(0, 1.0, 0.5), (1, 2.0, 0.25)], vec![0.0; 3])
    }

    #[test]
    fn greedy_column_assignment() {
        let mesh = two_mzi_mesh();
        assert_eq!(mesh.mzis()[0].column, 0);
        assert_eq!(mesh.mzis()[1].column, 1); // shares mode 1 ⇒ next column
        assert_eq!(mesh.n_columns(), 2);

        // Disjoint modes share a column.
        let mesh =
            UnitaryMesh::from_physical_order(4, &[(0, 1.0, 0.0), (2, 1.0, 0.0)], vec![0.0; 4]);
        assert_eq!(mesh.mzis()[0].column, 0);
        assert_eq!(mesh.mzis()[1].column, 0);
        assert_eq!(mesh.n_columns(), 1);
    }

    #[test]
    fn matrix_matches_explicit_product() {
        let mesh = two_mzi_mesh();
        let t0 = Mzi::ideal(1.0, 0.5).transfer_matrix();
        let t1 = Mzi::ideal(2.0, 0.25).transfer_matrix();
        // Embed manually.
        let mut e0 = CMatrix::identity(3);
        e0.set_block(0, 0, &t0);
        let mut e1 = CMatrix::identity(3);
        e1.set_block(1, 1, &t1);
        let expect = e1.mul(&e0); // light passes e0 first ⇒ e1·e0
        assert!(mesh.matrix().approx_eq(&expect, 1e-13));
    }

    #[test]
    fn mesh_matrix_is_unitary() {
        let mesh = two_mzi_mesh();
        assert!(mesh.matrix().is_unitary(1e-12));
    }

    #[test]
    fn output_phases_apply_last() {
        let mesh = UnitaryMesh::from_physical_order(
            2,
            &[(0, 1.0, 0.5)],
            vec![std::f64::consts::FRAC_PI_2, 0.0],
        );
        let bare = UnitaryMesh::from_physical_order(2, &[(0, 1.0, 0.5)], vec![0.0; 2]);
        let with_d = mesh.matrix();
        let without = bare.matrix();
        for c in 0..2 {
            assert!(with_d[(0, c)].approx_eq(C64::i() * without[(0, c)], 1e-13));
            assert!(with_d[(1, c)].approx_eq(without[(1, c)], 1e-13));
        }
    }

    #[test]
    fn forward_matches_matrix_vector() {
        let mesh = two_mzi_mesh();
        let input = vec![C64::new(0.3, 0.1), C64::new(-0.5, 0.2), C64::new(0.0, 0.9)];
        let via_forward = mesh.forward(&input);
        let via_matrix = mesh.matrix().mul_vec(&input);
        for (a, b) in via_forward.iter().zip(via_matrix.iter()) {
            assert!(a.approx_eq(*b, 1e-13));
        }
    }

    #[test]
    fn forward_conserves_power() {
        let mesh = two_mzi_mesh();
        let input = vec![C64::new(1.0, 0.0), C64::new(0.0, 1.0), C64::new(0.5, 0.5)];
        let out = mesh.forward(&input);
        assert!((norm_sq(&input) - norm_sq(&out)).abs() < 1e-12);
    }

    #[test]
    fn matrix_with_perturbation_differs() {
        let mesh = two_mzi_mesh();
        let ideal = mesh.matrix();
        let noisy = mesh.matrix_with(|idx, site| {
            let dev = site.device();
            if idx == 1 {
                dev.with_phase_errors(0.2, 0.0)
            } else {
                dev
            }
        });
        assert!(!ideal.approx_eq(&noisy, 1e-4));
        assert!(noisy.is_unitary(1e-12), "perturbed mesh still lossless");
    }

    #[test]
    fn phase_shifter_census() {
        let mesh = two_mzi_mesh();
        assert_eq!(mesh.n_mzis(), 2);
        assert_eq!(mesh.n_phase_shifters(), 4);
    }

    #[test]
    fn phase_load_reflects_tuned_phases() {
        let mesh = two_mzi_mesh();
        let load = mesh.phase_load();
        assert!((load[0] - 1.5).abs() < 1e-12);
        assert!((load[1] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn grid_row_halves_top() {
        let m = MeshMzi {
            column: 0,
            top: 3,
            theta: 0.0,
            phi: 0.0,
        };
        assert_eq!(m.grid_row(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn top_out_of_range_panics() {
        let _ = UnitaryMesh::from_physical_order(2, &[(1, 0.0, 0.0)], vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "n entries")]
    fn wrong_phase_screen_panics() {
        let _ = UnitaryMesh::from_physical_order(2, &[(0, 0.0, 0.0)], vec![0.0; 3]);
    }
}
