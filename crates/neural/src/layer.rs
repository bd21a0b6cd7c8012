//! Complex fully connected (dense) layer — the software twin of a photonic
//! linear multiplier.
//!
//! No bias term: an MZI mesh realizes a pure matrix–vector product, so the
//! trained network must be bias-free for the hardware mapping `M = U·Σ·Vᴴ`
//! to be exact.

use rand::Rng;
use spnn_linalg::random::gaussian;
use spnn_linalg::{CMatrix, C64};

/// A complex dense layer `z = W·a` with gradient accumulation.
///
/// # Example
///
/// ```
/// use spnn_neural::DenseLayer;
/// use spnn_linalg::C64;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let layer = DenseLayer::glorot(3, 2, &mut rng);
/// let out = layer.forward(&[C64::one(), C64::i()]);
/// assert_eq!(out.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DenseLayer {
    weight: CMatrix,
    grad: CMatrix,
}

impl DenseLayer {
    /// Creates a layer with complex Glorot initialization: each of the real
    /// and imaginary parts is `N(0, 1/(fan_in + fan_out))`, giving the
    /// complex entries variance `2/(fan_in + fan_out)`.
    pub fn glorot<R: Rng + ?Sized>(out_dim: usize, in_dim: usize, rng: &mut R) -> Self {
        let std = (1.0 / (in_dim + out_dim) as f64).sqrt();
        let weight = CMatrix::from_fn(out_dim, in_dim, |_, _| {
            C64::new(gaussian(rng) * std, gaussian(rng) * std)
        });
        let grad = CMatrix::zeros(out_dim, in_dim);
        Self { weight, grad }
    }

    /// Creates a layer with explicit weights.
    pub fn from_weights(weight: CMatrix) -> Self {
        let grad = CMatrix::zeros(weight.rows(), weight.cols());
        Self { weight, grad }
    }

    /// Output dimension.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Input dimension.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    #[inline]
    pub fn weight(&self) -> &CMatrix {
        &self.weight
    }

    /// Mutable access to the weight matrix (used by optimizers).
    #[inline]
    pub fn weight_mut(&mut self) -> &mut CMatrix {
        &mut self.weight
    }

    /// The accumulated gradient.
    #[inline]
    pub fn grad(&self) -> &CMatrix {
        &self.grad
    }

    /// Mutable access to the accumulated gradient (used by trainers that
    /// compute gradients at a surrogate point, e.g. noise-aware training).
    #[inline]
    pub fn grad_mut(&mut self) -> &mut CMatrix {
        &mut self.grad
    }

    /// The weight matrix and the accumulated gradient together (used by
    /// optimizers and the mini-batch backward, which read one while
    /// writing the other).
    #[inline]
    pub(crate) fn weight_and_grad_mut(&mut self) -> (&mut CMatrix, &mut CMatrix) {
        (&mut self.weight, &mut self.grad)
    }

    /// Forward pass `z = W·a`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim()`.
    pub fn forward(&self, input: &[C64]) -> Vec<C64> {
        self.weight.mul_vec(input)
    }

    /// Backward pass: accumulates `∇W += g_z·aᴴ` and returns
    /// `g_a = Wᴴ·g_z`.
    ///
    /// `input` must be the same activation vector given to
    /// [`DenseLayer::forward`].
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `input`/`grad_out` do not match the layer.
    pub fn backward(&mut self, input: &[C64], grad_out: &[C64]) -> Vec<C64> {
        assert_eq!(input.len(), self.in_dim(), "input dim mismatch");
        assert_eq!(grad_out.len(), self.out_dim(), "grad dim mismatch");
        // ∇W[r][c] += g_z[r]·conj(a[c])
        for (r, &g) in grad_out.iter().enumerate() {
            for (c, a) in input.iter().enumerate() {
                let upd = g * a.conj();
                self.grad[(r, c)] += upd;
            }
        }
        self.weight.adjoint_mul_vec(grad_out)
    }

    /// Zeroes the accumulated gradient (call between optimizer steps).
    pub fn zero_grad(&mut self) {
        for g in self.grad.as_mut_slice() {
            *g = C64::zero();
        }
    }

    /// Scales the accumulated gradient (e.g. by `1/batch_size`).
    pub fn scale_grad(&mut self, k: f64) {
        for g in self.grad.as_mut_slice() {
            *g = g.scale(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_is_matrix_vector() {
        let w = CMatrix::from_fn(2, 3, |r, c| C64::new(r as f64, c as f64));
        let layer = DenseLayer::from_weights(w.clone());
        let a = vec![C64::one(), C64::i(), C64::new(1.0, 1.0)];
        let z = layer.forward(&a);
        let expect = w.mul_vec(&a);
        for (x, y) in z.iter().zip(expect.iter()) {
            assert!(x.approx_eq(*y, 1e-14));
        }
    }

    #[test]
    fn glorot_variance_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = DenseLayer::glorot(64, 64, &mut rng);
        let var: f64 = layer
            .weight()
            .as_slice()
            .iter()
            .map(|z| z.abs_sq())
            .sum::<f64>()
            / (64.0 * 64.0);
        // E|w|² = 2/(fan_in+fan_out) = 2/128.
        assert!((var / (2.0 / 128.0) - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn backward_weight_gradient_matches_finite_difference() {
        // L = Σᵢ wᵢ·Re(zᵢ) + vᵢ·Im(zᵢ) for fixed (w, v): grad_out packs (w, v).
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = DenseLayer::glorot(2, 3, &mut rng);
        let a = vec![C64::new(0.5, -0.2), C64::new(-1.0, 0.3), C64::new(0.1, 0.9)];
        let grad_out = vec![C64::new(0.7, -0.4), C64::new(-0.2, 1.1)];
        layer.zero_grad();
        let _ = layer.backward(&a, &grad_out);

        let loss = |w: &CMatrix| -> f64 {
            let z = w.mul_vec(&a);
            z.iter()
                .zip(grad_out.iter())
                .map(|(zi, gi)| gi.re * zi.re + gi.im * zi.im)
                .sum()
        };
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut wp = layer.weight().clone();
                wp[(r, c)].re += h;
                let mut wm = layer.weight().clone();
                wm[(r, c)].re -= h;
                let fd_re = (loss(&wp) - loss(&wm)) / (2.0 * h);
                assert!(
                    (fd_re - layer.grad()[(r, c)].re).abs() < 1e-6,
                    "∂L/∂Re W[{r}][{c}]"
                );
                let mut wp = layer.weight().clone();
                wp[(r, c)].im += h;
                let mut wm = layer.weight().clone();
                wm[(r, c)].im -= h;
                let fd_im = (loss(&wp) - loss(&wm)) / (2.0 * h);
                assert!(
                    (fd_im - layer.grad()[(r, c)].im).abs() < 1e-6,
                    "∂L/∂Im W[{r}][{c}]"
                );
            }
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = DenseLayer::glorot(3, 2, &mut rng);
        let a = vec![C64::new(0.4, 0.6), C64::new(-0.8, 0.1)];
        let grad_out = vec![C64::new(1.0, 0.0), C64::new(0.0, 1.0), C64::new(-0.5, 0.5)];
        let g_a = layer.backward(&a, &grad_out);

        let loss = |aa: &[C64]| -> f64 {
            let z = layer.forward(aa);
            z.iter()
                .zip(grad_out.iter())
                .map(|(zi, gi)| gi.re * zi.re + gi.im * zi.im)
                .sum()
        };
        let h = 1e-6;
        for i in 0..2 {
            let mut ap = a.clone();
            ap[i].re += h;
            let mut am = a.clone();
            am[i].re -= h;
            assert!(((loss(&ap) - loss(&am)) / (2.0 * h) - g_a[i].re).abs() < 1e-6);
            let mut ap = a.clone();
            ap[i].im += h;
            let mut am = a.clone();
            am[i].im -= h;
            assert!(((loss(&ap) - loss(&am)) / (2.0 * h) - g_a[i].im).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_accumulates_across_calls() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = DenseLayer::glorot(2, 2, &mut rng);
        let a = vec![C64::one(), C64::i()];
        let g = vec![C64::one(), C64::one()];
        layer.zero_grad();
        let _ = layer.backward(&a, &g);
        let first = layer.grad().clone();
        let _ = layer.backward(&a, &g);
        let doubled = layer.grad().clone();
        assert!(doubled.approx_eq(&first.scale_real(2.0), 1e-12));
        layer.zero_grad();
        assert!(layer.grad().max_abs() < 1e-15);
    }

    #[test]
    fn scale_grad_scales() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = DenseLayer::glorot(2, 2, &mut rng);
        let _ = layer.backward(&[C64::one(), C64::one()], &[C64::one(), C64::one()]);
        let before = layer.grad().clone();
        layer.scale_grad(0.5);
        assert!(layer.grad().approx_eq(&before.scale_real(0.5), 1e-14));
    }
}
