//! The complex-valued feedforward network of paper §III-D.
//!
//! Architecture: complex dense layers with Softplus-on-modulus after every
//! hidden layer, and a modulus-squared intensity readout after the output
//! layer. The LogSoftMax + cross-entropy stage lives in [`crate::loss`].
//!
//! The paper's instance is `dims = [16, 16, 16, 10]`: three weight matrices
//! 16×16, 16×16 and 10×16 — exactly the ones later mapped onto MZI meshes.

use crate::activation::{intensity, mod_softplus};
use crate::layer::DenseLayer;
use crate::loss::{argmax, cross_entropy};
use crate::minibatch::{self, TrainScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnn_linalg::{CMatrix, C64};

/// A bias-free complex feedforward classifier.
///
/// # Example
///
/// ```
/// use spnn_neural::ComplexNetwork;
/// use spnn_linalg::C64;
///
/// // The paper's SPNN architecture: 16 → 16 → 16 → 10.
/// let net = ComplexNetwork::new(&[16, 16, 16, 10], 7);
/// assert_eq!(net.n_layers(), 3);
/// let out = net.forward(&vec![C64::one(); 16]);
/// assert_eq!(out.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ComplexNetwork {
    layers: Vec<DenseLayer>,
}

impl ComplexNetwork {
    /// Creates a network with Glorot-initialized layers.
    ///
    /// `dims` lists the layer widths input-first, e.g. `[16, 16, 16, 10]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "dims must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| DenseLayer::glorot(w[1], w[0], &mut rng))
            .collect();
        Self { layers }
    }

    /// Builds a network from explicit weight matrices (output-dim × input-dim
    /// each, consecutive shapes chaining).
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not chain or the list is empty.
    pub fn from_weights(weights: Vec<CMatrix>) -> Self {
        assert!(!weights.is_empty(), "need at least one layer");
        for pair in weights.windows(2) {
            assert_eq!(
                pair[1].cols(),
                pair[0].rows(),
                "layer shapes must chain: {}x{} then {}x{}",
                pair[0].rows(),
                pair[0].cols(),
                pair[1].rows(),
                pair[1].cols()
            );
        }
        Self {
            layers: weights.into_iter().map(DenseLayer::from_weights).collect(),
        }
    }

    /// Number of linear layers.
    #[inline]
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output dimension (number of classes).
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The layers (read-only).
    #[inline]
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable layer access (used by optimizers).
    #[inline]
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// The weight matrices, input layer first — the objects handed to the
    /// photonic mapping (`SVD → Clements meshes`).
    pub fn weights(&self) -> Vec<&CMatrix> {
        self.layers.iter().map(|l| l.weight()).collect()
    }

    /// Forward pass returning the output *intensities* `|z|²`
    /// (pre-LogSoftMax logits).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim()`.
    pub fn forward(&self, input: &[C64]) -> Vec<f64> {
        let mut a = input.to_vec();
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            let z = layer.forward(&a);
            a = if l < last { mod_softplus(&z) } else { z };
        }
        intensity(&a)
    }

    /// Predicted class for one input.
    pub fn predict(&self, input: &[C64]) -> usize {
        argmax(&self.forward(input))
    }

    /// Cross-entropy loss for one labelled sample.
    pub fn loss(&self, input: &[C64], label: usize) -> f64 {
        cross_entropy(&self.forward(input), label)
    }

    /// Backpropagates one labelled sample, *accumulating* weight gradients,
    /// and returns the sample loss. Call [`ComplexNetwork::zero_grads`]
    /// before each mini-batch and an optimizer step after.
    ///
    /// This is [`ComplexNetwork::backward_batch`] on a batch of one, with
    /// fresh scratch.
    pub fn backward(&mut self, input: &[C64], label: usize) -> f64 {
        self.backward_batch(&[input], &[label], &[0], &mut TrainScratch::default())
    }

    /// Backpropagates the samples `batch` (indices into `features` and
    /// `labels`), *accumulating* weight gradients, and returns the summed
    /// loss. Bit-identical to calling [`ComplexNetwork::backward`] on each
    /// sample in `batch` order and summing the losses from `0.0`, but the
    /// whole batch runs over split re/im planes in `scratch`, which a
    /// training loop reuses so that warm steps allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty, an index is out of range, an input has
    /// the wrong dimension, or a label is out of range.
    ///
    /// # Example
    ///
    /// ```
    /// use spnn_neural::{ComplexNetwork, TrainScratch};
    /// use spnn_linalg::C64;
    ///
    /// let xs = vec![vec![C64::one(); 4], vec![C64::i(); 4]];
    /// let ys = [0, 2];
    /// let mut batched = ComplexNetwork::new(&[4, 8, 3], 1);
    /// let mut one_by_one = batched.clone();
    /// let loss = batched.backward_batch(&xs, &ys, &[1, 0], &mut TrainScratch::default());
    /// let mut sum = 0.0;
    /// sum += one_by_one.backward(&xs[1], ys[1]);
    /// sum += one_by_one.backward(&xs[0], ys[0]);
    /// assert_eq!(loss.to_bits(), sum.to_bits());
    /// ```
    pub fn backward_batch<X: AsRef<[C64]>>(
        &mut self,
        features: &[X],
        labels: &[usize],
        batch: &[usize],
        scratch: &mut TrainScratch,
    ) -> f64 {
        assert!(!batch.is_empty(), "batch must be non-empty");
        minibatch::backward(&mut self.layers, features, labels, batch, scratch)
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Scales all accumulated gradients (e.g. by `1/batch_size`).
    pub fn scale_grads(&mut self, k: f64) {
        for layer in &mut self.layers {
            layer.scale_grad(k);
        }
    }

    /// Classification accuracy (fraction correct) over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn accuracy(&self, features: &[Vec<C64>], labels: &[usize]) -> f64 {
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        if features.is_empty() {
            return 0.0;
        }
        let correct = features
            .iter()
            .zip(labels.iter())
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / features.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{intensity_backward, mod_softplus_backward};
    use crate::loss::cross_entropy_grad;

    impl ComplexNetwork {
        /// The per-sample backward that [`ComplexNetwork::backward_batch`]
        /// replaced, kept as its bitwise oracle.
        fn backward_per_sample(&mut self, input: &[C64], label: usize) -> f64 {
            let last = self.layers.len() - 1;
            // Forward with caches: pre-activations z_l and activations a_l.
            let mut activations: Vec<Vec<C64>> = vec![input.to_vec()];
            let mut pre_acts: Vec<Vec<C64>> = Vec::with_capacity(self.layers.len());
            for (l, layer) in self.layers.iter().enumerate() {
                let z = layer.forward(activations.last().expect("non-empty"));
                if l < last {
                    activations.push(mod_softplus(&z));
                }
                pre_acts.push(z);
            }
            let z_out = pre_acts.last().expect("non-empty");
            let o = intensity(z_out);
            let loss_val = cross_entropy(&o, label);

            // Backward.
            let grad_o = cross_entropy_grad(&o, label);
            let mut g_z = intensity_backward(z_out, &grad_o);
            for l in (0..self.layers.len()).rev() {
                let g_a = self.layers[l].backward(&activations[l], &g_z);
                if l > 0 {
                    g_z = mod_softplus_backward(&pre_acts[l - 1], &g_a);
                }
            }
            loss_val
        }
    }

    fn tiny_net(seed: u64) -> ComplexNetwork {
        ComplexNetwork::new(&[3, 4, 2], seed)
    }

    #[test]
    fn dims_wire_up() {
        let net = ComplexNetwork::new(&[16, 16, 16, 10], 1);
        assert_eq!(net.n_layers(), 3);
        assert_eq!(net.in_dim(), 16);
        assert_eq!(net.out_dim(), 10);
        let shapes: Vec<(usize, usize)> = net.weights().iter().map(|w| w.shape()).collect();
        assert_eq!(shapes, vec![(16, 16), (16, 16), (10, 16)]);
    }

    #[test]
    fn forward_output_is_nonnegative_intensity() {
        let net = tiny_net(2);
        let out = net.forward(&[C64::new(0.5, -0.5), C64::one(), C64::i()]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn full_gradient_check() {
        // End-to-end finite-difference check of every weight component.
        let mut net = tiny_net(3);
        let input = vec![C64::new(0.4, -0.1), C64::new(-0.7, 0.2), C64::new(0.1, 0.8)];
        let label = 1;
        net.zero_grads();
        let _ = net.backward(&input, label);

        let h = 1e-6;
        for l in 0..net.n_layers() {
            let (rows, cols) = net.layers()[l].weight().shape();
            for r in 0..rows {
                for c in 0..cols {
                    for part in 0..2 {
                        let mut plus = net.clone();
                        let mut minus = net.clone();
                        {
                            let w = plus.layers_mut()[l].weight_mut();
                            if part == 0 {
                                w[(r, c)].re += h;
                            } else {
                                w[(r, c)].im += h;
                            }
                        }
                        {
                            let w = minus.layers_mut()[l].weight_mut();
                            if part == 0 {
                                w[(r, c)].re -= h;
                            } else {
                                w[(r, c)].im -= h;
                            }
                        }
                        let fd = (plus.loss(&input, label) - minus.loss(&input, label)) / (2.0 * h);
                        let g = net.layers()[l].grad()[(r, c)];
                        let analytic = if part == 0 { g.re } else { g.im };
                        assert!(
                            (fd - analytic).abs() < 1e-5,
                            "layer {l} W[{r}][{c}] part {part}: fd {fd} vs {analytic}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn backward_returns_same_loss_as_loss() {
        let mut net = tiny_net(4);
        let input = vec![C64::one(), C64::i(), C64::new(-0.3, 0.2)];
        let l1 = net.loss(&input, 0);
        let l2 = net.backward(&input, 0);
        assert!((l1 - l2).abs() < 1e-12);
    }

    #[test]
    fn from_weights_roundtrip() {
        let net = tiny_net(5);
        let weights: Vec<CMatrix> = net.weights().into_iter().cloned().collect();
        let rebuilt = ComplexNetwork::from_weights(weights);
        let input = vec![C64::new(0.1, 0.2); 3];
        let a = net.forward(&input);
        let b = rebuilt.forward(&input);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn mismatched_weights_panic() {
        let w1 = CMatrix::zeros(4, 3);
        let w2 = CMatrix::zeros(2, 5); // should be (_, 4)
        let _ = ComplexNetwork::from_weights(vec![w1, w2]);
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let net = tiny_net(6);
        let xs = vec![vec![C64::one(), C64::zero(), C64::zero()]; 4];
        let pred = net.predict(&xs[0]);
        let labels_right = vec![pred; 4];
        assert!((net.accuracy(&xs, &labels_right) - 1.0).abs() < 1e-15);
        let labels_wrong = vec![1 - pred; 4];
        assert!(net.accuracy(&xs, &labels_wrong) < 1e-15);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = tiny_net(9);
        let b = tiny_net(9);
        assert!(a.weights()[0].approx_eq(b.weights()[0], 0.0));
        let c = tiny_net(10);
        assert!(!a.weights()[0].approx_eq(c.weights()[0], 1e-6));
    }

    /// Deterministic pseudo-random inputs of dimension `dim`. Sample 0 is
    /// all zero, so its first-layer pre-activation is zero and the Softplus
    /// backward takes the `unit_or_zero` branch (|z| ≤ MIN_POSITIVE).
    fn oracle_inputs(n: usize, dim: usize) -> Vec<Vec<C64>> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|_| {
                        let z = C64::new(rnd(), rnd());
                        if i == 0 {
                            C64::zero()
                        } else {
                            z
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_same_grads(a: &ComplexNetwork, b: &ComplexNetwork, what: &str) {
        for (l, (x, y)) in a.layers().iter().zip(b.layers()).enumerate() {
            for (k, (p, q)) in x
                .grad()
                .as_slice()
                .iter()
                .zip(y.grad().as_slice())
                .enumerate()
            {
                assert!(
                    p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
                    "{what}: layer {l} element {k}: batched {p:?} vs per-sample {q:?}"
                );
            }
        }
    }

    #[test]
    fn batched_backward_is_bit_identical_to_per_sample_oracle() {
        for dims in [&[3usize, 4, 2][..], &[16, 16, 16, 10][..]] {
            let features = oracle_inputs(40, dims[0]);
            let out = dims[dims.len() - 1];
            let labels: Vec<usize> = (0..features.len()).map(|i| (i * 7 + 3) % out).collect();
            let mut scratch = TrainScratch::default();
            for n in [1usize, 5, 32, 33] {
                // A shuffled batch with the all-zero sample in the middle.
                let mut batch: Vec<usize> = (0..n).map(|i| (i * 17) % 40).collect();
                batch.rotate_right(n / 2);
                let mut batched = ComplexNetwork::new(dims, 21);
                let mut oracle = batched.clone();
                // Twice, so the second pass accumulates onto nonzero grads.
                for pass in 0..2 {
                    let loss = batched.backward_batch(&features, &labels, &batch, &mut scratch);
                    let mut expect = 0.0;
                    for &i in &batch {
                        expect += oracle.backward_per_sample(&features[i], labels[i]);
                    }
                    let what = format!("dims {dims:?}, batch {n}, pass {pass}");
                    assert_eq!(loss.to_bits(), expect.to_bits(), "{what}: loss");
                    assert_same_grads(&batched, &oracle, &what);
                }
            }
        }
    }

    #[test]
    fn one_sample_backward_matches_oracle() {
        let features = oracle_inputs(3, 3);
        let mut net = tiny_net(12);
        let mut oracle = net.clone();
        for (i, x) in features.iter().enumerate() {
            let loss = net.backward(x, i % 2);
            let expect = oracle.backward_per_sample(x, i % 2);
            assert_eq!(loss.to_bits(), expect.to_bits());
        }
        assert_same_grads(&net, &oracle, "one-sample backward");
    }
}
