//! Complex-valued neural networks with Wirtinger-calculus backpropagation.
//!
//! The SPNN of the paper (§III-D) is trained *in software* before being
//! mapped onto photonic hardware. Its architecture:
//!
//! - complex-valued inputs (shifted-FFT features of MNIST-style images),
//! - fully connected complex linear layers (no bias — a photonic mesh
//!   realizes a pure matrix product),
//! - the **Softplus-on-modulus** activation after each hidden linear layer,
//! - a **modulus-squared** intensity readout after the output layer
//!   (photodetectors measure power, not field),
//! - **LogSoftMax** + cross-entropy loss.
//!
//! No Rust deep-learning ecosystem is assumed: gradients are derived by
//! hand. A real-valued loss `L` over complex parameters is differentiated
//! by packing `(∂L/∂Re, ∂L/∂Im)` into a `C64`; the backward rules used here
//! (and pinned by finite-difference tests):
//!
//! - linear layer `z = W·a`: `∇W = g_z·aᴴ`, `g_a = Wᴴ·g_z`,
//! - softplus-on-modulus `a = ln(1+e^{|z|})`: `g_z = Re(g_a)·σ(|z|)·z/|z|`,
//! - intensity `o = |z|²`: `g_z = 2·(∂L/∂o)·z`,
//! - log-softmax + NLL: `∂L/∂o = softmax(o) − onehot(label)`.
//!
//! # Example
//!
//! ```
//! use spnn_neural::ComplexNetwork;
//! use spnn_linalg::C64;
//!
//! let net = ComplexNetwork::new(&[4, 8, 3], 42);
//! let input = vec![C64::new(0.5, 0.1); 4];
//! let logits = net.forward(&input);
//! assert_eq!(logits.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod layer;
pub mod loss;
mod minibatch;
pub mod network;
pub mod optimizer;
pub mod training;

pub use layer::DenseLayer;
pub use minibatch::TrainScratch;
pub use network::ComplexNetwork;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use training::{train, train_noise_aware, NoiseAwareConfig, TrainConfig, TrainReport};
