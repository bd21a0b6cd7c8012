//! First-order optimizers over complex parameters.
//!
//! Complex weights are optimized component-wise: the packed gradient
//! `∂L/∂Re + i·∂L/∂Im` is exactly the steepest-ascent direction of the
//! real-valued loss in `(Re, Im)` coordinates, so SGD and Adam apply
//! verbatim with the real and imaginary parts treated as independent
//! parameters (Adam's second moment is tracked per component).

use crate::network::ComplexNetwork;

/// A first-order optimizer stepping a [`ComplexNetwork`] using its
/// accumulated gradients.
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients. Does **not**
    /// zero the gradients — callers do that when starting the next batch.
    fn step(&mut self, network: &mut ComplexNetwork);
}

/// Plain stochastic gradient descent: `w ← w − lr·g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, network: &mut ComplexNetwork) {
        for layer in network.layers_mut() {
            let (w, grad) = layer.weight_and_grad_mut();
            for (wi, gi) in w.as_mut_slice().iter_mut().zip(grad.as_slice().iter()) {
                *wi -= gi.scale(self.lr);
            }
        }
    }
}

/// Adam (Kingma & Ba, 2015) with per-real-component moments.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    /// Per-layer first/second moments over interleaved (re, im) components.
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates Adam with standard hyper-parameters (β₁ = 0.9, β₂ = 0.999,
    /// ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, network: &ComplexNetwork) {
        if self.m.len() == network.n_layers() {
            return;
        }
        self.m = network
            .layers()
            .iter()
            .map(|l| vec![0.0; 2 * l.weight().as_slice().len()])
            .collect();
        self.v = self.m.clone();
    }
}

impl Optimizer for Adam {
    fn step(&mut self, network: &mut ComplexNetwork) {
        self.ensure_state(network);
        self.t += 1;
        let b1c = 1.0 - self.beta1.powi(self.t as i32);
        let b2c = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        for (layer, (m, v)) in network
            .layers_mut()
            .iter_mut()
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let (w, grad) = layer.weight_and_grad_mut();
            let step = |w: &mut f64, g: f64, m: &mut f64, v: &mut f64| {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / b1c;
                let v_hat = *v / b2c;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            };
            // The moments interleave (re, im) per weight; the gradient is
            // read in place.
            let moments = m.chunks_exact_mut(2).zip(v.chunks_exact_mut(2));
            for ((w, g), (m, v)) in w
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(moments)
            {
                let ([m_re, m_im], [v_re, v_im]) = (m, v) else {
                    unreachable!("chunks_exact_mut(2) yields pairs")
                };
                step(&mut w.re, g.re, m_re, v_re);
                step(&mut w.im, g.im, m_im, v_im);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnn_linalg::C64;

    /// One gradient-descent step on a 1-layer net must reduce the loss.
    fn loss_decreases_with<O: Optimizer>(mut opt: O) {
        let mut net = ComplexNetwork::new(&[4, 4, 3], 11);
        let input = vec![
            C64::new(0.5, 0.1),
            C64::new(-0.3, 0.4),
            C64::new(0.2, -0.2),
            C64::new(0.9, 0.0),
        ];
        let label = 2;
        let before = net.loss(&input, label);
        for _ in 0..20 {
            net.zero_grads();
            let _ = net.backward(&input, label);
            opt.step(&mut net);
        }
        let after = net.loss(&input, label);
        assert!(after < before, "loss should decrease: {before} → {after}");
    }

    #[test]
    fn sgd_reduces_loss() {
        loss_decreases_with(Sgd::new(0.05));
    }

    #[test]
    fn adam_reduces_loss() {
        loss_decreases_with(Adam::new(0.01));
    }

    #[test]
    fn adam_overfits_single_sample_to_high_confidence() {
        let mut net = ComplexNetwork::new(&[3, 6, 2], 13);
        let mut opt = Adam::new(0.02);
        let input = vec![C64::new(1.0, 0.5), C64::new(-0.5, 0.2), C64::new(0.1, -0.9)];
        for _ in 0..300 {
            net.zero_grads();
            let _ = net.backward(&input, 0);
            opt.step(&mut net);
        }
        assert!(net.loss(&input, 0) < 0.05, "should overfit one sample");
        assert_eq!(net.predict(&input), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_panics() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn adam_zero_lr_panics() {
        let _ = Adam::new(-1.0);
    }
}
