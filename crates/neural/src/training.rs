//! Mini-batch training loop for the software SPNN.
//!
//! Deterministic given the seed: sample order is shuffled with a seeded RNG
//! and the optimizer state is rebuilt from scratch, so `train` is a pure
//! function of `(network, data, config)`.

use crate::minibatch::TrainScratch;
use crate::network::ComplexNetwork;
use crate::optimizer::{Adam, Optimizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spnn_linalg::C64;

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Print a line per epoch to stderr when `true`.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 32,
            learning_rate: 0.005,
            seed: 0xC0FFEE,
            verbose: false,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub loss_history: Vec<f64>,
    /// Final accuracy on the training set.
    pub train_accuracy: f64,
}

/// Trains `network` in place with Adam and returns the loss history.
///
/// # Panics
///
/// Panics if `features`/`labels` lengths differ, the set is empty, or the
/// batch size is zero.
///
/// # Example
///
/// ```
/// use spnn_neural::{ComplexNetwork, train, TrainConfig};
/// use spnn_linalg::C64;
///
/// // Two trivially separable classes on one complex feature.
/// let features = vec![vec![C64::new(1.0, 0.0)], vec![C64::new(0.05, 0.0)]];
/// let labels = vec![0, 1];
/// let mut net = ComplexNetwork::new(&[1, 4, 2], 3);
/// let cfg = TrainConfig { epochs: 200, batch_size: 2, ..TrainConfig::default() };
/// let report = train(&mut net, &features, &labels, &cfg);
/// assert!(report.train_accuracy > 0.99);
/// ```
pub fn train(
    network: &mut ComplexNetwork,
    features: &[Vec<C64>],
    labels: &[usize],
    config: &TrainConfig,
) -> TrainReport {
    assert_eq!(features.len(), labels.len(), "features/labels mismatch");
    assert!(!features.is_empty(), "training set must be non-empty");
    assert!(config.batch_size > 0, "batch size must be positive");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut optimizer = Adam::new(config.learning_rate);
    let mut scratch = TrainScratch::default();
    let mut order: Vec<usize> = (0..features.len()).collect();
    let mut loss_history = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size) {
            network.zero_grads();
            let batch_loss = network.backward_batch(features, labels, batch, &mut scratch);
            network.scale_grads(1.0 / batch.len() as f64);
            optimizer.step(network);
            epoch_loss += batch_loss;
        }
        let mean_loss = epoch_loss / features.len() as f64;
        loss_history.push(mean_loss);
        if config.verbose {
            eprintln!("epoch {epoch:>3}: loss {mean_loss:.4}");
        }
    }

    TrainReport {
        loss_history,
        train_accuracy: network.accuracy(features, labels),
    }
}

/// Noise-aware training configuration (the countermeasure of the paper's
/// ref. \[9\], Zhu et al. ICCAD 2020, approximated in weight space).
///
/// At every mini-batch the gradients are computed at a *perturbed* copy of
/// the weights, `W + ΔW` with `ΔW` i.i.d. complex Gaussian of standard
/// deviation `weight_sigma · rms(W)` per layer. Descending on gradients
/// sampled around the operating point steers training toward flat minima
/// that survive hardware perturbations — at some cost in nominal accuracy,
/// exactly the trade-off the paper cites ("the modified training method
/// also results in accuracy loss").
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseAwareConfig {
    /// Base training hyper-parameters.
    pub base: TrainConfig,
    /// Relative weight-noise level injected during training (0 disables,
    /// reducing to plain [`train`]).
    pub weight_sigma: f64,
}

/// Trains with per-batch weight-noise injection (see [`NoiseAwareConfig`]).
///
/// # Panics
///
/// Same contract as [`train`]; also panics if `weight_sigma < 0`.
pub fn train_noise_aware(
    network: &mut ComplexNetwork,
    features: &[Vec<C64>],
    labels: &[usize],
    config: &NoiseAwareConfig,
) -> TrainReport {
    assert!(
        config.weight_sigma >= 0.0,
        "weight sigma must be non-negative"
    );
    assert_eq!(features.len(), labels.len(), "features/labels mismatch");
    assert!(!features.is_empty(), "training set must be non-empty");
    assert!(config.base.batch_size > 0, "batch size must be positive");

    let mut rng = StdRng::seed_from_u64(config.base.seed);
    let mut noise_rng = StdRng::seed_from_u64(config.base.seed ^ 0xD1CE);
    let mut optimizer = Adam::new(config.base.learning_rate);
    let mut scratch = TrainScratch::default();
    let mut order: Vec<usize> = (0..features.len()).collect();
    let mut loss_history = Vec::with_capacity(config.base.epochs);

    for epoch in 0..config.base.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.base.batch_size) {
            // Gradients at a noisy copy of the weights.
            let mut noisy = network.clone();
            if config.weight_sigma > 0.0 {
                for layer in noisy.layers_mut() {
                    let rms = {
                        let w = layer.weight();
                        (w.as_slice().iter().map(|z| z.abs_sq()).sum::<f64>()
                            / w.as_slice().len() as f64)
                            .sqrt()
                    };
                    let sigma = config.weight_sigma * rms;
                    let w = layer.weight_mut();
                    for z in w.as_mut_slice() {
                        *z += spnn_linalg::random::gaussian_complex(&mut noise_rng).scale(sigma);
                    }
                }
            }
            noisy.zero_grads();
            let batch_loss = noisy.backward_batch(features, labels, batch, &mut scratch);
            noisy.scale_grads(1.0 / batch.len() as f64);
            // Copy the noisy-point gradients onto the clean network and step.
            for (clean, dirty) in network.layers_mut().iter_mut().zip(noisy.layers()) {
                clean
                    .grad_mut()
                    .as_mut_slice()
                    .copy_from_slice(dirty.grad().as_slice());
            }
            optimizer.step(network);
            epoch_loss += batch_loss;
        }
        let mean_loss = epoch_loss / features.len() as f64;
        loss_history.push(mean_loss);
        if config.base.verbose {
            eprintln!("noise-aware epoch {epoch:>3}: loss {mean_loss:.4}");
        }
    }

    TrainReport {
        loss_history,
        train_accuracy: network.accuracy(features, labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use spnn_linalg::random::gaussian_complex;

    /// A 3-class toy problem: class = phase sector of a dominant feature.
    fn toy_dataset(n: usize, seed: u64) -> (Vec<Vec<C64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let class = rng.gen_range(0..3usize);
            // Distinct complex prototypes + noise.
            let proto = match class {
                0 => [C64::new(1.5, 0.0), C64::new(0.0, 0.0)],
                1 => [C64::new(0.0, 1.5), C64::new(0.5, 0.0)],
                _ => [C64::new(-1.0, -1.0), C64::new(0.0, 1.0)],
            };
            let x: Vec<C64> = proto
                .iter()
                .map(|&p| p + gaussian_complex(&mut rng).scale(0.15))
                .collect();
            xs.push(x);
            ys.push(class);
        }
        (xs, ys)
    }

    #[test]
    fn training_reaches_high_accuracy_on_toy_problem() {
        let (xs, ys) = toy_dataset(300, 1);
        let mut net = ComplexNetwork::new(&[2, 8, 3], 2);
        let cfg = TrainConfig {
            epochs: 60,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 3,
            verbose: false,
        };
        let report = train(&mut net, &xs, &ys, &cfg);
        assert!(
            report.train_accuracy > 0.95,
            "accuracy {}",
            report.train_accuracy
        );
        // Loss went down substantially.
        let first = report.loss_history.first().unwrap();
        let last = report.loss_history.last().unwrap();
        assert!(last < &(first * 0.5), "loss {first} → {last}");
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = toy_dataset(100, 4);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut a = ComplexNetwork::new(&[2, 4, 3], 7);
        let mut b = ComplexNetwork::new(&[2, 4, 3], 7);
        let ra = train(&mut a, &xs, &ys, &cfg);
        let rb = train(&mut b, &xs, &ys, &cfg);
        assert_eq!(ra, rb);
        assert!(a.weights()[0].approx_eq(b.weights()[0], 0.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_panics() {
        let mut net = ComplexNetwork::new(&[2, 3], 1);
        let _ = train(&mut net, &[], &[], &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let mut net = ComplexNetwork::new(&[2, 3], 1);
        let xs = vec![vec![C64::one(); 2]];
        let cfg = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        let _ = train(&mut net, &xs, &[0], &cfg);
    }

    #[test]
    fn noise_aware_with_zero_sigma_still_learns() {
        let (xs, ys) = toy_dataset(200, 8);
        let mut net = ComplexNetwork::new(&[2, 8, 3], 9);
        let report = train_noise_aware(
            &mut net,
            &xs,
            &ys,
            &NoiseAwareConfig {
                base: TrainConfig {
                    epochs: 40,
                    learning_rate: 0.01,
                    ..TrainConfig::default()
                },
                weight_sigma: 0.0,
            },
        );
        assert!(report.train_accuracy > 0.9, "acc {}", report.train_accuracy);
    }

    /// Average accuracy of `net` under relative complex weight noise.
    fn noisy_weight_accuracy(
        net: &ComplexNetwork,
        xs: &[Vec<C64>],
        ys: &[usize],
        rel_sigma: f64,
        draws: usize,
    ) -> f64 {
        let mut acc = 0.0;
        for k in 0..draws {
            let mut rng = StdRng::seed_from_u64(500 + k as u64);
            let mut noisy = net.clone();
            for layer in noisy.layers_mut() {
                let rms = {
                    let w = layer.weight();
                    (w.as_slice().iter().map(|z| z.abs_sq()).sum::<f64>()
                        / w.as_slice().len() as f64)
                        .sqrt()
                };
                let sigma = rel_sigma * rms;
                for z in layer.weight_mut().as_mut_slice() {
                    *z += gaussian_complex(&mut rng).scale(sigma);
                }
            }
            acc += noisy.accuracy(xs, ys);
        }
        acc / draws as f64
    }

    #[test]
    fn noise_aware_training_improves_robustness() {
        let (xs, ys) = toy_dataset(300, 10);
        let base_cfg = TrainConfig {
            epochs: 60,
            learning_rate: 0.01,
            batch_size: 16,
            seed: 3,
            verbose: false,
        };
        let mut baseline = ComplexNetwork::new(&[2, 8, 3], 11);
        train(&mut baseline, &xs, &ys, &base_cfg);
        let mut hardened = ComplexNetwork::new(&[2, 8, 3], 11);
        train_noise_aware(
            &mut hardened,
            &xs,
            &ys,
            &NoiseAwareConfig {
                base: base_cfg,
                weight_sigma: 0.25,
            },
        );
        // Under strong weight noise, the hardened network holds up better.
        // 50 draws keep the Monte-Carlo error on each estimate well below
        // the 2-point comparison slack.
        let test_sigma = 0.35;
        let robust_base = noisy_weight_accuracy(&baseline, &xs, &ys, test_sigma, 50);
        let robust_hard = noisy_weight_accuracy(&hardened, &xs, &ys, test_sigma, 50);
        assert!(
            robust_hard > robust_base - 0.02,
            "noise-aware ({robust_hard:.3}) should not lose to baseline ({robust_base:.3}) under noise"
        );
        // And both networks still learned the task nominally.
        assert!(hardened.accuracy(&xs, &ys) > 0.85);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_sigma_panics() {
        let mut net = ComplexNetwork::new(&[2, 3], 1);
        let xs = vec![vec![C64::one(); 2]];
        let _ = train_noise_aware(
            &mut net,
            &xs,
            &[0],
            &NoiseAwareConfig {
                base: TrainConfig::default(),
                weight_sigma: -0.1,
            },
        );
    }
}
