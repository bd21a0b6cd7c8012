//! Monte-Carlo seeding and the per-sample reference estimator.
//!
//! The paper runs 1000 Monte-Carlo iterations per data point and justifies
//! the count with a 95 %-confidence margin-of-error argument (§III-D). Here
//! each iteration `k` draws its hardware realization from
//! `StdRng::seed_from_u64(splitmix64(seed ⊕ k))` ([`iteration_rng`]), so an
//! estimate is a pure function of `(network, plan, effects, data,
//! iterations, seed)` — independent of who schedules the iterations.
//!
//! Experiments run on `spnn-engine`'s planned, batched, multi-threaded
//! runner. [`mc_accuracy`] is the definition that runner is tested
//! against: one thread, one [`PhotonicNetwork::realize`] and one
//! per-sample [`PhotonicNetwork::accuracy_with`] pass per iteration, and
//! no code shared with the batched path.

use crate::network::PhotonicNetwork;
use crate::perturbation::{HardwareEffects, PerturbationPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnn_linalg::C64;

/// Monte-Carlo accuracy estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    /// Mean accuracy over iterations, in `[0, 1]`.
    pub mean: f64,
    /// Sample standard deviation of the per-iteration accuracies.
    pub std_dev: f64,
    /// The raw per-iteration accuracies.
    pub samples: Vec<f64>,
}

impl McResult {
    /// Aggregates raw per-iteration accuracies.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Self {
            mean,
            std_dev: var.sqrt(),
            samples,
        }
    }

    /// 95 % margin of error of the mean (`1.96·σ/√n`) — the paper's §III-D
    /// statistic ("maximum margin of error … is 6.27 %").
    pub fn margin_of_error_95(&self) -> f64 {
        1.96 * self.std_dev / (self.samples.len() as f64).sqrt()
    }
}

/// SplitMix64 — decorrelates per-iteration seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The RNG seed of Monte-Carlo iteration `k` under base `seed`.
///
/// This is the seeding scheme of [`mc_accuracy`], exposed so external
/// drivers (the `spnn-engine` batched runner) can reproduce the exact
/// per-iteration realization stream: the estimate stays a pure function of
/// `(seed, k)` regardless of who schedules the iterations.
pub fn iteration_seed(seed: u64, k: usize) -> u64 {
    splitmix64(seed ^ (k as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// The fully-seeded RNG of Monte-Carlo iteration `k` (see
/// [`iteration_seed`]).
pub fn iteration_rng(seed: u64, k: usize) -> StdRng {
    StdRng::seed_from_u64(iteration_seed(seed, k))
}

/// Estimates mean inference accuracy under a perturbation plan — the
/// single-threaded per-sample reference.
///
/// Sample `k` is `network.accuracy_with(&network.realize(plan, effects,
/// &mut iteration_rng(seed, k)), features, labels)`.
///
/// # Panics
///
/// Panics if `iterations == 0`, `features.len() != labels.len()`, or the
/// test set is empty.
pub fn mc_accuracy(
    network: &PhotonicNetwork,
    plan: &PerturbationPlan,
    effects: &HardwareEffects,
    features: &[Vec<C64>],
    labels: &[usize],
    iterations: usize,
    seed: u64,
) -> McResult {
    assert!(iterations > 0, "need at least one iteration");
    assert_eq!(features.len(), labels.len(), "features/labels mismatch");
    let samples = (0..iterations)
        .map(|k| {
            let matrices = network.realize(plan, effects, &mut iteration_rng(seed, k));
            network.accuracy_with(&matrices, features, labels)
        })
        .collect();
    McResult::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MeshTopology;
    use spnn_neural::ComplexNetwork;
    use spnn_photonics::UncertaintySpec;

    fn setup() -> (PhotonicNetwork, Vec<Vec<C64>>, Vec<usize>) {
        let sw = ComplexNetwork::new(&[4, 4, 3], 31);
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        // A tiny labelled set: label = predicted class of the ideal network,
        // so nominal accuracy is 1 by construction.
        let features: Vec<Vec<C64>> = (0..12)
            .map(|i| {
                (0..4)
                    .map(|j| {
                        C64::new(
                            ((i * 7 + j * 3) % 5) as f64 * 0.2,
                            ((i + j) % 3) as f64 * 0.3,
                        )
                    })
                    .collect()
            })
            .collect();
        let ideal = hw.ideal_matrices();
        let labels: Vec<usize> = features
            .iter()
            .map(|f| hw.classify_with(&ideal, f))
            .collect();
        (hw, features, labels)
    }

    #[test]
    fn zero_uncertainty_keeps_nominal_accuracy() {
        let (hw, xs, ys) = setup();
        let r = mc_accuracy(
            &hw,
            &PerturbationPlan::None,
            &HardwareEffects::default(),
            &xs,
            &ys,
            3,
            1,
        );
        assert!((r.mean - 1.0).abs() < 1e-12);
        assert!(r.std_dev < 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let (hw, xs, ys) = setup();
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
        let fx = HardwareEffects::default();
        let a = mc_accuracy(&hw, &plan, &fx, &xs, &ys, 8, 42);
        let b = mc_accuracy(&hw, &plan, &fx, &xs, &ys, 8, 42);
        assert_eq!(a.samples, b.samples);
        let c = mc_accuracy(&hw, &plan, &fx, &xs, &ys, 8, 43);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn large_uncertainty_degrades_accuracy() {
        let (hw, xs, ys) = setup();
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.15));
        let r = mc_accuracy(&hw, &plan, &HardwareEffects::default(), &xs, &ys, 10, 7);
        assert!(r.mean < 1.0, "σ = 0.15 should break a few predictions");
    }

    #[test]
    fn batched_delegation_matches_the_per_sample_loop_bitwise() {
        // The batched path (realization plan + TestBatch) reproduces the
        // per-sample reference bit for bit, iteration by iteration.
        use crate::batched::TestBatch;
        use crate::network::{RealizationPlan, RealizeScratch};
        let (hw, xs, ys) = setup();
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.07));
        let fx = HardwareEffects::default();
        let r = mc_accuracy(&hw, &plan, &fx, &xs, &ys, 6, 11);
        let batch = TestBatch::new(&xs, &ys);
        let realization = RealizationPlan::new(&hw, &plan, &fx);
        let mut matrices = Vec::new();
        for (k, &s) in r.samples.iter().enumerate() {
            realization.realize_into(
                &mut iteration_rng(11, k),
                &mut RealizeScratch::default(),
                &mut matrices,
            );
            let batched = batch.accuracy_with(&hw, &matrices);
            assert_eq!(s.to_bits(), batched.to_bits(), "iteration {k}");
        }
    }

    #[test]
    fn result_statistics() {
        let r = McResult::from_samples(vec![0.5, 0.7, 0.9]);
        assert!((r.mean - 0.7).abs() < 1e-12);
        assert!((r.std_dev - 0.2).abs() < 1e-12);
        assert!(r.margin_of_error_95() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = McResult::from_samples(vec![]);
    }

    #[test]
    fn splitmix_decorrelates_consecutive_seeds() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10, "consecutive seeds too similar");
    }
}
