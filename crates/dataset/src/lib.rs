//! Synthetic MNIST-style digit dataset and the paper's shifted-FFT complex
//! feature pipeline.
//!
//! **Substitution notice** (see DESIGN.md §4): the original paper evaluates
//! on MNIST, whose files are not available in this offline environment. This
//! crate generates a *deterministic, seedable* 10-class handwritten-digit
//! substitute: each sample rasterizes a 5×7 stroke-template glyph into a
//! 28×28 grayscale image through a random affine transform (translation,
//! rotation, scale, shear), optional stroke thickening, intensity jitter and
//! Gaussian pixel noise. The classification problem has the same shape,
//! size and preprocessing as the paper's:
//!
//! 1. 28×28 real image → complex matrix,
//! 2. 2-D FFT → `fftshift` (paper: "shifted fast Fourier transform"),
//! 3. crop the central `k×k` of the spectrum (paper: k = 4),
//! 4. flatten to a `k²`-dimensional complex feature vector, normalized to
//!    unit optical power.
//!
//! Steps 2–3 run as one planned transform ([`FeatureExtractor`]): the
//! length-28 Bluestein FFT is planned once per split, and the column pass
//! transforms only the `k` columns the crop keeps (28 + 4 transforms per
//! image at k = 4, instead of 56). The features are bit-identical to the
//! full `fftshift(fft2(..))` pipeline; `tests/golden.rs` pins a digest of
//! the generated dataset. [`SpnnDataset::test_samples`] streams the test
//! split sample by sample, for callers that pack it straight into their
//! own layout.
//!
//! # Example
//!
//! ```
//! use spnn_dataset::{DatasetConfig, SpnnDataset};
//!
//! let data = SpnnDataset::generate(&DatasetConfig {
//!     n_train: 100,
//!     n_test: 20,
//!     crop: 4,
//!     seed: 1,
//! });
//! assert_eq!(data.train_features.len(), 100);
//! assert_eq!(data.train_features[0].len(), 16);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod features;
pub mod generator;
pub mod glyphs;

pub use features::{fft_features, FeatureExtractor};
pub use generator::{GrayImage, ImageGenerator};

use generator::IMAGE_SIDE;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spnn_linalg::C64;

/// Configuration for [`SpnnDataset::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetConfig {
    /// Number of training samples (class-balanced).
    pub n_train: usize,
    /// Number of test samples (class-balanced).
    pub n_test: usize,
    /// Side of the central spectrum crop (the paper uses 4 → 16 features).
    pub crop: usize,
    /// Master seed; the dataset is a pure function of this config.
    pub seed: u64,
}

impl Default for DatasetConfig {
    /// The paper's configuration: central 4×4 crop. Sample counts are
    /// scaled-down defaults suitable for tests; experiments override them.
    fn default() -> Self {
        Self {
            n_train: 2000,
            n_test: 500,
            crop: 4,
            seed: 0x5EED,
        }
    }
}

/// A ready-to-train dataset: complex FFT features plus labels.
#[derive(Debug, Clone)]
pub struct SpnnDataset {
    /// Training feature vectors (length `crop²` each).
    pub train_features: Vec<Vec<C64>>,
    /// Training labels in `0..10`.
    pub train_labels: Vec<usize>,
    /// Test feature vectors.
    pub test_features: Vec<Vec<C64>>,
    /// Test labels.
    pub test_labels: Vec<usize>,
}

impl SpnnDataset {
    /// Generates the dataset deterministically from the config.
    ///
    /// Train and test sets use disjoint RNG streams, so they never share
    /// samples; labels cycle `0..10` before shuffling, so classes are
    /// balanced to within one sample.
    pub fn generate(config: &DatasetConfig) -> Self {
        let (train_features, train_labels) =
            Samples::new(config.n_train, config.crop, config.seed ^ 0xA11CE).unzip();
        let (test_features, test_labels) = Self::test_samples(config).unzip();
        Self {
            train_features,
            train_labels,
            test_features,
            test_labels,
        }
    }

    /// The test split of [`SpnnDataset::generate`], sample by sample and
    /// bit for bit, without holding the whole split in memory. Ignores
    /// `n_train`: the split's RNG stream is independent of it.
    pub fn test_samples(config: &DatasetConfig) -> Samples {
        Samples::new(config.n_test, config.crop, config.seed ^ 0xB0B)
    }

    /// Number of classes (always 10 digits).
    pub fn n_classes(&self) -> usize {
        10
    }

    /// Feature dimensionality (`crop²`).
    pub fn feature_dim(&self) -> usize {
        self.train_features.first().map_or(0, |f| f.len())
    }
}

/// One split's `(features, label)` samples in generation order, rendered
/// and transformed lazily through one [`FeatureExtractor`] for the whole
/// split.
#[derive(Debug)]
pub struct Samples {
    generator: ImageGenerator,
    rng: StdRng,
    labels: std::vec::IntoIter<usize>,
    extractor: FeatureExtractor,
}

impl Samples {
    fn new(n: usize, crop: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
        labels.shuffle(&mut rng);
        Samples {
            generator: ImageGenerator::default(),
            rng,
            labels: labels.into_iter(),
            extractor: FeatureExtractor::new(IMAGE_SIDE, crop),
        }
    }
}

impl Iterator for Samples {
    type Item = (Vec<C64>, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let digit = self.labels.next()?;
        let image = self.generator.render(digit, &mut self.rng);
        Some((self.extractor.extract(&image), digit))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.labels.size_hint()
    }
}

impl ExactSizeIterator for Samples {}

#[cfg(test)]
mod tests {
    use super::*;
    use spnn_linalg::vector::norm_sq;

    fn small() -> DatasetConfig {
        DatasetConfig {
            n_train: 60,
            n_test: 30,
            crop: 4,
            seed: 42,
        }
    }

    #[test]
    fn shapes_and_counts() {
        let d = SpnnDataset::generate(&small());
        assert_eq!(d.train_features.len(), 60);
        assert_eq!(d.train_labels.len(), 60);
        assert_eq!(d.test_features.len(), 30);
        assert_eq!(d.feature_dim(), 16);
        assert_eq!(d.n_classes(), 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SpnnDataset::generate(&small());
        let b = SpnnDataset::generate(&small());
        assert_eq!(a.train_labels, b.train_labels);
        for (x, y) in a.train_features[0].iter().zip(b.train_features[0].iter()) {
            assert_eq!(x, y);
        }
        let c = SpnnDataset::generate(&DatasetConfig {
            seed: 43,
            ..small()
        });
        assert_ne!(a.train_labels, c.train_labels);
    }

    #[test]
    fn streamed_test_split_matches_generate_bits() {
        let d = SpnnDataset::generate(&small());
        let samples = SpnnDataset::test_samples(&small());
        assert_eq!(samples.len(), 30);
        let bits = |f: &[C64]| -> Vec<(u64, u64)> {
            f.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let mut n = 0;
        for ((f, y), (want_f, &want_y)) in samples.zip(d.test_features.iter().zip(&d.test_labels)) {
            assert_eq!(y, want_y);
            assert_eq!(bits(&f), bits(want_f));
            n += 1;
        }
        assert_eq!(n, 30);
    }

    #[test]
    fn classes_are_balanced() {
        let d = SpnnDataset::generate(&small());
        let mut counts = [0usize; 10];
        for &l in &d.train_labels {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 6), "{counts:?}");
    }

    #[test]
    fn features_are_unit_power() {
        let d = SpnnDataset::generate(&small());
        for f in d.train_features.iter().take(10) {
            assert!((norm_sq(f) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn train_test_streams_differ() {
        let d = SpnnDataset::generate(&small());
        // The first train and test samples of the same digit should not be
        // bit-identical.
        let digit = d.train_labels[0];
        let test_idx = d.test_labels.iter().position(|&l| l == digit).unwrap();
        let same = d.train_features[0]
            .iter()
            .zip(d.test_features[test_idx].iter())
            .all(|(a, b)| a == b);
        assert!(!same);
    }

    #[test]
    fn nearest_centroid_separates_classes() {
        // The synthetic problem must be learnable: a trivial nearest-centroid
        // classifier on the 16-dim complex features should beat chance by a
        // wide margin.
        let d = SpnnDataset::generate(&DatasetConfig {
            n_train: 400,
            n_test: 100,
            crop: 4,
            seed: 7,
        });
        let dim = d.feature_dim();
        let mut centroids = vec![vec![C64::zero(); dim]; 10];
        let mut counts = [0usize; 10];
        for (f, &l) in d.train_features.iter().zip(d.train_labels.iter()) {
            for (c, x) in centroids[l].iter_mut().zip(f.iter()) {
                *c += *x;
            }
            counts[l] += 1;
        }
        for (c, &n) in centroids.iter_mut().zip(counts.iter()) {
            for x in c.iter_mut() {
                *x = x.scale(1.0 / n as f64);
            }
        }
        let mut correct = 0;
        for (f, &l) in d.test_features.iter().zip(d.test_labels.iter()) {
            let mut best = (f64::INFINITY, 0);
            for (k, c) in centroids.iter().enumerate() {
                let dist: f64 = f
                    .iter()
                    .zip(c.iter())
                    .map(|(a, b)| (*a - *b).abs_sq())
                    .sum();
                if dist < best.0 {
                    best = (dist, k);
                }
            }
            if best.1 == l {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.test_labels.len() as f64;
        assert!(acc > 0.5, "nearest-centroid accuracy only {acc}");
    }
}
