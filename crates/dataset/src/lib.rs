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
//! Every render consumes the same number of RNG draws
//! ([`ImageGenerator::draws_per_render`]: 8, plus 2 per pixel with pixel
//! noise on), whatever the digit. So [`Samples::split`] can cut a split
//! into contiguous parts, each starting from the exact RNG state of its
//! first sample, whose concatenation is the sequential stream bit for bit.
//! [`SpnnDataset::generate`] renders each split that way, one part per
//! available core, into per-sample slots allocated up front.
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
use rand::{RngCore, SeedableRng};
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
    /// balanced to within one sample. Each split is rendered in
    /// [`Samples::split`] parts, one per available core, with the same
    /// bits as the sequential stream.
    pub fn generate(config: &DatasetConfig) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (train_features, train_labels) = Self::train_samples(config).collect_parts(cores);
        let (test_features, test_labels) = Self::test_samples(config).collect_parts(cores);
        Self {
            train_features,
            train_labels,
            test_features,
            test_labels,
        }
    }

    /// The training split of [`SpnnDataset::generate`], sample by sample
    /// and bit for bit. Ignores `n_test`.
    pub fn train_samples(config: &DatasetConfig) -> Samples {
        Samples::new(config.n_train, config.crop, config.seed ^ 0xA11CE)
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

    /// Cuts the remaining stream into at most `parts` contiguous parts of
    /// `⌈len / parts⌉` samples each (the last may be shorter), whose
    /// concatenation yields this stream bit for bit. Each part's RNG is
    /// stepped past the [`ImageGenerator::draws_per_render`] draws of every
    /// sample before it, so the parts can be rendered on separate threads.
    /// An empty stream, or one that fits a single part, comes back whole.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn split(mut self, parts: usize) -> Vec<Samples> {
        assert!(parts > 0, "a split needs at least one part");
        let chunk = self.len().div_ceil(parts);
        let skip = chunk * self.generator.draws_per_render();
        let mut out = Vec::with_capacity(parts.min(self.len()).max(1));
        while self.len() > chunk {
            let labels: Vec<usize> = self.labels.by_ref().take(chunk).collect();
            out.push(Samples {
                generator: self.generator,
                rng: self.rng.clone(),
                labels: labels.into_iter(),
                extractor: self.extractor.clone(),
            });
            for _ in 0..skip {
                self.rng.next_u64();
            }
        }
        out.push(self);
        out
    }

    /// Collects the stream into `(features, labels)`, rendering its
    /// [`Samples::split`] parts concurrently into feature vectors and
    /// labels allocated here, so no part allocates an output or copies one:
    /// the first part on the calling thread, each other part on a scoped
    /// thread of its own. A single part spawns nothing.
    fn collect_parts(self, parts: usize) -> (Vec<Vec<C64>>, Vec<usize>) {
        let n = self.len();
        let dim = self.extractor.dim();
        let mut features = vec![vec![C64::zero(); dim]; n];
        let mut labels = vec![0; n];
        std::thread::scope(|scope| {
            let (mut features, mut labels) = (features.as_mut_slice(), labels.as_mut_slice());
            let mut inline = None;
            for part in self.split(parts) {
                let (f, rest_f) = std::mem::take(&mut features).split_at_mut(part.len());
                let (l, rest_l) = std::mem::take(&mut labels).split_at_mut(part.len());
                (features, labels) = (rest_f, rest_l);
                let fill = move || part.fill(f, l);
                match inline {
                    None => inline = Some(fill),
                    Some(_) => {
                        scope.spawn(fill);
                    }
                }
            }
            if let Some(fill) = inline {
                fill();
            }
        });
        (features, labels)
    }

    /// Renders the stream into `features` and `labels`, one sample per
    /// slot, with the bits of [`Iterator::next`].
    fn fill(mut self, features: &mut [Vec<C64>], labels: &mut [usize]) {
        for (f, l) in features.iter_mut().zip(labels) {
            *l = self.labels.next().expect("one label per slot");
            let image = self.generator.render(*l, &mut self.rng);
            self.extractor.extract_into(&image, f);
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

    /// Every label and feature bit of a sample stream, in order.
    fn stream_bits(samples: impl Iterator<Item = (Vec<C64>, usize)>) -> Vec<(usize, Vec<u64>)> {
        samples
            .map(|(f, label)| {
                let bits = f.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]);
                (label, bits.collect())
            })
            .collect()
    }

    #[test]
    fn split_parts_concatenate_to_the_sequential_stream() {
        for n in [0, 1, 10, 23] {
            let config = DatasetConfig {
                n_test: n,
                ..small()
            };
            let sequential = stream_bits(SpnnDataset::test_samples(&config));
            assert_eq!(sequential.len(), n);
            for k in [1, 2, 3, 7, n.max(1), n + 5] {
                let parts = SpnnDataset::test_samples(&config).split(k);
                let chunk = n.div_ceil(k);
                let lens: Vec<usize> = parts.iter().map(ExactSizeIterator::len).collect();
                // Contiguous ⌈n/k⌉ parts, only the last one ragged, and at
                // least one part even for an empty stream.
                assert_eq!(lens.len(), n.div_ceil(chunk.max(1)).max(1), "n {n} k {k}");
                assert!(lens.len() <= k);
                assert!(lens[..lens.len() - 1].iter().all(|&len| len == chunk));
                assert_eq!(lens.iter().sum::<usize>(), n);
                let joined = stream_bits(parts.into_iter().flatten());
                assert!(joined == sequential, "n {n} k {k}: parts differ");
            }
        }
    }

    #[test]
    fn split_of_a_partly_consumed_stream_continues_it() {
        let mut samples = SpnnDataset::test_samples(&small());
        let head = stream_bits(samples.by_ref().take(4));
        let tail = stream_bits(samples.split(3).into_iter().flatten());
        let mut joined = head;
        joined.extend(tail);
        assert!(joined == stream_bits(SpnnDataset::test_samples(&small())));
    }

    #[test]
    fn parallel_collect_matches_the_sequential_stream() {
        for k in [1, 2, 3, 8] {
            let (features, labels) = SpnnDataset::test_samples(&small()).collect_parts(k);
            let joined = stream_bits(features.into_iter().zip(labels));
            assert!(
                joined == stream_bits(SpnnDataset::test_samples(&small())),
                "{k} parts"
            );
        }
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
