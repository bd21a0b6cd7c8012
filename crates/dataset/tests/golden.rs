//! Golden digest of the generated dataset.
//!
//! Every label and every feature bit of a small `SpnnDataset::generate` run
//! is folded into one FNV-1a 64 digest. Trained contexts, cache
//! fingerprints and every pinned report downstream depend on these bits, so
//! a change to rendering or to the feature transform that moves even one
//! ulp fails here first. The digest must never be regenerated to make a
//! speed change pass.
//!
//! The same digest is recomputed from each split cut into `Samples::split`
//! parts and rendered part by part, so the parallel path's bits are pinned
//! even where `generate` runs on a single core (one part).

use spnn_dataset::{DatasetConfig, Samples, SpnnDataset};
use spnn_linalg::C64;

/// FNV-1a 64-bit over a byte stream.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn split(&mut self, features: &[Vec<C64>], labels: &[usize]) {
        self.write(&(labels.len() as u64).to_le_bytes());
        for (f, &label) in features.iter().zip(labels) {
            self.write(&(label as u64).to_le_bytes());
            for z in f {
                self.write(&z.re.to_bits().to_le_bytes());
                self.write(&z.im.to_bits().to_le_bytes());
            }
        }
    }
}

const CONFIG: DatasetConfig = DatasetConfig {
    n_train: 120,
    n_test: 40,
    crop: 4,
    seed: 7,
};

const DIGEST: &str = "fc84829148cc2a4e";

#[test]
fn generated_dataset_bits_are_pinned() {
    let data = SpnnDataset::generate(&CONFIG);
    let mut h = Fnv1a::new();
    h.split(&data.train_features, &data.train_labels);
    h.split(&data.test_features, &data.test_labels);
    assert_eq!(format!("{:016x}", h.0), DIGEST);
}

#[test]
fn split_parts_reproduce_the_pinned_bits() {
    // Renders the parts back to front, so no part can lean on RNG state
    // left behind by the part before it.
    let render = |samples: Samples, k: usize| -> (Vec<Vec<C64>>, Vec<usize>) {
        let mut parts: Vec<Vec<(Vec<C64>, usize)>> = samples
            .split(k)
            .into_iter()
            .rev()
            .map(Iterator::collect)
            .collect();
        parts.reverse();
        parts.into_iter().flatten().unzip()
    };
    for k in [1, 3, 8] {
        let mut h = Fnv1a::new();
        let (f, l) = render(SpnnDataset::train_samples(&CONFIG), k);
        h.split(&f, &l);
        let (f, l) = render(SpnnDataset::test_samples(&CONFIG), k);
        h.split(&f, &l);
        assert_eq!(format!("{:016x}", h.0), DIGEST, "{k} parts");
    }
}
