//! Golden digests of trained networks.
//!
//! Every weight bit, every loss-history bit and the final train accuracy of
//! two small training runs on the generated dataset are folded into one
//! FNV-1a 64 digest each: plain [`train`] on the paper's 16-16-16-10
//! architecture, with a ragged last mini-batch, and [`train_noise_aware`]
//! with weight noise switched on. Trained contexts, cache fingerprints and
//! every pinned report downstream depend on these bits, so a trainer change
//! that moves even one ulp fails here first. The digests must never be
//! regenerated to make a speed change pass.

use spnn_dataset::{DatasetConfig, SpnnDataset};
use spnn_neural::{
    train, train_noise_aware, ComplexNetwork, NoiseAwareConfig, TrainConfig, TrainReport,
};

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

    fn f64(&mut self, x: f64) {
        self.write(&x.to_bits().to_le_bytes());
    }

    fn outcome(mut self, net: &ComplexNetwork, report: &TrainReport) -> String {
        for w in net.weights() {
            self.write(&(w.rows() as u64).to_le_bytes());
            self.write(&(w.cols() as u64).to_le_bytes());
            for z in w.as_slice() {
                self.f64(z.re);
                self.f64(z.im);
            }
        }
        self.write(&(report.loss_history.len() as u64).to_le_bytes());
        for &loss in &report.loss_history {
            self.f64(loss);
        }
        self.f64(report.train_accuracy);
        format!("{:016x}", self.0)
    }
}

/// 200 training samples: six full mini-batches of 32 and a ragged 8.
fn data() -> SpnnDataset {
    SpnnDataset::generate(&DatasetConfig {
        n_train: 200,
        n_test: 0,
        crop: 4,
        seed: 7,
    })
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 32,
        learning_rate: 0.01,
        seed: 7 ^ 0x22,
        verbose: false,
    }
}

#[test]
fn trained_fig4_network_bits_are_pinned() {
    let data = data();
    let mut net = ComplexNetwork::new(&[16, 16, 16, 10], 7 ^ 0x11);
    let report = train(
        &mut net,
        &data.train_features,
        &data.train_labels,
        &config(),
    );
    assert_eq!(Fnv1a::new().outcome(&net, &report), "956dfe226cf73fab");
}

#[test]
fn noise_aware_trained_network_bits_are_pinned() {
    let data = data();
    let mut net = ComplexNetwork::new(&[16, 12, 10], 5);
    let report = train_noise_aware(
        &mut net,
        &data.train_features,
        &data.train_labels,
        &NoiseAwareConfig {
            base: config(),
            weight_sigma: 0.1,
        },
    );
    assert_eq!(Fnv1a::new().outcome(&net, &report), "ccef728157c3231e");
}
