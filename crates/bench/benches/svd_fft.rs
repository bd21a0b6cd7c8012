//! Criterion bench: numerical kernels — complex SVD (weight-matrix
//! factorization), the 2-D FFT feature pipeline, and the test split built
//! on it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnn_dataset::{fft_features, DatasetConfig, ImageGenerator, SpnnDataset};
use spnn_linalg::random::gaussian_complex;
use spnn_linalg::svd::svd;
use spnn_linalg::CMatrix;

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    for (rows, cols) in [(10usize, 16usize), (16, 16), (32, 32)] {
        let a = CMatrix::from_fn(rows, cols, |_, _| gaussian_complex(&mut rng));
        group.bench_with_input(
            BenchmarkId::new("jacobi", format!("{rows}x{cols}")),
            &a,
            |b, a| b.iter(|| svd(std::hint::black_box(a)).unwrap()),
        );
    }
    group.finish();
}

fn bench_fft_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_features");
    group.sample_size(30);
    let gen = ImageGenerator::default();
    let mut rng = StdRng::seed_from_u64(6);
    let img = gen.render(5, &mut rng);
    for crop in [4usize, 8, 28] {
        group.bench_with_input(
            BenchmarkId::new("shifted_fft_crop", crop),
            &crop,
            |b, &k| b.iter(|| fft_features(std::hint::black_box(&img), k)),
        );
    }
    group.finish();
}

/// The 1000-sample test split that every run and every served request
/// regenerates: rendering plus one planned feature transform per split.
fn bench_test_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset");
    group.sample_size(10);
    let config = DatasetConfig {
        n_train: 0,
        n_test: 1000,
        crop: 4,
        seed: 7,
    };
    group.bench_function("test_split_1000", |b| {
        b.iter(|| SpnnDataset::generate(std::hint::black_box(&config)))
    });
    group.finish();
}

criterion_group!(benches, bench_svd, bench_fft_features, bench_test_split);
criterion_main!(benches);
