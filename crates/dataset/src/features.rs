//! The paper's feature pipeline (§III-D): shifted 2-D FFT → central crop →
//! complex feature vector.
//!
//! "To convert the 28×28 = 784 dimensional real-valued images … to
//! complex-valued vectors, we consider the shifted fast Fourier transform of
//! each image … To compress the feature vector, we consider the values
//! within \[a\] 4×4 region at the center of the frequency spectrum."
//!
//! The low-frequency center of the shifted spectrum carries most of the
//! image energy, which is why a 4×4 crop (16 complex values) retains enough
//! information — the paper reports only a 6.77-point accuracy drop versus
//! the full 784-dimensional spectrum.
//!
//! [`FeatureExtractor`] computes only what the crop keeps. The row pass
//! transforms every row, because each spectrum column mixes all of them.
//! The column pass then transforms only the `crop` columns that `fftshift`
//! moves into the central block, and reads the kept rows straight out of
//! them: 28 + 4 length-28 transforms per image instead of 56, with no
//! shifted or cropped copies of the spectrum. Every retained value comes
//! from the same arithmetic as the full `fftshift(fft2(..))` pipeline, so
//! the features are bit-identical to it.

use crate::generator::GrayImage;
use spnn_linalg::fft::{Direction, FftPlan};
use spnn_linalg::C64;

/// The planned shifted-FFT feature transform for one image side and crop.
///
/// Holds one [`FftPlan`] of the image side (shared by both passes) and the
/// pass buffers, so extracting a whole split plans and allocates the
/// transform once. See [`fft_features`] for the features themselves.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    plan: FftPlan,
    /// Spectrum indices that `fftshift` moves into the central crop, in
    /// crop order. Rows and columns keep the same set.
    kept: Vec<usize>,
    /// Row-pass output, row-major `side × side`.
    rows: Vec<C64>,
    /// One column of the row-pass output, transformed in place.
    column: Vec<C64>,
}

impl FeatureExtractor {
    /// Plans the transform for `side × side` images and a central
    /// `crop × crop` block.
    ///
    /// # Panics
    ///
    /// Panics if `crop` is zero or exceeds `side`.
    pub fn new(side: usize, crop: usize) -> Self {
        assert!(crop > 0 && crop <= side, "crop must be in 1..=side");
        // `fftshift` moves spectrum index i to (i + side/2) mod side; the
        // crop keeps shifted indices start..start + crop.
        let start = side / 2 - crop / 2;
        let kept = (start..start + crop)
            .map(|s| (s + side - side / 2) % side)
            .collect();
        FeatureExtractor {
            plan: FftPlan::new(side, Direction::Forward),
            kept,
            rows: vec![C64::zero(); side * side],
            column: vec![C64::zero(); side],
        }
    }

    /// The complex feature vector of `image` (see [`fft_features`]).
    ///
    /// # Panics
    ///
    /// Panics if the image side differs from the planned side.
    pub fn extract(&mut self, image: &GrayImage) -> Vec<C64> {
        let mut features = vec![C64::zero(); self.dim()];
        self.extract_into(image, &mut features);
        features
    }

    /// Length of a feature vector: `crop²`.
    pub(crate) fn dim(&self) -> usize {
        self.kept.len() * self.kept.len()
    }

    /// [`FeatureExtractor::extract`] into a caller-owned `crop²` slice.
    pub(crate) fn extract_into(&mut self, image: &GrayImage, features: &mut [C64]) {
        let side = self.plan.len();
        assert_eq!(image.side(), side, "image side differs from the plan");

        for (row, pixels) in self
            .rows
            .chunks_exact_mut(side)
            .zip(image.pixels().chunks_exact(side))
        {
            for (z, &p) in row.iter_mut().zip(pixels) {
                *z = C64::from(p);
            }
            self.plan.process(row);
        }

        let crop = self.kept.len();
        assert_eq!(
            features.len(),
            self.dim(),
            "feature slice differs from the crop"
        );
        for (j, &c) in self.kept.iter().enumerate() {
            for (r, z) in self.column.iter_mut().enumerate() {
                *z = self.rows[r * side + c];
            }
            self.plan.process(&mut self.column);
            for (i, &r) in self.kept.iter().enumerate() {
                features[i * crop + j] = self.column[r];
            }
        }

        let norm = spnn_linalg::vector::norm(features);
        if norm > f64::MIN_POSITIVE {
            for f in features {
                *f = *f / norm;
            }
        }
    }
}

/// Computes the complex feature vector of an image: 2-D FFT, `fftshift`,
/// central `crop × crop` block, flattened row-major and normalized to unit
/// L2 norm (constant optical input power).
///
/// Plans a one-shot [`FeatureExtractor`]; keep one instead to extract many
/// images of the same side.
///
/// # Panics
///
/// Panics if `crop` is zero or exceeds the image side.
///
/// # Example
///
/// ```
/// use spnn_dataset::{fft_features, GrayImage};
///
/// let mut img = GrayImage::black(28);
/// img.set(14, 14, 1.0);
/// let f = fft_features(&img, 4);
/// assert_eq!(f.len(), 16);
/// ```
pub fn fft_features(image: &GrayImage, crop: usize) -> Vec<C64> {
    FeatureExtractor::new(image.side(), crop).extract(image)
}

/// The full flattened shifted spectrum (784 complex features for a 28×28
/// image) — the paper's uncompressed baseline encoding.
pub fn full_spectrum_features(image: &GrayImage) -> Vec<C64> {
    fft_features(image, image.side())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ImageGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spnn_linalg::fft::{dft_naive, fft2, fftshift};
    use spnn_linalg::vector::norm_sq;
    use spnn_linalg::CMatrix;

    /// The full-spectrum pipeline — 2-D FFT of the whole image, `fftshift`,
    /// then the central block, normalized — kept as the bit-level oracle.
    /// Takes the shifted spectrum so one transform serves every crop.
    fn crop_of_shifted(shifted: &CMatrix, crop: usize) -> Vec<C64> {
        let start = shifted.rows() / 2 - crop / 2;
        let mut features = shifted.block(start, start, crop, crop).into_vec();
        let norm = spnn_linalg::vector::norm(&features);
        if norm > f64::MIN_POSITIVE {
            for f in &mut features {
                *f = *f / norm;
            }
        }
        features
    }

    fn shifted_spectrum(image: &GrayImage) -> CMatrix {
        let side = image.side();
        let complex_img = CMatrix::from_fn(side, side, |r, c| C64::from(image.get(r, c)));
        fftshift(&fft2(&complex_img, Direction::Forward))
    }

    fn assert_same_bits(got: &[C64], want: &[C64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{what}: feature {k}: {a} != {b}"
            );
        }
    }

    #[test]
    fn bits_match_full_spectrum_pipeline() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(24);
        let crops = [1usize, 2, 3, 4, 8, 28];
        // One extractor per crop, reused across every image.
        let mut extractors: Vec<_> = crops
            .iter()
            .map(|&k| FeatureExtractor::new(28, k))
            .collect();
        for n in 0..200 {
            let img = gen.render(n % 10, &mut rng);
            let shifted = shifted_spectrum(&img);
            for (ex, &crop) in extractors.iter_mut().zip(&crops) {
                let what = format!("image {n}, crop {crop}");
                assert_same_bits(&ex.extract(&img), &crop_of_shifted(&shifted, crop), &what);
            }
        }
    }

    #[test]
    fn bits_match_full_spectrum_pipeline_other_sides() {
        // Odd sides exercise fftshift's uneven halves, side 8 the radix-2
        // path of the plan.
        let mut rng = StdRng::seed_from_u64(25);
        for side in [5usize, 7, 8, 9] {
            let mut img = GrayImage::black(side);
            for r in 0..side {
                for c in 0..side {
                    img.set(r, c, rng.gen::<f64>());
                }
            }
            let shifted = shifted_spectrum(&img);
            for crop in 1..=side {
                let what = format!("side {side}, crop {crop}");
                assert_same_bits(
                    &fft_features(&img, crop),
                    &crop_of_shifted(&shifted, crop),
                    &what,
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "image side")]
    fn extractor_rejects_other_sides() {
        let _ = FeatureExtractor::new(28, 4).extract(&GrayImage::black(8));
    }

    #[test]
    fn feature_count_is_crop_squared() {
        let img = GrayImage::black(28);
        for crop in [1usize, 2, 4, 8, 28] {
            // All-black image gives zero vector (norm guard path).
            assert_eq!(fft_features(&img, crop).len(), crop * crop);
        }
    }

    #[test]
    fn unit_norm_for_nonzero_images() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(20);
        let img = gen.render(4, &mut rng);
        let f = fft_features(&img, 4);
        assert!((norm_sq(&f) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_image_gives_zero_features() {
        let img = GrayImage::black(28);
        let f = fft_features(&img, 4);
        assert!(f.iter().all(|z| z.abs() == 0.0));
    }

    #[test]
    fn dc_component_lands_in_crop_center() {
        // A constant image has all spectral energy at DC, which fftshift
        // moves to (14, 14); the 4×4 crop starting at 12 covers it at (2,2).
        let mut img = GrayImage::black(28);
        for r in 0..28 {
            for c in 0..28 {
                img.set(r, c, 0.5);
            }
        }
        let f = fft_features(&img, 4);
        // Feature index (2,2) → 2*4+2 = 10 holds everything.
        for (i, z) in f.iter().enumerate() {
            if i == 10 {
                assert!((z.abs() - 1.0).abs() < 1e-10, "DC magnitude {}", z.abs());
            } else {
                assert!(z.abs() < 1e-10, "leak at {i}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft_pipeline() {
        // Cross-check the whole pipeline against an O(n⁴) direct DFT.
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(21);
        let img = gen.render(2, &mut rng);
        let n = img.side();

        // Naive 2-D DFT.
        let mut rows_t = Vec::with_capacity(n);
        for r in 0..n {
            let row: Vec<C64> = (0..n).map(|c| C64::from(img.get(r, c))).collect();
            rows_t.push(dft_naive(&row, Direction::Forward));
        }
        let mut full = CMatrix::zeros(n, n);
        for c in 0..n {
            let col: Vec<C64> = (0..n).map(|r| rows_t[r][c]).collect();
            let t = dft_naive(&col, Direction::Forward);
            for (r, z) in t.into_iter().enumerate() {
                full[(r, c)] = z;
            }
        }
        let shifted = fftshift(&full);
        let start = n / 2 - 2;
        let mut expect = shifted.block(start, start, 4, 4).into_vec();
        let norm = spnn_linalg::vector::norm(&expect);
        for e in &mut expect {
            *e = *e / norm;
        }

        let got = fft_features(&img, 4);
        for (a, b) in got.iter().zip(expect.iter()) {
            assert!(a.approx_eq(*b, 1e-8), "{a} vs {b}");
        }
    }

    #[test]
    fn full_spectrum_has_784_features() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(22);
        let img = gen.render(9, &mut rng);
        assert_eq!(full_spectrum_features(&img).len(), 784);
    }

    #[test]
    fn translation_changes_phase_not_center_magnitude_much() {
        // Fourier shift theorem: translating the digit mostly rotates the
        // phases of low-frequency coefficients; magnitudes move less. This
        // is why complex features (not just magnitudes) matter.
        let gen = ImageGenerator {
            noise_sigma: 0.0,
            max_shift: 0.0,
            max_rotation: 0.0,
            max_shear: 0.0,
            scale_range: (1.0, 1.0),
            dilate_prob: 0.0,
            ..ImageGenerator::default()
        };
        let mut rng = StdRng::seed_from_u64(23);
        let img = gen.render(3, &mut rng);
        // Manual 2-px translation.
        let mut shifted_img = GrayImage::black(28);
        for r in 0..26 {
            for c in 0..26 {
                shifted_img.set(r + 2, c + 2, img.get(r, c));
            }
        }
        let a = fft_features(&img, 4);
        let b = fft_features(&shifted_img, 4);
        // Magnitude spectra are close…
        let mag_dist: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x.abs() - y.abs()).abs())
            .sum();
        // …while the complex vectors differ appreciably (phases rotated).
        let vec_dist: f64 = a.iter().zip(b.iter()).map(|(x, y)| (*x - *y).abs()).sum();
        assert!(
            mag_dist < 0.5 * vec_dist,
            "mag {mag_dist} vs vec {vec_dist}"
        );
    }

    #[test]
    #[should_panic(expected = "crop")]
    fn oversized_crop_panics() {
        let img = GrayImage::black(8);
        let _ = fft_features(&img, 9);
    }
}
