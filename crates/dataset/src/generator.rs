//! Procedural 28×28 digit-image renderer.
//!
//! Each call to [`ImageGenerator::render`] draws one digit through a random
//! affine transform (rotation, anisotropic scale, shear, translation) with
//! optional stroke dilation, intensity jitter and additive Gaussian pixel
//! noise — a deterministic, seedable stand-in for handwriting variability.

use crate::glyphs::{dilate, glyph, GLYPH_H, GLYPH_W};
use rand::Rng;
use spnn_linalg::random::gaussian;

/// Image side in pixels (matches MNIST).
pub const IMAGE_SIDE: usize = 28;

/// A grayscale image with values in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    side: usize,
    pixels: Vec<f64>,
}

impl GrayImage {
    /// Creates an all-black square image.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`.
    pub fn black(side: usize) -> Self {
        assert!(side > 0, "image side must be positive");
        Self {
            side,
            pixels: vec![0.0; side * side],
        }
    }

    /// Image side length in pixels.
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Pixel at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.side && col < self.side, "pixel out of bounds");
        self.pixels[row * self.side + col]
    }

    /// Sets pixel `(row, col)`, clamping the value into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.side && col < self.side, "pixel out of bounds");
        self.pixels[row * self.side + col] = value.clamp(0.0, 1.0);
    }

    /// The raw pixel slice, row-major.
    #[inline]
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    /// Total ink (sum of pixel values).
    pub fn total_intensity(&self) -> f64 {
        self.pixels.iter().sum()
    }

    /// Renders the image as ASCII art (for debugging and examples).
    pub fn to_ascii(&self) -> String {
        let ramp: &[u8] = b" .:-=+*#%@";
        let mut out = String::with_capacity(self.side * (self.side + 1));
        for r in 0..self.side {
            for c in 0..self.side {
                let v = self.get(r, c);
                let idx = ((v * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1);
                out.push(ramp[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// Ranges of the random rendering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageGenerator {
    /// Maximum |rotation| in radians.
    pub max_rotation: f64,
    /// Scale range as (min, max) multiplier of the base glyph size.
    pub scale_range: (f64, f64),
    /// Maximum |shear| factor.
    pub max_shear: f64,
    /// Maximum |translation| in pixels along each axis.
    pub max_shift: f64,
    /// Probability of stroke dilation (thicker pen).
    pub dilate_prob: f64,
    /// Ink intensity range as (min, max).
    pub intensity_range: (f64, f64),
    /// Additive Gaussian pixel-noise standard deviation.
    pub noise_sigma: f64,
}

impl Default for ImageGenerator {
    fn default() -> Self {
        Self {
            max_rotation: 0.22,
            scale_range: (0.85, 1.15),
            max_shear: 0.18,
            max_shift: 2.5,
            dilate_prob: 0.35,
            intensity_range: (0.75, 1.0),
            noise_sigma: 0.04,
        }
    }
}

impl ImageGenerator {
    /// The number of `next_u64` draws one [`ImageGenerator::render`]
    /// consumes, whatever the digit or the draws' values: 8 for the
    /// dilation coin and the affine and ink parameters, plus two per pixel
    /// (one Box–Muller pair) when `noise_sigma > 0`. A stream of renders can
    /// therefore be cut anywhere and resumed from an RNG stepped by this
    /// many draws per skipped render.
    pub fn draws_per_render(&self) -> usize {
        let noise = if self.noise_sigma > 0.0 {
            2 * IMAGE_SIDE * IMAGE_SIDE
        } else {
            0
        };
        8 + noise
    }

    /// Renders one randomized 28×28 image of `digit`, consuming exactly
    /// [`ImageGenerator::draws_per_render`] draws of `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `digit > 9`.
    pub fn render<R: Rng + ?Sized>(&self, digit: usize, rng: &mut R) -> GrayImage {
        let mut bitmap = glyph(digit);
        if rng.gen::<f64>() < self.dilate_prob {
            bitmap = dilate(&bitmap);
        }

        // Random affine parameters.
        let angle = (rng.gen::<f64>() * 2.0 - 1.0) * self.max_rotation;
        let (smin, smax) = self.scale_range;
        let scale_x = smin + rng.gen::<f64>() * (smax - smin);
        let scale_y = smin + rng.gen::<f64>() * (smax - smin);
        let shear = (rng.gen::<f64>() * 2.0 - 1.0) * self.max_shear;
        let dx = (rng.gen::<f64>() * 2.0 - 1.0) * self.max_shift;
        let dy = (rng.gen::<f64>() * 2.0 - 1.0) * self.max_shift;
        let (imin, imax) = self.intensity_range;
        let ink = imin + rng.gen::<f64>() * (imax - imin);

        // Base glyph cell size: the digit occupies ~18×18 px of the 28×28
        // canvas before random scaling.
        let cell = 18.0 / GLYPH_H as f64;
        let (sin, cos) = angle.sin_cos();
        let center = IMAGE_SIDE as f64 / 2.0;
        let gx_c = GLYPH_W as f64 / 2.0;
        let gy_c = GLYPH_H as f64 / 2.0;

        let mut img = GrayImage::black(IMAGE_SIDE);
        // Inverse mapping with 2×2 supersampling for soft edges.
        const SUB: usize = 2;
        for row in 0..IMAGE_SIDE {
            for col in 0..IMAGE_SIDE {
                let mut acc = 0.0;
                for sr in 0..SUB {
                    for sc in 0..SUB {
                        let py = row as f64 + (sr as f64 + 0.5) / SUB as f64 - 0.5;
                        let px = col as f64 + (sc as f64 + 0.5) / SUB as f64 - 0.5;
                        // Pixel → centered canvas coordinates.
                        let cx = px - center - dx;
                        let cy = py - center - dy;
                        // Undo rotation.
                        let rx = cos * cx + sin * cy;
                        let ry = -sin * cx + cos * cy;
                        // Undo shear (x' = x + shear·y).
                        let ux = rx - shear * ry;
                        let uy = ry;
                        // Undo scale and cell size → glyph coordinates.
                        let gx = ux / (cell * scale_x) + gx_c;
                        let gy = uy / (cell * scale_y) + gy_c;
                        if gx >= 0.0 && gy >= 0.0 {
                            let (gxi, gyi) = (gx as usize, gy as usize);
                            if gxi < GLYPH_W && gyi < GLYPH_H && bitmap[gyi][gxi] {
                                acc += 1.0;
                            }
                        }
                    }
                }
                let coverage = acc / (SUB * SUB) as f64;
                if coverage > 0.0 {
                    img.set(row, col, coverage * ink);
                }
            }
        }

        // Additive Gaussian noise.
        if self.noise_sigma > 0.0 {
            for row in 0..IMAGE_SIDE {
                for col in 0..IMAGE_SIDE {
                    let v = img.get(row, col) + gaussian(rng) * self.noise_sigma;
                    img.set(row, col, v);
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rendered_image_has_ink_in_the_middle() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(1);
        for d in 0..10 {
            let img = gen.render(d, &mut rng);
            assert_eq!(img.side(), IMAGE_SIDE);
            let total = img.total_intensity();
            assert!(total > 10.0, "digit {d} almost empty: {total}");
            // Center 14×14 carries most of the ink.
            let mut center_ink = 0.0;
            for r in 7..21 {
                for c in 7..21 {
                    center_ink += img.get(r, c);
                }
            }
            assert!(center_ink / total > 0.4, "digit {d} not centered");
        }
    }

    #[test]
    fn deterministic_given_rng_state() {
        let gen = ImageGenerator::default();
        let a = gen.render(3, &mut StdRng::seed_from_u64(9));
        let b = gen.render(3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn samples_of_same_digit_vary() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(10);
        let a = gen.render(5, &mut rng);
        let b = gen.render(5, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn pixels_stay_in_unit_interval() {
        let gen = ImageGenerator {
            noise_sigma: 0.5, // extreme noise still clamps
            ..ImageGenerator::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let img = gen.render(7, &mut rng);
        assert!(img.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn noiseless_render_is_clean() {
        let gen = ImageGenerator {
            noise_sigma: 0.0,
            ..ImageGenerator::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let img = gen.render(1, &mut rng);
        // Background is exactly zero without noise.
        let corner = img.get(0, 0) + img.get(0, 27) + img.get(27, 0) + img.get(27, 27);
        assert_eq!(corner, 0.0);
    }

    /// Counts the draws passed through to an inner generator.
    struct Counting(StdRng, usize);

    impl rand::RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn render_consumes_exactly_draws_per_render() {
        for noise_sigma in [0.04, 0.0] {
            let gen = ImageGenerator {
                noise_sigma,
                ..ImageGenerator::default()
            };
            assert_eq!(
                gen.draws_per_render(),
                if noise_sigma > 0.0 { 1576 } else { 8 }
            );
            let mut rng = Counting(StdRng::seed_from_u64(14), 0);
            for digit in 0..10 {
                // Several renders per digit, so the dilation coin lands
                // both ways.
                for _ in 0..8 {
                    let before = rng.1;
                    gen.render(digit, &mut rng);
                    assert_eq!(rng.1 - before, gen.draws_per_render(), "digit {digit}");
                }
            }
        }
    }

    #[test]
    fn ascii_rendering_shape() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(13);
        let art = gen.render(0, &mut rng).to_ascii();
        assert_eq!(art.lines().count(), IMAGE_SIDE);
        assert!(art.lines().all(|l| l.len() == IMAGE_SIDE));
    }

    #[test]
    fn image_accessors() {
        let mut img = GrayImage::black(4);
        img.set(1, 2, 0.5);
        assert_eq!(img.get(1, 2), 0.5);
        img.set(1, 2, 7.0);
        assert_eq!(img.get(1, 2), 1.0, "clamps high");
        img.set(1, 2, -1.0);
        assert_eq!(img.get(1, 2), 0.0, "clamps low");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_pixel_panics() {
        let img = GrayImage::black(4);
        let _ = img.get(4, 0);
    }
}
