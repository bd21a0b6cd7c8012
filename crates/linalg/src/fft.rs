//! Fast Fourier transforms: radix-2 Cooley–Tukey, planned Bluestein for
//! arbitrary lengths, 2-D transforms and `fftshift`.
//!
//! The paper converts each 28×28 MNIST image to a complex feature vector via
//! the *shifted* 2-D FFT and keeps the central 4×4 of the spectrum. 28 is not
//! a power of two, so an arbitrary-length transform (Bluestein's chirp-z
//! algorithm) is required on top of the radix-2 kernel.
//!
//! Every transform runs through an [`FftPlan`]. For a non-power-of-two
//! length the plan computes Bluestein's per-length state once — the chirp,
//! the forward FFT of the chirp filter, and the convolution scratch — and
//! reuses it for every vector of that length. [`fft`] builds a one-shot
//! plan; callers that transform many vectors of one length (the feature
//! pipeline runs 28 + 4 transforms per image) keep theirs. The filter
//! spectrum does not depend on the input, so a reused plan does exactly the
//! arithmetic a fresh one does: results are bit-identical either way.

use crate::c64::C64;
use crate::matrix::CMatrix;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT: `X_k = Σ x_n e^{−2πi·kn/N}`.
    Forward,
    /// Inverse DFT (including the `1/N` normalization).
    Inverse,
}

/// In-place radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two. Use [`fft`] for arbitrary
/// lengths.
pub fn fft_pow2_inplace(data: &mut [C64], dir: Direction) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "fft_pow2_inplace requires power-of-two length"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };

    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = C64::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = C64::one();
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }

    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }
}

/// A reusable transform of one length and direction.
///
/// Power-of-two lengths run the in-place radix-2 kernel and need no state.
/// Any other length is a Bluestein plan: it holds the chirp
/// `w_k = e^{∓πi·k²/n}`, the forward FFT of the conjugate-chirp filter,
/// and the `m`-point convolution scratch (`m` the power of two ≥ 2n − 1).
/// [`FftPlan::process`] then costs two `m`-point FFTs and allocates nothing.
///
/// # Example
///
/// ```
/// use spnn_linalg::{C64, fft::{fft, Direction, FftPlan}};
/// let mut plan = FftPlan::new(28, Direction::Forward);
/// for seed in 0..3 {
///     let x: Vec<C64> = (0..28).map(|i| C64::new((i * seed) as f64, 1.0)).collect();
///     let mut y = x.clone();
///     plan.process(&mut y);
///     assert_eq!(y, fft(&x, Direction::Forward));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    dir: Direction,
    /// Bluestein chirp; empty for radix-2 lengths.
    chirp: Vec<C64>,
    /// Forward FFT of the conjugate-chirp filter (length `m`).
    filter: Vec<C64>,
    /// Convolution scratch (length `m`).
    work: Vec<C64>,
}

impl FftPlan {
    /// Plans a length-`n` transform in direction `dir`.
    pub fn new(n: usize, dir: Direction) -> Self {
        let mut plan = FftPlan {
            n,
            dir,
            chirp: Vec::new(),
            filter: Vec::new(),
            work: Vec::new(),
        };
        if n == 0 || n.is_power_of_two() {
            return plan;
        }
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };

        // Chirp: w_k = e^{sign·πi·k²/n}. Use k² mod 2n to avoid huge angles.
        plan.chirp = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                C64::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();

        let m = (2 * n - 1).next_power_of_two();
        let mut b = vec![C64::zero(); m];
        b[0] = plan.chirp[0].conj();
        for k in 1..n {
            let c = plan.chirp[k].conj();
            b[k] = c;
            b[m - k] = c;
        }
        fft_pow2_inplace(&mut b, Direction::Forward);
        plan.filter = b;
        plan.work = vec![C64::zero(); m];
        plan
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the length-0 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transforms `data` in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn process(&mut self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n, "FftPlan length mismatch");
        if self.chirp.is_empty() {
            if self.n > 0 {
                fft_pow2_inplace(data, self.dir);
            }
            return;
        }

        // Bluestein's chirp-z transform: the DFT as a convolution with the
        // chirp filter, evaluated with power-of-two FFTs.
        let (head, tail) = self.work.split_at_mut(self.n);
        for ((a, &x), &w) in head.iter_mut().zip(data.iter()).zip(&self.chirp) {
            *a = x * w;
        }
        tail.fill(C64::zero());
        fft_pow2_inplace(&mut self.work, Direction::Forward);
        for (x, y) in self.work.iter_mut().zip(&self.filter) {
            *x *= *y;
        }
        fft_pow2_inplace(&mut self.work, Direction::Inverse);

        for ((z, &a), &w) in data.iter_mut().zip(&self.work).zip(&self.chirp) {
            *z = a * w;
        }
        if self.dir == Direction::Inverse {
            let inv = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }
}

/// FFT of arbitrary length through a one-shot [`FftPlan`]: radix-2 when
/// possible, Bluestein otherwise.
///
/// Returns a new vector; the input is unchanged. Transforming many vectors
/// of one length? Keep an [`FftPlan`] instead — same bits, planned once.
///
/// # Example
///
/// ```
/// use spnn_linalg::{C64, fft::{fft, Direction}};
/// let x: Vec<C64> = (0..6).map(|i| C64::new(i as f64, 0.0)).collect();
/// let spectrum = fft(&x, Direction::Forward);
/// let back = fft(&spectrum, Direction::Inverse);
/// for (a, b) in x.iter().zip(back.iter()) {
///     assert!(a.approx_eq(*b, 1e-10));
/// }
/// ```
pub fn fft(input: &[C64], dir: Direction) -> Vec<C64> {
    let mut out = input.to_vec();
    FftPlan::new(input.len(), dir).process(&mut out);
    out
}

/// Reference `O(n²)` DFT — used to pin the fast transforms in tests.
pub fn dft_naive(input: &[C64], dir: Direction) -> Vec<C64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![C64::zero(); n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = C64::zero();
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * std::f64::consts::TAU * (k as f64) * (j as f64) / n as f64;
            acc += x * C64::cis(ang);
        }
        *o = if dir == Direction::Inverse {
            acc.scale(1.0 / n as f64)
        } else {
            acc
        };
    }
    out
}

/// 2-D FFT of a complex matrix (rows first, then columns).
pub fn fft2(input: &CMatrix, dir: Direction) -> CMatrix {
    let (rows, cols) = input.shape();
    let mut out = input.clone();
    // Transform rows.
    for r in 0..rows {
        let row: Vec<C64> = out.row(r).to_vec();
        let t = fft(&row, dir);
        for (c, z) in t.into_iter().enumerate() {
            out[(r, c)] = z;
        }
    }
    // Transform columns.
    for c in 0..cols {
        let col: Vec<C64> = out.col(c);
        let t = fft(&col, dir);
        for (r, z) in t.into_iter().enumerate() {
            out[(r, c)] = z;
        }
    }
    out
}

/// Swaps quadrants so the zero-frequency component moves to the center —
/// `fftshift`, matching the "shifted fast Fourier transform" of the paper.
///
/// For odd dimensions the extra element goes to the leading half, matching
/// NumPy's convention (`shift = n / 2` rounded down applied as a rotation).
pub fn fftshift(input: &CMatrix) -> CMatrix {
    let (rows, cols) = input.shape();
    let (sr, sc) = (rows / 2, cols / 2);
    CMatrix::from_fn(rows, cols, |r, c| {
        input[((r + rows - sr) % rows, (c + cols - sc) % cols)]
    })
}

/// Inverse of [`fftshift`].
pub fn ifftshift(input: &CMatrix) -> CMatrix {
    let (rows, cols) = input.shape();
    let (sr, sc) = (rows - rows / 2, cols - cols / 2);
    CMatrix::from_fn(rows, cols, |r, c| {
        input[((r + rows - sr) % rows, (c + cols - sc) % cols)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_complex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| gaussian_complex(&mut rng)).collect()
    }

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(*y, tol), "{x} != {y}");
        }
    }

    #[test]
    fn fft_pow2_matches_naive() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = random_signal(n, n as u64);
            let fast = fft(&x, Direction::Forward);
            let slow = dft_naive(&x, Direction::Forward);
            assert_close(&fast, &slow, 1e-9 * (n as f64));
        }
    }

    #[test]
    fn bluestein_matches_naive() {
        for n in [3usize, 5, 6, 7, 12, 28, 100] {
            let x = random_signal(n, 1000 + n as u64);
            let fast = fft(&x, Direction::Forward);
            let slow = dft_naive(&x, Direction::Forward);
            assert_close(&fast, &slow, 1e-8 * (n as f64));
        }
    }

    /// From-scratch, unplanned Bluestein transform: builds its chirp and
    /// filter spectrum on every call. The bit-level oracle for [`FftPlan`].
    fn bluestein_unplanned(input: &[C64], dir: Direction) -> Vec<C64> {
        let n = input.len();
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let mut chirp = Vec::with_capacity(n);
        for k in 0..n {
            let k2 = (k as u64 * k as u64) % (2 * n as u64);
            chirp.push(C64::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64));
        }
        let m = (2 * n - 1).next_power_of_two();
        let mut a = vec![C64::zero(); m];
        for k in 0..n {
            a[k] = input[k] * chirp[k];
        }
        let mut b = vec![C64::zero(); m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            b[k] = c;
            b[m - k] = c;
        }
        fft_pow2_inplace(&mut a, Direction::Forward);
        fft_pow2_inplace(&mut b, Direction::Forward);
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x *= *y;
        }
        fft_pow2_inplace(&mut a, Direction::Inverse);
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            out.push(a[k] * chirp[k]);
        }
        if dir == Direction::Inverse {
            let inv = 1.0 / n as f64;
            for z in &mut out {
                *z = z.scale(inv);
            }
        }
        out
    }

    fn assert_same_bits(a: &[C64], b: &[C64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: bin {k}: {x} != {y}"
            );
        }
    }

    #[test]
    fn planned_bluestein_matches_unplanned_bits() {
        for n in [3usize, 5, 7, 12, 28, 100] {
            for dir in [Direction::Forward, Direction::Inverse] {
                // One plan across several signals: the scratch must not
                // carry state from one call into the next.
                let mut plan = FftPlan::new(n, dir);
                for seed in 0..4 {
                    let x = random_signal(n, 3000 + 10 * n as u64 + seed);
                    let want = bluestein_unplanned(&x, dir);
                    assert_same_bits(&fft(&x, dir), &want, &format!("fft n={n} {dir:?}"));
                    let mut y = x.clone();
                    plan.process(&mut y);
                    assert_same_bits(&y, &want, &format!("plan n={n} {dir:?}"));
                }
            }
        }
    }

    #[test]
    fn pow2_and_empty_plans_run_radix2() {
        let x = random_signal(16, 4);
        let mut want = x.clone();
        fft_pow2_inplace(&mut want, Direction::Inverse);
        let mut y = x.clone();
        FftPlan::new(16, Direction::Inverse).process(&mut y);
        assert_same_bits(&y, &want, "pow2 plan");
        let mut empty = FftPlan::new(0, Direction::Forward);
        assert!(empty.is_empty());
        empty.process(&mut []);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn plan_rejects_wrong_length() {
        FftPlan::new(28, Direction::Forward).process(&mut [C64::zero(); 27]);
    }

    #[test]
    fn inverse_roundtrip() {
        for n in [4usize, 7, 28, 32] {
            let x = random_signal(n, 2000 + n as u64);
            let back = fft(&fft(&x, Direction::Forward), Direction::Inverse);
            assert_close(&x, &back, 1e-9 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![C64::zero(); 8];
        x[0] = C64::one();
        let y = fft(&x, Direction::Forward);
        for z in y {
            assert!(z.approx_eq(C64::one(), 1e-12));
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let x = vec![C64::one(); 16];
        let y = fft(&x, Direction::Forward);
        assert!(y[0].approx_eq(C64::from(16.0), 1e-10));
        for z in &y[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 28;
        let x = random_signal(n, 77);
        let y = fft(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|z| z.abs_sq()).sum();
        let ey: f64 = y.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-9 * ex.max(1.0));
    }

    #[test]
    fn fft2_matches_naive_28() {
        let mut rng = StdRng::seed_from_u64(5);
        let img = CMatrix::from_fn(28, 28, |_, _| gaussian_complex(&mut rng));
        let fast = fft2(&img, Direction::Forward);
        // Naive 2-D: DFT each row, then each column.
        let mut slow = img.clone();
        for r in 0..28 {
            let t = dft_naive(slow.row(r), Direction::Forward);
            for (c, z) in t.into_iter().enumerate() {
                slow[(r, c)] = z;
            }
        }
        for c in 0..28 {
            let t = dft_naive(&slow.col(c), Direction::Forward);
            for (r, z) in t.into_iter().enumerate() {
                slow[(r, c)] = z;
            }
        }
        assert!(fast.approx_eq(&slow, 1e-6), "2-D FFT mismatch");
    }

    #[test]
    fn fft2_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let img = CMatrix::from_fn(12, 28, |_, _| gaussian_complex(&mut rng));
        let back = fft2(&fft2(&img, Direction::Forward), Direction::Inverse);
        assert!(back.approx_eq(&img, 1e-9));
    }

    #[test]
    fn fftshift_moves_dc_to_center() {
        // DC (0,0) should land at (rows/2, cols/2).
        let mut m = CMatrix::zeros(4, 6);
        m[(0, 0)] = C64::one();
        let s = fftshift(&m);
        assert!(s[(2, 3)].approx_eq(C64::one(), 0.0));
        assert!(s[(0, 0)].approx_eq(C64::zero(), 0.0));
    }

    #[test]
    fn fftshift_roundtrip_even_and_odd() {
        for (r, c) in [(4, 4), (5, 5), (4, 7), (28, 28)] {
            let mut rng = StdRng::seed_from_u64((r * 100 + c) as u64);
            let m = CMatrix::from_fn(r, c, |_, _| gaussian_complex(&mut rng));
            assert!(ifftshift(&fftshift(&m)).approx_eq(&m, 0.0), "{r}x{c}");
        }
    }

    #[test]
    fn empty_fft_is_empty() {
        assert!(fft(&[], Direction::Forward).is_empty());
    }

    #[test]
    fn fft_linearity() {
        let n = 28;
        let x = random_signal(n, 8);
        let y = random_signal(n, 9);
        let sum: Vec<C64> = x.iter().zip(y.iter()).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x, Direction::Forward);
        let fy = fft(&y, Direction::Forward);
        let fsum = fft(&sum, Direction::Forward);
        for i in 0..n {
            assert!(fsum[i].approx_eq(fx[i] + fy[i], 1e-8));
        }
    }
}
