//! The batched forward path: whole-test-set accuracy as tiled
//! split-plane matrix products, bit-identical to the per-sample loop.
//!
//! The seed repository evaluated every Monte-Carlo iteration by pushing
//! test samples through the realized layer matrices *one vector at a time*
//! (`CMatrix::mul_vec` per sample per layer). For the paper's 16-16-16-10
//! network and 1000 test images that is 3000 tiny matrix-vector products
//! and ~9000 short-lived allocations per iteration.
//!
//! [`TestBatch`] packs the test set once into split-plane (structure-of-
//! arrays) `d × n` real/imaginary matrices and pushes the whole batch
//! through each realized layer as matrix-matrix products over the planes.
//! Per output element the floating-point operation sequence is exactly the
//! per-sample one — `t₁ = aᵣxᵣ`, `t₂ = aᵢxᵢ`, `acc += t₁ − t₂` in
//! ascending-`k` order, matching `C64` multiplication inside
//! `CMatrix::mul_vec` — so the batched per-iteration accuracies match the
//! per-sample reference to the last bit. The split-plane layout is what
//! buys the speed: the inner loops run over contiguous `f64` rows with
//! independent lanes, and the Softplus activation sweeps whole planes
//! instead of tiny per-sample vectors. The micro-kernels themselves live in
//! [`crate::kernel`], which runs them as explicit SIMD where the CPU
//! allows.
//!
//! `spnn-engine` drives it for every sweep and re-exports it unchanged;
//! [`crate::monte_carlo::mc_accuracy`] stays per-sample as the reference
//! it is checked against.

use crate::kernel::{activate_tile, matmul_tile, KernelProfile};
use crate::network::PhotonicNetwork;
use spnn_linalg::{CMatrix, C64};
use spnn_neural::loss::argmax;

/// Samples processed per column tile — sized so one tile of activations
/// (two `f64` planes of ≤ 16 rows) plus its output stays within L1.
const TILE: usize = 64;

/// Reusable plane scratch for [`TestBatch::accuracy_with_profile`].
///
/// The batched forward needs four `max_rows × TILE` activation planes plus
/// an intensity vector per evaluation. Allocating them per Monte-Carlo
/// iteration is pure overhead — the Monte-Carlo hot loop keeps one
/// `BatchScratch` per worker thread and reuses it across iterations.
/// Buffers grow on demand and never shrink; stale contents are harmless
/// because every read is preceded by a full write of the region read
/// (input planes are staged per tile, output planes are fully written by
/// the matmul, intensities are overwritten per column).
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    z_re: Vec<f64>,
    z_im: Vec<f64>,
    intensities: Vec<f64>,
}

/// A labelled test set packed for batched evaluation.
///
/// # Example
///
/// ```
/// use spnn_core::{PhotonicNetwork, MeshTopology, TestBatch};
/// use spnn_neural::ComplexNetwork;
/// use spnn_linalg::C64;
///
/// let sw = ComplexNetwork::new(&[4, 4, 3], 11);
/// let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None)?;
/// let features = vec![vec![C64::one(); 4], vec![C64::i(); 4]];
/// let ideal = hw.ideal_matrices();
/// let labels: Vec<usize> = features.iter().map(|f| hw.classify_with(&ideal, f)).collect();
///
/// let batch = TestBatch::new(&features, &labels);
/// // Bit-identical to the per-sample path, several times faster:
/// assert_eq!(
///     batch.accuracy_with(&hw, &ideal).to_bits(),
///     hw.accuracy_with(&ideal, &features, &labels).to_bits(),
/// );
/// # Ok::<(), spnn_core::network::SpnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TestBatch {
    /// Row-major `dim × n` plane of feature real parts.
    x_re: Vec<f64>,
    /// Row-major `dim × n` plane of feature imaginary parts.
    x_im: Vec<f64>,
    dim: usize,
    labels: Vec<usize>,
}

impl TestBatch {
    /// Packs feature vectors into the columns of split `d × n` planes.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty, lengths mismatch, or features are ragged.
    pub fn new(features: &[Vec<C64>], labels: &[usize]) -> Self {
        assert!(!features.is_empty(), "test set must be non-empty");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        Self::from_samples(features.iter().zip(labels.iter().copied()))
    }

    /// Packs a stream of `(features, label)` samples as they arrive, so the
    /// caller never holds the whole set as separate vectors (the runner
    /// streams its test split straight from the generator). The stream is
    /// consumed on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty, yields other than its reported
    /// length, or features are ragged.
    pub fn from_samples<F: AsRef<[C64]>>(
        samples: impl ExactSizeIterator<Item = (F, usize)> + Send,
    ) -> Self {
        Self::from_parts(vec![samples])
    }

    /// [`TestBatch::from_samples`] over the concatenation of contiguous
    /// `parts` of one stream, bit for bit. The planes and labels are
    /// allocated here; each part is packed straight into its own column
    /// range, the first on the calling thread and every other part on a
    /// scoped thread of its own, so a single part spawns nothing.
    ///
    /// # Panics
    ///
    /// Panics if the parts hold no sample, a part yields other than its
    /// reported length, or features are ragged.
    pub fn from_parts<F, I>(parts: Vec<I>) -> Self
    where
        F: AsRef<[C64]>,
        I: ExactSizeIterator<Item = (F, usize)> + Send,
    {
        let lens: Vec<usize> = parts.iter().map(ExactSizeIterator::len).collect();
        let n: usize = lens.iter().sum();
        assert!(n > 0, "test set must be non-empty");
        let mut parts = parts.into_iter().zip(lens).filter(|&(_, len)| len > 0);
        // The first sample fixes the plane height before anything is
        // allocated; it is packed with the rest of its part.
        let (mut head, head_len) = parts.next().expect("a non-empty part");
        let first = head.next().expect("sample stream shorter than its length");
        let dim = first.0.as_ref().len();
        assert!(dim > 0, "features must be non-empty vectors");
        let mut x_re = vec![0.0f64; dim * n];
        let mut x_im = vec![0.0f64; dim * n];
        let mut labels = vec![0usize; n];

        // Each plane row and the labels, cut at the parts' column
        // boundaries as the parts are handed out.
        let mut re_rows: Vec<&mut [f64]> = x_re.chunks_mut(n).collect();
        let mut im_rows: Vec<&mut [f64]> = x_im.chunks_mut(n).collect();
        let mut rest_labels = labels.as_mut_slice();
        let mut columns = |len: usize| {
            let (l, rest) = std::mem::take(&mut rest_labels).split_at_mut(len);
            rest_labels = rest;
            (
                take_columns(&mut re_rows, len),
                take_columns(&mut im_rows, len),
                l,
            )
        };
        let (mut head_re, mut head_im, head_labels) = columns(head_len);
        std::thread::scope(|scope| {
            for (part, len) in parts {
                let (mut re, mut im, l) = columns(len);
                scope.spawn(move || pack_columns(part, &mut re, &mut im, l));
            }
            let head = std::iter::once(first).chain(head);
            pack_columns(head, &mut head_re, &mut head_im, head_labels);
        });
        Self {
            x_re,
            x_im,
            dim,
            labels,
        }
    }

    /// Number of test samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the batch holds no samples (impossible by construction,
    /// kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The ground-truth labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Classification accuracy of `network` through explicit (realized or
    /// ideal) layer matrices, evaluated with split-plane matrix-matrix
    /// products over column tiles. Bit-identical to
    /// `network.accuracy_with(matrices, features, labels)`.
    ///
    /// Two structural optimizations keep this several times faster than
    /// the per-sample loop without changing any result:
    ///
    /// - **Column tiling** (`TILE` samples at a time): every buffer the
    ///   inner loops touch stays L1-resident instead of streaming
    ///   `16 × n`-element planes from L2 per accumulation row.
    /// - **Real hidden activations**: after Softplus-on-modulus the
    ///   imaginary plane is exactly `+0.0`, so later layers use the
    ///   half-cost real-input kernel. Skipping `a.im·0` products can flip
    ///   the *sign* of a zero relative to the per-sample path, but zero
    ///   signs provably never reach the output: every value differs at
    ///   most in the sign of a zero, magnitudes and all comparisons are
    ///   zero-sign-blind, and the final intensities square them away
    ///   (`(−0)² = +0 = (+0)²`), so intensities — and therefore argmax
    ///   and accuracy — are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `matrices.len() != network.n_layers()` or dimensions
    /// mismatch.
    pub fn accuracy_with(&self, network: &PhotonicNetwork, matrices: &[CMatrix]) -> f64 {
        self.accuracy_with_profile(
            network,
            matrices,
            KernelProfile::Reference,
            &mut BatchScratch::default(),
        )
    }

    /// [`TestBatch::accuracy_with`] with an explicit [`KernelProfile`] and
    /// caller-owned [`BatchScratch`].
    ///
    /// Under [`KernelProfile::Reference`] this is bit-identical to
    /// `accuracy_with` (which simply wraps it with fresh scratch). Under
    /// [`KernelProfile::Fma`] the matmul micro-kernel and the softplus
    /// plane sweep run on fused multiply-adds (see [`crate::kernel`]) —
    /// equally deterministic and machine-independent, but under the Fma
    /// profile's own golden outputs. The intensity/argmax readout is
    /// shared between profiles.
    ///
    /// # Panics
    ///
    /// Panics if `matrices.len() != network.n_layers()` or dimensions
    /// mismatch.
    pub fn accuracy_with_profile(
        &self,
        network: &PhotonicNetwork,
        matrices: &[CMatrix],
        profile: KernelProfile,
        scratch: &mut BatchScratch,
    ) -> f64 {
        assert_eq!(matrices.len(), network.n_layers(), "layer count mismatch");
        let n = self.labels.len();
        let last = matrices.len() - 1;
        for (l, m) in matrices.iter().enumerate() {
            let expect = if l == 0 {
                self.dim
            } else {
                matrices[l - 1].rows()
            };
            assert_eq!(m.cols(), expect, "layer {l} dimension mismatch");
        }
        let max_rows = matrices
            .iter()
            .map(|m| m.rows())
            .max()
            .unwrap()
            .max(self.dim);

        let BatchScratch {
            a_re,
            a_im,
            z_re,
            z_im,
            intensities,
        } = scratch;
        let plane = max_rows * TILE;
        if a_re.len() < plane {
            a_re.resize(plane, 0.0);
            a_im.resize(plane, 0.0);
            z_re.resize(plane, 0.0);
            z_im.resize(plane, 0.0);
        }
        // argmax runs over the whole slice, so the length must be exact.
        intensities.clear();
        intensities.resize(matrices[last].rows(), 0.0);
        let mut correct = 0usize;

        let mut t0 = 0usize;
        while t0 < n {
            let w = TILE.min(n - t0);
            // Stage the input tile (row stride `w`).
            for k in 0..self.dim {
                a_re[k * w..(k + 1) * w].copy_from_slice(&self.x_re[k * n + t0..k * n + t0 + w]);
                a_im[k * w..(k + 1) * w].copy_from_slice(&self.x_im[k * n + t0..k * n + t0 + w]);
            }
            let mut input_real = false;
            let mut rows = self.dim;

            for (l, m) in matrices.iter().enumerate() {
                let out_rows = m.rows();
                matmul_tile(
                    profile,
                    m,
                    &a_re[..rows * w],
                    &a_im[..rows * w],
                    &mut z_re[..out_rows * w],
                    &mut z_im[..out_rows * w],
                    w,
                    input_real,
                );
                if l < last {
                    // Softplus-on-modulus over the tile — the same scalar
                    // ops as the profile's per-element activation:
                    // |z| = √(re² + im²), out = (softplus(|z|), 0).
                    activate_tile(
                        profile,
                        &mut z_re[..out_rows * w],
                        &mut z_im[..out_rows * w],
                    );
                    input_real = true;
                }
                std::mem::swap(a_re, z_re);
                std::mem::swap(a_im, z_im);
                rows = out_rows;
            }

            // Photodetector intensities + argmax per tile column — shared
            // between profiles.
            for (jj, &label) in self.labels[t0..t0 + w].iter().enumerate() {
                for (i, slot) in intensities.iter_mut().enumerate() {
                    let re = a_re[i * w + jj];
                    let im = a_im[i * w + jj];
                    let s1 = re * re;
                    let s2 = im * im;
                    *slot = s1 + s2;
                }
                if argmax(intensities) == label {
                    correct += 1;
                }
            }
            t0 += w;
        }
        correct as f64 / n as f64
    }
}

/// Splits the leading `len` columns off every plane row in `rows`.
fn take_columns<'a>(rows: &mut [&'a mut [f64]], len: usize) -> Vec<&'a mut [f64]> {
    rows.iter_mut()
        .map(|row| {
            let (head, rest) = std::mem::take(row).split_at_mut(len);
            *row = rest;
            head
        })
        .collect()
}

/// Writes `samples` into consecutive columns of the plane rows `re`/`im`
/// (one slice per feature row) and their labels into `labels`.
fn pack_columns<F: AsRef<[C64]>>(
    samples: impl Iterator<Item = (F, usize)>,
    re: &mut [&mut [f64]],
    im: &mut [&mut [f64]],
    labels: &mut [usize],
) {
    let mut packed = 0;
    for (j, (f, label)) in samples.enumerate() {
        let f = f.as_ref();
        assert_eq!(f.len(), re.len(), "ragged feature vectors");
        for ((v, re), im) in f.iter().zip(re.iter_mut()).zip(im.iter_mut()) {
            re[j] = v.re;
            im[j] = v.im;
        }
        labels[j] = label;
        packed += 1;
    }
    assert_eq!(
        packed,
        labels.len(),
        "sample stream shorter than its length"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::iteration_rng;
    use crate::network::MeshTopology;
    use crate::perturbation::{HardwareEffects, PerturbationPlan};
    use spnn_neural::ComplexNetwork;
    use spnn_photonics::UncertaintySpec;

    fn setup() -> (PhotonicNetwork, Vec<Vec<C64>>, Vec<usize>) {
        let sw = ComplexNetwork::new(&[6, 5, 4], 77);
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let features: Vec<Vec<C64>> = (0..23)
            .map(|i| {
                (0..6)
                    .map(|j| {
                        C64::new(
                            ((i * 5 + j * 3) % 7) as f64 * 0.2 - 0.5,
                            ((i + 2 * j) % 5) as f64 * 0.15,
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
    fn batched_accuracy_equals_per_sample_on_ideal_matrices() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        let ideal = hw.ideal_matrices();
        let batched = batch.accuracy_with(&hw, &ideal);
        let reference = hw.accuracy_with(&ideal, &xs, &ys);
        assert_eq!(batched.to_bits(), reference.to_bits());
        assert_eq!(batched, 1.0, "labels were defined by the ideal network");
    }

    #[test]
    fn batched_accuracy_equals_per_sample_on_realized_matrices() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.08));
        let fx = HardwareEffects::default();
        for k in 0..16 {
            let matrices = hw.realize(&plan, &fx, &mut iteration_rng(33, k));
            let batched = batch.accuracy_with(&hw, &matrices);
            let reference = hw.accuracy_with(&matrices, &xs, &ys);
            assert_eq!(
                batched.to_bits(),
                reference.to_bits(),
                "iteration {k}: {batched} vs {reference}"
            );
        }
    }

    #[test]
    fn full_tiles_and_chunks_equal_per_sample_on_realized_matrices() {
        // 157 = 2·TILE + 29: two full 64-column tiles (each two full
        // 32-column matmul chunks) and an odd, tail-only last tile, on the
        // paper's 16-wide layers, so every matmul and activation body is
        // compared with the per-sample path.
        let sw = ComplexNetwork::new(&[16, 16, 16, 10], 5);
        let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, None).unwrap();
        let xs: Vec<Vec<C64>> = (0..157)
            .map(|i| {
                (0..16)
                    .map(|j| {
                        C64::new(
                            ((i * 7 + j * 11) % 13) as f64 * 0.09 - 0.5,
                            ((i * 3 + j * 5) % 11) as f64 * 0.07 - 0.3,
                        )
                    })
                    .collect()
            })
            .collect();
        let ideal = hw.ideal_matrices();
        let ys: Vec<usize> = xs.iter().map(|f| hw.classify_with(&ideal, f)).collect();
        let batch = TestBatch::new(&xs, &ys);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.08));
        let fx = HardwareEffects::default();
        let mut scratch = BatchScratch::default();
        for k in 0..8 {
            let matrices = hw.realize(&plan, &fx, &mut iteration_rng(19, k));
            let reference = hw.accuracy_with(&matrices, &xs, &ys);
            let batched =
                batch.accuracy_with_profile(&hw, &matrices, KernelProfile::Reference, &mut scratch);
            assert_eq!(
                batched.to_bits(),
                reference.to_bits(),
                "iteration {k}: {batched} vs {reference}"
            );
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_scratch() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.08));
        let fx = HardwareEffects::default();
        for profile in [KernelProfile::Reference, KernelProfile::Fma] {
            let mut reused = BatchScratch::default();
            for k in 0..12 {
                let matrices = hw.realize(&plan, &fx, &mut iteration_rng(91, k));
                let warm = batch.accuracy_with_profile(&hw, &matrices, profile, &mut reused);
                let cold = batch.accuracy_with_profile(
                    &hw,
                    &matrices,
                    profile,
                    &mut BatchScratch::default(),
                );
                assert_eq!(
                    warm.to_bits(),
                    cold.to_bits(),
                    "iteration {k} ({profile}): scratch reuse changed the result"
                );
            }
        }
    }

    #[test]
    fn fma_profile_is_deterministic_and_statistically_close() {
        let (hw, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        let plan = PerturbationPlan::global(UncertaintySpec::both(0.08));
        let fx = HardwareEffects::default();
        let mut scratch = BatchScratch::default();
        let (mut sum_ref, mut sum_fma) = (0.0, 0.0);
        for k in 0..32 {
            let matrices = hw.realize(&plan, &fx, &mut iteration_rng(57, k));
            let f1 = batch.accuracy_with_profile(&hw, &matrices, KernelProfile::Fma, &mut scratch);
            let f2 = batch.accuracy_with_profile(&hw, &matrices, KernelProfile::Fma, &mut scratch);
            assert_eq!(f1.to_bits(), f2.to_bits(), "iteration {k}: fma not pure");
            sum_fma += f1;
            sum_ref += batch.accuracy_with(&hw, &matrices);
        }
        // Accuracies are coarse (23 samples), so per-iteration values agree
        // almost always and the means must be very close: the profiles
        // compute the same product up to last-bit rounding.
        assert!(
            (sum_ref - sum_fma).abs() / 32.0 <= 0.05,
            "profiles statistically diverged: ref mean {} vs fma mean {}",
            sum_ref / 32.0,
            sum_fma / 32.0
        );
    }

    #[test]
    fn batch_shape_accessors() {
        let (_, xs, ys) = setup();
        let batch = TestBatch::new(&xs, &ys);
        assert_eq!(batch.len(), 23);
        assert_eq!(batch.dim(), 6);
        assert!(!batch.is_empty());
        assert_eq!(batch.labels().len(), 23);
    }

    #[test]
    fn parts_pack_the_same_bits_as_one_stream() {
        let (_, xs, ys) = setup();
        let whole = TestBatch::from_samples(xs.iter().zip(ys.iter().copied()));
        let bits = |plane: &[f64]| -> Vec<u64> { plane.iter().map(|x| x.to_bits()).collect() };
        for k in [1, 2, 3, 7] {
            // k contiguous parts of 23 / k samples, give or take one.
            let cut = |i: usize| i * xs.len() / k;
            let parts: Vec<_> = (0..k)
                .map(|i| {
                    let range = cut(i)..cut(i + 1);
                    xs[range.clone()].iter().zip(ys[range].iter().copied())
                })
                .collect();
            let batch = TestBatch::from_parts(parts);
            assert_eq!(batch.dim(), whole.dim());
            assert_eq!(batch.labels(), whole.labels(), "{k} parts");
            assert_eq!(bits(&batch.x_re), bits(&whole.x_re), "{k} parts");
            assert_eq!(bits(&batch.x_im), bits(&whole.x_im), "{k} parts");
        }
    }

    #[test]
    fn a_single_part_is_packed_on_the_calling_thread() {
        let (_, xs, ys) = setup();
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let samples = xs.iter().zip(ys.iter().copied()).inspect(|_| {
            seen.lock().unwrap().push(std::thread::current().id());
        });
        let batch = TestBatch::from_parts(vec![samples]);
        assert_eq!(batch.len(), xs.len());
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), xs.len());
        assert!(seen.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_panics() {
        let _ = TestBatch::new(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_labels_panic() {
        let xs = vec![vec![C64::one(); 3]];
        let _ = TestBatch::new(&xs, &[0, 1]);
    }
}
