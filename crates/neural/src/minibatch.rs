//! The training backward pass over a whole mini-batch at once.
//!
//! [`ComplexNetwork::backward_batch`](crate::ComplexNetwork::backward_batch)
//! runs forward, loss and backward for every sample of a mini-batch over
//! split re/im planes with the sample index innermost (`dim × n`, the
//! `TestBatch` layout of `spnn-core`). It is bit-identical to calling the
//! per-sample backward once per sample in batch order, because each output
//! value goes through the same IEEE operations in the same order:
//!
//! - **Forward.** `z = W·a` accumulates over columns from `+0.0` with the
//!   unfused complex product of `CMatrix::mul_vec`. Hidden activations go
//!   through [`mod_softplus_planes`], the plane sweep of the reference
//!   kernel.
//! - **Loss.** One fused cross-entropy and gradient per sample, with the
//!   same `exp` values that `log_softmax` and `softmax` each computed.
//! - **Backward.** `Wᴴ·g` in the row order of `CMatrix::adjoint_mul_vec`.
//!   Only its real part is formed, the one part the Softplus backward
//!   reads, and it is skipped for the input layer, whose input gradient
//!   nobody reads. The Softplus backward stays scalar libm per element
//!   (`hypot`, `exp`), with `|z|` computed once.
//! - **Weight gradients.** `∇W += g·aᴴ` accumulates each element in sample
//!   order, starting from the layer's current gradient. Lanes run over
//!   columns, never over samples, so no sum is reassociated.
//!
//! All buffers live in a caller-owned [`TrainScratch`]: once warm, a
//! training step allocates nothing.

use crate::activation::{mod_softplus_planes, sigmoid};
use crate::layer::DenseLayer;
use spnn_linalg::{CMatrix, C64};

/// Lanes per register block of the kernels below. Fixed-size array
/// blocks let LLVM keep the accumulators in vector registers; widths
/// below it run the same sequence one lane at a time.
const LANES: usize = 8;

/// `x[at..at + W]` as an array.
#[inline(always)]
fn lanes<const W: usize>(x: &[f64], at: usize) -> &[f64; W] {
    x[at..at + W].try_into().expect("a slice of W lanes")
}

/// `x[at..at + W]` as a mutable array.
#[inline(always)]
fn lanes_mut<const W: usize>(x: &mut [f64], at: usize) -> &mut [f64; W] {
    (&mut x[at..at + W]).try_into().expect("a slice of W lanes")
}

/// A pair of split re/im planes.
#[derive(Debug, Default, Clone)]
struct Planes {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Planes {
    /// Sets both planes to `len` values. Contents are left stale: every
    /// kernel writes the region it later reads.
    fn reset(&mut self, len: usize) {
        self.re.resize(len, 0.0);
        self.im.resize(len, 0.0);
    }
}

/// One layer's forward caches.
#[derive(Debug, Default, Clone)]
struct LayerCache {
    /// The layer input `a`, `in_dim × n`.
    input: Planes,
    /// The layer input sample-major, `n × in_dim`, for the `∇W` kernel.
    input_t: Planes,
    /// The pre-activation `z = W·a`, `out_dim × n`.
    pre: Planes,
}

/// Reusable buffers of
/// [`ComplexNetwork::backward_batch`](crate::ComplexNetwork::backward_batch).
///
/// Buffers grow on demand and never shrink, so after one call at the
/// largest batch size, later calls allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct TrainScratch {
    layers: Vec<LayerCache>,
    /// The gradient at the current layer's output, `out_dim × n`.
    grad: Planes,
    /// `Re(Wᴴ·g)`, `in_dim × n`.
    grad_in: Vec<f64>,
    /// One sample's output intensities and their softmax exponentials.
    intensities: Vec<f64>,
    exps: Vec<f64>,
}

/// Forward, cross-entropy and backward of the samples `batch` (indices
/// into `features`/`labels`, in accumulation order) through `layers`.
/// Accumulates every layer's weight gradient and returns the summed loss.
pub(crate) fn backward<X: AsRef<[C64]>>(
    layers: &mut [DenseLayer],
    features: &[X],
    labels: &[usize],
    batch: &[usize],
    scratch: &mut TrainScratch,
) -> f64 {
    let n = batch.len();
    let depth = layers.len();
    scratch.layers.resize_with(depth, LayerCache::default);
    gather(&mut scratch.layers[0], features, batch, layers[0].in_dim());

    for (l, layer) in layers.iter().enumerate() {
        let (done, rest) = scratch.layers.split_at_mut(l + 1);
        let cache = &mut done[l];
        let w = layer.weight();
        cache.pre.reset(w.rows() * n);
        matmul(w, &cache.input, &mut cache.pre, n);
        if let Some(next) = rest.first_mut() {
            next.input.re.clone_from(&cache.pre.re);
            next.input.im.clone_from(&cache.pre.im);
            mod_softplus_planes(&mut next.input.re, &mut next.input.im);
            transpose(&next.input, &mut next.input_t, w.rows(), n);
        }
    }

    let out = &scratch.layers[depth - 1].pre;
    let out_dim = layers[depth - 1].out_dim();
    scratch.grad.reset(out_dim * n);
    scratch.intensities.resize(out_dim, 0.0);
    scratch.exps.resize(out_dim, 0.0);
    let mut loss = 0.0;
    for (s, &idx) in batch.iter().enumerate() {
        loss += cross_entropy_backward(
            out,
            &mut scratch.grad,
            s,
            n,
            labels[idx],
            &mut scratch.intensities,
            &mut scratch.exps,
        );
    }

    for l in (0..depth).rev() {
        let cache = &scratch.layers[l];
        let (weight, grad) = layers[l].weight_and_grad_mut();
        accumulate_grad(grad, &scratch.grad, &cache.input_t, n);
        if l > 0 {
            scratch.grad_in.resize(weight.cols() * n, 0.0);
            adjoint_re(weight, &scratch.grad, &mut scratch.grad_in, n);
            let below = &scratch.layers[l - 1].pre;
            scratch.grad.reset(weight.cols() * n);
            mod_softplus_backward_planes(below, &scratch.grad_in, &mut scratch.grad);
        }
    }
    loss
}

/// Stages the batch's input features in both layouts of `cache`.
fn gather<X: AsRef<[C64]>>(cache: &mut LayerCache, features: &[X], batch: &[usize], dim: usize) {
    let n = batch.len();
    cache.input.reset(dim * n);
    cache.input_t.reset(n * dim);
    for (s, &idx) in batch.iter().enumerate() {
        let x = features[idx].as_ref();
        assert_eq!(x.len(), dim, "input dim mismatch");
        for (c, v) in x.iter().enumerate() {
            cache.input.re[c * n + s] = v.re;
            cache.input.im[c * n + s] = v.im;
            cache.input_t.re[s * dim + c] = v.re;
            cache.input_t.im[s * dim + c] = v.im;
        }
    }
}

/// `dst = srcᵀ` for `rows × n` planes.
fn transpose(src: &Planes, dst: &mut Planes, rows: usize, n: usize) {
    dst.reset(n * rows);
    for r in 0..rows {
        for s in 0..n {
            dst.re[s * rows + r] = src.re[r * n + s];
            dst.im[s * rows + r] = src.im[r * n + s];
        }
    }
}

/// `z = W·a` over `n` sample columns, in `CMatrix::mul_vec`'s sequence
/// per element: from `+0.0`, `acc += (w.re·x.re − w.im·x.im)` and
/// `acc += (w.re·x.im + w.im·x.re)` in ascending column order.
fn matmul(w: &CMatrix, a: &Planes, z: &mut Planes, n: usize) {
    for r in 0..w.rows() {
        let row = w.row(r);
        let (zr, zi) = (&mut z.re[r * n..][..n], &mut z.im[r * n..][..n]);
        let mut s = 0;
        while s + LANES <= n {
            matmul_block::<LANES>(row, a, n, s, lanes_mut(zr, s), lanes_mut(zi, s));
            s += LANES;
        }
        for s in s..n {
            matmul_block::<1>(row, a, n, s, lanes_mut(zr, s), lanes_mut(zi, s));
        }
    }
}

#[inline(always)]
fn matmul_block<const W: usize>(
    row: &[C64],
    a: &Planes,
    n: usize,
    s: usize,
    zr: &mut [f64; W],
    zi: &mut [f64; W],
) {
    let mut acc_re = [0.0f64; W];
    let mut acc_im = [0.0f64; W];
    for (c, w) in row.iter().enumerate() {
        let xr: &[f64; W] = lanes(&a.re, c * n + s);
        let xi: &[f64; W] = lanes(&a.im, c * n + s);
        for k in 0..W {
            acc_re[k] += w.re * xr[k] - w.im * xi[k];
        }
        for k in 0..W {
            acc_im[k] += w.re * xi[k] + w.im * xr[k];
        }
    }
    *zr = acc_re;
    *zi = acc_im;
}

/// Cross-entropy of sample `s` on the output planes `z`, with its
/// gradient through the intensity readout written to column `s` of `g`.
///
/// Bit-identical to `cross_entropy`, `cross_entropy_grad` and
/// `intensity_backward` in sequence: the same intensities, maximum,
/// exponentials and sum, with each `exp` computed once instead of twice.
fn cross_entropy_backward(
    z: &Planes,
    g: &mut Planes,
    s: usize,
    n: usize,
    label: usize,
    o: &mut [f64],
    exps: &mut [f64],
) -> f64 {
    assert!(label < o.len(), "label out of range");
    for (r, o) in o.iter_mut().enumerate() {
        let (re, im) = (z.re[r * n + s], z.im[r * n + s]);
        *o = re * re + im * im;
    }
    let max = o.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (e, &x) in exps.iter_mut().zip(o.iter()) {
        *e = (x - max).exp();
    }
    let sum: f64 = exps.iter().sum();
    let log_sum = sum.ln() + max;
    for (r, &e) in exps.iter().enumerate() {
        let mut grad_o = e / sum;
        if r == label {
            grad_o -= 1.0;
        }
        let k = 2.0 * grad_o;
        g.re[r * n + s] = z.re[r * n + s] * k;
        g.im[r * n + s] = z.im[r * n + s] * k;
    }
    -(o[label] - log_sum)
}

/// `∇W += g·aᴴ`, each element accumulated over the `n` samples in order.
/// `a_t` is the layer input sample-major (`n × cols`).
fn accumulate_grad(grad: &mut CMatrix, g: &Planes, a_t: &Planes, n: usize) {
    let cols = grad.cols();
    for r in 0..grad.rows() {
        let (gr, gi) = (&g.re[r * n..][..n], &g.im[r * n..][..n]);
        let row = &mut grad.as_mut_slice()[r * cols..][..cols];
        let mut c = 0;
        while c + LANES <= cols {
            grad_block::<LANES>(&mut row[c..][..LANES], gr, gi, a_t, cols, c);
            c += LANES;
        }
        for c in c..cols {
            grad_block::<1>(&mut row[c..][..1], gr, gi, a_t, cols, c);
        }
    }
}

#[inline(always)]
fn grad_block<const W: usize>(
    out: &mut [C64],
    gr: &[f64],
    gi: &[f64],
    a_t: &Planes,
    cols: usize,
    c: usize,
) {
    let mut acc_re: [f64; W] = std::array::from_fn(|k| out[k].re);
    let mut acc_im: [f64; W] = std::array::from_fn(|k| out[k].im);
    for (s, (&g_re, &g_im)) in gr.iter().zip(gi).enumerate() {
        let ar: &[f64; W] = lanes(&a_t.re, s * cols + c);
        let ai: &[f64; W] = lanes(&a_t.im, s * cols + c);
        // `C64` multiplication of g by conj(a) = (ar, −ai).
        for k in 0..W {
            acc_re[k] += g_re * ar[k] - g_im * -ai[k];
        }
        for k in 0..W {
            acc_im[k] += g_re * -ai[k] + g_im * ar[k];
        }
    }
    for (k, z) in out.iter_mut().enumerate() {
        *z = C64::new(acc_re[k], acc_im[k]);
    }
}

/// `Re(Wᴴ·g)` over `n` sample columns: per element from `+0.0`,
/// `acc += w.re·g.re − (−w.im)·g.im` in ascending row order, the real
/// half of `CMatrix::adjoint_mul_vec`.
fn adjoint_re(w: &CMatrix, g: &Planes, out: &mut [f64], n: usize) {
    for c in 0..w.cols() {
        let dst = &mut out[c * n..][..n];
        let mut s = 0;
        while s + LANES <= n {
            adjoint_block::<LANES>(w, g, n, c, s, lanes_mut(dst, s));
            s += LANES;
        }
        for s in s..n {
            adjoint_block::<1>(w, g, n, c, s, lanes_mut(dst, s));
        }
    }
}

#[inline(always)]
fn adjoint_block<const W: usize>(
    w: &CMatrix,
    g: &Planes,
    n: usize,
    c: usize,
    s: usize,
    out: &mut [f64; W],
) {
    let mut acc = [0.0f64; W];
    for r in 0..w.rows() {
        let m = w[(r, c)].conj();
        let gr: &[f64; W] = lanes(&g.re, r * n + s);
        let gi: &[f64; W] = lanes(&g.im, r * n + s);
        for k in 0..W {
            acc[k] += m.re * gr[k] - m.im * gi[k];
        }
    }
    *out = acc;
}

/// The Softplus-on-modulus backward of `mod_softplus_backward` over whole
/// planes: `g = Re(g_a)·σ(|z|)·z/|z|`, or `0` where `|z| ≤ MIN_POSITIVE`,
/// with `|z|` (`hypot`) computed once per element instead of twice.
fn mod_softplus_backward_planes(z: &Planes, grad_re: &[f64], g: &mut Planes) {
    for (k, &g_a) in grad_re.iter().enumerate() {
        let (re, im) = (z.re[k], z.im[k]);
        let m = re.hypot(im);
        let scale = g_a * sigmoid(m);
        let (ur, ui) = if m > f64::MIN_POSITIVE {
            (re / m, im / m)
        } else {
            (0.0, 0.0)
        };
        g.re[k] = ur * scale;
        g.im[k] = ui * scale;
    }
}
