//! Kernel profiles: the batched forward's two arithmetic contracts and
//! their runtime-dispatched SIMD bodies.
//!
//! The engine's batched forward ([`crate::batched`]) ships two kernel
//! profiles:
//!
//! - [`KernelProfile::Reference`] — the seed-faithful kernel: separate
//!   multiply and add per term, bit-identical to the per-sample
//!   `CMatrix::mul_vec` path. This is the default and its outputs are the
//!   repository's long-standing golden bytes.
//! - [`KernelProfile::Fma`] — every `a·b + c` on the matmul and softplus
//!   hot paths contracted through fused multiply-add. `f64::mul_add` is
//!   **correctly rounded** (IEEE 754 `fusedMultiplyAdd`: one rounding per
//!   fused step), so the profile is exactly as deterministic and
//!   machine-independent as the reference — it simply computes *different*
//!   (slightly more accurate) last bits, pinned under its own goldens.
//!
//! Both profiles' matmul and activation bodies are selected **once per
//! process** with `is_x86_feature_detected!` ([`detected_tier`]):
//!
//! | tier | reference matmul | fma matmul | activation sweep (both) |
//! |---|---|---|---|
//! | `avx512` | explicit AVX-512F, 32 columns | explicit AVX-512F, 16 columns | explicit 8-lane (F+DQ+VL) |
//! | `avx2+fma` | auto-vectorized | explicit AVX2+FMA | scalar chain |
//! | `scalar` | auto-vectorized | `f64::mul_add` chain | scalar chain |
//!
//! Every body of a profile applies that profile's identical per-element
//! operation sequence in ascending-`k` order, with lanes fully
//! independent. For the reference matmul that is `t₁ = aᵣxᵣ`, `t₂ = aᵢxᵢ`,
//! `acc += t₁ − t₂` (and the imaginary twin) — `vmulpd` then
//! `vsubpd`/`vaddpd`, never a fused op. For the fma matmul it is
//! `fma(a.re, x.re, acc)` then `fnma(a.im, x.im, acc)`. Vector width
//! therefore cannot change a single bit, and the cross-tier equality is
//! pinned by tests, not hoped for.
//!
//! Profile selection is an *execution-level* knob with *result-level*
//! consequences, which is why everything downstream scopes determinism by
//! profile: the queue fingerprint, row-cache keys, and partial reports all
//! carry the profile (see `spnn-engine`), so artifacts from different
//! profiles can never silently mix.

use spnn_linalg::{CMatrix, C64};
use spnn_neural::activation::{softplus, softplus_fma};
use std::sync::OnceLock;

/// Which arithmetic the batched forward kernels use. See the module docs
/// for the determinism contract of each profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelProfile {
    /// Separate multiply/add, bit-identical to the per-sample reference
    /// path (the repository default since the seed).
    #[default]
    Reference,
    /// Fused multiply-add kernels (explicit SIMD with runtime dispatch,
    /// scalar `f64::mul_add` fallback) — deterministic under its own
    /// golden outputs.
    Fma,
}

impl KernelProfile {
    /// The canonical lowercase name (`reference` / `fma`) — the spelling
    /// used by the CLI flag, the `/shard` query parameter, fingerprints
    /// and partial reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelProfile::Reference => "reference",
            KernelProfile::Fma => "fma",
        }
    }

    /// Parses the canonical name; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reference" => Some(KernelProfile::Reference),
            "fma" => Some(KernelProfile::Fma),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for KernelProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KernelProfile::parse(s)
            .ok_or_else(|| format!("unknown kernel profile {s:?} (expected reference or fma)"))
    }
}

/// The SIMD tier both profiles' batched kernels dispatch to on this
/// machine (the module docs list each profile's body per tier). Purely
/// informational for results (all tiers of a profile are bit-identical);
/// advertised on `GET /healthz` and by `spnn validate` so operators can
/// see what a host actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// AVX-512F: 8 × f64 lanes per vector.
    Avx512,
    /// AVX2 + FMA: 4 × f64 lanes per vector.
    Avx2Fma,
    /// No explicit SIMD: the reference profile's auto-vectorized bodies
    /// and the fma profile's scalar `f64::mul_add` chain (correctly
    /// rounded on every platform Rust supports; may lower to a libm call
    /// without hardware FMA).
    Scalar,
}

impl KernelTier {
    /// The canonical lowercase name (`avx512` / `avx2+fma` / `scalar`).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelTier::Avx512 => "avx512",
            KernelTier::Avx2Fma => "avx2+fma",
            KernelTier::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The best SIMD tier this CPU supports, detected once per process.
pub fn detected_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(probe_tier)
}

#[cfg(target_arch = "x86_64")]
fn probe_tier() -> KernelTier {
    if std::arch::is_x86_feature_detected!("avx512f") {
        KernelTier::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        KernelTier::Avx2Fma
    } else {
        KernelTier::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe_tier() -> KernelTier {
    KernelTier::Scalar
}

/// Column-chunk width of the reference micro-kernel: four AVX-512 vectors
/// of `f64` per plane. Fixed-size array lanes let LLVM keep the
/// accumulators in vector registers across the whole `k` loop.
const BLOCK: usize = 32;

/// Column-chunk width of the Fma micro-kernel: two AVX-512 vectors / four
/// AVX2 vectors of `f64`. Small enough that the per-chunk re/im
/// accumulators fit the vector register file on both tiers.
const FBLOCK: usize = 16;

/// One layer's `Z = M · A` over a column tile of width `w` (row stride `w`
/// in all planes) under `profile`, on the detected SIMD tier. With
/// `real_input` the `x.im = +0` products are skipped; see
/// [`crate::TestBatch::accuracy_with`] for why that is exact.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_tile(
    profile: KernelProfile,
    m: &CMatrix,
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    real_input: bool,
) {
    // SAFETY: `detected_tier` only returns a tier this CPU supports.
    unsafe {
        matmul_tile_forced(
            profile,
            detected_tier(),
            m,
            a_re,
            a_im,
            z_re,
            z_im,
            w,
            real_input,
        )
    };
}

/// [`matmul_tile`] on an explicitly chosen `tier` — the one driver behind
/// both profiles, and the cross-tier equality test hook. Each full column
/// chunk ([`BLOCK`] or [`FBLOCK`] wide) runs on the tier's body; partial
/// chunks run the profile's scalar sequence. Blocking only changes *which*
/// independent elements advance together, never the per-element rounding,
/// so the result is a pure function of the inputs, independent of vector
/// width, chunking, and machine. Not part of the public API surface.
///
/// # Safety
///
/// The CPU must support `tier` (it is one of [`available_tiers`]).
///
/// # Panics
///
/// Panics if an input plane holds fewer than `m.cols() × w` values.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn matmul_tile_forced(
    profile: KernelProfile,
    tier: KernelTier,
    m: &CMatrix,
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    real_input: bool,
) {
    match profile {
        KernelProfile::Reference => drive::<false>(tier, m, a_re, a_im, z_re, z_im, w, real_input),
        KernelProfile::Fma => drive::<true>(tier, m, a_re, a_im, z_re, z_im, w, real_input),
    }
}

/// [`matmul_tile_forced`] compiled once per profile (`FUSED` is the
/// `fma` profile), so neither profile's loop dispatches on the other's
/// bodies.
///
/// # Safety
///
/// As [`matmul_tile_forced`].
#[allow(clippy::too_many_arguments)]
unsafe fn drive<const FUSED: bool>(
    tier: KernelTier,
    m: &CMatrix,
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    real_input: bool,
) {
    let width = if FUSED { FBLOCK } else { BLOCK };
    // The SIMD chunks load `k·w + j` for every k < m.cols(), j < w unchecked.
    let plane = m.cols() * w;
    assert!(
        a_re.len() >= plane && (real_input || a_im.len() >= plane),
        "input plane shorter than cols × w"
    );
    let out_rows = z_re.len() / w;
    for i in 0..out_rows {
        let row = m.row(i);
        let mut jb = 0usize;
        // Full column chunks: accumulators live in registers across the
        // whole k loop, stores happen once per chunk.
        while jb + width <= w {
            let zr = &mut z_re[i * w + jb..i * w + jb + width];
            let zi = &mut z_im[i * w + jb..i * w + jb + width];
            // SAFETY: the caller guarantees the CPU supports `tier`; the
            // assert above bounds every load of the chunk bodies.
            match (FUSED, tier) {
                #[cfg(target_arch = "x86_64")]
                (false, KernelTier::Avx512) => unsafe {
                    chunk_avx512(row, a_re, a_im, zr, zi, w, jb, real_input)
                },
                (false, _) => chunk(row, a_re, a_im, zr, zi, w, jb, real_input),
                #[cfg(target_arch = "x86_64")]
                (true, KernelTier::Avx512) => unsafe {
                    chunk_fma_avx512(row, a_re, a_im, zr, zi, w, jb, real_input)
                },
                #[cfg(target_arch = "x86_64")]
                (true, KernelTier::Avx2Fma) => unsafe {
                    chunk_fma_avx2(row, a_re, a_im, zr, zi, w, jb, real_input)
                },
                (true, _) => chunk_fma_scalar(row, a_re, a_im, zr, zi, w, jb, real_input),
            }
            jb += width;
        }
        // Scalar tail for the last partial chunk (same op sequence).
        for j in jb..w {
            let (re, im) = if FUSED {
                element_fma(row, a_re, a_im, w, j, real_input)
            } else {
                element(row, a_re, a_im, w, j, real_input)
            };
            z_re[i * w + j] = re;
            z_im[i * w + j] = im;
        }
    }
}

/// One reference output element: `CMatrix::mul_vec`'s sequence
/// `t₁ = aᵣxᵣ`, `t₂ = aᵢxᵢ`, `acc += t₁ − t₂` (and the imaginary twin).
#[inline(always)]
fn element(
    row: &[C64],
    a_re: &[f64],
    a_im: &[f64],
    w: usize,
    j: usize,
    real_input: bool,
) -> (f64, f64) {
    let mut acc_re = 0.0f64;
    let mut acc_im = 0.0f64;
    for (k, &a) in row.iter().enumerate() {
        let xr = a_re[k * w + j];
        if real_input {
            acc_re += a.re * xr;
            acc_im += a.im * xr;
        } else {
            let xi = a_im[k * w + j];
            let t1 = a.re * xr;
            let t2 = a.im * xi;
            acc_re += t1 - t2;
            let t3 = a.re * xi;
            let t4 = a.im * xr;
            acc_im += t3 + t4;
        }
    }
    (acc_re, acc_im)
}

/// One fused output element: `fma(a.re, x.re, acc)`, then (complex input)
/// `fnma(a.im, x.im, acc)`, and the imaginary twin.
#[inline(always)]
fn element_fma(
    row: &[C64],
    a_re: &[f64],
    a_im: &[f64],
    w: usize,
    j: usize,
    real_input: bool,
) -> (f64, f64) {
    let mut acc_re = 0.0f64;
    let mut acc_im = 0.0f64;
    for (k, a) in row.iter().enumerate() {
        let xr = a_re[k * w + j];
        if real_input {
            acc_re = a.re.mul_add(xr, acc_re);
            acc_im = a.im.mul_add(xr, acc_im);
        } else {
            let xi = a_im[k * w + j];
            acc_re = a.re.mul_add(xr, acc_re);
            acc_re = (-a.im).mul_add(xi, acc_re);
            acc_im = a.im.mul_add(xr, acc_im);
            acc_im = a.re.mul_add(xi, acc_im);
        }
    }
    (acc_re, acc_im)
}

/// The auto-vectorized reference chunk: [`BLOCK`] independent accumulator
/// lanes advancing [`element`]'s sequence together.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn chunk(
    row: &[C64],
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    jb: usize,
    real_input: bool,
) {
    let mut acc_re = [0.0f64; BLOCK];
    let mut acc_im = [0.0f64; BLOCK];
    for (k, &a) in row.iter().enumerate() {
        let x_re: &[f64; BLOCK] = a_re[k * w + jb..k * w + jb + BLOCK].try_into().unwrap();
        if real_input {
            for l in 0..BLOCK {
                acc_re[l] += a.re * x_re[l];
            }
            for l in 0..BLOCK {
                acc_im[l] += a.im * x_re[l];
            }
        } else {
            let x_im: &[f64; BLOCK] = a_im[k * w + jb..k * w + jb + BLOCK].try_into().unwrap();
            for l in 0..BLOCK {
                let t1 = a.re * x_re[l];
                let t2 = a.im * x_im[l];
                acc_re[l] += t1 - t2;
            }
            for l in 0..BLOCK {
                let t3 = a.re * x_im[l];
                let t4 = a.im * x_re[l];
                acc_im[l] += t3 + t4;
            }
        }
    }
    z_re.copy_from_slice(&acc_re);
    z_im.copy_from_slice(&acc_im);
}

/// AVX-512F reference chunk: four `__m512d` accumulators per plane
/// covering the [`BLOCK`] lanes. `vmulpd` then `vsubpd`/`vaddpd` apply
/// exactly [`chunk`]'s per-lane sequence — no fused op anywhere.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F (guaranteed by
/// [`detected_tier`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn chunk_avx512(
    row: &[C64],
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    jb: usize,
    real_input: bool,
) {
    use std::arch::x86_64::*;
    const L: usize = 8; // f64 lanes per __m512d
    let mut cr = [_mm512_setzero_pd(); BLOCK / L];
    let mut ci = [_mm512_setzero_pd(); BLOCK / L];
    for (k, a) in row.iter().enumerate() {
        let ar = _mm512_set1_pd(a.re);
        let ai = _mm512_set1_pd(a.im);
        let base = k * w + jb;
        debug_assert!(base + BLOCK <= a_re.len());
        if real_input {
            for v in 0..BLOCK / L {
                let x = _mm512_loadu_pd(a_re.as_ptr().add(base + v * L));
                cr[v] = _mm512_add_pd(cr[v], _mm512_mul_pd(ar, x));
                ci[v] = _mm512_add_pd(ci[v], _mm512_mul_pd(ai, x));
            }
        } else {
            for v in 0..BLOCK / L {
                let xr = _mm512_loadu_pd(a_re.as_ptr().add(base + v * L));
                let xi = _mm512_loadu_pd(a_im.as_ptr().add(base + v * L));
                let t1 = _mm512_mul_pd(ar, xr);
                let t2 = _mm512_mul_pd(ai, xi);
                cr[v] = _mm512_add_pd(cr[v], _mm512_sub_pd(t1, t2));
                let t3 = _mm512_mul_pd(ar, xi);
                let t4 = _mm512_mul_pd(ai, xr);
                ci[v] = _mm512_add_pd(ci[v], _mm512_add_pd(t3, t4));
            }
        }
    }
    for v in 0..BLOCK / L {
        _mm512_storeu_pd(z_re.as_mut_ptr().add(v * L), cr[v]);
        _mm512_storeu_pd(z_im.as_mut_ptr().add(v * L), ci[v]);
    }
}

/// The scalar (and cross-tier reference) fused chunk: [`FBLOCK`]
/// independent accumulator lanes, `f64::mul_add` per term — the exact
/// per-element sequence the SIMD chunks vectorize.
#[allow(clippy::too_many_arguments)]
fn chunk_fma_scalar(
    row: &[C64],
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    jb: usize,
    real_input: bool,
) {
    let mut acc_re = [0.0f64; FBLOCK];
    let mut acc_im = [0.0f64; FBLOCK];
    for (k, a) in row.iter().enumerate() {
        let base = k * w + jb;
        let xr: &[f64; FBLOCK] = a_re[base..base + FBLOCK].try_into().unwrap();
        if real_input {
            for l in 0..FBLOCK {
                acc_re[l] = a.re.mul_add(xr[l], acc_re[l]);
                acc_im[l] = a.im.mul_add(xr[l], acc_im[l]);
            }
        } else {
            let xi: &[f64; FBLOCK] = a_im[base..base + FBLOCK].try_into().unwrap();
            for l in 0..FBLOCK {
                acc_re[l] = a.re.mul_add(xr[l], acc_re[l]);
                acc_re[l] = (-a.im).mul_add(xi[l], acc_re[l]);
                acc_im[l] = a.im.mul_add(xr[l], acc_im[l]);
                acc_im[l] = a.re.mul_add(xi[l], acc_im[l]);
            }
        }
    }
    z_re.copy_from_slice(&acc_re);
    z_im.copy_from_slice(&acc_im);
}

/// AVX2+FMA chunk: four `__m256d` accumulator pairs covering the
/// [`FBLOCK`] lanes. `vfmadd`/`vfnmadd` apply exactly the scalar chunk's
/// per-lane sequence.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA (guaranteed by
/// [`detected_tier`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn chunk_fma_avx2(
    row: &[C64],
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    jb: usize,
    real_input: bool,
) {
    use std::arch::x86_64::*;
    const L: usize = 4; // f64 lanes per __m256d
    let mut cr = [_mm256_setzero_pd(); FBLOCK / L];
    let mut ci = [_mm256_setzero_pd(); FBLOCK / L];
    for (k, a) in row.iter().enumerate() {
        let ar = _mm256_set1_pd(a.re);
        let ai = _mm256_set1_pd(a.im);
        let base = k * w + jb;
        debug_assert!(base + FBLOCK <= a_re.len());
        if real_input {
            for v in 0..FBLOCK / L {
                let x = _mm256_loadu_pd(a_re.as_ptr().add(base + v * L));
                cr[v] = _mm256_fmadd_pd(ar, x, cr[v]);
                ci[v] = _mm256_fmadd_pd(ai, x, ci[v]);
            }
        } else {
            for v in 0..FBLOCK / L {
                let xr = _mm256_loadu_pd(a_re.as_ptr().add(base + v * L));
                let xi = _mm256_loadu_pd(a_im.as_ptr().add(base + v * L));
                cr[v] = _mm256_fmadd_pd(ar, xr, cr[v]);
                cr[v] = _mm256_fnmadd_pd(ai, xi, cr[v]);
                ci[v] = _mm256_fmadd_pd(ai, xr, ci[v]);
                ci[v] = _mm256_fmadd_pd(ar, xi, ci[v]);
            }
        }
    }
    for v in 0..FBLOCK / L {
        _mm256_storeu_pd(z_re.as_mut_ptr().add(v * L), cr[v]);
        _mm256_storeu_pd(z_im.as_mut_ptr().add(v * L), ci[v]);
    }
}

/// AVX-512F fused chunk: two `__m512d` accumulator pairs covering the
/// [`FBLOCK`] lanes — the same per-lane sequence at twice the width.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F (guaranteed by
/// [`detected_tier`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn chunk_fma_avx512(
    row: &[C64],
    a_re: &[f64],
    a_im: &[f64],
    z_re: &mut [f64],
    z_im: &mut [f64],
    w: usize,
    jb: usize,
    real_input: bool,
) {
    use std::arch::x86_64::*;
    const L: usize = 8; // f64 lanes per __m512d
    let mut cr = [_mm512_setzero_pd(); FBLOCK / L];
    let mut ci = [_mm512_setzero_pd(); FBLOCK / L];
    for (k, a) in row.iter().enumerate() {
        let ar = _mm512_set1_pd(a.re);
        let ai = _mm512_set1_pd(a.im);
        let base = k * w + jb;
        debug_assert!(base + FBLOCK <= a_re.len());
        if real_input {
            for v in 0..FBLOCK / L {
                let x = _mm512_loadu_pd(a_re.as_ptr().add(base + v * L));
                cr[v] = _mm512_fmadd_pd(ar, x, cr[v]);
                ci[v] = _mm512_fmadd_pd(ai, x, ci[v]);
            }
        } else {
            for v in 0..FBLOCK / L {
                let xr = _mm512_loadu_pd(a_re.as_ptr().add(base + v * L));
                let xi = _mm512_loadu_pd(a_im.as_ptr().add(base + v * L));
                cr[v] = _mm512_fmadd_pd(ar, xr, cr[v]);
                cr[v] = _mm512_fnmadd_pd(ai, xi, cr[v]);
                ci[v] = _mm512_fmadd_pd(ai, xr, ci[v]);
                ci[v] = _mm512_fmadd_pd(ar, xi, ci[v]);
            }
        }
    }
    for v in 0..FBLOCK / L {
        _mm512_storeu_pd(z_re.as_mut_ptr().add(v * L), cr[v]);
        _mm512_storeu_pd(z_im.as_mut_ptr().add(v * L), ci[v]);
    }
}

/// Softplus-on-modulus over a whole tile under `profile`:
/// `z_re = softplus(|z|)`, `z_im = 0` per element, with the profile's
/// modulus (`√(re² + im²)` unfused, `√(fma(re, re, im·im))` fused) and
/// softplus ([`softplus`] / [`softplus_fma`]).
///
/// On AVX-512 F+DQ+VL both profiles run the explicit 8-lane sweep
/// (`spnn_neural::activation::avx512`), whose intrinsics map 1:1 to the
/// scalar chain. Elsewhere the reference profile runs its flat two-stream
/// zip and the fma profile its `mul_add` chain (compiled under
/// `target_feature(fma)` on capable machines so `mul_add` lowers to
/// hardware `vfmadd`). All paths of a profile agree bit for bit.
pub(crate) fn activate_tile(profile: KernelProfile, z_re: &mut [f64], z_im: &mut [f64]) {
    // SAFETY: each arm runs only on the tier `detected_tier` found, and the
    // 512-bit sweep only where `avx512_activation_available` found DQ+VL.
    match (profile, detected_tier()) {
        #[cfg(target_arch = "x86_64")]
        (KernelProfile::Reference, KernelTier::Avx512) if avx512_activation_available() => unsafe {
            spnn_neural::activation::avx512::activate_planes::<false>(z_re, z_im)
        },
        (KernelProfile::Reference, _) => activate_body(z_re, z_im),
        #[cfg(target_arch = "x86_64")]
        (KernelProfile::Fma, KernelTier::Avx512) if avx512_activation_available() => unsafe {
            spnn_neural::activation::avx512::activate_planes::<true>(z_re, z_im)
        },
        #[cfg(target_arch = "x86_64")]
        (KernelProfile::Fma, KernelTier::Avx512 | KernelTier::Avx2Fma) => unsafe {
            activate_fma_hw(z_re, z_im)
        },
        (KernelProfile::Fma, _) => activate_fma_body(z_re, z_im),
    }
}

/// The 512-bit activation sweep needs the DQ (vector `f64 ↔ i64`
/// conversions for the exponent bit-build) and VL subsets on top of
/// AVX-512F; probe them once. CPUs with F but not DQ/VL fall back to the
/// other bodies — same bits either way.
#[cfg(target_arch = "x86_64")]
fn avx512_activation_available() -> bool {
    static OK: OnceLock<bool> = OnceLock::new();
    *OK.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
    })
}

/// The reference sweep without explicit SIMD: identical scalar ops per
/// element to `mod_softplus`.
fn activate_body(z_re: &mut [f64], z_im: &mut [f64]) {
    for (r, i_) in z_re.iter_mut().zip(z_im.iter_mut()) {
        let s1 = *r * *r;
        let s2 = *i_ * *i_;
        *r = softplus((s1 + s2).sqrt());
        *i_ = 0.0;
    }
}

#[inline(always)]
fn activate_fma_body(z_re: &mut [f64], z_im: &mut [f64]) {
    for (r, i_) in z_re.iter_mut().zip(z_im.iter_mut()) {
        let s = r.mul_add(*r, *i_ * *i_);
        *r = softplus_fma(s.sqrt());
        *i_ = 0.0;
    }
}

/// # Safety
///
/// Caller must ensure the CPU supports FMA (guaranteed by
/// [`detected_tier`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn activate_fma_hw(z_re: &mut [f64], z_im: &mut [f64]) {
    activate_fma_body(z_re, z_im);
}

/// The tiers that can actually execute on this machine (always includes
/// `Scalar`). Test hook for cross-tier equality checks.
#[doc(hidden)]
pub fn available_tiers() -> Vec<KernelTier> {
    let mut tiers = vec![KernelTier::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            tiers.push(KernelTier::Avx2Fma);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            tiers.push(KernelTier::Avx512);
        }
    }
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_round_trip() {
        for p in [KernelProfile::Reference, KernelProfile::Fma] {
            assert_eq!(KernelProfile::parse(p.as_str()), Some(p));
            assert_eq!(p.as_str().parse::<KernelProfile>().unwrap(), p);
        }
        assert_eq!(KernelProfile::parse("avx2"), None);
        assert!("turbo".parse::<KernelProfile>().is_err());
        assert_eq!(KernelProfile::default(), KernelProfile::Reference);
        assert_eq!(format!("{}", KernelProfile::Fma), "fma");
    }

    #[test]
    fn tier_detection_is_stable_and_named() {
        let t = detected_tier();
        assert_eq!(t, detected_tier(), "dispatch must be decided once");
        assert!(["avx512", "avx2+fma", "scalar"].contains(&t.as_str()));
        assert!(available_tiers().contains(&KernelTier::Scalar));
        assert!(available_tiers().contains(&t));
    }

    /// A deterministic pseudo-random plane/matrix fixture (no RNG: the
    /// kernel contract is pure arithmetic, so fixed inputs suffice).
    fn fixture(rows: usize, cols: usize, w: usize) -> (CMatrix, Vec<f64>, Vec<f64>) {
        let mut m = CMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = C64::new(
                    ((r * 31 + c * 17) % 23) as f64 * 0.083 - 0.9,
                    ((r * 13 + c * 7) % 19) as f64 * 0.061 - 0.5,
                );
            }
        }
        let a_re: Vec<f64> = (0..cols * w)
            .map(|i| ((i * 29) % 41) as f64 * 0.047 - 0.95)
            .collect();
        let a_im: Vec<f64> = (0..cols * w)
            .map(|i| ((i * 37) % 43) as f64 * 0.043 - 0.9)
            .collect();
        (m, a_re, a_im)
    }

    /// The reference contract written out per element: `CMatrix::mul_vec`'s
    /// `acc += t₁ − t₂` sequence (the `x.im` products dropped for real
    /// input), one column at a time.
    fn per_element_reference(
        m: &CMatrix,
        a_re: &[f64],
        a_im: &[f64],
        w: usize,
        real_input: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        let (mut z_re, mut z_im) = (vec![0.0; m.rows() * w], vec![0.0; m.rows() * w]);
        for i in 0..m.rows() {
            for j in 0..w {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for k in 0..m.cols() {
                    let a = m[(i, k)];
                    let xr = a_re[k * w + j];
                    if real_input {
                        re += a.re * xr;
                        im += a.im * xr;
                    } else {
                        let xi = a_im[k * w + j];
                        re += a.re * xr - a.im * xi;
                        im += a.re * xi + a.im * xr;
                    }
                }
                z_re[i * w + j] = re;
                z_im[i * w + j] = im;
            }
        }
        (z_re, z_im)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn all_available_tiers_produce_identical_bits() {
        // Widths cover tail-only tiles, one and two full chunks of either
        // profile, and full chunks plus an odd tail; both the complex and
        // the real-input kernels must agree across tiers to the last bit —
        // the machine-independence claim of each profile. The reference
        // profile must moreover equal its per-element sequence.
        for &(rows, cols, w) in &[
            (5usize, 7usize, 16usize),
            (16, 16, 40),
            (3, 16, 17),
            (10, 4, 64),
            (16, 16, 71),
        ] {
            let (m, a_re, a_im) = fixture(rows, cols, w);
            for profile in [KernelProfile::Reference, KernelProfile::Fma] {
                for &real_input in &[false, true] {
                    let (want_re, want_im) = match profile {
                        KernelProfile::Reference => {
                            per_element_reference(&m, &a_re, &a_im, w, real_input)
                        }
                        KernelProfile::Fma => {
                            let mut re = vec![0.0; rows * w];
                            let mut im = vec![0.0; rows * w];
                            // SAFETY: the scalar tier runs on every CPU.
                            unsafe {
                                matmul_tile_forced(
                                    profile,
                                    KernelTier::Scalar,
                                    &m,
                                    &a_re,
                                    &a_im,
                                    &mut re,
                                    &mut im,
                                    w,
                                    real_input,
                                )
                            };
                            (re, im)
                        }
                    };
                    for tier in available_tiers() {
                        let mut got_re = vec![0.0; rows * w];
                        let mut got_im = vec![0.0; rows * w];
                        // SAFETY: `available_tiers` lists only tiers this
                        // CPU supports.
                        unsafe {
                            matmul_tile_forced(
                                profile,
                                tier,
                                &m,
                                &a_re,
                                &a_im,
                                &mut got_re,
                                &mut got_im,
                                w,
                                real_input,
                            )
                        };
                        let case =
                            format!("{profile} {tier:?} ({rows}x{cols} w={w} real={real_input})");
                        assert_eq!(bits(&got_re), bits(&want_re), "re plane, {case}");
                        assert_eq!(bits(&got_im), bits(&want_im), "im plane, {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn reference_activation_matches_mod_softplus_bitwise() {
        // The dispatched sweep (explicit AVX-512 where available) against
        // the per-sample activation, over full 8-lane groups plus a tail.
        let z: Vec<C64> = (0..97)
            .map(|i| C64::new((i as f64) * 0.11 - 4.0, (i as f64) * 0.07 - 3.0))
            .collect();
        let mut z_re: Vec<f64> = z.iter().map(|v| v.re).collect();
        let mut z_im: Vec<f64> = z.iter().map(|v| v.im).collect();
        activate_tile(KernelProfile::Reference, &mut z_re, &mut z_im);
        let want = spnn_neural::activation::mod_softplus(&z);
        for (k, a) in want.iter().enumerate() {
            assert_eq!(z_re[k].to_bits(), a.re.to_bits(), "element {k}");
            assert_eq!(z_im[k], 0.0, "imaginary plane zeroed at {k}");
        }
    }

    #[test]
    fn fma_matmul_agrees_with_reference_to_rounding() {
        // Not bit-identical (that is the whole point of the profile split)
        // but numerically the same product: agreement to ~1e-13 relative.
        let (m, a_re, a_im) = fixture(6, 16, 33);
        let w = 33;
        let mut f_re = vec![0.0; 6 * w];
        let mut f_im = vec![0.0; 6 * w];
        matmul_tile(
            KernelProfile::Fma,
            &m,
            &a_re,
            &a_im,
            &mut f_re,
            &mut f_im,
            w,
            false,
        );
        let (re, im) = per_element_reference(&m, &a_re, &a_im, w, false);
        for k in 0..6 * w {
            assert!(
                (f_re[k] - re[k]).abs() <= 1e-12 * re[k].abs().max(1.0),
                "re[{k}]"
            );
            assert!(
                (f_im[k] - im[k]).abs() <= 1e-12 * im[k].abs().max(1.0),
                "im[{k}]"
            );
        }
    }

    #[test]
    fn fused_activation_is_deterministic_and_close_to_reference() {
        let z_re: Vec<f64> = (0..97).map(|i| (i as f64) * 0.11 - 4.0).collect();
        let z_im: Vec<f64> = (0..97).map(|i| (i as f64) * 0.07 - 3.0).collect();
        let mut a_re = z_re.clone();
        let mut a_im = z_im.clone();
        activate_tile(KernelProfile::Fma, &mut a_re, &mut a_im);
        let mut b_re = z_re.clone();
        let mut b_im = z_im.clone();
        activate_tile(KernelProfile::Fma, &mut b_re, &mut b_im);
        for (a, b) in a_re.iter().zip(&b_re) {
            assert_eq!(a.to_bits(), b.to_bits(), "fused activation must be pure");
        }
        assert!(a_im.iter().all(|&x| x == 0.0), "imaginary plane zeroed");
        for (i, (&r, &im)) in z_re.iter().zip(&z_im).enumerate() {
            let reference = softplus((r * r + im * im).sqrt());
            assert!(
                (a_re[i] - reference).abs() <= 1e-12 * reference.max(1.0),
                "element {i}: fused {} vs reference {reference}",
                a_re[i]
            );
        }
    }
}
