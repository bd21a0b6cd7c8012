//! Nonlinearities of the paper's SPNN (§III-D): Softplus on the modulus,
//! modulus-squared intensity readout, and LogSoftMax.
//!
//! Forward and backward passes are free functions over slices; the backward
//! functions take the *upstream* gradient and the cached forward inputs and
//! return the downstream gradient, packing complex gradients as
//! `∂L/∂Re + i·∂L/∂Im`.

use spnn_linalg::C64;

/// Two-part Cody–Waite split of `ln 2` shared by every exp kernel in this
/// module (scalar, fused, and explicit-SIMD — one definition so the paths
/// cannot drift apart).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Degree-21 Chebyshev fit of `ln(1+u)/u` on `[0, 1]` (coefficients
/// fitted at 45-digit precision; worst relative error 1.1e-14 over the
/// interval). Shared by every `ln(1+u)` kernel in this module.
const LN1P_Q: [f64; 22] = [
    1.0,
    -0.49999999999924183,
    0.33333333328372006,
    -0.2499999976605303,
    0.19999993210767766,
    -0.16666546159020404,
    0.14284320411215368,
    -0.12488865029542943,
    0.11046999932925998,
    -0.09725940018684134,
    0.08203622424120112,
    -0.061304859365163895,
    0.03470461924839339,
    -0.008782192991243921,
    -0.0056015099516097564,
    0.0036703733141880755,
    0.0067014098459350704,
    -0.012924182782667213,
    0.01070219441875136,
    -0.005083833215212285,
    0.0013541833764644643,
    -0.00015820467965422803,
];

/// `e^{−t}` for `t ≥ 0` via range reduction and a degree-12 Estrin-scheme
/// polynomial — straight-line f64 arithmetic with no libm calls, so an
/// explicit SIMD sweep can apply the same operations over independent
/// lanes and stay bit-identical to the scalar evaluation.
///
/// Relative error < 3e-16 on the reduced interval. Inputs are clamped at
/// 709, where the 2^n scale factor becomes exactly 0 — the same 0 the
/// libm formulation underflows to. NaN propagates (the saturating
/// `NaN as i64` cast yields scale 1 and the polynomial keeps the NaN), so
/// an upstream numeric fault surfaces instead of masquerading as 0.
#[inline(always)]
fn exp_neg(t: f64) -> f64 {
    debug_assert!(
        t >= 0.0 || t.is_nan(),
        "exp_neg expects t >= 0 (or NaN), got {t}"
    );
    // NaN-preserving clamp (`f64::min` would swallow the NaN).
    let t = if t > 709.1 { 709.1 } else { t };
    let y = -t;
    let n = (y * std::f64::consts::LOG2_E).round_ties_even();
    // Two-part Cody–Waite reduction: r = y − n·ln2 ∈ [−ln2/2, ln2/2].
    let r = (y - n * LN2_HI) - n * LN2_LO;
    // e^r = Σ r^k/k!, k ≤ 12 (the k = 13 remainder is < 2e-16 relative),
    // evaluated Estrin-style to keep the dependency chain short.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p01 = 1.0 + r;
    let p23 = 1.0 / 2.0 + r * (1.0 / 6.0);
    let p45 = 1.0 / 24.0 + r * (1.0 / 120.0);
    let p67 = 1.0 / 720.0 + r * (1.0 / 5_040.0);
    let p89 = 1.0 / 40_320.0 + r * (1.0 / 362_880.0);
    let p1011 = 1.0 / 3_628_800.0 + r * (1.0 / 39_916_800.0);
    let a = p01 + r2 * p23;
    let b = p45 + r2 * p67;
    let c = p89 + r2 * p1011;
    let d = 1.0 / 479_001_600.0;
    let low = a + r4 * b;
    let high = c + r4 * d;
    let p = low + r8 * high;
    // 2^n for n ∈ [−1023, 0], built directly from the exponent bits
    // (n = −1023 gives the all-zero pattern, i.e. exactly 0.0).
    let scale = f64::from_bits(((n as i64 + 1023) as u64) << 52);
    p * scale
}

/// `ln(1 + u)` for `u ∈ [0, 1]` as `u · Q(u)` with a degree-21 Chebyshev
/// polynomial `Q ≈ ln(1+u)/u` (coefficients fitted at 45-digit precision;
/// worst relative error 1.1e-14 over the interval). Division-free,
/// branch-free, select-free — mul/add only — so it maps to pure
/// `vmulpd`/`vaddpd` streams. `Q(0) = 1` exactly, so the deep tail
/// (`u → 0`) returns `u` itself with vanishing relative error.
#[inline(always)]
fn ln_1p_unit(u: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&u) || u.is_nan(),
        "ln_1p_unit expects u in [0, 1] (or NaN), got {u}"
    );
    const Q: [f64; 22] = LN1P_Q;
    // Estrin evaluation: short dependency chains, plenty of ILP.
    let u2 = u * u;
    let u4 = u2 * u2;
    let u8 = u4 * u4;
    let u16 = u8 * u8;
    let p01 = Q[0] + u * Q[1];
    let p23 = Q[2] + u * Q[3];
    let p45 = Q[4] + u * Q[5];
    let p67 = Q[6] + u * Q[7];
    let p89 = Q[8] + u * Q[9];
    let p1011 = Q[10] + u * Q[11];
    let p1213 = Q[12] + u * Q[13];
    let p1415 = Q[14] + u * Q[15];
    let p1617 = Q[16] + u * Q[17];
    let p1819 = Q[18] + u * Q[19];
    let p2021 = Q[20] + u * Q[21];
    let a0 = p01 + u2 * p23;
    let a1 = p45 + u2 * p67;
    let a2 = p89 + u2 * p1011;
    let a3 = p1213 + u2 * p1415;
    let a4 = p1617 + u2 * p1819;
    let a5 = p2021;
    let b0 = a0 + u4 * a1;
    let b1 = a2 + u4 * a3;
    let b2 = a4 + u4 * a5;
    let c0 = b0 + u8 * b1;
    u * (c0 + u16 * b2)
}

/// Numerically stable softplus `ln(1 + eˣ)`.
///
/// Computed as `max(x, 0) + ln(1 + e^{−|x|})` (overflow-free) on top of
/// the branchless arithmetic kernels `exp_neg` / `ln_1p_unit` instead of
/// libm: a fixed sequence of IEEE operations that the batched forward
/// (`spnn_core::batched`) evaluates over whole activation planes, with the
/// explicit 8-lane `avx512` sweep where the CPU allows, bit-identical
/// to per-sample evaluation. Agrees with the libm formulation to better
/// than 1e-13 relative error for `x ≥ −18`; for deeper negative inputs
/// (where softplus itself is < 2e-8) the error stays below 1e-16
/// absolute (pinned by tests).
#[inline(always)]
pub fn softplus(x: f64) -> f64 {
    x.max(0.0) + ln_1p_unit(exp_neg(x.abs()))
}

/// `e^{−t}` for `t ≥ 0` on fused multiply-adds: the same range reduction
/// and degree-12 Estrin polynomial as `exp_neg`, with every `a·b + c`
/// contracted through [`f64::mul_add`]. Since `mul_add` is correctly
/// rounded (one rounding per fused step instead of two), the result is
/// deterministic and machine-independent — but *different in the last
/// bits* from `exp_neg`, which is why the two live side by side: the
/// engine's `reference` kernel profile keeps the unfused form, the `fma`
/// profile uses this one under its own pinned goldens.
#[inline(always)]
fn exp_neg_fma(t: f64) -> f64 {
    debug_assert!(
        t >= 0.0 || t.is_nan(),
        "exp_neg_fma expects t >= 0 (or NaN), got {t}"
    );
    let t = if t > 709.1 { 709.1 } else { t };
    let y = -t;
    let n = (y * std::f64::consts::LOG2_E).round_ties_even();
    // Cody–Waite reduction, each step fused: r = y − n·ln2_hi − n·ln2_lo.
    let r = (-n).mul_add(LN2_LO, (-n).mul_add(LN2_HI, y));
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p01 = 1.0 + r;
    let p23 = r.mul_add(1.0 / 6.0, 1.0 / 2.0);
    let p45 = r.mul_add(1.0 / 120.0, 1.0 / 24.0);
    let p67 = r.mul_add(1.0 / 5_040.0, 1.0 / 720.0);
    let p89 = r.mul_add(1.0 / 362_880.0, 1.0 / 40_320.0);
    let p1011 = r.mul_add(1.0 / 39_916_800.0, 1.0 / 3_628_800.0);
    let a = r2.mul_add(p23, p01);
    let b = r2.mul_add(p67, p45);
    let c = r2.mul_add(p1011, p89);
    let d = 1.0 / 479_001_600.0;
    let low = r4.mul_add(b, a);
    let high = r4.mul_add(d, c);
    let p = r8.mul_add(high, low);
    let scale = f64::from_bits(((n as i64 + 1023) as u64) << 52);
    p * scale
}

/// `ln(1 + u)` for `u ∈ [0, 1]`: the `ln_1p_unit` Chebyshev evaluation
/// with every Estrin combination step contracted through
/// [`f64::mul_add`]. See [`exp_neg_fma`] for why the fused twin exists.
#[inline(always)]
fn ln_1p_unit_fma(u: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&u) || u.is_nan(),
        "ln_1p_unit_fma expects u in [0, 1] (or NaN), got {u}"
    );
    const Q: [f64; 22] = LN1P_Q;
    let u2 = u * u;
    let u4 = u2 * u2;
    let u8 = u4 * u4;
    let u16 = u8 * u8;
    let p01 = u.mul_add(Q[1], Q[0]);
    let p23 = u.mul_add(Q[3], Q[2]);
    let p45 = u.mul_add(Q[5], Q[4]);
    let p67 = u.mul_add(Q[7], Q[6]);
    let p89 = u.mul_add(Q[9], Q[8]);
    let p1011 = u.mul_add(Q[11], Q[10]);
    let p1213 = u.mul_add(Q[13], Q[12]);
    let p1415 = u.mul_add(Q[15], Q[14]);
    let p1617 = u.mul_add(Q[17], Q[16]);
    let p1819 = u.mul_add(Q[19], Q[18]);
    let p2021 = u.mul_add(Q[21], Q[20]);
    let a0 = u2.mul_add(p23, p01);
    let a1 = u2.mul_add(p67, p45);
    let a2 = u2.mul_add(p1011, p89);
    let a3 = u2.mul_add(p1415, p1213);
    let a4 = u2.mul_add(p1819, p1617);
    let a5 = p2021;
    let b0 = u4.mul_add(a1, a0);
    let b1 = u4.mul_add(a3, a2);
    let b2 = u4.mul_add(a5, a4);
    let c0 = u8.mul_add(b1, b0);
    u * u16.mul_add(b2, c0)
}

/// Softplus on fused multiply-adds — the `fma` kernel profile's twin of
/// [`softplus`]: same `max(x, 0) + ln(1 + e^{−|x|})` formulation, same
/// polynomial kernels, every `a·b + c` contracted through the correctly
/// rounded [`f64::mul_add`]. Deterministic and machine-independent like
/// the unfused form (one rounding per fused step, everywhere), but not
/// bit-identical to it — engine outputs produced with this path are
/// pinned under the `fma` profile's own goldens. Accuracy is the same or
/// slightly better than [`softplus`] (fewer roundings); the agreement
/// bound against libm is pinned by tests.
#[inline(always)]
pub fn softplus_fma(x: f64) -> f64 {
    x.max(0.0) + ln_1p_unit_fma(exp_neg_fma(x.abs()))
}

/// Explicit AVX-512 evaluation of the softplus-on-modulus plane sweep —
/// both kernel profiles' activation path on machines with the F+DQ+VL
/// subsets. One body serves both: `FUSED = true` evaluates
/// [`softplus_fma`] on `√(fma(re, re, im·im))` (the `fma` profile),
/// `FUSED = false` evaluates [`softplus`] on `√(re² + im²)` (the
/// `reference` profile).
///
/// LLVM does not vectorize the scalar chains (the `f64 → i64` exponent
/// build and the NaN-preserving clamp defeat the loop vectorizer), so the
/// hot sweep is written directly against the 8-lane intrinsics. **Every
/// intrinsic maps 1:1 to one scalar operation of the chain** — `vfmadd`
/// for each `mul_add` (fused) or `vmulpd` then `vaddpd` for each
/// `c + a·b` (unfused), `vrndscalepd(0x08)` for `round_ties_even`,
/// `vmaxpd(x, 0)` / `vandpd`-abs with the scalar operand order,
/// `vcvttpd2qq + vpaddq + vpsllq` for the exponent bit-build — and lanes
/// are independent, so the result is bit-identical to the scalar
/// evaluation for every input (including the NaN and ±0 edge cases;
/// pinned by tests). The non-multiple-of-8 tail runs the scalar chain
/// under the same `target_feature` context.
#[cfg(target_arch = "x86_64")]
#[doc(hidden)]
pub mod avx512 {
    use super::{softplus, softplus_fma, LN1P_Q, LN2_HI, LN2_LO};
    use std::arch::x86_64::*;

    /// `z_re[k] = softplus(|z_k|)`, `z_im[k] = 0` over whole planes, in
    /// the fused (`FUSED = true`) or unfused arithmetic.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F, DQ and VL (callers dispatch via
    /// `is_x86_feature_detected!`).
    ///
    /// # Panics
    ///
    /// Panics if the planes differ in length.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub unsafe fn activate_planes<const FUSED: bool>(z_re: &mut [f64], z_im: &mut [f64]) {
        assert_eq!(z_re.len(), z_im.len(), "plane length mismatch");
        let len = z_re.len();
        let mut k = 0usize;
        while k + 8 <= len {
            let re = _mm512_loadu_pd(z_re.as_ptr().add(k));
            let im = _mm512_loadu_pd(z_im.as_ptr().add(k));
            // x = |z| — the same ops as the scalar modulus of the chain.
            let s = if FUSED {
                _mm512_fmadd_pd(re, re, _mm512_mul_pd(im, im))
            } else {
                _mm512_add_pd(_mm512_mul_pd(re, re), _mm512_mul_pd(im, im))
            };
            let x = _mm512_sqrt_pd(s);
            let out = softplus8::<FUSED>(x);
            _mm512_storeu_pd(z_re.as_mut_ptr().add(k), out);
            _mm512_storeu_pd(z_im.as_mut_ptr().add(k), _mm512_setzero_pd());
            k += 8;
        }
        // Scalar tail: the identical chain (still compiled under this
        // function's target features, so `mul_add` is hardware fma).
        for k in k..len {
            let r = z_re[k];
            let i = z_im[k];
            z_re[k] = if FUSED {
                softplus_fma(r.mul_add(r, i * i).sqrt())
            } else {
                softplus((r * r + i * i).sqrt())
            };
            z_im[k] = 0.0;
        }
    }

    /// `a·b + c`: one `vfmadd` (fused), or `c + a·b` rounded twice.
    #[inline(always)]
    unsafe fn madd<const FUSED: bool>(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        if FUSED {
            _mm512_fmadd_pd(a, b, c)
        } else {
            _mm512_add_pd(c, _mm512_mul_pd(a, b))
        }
    }

    /// `c − a·b`: one `vfnmadd` (fused), or `c − a·b` rounded twice.
    #[inline(always)]
    unsafe fn nmadd<const FUSED: bool>(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        if FUSED {
            _mm512_fnmadd_pd(a, b, c)
        } else {
            _mm512_sub_pd(c, _mm512_mul_pd(a, b))
        }
    }

    /// 8-lane softplus: `max(x, 0) + ln(1 + e^{−|x|})`.
    #[inline(always)]
    unsafe fn softplus8<const FUSED: bool>(x: __m512d) -> __m512d {
        // x.max(0.0): vmaxpd returns the second operand when the first is
        // NaN — matching scalar `f64::max`, which returns the non-NaN arg.
        let m = _mm512_max_pd(x, _mm512_setzero_pd());
        let t = _mm512_abs_pd(x);
        _mm512_add_pd(m, ln_1p_unit8::<FUSED>(exp_neg8::<FUSED>(t)))
    }

    /// 8-lane [`super::exp_neg_fma`] / [`super::exp_neg`], one intrinsic
    /// per scalar op.
    #[inline(always)]
    unsafe fn exp_neg8<const FUSED: bool>(t: __m512d) -> __m512d {
        // NaN-preserving clamp: `t > 709.1` is false for NaN (ordered
        // quiet compare), so NaN lanes keep their payload like the scalar
        // `if t > 709.1` branch.
        let cap = _mm512_set1_pd(709.1);
        let gt = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(t, cap);
        let t = _mm512_mask_blend_pd(gt, t, cap);
        let y = _mm512_xor_pd(t, _mm512_set1_pd(-0.0));
        let n = _mm512_roundscale_pd::<0x08>(_mm512_mul_pd(
            y,
            _mm512_set1_pd(std::f64::consts::LOG2_E),
        ));
        // r = (y − n·ln2_hi) − n·ln2_lo; fused, vfnmadd computes
        // −(a·b) + c ≡ (−a)·b + c exactly.
        let r = nmadd::<FUSED>(
            n,
            _mm512_set1_pd(LN2_LO),
            nmadd::<FUSED>(n, _mm512_set1_pd(LN2_HI), y),
        );
        let r2 = _mm512_mul_pd(r, r);
        let r4 = _mm512_mul_pd(r2, r2);
        let r8 = _mm512_mul_pd(r4, r4);
        let c = |v: f64| _mm512_set1_pd(v);
        let madd = madd::<FUSED>;
        let p01 = _mm512_add_pd(c(1.0), r);
        let p23 = madd(r, c(1.0 / 6.0), c(1.0 / 2.0));
        let p45 = madd(r, c(1.0 / 120.0), c(1.0 / 24.0));
        let p67 = madd(r, c(1.0 / 5_040.0), c(1.0 / 720.0));
        let p89 = madd(r, c(1.0 / 362_880.0), c(1.0 / 40_320.0));
        let p1011 = madd(r, c(1.0 / 39_916_800.0), c(1.0 / 3_628_800.0));
        let a = madd(r2, p23, p01);
        let b = madd(r2, p67, p45);
        let cc = madd(r2, p1011, p89);
        let low = madd(r4, b, a);
        let high = madd(r4, c(1.0 / 479_001_600.0), cc);
        let p = madd(r8, high, low);
        // scale = 2^n via ((n as i64 + 1023) << 52). vcvttpd2qq turns a
        // NaN lane into i64::MIN where the scalar saturating cast gives 0,
        // but the +1023 / << 52 keep only the low 12 bits — identical
        // 0x3FF << 52 either way (and the NaN still propagates through p).
        let i = _mm512_cvttpd_epi64(n);
        let i = _mm512_add_epi64(i, _mm512_set1_epi64(1023));
        let scale = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(i));
        _mm512_mul_pd(p, scale)
    }

    /// 8-lane [`super::ln_1p_unit_fma`] / [`super::ln_1p_unit`], one
    /// intrinsic per scalar op.
    #[inline(always)]
    unsafe fn ln_1p_unit8<const FUSED: bool>(u: __m512d) -> __m512d {
        let q = |idx: usize| _mm512_set1_pd(LN1P_Q[idx]);
        let madd = madd::<FUSED>;
        let u2 = _mm512_mul_pd(u, u);
        let u4 = _mm512_mul_pd(u2, u2);
        let u8 = _mm512_mul_pd(u4, u4);
        let u16 = _mm512_mul_pd(u8, u8);
        let p01 = madd(u, q(1), q(0));
        let p23 = madd(u, q(3), q(2));
        let p45 = madd(u, q(5), q(4));
        let p67 = madd(u, q(7), q(6));
        let p89 = madd(u, q(9), q(8));
        let p1011 = madd(u, q(11), q(10));
        let p1213 = madd(u, q(13), q(12));
        let p1415 = madd(u, q(15), q(14));
        let p1617 = madd(u, q(17), q(16));
        let p1819 = madd(u, q(19), q(18));
        let p2021 = madd(u, q(21), q(20));
        let a0 = madd(u2, p23, p01);
        let a1 = madd(u2, p67, p45);
        let a2 = madd(u2, p1011, p89);
        let a3 = madd(u2, p1415, p1213);
        let a4 = madd(u2, p1819, p1617);
        let a5 = p2021;
        let b0 = madd(u4, a1, a0);
        let b1 = madd(u4, a3, a2);
        let b2 = madd(u4, a5, a4);
        let c0 = madd(u8, b1, b0);
        _mm512_mul_pd(u, madd(u16, b2, c0))
    }
}

/// Softplus-on-modulus over whole split planes in the reference
/// arithmetic: `z_re[k] = softplus(√(re² + im²))`, `z_im[k] = 0`, the
/// per-element result of [`mod_softplus`]. Runs the explicit 8-lane
/// [`avx512`] sweep on CPUs with AVX-512 F+DQ+VL (probed once) and the
/// scalar chain elsewhere; the two agree bit for bit.
///
/// # Panics
///
/// Panics if the planes differ in length.
pub fn mod_softplus_planes(z_re: &mut [f64], z_im: &mut [f64]) {
    assert_eq!(z_re.len(), z_im.len(), "plane length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: F+DQ+VL were detected at run time.
        unsafe { avx512::activate_planes::<false>(z_re, z_im) };
        return;
    }
    for (r, i) in z_re.iter_mut().zip(z_im.iter_mut()) {
        *r = softplus((*r * *r + *i * *i).sqrt());
        *i = 0.0;
    }
}

/// Whether this CPU runs the [`avx512`] sweep (F, DQ and VL subsets).
#[cfg(target_arch = "x86_64")]
#[doc(hidden)]
pub fn avx512_available() -> bool {
    static OK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *OK.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
    })
}

/// Logistic sigmoid `1 / (1 + e^{−x})` — the derivative of softplus.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The modulus used by the activation paths: `√(re² + im²)` evaluated as
/// `abs_sq().sqrt()` rather than `hypot`, so the batched forward can
/// vectorize it (`hypot` is a libm call; `sqrt` is a single instruction).
/// Over/underflow of the squares is impossible for the O(1) field
/// amplitudes this network propagates.
#[inline]
fn activation_modulus(v: C64) -> f64 {
    v.abs_sq().sqrt()
}

/// Softplus-on-modulus forward: `aᵢ = softplus(|zᵢ|)` (a *real* vector
/// returned as complex with zero imaginary part, since downstream layers
/// multiply it with complex weights).
pub fn mod_softplus(z: &[C64]) -> Vec<C64> {
    z.iter()
        .map(|v| C64::from(softplus(activation_modulus(*v))))
        .collect()
}

/// Backward pass of [`mod_softplus`]: `g_z = Re(g_a)·σ(|z|)·z/|z|`.
///
/// Only the real part of the upstream gradient propagates — the activation
/// output is structurally real, so its imaginary part receives no error
/// signal.
pub fn mod_softplus_backward(z: &[C64], grad_out: &[C64]) -> Vec<C64> {
    debug_assert_eq!(z.len(), grad_out.len());
    z.iter()
        .zip(grad_out.iter())
        .map(|(v, g)| {
            let scale = g.re * sigmoid(v.abs());
            v.unit_or_zero().scale(scale)
        })
        .collect()
}

/// Intensity readout forward: `oᵢ = |zᵢ|²` — photodetector power.
pub fn intensity(z: &[C64]) -> Vec<f64> {
    z.iter().map(|v| v.abs_sq()).collect()
}

/// Backward pass of [`intensity`]: `g_z = 2·(∂L/∂o)·z`.
pub fn intensity_backward(z: &[C64], grad_out: &[f64]) -> Vec<C64> {
    debug_assert_eq!(z.len(), grad_out.len());
    z.iter()
        .zip(grad_out.iter())
        .map(|(v, &g)| v.scale(2.0 * g))
        .collect()
}

/// LogSoftMax over a real vector (numerically stabilized).
pub fn log_softmax(o: &[f64]) -> Vec<f64> {
    let max = o.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let log_sum: f64 = o.iter().map(|&x| (x - max).exp()).sum::<f64>().ln() + max;
    o.iter().map(|&x| x - log_sum).collect()
}

/// Softmax over a real vector (numerically stabilized).
pub fn softmax(o: &[f64]) -> Vec<f64> {
    let max = o.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = o.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The explicit AVX-512 plane sweep is bit-identical to the scalar
    /// chain of its arithmetic — fused and unfused — for every lane,
    /// including the tail, ±0, the 709.1 clamp boundary, deep-underflow
    /// inputs, and NaN propagation.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_plane_sweep_is_bit_identical_to_scalar() {
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl"))
        {
            eprintln!("skipping: no AVX-512 F+DQ+VL on this machine");
            return;
        }
        // 8·k + tail lengths; values spanning the interesting ranges plus
        // a deterministic pseudo-random fill over magnitudes 1e-3..1e3.
        let edges = [
            0.0,
            -0.0,
            1.0e-300,
            0.5,
            1.0,
            2.0,
            18.0,
            40.0,
            708.9,
            709.1,
            710.0,
            1.0e6,
            f64::NAN,
        ];
        for fused in [true, false] {
            for len in [1usize, 7, 8, 16, 37, 256, 4099] {
                let mut state = 0x9e37_79b9_7f4a_7c15u64;
                let mut rnd = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let magnitude = 10f64.powi(((state >> 40) % 7) as i32 - 3);
                    ((state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0) * magnitude
                };
                let re: Vec<f64> = (0..len)
                    .map(|i| edges.get(i).copied().unwrap_or_else(&mut rnd))
                    .collect();
                let im: Vec<f64> = (0..len).map(|_| rnd()).collect();

                let (mut sr, mut si) = (re.clone(), im.clone());
                for (r, i) in sr.iter_mut().zip(si.iter_mut()) {
                    *r = if fused {
                        softplus_fma(r.mul_add(*r, *i * *i).sqrt())
                    } else {
                        softplus((*r * *r + *i * *i).sqrt())
                    };
                    *i = 0.0;
                }
                let (mut vr, mut vi) = (re.clone(), im.clone());
                // SAFETY: F+DQ+VL were detected above.
                unsafe {
                    if fused {
                        avx512::activate_planes::<true>(&mut vr, &mut vi)
                    } else {
                        avx512::activate_planes::<false>(&mut vr, &mut vi)
                    }
                };
                for k in 0..len {
                    assert!(
                        sr[k].to_bits() == vr[k].to_bits() || (sr[k].is_nan() && vr[k].is_nan()),
                        "lane {k} (len {len}, fused {fused}): scalar {:?} vs simd {:?} \
                         for re={:e} im={:e}",
                        sr[k],
                        vr[k],
                        re[k],
                        im[k]
                    );
                    assert_eq!(vi[k], 0.0, "imaginary plane not zeroed at {k}");
                }
            }
        }
    }

    #[test]
    fn softplus_known_values() {
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-14);
        assert!((softplus(100.0) - 100.0).abs() < 1e-12); // asymptote x
        assert!(softplus(-100.0) < 1e-12); // asymptote 0
        assert!(softplus(-100.0) > 0.0);
    }

    #[test]
    fn softplus_matches_libm_reference_everywhere() {
        // The libm formulation the polynomial kernels replace.
        fn reference(x: f64) -> f64 {
            x.max(0.0) + (-x.abs()).exp().ln_1p()
        }
        let mut x = -60.0;
        while x <= 60.0 {
            let fast = softplus(x);
            let slow = reference(x);
            // Relative in the main range; absolute (≪ any consumer's
            // resolution) in the deep-negative tail where the branchless
            // ln1p returns u instead of u − u²/2.
            let err = (fast - slow).abs();
            assert!(
                err / slow.abs().max(1e-300) < 1e-13 || err < 1e-16,
                "x={x}: fast {fast:e} vs libm {slow:e}"
            );
            x += 0.00917; // irrational-ish step to avoid hitting only round values
        }
        // Deep negative tail stays positive and finite like the reference.
        assert!(softplus(-300.0) > 0.0);
        assert!(softplus(-300.0) < 1e-128);
        assert_eq!(softplus(-1000.0), 0.0);
        assert_eq!(softplus(1000.0), 1000.0);
    }

    #[test]
    fn softplus_fma_matches_libm_and_unfused_softplus() {
        fn reference(x: f64) -> f64 {
            x.max(0.0) + (-x.abs()).exp().ln_1p()
        }
        let mut x = -60.0;
        while x <= 60.0 {
            let fused = softplus_fma(x);
            let slow = reference(x);
            let err = (fused - slow).abs();
            assert!(
                err / slow.abs().max(1e-300) < 1e-13 || err < 1e-16,
                "x={x}: fma {fused:e} vs libm {slow:e}"
            );
            // The two profiles agree to far better than any consumer's
            // resolution — they differ only in rounding, never in value.
            let unfused = softplus(x);
            let delta = (fused - unfused).abs();
            assert!(
                delta / unfused.abs().max(1e-300) < 1e-13 || delta < 1e-16,
                "x={x}: fma {fused:e} vs unfused {unfused:e}"
            );
            x += 0.00917;
        }
        assert_eq!(softplus_fma(-1000.0), 0.0);
        assert_eq!(softplus_fma(1000.0), 1000.0);
        assert!(softplus_fma(f64::NAN).is_nan());
        assert_eq!(softplus_fma(f64::INFINITY), f64::INFINITY);
        assert_eq!(softplus_fma(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn softplus_fma_is_deterministic() {
        // Same input, same bits — every call, any call site. The engine
        // pins cross-machine stability at the report level; this pins the
        // primitive.
        for &x in &[0.0, 0.3, 1.7, -2.9, 14.25, -40.0] {
            let a = softplus_fma(x);
            let b = softplus_fma(x);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn softplus_nonfinite_inputs() {
        // NaN must propagate (an upstream fault should not become a
        // confident zero activation), and infinities keep the libm
        // formulation's limits.
        assert!(softplus(f64::NAN).is_nan());
        assert_eq!(softplus(f64::INFINITY), f64::INFINITY);
        assert_eq!(softplus(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn sigmoid_is_softplus_derivative() {
        for &x in &[-3.0, -0.5, 0.0, 0.7, 4.0] {
            let h = 1e-6;
            let fd = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
            assert!((fd - sigmoid(x)).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!((sigmoid(800.0) - 1.0).abs() < 1e-15);
        assert!(sigmoid(-800.0).abs() < 1e-15);
        assert!(sigmoid(-800.0) >= 0.0);
    }

    #[test]
    fn mod_softplus_output_is_real_nonnegative() {
        let z = [C64::new(1.0, -2.0), C64::new(-0.5, 0.0), C64::zero()];
        for a in mod_softplus(&z) {
            assert_eq!(a.im, 0.0);
            assert!(a.re > 0.0);
        }
    }

    #[test]
    fn mod_softplus_backward_matches_finite_difference() {
        let z = [C64::new(0.8, -0.4), C64::new(-1.1, 0.6)];
        // Loss L = Σ wᵢ·softplus(|zᵢ|) for fixed weights w ⇒ grad_out = w.
        let w = [0.7, -1.3];
        let grad_out: Vec<C64> = w.iter().map(|&x| C64::from(x)).collect();
        let analytic = mod_softplus_backward(&z, &grad_out);
        let h = 1e-6;
        for i in 0..z.len() {
            let mut zp = z;
            zp[i].re += h;
            let lp: f64 = zp
                .iter()
                .zip(w.iter())
                .map(|(v, &wi)| wi * softplus(v.abs()))
                .sum();
            let mut zm = z;
            zm[i].re -= h;
            let lm: f64 = zm
                .iter()
                .zip(w.iter())
                .map(|(v, &wi)| wi * softplus(v.abs()))
                .sum();
            assert!(
                ((lp - lm) / (2.0 * h) - analytic[i].re).abs() < 1e-6,
                "re[{i}]"
            );

            let mut zp = z;
            zp[i].im += h;
            let lp: f64 = zp
                .iter()
                .zip(w.iter())
                .map(|(v, &wi)| wi * softplus(v.abs()))
                .sum();
            let mut zm = z;
            zm[i].im -= h;
            let lm: f64 = zm
                .iter()
                .zip(w.iter())
                .map(|(v, &wi)| wi * softplus(v.abs()))
                .sum();
            assert!(
                ((lp - lm) / (2.0 * h) - analytic[i].im).abs() < 1e-6,
                "im[{i}]"
            );
        }
    }

    #[test]
    fn mod_softplus_backward_at_zero_is_zero() {
        let z = [C64::zero()];
        let g = mod_softplus_backward(&z, &[C64::one()]);
        assert_eq!(g[0], C64::zero());
    }

    #[test]
    fn intensity_backward_matches_finite_difference() {
        let z = [C64::new(0.3, -0.9), C64::new(1.2, 0.4)];
        let w = [2.0, -0.5]; // L = Σ wᵢ·|zᵢ|²
        let analytic = intensity_backward(&z, &w);
        let h = 1e-6;
        for i in 0..z.len() {
            let loss = |zz: &[C64]| -> f64 {
                zz.iter()
                    .zip(w.iter())
                    .map(|(v, &wi)| wi * v.abs_sq())
                    .sum()
            };
            let mut zp = z;
            zp[i].re += h;
            let mut zm = z;
            zm[i].re -= h;
            assert!(((loss(&zp) - loss(&zm)) / (2.0 * h) - analytic[i].re).abs() < 1e-6);
            let mut zp = z;
            zp[i].im += h;
            let mut zm = z;
            zm[i].im -= h;
            assert!(((loss(&zp) - loss(&zm)) / (2.0 * h) - analytic[i].im).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_normalizes() {
        let o = [1.0, 2.0, 3.0];
        let ls = log_softmax(&o);
        let total: f64 = ls.iter().map(|&x| x.exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Order preserved.
        assert!(ls[2] > ls[1] && ls[1] > ls[0]);
    }

    #[test]
    fn log_softmax_handles_large_inputs() {
        let o = [1000.0, 1001.0];
        let ls = log_softmax(&o);
        assert!(ls.iter().all(|x| x.is_finite()));
        let total: f64 = ls.iter().map(|&x| x.exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_matches_exp_log_softmax() {
        let o = [0.1, -0.7, 2.0, 0.0];
        let sm = softmax(&o);
        let ls = log_softmax(&o);
        for (a, b) in sm.iter().zip(ls.iter()) {
            assert!((a - b.exp()).abs() < 1e-12);
        }
        assert!((sm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
