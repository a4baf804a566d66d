//! Runtime SIMD dispatch and the split-complex (structure-of-arrays) hot
//! kernels shared by the FFT stages and the SOCS convolution loop.
//!
//! Every hot loop in the imaging chain — butterflies, twiddle application,
//! frequency-domain products, and the `w·|z|²` reduction — operates on
//! *split-complex* data: separate `re[]`/`im[]` slices instead of
//! interleaved complex pairs. That layout removes every shuffle from the
//! vector code path: a complex multiply is two FMAs and two multiplies over
//! packed lanes.
//!
//! The kernels are generic over [`Scalar`] (`f64` and `f32`), and two
//! implementations of each exist:
//!
//! * a **scalar** reference written as fixed-width chunked loops (these
//!   autovectorize to baseline SSE2 on stable Rust, without FMA contraction,
//!   so results are bit-reproducible across machines), and
//! * an **AVX2/FMA** variant behind `std::arch` runtime detection, using
//!   fused multiply-adds. Each is written once over a sealed lane
//!   abstraction with two instances, 4×`f64` (`__m256d`) and 8×`f32`
//!   (`__m256`), picked by the element type's [`Scalar`] lane type. Faster,
//!   and within one FMA rounding of the scalar path per operation —
//!   consumer paths are guarded by equivalence tests at each precision's
//!   tolerance.
//!
//! Dispatch is resolved once per process from, in priority order: the
//! `scalar-only` compile feature, the `CARDOPC_SIMD` environment variable
//! (`off`/`0`/`scalar` forces the scalar path; anything else auto-detects),
//! and CPUID. [`force_mode`] overrides the cached decision for equivalence
//! tests and benchmarks.

use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation the process is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// Portable chunked loops (no FMA contraction; bit-reproducible).
    Scalar,
    /// `std::arch` AVX2 + FMA kernels (x86-64 only, runtime-detected).
    Avx2,
}

/// `true` when the running CPU supports the AVX2/FMA kernels (and they were
/// not compiled out via the `scalar-only` feature).
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-only"))))]
    {
        false
    }
}

fn detect() -> SimdMode {
    if cfg!(feature = "scalar-only") {
        return SimdMode::Scalar;
    }
    if let Ok(v) = std::env::var("CARDOPC_SIMD") {
        let v = v.to_ascii_lowercase();
        if v == "off" || v == "0" || v == "scalar" {
            return SimdMode::Scalar;
        }
    }
    if avx2_available() {
        SimdMode::Avx2
    } else {
        SimdMode::Scalar
    }
}

/// 0 = no override, 1 = forced scalar, 2 = forced AVX2.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The dispatch mode all library entry points use.
///
/// Cached after the first call; [`force_mode`] takes precedence (tests).
pub fn active_mode() -> SimdMode {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdMode::Scalar,
        2 if avx2_available() => SimdMode::Avx2,
        2 => SimdMode::Scalar,
        _ => {
            static DETECTED: OnceLock<SimdMode> = OnceLock::new();
            *DETECTED.get_or_init(detect)
        }
    }
}

/// Overrides the process-wide dispatch mode (`None` restores env/CPUID
/// resolution).
///
/// Intended for equivalence tests and benchmarks that compare both paths in
/// one process; such tests must serialise themselves (the override is
/// global). Forcing [`SimdMode::Avx2`] on a machine without AVX2/FMA (or
/// under the `scalar-only` feature) silently stays scalar.
pub fn force_mode(mode: Option<SimdMode>) {
    let v = match mode {
        None => 0,
        Some(SimdMode::Scalar) => 1,
        Some(SimdMode::Avx2) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Scalar kernel bodies.
//
// Written over explicitly equal-length sub-slices so the autovectorizer sees
// bounds-check-free counted loops. These are the semantics of record: the
// AVX2 variants below must compute the same quantities (they differ only by
// FMA rounding). Generic over `Scalar`; for `f64` the monomorphization is
// instruction-for-instruction the pre-generic code.
// ---------------------------------------------------------------------------

#[inline(always)]
pub(crate) fn cmul_body<T: Scalar>(
    ar: &[T],
    ai: &[T],
    br: &[T],
    bi: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    let n = ar.len();
    let (ai, br, bi) = (&ai[..n], &br[..n], &bi[..n]);
    let (dr, di) = (&mut dr[..n], &mut di[..n]);
    for k in 0..n {
        let (xr, xi) = (ar[k], ai[k]);
        let (yr, yi) = (br[k], bi[k]);
        dr[k] = xr * yr - xi * yi;
        di[k] = xr * yi + xi * yr;
    }
}

#[inline(always)]
pub(crate) fn cmul_conj_body<T: Scalar>(
    ar: &[T],
    ai: &[T],
    br: &[T],
    bi: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    let n = ar.len();
    let (ai, br, bi) = (&ai[..n], &br[..n], &bi[..n]);
    let (dr, di) = (&mut dr[..n], &mut di[..n]);
    for k in 0..n {
        let (xr, xi) = (ar[k], ai[k]);
        let (yr, yi) = (br[k], bi[k]);
        dr[k] = xr * yr + xi * yi;
        di[k] = xi * yr - xr * yi;
    }
}

#[inline(always)]
pub(crate) fn mul_real_body<T: Scalar>(ar: &[T], ai: &[T], r: &[T], dr: &mut [T], di: &mut [T]) {
    let n = ar.len();
    let (ai, r) = (&ai[..n], &r[..n]);
    let (dr, di) = (&mut dr[..n], &mut di[..n]);
    for k in 0..n {
        dr[k] = ar[k] * r[k];
        di[k] = ai[k] * r[k];
    }
}

#[inline(always)]
pub(crate) fn acc_norm_sq_body<T: Scalar>(re: &[T], im: &[T], w: T, acc: &mut [T]) {
    let n = re.len();
    let im = &im[..n];
    let acc = &mut acc[..n];
    for k in 0..n {
        acc[k] += w * (re[k] * re[k] + im[k] * im[k]);
    }
}

#[inline(always)]
pub(crate) fn acc_re_body<T: Scalar>(re: &[T], w: T, acc: &mut [T]) {
    let n = re.len();
    let acc = &mut acc[..n];
    for k in 0..n {
        acc[k] += w * re[k];
    }
}

/// Strided transpose `dst[c·dst_stride + r] = src[r·src_stride + c]`,
/// cache-blocked in 32×32 tiles. Pure data movement — every dispatch mode
/// produces byte-identical output; the `f32` AVX2 variant just moves whole
/// registers through in-register shuffles instead of one element at a
/// time (the scalar scatter/gather is what dominates mid-size 2-D FFTs).
///
/// `seq_dst` picks the walk inside each tile: `false` keeps source reads
/// sequential (pair with a conflict-padded `dst_stride`), `true` keeps
/// destination writes sequential (pair with a conflict-padded
/// `src_stride`). The wrong choice aliases the unpadded strided side into
/// a handful of cache sets and thrashes them.
#[inline(always)]
pub(crate) fn transpose_body<T: Scalar>(
    src: &[T],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [T],
    dst_stride: usize,
    seq_dst: bool,
) {
    const TILE: usize = 32;
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            if seq_dst {
                for c in c0..c1 {
                    let col = c * dst_stride;
                    for r in r0..r1 {
                        dst[col + r] = src[r * src_stride + c];
                    }
                }
            } else {
                for r in r0..r1 {
                    let row = r * src_stride;
                    for c in c0..c1 {
                        dst[c * dst_stride + r] = src[row + c];
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2/FMA kernels (hand-written `std::arch` intrinsics).
//
// Each pointwise kernel is written once over the sealed `Lanes` abstraction:
// one 256-bit register of the element type, instantiated as 4×`f64`
// (`__m256d`) and 8×`f32` (`__m256`). `Scalar::Avx2` names the instance per
// element type. The scalar tails use the same FMA expressions per element
// as the vector lanes, so a kernel's output does not depend on where the
// vector loop ends.
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
pub(crate) mod avx2 {
    use crate::scalar::Scalar;
    use std::arch::x86_64::*;

    /// One AVX2 register of `Elem` lanes. Sealed: the trait is unreachable
    /// outside the crate, and its only instances are `__m256d` and `__m256`.
    ///
    /// # Safety
    /// Every method requires AVX2+FMA support verified at runtime; `load`
    /// and `store` also need `N` valid elements at `p`.
    pub trait Lanes: Copy {
        /// The lane element type.
        type Elem: Scalar;
        /// Lanes per register.
        const N: usize;
        unsafe fn load(p: *const Self::Elem) -> Self;
        unsafe fn store(p: *mut Self::Elem, v: Self);
        unsafe fn splat(x: Self::Elem) -> Self;
        unsafe fn mul(a: Self, b: Self) -> Self;
        /// `a·b + c` with one rounding.
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
        /// `a·b − c` with one rounding.
        unsafe fn fmsub(a: Self, b: Self, c: Self) -> Self;

        /// Strided blocked transpose, see [`super::transpose_body`]. Pure
        /// data movement; only widths that gain from in-register blocks
        /// override the tiled scalar loop.
        ///
        /// # Safety
        /// Slice extents as on [`super::transpose_strided`].
        unsafe fn transpose(
            src: &[Self::Elem],
            src_stride: usize,
            rows: usize,
            cols: usize,
            dst: &mut [Self::Elem],
            dst_stride: usize,
            seq_dst: bool,
        ) {
            super::transpose_body(src, src_stride, rows, cols, dst, dst_stride, seq_dst);
        }
    }

    impl Lanes for __m256d {
        type Elem = f64;
        const N: usize = 4;
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store(p: *mut f64, v: Self) {
            _mm256_storeu_pd(p, v)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn splat(x: f64) -> Self {
            _mm256_set1_pd(x)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm256_mul_pd(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmadd_pd(a, b, c)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fmsub(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmsub_pd(a, b, c)
        }
        // `transpose` keeps the tiled scalar loop: measured on the fleet
        // hardware, a 4×4 in-register block walk is ~6% *slower* at the
        // 512² sizes the engine runs — the `f64` planes (2 MB each) are
        // DRAM-bound, so the shuffle work buys nothing and the block walk
        // only perturbs the hardware prefetcher.
    }

    impl Lanes for __m256 {
        type Elem = f32;
        const N: usize = 8;
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store(p: *mut f32, v: Self) {
            _mm256_storeu_ps(p, v)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm256_mul_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(a, b, c)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fmsub(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmsub_ps(a, b, c)
        }

        /// 32×32-tiled strided transpose over in-register 8×8 blocks (the
        /// 1 MB `f32` planes stay cache-resident, so the shuffles pay).
        #[target_feature(enable = "avx2,fma")]
        unsafe fn transpose(
            src: &[f32],
            src_stride: usize,
            rows: usize,
            cols: usize,
            dst: &mut [f32],
            dst_stride: usize,
            seq_dst: bool,
        ) {
            const TILE: usize = 32;
            let sp = src.as_ptr();
            let dp = dst.as_mut_ptr();
            for r0 in (0..rows).step_by(TILE) {
                let r1 = (r0 + TILE).min(rows);
                for c0 in (0..cols).step_by(TILE) {
                    let c1 = (c0 + TILE).min(cols);
                    let rb = r0 + (r1 - r0) / 8 * 8;
                    let cb = c0 + (c1 - c0) / 8 * 8;
                    if seq_dst {
                        let mut c = c0;
                        while c < cb {
                            let mut r = r0;
                            while r < rb {
                                t8_ps(sp, src_stride, dp, dst_stride, r, c);
                                r += 8;
                            }
                            c += 8;
                        }
                    } else {
                        let mut r = r0;
                        while r < rb {
                            let mut c = c0;
                            while c < cb {
                                t8_ps(sp, src_stride, dp, dst_stride, r, c);
                                c += 8;
                            }
                            r += 8;
                        }
                    }
                    for r in rb..r1 {
                        for c in c0..c1 {
                            *dp.add(c * dst_stride + r) = *sp.add(r * src_stride + c);
                        }
                    }
                    for c in cb..c1 {
                        for r in r0..rb {
                            *dp.add(c * dst_stride + r) = *sp.add(r * src_stride + c);
                        }
                    }
                }
            }
        }
    }

    /// The lane instance of element type `T`.
    type V<T> = <T as Scalar>::Avx2;

    /// `d = a · b`.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime, and every
    /// slice must hold at least `ar.len()` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cmul<T: Scalar>(
        ar: &[T],
        ai: &[T],
        br: &[T],
        bi: &[T],
        dr: &mut [T],
        di: &mut [T],
    ) {
        let n = ar.len();
        let mut k = 0usize;
        while k + V::<T>::N <= n {
            let xr = V::<T>::load(ar.as_ptr().add(k));
            let xi = V::<T>::load(ai.as_ptr().add(k));
            let yr = V::<T>::load(br.as_ptr().add(k));
            let yi = V::<T>::load(bi.as_ptr().add(k));
            // re = xr·yr − xi·yi, im = xr·yi + xi·yr.
            let re = V::<T>::fmsub(xr, yr, V::<T>::mul(xi, yi));
            let im = V::<T>::fmadd(xr, yi, V::<T>::mul(xi, yr));
            V::<T>::store(dr.as_mut_ptr().add(k), re);
            V::<T>::store(di.as_mut_ptr().add(k), im);
            k += V::<T>::N;
        }
        while k < n {
            let (xr, xi) = (ar[k], ai[k]);
            let (yr, yi) = (br[k], bi[k]);
            dr[k] = xr.mul_add(yr, -(xi * yi));
            di[k] = xr.mul_add(yi, xi * yr);
            k += 1;
        }
    }

    /// `d = a · conj(b)`.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime, and every
    /// slice must hold at least `ar.len()` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cmul_conj<T: Scalar>(
        ar: &[T],
        ai: &[T],
        br: &[T],
        bi: &[T],
        dr: &mut [T],
        di: &mut [T],
    ) {
        let n = ar.len();
        let mut k = 0usize;
        while k + V::<T>::N <= n {
            let xr = V::<T>::load(ar.as_ptr().add(k));
            let xi = V::<T>::load(ai.as_ptr().add(k));
            let yr = V::<T>::load(br.as_ptr().add(k));
            let yi = V::<T>::load(bi.as_ptr().add(k));
            // re = xr·yr + xi·yi, im = xi·yr − xr·yi.
            let re = V::<T>::fmadd(xr, yr, V::<T>::mul(xi, yi));
            let im = V::<T>::fmsub(xi, yr, V::<T>::mul(xr, yi));
            V::<T>::store(dr.as_mut_ptr().add(k), re);
            V::<T>::store(di.as_mut_ptr().add(k), im);
            k += V::<T>::N;
        }
        while k < n {
            let (xr, xi) = (ar[k], ai[k]);
            let (yr, yi) = (br[k], bi[k]);
            dr[k] = xr.mul_add(yr, xi * yi);
            di[k] = xi.mul_add(yr, -(xr * yi));
            k += 1;
        }
    }

    /// `d = a · r`: the scalar body compiled with 256-bit lanes (plain
    /// products, so bitwise equal to the scalar dispatch).
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mul_real<T: Scalar>(ar: &[T], ai: &[T], r: &[T], dr: &mut [T], di: &mut [T]) {
        super::mul_real_body(ar, ai, r, dr, di);
    }

    /// `acc += w · (re² + im²)`.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime, and every
    /// slice must hold at least `re.len()` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn acc_norm_sq<T: Scalar>(re: &[T], im: &[T], w: T, acc: &mut [T]) {
        let n = re.len();
        let wv = V::<T>::splat(w);
        let mut k = 0usize;
        while k + V::<T>::N <= n {
            let r = V::<T>::load(re.as_ptr().add(k));
            let i = V::<T>::load(im.as_ptr().add(k));
            let a = V::<T>::load(acc.as_ptr().add(k));
            let n2 = V::<T>::fmadd(i, i, V::<T>::mul(r, r));
            V::<T>::store(acc.as_mut_ptr().add(k), V::<T>::fmadd(wv, n2, a));
            k += V::<T>::N;
        }
        while k < n {
            let n2 = im[k].mul_add(im[k], re[k] * re[k]);
            acc[k] = w.mul_add(n2, acc[k]);
            k += 1;
        }
    }

    /// `acc += w · re`.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime, and every
    /// slice must hold at least `re.len()` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn acc_re<T: Scalar>(re: &[T], w: T, acc: &mut [T]) {
        let n = re.len();
        let wv = V::<T>::splat(w);
        let mut k = 0usize;
        while k + V::<T>::N <= n {
            let r = V::<T>::load(re.as_ptr().add(k));
            let a = V::<T>::load(acc.as_ptr().add(k));
            V::<T>::store(acc.as_mut_ptr().add(k), V::<T>::fmadd(wv, r, a));
            k += V::<T>::N;
        }
        while k < n {
            acc[k] = w.mul_add(re[k], acc[k]);
            k += 1;
        }
    }

    /// One 8×8 `f32` block: `dst[(c+j)·ds + r + i] = src[(r+i)·ss + c + j]`.
    #[inline(always)]
    unsafe fn t8_ps(sp: *const f32, ss: usize, dp: *mut f32, ds: usize, r: usize, c: usize) {
        let v0 = _mm256_loadu_ps(sp.add(r * ss + c));
        let v1 = _mm256_loadu_ps(sp.add((r + 1) * ss + c));
        let v2 = _mm256_loadu_ps(sp.add((r + 2) * ss + c));
        let v3 = _mm256_loadu_ps(sp.add((r + 3) * ss + c));
        let v4 = _mm256_loadu_ps(sp.add((r + 4) * ss + c));
        let v5 = _mm256_loadu_ps(sp.add((r + 5) * ss + c));
        let v6 = _mm256_loadu_ps(sp.add((r + 6) * ss + c));
        let v7 = _mm256_loadu_ps(sp.add((r + 7) * ss + c));
        let t0 = _mm256_unpacklo_ps(v0, v1);
        let t1 = _mm256_unpackhi_ps(v0, v1);
        let t2 = _mm256_unpacklo_ps(v2, v3);
        let t3 = _mm256_unpackhi_ps(v2, v3);
        let t4 = _mm256_unpacklo_ps(v4, v5);
        let t5 = _mm256_unpackhi_ps(v4, v5);
        let t6 = _mm256_unpacklo_ps(v6, v7);
        let t7 = _mm256_unpackhi_ps(v6, v7);
        let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        let d = dp.add(c * ds + r);
        _mm256_storeu_ps(d, _mm256_permute2f128_ps(s0, s4, 0x20));
        _mm256_storeu_ps(d.add(ds), _mm256_permute2f128_ps(s1, s5, 0x20));
        _mm256_storeu_ps(d.add(2 * ds), _mm256_permute2f128_ps(s2, s6, 0x20));
        _mm256_storeu_ps(d.add(3 * ds), _mm256_permute2f128_ps(s3, s7, 0x20));
        _mm256_storeu_ps(d.add(4 * ds), _mm256_permute2f128_ps(s0, s4, 0x31));
        _mm256_storeu_ps(d.add(5 * ds), _mm256_permute2f128_ps(s1, s5, 0x31));
        _mm256_storeu_ps(d.add(6 * ds), _mm256_permute2f128_ps(s2, s6, 0x31));
        _mm256_storeu_ps(d.add(7 * ds), _mm256_permute2f128_ps(s3, s7, 0x31));
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points.
//
// All slices must share `ar.len()` (the scalar bodies re-slice and panic on
// shorter operands; the AVX2 kernels assume the caller upheld it, which every
// in-crate call site does via `Field` invariants). Builds without the AVX2
// kernels (non-x86-64 targets, `scalar-only`) never produce
// `SimdMode::Avx2`, and route it to the scalar bodies regardless.
// ---------------------------------------------------------------------------

/// `d = a · b` pointwise over split-complex slices.
pub(crate) fn cmul<T: Scalar>(
    mode: SimdMode,
    ar: &[T],
    ai: &[T],
    br: &[T],
    bi: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    debug_assert!(
        ai.len() == ar.len()
            && br.len() == ar.len()
            && bi.len() == ar.len()
            && dr.len() == ar.len()
            && di.len() == ar.len()
    );
    match mode {
        // SAFETY: `SimdMode::Avx2` is only ever produced after runtime
        // AVX2+FMA detection (see `active_mode` / `force_mode`).
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        SimdMode::Avx2 => unsafe { avx2::cmul(ar, ai, br, bi, dr, di) },
        _ => cmul_body(ar, ai, br, bi, dr, di),
    }
}

/// `d = a · conj(b)` pointwise over split-complex slices.
pub(crate) fn cmul_conj<T: Scalar>(
    mode: SimdMode,
    ar: &[T],
    ai: &[T],
    br: &[T],
    bi: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    match mode {
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support.
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        SimdMode::Avx2 => unsafe { avx2::cmul_conj(ar, ai, br, bi, dr, di) },
        _ => cmul_conj_body(ar, ai, br, bi, dr, di),
    }
}

/// `d = a · r` (complex × real vector).
pub(crate) fn mul_real<T: Scalar>(
    mode: SimdMode,
    ar: &[T],
    ai: &[T],
    r: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    match mode {
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support.
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        SimdMode::Avx2 => unsafe { avx2::mul_real(ar, ai, r, dr, di) },
        _ => mul_real_body(ar, ai, r, dr, di),
    }
}

/// `acc += w · (re² + im²)` — the SOCS reduction step.
pub(crate) fn acc_norm_sq<T: Scalar>(mode: SimdMode, re: &[T], im: &[T], w: T, acc: &mut [T]) {
    match mode {
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support.
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        SimdMode::Avx2 => unsafe { avx2::acc_norm_sq(re, im, w, acc) },
        _ => acc_norm_sq_body(re, im, w, acc),
    }
}

/// `acc += w · re` — the ILT gradient reduction step.
pub(crate) fn acc_re<T: Scalar>(mode: SimdMode, re: &[T], w: T, acc: &mut [T]) {
    match mode {
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support.
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        SimdMode::Avx2 => unsafe { avx2::acc_re(re, w, acc) },
        _ => acc_re_body(re, w, acc),
    }
}

/// Strided blocked transpose `dst[c·dst_stride + r] = src[r·src_stride + c]`.
///
/// Pure data movement — both dispatch modes produce bitwise-identical
/// output, so this never perturbs cross-mode determinism. `seq_dst` as on
/// [`transpose_body`]: pass `false` when `dst_stride` is the
/// conflict-padded side, `true` when `src_stride` is.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transpose_strided<T: Scalar>(
    mode: SimdMode,
    src: &[T],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [T],
    dst_stride: usize,
    seq_dst: bool,
) {
    debug_assert!(rows == 0 || cols == 0 || (rows - 1) * src_stride + cols <= src.len());
    debug_assert!(rows == 0 || cols == 0 || (cols - 1) * dst_stride + rows <= dst.len());
    match mode {
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support; the
        // extent requirements are the debug-asserted bounds above, which
        // every in-crate call site upholds via `Field` invariants.
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        SimdMode::Avx2 => unsafe {
            <T::Avx2 as avx2::Lanes>::transpose(
                src, src_stride, rows, cols, dst, dst_stride, seq_dst,
            )
        },
        _ => transpose_body(src, src_stride, rows, cols, dst, dst_stride, seq_dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::SplitMix64;

    fn randv<T: Scalar>(n: usize, seed: u64) -> Vec<T> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| T::from_f64(rng.range_f64(-2.0, 2.0)))
            .collect()
    }

    /// Both dispatch modes of every kernel, at every length straddling both
    /// the 4-lane (`f64`) and 8-lane (`f32`) widths, against the plain
    /// expression semantics, within `tol` (one FMA rounding at the type's
    /// own epsilon).
    fn check_modes_agree<T: Scalar>(tol: f64) {
        for n in [1usize, 3, 4, 5, 7, 8, 9, 17, 64] {
            let ar = randv::<T>(n, 1);
            let ai = randv::<T>(n, 2);
            let br = randv::<T>(n, 3);
            let bi = randv::<T>(n, 4);
            let r = randv::<T>(n, 5);
            for mode in [SimdMode::Scalar, SimdMode::Avx2] {
                if mode == SimdMode::Avx2 && !avx2_available() {
                    continue;
                }
                let (mut dr, mut di) = (vec![T::ZERO; n], vec![T::ZERO; n]);
                cmul(mode, &ar, &ai, &br, &bi, &mut dr, &mut di);
                for k in 0..n {
                    let er = ar[k] * br[k] - ai[k] * bi[k];
                    let ei = ar[k] * bi[k] + ai[k] * br[k];
                    assert!((dr[k] - er).to_f64().abs() < tol);
                    assert!((di[k] - ei).to_f64().abs() < tol);
                }
                cmul_conj(mode, &ar, &ai, &br, &bi, &mut dr, &mut di);
                for k in 0..n {
                    let er = ar[k] * br[k] + ai[k] * bi[k];
                    let ei = ai[k] * br[k] - ar[k] * bi[k];
                    assert!((dr[k] - er).to_f64().abs() < tol);
                    assert!((di[k] - ei).to_f64().abs() < tol);
                }
                mul_real(mode, &ar, &ai, &r, &mut dr, &mut di);
                for k in 0..n {
                    assert_eq!(dr[k], ar[k] * r[k]);
                    assert_eq!(di[k], ai[k] * r[k]);
                }
                let quarter = T::from_f64(0.25);
                let w = T::from_f64(0.7);
                let mut acc = vec![quarter; n];
                acc_norm_sq(mode, &ar, &ai, w, &mut acc);
                for k in 0..n {
                    let e = quarter + w * (ar[k] * ar[k] + ai[k] * ai[k]);
                    assert!((acc[k] - e).to_f64().abs() < tol);
                }
                let w = T::from_f64(1.3);
                let mut acc = vec![T::HALF; n];
                acc_re(mode, &ar, w, &mut acc);
                for k in 0..n {
                    assert!((acc[k] - (T::HALF + w * ar[k])).to_f64().abs() < tol);
                }
            }
        }
    }

    #[test]
    fn dispatch_modes_agree_within_fma_rounding_f64() {
        check_modes_agree::<f64>(1e-12);
    }

    #[test]
    fn dispatch_modes_agree_within_fma_rounding_f32() {
        check_modes_agree::<f32>(1e-5);
    }

    /// Every AVX2 pointwise kernel equals, bit for bit and per element, the
    /// FMA expression of its scalar tail — at every length 0..=33, so the
    /// vector body, the tail, and each split between them are covered for
    /// both the 4-lane and the 8-lane width.
    fn check_avx2_matches_fma_expressions<T: Scalar>() {
        if !avx2_available() {
            return;
        }
        let mode = SimdMode::Avx2;
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        for n in 0..=33usize {
            let ar = randv::<T>(n, 11);
            let ai = randv::<T>(n, 12);
            let br = randv::<T>(n, 13);
            let bi = randv::<T>(n, 14);
            let acc0 = randv::<T>(n, 15);
            let w = T::from_f64(0.7);
            let (mut dr, mut di) = (vec![T::ZERO; n], vec![T::ZERO; n]);
            let (mut er, mut ei) = (vec![T::ZERO; n], vec![T::ZERO; n]);

            cmul(mode, &ar, &ai, &br, &bi, &mut dr, &mut di);
            for k in 0..n {
                er[k] = ar[k].mul_add(br[k], -(ai[k] * bi[k]));
                ei[k] = ar[k].mul_add(bi[k], ai[k] * br[k]);
            }
            assert_eq!((bits(&dr), bits(&di)), (bits(&er), bits(&ei)), "cmul n {n}");

            cmul_conj(mode, &ar, &ai, &br, &bi, &mut dr, &mut di);
            for k in 0..n {
                er[k] = ar[k].mul_add(br[k], ai[k] * bi[k]);
                ei[k] = ai[k].mul_add(br[k], -(ar[k] * bi[k]));
            }
            assert_eq!(
                (bits(&dr), bits(&di)),
                (bits(&er), bits(&ei)),
                "cmul_conj n {n}"
            );

            mul_real(mode, &ar, &ai, &br, &mut dr, &mut di);
            for k in 0..n {
                er[k] = ar[k] * br[k];
                ei[k] = ai[k] * br[k];
            }
            assert_eq!(
                (bits(&dr), bits(&di)),
                (bits(&er), bits(&ei)),
                "mul_real n {n}"
            );

            let mut acc = acc0.clone();
            acc_norm_sq(mode, &ar, &ai, w, &mut acc);
            for k in 0..n {
                er[k] = w.mul_add(ai[k].mul_add(ai[k], ar[k] * ar[k]), acc0[k]);
            }
            assert_eq!(bits(&acc), bits(&er), "acc_norm_sq n {n}");

            let mut acc = acc0.clone();
            acc_re(mode, &ar, w, &mut acc);
            for k in 0..n {
                er[k] = w.mul_add(ar[k], acc0[k]);
            }
            assert_eq!(bits(&acc), bits(&er), "acc_re n {n}");
        }
    }

    #[test]
    fn avx2_pointwise_kernels_match_fma_expressions_bitwise_f64() {
        check_avx2_matches_fma_expressions::<f64>();
    }

    #[test]
    fn avx2_pointwise_kernels_match_fma_expressions_bitwise_f32() {
        check_avx2_matches_fma_expressions::<f32>();
    }

    /// Transpose is pure data movement: both dispatch modes must produce
    /// bitwise-identical output at shapes exercising the vector blocks
    /// (8×8 `f32`), the scalar row/col remainders, and non-trivial
    /// destination strides.
    fn check_transpose_modes_identical<T: Scalar>() {
        for (rows, cols) in [(1usize, 1usize), (3, 5), (8, 8), (9, 7), (33, 40), (64, 64)] {
            for pad in [0usize, 3] {
                for seq_dst in [false, true] {
                    let src = randv::<T>(rows * cols, (rows * 131 + cols + pad) as u64);
                    let dst_stride = rows + pad;
                    let mut out_scalar = vec![T::ZERO; cols * dst_stride];
                    transpose_strided(
                        SimdMode::Scalar,
                        &src,
                        cols,
                        rows,
                        cols,
                        &mut out_scalar,
                        dst_stride,
                        seq_dst,
                    );
                    for r in 0..rows {
                        for c in 0..cols {
                            assert_eq!(out_scalar[c * dst_stride + r], src[r * cols + c]);
                        }
                    }
                    if avx2_available() {
                        let mut out_avx2 = vec![T::ZERO; cols * dst_stride];
                        transpose_strided(
                            SimdMode::Avx2,
                            &src,
                            cols,
                            rows,
                            cols,
                            &mut out_avx2,
                            dst_stride,
                            seq_dst,
                        );
                        assert_eq!(out_scalar, out_avx2);
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_modes_bitwise_identical_f64() {
        check_transpose_modes_identical::<f64>();
    }

    #[test]
    fn transpose_modes_bitwise_identical_f32() {
        check_transpose_modes_identical::<f32>();
    }

    #[test]
    fn forced_mode_round_trips() {
        force_mode(Some(SimdMode::Scalar));
        assert_eq!(active_mode(), SimdMode::Scalar);
        force_mode(None);
        let auto = active_mode();
        assert!(auto == SimdMode::Scalar || avx2_available());
    }
}
