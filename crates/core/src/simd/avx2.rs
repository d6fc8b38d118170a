//! x86-64 AVX2 + FMA backend: 8 f32 lanes in one `__m256` ymm register.
//!
//! All loads and stores use the **unaligned** intrinsics
//! (`_mm256_loadu_ps` / `_mm256_storeu_ps`): kernel callers pass
//! arbitrary row offsets into dense matrices, which are only 4-byte
//! aligned. On every AVX2 part the unaligned forms run at full speed
//! when the address happens to be aligned, so there is no penalty for
//! the general contract.
//!
//! Safety model: [`Avx2Isa`]'s methods lower to AVX/AVX2/FMA
//! instructions and are sound only when executed on a CPU with those
//! features. The public entry functions in this module wrap a
//! `#[target_feature(enable = "avx2,fma")]` inner function; they must
//! only be reached through [`Backend::Avx2Fma`](super::Backend)
//! after [`is_available`](super::Backend::is_available) returned true,
//! which [`super::active_backend`] and the kernel selectors guarantee.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
    _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32,
    _mm_movehdup_ps, _mm_movehl_ps, _mm_prefetch, _MM_HINT_T0,
};

use super::isa::{axpy_body, dot_body, sqdist_body, SimdIsa};
use super::VLEN;

/// Sliding-window source for `maskload`/`maskstore` lane masks: a
/// window of 8 starting at index `VLEN - n` has exactly its first `n`
/// entries set (high bit on selects the lane).
static TAIL_MASK: [i32; 2 * VLEN] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// Lane mask selecting the first `n` of 8 lanes. `n <= VLEN`.
#[inline(always)]
unsafe fn lane_mask(n: usize) -> __m256i {
    debug_assert!(n <= VLEN);
    // Safety: VLEN - n + VLEN <= 2*VLEN keeps the window in bounds.
    unsafe { _mm256_loadu_si256(TAIL_MASK.as_ptr().add(VLEN - n) as *const __m256i) }
}

/// The AVX2+FMA instantiation of the kernel vocabulary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2Isa;

unsafe impl SimdIsa for Avx2Isa {
    type V = __m256;

    #[inline(always)]
    fn zero() -> __m256 {
        unsafe { _mm256_setzero_ps() }
    }

    #[inline(always)]
    fn splat(v: f32) -> __m256 {
        unsafe { _mm256_set1_ps(v) }
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> __m256 {
        unsafe { _mm256_loadu_ps(p) }
    }

    #[inline(always)]
    unsafe fn storeu(p: *mut f32, v: __m256) {
        unsafe { _mm256_storeu_ps(p, v) }
    }

    #[inline(always)]
    unsafe fn loadu_partial(p: *const f32, n: usize) -> __m256 {
        // Masked lanes load as zero, matching the trait contract.
        unsafe { _mm256_maskload_ps(p, lane_mask(n)) }
    }

    #[inline(always)]
    unsafe fn storeu_partial(p: *mut f32, v: __m256, n: usize) {
        unsafe { _mm256_maskstore_ps(p, lane_mask(n), v) }
    }

    #[inline(always)]
    fn add(a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_add_ps(a, b) }
    }

    #[inline(always)]
    fn sub(a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_sub_ps(a, b) }
    }

    #[inline(always)]
    fn fma(acc: __m256, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_fmadd_ps(a, b, acc) }
    }

    #[inline(always)]
    fn hsum(v: __m256) -> f32 {
        unsafe {
            // ymm -> xmm: add high and low 128-bit halves, then the
            // classic movehdup/movehl 4-lane reduction.
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps::<1>(v);
            let quad = _mm_add_ps(lo, hi);
            let shuf = _mm_movehdup_ps(quad);
            let pair = _mm_add_ps(quad, shuf);
            let high = _mm_movehl_ps(shuf, pair);
            _mm_cvtss_f32(_mm_add_ss(pair, high))
        }
    }

    #[inline(always)]
    unsafe fn prefetch(p: *const f32) {
        // SAFETY: SSE's `prefetcht0` is a hint that never dereferences
        // `p`, so any address is fine (the trait's contract).
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p as *const i8) }
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_impl(x: &[f32], y: &[f32]) -> f32 {
    dot_body::<Avx2Isa>(x, y)
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sqdist_impl(x: &[f32], y: &[f32]) -> f32 {
    sqdist_body::<Avx2Isa>(x, y)
}

#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_impl(s: f32, y: &[f32], z: &mut [f32]) {
    axpy_body::<Avx2Isa>(s, y, z)
}

/// AVX2 dot product. Must only be called on an AVX2+FMA CPU.
pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
    // Safety: reachable only through Backend::Avx2Fma selection.
    unsafe { dot_impl(x, y) }
}

/// AVX2 squared distance. Must only be called on an AVX2+FMA CPU.
pub(crate) fn sqdist(x: &[f32], y: &[f32]) -> f32 {
    // Safety: reachable only through Backend::Avx2Fma selection.
    unsafe { sqdist_impl(x, y) }
}

/// AVX2 axpy. Must only be called on an AVX2+FMA CPU.
pub(crate) fn axpy(s: f32, y: &[f32], z: &mut [f32]) {
    // Safety: reachable only through Backend::Avx2Fma selection.
    unsafe { axpy_impl(s, y, z) }
}

#[cfg(test)]
mod tests {
    use super::super::Backend;
    use super::*;

    #[test]
    fn avx2_matches_scalar_when_available() {
        if !Backend::Avx2Fma.is_available() {
            return;
        }
        for n in [8usize, 16, 24, 48, 96, 192, 384, 385] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin() * 0.4).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos() * 0.4).collect();
            let d_ref = dot_body::<super::super::isa::ScalarIsa>(&x, &y);
            assert!((dot(&x, &y) - d_ref).abs() < 1e-4, "dot n={n}");
            let s_ref = sqdist_body::<super::super::isa::ScalarIsa>(&x, &y);
            assert!((sqdist(&x, &y) - s_ref).abs() < 1e-4, "sqdist n={n}");
            let mut z = vec![0.1f32; n];
            let mut z_ref = vec![0.1f32; n];
            axpy(0.3, &y, &mut z);
            axpy_body::<super::super::isa::ScalarIsa>(0.3, &y, &mut z_ref);
            for k in 0..n {
                assert!((z[k] - z_ref[k]).abs() < 1e-5, "axpy n={n} k={k}");
            }
        }
    }
}
