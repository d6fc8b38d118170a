//! x86-64 AVX-512F backend: 16 f32 lanes in one `__m512` zmm register.
//!
//! Like the AVX2 backend, all loads and stores are unaligned
//! (`_mm512_loadu_ps` / `_mm512_storeu_ps`) because kernel callers
//! pass arbitrary row offsets with only 4-byte alignment. Tail lanes
//! use the native `__mmask16` masked forms — AVX-512's masked
//! load/store is a first-class instruction, so odd dimensions cost a
//! mask register instead of a scalar remainder loop.
//!
//! # Bit-identity with the AVX2 backend
//!
//! The property suite asserts the fused-FMA backends (AVX2 and
//! AVX-512) produce **bit-identical** results, so every reduction here
//! is built to replay AVX2's exact floating-point association:
//!
//! * Lanewise ops (`fma`, panel accumulation, `axpy`) are per-element
//!   independent — 16 lanes at a time fold each element in the same
//!   order as 8 lanes at a time, so nothing special is needed beyond
//!   keeping the same fused/unfused coverage. [`Avx512Isa::axpy`]
//!   therefore finishes with an 8-lane ymm step and the same unfused
//!   scalar tail as `axpy_body` on AVX2.
//! * Reductions (`dot`, `sqdist`) exploit that AVX2's `dot_body` runs
//!   *two* independent ymm chains stepping 16 elements per iteration:
//!   one zmm chain stepping 16 holds chain 0 in lanes 0–7 and chain 1
//!   in lanes 8–15, bit-for-bit. After the wide loop we split the zmm
//!   accumulator into its ymm halves, continue AVX2's 8-lane cleanup
//!   loop on the low half, and finish with the identical
//!   `hsum(add(acc0, acc1))` shuffle tree and unfused scalar tail.
//!   (Two zmm chains would be faster on paper but associate
//!   differently — correctness of the cross-backend contract wins.)
//!
//! The scalar backend stays tolerance-compared: its `F32x8::fma` is
//! deliberately unfused (see [`crate::simd`]), so exact equality with
//! FMA hardware is impossible by design.
//!
//! Safety model: identical to [`super::avx2`] — entries wrap a
//! `#[target_feature(enable = "avx512f,avx2,fma")]` inner function and
//! must only be reached through [`Backend::Avx512`](super::Backend)
//! after feature detection. The ymm cleanup reuses [`Avx2Isa`]
//! methods, which inline into the same feature-gated entry.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::{
    __m256, __m512, __mmask16, _mm256_castpd_ps, _mm512_add_ps, _mm512_castps512_ps256,
    _mm512_castps_pd, _mm512_extractf64x4_pd, _mm512_fmadd_ps, _mm512_loadu_ps,
    _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
    _mm512_storeu_ps, _mm512_sub_ps,
};

use super::avx2::Avx2Isa;
use super::isa::SimdIsa;

/// Number of f32 lanes in a zmm register.
pub(crate) const LANES: usize = 16;

/// The AVX-512F instantiation of the kernel vocabulary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512Isa;

/// `__mmask16` selecting the first `n` of 16 lanes.
#[inline(always)]
fn lane_mask(n: usize) -> __mmask16 {
    debug_assert!(n <= LANES);
    if n >= LANES {
        !0
    } else {
        ((1u32 << n) - 1) as __mmask16
    }
}

/// Low 8 lanes of a zmm register as a ymm register.
#[inline(always)]
fn lo256(v: __m512) -> __m256 {
    unsafe { _mm512_castps512_ps256(v) }
}

/// High 8 lanes of a zmm register as a ymm register. Routed through
/// `_mm512_extractf64x4_pd` (an AVX-512**F** instruction) so the
/// backend never requires AVX-512DQ.
#[inline(always)]
fn hi256(v: __m512) -> __m256 {
    unsafe { _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v))) }
}

unsafe impl SimdIsa for Avx512Isa {
    type V = __m512;

    const LANES: usize = LANES;

    #[inline(always)]
    fn zero() -> __m512 {
        unsafe { _mm512_setzero_ps() }
    }

    #[inline(always)]
    fn splat(v: f32) -> __m512 {
        unsafe { _mm512_set1_ps(v) }
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> __m512 {
        unsafe { _mm512_loadu_ps(p) }
    }

    #[inline(always)]
    unsafe fn storeu(p: *mut f32, v: __m512) {
        unsafe { _mm512_storeu_ps(p, v) }
    }

    #[inline(always)]
    unsafe fn loadu_partial(p: *const f32, n: usize) -> __m512 {
        // maskz: unselected lanes load as zero, per the trait contract.
        unsafe { _mm512_maskz_loadu_ps(lane_mask(n), p) }
    }

    #[inline(always)]
    unsafe fn storeu_partial(p: *mut f32, v: __m512, n: usize) {
        unsafe { _mm512_mask_storeu_ps(p, lane_mask(n), v) }
    }

    #[inline(always)]
    fn add(a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_add_ps(a, b) }
    }

    #[inline(always)]
    fn sub(a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_sub_ps(a, b) }
    }

    #[inline(always)]
    fn fma(acc: __m512, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_fmadd_ps(a, b, acc) }
    }

    #[inline(always)]
    fn hsum(v: __m512) -> f32 {
        // Halves-add then AVX2's shuffle tree: the same association a
        // pair of ymm accumulators would reduce with.
        Avx2Isa::hsum(Avx2Isa::add(lo256(v), hi256(v)))
    }

    #[inline(always)]
    unsafe fn prefetch(p: *const f32) {
        // SAFETY: the same `prefetcht0` the AVX2 backend issues — any
        // address, never dereferenced.
        unsafe { Avx2Isa::prefetch(p) }
    }

    #[inline(always)]
    fn dot(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        assert!(y.len() >= n, "dot: y shorter than x");
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut k = 0;
        let mut s;
        // Safety: every load below is bounded by its loop condition.
        unsafe {
            // One zmm chain ≡ AVX2's two ymm chains (lanes 0–7 =
            // chain 0, lanes 8–15 = chain 1), stepping 16 like
            // dot_body's unrolled loop.
            let mut acc = _mm512_setzero_ps();
            while k + LANES <= n {
                acc = _mm512_fmadd_ps(_mm512_loadu_ps(xp.add(k)), _mm512_loadu_ps(yp.add(k)), acc);
                k += LANES;
            }
            let mut acc0 = lo256(acc);
            let acc1 = hi256(acc);
            // AVX2's 8-lane cleanup loop, folding into chain 0.
            while k + 8 <= n {
                acc0 = Avx2Isa::fma(acc0, Avx2Isa::loadu(xp.add(k)), Avx2Isa::loadu(yp.add(k)));
                k += 8;
            }
            s = Avx2Isa::hsum(Avx2Isa::add(acc0, acc1));
        }
        while k < n {
            s += x[k] * y[k];
            k += 1;
        }
        s
    }

    #[inline(always)]
    fn sqdist(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        assert!(y.len() >= n, "sqdist: y shorter than x");
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut k = 0;
        let mut s;
        // Safety: every load below is bounded by its loop condition.
        unsafe {
            let mut acc = _mm512_setzero_ps();
            while k + LANES <= n {
                let d = _mm512_sub_ps(_mm512_loadu_ps(xp.add(k)), _mm512_loadu_ps(yp.add(k)));
                acc = _mm512_fmadd_ps(d, d, acc);
                k += LANES;
            }
            let mut acc0 = lo256(acc);
            let acc1 = hi256(acc);
            while k + 8 <= n {
                let d = Avx2Isa::sub(Avx2Isa::loadu(xp.add(k)), Avx2Isa::loadu(yp.add(k)));
                acc0 = Avx2Isa::fma(acc0, d, d);
                k += 8;
            }
            s = Avx2Isa::hsum(Avx2Isa::add(acc0, acc1));
        }
        while k < n {
            let d = x[k] - y[k];
            s += d * d;
            k += 1;
        }
        s
    }

    #[inline(always)]
    fn axpy(s: f32, y: &[f32], z: &mut [f32]) {
        let n = z.len();
        assert!(y.len() >= n, "axpy: y shorter than z");
        let yp = y.as_ptr();
        let zp = z.as_mut_ptr();
        let mut k = 0;
        // Safety: bounded by the loop conditions; y and z are distinct
        // slices (&/&mut), so reads and writes never alias.
        unsafe {
            let sv = _mm512_set1_ps(s);
            while k + LANES <= n {
                let zv =
                    _mm512_fmadd_ps(_mm512_loadu_ps(yp.add(k)), sv, _mm512_loadu_ps(zp.add(k)));
                _mm512_storeu_ps(zp.add(k), zv);
                k += LANES;
            }
            // 8-lane step + unfused scalar tail: the exact fused
            // coverage of axpy_body on AVX2 (fused for k < 8⌊n/8⌋).
            let sv8 = Avx2Isa::splat(s);
            while k + 8 <= n {
                let zv = Avx2Isa::fma(Avx2Isa::loadu(zp.add(k)), sv8, Avx2Isa::loadu(yp.add(k)));
                Avx2Isa::storeu(zp.add(k), zv);
                k += 8;
            }
        }
        while k < n {
            z[k] += s * y[k];
            k += 1;
        }
    }
}

#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn dot_impl(x: &[f32], y: &[f32]) -> f32 {
    Avx512Isa::dot(x, y)
}

#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn sqdist_impl(x: &[f32], y: &[f32]) -> f32 {
    Avx512Isa::sqdist(x, y)
}

#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn axpy_impl(s: f32, y: &[f32], z: &mut [f32]) {
    Avx512Isa::axpy(s, y, z)
}

/// AVX-512 dot product. Must only be called on an AVX-512F CPU.
pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
    // Safety: reachable only through Backend::Avx512 selection.
    unsafe { dot_impl(x, y) }
}

/// AVX-512 squared distance. Must only be called on an AVX-512F CPU.
pub(crate) fn sqdist(x: &[f32], y: &[f32]) -> f32 {
    // Safety: reachable only through Backend::Avx512 selection.
    unsafe { sqdist_impl(x, y) }
}

/// AVX-512 axpy. Must only be called on an AVX-512F CPU.
pub(crate) fn axpy(s: f32, y: &[f32], z: &mut [f32]) {
    // Safety: reachable only through Backend::Avx512 selection.
    unsafe { axpy_impl(s, y, z) }
}

#[cfg(test)]
mod tests {
    use super::super::Backend;
    use super::*;

    /// The cross-backend contract: AVX-512 reductions and axpy are
    /// bit-identical to AVX2 at every length, aligned or not.
    #[test]
    fn avx512_bit_identical_to_avx2() {
        if !Backend::Avx512.is_available() || !Backend::Avx2Fma.is_available() {
            return;
        }
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 24, 31, 33, 48, 96, 100, 192, 384, 385] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin() * 0.4).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos() * 0.4).collect();
            assert_eq!(
                dot(&x, &y).to_bits(),
                super::super::avx2::dot(&x, &y).to_bits(),
                "dot n={n}"
            );
            assert_eq!(
                sqdist(&x, &y).to_bits(),
                super::super::avx2::sqdist(&x, &y).to_bits(),
                "sqdist n={n}"
            );
            let mut z = vec![0.1f32; n];
            let mut z2 = vec![0.1f32; n];
            axpy(0.3, &y, &mut z);
            super::super::avx2::axpy(0.3, &y, &mut z2);
            for k in 0..n {
                assert_eq!(z[k].to_bits(), z2[k].to_bits(), "axpy n={n} k={k}");
            }
        }
    }

    #[test]
    fn partial_ops_cover_every_tail_width() {
        if !Backend::Avx512.is_available() {
            return;
        }
        #[target_feature(enable = "avx512f")]
        unsafe fn roundtrip(src: &[f32], n: usize) -> Vec<f32> {
            let v = unsafe { Avx512Isa::loadu_partial(src.as_ptr(), n) };
            let mut out = vec![9.0f32; LANES + 1];
            unsafe { Avx512Isa::storeu_partial(out.as_mut_ptr(), v, n) };
            out
        }
        let src: Vec<f32> = (0..LANES).map(|i| i as f32 + 1.0).collect();
        for n in 0..=LANES {
            let out = unsafe { roundtrip(&src, n) };
            for (k, &v) in out.iter().enumerate() {
                let want = if k < n { src[k] } else { 9.0 };
                assert_eq!(v, want, "n={n} k={k}");
            }
        }
    }
}
