//! AArch64 NEON/ASIMD backend: 8 f32 lanes as a pair of `float32x4_t`
//! q-registers (NEON vectors are 128-bit, so `VLEN = 8` spans two).
//!
//! Loads and stores use `vld1q_f32`/`vst1q_f32`, which have no
//! alignment requirement beyond the element type — matching the
//! unaligned contract of the SIMD layer (see [`crate::simd`]).
//!
//! NEON is a baseline feature of AArch64, so the entries here are
//! executable on every aarch64 CPU; detection still routes through
//! [`Backend::Neon`](super::Backend) for uniformity with the x86 path
//! and to honor `FUSEDMM_FORCE_BACKEND=scalar`.

#![cfg(target_arch = "aarch64")]
#![allow(unused_unsafe)]

use core::arch::aarch64::{
    float32x4_t, vaddq_f32, vaddvq_f32, vdupq_n_f32, vfmaq_f32, vld1q_f32, vst1q_f32, vsubq_f32,
};

use super::isa::{axpy_body, dot_body, sqdist_body, SimdIsa};
use super::VLEN;

/// Two NEON q-registers acting as one 8-lane vector.
#[derive(Clone, Copy)]
pub(crate) struct NeonV(float32x4_t, float32x4_t);

/// The NEON instantiation of the kernel vocabulary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NeonIsa;

unsafe impl SimdIsa for NeonIsa {
    type V = NeonV;

    #[inline(always)]
    fn zero() -> NeonV {
        unsafe { NeonV(vdupq_n_f32(0.0), vdupq_n_f32(0.0)) }
    }

    #[inline(always)]
    fn splat(v: f32) -> NeonV {
        unsafe { NeonV(vdupq_n_f32(v), vdupq_n_f32(v)) }
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> NeonV {
        unsafe { NeonV(vld1q_f32(p), vld1q_f32(p.add(4))) }
    }

    #[inline(always)]
    unsafe fn storeu(p: *mut f32, v: NeonV) {
        unsafe {
            vst1q_f32(p, v.0);
            vst1q_f32(p.add(4), v.1);
        }
    }

    #[inline(always)]
    unsafe fn loadu_partial(p: *const f32, n: usize) -> NeonV {
        debug_assert!(n <= VLEN);
        // NEON has no lane-masked load; bounce through a zeroed stack
        // buffer (used only on kernel tails, never the hot panel loop).
        let mut buf = [0f32; VLEN];
        unsafe {
            std::ptr::copy_nonoverlapping(p, buf.as_mut_ptr(), n);
            NeonV(vld1q_f32(buf.as_ptr()), vld1q_f32(buf.as_ptr().add(4)))
        }
    }

    #[inline(always)]
    unsafe fn storeu_partial(p: *mut f32, v: NeonV, n: usize) {
        debug_assert!(n <= VLEN);
        let mut buf = [0f32; VLEN];
        unsafe {
            vst1q_f32(buf.as_mut_ptr(), v.0);
            vst1q_f32(buf.as_mut_ptr().add(4), v.1);
            std::ptr::copy_nonoverlapping(buf.as_ptr(), p, n);
        }
    }

    #[inline(always)]
    fn add(a: NeonV, b: NeonV) -> NeonV {
        unsafe { NeonV(vaddq_f32(a.0, b.0), vaddq_f32(a.1, b.1)) }
    }

    #[inline(always)]
    fn sub(a: NeonV, b: NeonV) -> NeonV {
        unsafe { NeonV(vsubq_f32(a.0, b.0), vsubq_f32(a.1, b.1)) }
    }

    #[inline(always)]
    fn fma(acc: NeonV, a: NeonV, b: NeonV) -> NeonV {
        unsafe { NeonV(vfmaq_f32(acc.0, a.0, b.0), vfmaq_f32(acc.1, a.1, b.1)) }
    }

    #[inline(always)]
    fn hsum(v: NeonV) -> f32 {
        unsafe { vaddvq_f32(vaddq_f32(v.0, v.1)) }
    }

    #[inline(always)]
    unsafe fn prefetch(p: *const f32) {
        // SAFETY: `prfm pldl1keep` is a hint that never dereferences
        // `p`, so any address is fine (the trait's contract); it writes
        // no memory and no flags, as the options state. Inline assembly
        // because the `_prefetch` intrinsic is not stable here.
        unsafe {
            core::arch::asm!(
                "prfm pldl1keep, [{p}]",
                p = in(reg) p,
                options(nostack, readonly, preserves_flags)
            );
        }
    }
}

#[target_feature(enable = "neon")]
unsafe fn dot_impl(x: &[f32], y: &[f32]) -> f32 {
    dot_body::<NeonIsa>(x, y)
}

#[target_feature(enable = "neon")]
unsafe fn sqdist_impl(x: &[f32], y: &[f32]) -> f32 {
    sqdist_body::<NeonIsa>(x, y)
}

#[target_feature(enable = "neon")]
unsafe fn axpy_impl(s: f32, y: &[f32], z: &mut [f32]) {
    axpy_body::<NeonIsa>(s, y, z)
}

/// NEON dot product. Must only be called on an aarch64 NEON CPU.
pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
    // Safety: reachable only through Backend::Neon selection.
    unsafe { dot_impl(x, y) }
}

/// NEON squared distance. Must only be called on an aarch64 NEON CPU.
pub(crate) fn sqdist(x: &[f32], y: &[f32]) -> f32 {
    // Safety: reachable only through Backend::Neon selection.
    unsafe { sqdist_impl(x, y) }
}

/// NEON axpy. Must only be called on an aarch64 NEON CPU.
pub(crate) fn axpy(s: f32, y: &[f32], z: &mut [f32]) {
    // Safety: reachable only through Backend::Neon selection.
    unsafe { axpy_impl(s, y, z) }
}
