//! Multi-backend SIMD layer — the Rust analogue of the paper's `simd.h`.
//!
//! The reference implementation hides AVX-512/AVX/SSE/NEON intrinsics
//! behind C preprocessor macros in a generated `simd.h`, giving every
//! kernel one vocabulary (`VLOAD`, `VMUL`, `VMAC`, `VHADD`, ...) and
//! selecting the ISA at build time. This module provides the same
//! vocabulary with **runtime** ISA selection:
//!
//! | backend           | ISA                | selected when |
//! |-------------------|--------------------|---------------|
//! | [`Backend::Avx512`]  | x86-64 AVX-512F (16-lane `__m512`, masked tails) | `is_x86_feature_detected!("avx512f")` (plus avx2+fma) |
//! | [`Backend::Avx2Fma`] | x86-64 AVX2 + FMA (`std::arch` intrinsics) | `is_x86_feature_detected!("avx2")` and `("fma")` |
//! | [`Backend::Neon`]    | AArch64 NEON/ASIMD (`std::arch` intrinsics) | aarch64 build (NEON is baseline) |
//! | [`Backend::Scalar`]  | portable lane loops ([`F32x8`])             | everything else, or `FUSEDMM_FORCE_BACKEND=scalar` |
//!
//! The choice is made once per process ([`active_backend`]) and
//! consulted at kernel-launch granularity — the slice primitives below
//! route through a cached function-pointer table, and the row kernels
//! in [`crate::genkern`] are monomorphized per backend and picked by
//! the dispatcher — so no hot loop ever sniffs CPU features. Setting
//! `FUSEDMM_FORCE_BACKEND=<name>` before first use requests one backend
//! by name (falling back to the best available one when the CPU lacks
//! it; `scalar` pins everything to the portable fallback for debugging
//! and A/B runs), and [`cpu_features`] reports what was detected and
//! chosen.
//!
//! The AVX-512 and AVX2 backends are **bit-identical** to each other by
//! construction (see the `avx512` submodule's docs); the scalar backend
//! differs in final-rounding because its multiply-accumulate is
//! deliberately unfused (see [`F32x8::fma`]) and is compared with a
//! small tolerance instead.
//!
//! # Alignment contract
//!
//! [`F32x8`] the *value type* is 32-byte aligned (one AVX ymm image),
//! but every load/store in this module — each backend's `loadu` and
//! `storeu`, the portable one's included — accepts data with only the
//! natural 4-byte `f32` alignment, because kernels index
//! arbitrary row offsets (`&row[k..]`) of packed dense matrices. The
//! AVX2 backend therefore always uses the unaligned intrinsics
//! (`_mm256_loadu_ps`/`_mm256_storeu_ps`; full speed on aligned
//! addresses on every AVX2 part), and NEON uses `vld1q_f32`/
//! `vst1q_f32`, which only require element alignment. Do not introduce
//! aligned intrinsics here without also guaranteeing 32-byte row
//! pitches in [`fusedmm_sparse::dense::Dense`].
//!
//! Panel layout stays expressed in units of 8 lanes (`VLEN`): the
//! greatest common divisor of all dimension values the paper
//! benchmarks, and the exact width of an AVX ymm register. The AVX-512
//! backend's register type spans two `VLEN` units (16 lanes,
//! `SimdIsa::LANES = 16`), so the same memory walk fills zmm registers
//! with half the iterations.

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod backend;
mod isa;
#[cfg(target_arch = "aarch64")]
mod neon;

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::Avx2Isa;
#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::Avx512Isa;
pub use backend::{active_backend, cpu_features, Backend, CpuFeatures};
pub(crate) use isa::{ScalarIsa, SimdIsa};
#[cfg(target_arch = "aarch64")]
pub(crate) use neon::NeonIsa;

use std::sync::OnceLock;

/// Number of f32 lanes per register-like vector.
pub const VLEN: usize = 8;

/// An eight-lane f32 vector with value semantics.
///
/// 32-byte alignment matches one AVX ymm register; operations are
/// written as straight-line lane loops that LLVM reliably turns into
/// single vector instructions at `opt-level ≥ 2`. This is the portable
/// backend's register type and the reference semantics the ISA
/// backends are tested against.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
pub struct F32x8(pub [f32; VLEN]);

impl F32x8 {
    /// All lanes zero (`VZERO`).
    #[inline(always)]
    pub fn zero() -> Self {
        F32x8([0.0; VLEN])
    }

    /// All lanes set to `v` (`VBCAST` — the broadcast after SOP in the
    /// paper's Fig. 5).
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8([v; VLEN])
    }

    /// Lanewise addition (`VADD`).
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        let mut out = [0.0; VLEN];
        for i in 0..VLEN {
            out[i] = self.0[i] + rhs.0[i];
        }
        F32x8(out)
    }

    /// Lanewise subtraction (`VSUB`).
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        let mut out = [0.0; VLEN];
        for i in 0..VLEN {
            out[i] = self.0[i] - rhs.0[i];
        }
        F32x8(out)
    }

    /// Multiply-accumulate: `self + a·b` (`VMAC` — the FMAC of the
    /// paper's Fig. 5 combining MOP and AOP). Written as separate
    /// multiply and add rather than `f32::mul_add`: on targets whose
    /// baseline lacks hardware FMA (default x86-64), `mul_add` lowers to
    /// a per-lane libm call for its single-rounding guarantee, defeating
    /// vectorization entirely. The AVX2 backend gets true fused FMA via
    /// `_mm256_fmadd_ps` instead (see [`crate::simd`] submodules).
    #[inline(always)]
    pub fn fma(self, a: Self, b: Self) -> Self {
        let mut out = [0.0; VLEN];
        for i in 0..VLEN {
            out[i] = self.0[i] + a.0[i] * b.0[i];
        }
        F32x8(out)
    }

    /// Horizontal sum of all lanes (`VHADD`/reduce — completes ROP).
    /// Pairwise tree order matches how hardware horizontal adds
    /// associate, and is deterministic.
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let a = self.0;
        let s01 = a[0] + a[1];
        let s23 = a[2] + a[3];
        let s45 = a[4] + a[5];
        let s67 = a[6] + a[7];
        (s01 + s23) + (s45 + s67)
    }
}

// ---------------------------------------------------------------------------
// Dispatched slice primitives
// ---------------------------------------------------------------------------

/// The function-pointer table one backend installs — resolved once per
/// process so the per-call cost is a single indirect call.
#[derive(Clone, Copy)]
struct SliceOps {
    dot: fn(&[f32], &[f32]) -> f32,
    sqdist: fn(&[f32], &[f32]) -> f32,
    axpy: fn(f32, &[f32], &mut [f32]),
}

fn scalar_ops() -> SliceOps {
    SliceOps {
        dot: |x, y| isa::dot_body::<ScalarIsa>(x, y),
        sqdist: |x, y| isa::sqdist_body::<ScalarIsa>(x, y),
        axpy: |s, y, z| isa::axpy_body::<ScalarIsa>(s, y, z),
    }
}

fn ops_for(b: Backend) -> SliceOps {
    match b {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => {
            SliceOps { dot: avx512::dot, sqdist: avx512::sqdist, axpy: avx512::axpy }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => SliceOps { dot: avx2::dot, sqdist: avx2::sqdist, axpy: avx2::axpy },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => SliceOps { dot: neon::dot, sqdist: neon::sqdist, axpy: neon::axpy },
        _ => scalar_ops(),
    }
}

static SLICE_OPS: OnceLock<SliceOps> = OnceLock::new();

#[inline]
fn slice_ops() -> &'static SliceOps {
    SLICE_OPS.get_or_init(|| ops_for(active_backend()))
}

/// Dot product of two equal-length slices (VOP(MUL) + ROP(RSUM)
/// fusion), computed by the active backend.
///
/// # Panics
/// Panics when `y` is shorter than `x`.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    (slice_ops().dot)(x, y)
}

/// `z += s * y` over equal-length slices (`MOP(MUL) + AOP(ASUM)` with a
/// scalar message) — the axpy at the heart of the embedding pattern,
/// computed by the active backend.
///
/// # Panics
/// Panics when `y` is shorter than `z`.
#[inline]
pub fn axpy(s: f32, y: &[f32], z: &mut [f32]) {
    (slice_ops().axpy)(s, y, z)
}

/// Squared L2 distance `‖x − y‖²` (VOP(SUB) + ROP(NORM) without the
/// final sqrt) — the FR pattern's reduction, computed by the active
/// backend.
///
/// # Panics
/// Panics when `y` is shorter than `x`.
#[inline]
pub fn sqdist(x: &[f32], y: &[f32]) -> f32 {
    (slice_ops().sqdist)(x, y)
}

/// Ask for every cache line of `s` ahead of its use, through backend
/// `b`'s prefetch instruction (`prefetcht0` on x86, `prfm pldl1keep` on
/// AArch64) — a hint that reads nothing and changes no value. A
/// launch's row schedule issues it for rows it has not reached yet,
/// with the plan's backend; code outside the kernels passes
/// [`active_backend`]. The portable scalar backend issues nothing, as
/// its kernels do.
#[inline(always)]
pub fn prefetch_lines<T>(b: Backend, s: &[T]) {
    #[inline(always)]
    fn each_line<T>(s: &[T], prefetch: impl Fn(*const f32)) {
        let p = s.as_ptr().cast::<u8>();
        for off in (0..std::mem::size_of_val(s)).step_by(64) {
            prefetch(p.wrapping_add(off).cast());
        }
    }
    match b {
        // SAFETY: `prefetch` accepts any address and never dereferences
        // it; the pointers are formed with wrapping arithmetic inside
        // `s`. ISA — both x86 backends' prefetch is baseline SSE, which
        // every x86_64 CPU executes, so this holds whichever `b` the
        // caller names.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma | Backend::Avx512 => each_line(s, |p| unsafe { Avx2Isa::prefetch(p) }),
        // SAFETY: as above; NEON is baseline on AArch64.
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => each_line(s, |p| unsafe { NeonIsa::prefetch(p) }),
        _ => {}
    }
}

/// [`dot`] computed by an explicit backend — for cross-backend tests
/// and ablation benches.
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn dot_with(b: Backend, x: &[f32], y: &[f32]) -> f32 {
    assert!(b.is_available(), "backend {b} not available on this CPU");
    (ops_for(b).dot)(x, y)
}

/// [`sqdist`] computed by an explicit backend.
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn sqdist_with(b: Backend, x: &[f32], y: &[f32]) -> f32 {
    assert!(b.is_available(), "backend {b} not available on this CPU");
    (ops_for(b).sqdist)(x, y)
}

/// [`axpy`] computed by an explicit backend.
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn axpy_with(b: Backend, s: f32, y: &[f32], z: &mut [f32]) {
    assert!(b.is_available(), "backend {b} not available on this CPU");
    (ops_for(b).axpy)(s, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_zero() {
        assert_eq!(F32x8::splat(2.0).0, [2.0; 8]);
        assert_eq!(F32x8::zero().0, [0.0; 8]);
    }

    #[test]
    fn arithmetic_lanes() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(2.0);
        assert_eq!(a.add(b).0[0], 3.0);
        assert_eq!(a.sub(b).0[7], 6.0);
    }

    #[test]
    fn fma_matches_mul_add() {
        let acc = F32x8::splat(1.0);
        let a = F32x8::splat(2.0);
        let b = F32x8::splat(3.0);
        assert_eq!(acc.fma(a, b).0, [7.0; 8]);
    }

    #[test]
    fn horizontal_reductions() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hsum(), 36.0);
    }

    #[test]
    fn dot_matches_scalar_for_odd_lengths() {
        for n in [1usize, 7, 8, 9, 16, 31, 64, 100] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 1.0).collect();
            let y: Vec<f32> = (0..n).map(|i| 0.5 - (i as f32) * 0.125).collect();
            let expect: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = dot(&x, &y);
            assert!((got - expect).abs() < 1e-3, "n={n}: {got} vs {expect}");
        }
    }

    #[test]
    fn axpy_matches_scalar() {
        for n in [3usize, 8, 17, 40] {
            let y: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut z = vec![1.0f32; n];
            let mut z_ref = vec![1.0f32; n];
            axpy(0.5, &y, &mut z);
            for (zr, &yi) in z_ref.iter_mut().zip(&y) {
                *zr += 0.5 * yi;
            }
            assert_eq!(z, z_ref, "n={n}");
        }
    }

    #[test]
    fn sqdist_matches_scalar() {
        for n in [2usize, 8, 13, 32] {
            let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.3).collect();
            let y: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 * 0.1).collect();
            let expect: f32 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!((sqdist(&x, &y) - expect).abs() < 1e-3, "n={n}");
        }
    }

    #[test]
    fn every_available_backend_agrees_on_primitives() {
        for n in [1usize, 8, 24, 48, 96, 192, 384, 391] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin() * 0.4).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.19).cos() * 0.4).collect();
            let d_ref = dot_with(Backend::Scalar, &x, &y);
            let s_ref = sqdist_with(Backend::Scalar, &x, &y);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                assert!((dot_with(b, &x, &y) - d_ref).abs() < 1e-5, "dot {b} n={n}");
                assert!((sqdist_with(b, &x, &y) - s_ref).abs() < 1e-5, "sqdist {b} n={n}");
                let mut z = vec![0.2f32; n];
                let mut z_ref = vec![0.2f32; n];
                axpy_with(b, 0.7, &x, &mut z);
                axpy_with(Backend::Scalar, 0.7, &x, &mut z_ref);
                for k in 0..n {
                    assert!((z[k] - z_ref[k]).abs() < 1e-5, "axpy {b} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn explicit_backend_requires_availability() {
        // One of the two ISA backends is always foreign to the build
        // target, so this panics on every machine.
        let unavailable = if Backend::Avx2Fma.is_available() || cfg!(target_arch = "x86_64") {
            Backend::Neon
        } else {
            Backend::Avx2Fma
        };
        let _ = dot_with(unavailable, &[1.0; 8], &[1.0; 8]);
    }

    #[test]
    fn alignment_is_32_bytes() {
        assert_eq!(std::mem::align_of::<F32x8>(), 32);
        assert_eq!(std::mem::size_of::<F32x8>(), 32);
    }
}
