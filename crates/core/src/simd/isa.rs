//! The ISA abstraction the kernels are written against.
//!
//! [`SimdIsa`] is the Rust analogue of the paper's `simd.h` macro
//! vocabulary: an 8-lane register type plus `VZERO`/`VBCAST`/`VLOAD`/
//! `VSTORE`/`VADD`/`VSUB`/`VMUL`/`VMAC`/`VHADD`. Kernel bodies are
//! generic over it and marked `#[inline(always)]`; each backend then
//! exposes one monomorphized entry per kernel, compiled under the
//! matching `#[target_feature]` so the intrinsics (and everything
//! inlined into the entry) codegen with the real ISA. This is the
//! memchr/pulp pattern: features apply *after* inlining, so one source
//! body serves every backend.
//!
//! Loads and stores take raw pointers and are **unaligned by
//! contract** — callers hand in arbitrary row offsets of `f32` data
//! with only 4-byte alignment guaranteed (see the module header of
//! [`crate::simd`]).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use crate::simd::{F32x8, VLEN};

/// An f32 vector ISA with `LANES` lanes (8 on AVX2/NEON/scalar, 16 on
/// AVX-512).
///
/// # Safety
///
/// Implementations may compile to instructions beyond the build
/// target's baseline. An implementation must only be *executed* on a
/// CPU that supports its ISA; the per-backend entry functions uphold
/// this by being reachable only through
/// [`Backend`](crate::simd::Backend) detection. `loadu`/`storeu`
/// additionally require pointers valid for `Self::LANES` consecutive
/// `f32` reads/writes (any 4-byte alignment), and the partial forms
/// require validity for the first `n` lanes only.
pub unsafe trait SimdIsa {
    /// The register type (`LANES` f32 lanes).
    type V: Copy;

    /// Number of f32 lanes in [`Self::V`]. Always a multiple of
    /// [`VLEN`]; kernel panel layout stays expressed in `VLEN` units
    /// so wider ISAs see the same memory walk, just fewer iterations.
    const LANES: usize = VLEN;

    /// All lanes zero (`VZERO`).
    fn zero() -> Self::V;
    /// All lanes set to `v` (`VBCAST`).
    fn splat(v: f32) -> Self::V;
    /// Unaligned full-width load (`VLOAD`).
    ///
    /// # Safety
    /// `p` must be valid for reading `Self::LANES` consecutive `f32`s.
    unsafe fn loadu(p: *const f32) -> Self::V;
    /// Unaligned full-width store (`VSTORE`).
    ///
    /// # Safety
    /// `p` must be valid for writing `Self::LANES` consecutive `f32`s.
    unsafe fn storeu(p: *mut f32, v: Self::V);
    /// Masked load of the first `n` lanes (`n <= LANES`); lanes `>= n`
    /// are zero. Lets the specialized kernels cover arbitrary (odd)
    /// dims with a fused tail instead of a scalar remainder loop.
    ///
    /// # Safety
    /// `p` must be valid for reading `n` consecutive `f32`s.
    unsafe fn loadu_partial(p: *const f32, n: usize) -> Self::V;
    /// Masked store of the first `n` lanes (`n <= LANES`); memory past
    /// `p + n` is untouched.
    ///
    /// # Safety
    /// `p` must be valid for writing `n` consecutive `f32`s.
    unsafe fn storeu_partial(p: *mut f32, v: Self::V, n: usize);
    /// Lanewise `a + b` (`VADD`).
    fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a - b` (`VSUB`).
    fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `acc + a * b` (`VMAC`), fused where the ISA has FMA.
    /// (`VMUL` is expressed as `fma(zero, a, b)` — every pattern's
    /// multiply feeds an accumulate, so a standalone mul never appears
    /// in kernel bodies.)
    fn fma(acc: Self::V, a: Self::V, b: Self::V) -> Self::V;
    /// Horizontal sum of all lanes (`VHADD`).
    fn hsum(v: Self::V) -> f32;
    /// Ask for the cache line holding `*p` to be brought towards L1
    /// (`prefetcht0` on x86, `prfm pldl1keep` on AArch64, nothing on
    /// the portable backend). A hint: it cannot fault and cannot change
    /// a value, so it is invisible to every result.
    ///
    /// # Safety
    /// `p` may be **any** address — dangling, unaligned, past the end
    /// of its allocation, null: the instruction never dereferences it
    /// and a line that cannot be fetched is dropped silently. The one
    /// requirement is the trait's own: the executing CPU supports this
    /// implementation's ISA, as for every other method here.
    #[inline(always)]
    unsafe fn prefetch(p: *const f32) {
        let _ = p;
    }

    /// Dot product `x · y` over `x.len()` elements. Defaults to
    /// `dot_body`; wider ISAs override it to keep the reduction
    /// *bit-identical* to the 8-lane backends (see the `avx512`
    /// module docs in [`crate::simd`]).
    #[inline(always)]
    fn dot(x: &[f32], y: &[f32]) -> f32
    where
        Self: Sized,
    {
        dot_body::<Self>(x, y)
    }

    /// Squared L2 distance `‖x − y‖²` over `x.len()` elements; same
    /// override contract as [`SimdIsa::dot`].
    #[inline(always)]
    fn sqdist(x: &[f32], y: &[f32]) -> f32
    where
        Self: Sized,
    {
        sqdist_body::<Self>(x, y)
    }

    /// `z += s * y` over `z.len()` elements; same override contract as
    /// [`SimdIsa::dot`].
    #[inline(always)]
    fn axpy(s: f32, y: &[f32], z: &mut [f32])
    where
        Self: Sized,
    {
        axpy_body::<Self>(s, y, z)
    }
}

/// The portable backend: [`F32x8`] lane loops, correct everywhere.
#[derive(Debug, Clone, Copy)]
pub struct ScalarIsa;

// SAFETY: plain Rust over `[f32; 8]` — no instruction beyond the build
// target's baseline, so it is executable everywhere; the pointer
// methods copy exactly the lane counts the trait states.
unsafe impl SimdIsa for ScalarIsa {
    type V = F32x8;

    #[inline(always)]
    fn zero() -> F32x8 {
        F32x8::zero()
    }

    #[inline(always)]
    fn splat(v: f32) -> F32x8 {
        F32x8::splat(v)
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> F32x8 {
        let mut out = [0f32; VLEN];
        // SAFETY: the caller guarantees `p` is readable for `VLEN`
        // `f32`s; `out` is a distinct local of exactly that length.
        unsafe { std::ptr::copy_nonoverlapping(p, out.as_mut_ptr(), VLEN) };
        F32x8(out)
    }

    #[inline(always)]
    unsafe fn storeu(p: *mut f32, v: F32x8) {
        // SAFETY: the caller guarantees `p` is writable for `VLEN`
        // `f32`s; `v` is a by-value local, so the ranges are disjoint.
        unsafe { std::ptr::copy_nonoverlapping(v.0.as_ptr(), p, VLEN) };
    }

    #[inline(always)]
    unsafe fn loadu_partial(p: *const f32, n: usize) -> F32x8 {
        debug_assert!(n <= VLEN);
        let mut out = [0f32; VLEN];
        // SAFETY: the caller guarantees `p` is readable for `n ≤ VLEN`
        // `f32`s, which also fit the `VLEN`-long local.
        unsafe { std::ptr::copy_nonoverlapping(p, out.as_mut_ptr(), n) };
        F32x8(out)
    }

    #[inline(always)]
    unsafe fn storeu_partial(p: *mut f32, v: F32x8, n: usize) {
        debug_assert!(n <= VLEN);
        // SAFETY: the caller guarantees `p` is writable for `n ≤ VLEN`
        // `f32`s; the source holds `VLEN` of them.
        unsafe { std::ptr::copy_nonoverlapping(v.0.as_ptr(), p, n) };
    }

    #[inline(always)]
    fn add(a: F32x8, b: F32x8) -> F32x8 {
        a.add(b)
    }

    #[inline(always)]
    fn sub(a: F32x8, b: F32x8) -> F32x8 {
        a.sub(b)
    }

    #[inline(always)]
    fn fma(acc: F32x8, a: F32x8, b: F32x8) -> F32x8 {
        acc.fma(a, b)
    }

    #[inline(always)]
    fn hsum(v: F32x8) -> f32 {
        v.hsum()
    }
}

// ---------------------------------------------------------------------------
// ISA-generic slice primitive bodies. Each is `#[inline(always)]` so a
// `#[target_feature]` entry that instantiates it compiles the whole
// body — intrinsics included — under the entry's feature set.
// ---------------------------------------------------------------------------

/// Dot product `x · y` over `x.len()` elements: two `I::LANES`-wide
/// accumulator chains (hides FMA latency), scalar tail.
#[inline(always)]
pub(crate) fn dot_body<I: SimdIsa>(x: &[f32], y: &[f32]) -> f32 {
    let n = x.len();
    assert!(y.len() >= n, "dot: y shorter than x");
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc0 = I::zero();
    let mut acc1 = I::zero();
    let mut k = 0;
    // SAFETY: length — every load reads `I::LANES` elements at offset
    // `k` or `k + LANES` of `x` and `y`, and each loop's condition keeps
    // the window's end `<= n = x.len() <= y.len()` (asserted above).
    // Alignment — `loadu` is unaligned by contract. ISA — the body is
    // inlined into an entry reached only after backend detection.
    unsafe {
        while k + 2 * I::LANES <= n {
            acc0 = I::fma(acc0, I::loadu(xp.add(k)), I::loadu(yp.add(k)));
            acc1 = I::fma(acc1, I::loadu(xp.add(k + I::LANES)), I::loadu(yp.add(k + I::LANES)));
            k += 2 * I::LANES;
        }
        while k + I::LANES <= n {
            acc0 = I::fma(acc0, I::loadu(xp.add(k)), I::loadu(yp.add(k)));
            k += I::LANES;
        }
    }
    let mut s = I::hsum(I::add(acc0, acc1));
    while k < n {
        s += x[k] * y[k];
        k += 1;
    }
    s
}

/// Squared L2 distance `‖x − y‖²` over `x.len()` elements.
#[inline(always)]
pub(crate) fn sqdist_body<I: SimdIsa>(x: &[f32], y: &[f32]) -> f32 {
    let n = x.len();
    assert!(y.len() >= n, "sqdist: y shorter than x");
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc0 = I::zero();
    let mut acc1 = I::zero();
    let mut k = 0;
    // SAFETY: as in `dot_body` — every `LANES`-wide load ends at or
    // before `n = x.len() <= y.len()` by its loop condition; unaligned
    // by contract; executable because the entry was detected.
    unsafe {
        while k + 2 * I::LANES <= n {
            let d0 = I::sub(I::loadu(xp.add(k)), I::loadu(yp.add(k)));
            let d1 = I::sub(I::loadu(xp.add(k + I::LANES)), I::loadu(yp.add(k + I::LANES)));
            acc0 = I::fma(acc0, d0, d0);
            acc1 = I::fma(acc1, d1, d1);
            k += 2 * I::LANES;
        }
        while k + I::LANES <= n {
            let d0 = I::sub(I::loadu(xp.add(k)), I::loadu(yp.add(k)));
            acc0 = I::fma(acc0, d0, d0);
            k += I::LANES;
        }
    }
    let mut s = I::hsum(I::add(acc0, acc1));
    while k < n {
        let d = x[k] - y[k];
        s += d * d;
        k += 1;
    }
    s
}

/// `z += s * y` over `z.len()` elements.
#[inline(always)]
pub(crate) fn axpy_body<I: SimdIsa>(s: f32, y: &[f32], z: &mut [f32]) {
    let n = z.len();
    assert!(y.len() >= n, "axpy: y shorter than z");
    let yp = y.as_ptr();
    let zp = z.as_mut_ptr();
    let sv = I::splat(s);
    let mut k = 0;
    // SAFETY: length — every `LANES`-wide load and store ends at or
    // before `n = z.len() <= y.len()` (asserted above) by its loop
    // condition. Aliasing — `y` is `&` and `z` is `&mut`, so the reads
    // of `y` and the writes of `z` never overlap. Unaligned by
    // contract; executable because the entry was detected.
    unsafe {
        while k + 2 * I::LANES <= n {
            let z0 = I::fma(I::loadu(zp.add(k)), sv, I::loadu(yp.add(k)));
            let z1 = I::fma(I::loadu(zp.add(k + I::LANES)), sv, I::loadu(yp.add(k + I::LANES)));
            I::storeu(zp.add(k), z0);
            I::storeu(zp.add(k + I::LANES), z1);
            k += 2 * I::LANES;
        }
        while k + I::LANES <= n {
            let z0 = I::fma(I::loadu(zp.add(k)), sv, I::loadu(yp.add(k)));
            I::storeu(zp.add(k), z0);
            k += I::LANES;
        }
    }
    while k < n {
        z[k] += s * y[k];
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_bodies_match_plain_loops() {
        for n in [0usize, 1, 7, 8, 15, 16, 17, 33, 96] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 0.5).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.21).cos() * 0.5).collect();
            let dot_ref: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot_body::<ScalarIsa>(&x, &y) - dot_ref).abs() < 1e-4, "dot n={n}");
            let sq_ref: f32 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!((sqdist_body::<ScalarIsa>(&x, &y) - sq_ref).abs() < 1e-4, "sqdist n={n}");
            let mut z = vec![0.25f32; n];
            axpy_body::<ScalarIsa>(0.5, &y, &mut z);
            for (k, zv) in z.iter().enumerate() {
                assert!((zv - (0.25 + 0.5 * y[k])).abs() < 1e-6, "axpy n={n} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "y shorter than x")]
    fn dot_rejects_short_y() {
        let _ = dot_body::<ScalarIsa>(&[0.0; 9], &[0.0; 8]);
    }
}
