//! Generated, pattern-specialized register-blocked kernels.
//!
//! §IV of the paper: when the five steps match a predefined pattern, the
//! library dispatches to a kernel where the steps are fused into
//! straight-line SIMD code with no intermediate stores — `x_u` is loaded
//! into registers once per row, `z_u` accumulates in registers across
//! the whole neighbor loop and is written to memory exactly once
//! (Fig. 5). The reference implementation generates such kernels per
//! (pattern × dimension × ISA) with the `extract` metalanguage tool;
//! here a macro instantiates a const-generic Rust kernel per (pattern ×
//! dimension), and the portable [`crate::simd`] layer supplies the ISA
//! abstraction.
//!
//! Four blocking levels exist per pattern:
//!
//! * `*_row_dyn` — dimension known only at run time; processes the row
//!   in 8-lane strips, `z_u` accumulates in memory (one load+store per
//!   strip per neighbor);
//! * [`strip`] — strip-mined kernels for any `d ≡ 0 (mod 8)`: the
//!   dimension is tiled into register-wide panels whose accumulators
//!   stay in registers across the neighbor loop, covering the
//!   serving-typical d = 48/96/192/384 the const list misses;
//! * [`table`] — **plan-time specialized** kernels: the strip passes
//!   instantiated over a const-generic grid of panel/chunk shapes
//!   ([`table::KernelSpec`]), covering *any* `d ≥ 1` via a fused
//!   masked-tail panel and letting the autotuner pick the best shape
//!   per `(pattern, d, backend)` when a plan is built;
//! * `*_row_const::<D>` — dimension fixed at compile time; `x_u` and
//!   `z_u` live in fixed-size stack arrays that LLVM promotes to
//!   registers, giving the paper's register-blocking (the win measured
//!   by the `register_blocking` ablation bench).
//!
//! The dyn, strip, and table families are additionally monomorphized
//! per SIMD [`Backend`](crate::simd::Backend) (AVX-512 / AVX2+FMA /
//! NEON / scalar); the const family relies on LLVM autovectorization
//! of the portable [`crate::simd`] layer.

pub mod strip;
pub mod table;

use std::sync::Arc;

use fusedmm_ops::{sigmoid, SigmoidLut};
use fusedmm_sparse::dense::Dense;

use crate::simd::{active_backend, F32x8, VLEN};

pub use strip::{
    embed_batch_kernel, embed_dyn_kernel, embed_msg_kernel, embed_strip_kernel, fr_batch_kernel,
    fr_dyn_kernel, fr_msg_kernel, fr_strip_kernel, span_sweep_kernel, spmm_batch_kernel,
    spmm_dyn_kernel, spmm_strip_kernel, strip_minable, tdist_batch_kernel, tdist_dyn_kernel,
    tdist_msg_kernel, tdist_strip_kernel,
};
pub use table::{
    candidate_specs, embed_spec_batch_kernel, embed_spec_kernel, fr_spec_batch_kernel,
    fr_spec_kernel, span_spec_kernel, spmm_spec_batch_kernel, spmm_spec_kernel,
    tdist_spec_batch_kernel, tdist_spec_kernel, KernelSpec,
};

/// Which SOP the embedding kernels apply to the dot product: a sigmoid
/// (exact or table lookup), optionally minus the edge value — the
/// labelled NCE-gradient scale of
/// [`SOp::SigmoidMinusEdge`](fusedmm_ops::SOp::SigmoidMinusEdge).
#[derive(Debug, Clone)]
pub enum SigmoidKind {
    /// Exact `1/(1+e^{-x})` — matches the generic kernel bit-for-bit.
    Exact,
    /// Table lookup (the optimized kernels' default, as in Force2Vec).
    Lut(Arc<SigmoidLut>),
    /// Exact sigmoid minus the edge value, `σ(s) − a_uv`.
    ExactMinusEdge,
    /// Table-lookup sigmoid minus the edge value.
    LutMinusEdge(Arc<SigmoidLut>),
}

impl SigmoidKind {
    /// The message for one edge: dot product `s`, edge value `a`.
    #[inline(always)]
    fn eval(&self, s: f32, a: f32) -> f32 {
        match self {
            SigmoidKind::Exact => sigmoid(s),
            SigmoidKind::Lut(lut) => lut.eval(s),
            SigmoidKind::ExactMinusEdge => sigmoid(s) - a,
            SigmoidKind::LutMinusEdge(lut) => lut.eval(s) - a,
        }
    }
}

/// Row kernel signature for the sigmoid-embedding pattern. Like every
/// row kernel in this module it **overwrites** its output row (the last
/// `&mut [f32]`): the fold over the neighbors starts from `+0.0`, an
/// empty row stores zeros, and nothing the row held is read.
pub type EmbedRowKernel = fn(&[f32], &[usize], &[f32], &Dense, &mut [f32], &SigmoidKind);
/// Row kernel signature for the FR-model pattern (`alpha` = SCAL).
pub type FrRowKernel = fn(&[f32], &[usize], &[f32], &Dense, &mut [f32], f32);
/// Row kernel signature for the GCN/SpMM pattern.
pub type SpmmRowKernel = fn(&[usize], &[f32], &Dense, &mut [f32]);
/// Row kernel signature for the t-distribution embedding pattern.
pub type TDistRowKernel = fn(&[f32], &[usize], &[f32], &Dense, &mut [f32]);

/// One short row gathered into a batch for the hybrid dispatcher's
/// short-row class: the row's `x` slice, its neighbor list, edge values,
/// and where in the output band the row's `z` slice lives.
#[derive(Debug, Clone, Copy)]
pub struct GatheredRow<'a> {
    /// Feature row `x_u` of the batched row.
    pub xu: &'a [f32],
    /// Neighbor column ids of the row.
    pub cols: &'a [usize],
    /// Edge values aligned with `cols`.
    pub vals: &'a [f32],
    /// Row index *within the output band* (`z` offset is `band_row * d`).
    pub band_row: usize,
}

/// Batched short-row kernel for the embedding pattern: several gathered
/// rows share one SIMD sweep over a common message buffer.
pub type EmbedBatchKernel = fn(&[GatheredRow<'_>], &Dense, &mut [f32], &SigmoidKind);
/// Batched short-row kernel for the FR pattern.
pub type FrBatchKernel = fn(&[GatheredRow<'_>], &Dense, &mut [f32], f32);
/// Batched short-row kernel for the t-distribution pattern.
pub type TDistBatchKernel = fn(&[GatheredRow<'_>], &Dense, &mut [f32]);
/// Batched short-row kernel for the SpMM pattern.
pub type SpmmBatchKernel = fn(&[GatheredRow<'_>], &Dense, &mut [f32]);

/// Message-fill kernel for the embedding pattern (mega-row phase A):
/// computes `h[i] = sop(x_u · y_{cols[i]}, vals[i])` for a column slice
/// and its edge values.
pub type EmbedMsgKernel = fn(&[f32], &[usize], &[f32], &Dense, &SigmoidKind, &mut [f32]);
/// Message-fill kernel for the FR pattern.
pub type FrMsgKernel = fn(&[f32], &[usize], &Dense, f32, &mut [f32]);
/// Message-fill kernel for the t-distribution pattern.
pub type TDistMsgKernel = fn(&[f32], &[usize], &Dense, &mut [f32]);
/// Column-span sweep kernel (mega-row phase B): folds *all* neighbor
/// messages into one VLEN-aligned span `z[span_off .. span_off + w)` of
/// the output row, in original neighbor order, overwriting the span.
/// Splitting `d` into spans keeps the per-element accumulation order
/// identical to the strip kernel while letting threads own disjoint
/// spans.
pub type SpanSweepKernel = fn(&[usize], &[f32], &Dense, &mut [f32], usize);

// ---------------------------------------------------------------------------
// Dynamic-dimension kernels (8-lane strips, z_u in memory)
// ---------------------------------------------------------------------------
//
// These are thin fronts over the ISA-monomorphized entries in
// [`strip`]: each resolves the active backend once per row. The
// dispatcher avoids even that by calling the `*_dyn_kernel(backend)`
// selectors once per launch.

/// Embedding, dynamic d: `z_u = Σ_v σ(x_u·y_v) · y_v`.
pub fn embed_row_dyn(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    sk: &SigmoidKind,
) {
    embed_dyn_kernel(active_backend())(xu, cols, vals, y, zu, sk)
}

/// FR model, dynamic d: `z_u = Σ_v α·‖x_u − y_v‖ · y_v`.
pub fn fr_row_dyn(xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], alpha: f32) {
    fr_dyn_kernel(active_backend())(xu, cols, vals, y, zu, alpha)
}

/// GCN/SpMM, dynamic d: `z_u = Σ_v a_uv · y_v`.
pub fn spmm_row_dyn(cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]) {
    spmm_dyn_kernel(active_backend())(cols, vals, y, zu)
}

/// t-distribution embedding, dynamic d:
/// `z_u = Σ_v y_v / (1 + ‖x_u − y_v‖²)`. The squared distance
/// feeds the rational kernel directly — no square root needed.
pub fn tdist_row_dyn(xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]) {
    tdist_dyn_kernel(active_backend())(xu, cols, vals, y, zu)
}

// ---------------------------------------------------------------------------
// Const-dimension kernels (register blocking, z_u stored once per row)
// ---------------------------------------------------------------------------

/// Embedding with compile-time dimension: the Fig. 5 kernel. `x_u` is
/// copied into a fixed-size block once, `z_u` accumulates in a
/// fixed-size block for the entire neighbor loop and is stored once.
pub fn embed_row_const<const D: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    sk: &SigmoidKind,
) {
    debug_assert_eq!(xu.len(), D);
    assert_eq!(cols.len(), vals.len(), "one edge value per neighbor");
    let mut xreg = [0f32; D];
    xreg.copy_from_slice(xu);
    let mut zreg = [0f32; D];
    for (&v, &a) in cols.iter().zip(vals) {
        let yv = y.row(v);
        // VOP+ROP: dot product over the fixed block (fully unrolled).
        let mut acc = F32x8::zero();
        let mut k = 0;
        while k + VLEN <= D {
            acc = acc.fma(F32x8::load(&xreg[k..]), F32x8::load(&yv[k..]));
            k += VLEN;
        }
        let mut s = acc.hsum();
        while k < D {
            s += xreg[k] * yv[k];
            k += 1;
        }
        // SOP + broadcast.
        let h = F32x8::splat(sk.eval(s, a));
        // MOP+AOP: fused multiply-accumulate into the register block.
        let mut k = 0;
        while k + VLEN <= D {
            let z = F32x8::load(&zreg[k..]).fma(h, F32x8::load(&yv[k..]));
            z.store(&mut zreg[k..]);
            k += VLEN;
        }
        while k < D {
            zreg[k] += h.0[0] * yv[k];
            k += 1;
        }
    }
    // Single store of z_u ("non-temporal memory write" in Fig. 5).
    zu.copy_from_slice(&zreg);
}

/// FR model with compile-time dimension.
pub fn fr_row_const<const D: usize>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    alpha: f32,
) {
    debug_assert_eq!(xu.len(), D);
    let mut xreg = [0f32; D];
    xreg.copy_from_slice(xu);
    let mut zreg = [0f32; D];
    for &v in cols {
        let yv = y.row(v);
        let mut acc = F32x8::zero();
        let mut k = 0;
        while k + VLEN <= D {
            let dvec = F32x8::load(&xreg[k..]).sub(F32x8::load(&yv[k..]));
            acc = acc.fma(dvec, dvec);
            k += VLEN;
        }
        let mut s = acc.hsum();
        while k < D {
            let dv = xreg[k] - yv[k];
            s += dv * dv;
            k += 1;
        }
        let h = F32x8::splat(alpha * s.sqrt());
        let mut k = 0;
        while k + VLEN <= D {
            let z = F32x8::load(&zreg[k..]).fma(h, F32x8::load(&yv[k..]));
            z.store(&mut zreg[k..]);
            k += VLEN;
        }
        while k < D {
            zreg[k] += h.0[0] * yv[k];
            k += 1;
        }
    }
    zu.copy_from_slice(&zreg);
}

/// t-distribution embedding with compile-time dimension.
pub fn tdist_row_const<const D: usize>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    debug_assert_eq!(xu.len(), D);
    let mut xreg = [0f32; D];
    xreg.copy_from_slice(xu);
    let mut zreg = [0f32; D];
    for &v in cols {
        let yv = y.row(v);
        let mut acc = F32x8::zero();
        let mut k = 0;
        while k + VLEN <= D {
            let dvec = F32x8::load(&xreg[k..]).sub(F32x8::load(&yv[k..]));
            acc = acc.fma(dvec, dvec);
            k += VLEN;
        }
        let mut s = acc.hsum();
        while k < D {
            let dv = xreg[k] - yv[k];
            s += dv * dv;
            k += 1;
        }
        let h = F32x8::splat(1.0 / (1.0 + s));
        let mut k = 0;
        while k + VLEN <= D {
            let z = F32x8::load(&zreg[k..]).fma(h, F32x8::load(&yv[k..]));
            z.store(&mut zreg[k..]);
            k += VLEN;
        }
        while k < D {
            zreg[k] += h.0[0] * yv[k];
            k += 1;
        }
    }
    zu.copy_from_slice(&zreg);
}

/// GCN/SpMM with compile-time dimension.
pub fn spmm_row_const<const D: usize>(cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]) {
    let mut zreg = [0f32; D];
    for (&v, &a) in cols.iter().zip(vals) {
        let yv = y.row(v);
        let av = F32x8::splat(a);
        let mut k = 0;
        while k + VLEN <= D {
            let z = F32x8::load(&zreg[k..]).fma(av, F32x8::load(&yv[k..]));
            z.store(&mut zreg[k..]);
            k += VLEN;
        }
        while k < D {
            zreg[k] += a * yv[k];
            k += 1;
        }
    }
    zu.copy_from_slice(&zreg);
}

// ---------------------------------------------------------------------------
// The "code generator": instantiate const kernels per benchmark dimension
// ---------------------------------------------------------------------------

macro_rules! generate_kernels {
    ($($d:literal),+ $(,)?) => {
        /// Dimensions with compiled const-generic specializations — the
        /// Rust analogue of the basefile-driven kernel generation list.
        pub const GENERATED_DIMS: &[usize] = &[$($d),+];

        /// Look up the generated embedding kernel for dimension `d`.
        pub fn embed_kernel_for(d: usize) -> Option<EmbedRowKernel> {
            match d {
                $( $d => Some(embed_row_const::<$d>), )+
                _ => None,
            }
        }

        /// Look up the generated FR kernel for dimension `d`.
        pub fn fr_kernel_for(d: usize) -> Option<FrRowKernel> {
            match d {
                $( $d => Some(fr_row_const::<$d>), )+
                _ => None,
            }
        }

        /// Look up the generated SpMM kernel for dimension `d`.
        pub fn spmm_kernel_for(d: usize) -> Option<SpmmRowKernel> {
            match d {
                $( $d => Some(spmm_row_const::<$d>), )+
                _ => None,
            }
        }

        /// Look up the generated t-distribution kernel for dimension `d`.
        pub fn tdist_kernel_for(d: usize) -> Option<TDistRowKernel> {
            match d {
                $( $d => Some(tdist_row_const::<$d>), )+
                _ => None,
            }
        }
    };
}

// The paper's benchmark dimensions {32..512} plus small dims used by the
// examples and by Fig. 10(b)'s d=16 point, and 1024 for Fig. 11(b).
generate_kernels!(8, 16, 32, 64, 128, 256, 512, 1024);

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_ops::sigmoid;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use fusedmm_sparse::csr::Csr;

    fn star(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for v in 1..n {
            c.push(0, v, 0.5 + v as f32 * 0.1);
        }
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 31 + c * 7) as f32 * 0.01 + seed).sin() * 0.5)
    }

    #[test]
    fn embed_dyn_matches_scalar_reference() {
        let a = star(6);
        for d in [4usize, 8, 12, 32] {
            let x = feats(6, d, 0.1);
            let y = feats(6, d, 0.7);
            let (cols, vals) = a.row(0);
            let mut z = vec![0f32; d];
            embed_row_dyn(x.row(0), cols, vals, &y, &mut z, &SigmoidKind::Exact);
            // scalar reference
            let mut zr = vec![0f32; d];
            for &v in cols {
                let s: f32 = x.row(0).iter().zip(y.row(v)).map(|(a, b)| a * b).sum();
                let h = sigmoid(s);
                for (o, &yv) in zr.iter_mut().zip(y.row(v)) {
                    *o += h * yv;
                }
            }
            for k in 0..d {
                assert!((z[k] - zr[k]).abs() < 1e-4, "d={d} k={k}: {} vs {}", z[k], zr[k]);
            }
        }
    }

    #[test]
    fn embed_const_matches_dyn() {
        let a = star(10);
        let d = 32;
        let x = feats(10, d, 0.3);
        let y = feats(10, d, 0.9);
        let (cols, vals) = a.row(0);
        let mut z_dyn = vec![0f32; d];
        let mut z_const = vec![0f32; d];
        embed_row_dyn(x.row(0), cols, vals, &y, &mut z_dyn, &SigmoidKind::Exact);
        embed_row_const::<32>(x.row(0), cols, vals, &y, &mut z_const, &SigmoidKind::Exact);
        for k in 0..d {
            assert!((z_dyn[k] - z_const[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn fr_const_matches_dyn() {
        let a = star(8);
        let d = 16;
        let x = feats(8, d, 0.2);
        let y = feats(8, d, 0.4);
        let (cols, vals) = a.row(0);
        let mut z_dyn = vec![0f32; d];
        let mut z_const = vec![0f32; d];
        fr_row_dyn(x.row(0), cols, vals, &y, &mut z_dyn, 0.7);
        fr_row_const::<16>(x.row(0), cols, vals, &y, &mut z_const, 0.7);
        for k in 0..d {
            assert!((z_dyn[k] - z_const[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn tdist_const_matches_dyn() {
        let a = star(8);
        let d = 16;
        let x = feats(8, d, 0.25);
        let y = feats(8, d, 0.45);
        let (cols, vals) = a.row(0);
        let mut z_dyn = vec![0f32; d];
        let mut z_const = vec![0f32; d];
        tdist_row_dyn(x.row(0), cols, vals, &y, &mut z_dyn);
        tdist_row_const::<16>(x.row(0), cols, vals, &y, &mut z_const);
        for k in 0..d {
            assert!((z_dyn[k] - z_const[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn tdist_messages_bounded_by_one() {
        // h = 1/(1+s) with s >= 0, so each edge contributes at most y_v.
        let a = star(5);
        let d = 8;
        let x = feats(5, d, 0.1);
        let y = Dense::filled(5, d, 1.0);
        let mut z = vec![0f32; d];
        tdist_row_dyn(x.row(0), a.row(0).0, a.row(0).1, &y, &mut z);
        let degree = a.row_nnz(0) as f32;
        assert!(z.iter().all(|&v| v > 0.0 && v <= degree));
    }

    #[test]
    fn spmm_const_matches_dyn_with_weights() {
        let a = star(8);
        let d = 8;
        let y = feats(8, d, 0.6);
        let (cols, vals) = a.row(0);
        let mut z_dyn = vec![0f32; d];
        let mut z_const = vec![0f32; d];
        spmm_row_dyn(cols, vals, &y, &mut z_dyn);
        spmm_row_const::<8>(cols, vals, &y, &mut z_const);
        for k in 0..d {
            assert!((z_dyn[k] - z_const[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn generated_dim_lookup() {
        assert!(embed_kernel_for(128).is_some());
        assert!(fr_kernel_for(512).is_some());
        assert!(spmm_kernel_for(64).is_some());
        assert!(tdist_kernel_for(128).is_some());
        assert!(embed_kernel_for(100).is_none());
        assert!(tdist_kernel_for(100).is_none());
        assert!(GENERATED_DIMS.contains(&256));
    }

    #[test]
    fn lut_sigmoid_close_to_exact_in_kernel() {
        let a = star(5);
        let d = 16;
        let x = feats(5, d, 0.1);
        let y = feats(5, d, 0.2);
        let (cols, vals) = a.row(0);
        let mut z_exact = vec![0f32; d];
        let mut z_lut = vec![0f32; d];
        embed_row_dyn(x.row(0), cols, vals, &y, &mut z_exact, &SigmoidKind::Exact);
        let lut = SigmoidKind::Lut(Arc::new(SigmoidLut::default_table()));
        embed_row_dyn(x.row(0), cols, vals, &y, &mut z_lut, &lut);
        for k in 0..d {
            assert!((z_exact[k] - z_lut[k]).abs() < 5e-3);
        }
    }

    #[test]
    fn empty_row_leaves_zero() {
        let d = 8;
        let y = feats(4, d, 0.5);
        let mut z = vec![0f32; d];
        embed_row_const::<8>(&[0.0; 8], &[], &[], &y, &mut z, &SigmoidKind::Exact);
        assert!(z.iter().all(|&v| v == 0.0));
    }
}
