//! Generated, pattern-specialized register-blocked kernels.
//!
//! §IV of the paper: when the five steps match a predefined pattern, the
//! library dispatches to a kernel where the steps are fused into
//! straight-line SIMD code with no intermediate stores — `z_u`
//! accumulates in registers across the whole neighbor loop and is
//! written to memory exactly once per panel (Fig. 5). The reference
//! implementation generates such kernels per (pattern × dimension ×
//! ISA) with the `extract` metalanguage tool and tunes the blocking
//! factor offline. Here there is **one** kernel family, [`table`]: every
//! pattern's row body written once over the [`crate::simd`] ISA
//! abstraction, monomorphized per SIMD
//! [`Backend`](crate::simd::Backend) (AVX-512 / AVX2+FMA / NEON /
//! scalar) and per [`KernelSpec`] shape (main-pass panel count),
//! accepting any `d ≥ 1` through a fused masked-tail panel. Which shape
//! a launch runs is a pure function of `(d, backend)` —
//! [`KernelSpec::default_for`].
//!
//! This module holds what the family's callers share: the kernel
//! fn-pointer types and [`SigmoidKind`].

pub mod table;

use std::sync::Arc;

use fusedmm_ops::{sigmoid, SigmoidLut};
use fusedmm_sparse::dense::Dense;

pub(crate) use table::entry_backend;
pub use table::{
    candidate_specs, embed_spec_kernel, fr_spec_kernel, lookahead, spmm_spec_kernel,
    tdist_spec_kernel, KernelSpec, LOOKAHEAD,
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

/// Row kernel signature for the sigmoid-embedding pattern:
/// `(x_u, cols, vals, ahead, Y, z_u, scores, SOP)`. Like every row
/// kernel in this module it **overwrites** its output row `z_u`: the
/// fold over the neighbors starts from `+0.0`, an empty row stores
/// zeros, and nothing the row held is read. The three SDDMM row kernels
/// share two more operands: `ahead`, the row's look-ahead stream
/// ([`lookahead`]; an empty slice turns the look-ahead off), and `scores`,
/// an optional `cols.len()`-long slice that is overwritten with the
/// ROP's scalar per edge (`x_u · y_v` here, `‖x_u − y_v‖` for FR and
/// t-dist). Neither changes a bit of `z_u`.
pub type EmbedRowKernel =
    fn(&[f32], &[usize], &[f32], &[usize], &Dense, &mut [f32], Option<&mut [f32]>, &SigmoidKind);
/// Row kernel signature for the FR-model pattern (`alpha` = SCAL).
pub type FrRowKernel =
    fn(&[f32], &[usize], &[f32], &[usize], &Dense, &mut [f32], Option<&mut [f32]>, f32);
/// Row kernel signature for the GCN/SpMM pattern.
pub type SpmmRowKernel = fn(&[usize], &[f32], &Dense, &mut [f32]);
/// Row kernel signature for the t-distribution embedding pattern.
pub type TDistRowKernel =
    fn(&[f32], &[usize], &[f32], &[usize], &Dense, &mut [f32], Option<&mut [f32]>);
