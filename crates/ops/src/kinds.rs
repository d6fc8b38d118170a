//! The five operation kinds and their standard instances (paper Table II).
//!
//! Each kind is an enum whose variants are the standard operations the
//! reference library ships, plus a `Custom` closure variant mirroring
//! the C implementation's user function pointers. Application code picks
//! one variant per step; the kernel applies them per edge.

use std::fmt;
use std::sync::Arc;

use crate::mlp::Mlp;
use crate::sigmoid::{sigmoid, SigmoidLut};

/// The message produced by the SDDMM phase (VOP→ROP→SOP) for one edge.
///
/// When ROP reduces, the message is a scalar (graph embedding, FR
/// model); when ROP is a NOOP the message stays a `d`-vector (GCN,
/// GNN-with-MLP). The unfused baseline must *store* this per edge —
/// which is exactly the memory the fused kernel saves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message<'a> {
    /// A reduced scalar message.
    Scalar(f32),
    /// An unreduced vector message (borrowed from kernel scratch).
    Vector(&'a [f32]),
}

impl Message<'_> {
    /// The number of f32 values this message occupies when materialized.
    pub fn len(&self) -> usize {
        match self {
            Message::Scalar(_) => 1,
            Message::Vector(v) => v.len(),
        }
    }

    /// True for zero-length vector messages (scalars are never empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Type of user closures for custom VOPs: `f(x, y, a, out)`.
pub type VopFn = dyn Fn(&[f32], &[f32], f32, &mut [f32]) + Send + Sync;
/// Type of user closures for custom ROPs: `f(z) -> s`.
pub type RopFn = dyn Fn(&[f32]) -> f32 + Send + Sync;
/// Type of user closures for custom SOPs: `f(s, a) -> h` applied
/// per element.
pub type SopFn = dyn Fn(f32, f32) -> f32 + Send + Sync;
/// Type of user closures for custom MOPs: `f(h, y, a, out)`.
pub type MopFn = dyn Fn(Message<'_>, &[f32], f32, &mut [f32]) + Send + Sync;
/// Type of user closures for custom AOPs: `f(z_acc, w)`.
pub type AopFn = dyn Fn(&mut [f32], &[f32]) + Send + Sync;

/// Step 1 — VOP: elementwise binary operation on `x_u` and `y_v`
/// producing the intermediate vector `z` (paper: ADD, MUL, SEL2ND rows
/// of Table II; the GNN row needs a user MLP).
#[derive(Clone)]
pub enum VOp {
    /// `z_i = x_i + y_i` (Table II ADD).
    Add,
    /// `z_i = x_i - y_i` — the "addition" instance used by the FR layout
    /// model, whose messages depend on the displacement `x_u - x_v`.
    Sub,
    /// `z_i = x_i * y_i` (Table II MUL) — first half of the dot product.
    Mul,
    /// `z = x` (select first operand).
    Sel1st,
    /// `z = y` (Table II SEL2ND) — GCN selects the neighbor feature.
    Sel2nd,
    /// `z = MLP([x; y])` — the user-provided multilayer perceptron of
    /// the GNN pattern (Table III row 4).
    Mlp(Arc<Mlp>),
    /// Arbitrary user function `f(x, y, a_uv, out)`.
    Custom(Arc<VopFn>),
}

impl VOp {
    /// Apply to one edge: write the intermediate vector into `out`
    /// (length `d`).
    #[inline]
    pub fn apply(&self, x: &[f32], y: &[f32], a: f32, out: &mut [f32]) {
        match self {
            VOp::Add => {
                for ((o, &xi), &yi) in out.iter_mut().zip(x).zip(y) {
                    *o = xi + yi;
                }
            }
            VOp::Sub => {
                for ((o, &xi), &yi) in out.iter_mut().zip(x).zip(y) {
                    *o = xi - yi;
                }
            }
            VOp::Mul => {
                for ((o, &xi), &yi) in out.iter_mut().zip(x).zip(y) {
                    *o = xi * yi;
                }
            }
            VOp::Sel1st => out.copy_from_slice(x),
            VOp::Sel2nd => out.copy_from_slice(y),
            VOp::Mlp(mlp) => mlp.forward(x, y, out),
            VOp::Custom(f) => f(x, y, a, out),
        }
    }
}

impl fmt::Debug for VOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            VOp::Add => "ADD",
            VOp::Sub => "SUB",
            VOp::Mul => "MUL",
            VOp::Sel1st => "SEL1ST",
            VOp::Sel2nd => "SEL2ND",
            VOp::Mlp(_) => "MLP",
            VOp::Custom(_) => "CUSTOM",
        };
        f.write_str(name)
    }
}

/// Step 2 — ROP: reduce the intermediate vector to a scalar, or skip
/// reduction entirely with [`ROp::Noop`] (GCN, GNN-MLP keep the vector).
#[derive(Clone)]
pub enum ROp {
    /// `s = Σ_i z_i` (Table II RSUM) — completes the dot product.
    Sum,
    /// `s = Π_i z_i` (Table II RMUL).
    Prod,
    /// `s = ‖z‖₂` — the NORM reduction used by the FR layout model.
    Norm,
    /// `s = max_i z_i`.
    Max,
    /// No reduction; the message stays a vector.
    Noop,
    /// Arbitrary user reduction.
    Custom(Arc<RopFn>),
}

impl ROp {
    /// Apply the reduction. Returns `None` for [`ROp::Noop`].
    #[inline]
    pub fn apply(&self, z: &[f32]) -> Option<f32> {
        match self {
            ROp::Sum => Some(z.iter().sum()),
            ROp::Prod => Some(z.iter().product()),
            ROp::Norm => Some(z.iter().map(|&v| v * v).sum::<f32>().sqrt()),
            ROp::Max => Some(z.iter().copied().fold(f32::NEG_INFINITY, f32::max)),
            ROp::Noop => None,
            ROp::Custom(f) => Some(f(z)),
        }
    }

    /// True when this ROP keeps the message a vector.
    pub fn is_noop(&self) -> bool {
        matches!(self, ROp::Noop)
    }
}

impl fmt::Debug for ROp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ROp::Sum => "RSUM",
            ROp::Prod => "RMUL",
            ROp::Norm => "NORM",
            ROp::Max => "RMAX",
            ROp::Noop => "NOOP",
            ROp::Custom(_) => "CUSTOM",
        })
    }
}

/// Step 3 — SOP: scale the message with a linear or nonlinear unary
/// function (Table II SIGMOID and SCAL). Applied to the reduced scalar,
/// or elementwise to the vector when ROP was a NOOP.
#[derive(Clone)]
pub enum SOp {
    /// Exact logistic sigmoid.
    Sigmoid,
    /// Table-lookup sigmoid (the Force2Vec fast path).
    SigmoidLut(Arc<SigmoidLut>),
    /// `h = σ(s) − a_uv` — the noise-contrastive gradient scale, with
    /// the edge value as the label: 1 for a true neighbour (attract,
    /// `σ(s) − 1`), 0 for a sampled negative (repel, `σ(s)`). One
    /// labelled adjacency then carries both terms of the
    /// VERSE/Force2Vec gradient through one kernel pass.
    SigmoidMinusEdge,
    /// [`SOp::SigmoidMinusEdge`] with the table-lookup sigmoid.
    SigmoidLutMinusEdge(Arc<SigmoidLut>),
    /// `h = α · s` (Table II SCAL).
    Scale(f32),
    /// `h = a_uv · s` — scale by the edge feature, letting weighted
    /// graphs inject `a_uv` into the message.
    ScaleByEdge,
    /// `h = max(0, s)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Student-t kernel `h = 1 / (1 + s²)` — the t-distribution
    /// similarity Force2Vec offers beside the sigmoid (applied to the
    /// NORM of the endpoint displacement).
    TDist,
    /// Identity (NOOP).
    Noop,
    /// Arbitrary user function `f(s, a_uv)`.
    Custom(Arc<SopFn>),
}

impl SOp {
    /// Apply to a scalar message.
    #[inline]
    pub fn apply_scalar(&self, s: f32, a: f32) -> f32 {
        match self {
            SOp::Sigmoid => sigmoid(s),
            SOp::SigmoidLut(lut) => lut.eval(s),
            SOp::SigmoidMinusEdge => sigmoid(s) - a,
            SOp::SigmoidLutMinusEdge(lut) => lut.eval(s) - a,
            SOp::Scale(alpha) => alpha * s,
            SOp::ScaleByEdge => a * s,
            SOp::Relu => s.max(0.0),
            SOp::Tanh => s.tanh(),
            SOp::TDist => 1.0 / (1.0 + s * s),
            SOp::Noop => s,
            SOp::Custom(f) => f(s, a),
        }
    }

    /// Apply elementwise to a vector message (in place).
    #[inline]
    pub fn apply_vec(&self, z: &mut [f32], a: f32) {
        match self {
            SOp::Noop => {}
            _ => {
                for v in z.iter_mut() {
                    *v = self.apply_scalar(*v, a);
                }
            }
        }
    }

    /// True when this SOP is the identity.
    pub fn is_noop(&self) -> bool {
        matches!(self, SOp::Noop)
    }
}

impl fmt::Debug for SOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SOp::Sigmoid => "SIGMOID",
            SOp::SigmoidLut(_) => "SIGMOID_LUT",
            SOp::SigmoidMinusEdge => "SIGMOID_MINUS_EDGE",
            SOp::SigmoidLutMinusEdge(_) => "SIGMOID_LUT_MINUS_EDGE",
            SOp::Scale(_) => "SCAL",
            SOp::ScaleByEdge => "SCAL_EDGE",
            SOp::Relu => "RELU",
            SOp::Tanh => "TANH",
            SOp::TDist => "TDIST",
            SOp::Noop => "NOOP",
            SOp::Custom(_) => "CUSTOM",
        })
    }
}

/// Step 4 — MOP: combine the message with the neighbor feature vector,
/// producing the vector to accumulate (Table II MUL, SEL2ND rows).
#[derive(Clone)]
pub enum MOp {
    /// Scalar message: `w = h · y` (scale the neighbor feature — graph
    /// embedding and FR). Vector message: `w = a_uv · h` (scale the
    /// message by the edge feature — the paper's GCN row, "the message
    /// aggregation in GCN multiplies messages by edge features").
    Mul,
    /// `w = y` regardless of the message.
    Sel2nd,
    /// `w = h` (vector message passed through; scalar broadcast).
    Noop,
    /// Arbitrary user function `f(h, y, a_uv, out)`.
    Custom(Arc<MopFn>),
}

impl MOp {
    /// Apply to one edge: write the aggregation operand into `out`.
    #[inline]
    pub fn apply(&self, h: Message<'_>, y: &[f32], a: f32, out: &mut [f32]) {
        match self {
            MOp::Mul => match h {
                Message::Scalar(s) => {
                    for (o, &yi) in out.iter_mut().zip(y) {
                        *o = s * yi;
                    }
                }
                Message::Vector(hv) => {
                    for (o, &hi) in out.iter_mut().zip(hv) {
                        *o = a * hi;
                    }
                }
            },
            MOp::Sel2nd => out.copy_from_slice(y),
            MOp::Noop => match h {
                Message::Scalar(s) => out.fill(s),
                Message::Vector(hv) => out.copy_from_slice(hv),
            },
            MOp::Custom(f) => f(h, y, a, out),
        }
    }
}

impl fmt::Debug for MOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MOp::Mul => "MUL",
            MOp::Sel2nd => "SEL2ND",
            MOp::Noop => "NOOP",
            MOp::Custom(_) => "CUSTOM",
        })
    }
}

/// Step 5 — AOP: accumulate the per-edge vector into the output row
/// (Table II ASUM, AMAX rows; MIN/mean variants cover the pooling
/// options of GCN variants the paper mentions).
#[derive(Clone)]
pub enum AOp {
    /// `z ← z + w` (ASUM).
    Sum,
    /// `z ← max(z, w)` elementwise (AMAX). Identity is `-∞`, so outputs
    /// of isolated vertices are defined by [`AOp::identity`].
    Max,
    /// `z ← min(z, w)` elementwise.
    Min,
    /// Arbitrary user function.
    Custom(Arc<AopFn>),
}

impl AOp {
    /// Apply the accumulation in place.
    #[inline]
    pub fn apply(&self, z: &mut [f32], w: &[f32]) {
        match self {
            AOp::Sum => {
                for (zi, &wi) in z.iter_mut().zip(w) {
                    *zi += wi;
                }
            }
            AOp::Max => {
                for (zi, &wi) in z.iter_mut().zip(w) {
                    *zi = zi.max(wi);
                }
            }
            AOp::Min => {
                for (zi, &wi) in z.iter_mut().zip(w) {
                    *zi = zi.min(wi);
                }
            }
            AOp::Custom(f) => f(z, w),
        }
    }

    /// The identity element this accumulator's output rows must be
    /// initialized with (0 for sum, ∓∞ for max/min). Custom AOPs default
    /// to 0 and may re-initialize rows themselves. Rows of vertices with
    /// no neighbors are reset to 0 after aggregation so isolated
    /// vertices produce zero vectors (not infinities).
    pub fn identity(&self) -> f32 {
        match self {
            AOp::Sum => 0.0,
            AOp::Max => f32::NEG_INFINITY,
            AOp::Min => f32::INFINITY,
            AOp::Custom(_) => 0.0,
        }
    }
}

impl fmt::Debug for AOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AOp::Sum => "ASUM",
            AOp::Max => "AMAX",
            AOp::Min => "AMIN",
            AOp::Custom(_) => "CUSTOM",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vop_standard_ops() {
        let x = [1.0, 2.0, 3.0];
        let y = [10.0, 20.0, 30.0];
        let mut out = [0.0; 3];
        VOp::Add.apply(&x, &y, 1.0, &mut out);
        assert_eq!(out, [11.0, 22.0, 33.0]);
        VOp::Sub.apply(&x, &y, 1.0, &mut out);
        assert_eq!(out, [-9.0, -18.0, -27.0]);
        VOp::Mul.apply(&x, &y, 1.0, &mut out);
        assert_eq!(out, [10.0, 40.0, 90.0]);
        VOp::Sel1st.apply(&x, &y, 1.0, &mut out);
        assert_eq!(out, x);
        VOp::Sel2nd.apply(&x, &y, 1.0, &mut out);
        assert_eq!(out, y);
    }

    #[test]
    fn vop_custom_sees_edge_value() {
        let v = VOp::Custom(Arc::new(|x, _y, a, out| {
            for (o, &xi) in out.iter_mut().zip(x) {
                *o = a * xi;
            }
        }));
        let mut out = [0.0; 2];
        v.apply(&[1.0, 2.0], &[0.0, 0.0], 3.0, &mut out);
        assert_eq!(out, [3.0, 6.0]);
    }

    #[test]
    fn rop_reductions() {
        let z = [3.0, 4.0];
        assert_eq!(ROp::Sum.apply(&z), Some(7.0));
        assert_eq!(ROp::Prod.apply(&z), Some(12.0));
        assert_eq!(ROp::Norm.apply(&z), Some(5.0));
        assert_eq!(ROp::Max.apply(&z), Some(4.0));
        assert_eq!(ROp::Noop.apply(&z), None);
        assert!(ROp::Noop.is_noop());
        assert!(!ROp::Sum.is_noop());
    }

    #[test]
    fn sop_scalar_and_vector() {
        assert_eq!(SOp::Scale(2.0).apply_scalar(3.0, 0.0), 6.0);
        assert_eq!(SOp::ScaleByEdge.apply_scalar(3.0, 4.0), 12.0);
        assert_eq!(SOp::Relu.apply_scalar(-1.0, 0.0), 0.0);
        assert!((SOp::Sigmoid.apply_scalar(0.0, 0.0) - 0.5).abs() < 1e-7);
        let mut v = [1.0, -1.0];
        SOp::Relu.apply_vec(&mut v, 0.0);
        assert_eq!(v, [1.0, 0.0]);
        let mut w = [1.0, -1.0];
        SOp::Noop.apply_vec(&mut w, 0.0);
        assert_eq!(w, [1.0, -1.0]);
    }

    #[test]
    fn sop_sigmoid_minus_edge_reads_the_label() {
        // Label 1 attracts (σ − 1 < 0), label 0 repels (σ > 0).
        assert_eq!(SOp::SigmoidMinusEdge.apply_scalar(0.3, 1.0), sigmoid(0.3) - 1.0);
        assert_eq!(SOp::SigmoidMinusEdge.apply_scalar(0.3, 0.0), sigmoid(0.3));
        let table = Arc::new(SigmoidLut::default_table());
        let lut = SOp::SigmoidLutMinusEdge(Arc::clone(&table));
        assert_eq!(lut.apply_scalar(-0.7, 1.0), table.eval(-0.7) - 1.0);
        assert_eq!(format!("{:?}", SOp::SigmoidMinusEdge), "SIGMOID_MINUS_EDGE");
    }

    #[test]
    fn sop_lut_close_to_exact() {
        let lut = SOp::SigmoidLut(Arc::new(SigmoidLut::default_table()));
        for s in [-4.0f32, -1.0, 0.0, 0.5, 3.0] {
            assert!((lut.apply_scalar(s, 0.0) - sigmoid(s)).abs() < 1e-3);
        }
    }

    #[test]
    fn mop_scalar_scales_neighbor() {
        let y = [1.0, 2.0];
        let mut out = [0.0; 2];
        MOp::Mul.apply(Message::Scalar(3.0), &y, 1.0, &mut out);
        assert_eq!(out, [3.0, 6.0]);
    }

    #[test]
    fn mop_vector_scales_by_edge() {
        let h = [5.0, 6.0];
        let y = [1.0, 2.0];
        let mut out = [0.0; 2];
        MOp::Mul.apply(Message::Vector(&h), &y, 0.5, &mut out);
        assert_eq!(out, [2.5, 3.0]);
    }

    #[test]
    fn mop_noop_passthrough() {
        let mut out = [0.0; 2];
        MOp::Noop.apply(Message::Vector(&[7.0, 8.0]), &[0.0, 0.0], 1.0, &mut out);
        assert_eq!(out, [7.0, 8.0]);
        MOp::Noop.apply(Message::Scalar(4.0), &[0.0, 0.0], 1.0, &mut out);
        assert_eq!(out, [4.0, 4.0]);
    }

    #[test]
    fn aop_accumulators() {
        let mut z = [1.0, 5.0];
        AOp::Sum.apply(&mut z, &[2.0, 2.0]);
        assert_eq!(z, [3.0, 7.0]);
        AOp::Max.apply(&mut z, &[10.0, 0.0]);
        assert_eq!(z, [10.0, 7.0]);
        AOp::Min.apply(&mut z, &[-1.0, 100.0]);
        assert_eq!(z, [-1.0, 7.0]);
    }

    #[test]
    fn aop_identities() {
        assert_eq!(AOp::Sum.identity(), 0.0);
        assert_eq!(AOp::Max.identity(), f32::NEG_INFINITY);
        assert_eq!(AOp::Min.identity(), f32::INFINITY);
    }

    #[test]
    fn message_len() {
        assert_eq!(Message::Scalar(1.0).len(), 1);
        assert_eq!(Message::Vector(&[1.0, 2.0, 3.0]).len(), 3);
        assert!(!Message::Scalar(0.0).is_empty());
    }

    #[test]
    fn debug_names_match_table_ii() {
        assert_eq!(format!("{:?}", VOp::Mul), "MUL");
        assert_eq!(format!("{:?}", ROp::Sum), "RSUM");
        assert_eq!(format!("{:?}", SOp::Sigmoid), "SIGMOID");
        assert_eq!(format!("{:?}", MOp::Sel2nd), "SEL2ND");
        assert_eq!(format!("{:?}", AOp::Max), "AMAX");
    }
}
