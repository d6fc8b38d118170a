//! Operator bundles and the application presets of Table III.

use std::sync::Arc;

use crate::kinds::{AOp, MOp, ROp, SOp, VOp};
use crate::mlp::Mlp;
use crate::sigmoid::SigmoidLut;

/// Which well-known computational pattern an [`OpSet`] corresponds to.
///
/// The optimized library (paper §IV) "recognizes a pattern from
/// predefined VOP, ROP, SOP, MOP, and AOP operations" and dispatches to
/// a specialized kernel. This enum is that recognition result; kernels
/// without a specialization run through the generic five-step path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// `(MUL, RSUM, SIGMOID, MUL, ASUM)` — sigmoid graph embedding
    /// (VERSE, Force2Vec; Table III row 2).
    SigmoidEmbedding,
    /// `(SUB, NORM, SCAL, MUL, ASUM)` — Fruchterman–Reingold force
    /// model (Table III row 1).
    FrModel,
    /// `(SUB, NORM, TDIST, MUL, ASUM)` — t-distribution graph
    /// embedding, the second similarity measure of Force2Vec.
    TDistEmbedding,
    /// `(SEL2ND, NOOP, NOOP, MUL, ASUM)` — graph convolution; the pure
    /// SpMM specialization (Table III row 3).
    Gcn,
    /// `(MLP, NOOP, SIGMOID, MUL, AMAX)` — GNN with MLP messages
    /// (Table III row 4).
    GnnMlp,
    /// Anything else: handled by the generic kernel only.
    Custom,
}

impl Pattern {
    /// Short name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::SigmoidEmbedding => "embedding",
            Pattern::FrModel => "fr",
            Pattern::TDistEmbedding => "tdist",
            Pattern::Gcn => "gcn",
            Pattern::GnnMlp => "gnn-mlp",
            Pattern::Custom => "custom",
        }
    }
}

/// One operation per FusedMM step, plus the recognized [`Pattern`].
///
/// Construct presets with the associated functions, or assemble any
/// combination by hand (pattern [`Pattern::Custom`]).
#[derive(Debug, Clone)]
pub struct OpSet {
    /// Step 1: elementwise binary op.
    pub vop: VOp,
    /// Step 2: reduction (or NOOP).
    pub rop: ROp,
    /// Step 3: scaling (or NOOP).
    pub sop: SOp,
    /// Step 4: message × neighbor feature.
    pub mop: MOp,
    /// Step 5: accumulation.
    pub aop: AOp,
    /// The recognized pattern; drives specialized-kernel dispatch.
    pub pattern: Pattern,
}

impl OpSet {
    /// Assemble a custom operator set (no specialized kernel).
    pub fn custom(vop: VOp, rop: ROp, sop: SOp, mop: MOp, aop: AOp) -> Self {
        OpSet { vop, rop, sop, mop, aop, pattern: Pattern::Custom }
    }

    /// Table III row 2 — sigmoid graph embedding:
    /// `h_uv = σ(x_uᵀ y_v)`, `z_u = Σ_v h_uv · y_v`.
    ///
    /// `lut` selects the table-lookup sigmoid the optimized kernels use;
    /// `None` gives the exact sigmoid.
    pub fn sigmoid_embedding(lut: Option<Arc<SigmoidLut>>) -> Self {
        let sop = match lut {
            Some(t) => SOp::SigmoidLut(t),
            None => SOp::Sigmoid,
        };
        OpSet {
            vop: VOp::Mul,
            rop: ROp::Sum,
            sop,
            mop: MOp::Mul,
            aop: AOp::Sum,
            pattern: Pattern::SigmoidEmbedding,
        }
    }

    /// The noise-contrastive gradient of the sigmoid embedding over a
    /// *labelled* adjacency: `h_uv = σ(x_uᵀ y_v) − a_uv`,
    /// `z_u = Σ_v h_uv · y_v`, with `a_uv = 1` on true neighbours and
    /// `0` on sampled negatives (the VERSE/Force2Vec formulation). Same
    /// five steps as [`OpSet::sigmoid_embedding`] but for the SOP, so
    /// it runs the same specialized kernels.
    pub fn nce_gradient(lut: Option<Arc<SigmoidLut>>) -> Self {
        let sop = match lut {
            Some(t) => SOp::SigmoidLutMinusEdge(t),
            None => SOp::SigmoidMinusEdge,
        };
        OpSet { sop, ..Self::sigmoid_embedding(None) }
    }

    /// Table III row 1 — Fruchterman–Reingold force model:
    /// `h_uv = α·‖x_u − y_v‖`, `z_u = Σ_v h_uv · y_v`.
    ///
    /// `alpha` is the SCAL constant (the FR step length / spring
    /// constant the application chooses).
    pub fn fr_model(alpha: f32) -> Self {
        OpSet {
            vop: VOp::Sub,
            rop: ROp::Norm,
            sop: SOp::Scale(alpha),
            mop: MOp::Mul,
            aop: AOp::Sum,
            pattern: Pattern::FrModel,
        }
    }

    /// The t-distribution embedding pattern used by Force2Vec's tdist
    /// mode: `h_uv = 1 / (1 + ‖x_u − y_v‖²)`, `z_u = Σ_v h_uv · y_v`.
    pub fn tdist_embedding() -> Self {
        OpSet {
            vop: VOp::Sub,
            rop: ROp::Norm,
            sop: SOp::TDist,
            mop: MOp::Mul,
            aop: AOp::Sum,
            pattern: Pattern::TDistEmbedding,
        }
    }

    /// Table III row 3 — GCN aggregation:
    /// `z_u = Σ_v a_uv · y_v` (pure SpMM; message is the neighbor
    /// feature, multiplied by the edge weight in MOP).
    pub fn gcn() -> Self {
        OpSet {
            vop: VOp::Sel2nd,
            rop: ROp::Noop,
            sop: SOp::Noop,
            mop: MOp::Mul,
            aop: AOp::Sum,
            pattern: Pattern::Gcn,
        }
    }

    /// Table III row 4 — GNN with MLP messages and max pooling:
    /// `h_uv = σ(MLP([x_u; y_v]))`, `z_u = max_v a_uv·h_uv`.
    pub fn gnn_mlp(mlp: Arc<Mlp>) -> Self {
        OpSet {
            vop: VOp::Mlp(mlp),
            rop: ROp::Noop,
            sop: SOp::Sigmoid,
            mop: MOp::Mul,
            aop: AOp::Max,
            pattern: Pattern::GnnMlp,
        }
    }

    /// Dimensionality of the stored per-edge message an *unfused*
    /// pipeline needs for this operator set: 1 for reduced (scalar)
    /// messages, `d` when ROP is a NOOP. This drives the memory model
    /// of Fig. 10(b).
    pub fn message_dim(&self, d: usize) -> usize {
        if self.rop.is_noop() {
            d
        } else {
            1
        }
    }

    /// Dimensionality of the *SDDMM intermediate* an unfused pipeline
    /// materializes before edgewise post-processing. The VOP output is
    /// always a `d`-vector unless the whole SDDMM phase collapses to a
    /// scalar dot product (the embedding pattern, which DGL computes
    /// with its fused `u_dot_v` SDDMM). GCN skips SDDMM entirely.
    pub fn sddmm_intermediate_dim(&self, d: usize) -> usize {
        match self.pattern {
            Pattern::SigmoidEmbedding => 1,
            Pattern::Gcn => 0,
            _ => d,
        }
    }

    /// True when this operator set has a pattern-specialized kernel in
    /// the optimized library (the first three Table III rows plus the
    /// t-distribution extension).
    pub fn is_specializable(&self) -> bool {
        matches!(
            self.pattern,
            Pattern::SigmoidEmbedding | Pattern::FrModel | Pattern::TDistEmbedding | Pattern::Gcn
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::Message;

    #[test]
    fn embedding_preset_matches_table_iii() {
        let ops = OpSet::sigmoid_embedding(None);
        assert_eq!(format!("{:?}", ops.vop), "MUL");
        assert_eq!(format!("{:?}", ops.rop), "RSUM");
        assert_eq!(format!("{:?}", ops.sop), "SIGMOID");
        assert_eq!(format!("{:?}", ops.mop), "MUL");
        assert_eq!(format!("{:?}", ops.aop), "ASUM");
        assert_eq!(ops.pattern, Pattern::SigmoidEmbedding);
    }

    #[test]
    fn nce_gradient_is_the_embedding_pattern_with_a_labelled_sop() {
        let ops = OpSet::nce_gradient(None);
        assert_eq!(format!("{:?}", ops.sop), "SIGMOID_MINUS_EDGE");
        assert_eq!(format!("{:?}", ops.vop), "MUL");
        assert_eq!(ops.pattern, Pattern::SigmoidEmbedding);
        assert!(ops.is_specializable());
        let lut = OpSet::nce_gradient(Some(Arc::new(SigmoidLut::default_table())));
        assert_eq!(format!("{:?}", lut.sop), "SIGMOID_LUT_MINUS_EDGE");
    }

    #[test]
    fn fr_preset_matches_table_iii() {
        let ops = OpSet::fr_model(0.5);
        assert_eq!(format!("{:?}", ops.rop), "NORM");
        assert_eq!(format!("{:?}", ops.sop), "SCAL");
        assert_eq!(ops.pattern, Pattern::FrModel);
    }

    #[test]
    fn tdist_preset_shape() {
        let ops = OpSet::tdist_embedding();
        assert_eq!(format!("{:?}", ops.sop), "TDIST");
        assert_eq!(ops.pattern, Pattern::TDistEmbedding);
        assert!(ops.is_specializable());
    }

    #[test]
    fn specializable_flags() {
        assert!(OpSet::sigmoid_embedding(None).is_specializable());
        assert!(OpSet::gcn().is_specializable());
        assert!(!OpSet::gnn_mlp(Arc::new(Mlp::seeded(4, 4, 4, 1))).is_specializable());
        assert!(
            !OpSet::custom(VOp::Add, ROp::Sum, SOp::Noop, MOp::Mul, AOp::Sum).is_specializable()
        );
    }

    #[test]
    fn gcn_preset_is_pure_spmm() {
        let ops = OpSet::gcn();
        assert_eq!(format!("{:?}", ops.vop), "SEL2ND");
        assert!(ops.rop.is_noop());
        assert!(ops.sop.is_noop());
        assert_eq!(ops.pattern, Pattern::Gcn);
    }

    #[test]
    fn gnn_mlp_preset_uses_amax() {
        let ops = OpSet::gnn_mlp(Arc::new(Mlp::seeded(4, 4, 4, 1)));
        assert_eq!(format!("{:?}", ops.aop), "AMAX");
        assert_eq!(ops.pattern, Pattern::GnnMlp);
    }

    #[test]
    fn message_dims_follow_rop() {
        assert_eq!(OpSet::sigmoid_embedding(None).message_dim(128), 1);
        assert_eq!(OpSet::fr_model(1.0).message_dim(128), 1);
        assert_eq!(OpSet::gcn().message_dim(128), 128);
    }

    #[test]
    fn sddmm_intermediate_dims_match_dgl_behaviour() {
        // embedding: DGL's fused dot SDDMM -> scalar intermediate
        assert_eq!(OpSet::sigmoid_embedding(None).sddmm_intermediate_dim(128), 1);
        // FR: elementwise SDDMM -> d-dim intermediate (the OOM culprit)
        assert_eq!(OpSet::fr_model(1.0).sddmm_intermediate_dim(128), 128);
        // GCN: no SDDMM at all
        assert_eq!(OpSet::gcn().sddmm_intermediate_dim(128), 0);
    }

    #[test]
    fn embedding_end_to_end_one_edge() {
        // Manually run the five steps on one edge and check h = σ(x·y).
        let ops = OpSet::sigmoid_embedding(None);
        let x = [1.0, 2.0];
        let y = [0.5, 0.25];
        let mut z = [0.0; 2];
        ops.vop.apply(&x, &y, 1.0, &mut z);
        let s = ops.rop.apply(&z).unwrap();
        assert!((s - 1.0).abs() < 1e-6);
        let h = ops.sop.apply_scalar(s, 1.0);
        assert!((h - crate::sigmoid(1.0)).abs() < 1e-6);
        let mut w = [0.0; 2];
        ops.mop.apply(Message::Scalar(h), &y, 1.0, &mut w);
        let mut acc = [0.0; 2];
        ops.aop.apply(&mut acc, &w);
        assert!((acc[0] - h * 0.5).abs() < 1e-6);
    }

    #[test]
    fn pattern_names() {
        assert_eq!(Pattern::SigmoidEmbedding.name(), "embedding");
        assert_eq!(Pattern::Gcn.name(), "gcn");
    }
}
