//! A GNN layer with MLP messages and max pooling (Table III row 4).
//!
//! `z_u = max_{v∈N(u)} a_uv · σ(MLP([x_u; x_v]))` — the paper's example
//! of a pattern that *requires* user-defined VOPs, demonstrating that
//! FusedMM's flexibility covers message functions no fixed kernel
//! vocabulary anticipates. This runs through the generic five-step path
//! (no specialization exists, by design — the paper's library only
//! specializes the first three Table III rows).

use std::sync::Arc;

use fusedmm_core::fusedmm;
use fusedmm_ops::{Mlp, OpSet};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

/// A max-pooling GNN layer with an MLP message function.
#[derive(Debug, Clone)]
pub struct GnnMlpLayer {
    mlp: Arc<Mlp>,
}

impl GnnMlpLayer {
    /// Build from an MLP mapping `[x_u; x_v] ∈ R^{2d}` to `R^d`.
    ///
    /// # Panics
    /// Panics unless `mlp.d_out() == mlp.d_in()` (the aggregated message
    /// must live in the feature space so layers stack).
    pub fn new(mlp: Arc<Mlp>) -> Self {
        assert_eq!(
            mlp.d_in(),
            mlp.d_out(),
            "GNN-MLP layer needs d_out == d_in so outputs stack as features"
        );
        GnnMlpLayer { mlp }
    }

    /// Seeded layer for feature dimension `d` with the given hidden
    /// width.
    pub fn seeded(d: usize, hidden: usize, seed: u64) -> Self {
        Self::new(Arc::new(Mlp::seeded(d, hidden, d, seed)))
    }

    /// The layer's feature dimension.
    pub fn dim(&self) -> usize {
        self.mlp.d_in()
    }

    /// One message-passing step: `Z = FusedMM(A, X, X)` with the
    /// GNN-MLP operator set (no specialized kernel recognizes it: the
    /// generic kernel runs).
    pub fn forward(&self, a: &Csr, x: &Dense) -> Dense {
        assert_eq!(x.ncols(), self.dim(), "feature width mismatch");
        fusedmm(a, x, x, &OpSet::gnn_mlp(self.mlp.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn graph() -> Csr {
        let mut c = Coo::new(5, 5);
        c.push(0, 1, 1.0);
        c.push(0, 2, 2.0);
        c.push(1, 3, 1.0);
        c.push(4, 0, 1.0);
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let layer = GnnMlpLayer::seeded(8, 16, 3);
        let x = Dense::from_fn(5, 8, |r, k| ((r + k) as f32 * 0.1).sin());
        let z1 = layer.forward(&graph(), &x);
        let z2 = layer.forward(&graph(), &x);
        assert_eq!((z1.nrows(), z1.ncols()), (5, 8));
        assert_eq!(z1.max_abs_diff(&z2), 0.0);
    }

    #[test]
    fn outputs_bounded_by_edge_weight_times_sigmoid() {
        // messages are a_uv * σ(...) ∈ (0, a_uv); with max pooling each
        // output lane lies in [0, max a_uv].
        let layer = GnnMlpLayer::seeded(4, 8, 7);
        let x = Dense::filled(5, 4, 0.3);
        let z = layer.forward(&graph(), &x);
        for (r, row) in (0..5).map(|r| (r, z.row(r))) {
            let max_w: f32 = graph().row(r).1.iter().copied().fold(0.0, f32::max);
            for &v in row {
                assert!(v >= 0.0 && v <= max_w + 1e-6, "row {r} value {v} out of range");
            }
        }
    }

    #[test]
    fn isolated_vertex_gets_zero_row() {
        let layer = GnnMlpLayer::seeded(4, 4, 1);
        let x = Dense::filled(5, 4, 1.0);
        let z = layer.forward(&graph(), &x);
        // vertices 2 and 3 have no out-edges in `graph()`
        assert!(z.row(2).iter().all(|&v| v == 0.0));
        assert!(z.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "d_out == d_in")]
    fn non_square_mlp_rejected() {
        let _ = GnnMlpLayer::new(Arc::new(Mlp::seeded(4, 8, 2, 1)));
    }
}
