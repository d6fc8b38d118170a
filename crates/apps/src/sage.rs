//! GraphSAGE with mean aggregation over the FusedMM SpMM pattern.
//!
//! The paper notes that "different variants of GCN use different
//! pooling options such as maximum, minimum, mean, etc. All of these
//! options can be captured by MOP and AOP in FusedMM" and cites
//! GraphSAGE \[30\] among the GNNs its kernels serve. This module
//! implements the GraphSAGE-mean layer
//!
//! ```text
//! h'_u = act( W_self · x_u + W_neigh · mean_{v∈N(u)} x_v + b )
//! ```
//!
//! The mean aggregation is one FusedMM call: the GCN pattern over a
//! row-normalized adjacency (each row of `A` scaled by `1/deg(u)`), so
//! ASUM with pre-scaled edge weights *is* the mean — no separate
//! post-division pass over `Z`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::gcn::{Activation, Aggregate};

/// Scale every row of `a` by `1 / row_nnz` so that ASUM aggregation
/// computes the neighborhood mean. Isolated vertices keep empty rows
/// (their mean is the zero vector, matching GraphSAGE conventions for
/// degree-0 nodes).
pub fn row_normalize(a: &Csr) -> Csr {
    let mut m = a.clone();
    for u in 0..m.nrows() {
        let deg = m.row_nnz(u);
        if deg > 0 {
            m.scale_row(u, 1.0 / deg as f32);
        }
    }
    m
}

/// One GraphSAGE-mean layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    /// `d_in × d_out` transform of the vertex's own features.
    w_self: Dense,
    /// `d_in × d_out` transform of the aggregated neighborhood mean.
    w_neigh: Dense,
    bias: Vec<f32>,
    activation: Activation,
    /// The neighborhood mean, keeping its buffer between forward passes.
    agg: Aggregate,
}

impl SageLayer {
    /// Seeded Glorot-style initialization.
    pub fn new(d_in: usize, d_out: usize, activation: Activation, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (6.0f32 / (d_in + d_out) as f32).sqrt();
        let mut init = |r: usize, c: usize| {
            let mut m = Dense::zeros(r, c);
            for v in m.as_mut_slice() {
                *v = rng.gen_range(-scale..scale);
            }
            m
        };
        let w_self = init(d_in, d_out);
        let w_neigh = init(d_in, d_out);
        SageLayer::from_parts(w_self, w_neigh, vec![0.0; d_out], activation)
    }

    /// Build from explicit parameters.
    pub fn from_parts(
        w_self: Dense,
        w_neigh: Dense,
        bias: Vec<f32>,
        activation: Activation,
    ) -> Self {
        assert_eq!(w_self.nrows(), w_neigh.nrows(), "input widths must agree");
        assert_eq!(w_self.ncols(), w_neigh.ncols(), "output widths must agree");
        assert_eq!(w_self.ncols(), bias.len(), "bias must match output width");
        let agg = Aggregate::new(w_self.nrows());
        SageLayer { w_self, w_neigh, bias, activation, agg }
    }

    /// Input feature width.
    pub fn d_in(&self) -> usize {
        self.w_self.nrows()
    }

    /// Output feature width.
    pub fn d_out(&self) -> usize {
        self.w_self.ncols()
    }

    /// Forward pass. `a_mean` must be the row-normalized adjacency from
    /// [`row_normalize`]; `h` is `n × d_in`.
    pub fn forward(&self, a_mean: &Csr, h: &Dense) -> Dense {
        assert_eq!(h.ncols(), self.d_in(), "feature width mismatch");
        // mean_{v∈N(u)} h_v — one fused SpMM-pattern call.
        let neigh = self.agg.run(a_mean, h);
        // W_self·h_u + W_neigh·mean + b, then activation.
        let mut out = h.matmul(&self.w_self);
        let tn = neigh.matmul(&self.w_neigh);
        for r in 0..out.nrows() {
            let row = out.row_mut(r);
            for ((v, &t), &b) in row.iter_mut().zip(tn.row(r)).zip(&self.bias) {
                *v += t + b;
                if self.activation == Activation::Relu {
                    *v = v.max(0.0);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn path4() -> Csr {
        let mut c = Coo::new(4, 4);
        c.push_symmetric(0, 1, 1.0);
        c.push_symmetric(1, 2, 1.0);
        c.push_symmetric(2, 3, 1.0);
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let n = row_normalize(&path4());
        for u in 0..4 {
            let (_, vals) = n.row(u);
            let s: f32 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {u} sums to {s}");
        }
    }

    #[test]
    fn row_normalize_keeps_isolated_rows_empty() {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 2.0);
        let n = row_normalize(&c.to_csr(Dedup::Last));
        assert_eq!(n.row_nnz(1), 0);
        assert_eq!(n.row_nnz(2), 0);
        // normalization divides by neighbor count, not weight sum: the
        // single weight-2 edge keeps its value (2.0 / 1 neighbor).
        assert_eq!(n.get(0, 1), Some(2.0));
    }

    #[test]
    fn mean_aggregation_is_exact() {
        // Identity W_neigh, zero W_self: output = neighborhood mean.
        let a = row_normalize(&path4());
        let d = 2;
        let eye = Dense::from_fn(d, d, |r, c| if r == c { 1.0 } else { 0.0 });
        let layer =
            SageLayer::from_parts(Dense::zeros(d, d), eye, vec![0.0; d], Activation::Linear);
        let h = Dense::from_rows(4, 2, &[0.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]).unwrap();
        let out = layer.forward(&a, &h);
        // vertex 1 neighbors {0, 2}: mean = (3, 4)
        assert_eq!(out.row(1), &[3.0, 4.0]);
        // vertex 0 neighbor {1}: mean = (2, 4)
        assert_eq!(out.row(0), &[2.0, 4.0]);
    }

    #[test]
    fn self_term_contributes() {
        let a = row_normalize(&path4());
        let d = 2;
        let eye = Dense::from_fn(d, d, |r, c| if r == c { 1.0 } else { 0.0 });
        let layer =
            SageLayer::from_parts(eye, Dense::zeros(d, d), vec![1.0; d], Activation::Linear);
        let h = Dense::filled(4, 2, 3.0);
        let out = layer.forward(&a, &h);
        assert!(out.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn relu_applies() {
        let a = row_normalize(&path4());
        let layer = SageLayer::from_parts(
            Dense::filled(2, 2, -1.0),
            Dense::zeros(2, 2),
            vec![0.0; 2],
            Activation::Relu,
        );
        let h = Dense::filled(4, 2, 1.0);
        let out = layer.forward(&a, &h);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn layers_stack() {
        let a = row_normalize(&path4());
        let l1 = SageLayer::new(6, 4, Activation::Relu, 1);
        let l2 = SageLayer::new(4, 2, Activation::Linear, 2);
        let x = Dense::from_fn(4, 6, |r, c| ((r + c) as f32 * 0.2).sin());
        let out = l2.forward(&a, &l1.forward(&a, &x));
        assert_eq!((out.nrows(), out.ncols()), (4, 2));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "output widths")]
    fn mismatched_weights_rejected() {
        let _ = SageLayer::from_parts(
            Dense::zeros(2, 3),
            Dense::zeros(2, 2),
            vec![0.0; 3],
            Activation::Linear,
        );
    }
}
