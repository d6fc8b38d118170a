//! Graph convolutional network layers over the SpMM specialization.
//!
//! A GCN layer (Kipf & Welling, Fig. 1c of the paper) computes
//! `H' = act(Â H W)` where `Â = D̃^{-1/2}(A + I)D̃^{-1/2}` is the
//! renormalized adjacency. The sparse product `Â H` maps to FusedMM's
//! GCN pattern (Table III row 3: SEL2ND/NOOP/NOOP/MUL/ASUM) — the pure
//! SpMM specialization benchmarked against MKL in Table VII — and the
//! small dense `× W` runs as an ordinary matmul.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusedmm_core::{Launch, Plan};
use fusedmm_ops::OpSet;
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::BufferHome;

/// Symmetric renormalization `D̃^{-1/2}(A + I)D̃^{-1/2}` with self loops.
///
/// # Panics
/// Panics if `a` is not square.
pub fn normalize_adjacency(a: &Csr) -> Csr {
    assert_eq!(a.nrows(), a.ncols(), "normalization needs a square adjacency");
    let n = a.nrows();
    // A + I
    let mut coo = Coo::with_capacity(n, n, a.nnz() + n);
    for (r, c, v) in a.iter() {
        coo.push(r, c, v);
    }
    for i in 0..n {
        coo.push(i, i, 1.0);
    }
    let mut m = coo.to_csr(Dedup::Sum);
    // degrees of A + I
    let deg: Vec<f32> = (0..n)
        .map(|u| {
            let (_, vals) = m.row(u);
            vals.iter().sum::<f32>()
        })
        .collect();
    // D^{-1/2} (A+I) D^{-1/2}: value(u,v) /= sqrt(deg u)·sqrt(deg v).
    let rowptr = m.rowptr().to_vec();
    let colidx = m.colidx().to_vec();
    let values = m.values_mut();
    for u in 0..n {
        let du = deg[u].sqrt();
        for e in rowptr[u]..rowptr[u + 1] {
            let dv = deg[colidx[e]].sqrt();
            values[e] /= du * dv;
        }
    }
    m
}

/// Activation applied after the layer's linear transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// no activation (output layer before softmax)
    Linear,
}

/// The aggregation of a layer `d` features wide: the GCN pattern's
/// plan and the buffer its output recycles through.
#[derive(Debug, Clone)]
pub(crate) struct Aggregate {
    plan: Plan,
    home: BufferHome,
}

impl Aggregate {
    pub(crate) fn new(d: usize) -> Self {
        Aggregate { plan: Plan::prepare(&OpSet::gcn(), d), home: BufferHome::new() }
    }

    /// `Z = A × H` through the FusedMM GCN pattern — the sparse
    /// aggregation of the GCN and GraphSAGE layers. The result parks in
    /// the home again when dropped, so a layer that is run every epoch
    /// aggregates into the same `n × d` buffer each time.
    pub(crate) fn run(&self, a: &Csr, h: &Dense) -> Dense {
        let mut agg = Dense::recycled(&self.home, a.nrows(), h.ncols());
        let all = Launch::All { scores: None };
        self.plan.launch(a, h, h, &OpSet::gcn(), all, agg.as_mut_slice());
        agg
    }
}

/// One GCN layer: `H' = act(Â H W + b)`.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    weight: Dense,
    bias: Vec<f32>,
    activation: Activation,
    /// `Â H`, keeping its buffer between forward passes.
    agg: Aggregate,
}

impl GcnLayer {
    /// Glorot-style seeded initialization of a `d_in → d_out` layer.
    pub fn new(d_in: usize, d_out: usize, activation: Activation, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (6.0f32 / (d_in + d_out) as f32).sqrt();
        let mut weight = Dense::zeros(d_in, d_out);
        for v in weight.as_mut_slice() {
            *v = rng.gen_range(-scale..scale);
        }
        GcnLayer::from_parts(weight, vec![0.0; d_out], activation)
    }

    /// Build from explicit parameters.
    pub fn from_parts(weight: Dense, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(weight.ncols(), bias.len(), "bias must match output width");
        let agg = Aggregate::new(weight.nrows());
        GcnLayer { weight, bias, activation, agg }
    }

    /// Input feature width.
    pub fn d_in(&self) -> usize {
        self.weight.nrows()
    }

    /// Output feature width.
    pub fn d_out(&self) -> usize {
        self.weight.ncols()
    }

    /// `act(Â H W + b)`. `a_norm` must be the pre-normalized adjacency
    /// (see [`normalize_adjacency`]); `h` is `n × d_in`.
    pub fn forward(&self, a_norm: &Csr, h: &Dense) -> Dense {
        assert_eq!(h.ncols(), self.d_in(), "feature width mismatch");
        // Sparse aggregation through the FusedMM GCN pattern.
        let agg = self.agg.run(a_norm, h);
        // Dense transform.
        let mut out = agg.matmul(&self.weight);
        for r in 0..out.nrows() {
            let row = out.row_mut(r);
            for (v, &b) in row.iter_mut().zip(&self.bias) {
                *v += b;
                if self.activation == Activation::Relu {
                    *v = v.max(0.0);
                }
            }
        }
        out
    }
}

/// A two-layer GCN for node classification:
/// `softmax-ready logits = Â·relu(Â H W₁) W₂`.
#[derive(Debug, Clone)]
pub struct Gcn2 {
    /// Hidden layer.
    pub layer1: GcnLayer,
    /// Output layer (linear).
    pub layer2: GcnLayer,
}

impl Gcn2 {
    /// Seeded two-layer network `d_in → hidden → classes`.
    pub fn new(d_in: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        Gcn2 {
            layer1: GcnLayer::new(d_in, hidden, Activation::Relu, seed),
            layer2: GcnLayer::new(hidden, classes, Activation::Linear, seed ^ 0xBEEF),
        }
    }

    /// Full forward pass producing per-vertex class logits.
    pub fn forward(&self, a_norm: &Csr, x: &Dense) -> Dense {
        let h = self.layer1.forward(a_norm, x);
        self.layer2.forward(a_norm, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        let mut c = Coo::new(4, 4);
        c.push_symmetric(0, 1, 1.0);
        c.push_symmetric(1, 2, 1.0);
        c.push_symmetric(2, 3, 1.0);
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn normalized_adjacency_has_self_loops() {
        let n = normalize_adjacency(&small());
        for i in 0..4 {
            assert!(n.get(i, i).is_some(), "missing self loop at {i}");
        }
    }

    #[test]
    fn normalization_is_symmetric_for_symmetric_input() {
        let n = normalize_adjacency(&small());
        for (r, c, v) in n.iter() {
            let back = n.get(c, r).expect("symmetric entry missing");
            assert!((back - v).abs() < 1e-6);
        }
    }

    #[test]
    fn normalized_rows_of_regular_graph_sum_to_one() {
        // A 3-regular ring: every vertex has equal degree, so each row of
        // D^{-1/2}(A+I)D^{-1/2} sums to exactly 1.
        let mut c = Coo::new(6, 6);
        for u in 0..6usize {
            c.push_symmetric(u, (u + 1) % 6, 1.0);
        }
        let n = normalize_adjacency(&c.to_csr(Dedup::Last));
        for u in 0..6 {
            let (_, vals) = n.row(u);
            let s: f32 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {u} sums to {s}");
        }
    }

    #[test]
    fn identity_weight_layer_is_pure_aggregation() {
        let a = normalize_adjacency(&small());
        let d = 3;
        let eye = Dense::from_fn(d, d, |r, c| if r == c { 1.0 } else { 0.0 });
        let layer = GcnLayer::from_parts(eye, vec![0.0; d], Activation::Linear);
        let h = Dense::from_fn(4, d, |r, c| (r * d + c) as f32);
        let out = layer.forward(&a, &h);
        let agg = fusedmm_core::fusedmm_reference(&a, &h, &h, &OpSet::gcn());
        assert!(out.max_abs_diff(&agg) < 1e-5);
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let a = normalize_adjacency(&small());
        let w = Dense::filled(2, 2, -1.0);
        let layer = GcnLayer::from_parts(w, vec![0.0; 2], Activation::Relu);
        let h = Dense::filled(4, 2, 1.0);
        let out = layer.forward(&a, &h);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn two_layer_shapes() {
        let a = normalize_adjacency(&small());
        let net = Gcn2::new(5, 8, 3, 42);
        let x = Dense::filled(4, 5, 0.1);
        let logits = net.forward(&a, &x);
        assert_eq!((logits.nrows(), logits.ncols()), (4, 3));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_feature_width_panics() {
        let a = normalize_adjacency(&small());
        let layer = GcnLayer::new(5, 2, Activation::Relu, 1);
        let h = Dense::zeros(4, 3);
        let _ = layer.forward(&a, &h);
    }
}
