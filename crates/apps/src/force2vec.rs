//! Force2Vec graph embedding — the end-to-end training experiment.
//!
//! Table VIII of the paper trains Force2Vec (d = 128, batch 256, 800
//! epochs) three ways: with PyTorch dense ops, with DGL's unfused
//! SDDMM+SpMM kernels, and with FusedMM — reporting per-epoch time and
//! the F1-micro of the resulting embeddings. This module implements all
//! three backends over one shared training loop so measured differences
//! come only from the kernel strategy.
//!
//! The model is sigmoid negative-sampling embedding (VERSE/Force2Vec,
//! Fig. 1b): minimize `-Σ_{(u,v)∈E} ln σ(x_u·x_v) - Σ_neg ln σ(-x_u·x_n)`.
//! The gradient with respect to a batch vertex `u` is
//!
//! ```text
//! ∂L/∂x_u = Σ_{v∈N(u)} (σ(x_u·x_v) − 1)·x_v  +  Σ_{n∈Neg(u)} σ(x_u·x_n)·x_n
//! ```
//!
//! Both terms are one FusedMM operation over a *labelled* adjacency:
//! with `a_uv = 1` on true neighbours and `0` on sampled negatives the
//! scale is `σ(x_u·x_v) − a_uv` on every edge
//! ([`OpSet::nce_gradient`]), a recognized sigmoid-embedding kernel.
//! The fused backend therefore rebuilds one `batch × n` matrix per step
//! and launches once — and the launch hands back the dot products it
//! made, so the monitoring loss is a softplus over stored scalars, not
//! a second pass over the neighbour rows:
//!
//! ```text
//!   adj.row(u) ─┐ label 1                                  ┌─► ∂L/∂x_b ─► SGD in place
//!               ├─► step (batch × n CSR) ─► scored launch ─┤
//!   sampler    ─┘ label 0        x_b ─────┘   Y = emb      └─► scores ─► Σ softplus(−s)
//!                                                              (label-1 prefix of each row)
//! ```
//!
//! Step matrix, `x_b`, gradient and scores all live in the trainer and
//! are overwritten every step.
//!
//! The unfused backend keeps the two terms apart — the positive one as
//! a custom SOP `s ↦ σ(s) − 1` ("FusedMM can directly take a scaling
//! operation", §V-D), the negative one as the stock sigmoid embedding —
//! and materializes per-edge dot products and sigmoids like DGL; the
//! dense backend forms full `batch × n` score matrices like an eager
//! PyTorch implementation.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusedmm_baseline::tensor::{dense_mask, OpTally, Tensor};
use fusedmm_baseline::unfused::unfused_pipeline;
use fusedmm_core::driver::INLINE_LAUNCH_WORK;
use fusedmm_core::{Launch, Partition, PartitionStrategy, Plan};
use fusedmm_ops::{sigmoid, AOp, MOp, OpSet, ROp, SOp, VOp};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::slice::{batches, gather_rows_into, slice_rows};
use fusedmm_sparse::BufferHome;

use crate::sampler::{NegativeSampler, StepMatrix};

/// Which kernel strategy drives training (the three rows of Table VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// FusedMM kernels (fused, no intermediates).
    Fused,
    /// DGL-equivalent unfused SDDMM → SpMM with materialized messages.
    Unfused,
    /// PyTorch-equivalent dense tensor ops with `batch × n` temporaries.
    DenseTensor,
}

/// Training hyperparameters. Defaults follow the paper's end-to-end
/// setup (d = 128, batch 256) with fewer epochs for CI-scale runs.
#[derive(Debug, Clone)]
pub struct Force2VecConfig {
    /// Embedding dimension (paper: 128).
    pub dim: usize,
    /// Minibatch size (paper: 256).
    pub batch_size: usize,
    /// Training epochs (paper: 800).
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Negative samples per batch vertex (paper's Force2Vec uses 5).
    pub negatives: usize,
    /// RNG seed for init and sampling.
    pub seed: u64,
    /// Kernel backend.
    pub backend: Backend,
}

impl Default for Force2VecConfig {
    fn default() -> Self {
        Force2VecConfig {
            dim: 128,
            batch_size: 256,
            epochs: 10,
            lr: 0.02,
            negatives: 5,
            seed: 1,
            backend: Backend::Fused,
        }
    }
}

/// Output of a training run.
#[derive(Debug)]
pub struct TrainResult {
    /// The learned `n × d` embedding matrix.
    pub embedding: Dense,
    /// Wall seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// Mean NCE loss per epoch (monitoring only).
    pub losses: Vec<f64>,
}

/// The Force2Vec trainer.
#[derive(Debug)]
pub struct Force2Vec {
    adj: Csr,
    cfg: Force2VecConfig,
    /// The fused step's one launch: `OpSet::nce_gradient` at `cfg.dim`.
    plan: Plan,
    /// Keeps the fused backend's `batch × d` step gradient between
    /// steps and epochs: each step takes it, overwrites it, applies it
    /// and lets it park again.
    grad_home: BufferHome,
    /// The gathered batch rows `x_b`, recycled the same way.
    xb_home: BufferHome,
    /// The fused step's labelled matrix and the scores its launch hands
    /// back, both overwritten every step.
    step: Mutex<(StepMatrix, Vec<f32>)>,
}

impl Force2Vec {
    /// Create a trainer for a (square) adjacency matrix.
    pub fn new(adj: Csr, cfg: Force2VecConfig) -> Self {
        assert_eq!(adj.nrows(), adj.ncols(), "Force2Vec expects a square adjacency matrix");
        assert!(cfg.dim > 0 && cfg.batch_size > 0 && cfg.epochs > 0);
        Force2Vec {
            adj,
            plan: Plan::prepare(&OpSet::nce_gradient(None), cfg.dim),
            cfg,
            grad_home: BufferHome::new(),
            xb_home: BufferHome::new(),
            step: Mutex::default(),
        }
    }

    /// The positive-term operator set: `(MUL, RSUM, σ(s)−1, MUL, ASUM)`.
    fn positive_ops() -> OpSet {
        OpSet::custom(
            VOp::Mul,
            ROp::Sum,
            SOp::Custom(Arc::new(|s, _| sigmoid(s) - 1.0)),
            MOp::Mul,
            AOp::Sum,
        )
    }

    /// The negative-term operator set: the stock sigmoid embedding.
    fn negative_ops() -> OpSet {
        OpSet::sigmoid_embedding(None)
    }

    /// Run the full training loop.
    pub fn train(&self) -> TrainResult {
        let n = self.adj.nrows();
        let cfg = &self.cfg;
        let mut emb = init_embedding(n, cfg.dim, cfg.seed);
        let mut sampler = NegativeSampler::new(n, cfg.negatives, cfg.seed ^ 0x5EED);
        let batch_list = batches(n, cfg.batch_size);
        let mut epoch_seconds = Vec::with_capacity(cfg.epochs);
        let mut losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            let t0 = std::time::Instant::now();
            let loss = self.train_epoch(&mut emb, &mut sampler, &batch_list);
            epoch_seconds.push(t0.elapsed().as_secs_f64());
            losses.push(loss);
        }
        TrainResult { embedding: emb, epoch_seconds, losses }
    }

    /// One epoch over all minibatches; returns the mean loss.
    pub fn train_epoch(
        &self,
        emb: &mut Dense,
        sampler: &mut NegativeSampler,
        batch_list: &[Vec<usize>],
    ) -> f64 {
        let cfg = &self.cfg;
        let mut loss_sum = 0.0f64;
        let mut loss_terms = 0usize;
        for batch in batch_list {
            let mut xb = Dense::recycled(&self.xb_home, batch.len(), emb.ncols());
            gather_rows_into(emb, batch, &mut xb);

            // The gradient (in one piece or two) and the monitoring
            // loss on the positive edges, both from pre-update rows.
            let (grad, grad_neg, (l, t)) = match cfg.backend {
                Backend::Fused => {
                    // A panic mid-step leaves buffers the next step
                    // overwrites anyway.
                    let mut kept = self.step.lock().unwrap_or_else(|e| e.into_inner());
                    let (step, scores) = &mut *kept;
                    sampler.labelled_batch_into(&self.adj, batch, step);
                    scores.resize(step.adj().nnz(), 0.0);
                    let mut grad = Dense::recycled(&self.grad_home, batch.len(), emb.ncols());
                    let (ops, scored) =
                        (OpSet::nce_gradient(None), Launch::All { scores: Some(scores) });
                    self.plan.launch(step.adj(), &xb, emb, &ops, scored, grad.as_mut_slice());
                    (grad, None, scored_loss(step, scores))
                }
                Backend::Unfused | Backend::DenseTensor => {
                    let mb = slice_rows(&self.adj, batch);
                    let neg = sampler.sample_batch(batch);
                    let (grad_pos, grad_neg) = if cfg.backend == Backend::Unfused {
                        (
                            unfused_pipeline(&mb.adj, &xb, emb, &Self::positive_ops()).z,
                            unfused_pipeline(&neg, &xb, emb, &Self::negative_ops()).z,
                        )
                    } else {
                        (
                            dense_gradient(&mb.adj, &xb, emb, |s| sigmoid(s) - 1.0),
                            dense_gradient(&neg, &xb, emb, sigmoid),
                        )
                    };
                    let loss = positive_loss(&mb.adj, |i| mb.adj.row_nnz(i), &xb, emb);
                    (grad_pos, Some(grad_neg), loss)
                }
            };
            loss_sum += l;
            loss_terms += t;

            // SGD step on the batch rows (rows are disjoint per batch).
            for (i, &u) in batch.iter().enumerate() {
                let row = emb.row_mut(u);
                match &grad_neg {
                    None => {
                        for (x, &g) in row.iter_mut().zip(grad.row(i)) {
                            *x -= cfg.lr * g;
                        }
                    }
                    Some(grad_neg) => {
                        for ((x, &p), &q) in row.iter_mut().zip(grad.row(i)).zip(grad_neg.row(i)) {
                            *x -= cfg.lr * (p + q);
                        }
                    }
                }
            }
        }
        if loss_terms == 0 {
            0.0
        } else {
            loss_sum / loss_terms as f64
        }
    }
}

/// Uniform init in `±0.5/√d`, the Force2Vec reference initialization.
fn init_embedding(n: usize, d: usize, seed: u64) -> Dense {
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = 0.5 / (d as f32).sqrt();
    let mut m = Dense::zeros(n, d);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-scale..scale);
    }
    m
}

/// `Σ −ln σ(x_u·x_v)` and the term count over the positive edges of a
/// fused step, from the scores its launch stored: the label-1 prefix of
/// every row, folded once in row order — so the value does not depend
/// on the thread count.
fn scored_loss(step: &StepMatrix, scores: &[f32]) -> (f64, usize) {
    let (mut sum, mut terms) = (SoftplusSum::default(), 0usize);
    for (&lo, &positives) in step.adj().rowptr().iter().zip(step.positives()) {
        scores[lo..lo + positives].iter().for_each(|&s| sum.add(-s));
        terms += positives;
    }
    (sum.total(), terms)
}

/// The same sum for the baseline arms, which keep no scores: every dot
/// product over the positive edges of a batch matrix is recomputed —
/// the leading `positives(i)` entries of each row `i` of `a`. Row bands
/// run on the pool, or one after the other on the caller for a step
/// under [`INLINE_LAUNCH_WORK`].
fn positive_loss(
    a: &Csr,
    positives: impl Fn(usize) -> usize + Sync,
    xb: &Dense,
    emb: &Dense,
) -> (f64, usize) {
    let band_loss = |rows: std::ops::Range<usize>| {
        let (mut sum, mut terms) = (SoftplusSum::default(), 0usize);
        for i in rows {
            let xu = xb.row(i);
            let cols = &a.row(i).0[..positives(i)];
            for &v in cols {
                sum.add(-fusedmm_core::simd::dot(xu, emb.row(v)));
            }
            terms += cols.len();
        }
        (sum.total(), terms)
    };
    let part = Partition::part1d(a, rayon::current_num_threads(), PartitionStrategy::NnzBalanced);
    let mut bands = vec![(0.0f64, 0usize); part.len()];
    // Placed as the gradient launch over the same matrix is: the bands
    // and the order their sums are folded in do not depend on it.
    if bands.len() == 1 || a.nnz().saturating_mul(xb.ncols()) < INLINE_LAUNCH_WORK {
        for (i, band) in bands.iter_mut().enumerate() {
            *band = band_loss(part.rows(i));
        }
    } else {
        rayon::scope(|s| {
            for (i, band) in bands.iter_mut().enumerate() {
                let (rows, band_loss) = (part.rows(i), &band_loss);
                s.spawn(move |_| *band = band_loss(rows));
            }
        });
    }
    bands.into_iter().fold((0.0, 0), |(sum, terms), (s, t)| (sum + s, terms + t))
}

/// Running `Σ ln(1 + eˣ)` — with `x = −s` the sum of `−ln σ(s)`,
/// without forming a sigmoid. The factors `1 + eˣ` are multiplied up in
/// f64 and one logarithm is taken per [`SoftplusSum::FACTORS`] of them
/// (the logarithm is most of a term's cost); past `x = 30` the term is
/// `x` to f32 precision and is added as such, so neither `eˣ` nor the
/// running product (at most `(1 + e³⁰)¹⁶ < 1e209`) can overflow.
struct SoftplusSum {
    sum: f64,
    product: f64,
    factors: usize,
}

impl Default for SoftplusSum {
    fn default() -> Self {
        SoftplusSum { sum: 0.0, product: 1.0, factors: 0 }
    }
}

impl SoftplusSum {
    const FACTORS: usize = 16;

    fn add(&mut self, x: f32) {
        if x > 30.0 {
            self.sum += x as f64;
            return;
        }
        self.product *= 1.0 + x.exp() as f64;
        self.factors += 1;
        if self.factors == Self::FACTORS {
            self.sum += self.product.ln();
            (self.product, self.factors) = (1.0, 0);
        }
    }

    fn total(self) -> f64 {
        self.sum + self.product.ln()
    }
}

/// The PyTorch-style gradient: `(f(X_b Yᵀ) ⊙ dense(A)) × Y` with full
/// dense temporaries.
fn dense_gradient(a: &Csr, xb: &Dense, y: &Dense, f: impl Fn(f32) -> f32) -> Dense {
    let mut tally = OpTally::default();
    let xt = Tensor::new(xb.clone());
    let yt = Tensor::new(y.clone());
    let scores = xt.matmul(&yt.transpose(&mut tally), &mut tally);
    let scaled = scores.map(f, &mut tally);
    let mask = dense_mask(a, &mut tally);
    let masked = scaled.mul(&mask, &mut tally);
    masked.matmul(&yt, &mut tally).into_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_core::fusedmm_opt;
    use fusedmm_graph::planted::planted_partition;
    use fusedmm_sparse::slice::gather_rows;

    /// Run `f` with `rayon::current_num_threads() == width`.
    fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap().install(f)
    }

    fn tiny_graph() -> Csr {
        planted_partition(60, 2, 6.0, 1.0, 11).adj
    }

    fn tiny_cfg(backend: Backend) -> Force2VecConfig {
        Force2VecConfig {
            dim: 16,
            batch_size: 16,
            epochs: 3,
            lr: 0.05,
            negatives: 3,
            seed: 5,
            backend,
        }
    }

    #[test]
    fn loss_decreases_with_training() {
        let f = Force2Vec::new(tiny_graph(), tiny_cfg(Backend::Fused));
        let r = f.train();
        assert_eq!(r.losses.len(), 3);
        assert!(
            r.losses.last().unwrap() < r.losses.first().unwrap(),
            "loss did not decrease: {:?}",
            r.losses
        );
    }

    #[test]
    fn all_backends_produce_identical_embeddings() {
        // Same seeds, same math -> same result up to f32 noise; this is
        // the paper's claim that FusedMM "does not alter the actual
        // computations performed".
        let fused = Force2Vec::new(tiny_graph(), tiny_cfg(Backend::Fused)).train();
        let unfused = Force2Vec::new(tiny_graph(), tiny_cfg(Backend::Unfused)).train();
        let dense = Force2Vec::new(tiny_graph(), tiny_cfg(Backend::DenseTensor)).train();
        assert!(
            fused.embedding.max_abs_diff(&unfused.embedding) < 1e-3,
            "fused vs unfused diff {}",
            fused.embedding.max_abs_diff(&unfused.embedding)
        );
        assert!(
            fused.embedding.max_abs_diff(&dense.embedding) < 1e-3,
            "fused vs dense diff {}",
            fused.embedding.max_abs_diff(&dense.embedding)
        );
    }

    /// The two-launch step this trainer used to make: positive term
    /// through the custom SOP, negative term through the stock
    /// embedding, and the scalar loss over the positive slice.
    fn two_term_step(adj: &Csr, batch: &[usize], emb: &Dense, seed: u64) -> (Dense, f64) {
        let mb = slice_rows(adj, batch);
        let neg = NegativeSampler::new(adj.nrows(), 3, seed).sample_batch(batch);
        let xb = gather_rows(emb, batch);
        let mut grad = fusedmm_opt(&mb.adj, &xb, emb, &Force2Vec::positive_ops());
        let grad_neg = fusedmm_opt(&neg, &xb, emb, &Force2Vec::negative_ops());
        for (g, &q) in grad.as_mut_slice().iter_mut().zip(grad_neg.as_slice()) {
            *g += q;
        }
        let mut loss = 0.0f64;
        for i in 0..batch.len() {
            for &v in mb.adj.row(i).0 {
                let s = fusedmm_core::simd::dot(xb.row(i), emb.row(v));
                loss -= (sigmoid(s).max(1e-12) as f64).ln();
            }
        }
        (grad, loss)
    }

    #[test]
    fn one_launch_step_matches_the_two_term_step() {
        let adj = tiny_graph();
        let n = adj.nrows();
        // Spread the rows so dot products leave the σ ≈ ½ plateau.
        let mut emb = init_embedding(n, 16, 5);
        emb.as_mut_slice().iter_mut().for_each(|v| *v *= 12.0);
        let batch: Vec<usize> = (0..n).rev().step_by(2).collect();
        let (want_grad, want_loss) = two_term_step(&adj, &batch, &emb, 77);

        let step = NegativeSampler::new(n, 3, 77).labelled_batch(&adj, &batch);
        let xb = gather_rows(&emb, &batch);
        let grad = fusedmm_opt(&step, &xb, &emb, &OpSet::nce_gradient(None));
        assert!(
            grad.max_abs_diff(&want_grad) < 1e-5,
            "one launch vs grad_pos + grad_neg: {}",
            grad.max_abs_diff(&want_grad)
        );
        let (loss, terms) = positive_loss(&step, |i| adj.row_nnz(batch[i]), &xb, &emb);
        assert_eq!(terms, batch.iter().map(|&u| adj.row_nnz(u)).sum::<usize>());
        assert!(
            (loss - want_loss).abs() <= 1e-5 * want_loss.abs(),
            "softplus loss {loss} vs ln σ loss {want_loss}"
        );
    }

    /// The scores the launch hands back are the dot products the old
    /// second pass recomputed, and the fused loss is that pass's sum
    /// folded as one band.
    #[test]
    fn scored_loss_is_the_one_band_positive_loss_bit_for_bit() {
        let adj = tiny_graph();
        let n = adj.nrows();
        let mut emb = init_embedding(n, 16, 5);
        emb.as_mut_slice().iter_mut().for_each(|v| *v *= 12.0);
        let batch: Vec<usize> = (0..n).rev().step_by(2).collect();
        let mut step = StepMatrix::default();
        NegativeSampler::new(n, 3, 77).labelled_batch_into(&adj, &batch, &mut step);
        let xb = gather_rows(&emb, &batch);
        let mut grad = Dense::zeros(batch.len(), 16);
        let mut scores = vec![f32::NAN; step.adj().nnz()];
        let (ops, scored) = (OpSet::nce_gradient(None), Launch::All { scores: Some(&mut scores) });
        Plan::prepare(&ops, 16).launch(step.adj(), &xb, &emb, &ops, scored, grad.as_mut_slice());
        let (loss, terms) = scored_loss(&step, &scores);
        let positives = |i: usize| step.positives()[i];
        let (one_band, one_terms) = at_width(1, || positive_loss(step.adj(), positives, &xb, &emb));
        assert_eq!(terms, one_terms);
        assert_eq!(loss.to_bits(), one_band.to_bits(), "{loss} vs {one_band}");
        // What the trainer computed before: two bands at two threads.
        let (two_bands, _) = at_width(2, || positive_loss(step.adj(), positives, &xb, &emb));
        assert!((loss - two_bands).abs() <= 1e-12 * two_bands.abs(), "{loss} vs {two_bands}");
    }

    /// Neither the embedding nor — now that the loss is one fold in row
    /// order — the loss trace depends on the thread count.
    #[test]
    fn fused_training_is_bit_identical_across_thread_counts() {
        let run = |width| {
            at_width(width, || Force2Vec::new(tiny_graph(), tiny_cfg(Backend::Fused)).train())
        };
        let (one, two) = (run(1), run(2));
        let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one.losses), bits(&two.losses));
        let bits = |m: &Dense| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one.embedding), bits(&two.embedding));
    }

    #[test]
    fn softplus_sum_is_minus_log_sigmoid_and_never_overflows() {
        // 40 terms: two full products and a partial one.
        let logits: Vec<f32> = (0..40).map(|i| (i as f32 - 20.0) * 0.9).collect();
        let mut sum = SoftplusSum::default();
        logits.iter().for_each(|&s| sum.add(-s));
        let want: f64 = logits.iter().map(|&s| -(sigmoid(s) as f64).ln()).sum();
        let got = sum.total();
        assert!((got - want).abs() < 1e-6 * want, "{got} vs {want}");

        let mut extreme = SoftplusSum::default();
        (0..64).for_each(|_| extreme.add(29.9));
        extreme.add(200.0);
        extreme.add(-200.0);
        let got = extreme.total();
        assert!((got - (64.0 * 29.9 + 200.0)).abs() < 1e-3, "{got}");
    }

    #[test]
    fn embedding_separates_planted_communities() {
        let g = planted_partition(60, 2, 8.0, 0.5, 21);
        let mut cfg = tiny_cfg(Backend::Fused);
        cfg.epochs = 30;
        let r = Force2Vec::new(g.adj.clone(), cfg).train();
        // Mean intra-class dot should exceed mean inter-class dot.
        let emb = &r.embedding;
        let (mut intra, mut inter, mut ni, mut nx) = (0.0f64, 0.0f64, 0usize, 0usize);
        for u in 0..60 {
            for v in (u + 1)..60 {
                let d = fusedmm_core::simd::dot(emb.row(u), emb.row(v)) as f64;
                if g.labels[u] == g.labels[v] {
                    intra += d;
                    ni += 1;
                } else {
                    inter += d;
                    nx += 1;
                }
            }
        }
        assert!(
            intra / ni as f64 > inter / nx as f64,
            "intra {} !> inter {}",
            intra / ni as f64,
            inter / nx as f64
        );
    }

    #[test]
    fn epoch_timings_recorded() {
        let f = Force2Vec::new(tiny_graph(), tiny_cfg(Backend::Fused));
        let r = f.train();
        assert_eq!(r.epoch_seconds.len(), 3);
        assert!(r.epoch_seconds.iter().all(|&t| t > 0.0));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rectangular_adjacency_rejected() {
        let mut c = fusedmm_sparse::Coo::new(2, 3);
        c.push(0, 2, 1.0);
        let _ =
            Force2Vec::new(c.to_csr(fusedmm_sparse::coo::Dedup::Last), tiny_cfg(Backend::Fused));
    }
}
