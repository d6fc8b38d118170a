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
//! The fused backend therefore builds one labelled `batch × n` matrix
//! per step and launches once over it — and the launch hands back the
//! dot products it made, so the monitoring loss is a softplus over
//! stored scalars, not a second pass over the neighbour rows.
//!
//! A step big enough to repay a fork-join ([`SPLIT_STEP_WORK`]) is cut
//! into one contiguous row part per pool thread, as Algorithm 1 cuts a
//! kernel's rows into `t` parts, and each part does the whole step for
//! its rows — gather, step matrix, scored launch — while the caller
//! draws the negatives before and folds the loss and applies SGD after:
//!
//! ```text
//!   caller: sampler ─► negatives of the whole batch, in batch order
//!     ┌─ part 0 (caller) ───────────────────┐ ┌─ part 1.. (pool) ─┐
//!     │ x_p = emb[rows of p]                │ │  the same, over   │
//!     │ adj.row(u) label 1 ┐                │ │  its own rows     │
//!     │ its draws  label 0 ┴─► step_p (CSR) │ │                   │
//!     │ scored launch(step_p, x_p, Y = emb) │ │                   │
//!     │   ─► ∂L/∂x band p, scores_p         │ │                   │
//!     └─────────────────────────────────────┘ └───────────────────┘
//!   caller: Σ softplus(−s) over the label-1 prefix of every row,
//!           parts in row order ─► loss;  emb[u] −= lr · ∂L/∂x_u
//! ```
//!
//! Every gradient row and score comes from its own row's edges, and the
//! loss is one fold in row order, so no bit depends on the part count.
//! Draws, step matrices, `x_p`, gradient and scores all live in the
//! trainer and are overwritten every step.
//!
//! The unfused backend keeps the two terms apart — the positive one as
//! a custom SOP `s ↦ σ(s) − 1` ("FusedMM can directly take a scaling
//! operation", §V-D), the negative one as the stock sigmoid embedding —
//! and materializes per-edge dot products and sigmoids like DGL; the
//! dense backend forms full `batch × n` score matrices like an eager
//! PyTorch implementation.

use std::sync::{Arc, Mutex};

use fusedmm_baseline::tensor::{dense_mask, OpTally, Tensor};
use fusedmm_baseline::unfused::unfused_pipeline;
use fusedmm_core::driver::INLINE_LAUNCH_WORK;
use fusedmm_core::{Launch, Partition, PartitionStrategy, Plan};
use fusedmm_graph::random_features;
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
    /// The baselines' gathered batch rows `x_b`, recycled the same way.
    xb_home: BufferHome,
    /// The fused step's draws and row parts, overwritten every step.
    step: Mutex<FusedStep>,
}

/// A fused step splits into row parts only when its estimated work —
/// `batch × (nnz/n + negatives) × d` multiply-adds, from the trainer's
/// own numbers — reaches this; below it the step runs as one part on
/// the caller. Derived from an inline-against-parts sweep on the 2-vCPU
/// reference box (docs/ARCHITECTURE.md, "The Force2Vec training step").
/// This is separate from the kernels' own
/// [`INLINE_LAUNCH_WORK`]: each part's launch still runs inline.
pub const SPLIT_STEP_WORK: usize = 1 << 18;

/// What the fused step keeps between steps, so that a warm step
/// allocates nothing of its own: the batch's negative draws and one
/// [`StepPart`] per row part (grown to the widest step seen, never
/// shrunk).
#[derive(Debug, Default)]
struct FusedStep {
    negatives: Vec<usize>,
    parts: Vec<StepPart>,
}

/// One contiguous row part of a fused step: its labelled matrix, the
/// scores its launch hands back and its gathered `x_b` rows.
#[derive(Debug, Default)]
struct StepPart {
    step: StepMatrix,
    scores: Vec<f32>,
    xb_home: BufferHome,
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

    /// How many row parts a fused step over `rows` batch vertices is
    /// cut into: one per thread of the current pool once the step's
    /// estimated work reaches [`SPLIT_STEP_WORK`], otherwise one.
    fn part_count(&self, rows: usize) -> usize {
        let per_row = self.adj.nnz() / self.adj.nrows().max(1) + self.cfg.negatives;
        let work = rows.saturating_mul(per_row).saturating_mul(self.cfg.dim);
        if work < SPLIT_STEP_WORK {
            1
        } else {
            rayon::current_num_threads().min(rows)
        }
    }

    /// The fused gradient of `batch` into `grad` (`batch × d`), cut into
    /// `parts.len()` contiguous row parts. Each part gathers its `x_b`
    /// rows, builds its labelled step matrix from its rows' slice of
    /// `negatives` (laid out as
    /// [`NegativeSampler::draw_batch_into`] leaves them) and makes its
    /// own scored launch into its band of `grad`. Parts 1.. are spawned
    /// on the pool first, so a worker can take one at once, and part 0
    /// runs on the caller, which then runs any part no worker has
    /// started. Every row's gradient and scores come from that row's
    /// edges alone, so no bit depends on the part count.
    fn fused_step(
        &self,
        emb: &Dense,
        batch: &[usize],
        negatives: &[usize],
        parts: &mut [StepPart],
        grad: &mut [f32],
    ) {
        let (d, count) = (emb.ncols(), parts.len());
        let k = negatives.len().checked_div(batch.len()).unwrap_or(0);
        let rows = |p: usize| p * batch.len() / count..(p + 1) * batch.len() / count;
        let run = |part: &mut StepPart, rows: std::ops::Range<usize>, grad: &mut [f32]| {
            let vertices = &batch[rows.clone()];
            let mut xb = Dense::recycled(&part.xb_home, vertices.len(), d);
            gather_rows_into(emb, vertices, &mut xb);
            part.step.build(&self.adj, vertices, &negatives[rows.start * k..rows.end * k]);
            part.scores.resize(part.step.adj().nnz(), 0.0);
            let (ops, scored) =
                (OpSet::nce_gradient(None), Launch::All { scores: Some(&mut part.scores) });
            self.plan.launch(part.step.adj(), &xb, emb, &ops, scored, grad);
        };
        let (first, rest) = parts.split_first_mut().expect("a step has at least one part");
        let (first_grad, mut rest_grad) = grad.split_at_mut(rows(0).len() * d);
        if rest.is_empty() {
            run(first, rows(0), first_grad);
            return;
        }
        rayon::scope(|s| {
            for (p, part) in (1..).zip(rest) {
                let (band, tail) = std::mem::take(&mut rest_grad).split_at_mut(rows(p).len() * d);
                rest_grad = tail;
                let run = &run;
                s.spawn(move |_| run(part, rows(p), band));
            }
            run(first, rows(0), first_grad);
        });
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
        // Uniform in `±0.5/√d`, the Force2Vec reference initialization.
        let mut emb = random_features(n, cfg.dim, 0.5 / (cfg.dim as f32).sqrt(), cfg.seed);
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
            // The gradient (in one piece or two) and the monitoring
            // loss on the positive edges, both from pre-update rows.
            let (grad, grad_neg, (l, t)) = match cfg.backend {
                Backend::Fused => {
                    // A panic mid-step leaves buffers the next step
                    // overwrites anyway.
                    let mut kept = self.step.lock().unwrap_or_else(|e| e.into_inner());
                    let FusedStep { negatives, parts } = &mut *kept;
                    // The stream is consumed here, in batch order,
                    // whatever the part count.
                    sampler.draw_batch_into(batch, negatives);
                    let count = self.part_count(batch.len());
                    if parts.len() < count {
                        parts.resize_with(count, StepPart::default);
                    }
                    let parts = &mut parts[..count];
                    let mut grad = Dense::recycled(&self.grad_home, batch.len(), emb.ncols());
                    self.fused_step(emb, batch, negatives, parts, grad.as_mut_slice());
                    let loss = scored_loss(parts.iter().map(|p| (&p.step, &p.scores[..])));
                    (grad, None, loss)
                }
                Backend::Unfused | Backend::DenseTensor => {
                    let mut xb = Dense::recycled(&self.xb_home, batch.len(), emb.ncols());
                    gather_rows_into(emb, batch, &mut xb);
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

/// `Σ −ln σ(x_u·x_v)` and the term count over the positive edges of a
/// fused step, from the scores its launches stored: the label-1 prefix
/// of every row of every part, parts in row order, folded once — so the
/// value depends on neither the part count nor the thread count.
fn scored_loss<'a>(parts: impl IntoIterator<Item = (&'a StepMatrix, &'a [f32])>) -> (f64, usize) {
    let (mut sum, mut terms) = (SoftplusSum::default(), 0usize);
    for (step, scores) in parts {
        for (&lo, &positives) in step.adj().rowptr().iter().zip(step.positives()) {
            scores[lo..lo + positives].iter().for_each(|&s| sum.add(-s));
            terms += positives;
        }
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
        let mut emb = random_features(n, 16, 0.125, 5);
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
        let mut emb = random_features(n, 16, 0.125, 5);
        emb.as_mut_slice().iter_mut().for_each(|v| *v *= 12.0);
        let batch: Vec<usize> = (0..n).rev().step_by(2).collect();
        let mut step = StepMatrix::default();
        NegativeSampler::new(n, 3, 77).labelled_batch_into(&adj, &batch, &mut step);
        let xb = gather_rows(&emb, &batch);
        let mut grad = Dense::zeros(batch.len(), 16);
        let mut scores = vec![f32::NAN; step.adj().nnz()];
        let (ops, scored) = (OpSet::nce_gradient(None), Launch::All { scores: Some(&mut scores) });
        Plan::prepare(&ops, 16).launch(step.adj(), &xb, &emb, &ops, scored, grad.as_mut_slice());
        let (loss, terms) = scored_loss([(&step, &scores[..])]);
        let positives = |i: usize| step.positives()[i];
        let (one_band, one_terms) = at_width(1, || positive_loss(step.adj(), positives, &xb, &emb));
        assert_eq!(terms, one_terms);
        assert_eq!(loss.to_bits(), one_band.to_bits(), "{loss} vs {one_band}");
        // What the trainer computed before: two bands at two threads.
        let (two_bands, _) = at_width(2, || positive_loss(step.adj(), positives, &xb, &emb));
        assert!((loss - two_bands).abs() <= 1e-12 * two_bands.abs(), "{loss} vs {two_bands}");
    }

    /// A graph and configuration whose fused steps reach
    /// [`SPLIT_STEP_WORK`], so a pool wider than one thread cuts them.
    fn split_graph_and_cfg() -> (Csr, Force2VecConfig) {
        let adj = planted_partition(600, 3, 12.0, 2.0, 13).adj;
        let cfg = Force2VecConfig { dim: 128, batch_size: 150, ..tiny_cfg(Backend::Fused) };
        let work = cfg.batch_size * (adj.nnz() / adj.nrows() + cfg.negatives) * cfg.dim;
        assert!(work >= SPLIT_STEP_WORK, "fixture under the split rule: {work}");
        (adj, cfg)
    }

    /// Neither the embedding nor — the loss being one fold in row order
    /// over the parts — the loss trace depends on the pool width, which
    /// is also the number of parts a step is cut into.
    #[test]
    fn fused_training_is_bit_identical_across_thread_counts() {
        let (adj, cfg) = split_graph_and_cfg();
        // Every batch has the same size, so every step is cut alike, and
        // the kept part list is as long as the widest step.
        assert_eq!(adj.nrows() % cfg.batch_size, 0);
        let run = |width| {
            let trainer = Force2Vec::new(adj.clone(), cfg.clone());
            let r = at_width(width, || trainer.train());
            let parts = trainer.step.lock().unwrap().parts.len();
            (r, parts)
        };
        let (one, parts) = run(1);
        assert_eq!(parts, 1, "a one-thread pool split a step");
        let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        let dense_bits = |m: &Dense| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for width in 2..=4 {
            let (r, parts) = run(width);
            assert_eq!(parts, width, "width {width}: the steps must run as {width} parts");
            assert_eq!(bits(&r.losses), bits(&one.losses), "width {width}");
            assert_eq!(dense_bits(&r.embedding), dense_bits(&one.embedding), "width {width}");
        }
    }

    /// One step cut into P parts gives the one-part step's gradient,
    /// scores and loss bit for bit, for part counts that do and do not
    /// divide the batch.
    #[test]
    fn a_step_in_parts_equals_the_one_part_step_bit_for_bit() {
        let (adj, cfg) = split_graph_and_cfg();
        let n = adj.nrows();
        let trainer = Force2Vec::new(adj, cfg);
        let mut emb = random_features(n, 128, 0.5 / 128f32.sqrt(), 5);
        emb.as_mut_slice().iter_mut().for_each(|v| *v *= 12.0);
        let batch: Vec<usize> = (0..n).rev().step_by(5).collect();
        let mut negatives = Vec::new();
        NegativeSampler::new(n, 5, 77).draw_batch_into(&batch, &mut negatives);
        let step = |count: usize| {
            let mut parts: Vec<StepPart> = (0..count).map(|_| StepPart::default()).collect();
            let mut grad = vec![f32::NAN; batch.len() * 128];
            trainer.fused_step(&emb, &batch, &negatives, &mut parts, &mut grad);
            let (loss, terms) = scored_loss(parts.iter().map(|p| (&p.step, &p.scores[..])));
            let scores: Vec<u32> =
                parts.iter().flat_map(|p| p.scores.iter().map(|s| s.to_bits())).collect();
            let grad: Vec<u32> = grad.iter().map(|g| g.to_bits()).collect();
            (grad, scores, loss.to_bits(), terms)
        };
        let one = step(1);
        for count in [2, 3, 4, 7] {
            let parts = step(count);
            assert!(parts.0 == one.0, "{count} parts: gradient bits moved");
            assert!(parts.1 == one.1, "{count} parts: score bits moved");
            assert_eq!((parts.2, parts.3), (one.2, one.3), "{count} parts: loss");
        }
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
