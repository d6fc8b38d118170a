//! Negative-edge sampling for embedding training.
//!
//! Force2Vec (and VERSE) train with noise-contrastive estimation: each
//! minibatch vertex attracts its true neighbors and repels `k` sampled
//! non-neighbors. The sampled pairs are assembled into a rectangular
//! `batch × n` CSR so the *same* FusedMM kernel computes the repulsive
//! term — sampling is an application-layer concern, exactly as the
//! paper's "FusedMM does not perform minibatching / sampling" division
//! of labor prescribes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusedmm_core::simd::{active_backend, prefetch_lines};
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;

/// One training step's labelled `batch × n` matrix (or one row part of
/// it), kept by the trainer and rebuilt in place every step
/// ([`StepMatrix::build`]): the three CSR arrays are reused, and the
/// length of every row's label-1 prefix is recorded while the row is
/// written.
#[derive(Debug)]
pub struct StepMatrix {
    /// `None` only while [`build`](Self::build) holds the arrays, so
    /// that taking them leaves no placeholder matrix to allocate.
    adj: Option<Csr>,
    positives: Vec<usize>,
}

impl Default for StepMatrix {
    fn default() -> Self {
        StepMatrix { adj: Some(Csr::empty(0, 0)), positives: Vec::new() }
    }
}

impl StepMatrix {
    /// The labelled matrix: row `i` holds the true neighbours of batch
    /// vertex `i` (value 1) followed by its sampled negatives (value 0).
    pub fn adj(&self) -> &Csr {
        self.adj.as_ref().expect("only a build that panicked leaves no matrix")
    }

    /// Per row, how many leading entries carry label 1.
    pub fn positives(&self) -> &[usize] {
        &self.positives
    }
}

/// Uniform negative sampler with a deterministic stream.
#[derive(Debug)]
pub struct NegativeSampler {
    nvertices: usize,
    per_vertex: usize,
    rng: StdRng,
}

impl NegativeSampler {
    /// Sample `per_vertex` negatives per batch vertex from `0..nvertices`.
    pub fn new(nvertices: usize, per_vertex: usize, seed: u64) -> Self {
        assert!(nvertices > 1, "need at least two vertices to sample negatives");
        assert!(per_vertex > 0, "need at least one negative per vertex");
        NegativeSampler { nvertices, per_vertex, rng: StdRng::seed_from_u64(seed) }
    }

    /// Draw `per_vertex` non-self targets for `u` — the one place the
    /// stream is consumed, so every batch builder sees the same draws
    /// in the same order.
    fn draw(&mut self, u: usize, mut place: impl FnMut(usize)) {
        let mut placed = 0;
        while placed < self.per_vertex {
            let v = self.rng.gen_range(0..self.nvertices);
            if v == u {
                continue;
            }
            place(v);
            placed += 1;
        }
    }

    /// Build the `batch.len() × nvertices` negative-pair matrix for one
    /// minibatch: row `i` holds `per_vertex` sampled non-self targets
    /// for `batch[i]` (unit values; duplicates merged).
    pub fn sample_batch(&mut self, batch: &[usize]) -> Csr {
        let mut coo =
            Coo::with_capacity(batch.len(), self.nvertices, batch.len() * self.per_vertex);
        for (i, &u) in batch.iter().enumerate() {
            self.draw(u, |v| coo.push(i, v, 1.0));
        }
        coo.to_csr(Dedup::Last)
    }

    /// Build the labelled `batch.len() × nvertices` step matrix for one
    /// minibatch: row `i` holds the columns of `adj`'s row `batch[i]`
    /// with value 1 (true neighbours) followed by its sampled negatives
    /// with value 0 — the operand of
    /// [`OpSet::nce_gradient`](fusedmm_ops::OpSet::nce_gradient), both
    /// gradient terms in one matrix. The stream is consumed exactly as
    /// by [`sample_batch`](Self::sample_batch), and a negative drawn
    /// twice for one row is stored once, as there; a negative that is
    /// also a true neighbour appears under both labels.
    pub fn labelled_batch(&mut self, adj: &Csr, batch: &[usize]) -> Csr {
        let mut step = StepMatrix::default();
        self.labelled_batch_into(adj, batch, &mut step);
        step.adj.expect("a finished build leaves its matrix")
    }

    /// [`labelled_batch`](Self::labelled_batch) into a matrix the caller
    /// keeps across steps: the negatives of the whole batch are drawn
    /// ([`draw_batch_into`](Self::draw_batch_into)), then `step` is
    /// rebuilt from them ([`StepMatrix::build`]). Same stream, same
    /// stored edges.
    pub fn labelled_batch_into(&mut self, adj: &Csr, batch: &[usize], step: &mut StepMatrix) {
        assert_eq!(adj.ncols(), self.nvertices, "adjacency and sampler disagree on the vertex set");
        let mut negatives = Vec::with_capacity(batch.len() * self.per_vertex);
        self.draw_batch_into(batch, &mut negatives);
        step.build(adj, batch, &negatives);
    }

    /// Draw every batch vertex's `per_vertex` negatives, in batch order,
    /// into `negatives` (cleared first): row `i`'s draws are
    /// `negatives[i * per_vertex..(i + 1) * per_vertex]`, duplicates
    /// included. The stream is consumed exactly as by
    /// [`sample_batch`](Self::sample_batch).
    pub fn draw_batch_into(&mut self, batch: &[usize], negatives: &mut Vec<usize>) {
        negatives.clear();
        for &u in batch {
            self.draw(u, |v| negatives.push(v));
        }
    }
}

/// How many rows ahead of the row it copies [`StepMatrix::build`] asks
/// for a batch vertex's `rowptr` entries, and how many rows ahead for
/// the head of its column ids. The `rowptr` request goes further out so
/// that reading a row's bounds to ask for its column ids finds them in
/// cache.
const ROWPTR_AHEAD: usize = 16;
const COLIDX_AHEAD: usize = 8;
/// Column ids asked for per row: one cache line of `usize`s.
const COLIDX_HEAD: usize = 8;

impl StepMatrix {
    /// Rebuild this matrix for `batch` from `negatives`, the batch's
    /// draws as [`NegativeSampler::draw_batch_into`] lays them out: row
    /// `i` holds the columns of `adj`'s row `batch[i]` with value 1
    /// followed by row `i`'s draws with value 0, a draw repeated within
    /// the row stored once. The three CSR arrays are cleared and
    /// refilled at the capacity they have grown to, and
    /// [`positives`](Self::positives) records where each row's label-1
    /// prefix ends.
    ///
    /// The batch vertices' adjacency rows are scattered over the graph,
    /// so each row's bounds and first column ids are asked for a few
    /// rows before they are copied (a hint that changes no value).
    pub fn build(&mut self, adj: &Csr, batch: &[usize], negatives: &[usize]) {
        let per_row = negatives.len().checked_div(batch.len()).unwrap_or(0);
        assert_eq!(negatives.len(), batch.len() * per_row, "every row needs the same draw count");
        let (mut rowptr, mut colidx, mut values) =
            self.adj.take().map(Csr::into_parts).unwrap_or_default();
        let positives = &mut self.positives;
        rowptr.clear();
        colidx.clear();
        values.clear();
        positives.clear();
        rowptr.push(0usize);
        let (b, adj_rowptr, adj_colidx) = (active_backend(), adj.rowptr(), adj.colidx());
        for (i, &u) in batch.iter().enumerate() {
            if let Some(&w) = batch.get(i + ROWPTR_AHEAD) {
                prefetch_lines(b, &adj_rowptr[w..w + 2]);
            }
            if let Some(&w) = batch.get(i + COLIDX_AHEAD) {
                let lo = adj_rowptr[w];
                prefetch_lines(b, &adj_colidx[lo..adj_rowptr[w + 1].min(lo + COLIDX_HEAD)]);
            }
            let neighbours = adj.row(u).0;
            colidx.extend_from_slice(neighbours);
            values.resize(colidx.len(), 1.0);
            positives.push(neighbours.len());
            let first = colidx.len();
            for &v in &negatives[i * per_row..(i + 1) * per_row] {
                if !colidx[first..].contains(&v) {
                    colidx.push(v);
                }
            }
            values.resize(colidx.len(), 0.0);
            rowptr.push(colidx.len());
        }
        self.adj = Some(
            Csr::from_parts(batch.len(), adj.ncols(), rowptr, colidx, values)
                .expect("rows of a valid CSR plus in-range samples form a valid CSR"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_requested_count_modulo_duplicates() {
        let mut s = NegativeSampler::new(100, 5, 1);
        let m = s.sample_batch(&[3, 50, 99]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 100);
        for r in 0..3 {
            assert!(m.row_nnz(r) <= 5);
            assert!(m.row_nnz(r) >= 1);
        }
    }

    #[test]
    fn never_samples_self() {
        let mut s = NegativeSampler::new(10, 8, 2);
        for u in 0..10 {
            let m = s.sample_batch(&[u]);
            let (cols, _) = m.row(0);
            assert!(!cols.contains(&u), "vertex {u} sampled itself");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = NegativeSampler::new(50, 3, 7);
        let mut b = NegativeSampler::new(50, 3, 7);
        assert_eq!(a.sample_batch(&[1, 2]), b.sample_batch(&[1, 2]));
    }

    #[test]
    fn stream_advances_between_batches() {
        let mut s = NegativeSampler::new(50, 3, 7);
        let m1 = s.sample_batch(&[1]);
        let m2 = s.sample_batch(&[1]);
        // Extremely unlikely to be identical if the stream advances.
        assert!(m1 != m2 || m1.nnz() < 3);
    }

    /// Per row, the labelled matrix holds exactly the edges the
    /// two-matrix step holds — `slice_rows` under label 1,
    /// `sample_batch` under label 0 — and leaves the stream where
    /// `sample_batch` leaves it.
    #[test]
    fn labelled_batch_is_slice_rows_plus_sample_batch() {
        let n = 40;
        let mut coo = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=(u % 4) {
                coo.push(u, (u * 7 + k * 3) % n, 0.5 + k as f32);
            }
        }
        let adj = coo.to_csr(Dedup::Last);
        // Eight negatives from 40 vertices: duplicates within a row and
        // negatives that are also neighbours both occur.
        let (mut merged, mut split) =
            (NegativeSampler::new(n, 8, 9), NegativeSampler::new(n, 8, 9));
        let mut saw_duplicate_draw = false;
        for batch in [vec![3usize, 17, 0, 39, 4], vec![8, 8, 21]] {
            let step = merged.labelled_batch(&adj, &batch);
            let neg = split.sample_batch(&batch);
            assert_eq!((step.nrows(), step.ncols()), (batch.len(), n));
            for (i, &u) in batch.iter().enumerate() {
                let (cols, labels) = step.row(i);
                let mut got: Vec<(usize, bool)> =
                    cols.iter().zip(labels).map(|(&v, &l)| (v, l == 1.0)).collect();
                let mut want: Vec<(usize, bool)> =
                    adj.row(u).0.iter().map(|&v| (v, true)).collect();
                want.extend(neg.row(i).0.iter().map(|&v| (v, false)));
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "row {i} (vertex {u})");
                assert!(labels.iter().all(|&l| l == 0.0 || l == 1.0));
                saw_duplicate_draw |= neg.row_nnz(i) < 8;
            }
        }
        assert!(saw_duplicate_draw, "fixture never collapsed a duplicate negative");
        assert_eq!(merged.sample_batch(&[5, 6]), split.sample_batch(&[5, 6]), "streams aligned");
    }

    /// A kept step matrix is rebuilt, not appended to: whatever the
    /// previous step left (a longer batch, other columns) is gone, the
    /// result equals a fresh `labelled_batch`, and the recorded prefix
    /// lengths are the adjacency degrees.
    #[test]
    fn labelled_batch_into_rebuilds_a_kept_matrix() {
        let n = 30;
        let mut coo = Coo::new(n, n);
        for u in 0..n {
            for k in 0..u % 5 {
                coo.push(u, (u * 11 + k * 7) % n, 1.0);
            }
        }
        let adj = coo.to_csr(Dedup::Last);
        let (mut kept, mut fresh) = (NegativeSampler::new(n, 4, 3), NegativeSampler::new(n, 4, 3));
        let mut step = StepMatrix::default();
        for batch in [vec![4usize, 9, 14, 19, 24, 29], vec![0, 5], vec![7, 7, 12]] {
            kept.labelled_batch_into(&adj, &batch, &mut step);
            assert_eq!(step.adj(), &fresh.labelled_batch(&adj, &batch));
            let degrees: Vec<usize> = batch.iter().map(|&u| adj.row_nnz(u)).collect();
            assert_eq!(step.positives(), degrees);
            for (i, &p) in step.positives().iter().enumerate() {
                let labels = step.adj().row(i).1;
                assert!(
                    labels[..p].iter().all(|&l| l == 1.0) && labels[p..].iter().all(|&l| l == 0.0)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one negative")]
    fn zero_negatives_rejected() {
        let _ = NegativeSampler::new(10, 0, 1);
    }
}
