//! Minibatch extraction: row slices of the adjacency matrix.
//!
//! The paper's problem setting (§II) considers a rectangular `m × n`
//! slice of the full adjacency matrix: a minibatch of `m` target
//! vertices with edges to all `n` vertices. `X` then holds the features
//! of the minibatch vertices and `Y` the features of all vertices.
//! FusedMM itself "does not perform minibatching, which is done at the
//! application layer" — this module is that application layer helper.

use crate::csr::Csr;
use crate::dense::Dense;

/// A minibatch view: the sliced adjacency plus the rows of `X` matching
/// the selected vertices.
#[derive(Debug, Clone)]
pub struct Minibatch {
    /// Global vertex ids of the minibatch rows, in slice order.
    pub vertices: Vec<usize>,
    /// The `batch × n` sliced adjacency matrix.
    pub adj: Csr,
}

/// Extract the rows `vertices` of `a` as a rectangular `|vertices| × n`
/// CSR slice. Column indices remain global, exactly as in Fig. 2 of the
/// paper (the slice keeps edges to *all* vertices).
pub fn slice_rows(a: &Csr, vertices: &[usize]) -> Minibatch {
    let mut rowptr = Vec::with_capacity(vertices.len() + 1);
    rowptr.push(0usize);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    for &u in vertices {
        assert!(u < a.nrows(), "minibatch vertex {u} out of range for {} rows", a.nrows());
        let (cols, vals) = a.row(u);
        colidx.extend_from_slice(cols);
        values.extend_from_slice(vals);
        rowptr.push(colidx.len());
    }
    let adj = Csr::from_parts(vertices.len(), a.ncols(), rowptr, colidx, values)
        .expect("row slice of a valid CSR is valid");
    Minibatch { vertices: vertices.to_vec(), adj }
}

/// Gather the rows `vertices` of the full feature matrix into a compact
/// `|vertices| × d` matrix (the minibatch `X`).
pub fn gather_rows(features: &Dense, vertices: &[usize]) -> Dense {
    let mut out = Dense::zeros(vertices.len(), features.ncols());
    gather_rows_into(features, vertices, &mut out);
    out
}

/// [`gather_rows`] into a caller-owned `|vertices| × d` matrix — every
/// row of `out` is overwritten, so a recycled buffer
/// ([`Dense::recycled`]) needs no clearing.
///
/// # Panics
/// Panics when `out` is not `|vertices| × d`.
pub fn gather_rows_into(features: &Dense, vertices: &[usize], out: &mut Dense) {
    assert_eq!(
        (out.nrows(), out.ncols()),
        (vertices.len(), features.ncols()),
        "gather target must be |vertices| × d"
    );
    for (i, &u) in vertices.iter().enumerate() {
        out.row_mut(i).copy_from_slice(features.row(u));
    }
}

/// Scatter-add compact minibatch rows back into the full matrix:
/// `full[vertices[i], :] += batch[i, :]`. Used to apply minibatch
/// gradients.
pub fn scatter_add_rows(full: &mut Dense, vertices: &[usize], batch: &Dense) {
    assert_eq!(batch.nrows(), vertices.len());
    assert_eq!(batch.ncols(), full.ncols());
    for (i, &u) in vertices.iter().enumerate() {
        let src = batch.row(i);
        for (dst, &s) in full.row_mut(u).iter_mut().zip(src) {
            *dst += s;
        }
    }
}

/// Partition `0..n` into consecutive batches of size `batch_size` (the
/// last batch may be smaller). Matches the paper's minibatched training
/// loop (batch size 256 in Table VIII).
pub fn batches(n: usize, batch_size: usize) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch size must be positive");
    (0..n).step_by(batch_size).map(|start| (start..(start + batch_size).min(n)).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::{Coo, Dedup};

    fn graph() -> Csr {
        let mut c = Coo::new(4, 4);
        c.push(0, 1, 1.0);
        c.push(0, 2, 2.0);
        c.push(1, 3, 3.0);
        c.push(2, 0, 4.0);
        c.push(3, 3, 5.0);
        c.to_csr(Dedup::Sum)
    }

    #[test]
    fn slice_preserves_rows_and_global_columns() {
        let a = graph();
        let mb = slice_rows(&a, &[2, 0]);
        assert_eq!(mb.adj.nrows(), 2);
        assert_eq!(mb.adj.ncols(), 4);
        // first slice row is vertex 2
        assert_eq!(mb.adj.row(0).0, &[0]);
        assert_eq!(mb.adj.row(0).1, &[4.0]);
        // second slice row is vertex 0
        assert_eq!(mb.adj.row(1).0, &[1, 2]);
    }

    #[test]
    fn slice_of_all_rows_is_identity() {
        let a = graph();
        let mb = slice_rows(&a, &[0, 1, 2, 3]);
        assert_eq!(mb.adj, a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_rejects_bad_vertex() {
        let a = graph();
        let _ = slice_rows(&a, &[9]);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let full = Dense::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let batch = gather_rows(&full, &[3, 1]);
        assert_eq!(batch.row(0), full.row(3));
        assert_eq!(batch.row(1), full.row(1));

        let mut acc = Dense::zeros(4, 3);
        scatter_add_rows(&mut acc, &[3, 1], &batch);
        assert_eq!(acc.row(3), full.row(3));
        assert_eq!(acc.row(1), full.row(1));
        assert!(acc.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gather_into_overwrites_a_dirty_target() {
        let full = Dense::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let mut out = Dense::filled(2, 3, f32::NAN);
        gather_rows_into(&full, &[3, 1], &mut out);
        assert_eq!(out.as_slice(), gather_rows(&full, &[3, 1]).as_slice());
    }

    #[test]
    fn scatter_add_accumulates() {
        let mut acc = Dense::zeros(2, 2);
        let b = Dense::filled(1, 2, 1.5);
        scatter_add_rows(&mut acc, &[1], &b);
        scatter_add_rows(&mut acc, &[1], &b);
        assert_eq!(acc.row(1), &[3.0, 3.0]);
    }

    #[test]
    fn batches_cover_everything_once() {
        let bs = batches(10, 3);
        assert_eq!(bs.len(), 4);
        assert_eq!(bs[3], vec![9]);
        let all: Vec<usize> = bs.into_iter().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batches_exact_division() {
        let bs = batches(6, 3);
        assert_eq!(bs.len(), 2);
        assert!(bs.iter().all(|b| b.len() == 3));
    }
}
