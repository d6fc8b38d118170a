//! Coordinate-format sparse matrices.
//!
//! COO is the assembly format: graph generators and file readers emit
//! `(row, col, value)` triples which are then compressed to [`Csr`] for
//! the kernels. Duplicate handling is explicit — graph generators such
//! as RMAT naturally produce duplicate edges, and the caller chooses to
//! sum them or keep the last occurrence.

use crate::csr::Csr;
use crate::error::SparseError;

/// How duplicate `(row, col)` entries are merged during compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dedup {
    /// Sum the values of duplicates (standard sparse-matrix semantics).
    Sum,
    /// Keep the last value seen (graph-edge semantics for unweighted
    /// graphs where duplicates are just repeated edges).
    Last,
}

/// A sparse matrix as a list of `(row, col, value)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f32)>,
}

impl Coo {
    /// Create an empty COO matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo { nrows, ncols, entries: Vec::new() }
    }

    /// Create with pre-reserved capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Coo { nrows, ncols, entries: Vec::with_capacity(cap) }
    }

    /// Build directly from a triple list, validating bounds.
    pub fn from_entries(
        nrows: usize,
        ncols: usize,
        entries: Vec<(usize, usize, f32)>,
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in &entries {
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c, nrows, ncols });
            }
        }
        Ok(Coo { nrows, ncols, entries })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (including not-yet-merged duplicates).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored triples.
    pub fn entries(&self) -> &[(usize, usize, f32)] {
        &self.entries
    }

    /// Append one entry.
    ///
    /// # Panics
    /// Panics if the entry is out of bounds; generators are expected to
    /// produce in-range indices and this is a programming error.
    pub fn push(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row}, {col}) outside {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, value));
    }

    /// Append the symmetric pair `(u, v)` and `(v, u)` — undirected edge.
    pub fn push_symmetric(&mut self, u: usize, v: usize, value: f32) {
        self.push(u, v, value);
        if u != v {
            self.push(v, u, value);
        }
    }

    /// Compress into CSR, merging duplicates per `dedup` and sorting
    /// column indices within each row.
    pub fn to_csr(&self, dedup: Dedup) -> Csr {
        Csr::from_coo(self, dedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_shape() {
        let mut c = Coo::new(3, 4);
        c.push(0, 0, 1.0);
        c.push(2, 3, 2.0);
        assert_eq!(c.nnz(), 2);
        assert_eq!((c.nrows(), c.ncols()), (3, 4));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_out_of_bounds_panics() {
        let mut c = Coo::new(2, 2);
        c.push(2, 0, 1.0);
    }

    #[test]
    fn from_entries_validates() {
        let err = Coo::from_entries(2, 2, vec![(0, 5, 1.0)]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
        let ok = Coo::from_entries(2, 2, vec![(0, 1, 1.0)]);
        assert!(ok.is_ok());
    }

    #[test]
    fn symmetric_push_adds_both_directions() {
        let mut c = Coo::new(3, 3);
        c.push_symmetric(0, 1, 1.0);
        assert_eq!(c.nnz(), 2);
        // self-loop only stored once
        c.push_symmetric(2, 2, 1.0);
        assert_eq!(c.nnz(), 3);
    }
}
