//! Compressed Sparse Column matrices.
//!
//! CSC gives O(1) access to the in-edges of a column. The FusedMM kernel
//! itself is row-driven, but building minibatch slices and the
//! inspector–executor SpMM baseline both want column-side views.

use crate::csr::Csr;

/// An `m × n` sparse matrix in CSC form with `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f32>,
}

impl Csc {
    /// Column-compress a CSR matrix (a stable counting sort over
    /// columns — the pass [`Csr::transpose`] shares).
    pub fn from_csr(csr: &Csr) -> Self {
        let (colptr, rowidx, values) = csr.transpose_parts();
        Csc { nrows: csr.nrows(), ncols: csr.ncols(), colptr, rowidx, values }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// The column pointer array.
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// The `(row, value)` pairs of column `c`.
    pub fn col(&self, c: usize) -> (&[usize], &[f32]) {
        let lo = self.colptr[c];
        let hi = self.colptr[c + 1];
        (&self.rowidx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in column `c` (its in-degree).
    pub fn col_nnz(&self, c: usize) -> usize {
        self.colptr[c + 1] - self.colptr[c]
    }

    /// Convert back to CSR.
    pub fn to_csr(&self) -> Csr {
        let mut rowptr = vec![0usize; self.nrows + 1];
        for &r in &self.rowidx {
            rowptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut cursor = rowptr.clone();
        let mut colidx = vec![0usize; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for c in 0..self.ncols {
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                let slot = cursor[r];
                colidx[slot] = c;
                values[slot] = v;
                cursor[r] += 1;
            }
        }
        Csr::from_parts(self.nrows, self.ncols, rowptr, colidx, values)
            .expect("CSC->CSR conversion produced invalid structure")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn column_access() {
        let csc = Csc::from_csr(&small());
        let (rows, vals) = csc.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 3.0]);
        assert_eq!(csc.col_nnz(1), 1);
        assert_eq!(csc.col_nnz(2), 1);
    }

    #[test]
    fn csr_round_trip() {
        let m = small();
        assert_eq!(m.to_csc().to_csr(), m);
    }

    #[test]
    fn shape_and_nnz_preserved() {
        let csc = Csc::from_csr(&small());
        assert_eq!((csc.nrows(), csc.ncols(), csc.nnz()), (3, 3, 4));
    }

    #[test]
    fn rows_sorted_within_column() {
        // from_csr iterates rows in order, so rowidx per column is sorted.
        let csc = Csc::from_csr(&small());
        for c in 0..csc.ncols() {
            let (rows, _) = csc.col(c);
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
