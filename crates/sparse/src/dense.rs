//! Row-major dense matrices over cache-aligned storage.
//!
//! `X` (m × d), `Y` (n × d) and `Z` (m × d) in the paper are dense
//! feature matrices whose rows are the per-vertex feature vectors. Rows
//! are contiguous so a kernel loads `x_u = X[u, :]` as one streaming
//! slice.

use crate::aligned::{AlignedVec, BufferHome};
use crate::error::SparseError;

/// A dense `rows × cols` matrix of `f32`, row-major, 64-byte aligned.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    nrows: usize,
    ncols: usize,
    data: AlignedVec,
}

impl Dense {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Dense { nrows, ncols, data: AlignedVec::zeroed(nrows * ncols) }
    }

    /// A matrix whose storage is taken from `home` and parks there again
    /// when the matrix is dropped (see [`BufferHome`]). Its contents are
    /// **arbitrary**: zeros when the home had nothing of this size
    /// parked, the previous holder's values otherwise. For outputs that
    /// an overwriting kernel fills completely before anyone reads them.
    pub fn recycled(home: &BufferHome, nrows: usize, ncols: usize) -> Self {
        Dense { nrows, ncols, data: home.take(nrows * ncols) }
    }

    /// Matrix filled with a constant.
    pub fn filled(nrows: usize, ncols: usize, v: f32) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        m.data.as_mut_slice().fill(v);
        m
    }

    /// Build from a row-major slice.
    pub fn from_rows(nrows: usize, ncols: usize, data: &[f32]) -> Result<Self, SparseError> {
        if data.len() != nrows * ncols {
            return Err(SparseError::ShapeMismatch {
                expected: format!("{} values for a {}x{} matrix", nrows * ncols, nrows, ncols),
                found: format!("{} values", data.len()),
            });
        }
        Ok(Dense { nrows, ncols, data: AlignedVec::from_slice(data) })
    }

    /// Build by calling `f(row, col)` for each element.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                m.data[r * ncols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the embedding dimension `d` for feature
    /// matrices).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `r` as a slice of length `ncols`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.nrows);
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutable row access.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.nrows);
        let c = self.ncols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Single element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.ncols + c]
    }

    /// Set a single element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.ncols + c] = v;
    }

    /// The full backing slice, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Split into disjoint mutable row bands `[0, split)` and
    /// `[split, nrows)` — this is how 1D-partitioned threads get
    /// non-overlapping writable views of `Z`.
    pub fn split_rows_mut(&mut self, split: usize) -> (&mut [f32], &mut [f32]) {
        self.data.as_mut_slice().split_at_mut(split * self.ncols)
    }

    /// Reset all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill_zero();
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
    }

    /// Max absolute elementwise difference against another matrix of the
    /// same shape. Used pervasively by the fused-vs-unfused tests.
    pub fn max_abs_diff(&self, other: &Dense) -> f32 {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "max_abs_diff requires identical shapes"
        );
        self.data.iter().zip(other.data.iter()).map(|(&a, &b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Max relative elementwise difference `|a-b| / max(1, |a|, |b|)`.
    pub fn max_rel_diff(&self, other: &Dense) -> f32 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs() / 1f32.max(a.abs()).max(b.abs()))
            .fold(0.0f32, f32::max)
    }

    /// Row-major matrix product `self (r×k) × other (k×c) -> (r×c)`.
    /// A straightforward i-k-j triple loop; used by the dense baselines
    /// and the GCN weight multiply, not by the sparse kernels.
    pub fn matmul(&self, other: &Dense) -> Dense {
        assert_eq!(self.ncols, other.nrows, "matmul inner dimensions must agree");
        let mut out = Dense::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Bytes of storage (4 bytes per single-precision element).
    pub fn storage_bytes(&self) -> usize {
        4 * self.nrows * self.ncols
    }
}

/// `values` as raw bytes in memory (native-endian) order: what a wire
/// codec writes in one call on a little-endian target.
pub fn f32_bytes(values: &[f32]) -> &[u8] {
    // SAFETY: `values` is `len` initialised `f32`s, i.e. exactly
    // `size_of_val(values)` initialised bytes with no padding between or
    // inside elements; `u8` has alignment 1, so the pointer is aligned;
    // the view borrows `values` shared for its whole life.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), size_of_val(values)) }
}

/// Mutable counterpart of [`f32_bytes`]: what a wire codec reads into
/// in one call on a little-endian target.
pub fn f32_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    let len = size_of_val(values);
    // SAFETY: as in `f32_bytes`, with `&mut` making this the only live
    // reference; and every bit pattern is a valid `f32`, so no byte a
    // caller stores can break the `[f32]` behind the view.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u8>(), len) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Dense::zeros(3, 5);
        assert_eq!((m.nrows(), m.ncols()), (3, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recycled_matrix_reuses_the_storage_of_the_one_dropped_before_it() {
        let home = BufferHome::new();
        let mut first = Dense::recycled(&home, 3, 4);
        assert!(first.as_slice().iter().all(|&v| v == 0.0));
        first.as_mut_slice().fill(f32::NAN);
        let addr = first.as_slice().as_ptr();
        drop(first);
        let second = Dense::recycled(&home, 3, 4);
        assert_eq!(second.as_slice().as_ptr(), addr);
        assert!(second.as_slice().iter().all(|v| v.is_nan()), "contents are the last holder's");
        // A clone owns ordinary storage and compares by value.
        let copy = Dense::from_rows(3, 4, &[1.0; 12]).unwrap();
        assert_eq!(copy.clone(), copy);
    }

    #[test]
    fn from_rows_validates_length() {
        assert!(Dense::from_rows(2, 2, &[1.0, 2.0, 3.0]).is_err());
        assert!(Dense::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn row_access_is_contiguous() {
        let m = Dense::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn byte_views_cover_the_elements_in_memory_order() {
        let mut values = [1.0, -2.5, f32::NAN, 0.0];
        let want: Vec<u8> = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
        assert_eq!(f32_bytes(&values), &want[..]);
        f32_bytes_mut(&mut values)[4..8].copy_from_slice(&7.25f32.to_ne_bytes());
        assert_eq!(values[1], 7.25);
        assert!(f32_bytes(Dense::zeros(0, 5).as_slice()).is_empty());
        assert!(f32_bytes_mut(&mut []).is_empty());
    }

    #[test]
    fn from_fn_indexes_correctly() {
        let m = Dense::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn split_rows_mut_is_disjoint() {
        let mut m = Dense::zeros(4, 2);
        let (top, bottom) = m.split_rows_mut(1);
        assert_eq!(top.len(), 2);
        assert_eq!(bottom.len(), 6);
        top[0] = 1.0;
        bottom[5] = 2.0;
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(3, 1), 2.0);
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = Dense::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Dense::from_rows(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn diff_metrics() {
        let a = Dense::from_rows(1, 2, &[1.0, 2.0]).unwrap();
        let b = Dense::from_rows(1, 2, &[1.5, 2.0]).unwrap();
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
        assert!(a.max_rel_diff(&a) == 0.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Dense::from_rows(1, 2, &[3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rows_are_cache_aligned_when_d_multiple_of_16() {
        let m = Dense::zeros(8, 16);
        for r in 0..8 {
            assert_eq!(m.row(r).as_ptr() as usize % 64, 0);
        }
    }
}
