//! Compressed Sparse Row matrices — the FusedMM kernel input format.
//!
//! The kernel iterates `for each row u: for each v with a_uv != 0`, so the
//! adjacency matrix is stored row-compressed: `rowptr[u]..rowptr[u+1]`
//! delimits the column indices and values of row `u`. Column indices are
//! kept sorted within each row (deterministic accumulation order, which
//! the equivalence tests rely on).

use crate::coo::{Coo, Dedup};
use crate::error::SparseError;

/// An `m × n` sparse matrix in CSR form with `f32` values.
#[derive(Debug, Clone)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<usize>,
    values: Vec<f32>,
    /// Whether every row's column indices are strictly ascending.
    /// [`Csr::permute_symmetric`] preserves the *original* neighbor
    /// order (for bit-identical accumulation) and so may produce
    /// unsorted rows; [`Csr::get`] falls back to a linear scan then.
    sorted_cols: bool,
}

/// Two matrices are equal when their shape and stored entries match;
/// the internal sortedness flag is derived state and excluded.
impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
            && self.values == other.values
    }
}

/// True when every row of (`rowptr`, `colidx`) has strictly ascending
/// column indices.
fn cols_sorted(rowptr: &[usize], colidx: &[usize]) -> bool {
    rowptr.windows(2).all(|w| colidx[w[0]..w[1]].windows(2).all(|c| c[0] < c[1]))
}

impl Csr {
    /// Build from raw parts, validating every structure invariant.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if rowptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "rowptr has {} entries, expected nrows + 1 = {}",
                rowptr.len(),
                nrows + 1
            )));
        }
        if rowptr[0] != 0 {
            return Err(SparseError::InvalidStructure("rowptr[0] must be 0".into()));
        }
        if colidx.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "colidx ({}) and values ({}) lengths differ",
                colidx.len(),
                values.len()
            )));
        }
        if *rowptr.last().unwrap() != colidx.len() {
            return Err(SparseError::InvalidStructure(format!(
                "rowptr[last] = {} but nnz = {}",
                rowptr.last().unwrap(),
                colidx.len()
            )));
        }
        if rowptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidStructure("rowptr not monotone".into()));
        }
        for (i, &c) in colidx.iter().enumerate() {
            if c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: rowptr.partition_point(|&p| p <= i).saturating_sub(1),
                    col: c,
                    nrows,
                    ncols,
                });
            }
        }
        let sorted_cols = cols_sorted(&rowptr, &colidx);
        Ok(Csr { nrows, ncols, rowptr, colidx, values, sorted_cols })
    }

    /// Take the matrix apart into `(rowptr, colidx, values)` — the
    /// inverse of [`Csr::from_parts`], for a caller that rebuilds a
    /// matrix of the same kind repeatedly and wants the three
    /// allocations back.
    pub fn into_parts(self) -> (Vec<usize>, Vec<usize>, Vec<f32>) {
        (self.rowptr, self.colidx, self.values)
    }

    /// An empty matrix with no stored entries.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colidx: Vec::new(),
            values: Vec::new(),
            sorted_cols: true,
        }
    }

    /// Compress a COO matrix, merging duplicates and sorting each row's
    /// columns ascending.
    pub fn from_coo(coo: &Coo, dedup: Dedup) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        // Counting sort by row.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in coo.entries() {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut order = counts.clone();
        let nnz_raw = coo.nnz();
        let mut colidx = vec![0usize; nnz_raw];
        let mut values = vec![0f32; nnz_raw];
        for &(r, c, v) in coo.entries() {
            let slot = order[r];
            colidx[slot] = c;
            values[slot] = v;
            order[r] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut out_rowptr = vec![0usize; nrows + 1];
        let mut out_col = Vec::with_capacity(nnz_raw);
        let mut out_val = Vec::with_capacity(nnz_raw);
        let mut scratch: Vec<(usize, f32)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            scratch.clear();
            scratch.extend(colidx[lo..hi].iter().copied().zip(values[lo..hi].iter().copied()));
            // Stable sort so Dedup::Last keeps the final occurrence.
            scratch.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    match dedup {
                        Dedup::Sum => v += scratch[j].1,
                        Dedup::Last => v = scratch[j].1,
                    }
                    j += 1;
                }
                out_col.push(c);
                out_val.push(v);
                i = j;
            }
            out_rowptr[r + 1] = out_col.len();
        }
        Csr {
            nrows,
            ncols,
            rowptr: out_rowptr,
            colidx: out_col,
            values: out_val,
            sorted_cols: true,
        }
    }

    /// Number of rows (`m`).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (`n`).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// The row pointer array (`nrows + 1` entries, first 0, last `nnz`).
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// All column indices, row-major.
    pub fn colidx(&self) -> &[usize] {
        &self.colidx
    }

    /// All values, row-major.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable values (structure stays fixed).
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Number of nonzeros in row `u` (its out-degree).
    pub fn row_nnz(&self, u: usize) -> usize {
        self.rowptr[u + 1] - self.rowptr[u]
    }

    /// The `(column, value)` pairs of row `u`.
    pub fn row(&self, u: usize) -> (&[usize], &[f32]) {
        let lo = self.rowptr[u];
        let hi = self.rowptr[u + 1];
        (&self.colidx[lo..hi], &self.values[lo..hi])
    }

    /// Iterate `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Look up a single entry — binary search when the row's columns
    /// are sorted (the common case), linear scan when a symmetric
    /// permutation left them in original-neighbor order.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        let (cols, vals) = self.row(row);
        if self.sorted_cols {
            cols.binary_search(&col).ok().map(|i| vals[i])
        } else {
            cols.iter().position(|&c| c == col).map(|i| vals[i])
        }
    }

    /// Average number of nonzeros per row (the graph's average degree δ).
    pub fn avg_degree(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Maximum row nnz (maximum degree).
    pub fn max_degree(&self) -> usize {
        self.rowptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// Every row's nnz (out-degree) as one vector — the shared scan
    /// behind degree classification, truncation, reordering, and the
    /// degree histogram.
    pub fn row_degrees(&self) -> Vec<usize> {
        self.rowptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Degree histogram over log2 buckets: slot `i` counts the rows
    /// with degree in `[2^i, 2^{i+1})`. Degree-0 rows are excluded
    /// (isolated vertices are reported separately by graph stats).
    pub fn degree_histogram_log2(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        for d in self.row_degrees() {
            if d == 0 {
                continue;
            }
            let bucket = (usize::BITS - 1 - d.leading_zeros()) as usize;
            if bucket >= hist.len() {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        hist
    }

    /// Convert back to COO triples.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }

    /// The transposed matrix, in CSR form: a stable counting sort over
    /// columns (count each column, prefix-sum, then scatter row by row),
    /// so the only storage besides the result is one `ncols + 1`
    /// cursor. Each row's columns come out ascending; duplicate entries
    /// — which only a matrix with unsorted rows can hold — are summed in
    /// storage order, exactly as [`Csr::from_coo`] with [`Dedup::Sum`]
    /// would.
    pub fn transpose(&self) -> Csr {
        let mut rowptr = vec![0usize; self.ncols + 1];
        for &c in &self.colidx {
            rowptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            rowptr[i + 1] += rowptr[i];
        }
        let mut cursor = rowptr.clone();
        let mut colidx = vec![0usize; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for (r, c, v) in self.iter() {
            let slot = cursor[c];
            colidx[slot] = r;
            values[slot] = v;
            cursor[c] += 1;
        }
        // Within a column the source rows come out ascending, repeats of
        // one row adjacent and in storage order.
        if !self.sorted_cols {
            sum_adjacent_duplicates(&mut rowptr, &mut colidx, &mut values);
        }
        Csr { nrows: self.ncols, ncols: self.nrows, rowptr, colidx, values, sorted_cols: true }
    }

    /// Bytes of storage per the paper's model: 12 bytes per nonzero plus
    /// the row-pointer array.
    pub fn storage_bytes(&self) -> usize {
        crate::BYTES_PER_NNZ * self.nnz() + 8 * (self.nrows + 1)
    }

    /// Replace every stored value with `v` (e.g. 1.0 for an unweighted
    /// adjacency matrix).
    pub fn fill_values(&mut self, v: f32) {
        self.values.fill(v);
    }

    /// Extract the contiguous row band `rows` as its own CSR matrix.
    ///
    /// The band uses **local row indexing** (band row `i` is global row
    /// `rows.start + i`) but keeps **global column indexing** (`ncols`
    /// unchanged) — the PART1D shard shape: a shard owns a row band of
    /// `A` while `Y` (the column space) stays global. Contiguity makes
    /// this a pair of slice copies, O(band nnz).
    ///
    /// # Panics
    /// Panics when `rows.end > nrows` or the range is inverted.
    pub fn row_band(&self, rows: std::ops::Range<usize>) -> Csr {
        assert!(
            rows.start <= rows.end && rows.end <= self.nrows,
            "row band {}..{} out of range for {} rows",
            rows.start,
            rows.end,
            self.nrows
        );
        let lo = self.rowptr[rows.start];
        let hi = self.rowptr[rows.end];
        let rowptr: Vec<usize> =
            self.rowptr[rows.start..=rows.end].iter().map(|&p| p - lo).collect();
        let colidx = self.colidx[lo..hi].to_vec();
        let sorted_cols = self.sorted_cols || cols_sorted(&rowptr, &colidx);
        Csr {
            nrows: rows.len(),
            ncols: self.ncols,
            rowptr,
            colidx,
            values: self.values[lo..hi].to_vec(),
            sorted_cols,
        }
    }

    /// Cut the matrix into the row bands `ranges`, consuming it: the
    /// same bands [`Csr::row_band`] extracts, without holding the
    /// matrix and a copy of every band at once. Bands are split off the
    /// back of the three arrays, which shrink after each split, so the
    /// cut never holds more than the matrix plus one band; the first
    /// band is the remaining storage itself (a single band is a move).
    ///
    /// # Panics
    /// Panics unless `ranges` tile `0..nrows` in order (empty ranges
    /// allowed).
    pub fn into_row_bands(self, ranges: &[std::ops::Range<usize>]) -> Vec<Csr> {
        let tiles = ranges.first().map_or(self.nrows == 0, |r| r.start == 0)
            && ranges.windows(2).all(|w| w[0].end == w[1].start)
            && ranges.iter().all(|r| r.start <= r.end)
            && ranges.last().is_none_or(|r| r.end == self.nrows);
        assert!(tiles, "row bands {ranges:?} do not tile 0..{}", self.nrows);
        let Csr { ncols, mut rowptr, mut colidx, mut values, sorted_cols, .. } = self;
        let band = |rowptr: Vec<usize>, colidx: Vec<usize>, values: Vec<f32>| {
            let sorted_cols = sorted_cols || cols_sorted(&rowptr, &colidx);
            Csr { nrows: rowptr.len() - 1, ncols, rowptr, colidx, values, sorted_cols }
        };
        let mut bands = Vec::with_capacity(ranges.len());
        for rows in ranges.iter().skip(1).rev() {
            let lo = rowptr[rows.start];
            let band_rowptr = rowptr[rows.start..].iter().map(|&p| p - lo).collect();
            let (band_colidx, band_values) = (colidx.split_off(lo), values.split_off(lo));
            rowptr.truncate(rows.start + 1);
            rowptr.shrink_to_fit();
            colidx.shrink_to_fit();
            values.shrink_to_fit();
            bands.push(band(band_rowptr, band_colidx, band_values));
        }
        if !ranges.is_empty() {
            bands.push(band(rowptr, colidx, values));
        }
        bands.reverse();
        bands
    }

    /// Whether the *pattern* is symmetric: the matrix is square and
    /// `(v, u)` is stored exactly when `(u, v)` is. Values are never
    /// compared. Row `v` then lists the in-neighbours of `v` as well as
    /// its out-neighbours, so the matrix is its own reverse adjacency.
    ///
    /// One read per stored entry. Rows are visited in ascending order,
    /// and each `(u, v)` must be the next unconsumed entry of row `v`
    /// (one cursor per row): over sorted rows, row `v`'s entries are met
    /// in exactly the order the visit consumes them. A matrix with
    /// unsorted rows answers through its transpose, whose rows are
    /// sorted and whose pattern is symmetric exactly when this one's is.
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        if !self.sorted_cols {
            return self.transpose().is_pattern_symmetric();
        }
        let mut cursor = self.rowptr[..self.nrows].to_vec();
        for u in 0..self.nrows {
            for &v in self.row(u).0 {
                let next = cursor[v];
                if next == self.rowptr[v + 1] || self.colidx[next] != u {
                    return false;
                }
                cursor[v] = next + 1;
            }
        }
        // Every entry consumed one distinct entry of its mirror row.
        true
    }

    /// Scale row `u`'s values by `s` — used to build the symmetric-
    /// normalized adjacency `D^{-1/2} A D^{-1/2}` for GCN.
    pub fn scale_row(&mut self, u: usize, s: f32) {
        let lo = self.rowptr[u];
        let hi = self.rowptr[u + 1];
        for v in &mut self.values[lo..hi] {
            *v *= s;
        }
    }

    /// Truncate each row to its `k` strongest neighbors (largest
    /// `|value|`; ties keep the earlier entry in storage order — the
    /// lower column id in a column-sorted row — so the choice is
    /// deterministic and survives [`Csr::permute_symmetric`], which
    /// keeps each row's order). Rows with at most `k` nonzeros are
    /// unchanged; the kept entries stay in storage order, preserving
    /// the deterministic accumulation order the kernels rely on. This is
    /// the degraded-tier neighbor index: aggregating over the
    /// truncated matrix approximates the exact answer at a fraction of
    /// the flops, with error concentrated on heavy rows.
    pub fn top_k_by_weight(&self, k: usize) -> Csr {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::with_capacity(self.nnz().min(self.nrows.saturating_mul(k)));
        let mut values = Vec::with_capacity(colidx.capacity());
        let mut order: Vec<usize> = Vec::new();
        let degrees = self.row_degrees();
        for u in 0..self.nrows {
            let (cols, vals) = self.row(u);
            if degrees[u] <= k {
                colidx.extend_from_slice(cols);
                values.extend_from_slice(vals);
            } else {
                order.clear();
                order.extend(0..cols.len());
                // A stable sort: ties stay in storage order.
                order.sort_by(|&i, &j| {
                    vals[j].abs().partial_cmp(&vals[i].abs()).unwrap_or(std::cmp::Ordering::Equal)
                });
                order.truncate(k);
                // Sorting the surviving indices restores storage order.
                order.sort_unstable();
                for &i in order.iter() {
                    colidx.push(cols[i]);
                    values.push(vals[i]);
                }
            }
            rowptr.push(colidx.len());
        }
        let sorted_cols = self.sorted_cols || cols_sorted(&rowptr, &colidx);
        Csr { nrows: self.nrows, ncols: self.ncols, rowptr, colidx, values, sorted_cols }
    }

    /// Symmetric permutation `P·A·Pᵀ` of a square matrix: new row `i`
    /// is old row `old_of_new[i]` with every column `c` relabeled to
    /// `new_of_old[c]`.
    ///
    /// Each row keeps its **original neighbor order** — columns are
    /// deliberately *not* re-sorted, so the kernels fold a permuted
    /// row's neighbors in exactly the order of the unpermuted matrix
    /// and the output is bit-identical under the permutation. The
    /// resulting rows may therefore be column-unsorted; [`Csr::get`]
    /// handles that transparently.
    ///
    /// # Panics
    /// Panics when the matrix is not square or either permutation
    /// array's length differs from the dimension. The two arrays are
    /// trusted to be mutually inverse bijections (the `Permutation`
    /// type in this crate guarantees it).
    pub fn permute_symmetric(&self, new_of_old: &[usize], old_of_new: &[usize]) -> Csr {
        assert_eq!(self.nrows, self.ncols, "symmetric permutation needs a square matrix");
        assert_eq!(new_of_old.len(), self.nrows, "permutation length != dimension");
        assert_eq!(old_of_new.len(), self.nrows, "inverse permutation length != dimension");
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for &u in old_of_new {
            let (cols, vals) = self.row(u);
            colidx.extend(cols.iter().map(|&c| new_of_old[c]));
            values.extend_from_slice(vals);
            rowptr.push(colidx.len());
        }
        let sorted_cols = cols_sorted(&rowptr, &colidx);
        Csr { nrows: self.nrows, ncols: self.ncols, rowptr, colidx, values, sorted_cols }
    }
}

/// Sum each row's runs of equal column ids into one entry, in storage
/// order, compacting the three arrays in place.
fn sum_adjacent_duplicates(rowptr: &mut [usize], colidx: &mut Vec<usize>, values: &mut Vec<f32>) {
    let (mut kept, mut lo) = (0, 0);
    for r in 0..rowptr.len() - 1 {
        let (row_start, hi) = (kept, rowptr[r + 1]);
        for k in lo..hi {
            if kept > row_start && colidx[kept - 1] == colidx[k] {
                values[kept - 1] += values[k];
            } else {
                colidx[kept] = colidx[k];
                values[kept] = values[k];
                kept += 1;
            }
        }
        rowptr[r + 1] = kept;
        lo = hi;
    }
    colidx.truncate(kept);
    values.truncate(kept);
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
    fn from_parts_accepts_valid() {
        let m = small();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        let (rowptr, colidx, values) = m.clone().into_parts();
        assert_eq!(Csr::from_parts(3, 3, rowptr, colidx, values).unwrap(), m);
    }

    #[test]
    fn from_parts_rejects_bad_rowptr_len() {
        let r = Csr::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(r, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn from_parts_rejects_nonmonotone_rowptr() {
        let r = Csr::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(r, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn from_parts_rejects_col_out_of_range() {
        let r = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0]);
        assert!(matches!(r, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_parts_rejects_len_mismatch() {
        let r = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0]);
        assert!(matches!(r, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn get_finds_entries() {
        let m = small();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(2, 1), Some(4.0));
    }

    #[test]
    fn coo_round_trip_preserves_entries() {
        let m = small();
        let back = m.to_coo().to_csr(Dedup::Sum);
        assert_eq!(m, back);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(0, 1, 2.5);
        let m = c.to_csr(Dedup::Sum);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), Some(3.5));
    }

    #[test]
    fn from_coo_last_keeps_final() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(0, 1, 2.5);
        let m = c.to_csr(Dedup::Last);
        assert_eq!(m.get(0, 1), Some(2.5));
    }

    #[test]
    fn from_coo_sorts_columns() {
        let mut c = Coo::new(1, 5);
        c.push(0, 4, 4.0);
        c.push(0, 1, 1.0);
        c.push(0, 3, 3.0);
        let m = c.to_csr(Dedup::Sum);
        assert_eq!(m.row(0).0, &[1, 3, 4]);
    }

    #[test]
    fn transpose_is_involutive() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_moves_entries() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(0, 2), Some(3.0));
    }

    #[test]
    fn degree_statistics() {
        let m = small();
        assert!((m.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.max_degree(), 2);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::empty(4, 7);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.max_degree(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn scale_row_multiplies_only_that_row() {
        let mut m = small();
        m.scale_row(0, 10.0);
        assert_eq!(m.get(0, 0), Some(10.0));
        assert_eq!(m.get(2, 0), Some(3.0));
    }

    #[test]
    fn fill_values_sets_all() {
        let mut m = small();
        m.fill_values(1.0);
        assert!(m.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn row_band_keeps_local_rows_and_global_columns() {
        let m = small();
        let band = m.row_band(1..3);
        assert_eq!((band.nrows(), band.ncols()), (2, 3));
        assert_eq!(band.nnz(), 2);
        // Local row 0 is global row 1 (empty); local row 1 is global
        // row 2 with its global column ids intact.
        assert_eq!(band.row_nnz(0), 0);
        assert_eq!(band.row(1).0, &[0, 1]);
        assert_eq!(band.row(1).1, &[3.0, 4.0]);
        assert_eq!(band.rowptr(), &[0, 0, 2]);
    }

    #[test]
    fn row_band_of_everything_is_the_matrix() {
        let m = small();
        assert_eq!(m.row_band(0..3), m);
    }

    #[test]
    fn row_band_may_be_empty() {
        let m = small();
        let band = m.row_band(1..1);
        assert_eq!((band.nrows(), band.ncols(), band.nnz()), (0, 3, 0));
        assert_eq!(band.rowptr(), &[0]);
    }

    #[test]
    fn row_bands_tile_the_matrix() {
        let m = small();
        let cuts = [0usize, 1, 3];
        let mut entries = Vec::new();
        for w in cuts.windows(2) {
            let band = m.row_band(w[0]..w[1]);
            for (r, c, v) in band.iter() {
                entries.push((w[0] + r, c, v));
            }
        }
        assert_eq!(entries, m.iter().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_band_rejects_overrun() {
        let _ = small().row_band(2..4);
    }

    #[test]
    fn into_row_bands_equal_row_band_and_concatenate_back() {
        // An unsorted matrix (row 0 descends) and a sorted one.
        let unsorted =
            Csr::from_parts(4, 4, vec![0, 2, 2, 5, 6], vec![3, 1, 0, 2, 3, 1], vec![1.0; 6])
                .unwrap();
        for m in [small(), unsorted] {
            let n = m.nrows();
            for cuts in [vec![0, n], vec![0, 1, n], vec![0, 0, 1, 1, n, n], vec![0, n - 1, n]] {
                let ranges: Vec<_> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
                let bands = m.clone().into_row_bands(&ranges);
                assert_eq!(bands.len(), ranges.len());
                let mut entries = Vec::new();
                for (rows, band) in ranges.iter().zip(&bands) {
                    let expected = m.row_band(rows.clone());
                    assert_eq!(band, &expected, "band {rows:?} of cut {cuts:?}");
                    assert_eq!(band.sorted_cols, expected.sorted_cols, "band {rows:?}");
                    entries.extend(band.iter().map(|(r, c, v)| (rows.start + r, c, v)));
                }
                assert_eq!(entries, m.iter().collect::<Vec<_>>(), "cut {cuts:?}");
            }
        }
    }

    #[test]
    fn one_band_is_the_matrix_moved() {
        let m = small();
        let storage = m.colidx().as_ptr();
        let whole = 0..m.nrows();
        let bands = m.into_row_bands(std::slice::from_ref(&whole));
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].colidx().as_ptr(), storage, "a single band keeps the storage");
        assert_eq!(bands[0], small());
        assert!(Csr::empty(0, 3).into_row_bands(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn into_row_bands_rejects_a_gap() {
        let _ = small().into_row_bands(&[0..1, 2..3]);
    }

    #[test]
    fn transpose_sums_duplicates_in_storage_order() {
        // Row 0 holds column 1 twice (only `from_parts` admits that).
        let m = Csr::from_parts(2, 2, vec![0, 3, 4], vec![1, 0, 1, 1], vec![1.0, 2.0, 0.5, 3.0])
            .unwrap();
        let t = m.transpose();
        assert_eq!(t.rowptr(), &[0, 1, 3]);
        assert_eq!(t.colidx(), &[0, 0, 1]);
        assert_eq!(t.values(), &[2.0, 1.5, 3.0]);
        assert!(t.sorted_cols);
    }

    #[test]
    fn storage_matches_paper_model() {
        let m = small();
        assert_eq!(m.storage_bytes(), 12 * 4 + 8 * 4);
    }

    #[test]
    fn top_k_keeps_strongest_neighbors_column_sorted() {
        // Row 0: weights |2.0|, |-5.0|, |1.0| on cols 1, 3, 4.
        let mut coo = Coo::new(3, 5);
        coo.push(0, 1, 2.0);
        coo.push(0, 3, -5.0);
        coo.push(0, 4, 1.0);
        coo.push(1, 0, 1.0); // short row: unchanged
        let a = coo.to_csr(Dedup::Sum);
        let t = a.top_k_by_weight(2);
        assert_eq!(t.row(0), (&[1usize, 3][..], &[2.0f32, -5.0][..]), "keeps |2|,|−5|; drops |1|");
        assert_eq!(t.row(1), (&[0usize][..], &[1.0f32][..]));
        assert_eq!(t.row(2), (&[][..], &[][..]));
        assert_eq!((t.nrows(), t.ncols(), t.nnz()), (3, 5, 3));
        // k covering every row is the identity.
        assert_eq!(a.top_k_by_weight(3), a);
        // Ties keep the earlier entry: here the lower column id.
        let mut tie = Coo::new(1, 4);
        tie.push(0, 1, 1.0);
        tie.push(0, 2, -1.0);
        tie.push(0, 3, 1.0);
        let t = tie.to_csr(Dedup::Sum).top_k_by_weight(2);
        assert_eq!(t.row(0), (&[1usize, 2][..], &[1.0f32, -1.0][..]));
        // k == 0 empties every row but keeps the shape.
        let z = a.top_k_by_weight(0);
        assert_eq!((z.nrows(), z.ncols(), z.nnz()), (3, 5, 0));
    }

    #[test]
    fn row_degrees_and_histogram() {
        let m = small();
        assert_eq!(m.row_degrees(), vec![2, 0, 2]);
        // Two rows of degree 2 land in bucket 1 = [2, 4); degree-0
        // row excluded.
        assert_eq!(m.degree_histogram_log2(), vec![0, 2]);
        assert_eq!(Csr::empty(3, 3).degree_histogram_log2(), Vec::<usize>::new());
    }

    #[test]
    fn permute_symmetric_relabels_and_preserves_neighbor_order() {
        // Symmetric 3-path 0—1, 1—2 plus self loop on 0.
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 5.0);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        c.push(1, 2, 2.0);
        c.push(2, 1, 2.0);
        let a = c.to_csr(Dedup::Sum);
        // Reverse order: old 0↔2.
        let new_of_old = [2usize, 1, 0];
        let old_of_new = [2usize, 1, 0];
        let p = a.permute_symmetric(&new_of_old, &old_of_new);
        // Every entry survives under relabeling.
        assert_eq!(p.nnz(), a.nnz());
        for (r, cset, v) in a.iter() {
            assert_eq!(p.get(new_of_old[r], new_of_old[cset]), Some(v));
        }
        // New row 2 is old row 0 with neighbors in *original* order
        // (old cols [0, 1] → new cols [2, 1]: descending, unsorted).
        assert_eq!(p.row(2).0, &[2, 1]);
        assert_eq!(p.row(2).1, &[5.0, 1.0]);
        // Unsorted lookup still works (linear-scan path).
        assert_eq!(p.get(2, 1), Some(1.0));
        assert_eq!(p.get(2, 0), None);
        // Identity permutation is a no-op and stays sorted.
        let id = [0usize, 1, 2];
        assert_eq!(a.permute_symmetric(&id, &id), a);
    }
}
