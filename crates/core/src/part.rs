//! PART1D — load-balanced 1D row partitioning (Algorithm 1, line 2).
//!
//! FusedMM rejects 2D (edge) partitioning because messages cannot be
//! generated from partial feature vectors and partial aggregation would
//! need synchronized intermediate state (§III-C). Instead the rows of
//! `A` are split into `t` contiguous parts with approximately equal
//! nonzero counts — `nnz(A_i) ≈ nnz(A)/t` — by scanning the CSR row
//! pointer array in O(m). Each part is processed by one thread with no
//! synchronization: threads share read access to `Y` but write disjoint
//! row bands of `Z`.

use std::ops::Range;

use fusedmm_sparse::csr::Csr;

/// How rows are assigned to parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// The paper's scheme: balance nonzeros per part.
    NnzBalanced,
    /// Naive scheme for ablation: equal row counts per part, ignoring
    /// degree skew.
    RowBalanced,
}

/// A 1D partition of a CSR matrix: `boundaries[i]..boundaries[i+1]` is
/// the row range of part `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    boundaries: Vec<usize>,
}

impl Partition {
    /// Partition `a` into at most `parts` contiguous row ranges using
    /// `strategy`. Fewer (non-empty) parts may be produced when the
    /// matrix has fewer rows than requested parts.
    ///
    /// # Panics
    /// Panics when `parts == 0`.
    pub fn part1d(a: &Csr, parts: usize, strategy: PartitionStrategy) -> Self {
        let rowptr = a.rowptr();
        let cuts = Cuts::new(a.nrows(), a.nnz(), |r| rowptr[r + 1] - rowptr[r], parts, strategy);
        let mut boundaries = Vec::with_capacity(cuts.len() + 1);
        boundaries.push(0);
        boundaries.extend(cuts.map(|rows| rows.end));
        debug_assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        Partition { boundaries }
    }

    /// Number of parts (including possibly empty trailing parts).
    pub fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// True when there are no parts (never produced by `part1d`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row range of part `i`.
    pub fn rows(&self, i: usize) -> std::ops::Range<usize> {
        self.boundaries[i]..self.boundaries[i + 1]
    }

    /// The boundary array (`len() + 1` entries).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Nonzeros assigned to part `i`.
    pub fn part_nnz(&self, a: &Csr, i: usize) -> usize {
        let r = self.rows(i);
        a.rowptr()[r.end] - a.rowptr()[r.start]
    }

    /// Load imbalance: `max_i nnz(A_i) / (nnz(A)/parts)`; 1.0 is perfect.
    pub fn imbalance(&self, a: &Csr) -> f64 {
        let parts = self.len();
        if a.nnz() == 0 || parts == 0 {
            return 1.0;
        }
        let ideal = a.nnz() as f64 / parts as f64;
        let max = (0..parts).map(|i| self.part_nnz(a, i)).max().unwrap_or(0);
        max as f64 / ideal
    }
}

/// A PART1D cut made one part at a time, allocating nothing: the row
/// ranges [`Partition::part1d`] stores, for any sequence of `rows` rows
/// whose `i`-th holds `degree(i)` of the `nnz` nonzeros — the rows of a
/// matrix in order, or a launch's requested rows in request order.
///
/// Nnz-balanced cuts advance one scan of the running nonzero count, as
/// the paper states for PART1D: a part ends before the first row at
/// which the count reaches the next multiple of `nnz / parts`. When the
/// nonzeros sit in few rows some cuts are never placed, and the
/// trailing parts come out empty rather than missing.
pub(crate) struct Cuts<D> {
    degree: D,
    rows: usize,
    nnz: usize,
    parts: usize,
    strategy: PartitionStrategy,
    /// Parts produced so far.
    made: usize,
    /// First row of the next part.
    start: usize,
    /// The next row the nnz scan tests as a cut.
    scan: usize,
    /// Nonzeros of the rows before `scan`.
    before: usize,
}

impl<D: Fn(usize) -> usize> Cuts<D> {
    /// At most `parts` parts (one per row when there are fewer rows).
    ///
    /// # Panics
    /// Panics when `parts == 0`.
    pub(crate) fn new(
        rows: usize,
        nnz: usize,
        degree: D,
        parts: usize,
        strategy: PartitionStrategy,
    ) -> Self {
        assert!(parts > 0, "cannot partition into zero parts");
        let before = if rows > 0 { degree(0) } else { 0 };
        let parts = parts.min(rows).max(1);
        Cuts { degree, rows, nnz, parts, strategy, made: 0, start: 0, scan: 1, before }
    }

    /// The end of part `self.made` (already counted), not the last.
    fn cut(&mut self) -> usize {
        match self.strategy {
            PartitionStrategy::RowBalanced => self.made * self.rows / self.parts,
            PartitionStrategy::NnzBalanced => {
                let target = self.nnz * self.made / self.parts;
                while self.scan < self.rows {
                    let (r, reached) = (self.scan, self.before >= target);
                    self.before += (self.degree)(r);
                    self.scan += 1;
                    if reached {
                        return r;
                    }
                }
                self.rows
            }
        }
    }
}

impl<D: Fn(usize) -> usize> Iterator for Cuts<D> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.made == self.parts {
            return None;
        }
        self.made += 1;
        let end = if self.made == self.parts { self.rows } else { self.cut() };
        let rows = self.start..end;
        self.start = end;
        Some(rows)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.parts - self.made;
        (left, Some(left))
    }
}

impl<D: Fn(usize) -> usize> ExactSizeIterator for Cuts<D> {}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};

    /// A graph where the first rows hold almost all nonzeros.
    fn skewed(rows: usize, heavy: usize) -> Csr {
        let mut c = Coo::new(rows, rows);
        for r in 0..rows {
            let deg = if r < heavy { 64 } else { 1 };
            for k in 0..deg {
                c.push(r, (r + k + 1) % rows, 1.0);
            }
        }
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn covers_all_rows_contiguously() {
        let a = skewed(100, 10);
        let p = Partition::part1d(&a, 4, PartitionStrategy::NnzBalanced);
        assert_eq!(p.boundaries()[0], 0);
        assert_eq!(*p.boundaries().last().unwrap(), 100);
        let total: usize = (0..p.len()).map(|i| p.rows(i).len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn nnz_balanced_beats_row_balanced_on_skew() {
        let a = skewed(128, 8);
        let nnz = Partition::part1d(&a, 4, PartitionStrategy::NnzBalanced);
        let rows = Partition::part1d(&a, 4, PartitionStrategy::RowBalanced);
        assert!(
            nnz.imbalance(&a) < rows.imbalance(&a),
            "nnz imbalance {} !< row imbalance {}",
            nnz.imbalance(&a),
            rows.imbalance(&a)
        );
    }

    #[test]
    fn imbalance_bounded_by_max_row() {
        // nnz-balanced imbalance can exceed 1 by at most roughly one
        // row's nnz worth per part.
        let a = skewed(256, 16);
        let p = Partition::part1d(&a, 8, PartitionStrategy::NnzBalanced);
        let ideal = a.nnz() as f64 / 8.0;
        for i in 0..p.len() {
            assert!(
                (p.part_nnz(&a, i) as f64) <= ideal + a.max_degree() as f64 + 1.0,
                "part {i} holds {} nnz, ideal {ideal}",
                p.part_nnz(&a, i)
            );
        }
    }

    #[test]
    fn single_part_is_whole_matrix() {
        let a = skewed(10, 2);
        let p = Partition::part1d(&a, 1, PartitionStrategy::NnzBalanced);
        assert_eq!(p.len(), 1);
        assert_eq!(p.rows(0), 0..10);
    }

    #[test]
    fn more_parts_than_rows_clamps() {
        let a = skewed(3, 1);
        let p = Partition::part1d(&a, 16, PartitionStrategy::NnzBalanced);
        assert_eq!(p.len(), 3);
        assert_eq!(*p.boundaries().last().unwrap(), 3);
    }

    #[test]
    fn empty_matrix_partitions_sanely() {
        let a = Csr::empty(5, 5);
        let p = Partition::part1d(&a, 3, PartitionStrategy::NnzBalanced);
        assert_eq!(*p.boundaries().last().unwrap(), 5);
        assert!((p.imbalance(&a) - 1.0).abs() < 1e-12);
        let total: usize = (0..p.len()).map(|i| p.rows(i).len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn uniform_matrix_balances_rows_too() {
        let mut c = Coo::new(40, 40);
        for r in 0..40 {
            c.push(r, (r + 1) % 40, 1.0);
            c.push(r, (r + 2) % 40, 1.0);
        }
        let a = c.to_csr(Dedup::Last);
        let p = Partition::part1d(&a, 4, PartitionStrategy::NnzBalanced);
        for i in 0..4 {
            assert_eq!(p.rows(i).len(), 10);
        }
        assert!((p.imbalance(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        let a = skewed(4, 1);
        let _ = Partition::part1d(&a, 0, PartitionStrategy::NnzBalanced);
    }

    /// Shard bands must be contiguous, monotone, and tile `0..m` with
    /// no gap or overlap — the invariant engine-level sharding stacks
    /// band outputs on.
    fn assert_tiles_exactly(p: &Partition, m: usize) {
        let b = p.boundaries();
        assert_eq!(b[0], 0, "first band starts at row 0");
        assert_eq!(*b.last().unwrap(), m, "last band ends at row m");
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "boundaries monotone");
        let covered: usize = (0..p.len()).map(|i| p.rows(i).len()).sum();
        assert_eq!(covered, m, "bands cover every row exactly once");
    }

    #[test]
    fn star_graph_concentrates_but_still_tiles() {
        // All nnz in one row (a star's hub): every cut lands right
        // after the hub and the remaining bands are empty, but they
        // still tile 0..m.
        let mut c = Coo::new(64, 64);
        for v in 1..64 {
            c.push(0, v, 1.0);
        }
        let a = c.to_csr(Dedup::Last);
        for parts in [1usize, 2, 4, 7, 64] {
            let p = Partition::part1d(&a, parts, PartitionStrategy::NnzBalanced);
            assert_tiles_exactly(&p, 64);
            let hub_part =
                (0..p.len()).find(|&i| p.rows(i).contains(&0)).expect("some band owns the hub");
            assert_eq!(p.part_nnz(&a, hub_part), a.nnz(), "hub band holds every nonzero");
        }
    }

    #[test]
    fn interspersed_empty_rows_tile_exactly() {
        // Rows 0, 3, 6, ... have degree 2; the rest are empty.
        let mut c = Coo::new(90, 90);
        for r in (0..90).step_by(3) {
            c.push(r, (r + 1) % 90, 1.0);
            c.push(r, (r + 2) % 90, 1.0);
        }
        let a = c.to_csr(Dedup::Last);
        for strategy in [PartitionStrategy::NnzBalanced, PartitionStrategy::RowBalanced] {
            for parts in [1usize, 3, 5, 8] {
                let p = Partition::part1d(&a, parts, strategy);
                assert_tiles_exactly(&p, 90);
                let nnz_covered: usize = (0..p.len()).map(|i| p.part_nnz(&a, i)).sum();
                assert_eq!(nnz_covered, a.nnz());
            }
        }
    }

    #[test]
    fn more_parts_than_rows_tiles_with_singleton_bands() {
        let a = skewed(5, 2);
        let p = Partition::part1d(&a, 100, PartitionStrategy::NnzBalanced);
        assert_eq!(p.len(), 5, "clamped to one band per row");
        assert_tiles_exactly(&p, 5);
        for i in 0..p.len() {
            assert!(p.rows(i).len() <= 1, "band {i} spans more than one row");
        }
    }

    #[test]
    fn all_empty_rows_tile_exactly() {
        let a = Csr::empty(12, 12);
        for parts in [1usize, 4, 12, 20] {
            let p = Partition::part1d(&a, parts, PartitionStrategy::NnzBalanced);
            assert_tiles_exactly(&p, 12);
        }
    }
}
