//! Row-subset FusedMM: compute only the requested output rows.
//!
//! Serving traffic rarely wants the whole graph — a request asks for a
//! few target vertices ("refresh the embeddings of these 64 users").
//! [`fusedmm_rows`] answers that by gathering the requested rows of `A`
//! and `X` into a compact rectangular slice (the paper's §II minibatch
//! setting: a `batch × n` slice of the adjacency matrix whose column
//! space — and therefore `Y` — stays global) and running the same
//! PART1D band driver and specialized kernels over it. Work is
//! proportional to the subset's nonzeros, not the graph's.
//!
//! The subset may be in any order and may contain duplicates; output
//! row `i` always corresponds to `rows[i]`.

use fusedmm_ops::OpSet;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::slice::{gather_rows, slice_rows};

use crate::dispatch::{fusedmm_opt_with, Blocking};
use crate::generic::validate_shapes;
use crate::part::PartitionStrategy;

/// `out[i, :] = FusedMM(A, X, Y)[rows[i], :]`, computing only the
/// requested rows, with the kernel shape [`crate::fusedmm`] runs
/// ([`Blocking::Auto`]) on the detected SIMD backend.
///
/// # Panics
/// Panics when the full-problem shapes are inconsistent or any
/// requested row is out of range.
pub fn fusedmm_rows(a: &Csr, rows: &[usize], x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    fusedmm_rows_with(a, rows, x, y, ops, Blocking::Auto, None, PartitionStrategy::NnzBalanced)
}

/// [`fusedmm_rows`] with explicit blocking, partition count, and
/// partition strategy — the entry point a precomputed
/// [`Plan`](crate::plan::Plan) drives.
#[allow(clippy::too_many_arguments)]
pub fn fusedmm_rows_with(
    a: &Csr,
    rows: &[usize],
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
) -> Dense {
    validate_shapes(a, x, y);
    fusedmm_rows_banded(a, 0, rows, x, 0, y, ops, blocking, partitions, strategy)
}

/// Row-subset FusedMM against a **row band** of a larger matrix: the
/// PART1D shard shape (see [`fusedmm_sparse::csr::Csr::row_band`]).
///
/// `a_band` stores global rows `band_start..band_start + a_band.nrows()`
/// under local indices while its columns — and therefore `y` — stay
/// global. `x` holds global rows `x_start..x_start + x.nrows()` and must
/// cover the band: the full feature matrix shared by every in-process
/// shard passes `x_start = 0`, a replica holding only its band's rows
/// passes `x_start = band_start`. `rows` are **global** vertex ids that
/// must fall inside the band. Output row `i` corresponds to `rows[i]`,
/// bit-identical to the same rows of the unsharded kernel (each output
/// row is computed independently, in the same column order, from the
/// same `x` row wherever `x` starts).
///
/// # Panics
/// Panics when shapes are inconsistent, `x` does not cover the band, or
/// a requested row falls outside the band.
#[allow(clippy::too_many_arguments)]
pub fn fusedmm_rows_banded(
    a_band: &Csr,
    band_start: usize,
    rows: &[usize],
    x: &Dense,
    x_start: usize,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
) -> Dense {
    let Some(local) = check_band(a_band, band_start, rows, x, x_start, y) else {
        return Dense::zeros(0, x.ncols());
    };
    let mb = slice_rows(a_band, &local);
    let xb = gather_x(x, x_start, band_start, rows, &local);
    fusedmm_opt_with(&mb.adj, &xb, y, ops, blocking, partitions, strategy)
}

/// [`fusedmm_rows_banded`] over each requested row's `k` strongest
/// neighbors only — the serving engine's `TopKNeighbors` degraded
/// tier. The truncation
/// ([`Csr::top_k_by_weight`]) is applied to the *sliced* minibatch, so
/// its cost is O(subset nnz), not O(graph nnz); work and accuracy both
/// degrade gracefully with `k`. Rows whose degree is already ≤ `k`
/// come out bit-identical to the exact path.
///
/// # Panics
/// Same contract as [`fusedmm_rows_banded`], `x_start` included.
#[allow(clippy::too_many_arguments)]
pub fn fusedmm_rows_banded_topk(
    a_band: &Csr,
    band_start: usize,
    rows: &[usize],
    k: usize,
    x: &Dense,
    x_start: usize,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
) -> Dense {
    let Some(local) = check_band(a_band, band_start, rows, x, x_start, y) else {
        return Dense::zeros(0, x.ncols());
    };
    let mb = slice_rows(a_band, &local);
    let truncated = mb.adj.top_k_by_weight(k);
    let xb = gather_x(x, x_start, band_start, rows, &local);
    fusedmm_opt_with(&truncated, &xb, y, ops, blocking, partitions, strategy)
}

/// The `x` rows of global ids `rows` (band-local ids `local`), where
/// `x`'s row 0 is global row `x_start`. No index vector is built when
/// `x` starts at row 0 or at the band, the two layouts callers hold.
fn gather_x(
    x: &Dense,
    x_start: usize,
    band_start: usize,
    rows: &[usize],
    local: &[usize],
) -> Dense {
    if x_start == 0 {
        gather_rows(x, rows)
    } else if x_start == band_start {
        gather_rows(x, local)
    } else {
        gather_rows(x, &rows.iter().map(|&u| u - x_start).collect::<Vec<_>>())
    }
}

/// Validate the band-call contract shared by the exact and top-k row
/// paths, and map global `rows` to band-local indices. `None` for an
/// empty subset (the caller returns zero rows).
fn check_band(
    a_band: &Csr,
    band_start: usize,
    rows: &[usize],
    x: &Dense,
    x_start: usize,
    y: &Dense,
) -> Option<Vec<usize>> {
    let band_end = band_start + a_band.nrows();
    let x_end = x_start + x.nrows();
    assert!(
        x_start <= band_start && band_end <= x_end,
        "X must cover the band: rows {x_start}..{x_end} do not cover {band_start}..{band_end}"
    );
    assert_eq!(y.nrows(), a_band.ncols(), "Y must have one row per (global) column of the band");
    assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
    if rows.is_empty() {
        return None;
    }
    Some(
        rows.iter()
            .map(|&u| {
                assert!(
                    (band_start..band_end).contains(&u),
                    "row {u} out of range for band {band_start}..{band_end}"
                );
                u - band_start
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::fusedmm_reference;
    use fusedmm_ops::OpSet;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn graph(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=4usize {
                c.push(u, (u * 3 + k * 5) % n, 0.5 + k as f32 * 0.25);
            }
        }
        c.to_csr(Dedup::Sum)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 7 + c * 3) as f32 * 0.05 + seed).sin() * 0.6)
    }

    #[test]
    fn subset_rows_match_full_kernel_rows() {
        let n = 50;
        let a = graph(n);
        let d = 24;
        let x = feats(n, d, 0.2);
        let y = feats(n, d, 0.8);
        for ops in [OpSet::sigmoid_embedding(None), OpSet::gcn(), OpSet::fr_model(0.4)] {
            let full = fusedmm_reference(&a, &x, &y, &ops);
            let rows = [0usize, 17, 3, 49, 3, 25];
            let z = fusedmm_rows(&a, &rows, &x, &y, &ops);
            assert_eq!(z.nrows(), rows.len());
            for (i, &u) in rows.iter().enumerate() {
                for k in 0..d {
                    assert!(
                        (z.get(i, k) - full.get(u, k)).abs() < 1e-5,
                        "row {u} lane {k} ({:?})",
                        ops.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn named_shape_subset_matches_full_kernel_at_serving_dims() {
        let n = 40;
        let a = graph(n);
        let d = 48;
        let x = feats(n, d, 0.15);
        let y = feats(n, d, 0.75);
        let ops = OpSet::sigmoid_embedding(None);
        let full = fusedmm_reference(&a, &x, &y, &ops);
        let rows = [5usize, 0, 39, 5, 21];
        let z = fusedmm_rows_with(
            &a,
            &rows,
            &x,
            &y,
            &ops,
            Blocking::Specialized(crate::genkern::KernelSpec::new(6, 16).unwrap()),
            Some(2),
            PartitionStrategy::NnzBalanced,
        );
        for (i, &u) in rows.iter().enumerate() {
            for k in 0..d {
                assert!((z.get(i, k) - full.get(u, k)).abs() < 1e-4, "row {u} lane {k}");
            }
        }
    }

    #[test]
    fn banded_subset_matches_unsharded_rows() {
        let n = 48;
        let a = graph(n);
        let d = 16;
        let x = feats(n, d, 0.25);
        let y = feats(n, d, 0.65);
        let ops = OpSet::sigmoid_embedding(None);
        let full = fusedmm_reference(&a, &x, &y, &ops);
        let (lo, hi) = (13usize, 37usize);
        let band = a.row_band(lo..hi);
        // Global ids inside the band, out of order, with a duplicate.
        let rows = [20usize, 13, 36, 20, 29];
        let z = fusedmm_rows_banded(
            &band,
            lo,
            &rows,
            &x,
            0,
            &y,
            &ops,
            Blocking::Auto,
            None,
            PartitionStrategy::NnzBalanced,
        );
        for (i, &u) in rows.iter().enumerate() {
            for k in 0..d {
                assert!((z.get(i, k) - full.get(u, k)).abs() < 1e-5, "row {u} lane {k}");
            }
        }
        // X holding only the band's rows (or a few more), at its
        // offset: the same rows are read, so the output is the same
        // bits, exact and top-k alike.
        for x_start in [lo, lo - 3] {
            let xb = Dense::from_rows(hi - x_start, d, &x.as_slice()[x_start * d..hi * d]).unwrap();
            let banded = fusedmm_rows_banded(
                &band,
                lo,
                &rows,
                &xb,
                x_start,
                &y,
                &ops,
                Blocking::Auto,
                None,
                PartitionStrategy::NnzBalanced,
            );
            assert_eq!(banded.as_slice(), z.as_slice(), "X from row {x_start}");
            for k in [2, n] {
                let run = |x: &Dense, x_start: usize| {
                    fusedmm_rows_banded_topk(
                        &band,
                        lo,
                        &rows,
                        k,
                        x,
                        x_start,
                        &y,
                        &ops,
                        Blocking::Auto,
                        None,
                        PartitionStrategy::NnzBalanced,
                    )
                };
                let (whole, part) = (run(&x, 0), run(&xb, x_start));
                assert_eq!(whole.as_slice(), part.as_slice(), "top-{k}, X from row {x_start}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "X must cover the band")]
    fn banded_rejects_an_x_that_misses_the_band() {
        let a = graph(20);
        let x = feats(10, 8, 0.0);
        let y = feats(20, 8, 0.0);
        let band = a.row_band(5..15);
        // `x` holds global rows 6..16: row 5 is missing.
        let _ = fusedmm_rows_banded(
            &band,
            5,
            &[10],
            &x,
            6,
            &y,
            &OpSet::gcn(),
            Blocking::Auto,
            None,
            PartitionStrategy::NnzBalanced,
        );
    }

    #[test]
    #[should_panic(expected = "out of range for band")]
    fn banded_rejects_rows_outside_the_band() {
        let a = graph(20);
        let x = feats(20, 8, 0.0);
        let y = feats(20, 8, 0.0);
        let band = a.row_band(5..15);
        let _ = fusedmm_rows_banded(
            &band,
            5,
            &[4],
            &x,
            0,
            &y,
            &OpSet::gcn(),
            Blocking::Auto,
            None,
            PartitionStrategy::NnzBalanced,
        );
    }

    #[test]
    fn topk_truncation_matches_kernel_over_truncated_graph() {
        let n = 48;
        let a = graph(n);
        let d = 16;
        let x = feats(n, d, 0.25);
        let y = feats(n, d, 0.65);
        let ops = OpSet::sigmoid_embedding(None);
        let (lo, hi) = (10usize, 40usize);
        let band = a.row_band(lo..hi);
        let rows = [12usize, 39, 10, 12, 25];
        let k = 2;
        let z = fusedmm_rows_banded_topk(
            &band,
            lo,
            &rows,
            k,
            &x,
            0,
            &y,
            &ops,
            Blocking::Auto,
            None,
            PartitionStrategy::NnzBalanced,
        );
        // Reference: exact row kernel over the globally-truncated graph
        // (slicing and truncating commute — both act per row).
        let truncated = a.top_k_by_weight(k);
        let full = fusedmm_reference(&truncated, &x, &y, &ops);
        for (i, &u) in rows.iter().enumerate() {
            for c in 0..d {
                assert!((z.get(i, c) - full.get(u, c)).abs() < 1e-5, "row {u} lane {c}");
            }
        }
        // A k covering every degree reproduces the exact path exactly.
        let exact = fusedmm_rows_banded(
            &band,
            lo,
            &rows,
            &x,
            0,
            &y,
            &ops,
            Blocking::Auto,
            None,
            PartitionStrategy::NnzBalanced,
        );
        let via_topk = fusedmm_rows_banded_topk(
            &band,
            lo,
            &rows,
            n,
            &x,
            0,
            &y,
            &ops,
            Blocking::Auto,
            None,
            PartitionStrategy::NnzBalanced,
        );
        assert_eq!(via_topk.as_slice(), exact.as_slice(), "k ≥ max degree is bit-identical");
    }

    #[test]
    fn empty_subset_yields_zero_rows() {
        let a = graph(10);
        let x = feats(10, 8, 0.1);
        let y = feats(10, 8, 0.2);
        let z = fusedmm_rows(&a, &[], &x, &y, &OpSet::gcn());
        assert_eq!((z.nrows(), z.ncols()), (0, 8));
    }

    #[test]
    fn all_rows_in_order_equals_full_run() {
        let n = 30;
        let a = graph(n);
        let x = feats(n, 16, 0.3);
        let y = feats(n, 16, 0.6);
        let all: Vec<usize> = (0..n).collect();
        let ops = OpSet::sigmoid_embedding(None);
        let z = fusedmm_rows(&a, &all, &x, &y, &ops);
        let full = fusedmm_reference(&a, &x, &y, &ops);
        assert!(z.max_abs_diff(&full) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let a = graph(5);
        let x = feats(5, 4, 0.0);
        let y = feats(5, 4, 0.0);
        let _ = fusedmm_rows(&a, &[7], &x, &y, &OpSet::gcn());
    }
}
