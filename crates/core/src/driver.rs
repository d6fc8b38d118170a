//! Shared thread-parallel driver: PART1D + pool tasks over row bands.
//!
//! Algorithm 1 lines 2–7: partition `A` (and with it `X` and `Z`) into
//! `t` parts, then process parts in parallel. Threads concurrently read
//! `Y` but each writes only its own contiguous band of `Z`, so no
//! synchronization is needed — expressed in Rust by handing each task a
//! disjoint `&mut` slice of `Z`'s backing storage.
//!
//! Where the bands execute is a separate decision from how they are
//! cut: a launch too small to repay waking a pool worker runs the same
//! bands one after the other on the calling thread (see
//! [`INLINE_LAUNCH_WORK`]).

use std::ops::Range;

use fusedmm_sparse::csr::Csr;

use crate::part::{Cuts, PartitionStrategy};

/// Launches with less work than this — `nnz(A) × d` multiply-adds, the
/// MOP+AOP sweep every pattern performs — run their bands on the
/// calling thread instead of the pool.
///
/// Derived from the pool's measured hand-off on the 2-vCPU reference
/// box. Pushing a task to a parked worker costs the caller ≈ 10 µs (the
/// wake-up system call); the worker starts 5 µs later when the
/// hypervisor is still polling for its vCPU and 60–70 µs later when it
/// is not; and the owner pays the same wake-up on the way back when it
/// finished its band first and parked. A pooled launch therefore spends
/// anything from ≈ 20 to ≈ 150 µs on hand-offs that an inline launch
/// does not make, and which of the two a process gets changes from one
/// minute to the next. With kernels at 25–45 ns per edge at d = 128,
/// 2²⁰ is 8192 such edges, a 200–400 µs kernel: below it the second
/// thread's best case saves about what the worst-case hand-off costs.
/// Only *where* bands execute depends on this constant; the partition,
/// and with it every output bit, does not.
///
/// A Force2Vec training step is not split here: its one launch
/// (≈ 5.4 k edges at batch 256, d = 128, 0.69 M work) stays under this
/// constant, and the trainer cuts the whole step — gather, step-matrix
/// build and launch — into row parts by its own rule,
/// `force2vec::SPLIT_STEP_WORK` (2¹⁸) in `fusedmm-apps`. Its sweep of
/// batch 32–512 at d = 32 and 128, one part against two, found parts
/// slower up to 0.17 M work (1.04–1.37× the inline step), even near
/// 0.34 M (0.91–0.98×) and faster at 0.69 M (0.78×); each part's launch
/// still runs inline under this threshold, which did not change.
pub const INLINE_LAUNCH_WORK: usize = 1 << 20;

/// Execute `body(rows, z_band, edge_band)` for every part of a 1D
/// partition of `a`, in parallel on the rayon pool (or, for launches
/// under [`INLINE_LAUNCH_WORK`], part by part on the calling thread).
/// `z` is the caller's row-major `a.nrows() × d` output and `z_band`
/// the mutable sub-slice of it covering exactly `rows`
/// (`z_band.len() == rows.len() * d`). `per_edge`, when given, is a
/// second output with one slot per stored entry of `a` (the SDDMM
/// scores); it is cut at the same row boundaries, so `edge_band` holds
/// the slots of `rows`' entries, `a.rowptr()[rows.start]` first. The
/// driver neither reads nor clears either output: what a band holds on
/// entry is whatever the caller left there, and `body` decides what
/// every row becomes.
///
/// The partition has one part per thread of the current rayon pool, as
/// in the paper where `t` parts feed `t` OpenMP threads; a caller picks
/// `t` by running under `ThreadPool::install`.
pub fn parallel_row_bands<F>(
    a: &Csr,
    z: &mut [f32],
    d: usize,
    per_edge: Option<&mut [f32]>,
    strategy: PartitionStrategy,
    body: F,
) where
    F: Fn(Range<usize>, &mut [f32], Option<&mut [f32]>) + Sync,
{
    let rowptr = a.rowptr();
    let degree = |r: usize| rowptr[r + 1] - rowptr[r];
    row_bands(a.nrows(), a.nnz(), degree, z, d, per_edge, strategy, body);
}

/// [`parallel_row_bands`] over any sequence of `rows` output rows whose
/// `i`-th sweeps `degree(i)` of `nnz` nonzeros — every row of a matrix,
/// or a launch's requested rows in request order. Inline launches run
/// their parts one after the other and allocate nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_bands<D, F>(
    rows: usize,
    nnz: usize,
    degree: D,
    z: &mut [f32],
    d: usize,
    per_edge: Option<&mut [f32]>,
    strategy: PartitionStrategy,
    body: F,
) where
    D: Fn(usize) -> usize,
    F: Fn(Range<usize>, &mut [f32], Option<&mut [f32]>) + Sync,
{
    let inline = nnz.saturating_mul(d) < INLINE_LAUNCH_WORK;
    placed_bands(rows, nnz, degree, z, d, per_edge, strategy, inline, body);
}

/// [`row_bands`] with the placement decided by the caller.
#[allow(clippy::too_many_arguments)]
fn placed_bands<D, F>(
    rows: usize,
    nnz: usize,
    degree: D,
    z: &mut [f32],
    d: usize,
    mut per_edge: Option<&mut [f32]>,
    strategy: PartitionStrategy,
    inline: bool,
    body: F,
) where
    D: Fn(usize) -> usize,
    F: Fn(Range<usize>, &mut [f32], Option<&mut [f32]>) + Sync,
{
    assert_eq!(z.len(), rows * d, "Z must have one row per row of A ({rows} rows of width {d})");
    if let Some(e) = &per_edge {
        assert_eq!(e.len(), nnz, "the per-edge output must have one slot per stored entry");
    }
    let t = rayon::current_num_threads().max(1);
    let cuts = Cuts::new(rows, nnz, &degree, t, strategy);

    // Carve Z (and the per-edge output) into disjoint bands following
    // the partition boundaries, one part at a time.
    let mut rest: &mut [f32] = z;
    let mut next_band = |part: Range<usize>| {
        let (band, tail) = std::mem::take(&mut rest).split_at_mut(part.len() * d);
        rest = tail;
        let edges = per_edge.take().map(|e| {
            let (band, tail) = e.split_at_mut(part.clone().map(&degree).sum());
            per_edge = Some(tail);
            band
        });
        (part, band, edges)
    };

    if inline || cuts.len() == 1 {
        for part in cuts {
            let (part, band, edges) = next_band(part);
            body(part, band, edges);
        }
        return;
    }

    rayon::scope(|scope| {
        for part in cuts {
            let (part, band, edges) = next_band(part);
            let body = &body;
            scope.spawn(move |_| body(part, band, edges));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::at_width;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use fusedmm_sparse::dense::Dense;

    fn ring(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn bands_cover_all_rows_exactly_once() {
        let a = ring(37);
        let mut z = Dense::zeros(37, 4);
        at_width(5, || {
            parallel_row_bands(
                &a,
                z.as_mut_slice(),
                4,
                None,
                PartitionStrategy::NnzBalanced,
                |rows, band, _| {
                    assert_eq!(band.len(), rows.len() * 4);
                    for (i, _r) in rows.enumerate() {
                        for k in 0..4 {
                            band[i * 4 + k] += 1.0;
                        }
                    }
                },
            )
        });
        assert!(z.as_slice().iter().all(|&v| v == 1.0), "every cell touched exactly once");
    }

    #[test]
    fn band_offsets_match_rows() {
        let a = ring(16);
        let mut z = Dense::zeros(16, 2);
        at_width(4, || {
            parallel_row_bands(
                &a,
                z.as_mut_slice(),
                2,
                None,
                PartitionStrategy::NnzBalanced,
                |rows, band, _| {
                    for (i, r) in rows.enumerate() {
                        band[i * 2] = r as f32;
                    }
                },
            )
        });
        for r in 0..16 {
            assert_eq!(z.get(r, 0), r as f32);
        }
    }

    #[test]
    fn single_partition_runs_inline() {
        let a = ring(8);
        let mut z = Dense::zeros(8, 1);
        at_width(1, || {
            parallel_row_bands(
                &a,
                z.as_mut_slice(),
                1,
                None,
                PartitionStrategy::RowBalanced,
                |rows, band, _| {
                    assert_eq!(rows, 0..8);
                    band.fill(2.0);
                },
            )
        });
        assert!(z.as_slice().iter().all(|&v| v == 2.0));
    }

    /// Placement is not allowed to matter: the same launch run inline
    /// and on the pool hands `body` the same row ranges and leaves the
    /// same bits in `z` — and in the per-edge output, whose bands start
    /// at their first row's `rowptr` entry.
    #[test]
    fn inline_and_pooled_placement_see_one_partition_and_equal_bits() {
        // Rows of 0..=3 entries, so bands end mid-`colidx` and some
        // rows own no slot.
        let mut c = Coo::new(101, 101);
        for u in 0..101usize {
            for k in 0..u % 4 {
                c.push(u, (u + 1 + k * 5) % 101, 1.0 + k as f32);
            }
        }
        let a = c.to_csr(Dedup::Last);
        let d = 3;
        let run = |inline: bool| {
            let mut z = Dense::zeros(101, d);
            let mut per_edge = vec![f32::NAN; a.nnz()];
            let seen = std::sync::Mutex::new(Vec::new());
            let nnz = PartitionStrategy::NnzBalanced;
            at_width(4, || {
                let rowptr = a.rowptr();
                placed_bands(
                    a.nrows(),
                    a.nnz(),
                    |r| rowptr[r + 1] - rowptr[r],
                    z.as_mut_slice(),
                    d,
                    Some(&mut per_edge),
                    nnz,
                    inline,
                    |rows, band, edges| {
                        seen.lock().unwrap().push(rows.clone());
                        let edges = edges.expect("a per-edge band for every z band");
                        let first = a.rowptr()[rows.start];
                        assert_eq!(edges.len(), a.rowptr()[rows.end] - first);
                        for (i, u) in rows.enumerate() {
                            let (cols, vals) = a.row(u);
                            for k in 0..d {
                                band[i * d + k] = (cols.len() as f32 + u as f32) / (k as f32 + 3.0);
                            }
                            for (j, (&v, &w)) in cols.iter().zip(vals).enumerate() {
                                edges[a.rowptr()[u] - first + j] = v as f32 * 0.5 + w;
                            }
                        }
                    },
                )
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|r| r.start);
            (seen, z, per_edge)
        };
        let (inline_parts, inline_z, inline_e) = run(true);
        let (pooled_parts, pooled_z, pooled_e) = run(false);
        assert_eq!(inline_parts.len(), 4);
        assert_eq!(inline_parts, pooled_parts);
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(inline_z.as_slice()), bits(pooled_z.as_slice()));
        assert_eq!(bits(&inline_e), bits(&pooled_e));
        let want: Vec<f32> = a.iter().map(|(_, v, w)| v as f32 * 0.5 + w).collect();
        assert_eq!(bits(&inline_e), bits(&want), "every slot written, in storage order");
    }

    #[test]
    fn small_launches_stay_on_the_calling_thread() {
        let a = ring(64);
        assert!(a.nnz() * 4 < INLINE_LAUNCH_WORK);
        let caller = std::thread::current().id();
        let mut z = Dense::zeros(64, 4);
        at_width(4, || {
            parallel_row_bands(
                &a,
                z.as_mut_slice(),
                4,
                None,
                PartitionStrategy::NnzBalanced,
                |_, band, _| {
                    assert_eq!(std::thread::current().id(), caller);
                    band.fill(1.0);
                },
            )
        });
        assert!(z.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "one row per row")]
    fn shape_mismatch_panics() {
        let a = ring(4);
        let mut z = Dense::zeros(3, 1);
        parallel_row_bands(
            &a,
            z.as_mut_slice(),
            1,
            None,
            PartitionStrategy::NnzBalanced,
            |_, _, _| {},
        );
    }
}
