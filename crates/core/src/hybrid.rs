//! Degree-aware hybrid execution for skewed graphs.
//!
//! Power-law degree distributions defeat a single row-shaped kernel: a
//! hub row with a million neighbors serializes an entire band on one
//! thread no matter how PART1D cuts the rest. This module classifies
//! rows by degree once per launch and schedules each class its own way
//! (everything below the mega threshold runs in one storage-order band
//! sweep; mega rows run as their own cooperative pass). It is a
//! *row-scheduling policy*, not a kernel level: both classes run the
//! one kernel family of [`crate::genkern::table`] at the one shape the
//! uniform launch would run ([`KernelSpec::default_for`]), at every
//! `d ≥ 1`:
//!
//! * **strip** (everything below the mega threshold) — the uniform row
//!   kernels, in storage order, so their look-ahead runs across rows;
//! * **mega** (`degree ≥ max(mega_floor, nnz/parts)`) — each row is
//!   executed cooperatively: phase A fills the row's message vector in
//!   parallel column chunks, phase B folds *all* messages into
//!   VLEN-aligned output spans, one thread per span
//!   (`span_spec_kernel`; the final span absorbs the sub-VLEN
//!   remainder at odd `d`).
//!
//! Every class preserves the uniform kernels' per-output-element
//! accumulation order — a sequential left-fold over the neighbors in
//! row storage order — so the hybrid result is bit-identical to the
//! uniform launch (asserted by the `genkern::table` tests and the
//! repo-level property suite). The mega split is fixed by the span
//! plan, never by thread timing. Each pass records its own
//! [`KernelProfile`](crate::profile::KernelProfile) row under the
//! `hybrid-strip` / `hybrid-mega` blocking labels.
//!
//! A third class — rows of degree < 4 gathered into staged batches
//! that shared one message buffer — was measured and removed: it won by
//! skipping a `z` load no row kernel performs any more, a staged row
//! cannot look ahead across rows (its successor is not adjacent in
//! storage), and at Graph500 skew it read 0.89–0.95× of the uniform
//! launch against 0.98–1.01× with the class off (`skew-sweep`, 21
//! interleaved rounds, both estimators; table in
//! `docs/ARCHITECTURE.md`, "Degree-aware hybrid execution").

use fusedmm_ops::OpSet;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::dispatch::Specialized;
use crate::driver::parallel_row_bands;
use crate::genkern::{
    embed_msg_kernel, embed_spec_kernel, entry_backend, fr_msg_kernel, fr_spec_kernel, lookahead,
    span_spec_kernel, spmm_spec_kernel, tdist_msg_kernel, tdist_spec_kernel, KernelSpec,
};
use crate::part::PartitionStrategy;
use crate::simd::{Backend, VLEN};

/// Column-chunk size for the mega-row message fill (phase A). Each
/// chunk is an independent SDDMM over a slice of the neighbor list, so
/// the value only trades scheduling overhead against load balance —
/// it never affects results.
const MSG_CHUNK: usize = 2048;

/// Phase-A message-fill shape (`xu`, neighbor slice, edge-value slice,
/// message slice); named so the SpMM arm can spell its absent fill
/// without a clippy type-complexity lint.
type MsgFill = fn(&[f32], &[usize], &[f32], &mut [f32]);

/// The degree threshold of [`Blocking::Hybrid`](crate::Blocking::Hybrid).
///
/// The mega threshold is adaptive: a row is mega when its degree
/// reaches `max(mega_floor, nnz/parts)` — i.e. when one row alone is at
/// least a whole thread's fair share of the work, the situation where
/// PART1D degenerates to a single-threaded band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HybridConfig {
    /// Lower bound on the mega threshold, so small test matrices do
    /// not classify ordinary rows as mega just because `nnz/parts` is
    /// tiny. Set it low (e.g. 32) to force the mega path in tests.
    pub mega_floor: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { mega_floor: 4096 }
    }
}

/// Run the two degree-class passes with the kernel shape `kspec`
/// (the one the uniform launch would run), overwriting every row of the
/// caller's `a.nrows() × d` output `z`. `backend` is the process's
/// backend, which the profile rows are labelled with.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    spec: &Specialized,
    cfg: HybridConfig,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    backend: Backend,
    kspec: KernelSpec,
    z: &mut [f32],
) {
    let d = x.ncols();
    let parts = partitions.unwrap_or_else(rayon::current_num_threads).max(1);
    let mega_min = cfg.mega_floor.max(a.nnz().div_ceil(parts)).max(1);
    let entry = entry_backend(backend, d);
    let sweep = span_spec_kernel(entry, kspec);

    match spec {
        Specialized::Embed(sk) => {
            let strip = embed_spec_kernel(entry, kspec);
            let msg = embed_msg_kernel(entry);
            run_passes(
                a,
                x,
                y,
                ops,
                d,
                mega_min,
                parts,
                partitions,
                strategy,
                backend,
                |u, ahead, zu| {
                    let (cols, vals) = a.row(u);
                    strip(x.row(u), cols, vals, ahead, y, zu, None, sk)
                },
                Some(|xu: &[f32], cols: &[usize], vals: &[f32], h: &mut [f32]| {
                    msg(xu, cols, vals, y, sk, h)
                }),
                sweep,
                z,
            )
        }
        Specialized::Fr(alpha) => {
            let alpha = *alpha;
            let strip = fr_spec_kernel(entry, kspec);
            let msg = fr_msg_kernel(entry);
            run_passes(
                a,
                x,
                y,
                ops,
                d,
                mega_min,
                parts,
                partitions,
                strategy,
                backend,
                |u, ahead, zu| {
                    let (cols, vals) = a.row(u);
                    strip(x.row(u), cols, vals, ahead, y, zu, None, alpha)
                },
                Some(|xu: &[f32], cols: &[usize], vals: &[f32], h: &mut [f32]| {
                    msg(xu, cols, vals, y, alpha, h)
                }),
                sweep,
                z,
            )
        }
        Specialized::TDist => {
            let strip = tdist_spec_kernel(entry, kspec);
            let msg = tdist_msg_kernel(entry);
            run_passes(
                a,
                x,
                y,
                ops,
                d,
                mega_min,
                parts,
                partitions,
                strategy,
                backend,
                |u, ahead, zu| {
                    let (cols, vals) = a.row(u);
                    strip(x.row(u), cols, vals, ahead, y, zu, None)
                },
                Some(|xu: &[f32], cols: &[usize], vals: &[f32], h: &mut [f32]| {
                    msg(xu, cols, vals, y, h)
                }),
                sweep,
                z,
            )
        }
        Specialized::Spmm => {
            let strip = spmm_spec_kernel(entry, kspec);
            // SpMM's messages are the stored edge values: no phase A.
            let msg: Option<MsgFill> = None;
            run_passes(
                a,
                x,
                y,
                ops,
                d,
                mega_min,
                parts,
                partitions,
                strategy,
                backend,
                |u, _, zu| {
                    let (cols, vals) = a.row(u);
                    strip(cols, vals, y, zu)
                },
                msg,
                sweep,
                z,
            )
        }
    }
}

/// Shared two-pass orchestration, generic over the pattern-specific
/// kernels: `strip_row(u, ahead, z_u)` runs row `u` through the row
/// kernel with its look-ahead stream, `msg_fill` is `None` for SpMM,
/// whose message vector is the row's stored values.
#[allow(clippy::too_many_arguments)]
fn run_passes<S, M>(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    d: usize,
    mega_min: usize,
    parts: usize,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    backend: Backend,
    strip_row: S,
    msg_fill: Option<M>,
    sweep: crate::genkern::SpanSweepKernel,
    z: &mut [f32],
) where
    S: Fn(usize, &[usize], &mut [f32]) + Sync,
    M: Fn(&[f32], &[usize], &[f32], &mut [f32]) + Sync,
{
    // One census pass over the row pointers — degrees are re-derived
    // from `rowptr` everywhere below (one subtraction on data the
    // kernel streams anyway) rather than materialized into a side
    // array, which would add a whole extra memory stream to the sweep.
    let (mut strip_rows, mut strip_edges) = (0usize, 0usize);
    let (mut mega_rows, mut mega_edges) = (0usize, 0usize);
    for w in a.rowptr().windows(2) {
        let deg = w[1] - w[0];
        if deg == 0 {
            continue;
        }
        if deg < mega_min {
            strip_rows += 1;
            strip_edges += deg;
        } else {
            mega_rows += 1;
            mega_edges += deg;
        }
    }

    // Pass 1: every row below the mega threshold, in row-storage order,
    // through the uniform row kernel — which overwrites its row (zeros
    // for a zero-degree one) and looks ahead into the rows that follow
    // it in the band. Mega rows are left to pass 2, whose span sweeps
    // overwrite them. The recorded time is the slowest band: what a
    // wall clock around the pass would read under PART1D.
    let strip_ns = std::sync::atomic::AtomicU64::new(0);
    parallel_row_bands(a, z, d, None, partitions, strategy, |rows, band, _| {
        let t0 = std::time::Instant::now();
        let (rowptr, band_end) = (a.rowptr(), a.rowptr()[rows.end]);
        for (i, u) in rows.enumerate() {
            if a.row_nnz(u) < mega_min {
                let ahead = lookahead(a.colidx(), rowptr[u], band_end);
                strip_row(u, ahead, &mut band[i * d..(i + 1) * d]);
            }
        }
        strip_ns.fetch_max(t0.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
    });
    // The strip row is always recorded, even when empty, so the profile
    // table shows the hybrid launch happened.
    crate::profile::record_kernel(
        ops.pattern,
        d,
        backend,
        "hybrid-strip",
        std::time::Duration::from_nanos(strip_ns.into_inner()),
        strip_rows,
        strip_edges,
    );

    // Pass 2: mega rows, one at a time, all threads cooperating.
    if mega_rows > 0 {
        let t0 = std::time::Instant::now();
        let panels = d / VLEN;
        let nspans = parts.min(panels).max(1);
        // At odd d the panels don't cover the row; the final span
        // absorbs the sub-VLEN remainder (the spec sweep's masked tail
        // finishes it, keeping the per-element fold order fixed).
        let rem = d - panels * VLEN;
        for u in 0..a.nrows() {
            if a.row_nnz(u) < mega_min {
                continue;
            }
            let (cols, vals) = a.row(u);
            // Phase A: fill the message vector in independent column
            // chunks (pure SDDMM, no cross-chunk dependency).
            let h_owned: Vec<f32>;
            let h: &[f32] = if let Some(msg) = &msg_fill {
                let xu = x.row(u);
                let mut buf = vec![0f32; cols.len()];
                rayon::scope(|s| {
                    let mut rest: &mut [f32] = &mut buf;
                    let mut off = 0usize;
                    while !rest.is_empty() {
                        let take = rest.len().min(MSG_CHUNK);
                        let (chunk, tail) = rest.split_at_mut(take);
                        let (ccols, cvals) = (&cols[off..off + take], &vals[off..off + take]);
                        s.spawn(move |_| msg(xu, ccols, cvals, chunk));
                        rest = tail;
                        off += take;
                    }
                });
                h_owned = buf;
                &h_owned
            } else {
                vals
            };
            // Phase B: each thread folds every message into its own
            // VLEN-aligned span of z_u. The span plan is a pure
            // function of (d, parts), so the per-element fold order —
            // all neighbors, storage order — never depends on timing.
            let zu = &mut z[u * d..(u + 1) * d];
            rayon::scope(|s| {
                let mut rest = zu;
                let mut off = 0usize;
                for t in 0..nspans {
                    let mut w = (panels * (t + 1) / nspans - panels * t / nspans) * VLEN;
                    if t == nspans - 1 {
                        w += rem;
                    }
                    if w == 0 {
                        continue;
                    }
                    let (span, tail) = rest.split_at_mut(w);
                    s.spawn(move |_| sweep(cols, h, y, span, off));
                    rest = tail;
                    off += w;
                }
            });
        }
        crate::profile::record_kernel(
            ops.pattern,
            d,
            backend,
            "hybrid-mega",
            t0.elapsed(),
            mega_rows,
            mega_edges,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{fusedmm_opt_with, Blocking};
    use fusedmm_sparse::coo::{Coo, Dedup};

    /// A skewed graph: one hub adjacent to everyone, a mid-degree
    /// block, and a long tail of degree-1..3 rows — plus empty rows.
    fn skewed(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for v in 1..n {
            c.push(0, v, 0.5 + (v % 7) as f32 * 0.1);
        }
        for u in 1..n / 4 {
            for k in 1..=12usize {
                c.push(u, (u * 3 + k * 5) % n, 1.0 + k as f32 * 0.05);
            }
        }
        for u in n / 4..n - n / 8 {
            for k in 1..=(u % 3 + 1) {
                c.push(u, (u + k * 11) % n, 0.75);
            }
        }
        // rows in n-n/8..n stay empty
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 17 + c * 3) as f32 * 0.013 + seed).sin() * 0.4)
    }

    #[test]
    fn hybrid_bit_identical_to_uniform_all_patterns() {
        // 8 and 32 are dims hybrid used to decline (it ran the uniform
        // path there); 20 and 100 end in the masked tail.
        let n = 96;
        let a = skewed(n);
        let cfg = HybridConfig { mega_floor: 32 };
        for d in [8usize, 20, 32, 48, 96, 100] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            for ops in [
                OpSet::sigmoid_embedding(None),
                OpSet::fr_model(0.4),
                OpSet::tdist_embedding(),
                OpSet::gcn(),
            ] {
                for parts in [1usize, 2, 4] {
                    let base = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        Blocking::Auto,
                        Some(parts),
                        PartitionStrategy::NnzBalanced,
                    );
                    let hybrid = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        Blocking::Hybrid(cfg),
                        Some(parts),
                        PartitionStrategy::NnzBalanced,
                    );
                    assert_eq!(
                        base.as_slice(),
                        hybrid.as_slice(),
                        "{:?} d={d} parts={parts} not bit-identical",
                        ops.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn star_graph_takes_the_mega_path_and_matches() {
        // One row holds every edge: with a low mega floor the hub is
        // mega-class and split across spans.
        let n = 300;
        let mut c = Coo::new(n, n);
        for v in 1..n {
            c.push(0, v, 1.0);
        }
        let a = c.to_csr(Dedup::Last);
        // The profile table is process-global and sibling tests launch
        // concurrently: read it at a d only this test uses.
        let d = 104;
        let x = feats(n, d, 0.1);
        let y = feats(n, d, 0.9);
        let cfg = HybridConfig { mega_floor: 32 };
        let ops = OpSet::sigmoid_embedding(None);
        let base = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &ops,
            Blocking::Auto,
            Some(4),
            PartitionStrategy::NnzBalanced,
        );
        let hybrid = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &ops,
            Blocking::Hybrid(cfg),
            Some(4),
            PartitionStrategy::NnzBalanced,
        );
        assert_eq!(base.as_slice(), hybrid.as_slice());
        let labels: Vec<&'static str> = crate::profile::kernel_profiles()
            .iter()
            .filter(|p| p.d == d)
            .map(|p| p.blocking)
            .collect();
        assert!(labels.contains(&"hybrid-mega"), "mega pass not profiled: {labels:?}");
    }

    #[test]
    fn hybrid_is_profiled_as_hybrid_and_equals_every_uniform_shape() {
        let n = 96;
        let a = skewed(n);
        let d = 72; // no other test of this crate launches at d = 72
        let x = feats(n, d, 0.2);
        let y = feats(n, d, 0.8);
        let ops = OpSet::gcn();
        let cfg = HybridConfig { mega_floor: 32 };
        let nnz = PartitionStrategy::NnzBalanced;
        let hybrid = fusedmm_opt_with(&a, &x, &y, &ops, Blocking::Hybrid(cfg), Some(2), nnz);
        for p in crate::profile::kernel_profiles().iter().filter(|p| p.d == d) {
            assert!(p.blocking.starts_with("hybrid-"), "{p:?}");
        }
        for s in crate::genkern::candidate_specs(crate::simd::active_backend().lanes(), d, false) {
            let named = fusedmm_opt_with(&a, &x, &y, &ops, Blocking::Specialized(s), Some(2), nnz);
            assert_eq!(named.as_slice(), hybrid.as_slice(), "{}", s.label());
        }
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let a = Csr::empty(10, 10);
        let x = feats(10, 48, 0.1);
        let y = feats(10, 48, 0.2);
        let z = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &OpSet::gcn(),
            Blocking::Hybrid(HybridConfig::default()),
            Some(2),
            PartitionStrategy::NnzBalanced,
        );
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn profile_records_per_class_rows() {
        let n = 64;
        let a = skewed(n);
        let d = 88; // only this test launches at d = 88
        let x = feats(n, d, 0.3);
        let y = feats(n, d, 0.6);
        let _ = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &OpSet::gcn(),
            Blocking::Hybrid(HybridConfig { mega_floor: 16 }),
            Some(2),
            PartitionStrategy::NnzBalanced,
        );
        let profiles = crate::profile::kernel_profiles();
        let total_edges: u64 = profiles
            .iter()
            .filter(|p| p.d == d && p.blocking.starts_with("hybrid-"))
            .map(|p| p.edges)
            .sum();
        assert_eq!(total_edges, a.nnz() as u64, "classes must partition the edges: {profiles:?}");
    }
}
