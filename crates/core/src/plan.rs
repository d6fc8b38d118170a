//! Kernel execution plans and the one launch.
//!
//! A [`Plan`] is the per-launch dispatch decision lifted into a value:
//! prepare it once — a pure function of `(pattern, d, backend)`, nothing
//! is measured, so it is the same on every process start, and it costs
//! one lookup of the kernel-profile row its launches add to — then
//! launch through it and read from it which kernel a request ran. [`Plan::launch`] is the library's one launch: which rows
//! it computes, where they sit, and whether the SDDMM scores come back
//! are the [`Launch`] descriptor, not separate entry points.

use fusedmm_ops::{OpSet, Pattern};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::slice::slice_rows;

use crate::dispatch::{specialize, Blocking, RowMap};
use crate::generic::{validate_scores, validate_shapes};
use crate::part::PartitionStrategy;
use crate::profile::ProfileSlot;
use crate::simd::{active_backend, Backend};

/// Which rows a [`Plan::launch`] computes, and what else it hands back.
#[derive(Debug)]
pub enum Launch<'a> {
    /// Every row of `a`: `z` is the row-major `a.nrows() × d` output.
    ///
    /// With `scores`, the launch also hands back the SDDMM scores — in
    /// the paper's five steps the score of edge `(u, v)` is `s_uv =
    /// ROP(VOP(x_u, y_v))`, the value the SOP consumes: `x_u · y_v` for
    /// the sigmoid family ([`OpSet::nce_gradient`] included), `‖x_u −
    /// y_v‖` for the FR and t-distribution models. `scores` has one slot
    /// per stored entry of `a`, in storage order
    /// (`scores[a.rowptr()[u] + i]` belongs to the `i`-th entry of row
    /// `u`; duplicate and unsorted columns keep their own slots). As for `z`, **every slot
    /// is overwritten** and nothing the buffer held is read (a
    /// zero-degree row owns no slot). The sink cannot move the output:
    /// `z` is `to_bits`-equal to the unscored launch, and the scores do
    /// not depend on the kernel shape, the pool width or where the bands
    /// run. [`Blocking::Generic`] honours the sink (it is the oracle the
    /// kernels are checked against, to rounding).
    All {
        /// The per-edge score output, if wanted.
        scores: Option<&'a mut [f32]>,
    },
    /// Global rows `ids` of a row band — the serving path. `a` stores
    /// global rows `start..start + a.nrows()` under local indices while
    /// its columns (and therefore `y`) stay global: the PART1D shard
    /// shape of [`Csr::row_band`], the whole graph at `start = 0`. `x`
    /// holds global rows `x_start..x_start + x.nrows()` and must cover
    /// the band: the whole feature matrix at `x_start = 0`, a replica's
    /// band of it at `x_start = start`.
    ///
    /// `ids` may come in any order and repeat; `z` is `ids.len() × d`
    /// and its row `i` is global row `ids[i]`, bit-identical to that row
    /// of an [`All`](Launch::All) launch over the whole graph (each
    /// output row is computed independently, in the same column order,
    /// from the same `x` row wherever `x` starts). Work is proportional
    /// to the subset's nonzeros, and the rows are read in place: each
    /// row kernel runs over its row of `a` and its row of `x` where they
    /// are stored and writes `z`'s row once, so a launch on the calling
    /// thread allocates nothing. While one row runs, the next rows'
    /// column ids, `x` row and first neighbours' `y` rows are requested
    /// (the look-ahead a contiguous launch gets from its column stream).
    /// A launch big enough for the pool cuts the id list into parts of
    /// equal nonzeros, as PART1D cuts a matrix.
    ///
    /// With `top_k`, each row aggregates only its `k` strongest
    /// neighbors ([`Csr::top_k_by_weight`], applied to a slice of the
    /// requested rows, so it costs O(subset nnz)) — the serving engine's
    /// `TopKNeighbors` degraded tier. Rows whose degree is at most `k`
    /// come out bit-identical to the exact launch.
    Rows {
        /// Global ids of the rows to compute; each inside the band.
        ids: &'a [usize],
        /// Global id of `a`'s row 0.
        start: usize,
        /// Global id of `x`'s row 0.
        x_start: usize,
        /// Keep only each row's `k` strongest neighbors.
        top_k: Option<usize>,
    },
}

/// A frozen kernel configuration for one (pattern, dimension): which
/// kernel to run — for a recognized pattern one shape of the kernel
/// table ([`Blocking::Specialized`]) — which SIMD backend executes it,
/// and how PART1D cuts rows into parts (one part per thread of the
/// current pool).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pattern: Pattern,
    d: usize,
    blocking: Blocking,
    backend: Backend,
    strategy: PartitionStrategy,
    /// The kernel-profile row every launch of this plan adds to.
    profile: ProfileSlot,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("pattern", &self.pattern)
            .field("d", &self.d)
            .field("blocking", &self.blocking)
            .field("backend", &self.backend)
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl Plan {
    /// The library-default plan for `ops` at dimension `d`:
    /// [`Plan::with_blocking`] under [`Blocking::Auto`] and PART1D
    /// nnz-balanced partitioning.
    pub fn prepare(ops: &OpSet, d: usize) -> Plan {
        Plan::with_blocking(ops, d, Blocking::Auto, PartitionStrategy::NnzBalanced)
    }

    /// Build a plan with an explicit blocking choice, resolved here,
    /// once, to the kernel every launch runs — so [`Plan::blocking`]
    /// always names it. [`Blocking::Auto`] becomes the default shape of
    /// a recognized pattern ([`Blocking::Specialized`]); an operator set
    /// no specialized kernel recognizes runs the generic kernel whatever
    /// was asked for, and the plan says [`Blocking::Generic`].
    pub fn with_blocking(
        ops: &OpSet,
        d: usize,
        blocking: Blocking,
        strategy: PartitionStrategy,
    ) -> Plan {
        let backend = active_backend();
        let blocking = match (blocking, specialize(ops)) {
            (_, None) => Blocking::Generic,
            (Blocking::Auto, Some(sp)) => Blocking::Specialized(sp.default_spec(d, backend)),
            (named, Some(_)) => named,
        };
        let kernel = match blocking {
            Blocking::Specialized(spec) => spec.label(),
            _ => "generic",
        };
        let profile = ProfileSlot::of(ops.pattern, d, backend, kernel);
        Plan { pattern: ops.pattern, d, blocking, backend, strategy, profile }
    }

    /// The operator pattern this plan was prepared for.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The embedding dimension this plan was prepared for.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The frozen kernel choice (never [`Blocking::Auto`]).
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// The SIMD backend that executes this plan — recorded at
    /// preparation time for observability; kernels always run on the
    /// process-wide [`active_backend`].
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The frozen partition strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// `Z = FusedMM(A, X, Y)` over the rows `rows` names, into the
    /// caller-owned row-major `z`. **Every row of `z` is overwritten**
    /// and nothing it held is read: each row kernel starts its fold from
    /// `+0.0` and a zero-degree row stores zeros, so the result is
    /// bit-identical to running into a zeroed buffer, without the
    /// zero-fill, the read-back or a fresh allocation's page faults. A
    /// caller that launches repeatedly keeps one `z`.
    ///
    /// Rows are cut into one PART1D part per thread of the current rayon
    /// pool (run under `ThreadPool::install` to pick the width); the cut
    /// decides where rows run, never an output bit.
    ///
    /// # Panics
    /// Panics when `ops` or `x`'s width disagree with what the plan was
    /// prepared for; on any operand shape mismatch (`z` of the wrong
    /// length included); for [`Launch::All`] with scores, when
    /// `scores.len() != a.nnz()` or the operator set has no ROP
    /// (GCN/SpMM, GNN-MLP: no per-edge scalar exists); for
    /// [`Launch::Rows`], when `x` does not cover the band or an id falls
    /// outside it.
    pub fn launch(
        &self,
        a: &Csr,
        x: &Dense,
        y: &Dense,
        ops: &OpSet,
        rows: Launch<'_>,
        z: &mut [f32],
    ) {
        self.check(ops, x);
        match rows {
            Launch::All { scores } => {
                validate_shapes(a, x, y);
                if let Some(s) = &scores {
                    validate_scores(a, ops, s);
                }
                crate::dispatch::run(self, a, x, y, ops, RowMap::All, z, scores);
            }
            Launch::Rows { ids, start, x_start, top_k } => {
                check_band(a, start, ids, x, x_start, y);
                if ids.is_empty() {
                    assert!(z.is_empty(), "Z must have one row per requested row (none)");
                    return;
                }
                match top_k {
                    None => {
                        let band = RowMap::Band { ids, start, x_start };
                        crate::dispatch::run(self, a, x, y, ops, band, z, None);
                    }
                    Some(k) => {
                        let local: Vec<usize> = ids.iter().map(|&u| u - start).collect();
                        let adj = slice_rows(a, &local).adj.top_k_by_weight(k);
                        let slice = RowMap::Slice { ids, x_start };
                        crate::dispatch::run(self, &adj, x, y, ops, slice, z, None);
                    }
                }
            }
        }
    }

    /// [`Plan::launch`] over every row into a fresh `a.nrows() × d`
    /// output. Kept only while the frozen `benchmark/` package names it.
    pub fn execute(&self, a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
        let mut z = Dense::zeros(a.nrows(), x.ncols());
        self.launch(a, x, y, ops, Launch::All { scores: None }, z.as_mut_slice());
        z
    }

    /// [`Plan::launch`] over rows `ids` of the whole graph (a band at
    /// row 0) into a fresh `ids.len() × d` output. Kept only while the
    /// frozen `benchmark/` package names it.
    pub fn execute_rows(&self, a: &Csr, ids: &[usize], x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
        let mut z = Dense::zeros(ids.len(), x.ncols());
        let rows = Launch::Rows { ids, start: 0, x_start: 0, top_k: None };
        self.launch(a, x, y, ops, rows, z.as_mut_slice());
        z
    }

    /// Add one launch to this plan's kernel-profile row.
    pub(crate) fn record(&self, elapsed: std::time::Duration, rows: usize, edges: usize) {
        self.profile.record(elapsed, rows, edges);
    }

    fn check(&self, ops: &OpSet, x: &Dense) {
        assert_eq!(
            ops.pattern, self.pattern,
            "plan prepared for {:?} executed with {:?}",
            self.pattern, ops.pattern
        );
        assert_eq!(
            x.ncols(),
            self.d,
            "plan prepared for d={} executed with d={}",
            self.d,
            x.ncols()
        );
    }
}

/// Validate a [`Launch::Rows`] band: `x` covers it, `y` matches its
/// columns, and every id is one of its rows.
fn check_band(a: &Csr, start: usize, ids: &[usize], x: &Dense, x_start: usize, y: &Dense) {
    let end = start + a.nrows();
    let x_end = x_start + x.nrows();
    assert!(
        x_start <= start && end <= x_end,
        "X must cover the band: rows {x_start}..{x_end} do not cover {start}..{end}"
    );
    assert_eq!(y.nrows(), a.ncols(), "Y must have one row per (global) column of the band");
    assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
    if let Some(&u) = ids.iter().find(|&&u| !(start..end).contains(&u)) {
        panic!("row {u} out of range for band {start}..{end}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::fusedmm_reference;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn setup(n: usize, d: usize) -> (Csr, Dense, Dense) {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
            c.push(u, (u + 5) % n, 0.5);
        }
        let a = c.to_csr(Dedup::Sum);
        let x = Dense::from_fn(n, d, |r, k| ((r + k) as f32 * 0.1).cos());
        let y = Dense::from_fn(n, d, |r, k| ((r * k) as f32 * 0.07).sin());
        (a, x, y)
    }

    /// Rows of degree 4 (some repeated columns summed away), so a
    /// top-2 launch drops real neighbors.
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

    fn bits(z: &[f32]) -> Vec<u32> {
        z.iter().map(|v| v.to_bits()).collect()
    }

    fn rows(ids: &[usize], start: usize, x_start: usize, top_k: Option<usize>) -> Launch<'_> {
        Launch::Rows { ids, start, x_start, top_k }
    }

    /// A [`Launch::Rows`] into a fresh `ids.len() × d` output.
    fn run_rows(plan: &Plan, a: &Csr, x: &Dense, y: &Dense, ops: &OpSet, l: Launch<'_>) -> Dense {
        let Launch::Rows { ids, .. } = l else { unreachable!() };
        let mut z = Dense::zeros(ids.len(), x.ncols());
        plan.launch(a, x, y, ops, l, z.as_mut_slice());
        z
    }

    #[test]
    fn plan_execution_matches_reference() {
        let (a, x, y) = setup(32, 16);
        let ops = OpSet::sigmoid_embedding(None);
        let plan = Plan::prepare(&ops, 16);
        assert_eq!(plan.pattern(), Pattern::SigmoidEmbedding);
        assert_eq!(plan.d(), 16);
        let z = plan.execute(&a, &x, &y, &ops);
        let r = fusedmm_reference(&a, &x, &y, &ops);
        assert!(z.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn launch_overwrites_a_poisoned_output_with_the_same_bits() {
        let (a, x, y) = setup(32, 16);
        for ops in [OpSet::gcn(), OpSet::sigmoid_embedding(None)] {
            let plan = Plan::prepare(&ops, 16);
            let want = plan.execute(&a, &x, &y, &ops);
            let mut z = vec![f32::NAN; 32 * 16];
            plan.launch(&a, &x, &y, &ops, Launch::All { scores: None }, &mut z);
            assert_eq!(bits(&z), bits(want.as_slice()), "{:?}", ops.pattern);
            // And again into what the first call left behind.
            plan.launch(&a, &x, &y, &ops, Launch::All { scores: None }, &mut z);
            assert_eq!(bits(&z), bits(want.as_slice()), "{:?} second call", ops.pattern);
        }
    }

    #[test]
    #[should_panic(expected = "one row per row")]
    fn launch_rejects_a_short_output() {
        let (a, x, y) = setup(8, 4);
        let ops = OpSet::gcn();
        let plan = Plan::prepare(&ops, 4);
        plan.launch(&a, &x, &y, &ops, Launch::All { scores: None }, &mut [0.0; 8 * 4 - 1]);
    }

    #[test]
    fn plan_records_the_active_backend_and_a_named_shape() {
        let ops = OpSet::gcn();
        let named = Blocking::Specialized(crate::genkern::KernelSpec::new(6, 32).unwrap());
        for d in [48usize, 100] {
            let plan = Plan::with_blocking(&ops, d, named, PartitionStrategy::NnzBalanced);
            assert_eq!(plan.backend(), crate::simd::active_backend());
            assert_eq!(plan.blocking(), named);
            let (a, x, y) = setup(24, d);
            let z = plan.execute(&a, &x, &y, &ops);
            let r = fusedmm_reference(&a, &x, &y, &ops);
            assert!(z.max_abs_diff(&r) < 1e-4);
        }
    }

    #[test]
    fn prepare_is_a_pure_function_of_pattern_dim_and_backend() {
        use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};
        let custom = OpSet::custom(VOp::Add, ROp::Max, SOp::Tanh, MOp::Mul, AOp::Sum);
        for d in [8usize, 32, 100, 128] {
            let (a, x, y) = setup(30, d);
            for ops in [OpSet::gcn(), OpSet::sigmoid_embedding(None), custom.clone()] {
                let prepared = Plan::prepare(&ops, d);
                let auto =
                    Plan::with_blocking(&ops, d, Blocking::Auto, PartitionStrategy::NnzBalanced);
                assert_eq!(prepared, auto, "{:?} d={d}", ops.pattern);
                assert_eq!(Plan::prepare(&ops, d), prepared, "nothing process-global is consulted");
                assert_ne!(prepared.blocking(), Blocking::Auto, "a plan names its kernel");
                // What it executes is what the front door executes.
                let direct = crate::fusedmm(&a, &x, &y, &ops);
                assert_eq!(
                    bits(prepared.execute(&a, &x, &y, &ops).as_slice()),
                    bits(direct.as_slice())
                );
            }
            assert_eq!(Plan::prepare(&custom, d).blocking(), Blocking::Generic);
        }
    }

    /// An operator set no specialized kernel recognizes runs the generic
    /// kernel whatever blocking was asked for, and its plan says so.
    #[test]
    fn unrecognized_ops_plan_as_generic_under_every_blocking() {
        use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};
        let custom = OpSet::custom(VOp::Add, ROp::Max, SOp::Tanh, MOp::Mul, AOp::Sum);
        let spec = crate::genkern::KernelSpec::new(6, 32).unwrap();
        for blocking in [Blocking::Auto, Blocking::Generic, Blocking::Specialized(spec)] {
            let plan = Plan::with_blocking(&custom, 48, blocking, PartitionStrategy::NnzBalanced);
            assert_eq!(plan.blocking(), Blocking::Generic, "asked for {blocking:?}");
        }
    }

    #[test]
    #[should_panic(expected = "plan prepared for")]
    fn pattern_mismatch_panics() {
        let (a, x, y) = setup(8, 4);
        let plan = Plan::prepare(&OpSet::gcn(), 4);
        let _ = plan.execute(&a, &x, &y, &OpSet::fr_model(1.0));
    }

    /// Any order, duplicates, every pattern class, the default and a
    /// named shape: row `i` is the reference's row `ids[i]`.
    #[test]
    fn rows_in_any_order_with_duplicates_match_the_reference() {
        let n = 50;
        let a = graph(n);
        let d = 24;
        let (x, y) = (feats(n, d, 0.2), feats(n, d, 0.8));
        let ids = [0usize, 17, 3, 49, 3, 25];
        let named = Blocking::Specialized(crate::genkern::KernelSpec::new(6, 16).unwrap());
        for ops in [OpSet::sigmoid_embedding(None), OpSet::gcn(), OpSet::fr_model(0.4)] {
            let full = fusedmm_reference(&a, &x, &y, &ops);
            for blocking in [Blocking::Auto, named] {
                let plan = Plan::with_blocking(&ops, d, blocking, PartitionStrategy::NnzBalanced);
                let z = plan.execute_rows(&a, &ids, &x, &y, &ops);
                assert_eq!(z.nrows(), ids.len());
                for (i, &u) in ids.iter().enumerate() {
                    for k in 0..d {
                        let what = format!("{:?} {blocking:?} row {u} lane {k}", ops.pattern);
                        assert!((z.get(i, k) - full.get(u, k)).abs() < 1e-4, "{what}");
                    }
                }
            }
        }
    }

    /// Every row in order is the whole-graph launch, bit for bit.
    #[test]
    fn rows_over_every_row_in_order_equal_the_all_launch() {
        let n = 30;
        let a = graph(n);
        let (x, y) = (feats(n, 16, 0.3), feats(n, 16, 0.6));
        let all: Vec<usize> = (0..n).collect();
        for ops in [OpSet::sigmoid_embedding(None), OpSet::gcn(), OpSet::tdist_embedding()] {
            let plan = Plan::prepare(&ops, 16);
            let whole = plan.execute(&a, &x, &y, &ops);
            let subset = run_rows(&plan, &a, &x, &y, &ops, rows(&all, 0, 0, None));
            assert_eq!(bits(subset.as_slice()), bits(whole.as_slice()), "{:?}", ops.pattern);
        }
    }

    /// A band at `lo`, with `x` whole, exactly the band, or starting a
    /// few rows early: the same `x` rows are read, so the output is the
    /// same bits, exact and top-k alike; the band's rows are the
    /// unsharded rows.
    #[test]
    fn band_rows_are_bit_identical_at_every_x_offset() {
        let n = 48;
        let a = graph(n);
        let d = 16;
        let (x, y) = (feats(n, d, 0.25), feats(n, d, 0.65));
        let ops = OpSet::sigmoid_embedding(None);
        let plan = Plan::prepare(&ops, d);
        let full = fusedmm_reference(&a, &x, &y, &ops);
        let (lo, hi) = (13usize, 37usize);
        let band = a.row_band(lo..hi);
        // Global ids inside the band, out of order, with a duplicate.
        let ids = [20usize, 13, 36, 20, 29];
        let z = run_rows(&plan, &band, &x, &y, &ops, rows(&ids, lo, 0, None));
        for (i, &u) in ids.iter().enumerate() {
            for k in 0..d {
                assert!((z.get(i, k) - full.get(u, k)).abs() < 1e-5, "row {u} lane {k}");
            }
        }
        for x_start in [lo, lo - 3] {
            let xb = Dense::from_rows(hi - x_start, d, &x.as_slice()[x_start * d..hi * d]).unwrap();
            let banded = run_rows(&plan, &band, &xb, &y, &ops, rows(&ids, lo, x_start, None));
            assert_eq!(bits(banded.as_slice()), bits(z.as_slice()), "X from row {x_start}");
            for k in [2, n] {
                let whole = run_rows(&plan, &band, &x, &y, &ops, rows(&ids, lo, 0, Some(k)));
                let part = run_rows(&plan, &band, &xb, &y, &ops, rows(&ids, lo, x_start, Some(k)));
                let what = format!("top-{k}, X from row {x_start}");
                assert_eq!(bits(whole.as_slice()), bits(part.as_slice()), "{what}");
            }
        }
    }

    /// Top-k is the kernel over the truncated graph, and a `k` covering
    /// every degree is the exact launch, bit for bit.
    #[test]
    fn top_k_rows_match_the_truncated_graph_and_cover_the_exact_launch() {
        let n = 48;
        let a = graph(n);
        let d = 16;
        let (x, y) = (feats(n, d, 0.25), feats(n, d, 0.65));
        let ops = OpSet::sigmoid_embedding(None);
        let plan = Plan::prepare(&ops, d);
        let (lo, hi) = (10usize, 40usize);
        let band = a.row_band(lo..hi);
        let ids = [12usize, 39, 10, 12, 25];
        let z = run_rows(&plan, &band, &x, &y, &ops, rows(&ids, lo, 0, Some(2)));
        // Slicing and truncating commute — both act per row.
        let full = fusedmm_reference(&a.top_k_by_weight(2), &x, &y, &ops);
        for (i, &u) in ids.iter().enumerate() {
            for c in 0..d {
                assert!((z.get(i, c) - full.get(u, c)).abs() < 1e-5, "row {u} lane {c}");
            }
        }
        let exact = run_rows(&plan, &band, &x, &y, &ops, rows(&ids, lo, 0, None));
        let covering = run_rows(&plan, &band, &x, &y, &ops, rows(&ids, lo, 0, Some(n)));
        assert_eq!(bits(covering.as_slice()), bits(exact.as_slice()), "k ≥ max degree");
    }

    #[test]
    fn the_empty_subset_launches_into_a_zero_length_output() {
        let a = graph(10);
        let (x, y) = (feats(10, 8, 0.1), feats(10, 8, 0.2));
        let ops = OpSet::gcn();
        Plan::prepare(&ops, 8).launch(&a, &x, &y, &ops, rows(&[], 0, 0, None), &mut []);
        let z = Plan::prepare(&ops, 8).execute_rows(&a, &[], &x, &y, &ops);
        assert_eq!((z.nrows(), z.ncols()), (0, 8));
    }

    #[test]
    #[should_panic(expected = "X must cover the band")]
    fn rows_reject_an_x_that_misses_the_band() {
        let a = graph(20);
        let (x, y) = (feats(10, 8, 0.0), feats(20, 8, 0.0));
        let band = a.row_band(5..15);
        // `x` holds global rows 6..16: row 5 is missing.
        let ops = OpSet::gcn();
        let _ = run_rows(&Plan::prepare(&ops, 8), &band, &x, &y, &ops, rows(&[10], 5, 6, None));
    }

    #[test]
    #[should_panic(expected = "out of range for band")]
    fn rows_reject_ids_outside_the_band() {
        let a = graph(20);
        let (x, y) = (feats(20, 8, 0.0), feats(20, 8, 0.0));
        let band = a.row_band(5..15);
        let ops = OpSet::gcn();
        let _ = run_rows(&Plan::prepare(&ops, 8), &band, &x, &y, &ops, rows(&[4], 5, 0, None));
    }
}
