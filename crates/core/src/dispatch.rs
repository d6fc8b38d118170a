//! Pattern recognition and kernel dispatch (§IV of the paper).
//!
//! "If we recognize a pattern from predefined VOP, ROP, SOP, MOP, and
//! AOP operations, we can optimize the whole kernel by feeding the
//! output of one operation directly to the next operation without
//! storing the results." [`specialize`] performs that recognition on an
//! [`OpSet`]; a [`Plan`] launch runs the recognized pattern's
//! register-blocked kernel at the shape it names — by default the one
//! [`KernelSpec::default_for`] fixes for `(pattern, d, backend)` — and
//! falls back to the generic five-step kernel otherwise.

use std::ops::Range;

use fusedmm_ops::{AOp, MOp, OpSet, ROp, SOp, VOp};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::driver::row_bands;
use crate::generic::generic_launch;
use crate::genkern::{
    embed_spec_kernel, entry_backend, fr_spec_kernel, lookahead, spmm_spec_kernel,
    tdist_spec_kernel, KernelSpec, SigmoidKind, LOOKAHEAD,
};
use crate::part::PartitionStrategy;
use crate::plan::Plan;
use crate::simd::{active_backend, prefetch_lines, Backend};

/// How to run a launch: a recognized pattern resolves to **one**
/// register-blocked kernel shape (`Spec(shape)`), everything else to
/// the generic five-step kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blocking {
    /// The library default: a recognized pattern runs the shape
    /// [`KernelSpec::default_for`] fixes for its `(pattern class, d,
    /// backend)`; an unrecognized one runs the generic kernel.
    Auto,
    /// Run one named shape of the kernel table (see
    /// [`crate::genkern::table`]) instead of the default — the single
    /// explicit override, for benches that sweep
    /// [`candidate_specs`](crate::genkern::candidate_specs). Valid for
    /// **any** `d ≥ 1`, and bit-identical to every other shape.
    Specialized(KernelSpec),
    /// Force the generic five-step kernel even for recognized patterns —
    /// the paper's unoptimized "FusedMM" row.
    Generic,
}

/// A recognized specialized pattern with its extracted parameters.
#[derive(Debug, Clone)]
pub enum Specialized {
    /// `(MUL, RSUM, SIGMOID, MUL, ASUM)` — sigmoid graph embedding, and
    /// its labelled NCE-gradient form `σ(s) − a_uv`.
    Embed(SigmoidKind),
    /// `(SUB, NORM, SCAL(α), MUL, ASUM)` — FR force model.
    Fr(f32),
    /// `(SUB, NORM, TDIST, MUL, ASUM)` — t-distribution embedding.
    TDist,
    /// `(SEL2ND, NOOP, NOOP, MUL, ASUM)` — GCN / SpMM.
    Spmm,
}

/// Inspect the actual operator variants (not just the pattern tag,
/// which user code could set inconsistently) and return the matching
/// specialization, if any.
pub fn specialize(ops: &OpSet) -> Option<Specialized> {
    match (&ops.vop, &ops.rop, &ops.sop, &ops.mop, &ops.aop) {
        (VOp::Mul, ROp::Sum, SOp::Sigmoid, MOp::Mul, AOp::Sum) => {
            Some(Specialized::Embed(SigmoidKind::Exact))
        }
        (VOp::Mul, ROp::Sum, SOp::SigmoidLut(lut), MOp::Mul, AOp::Sum) => {
            Some(Specialized::Embed(SigmoidKind::Lut(lut.clone())))
        }
        (VOp::Mul, ROp::Sum, SOp::SigmoidMinusEdge, MOp::Mul, AOp::Sum) => {
            Some(Specialized::Embed(SigmoidKind::ExactMinusEdge))
        }
        (VOp::Mul, ROp::Sum, SOp::SigmoidLutMinusEdge(lut), MOp::Mul, AOp::Sum) => {
            Some(Specialized::Embed(SigmoidKind::LutMinusEdge(lut.clone())))
        }
        (VOp::Sub, ROp::Norm, SOp::Scale(alpha), MOp::Mul, AOp::Sum) => {
            Some(Specialized::Fr(*alpha))
        }
        (VOp::Sub, ROp::Norm, SOp::TDist, MOp::Mul, AOp::Sum) => Some(Specialized::TDist),
        (VOp::Sel2nd, ROp::Noop, SOp::Noop, MOp::Mul, AOp::Sum) => Some(Specialized::Spmm),
        _ => None,
    }
}

impl Specialized {
    /// The kernel shape a launch of this pattern runs at dimension `d`
    /// on `backend` unless the caller names one — every plan's route
    /// to [`KernelSpec::default_for`].
    pub fn default_spec(&self, d: usize, backend: Backend) -> KernelSpec {
        let sddmm = !matches!(self, Specialized::Spmm);
        KernelSpec::default_for(sddmm, d, entry_backend(backend, d).lanes())
    }
}

/// Where output row `i` of a launch reads: its row of the launch's
/// adjacency `a` and its row of `x`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowMap<'a> {
    /// Row `i` of both — every row of `a` in storage order
    /// ([`Launch::All`](crate::Launch::All)).
    All,
    /// Global row `ids[i]` of a band read in place: row `ids[i] − start`
    /// of `a`, row `ids[i] − x_start` of `x`.
    Band {
        /// The requested global ids.
        ids: &'a [usize],
        /// Global id of `a`'s row 0.
        start: usize,
        /// Global id of `x`'s row 0.
        x_start: usize,
    },
    /// Row `i` of `a`, which holds the requested rows in request order
    /// (the truncated top-k slice); row `ids[i] − x_start` of `x`.
    Slice {
        /// The requested global ids.
        ids: &'a [usize],
        /// Global id of `x`'s row 0.
        x_start: usize,
    },
}

impl RowMap<'_> {
    /// Output rows of a launch over `a`.
    fn len(&self, a: &Csr) -> usize {
        match self {
            RowMap::All => a.nrows(),
            RowMap::Band { ids, .. } | RowMap::Slice { ids, .. } => ids.len(),
        }
    }

    /// Nonzeros a launch over `a` sweeps.
    fn nnz(&self, a: &Csr) -> usize {
        match self {
            RowMap::All => a.nnz(),
            _ => (0..self.len(a)).map(|i| a.row_nnz(self.a_row(i))).sum(),
        }
    }

    /// Output row `i`'s row of the launch's adjacency.
    #[inline(always)]
    pub(crate) fn a_row(&self, i: usize) -> usize {
        match self {
            RowMap::All | RowMap::Slice { .. } => i,
            RowMap::Band { ids, start, .. } => ids[i] - start,
        }
    }

    /// Output row `i`'s row of `x`.
    #[inline(always)]
    pub(crate) fn x_row(&self, i: usize) -> usize {
        match self {
            RowMap::All => i,
            RowMap::Band { ids, x_start, .. } | RowMap::Slice { ids, x_start } => ids[i] - x_start,
        }
    }

    /// Run `body` over the PART1D parts of this launch's output rows
    /// (see [`row_bands`]): the parts are cut by the nonzeros the rows
    /// sweep, so a subset launch balances its threads as a whole-graph
    /// launch does.
    pub(crate) fn bands<F>(
        &self,
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
        let degree = |i: usize| {
            let u = self.a_row(i);
            rowptr[u + 1] - rowptr[u]
        };
        row_bands(self.len(a), self.nnz(a), degree, z, d, per_edge, strategy, body);
    }
}

/// The one launch body behind [`Plan::launch`] (operands already
/// validated): the plan's kernel over the rows `map` names into `z`,
/// with the SDDMM scores into `scores` when given (only over
/// [`RowMap::All`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    plan: &Plan,
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    map: RowMap<'_>,
    z: &mut [f32],
    scores: Option<&mut [f32]>,
) {
    let (blocking, strategy) = (plan.blocking(), plan.strategy());
    let spec = if blocking == Blocking::Generic { None } else { specialize(ops) };
    let d = x.ncols();
    let backend = active_backend();
    let t0 = std::time::Instant::now();
    let Some(spec) = spec else {
        generic_launch(a, x, y, ops, map, strategy, z, scores);
        plan.record(t0.elapsed(), map.len(a), map.nnz(a));
        return;
    };
    let kspec = match blocking {
        Blocking::Specialized(s) => s,
        _ => spec.default_spec(d, backend),
    };
    let entry = entry_backend(backend, d);
    let sched = Schedule { a, x, y, map, backend: entry };
    match spec {
        Specialized::Embed(sk) => {
            let kern = embed_spec_kernel(entry, kspec);
            sched.sddmm_rows(z, scores, strategy, |xu, cols, vals, ahead, zu, su| {
                kern(xu, cols, vals, ahead, y, zu, su, &sk)
            });
        }
        Specialized::Fr(alpha) => {
            let kern = fr_spec_kernel(entry, kspec);
            sched.sddmm_rows(z, scores, strategy, |xu, cols, vals, ahead, zu, su| {
                kern(xu, cols, vals, ahead, y, zu, su, alpha)
            });
        }
        Specialized::TDist => {
            let kern = tdist_spec_kernel(entry, kspec);
            sched.sddmm_rows(z, scores, strategy, |xu, cols, vals, ahead, zu, su| {
                kern(xu, cols, vals, ahead, y, zu, su)
            });
        }
        Specialized::Spmm => {
            let kern = spmm_spec_kernel(entry, kspec);
            map.bands(a, z, d, None, strategy, |rows, band, _| {
                for (k, i) in rows.clone().enumerate() {
                    if !matches!(map, RowMap::All) {
                        sched.prefetch_rows(i, rows.end, false);
                    }
                    let (cols, vals) = a.row(map.a_row(i));
                    kern(cols, vals, y, &mut band[k * d..(k + 1) * d]);
                }
            });
        }
    }
    plan.record(t0.elapsed(), map.len(a), map.nnz(a));
}

/// The operands one launch's row schedule walks.
struct Schedule<'a> {
    a: &'a Csr,
    x: &'a Dense,
    y: &'a Dense,
    map: RowMap<'a>,
    /// The backend whose prefetch the cross-row look-ahead issues.
    backend: Backend,
}

impl Schedule<'_> {
    /// The uniform row schedule of the three SDDMM patterns: every row
    /// of every band as `row(x_u, cols, vals, ahead, z_u, scores_u)` —
    /// `scores_u` the row's slots of the score output, if any, and
    /// `ahead` the row's look-ahead stream. Over every row
    /// ([`RowMap::All`]) the stream runs to the end of the band: the
    /// next row's columns are the next thing this thread reads. Rows
    /// read in place from wherever they are stored stream only their
    /// own columns, and [`prefetch_rows`](Self::prefetch_rows) asks for
    /// what the next rows read before the current one ends.
    fn sddmm_rows<F>(
        &self,
        z: &mut [f32],
        scores: Option<&mut [f32]>,
        strategy: PartitionStrategy,
        row: F,
    ) where
        F: Fn(&[f32], &[usize], &[f32], &[usize], &mut [f32], Option<&mut [f32]>) + Sync,
    {
        let (a, x, map) = (self.a, self.x, self.map);
        let d = x.ncols();
        let (rowptr, colidx) = (a.rowptr(), a.colidx());
        map.bands(a, z, d, scores, strategy, |rows, band, mut edges| {
            // Stored order only for `All`, the one map with scores.
            let stored = matches!(map, RowMap::All);
            let (first, band_end) =
                if stored { (rowptr[rows.start], rowptr[rows.end]) } else { (0, 0) };
            for (k, i) in rows.clone().enumerate() {
                let u = map.a_row(i);
                let (lo, hi) = (rowptr[u], rowptr[u + 1]);
                let ahead = if stored {
                    lookahead(colidx, lo, band_end)
                } else {
                    self.prefetch_rows(i, rows.end, true);
                    lookahead(colidx, lo, hi)
                };
                let (cols, vals) = a.row(u);
                let su = edges.as_deref_mut().map(|e| &mut e[lo - first..hi - first]);
                row(x.row(map.x_row(i)), cols, vals, ahead, &mut band[k * d..(k + 1) * d], su);
            }
        });
    }

    /// The cross-row half of an in-place launch's look-ahead, issued at
    /// the start of output row `i` of a part ending at `end`: the
    /// `rowptr` entries of row `i + 3`, the head of row `i + 2`'s column
    /// ids and values, and the `y` rows of row `i + 1`'s first
    /// [`LOOKAHEAD`] neighbours — plus, when the pattern reads `x`
    /// (`sddmm`), row `i + 1`'s `x` row. Each read it makes was asked
    /// for one row earlier, and the row's own stream takes over at its
    /// [`LOOKAHEAD`]-th neighbour, so every `y` row is requested before
    /// it is reduced, as in a launch over adjacent rows.
    #[inline(always)]
    fn prefetch_rows(&self, i: usize, end: usize, sddmm: bool) {
        let (a, map, b) = (self.a, self.map, self.backend);
        let (rowptr, colidx) = (a.rowptr(), a.colidx());
        if i + 3 < end {
            let u = map.a_row(i + 3);
            prefetch_lines(b, &rowptr[u..u + 2]);
        }
        if i + 2 < end {
            let u = map.a_row(i + 2);
            let lo = rowptr[u];
            let head = lo..rowptr[u + 1].min(lo + LOOKAHEAD);
            prefetch_lines(b, &colidx[head.clone()]);
            prefetch_lines(b, &a.values()[head]);
        }
        if i + 1 < end {
            let u = map.a_row(i + 1);
            if sddmm {
                prefetch_lines(b, self.x.row(map.x_row(i + 1)));
            }
            let lo = rowptr[u];
            for &v in &colidx[lo..rowptr[u + 1].min(lo + LOOKAHEAD)] {
                prefetch_lines(b, self.y.row(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::fusedmm_reference;
    use crate::plan::Launch;
    use crate::{fusedmm, launch_at};
    use fusedmm_ops::SigmoidLut;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use std::sync::Arc;

    fn graph(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=3usize {
                c.push(u, (u + k * 7) % n, 1.0 + (k as f32) * 0.25);
            }
        }
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 13 + c * 5) as f32 * 0.02 + seed).cos() * 0.4)
    }

    #[test]
    fn recognizes_the_three_specializable_presets() {
        assert!(matches!(
            specialize(&OpSet::sigmoid_embedding(None)),
            Some(Specialized::Embed(SigmoidKind::Exact))
        ));
        assert!(matches!(
            specialize(&OpSet::nce_gradient(None)),
            Some(Specialized::Embed(SigmoidKind::ExactMinusEdge))
        ));
        assert!(matches!(
            specialize(&OpSet::nce_gradient(Some(Arc::new(SigmoidLut::default_table())))),
            Some(Specialized::Embed(SigmoidKind::LutMinusEdge(_)))
        ));
        assert!(matches!(specialize(&OpSet::fr_model(2.0)), Some(Specialized::Fr(a)) if a == 2.0));
        assert!(matches!(specialize(&OpSet::tdist_embedding()), Some(Specialized::TDist)));
        assert!(matches!(specialize(&OpSet::gcn()), Some(Specialized::Spmm)));
    }

    #[test]
    fn rejects_nonmatching_opsets() {
        use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};
        let ops = OpSet::custom(VOp::Add, ROp::Sum, SOp::Sigmoid, MOp::Mul, AOp::Sum);
        assert!(specialize(&ops).is_none());
        let mlp = OpSet::gnn_mlp(Arc::new(fusedmm_ops::Mlp::seeded(4, 4, 4, 1)));
        assert!(specialize(&mlp).is_none());
    }

    #[test]
    fn opt_matches_generic_for_all_patterns_and_blockings() {
        let n = 40;
        let a = graph(n);
        for d in [16usize, 24, 64] {
            let x = feats(n, d, 0.1);
            let y = feats(n, d, 0.9);
            for ops in [
                OpSet::sigmoid_embedding(None),
                OpSet::nce_gradient(None),
                OpSet::fr_model(0.3),
                OpSet::tdist_embedding(),
                OpSet::gcn(),
            ] {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let spec = KernelSpec::new(12, 64).unwrap();
                for blocking in [Blocking::Auto, Blocking::Specialized(spec), Blocking::Generic] {
                    let z = launch_at(4, &a, &x, &y, &ops, blocking);
                    assert!(
                        z.max_abs_diff(&reference) < 1e-4,
                        "{:?} blocking {:?} d={d}: diff {}",
                        ops.pattern,
                        blocking,
                        z.max_abs_diff(&reference)
                    );
                }
            }
        }
    }

    #[test]
    fn auto_runs_the_default_shape_and_says_so_in_the_profile() {
        // d = 56 is used by no other test of this crate (the profile
        // table is process-global).
        let (n, d) = (20, 56);
        let a = graph(n);
        let x = feats(n, d, 0.1);
        let y = feats(n, d, 0.4);
        let ops = OpSet::sigmoid_embedding(None);
        let want = specialize(&ops).unwrap().default_spec(d, active_backend());
        let auto = fusedmm(&a, &x, &y, &ops);
        let named = launch_at(2, &a, &x, &y, &ops, Blocking::Specialized(want));
        assert_eq!(auto.as_slice(), named.as_slice());
        // (Another test may reset the table meanwhile; no *other* label
        // can ever appear at this d.)
        for p in crate::profile::kernel_profiles().iter().filter(|p| p.d == d) {
            assert_eq!(p.blocking, want.label(), "both launches record the one default shape");
        }
    }

    /// Launches whose look-ahead stream has nowhere to go — one row,
    /// fewer entries than the distance, no entries at all (and so no
    /// score slot) — run, scored and unscored, and agree.
    #[test]
    fn scored_launches_cover_degenerate_shapes() {
        let n = 9;
        let mut one_row = Coo::new(1, n);
        (0..7).for_each(|v| one_row.push(0, v, 0.5 + v as f32 * 0.1));
        let mut few = Coo::new(4, n);
        few.push(1, 8, 1.0);
        few.push(3, 0, 0.25);
        for a in [one_row.to_csr(Dedup::Last), few.to_csr(Dedup::Last), Csr::empty(3, n)] {
            let (x, y) = (feats(a.nrows(), 20, 0.3), feats(n, 20, 0.6));
            let ops = OpSet::fr_model(0.3);
            let (plan, reference) = (Plan::prepare(&ops, 20), fusedmm_reference(&a, &x, &y, &ops));
            for parts in [1usize, 3] {
                let z = launch_at(parts, &a, &x, &y, &ops, Blocking::Auto);
                assert!(z.max_abs_diff(&reference) < 1e-5);
                let mut zs = vec![f32::NAN; z.as_slice().len()];
                let mut scores = vec![f32::NAN; a.nnz()];
                let scored = Launch::All { scores: Some(&mut scores) };
                crate::at_width(parts, || plan.launch(&a, &x, &y, &ops, scored, &mut zs));
                assert_eq!(zs, z.as_slice());
                for ((u, v, _), s) in a.iter().zip(&scores) {
                    let want = crate::simd::sqdist(x.row(u), y.row(v)).sqrt();
                    assert_eq!(s.to_bits(), want.to_bits(), "edge ({u}, {v})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one slot per stored entry")]
    fn scored_launch_rejects_a_short_score_buffer() {
        let a = graph(8);
        let x = feats(8, 8, 0.1);
        let (mut z, mut scores) = (vec![0f32; 64], vec![0f32; a.nnz() - 1]);
        let ops = OpSet::sigmoid_embedding(None);
        let scored = Launch::All { scores: Some(&mut scores) };
        Plan::prepare(&ops, 8).launch(&a, &x, &x, &ops, scored, &mut z);
    }

    #[test]
    fn lut_embedding_close_to_exact() {
        let n = 30;
        let a = graph(n);
        let d = 32;
        let x = feats(n, d, 0.2);
        let y = feats(n, d, 0.5);
        let exact = fusedmm(&a, &x, &y, &OpSet::sigmoid_embedding(None));
        let lut = fusedmm(
            &a,
            &x,
            &y,
            &OpSet::sigmoid_embedding(Some(Arc::new(SigmoidLut::default_table()))),
        );
        assert!(exact.max_abs_diff(&lut) < 1e-2);
    }

    #[test]
    fn custom_pattern_falls_back_to_generic() {
        use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};
        let n = 20;
        let a = graph(n);
        let d = 8;
        let x = feats(n, d, 0.3);
        let y = feats(n, d, 0.6);
        let ops = OpSet::custom(VOp::Add, ROp::Max, SOp::Tanh, MOp::Mul, AOp::Sum);
        let opt = fusedmm(&a, &x, &y, &ops);
        let gen = fusedmm_reference(&a, &x, &y, &ops);
        assert!(opt.max_abs_diff(&gen) < 1e-5);
    }
}
