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

use fusedmm_ops::{AOp, MOp, OpSet, ROp, SOp, VOp};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::driver::parallel_row_bands;
use crate::generic::generic_launch;
use crate::genkern::{
    embed_spec_kernel, entry_backend, fr_spec_kernel, lookahead, spmm_spec_kernel,
    tdist_spec_kernel, KernelSpec, SigmoidKind,
};
use crate::part::PartitionStrategy;
use crate::plan::Plan;
use crate::simd::{active_backend, Backend};

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
    /// Degree-aware row scheduling for skewed graphs, over the same
    /// kernel shape [`Blocking::Auto`] runs: rows are classified by
    /// degree (the row kernel below the mega threshold, cooperative
    /// span-split execution for mega rows).
    /// Engages for every recognized pattern at every `d`;
    /// bit-identical to the uniform launch.
    Hybrid(crate::hybrid::HybridConfig),
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

/// The one launch body behind [`Plan::launch`] (operands already
/// validated): the plan's kernel over every row of `a` into `z`, with
/// the SDDMM scores into `scores` when given.
pub(crate) fn run(
    plan: &Plan,
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    z: &mut [f32],
    scores: Option<&mut [f32]>,
) {
    let (blocking, strategy) = (plan.blocking(), plan.strategy());
    let spec = if blocking == Blocking::Generic { None } else { specialize(ops) };
    let d = x.ncols();
    let backend = active_backend();
    let t0 = std::time::Instant::now();
    let Some(spec) = spec else {
        generic_launch(a, x, y, ops, strategy, z, scores);
        crate::profile::record_kernel(
            ops.pattern,
            d,
            backend,
            "generic",
            t0.elapsed(),
            a.nrows(),
            a.nnz(),
        );
        return;
    };
    let kspec = match blocking {
        Blocking::Specialized(s) => s,
        _ => spec.default_spec(d, backend),
    };
    // A scored hybrid launch runs the uniform schedule below: the two
    // are bit-identical, and the staged classes have no slot to write.
    if let (Blocking::Hybrid(cfg), None) = (blocking, &scores) {
        return crate::hybrid::execute(plan, cfg, &spec, a, x, y, z);
    }
    let entry = entry_backend(backend, d);
    match spec {
        Specialized::Embed(sk) => {
            let kern = embed_spec_kernel(entry, kspec);
            sddmm_rows(a, x, z, scores, strategy, |xu, cols, vals, ahead, zu, su| {
                kern(xu, cols, vals, ahead, y, zu, su, &sk)
            });
        }
        Specialized::Fr(alpha) => {
            let kern = fr_spec_kernel(entry, kspec);
            sddmm_rows(a, x, z, scores, strategy, |xu, cols, vals, ahead, zu, su| {
                kern(xu, cols, vals, ahead, y, zu, su, alpha)
            });
        }
        Specialized::TDist => {
            let kern = tdist_spec_kernel(entry, kspec);
            sddmm_rows(a, x, z, scores, strategy, |xu, cols, vals, ahead, zu, su| {
                kern(xu, cols, vals, ahead, y, zu, su)
            });
        }
        Specialized::Spmm => {
            let kern = spmm_spec_kernel(entry, kspec);
            parallel_row_bands(a, z, d, None, strategy, |rows, band, _| {
                for (i, u) in rows.enumerate() {
                    let (cols, vals) = a.row(u);
                    kern(cols, vals, y, &mut band[i * d..(i + 1) * d]);
                }
            });
        }
    }
    crate::profile::record_kernel(
        ops.pattern,
        d,
        backend,
        kspec.label(),
        t0.elapsed(),
        a.nrows(),
        a.nnz(),
    );
}

/// The uniform row schedule of the three SDDMM patterns: every row of
/// every band, in storage order, as `row(x_u, cols, vals, ahead, z_u,
/// scores_u)` — `ahead` being the row's look-ahead stream up to the end
/// of its band (the next row's columns are the next thing this thread
/// reads) and `scores_u` the row's slots of the score output, if any.
fn sddmm_rows<F>(
    a: &Csr,
    x: &Dense,
    z: &mut [f32],
    scores: Option<&mut [f32]>,
    strategy: PartitionStrategy,
    row: F,
) where
    F: Fn(&[f32], &[usize], &[f32], &[usize], &mut [f32], Option<&mut [f32]>) + Sync,
{
    let d = x.ncols();
    let (rowptr, colidx) = (a.rowptr(), a.colidx());
    parallel_row_bands(a, z, d, scores, strategy, |rows, band, mut edges| {
        let (first, band_end) = (rowptr[rows.start], rowptr[rows.end]);
        for (i, u) in rows.enumerate() {
            let (lo, hi) = (rowptr[u], rowptr[u + 1]);
            let (cols, vals) = a.row(u);
            let su = edges.as_deref_mut().map(|e| &mut e[lo - first..hi - first]);
            let ahead = lookahead(colidx, lo, band_end);
            row(x.row(u), cols, vals, ahead, &mut band[i * d..(i + 1) * d], su);
        }
    });
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
                for blocking in [
                    Blocking::Auto,
                    Blocking::Specialized(spec),
                    Blocking::Generic,
                    Blocking::Hybrid(crate::hybrid::HybridConfig::default()),
                ] {
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
