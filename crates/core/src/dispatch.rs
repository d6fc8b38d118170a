//! Pattern recognition and kernel dispatch (§IV of the paper).
//!
//! "If we recognize a pattern from predefined VOP, ROP, SOP, MOP, and
//! AOP operations, we can optimize the whole kernel by feeding the
//! output of one operation directly to the next operation without
//! storing the results." [`specialize`] performs that recognition on an
//! [`OpSet`]; [`fusedmm_opt`] runs the recognized specialized kernel
//! (register-blocked when a generated dimension matches) and falls back
//! to the generic five-step kernel otherwise.

use fusedmm_ops::{AOp, MOp, OpSet, ROp, SOp, VOp};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::driver::parallel_row_bands;
use crate::generic::{fusedmm_generic_into, validate_shapes};
use crate::genkern::{
    embed_dyn_kernel, embed_kernel_for, embed_spec_kernel, embed_strip_kernel, fr_dyn_kernel,
    fr_kernel_for, fr_spec_kernel, fr_strip_kernel, spmm_dyn_kernel, spmm_kernel_for,
    spmm_spec_kernel, spmm_strip_kernel, strip_minable, tdist_dyn_kernel, tdist_kernel_for,
    tdist_spec_kernel, tdist_strip_kernel, KernelSpec, SigmoidKind, GENERATED_DIMS,
};
use crate::part::PartitionStrategy;
use crate::simd::active_backend;

/// Largest dimension at which [`Blocking::Auto`] picks the
/// register-blocked kernel. The paper's generator likewise "limit\[s\]
/// register blocking up to a threshold when the dimension is large":
/// beyond ~64 f32 lanes the per-row blocks exceed the architectural
/// register file, the fully unrolled sweeps bloat the instruction
/// stream, and the measured advantage inverts (see the
/// `ablation_blocking` bench). The measuring autotuner can still pick
/// register blocking above the threshold when it actually wins.
pub const REGISTER_BLOCK_MAX_DIM: usize = 64;

/// Which kernel implementation level to use for a specialized pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blocking {
    /// Pick the best level the dimension admits: register-blocked for
    /// small generated dimensions, strip-mined for any other multiple
    /// of 8, dynamic strips otherwise (the library default).
    Auto,
    /// Force the const-dimension register-blocked kernel; an error if
    /// the dimension has no generated specialization.
    RegisterBlocked,
    /// Force the strip-mined kernel (8-lane panels with
    /// register-resident accumulators, any `d ≡ 0 (mod 8)`); an error
    /// for other dimensions.
    StripMined,
    /// Force the dynamic 8-lane strip kernel (no register blocking) —
    /// used by the register-blocking ablation.
    DynStrips,
    /// Run one plan-time specialized shape from the generated dispatch
    /// table (see [`crate::genkern::table`]): the strip passes
    /// monomorphized over a panel/chunk grid, valid for **any**
    /// `d ≥ 1` — odd dimensions end in a fused masked-tail panel
    /// instead of falling back to the unfused dyn path. Plans built by
    /// the measuring autotuner carry the probed best shape here.
    Specialized(KernelSpec),
    /// Force the generic five-step kernel even for recognized patterns —
    /// the paper's unoptimized "FusedMM" row.
    Generic,
    /// Degree-aware hybrid execution for skewed graphs: rows are
    /// classified by degree and each class runs a kernel shaped for it
    /// (gathered batches for short rows, strip-mined panels for the
    /// middle, cooperative span-split execution for mega rows). Engages
    /// when the dimension resolves to the strip level (`d ≡ 0 (mod 8)`
    /// outside the generated-const list); otherwise behaves exactly
    /// like [`Blocking::Auto`]. Bit-identical to the uniform kernels.
    Hybrid(crate::hybrid::HybridConfig),
}

/// The concrete kernel level [`fusedmm_opt_with`] resolved a
/// [`Blocking`] request to for a given dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Const,
    Strip,
    Spec(KernelSpec),
    Dyn,
}

impl Level {
    /// The `blocking` label the kernel profile table reports (the
    /// unspecialized path reports `generic` without resolving a level).
    /// Specialized launches report their shape, e.g. `"spec-m12-h32"`.
    fn label(self) -> &'static str {
        match self {
            Level::Const => "const",
            Level::Strip => "strip",
            Level::Spec(s) => s.label(),
            Level::Dyn => "dyn",
        }
    }
}

fn resolve_level(blocking: Blocking, d: usize) -> Level {
    match blocking {
        Blocking::RegisterBlocked => Level::Const,
        Blocking::StripMined => {
            assert!(
                strip_minable(d),
                "no strip-mined kernel for d={d} (d must be a positive multiple of 8)"
            );
            Level::Strip
        }
        Blocking::DynStrips => Level::Dyn,
        Blocking::Specialized(s) => Level::Spec(s),
        Blocking::Auto | Blocking::Generic | Blocking::Hybrid(_) => {
            if d <= REGISTER_BLOCK_MAX_DIM && GENERATED_DIMS.contains(&d) {
                Level::Const
            } else if strip_minable(d) {
                Level::Strip
            } else {
                Level::Dyn
            }
        }
    }
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

/// The optimized FusedMM ("FusedMMopt" in Table VI): specialized
/// register-blocked kernels for recognized patterns, generic fallback
/// otherwise. Runs on the current rayon pool with PART1D balancing.
pub fn fusedmm_opt(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    fusedmm_opt_with(a, x, y, ops, Blocking::Auto, None, PartitionStrategy::NnzBalanced)
}

/// [`fusedmm_opt`] with explicit blocking level, partition count, and
/// partition strategy (the knobs the ablation and scaling benches turn).
pub fn fusedmm_opt_with(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
) -> Dense {
    let mut z = Dense::zeros(a.nrows(), x.ncols());
    fusedmm_opt_into(a, x, y, ops, blocking, partitions, strategy, z.as_mut_slice());
    z
}

/// [`fusedmm_opt_with`] into a caller-owned output — the one body
/// behind every allocating entry point. `z` is the row-major
/// `a.nrows() × d` output; **every row of it is overwritten** and
/// nothing it held is read: each row kernel starts its fold from `+0.0`
/// and a zero-degree row stores zeros, so the result is bit-identical
/// to running into a zeroed buffer, without the zero-fill, the
/// read-back, or a fresh allocation's page faults. Callers that launch
/// repeatedly keep one `z` and pass it every time.
///
/// # Panics
/// Panics on a shape mismatch (`z.len() != a.nrows() * d` included) and
/// where [`fusedmm_opt_with`] would.
#[allow(clippy::too_many_arguments)]
pub fn fusedmm_opt_into(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    z: &mut [f32],
) {
    validate_shapes(a, x, y);
    let spec = if blocking == Blocking::Generic { None } else { specialize(ops) };
    let Some(spec) = spec else {
        let t0 = std::time::Instant::now();
        fusedmm_generic_into(a, x, y, ops, partitions, strategy, z);
        crate::profile::record_kernel(
            ops.pattern,
            x.ncols(),
            active_backend(),
            "generic",
            t0.elapsed(),
            a.nrows(),
            a.nnz(),
        );
        return;
    };
    let d = x.ncols();
    let level = resolve_level(blocking, d);
    let backend = active_backend();
    if let Blocking::Hybrid(cfg) = blocking {
        // The shaped degree-class kernels run the specialized table's
        // shapes, so hybrid engages at strip dimensions *and* — via the
        // table's masked-tail panels — at dimensions that resolve to
        // the dyn level (odd d). Only a const-resolved dimension falls
        // through to the uniform path below (identical by
        // construction).
        if matches!(level, Level::Strip | Level::Dyn) {
            let kspec = crate::autotune::global_tuner().spec_for(ops, d);
            return crate::hybrid::execute(
                a, x, y, ops, &spec, cfg, partitions, strategy, backend, kspec, z,
            );
        }
    }
    let t0 = std::time::Instant::now();

    match spec {
        Specialized::Embed(sk) => {
            let kern = match level {
                Level::Const => embed_kernel_for(d).unwrap_or_else(|| {
                    assert!(
                        blocking != Blocking::RegisterBlocked,
                        "no generated register-blocked embedding kernel for d={d}"
                    );
                    embed_dyn_kernel(backend)
                }),
                Level::Strip => embed_strip_kernel(backend),
                Level::Spec(s) => embed_spec_kernel(backend, s),
                Level::Dyn => embed_dyn_kernel(backend),
            };
            parallel_row_bands(a, z, d, partitions, strategy, |rows, band| {
                for (i, u) in rows.enumerate() {
                    let (cols, vals) = a.row(u);
                    kern(x.row(u), cols, vals, y, &mut band[i * d..(i + 1) * d], &sk);
                }
            });
        }
        Specialized::Fr(alpha) => {
            let kern = match level {
                Level::Const => fr_kernel_for(d).unwrap_or_else(|| {
                    assert!(
                        blocking != Blocking::RegisterBlocked,
                        "no generated register-blocked FR kernel for d={d}"
                    );
                    fr_dyn_kernel(backend)
                }),
                Level::Strip => fr_strip_kernel(backend),
                Level::Spec(s) => fr_spec_kernel(backend, s),
                Level::Dyn => fr_dyn_kernel(backend),
            };
            parallel_row_bands(a, z, d, partitions, strategy, |rows, band| {
                for (i, u) in rows.enumerate() {
                    let (cols, vals) = a.row(u);
                    kern(x.row(u), cols, vals, y, &mut band[i * d..(i + 1) * d], alpha);
                }
            });
        }
        Specialized::TDist => {
            let kern = match level {
                Level::Const => tdist_kernel_for(d).unwrap_or_else(|| {
                    assert!(
                        blocking != Blocking::RegisterBlocked,
                        "no generated register-blocked t-dist kernel for d={d}"
                    );
                    tdist_dyn_kernel(backend)
                }),
                Level::Strip => tdist_strip_kernel(backend),
                Level::Spec(s) => tdist_spec_kernel(backend, s),
                Level::Dyn => tdist_dyn_kernel(backend),
            };
            parallel_row_bands(a, z, d, partitions, strategy, |rows, band| {
                for (i, u) in rows.enumerate() {
                    let (cols, vals) = a.row(u);
                    kern(x.row(u), cols, vals, y, &mut band[i * d..(i + 1) * d]);
                }
            });
        }
        Specialized::Spmm => {
            let kern = match level {
                Level::Const => spmm_kernel_for(d).unwrap_or_else(|| {
                    assert!(
                        blocking != Blocking::RegisterBlocked,
                        "no generated register-blocked SpMM kernel for d={d}"
                    );
                    spmm_dyn_kernel(backend)
                }),
                Level::Strip => spmm_strip_kernel(backend),
                Level::Spec(s) => spmm_spec_kernel(backend, s),
                Level::Dyn => spmm_dyn_kernel(backend),
            };
            parallel_row_bands(a, z, d, partitions, strategy, |rows, band| {
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
        level.label(),
        t0.elapsed(),
        a.nrows(),
        a.nnz(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::fusedmm_reference;
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
                for blocking in [Blocking::Auto, Blocking::DynStrips, Blocking::StripMined] {
                    let z = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        blocking,
                        Some(4),
                        PartitionStrategy::NnzBalanced,
                    );
                    assert!(
                        z.max_abs_diff(&reference) < 1e-4,
                        "{:?} blocking {:?} d={d}: diff {}",
                        ops.pattern,
                        blocking,
                        z.max_abs_diff(&reference)
                    );
                }
                if crate::genkern::GENERATED_DIMS.contains(&d) {
                    let z = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        Blocking::RegisterBlocked,
                        Some(2),
                        PartitionStrategy::NnzBalanced,
                    );
                    assert!(z.max_abs_diff(&reference) < 1e-4);
                }
            }
        }
    }

    #[test]
    fn auto_blocking_respects_the_dimension_threshold() {
        // Below the threshold Auto uses the register-blocked kernel,
        // above it the strip-mined kernel; both must be correct.
        let n = 20;
        let a = graph(n);
        for d in [32usize, 256] {
            let x = feats(n, d, 0.1);
            let y = feats(n, d, 0.4);
            let ops = OpSet::sigmoid_embedding(None);
            let auto = fusedmm_opt(&a, &x, &y, &ops);
            let reference = fusedmm_reference(&a, &x, &y, &ops);
            assert!(auto.max_abs_diff(&reference) < 1e-4, "d={d}");
        }
        const _: () = assert!(REGISTER_BLOCK_MAX_DIM >= 32);
    }

    #[test]
    fn lut_embedding_close_to_exact() {
        let n = 30;
        let a = graph(n);
        let d = 32;
        let x = feats(n, d, 0.2);
        let y = feats(n, d, 0.5);
        let exact = fusedmm_opt(&a, &x, &y, &OpSet::sigmoid_embedding(None));
        let lut = fusedmm_opt(
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
        let opt = fusedmm_opt(&a, &x, &y, &ops);
        let gen = fusedmm_reference(&a, &x, &y, &ops);
        assert!(opt.max_abs_diff(&gen) < 1e-5);
    }

    #[test]
    fn strip_mined_covers_serving_dims_the_const_list_misses() {
        let n = 36;
        let a = graph(n);
        for d in [48usize, 96, 192] {
            assert!(!crate::genkern::GENERATED_DIMS.contains(&d));
            let x = feats(n, d, 0.15);
            let y = feats(n, d, 0.55);
            for ops in [OpSet::sigmoid_embedding(None), OpSet::gcn()] {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let z = fusedmm_opt_with(
                    &a,
                    &x,
                    &y,
                    &ops,
                    Blocking::StripMined,
                    Some(3),
                    PartitionStrategy::NnzBalanced,
                );
                assert!(
                    z.max_abs_diff(&reference) < 1e-4,
                    "{:?} d={d}: diff {}",
                    ops.pattern,
                    z.max_abs_diff(&reference)
                );
                // Auto must also land on a correct kernel at these dims.
                let auto = fusedmm_opt(&a, &x, &y, &ops);
                assert!(auto.max_abs_diff(&reference) < 1e-4, "auto {:?} d={d}", ops.pattern);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no strip-mined kernel for d=20")]
    fn forcing_strip_mining_on_odd_dim_panics() {
        let a = graph(10);
        let x = feats(10, 20, 0.1);
        let y = feats(10, 20, 0.2);
        let _ = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &OpSet::gcn(),
            Blocking::StripMined,
            Some(1),
            PartitionStrategy::NnzBalanced,
        );
    }

    #[test]
    #[should_panic(expected = "no generated register-blocked")]
    fn forcing_register_blocking_on_odd_dim_panics() {
        let a = graph(10);
        let x = feats(10, 20, 0.1);
        let y = feats(10, 20, 0.2);
        let _ = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &OpSet::sigmoid_embedding(None),
            Blocking::RegisterBlocked,
            Some(1),
            PartitionStrategy::NnzBalanced,
        );
    }
}
