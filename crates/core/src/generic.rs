//! The generic five-step FusedMM kernel (Algorithm 1).
//!
//! This is the "FusedMM" (unoptimized) row of the paper's Table VI: the
//! flexible path that executes arbitrary user operations step by step,
//! storing each step's output in thread-local scratch. It is fused — no
//! per-edge message is ever written to memory shared across edges — but
//! not specialized: every step is a dynamic dispatch over the [`OpSet`]
//! enums. The specialized kernels of [`crate::genkern`] eliminate that
//! dispatch and the scratch traffic for recognized patterns.

use fusedmm_ops::{Message, OpSet};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::driver::parallel_row_bands;
use crate::part::PartitionStrategy;

/// Check the operand shapes of `Z = FusedMM(A, X, Y)`.
///
/// # Panics
/// Panics with a descriptive message on any mismatch (shape errors are
/// programming errors at this layer; fallible validation lives in the
/// sparse crate's constructors).
pub fn validate_shapes(a: &Csr, x: &Dense, y: &Dense) {
    assert_eq!(x.nrows(), a.nrows(), "X must have m = {} rows, has {}", a.nrows(), x.nrows());
    assert_eq!(y.nrows(), a.ncols(), "Y must have n = {} rows, has {}", a.ncols(), y.nrows());
    assert_eq!(
        x.ncols(),
        y.ncols(),
        "X and Y must share the embedding dimension (got {} vs {})",
        x.ncols(),
        y.ncols()
    );
}

/// Check the per-edge score output of a scored launch: the operator
/// set must reduce to a scalar (`s_uv = ROP(VOP(x_u, y_v))` is what is
/// handed back) and `scores` must hold one slot per stored entry.
///
/// # Panics
/// Panics when the ROP is `NOOP` (GCN/SpMM and the MLP pattern keep the
/// vector: no per-edge scalar exists) or on a length mismatch.
pub(crate) fn validate_scores(a: &Csr, ops: &OpSet, scores: &[f32]) {
    assert!(
        !ops.rop.is_noop(),
        "a scored launch needs a scalar per edge, and {:?} has no ROP to produce one",
        ops.pattern
    );
    assert_eq!(
        scores.len(),
        a.nnz(),
        "scores must have one slot per stored entry of A ({}), has {}",
        a.nnz(),
        scores.len()
    );
}

/// UPDATE_U (Algorithm 1 lines 9–18): generate and aggregate messages
/// for one target vertex.
///
/// `cols`/`vals` are vertex `u`'s row of `A`; `zu` is its output row,
/// pre-filled with the AOP identity by the caller; `scratch_z` and
/// `scratch_w` are `d`-length thread-local buffers. With `scores` (one
/// slot per neighbor), the ROP's scalar of every edge is stored on its
/// way to the SOP.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn update_u(
    ops: &OpSet,
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    mut scores: Option<&mut [f32]>,
    scratch_z: &mut [f32],
    scratch_w: &mut [f32],
) {
    for (i, (&v, &a)) in cols.iter().zip(vals).enumerate() {
        let yv = y.row(v);
        // Step 1: VOP
        ops.vop.apply(xu, yv, a, scratch_z);
        // Steps 2+3: ROP then SOP on scalar, or SOP elementwise on the
        // vector when ROP is a NOOP ("directly use z if ROP is a NOOP").
        match ops.rop.apply(scratch_z) {
            Some(s) => {
                if let Some(out) = scores.as_deref_mut() {
                    out[i] = s;
                }
                let h = ops.sop.apply_scalar(s, a);
                // Step 4: MOP
                ops.mop.apply(Message::Scalar(h), yv, a, scratch_w);
            }
            None => {
                ops.sop.apply_vec(scratch_z, a);
                ops.mop.apply(Message::Vector(scratch_z), yv, a, scratch_w);
            }
        }
        // Step 5: AOP
        ops.aop.apply(zu, scratch_w);
    }
}

/// The generic multithreaded FusedMM: `Z = FusedMM(A, X, Y)` with
/// user-supplied operations, PART1D load balancing and the current
/// rayon thread pool.
pub fn fusedmm_generic(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    fusedmm_generic_opts(a, x, y, ops, None, PartitionStrategy::NnzBalanced)
}

/// [`fusedmm_generic`] with explicit partition count and strategy
/// (used by the scaling and ablation benchmarks).
pub fn fusedmm_generic_opts(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
) -> Dense {
    let mut z = Dense::zeros(a.nrows(), x.ncols());
    fusedmm_generic_into(a, x, y, ops, partitions, strategy, z.as_mut_slice());
    z
}

/// [`fusedmm_generic_opts`] into a caller-owned output: every row of
/// the row-major `a.nrows() × d` slice `z` is overwritten, whatever it
/// held (see "Output ownership" in `docs/ARCHITECTURE.md`).
///
/// # Panics
/// Panics on a shape mismatch, `z.len() != a.nrows() * d` included.
pub fn fusedmm_generic_into(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    z: &mut [f32],
) {
    validate_shapes(a, x, y);
    generic_launch(a, x, y, ops, partitions, strategy, z, None);
}

/// The generic kernel's one body, behind [`fusedmm_generic_into`] and
/// the `Blocking::Generic` arm of the scored launch (operands already
/// validated; `scores` as in
/// [`fusedmm_opt_scored_into`](crate::fusedmm_opt_scored_into)).
#[allow(clippy::too_many_arguments)]
pub(crate) fn generic_launch(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    z: &mut [f32],
    scores: Option<&mut [f32]>,
) {
    let d = x.ncols();
    let identity = ops.aop.identity();
    let rowptr = a.rowptr();
    parallel_row_bands(a, z, d, scores, partitions, strategy, |rows, band, mut edges| {
        let mut scratch_z = vec![0f32; d];
        let mut scratch_w = vec![0f32; d];
        let first = rowptr[rows.start];
        for (i, u) in rows.enumerate() {
            let zu = &mut band[i * d..(i + 1) * d];
            let (cols, vals) = a.row(u);
            // Isolated vertex: defined as the zero vector, not the AOP
            // identity (±∞ for max/min would poison consumers).
            zu.fill(if cols.is_empty() { 0.0 } else { identity });
            let su = edges.as_deref_mut().map(|e| &mut e[rowptr[u] - first..rowptr[u + 1] - first]);
            update_u(ops, x.row(u), cols, vals, y, zu, su, &mut scratch_z, &mut scratch_w);
        }
    });
}

/// A deliberately simple sequential reference implementation used by the
/// test suite as ground truth. Same math as [`fusedmm_generic`], no
/// partitioning, fresh allocations per row — slow and obviously correct.
pub fn fusedmm_reference(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    validate_shapes(a, x, y);
    let d = x.ncols();
    let mut z = Dense::zeros(a.nrows(), d);
    for u in 0..a.nrows() {
        let (cols, vals) = a.row(u);
        if cols.is_empty() {
            continue;
        }
        let mut acc = vec![ops.aop.identity(); d];
        for (&v, &aval) in cols.iter().zip(vals) {
            let yv = y.row(v);
            let mut zvec = vec![0f32; d];
            ops.vop.apply(x.row(u), yv, aval, &mut zvec);
            let mut w = vec![0f32; d];
            match ops.rop.apply(&zvec) {
                Some(s) => {
                    let h = ops.sop.apply_scalar(s, aval);
                    ops.mop.apply(Message::Scalar(h), yv, aval, &mut w);
                }
                None => {
                    ops.sop.apply_vec(&mut zvec, aval);
                    ops.mop.apply(Message::Vector(&zvec), yv, aval, &mut w);
                }
            }
            ops.aop.apply(&mut acc, &w);
        }
        z.row_mut(u).copy_from_slice(&acc);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};
    use fusedmm_sparse::coo::{Coo, Dedup};
    use std::sync::Arc;

    fn path3() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 2
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 1.0);
        c.push(0, 2, 2.0);
        c.push(1, 2, 1.0);
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn gcn_pattern_is_weighted_spmm() {
        let a = path3();
        let x = Dense::zeros(3, 2);
        let y = Dense::from_rows(3, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]).unwrap();
        let z = fusedmm_generic(&a, &x, &y, &OpSet::gcn());
        // z0 = 1*y1 + 2*y2, z1 = 1*y2, z2 = 0
        assert_eq!(z.row(0), &[8.0, 80.0]);
        assert_eq!(z.row(1), &[3.0, 30.0]);
        assert_eq!(z.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn embedding_pattern_matches_hand_computation() {
        let a = path3();
        let x = Dense::from_rows(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let y = x.clone();
        let z = fusedmm_generic(&a, &x, &y, &OpSet::sigmoid_embedding(None));
        // row 0: σ(x0·y1)*y1 + σ(x0·y2)*y2, x0·y1 = 0, x0·y2 = 1
        let s0 = fusedmm_ops::sigmoid(0.0);
        let s1 = fusedmm_ops::sigmoid(1.0);
        assert!((z.get(0, 0) - (s0 * 0.0 + s1 * 1.0)).abs() < 1e-6);
        assert!((z.get(0, 1) - (s0 * 1.0 + s1 * 1.0)).abs() < 1e-6);
    }

    #[test]
    fn parallel_matches_reference_on_random_ops() {
        let a = path3();
        let x = Dense::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let y = Dense::from_fn(3, 4, |r, c| (r * c) as f32 * 0.25 - 1.0);
        for ops in [
            OpSet::sigmoid_embedding(None),
            OpSet::fr_model(0.5),
            OpSet::gcn(),
            OpSet::custom(VOp::Add, ROp::Max, SOp::Relu, MOp::Mul, AOp::Min),
        ] {
            let par =
                fusedmm_generic_opts(&a, &x, &y, &ops, Some(3), PartitionStrategy::NnzBalanced);
            let refr = fusedmm_reference(&a, &x, &y, &ops);
            assert!(par.max_abs_diff(&refr) < 1e-6, "pattern {:?} diverged", ops.pattern);
        }
    }

    #[test]
    fn isolated_vertices_produce_zero_rows_even_with_amax() {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 1.0);
        let a = c.to_csr(Dedup::Last);
        let x = Dense::filled(3, 2, 1.0);
        let y = Dense::filled(3, 2, -5.0);
        let ops = OpSet::custom(VOp::Sel2nd, ROp::Noop, SOp::Noop, MOp::Noop, AOp::Max);
        let z = fusedmm_generic(&a, &x, &y, &ops);
        assert_eq!(z.row(0), &[-5.0, -5.0]); // real max over one neighbor
        assert_eq!(z.row(1), &[0.0, 0.0]); // isolated
        assert_eq!(z.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn into_overwrites_every_row_of_a_poisoned_output() {
        let mut c = Coo::new(4, 4);
        c.push(0, 1, 1.0);
        c.push(2, 3, 0.5);
        let a = c.to_csr(Dedup::Last); // rows 1 and 3 are isolated
        let x = Dense::from_fn(4, 3, |r, k| (r + k) as f32 * 0.5);
        let y = Dense::from_fn(4, 3, |r, k| (r * k) as f32 * 0.25 - 1.0);
        for ops in [
            OpSet::gcn(),
            OpSet::sigmoid_embedding(None),
            OpSet::custom(VOp::Add, ROp::Max, SOp::Relu, MOp::Mul, AOp::Min),
        ] {
            let want = fusedmm_generic(&a, &x, &y, &ops);
            let mut z = vec![f32::NAN; 4 * 3];
            fusedmm_generic_into(&a, &x, &y, &ops, Some(2), PartitionStrategy::NnzBalanced, &mut z);
            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&z), bits(want.as_slice()), "{:?}", ops.pattern);
        }
    }

    #[test]
    fn custom_closures_run_per_edge() {
        let a = path3();
        let x = Dense::filled(3, 2, 1.0);
        let y = Dense::filled(3, 2, 1.0);
        // VOP that multiplies by the edge value; identity elsewhere.
        let ops = OpSet::custom(
            VOp::Custom(Arc::new(|xr, _y, a, out| {
                for (o, &xi) in out.iter_mut().zip(xr) {
                    *o = a * xi;
                }
            })),
            ROp::Sum,
            SOp::Noop,
            MOp::Mul,
            AOp::Sum,
        );
        let z = fusedmm_generic(&a, &x, &y, &ops);
        // row 0: edges (0,1,w=1) and (0,2,w=2): h = w*2 (sum of a*1 over d=2)
        // w per edge = h * y = 2w each lane; total = 2*1 + 2*2 = 6
        assert_eq!(z.row(0), &[6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "X must have")]
    fn shape_validation_fires() {
        let a = path3();
        let x = Dense::zeros(2, 4);
        let y = Dense::zeros(3, 4);
        let _ = fusedmm_generic(&a, &x, &y, &OpSet::gcn());
    }

    #[test]
    fn rectangular_minibatch_shapes_work() {
        // 2 x 5 slice: 2 batch vertices, 5 global vertices.
        let mut c = Coo::new(2, 5);
        c.push(0, 4, 1.0);
        c.push(1, 0, 1.0);
        c.push(1, 3, 1.0);
        let a = c.to_csr(Dedup::Last);
        let x = Dense::filled(2, 3, 1.0);
        let y = Dense::from_fn(5, 3, |r, _| r as f32);
        let z = fusedmm_generic(&a, &x, &y, &OpSet::gcn());
        assert_eq!(z.row(0), &[4.0, 4.0, 4.0]);
        assert_eq!(z.row(1), &[3.0, 3.0, 3.0]);
    }
}
