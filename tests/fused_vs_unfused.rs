//! The central correctness claim of the paper (§V-D): fusing SDDMM and
//! SpMM "does not alter the actual computations performed". These tests
//! drive random graphs and features through every execution path —
//! sequential reference, generic parallel, register-blocked specialized
//! (under both of its entry-point names), and the unfused DGL-style
//! pipeline — and require elementwise agreement, including property-based random
//! exploration with proptest.

use proptest::prelude::*;
use std::sync::Arc;

use fusedmm::baseline::unfused::unfused_pipeline;
use fusedmm::prelude::*;

fn random_graph(n: usize, edges: usize, seed: u64) -> Csr {
    rmat(&RmatConfig::new(n, edges).with_seed(seed))
}

fn all_presets(d: usize) -> Vec<OpSet> {
    vec![
        OpSet::sigmoid_embedding(None),
        OpSet::sigmoid_embedding(Some(Arc::new(SigmoidLut::new(8.0, 1 << 16)))),
        OpSet::fr_model(0.75),
        OpSet::tdist_embedding(),
        OpSet::gcn(),
        OpSet::gnn_mlp(Arc::new(Mlp::seeded(d, 8, d, 5))),
    ]
}

#[test]
fn every_execution_path_agrees_on_generated_dims() {
    for d in [8usize, 32, 64] {
        let a = random_graph(60, 240, d as u64);
        let x = random_features(60, d, 0.5, 1);
        let y = random_features(60, d, 0.5, 2);
        for ops in all_presets(d) {
            let reference = fusedmm_reference(&a, &x, &y, &ops);
            let generic = fusedmm_generic(&a, &x, &y, &ops);
            let opt = fusedmm_opt(&a, &x, &y, &ops);
            let tuned = fusedmm(&a, &x, &y, &ops);
            let unfused = unfused_pipeline(&a, &x, &y, &ops).z;
            // LUT sigmoid is an approximation; allow its table error.
            let tol = if matches!(ops.sop, SOp::SigmoidLut(_)) { 2e-3 } else { 1e-4 };
            for (name, z) in
                [("generic", &generic), ("opt", &opt), ("tuned", &tuned), ("unfused", &unfused)]
            {
                let diff = z.max_abs_diff(&reference);
                assert!(diff < tol, "{name} d={d} pattern {:?}: diff {diff}", ops.pattern);
            }
        }
    }
}

#[test]
fn rectangular_minibatch_slices_agree() {
    use fusedmm::sparse::slice::{batches, gather_rows, slice_rows};
    let a = random_graph(100, 500, 3);
    let d = 16;
    let full_x = random_features(100, d, 0.5, 4);
    let y = random_features(100, d, 0.5, 5);
    let ops = OpSet::sigmoid_embedding(None);
    for batch in batches(100, 32) {
        let mb = slice_rows(&a, &batch);
        let xb = gather_rows(&full_x, &batch);
        let fused = fusedmm_opt(&mb.adj, &xb, &y, &ops);
        let unfused = unfused_pipeline(&mb.adj, &xb, &y, &ops).z;
        assert!(fused.max_abs_diff(&unfused) < 1e-4);
    }
}

#[test]
fn partition_count_does_not_change_results() {
    let a = random_graph(80, 400, 9);
    let d = 32;
    let x = random_features(80, d, 0.5, 6);
    let y = random_features(80, d, 0.5, 7);
    let ops = OpSet::fr_model(0.5);
    let reference = fusedmm_reference(&a, &x, &y, &ops);
    for parts in [1usize, 2, 3, 7, 16, 80] {
        for strategy in [PartitionStrategy::NnzBalanced, PartitionStrategy::RowBalanced] {
            let z = fusedmm::kernel::fusedmm_generic_opts(&a, &x, &y, &ops, Some(parts), strategy);
            assert!(z.max_abs_diff(&reference) < 1e-5, "parts={parts} strategy={strategy:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random custom operator sets: fused == unfused for arbitrary
    /// (standard-op) combinations, not just the named presets.
    #[test]
    fn random_standard_opsets_agree(
        seed in 0u64..1000,
        vop_idx in 0usize..4,
        rop_idx in 0usize..4,
        sop_idx in 0usize..4,
        aop_idx in 0usize..2,
        n in 8usize..40,
        d in 1usize..20,
    ) {
        let vop = [VOp::Add, VOp::Sub, VOp::Mul, VOp::Sel2nd][vop_idx].clone();
        let rop = [ROp::Sum, ROp::Norm, ROp::Max, ROp::Noop][rop_idx].clone();
        let sop = [SOp::Sigmoid, SOp::Relu, SOp::Scale(0.5), SOp::Noop][sop_idx].clone();
        let aop = [AOp::Sum, AOp::Max][aop_idx].clone();
        let ops = OpSet::custom(vop, rop, sop, MOp::Mul, aop);

        let a = random_graph(n, 3 * n, seed);
        let x = random_features(n, d, 0.5, seed ^ 1);
        let y = random_features(n, d, 0.5, seed ^ 2);

        let fused = fusedmm_generic(&a, &x, &y, &ops);
        let unfused = unfused_pipeline(&a, &x, &y, &ops).z;
        let reference = fusedmm_reference(&a, &x, &y, &ops);
        prop_assert!(fused.max_abs_diff(&reference) < 1e-4);
        prop_assert!(unfused.max_abs_diff(&reference) < 1e-4);
    }

    /// The specialized kernels agree with the reference on arbitrary
    /// graphs and any dimension.
    #[test]
    fn specialized_kernels_agree_on_any_dim(
        seed in 0u64..1000,
        n in 8usize..48,
        d in 1usize..70,
        pattern in 0usize..4,
    ) {
        let ops = match pattern {
            0 => OpSet::sigmoid_embedding(None),
            1 => OpSet::fr_model(0.3),
            2 => OpSet::tdist_embedding(),
            _ => OpSet::gcn(),
        };
        let a = random_graph(n, 2 * n, seed);
        let x = random_features(n, d, 0.5, seed ^ 3);
        let y = random_features(n, d, 0.5, seed ^ 4);
        let opt = fusedmm_opt(&a, &x, &y, &ops);
        let reference = fusedmm_reference(&a, &x, &y, &ops);
        prop_assert!(opt.max_abs_diff(&reference) < 1e-4,
            "pattern {:?} n={n} d={d}: {}", ops.pattern, opt.max_abs_diff(&reference));
    }
}
