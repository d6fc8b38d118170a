//! The three kernel methods of Table VI, plus the memory-budget policy.

use fusedmm_baseline::unfused::unfused_pipeline;
use fusedmm_core::{Blocking, Launch, Plan};
use fusedmm_ops::OpSet;
use fusedmm_perf::timer::{time_iterations, TimingStats};
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::unfused_intermediate_bytes;

use crate::workloads::{mem_budget_bytes, Workload};

/// A kernel execution strategy — the three method rows of Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// DGL-equivalent unfused SDDMM → SpMM with materialized messages.
    Dgl,
    /// FusedMM, generic five-step path (the paper's unoptimized row).
    FusedMM,
    /// FusedMM with pattern-specialized register-blocked kernels.
    FusedMMOpt,
}

impl Method {
    /// The paper's row label.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Dgl => "DGL",
            Method::FusedMM => "FusedMM",
            Method::FusedMMOpt => "FusedMMopt",
        }
    }

    /// All three methods in table order.
    pub fn all() -> [Method; 3] {
        [Method::Dgl, Method::FusedMM, Method::FusedMMOpt]
    }
}

/// Outcome of one table cell.
#[derive(Debug, Clone)]
pub enum CellResult {
    /// Measured timing.
    Time(TimingStats),
    /// Skipped: the unfused intermediate would exceed the memory budget
    /// (the `×` of Table VI).
    OutOfMemory {
        /// Bytes the intermediate `H` would need.
        required: usize,
    },
}

impl CellResult {
    /// Average seconds, if measured.
    pub fn avg(&self) -> Option<f64> {
        match self {
            CellResult::Time(t) => Some(t.avg),
            CellResult::OutOfMemory { .. } => None,
        }
    }
}

/// Time `method` on a workload with the given operator set, honoring
/// the memory-budget policy for the unfused baseline.
pub fn run_method(method: Method, w: &Workload, ops: &OpSet, reps: usize) -> CellResult {
    if method == Method::Dgl {
        // DGL's dominant intermediate: the SDDMM output. Scalar messages
        // (embedding) stay cheap; vector messages (FR/MLP) cost
        // 12·nnz·d and reproduce the paper's out-of-memory cells.
        let dim = ops.sddmm_intermediate_dim(w.d).max(1);
        let required = unfused_intermediate_bytes(w.adj.nnz(), dim);
        if required > mem_budget_bytes() {
            return CellResult::OutOfMemory { required };
        }
    }
    // The fused kernels write a caller-owned Z, allocated once out here:
    // the timed loop is the kernel, not a per-iteration memset and page
    // faults. The unfused pipeline's buffers are its own business.
    let mut z = Dense::zeros(w.adj.nrows(), w.d);
    let blocking = if method == Method::FusedMM { Blocking::Generic } else { Blocking::Auto };
    let plan =
        Plan::with_blocking(ops, w.d, blocking, fusedmm_core::PartitionStrategy::NnzBalanced);
    let stats = match method {
        Method::Dgl => time_iterations(reps, || {
            std::hint::black_box(unfused_pipeline(&w.adj, &w.x, &w.y, ops));
        }),
        Method::FusedMM | Method::FusedMMOpt => time_iterations(reps, || {
            plan.launch(&w.adj, &w.x, &w.y, ops, Launch::All { scores: None }, z.as_mut_slice());
            std::hint::black_box(z.as_slice());
        }),
    };
    CellResult::Time(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::kernel_workload_scaled;
    use fusedmm_graph::datasets::Dataset;

    #[test]
    fn all_methods_run_small_workload() {
        let w = kernel_workload_scaled(Dataset::Cora, 16, 0.1);
        for m in Method::all() {
            let r = run_method(m, &w, &OpSet::sigmoid_embedding(None), 1);
            assert!(r.avg().is_some(), "{} skipped unexpectedly", m.label());
        }
    }

    #[test]
    fn oom_policy_fires_for_huge_fr_intermediates() {
        std::env::set_var("FUSEDMM_MEM_BUDGET_MB", "1");
        let w = kernel_workload_scaled(Dataset::Flickr, 512, 0.05);
        let r = run_method(Method::Dgl, &w, &OpSet::fr_model(1.0), 1);
        std::env::remove_var("FUSEDMM_MEM_BUDGET_MB");
        assert!(matches!(r, CellResult::OutOfMemory { .. }));
    }

    #[test]
    fn fused_methods_never_oom() {
        std::env::set_var("FUSEDMM_MEM_BUDGET_MB", "1");
        let w = kernel_workload_scaled(Dataset::Cora, 32, 0.1);
        let r = run_method(Method::FusedMMOpt, &w, &OpSet::fr_model(1.0), 1);
        std::env::remove_var("FUSEDMM_MEM_BUDGET_MB");
        assert!(r.avg().is_some());
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Method::Dgl.label(), "DGL");
        assert_eq!(Method::FusedMMOpt.label(), "FusedMMopt");
    }
}
