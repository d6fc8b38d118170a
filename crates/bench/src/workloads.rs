//! Workload construction for the benchmark harness.

use fusedmm_graph::datasets::Dataset;
use fusedmm_graph::features::random_features;
use fusedmm_graph::stats::GraphStats;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

/// A ready-to-benchmark kernel workload: the adjacency stand-in plus
/// feature matrices at one dimension.
pub struct Workload {
    /// Source dataset.
    pub dataset: Dataset,
    /// The generated stand-in adjacency.
    pub adj: Csr,
    /// `m × d` target-vertex features.
    pub x: Dense,
    /// `n × d` source-vertex features.
    pub y: Dense,
    /// Feature dimension.
    pub d: usize,
}

/// Read an f64 environment knob.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a usize environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The global scale multiplier (`FUSEDMM_SCALE`, default 1.0).
pub fn scale_factor() -> f64 {
    env_f64("FUSEDMM_SCALE", 1.0)
}

/// Timed repetitions per cell (`FUSEDMM_REPS`, default 3; paper used 10).
pub fn reps() -> usize {
    env_usize("FUSEDMM_REPS", 3)
}

/// Intermediate-memory budget in bytes for the unfused baseline
/// (`FUSEDMM_MEM_BUDGET_MB`, default 1024 MiB). Cells whose `H` would
/// exceed it print `×`, reproducing Table VI's out-of-memory entries
/// at reproduction scale.
pub fn mem_budget_bytes() -> usize {
    env_usize("FUSEDMM_MEM_BUDGET_MB", 1024) << 20
}

/// Build the kernel workload for `dataset` at dimension `d`, applying
/// the global scale multiplier on top of the dataset's recommended
/// scale.
pub fn kernel_workload(dataset: Dataset, d: usize) -> Workload {
    let scale = dataset.recommended_scale() * scale_factor();
    kernel_workload_scaled(dataset, d, scale)
}

/// [`kernel_workload`] with an explicit absolute scale.
pub fn kernel_workload_scaled(dataset: Dataset, d: usize, scale: f64) -> Workload {
    let adj = dataset.standin_scaled(scale);
    let n = adj.nrows();
    let x = random_features(n, d, 0.5, 0xA + dataset as u64);
    let y = random_features(n, d, 0.5, 0xB + dataset as u64);
    Workload { dataset, adj, x, y, d }
}

/// Print the Table V-style stand-in summary line for a workload.
pub fn describe(w: &Workload) -> String {
    let stats = GraphStats::compute(&w.adj);
    let spec = w.dataset.spec();
    format!(
        "{} (paper: |V|={}, deg={:.1})",
        stats.table_row(spec.name),
        spec.vertices,
        spec.avg_degree
    )
}

/// The deterministic workload the rpc smoke demo builds on **both**
/// sides of the process boundary (`fusedmm-shard-worker` and
/// `fusedmm-rpc-smoke`): an RMAT graph plus feature matrices, fully
/// seeded, so coordinator and worker processes agree bit-for-bit
/// without shipping the graph over the wire. Knobs: `FUSEDMM_RPC_N`
/// (vertices, default 400), `FUSEDMM_RPC_D` (dimension, default 16).
pub fn rpc_demo_workload() -> (Csr, Dense, Dense) {
    let n = env_usize("FUSEDMM_RPC_N", 400);
    let d = env_usize("FUSEDMM_RPC_D", 16);
    let adj =
        fusedmm_graph::rmat::rmat(&fusedmm_graph::rmat::RmatConfig::new(n, 4 * n).with_seed(11));
    let x = random_features(adj.nrows(), d, 0.5, 1);
    let y = random_features(adj.ncols(), d, 0.5, 2);
    (adj, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes_consistent() {
        let w = kernel_workload_scaled(Dataset::Youtube, 16, 0.002);
        assert_eq!(w.x.nrows(), w.adj.nrows());
        assert_eq!(w.y.nrows(), w.adj.ncols());
        assert_eq!(w.x.ncols(), 16);
    }

    #[test]
    fn env_knobs_fall_back_to_defaults() {
        assert_eq!(env_f64("FUSEDMM_DOES_NOT_EXIST", 2.5), 2.5);
        assert_eq!(env_usize("FUSEDMM_DOES_NOT_EXIST", 7), 7);
    }

    #[test]
    fn describe_mentions_paper_stats() {
        let w = kernel_workload_scaled(Dataset::Cora, 8, 0.3);
        let s = describe(&w);
        assert!(s.contains("Cora"));
        assert!(s.contains("2708"));
    }
}
