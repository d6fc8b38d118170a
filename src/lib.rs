//! # FusedMM — unified SDDMM-SpMM kernels for graph learning
//!
//! A from-scratch Rust reproduction of *FusedMM: A Unified SDDMM-SpMM
//! Kernel for Graph Embedding and Graph Neural Networks* (Rahman,
//! Sujon & Azad, IPDPS 2021). This façade crate re-exports the
//! workspace's public API under one roof:
//!
//! * [`sparse`] — CSR/CSC/COO and dense matrix substrate;
//! * [`graph`] — graph generators and the Table V dataset registry;
//! * [`ops`] — the five-step VOP/ROP/SOP/MOP/AOP operator framework;
//! * [`kernel`] — the FusedMM kernel itself: one `Plan::launch` over
//!   every row or a row subset, specialized or generic;
//! * [`baseline`] — the unfused (DGL-style), dense (PyTorch-style) and
//!   inspector-executor (MKL-style) comparators;
//! * [`apps`] — Force2Vec embedding, FR layout, GCN, GNN-MLP,
//!   classification;
//! * [`serve`] — the online serving engine: row-subset launches,
//!   micro-batched embedding refresh, edge scoring;
//! * [`rpc`] — multi-process shard serving: framed socket transport,
//!   worker serve loop, coordinator client, replicated epoch log;
//! * [`perf`] — timing, latency histograms, memory tracking, STREAM
//!   bandwidth, roofline, the metrics registry, and the request
//!   tracer.
//!
//! ## Quickstart
//!
//! ```
//! use fusedmm::prelude::*;
//!
//! // Generate a small power-law graph.
//! let a = rmat(&RmatConfig::new(500, 2000));
//! let x = random_features(500, 64, 0.5, 1);
//! let y = random_features(500, 64, 0.5, 2);
//!
//! // z_u = Σ_{v∈N(u)} σ(x_u·y_v) · y_v, fused.
//! let z = fusedmm(&a, &x, &y, &OpSet::sigmoid_embedding(None));
//! assert_eq!((z.nrows(), z.ncols()), (500, 64));
//! ```

pub use fusedmm_apps as apps;
pub use fusedmm_baseline as baseline;
pub use fusedmm_core as kernel;
pub use fusedmm_graph as graph;
pub use fusedmm_ops as ops;
pub use fusedmm_perf as perf;
pub use fusedmm_rpc as rpc;
pub use fusedmm_serve as serve;
pub use fusedmm_sparse as sparse;

/// The names most programs need, in one import.
pub mod prelude {
    pub use fusedmm_core::{
        cpu_features, fusedmm, fusedmm_opt, fusedmm_reference, kernel_profiles,
        reset_kernel_profiles, Backend, Blocking, Launch, PartitionStrategy, Plan,
    };
    pub use fusedmm_graph::datasets::Dataset;
    pub use fusedmm_graph::erdos::erdos_renyi;
    pub use fusedmm_graph::features::random_features;
    pub use fusedmm_graph::planted::planted_partition;
    pub use fusedmm_graph::rmat::{rmat, RmatConfig};
    pub use fusedmm_ops::{AOp, MOp, Mlp, OpSet, Pattern, ROp, SOp, SigmoidLut, VOp};
    pub use fusedmm_rpc::{RpcConfig, RpcTransport, WorkerServer};
    pub use fusedmm_serve::remote::{
        EpochRecord, PartOutcome, PartSlot, RemoteShardedEngine, ShardTransport, WorkerEngine,
        WorkerError,
    };
    pub use fusedmm_serve::{
        quiet_injected_panics, register_kernel_profiles, wait_any, AdmissionPolicy, CacheConfig,
        EmbedOptions, EmbedResponse, Engine, EngineConfig, FaultPlan, FeatureStore,
        MetricsRegistry, MetricsSnapshot, Quality, Reordering, ServeError, ShardedEngine, Ticket,
        Tracer,
    };
    pub use fusedmm_sparse::coo::Dedup;
    pub use fusedmm_sparse::{Coo, Csr, Dense, Permutation};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let a = erdos_renyi(64, 200, 1);
        let x = random_features(64, 16, 0.5, 1);
        let y = random_features(64, 16, 0.5, 2);
        let z = fusedmm(&a, &x, &y, &OpSet::gcn());
        let r = fusedmm_reference(&a, &x, &y, &OpSet::gcn());
        assert!(z.max_abs_diff(&r) < 1e-5);
    }
}
