//! FusedMM — a unified SDDMM-SpMM kernel for graph embedding and GNNs.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Rahman, Sujon & Azad, IPDPS 2021): one fused kernel computing
//!
//! ```text
//! z_u = ⊕_{v ∈ N(u)} φ(x_u, y_v, ψ(x_u, y_v, a_uv))     (Eq. 1)
//! ```
//!
//! for every vertex — message generation (SDDMM) and aggregation (SpMM)
//! in one pass, with no materialized intermediate — parameterized by the
//! five user-defined steps of [`fusedmm_ops`].
//!
//! # Entry points
//!
//! * [`fusedmm`] / [`fusedmm_opt`] — the optimized kernel (two names
//!   for one entry point): recognizes the operator pattern and
//!   dispatches to its register-blocked generated kernel ("FusedMMopt"
//!   in the paper's Table VI), generic fallback otherwise;
//! * [`fusedmm_generic`] — the flexible five-step kernel with no
//!   specialization (the paper's unoptimized "FusedMM" row);
//! * [`fusedmm_opt_into`] / [`Plan::execute_into`] /
//!   [`fusedmm_generic_into`] — the same kernels writing a
//!   caller-owned `Z` (every row overwritten, nothing read): the one
//!   body behind each allocating entry point above, and what a caller
//!   that launches repeatedly should use;
//! * [`fusedmm_opt_scored_into`] — [`fusedmm_opt_into`] that also
//!   hands back the SDDMM scores `s_uv = ROP(VOP(x_u, y_v))`, one per
//!   stored entry in storage order, into a caller-owned slice under the
//!   same contract (every slot overwritten, nothing read) — for callers
//!   that need the per-edge scalar the kernel computed anyway (a
//!   training loss, attention weights) without a second pass over the
//!   neighbor rows;
//! * [`fusedmm_reference`] — slow sequential ground truth for tests;
//! * [`fusedmm_rows`] — row-subset execution (only the requested output
//!   rows), the serving-path entry point;
//! * [`Plan`] / [`PlanCache`] — the per-call dispatch decision lifted
//!   into an explicit, reusable plan object for serving engines.
//!
//! Kernels execute on a SIMD backend detected once per process
//! (AVX-512 or AVX2+FMA on x86-64, NEON on AArch64, portable scalar
//! otherwise — see [`crate::simd`] and [`cpu_features`]); set
//! `FUSEDMM_FORCE_BACKEND=<name>` to request a specific one (`scalar`
//! pins the portable fallback). There is one specialized kernel family
//! ([`genkern::table`]) and the shape a launch runs is a pure function
//! of `(pattern class, d, backend)` —
//! [`KernelSpec::default_for`](genkern::KernelSpec::default_for) —
//! so nothing is measured at run time and every process start runs the
//! same kernel; `docs/ARCHITECTURE.md` at the workspace root draws the
//! whole dispatch stack and records why there is no run-time tuner.
//!
//! # Example
//!
//! ```
//! use fusedmm_core::fusedmm;
//! use fusedmm_ops::OpSet;
//! use fusedmm_sparse::{coo::Dedup, Coo, Dense};
//!
//! // A 3-vertex graph: 0 -> 1 -> 2.
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 2, 1.0);
//! let a = coo.to_csr(Dedup::Sum);
//!
//! let x = Dense::filled(3, 8, 0.5);
//! let y = Dense::filled(3, 8, 0.25);
//!
//! // z_u = Σ_v σ(x_u · y_v) y_v  — sigmoid graph embedding.
//! let z = fusedmm(&a, &x, &y, &OpSet::sigmoid_embedding(None));
//! assert_eq!(z.nrows(), 3);
//! ```

#![warn(missing_docs)]

pub mod dispatch;
pub mod driver;
pub mod generic;
pub mod genkern;
pub mod hybrid;
pub mod part;
pub mod plan;
pub mod profile;
pub mod rows;
pub mod simd;

pub use dispatch::{
    fusedmm_opt, fusedmm_opt_into, fusedmm_opt_scored_into, fusedmm_opt_with, specialize, Blocking,
    Specialized,
};
pub use generic::{fusedmm_generic, fusedmm_generic_into, fusedmm_generic_opts, fusedmm_reference};
pub use hybrid::HybridConfig;
pub use part::{Partition, PartitionStrategy};
pub use plan::{Plan, PlanCache, PlanTag};
pub use profile::{kernel_profiles, reset_kernel_profiles, KernelProfile};
pub use rows::{fusedmm_rows, fusedmm_rows_banded, fusedmm_rows_banded_topk, fusedmm_rows_with};
pub use simd::{active_backend, cpu_features, Backend, CpuFeatures};

use fusedmm_ops::OpSet;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

/// `Z = FusedMM(A, X, Y)` — the library's front door. The same entry
/// point as [`fusedmm_opt`] under the name the quick-start uses.
pub fn fusedmm(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    fusedmm_opt(a, x, y, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};

    #[test]
    fn front_door_matches_reference() {
        let mut c = Coo::new(8, 8);
        for u in 0..8usize {
            c.push(u, (u + 1) % 8, 1.0);
            c.push(u, (u + 3) % 8, 0.5);
        }
        let a = c.to_csr(Dedup::Last);
        let x = Dense::from_fn(8, 16, |r, k| ((r + k) as f32).sin() * 0.3);
        let y = Dense::from_fn(8, 16, |r, k| ((r * k) as f32).cos() * 0.2);
        for ops in [OpSet::sigmoid_embedding(None), OpSet::fr_model(0.1), OpSet::gcn()] {
            let z = fusedmm(&a, &x, &y, &ops);
            let r = fusedmm_reference(&a, &x, &y, &ops);
            assert!(z.max_abs_diff(&r) < 1e-4, "{:?}", ops.pattern);
        }
    }
}
