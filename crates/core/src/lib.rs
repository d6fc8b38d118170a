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
//! * [`Plan::launch`] — the one launch: a [`Plan`] (the per-launch
//!   dispatch decision, prepared once: which kernel shape, or the
//!   generic five-step kernel, and how PART1D cuts rows) runs over a
//!   [`Launch`] descriptor — every row of `A`, optionally handing back
//!   the SDDMM scores `s_uv = ROP(VOP(x_u, y_v))`, or a subset of
//!   global rows of a PART1D band, optionally truncated to each row's
//!   `k` strongest neighbors — into a caller-owned `Z` whose every row
//!   is overwritten;
//! * [`fusedmm`] / [`fusedmm_opt`] — one allocating convenience under
//!   two names: the optimized kernel ("FusedMMopt" in the paper's Table
//!   VI) over every row, the recognized pattern's register-blocked
//!   kernel or the generic fallback;
//! * [`fusedmm_reference`] — slow sequential ground truth for tests.
//!
//! Kernels execute on a SIMD backend detected once per process
//! (AVX-512 or AVX2+FMA on x86-64, NEON on AArch64, portable scalar
//! otherwise — see [`crate::simd`] and [`cpu_features`]); set
//! `FUSEDMM_FORCE_BACKEND=<name>` to request a specific one (`scalar`
//! pins the portable fallback). There is one specialized kernel family
//! ([`genkern::table`]) and the shape a launch runs is a pure function
//! of `(d, backend)` —
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
pub mod part;
pub mod plan;
pub mod profile;
pub mod simd;

pub use dispatch::{specialize, Blocking, Specialized};
pub use generic::fusedmm_reference;
pub use part::{Partition, PartitionStrategy};
pub use plan::{Launch, Plan};
pub use profile::{kernel_profiles, reset_kernel_profiles, KernelProfile};
pub use simd::{active_backend, cpu_features, Backend, CpuFeatures};

use fusedmm_ops::OpSet;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

/// `Z = FusedMM(A, X, Y)` — the library's front door: [`Plan::prepare`]'s
/// plan launched over every row into a fresh `a.nrows() × d` output.
/// [`fusedmm_opt`] is the same function under the paper's name for it.
pub fn fusedmm(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    let mut z = Dense::zeros(a.nrows(), x.ncols());
    let all = Launch::All { scores: None };
    Plan::prepare(ops, x.ncols()).launch(a, x, y, ops, all, z.as_mut_slice());
    z
}

pub use self::fusedmm as fusedmm_opt;

/// Run `f` in a pool `width` threads wide, so launches inside it cut
/// `width` PART1D parts.
#[cfg(test)]
pub(crate) fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap().install(f)
}

/// Every row of `a` under `blocking`, at pool width `width`.
#[cfg(test)]
pub(crate) fn launch_at(
    width: usize,
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
) -> Dense {
    let plan = Plan::with_blocking(ops, x.ncols(), blocking, PartitionStrategy::NnzBalanced);
    let mut z = Dense::zeros(a.nrows(), x.ncols());
    at_width(width, || plan.launch(a, x, y, ops, Launch::All { scores: None }, z.as_mut_slice()));
    z
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
