//! Per-shape kernel profiling: cycle and work accounting for every
//! fused-kernel launch, keyed by `(op, d, backend, kernel shape)`.
//!
//! The dispatcher (every [`Plan::launch`](crate::Plan::launch)) records one
//! observation per launch — wall time, output rows, and edges (nnz)
//! swept — into a process-global table. Row-subset serving calls route
//! through the same dispatcher, so the serving engines' kernel work is
//! captured without extra hooks. Consumers turn the accumulated edge
//! counts into FLOPs with `fusedmm_perf::flops::flops_per_edge` and
//! compare achieved GFLOP/s against the roofline bound per kernel
//! shape; the metrics registry exposes the table as
//! `fusedmm_kernel_*` samples labeled `op` / `d` / `backend` /
//! `blocking`.
//!
//! Cost: one `Instant` pair and one short mutex-protected hash-map
//! upsert per *launch* (not per row or edge) — noise next to a kernel
//! sweep, so the hooks stay compiled in unconditionally.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use fusedmm_ops::Pattern;

use crate::simd::Backend;

/// One row of the kernel profile table: every launch with the same
/// shape key, accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelProfile {
    /// The recognized operator pattern the launch executed.
    pub pattern: Pattern,
    /// Embedding dimension (columns of `X`/`Y`/`Z`).
    pub d: usize,
    /// SIMD backend the kernels ran on.
    pub backend: Backend,
    /// What ran: `spec-m{M}-h{H}` (the kernel table's shape —
    /// per-variant roofline rows fall out of the label), `generic`
    /// (the unspecialized five-step kernel), or the
    /// `hybrid-strip`/`hybrid-mega` per-class rows.
    pub blocking: &'static str,
    /// Launches recorded.
    pub calls: u64,
    /// Total wall time across launches.
    pub elapsed: Duration,
    /// Total output rows computed.
    pub rows: u64,
    /// Total edges (nonzeros) swept — multiply by
    /// `flops_per_edge(pattern, d)` for total FLOPs.
    pub edges: u64,
}

#[derive(Default)]
struct Acc {
    calls: u64,
    nanos: u64,
    rows: u64,
    edges: u64,
}

type Key = (Pattern, usize, Backend, &'static str);

fn table() -> &'static Mutex<HashMap<Key, Acc>> {
    static TABLE: OnceLock<Mutex<HashMap<Key, Acc>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Record one kernel launch (called by the dispatcher).
pub(crate) fn record_kernel(
    pattern: Pattern,
    d: usize,
    backend: Backend,
    blocking: &'static str,
    elapsed: Duration,
    rows: usize,
    edges: usize,
) {
    let mut t = table().lock().unwrap();
    let acc = t.entry((pattern, d, backend, blocking)).or_default();
    acc.calls += 1;
    acc.nanos += elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    acc.rows += rows as u64;
    acc.edges += edges as u64;
}

/// The accumulated per-shape kernel profiles, sorted by
/// `(op name, d, blocking)` for stable reporting.
pub fn kernel_profiles() -> Vec<KernelProfile> {
    let t = table().lock().unwrap();
    let mut out: Vec<KernelProfile> = t
        .iter()
        .map(|(&(pattern, d, backend, blocking), acc)| KernelProfile {
            pattern,
            d,
            backend,
            blocking,
            calls: acc.calls,
            elapsed: Duration::from_nanos(acc.nanos),
            rows: acc.rows,
            edges: acc.edges,
        })
        .collect();
    out.sort_by_key(|p| (p.pattern.name(), p.d, p.blocking));
    out
}

/// Clear the profile table — benches call this between sections so a
/// report covers exactly one workload.
pub fn reset_kernel_profiles() {
    table().lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Blocking;
    use crate::launch_at;
    use fusedmm_ops::OpSet;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use fusedmm_sparse::dense::Dense;

    /// The profile table is process-global and other tests in this
    /// crate launch kernels concurrently, so assertions are scoped to
    /// a d no other test uses.
    const D: usize = 40;

    #[test]
    fn dispatcher_launches_are_accounted_per_shape() {
        let n = 24;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
            c.push(u, (u + 5) % n, 0.5);
        }
        let a = c.to_csr(Dedup::Sum);
        let x = Dense::from_fn(n, D, |r, k| ((r + k) as f32).sin() * 0.1);
        let y = Dense::from_fn(n, D, |r, k| ((r * k) as f32).cos() * 0.1);
        let ops = OpSet::sigmoid_embedding(None);
        let before = kernel_profiles()
            .into_iter()
            .find(|p| p.d == D && p.pattern == Pattern::SigmoidEmbedding)
            .map(|p| (p.calls, p.rows, p.edges))
            .unwrap_or((0, 0, 0));
        let shape = crate::genkern::KernelSpec::new(4, 64).unwrap();
        for _ in 0..3 {
            let _ = launch_at(2, &a, &x, &y, &ops, Blocking::Specialized(shape));
        }
        let p = kernel_profiles()
            .into_iter()
            .find(|p| {
                p.d == D && p.pattern == Pattern::SigmoidEmbedding && p.blocking == "spec-m4-h64"
            })
            .expect("launches recorded under the shape's label");
        assert!(p.calls >= before.0 + 3);
        assert!(p.rows >= before.1 + 3 * n as u64);
        assert!(p.edges >= before.2 + 3 * a.nnz() as u64);
        assert_eq!(p.backend, crate::simd::active_backend());
    }

    #[test]
    fn generic_fallback_is_accounted_too() {
        use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};
        let n = 12;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let a = c.to_csr(Dedup::Sum);
        let x = Dense::filled(n, D, 0.2);
        let y = Dense::filled(n, D, 0.3);
        let ops = OpSet::custom(VOp::Add, ROp::Max, SOp::Tanh, MOp::Mul, AOp::Sum);
        let _ = launch_at(1, &a, &x, &y, &ops, Blocking::Auto);
        let p = kernel_profiles()
            .into_iter()
            .find(|p| p.d == D && p.pattern == Pattern::Custom && p.blocking == "generic")
            .expect("generic launches recorded");
        assert!(p.calls >= 1 && p.edges >= a.nnz() as u64);
    }
}
