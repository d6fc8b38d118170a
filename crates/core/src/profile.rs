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
//! Cost: a [`Plan`](crate::Plan) resolves its table slot once, when it
//! is built; a launch then adds to four relaxed atomic counters — no
//! lock, no hash, so concurrent launches never wait on each other here
//! and the hooks stay compiled in unconditionally.

use std::sync::atomic::{AtomicU64, Ordering};
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
    /// What ran: `spec-m{M}` (the kernel table's shape —
    /// per-variant roofline rows fall out of the label) or `generic`
    /// (the unspecialized five-step kernel).
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

/// One shape key's accumulators. Slots are never freed: a plan holds
/// its slot for the life of the process, so the table only grows, by
/// one small entry per distinct `(pattern, d, backend, kernel)`.
#[derive(Debug, Default)]
struct Acc {
    calls: AtomicU64,
    nanos: AtomicU64,
    rows: AtomicU64,
    edges: AtomicU64,
}

type Key = (Pattern, usize, Backend, &'static str);

fn table() -> &'static Mutex<Vec<(Key, &'static Acc)>> {
    static TABLE: OnceLock<Mutex<Vec<(Key, &'static Acc)>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// A launch's row of the profile table, resolved once per plan.
/// Two slots are equal when they are the same row — which is when their
/// keys are.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProfileSlot(&'static Acc);

impl PartialEq for ProfileSlot {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for ProfileSlot {}

impl ProfileSlot {
    /// The slot of `(pattern, d, backend, kernel)`, created on first use.
    pub(crate) fn of(pattern: Pattern, d: usize, backend: Backend, kernel: &'static str) -> Self {
        let key = (pattern, d, backend, kernel);
        let mut t = table().lock().unwrap_or_else(|e| e.into_inner());
        let acc = match t.iter().find(|(k, _)| *k == key) {
            Some(&(_, acc)) => acc,
            None => {
                let acc: &'static Acc = Box::leak(Box::default());
                t.push((key, acc));
                acc
            }
        };
        ProfileSlot(acc)
    }

    /// Record one launch.
    pub(crate) fn record(self, elapsed: Duration, rows: usize, edges: usize) {
        let acc = self.0;
        acc.calls.fetch_add(1, Ordering::Relaxed);
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        acc.nanos.fetch_add(nanos, Ordering::Relaxed);
        acc.rows.fetch_add(rows as u64, Ordering::Relaxed);
        acc.edges.fetch_add(edges as u64, Ordering::Relaxed);
    }
}

/// The accumulated per-shape kernel profiles, sorted by
/// `(op name, d, blocking)` for stable reporting. Shapes with no launch
/// since the last [`reset_kernel_profiles`] are left out.
pub fn kernel_profiles() -> Vec<KernelProfile> {
    let t = table().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<KernelProfile> = t
        .iter()
        .map(|&((pattern, d, backend, blocking), acc)| KernelProfile {
            pattern,
            d,
            backend,
            blocking,
            calls: acc.calls.load(Ordering::Relaxed),
            elapsed: Duration::from_nanos(acc.nanos.load(Ordering::Relaxed)),
            rows: acc.rows.load(Ordering::Relaxed),
            edges: acc.edges.load(Ordering::Relaxed),
        })
        .filter(|p| p.calls > 0)
        .collect();
    out.sort_by_key(|p| (p.pattern.name(), p.d, p.blocking));
    out
}

/// Clear the profile table — benches call this between sections so a
/// report covers exactly one workload. The counters are zeroed in
/// place (plans keep their slots); a launch landing meanwhile may keep
/// part of its observation.
pub fn reset_kernel_profiles() {
    let t = table().lock().unwrap_or_else(|e| e.into_inner());
    for (_, acc) in t.iter() {
        for c in [&acc.calls, &acc.nanos, &acc.rows, &acc.edges] {
            c.store(0, Ordering::Relaxed);
        }
    }
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
        // Not the default at D = 40 (m4 on every lane width).
        let shape = crate::genkern::KernelSpec::new(6).unwrap();
        for _ in 0..3 {
            let _ = launch_at(2, &a, &x, &y, &ops, Blocking::Specialized(shape));
        }
        let p = kernel_profiles()
            .into_iter()
            .find(|p| p.d == D && p.pattern == Pattern::SigmoidEmbedding && p.blocking == "spec-m6")
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
