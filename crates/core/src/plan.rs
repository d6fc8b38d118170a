//! Explicit, shareable kernel execution plans.
//!
//! [`crate::fusedmm`] recognizes the operator pattern and resolves the
//! kernel shape on every call. A [`Plan`] lifts that per-call decision
//! into a value a serving engine holds: prepare it once — a pure
//! function of `(pattern, d, backend)`, nothing is measured, so it
//! costs nothing and is the same on every process start — then execute
//! full-graph or row-subset kernels through it, and read from it which
//! kernel a request ran. [`PlanCache`] memoizes plans per (pattern, d)
//! for engines that serve several operator sets.

use std::collections::HashMap;

use parking_lot::RwLock;

use fusedmm_ops::{OpSet, Pattern};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::dispatch::{fusedmm_opt_into, specialize, Blocking};
use crate::part::PartitionStrategy;
use crate::rows::{fusedmm_rows_banded, fusedmm_rows_banded_topk, fusedmm_rows_with};
use crate::simd::{active_backend, Backend};

/// A frozen kernel configuration for one (pattern, dimension): which
/// kernel to run — for a recognized pattern one shape of the kernel
/// table ([`Blocking::Specialized`]) — which SIMD backend executes it,
/// and how to partition rows across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pattern: Pattern,
    d: usize,
    blocking: Blocking,
    backend: Backend,
    strategy: PartitionStrategy,
}

impl Plan {
    /// The library-default plan for `ops` at dimension `d`:
    /// [`Plan::with_blocking`] under [`Blocking::Auto`] and PART1D
    /// nnz-balanced partitioning.
    pub fn prepare(ops: &OpSet, d: usize) -> Plan {
        Plan::with_blocking(ops, d, Blocking::Auto, PartitionStrategy::NnzBalanced)
    }

    /// Build a plan with an explicit blocking choice. [`Blocking::Auto`]
    /// is resolved here, once, to what it would run on every launch —
    /// the default shape of a recognized pattern
    /// ([`Blocking::Specialized`]) or [`Blocking::Generic`] — so
    /// [`Plan::blocking`] always names the kernel.
    pub fn with_blocking(
        ops: &OpSet,
        d: usize,
        blocking: Blocking,
        strategy: PartitionStrategy,
    ) -> Plan {
        let backend = active_backend();
        let blocking = match (blocking, specialize(ops)) {
            (Blocking::Auto, Some(sp)) => Blocking::Specialized(sp.default_spec(d, backend)),
            (Blocking::Auto, None) => Blocking::Generic,
            (named, _) => named,
        };
        Plan { pattern: ops.pattern, d, blocking, backend, strategy }
    }

    /// The operator pattern this plan was prepared for.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The embedding dimension this plan was prepared for.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The frozen kernel choice (never [`Blocking::Auto`]).
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// The SIMD backend that executes this plan — recorded at
    /// preparation time for observability; kernels always run on the
    /// process-wide [`active_backend`].
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The frozen partition strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Full-graph execution under this plan.
    ///
    /// # Panics
    /// Panics when `ops` or the operand shapes disagree with what the
    /// plan was prepared for.
    pub fn execute(&self, a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
        let mut z = Dense::zeros(a.nrows(), x.ncols());
        self.execute_into(a, x, y, ops, z.as_mut_slice());
        z
    }

    /// [`Plan::execute`] into a caller-owned output: every row of the
    /// row-major `a.nrows() × d` slice `z` is overwritten and nothing it
    /// held is read (see [`fusedmm_opt_into`]). A caller that launches
    /// repeatedly keeps one `z` and skips the allocation, the zero-fill
    /// and the first-touch page faults `execute` pays on every call.
    ///
    /// # Panics
    /// As [`Plan::execute`], and when `z.len() != a.nrows() * d`.
    pub fn execute_into(&self, a: &Csr, x: &Dense, y: &Dense, ops: &OpSet, z: &mut [f32]) {
        self.check(ops, x);
        fusedmm_opt_into(a, x, y, ops, self.blocking, None, self.strategy, z);
    }

    /// Row-subset execution under this plan (see
    /// [`crate::rows::fusedmm_rows`]).
    pub fn execute_rows(
        &self,
        a: &Csr,
        rows: &[usize],
        x: &Dense,
        y: &Dense,
        ops: &OpSet,
    ) -> Dense {
        self.check(ops, x);
        fusedmm_rows_with(a, rows, x, y, ops, self.blocking, None, self.strategy)
    }

    /// Row-subset execution against a PART1D row band (see
    /// [`crate::rows::fusedmm_rows_banded`]): `a_band` holds global rows
    /// `band_start..` under local indices, `rows` are global ids inside
    /// the band, and `x` holds global rows `x_start..` — the whole
    /// feature matrix at `x_start = 0`, or a replica's band of it.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_rows_banded(
        &self,
        a_band: &Csr,
        band_start: usize,
        rows: &[usize],
        x: &Dense,
        x_start: usize,
        y: &Dense,
        ops: &OpSet,
    ) -> Dense {
        self.check(ops, x);
        let (blocking, strategy) = (self.blocking, self.strategy);
        fusedmm_rows_banded(a_band, band_start, rows, x, x_start, y, ops, blocking, None, strategy)
    }

    /// Degraded-tier band execution: like
    /// [`Plan::execute_rows_banded`], but each requested row aggregates
    /// only its `k` strongest neighbors (see
    /// [`crate::rows::fusedmm_rows_banded_topk`]).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_rows_banded_topk(
        &self,
        a_band: &Csr,
        band_start: usize,
        rows: &[usize],
        k: usize,
        x: &Dense,
        x_start: usize,
        y: &Dense,
        ops: &OpSet,
    ) -> Dense {
        self.check(ops, x);
        fusedmm_rows_banded_topk(
            a_band,
            band_start,
            rows,
            k,
            x,
            x_start,
            y,
            ops,
            self.blocking,
            None,
            self.strategy,
        )
    }

    fn check(&self, ops: &OpSet, x: &Dense) {
        assert_eq!(
            ops.pattern, self.pattern,
            "plan prepared for {:?} executed with {:?}",
            self.pattern, ops.pattern
        );
        assert_eq!(
            x.ncols(),
            self.d,
            "plan prepared for d={} executed with d={}",
            self.d,
            x.ncols()
        );
    }
}

/// Disambiguates otherwise-identical `(pattern, d)` cache entries that
/// belong to different serving contexts: the engine shard a plan was
/// prepared for and the feature epoch it serves. Epoch-keyed entries
/// give invalidation-aware layers — result caches, per-epoch
/// specializations — a home in the same cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PlanTag {
    /// Serving shard id (0 for an unsharded engine).
    pub shard: u64,
    /// Feature epoch (0 when the plan is epoch-agnostic).
    pub epoch: u64,
}

impl PlanTag {
    /// Tag for `shard`, epoch-agnostic.
    pub fn for_shard(shard: u64) -> Self {
        PlanTag { shard, epoch: 0 }
    }
}

/// Default resident-entry cap for a [`PlanCache`] — generous for any
/// realistic (pattern × dimension × shard) working set, small enough
/// that per-epoch tagged entries cannot accumulate forever across a
/// long-lived serving process's publishes.
pub const PLAN_CACHE_DEFAULT_CAPACITY: usize = 64;

#[derive(Debug)]
struct PlanCacheInner {
    /// Value carries an insertion sequence number for eviction
    /// tie-breaks among same-epoch entries.
    plans: HashMap<(Pattern, usize, PlanTag), (Plan, u64)>,
    seq: u64,
}

/// A concurrent, capacity-bounded memo of [`Plan`]s keyed by (pattern,
/// dimension, [`PlanTag`]). When the cap is exceeded, entries retire
/// **oldest-epoch-first**: the stalest epoch-tagged plans go before
/// fresher ones, and the epoch-*agnostic* sentinel entries (`epoch ==
/// 0` — the always-hot per-shard plans) are evicted last, by insertion
/// order.
#[derive(Debug)]
pub struct PlanCache {
    inner: RwLock<PlanCacheInner>,
    capacity: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache with the default capacity
    /// ([`PLAN_CACHE_DEFAULT_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_capacity(PLAN_CACHE_DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` plans.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a plan cache needs room for at least one plan");
        PlanCache { inner: RwLock::new(PlanCacheInner { plans: HashMap::new(), seq: 0 }), capacity }
    }

    /// The resident-entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cached plan for `ops` at dimension `d` under the default
    /// (unsharded, epoch-agnostic) tag, preparing (and memoizing) it on
    /// first use.
    pub fn plan_for(&self, ops: &OpSet, d: usize) -> Plan {
        self.plan_tagged(ops, d, PlanTag::default())
    }

    /// The cached plan for `ops` at dimension `d` under `tag`,
    /// preparing (and memoizing) it on first use. May evict the
    /// oldest-epoch entry when the cache is at capacity.
    pub fn plan_tagged(&self, ops: &OpSet, d: usize, tag: PlanTag) -> Plan {
        let key = (ops.pattern, d, tag);
        if let Some(&(plan, _)) = self.inner.read().plans.get(&key) {
            return plan;
        }
        let plan = Plan::prepare(ops, d);
        let mut inner = self.inner.write();
        let seq = inner.seq;
        inner.seq += 1;
        inner.plans.insert(key, (plan, seq));
        while inner.plans.len() > self.capacity {
            // Oldest-epoch-first: the epoch-0 sentinel sorts last (it
            // is "no epoch", not "the oldest"), so always-hot agnostic
            // plans outlive per-epoch ones; insertion order breaks
            // ties.
            // The entry just inserted is never the victim — a reader
            // pinned to an old epoch must not thrash its own slot on
            // every request.
            let victim = inner
                .plans
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(&(_, _, t), &(_, s))| {
                    (if t.epoch == 0 { u64::MAX } else { t.epoch }, s)
                })
                .map(|(&k, _)| k)
                .expect("cache over capacity holds more than the fresh entry");
            inner.plans.remove(&victim);
        }
        plan
    }

    /// Drop every entry tagged with `epoch` — the invalidation hook a
    /// feature publish uses to retire epoch-keyed plans. Epoch 0 is the
    /// epoch-*agnostic* sentinel ([`PlanTag::default`] /
    /// [`PlanTag::for_shard`]), not a real generation, so
    /// `evict_epoch(0)` is a no-op rather than a cache wipe.
    pub fn evict_epoch(&self, epoch: u64) {
        if epoch == 0 {
            return;
        }
        self.inner.write().plans.retain(|&(_, _, tag), _| tag.epoch != epoch);
    }

    /// Number of memoized plans.
    pub fn len(&self) -> usize {
        self.inner.read().plans.len()
    }

    /// True when no plan has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all memoized plans.
    pub fn clear(&self) {
        self.inner.write().plans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::fusedmm_reference;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn setup(n: usize, d: usize) -> (Csr, Dense, Dense) {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
            c.push(u, (u + 5) % n, 0.5);
        }
        let a = c.to_csr(Dedup::Sum);
        let x = Dense::from_fn(n, d, |r, k| ((r + k) as f32 * 0.1).cos());
        let y = Dense::from_fn(n, d, |r, k| ((r * k) as f32 * 0.07).sin());
        (a, x, y)
    }

    #[test]
    fn plan_execution_matches_reference() {
        let (a, x, y) = setup(32, 16);
        let ops = OpSet::sigmoid_embedding(None);
        let plan = Plan::prepare(&ops, 16);
        assert_eq!(plan.pattern(), Pattern::SigmoidEmbedding);
        assert_eq!(plan.d(), 16);
        let z = plan.execute(&a, &x, &y, &ops);
        let r = fusedmm_reference(&a, &x, &y, &ops);
        assert!(z.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn execute_into_overwrites_a_poisoned_output_with_the_same_bits() {
        let (a, x, y) = setup(32, 16);
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ops in [OpSet::gcn(), OpSet::sigmoid_embedding(None)] {
            let plan = Plan::prepare(&ops, 16);
            let want = plan.execute(&a, &x, &y, &ops);
            let mut z = vec![f32::NAN; 32 * 16];
            plan.execute_into(&a, &x, &y, &ops, &mut z);
            assert_eq!(bits(&z), bits(want.as_slice()), "{:?}", ops.pattern);
            // And again into what the first call left behind.
            plan.execute_into(&a, &x, &y, &ops, &mut z);
            assert_eq!(bits(&z), bits(want.as_slice()), "{:?} second call", ops.pattern);
        }
    }

    #[test]
    #[should_panic(expected = "one row per row")]
    fn execute_into_rejects_a_short_output() {
        let (a, x, y) = setup(8, 4);
        let ops = OpSet::gcn();
        let plan = Plan::with_blocking(&ops, 4, Blocking::Auto, PartitionStrategy::NnzBalanced);
        plan.execute_into(&a, &x, &y, &ops, &mut [0.0; 8 * 4 - 1]);
    }

    #[test]
    fn plan_rows_match_reference_rows() {
        let (a, x, y) = setup(40, 8);
        let ops = OpSet::gcn();
        let plan = Plan::with_blocking(&ops, 8, Blocking::Auto, PartitionStrategy::NnzBalanced);
        let r = fusedmm_reference(&a, &x, &y, &ops);
        let rows = [39usize, 0, 12, 12];
        let z = plan.execute_rows(&a, &rows, &x, &y, &ops);
        for (i, &u) in rows.iter().enumerate() {
            for k in 0..8 {
                assert!((z.get(i, k) - r.get(u, k)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn plan_records_the_active_backend_and_a_named_shape() {
        let ops = OpSet::gcn();
        let named = Blocking::Specialized(crate::genkern::KernelSpec::new(6, 32).unwrap());
        for d in [48usize, 100] {
            let plan = Plan::with_blocking(&ops, d, named, PartitionStrategy::NnzBalanced);
            assert_eq!(plan.backend(), crate::simd::active_backend());
            assert_eq!(plan.blocking(), named);
            let (a, x, y) = setup(24, d);
            let z = plan.execute(&a, &x, &y, &ops);
            let r = fusedmm_reference(&a, &x, &y, &ops);
            assert!(z.max_abs_diff(&r) < 1e-4);
        }
    }

    #[test]
    fn prepare_is_a_pure_function_of_pattern_dim_and_backend() {
        use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};
        let bits = |z: &Dense| z.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let custom = OpSet::custom(VOp::Add, ROp::Max, SOp::Tanh, MOp::Mul, AOp::Sum);
        for d in [8usize, 32, 100, 128] {
            let (a, x, y) = setup(30, d);
            for ops in [OpSet::gcn(), OpSet::sigmoid_embedding(None), custom.clone()] {
                let prepared = Plan::prepare(&ops, d);
                let auto =
                    Plan::with_blocking(&ops, d, Blocking::Auto, PartitionStrategy::NnzBalanced);
                assert_eq!(prepared, auto, "{:?} d={d}", ops.pattern);
                assert_ne!(prepared.blocking(), Blocking::Auto, "a plan names its kernel");
                // Two fresh caches agree with each other and with the
                // direct call: nothing process-global is consulted.
                assert_eq!(PlanCache::new().plan_for(&ops, d), prepared);
                assert_eq!(PlanCache::new().plan_for(&ops, d), prepared);
                // What it executes is what `Blocking::Auto` executes.
                let direct = crate::dispatch::fusedmm_opt(&a, &x, &y, &ops);
                assert_eq!(bits(&prepared.execute(&a, &x, &y, &ops)), bits(&direct));
            }
            assert_eq!(Plan::prepare(&custom, d).blocking(), Blocking::Generic);
        }
    }

    #[test]
    fn cache_memoizes_per_pattern_and_dim() {
        let cache = PlanCache::new();
        assert!(cache.is_empty());
        let ops = OpSet::gcn();
        let p1 = cache.plan_for(&ops, 32);
        let p2 = cache.plan_for(&ops, 32);
        assert_eq!(p1, p2);
        assert_eq!(cache.len(), 1);
        let _ = cache.plan_for(&ops, 64);
        let _ = cache.plan_for(&OpSet::fr_model(0.1), 32);
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn tagged_entries_are_distinct_and_epoch_evictable() {
        let cache = PlanCache::new();
        let ops = OpSet::gcn();
        let _ = cache.plan_for(&ops, 32);
        let _ = cache.plan_tagged(&ops, 32, PlanTag::for_shard(1));
        let _ = cache.plan_tagged(&ops, 32, PlanTag { shard: 1, epoch: 7 });
        assert_eq!(cache.len(), 3, "shard/epoch tags key separate entries");
        cache.evict_epoch(7);
        assert_eq!(cache.len(), 2, "only the epoch-7 entry is retired");
        cache.evict_epoch(0);
        assert_eq!(cache.len(), 2, "epoch 0 is the agnostic sentinel, never evicted");
    }

    #[test]
    fn capacity_cap_evicts_oldest_epoch_first() {
        let cache = PlanCache::with_capacity(3);
        assert_eq!(cache.capacity(), 3);
        let ops = OpSet::gcn();
        // One epoch-agnostic sentinel plus epoch-tagged entries well
        // past the cap — the regression this guards: one entry per
        // (pattern, d, tag) accumulating forever across epochs.
        let _ = cache.plan_for(&ops, 32);
        for epoch in 1..=6u64 {
            let _ = cache.plan_tagged(&ops, 32, PlanTag { shard: 0, epoch });
            assert!(cache.len() <= 3, "cap violated at epoch {epoch}");
        }
        // Newest epochs and the agnostic sentinel survive; the stalest
        // epochs were retired first.
        let survives = |tag| cache.inner.read().plans.contains_key(&(ops.pattern, 32, tag));
        assert!(survives(PlanTag::default()), "epoch-agnostic sentinel outlives epoch entries");
        assert!(survives(PlanTag { shard: 0, epoch: 6 }));
        assert!(survives(PlanTag { shard: 0, epoch: 5 }));
        assert!(!survives(PlanTag { shard: 0, epoch: 1 }));
        assert!(!survives(PlanTag { shard: 0, epoch: 2 }));
        // A re-request of an evicted epoch re-prepares without error.
        let p = cache.plan_tagged(&ops, 32, PlanTag { shard: 0, epoch: 1 });
        assert_eq!(p.d(), 32);
    }

    #[test]
    fn capacity_cap_never_evicts_the_entry_just_requested() {
        let cache = PlanCache::with_capacity(2);
        let ops = OpSet::gcn();
        let _ = cache.plan_tagged(&ops, 8, PlanTag { shard: 0, epoch: 5 });
        let _ = cache.plan_tagged(&ops, 8, PlanTag { shard: 0, epoch: 6 });
        // A straggler reader pinned to epoch 1 — the oldest epoch in
        // the cache after insertion — must land (evicting epoch 5),
        // not be the victim of its own insert.
        let _ = cache.plan_tagged(&ops, 8, PlanTag { shard: 0, epoch: 1 });
        let inner = cache.inner.read();
        assert!(inner.plans.contains_key(&(ops.pattern, 8, PlanTag { shard: 0, epoch: 1 })));
        assert!(!inner.plans.contains_key(&(ops.pattern, 8, PlanTag { shard: 0, epoch: 5 })));
        assert!(inner.plans.contains_key(&(ops.pattern, 8, PlanTag { shard: 0, epoch: 6 })));
    }

    #[test]
    fn capacity_cap_falls_back_to_insertion_order_for_agnostic_entries() {
        let cache = PlanCache::with_capacity(2);
        let a = OpSet::gcn();
        let b = OpSet::fr_model(0.1);
        let c = OpSet::sigmoid_embedding(None);
        let _ = cache.plan_for(&a, 8);
        let _ = cache.plan_for(&b, 8);
        let _ = cache.plan_for(&c, 8);
        assert_eq!(cache.len(), 2);
        let inner = cache.inner.read();
        assert!(
            !inner.plans.contains_key(&(a.pattern, 8, PlanTag::default())),
            "oldest-inserted agnostic entry is the tie-break victim"
        );
        assert!(inner.plans.contains_key(&(c.pattern, 8, PlanTag::default())));
    }

    #[test]
    fn banded_plan_execution_matches_reference_rows() {
        let (a, x, y) = setup(36, 8);
        let ops = OpSet::gcn();
        let plan = Plan::with_blocking(&ops, 8, Blocking::Auto, PartitionStrategy::NnzBalanced);
        let r = fusedmm_reference(&a, &x, &y, &ops);
        let band = a.row_band(10..30);
        let rows = [29usize, 10, 17];
        let z = plan.execute_rows_banded(&band, 10, &rows, &x, 0, &y, &ops);
        for (i, &u) in rows.iter().enumerate() {
            for k in 0..8 {
                assert!((z.get(i, k) - r.get(u, k)).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "plan prepared for")]
    fn pattern_mismatch_panics() {
        let (a, x, y) = setup(8, 4);
        let plan =
            Plan::with_blocking(&OpSet::gcn(), 4, Blocking::Auto, PartitionStrategy::NnzBalanced);
        let _ = plan.execute(&a, &x, &y, &OpSet::fr_model(1.0));
    }
}
