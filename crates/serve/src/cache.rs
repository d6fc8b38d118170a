//! The serving stack's result-cache layer: a
//! [`ResultCache`] bound to one graph's
//! reverse adjacency and subscribed to the engine's
//! [`FeatureStore`](crate::FeatureStore).
//!
//! [`EmbedCache`] is the piece the engines talk to: it splits a request
//! into cache hits and misses (hits filled directly into the response),
//! routes each miss through the cache's in-flight states — the first
//! miss in a validity window **owns** the row computation, concurrent
//! misses on the same vertex **coalesce** onto it and are back-filled
//! when the owner's batch completes — and, as an
//! [`EpochListener`], translates epoch
//! transitions into invalidations. A publish invalidates everything
//! (lazily, by epoch stamp); a delta update invalidates only the
//! patched rows *and their in-neighbors*, the exact dependency set of
//! the kernel's per-row aggregation, computed from the transposed
//! adjacency by [`Csr::touch_set`](fusedmm_sparse::csr::Csr::touch_set).
//!
//! Owned rows travel with their part as a `FillSet` inside its
//! [`PartSlot`](crate::PartSlot): whoever resolves the slot with rows
//! resolves every registration (cache insert + waiter back-fill) before
//! completing the caller — so coalesced waiters resolve as soon as the
//! computation does, independent of when (or whether) the owning ticket
//! is harvested.

use std::sync::Arc;

use fusedmm_cache::{CacheConfig, CacheMetrics, InflightOwner, MissRoute, ResultCache};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::fault::FaultPlan;
use crate::store::EpochListener;

/// An embedding result cache for one graph, keyed by global node id
/// and owned by the front end whatever its transport. Constructed when
/// [`EngineConfig::cache`](crate::EngineConfig) is set; callers only
/// observe it through [`CacheMetrics`].
pub struct EmbedCache {
    cache: ResultCache,
    /// `A^T`: row `v` lists the in-neighbors of vertex `v` — the
    /// output rows whose aggregation reads `y_v`.
    rev: Csr,
}

impl std::fmt::Debug for EmbedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbedCache").field("cache", &self.cache).finish_non_exhaustive()
    }
}

impl EmbedCache {
    /// A cache over the output rows of `a` at embedding dimension `d`.
    /// Pays one O(nnz) counting transpose to own the reverse adjacency
    /// the delta-precise touch sets need: while it runs, the only
    /// memory beyond `a` is `Aᵀ` itself plus one `ncols + 1` cursor.
    pub(crate) fn new(a: &Csr, d: usize, config: CacheConfig) -> EmbedCache {
        EmbedCache { cache: ResultCache::new(a.nrows(), d, config), rev: a.transpose() }
    }

    /// Probe every requested node at the pinned epoch. Hit rows are
    /// copied straight into the matching rows of `out` (one row per
    /// entry of `nodes`, caller-allocated); returns the sorted,
    /// deduplicated missing nodes plus the positions in `nodes` still
    /// to be filled. Records the per-request hit ratio.
    pub(crate) fn split(
        &self,
        nodes: &[usize],
        epoch: u64,
        out: &mut Dense,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut misses = Vec::new();
        let mut positions = Vec::new();
        for (i, &u) in nodes.iter().enumerate() {
            if self.cache.lookup(u, epoch, out.row_mut(i)) {
                continue;
            }
            misses.push(u);
            positions.push(i);
        }
        self.cache.record_request((nodes.len() - positions.len()) as u64, nodes.len() as u64);
        misses.sort_unstable();
        misses.dedup();
        (misses, positions)
    }

    /// Route one missing node at the pinned epoch: own the computation
    /// or coalesce onto an in-flight one (see
    /// [`ResultCache::route_miss`]).
    pub(crate) fn route_miss(&self, node: usize, epoch: u64) -> MissRoute {
        self.cache.route_miss(node, epoch)
    }

    /// Resolve one owned registration with its computed row.
    pub(crate) fn fill(&self, owner: InflightOwner, row: &[f32]) {
        self.cache.fill(owner, row);
    }

    /// Abandon one owned registration (the computation failed).
    pub(crate) fn abort(&self, owner: InflightOwner) {
        self.cache.abort(owner);
    }

    /// The lock stripe `node`'s entry lives in (the fault plan's
    /// poisoned-segment targeting).
    pub(crate) fn segment_of(&self, node: usize) -> usize {
        self.cache.segment_of(node)
    }

    /// Point-in-time cache statistics.
    pub fn metrics(&self) -> CacheMetrics {
        self.cache.metrics()
    }
}

impl EpochListener for EmbedCache {
    fn on_publish(&self, epoch: u64) {
        self.cache.invalidate_all(epoch);
    }

    fn on_delta(&self, epoch: u64, rows: &[usize]) {
        // The touch set may include patched Y-row ids beyond the
        // output row space on rectangular graphs; the cache ignores
        // out-of-range ids.
        self.cache.invalidate_rows(epoch, &self.rev.touch_set(rows));
    }
}

/// The in-flight registrations one enqueued request owns, riding the
/// band queue with it: `owners[i]` is the registration for the
/// request's `i`-th node. The band's launch resolves the set with
/// [`FillSet::complete`] when the rows are computed; a set dropped
/// unresolved (the request never dispatched, e.g. enqueue raced a
/// shutdown) aborts every registration so coalesced waiters observe
/// the failure instead of hanging.
pub(crate) struct FillSet {
    cache: Arc<EmbedCache>,
    owners: Vec<InflightOwner>,
    /// When a fault plan poisons a cache segment, fills landing in it
    /// are aborted instead of inserted — the owning request still gets
    /// its computed rows, but the row is never cached and coalesced
    /// waiters observe the failure (chaos coverage for the abort path).
    fault: Option<Arc<FaultPlan>>,
}

impl FillSet {
    /// `owners[i]` must correspond to the `i`-th node of the request
    /// this set rides with.
    pub(crate) fn new(
        cache: Arc<EmbedCache>,
        owners: Vec<InflightOwner>,
        fault: Option<Arc<FaultPlan>>,
    ) -> FillSet {
        FillSet { cache, owners, fault }
    }

    /// Resolve every registration: `rows.row(i)` is the computed row
    /// for `owners[i]` — inserted into the cache and sent to every
    /// coalesced waiter (or aborted, when the fault plan poisoned the
    /// owner's segment). A fault plan's fill delay stalls here first,
    /// widening the window in which coalesced waiters are outstanding.
    pub(crate) fn complete(mut self, rows: &Dense) {
        assert_eq!(rows.nrows(), self.owners.len(), "one computed row per owned registration");
        if let Some(delay) = self.fault.as_ref().and_then(|f| f.fill_delay()) {
            std::thread::sleep(delay);
        }
        let poisoned = self.fault.as_ref().and_then(|f| f.poisoned_segment());
        for (i, owner) in self.owners.drain(..).enumerate() {
            if poisoned == Some(self.cache.segment_of(owner.node())) {
                self.cache.abort(owner);
            } else {
                self.cache.fill(owner, rows.row(i));
            }
        }
    }
}

impl Drop for FillSet {
    fn drop(&mut self) {
        for owner in self.owners.drain(..) {
            self.cache.abort(owner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn ring(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        c.to_csr(Dedup::Sum)
    }

    /// Route-and-fill every node as an owner — the shape the
    /// launch's [`FillSet`] path takes with no contention.
    fn fill_all(cache: &EmbedCache, epoch: u64, nodes: &[usize], rows: &Dense) {
        for (i, &u) in nodes.iter().enumerate() {
            match cache.route_miss(u, epoch) {
                MissRoute::Owner(owner) => cache.fill(owner, rows.row(i)),
                _ => panic!("uncontended cold route must own"),
            }
        }
    }

    #[test]
    fn split_fills_hits_and_returns_miss_positions() {
        let a = ring(6);
        let cache = EmbedCache::new(&a, 2, CacheConfig::default());
        let mut out = Dense::zeros(4, 2);
        // Nothing cached yet: everything misses, duplicates dedup.
        let (misses, positions) = cache.split(&[3, 1, 3, 5], 0, &mut out);
        assert_eq!(misses, vec![1, 3, 5]);
        assert_eq!(positions, vec![0, 1, 2, 3]);
        // Fill and re-probe: all hits, rows land in place.
        let rows = Dense::from_rows(3, 2, &[1.0, 1.0, 3.0, 3.0, 5.0, 5.0]).unwrap();
        fill_all(&cache, 0, &misses, &rows);
        let mut out2 = Dense::zeros(4, 2);
        let (misses2, positions2) = cache.split(&[3, 1, 3, 5], 0, &mut out2);
        assert!(misses2.is_empty() && positions2.is_empty());
        assert_eq!(out2.row(0), &[3.0, 3.0]);
        assert_eq!(out2.row(1), &[1.0, 1.0]);
        assert_eq!(out2.row(2), &[3.0, 3.0]);
        assert_eq!(out2.row(3), &[5.0, 5.0]);
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (4, 4));
        assert_eq!(m.hit_ratio.count, 2, "one ratio observation per request");
    }

    #[test]
    fn delta_listener_invalidates_patched_rows_and_in_neighbors_only() {
        // Ring u→u+1: patching v invalidates v (its X row) and v-1
        // (aggregates y_v). Everything else survives.
        let n = 8;
        let cache = EmbedCache::new(&ring(n), 2, CacheConfig::default());
        let all: Vec<usize> = (0..n).collect();
        let rows = Dense::from_fn(n, 2, |r, _| r as f32);
        fill_all(&cache, 0, &all, &rows);
        cache.on_delta(1, &[4]);
        let mut out = Dense::zeros(n, 2);
        let (misses, _) = cache.split(&all, 1, &mut out);
        assert_eq!(misses, vec![3, 4], "only vertex 4 and its in-neighbor 3 were retired");
        assert_eq!(cache.metrics().invalidated_rows, 2);
    }

    #[test]
    fn publish_listener_flushes_lazily() {
        let cache = EmbedCache::new(&ring(4), 2, CacheConfig::default());
        fill_all(&cache, 0, &[0, 1, 2, 3], &Dense::zeros(4, 2));
        cache.on_publish(1);
        let mut out = Dense::zeros(4, 2);
        let (misses, _) = cache.split(&[0, 1, 2, 3], 1, &mut out);
        assert_eq!(misses, vec![0, 1, 2, 3]);
        assert_eq!(cache.metrics().flushes, 1);
    }

    #[test]
    fn dropped_fillset_aborts_its_registrations() {
        let cache = Arc::new(EmbedCache::new(&ring(4), 2, CacheConfig::default()));
        let MissRoute::Owner(owner) = cache.route_miss(2, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = cache.route_miss(2, 0) else { panic!("waiter") };
        drop(FillSet::new(Arc::clone(&cache), vec![owner], None));
        assert!(w.wait().is_err(), "waiter observes the abort, not a hang");
        assert_eq!(cache.metrics().inflight_rows, 0);
    }

    #[test]
    fn completed_fillset_backfills_waiters_and_cache() {
        let cache = Arc::new(EmbedCache::new(&ring(4), 2, CacheConfig::default()));
        let MissRoute::Owner(o1) = cache.route_miss(1, 0) else { panic!("owner") };
        let MissRoute::Owner(o2) = cache.route_miss(3, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = cache.route_miss(3, 0) else { panic!("waiter") };
        let rows = Dense::from_rows(2, 2, &[1.0, 1.5, 3.0, 3.5]).unwrap();
        FillSet::new(Arc::clone(&cache), vec![o1, o2], None).complete(&rows);
        assert_eq!(w.wait().unwrap().as_ref(), &[3.0, 3.5]);
        let mut out = Dense::zeros(2, 2);
        let (misses, _) = cache.split(&[1, 3], 0, &mut out);
        assert!(misses.is_empty(), "both rows resident after the fill");
        assert_eq!(out.row(0), &[1.0, 1.5]);
        assert_eq!(out.row(1), &[3.0, 3.5]);
    }

    #[test]
    fn poisoned_segment_aborts_only_its_fills() {
        let cache = Arc::new(EmbedCache::new(&ring(4), 2, CacheConfig::default()));
        let poisoned = cache.segment_of(2);
        let healthy =
            (0..4).find(|&u| cache.segment_of(u) != poisoned).expect("more than one stripe");
        let plan = Arc::new(FaultPlan::parse(&format!("poison_segment={poisoned}")).unwrap());
        let MissRoute::Owner(o1) = cache.route_miss(2, 0) else { panic!("owner") };
        let MissRoute::Waiter(w_poisoned) = cache.route_miss(2, 0) else { panic!("waiter") };
        let MissRoute::Owner(o2) = cache.route_miss(healthy, 0) else { panic!("owner") };
        let MissRoute::Waiter(w_healthy) = cache.route_miss(healthy, 0) else { panic!("waiter") };
        let rows = Dense::from_rows(2, 2, &[2.0, 2.5, 7.0, 7.5]).unwrap();
        FillSet::new(Arc::clone(&cache), vec![o1, o2], Some(plan)).complete(&rows);
        assert!(w_poisoned.wait().is_err(), "poisoned fill aborted, waiter fails cleanly");
        assert_eq!(w_healthy.wait().unwrap().as_ref(), &[7.0, 7.5]);
        let mut out = Dense::zeros(1, 2);
        let (misses, _) = cache.split(&[2], 0, &mut out);
        assert_eq!(misses, vec![2], "the poisoned row was never cached");
    }
}
