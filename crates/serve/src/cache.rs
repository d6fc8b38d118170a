//! The serving stack's result-cache layer: a
//! [`ResultCache`] bound to one graph's
//! in-neighbour index and subscribed to the engine's
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
//! patched rows *and their in-neighbours*, the exact dependency set of
//! the kernel's per-row aggregation (`EmbedCache::touch_set`).
//!
//! The in-neighbours of `v` — the output rows whose aggregation reads
//! `y_v` — come from one of two indexes, chosen once at construction:
//!
//! * **The bands.** When `A`'s pattern is symmetric
//!   ([`Csr::is_pattern_symmetric`]), row `v` of `A` lists them, and the
//!   band that serves row `v` already holds it: the cache keeps a
//!   `Weak` handle per band and no graph of its own.
//! * **A transpose.** Otherwise the cache owns `Aᵀ` of the rows it
//!   caches (a replica: its band's rows only), one counting pass at
//!   construction.
//!
//! Owned rows travel with their part as a `FillSet` inside its
//! [`PartSlot`](crate::PartSlot): whoever resolves the slot with rows
//! resolves every registration (cache insert + waiter back-fill) before
//! completing the caller — so coalesced waiters resolve as soon as the
//! computation does, independent of when (or whether) the owning ticket
//! is harvested.

use std::sync::{Arc, OnceLock, Weak};

use fusedmm_cache::{CacheConfig, CacheMetrics, InflightOwner, MissRoute, ResultCache};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::band::Band;
use crate::fault::FaultPlan;
use crate::store::EpochListener;

/// An embedding result cache for one graph, keyed by global node id
/// and owned by the front end whatever its transport. Constructed when
/// [`EngineConfig::cache`](crate::EngineConfig) is set; callers only
/// observe it through [`CacheMetrics`].
pub struct EmbedCache {
    cache: ResultCache,
    in_neighbors: InNeighbors,
}

/// Where a delta finds the output rows that read a patched `y_v`.
enum InNeighbors {
    /// `A`'s pattern is symmetric: row `v` of the band serving `v`.
    /// Named once the bands exist ([`EmbedCache::name_bands`]); `Weak`
    /// because queued parts hold the cache and bands hold their queues.
    Bands(OnceLock<Vec<Weak<Band>>>),
    /// Row `v` of `Aᵀ` over the cached rows, which start at global row
    /// `start`: the local ids of the rows that read `y_v`.
    Transpose { rev: Csr, start: usize },
}

impl std::fmt::Debug for EmbedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbedCache").field("cache", &self.cache).finish_non_exhaustive()
    }
}

impl EmbedCache {
    /// A cache over `nvertices` output rows at embedding dimension `d`
    /// of a graph whose pattern is symmetric: it reads in-neighbours
    /// from the bands, so it holds no adjacency. Name the bands before
    /// the store can announce a delta to it.
    pub(crate) fn over_bands(nvertices: usize, d: usize, config: CacheConfig) -> EmbedCache {
        let in_neighbors = InNeighbors::Bands(OnceLock::new());
        EmbedCache { cache: ResultCache::new(nvertices, d, config), in_neighbors }
    }

    /// A cache over `nvertices` output rows at embedding dimension `d`
    /// that caches only `rows` (global rows `start..start +
    /// rows.nrows()`): it pays one O(nnz) counting transpose of `rows`
    /// to own their reverse adjacency. While it runs, the only memory
    /// beyond `rows` is `rowsᵀ` itself plus one `ncols + 1` cursor.
    pub(crate) fn transposed(
        rows: &Csr,
        start: usize,
        nvertices: usize,
        d: usize,
        config: CacheConfig,
    ) -> EmbedCache {
        let in_neighbors = InNeighbors::Transpose { rev: rows.transpose(), start };
        EmbedCache { cache: ResultCache::new(nvertices, d, config), in_neighbors }
    }

    /// Hand a band-indexed cache the bands that serve its rows, in row
    /// order; a transpose-indexed cache ignores them. Called once.
    pub(crate) fn name_bands(&self, bands: &[Arc<Band>]) {
        if let InNeighbors::Bands(named) = &self.in_neighbors {
            let weak = bands.iter().map(Arc::downgrade).collect();
            assert!(named.set(weak).is_ok(), "a cache's bands are named once");
        }
    }

    /// The output rows a delta on `patched` invalidates, sorted and
    /// deduplicated: the patched vertices themselves (their `X` rows
    /// changed) plus every in-neighbour (rows whose aggregation reads a
    /// patched `Y` row). Everything outside it is provably unaffected.
    /// Costs O(Σ in-degree(patched) log), independent of the graph.
    pub(crate) fn touch_set(&self, patched: &[usize]) -> Vec<usize> {
        let mut touched = patched.to_vec();
        match &self.in_neighbors {
            InNeighbors::Transpose { rev, start } => {
                for &v in patched {
                    touched.extend(rev.row(v).0.iter().map(|&u| start + u));
                }
            }
            InNeighbors::Bands(named) => {
                // Every band lives as long as the front end that reads
                // this cache; past it, nothing is left to invalidate.
                let bands: Vec<Arc<Band>> = named
                    .get()
                    .and_then(|named| named.iter().map(Weak::upgrade).collect())
                    .unwrap_or_default();
                if !bands.is_empty() {
                    for &v in patched {
                        // The last band starting at or before `v`: empty
                        // bands share their start with their successor.
                        let owner = bands.partition_point(|b| b.start() <= v) - 1;
                        touched.extend_from_slice(bands[owner].row_cols(v));
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
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
        self.cache.invalidate_rows(epoch, &self.touch_set(rows));
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
    use crate::engine::EngineConfig;
    use crate::front::Resolved;
    use fusedmm_core::{Partition, PartitionStrategy};
    use fusedmm_graph::rmat::{rmat, RmatConfig};
    use fusedmm_ops::OpSet;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use std::ops::Range;

    fn ring(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        c.to_csr(Dedup::Sum)
    }

    /// A transpose-indexed cache over every row of `a`, at d = 2.
    fn transposed(a: &Csr) -> EmbedCache {
        EmbedCache::transposed(a, 0, a.nrows(), 2, CacheConfig::default())
    }

    /// A band-indexed cache over `a`, cut into `ranges`, and the bands
    /// it reads (the caller keeps them alive).
    fn over_bands(a: &Csr, ranges: &[Range<usize>]) -> (EmbedCache, Vec<Arc<Band>>) {
        let config =
            EngineConfig { fault: Some(Arc::new(FaultPlan::disabled())), ..Default::default() };
        let resolved = Resolved::from(&config);
        let bands: Vec<Arc<Band>> = ranges
            .iter()
            .map(|rows| {
                let band = a.row_band(rows.clone());
                Arc::new(Band::new(band, rows.start, None, OpSet::gcn(), 2, &config, &resolved))
            })
            .collect();
        let cache = EmbedCache::over_bands(a.nrows(), 2, CacheConfig::default());
        cache.name_bands(&bands);
        (cache, bands)
    }

    #[test]
    fn transpose_touch_set_is_patched_plus_in_neighbors() {
        // A: 0→{0,2}, 2→{0,1}. Row v of Aᵀ lists v's in-neighbours.
        let a = Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0; 4]).unwrap();
        let cache = transposed(&a);
        // Patch vertex 2: in-neighbours(2) = {0} (only a_02 ≠ 0).
        assert_eq!(cache.touch_set(&[2]), vec![0, 2]);
        // Patch vertex 0: rows 0 and 2 both read y_0; plus 0 itself.
        assert_eq!(cache.touch_set(&[0]), vec![0, 2]);
        // Patch vertex 1: only row 2 reads y_1.
        assert_eq!(cache.touch_set(&[1]), vec![1, 2]);
        // Duplicates and unions dedup; an empty patch is empty.
        assert_eq!(cache.touch_set(&[1, 1, 2]), vec![0, 1, 2]);
        assert_eq!(cache.touch_set(&[]), Vec::<usize>::new());
    }

    #[test]
    fn a_band_transpose_names_its_in_neighbors_by_global_id() {
        // Ring u→u+1 over 8 vertices; the replica caches rows 3..6.
        let a = ring(8);
        let band = EmbedCache::transposed(&a.row_band(3..6), 3, 8, 2, CacheConfig::default());
        // y_5 is read by row 4 (in the band); y_3 by row 2 (outside it).
        assert_eq!(band.touch_set(&[5]), vec![4, 5]);
        assert_eq!(band.touch_set(&[3]), vec![3]);
        assert_eq!(band.touch_set(&[4, 6]), vec![3, 4, 5, 6]);
        // Restricted to the band, it is the whole graph's touch set.
        let whole = transposed(&a);
        for v in 0..8 {
            let within: Vec<usize> = whole
                .touch_set(&[v])
                .into_iter()
                .filter(|&u| u == v || (3..6).contains(&u))
                .collect();
            assert_eq!(band.touch_set(&[v]), within, "patched {v}");
        }
    }

    #[test]
    fn band_and_transpose_touch_sets_agree_on_symmetric_graphs() {
        for seed in 0..6u64 {
            let n = 48;
            let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(seed));
            assert!(a.is_pattern_symmetric());
            let reference = transposed(&a);
            let mut cuts: Vec<Vec<Range<usize>>> = [1, 2, 4]
                .iter()
                .map(|&s| {
                    let part = Partition::part1d(&a, s, PartitionStrategy::NnzBalanced);
                    (0..part.len()).map(|b| part.rows(b)).collect()
                })
                .collect();
            // Empty bands, leading, inner and trailing: each shares its
            // start with its successor.
            let m = 1 + seed as usize * 7;
            cuts.push(vec![0..0, 0..m, m..m, m..n]);
            cuts.push(vec![0..m, m..n, n..n, n..n]);
            for ranges in &cuts {
                let (cache, _bands) = over_bands(&a, ranges);
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..32 {
                    let len = 1 + (state % 5) as usize;
                    let patched: Vec<usize> = (0..len)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            (state % n as u64) as usize
                        })
                        .collect();
                    assert_eq!(
                        cache.touch_set(&patched),
                        reference.touch_set(&patched),
                        "seed {seed}, cut {ranges:?}, patch {patched:?}"
                    );
                }
                // Every vertex alone, the isolated ones included.
                for v in 0..n {
                    assert_eq!(cache.touch_set(&[v]), reference.touch_set(&[v]), "vertex {v}");
                }
            }
        }
    }

    #[test]
    fn a_band_indexed_cache_outliving_its_bands_retires_only_patched_rows() {
        let a = rmat(&RmatConfig::new(16, 40).with_seed(3));
        let (cache, bands) = over_bands(&a, &[0..8, 8..16]);
        let v = (0..16).find(|&v| a.row_nnz(v) > 0).expect("an edge");
        assert!(cache.touch_set(&[v]).len() > 1);
        drop(bands);
        assert_eq!(cache.touch_set(&[v]), vec![v]);
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
        let cache = transposed(&a);
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
        let cache = transposed(&ring(n));
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
        let cache = transposed(&ring(4));
        fill_all(&cache, 0, &[0, 1, 2, 3], &Dense::zeros(4, 2));
        cache.on_publish(1);
        let mut out = Dense::zeros(4, 2);
        let (misses, _) = cache.split(&[0, 1, 2, 3], 1, &mut out);
        assert_eq!(misses, vec![0, 1, 2, 3]);
        assert_eq!(cache.metrics().flushes, 1);
    }

    #[test]
    fn dropped_fillset_aborts_its_registrations() {
        let cache = Arc::new(transposed(&ring(4)));
        let MissRoute::Owner(owner) = cache.route_miss(2, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = cache.route_miss(2, 0) else { panic!("waiter") };
        drop(FillSet::new(Arc::clone(&cache), vec![owner], None));
        assert!(w.poll().expect("resolved").is_err(), "waiter observes the abort, not a hang");
        assert_eq!(cache.metrics().inflight_rows, 0);
    }

    #[test]
    fn completed_fillset_backfills_waiters_and_cache() {
        let cache = Arc::new(transposed(&ring(4)));
        let MissRoute::Owner(o1) = cache.route_miss(1, 0) else { panic!("owner") };
        let MissRoute::Owner(o2) = cache.route_miss(3, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = cache.route_miss(3, 0) else { panic!("waiter") };
        let rows = Dense::from_rows(2, 2, &[1.0, 1.5, 3.0, 3.5]).unwrap();
        FillSet::new(Arc::clone(&cache), vec![o1, o2], None).complete(&rows);
        assert_eq!(w.poll().expect("filled").unwrap().as_ref(), &[3.0, 3.5]);
        let mut out = Dense::zeros(2, 2);
        let (misses, _) = cache.split(&[1, 3], 0, &mut out);
        assert!(misses.is_empty(), "both rows resident after the fill");
        assert_eq!(out.row(0), &[1.0, 1.5]);
        assert_eq!(out.row(1), &[3.0, 3.5]);
    }

    #[test]
    fn poisoned_segment_aborts_only_its_fills() {
        let cache = Arc::new(transposed(&ring(4)));
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
        assert!(
            w_poisoned.poll().expect("resolved").is_err(),
            "poisoned fill aborted, waiter fails cleanly"
        );
        assert_eq!(w_healthy.poll().expect("filled").unwrap().as_ref(), &[7.0, 7.5]);
        let mut out = Dense::zeros(1, 2);
        let (misses, _) = cache.split(&[2], 0, &mut out);
        assert_eq!(misses, vec![2], "the poisoned row was never cached");
    }
}
