//! The serving stack's result-cache layer: a [`ResultCache`] bound to
//! one graph's in-neighbour index and subscribed to the engine's
//! [`FeatureStore`](crate::FeatureStore).
//!
//! The front end probes the cache once per request
//! ([`ResultCache::route`]), each touched lock stripe locked once: a hit
//! is copied into the response, the first miss in a validity window
//! **owns** the row computation, and a concurrent miss on the same
//! vertex **coalesces** onto it and is back-filled when the owner's
//! batch completes. [`EmbedCache`], an [`EpochListener`], turns epoch
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
//! A coalesced miss registers the sending half of a reply slot with the
//! registration it rides, and its ticket holds the receiving half, as
//! it does for a part. Owned rows travel with their part as a `FillSet`
//! inside its [`PartSlot`](crate::PartSlot): whoever resolves the slot
//! with rows resolves every registration, one lock per stripe (cache
//! insert, then one row sent to each coalesced waiter), before
//! completing the caller — so coalesced waiters resolve as soon as the
//! computation does, independent of when (or whether) the owning ticket
//! is harvested. A registration aborted instead drops its waiters'
//! senders, which closes their slots.

use std::sync::{Arc, OnceLock, Weak};

use fusedmm_cache::{CacheConfig, InflightOwner, ResultCache};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::band::Band;
use crate::fault::FaultPlan;
use crate::store::EpochListener;
use crate::wait::SlotTx;

/// An embedding result cache for one graph, keyed by global node id
/// and owned by the front end whatever its transport. Constructed when
/// [`EngineConfig::cache`](crate::EngineConfig) is set; callers only
/// observe it through the front end's `fusedmm_cache_*` samples.
pub(crate) struct EmbedCache {
    /// The rows, and the slots of the misses coalesced onto an
    /// in-flight row: what the front end routes through and a
    /// [`FillSet`] resolves.
    pub(crate) results: ResultCache<SlotTx>,
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
        f.debug_struct("EmbedCache").field("results", &self.results).finish_non_exhaustive()
    }
}

impl EmbedCache {
    /// A cache over `nvertices` output rows at embedding dimension `d`
    /// of a graph whose pattern is symmetric: it reads in-neighbours
    /// from the bands, so it holds no adjacency. Name the bands before
    /// the store can announce a delta to it.
    pub(crate) fn over_bands(nvertices: usize, d: usize, config: CacheConfig) -> EmbedCache {
        let in_neighbors = InNeighbors::Bands(OnceLock::new());
        EmbedCache { results: ResultCache::new(nvertices, d, config), in_neighbors }
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
        EmbedCache { results: ResultCache::new(nvertices, d, config), in_neighbors }
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
}

impl EpochListener for EmbedCache {
    fn on_publish(&self, epoch: u64) {
        self.results.invalidate_all(epoch);
    }

    fn on_delta(&self, epoch: u64, rows: &[usize]) {
        // The touch set may include patched Y-row ids beyond the
        // output row space on rectangular graphs; the cache ignores
        // out-of-range ids.
        self.results.invalidate_rows(epoch, &self.touch_set(rows));
    }
}

/// The in-flight registrations one enqueued part owns, riding the
/// band queue with it: one per node of the part. The band's launch
/// resolves the set with [`FillSet::complete`] when the rows are
/// computed; a set dropped unresolved (the part never dispatched, e.g.
/// enqueue raced a shutdown) aborts every registration: its waiters'
/// slots close, so they observe the failure instead of hanging. Either
/// way each cache stripe the registrations live in is locked once.
pub(crate) struct FillSet {
    cache: Arc<EmbedCache>,
    /// The part's nodes, sorted: its launch computes row `i` for
    /// `nodes[i]`.
    nodes: Arc<[usize]>,
    /// One registration per node, grouped by cache segment.
    owners: Vec<InflightOwner>,
    /// When a fault plan poisons a cache segment, fills landing in it
    /// are aborted instead of inserted — the owning request still gets
    /// its computed rows, but the row is never cached and coalesced
    /// waiters' slots close (chaos coverage for the abort path).
    fault: Option<Arc<FaultPlan>>,
}

impl FillSet {
    /// `owners` holds one registration per entry of `nodes`, the part's
    /// sorted nodes, in any order.
    pub(crate) fn new(
        cache: Arc<EmbedCache>,
        nodes: Arc<[usize]>,
        mut owners: Vec<InflightOwner>,
        fault: Option<Arc<FaultPlan>>,
    ) -> FillSet {
        debug_assert_eq!(owners.len(), nodes.len(), "one registration per node");
        owners.sort_unstable_by_key(InflightOwner::segment);
        FillSet { cache, nodes, owners, fault }
    }

    /// Resolve every registration: `rows.row(i)` is the computed row
    /// for `nodes[i]` — inserted into the cache and sent, as a one-row
    /// matrix, to every coalesced waiter (or aborted, when the fault
    /// plan poisoned its segment, which closes the waiters' slots). A
    /// fault plan's fill delay stalls here first, widening the window in
    /// which coalesced waiters are outstanding.
    pub(crate) fn complete(mut self, rows: &Dense) {
        assert_eq!(rows.nrows(), self.nodes.len(), "one computed row per node");
        if let Some(delay) = self.fault.as_ref().and_then(|f| f.fill_delay()) {
            std::thread::sleep(delay);
        }
        let poisoned = self.fault.as_ref().and_then(|f| f.poisoned_segment());
        let row = |owner: &InflightOwner| {
            let i = self.nodes.binary_search(&owner.node()).expect("a registration per node");
            (poisoned != Some(owner.segment())).then(|| rows.row(i))
        };
        // An aborted registration's waiters drop here: their slots close.
        for (waiter, row) in self.cache.results.resolve(std::mem::take(&mut self.owners), row) {
            if let Some(row) = row {
                waiter.send(Ok(Dense::from_rows(1, row.len(), row).expect("one row")));
            }
        }
    }
}

impl Drop for FillSet {
    fn drop(&mut self) {
        drop(self.cache.results.resolve(std::mem::take(&mut self.owners), |_| None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::wait::{slot, SlotPoll, SlotRx};
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
        let config = EngineConfig::default();
        let bands: Vec<Arc<Band>> = ranges
            .iter()
            .map(|rows| {
                let band = a.row_band(rows.clone());
                Arc::new(Band::new(band, rows.start, None, OpSet::gcn(), 2, &config))
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

    /// A waiter for a route that must not coalesce.
    fn no_waiter(_: usize) -> SlotTx {
        panic!("an uncontended cold route must own")
    }

    /// Route and fill every node (sorted, distinct) as its owner — the
    /// shape the launch's [`FillSet`] path takes with no contention.
    fn fill_all(cache: &Arc<EmbedCache>, epoch: u64, nodes: &[usize], rows: &Dense) {
        let mut out = Dense::zeros(nodes.len(), 2);
        let route = cache.results.route(nodes, epoch, out.as_mut_slice(), Some(&mut no_waiter));
        FillSet::new(Arc::clone(cache), Arc::from(nodes), route.owners, None).complete(rows);
    }

    /// The distinct nodes of `nodes` the cache does not serve at
    /// `epoch`, sorted, read without registering.
    fn misses(cache: &EmbedCache, nodes: &[usize], epoch: u64) -> Vec<usize> {
        let mut out = Dense::zeros(nodes.len(), 2);
        let route = cache.results.route(nodes, epoch, out.as_mut_slice(), None);
        let mut missed: Vec<usize> = route.misses.iter().map(|&(_, u)| u).collect();
        missed.sort_unstable();
        missed.dedup();
        missed
    }

    /// Own `node`'s row, then coalesce a second miss onto it: the
    /// registration and the waiter's receiving half.
    fn owner_and_waiter(cache: &EmbedCache, node: usize) -> (InflightOwner, SlotRx) {
        let mut out = Dense::zeros(1, 2);
        let mut route = cache.results.route(&[node], 0, out.as_mut_slice(), Some(&mut no_waiter));
        let owner = route.owners.pop().expect("owner");
        let (tx, rx) = slot();
        let (mut tx, out) = (Some(tx), out.as_mut_slice());
        let route = cache.results.route(&[node], 0, out, Some(&mut |_| tx.take().expect("one")));
        assert!(route.owners.is_empty(), "waiter");
        (owner, rx)
    }

    /// The one row a filled waiter's slot holds.
    fn filled(rx: &SlotRx) -> Vec<f32> {
        match rx.try_recv() {
            SlotPoll::Reply(Ok(z)) if z.nrows() == 1 => z.as_slice().to_vec(),
            _ => panic!("a filled waiter holds one row"),
        }
    }

    #[test]
    fn delta_listener_invalidates_patched_rows_and_in_neighbors_only() {
        // Ring u→u+1: patching v invalidates v (its X row) and v-1
        // (aggregates y_v). Everything else survives.
        let n = 8;
        let cache = Arc::new(transposed(&ring(n)));
        let all: Vec<usize> = (0..n).collect();
        let rows = Dense::from_fn(n, 2, |r, _| r as f32);
        fill_all(&cache, 0, &all, &rows);
        cache.on_delta(1, &[4]);
        assert_eq!(misses(&cache, &all, 1), [3, 4], "only vertex 4 and its in-neighbor 3 retired");
        assert_eq!(cache.results.metrics().invalidated_rows, 2);
    }

    #[test]
    fn publish_listener_flushes_lazily() {
        let cache = Arc::new(transposed(&ring(4)));
        fill_all(&cache, 0, &[0, 1, 2, 3], &Dense::zeros(4, 2));
        cache.on_publish(1);
        assert_eq!(misses(&cache, &[0, 1, 2, 3], 1), [0, 1, 2, 3]);
        assert_eq!(cache.results.metrics().flushes, 1);
    }

    #[test]
    fn dropped_fillset_aborts_its_registrations() {
        let cache = Arc::new(transposed(&ring(4)));
        let (owner, rx) = owner_and_waiter(&cache, 2);
        drop(FillSet::new(Arc::clone(&cache), Arc::new([2]), vec![owner], None));
        assert!(matches!(rx.try_recv(), SlotPoll::Closed), "the waiter's slot closes, no hang");
        assert_eq!(cache.results.metrics().inflight_rows, 0);
    }

    #[test]
    fn completed_fillset_backfills_waiters_and_cache() {
        let cache = Arc::new(transposed(&ring(4)));
        let (o1, _) = owner_and_waiter(&cache, 1);
        let (o3, rx) = owner_and_waiter(&cache, 3);
        let rows = Dense::from_rows(2, 2, &[1.0, 1.5, 3.0, 3.5]).unwrap();
        FillSet::new(Arc::clone(&cache), Arc::new([1, 3]), vec![o3, o1], None).complete(&rows);
        assert_eq!(filled(&rx), [3.0, 3.5]);
        let mut out = Dense::zeros(2, 2);
        let route = cache.results.route(&[1, 3], 0, out.as_mut_slice(), None);
        assert!(route.misses.is_empty(), "both rows resident after the fill");
        assert_eq!(out.row(0), &[1.0, 1.5]);
        assert_eq!(out.row(1), &[3.0, 3.5]);
    }

    #[test]
    fn poisoned_segment_aborts_its_whole_group_only() {
        let n = 40;
        let cache = Arc::new(transposed(&ring(n)));
        let stripes = CacheConfig::default().segments;
        let poisoned = cache.results.segment_of(2);
        let plan = Arc::new(FaultPlan::parse(&format!("poison_segment={poisoned}")).unwrap());
        // Two rows in the poisoned stripe, one in a healthy one.
        let nodes = [2, 3, 2 + stripes];
        let (owners, rxs): (Vec<_>, Vec<_>) =
            nodes.iter().map(|&u| owner_and_waiter(&cache, u)).unzip();
        let rows = Dense::from_fn(3, 2, |r, c| (10 * nodes[r] + c) as f32);
        FillSet::new(Arc::clone(&cache), Arc::new(nodes), owners, Some(plan)).complete(&rows);
        for (&u, rx) in nodes.iter().zip(&rxs) {
            if cache.results.segment_of(u) == poisoned {
                assert!(matches!(rx.try_recv(), SlotPoll::Closed), "{u}: aborted, the slot closes");
            } else {
                assert_eq!(filled(rx), [(10 * u) as f32, (10 * u + 1) as f32]);
            }
        }
        assert_eq!(misses(&cache, &nodes, 0), [2, 2 + stripes], "poisoned rows are not cached");
        assert_eq!(cache.results.metrics().inflight_rows, 0);
    }
}
