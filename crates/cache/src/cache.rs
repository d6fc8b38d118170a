//! The sharded, epoch-aware result cache (see the crate docs for the
//! validity contract).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::stats::{CacheMetrics, CacheStats};

/// Approximate fixed per-entry overhead (map slot, ring slot, box
/// header) charged against the byte budget on top of the row payload.
const ENTRY_OVERHEAD: usize = 80;

/// Tuning knobs for a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across all segments (payload + bookkeeping
    /// overhead). At least one row per segment is always admitted.
    pub byte_budget: usize,
    /// Number of lock stripes. More segments mean less contention;
    /// each holds `byte_budget / segments` bytes.
    pub segments: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { byte_budget: 64 << 20, segments: 16 }
    }
}

impl CacheConfig {
    /// A config with `mb` mebibytes of budget and the default striping.
    pub fn with_mb(mb: usize) -> Self {
        CacheConfig { byte_budget: mb << 20, ..CacheConfig::default() }
    }
}

struct Entry {
    /// Feature epoch the row was computed at.
    epoch: u64,
    /// CLOCK second-chance bit, set on every hit.
    referenced: bool,
    data: Box<[f32]>,
}

/// Deferred stat deltas from a lock-held insert.
#[derive(Default)]
struct InsertStats {
    /// The row was admitted (fresh or refresh); stale rows are refused.
    inserted: bool,
    /// A new entry was created (refreshes keep the footprint).
    grew: bool,
    /// Entries retired by CLOCK eviction to make room.
    evicted: u64,
}

/// One in-flight row computation another request may coalesce onto.
struct Inflight<W> {
    /// The owner's pinned epoch — the stamp the fill will carry.
    epoch: u64,
    /// Unique registration id, so an owner's completion can never
    /// resolve a different registration for the same node.
    token: u64,
    /// The coalesced waiters' handles, returned by the fill or abort.
    waiters: Vec<W>,
}

struct Segment<W> {
    map: HashMap<usize, Entry>,
    /// CLOCK ring of node ids. Invalidation removes from `map` only;
    /// orphaned ring slots are reclaimed lazily when the hand passes.
    ring: Vec<usize>,
    hand: usize,
    /// In-flight computations keyed by node. Usually zero or one entry
    /// per node; a second appears only when an epoch bump invalidated
    /// the first mid-flight (the stale one then completes waiter-less).
    inflight: HashMap<usize, Vec<Inflight<W>>>,
}

impl<W> Default for Segment<W> {
    fn default() -> Self {
        Segment { map: HashMap::new(), ring: Vec::new(), hand: 0, inflight: HashMap::new() }
    }
}

impl<W> Segment<W> {
    /// Retire one resident entry CLOCK-style: referenced entries get a
    /// second chance (bit cleared, hand advances), unreferenced ones
    /// are evicted. Returns false only when the segment is empty.
    fn evict_one(&mut self) -> bool {
        // Two full sweeps clear every second-chance bit; the bound
        // guards against a ring of orphaned slots shrinking under us.
        let mut steps = 2 * self.ring.len() + 2;
        while !self.ring.is_empty() && steps > 0 {
            steps -= 1;
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let node = self.ring[self.hand];
            match self.map.get_mut(&node) {
                // Orphan (already invalidated): reclaim the slot; the
                // swapped-in id is inspected next, so don't advance.
                None => {
                    self.ring.swap_remove(self.hand);
                }
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.hand += 1;
                }
                Some(_) => {
                    self.map.remove(&node);
                    self.ring.swap_remove(self.hand);
                    return true;
                }
            }
        }
        // Degenerate fallback (can only trigger if the sweep bound was
        // consumed by orphans): evict whatever the hand rests on.
        if let Some(&node) = self.ring.first() {
            self.map.remove(&node);
            self.ring.swap_remove(0);
            return true;
        }
        false
    }
}

/// How a cache miss should be computed, decided by
/// [`ResultCache::route_miss`]: either the caller owns the computation,
/// or it coalesces onto an in-flight one.
#[must_use = "an Owner registration must be resolved with fill/abort or waiters hang"]
pub enum MissRoute {
    /// First miss in this validity window: the caller computes the row
    /// and must resolve the registration with [`ResultCache::fill`]
    /// (or [`ResultCache::abort`] on failure).
    Owner(InflightOwner),
    /// An equivalent computation is already in flight — the fill the
    /// owner produces is bit-identical to what this caller would
    /// compute at its own pinned epoch. The caller's handle is
    /// registered with it; wait on the handle's other end instead of
    /// computing.
    Coalesced,
    /// A concurrent fill landed between the caller's lookup miss and
    /// this routing call: the row is already resident and valid at the
    /// caller's pinned epoch — here it is, nothing to compute or wait
    /// for.
    Resident(Box<[f32]>),
}

/// Owner-side handle of one in-flight row computation, returned by
/// [`ResultCache::route_miss`]. Must be resolved with
/// [`ResultCache::fill`] or [`ResultCache::abort`]; an unresolved
/// registration leaves its waiters blocked until their deadline.
#[derive(Debug)]
pub struct InflightOwner {
    node: usize,
    epoch: u64,
    token: u64,
}

impl InflightOwner {
    /// The node whose row this registration computes.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The pinned epoch the fill will be stamped with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A sharded, lock-striped, epoch-aware cache of computed embedding
/// rows. See the crate docs for the validity contract; see
/// [`CacheConfig`] for sizing.
///
/// `W` is the handle a coalesced miss registers with an in-flight
/// computation ([`ResultCache::route_miss`]); the owner's
/// [`fill`](ResultCache::fill) or [`abort`](ResultCache::abort) hands
/// the handles back, so what a waiter waits on is the caller's choice.
pub struct ResultCache<W> {
    segments: Vec<Mutex<Segment<W>>>,
    /// Per-segment resident-entry cap derived from the byte budget.
    seg_cap: usize,
    d: usize,
    nvertices: usize,
    row_bytes: usize,
    /// Entries stamped before this epoch are stale (publish floor).
    flush_epoch: AtomicU64,
    /// Per-vertex delta floor: the newest epoch whose delta update
    /// touched this row's dependency set. Entries stamped before it
    /// are stale.
    last_touch: Vec<AtomicU64>,
    /// Monotonic id minting [`InflightOwner`] tokens.
    next_token: AtomicU64,
    stats: CacheStats,
}

impl<W> std::fmt::Debug for ResultCache<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("nvertices", &self.nvertices)
            .field("d", &self.d)
            .field("segments", &self.segments.len())
            .field("seg_cap", &self.seg_cap)
            .field("flush_epoch", &self.flush_epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<W> ResultCache<W> {
    /// A cache over output rows of a graph with `nvertices` rows at
    /// embedding dimension `d`.
    ///
    /// # Panics
    /// Panics when `config.segments == 0`.
    pub fn new(nvertices: usize, d: usize, config: CacheConfig) -> ResultCache<W> {
        assert!(config.segments > 0, "cache needs at least one segment");
        let row_bytes = 4 * d + ENTRY_OVERHEAD;
        // At least one row per segment so a tiny budget still caches.
        let seg_cap = (config.byte_budget / config.segments / row_bytes).max(1);
        ResultCache {
            segments: (0..config.segments).map(|_| Mutex::new(Segment::default())).collect(),
            seg_cap,
            d,
            nvertices,
            row_bytes,
            flush_epoch: AtomicU64::new(0),
            last_touch: (0..nvertices).map(|_| AtomicU64::new(0)).collect(),
            next_token: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// The embedding dimension of cached rows.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The vertex-id space this cache covers.
    pub fn nvertices(&self) -> usize {
        self.nvertices
    }

    /// Resident-row capacity (entries, not bytes) across all segments.
    pub fn capacity_rows(&self) -> usize {
        self.seg_cap * self.segments.len()
    }

    /// Number of lock stripes (fault injection targets one by index).
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// The lock stripe `node`'s entry lives in.
    pub fn segment_of(&self, node: usize) -> usize {
        node % self.segments.len()
    }

    fn segment(&self, node: usize) -> &Mutex<Segment<W>> {
        &self.segments[self.segment_of(node)]
    }

    fn valid(&self, node: usize, stamp: u64, pinned: u64) -> bool {
        stamp <= pinned
            && stamp >= self.flush_epoch.load(Ordering::Acquire)
            && stamp >= self.last_touch[node].load(Ordering::Acquire)
    }

    /// Copy the cached row for `node`, valid at pinned epoch `pinned`,
    /// into `out`. Returns false (and drops a stale entry, if any) on a
    /// miss. Counts one hit or miss.
    ///
    /// # Panics
    /// Panics when `node >= nvertices` or `out.len() != d`.
    pub fn lookup(&self, node: usize, pinned: u64, out: &mut [f32]) -> bool {
        assert!(node < self.nvertices, "node {node} outside cache range {}", self.nvertices);
        assert_eq!(out.len(), self.d, "output slice must hold one row");
        #[derive(PartialEq)]
        enum Verdict {
            Hit,
            /// Absent, or newer than this reader's pin (an old snapshot
            /// racing a fresher insert) — the entry, if any, is kept.
            Miss,
            /// Provably stale for every future reader: reclaim now.
            StaleDrop,
        }
        let mut seg = self.segment(node).lock();
        let verdict = match seg.map.get_mut(&node) {
            Some(e) if self.valid(node, e.epoch, pinned) => {
                e.referenced = true;
                out.copy_from_slice(&e.data);
                Verdict::Hit
            }
            Some(e)
                if e.epoch < self.flush_epoch.load(Ordering::Acquire)
                    || e.epoch < self.last_touch[node].load(Ordering::Acquire) =>
            {
                Verdict::StaleDrop
            }
            _ => Verdict::Miss,
        };
        if verdict == Verdict::StaleDrop {
            seg.map.remove(&node);
        }
        drop(seg);
        match verdict {
            Verdict::Hit => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            Verdict::Miss => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
            Verdict::StaleDrop => {
                self.stats.entries.fetch_sub(1, Ordering::Relaxed);
                self.stats.bytes.fetch_sub(self.row_bytes, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Insert (or refresh) the row for `node` computed at `epoch`,
    /// evicting CLOCK-style under budget pressure. Rows already known
    /// stale (an invalidation for a newer epoch landed first) are not
    /// admitted — that is what makes a concurrent
    /// compute-from-old-epoch / delta-update race safe.
    ///
    /// # Panics
    /// Panics when `node >= nvertices` or `row.len() != d`.
    pub fn insert(&self, node: usize, epoch: u64, row: &[f32]) {
        assert!(node < self.nvertices, "node {node} outside cache range {}", self.nvertices);
        assert_eq!(row.len(), self.d, "row slice must hold one row");
        let mut seg = self.segment(node).lock();
        let outcome = self.insert_locked(&mut seg, node, epoch, row);
        drop(seg);
        self.apply_insert_stats(outcome);
    }

    /// The insert body, run under the caller-held segment lock, with
    /// stat deltas deferred (atomics are not touched while locked).
    fn insert_locked(
        &self,
        seg: &mut Segment<W>,
        node: usize,
        epoch: u64,
        row: &[f32],
    ) -> InsertStats {
        let mut outcome = InsertStats::default();
        if epoch < self.flush_epoch.load(Ordering::Acquire)
            || epoch < self.last_touch[node].load(Ordering::Acquire)
        {
            return outcome;
        }
        if let Some(e) = seg.map.get_mut(&node) {
            // A straggler's older row never downgrades a newer entry —
            // and a refused refresh is not an insert.
            if epoch < e.epoch {
                return outcome;
            }
            e.epoch = epoch;
            e.referenced = true;
            e.data.copy_from_slice(row);
        } else {
            while seg.map.len() >= self.seg_cap {
                if !seg.evict_one() {
                    break;
                }
                outcome.evicted += 1;
            }
            seg.map.insert(node, Entry { epoch, referenced: false, data: row.into() });
            seg.ring.push(node);
            outcome.grew = true;
        }
        outcome.inserted = true;
        outcome
    }

    fn apply_insert_stats(&self, outcome: InsertStats) {
        if outcome.grew {
            self.stats.entries.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes.fetch_add(self.row_bytes, Ordering::Relaxed);
        }
        if outcome.evicted > 0 {
            self.stats.evictions.fetch_add(outcome.evicted, Ordering::Relaxed);
            self.stats.entries.fetch_sub(outcome.evicted as usize, Ordering::Relaxed);
            self.stats
                .bytes
                .fetch_sub(outcome.evicted as usize * self.row_bytes, Ordering::Relaxed);
        }
        if outcome.inserted {
            self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Route a cache miss: either the caller becomes the **owner** of
    /// the row computation (first miss in this validity window — it
    /// must resolve the registration with [`ResultCache::fill`] or
    /// [`ResultCache::abort`]), or it **coalesces** onto an in-flight
    /// computation whose fill is provably bit-identical to what the
    /// caller would compute at `pinned` (the handle `waiter()` makes is
    /// registered with it), or — when a concurrent fill landed between
    /// the caller's lookup miss and this call — the row is already
    /// **resident** and returned directly. `waiter` runs only when the
    /// miss coalesces, under the segment lock: it must not call back
    /// into the cache. The resident/in-flight/owner decision is atomic
    /// under the segment lock ([`ResultCache::fill`] resolves under the
    /// same lock), so a row is never computed twice within one validity
    /// window.
    ///
    /// Coalescing applies the same validity predicate as a lookup: a
    /// waiter pinned to `pinned` attaches to an in-flight registration
    /// stamped `e` only when `e <= pinned` and no publish or
    /// delta-touch of `node` landed after `e` — under exactly those
    /// conditions the row at epoch `e` equals the row at `pinned`
    /// bit-for-bit. An epoch bump that invalidates `node` mid-flight
    /// therefore makes later requests *re-compute* (they register a
    /// fresh owner) instead of consuming the stale fill.
    ///
    /// # Panics
    /// Panics when `node >= nvertices`.
    pub fn route_miss(&self, node: usize, pinned: u64, waiter: impl FnOnce() -> W) -> MissRoute {
        assert!(node < self.nvertices, "node {node} outside cache range {}", self.nvertices);
        let mut seg = self.segment(node).lock();
        // A fill may have landed since the caller's lookup missed:
        // serve it rather than re-registering an owner (counted as a
        // late hit — the preceding lookup already counted the miss).
        if let Some(e) = seg.map.get_mut(&node) {
            if self.valid(node, e.epoch, pinned) {
                e.referenced = true;
                let row = e.data.clone();
                drop(seg);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.late_hits.fetch_add(1, Ordering::Relaxed);
                return MissRoute::Resident(row);
            }
        }
        if let Some(entries) = seg.inflight.get_mut(&node) {
            if let Some(e) = entries.iter_mut().find(|e| self.valid(node, e.epoch, pinned)) {
                e.waiters.push(waiter());
                drop(seg);
                self.stats.coalesced_misses.fetch_add(1, Ordering::Relaxed);
                return MissRoute::Coalesced;
            }
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        seg.inflight.entry(node).or_default().push(Inflight {
            epoch: pinned,
            token,
            waiters: Vec::new(),
        });
        drop(seg);
        self.stats.inflight.inc();
        MissRoute::Owner(InflightOwner { node, epoch: pinned, token })
    }

    /// Complete an in-flight registration: insert `row` into the cache
    /// and hand back the coalesced waiters' handles, for the caller to
    /// back-fill with `row` (a fill raced by an invalidation still
    /// serves its registered waiters, whose pinned epochs pre-date the
    /// invalidation, but is not admitted as a cache entry). The
    /// registration removal and the insert happen under one segment
    /// lock acquisition, so a concurrent [`ResultCache::route_miss`]
    /// observes either "in flight" or "resident" — never the gap in
    /// between (which would make it recompute the row). The handles
    /// come back after the lock drops, so whatever releasing one does
    /// (a wakeup, another lock) runs outside it. A registration already
    /// resolved has no handles left.
    ///
    /// # Panics
    /// Panics when `row.len() != d`.
    pub fn fill(&self, owner: InflightOwner, row: &[f32]) -> Vec<W> {
        assert_eq!(row.len(), self.d, "row slice must hold one row");
        let mut seg = self.segment(owner.node).lock();
        let waiters = Self::take_inflight_locked(&mut seg, &owner);
        let outcome = self.insert_locked(&mut seg, owner.node, owner.epoch, row);
        drop(seg);
        self.apply_insert_stats(outcome);
        self.resolved(waiters)
    }

    /// Abandon an in-flight registration (the owning request failed,
    /// e.g. on engine shutdown): nothing is inserted, and the coalesced
    /// waiters' handles come back, after the lock drops, for the caller
    /// to fail.
    pub fn abort(&self, owner: InflightOwner) -> Vec<W> {
        let mut seg = self.segment(owner.node).lock();
        let waiters = Self::take_inflight_locked(&mut seg, &owner);
        drop(seg);
        self.resolved(waiters)
    }

    /// Remove `owner`'s registration under the caller-held lock,
    /// returning its waiters — `None` when it was already resolved.
    fn take_inflight_locked(seg: &mut Segment<W>, owner: &InflightOwner) -> Option<Vec<W>> {
        let entries = seg.inflight.get_mut(&owner.node)?;
        let pos = entries.iter().position(|e| e.token == owner.token)?;
        let entry = entries.swap_remove(pos);
        if entries.is_empty() {
            seg.inflight.remove(&owner.node);
        }
        Some(entry.waiters)
    }

    /// The gauge side of a resolution: a registration resolved twice
    /// (double fill or abort) is a no-op and leaves the gauge alone.
    fn resolved(&self, waiters: Option<Vec<W>>) -> Vec<W> {
        if waiters.is_some() {
            self.stats.inflight.dec();
        }
        waiters.unwrap_or_default()
    }

    /// A publish minted `epoch`: lazily invalidate every entry stamped
    /// earlier (O(1) — the stamp comparison at lookup does the work).
    /// Must be called before any reader can pin `epoch`.
    pub fn invalidate_all(&self, epoch: u64) {
        self.flush_epoch.fetch_max(epoch, Ordering::AcqRel);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// A delta update minted `epoch` with dependency touch set `rows`
    /// (the patched vertices and their in-neighbors): precisely retire
    /// exactly those rows — resident entries are dropped eagerly, and
    /// the per-vertex floor blocks stale re-inserts racing this call.
    /// Ids outside the cache's vertex range are ignored (a rectangular
    /// graph may patch Y rows beyond the output row space). Must be
    /// called before any reader can pin `epoch`.
    pub fn invalidate_rows(&self, epoch: u64, rows: &[usize]) {
        let mut dropped = 0usize;
        for &node in rows {
            if node >= self.nvertices {
                continue;
            }
            self.last_touch[node].fetch_max(epoch, Ordering::AcqRel);
            let mut seg = self.segment(node).lock();
            if seg.map.remove(&node).is_some() {
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.stats.invalidated_rows.fetch_add(dropped as u64, Ordering::Relaxed);
            self.stats.entries.fetch_sub(dropped, Ordering::Relaxed);
            self.stats.bytes.fetch_sub(dropped * self.row_bytes, Ordering::Relaxed);
        }
    }

    /// Record one request-level observation for the hit-ratio
    /// histogram: `hits` of `rows` requested rows came from the cache.
    pub fn record_request(&self, hits: u64, rows: u64) {
        self.stats.hit_ratio.record_fraction(hits, rows);
    }

    /// Point-in-time statistics.
    pub fn metrics(&self) -> CacheMetrics {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(d: usize, v: f32) -> Vec<f32> {
        vec![v; d]
    }

    /// A cache at the default sizing whose waiters are tagged by number.
    fn cache(nvertices: usize, d: usize) -> ResultCache<u32> {
        ResultCache::new(nvertices, d, CacheConfig::default())
    }

    /// A route that must not coalesce: making a waiter is a failure.
    fn no_waiter() -> u32 {
        panic!("this miss must not coalesce")
    }

    fn tiny(nvertices: usize, d: usize, rows_budget: usize) -> ResultCache<u32> {
        // One segment so capacity is exact and eviction deterministic.
        let row_bytes = 4 * d + ENTRY_OVERHEAD;
        ResultCache::new(
            nvertices,
            d,
            CacheConfig { byte_budget: rows_budget * row_bytes, segments: 1 },
        )
    }

    #[test]
    fn roundtrip_hit_and_absent_miss() {
        let c = cache(10, 4);
        let mut out = row(4, 0.0);
        assert!(!c.lookup(3, 0, &mut out));
        c.insert(3, 0, &row(4, 1.5));
        assert!(c.lookup(3, 0, &mut out));
        assert_eq!(out, row(4, 1.5));
        let m = c.metrics();
        assert_eq!((m.hits, m.misses, m.inserts, m.entries), (1, 1, 1, 1));
        assert!(m.bytes > 0);
    }

    #[test]
    fn publish_invalidates_everything_lazily() {
        let c = cache(4, 2);
        c.insert(0, 0, &row(2, 1.0));
        c.insert(1, 0, &row(2, 2.0));
        c.invalidate_all(1);
        let mut out = row(2, 0.0);
        assert!(!c.lookup(0, 1, &mut out), "pre-publish entry is stale");
        assert!(!c.lookup(1, 1, &mut out));
        // Fresh rows at the new epoch hit again.
        c.insert(0, 1, &row(2, 3.0));
        assert!(c.lookup(0, 1, &mut out));
        assert_eq!(out, row(2, 3.0));
        assert_eq!(c.metrics().flushes, 1);
    }

    #[test]
    fn delta_invalidation_is_precise() {
        let c = cache(6, 2);
        for u in 0..6 {
            c.insert(u, 0, &row(2, u as f32));
        }
        // Delta at epoch 1 touches {1, 4}: only those rows retire.
        c.invalidate_rows(1, &[1, 4]);
        let mut out = row(2, 0.0);
        for u in [0usize, 2, 3, 5] {
            assert!(c.lookup(u, 1, &mut out), "untouched row {u} survives the delta");
            assert_eq!(out, row(2, u as f32));
        }
        assert!(!c.lookup(1, 1, &mut out));
        assert!(!c.lookup(4, 1, &mut out));
        let m = c.metrics();
        assert_eq!(m.invalidated_rows, 2);
        assert_eq!(m.entries, 4);
    }

    #[test]
    fn stale_reinsert_after_delta_is_rejected() {
        let c = cache(4, 2);
        // Reader computed node 2's row at epoch 0; before it could
        // insert, a delta touching node 2 minted epoch 1.
        c.invalidate_rows(1, &[2]);
        c.insert(2, 0, &row(2, 9.0));
        let mut out = row(2, 0.0);
        assert!(!c.lookup(2, 1, &mut out), "stale row from before the delta must not serve");
        // The epoch-1 recompute is admitted.
        c.insert(2, 1, &row(2, 10.0));
        assert!(c.lookup(2, 1, &mut out));
        assert_eq!(out, row(2, 10.0));
    }

    #[test]
    fn old_reader_never_sees_a_newer_row() {
        let c = cache(4, 2);
        c.insert(1, 5, &row(2, 5.0));
        let mut out = row(2, 0.0);
        // A reader still pinned to epoch 3 must recompute, not read
        // the epoch-5 row — and the newer entry must survive.
        assert!(!c.lookup(1, 3, &mut out));
        assert!(c.lookup(1, 5, &mut out));
        assert_eq!(out, row(2, 5.0));
    }

    #[test]
    fn clock_eviction_respects_budget_and_second_chance() {
        let c = tiny(100, 4, 3);
        assert_eq!(c.capacity_rows(), 3);
        c.insert(0, 0, &row(4, 0.0));
        c.insert(1, 0, &row(4, 1.0));
        c.insert(2, 0, &row(4, 2.0));
        // Touch node 0 so its second-chance bit protects it.
        let mut out = row(4, 0.0);
        assert!(c.lookup(0, 0, &mut out));
        // Inserting a fourth row must evict an *unreferenced* one.
        c.insert(3, 0, &row(4, 3.0));
        let m = c.metrics();
        assert_eq!(m.entries, 3);
        assert_eq!(m.evictions, 1);
        assert!(c.lookup(0, 0, &mut out), "recently-hit row survives the clock");
        assert!(c.lookup(3, 0, &mut out), "new row is resident");
    }

    #[test]
    fn eviction_reclaims_orphaned_ring_slots() {
        let c = tiny(100, 4, 2);
        c.insert(0, 0, &row(4, 0.0));
        c.insert(1, 0, &row(4, 1.0));
        // Invalidate both (orphaning their ring slots), then fill the
        // cache again — the clock must reclaim orphans, not spin.
        c.invalidate_rows(1, &[0, 1]);
        c.insert(2, 1, &row(4, 2.0));
        c.insert(3, 1, &row(4, 3.0));
        c.insert(4, 1, &row(4, 4.0));
        let mut out = row(4, 0.0);
        assert!(c.lookup(4, 1, &mut out));
        assert_eq!(c.metrics().entries, 2);
    }

    #[test]
    fn refresh_overwrites_in_place_without_growth() {
        let c = tiny(10, 2, 4);
        c.insert(7, 0, &row(2, 1.0));
        c.insert(7, 2, &row(2, 2.0));
        // An older stamp never downgrades a newer entry.
        c.insert(7, 1, &row(2, 9.0));
        let mut out = row(2, 0.0);
        assert!(c.lookup(7, 2, &mut out));
        assert_eq!(out, row(2, 2.0));
        let m = c.metrics();
        assert_eq!(m.entries, 1);
        assert_eq!(m.inserts, 2, "the refused stale refresh is not counted as an insert");
    }

    #[test]
    fn second_miss_coalesces_and_is_backfilled() {
        let c = cache(8, 2);
        let MissRoute::Owner(owner) = c.route_miss(3, 0, no_waiter) else {
            panic!("first miss must own the computation");
        };
        let MissRoute::Coalesced = c.route_miss(3, 0, || 1) else {
            panic!("second miss must coalesce");
        };
        let MissRoute::Coalesced = c.route_miss(3, 0, || 2) else {
            panic!("third miss must coalesce too");
        };
        assert_eq!(c.fill(owner, &row(2, 7.0)), vec![1, 2], "the fill hands back both waiters");
        // The fill also landed as a cache entry.
        let mut out = row(2, 0.0);
        assert!(c.lookup(3, 0, &mut out));
        assert_eq!(out, row(2, 7.0));
        let m = c.metrics();
        assert_eq!(m.coalesced_misses, 2);
        assert_eq!(m.inflight_rows, 0, "registration resolved");
        assert_eq!(m.inflight_peak_rows, 1);
    }

    #[test]
    fn coalescing_spans_epochs_only_while_valid() {
        let c = cache(8, 2);
        let MissRoute::Owner(owner) = c.route_miss(5, 0, no_waiter) else { panic!("owner") };
        // A reader pinned to a *newer* epoch with no invalidating write
        // in between coalesces: the epoch-0 row equals the epoch-2 row.
        let MissRoute::Coalesced = c.route_miss(5, 2, || 1) else {
            panic!("valid newer pin must coalesce")
        };
        // A delta touching node 5 mints epoch 3: readers at the new
        // epoch must re-compute, not consume the stale fill.
        c.invalidate_rows(3, &[5]);
        let MissRoute::Owner(owner2) = c.route_miss(5, 3, no_waiter) else {
            panic!("post-invalidation miss must re-compute")
        };
        assert_eq!(c.fill(owner, &row(2, 1.0)), vec![1], "pre-bump waiter still served");
        // The stale fill was refused as a cache entry...
        let mut out = row(2, 0.0);
        assert!(!c.lookup(5, 3, &mut out));
        // ...while the re-computed one is admitted.
        assert!(c.fill(owner2, &row(2, 2.0)).is_empty());
        assert!(c.lookup(5, 3, &mut out));
        assert_eq!(out, row(2, 2.0));
        assert_eq!(c.metrics().inflight_rows, 0);
    }

    #[test]
    fn route_after_fill_is_resident_not_a_second_owner() {
        // The exactly-once race: a lookup misses, the in-flight fill
        // lands, then the routing call runs. It must return the
        // now-resident row, never register a second owner.
        let c = cache(8, 2);
        let MissRoute::Owner(owner) = c.route_miss(6, 0, no_waiter) else { panic!("owner") };
        assert!(c.fill(owner, &row(2, 9.0)).is_empty());
        match c.route_miss(6, 0, no_waiter) {
            MissRoute::Resident(r) => assert_eq!(r.as_ref(), &[9.0, 9.0]),
            _ => panic!("post-fill route must find the resident row"),
        }
        let m = c.metrics();
        assert_eq!(m.hits, 1, "the resident route counts as a late hit");
        assert_eq!(m.inflight_rows, 0);
        // A stale resident row (invalidated since) is not served.
        c.invalidate_rows(1, &[6]);
        match c.route_miss(6, 1, no_waiter) {
            MissRoute::Owner(o) => assert!(c.abort(o).is_empty()),
            _ => panic!("invalidated resident row must not be served"),
        }
    }

    #[test]
    fn abort_hands_back_its_waiters_and_inserts_nothing() {
        let c = cache(4, 2);
        let MissRoute::Owner(owner) = c.route_miss(1, 0, no_waiter) else { panic!("owner") };
        let MissRoute::Coalesced = c.route_miss(1, 0, || 4) else { panic!("waiter") };
        let again = InflightOwner { ..owner };
        assert_eq!(c.abort(owner), vec![4]);
        let mut out = row(2, 0.0);
        assert!(!c.lookup(1, 0, &mut out), "aborted computation inserted nothing");
        assert_eq!(c.metrics().inflight_rows, 0);
        // Resolving the same registration again is a no-op: no waiter
        // comes back twice and the gauge does not go below zero.
        assert!(c.abort(again).is_empty());
        assert_eq!(c.metrics().inflight_rows, 0);
    }

    #[test]
    fn concurrent_mixed_traffic_stays_consistent() {
        let c = std::sync::Arc::new(ResultCache::<u32>::new(
            64,
            8,
            CacheConfig { byte_budget: 40 * (4 * 8 + ENTRY_OVERHEAD), segments: 4 },
        ));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    let mut out = vec![0f32; 8];
                    for i in 0..500u64 {
                        let node = ((t * 17 + i * 7) % 64) as usize;
                        let epoch = i / 100;
                        if i % 50 == 0 {
                            c.invalidate_rows(epoch, &[node]);
                        }
                        if c.lookup(node, epoch, &mut out) {
                            // A hit must carry a full row (value is
                            // whatever epoch wrote it; shape must hold).
                            assert_eq!(out.len(), 8);
                        } else {
                            c.insert(node, epoch, &[epoch as f32; 8]);
                        }
                    }
                });
            }
        });
        let m = c.metrics();
        assert_eq!(m.hits + m.misses, 2000);
        assert!(m.entries <= 40);
    }
}
