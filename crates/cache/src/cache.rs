//! The sharded, epoch-aware result cache (see the crate docs for the
//! validity contract).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

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

/// Waiters removed from a resolved in-flight registration.
#[derive(Default)]
struct TakenWaiters {
    cells: Vec<Arc<FillCell>>,
    /// False when the registration was already resolved (double
    /// fill/abort is a no-op, and must not unbalance the gauge).
    resolved: bool,
}

/// One in-flight row computation another request may coalesce onto.
struct Inflight {
    /// The owner's pinned epoch — the stamp the fill will carry.
    epoch: u64,
    /// Unique registration id, so an owner's completion can never
    /// resolve a different registration for the same node.
    token: u64,
    /// Waiters to back-fill when the owner completes.
    waiters: Vec<Arc<FillCell>>,
}

#[derive(Default)]
struct Segment {
    map: HashMap<usize, Entry>,
    /// CLOCK ring of node ids. Invalidation removes from `map` only;
    /// orphaned ring slots are reclaimed lazily when the hand passes.
    ring: Vec<usize>,
    hand: usize,
    /// In-flight computations keyed by node. Usually zero or one entry
    /// per node; a second appears only when an epoch bump invalidated
    /// the first mid-flight (the stale one then completes waiter-less).
    inflight: HashMap<usize, Vec<Inflight>>,
}

impl Segment {
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
    /// compute at its own pinned epoch. Wait on the handle instead of
    /// computing.
    Waiter(RowWaiter),
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

/// The owner of a coalesced computation gave up (engine shutdown)
/// before producing the row; the waiter must fail or recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillAborted;

impl std::fmt::Display for FillAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the in-flight computation this request coalesced onto was aborted")
    }
}

impl std::error::Error for FillAborted {}

/// One coalesced waiter's resolution cell: a mutex/condvar pair the
/// owner's fill (or abort) resolves exactly once. Unlike a channel it
/// supports **wakeup subscription** — a harvest waiting on many
/// sources registers a callback and parks once instead of polling.
struct FillCell {
    state: StdMutex<CellState>,
    cv: Condvar,
}

#[derive(Default)]
struct CellState {
    value: Option<Result<Box<[f32]>, FillAborted>>,
    watchers: Vec<Arc<dyn Fn() + Send + Sync>>,
}

impl FillCell {
    fn new() -> Arc<FillCell> {
        Arc::new(FillCell { state: StdMutex::new(CellState::default()), cv: Condvar::new() })
    }

    /// Resolve once (later calls are no-ops), wake blocked waiters, and
    /// fire subscribed watchers — outside the lock, so a watcher may
    /// take unrelated locks without ordering risk.
    fn resolve(&self, value: Result<Box<[f32]>, FillAborted>) {
        let watchers = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.value.is_some() {
                return;
            }
            st.value = Some(value);
            std::mem::take(&mut st.watchers)
        };
        self.cv.notify_all();
        for w in watchers {
            w();
        }
    }

    /// Take the resolution if present. A consumed cell keeps reporting
    /// `FillAborted`, matching the disconnected-channel semantics the
    /// waiter had when it was mpsc-based.
    fn take_locked(st: &mut CellState) -> Option<Result<Box<[f32]>, FillAborted>> {
        if st.value.is_some() {
            st.value.replace(Err(FillAborted))
        } else {
            None
        }
    }
}

/// Waiter-side handle of a coalesced miss: resolves with the computed
/// row when the owning request's fill lands. Blocking waits park on a
/// condvar (no poll cadence); [`RowWaiter::subscribe`] registers a
/// wakeup callback for multi-source waiting.
pub struct RowWaiter {
    cell: Arc<FillCell>,
}

impl std::fmt::Debug for RowWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowWaiter").finish_non_exhaustive()
    }
}

impl RowWaiter {
    /// Non-blocking probe: `Some(Ok(row))` once filled, `Some(Err(_))`
    /// when the owner aborted, `None` while still in flight.
    pub fn poll(&self) -> Option<Result<Box<[f32]>, FillAborted>> {
        let mut st = self.cell.state.lock().unwrap_or_else(|e| e.into_inner());
        FillCell::take_locked(&mut st)
    }

    /// Park until the fill lands (or the owner aborts). This does no
    /// work itself: the owner's computation must run on another thread.
    pub fn wait(&self) -> Result<Box<[f32]>, FillAborted> {
        let mut st = self.cell.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = FillCell::take_locked(&mut st) {
                return v;
            }
            st = self.cell.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Park until the fill lands, the owner aborts, or `deadline`
    /// passes (`None` on timeout; the handle stays usable). Deadline
    /// precision comes from the condvar timeout, not a poll loop.
    pub fn wait_deadline(&self, deadline: Instant) -> Option<Result<Box<[f32]>, FillAborted>> {
        let mut st = self.cell.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = FillCell::take_locked(&mut st) {
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) =
                self.cell.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Register a wakeup callback: fired once when the cell resolves
    /// (fill or abort) — immediately, if it already has.
    pub fn subscribe(&self, watcher: Arc<dyn Fn() + Send + Sync>) {
        let fire_now = {
            let mut st = self.cell.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.value.is_some() {
                true
            } else {
                st.watchers.push(watcher.clone());
                false
            }
        };
        if fire_now {
            watcher();
        }
    }
}

/// A sharded, lock-striped, epoch-aware cache of computed embedding
/// rows. See the crate docs for the validity contract; see
/// [`CacheConfig`] for sizing.
pub struct ResultCache {
    segments: Vec<Mutex<Segment>>,
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

impl std::fmt::Debug for ResultCache {
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

impl ResultCache {
    /// A cache over output rows of a graph with `nvertices` rows at
    /// embedding dimension `d`.
    ///
    /// # Panics
    /// Panics when `d == 0` or `config.segments == 0`.
    pub fn new(nvertices: usize, d: usize, config: CacheConfig) -> ResultCache {
        assert!(d > 0, "cannot cache zero-dimensional rows");
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

    fn segment(&self, node: usize) -> &Mutex<Segment> {
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
        seg: &mut Segment,
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
    /// caller would compute at `pinned`, or — when a concurrent fill
    /// landed between the caller's lookup miss and this call — the row
    /// is already **resident** and returned directly. The
    /// resident/in-flight/owner decision is atomic under the segment
    /// lock ([`ResultCache::fill`] resolves under the same lock), so a
    /// row is never computed twice within one validity window.
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
    pub fn route_miss(&self, node: usize, pinned: u64) -> MissRoute {
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
                let cell = FillCell::new();
                e.waiters.push(Arc::clone(&cell));
                drop(seg);
                self.stats.coalesced_misses.fetch_add(1, Ordering::Relaxed);
                return MissRoute::Waiter(RowWaiter { cell });
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

    /// Complete an in-flight registration: back-fill every coalesced
    /// waiter with `row` and insert it into the cache (subject to the
    /// usual staleness refusal — a fill raced by an invalidation still
    /// serves its registered waiters, whose pinned epochs pre-date the
    /// invalidation, but is not admitted as a cache entry). The
    /// registration removal and the insert happen under one segment
    /// lock acquisition, so a concurrent [`ResultCache::route_miss`]
    /// observes either "in flight" or "resident" — never the gap in
    /// between (which would make it recompute the row).
    ///
    /// # Panics
    /// Panics when `row.len() != d`.
    pub fn fill(&self, owner: InflightOwner, row: &[f32]) {
        assert_eq!(row.len(), self.d, "row slice must hold one row");
        let mut seg = self.segment(owner.node).lock();
        let waiters = Self::take_inflight_locked(&mut seg, &owner);
        let outcome = self.insert_locked(&mut seg, owner.node, owner.epoch, row);
        drop(seg);
        // Waiter cells resolve after the segment lock drops: the
        // registration removal and the insert already happened
        // atomically above, and a subscribed watcher must be free to
        // take unrelated locks.
        for cell in &waiters.cells {
            cell.resolve(Ok(row.into()));
        }
        if waiters.resolved {
            self.stats.inflight.dec();
        }
        self.apply_insert_stats(outcome);
    }

    /// Abandon an in-flight registration (the owning request failed,
    /// e.g. on engine shutdown): waiters observe the abort and fail or
    /// recompute; nothing is inserted.
    pub fn abort(&self, owner: InflightOwner) {
        let mut seg = self.segment(owner.node).lock();
        let waiters = Self::take_inflight_locked(&mut seg, &owner);
        drop(seg);
        for cell in &waiters.cells {
            cell.resolve(Err(FillAborted));
        }
        if waiters.resolved {
            self.stats.inflight.dec();
        }
    }

    /// Remove `owner`'s registration under the caller-held lock,
    /// returning its waiters (gauge update deferred to the caller).
    fn take_inflight_locked(seg: &mut Segment, owner: &InflightOwner) -> TakenWaiters {
        let Some(entries) = seg.inflight.get_mut(&owner.node) else {
            return TakenWaiters::default();
        };
        let Some(pos) = entries.iter().position(|e| e.token == owner.token) else {
            return TakenWaiters::default();
        };
        let entry = entries.swap_remove(pos);
        if entries.is_empty() {
            seg.inflight.remove(&owner.node);
        }
        TakenWaiters { cells: entry.waiters, resolved: true }
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

    fn tiny(nvertices: usize, d: usize, rows_budget: usize) -> ResultCache {
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
        let c = ResultCache::new(10, 4, CacheConfig::default());
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
        let c = ResultCache::new(4, 2, CacheConfig::default());
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
        let c = ResultCache::new(6, 2, CacheConfig::default());
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
        let c = ResultCache::new(4, 2, CacheConfig::default());
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
        let c = ResultCache::new(4, 2, CacheConfig::default());
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
        let c = ResultCache::new(8, 2, CacheConfig::default());
        let MissRoute::Owner(owner) = c.route_miss(3, 0) else {
            panic!("first miss must own the computation");
        };
        let MissRoute::Waiter(w1) = c.route_miss(3, 0) else {
            panic!("second miss must coalesce");
        };
        let MissRoute::Waiter(w2) = c.route_miss(3, 0) else {
            panic!("third miss must coalesce too");
        };
        assert!(w1.poll().is_none(), "nothing filled yet");
        c.fill(owner, &row(2, 7.0));
        assert_eq!(w1.wait().unwrap().as_ref(), &[7.0, 7.0]);
        assert_eq!(w2.poll().unwrap().unwrap().as_ref(), &[7.0, 7.0]);
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
        let c = ResultCache::new(8, 2, CacheConfig::default());
        let MissRoute::Owner(owner) = c.route_miss(5, 0) else { panic!("owner") };
        // A reader pinned to a *newer* epoch with no invalidating write
        // in between coalesces: the epoch-0 row equals the epoch-2 row.
        let MissRoute::Waiter(w) = c.route_miss(5, 2) else {
            panic!("valid newer pin must coalesce")
        };
        // A delta touching node 5 mints epoch 3: readers at the new
        // epoch must re-compute, not consume the stale fill.
        c.invalidate_rows(3, &[5]);
        let MissRoute::Owner(owner2) = c.route_miss(5, 3) else {
            panic!("post-invalidation miss must re-compute")
        };
        c.fill(owner, &row(2, 1.0));
        assert_eq!(w.wait().unwrap().as_ref(), &[1.0, 1.0], "pre-bump waiter still served");
        // The stale fill was refused as a cache entry...
        let mut out = row(2, 0.0);
        assert!(!c.lookup(5, 3, &mut out));
        // ...while the re-computed one is admitted.
        c.fill(owner2, &row(2, 2.0));
        assert!(c.lookup(5, 3, &mut out));
        assert_eq!(out, row(2, 2.0));
        assert_eq!(c.metrics().inflight_rows, 0);
    }

    #[test]
    fn route_after_fill_is_resident_not_a_second_owner() {
        // The exactly-once race: a lookup misses, the in-flight fill
        // lands, then the routing call runs. It must return the
        // now-resident row, never register a second owner.
        let c = ResultCache::new(8, 2, CacheConfig::default());
        let MissRoute::Owner(owner) = c.route_miss(6, 0) else { panic!("owner") };
        c.fill(owner, &row(2, 9.0));
        match c.route_miss(6, 0) {
            MissRoute::Resident(r) => assert_eq!(r.as_ref(), &[9.0, 9.0]),
            _ => panic!("post-fill route must find the resident row"),
        }
        let m = c.metrics();
        assert_eq!(m.hits, 1, "the resident route counts as a late hit");
        assert_eq!(m.inflight_rows, 0);
        // A stale resident row (invalidated since) is not served.
        c.invalidate_rows(1, &[6]);
        match c.route_miss(6, 1) {
            MissRoute::Owner(o) => c.abort(o),
            _ => panic!("invalidated resident row must not be served"),
        }
    }

    #[test]
    fn abort_disconnects_waiters() {
        let c = ResultCache::new(4, 2, CacheConfig::default());
        let MissRoute::Owner(owner) = c.route_miss(1, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = c.route_miss(1, 0) else { panic!("waiter") };
        c.abort(owner);
        assert_eq!(w.poll(), Some(Err(FillAborted)));
        let mut out = row(2, 0.0);
        assert!(!c.lookup(1, 0, &mut out), "aborted computation inserted nothing");
        assert_eq!(c.metrics().inflight_rows, 0);
    }

    #[test]
    fn wait_deadline_times_out_then_resolves() {
        let c = std::sync::Arc::new(ResultCache::new(4, 2, CacheConfig::default()));
        let MissRoute::Owner(owner) = c.route_miss(2, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = c.route_miss(2, 0) else { panic!("waiter") };
        let deadline = Instant::now() + std::time::Duration::from_millis(5);
        assert_eq!(w.wait_deadline(deadline), None, "no fill before the deadline");
        c.fill(owner, &row(2, 4.0));
        let far = Instant::now() + std::time::Duration::from_secs(5);
        assert_eq!(w.wait_deadline(far).unwrap().unwrap().as_ref(), &[4.0, 4.0]);
    }

    #[test]
    fn subscribed_watcher_fires_on_fill_and_immediately_when_late() {
        use std::sync::atomic::AtomicUsize;
        let c = ResultCache::new(4, 2, CacheConfig::default());
        let MissRoute::Owner(owner) = c.route_miss(3, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = c.route_miss(3, 0) else { panic!("waiter") };
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        w.subscribe(Arc::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "nothing resolved yet");
        c.fill(owner, &row(2, 6.0));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "watcher fired on fill");
        // Subscribing after resolution fires at once.
        let f = Arc::clone(&fired);
        w.subscribe(Arc::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(w.poll().unwrap().unwrap().as_ref(), &[6.0, 6.0]);
    }

    #[test]
    fn concurrent_mixed_traffic_stays_consistent() {
        let c = std::sync::Arc::new(ResultCache::new(
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
