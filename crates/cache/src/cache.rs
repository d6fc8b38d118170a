//! The sharded, epoch-aware result cache (see the crate docs for the
//! validity contract).

use std::collections::hash_map::Entry as MapEntry;
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
    /// Where the entry's id sits in its segment's CLOCK ring.
    slot: usize,
    data: Box<[f32]>,
}

/// Deferred stat deltas from lock-held inserts.
#[derive(Default)]
struct InsertStats {
    /// Rows admitted (fresh or refresh); stale rows are refused.
    inserted: u64,
    /// New entries created (refreshes keep the footprint).
    grew: usize,
    /// Entries retired by CLOCK eviction to make room.
    evicted: usize,
}

/// One in-flight row computation another request may coalesce onto.
struct Inflight<W> {
    /// The owner's pinned epoch — the stamp the fill will carry.
    epoch: u64,
    /// Unique registration id, so an owner's completion can never
    /// resolve a different registration for the same node.
    token: u64,
    /// The coalesced waiters' handles, handed back when the owner
    /// resolves the registration.
    waiters: Vec<W>,
}

/// A node's in-flight registrations: the first held inline, so a node
/// with one (almost every node) allocates nothing for it; a second
/// appears only when an epoch bump invalidated the first mid-flight
/// (the stale one then completes waiter-less).
struct Registrations<W> {
    first: Inflight<W>,
    more: Vec<Inflight<W>>,
}

impl<W> Registrations<W> {
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Inflight<W>> {
        std::iter::once(&mut self.first).chain(&mut self.more)
    }
}

struct Segment<W> {
    map: HashMap<usize, Entry>,
    /// CLOCK ring of node ids, one slot per entry of `map`: an entry
    /// leaving — evicted, stale at a route or invalidated — takes its
    /// slot with it.
    ring: Vec<usize>,
    hand: usize,
    /// In-flight computations keyed by node.
    inflight: HashMap<usize, Registrations<W>>,
}

impl<W> Default for Segment<W> {
    fn default() -> Self {
        Segment { map: HashMap::new(), ring: Vec::new(), hand: 0, inflight: HashMap::new() }
    }
}

impl<W> Segment<W> {
    /// Admit a new entry for `node`, at the end of the ring.
    fn admit(&mut self, node: usize, epoch: u64, row: &[f32]) {
        let entry = Entry { epoch, referenced: false, slot: self.ring.len(), data: row.into() };
        self.map.insert(node, entry);
        self.ring.push(node);
    }

    /// Drop `node`'s entry and its ring slot, into which the ring's
    /// last id moves. False when `node` has no entry.
    fn remove(&mut self, node: usize) -> bool {
        let Some(entry) = self.map.remove(&node) else { return false };
        self.ring.swap_remove(entry.slot);
        if let Some(&moved) = self.ring.get(entry.slot) {
            self.map.get_mut(&moved).expect("every ring slot names an entry").slot = entry.slot;
        }
        true
    }

    /// Retire one resident entry CLOCK-style: referenced entries get a
    /// second chance (bit cleared, hand advances), unreferenced ones
    /// are evicted — within one sweep, which clears every bit it
    /// passes. Returns false only when the segment is empty.
    fn evict_one(&mut self) -> bool {
        while !self.ring.is_empty() {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let node = self.ring[self.hand];
            let entry = self.map.get_mut(&node).expect("every ring slot names an entry");
            if !entry.referenced {
                // The id swapped into the hand's slot is inspected next.
                return self.remove(node);
            }
            entry.referenced = false;
            self.hand += 1;
        }
        false
    }
}

/// Requests of up to this many ids sort their segment order on the
/// stack; a longer one allocates it.
const STACK_IDS: usize = 64;

/// The segment an item decided by [`ResultCache::by_segment`] names.
const DONE: usize = usize::MAX;

/// Owner-side handle of one in-flight row computation, registered by
/// [`ResultCache::route`]. Must be resolved with
/// [`ResultCache::resolve`]; an unresolved registration leaves its
/// waiters blocked until their deadline.
#[derive(Debug)]
#[must_use = "an owned registration must be resolved or its waiters hang"]
pub struct InflightOwner {
    node: usize,
    segment: usize,
    epoch: u64,
    token: u64,
}

impl InflightOwner {
    /// The node whose row this registration computes.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The lock stripe the registration lives in.
    pub fn segment(&self) -> usize {
        self.segment
    }
}

/// What one request's pass over the cache ([`ResultCache::route`])
/// left it to do.
#[derive(Debug, Default)]
#[must_use = "owned registrations must be resolved or their waiters hang"]
pub struct Route {
    /// `(position, node)` of every requested row the pass did not
    /// serve, grouped by segment.
    pub misses: Vec<(usize, usize)>,
    /// The computations this request was registered as the owner of,
    /// one per distinct node, sorted by node (none when the pass did
    /// not register).
    pub owners: Vec<InflightOwner>,
}

/// A sharded, lock-striped, epoch-aware cache of computed embedding
/// rows. See the crate docs for the validity contract; see
/// [`CacheConfig`] for sizing.
///
/// `W` is the handle a coalesced miss registers with an in-flight
/// computation ([`ResultCache::route`]); the owner's
/// [`resolve`](ResultCache::resolve) hands the handles back, so what a
/// waiter waits on is the caller's choice.
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
    /// Segment lock acquisitions, for the tests that count them.
    #[cfg(test)]
    locks: AtomicU64,
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
            #[cfg(test)]
            locks: AtomicU64::new(0),
        }
    }

    /// The lock stripe `node`'s entry lives in.
    pub fn segment_of(&self, node: usize) -> usize {
        node % self.segments.len()
    }

    /// Hand each run of `items` that names one segment (`segment` reads
    /// the name) to `decide`, under that segment's lock, one lock at a
    /// time: first every run whose segment no other thread holds, then
    /// the rest, waiting for each, so a thread rarely sleeps on a stripe
    /// while another is free. A decided run's items are renamed
    /// [`DONE`].
    fn by_segment<T>(
        &self,
        items: &mut [T],
        segment: impl Fn(&mut T) -> &mut usize,
        mut decide: impl FnMut(&mut Segment<W>, &mut [T]),
    ) {
        for wait in [false, true] {
            let mut rest = &mut items[..];
            while let Some(first) = rest.first_mut() {
                let name = *segment(first);
                let len = rest.iter_mut().position(|t| *segment(t) != name).unwrap_or(rest.len());
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                if name == DONE {
                    continue;
                }
                let mutex = &self.segments[name];
                let Some(mut seg) = (if wait { Some(mutex.lock()) } else { mutex.try_lock() })
                else {
                    continue;
                };
                #[cfg(test)]
                self.locks.fetch_add(1, Ordering::Relaxed);
                decide(&mut seg, run);
                drop(seg);
                run.iter_mut().for_each(|t| *segment(t) = DONE);
            }
        }
    }

    /// A row stamped `stamp` is stale for every reader: a publish or a
    /// delta touch of `node` landed after it was computed.
    fn stale(&self, node: usize, stamp: u64) -> bool {
        stamp < self.flush_epoch.load(Ordering::Acquire)
            || stamp < self.last_touch[node].load(Ordering::Acquire)
    }

    fn valid(&self, node: usize, stamp: u64, pinned: u64) -> bool {
        stamp <= pinned && !self.stale(node, stamp)
    }

    /// One request's pass over the cache at pinned epoch `pinned` (see
    /// the crate docs): every id of `nodes` (any order, repeats allowed)
    /// is decided under its segment's lock, taken once per touched
    /// segment. A hit is copied into every row of `out` (`nodes.len()`
    /// rows of `d`, in request order) whose id is that node. With a
    /// `waiter`, a miss coalesces onto an equivalent computation in
    /// flight — `waiter(node)` runs under the lock, so it must not call
    /// back into the cache — or registers this request as the owner;
    /// without one (a cache-only read) misses are only reported. Counts
    /// one hit or miss per requested row and records the request's hit
    /// ratio.
    ///
    /// # Panics
    /// Panics when an id is `>= nvertices` or `out.len() != nodes.len() * d`.
    pub fn route(
        &self,
        nodes: &[usize],
        pinned: u64,
        out: &mut [f32],
        mut waiter: Option<&mut dyn FnMut(usize) -> W>,
    ) -> Route {
        assert_eq!(out.len(), nodes.len() * self.d, "one output row per requested node");
        // Each position tagged with its node's segment, once, then
        // sorted so that a segment's ids, and a node's repeats, are
        // adjacent.
        let mut stack = [(0, 0); STACK_IDS];
        let mut heap = Vec::new();
        let order = if nodes.len() <= STACK_IDS {
            &mut stack[..nodes.len()]
        } else {
            heap.resize(nodes.len(), (0, 0));
            &mut heap[..]
        };
        for (slot, (pos, &node)) in order.iter_mut().zip(nodes.iter().enumerate()) {
            assert!(node < self.nvertices, "node {node} outside cache range {}", self.nvertices);
            *slot = (self.segment_of(node), pos);
        }
        order.sort_unstable_by_key(|&(segment, pos)| (segment, nodes[pos]));
        let mut route = Route::default();
        let (mut hits, mut stale, mut coalesced) = (0, 0, 0);
        self.by_segment(
            order,
            |slot| &mut slot.0,
            |seg, run| {
                let segment = run[0].0;
                for ids in run.chunk_by(|a, b| nodes[a.1] == nodes[b.1]) {
                    let node = nodes[ids[0].1];
                    if let Some(e) = seg.map.get_mut(&node) {
                        if self.valid(node, e.epoch, pinned) {
                            e.referenced = true;
                            for &(_, pos) in ids {
                                out[pos * self.d..][..self.d].copy_from_slice(&e.data);
                            }
                            hits += ids.len();
                            continue;
                        }
                        // Stale for every reader: reclaim it now. An entry
                        // newer than this reader's pin stays.
                        if self.stale(node, e.epoch) {
                            seg.remove(node);
                            stale += 1;
                        }
                    }
                    if route.misses.is_empty() {
                        route.misses.reserve_exact(nodes.len() - hits);
                    }
                    route.misses.extend(ids.iter().map(|&(_, pos)| (pos, node)));
                    let Some(waiter) = waiter.as_mut() else { continue };
                    let token = match seg.inflight.entry(node) {
                        MapEntry::Occupied(r) => {
                            let r = r.into_mut();
                            if let Some(e) =
                                r.iter_mut().find(|e| self.valid(node, e.epoch, pinned))
                            {
                                e.waiters.push(waiter(node));
                                coalesced += 1;
                                continue;
                            }
                            let owned = self.registration(pinned);
                            let token = owned.token;
                            r.more.push(owned);
                            token
                        }
                        MapEntry::Vacant(slot) => {
                            let first = self.registration(pinned);
                            slot.insert(Registrations { first, more: Vec::new() }).first.token
                        }
                    };
                    if route.owners.is_empty() {
                        route.owners.reserve_exact(nodes.len() - hits);
                    }
                    route.owners.push(InflightOwner { node, segment, epoch: pinned, token });
                }
            },
        );
        self.stats.hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.stats.misses.fetch_add(route.misses.len() as u64, Ordering::Relaxed);
        self.stats.coalesced_misses.fetch_add(coalesced, Ordering::Relaxed);
        for _ in &route.owners {
            self.stats.inflight.inc();
        }
        self.dropped(stale);
        self.stats.hit_ratio.record_fraction(hits as u64, nodes.len() as u64);
        route.owners.sort_unstable_by_key(|o| o.node);
        route
    }

    /// Resolve owned registrations: an owner `row` gives a row for
    /// fills (inserted unless an invalidation for a newer epoch landed
    /// first), one it gives none for aborts. Each run of `owners` in one
    /// segment takes one lock, so owners grouped by
    /// [`InflightOwner::segment`] take one per segment; the removal and
    /// the insert share it, so a concurrent [`ResultCache::route`] finds
    /// the row in flight or resident, never in between.
    ///
    /// Returns each coalesced waiter's handle with its owner's row
    /// (`None`: aborted), after the last lock drops, so whatever
    /// releasing one does runs outside it. A fill raced by an
    /// invalidation still serves its waiters, whose pins pre-date it; a
    /// registration already resolved has no handles left.
    ///
    /// # Panics
    /// Panics when a row's length is not `d`.
    pub fn resolve<'r>(
        &self,
        mut owners: Vec<InflightOwner>,
        row: impl Fn(&InflightOwner) -> Option<&'r [f32]>,
    ) -> Vec<(W, Option<&'r [f32]>)> {
        let (mut handed, mut resolved, mut tally) = (Vec::new(), 0, InsertStats::default());
        self.by_segment(
            &mut owners,
            |owner| &mut owner.segment,
            |seg, run| {
                for owner in run {
                    let row = row(owner);
                    if let Some(row) = row {
                        assert_eq!(row.len(), self.d, "row slice must hold one row");
                        self.insert_locked(seg, owner.node, owner.epoch, row, &mut tally);
                    }
                    if let Some(waiters) = Self::take_inflight_locked(seg, owner) {
                        resolved += 1;
                        handed.extend(waiters.into_iter().map(|w| (w, row)));
                    }
                }
            },
        );
        self.apply_insert_stats(tally);
        for _ in 0..resolved {
            self.stats.inflight.dec();
        }
        handed
    }

    /// The insert body, run under the caller-held segment lock, with
    /// stat deltas deferred to `tally` (atomics are not touched while
    /// locked). Rows already known stale (an invalidation for a newer
    /// epoch landed first) are not admitted — that is what makes a
    /// concurrent compute-from-old-epoch / delta-update race safe.
    fn insert_locked(
        &self,
        seg: &mut Segment<W>,
        node: usize,
        epoch: u64,
        row: &[f32],
        tally: &mut InsertStats,
    ) {
        if self.stale(node, epoch) {
            return;
        }
        if let Some(e) = seg.map.get_mut(&node) {
            // A straggler's older row never downgrades a newer entry —
            // and a refused refresh is not an insert.
            if epoch < e.epoch {
                return;
            }
            e.epoch = epoch;
            e.referenced = true;
            e.data.copy_from_slice(row);
        } else {
            while seg.map.len() >= self.seg_cap {
                if !seg.evict_one() {
                    break;
                }
                tally.evicted += 1;
            }
            seg.admit(node, epoch, row);
            tally.grew += 1;
        }
        tally.inserted += 1;
    }

    fn apply_insert_stats(&self, tally: InsertStats) {
        self.stats.entries.fetch_add(tally.grew, Ordering::Relaxed);
        self.stats.bytes.fetch_add(tally.grew * self.row_bytes, Ordering::Relaxed);
        self.stats.evictions.fetch_add(tally.evicted as u64, Ordering::Relaxed);
        self.dropped(tally.evicted);
        self.stats.inserts.fetch_add(tally.inserted, Ordering::Relaxed);
    }

    /// Count `rows` resident entries out of the footprint.
    fn dropped(&self, rows: usize) {
        self.stats.entries.fetch_sub(rows, Ordering::Relaxed);
        self.stats.bytes.fetch_sub(rows * self.row_bytes, Ordering::Relaxed);
    }

    /// A new registration for an owner pinned at `epoch`, with a token
    /// of its own.
    fn registration(&self, epoch: u64) -> Inflight<W> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        Inflight { epoch, token, waiters: Vec::new() }
    }

    /// Remove `owner`'s registration under the caller-held lock,
    /// returning its waiters — `None` when it was already resolved.
    fn take_inflight_locked(seg: &mut Segment<W>, owner: &InflightOwner) -> Option<Vec<W>> {
        let registrations = seg.inflight.get_mut(&owner.node)?;
        let entry = if registrations.first.token == owner.token {
            match registrations.more.pop() {
                Some(last) => std::mem::replace(&mut registrations.first, last),
                None => seg.inflight.remove(&owner.node)?.first,
            }
        } else {
            let more = &mut registrations.more;
            more.swap_remove(more.iter().position(|e| e.token == owner.token)?)
        };
        Some(entry.waiters)
    }

    /// A publish minted `epoch`: lazily invalidate every entry stamped
    /// earlier (O(1) — the stamp comparison of a route does the work).
    /// Must be called before any reader can pin `epoch`.
    pub fn invalidate_all(&self, epoch: u64) {
        self.flush_epoch.fetch_max(epoch, Ordering::AcqRel);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// A delta update minted `epoch` with dependency touch set `rows`
    /// (the patched vertices and their in-neighbors): precisely retire
    /// exactly those rows — resident entries are dropped eagerly, one
    /// lock per touched segment, and the per-vertex floor, raised
    /// before any lock is taken, blocks stale re-inserts racing this
    /// call. Ids outside the cache's vertex range are ignored (a
    /// rectangular graph may patch Y rows beyond the output row space).
    /// Must be called before any reader can pin `epoch`.
    pub fn invalidate_rows(&self, epoch: u64, rows: &[usize]) {
        let mut order: Vec<(usize, usize)> = rows
            .iter()
            .filter(|&&node| node < self.nvertices)
            .map(|&node| (self.segment_of(node), node))
            .collect();
        order.sort_unstable();
        for &(_, node) in &order {
            self.last_touch[node].fetch_max(epoch, Ordering::AcqRel);
        }
        let mut dropped = 0;
        self.by_segment(
            &mut order,
            |slot| &mut slot.0,
            |seg, run| {
                dropped += run.iter().filter(|&&(_, node)| seg.remove(node)).count();
            },
        );
        self.stats.invalidated_rows.fetch_add(dropped as u64, Ordering::Relaxed);
        self.dropped(dropped);
    }

    /// Point-in-time statistics.
    pub fn metrics(&self) -> CacheMetrics {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn row(d: usize, v: f32) -> Vec<f32> {
        vec![v; d]
    }

    /// A cache at the default sizing whose waiters are tagged by number.
    fn cache(nvertices: usize, d: usize) -> ResultCache<u32> {
        ResultCache::new(nvertices, d, CacheConfig::default())
    }

    /// A waiter for a route that must not coalesce.
    fn no_waiter(_: usize) -> u32 {
        panic!("this miss must not coalesce")
    }

    /// One segment of `rows` rows, so eviction is deterministic.
    fn tiny(nvertices: usize, d: usize, rows: usize) -> ResultCache<u32> {
        let config = CacheConfig { byte_budget: rows * (4 * d + ENTRY_OVERHEAD), segments: 1 };
        ResultCache::new(nvertices, d, config)
    }

    /// `node`'s row valid at `pinned`, read without registering.
    fn get(c: &ResultCache<u32>, node: usize, pinned: u64) -> Option<Vec<f32>> {
        let mut out = row(c.d, f32::NAN);
        let route = c.route(&[node], pinned, &mut out, None);
        route.misses.is_empty().then_some(out)
    }

    /// Route a miss on `node` that must own its computation.
    fn own(c: &ResultCache<u32>, node: usize, pinned: u64) -> InflightOwner {
        let mut out = row(c.d, 0.0);
        let mut route = c.route(&[node], pinned, &mut out, Some(&mut no_waiter));
        assert_eq!(route.misses, [(0, node)], "an owned row is a miss");
        route.owners.pop().expect("the miss owns its computation")
    }

    /// Route a miss on `node` that must coalesce, registering `tag`.
    fn wait(c: &ResultCache<u32>, node: usize, pinned: u64, tag: u32) {
        let mut out = row(c.d, 0.0);
        let route = c.route(&[node], pinned, &mut out, Some(&mut |_| tag));
        assert!(route.owners.is_empty(), "the miss must coalesce");
        assert_eq!(route.misses, [(0, node)]);
    }

    /// Resolve `owner` with a row of `v`s: the waiters' tags.
    fn fill(c: &ResultCache<u32>, owner: InflightOwner, v: f32) -> Vec<u32> {
        let r = row(c.d, v);
        c.resolve(vec![owner], |_| Some(&r)).into_iter().map(|(w, _)| w).collect()
    }

    /// Own `node`'s row at `epoch` and fill it with `v`s.
    fn put(c: &ResultCache<u32>, node: usize, epoch: u64, v: f32) {
        assert!(fill(c, own(c, node, epoch), v).is_empty());
    }

    #[test]
    fn roundtrip_hit_and_absent_miss() {
        let c = cache(10, 4);
        assert_eq!(get(&c, 3, 0), None);
        put(&c, 3, 0, 1.5);
        assert_eq!(get(&c, 3, 0), Some(row(4, 1.5)));
        let m = c.metrics();
        assert_eq!((m.hits, m.misses, m.inserts, m.entries), (1, 2, 1, 1));
        assert!(m.bytes > 0);
        assert_eq!(m.hit_ratio.count, 3, "one ratio observation per request");
    }

    #[test]
    fn publish_invalidates_everything_lazily() {
        let c = cache(4, 2);
        put(&c, 0, 0, 1.0);
        put(&c, 1, 0, 2.0);
        c.invalidate_all(1);
        assert_eq!(get(&c, 0, 1), None, "pre-publish entry is stale");
        assert_eq!(get(&c, 1, 1), None);
        // Fresh rows at the new epoch hit again.
        put(&c, 0, 1, 3.0);
        assert_eq!(get(&c, 0, 1), Some(row(2, 3.0)));
        assert_eq!(c.metrics().flushes, 1);
    }

    #[test]
    fn delta_invalidation_is_precise() {
        let c = cache(6, 2);
        for u in 0..6 {
            put(&c, u, 0, u as f32);
        }
        // Delta at epoch 1 touches {1, 4}: only those rows retire.
        c.invalidate_rows(1, &[1, 4]);
        for u in [0usize, 2, 3, 5] {
            assert_eq!(get(&c, u, 1), Some(row(2, u as f32)), "untouched row {u} survives");
        }
        assert_eq!((get(&c, 1, 1), get(&c, 4, 1)), (None, None));
        let m = c.metrics();
        assert_eq!((m.invalidated_rows, m.entries), (2, 4));
    }

    #[test]
    fn stale_fill_after_delta_is_rejected() {
        let c = cache(4, 2);
        // A request owns node 2's row at epoch 0; before its fill lands,
        // a delta touching node 2 mints epoch 1.
        let owner = own(&c, 2, 0);
        c.invalidate_rows(1, &[2]);
        assert!(fill(&c, owner, 9.0).is_empty());
        assert_eq!(get(&c, 2, 1), None, "stale row from before the delta must not serve");
        // The epoch-1 recompute is admitted.
        put(&c, 2, 1, 10.0);
        assert_eq!(get(&c, 2, 1), Some(row(2, 10.0)));
    }

    #[test]
    fn old_reader_never_sees_a_newer_row() {
        let c = cache(4, 2);
        put(&c, 1, 5, 5.0);
        // A reader still pinned to epoch 3 must recompute, not read the
        // epoch-5 row — and the newer entry must survive.
        assert_eq!(get(&c, 1, 3), None);
        assert_eq!(get(&c, 1, 5), Some(row(2, 5.0)));
    }

    #[test]
    fn clock_eviction_respects_budget_and_second_chance() {
        let c = tiny(100, 4, 3);
        put(&c, 0, 0, 0.0);
        put(&c, 1, 0, 1.0);
        put(&c, 2, 0, 2.0);
        // Touch node 0 so its second-chance bit protects it.
        assert!(get(&c, 0, 0).is_some());
        // Inserting a fourth row must evict an *unreferenced* one.
        put(&c, 3, 0, 3.0);
        let m = c.metrics();
        assert_eq!((m.entries, m.evictions), (3, 1));
        assert!(get(&c, 0, 0).is_some(), "recently-hit row survives the clock");
        assert!(get(&c, 3, 0).is_some(), "new row is resident");
    }

    /// Every segment's ring holds exactly its resident entries, each id
    /// at the slot its entry records.
    fn assert_rings_match(c: &ResultCache<u32>) {
        for seg in &c.segments {
            let seg = seg.lock();
            assert_eq!(seg.ring.len(), seg.map.len(), "one ring slot per entry");
            for (slot, node) in seg.ring.iter().enumerate() {
                assert_eq!(seg.map[node].slot, slot, "node {node}'s entry names its slot");
            }
        }
    }

    #[test]
    fn an_under_budget_cache_refilled_after_every_invalidation_keeps_one_slot_per_entry() {
        let c = cache(64, 2);
        let refill = |epoch: u64| {
            for node in 0..64 {
                if get(&c, node, epoch).is_none() {
                    put(&c, node, epoch, epoch as f32);
                }
            }
            assert_rings_match(&c);
        };
        let evens: Vec<usize> = (0..64).step_by(2).collect();
        for cycle in 1..=64u64 {
            // A publish: the stale rows leave at the refill's routes.
            c.invalidate_all(2 * cycle);
            refill(2 * cycle);
            // A delta: its rows leave at once.
            c.invalidate_rows(2 * cycle + 1, &evens);
            refill(2 * cycle + 1);
        }
        assert_eq!(c.metrics().evictions, 0, "the cache never filled");
        let resident: usize = c.segments.iter().map(|s| s.lock().map.len()).sum();
        assert_eq!(resident, 64);
    }

    #[test]
    fn eviction_after_invalidation_finds_no_orphaned_slot() {
        let c = tiny(100, 4, 2);
        put(&c, 0, 0, 0.0);
        put(&c, 1, 0, 1.0);
        // Invalidate both (their slots leave with them), then fill the
        // cache again — the clock evicts among resident rows only.
        c.invalidate_rows(1, &[0, 1]);
        assert_rings_match(&c);
        put(&c, 2, 1, 2.0);
        put(&c, 3, 1, 3.0);
        put(&c, 4, 1, 4.0);
        assert!(get(&c, 4, 1).is_some());
        assert_eq!(c.metrics().entries, 2);
        assert_rings_match(&c);
    }

    #[test]
    fn refresh_overwrites_in_place_without_growth() {
        let c = tiny(10, 2, 4);
        // Readers pinned to epochs 2, 1 and 0 each own node 7's row: a
        // computation stamped newer than a reader's pin is not its row.
        let (at2, at1, at0) = (own(&c, 7, 2), own(&c, 7, 1), own(&c, 7, 0));
        fill(&c, at0, 0.0);
        fill(&c, at2, 2.0);
        // An older stamp never downgrades a newer entry.
        fill(&c, at1, 1.0);
        assert_eq!(get(&c, 7, 2), Some(row(2, 2.0)));
        let m = c.metrics();
        assert_eq!(m.entries, 1);
        assert_eq!(m.inserts, 2, "the refused stale refresh is not counted as an insert");
    }

    #[test]
    fn second_miss_coalesces_and_is_backfilled() {
        let c = cache(8, 2);
        let owner = own(&c, 3, 0);
        wait(&c, 3, 0, 1);
        wait(&c, 3, 0, 2);
        assert_eq!(fill(&c, owner, 7.0), vec![1, 2], "the fill hands back both waiters");
        // The fill also landed as a cache entry.
        assert_eq!(get(&c, 3, 0), Some(row(2, 7.0)));
        let m = c.metrics();
        assert_eq!(m.coalesced_misses, 2);
        assert_eq!(m.inflight_rows, 0, "registration resolved");
        assert_eq!(m.inflight_peak_rows, 1);
    }

    #[test]
    fn coalescing_spans_epochs_only_while_valid() {
        let c = cache(8, 2);
        let owner = own(&c, 5, 0);
        // A reader pinned to a *newer* epoch with no invalidating write
        // in between coalesces: the epoch-0 row equals the epoch-2 row.
        wait(&c, 5, 2, 1);
        // A delta touching node 5 mints epoch 3: readers at the new
        // epoch must re-compute, not consume the stale fill.
        c.invalidate_rows(3, &[5]);
        let owner2 = own(&c, 5, 3);
        assert_eq!(fill(&c, owner, 1.0), vec![1], "pre-bump waiter still served");
        // The stale fill was refused as a cache entry...
        assert_eq!(get(&c, 5, 3), None);
        // ...while the re-computed one is admitted.
        assert!(fill(&c, owner2, 2.0).is_empty());
        assert_eq!(get(&c, 5, 3), Some(row(2, 2.0)));
        assert_eq!(c.metrics().inflight_rows, 0);
    }

    /// Three registrations of one node, each invalidated by the next
    /// epoch: the inline first and the spilled ones resolve in any
    /// order, each handing back only its own waiters.
    #[test]
    fn a_node_s_registrations_resolve_in_any_order() {
        let c = cache(8, 2);
        let first = own(&c, 5, 0);
        wait(&c, 5, 0, 10);
        c.invalidate_rows(1, &[5]);
        let second = own(&c, 5, 1);
        wait(&c, 5, 1, 11);
        c.invalidate_rows(2, &[5]);
        let third = own(&c, 5, 2);
        wait(&c, 5, 2, 12);
        assert_eq!(c.metrics().inflight_rows, 3);
        assert_eq!(fill(&c, second, 1.0), vec![11], "a spilled one");
        assert_eq!(fill(&c, first, 1.0), vec![10], "the inline one, with one spilled left");
        assert_eq!(fill(&c, third, 3.0), vec![12], "the last");
        assert_eq!(c.metrics().inflight_rows, 0);
        assert_eq!(get(&c, 5, 2), Some(row(2, 3.0)));
    }

    #[test]
    fn a_route_after_a_fill_hits_and_never_registers_a_second_owner() {
        let c = cache(8, 2);
        let owner = own(&c, 6, 0);
        assert!(fill(&c, owner, 9.0).is_empty());
        // Registration on, the node twice: both rows hit, nothing is
        // registered.
        let mut out = row(4, 0.0);
        let route = c.route(&[6, 6], 0, &mut out, Some(&mut no_waiter));
        assert!(route.misses.is_empty() && route.owners.is_empty());
        assert_eq!(out, row(4, 9.0));
        let m = c.metrics();
        assert_eq!((m.hits, m.misses), (2, 1), "one hit per requested row");
        assert_eq!(m.inflight_rows, 0);
        // A stale resident row (invalidated since) is not served.
        c.invalidate_rows(1, &[6]);
        assert!(c.resolve(vec![own(&c, 6, 1)], |_| None).is_empty());
    }

    #[test]
    fn a_route_without_a_waiter_reports_misses_and_registers_nothing() {
        let c = cache(8, 2);
        let owner = own(&c, 2, 0);
        let mut out = row(6, f32::NAN);
        let route = c.route(&[2, 5, 2], 0, &mut out, None);
        let mut misses = route.misses.clone();
        misses.sort_unstable();
        assert_eq!(misses, [(0, 2), (1, 5), (2, 2)], "in flight and absent rows both miss");
        assert!(route.owners.is_empty());
        let m = c.metrics();
        assert_eq!((m.coalesced_misses, m.inflight_rows), (0, 1), "only the owner registered");
        assert!(fill(&c, owner, 1.0).is_empty(), "no waiter rode the read");
    }

    #[test]
    fn abort_hands_back_its_waiters_and_inserts_nothing() {
        let c = cache(4, 2);
        let owner = own(&c, 1, 0);
        wait(&c, 1, 0, 4);
        let again = InflightOwner { ..owner };
        assert_eq!(c.resolve(vec![owner], |_| None), vec![(4, None)]);
        assert_eq!(get(&c, 1, 0), None, "aborted computation inserted nothing");
        assert_eq!(c.metrics().inflight_rows, 0);
        // Resolving the same registration again is a no-op: no waiter
        // comes back twice and the gauge does not go below zero.
        assert!(c.resolve(vec![again], |_| None).is_empty());
        assert_eq!(c.metrics().inflight_rows, 0);
    }

    #[test]
    fn a_request_locks_each_segment_it_touches_once_to_route_and_once_to_fill() {
        let c = cache(256, 2);
        let locks = || c.locks.load(Ordering::Relaxed);
        // Resident: the even nodes below 32. In flight for another
        // request: 32, 34, 36 and 38.
        for u in (0..32).step_by(2) {
            put(&c, u, 0, u as f32);
        }
        let mut out = row(8, 0.0);
        let elsewhere = c.route(&[32, 34, 36, 38], 0, &mut out, Some(&mut no_waiter)).owners;
        // 64 ids over the 8 even segments, interleaved: 24 hits (8
        // repeats), 16 coalesced misses (4 nodes, 4 times each) and 24
        // owned misses (16 nodes in segments 0, 4, 8 and 12; 8 repeats).
        let hits = (0..32).step_by(2).chain((0..16).step_by(2));
        let owned = (48..112).step_by(4).chain((48..80).step_by(4));
        let grouped: Vec<usize> = hits.chain([32, 34, 36, 38].repeat(4)).chain(owned).collect();
        let ids: Vec<usize> = (0..64).map(|k| grouped[k * 37 % 64]).collect();
        let touched: BTreeSet<usize> = ids.iter().map(|&u| c.segment_of(u)).collect();
        assert_eq!(touched.len(), 8);

        let (mut out, mut tags) = (row(64 * 2, f32::NAN), 0);
        let before = locks();
        let mut waiter = |_| {
            tags += 1;
            tags
        };
        let route = c.route(&ids, 0, &mut out, Some(&mut waiter));
        let route_locks = locks() - before;
        assert_eq!(route_locks, 8, "one lock per segment the ids touch");
        assert_eq!((route.misses.len(), route.owners.len(), tags), (40, 16, 4));
        assert_eq!((c.metrics().hits, c.metrics().coalesced_misses), (24, 4));
        for (pos, &u) in ids.iter().enumerate().filter(|&(_, &u)| u < 32) {
            assert_eq!(out[2 * pos..2 * pos + 2], [u as f32; 2], "the hit at {pos}");
        }
        assert!(route.owners.windows(2).all(|w| w[0].node() < w[1].node()), "sorted by node");

        let mut owners = route.owners;
        owners.sort_by_key(InflightOwner::segment);
        let (r, before) = (row(2, 1.0), locks());
        assert!(c.resolve(owners, |_| Some(&r)).is_empty());
        let fill_locks = locks() - before;
        assert_eq!(fill_locks, 4, "one lock per segment the owners touch");
        assert!(route_locks + fill_locks <= 2 * touched.len() as u64);

        let mut rows = ids.clone();
        rows.sort_unstable();
        rows.dedup();
        let before = locks();
        c.invalidate_rows(1, &rows);
        assert_eq!(locks() - before, 8, "one lock per touched segment");
        assert_eq!(c.resolve(elsewhere, |_| None).len(), 4, "every waiter comes back");
    }

    #[test]
    fn concurrent_mixed_traffic_stays_consistent() {
        const THREADS: u64 = 4;
        const REQUESTS: u64 = 300;
        const IDS: usize = 16;
        let config = CacheConfig { byte_budget: 40 * (4 * 8 + ENTRY_OVERHEAD), segments: 4 };
        let c = ResultCache::<u64>::new(64, 8, config);
        // The waiter handles minted, and the ones resolutions handed back.
        let (minted, registered, returned) =
            (AtomicU64::new(0), Mutex::new(vec![]), Mutex::new(vec![]));
        // Every owner fills its node's row but those of every fifth
        // node, which abort.
        let rows: Vec<Vec<f32>> = (0..64).map(|u| vec![u as f32; 8]).collect();
        let resolve = |owners: Vec<InflightOwner>| {
            let row =
                |o: &InflightOwner| (!o.node().is_multiple_of(5)).then_some(&rows[o.node()][..]);
            returned.lock().extend(c.resolve(owners, row).into_iter().map(|(w, _)| w));
        };
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (c, minted, registered, resolve) = (&c, &minted, &registered, &resolve);
                s.spawn(move || {
                    let (mut out, mut pending) = (vec![f32::NAN; IDS * 8], Vec::new());
                    for i in 0..REQUESTS {
                        let epoch = i / 100;
                        if i % 50 == 25 {
                            c.invalidate_rows(epoch, &[(t * 17 + i) as usize % 64]);
                        }
                        // Each id twice; 7 of a request's 8 nodes are the
                        // last request's, still in flight.
                        let base = t * 17 + i * 5;
                        let ids: Vec<usize> =
                            (0..IDS as u64).map(|k| ((base + k / 2 * 5) % 64) as usize).collect();
                        let mut waiter = |_| {
                            let h = minted.fetch_add(1, Ordering::Relaxed);
                            registered.lock().push(h);
                            h
                        };
                        let route = c.route(&ids, epoch, &mut out, Some(&mut waiter));
                        for (pos, &u) in ids.iter().enumerate() {
                            if route.misses.iter().all(|&(p, _)| p != pos) {
                                assert_eq!(out[8 * pos..8 * pos + 8], [u as f32; 8], "a hit's row");
                            }
                        }
                        resolve(std::mem::replace(&mut pending, route.owners));
                    }
                    resolve(pending);
                });
            }
        });
        let m = c.metrics();
        assert_eq!(m.hits + m.misses, THREADS * REQUESTS * IDS as u64, "one count per id");
        assert_eq!(m.inflight_rows, 0, "every registration resolved");
        assert!(m.entries <= 40);
        let (mut registered, mut returned) = (registered.into_inner(), returned.into_inner());
        registered.sort_unstable();
        returned.sort_unstable();
        assert!(!registered.is_empty(), "requests coalesced onto in-flight rows");
        assert_eq!(registered, returned, "every waiter handle comes back exactly once");
    }
}
