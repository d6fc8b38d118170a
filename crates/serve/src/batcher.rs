//! Micro-batching: coalesce the node-subset parts queued on one band
//! into one deduplicated row batch per drain.
//!
//! A `BatchQueue` holds `Pending` parts and an `executing` flag under
//! one mutex, and whichever thread needs one of the band's results runs
//! the queued batches itself (flat combining): the first to find the
//! flag clear becomes the **combiner** — it takes the sorted union of
//! each batch's nodes, runs the row-subset kernel once and hands each
//! part its rows — and clears the flag under that mutex: when it sees
//! the queue empty, so a part pushed meanwhile rides it, or when the
//! combiner stops early because its own caller is answered. A thread
//! that finds the flag held parks registered with the queue; a push
//! finding no combiner, or a combiner leaving work behind, wakes it.
//!
//! A drain siphons parts whose deadline passed (failed typed, no kernel
//! time) and parts nobody can receive any more, and the queue tracks
//! its total queued rows so the admission policy can bound the backlog.
//! The drain, the per-epoch grouping and the union work in buffers the
//! queue keeps and lends to its combiner: a warm queue allocates
//! nothing per drain.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fusedmm_perf::trace::SpanCtx;
use fusedmm_sparse::dense::Dense;

use crate::store::FeatureEpoch;
use crate::ticket::Quality;
use crate::transport::PartSlot;
use crate::wait::Watcher;

/// One enqueued part of an embedding request.
pub(crate) struct Pending {
    /// Requested node ids, sorted and distinct — the list the request's
    /// part holds, shared.
    pub nodes: Arc<[usize]>,
    /// The feature epoch pinned at request begin: the whole response
    /// is computed from this snapshot, never torn across a publish.
    pub epoch: Arc<FeatureEpoch>,
    /// Where the rows go: the ticket's reply slot plus the in-flight
    /// cache registrations this part owns (`fills[i]` ↔ `nodes[i]`),
    /// completed before the reply. Dropping it unresolved reads as
    /// engine shutdown on the caller side and aborts the registrations.
    pub slot: PartSlot,
    /// The request's enqueue-span context when it was sampled for
    /// tracing: the combiner parents its batch/kernel/cache-fill spans
    /// under it (recorded per sampled request, so each owns a complete
    /// tree). `None` for unsampled requests — every span site
    /// downstream short-circuits.
    pub trace: Option<SpanCtx>,
    /// Drop (and resolve `PartOutcome::Expired`) instead of computing
    /// past this instant.
    pub deadline: Option<Instant>,
    /// The answer tier: decides which kernel the combiner launches.
    /// Requests of different tiers never share a launch.
    pub quality: Quality,
}

impl Pending {
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// A landed part on its way to its reply: its nodes, its slot and its
/// trace context — and no longer its pinned epoch.
pub(crate) type Reply = (Arc<[usize]>, PartSlot, Option<SpanCtx>);

/// The buffers a queue lends its combiner. After a drain, `batch` holds
/// the launchable parts, `expired` the parts whose deadline passed
/// while queued (to be failed without kernel time) and `abandoned` the
/// parts whose ticket was dropped and whose rows nobody else waits on
/// (to be dropped uncomputed); `group`, `union` and `replies` are the
/// launch's working space.
#[derive(Default)]
pub(crate) struct Buffers {
    pub batch: Vec<Pending>,
    pub expired: Vec<Pending>,
    pub abandoned: Vec<Pending>,
    pub group: Vec<Pending>,
    pub union: Vec<usize>,
    pub replies: Vec<Reply>,
}

impl Buffers {
    /// Empty every buffer, keeping its capacity.
    fn clear(&mut self) {
        self.batch.clear();
        self.expired.clear();
        self.abandoned.clear();
        self.group.clear();
        self.union.clear();
        self.replies.clear();
    }
}

struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
    /// Set while one thread — the combiner — runs this queue's batches.
    executing: bool,
    /// Waiters parked on this queue, woken when it has work and no
    /// combiner. A waiter that moved on leaves a dead entry, pruned at
    /// the next registration.
    parked: Vec<Watcher>,
    /// The combiner's buffers, home while nobody combines.
    buffers: Buffers,
}

impl QueueState {
    /// Wake every parked waiter if this queue has work and no combiner.
    /// A kick only sets a flag and notifies a condvar, and no waiter
    /// holds its own lock while taking a queue's, so firing under this
    /// lock cannot deadlock — and the list keeps its capacity.
    fn wake_if_idle(&mut self) {
        if !self.executing && !self.pending.is_empty() {
            self.parked.drain(..).for_each(|w| w.fire());
        }
    }
}

/// A band's work queue: a FIFO of [`Pending`] parts, the combiner flag
/// and the parked waiters under one mutex, plus the total queued rows
/// (the admission policy's backlog signal).
pub(crate) struct BatchQueue {
    state: Mutex<QueueState>,
    /// Total `nodes.len()` across queued requests. Kept as a separate
    /// atomic so admission can read it without taking the queue lock.
    rows: AtomicUsize,
}

impl BatchQueue {
    pub fn new() -> Self {
        let state = QueueState {
            pending: VecDeque::new(),
            shutdown: false,
            executing: false,
            parked: vec![],
            buffers: Buffers::default(),
        };
        BatchQueue { state: Mutex::new(state), rows: AtomicUsize::new(0) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total requested rows currently queued (admission's backlog
    /// signal; monotonic observations only — the queue may drain
    /// concurrently).
    pub fn queued_rows(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Enqueue a request without blocking; returns `false` when the
    /// queue is already shut down (the request is dropped). A push that
    /// finds no combiner wakes every parked waiter.
    pub fn push(&self, request: Pending) -> bool {
        let rows = request.nodes.len();
        let mut state = self.lock();
        if state.shutdown {
            return false;
        }
        state.pending.push_back(request);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        state.wake_if_idle();
        true
    }

    /// Stop accepting parts, drop the queued ones — which resolves each
    /// ticket `EngineShutdown` and aborts its cache registrations — and
    /// wake every parked waiter. A combiner mid-launch finishes its
    /// batch.
    pub fn shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        let queued = std::mem::take(&mut state.pending);
        self.rows.store(0, Ordering::Relaxed);
        state.parked.drain(..).for_each(|w| w.fire());
        drop(state);
        drop(queued);
    }

    /// Become this queue's combiner: `None` when the queue is empty or
    /// another thread already combines it (that thread then drains
    /// whatever is queued now).
    pub fn combine(&self) -> Option<Combiner<'_>> {
        let mut state = self.lock();
        if state.executing || state.pending.is_empty() {
            return None;
        }
        state.executing = true;
        let buffers = std::mem::take(&mut state.buffers);
        Some(Combiner { queue: self, held: true, buffers })
    }

    /// Register `waiter` to be woken when this queue has work and no
    /// combiner. Returns `false` — registering nothing — when that is
    /// already the case: the caller should combine instead of parking.
    pub fn park(&self, waiter: &Watcher) -> bool {
        let mut state = self.lock();
        if !state.executing && !state.pending.is_empty() {
            return false;
        }
        state.parked.retain(Watcher::is_live);
        if !state.parked.iter().any(|w| w.same(waiter)) {
            state.parked.push(waiter.clone());
        }
        true
    }
}

/// The combiner flag of one [`BatchQueue`], held by the thread running
/// its batches, with the queue's buffers on loan. Released by
/// [`next_batch`](Combiner::next_batch) when it finds the queue empty,
/// or on drop — also when a panic unwinds through the combiner — in
/// which case any work left behind wakes the parked waiters.
pub(crate) struct Combiner<'a> {
    queue: &'a BatchQueue,
    held: bool,
    pub buffers: Buffers,
}

impl Combiner<'_> {
    /// Drain parts into `buffers.batch` until `max_batch_rows` requested
    /// rows are taken (always at least one part), with no linger. Parts
    /// whose deadline already passed go to `buffers.expired` and parts
    /// nobody can receive any more to `buffers.abandoned`, neither
    /// counting toward the cap. The caller empties all three before the
    /// next drain. Returns `false`, releasing the flag and returning the
    /// buffers under the same lock, once the queue is empty.
    pub fn next_batch(&mut self, max_batch_rows: usize) -> bool {
        let mut state = self.queue.lock();
        if state.pending.is_empty() {
            state.executing = false;
            self.buffers.clear();
            state.buffers = std::mem::take(&mut self.buffers);
            self.held = false;
            return false;
        }
        let now = Instant::now();
        let b = &mut self.buffers;
        let mut rows = 0usize;
        let mut drained_rows = 0usize;
        while let Some(front) = state.pending.front() {
            let n = front.nodes.len();
            // Neither expired nor abandoned work costs kernel time, so
            // neither limits the drain — sweep the whole backlog of it.
            let dead = if front.expired(now) {
                Some(&mut b.expired)
            } else if front.slot.is_abandoned() {
                Some(&mut b.abandoned)
            } else {
                None
            };
            if let Some(dead) = dead {
                drained_rows += n;
                dead.push(state.pending.pop_front().expect("front exists"));
                continue;
            }
            if !b.batch.is_empty() && rows + n > max_batch_rows {
                break;
            }
            rows += n;
            drained_rows += n;
            b.batch.push(state.pending.pop_front().expect("front exists"));
        }
        self.queue.rows.fetch_sub(drained_rows, Ordering::Relaxed);
        true
    }
}

impl Drop for Combiner<'_> {
    fn drop(&mut self) {
        if !self.held {
            return;
        }
        // Whatever a panic left in the buffers resolves (closed) here,
        // outside the queue lock.
        self.buffers.clear();
        let mut state = self.queue.lock();
        state.executing = false;
        state.buffers = std::mem::take(&mut self.buffers);
        state.wake_if_idle();
    }
}

/// Move the first kernel-launch group of `batch` into `group`: the
/// parts sharing the first part's pinned [`FeatureEpoch`] (identity,
/// not number — two snapshots of the same epoch object are the same
/// group) *and* its [`Quality`] tier. Requests pinned to different
/// epochs must never share a kernel launch, or responses would mix
/// feature generations; requests of different tiers run different
/// kernels. Grouping (rather than flushing per request) keeps full
/// coalescing in the common case. Called until it returns `false`,
/// groups come out in first-seen order and requests keep their queue
/// order within a group.
pub(crate) fn next_group(batch: &mut Vec<Pending>, group: &mut Vec<Pending>) -> bool {
    let Some(first) = batch.first() else { return false };
    let (epoch, quality) = (Arc::as_ptr(&first.epoch), first.quality);
    let same = |p: &mut Pending| std::ptr::eq(Arc::as_ptr(&p.epoch), epoch) && p.quality == quality;
    group.extend(batch.extract_if(.., same));
    true
}

/// The sorted union of all node lists in `requests` (each node once),
/// into `union`.
pub fn dedup_union<'a>(requests: impl IntoIterator<Item = &'a [usize]>, union: &mut Vec<usize>) {
    union.clear();
    union.extend(requests.into_iter().flatten());
    union.sort_unstable();
    union.dedup();
}

/// Gather `nodes`' rows out of the union result: `union_rows[i]` is the
/// output row for node `union_nodes[i]` (sorted), and the returned
/// matrix has one row per entry of `nodes`, in request order.
pub fn scatter_rows(union_nodes: &[usize], union_rows: &Dense, nodes: &[usize]) -> Dense {
    let d = union_rows.ncols();
    let mut out = Dense::zeros(nodes.len(), d);
    for (i, &node) in nodes.iter().enumerate() {
        let j = union_nodes
            .binary_search(&node)
            .unwrap_or_else(|_| panic!("node {node} missing from its own batch union"));
        out.row_mut(i).copy_from_slice(union_rows.row(j));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FeatureStore;
    use crate::wait::{slot, SlotPoll, SlotRx, WakeQueue};
    use std::time::Duration;

    fn epoch() -> Arc<FeatureEpoch> {
        FeatureStore::new(Dense::zeros(1, 1), Dense::zeros(1, 1)).snapshot()
    }

    /// A part plus its receiver: a part whose receiver is dropped is
    /// abandoned, and drains skip it.
    fn part(nodes: Vec<usize>, epoch: Arc<FeatureEpoch>) -> (Pending, SlotRx) {
        let (tx, rx) = slot();
        let slot = PartSlot::new(tx, None, None);
        let nodes = nodes.into();
        (Pending { nodes, epoch, slot, trace: None, deadline: None, quality: Quality::Exact }, rx)
    }

    fn pending(nodes: Vec<usize>, epoch: Arc<FeatureEpoch>) -> Pending {
        part(nodes, epoch).0
    }

    /// Push a live part; its receiver joins `held`.
    fn push(q: &BatchQueue, held: &mut Vec<SlotRx>, p: (Pending, SlotRx)) {
        assert!(q.push(p.0));
        held.push(p.1);
    }

    /// A parked waiter and a count of the kicks it received.
    struct Waiter {
        wake: Arc<WakeQueue>,
        kicks: usize,
    }

    impl Waiter {
        fn new() -> Waiter {
            Waiter { wake: WakeQueue::new(), kicks: 0 }
        }

        fn watcher(&self) -> Watcher {
            Watcher::Kick(Arc::downgrade(&self.wake))
        }

        /// Kicks received so far (each read consumes the pending one).
        fn kicks(&mut self) -> usize {
            use crate::wait::Wake;
            if self.wake.signalled() {
                self.kicks += 1;
                self.wake.rearm();
            }
            self.kicks
        }
    }

    fn nodes_of(parts: &[Pending]) -> Vec<usize> {
        parts.iter().map(|p| p.nodes[0]).collect()
    }

    /// Every group of `batch`, in order.
    fn groups(mut batch: Vec<Pending>) -> Vec<Vec<Pending>> {
        let mut out = Vec::new();
        let mut group = Vec::new();
        while next_group(&mut batch, &mut group) {
            out.push(std::mem::take(&mut group));
        }
        out
    }

    #[test]
    fn union_sorts_and_dedups() {
        let a: &[usize] = &[5, 1, 9];
        let b: &[usize] = &[1, 1, 7];
        let mut union = vec![42];
        dedup_union([a, b], &mut union);
        assert_eq!(union, vec![1, 5, 7, 9]);
        dedup_union([] as [&[usize]; 0], &mut union);
        assert_eq!(union, Vec::<usize>::new());
    }

    #[test]
    fn scatter_restores_request_order_and_duplicates() {
        let union_nodes = vec![2usize, 4, 8];
        let union_rows = Dense::from_rows(3, 2, &[0.2, 2.0, 0.4, 4.0, 0.8, 8.0]).unwrap();
        let out = scatter_rows(&union_nodes, &union_rows, &[8, 2, 8]);
        assert_eq!(out.row(0), &[0.8, 8.0]);
        assert_eq!(out.row(1), &[0.2, 2.0]);
        assert_eq!(out.row(2), &[0.8, 8.0]);
    }

    #[test]
    fn queue_batches_everything_waiting() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        for n in 0..3usize {
            push(&q, &mut held, part(vec![n], Arc::clone(&ep)));
        }
        assert_eq!(q.queued_rows(), 3);
        let mut combiner = q.combine().expect("work available");
        assert!(combiner.next_batch(1024), "work available");
        let b = &mut combiner.buffers;
        assert_eq!(b.batch.len(), 3);
        assert!(b.expired.is_empty() && b.abandoned.is_empty());
        b.batch.clear();
        assert_eq!(q.queued_rows(), 0, "drain returns the rows to the gauge");
        assert!(!combiner.next_batch(1024), "empty queue releases the flag");
        assert!(q.combine().is_none(), "nothing left to combine");
    }

    #[test]
    fn the_buffers_come_home_with_their_capacity() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        for n in 0..5usize {
            push(&q, &mut held, part(vec![n], Arc::clone(&ep)));
        }
        let mut combiner = q.combine().unwrap();
        assert!(combiner.next_batch(1024));
        let cap = combiner.buffers.batch.capacity();
        combiner.buffers.batch.clear();
        assert!(!combiner.next_batch(1024));
        drop(combiner);
        push(&q, &mut held, part(vec![9], ep));
        let combiner = q.combine().unwrap();
        assert_eq!(combiner.buffers.batch.capacity(), cap, "the next combiner reuses the batch");
    }

    #[test]
    fn one_combiner_at_a_time_and_it_drains_late_arrivals() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        push(&q, &mut held, part(vec![1], Arc::clone(&ep)));
        let mut combiner = q.combine().expect("work available");
        assert!(combiner.next_batch(1024));
        let first = std::mem::take(&mut combiner.buffers.batch);
        push(&q, &mut held, part(vec![2], Arc::clone(&ep)));
        assert!(q.combine().is_none(), "the flag is held: a second thread leaves it to the first");
        assert!(combiner.next_batch(1024), "a part pushed mid-run is the combiner's");
        let late = std::mem::take(&mut combiner.buffers.batch);
        assert_eq!((first[0].nodes[0], late[0].nodes[0]), (1, 2));
        assert!(!combiner.next_batch(1024));
        drop(combiner);
        push(&q, &mut held, part(vec![3], ep));
        assert!(q.combine().is_some(), "a released flag can be taken again");
    }

    #[test]
    fn parked_waiters_wake_only_when_work_has_no_combiner() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        let mut waiter = Waiter::new();
        assert!(q.park(&waiter.watcher()), "an empty queue parks");
        assert!(q.park(&waiter.watcher()), "registering twice is one registration");
        assert_eq!(q.lock().parked.len(), 1);
        push(&q, &mut held, part(vec![1], Arc::clone(&ep)));
        assert_eq!(waiter.kicks(), 1, "a push with no combiner wakes the waiter");
        assert!(!q.park(&waiter.watcher()), "work without a combiner: combine instead of parking");
        let combiner = q.combine().unwrap();
        assert!(q.park(&waiter.watcher()), "a running combiner drains the queue: parking is safe");
        push(&q, &mut held, part(vec![2], Arc::clone(&ep)));
        assert_eq!(waiter.kicks(), 1, "the combiner takes it: no wake-up");
        drop(combiner);
        assert_eq!(waiter.kicks(), 2, "a combiner leaving work behind wakes");
    }

    #[test]
    fn a_panicking_combiner_releases_the_flag() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        push(&q, &mut held, part(vec![1], epoch()));
        push(&q, &mut held, part(vec![2], epoch()));
        let mut waiter = Waiter::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut combiner = q.combine().expect("work available");
            let _ = combiner.next_batch(1);
            assert!(q.park(&waiter.watcher()));
            panic!("outside any launch's catch_unwind");
        }));
        assert!(unwound.is_err());
        assert_eq!(waiter.kicks(), 1, "the work left behind woke the waiter");
        assert!(matches!(held[0].try_recv(), SlotPoll::Closed), "the drained part resolved");
        assert!(q.combine().is_some(), "the band is not wedged");
    }

    #[test]
    fn a_dead_waiter_is_pruned_not_fired() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let waiter = Waiter::new();
        assert!(q.park(&waiter.watcher()));
        drop(waiter);
        let mut live = Waiter::new();
        assert!(q.park(&live.watcher()));
        assert_eq!(q.lock().parked.len(), 1, "the dead registration was pruned");
        push(&q, &mut held, part(vec![1], epoch()));
        assert_eq!(live.kicks(), 1);
    }

    #[test]
    fn queue_respects_row_cap_but_always_progresses() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        // One oversized request plus a small one.
        push(&q, &mut held, part((0..100).collect(), Arc::clone(&ep)));
        push(&q, &mut held, part(vec![1], Arc::clone(&ep)));
        assert_eq!(q.queued_rows(), 101);
        let mut combiner = q.combine().unwrap();
        assert!(combiner.next_batch(10));
        assert_eq!(combiner.buffers.batch.len(), 1, "oversized request still dispatched alone");
        combiner.buffers.batch.clear();
        assert_eq!(q.queued_rows(), 1);
        assert!(combiner.next_batch(10));
        assert_eq!(combiner.buffers.batch.len(), 1);
        assert_eq!(q.queued_rows(), 0);
    }

    #[test]
    fn expired_requests_are_siphoned_without_charging_the_cap() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        let mut dead = part((0..50).collect(), Arc::clone(&ep));
        dead.0.deadline = Some(Instant::now() - Duration::from_millis(1));
        push(&q, &mut held, dead);
        let mut live = part(vec![1, 2], Arc::clone(&ep));
        live.0.deadline = Some(Instant::now() + Duration::from_secs(60));
        push(&q, &mut held, live);
        push(&q, &mut held, part(vec![3], Arc::clone(&ep)));
        // Row cap 4 < the expired request's 50 rows: expired work must
        // not starve the drain.
        let mut combiner = q.combine().unwrap();
        assert!(combiner.next_batch(4));
        let b = &combiner.buffers;
        assert_eq!(b.expired.len(), 1);
        assert_eq!(b.expired[0].nodes.len(), 50);
        assert_eq!(b.batch.len(), 2, "both live requests fit under the cap");
        assert_eq!(q.queued_rows(), 0);
    }

    #[test]
    fn abandoned_parts_are_siphoned_unless_they_own_fills() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        assert!(q.push(pending((0..50).collect(), Arc::clone(&ep))), "receiver dropped at once");
        push(&q, &mut held, part(vec![1], Arc::clone(&ep)));
        let mut combiner = q.combine().unwrap();
        assert!(combiner.next_batch(4));
        assert_eq!(combiner.buffers.abandoned.len(), 1, "nobody can receive the first part's rows");
        assert_eq!(combiner.buffers.batch.len(), 1);
        assert_eq!(q.queued_rows(), 0);
    }

    #[test]
    fn all_expired_drain_is_valid_progress() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        for n in 0..2usize {
            let mut p = part(vec![n], Arc::clone(&ep));
            p.0.deadline = Some(Instant::now() - Duration::from_millis(1));
            push(&q, &mut held, p);
        }
        let mut combiner = q.combine().unwrap();
        assert!(combiner.next_batch(8));
        assert!(combiner.buffers.batch.is_empty());
        assert_eq!(combiner.buffers.expired.len(), 2);
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        push(&q, &mut held, part(vec![3], epoch()));
        let mut waiter = Waiter::new();
        let combiner = q.combine().unwrap();
        assert!(q.park(&waiter.watcher()));
        q.shutdown();
        assert_eq!(waiter.kicks(), 1, "shutdown wakes every parked waiter");
        assert!(matches!(held[0].try_recv(), SlotPoll::Closed), "queued part resolved");
        assert_eq!(q.queued_rows(), 0);
        drop(combiner);
        assert!(q.combine().is_none(), "nothing left to run");
        assert!(!q.push(pending(vec![1], epoch())));
    }

    #[test]
    fn epoch_groups_split_by_identity_and_preserve_order() {
        let store = FeatureStore::new(Dense::zeros(1, 1), Dense::zeros(1, 1));
        let old = store.snapshot();
        store.publish(Dense::zeros(1, 1), Dense::zeros(1, 1));
        let new = store.snapshot();
        // Interleaved epochs: old, new, old, new, new.
        let batch = vec![
            pending(vec![0], Arc::clone(&old)),
            pending(vec![1], Arc::clone(&new)),
            pending(vec![2], Arc::clone(&old)),
            pending(vec![3], Arc::clone(&new)),
            pending(vec![4], Arc::clone(&new)),
        ];
        let groups = groups(batch);
        assert_eq!(groups.len(), 2, "one kernel-launch group per pinned epoch");
        assert_eq!(nodes_of(&groups[0]), vec![0, 2]);
        assert_eq!(nodes_of(&groups[1]), vec![1, 3, 4]);
        assert_eq!(groups[0][0].epoch.epoch(), 0);
        assert_eq!(groups[1][0].epoch.epoch(), 1);
    }

    #[test]
    fn quality_tiers_never_share_a_launch_group() {
        let ep = epoch();
        let mut topk = pending(vec![1], Arc::clone(&ep));
        topk.quality = Quality::TopKNeighbors(4);
        let batch =
            vec![pending(vec![0], Arc::clone(&ep)), topk, pending(vec![2], Arc::clone(&ep))];
        let groups = groups(batch);
        assert_eq!(groups.len(), 2, "same epoch, different tier → different group");
        assert_eq!(nodes_of(&groups[0]), vec![0, 2]);
        assert_eq!(groups[1][0].quality, Quality::TopKNeighbors(4));
    }

    #[test]
    fn single_epoch_batch_is_one_group() {
        let ep = epoch();
        let batch = (0..4).map(|n| pending(vec![n], Arc::clone(&ep))).collect::<Vec<_>>();
        let groups = groups(batch);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 4);
    }
}
