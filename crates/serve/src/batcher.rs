//! Micro-batching: coalesce the node-subset parts queued on one band
//! into one deduplicated row batch per drain.
//!
//! A `BatchQueue` holds `Pending` parts, a count of the threads running
//! them and the parked waiters under one mutex, and whichever thread
//! needs one of the band's results runs the queued batches itself (flat
//! combining): it becomes a **combiner** — it takes the sorted union of
//! each batch's nodes, runs the row-subset kernel once and hands each
//! part its rows — and leaves under that mutex when nothing it may run
//! is left, so a part pushed meanwhile rides it, or when its own caller
//! is answered.
//!
//! A part a blocking caller dispatched is **claimed** by that caller's
//! thread (a `Claim`); a ticket's part is not. The rules, for caller
//! `c`:
//!
//! * `c` gets a combiner whenever a part claimed by `c` is queued, even
//!   while other threads combine the band — so two blocking callers each
//!   run their own parts, at once, and neither sleeps on the other —
//!   and, when nobody combines the band, whenever work anyone may run
//!   is queued: an unclaimed part, or a claimed one whose ticket is gone.
//! * A drain takes, in FIFO order, `c`'s claimed parts and the parts
//!   anyone may run, and skips the parts other live callers claimed.
//! * `c` may park only when no part it should run is queued; unclaimed
//!   work pushed while nobody combines, or left behind by the last
//!   combiner to leave, wakes the parked waiters.
//!
//! So a claimed part runs only on its claimant, or on any thread once
//! its ticket is gone; every part runs at most once (a drain moves it
//! out under the mutex); and every queued part a live waiter needs can
//! be run by a thread that is not parked — its live claimant never
//! parks while it is queued, and anything else wakes the waiters.
//!
//! A drain siphons parts whose deadline passed (failed typed, no kernel
//! time) and parts nobody can receive any more, and the queue tracks
//! its total queued rows so the admission policy can bound the backlog.
//! The drain, the per-epoch grouping and the union work in buffers the
//! combining thread keeps, one set per thread, lent to each combiner it
//! runs: a thread that has combined once allocates nothing per drain,
//! whichever band it combines and however many threads combine that
//! band beside it.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fusedmm_perf::trace::SpanCtx;
use fusedmm_sparse::dense::Dense;

use crate::store::FeatureEpoch;
use crate::ticket::Quality;
use crate::transport::PartSlot;
use crate::wait::{Claim, Watcher};

/// One enqueued part of an embedding request.
pub(crate) struct Pending {
    /// Requested node ids, sorted and distinct — the list the request's
    /// part holds, shared.
    pub nodes: Arc<[usize]>,
    /// The feature epoch pinned at request begin: the whole response
    /// is computed from this snapshot, never torn across a publish.
    pub epoch: Arc<FeatureEpoch>,
    /// Where the rows go: the ticket's reply slot plus the in-flight
    /// cache registrations this part owns (one per node),
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

    /// True when `claim`'s combiner may run this part: it is `claim`'s
    /// own, claimed by nobody, or its claimant's ticket is gone.
    fn runnable_by(&self, claim: Claim) -> bool {
        self.slot.claim.is_none_or(|c| c == claim) || self.slot.ticket_gone()
    }
}

/// A landed part on its way to its reply: its nodes, its slot and its
/// trace context — and no longer its pinned epoch.
pub(crate) type Reply = (Arc<[usize]>, PartSlot, Option<SpanCtx>);

/// The buffers a thread lends its combiner. After a drain, `batch` holds
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
    /// How many of `pending` carry no claim.
    unclaimed: usize,
    shutdown: bool,
    /// Threads running this queue's batches right now.
    combiners: usize,
    /// Waiters parked on this queue, woken when it has work anyone may
    /// run and no combiner. A waiter that moved on leaves a dead entry,
    /// pruned at the next registration.
    parked: Vec<Watcher>,
}

thread_local! {
    /// This thread's combiner buffers, home while no combiner of the
    /// thread holds them. A thread combines one queue at a time, so its
    /// one set is warm after its first combine. Sets kept per queue, one
    /// per combiner running at once, would not be: the first time two
    /// threads combined a queue together, the second set would grow on
    /// that request, however late it came.
    static BUFFERS: Cell<Buffers> = Cell::default();
}

impl QueueState {
    /// True when a part claimed by `claim` is queued.
    fn holds_claimed_by(&self, claim: Claim) -> bool {
        self.pending.len() > self.unclaimed
            && self.pending.iter().any(|p| p.slot.claim == Some(claim))
    }

    /// True when work any combiner may run is queued: an unclaimed part,
    /// or a claimed one whose ticket is gone.
    fn holds_free_work(&self) -> bool {
        // With no unclaimed part queued, every queued part is claimed.
        self.unclaimed > 0 || self.pending.iter().any(|p| p.slot.ticket_gone())
    }

    /// True when `claim`'s waiter should combine rather than park.
    fn wants_combiner(&self, claim: Claim) -> bool {
        self.holds_claimed_by(claim) || (self.combiners == 0 && self.holds_free_work())
    }

    /// Wake every parked waiter if this queue has work anyone may run
    /// and no combiner. A kick only sets a flag and notifies a condvar,
    /// and no waiter holds its own lock while taking a queue's, so
    /// firing under this lock cannot deadlock — and the list keeps its
    /// capacity.
    fn wake_if_idle(&mut self) {
        if self.combiners == 0 && self.holds_free_work() {
            self.parked.drain(..).for_each(|w| w.fire());
        }
    }

    /// A combiner leaves: work it left that anyone may run wakes the
    /// parked waiters.
    fn release(&mut self) {
        self.combiners -= 1;
        self.wake_if_idle();
    }
}

/// A band's work queue: a FIFO of [`Pending`] parts, the combiner count
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
            unclaimed: 0,
            shutdown: false,
            combiners: 0,
            parked: vec![],
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
    /// queue is already shut down (the request is dropped). An unclaimed
    /// part finding no combiner wakes every parked waiter; a claimed one
    /// wakes nobody, because its claimant is the thread pushing it and
    /// runs it next.
    pub fn push(&self, request: Pending) -> bool {
        let rows = request.nodes.len();
        let claimed = request.slot.claim.is_some();
        let mut state = self.lock();
        if state.shutdown {
            return false;
        }
        state.pending.push_back(request);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        if !claimed {
            state.unclaimed += 1;
            state.wake_if_idle();
        }
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
        state.unclaimed = 0;
        self.rows.store(0, Ordering::Relaxed);
        state.parked.drain(..).for_each(|w| w.fire());
        drop(state);
        drop(queued);
    }

    /// Become one of this queue's combiners, for caller `claim`: `None`
    /// unless a part `claim` claimed is queued, or work anyone may run
    /// is queued and no other thread combines the queue (that thread
    /// then drains it).
    pub fn combine(&self, claim: Claim) -> Option<Combiner<'_>> {
        let mut state = self.lock();
        if !state.wants_combiner(claim) {
            return None;
        }
        state.combiners += 1;
        drop(state);
        let buffers = BUFFERS.try_with(Cell::take).unwrap_or_default();
        Some(Combiner { queue: self, claim, held: true, buffers })
    }

    /// Register `waiter`, caller `claim`'s, to be woken when this queue
    /// has work anyone may run and no combiner. Returns `false` —
    /// registering nothing — when `claim` should combine instead: a part
    /// it claimed is queued, or free work has no combiner.
    pub fn park(&self, waiter: &Watcher, claim: Claim) -> bool {
        let mut state = self.lock();
        if state.wants_combiner(claim) {
            return false;
        }
        state.parked.retain(Watcher::is_live);
        if !state.parked.iter().any(|w| w.same(waiter)) {
            state.parked.push(waiter.clone());
        }
        true
    }

    /// Wake the parked waiters if work anyone may run has no combiner —
    /// what a claimed part whose ticket was just dropped needs, since
    /// its claimant will not run it any more.
    pub fn kick(&self) {
        self.lock().wake_if_idle();
    }
}

/// One combiner's seat on a [`BatchQueue`], held by the thread running
/// its batches, with the thread's buffers on loan. The seat is released
/// by [`next_batch`](Combiner::next_batch) when it finds nothing left it
/// may run, or on drop — also when a panic unwinds through the combiner
/// — and the last combiner leaving work anyone may run behind wakes the
/// parked waiters. The buffers go home on drop.
pub(crate) struct Combiner<'a> {
    queue: &'a BatchQueue,
    /// The caller this combiner runs for.
    claim: Claim,
    held: bool,
    pub buffers: Buffers,
}

impl Combiner<'_> {
    /// Drain parts this combiner may run into `buffers.batch`, in FIFO
    /// order and skipping parts other callers claimed, until
    /// `max_batch_rows` requested rows are taken (always at least one
    /// part), with no linger. Parts whose deadline already passed go to
    /// `buffers.expired` and parts nobody can receive any more to
    /// `buffers.abandoned`, neither counting toward the cap. The caller
    /// empties all three before the next drain. Returns `false`,
    /// releasing the seat, once nothing it may run is queued.
    pub fn next_batch(&mut self, max_batch_rows: usize) -> bool {
        let mut state = self.queue.lock();
        let mut clock = None;
        let b = &mut self.buffers;
        let mut rows = 0usize;
        let mut drained_rows = 0usize;
        let mut i = 0;
        while let Some(part) = state.pending.get(i) {
            if !part.runnable_by(self.claim) {
                i += 1;
                continue;
            }
            let n = part.nodes.len();
            // Neither expired nor abandoned work costs kernel time, so
            // neither limits the drain — sweep the whole backlog of it.
            let to = if part.expired(*clock.get_or_insert_with(Instant::now)) {
                &mut b.expired
            } else if part.slot.is_abandoned() {
                &mut b.abandoned
            } else if b.batch.is_empty() || rows + n <= max_batch_rows {
                rows += n;
                &mut b.batch
            } else {
                break;
            };
            let part = state.pending.remove(i).expect("part exists");
            if part.slot.claim.is_none() {
                state.unclaimed -= 1;
            }
            drained_rows += n;
            to.push(part);
        }
        if b.batch.is_empty() && b.expired.is_empty() && b.abandoned.is_empty() {
            self.held = false;
            state.release();
            return false;
        }
        self.queue.rows.fetch_sub(drained_rows, Ordering::Relaxed);
        true
    }
}

impl Drop for Combiner<'_> {
    fn drop(&mut self) {
        // Whatever a panic left in the buffers resolves (closed) here,
        // outside the queue lock.
        self.buffers.clear();
        let buffers = std::mem::take(&mut self.buffers);
        // A thread being torn down has no home left: the set is dropped.
        let _ = BUFFERS.try_with(|home| home.set(buffers));
        if self.held {
            self.queue.lock().release();
        }
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

    /// The test thread's claim: the caller every unclaimed-part test
    /// combines and parks as.
    fn me() -> Claim {
        Claim::mine()
    }

    /// A part plus its receiver: a part whose receiver is dropped is
    /// abandoned, and drains skip it.
    fn part(nodes: Vec<usize>, epoch: Arc<FeatureEpoch>) -> (Pending, SlotRx) {
        claimed(nodes, epoch, None)
    }

    /// [`part`], claimed by `claim`.
    fn claimed(
        nodes: Vec<usize>,
        epoch: Arc<FeatureEpoch>,
        claim: Option<Claim>,
    ) -> (Pending, SlotRx) {
        let (tx, rx) = slot();
        let slot = PartSlot::new(tx, None, None, claim);
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
        let mut combiner = q.combine(me()).expect("work available");
        assert!(combiner.next_batch(1024), "work available");
        let b = &mut combiner.buffers;
        assert_eq!(b.batch.len(), 3);
        assert!(b.expired.is_empty() && b.abandoned.is_empty());
        b.batch.clear();
        assert_eq!(q.queued_rows(), 0, "drain returns the rows to the gauge");
        assert!(!combiner.next_batch(1024), "empty queue releases the flag");
        assert!(q.combine(me()).is_none(), "nothing left to combine");
    }

    #[test]
    fn the_buffers_stay_with_the_thread_and_keep_their_capacity() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        for n in 0..5usize {
            push(&q, &mut held, part(vec![n], Arc::clone(&ep)));
        }
        let mut combiner = q.combine(me()).unwrap();
        assert!(combiner.next_batch(1024));
        let cap = combiner.buffers.batch.capacity();
        combiner.buffers.batch.clear();
        assert!(!combiner.next_batch(1024));
        drop(combiner);
        // Another queue, the same thread: the same set.
        let other = BatchQueue::new();
        push(&other, &mut held, part(vec![9], Arc::clone(&ep)));
        let combiner = other.combine(me()).unwrap();
        assert_eq!(
            combiner.buffers.batch.capacity(),
            cap,
            "the thread's next combiner reuses the batch"
        );
        drop(combiner);
        // A new thread starts with an empty set.
        let fresh = std::thread::scope(|s| {
            s.spawn(|| other.combine(me()).map(|c| c.buffers.batch.capacity())).join().unwrap()
        });
        assert_eq!(fresh, Some(0));
    }

    #[test]
    fn one_combiner_at_a_time_and_it_drains_late_arrivals() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        push(&q, &mut held, part(vec![1], Arc::clone(&ep)));
        let mut combiner = q.combine(me()).expect("work available");
        assert!(combiner.next_batch(1024));
        let first = std::mem::take(&mut combiner.buffers.batch);
        push(&q, &mut held, part(vec![2], Arc::clone(&ep)));
        assert!(
            q.combine(me()).is_none(),
            "the flag is held: a second thread leaves it to the first"
        );
        assert!(combiner.next_batch(1024), "a part pushed mid-run is the combiner's");
        let late = std::mem::take(&mut combiner.buffers.batch);
        assert_eq!((first[0].nodes[0], late[0].nodes[0]), (1, 2));
        assert!(!combiner.next_batch(1024));
        drop(combiner);
        push(&q, &mut held, part(vec![3], ep));
        assert!(q.combine(me()).is_some(), "a released flag can be taken again");
    }

    #[test]
    fn parked_waiters_wake_only_when_work_has_no_combiner() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        let mut waiter = Waiter::new();
        assert!(q.park(&waiter.watcher(), me()), "an empty queue parks");
        assert!(q.park(&waiter.watcher(), me()), "registering twice is one registration");
        assert_eq!(q.lock().parked.len(), 1);
        push(&q, &mut held, part(vec![1], Arc::clone(&ep)));
        assert_eq!(waiter.kicks(), 1, "a push with no combiner wakes the waiter");
        assert!(
            !q.park(&waiter.watcher(), me()),
            "work without a combiner: combine instead of parking"
        );
        let combiner = q.combine(me()).unwrap();
        assert!(
            q.park(&waiter.watcher(), me()),
            "a running combiner drains the queue: parking is safe"
        );
        push(&q, &mut held, part(vec![2], Arc::clone(&ep)));
        assert_eq!(waiter.kicks(), 1, "the combiner takes it: no wake-up");
        drop(combiner);
        assert_eq!(waiter.kicks(), 2, "a combiner leaving work behind wakes");
    }

    #[test]
    fn two_claimants_combine_the_same_band_at_once() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        let (a, b) = (Claim::fresh(), Claim::fresh());
        push(&q, &mut held, claimed(vec![1], Arc::clone(&ep), Some(a)));
        push(&q, &mut held, claimed(vec![2], Arc::clone(&ep), Some(b)));
        let mut first = q.combine(a).expect("a's own part is queued");
        let mut second =
            q.combine(b).expect("b's own part is queued: a's combiner is no reason to wait");
        assert!(first.next_batch(1024) && second.next_batch(1024));
        assert_eq!(nodes_of(&first.buffers.batch), vec![1], "each runs its own part");
        assert_eq!(nodes_of(&second.buffers.batch), vec![2]);
        first.buffers.batch.clear();
        second.buffers.batch.clear();
        assert!(!first.next_batch(1024) && !second.next_batch(1024));
        drop((first, second));
        push(&q, &mut held, part(vec![3], ep));
        let c = q.combine(a).expect("unclaimed work, nobody combining");
        assert!(q.combine(b).is_none(), "unclaimed work keeps one combiner");
        drop(c);
    }

    #[test]
    fn a_drain_skips_other_callers_claims_and_keeps_fifo_order() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        let (a, b) = (Claim::fresh(), Claim::fresh());
        push(&q, &mut held, part(vec![1], Arc::clone(&ep)));
        push(&q, &mut held, claimed(vec![2], Arc::clone(&ep), Some(b)));
        push(&q, &mut held, claimed(vec![3], Arc::clone(&ep), Some(a)));
        push(&q, &mut held, part(vec![4], Arc::clone(&ep)));
        push(&q, &mut held, claimed(vec![5], Arc::clone(&ep), Some(b)));
        let mut combiner = q.combine(a).unwrap();
        assert!(combiner.next_batch(1024));
        assert_eq!(nodes_of(&combiner.buffers.batch), vec![1, 3, 4], "a's and nobody's, in order");
        combiner.buffers.batch.clear();
        assert_eq!(q.queued_rows(), 2, "b's parts stay queued");
        assert!(!combiner.next_batch(1024), "nothing left that a may run");
        drop(combiner);
        let mut combiner = q.combine(b).unwrap();
        assert!(combiner.next_batch(1024));
        assert_eq!(nodes_of(&combiner.buffers.batch), vec![2, 5]);
    }

    #[test]
    fn a_caller_never_parks_on_its_own_queued_part() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        let (a, b) = (Claim::fresh(), Claim::fresh());
        let mut waiter = Waiter::new();
        let combiner = q.combine(a);
        assert!(combiner.is_none(), "nothing queued");
        push(&q, &mut held, claimed(vec![1], Arc::clone(&ep), Some(a)));
        assert_eq!(waiter.kicks(), 0, "a claimed push wakes nobody: its claimant runs it");
        assert!(!q.park(&waiter.watcher(), a), "a's own part is queued: a combines");
        assert!(q.park(&waiter.watcher(), b), "b cannot run a's part: b may park");
        let mut combiner = q.combine(a).unwrap();
        assert!(!q.park(&waiter.watcher(), a), "a combiner running is no reason to park either");
        assert!(combiner.next_batch(1024));
        combiner.buffers.batch.clear();
        assert!(q.park(&waiter.watcher(), a), "once a's part is out, a may park");
        drop(combiner);
        assert_eq!(waiter.kicks(), 0, "nothing anyone may run was left");
    }

    #[test]
    fn a_claimed_part_whose_ticket_is_gone_is_anyones() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let ep = epoch();
        let (a, b) = (Claim::fresh(), Claim::fresh());
        let mut waiter = Waiter::new();
        let (dead, rx) = claimed(vec![7], Arc::clone(&ep), Some(a));
        assert!(q.push(dead));
        push(&q, &mut held, claimed(vec![8], Arc::clone(&ep), Some(a)));
        assert!(q.combine(b).is_none(), "a's parts are a's while a waits");
        assert!(q.park(&waiter.watcher(), b));
        drop(rx);
        q.kick();
        assert_eq!(waiter.kicks(), 1, "a dropped ticket wakes the parked waiters");
        assert!(!q.park(&waiter.watcher(), b), "b should combine it now");
        let mut combiner = q.combine(b).expect("the part is anyone's");
        assert!(combiner.next_batch(1024));
        // With no cache registration nobody needs its rows: it is
        // siphoned. One that owns fills would land in the batch.
        assert_eq!(nodes_of(&combiner.buffers.abandoned), vec![7]);
        assert!(combiner.buffers.batch.is_empty(), "a's live part stays a's");
        assert_eq!(q.queued_rows(), 1);
    }

    #[test]
    fn a_panicking_combiner_releases_the_flag() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        push(&q, &mut held, part(vec![1], epoch()));
        push(&q, &mut held, part(vec![2], epoch()));
        let mut waiter = Waiter::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut combiner = q.combine(me()).expect("work available");
            let _ = combiner.next_batch(1);
            assert!(q.park(&waiter.watcher(), me()));
            panic!("outside any launch's catch_unwind");
        }));
        assert!(unwound.is_err());
        assert_eq!(waiter.kicks(), 1, "the work left behind woke the waiter");
        assert!(matches!(held[0].try_recv(), SlotPoll::Closed), "the drained part resolved");
        assert!(q.combine(me()).is_some(), "the band is not wedged");
    }

    #[test]
    fn a_dead_waiter_is_pruned_not_fired() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        let waiter = Waiter::new();
        assert!(q.park(&waiter.watcher(), me()));
        drop(waiter);
        let mut live = Waiter::new();
        assert!(q.park(&live.watcher(), me()));
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
        let mut combiner = q.combine(me()).unwrap();
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
        let mut combiner = q.combine(me()).unwrap();
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
        let mut combiner = q.combine(me()).unwrap();
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
        let mut combiner = q.combine(me()).unwrap();
        assert!(combiner.next_batch(8));
        assert!(combiner.buffers.batch.is_empty());
        assert_eq!(combiner.buffers.expired.len(), 2);
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let (q, mut held) = (BatchQueue::new(), Vec::new());
        push(&q, &mut held, part(vec![3], epoch()));
        let mut waiter = Waiter::new();
        let combiner = q.combine(me()).unwrap();
        assert!(q.park(&waiter.watcher(), me()));
        q.shutdown();
        assert_eq!(waiter.kicks(), 1, "shutdown wakes every parked waiter");
        assert!(matches!(held[0].try_recv(), SlotPoll::Closed), "queued part resolved");
        assert_eq!(q.queued_rows(), 0);
        drop(combiner);
        assert!(q.combine(me()).is_none(), "nothing left to run");
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
