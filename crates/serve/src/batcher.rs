//! Micro-batching: coalesce concurrent node-subset requests into one
//! deduplicated row batch per dispatcher tick.
//!
//! Each part waits on its [`PartSlot`] while a band's dispatcher thread
//! drains the queue, takes the sorted union of all requested nodes,
//! runs the row-subset kernel once, and scatters each part's rows back.
//! Batching
//! amortizes the kernel launch and deduplication means a hot node
//! requested by ten concurrent callers is computed once.
//!
//! The queue is deadline-aware: a drain partitions requests whose
//! deadline already passed into `Drained::expired` so the dispatcher
//! can fail them (typed, cheap) without spending kernel time — and it
//! tracks its total queued rows so the admission policy can bound the
//! backlog.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use fusedmm_perf::trace::SpanCtx;
use fusedmm_sparse::dense::Dense;

use crate::store::FeatureEpoch;
use crate::ticket::Quality;
use crate::transport::PartSlot;

/// One enqueued part of an embedding request.
pub(crate) struct Pending {
    /// Requested node ids (the front end sends them sorted and
    /// distinct; the batcher does not rely on it).
    pub nodes: Vec<usize>,
    /// The feature epoch pinned at request begin: the whole response
    /// is computed from this snapshot, never torn across a publish.
    pub epoch: Arc<FeatureEpoch>,
    /// Where the rows go: the ticket's reply slot plus the in-flight
    /// cache registrations this part owns (`fills[i]` ↔ `nodes[i]`),
    /// completed before the reply. Dropping it unresolved reads as
    /// engine shutdown on the caller side and aborts the registrations.
    pub slot: PartSlot,
    /// The request's enqueue-span context when it was sampled for
    /// tracing: the dispatcher parents its batch/kernel/cache-fill
    /// spans under it (recorded per sampled request, so each owns a
    /// complete tree). `None` for unsampled requests — every span site
    /// downstream short-circuits.
    pub trace: Option<SpanCtx>,
    /// Drop (and resolve `PartOutcome::Expired`) instead of computing
    /// past this instant.
    pub deadline: Option<Instant>,
    /// The answer tier: decides which kernel the dispatcher launches.
    /// Requests of different tiers never share a launch.
    pub quality: Quality,
}

impl Pending {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// One dispatcher drain: the launchable batch plus any requests whose
/// deadline passed while queued (to be failed without kernel time).
pub(crate) struct Drained {
    pub batch: Vec<Pending>,
    pub expired: Vec<Pending>,
}

struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

/// The dispatcher's work queue: a condvar-signalled FIFO of
/// [`Pending`] requests that tracks its total queued rows (the
/// admission policy's backlog signal).
pub(crate) struct BatchQueue {
    state: std::sync::Mutex<QueueState>,
    cv: Condvar,
    /// Total `nodes.len()` across queued requests. Kept as a separate
    /// atomic so admission can read it without taking the queue lock.
    rows: AtomicUsize,
}

impl BatchQueue {
    pub fn new() -> Self {
        BatchQueue {
            state: std::sync::Mutex::new(QueueState { pending: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            rows: AtomicUsize::new(0),
        }
    }

    /// Total requested rows currently queued (admission's backlog
    /// signal; monotonic observations only — the queue may drain
    /// concurrently).
    pub fn queued_rows(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Enqueue a request; returns `false` when the queue is already
    /// shut down (the request is dropped).
    pub fn push(&self, request: Pending) -> bool {
        let rows = request.nodes.len();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.shutdown {
            return false;
        }
        state.pending.push_back(request);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        drop(state);
        self.cv.notify_one();
        true
    }

    /// Mark the queue closed and wake the dispatcher.
    pub fn shutdown(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
        self.cv.notify_all();
    }

    /// Block until work arrives (or shutdown), linger for at most
    /// `coalesce_window` so concurrent callers can join the batch, then
    /// drain requests until `max_batch_rows` requested rows are taken
    /// (always at least one request). The linger ends early when the
    /// batch fills up — under backlog the wait would add latency
    /// without any extra coalescing — and otherwise lasts the whole
    /// window whoever else is or is not calling, so a request's wait
    /// does not depend on how it happens to interleave with the others.
    /// Requests whose deadline already passed are siphoned into
    /// `Drained::expired` without counting toward the row cap. Returns
    /// `None` only on shutdown with an empty queue.
    pub fn next_batch(&self, coalesce_window: Duration, max_batch_rows: usize) -> Option<Drained> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.pending.is_empty() {
            if state.shutdown {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        let linger_until = Instant::now() + coalesce_window;
        // Every push signals the condvar, so each arrival re-checks
        // the row cap.
        while !state.shutdown && self.rows.load(Ordering::Relaxed) < max_batch_rows {
            let left = linger_until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            state = self.cv.wait_timeout(state, left).unwrap_or_else(|e| e.into_inner()).0;
        }
        let now = Instant::now();
        let mut batch = Vec::new();
        let mut expired = Vec::new();
        let mut rows = 0usize;
        let mut drained_rows = 0usize;
        while let Some(front) = state.pending.front() {
            if front.expired(now) {
                // Expired work costs no kernel time, so it never
                // limits the drain — sweep the whole backlog of it.
                drained_rows += front.nodes.len();
                expired.push(state.pending.pop_front().expect("front exists"));
                continue;
            }
            if !batch.is_empty() && rows + front.nodes.len() > max_batch_rows {
                break;
            }
            rows += front.nodes.len();
            drained_rows += front.nodes.len();
            batch.push(state.pending.pop_front().expect("front exists"));
        }
        self.rows.fetch_sub(drained_rows, Ordering::Relaxed);
        Some(Drained { batch, expired })
    }
}

/// Split a drained batch into kernel-launch groups that share one
/// pinned [`FeatureEpoch`] (identity, not number — two snapshots of the
/// same epoch object are the same group) *and* one [`Quality`] tier.
/// Requests pinned to different epochs must never share a kernel
/// launch, or responses would mix feature generations; requests of
/// different tiers run different kernels. Grouping (rather than
/// flushing per request) keeps full coalescing in the common case.
/// Order is preserved: groups appear in first-seen order and requests
/// keep their queue order within a group.
pub(crate) fn group_by_epoch(batch: Vec<Pending>) -> Vec<Vec<Pending>> {
    let mut groups: Vec<Vec<Pending>> = Vec::new();
    for pending in batch {
        match groups
            .iter_mut()
            .find(|g| Arc::ptr_eq(&g[0].epoch, &pending.epoch) && g[0].quality == pending.quality)
        {
            Some(group) => group.push(pending),
            None => groups.push(vec![pending]),
        }
    }
    groups
}

/// Sorted union of all node lists in `requests` (each node once).
pub fn dedup_union<'a>(requests: impl IntoIterator<Item = &'a [usize]>) -> Vec<usize> {
    let mut union: Vec<usize> = requests.into_iter().flatten().copied().collect();
    union.sort_unstable();
    union.dedup();
    union
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
    use crate::wait::slot;

    fn epoch() -> Arc<FeatureEpoch> {
        FeatureStore::new(Dense::zeros(1, 1), Dense::zeros(1, 1)).snapshot()
    }

    fn pending(nodes: Vec<usize>, epoch: Arc<FeatureEpoch>) -> Pending {
        let (tx, _rx) = slot();
        let slot = PartSlot::new(tx, None, None);
        Pending { nodes, epoch, slot, trace: None, deadline: None, quality: Quality::Exact }
    }

    #[test]
    fn union_sorts_and_dedups() {
        let a: &[usize] = &[5, 1, 9];
        let b: &[usize] = &[1, 1, 7];
        assert_eq!(dedup_union([a, b]), vec![1, 5, 7, 9]);
        assert_eq!(dedup_union([] as [&[usize]; 0]), Vec::<usize>::new());
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
        let q = BatchQueue::new();
        let ep = epoch();
        for n in 0..3usize {
            assert!(q.push(pending(vec![n], Arc::clone(&ep))));
        }
        assert_eq!(q.queued_rows(), 3);
        let drained = q.next_batch(Duration::ZERO, 1024).expect("work available");
        assert_eq!(drained.batch.len(), 3);
        assert!(drained.expired.is_empty());
        assert_eq!(q.queued_rows(), 0, "drain returns the rows to the gauge");
    }

    /// Long enough that a test which wrongly sits out the window fails
    /// its `elapsed` bound instead of squeaking past it.
    const LONG_WINDOW: Duration = Duration::from_secs(20);

    #[test]
    fn full_batch_is_not_delayed_by_the_window() {
        let q = BatchQueue::new();
        q.push(pending(vec![0; 16], epoch()));
        let t0 = Instant::now();
        let drained = q.next_batch(LONG_WINDOW, 16).expect("work available");
        assert_eq!(drained.batch.len(), 1);
        assert!(t0.elapsed() < LONG_WINDOW / 4, "the row cap ends the linger");
    }

    #[test]
    fn concurrent_callers_share_one_launch() {
        // One request queued, a second still on its way: the dispatcher
        // holds the batch open until it lands (and fills the batch),
        // however the second push and the dispatcher's wait interleave.
        let q = BatchQueue::new();
        let ep = epoch();
        q.push(pending(vec![1], Arc::clone(&ep)));
        let drained = std::thread::scope(|s| {
            let dispatcher = s.spawn(|| q.next_batch(LONG_WINDOW, 2).expect("work available"));
            q.push(pending(vec![2], Arc::clone(&ep)));
            dispatcher.join().expect("dispatcher")
        });
        assert_eq!(drained.batch.len(), 2, "the second caller joined the first one's batch");
    }

    #[test]
    fn window_bounds_the_wait_for_a_request_that_never_arrives() {
        let q = BatchQueue::new();
        q.push(pending(vec![1], epoch()));
        let window = Duration::from_millis(30);
        let t0 = Instant::now();
        let drained = q.next_batch(window, 1024).expect("work available");
        assert!(t0.elapsed() >= window, "the batch had room: the full window is spent");
        assert_eq!(drained.batch.len(), 1);
    }

    #[test]
    fn queue_respects_row_cap_but_always_progresses() {
        let q = BatchQueue::new();
        let ep = epoch();
        // One oversized request plus a small one.
        q.push(pending(vec![0; 100], Arc::clone(&ep)));
        q.push(pending(vec![1], Arc::clone(&ep)));
        assert_eq!(q.queued_rows(), 101);
        let first = q.next_batch(Duration::ZERO, 10).unwrap();
        assert_eq!(first.batch.len(), 1, "oversized request still dispatched alone");
        assert_eq!(q.queued_rows(), 1);
        let second = q.next_batch(Duration::ZERO, 10).unwrap();
        assert_eq!(second.batch.len(), 1);
        assert_eq!(q.queued_rows(), 0);
    }

    #[test]
    fn expired_requests_are_siphoned_without_charging_the_cap() {
        let q = BatchQueue::new();
        let ep = epoch();
        let mut dead = pending(vec![0; 50], Arc::clone(&ep));
        dead.deadline = Some(Instant::now() - Duration::from_millis(1));
        q.push(dead);
        let mut live = pending(vec![1, 2], Arc::clone(&ep));
        live.deadline = Some(Instant::now() + Duration::from_secs(60));
        q.push(live);
        q.push(pending(vec![3], Arc::clone(&ep)));
        // Row cap 4 < the expired request's 50 rows: expired work must
        // not starve the drain.
        let drained = q.next_batch(Duration::ZERO, 4).unwrap();
        assert_eq!(drained.expired.len(), 1);
        assert_eq!(drained.expired[0].nodes.len(), 50);
        assert_eq!(drained.batch.len(), 2, "both live requests fit under the cap");
        assert_eq!(q.queued_rows(), 0);
    }

    #[test]
    fn all_expired_drain_is_valid_progress() {
        let q = BatchQueue::new();
        let ep = epoch();
        for n in 0..2usize {
            let mut p = pending(vec![n], Arc::clone(&ep));
            p.deadline = Some(Instant::now() - Duration::from_millis(1));
            q.push(p);
        }
        let drained = q.next_batch(Duration::ZERO, 8).unwrap();
        assert!(drained.batch.is_empty());
        assert_eq!(drained.expired.len(), 2);
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = BatchQueue::new();
        q.push(pending(vec![3], epoch()));
        q.shutdown();
        assert!(q.next_batch(Duration::ZERO, 8).is_some(), "queued work still served");
        assert!(q.next_batch(Duration::ZERO, 8).is_none(), "then the queue reports closed");
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
        let groups = group_by_epoch(batch);
        assert_eq!(groups.len(), 2, "one kernel-launch group per pinned epoch");
        assert_eq!(groups[0].iter().map(|p| p.nodes[0]).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(groups[1].iter().map(|p| p.nodes[0]).collect::<Vec<_>>(), vec![1, 3, 4]);
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
        let groups = group_by_epoch(batch);
        assert_eq!(groups.len(), 2, "same epoch, different tier → different group");
        assert_eq!(groups[0].iter().map(|p| p.nodes[0]).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(groups[1][0].quality, Quality::TopKNeighbors(4));
    }

    #[test]
    fn single_epoch_batch_is_one_group() {
        let ep = epoch();
        let batch = (0..4).map(|n| pending(vec![n], Arc::clone(&ep))).collect::<Vec<_>>();
        let groups = group_by_epoch(batch);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 4);
    }
}
