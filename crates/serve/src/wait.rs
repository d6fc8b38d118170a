//! One-shot completion slots, and the one drive-then-park loop every
//! blocking wait runs.
//!
//! A band answers each enqueued part through a `Slot`: a single-value
//! cell on a mutex that — unlike `mpsc` — supports **wakeup
//! subscription**: each source fires its callbacks exactly once, when
//! it resolves. Slots also carry typed failure (`PartError`): a caught
//! kernel panic or a dropped-past-deadline part is reported instead of
//! silently disconnecting, so tickets can retry or surface a precise
//! error.
//!
//! Nothing computes a part in the background: an in-process band runs
//! its queued batches on whichever thread needs one of its results
//! (see [`batcher`](crate::batcher)). So a waiter *drives* before it
//! parks. `drive_until` is that loop, behind `SlotRx::recv` and
//! `recv_deadline` (which serve [`Ticket::wait`](crate::Ticket::wait)
//! and [`Ticket::wait_deadline`](crate::Ticket::wait_deadline)), a
//! coalesced row's wait, and [`wait_any`]: run the queued batches of
//! every band the wait depends on until something the wait watches
//! resolves or its deadline passes, and park on a wake queue only when
//! every such band is empty or held by another combiner — registered
//! with each, so new work on any of them wakes this thread to run it.
//! The sources push their ticket's index on the same queue, which makes
//! [`wait_any`] O(1) per completion: no poll loop sweeps N tickets per
//! wakeup.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Instant;

use fusedmm_sparse::dense::Dense;

use crate::band::Band;
use crate::ticket::Ticket;

/// A wakeup callback fired when a pending source resolves.
pub(crate) type Watcher = Arc<dyn Fn() + Send + Sync>;

/// Why a band could not answer a part with rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PartError {
    /// The request's deadline passed before its kernel launch; the
    /// work was dropped, not computed.
    Expired,
    /// The kernel launch serving this request panicked (caught at the
    /// launch boundary). The requester may retry on a healthy path.
    Panicked,
}

/// What a band sends back for one enqueued part.
pub(crate) type PartReply = Result<Dense, PartError>;

/// Non-blocking receive outcome.
pub(crate) enum SlotPoll {
    /// Nothing sent yet.
    Pending,
    /// The reply, moved out (a slot resolves exactly once).
    Reply(PartReply),
    /// The sender was dropped without replying (shutdown).
    Closed,
}

#[derive(Default)]
struct SlotState {
    value: Option<PartReply>,
    closed: bool,
    watchers: Vec<Watcher>,
}

struct SlotShared {
    state: Mutex<SlotState>,
    /// The in-process band that resolves this slot, when there is one:
    /// a waiter runs its batches. Weak, so a ticket never keeps an
    /// engine's band alive.
    band: OnceLock<Weak<Band>>,
}

impl SlotShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mark resolved (value or close) and fire every subscribed watcher
    /// — outside the lock, so a watcher may take unrelated locks (the
    /// wake queue's) without ordering risk.
    fn resolve(&self, value: Option<PartReply>) {
        let watchers = {
            let mut st = self.lock();
            match value {
                Some(v) if st.value.is_none() && !st.closed => st.value = Some(v),
                Some(_) => return,
                None => st.closed = true,
            }
            std::mem::take(&mut st.watchers)
        };
        for w in watchers {
            w();
        }
    }
}

/// Sending half of a one-shot reply slot (held by the part).
/// Dropping it unreplied closes the slot.
pub(crate) struct SlotTx {
    shared: Option<Arc<SlotShared>>,
}

/// Receiving half of a one-shot reply slot (held by the ticket).
pub(crate) struct SlotRx {
    shared: Arc<SlotShared>,
}

/// A fresh unresolved slot.
pub(crate) fn slot() -> (SlotTx, SlotRx) {
    let shared =
        Arc::new(SlotShared { state: Mutex::new(SlotState::default()), band: OnceLock::new() });
    (SlotTx { shared: Some(Arc::clone(&shared)) }, SlotRx { shared })
}

impl SlotTx {
    /// Deliver the reply (consumes the sender; a slot resolves once).
    pub fn send(mut self, reply: PartReply) {
        if let Some(shared) = self.shared.take() {
            shared.resolve(Some(reply));
        }
    }

    /// Name the band that will resolve this slot, so its receiver can
    /// run the band's batches while it waits.
    pub fn attach(&self, band: &Arc<Band>) {
        if let Some(shared) = &self.shared {
            let _ = shared.band.set(Arc::downgrade(band));
        }
    }

    /// True once the receiver is gone: nobody can read the reply.
    pub fn is_abandoned(&self) -> bool {
        self.shared.as_ref().is_none_or(|s| Arc::strong_count(s) == 1)
    }
}

impl Drop for SlotTx {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared.resolve(None);
        }
    }
}

impl SlotRx {
    /// Non-blocking probe; a delivered reply is moved out.
    pub fn try_recv(&self) -> SlotPoll {
        let mut st = self.shared.lock();
        match st.value.take() {
            Some(v) => SlotPoll::Reply(v),
            None if st.closed => SlotPoll::Closed,
            None => SlotPoll::Pending,
        }
    }

    /// True once the slot has resolved (reply or close); moves nothing.
    pub fn is_resolved(&self) -> bool {
        let st = self.shared.lock();
        st.value.is_some() || st.closed
    }

    /// Block until the reply lands, running the band's queued batches on
    /// this thread meanwhile; `None` when the sender was dropped without
    /// replying.
    pub fn recv(&self) -> Option<PartReply> {
        match self.recv_until(None) {
            SlotPoll::Reply(reply) => Some(reply),
            SlotPoll::Closed | SlotPoll::Pending => None,
        }
    }

    /// Like [`recv`](Self::recv), until `deadline`: `Pending` on timeout.
    /// No batch starts on this thread past the deadline.
    pub fn recv_deadline(&self, deadline: Instant) -> SlotPoll {
        self.recv_until(Some(deadline))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> SlotPoll {
        let wake = WakeQueue::new();
        self.subscribe(WakeQueue::watcher(&wake, 0));
        let bands: Vec<_> = self.band().into_iter().collect();
        let ready = |_| Some(self.try_recv()).filter(|r| !matches!(r, SlotPoll::Pending));
        drive_until(&bands, &wake, deadline, ready).unwrap_or(SlotPoll::Pending)
    }

    /// The band resolving this slot, while it is in process and alive.
    pub fn band(&self) -> Option<Arc<Band>> {
        self.shared.band.get().and_then(Weak::upgrade)
    }

    /// Register a wakeup callback: fired once when the slot resolves
    /// (reply or close) — immediately, if it already has.
    pub fn subscribe(&self, watcher: Watcher) {
        let fire_now = {
            let mut st = self.shared.lock();
            if st.value.is_some() || st.closed {
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

/// The index a band pushes onto a [`WakeQueue`] when it has work and no
/// combiner: not a ticket, a prompt to drive again.
const KICK: usize = usize::MAX;

/// The wakeup channel behind every blocking wait: completing sources
/// push their ticket's index, bands push [`KICK`], and the waiter parks
/// on the condvar until something arrives.
pub(crate) struct WakeQueue {
    ready: Mutex<VecDeque<usize>>,
    cv: Condvar,
}

impl WakeQueue {
    pub fn new() -> Arc<WakeQueue> {
        Arc::new(WakeQueue { ready: Mutex::new(VecDeque::new()), cv: Condvar::new() })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        self.ready.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A watcher pushing `index` onto `wake`.
    pub fn watcher(wake: &Arc<WakeQueue>, index: usize) -> Watcher {
        let wake = Arc::clone(wake);
        Arc::new(move || wake.push(index))
    }

    pub fn push(&self, index: usize) {
        self.lock().push_back(index);
        self.cv.notify_one();
    }

    pub fn try_pop(&self) -> Option<usize> {
        self.lock().pop_front()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Park until an index is queued (true) or `deadline` passes
    /// (false); leaves the index queued.
    pub fn wait_nonempty(&self, deadline: Option<Instant>) -> bool {
        let mut q = self.lock();
        while q.is_empty() {
            match deadline {
                None => q = self.cv.wait(q).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    q = self.cv.wait_timeout(q, left).unwrap_or_else(|e| e.into_inner()).0;
                }
            }
        }
        true
    }
}

/// The drive-then-park loop behind every blocking wait. Each round
/// asks `ready` about every ticket index `wake` collected, then runs the
/// queued batches of `bands` on this thread — a band another thread is
/// combining is left to that thread — and stops after the batch in
/// which something pushes onto `wake` or `deadline` passes, so a
/// producer that keeps a band busy cannot hold this thread. It parks
/// only when every band is empty or held by a combiner, and registers
/// with each first: a part enqueued on one of them while nobody
/// combines it wakes this thread to run it. `None` once `deadline`
/// passes.
pub(crate) fn drive_until<R>(
    bands: &[Arc<Band>],
    wake: &Arc<WakeQueue>,
    deadline: Option<Instant>,
    mut ready: impl FnMut(usize) -> Option<R>,
) -> Option<R> {
    let kick = WakeQueue::watcher(wake, KICK);
    let past = || deadline.is_some_and(|d| Instant::now() >= d);
    let mut stop = || !wake.is_empty() || past();
    loop {
        while let Some(i) = wake.try_pop() {
            if let Some(r) = (i != KICK).then(|| ready(i)).flatten() {
                return Some(r);
            }
        }
        if past() {
            return None;
        }
        for band in bands {
            band.combine(&mut stop);
            if stop() {
                break;
            }
        }
        let idle = wake.is_empty() && bands.iter().all(|band| band.park(&kick));
        if idle && !wake.wait_nonempty(deadline) {
            return None;
        }
    }
}

/// Block until (at least) one live ticket is harvestable and return its
/// index: `tickets[i].poll()` is then guaranteed to return `Some`.
/// Returns `None` when no live ticket remains (all already harvested).
///
/// Spent tickets in the slice are skipped, so the open-loop pattern is
/// simply: `while let Some(i) = wait_any(&mut window) { let r =
/// window[i].poll().unwrap(); ... }` — no poll sweep. Every pending
/// source of every live ticket pushes its ticket's index onto one
/// shared wake queue, and the bands those tickets wait on are driven
/// on this thread before it parks — so the cost is O(1) per completion
/// instead of O(window) per poll round.
pub fn wait_any<T>(tickets: &mut [Ticket<T>]) -> Option<usize> {
    let mut any_live = false;
    for (i, t) in tickets.iter_mut().enumerate() {
        if !t.is_live() {
            continue;
        }
        any_live = true;
        if t.ready_now() {
            return Some(i);
        }
    }
    if !any_live {
        return None;
    }
    let wake = WakeQueue::new();
    let mut bands = Vec::new();
    for (i, t) in tickets.iter_mut().enumerate() {
        if t.is_live() {
            t.subscribe(WakeQueue::watcher(&wake, i));
            t.bands(&mut bands);
        }
    }
    drive_until(&bands, &wake, None, |i| {
        let t = &mut tickets[i];
        (t.is_live() && t.ready_now()).then_some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rows(v: f32) -> Dense {
        Dense::from_rows(1, 1, &[v]).unwrap()
    }

    #[test]
    fn slot_roundtrip_and_one_shot() {
        let (tx, rx) = slot();
        assert!(matches!(rx.try_recv(), SlotPoll::Pending));
        tx.send(Ok(rows(3.0)));
        match rx.try_recv() {
            SlotPoll::Reply(Ok(z)) => assert_eq!(z.as_slice(), &[3.0]),
            _ => panic!("reply expected"),
        }
        assert!(matches!(rx.try_recv(), SlotPoll::Pending), "a reply is moved out once");
    }

    #[test]
    fn dropped_sender_closes() {
        let (tx, rx) = slot();
        assert!(!tx.is_abandoned());
        drop(tx);
        assert!(rx.is_resolved());
        assert!(matches!(rx.try_recv(), SlotPoll::Closed));
        assert!(rx.recv().is_none());
    }

    #[test]
    fn a_sender_knows_when_its_receiver_is_gone() {
        let (tx, rx) = slot();
        drop(rx);
        assert!(tx.is_abandoned());
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let (tx, rx) = slot();
        let soon = Instant::now() + std::time::Duration::from_millis(5);
        assert!(matches!(rx.recv_deadline(soon), SlotPoll::Pending));
        tx.send(Err(PartError::Panicked));
        let far = Instant::now() + std::time::Duration::from_secs(5);
        assert!(matches!(rx.recv_deadline(far), SlotPoll::Reply(Err(PartError::Panicked))));
    }

    #[test]
    fn recv_blocks_until_cross_thread_send() {
        let (tx, rx) = slot();
        // The sender is released only once this thread is about to
        // block: whichever side runs first afterwards, `recv` must
        // return the reply.
        let about_to_recv = Arc::new(std::sync::Barrier::new(2));
        let released = Arc::clone(&about_to_recv);
        let h = std::thread::spawn(move || {
            released.wait();
            tx.send(Ok(rows(7.0)));
        });
        about_to_recv.wait();
        let z = rx.recv().expect("sender replied").expect("ok");
        assert_eq!(z.as_slice(), &[7.0]);
        h.join().unwrap();
    }

    #[test]
    fn subscribe_fires_on_resolution_and_immediately_when_late() {
        let fired = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = slot();
        let f = Arc::clone(&fired);
        rx.subscribe(Arc::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        tx.send(Ok(rows(1.0)));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "watcher fired on send");
        // Late subscription on an already-resolved slot fires at once.
        let f = Arc::clone(&fired);
        rx.subscribe(Arc::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wake_queue_delivers_in_order() {
        let q = WakeQueue::new();
        q.push(4);
        q.push(9);
        assert!(q.wait_nonempty(None));
        assert_eq!(q.try_pop(), Some(4));
        assert_eq!(q.try_pop(), Some(9));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn wait_any_returns_ready_tickets_and_none_when_spent() {
        let mut window = vec![Ticket::ready(Ok(1usize)), Ticket::ready(Ok(2usize))];
        let mut seen = Vec::new();
        while let Some(i) = wait_any(&mut window) {
            seen.push(window[i].poll().unwrap().unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        assert!(wait_any(&mut window).is_none(), "no live tickets left");
    }
}
