//! One-shot completion slots, and the one drive-then-park loop every
//! blocking wait runs.
//!
//! A band answers each enqueued part through a `Slot`: a single-value
//! cell on a mutex that — unlike `mpsc` — supports **wakeup
//! subscription**: each source fires its watchers exactly once, when
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
//! resolves or its deadline passes, and park only when no such band
//! holds work this thread should run — registered with each, so new
//! work on any of them wakes this thread to run it.
//!
//! A blocking call runs its own parts. `embed` — and a worker serving
//! its coordinator's part, also embed-then-wait on one thread — marks
//! each part it dispatches with the calling thread's `Claim`, and only
//! that thread runs a claimed part (until its ticket is gone), so two
//! callers never sleep on each other's combiner. Ticket parts carry no
//! claim: any waiter on their band runs them.
//!
//! Where a wait parks is a `Wake`. A slot is its own: its receiver
//! parks on the slot's condvar, woken by the slot resolving or by a
//! band's kick, so a single-slot wait allocates nothing. [`wait_any`]
//! parks on a `WakeQueue` onto which every source of every ticket in
//! the window pushes its ticket's index, which makes it O(1) per
//! completion: no poll loop sweeps N tickets per wakeup. A kick is a
//! flag, never an index, so it cannot be mistaken for a completion.

use std::collections::VecDeque;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Instant;

use fusedmm_sparse::dense::Dense;

use crate::band::Band;
use crate::ticket::Ticket;

/// The mark a blocking caller puts on the parts it dispatches: only
/// the thread holding the claim runs them, on its own thread, while it
/// waits for them. One per thread, fixed for the thread's life; a
/// thread-local counter value, not `thread::current()`, which clones an
/// `Arc` on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Claim(NonZeroU64);

impl Claim {
    /// The calling thread's claim.
    pub fn mine() -> Claim {
        thread_local! {
            static MINE: Claim = Claim::fresh();
        }
        MINE.with(|c| *c)
    }

    /// A claim no thread holds yet.
    pub fn fresh() -> Claim {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Claim(NonZeroU64::new(NEXT.fetch_add(1, Ordering::Relaxed)).expect("claim ids run out"))
    }
}

/// Who to tell when a source resolves or a band has work nobody runs.
#[derive(Clone)]
pub(crate) enum Watcher {
    /// Prompt the waiter parked on this queue to drive again. Weak: a
    /// waiter that moved on leaves a dead entry, pruned by the band.
    Kick(Weak<WakeQueue>),
    /// Prompt the receiver parked in this slot to drive again (weak, as
    /// above).
    Slot(Weak<SlotShared>),
    /// Report ticket `index` ready on a window's wake queue.
    Ready(Arc<WakeQueue>, usize),
}

impl Watcher {
    pub fn fire(&self) {
        match self {
            Watcher::Kick(q) => {
                if let Some(q) = q.upgrade() {
                    q.kick();
                }
            }
            Watcher::Slot(s) => {
                if let Some(s) = s.upgrade() {
                    s.kick();
                }
            }
            Watcher::Ready(q, index) => q.push(*index),
        }
    }

    /// False once the waiter behind a weak watcher is gone.
    pub fn is_live(&self) -> bool {
        match self {
            Watcher::Kick(q) => q.strong_count() > 0,
            Watcher::Slot(s) => s.strong_count() > 0,
            Watcher::Ready(..) => true,
        }
    }

    /// True when both watchers tell the same waiter the same thing.
    pub fn same(&self, other: &Watcher) -> bool {
        match (self, other) {
            (Watcher::Kick(a), Watcher::Kick(b)) => a.ptr_eq(b),
            (Watcher::Slot(a), Watcher::Slot(b)) => a.ptr_eq(b),
            (Watcher::Ready(a, i), Watcher::Ready(b, j)) => Arc::ptr_eq(a, b) && i == j,
            _ => false,
        }
    }

    /// This watcher as a callback, for the result cache's row waiters.
    pub fn into_callback(self) -> Arc<dyn Fn() + Send + Sync> {
        Arc::new(move || self.fire())
    }
}

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

/// Where a blocking wait parks between drives: a flag for band kicks
/// plus whatever the wait watches, under one mutex and condvar.
pub(crate) trait Wake {
    /// Forget earlier kicks; called before each look at the sources, so
    /// a kick landing after it is seen.
    fn rearm(&self);
    /// True once a watched source resolved or a band kicked since the
    /// last [`rearm`](Self::rearm).
    fn signalled(&self) -> bool;
    /// Park until [`signalled`](Self::signalled) (true) or `deadline`
    /// passes (false).
    fn park(&self, deadline: Option<Instant>) -> bool;
}

/// Wait on `cv` under `guard` until `done` holds (true) or `deadline`
/// passes (false).
fn park_on<T>(
    cv: &Condvar,
    mut guard: MutexGuard<'_, T>,
    deadline: Option<Instant>,
    done: impl Fn(&T) -> bool,
) -> bool {
    while !done(&guard) {
        match deadline {
            None => guard = cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                guard = cv.wait_timeout(guard, left).unwrap_or_else(|e| e.into_inner()).0;
            }
        }
    }
    true
}

#[derive(Default)]
struct SlotState {
    value: Option<PartReply>,
    closed: bool,
    /// A band kicked the receiver since its last look.
    kicked: bool,
    watchers: Vec<Watcher>,
}

impl SlotState {
    fn resolved(&self) -> bool {
        self.value.is_some() || self.closed
    }
}

/// The shared cell of one slot — also its receiver's [`Wake`].
pub(crate) struct SlotShared {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// The in-process band that resolves this slot, when there is one:
    /// a waiter runs its batches. Weak, so a ticket never keeps an
    /// engine's band alive.
    band: OnceLock<Weak<Band>>,
}

impl SlotShared {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mark resolved (value or close), wake the receiver and fire every
    /// subscribed watcher — outside the lock, so a watcher may take
    /// unrelated locks (a wake queue's) without ordering risk.
    fn resolve(&self, value: Option<PartReply>) {
        let watchers = {
            let mut st = self.lock();
            match value {
                Some(v) if !st.resolved() => st.value = Some(v),
                Some(_) => return,
                None => st.closed = true,
            }
            std::mem::take(&mut st.watchers)
        };
        self.cv.notify_all();
        for w in &watchers {
            w.fire();
        }
    }

    fn kick(&self) {
        self.lock().kicked = true;
        self.cv.notify_all();
    }
}

impl Wake for SlotShared {
    fn rearm(&self) {
        self.lock().kicked = false;
    }

    fn signalled(&self) -> bool {
        let st = self.lock();
        st.kicked || st.resolved()
    }

    fn park(&self, deadline: Option<Instant>) -> bool {
        park_on(&self.cv, self.lock(), deadline, |st| st.kicked || st.resolved())
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
    let shared = Arc::new(SlotShared {
        state: Mutex::new(SlotState::default()),
        cv: Condvar::new(),
        band: OnceLock::new(),
    });
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
        self.shared.lock().resolved()
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

    /// The wait parks on the slot itself: nothing to allocate.
    fn recv_until(&self, deadline: Option<Instant>) -> SlotPoll {
        let band = self.band();
        let kick = Watcher::Slot(Arc::downgrade(&self.shared));
        let ready = || Some(self.try_recv()).filter(|r| !matches!(r, SlotPoll::Pending));
        drive_until(band.as_slice(), &*self.shared, &kick, deadline, ready)
            .unwrap_or(SlotPoll::Pending)
    }

    /// The band resolving this slot, while it is in process and alive.
    pub fn band(&self) -> Option<Arc<Band>> {
        self.shared.band.get().and_then(Weak::upgrade)
    }

    /// Register a watcher: fired once when the slot resolves (reply or
    /// close) — immediately, if it already has.
    pub fn subscribe(&self, watcher: Watcher) {
        let mut st = self.shared.lock();
        if st.resolved() {
            drop(st);
            watcher.fire();
        } else {
            st.watchers.push(watcher);
        }
    }
}

#[derive(Default)]
struct WakeState {
    ready: VecDeque<usize>,
    kicked: bool,
}

/// The wake channel of a wait over several sources ([`wait_any`], a
/// coalesced row): completing sources push their ticket's index, bands
/// kick, and the waiter parks on the condvar until either arrives.
pub(crate) struct WakeQueue {
    state: Mutex<WakeState>,
    cv: Condvar,
}

impl WakeQueue {
    pub fn new() -> Arc<WakeQueue> {
        Arc::new(WakeQueue { state: Mutex::new(WakeState::default()), cv: Condvar::new() })
    }

    fn lock(&self) -> MutexGuard<'_, WakeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn push(&self, index: usize) {
        self.lock().ready.push_back(index);
        self.cv.notify_one();
    }

    fn kick(&self) {
        self.lock().kicked = true;
        self.cv.notify_one();
    }

    pub fn try_pop(&self) -> Option<usize> {
        self.lock().ready.pop_front()
    }
}

impl Wake for WakeQueue {
    fn rearm(&self) {
        self.lock().kicked = false;
    }

    fn signalled(&self) -> bool {
        let st = self.lock();
        st.kicked || !st.ready.is_empty()
    }

    fn park(&self, deadline: Option<Instant>) -> bool {
        park_on(&self.cv, self.lock(), deadline, |st| st.kicked || !st.ready.is_empty())
    }
}

/// The drive-then-park loop behind every blocking wait. Each round
/// asks `ready` whether the wait is over, then runs the queued batches
/// of `bands` on this thread — its own claimed parts always, unclaimed
/// ones unless another thread already combines the band — and stops
/// after the batch in which `wake` is signalled or `deadline` passes,
/// so a producer that keeps a band busy cannot hold this thread. It
/// parks only when no band holds work this thread should run, and
/// registers `kick` with each first: unclaimed work left on one of them
/// with nobody combining it wakes this thread to run it. `None` once
/// `deadline` passes.
pub(crate) fn drive_until<R>(
    bands: &[Arc<Band>],
    wake: &impl Wake,
    kick: &Watcher,
    deadline: Option<Instant>,
    mut ready: impl FnMut() -> Option<R>,
) -> Option<R> {
    let past = || deadline.is_some_and(|d| Instant::now() >= d);
    let mut stop = || wake.signalled() || past();
    let claim = Claim::mine();
    loop {
        wake.rearm();
        if let Some(r) = ready() {
            return Some(r);
        }
        if past() {
            return None;
        }
        for band in bands {
            band.combine(claim, &mut stop);
            if stop() {
                break;
            }
        }
        let idle = !wake.signalled() && bands.iter().all(|band| band.park(kick, claim));
        if idle && !wake.park(deadline) {
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
            t.subscribe(Watcher::Ready(Arc::clone(&wake), i));
            t.bands(&mut bands);
        }
    }
    let kick = Watcher::Kick(Arc::downgrade(&wake));
    drive_until(&bands, &*wake, &kick, None, || {
        while let Some(i) = wake.try_pop() {
            let t = &mut tickets[i];
            if t.is_live() && t.ready_now() {
                return Some(i);
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A window's wake queue and the index a watcher reports on it.
    fn ready_watcher(index: usize) -> (Arc<WakeQueue>, Watcher) {
        let q = WakeQueue::new();
        let w = Watcher::Ready(Arc::clone(&q), index);
        (q, w)
    }

    #[test]
    fn subscribe_fires_on_resolution_and_immediately_when_late() {
        let (tx, rx) = slot();
        let (q, w) = ready_watcher(3);
        rx.subscribe(w);
        assert_eq!(q.try_pop(), None);
        tx.send(Ok(rows(1.0)));
        assert_eq!(q.try_pop(), Some(3), "watcher fired on send");
        // Late subscription on an already-resolved slot fires at once.
        let (late, w) = ready_watcher(5);
        rx.subscribe(w);
        assert_eq!(late.try_pop(), Some(5));
    }

    #[test]
    fn wake_queue_delivers_in_order_and_kicks_carry_no_index() {
        let q = WakeQueue::new();
        Watcher::Kick(Arc::downgrade(&q)).fire();
        assert!(q.signalled() && q.park(None), "a kick wakes the parked waiter");
        assert_eq!(q.try_pop(), None, "a kick is not an index");
        q.rearm();
        assert!(!q.signalled());
        q.push(4);
        q.push(9);
        assert!(q.park(None));
        assert_eq!(q.try_pop(), Some(4));
        assert_eq!(q.try_pop(), Some(9));
        assert_eq!(q.try_pop(), None);
    }

    /// The receiver parks on the slot itself, and a send from another
    /// thread — here well after it parked — wakes it with the reply.
    #[test]
    fn a_slot_resolved_from_another_thread_wakes_its_parked_receiver() {
        for delay_ms in [0u64, 20] {
            let (tx, rx) = slot();
            let h = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                tx.send(Ok(rows(delay_ms as f32)));
            });
            let z = rx.recv().expect("sender replied").expect("ok");
            assert_eq!(z.as_slice(), &[delay_ms as f32]);
            h.join().unwrap();
        }
    }

    /// A band keeps the kick a wait registered after that wait returned
    /// (it is pruned only once the slot is gone). Fired later, it wakes
    /// the slot's next wait to drive again — and is never mistaken for
    /// the slot resolving, however often it fires.
    #[test]
    fn a_stale_band_kick_is_never_a_completion() {
        let (tx, rx) = slot();
        let stale = Watcher::Slot(Arc::downgrade(&rx.shared));
        let soon = || Instant::now() + std::time::Duration::from_millis(5);
        assert!(matches!(rx.recv_deadline(soon()), SlotPoll::Pending));
        for _ in 0..3 {
            stale.fire();
            assert!(matches!(rx.recv_deadline(soon()), SlotPoll::Pending), "a kick is no reply");
            assert!(!rx.is_resolved());
        }
        let (q, w) = ready_watcher(7);
        rx.subscribe(w);
        stale.fire();
        assert_eq!(q.try_pop(), None, "subscribers hear completions, not kicks");
        tx.send(Ok(rows(2.0)));
        assert_eq!(q.try_pop(), Some(7));
        assert!(matches!(rx.recv_deadline(soon()), SlotPoll::Reply(Ok(_))));
        assert!(stale.is_live(), "alive while the receiver is");
        drop(rx);
        assert!(!stale.is_live(), "a band prunes it once the slot is gone");
        stale.fire();
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
