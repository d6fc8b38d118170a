//! One-shot completion slots and multi-ticket waiting.
//!
//! The dispatcher answers each enqueued request through a `Slot`: a
//! single-value channel built on a mutex/condvar pair that — unlike
//! `mpsc` — supports **wakeup subscription**. A harvest can register a
//! callback on every source it still waits on and then park once;
//! each source fires its callbacks exactly once, when it resolves.
//! That is what makes [`wait_any`] O(1) per completion: no poll loop
//! sweeps N tickets per wakeup — the completing source pushes its
//! ticket's index onto a shared `WakeQueue` and exactly that ticket
//! is re-checked.
//!
//! Slots also carry typed failure (`PartError`): the dispatcher
//! reports a caught kernel panic or a dropped-past-deadline request
//! instead of silently disconnecting, so tickets can retry or surface
//! a precise error.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use fusedmm_sparse::dense::Dense;

use crate::ticket::Ticket;

/// A wakeup callback fired when a pending source resolves.
pub(crate) type Watcher = Arc<dyn Fn() + Send + Sync>;

/// Why the dispatcher could not answer a request with rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PartError {
    /// The request's deadline passed before its kernel launch; the
    /// work was dropped, not computed.
    Expired,
    /// The kernel launch serving this request panicked (caught at the
    /// dispatch boundary). The requester may retry on a healthy path.
    Panicked,
}

/// What the dispatcher sends back for one enqueued request.
pub(crate) type PartReply = Result<Dense, PartError>;

/// Non-blocking receive outcome.
pub(crate) enum SlotPoll {
    /// Nothing sent yet (on `recv_deadline`: the deadline passed).
    Pending,
    /// The reply, moved out (a slot resolves exactly once).
    Reply(PartReply),
    /// The sender was dropped without replying (dispatcher died).
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
    cv: Condvar,
}

impl SlotShared {
    /// Mark resolved (value or close), wake blocked receivers, and fire
    /// every subscribed watcher — outside the lock, so a watcher may
    /// take unrelated locks (the wake queue's) without ordering risk.
    fn resolve(&self, value: Option<PartReply>) {
        let watchers = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            match value {
                Some(v) if st.value.is_none() && !st.closed => st.value = Some(v),
                Some(_) => return,
                None => st.closed = true,
            }
            std::mem::take(&mut st.watchers)
        };
        self.cv.notify_all();
        for w in watchers {
            w();
        }
    }
}

/// Sending half of a one-shot reply slot (held by the dispatcher).
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
        Arc::new(SlotShared { state: Mutex::new(SlotState::default()), cv: Condvar::new() });
    (SlotTx { shared: Some(Arc::clone(&shared)) }, SlotRx { shared })
}

impl SlotTx {
    /// Deliver the reply (consumes the sender; a slot resolves once).
    pub fn send(mut self, reply: PartReply) {
        if let Some(shared) = self.shared.take() {
            shared.resolve(Some(reply));
        }
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
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        match st.value.take() {
            Some(v) => SlotPoll::Reply(v),
            None if st.closed => SlotPoll::Closed,
            None => SlotPoll::Pending,
        }
    }

    /// Park until the reply lands; `None` when the sender was dropped
    /// without replying.
    pub fn recv(&self) -> Option<PartReply> {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = st.value.take() {
                return Some(v);
            }
            if st.closed {
                return None;
            }
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Park until the reply lands, the sender drops, or `deadline`
    /// passes — condvar-based, so precision does not depend on any
    /// poll cadence.
    pub fn recv_deadline(&self, deadline: Instant) -> SlotPoll {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = st.value.take() {
                return SlotPoll::Reply(v);
            }
            if st.closed {
                return SlotPoll::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return SlotPoll::Pending;
            }
            let (guard, _timeout) =
                self.shared.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Register a wakeup callback: fired once when the slot resolves
    /// (reply or close) — immediately, if it already has.
    pub fn subscribe(&self, watcher: Watcher) {
        let fire_now = {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
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

/// The shared wakeup channel behind [`wait_any`]: completing sources
/// push their ticket's index; the waiter parks on the condvar and
/// re-checks only the indicated ticket.
pub(crate) struct WakeQueue {
    ready: Mutex<VecDeque<usize>>,
    cv: Condvar,
}

impl WakeQueue {
    pub fn new() -> WakeQueue {
        WakeQueue { ready: Mutex::new(VecDeque::new()), cv: Condvar::new() }
    }

    pub fn push(&self, index: usize) {
        self.ready.lock().unwrap_or_else(|e| e.into_inner()).push_back(index);
        self.cv.notify_one();
    }

    pub fn wait(&self) -> usize {
        let mut q = self.ready.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(i) = q.pop_front() {
                return i;
            }
            q = self.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Block until (at least) one live ticket is harvestable and return its
/// index: `tickets[i].poll()` is then guaranteed to return `Some`.
/// Returns `None` when no live ticket remains (all already harvested).
///
/// Spent tickets in the slice are skipped, so the open-loop pattern is
/// simply: `while let Some(i) = wait_any(&mut window) { let r =
/// window[i].poll().unwrap(); ... }` — no poll sweep. Internally every
/// pending source of every live ticket carries a subscription pushing
/// its ticket's index onto one shared `WakeQueue`, making the cost
/// O(1) per completion instead of O(window) per poll round.
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
    let wake = Arc::new(WakeQueue::new());
    let mut watchers: Vec<Option<Watcher>> = (0..tickets.len()).map(|_| None).collect();
    for (i, t) in tickets.iter_mut().enumerate() {
        if !t.is_live() {
            continue;
        }
        let w: Watcher = {
            let wake = Arc::clone(&wake);
            Arc::new(move || wake.push(i))
        };
        watchers[i] = Some(w.clone());
        t.subscribe(w);
    }
    loop {
        let i = wake.wait();
        if !tickets[i].is_live() {
            continue;
        }
        if tickets[i].ready_now() {
            return Some(i);
        }
        // Progress without completion (e.g. a failed part re-enqueued
        // on its retry path swapped in a fresh, unwatched slot):
        // re-subscribe so the new source wakes us too. Duplicate
        // subscriptions on still-pending sources only cost spurious
        // queue entries, which this loop drains.
        if let Some(w) = &watchers[i] {
            tickets[i].subscribe(w.clone());
        }
    }
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
        drop(tx);
        assert!(matches!(rx.try_recv(), SlotPoll::Closed));
        assert!(rx.recv().is_none());
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
        let q = Arc::new(WakeQueue::new());
        q.push(4);
        q.push(9);
        assert_eq!(q.wait(), 4);
        assert_eq!(q.wait(), 9);
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
