//! The coordinator's replicated epoch log: every feature write as an
//! ordered, replayable record stream, with snapshot compaction so a
//! late joiner catches up in O(state), not O(history).
//!
//! The coordinator [`ship`](EpochLog::ship)s each
//! [`EpochRecord`] here before any worker sees it; the per-worker
//! connection managers read [`catch_up`](EpochLog::catch_up) slices
//! when a worker (re)connects. The log is one base snapshot plus the
//! deltas minted after it. A shipped snapshot — the coordinator's seed
//! or a publish — *is* a base: it replaces the old one and clears the
//! tail, so the log never holds a superseded generation. Deltas fold
//! into the base once the tail grows past the compaction cap, so the
//! log's footprint is bounded by `state + cap × record` no matter how
//! many epochs have ever been minted.
//!
//! Whole generations are shared with whoever shipped them: the base is
//! the allocation the coordinator's store holds (a snapshot record is an
//! `Arc` pair), and the log copies it only when a fold has to patch
//! delta rows into a base somebody else still holds. The log keeps
//! whole records — all of `X` — and each record is narrowed to a
//! worker's band as it is written to that worker's socket.

use std::collections::VecDeque;
use std::sync::Arc;

use fusedmm_serve::remote::EpochRecord;
use parking_lot::Mutex;

/// Deltas kept in the tail before folding into the base snapshot.
/// Catch-up for a worker lagging within the tail replays deltas
/// (cheap); one lagging past it gets the snapshot (complete).
const COMPACT_AFTER: usize = 64;

struct Inner {
    /// The latest snapshot, as it was shipped (or folded) — what a
    /// fresh joiner receives first.
    base: Option<EpochRecord>,
    /// Deltas minted after the base, epoch-ordered.
    tail: VecDeque<EpochRecord>,
}

/// The append-only (logically) epoch log. Thread-safe; `ship` and
/// `catch_up` may race freely — a record is either in the slice a
/// reconnecting worker receives or ordered after it on the live
/// stream, never both, provided the caller serializes live delivery
/// against catch-up (the client's `ship_order` lock does).
pub struct EpochLog {
    inner: Mutex<Inner>,
}

impl EpochLog {
    /// An empty log (no epochs shipped yet).
    pub fn new() -> EpochLog {
        EpochLog { inner: Mutex::new(Inner { base: None, tail: VecDeque::new() }) }
    }

    /// Append one record: a snapshot becomes the base and clears the
    /// tail, a delta joins the tail, which folds into the base when it
    /// grows past the compaction cap.
    ///
    /// # Panics
    /// Panics on a snapshot that holds only some rows of `X`
    /// (`x_start != 0`): the log keeps whole generations.
    pub fn ship(&self, record: &EpochRecord) {
        let mut inner = self.inner.lock();
        match record {
            EpochRecord::Snapshot { x_start, .. } => {
                assert_eq!(*x_start, 0, "the epoch log keeps whole generations");
                inner.base = Some(record.clone());
                inner.tail.clear();
            }
            EpochRecord::Delta { .. } => inner.tail.push_back(record.clone()),
        }
        if inner.tail.len() > COMPACT_AFTER {
            inner.compact();
        }
    }

    /// The latest epoch in the log, or `None` before the first ship.
    pub fn latest(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner.tail.back().or(inner.base.as_ref()).map(EpochRecord::epoch)
    }

    /// The record slice that brings a worker to the head of the log:
    /// `from = None` (a fresh replica, or one lagging past the base)
    /// gets the base snapshot plus the tail; `from = Some(e)` with `e`
    /// at or after the base epoch gets only the tail records minting
    /// epochs `> e`. Empty when the worker is already current (or the
    /// log is).
    pub fn catch_up(&self, from: Option<u64>) -> Vec<EpochRecord> {
        let inner = self.inner.lock();
        let base_epoch = inner.base.as_ref().map(EpochRecord::epoch);
        match from {
            Some(e) if base_epoch.is_none_or(|b| e >= b) => {
                inner.tail.iter().filter(|r| r.epoch() > e).cloned().collect()
            }
            _ => inner.base.iter().chain(&inner.tail).cloned().collect(),
        }
    }
}

impl Default for EpochLog {
    fn default() -> EpochLog {
        EpochLog::new()
    }
}

impl Inner {
    /// Fold the whole tail of deltas into the base snapshot. Requires a
    /// base (a delta tail without a base can't be folded — keep it).
    fn compact(&mut self) {
        let Some(EpochRecord::Snapshot { mut epoch, x_start, mut x, mut y }) = self.base.take()
        else {
            return;
        };
        for record in self.tail.drain(..) {
            let EpochRecord::Delta { epoch: e, rows, x_rows, y_rows } = record else {
                unreachable!("a snapshot clears the tail");
            };
            epoch = e;
            // The one place the log copies a generation: the first
            // delta folded into a base the store (or a queued record)
            // still holds. Later deltas of the same fold find it
            // unshared.
            let (x, y) = (Arc::make_mut(&mut x), Arc::make_mut(&mut y));
            for (i, &r) in rows.iter().enumerate() {
                x.row_mut(r).copy_from_slice(x_rows.row(i));
                y.row_mut(r).copy_from_slice(y_rows.row(i));
            }
        }
        self.base = Some(EpochRecord::Snapshot { epoch, x_start, x, y });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::Dense;

    fn snap(epoch: u64, fill: f32) -> EpochRecord {
        EpochRecord::Snapshot {
            epoch,
            x_start: 0,
            x: Arc::new(Dense::filled(4, 2, fill)),
            y: Arc::new(Dense::filled(4, 2, fill)),
        }
    }

    fn delta(epoch: u64, row: usize, fill: f32) -> EpochRecord {
        EpochRecord::Delta {
            epoch,
            rows: vec![row],
            x_rows: Dense::filled(1, 2, fill),
            y_rows: Dense::filled(1, 2, fill),
        }
    }

    #[test]
    fn fresh_gets_snapshot_plus_tail_lagging_gets_tail() {
        let log = EpochLog::new();
        log.ship(&snap(0, 0.0));
        log.ship(&delta(1, 0, 1.0));
        log.ship(&delta(2, 1, 2.0));
        assert_eq!(log.latest(), Some(2));

        let fresh = log.catch_up(None);
        assert_eq!(fresh.len(), 3);
        assert!(matches!(fresh[0], EpochRecord::Snapshot { epoch: 0, .. }));
        assert_eq!(fresh[2].epoch(), 2);

        let lagging = log.catch_up(Some(1));
        assert_eq!(lagging.len(), 1);
        assert_eq!(lagging[0].epoch(), 2);

        assert!(log.catch_up(Some(2)).is_empty());
    }

    #[test]
    fn compaction_folds_deltas_into_the_base() {
        let log = EpochLog::new();
        log.ship(&snap(0, 0.0));
        for e in 1..=(COMPACT_AFTER as u64 + 10) {
            log.ship(&delta(e, (e as usize) % 4, e as f32));
        }
        let records = log.catch_up(None);
        // Post-compaction: one snapshot base plus a short tail, and
        // the fold applied every delta.
        let EpochRecord::Snapshot { epoch, x, .. } = &records[0] else {
            panic!("compacted log starts with a snapshot");
        };
        assert!(*epoch >= COMPACT_AFTER as u64, "base advanced past the fold");
        assert!(records.len() <= COMPACT_AFTER + 1);
        // Row touched by the last folded delta carries its fill.
        let last_folded = *epoch;
        assert_eq!(x.row((last_folded as usize) % 4)[0], last_folded as f32);
        assert_eq!(log.latest(), Some(COMPACT_AFTER as u64 + 10));
    }

    #[test]
    fn catch_up_from_before_the_base_falls_back_to_snapshot() {
        let log = EpochLog::new();
        log.ship(&snap(10, 1.0));
        log.ship(&delta(11, 0, 2.0));
        let records = log.catch_up(Some(3));
        assert!(matches!(records[0], EpochRecord::Snapshot { epoch: 10, .. }));
        assert_eq!(records.len(), 2);
    }
}
