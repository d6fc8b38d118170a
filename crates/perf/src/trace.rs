//! Low-overhead request-lifecycle tracing for the serving stack.
//!
//! A serving request crosses threads: admission happens on the caller
//! thread, batch formation and the kernel on the dispatcher thread
//! (one per shard), harvest on whoever polls the ticket. Aggregate
//! histograms cannot attribute a slow p99 to *which stage* of *which
//! request* stalled; spans can. [`Tracer`] provides them with a
//! recording hot path cheap enough to leave compiled in:
//!
//! * **Sampling first.** A root span is admitted 1-in-N
//!   ([`Tracer::sample_root`]); an unsampled request takes one relaxed
//!   `fetch_add` and no further work — every downstream span site is
//!   behind an `Option` that is `None`.
//! * **Per-thread lock-free rings.** A sampled span is recorded into
//!   the recording thread's own fixed-size ring buffer (registered
//!   lazily, one per thread per tracer), so recording threads never
//!   contend with each other. Each slot is a seqlock — the single
//!   writer bumps the slot's sequence to odd, stores the fields, bumps
//!   it back to even — so a concurrent dump skips torn slots instead
//!   of blocking the writer. Rings overwrite oldest-first; a dump is
//!   the last `capacity` spans per thread.
//! * **Monotonic timestamps.** [`Tracer::now`] is nanoseconds since
//!   the tracer's creation instant, so spans recorded on different
//!   threads order correctly.
//!
//! Spans carry a [`SpanCtx`] — trace id, span id, parent span id —
//! that is `Copy` and travels with the request through queues and
//! tickets. The emission points (batcher enqueue, dispatcher batch
//! formation, per-shard kernel launch, cache route/fill, ticket
//! harvest) are wired in `fusedmm-serve`; one coalesced batch records
//! its batch/kernel spans once per *sampled* request in the group, so
//! every sampled request owns a complete tree.
//!
//! A tracer records only what its owner configured: an engine traces
//! through the [`Tracer`] its config names and through none when it
//! names none. [`Tracer::chrome_json`] dumps everything recorded as a
//! chrome://tracing / Perfetto "complete event" array.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where in the request lifecycle a span was emitted. A closed set
/// (rather than free-form names) keeps the recording slot a handful of
/// atomic words with no interning or unsafe string reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Root: one whole `embed_begin` → harvest request.
    Embed,
    /// Cache probe + miss routing (split, own/coalesce decisions).
    CacheRoute,
    /// Handing the request (or one shard's slice of it) to a batcher.
    Enqueue,
    /// Dispatcher batch formation: coalesce + dedup of one tick.
    Batch,
    /// The fused kernel launch computing the batch's row union.
    Kernel,
    /// Back-filling computed rows into the cache and its waiters.
    CacheFill,
    /// A harvest call that resolved the ticket.
    Harvest,
    /// One remote shard part's round trip: request frame sent →
    /// response frame resolved (multi-process serving).
    Rpc,
}

impl SpanKind {
    /// Stable lowercase label (used in dumps and docs).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Embed => "embed",
            SpanKind::CacheRoute => "cache_route",
            SpanKind::Enqueue => "enqueue",
            SpanKind::Batch => "batch",
            SpanKind::Kernel => "kernel",
            SpanKind::CacheFill => "cache_fill",
            SpanKind::Harvest => "harvest",
            SpanKind::Rpc => "rpc",
        }
    }

    fn from_u64(v: u64) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::Embed,
            1 => SpanKind::CacheRoute,
            2 => SpanKind::Enqueue,
            3 => SpanKind::Batch,
            4 => SpanKind::Kernel,
            5 => SpanKind::CacheFill,
            6 => SpanKind::Harvest,
            7 => SpanKind::Rpc,
            _ => return None,
        })
    }
}

/// The identity a sampled span carries with it across threads: which
/// trace it belongs to, its own span id, and its parent's span id
/// (`0` for a root). Span ids are unique per tracer across all traces,
/// so a parent link can never resolve into another request's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// Trace (request) id, from 1.
    pub trace: u64,
    /// This span's id, from 1.
    pub span: u64,
    /// Parent span id; 0 when this is the trace root.
    pub parent: u64,
}

/// One recorded span, decoded out of a ring by [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace (request) id.
    pub trace: u64,
    /// This span's unique id.
    pub span: u64,
    /// Parent span id; 0 for the root.
    pub parent: u64,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Start, nanoseconds since tracer creation.
    pub start_ns: u64,
    /// End, nanoseconds since tracer creation.
    pub end_ns: u64,
    /// Owning shard, when the stage is shard-specific.
    pub shard: Option<usize>,
    /// Rows touched at this stage (requested, batched, or computed).
    pub rows: u64,
    /// Index of the recording thread's ring (a stable per-thread tag).
    pub thread: usize,
}

const FIELDS: usize = 8;
const F_TRACE: usize = 0;
const F_SPAN: usize = 1;
const F_PARENT: usize = 2;
const F_KIND: usize = 3;
const F_START: usize = 4;
const F_END: usize = 5;
const F_SHARD: usize = 6; // shard + 1; 0 = none
const F_ROWS: usize = 7;

struct Slot {
    /// Seqlock: odd while the owner thread is writing; readers retry
    /// (skip) on odd or on a change across their field reads. Starts
    /// at 0 = never written.
    seq: AtomicU64,
    data: [AtomicU64; FIELDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { seq: AtomicU64::new(0), data: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// One thread's span ring. Exactly one thread ever writes (the thread
/// that lazily registered it); any thread may snapshot.
struct SpanRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl SpanRing {
    fn new(capacity: usize) -> SpanRing {
        let cap = capacity.next_power_of_two().max(8);
        SpanRing { slots: (0..cap).map(|_| Slot::new()).collect(), head: AtomicU64::new(0) }
    }

    /// Owner-thread only.
    fn push(&self, vals: [u64; FIELDS]) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[h as usize & (self.slots.len() - 1)];
        let s = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(s + 1, Ordering::Release); // odd: write in progress
        for (d, v) in slot.data.iter().zip(vals) {
            d.store(v, Ordering::Release);
        }
        slot.seq.store(s + 2, Ordering::Release); // even: consistent
        self.head.store(h + 1, Ordering::Release);
    }

    /// Any thread; skips slots being overwritten right now.
    fn snapshot(&self, thread: usize, out: &mut Vec<SpanRecord>) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let mut vals = [0u64; FIELDS];
            for (v, d) in vals.iter_mut().zip(&slot.data) {
                *v = d.load(Ordering::Acquire);
            }
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // torn: the owner lapped us mid-read
            }
            let Some(kind) = SpanKind::from_u64(vals[F_KIND]) else { continue };
            out.push(SpanRecord {
                trace: vals[F_TRACE],
                span: vals[F_SPAN],
                parent: vals[F_PARENT],
                kind,
                start_ns: vals[F_START],
                end_ns: vals[F_END],
                shard: (vals[F_SHARD] > 0).then(|| vals[F_SHARD] as usize - 1),
                rows: vals[F_ROWS],
                thread,
            });
        }
    }
}

/// A sampling span recorder: [`Tracer::new`] at a sample rate, or
/// [`Tracer::disabled`].
pub struct Tracer {
    /// Admit 1 root in `every`; 0 = tracing disabled.
    every: u64,
    /// Per-thread ring capacity (slots).
    capacity: usize,
    /// Distinguishes tracers in the thread-local ring table.
    id: usize,
    epoch: Instant,
    attempts: AtomicU64,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    rings: Mutex<Vec<Arc<SpanRing>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("every", &self.every)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// This thread's rings, one per tracer it has recorded into.
    static THREAD_RINGS: RefCell<Vec<(usize, Arc<SpanRing>)>> = const { RefCell::new(Vec::new()) };
}

static TRACER_IDS: AtomicUsize = AtomicUsize::new(0);

impl Tracer {
    /// A tracer sampling roots at `rate` (clamped to `[0, 1]`; `0`
    /// disables) with `capacity` span slots per recording thread.
    pub fn new(rate: f64, capacity: usize) -> Arc<Tracer> {
        let every = if rate > 0.0 { (1.0 / rate.min(1.0)).round().max(1.0) as u64 } else { 0 };
        Arc::new(Tracer {
            every,
            capacity,
            id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            attempts: AtomicU64::new(0),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
        })
    }

    /// A tracer that samples nothing (every span site short-circuits).
    pub fn disabled() -> Arc<Tracer> {
        Tracer::new(0.0, 8)
    }

    /// Whether any root can ever be sampled. Span sites may use this
    /// to skip even the cheap work when tracing is off.
    pub fn enabled(&self) -> bool {
        self.every > 0
    }

    /// Sampling decision for a new request: `Some` root context for
    /// 1-in-N calls, `None` otherwise (and always when disabled).
    pub fn sample_root(&self) -> Option<SpanCtx> {
        if self.every == 0 {
            return None;
        }
        let n = self.attempts.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.every) {
            return None;
        }
        let trace = self.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
        let span = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        Some(SpanCtx { trace, span, parent: 0 })
    }

    /// A child context under `parent` (same trace, fresh span id).
    pub fn child(&self, parent: SpanCtx) -> SpanCtx {
        let span = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        SpanCtx { trace: parent.trace, span, parent: parent.span }
    }

    /// Nanoseconds since tracer creation — the span timestamp base.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Record one closed span into the calling thread's ring.
    pub fn record(
        &self,
        ctx: SpanCtx,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        shard: Option<usize>,
        rows: u64,
    ) {
        let vals = [
            ctx.trace,
            ctx.span,
            ctx.parent,
            kind as u64,
            start_ns,
            end_ns.max(start_ns),
            shard.map_or(0, |s| s as u64 + 1),
            rows,
        ];
        THREAD_RINGS.with(|rings| {
            let mut rings = rings.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(id, _)| *id == self.id) {
                ring.push(vals);
                return;
            }
            let ring = Arc::new(SpanRing::new(self.capacity));
            self.rings.lock().unwrap().push(Arc::clone(&ring));
            ring.push(vals);
            rings.push((self.id, ring));
        });
    }

    /// Every span currently resident in any thread's ring, sorted by
    /// `(trace, start_ns, span)`. Slots being overwritten at this
    /// instant are skipped, not blocked on.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for (i, ring) in self.rings.lock().unwrap().iter().enumerate() {
            ring.snapshot(i, &mut out);
        }
        out.sort_by_key(|s| (s.trace, s.start_ns, s.span));
        out
    }

    /// Dump everything recorded as a chrome://tracing JSON array of
    /// "complete" (`"ph": "X"`) events — load it at chrome://tracing
    /// or ui.perfetto.dev. Timestamps are microseconds since tracer
    /// creation; `pid` is 1; `tid` is the recording thread's ring
    /// index; trace/span/parent ids and the shard/rows arguments ride
    /// in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"fusedmm\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"trace\": {}, \"span\": {}, \"parent\": {}{}, \"rows\": {}}}}}",
                s.kind.label(),
                s.start_ns as f64 / 1e3,
                dur as f64 / 1e3,
                s.thread,
                s.trace,
                s.span,
                s.parent,
                s.shard.map_or(String::new(), |sh| format!(", \"shard\": {sh}")),
                s.rows,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_samples_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        for _ in 0..100 {
            assert!(t.sample_root().is_none());
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn rate_one_samples_every_root_with_unique_ids() {
        let t = Tracer::new(1.0, 64);
        let a = t.sample_root().unwrap();
        let b = t.sample_root().unwrap();
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.span, b.span);
        assert_eq!((a.parent, b.parent), (0, 0));
        let c = t.child(a);
        assert_eq!((c.trace, c.parent), (a.trace, a.span));
        assert_ne!(c.span, a.span);
    }

    #[test]
    fn fractional_rate_admits_one_in_n() {
        let t = Tracer::new(0.25, 64);
        let admitted = (0..100).filter(|_| t.sample_root().is_some()).count();
        assert_eq!(admitted, 25, "deterministic 1-in-4 sampling");
    }

    #[test]
    fn recorded_spans_come_back_decoded_and_sorted() {
        let t = Tracer::new(1.0, 64);
        let root = t.sample_root().unwrap();
        let child = t.child(root);
        t.record(child, SpanKind::Kernel, 50, 70, Some(3), 128);
        t.record(root, SpanKind::Embed, 10, 90, None, 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Embed, "sorted by start");
        assert_eq!(spans[0].shard, None);
        assert_eq!(spans[1].kind, SpanKind::Kernel);
        assert_eq!(spans[1].shard, Some(3));
        assert_eq!(spans[1].parent, root.span);
        assert_eq!(spans[1].rows, 128);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_capacity() {
        let t = Tracer::new(1.0, 8);
        let root = t.sample_root().unwrap();
        for i in 0..100u64 {
            t.record(t.child(root), SpanKind::Enqueue, i, i + 1, None, i);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        assert!(spans.iter().all(|s| s.start_ns >= 92), "only the newest spans remain");
    }

    #[test]
    fn cross_thread_recording_lands_in_separate_rings() {
        let t = Tracer::new(1.0, 64);
        let root = t.sample_root().unwrap();
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = &t;
                let child = t.child(root);
                s.spawn(move || {
                    t.record(child, SpanKind::Batch, 10 * i, 10 * i + 5, Some(i as usize), 1);
                });
            }
        });
        t.record(root, SpanKind::Embed, 0, 100, None, 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        let threads: std::collections::HashSet<_> = spans.iter().map(|s| s.thread).collect();
        assert!(threads.len() >= 5, "each recording thread has its own ring");
    }

    #[test]
    fn chrome_dump_contains_complete_events() {
        let t = Tracer::new(1.0, 64);
        let root = t.sample_root().unwrap();
        t.record(t.child(root), SpanKind::Kernel, 1_000, 3_500, Some(0), 64);
        t.record(root, SpanKind::Embed, 0, 5_000, None, 64);
        let json = t.chrome_json();
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"kernel\""));
        assert!(json.contains("\"shard\": 0"));
        assert!(json.contains("\"dur\": 2.500"), "{json}");
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    }
}
