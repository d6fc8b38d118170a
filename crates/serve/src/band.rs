//! One PART1D row band below the request path: its rows, its kernel
//! plan and its batch queue — drained by whichever thread needs one of
//! its results, not by a thread of its own.
//!
//! A band knows nothing about requests — no admission, cache, ledger,
//! permutation or tracer sampling. It receives parts (sorted, distinct
//! global ids of its own rows, a pinned epoch, a [`PartSlot`]) from the
//! front end through [`LocalBands`](crate::LocalBands) and queues them
//! without blocking. A waiter with work to run there becomes one of its
//! combiners ([`Band::combine`]): a blocking caller always runs its own
//! claimed parts, even beside another combiner, and any waiter runs
//! unclaimed work nobody else combines. A combiner coalesces what it
//! may run into one deduplicated row-subset launch per drain, on its
//! own thread, and resolves each part's slot — cache registrations
//! first, then the rows — until nothing it may run is queued or its
//! caller has what it came for.
//! A part whose nodes are the launch's whole union receives the
//! launch's output itself: the kernel writes that reply once.
//! A panicking launch is caught here and every part in it resolves
//! `Failed`, which the front end retries once (on the waiter's thread,
//! like every launch).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fusedmm_core::{Launch, Plan};
use fusedmm_ops::OpSet;
use fusedmm_perf::hist::LatencyHistogram;
use fusedmm_perf::registry::Sample;
use fusedmm_perf::trace::{SpanKind, Tracer};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::batcher::{dedup_union, next_group, scatter_rows, BatchQueue, Buffers, Pending, Reply};
use crate::engine::EngineConfig;
use crate::fault::FaultPlan;
use crate::observe::apply_labels;
use crate::score::score_banded_into;
use crate::store::{copy_rows, FeatureEpoch};
use crate::ticket::Quality;
use crate::transport::{PartOutcome, PartSlot};
use crate::wait::{Claim, Watcher};

pub(crate) struct Band {
    /// The band's adjacency rows under local row indices.
    a: Csr,
    /// Global vertex id of local row 0.
    start: usize,
    /// The `shard` tag on this band's spans and samples (`None` for a
    /// standalone engine's one band).
    shard: Option<usize>,
    ops: OpSet,
    pub plan: Plan,
    queue: BatchQueue,
    /// [`EngineConfig::max_batch_rows`]: the row cap of one drain.
    max_batch_rows: usize,
    tracer: Arc<Tracer>,
    fault: Option<Arc<FaultPlan>>,
    /// Largest row degree in the band: the skew its critical path
    /// carries.
    max_row_degree: usize,
    /// Launches started, landed or panicked: the fault plan's sequence
    /// numbers, one `fetch_add` each so concurrent combiners never
    /// share one.
    launches: AtomicU64,
    /// Kernel launches, on whichever waiting threads combined the queue.
    batches_dispatched: AtomicU64,
    /// Rows the front end asked for (each request's distinct misses).
    rows_requested: AtomicU64,
    /// Rows launched after coalescing concurrent parts (≤ requested).
    rows_computed: AtomicU64,
    /// Kernel-launch panics caught at the launch boundary.
    panics_caught: AtomicU64,
    /// Parts dropped past their deadline without kernel time.
    expired_dropped: AtomicU64,
    score_latency: LatencyHistogram,
    infer_latency: LatencyHistogram,
}

impl Band {
    /// Own `a` (global rows `start..start + a.nrows()`).
    pub fn new(
        a: Csr,
        start: usize,
        shard: Option<usize>,
        ops: OpSet,
        d: usize,
        config: &EngineConfig,
    ) -> Band {
        let plan = Plan::prepare(&ops, d);
        let max_row_degree = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap_or(0);
        Band {
            a,
            start,
            shard,
            ops,
            plan,
            queue: BatchQueue::new(),
            max_batch_rows: config.max_batch_rows,
            tracer: config.tracer.clone().unwrap_or_else(Tracer::disabled),
            fault: config.fault.clone().filter(|f| f.is_active()),
            max_row_degree,
            launches: AtomicU64::new(0),
            batches_dispatched: AtomicU64::new(0),
            rows_requested: AtomicU64::new(0),
            rows_computed: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            expired_dropped: AtomicU64::new(0),
            score_latency: LatencyHistogram::new(),
            infer_latency: LatencyHistogram::new(),
        }
    }

    /// Queue one part without blocking; nothing is computed until a
    /// waiter combines the queue. A traced part's span closes here as
    /// `Enqueue` and parents the batch. If the queue is already shut
    /// down the part is dropped, which resolves its ticket
    /// `EngineShutdown` and aborts its cache registrations.
    pub fn enqueue(
        &self,
        nodes: &Arc<[usize]>,
        epoch: &Arc<FeatureEpoch>,
        quality: Quality,
        deadline: Option<Instant>,
        mut slot: PartSlot,
    ) {
        let span = slot.span.take();
        let accepted = self.queue.push(Pending {
            nodes: Arc::clone(nodes),
            epoch: Arc::clone(epoch),
            slot,
            trace: span.as_ref().map(|s| s.ctx),
            deadline,
            quality,
        });
        if let Some(s) = span.filter(|_| accepted) {
            let end = s.tracer.now();
            s.tracer.record(s.ctx, SpanKind::Enqueue, s.start_ns, end, self.shard, s.rows);
        }
    }

    /// Run the queued batches caller `claim` may run on the calling
    /// thread, until none is left or `stop` — asked after each batch —
    /// says the caller has what it came for; unless `claim` has no part
    /// queued and another thread already combines the queue, and then
    /// this returns at once. Unclaimed work left behind by the last
    /// combiner wakes the parked waiters.
    pub fn combine(&self, claim: Claim, stop: &mut dyn FnMut() -> bool) {
        let Some(mut combiner) = self.queue.combine(claim) else { return };
        while combiner.next_batch(self.max_batch_rows) {
            let b = &mut combiner.buffers;
            self.drop_expired(b.expired.drain(..));
            b.abandoned.clear();
            while next_group(&mut b.batch, &mut b.group) {
                self.launch(b);
            }
            if stop() {
                break;
            }
        }
    }

    /// Register `waiter`, caller `claim`'s, to be woken when this band
    /// has work anyone may run and no combiner; `false` — nothing
    /// registered — when `claim` should combine it now.
    pub fn park(&self, waiter: &Watcher, claim: Claim) -> bool {
        self.queue.park(waiter, claim)
    }

    /// Wake the parked waiters if work anyone may run has no combiner
    /// (a claimed part whose ticket was just dropped).
    pub fn kick(&self) {
        self.queue.kick();
    }

    /// One score per pair under the pinned epoch, as a
    /// `pairs.len() × 1` matrix.
    pub fn score(&self, pairs: &[(usize, usize)], epoch: &FeatureEpoch) -> Dense {
        let t0 = Instant::now();
        let (x, x_start, y) = (epoch.x(), epoch.x_start(), epoch.y());
        let mut scores = Dense::zeros(pairs.len(), 1);
        let out = scores.as_mut_slice();
        score_banded_into(&self.a, self.start, pairs, x, x_start, y, &self.ops, out);
        self.score_latency.record(t0.elapsed());
        scores
    }

    /// Every row of the band under the pinned epoch, into the caller's
    /// `rows × d` slice; every row is overwritten.
    pub fn infer_into(&self, epoch: &FeatureEpoch, z: &mut [f32]) {
        let t0 = Instant::now();
        let all = Launch::All { scores: None };
        if epoch.x_start() == self.start && epoch.x().nrows() == self.a.nrows() {
            // `X` is exactly the band (a whole-graph band, or a replica).
            self.plan.launch(&self.a, epoch.x(), epoch.y(), &self.ops, all, z);
        } else {
            let xb = copy_rows(epoch.x(), epoch.x_start(), self.start..self.start + self.a.nrows());
            self.plan.launch(&self.a, &xb, epoch.y(), &self.ops, all, z);
        }
        self.infer_latency.record(t0.elapsed());
    }

    pub fn queued_rows(&self) -> usize {
        self.queue.queued_rows()
    }

    /// Global vertex id of the band's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The stored column ids of global row `u`, which the band owns.
    pub fn row_cols(&self, u: usize) -> &[usize] {
        self.a.row(u - self.start).0
    }

    /// Stop accepting parts, resolve the queued ones `EngineShutdown`
    /// and wake every parked waiter; a launch in flight finishes.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.queue.shutdown();
    }

    /// Resolve parts whose deadline passed while queued: no kernel time
    /// spent, cache registrations aborted.
    fn drop_expired(&self, expired: impl Iterator<Item = Pending>) {
        for part in expired {
            self.expired_dropped.fetch_add(1, Ordering::Relaxed);
            part.slot.resolve(PartOutcome::Expired);
        }
    }

    /// One kernel launch for `b.group`, parts sharing a pinned epoch and
    /// tier, which leaves the group empty; `b.union` and `b.replies` are
    /// working space.
    fn launch(&self, b: &mut Buffers) {
        let Buffers { group, union, replies, .. } = b;
        let tracer = &self.tracer;
        // Deadlines are re-checked right before the launch: a long prior
        // group may have outlasted one that was live at drain time.
        let now = Instant::now();
        self.drop_expired(group.extract_if(.., |p| p.expired(now)));
        let Some(first) = group.first() else { return };
        let (epoch, quality) = (Arc::clone(&first.epoch), first.quality);
        // Batch/kernel timestamps are taken once per launch and
        // recorded once per *sampled* part, so each sampled request
        // owns a complete tree even when the batch coalesced many.
        let sampled = group.iter().any(|p| p.trace.is_some());
        let batch_start = if sampled { tracer.now() } else { 0 };
        // A lone part's nodes are the union: its reply is the launch.
        let ids: &[usize] = if let [one] = group.as_slice() {
            &one.nodes
        } else {
            dedup_union(group.iter().map(|p| &*p.nodes), union);
            union
        };
        let rows_requested: usize = group.iter().map(|p| p.nodes.len()).sum();
        // This launch's sequence number (1, 2, ...), for the fault
        // plan, unique however many combiners launch at once.
        let seq = self.launches.fetch_add(1, Ordering::Relaxed) + 1;
        let kernel_start = if sampled { tracer.now() } else { 0 };
        // The launch is a fault boundary: a panic inside the kernel (or
        // injected by the fault plan) becomes a typed `Failed` per part,
        // the combiner survives, and each ticket retries once.
        let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(fault) = &self.fault {
                fault.maybe_panic(seq);
            }
            let top_k = match quality {
                Quality::TopKNeighbors(k) => Some(k),
                Quality::Exact | Quality::CachedOnly => None,
            };
            let rows = Launch::Rows { ids, start: self.start, x_start: epoch.x_start(), top_k };
            let mut z = Dense::zeros(ids.len(), self.plan.d());
            self.plan.launch(&self.a, epoch.x(), epoch.y(), &self.ops, rows, z.as_mut_slice());
            z
        }));
        let Ok(z) = launched else {
            self.panics_caught.fetch_add(1, Ordering::Relaxed);
            for part in group.drain(..) {
                part.slot.resolve(PartOutcome::Failed);
            }
            return;
        };
        let kernel_end = if sampled { tracer.now() } else { 0 };
        let computed = ids.len();
        // The launch output goes to a part whose nodes are the union, in
        // its order, once every other part has a copy of its rows.
        let owner = group.iter().position(|p| *p.nodes == *ids);
        // Unpin the epoch — every part's hold on it — before waking
        // anyone: a caller that writes once its request completes finds
        // the generation free to patch in place.
        drop(epoch);
        replies.extend(group.drain(..).map(|p| (p.nodes, p.slot, p.trace)));
        // Account before resolving so a caller that observes its own
        // completion also observes the batch in the metrics.
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.rows_requested.fetch_add(rows_requested as u64, Ordering::Relaxed);
        self.rows_computed.fetch_add(computed as u64, Ordering::Relaxed);
        let times = (batch_start, kernel_start, kernel_end);
        let owner = owner.map(|i| replies.remove(i));
        for part in replies.drain(..) {
            let out = scatter_rows(union, &z, &part.0);
            self.reply(part, out, computed, times, rows_requested);
        }
        if let Some(part) = owner {
            self.reply(part, z, computed, times, rows_requested);
        }
    }

    /// Resolve one part of a landed launch with its rows: its spans when
    /// sampled, its cache registrations, then the reply.
    fn reply(
        &self,
        (_, mut slot, trace): Reply,
        out: Dense,
        computed: usize,
        (batch_start, kernel_start, kernel_end): (u64, u64, u64),
        rows_requested: usize,
    ) {
        let tracer = &self.tracer;
        let batch = trace.map(|parent| tracer.child(parent));
        if let Some(ctx) = batch {
            let kernel = tracer.child(ctx);
            let rows = computed as u64;
            tracer.record(kernel, SpanKind::Kernel, kernel_start, kernel_end, self.shard, rows);
        }
        // Cache registrations resolve before the reply, so coalesced
        // waiters complete with the computation — independent of when
        // this part's ticket is harvested.
        if let Some(fills) = slot.fills.take() {
            let fill_start = if batch.is_some() { tracer.now() } else { 0 };
            fills.complete(&out);
            if let Some(ctx) = batch {
                let fill = tracer.child(ctx);
                let (end, rows) = (tracer.now(), out.nrows() as u64);
                tracer.record(fill, SpanKind::CacheFill, fill_start, end, self.shard, rows);
            }
        }
        if let Some(ctx) = batch {
            let (end, rows) = (tracer.now(), rows_requested as u64);
            tracer.record(ctx, SpanKind::Batch, batch_start, end, self.shard, rows);
        }
        slot.resolve(PartOutcome::Rows(out));
    }

    /// Append this band's samples, tagged `shard="<i>"` when the band
    /// has a shard label, plus `labels`.
    pub fn push_samples(&self, out: &mut Vec<Sample>, labels: &[(String, String)]) {
        let l = |s: Sample| {
            let s = apply_labels(s, labels);
            match self.shard {
                Some(shard) => s.label("shard", shard.to_string()),
                None => s,
            }
        };
        let (score, infer) = (self.score_latency.snapshot(), self.infer_latency.snapshot());
        out.push(l(Sample::histogram("fusedmm_score_latency_seconds", score)));
        out.push(l(Sample::histogram("fusedmm_infer_latency_seconds", infer)));
        for (name, counter) in [
            ("fusedmm_batches_dispatched_total", &self.batches_dispatched),
            ("fusedmm_rows_requested_total", &self.rows_requested),
            ("fusedmm_rows_computed_total", &self.rows_computed),
            ("fusedmm_panics_caught_total", &self.panics_caught),
            ("fusedmm_expired_dropped_total", &self.expired_dropped),
        ] {
            out.push(l(Sample::counter(name, counter.load(Ordering::Relaxed))));
        }
        let degree = self.max_row_degree as f64;
        out.push(l(Sample::gauge("fusedmm_partition_max_row_degree", degree)));
    }
}
