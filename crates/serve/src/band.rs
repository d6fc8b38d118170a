//! One PART1D row band below the request path: its rows, its kernel
//! plan, its batch queue and the dispatcher thread that drains it.
//!
//! A band knows nothing about requests — no admission, cache, ledger,
//! permutation or tracer sampling. It receives parts (sorted, distinct
//! global ids of its own rows, a pinned epoch, a [`PartSlot`]) from the
//! front end through [`LocalBands`](crate::LocalBands), coalesces
//! whatever is queued into one deduplicated row-subset launch per tick,
//! and resolves each part's slot — cache registrations first, then the
//! rows. A panicking launch is caught here and every part in it
//! resolves `Failed`, which the front end retries once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use fusedmm_core::{PartitionStrategy, Plan};
use fusedmm_ops::OpSet;
use fusedmm_perf::hist::{HistogramSnapshot, LatencyHistogram};
use fusedmm_perf::registry::Sample;
use fusedmm_perf::trace::{SpanKind, Tracer};
use fusedmm_sparse::csr::Csr;

use crate::batcher::{dedup_union, group_by_epoch, scatter_rows, BatchQueue, Pending};
use crate::engine::EngineConfig;
use crate::fault::FaultPlan;
use crate::front::Resolved;
use crate::observe::apply_labels;
use crate::score::score_edges_banded;
use crate::store::{copy_rows, FeatureEpoch};
use crate::ticket::Quality;
use crate::transport::{PartOutcome, PartSlot};

/// A band's counters at one point in time (see
/// [`ServeMetrics::bands`](crate::ServeMetrics::bands)).
#[derive(Debug, Clone, Copy)]
pub struct BandMetrics {
    /// Kernel launches this band's dispatcher performed.
    pub batches_dispatched: u64,
    /// Rows the front end asked this band for: each request's distinct
    /// cache misses (the front end deduplicates a request before it
    /// reaches a band).
    pub rows_requested: u64,
    /// Rows the band computed after coalescing concurrent parts into
    /// one launch (≤ `rows_requested`).
    pub rows_computed: u64,
    /// Kernel-launch panics caught at this band's dispatch boundary.
    pub panics_caught: u64,
    /// Parts dropped past their deadline without kernel time.
    pub expired_dropped: u64,
    /// Largest row degree in the band — the skew its critical path
    /// carries.
    pub max_row_degree: usize,
    /// Edge-scoring latency of this band's share of `score_edges`.
    pub score: HistogramSnapshot,
    /// Latency of this band's share of `infer_full`.
    pub infer: HistogramSnapshot,
}

pub(crate) struct BandCore {
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
    tracer: Arc<Tracer>,
    fault: Option<Arc<FaultPlan>>,
    max_row_degree: usize,
    batches_dispatched: AtomicU64,
    rows_requested: AtomicU64,
    rows_computed: AtomicU64,
    panics_caught: AtomicU64,
    expired_dropped: AtomicU64,
    score_latency: LatencyHistogram,
    infer_latency: LatencyHistogram,
}

pub(crate) struct Band {
    pub core: Arc<BandCore>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl Band {
    /// Own `a` (global rows `start..start + a.nrows()`) and spawn its
    /// dispatcher.
    pub fn spawn(
        a: Csr,
        start: usize,
        shard: Option<usize>,
        ops: OpSet,
        d: usize,
        config: &EngineConfig,
        resolved: &Resolved,
    ) -> Band {
        let plan = Plan::with_blocking(&ops, d, config.blocking, PartitionStrategy::NnzBalanced);
        let max_row_degree = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap_or(0);
        let core = Arc::new(BandCore {
            a,
            start,
            shard,
            ops,
            plan,
            queue: BatchQueue::new(),
            tracer: Arc::clone(&resolved.tracer),
            fault: resolved.fault.clone(),
            max_row_degree,
            batches_dispatched: AtomicU64::new(0),
            rows_requested: AtomicU64::new(0),
            rows_computed: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            expired_dropped: AtomicU64::new(0),
            score_latency: LatencyHistogram::new(),
            infer_latency: LatencyHistogram::new(),
        });
        let dispatcher = {
            let core = Arc::clone(&core);
            let (window, max_rows) = (config.coalesce_window, config.max_batch_rows);
            std::thread::Builder::new()
                .name("fusedmm-serve-dispatch".into())
                .spawn(move || {
                    while let Some(drained) = core.queue.next_batch(window, max_rows) {
                        core.drop_expired(drained.expired);
                        for group in group_by_epoch(drained.batch) {
                            core.launch(group);
                        }
                    }
                })
                .expect("spawn dispatcher thread")
        };
        Band { core, dispatcher: Mutex::new(Some(dispatcher)) }
    }

    /// Queue one part. A traced part's span closes here as `Enqueue`
    /// and parents the batch. If the queue is already shut down the
    /// part is dropped, which resolves its ticket `EngineShutdown` and
    /// aborts its cache registrations.
    pub fn enqueue(
        &self,
        nodes: &[usize],
        epoch: &Arc<FeatureEpoch>,
        quality: Quality,
        deadline: Option<Instant>,
        mut slot: PartSlot,
    ) {
        let span = slot.span.take();
        let accepted = self.core.queue.push(Pending {
            nodes: nodes.to_vec(),
            epoch: Arc::clone(epoch),
            slot,
            trace: span.as_ref().map(|s| s.ctx),
            deadline,
            quality,
        });
        if let Some(s) = span.filter(|_| accepted) {
            let end = s.tracer.now();
            s.tracer.record(s.ctx, SpanKind::Enqueue, s.start_ns, end, self.core.shard, s.rows);
        }
    }

    pub fn score(&self, pairs: &[(usize, usize)], epoch: &FeatureEpoch) -> Vec<f32> {
        let c = &self.core;
        let t0 = Instant::now();
        let (x, x_start, y) = (epoch.x(), epoch.x_start(), epoch.y());
        let scores = score_edges_banded(&c.a, c.start, pairs, x, x_start, y, &c.ops);
        c.score_latency.record(t0.elapsed());
        scores
    }

    /// Every row of the band under the pinned epoch, into the caller's
    /// `rows × d` slice; every row is overwritten.
    pub fn infer_into(&self, epoch: &FeatureEpoch, z: &mut [f32]) {
        let c = &self.core;
        let t0 = Instant::now();
        if epoch.x_start() == c.start && epoch.x().nrows() == c.a.nrows() {
            // `X` is exactly the band (a whole-graph band, or a replica).
            c.plan.execute_into(&c.a, epoch.x(), epoch.y(), &c.ops, z);
        } else {
            let xb = copy_rows(epoch.x(), epoch.x_start(), c.start..c.start + c.a.nrows());
            c.plan.execute_into(&c.a, &xb, epoch.y(), &c.ops, z);
        }
        c.infer_latency.record(t0.elapsed());
    }

    pub fn queued_rows(&self) -> usize {
        self.core.queue.queued_rows()
    }

    /// Stop accepting parts, finish the queued ones, join the
    /// dispatcher. Idempotent.
    pub fn shutdown(&self) {
        self.core.queue.shutdown();
        let handle = self.dispatcher.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Band {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl BandCore {
    /// Resolve parts whose deadline passed while queued: no kernel time
    /// spent, cache registrations aborted.
    fn drop_expired(&self, expired: Vec<Pending>) {
        for part in expired {
            self.expired_dropped.fetch_add(1, Ordering::Relaxed);
            part.slot.resolve(PartOutcome::Expired);
        }
    }

    /// One kernel launch for a group sharing a pinned epoch and tier.
    fn launch(&self, group: Vec<Pending>) {
        let tracer = &self.tracer;
        // Deadlines are re-checked right before the launch: the linger
        // (or a long prior group) may have outlasted one that was live
        // at drain time.
        let now = Instant::now();
        let (group, expired): (Vec<_>, Vec<_>) =
            group.into_iter().partition(|p| p.deadline.is_none_or(|d| d > now));
        self.drop_expired(expired);
        let Some(first) = group.first() else { return };
        let (epoch, quality) = (Arc::clone(&first.epoch), first.quality);
        // Batch/kernel timestamps are taken once per launch and
        // recorded once per *sampled* part, so each sampled request
        // owns a complete tree even when the batch coalesced many.
        let sampled = group.iter().any(|p| p.trace.is_some());
        let batch_start = if sampled { tracer.now() } else { 0 };
        let union = dedup_union(group.iter().map(|p| p.nodes.as_slice()));
        let rows_requested: usize = group.iter().map(|p| p.nodes.len()).sum();
        // This launch's sequence number (1, 2, ...), for the fault
        // plan: only this thread counts launches, landed or panicked.
        let seq = self.batches_dispatched.load(Ordering::Relaxed)
            + self.panics_caught.load(Ordering::Relaxed)
            + 1;
        let kernel_start = if sampled { tracer.now() } else { 0 };
        // The launch is a fault boundary: a panic inside the kernel (or
        // injected by the fault plan) becomes a typed `Failed` per part,
        // the dispatcher survives, and each ticket retries once.
        let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(fault) = &self.fault {
                fault.maybe_panic(seq);
            }
            let (a, start, ops) = (&self.a, self.start, &self.ops);
            let (x, x_start, y) = (epoch.x(), epoch.x_start(), epoch.y());
            match quality {
                Quality::TopKNeighbors(k) => {
                    self.plan.execute_rows_banded_topk(a, start, &union, k, x, x_start, y, ops)
                }
                Quality::Exact | Quality::CachedOnly => {
                    self.plan.execute_rows_banded(a, start, &union, x, x_start, y, ops)
                }
            }
        }));
        let Ok(union_rows) = launched else {
            self.panics_caught.fetch_add(1, Ordering::Relaxed);
            for part in group {
                part.slot.resolve(PartOutcome::Failed);
            }
            return;
        };
        let kernel_end = if sampled { tracer.now() } else { 0 };
        // Unpin the epoch before waking anyone: a caller that writes
        // once its request completes finds the generation free to patch
        // in place.
        drop(epoch);
        let group: Vec<_> = group.into_iter().map(|p| (p.nodes, p.slot, p.trace)).collect();
        // Account before resolving so a caller that observes its own
        // completion also observes the batch in the metrics.
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.rows_requested.fetch_add(rows_requested as u64, Ordering::Relaxed);
        self.rows_computed.fetch_add(union.len() as u64, Ordering::Relaxed);
        for (nodes, mut slot, trace) in group {
            let out = scatter_rows(&union, &union_rows, &nodes);
            let batch = trace.map(|parent| tracer.child(parent));
            if let Some(ctx) = batch {
                let kernel = tracer.child(ctx);
                let rows = union.len() as u64;
                tracer.record(kernel, SpanKind::Kernel, kernel_start, kernel_end, self.shard, rows);
            }
            // Cache registrations resolve before the reply, so
            // coalesced waiters complete with the computation —
            // independent of when this part's ticket is harvested.
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
    }

    pub fn metrics(&self) -> BandMetrics {
        BandMetrics {
            batches_dispatched: self.batches_dispatched.load(Ordering::Relaxed),
            rows_requested: self.rows_requested.load(Ordering::Relaxed),
            rows_computed: self.rows_computed.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            expired_dropped: self.expired_dropped.load(Ordering::Relaxed),
            max_row_degree: self.max_row_degree,
            score: self.score_latency.snapshot(),
            infer: self.infer_latency.snapshot(),
        }
    }

    /// Append this band's samples, tagged `shard="<i>"` when the band
    /// has a shard label, plus `labels`.
    pub fn push_samples(&self, out: &mut Vec<Sample>, labels: &[(String, String)]) {
        let m = self.metrics();
        let l = |s: Sample| {
            let s = apply_labels(s, labels);
            match self.shard {
                Some(shard) => s.label("shard", shard.to_string()),
                None => s,
            }
        };
        out.push(l(Sample::histogram("fusedmm_score_latency_seconds", m.score)));
        out.push(l(Sample::histogram("fusedmm_infer_latency_seconds", m.infer)));
        out.push(l(Sample::counter("fusedmm_batches_dispatched_total", m.batches_dispatched)));
        out.push(l(Sample::counter("fusedmm_rows_requested_total", m.rows_requested)));
        out.push(l(Sample::counter("fusedmm_rows_computed_total", m.rows_computed)));
        out.push(l(Sample::counter("fusedmm_panics_caught_total", m.panics_caught)));
        out.push(l(Sample::counter("fusedmm_expired_dropped_total", m.expired_dropped)));
        out.push(l(Sample::gauge("fusedmm_partition_max_row_degree", m.max_row_degree as f64)));
    }
}
