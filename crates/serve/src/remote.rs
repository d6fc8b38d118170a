//! Multi-process sharding: the coordinator front end and the worker
//! host, connected by a pluggable [`ShardTransport`].
//!
//! [`ShardedEngine`](crate::ShardedEngine) scatters a request over
//! in-process band engines; this module is the same architecture with
//! the bands pushed across a process boundary:
//!
//! * [`RemoteShardedEngine`] — the coordinator. It owns the
//!   authoritative [`FeatureStore`], pins one epoch per request, and
//!   scatters per-shard pieces through a [`ShardTransport`]. Each
//!   piece resolves through the same [`Ticket`] lazy-gather seam the
//!   in-process front end uses (a remote part is just a slot another
//!   thread fills), so out-of-order completion, typed part failures,
//!   one-shot retries, and deadline expiry all behave identically.
//! * [`WorkerEngine`] — one shard's host. It wraps a band
//!   [`Engine`] plus a *replica* `FeatureStore` kept in
//!   sync by applying the coordinator's ordered epoch log
//!   ([`EpochRecord`]), and serves each request from the exact epoch
//!   the coordinator pinned — so a response is never torn across a
//!   publish even when the publish and the request race over the wire.
//! * [`EpochRecord`] — one entry of the replicated epoch log. Records
//!   carry the coordinator's epoch *numbers*; replicas apply them
//!   as-is (`publish_at` / `delta_update_at`), keeping both sides'
//!   numbering — and therefore per-request pinning — aligned.
//!
//! The transport itself (framing, sockets, reconnects) lives in the
//! `fusedmm-rpc` crate; this module owns everything that needs the
//! serving internals. Responses are bit-identical to the in-process
//! [`ShardedEngine`](crate::ShardedEngine) at every epoch: the same
//! band kernels run on the same pinned matrices, and `f32` rows cross
//! the wire as raw little-endian bits.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use fusedmm_cache::{InflightOwner, MissRoute};
use fusedmm_core::{PartitionStrategy, Plan};
use fusedmm_ops::OpSet;
use fusedmm_perf::gauge::Gauge;
use fusedmm_perf::hist::{HistogramSnapshot, HistogramVec, LatencyHistogram};
use fusedmm_perf::registry::{MetricsRegistry, Sample};
use fusedmm_perf::trace::{SpanCtx, SpanKind, Tracer};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::admit::{Admission, AdmissionPolicy};
use crate::batcher::dedup_union;
use crate::cache::{EmbedCache, FillSet};
use crate::engine::{BandId, Engine, EngineConfig, ServeError};
use crate::fault::FaultPlan;
use crate::observe::push_outcome_samples;
use crate::store::{FeatureEpoch, FeatureStore};
use crate::ticket::{
    Completion, EmbedAssembly, EmbedOptions, EmbedResponse, Part, PartRetry, Quality, RequestStats,
    Ticket, TraceHandle, WaiterSlot,
};
use crate::wait::{slot, PartError, SlotTx};

/// How many recent epochs a worker keeps pinned for in-flight
/// requests. The transport is FIFO per connection, so the record
/// minting epoch `E` always precedes any request pinned at `E`; the
/// history only needs to cover requests still in flight while newer
/// epochs land — 64 generations is far deeper than any real window.
const EPOCH_RETAIN: usize = 64;

/// One entry of the replicated epoch log: what a coordinator ships so
/// a replica's [`FeatureStore`] mints the same epoch numbers from the
/// same matrices.
///
/// Whole generations are *shared*, not owned: a record holds the
/// allocations of the store epoch it describes, so cloning a record —
/// into the log, into each worker's queue — never copies a matrix, and
/// a replica that applies a decoded record moves those allocations
/// into its own store. Deltas are a few rows and stay owned.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochRecord {
    /// A whole-matrix [`FeatureStore::publish`] minting `epoch`.
    Publish {
        /// The epoch this record mints.
        epoch: u64,
        /// The full replacement X.
        x: Arc<Dense>,
        /// The full replacement Y.
        y: Arc<Dense>,
    },
    /// A [`FeatureStore::delta_update`] minting `epoch` by patching
    /// exactly `rows` (internal row ids, one patch row each).
    Delta {
        /// The epoch this record mints.
        epoch: u64,
        /// Patched internal row ids.
        rows: Vec<usize>,
        /// One replacement X row per entry of `rows`.
        x_rows: Dense,
        /// One replacement Y row per entry of `rows`.
        y_rows: Dense,
    },
    /// A log-compaction artifact: the full state *at* `epoch`. Applying
    /// it jumps a replica directly there (fresh or lagging workers
    /// catch up from the latest snapshot plus the record tail instead
    /// of replaying history from zero).
    Snapshot {
        /// The epoch this snapshot captures.
        epoch: u64,
        /// The full X at `epoch`.
        x: Arc<Dense>,
        /// The full Y at `epoch`.
        y: Arc<Dense>,
    },
}

impl EpochRecord {
    /// The epoch this record mints (or, for a snapshot, captures).
    pub fn epoch(&self) -> u64 {
        match self {
            EpochRecord::Publish { epoch, .. }
            | EpochRecord::Delta { epoch, .. }
            | EpochRecord::Snapshot { epoch, .. } => *epoch,
        }
    }
}

/// How a transport resolves one remote embed part.
#[derive(Debug)]
pub enum PartOutcome {
    /// The worker's reply: one row per requested node, in request
    /// order, bit-identical to an in-process band computation.
    Rows(Dense),
    /// The worker reported the piece expired past its deadline.
    Expired,
    /// The worker (or its connection) failed — a panicked launch, an
    /// unavailable epoch, or a severed socket. The front end's
    /// one-shot retry machinery takes over, then types the failure as
    /// `PartFailed`.
    Failed,
}

/// The completion slot a [`ShardTransport`] must resolve for each
/// embed part. Wraps the engine's internal one-shot reply slot so the
/// transport crate can fulfil tickets without seeing serving
/// internals; also closes the part's `rpc` span when the request is
/// being traced.
///
/// Dropping a slot unresolved closes it, which surfaces as
/// [`ServeError::EngineShutdown`] on the ticket — transports should
/// resolve explicitly ([`PartOutcome::Failed`] on connection loss) so
/// failures stay typed and retryable.
pub struct PartSlot {
    tx: Option<SlotTx>,
    trace: Option<RpcSpan>,
}

struct RpcSpan {
    tracer: Arc<Tracer>,
    ctx: SpanCtx,
    start_ns: u64,
    shard: usize,
    rows: u64,
}

impl PartSlot {
    fn new(tx: SlotTx, trace: Option<RpcSpan>) -> PartSlot {
        PartSlot { tx: Some(tx), trace }
    }

    /// Resolve the part. Consumes the slot; exactly one resolution
    /// wins (the engine side ignores late duplicates by construction —
    /// the slot is one-shot).
    pub fn resolve(mut self, outcome: PartOutcome) {
        if let Some(span) = self.trace.take() {
            span.tracer.record(
                span.ctx,
                SpanKind::Rpc,
                span.start_ns,
                span.tracer.now(),
                Some(span.shard),
                span.rows,
            );
        }
        let tx = self.tx.take().expect("a slot resolves once");
        match outcome {
            PartOutcome::Rows(rows) => tx.send(Ok(rows)),
            PartOutcome::Expired => tx.send(Err(PartError::Expired)),
            PartOutcome::Failed => tx.send(Err(PartError::Panicked)),
        }
    }
}

/// What a [`RemoteShardedEngine`] needs from a transport: the shard
/// layout discovered at connect time, per-part request dispatch, and
/// the epoch-log shipping hook. Implemented over framed sockets by
/// `fusedmm-rpc`; tests can implement it in-process.
///
/// Ordering contract: for one shard, every record passed to
/// [`ship`](ShardTransport::ship) must reach the worker before any
/// part dispatched *after* that `ship` returns — the coordinator pins
/// epoch `E` only after shipping the record that mints `E`, and the
/// worker relies on that FIFO to have `E` in its history when the
/// request arrives.
pub trait ShardTransport: Send + Sync {
    /// Number of shards (worker processes) behind this transport.
    fn nshards(&self) -> usize;

    /// The PART1D cut: `boundaries()[s]..boundaries()[s + 1]` is shard
    /// `s`'s global row band; `nshards() + 1` entries, ascending, last
    /// entry = number of vertices.
    fn boundaries(&self) -> Vec<usize>;

    /// Dispatch one embed part to shard `shard` and resolve `slot`
    /// with the outcome (rows, expiry, or failure). Must not block on
    /// the remote computation — the caller holds the request path.
    fn embed_part(
        &self,
        shard: usize,
        nodes: &[usize],
        epoch: u64,
        quality: Quality,
        deadline: Option<Instant>,
        slot: PartSlot,
    );

    /// Score one shard's pairs at the pinned epoch, blocking until the
    /// reply (edge scoring is a synchronous API).
    fn score_part(
        &self,
        shard: usize,
        pairs: &[(usize, usize)],
        epoch: u64,
    ) -> Result<Vec<f32>, ServeError>;

    /// Append `record` to the replicated epoch log and ship it to
    /// every worker (see the trait-level ordering contract). A
    /// transport keeps what it needs by cloning the record: the whole
    /// generations inside one are shared, so that copies no matrix.
    fn ship(&self, record: &EpochRecord);

    /// Rows queued toward shard `shard` but not yet dispatched — the
    /// admission policy's backlog signal. Default: unknown (0).
    fn queued_rows(&self, _shard: usize) -> usize {
        0
    }

    /// Stop the transport: close connections, fail pending parts.
    fn shutdown(&self) {}
}

/// The multi-process sharded front end: same request API and same
/// bit-exact responses as [`ShardedEngine`](crate::ShardedEngine),
/// with the band engines living in worker processes behind a
/// [`ShardTransport`].
///
/// The coordinator owns the authoritative [`FeatureStore`]; **all
/// writes must go through [`publish`](RemoteShardedEngine::publish) /
/// [`delta_update`](RemoteShardedEngine::delta_update)** so the epoch
/// record ships to every replica before the local epoch becomes
/// pinnable — writing to the store directly would fork the replicas.
pub struct RemoteShardedEngine {
    transport: Arc<dyn ShardTransport>,
    store: Arc<FeatureStore>,
    boundaries: Vec<usize>,
    /// Serializes `ship → local mint` so records leave in epoch order
    /// and no request can pin an epoch whose record has not shipped.
    write_order: Mutex<()>,
    /// Front-end request latency (begin → response assembled). Remote
    /// parts have no local dispatcher histogram, so unlike the
    /// in-process front end every request records here.
    embed_latency: Arc<LatencyHistogram>,
    inflight: Arc<Gauge>,
    stats: Arc<RequestStats>,
    tracer: Arc<Tracer>,
    admission: AdmissionPolicy,
    stopped: AtomicBool,
    /// Gather progress per shard, front-end view (see
    /// [`ShardedMetrics::fanout`](crate::ShardedMetrics::fanout)).
    fanout: Arc<HistogramVec>,
    started: Instant,
}

impl RemoteShardedEngine {
    /// Build the front end over an already-connected transport,
    /// seeding the replicated log (and every connected worker) with
    /// `x`/`y` as the epoch-0 snapshot.
    ///
    /// # Panics
    /// Panics when the transport's shard layout is inconsistent with
    /// `x`, or when `config` asks for features the remote front end
    /// does not own (a reordering permutation or a front-end cache —
    /// caching is per-replica, on the workers).
    pub fn new(
        x: Dense,
        y: Dense,
        transport: Arc<dyn ShardTransport>,
        config: EngineConfig,
    ) -> RemoteShardedEngine {
        assert!(
            config.reordering.is_none(),
            "reordering is a single-process concern: permute before building the workers"
        );
        assert!(
            config.cache.is_none(),
            "the remote front end runs uncached; workers own per-replica caches"
        );
        assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
        let boundaries = transport.boundaries();
        assert_eq!(boundaries.len(), transport.nshards() + 1, "one band per shard");
        assert!(boundaries.windows(2).all(|w| w[0] <= w[1]), "bands are ascending");
        assert_eq!(*boundaries.last().expect("nonempty cut"), x.nrows(), "bands tile X's rows");
        let store = Arc::new(FeatureStore::new(x, y));
        let tracer = config.tracer.clone().unwrap_or_else(|| Arc::clone(Tracer::global()));
        let admission = config.admission.unwrap_or_else(AdmissionPolicy::from_env);
        let nshards = transport.nshards();
        // Seed the log: epoch 0 is the one generation workers cannot
        // learn from the stream (they boot with placeholder features).
        let base = store.snapshot();
        let (x, y) = base.shared();
        transport.ship(&EpochRecord::Snapshot { epoch: base.epoch(), x, y });
        RemoteShardedEngine {
            transport,
            store,
            boundaries,
            write_order: Mutex::new(()),
            embed_latency: Arc::new(LatencyHistogram::new()),
            inflight: Arc::new(Gauge::new()),
            stats: Arc::new(RequestStats::default()),
            tracer,
            admission,
            stopped: AtomicBool::new(false),
            fanout: Arc::new(HistogramVec::new(nshards)),
            started: Instant::now(),
        }
    }

    /// Number of remote shards.
    pub fn nshards(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Number of vertices in the full graph.
    pub fn nvertices(&self) -> usize {
        *self.boundaries.last().expect("partition has boundaries")
    }

    /// The embedding dimension served.
    pub fn dimension(&self) -> usize {
        self.store.d()
    }

    /// The coordinator's authoritative store — **read-only** for
    /// callers (snapshots, epoch numbers). Write through
    /// [`publish`](Self::publish) / [`delta_update`](Self::delta_update)
    /// so the change replicates; a direct store write silently forks
    /// every worker.
    pub fn store(&self) -> &Arc<FeatureStore> {
        &self.store
    }

    /// The PART1D cut behind the transport.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// The shard owning global vertex `u` (which must be in range).
    pub fn owner(&self, u: usize) -> usize {
        debug_assert!(u < self.nvertices());
        self.boundaries.partition_point(|&b| b <= u) - 1
    }

    /// Publish whole replacement matrices as the next epoch,
    /// replicating the record to every worker **before** the local
    /// mint — by the time any request can pin the new epoch, its
    /// record is ordered ahead of that request on every connection.
    /// The generation is built once: the record that ships and the
    /// epoch the store installs are the same two allocations. Returns
    /// the new epoch number.
    ///
    /// # Panics
    /// Panics (before anything ships) when the shapes differ from the
    /// load-time shapes.
    pub fn publish(&self, x: Dense, y: Dense) -> u64 {
        // Before anything ships: a replica must never see a record the
        // coordinator's own store would refuse.
        self.store.check_shapes(&x, &y);
        let (x, y) = (Arc::new(x), Arc::new(y));
        let _w = self.write_order.lock();
        let epoch = self.store.current_epoch() + 1;
        self.transport.ship(&EpochRecord::Publish { epoch, x: Arc::clone(&x), y: Arc::clone(&y) });
        let minted = self.store.publish_shared(x, y);
        debug_assert_eq!(minted, epoch, "write_order serializes coordinator writes");
        epoch
    }

    /// Patch `rows` of both matrices as the next epoch (see
    /// [`FeatureStore::delta_update`]), replicating the delta record
    /// ahead of the local mint. Returns the new epoch number.
    pub fn delta_update(&self, rows: &[usize], x_rows: &Dense, y_rows: &Dense) -> u64 {
        let _w = self.write_order.lock();
        let epoch = self.store.current_epoch() + 1;
        self.transport.ship(&EpochRecord::Delta {
            epoch,
            rows: rows.to_vec(),
            x_rows: x_rows.clone(),
            y_rows: y_rows.clone(),
        });
        let minted = self.store.delta_update(rows, x_rows, y_rows);
        debug_assert_eq!(minted, epoch, "write_order serializes coordinator writes");
        epoch
    }

    /// Refresh embeddings for `nodes` (any order, duplicates allowed):
    /// one row per requested node, in request order, every row computed
    /// by its owning worker from the same pinned epoch. Blocking form
    /// of [`embed_begin`](Self::embed_begin).
    pub fn embed(&self, nodes: &[usize]) -> Result<Dense, ServeError> {
        self.embed_begin(nodes)?.wait()
    }

    /// Begin an embedding request without blocking: pins one epoch,
    /// dispatches the per-shard pieces over the transport immediately,
    /// and returns a [`Ticket`] whose lazy gather assembles the rows
    /// as reply frames land — out of order across workers is fine.
    pub fn embed_begin(&self, nodes: &[usize]) -> Result<Ticket<Dense>, ServeError> {
        Ok(self.embed_begin_opts(nodes, EmbedOptions::default())?.map(|r| r.rows))
    }

    /// [`embed_begin`](Self::embed_begin) with per-request
    /// [`EmbedOptions`] — deadlines propagate to the workers (expired
    /// pieces are dropped before their kernel launch, and the typed
    /// expiry comes back over the wire), quality tiers ride the
    /// request frames.
    pub fn embed_begin_opts(
        &self,
        nodes: &[usize],
        opts: EmbedOptions,
    ) -> Result<Ticket<EmbedResponse>, ServeError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServeError::EngineShutdown);
        }
        let m = self.nvertices();
        for &node in nodes {
            if node >= m {
                return Err(ServeError::NodeOutOfRange { node, nvertices: m });
            }
        }
        if nodes.is_empty() {
            self.stats.ready();
            return Ok(Ticket::ready(Ok(EmbedResponse {
                rows: Dense::zeros(0, self.dimension()),
                served_degraded: Vec::new(),
                quality: opts.quality,
            })));
        }
        let mut quality = opts.quality;
        let inflight = self.inflight.value();
        let queued_rows = (0..self.nshards()).map(|s| self.transport.queued_rows(s)).sum();
        match self.admission.decide(inflight, queued_rows) {
            Admission::Admit => {}
            Admission::Degrade => {
                // No front-end cache: the only downgrade rung is the
                // truncated-neighborhood tier.
                quality = AdmissionPolicy::downgrade(quality, false);
            }
            Admission::Shed => {
                self.stats.shed();
                return Err(ServeError::Shed { inflight, queued_rows });
            }
        }
        if opts.deadline.is_some_and(|d| d <= Instant::now()) {
            self.stats.begin();
            self.stats.fail();
            return Err(ServeError::DeadlineExpired);
        }
        let t0 = Instant::now();
        let root = self.tracer.sample_root();
        let begin_ns = if root.is_some() { self.tracer.now() } else { 0 };
        let epoch = self.store.snapshot();
        let guard = self.inflight.acquire();
        if quality == Quality::CachedOnly {
            // The remote front end holds no result cache; the tier's
            // contract (never block on a kernel) degrades every row.
            self.stats.ready_degraded();
            self.embed_latency.record(t0.elapsed());
            if let Some(r) = root {
                let now = self.tracer.now();
                self.tracer.record(r, SpanKind::Embed, begin_ns, now, None, nodes.len() as u64);
            }
            return Ok(Ticket::ready(Ok(EmbedResponse {
                rows: Dense::zeros(nodes.len(), self.dimension()),
                served_degraded: vec![true; nodes.len()],
                quality,
            })));
        }
        let out = Dense::zeros(nodes.len(), self.dimension());
        let union = dedup_union([nodes]);
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.nshards()];
        for &u in &union {
            per_shard[self.owner(u)].push(u);
        }
        let mut parts = Vec::new();
        for (s, shard_nodes) in per_shard.into_iter().enumerate() {
            if shard_nodes.is_empty() {
                continue;
            }
            let (tx, rx) = slot();
            let trace = root.map(|r| RpcSpan {
                tracer: Arc::clone(&self.tracer),
                ctx: self.tracer.child(r),
                start_ns: self.tracer.now(),
                shard: s,
                rows: shard_nodes.len() as u64,
            });
            self.transport.embed_part(
                s,
                &shard_nodes,
                epoch.epoch(),
                quality,
                opts.deadline,
                PartSlot::new(tx, trace),
            );
            // The healthy-path retry after a failed part: re-dispatch
            // the same nodes at the same pinned epoch (bit-identical
            // when it lands), through a fresh slot. A live worker
            // serves it from its epoch history; a worker that
            // restarted meanwhile fails it again, and the failure
            // surfaces as the typed `PartFailed`.
            let transport = Arc::clone(&self.transport);
            let epoch_no = epoch.epoch();
            let deadline = opts.deadline;
            let retry: PartRetry = Box::new(move |nodes: &[usize]| {
                let (tx, rx) = slot();
                transport.embed_part(
                    s,
                    nodes,
                    epoch_no,
                    quality,
                    deadline,
                    PartSlot::new(tx, None),
                );
                Ok(rx)
            });
            parts.push(Part::with_retry(shard_nodes, s, Some(s), rx, Some(retry)));
        }
        let positions = (0..nodes.len()).map(|i| (i, nodes[i])).collect();
        self.stats.begin();
        let completion = Completion {
            hist: Some(Arc::clone(&self.embed_latency)),
            stats: Some(Arc::clone(&self.stats)),
            trace: root.map(|r| TraceHandle {
                tracer: Arc::clone(&self.tracer),
                root: r,
                begin_ns,
            }),
        };
        Ok(Ticket::pending(EmbedAssembly::assemble(
            out,
            parts,
            Vec::<WaiterSlot>::new(),
            positions,
            vec![matches!(quality, Quality::TopKNeighbors(_)); nodes.len()],
            quality,
            completion,
            Some(Arc::clone(&self.fanout)),
            guard,
        )))
    }

    /// Score candidate `(u, v)` edges, scattering each pair to the
    /// worker owning its source vertex under one pinned epoch and
    /// gathering scores back in request order.
    pub fn score_edges(&self, pairs: &[(usize, usize)]) -> Result<Vec<f32>, ServeError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServeError::EngineShutdown);
        }
        let m = self.nvertices();
        let n = self.store.y_rows();
        for &(u, v) in pairs {
            if u >= m {
                return Err(ServeError::NodeOutOfRange { node: u, nvertices: m });
            }
            if v >= n {
                return Err(ServeError::NodeOutOfRange { node: v, nvertices: n });
            }
        }
        let epoch = self.store.snapshot();
        type ShardPairs = (Vec<usize>, Vec<(usize, usize)>);
        let mut per_shard: Vec<ShardPairs> = vec![(Vec::new(), Vec::new()); self.nshards()];
        for (i, &pair) in pairs.iter().enumerate() {
            let (idx, sub) = &mut per_shard[self.owner(pair.0)];
            idx.push(i);
            sub.push(pair);
        }
        let mut out = vec![0f32; pairs.len()];
        let pinned = epoch.epoch();
        // Fan out to every owning worker before the first wait: each
        // non-empty shard's round-trip runs on its own thread, so one
        // slow worker overlaps the others instead of serializing them.
        // All calls are joined before the error scan, which walks in
        // shard order — the reported failure is deterministic (lowest
        // failing shard index) regardless of completion order.
        let results: Vec<(usize, Result<Vec<f32>, ServeError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_shard
                .iter()
                .enumerate()
                .filter(|(_, (_, sub))| !sub.is_empty())
                .map(|(s, (_, sub))| {
                    let transport = &self.transport;
                    scope.spawn(move || (s, transport.score_part(s, sub, pinned)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("score_part fan-out thread panicked"))
                .collect()
        });
        for (s, res) in results {
            let scores = res?;
            let (idx, sub) = &per_shard[s];
            if scores.len() != sub.len() {
                return Err(ServeError::PartFailed { shard: Some(s) });
            }
            for (&i, score) in idx.iter().zip(scores) {
                out[i] = score;
            }
        }
        Ok(out)
    }

    /// Point-in-time front-end metrics.
    pub fn metrics(&self) -> RemoteMetrics {
        let inflight = self.inflight.snapshot();
        RemoteMetrics {
            uptime: self.started.elapsed(),
            embed: self.embed_latency.snapshot(),
            fanout: (0..self.nshards()).map(|s| self.fanout.snapshot(s)).collect(),
            requests_begun: self.stats.begun.load(Ordering::Relaxed),
            requests_harvested: self.stats.harvested.load(Ordering::Relaxed),
            requests_degraded: self.stats.degraded.load(Ordering::Relaxed),
            requests_shed: self.stats.shed.load(Ordering::Relaxed),
            requests_failed: self.stats.failed.load(Ordering::Relaxed),
            requests_abandoned: self.stats.abandoned.load(Ordering::Relaxed),
            inflight: inflight.current,
            inflight_peak: inflight.peak,
            feature_epoch: self.store.current_epoch(),
            epoch_swaps: self.store.swap_count(),
        }
    }

    /// Register the front end's collectors with `registry` (request
    /// reconciliation, in-flight gauges, embed latency, per-shard
    /// fan-out). Transport-level collectors (bytes, frames, RTT,
    /// reconnects, lag) are registered by the transport itself.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let stats = Arc::clone(&self.stats);
        let inflight = Arc::clone(&self.inflight);
        let embed_latency = Arc::clone(&self.embed_latency);
        let fanout = Arc::clone(&self.fanout);
        let store = Arc::clone(&self.store);
        let nshards = self.nshards();
        registry.register(move |out| {
            out.push(Sample::histogram("fusedmm_embed_latency_seconds", embed_latency.snapshot()));
            push_outcome_samples(out, &stats, &[]);
            let snap = inflight.snapshot();
            out.push(Sample::gauge("fusedmm_requests_inflight", snap.current as f64));
            out.push(Sample::gauge("fusedmm_requests_inflight_peak", snap.peak as f64));
            out.push(Sample::gauge("fusedmm_feature_epoch", store.current_epoch() as f64));
            out.push(Sample::counter("fusedmm_epoch_swaps_total", store.swap_count()));
            for s in 0..nshards {
                out.push(
                    Sample::histogram("fusedmm_fanout_gather_seconds", fanout.snapshot(s))
                        .label("shard", s.to_string()),
                );
            }
        });
    }

    /// Stop the front end: reject new requests and shut the transport
    /// down (pending parts resolve with typed failures, not hangs).
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.stopped.store(true, Ordering::Release);
        self.transport.shutdown();
    }
}

impl Drop for RemoteShardedEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Front-end statistics reported by [`RemoteShardedEngine::metrics`].
#[derive(Debug, Clone)]
pub struct RemoteMetrics {
    /// Time since the front end was constructed.
    pub uptime: std::time::Duration,
    /// Request latency, begin → response assembled (every request —
    /// remote parts have no local dispatcher histogram).
    pub embed: HistogramSnapshot,
    /// Gather progress per shard, front-end view.
    pub fanout: Vec<HistogramSnapshot>,
    /// Requests admitted.
    pub requests_begun: u64,
    /// Requests assembled at full fidelity.
    pub requests_harvested: u64,
    /// Requests answered degraded.
    pub requests_degraded: u64,
    /// Requests rejected by admission.
    pub requests_shed: u64,
    /// Requests resolved with a typed error.
    pub requests_failed: u64,
    /// Tickets dropped unresolved. `begun == harvested + degraded +
    /// shed + failed + abandoned` once every ticket has resolved.
    pub requests_abandoned: u64,
    /// Requests currently open.
    pub inflight: u64,
    /// Deepest in-flight window ever held.
    pub inflight_peak: u64,
    /// The feature epoch currently served.
    pub feature_epoch: u64,
    /// Completed feature-store swaps.
    pub epoch_swaps: u64,
}

impl std::fmt::Display for RemoteMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} remote shards, epoch {} ({} swaps), requests {} begun / {} harvested / \
             {} degraded / {} shed / {} failed / {} abandoned, in-flight {} (peak {}), embed: {}",
            self.fanout.len(),
            self.feature_epoch,
            self.epoch_swaps,
            self.requests_begun,
            self.requests_harvested,
            self.requests_degraded,
            self.requests_shed,
            self.requests_failed,
            self.requests_abandoned,
            self.inflight,
            self.inflight_peak,
            self.embed
        )
    }
}

/// A typed failure from one worker-side part computation — what the
/// worker reports back over the wire (the transport maps it onto
/// [`PartOutcome`] at the coordinator).
#[derive(Debug)]
pub enum WorkerError {
    /// The request pinned an epoch this replica no longer (or does not
    /// yet) hold — e.g. it restarted and caught up past it.
    EpochUnavailable {
        /// The epoch the request pinned.
        epoch: u64,
        /// The replica's current epoch.
        current: u64,
    },
    /// The band engine failed the piece (deadline expiry, a panicked
    /// launch past its retry, shutdown, a range error).
    Serve(ServeError),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::EpochUnavailable { epoch, current } => {
                write!(f, "epoch {epoch} not in replica history (current {current})")
            }
            WorkerError::Serve(e) => write!(f, "{e}"),
        }
    }
}

/// One shard's host inside a worker process: a band
/// [`Engine`] over the shard's rows, a replica
/// [`FeatureStore`] fed by the coordinator's epoch log, a pinned-epoch
/// history so requests resolve at exactly the epoch the coordinator
/// pinned, and (optionally) a per-replica [`EmbedCache`] whose
/// invalidations ride the same stream through the standard
/// [`EpochListener`](crate::EpochListener) subscription —
/// `on_delta`-precise, identically to the in-process front end.
pub struct WorkerEngine {
    engine: Engine,
    store: Arc<FeatureStore>,
    /// Per-replica result cache, keyed by global node id over the full
    /// adjacency (only this band's rows are ever probed or filled, but
    /// global keying keeps ids and reverse-adjacency touch sets
    /// identical to the in-process shared cache).
    cache: Option<Arc<EmbedCache>>,
    /// Recent epochs by number. FIFO framing guarantees the record
    /// minting `E` precedes any request pinned at `E`, so a lookup
    /// miss means the epoch was evicted (or this replica restarted) —
    /// a typed, retryable failure.
    epochs: Mutex<std::collections::BTreeMap<u64, Arc<FeatureEpoch>>>,
    /// False until the first applied record: a fresh replica's
    /// features are boot placeholders, so the coordinator must start
    /// it from a snapshot no matter what epoch number it reports.
    replicated: AtomicBool,
    band: Range<usize>,
    shard: usize,
    inflight: Arc<Gauge>,
    fault: Option<Arc<FaultPlan>>,
}

impl WorkerEngine {
    /// Host shard `shard` of `a` (rows `band`), with `x0`/`y0` as boot
    /// placeholder features (replaced by the coordinator's snapshot
    /// before any request arrives — the Hello handshake reports this
    /// replica as fresh). `config.cache` enables the per-replica
    /// result cache; `config.fault` / `FUSEDMM_FAULT_PLAN` inject
    /// worker-side kernel chaos exactly as in-process;
    /// `config.coalesce_window` is ignored — a worker never lingers
    /// (its serve loop is the band queue's only producer).
    ///
    /// # Panics
    /// Panics on shape mismatches or an out-of-range band.
    pub fn new(
        a: &Csr,
        band: Range<usize>,
        shard: usize,
        x0: Dense,
        y0: Dense,
        ops: OpSet,
        config: EngineConfig,
    ) -> WorkerEngine {
        assert!(band.start <= band.end && band.end <= a.nrows(), "band within the graph");
        assert_eq!(x0.nrows(), a.nrows(), "X must have one row per vertex");
        assert_eq!(y0.nrows(), a.ncols(), "Y must have one row per vertex");
        let store = Arc::new(FeatureStore::new(x0, y0));
        let d = store.d();
        let cache = config.cache.map(|cache_cfg| {
            let cache = Arc::new(EmbedCache::new(a, d, cache_cfg));
            store.subscribe(Arc::clone(&cache) as _);
            cache
        });
        let tracer = config.tracer.clone().unwrap_or_else(|| Arc::clone(Tracer::global()));
        let fault_cfg = config
            .fault
            .clone()
            .or_else(FaultPlan::from_env)
            .unwrap_or_else(|| Arc::new(FaultPlan::disabled()));
        let plan = Plan::with_blocking(&ops, d, config.blocking, PartitionStrategy::NnzBalanced);
        let band_config = EngineConfig {
            // A worker serves one connection and handles its frames one
            // after another, so `embed_part` below is this queue's only
            // producer: nothing can join a batch during a linger, and
            // the window would be dead time plus a timed wake on every
            // remote part, whatever the caller asked for.
            coalesce_window: Duration::ZERO,
            cache: None,
            tracer: Some(tracer),
            admission: Some(AdmissionPolicy::unlimited()),
            fault: Some(Arc::clone(&fault_cfg)),
            reordering: None,
            ..config
        };
        let engine = Engine::for_band(
            a.row_band(band.clone()),
            BandId { start: band.start, shard: Some(shard) },
            Arc::clone(&store),
            None,
            ops,
            plan,
            band_config,
            None,
        );
        let mut epochs = std::collections::BTreeMap::new();
        epochs.insert(store.current_epoch(), store.snapshot());
        WorkerEngine {
            engine,
            store,
            cache,
            epochs: Mutex::new(epochs),
            replicated: AtomicBool::new(false),
            band,
            shard,
            inflight: Arc::new(Gauge::new()),
            fault: Some(fault_cfg).filter(|f| f.is_active()),
        }
    }

    /// This replica's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The global row band this replica owns.
    pub fn band(&self) -> Range<usize> {
        self.band.clone()
    }

    /// Rows of the (global) Y column space.
    pub fn y_rows(&self) -> usize {
        self.store.y_rows()
    }

    /// The embedding dimension served.
    pub fn dimension(&self) -> usize {
        self.store.d()
    }

    /// The replica's current epoch.
    pub fn current_epoch(&self) -> u64 {
        self.store.current_epoch()
    }

    /// True until the first epoch record is applied: a fresh replica
    /// holds boot placeholders and must be started from a snapshot.
    pub fn is_fresh(&self) -> bool {
        !self.replicated.load(Ordering::Acquire)
    }

    /// Apply one record of the coordinator's epoch log, in log order.
    /// Listeners on the replica store (the per-replica cache) see the
    /// same publish/delta distinction — and the same touch sets — as
    /// in-process subscribers. Returns the replica's new epoch.
    ///
    /// # Panics
    /// Panics on a log gap or regression — a replica that detects
    /// stream corruption must not keep serving silently-forked
    /// features.
    pub fn apply(&self, record: EpochRecord) -> u64 {
        let epoch = record.epoch();
        match record {
            EpochRecord::Publish { x, y, .. } | EpochRecord::Snapshot { x, y, .. } => {
                self.store.publish_at(epoch, x, y);
            }
            EpochRecord::Delta { rows, x_rows, y_rows, .. } => {
                self.store.delta_update_at(epoch, &rows, &x_rows, &y_rows);
            }
        }
        let mut epochs = self.epochs.lock();
        if self.is_fresh() {
            // The boot placeholders leave with the first real record: no
            // coordinator can pin them, and a replica seeded at epoch
            // `E != 0` would otherwise keep two matrices of zeros
            // pinned for `EPOCH_RETAIN` more epochs.
            epochs.clear();
        }
        epochs.insert(epoch, self.store.snapshot());
        while epochs.len() > EPOCH_RETAIN {
            let oldest = *epochs.keys().next().expect("nonempty history");
            epochs.remove(&oldest);
        }
        drop(epochs);
        self.replicated.store(true, Ordering::Release);
        epoch
    }

    /// Look up the pinned snapshot for `epoch`.
    fn pinned(&self, epoch: u64) -> Result<Arc<FeatureEpoch>, WorkerError> {
        self.epochs
            .lock()
            .get(&epoch)
            .cloned()
            .ok_or(WorkerError::EpochUnavailable { epoch, current: self.store.current_epoch() })
    }

    /// Serve one embed part at the exact epoch the coordinator pinned:
    /// probe the per-replica cache (Exact tier), fan the misses into
    /// the band engine's batcher with cache back-fill, and assemble —
    /// the same machinery as the in-process front end, one shard wide.
    /// `nodes` are global ids within this replica's band, sorted and
    /// deduplicated by the coordinator (duplicates are tolerated).
    pub fn embed_part(
        &self,
        nodes: &[usize],
        epoch: u64,
        quality: Quality,
        deadline: Option<Instant>,
    ) -> Result<EmbedResponse, WorkerError> {
        let pinned = self.pinned(epoch)?;
        let (lo, hi) = (self.band.start, self.band.end);
        for &node in nodes {
            if node < lo || node >= hi {
                return Err(WorkerError::Serve(ServeError::NodeOutOfRange { node, nvertices: hi }));
            }
        }
        if nodes.is_empty() {
            return Ok(EmbedResponse {
                rows: Dense::zeros(0, self.dimension()),
                served_degraded: Vec::new(),
                quality,
            });
        }
        if deadline.is_some_and(|d| d <= Instant::now()) {
            return Err(WorkerError::Serve(ServeError::DeadlineExpired));
        }
        let mut out = Dense::zeros(nodes.len(), self.dimension());
        // The truncated tier bypasses the cache (truncated rows must
        // never be cached); `CachedOnly` is resolved at the
        // coordinator and never crosses the wire.
        let (to_compute, positions, waiters, owners) = match &self.cache {
            Some(cache) if quality == Quality::Exact => {
                let (misses, positions) = cache.split(nodes, pinned.epoch(), &mut out);
                if misses.is_empty() {
                    return Ok(EmbedResponse {
                        rows: out,
                        served_degraded: vec![false; nodes.len()],
                        quality,
                    });
                }
                let mut owned = Vec::new();
                let mut owners = Vec::new();
                let mut waiters = Vec::new();
                for &u in &misses {
                    match cache.route_miss(u, pinned.epoch()) {
                        MissRoute::Owner(owner) => {
                            owned.push(u);
                            owners.push(owner);
                        }
                        MissRoute::Waiter(waiter) => waiters.push(WaiterSlot::new(u, waiter)),
                        MissRoute::Resident(row) => waiters.push(WaiterSlot::resolved(u, row)),
                    }
                }
                (owned, positions, waiters, owners)
            }
            _ => {
                let union = dedup_union([nodes]);
                (union, (0..nodes.len()).collect(), Vec::new(), Vec::<InflightOwner>::new())
            }
        };
        let mut parts = Vec::new();
        if !to_compute.is_empty() {
            let fills = match (&self.cache, quality) {
                (Some(cache), Quality::Exact) => {
                    Some(FillSet::new(Arc::clone(cache), owners, self.fault.clone()))
                }
                _ => None,
            };
            let rx = self
                .engine
                .enqueue_pinned(&to_compute, Arc::clone(&pinned), fills, None, quality, deadline)
                .map_err(WorkerError::Serve)?;
            let retry = self.engine.retry_handle(Arc::clone(&pinned), quality, deadline);
            parts.push(Part::with_retry(to_compute, 0, Some(self.shard), rx, Some(retry)));
        }
        let positions = positions.into_iter().map(|i| (i, nodes[i])).collect();
        let guard = self.inflight.acquire();
        let assembly = EmbedAssembly::assemble(
            out,
            parts,
            waiters,
            positions,
            vec![false; nodes.len()],
            quality,
            Completion::default(),
            None,
            guard,
        );
        Ticket::pending(assembly).wait().map_err(WorkerError::Serve)
    }

    /// Score one part's pairs at the pinned epoch (sources within this
    /// band, targets global).
    pub fn score_part(
        &self,
        pairs: &[(usize, usize)],
        epoch: u64,
    ) -> Result<Vec<f32>, WorkerError> {
        let pinned = self.pinned(epoch)?;
        self.engine.score_edges_pinned(pairs, &pinned).map_err(WorkerError::Serve)
    }

    /// Register this replica's band engine (and cache) with
    /// `registry`, labeled `shard="<i>"`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let tag = self.shard.to_string();
        self.engine.register_metrics(registry, &[("shard", &tag)]);
        if let Some(cache) = &self.cache {
            let cache = Arc::clone(cache);
            let labels = vec![("shard".to_string(), tag)];
            registry.register(move |out| {
                crate::observe::push_cache_samples(out, &cache.metrics(), &labels);
            });
        }
    }

    /// Rows queued (undispatched) in this replica's band engine.
    pub fn queued_rows(&self) -> usize {
        self.engine.queued_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_core::fusedmm_reference;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn graph(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            let deg = if u % 7 == 0 { 9 } else { 2 };
            for k in 1..=deg {
                c.push(u, (u * 3 + k * 5 + 1) % n, 0.3 + k as f32 * 0.2);
            }
        }
        c.to_csr(Dedup::Sum)
    }

    fn config() -> EngineConfig {
        EngineConfig { coalesce_window: Duration::ZERO, ..EngineConfig::default() }
    }

    /// An in-process transport: worker engines behind the trait, no
    /// sockets — isolates the RemoteShardedEngine logic from framing.
    struct LocalTransport {
        workers: Vec<Arc<WorkerEngine>>,
        boundaries: Vec<usize>,
    }

    impl LocalTransport {
        fn new(a: &Csr, nshards: usize, d: usize, cache: bool) -> LocalTransport {
            let part = fusedmm_core::Partition::part1d(a, nshards, PartitionStrategy::NnzBalanced);
            let workers = (0..part.len())
                .map(|s| {
                    let cfg =
                        EngineConfig { cache: cache.then(crate::CacheConfig::default), ..config() };
                    Arc::new(WorkerEngine::new(
                        a,
                        part.rows(s),
                        s,
                        Dense::zeros(a.nrows(), d),
                        Dense::zeros(a.ncols(), d),
                        OpSet::sigmoid_embedding(None),
                        cfg,
                    ))
                })
                .collect();
            LocalTransport { workers, boundaries: part.boundaries().to_vec() }
        }
    }

    impl ShardTransport for LocalTransport {
        fn nshards(&self) -> usize {
            self.workers.len()
        }

        fn boundaries(&self) -> Vec<usize> {
            self.boundaries.clone()
        }

        fn embed_part(
            &self,
            shard: usize,
            nodes: &[usize],
            epoch: u64,
            quality: Quality,
            deadline: Option<Instant>,
            slot: PartSlot,
        ) {
            let worker = Arc::clone(&self.workers[shard]);
            let nodes = nodes.to_vec();
            std::thread::spawn(move || match worker.embed_part(&nodes, epoch, quality, deadline) {
                Ok(resp) => slot.resolve(PartOutcome::Rows(resp.rows)),
                Err(WorkerError::Serve(ServeError::DeadlineExpired)) => {
                    slot.resolve(PartOutcome::Expired)
                }
                Err(_) => slot.resolve(PartOutcome::Failed),
            });
        }

        fn score_part(
            &self,
            shard: usize,
            pairs: &[(usize, usize)],
            epoch: u64,
        ) -> Result<Vec<f32>, ServeError> {
            self.workers[shard]
                .score_part(pairs, epoch)
                .map_err(|_| ServeError::PartFailed { shard: Some(shard) })
        }

        fn ship(&self, record: &EpochRecord) {
            for w in &self.workers {
                w.apply(record.clone());
            }
        }
    }

    #[test]
    fn remote_front_end_matches_in_process_across_publishes_and_deltas() {
        let n = 80;
        let d = 12;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, k| ((r * 3 + k) as f32 * 0.05).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r + k * 2) as f32 * 0.04).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let local = crate::ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops, 3, config());
        let transport = Arc::new(LocalTransport::new(&a, 3, d, true));
        let remote = RemoteShardedEngine::new(x.clone(), y.clone(), transport, config());
        assert_eq!(remote.boundaries(), local.boundaries(), "same PART1D cut");

        let windows: Vec<Vec<usize>> =
            vec![vec![79, 0, 40, 79, 13, 41, 7], vec![5, 64, 5], (0..n).collect()];
        for w in &windows {
            assert_eq!(remote.embed(w).unwrap(), local.embed(w).unwrap(), "epoch 0");
        }
        // A delta update: both sides mint epoch 1 from the same patch.
        let rows = vec![0usize, 13, 79];
        let px = Dense::from_fn(rows.len(), d, |r, k| (r * 7 + k) as f32 * 0.01);
        let py = Dense::from_fn(rows.len(), d, |r, k| (r + k * 3) as f32 * 0.02);
        assert_eq!(remote.delta_update(&rows, &px, &py), 1);
        assert_eq!(local.store().delta_update(&rows, &px, &py), 1);
        for w in &windows {
            assert_eq!(remote.embed(w).unwrap(), local.embed(w).unwrap(), "epoch 1");
        }
        // A whole publish: epoch 2.
        let x2 = Dense::from_fn(n, d, |r, k| ((r + k) as f32 * 0.03).cos());
        let y2 = Dense::from_fn(n, d, |r, k| ((r * 2 + k) as f32 * 0.05).sin());
        assert_eq!(remote.publish(x2.clone(), y2.clone()), 2);
        assert_eq!(local.store().publish(x2.clone(), y2.clone()), 2);
        for w in &windows {
            assert_eq!(remote.embed(w).unwrap(), local.embed(w).unwrap(), "epoch 2");
        }
        // Reference check so the whole chain is anchored to the paper
        // kernel, not just to itself (approximate: the blocked kernel
        // sums in a different order than the naive reference).
        let reference = fusedmm_reference(&a, &x2, &y2, &OpSet::sigmoid_embedding(None));
        let z = remote.embed(&[3, 17, 42]).unwrap();
        for (i, &u) in [3usize, 17, 42].iter().enumerate() {
            for (got, want) in z.row(i).iter().zip(reference.row(u)) {
                assert!((got - want).abs() <= 1e-5, "row {u}: {got} vs {want}");
            }
        }
        let m = remote.metrics();
        assert_eq!(
            m.requests_begun,
            m.requests_harvested + m.requests_degraded + m.requests_failed + m.requests_abandoned
        );
    }

    #[test]
    fn remote_scores_match_in_process() {
        let n = 60;
        let d = 8;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, k| ((r + k) as f32 * 0.07).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r * 2 + k) as f32 * 0.03).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let local = crate::ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops, 2, config());
        let transport = Arc::new(LocalTransport::new(&a, 2, d, false));
        let remote = RemoteShardedEngine::new(x, y, transport, config());
        let pairs = [(0usize, 5usize), (59, 0), (30, 30), (7, 41)];
        assert_eq!(remote.score_edges(&pairs).unwrap(), local.score_edges(&pairs).unwrap());
    }

    #[test]
    fn score_edges_fans_out_to_all_shards_before_waiting() {
        use std::sync::{Condvar, Mutex};

        /// Wraps the in-process transport with an entry latch: every
        /// `score_part` call blocks until all `expected` shards' calls
        /// are in flight at once. The sequential resolution this guards
        /// against waits on shard 0's reply before issuing shard 1's
        /// call, so the latch can never fill — the timeout then turns
        /// that regression into a typed failure rather than a hang
        /// (and blocked threads cost nothing, so this holds on one
        /// core too).
        struct LatchTransport {
            inner: LocalTransport,
            entered: Mutex<usize>,
            all_in: Condvar,
            expected: usize,
        }

        impl ShardTransport for LatchTransport {
            fn nshards(&self) -> usize {
                self.inner.nshards()
            }

            fn boundaries(&self) -> Vec<usize> {
                self.inner.boundaries()
            }

            fn embed_part(
                &self,
                shard: usize,
                nodes: &[usize],
                epoch: u64,
                quality: Quality,
                deadline: Option<Instant>,
                slot: PartSlot,
            ) {
                self.inner.embed_part(shard, nodes, epoch, quality, deadline, slot);
            }

            fn score_part(
                &self,
                shard: usize,
                pairs: &[(usize, usize)],
                epoch: u64,
            ) -> Result<Vec<f32>, ServeError> {
                let mut n = self.entered.lock().unwrap();
                *n += 1;
                self.all_in.notify_all();
                while *n < self.expected {
                    let (guard, timeout) =
                        self.all_in.wait_timeout(n, Duration::from_secs(10)).unwrap();
                    n = guard;
                    if timeout.timed_out() && *n < self.expected {
                        return Err(ServeError::PartFailed { shard: Some(shard) });
                    }
                }
                drop(n);
                self.inner.score_part(shard, pairs, epoch)
            }

            fn ship(&self, record: &EpochRecord) {
                self.inner.ship(record);
            }
        }

        let n = 60;
        let d = 8;
        let nshards = 3;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, k| ((r + k) as f32 * 0.07).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r * 2 + k) as f32 * 0.03).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let local =
            crate::ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops, nshards, config());
        let transport = Arc::new(LatchTransport {
            inner: LocalTransport::new(&a, nshards, d, false),
            entered: Mutex::new(0),
            all_in: Condvar::new(),
            expected: nshards,
        });
        let remote = RemoteShardedEngine::new(x, y, transport, config());
        // Sources span 0..n, so every shard's band owns at least one
        // pair and all three latch slots must fill.
        let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
        assert_eq!(remote.score_edges(&pairs).unwrap(), local.score_edges(&pairs).unwrap());
    }

    #[test]
    fn stale_epoch_past_history_is_a_typed_failure() {
        let n = 24;
        let d = 4;
        let a = graph(n);
        let worker = WorkerEngine::new(
            &a,
            0..n,
            0,
            Dense::zeros(n, d),
            Dense::zeros(n, d),
            OpSet::gcn(),
            config(),
        );
        worker.apply(EpochRecord::Snapshot {
            epoch: 0,
            x: Arc::new(Dense::filled(n, d, 0.5)),
            y: Arc::new(Dense::filled(n, d, 0.5)),
        });
        // Push the history far past retention.
        for e in 1..=(EPOCH_RETAIN as u64 + 4) {
            worker.apply(EpochRecord::Delta {
                epoch: e,
                rows: vec![0],
                x_rows: Dense::filled(1, d, e as f32),
                y_rows: Dense::filled(1, d, e as f32),
            });
        }
        match worker.embed_part(&[1], 0, Quality::Exact, None) {
            Err(WorkerError::EpochUnavailable { epoch: 0, .. }) => {}
            other => panic!("expected EpochUnavailable, got {other:?}"),
        }
        // The newest epochs are all servable.
        assert!(worker.embed_part(&[1], worker.current_epoch(), Quality::Exact, None).is_ok());
    }
}
