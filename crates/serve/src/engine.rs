//! The serving engine: graph loaded once, plan prepared once, features
//! borrowed per-batch from an epoch-versioned [`FeatureStore`], three
//! request kinds served concurrently.
//!
//! An engine may own a whole graph ([`Engine::new`] /
//! [`Engine::with_store`]) or one PART1D row band of it (constructed by
//! [`ShardedEngine`](crate::ShardedEngine)): `band_start` maps the
//! band's local CSR rows back to global vertex ids, while `Y` — the
//! column space — and the store stay global. Every batch pins exactly
//! one feature epoch end-to-end, so a response is never torn across a
//! concurrent [`FeatureStore::publish`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fusedmm_cache::{CacheConfig, CacheMetrics, MissRoute};
use fusedmm_core::{Blocking, Plan};
use fusedmm_graph::Reordering;
use fusedmm_ops::OpSet;
use fusedmm_perf::gauge::Gauge;
use fusedmm_perf::hist::{HistogramSnapshot, LatencyHistogram};
use fusedmm_perf::registry::{MetricsRegistry, Sample};
use fusedmm_perf::trace::{SpanCtx, SpanKind, Tracer};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::{BufferHome, Permutation};

use crate::admit::{Admission, AdmissionPolicy};
use crate::batcher::{dedup_union, group_by_epoch, scatter_rows, BatchQueue, Pending};
use crate::cache::{EmbedCache, FillSet};
use crate::fault::FaultPlan;
use crate::observe::{apply_labels, push_cache_samples, push_outcome_samples};
use crate::score::score_edges_banded;
use crate::store::{FeatureEpoch, FeatureStore};
use crate::ticket::{
    Completion, EmbedAssembly, EmbedOptions, EmbedResponse, Part, PartRetry, Quality, RequestStats,
    Ticket, TraceHandle, WaiterSlot,
};
use crate::wait::{slot, PartError, SlotRx};

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Cap on requested rows the dispatcher coalesces into one kernel
    /// launch. A single larger request is still served whole.
    pub max_batch_rows: usize,
    /// How long the dispatcher lingers after the first request of a
    /// tick so concurrent callers can join the batch. Zero disables
    /// the wait (lowest latency, least coalescing).
    pub coalesce_window: Duration,
    /// How the engine's kernel plan runs a launch (see [`Blocking`]);
    /// the default [`Blocking::Auto`] is what every other entry point
    /// of the library runs.
    pub blocking: Blocking,
    /// Enable the epoch-aware embedding result cache (`None` =
    /// compute every request). Hot repeated rows are then served from
    /// memory; publishes invalidate everything lazily, delta updates
    /// only their dependency touch set. See the README's "Result
    /// caching" section for the semantics.
    pub cache: Option<CacheConfig>,
    /// Request-lifecycle tracer. `None` (the default) uses the
    /// process-wide [`Tracer::global`], whose sample rate comes from
    /// the `FUSEDMM_TRACE` environment variable (unset = tracing off).
    /// Tests inject an explicit tracer here to avoid environment
    /// coupling.
    pub tracer: Option<Arc<Tracer>>,
    /// Admission policy capping in-flight requests and queued rows.
    /// `None` (the default) reads `FUSEDMM_ADMIT_*` from the
    /// environment (unset = unlimited); tests and examples inject an
    /// explicit policy to avoid environment coupling.
    pub admission: Option<AdmissionPolicy>,
    /// Fault-injection plan for chaos testing. `None` (the default)
    /// reads `FUSEDMM_FAULT_PLAN` from the environment (unset =
    /// disabled); pass `Some(Arc::new(FaultPlan::disabled()))` to make
    /// an engine immune regardless of the environment.
    pub fault: Option<Arc<FaultPlan>>,
    /// Reorder the graph at load time (degree sort / RCM BFS — see
    /// [`Reordering`]) to improve locality and band balance on skewed
    /// graphs. External vertex ids are unchanged: requests are
    /// translated at the serving boundary and responses come back in
    /// request order, bit-identical to an unreordered engine. Only
    /// valid with engine-owned features ([`Engine::new`] /
    /// [`ShardedEngine::new`](crate::ShardedEngine::new)): an external
    /// [`FeatureStore`] cannot be assumed to be in permuted row order.
    pub reordering: Option<Reordering>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch_rows: 4096,
            coalesce_window: Duration::from_micros(50),
            blocking: Blocking::Auto,
            cache: None,
            tracer: None,
            admission: None,
            fault: None,
            reordering: None,
        }
    }
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A requested node id is outside the loaded graph (or, for a
    /// shard engine, outside the row band it owns).
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// One past the largest vertex id this engine can address.
        nvertices: usize,
    },
    /// The engine has been shut down.
    EngineShutdown,
    /// The admission policy rejected the request: the engine was at
    /// its in-flight or queued-rows cap (load observed at rejection
    /// time included for operator context). Shed requests cost no
    /// kernel time and no queue slot — back off and retry.
    Shed {
        /// Open requests when the policy rejected.
        inflight: u64,
        /// Queued (undispatched) rows when the policy rejected.
        queued_rows: usize,
    },
    /// The request's deadline passed before its rows were computed
    /// (possibly before it was even admitted). No kernel time was
    /// spent past the deadline.
    DeadlineExpired,
    /// A dispatched part of the request failed (its kernel launch
    /// panicked) and the one healthy-path retry failed too.
    PartFailed {
        /// The shard whose part failed terminally (`None` for a
        /// standalone engine or a coalesced-fill failure).
        shard: Option<usize>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NodeOutOfRange { node, nvertices } => {
                write!(f, "node {node} out of range for a graph of {nvertices} vertices")
            }
            ServeError::EngineShutdown => write!(f, "engine has shut down"),
            ServeError::Shed { inflight, queued_rows } => write!(
                f,
                "request shed by admission control ({inflight} in flight, {queued_rows} rows \
                 queued)"
            ),
            ServeError::DeadlineExpired => write!(f, "deadline expired before the rows computed"),
            ServeError::PartFailed { shard: Some(s) } => {
                write!(f, "shard {s} failed the request past its retry")
            }
            ServeError::PartFailed { shard: None } => {
                write!(f, "a part of the request failed past its retry")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Identity of an engine within a (possibly sharded) deployment:
/// where its row band starts, and which shard slot it fills.
pub(crate) struct BandId {
    /// Global vertex id of local CSR row 0 (0 for a whole-graph
    /// engine).
    pub start: usize,
    /// Shard index within a sharded front end (`None` for a standalone
    /// engine) — the `shard` tag on this engine's spans.
    pub shard: Option<usize>,
}

struct EngineShared {
    /// The adjacency rows this engine owns — the whole matrix, or one
    /// PART1D row band of it under local row indexing.
    a: Csr,
    /// Global vertex id of local CSR row 0 (0 for a whole-graph
    /// engine).
    band_start: usize,
    /// Shard index within a sharded front end (`None` standalone);
    /// labels this engine's spans.
    shard: Option<usize>,
    /// Feature source, shared with writers (and sibling shards).
    store: Arc<FeatureStore>,
    /// Result cache for this engine's output rows (whole-graph engines
    /// only; a sharded front end owns one shared cache instead and its
    /// band engines run uncached).
    cache: Option<Arc<EmbedCache>>,
    /// The load-time reordering's permutation (whole-graph engines
    /// only). When set, `a` and every feature epoch live in internal
    /// (permuted) row order; the request path translates external ids
    /// on entry and `infer_full` scatters its rows back on exit, so
    /// callers never see internal ids. Band engines under a sharded
    /// front end carry `None` — the front end owns the translation.
    perm: Option<Arc<Permutation>>,
    ops: OpSet,
    plan: Plan,
    queue: BatchQueue,
    /// Shared (`Arc`) so a fully coalesced ticket — which never reaches
    /// the dispatcher — can record its completion latency here.
    embed_latency: Arc<LatencyHistogram>,
    /// Ticketed + blocking embed requests currently open (begin →
    /// resolve), with the deepest window ever held.
    inflight: Arc<Gauge>,
    score_latency: LatencyHistogram,
    infer_latency: LatencyHistogram,
    batches_dispatched: AtomicU64,
    rows_requested: AtomicU64,
    rows_computed: AtomicU64,
    /// Request reconciliation: begun == harvested + degraded + shed +
    /// failed + abandoned once every ticket has resolved.
    stats: Arc<RequestStats>,
    /// Resolved admission policy (config override or environment).
    admission: AdmissionPolicy,
    /// Resolved fault-injection plan, `None` when chaos is off.
    fault: Option<Arc<FaultPlan>>,
    /// Kernel-launch panics caught at the dispatch boundary.
    panics_caught: AtomicU64,
    /// Requests dropped past their deadline without kernel time.
    expired_dropped: AtomicU64,
    /// Request-lifecycle span recorder (possibly disabled); shared by
    /// a sharded front end and its band engines so span ids and
    /// timestamps are consistent across one request's tree.
    tracer: Arc<Tracer>,
    started: Instant,
    stopped: AtomicBool,
}

impl EngineShared {
    /// One past the last global vertex id this engine's band owns.
    fn band_end(&self) -> usize {
        self.band_start + self.a.nrows()
    }

    /// Enqueue an embedding request pinned to `epoch`; the returned
    /// slot resolves with the rows (or a typed part error) once the
    /// dispatcher serves the batch. Nodes must already be
    /// range-checked. Lives on the shared state (not [`Engine`]) so a
    /// ticket's retry closure can re-enqueue without a handle to the
    /// engine.
    fn enqueue(
        &self,
        nodes: &[usize],
        epoch: Arc<FeatureEpoch>,
        fills: Option<FillSet>,
        trace: Option<SpanCtx>,
        quality: Quality,
        deadline: Option<Instant>,
    ) -> Result<SlotRx, ServeError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServeError::EngineShutdown);
        }
        let tracer = &self.tracer;
        let span = trace.map(|parent| (tracer.child(parent), tracer.now()));
        let (tx, rx) = slot();
        let accepted = self.queue.push(Pending {
            nodes: nodes.to_vec(),
            epoch,
            tx,
            fills,
            trace: span.map(|(ctx, _)| ctx),
            deadline,
            quality,
            enqueued: Instant::now(),
        });
        if !accepted {
            return Err(ServeError::EngineShutdown);
        }
        if let Some((ctx, start)) = span {
            tracer.record(
                ctx,
                SpanKind::Enqueue,
                start,
                tracer.now(),
                self.shard,
                nodes.len() as u64,
            );
        }
        Ok(rx)
    }
}

/// A loaded, ready-to-serve graph model. Share it across request
/// threads by reference (it is `Sync`); dropping it stops the
/// dispatcher.
pub struct Engine {
    shared: Arc<EngineShared>,
    dispatcher: Option<JoinHandle<()>>,
    config: EngineConfig,
    /// Where the whole-graph output of [`Engine::infer_full`] parks
    /// when its caller drops it, for the next call to write into: one
    /// `nvertices × d` buffer at most, freed with the engine.
    out_home: BufferHome,
}

impl Engine {
    /// Load `a` (adjacency), `x` (target-side features), `y`
    /// (neighbor-side features) and prepare the kernel plan for `ops`.
    /// For plain embedding refresh pass the same features as `x` and
    /// `y`. The features become epoch 0 of a fresh [`FeatureStore`]
    /// (reachable via [`Engine::store`] for live updates). Spawns the
    /// micro-batch dispatcher thread.
    ///
    /// # Panics
    /// Panics when shapes are inconsistent (same contract as
    /// [`fusedmm_core::fusedmm`]).
    pub fn new(a: Csr, x: Dense, y: Dense, ops: OpSet, config: EngineConfig) -> Engine {
        assert_eq!(x.nrows(), a.nrows(), "X must have one row per vertex");
        assert_eq!(y.nrows(), a.ncols(), "Y must have one row per vertex");
        assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
        match config.reordering {
            Some(r) => {
                let perm = Arc::new(r.compute(&a));
                let a = perm.permute_csr(&a);
                let store = Arc::new(FeatureStore::with_permutation(x, y, Arc::clone(&perm)));
                Engine::build(a, store, ops, config, Some(perm))
            }
            None => Engine::build(a, Arc::new(FeatureStore::new(x, y)), ops, config, None),
        }
    }

    /// Like [`Engine::new`], but borrowing features through an existing
    /// [`FeatureStore`] — the shape a training loop publishing live
    /// updates (or several engines sharing one model) uses.
    ///
    /// # Panics
    /// Panics when the store's shapes are inconsistent with `a`, or
    /// when [`EngineConfig::reordering`] is set — an external store
    /// cannot be assumed to hold features in the permuted row order
    /// (use [`Engine::new`], which owns the features end-to-end).
    pub fn with_store(
        a: Csr,
        store: Arc<FeatureStore>,
        ops: OpSet,
        config: EngineConfig,
    ) -> Engine {
        assert!(
            config.reordering.is_none(),
            "EngineConfig::reordering requires engine-owned features (Engine::new): an external \
             FeatureStore is not in permuted row order"
        );
        Engine::build(a, store, ops, config, None)
    }

    /// Shared tail of [`Engine::new`] / [`Engine::with_store`]: `a`
    /// and the store's epochs are already in the same (possibly
    /// permuted) row order.
    fn build(
        a: Csr,
        store: Arc<FeatureStore>,
        ops: OpSet,
        config: EngineConfig,
        perm: Option<Arc<Permutation>>,
    ) -> Engine {
        assert_eq!(store.x_rows(), a.nrows(), "store X must have one row per vertex");
        let d = store.d();
        let plan = Plan::with_blocking(
            &ops,
            d,
            config.blocking,
            fusedmm_core::PartitionStrategy::NnzBalanced,
        );
        let cache = config.cache.map(|cache_cfg| {
            let cache = Arc::new(EmbedCache::new(&a, d, cache_cfg));
            store.subscribe(Arc::clone(&cache) as _);
            cache
        });
        Engine::for_band(a, BandId { start: 0, shard: None }, store, cache, ops, plan, config, perm)
    }

    /// Construct an engine over one PART1D row band: `a` holds global
    /// rows `band.start..band.start + a.nrows()` under local indices,
    /// the store stays global. Used by
    /// [`ShardedEngine`](crate::ShardedEngine); the plan is supplied by
    /// the caller (shards share a tagged
    /// [`PlanCache`](fusedmm_core::PlanCache)).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_band(
        a: Csr,
        band: BandId,
        store: Arc<FeatureStore>,
        cache: Option<Arc<EmbedCache>>,
        ops: OpSet,
        plan: Plan,
        config: EngineConfig,
        perm: Option<Arc<Permutation>>,
    ) -> Engine {
        let band_start = band.start;
        assert!(
            perm.is_none() || band_start == 0,
            "a reordering permutation belongs to whole-graph engines; band engines serve \
             internal ids"
        );
        assert!(
            store.x_rows() >= band_start + a.nrows(),
            "store X ({} rows) must cover the band ending at {}",
            store.x_rows(),
            band_start + a.nrows()
        );
        assert_eq!(store.y_rows(), a.ncols(), "store Y must span the band's (global) columns");
        assert!(
            cache.is_none() || band_start == 0,
            "band engines are uncached; the sharded front end owns the shared cache"
        );
        let tracer = config.tracer.clone().unwrap_or_else(|| Arc::clone(Tracer::global()));
        let admission = config.admission.unwrap_or_else(AdmissionPolicy::from_env);
        let fault = config.fault.clone().or_else(FaultPlan::from_env);
        let fault = fault.filter(|f| f.is_active());
        let shared = Arc::new(EngineShared {
            a,
            band_start,
            shard: band.shard,
            store,
            cache,
            perm,
            ops,
            plan,
            queue: BatchQueue::new(),
            embed_latency: Arc::new(LatencyHistogram::new()),
            inflight: Arc::new(Gauge::new()),
            score_latency: LatencyHistogram::new(),
            infer_latency: LatencyHistogram::new(),
            batches_dispatched: AtomicU64::new(0),
            rows_requested: AtomicU64::new(0),
            rows_computed: AtomicU64::new(0),
            stats: Arc::new(RequestStats::default()),
            admission,
            fault,
            panics_caught: AtomicU64::new(0),
            expired_dropped: AtomicU64::new(0),
            tracer,
            started: Instant::now(),
            stopped: AtomicBool::new(false),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("fusedmm-serve-dispatch".into())
                .spawn(move || dispatch_loop(&shared, &config))
                .expect("spawn dispatcher thread")
        };
        Engine { shared, dispatcher: Some(worker), config, out_home: BufferHome::new() }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of vertices (adjacency rows) this engine owns — the whole
    /// graph, or the height of its row band.
    pub fn nvertices(&self) -> usize {
        self.shared.a.nrows()
    }

    /// Global vertex id of the first row this engine owns (0 unless it
    /// serves a shard band).
    pub fn band_start(&self) -> usize {
        self.shared.band_start
    }

    /// The embedding dimension served.
    pub fn dimension(&self) -> usize {
        self.shared.store.d()
    }

    /// The feature store this engine reads through — hand it to a
    /// training loop to [`publish`](FeatureStore::publish) refreshed
    /// embeddings without stopping traffic.
    pub fn store(&self) -> &Arc<FeatureStore> {
        &self.shared.store
    }

    /// The frozen kernel plan this engine executes under.
    pub fn plan(&self) -> Plan {
        self.shared.plan
    }

    /// The SIMD backend the plan was prepared on — surfaced so serving
    /// deployments can log which hardware path their latencies belong
    /// to (see [`fusedmm_core::cpu_features`]).
    pub fn backend(&self) -> fusedmm_core::Backend {
        self.shared.plan.backend()
    }

    /// Refresh embeddings for `nodes` (any order, duplicates allowed):
    /// returns one output row per requested node, equal to the matching
    /// rows of the full-graph kernel, all computed from the feature
    /// epoch current at enqueue time. Blocks until the micro-batcher
    /// completes the containing batch — implemented as
    /// [`Engine::embed_begin`] followed by [`Ticket::wait`], so the
    /// blocking and ticketed paths are the same code and bit-identical
    /// by construction.
    ///
    /// With the result cache enabled
    /// ([`EngineConfig::cache`]), rows still valid at the pinned epoch
    /// are served from memory and only the misses go through the
    /// micro-batcher — bit-identical either way, because a hit is only
    /// admitted when no invalidating write landed since the row was
    /// computed.
    pub fn embed(&self, nodes: &[usize]) -> Result<Dense, ServeError> {
        self.embed_begin(nodes)?.wait()
    }

    /// Begin an embedding request without blocking: the request pins
    /// the current feature epoch and enters the micro-batcher (cache
    /// hits are resolved immediately; misses that another in-flight
    /// request is already computing coalesce onto it), and the
    /// returned [`Ticket`] harvests the response on demand — `poll` it,
    /// `wait` it, or `wait_deadline` it. One caller can hold thousands
    /// of open tickets; [`EngineMetrics::inflight`] gauges the window.
    ///
    /// Errors are eager: out-of-range nodes, shutdown, admission
    /// rejection, and pre-expired deadlines are reported here, not
    /// deferred into the ticket.
    pub fn embed_begin(&self, nodes: &[usize]) -> Result<Ticket<Dense>, ServeError> {
        Ok(self.embed_begin_opts(nodes, EmbedOptions::default())?.map(|r| r.rows))
    }

    /// [`Engine::embed_begin`] with per-request [`EmbedOptions`]: an
    /// optional deadline (expired work is dropped before the kernel
    /// launch) and a [`Quality`] tier. The full [`EmbedResponse`]
    /// carries per-row `served_degraded` marks and the tier actually
    /// served (the admission ladder may downgrade `Exact` to
    /// `CachedOnly` near the in-flight cap).
    pub fn embed_begin_opts(
        &self,
        nodes: &[usize],
        opts: EmbedOptions,
    ) -> Result<Ticket<EmbedResponse>, ServeError> {
        if self.shared.stopped.load(Ordering::Acquire) {
            return Err(ServeError::EngineShutdown);
        }
        if nodes.is_empty() {
            self.shared.stats.ready();
            return Ok(Ticket::ready(Ok(EmbedResponse {
                rows: Dense::zeros(0, self.dimension()),
                served_degraded: Vec::new(),
                quality: opts.quality,
            })));
        }
        self.check_nodes(nodes.iter().copied())?;
        // Reordered engines translate external ids to internal rows
        // once, here; everything downstream — cache keys, coalescing,
        // the kernels — runs on internal ids, and the response is
        // positional (row i answers `nodes[i]`), so no reverse map is
        // needed on the way out.
        let mapped: Vec<usize>;
        let nodes: &[usize] = match &self.shared.perm {
            Some(p) => {
                mapped = p.map_to_new(nodes);
                &mapped
            }
            None => nodes,
        };
        // Admission runs before this request acquires the in-flight
        // gauge, so it never counts itself toward the cap it is being
        // judged against.
        let mut quality = opts.quality;
        let inflight = self.shared.inflight.value();
        let queued_rows = self.shared.queue.queued_rows();
        match self.shared.admission.decide(inflight, queued_rows) {
            Admission::Admit => {}
            Admission::Degrade => {
                quality = AdmissionPolicy::downgrade(quality, self.shared.cache.is_some());
            }
            Admission::Shed => {
                self.shared.stats.shed();
                return Err(ServeError::Shed { inflight, queued_rows });
            }
        }
        if opts.deadline.is_some_and(|d| d <= Instant::now()) {
            self.shared.stats.begin();
            self.shared.stats.fail();
            return Err(ServeError::DeadlineExpired);
        }
        let t0 = Instant::now();
        let tracer = &self.shared.tracer;
        let root = tracer.sample_root();
        let begin_ns = if root.is_some() { tracer.now() } else { 0 };
        let trace_handle =
            |root: SpanCtx| TraceHandle { tracer: Arc::clone(tracer), root, begin_ns };
        let epoch = self.shared.store.snapshot();
        let guard = self.shared.inflight.acquire();
        if quality == Quality::CachedOnly {
            return Ok(self.embed_cached_only(nodes, &epoch, t0, root, begin_ns));
        }
        if let Quality::TopKNeighbors(_) = quality {
            // Degraded tier: skip the cache entirely — truncated rows
            // must never be cached or mixed with exact rows — and run
            // the degree-truncated kernel. Every row is marked
            // degraded (rows with degree ≤ k happen to be exact, but
            // the response-level contract is "this tier was served").
            let rx = self.shared.enqueue(
                nodes,
                Arc::clone(&epoch),
                None,
                root,
                quality,
                opts.deadline,
            )?;
            self.shared.stats.begin();
            let completion = Completion {
                hist: None,
                stats: Some(Arc::clone(&self.shared.stats)),
                trace: root.map(trace_handle),
            };
            let retry = self.retry_handle(Arc::clone(&epoch), quality, opts.deadline);
            let part = Part::with_retry(nodes.to_vec(), 0, self.shared.shard, rx, Some(retry));
            return Ok(Ticket::pending(EmbedAssembly::direct(
                part,
                vec![true; nodes.len()],
                quality,
                completion,
                guard,
            )));
        }
        let Some(cache) = &self.shared.cache else {
            let rx = self.shared.enqueue(
                nodes,
                Arc::clone(&epoch),
                None,
                root,
                quality,
                opts.deadline,
            )?;
            self.shared.stats.begin();
            let completion = Completion {
                hist: None,
                stats: Some(Arc::clone(&self.shared.stats)),
                trace: root.map(trace_handle),
            };
            let retry = self.retry_handle(Arc::clone(&epoch), quality, opts.deadline);
            let part = Part::with_retry(nodes.to_vec(), 0, self.shared.shard, rx, Some(retry));
            return Ok(Ticket::pending(EmbedAssembly::direct(
                part,
                vec![false; nodes.len()],
                quality,
                completion,
                guard,
            )));
        };
        // Cache path: serve hits from memory, route each miss — the
        // first miss in a validity window owns the computation (and
        // goes through the micro-batcher), concurrent misses on the
        // same vertex coalesce onto the in-flight row.
        let mut out = Dense::zeros(nodes.len(), self.dimension());
        let route_start = if root.is_some() { tracer.now() } else { 0 };
        let (misses, positions) = cache.split(nodes, epoch.epoch(), &mut out);
        if misses.is_empty() {
            if let Some(r) = root {
                let now = tracer.now();
                let route = tracer.child(r);
                tracer.record(
                    route,
                    SpanKind::CacheRoute,
                    route_start,
                    now,
                    self.shared.shard,
                    nodes.len() as u64,
                );
                tracer.record(r, SpanKind::Embed, begin_ns, now, None, nodes.len() as u64);
            }
            self.shared.stats.ready();
            self.shared.embed_latency.record(t0.elapsed());
            return Ok(Ticket::ready(Ok(EmbedResponse {
                rows: out,
                served_degraded: vec![false; nodes.len()],
                quality,
            })));
        }
        let mut owned = Vec::new();
        let mut owners = Vec::new();
        let mut waiters = Vec::new();
        for &u in &misses {
            match cache.route_miss(u, epoch.epoch()) {
                MissRoute::Owner(owner) => {
                    owned.push(u);
                    owners.push(owner);
                }
                MissRoute::Waiter(waiter) => waiters.push(WaiterSlot::new(u, waiter)),
                // A fill landed between the lookup miss and the
                // routing call: the row is already in hand.
                MissRoute::Resident(row) => waiters.push(WaiterSlot::resolved(u, row)),
            }
        }
        if let Some(r) = root {
            let route = tracer.child(r);
            tracer.record(
                route,
                SpanKind::CacheRoute,
                route_start,
                tracer.now(),
                self.shared.shard,
                nodes.len() as u64,
            );
        }
        let mut parts = Vec::new();
        if !owned.is_empty() {
            // The FillSet rides the queue; if the enqueue loses a race
            // with shutdown its Drop aborts the registrations, so
            // coalesced waiters fail instead of hanging.
            let fills = FillSet::new(Arc::clone(cache), owners, self.shared.fault.clone());
            let rx = self.shared.enqueue(
                &owned,
                Arc::clone(&epoch),
                Some(fills),
                root,
                quality,
                opts.deadline,
            )?;
            // The retry path recomputes without fills: the original
            // registrations were aborted by the panicked launch, and a
            // recovery pass should not race fresh coalescers.
            let retry = self.retry_handle(Arc::clone(&epoch), quality, opts.deadline);
            parts.push(Part::with_retry(owned, 0, self.shared.shard, rx, Some(retry)));
        }
        let positions = positions.into_iter().map(|i| (i, nodes[i])).collect();
        // A fully coalesced request never reaches the dispatcher:
        // record its completion here to keep one histogram observation
        // per request.
        let finish_hist = parts.is_empty().then(|| Arc::clone(&self.shared.embed_latency));
        self.shared.stats.begin();
        let completion = Completion {
            hist: finish_hist,
            stats: Some(Arc::clone(&self.shared.stats)),
            trace: root.map(trace_handle),
        };
        Ok(Ticket::pending(EmbedAssembly::assemble(
            out,
            parts,
            waiters,
            positions,
            vec![false; nodes.len()],
            quality,
            completion,
            None,
            guard,
        )))
    }

    /// The `CachedOnly` tier: answer immediately from whatever the
    /// result cache holds at the pinned epoch. Misses come back as
    /// zero rows marked `served_degraded` — no enqueue, no miss
    /// routing, no coalescing, no kernel time. Without a cache every
    /// row is a degraded zero row.
    fn embed_cached_only(
        &self,
        nodes: &[usize],
        epoch: &Arc<FeatureEpoch>,
        t0: Instant,
        root: Option<SpanCtx>,
        begin_ns: u64,
    ) -> Ticket<EmbedResponse> {
        let tracer = &self.shared.tracer;
        let mut out = Dense::zeros(nodes.len(), self.dimension());
        let mut marks = vec![true; nodes.len()];
        if let Some(cache) = &self.shared.cache {
            let route_start = if root.is_some() { tracer.now() } else { 0 };
            let (_, miss_positions) = cache.split(nodes, epoch.epoch(), &mut out);
            marks = vec![false; nodes.len()];
            for &i in &miss_positions {
                marks[i] = true;
            }
            if let Some(r) = root {
                let route = tracer.child(r);
                tracer.record(
                    route,
                    SpanKind::CacheRoute,
                    route_start,
                    tracer.now(),
                    self.shared.shard,
                    nodes.len() as u64,
                );
            }
        }
        if let Some(r) = root {
            tracer.record(r, SpanKind::Embed, begin_ns, tracer.now(), None, nodes.len() as u64);
        }
        if marks.iter().any(|&b| b) {
            self.shared.stats.ready_degraded();
        } else {
            self.shared.stats.ready();
        }
        self.shared.embed_latency.record(t0.elapsed());
        Ticket::ready(Ok(EmbedResponse {
            rows: out,
            served_degraded: marks,
            quality: Quality::CachedOnly,
        }))
    }

    /// Enqueue an embedding request pinned to `epoch`; the slot
    /// completes with the rows once the dispatcher serves the batch
    /// (resolving `fills` — cache inserts plus coalesced-waiter
    /// back-fills — first).
    /// [`ShardedEngine`](crate::ShardedEngine) uses this to fan one
    /// request (and one pinned epoch) out across every involved shard
    /// before collecting any result.
    ///
    /// `trace` is the sampled request's root span context: an
    /// `Enqueue` child span is recorded here (tagged with this
    /// engine's shard slot) and handed to the dispatcher as the parent
    /// of the batch/kernel/cache-fill spans. The caller's tracer must
    /// be this engine's tracer (a sharded front end shares one with
    /// its bands).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enqueue_pinned(
        &self,
        nodes: &[usize],
        epoch: Arc<FeatureEpoch>,
        fills: Option<FillSet>,
        trace: Option<SpanCtx>,
        quality: Quality,
        deadline: Option<Instant>,
    ) -> Result<SlotRx, ServeError> {
        self.check_nodes(nodes.iter().copied())?;
        self.shared.enqueue(nodes, epoch, fills, trace, quality, deadline)
    }

    /// A one-shot healthy-path re-enqueue for a part whose kernel
    /// launch panicked: same nodes, same pinned epoch (an `Exact`
    /// retry stays bit-identical), no cache fills and no trace parent.
    pub(crate) fn retry_handle(
        &self,
        epoch: Arc<FeatureEpoch>,
        quality: Quality,
        deadline: Option<Instant>,
    ) -> PartRetry {
        let shared = Arc::clone(&self.shared);
        Box::new(move |nodes: &[usize]| shared.enqueue(nodes, epoch, None, None, quality, deadline))
    }

    /// Rows queued (undispatched) in this engine's batcher — the
    /// admission policy's backlog signal, summed across shards by a
    /// sharded front end.
    pub(crate) fn queued_rows(&self) -> usize {
        self.shared.queue.queued_rows()
    }

    /// Kernel-launch panics caught at this engine's dispatch boundary.
    pub(crate) fn panics_caught(&self) -> u64 {
        self.shared.panics_caught.load(Ordering::Relaxed)
    }

    /// Requests this engine's dispatcher dropped past their deadline.
    pub(crate) fn expired_dropped(&self) -> u64 {
        self.shared.expired_dropped.load(Ordering::Relaxed)
    }

    /// Score candidate `(u, v)` edges with the SDDMM-only path (see
    /// [`crate::score::score_edges`]), all against the current feature
    /// epoch. Runs on the calling thread — scoring is O(d) per pair and
    /// needs no batching to be cheap.
    pub fn score_edges(&self, pairs: &[(usize, usize)]) -> Result<Vec<f32>, ServeError> {
        let epoch = self.shared.store.snapshot();
        let mapped: Vec<(usize, usize)>;
        let pairs: &[(usize, usize)] = match &self.shared.perm {
            Some(p) => {
                // Validate in the external id space before translating
                // (`to_new` indexes by id); a reordered engine is
                // square, so one bound covers sources and targets.
                let n = p.len();
                for &(u, v) in pairs {
                    for node in [u, v] {
                        if node >= n {
                            return Err(ServeError::NodeOutOfRange { node, nvertices: n });
                        }
                    }
                }
                mapped = pairs.iter().map(|&(u, v)| (p.to_new(u), p.to_new(v))).collect();
                &mapped
            }
            None => pairs,
        };
        self.score_edges_pinned(pairs, &epoch)
    }

    /// [`Engine::score_edges`] against an explicitly pinned epoch.
    pub(crate) fn score_edges_pinned(
        &self,
        pairs: &[(usize, usize)],
        epoch: &FeatureEpoch,
    ) -> Result<Vec<f32>, ServeError> {
        // Sources index the target-side rows (A/X), targets the
        // neighbor-side rows (Y = A's column space) — these differ on
        // rectangular (minibatch-sliced or band-sharded) graphs.
        let (lo, hi) = (self.shared.band_start, self.shared.band_end());
        let n = self.shared.store.y_rows();
        for &(u, v) in pairs {
            if u < lo || u >= hi {
                return Err(ServeError::NodeOutOfRange { node: u, nvertices: hi });
            }
            if v >= n {
                return Err(ServeError::NodeOutOfRange { node: v, nvertices: n });
            }
        }
        let t0 = Instant::now();
        let scores =
            score_edges_banded(&self.shared.a, lo, pairs, epoch.x(), epoch.y(), &self.shared.ops);
        self.shared.score_latency.record(t0.elapsed());
        Ok(scores)
    }

    /// Inference over every row this engine owns, under the cached plan
    /// and the current feature epoch: the classic `Z = FusedMM(A, X, Y)`
    /// batch call (one band of it, for a shard engine).
    ///
    /// The returned matrix is the caller's. When it is dropped its
    /// storage parks in the engine (one buffer at most) and the next
    /// call overwrites it in place, so a caller that lets go of one
    /// result before asking for the next pays no allocation, zero-fill
    /// or page fault; a caller that keeps results gets a fresh buffer
    /// per call, as before.
    pub fn infer_full(&self) -> Dense {
        let epoch = self.shared.store.snapshot();
        let z = self.infer_pinned(&epoch);
        // Scatter the internal-order rows back so row u answers
        // external vertex u, as on an unreordered engine.
        match &self.shared.perm {
            Some(p) => p.unpermute_rows(&z),
            None => z,
        }
    }

    /// [`Engine::infer_full`] against an explicitly pinned epoch, into
    /// storage from this engine's home.
    pub(crate) fn infer_pinned(&self, epoch: &FeatureEpoch) -> Dense {
        let mut z = Dense::recycled(&self.out_home, self.shared.a.nrows(), epoch.x().ncols());
        self.infer_pinned_into(epoch, z.as_mut_slice());
        z
    }

    /// [`Engine::infer_pinned`] into the caller's `nvertices × d` slice
    /// (a sharded front end passes this band's rows of its assembled
    /// output); every row is overwritten.
    pub(crate) fn infer_pinned_into(&self, epoch: &FeatureEpoch, z: &mut [f32]) {
        let t0 = Instant::now();
        let shared = &self.shared;
        if shared.band_start == 0 && epoch.x().nrows() == shared.a.nrows() {
            shared.plan.execute_into(&shared.a, epoch.x(), epoch.y(), &shared.ops, z);
        } else {
            // Band engine: the band's X rows are a contiguous slice of
            // the row-major global matrix — one copy, no index vector.
            let d = epoch.x().ncols();
            let lo = shared.band_start * d;
            let hi = shared.band_end() * d;
            let xb = Dense::from_rows(shared.a.nrows(), d, &epoch.x().as_slice()[lo..hi])
                .expect("contiguous band slice has band_len * d entries");
            shared.plan.execute_into(&shared.a, &xb, epoch.y(), &shared.ops, z);
        }
        shared.infer_latency.record(t0.elapsed());
    }

    /// Point-in-time serving metrics.
    pub fn metrics(&self) -> EngineMetrics {
        let elapsed = self.shared.started.elapsed();
        let embed = self.shared.embed_latency.snapshot();
        // One consistent (current, peak) pair — see Gauge::snapshot.
        let inflight = self.shared.inflight.snapshot();
        EngineMetrics {
            uptime: elapsed,
            embed_requests_per_sec: embed.throughput(elapsed),
            embed,
            score: self.shared.score_latency.snapshot(),
            infer: self.shared.infer_latency.snapshot(),
            batches_dispatched: self.shared.batches_dispatched.load(Ordering::Relaxed),
            rows_requested: self.shared.rows_requested.load(Ordering::Relaxed),
            rows_computed: self.shared.rows_computed.load(Ordering::Relaxed),
            requests_begun: self.shared.stats.begun.load(Ordering::Relaxed),
            requests_harvested: self.shared.stats.harvested.load(Ordering::Relaxed),
            requests_degraded: self.shared.stats.degraded.load(Ordering::Relaxed),
            requests_shed: self.shared.stats.shed.load(Ordering::Relaxed),
            requests_failed: self.shared.stats.failed.load(Ordering::Relaxed),
            requests_abandoned: self.shared.stats.abandoned.load(Ordering::Relaxed),
            panics_caught: self.shared.panics_caught.load(Ordering::Relaxed),
            expired_dropped: self.shared.expired_dropped.load(Ordering::Relaxed),
            queued_rows: self.shared.queue.queued_rows(),
            inflight: inflight.current,
            inflight_peak: inflight.peak,
            feature_epoch: self.shared.store.current_epoch(),
            epoch_swaps: self.shared.store.swap_count(),
            cache: self.shared.cache.as_ref().map(|c| c.metrics()),
        }
    }

    /// Register this engine's metrics with `registry` as one collector
    /// appending `fusedmm_*` samples, each tagged with `labels` (a
    /// sharded front end passes `[("shard", "<i>")]`). The collector
    /// captures the live atomics — every later
    /// [`MetricsRegistry::snapshot`] sees current values.
    pub fn register_metrics(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        let shared = Arc::clone(&self.shared);
        let labels: Vec<(String, String)> =
            labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        // The adjacency is frozen at load: snapshot its degree shape
        // once and republish with every scrape. Bucket i counts rows
        // with degree in [2^i, 2^{i+1}) — the skew signal behind the
        // hybrid kernel's class split.
        let degree_hist = self.shared.a.degree_histogram_log2();
        registry.register(move |out| {
            for (bucket, &rows) in degree_hist.iter().enumerate() {
                out.push(apply_labels(
                    Sample::gauge("fusedmm_degree_histogram_rows", rows as f64)
                        .label("bucket".to_string(), bucket.to_string()),
                    &labels,
                ));
            }
            let l = |s: Sample| apply_labels(s, &labels);
            out.push(l(Sample::histogram(
                "fusedmm_embed_latency_seconds",
                shared.embed_latency.snapshot(),
            )));
            out.push(l(Sample::histogram(
                "fusedmm_score_latency_seconds",
                shared.score_latency.snapshot(),
            )));
            out.push(l(Sample::histogram(
                "fusedmm_infer_latency_seconds",
                shared.infer_latency.snapshot(),
            )));
            out.push(l(Sample::counter(
                "fusedmm_batches_dispatched_total",
                shared.batches_dispatched.load(Ordering::Relaxed),
            )));
            out.push(l(Sample::counter(
                "fusedmm_rows_requested_total",
                shared.rows_requested.load(Ordering::Relaxed),
            )));
            out.push(l(Sample::counter(
                "fusedmm_rows_computed_total",
                shared.rows_computed.load(Ordering::Relaxed),
            )));
            push_outcome_samples(out, &shared.stats, &labels);
            out.push(l(Sample::gauge("fusedmm_queue_rows", shared.queue.queued_rows() as f64)));
            out.push(l(Sample::counter(
                "fusedmm_panics_caught_total",
                shared.panics_caught.load(Ordering::Relaxed),
            )));
            out.push(l(Sample::counter(
                "fusedmm_expired_dropped_total",
                shared.expired_dropped.load(Ordering::Relaxed),
            )));
            let inflight = shared.inflight.snapshot();
            out.push(l(Sample::gauge("fusedmm_requests_inflight", inflight.current as f64)));
            out.push(l(Sample::gauge("fusedmm_requests_inflight_peak", inflight.peak as f64)));
            out.push(l(Sample::gauge(
                "fusedmm_feature_epoch",
                shared.store.current_epoch() as f64,
            )));
            out.push(l(Sample::counter("fusedmm_epoch_swaps_total", shared.store.swap_count())));
            if let Some(cache) = &shared.cache {
                push_cache_samples(out, &cache.metrics(), &labels);
            }
        });
    }

    /// The result cache's statistics, when one is enabled.
    pub fn cache_metrics(&self) -> Option<CacheMetrics> {
        self.shared.cache.as_ref().map(|c| c.metrics())
    }

    /// The embed-latency histogram (for cross-shard merging).
    pub(crate) fn embed_latency(&self) -> &LatencyHistogram {
        &self.shared.embed_latency
    }

    /// Stop accepting requests, finish queued work, and join the
    /// dispatcher. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.shared.stopped.store(true, Ordering::Release);
        self.shared.queue.shutdown();
        if let Some(worker) = self.dispatcher.take() {
            let _ = worker.join();
        }
    }

    fn check_nodes(&self, nodes: impl IntoIterator<Item = usize>) -> Result<(), ServeError> {
        let (lo, hi) = (self.shared.band_start, self.shared.band_end());
        for node in nodes {
            if node < lo || node >= hi {
                return Err(ServeError::NodeOutOfRange { node, nvertices: hi });
            }
        }
        Ok(())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fail every request in `expired` with a typed `Expired` reply:
/// deadline passed while queued, no kernel time spent. Dropping the
/// `FillSet` aborts any owned cache registrations, so coalesced
/// waiters fail instead of hanging.
fn drop_expired(shared: &EngineShared, expired: Vec<Pending>) {
    for request in expired {
        shared.expired_dropped.fetch_add(1, Ordering::Relaxed);
        drop(request.fills);
        request.tx.send(Err(PartError::Expired));
    }
}

fn dispatch_loop(shared: &EngineShared, config: &EngineConfig) {
    let tracer = &shared.tracer;
    // Monotonic launch counter driving the fault plan's
    // panic-on-nth-batch injection.
    let mut batch_seq: u64 = 0;
    while let Some(drained) = shared.queue.next_batch(config.coalesce_window, config.max_batch_rows)
    {
        drop_expired(shared, drained.expired);
        // Requests pinned to different feature epochs (or different
        // quality tiers) must not share a kernel launch; in the common
        // (no mid-batch publish, one tier) case this is one group and
        // coalescing is unchanged.
        for group in group_by_epoch(drained.batch) {
            // Deadlines are re-checked right before the launch: the
            // coalesce linger (or a long prior group) may have
            // outlasted a deadline that was live at drain time.
            let now = Instant::now();
            let (group, expired_now): (Vec<_>, Vec<_>) =
                group.into_iter().partition(|p| p.deadline.is_none_or(|d| d > now));
            drop_expired(shared, expired_now);
            if group.is_empty() {
                continue;
            }
            let epoch = Arc::clone(&group[0].epoch);
            let quality = group[0].quality;
            // Batch/kernel timestamps are taken once per launch and
            // recorded once per *sampled* request, so each sampled
            // request owns a complete tree even when the batch
            // coalesced many callers.
            let sampled = group.iter().any(|p| p.trace.is_some());
            let batch_start = if sampled { tracer.now() } else { 0 };
            let union = dedup_union(group.iter().map(|p| p.nodes.as_slice()));
            let rows_requested: usize = group.iter().map(|p| p.nodes.len()).sum();
            batch_seq += 1;
            let seq = batch_seq;
            let kernel_start = if sampled { tracer.now() } else { 0 };
            // The launch is a fault boundary: a panic inside the
            // kernel (or injected by the fault plan) is caught here
            // and turned into typed per-request part errors — the
            // dispatcher thread survives, and each ticket retries once
            // on a healthy path before reporting `PartFailed`.
            let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(fault) = &shared.fault {
                    fault.maybe_panic(seq);
                }
                match quality {
                    Quality::TopKNeighbors(k) => shared.plan.execute_rows_banded_topk(
                        &shared.a,
                        shared.band_start,
                        &union,
                        k,
                        epoch.x(),
                        epoch.y(),
                        &shared.ops,
                    ),
                    Quality::Exact | Quality::CachedOnly => shared.plan.execute_rows_banded(
                        &shared.a,
                        shared.band_start,
                        &union,
                        epoch.x(),
                        epoch.y(),
                        &shared.ops,
                    ),
                }
            }));
            let union_rows = match launched {
                Ok(rows) => rows,
                Err(_) => {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                    for request in group {
                        // Dropping the FillSet aborts the owned cache
                        // registrations; the requester's ticket gets a
                        // typed panic reply and drives its own retry.
                        drop(request.fills);
                        request.tx.send(Err(PartError::Panicked));
                    }
                    continue;
                }
            };
            let kernel_end = if sampled { tracer.now() } else { 0 };
            // Account before completing requests so a caller that
            // observes its own completion also observes the batch in
            // the metrics.
            shared.batches_dispatched.fetch_add(1, Ordering::Relaxed);
            shared.rows_requested.fetch_add(rows_requested as u64, Ordering::Relaxed);
            shared.rows_computed.fetch_add(union.len() as u64, Ordering::Relaxed);
            for request in group {
                let out = scatter_rows(&union, &union_rows, &request.nodes);
                let batch_ctx = request.trace.map(|parent| tracer.child(parent));
                if let Some(ctx) = batch_ctx {
                    let kernel = tracer.child(ctx);
                    tracer.record(
                        kernel,
                        SpanKind::Kernel,
                        kernel_start,
                        kernel_end,
                        shared.shard,
                        union.len() as u64,
                    );
                }
                // Resolve owned cache registrations first, so coalesced
                // waiters complete as soon as the computation does —
                // independent of when this caller harvests its ticket.
                if let Some(fills) = request.fills {
                    // Injected fill latency: widens the window in which
                    // coalesced waiters are outstanding (chaos coverage
                    // for the waiter paths).
                    if let Some(delay) = shared.fault.as_ref().and_then(|f| f.fill_delay()) {
                        std::thread::sleep(delay);
                    }
                    let fill_start = if batch_ctx.is_some() { tracer.now() } else { 0 };
                    fills.complete(&out);
                    if let Some(ctx) = batch_ctx {
                        let fill = tracer.child(ctx);
                        tracer.record(
                            fill,
                            SpanKind::CacheFill,
                            fill_start,
                            tracer.now(),
                            shared.shard,
                            out.nrows() as u64,
                        );
                    }
                }
                shared.embed_latency.record(request.enqueued.elapsed());
                if let Some(ctx) = batch_ctx {
                    tracer.record(
                        ctx,
                        SpanKind::Batch,
                        batch_start,
                        tracer.now(),
                        shared.shard,
                        rows_requested as u64,
                    );
                }
                // A disconnected receiver just means the caller gave up.
                request.tx.send(Ok(out));
            }
        }
    }
}

/// Serving statistics reported by [`Engine::metrics`].
#[derive(Debug, Clone, Copy)]
pub struct EngineMetrics {
    /// Time since the engine was constructed.
    pub uptime: Duration,
    /// Embedding-request latency distribution (enqueue → completion).
    pub embed: HistogramSnapshot,
    /// Embedding requests per second over the whole uptime.
    pub embed_requests_per_sec: f64,
    /// Edge-scoring latency distribution.
    pub score: HistogramSnapshot,
    /// Full-graph inference latency distribution.
    pub infer: HistogramSnapshot,
    /// Kernel launches the micro-batcher performed.
    pub batches_dispatched: u64,
    /// Total rows callers asked for.
    pub rows_requested: u64,
    /// Total rows actually computed after deduplication (≤ requested
    /// when concurrent requests overlap).
    pub rows_computed: u64,
    /// Embed requests that reached admission (every `embed_begin` that
    /// counted an outcome, including requests resolved at creation and
    /// requests shed at the door).
    pub requests_begun: u64,
    /// Embed requests whose exact response was assembled and returned.
    pub requests_harvested: u64,
    /// Embed requests answered with at least one degraded row
    /// (`CachedOnly` misses, truncated-neighbor tiers).
    pub requests_degraded: u64,
    /// Embed requests rejected by the admission policy.
    pub requests_shed: u64,
    /// Embed requests resolved with an error after admission (deadline
    /// expired, part failed past its retry, shutdown mid-flight).
    pub requests_failed: u64,
    /// Embed requests whose ticket was dropped unresolved.
    /// `begun == harvested + degraded + shed + failed + abandoned`
    /// once every ticket has resolved.
    pub requests_abandoned: u64,
    /// Kernel-launch panics caught at the dispatch boundary (each
    /// failed the launch's requests with a retryable part error).
    pub panics_caught: u64,
    /// Requests the dispatcher dropped past their deadline without
    /// spending kernel time.
    pub expired_dropped: u64,
    /// Rows currently queued (undispatched) in the micro-batcher —
    /// the admission policy's backlog signal.
    pub queued_rows: usize,
    /// Embed requests currently open (begin → resolve): blocking calls
    /// plus every un-harvested [`Ticket`].
    pub inflight: u64,
    /// Deepest in-flight request window ever held.
    pub inflight_peak: u64,
    /// The feature epoch currently served (new snapshots pin this one).
    pub feature_epoch: u64,
    /// Completed feature-store swaps (publishes + delta updates).
    pub epoch_swaps: u64,
    /// Result-cache statistics, when the cache is enabled. With a
    /// cache, `rows_requested`/`rows_computed` count only what reached
    /// the dispatcher (the cache misses).
    pub cache: Option<CacheMetrics>,
}

impl std::fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "embed: {} ({:.0} req/s)", self.embed, self.embed_requests_per_sec)?;
        writeln!(f, "score: {}", self.score)?;
        writeln!(f, "infer: {}", self.infer)?;
        write!(
            f,
            "batches: {}  rows requested: {}  rows computed: {}  requests: {} begun / {} \
             harvested / {} degraded / {} shed / {} failed / {} abandoned  in-flight: {} (peak \
             {})  queued rows: {}  panics caught: {}  expired: {}  epoch: {} ({} swaps)",
            self.batches_dispatched,
            self.rows_requested,
            self.rows_computed,
            self.requests_begun,
            self.requests_harvested,
            self.requests_degraded,
            self.requests_shed,
            self.requests_failed,
            self.requests_abandoned,
            self.inflight,
            self.inflight_peak,
            self.queued_rows,
            self.panics_caught,
            self.expired_dropped,
            self.feature_epoch,
            self.epoch_swaps
        )?;
        if let Some(cache) = &self.cache {
            write!(f, "\ncache: {cache}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_core::fusedmm_reference;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn engine(n: usize, d: usize, ops: OpSet) -> (Engine, Dense) {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=3usize {
                c.push(u, (u + k * 2 + 1) % n, 0.4 + k as f32 * 0.3);
            }
        }
        let a = c.to_csr(Dedup::Sum);
        let feats = Dense::from_fn(n, d, |r, k| ((r * 5 + k * 11) as f32 * 0.03).sin() * 0.7);
        let reference = fusedmm_reference(&a, &feats, &feats, &ops);
        let cfg = EngineConfig { coalesce_window: Duration::ZERO, ..EngineConfig::default() };
        (Engine::new(a, feats.clone(), feats, ops, cfg), reference)
    }

    #[test]
    fn embed_matches_reference_rows() {
        let (eng, reference) = engine(40, 16, OpSet::sigmoid_embedding(None));
        let nodes = [7usize, 0, 39, 7, 12];
        let z = eng.embed(&nodes).unwrap();
        assert_eq!(z.nrows(), nodes.len());
        for (i, &u) in nodes.iter().enumerate() {
            for k in 0..16 {
                assert!((z.get(i, k) - reference.get(u, k)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn empty_request_is_cheap_and_valid() {
        let (eng, _) = engine(10, 4, OpSet::gcn());
        let z = eng.embed(&[]).unwrap();
        assert_eq!((z.nrows(), z.ncols()), (0, 4));
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let (eng, _) = engine(10, 4, OpSet::gcn());
        assert_eq!(eng.embed(&[10]), Err(ServeError::NodeOutOfRange { node: 10, nvertices: 10 }));
        assert!(matches!(
            eng.score_edges(&[(0, 11)]),
            Err(ServeError::NodeOutOfRange { node: 11, .. })
        ));
    }

    #[test]
    fn rectangular_graph_scores_targets_against_y_rows() {
        // A 2x5 minibatch slice: 2 target vertices, 5 global vertices.
        let mut c = Coo::new(2, 5);
        c.push(0, 4, 1.0);
        c.push(1, 2, 1.0);
        let a = c.to_csr(Dedup::Sum);
        let x = Dense::filled(2, 4, 0.5);
        let y = Dense::filled(5, 4, 0.25);
        let eng = Engine::new(a, x, y, OpSet::sigmoid_embedding(None), EngineConfig::default());
        // Target v=4 is a valid Y row even though A has only 2 rows.
        let scores = eng.score_edges(&[(1, 4)]).unwrap();
        assert_eq!(scores.len(), 1);
        // Source u=2 is out of A's row space; target v=5 out of Y's.
        assert_eq!(
            eng.score_edges(&[(2, 0)]),
            Err(ServeError::NodeOutOfRange { node: 2, nvertices: 2 })
        );
        assert_eq!(
            eng.score_edges(&[(0, 5)]),
            Err(ServeError::NodeOutOfRange { node: 5, nvertices: 5 })
        );
    }

    #[test]
    fn infer_full_matches_reference() {
        let (eng, reference) = engine(30, 8, OpSet::gcn());
        let z = eng.infer_full();
        assert!(z.max_abs_diff(&reference) < 1e-4);
        assert_eq!(eng.metrics().infer.count, 1);
    }

    #[test]
    fn metrics_count_requests_and_dedup() {
        let (eng, _) = engine(20, 8, OpSet::sigmoid_embedding(None));
        eng.embed(&[1, 2, 3]).unwrap();
        eng.embed(&[3, 3, 3]).unwrap();
        let m = eng.metrics();
        assert_eq!(m.embed.count, 2);
        assert_eq!(m.rows_requested, 6);
        assert!(m.rows_computed <= m.rows_requested);
        assert!(m.batches_dispatched >= 1);
        assert!(m.embed.p99 >= m.embed.p50);
        assert_eq!(m.feature_epoch, 0);
        assert_eq!(m.epoch_swaps, 0);
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let (mut eng, _) = engine(10, 4, OpSet::gcn());
        eng.embed(&[1]).unwrap();
        eng.shutdown();
        assert_eq!(eng.embed(&[1]), Err(ServeError::EngineShutdown));
    }

    #[test]
    fn publish_changes_served_rows_and_metrics_report_the_epoch() {
        let (eng, reference) = engine(24, 8, OpSet::gcn());
        let before = eng.embed(&[3, 9]).unwrap();
        for k in 0..8 {
            assert!((before.get(0, k) - reference.get(3, k)).abs() < 1e-5);
        }
        // Publish doubled features: GCN output is linear in Y, so the
        // served rows double too.
        let ep0 = eng.store().snapshot();
        let x2 = Dense::from_fn(24, 8, |r, k| ep0.x().get(r, k) * 2.0);
        let y2 = Dense::from_fn(24, 8, |r, k| ep0.y().get(r, k) * 2.0);
        assert_eq!(eng.store().publish(x2, y2), 1);
        let after = eng.embed(&[3, 9]).unwrap();
        for (i, &u) in [3usize, 9].iter().enumerate() {
            for k in 0..8 {
                assert!(
                    (after.get(i, k) - 2.0 * reference.get(u, k)).abs() < 1e-4,
                    "row {u} lane {k} not doubled after publish"
                );
            }
        }
        let m = eng.metrics();
        assert_eq!(m.feature_epoch, 1);
        assert_eq!(m.epoch_swaps, 1);
    }

    #[test]
    fn delta_update_refreshes_neighbor_contributions() {
        // Ring graph: z_u = y_{u+1} under GCN with unit weights.
        let n = 10;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let a = c.to_csr(Dedup::Sum);
        let feats = Dense::from_fn(n, 4, |r, k| (r * 4 + k) as f32);
        let eng = Engine::new(
            a,
            feats.clone(),
            feats,
            OpSet::gcn(),
            EngineConfig { coalesce_window: Duration::ZERO, ..EngineConfig::default() },
        );
        let patch = Dense::filled(1, 4, -1.0);
        eng.store().delta_update(&[5], &patch, &patch);
        // Node 4 aggregates neighbor 5: sees the patch.
        assert_eq!(eng.embed(&[4]).unwrap().row(0), &[-1.0; 4]);
        // Node 0 aggregates neighbor 1: untouched.
        assert_eq!(eng.embed(&[0]).unwrap().row(0), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn cached_embed_is_identical_and_hits_on_repeats() {
        let (plain, reference) = engine(40, 16, OpSet::sigmoid_embedding(None));
        let cfg = EngineConfig { cache: Some(CacheConfig::default()), ..plain.config().clone() };
        let ep = plain.store().snapshot();
        let cached = Engine::new(
            plain.shared.a.clone(),
            ep.x().clone(),
            ep.y().clone(),
            OpSet::sigmoid_embedding(None),
            cfg,
        );
        let nodes = [7usize, 0, 39, 7, 12];
        let first = cached.embed(&nodes).unwrap();
        assert_eq!(first, plain.embed(&nodes).unwrap(), "cold cache is bit-identical");
        for (i, &u) in nodes.iter().enumerate() {
            for k in 0..16 {
                assert!((first.get(i, k) - reference.get(u, k)).abs() < 1e-5);
            }
        }
        let second = cached.embed(&nodes).unwrap();
        assert_eq!(second, first, "warm cache is bit-identical");
        let m = cached.cache_metrics().expect("cache enabled");
        assert_eq!(m.misses, 5, "cold pass misses every requested row");
        assert_eq!(m.hits, 5, "warm pass hits every requested row");
        assert_eq!(m.inserts, 4, "the deduped union is inserted once per node");
        assert_eq!(m.hit_ratio.count, 2);
        // The dispatcher only ever saw the cold misses.
        assert_eq!(cached.metrics().rows_requested, 4);
    }

    #[test]
    fn publish_flushes_the_cache_and_deltas_keep_untouched_rows_hot() {
        // Ring graph: z_u = y_{u+1} under GCN — served values expose
        // exactly which epoch (and which rows) produced them.
        let n = 10;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let a = c.to_csr(Dedup::Sum);
        let feats = Dense::from_fn(n, 4, |r, k| (r * 4 + k) as f32);
        let eng = Engine::new(
            a,
            feats.clone(),
            feats.clone(),
            OpSet::gcn(),
            EngineConfig {
                coalesce_window: Duration::ZERO,
                cache: Some(CacheConfig::default()),
                ..EngineConfig::default()
            },
        );
        // Warm every row.
        let all: Vec<usize> = (0..n).collect();
        let warm = eng.embed(&all).unwrap();
        assert_eq!(eng.embed(&all).unwrap(), warm);
        let m0 = eng.cache_metrics().unwrap();
        assert_eq!((m0.hits, m0.misses), (n as u64, n as u64));

        // Delta-patch node 5: rows 4 (aggregates y_5) and 5 retire,
        // everything else keeps hitting.
        let patch = Dense::filled(1, 4, -1.0);
        eng.store().delta_update(&[5], &patch, &patch);
        assert_eq!(eng.embed(&[4]).unwrap().row(0), &[-1.0; 4], "patched value served");
        let after_delta = eng.embed(&all).unwrap();
        for u in 0..n {
            if u == 4 {
                assert_eq!(after_delta.row(u), &[-1.0; 4]);
            } else {
                assert_eq!(after_delta.row(u), warm.row(u), "row {u} unaffected by the delta");
            }
        }
        let m1 = eng.cache_metrics().unwrap();
        assert_eq!(m1.invalidated_rows, 2, "only node 5 and in-neighbor 4 retired");
        // Of the full sweep after the delta, all but rows 4 and 5 hit
        // (row 4 was just recomputed by the single-node request).
        assert!(m1.hits >= m0.hits + (n as u64 - 2));

        // A publish invalidates everything: the next sweep misses all.
        let x2 = Dense::filled(n, 4, 2.0);
        eng.store().publish(x2.clone(), x2);
        let misses_before = eng.cache_metrics().unwrap().misses;
        let after_publish = eng.embed(&all).unwrap();
        for u in 0..n {
            assert_eq!(after_publish.row(u), &[2.0; 4], "published epoch served everywhere");
        }
        let m2 = eng.cache_metrics().unwrap();
        assert_eq!(m2.misses, misses_before + n as u64, "publish flushed the whole hot set");
        assert_eq!(m2.flushes, 1);
    }

    #[test]
    fn cached_engine_shutdown_still_rejects_requests() {
        let n = 12;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let feats = Dense::filled(n, 4, 1.0);
        let mut eng = Engine::new(
            c.to_csr(Dedup::Sum),
            feats.clone(),
            feats,
            OpSet::gcn(),
            EngineConfig {
                coalesce_window: Duration::ZERO,
                cache: Some(CacheConfig::default()),
                ..EngineConfig::default()
            },
        );
        eng.embed(&[1]).unwrap();
        eng.shutdown();
        // Even a would-be full cache hit is refused after shutdown.
        assert_eq!(eng.embed(&[1]), Err(ServeError::EngineShutdown));
    }

    #[test]
    fn admission_sheds_at_the_inflight_cap_and_reconciles() {
        let (plain, _) = engine(20, 8, OpSet::gcn());
        let cfg = EngineConfig {
            admission: Some(AdmissionPolicy {
                max_inflight: 1,
                max_queued_rows: 0,
                degrade_fraction: 1.0,
            }),
            ..plain.config().clone()
        };
        let ep = plain.store().snapshot();
        let eng =
            Engine::new(plain.shared.a.clone(), ep.x().clone(), ep.y().clone(), OpSet::gcn(), cfg);
        let held = eng.embed_begin(&[1]).unwrap();
        match eng.embed_begin(&[2]) {
            Err(ServeError::Shed { inflight, .. }) => assert_eq!(inflight, 1),
            other => panic!("expected Shed at the cap, got {other:?}"),
        }
        held.wait().unwrap();
        eng.embed(&[2]).unwrap();
        let m = eng.metrics();
        assert_eq!(m.requests_shed, 1);
        assert_eq!(
            m.requests_begun,
            m.requests_harvested
                + m.requests_degraded
                + m.requests_shed
                + m.requests_failed
                + m.requests_abandoned
        );
    }

    #[test]
    fn ladder_downgrades_exact_to_cached_only_near_the_cap() {
        let (plain, _) = engine(20, 8, OpSet::gcn());
        let cfg = EngineConfig {
            cache: Some(CacheConfig::default()),
            admission: Some(AdmissionPolicy {
                max_inflight: 4,
                max_queued_rows: 0,
                degrade_fraction: 0.25,
            }),
            ..plain.config().clone()
        };
        let ep = plain.store().snapshot();
        let eng =
            Engine::new(plain.shared.a.clone(), ep.x().clone(), ep.y().clone(), OpSet::gcn(), cfg);
        let exact = eng.embed(&[3, 7]).unwrap();
        // Hold one miss in flight: load 1 ≥ ceil(4 · 0.25) trips the
        // degrade rung, well below the shed cap of 4.
        let held = eng.embed_begin(&[11]).unwrap();
        let resp = eng.embed_begin_opts(&[3, 7], EmbedOptions::default()).unwrap().wait().unwrap();
        assert_eq!(resp.quality, Quality::CachedOnly, "ladder downgraded before shedding");
        assert!(!resp.any_degraded(), "warm rows are still the exact cached values");
        assert_eq!(resp.rows, exact);
        held.wait().unwrap();
    }

    #[test]
    fn pre_expired_deadline_fails_fast_and_counts_failed() {
        let (eng, _) = engine(10, 4, OpSet::gcn());
        let opts = EmbedOptions::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(eng.embed_begin_opts(&[1], opts).unwrap_err(), ServeError::DeadlineExpired);
        let m = eng.metrics();
        assert_eq!(m.requests_failed, 1);
        assert_eq!(m.requests_begun, 1);
    }

    #[test]
    fn queued_request_expiring_before_launch_fails_typed() {
        let (plain, _) = engine(10, 4, OpSet::gcn());
        // A long coalesce linger guarantees the short deadline passes
        // while the request sits in the queue.
        let cfg =
            EngineConfig { coalesce_window: Duration::from_millis(50), ..plain.config().clone() };
        let ep = plain.store().snapshot();
        let eng =
            Engine::new(plain.shared.a.clone(), ep.x().clone(), ep.y().clone(), OpSet::gcn(), cfg);
        let opts = EmbedOptions::with_deadline(Instant::now() + Duration::from_millis(5));
        let t = eng.embed_begin_opts(&[1], opts).unwrap();
        assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExpired);
        let m = eng.metrics();
        assert_eq!(m.expired_dropped, 1);
        assert_eq!(m.requests_failed, 1);
        assert_eq!(m.rows_computed, 0, "no kernel time was spent past the deadline");
    }

    #[test]
    fn injected_panics_fail_requests_typed_after_one_retry() {
        crate::fault::quiet_injected_panics();
        let (plain, _) = engine(10, 4, OpSet::gcn());
        let cfg = EngineConfig {
            fault: Some(Arc::new(FaultPlan::parse("panic_every=1").unwrap())),
            ..plain.config().clone()
        };
        let ep = plain.store().snapshot();
        let eng =
            Engine::new(plain.shared.a.clone(), ep.x().clone(), ep.y().clone(), OpSet::gcn(), cfg);
        assert_eq!(eng.embed(&[1]).unwrap_err(), ServeError::PartFailed { shard: None });
        let m = eng.metrics();
        assert!(m.panics_caught >= 2, "the original launch and the retry both panicked");
        assert_eq!(m.requests_failed, 1);
        assert_eq!(
            m.requests_begun,
            m.requests_harvested
                + m.requests_degraded
                + m.requests_shed
                + m.requests_failed
                + m.requests_abandoned
        );
    }

    #[test]
    fn panicked_launch_recovers_via_retry_bit_identical() {
        crate::fault::quiet_injected_panics();
        let (plain, reference) = engine(20, 8, OpSet::gcn());
        // Batch 2 panics; its retry re-enqueues as batch 3 and lands.
        let cfg = EngineConfig {
            fault: Some(Arc::new(FaultPlan::parse("panic_every=2").unwrap())),
            ..plain.config().clone()
        };
        let ep = plain.store().snapshot();
        let eng =
            Engine::new(plain.shared.a.clone(), ep.x().clone(), ep.y().clone(), OpSet::gcn(), cfg);
        let healthy = eng.embed(&[3]).unwrap();
        let healed = eng.embed(&[3]).unwrap();
        assert_eq!(healed, healthy, "a retried Exact request is bit-identical");
        for k in 0..8 {
            assert!((healed.get(0, k) - reference.get(3, k)).abs() < 1e-5);
        }
        let m = eng.metrics();
        assert_eq!(m.panics_caught, 1);
        assert_eq!(m.requests_harvested, 2);
        assert_eq!(m.requests_failed, 0);
    }

    #[test]
    fn topk_tier_matches_truncated_graph_and_marks_every_row() {
        let (eng, _) = engine(40, 8, OpSet::sigmoid_embedding(None));
        let nodes = [7usize, 0, 39, 7];
        let resp = eng
            .embed_begin_opts(&nodes, EmbedOptions::with_quality(Quality::TopKNeighbors(2)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.quality, Quality::TopKNeighbors(2));
        assert_eq!(resp.degraded_rows(), vec![0, 1, 2, 3]);
        let ep = eng.store().snapshot();
        let truncated =
            fusedmm_reference(&eng.shared.a.top_k_by_weight(2), ep.x(), ep.y(), &eng.shared.ops);
        for (i, &u) in nodes.iter().enumerate() {
            for k in 0..8 {
                assert!(
                    (resp.rows.get(i, k) - truncated.get(u, k)).abs() < 1e-5,
                    "node {u} lane {k}"
                );
            }
        }
        // k at least the max degree leaves the graph intact: the tier
        // is bit-identical to the exact path.
        let full = eng
            .embed_begin_opts(&nodes, EmbedOptions::with_quality(Quality::TopKNeighbors(64)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(full.rows.as_slice(), eng.embed(&nodes).unwrap().as_slice());
    }

    #[test]
    fn cached_only_serves_hits_and_zero_fills_misses() {
        let (plain, _) = engine(20, 8, OpSet::gcn());
        let cfg = EngineConfig { cache: Some(CacheConfig::default()), ..plain.config().clone() };
        let ep = plain.store().snapshot();
        let eng =
            Engine::new(plain.shared.a.clone(), ep.x().clone(), ep.y().clone(), OpSet::gcn(), cfg);
        let exact = eng.embed(&[1, 2]).unwrap();
        let opts = EmbedOptions::with_quality(Quality::CachedOnly);
        let resp = eng.embed_begin_opts(&[1, 9], opts).unwrap().wait().unwrap();
        assert_eq!(resp.quality, Quality::CachedOnly);
        assert_eq!(resp.served_degraded, vec![false, true]);
        assert_eq!(resp.rows.row(0), exact.row(0), "warm row served from cache");
        assert_eq!(resp.rows.row(1), vec![0.0; 8].as_slice(), "cold row zero-filled");
        let warm = eng.embed_begin_opts(&[1, 2], opts).unwrap().wait().unwrap();
        assert!(!warm.any_degraded());
        let m = eng.metrics();
        assert_eq!(m.requests_degraded, 1, "only the partially-missing response was degraded");
        // CachedOnly never enqueues: node 9 was not computed.
        let miss_again = eng.embed_begin_opts(&[9], opts).unwrap().wait().unwrap();
        assert!(miss_again.any_degraded());
    }

    #[test]
    fn cached_only_without_a_cache_is_all_zero_and_all_degraded() {
        let (eng, _) = engine(10, 4, OpSet::gcn());
        let opts = EmbedOptions::with_quality(Quality::CachedOnly);
        let resp = eng.embed_begin_opts(&[1, 2], opts).unwrap().wait().unwrap();
        assert_eq!(resp.served_degraded, vec![true, true]);
        assert_eq!(resp.rows.as_slice(), &[0.0; 8]);
    }

    /// A deliberately skewed graph: vertex 0 is a hub wired to
    /// everyone, the rest form a sparse ring.
    fn skewed(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for v in 1..n {
            c.push(0, v, 0.5 + (v as f32) * 0.01);
            c.push(v, 0, 1.0);
            c.push(v, (v % (n - 1)) + 1, 0.7);
        }
        c.to_csr(Dedup::Sum)
    }

    #[test]
    fn reordered_engine_is_bit_identical_and_keeps_external_ids() {
        let (n, d) = (48, 16);
        let a = skewed(n);
        let feats = Dense::from_fn(n, d, |r, k| ((r * 3 + k * 7) as f32 * 0.05).sin());
        let cfg = EngineConfig { coalesce_window: Duration::ZERO, ..EngineConfig::default() };
        let plain = Engine::new(a.clone(), feats.clone(), feats.clone(), OpSet::gcn(), cfg.clone());
        let nodes = [5usize, 0, 47, 5, 13];
        let pairs = [(0usize, 7usize), (13, 0), (47, 46)];
        let base_embed = plain.embed(&nodes).unwrap();
        let base_scores = plain.score_edges(&pairs).unwrap();
        let base_full = plain.infer_full();
        for r in [Reordering::DegreeSort, Reordering::RcmBfs] {
            let cfg = EngineConfig { reordering: Some(r), ..cfg.clone() };
            let eng = Engine::new(a.clone(), feats.clone(), feats.clone(), OpSet::gcn(), cfg);
            assert_eq!(eng.embed(&nodes).unwrap(), base_embed, "{r:?} embed differs");
            assert_eq!(eng.score_edges(&pairs).unwrap(), base_scores, "{r:?} scores differ");
            assert_eq!(
                eng.infer_full().as_slice(),
                base_full.as_slice(),
                "{r:?} infer_full differs"
            );
            // External id space is unchanged, including its bounds.
            assert_eq!(eng.embed(&[n]), Err(ServeError::NodeOutOfRange { node: n, nvertices: n }));
            assert!(matches!(
                eng.score_edges(&[(0, n)]),
                Err(ServeError::NodeOutOfRange { node, .. }) if node == n
            ));
        }
    }

    #[test]
    fn reordered_engine_store_writes_use_external_ids() {
        // Ring graph: z_u = y_{u+1} under GCN, so served values reveal
        // exactly which external row a write landed on.
        let n = 10;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let a = c.to_csr(Dedup::Sum);
        let feats = Dense::from_fn(n, 4, |r, k| (r * 4 + k) as f32);
        let eng = Engine::new(
            a,
            feats.clone(),
            feats,
            OpSet::gcn(),
            EngineConfig {
                coalesce_window: Duration::ZERO,
                reordering: Some(Reordering::RcmBfs),
                ..EngineConfig::default()
            },
        );
        let patch = Dense::filled(1, 4, -1.0);
        eng.store().delta_update(&[5], &patch, &patch);
        assert_eq!(eng.embed(&[4]).unwrap().row(0), &[-1.0; 4], "external row 5 was patched");
        assert_eq!(eng.embed(&[0]).unwrap().row(0), &[4.0, 5.0, 6.0, 7.0], "row 1 untouched");
        // A publish in external order serves externally-correct rows.
        let x2 = Dense::from_fn(n, 4, |r, k| (100 * r + k) as f32);
        eng.store().publish(x2.clone(), x2);
        assert_eq!(eng.embed(&[3]).unwrap().row(0), &[400.0, 401.0, 402.0, 403.0]);
    }

    #[test]
    fn reordered_engine_with_cache_is_bit_identical() {
        let (n, d) = (40, 8);
        let a = skewed(n);
        let feats = Dense::from_fn(n, d, |r, k| ((r + k * 5) as f32 * 0.07).cos());
        let cfg = EngineConfig {
            coalesce_window: Duration::ZERO,
            cache: Some(CacheConfig::default()),
            reordering: Some(Reordering::DegreeSort),
            ..EngineConfig::default()
        };
        let plain = Engine::new(
            a.clone(),
            feats.clone(),
            feats.clone(),
            OpSet::sigmoid_embedding(None),
            EngineConfig { cache: None, reordering: None, ..cfg.clone() },
        );
        let eng = Engine::new(a, feats.clone(), feats, OpSet::sigmoid_embedding(None), cfg);
        let nodes = [0usize, 17, 3, 17, 39];
        let cold = eng.embed(&nodes).unwrap();
        assert_eq!(cold, plain.embed(&nodes).unwrap(), "cold reordered cache differs");
        assert_eq!(eng.embed(&nodes).unwrap(), cold, "warm reordered cache differs");
        let m = eng.cache_metrics().unwrap();
        assert_eq!(m.hits, 5, "warm pass hits every row under translated keys");
    }

    #[test]
    #[should_panic(expected = "engine-owned features")]
    fn with_store_rejects_reordering() {
        let a = skewed(8);
        let store = Arc::new(FeatureStore::new(Dense::zeros(8, 4), Dense::zeros(8, 4)));
        let cfg =
            EngineConfig { reordering: Some(Reordering::DegreeSort), ..EngineConfig::default() };
        let _ = Engine::with_store(a, store, OpSet::gcn(), cfg);
    }

    #[test]
    fn concurrent_overlapping_requests_all_match_reference() {
        let (eng, reference) = engine(60, 12, OpSet::sigmoid_embedding(None));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let eng = &eng;
                let reference = &reference;
                s.spawn(move || {
                    for round in 0..5 {
                        let nodes: Vec<usize> =
                            (0..10).map(|i| (t * 7 + round * 13 + i * 3) % 60).collect();
                        let z = eng.embed(&nodes).unwrap();
                        for (i, &u) in nodes.iter().enumerate() {
                            for k in 0..12 {
                                assert!(
                                    (z.get(i, k) - reference.get(u, k)).abs() < 1e-5,
                                    "thread {t} round {round} node {u}"
                                );
                            }
                        }
                    }
                });
            }
        });
        let m = eng.metrics();
        assert_eq!(m.embed.count, 40);
        assert_eq!(m.rows_requested, 400);
    }
}
