//! Engine-level PART1D sharding: one graph, several band engines.
//!
//! The paper's PART1D scheme cuts the rows of `A` into nnz-balanced
//! contiguous bands that threads process with zero synchronization —
//! threads share read access to `Y` but write disjoint row bands of
//! `Z`. The same property makes a band the right unit of *engine*
//! sharding, the step toward multi-machine serving: each shard owns a
//! [`Csr::row_band`](fusedmm_sparse::csr::Csr::row_band) (local rows,
//! global columns), runs its own worker + plan, and needs nothing from
//! its siblings beyond the shared (global) [`FeatureStore`].
//!
//! [`ShardedEngine`] is the front end: it validates requests globally,
//! pins **one** feature epoch per request, scatters the per-shard
//! pieces to the owning band engines, and gathers results back in
//! request order with the same `dedup_union`/`scatter_rows` machinery
//! the micro-batcher uses. Because bands are contiguous and ordered,
//! the concatenation of per-shard sorted unions is globally sorted —
//! the gather is a binary search away. Results are bit-identical to a
//! single unsharded [`Engine`] on the same graph: every output row is
//! computed independently, from the same row slice, in the same
//! column order, under the same blocking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fusedmm_cache::{CacheMetrics, InflightOwner, MissRoute};
use fusedmm_core::{Partition, PartitionStrategy, Plan, PlanCache};
use fusedmm_ops::OpSet;
use fusedmm_perf::gauge::Gauge;
use fusedmm_perf::hist::{HistogramSnapshot, HistogramVec, LatencyHistogram};
use fusedmm_perf::registry::{MetricsRegistry, Sample};
use fusedmm_perf::trace::{SpanCtx, SpanKind, Tracer};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::{BufferHome, Permutation};

use crate::admit::{Admission, AdmissionPolicy};
use crate::batcher::dedup_union;
use crate::cache::{EmbedCache, FillSet};
use crate::engine::{BandId, Engine, EngineConfig, EngineMetrics, ServeError};
use crate::fault::FaultPlan;
use crate::observe::{push_cache_samples, push_outcome_samples};
use crate::store::{FeatureEpoch, FeatureStore};
use crate::ticket::{
    Completion, EmbedAssembly, EmbedOptions, EmbedResponse, Part, Quality, RequestStats, Ticket,
    TraceHandle, WaiterSlot,
};

/// A graph served by several PART1D band engines behind one front end.
/// Shares the request API with [`Engine`] (`embed` / `score_edges` /
/// `infer_full`), adding per-shard observability.
pub struct ShardedEngine {
    store: Arc<FeatureStore>,
    shards: Vec<Engine>,
    /// One result cache for the whole graph, keyed by global node id
    /// and shared across every shard — a row computed for one caller
    /// serves repeats no matter which band owns it. Band engines run
    /// uncached; the front end probes before fanning out.
    cache: Option<Arc<EmbedCache>>,
    /// Latency of requests served entirely from the cache or from
    /// coalesced fills (they never reach a shard dispatcher, so no
    /// per-shard histogram sees them); merged into
    /// [`ShardedMetrics::embed`]. Shared (`Arc`) so lazily-harvested
    /// tickets can record into it.
    hit_latency: Arc<LatencyHistogram>,
    /// Front-end embed requests currently open (begin → resolve),
    /// blocking calls and un-harvested tickets alike.
    inflight: Arc<Gauge>,
    /// Front-end request reconciliation: every admitted request is
    /// `begun` and ends up `harvested` or `abandoned` — exactly once,
    /// no matter how many shards it fanned out to (band engines never
    /// see whole requests, only enqueued pieces, so their own
    /// [`RequestStats`] stay zero under a front end).
    stats: Arc<RequestStats>,
    /// The tracer every request-lifecycle span records into. Shared
    /// with all band engines (they get it through their
    /// [`EngineConfig`]) so one sampled request's fan-out spans carry
    /// consistent ids and timestamps.
    tracer: Arc<Tracer>,
    /// Front-end admission policy: in-flight is this front end's own
    /// gauge, backlog is the sum of every shard's queued rows. Band
    /// engines run unlimited beneath it — one gate per deployment, at
    /// the door.
    admission: AdmissionPolicy,
    /// The resolved fault-injection plan (config override or
    /// environment), `None` when inactive. Panic/delay injection
    /// happens in the band dispatchers (the plan is propagated through
    /// their configs); the front end keeps its own handle for
    /// poisoned-segment fill aborts on the shared cache.
    fault: Option<Arc<FaultPlan>>,
    /// Set by [`ShardedEngine::shutdown`] so the front end rejects new
    /// requests even when the shared cache could satisfy them.
    stopped: AtomicBool,
    /// `boundaries[s]..boundaries[s + 1]` is shard `s`'s global row
    /// band (the PART1D cut).
    boundaries: Vec<usize>,
    /// The load-time reordering's permutation, when one was configured.
    /// The cut, the bands, the shared cache, and the store's epochs all
    /// live in internal (permuted) row order; the front end translates
    /// external ids on entry (before ownership routing) and scatters
    /// `infer_full` rows back on exit.
    perm: Option<Arc<Permutation>>,
    /// Max row degree per band, recorded at partition time — the skew
    /// signal behind the `fusedmm_partition_max_row_degree` gauge (a
    /// band with one mega-row dominates its siblings' critical path).
    band_max_degree: Vec<usize>,
    /// Log2 degree histogram of the (possibly permuted) adjacency,
    /// frozen at load; republished with every metrics scrape.
    degree_hist: Vec<usize>,
    /// Gather progress per shard: time from fan-out start until shard
    /// `s`'s rows were merged into the response. Tickets gather lazily,
    /// so this traces response assembly from the caller's perspective
    /// (harvest order and idle time included), not per-shard compute
    /// (use [`ShardedMetrics::per_shard`]'s own embed histograms for
    /// straggler isolation).
    fanout: Arc<HistogramVec>,
    /// Plans for callers that run kernels beside the engine
    /// ([`ShardedEngine::plans`]), keyed by `(pattern, d,
    /// {shard, epoch})`. The bands themselves all run the one plan
    /// `EngineConfig::blocking` resolves to.
    plans: PlanCache,
    /// Where the assembled output of [`ShardedEngine::infer_full`]
    /// parks when its caller drops it (see [`Engine::infer_full`]); the
    /// band engines write their bands of it directly.
    out_home: BufferHome,
    started: Instant,
}

impl ShardedEngine {
    /// Cut `a` into at most `nshards` nnz-balanced row bands and spawn
    /// one band engine per (possibly empty) band, all sharing a fresh
    /// [`FeatureStore`] seeded with `x`/`y` as epoch 0.
    ///
    /// With [`EngineConfig::reordering`] set, the graph is renumbered
    /// *before* the PART1D cut — degree-sorting a skewed graph makes
    /// the bands internally regular (each band holds rows of similar
    /// degree) — while the request API keeps speaking external ids,
    /// bit-identical to an unreordered deployment.
    ///
    /// # Panics
    /// Panics when shapes are inconsistent or `nshards == 0`.
    pub fn new(
        a: Csr,
        x: Dense,
        y: Dense,
        ops: OpSet,
        nshards: usize,
        config: EngineConfig,
    ) -> ShardedEngine {
        assert_eq!(x.nrows(), a.nrows(), "X must have one row per vertex");
        assert_eq!(y.nrows(), a.ncols(), "Y must have one row per vertex");
        assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
        match config.reordering {
            Some(r) => {
                let perm = Arc::new(r.compute(&a));
                let a = perm.permute_csr(&a);
                let store = Arc::new(FeatureStore::with_permutation(x, y, Arc::clone(&perm)));
                ShardedEngine::build(a, store, ops, nshards, config, Some(perm))
            }
            None => ShardedEngine::build(
                a,
                Arc::new(FeatureStore::new(x, y)),
                ops,
                nshards,
                config,
                None,
            ),
        }
    }

    /// Like [`ShardedEngine::new`] but borrowing features through an
    /// existing store — e.g. one already being published to by a
    /// training loop, or shared with other engines.
    ///
    /// # Panics
    /// Panics when the store's shapes are inconsistent with `a`, or
    /// when [`EngineConfig::reordering`] is set — an external store
    /// cannot be assumed to hold features in the permuted row order
    /// (use [`ShardedEngine::new`]).
    pub fn with_store(
        a: Csr,
        store: Arc<FeatureStore>,
        ops: OpSet,
        nshards: usize,
        config: EngineConfig,
    ) -> ShardedEngine {
        assert!(
            config.reordering.is_none(),
            "EngineConfig::reordering requires engine-owned features (ShardedEngine::new): an \
             external FeatureStore is not in permuted row order"
        );
        ShardedEngine::build(a, store, ops, nshards, config, None)
    }

    /// Shared tail of `new` / `with_store`: `a` and the store's epochs
    /// are already in the same (possibly permuted) row order.
    fn build(
        a: Csr,
        store: Arc<FeatureStore>,
        ops: OpSet,
        nshards: usize,
        config: EngineConfig,
        perm: Option<Arc<Permutation>>,
    ) -> ShardedEngine {
        assert_eq!(store.x_rows(), a.nrows(), "store X must have one row per vertex");
        assert_eq!(store.y_rows(), a.ncols(), "store Y must have one row per vertex");
        let part = Partition::part1d(&a, nshards, PartitionStrategy::NnzBalanced);
        let degree_hist = a.degree_histogram_log2();
        let d = store.d();
        // The front end owns the (global-id) result cache; bands run
        // uncached beneath it.
        let cache = config.cache.map(|cache_cfg| {
            let cache = Arc::new(EmbedCache::new(&a, d, cache_cfg));
            store.subscribe(Arc::clone(&cache) as _);
            cache
        });
        // Resolve the tracer once so the front end and every band
        // engine share one instance (consistent span ids/timestamps
        // across a request's fan-out).
        let tracer = config.tracer.clone().unwrap_or_else(|| Arc::clone(Tracer::global()));
        // Resolve admission and fault injection once, here: requests
        // are admitted at the front door (band engines run unlimited —
        // they only ever see already-admitted pieces), and every band
        // dispatcher injects from the same plan instance (bands never
        // re-read the environment).
        let admission = config.admission.unwrap_or_else(AdmissionPolicy::from_env);
        let fault_cfg = config
            .fault
            .clone()
            .or_else(FaultPlan::from_env)
            .unwrap_or_else(|| Arc::new(FaultPlan::disabled()));
        let band_config = EngineConfig {
            cache: None,
            tracer: Some(Arc::clone(&tracer)),
            admission: Some(AdmissionPolicy::unlimited()),
            fault: Some(Arc::clone(&fault_cfg)),
            // The graph is already permuted; bands serve internal ids.
            reordering: None,
            ..config.clone()
        };
        let shards: Vec<Engine> = (0..part.len())
            .map(|s| {
                let rows = part.rows(s);
                let plan =
                    Plan::with_blocking(&ops, d, config.blocking, PartitionStrategy::NnzBalanced);
                Engine::for_band(
                    a.row_band(rows.clone()),
                    BandId { start: rows.start, shard: Some(s) },
                    Arc::clone(&store),
                    None,
                    ops.clone(),
                    plan,
                    band_config.clone(),
                    None,
                )
            })
            .collect();
        let fanout = Arc::new(HistogramVec::new(shards.len()));
        ShardedEngine {
            store,
            shards,
            cache,
            hit_latency: Arc::new(LatencyHistogram::new()),
            inflight: Arc::new(Gauge::new()),
            stats: Arc::new(RequestStats::default()),
            tracer,
            admission,
            fault: Some(fault_cfg).filter(|f| f.is_active()),
            stopped: AtomicBool::new(false),
            boundaries: part.boundaries().to_vec(),
            perm,
            band_max_degree: part.max_row_degrees().to_vec(),
            degree_hist,
            fanout,
            plans: PlanCache::new(),
            out_home: BufferHome::new(),
            started: Instant::now(),
        }
    }

    /// The shard-tagged plan cache (see the field docs); exposed so
    /// callers can pair a publish with
    /// [`PlanCache::evict_epoch`](fusedmm_core::PlanCache::evict_epoch)
    /// once epoch-keyed entries exist.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Number of shards (band engines), including empty bands.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices in the full graph.
    pub fn nvertices(&self) -> usize {
        *self.boundaries.last().expect("partition has boundaries")
    }

    /// The embedding dimension served.
    pub fn dimension(&self) -> usize {
        self.store.d()
    }

    /// The shared feature store — publish refreshed embeddings here;
    /// every shard sees the new epoch atomically.
    pub fn store(&self) -> &Arc<FeatureStore> {
        &self.store
    }

    /// The PART1D cut: `boundaries()[s]..boundaries()[s + 1]` is shard
    /// `s`'s global row band.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// The shard owning global vertex `u` (which must be in range).
    pub fn owner(&self, u: usize) -> usize {
        debug_assert!(u < self.nvertices());
        // Last boundary ≤ u; empty bands (repeated boundaries) are
        // skipped because their start equals their end.
        self.boundaries.partition_point(|&b| b <= u) - 1
    }

    /// Refresh embeddings for `nodes` (any order, duplicates allowed,
    /// global ids): one output row per requested node, in request
    /// order, every row computed from the **same** feature epoch —
    /// pinned once here, before the fan-out, so a concurrent publish
    /// can never tear a response across shards. Implemented as
    /// [`ShardedEngine::embed_begin`] followed by [`Ticket::wait`], so
    /// blocking and ticketed serving are the same code path.
    ///
    /// With the shared result cache enabled ([`EngineConfig::cache`]),
    /// valid rows are served from memory first and only the misses fan
    /// out to their owning band engines — bit-identical either way.
    pub fn embed(&self, nodes: &[usize]) -> Result<Dense, ServeError> {
        self.embed_begin(nodes)?.wait()
    }

    /// Begin an embedding request without blocking: one feature epoch
    /// is pinned here, the per-shard pieces are enqueued on their
    /// owning band engines immediately (their dispatchers work
    /// concurrently), and the returned [`Ticket`] gathers lazily — the
    /// first `poll`/`wait` starts collecting rows, and the completing
    /// call assembles the response in request order.
    ///
    /// With the shared cache enabled, hits resolve here, and misses
    /// another in-flight request is already computing coalesce onto it
    /// instead of fanning out — whichever shard owns them.
    pub fn embed_begin(&self, nodes: &[usize]) -> Result<Ticket<Dense>, ServeError> {
        Ok(self.embed_begin_opts(nodes, EmbedOptions::default())?.map(|r| r.rows))
    }

    /// [`ShardedEngine::embed_begin`] with per-request
    /// [`EmbedOptions`]: an optional deadline (expired pieces are
    /// dropped before any band's kernel launch) and a [`Quality`] tier
    /// — the same contract as [`Engine::embed_begin_opts`], applied at
    /// the front door so one admission gate and one tier decision
    /// cover the whole fan-out.
    pub fn embed_begin_opts(
        &self,
        nodes: &[usize],
        opts: EmbedOptions,
    ) -> Result<Ticket<EmbedResponse>, ServeError> {
        // Match the single engine's post-shutdown contract: even a
        // would-be full cache hit is refused once shut down.
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServeError::EngineShutdown);
        }
        self.check_nodes(nodes)?;
        // A reordered deployment translates external ids to internal
        // rows once, here — before ownership routing, cache probing,
        // and the fan-out, which all run on internal ids. The response
        // is positional (row i answers `nodes[i]`), so nothing maps
        // back.
        let mapped: Vec<usize>;
        let nodes: &[usize] = match &self.perm {
            Some(p) => {
                mapped = p.map_to_new(nodes);
                &mapped
            }
            None => nodes,
        };
        if nodes.is_empty() {
            self.stats.ready();
            return Ok(Ticket::ready(Ok(EmbedResponse {
                rows: Dense::zeros(0, self.dimension()),
                served_degraded: Vec::new(),
                quality: opts.quality,
            })));
        }
        // Admission runs before this request acquires the front-end
        // gauge, so it never counts itself toward the cap it is being
        // judged against. Backlog is the whole deployment's: the sum
        // of every band's undispatched rows.
        let mut quality = opts.quality;
        let inflight = self.inflight.value();
        let queued_rows = self.shards.iter().map(|s| s.queued_rows()).sum();
        match self.admission.decide(inflight, queued_rows) {
            Admission::Admit => {}
            Admission::Degrade => {
                quality = AdmissionPolicy::downgrade(quality, self.cache.is_some());
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
        // One sampling decision per request; when sampled, every span
        // of its fan-out (front-end route, per-shard enqueue / batch /
        // kernel / fill, harvest) hangs off this root.
        let root = self.tracer.sample_root();
        let begin_ns = if root.is_some() { self.tracer.now() } else { 0 };
        let epoch = self.store.snapshot();
        let guard = self.inflight.acquire();
        if quality == Quality::CachedOnly {
            return Ok(self.embed_cached_only(nodes, &epoch, t0, root, begin_ns));
        }
        let mut out = Dense::zeros(nodes.len(), self.dimension());
        // Sorted, deduplicated nodes still to compute, with the output
        // positions they owe, and any coalesced waiters. The degraded
        // `TopKNeighbors` tier bypasses the shared cache entirely —
        // truncated rows must never be cached or mixed with exact rows
        // — so it always lands in the fan-out arm below.
        let (to_compute, positions, waiters, mut owners) = match &self.cache {
            Some(cache) if quality == Quality::Exact => {
                let route_start = if root.is_some() { self.tracer.now() } else { 0 };
                let (misses, positions) = cache.split(nodes, epoch.epoch(), &mut out);
                if misses.is_empty() {
                    if let Some(r) = root {
                        let now = self.tracer.now();
                        let route = self.tracer.child(r);
                        self.tracer.record(
                            route,
                            SpanKind::CacheRoute,
                            route_start,
                            now,
                            None,
                            nodes.len() as u64,
                        );
                        self.tracer.record(
                            r,
                            SpanKind::Embed,
                            begin_ns,
                            now,
                            None,
                            nodes.len() as u64,
                        );
                    }
                    self.stats.ready();
                    self.hit_latency.record(t0.elapsed());
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
                        // A fill landed between the lookup miss and
                        // the routing call: the row is already in hand.
                        MissRoute::Resident(row) => {
                            waiters.push(WaiterSlot::resolved(u, row));
                        }
                    }
                }
                if let Some(r) = root {
                    let route = self.tracer.child(r);
                    self.tracer.record(
                        route,
                        SpanKind::CacheRoute,
                        route_start,
                        self.tracer.now(),
                        None,
                        nodes.len() as u64,
                    );
                }
                (owned, positions, waiters, owners)
            }
            _ => {
                let union = dedup_union([nodes]);
                (union, (0..nodes.len()).collect(), Vec::new(), Vec::<InflightOwner>::new())
            }
        };
        // Scatter the compute set to its owning band engines. The
        // input is globally sorted and bands are contiguous ascending
        // row ranges, so each per-shard list is itself a sorted union.
        let mut per_shard: Vec<(Vec<usize>, Vec<InflightOwner>)> =
            (0..self.shards.len()).map(|_| (Vec::new(), Vec::new())).collect();
        let mut owners = owners.drain(..);
        for &u in &to_compute {
            let (shard_nodes, shard_owners) = &mut per_shard[self.owner(u)];
            shard_nodes.push(u);
            if let Some(owner) = owners.next() {
                debug_assert_eq!(owner.node(), u, "owners align with the compute set");
                shard_owners.push(owner);
            }
        }
        // Build every per-shard FillSet before enqueueing anything: if
        // one enqueue loses a race with shutdown, dropping the
        // remaining sets aborts their registrations (waiters fail
        // instead of hanging), while already-enqueued sets resolve
        // through their dispatchers.
        let pending: Vec<(usize, Vec<usize>, Option<FillSet>)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, (shard_nodes, _))| !shard_nodes.is_empty())
            .map(|(s, (shard_nodes, shard_owners))| {
                // Fills only ride Exact batches: a TopKNeighbors part
                // computes truncated rows that must never land in the
                // shared cache (its owners list is empty anyway).
                let fills = match (&self.cache, quality) {
                    (Some(cache), Quality::Exact) => {
                        Some(FillSet::new(Arc::clone(cache), shard_owners, self.fault.clone()))
                    }
                    _ => None,
                };
                (s, shard_nodes, fills)
            })
            .collect();
        let mut parts = Vec::new();
        // An enqueue losing a race with shutdown drops the remaining
        // FillSets (aborting their registrations); sets already
        // enqueued resolve through their shard dispatchers.
        for (s, shard_nodes, fills) in pending {
            let rx = self.shards[s].enqueue_pinned(
                &shard_nodes,
                Arc::clone(&epoch),
                fills,
                root,
                quality,
                opts.deadline,
            )?;
            // Each part can retry once on its own shard after a
            // panicked launch — same pinned epoch, so an Exact retry
            // stays bit-identical.
            let retry = self.shards[s].retry_handle(Arc::clone(&epoch), quality, opts.deadline);
            parts.push(Part::with_retry(shard_nodes, s, Some(s), rx, Some(retry)));
        }
        let positions = positions.into_iter().map(|i| (i, nodes[i])).collect();
        // A fully coalesced request never reaches a shard dispatcher:
        // record its completion into the front-end hit histogram.
        let finish_hist = parts.is_empty().then(|| Arc::clone(&self.hit_latency));
        self.stats.begin();
        let completion = Completion {
            hist: finish_hist,
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
            waiters,
            positions,
            vec![matches!(quality, Quality::TopKNeighbors(_)); nodes.len()],
            quality,
            completion,
            Some(Arc::clone(&self.fanout)),
            guard,
        )))
    }

    /// The `CachedOnly` tier at the front door: answer immediately
    /// from whatever the shared result cache holds at the pinned
    /// epoch. Misses come back as zero rows marked `served_degraded` —
    /// no fan-out, no miss routing, no kernel time on any band.
    /// Without a cache every row is a degraded zero row.
    fn embed_cached_only(
        &self,
        nodes: &[usize],
        epoch: &Arc<FeatureEpoch>,
        t0: Instant,
        root: Option<SpanCtx>,
        begin_ns: u64,
    ) -> Ticket<EmbedResponse> {
        let tracer = &self.tracer;
        let mut out = Dense::zeros(nodes.len(), self.dimension());
        let mut marks = vec![true; nodes.len()];
        if let Some(cache) = &self.cache {
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
                    None,
                    nodes.len() as u64,
                );
            }
        }
        if let Some(r) = root {
            tracer.record(r, SpanKind::Embed, begin_ns, tracer.now(), None, nodes.len() as u64);
        }
        if marks.iter().any(|&b| b) {
            self.stats.ready_degraded();
        } else {
            self.stats.ready();
        }
        self.hit_latency.record(t0.elapsed());
        Ticket::ready(Ok(EmbedResponse {
            rows: out,
            served_degraded: marks,
            quality: Quality::CachedOnly,
        }))
    }

    /// Score candidate `(u, v)` edges (global ids), scattering each
    /// pair to the shard owning its source vertex and gathering scores
    /// back in request order, all under one pinned epoch.
    pub fn score_edges(&self, pairs: &[(usize, usize)]) -> Result<Vec<f32>, ServeError> {
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
        // Translate to internal ids after validation (a reordered
        // deployment is square, so both endpoints map through the same
        // permutation) — ownership routing below runs on internal rows.
        let mapped: Vec<(usize, usize)>;
        let pairs: &[(usize, usize)] = match &self.perm {
            Some(p) => {
                mapped = pairs.iter().map(|&(u, v)| (p.to_new(u), p.to_new(v))).collect();
                &mapped
            }
            None => pairs,
        };
        let epoch = self.store.snapshot();
        // Per shard: the original pair indices and the pairs themselves.
        type ShardPairs = (Vec<usize>, Vec<(usize, usize)>);
        let mut per_shard: Vec<ShardPairs> = vec![(Vec::new(), Vec::new()); self.shards.len()];
        for (i, &pair) in pairs.iter().enumerate() {
            let (idx, sub) = &mut per_shard[self.owner(pair.0)];
            idx.push(i);
            sub.push(pair);
        }
        let mut out = vec![0f32; pairs.len()];
        for (s, (idx, sub)) in per_shard.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let scores = self.shards[s].score_edges_pinned(sub, &epoch)?;
            for (&i, score) in idx.iter().zip(scores) {
                out[i] = score;
            }
        }
        Ok(out)
    }

    /// Full-graph inference: every shard computes its band under one
    /// pinned epoch, **bands overlapping** on a rayon scope (each band
    /// already fans out internally, but overlapping them hides
    /// per-shard plan launch overhead and stragglers on many-shard
    /// configs). Each band engine writes its rows of the full `m × d`
    /// output in place — bit-identical to the unsharded call *and* to
    /// running the bands sequentially, because each output row is
    /// written by exactly one shard from the same pinned epoch. The
    /// output's storage is recycled as in [`Engine::infer_full`].
    pub fn infer_full(&self) -> Dense {
        let epoch = self.store.snapshot();
        let d = self.dimension();
        let mut out = Dense::recycled(&self.out_home, self.nvertices(), d);
        // Carve the output into disjoint mutable row-band slices
        // (bands are contiguous), one per shard.
        let mut bands: Vec<&mut [f32]> = Vec::with_capacity(self.shards.len());
        let mut rest = out.as_mut_slice();
        for w in self.boundaries.windows(2) {
            let (band, tail) = rest.split_at_mut((w[1] - w[0]) * d);
            bands.push(band);
            rest = tail;
        }
        rayon::scope(|sc| {
            for (shard, band) in self.shards.iter().zip(bands) {
                let epoch = &epoch;
                sc.spawn(move |_| shard.infer_pinned_into(epoch, band));
            }
        });
        // Scatter the stacked internal-order rows back so row u
        // answers external vertex u, as on an unreordered deployment.
        match &self.perm {
            Some(p) => p.unpermute_rows(&out),
            None => out,
        }
    }

    /// Max row degree per band, recorded when the PART1D cut was made —
    /// the operator-facing skew signal (also exported as the
    /// shard-labeled `fusedmm_partition_max_row_degree` gauge).
    pub fn band_max_degrees(&self) -> &[usize] {
        &self.band_max_degree
    }

    /// Point-in-time metrics: per-shard engine metrics plus the merged
    /// embed-latency distribution and the store's epoch counters.
    pub fn metrics(&self) -> ShardedMetrics {
        let merged = LatencyHistogram::new();
        for shard in &self.shards {
            merged.absorb(shard.embed_latency());
        }
        merged.absorb(&self.hit_latency);
        // One consistent (current, peak) pair — see Gauge::snapshot.
        let inflight = self.inflight.snapshot();
        ShardedMetrics {
            uptime: self.started.elapsed(),
            embed: merged.snapshot(),
            fanout: (0..self.shards.len()).map(|s| self.fanout.snapshot(s)).collect(),
            per_shard: self.shards.iter().map(|e| e.metrics()).collect(),
            requests_begun: self.stats.begun.load(Ordering::Relaxed),
            requests_harvested: self.stats.harvested.load(Ordering::Relaxed),
            requests_degraded: self.stats.degraded.load(Ordering::Relaxed),
            requests_shed: self.stats.shed.load(Ordering::Relaxed),
            requests_failed: self.stats.failed.load(Ordering::Relaxed),
            requests_abandoned: self.stats.abandoned.load(Ordering::Relaxed),
            panics_caught: self.shards.iter().map(|s| s.panics_caught()).sum(),
            expired_dropped: self.shards.iter().map(|s| s.expired_dropped()).sum(),
            queued_rows: self.shards.iter().map(|s| s.queued_rows()).sum(),
            inflight: inflight.current,
            inflight_peak: inflight.peak,
            feature_epoch: self.store.current_epoch(),
            epoch_swaps: self.store.swap_count(),
            cache: self.cache.as_ref().map(|c| c.metrics()),
        }
    }

    /// Register the front end and every band engine with `registry`.
    ///
    /// Front-end samples (request reconciliation, in-flight gauges, the
    /// cache-hit latency histogram, per-shard fan-out histograms, the
    /// shared cache) carry no `shard` label; each band engine registers
    /// its own collector tagged `shard="<i>"`, so one
    /// [`MetricsRegistry::snapshot`] enumerates the whole deployment.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let stats = Arc::clone(&self.stats);
        let inflight = Arc::clone(&self.inflight);
        let hit_latency = Arc::clone(&self.hit_latency);
        let fanout = Arc::clone(&self.fanout);
        let cache = self.cache.clone();
        let store = Arc::clone(&self.store);
        let nshards = self.shards.len();
        let band_max_degree = self.band_max_degree.clone();
        let degree_hist = self.degree_hist.clone();
        registry.register(move |out| {
            // Static graph-shape gauges: per-band max row degree (the
            // skew each shard's critical path carries) and the log2
            // degree histogram (bucket i counts rows with degree in
            // [2^i, 2^{i+1})).
            for (s, &deg) in band_max_degree.iter().enumerate() {
                out.push(
                    Sample::gauge("fusedmm_partition_max_row_degree", deg as f64)
                        .label("shard", s.to_string()),
                );
            }
            for (bucket, &rows) in degree_hist.iter().enumerate() {
                out.push(
                    Sample::gauge("fusedmm_degree_histogram_rows", rows as f64)
                        .label("bucket", bucket.to_string()),
                );
            }
            out.push(Sample::histogram(
                "fusedmm_frontend_hit_latency_seconds",
                hit_latency.snapshot(),
            ));
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
            if let Some(cache) = &cache {
                push_cache_samples(out, &cache.metrics(), &[]);
            }
        });
        for (s, shard) in self.shards.iter().enumerate() {
            let tag = s.to_string();
            shard.register_metrics(registry, &[("shard", &tag)]);
        }
    }

    /// The shared result cache's statistics, when one is enabled.
    pub fn cache_metrics(&self) -> Option<CacheMetrics> {
        self.cache.as_ref().map(|c| c.metrics())
    }

    /// Stop every shard: reject new requests, drain queues, join the
    /// dispatchers. Called automatically on drop (each band engine
    /// shuts down when dropped).
    pub fn shutdown(&mut self) {
        self.stopped.store(true, Ordering::Release);
        for shard in &mut self.shards {
            shard.shutdown();
        }
    }

    fn check_nodes(&self, nodes: &[usize]) -> Result<(), ServeError> {
        let m = self.nvertices();
        for &node in nodes {
            if node >= m {
                return Err(ServeError::NodeOutOfRange { node, nvertices: m });
            }
        }
        Ok(())
    }
}

/// Serving statistics reported by [`ShardedEngine::metrics`].
#[derive(Debug, Clone)]
pub struct ShardedMetrics {
    /// Time since the sharded engine was constructed.
    pub uptime: std::time::Duration,
    /// Embed-request latency merged across every shard, plus requests
    /// served entirely from the shared cache (which never reach a
    /// shard dispatcher).
    pub embed: HistogramSnapshot,
    /// Cumulative gather progress per shard, front-end view: time from
    /// fan-out start until shard `s`'s rows were merged (includes
    /// waiting on shards before `s` — response-assembly timeline, not
    /// per-shard compute; see [`ShardedMetrics::per_shard`] for that).
    pub fanout: Vec<HistogramSnapshot>,
    /// Each shard engine's own metrics, in band order.
    pub per_shard: Vec<EngineMetrics>,
    /// Front-end embed requests admitted (every `embed_begin` that
    /// returned `Ok`, including requests resolved at creation).
    pub requests_begun: u64,
    /// Front-end embed requests whose response was assembled at full
    /// fidelity.
    pub requests_harvested: u64,
    /// Front-end embed requests answered degraded (a `CachedOnly` or
    /// `TopKNeighbors` response with at least one `served_degraded`
    /// row).
    pub requests_degraded: u64,
    /// Front-end embed requests rejected by the admission policy.
    pub requests_shed: u64,
    /// Front-end embed requests that resolved with a typed error
    /// (expired deadline, part failure, shutdown).
    pub requests_failed: u64,
    /// Front-end embed requests whose ticket was dropped unresolved.
    /// `requests_begun == requests_harvested + requests_degraded +
    /// requests_shed + requests_failed + requests_abandoned` once
    /// every ticket has resolved.
    pub requests_abandoned: u64,
    /// Kernel-launch panics caught at band dispatch boundaries, summed
    /// across shards.
    pub panics_caught: u64,
    /// Requests band dispatchers dropped past their deadline, summed
    /// across shards.
    pub expired_dropped: u64,
    /// Rows currently queued (undispatched) across every band — the
    /// admission policy's backlog signal.
    pub queued_rows: usize,
    /// Front-end embed requests currently open (begin → resolve):
    /// blocking calls plus every un-harvested [`Ticket`].
    pub inflight: u64,
    /// Deepest front-end in-flight window ever held.
    pub inflight_peak: u64,
    /// The feature epoch currently served.
    pub feature_epoch: u64,
    /// Completed feature-store swaps.
    pub epoch_swaps: u64,
    /// Shared result-cache statistics, when the cache is enabled.
    pub cache: Option<CacheMetrics>,
}

impl std::fmt::Display for ShardedMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} shards, epoch {} ({} swaps), requests {} begun / {} harvested / {} degraded / \
             {} shed / {} failed / {} abandoned, panics caught {}, expired dropped {}, \
             in-flight {} (peak {}), queued rows {}, merged embed: {}",
            self.per_shard.len(),
            self.feature_epoch,
            self.epoch_swaps,
            self.requests_begun,
            self.requests_harvested,
            self.requests_degraded,
            self.requests_shed,
            self.requests_failed,
            self.requests_abandoned,
            self.panics_caught,
            self.expired_dropped,
            self.inflight,
            self.inflight_peak,
            self.queued_rows,
            self.embed
        )?;
        if let Some(cache) = &self.cache {
            writeln!(f, "cache: {cache}")?;
        }
        for (s, m) in self.per_shard.iter().enumerate() {
            writeln!(
                f,
                "  shard {s}: batches={} rows computed={} embed p99={:.3?}",
                m.batches_dispatched, m.rows_computed, m.embed.p99
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_core::fusedmm_reference;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use std::time::Duration;

    fn graph(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            // Skewed degrees so the nnz-balanced cut is non-trivial.
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

    #[test]
    fn bands_tile_and_owner_is_consistent() {
        let a = graph(90);
        let eng = ShardedEngine::new(
            a,
            Dense::zeros(90, 4),
            Dense::zeros(90, 4),
            OpSet::gcn(),
            4,
            config(),
        );
        assert_eq!(eng.nvertices(), 90);
        assert!(eng.nshards() >= 1 && eng.nshards() <= 4);
        for u in 0..90 {
            let s = eng.owner(u);
            assert!(
                (eng.boundaries()[s]..eng.boundaries()[s + 1]).contains(&u),
                "owner({u}) = {s} does not contain it"
            );
        }
    }

    #[test]
    fn sharded_embed_matches_reference_in_request_order() {
        let n = 80;
        let d = 12;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, k| ((r * 3 + k) as f32 * 0.05).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r + k * 2) as f32 * 0.04).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let reference = fusedmm_reference(&a, &x, &y, &ops);
        let eng = ShardedEngine::new(a, x, y, ops, 3, config());
        // Out of order, duplicated, crossing every band.
        let nodes = [79usize, 0, 40, 79, 13, 41, 7];
        let z = eng.embed(&nodes).unwrap();
        assert_eq!(z.nrows(), nodes.len());
        for (i, &u) in nodes.iter().enumerate() {
            for k in 0..d {
                assert!((z.get(i, k) - reference.get(u, k)).abs() < 1e-5, "node {u} lane {k}");
            }
        }
        let m = eng.metrics();
        assert!(m.per_shard.iter().map(|s| s.rows_computed).sum::<u64>() >= 6);
        assert_eq!(m.feature_epoch, 0);
    }

    #[test]
    fn more_shards_than_rows_still_serves() {
        let n = 5;
        let a = graph(n);
        let feats = Dense::filled(n, 4, 0.5);
        let eng =
            ShardedEngine::new(a.clone(), feats.clone(), feats.clone(), OpSet::gcn(), 64, config());
        assert_eq!(eng.nshards(), n);
        let single = Engine::new(a, feats.clone(), feats, OpSet::gcn(), config());
        let nodes = [4usize, 0, 2];
        assert_eq!(eng.embed(&nodes).unwrap(), single.embed(&nodes).unwrap());
    }

    #[test]
    fn out_of_range_nodes_are_rejected_globally() {
        let a = graph(10);
        let eng = ShardedEngine::new(
            a,
            Dense::zeros(10, 4),
            Dense::zeros(10, 4),
            OpSet::gcn(),
            2,
            config(),
        );
        assert_eq!(
            eng.embed(&[3, 10]),
            Err(ServeError::NodeOutOfRange { node: 10, nvertices: 10 })
        );
        assert_eq!(
            eng.score_edges(&[(0, 12)]),
            Err(ServeError::NodeOutOfRange { node: 12, nvertices: 10 })
        );
    }

    #[test]
    fn parallel_infer_full_is_bit_identical_to_sequential_bands() {
        let n = 120;
        let d = 16;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, k| ((r * 2 + k) as f32 * 0.03).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r + k * 3) as f32 * 0.05).cos());
        let eng = ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 4, config());
        assert!(eng.nshards() > 1);
        let parallel = eng.infer_full();
        // The sequential reference: stack each band's pinned-epoch
        // result in band order (what infer_full did before the rayon
        // scope).
        let epoch = eng.store().snapshot();
        let mut sequential = Dense::zeros(n, d);
        for (s, shard) in eng.shards.iter().enumerate() {
            let z = shard.infer_pinned(&epoch);
            let lo = eng.boundaries()[s];
            for i in 0..z.nrows() {
                sequential.row_mut(lo + i).copy_from_slice(z.row(i));
            }
        }
        assert_eq!(parallel, sequential, "overlapped bands must not change a single bit");
    }

    #[test]
    fn shared_cache_serves_cross_shard_repeats_and_stays_bit_identical() {
        use fusedmm_cache::CacheConfig;
        let n = 80;
        let d = 8;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, k| ((r + k) as f32 * 0.04).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r * 2 + k) as f32 * 0.03).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let plain = ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops.clone(), 3, config());
        let cached = ShardedEngine::new(
            a,
            x,
            y,
            ops,
            3,
            EngineConfig { cache: Some(CacheConfig::default()), ..config() },
        );
        // Nodes spanning every band, with duplicates.
        let nodes = [79usize, 0, 40, 79, 13, 41, 7];
        let cold = cached.embed(&nodes).unwrap();
        assert_eq!(cold, plain.embed(&nodes).unwrap(), "cold shared cache is bit-identical");
        let count_cold = cached.metrics().embed.count;
        let warm = cached.embed(&nodes).unwrap();
        assert_eq!(warm, cold, "warm shared cache is bit-identical");
        assert_eq!(
            cached.metrics().embed.count,
            count_cold + 1,
            "a fully cache-served request still lands in the merged latency histogram"
        );
        let m = cached.cache_metrics().expect("cache enabled");
        assert_eq!(m.misses, nodes.len() as u64);
        assert_eq!(m.hits, nodes.len() as u64, "second pass hits across every shard");
        // Band engines are uncached — only the front end caches.
        for shard_metrics in cached.metrics().per_shard {
            assert!(shard_metrics.cache.is_none());
        }
        assert!(cached.metrics().cache.is_some());
    }

    #[test]
    fn front_end_admission_sheds_and_reconciles() {
        let a = graph(60);
        let feats = Dense::filled(60, 4, 0.2);
        let eng = ShardedEngine::new(
            a,
            feats.clone(),
            feats,
            OpSet::gcn(),
            3,
            EngineConfig {
                admission: Some(AdmissionPolicy {
                    max_inflight: 1,
                    max_queued_rows: 0,
                    degrade_fraction: 1.0,
                }),
                ..config()
            },
        );
        let held = eng.embed_begin(&[1, 59]).unwrap();
        match eng.embed_begin(&[2]) {
            Err(ServeError::Shed { inflight, .. }) => assert_eq!(inflight, 1),
            other => panic!("expected Shed, got {other:?}"),
        }
        drop(held);
        // Band engines run unlimited beneath the front gate: a fresh
        // request is admitted again once the held ticket resolves.
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
    fn sharded_topk_tier_matches_truncated_reference() {
        let n = 80;
        let d = 8;
        let k = 2;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, c| ((r + c) as f32 * 0.04).sin());
        let y = Dense::from_fn(n, d, |r, c| ((r * 2 + c) as f32 * 0.03).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let truncated = fusedmm_reference(&a.top_k_by_weight(k), &x, &y, &ops);
        let eng = ShardedEngine::new(a, x, y, ops, 3, config());
        let nodes = [79usize, 0, 40, 13, 41, 7];
        let resp = eng
            .embed_begin_opts(&nodes, EmbedOptions::with_quality(Quality::TopKNeighbors(k)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.quality, Quality::TopKNeighbors(k));
        assert!(resp.served_degraded.iter().all(|&b| b), "every TopK row is marked degraded");
        for (i, &u) in nodes.iter().enumerate() {
            for c in 0..d {
                assert!(
                    (resp.rows.get(i, c) - truncated.get(u, c)).abs() < 1e-5,
                    "node {u} lane {c}"
                );
            }
        }
        assert_eq!(eng.metrics().requests_degraded, 1);
    }

    #[test]
    fn sharded_cached_only_serves_warm_rows_exactly() {
        use fusedmm_cache::CacheConfig;
        let n = 60;
        let a = graph(n);
        let feats = Dense::from_fn(n, 6, |r, c| ((r + c) as f32 * 0.05).sin());
        let eng = ShardedEngine::new(
            a,
            feats.clone(),
            feats,
            OpSet::sigmoid_embedding(None),
            3,
            EngineConfig { cache: Some(CacheConfig::default()), ..config() },
        );
        let nodes = [59usize, 0, 30];
        let exact = eng.embed(&nodes).unwrap();
        let resp = eng
            .embed_begin_opts(&nodes, EmbedOptions::with_quality(Quality::CachedOnly))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.quality, Quality::CachedOnly);
        assert!(!resp.any_degraded(), "warm rows are served exactly");
        assert_eq!(resp.rows, exact);
        // A cold node comes back zeroed and marked — never computed.
        let cold = eng
            .embed_begin_opts(&[7], EmbedOptions::with_quality(Quality::CachedOnly))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(cold.served_degraded, vec![true]);
        assert!(cold.rows.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(eng.metrics().requests_degraded, 1);
    }

    #[test]
    fn sharded_injected_panic_retries_once_and_stays_bit_identical() {
        crate::fault::quiet_injected_panics();
        let n = 80;
        let d = 8;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, c| ((r + c) as f32 * 0.04).sin());
        let y = Dense::from_fn(n, d, |r, c| ((r * 2 + c) as f32 * 0.03).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let reference = fusedmm_reference(&a, &x, &y, &ops);
        let eng = ShardedEngine::new(
            a,
            x,
            y,
            ops,
            3,
            EngineConfig {
                fault: Some(Arc::new(FaultPlan::parse("panic_every=2").unwrap())),
                ..config()
            },
        );
        let nodes = [79usize, 0, 40, 13, 41, 7];
        // Batch 1 on every band is healthy; batch 2 panics and the part
        // retries on its own shard (batch 3), same pinned epoch.
        eng.embed(&nodes).unwrap();
        let z = eng.embed(&nodes).unwrap();
        for (i, &u) in nodes.iter().enumerate() {
            for c in 0..d {
                assert!(
                    (z.get(i, c) - reference.get(u, c)).abs() < 1e-6,
                    "retried rows must match the fault-free kernel: node {u} lane {c}"
                );
            }
        }
        let m = eng.metrics();
        assert!(m.panics_caught >= 1, "at least one band launch panicked");
        assert_eq!(m.requests_harvested, 2);
        assert_eq!(m.requests_failed, 0);
    }

    #[test]
    fn reordered_sharded_engine_is_bit_identical_and_keeps_external_ids() {
        use fusedmm_graph::Reordering;
        let n = 80;
        let d = 12;
        let a = graph(n);
        let x = Dense::from_fn(n, d, |r, k| ((r * 3 + k) as f32 * 0.05).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r + k * 2) as f32 * 0.04).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let plain = ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops.clone(), 3, config());
        let nodes = [79usize, 0, 40, 79, 13, 41, 7];
        let pairs = [(0usize, 7usize), (79, 0), (40, 41)];
        let base_embed = plain.embed(&nodes).unwrap();
        let base_scores = plain.score_edges(&pairs).unwrap();
        let base_full = plain.infer_full();
        for r in [Reordering::DegreeSort, Reordering::RcmBfs] {
            let cfg = EngineConfig { reordering: Some(r), ..config() };
            let eng = ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops.clone(), 3, cfg);
            assert_eq!(eng.embed(&nodes).unwrap(), base_embed, "{r:?} embed differs");
            assert_eq!(eng.score_edges(&pairs).unwrap(), base_scores, "{r:?} scores differ");
            assert_eq!(
                eng.infer_full().as_slice(),
                base_full.as_slice(),
                "{r:?} infer_full differs"
            );
            assert_eq!(
                eng.embed(&[n]),
                Err(ServeError::NodeOutOfRange { node: n, nvertices: n }),
                "{r:?} changed the external id space"
            );
        }
    }

    #[test]
    fn reordered_sharded_store_writes_use_external_ids() {
        use fusedmm_graph::Reordering;
        // Ring graph: z_u = y_{u+1} under GCN.
        let n = 30;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let a = c.to_csr(Dedup::Sum);
        let feats = Dense::from_fn(n, 4, |r, k| (r * 4 + k) as f32);
        let eng = ShardedEngine::new(
            a,
            feats.clone(),
            feats,
            OpSet::gcn(),
            3,
            EngineConfig { reordering: Some(Reordering::DegreeSort), ..config() },
        );
        let patch = Dense::filled(1, 4, -1.0);
        eng.store().delta_update(&[20], &patch, &patch);
        assert_eq!(eng.embed(&[19]).unwrap().row(0), &[-1.0; 4], "external row 20 was patched");
        assert_eq!(eng.embed(&[0]).unwrap().row(0), &[4.0, 5.0, 6.0, 7.0], "row 1 untouched");
    }

    #[test]
    #[should_panic(expected = "engine-owned features")]
    fn sharded_with_store_rejects_reordering() {
        use fusedmm_graph::Reordering;
        let a = graph(12);
        let store = Arc::new(FeatureStore::new(Dense::zeros(12, 4), Dense::zeros(12, 4)));
        let cfg = EngineConfig { reordering: Some(Reordering::DegreeSort), ..config() };
        let _ = ShardedEngine::with_store(a, store, OpSet::gcn(), 2, cfg);
    }

    #[test]
    fn partition_skew_gauges_are_exported() {
        let n = 90;
        let a = graph(n);
        let nonisolated = a.row_degrees().iter().filter(|&&d| d > 0).count();
        let eng = ShardedEngine::new(
            a,
            Dense::zeros(n, 4),
            Dense::zeros(n, 4),
            OpSet::gcn(),
            4,
            config(),
        );
        let registry = MetricsRegistry::new();
        eng.register_metrics(&registry);
        let snap = registry.snapshot();
        for (s, &deg) in eng.band_max_degrees().iter().enumerate() {
            let tag = s.to_string();
            let v = snap
                .gauge_value("fusedmm_partition_max_row_degree", &[("shard", &tag)])
                .expect("per-band max-degree gauge");
            assert_eq!(v, deg as f64, "shard {s} gauge disagrees with the partition record");
            assert!(deg >= 1, "every band of this graph holds at least one edge");
        }
        // Histogram buckets (unlabeled by shard) cover every
        // non-isolated row exactly once.
        let mut total = 0.0;
        for bucket in 0..64 {
            let tag = bucket.to_string();
            if let Some(v) = snap.gauge_value("fusedmm_degree_histogram_rows", &[("bucket", &tag)])
            {
                // Skip the per-shard copies: count only the front-end
                // (shard-unlabeled) samples.
                let s = snap.get("fusedmm_degree_histogram_rows", &[("bucket", &tag)]).unwrap();
                if s.labels.iter().all(|(k, _)| k != "shard") {
                    total += v;
                }
            }
        }
        assert_eq!(total, nonisolated as f64, "histogram covers every non-isolated row once");
    }

    #[test]
    fn shutdown_stops_every_shard() {
        let a = graph(12);
        let feats = Dense::filled(12, 4, 0.1);
        let mut eng = ShardedEngine::new(a, feats.clone(), feats, OpSet::gcn(), 3, config());
        eng.embed(&[1, 11]).unwrap();
        eng.shutdown();
        assert_eq!(eng.embed(&[1]), Err(ServeError::EngineShutdown));
    }

    #[test]
    fn shutdown_rejects_even_full_cache_hits() {
        use fusedmm_cache::CacheConfig;
        let a = graph(12);
        let feats = Dense::filled(12, 4, 0.1);
        let mut eng = ShardedEngine::new(
            a,
            feats.clone(),
            feats,
            OpSet::gcn(),
            3,
            EngineConfig { cache: Some(CacheConfig::default()), ..config() },
        );
        eng.embed(&[1, 11]).unwrap();
        eng.shutdown();
        // Both nodes are warm in the shared cache, but the front end
        // must refuse anyway — same contract as the single engine.
        assert_eq!(eng.embed(&[1, 11]), Err(ServeError::EngineShutdown));
    }
}
