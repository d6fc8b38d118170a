//! The one serving front end: every request path of the crate, once,
//! generic over the [`ShardTransport`] its parts travel on.
//!
//! [`Engine`](crate::Engine) (one in-process band),
//! [`ShardedEngine`](crate::ShardedEngine) (N bands),
//! [`RemoteShardedEngine`](crate::RemoteShardedEngine) (bands in worker
//! processes) and [`WorkerEngine`](crate::WorkerEngine) (one band, at
//! the epoch its coordinator pinned) are constructors over a
//! [`FrontEnd`]. An embed request runs the same steps whatever the
//! transport:
//!
//! 1. refuse after shutdown; validate ids against the PART1D cut; map
//!    external ids to internal rows when the graph was reordered;
//! 2. admission (admit / degrade to `CachedOnly` / shed), then the
//!    pre-expired deadline check and the trace-sampling decision;
//! 3. pin one feature epoch — the store's current snapshot, or the
//!    epoch a worker's coordinator pinned;
//! 4. `CachedOnly` answers from the result cache and returns; `Exact`
//!    probes it once, each id decided under its segment lock: hit, own
//!    the miss, or wait on the request already computing it;
//! 5. scatter the rows still to compute to their owning shards — one
//!    part per shard through the transport, each with a one-shot retry
//!    that is the same `embed_part` call — and return a
//!    [`Ticket`] whose assembly gathers them in request order.
//!
//! Because bands are contiguous and ordered, a shard's part of a sorted
//! request is itself sorted; results are bit-identical for any number
//! of bands and either transport — every output row is computed
//! independently, from the same row slice, in the same column order,
//! under the same blocking.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fusedmm_cache::InflightOwner;
use fusedmm_ops::OpSet;
use fusedmm_perf::gauge::Gauge;
use fusedmm_perf::hist::{HistogramVec, LatencyHistogram};
use fusedmm_perf::registry::{MetricsRegistry, MetricsSnapshot, Sample};
use fusedmm_perf::trace::{SpanCtx, SpanKind, Tracer};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::Permutation;

use crate::admit::{Admission, AdmissionPolicy};
use crate::band::Band;
use crate::batcher::dedup_union;
use crate::cache::{EmbedCache, FillSet};
use crate::engine::{EngineConfig, ServeError};
use crate::fault::FaultPlan;
use crate::observe::{apply_labels, push_cache_samples, push_outcome_samples};
use crate::store::{FeatureEpoch, FeatureStore};
use crate::ticket::{
    Completion, EmbedAssembly, EmbedOptions, EmbedResponse, Part, Quality, Redispatch,
    RequestStats, Ticket, TraceHandle,
};
use crate::transport::{LocalBands, PartSlot, PartSpan, ShardTransport};
use crate::wait::{slot, Claim, SlotPoll, SlotRx};

/// The request path over one transport. Reached through
/// [`Deref`](std::ops::Deref) from every public engine type: the
/// methods below are what `Engine`, `ShardedEngine` and
/// `RemoteShardedEngine` answer. Dropping it shuts the transport down.
pub struct FrontEnd<T: ShardTransport + ?Sized + 'static> {
    pub(crate) transport: Arc<T>,
    /// The same transport, as the one type a ticket's retry sends
    /// through.
    redispatch: Arc<dyn ShardTransport>,
    store: Arc<FeatureStore>,
    /// `boundaries[s]..boundaries[s + 1]` is shard `s`'s global row
    /// band (a worker's cut is its one band).
    boundaries: Vec<usize>,
    /// Shard label of part 0 (`None` for a standalone engine, whose
    /// spans, samples and `PartFailed` errors carry no shard).
    first_shard: Option<usize>,
    /// The load-time reordering's permutation: the cut, the bands, the
    /// cache and the store's epochs all live in internal (permuted) row
    /// order; ids are translated on entry and `infer_full` rows
    /// scattered back on exit.
    perm: Option<Arc<Permutation>>,
    /// One result cache for the whole cut, keyed by global node id.
    cache: Option<Arc<EmbedCache>>,
    tracer: Arc<Tracer>,
    admission: AdmissionPolicy,
    fault: Option<Arc<FaultPlan>>,
    /// Counters of the in-process bands behind the transport (none for
    /// a remote front end).
    bands: Vec<Arc<Band>>,
    /// Log2 degree histogram of the served rows, frozen at load.
    degree_hist: Vec<usize>,
    /// One observation per request answered with rows, begin → answer.
    embed_latency: Arc<LatencyHistogram>,
    /// Requests answered at the door, without a part: full cache hits,
    /// `CachedOnly`, empty requests.
    door_latency: Arc<LatencyHistogram>,
    inflight: Arc<Gauge>,
    /// The ledger: `begun == harvested + degraded + shed + failed +
    /// abandoned` once every ticket has resolved.
    stats: Arc<RequestStats>,
    /// Per shard: time from request begin until that shard's rows were
    /// gathered (harvest order and idle time included).
    fanout: Arc<HistogramVec>,
    stopped: AtomicBool,
}

impl<T: ShardTransport + ?Sized + 'static> FrontEnd<T> {
    /// A front end over `transport`'s cut, shards labeled from 0,
    /// tracing, admitting and injecting faults as `config` says: no
    /// tracer, no admission limit and no fault plan when it says
    /// nothing.
    pub(crate) fn new(
        transport: Arc<T>,
        redispatch: Arc<dyn ShardTransport>,
        store: Arc<FeatureStore>,
        cache: Option<Arc<EmbedCache>>,
        perm: Option<Arc<Permutation>>,
        config: &EngineConfig,
    ) -> FrontEnd<T> {
        let boundaries = transport.boundaries();
        assert_eq!(boundaries.len(), transport.nshards() + 1, "one band per shard");
        assert!(boundaries.windows(2).all(|w| w[0] <= w[1]), "bands are ascending");
        let fanout = Arc::new(HistogramVec::new(transport.nshards()));
        FrontEnd {
            transport,
            redispatch,
            store,
            boundaries,
            first_shard: Some(0),
            perm,
            cache,
            tracer: config.tracer.clone().unwrap_or_else(Tracer::disabled),
            admission: config.admission.unwrap_or_default(),
            fault: config.fault.clone().filter(|f| f.is_active()),
            bands: Vec::new(),
            degree_hist: Vec::new(),
            embed_latency: Arc::new(LatencyHistogram::new()),
            door_latency: Arc::new(LatencyHistogram::new()),
            inflight: Arc::new(Gauge::new()),
            stats: Arc::new(RequestStats::default()),
            fanout,
            stopped: AtomicBool::new(false),
        }
    }

    /// Number of shards behind the transport (empty bands included).
    pub fn nshards(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// One past the largest vertex id served.
    pub fn nvertices(&self) -> usize {
        *self.boundaries.last().expect("a cut has boundaries")
    }

    /// The embedding dimension served.
    pub fn dimension(&self) -> usize {
        self.store.d()
    }

    /// The feature store requests pin their epoch from. For a
    /// [`RemoteShardedEngine`](crate::RemoteShardedEngine) it is
    /// read-only: write through its `publish` / `delta_update`, or the
    /// workers fork.
    pub fn store(&self) -> &Arc<FeatureStore> {
        &self.store
    }

    /// The PART1D cut: `boundaries()[s]..boundaries()[s + 1]` is shard
    /// `s`'s global row band.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// The shard owning global (internal) vertex `u`, which must be in
    /// range.
    pub fn owner(&self, u: usize) -> usize {
        debug_assert!(u < self.nvertices());
        // Last boundary ≤ u; empty bands (repeated boundaries) are
        // skipped because their start equals their end.
        self.boundaries.partition_point(|&b| b <= u) - 1
    }

    fn shard_label(&self, s: usize) -> Option<usize> {
        self.first_shard.map(|first| first + s)
    }

    /// Refresh embeddings for `nodes` (any order, duplicates allowed):
    /// one output row per requested node, in request order, every row
    /// computed from one pinned feature epoch. The same code path as
    /// [`embed_begin`](Self::embed_begin) followed by [`Ticket::wait`],
    /// except that the calling thread claims the parts it dispatches:
    /// in process, it runs them itself, and no other caller's combiner
    /// takes them.
    pub fn embed(&self, nodes: &[usize]) -> Result<Dense, ServeError> {
        let claim = Some(Claim::mine());
        self.begin(nodes, EmbedOptions::default(), None, claim)?.rows().wait()
    }

    /// Begin an embedding request without blocking: the epoch is pinned
    /// and every part dispatched here, and the returned [`Ticket`]
    /// gathers lazily. Errors are eager: shutdown, out-of-range ids,
    /// admission rejection and pre-expired deadlines are reported here.
    pub fn embed_begin(&self, nodes: &[usize]) -> Result<Ticket<Dense>, ServeError> {
        Ok(self.embed_begin_opts(nodes, EmbedOptions::default())?.rows())
    }

    /// [`embed_begin`](Self::embed_begin) with a deadline (expired work
    /// is dropped before its kernel launch) and a [`Quality`] tier. The
    /// [`EmbedResponse`] carries per-row `served_degraded` marks and the
    /// tier actually served (admission may downgrade `Exact` to
    /// `CachedOnly`).
    pub fn embed_begin_opts(
        &self,
        nodes: &[usize],
        opts: EmbedOptions,
    ) -> Result<Ticket<EmbedResponse>, ServeError> {
        self.begin(nodes, opts, None, None)
    }

    /// The request body (see the module docs), pinned at `pinned` or,
    /// when `None`, at the store's current epoch. Every part carries
    /// `claim`: a blocking caller's own, which the thread that waits on
    /// the ticket must hold.
    pub(crate) fn begin(
        &self,
        nodes: &[usize],
        opts: EmbedOptions,
        pinned: Option<Arc<FeatureEpoch>>,
        claim: Option<Claim>,
    ) -> Result<Ticket<EmbedResponse>, ServeError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServeError::EngineShutdown);
        }
        let (lo, hi) = (self.boundaries[0], self.nvertices());
        if let Some(&node) = nodes.iter().find(|&&u| u < lo || u >= hi) {
            return Err(ServeError::NodeOutOfRange { node, nvertices: hi });
        }
        if nodes.is_empty() {
            let rows = Dense::zeros(0, self.dimension());
            return Ok(self.answer_now(rows, Vec::new(), opts.quality, Instant::now(), None));
        }
        let mapped: Vec<usize>;
        let nodes: &[usize] = match &self.perm {
            Some(p) => {
                mapped = p.map_to_new(nodes);
                &mapped
            }
            None => nodes,
        };
        // Admission runs before this request acquires the in-flight
        // gauge, so it never counts itself toward the cap it is judged
        // against. Backlog is every shard's queued rows.
        let mut quality = opts.quality;
        let inflight = self.inflight.value();
        let queued_rows = self.queued_rows();
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
        // One sampling decision per request; every span of its fan-out
        // hangs off this root.
        let root = self.tracer.sample_root().map(|r| (r, self.tracer.now()));
        let epoch = pinned.unwrap_or_else(|| self.store.snapshot());
        let guard = self.inflight.acquire();
        let n = nodes.len();
        if quality == Quality::CachedOnly && self.cache.is_none() {
            let out = Dense::zeros(n, self.dimension());
            return Ok(self.answer_now(out, vec![true; n], quality, t0, root));
        }
        // The rows still to compute (sorted, distinct), the response
        // under assembly with the output positions it is still owed,
        // the coalesced rows, and the cache registrations this request
        // owns (one per row to compute). `TopKNeighbors` bypasses the
        // cache: truncated rows are never cached or mixed with exact
        // ones. An uncached request for sorted, distinct ids owes
        // nothing but its one part's rows — when one shard serves them
        // all, that part's rows are the response.
        let (to_compute, out, positions, mut parts, mut owners) = match &self.cache {
            Some(cache) if !matches!(quality, Quality::TopKNeighbors(_)) => {
                let route_start = root.map(|(r, _)| (r, self.tracer.now()));
                let mut out = Dense::zeros(n, self.dimension());
                let mut waiting = Vec::new();
                // A coalesced miss waits on a slot the owning part's
                // fill resolves. The owning part runs on `u`'s band: in
                // process, waiting on the row drives that band.
                let mut coalesce = |u: usize| {
                    let (tx, rx) = slot();
                    if let Some(band) = self.bands.get(self.owner(u)) {
                        tx.attach(band);
                    }
                    waiting.push(Part::coalesced(u, rx));
                    tx
                };
                // `CachedOnly` registers nothing: it answers with what
                // the cache holds, its misses zero rows marked degraded.
                let register = quality == Quality::Exact;
                let waiter = register.then_some(&mut coalesce as &mut dyn FnMut(usize) -> _);
                let route = cache.results.route(nodes, epoch.epoch(), out.as_mut_slice(), waiter);
                if let Some((r, start)) = route_start {
                    let (span, now) = (self.tracer.child(r), self.tracer.now());
                    self.tracer.record(span, SpanKind::CacheRoute, start, now, None, n as u64);
                }
                if !register || route.misses.is_empty() {
                    let mut marks = vec![false; n];
                    route.misses.iter().for_each(|&(i, _)| marks[i] = true);
                    return Ok(self.answer_now(out, marks, quality, t0, root));
                }
                let owned = route.owners.iter().map(InflightOwner::node).collect();
                (Cow::Owned(owned), Some(out), route.misses, waiting, route.owners)
            }
            _ if nodes.windows(2).all(|w| w[0] < w[1])
                && self.owner(nodes[0]) == self.owner(nodes[n - 1]) =>
            {
                (Cow::Borrowed(nodes), None, Vec::new(), Vec::new(), Vec::new())
            }
            _ => {
                let mut sorted = Vec::new();
                dedup_union([nodes], &mut sorted);
                let out = Dense::zeros(n, self.dimension());
                let positions = nodes.iter().copied().enumerate().collect();
                (Cow::Owned(sorted), Some(out), positions, Vec::new(), Vec::new())
            }
        };
        // Bands are contiguous and ordered, so shard `s`'s rows are one
        // run of the sorted list, and its owners the matching run. The
        // parts join the coalesced rows already in `parts`.
        let coalesced = parts.len();
        let mut owners = owners.drain(..);
        let mut rest: &[usize] = &to_compute;
        while let Some(&first) = rest.first() {
            let s = self.owner(first);
            let end = self.boundaries[s + 1];
            let (shard_nodes, tail) = rest.split_at(rest.partition_point(|&u| u < end));
            rest = tail;
            let shard_nodes: Arc<[usize]> = Arc::from(shard_nodes);
            let shard_owners: Vec<InflightOwner> =
                owners.by_ref().take(shard_nodes.len()).collect();
            let fills = (!shard_owners.is_empty()).then(|| {
                let cache = Arc::clone(self.cache.as_ref().expect("owners come from the cache"));
                FillSet::new(cache, Arc::clone(&shard_nodes), shard_owners, self.fault.clone())
            });
            let shard = self.shard_label(s);
            let span = root.map(|(r, _)| PartSpan {
                tracer: Arc::clone(&self.tracer),
                ctx: self.tracer.child(r),
                start_ns: self.tracer.now(),
                shard,
                rows: shard_nodes.len() as u64,
            });
            let (tx, rx) = slot();
            let part_slot = PartSlot::new(tx, fills, span, claim);
            self.transport.embed_part(s, &shard_nodes, &epoch, quality, opts.deadline, part_slot);
            parts.push(Part::new(shard_nodes, s, shard, rx));
        }
        // The assembly waits on its own parts before the coalesced rows:
        // a blocking caller runs its claimed parts before it waits on a
        // row another caller's claimed part computes.
        parts.rotate_left(coalesced);
        self.stats.begin();
        let completion = Completion {
            latency: Arc::clone(&self.embed_latency),
            stats: Arc::clone(&self.stats),
            trace: root.map(|(root, begin_ns)| TraceHandle {
                tracer: Arc::clone(&self.tracer),
                root,
                begin_ns,
            }),
            fanout: Arc::clone(&self.fanout),
            begun: t0,
        };
        let retry = Redispatch {
            transport: Arc::clone(&self.redispatch),
            epoch,
            quality,
            deadline: opts.deadline,
            claim,
        };
        let marks = vec![matches!(quality, Quality::TopKNeighbors(_)); n];
        let assembly = EmbedAssembly::assemble(
            out,
            parts,
            coalesced,
            positions,
            marks,
            quality,
            Some(retry),
            completion,
            guard,
        );
        if let Some(deadline) = opts.deadline {
            assembly.run_ahead(deadline);
        }
        Ok(Ticket::pending(assembly))
    }

    /// A request answered at begin, with no part: count it, time it,
    /// and close its root span.
    fn answer_now(
        &self,
        rows: Dense,
        served_degraded: Vec<bool>,
        quality: Quality,
        t0: Instant,
        root: Option<(SpanCtx, u64)>,
    ) -> Ticket<EmbedResponse> {
        if let Some((r, begin_ns)) = root {
            let (now, n) = (self.tracer.now(), rows.nrows() as u64);
            self.tracer.record(r, SpanKind::Embed, begin_ns, now, None, n);
        }
        if served_degraded.iter().any(|&b| b) {
            self.stats.ready_degraded();
        } else {
            self.stats.ready();
        }
        let elapsed = t0.elapsed();
        self.embed_latency.record(elapsed);
        self.door_latency.record(elapsed);
        Ticket::ready(Ok(EmbedResponse { rows, served_degraded, quality }))
    }

    /// Score candidate `(u, v)` edges under one pinned epoch: sources
    /// index the target-side rows (the cut), targets the neighbor-side
    /// rows (`Y`). Each pair goes to the shard owning its source; every
    /// involved shard is asked before any answer is awaited, and scores
    /// come back in request order.
    pub fn score_edges(&self, pairs: &[(usize, usize)]) -> Result<Vec<f32>, ServeError> {
        let mut out = vec![0f32; pairs.len()];
        self.score_into(pairs, None, &mut out)?;
        Ok(out)
    }

    /// [`score_edges`](Self::score_edges) at `pinned` (the current
    /// epoch when `None`), into `out`: one slot per pair, each
    /// overwritten.
    pub(crate) fn score_into(
        &self,
        pairs: &[(usize, usize)],
        pinned: Option<Arc<FeatureEpoch>>,
        out: &mut [f32],
    ) -> Result<(), ServeError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServeError::EngineShutdown);
        }
        let (lo, hi, n) = (self.boundaries[0], self.nvertices(), self.store.y_rows());
        for &(u, v) in pairs {
            if u < lo || u >= hi {
                return Err(ServeError::NodeOutOfRange { node: u, nvertices: hi });
            }
            if v >= n {
                return Err(ServeError::NodeOutOfRange { node: v, nvertices: n });
            }
        }
        // A reordered deployment is square: both endpoints map through
        // the one permutation.
        let mapped: Vec<(usize, usize)>;
        let pairs: &[(usize, usize)] = match &self.perm {
            Some(p) => {
                mapped = pairs.iter().map(|&(u, v)| (p.to_new(u), p.to_new(v))).collect();
                &mapped
            }
            None => pairs,
        };
        let epoch = pinned.unwrap_or_else(|| self.store.snapshot());
        let Some(&(first, _)) = pairs.first() else { return Ok(()) };
        let owner = self.owner(first);
        if pairs.iter().all(|&(u, _)| self.owner(u) == owner) {
            // One shard owns every pair (always, for one band): it
            // scores `pairs` as they are, and its reply is `out` in
            // request order.
            let rx = self.send_score(owner, pairs, &epoch);
            let deadline = self.transport.score_timeout().map(|bound| Instant::now() + bound);
            let scores = self.score_reply(owner, rx, pairs.len(), deadline)?;
            out.copy_from_slice(scores.as_slice());
            return Ok(());
        }
        // Per shard: the original pair indices and the pairs themselves.
        type ShardPairs = (Vec<usize>, Vec<(usize, usize)>);
        let mut per_shard: Vec<ShardPairs> = vec![(Vec::new(), Vec::new()); self.nshards()];
        for (i, &pair) in pairs.iter().enumerate() {
            let (idx, sub) = &mut per_shard[self.owner(pair.0)];
            idx.push(i);
            sub.push(pair);
        }
        // Every involved shard's part is sent before any is awaited, so
        // a slow shard overlaps the rest. The slots are then read in
        // shard order: the reported failure is the lowest failing
        // shard, whatever finished first.
        let parts: Vec<(usize, SlotRx)> = (0..self.nshards())
            .filter(|&s| !per_shard[s].0.is_empty())
            .map(|s| (s, self.send_score(s, &per_shard[s].1, &epoch)))
            .collect();
        let deadline = self.transport.score_timeout().map(|bound| Instant::now() + bound);
        for (s, rx) in parts {
            let (idx, sub) = &per_shard[s];
            let scores = self.score_reply(s, rx, sub.len(), deadline)?;
            for (&i, &score) in idx.iter().zip(scores.as_slice()) {
                out[i] = score;
            }
        }
        Ok(())
    }

    /// Send shard `s` a score part for `pairs`; its reply lands on the
    /// returned slot.
    fn send_score(&self, s: usize, pairs: &[(usize, usize)], epoch: &Arc<FeatureEpoch>) -> SlotRx {
        let (tx, rx) = slot();
        self.transport.score_part(s, pairs, epoch, PartSlot::new(tx, None, None, None));
        rx
    }

    /// Shard `s`'s reply to a score part of `len` pairs: one score per
    /// pair, awaited until `deadline`.
    fn score_reply(
        &self,
        s: usize,
        rx: SlotRx,
        len: usize,
        deadline: Option<Instant>,
    ) -> Result<Dense, ServeError> {
        match rx.recv_until(deadline) {
            SlotPoll::Reply(Ok(m)) if (m.nrows(), m.ncols()) == (len, 1) => Ok(m),
            SlotPoll::Closed => Err(ServeError::EngineShutdown),
            _ => Err(ServeError::PartFailed { shard: self.shard_label(s) }),
        }
    }

    fn queued_rows(&self) -> usize {
        (0..self.nshards()).map(|s| self.transport.queued_rows(s)).sum()
    }

    /// One scrape of this front end's samples: what
    /// [`register_metrics`](Self::register_metrics) with no extra
    /// labels exports, under the same `fusedmm_*` names.
    pub fn metrics(&self) -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        self.register_metrics(&registry, &[]);
        registry.snapshot()
    }

    /// Register the front end's collector, then one collector per band,
    /// with `registry`; every sample carries `labels`. Front-end samples
    /// (ledger, request latency, in-flight, epoch, fan-out, queued rows,
    /// cache, degree histogram) carry no `shard` label, so unlabeled
    /// lookups resolve to them; band samples are tagged `shard="<i>"`
    /// when the front end is sharded. The collectors read the live
    /// atomics at every [`MetricsRegistry::snapshot`].
    pub fn register_metrics(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        let labels: Vec<(String, String)> =
            labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        let (stats, inflight) = (Arc::clone(&self.stats), Arc::clone(&self.inflight));
        let (latency, door) = (Arc::clone(&self.embed_latency), Arc::clone(&self.door_latency));
        let (fanout, store) = (Arc::clone(&self.fanout), Arc::clone(&self.store));
        let (cache, transport) = (self.cache.clone(), Arc::clone(&self.transport));
        let degree_hist = self.degree_hist.clone();
        let first_shard = self.first_shard.unwrap_or(0);
        let front_labels = labels.clone();
        registry.register(move |out| {
            let labels = &front_labels;
            let l = |s: Sample| apply_labels(s, labels);
            // Bucket i counts rows with degree in [2^i, 2^{i+1}): the
            // graph's degree skew.
            for (bucket, &rows) in degree_hist.iter().enumerate() {
                let s = Sample::gauge("fusedmm_degree_histogram_rows", rows as f64);
                out.push(l(s.label("bucket", bucket.to_string())));
            }
            out.push(l(Sample::histogram("fusedmm_embed_latency_seconds", latency.snapshot())));
            out.push(l(Sample::histogram("fusedmm_frontend_hit_latency_seconds", door.snapshot())));
            for s in 0..fanout.len() {
                let sample = Sample::histogram("fusedmm_fanout_gather_seconds", fanout.snapshot(s));
                out.push(l(sample.label("shard", (first_shard + s).to_string())));
            }
            push_outcome_samples(out, &stats, labels);
            let snap = inflight.snapshot();
            out.push(l(Sample::gauge("fusedmm_requests_inflight", snap.current as f64)));
            out.push(l(Sample::gauge("fusedmm_requests_inflight_peak", snap.peak as f64)));
            let queued: usize = (0..transport.nshards()).map(|s| transport.queued_rows(s)).sum();
            out.push(l(Sample::gauge("fusedmm_queue_rows", queued as f64)));
            out.push(l(Sample::gauge("fusedmm_feature_epoch", store.current_epoch() as f64)));
            out.push(l(Sample::counter("fusedmm_epoch_swaps_total", store.swap_count())));
            if let Some(cache) = &cache {
                push_cache_samples(out, &cache.results.metrics(), labels);
            }
        });
        for band in &self.bands {
            let (band, labels) = (Arc::clone(band), labels.clone());
            registry.register(move |out| band.push_samples(out, &labels));
        }
    }

    /// Stop accepting requests and shut the transport down: queued
    /// parts resolve `EngineShutdown` (in-process bands; a launch in
    /// flight finishes) or fail typed (sockets). Called automatically
    /// on drop.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::Release);
        self.transport.shutdown();
    }
}

impl<T: ShardTransport + ?Sized + 'static> Drop for FrontEnd<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl FrontEnd<LocalBands> {
    /// A front end over in-process bands: band `s` owns
    /// `bands[s].0` (global rows) with adjacency `bands[s].1`, labeled
    /// shard `first_shard + s`. A `cache` is handed the bands and then
    /// subscribed to `store`'s invalidations.
    pub(crate) fn local(
        bands: Vec<(Range<usize>, Csr)>,
        first_shard: Option<usize>,
        store: Arc<FeatureStore>,
        cache: Option<Arc<EmbedCache>>,
        perm: Option<Arc<Permutation>>,
        ops: OpSet,
        config: &EngineConfig,
    ) -> FrontEnd<LocalBands> {
        let mut degree_hist: Vec<usize> = Vec::new();
        for (_, a) in &bands {
            let hist = a.degree_histogram_log2();
            degree_hist.resize(degree_hist.len().max(hist.len()), 0);
            degree_hist.iter_mut().zip(hist).for_each(|(total, rows)| *total += rows);
        }
        let transport = LocalBands::new(bands, first_shard, &ops, store.d(), config);
        let cores = transport.bands.clone();
        if let Some(cache) = &cache {
            // Its index is complete before any delta can reach it.
            cache.name_bands(&cores);
            store.subscribe(Arc::clone(cache) as _);
        }
        let transport = Arc::new(transport);
        let redispatch = Arc::clone(&transport) as Arc<dyn ShardTransport>;
        let mut front = FrontEnd::new(transport, redispatch, store, cache, perm, config);
        front.first_shard = first_shard;
        front.bands = cores;
        front.degree_hist = degree_hist;
        front
    }

    /// Inference over every served row under one pinned epoch: the
    /// classic `Z = FusedMM(A, X, Y)` batch call. Each band writes its
    /// rows of the output in place, bands overlapping on a rayon scope
    /// — bit-identical to one band, because every output row is written
    /// by exactly one band from the same pinned epoch.
    ///
    /// The returned matrix is the caller's. When it is dropped its
    /// storage parks in the front end (one buffer at most) and the next
    /// call overwrites it in place, so a caller that lets go of one
    /// result before asking for the next pays no allocation, zero-fill
    /// or page fault.
    pub fn infer_full(&self) -> Dense {
        let epoch = self.store.snapshot();
        let d = self.dimension();
        let bands = &self.transport.bands;
        let rows = self.nvertices() - self.boundaries[0];
        let mut out = Dense::recycled(&self.transport.out_home, rows, d);
        if let [band] = bands.as_slice() {
            band.infer_into(&epoch, out.as_mut_slice());
        } else {
            // Bands are contiguous: carve the output into one disjoint
            // mutable slice per band.
            let mut slices = Vec::with_capacity(bands.len());
            let mut rest = out.as_mut_slice();
            for w in self.boundaries.windows(2) {
                let (slice, tail) = rest.split_at_mut((w[1] - w[0]) * d);
                slices.push(slice);
                rest = tail;
            }
            rayon::scope(|sc| {
                for (band, slice) in bands.iter().zip(slices) {
                    let epoch = &epoch;
                    sc.spawn(move |_| band.infer_into(epoch, slice));
                }
            });
        }
        // Scatter internal-order rows back so row u answers external u.
        match &self.perm {
            Some(p) => p.unpermute_rows(&out),
            None => out,
        }
    }
}
