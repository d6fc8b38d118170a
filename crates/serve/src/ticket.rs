//! Completion tokens for the non-blocking serving API.
//!
//! [`FrontEnd::embed_begin`](crate::FrontEnd::embed_begin) — what every
//! engine type answers — returns a [`Ticket`] instead of blocking: the
//! caller can launch N requests, do other work, and harvest completions
//! with [`Ticket::poll`] (non-blocking), [`Ticket::wait`] (blocking), or
//! [`Ticket::wait_deadline`] (bounded blocking) — or park on a whole
//! window at once with [`wait_any`](crate::wait_any). There is no
//! executor and no extra thread: whoever computes a part (a socket
//! reader, or a waiting thread running an in-process band's queued
//! batches, or, for a coalesced miss, the owning request's
//! computation) resolves a one-shot slot, and harvesting drains them.
//! `embed_begin` only enqueues (a request with a deadline also runs its
//! parts' bands until its parts leave the queue, so a late harvest does
//! not find them expired); otherwise an in-process part is computed
//! when a thread harvests it or any other part of its band — `wait`
//! and `wait_deadline` run the band's batches until what they wait on
//! resolves, then park, and `poll` runs at most one batch per band its
//! outstanding sources wait on.
//!
//! The blocking `embed` is `embed_begin(..)?.wait()` with its parts
//! claimed, so the calling thread runs them itself — otherwise the same
//! code path as a ticket, bit-identical by construction.
//!
//! Failure is part of the state machine, not an afterthought: a part
//! whose computation failed retries **once** on a healthy path (same
//! pinned epoch — an Exact retry stays bit-identical) before the ticket
//! resolves [`ServeError::PartFailed`]; a part dropped past its
//! deadline resolves [`ServeError::DeadlineExpired`]. Every admitted
//! request therefore ends in exactly one of the `RequestStats`
//! outcome buckets — no ticket ever hangs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fusedmm_perf::gauge::GaugeGuard;
use fusedmm_perf::hist::{HistogramVec, LatencyHistogram};
use fusedmm_perf::trace::{SpanCtx, SpanKind, Tracer};
use fusedmm_sparse::dense::Dense;

use crate::band::Band;
use crate::engine::ServeError;
use crate::store::FeatureEpoch;
use crate::transport::{PartSlot, ShardTransport};
use crate::wait::{slot, Claim, PartError, SlotPoll, SlotRx, Watcher};

/// The answer tier a request asks for (or is downgraded to by the
/// admission ladder). Degraded tiers trade accuracy for latency and
/// queue pressure; responses mark exactly which rows were degraded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Quality {
    /// The full computation — bit-identical to the batch kernels.
    #[default]
    Exact,
    /// Aggregate only each node's `k` strongest neighbors (largest
    /// `|weight|`): a principled approximation whose cost and error
    /// both shrink with `k`. Rows with degree ≤ `k` are exact.
    TopKNeighbors(usize),
    /// Answer from the result cache immediately; rows not resident
    /// come back zeroed and marked degraded. Never touches the kernel
    /// queue — the admission ladder's downgrade target.
    CachedOnly,
}

/// Per-request serving options for
/// [`FrontEnd::embed_begin_opts`](crate::FrontEnd::embed_begin_opts).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmbedOptions {
    /// Drop the work (and resolve `DeadlineExpired`) instead of
    /// computing past this instant. Checked at admission, at batch
    /// drain, and again right before the kernel launch.
    pub deadline: Option<Instant>,
    /// The requested answer tier.
    pub quality: Quality,
}

impl EmbedOptions {
    /// Exact quality with a deadline.
    pub fn with_deadline(deadline: Instant) -> EmbedOptions {
        EmbedOptions { deadline: Some(deadline), quality: Quality::Exact }
    }

    /// A quality tier with no deadline.
    pub fn with_quality(quality: Quality) -> EmbedOptions {
        EmbedOptions { deadline: None, quality }
    }
}

/// An embedding response plus its quality provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedResponse {
    /// One row per requested node, in request order.
    pub rows: Dense,
    /// `served_degraded[i]` is true when row `i` was *not* the exact
    /// answer (truncated neighbors, or a cache miss under `CachedOnly`
    /// served as zeros).
    pub served_degraded: Vec<bool>,
    /// The tier the request was ultimately served at (after any
    /// admission-ladder downgrade).
    pub quality: Quality,
}

impl EmbedResponse {
    /// True when any row was served degraded.
    pub fn any_degraded(&self) -> bool {
        self.served_degraded.iter().any(|&b| b)
    }

    /// Indices of the degraded rows.
    pub fn degraded_rows(&self) -> Vec<usize> {
        (0..self.served_degraded.len()).filter(|&i| self.served_degraded[i]).collect()
    }
}

/// Request-lifecycle reconciliation counters. Every request that
/// reaches admission counts one `begun`, and exactly one outcome:
///
/// * `harvested` — the exact response was assembled and returned;
/// * `degraded` — a response was returned with ≥ 1 degraded row
///   (`CachedOnly` misses or truncated-neighbor rows);
/// * `shed` — rejected by the admission policy (`ServeError::Shed`);
/// * `failed` — resolved with an error after admission (deadline
///   expired, part failed past its retry, engine shutdown mid-flight);
/// * `abandoned` — the ticket was dropped unresolved.
///
/// So `begun == harvested + degraded + shed + failed + abandoned` once
/// every ticket has resolved — the invariant the chaos tests assert
/// exactly. Tickets resolved at creation (empty request, full cache
/// hit) count `begun` and their outcome immediately.
#[derive(Debug, Default)]
pub(crate) struct RequestStats {
    pub begun: AtomicU64,
    pub harvested: AtomicU64,
    pub degraded: AtomicU64,
    pub shed: AtomicU64,
    pub failed: AtomicU64,
    pub abandoned: AtomicU64,
}

impl RequestStats {
    pub fn begin(&self) {
        self.begun.fetch_add(1, Ordering::Relaxed);
    }

    pub fn harvest(&self) {
        self.harvested.fetch_add(1, Ordering::Relaxed);
    }

    pub fn degraded_harvest(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// An admission rejection: begun and shed in one step.
    pub fn shed(&self) {
        self.begin();
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A ticket resolved exactly at creation: begun and harvested.
    pub fn ready(&self) {
        self.begin();
        self.harvest();
    }

    /// A ticket resolved degraded at creation (`CachedOnly` with
    /// misses): begun and degraded in one step.
    pub fn ready_degraded(&self) {
        self.begin();
        self.degraded_harvest();
    }
}

/// The sampled root span a ticket carries until it resolves: the
/// completing harvest records the `Harvest` child and closes the root
/// `Embed` span; an abandoned or failed assembly still closes the root
/// so every sampled request leaves a rooted tree.
pub(crate) struct TraceHandle {
    pub tracer: Arc<Tracer>,
    pub root: SpanCtx,
    /// `Tracer::now()` at `embed_begin` — the root span's start.
    pub begin_ns: u64,
}

/// Everything recorded when an [`EmbedAssembly`] resolves (or is
/// dropped unresolved). Bundled so the assembly constructor stays at a
/// readable arity.
pub(crate) struct Completion {
    /// The front end's request-latency histogram: one observation
    /// (begin → response) when the assembly resolves with rows.
    pub latency: Arc<LatencyHistogram>,
    /// The front end's reconciliation counters.
    pub stats: Arc<RequestStats>,
    /// The sampled root span, when this request was admitted.
    pub trace: Option<TraceHandle>,
    /// Gather progress: member `parts[i].tag` records when that part's
    /// rows arrive.
    pub fanout: Arc<HistogramVec>,
    /// When the request began.
    pub begun: Instant,
}

/// A completion of its own, untraced, with one fan-out slot: what a
/// unit test's assembly of one tag-0 part records into.
#[cfg(test)]
impl Default for Completion {
    fn default() -> Self {
        Completion {
            latency: Arc::new(LatencyHistogram::new()),
            stats: Arc::default(),
            trace: None,
            fanout: Arc::new(HistogramVec::new(1)),
            begun: Instant::now(),
        }
    }
}

/// A completion token for one in-flight serving request. Obtained from
/// `embed_begin`; resolves exactly once (the result is moved out by
/// the call that completes it).
///
/// # Panics
/// Every harvesting method panics when called again after one of them
/// has already returned the result — a resolved ticket is spent.
pub struct Ticket<T> {
    state: State<T>,
}

enum State<T> {
    Ready(Result<T, ServeError>),
    /// The assembly, and what the caller receives of its response.
    Pending(Box<EmbedAssembly>, fn(EmbedResponse) -> T),
    Taken,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            State::Ready(_) => "ready",
            State::Pending(..) => "pending",
            State::Taken => "taken",
        };
        f.debug_struct("Ticket").field("state", &state).finish()
    }
}

impl Ticket<EmbedResponse> {
    /// A ticket that harvests `job` on demand.
    pub(crate) fn pending(job: EmbedAssembly) -> Self {
        Ticket { state: State::Pending(Box::new(job), |r| r) }
    }

    /// The same ticket answering only the rows — how `embed_begin`
    /// serves the full-response path without a second code path (or a
    /// second box).
    pub(crate) fn rows(self) -> Ticket<Dense> {
        let state = match self.state {
            State::Ready(r) => State::Ready(r.map(|r| r.rows)),
            State::Pending(job, _) => State::Pending(job, |r| r.rows),
            State::Taken => State::Taken,
        };
        Ticket { state }
    }
}

impl<T> Ticket<T> {
    /// A ticket already resolved at creation (full cache hit, empty
    /// request).
    pub(crate) fn ready(result: Result<T, ServeError>) -> Self {
        Ticket { state: State::Ready(result) }
    }

    /// Non-blocking harvest: `Some(result)` once every piece of the
    /// response has arrived (the ticket is then spent), `None` while
    /// still in flight. Partial progress is kept across calls, so a
    /// poll loop over many tickets does no repeated work. Each call
    /// runs at most one queued batch of each in-process band the
    /// outstanding sources wait on, on the calling thread, so a poll
    /// loop makes bounded progress by itself.
    pub fn poll(&mut self) -> Option<Result<T, ServeError>> {
        match &mut self.state {
            State::Ready(_) => {}
            State::Pending(job, project) => {
                let r = job.try_harvest()?.map(*project);
                self.state = State::Taken;
                return Some(r);
            }
            State::Taken => panic!("ticket already harvested"),
        }
        let State::Ready(r) = std::mem::replace(&mut self.state, State::Taken) else {
            unreachable!()
        };
        Some(r)
    }

    /// Block until the response is complete and return it. In-process
    /// parts still queued are computed on this thread first.
    pub fn wait(mut self) -> Result<T, ServeError> {
        match std::mem::replace(&mut self.state, State::Taken) {
            State::Ready(r) => r,
            State::Pending(mut job, project) => {
                job.harvest(None).expect("no deadline").map(project)
            }
            State::Taken => panic!("ticket already harvested"),
        }
    }

    /// Block until the response is complete or `deadline` passes:
    /// `Some(result)` on completion (the ticket is then spent), `None`
    /// on timeout — the ticket stays live and keeps any partial
    /// progress, so the caller can keep polling or extend the
    /// deadline. Like `wait` it computes queued in-process parts on
    /// this thread, then parks on a condvar; precision does not depend
    /// on any poll cadence. It starts no batch past the deadline, but a
    /// batch it started finishes first.
    pub fn wait_deadline(&mut self, deadline: Instant) -> Option<Result<T, ServeError>> {
        match &mut self.state {
            State::Ready(_) => self.poll(),
            State::Pending(job, project) => {
                let r = job.harvest(Some(deadline))?.map(*project);
                self.state = State::Taken;
                Some(r)
            }
            State::Taken => panic!("ticket already harvested"),
        }
    }

    /// True while the result has not been taken yet (ready or still in
    /// flight).
    pub fn is_live(&self) -> bool {
        !matches!(self.state, State::Taken)
    }

    /// Advance without consuming: true when a `poll` would return
    /// `Some`. False for spent tickets.
    pub(crate) fn ready_now(&mut self) -> bool {
        match &mut self.state {
            State::Ready(_) => true,
            State::Pending(job, _) => job.advance(),
            State::Taken => false,
        }
    }

    /// Register a watcher on every still-pending source of this ticket
    /// (fired immediately when already resolved). Spent tickets ignore
    /// the call.
    pub(crate) fn subscribe(&mut self, watcher: Watcher) {
        match &mut self.state {
            State::Ready(_) => watcher.fire(),
            State::Pending(job, _) => job.subscribe(watcher),
            State::Taken => {}
        }
    }

    /// Add the in-process bands this ticket's outstanding sources wait
    /// on to `out` (once each).
    pub(crate) fn bands(&self, out: &mut Vec<Arc<Band>>) {
        if let State::Pending(job, _) = &self.state {
            job.bands(out);
        }
    }
}

/// What a failed part's one retry re-dispatches through: the transport
/// it went out on, at the same pinned epoch (an Exact retry is
/// bit-identical), tier, deadline and claim — with no cache fills (the
/// originals were aborted) and no span.
pub(crate) struct Redispatch {
    pub transport: Arc<dyn ShardTransport>,
    pub epoch: Arc<FeatureEpoch>,
    pub quality: Quality,
    pub deadline: Option<Instant>,
    /// The blocking caller's claim: its retry is its own to run too.
    pub claim: Option<Claim>,
}

impl Redispatch {
    /// Send `nodes` to `shard` again; the fresh slot's receiver.
    fn send(&self, shard: usize, nodes: &Arc<[usize]>) -> SlotRx {
        let (tx, rx) = slot();
        let part = PartSlot::new(tx, None, None, self.claim);
        self.transport.embed_part(shard, nodes, &self.epoch, self.quality, self.deadline, part);
        rx
    }
}

/// One source of a response's rows: a dispatched sub-request, whose
/// transport will reply one row per entry of `union`, in that order —
/// or a typed [`PartError`] — or a coalesced miss, whose slot another
/// request's fill resolves with the row of its one node.
pub(crate) struct Part {
    /// Sorted, deduplicated nodes this part computes, shared with the
    /// queued part; a coalesced miss's one node.
    union: Arc<[usize]>,
    /// The transport's shard index: where a retry goes, and the member
    /// index in the fan-out histogram.
    tag: usize,
    /// The failing shard reported by `ServeError::PartFailed` (`None`
    /// for a standalone engine's part).
    shard: Option<usize>,
    rx: SlotRx,
    rows: Option<Dense>,
    /// The one-shot retry is unspent: the first `Panicked` reply
    /// re-dispatches through the assembly's [`Redispatch`].
    retry: bool,
}

impl Part {
    pub(crate) fn new(union: Arc<[usize]>, tag: usize, shard: Option<usize>, rx: SlotRx) -> Part {
        Part { union, tag, shard, rx, rows: None, retry: true }
    }

    /// A miss coalesced onto another request's computation of `node`.
    /// It has no retry of its own — the computation is not this
    /// request's to repeat — and no fan-out member, so its `tag` is
    /// never read.
    pub(crate) fn coalesced(node: usize, rx: SlotRx) -> Part {
        Part { union: Arc::new([node]), tag: 0, shard: None, rx, rows: None, retry: false }
    }

    /// The row `node` takes from `run`, resolved sources whose unions
    /// are disjoint and sorted: `None` when no source of it owes `node`.
    fn owed_in(run: &[Part], node: usize) -> Option<&[f32]> {
        let p = run.partition_point(|p| p.union.last().is_some_and(|&last| last < node));
        let part = run.get(p)?;
        let j = part.union.binary_search(&node).ok()?;
        Some(part.rows.as_ref().expect("source resolved").row(j))
    }
}

/// What one advance step over a part's slot decided.
enum PartStep {
    Resolved,
    /// Still in flight — a failed part just re-enqueued on its retry
    /// path included, so the retries a harvest finds share a launch.
    Pending,
    Terminal,
}

/// The embed-request harvest of the one front end: hit rows are
/// pre-filled into `out`, dispatched parts and coalesced rows stream
/// in, and the first call that finds everything present assembles
/// the response in request order — or, when the request's one part
/// computes exactly its ids in order, answers with that part's rows as
/// they are. A typed part failure (failure past its retry,
/// expired deadline, shutdown) resolves the ticket with the
/// corresponding error instead.
pub(crate) struct EmbedAssembly {
    /// The response under assembly, hit rows pre-filled; `None` when
    /// the request adopts its one part's rows.
    out: Option<Dense>,
    /// The sources: `parts[..dispatched]` are this request's own parts,
    /// disjoint sorted unions in shard order; the rest are coalesced
    /// rows, sorted by node. Blocking waits take them in that order, so
    /// a caller runs its own parts before it waits on another's.
    parts: Vec<Part>,
    dispatched: usize,
    /// `(output row, node)` pairs to fill from the sources.
    positions: Vec<(usize, usize)>,
    /// Per-row degradation marks, fixed at begin time by the serving
    /// tier (`Exact` → all false, `TopKNeighbors` → all true).
    degraded: Vec<bool>,
    /// The tier this request is served at.
    quality: Quality,
    /// Where a failed part retries (`None`: its first failure is
    /// terminal).
    retry: Option<Redispatch>,
    /// A terminal error, sticky once set: the next harvest call
    /// resolves it.
    error: Option<ServeError>,
    /// Set by the resolving call (success or error), so `Drop` counts
    /// `abandoned` only for truly unresolved tickets.
    resolved: bool,
    /// Recorded when the assembly resolves: request latency,
    /// reconciliation counters, the sampled root span, gather progress.
    completion: Completion,
    /// `Tracer::now()` at the start of the harvest call currently in
    /// progress — the `Harvest` span's start when that call completes.
    harvest_start_ns: u64,
    /// The last watcher subscribed: a retried part's fresh slot gets it
    /// too, so whoever waits on this assembly hears the retry land.
    watcher: Option<Watcher>,
    /// Holds one unit of the front end's in-flight gauge until the
    /// ticket resolves or is dropped.
    _inflight: GaugeGuard,
}

impl EmbedAssembly {
    /// `out` holds the hit rows and `positions` name the `(output row,
    /// node)` pairs the sources still owe: the request's dispatched
    /// parts, then its `coalesced` rows, in any order, at the end of
    /// `parts`. With `out` `None`, the one part in `parts` owes every
    /// row, in order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        out: Option<Dense>,
        mut parts: Vec<Part>,
        coalesced: usize,
        positions: Vec<(usize, usize)>,
        degraded: Vec<bool>,
        quality: Quality,
        retry: Option<Redispatch>,
        completion: Completion,
        guard: GaugeGuard,
    ) -> Self {
        debug_assert!(out.is_some() || (parts.len() == 1 && coalesced == 0));
        let dispatched = parts.len() - coalesced;
        parts[dispatched..].sort_unstable_by_key(|p| p.union[0]);
        EmbedAssembly {
            out,
            dispatched,
            parts,
            positions,
            degraded,
            quality,
            retry,
            error: None,
            resolved: false,
            completion,
            harvest_start_ns: 0,
            watcher: None,
            _inflight: guard,
        }
    }

    /// Run each part's band on this thread until the part resolves or
    /// `deadline` passes — at least one batch, and only on a band no
    /// other thread combines. `embed_begin` calls this for a request
    /// with a deadline: nothing else need run the band before a late
    /// harvest, and the part would expire queued.
    pub(crate) fn run_ahead(&self, deadline: Instant) {
        let claim = Claim::mine();
        for part in &self.parts[..self.dispatched] {
            let Some(band) = part.rx.band().filter(|_| Instant::now() < deadline) else { continue };
            band.combine(claim, &mut || part.rx.is_resolved() || Instant::now() >= deadline);
        }
    }

    /// Called at the top of every harvest entry point so the
    /// completing call's `Harvest` span covers exactly that call.
    fn note_harvest_start(&mut self) {
        if let Some(tr) = &self.completion.trace {
            self.harvest_start_ns = tr.tracer.now();
        }
    }

    fn store_part(&mut self, i: usize, rows: Dense) {
        if i < self.dispatched {
            self.completion.fanout.record(self.parts[i].tag, self.completion.begun.elapsed());
        }
        self.parts[i].rows = Some(rows);
    }

    /// What a closed slot means: a part's transport shut down; a
    /// coalesced row's owning computation was abandoned (fault-injected
    /// poison, failure or shutdown), and no retry handle exists for
    /// another request's computation.
    fn closed(&self, i: usize) -> ServeError {
        if i < self.dispatched {
            ServeError::EngineShutdown
        } else {
            ServeError::PartFailed { shard: None }
        }
    }

    /// React to a typed part failure: spend the retry (healthy-path
    /// re-dispatch, same pinned epoch) on the first failure, or set the
    /// terminal error.
    fn part_failed(&mut self, i: usize, e: PartError) -> PartStep {
        match e {
            PartError::Expired => {
                self.error = Some(ServeError::DeadlineExpired);
                PartStep::Terminal
            }
            PartError::Panicked => match self.retry.as_ref().filter(|_| self.parts[i].retry) {
                Some(retry) => {
                    let part = &mut self.parts[i];
                    part.retry = false;
                    part.rx = retry.send(part.tag, &part.union);
                    if let Some(w) = &self.watcher {
                        part.rx.subscribe(w.clone());
                    }
                    PartStep::Pending
                }
                None => {
                    self.error = Some(ServeError::PartFailed { shard: self.parts[i].shard });
                    PartStep::Terminal
                }
            },
        }
    }

    /// One non-blocking advance step over part `i`.
    fn step_part(&mut self, i: usize) -> PartStep {
        if self.parts[i].rows.is_some() {
            return PartStep::Resolved;
        }
        match self.parts[i].rx.try_recv() {
            SlotPoll::Reply(Ok(rows)) => {
                self.store_part(i, rows);
                PartStep::Resolved
            }
            SlotPoll::Reply(Err(e)) => self.part_failed(i, e),
            SlotPoll::Pending => PartStep::Pending,
            SlotPoll::Closed => {
                self.error = Some(self.closed(i));
                PartStep::Terminal
            }
        }
    }

    /// Collect every source that has resolved, without blocking or
    /// running any batch. True when the assembly can resolve (complete,
    /// or terminal error).
    fn advance(&mut self) -> bool {
        if self.error.is_some() {
            return true;
        }
        let mut pending = false;
        for i in 0..self.parts.len() {
            match self.step_part(i) {
                PartStep::Resolved => {}
                PartStep::Pending => pending = true,
                PartStep::Terminal => return true,
            }
        }
        !pending
    }

    /// Resolve the assembly: the terminal error, or the completed
    /// response. Only called once `advance` (or a blocking walk)
    /// reported readiness.
    fn resolve(&mut self) -> Result<EmbedResponse, ServeError> {
        self.resolved = true;
        match self.error.take() {
            Some(e) => {
                self.release_claimed_parts();
                self.finish_err(e)
            }
            None => self.complete(),
        }
    }

    /// Let go of the claimed parts still owed and wake whoever parked on
    /// their bands (the coalesced rows' slots go too, unkicked). Called
    /// once the ticket can no longer use them — resolved with an error,
    /// or dropped unresolved: a claimed part still queued is then
    /// anyone's to run, and a request coalesced onto its rows may wait
    /// on them.
    fn release_claimed_parts(&mut self) {
        if self.retry.as_ref().is_none_or(|r| r.claim.is_none()) {
            return;
        }
        let parts = std::mem::take(&mut self.parts).into_iter().take(self.dispatched);
        let owed = parts.filter(|p| p.rows.is_none());
        let bands: Vec<Arc<Band>> = owed.filter_map(|p| p.rx.band()).collect();
        bands.iter().for_each(|band| band.kick());
    }

    /// Resolve with `e`: count `failed` and close the root span.
    fn finish_err(&mut self, e: ServeError) -> Result<EmbedResponse, ServeError> {
        self.completion.stats.fail();
        if let Some(tr) = &self.completion.trace {
            tr.tracer.record(tr.root, SpanKind::Embed, tr.begin_ns, tr.tracer.now(), None, 0);
        }
        Err(e)
    }

    /// The row owed for `node` by a part or a coalesced row. Each run
    /// of sources holds disjoint sorted unions, so both are binary
    /// searches.
    fn owed(&self, node: usize) -> &[f32] {
        let (parts, coalesced) = self.parts.split_at(self.dispatched);
        Part::owed_in(parts, node)
            .or_else(|| Part::owed_in(coalesced, node))
            .expect("every miss position is owed by a source")
    }

    /// Place every outstanding row and finish. Only called once every
    /// source has resolved.
    fn complete(&mut self) -> Result<EmbedResponse, ServeError> {
        let rows = match self.out.take() {
            // The one part computed exactly the requested ids, in order.
            None => self.parts[0].rows.take().expect("part resolved"),
            Some(mut out) => {
                for &(pos, node) in &self.positions {
                    out.row_mut(pos).copy_from_slice(self.owed(node));
                }
                out
            }
        };
        self.completion.latency.record(self.completion.begun.elapsed());
        let degraded = std::mem::take(&mut self.degraded);
        if degraded.iter().any(|&b| b) {
            self.completion.stats.degraded_harvest();
        } else {
            self.completion.stats.harvest();
        }
        if let Some(tr) = &self.completion.trace {
            let now = tr.tracer.now();
            let harvest = tr.tracer.child(tr.root);
            let n = rows.nrows() as u64;
            tr.tracer.record(harvest, SpanKind::Harvest, self.harvest_start_ns, now, None, n);
            tr.tracer.record(tr.root, SpanKind::Embed, tr.begin_ns, now, None, n);
        }
        Ok(EmbedResponse { rows, served_degraded: degraded, quality: self.quality })
    }

    /// Advance without blocking; `Some` when complete.
    fn try_harvest(&mut self) -> Option<Result<EmbedResponse, ServeError>> {
        self.note_harvest_start();
        if !self.advance() {
            // One batch of each band a pending source waits on: a poll
            // loop makes progress by itself, in bounded steps.
            let mut bands = Vec::new();
            self.bands(&mut bands);
            let claim = Claim::mine();
            for band in bands {
                band.combine(claim, &mut || true);
            }
            if !self.advance() {
                return None;
            }
        }
        Some(self.resolve())
    }

    /// Block until complete or `deadline` (`None`: none); `None` on
    /// timeout.
    fn harvest(&mut self, deadline: Option<Instant>) -> Option<Result<EmbedResponse, ServeError>> {
        self.note_harvest_start();
        let mut i = 0;
        while self.error.is_none() && i < self.parts.len() {
            if self.parts[i].rows.is_some() {
                i += 1;
                continue;
            }
            let reply = match deadline {
                Some(deadline) => self.parts[i].rx.recv_deadline(deadline),
                None => self.parts[i].rx.recv().map_or(SlotPoll::Closed, SlotPoll::Reply),
            };
            match reply {
                SlotPoll::Reply(Ok(rows)) => {
                    self.store_part(i, rows);
                    i += 1;
                }
                // A retried part waits again on its fresh slot (`i`
                // unchanged); a terminal failure exits the loop.
                SlotPoll::Reply(Err(e)) => {
                    let _ = self.part_failed(i, e);
                }
                SlotPoll::Pending => return None,
                SlotPoll::Closed => self.error = Some(self.closed(i)),
            }
        }
        Some(self.resolve())
    }

    /// Register a watcher on every still-pending source (fire it
    /// immediately when none remain).
    fn subscribe(&mut self, watcher: Watcher) {
        self.watcher = Some(watcher.clone());
        let mut any_pending = false;
        for p in self.parts.iter().filter(|p| p.rows.is_none()) {
            any_pending = true;
            p.rx.subscribe(watcher.clone());
        }
        if !any_pending {
            watcher.fire();
        }
    }

    /// Add the in-process bands the still-pending sources wait on.
    fn bands(&self, out: &mut Vec<Arc<Band>>) {
        let pending = self.parts.iter().filter(|p| p.rows.is_none());
        for band in pending.filter_map(|p| p.rx.band()) {
            if !out.iter().any(|b| Arc::ptr_eq(b, &band)) {
                out.push(band);
            }
        }
    }
}

impl Drop for EmbedAssembly {
    fn drop(&mut self) {
        if self.resolved {
            return;
        }
        // Never resolved: the ticket was dropped unharvested.
        self.completion.stats.abandoned.fetch_add(1, Ordering::Relaxed);
        // Close the root span anyway so a sampled-then-abandoned
        // request still leaves a rooted (if truncated) tree.
        if let Some(tr) = &self.completion.trace {
            tr.tracer.record(tr.root, SpanKind::Embed, tr.begin_ns, tr.tracer.now(), None, 0);
        }
        self.release_claimed_parts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::{slot, WakeQueue};
    use fusedmm_perf::gauge::Gauge;

    fn guard() -> (Arc<Gauge>, GaugeGuard) {
        let g = Arc::new(Gauge::new());
        let h = g.acquire();
        (g, h)
    }

    fn exact(n: usize) -> Vec<bool> {
        vec![false; n]
    }

    /// A request answered by `part` alone, adopting its rows; a failed
    /// part retries through `retry`, when given.
    fn single(
        part: Part,
        quality: Quality,
        retry: Option<Redispatch>,
        completion: Completion,
        g: GaugeGuard,
    ) -> EmbedAssembly {
        let marks = vec![matches!(quality, Quality::TopKNeighbors(_)); part.union.len()];
        let (parts, positions) = (vec![part], Vec::new());
        EmbedAssembly::assemble(None, parts, 0, positions, marks, quality, retry, completion, g)
    }

    fn part(nodes: &[usize], shard: Option<usize>, rx: SlotRx) -> Part {
        Part::new(nodes.into(), 0, shard, rx)
    }

    fn direct(nodes: &[usize], rx: SlotRx, completion: Completion, g: GaugeGuard) -> EmbedAssembly {
        single(part(nodes, None, rx), Quality::Exact, None, completion, g)
    }

    /// A transport that keeps every part it is sent, for the test to
    /// resolve.
    #[derive(Default)]
    struct Held {
        parts: std::sync::Mutex<Vec<(Vec<usize>, PartSlot)>>,
    }

    impl ShardTransport for Held {
        fn nshards(&self) -> usize {
            1
        }

        fn boundaries(&self) -> Vec<usize> {
            vec![0, usize::MAX]
        }

        fn embed_part(
            &self,
            _shard: usize,
            nodes: &Arc<[usize]>,
            _epoch: &Arc<FeatureEpoch>,
            _quality: Quality,
            _deadline: Option<Instant>,
            slot: PartSlot,
        ) {
            self.parts.lock().unwrap().push((nodes.to_vec(), slot));
        }

        fn score_part(
            &self,
            _shard: usize,
            _pairs: &[(usize, usize)],
            _epoch: &Arc<FeatureEpoch>,
            _slot: PartSlot,
        ) {
            unreachable!("no scoring here")
        }

        fn ship(&self, _record: &crate::remote::EpochRecord) {}
    }

    impl Held {
        /// Resolve the `i`-th part this transport was sent.
        fn resolve(&self, i: usize, outcome: crate::transport::PartOutcome) -> Vec<usize> {
            let mut parts = self.parts.lock().unwrap();
            let (nodes, slot) = parts.remove(i);
            drop(parts);
            slot.resolve(outcome);
            nodes
        }
    }

    fn retry_via(held: &Arc<Held>) -> Redispatch {
        let store = crate::store::FeatureStore::new(Dense::zeros(1, 1), Dense::zeros(1, 1));
        Redispatch {
            transport: Arc::clone(held) as Arc<dyn ShardTransport>,
            epoch: store.snapshot(),
            quality: Quality::Exact,
            deadline: None,
            claim: None,
        }
    }

    #[test]
    fn ready_ticket_resolves_immediately() {
        let mut t = Ticket::ready(Ok(7usize));
        assert!(t.is_live());
        assert!(t.ready_now());
        assert_eq!(t.poll(), Some(Ok(7)));
        assert!(!t.is_live());
        assert!(!t.ready_now());
    }

    #[test]
    #[should_panic(expected = "already harvested")]
    fn double_harvest_panics() {
        let mut t = Ticket::ready(Ok(1usize));
        let _ = t.poll();
        let _ = t.poll();
    }

    #[test]
    fn a_rows_ticket_answers_the_response_rows() {
        let rows = Dense::from_rows(1, 2, &[1.0, 2.0]).unwrap();
        let response = EmbedResponse {
            rows: rows.clone(),
            served_degraded: vec![false],
            quality: Quality::Exact,
        };
        assert_eq!(Ticket::ready(Ok(response)).rows().wait(), Ok(rows.clone()));
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let t = Ticket::pending(direct(&[5], rx, Completion::default(), g)).rows();
        tx.send(Ok(rows.clone()));
        assert_eq!(t.wait(), Ok(rows));
    }

    #[test]
    fn assembly_polls_then_completes() {
        let (gauge, g) = guard();
        let (tx, rx) = slot();
        let mut t = Ticket::pending(direct(&[0, 1], rx, Completion::default(), g));
        assert_eq!(t.poll(), None, "nothing sent yet");
        assert_eq!(gauge.value(), 1);
        let rows = Dense::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        tx.send(Ok(rows.clone()));
        let resp = t.poll().expect("complete").expect("ok");
        assert_eq!(resp.rows, rows);
        assert_eq!(resp.quality, Quality::Exact);
        assert!(!resp.any_degraded());
        assert_eq!(gauge.value(), 0, "resolving releases the in-flight unit");
    }

    #[test]
    fn dropped_ticket_releases_the_gauge() {
        let (gauge, g) = guard();
        let (_tx, rx) = slot();
        let t = Ticket::pending(direct(&[0], rx, Completion::default(), g));
        assert_eq!(gauge.value(), 1);
        drop(t);
        assert_eq!(gauge.value(), 0);
    }

    #[test]
    fn disconnected_dispatcher_is_a_shutdown_error() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        drop(tx);
        let t = Ticket::pending(direct(&[0], rx, Completion::default(), g));
        assert_eq!(t.wait().unwrap_err(), ServeError::EngineShutdown);
    }

    #[test]
    fn wait_deadline_times_out_and_stays_live() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let mut t = Ticket::pending(direct(&[3], rx, Completion::default(), g));
        let soon = Instant::now() + std::time::Duration::from_millis(5);
        assert!(t.wait_deadline(soon).is_none());
        assert!(t.is_live());
        let rows = Dense::from_rows(1, 1, &[9.0]).unwrap();
        tx.send(Ok(rows.clone()));
        let far = Instant::now() + std::time::Duration::from_secs(5);
        assert_eq!(t.wait_deadline(far).unwrap().unwrap().rows, rows);
    }

    #[test]
    fn panicked_part_retries_once_then_fails_terminally() {
        // First failure spends the retry; the retried slot fails again
        // and the ticket resolves PartFailed with the shard id.
        use crate::transport::PartOutcome;
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let held = Arc::new(Held::default());
        let p = part(&[4, 7], Some(2), rx);
        let mut t = Ticket::pending(single(
            p,
            Quality::Exact,
            Some(retry_via(&held)),
            Completion::default(),
            g,
        ));
        assert!(held.parts.lock().unwrap().is_empty(), "no retry is sent before a failure");
        tx.send(Err(PartError::Panicked));
        assert_eq!(t.poll(), None, "retry re-enqueued; fresh slot still pending");
        assert_eq!(held.resolve(0, PartOutcome::Failed), vec![4, 7], "the same nodes again");
        assert_eq!(
            t.poll(),
            Some(Err(ServeError::PartFailed { shard: Some(2) })),
            "second panic is terminal"
        );
        assert!(held.parts.lock().unwrap().is_empty(), "one retry, not two");
    }

    #[test]
    fn panicked_part_recovers_via_retry() {
        use crate::transport::PartOutcome;
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let held = Arc::new(Held::default());
        let stats = Arc::new(RequestStats::default());
        stats.begin();
        let completion = Completion { stats: Arc::clone(&stats), ..Completion::default() };
        let p = part(&[1], Some(0), rx);
        let mut t =
            Ticket::pending(single(p, Quality::Exact, Some(retry_via(&held)), completion, g));
        tx.send(Err(PartError::Panicked));
        assert_eq!(t.poll(), None);
        let rows = Dense::from_rows(1, 1, &[5.0]).unwrap();
        held.resolve(0, PartOutcome::Rows(rows.clone()));
        let resp = t.wait().expect("retry healed the request");
        assert_eq!(resp.rows, rows);
        assert_eq!(stats.harvested.load(Ordering::Relaxed), 1, "a healed request harvests");
        assert_eq!(stats.failed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn expired_part_fails_with_deadline_expired() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let stats = Arc::new(RequestStats::default());
        stats.begin();
        let completion = Completion { stats: Arc::clone(&stats), ..Completion::default() };
        let t = Ticket::pending(direct(&[0], rx, completion, g));
        tx.send(Err(PartError::Expired));
        assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExpired);
        assert_eq!(stats.failed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.abandoned.load(Ordering::Relaxed), 0, "failed is not abandoned");
    }

    #[test]
    fn assembly_scatters_parts_and_coalesced_rows_in_request_order() {
        let (_gauge, g) = guard();
        // Request order: [8 (coalesced), 2 (part), 8 (dup), 5 (hit)].
        let mut out = Dense::zeros(4, 1);
        out.row_mut(3).copy_from_slice(&[55.0]);
        let (tx, rx) = slot();
        let (row_tx, row_rx) = slot();
        let mut t = Ticket::pending(EmbedAssembly::assemble(
            Some(out),
            vec![part(&[2], None, rx), Part::coalesced(8, row_rx)],
            1,
            vec![(0, 8), (1, 2), (2, 8)],
            exact(4),
            Quality::Exact,
            None,
            Completion::default(),
            g,
        ));
        assert_eq!(t.poll(), None);
        tx.send(Ok(Dense::from_rows(1, 1, &[22.0]).unwrap()));
        assert_eq!(t.poll(), None, "coalesced row still outstanding; part progress kept");
        row_tx.send(Ok(Dense::from_rows(1, 1, &[88.0]).unwrap()));
        let z = t.poll().expect("complete").expect("ok");
        assert_eq!(z.rows.as_slice(), &[88.0, 22.0, 88.0, 55.0]);
    }

    #[test]
    fn aborted_coalesced_fill_fails_the_ticket() {
        use fusedmm_cache::{CacheConfig, ResultCache};
        let (_gauge, g) = guard();
        let cache = ResultCache::new(16, 1, CacheConfig::default());
        let mut out = [0.0];
        let owners = cache.route(&[3], 0, &mut out, Some(&mut |_| unreachable!())).owners;
        let (tx, rx) = slot();
        let mut tx = Some(tx);
        let waiter = cache.route(&[3], 0, &mut out, Some(&mut |_| tx.take().expect("one waiter")));
        assert!(waiter.owners.is_empty(), "waiter");
        let t = Ticket::pending(EmbedAssembly::assemble(
            Some(Dense::zeros(1, 1)),
            vec![Part::coalesced(3, rx)],
            1,
            vec![(0, 3)],
            exact(1),
            Quality::Exact,
            None,
            Completion::default(),
            g,
        ));
        drop(cache.resolve(owners, |_| None));
        assert_eq!(t.wait().unwrap_err(), ServeError::PartFailed { shard: None });
    }

    #[test]
    fn completion_reconciles_every_outcome_bucket() {
        let stats = Arc::new(RequestStats::default());
        // Harvested: the band answers and the ticket is waited.
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        stats.begin();
        let completion = Completion { stats: Arc::clone(&stats), ..Completion::default() };
        let t = Ticket::pending(direct(&[0], rx, completion, g));
        tx.send(Ok(Dense::from_rows(1, 1, &[1.0]).unwrap()));
        t.wait().unwrap();
        // Abandoned: the ticket is dropped before any answer.
        let (_gauge2, g2) = guard();
        let (_tx2, rx2) = slot();
        stats.begin();
        let completion = Completion { stats: Arc::clone(&stats), ..Completion::default() };
        drop(Ticket::pending(direct(&[1], rx2, completion, g2)));
        // Ready at creation.
        stats.ready();
        // Shed at admission.
        stats.shed();
        // Failed: expired before the kernel ran.
        let (_gauge3, g3) = guard();
        let (tx3, rx3) = slot();
        stats.begin();
        let completion = Completion { stats: Arc::clone(&stats), ..Completion::default() };
        let t = Ticket::pending(direct(&[2], rx3, completion, g3));
        tx3.send(Err(PartError::Expired));
        assert!(t.wait().is_err());
        // Degraded at creation (CachedOnly with misses).
        stats.ready_degraded();
        let begun = stats.begun.load(Ordering::Relaxed);
        let harvested = stats.harvested.load(Ordering::Relaxed);
        let degraded = stats.degraded.load(Ordering::Relaxed);
        let shed = stats.shed.load(Ordering::Relaxed);
        let failed = stats.failed.load(Ordering::Relaxed);
        let abandoned = stats.abandoned.load(Ordering::Relaxed);
        assert_eq!((begun, harvested, degraded, shed, failed, abandoned), (6, 2, 1, 1, 1, 1));
        assert_eq!(begun, harvested + degraded + shed + failed + abandoned);
    }

    #[test]
    fn degraded_marks_route_to_the_degraded_bucket() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let stats = Arc::new(RequestStats::default());
        stats.begin();
        let completion = Completion { stats: Arc::clone(&stats), ..Completion::default() };
        let p = part(&[0, 1], None, rx);
        let t = Ticket::pending(single(p, Quality::TopKNeighbors(2), None, completion, g));
        tx.send(Ok(Dense::from_rows(2, 1, &[1.0, 2.0]).unwrap()));
        let resp = t.wait().unwrap();
        assert_eq!(resp.quality, Quality::TopKNeighbors(2));
        assert_eq!(resp.degraded_rows(), vec![0, 1]);
        assert_eq!(stats.degraded.load(Ordering::Relaxed), 1);
        assert_eq!(stats.harvested.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn subscribe_wakes_on_the_last_outstanding_source() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let mut t = Ticket::pending(direct(&[0], rx, Completion::default(), g));
        let wake = WakeQueue::new();
        t.subscribe(Watcher::Ready(Arc::downgrade(&wake), 4));
        assert_eq!(wake.try_pop(), None);
        assert!(!t.ready_now());
        tx.send(Ok(Dense::from_rows(1, 1, &[3.0]).unwrap()));
        assert_eq!(wake.try_pop(), Some(4), "source resolution fired the watcher");
        assert!(t.ready_now());
        assert!(t.poll().unwrap().is_ok());
    }

    #[test]
    fn resolving_a_traced_assembly_closes_the_root_and_harvest_spans() {
        let tracer = Tracer::new(1.0, 64);
        let root = tracer.sample_root().unwrap();
        let begin_ns = tracer.now();
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let completion = Completion {
            trace: Some(TraceHandle { tracer: Arc::clone(&tracer), root, begin_ns }),
            ..Completion::default()
        };
        let t = Ticket::pending(direct(&[0, 1], rx, completion, g));
        tx.send(Ok(Dense::from_rows(2, 1, &[1.0, 2.0]).unwrap()));
        t.wait().unwrap();
        let spans = tracer.spans();
        let embed = spans.iter().find(|s| s.kind == SpanKind::Embed).expect("root closed");
        let harvest = spans.iter().find(|s| s.kind == SpanKind::Harvest).expect("harvest span");
        assert_eq!(embed.parent, 0);
        assert_eq!(harvest.parent, embed.span);
        assert_eq!(harvest.trace, embed.trace);
        assert_eq!(embed.rows, 2);
        assert!(embed.start_ns <= harvest.start_ns && harvest.end_ns <= embed.end_ns);
    }
}
