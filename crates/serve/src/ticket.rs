//! Completion tokens for the non-blocking serving API.
//!
//! [`FrontEnd::embed_begin`](crate::FrontEnd::embed_begin) — what every
//! engine type answers — returns a [`Ticket`] instead of blocking: the
//! caller can launch N requests, do other work, and harvest completions
//! with [`Ticket::poll`] (non-blocking), [`Ticket::wait`] (blocking), or
//! [`Ticket::wait_deadline`] (bounded blocking) — or park on a whole
//! window at once with [`wait_any`](crate::wait_any). There is no
//! executor and no extra thread — a ticket is condvar machinery lifted
//! into an object: whoever computes a part (a band's dispatcher, a
//! socket reader, or, for a coalesced miss, the owning request's
//! computation) resolves a one-shot slot, and harvesting just drains
//! them. Tickets gather lazily: `embed_begin` dispatches every part
//! immediately, but nothing blocks until the first `poll`/`wait`.
//!
//! The blocking `embed` call is implemented as
//! `embed_begin(..)?.wait()`, so ticketed and blocking serving are the
//! same code path — bit-identical by construction.
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

use fusedmm_cache::RowWaiter;
use fusedmm_perf::gauge::GaugeGuard;
use fusedmm_perf::hist::{HistogramVec, LatencyHistogram};
use fusedmm_perf::trace::{SpanCtx, SpanKind, Tracer};
use fusedmm_sparse::dense::Dense;

use crate::engine::ServeError;
use crate::wait::{PartError, SlotPoll, SlotRx, Watcher};

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
    pub latency: Option<Arc<LatencyHistogram>>,
    /// The front end's reconciliation counters.
    pub stats: Option<Arc<RequestStats>>,
    /// The sampled root span, when this request was admitted.
    pub trace: Option<TraceHandle>,
    /// Gather progress: member `parts[i].tag` records when that part's
    /// rows arrive.
    pub fanout: Option<Arc<HistogramVec>>,
    /// When the request began.
    pub begun: Instant,
}

impl Default for Completion {
    fn default() -> Self {
        Completion { latency: None, stats: None, trace: None, fanout: None, begun: Instant::now() }
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
    Pending(Box<dyn Harvest<T> + Send>),
    Taken,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            State::Ready(_) => "ready",
            State::Pending(_) => "pending",
            State::Taken => "taken",
        };
        f.debug_struct("Ticket").field("state", &state).finish()
    }
}

impl<T> Ticket<T> {
    /// A ticket already resolved at creation (full cache hit, empty
    /// request).
    pub(crate) fn ready(result: Result<T, ServeError>) -> Self {
        Ticket { state: State::Ready(result) }
    }

    /// A ticket that harvests `job` on demand.
    pub(crate) fn pending(job: impl Harvest<T> + Send + 'static) -> Self {
        Ticket { state: State::Pending(Box::new(job)) }
    }

    /// Non-blocking harvest: `Some(result)` once every piece of the
    /// response has arrived (the ticket is then spent), `None` while
    /// still in flight. Partial progress is kept across calls, so a
    /// poll loop over many tickets does no repeated work.
    pub fn poll(&mut self) -> Option<Result<T, ServeError>> {
        match &mut self.state {
            State::Ready(_) => {
                let State::Ready(r) = std::mem::replace(&mut self.state, State::Taken) else {
                    unreachable!()
                };
                Some(r)
            }
            State::Pending(job) => match job.try_harvest() {
                Some(r) => {
                    self.state = State::Taken;
                    Some(r)
                }
                None => None,
            },
            State::Taken => panic!("ticket already harvested"),
        }
    }

    /// Block until the response is complete and return it.
    pub fn wait(mut self) -> Result<T, ServeError> {
        match std::mem::replace(&mut self.state, State::Taken) {
            State::Ready(r) => r,
            State::Pending(mut job) => job.harvest(),
            State::Taken => panic!("ticket already harvested"),
        }
    }

    /// Block until the response is complete or `deadline` passes:
    /// `Some(result)` on completion (the ticket is then spent), `None`
    /// on timeout — the ticket stays live and keeps any partial
    /// progress, so the caller can keep polling or extend the
    /// deadline. The wait parks on condvars; precision does not depend
    /// on any poll cadence.
    pub fn wait_deadline(&mut self, deadline: Instant) -> Option<Result<T, ServeError>> {
        match &mut self.state {
            State::Ready(_) => self.poll(),
            State::Pending(job) => match job.harvest_deadline(deadline) {
                Some(r) => {
                    self.state = State::Taken;
                    Some(r)
                }
                None => None,
            },
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
            State::Pending(job) => job.ready(),
            State::Taken => false,
        }
    }

    /// Register a wakeup callback on every still-pending source of
    /// this ticket (fired immediately when already resolved). Spent
    /// tickets ignore the call.
    pub(crate) fn subscribe(&mut self, watcher: Watcher) {
        match &mut self.state {
            State::Ready(_) => watcher(),
            State::Pending(job) => job.subscribe(watcher),
            State::Taken => {}
        }
    }

    /// Transform the success value when the ticket resolves, keeping
    /// the state machine (and its wakeup plumbing) intact — how
    /// `embed_begin` derives a bare-`Dense` ticket from the
    /// full-response path without a second code path.
    pub(crate) fn map<U: 'static>(self, f: impl FnOnce(T) -> U + Send + 'static) -> Ticket<U>
    where
        T: 'static,
    {
        match self.state {
            State::Ready(r) => Ticket::ready(r.map(f)),
            State::Pending(job) => Ticket::pending(MapHarvest { inner: job, f: Some(f) }),
            State::Taken => Ticket { state: State::Taken },
        }
    }
}

/// The harvesting strategy behind a pending [`Ticket`].
pub(crate) trait Harvest<T> {
    /// Advance without blocking; `Some` when complete.
    fn try_harvest(&mut self) -> Option<Result<T, ServeError>>;
    /// Block to completion.
    fn harvest(&mut self) -> Result<T, ServeError>;
    /// Block until complete or `deadline`; `None` on timeout.
    fn harvest_deadline(&mut self, deadline: Instant) -> Option<Result<T, ServeError>>;
    /// Advance without consuming; true when `try_harvest` would return
    /// `Some`.
    fn ready(&mut self) -> bool;
    /// Register a wakeup callback on every still-pending source (fire
    /// immediately when none remain).
    fn subscribe(&mut self, watcher: Watcher);
}

/// [`Ticket::map`]'s harvest adapter: forwards the state machine and
/// applies `f` to the success value exactly once, at resolution.
struct MapHarvest<T, U, F: FnOnce(T) -> U> {
    inner: Box<dyn Harvest<T> + Send>,
    f: Option<F>,
}

impl<T, U, F: FnOnce(T) -> U> MapHarvest<T, U, F> {
    fn apply(&mut self, r: Result<T, ServeError>) -> Result<U, ServeError> {
        let f = self.f.take().expect("a map resolves once");
        r.map(f)
    }
}

impl<T, U, F: FnOnce(T) -> U> Harvest<U> for MapHarvest<T, U, F> {
    fn try_harvest(&mut self) -> Option<Result<U, ServeError>> {
        let r = self.inner.try_harvest()?;
        Some(self.apply(r))
    }

    fn harvest(&mut self) -> Result<U, ServeError> {
        let r = self.inner.harvest();
        self.apply(r)
    }

    fn harvest_deadline(&mut self, deadline: Instant) -> Option<Result<U, ServeError>> {
        let r = self.inner.harvest_deadline(deadline)?;
        Some(self.apply(r))
    }

    fn ready(&mut self) -> bool {
        self.inner.ready()
    }

    fn subscribe(&mut self, watcher: Watcher) {
        self.inner.subscribe(watcher)
    }
}

/// The healthy-path re-dispatch a part falls back to when its original
/// computation failed: same nodes, same pinned epoch (an Exact retry is
/// bit-identical), no cache fills (the originals were aborted).
pub(crate) type PartRetry = Box<dyn FnOnce(&[usize]) -> SlotRx + Send>;

/// One dispatched sub-request: the transport will reply one row per
/// entry of `union`, in that order — or a typed [`PartError`].
pub(crate) struct Part {
    /// Sorted, deduplicated nodes this part computes.
    union: Vec<usize>,
    /// Member index in the fan-out histogram (the shard index).
    tag: usize,
    /// The failing shard reported by `ServeError::PartFailed` (`None`
    /// for a standalone engine's part).
    shard: Option<usize>,
    rx: SlotRx,
    rows: Option<Dense>,
    /// One-shot healthy-path retry, consumed on the first `Panicked`
    /// reply. `None` (or consumed) means the next failure is terminal.
    retry: Option<PartRetry>,
}

impl Part {
    pub(crate) fn with_retry(
        union: Vec<usize>,
        tag: usize,
        shard: Option<usize>,
        rx: SlotRx,
        retry: Option<PartRetry>,
    ) -> Part {
        Part { union, tag, shard, rx, rows: None, retry }
    }
}

/// One miss served without a dispatch from this request: either a
/// coalesced miss (another request's computation will back-fill the
/// row for `node`) or a row that was already resolved at begin time (a
/// concurrent fill landed between lookup and routing).
pub(crate) struct WaiterSlot {
    node: usize,
    /// `None` when the slot was resolved at construction.
    waiter: Option<RowWaiter>,
    row: Option<Box<[f32]>>,
}

impl WaiterSlot {
    pub(crate) fn new(node: usize, waiter: RowWaiter) -> WaiterSlot {
        WaiterSlot { node, waiter: Some(waiter), row: None }
    }

    /// A slot whose row is already known (a `MissRoute::Resident`).
    pub(crate) fn resolved(node: usize, row: Box<[f32]>) -> WaiterSlot {
        WaiterSlot { node, waiter: None, row: Some(row) }
    }

    fn pending(&self) -> Option<&RowWaiter> {
        match &self.row {
            Some(_) => None,
            None => Some(self.waiter.as_ref().expect("unresolved slot has a waiter")),
        }
    }
}

/// What one advance step over a part's slot decided.
enum PartStep {
    Resolved,
    Pending,
    /// A failed part was re-enqueued on its retry path; poll the fresh
    /// slot.
    Retried,
    Terminal,
}

/// The embed-request harvest of the one front end: hit rows are
/// pre-filled into `out`, dispatched parts and coalesced waiters
/// stream in, and the first call that finds everything present
/// assembles the response in request order. A typed part failure
/// (failure past its retry, expired deadline, shutdown) resolves the
/// ticket with the corresponding error instead.
pub(crate) struct EmbedAssembly {
    /// Pre-filled output; taken by the resolving call (success or
    /// error), so `Drop` counts `abandoned` only for truly unresolved
    /// tickets.
    out: Option<Dense>,
    parts: Vec<Part>,
    waiters: Vec<WaiterSlot>,
    /// `(output row, node)` pairs to fill from parts/waiters.
    positions: Vec<(usize, usize)>,
    /// Per-row degradation marks, fixed at begin time by the serving
    /// tier (`Exact` → all false, `TopKNeighbors` → all true).
    degraded: Vec<bool>,
    /// The tier this request is served at.
    quality: Quality,
    /// A terminal error, sticky once set: the next harvest call
    /// resolves it.
    error: Option<ServeError>,
    /// Recorded when the assembly resolves: request latency,
    /// reconciliation counters, the sampled root span, gather progress.
    completion: Completion,
    /// `Tracer::now()` at the start of the harvest call currently in
    /// progress — the `Harvest` span's start when that call completes.
    harvest_start_ns: u64,
    /// Holds one unit of the front end's in-flight gauge until the
    /// ticket resolves or is dropped.
    _inflight: GaugeGuard,
}

impl EmbedAssembly {
    /// `out` holds the hit rows, `positions` name the `(output row,
    /// node)` pairs parts and waiters still owe.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        out: Dense,
        parts: Vec<Part>,
        waiters: Vec<WaiterSlot>,
        positions: Vec<(usize, usize)>,
        degraded: Vec<bool>,
        quality: Quality,
        completion: Completion,
        guard: GaugeGuard,
    ) -> Self {
        EmbedAssembly {
            out: Some(out),
            parts,
            waiters,
            positions,
            degraded,
            quality,
            error: None,
            completion,
            harvest_start_ns: 0,
            _inflight: guard,
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
        if let Some(fanout) = &self.completion.fanout {
            fanout.record(self.parts[i].tag, self.completion.begun.elapsed());
        }
        self.parts[i].rows = Some(rows);
    }

    /// React to a typed part failure: consume the retry (healthy-path
    /// re-dispatch, same pinned epoch) on the first failure, or set the
    /// terminal error.
    fn part_failed(&mut self, i: usize, e: PartError) -> PartStep {
        match e {
            PartError::Expired => {
                self.error = Some(ServeError::DeadlineExpired);
                PartStep::Terminal
            }
            PartError::Panicked => match self.parts[i].retry.take() {
                Some(retry) => {
                    self.parts[i].rx = retry(&self.parts[i].union);
                    PartStep::Retried
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
                self.error = Some(ServeError::EngineShutdown);
                PartStep::Terminal
            }
        }
    }

    /// Drive every source forward without blocking. True when the
    /// assembly can resolve (complete, or terminal error).
    fn advance(&mut self) -> bool {
        if self.error.is_some() {
            return true;
        }
        let mut pending = false;
        for i in 0..self.parts.len() {
            loop {
                match self.step_part(i) {
                    PartStep::Resolved => break,
                    PartStep::Pending => {
                        pending = true;
                        break;
                    }
                    PartStep::Retried => continue,
                    PartStep::Terminal => return true,
                }
            }
        }
        for w in &mut self.waiters {
            let Some(waiter) = w.pending() else { continue };
            match waiter.poll() {
                Some(Ok(row)) => w.row = Some(row),
                Some(Err(_)) => {
                    // A coalesced fill was aborted under this request:
                    // the owning computation died (fault-injected
                    // poison, or shutdown). No retry handle exists for
                    // foreign computations — fail the ticket.
                    self.error = Some(ServeError::PartFailed { shard: None });
                    return true;
                }
                None => pending = true,
            }
        }
        !pending
    }

    /// Resolve the assembly: the terminal error, or the completed
    /// response. Only called once `advance` (or a blocking walk)
    /// reported readiness.
    fn resolve(&mut self) -> Result<EmbedResponse, ServeError> {
        match self.error.take() {
            Some(e) => self.finish_err(e),
            None => self.complete(),
        }
    }

    /// Resolve with `e`: count `failed`, close the root span, and take
    /// `out` so `Drop` does not also count `abandoned`.
    fn finish_err(&mut self, e: ServeError) -> Result<EmbedResponse, ServeError> {
        self.out = None;
        if let Some(stats) = &self.completion.stats {
            stats.fail();
        }
        if let Some(tr) = &self.completion.trace {
            tr.tracer.record(tr.root, SpanKind::Embed, tr.begin_ns, tr.tracer.now(), None, 0);
        }
        Err(e)
    }

    /// Copy every outstanding row into `out` and finish. Only called
    /// once all parts and waiters have resolved.
    fn complete(&mut self) -> Result<EmbedResponse, ServeError> {
        let mut out = self.out.take().expect("assembly completes once");
        // One index over every owed row, then one pass over the
        // positions — assembly stays linear even when a request fully
        // coalesced into hundreds of waiter slots.
        let mut by_node: std::collections::HashMap<usize, &[f32]> =
            std::collections::HashMap::new();
        for p in &self.parts {
            let rows = p.rows.as_ref().expect("part resolved");
            for (j, &u) in p.union.iter().enumerate() {
                by_node.insert(u, rows.row(j));
            }
        }
        for w in &self.waiters {
            by_node.insert(w.node, w.row.as_ref().expect("waiter resolved"));
        }
        for &(pos, node) in &self.positions {
            let row =
                by_node.get(&node).expect("every miss position is owed by a part or a waiter");
            out.row_mut(pos).copy_from_slice(row);
        }
        if let Some(hist) = &self.completion.latency {
            hist.record(self.completion.begun.elapsed());
        }
        let degraded = std::mem::take(&mut self.degraded);
        if let Some(stats) = &self.completion.stats {
            if degraded.iter().any(|&b| b) {
                stats.degraded_harvest();
            } else {
                stats.harvest();
            }
        }
        if let Some(tr) = &self.completion.trace {
            let now = tr.tracer.now();
            let harvest = tr.tracer.child(tr.root);
            tr.tracer.record(
                harvest,
                SpanKind::Harvest,
                self.harvest_start_ns,
                now,
                None,
                out.nrows() as u64,
            );
            tr.tracer.record(tr.root, SpanKind::Embed, tr.begin_ns, now, None, out.nrows() as u64);
        }
        Ok(EmbedResponse { rows: out, served_degraded: degraded, quality: self.quality })
    }
}

impl Drop for EmbedAssembly {
    fn drop(&mut self) {
        // `resolve` takes `out` (on success *and* on error); if it is
        // still here the ticket never resolved — dropped unharvested.
        if self.out.is_none() {
            return;
        }
        if let Some(stats) = &self.completion.stats {
            stats.abandoned.fetch_add(1, Ordering::Relaxed);
        }
        // Close the root span anyway so a sampled-then-abandoned
        // request still leaves a rooted (if truncated) tree.
        if let Some(tr) = &self.completion.trace {
            tr.tracer.record(tr.root, SpanKind::Embed, tr.begin_ns, tr.tracer.now(), None, 0);
        }
    }
}

impl Harvest<EmbedResponse> for EmbedAssembly {
    fn try_harvest(&mut self) -> Option<Result<EmbedResponse, ServeError>> {
        self.note_harvest_start();
        if self.advance() {
            return Some(self.resolve());
        }
        None
    }

    fn harvest(&mut self) -> Result<EmbedResponse, ServeError> {
        self.note_harvest_start();
        let mut i = 0;
        while self.error.is_none() && i < self.parts.len() {
            if self.parts[i].rows.is_some() {
                i += 1;
                continue;
            }
            match self.parts[i].rx.recv() {
                Some(Ok(rows)) => {
                    self.store_part(i, rows);
                    i += 1;
                }
                // A retried part re-blocks on its fresh slot (`i`
                // unchanged); a terminal failure exits the loop.
                Some(Err(e)) => {
                    let _ = self.part_failed(i, e);
                }
                None => self.error = Some(ServeError::EngineShutdown),
            }
        }
        if self.error.is_none() {
            for w in &mut self.waiters {
                let Some(waiter) = w.pending() else { continue };
                match waiter.wait() {
                    Ok(row) => w.row = Some(row),
                    Err(_) => {
                        self.error = Some(ServeError::PartFailed { shard: None });
                        break;
                    }
                }
            }
        }
        self.resolve()
    }

    fn harvest_deadline(&mut self, deadline: Instant) -> Option<Result<EmbedResponse, ServeError>> {
        self.note_harvest_start();
        let mut i = 0;
        while self.error.is_none() && i < self.parts.len() {
            if self.parts[i].rows.is_some() {
                i += 1;
                continue;
            }
            match self.parts[i].rx.recv_deadline(deadline) {
                SlotPoll::Reply(Ok(rows)) => {
                    self.store_part(i, rows);
                    i += 1;
                }
                SlotPoll::Reply(Err(e)) => {
                    let _ = self.part_failed(i, e);
                }
                SlotPoll::Pending => return None,
                SlotPoll::Closed => self.error = Some(ServeError::EngineShutdown),
            }
        }
        if self.error.is_none() {
            for w in &mut self.waiters {
                let Some(waiter) = w.pending() else { continue };
                match waiter.wait_deadline(deadline) {
                    Some(Ok(row)) => w.row = Some(row),
                    Some(Err(_)) => {
                        self.error = Some(ServeError::PartFailed { shard: None });
                        break;
                    }
                    None => return None,
                }
            }
        }
        Some(self.resolve())
    }

    fn ready(&mut self) -> bool {
        self.advance()
    }

    fn subscribe(&mut self, watcher: Watcher) {
        let mut any_pending = false;
        for p in &self.parts {
            if p.rows.is_none() {
                any_pending = true;
                p.rx.subscribe(watcher.clone());
            }
        }
        for w in &self.waiters {
            if let Some(waiter) = w.pending() {
                any_pending = true;
                waiter.subscribe(watcher.clone());
            }
        }
        if !any_pending {
            watcher();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::slot;
    use fusedmm_perf::gauge::Gauge;

    fn guard() -> (Arc<Gauge>, GaugeGuard) {
        let g = Arc::new(Gauge::new());
        let h = g.acquire();
        (g, h)
    }

    fn exact(n: usize) -> Vec<bool> {
        vec![false; n]
    }

    /// A request answered by `part` alone: its nodes, in order, `d`
    /// columns wide.
    fn single(
        part: Part,
        d: usize,
        quality: Quality,
        completion: Completion,
        g: GaugeGuard,
    ) -> EmbedAssembly {
        let n = part.union.len();
        let positions = part.union.iter().copied().enumerate().collect();
        let marks = vec![matches!(quality, Quality::TopKNeighbors(_)); n];
        let out = Dense::zeros(n, d);
        EmbedAssembly::assemble(
            out,
            vec![part],
            Vec::new(),
            positions,
            marks,
            quality,
            completion,
            g,
        )
    }

    fn direct(
        nodes: Vec<usize>,
        d: usize,
        rx: SlotRx,
        completion: Completion,
        g: GaugeGuard,
    ) -> EmbedAssembly {
        single(Part::with_retry(nodes, 0, None, rx, None), d, Quality::Exact, completion, g)
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
    fn mapped_ticket_transforms_the_result() {
        let t = Ticket::ready(Ok(21usize)).map(|v| v * 2);
        assert_eq!(t.wait(), Ok(42));
    }

    #[test]
    fn assembly_polls_then_completes() {
        let (gauge, g) = guard();
        let (tx, rx) = slot();
        let mut t = Ticket::pending(direct(vec![0, 1], 2, rx, Completion::default(), g));
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
        let t = Ticket::pending(direct(vec![0], 1, rx, Completion::default(), g));
        assert_eq!(gauge.value(), 1);
        drop(t);
        assert_eq!(gauge.value(), 0);
    }

    #[test]
    fn disconnected_dispatcher_is_a_shutdown_error() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        drop(tx);
        let t = Ticket::pending(direct(vec![0], 1, rx, Completion::default(), g));
        assert_eq!(t.wait().unwrap_err(), ServeError::EngineShutdown);
    }

    #[test]
    fn wait_deadline_times_out_and_stays_live() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let mut t = Ticket::pending(direct(vec![3], 1, rx, Completion::default(), g));
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
        // First failure consumes the retry; the retried slot fails
        // again and the ticket resolves PartFailed with the shard id.
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let (retry_tx, retry_rx) = slot();
        let retry_slot = std::sync::Mutex::new(Some(retry_rx));
        let retried = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let retried_in = Arc::clone(&retried);
        let retry: PartRetry = Box::new(move |nodes: &[usize]| {
            assert_eq!(nodes, &[4, 7]);
            retried_in.fetch_add(1, Ordering::SeqCst);
            retry_slot.lock().unwrap().take().expect("retry used once")
        });
        let part = Part::with_retry(vec![4, 7], 0, Some(2), rx, Some(retry));
        let mut t = Ticket::pending(single(part, 1, Quality::Exact, Completion::default(), g));
        tx.send(Err(PartError::Panicked));
        assert_eq!(t.poll(), None, "retry re-enqueued; fresh slot still pending");
        assert_eq!(retried.load(Ordering::SeqCst), 1);
        retry_tx.send(Err(PartError::Panicked));
        assert_eq!(
            t.poll(),
            Some(Err(ServeError::PartFailed { shard: Some(2) })),
            "second panic is terminal"
        );
    }

    #[test]
    fn panicked_part_recovers_via_retry() {
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let (retry_tx, retry_rx) = slot();
        let retry_slot = std::sync::Mutex::new(Some(retry_rx));
        let retry: PartRetry =
            Box::new(move |_: &[usize]| retry_slot.lock().unwrap().take().unwrap());
        let part = Part::with_retry(vec![1], 0, Some(0), rx, Some(retry));
        let stats = Arc::new(RequestStats::default());
        stats.begin();
        let completion = Completion { stats: Some(Arc::clone(&stats)), ..Completion::default() };
        let t = Ticket::pending(single(part, 1, Quality::Exact, completion, g));
        tx.send(Err(PartError::Panicked));
        let rows = Dense::from_rows(1, 1, &[5.0]).unwrap();
        retry_tx.send(Ok(rows.clone()));
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
        let completion = Completion { stats: Some(Arc::clone(&stats)), ..Completion::default() };
        let t = Ticket::pending(direct(vec![0], 1, rx, completion, g));
        tx.send(Err(PartError::Expired));
        assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExpired);
        assert_eq!(stats.failed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.abandoned.load(Ordering::Relaxed), 0, "failed is not abandoned");
    }

    #[test]
    fn assembly_scatters_parts_and_waiters_in_request_order() {
        use fusedmm_cache::{CacheConfig, MissRoute, ResultCache};
        let (_gauge, g) = guard();
        // Request order: [8 (waiter), 2 (part), 8 (dup), 5 (hit)].
        let mut out = Dense::zeros(4, 1);
        out.row_mut(3).copy_from_slice(&[55.0]);
        let cache = ResultCache::new(16, 1, CacheConfig::default());
        let MissRoute::Owner(owner) = cache.route_miss(8, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = cache.route_miss(8, 0) else { panic!("waiter") };
        let (tx, rx) = slot();
        let mut t = Ticket::pending(EmbedAssembly::assemble(
            out,
            vec![Part::with_retry(vec![2], 0, None, rx, None)],
            vec![WaiterSlot::new(8, w)],
            vec![(0, 8), (1, 2), (2, 8)],
            exact(4),
            Quality::Exact,
            Completion::default(),
            g,
        ));
        assert_eq!(t.poll(), None);
        tx.send(Ok(Dense::from_rows(1, 1, &[22.0]).unwrap()));
        assert_eq!(t.poll(), None, "waiter still outstanding; part progress kept");
        cache.fill(owner, &[88.0]);
        let z = t.poll().expect("complete").expect("ok");
        assert_eq!(z.rows.as_slice(), &[88.0, 22.0, 88.0, 55.0]);
    }

    #[test]
    fn aborted_coalesced_fill_fails_the_ticket() {
        use fusedmm_cache::{CacheConfig, MissRoute, ResultCache};
        let (_gauge, g) = guard();
        let cache = ResultCache::new(16, 1, CacheConfig::default());
        let MissRoute::Owner(owner) = cache.route_miss(3, 0) else { panic!("owner") };
        let MissRoute::Waiter(w) = cache.route_miss(3, 0) else { panic!("waiter") };
        let t = Ticket::pending(EmbedAssembly::assemble(
            Dense::zeros(1, 1),
            Vec::new(),
            vec![WaiterSlot::new(3, w)],
            vec![(0, 3)],
            exact(1),
            Quality::Exact,
            Completion::default(),
            g,
        ));
        cache.abort(owner);
        assert_eq!(t.wait().unwrap_err(), ServeError::PartFailed { shard: None });
    }

    #[test]
    fn completion_reconciles_every_outcome_bucket() {
        let stats = Arc::new(RequestStats::default());
        // Harvested: the dispatcher answers and the ticket is waited.
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        stats.begin();
        let completion = Completion { stats: Some(Arc::clone(&stats)), ..Completion::default() };
        let t = Ticket::pending(direct(vec![0], 1, rx, completion, g));
        tx.send(Ok(Dense::from_rows(1, 1, &[1.0]).unwrap()));
        t.wait().unwrap();
        // Abandoned: the ticket is dropped before any answer.
        let (_gauge2, g2) = guard();
        let (_tx2, rx2) = slot();
        stats.begin();
        let completion = Completion { stats: Some(Arc::clone(&stats)), ..Completion::default() };
        drop(Ticket::pending(direct(vec![1], 1, rx2, completion, g2)));
        // Ready at creation.
        stats.ready();
        // Shed at admission.
        stats.shed();
        // Failed: expired before the kernel ran.
        let (_gauge3, g3) = guard();
        let (tx3, rx3) = slot();
        stats.begin();
        let completion = Completion { stats: Some(Arc::clone(&stats)), ..Completion::default() };
        let t = Ticket::pending(direct(vec![2], 1, rx3, completion, g3));
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
        let completion = Completion { stats: Some(Arc::clone(&stats)), ..Completion::default() };
        let part = Part::with_retry(vec![0, 1], 0, None, rx, None);
        let t = Ticket::pending(single(part, 1, Quality::TopKNeighbors(2), completion, g));
        tx.send(Ok(Dense::from_rows(2, 1, &[1.0, 2.0]).unwrap()));
        let resp = t.wait().unwrap();
        assert_eq!(resp.quality, Quality::TopKNeighbors(2));
        assert_eq!(resp.degraded_rows(), vec![0, 1]);
        assert_eq!(stats.degraded.load(Ordering::Relaxed), 1);
        assert_eq!(stats.harvested.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn subscribe_wakes_on_the_last_outstanding_source() {
        use std::sync::atomic::AtomicUsize;
        let (_gauge, g) = guard();
        let (tx, rx) = slot();
        let mut t = Ticket::pending(direct(vec![0], 1, rx, Completion::default(), g));
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        t.subscribe(Arc::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert!(!t.ready_now());
        tx.send(Ok(Dense::from_rows(1, 1, &[3.0]).unwrap()));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "source resolution fired the watcher");
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
        let t = Ticket::pending(direct(vec![0, 1], 1, rx, completion, g));
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
