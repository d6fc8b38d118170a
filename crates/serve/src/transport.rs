//! The seam under the one serving front end: a [`ShardTransport`]
//! carries a request's per-shard parts to whoever computes them, and a
//! [`PartSlot`] carries each answer back.
//!
//! Two transports exist. [`LocalBands`] holds in-process PART1D row
//! bands — one batch queue per band, run by the threads waiting on
//! it — and is what [`Engine`](crate::Engine) (one band),
//! [`ShardedEngine`](crate::ShardedEngine) (N bands) and a
//! [`WorkerEngine`](crate::WorkerEngine) (its one band) serve through.
//! `RpcTransport` in `fusedmm-rpc` frames the same parts onto sockets to
//! worker processes, behind a
//! [`RemoteShardedEngine`](crate::RemoteShardedEngine). The front end
//! above either is the same code: a part is a slot somebody else
//! resolves, and its one-shot retry is the same `embed_part` call again.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use fusedmm_ops::OpSet;
use fusedmm_perf::trace::{SpanCtx, SpanKind, Tracer};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::BufferHome;

use crate::band::Band;
use crate::cache::FillSet;
use crate::engine::{EngineConfig, ServeError};
use crate::front::Resolved;
use crate::remote::EpochRecord;
use crate::store::FeatureEpoch;
use crate::ticket::Quality;
use crate::wait::{Claim, PartError, SlotTx};

/// How a transport resolves one embed part.
#[derive(Debug)]
pub enum PartOutcome {
    /// One row per requested node, in request order, bit-identical to
    /// an in-process band computation.
    Rows(Dense),
    /// The piece expired past its deadline before its kernel launch.
    Expired,
    /// The computation (or its connection) failed — a panicked launch,
    /// an unavailable epoch, or a severed socket. The front end's
    /// one-shot retry takes over, then types the failure as
    /// `PartFailed`.
    Failed,
}

/// The completion slot a [`ShardTransport`] resolves for each embed
/// part: the ticket's one-shot reply slot, the part's cache
/// registrations (completed with the rows before the reply, so
/// coalesced waiters resolve with the computation, not with the
/// harvest), the part's span when the request is traced, and the
/// `Claim` of the blocking caller that dispatched it — only that
/// thread runs it in process (a socket transport ignores it).
///
/// Dropping a slot unresolved closes it, which surfaces as
/// [`ServeError::EngineShutdown`] on the ticket and aborts its cache
/// registrations — transports should resolve explicitly
/// ([`PartOutcome::Failed`] on connection loss) so failures stay typed
/// and retryable.
pub struct PartSlot {
    tx: SlotTx,
    pub(crate) fills: Option<FillSet>,
    pub(crate) span: Option<PartSpan>,
    pub(crate) claim: Option<Claim>,
}

/// A traced part's span, opened when the front end dispatched it: a
/// band closes it as the `Enqueue` span and parents its batch under
/// it; any other transport leaves it to [`PartSlot::resolve`], which
/// closes it as the `Rpc` span.
pub(crate) struct PartSpan {
    pub tracer: Arc<Tracer>,
    pub ctx: SpanCtx,
    pub start_ns: u64,
    pub shard: Option<usize>,
    pub rows: u64,
}

impl PartSlot {
    pub(crate) fn new(
        tx: SlotTx,
        fills: Option<FillSet>,
        span: Option<PartSpan>,
        claim: Option<Claim>,
    ) -> PartSlot {
        PartSlot { tx, fills, span, claim }
    }

    /// True once the part's ticket is gone: nobody can read its reply
    /// (the ticket was dropped, or resolved with an error without it).
    pub(crate) fn ticket_gone(&self) -> bool {
        self.tx.is_abandoned()
    }

    /// True when nobody needs this part's rows: its ticket is gone and
    /// it owns no cache registration another request may wait on.
    pub(crate) fn is_abandoned(&self) -> bool {
        self.fills.is_none() && self.ticket_gone()
    }

    /// Resolve the part. Consumes the slot; rows complete the part's
    /// cache registrations first, any other outcome aborts them.
    pub fn resolve(self, outcome: PartOutcome) {
        let PartSlot { tx, fills, span, .. } = self;
        if let Some(span) = span {
            let end = span.tracer.now();
            span.tracer.record(span.ctx, SpanKind::Rpc, span.start_ns, end, span.shard, span.rows);
        }
        match outcome {
            PartOutcome::Rows(rows) => {
                if let Some(fills) = fills {
                    fills.complete(&rows);
                }
                tx.send(Ok(rows));
            }
            PartOutcome::Expired => tx.send(Err(PartError::Expired)),
            PartOutcome::Failed => tx.send(Err(PartError::Panicked)),
        }
    }
}

/// What the front end needs from a transport: the shard layout, per-part
/// dispatch, blocking edge scoring, and the epoch-log shipping hook.
/// Implemented in process by [`LocalBands`] and over framed sockets by
/// `fusedmm-rpc`; tests implement it in process.
///
/// Ordering contract: for one shard, every record passed to
/// [`ship`](ShardTransport::ship) must reach the worker before any
/// part dispatched *after* that `ship` returns — the coordinator pins
/// epoch `E` only after shipping the record that mints `E`, and the
/// worker relies on that FIFO to have `E` in its history when the
/// request arrives.
pub trait ShardTransport: Send + Sync {
    /// Number of shards behind this transport.
    fn nshards(&self) -> usize;

    /// The PART1D cut: `boundaries()[s]..boundaries()[s + 1]` is shard
    /// `s`'s global row band; `nshards() + 1` entries, ascending.
    fn boundaries(&self) -> Vec<usize>;

    /// Dispatch one embed part — sorted, distinct `nodes` of shard
    /// `shard`, computed from the pinned `epoch` — and resolve `slot`
    /// with the outcome. `nodes` is the list the request's ticket holds;
    /// a transport that keeps it shares it rather than copying it. Must not block on the computation: the caller
    /// holds the request path. A transport that crosses a process
    /// boundary sends `epoch.epoch()`; the replica serves that number
    /// from its own history.
    fn embed_part(
        &self,
        shard: usize,
        nodes: &Arc<[usize]>,
        epoch: &Arc<FeatureEpoch>,
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
        epoch: &Arc<FeatureEpoch>,
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

/// In-process PART1D row bands as a transport: band `s` owns global
/// rows `boundaries[s]..boundaries[s + 1]` (its
/// [`Csr::row_band`](fusedmm_sparse::csr::Csr::row_band), local rows,
/// global columns), a kernel plan, and a batch queue drained by the
/// threads waiting on its parts: each slot handed out here names its
/// band, so its waiter can run the band's batches before it parks.
/// Bands share nothing but the pinned epoch each part carries, so they
/// need no feature store of their own — which is also why
/// [`ship`](ShardTransport::ship) has nothing to do here.
pub struct LocalBands {
    pub(crate) bands: Vec<Arc<Band>>,
    boundaries: Vec<usize>,
    /// Where the whole output of
    /// [`FrontEnd::infer_full`](crate::FrontEnd::infer_full) parks when
    /// its caller drops it, for the next call to write into.
    pub(crate) out_home: BufferHome,
}

impl LocalBands {
    /// One band per `(rows, adjacency)` pair, ascending and contiguous;
    /// band `s` is labeled shard `first_shard + s` (unlabeled when
    /// `first_shard` is `None` — a standalone engine).
    pub(crate) fn new(
        bands: Vec<(Range<usize>, Csr)>,
        first_shard: Option<usize>,
        ops: &OpSet,
        d: usize,
        config: &EngineConfig,
        resolved: &Resolved,
    ) -> LocalBands {
        let mut boundaries = vec![bands.first().map_or(0, |(rows, _)| rows.start)];
        let bands = bands
            .into_iter()
            .enumerate()
            .map(|(s, (rows, a))| {
                assert_eq!(rows.start, *boundaries.last().expect("nonempty"), "bands tile");
                boundaries.push(rows.end);
                let shard = first_shard.map(|b| b + s);
                Arc::new(Band::new(a, rows.start, shard, ops.clone(), d, config, resolved))
            })
            .collect();
        LocalBands { bands, boundaries, out_home: BufferHome::new() }
    }
}

impl ShardTransport for LocalBands {
    fn nshards(&self) -> usize {
        self.bands.len()
    }

    fn boundaries(&self) -> Vec<usize> {
        self.boundaries.clone()
    }

    fn embed_part(
        &self,
        shard: usize,
        nodes: &Arc<[usize]>,
        epoch: &Arc<FeatureEpoch>,
        quality: Quality,
        deadline: Option<Instant>,
        slot: PartSlot,
    ) {
        let band = &self.bands[shard];
        slot.tx.attach(band);
        band.enqueue(nodes, epoch, quality, deadline, slot);
    }

    fn score_part(
        &self,
        shard: usize,
        pairs: &[(usize, usize)],
        epoch: &Arc<FeatureEpoch>,
    ) -> Result<Vec<f32>, ServeError> {
        Ok(self.bands[shard].score(pairs, epoch))
    }

    fn ship(&self, _record: &EpochRecord) {}

    fn queued_rows(&self, shard: usize) -> usize {
        self.bands[shard].queued_rows()
    }

    fn shutdown(&self) {
        for band in &self.bands {
            band.shutdown();
        }
    }
}
