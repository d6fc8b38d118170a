//! Multi-process sharding: the coordinator and the worker host, the two
//! ends of a socket [`ShardTransport`].
//!
//! * [`RemoteShardedEngine`] — the coordinator: the one
//!   [`FrontEnd`] over a transport to worker processes, plus the write
//!   path. It owns the authoritative [`FeatureStore`] and ships every
//!   write as an [`EpochRecord`] before minting it locally, so an epoch
//!   is only pinnable once its record is ordered ahead of any request
//!   pinned at it.
//! * [`WorkerEngine`] — one shard's host: the same front end over the
//!   shard's one in-process band, reading a *replica* `FeatureStore`
//!   kept in sync by applying the coordinator's ordered log, and
//!   serving each part from the exact epoch the coordinator pinned — so
//!   a response is never torn across a publish even when the publish
//!   and the request race over the wire. A replica holds all of `Y`
//!   but only its band's rows of `X` — the only `X` rows its band's
//!   kernel reads — and boots holding nothing: the coordinator's first
//!   snapshot lands in memory that held nothing, so seeding costs the
//!   band's `X` plus one `Y` per worker.
//! * [`EpochRecord`] — one entry of the replicated epoch log. Records
//!   carry the coordinator's epoch *numbers*; replicas apply them
//!   as-is (`publish_at` / `delta_update_at`), keeping both sides'
//!   numbering — and therefore per-request pinning — aligned. The
//!   coordinator's records hold all of `X`; the socket transport ships
//!   each worker only its band's rows of it.
//!
//! The transport itself (framing, sockets, reconnects) lives in the
//! `fusedmm-rpc` crate. Responses are bit-identical to the in-process
//! [`ShardedEngine`](crate::ShardedEngine) at every epoch: the same
//! band kernels run on the same pinned matrices, and `f32` rows cross
//! the wire as raw little-endian bits.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use fusedmm_ops::OpSet;
use fusedmm_perf::registry::MetricsRegistry;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::admit::AdmissionPolicy;
use crate::cache::EmbedCache;
use crate::engine::{EngineConfig, ServeError};
use crate::front::FrontEnd;
use crate::store::{copy_rows, FeatureEpoch, FeatureStore};
use crate::ticket::{EmbedOptions, EmbedResponse, Quality, Ticket};
use crate::transport::LocalBands;
pub use crate::transport::{PartOutcome, PartSlot, ShardTransport};
use crate::wait::Claim;

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
/// into the log, into the message a transport writes — never copies a
/// matrix, and a replica that applies a decoded record moves those
/// allocations into its own store. Deltas are a few rows and stay
/// owned.
///
/// A snapshot's `x` holds `x.nrows()` global rows of `X` from row
/// `x_start` on: all of them (`x_start = 0`) as the coordinator mints
/// it, one worker's band as that worker decodes it.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochRecord {
    /// A whole generation: the full state *at* `epoch`. The
    /// coordinator's seed and every [`RemoteShardedEngine::publish`]
    /// ship one, and the log's compaction folds deltas into one.
    /// Applying it jumps a replica directly there, whatever it held
    /// before, so a fresh or lagging worker catches up from the latest
    /// snapshot plus the deltas after it instead of replaying history
    /// from zero.
    Snapshot {
        /// The epoch this snapshot mints.
        epoch: u64,
        /// Global id of `x`'s row 0.
        x_start: usize,
        /// X's rows `x_start..` at `epoch`.
        x: Arc<Dense>,
        /// The full Y at `epoch`.
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
}

impl EpochRecord {
    /// The epoch this record mints.
    pub fn epoch(&self) -> u64 {
        match self {
            EpochRecord::Snapshot { epoch, .. } | EpochRecord::Delta { epoch, .. } => *epoch,
        }
    }
}

/// The multi-process sharded front end: the one [`FrontEnd`] over a
/// [`ShardTransport`] to worker processes, with the same request API
/// (through `Deref`) and the same bit-exact responses as
/// [`ShardedEngine`](crate::ShardedEngine).
///
/// The coordinator owns the authoritative [`FeatureStore`]; **all
/// writes must go through [`publish`](RemoteShardedEngine::publish) /
/// [`delta_update`](RemoteShardedEngine::delta_update)** so the epoch
/// record ships to every replica before the local epoch becomes
/// pinnable — writing to the store directly would fork the replicas.
pub struct RemoteShardedEngine {
    front: FrontEnd<dyn ShardTransport>,
    /// Serializes `ship → local mint` so records leave in epoch order
    /// and no request can pin an epoch whose record has not shipped.
    write_order: Mutex<()>,
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
        let last = transport.boundaries().last().copied();
        assert_eq!(last, Some(x.nrows()), "bands tile X's rows");
        let store = Arc::new(FeatureStore::new(x, y));
        // Seed the log: epoch 0 is the one generation workers cannot
        // learn from the stream (they boot holding no features).
        let base = store.snapshot();
        let (x, y) = base.shared();
        transport.ship(&EpochRecord::Snapshot { epoch: base.epoch(), x_start: 0, x, y });
        let front = FrontEnd::new(Arc::clone(&transport), transport, store, None, None, &config);
        RemoteShardedEngine { front, write_order: Mutex::new(()) }
    }

    /// Publish whole replacement matrices as the next epoch,
    /// replicating them as a snapshot record to every worker **before**
    /// the local mint — by the time any request can pin the new epoch, its
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
        self.store().check_shapes(&x, &y);
        let (x, y) = (Arc::new(x), Arc::new(y));
        let _w = self.write_order.lock();
        let epoch = self.store().current_epoch() + 1;
        let record =
            EpochRecord::Snapshot { epoch, x_start: 0, x: Arc::clone(&x), y: Arc::clone(&y) };
        self.transport.ship(&record);
        let minted = self.store().publish_shared(x, y);
        debug_assert_eq!(minted, epoch, "write_order serializes coordinator writes");
        epoch
    }

    /// Patch `rows` of both matrices as the next epoch (see
    /// [`FeatureStore::delta_update`]), replicating the delta record
    /// ahead of the local mint. Returns the new epoch number.
    ///
    /// # Panics
    /// Panics (before anything ships) when a row id is out of range or
    /// a patch's shape is wrong — a record every replica would refuse.
    pub fn delta_update(&self, rows: &[usize], x_rows: &Dense, y_rows: &Dense) -> u64 {
        self.store().check_delta(rows, x_rows, y_rows);
        let _w = self.write_order.lock();
        let epoch = self.store().current_epoch() + 1;
        self.transport.ship(&EpochRecord::Delta {
            epoch,
            rows: rows.to_vec(),
            x_rows: x_rows.clone(),
            y_rows: y_rows.clone(),
        });
        let minted = self.store().delta_update(rows, x_rows, y_rows);
        debug_assert_eq!(minted, epoch, "write_order serializes coordinator writes");
        epoch
    }

    /// [`FrontEnd::register_metrics`] with no extra labels. Transport
    /// collectors (bytes, frames, RTT, reconnects, lag) are registered
    /// by the transport itself.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.front.register_metrics(registry, &[]);
    }
}

impl std::ops::Deref for RemoteShardedEngine {
    type Target = FrontEnd<dyn ShardTransport>;

    fn deref(&self) -> &FrontEnd<dyn ShardTransport> {
        &self.front
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
    /// The band failed the piece (deadline expiry, a failed launch past
    /// its retry, shutdown, a range error).
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

/// One shard's host inside a worker process: the one [`FrontEnd`] over
/// the shard's one band, reading a *replica* [`FeatureStore`] fed by
/// the coordinator's epoch log, and serving every request at exactly
/// the epoch the coordinator pinned (from a pinned-epoch history). A
/// per-replica result cache (`EngineConfig::cache`) invalidates through
/// the standard [`EpochListener`](crate::EpochListener) subscription —
/// `on_delta`-precise, identically to the in-process front end.
pub struct WorkerEngine {
    /// Its cut is the band; its admission is unlimited (the coordinator
    /// admitted the request).
    front: FrontEnd<LocalBands>,
    /// Recent epochs by number. FIFO framing guarantees the record
    /// minting `E` precedes any request pinned at `E`, so a lookup
    /// miss means the epoch was evicted (or this replica restarted) —
    /// a typed, retryable failure. Empty until the first record lands:
    /// an unseeded replica has nothing to serve.
    epochs: Mutex<BTreeMap<u64, Arc<FeatureEpoch>>>,
    shard: usize,
}

impl WorkerEngine {
    /// Host shard `shard` of `a` (rows `band`). `x0`/`y0` give the
    /// feature shapes only and are dropped before this returns: the
    /// replica holds no features until the coordinator's first
    /// snapshot lands (the Hello handshake reports it as fresh; a
    /// request before then is [`WorkerError::EpochUnavailable`]), and
    /// from then on it holds `band`'s rows of `X` and all of `Y`.
    /// `config.cache` enables the per-replica result cache;
    /// `config.fault` injects worker-side kernel chaos exactly as
    /// in-process (none when `None`);
    /// `config.admission` is ignored — a worker never sheds (its
    /// coordinator admitted the work). Each connection's serve loop
    /// computes the parts it receives on its own thread.
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
        assert_eq!(x0.ncols(), y0.ncols(), "X and Y must share the embedding dimension");
        let (x_rows, y_rows, d) = (x0.nrows(), y0.nrows(), x0.ncols());
        let store = Arc::new(FeatureStore::unseeded(band.clone(), x_rows, y_rows, d));
        drop((x0, y0));
        let config = EngineConfig { admission: Some(AdmissionPolicy::unlimited()), ..config };
        let rows = a.row_band(band.clone());
        // Keyed by global id (only this band's rows are probed or
        // filled), indexed by the band's own transpose: a delta retires
        // the in-neighbours this replica caches, as the in-process
        // cache retires them among its rows.
        let cache = config
            .cache
            .map(|cache| Arc::new(EmbedCache::transposed(&rows, band.start, x_rows, d, cache)));
        let bands = vec![(band, rows)];
        let front = FrontEnd::local(bands, Some(shard), store, cache, None, ops, &config);
        WorkerEngine { front, epochs: Mutex::new(BTreeMap::new()), shard }
    }

    /// This replica's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The global row band this replica owns.
    pub fn band(&self) -> Range<usize> {
        self.front.boundaries()[0]..self.front.nvertices()
    }

    /// Rows of the (global) Y column space.
    pub fn y_rows(&self) -> usize {
        self.front.store().y_rows()
    }

    /// The embedding dimension served.
    pub fn dimension(&self) -> usize {
        self.front.dimension()
    }

    /// The replica's current epoch.
    pub fn current_epoch(&self) -> u64 {
        self.front.store().current_epoch()
    }

    /// True until the first epoch record is applied: a fresh replica
    /// holds no features and must be started from a snapshot.
    pub fn is_fresh(&self) -> bool {
        self.epochs.lock().is_empty()
    }

    /// Apply one record of the coordinator's epoch log, in log order.
    /// Listeners on the replica store (the per-replica cache) see the
    /// same publish/delta distinction — and the same touch sets — as
    /// in-process subscribers. Returns the replica's new epoch.
    ///
    /// A whole-generation record's `X` must cover this replica's band,
    /// and the replica keeps exactly the band: a record decoded off the
    /// socket holds exactly it and is moved in, one holding more rows
    /// (the coordinator's own record, handed over in process) has the
    /// band copied out of it. A delta writes the `X` rows inside the
    /// band and every `Y` row.
    ///
    /// # Panics
    /// Panics on a log gap or regression — a replica that detects
    /// stream corruption must not keep serving silently-forked
    /// features. A delta before any snapshot is such a gap: there is
    /// nothing for it to patch. So is a record whose `X` misses part of
    /// the band. Either panics before the store changes.
    pub fn apply(&self, record: EpochRecord) -> u64 {
        let store = self.front.store();
        let epoch = record.epoch();
        match record {
            EpochRecord::Snapshot { x_start, x, y, .. } => {
                store.publish_at(epoch, self.band_of(x_start, x), y);
            }
            EpochRecord::Delta { rows, x_rows, y_rows, .. } => {
                assert!(
                    !self.is_fresh(),
                    "epoch log gap: delta record {epoch} reached a replica no snapshot has seeded"
                );
                store.delta_update_at(epoch, &rows, &x_rows, &y_rows);
            }
        }
        let mut epochs = self.epochs.lock();
        epochs.insert(epoch, store.snapshot());
        while epochs.len() > EPOCH_RETAIN {
            epochs.pop_first();
        }
        epoch
    }

    /// This replica's band of `x`, whose row 0 is global row `x_start`:
    /// `x` itself when it is exactly the band, else a copy of the band's
    /// rows.
    ///
    /// # Panics
    /// Panics when `x` does not cover the band.
    fn band_of(&self, x_start: usize, x: Arc<Dense>) -> Arc<Dense> {
        let band = self.band();
        let held = x_start..x_start.saturating_add(x.nrows());
        assert!(
            held.start <= band.start && band.end <= held.end,
            "epoch log corrupt: a record holding X rows {held:?} misses band {band:?}"
        );
        if held == band {
            return x;
        }
        Arc::new(copy_rows(&x, x_start, band))
    }

    /// The pinned snapshot for `epoch`: what a request pinned at
    /// `epoch` is served from.
    pub fn pinned(&self, epoch: u64) -> Result<Arc<FeatureEpoch>, WorkerError> {
        self.epochs
            .lock()
            .get(&epoch)
            .cloned()
            .ok_or(WorkerError::EpochUnavailable { epoch, current: self.current_epoch() })
    }

    /// Serve one embed part at the exact epoch the coordinator pinned,
    /// through the front end's one request path (cache, band, retry).
    /// `nodes` are global ids within this replica's band. Like `embed`,
    /// the calling thread claims the part and runs it itself.
    pub fn embed_part(
        &self,
        nodes: &[usize],
        epoch: u64,
        quality: Quality,
        deadline: Option<Instant>,
    ) -> Result<EmbedResponse, WorkerError> {
        let pinned = self.pinned(epoch)?;
        let opts = EmbedOptions { deadline, quality };
        self.front
            .begin(nodes, opts, Some(pinned), Some(Claim::mine()))
            .and_then(Ticket::wait)
            .map_err(WorkerError::Serve)
    }

    /// Score one part's pairs at the pinned epoch (sources within this
    /// band, targets global), as a `pairs.len() × 1` matrix.
    pub fn score_part(&self, pairs: &[(usize, usize)], epoch: u64) -> Result<Dense, WorkerError> {
        let pinned = self.pinned(epoch)?;
        let mut scores = Dense::zeros(pairs.len(), 1);
        self.front
            .score_into(pairs, Some(pinned), scores.as_mut_slice())
            .map_err(WorkerError::Serve)?;
        Ok(scores)
    }

    /// Register this replica's front end and band with `registry`
    /// (band samples labeled `shard="<i>"`).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.front.register_metrics(registry, &[]);
    }

    /// Rows queued (undispatched) in this replica's band.
    pub fn queued_rows(&self) -> usize {
        self.front.transport.queued_rows(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        EngineConfig::default()
    }

    #[test]
    fn stale_epoch_past_history_is_a_typed_failure() {
        let n = 24;
        let d = 4;
        let a = graph(n);
        let z = || Dense::zeros(n, d);
        let worker = WorkerEngine::new(&a, 0..n, 0, z(), z(), OpSet::gcn(), config());
        worker.apply(EpochRecord::Snapshot {
            epoch: 0,
            x_start: 0,
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
