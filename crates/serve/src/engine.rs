//! The serving engine: graph loaded once, plan prepared once, features
//! borrowed per request from an epoch-versioned [`FeatureStore`], three
//! request kinds served concurrently.
//!
//! [`Engine`] is the one front end ([`FrontEnd`]) over one in-process
//! band holding the whole graph; [`ShardedEngine`](crate::ShardedEngine)
//! is the same front end over several. Every request pins exactly one
//! feature epoch end-to-end, so a response is never torn across a
//! concurrent [`FeatureStore::publish`].

use std::ops::Range;
use std::sync::Arc;

use fusedmm_cache::CacheConfig;
use fusedmm_core::{Blocking, Partition, PartitionStrategy, Plan};
use fusedmm_graph::Reordering;
use fusedmm_ops::OpSet;
use fusedmm_perf::trace::Tracer;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::Permutation;

use crate::admit::AdmissionPolicy;
use crate::cache::EmbedCache;
use crate::fault::FaultPlan;
use crate::front::FrontEnd;
use crate::store::FeatureStore;
use crate::transport::LocalBands;

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Cap on requested rows a band coalesces into one kernel launch.
    /// A single larger request is still served whole.
    pub max_batch_rows: usize,
    /// How the engine's kernel plan runs a launch (see [`Blocking`]);
    /// the default [`Blocking::Auto`] is what `fusedmm` and
    /// [`Plan::prepare`] run. An operator set no specialized kernel
    /// recognizes runs, and plans as, [`Blocking::Generic`] whatever is
    /// set here.
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

/// A loaded, ready-to-serve graph model: the one front end over one
/// in-process band. Every request method — `embed`, `embed_begin_opts`,
/// `score_edges`, `infer_full`, `metrics`, `register_metrics` — is the
/// [`FrontEnd`]'s, reached through `Deref`. Share it across request
/// threads by reference (it is `Sync`); its batches run on the threads
/// waiting on them, and dropping it resolves whatever is still queued
/// `EngineShutdown`.
pub struct Engine {
    front: FrontEnd<LocalBands>,
}

impl Engine {
    /// Load `a` (adjacency), `x` (target-side features), `y`
    /// (neighbor-side features) and prepare the kernel plan for `ops`.
    /// For plain embedding refresh pass the same features as `x` and
    /// `y`. The features become epoch 0 of a fresh [`FeatureStore`]
    /// (reachable via [`FrontEnd::store`] for live updates). Spawns no
    /// thread: each batch runs on a thread waiting for it.
    ///
    /// # Panics
    /// Panics when shapes are inconsistent (same contract as
    /// [`fusedmm_core::fusedmm`]).
    pub fn new(a: Csr, x: Dense, y: Dense, ops: OpSet, config: EngineConfig) -> Engine {
        let (a, store, perm, symmetric) = owned_store(a, x, y, &config);
        Engine { front: local_front(a, store, ops, None, &config, perm, symmetric) }
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
        assert_external_store(&config);
        let symmetric = cached_and_symmetric(&a, &config);
        Engine { front: local_front(a, store, ops, None, &config, None, symmetric) }
    }

    /// The frozen kernel plan the band executes under.
    pub fn plan(&self) -> Plan {
        self.front.transport.bands[0].plan
    }
}

impl std::ops::Deref for Engine {
    type Target = FrontEnd<LocalBands>;

    fn deref(&self) -> &FrontEnd<LocalBands> {
        &self.front
    }
}

/// Engine-owned features: the store, and — with
/// [`EngineConfig::reordering`] — the permuted graph and its
/// permutation (the store then speaks external ids on its write path).
/// Last, [`cached_and_symmetric`], decided on `a` before permuting: the
/// permuted rows are unsorted, and `P·A·Pᵀ` is symmetric exactly when
/// `A` is.
pub(crate) fn owned_store(
    a: Csr,
    x: Dense,
    y: Dense,
    config: &EngineConfig,
) -> (Csr, Arc<FeatureStore>, Option<Arc<Permutation>>, bool) {
    assert_eq!(x.nrows(), a.nrows(), "X must have one row per vertex");
    assert_eq!(y.nrows(), a.ncols(), "Y must have one row per vertex");
    assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
    let symmetric = cached_and_symmetric(&a, config);
    match config.reordering {
        Some(r) => {
            let perm = Arc::new(r.compute(&a));
            let store = FeatureStore::with_permutation(x, y, Arc::clone(&perm));
            (perm.permute_csr(&a), Arc::new(store), Some(perm), symmetric)
        }
        None => (a, Arc::new(FeatureStore::new(x, y)), None, symmetric),
    }
}

/// Whether `config` asks for a result cache over a graph whose pattern
/// is symmetric — one whose bands can serve the cache's touch sets. An
/// uncached engine reads nothing.
pub(crate) fn cached_and_symmetric(a: &Csr, config: &EngineConfig) -> bool {
    config.cache.is_some() && a.is_pattern_symmetric()
}

pub(crate) fn assert_external_store(config: &EngineConfig) {
    assert!(
        config.reordering.is_none(),
        "EngineConfig::reordering requires engine-owned features (Engine::new / \
         ShardedEngine::new): an external FeatureStore is not in permuted row order"
    );
}

/// The in-process front end over `a` (already in the store's row
/// order): one unlabeled band, or — with `nshards` — an nnz-balanced
/// PART1D cut into at most that many bands labeled from shard 0. With
/// [`EngineConfig::cache`] set, the cache reads its touch sets from the
/// bands when `symmetric` ([`cached_and_symmetric`]) and from its own
/// `Aᵀ` otherwise.
pub(crate) fn local_front(
    a: Csr,
    store: Arc<FeatureStore>,
    ops: OpSet,
    nshards: Option<usize>,
    config: &EngineConfig,
    perm: Option<Arc<Permutation>>,
    symmetric: bool,
) -> FrontEnd<LocalBands> {
    assert_eq!(store.x_rows(), a.nrows(), "store X must have one row per vertex");
    assert_eq!(store.y_rows(), a.ncols(), "store Y must have one row per vertex");
    let cache = config.cache.map(|cache| {
        Arc::new(match symmetric {
            true => EmbedCache::over_bands(a.nrows(), store.d(), cache),
            false => EmbedCache::transposed(&a, 0, a.nrows(), store.d(), cache),
        })
    });
    let (bands, first_shard) = match nshards {
        None => (vec![(0..a.nrows(), a)], None),
        Some(nshards) => {
            let part = Partition::part1d(&a, nshards, PartitionStrategy::NnzBalanced);
            let ranges: Vec<Range<usize>> = (0..part.len()).map(|s| part.rows(s)).collect();
            let bands = a.into_row_bands(&ranges);
            (ranges.into_iter().zip(bands).collect(), Some(0))
        }
    };
    FrontEnd::local(bands, first_shard, store, cache, perm, ops, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{EmbedOptions, Quality, Ticket};
    use crate::ShardedEngine;
    use fusedmm_core::fusedmm_reference;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use std::time::{Duration, Instant};

    fn graph(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=3usize {
                c.push(u, (u + k * 2 + 1) % n, 0.4 + k as f32 * 0.3);
            }
        }
        c.to_csr(Dedup::Sum)
    }

    fn feats(n: usize, d: usize) -> Dense {
        Dense::from_fn(n, d, |r, k| ((r * 5 + k * 11) as f32 * 0.03).sin() * 0.7)
    }

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    fn build(n: usize, d: usize, ops: OpSet, config: EngineConfig) -> Engine {
        Engine::new(graph(n), feats(n, d), feats(n, d), ops, config)
    }

    /// Ring graph: z_u = y_{u+1} under GCN, so served values reveal
    /// exactly which epoch (and which rows) produced them.
    fn ring(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        c.to_csr(Dedup::Sum)
    }

    fn ring_engine(n: usize, config: EngineConfig) -> Engine {
        let feats = Dense::from_fn(n, 4, |r, k| (r * 4 + k) as f32);
        Engine::new(ring(n), feats.clone(), feats, OpSet::gcn(), config)
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
        let eng = build(30, 8, OpSet::gcn(), config());
        let reference = fusedmm_reference(&graph(30), &feats(30, 8), &feats(30, 8), &OpSet::gcn());
        assert!(eng.infer_full().max_abs_diff(&reference) < 1e-4);
        assert_eq!(eng.metrics().bands[0].infer.count, 1);
    }

    #[test]
    fn bands_count_distinct_rows_per_request_and_dedup_across_requests() {
        let eng = build(20, 8, OpSet::sigmoid_embedding(None), config());
        eng.embed(&[1, 2, 3]).unwrap();
        eng.embed(&[3, 3, 3]).unwrap();
        let m = eng.metrics();
        assert_eq!(m.embed.count, 2);
        // The front end deduplicates each request before its band sees it.
        assert_eq!(m.bands[0].rows_requested, 4);
        assert!(m.bands[0].rows_computed <= 4);
        assert!(m.bands[0].batches_dispatched >= 1);
        assert!(m.embed.p99 >= m.embed.p50);
        assert_eq!((m.feature_epoch, m.epoch_swaps), (0, 0));
    }

    #[test]
    fn publish_changes_served_rows_and_metrics_report_the_epoch() {
        let eng = build(24, 8, OpSet::gcn(), config());
        let reference = fusedmm_reference(&graph(24), &feats(24, 8), &feats(24, 8), &OpSet::gcn());
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
        assert_eq!((m.feature_epoch, m.epoch_swaps), (1, 1));
    }

    #[test]
    fn delta_update_refreshes_neighbor_contributions() {
        let eng = ring_engine(10, config());
        let patch = Dense::filled(1, 4, -1.0);
        eng.store().delta_update(&[5], &patch, &patch);
        // Node 4 aggregates neighbor 5: sees the patch.
        assert_eq!(eng.embed(&[4]).unwrap().row(0), &[-1.0; 4]);
        // Node 0 aggregates neighbor 1: untouched.
        assert_eq!(eng.embed(&[0]).unwrap().row(0), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn cached_embed_hits_on_repeats() {
        let ops = OpSet::sigmoid_embedding(None);
        let cached =
            build(40, 16, ops, EngineConfig { cache: Some(CacheConfig::default()), ..config() });
        let nodes = [7usize, 0, 39, 7, 12];
        let first = cached.embed(&nodes).unwrap();
        assert_eq!(cached.embed(&nodes).unwrap(), first, "warm cache is bit-identical");
        let m = cached.cache_metrics().expect("cache enabled");
        assert_eq!(m.misses, 5, "cold pass misses every requested row");
        assert_eq!(m.hits, 5, "warm pass hits every requested row");
        assert_eq!(m.inserts, 4, "the deduped union is inserted once per node");
        assert_eq!(m.hit_ratio.count, 2);
        // The band only ever saw the cold misses.
        assert_eq!(cached.metrics().bands[0].rows_requested, 4);
    }

    #[test]
    fn publish_flushes_the_cache_and_deltas_keep_untouched_rows_hot() {
        let n = 10;
        let eng = ring_engine(n, EngineConfig { cache: Some(CacheConfig::default()), ..config() });
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
    fn admission_sheds_at_the_inflight_cap_and_reconciles() {
        let cap = AdmissionPolicy { max_inflight: 1, max_queued_rows: 0, degrade_fraction: 1.0 };
        let eng = build(20, 8, OpSet::gcn(), EngineConfig { admission: Some(cap), ..config() });
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
        let cfg = EngineConfig {
            cache: Some(CacheConfig::default()),
            admission: Some(AdmissionPolicy {
                max_inflight: 4,
                max_queued_rows: 0,
                degrade_fraction: 0.25,
            }),
            ..config()
        };
        let eng = build(20, 8, OpSet::gcn(), cfg);
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
    fn queued_request_expiring_before_launch_fails_typed() {
        // The request queues behind an Exact launch whose cache fill the
        // fault plan stalls past its deadline. Its own begin runs both
        // (a different tier never shares that launch), and its deadline
        // is re-checked right before its launch.
        let cfg = EngineConfig {
            cache: Some(CacheConfig::default()),
            fault: Some(Arc::new(FaultPlan::parse("delay_fill_us=100000").unwrap())),
            ..config()
        };
        let eng = build(10, 4, OpSet::gcn(), cfg);
        let ahead = eng.embed_begin(&[2]).unwrap();
        let deadline = Instant::now() + Duration::from_millis(20);
        let opts = EmbedOptions { deadline: Some(deadline), quality: Quality::TopKNeighbors(2) };
        let t = eng.embed_begin_opts(&[1], opts).unwrap();
        assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExpired);
        ahead.wait().unwrap();
        let m = eng.metrics();
        assert_eq!(m.bands[0].expired_dropped, 1);
        assert_eq!(m.requests_failed, 1);
        assert_eq!(m.bands[0].rows_computed, 1, "no kernel time was spent past the deadline");
    }

    #[test]
    fn a_dropped_tickets_queued_part_is_not_computed() {
        let eng = build(20, 8, OpSet::gcn(), config());
        drop(eng.embed_begin(&[3]).unwrap());
        eng.embed(&[5]).unwrap();
        let m = eng.metrics();
        assert_eq!(m.bands[0].rows_computed, 1, "only the waited-on row was computed");
        assert_eq!(m.requests_abandoned, 1);
    }

    #[test]
    fn a_ticket_nobody_waits_on_is_completed_by_the_next_waiter_on_its_band() {
        let eng = build(20, 8, OpSet::gcn(), config());
        let want = eng.embed(&[3]).unwrap();
        let before = eng.metrics().bands[0].batches_dispatched;
        let mut idle = eng.embed_begin(&[3]).unwrap();
        eng.embed(&[5]).unwrap();
        let m = eng.metrics().bands[0];
        assert_eq!(m.batches_dispatched - before, 1, "both parts rode the waiter's one launch");
        assert_eq!(idle.poll(), Some(Ok(want)), "the idle ticket's rows were computed too");
        assert_eq!(eng.metrics().bands[0].batches_dispatched, m.batches_dispatched);
    }

    #[test]
    fn a_coalesced_waiter_completes_whatever_happens_to_the_owners_ticket() {
        let cached = || EngineConfig { cache: Some(CacheConfig::default()), ..config() };
        let want = build(20, 8, OpSet::gcn(), config()).embed(&[7]).unwrap();
        for drop_owner in [false, true] {
            let eng = build(20, 8, OpSet::gcn(), cached());
            let owner = eng.embed_begin(&[7]).unwrap();
            let waiter = eng.embed_begin(&[7]).unwrap();
            if drop_owner {
                drop(owner);
                assert_eq!(waiter.wait().unwrap(), want, "owner dropped");
            } else {
                assert_eq!(waiter.wait().unwrap(), want, "owner never waited on");
                drop(owner);
            }
            let m = eng.metrics();
            assert_eq!(m.bands[0].rows_computed, 1, "one computation served both");
            assert_eq!(m.cache.unwrap().coalesced_misses, 1);
        }
    }

    #[test]
    fn poll_runs_at_most_one_batch() {
        let eng = build(20, 8, OpSet::gcn(), EngineConfig { max_batch_rows: 1, ..config() });
        let mut tickets: Vec<_> = (1..=3).map(|u| eng.embed_begin(&[u]).unwrap()).collect();
        let batches = || eng.metrics().bands[0].batches_dispatched;
        assert!(tickets[2].poll().is_none());
        assert_eq!(batches(), 1, "one batch: the first ticket's part");
        assert!(tickets[2].poll().is_none());
        assert_eq!(batches(), 2);
        assert!(tickets[2].poll().expect("its own batch ran").is_ok());
        assert_eq!(batches(), 3);
        assert!(tickets[..2].iter_mut().all(|t| t.poll().is_some_and(|r| r.is_ok())));
    }

    #[test]
    fn a_waiter_stops_running_batches_at_its_deadline_and_once_it_is_served() {
        // Parts of 128 rows, one per batch, and a producer that keeps
        // 64 of them queued: the queue never empties while it runs.
        let n = 256;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 0..32 {
                c.push(u, (u * 7 + k * 13 + 1) % n, 0.5);
            }
        }
        let cfg = EngineConfig { max_batch_rows: 1, ..config() };
        let ops = OpSet::sigmoid_embedding(None);
        let eng =
            Arc::new(Engine::new(c.to_csr(Dedup::Sum), feats(n, 128), feats(n, 128), ops, cfg));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (flood, stopped) = (Arc::clone(&eng), Arc::clone(&stop));
        let producer = std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut window: std::collections::VecDeque<Ticket<Dense>> = Default::default();
            let mut r = 0usize;
            while !stopped.load(std::sync::atomic::Ordering::Relaxed) && t0.elapsed().as_secs() < 5
            {
                if window.len() == 64 {
                    match window[0].poll() {
                        Some(result) => {
                            result.unwrap();
                            window.pop_front();
                        }
                        None => std::thread::yield_now(),
                    }
                    continue;
                }
                let nodes: Vec<usize> = (0..128).map(|i| (r * 37 + i * 2) % n).collect();
                window.push_back(flood.embed_begin(&nodes).unwrap());
                r += 1;
            }
        });
        while eng.metrics().bands[0].batches_dispatched < 64 {
            std::thread::yield_now();
        }
        let mut t = eng.embed_begin(&[5]).unwrap();
        let t0 = Instant::now();
        let first = t.wait_deadline(t0 + Duration::from_millis(2));
        let at_deadline = t0.elapsed();
        let served = first.unwrap_or_else(|| t.wait());
        let at_rows = t0.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        producer.join().unwrap();
        assert!(served.is_ok());
        assert!(at_deadline < Duration::from_millis(500), "wait_deadline overran: {at_deadline:?}");
        assert!(at_rows < Duration::from_secs(1), "wait outlived its rows: {at_rows:?}");
    }

    #[test]
    fn a_failed_launch_retries_on_the_waiters_own_thread_bit_identically() {
        crate::fault::quiet_injected_panics();
        // Launch 1 lands, launch 2 panics, launch 3 is its retry.
        let cfg = EngineConfig {
            fault: Some(Arc::new(FaultPlan::parse("panic_every=2").unwrap())),
            ..config()
        };
        let eng = build(20, 8, OpSet::gcn(), cfg);
        let healthy = eng.embed(&[3]).unwrap();
        let mut t = eng.embed_begin(&[3]).unwrap();
        // Non-blocking polls on this thread: the first runs the failing
        // launch and re-enqueues the part, the second runs the retry.
        // No other thread computes anything.
        assert_eq!(t.poll(), None, "the retry is queued, not yet run");
        assert_eq!(eng.metrics().bands[0].panics_caught, 1);
        assert_eq!(t.poll(), Some(Ok(healthy)), "healed by the next poll");
        let m = eng.metrics();
        assert_eq!((m.bands[0].panics_caught, m.bands[0].batches_dispatched), (1, 2));
        assert_eq!((m.requests_harvested, m.requests_failed), (2, 0));
    }

    #[test]
    fn panicked_launch_recovers_via_retry_bit_identical() {
        crate::fault::quiet_injected_panics();
        // Batch 2 panics; its retry re-enqueues as batch 3 and lands.
        let cfg = EngineConfig {
            fault: Some(Arc::new(FaultPlan::parse("panic_every=2").unwrap())),
            ..config()
        };
        let eng = build(20, 8, OpSet::gcn(), cfg);
        let healthy = eng.embed(&[3]).unwrap();
        let healed = eng.embed(&[3]).unwrap();
        assert_eq!(healed, healthy, "a retried Exact request is bit-identical");
        let m = eng.metrics();
        assert_eq!(m.bands[0].panics_caught, 1);
        assert_eq!((m.requests_harvested, m.requests_failed), (2, 0));
    }

    #[test]
    fn topk_tier_matches_truncated_graph_and_marks_every_row() {
        let ops = OpSet::sigmoid_embedding(None);
        let eng = build(40, 8, ops.clone(), config());
        let nodes = [7usize, 0, 39, 7];
        let topk = |k| EmbedOptions::with_quality(Quality::TopKNeighbors(k));
        let resp = eng.embed_begin_opts(&nodes, topk(2)).unwrap().wait().unwrap();
        assert_eq!(resp.quality, Quality::TopKNeighbors(2));
        assert_eq!(resp.degraded_rows(), vec![0, 1, 2, 3]);
        let truncated =
            fusedmm_reference(&graph(40).top_k_by_weight(2), &feats(40, 8), &feats(40, 8), &ops);
        for (i, &u) in nodes.iter().enumerate() {
            for k in 0..8 {
                let (got, want) = (resp.rows.get(i, k), truncated.get(u, k));
                assert!((got - want).abs() < 1e-5, "node {u} lane {k}");
            }
        }
        // k at least the max degree leaves the graph intact: the tier
        // is bit-identical to the exact path.
        let full = eng.embed_begin_opts(&nodes, topk(64)).unwrap().wait().unwrap();
        assert_eq!(full.rows.as_slice(), eng.embed(&nodes).unwrap().as_slice());
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
    fn reordered_engines_are_bit_identical_and_keep_external_ids() {
        let (n, d) = (48, 16);
        let a = skewed(n);
        let feats = Dense::from_fn(n, d, |r, k| ((r * 3 + k * 7) as f32 * 0.05).sin());
        let plain = Engine::new(a.clone(), feats.clone(), feats.clone(), OpSet::gcn(), config());
        let nodes = [5usize, 0, 47, 5, 13];
        let pairs = [(0usize, 7usize), (13, 0), (47, 46)];
        let base_embed = plain.embed(&nodes).unwrap();
        let base_scores = plain.score_edges(&pairs).unwrap();
        let base_full = plain.infer_full();
        for r in [Reordering::DegreeSort, Reordering::RcmBfs] {
            let cfg = EngineConfig { reordering: Some(r), ..config() };
            let single =
                Engine::new(a.clone(), feats.clone(), feats.clone(), OpSet::gcn(), cfg.clone());
            let sharded =
                ShardedEngine::new(a.clone(), feats.clone(), feats.clone(), OpSet::gcn(), 3, cfg);
            for eng in [&*single, &*sharded] {
                assert_eq!(eng.embed(&nodes).unwrap(), base_embed, "{r:?} embed differs");
                assert_eq!(eng.score_edges(&pairs).unwrap(), base_scores, "{r:?} scores differ");
                assert_eq!(eng.infer_full().as_slice(), base_full.as_slice(), "{r:?} infer_full");
                // External id space is unchanged, including its bounds.
                let out_of_range = ServeError::NodeOutOfRange { node: n, nvertices: n };
                assert_eq!(eng.embed(&[n]), Err(out_of_range.clone()));
                assert_eq!(eng.score_edges(&[(0, n)]), Err(out_of_range));
            }
        }
    }

    #[test]
    fn reordered_engine_store_writes_use_external_ids() {
        let eng =
            ring_engine(10, EngineConfig { reordering: Some(Reordering::RcmBfs), ..config() });
        let patch = Dense::filled(1, 4, -1.0);
        eng.store().delta_update(&[5], &patch, &patch);
        assert_eq!(eng.embed(&[4]).unwrap().row(0), &[-1.0; 4], "external row 5 was patched");
        assert_eq!(eng.embed(&[0]).unwrap().row(0), &[4.0, 5.0, 6.0, 7.0], "row 1 untouched");
        // A publish in external order serves externally-correct rows.
        let x2 = Dense::from_fn(10, 4, |r, k| (100 * r + k) as f32);
        eng.store().publish(x2.clone(), x2);
        assert_eq!(eng.embed(&[3]).unwrap().row(0), &[400.0, 401.0, 402.0, 403.0]);
    }

    #[test]
    fn reordered_engine_with_cache_is_bit_identical() {
        let (n, d) = (40, 8);
        let a = skewed(n);
        let feats = Dense::from_fn(n, d, |r, k| ((r + k * 5) as f32 * 0.07).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let plain = Engine::new(a.clone(), feats.clone(), feats.clone(), ops.clone(), config());
        let cfg = EngineConfig {
            cache: Some(CacheConfig::default()),
            reordering: Some(Reordering::DegreeSort),
            ..config()
        };
        let eng = Engine::new(a, feats.clone(), feats, ops, cfg);
        let nodes = [0usize, 17, 3, 17, 39];
        let cold = eng.embed(&nodes).unwrap();
        assert_eq!(cold, plain.embed(&nodes).unwrap(), "cold reordered cache differs");
        assert_eq!(eng.embed(&nodes).unwrap(), cold, "warm reordered cache differs");
        let m = eng.cache_metrics().unwrap();
        assert_eq!(m.hits, 5, "warm pass hits every row under translated keys");
    }

    #[test]
    fn reordered_cache_over_a_symmetric_graph_tracks_deltas() {
        // The symmetry is decided before permuting, so these caches read
        // their touch sets from the permuted bands.
        let (n, d) = (64, 8);
        let a = fusedmm_graph::rmat::rmat(&fusedmm_graph::rmat::RmatConfig::new(n, 3 * n));
        assert!(a.is_pattern_symmetric());
        let feats = Dense::from_fn(n, d, |r, k| ((r * 7 + k * 3) as f32 * 0.05).cos());
        let ops = OpSet::sigmoid_embedding(None);
        let all: Vec<usize> = (0..n).collect();
        let hub = (0..n).max_by_key(|&u| a.row_nnz(u)).unwrap();
        for reordering in [Reordering::DegreeSort, Reordering::RcmBfs] {
            for nshards in [1, 2] {
                let cfg = EngineConfig {
                    cache: Some(CacheConfig::default()),
                    reordering: Some(reordering),
                    ..config()
                };
                let (x, y) = (feats.clone(), feats.clone());
                let plain = ShardedEngine::new(
                    a.clone(),
                    x.clone(),
                    y.clone(),
                    ops.clone(),
                    nshards,
                    config(),
                );
                let cached = ShardedEngine::new(a.clone(), x, y, ops.clone(), nshards, cfg);
                assert_eq!(cached.embed(&all).unwrap(), plain.embed(&all).unwrap());
                for (step, rows) in [vec![hub], vec![1, 40], vec![n - 1]].iter().enumerate() {
                    let patch = Dense::filled(rows.len(), d, 0.1 * (step + 1) as f32);
                    for engine in [&plain, &cached] {
                        engine.store().delta_update(rows, &patch, &patch);
                    }
                    assert_eq!(
                        cached.embed(&all).unwrap(),
                        plain.embed(&all).unwrap(),
                        "{reordering:?}, {nshards} shards, after patching {rows:?}"
                    );
                }
                assert!(cached.cache_metrics().unwrap().invalidated_rows > 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "engine-owned features")]
    fn with_store_rejects_reordering() {
        let store = Arc::new(FeatureStore::new(Dense::zeros(8, 4), Dense::zeros(8, 4)));
        let cfg = EngineConfig { reordering: Some(Reordering::DegreeSort), ..config() };
        let _ = Engine::with_store(skewed(8), store, OpSet::gcn(), cfg);
    }
}
