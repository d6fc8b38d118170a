//! `fusedmm-serve` — a batched embedding/inference serving engine on
//! top of the FusedMM kernel.
//!
//! The kernel crates answer one-shot, whole-graph calls. Serving
//! traffic looks different: many concurrent callers each asking for a
//! few vertices ("refresh the embeddings of these 64 users", "score
//! these 200 candidate edges"), with latency percentiles — not batch
//! wall-clock — as the figure of merit. This crate provides that layer:
//!
//! * [`Engine`] — loads a graph and feature matrices once, prepares a
//!   reusable kernel [`Plan`](fusedmm_core::Plan) (the per-call
//!   dispatch decision lifted to load time), and serves three request
//!   kinds:
//!   * [`Engine::infer_full`] — whole-graph inference (the classic
//!     FusedMM call, now plan-driven);
//!   * [`Engine::embed`] — per-node embedding refresh for an arbitrary
//!     node subset, executed through the micro-batcher and the
//!     row-subset kernel [`fusedmm_rows`](fusedmm_core::fusedmm_rows);
//!   * [`Engine::score_edges`] — SDDMM-only scoring of candidate
//!     `(u, v)` pairs, no aggregation and no edge-sized intermediate.
//! * micro-batching ([`batcher`]) — concurrent callers enqueue node
//!   subsets; a dispatcher thread coalesces them into one deduplicated
//!   row batch per tick, runs it on the rayon pool, and scatters the
//!   rows back to each caller;
//! * live feature updates ([`store`]) — engines borrow `X`/`Y` through
//!   an epoch-versioned [`FeatureStore`]: readers pin RCU-style
//!   snapshots, writers [`publish`](FeatureStore::publish) or
//!   [`delta_update`](FeatureStore::delta_update) refreshed embeddings
//!   without stopping traffic, and every batch is computed from exactly
//!   one epoch (responses are never torn across a swap);
//! * sharding ([`shard`]) — [`ShardedEngine`] cuts the graph into
//!   PART1D nnz-balanced row bands, runs one band engine (worker +
//!   plan) per shard against the shared store, and scatters/gathers
//!   requests in request order — bit-identical to a single engine, and
//!   the step toward multi-machine serving;
//! * graph reordering ([`EngineConfig::reordering`]) — engines can
//!   renumber a skewed graph at load time ([`Reordering::DegreeSort`] /
//!   [`Reordering::RcmBfs`]) for locality and band balance, translating
//!   ids at the serving boundary so external vertex ids never change
//!   and every response stays bit-identical to unreordered serving;
//! * result caching ([`cache`]) — with [`EngineConfig::cache`] set,
//!   hot rows are served from an epoch-aware
//!   [`ResultCache`](fusedmm_cache::ResultCache): a
//!   [`publish`](FeatureStore::publish) invalidates everything lazily
//!   by epoch stamp, while a
//!   [`delta_update`](FeatureStore::delta_update) retires only the
//!   patched rows and their in-neighbors (the kernel's exact per-row
//!   dependency set), so training-style patches keep the hot set warm
//!   — responses stay bit-identical to an uncached engine;
//! * non-blocking serving ([`ticket`]) — [`Engine::embed_begin`] /
//!   [`ShardedEngine::embed_begin`] return a [`Ticket`] instead of
//!   blocking, so one thread can hold thousands of in-flight requests
//!   and harvest completions with `poll`/`wait`/`wait_deadline` (shard
//!   tickets gather lazily on first poll); concurrent requests that
//!   miss the cache on the same vertex **coalesce** — exactly one
//!   enqueue computes the row and every waiter is back-filled,
//!   bit-identical to uncached serving and invalidation-safe;
//! * latency accounting — every request records into
//!   [`LatencyHistogram`](fusedmm_perf::LatencyHistogram)s, surfaced
//!   as p50/p90/p99 and throughput by [`Engine::metrics`] (per-shard
//!   and merged via [`ShardedEngine::metrics`]);
//! * observability ([`observe`]) — engines register every counter,
//!   gauge, and histogram with a
//!   [`MetricsRegistry`]
//!   ([`Engine::register_metrics`] /
//!   [`ShardedEngine::register_metrics`], plus
//!   [`register_kernel_profiles`] for the dispatcher's per-shape
//!   kernel accounting), exported as Prometheus text or JSON; sampled
//!   requests additionally record a full lifecycle span tree (enqueue
//!   → batch → kernel → cache fill → harvest) into a lock-free
//!   [`Tracer`] (`FUSEDMM_TRACE=<rate>`),
//!   dumpable as chrome://tracing JSON;
//! * admission control ([`admit`]) — an [`AdmissionPolicy`] caps
//!   in-flight requests and queued rows (`FUSEDMM_ADMIT_INFLIGHT` /
//!   `FUSEDMM_ADMIT_ROWS`): a load-shedding ladder first downgrades
//!   `Exact` requests to `CachedOnly` near the cap, then rejects with a
//!   typed [`ServeError::Shed`] at the cap — the queue never grows
//!   unboundedly;
//! * deadlines and degraded tiers ([`ticket`]) — requests carry an
//!   optional deadline and a [`Quality`] knob
//!   ([`Engine::embed_begin_opts`]): expired work is dropped before the
//!   kernel launch ([`ServeError::DeadlineExpired`]),
//!   [`Quality::CachedOnly`] answers straight from the result cache
//!   with per-row `served_degraded` marks, and
//!   [`Quality::TopKNeighbors`] aggregates only each node's strongest
//!   neighbors (degree-truncated kernel, measured error vs exact);
//! * fault isolation ([`fault`]) — a band-engine panic is caught at the
//!   dispatch boundary and surfaces as a typed per-part error: the
//!   failed part retries **once** on a healthy path (same pinned epoch,
//!   so an Exact retry stays bit-identical) before the ticket resolves
//!   [`ServeError::PartFailed`]; a [`FaultPlan`]
//!   (`FUSEDMM_FAULT_PLAN=panic_every=N,delay_fill_us=U,poison_segment=S`)
//!   injects panics, fill delays, and poisoned cache segments for chaos
//!   testing — every request provably ends harvested, degraded, shed,
//!   failed, or abandoned, and the request counters reconcile exactly;
//! * window harvesting ([`wait`]) — [`wait_any`] parks a caller on a
//!   whole window of tickets with O(1) wakeup work per completion (a
//!   shared wakeup queue, no poll loop).
//!
//! # Quickstart
//!
//! ```
//! use fusedmm_ops::OpSet;
//! use fusedmm_serve::{Engine, EngineConfig};
//! use fusedmm_sparse::{coo::Dedup, Coo, Dense};
//!
//! let mut coo = Coo::new(4, 4);
//! for u in 0..4usize {
//!     coo.push(u, (u + 1) % 4, 1.0);
//! }
//! let a = coo.to_csr(Dedup::Sum);
//! let feats = Dense::from_fn(4, 8, |r, c| (r * 8 + c) as f32 * 0.01);
//!
//! let engine = Engine::new(
//!     a,
//!     feats.clone(),
//!     feats,
//!     OpSet::sigmoid_embedding(None),
//!     EngineConfig::default(),
//! );
//! let z = engine.embed(&[2, 0]).unwrap();
//! assert_eq!((z.nrows(), z.ncols()), (2, 8));
//! let scores = engine.score_edges(&[(0, 1), (3, 2)]).unwrap();
//! assert_eq!(scores.len(), 2);
//! ```

pub mod admit;
pub mod batcher;
pub mod cache;
pub mod engine;
pub mod fault;
pub mod observe;
pub mod remote;
pub mod score;
pub mod shard;
pub mod store;
pub mod ticket;
pub mod wait;

pub use admit::AdmissionPolicy;
pub use cache::EmbedCache;
pub use fault::{quiet_injected_panics, FaultPlan, InjectedFault};
pub use observe::register_kernel_profiles;
// The graph crate's reordering strategies are part of this crate's
// public surface (EngineConfig::reordering).
pub use fusedmm_graph::Reordering;
// The cache crate's config/metrics are part of this crate's public
// surface (EngineConfig::cache, EngineMetrics::cache).
pub use fusedmm_cache::{CacheConfig, CacheMetrics};
// The perf crate's telemetry types are part of this crate's public
// surface (register_metrics, EngineConfig::tracer).
pub use fusedmm_perf::registry::{MetricsRegistry, MetricsSnapshot, Sample};
pub use fusedmm_perf::trace::Tracer;

pub use engine::{Engine, EngineConfig, EngineMetrics, ServeError};
pub use remote::{
    EpochRecord, PartOutcome, PartSlot, RemoteMetrics, RemoteShardedEngine, ShardTransport,
    WorkerEngine, WorkerError,
};
pub use score::{score_edges, score_edges_banded};
pub use shard::{ShardedEngine, ShardedMetrics};
pub use store::{EpochListener, FeatureEpoch, FeatureStore};
pub use ticket::{EmbedOptions, EmbedResponse, Quality, Ticket};
pub use wait::wait_any;
