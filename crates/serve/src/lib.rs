//! `fusedmm-serve` — a batched embedding/inference serving engine on
//! top of the FusedMM kernel.
//!
//! The kernel crates answer one-shot, whole-graph calls. Serving
//! traffic looks different: many concurrent callers each asking for a
//! few vertices ("refresh the embeddings of these 64 users", "score
//! these 200 candidate edges"), with latency percentiles — not batch
//! wall-clock — as the figure of merit. This crate provides that layer:
//!
//! * one front end ([`front`]) — [`FrontEnd`] owns the whole request
//!   path once: id validation and reordering translation, admission,
//!   deadlines, tracing, epoch pinning, the result cache, the per-shard
//!   scatter/gather, the ledger and the metrics. It is generic over a
//!   [`ShardTransport`] ([`transport`]) that carries each shard's part
//!   to whoever computes it, and answers three request kinds:
//!   * [`FrontEnd::embed`] / [`FrontEnd::embed_begin_opts`] — per-node
//!     embedding refresh for an arbitrary node subset, through the
//!     micro-batcher and a row-subset launch
//!     ([`Launch::Rows`](fusedmm_core::Launch::Rows));
//!   * [`FrontEnd::score_edges`] — SDDMM-only scoring of candidate
//!     `(u, v)` pairs, no aggregation and no edge-sized intermediate;
//!   * [`FrontEnd::infer_full`] — whole-graph inference (the classic
//!     FusedMM call, plan-driven) over in-process bands.
//! * the deployments, each a constructor over that front end (every
//!   request method reached through `Deref`): [`Engine`] — one
//!   in-process [`LocalBands`] band holding the whole graph;
//!   [`ShardedEngine`] — the graph cut into PART1D nnz-balanced bands,
//!   bit-identical to a single engine; [`RemoteShardedEngine`] — bands
//!   in worker processes behind a socket transport (`fusedmm-rpc`),
//!   with [`WorkerEngine`] the one-band front end inside each worker;
//! * micro-batching ([`batcher`]) — a band has no thread of its own:
//!   `embed_begin` only enqueues, and a thread waiting on one of the
//!   band's results becomes a combiner — a blocking `embed` always, for
//!   the parts it claimed, and otherwise the first waiter to find no
//!   combiner — coalescing the queued parts it may run into one
//!   deduplicated row batch per drain, launching it on its own thread
//!   (through the rayon pool when large) and scattering the rows back
//!   to each part until none is left or its own answer is in (`poll`:
//!   one batch; a request with a deadline runs its parts as it begins);
//! * live feature updates ([`store`]) — engines borrow `X`/`Y` through
//!   an epoch-versioned [`FeatureStore`]: readers pin RCU-style
//!   snapshots, writers [`publish`](FeatureStore::publish) or
//!   [`delta_update`](FeatureStore::delta_update) refreshed embeddings
//!   without stopping traffic, and every request is computed from
//!   exactly one epoch (responses are never torn across a swap);
//! * graph reordering ([`EngineConfig::reordering`]) — engines can
//!   renumber a skewed graph at load time ([`Reordering::DegreeSort`] /
//!   [`Reordering::RcmBfs`]) for locality and band balance, translating
//!   ids at the serving boundary so external vertex ids never change
//!   and every response stays bit-identical to unreordered serving;
//! * result caching — with [`EngineConfig::cache`] set,
//!   hot rows are served from an epoch-aware
//!   [`ResultCache`](fusedmm_cache::ResultCache): a
//!   [`publish`](FeatureStore::publish) invalidates everything lazily
//!   by epoch stamp, while a
//!   [`delta_update`](FeatureStore::delta_update) retires only the
//!   patched rows and their in-neighbors (the kernel's exact per-row
//!   dependency set), so training-style patches keep the hot set warm
//!   — responses stay bit-identical to an uncached engine;
//! * non-blocking serving ([`ticket`]) — [`FrontEnd::embed_begin`]
//!   returns a [`Ticket`] instead of blocking, so one thread can hold
//!   thousands of in-flight requests and harvest completions with
//!   `poll`/`wait`/`wait_deadline` (tickets gather lazily on first
//!   poll); concurrent requests that
//!   miss the cache on the same vertex **coalesce** — exactly one
//!   enqueue computes the row and every waiter is back-filled,
//!   bit-identical to uncached serving and invalidation-safe;
//! * latency accounting — every answered request records once into a
//!   [`LatencyHistogram`](fusedmm_perf::LatencyHistogram), surfaced
//!   as p50/p90/p99 under `fusedmm_embed_latency_seconds`;
//!   [`FrontEnd::metrics`] is one scrape of the front end's samples,
//!   the same names a [`MetricsRegistry`] exports;
//! * observability ([`observe`]) — front ends register every counter,
//!   gauge, and histogram with a
//!   [`MetricsRegistry`]
//!   ([`FrontEnd::register_metrics`], plus
//!   [`register_kernel_profiles`] for the per-shape kernel accounting
//!   of every launch, serving ones included), exported as Prometheus
//!   text or JSON; sampled requests additionally record a full
//!   lifecycle span tree (enqueue
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
//!   ([`FrontEnd::embed_begin_opts`]): expired work is dropped before the
//!   kernel launch ([`ServeError::DeadlineExpired`]),
//!   [`Quality::CachedOnly`] answers straight from the result cache
//!   with per-row `served_degraded` marks, and
//!   [`Quality::TopKNeighbors`] aggregates only each node's strongest
//!   neighbors (degree-truncated kernel, measured error vs exact);
//! * fault isolation ([`fault`]) — a band's kernel panic is caught at
//!   the dispatch boundary and surfaces as a typed per-part error: the
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

#![forbid(unsafe_code)]

pub mod admit;
mod band;
pub mod batcher;
mod cache;
pub mod engine;
pub mod fault;
pub mod front;
pub mod observe;
pub mod remote;
pub mod score;
pub mod shard;
pub mod store;
pub mod ticket;
pub mod transport;
pub mod wait;

pub use admit::AdmissionPolicy;
pub use fault::{quiet_injected_panics, FaultPlan, InjectedFault};
pub use observe::register_kernel_profiles;
// The graph crate's reordering strategies are part of this crate's
// public surface (EngineConfig::reordering).
pub use fusedmm_graph::Reordering;
// The cache crate's config is part of this crate's public surface
// (EngineConfig::cache).
pub use fusedmm_cache::CacheConfig;
// The perf crate's telemetry types are part of this crate's public
// surface (register_metrics, EngineConfig::tracer).
pub use fusedmm_perf::registry::{MetricsRegistry, MetricsSnapshot, Sample};
pub use fusedmm_perf::trace::Tracer;

pub use engine::{Engine, EngineConfig, ServeError};
pub use front::FrontEnd;
pub use remote::{EpochRecord, RemoteShardedEngine, WorkerEngine, WorkerError};
pub use score::{score_edges, score_edges_banded};
pub use shard::ShardedEngine;
pub use store::{EpochListener, FeatureEpoch, FeatureStore};
pub use ticket::{EmbedOptions, EmbedResponse, Quality, Ticket};
pub use transport::{LocalBands, PartOutcome, PartSlot, ShardTransport};
pub use wait::wait_any;
