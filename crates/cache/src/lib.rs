//! `fusedmm-cache` — an epoch-aware embedding result cache.
//!
//! FusedMM makes each embedding computation fast; a serving engine
//! under real traffic still recomputes the same hot rows thousands of
//! times per second. [`ResultCache`] closes that gap: it memoizes
//! computed output rows (`z_u`) keyed by vertex id, behind lock-striped
//! segments with CLOCK (second-chance) eviction under a byte budget —
//! and it understands the serving stack's epoch-versioned write path:
//!
//! * **Publish** (whole-matrix swap) invalidates *everything*, lazily:
//!   the cache records the new epoch as its flush floor and every older
//!   entry fails its stamp comparison at lookup time. No O(entries)
//!   sweep on the write path.
//! * **Delta update** (a row patch) invalidates *precisely*: only the
//!   patched vertices and the rows whose aggregation reads a patched
//!   `Y` row (their in-neighbors) are retired, so a training-style row
//!   patch does not flush the hot set. The cache takes that row set
//!   from its caller ([`ResultCache::invalidate_rows`]); the serving
//!   layer finds it in the graph it already holds when the pattern is
//!   symmetric, and in a transpose of the cached rows otherwise.
//!
//! # Validity contract
//!
//! Every cached row carries the feature epoch it was computed at. A
//! lookup pinned to epoch `E` is a hit only when the entry's stamp `e`
//! satisfies all of:
//!
//! 1. `e <= E` — never serve a row newer than the reader's pinned
//!    snapshot (bit-identity with an uncached engine requires serving
//!    exactly the pinned epoch);
//! 2. `e >= flush_epoch` — no publish landed after the row was
//!    computed;
//! 3. `e >= last_touch[node]` — no delta update touched this row's
//!    dependency set after it was computed.
//!
//! All three are conservative: a stale-looking entry is recomputed, a
//! valid-looking entry is provably identical to a fresh computation.
//! The writer-side ordering that makes (2) and (3) race-free is owned
//! by the feature store: it announces an epoch to invalidation
//! listeners **before** any reader can pin it, so there is no window in
//! which a reader at the new epoch can hit a not-yet-retired entry.
//!
//! # Miss coalescing
//!
//! Concurrent requests that miss on the *same* vertex used to each
//! compute the row. [`ResultCache::route_miss`] closes that gap with
//! in-flight entry states: the first miss in a validity window becomes
//! the **owner** (it computes the row and resolves the registration
//! with [`ResultCache::fill`]), later misses become **waiters**
//! ([`cache::RowWaiter`]) back-filled when the owner's fill lands.
//! Coalescing applies the exact lookup validity predicate to the
//! in-flight registration's epoch stamp, so a waiter only ever receives
//! a row bit-identical to what it would have computed itself — and an
//! epoch bump that invalidates the vertex mid-flight makes later
//! requests re-compute instead of consuming the stale fill.

#![forbid(unsafe_code)]

pub mod cache;
pub mod stats;

pub use cache::{CacheConfig, FillAborted, InflightOwner, MissRoute, ResultCache, RowWaiter};
pub use stats::{CacheMetrics, CacheStats};
