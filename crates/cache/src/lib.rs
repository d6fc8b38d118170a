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
//!   entry fails its stamp comparison when a request probes it. No
//!   O(entries) sweep on the write path.
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
//! request pinned to epoch `E` hits it only when the entry's stamp `e`
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
//! # One decision per id, under its segment lock
//!
//! A request probes the cache once: [`ResultCache::route`] groups its
//! ids by segment, takes each touched segment's lock once (never two at
//! a time), and under it decides every id of the segment for good:
//!
//! * **hit** — a valid resident row is copied into every position of
//!   the response that asks for it;
//! * **coalesced miss** — an equivalent computation is in flight: a
//!   handle of the caller's choosing (the `W` of [`ResultCache<W>`]) is
//!   registered with it, and the owner's resolution hands it back;
//! * **owned miss** — the first miss in its validity window: the
//!   request computes the row and resolves its registration with
//!   [`ResultCache::resolve`], one lock per segment.
//!
//! Decision and resolution each happen under the segment lock, so a row
//! is never computed twice within one validity window, and no fill can
//! land unseen between a miss and its routing. Coalescing applies the
//! hit's validity predicate to the registration's epoch stamp, so a
//! waiter only ever receives the row it would have computed itself; an
//! epoch bump that invalidates the vertex mid-flight makes later
//! requests re-compute. A cache-only read runs the same pass without
//! registering.

#![forbid(unsafe_code)]

pub mod cache;
pub mod stats;

pub use cache::{CacheConfig, InflightOwner, ResultCache, Route};
pub use stats::{CacheMetrics, CacheStats};
