//! Cache observability: lock-free counters plus the per-request
//! hit-ratio distribution.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use fusedmm_perf::gauge::Gauge;
use fusedmm_perf::hist::{RatioHistogram, RatioSnapshot};

/// Live counters a [`ResultCache`](crate::ResultCache) maintains on its
/// hot paths (all relaxed atomics — recording never contends).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Requested rows served from the cache, repeats included.
    pub hits: AtomicU64,
    /// Requested rows the cache did not serve (absent, stale or in
    /// flight), repeats included: `hits + misses` equals the rows
    /// requested.
    pub misses: AtomicU64,
    /// Rows written into the cache.
    pub inserts: AtomicU64,
    /// Rows retired by CLOCK eviction under budget pressure.
    pub evictions: AtomicU64,
    /// Rows retired precisely by delta-update touch sets (only counts
    /// entries actually present).
    pub invalidated_rows: AtomicU64,
    /// Whole-cache (publish) invalidations recorded.
    pub flushes: AtomicU64,
    /// Misses that coalesced onto another request's in-flight
    /// computation instead of computing their own row.
    pub coalesced_misses: AtomicU64,
    /// Row computations currently registered in flight (owners not yet
    /// filled or aborted), with the deepest window ever observed.
    pub inflight: Gauge,
    /// Approximate bytes currently held across all segments.
    pub bytes: AtomicUsize,
    /// Entries currently resident across all segments.
    pub entries: AtomicUsize,
    /// Per-request hit-ratio distribution (one observation per embed
    /// request that consulted the cache).
    pub hit_ratio: RatioHistogram,
}

impl CacheStats {
    /// Point-in-time summary.
    pub fn snapshot(&self) -> CacheMetrics {
        // One consistent (current, peak) pair — two separate loads
        // could interleave with a registration and report peak <
        // current.
        let inflight = self.inflight.snapshot();
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidated_rows: self.invalidated_rows.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            coalesced_misses: self.coalesced_misses.load(Ordering::Relaxed),
            inflight_rows: inflight.current,
            inflight_peak_rows: inflight.peak,
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            hit_ratio: self.hit_ratio.snapshot(),
        }
    }
}

/// Point-in-time cache statistics: what the serving layer's collector
/// exports as `fusedmm_cache_*` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheMetrics {
    /// Requested rows served from the cache.
    pub hits: u64,
    /// Requested rows not served from the cache: `hits + misses`
    /// equals the rows requested.
    pub misses: u64,
    /// Rows written into the cache.
    pub inserts: u64,
    /// Rows retired by CLOCK eviction.
    pub evictions: u64,
    /// Rows retired precisely by delta-update touch sets.
    pub invalidated_rows: u64,
    /// Publish (whole-cache) invalidations.
    pub flushes: u64,
    /// Misses that coalesced onto an in-flight computation (each saved
    /// one row computation).
    pub coalesced_misses: u64,
    /// Row computations currently registered in flight.
    pub inflight_rows: u64,
    /// Deepest in-flight row window ever observed.
    pub inflight_peak_rows: u64,
    /// Approximate resident bytes.
    pub bytes: usize,
    /// Resident entries.
    pub entries: usize,
    /// Per-request hit-ratio distribution.
    pub hit_ratio: RatioSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = CacheStats::default();
        s.hits.fetch_add(3, Ordering::Relaxed);
        s.misses.fetch_add(1, Ordering::Relaxed);
        s.hit_ratio.record_fraction(3, 4);
        let m = s.snapshot();
        assert_eq!((m.hits, m.misses), (3, 1));
        assert_eq!(m.hit_ratio.count, 1);
    }
}
