//! Lock-free latency histogram and throughput accounting for the
//! serving engine.
//!
//! Serving cares about the latency *distribution* — the p99 a user at
//! the tail experiences — not the mean a batch benchmark reports.
//! [`LatencyHistogram`] records durations into logarithmically spaced
//! buckets (4 sub-buckets per power of two, ≤ ~19% relative quantile
//! error) using only relaxed atomics, so concurrent request threads
//! record without coordination. [`HistogramSnapshot`] extracts count,
//! mean, p50/p90/p99, and max at read time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power of two of nanoseconds.
const SUBBUCKETS: usize = 4;
/// Powers of two covered: 1ns up to ~2^40 ns (~18 minutes).
const MAJORS: usize = 40;
const BUCKETS: usize = MAJORS * SUBBUCKETS;

/// A concurrent histogram of durations with log-spaced buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        if nanos < 2 {
            return 0;
        }
        // floor(log2), then the position within that power-of-two
        // span quantized to SUBBUCKETS slots.
        let major = 63 - nanos.leading_zeros() as usize;
        let span_lo = 1u64 << major;
        let minor = ((nanos - span_lo) * SUBBUCKETS as u64 / span_lo) as usize;
        (major * SUBBUCKETS + minor).min(BUCKETS - 1)
    }

    /// Lower bound (in nanoseconds) of bucket `i` — the conservative
    /// value quantiles report.
    fn bucket_floor(i: usize) -> u64 {
        let major = i / SUBBUCKETS;
        let minor = (i % SUBBUCKETS) as u64;
        let span_lo = 1u64 << major;
        span_lo + span_lo * minor / SUBBUCKETS as u64
    }

    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) of recorded latencies, resolved
    /// to the containing bucket's floor. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based ceil as in the
        // nearest-rank definition.
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Duration::from_nanos(Self::bucket_floor(i)));
            }
        }
        Some(Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed)))
    }

    /// Add every observation recorded in `other` into `self`,
    /// bucket-wise — the cross-shard merge a sharded engine uses to
    /// report one fleet-wide latency distribution next to the
    /// per-shard ones. Concurrent `record`s on either histogram are
    /// safe; the merge sees each observation at most once.
    pub fn absorb(&self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter().zip(&other.buckets) {
            let v = src.load(Ordering::Relaxed);
            if v > 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.total_nanos.fetch_add(other.total_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_nanos.fetch_max(other.max_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Consistent point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let total_nanos = self.total_nanos.load(Ordering::Relaxed);
        let mean = total_nanos.checked_div(count).map_or(Duration::ZERO, Duration::from_nanos);
        HistogramSnapshot {
            count,
            total: Duration::from_nanos(total_nanos),
            mean,
            p50: self.quantile(0.50).unwrap_or(Duration::ZERO),
            p90: self.quantile(0.90).unwrap_or(Duration::ZERO),
            p99: self.quantile(0.99).unwrap_or(Duration::ZERO),
            max: Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// A fixed-size family of [`LatencyHistogram`]s indexed by a small
/// integer — one per serving shard, worker, or priority class. Each
/// member records independently (same relaxed-atomic hot path);
/// [`HistogramVec::merged`] folds them into one distribution for
/// fleet-wide percentiles, and per-member snapshots expose stragglers.
#[derive(Debug)]
pub struct HistogramVec {
    members: Vec<LatencyHistogram>,
}

impl HistogramVec {
    /// A family of `len` empty histograms.
    pub fn new(len: usize) -> Self {
        HistogramVec { members: (0..len).map(|_| LatencyHistogram::new()).collect() }
    }

    /// Number of member histograms.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the family has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Record one observation into member `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn record(&self, i: usize, latency: Duration) {
        self.members[i].record(latency);
    }

    /// The member histogram at `i`.
    pub fn member(&self, i: usize) -> &LatencyHistogram {
        &self.members[i]
    }

    /// Snapshot of member `i`.
    pub fn snapshot(&self, i: usize) -> HistogramSnapshot {
        self.members[i].snapshot()
    }

    /// All observations across every member, merged into one
    /// distribution.
    pub fn merged(&self) -> HistogramSnapshot {
        let all = LatencyHistogram::new();
        for m in &self.members {
            all.absorb(m);
        }
        all.snapshot()
    }
}

/// A concurrent histogram of ratios in `[0, 1]`, quantized to whole
/// percentage points — the shape a per-request cache hit ratio has.
/// Same relaxed-atomic hot path as [`LatencyHistogram`], but with 101
/// uniform buckets (one per percent) instead of log-spaced nanosecond
/// buckets, so the interesting endpoints (all-miss at 0%, all-hit at
/// 100%) are exact.
#[derive(Debug)]
pub struct RatioHistogram {
    /// `buckets[p]` counts observations that rounded to `p` percent.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed ratios in basis points (1/10,000), for the mean.
    total_bp: AtomicU64,
}

impl Default for RatioHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl RatioHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        RatioHistogram {
            buckets: (0..101).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            total_bp: AtomicU64::new(0),
        }
    }

    /// Record one ratio observation (clamped to `[0, 1]`; NaN counts
    /// as 0).
    pub fn record(&self, ratio: f64) {
        let r = if ratio.is_finite() { ratio.clamp(0.0, 1.0) } else { 0.0 };
        let pct = (r * 100.0).round() as usize;
        self.buckets[pct.min(100)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_bp.fetch_add((r * 10_000.0).round() as u64, Ordering::Relaxed);
    }

    /// Record `part` out of `whole` (e.g. hits out of requested rows).
    /// `whole == 0` records nothing.
    pub fn record_fraction(&self, part: u64, whole: u64) {
        if whole > 0 {
            self.record(part as f64 / whole as f64);
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile of recorded ratios, resolved to its percent
    /// bucket. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (p, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(p as f64 / 100.0);
            }
        }
        Some(1.0)
    }

    /// Consistent point-in-time summary.
    pub fn snapshot(&self) -> RatioSnapshot {
        let count = self.count();
        let mean = if count == 0 {
            0.0
        } else {
            self.total_bp.load(Ordering::Relaxed) as f64 / 10_000.0 / count as f64
        };
        RatioSnapshot {
            count,
            mean,
            p50: self.quantile(0.50).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
        }
    }
}

/// Point-in-time ratio summary produced by [`RatioHistogram::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Arithmetic mean ratio.
    pub mean: f64,
    /// Median ratio.
    pub p50: f64,
    /// 99th-percentile ratio.
    pub p99: f64,
}

impl std::fmt::Display for RatioSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}% p50={:.0}% p99={:.0}%",
            self.count,
            self.mean * 100.0,
            self.p50 * 100.0,
            self.p99 * 100.0
        )
    }
}

/// Point-in-time latency summary produced by
/// [`LatencyHistogram::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all observations (the Prometheus `_sum` series;
    /// `mean` is this divided by `count`, truncated to nanoseconds).
    pub total: Duration,
    /// Arithmetic mean latency.
    pub mean: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 90th-percentile latency.
    pub p90: Duration,
    /// 99th-percentile latency — the serving SLO number.
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

impl std::fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3?} p50={:.3?} p90={:.3?} p99={:.3?} max={:.3?}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
        assert_eq!(h.snapshot().p99, Duration::ZERO);
    }

    #[test]
    fn single_observation_dominates_all_quantiles() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        for q in [s.p50, s.p90, s.p99] {
            // Bucket floor is within ~19% below the true value.
            assert!(q <= Duration::from_micros(100));
            assert!(q >= Duration::from_micros(80), "{q:?}");
        }
    }

    #[test]
    fn quantiles_order_and_bound() {
        let h = LatencyHistogram::new();
        // 98 fast observations and 2 slow ones: the nearest-rank p99
        // (rank 99 of 100) must land in the slow bucket.
        for _ in 0..98 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(10));
        h.record(Duration::from_millis(10));
        let s = h.snapshot();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p50 < Duration::from_micros(11));
        assert!(s.p99 >= Duration::from_millis(8), "p99 {:?}", s.p99);
        assert!(s.max >= Duration::from_millis(10));
    }

    #[test]
    fn mean_tracks_total() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(30));
        let s = h.snapshot();
        assert_eq!(s.mean, Duration::from_micros(20));
        assert_eq!(s.total, Duration::from_micros(40), "sum is exact, not mean*count");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record(Duration::from_nanos(100 + t * 13 + i));
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn absorb_merges_counts_mean_and_max() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(30));
        b.record(Duration::from_millis(5));
        a.absorb(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert!(s.max >= Duration::from_millis(5));
        // Mean of 10us + 30us + 5000us.
        assert_eq!(s.mean, Duration::from_nanos((10_000 + 30_000 + 5_000_000) / 3));
        // The donor is untouched.
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn histogram_vec_tracks_members_and_merges() {
        let v = HistogramVec::new(3);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        v.record(0, Duration::from_micros(10));
        v.record(0, Duration::from_micros(10));
        v.record(2, Duration::from_millis(2));
        assert_eq!(v.snapshot(0).count, 2);
        assert_eq!(v.snapshot(1).count, 0);
        assert_eq!(v.member(2).count(), 1);
        let merged = v.merged();
        assert_eq!(merged.count, 3);
        assert!(merged.max >= Duration::from_millis(2), "straggler member dominates max");
    }

    #[test]
    fn ratio_histogram_tracks_endpoints_exactly() {
        let h = RatioHistogram::new();
        assert!(h.quantile(0.5).is_none());
        for _ in 0..9 {
            h.record(1.0);
        }
        h.record(0.0);
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert!((s.mean - 0.9).abs() < 1e-9);
        assert_eq!(s.p50, 1.0, "9 of 10 observations are all-hit");
        assert_eq!(s.p99, 1.0);
        assert_eq!(h.quantile(0.05), Some(0.0), "the all-miss request is exact");
    }

    #[test]
    fn ratio_fraction_and_clamping() {
        let h = RatioHistogram::new();
        h.record_fraction(3, 4);
        h.record_fraction(0, 0); // no-op
        h.record(7.5); // clamped to 1.0
        h.record(f64::NAN); // counts as 0
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(h.quantile(0.4), Some(0.75));
        assert_eq!(s.p99, 1.0);
    }

    #[test]
    fn bucket_floor_is_monotone_and_below_members() {
        let mut prev = 0;
        for i in 0..BUCKETS {
            let f = LatencyHistogram::bucket_floor(i);
            assert!(f >= prev, "floor not monotone at {i}");
            prev = f;
        }
        for nanos in [1u64, 2, 3, 100, 1023, 1024, 1025, 1_000_000, 123_456_789] {
            let idx = LatencyHistogram::bucket_index(nanos);
            assert!(LatencyHistogram::bucket_floor(idx) <= nanos, "floor above member {nanos}");
        }
    }
}
