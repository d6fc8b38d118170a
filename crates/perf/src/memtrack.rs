//! Counting global allocator for memory experiments.
//!
//! Fig. 10(b) of the paper compares the memory consumption of DGL's
//! unfused pipeline against FusedMM as the feature dimension grows.
//! To measure the same quantity we wrap the system allocator with
//! relaxed atomic counters for live and peak bytes. Benchmark binaries
//! opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: fusedmm_perf::CountingAllocator = fusedmm_perf::CountingAllocator;
//! ```
//!
//! The counters are process-global; scoped measurements use
//! [`reset_peak`] + [`peak_bytes`] around the region of interest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicUsize = AtomicUsize::new(0);

/// A `#[global_allocator]` wrapper around [`System`] that tracks live
/// and peak allocation in bytes.
pub struct CountingAllocator;

// SAFETY: delegates all allocation to `System`; only bookkeeping added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // (nonzero-sized `layout`), which is `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            track_alloc(layout.size());
        }
        p
    }

    // Without this the trait's default (`alloc` + `write_bytes`) would
    // replace `System`'s `calloc` path: every `vec![0; n]` in a process
    // that installs the counter would be eagerly touched, and the
    // accounting allocator would change the memory behaviour it is
    // there to measure.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc` — the caller's nonzero-sized `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            track_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and every block this allocator hands out is
        // `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        track_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` is a live `System` block
        // (see `dealloc`) of `layout`, and a nonzero `new_size` that
        // does not overflow when rounded to `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            track_dealloc(layout.size());
            track_alloc(new_size);
        }
        p
    }
}

#[inline]
fn track_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    // Monotone max; benign race tolerated (peak may be a few bytes low
    // under contention, irrelevant at megabyte scale).
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(cur) => peak = cur,
        }
    }
    ENABLED.store(1, Ordering::Relaxed);
}

#[inline]
fn track_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

/// Bytes currently allocated (0 until a binary registers the allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark since process start or the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Whether a counting allocator is actually registered in this process
/// (tests and binaries that skip registration read zeros).
pub fn is_active() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Measure the peak allocation increase caused by `f`, in bytes, along
/// with its result. Requires the allocator to be registered; returns 0
/// extra bytes otherwise.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is not registered in unit tests (registering a
    // global allocator in a lib crate would impose it on every
    // dependent). These tests exercise the bookkeeping directly.

    #[test]
    fn counters_track_alloc_dealloc() {
        let before = live_bytes();
        track_alloc(1000);
        assert_eq!(live_bytes(), before + 1000);
        track_dealloc(1000);
        assert_eq!(live_bytes(), before);
    }

    /// `alloc_zeroed` must be counted exactly like `alloc` (and hand
    /// back zeroed memory): the same live delta while held, a peak that
    /// covers it, and nothing left after `dealloc`. Other tests move the
    /// process-global counters concurrently — by balanced amounts,
    /// except while one is mid-flight, hence deltas and the retry.
    #[test]
    fn alloc_zeroed_is_counted_like_alloc() {
        let layout = Layout::from_size_align(1 << 16, 64).unwrap();
        let delta = |zeroed: bool| {
            let before = live_bytes();
            // SAFETY: nonzero-sized layout; the block is freed below
            // with the same layout and not used after.
            let p = unsafe {
                if zeroed {
                    CountingAllocator.alloc_zeroed(layout)
                } else {
                    CountingAllocator.alloc(layout)
                }
            };
            assert!(!p.is_null());
            let live = live_bytes() - before;
            let peak_covers = peak_bytes() >= before + layout.size();
            if zeroed {
                // SAFETY: `p` is valid for `layout.size()` initialised bytes.
                let bytes = unsafe { std::slice::from_raw_parts(p, layout.size()) };
                assert!(bytes.iter().all(|&b| b == 0));
            }
            // SAFETY: allocated above by the same allocator and layout.
            unsafe { CountingAllocator.dealloc(p, layout) };
            (live, peak_covers, live_bytes() as isize - before as isize)
        };
        let agree = (0..100).any(|_| {
            let (plain, zeroed) = (delta(false), delta(true));
            plain == zeroed && plain == (layout.size(), true, 0)
        });
        assert!(agree, "alloc and alloc_zeroed never agreed on live and peak bytes");
    }

    #[test]
    fn peak_is_monotone_until_reset() {
        reset_peak();
        let base = peak_bytes();
        track_alloc(5000);
        assert!(peak_bytes() >= base + 5000);
        track_dealloc(5000);
        assert!(peak_bytes() >= base + 5000, "peak survives dealloc");
        reset_peak();
        assert!(peak_bytes() <= base + 64, "reset returns to live level");
    }

    #[test]
    fn measure_peak_reports_delta() {
        // With tracking active (track_alloc was called above), simulate
        // a region that allocates then frees.
        let ((), extra) = measure_peak(|| {
            track_alloc(4096);
            track_dealloc(4096);
        });
        assert!(extra >= 4096);
    }
}
