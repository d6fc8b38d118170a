//! Repetition timing, matching the paper's measurement protocol.
//!
//! §V-A: "For all of our experiments, we measure the time for 10
//! iterations and report the average time." [`time_iterations`] does
//! exactly that (with a warm-up run excluded), and also reports the
//! minimum, which some ablations prefer as the lower-noise statistic.

use std::time::Instant;

/// Timing summary over repeated runs of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Mean seconds per iteration — the paper's reported number.
    pub avg: f64,
    /// Fastest iteration.
    pub min: f64,
    /// Slowest iteration.
    pub max: f64,
    /// Number of timed iterations.
    pub reps: usize,
}

impl TimingStats {
    /// Format as seconds with three decimals, the paper's table style.
    pub fn fmt_avg(&self) -> String {
        format!("{:.3}", self.avg)
    }
}

/// Run `f` once untimed (warm-up), then `reps` timed iterations.
///
/// # Panics
/// Panics if `reps == 0`.
pub fn time_iterations(reps: usize, mut f: impl FnMut()) -> TimingStats {
    assert!(reps > 0, "need at least one timed iteration");
    f(); // warm-up: page in operands, settle the tuner
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        min = min.min(dt);
        max = max.max(dt);
    }
    TimingStats { avg: total / reps as f64, min, max, reps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_warmup_plus_reps() {
        let calls = AtomicUsize::new(0);
        let stats = time_iterations(5, || {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert_eq!(stats.reps, 5);
    }

    #[test]
    fn min_le_avg_le_max() {
        let mut spin = 0u64;
        let stats = time_iterations(4, || {
            for i in 0..10_000u64 {
                spin = spin.wrapping_add(i);
            }
        });
        assert!(stats.min <= stats.avg + 1e-12);
        assert!(stats.avg <= stats.max + 1e-12);
        assert!(stats.min > 0.0);
        std::hint::black_box(spin);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_reps_panics() {
        let _ = time_iterations(0, || {});
    }

    #[test]
    fn formats_three_decimals() {
        let s = TimingStats { avg: 0.12345, min: 0.1, max: 0.2, reps: 10 };
        assert_eq!(s.fmt_avg(), "0.123");
    }
}
