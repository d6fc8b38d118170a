//! The timed pass: fixed-op-count segments, the `/proc/stat` steal
//! gate that decides which of them count, and the statistics taken
//! over the ones that do.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::spans::Recorder;

/// What one user-visible call did. The workload times the call itself
/// so its correctness checks stay off the latency clock.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub latency: Duration,
    /// Output rows completed.
    pub rows: usize,
    /// Refused, errored or wrong answer: counted, and excluded from
    /// the latency sample.
    pub failed: bool,
}

/// A closed-loop workload: `callers()` threads each issue their next
/// call only after the previous one returned.
pub trait Workload: Sync {
    fn callers(&self) -> usize;

    /// Calls each caller makes in one segment — a fixed constant, not
    /// calibrated at run time.
    fn segment_calls(&self) -> usize;

    /// Untimed work before the segment that starts at call `first`
    /// (a write the segment's reads then run against).
    fn before_segment(&self, _first: usize) {}

    /// Make call `index` of `caller`. With a recorder, also record a
    /// span around every call into a layer.
    fn call(&self, caller: usize, index: usize, rec: Option<&mut Recorder>) -> Call;
}

/// The aggregate `steal` column of `/proc/stat`'s first line, in
/// clock ticks: time this guest was runnable while the host ran
/// someone else. `None` when the line or the column is missing.
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal …
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Linux reports `/proc/stat` in USER_HZ ticks, which is 100 on every
/// supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// A segment is quiet when steal took at most this share of the
/// CPU-seconds the guest could have used.
const QUIET_STEAL_SHARE: f64 = 0.01;

/// Reads steal around segments. Without a steal column the gate is
/// off: every segment counts, and the report says so.
pub struct StealGate {
    pub nproc: usize,
    pub enabled: bool,
    /// Returns the current text of `/proc/stat`.
    source: Box<dyn Fn() -> Option<String>>,
}

impl StealGate {
    pub fn new(nproc: usize, source: Box<dyn Fn() -> Option<String>>) -> StealGate {
        let mut gate = StealGate { nproc, enabled: true, source };
        gate.enabled = gate.read().is_some();
        if !gate.enabled {
            eprintln!("warning: /proc/stat has no steal column; the steal gate is off");
        }
        gate
    }

    /// A gate that reads nothing: for passes whose segments all count.
    pub fn off() -> StealGate {
        StealGate { nproc: 1, enabled: false, source: Box::new(|| None) }
    }

    pub fn system(nproc: usize) -> StealGate {
        StealGate::new(nproc, Box::new(|| std::fs::read_to_string("/proc/stat").ok()))
    }

    pub fn read(&self) -> Option<u64> {
        parse_steal(&(self.source)()?)
    }

    /// Steal as a share of `wall × nproc`, given the two readings.
    pub fn steal_share(&self, before: Option<u64>, after: Option<u64>, wall: f64) -> Option<f64> {
        let ticks = after?.saturating_sub(before?);
        Some(ticks as f64 / TICKS_PER_SECOND / (wall * self.nproc as f64))
    }
}

/// One segment's sample.
#[derive(Debug, Clone)]
pub struct Segment {
    pub wall: f64,
    pub rows: usize,
    /// Latencies of the calls that succeeded, µs.
    pub latency_us: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// `None` when the gate is off.
    pub steal_share: Option<f64>,
}

impl Segment {
    pub fn quiet(&self) -> bool {
        self.steal_share.is_none_or(|s| s <= QUIET_STEAL_SHARE)
    }
}

/// Run calls `first..first + calls` of every caller; with `recorders`
/// (one per caller), record spans.
pub fn run_calls<W: Workload>(
    w: &W,
    first: usize,
    calls: usize,
    gate: &StealGate,
    mut recorders: Option<&mut [Recorder]>,
) -> Segment {
    let callers = w.callers();
    w.before_segment(first);
    let before = gate.enabled.then(|| gate.read()).flatten();
    let start = Instant::now();
    let per_caller: Vec<Vec<Call>> = if callers == 1 {
        let mut rec = recorders.as_deref_mut().map(|r| &mut r[0]);
        vec![(first..first + calls).map(|i| w.call(0, i, rec.as_deref_mut())).collect()]
    } else {
        // The barrier releases every caller at once; the segment's
        // wall ends when the last of them returns.
        let barrier = Barrier::new(callers);
        let mut recs: Vec<Option<&mut Recorder>> = match recorders {
            Some(r) => r.iter_mut().map(Some).collect(),
            None => (0..callers).map(|_| None).collect(),
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = recs
                .iter_mut()
                .enumerate()
                .map(|(c, rec)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        (first..first + calls)
                            .map(|i| w.call(c, i, rec.as_deref_mut()))
                            .collect::<Vec<Call>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
        })
    };
    let wall = start.elapsed().as_secs_f64();
    let after = gate.enabled.then(|| gate.read()).flatten();
    let all = per_caller.iter().flatten();
    Segment {
        wall,
        rows: all.clone().filter(|c| !c.failed).map(|c| c.rows).sum(),
        latency_us: all
            .clone()
            .filter(|c| !c.failed)
            .map(|c| c.latency.as_secs_f64() * 1e6)
            .collect(),
        attempted: callers * calls,
        failed: all.filter(|c| c.failed).count(),
        steal_share: gate.steal_share(before, after, wall),
    }
}

/// How long the timed pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Measure for `seconds`; when fewer than `min_quiet` segments
    /// were quiet by then, keep going until that many are, for up to
    /// twice as long and not past `extend_until` (bursts of steal here
    /// last 20–60 s, but a run may not wait them out at any price).
    Seconds { seconds: f64, min_quiet: usize, extend_until: Instant },
    /// Exactly this many segments (`--smoke`).
    Segments(usize),
}

/// Fewer quiet segments than this in a run and it is marked noisy:
/// half of what 9 s in segments of ≈ 0.5 s give.
pub const MIN_QUIET: usize = 9;

/// Everything the timed pass measured.
#[derive(Debug, Clone)]
pub struct Timed {
    pub segments: Vec<Segment>,
    /// Calls made per caller, so later passes continue the id stream.
    pub next_index: usize,
}

impl Timed {
    /// Several instances' passes as one, for totals over the run.
    pub fn pooled<'a>(parts: impl Iterator<Item = &'a Timed>) -> Timed {
        let segments = parts.flat_map(|t| t.segments.iter().cloned()).collect();
        Timed { segments, next_index: 0 }
    }

    /// The segments the metrics use: the quiet ones. When none was
    /// quiet a run must still report numbers (it is marked noisy), so
    /// the least-stolen third stands in.
    pub fn counted(&self) -> Vec<&Segment> {
        let quiet: Vec<&Segment> = self.segments.iter().filter(|s| s.quiet()).collect();
        if !quiet.is_empty() {
            return quiet;
        }
        let mut by_steal: Vec<&Segment> = self.segments.iter().collect();
        by_steal.sort_by(|a, b| a.steal_share.partial_cmp(&b.steal_share).expect("finite shares"));
        by_steal.truncate(self.segments.len().div_ceil(3));
        by_steal
    }

    pub fn quiet_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.quiet()).count()
    }

    pub fn noisy(&self) -> bool {
        self.quiet_segments() < MIN_QUIET
    }

    /// Steal over the whole pass as a share of its CPU-seconds.
    pub fn steal_share(&self) -> Option<f64> {
        let wall: f64 = self.segments.iter().map(|s| s.wall).sum();
        let stolen: f64 =
            self.segments.iter().map(|s| Some(s.steal_share? * s.wall)).sum::<Option<f64>>()?;
        Some(stolen / wall)
    }

    /// Sorted latencies of every successful call in counted segments.
    pub fn latencies_us(&self) -> Vec<f64> {
        let mut all: Vec<f64> =
            self.counted().iter().flat_map(|s| s.latency_us.iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Nearest-rank percentile of [`latencies_us`](Self::latencies_us);
    /// 0 when no call succeeded.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let sorted = self.latencies_us();
        if sorted.is_empty() {
            0.0
        } else {
            percentile(&sorted, q)
        }
    }

    /// Median over counted segments of rows ÷ wall.
    pub fn rows_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self.counted().iter().map(|s| s.rows as f64 / s.wall).collect();
        rates.sort_by(f64::total_cmp);
        percentile(&rates, 0.5)
    }

    pub fn attempted(&self) -> usize {
        self.segments.iter().map(|s| s.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.segments.iter().map(|s| s.failed).sum()
    }
}

pub fn timed_pass<W: Workload>(w: &W, first: usize, budget: Budget, gate: &StealGate) -> Timed {
    let start = Instant::now();
    let mut timed = Timed { segments: Vec::new(), next_index: first };
    loop {
        let done = match budget {
            Budget::Segments(n) => timed.segments.len() >= n,
            Budget::Seconds { seconds, min_quiet, extend_until } => {
                let t = start.elapsed().as_secs_f64();
                let extend = timed.quiet_segments() < min_quiet
                    && t < 2.0 * seconds
                    && Instant::now() < extend_until;
                t >= seconds && !extend
            }
        };
        // At least one segment, however short the budget.
        if done && !timed.segments.is_empty() {
            return timed;
        }
        timed.segments.push(run_calls(w, timed.next_index, w.segment_calls(), gate, None));
        timed.next_index += w.segment_calls();
    }
}

/// Nearest-rank percentile of an ascending sample (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Median wall time, µs, of `f` over `items` (one timed call each).
pub fn median_us<T>(items: impl Iterator<Item = T>, mut f: impl FnMut(T)) -> f64 {
    median(
        items
            .map(|item| {
                let t = Instant::now();
                f(item);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  3638335 0 1218451 3697926 12844 0 3660 188652 0 0\n\
                        cpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\n";

    fn stat_with_steal(steal: u64) -> String {
        format!("cpu  10 0 10 10 0 0 0 {steal} 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
    }

    /// A gate whose reads return `texts` in turn (the first one is
    /// consumed by the gate deciding whether it is on).
    fn fixture_gate(texts: Vec<String>) -> StealGate {
        let texts = std::cell::RefCell::new(std::collections::VecDeque::from(texts));
        StealGate::new(2, Box::new(move || texts.borrow_mut().pop_front()))
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        assert_eq!(parse_steal(STAT), Some(188652));
        // A pre-2.6.11 kernel stops at softirq; other files are not /proc/stat.
        assert_eq!(parse_steal("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_steal("intr 1 2 3\n"), None);
        assert_eq!(parse_steal(""), None);
    }

    struct Sleepy;
    impl Workload for Sleepy {
        fn callers(&self) -> usize {
            2
        }
        fn segment_calls(&self) -> usize {
            3
        }
        fn call(&self, caller: usize, index: usize, _: Option<&mut Recorder>) -> Call {
            let t = Instant::now();
            std::thread::sleep(Duration::from_millis(2));
            Call { latency: t.elapsed(), rows: 4, failed: caller == 1 && index == 0 }
        }
    }

    #[test]
    fn stolen_segments_are_dropped_and_reported() {
        // Segment 1 sees no steal; segment 2 loses 50 ticks = 0.5 CPU-s
        // in a few milliseconds of wall.
        let gate = fixture_gate([100, 100, 100, 100, 150].map(stat_with_steal).to_vec());
        assert!(gate.enabled);
        let timed = timed_pass(&Sleepy, 0, Budget::Segments(2), &gate);
        assert_eq!(timed.segments.len(), 2);
        assert!(timed.segments[0].quiet() && !timed.segments[1].quiet());
        assert_eq!((timed.quiet_segments(), timed.counted().len()), (1, 1));
        assert!(timed.noisy(), "one quiet segment is too few");
        assert!(timed.steal_share().unwrap() > QUIET_STEAL_SHARE);
        // Failed calls are counted and leave the latency sample.
        assert_eq!((timed.attempted(), timed.failed()), (12, 1));
        assert_eq!(timed.segments[0].latency_us.len(), 5);
        assert_eq!(timed.segments[0].rows, 20);
        assert_eq!(timed.next_index, 6);
    }

    #[test]
    fn with_no_quiet_segment_the_least_stolen_third_counts() {
        // Every segment loses ≥ 10 ticks in a few milliseconds.
        let gate = fixture_gate([0, 0, 40, 40, 50, 50, 80, 80, 110].map(stat_with_steal).to_vec());
        let timed = timed_pass(&Sleepy, 0, Budget::Segments(4), &gate);
        assert_eq!(timed.quiet_segments(), 0);
        let counted = timed.counted();
        assert_eq!(counted.len(), 2);
        let least = timed.segments.iter().map(|s| s.steal_share.unwrap()).fold(f64::MAX, f64::min);
        assert_eq!(counted[0].steal_share, Some(least));
    }

    #[test]
    fn without_a_steal_column_the_gate_is_off_and_every_segment_counts() {
        let gate = fixture_gate(vec!["cpu  1 2 3 4 5 6 7\n".to_string()]);
        assert!(!gate.enabled);
        let timed = timed_pass(&Sleepy, 0, Budget::Segments(2), &gate);
        assert_eq!(timed.quiet_segments(), 2);
        assert!(timed.segments.iter().all(|s| s.steal_share.is_none()));
        assert_eq!(timed.steal_share(), None);
    }

    #[test]
    fn a_seconds_budget_runs_at_least_one_segment_and_stops() {
        let gate = fixture_gate(vec![]);
        let timed = timed_pass(
            &Sleepy,
            0,
            Budget::Seconds { seconds: 0.0, min_quiet: 1, extend_until: Instant::now() },
            &gate,
        );
        assert_eq!(timed.segments.len(), 1);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
