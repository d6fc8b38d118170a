//! Allocation budgets of the uncached request path and of a row launch,
//! counted per thread by this binary's global allocator.
//!
//! Each budget is measured on a warm path: the same call runs a few
//! times first, so one-time growth (a queue's buffers, the kernel
//! profile row, lazily built globals) is paid before the count starts.
//! A waiting caller runs its band's batches itself, so every allocation
//! of a request — begin, launch, reply and harvest — lands on the
//! calling thread. The budgets are exact: a count that moves, either
//! way, is a change to the request path that should be looked at.
//!
//! The same holds with two callers at once: each blocking caller runs
//! its own parts, so each thread's per-call count is the lone caller's,
//! and a caller never sleeps on the other's launch — counted as the
//! thread's voluntary context switches. These two-caller budgets stay
//! out of CI's AddressSanitizer job, which does not run this file: the
//! sanitizer slows every call several times over, which widens the
//! windows in which the two callers meet on a lock, so a switch count
//! taken under it measures the sanitizer rather than the request path.
//! Tests here run one at a time (`SERIAL`) for the same reason: a
//! thread of another test competing for the two callers' cores would
//! put them to sleep on each other's locks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier, Mutex};

use fusedmm::perf::trace::Tracer;
use fusedmm::prelude::*;
use fusedmm::serve::{AdmissionPolicy, FaultPlan};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of the blocks it hands out.
struct PerThreadCount;

fn count() {
    // `try_with`: a thread being torn down has no slot left to count in.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so each upholds exactly the contract `System` relies on;
// the only addition is a bump of a `const`-initialised thread-local
// `Cell`, which itself never allocates (no lazy initialisation and no
// destructor to register) and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for PerThreadCount {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is nonzero-sized (`alloc`'s contract).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout` (the caller's guarantee).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` is a live `System` block of `layout` and
        // `new_size` is valid for it (the caller's guarantee).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PerThreadCount = PerThreadCount;

/// Allocations `f` makes on this thread, after `warm` unmeasured runs.
fn allocations<R>(warm: usize, mut f: impl FnMut() -> R) -> u64 {
    for _ in 0..warm {
        drop(f());
    }
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(r);
    after - before
}

/// Held by every test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const N: usize = 2000;
const D: usize = 64;

fn inputs() -> (Csr, Dense, Dense) {
    let a = rmat(&RmatConfig::new(N, 8 * N).with_seed(11));
    (a, random_features(N, D, 0.5, 1), random_features(N, D, 0.5, 2))
}

/// Uncached, untraced, unlimited and fault-free whatever the
/// environment says.
fn config() -> EngineConfig {
    EngineConfig {
        cache: None,
        tracer: Some(Tracer::disabled()),
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

/// The response, the reply slot, the ticket's box, the shared node
/// list, the parts list and the degradation marks: the kernel writes
/// the one row into the buffer the caller receives.
#[test]
fn a_single_row_embed_allocates_six_times() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine = Engine::new(a, x, y, OpSet::sigmoid_embedding(None), config());
    let mut id = 0;
    let n = allocations(16, || {
        id = (id + 37) % N;
        engine.embed(&[id]).expect("embed")
    });
    assert_eq!(n, 6, "a warm single-row embed");
}

/// Per part: the reply, which is the launch output, its slot and its
/// node list (two parts). Per request: the sorted id list, the
/// response, the placement list, the degradation marks, the parts list
/// and the ticket's box.
#[test]
fn a_64_row_two_shard_embed_allocates_twelve_times() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine = ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, config());
    // Unsorted, spread over both shards, no repeats.
    let requests: Vec<Vec<usize>> =
        (0..17).map(|r| (0..64).map(|i| (i * 997 + r * 31) % N).collect()).collect();
    let mut round = requests.iter();
    let n = allocations(16, || engine.embed(round.next().expect("a request per round")));
    assert_eq!(n, 12, "a warm 64-row embed over two shards");
}

/// A row launch on the calling thread reads the band in place and
/// writes the caller's buffer: nothing to allocate.
#[test]
fn an_inline_row_launch_allocates_nothing() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let ops = OpSet::sigmoid_embedding(None);
    let plan = Plan::prepare(&ops, D);
    let ids = [17usize, 3, 1999, 17, 640];
    let mut z = vec![f32::NAN; ids.len() * D];
    let n = allocations(4, || {
        let rows = Launch::Rows { ids: &ids, start: 0, x_start: 0, top_k: None };
        plan.launch(&a, &x, &y, &ops, rows, &mut z);
    });
    assert_eq!(n, 0, "an inline Launch::Rows");
    let want = plan.execute_rows(&a, &ids, &x, &y, &ops);
    assert_eq!(z, want.as_slice());
}

/// `f(caller)` on two threads released together, one result each.
fn two_callers<R: Send>(f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..2)
            .map(|caller| {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    f(caller)
                })
            })
            .collect();
        callers.into_iter().map(|h| h.join().expect("caller panicked")).collect()
    })
}

/// Two callers at once, each making warm 64-row embeds over two
/// uncached shards: every call of each allocates the lone caller's
/// twelve, on its own thread. A caller whose launch ran on the other
/// thread would count fewer, and the other more.
#[test]
fn two_callers_each_allocate_the_single_caller_budget() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine = ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, config());
    let cut = engine.boundaries()[1];
    let counts = two_callers(|caller| {
        // Unsorted, 32 rows in each shard, no repeats.
        let rows = |r: usize, i: usize| {
            let (start, len) = if i.is_multiple_of(2) { (0, cut) } else { (cut, N - cut) };
            start + (i / 2 * 97 + r * 31 + caller * 7) % len
        };
        let requests: Vec<Vec<usize>> =
            (0..1200).map(|r| (0..64).map(|i| rows(r, i)).collect()).collect();
        let mut round = requests.iter();
        // The first 200 calls, with the other caller running, warm the
        // second combiner's buffers too.
        let warm = allocations(200, || engine.embed(round.next().expect("a request")));
        let calls = round.map(|ids| allocations(0, || engine.embed(ids)));
        std::iter::once(warm).chain(calls).collect::<Vec<u64>>()
    });
    for (caller, counts) in counts.iter().enumerate() {
        assert_eq!(counts.len(), 1000);
        let off: Vec<_> = counts.iter().enumerate().filter(|&(_, &n)| n != 12).collect();
        assert!(off.is_empty(), "caller {caller}: calls (index, count) off budget: {off:?}");
    }
}

/// This thread's voluntary context switches so far.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:")).expect("field");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("a count")
}

/// Two callers at once on an uncached two-shard engine, reading
/// overlapping Zipf-skewed ids, so their parts meet in the same bands
/// on almost every call: a caller runs its own launches and almost
/// never sleeps. With one combiner per band, the caller whose part sat
/// in the other's batch slept on it: about every call (0.7–1.2
/// switches per call in a debug build). The engine is uncached so the
/// count sees the bands alone: two cached callers also meet on the
/// cache's segment locks, a hand-off of its own (0.1–0.25 switches per
/// call at the default striping in a debug build).
#[test]
fn two_callers_almost_never_sleep_on_each_other() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine = ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, config());
    const CALLS: usize = 2000;
    let per_call = two_callers(|caller| {
        // Zipf(1.1) over ranks by inverse CDF; ranks are scattered over
        // the ids (7919 is prime to N), so hot rows are not RMAT's hubs.
        let mut cdf: Vec<f64> = (1..=N).map(|r| (r as f64).powf(-1.1)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for c in &mut cdf {
            acc += *c / total;
            *c = acc;
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ caller as u64;
        let mut id = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let rank = cdf.partition_point(|&c| c <= u).min(N - 1);
            (rank * 7919 + 12345) % N
        };
        let requests: Vec<Vec<usize>> =
            (0..CALLS + 100).map(|_| (0..64).map(|_| id()).collect()).collect();
        for ids in &requests[..100] {
            engine.embed(ids).expect("embed");
        }
        let before = voluntary_switches();
        for ids in &requests[100..] {
            engine.embed(ids).expect("embed");
        }
        (voluntary_switches() - before) as f64 / CALLS as f64
    });
    for (caller, per_call) in per_call.iter().enumerate() {
        assert!(*per_call <= 0.05, "caller {caller}: {per_call:.3} voluntary switches per call");
    }
}
