//! Allocation budgets of the uncached and cached request paths, of a
//! miss coalesced onto another request's row, of a row launch and of a
//! Force2Vec training step, counted by this binary's global allocator
//! per thread and over all threads.
//!
//! Each budget is measured on a warm path: the same call runs a few
//! times first, so one-time growth (a queue's buffers, the kernel
//! profile row, lazily built globals) is paid before the count starts.
//! A waiting caller runs its band's batches itself, so every allocation
//! of a request — begin, launch, reply and harvest — lands on the
//! calling thread. A training step is the exception: it runs one of
//! its row parts on a pool worker, so its budget is counted over every
//! thread. The budgets are exact: a count that moves, either way, is a
//! change to the request path or the step that should be looked at.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use fusedmm::apps::sampler::NegativeSampler;
use fusedmm::apps::{Backend, Force2Vec, Force2VecConfig};
use fusedmm::prelude::*;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by every thread of the process.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus a count of the blocks it hands out, per thread and
/// over all threads.
struct PerThreadCount;

fn count() {
    // `try_with`: a thread being torn down has no slot left to count in.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so each upholds exactly the contract `System` relies on;
// the only addition is a bump of a `const`-initialised thread-local
// `Cell` and of a static atomic, neither of which ever allocates (no
// lazy initialisation and no destructor to register), so neither can
// re-enter the allocator.
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

/// The response, the reply slot, the ticket's box, the shared node
/// list, the parts list and the degradation marks: the kernel writes
/// the one row into the buffer the caller receives.
#[test]
fn a_single_row_embed_allocates_six_times() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine = Engine::new(a, x, y, OpSet::sigmoid_embedding(None), EngineConfig::default());
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
    let engine =
        ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, EngineConfig::default());
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

/// A warm one-batch fused training step at the benchmark's step shape
/// (d = 128, batch 256, 5 negatives) on a two-thread pool, counted over
/// every thread: the caller and the pool worker that runs the second
/// row part. The trainer keeps its draws, step matrices, scores,
/// gathered rows and gradient between steps, so what is left is the
/// fork-join: the scope's shared state and the spawned part's task box.
/// The least of 16 steps is taken, so that a test-harness thread
/// allocating beside a step cannot add to the count.
#[test]
fn a_warm_training_step_allocates_twice_over_all_threads() {
    let _serial = serial();
    let n = 1 << 12;
    let adj = rmat(&RmatConfig::new(n, 8 * n).with_seed(3));
    let cfg = Force2VecConfig {
        dim: 128,
        batch_size: 256,
        epochs: 1,
        lr: 0.1,
        negatives: 5,
        seed: 7,
        backend: Backend::Fused,
    };
    let batches: Vec<Vec<usize>> =
        (0..n).map(|i| i * 1237 % n).collect::<Vec<_>>().chunks(256).map(<[_]>::to_vec).collect();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let counts: Vec<u64> = pool.install(|| {
        let trainer = Force2Vec::new(adj, cfg);
        let mut emb = random_features(n, 128, 0.05, 2);
        let mut sampler = NegativeSampler::new(n, 5, 4);
        let mut step = |i: usize| {
            let before = ALL_THREADS.load(Ordering::SeqCst);
            trainer.train_epoch(&mut emb, &mut sampler, &batches[i % 16..=i % 16]);
            ALL_THREADS.load(Ordering::SeqCst) - before
        };
        for i in 0..16 {
            step(i);
        }
        (16..32).map(step).collect()
    });
    assert_eq!(counts.iter().min(), Some(&2), "a warm fused step: {counts:?}");
}

/// A warm 64-pair score over two uncached in-process shards, counted
/// over every thread: each shard scores on the calling thread, so no
/// thread is spawned. What is left: the per-shard pair lists as they
/// grow, each shard's reply slot, score column and scratch row, the
/// parts list and the scores returned. The least of 16 calls is taken,
/// as for the training step.
#[test]
fn a_64_pair_two_shard_score_allocates_21_times_over_all_threads() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine =
        ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, EngineConfig::default());
    // Sources spread over both shards.
    let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i * 997 % N, (i * 31 + 7) % N)).collect();
    let call = || {
        let before = ALL_THREADS.load(Ordering::SeqCst);
        engine.score_edges(&pairs).expect("scores");
        ALL_THREADS.load(Ordering::SeqCst) - before
    };
    let counts: Vec<u64> = (0..32).map(|_| call()).skip(16).collect();
    assert_eq!(counts.iter().min(), Some(&21), "a warm two-shard score: {counts:?}");
}

/// The same warm 64-pair score on a one-band `Engine`: its one shard
/// owns every pair, so the pairs go to it as they are and its score
/// column is copied into the scores returned. What is left: the reply
/// slot, the score column, the scratch row and the scores returned.
#[test]
fn a_64_pair_one_band_score_allocates_4_times_over_all_threads() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine = Engine::new(a, x, y, OpSet::sigmoid_embedding(None), EngineConfig::default());
    let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i * 997 % N, (i * 31 + 7) % N)).collect();
    let call = || {
        let before = ALL_THREADS.load(Ordering::SeqCst);
        engine.score_edges(&pairs).expect("scores");
        ALL_THREADS.load(Ordering::SeqCst) - before
    };
    let counts: Vec<u64> = (0..32).map(|_| call()).skip(16).collect();
    assert_eq!(counts.iter().min(), Some(&4), "a warm one-band score: {counts:?}");
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

/// Allocations `f` makes on this thread, with its result.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// A miss coalesced onto another request's in-flight row, on a cached
/// single-band engine. Begin: the response, the output positions, the
/// row's reply slot, the in-flight entry's list of slots, the row's
/// one-node list, the assembly's source list, the degradation marks
/// and the ticket's box (the cache probe orders the ids on the stack).
/// Harvest, once the owner's fill has landed: nothing — the row waits
/// on its slot as a part does, and the one-row reply the fill sent was
/// made on the owner's thread.
#[test]
fn a_coalesced_miss_allocates_eight_times_to_begin_and_nothing_to_harvest() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let config = EngineConfig { cache: Some(CacheConfig::default()), ..EngineConfig::default() };
    let engine = Engine::new(a, x, y, OpSet::sigmoid_embedding(None), config);
    let coalesced_total = || engine.metrics().counter("fusedmm_cache_coalesced_misses_total", &[]);
    // Distinct rows (37 is prime to N), each cold when its round begins.
    let counts: Vec<(u64, u64)> = (0..48)
        .map(|round| {
            let id = round * 37 % N;
            let owner = engine.embed_begin(&[id]).expect("the owner begins");
            let (coalesced, begin) = counted(|| engine.embed_begin(&[id]).expect("a waiter"));
            let want = owner.wait().expect("the owner's rows");
            let (got, harvest) = counted(|| coalesced.wait().expect("the coalesced row"));
            assert_eq!(got.as_slice(), want.as_slice(), "a coalesced row is the owner's row");
            (begin, harvest)
        })
        .collect();
    assert_eq!(coalesced_total(), Some(48), "every second request coalesced");
    // The first rounds grow the queue's and the cache's buffers.
    for (round, &(begin, harvest)) in counts.iter().enumerate().skip(16) {
        assert_eq!(begin, 8, "round {round}: a coalesced embed_begin");
        assert_eq!(harvest, 0, "round {round}: harvesting a filled coalesced row");
    }
}

/// A cached two-shard engine over the test graph, with its features.
fn cached_two_shards() -> (ShardedEngine, Dense, Dense) {
    let (a, x, y) = inputs();
    let config = EngineConfig { cache: Some(CacheConfig::default()), ..EngineConfig::default() };
    let ops = OpSet::sigmoid_embedding(None);
    (ShardedEngine::new(a, x.clone(), y.clone(), ops, 2, config), x, y)
}

/// A warm 64-row embed over two cached shards whose every row is
/// resident: the response and the degradation marks. The probe orders
/// the ids on the stack, and nothing is left to compute.
#[test]
fn a_cached_64_row_embed_allocates_twice_when_every_row_hits() {
    let _serial = serial();
    let (engine, _, _) = cached_two_shards();
    let ids: Vec<usize> = (0..64).map(|i| (i * 997 + 5) % N).collect();
    let n = allocations(16, || engine.embed(&ids).expect("embed"));
    assert_eq!(n, 2, "a warm all-hit cached embed");
}

/// The same embed right after a publish, which stales every cached
/// row, so that every row misses. Per row: the cache entry (a row's
/// in-flight registration is held inline in the segment's map, so it
/// allocates nothing; with a list per node this read 143). Per part:
/// the reply, its slot, its node list and its registrations. Per
/// request: the response, the output positions, the registrations, the
/// owned ids, the parts list, the degradation marks and the ticket's
/// box. A stale row leaves its segment's CLOCK ring with its entry, so
/// no ring grows past the rows it holds: every one of 16 calls makes
/// the same count.
#[test]
fn a_cached_64_row_embed_allocates_79_times_when_every_row_misses() {
    let _serial = serial();
    let (engine, x, y) = cached_two_shards();
    let ids: Vec<usize> = (0..64).map(|i| (i * 997 + 5) % N).collect();
    let cold_call = || {
        engine.store().publish(x.clone(), y.clone());
        counted(|| engine.embed(&ids).expect("embed")).1
    };
    let counts: Vec<u64> = (0..32).map(|_| cold_call()).skip(16).collect();
    assert!(counts.iter().all(|&n| n == 79), "a warm all-miss cached embed: {counts:?}");
}

/// Two callers at once, each making warm 64-row embeds over two
/// uncached shards: every call of each allocates the lone caller's
/// twelve, on its own thread. A caller whose launch ran on the other
/// thread would count fewer, and the other more.
#[test]
fn two_callers_each_allocate_the_single_caller_budget() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine =
        ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, EngineConfig::default());
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

/// Each of two callers' voluntary switches per call, over 2000 warm
/// 64-row embeds of Zipf(1.1)-skewed ids on `engine` (`n` vertices),
/// so the two callers' parts meet in the same bands, and their ids in
/// the same cache stripes, on almost every call.
fn switches_per_call(engine: &ShardedEngine, n: usize) -> Vec<f64> {
    const CALLS: usize = 2000;
    two_callers(|caller| {
        // Zipf(1.1) over ranks by inverse CDF; ranks are scattered over
        // the ids (7919 is prime to n), so hot rows are not RMAT's hubs.
        let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-1.1)).collect();
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
            let rank = cdf.partition_point(|&c| c <= u).min(n - 1);
            (rank * 7919 + 12345) % n
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
    })
}

/// Two callers at once on an uncached two-shard engine: a caller runs
/// its own launches and almost never sleeps. With one combiner per
/// band, the caller whose part sat in the other's batch slept on it:
/// about every call (0.7–1.2 switches per call in a debug build).
#[test]
fn two_callers_almost_never_sleep_on_each_other() {
    let _serial = serial();
    let (a, x, y) = inputs();
    let engine =
        ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, EngineConfig::default());
    for (caller, per_call) in switches_per_call(&engine, N).iter().enumerate() {
        assert!(*per_call <= 0.05, "caller {caller}: {per_call:.3} voluntary switches per call");
    }
}

/// The same two callers on a cached engine over a 32 k-row graph,
/// with a quarter-size cache at the default 16 stripes, so that their
/// ids meet in the same stripes: a request locks each stripe it touches
/// once to probe and once to fill, and takes a stripe the other caller
/// holds after the free ones. A lock per id, per miss and per owned
/// row puts the callers to sleep 0.07–0.22 times per call in a debug
/// build.
#[test]
fn two_cached_callers_almost_never_sleep_on_each_other() {
    let _serial = serial();
    const ROWS: usize = 1 << 15;
    let a = rmat(&RmatConfig::new(ROWS, 8 * ROWS).with_seed(11));
    let (x, y) = (random_features(ROWS, D, 0.5, 1), random_features(ROWS, D, 0.5, 2));
    // A quarter of the 8 MiB of output rows.
    let config = EngineConfig { cache: Some(CacheConfig::with_mb(2)), ..EngineConfig::default() };
    let engine = ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, config);
    for (caller, per_call) in switches_per_call(&engine, ROWS).iter().enumerate() {
        assert!(*per_call <= 0.05, "caller {caller}: {per_call:.3} voluntary switches per call");
    }
}
