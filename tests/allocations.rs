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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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
