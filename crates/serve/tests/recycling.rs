//! `infer_full` hands out an owned matrix whose storage the engine gets
//! back: what recycling may and may not change. The counting allocator
//! is installed so "freed" can be checked in bytes, and the tests run
//! one at a time (its counters are process-wide).

use std::sync::{Barrier, Mutex, MutexGuard};

use fusedmm_core::fusedmm_reference;
use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack::{self, CountingAllocator};
use fusedmm_serve::{Engine, EngineConfig, Reordering, ShardedEngine};
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const N: usize = 200;
const D: usize = 24;

/// Degrees 0 (every seventh row), 3 and 40 (> one message chunk), with
/// a hub, so every degree class and an empty row sit in each band.
fn graph() -> Csr {
    let mut c = Coo::new(N, N);
    for u in 0..N {
        let deg = match u % 7 {
            0 => 0,
            3 => 40,
            _ => 3,
        };
        for k in 1..=deg {
            c.push(u, (u * 5 + k * 11) % N, 0.25 + (k % 5) as f32 * 0.5);
        }
    }
    for v in 1..N {
        c.push(1, v, 0.125);
    }
    c.to_csr(Dedup::Sum)
}

fn feats(seed: f32) -> Dense {
    Dense::from_fn(N, D, |r, k| ((r * 13 + k * 7) as f32 * 0.017 + seed).sin() * 0.6)
}

fn engine() -> Engine {
    Engine::new(graph(), feats(0.1), feats(0.9), OpSet::gcn(), EngineConfig::default())
}

fn bits(z: &Dense) -> Vec<u32> {
    z.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn close_to_reference(z: &Dense, x: &Dense, y: &Dense) -> bool {
    z.max_abs_diff(&fusedmm_reference(&graph(), x, y, &OpSet::gcn())) < 1e-4
}

#[test]
fn second_call_after_a_drop_reuses_the_allocation_and_the_bits() {
    let _serial = serial();
    let eng = engine();
    let mut first = eng.infer_full();
    assert!(close_to_reference(&first, &feats(0.1), &feats(0.9)));
    let (addr, want) = (first.as_slice().as_ptr(), bits(&first));
    // Poison what the engine gets back: every row must be rewritten.
    first.as_mut_slice().fill(f32::NAN);
    drop(first);
    let second = eng.infer_full();
    assert_eq!(second.as_slice().as_ptr(), addr, "the dropped result's storage is reused");
    assert_eq!(bits(&second), want);
}

#[test]
fn two_results_held_at_once_are_distinct_and_both_correct() {
    let _serial = serial();
    let eng = engine();
    let first = eng.infer_full();
    let second = eng.infer_full();
    assert_ne!(first.as_slice().as_ptr(), second.as_slice().as_ptr());
    assert_eq!(bits(&first), bits(&second));
    assert!(close_to_reference(&first, &feats(0.1), &feats(0.9)));
    // Only one of them can park; the third call takes that one and the
    // other two stay whole.
    let kept = bits(&first);
    drop(second);
    let third = eng.infer_full();
    assert_eq!(bits(&first), kept);
    assert_eq!(bits(&third), kept);
}

#[test]
fn result_outliving_its_engine_is_freed_and_nothing_stays_live() {
    let _serial = serial();
    assert!(memtrack::is_active());
    let cycle = || {
        let eng = engine();
        drop(eng.infer_full()); // parks
        let held = eng.infer_full(); // takes the parked buffer
        let extra = eng.infer_full(); // a second one, while `held` is out
        drop(eng); // nothing parked to free; `held` and `extra` survive
        assert!(close_to_reference(&held, &feats(0.1), &feats(0.9)));
        assert_eq!(bits(&held), bits(&extra));
        // Both homeless now: each is simply freed.
    };
    // The first cycle also pays every one-off (worker pool, tuner and
    // profile tables); the second must give everything back.
    cycle();
    let baseline = memtrack::live_bytes();
    cycle();
    let after = memtrack::live_bytes();
    let output_bytes = N * D * 4;
    assert!(
        after < baseline + output_bytes / 2,
        "live bytes {baseline} -> {after}: an {output_bytes}-byte output was leaked"
    );
}

#[test]
fn new_epoch_rows_land_in_the_recycled_buffer() {
    let _serial = serial();
    let eng = engine();
    let mut z = eng.infer_full();
    let addr = z.as_slice().as_ptr();
    z.as_mut_slice().fill(f32::NAN);
    drop(z);

    // A delta to a few rows (the hub's neighbors all see it through Y).
    let rows = [2usize, 50, 199];
    let patch = Dense::from_fn(rows.len(), D, |r, k| (r * 3 + k) as f32 * 0.01 - 0.2);
    eng.store().delta_update(&rows, &patch, &patch);
    let epoch = eng.store().snapshot();
    let mut z = eng.infer_full();
    assert_eq!(z.as_slice().as_ptr(), addr);
    assert!(close_to_reference(&z, epoch.x(), epoch.y()), "stale or unwritten rows after a delta");
    let fresh = Engine::new(
        graph(),
        epoch.x().clone(),
        epoch.y().clone(),
        OpSet::gcn(),
        EngineConfig::default(),
    );
    assert_eq!(bits(&z), bits(&fresh.infer_full()));

    // A whole-matrix publish.
    z.as_mut_slice().fill(f32::NAN);
    drop(z);
    eng.store().publish(feats(0.4), feats(0.6));
    let z = eng.infer_full();
    assert_eq!(z.as_slice().as_ptr(), addr);
    assert!(close_to_reference(&z, &feats(0.4), &feats(0.6)), "stale rows after a publish");
}

#[test]
fn concurrent_callers_each_get_a_whole_correct_result() {
    let _serial = serial();
    let eng = engine();
    let want = bits(&eng.infer_full());
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..20 {
                    barrier.wait();
                    let mut z = eng.infer_full();
                    assert_eq!(bits(&z), want);
                    // Whoever parks leaves poison for the next taker.
                    z.as_mut_slice().fill(f32::NAN);
                }
            });
        }
    });
}

#[test]
fn sharded_equals_single_bit_for_bit_and_recycles() {
    let _serial = serial();
    let want = bits(&engine().infer_full());
    for reordering in [None, Some(Reordering::DegreeSort)] {
        let config = || EngineConfig { reordering, ..EngineConfig::default() };
        let single = Engine::new(graph(), feats(0.1), feats(0.9), OpSet::gcn(), config());
        assert_eq!(bits(&single.infer_full()), want, "single {reordering:?}");
        for shards in [1usize, 2, 4] {
            let eng =
                ShardedEngine::new(graph(), feats(0.1), feats(0.9), OpSet::gcn(), shards, config());
            for call in 0..3 {
                let mut z = eng.infer_full();
                assert_eq!(bits(&z), want, "{shards} shards {reordering:?} call {call}");
                z.as_mut_slice().fill(f32::NAN);
            }
        }
    }
}
