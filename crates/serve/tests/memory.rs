//! What a cached engine holds, in bytes, under the counting allocator:
//! building a 2-shard `ShardedEngine` with the result cache costs at
//! most its reverse adjacency `Aᵀ` and one band (the one being cut off
//! `A`) — and no `Aᵀ` at all when `A`'s pattern is symmetric — a
//! cached replica indexes only its band, a delta on a generation
//! nobody else holds writes its rows in place, and a delta on a pinned
//! one copies and leaves the pin alone. The tests run one at a time
//! (the counters are process-wide).

use std::sync::{Mutex, MutexGuard};

use fusedmm_cache::ResultCache;
use fusedmm_core::{Partition, PartitionStrategy};
use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack::{self, CountingAllocator};
use fusedmm_serve::remote::WorkerEngine;
use fusedmm_serve::{CacheConfig, EngineConfig, ShardedEngine};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const N: usize = 8192;
const DEGREE: usize = 24;
const D: usize = 64;
/// One `N x D` feature matrix.
const MATRIX: usize = N * D * 4;
const MIB: usize = 1 << 20;

/// `DEGREE` distinct out-neighbours per vertex, built from parts so
/// every array is exactly as long as its capacity.
fn graph() -> Csr {
    let rowptr = (0..=N).map(|u| u * DEGREE).collect();
    let mut colidx = Vec::with_capacity(N * DEGREE);
    for u in 0..N {
        let mut row: Vec<usize> = (1..=DEGREE).map(|k| (u + 7 * k * k + k) % N).collect();
        row.sort_unstable();
        colidx.extend(row);
    }
    let values = (0..N * DEGREE).map(|i| 0.25 + (i % 5) as f32 * 0.125).collect();
    Csr::from_parts(N, N, rowptr, colidx, values).unwrap()
}

/// `DEGREE` distinct neighbours per vertex, `u ± (7k² + k)`, each edge
/// stored both ways: a symmetric pattern.
fn symmetric_graph() -> Csr {
    let rowptr = (0..=N).map(|u| u * DEGREE).collect();
    let mut colidx = Vec::with_capacity(N * DEGREE);
    for u in 0..N {
        let mut row: Vec<usize> = (1..=DEGREE / 2)
            .map(|k| 7 * k * k + k)
            .flat_map(|s| [(u + s) % N, (u + N - s) % N])
            .collect();
        row.sort_unstable();
        colidx.extend(row);
    }
    let values = vec![0.5; N * DEGREE];
    Csr::from_parts(N, N, rowptr, colidx, values).unwrap()
}

fn feats(seed: f32) -> Dense {
    Dense::from_fn(N, D, |r, k| ((r * 13 + k * 7) as f32 * 0.017 + seed).sin() * 0.6)
}

fn engine(cached: bool) -> ShardedEngine {
    let config =
        EngineConfig { cache: cached.then(|| CacheConfig::with_mb(1)), ..EngineConfig::default() };
    ShardedEngine::new(graph(), feats(0.1), feats(0.7), OpSet::sigmoid_embedding(None), 2, config)
}

fn storage(m: &Dense) -> *const f32 {
    m.as_slice().as_ptr()
}

fn bits(m: &Dense) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A patch of `rows.len()` rows, distinct per `seed`.
fn patch(rows: &[usize], seed: f32) -> Dense {
    Dense::from_fn(rows.len(), D, |r, k| seed + (r * D + k) as f32 * 1e-3)
}

#[test]
fn a_cached_sharded_engine_builds_with_one_transpose_and_one_band_to_spare() {
    let _serial = serial();
    assert!(memtrack::is_active());
    let (a, x, y) = (graph(), feats(0.1), feats(0.7));
    // `Aᵀ` of a square graph takes as many bytes as `A`.
    let a_bytes = a.storage_bytes();
    let part = Partition::part1d(&a, 2, PartitionStrategy::NnzBalanced);
    let band_bytes = |s: usize| a.row_band(part.rows(s)).storage_bytes();
    let largest_band = band_bytes(0).max(band_bytes(1));
    let config = EngineConfig { cache: Some(CacheConfig::with_mb(1)), ..EngineConfig::default() };
    let ops = OpSet::sigmoid_embedding(None);
    let (engine, extra) = memtrack::measure_peak(|| ShardedEngine::new(a, x, y, ops, 2, config));
    // The cut moves `A` into its bands: past the reverse adjacency,
    // only the band being split off exists twice.
    assert!(
        extra <= a_bytes + largest_band + MIB / 2,
        "building peaked {extra} bytes over its inputs; one Aᵀ ({a_bytes}) + the largest band \
         ({largest_band}) + 512 KiB allowed"
    );
    assert_eq!(engine.nshards(), 2);
}

#[test]
fn a_cached_sharded_engine_over_a_symmetric_graph_builds_with_no_transpose() {
    let _serial = serial();
    let (a, x, y) = (symmetric_graph(), feats(0.1), feats(0.7));
    assert!(a.is_pattern_symmetric());
    let a_bytes = a.storage_bytes();
    let part = Partition::part1d(&a, 2, PartitionStrategy::NnzBalanced);
    let band_bytes = |s: usize| a.row_band(part.rows(s)).storage_bytes();
    let largest_band = band_bytes(0).max(band_bytes(1));
    let config = EngineConfig { cache: Some(CacheConfig::with_mb(1)), ..EngineConfig::default() };
    let ops = OpSet::sigmoid_embedding(None);
    let (engine, extra) = memtrack::measure_peak(|| ShardedEngine::new(a, x, y, ops, 2, config));
    // The touch sets read the bands: building holds the band being cut
    // off `A` and the symmetry check's one cursor per row, never `Aᵀ`.
    assert!(
        extra <= largest_band + MIB / 2,
        "building peaked {extra} bytes over its inputs; the largest band ({largest_band}) + 512 \
         KiB allowed, and Aᵀ alone is {a_bytes}"
    );
    assert!(largest_band + MIB / 2 < a_bytes, "the bound tells the two indexes apart");
    assert_eq!(engine.nshards(), 2);
}

#[test]
fn a_cached_replica_indexes_only_its_band() {
    let _serial = serial();
    let a = graph();
    let band = Partition::part1d(&a, 2, PartitionStrategy::NnzBalanced).rows(1);
    let retained = |cache: Option<CacheConfig>| {
        let (x0, y0) = (Dense::zeros(N, 4), Dense::zeros(N, 4));
        let config = EngineConfig { cache, ..EngineConfig::default() };
        let ops = OpSet::sigmoid_embedding(None);
        let before = memtrack::live_bytes() as i64;
        let worker = WorkerEngine::new(&a, band.clone(), 1, x0, y0, ops, config);
        let held = memtrack::live_bytes() as i64 - before;
        drop(worker);
        held
    };
    let before = memtrack::live_bytes() as i64;
    let cache: ResultCache<()> = ResultCache::new(N, 4, CacheConfig::with_mb(1));
    let cache_bytes = memtrack::live_bytes() as i64 - before;
    drop(cache);
    let index = retained(Some(CacheConfig::with_mb(1))) - retained(None) - cache_bytes;
    // `Aᵀ` of the band: one row pointer per vertex of the column space,
    // one (index, value) per entry of the band.
    let band_t = a.row_band(band).transpose().storage_bytes() as i64;
    let whole_t = a.storage_bytes() as i64;
    assert!(
        index.abs_diff(band_t) < 4096,
        "a cached replica holds {index} bytes of index; the band's transpose is {band_t}"
    );
    assert!(band_t < whole_t * 3 / 4, "the band's transpose {band_t} vs the whole {whole_t}");
}

#[test]
fn a_delta_on_an_unpinned_generation_writes_in_place() {
    let _serial = serial();
    let engine = engine(true);
    engine.embed(&(0..N).step_by(17).collect::<Vec<_>>()).expect("warm the cache");
    let store = engine.store();
    let before = store.snapshot();
    let held = (storage(before.x()), storage(before.y()));
    drop(before);

    let rows = [3, 4096, N - 1];
    let (px, py) = (patch(&rows, 2.0), patch(&rows, -2.0));
    let (epoch, allocated) = memtrack::measure_peak(|| store.delta_update(&rows, &px, &py));
    assert_eq!(epoch, 1);
    assert!(allocated < MIB, "an in-place delta allocated {allocated} bytes");
    let after = store.snapshot();
    assert_eq!((storage(after.x()), storage(after.y())), held, "the rows were written in place");
    assert_eq!(after.epoch(), 1);
    for (i, &u) in rows.iter().enumerate() {
        assert_eq!((after.x().row(u), after.y().row(u)), (px.row(i), py.row(i)));
    }
}

#[test]
fn a_delta_under_a_pin_copies_and_cached_stays_uncached() {
    let _serial = serial();
    let (cached, uncached) = (engine(true), engine(false));
    let all: Vec<usize> = (0..N).collect();
    let agree = |when: &str| {
        let (c, u) = (cached.embed(&all).expect("cached"), uncached.embed(&all).expect("uncached"));
        assert!(bits(&c) == bits(&u), "cached ≢ uncached {when}");
    };
    agree("at load");
    agree("on warm rows");

    // Unpinned: in place.
    let rows = [0, 1, 500, 4097];
    let (px, py) = (patch(&rows, 1.5), patch(&rows, -1.5));
    for engine in [&cached, &uncached] {
        assert_eq!(engine.store().delta_update(&rows, &px, &py), 1);
    }
    agree("after an in-place delta");

    // Pinned: copy-on-write, and the pin keeps its bits.
    let pinned = cached.store().snapshot();
    let pinned_bits = (bits(pinned.x()), bits(pinned.y()));
    let rows = [1, 2, 8191];
    let (px, py) = (patch(&rows, 3.5), patch(&rows, -3.5));
    let (epoch, allocated) =
        memtrack::measure_peak(|| cached.store().delta_update(&rows, &px, &py));
    assert_eq!(epoch, 2);
    // Both matrices copied (less whatever the invalidation freed).
    assert!(allocated > 3 * MATRIX / 2, "a delta under a pin allocated only {allocated} bytes");
    assert_eq!(uncached.store().delta_update(&rows, &px, &py), 2);
    let current = cached.store().snapshot();
    assert_ne!(storage(current.x()), storage(pinned.x()), "the patch went into a copy");
    assert_eq!(pinned.epoch(), 1);
    assert!((bits(pinned.x()), bits(pinned.y())) == pinned_bits, "the pinned epoch changed");
    drop((pinned, current));
    agree("after a copy-on-write delta");
}
