//! Serving-path correctness: the row-subset kernel must agree with the
//! full-graph reference on exactly the requested rows — for random
//! graphs, operator sets, and subsets (empty, duplicated, out of
//! order) — the engine must preserve that agreement under concurrent,
//! overlapping request traffic, responses must pin exactly one feature
//! epoch while publishes race them, and sharded engines and tickets
//! must answer as a plain engine's blocking `embed` (slices of the
//! equivalence matrix in `tests/matrix/mod.rs`).

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fusedmm::kernel::Partition;
use fusedmm::prelude::*;
use fusedmm::serve::{score_edges, FrontEnd, LocalBands};

mod matrix;

use matrix::{check_cells, slice, Front, Graph};

/// Rows `rows` of the whole graph, through a row-subset launch.
fn subset(a: &Csr, rows: &[usize], x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    let mut z = Dense::zeros(rows.len(), x.ncols());
    let launch = Launch::Rows { ids: rows, start: 0, x_start: 0, top_k: None };
    Plan::prepare(ops, x.ncols()).launch(a, x, y, ops, launch, z.as_mut_slice());
    z
}

fn assert_rows_match(z: &Dense, reference: &Dense, rows: &[usize], tol: f32, label: &str) {
    assert_eq!(z.nrows(), rows.len(), "{label}: one output row per requested row");
    for (i, &u) in rows.iter().enumerate() {
        for k in 0..z.ncols() {
            let (got, want) = (z.get(i, k), reference.get(u, k));
            assert!(
                (got - want).abs() < tol,
                "{label}: row {i} (vertex {u}) lane {k}: {got} vs {want}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn subset_rows_equal_reference_rows(
        seed in 0u64..500,
        n in 8usize..48,
        d in 1usize..40,
        pattern in 0usize..4,
        pick in proptest::collection::vec(0usize..1000, 0..24),
    ) {
        let ops = match pattern {
            0 => OpSet::sigmoid_embedding(None),
            1 => OpSet::fr_model(0.3),
            2 => OpSet::tdist_embedding(),
            _ => OpSet::gcn(),
        };
        let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(seed));
        let x = random_features(n, d, 0.5, seed ^ 1);
        let y = random_features(n, d, 0.5, seed ^ 2);
        let reference = fusedmm_reference(&a, &x, &y, &ops);
        // Arbitrary order, with duplicates, possibly empty.
        let rows: Vec<usize> = pick.into_iter().map(|p| p % n).collect();
        let z = subset(&a, &rows, &x, &y, &ops);
        prop_assert_eq!(z.nrows(), rows.len());
        for (i, &u) in rows.iter().enumerate() {
            for k in 0..d {
                prop_assert!(
                    (z.get(i, k) - reference.get(u, k)).abs() < 1e-5,
                    "pattern {:?} n={} d={} row {} vertex {}",
                    ops.pattern, n, d, i, u
                );
            }
        }
    }

    #[test]
    fn plan_and_direct_row_calls_agree(
        seed in 0u64..200,
        n in 8usize..32,
        d in 1usize..24,
    ) {
        let ops = OpSet::sigmoid_embedding(None);
        let a = rmat(&RmatConfig::new(n, 2 * n).with_seed(seed));
        let x = random_features(n, d, 0.5, seed ^ 5);
        let y = random_features(n, d, 0.5, seed ^ 6);
        let rows: Vec<usize> = (0..n).rev().step_by(2).collect();
        // A subset launch computes the rows the whole-graph call
        // computes, bit for bit.
        let via_plan = subset(&a, &rows, &x, &y, &ops);
        let direct = fusedmm::sparse::slice::gather_rows(&fusedmm(&a, &x, &y, &ops), &rows);
        prop_assert_eq!(via_plan, direct);
    }
}

#[test]
fn empty_duplicate_and_reversed_subsets() {
    let n = 30;
    let a = rmat(&RmatConfig::new(n, 120).with_seed(9));
    let x = random_features(n, 16, 0.5, 1);
    let y = random_features(n, 16, 0.5, 2);
    let ops = OpSet::sigmoid_embedding(None);
    let reference = fusedmm_reference(&a, &x, &y, &ops);

    let empty = subset(&a, &[], &x, &y, &ops);
    assert_eq!((empty.nrows(), empty.ncols()), (0, 16));

    let dupes = vec![4usize; 7];
    assert_rows_match(&subset(&a, &dupes, &x, &y, &ops), &reference, &dupes, 1e-5, "dupes");

    let reversed: Vec<usize> = (0..n).rev().collect();
    assert_rows_match(
        &subset(&a, &reversed, &x, &y, &ops),
        &reference,
        &reversed,
        1e-5,
        "reversed",
    );
}

#[test]
fn engine_serves_concurrent_overlapping_batches() {
    let n = 120;
    let d = 32;
    let a = rmat(&RmatConfig::new(n, 600).with_seed(77));
    let feats = random_features(n, d, 0.5, 3);
    let ops = OpSet::sigmoid_embedding(None);
    let reference = fusedmm_reference(&a, &feats, &feats, &ops);

    let engine = Engine::new(a, feats.clone(), feats, ops, EngineConfig::default());

    let threads = 8;
    let rounds = 6;
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = &engine;
            let reference = &reference;
            s.spawn(move || {
                for r in 0..rounds {
                    // Deliberately overlapping subsets across threads.
                    let nodes: Vec<usize> =
                        (0..16).map(|i| (t * 11 + r * 17 + i * 5) % n).collect();
                    let z = engine.embed(&nodes).expect("embed succeeds");
                    assert_rows_match(&z, reference, &nodes, 1e-5, "concurrent embed");
                }
            });
        }
    });

    let m = engine.metrics();
    let embed = m.histogram("fusedmm_embed_latency_seconds", &[]).expect("latency sample");
    assert_eq!(embed.count, (threads * rounds) as u64);
    let requested = m.sum("fusedmm_rows_requested_total");
    assert_eq!(requested, (threads * rounds * 16) as u64);
    assert!(
        m.sum("fusedmm_rows_computed_total") <= requested,
        "dedup never computes more than asked"
    );
    assert!(embed.p50 <= embed.p99);
}

/// Build the snapshot-isolation fixture: a ring graph (every row has
/// exactly one unit-weight edge) under GCN ops, so with features filled
/// with the constant `c`, every lane of every embed row equals `c`
/// exactly (z_u = 1.0 * y_{u+1}). Publishing `c = epoch + 1.0` makes
/// any served row reveal which epoch produced it — and any torn
/// response reveal itself as a mix of constants.
fn ring_fixture(n: usize, d: usize) -> (Csr, Dense, EngineConfig) {
    let mut c = Coo::new(n, n);
    for u in 0..n {
        c.push(u, (u + 1) % n, 1.0);
    }
    let cfg = EngineConfig::default();
    (c.to_csr(Dedup::Sum), Dense::filled(n, d, 1.0), cfg)
}

/// Assert every lane of every row of `z` equals one single epoch
/// constant from `1.0..=max`, and return it.
fn assert_single_epoch(z: &Dense, max: f32, label: &str) -> f32 {
    let first = z.get(0, 0);
    assert!(
        first >= 1.0 && first <= max && first.fract() == 0.0,
        "{label}: value {first} is not a published epoch constant"
    );
    for i in 0..z.nrows() {
        for k in 0..z.ncols() {
            assert_eq!(
                z.get(i, k),
                first,
                "{label}: row {i} lane {k} mixes epochs ({} vs {first})",
                z.get(i, k)
            );
        }
    }
    first
}

/// The acceptance-criteria concurrency test: readers hammer `embed`
/// while a writer repeatedly publishes; every response must be
/// consistent with exactly one epoch (never a mix), and epochs must be
/// observed monotonically per reader (a later request never sees an
/// older epoch than an earlier one did).
#[test]
fn readers_never_observe_a_torn_epoch_during_publishes() {
    let n = 96;
    let d = 16;
    let publishes = 60usize;
    let (a, feats, cfg) = ring_fixture(n, d);
    let eng = Engine::new(a, feats.clone(), feats, OpSet::gcn(), cfg);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let eng = &eng;
        let done = &done;
        // The writer: publish epoch constants 2.0, 3.0, ...
        s.spawn(move || {
            for e in 0..publishes {
                let c = (e + 2) as f32;
                eng.store().publish(Dense::filled(n, d, c), Dense::filled(n, d, c));
                std::thread::sleep(Duration::from_micros(200));
            }
            done.store(true, Ordering::Release);
        });
        // The readers: overlapping subsets, full speed.
        for t in 0..6usize {
            s.spawn(move || {
                let mut last = 0.0f32;
                let mut round = 0usize;
                while !done.load(Ordering::Acquire) || round == 0 {
                    let nodes: Vec<usize> = (0..12).map(|i| (t * 5 + i * 7 + round) % n).collect();
                    let z = eng.embed(&nodes).expect("embed during publishes");
                    let epoch = assert_single_epoch(
                        &z,
                        (publishes + 1) as f32,
                        &format!("reader {t} round {round}"),
                    );
                    assert!(
                        epoch >= last,
                        "reader {t} went back in time: epoch {epoch} after {last}"
                    );
                    last = epoch;
                    round += 1;
                }
            });
        }
    });
    let m = eng.metrics();
    assert_eq!(m.counter("fusedmm_epoch_swaps_total", &[]), Some(publishes as u64));
    assert_eq!(m.gauge_value("fusedmm_feature_epoch", &[]), Some(publishes as f64));
}

/// Same isolation property through the sharded front end: one pinned
/// epoch per request even when the rows span several band engines.
#[test]
fn sharded_responses_never_tear_across_shards_or_epochs() {
    let n = 90;
    let d = 8;
    let publishes = 40usize;
    let (a, feats, cfg) = ring_fixture(n, d);
    let eng = ShardedEngine::new(a, feats.clone(), feats, OpSet::gcn(), 3, cfg);
    assert!(eng.nshards() > 1, "fixture must actually shard");
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let eng = &eng;
        let done = &done;
        s.spawn(move || {
            for e in 0..publishes {
                let c = (e + 2) as f32;
                eng.store().publish(Dense::filled(n, d, c), Dense::filled(n, d, c));
                std::thread::sleep(Duration::from_micros(300));
            }
            done.store(true, Ordering::Release);
        });
        for t in 0..4usize {
            s.spawn(move || {
                let mut round = 0usize;
                while !done.load(Ordering::Acquire) || round == 0 {
                    // Deliberately span every band: stride across 0..n.
                    let nodes: Vec<usize> = (0..9).map(|i| (i * 11 + t + round) % n).collect();
                    let z = eng.embed(&nodes).expect("sharded embed during publishes");
                    assert_single_epoch(
                        &z,
                        (publishes + 1) as f32,
                        &format!("sharded reader {t} round {round}"),
                    );
                    round += 1;
                }
            });
        }
    });
    assert_eq!(eng.metrics().counter("fusedmm_epoch_swaps_total", &[]), Some(publishes as u64));
}

/// A ShardedEngine with 1, 2 and 4 shards returns **bit-identical**
/// results to the single Engine on the same graph, for embed (request
/// order, duplicates), edge scoring and full inference, with one
/// rows-computed and one fan-out sample per shard and one latency
/// observation per call: the sharded slice of the equivalence matrix.
#[test]
fn sharded_engines_are_bit_identical_to_the_single_engine() {
    check_cells(&slice(|c| {
        matches!(c.front, Front::Sharded(_))
            && !c.cache
            && c.reordering.is_none()
            && c.d == 64
            && c.graph == Graph::Rmat
            && !c.hostile
    }));
}

/// Engines sharing one store see a publish atomically: both a plain
/// engine and a sharded one serve the new epoch after one publish call.
#[test]
fn shared_store_updates_every_engine_at_once() {
    let n = 48;
    let d = 8;
    let mut c = Coo::new(n, n);
    for u in 0..n {
        c.push(u, (u + 1) % n, 1.0);
    }
    let a = c.to_csr(Dedup::Sum);
    let store = Arc::new(FeatureStore::new(Dense::filled(n, d, 1.0), Dense::filled(n, d, 1.0)));
    let cfg = EngineConfig::default();
    let plain = Engine::with_store(a.clone(), Arc::clone(&store), OpSet::gcn(), cfg.clone());
    let sharded = ShardedEngine::with_store(a, Arc::clone(&store), OpSet::gcn(), 2, cfg);
    store.publish(Dense::filled(n, d, 5.0), Dense::filled(n, d, 5.0));
    assert_eq!(plain.embed(&[3]).unwrap().row(0), &[5.0; 8]);
    assert_eq!(sharded.embed(&[3, 40]).unwrap().row(1), &[5.0; 8]);
    assert_eq!(plain.metrics().gauge_value("fusedmm_feature_epoch", &[]), Some(1.0));
    assert_eq!(sharded.metrics().gauge_value("fusedmm_feature_epoch", &[]), Some(1.0));
}

/// A single engine or a sharded one: both are the one front end over
/// in-process bands, so the same script sweeps 1/2/4-shard topologies.
type AnyEngine = Box<dyn std::ops::Deref<Target = FrontEnd<LocalBands>> + Send + Sync>;

fn build(a: Csr, x: Dense, y: Dense, shards: usize, cache: Option<CacheConfig>) -> AnyEngine {
    build_with(a, x, y, shards, cache, OpSet::sigmoid_embedding(None))
}

fn build_with(
    a: Csr,
    x: Dense,
    y: Dense,
    shards: usize,
    cache: Option<CacheConfig>,
    ops: OpSet,
) -> AnyEngine {
    let cfg = EngineConfig { cache, ..EngineConfig::default() };
    if shards <= 1 {
        Box::new(Engine::new(a, x, y, ops, cfg))
    } else {
        Box::new(ShardedEngine::new(a, x, y, ops, shards, cfg))
    }
}

/// Rows the bands actually computed (the front end dispatches nothing
/// itself).
fn rows_computed(eng: &AnyEngine) -> u64 {
    eng.metrics().sum("fusedmm_rows_computed_total")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The acceptance-criteria equivalence property: a cache-enabled
    /// engine is **bit-identical** to a cache-disabled one under random
    /// interleavings of `publish`, `delta_update`, `embed`, and
    /// `score_edges` — for single, 2-shard, and 4-shard topologies.
    /// Embeds deliberately revisit overlapping hot subsets so warm hits,
    /// post-delta partial invalidation, and post-publish flushes are all
    /// exercised, and each engine pair drives its own store through the
    /// identical write sequence. Undirected graphs run the cache whose
    /// touch sets read the bands, directed ones the cache that owns
    /// `Aᵀ`.
    #[test]
    fn cached_engine_is_bit_identical_under_write_interleavings(
        seed in 0u64..400,
        shards_pick in 0usize..3,
        directed in 0usize..2,
        script in proptest::collection::vec((0usize..5, 0u64..10_000), 4..16),
    ) {
        let n = 40;
        let d = 8;
        let shards = [1usize, 2, 4][shards_pick];
        let graph = RmatConfig::new(n, 4 * n).with_seed(seed);
        let a = rmat(&if directed == 1 { graph.directed() } else { graph });
        prop_assert_eq!(a.is_pattern_symmetric(), directed == 0);
        let x = random_features(n, d, 0.5, seed ^ 21);
        let y = random_features(n, d, 0.5, seed ^ 22);
        let plain = build(a.clone(), x.clone(), y.clone(), shards, None);
        // A tight budget (a few hundred rows) so eviction runs too.
        let cached = build(a, x, y, shards, Some(CacheConfig {
            byte_budget: 64 << 10,
            segments: 4,
        }));
        for (step, &(op, op_seed)) in script.iter().enumerate() {
            match op {
                // Publish: identical fresh matrices to both stores.
                0 => {
                    let fx = random_features(n, d, 0.5, op_seed ^ 0xA5);
                    let fy = random_features(n, d, 0.5, op_seed ^ 0x5A);
                    plain.store().publish(fx.clone(), fy.clone());
                    cached.store().publish(fx, fy);
                }
                // Delta: identical row patch to both stores.
                1 => {
                    let rows: Vec<usize> = (0..1 + (op_seed as usize % 4))
                        .map(|i| (op_seed as usize + i * 7) % n)
                        .collect();
                    let rows = {
                        let mut r = rows;
                        r.sort_unstable();
                        r.dedup();
                        r
                    };
                    let px = random_features(rows.len(), d, 0.5, op_seed ^ 0x77);
                    let py = random_features(rows.len(), d, 0.5, op_seed ^ 0x99);
                    plain.store().delta_update(&rows, &px, &py);
                    cached.store().delta_update(&rows, &px, &py);
                }
                // Score a pair sweep: must agree bit-for-bit.
                2 => {
                    let pairs: Vec<(usize, usize)> = (0..10)
                        .map(|i| ((op_seed as usize + i * 3) % n, (op_seed as usize + i * 11) % n))
                        .collect();
                    prop_assert_eq!(plain.score_edges(&pairs), cached.score_edges(&pairs),
                        "score diverged at step {} (shards={})", step, shards);
                }
                // Embed overlapping hot subsets (two ops map here, so
                // reads dominate the script and revisit warm rows).
                _ => {
                    let nodes: Vec<usize> = (0..12)
                        .map(|i| ((op_seed as usize % 5) * 3 + i * 2) % n)
                        .collect();
                    prop_assert_eq!(plain.embed(&nodes), cached.embed(&nodes),
                        "embed diverged at step {} (shards={})", step, shards);
                }
            }
        }
        // Final full sweep: every row agrees after the whole script.
        let all: Vec<usize> = (0..n).collect();
        prop_assert_eq!(plain.embed(&all), cached.embed(&all),
            "final sweep diverged (shards={})", shards);
    }
}

/// Concurrent version of the equivalence property: readers hammer a
/// *cached* engine while a writer interleaves publishes and delta
/// updates. Every recorded epoch's full expected output is known (ring
/// graph under GCN: `z_u = y_{u+1}`), so each response must match one
/// recorded epoch exactly — a stale cache hit, torn response, or
/// missed invalidation shows up as a row from the wrong epoch.
///
/// Two phases. The first is deterministic and proves the cache is
/// *live*: with the writer parked on a barrier every reader repeats a
/// batch (the repeat must hit), then the writer applies one delta and
/// one publish (both kinds of invalidation must register). The second
/// lets writer and readers run free and asserts *safety* only — how
/// often a free-running reader gets a second look at a row inside one
/// validity window is up to the scheduler.
#[test]
fn cached_responses_are_epoch_consistent_under_concurrent_writes() {
    const READERS: usize = 4;
    for shards in [1usize, 4] {
        let n = 48;
        let d = 4;
        let (a, feats, mut cfg) = ring_fixture(n, d);
        cfg.cache = Some(CacheConfig::default());
        let eng: AnyEngine = if shards == 1 {
            Box::new(Engine::new(a, feats.clone(), feats, OpSet::gcn(), cfg))
        } else {
            Box::new(ShardedEngine::new(a, feats.clone(), feats, OpSet::gcn(), shards, cfg))
        };
        // history[e] = the Y matrix of epoch e (z_u = y_{u+1} exactly).
        let history = std::sync::Mutex::new(vec![Dense::filled(n, d, 1.0)]);
        let done = AtomicBool::new(false);
        // Readers and writer meet here twice: once when every reader
        // has repeated its batch, once when the writer's two
        // deterministic writes are in.
        let phase = std::sync::Barrier::new(READERS + 1);
        let write = |e: u64| {
            let prev = history.lock().unwrap().last().unwrap().clone();
            if e.is_multiple_of(3) {
                // Whole-matrix publish.
                let fresh = Dense::filled(n, d, e as f32 + 1.0);
                history.lock().unwrap().push(fresh.clone());
                eng.store().publish(fresh.clone(), fresh);
            } else {
                // Delta patch of a couple of rows.
                let rows = [(e as usize * 5) % n, (e as usize * 5 + 13) % n];
                let rows = if rows[0] == rows[1] { vec![rows[0]] } else { rows.to_vec() };
                let patch = Dense::filled(rows.len(), d, -(e as f32));
                let mut next = prev;
                for &u in &rows {
                    next.row_mut(u).fill(-(e as f32));
                }
                history.lock().unwrap().push(next);
                eng.store().delta_update(&rows, &patch, &patch);
            }
        };
        let (after_repeat, after_delta, after_publish) = std::thread::scope(|s| {
            let (eng, history, done, phase, write) = (&eng, &history, &done, &phase, &write);
            let writer = s.spawn(move || {
                phase.wait();
                let after_repeat = eng.metrics();
                write(1);
                let after_delta = eng.metrics();
                write(3);
                let after_publish = eng.metrics();
                phase.wait();
                for e in 4..=50u64 {
                    write(e);
                    std::thread::sleep(Duration::from_micros(200));
                }
                done.store(true, Ordering::Release);
                (after_repeat, after_delta, after_publish)
            });
            for t in 0..READERS {
                s.spawn(move || {
                    // Together the readers' batches cover every row, so
                    // whatever the delta touches is resident.
                    let own: Vec<usize> = (0..n / READERS).map(|i| t * (n / READERS) + i).collect();
                    let first = eng.embed(&own).expect("embed");
                    let repeat = eng.embed(&own).expect("embed");
                    phase.wait();
                    phase.wait();
                    assert_eq!(first, repeat, "reader {t}: a repeat under no writes changed");
                    let mut last_epoch = 0usize;
                    let mut round = 0usize;
                    while !done.load(Ordering::Acquire) || round == 0 {
                        let nodes: Vec<usize> =
                            (0..10).map(|i| (t * 3 + i * 5 + round) % n).collect();
                        let z = eng.embed(&nodes).expect("embed");
                        // The response must equal one recorded epoch's
                        // expected rows, and epochs advance per reader.
                        let snap = history.lock().unwrap().clone();
                        let matched = (last_epoch..snap.len()).find(|&e| {
                            nodes
                                .iter()
                                .enumerate()
                                .all(|(i, &u)| z.row(i) == snap[e].row((u + 1) % n))
                        });
                        match matched {
                            Some(e) => last_epoch = e,
                            None => panic!(
                                "reader {t} round {round} (shards={shards}): response \
                                 matches no epoch in [{last_epoch}, {})",
                                snap.len()
                            ),
                        }
                        round += 1;
                    }
                });
            }
            writer.join().expect("writer")
        });
        // Liveness, from the deterministic phase alone.
        let cache = |m: &MetricsSnapshot, name: &str| {
            m.counter(&format!("fusedmm_cache_{name}_total"), &[]).expect("cache enabled")
        };
        let hits = cache(&after_repeat, "hits");
        assert!(hits >= n as u64, "every repeated row is a hit (shards={shards}): {hits} hits");
        let flushes = cache(&after_repeat, "flushes");
        assert_eq!(cache(&after_repeat, "invalidated_rows") + flushes, 0);
        assert!(
            cache(&after_delta, "invalidated_rows") > 0 && cache(&after_delta, "flushes") == 0,
            "the delta dropped resident rows (shards={shards})"
        );
        let flushes = cache(&after_publish, "flushes");
        assert!(flushes > 0, "the publish flushed the cache (shards={shards})");
    }
}

/// `embed_begin` + harvest (in any order, by any method) returns
/// exactly what the blocking `embed` returns, for single and
/// 1/2/4-shard engines, with and without the result cache: the
/// in-process topologies of the equivalence matrix, whose every cell
/// harvests its ticket window by `wait`, `poll`, `wait_deadline` and
/// `wait_any`.
#[test]
fn tickets_are_bit_identical_to_blocking_embed_across_topologies() {
    check_cells(&slice(|c| {
        matches!(c.front, Front::Engine | Front::Sharded(_))
            && c.reordering.is_none()
            && c.d == 64
            && c.graph == Graph::Rmat
            && !c.hostile
    }));
}

/// How a test harvests its tickets: every entry point a caller has.
#[derive(Debug, Clone, Copy)]
enum Harvest {
    Wait,
    /// `poll` until it answers.
    Poll,
    /// `wait_any` over a window of exactly these tickets.
    WaitAny,
    /// `wait_deadline` at a deadline already passed, which must leave
    /// the ticket live, then `wait`.
    PastDeadline,
}

fn harvest(tickets: Vec<Ticket<Dense>>, how: Harvest) -> Vec<Dense> {
    let answer = |r: Result<Dense, ServeError>| r.expect("the ticket answers");
    match how {
        Harvest::Wait => tickets.into_iter().map(|t| answer(t.wait())).collect(),
        Harvest::Poll => tickets
            .into_iter()
            .map(|mut t| loop {
                match t.poll() {
                    Some(r) => break answer(r),
                    None => std::thread::yield_now(),
                }
            })
            .collect(),
        Harvest::WaitAny => {
            let mut window = tickets;
            let mut rows: Vec<Option<Dense>> = vec![None; window.len()];
            while let Some(i) = wait_any(&mut window) {
                rows[i] = Some(answer(window[i].poll().expect("wait_any found it ready")));
            }
            rows.into_iter().map(|r| r.expect("every ticket harvested")).collect()
        }
        Harvest::PastDeadline => {
            let mut tickets = tickets;
            let passed = std::time::Instant::now();
            for t in &mut tickets {
                assert!(t.wait_deadline(passed).is_none(), "nothing waits past its deadline");
                assert!(t.is_live(), "a timed-out ticket keeps its progress");
            }
            tickets.into_iter().map(|t| answer(t.wait())).collect()
        }
    }
}

/// A front end whose misses coalesce: in process, or remote, where the
/// cache lives on each replica (`RemoteShardedEngine` refuses one of
/// its own).
enum Coalescing {
    Local(AnyEngine),
    Remote(Box<RemoteShardedEngine>, Vec<Arc<WorkerEngine>>),
}

impl Coalescing {
    /// A remote front end over two in-process replicas of `a`, each
    /// cached, with every fill held back `hold_us` so that parts sent
    /// together for one row all reach its replica while the first is
    /// in flight.
    fn remote(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet, hold_us: u64) -> Coalescing {
        let (n, d) = (a.nrows(), x.ncols());
        let part = Partition::part1d(a, 2, PartitionStrategy::NnzBalanced);
        let held = FaultPlan::parse(&format!("delay_fill_us={hold_us}")).expect("a fault plan");
        let config = EngineConfig {
            cache: Some(CacheConfig::default()),
            fault: Some(Arc::new(held)),
            ..matrix::config(false, None)
        };
        let workers: Vec<Arc<WorkerEngine>> = (0..part.len())
            .map(|s| {
                let (x0, y0, ops) = (Dense::zeros(n, d), Dense::zeros(n, d), ops.clone());
                Arc::new(WorkerEngine::new(a, part.rows(s), s, x0, y0, ops, config.clone()))
            })
            .collect();
        let boundaries = part.boundaries().to_vec();
        let transport = matrix::InProcess { workers: workers.clone(), boundaries, latch: None };
        let config = matrix::config(false, None);
        let engine = RemoteShardedEngine::new(x.clone(), y.clone(), Arc::new(transport), config);
        Coalescing::Remote(Box::new(engine), workers)
    }

    fn embed_begin(&self, nodes: &[usize]) -> Ticket<Dense> {
        match self {
            Coalescing::Local(engine) => engine.embed_begin(nodes),
            Coalescing::Remote(engine, _) => engine.embed_begin(nodes),
        }
        .expect("the request begins")
    }

    /// One scrape of each front end whose bands compute and whose cache
    /// routes.
    fn scrapes(&self) -> Vec<MetricsSnapshot> {
        match self {
            Coalescing::Local(engine) => vec![engine.metrics()],
            Coalescing::Remote(_, workers) => workers
                .iter()
                .map(|w| {
                    let registry = MetricsRegistry::new();
                    w.register_metrics(&registry);
                    registry.snapshot()
                })
                .collect(),
        }
    }
}

/// The acceptance-criteria coalescing test: ≥2 concurrent misses on
/// the same vertex register against one in-flight entry — exactly one
/// row computation serves all three requests, bit-identically, whichever
/// way the coalesced tickets are harvested. They are harvested before
/// the owner's ticket, so waiting on a coalesced row must itself run
/// the band the owning part sits on.
#[test]
fn coalesced_waiters_trigger_exactly_one_row_computation() {
    let _watchdog = Watchdog::start("the coalescing test");
    let n = 30;
    let d = 8;
    let a = rmat(&RmatConfig::new(n, 4 * n).with_seed(17));
    let x = random_features(n, d, 0.5, 41);
    let y = random_features(n, d, 0.5, 42);
    let ops = OpSet::sigmoid_embedding(None);
    let reference = fusedmm_reference(&a, &x, &y, &ops);
    let bits = |z: &Dense| z.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let harvests = [Harvest::Wait, Harvest::Poll, Harvest::WaitAny, Harvest::PastDeadline];
    for front in ["1 shard", "3 shards", "remote"] {
        for how in harvests {
            let label = format!("{front}, {how:?}");
            let cache = Some(CacheConfig::default());
            let local =
                |shards| build_with(a.clone(), x.clone(), y.clone(), shards, cache, ops.clone());
            let eng = match front {
                "1 shard" => Coalescing::Local(local(1)),
                "3 shards" => Coalescing::Local(local(3)),
                _ => Coalescing::remote(&a, &x, &y, &ops, 200_000),
            };
            // In process, `embed_begin` only enqueues: nothing computes
            // node 7 before the first harvest, so the second and third
            // tickets are guaranteed to find it still in flight (routing
            // happens at begin time, before any fill can land).
            let owner = eng.embed_begin(&[7]);
            let coalesced = vec![eng.embed_begin(&[7]), eng.embed_begin(&[7])];
            let rows = harvest(coalesced, how);
            let z1 = owner.wait().unwrap();
            for z in &rows {
                assert_eq!(bits(z), bits(&z1), "coalesced fill must be bit-identical ({label})");
            }
            for k in 0..d {
                assert!(
                    (z1.get(0, k) - reference.get(7, k)).abs() < 1e-5,
                    "lane {k} diverges from the reference ({label})"
                );
            }
            let scrapes = eng.scrapes();
            let count = |name| scrapes.iter().map(|m| m.sum(name)).sum::<u64>();
            let computed = count("fusedmm_rows_computed_total");
            assert_eq!(computed, 1, "exactly one enqueue computed the row ({label})");
            let misses = count("fusedmm_cache_misses_total");
            assert_eq!(misses, 3, "all three requests missed ({label})");
            let coalesced = count("fusedmm_cache_coalesced_misses_total");
            assert_eq!(coalesced, 2, "two waiters coalesced ({label})");
            let inserts = count("fusedmm_cache_inserts_total");
            assert_eq!(inserts, 1, "the single fill was admitted once ({label})");
            let inflight = scrapes
                .iter()
                .map(|m| m.gauge_value("fusedmm_cache_inflight_rows", &[]).expect("a cache"));
            let inflight: f64 = inflight.sum();
            assert_eq!(inflight, 0.0, "registration resolved ({label})");
        }
    }
}

/// Ticketed readers under hammering publishes: every harvested
/// response reflects exactly one epoch (never torn), and the epochs a
/// reader's tickets pin are monotone in *begin* order even when the
/// window is harvested in reverse.
#[test]
fn ticket_windows_pin_monotonic_untorn_epochs_under_publishes() {
    for shards in [1usize, 3] {
        let n = 90;
        let d = 8;
        let publishes = 30usize;
        let (a, feats, _) = ring_fixture(n, d);
        let eng = build_with(a, feats.clone(), feats, shards, None, OpSet::gcn());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let eng = &eng;
            let done = &done;
            s.spawn(move || {
                for e in 0..publishes {
                    let c = (e + 2) as f32;
                    eng.store().publish(Dense::filled(n, d, c), Dense::filled(n, d, c));
                    std::thread::sleep(Duration::from_micros(300));
                }
                done.store(true, Ordering::Release);
            });
            for t in 0..4usize {
                s.spawn(move || {
                    let mut last = 0.0f32;
                    let mut round = 0usize;
                    while !done.load(Ordering::Acquire) || round == 0 {
                        // Launch a whole window before harvesting any
                        // of it, then harvest in reverse order.
                        let window: Vec<(usize, Ticket<Dense>)> = (0..6)
                            .map(|w| {
                                let nodes: Vec<usize> =
                                    (0..8).map(|i| (t * 5 + w + i * 7 + round) % n).collect();
                                (w, eng.embed_begin(&nodes).expect("embed_begin"))
                            })
                            .collect();
                        let mut epochs = [0.0f32; 6];
                        for (w, ticket) in window.into_iter().rev() {
                            let z = ticket.wait().expect("ticket during publishes");
                            epochs[w] = assert_single_epoch(
                                &z,
                                (publishes + 1) as f32,
                                &format!("reader {t} round {round} window {w} shards {shards}"),
                            );
                        }
                        // Begin order pinned the epochs, so they must
                        // be monotone in that order — and never go
                        // below what this reader already observed.
                        for w in 0..6 {
                            assert!(
                                epochs[w] >= last,
                                "reader {t} window {w}: epoch {} after {last} (shards={shards})",
                                epochs[w]
                            );
                            last = epochs[w];
                        }
                        round += 1;
                    }
                });
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance-criteria coalescing property: under sequential
    /// interleavings of `publish`, `delta_update`, `embed_begin` on
    /// overlapping hot sets, and out-of-order harvests, (a) every
    /// ticket resolves bit-identically to an uncached blocking engine
    /// driven through the identical write sequence, and (b) each
    /// coalesced vertex is computed **exactly once per validity
    /// window**: the cached engine's dispatched row count equals the
    /// model's count of (vertex, epoch-window) first-misses.
    #[test]
    fn coalesced_misses_compute_exactly_once_per_epoch(
        shards_pick in 0usize..3,
        script in proptest::collection::vec((0usize..8, 0u64..10_000), 6..24),
    ) {
        let n = 24;
        let d = 4;
        let shards = [1usize, 2, 4][shards_pick];
        // Ring graph under GCN: z_u = y_{u+1}, and a delta patching v
        // invalidates exactly {v, v-1} — a touch set the model below
        // can mirror.
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let a = c.to_csr(Dedup::Sum);
        let feats = Dense::from_fn(n, d, |r, k| (r * d + k) as f32);
        let plain = build_with(
            a.clone(), feats.clone(), feats.clone(), shards, None,
            OpSet::gcn(),
        );
        // A budget far above n rows, so eviction never perturbs the
        // exactly-once model.
        let cached = build_with(
            a, feats.clone(), feats, shards,
            Some(CacheConfig::default()), OpSet::gcn(),
        );
        // Model: `covered[u]` is true while some computation of row u
        // (resident or still in flight) is valid at the current epoch.
        // A begin on an uncovered vertex is the one that computes it.
        let mut covered = vec![false; n];
        let mut expected_computes = 0u64;
        let mut open: Vec<(Ticket<Dense>, Dense)> = Vec::new();
        for &(op, s) in &script {
            match op {
                // Publish: everything invalid.
                0 => {
                    let v = (s % 97) as f32 + 1.0;
                    plain.store().publish(Dense::filled(n, d, v), Dense::filled(n, d, v));
                    cached.store().publish(Dense::filled(n, d, v), Dense::filled(n, d, v));
                    covered.iter_mut().for_each(|c| *c = false);
                }
                // Delta: rows and their ring in-neighbors invalid.
                1 => {
                    let mut rows: Vec<usize> = (0..1 + (s as usize % 3))
                        .map(|i| (s as usize + i * 5) % n)
                        .collect();
                    rows.sort_unstable();
                    rows.dedup();
                    let patch = Dense::filled(rows.len(), d, -((s % 53) as f32) - 1.0);
                    plain.store().delta_update(&rows, &patch, &patch);
                    cached.store().delta_update(&rows, &patch, &patch);
                    for &r in &rows {
                        covered[r] = false;
                        covered[(r + n - 1) % n] = false;
                    }
                }
                // Harvest one open ticket (reads below dominate).
                2 => {
                    if let Some((ticket, expected)) = open.pop() {
                        prop_assert_eq!(ticket.wait().unwrap(), expected,
                            "early harvest diverged (shards={})", shards);
                    }
                }
                // Begin a ticket on an overlapping hot subset.
                _ => {
                    let base = (s as usize % 5) * 3;
                    let nodes: Vec<usize> =
                        (0..8).map(|i| (base + i * 2) % n).collect();
                    // The uncached twin, driven through the identical
                    // writes, fixes the expected bits at begin time.
                    let expected = plain.embed(&nodes).expect("embed");
                    let mut unique = nodes.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    for &u in &unique {
                        if !covered[u] {
                            covered[u] = true;
                            expected_computes += 1;
                        }
                    }
                    open.push((cached.embed_begin(&nodes).expect("embed_begin"), expected));
                }
            }
        }
        for (ticket, expected) in open {
            prop_assert_eq!(ticket.wait().unwrap(), expected,
                "late harvest diverged (shards={})", shards);
        }
        prop_assert_eq!(rows_computed(&cached), expected_computes,
            "every coalesced vertex computed exactly once per validity window \
             (shards={})", shards);
    }
}

#[test]
fn engine_edge_scores_match_direct_sddmm() {
    let n = 40;
    let a = rmat(&RmatConfig::new(n, 160).with_seed(5));
    let x = random_features(n, 8, 0.5, 7);
    let y = random_features(n, 8, 0.5, 8);
    let ops = OpSet::sigmoid_embedding(None);
    let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u * 3 + 1) % n)).collect();
    let direct = score_edges(&a, &pairs, &x, &y, &ops);

    let engine = Engine::new(a, x.clone(), y, ops, EngineConfig::default());
    let served = engine.score_edges(&pairs).unwrap();
    assert_eq!(served.len(), direct.len());
    for (i, (s, d)) in served.iter().zip(&direct).enumerate() {
        assert!((s - d).abs() < 1e-6, "pair {i}");
    }
    // Scores are sigmoids: all in (0, 1).
    assert!(served.iter().all(|&s| s > 0.0 && s < 1.0));
}

/// Aborts the process when the test that started it is still running
/// after 60 s: a lost wakeup fails the run instead of hanging it.
/// Dropping it, however the test ends, stops it.
struct Watchdog {
    finished: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start(what: &'static str) -> Watchdog {
        let finished = Arc::new(AtomicBool::new(false));
        let thread = {
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                while !finished.load(Ordering::Acquire) {
                    if t0.elapsed() > Duration::from_secs(60) {
                        eprintln!("{what} still running after 60 s: a lost wakeup");
                        std::process::abort();
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        Watchdog { finished, thread: Some(thread) }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.finished.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

const HAMMER_THREADS: usize = 8;
const HAMMER_REQUESTS: usize = 250;

/// `HAMMER_THREADS` callers × `HAMMER_REQUESTS` requests of hot,
/// overlapping ids through `eng`, harvested by every method — `wait`, a
/// `poll` loop, a `wait_any` window and `wait_deadline` — so combiners,
/// parked waiters, coalesced cache waiters and one-batch polls
/// interleave. Every answer must be bit-identical to `reference`.
fn hammer<T: ShardTransport + ?Sized + 'static>(eng: &FrontEnd<T>, reference: &Dense, label: &str) {
    let n = reference.nrows();
    std::thread::scope(|s| {
        for t in 0..HAMMER_THREADS {
            s.spawn(move || {
                let check = |nodes: &[usize], z: Dense| {
                    for (i, &u) in nodes.iter().enumerate() {
                        let same = z.row(i).iter().zip(reference.row(u));
                        assert!(
                            same.into_iter().all(|(g, w)| g.to_bits() == w.to_bits()),
                            "thread {t} node {u} ({label}) diverged from the reference"
                        );
                    }
                };
                let (mut window, mut asked) = (Vec::new(), Vec::new());
                let drain = |window: &mut Vec<Ticket<Dense>>, asked: &mut Vec<Vec<usize>>| {
                    while let Some(i) = wait_any(window) {
                        let z = window[i].poll().expect("ready after wait_any");
                        check(&asked[i], z.expect("wait_any"));
                    }
                    window.clear();
                    asked.clear();
                };
                for r in 0..HAMMER_REQUESTS {
                    // Hot, overlapping ids so threads coalesce on each
                    // other's in-flight rows.
                    let len = 1 + (t + r) % 9;
                    let nodes: Vec<usize> =
                        (0..len).map(|i| (t * 7 + r * 13 + i * 29) % (n / 4) * 4).collect();
                    let mut ticket = eng.embed_begin(&nodes).expect("embed_begin");
                    match r % 4 {
                        0 => check(&nodes, ticket.wait().expect("wait")),
                        1 => loop {
                            if let Some(z) = ticket.poll() {
                                break check(&nodes, z.expect("poll"));
                            }
                            std::thread::yield_now();
                        },
                        2 => {
                            window.push(ticket);
                            asked.push(nodes);
                            if window.len() == 4 {
                                drain(&mut window, &mut asked);
                            }
                        }
                        _ => {
                            let far = std::time::Instant::now() + Duration::from_secs(30);
                            let z = ticket.wait_deadline(far).expect("within the deadline");
                            check(&nodes, z.expect("wait_deadline"));
                        }
                    }
                }
                drain(&mut window, &mut asked);
            });
        }
    });
    let m = eng.metrics();
    let count = |outcome: &str| m.sum(&format!("fusedmm_requests_{outcome}_total"));
    assert_eq!(count("begun"), (HAMMER_THREADS * HAMMER_REQUESTS) as u64, "{label}");
    let lost = count("failed") + count("shed") + count("abandoned");
    assert_eq!(lost, 0, "{label}: {}", m.to_prometheus());
    assert_eq!(count("begun"), count("harvested") + count("degraded"), "{label}");
    let inflight = m.gauge_value("fusedmm_requests_inflight", &[]);
    assert_eq!(inflight, Some(0.0), "every ticket resolved ({label})");
}

/// The hang guard of the waiter-runs-the-batch state machine: the
/// `hammer` over 1, 2 and 4 shards with the cache on, so every band
/// sees combiners, parked waiters and coalesced cache waiters. Every
/// response is bit-identical to the whole-graph launch (`fusedmm`) and
/// within 1e-5 of `fusedmm_reference`, and the ledger reconciles.
#[test]
fn waiters_running_the_batches_never_hang_and_stay_bit_identical() {
    let (n, d) = (256, 16);
    let a = rmat(&RmatConfig::new(n, 6 * n).with_seed(71));
    let x = random_features(n, d, 0.5, 72);
    let y = random_features(n, d, 0.5, 73);
    let ops = OpSet::sigmoid_embedding(None);
    let reference = fusedmm(&a, &x, &y, &ops);
    let all: Vec<usize> = (0..n).collect();
    assert_rows_match(&reference, &fusedmm_reference(&a, &x, &y, &ops), &all, 1e-5, "reference");
    let _watchdog = Watchdog::start("serving stress test");
    for shards in [1usize, 2, 4] {
        // A cache far smaller than the hot set: rows keep missing,
        // coalescing and evicting instead of settling into hits.
        let cache = Some(CacheConfig { byte_budget: 4 << 10, segments: 4 });
        let eng = build(a.clone(), x.clone(), y.clone(), shards, cache);
        hammer(&**eng, &reference, &format!("shards={shards}"));
        let m = eng.metrics();
        let coalesced = m.counter("fusedmm_cache_coalesced_misses_total", &[]).expect("cache on");
        let evictions = m.counter("fusedmm_cache_evictions_total", &[]).expect("cache on");
        assert!(
            coalesced > 0 && evictions > 0,
            "shards={shards}: {coalesced} coalesced, {evictions} evicted"
        );
    }
}

/// The same hang guard over sockets: the `hammer` on a
/// `RemoteShardedEngine` over 2 workers (each with a small cache),
/// while a ninth thread ships `delta_update`s that rewrite rows with
/// the values they already hold. Epochs advance and their records
/// interleave with the callers' frames on each socket; every answer
/// stays bit-identical to `fusedmm` and the ledger reconciles with
/// nothing failed.
#[test]
fn remote_callers_never_hang_and_stay_bit_identical_while_deltas_ship() {
    let (n, d, nshards) = (256, 16, 2);
    let a = rmat(&RmatConfig::new(n, 6 * n).with_seed(71));
    let x = random_features(n, d, 0.5, 72);
    let y = random_features(n, d, 0.5, 73);
    let ops = OpSet::sigmoid_embedding(None);
    let reference = fusedmm(&a, &x, &y, &ops);
    let config = |cache| EngineConfig { cache, ..EngineConfig::default() };
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths: Vec<std::path::PathBuf> =
        (0..nshards).map(|s| dir.join(format!("fusedmm-hammer-{pid}-{s}.sock"))).collect();
    let partition = Partition::part1d(&a, nshards, PartitionStrategy::NnzBalanced);
    let servers: Vec<WorkerServer> = (0..nshards)
        .map(|s| {
            let cache = Some(CacheConfig { byte_budget: 4 << 10, segments: 4 });
            let (x0, y0) = (Dense::zeros(n, d), Dense::zeros(n, d));
            let worker =
                WorkerEngine::new(&a, partition.rows(s), s, x0, y0, ops.clone(), config(cache));
            WorkerServer::serve_unix(Arc::new(worker), &paths[s]).expect("bind worker socket")
        })
        .collect();
    let transport =
        RpcTransport::connect(RpcConfig::new(paths.clone())).expect("connect loopback workers");
    let remote = RemoteShardedEngine::new(x.clone(), y.clone(), transport, config(None));
    let _watchdog = Watchdog::start("remote serving stress test");
    let stop = AtomicBool::new(false);
    let shipped = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut shipped = 0;
            // Fewer records than a replica's 64-epoch history, so no
            // caller's pinned epoch can age out of it.
            while !stop.load(Ordering::Acquire) && shipped < 48 {
                let rows: Vec<usize> = (0..4).map(|i| (shipped * 4 + i) % n).collect();
                let xr = Dense::from_fn(rows.len(), d, |r, k| x.get(rows[r], k));
                let yr = Dense::from_fn(rows.len(), d, |r, k| y.get(rows[r], k));
                remote.delta_update(&rows, &xr, &yr);
                shipped += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            shipped
        });
        hammer(&remote, &reference, "remote");
        stop.store(true, Ordering::Release);
        writer.join().expect("delta writer")
    });
    assert!(shipped > 0, "no delta shipped while the callers ran");
    assert_eq!(remote.metrics().gauge_value("fusedmm_feature_epoch", &[]), Some(shipped as f64));
    drop(remote);
    drop(servers);
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}

/// Parts queued before anyone waits share one launch. The launch
/// output goes to the part that asked for exactly the union — here the
/// middle one of three, and in a second round none — and every other
/// part gets a copy of its rows: all of them bit-identical to the
/// whole-graph launch.
#[test]
fn a_coalesced_launch_answers_every_part_and_hands_its_output_to_the_union() {
    let (n, d) = (64, 8);
    let a = rmat(&RmatConfig::new(n, 4 * n).with_seed(91));
    let (x, y) = (random_features(n, d, 0.5, 92), random_features(n, d, 0.5, 93));
    let ops = OpSet::sigmoid_embedding(None);
    let reference = fusedmm(&a, &x, &y, &ops);
    let eng = Engine::new(a, x, y, ops, EngineConfig::default());
    let rounds: [&[&[usize]]; 2] = [&[&[3], &[1, 3, 5], &[5], &[1, 5]], &[&[2, 9], &[9, 4], &[4]]];
    for (round, asked) in rounds.into_iter().enumerate() {
        let batches = || eng.metrics().sum("fusedmm_batches_dispatched_total");
        let before = batches();
        let tickets: Vec<_> =
            asked.iter().map(|ids| eng.embed_begin(ids).expect("begin")).collect();
        for (ids, ticket) in asked.iter().zip(tickets) {
            let z = ticket.wait().expect("rows");
            for (k, &u) in ids.iter().enumerate() {
                let same = z.row(k).iter().zip(reference.row(u));
                assert!(same.into_iter().all(|(g, w)| g.to_bits() == w.to_bits()), "round {round}");
            }
        }
        let launches = batches() - before;
        assert_eq!(launches, 1, "round {round}: the queued parts coalesced into one launch");
    }
}

/// `wait_any` parks on one wake queue that the window's slots report
/// ticket indices on and the bands kick. Over a window whose spent
/// tickets sit among live ones, while another thread keeps queueing
/// parts on the same bands (so kicks keep arriving), it returns every
/// live ticket exactly once, each one ready — never a spent index and
/// never a kick.
#[test]
fn wait_any_returns_only_live_ready_tickets_while_bands_kick() {
    let (n, d) = (512, 16);
    let a = rmat(&RmatConfig::new(n, 6 * n).with_seed(81));
    let (x, y) = (random_features(n, d, 0.5, 82), random_features(n, d, 0.5, 83));
    let ops = OpSet::sigmoid_embedding(None);
    let reference = fusedmm(&a, &x, &y, &ops);
    let eng = build(a, x, y, 2, None);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut r = 0usize;
            while !stop.load(Ordering::Acquire) {
                r += 1;
                let ids: Vec<usize> = (0..8).map(|i| (r * 37 + i * 61) % n).collect();
                eng.embed(&ids).expect("background embed");
            }
        });
        for round in 0..20usize {
            let asked: Vec<Vec<usize>> = (0..12)
                .map(|t| (0..1 + t % 5).map(|i| (round * 101 + t * 43 + i * 7) % n).collect())
                .collect();
            let mut window: Vec<Ticket<Dense>> =
                asked.iter().map(|ids| eng.embed_begin(ids).expect("embed_begin")).collect();
            let far = std::time::Instant::now() + Duration::from_secs(30);
            let spent = [0usize, 5, 11];
            for &i in &spent {
                window[i].wait_deadline(far).expect("within the deadline").expect("rows");
            }
            let mut seen = vec![false; window.len()];
            while let Some(i) = wait_any(&mut window) {
                assert!(!spent.contains(&i), "round {round}: spent ticket {i} returned");
                assert!(window[i].is_live() && !seen[i], "round {round}: ticket {i} twice");
                seen[i] = true;
                let z = window[i].poll().expect("ready after wait_any").expect("rows");
                for (k, &u) in asked[i].iter().enumerate() {
                    let same = z.row(k).iter().zip(reference.row(u));
                    assert!(same.into_iter().all(|(g, w)| g.to_bits() == w.to_bits()));
                }
            }
            let live = (0..window.len()).filter(|i| !spent.contains(i));
            assert!(live.into_iter().all(|i| seen[i]), "round {round}: a live ticket was missed");
        }
        stop.store(true, Ordering::Release);
    });
}

/// No engine spawns a thread of its own to run its batches: after
/// building an `Engine`, a 4-shard `ShardedEngine` and a `WorkerEngine`,
/// no thread of this process carries the old per-band dispatcher's
/// name.
#[cfg(target_os = "linux")]
#[test]
fn no_engine_spawns_a_dispatcher_thread() {
    let n = 64;
    let a = rmat(&RmatConfig::new(n, 4 * n).with_seed(5));
    let feats = random_features(n, 8, 0.5, 6);
    let ops = OpSet::sigmoid_embedding(None);
    let cfg = EngineConfig::default;
    let engine = Engine::new(a.clone(), feats.clone(), feats.clone(), ops.clone(), cfg());
    let sharded =
        ShardedEngine::new(a.clone(), feats.clone(), feats.clone(), ops.clone(), 4, cfg());
    let worker = WorkerEngine::new(&a, 0..n / 2, 0, feats.clone(), feats, ops, cfg());
    engine.embed(&[1, 2]).expect("engine");
    sharded.embed(&[1, 63]).expect("sharded");
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect();
    assert!(!names.is_empty(), "this thread at least");
    assert!(
        names.iter().all(|name| !name.starts_with("fusedmm-serve-d")),
        "a dispatcher thread is running: {names:?}"
    );
    drop((engine, sharded, worker));
}
