//! Boundary and failure-injection tests: degenerate graphs, extreme
//! shapes, adversarial values. The fused kernel must behave like the
//! reference on all of them — the paper's generality claim stress-tested
//! where real-world loaders actually break.

use std::sync::Arc;

use fusedmm::baseline::unfused::unfused_pipeline;
use fusedmm::prelude::*;
use fusedmm::serve::{FrontEnd, LocalBands};

fn presets() -> Vec<OpSet> {
    vec![
        OpSet::sigmoid_embedding(None),
        OpSet::fr_model(0.5),
        OpSet::tdist_embedding(),
        OpSet::gcn(),
    ]
}

#[test]
fn empty_graph_yields_zero_output() {
    let a = Csr::empty(10, 10);
    let x = random_features(10, 8, 0.5, 1);
    let y = random_features(10, 8, 0.5, 2);
    for ops in presets() {
        let z = fusedmm_opt(&a, &x, &y, &ops);
        assert!(z.as_slice().iter().all(|&v| v == 0.0), "{:?}", ops.pattern);
    }
}

#[test]
fn single_vertex_graph() {
    let mut c = Coo::new(1, 1);
    c.push(0, 0, 2.0); // a self loop
    let a = c.to_csr(Dedup::Last);
    let x = Dense::filled(1, 4, 0.5);
    let y = Dense::filled(1, 4, 0.25);
    for ops in presets() {
        let z = fusedmm_opt(&a, &x, &y, &ops);
        let r = fusedmm_reference(&a, &x, &y, &ops);
        assert!(z.max_abs_diff(&r) < 1e-6, "{:?}", ops.pattern);
    }
}

#[test]
fn one_dimensional_features() {
    let a = erdos_renyi(20, 40, 1);
    let x = random_features(20, 1, 0.5, 2);
    let y = random_features(20, 1, 0.5, 3);
    for ops in presets() {
        let fused = fusedmm_opt(&a, &x, &y, &ops);
        let unf = unfused_pipeline(&a, &x, &y, &ops).z;
        assert!(fused.max_abs_diff(&unf) < 1e-5, "{:?}", ops.pattern);
    }
}

#[test]
fn star_graph_hub_degree_equals_rows() {
    // One vertex adjacent to everyone: the worst case for row-balanced
    // partitioning and a stress for the accumulator.
    let n = 200;
    let mut c = Coo::new(n, n);
    for v in 1..n {
        c.push(0, v, 1.0);
    }
    let a = c.to_csr(Dedup::Last);
    let x = random_features(n, 16, 0.5, 4);
    let y = random_features(n, 16, 0.5, 5);
    for ops in presets() {
        let z = fusedmm_opt(&a, &x, &y, &ops);
        let r = fusedmm_reference(&a, &x, &y, &ops);
        assert!(z.max_abs_diff(&r) < 1e-3, "{:?} diff {}", ops.pattern, z.max_abs_diff(&r));
        // rows 1.. are all isolated
        for u in 1..n {
            assert!(z.row(u).iter().all(|&v| v == 0.0));
        }
    }
}

#[test]
fn extreme_feature_magnitudes_stay_finite_for_sigmoid() {
    // Logits far outside [-8, 8]: the exact sigmoid saturates, the LUT
    // clamps; neither may produce NaN/inf.
    let a = erdos_renyi(10, 20, 2);
    let x = Dense::filled(10, 8, 100.0);
    let y = Dense::filled(10, 8, 100.0);
    for ops in [
        OpSet::sigmoid_embedding(None),
        OpSet::sigmoid_embedding(Some(Arc::new(SigmoidLut::default_table()))),
    ] {
        let z = fusedmm_opt(&a, &x, &y, &ops);
        assert!(z.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn negative_and_zero_edge_weights() {
    let mut c = Coo::new(3, 3);
    c.push(0, 1, -2.0);
    c.push(0, 2, 0.0); // explicit zero stays a stored entry
    c.push(1, 0, 1.0);
    let a = c.to_csr(Dedup::Last);
    let y = Dense::from_fn(3, 2, |r, _| (r + 1) as f32);
    let x = Dense::zeros(3, 2);
    let z = fusedmm_opt(&a, &x, &y, &OpSet::gcn());
    // z0 = -2*y1 + 0*y2 = (-4, -4)
    assert_eq!(z.row(0), &[-4.0, -4.0]);
}

#[test]
fn wide_rectangular_slice() {
    // 1 batch row against many source vertices.
    let n = 500;
    let mut c = Coo::new(1, n);
    for v in (0..n).step_by(7) {
        c.push(0, v, 1.0);
    }
    let a = c.to_csr(Dedup::Last);
    let x = random_features(1, 24, 0.5, 6);
    let y = random_features(n, 24, 0.5, 7);
    for ops in presets() {
        let z = fusedmm_opt(&a, &x, &y, &ops);
        let r = fusedmm_reference(&a, &x, &y, &ops);
        assert!(z.max_abs_diff(&r) < 1e-3, "{:?}", ops.pattern);
    }
}

#[test]
fn more_partitions_than_rows() {
    let a = erdos_renyi(5, 6, 3);
    let x = random_features(5, 8, 0.5, 8);
    let y = random_features(5, 8, 0.5, 9);
    let ops = OpSet::sigmoid_embedding(None);
    // The generic kernel cut into one part per thread of a pool 64
    // wide: more parts than rows.
    let plan = Plan::with_blocking(&ops, 8, Blocking::Generic, PartitionStrategy::NnzBalanced);
    let mut z = Dense::zeros(5, 8);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(64).build().unwrap();
    pool.install(|| plan.launch(&a, &x, &y, &ops, Launch::All { scores: None }, z.as_mut_slice()));
    let r = fusedmm_reference(&a, &x, &y, &ops);
    assert!(z.max_abs_diff(&r) < 1e-6);
}

#[test]
fn custom_op_returning_constants() {
    // A VOP that ignores its inputs entirely.
    let a = erdos_renyi(12, 20, 5);
    let x = random_features(12, 4, 0.5, 10);
    let y = random_features(12, 4, 0.5, 11);
    let ops = OpSet::custom(
        VOp::Custom(Arc::new(|_x, _y, _a, out| out.fill(1.0))),
        ROp::Sum, // = d
        SOp::Noop,
        MOp::Noop, // broadcast the scalar
        AOp::Sum,
    );
    let z = fusedmm(&a, &x, &y, &ops);
    for u in 0..12 {
        let deg = a.row_nnz(u) as f32;
        let want = deg * 4.0; // each edge contributes the scalar d = 4
        assert!(z.row(u).iter().all(|&v| (v - want).abs() < 1e-5));
    }
}

#[test]
fn duplicate_heavy_coo_input() {
    // Many duplicates of one entry must collapse deterministically.
    let mut c = Coo::new(2, 2);
    for i in 0..100 {
        c.push(0, 1, i as f32);
    }
    let summed = c.to_csr(Dedup::Sum);
    assert_eq!(summed.nnz(), 1);
    assert_eq!(summed.get(0, 1), Some((0..100).sum::<i32>() as f32));
    let last = c.to_csr(Dedup::Last);
    assert_eq!(last.get(0, 1), Some(99.0));
}

#[test]
fn sage_and_tdist_on_degenerate_graphs() {
    use fusedmm::apps::gcn::Activation;
    use fusedmm::apps::sage::{row_normalize, SageLayer};
    // Graph with an isolated vertex and a self loop.
    let mut c = Coo::new(4, 4);
    c.push(0, 0, 1.0);
    c.push(1, 2, 1.0);
    let a = c.to_csr(Dedup::Last);
    let x = random_features(4, 8, 0.5, 12);
    let z = fusedmm_opt(&a, &x, &x, &OpSet::tdist_embedding());
    // self loop: dist = 0 -> h = 1 -> z_0 = x_0
    for k in 0..8 {
        assert!((z.get(0, k) - x.get(0, k)).abs() < 1e-6);
    }
    let layer = SageLayer::new(8, 4, Activation::Linear, 1);
    let out = layer.forward(&row_normalize(&a), &x);
    assert!(out.as_slice().iter().all(|v| v.is_finite()));
}

fn graph_of(n: usize, edges: &[(usize, usize)]) -> Csr {
    let mut c = Coo::new(n, n);
    for &(u, v) in edges {
        c.push(u, v, 0.5 + (u + v) as f32 * 0.25);
    }
    c.to_csr(Dedup::Sum)
}

/// A cached engine over `a` cut into `shards` bands answers every row
/// as an uncached twin does, before and after a delta on `patched`, and
/// the delta retires exactly `retired` of the warm rows. Returns the
/// cut.
fn cached_matches_uncached_through_a_delta(
    a: &Csr,
    shards: usize,
    patched: usize,
    retired: u64,
) -> Vec<usize> {
    let (n, d) = (a.nrows(), 4);
    let (x, y) = (random_features(n, d, 0.5, 31), random_features(n, d, 0.5, 32));
    let config = |cache: Option<CacheConfig>| EngineConfig {
        cache,
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    };
    let ops = OpSet::sigmoid_embedding(None);
    let build = |cache| {
        ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops.clone(), shards, config(cache))
    };
    let (cached, plain) = (build(Some(CacheConfig::default())), build(None));
    let all: Vec<usize> = (0..n).collect();
    let bits = |m: Dense| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let agree = |when: &str| {
        let (c, p) = (cached.embed(&all).expect("cached"), plain.embed(&all).expect("plain"));
        assert_eq!(bits(c), bits(p), "cached ≢ uncached {when}");
    };
    agree("cold");
    agree("warm");
    let invalidated = || {
        let m = cached.metrics();
        m.counter("fusedmm_cache_invalidated_rows_total", &[]).expect("cached")
    };
    let before = invalidated();
    let patch = random_features(1, d, 0.5, 33);
    for engine in [&cached, &plain] {
        assert_eq!(engine.store().delta_update(&[patched], &patch, &patch), 1);
    }
    assert_eq!(invalidated() - before, retired, "rows a delta on {patched} retired");
    agree("after the delta");
    cached.boundaries().to_vec()
}

#[test]
fn cached_engines_over_isolated_vertices() {
    // Vertices 1 and 4 have no edges; the rest form a symmetric path
    // 0–2–3–5, plus a self loop on 3.
    let path = [(0, 2), (2, 0), (2, 3), (3, 2), (3, 5), (5, 3), (3, 3)];
    let symmetric = graph_of(6, &path);
    assert!(symmetric.is_pattern_symmetric());
    // The same vertices, edges one way only.
    let directed = graph_of(6, &[(0, 2), (2, 3), (3, 5), (3, 3)]);
    assert!(!directed.is_pattern_symmetric());
    for a in [&symmetric, &directed] {
        for shards in [1, 2, 3] {
            for isolated in [1, 4] {
                cached_matches_uncached_through_a_delta(a, shards, isolated, 1);
            }
        }
    }
    // A delta on 3 retires 3 and the rows that read y_3.
    for shards in [1, 2, 3] {
        cached_matches_uncached_through_a_delta(&symmetric, shards, 3, 3);
        cached_matches_uncached_through_a_delta(&directed, shards, 3, 2);
    }
}

#[test]
fn cached_engines_over_one_vertex() {
    for a in [Csr::empty(1, 1), graph_of(1, &[(0, 0)])] {
        assert!(a.is_pattern_symmetric());
        for shards in [1, 2] {
            cached_matches_uncached_through_a_delta(&a, shards, 0, 1);
        }
    }
}

#[test]
fn cached_engines_over_a_cut_with_empty_bands() {
    // Only vertices 4 and 5 have edges: PART1D into 4 bands leaves the
    // last one empty, sharing its start with the end of the graph.
    let a = graph_of(6, &[(4, 5), (5, 4), (5, 5)]);
    assert!(a.is_pattern_symmetric());
    let cut = cached_matches_uncached_through_a_delta(&a, 4, 2, 1);
    assert!(cut.windows(2).any(|w| w[0] == w[1]), "no empty band in the cut {cut:?}");
    cached_matches_uncached_through_a_delta(&a, 4, 5, 2);
    cached_matches_uncached_through_a_delta(&a, 4, 4, 2);
}

/// Defined behaviour at d ∈ {0, 1}: an `Engine` and a 2-shard
/// `ShardedEngine` with the result cache on answer `embed` (cold and
/// warm), `score_edges` and `infer_full` bit for bit as the same
/// deployment without it.
#[test]
fn cached_engines_at_zero_and_one_dimension_answer_as_uncached_ones() {
    type AnyEngine = Box<dyn std::ops::Deref<Target = FrontEnd<LocalBands>>>;
    let n = 24;
    let a = erdos_renyi(n, 3 * n, 5);
    let nodes = [5, 0, 23, 5, 11];
    let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u * 5 + 2) % n)).collect();
    let bits =
        |z: Dense| (z.nrows(), z.ncols(), z.as_slice().iter().map(|v| v.to_bits()).collect());
    for d in [0, 1] {
        let (x, y) = (random_features(n, d, 0.5, 41), random_features(n, d, 0.5, 42));
        for shards in [1, 2] {
            let build = |cache: Option<CacheConfig>| -> AnyEngine {
                let (a, x, y, ops) = (a.clone(), x.clone(), y.clone(), OpSet::gcn());
                let config = EngineConfig { cache, ..EngineConfig::default() };
                match shards {
                    1 => Box::new(Engine::new(a, x, y, ops, config)),
                    _ => Box::new(ShardedEngine::new(a, x, y, ops, shards, config)),
                }
            };
            let (plain, cached) = (build(None), build(Some(CacheConfig::default())));
            let label = format!("d={d}, {shards} shard(s)");
            let want: (usize, usize, Vec<u32>) = bits(plain.embed(&nodes).expect(&label));
            assert_eq!(want.0, nodes.len(), "{label}");
            for pass in ["cold", "warm"] {
                assert_eq!(bits(cached.embed(&nodes).expect(&label)), want, "{label}, {pass}");
            }
            let scores = |e: &AnyEngine| {
                let s = e.score_edges(&pairs).expect(&label);
                s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(scores(&cached), scores(&plain), "{label}: scores");
            assert_eq!(bits(cached.infer_full()), bits(plain.infer_full()), "{label}: infer_full");
        }
    }
}
