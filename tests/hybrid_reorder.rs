//! Degree-aware hybrid execution and load-time reordering, end to end:
//! the hybrid kernel must be bit-identical to the uniform baseline for
//! every dimension class, partition count, and degree shape (including
//! star graphs and empty rows); a serving engine configured with any
//! [`Reordering`] and hybrid blocking — sharded or not, cached or not
//! — must answer every request bit-identically to a plain engine in
//! the external id space; and permutations must round-trip exactly.

use proptest::prelude::*;

use fusedmm::prelude::*;

/// A graph with all four degree classes: a hub row adjacent to
/// everyone, a mid-degree block, a long short-row tail, and empty rows
/// at the end.
fn skewed(n: usize, seed: u64) -> Csr {
    let mut c = Coo::new(n, n);
    for v in 1..n {
        c.push(0, v, 0.3 + ((v + seed as usize) % 11) as f32 * 0.05);
    }
    for u in 1..n / 4 {
        for k in 1..=10usize {
            c.push(u, (u * 7 + k * 13 + seed as usize) % n, 1.0 - k as f32 * 0.02);
        }
    }
    for u in n / 4..n - n / 8 {
        for k in 1..=(u % 3 + 1) {
            c.push(u, (u + k * 17) % n, 0.8);
        }
    }
    // Rows in n - n/8 .. n stay empty.
    c.to_csr(Dedup::Last)
}

/// Hybrid row scheduling vs the uniform launch: the degree-classed
/// passes engage at every dimension — d = 8 is a single (masked, on a
/// 16-lane backend 8-lane) panel, d = 100 ends in the masked tail —
/// and must reproduce `Blocking::Auto` bit for bit.
#[test]
fn hybrid_bit_identical_across_dims_and_parts() {
    let n = 160;
    let a = skewed(n, 3);
    let cfg = HybridConfig { mega_floor: 32 };
    for d in [8usize, 96, 100, 192] {
        let x = random_features(n, d, 0.5, 11);
        let y = random_features(n, d, 0.5, 22);
        let ops = OpSet::sigmoid_embedding(None);
        for parts in [1usize, 2, 4] {
            let auto = fusedmm_opt_with(
                &a,
                &x,
                &y,
                &ops,
                Blocking::Auto,
                Some(parts),
                PartitionStrategy::NnzBalanced,
            );
            let hybrid = fusedmm_opt_with(
                &a,
                &x,
                &y,
                &ops,
                Blocking::Hybrid(cfg),
                Some(parts),
                PartitionStrategy::NnzBalanced,
            );
            assert_eq!(auto.as_slice(), hybrid.as_slice(), "hybrid vs auto d={d} parts={parts}");
        }
    }
}

/// A pure star (every edge in one row) exercises the cooperative
/// mega-row path; the result must still match the uniform kernel bit
/// for bit and the mega pass must show up in the kernel profile.
#[test]
fn star_graph_mega_path_bit_identical_and_profiled() {
    let n = 400;
    let d = 96;
    let mut c = Coo::new(n, n);
    for v in 1..n {
        c.push(0, v, 1.0 + (v % 5) as f32 * 0.1);
    }
    let a = c.to_csr(Dedup::Last);
    let x = random_features(n, d, 0.5, 7);
    let y = random_features(n, d, 0.5, 9);
    let ops = OpSet::tdist_embedding();
    let cfg = HybridConfig { mega_floor: 32 };
    reset_kernel_profiles();
    let uniform =
        fusedmm_opt_with(&a, &x, &y, &ops, Blocking::Auto, Some(4), PartitionStrategy::NnzBalanced);
    let hybrid = fusedmm_opt_with(
        &a,
        &x,
        &y,
        &ops,
        Blocking::Hybrid(cfg),
        Some(4),
        PartitionStrategy::NnzBalanced,
    );
    assert_eq!(uniform.as_slice(), hybrid.as_slice());
    let labels: Vec<&str> = kernel_profiles().iter().map(|p| p.blocking).collect();
    assert!(labels.contains(&"hybrid-mega"), "mega pass missing from profiles: {labels:?}");
}

/// Every (reordering, shards, cache) serving combination with hybrid
/// blocking must answer in the external id space, bit-identical to a
/// plain unreordered engine — reordering and degree-classed kernels
/// are invisible to callers.
#[test]
fn reordered_hybrid_serving_bit_identical() {
    let n = 180;
    let d = 96;
    let a = skewed(n, 5);
    let x = random_features(n, d, 0.5, 31);
    let y = random_features(n, d, 0.5, 32);
    let ops = OpSet::sigmoid_embedding(None);

    let baseline =
        Engine::new(a.clone(), x.clone(), y.clone(), ops.clone(), EngineConfig::default());
    let subsets: Vec<Vec<usize>> = vec![
        (0..n).collect(),
        (0..n).rev().step_by(3).collect(),
        vec![0, 0, 7, n - 1, 7],
        vec![n - 1],
    ];
    let expected: Vec<Dense> = subsets.iter().map(|s| baseline.embed(s).unwrap()).collect();
    let full = baseline.infer_full();

    for reordering in [Reordering::DegreeSort, Reordering::RcmBfs] {
        for nshards in [1usize, 2, 4] {
            for cache in [None, Some(CacheConfig::default())] {
                let label =
                    format!("reordering={reordering:?} shards={nshards} cache={}", cache.is_some());
                let cfg = EngineConfig {
                    blocking: Blocking::Hybrid(HybridConfig { mega_floor: 64 }),
                    cache,
                    reordering: Some(reordering),
                    ..EngineConfig::default()
                };
                let engine =
                    ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops.clone(), nshards, cfg);
                assert_eq!(engine.infer_full().as_slice(), full.as_slice(), "{label}: infer_full");
                for (s, want) in subsets.iter().zip(&expected) {
                    // Twice when cached: the second pass serves hits.
                    for round in 0..2 {
                        let got = engine.embed(s).unwrap();
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "{label}: embed round {round} of {} rows",
                            s.len()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Permutation round trip: composing a reordering's forward and
    /// inverse maps is the identity on ids, dense rows, and the graph
    /// itself.
    #[test]
    fn permutation_compose_inverse_is_identity(
        seed in 0u64..500,
        n in 4usize..64,
        which in 0usize..2,
    ) {
        let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(seed));
        let r = if which == 0 { Reordering::DegreeSort } else { Reordering::RcmBfs };
        let perm = r.compute(&a);
        prop_assert_eq!(perm.len(), n);

        // Ids: to_old ∘ to_new = id and the bulk maps agree.
        let ids: Vec<usize> = (0..n).collect();
        for &u in &ids {
            prop_assert_eq!(perm.to_old(perm.to_new(u)), u);
        }
        prop_assert_eq!(perm.map_to_old(&perm.map_to_new(&ids)), ids);

        // Dense rows: unpermute ∘ permute = id, bitwise.
        let m = random_features(n, 24, 0.5, seed ^ 0xF00D);
        let round = perm.unpermute_rows(&perm.permute_rows(&m));
        prop_assert_eq!(round.as_slice(), m.as_slice());

        // Graph: applying the inverse permutation to the permuted
        // graph restores every row exactly.
        let inverse = Permutation::from_new_of_old(perm.old_of_new().to_vec());
        let back = inverse.permute_csr(&perm.permute_csr(&a));
        for u in 0..n {
            prop_assert_eq!(back.row(u), a.row(u), "row {} after round trip", u);
        }
    }
}
