//! Load-time reordering, end to end: a serving engine configured with
//! any [`Reordering`] — sharded or not, cached or not — must answer
//! every request bit-identically to a plain engine in the external id
//! space, and permutations must round-trip exactly.

use proptest::prelude::*;

use fusedmm::prelude::*;

/// A skewed graph: a hub row adjacent to everyone, a mid-degree block,
/// a long short-row tail, and empty rows at the end.
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

/// Every (reordering, shards, cache) serving combination, under the
/// default `Blocking::Auto`, must answer in the external id space,
/// bit-identical to a plain unreordered engine — reordering is
/// invisible to callers.
#[test]
fn reordered_serving_bit_identical() {
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
                let cfg =
                    EngineConfig { cache, reordering: Some(reordering), ..EngineConfig::default() };
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
