//! Load-time reordering, end to end: a serving engine configured with
//! any [`Reordering`] — sharded or not, cached or not — must answer
//! every request bit-identically to a plain engine in the external id
//! space, and permutations must round-trip exactly.

use proptest::prelude::*;

use fusedmm::prelude::*;

mod matrix;

use matrix::{check_cells, slice, Front, Graph};

/// Every (reordering, shards, cache) serving combination answers in
/// the external id space, bit-identical to a plain unreordered engine:
/// the reordering slice of the equivalence matrix.
#[test]
fn reordered_serving_bit_identical() {
    check_cells(&slice(|c| {
        c.reordering.is_some()
            && matches!(c.front, Front::Sharded(_))
            && c.d == 64
            && c.graph == Graph::Rmat
            && !c.hostile
    }));
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
