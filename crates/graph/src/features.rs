//! Random dense feature matrices.
//!
//! Kernel benchmarks need `X` and `Y` filled with realistic magnitudes;
//! embedding training needs small random initial embeddings. Both come
//! from here, seeded for reproducibility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusedmm_sparse::dense::Dense;

/// An `nrows × d` matrix with entries uniform in `[-scale, scale)`.
pub fn random_features(nrows: usize, d: usize, scale: f32, seed: u64) -> Dense {
    assert!(scale > 0.0, "feature scale must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Dense::zeros(nrows, d);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-scale..scale);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_range() {
        let m = random_features(10, 8, 0.5, 1);
        assert_eq!((m.nrows(), m.ncols()), (10, 8));
        assert!(m.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn seeded_reproducibility() {
        assert_eq!(random_features(5, 4, 1.0, 2), random_features(5, 4, 1.0, 2));
        assert_ne!(random_features(5, 4, 1.0, 2), random_features(5, 4, 1.0, 3));
    }

    /// The matrices' bits, pinned (FNV-1a of the values' `to_bits`).
    #[test]
    fn features_keep_their_pinned_bits() {
        let pinned = [
            (random_features(257, 33, 0.5, 7), 0xacd8_69d5_ffa7_d023),
            (random_features(64, 128, 0.044, 2), 0xfb86_80f7_85f1_1288),
        ];
        for (m, hash) in pinned {
            let got = crate::fnv(m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()));
            assert_eq!(got, hash, "{} x {}", m.nrows(), m.ncols());
        }
    }

    #[test]
    fn values_are_not_all_equal() {
        let m = random_features(4, 4, 1.0, 4);
        let first = m.as_slice()[0];
        assert!(m.as_slice().iter().any(|&v| v != first));
    }
}
