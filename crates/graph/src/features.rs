//! Random dense feature matrices.
//!
//! Kernel benchmarks need `X` and `Y` filled with realistic magnitudes;
//! embedding training needs small random initial embeddings. Both come
//! from here, seeded for reproducibility.

use rand::rngs::StdRng;
use rand::{LaneTask, LaneWidth, Lanes, SeedableRng};

use fusedmm_sparse::dense::Dense;

/// Values one lane must fill for a fill to run in lanes.
const LANE_MIN: usize = 1 << 14;

/// An `nrows × d` matrix with entries uniform in `[-scale, scale)`: the
/// values `rng.gen_range(-scale..scale)` draws in row-major order, one
/// word each, from the seed's stream. The stream is filled in
/// [`Lanes`], lane `j` writing one contiguous slice of the matrix from
/// its first value's draw on.
pub fn random_features(nrows: usize, d: usize, scale: f32, seed: u64) -> Dense {
    assert!(scale > 0.0, "feature scale must be positive");
    let mut m = Dense::zeros(nrows, d);
    let fill = Fill { out: m.as_mut_slice(), lo: -scale, hi: scale, seed };
    LaneWidth::detected_for(fill.out.len(), LANE_MIN).run(fill);
    m
}

/// A uniform `[lo, hi)` fill of `out`, at any lane width.
struct Fill<'a> {
    out: &'a mut [f32],
    lo: f32,
    hi: f32,
    seed: u64,
}

/// Lockstep steps drawn at a time: 16 KiB of words at eight lanes.
const FILL_STEPS: usize = 256;

impl LaneTask for Fill<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const L: usize>(self) {
        let Fill { out, lo, hi, seed } = self;
        let span = out.len().div_ceil(L).max(1);
        let mut lanes = Lanes::<L>::new(&StdRng::seed_from_u64(seed), span as u64);
        // Lane `j` owns `out[j·span..]`; the last slices may be short
        // or empty.
        let mut slices = out.chunks_mut(span);
        let mut parts: [&mut [f32]; L] = std::array::from_fn(|_| slices.next().unwrap_or_default());
        // `gen_range`'s arithmetic, so the bits match a sequential fill.
        let width = hi - lo;
        let mut words = [[0u64; L]; FILL_STEPS];
        for first in (0..span).step_by(FILL_STEPS) {
            let words = &mut words[..FILL_STEPS.min(span - first)];
            lanes.fill(words);
            for (j, part) in parts.iter_mut().enumerate() {
                let values = part.get_mut(first..).unwrap_or_default();
                for (v, w) in values.iter_mut().zip(words.iter()) {
                    *v = lo + rand::unit_f32(w[j]) * width;
                }
            }
        }
    }
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

    /// Every lane width fills what one lane fills: each width the CPU
    /// runs, and the generic body at 3 and 8 lanes compiled without any
    /// CPU feature, at sizes that are and are not multiples of the lane
    /// count, fewer values than lanes included.
    #[test]
    fn every_lane_width_fills_the_one_lane_values() {
        for (nrows, d) in [(257, 33), (1, 1), (3, 5), (64, 128), (1000, 17), (0, 4)] {
            let fill = |run: &dyn Fn(Fill)| {
                let mut m = Dense::zeros(nrows, d);
                run(Fill { out: m.as_mut_slice(), lo: -0.5, hi: 0.5, seed: 9 });
                m
            };
            let one = fill(&|f| f.run::<1>());
            assert_eq!(fill(&|f| f.run::<3>()), one, "{nrows} x {d}: 3 portable lanes");
            assert_eq!(fill(&|f| f.run::<8>()), one, "{nrows} x {d}: 8 portable lanes");
            for width in LaneWidth::supported() {
                assert_eq!(fill(&|f| width.run(f)), one, "{nrows} x {d}: {width:?}");
            }
        }
        // One lane is the sequential `gen_range` stream.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(9);
        let m = random_features(7, 3, 0.5, 9);
        assert!(m.as_slice().iter().all(|&v| v.to_bits() == rng.gen_range(-0.5f32..0.5).to_bits()));
    }

    #[test]
    fn values_are_not_all_equal() {
        let m = random_features(4, 4, 1.0, 4);
        let first = m.as_slice()[0];
        assert!(m.as_slice().iter().any(|&v| v != first));
    }
}
