//! RMAT (recursive matrix) graph generator — our PaRMAT equivalent.
//!
//! The paper generates RMAT graphs with PaRMAT \[14\] for the parameter
//! sensitivity study (Fig. 11a: 100K vertices, average degree swept from
//! 10 to 150). RMAT recursively drops each edge into one of the four
//! quadrants of the adjacency matrix with probabilities `(a, b, c, d)`;
//! the default `(0.45, 0.22, 0.22, 0.11)` skew yields the heavy-tailed
//! degree distributions of real social networks.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;

/// Configuration for the RMAT generator.
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// Number of vertices. Need not be a power of two; samples that land
    /// beyond `nvertices` are re-drawn.
    pub nvertices: usize,
    /// Number of directed edges to generate (before dedup; see
    /// `dedup`).
    pub nedges: usize,
    /// Quadrant probabilities; must be positive and sum to ~1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
    /// Add the reverse of every edge (undirected graph).
    pub undirected: bool,
    /// Remove self loops.
    pub no_self_loops: bool,
    /// RNG seed, so benchmarks are reproducible.
    pub seed: u64,
}

impl RmatConfig {
    /// The standard skewed parameterization used throughout graph
    /// benchmarking (Graph500 uses 0.57/0.19/0.19/0.05; PaRMAT's default
    /// is 0.45/0.22/0.22/0.11 which we follow).
    pub fn new(nvertices: usize, nedges: usize) -> Self {
        RmatConfig {
            nvertices,
            nedges,
            a: 0.45,
            b: 0.22,
            c: 0.22,
            d: 0.11,
            undirected: true,
            no_self_loops: true,
            seed: 1,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style directedness override.
    pub fn directed(mut self) -> Self {
        self.undirected = false;
        self
    }
}

/// Generate an RMAT graph as CSR with duplicate removal: sampling
/// continues until `nedges` *distinct* edges are placed (like PaRMAT's
/// duplicate-removal mode), bounded by an attempt cap so adversarial
/// parameters (requested edges near the skewed region's capacity)
/// terminate with slightly fewer edges instead of looping forever.
pub fn rmat(cfg: &RmatConfig) -> Csr {
    let total = cfg.a + cfg.b + cfg.c + cfg.d;
    assert!(
        (total - 1.0).abs() < 1e-6 && cfg.a > 0.0 && cfg.b > 0.0 && cfg.c > 0.0 && cfg.d > 0.0,
        "RMAT probabilities must be positive and sum to 1 (got {total})"
    );
    assert!(cfg.nvertices > 0, "RMAT needs at least one vertex");
    assert!(
        cfg.nvertices as u64 <= 1 << 32,
        "RMAT vertex ids must fit 32 bits (edge keys pack two)"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Number of recursion levels: cover nvertices with the next power of two.
    let levels = usize::BITS - (cfg.nvertices - 1).max(1).leading_zeros();
    let side = 1usize << levels;
    let cap = if cfg.undirected { 2 * cfg.nedges } else { cfg.nedges };
    let mut coo = Coo::with_capacity(cfg.nvertices, cfg.nvertices, cap);
    // Membership only — nothing iterates the set, so neither its hasher
    // nor its size can change which samples are accepted, or the CSR.
    let mut seen: HashSet<u64, BuildHasherDefault<EdgeKeyHasher>> =
        HashSet::with_capacity_and_hasher(cfg.nedges, BuildHasherDefault::default());
    let mut emitted = 0usize;
    let mut attempts = 0usize;
    let max_attempts = cfg.nedges.saturating_mul(40).max(1024);
    while emitted < cfg.nedges && attempts < max_attempts {
        attempts += 1;
        let (u, v) = sample_edge(&mut rng, levels, side, cfg);
        if u >= cfg.nvertices || v >= cfg.nvertices {
            continue;
        }
        if cfg.no_self_loops && u == v {
            continue;
        }
        let (lo, hi) = if cfg.undirected { (u.min(v), u.max(v)) } else { (u, v) };
        if !seen.insert((lo as u64) << 32 | hi as u64) {
            continue;
        }
        if cfg.undirected {
            coo.push_symmetric(u, v, 1.0);
        } else {
            coo.push(u, v, 1.0);
        }
        emitted += 1;
    }
    coo.to_csr(Dedup::Last)
}

/// Hasher for the dedup set's packed `(u, v)` keys: one multiply and a
/// fold. The keys come from this module's own generator, so SipHash's
/// defence against chosen keys buys nothing here and costs most of the
/// dedup time.
#[derive(Default)]
struct EdgeKeyHasher(u64);

impl Hasher for EdgeKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("edge keys hash through write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        // The table indexes with the low bits and tags with the top
        // seven; a product's low bits see only the key's low bits, so
        // fold the high half down.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn sample_edge(rng: &mut StdRng, levels: u32, side: usize, cfg: &RmatConfig) -> (usize, usize) {
    let mut row = 0usize;
    let mut col = 0usize;
    let mut half = side >> 1;
    for _ in 0..levels {
        let r: f64 = rng.gen();
        // Per-level probability noise (±10%) keeps degree sequences from
        // being too regular, as PaRMAT does.
        let noise = 0.9 + 0.2 * rng.gen::<f64>();
        let a = cfg.a * noise;
        let ab = a + cfg.b;
        let abc = ab + cfg.c;
        let norm = abc + cfg.d;
        let r = r * norm;
        if r < a {
            // top-left: nothing to add
        } else if r < ab {
            col += half;
        } else if r < abc {
            row += half;
        } else {
            row += half;
            col += half;
        }
        half >>= 1;
    }
    (row, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference generator: the same sampling loop over std's SipHash
    /// set of `(usize, usize)` pairs, sized `2 × nedges`.
    fn rmat_reference(cfg: &RmatConfig) -> Csr {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let levels = usize::BITS - (cfg.nvertices - 1).max(1).leading_zeros();
        let side = 1usize << levels;
        let cap = if cfg.undirected { 2 * cfg.nedges } else { cfg.nedges };
        let mut coo = Coo::with_capacity(cfg.nvertices, cfg.nvertices, cap);
        let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(cfg.nedges * 2);
        let mut emitted = 0usize;
        let mut attempts = 0usize;
        let max_attempts = cfg.nedges.saturating_mul(40).max(1024);
        while emitted < cfg.nedges && attempts < max_attempts {
            attempts += 1;
            let (u, v) = sample_edge(&mut rng, levels, side, cfg);
            if u >= cfg.nvertices || v >= cfg.nvertices {
                continue;
            }
            if cfg.no_self_loops && u == v {
                continue;
            }
            let key = if cfg.undirected { (u.min(v), u.max(v)) } else { (u, v) };
            if !seen.insert(key) {
                continue;
            }
            if cfg.undirected {
                coo.push_symmetric(u, v, 1.0);
            } else {
                coo.push(u, v, 1.0);
            }
            emitted += 1;
        }
        coo.to_csr(Dedup::Last)
    }

    #[test]
    fn packed_dedup_set_generates_the_same_graph() {
        let configs = [
            RmatConfig::new(1 << 10, 1 << 13).with_seed(3),
            // Not a power of two (re-draws), dense enough that most
            // samples are duplicates and the attempt cap ends the loop.
            RmatConfig::new(1000, 60_000).with_seed(7),
            RmatConfig::new(1 << 12, 1 << 15).with_seed(11).directed(),
        ];
        for cfg in &configs {
            assert_eq!(rmat(cfg), rmat_reference(cfg), "{cfg:?}");
        }
    }

    #[test]
    fn respects_vertex_bound() {
        // A non-power-of-two vertex count exercises rejection sampling.
        let g = rmat(&RmatConfig::new(1000, 5000));
        assert_eq!(g.nrows(), 1000);
        assert_eq!(g.ncols(), 1000);
        for (_, c, _) in g.iter() {
            assert!(c < 1000);
        }
    }

    #[test]
    fn undirected_graph_is_symmetric() {
        let g = rmat(&RmatConfig::new(256, 1000));
        for (r, c, _) in g.iter() {
            assert_eq!(g.get(c, r), Some(1.0), "missing mirror of ({r},{c})");
        }
    }

    #[test]
    fn no_self_loops_by_default() {
        let g = rmat(&RmatConfig::new(128, 2000));
        for (r, c, _) in g.iter() {
            assert_ne!(r, c);
        }
    }

    #[test]
    fn edge_count_close_to_requested() {
        // After dedup nnz <= 2 * nedges; with a sparse region it should
        // retain the large majority.
        let cfg = RmatConfig::new(4096, 8000);
        let g = rmat(&cfg);
        assert!(g.nnz() <= 2 * cfg.nedges);
        assert!(g.nnz() >= (2 * cfg.nedges) * 7 / 10, "too many duplicates: {}", g.nnz());
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let a = rmat(&RmatConfig::new(512, 2000).with_seed(9));
        let b = rmat(&RmatConfig::new(512, 2000).with_seed(9));
        let c = rmat(&RmatConfig::new(512, 2000).with_seed(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // RMAT's defining property: max degree far above average degree.
        let g = rmat(&RmatConfig::new(2048, 20000));
        let avg = g.avg_degree();
        let max = g.max_degree() as f64;
        assert!(max > 4.0 * avg, "max {max} vs avg {avg} not skewed");
    }

    #[test]
    fn directed_variant_need_not_be_symmetric() {
        let g = rmat(&RmatConfig::new(256, 1500).directed());
        let asym = g.iter().any(|(r, c, _)| g.get(c, r).is_none());
        assert!(asym, "directed RMAT should contain one-way edges");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_probabilities_panic() {
        let mut cfg = RmatConfig::new(16, 16);
        cfg.a = 0.9;
        let _ = rmat(&cfg);
    }
}
