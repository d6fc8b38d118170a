//! RMAT (recursive matrix) graph generator — our PaRMAT equivalent.
//!
//! The paper generates RMAT graphs with PaRMAT \[14\] for the parameter
//! sensitivity study (Fig. 11a: 100K vertices, average degree swept from
//! 10 to 150). RMAT recursively drops each edge into one of the four
//! quadrants of the adjacency matrix with probabilities `(a, b, c, d)`;
//! the default `(0.45, 0.22, 0.22, 0.11)` skew yields the heavy-tailed
//! degree distributions of real social networks.

use rand::rngs::StdRng;
use rand::{LaneTask, LaneWidth, Lanes, SeedableRng};

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
///
/// The attempts are drawn in [`Lanes`] of the seed's one stream, in
/// blocks of 1 024 attempts per lane; a graph that cannot fill one
/// block per lane runs one lane. Every width accepts the same edges.
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
    let edges = LaneWidth::detected_for(cfg.nedges, BLOCK).run(Sample(cfg));
    assemble(cfg.nvertices, &edges, cfg.undirected)
}

/// Attempts one lane samples per block. Block `b` gives lane `j` the
/// attempts `[(bL + j)·BLOCK, (bL + j + 1)·BLOCK)`; attempt `i` starts
/// at draw `2·levels·i`, so lane `j + 1` runs one fixed jump of
/// `2·levels·BLOCK` draws ahead of lane `j`.
const BLOCK: usize = 1024;

/// The accepted edges of `rmat` in acceptance order, as packed `(u, v)`
/// keys, at any lane width: the attempts in attempt order — a block's
/// lane 0, then its lane 1, and so on — through the dedup set, up to
/// `nedges` or the attempt cap, wherever in a block that falls.
struct Sample<'a>(&'a RmatConfig);

impl LaneTask for Sample<'_> {
    type Output = Vec<u64>;

    #[inline(always)]
    fn run<const L: usize>(self) -> Vec<u64> {
        let cfg = self.0;
        // Recursion levels: cover nvertices with the next power of two.
        let levels = usize::BITS - (cfg.nvertices - 1).max(1).leading_zeros();
        let lane_draws = 2 * u64::from(levels) * BLOCK as u64;
        let quadrants = Quadrants { a: cfg.a, b: cfg.b, c: cfg.c, d: cfg.d };
        let mut lanes = Lanes::<L>::new(&StdRng::seed_from_u64(cfg.seed), lane_draws);
        // Lane `j`'s attempts fill `block[j·BLOCK..]`: the block is in
        // attempt order.
        let mut block = vec![0u64; L * BLOCK];
        let mut words = vec![[0u64; L]; 2 * levels as usize * STEPS];
        let mut edges: Vec<u64> = Vec::with_capacity(cfg.nedges);
        let mut seen = EdgeSet::with_capacity(cfg.nedges);
        let mut attempts = 0usize;
        let max_attempts = cfg.nedges.saturating_mul(40).max(1024);
        while edges.len() < cfg.nedges && attempts < max_attempts {
            if attempts > 0 {
                // Lane `L − 1` ended the block where the next one starts.
                lanes = Lanes::new(&lanes.lane(L - 1), lane_draws);
            }
            sample_block(&mut lanes, &mut words, &mut block, levels, quadrants);
            let take = (max_attempts - attempts).min(L * BLOCK);
            attempts += take;
            accept(cfg, &mut seen, &mut edges, &block[..take]);
        }
        edges
    }
}

/// Lockstep steps drawn ahead of the quadrant arithmetic, `2·levels`
/// words per lane each: 34 KiB at 2¹⁷ vertices and eight lanes. A block
/// is a whole number of them.
const STEPS: usize = 16;
const _: () = assert!(BLOCK.is_multiple_of(STEPS));

/// One lockstep step per attempt: `levels` pairs of draws from every
/// lane, each pair choosing a quadrant, then lane `j`'s packed
/// `(row, col)` of its attempt `t` into `block[j·BLOCK + t]`. The words
/// of `STEPS` steps are drawn first, by [`Lanes::fill`], into `words`.
#[inline(always)]
fn sample_block<const L: usize>(
    lanes: &mut Lanes<L>,
    words: &mut [[u64; L]],
    block: &mut [u64],
    levels: u32,
    q: Quadrants,
) {
    let draws = 2 * levels as usize;
    for first in (0..BLOCK).step_by(STEPS) {
        lanes.fill(words);
        for (t, pairs) in (first..).zip(words.chunks_exact(draws)) {
            let (mut row, mut col) = ([0u64; L], [0u64; L]);
            let mut half = 1u64 << levels >> 1;
            for pair in pairs.chunks_exact(2) {
                for j in 0..L {
                    let (down, right) = q.choose(pair[0][j], pair[1][j]);
                    row[j] += half * u64::from(down);
                    col[j] += half * u64::from(right);
                }
                half >>= 1;
            }
            for j in 0..L {
                block[j * BLOCK + t] = row[j] << 32 | col[j];
            }
        }
    }
}

/// Accept the valid `samples`, in order, until `edges` holds `nedges`.
/// They are taken a chunk at a time and their set slots read before
/// any is inserted, so the chunk's cache misses overlap instead of
/// queueing one behind the other. The stream does not depend on what
/// is accepted, so samples drawn past the last accepted edge change
/// nothing: they are never inserted.
#[inline(always)]
fn accept(cfg: &RmatConfig, seen: &mut EdgeSet, edges: &mut Vec<u64>, samples: &[u64]) {
    let mut samples = samples.iter();
    let mut chunk = [(0u64, 0u64); DEDUP_CHUNK];
    loop {
        let mut len = 0;
        for &edge in samples.by_ref() {
            let (u, v) = ((edge >> 32) as usize, edge as u32 as usize);
            if u >= cfg.nvertices || v >= cfg.nvertices || cfg.no_self_loops && u == v {
                continue;
            }
            let (lo, hi) = if cfg.undirected { (u.min(v), u.max(v)) } else { (u, v) };
            chunk[len] = ((lo as u64) << 32 | hi as u64, edge);
            len += 1;
            if len == DEDUP_CHUNK {
                break;
            }
        }
        if len == 0 {
            return;
        }
        seen.touch(chunk[..len].iter().map(|&(key, _)| key));
        for &(key, edge) in &chunk[..len] {
            if edges.len() == cfg.nedges {
                return;
            }
            if seen.insert(key) {
                edges.push(edge);
            }
        }
    }
}

/// The quadrant probabilities, copied out of the config so the lockstep
/// loop holds them in registers.
#[derive(Clone, Copy)]
struct Quadrants {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
}

impl Quadrants {
    /// One level of the recursion from its two draws: whether the edge
    /// falls in the lower half, and whether in the right half.
    #[inline(always)]
    fn choose(self, r: u64, noise: u64) -> (bool, bool) {
        let r = rand::unit_f64(r);
        // Per-level probability noise (±10%) keeps degree sequences from
        // being too regular, as PaRMAT does.
        let noise = 0.9 + 0.2 * rand::unit_f64(noise);
        let a = self.a * noise;
        let ab = a + self.b;
        let abc = ab + self.c;
        let norm = abc + self.d;
        let r = r * norm;
        // Quadrants a | b over c | d, chosen from the same comparisons
        // as an if-chain would make but without its unpredictable
        // branches: the lower half when r ≥ ab, the right half in b or d.
        (r >= ab, (r >= a) & (r < ab) | (r >= abc))
    }
}

/// Samples drawn, and set slots read, ahead of their inserts.
const DEDUP_CHUNK: usize = 32;

/// The dedup set of packed `(lo, hi)` edge keys: open addressing with
/// linear probing over a power-of-two table at most half full,
/// Fibonacci-hashed. Membership only — nothing iterates it, so neither
/// its hash nor its size can change which samples are accepted. Zero
/// marks an empty slot; the key 0 (the self loop at vertex 0) is kept
/// in a flag instead.
struct EdgeSet {
    slots: Vec<u64>,
    shift: u32,
    has_zero: bool,
}

impl EdgeSet {
    fn with_capacity(keys: usize) -> Self {
        let len = (2 * keys).next_power_of_two().max(2);
        // Zeroed memory comes from the allocator untouched: a page is
        // faulted in when a key first lands on it, never by a fill.
        EdgeSet { slots: vec![0; len], shift: 64 - len.trailing_zeros(), has_zero: false }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Read each key's home slot, so the inserts that follow find it
    /// cached; the loads are independent of each other and overlap.
    fn touch(&self, keys: impl Iterator<Item = u64>) {
        let folded = keys.fold(0u64, |acc, key| acc ^ self.slots[self.home(key)]);
        std::hint::black_box(folded);
    }

    /// Insert `key`; false when it was already present.
    fn insert(&mut self, key: u64) -> bool {
        if key == 0 {
            return !std::mem::replace(&mut self.has_zero, true);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// The CSR of the accepted edges, and of their mirrors when
/// `undirected`: count each row's entries, scatter them in acceptance
/// order, sort each row. The edges are distinct (the dedup set saw to
/// that, mirrors included), so there is nothing to merge and every
/// value is 1 — the matrix `Coo::to_csr(Dedup::Last)` builds from the
/// same pushes, without the triples.
fn assemble(n: usize, edges: &[u64], undirected: bool) -> Csr {
    let unpack = |key: u64| ((key >> 32) as usize, key as u32 as usize);
    let mut rowptr = vec![0usize; n + 1];
    for &key in edges {
        let (u, v) = unpack(key);
        rowptr[u + 1] += 1;
        if undirected && u != v {
            rowptr[v + 1] += 1;
        }
    }
    for r in 0..n {
        rowptr[r + 1] += rowptr[r];
    }
    let mut next = rowptr[..n].to_vec();
    let mut colidx = vec![0usize; rowptr[n]];
    let mut put = |row: usize, col: usize| {
        colidx[next[row]] = col;
        next[row] += 1;
    };
    for &key in edges {
        let (u, v) = unpack(key);
        put(u, v);
        if undirected && u != v {
            put(v, u);
        }
    }
    for r in 0..n {
        colidx[rowptr[r]..rowptr[r + 1]].sort_unstable();
    }
    let values = vec![1.0; colidx.len()];
    Csr::from_parts(n, n, rowptr, colidx, values).expect("an RMAT CSR is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use rand::RngCore;
    use std::collections::HashSet;

    /// One attempt, drawn a word at a time from `rng`: the sequential
    /// sampler the lanes reproduce. It shares `Quadrants::choose` with
    /// them, so a change there moves the reference too and only the
    /// pinned hashes below see it.
    fn sample_edge(rng: &mut StdRng, levels: u32, cfg: &RmatConfig) -> (usize, usize) {
        let q = Quadrants { a: cfg.a, b: cfg.b, c: cfg.c, d: cfg.d };
        let (mut row, mut col) = (0, 0);
        let mut half = 1usize << levels >> 1;
        for _ in 0..levels {
            let r = rng.next_u64();
            let (down, right) = q.choose(r, rng.next_u64());
            row += half * usize::from(down);
            col += half * usize::from(right);
            half >>= 1;
        }
        (row, col)
    }

    /// Reference generator: one stream drawn one attempt at a time,
    /// deduplicated through std's SipHash set of `(usize, usize)` pairs,
    /// sized `2 × nedges`.
    fn rmat_reference(cfg: &RmatConfig) -> Csr {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let levels = usize::BITS - (cfg.nvertices - 1).max(1).leading_zeros();
        let cap = if cfg.undirected { 2 * cfg.nedges } else { cfg.nedges };
        let mut coo = Coo::with_capacity(cfg.nvertices, cfg.nvertices, cap);
        let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(cfg.nedges * 2);
        let mut emitted = 0usize;
        let mut attempts = 0usize;
        let max_attempts = cfg.nedges.saturating_mul(40).max(1024);
        while emitted < cfg.nedges && attempts < max_attempts {
            attempts += 1;
            let (u, v) = sample_edge(&mut rng, levels, cfg);
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
            // Not a power of two (re-draws), dense enough that many
            // samples are duplicates.
            RmatConfig::new(1000, 60_000).with_seed(7),
            RmatConfig::new(1 << 12, 1 << 15).with_seed(11).directed(),
        ];
        for cfg in &configs {
            assert_eq!(rmat(cfg), rmat_reference(cfg), "{cfg:?}");
        }
    }

    /// The generator's output, pinned: the FNV-1a hashes of `rowptr`,
    /// `colidx` and the values' bits. Unlike the reference above, these
    /// see a change to `sample_edge` itself.
    #[test]
    fn generated_graphs_keep_their_pinned_bits() {
        let pinned = [
            (
                RmatConfig::new(1 << 10, 1 << 13).with_seed(3),
                [0xac16_5480_21c1_a166, 0xb9bc_d516_f84b_170e, 0x6f62_1e94_856c_2325],
            ),
            (
                RmatConfig::new(1000, 60_000).with_seed(7),
                [0xd2a9_a1c5_3065_5cce, 0x8bda_37ba_3355_cda5, 0x9d1f_6688_b747_2125],
            ),
            (
                RmatConfig::new(1 << 12, 1 << 15).with_seed(11).directed(),
                [0xfc4a_fee6_db04_2a40, 0xa7d6_fb5b_ea80_5e23, 0xb05f_cf6c_86b6_2325],
            ),
            (
                RmatConfig::new(100, 4950).with_seed(5),
                [0xc72f_7e5c_e379_4af1, 0xd333_6b67_e9b8_ae79, 0xe4fd_edf4_d8db_57f5],
            ),
        ];
        for (cfg, hashes) in &pinned {
            let g = rmat(cfg);
            let got = [
                crate::fnv(g.rowptr().iter().flat_map(|p| (*p as u64).to_le_bytes())),
                crate::fnv(g.colidx().iter().flat_map(|c| (*c as u64).to_le_bytes())),
                crate::fnv(g.values().iter().flat_map(|v| v.to_bits().to_le_bytes())),
            ];
            assert_eq!(&got, hashes, "{cfg:?}");
        }
        // Every edge of K₁₀₀ requested: the attempt cap ends the loop.
        let (capped, _) = &pinned[3];
        assert!(rmat(capped).nnz() < 2 * capped.nedges);
    }

    /// Every lane width accepts the edges one lane accepts, in the same
    /// order: each wider width the CPU runs, and the generic body at 3
    /// lanes compiled without any CPU feature. The configs are the
    /// pinned ones: a power of two, re-draws, a directed graph, and an
    /// attempt cap landing mid-block.
    #[test]
    fn every_lane_width_accepts_the_one_lane_edges() {
        let configs = [
            RmatConfig::new(1 << 10, 1 << 13).with_seed(3),
            RmatConfig::new(1000, 60_000).with_seed(7),
            RmatConfig::new(1 << 12, 1 << 15).with_seed(11).directed(),
            RmatConfig::new(100, 4950).with_seed(5),
        ];
        for cfg in &configs {
            let one = Sample(cfg).run::<1>();
            assert_eq!(Sample(cfg).run::<3>(), one, "{cfg:?}: 3 portable lanes");
            for width in LaneWidth::supported().skip(1) {
                assert_eq!(width.run(Sample(cfg)), one, "{cfg:?}: {width:?}");
            }
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
