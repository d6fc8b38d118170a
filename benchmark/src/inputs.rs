//! Seeded input generation: the benchmark's own RNG, Zipf sampler, id
//! permutation and input fingerprint.
//!
//! The program under test receives only the generated inputs. Nothing
//! here comes from `fusedmm-bench`, so a change to that crate cannot
//! move the workloads.

/// SplitMix64: tiny, seedable, and good enough to draw ids.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Zipf(s) over ranks `0..n` by inverse CDF, mapped through a seeded
/// permutation so hot ranks are scattered over the id space (and so
/// over both shards) instead of clustering at low ids.
pub struct Zipf {
    cdf: Vec<f64>,
    id_of_rank: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, id_of_rank: permutation(n, rng) }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.id_of_rank[rank]
    }
}

/// `calls × batch` ids, uniform in `0..n`.
pub fn uniform_stream(n: usize, calls: usize, batch: usize, rng: &mut Rng) -> Vec<u32> {
    (0..calls * batch).map(|_| rng.below(n) as u32).collect()
}

/// `calls × batch` Zipf-drawn ids.
pub fn zipf_stream(zipf: &Zipf, calls: usize, batch: usize, rng: &mut Rng) -> Vec<u32> {
    (0..calls * batch).map(|_| zipf.sample(rng)).collect()
}

/// The ids of call `index` in a `batch`-wide stream, wrapping at its end.
pub fn batch_of(stream: &[u32], batch: usize, index: usize) -> Vec<usize> {
    let calls = stream.len() / batch;
    let at = (index % calls) * batch;
    stream[at..at + batch].iter().map(|&v| v as usize).collect()
}

/// Word-wise FNV-1a: one xor-multiply per 64-bit word, so hashing a
/// few hundred MiB of features costs milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn usizes(&mut self, v: &[usize]) -> &mut Self {
        self.word(v.len() as u64);
        for &x in v {
            self.word(x as u64);
        }
        self
    }

    pub fn u32s(&mut self, v: &[u32]) -> &mut Self {
        self.word(v.len() as u64);
        for pair in v.chunks(2) {
            self.word(u64::from(pair[0]) | u64::from(*pair.get(1).unwrap_or(&0)) << 32);
        }
        self
    }

    pub fn f32s(&mut self, v: &[f32]) -> &mut Self {
        self.word(v.len() as u64);
        for pair in v.chunks(2) {
            let hi = pair.get(1).map_or(0, |f| f.to_bits());
            self.word(u64::from(pair[0].to_bits()) | u64::from(hi) << 32);
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fingerprints pinned per `(workload, seed, smoke)`: one
/// `workload seed scale hex` line each. A run on a pinned seed whose
/// inputs hash differently fails, so a change to the graph generator
/// or to `vendor/rand` cannot silently move the numbers.
const PINS: &str = include_str!("../fingerprints.txt");

/// The pinned fingerprint for this input set, when there is one.
pub fn pinned(workload: &str, seed: u64, scale: usize) -> Option<&'static str> {
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload
            && f.next()?.parse::<u64>().ok()? == seed
            && f.next()?.parse::<usize>().ok()? == scale)
            .then(|| f.next())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut buckets = [0usize; 8];
        for _ in 0..80_000 {
            buckets[a.below(8)] += 1;
        }
        assert!(buckets.iter().all(|&c| (9_000..11_000).contains(&c)), "{buckets:?}");
        assert!((0..1000).all(|_| (0.0..1.0).contains(&a.unit())));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(1000, &mut Rng::new(3));
        assert_ne!(p[..10], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(11);
        let z = Zipf::new(4096, 1.1, &mut rng);
        let hot = z.id_of_rank[0];
        let draws = zipf_stream(&z, 500, 64, &mut rng);
        assert!(draws.iter().all(|&v| (v as usize) < 4096));
        let hits = draws.iter().filter(|&&v| v == hot).count();
        // Rank 1 carries ≈ 1/H(4096, 1.1) ≈ 12 % of the mass.
        assert!(hits > draws.len() / 20, "rank-1 id drawn {hits} of {}", draws.len());
    }

    #[test]
    fn batches_wrap_around_the_stream() {
        let stream: Vec<u32> = (0..12).collect();
        assert_eq!(batch_of(&stream, 4, 1), vec![4, 5, 6, 7]);
        assert_eq!(batch_of(&stream, 4, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fingerprint_sees_every_element_and_the_length() {
        let h = |v: &[f32]| Fingerprint::default().f32s(v).hex();
        assert_ne!(h(&[1.0, 2.0, 3.0]), h(&[1.0, 2.0, 4.0]));
        assert_ne!(h(&[1.0, 0.0]), h(&[1.0]));
        assert_eq!(h(&[1.0, 2.0]), h(&[1.0, 2.0]));
    }

    #[test]
    fn pins_parse() {
        for line in PINS.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "bad pin line: {line}");
            assert_eq!(pinned(f[0], f[1].parse().unwrap(), f[2].parse().unwrap()), Some(f[3]));
        }
        assert_eq!(pinned("no_such_workload", 1, 1), None);
    }
}
