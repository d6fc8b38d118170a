//! Fruchterman–Reingold force-directed graph layout (Fig. 1a).
//!
//! Each iteration computes attractive forces along edges and repulsive
//! forces between (sampled) vertex pairs, then moves vertices along the
//! net force with a cooling temperature. Both force sums are FusedMM
//! calls — the attraction uses the FR pattern of Table III row 1, the
//! repulsion a custom operator set (inverse-square kernel) — showing how
//! an application composes the kernel without ever materializing
//! per-edge forces.
//!
//! A displacement like `Σ_v h·(x_v − x_u)` decomposes into two fused
//! calls: `Σ_v h·x_v` (MOP = MUL) and `Σ_v h` (MOP = NOOP broadcasts the
//! scalar), combined as `Σ h·x_v − x_u·Σ h`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusedmm_core::fusedmm;
use fusedmm_ops::{AOp, MOp, OpSet, ROp, SOp, VOp};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::sampler::NegativeSampler;

/// Layout hyperparameters.
#[derive(Debug, Clone)]
pub struct FrLayoutConfig {
    /// Layout dimensionality (2 for drawing; the kernel benchmarks use
    /// up to 512).
    pub dim: usize,
    /// Iterations of force application.
    pub iterations: usize,
    /// Initial temperature (max displacement per step).
    pub temperature: f32,
    /// Multiplicative cooling per iteration.
    pub cooling: f32,
    /// Repulsive pairs sampled per vertex per iteration.
    pub repulsive_samples: usize,
    /// RNG seed for init and sampling.
    pub seed: u64,
}

impl Default for FrLayoutConfig {
    fn default() -> Self {
        FrLayoutConfig {
            dim: 2,
            iterations: 50,
            temperature: 0.1,
            cooling: 0.95,
            repulsive_samples: 5,
            seed: 1,
        }
    }
}

/// The layout engine.
#[derive(Debug)]
pub struct FrLayout {
    adj: Csr,
    cfg: FrLayoutConfig,
}

/// Result of a layout run.
#[derive(Debug)]
pub struct LayoutResult {
    /// Final `n × dim` positions.
    pub positions: Dense,
    /// Mean displacement magnitude per iteration (monitoring; should
    /// shrink as the layout settles and the temperature cools).
    pub mean_displacement: Vec<f64>,
}

impl FrLayout {
    /// Create a layout engine for a square adjacency matrix.
    pub fn new(adj: Csr, cfg: FrLayoutConfig) -> Self {
        assert_eq!(adj.nrows(), adj.ncols(), "layout needs a square adjacency");
        assert!(cfg.dim > 0 && cfg.iterations > 0);
        FrLayout { adj, cfg }
    }

    /// Attraction operator sets: spring force `h = α·‖x_u − x_v‖` toward
    /// neighbors. The `MUL` set sums `h·x_v`, the `NOOP` set sums `h`.
    fn attract_ops(alpha: f32) -> (OpSet, OpSet) {
        let mul = OpSet::fr_model(alpha);
        let broadcast = OpSet::custom(VOp::Sub, ROp::Norm, SOp::Scale(alpha), MOp::Noop, AOp::Sum);
        (mul, broadcast)
    }

    /// Repulsion operator sets: inverse-square kernel
    /// `h = k² / (‖x_u − x_w‖² + ε)` against sampled vertices.
    fn repulse_ops(k2: f32) -> (OpSet, OpSet) {
        let sop: SOp = SOp::Custom(Arc::new(move |s, _| k2 / (s * s + 1e-3)));
        let mul = OpSet::custom(VOp::Sub, ROp::Norm, sop.clone(), MOp::Mul, AOp::Sum);
        let broadcast = OpSet::custom(VOp::Sub, ROp::Norm, sop, MOp::Noop, AOp::Sum);
        (mul, broadcast)
    }

    /// `Σ_v h·(y_v − x_u)` via the two-call decomposition. The `MUL`
    /// set of the attraction is the FR pattern and runs its specialized
    /// kernel; the others are unrecognized and run the generic one.
    fn force_toward(a: &Csr, x: &Dense, ops_mul: &OpSet, ops_bcast: &OpSet) -> Dense {
        let hy = fusedmm(a, x, x, ops_mul);
        let hsum = fusedmm(a, x, x, ops_bcast);
        let mut out = hy;
        for u in 0..a.nrows() {
            let xu: Vec<f32> = x.row(u).to_vec();
            for ((o, &h), &xv) in out.row_mut(u).iter_mut().zip(hsum.row(u)).zip(&xu) {
                *o -= h * xv;
            }
        }
        out
    }

    /// Run the layout.
    pub fn run(&self) -> LayoutResult {
        let n = self.adj.nrows();
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut pos = Dense::zeros(n, cfg.dim);
        for v in pos.as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5);
        }
        // FR's natural spring length: k = sqrt(area / n).
        let k = (1.0 / n as f32).sqrt();
        let alpha = 1.0 / k; // attraction strength ‖δ‖/k
        let k2 = k * k;
        let (att_mul, att_bcast) = Self::attract_ops(alpha);
        let (rep_mul, rep_bcast) = Self::repulse_ops(k2);
        let mut sampler = NegativeSampler::new(n, cfg.repulsive_samples, cfg.seed ^ 0xFACE);
        let all: Vec<usize> = (0..n).collect();
        let mut temp = cfg.temperature;
        let mut mean_displacement = Vec::with_capacity(cfg.iterations);

        for _ in 0..cfg.iterations {
            // Attraction toward neighbors (optimized FR pattern).
            let att = Self::force_toward(&self.adj, &pos, &att_mul, &att_bcast);
            // Repulsion away from sampled vertices.
            let rep_graph = sampler.sample_batch(&all);
            let rep = Self::force_toward(&rep_graph, &pos, &rep_mul, &rep_bcast);

            let mut total_disp = 0.0f64;
            for u in 0..n {
                // net force: attraction pulls toward, repulsion pushes away.
                let mut norm2 = 0.0f32;
                let forces: Vec<f32> = att
                    .row(u)
                    .iter()
                    .zip(rep.row(u))
                    .map(|(&a, &r)| {
                        let f = a - r;
                        norm2 += f * f;
                        f
                    })
                    .collect();
                let norm = norm2.sqrt().max(1e-9);
                let step = norm.min(temp);
                total_disp += step as f64;
                for (p, f) in pos.row_mut(u).iter_mut().zip(&forces) {
                    *p += f / norm * step;
                }
            }
            mean_displacement.push(total_disp / n as f64);
            temp *= cfg.cooling;
        }
        LayoutResult { positions: pos, mean_displacement }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_graph::planted::planted_partition;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn dist(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&p, &q)| ((p - q) as f64).powi(2)).sum::<f64>().sqrt()
    }

    #[test]
    fn displacement_shrinks_as_temperature_cools() {
        let g = planted_partition(40, 2, 5.0, 1.0, 3).adj;
        let cfg = FrLayoutConfig { iterations: 30, ..Default::default() };
        let r = FrLayout::new(g, cfg).run();
        let early: f64 = r.mean_displacement[..5].iter().sum();
        let late: f64 = r.mean_displacement[25..].iter().sum();
        assert!(late < early, "late {late} !< early {early}");
    }

    #[test]
    fn communities_end_up_closer_than_strangers() {
        let g = planted_partition(60, 2, 8.0, 0.5, 9);
        let cfg = FrLayoutConfig { iterations: 60, seed: 4, ..Default::default() };
        let r = FrLayout::new(g.adj.clone(), cfg).run();
        let (mut intra, mut inter, mut ni, mut nx) = (0.0f64, 0.0f64, 0usize, 0usize);
        for u in 0..60 {
            for v in (u + 1)..60 {
                let d = dist(r.positions.row(u), r.positions.row(v));
                if g.labels[u] == g.labels[v] {
                    intra += d;
                    ni += 1;
                } else {
                    inter += d;
                    nx += 1;
                }
            }
        }
        let mean_intra = intra / ni as f64;
        let mean_inter = inter / nx as f64;
        assert!(mean_intra < mean_inter, "intra {mean_intra} !< inter {mean_inter}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = planted_partition(20, 2, 4.0, 1.0, 5).adj;
        let cfg = FrLayoutConfig { iterations: 5, ..Default::default() };
        let r1 = FrLayout::new(g.clone(), cfg.clone()).run();
        let r2 = FrLayout::new(g, cfg).run();
        assert_eq!(r1.positions.max_abs_diff(&r2.positions), 0.0);
    }

    #[test]
    fn positions_stay_finite() {
        let mut c = Coo::new(3, 3);
        c.push_symmetric(0, 1, 1.0);
        let g = c.to_csr(Dedup::Last);
        let r = FrLayout::new(g, FrLayoutConfig::default()).run();
        assert!(r.positions.as_slice().iter().all(|v| v.is_finite()));
    }
}
