//! Engine-level PART1D sharding: one graph, several in-process bands.
//!
//! The paper's PART1D scheme cuts the rows of `A` into nnz-balanced
//! contiguous bands that threads process with zero synchronization —
//! threads share read access to `Y` but write disjoint row bands of
//! `Z`. The same property makes a band the unit of serving: each band
//! owns a [`Csr::row_band`](fusedmm_sparse::csr::Csr::row_band) (local
//! rows, global columns), a plan and a batch queue, and needs nothing
//! from its siblings beyond the pinned feature epoch.
//!
//! [`ShardedEngine`] is the one front end ([`FrontEnd`]) over N such
//! bands: it validates and admits requests once, pins **one** feature
//! epoch per request, scatters the per-shard pieces to the owning bands
//! and gathers them back in request order — bit-identical to a single
//! [`Engine`](crate::Engine) on the same graph.

use std::sync::Arc;

use fusedmm_core::Plan;
use fusedmm_ops::OpSet;
use fusedmm_perf::registry::MetricsRegistry;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::engine::{
    assert_external_store, cached_and_symmetric, local_front, owned_store, EngineConfig,
};
use crate::front::FrontEnd;
use crate::store::FeatureStore;
use crate::transport::LocalBands;

/// A graph served by several PART1D bands behind one front end. The
/// request API is the [`FrontEnd`]'s, reached through `Deref`.
pub struct ShardedEngine {
    front: FrontEnd<LocalBands>,
}

impl ShardedEngine {
    /// Cut `a` into at most `nshards` nnz-balanced row bands, one
    /// in-process band (plan + batch queue) each, all reading a fresh
    /// [`FeatureStore`] seeded with `x`/`y` as epoch 0.
    ///
    /// With [`EngineConfig::reordering`] set, the graph is renumbered
    /// *before* the PART1D cut — degree-sorting a skewed graph makes
    /// the bands internally regular — while the request API keeps
    /// speaking external ids, bit-identical to an unreordered
    /// deployment.
    ///
    /// # Panics
    /// Panics when shapes are inconsistent or `nshards == 0`.
    pub fn new(
        a: Csr,
        x: Dense,
        y: Dense,
        ops: OpSet,
        nshards: usize,
        config: EngineConfig,
    ) -> ShardedEngine {
        let (a, store, perm, symmetric) = owned_store(a, x, y, &config);
        let front = local_front(a, store, ops, Some(nshards), &config, perm, symmetric);
        ShardedEngine { front }
    }

    /// Like [`ShardedEngine::new`] but borrowing features through an
    /// existing store — e.g. one already being published to by a
    /// training loop, or shared with other engines.
    ///
    /// # Panics
    /// Panics when the store's shapes are inconsistent with `a`, or
    /// when [`EngineConfig::reordering`] is set (see
    /// [`Engine::with_store`](crate::Engine::with_store)).
    pub fn with_store(
        a: Csr,
        store: Arc<FeatureStore>,
        ops: OpSet,
        nshards: usize,
        config: EngineConfig,
    ) -> ShardedEngine {
        assert_external_store(&config);
        let symmetric = cached_and_symmetric(&a, &config);
        let front = local_front(a, store, ops, Some(nshards), &config, None, symmetric);
        ShardedEngine { front }
    }

    /// The plan every band runs, behind the lookup the frozen
    /// `benchmark/` package calls (`engine.plans().plan_for(&ops, d)`).
    /// Kept only while it does: ROADMAP item 1 moves the benchmark to
    /// [`Plan::prepare`] and deletes this shim.
    pub fn plans(&self) -> BandPlan {
        BandPlan(self.front.transport.bands[0].plan)
    }

    /// [`FrontEnd::register_metrics`] with no extra labels: front-end
    /// samples unlabeled, band samples tagged `shard="<i>"`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.front.register_metrics(registry, &[]);
    }
}

/// The plan a [`ShardedEngine`]'s bands run; see
/// [`ShardedEngine::plans`].
#[derive(Debug, Clone, Copy)]
pub struct BandPlan(Plan);

impl BandPlan {
    /// The bands' plan.
    ///
    /// # Panics
    /// Panics when `(ops.pattern, d)` is not what the bands run.
    pub fn plan_for(&self, ops: &OpSet, d: usize) -> Plan {
        assert!(
            ops.pattern == self.0.pattern() && d == self.0.d(),
            "the bands run {:?} at d={}, not {:?} at d={d}",
            self.0.pattern(),
            self.0.d(),
            ops.pattern
        );
        self.0
    }
}

impl std::ops::Deref for ShardedEngine {
    type Target = FrontEnd<LocalBands>;

    fn deref(&self) -> &FrontEnd<LocalBands> {
        &self.front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn graph(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            // Skewed degrees so the nnz-balanced cut is non-trivial.
            let deg = if u % 7 == 0 { 9 } else { 2 };
            for k in 1..=deg {
                c.push(u, (u * 3 + k * 5 + 1) % n, 0.3 + k as f32 * 0.2);
            }
        }
        c.to_csr(Dedup::Sum)
    }

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    fn zeros(n: usize, nshards: usize) -> ShardedEngine {
        let z = || Dense::zeros(n, 4);
        ShardedEngine::new(graph(n), z(), z(), OpSet::gcn(), nshards, config())
    }

    #[test]
    fn bands_tile_and_owner_is_consistent() {
        let eng = zeros(90, 4);
        assert_eq!(eng.nvertices(), 90);
        assert!(eng.nshards() >= 1 && eng.nshards() <= 4);
        for u in 0..90 {
            let s = eng.owner(u);
            assert!(
                (eng.boundaries()[s]..eng.boundaries()[s + 1]).contains(&u),
                "owner({u}) = {s} does not contain it"
            );
        }
    }

    #[test]
    fn more_shards_than_rows_still_serves() {
        let n = 5;
        let feats = Dense::filled(n, 4, 0.5);
        let eng =
            ShardedEngine::new(graph(n), feats.clone(), feats.clone(), OpSet::gcn(), 64, config());
        assert_eq!(eng.nshards(), n);
        let single = Engine::new(graph(n), feats.clone(), feats, OpSet::gcn(), config());
        let nodes = [4usize, 0, 2];
        assert_eq!(eng.embed(&nodes).unwrap(), single.embed(&nodes).unwrap());
    }

    #[test]
    fn parallel_infer_full_is_bit_identical_to_sequential_bands() {
        let (n, d) = (120, 16);
        let x = Dense::from_fn(n, d, |r, k| ((r * 2 + k) as f32 * 0.03).sin());
        let y = Dense::from_fn(n, d, |r, k| ((r + k * 3) as f32 * 0.05).cos());
        let eng = ShardedEngine::new(graph(n), x, y, OpSet::sigmoid_embedding(None), 4, config());
        assert!(eng.nshards() > 1);
        let parallel = eng.infer_full();
        // The sequential reference: each band into its own rows, in
        // band order.
        let epoch = eng.store().snapshot();
        let mut sequential = Dense::zeros(n, d);
        for (band, w) in eng.transport.bands.iter().zip(eng.boundaries().windows(2)) {
            band.infer_into(&epoch, &mut sequential.as_mut_slice()[w[0] * d..w[1] * d]);
        }
        assert_eq!(parallel, sequential, "overlapped bands must not change a single bit");
    }

    /// The shim hands back what the bands run — here a generic plan,
    /// which `Plan::prepare` would not produce for a recognized pattern.
    #[test]
    fn plans_shim_returns_the_bands_plan() {
        let generic = fusedmm_core::Blocking::Generic;
        let config = EngineConfig { blocking: generic, ..config() };
        let z = || Dense::zeros(90, 4);
        let eng = ShardedEngine::new(graph(90), z(), z(), OpSet::gcn(), 3, config);
        let plan = eng.plans().plan_for(&OpSet::gcn(), 4);
        assert_eq!(plan.blocking(), generic);
        assert!(eng.transport.bands.iter().all(|b| b.plan == plan));
    }

    #[test]
    fn plans_shim_refuses_another_pattern_or_dimension() {
        let eng = zeros(20, 2);
        for (ops, d) in [(OpSet::fr_model(0.1), 4), (OpSet::gcn(), 8)] {
            let lookup = std::panic::AssertUnwindSafe(|| eng.plans().plan_for(&ops, d));
            assert!(std::panic::catch_unwind(lookup).is_err(), "{:?} at d={d}", ops.pattern);
        }
    }

    #[test]
    fn partition_skew_gauges_are_exported() {
        let n = 90;
        let a = graph(n);
        let nonisolated = a.row_degrees().iter().filter(|&&d| d > 0).count();
        let eng = zeros(n, 4);
        let registry = MetricsRegistry::new();
        eng.register_metrics(&registry);
        let snap = registry.snapshot();
        for (s, w) in eng.boundaries().windows(2).enumerate() {
            let deg = (w[0]..w[1]).map(|r| a.row_nnz(r)).max().unwrap_or(0);
            let tag = s.to_string();
            let v = snap
                .gauge_value("fusedmm_partition_max_row_degree", &[("shard", &tag)])
                .expect("per-band max-degree gauge");
            assert_eq!(v, deg as f64, "shard {s} gauge disagrees with the band");
            assert!(deg >= 1, "every band of this graph holds at least one edge");
        }
        // The front end's histogram covers every non-isolated row once.
        let total: f64 = snap
            .samples
            .iter()
            .filter(|s| s.name == "fusedmm_degree_histogram_rows")
            .map(|s| match s.value {
                fusedmm_perf::registry::MetricValue::Gauge(v) => v,
                _ => panic!("the degree histogram is a gauge"),
            })
            .sum();
        assert_eq!(total, nonisolated as f64, "histogram covers every non-isolated row once");
    }
}
