//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * register blocking — the generic five-step path (no blocking)
//!   against the register-blocked kernel at each main-pass size the
//!   table compiles: MAIN *is* the paper's blocking factor, so this is
//!   Fig. 11's sensitivity sweep and the §IV-A win in one group;
//! * nnz-balanced PART1D vs naive row partitioning on a skewed graph —
//!   isolating the load-balancing scheme of §III-C;
//! * lookup-table vs exact sigmoid — the Force2Vec-style SOP shortcut;
//! * 32-bit index narrowing in the inspector-executor SpMM (vs the
//!   plain 64-bit-index fused SpMM path at the same blocking).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use fusedmm_bench::workloads::kernel_workload_scaled;
use fusedmm_core::genkern::candidate_specs;
use fusedmm_core::{active_backend, fusedmm_opt_into, Blocking, PartitionStrategy};
use fusedmm_graph::datasets::Dataset;
use fusedmm_graph::features::random_features;
use fusedmm_graph::rmat::{rmat, RmatConfig};
use fusedmm_ops::{OpSet, SigmoidLut};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

/// One timed launch into the group's caller-owned `z` (allocated once
/// per group, so no sample times a memset).
fn launch(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
    strategy: PartitionStrategy,
    z: &mut Dense,
) {
    fusedmm_opt_into(a, x, y, ops, blocking, None, strategy, z.as_mut_slice());
    black_box(z.as_slice());
}

fn bench_register_blocking(c: &mut Criterion) {
    let w = kernel_workload_scaled(Dataset::Youtube, 128, 0.004);
    let ops = OpSet::sigmoid_embedding(None);
    let mut z = Dense::zeros(w.adj.nrows(), w.d);
    let nnz = PartitionStrategy::NnzBalanced;
    let mut g = c.benchmark_group("ablation_blocking");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1200));
    g.sample_size(10);
    g.bench_function("generic", |b| {
        b.iter(|| launch(&w.adj, &w.x, &w.y, &ops, Blocking::Generic, nnz, &mut z));
    });
    for spec in candidate_specs(active_backend().lanes(), w.d, true) {
        if spec.h_chunk() != 32 {
            continue; // one message depth: the sweep is over MAIN
        }
        let blocking = Blocking::Specialized(spec);
        g.bench_function(format!("register_blocked_main{}", spec.main_panels()), |b| {
            b.iter(|| launch(&w.adj, &w.x, &w.y, &ops, blocking, nnz, &mut z));
        });
    }
    g.finish();
}

fn bench_partition_strategy(c: &mut Criterion) {
    // Skewed RMAT so the strategies actually differ.
    let n = 8000;
    let adj = rmat(&RmatConfig::new(n, n * 10).with_seed(5));
    let d = 128;
    let x = random_features(n, d, 0.5, 1);
    let y = random_features(n, d, 0.5, 2);
    let ops = OpSet::sigmoid_embedding(None);
    let mut z = Dense::zeros(n, d);
    let mut g = c.benchmark_group("ablation_partition");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1200));
    g.sample_size(10);
    for (name, strategy) in [
        ("nnz_balanced", PartitionStrategy::NnzBalanced),
        ("row_balanced", PartitionStrategy::RowBalanced),
    ] {
        g.bench_with_input(BenchmarkId::new("embedding", name), &strategy, |b, &s| {
            b.iter(|| launch(&adj, &x, &y, &ops, Blocking::Auto, s, &mut z));
        });
    }
    g.finish();
}

fn bench_sigmoid_lut(c: &mut Criterion) {
    let w = kernel_workload_scaled(Dataset::Youtube, 128, 0.004);
    let exact = OpSet::sigmoid_embedding(None);
    let lut = OpSet::sigmoid_embedding(Some(Arc::new(SigmoidLut::default_table())));
    let mut z = Dense::zeros(w.adj.nrows(), w.d);
    let nnz = PartitionStrategy::NnzBalanced;
    let mut g = c.benchmark_group("ablation_sigmoid");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1200));
    g.sample_size(10);
    g.bench_function("exact", |b| {
        b.iter(|| launch(&w.adj, &w.x, &w.y, &exact, Blocking::Auto, nnz, &mut z));
    });
    g.bench_function("lut", |b| {
        b.iter(|| launch(&w.adj, &w.x, &w.y, &lut, Blocking::Auto, nnz, &mut z));
    });
    g.finish();
}

criterion_group!(benches, bench_register_blocking, bench_partition_strategy, bench_sigmoid_lut);
criterion_main!(benches);
