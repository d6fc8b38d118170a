//! Regenerates Fig. 11(a): speedup of FusedMMopt over DGL on RMAT
//! graphs with 100K vertices (scaled by FUSEDMM_SCALE) as the average
//! degree sweeps 20..140, for the FR model and graph embedding
//! (d = 128 as in the paper's panel), then the design ablations at the
//! same d:
//!
//! * register blocking — the generic five-step kernel (no blocking)
//!   against the register-blocked kernel at each main-pass size the
//!   table compiles with a 32-row message chunk: MAIN *is* the paper's
//!   blocking factor, so this is Fig. 11's sensitivity sweep and the
//!   §IV-A win in one group;
//! * nnz-balanced PART1D against naive equal-row parts on a skewed
//!   RMAT graph — the load balancing of §III-C;
//! * lookup-table against exact sigmoid — the Force2Vec-style SOP
//!   shortcut.
//!
//! Run: `cargo run --release --bin repro-fig11a`

use std::sync::Arc;

use fusedmm_bench::methods::{run_method, Method};
use fusedmm_bench::report::{fmt_speedup, Table};
use fusedmm_bench::workloads::{env_f64, kernel_workload_scaled, reps};
use fusedmm_core::genkern::candidate_specs;
use fusedmm_core::{active_backend, Blocking, Launch, PartitionStrategy, Plan};
use fusedmm_graph::datasets::Dataset;
use fusedmm_graph::features::random_features;
use fusedmm_graph::rmat::{rmat, RmatConfig};
use fusedmm_ops::{OpSet, SigmoidLut};
use fusedmm_perf::timer::time_iterations;
use fusedmm_sparse::{Csr, Dense};

fn main() {
    let d = 128;
    let r = reps();
    let scale = env_f64("FUSEDMM_SCALE", 0.1);
    // Paper: 100K vertices, initial 1M edges doubled up to ~7M.
    let n = (100_000.0 * scale) as usize;
    println!("Fig. 11(a) reproduction — speedup vs average degree, RMAT n={n}, d={d}\n");
    let mut table = Table::new(&["avg degree", "FR speedup", "Embedding speedup"]);
    for avg_degree in [20usize, 40, 60, 80, 100, 120, 140] {
        let g = rmat(&RmatConfig::new(n, n * avg_degree / 2).with_seed(avg_degree as u64));
        let x = random_features(n, d, 0.5, 1);
        let y = random_features(n, d, 0.5, 2);
        let w = fusedmm_bench::workloads::Workload {
            dataset: fusedmm_graph::datasets::Dataset::Youtube, // label only
            adj: g,
            x,
            y,
            d,
        };
        let mut row = vec![format!("{:.1}", w.adj.avg_degree())];
        for ops in [OpSet::fr_model(1.0), OpSet::sigmoid_embedding(None)] {
            let dgl = run_method(Method::Dgl, &w, &ops, r);
            let fused = run_method(Method::FusedMMOpt, &w, &ops, r);
            row.push(fmt_speedup(&dgl, &fused));
        }
        table.row(row);
    }
    table.print();
    println!("\nPaper shape to verify: speedup increases with average degree");
    println!("(denser graphs amortize memory latency; paper: ~8x -> ~16x).");
    ablations(scale, d, r);
}

/// The three ablation groups, each arm a plan launched into one reused
/// `z` per group (no sample times an allocation).
fn ablations(scale: f64, d: usize, r: usize) {
    println!("\nAblations, d={d} (avg of {r} launches after one warm-up)\n");
    let mut table = Table::new(&["ablation", "arm", "avg ms", "vs first arm"]);
    let mut group =
        |name: &str, a: &Csr, (x, y): (&Dense, &Dense), arms: Vec<(String, OpSet, Plan)>| {
            let mut z = Dense::zeros(a.nrows(), d);
            let mut first = None;
            for (arm, ops, plan) in arms {
                let all = || Launch::All { scores: None };
                let t =
                    time_iterations(r, || plan.launch(a, x, y, &ops, all(), z.as_mut_slice())).avg;
                let base = *first.get_or_insert(t);
                table.row(vec![
                    name.into(),
                    arm,
                    format!("{:.3}", t * 1e3),
                    format!("{:.2}x", t / base),
                ]);
            }
        };
    let nnz = PartitionStrategy::NnzBalanced;
    let exact = OpSet::sigmoid_embedding(None);
    let w = kernel_workload_scaled(Dataset::Youtube, d, 0.04 * scale);
    let mut blocking = vec![(
        "generic".to_string(),
        exact.clone(),
        Plan::with_blocking(&exact, d, Blocking::Generic, nnz),
    )];
    for spec in candidate_specs(active_backend().lanes(), d, true) {
        if spec.h_chunk() == 32 {
            let plan = Plan::with_blocking(&exact, d, Blocking::Specialized(spec), nnz);
            blocking.push((format!("main {}", spec.main_panels()), exact.clone(), plan));
        }
    }
    group("register blocking", &w.adj, (&w.x, &w.y), blocking);

    // Skewed RMAT, so the two ways of cutting rows actually differ.
    let n = ((80_000.0 * scale) as usize).max(64);
    let skewed = rmat(&RmatConfig::new(n, n * 10).with_seed(5));
    let (xs, ys) = (random_features(n, d, 0.5, 1), random_features(n, d, 0.5, 2));
    let partition = [("nnz-balanced", nnz), ("row-balanced", PartitionStrategy::RowBalanced)].map(
        |(arm, s)| {
            (arm.to_string(), exact.clone(), Plan::with_blocking(&exact, d, Blocking::Auto, s))
        },
    );
    group("PART1D", &skewed, (&xs, &ys), partition.into());

    let lut = OpSet::sigmoid_embedding(Some(Arc::new(SigmoidLut::default_table())));
    let sigmoid = vec![
        ("exact".to_string(), exact.clone(), Plan::prepare(&exact, d)),
        ("lookup table".to_string(), lut.clone(), Plan::prepare(&lut, d)),
    ];
    group("sigmoid", &w.adj, (&w.x, &w.y), sigmoid);
    table.print();
    println!("\nShape to verify: every register-blocked arm well under generic;");
    println!("nnz-balanced no slower than row-balanced; lookup table near exact.");
}
