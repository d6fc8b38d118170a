//! Regenerates Table VII: SpMM kernel time, the MKL stand-in
//! (inspector–executor SpMM) vs the SpMM specialization of FusedMM
//! (Table III row 3), single-threaded and on the full pool, for
//! d ∈ {64, 128, 256}.
//!
//! Run: `cargo run --release --bin repro-table7`

use fusedmm_baseline::iespmm::IeSpmm;
use fusedmm_bench::report::Table;
use fusedmm_bench::workloads::{describe, kernel_workload, reps};
use fusedmm_core::fusedmm_opt;
use fusedmm_graph::datasets::Dataset;
use fusedmm_ops::OpSet;
use fusedmm_perf::timer::time_iterations;

const DIMS: [usize; 3] = [64, 128, 256];

fn main() {
    let graphs = [Dataset::Ogbprotein, Dataset::Youtube, Dataset::Orkut];
    let r = reps();
    let full_threads = rayon::current_num_threads();
    println!(
        "Table VII reproduction — SpMM kernel time (sec), {r} reps, 1 vs {full_threads} thread(s)\n"
    );

    let mut header = vec!["Graph".to_string(), "Method".to_string()];
    for &d in &DIMS {
        header.push(format!("1T d={d}"));
    }
    for &d in &DIMS {
        header.push(format!("{full_threads}T d={d}"));
    }
    let mut table = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();

    for ds in graphs {
        let mut mkl_cells = Vec::new();
        let mut fused_cells = Vec::new();
        for threaded in [false, true] {
            for &d in &DIMS {
                let w = kernel_workload(ds, d);
                if d == DIMS[0] && !threaded {
                    eprintln!("  workload: {}", describe(&w));
                }
                let ops = OpSet::gcn();
                // MKL stand-in: inspection + execution measured together,
                // inspection done once (amortized as MKL intends).
                let run_mkl = || {
                    let ie = IeSpmm::inspect(&w.adj, None);
                    let t = time_iterations(r, || {
                        std::hint::black_box(ie.execute(&w.y));
                    });
                    t.avg + ie.stats().inspect_time.as_secs_f64() / r as f64
                };
                let run_fused = || {
                    time_iterations(r, || {
                        std::hint::black_box(fusedmm_opt(&w.adj, &w.x, &w.y, &ops));
                    })
                    .avg
                };
                let (tm, tf) = if threaded {
                    (run_mkl(), run_fused())
                } else {
                    (single.install(run_mkl), single.install(run_fused))
                };
                mkl_cells.push(format!("{tm:.3}"));
                fused_cells.push(format!("{tf:.3}"));
            }
        }
        let mut row = vec![ds.to_string(), "MKL(ie)".to_string()];
        row.extend(mkl_cells);
        table.row(row);
        let mut row = vec![ds.to_string(), "FusedMM".to_string()];
        row.extend(fused_cells);
        table.row(row);
    }
    table.print();
    println!("\nPaper shape to verify: FusedMM's SpMM specialization is comparable");
    println!("to the inspector-executor library (within ~1.3x either way).");
}
