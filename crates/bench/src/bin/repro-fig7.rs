//! Regenerates Fig. 7: the roofline model of FusedMM for the
//! Ogbprot./Youtube/Orkut stand-ins on the graph-embedding task at
//! d = 128. Measures the STREAM-triad bandwidth roof, computes each
//! graph's arithmetic intensity per Eq. 4, and reports measured vs
//! attainable GFLOP/s.
//!
//! Run: `cargo run --release --bin repro-fig7`

use fusedmm_bench::report::Table;
use fusedmm_bench::workloads::{kernel_workload, reps};
use fusedmm_core::{Launch, Plan};
use fusedmm_graph::datasets::Dataset;
use fusedmm_ops::{OpSet, Pattern};
use fusedmm_perf::flops::gflops;
use fusedmm_perf::roofline::RooflinePoint;
use fusedmm_perf::stream::measure_stream_bandwidth;
use fusedmm_perf::timer::time_iterations;
use fusedmm_sparse::dense::Dense;

fn main() {
    let d = 128;
    let r = reps();
    eprintln!("measuring STREAM triad bandwidth...");
    let bw = measure_stream_bandwidth();
    println!("Fig. 7 reproduction — roofline, graph embedding, d={d}");
    println!(
        "STREAM bandwidth roof: {:.1} GB/s ({} elements, best of {})\n",
        bw.gbytes_per_sec, bw.elements, bw.reps
    );

    let mut table =
        Table::new(&["Graph", "avg deg", "AI (Eq.4)", "Attainable GF/s", "Measured GF/s", "Eff."]);
    for ds in [Dataset::Ogbprotein, Dataset::Youtube, Dataset::Orkut] {
        let w = kernel_workload(ds, d);
        let ops = OpSet::sigmoid_embedding(None);
        // Z is an operand: allocated once, outside what is timed.
        let mut z = Dense::zeros(w.adj.nrows(), d);
        let plan = Plan::prepare(&ops, d);
        let t = time_iterations(r, || {
            plan.launch(&w.adj, &w.x, &w.y, &ops, Launch::All { scores: None }, z.as_mut_slice());
            std::hint::black_box(z.as_slice());
        });
        let measured = gflops(Pattern::SigmoidEmbedding, d, w.adj.nnz(), t.avg);
        let point =
            RooflinePoint::new(ds.to_string(), d, w.adj.avg_degree(), bw.gbytes_per_sec, measured);
        table.row(vec![
            point.name.clone(),
            format!("{:.1}", w.adj.avg_degree()),
            format!("{:.3}", point.ai),
            format!("{:.2}", point.attainable),
            format!("{:.2}", point.measured),
            format!("{:.0}%", 100.0 * point.efficiency()),
        ]);
    }
    table.print();
    println!("\nPaper shape to verify: AI ordering Orkut > Ogbprot... (by avg degree);");
    println!("measured performance lands below but near the bandwidth roof.");
}
