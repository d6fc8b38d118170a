//! Quickstart: one fused kernel call on a generated graph.
//!
//! Builds a small RMAT graph, runs the sigmoid graph-embedding pattern
//! (Table III row 2 of the paper) through the tuned kernel, and checks
//! the result against the unfused SDDMM→SpMM pipeline.
//!
//! Run: `cargo run --release --example quickstart`

use fusedmm::baseline::unfused::unfused_pipeline;
use fusedmm::prelude::*;

fn main() {
    // A scale-free graph: 2,000 vertices, ~16,000 directed edges.
    let a = rmat(&RmatConfig::new(2000, 8000));
    println!("graph: {} vertices, {} edges, avg degree {:.1}", a.nrows(), a.nnz(), a.avg_degree());

    // Random 64-dimensional features for every vertex.
    let d = 64;
    let x = random_features(a.nrows(), d, 0.5, 1);
    let y = random_features(a.ncols(), d, 0.5, 2);

    // The graph-embedding operator set: z_u = Σ_v σ(x_u·y_v)·y_v.
    let ops = OpSet::sigmoid_embedding(None);

    // One fused call — no intermediate edge messages are materialized.
    let t0 = std::time::Instant::now();
    let z = fusedmm(&a, &x, &y, &ops);
    println!("fused kernel:   {:>8.3} ms", t0.elapsed().as_secs_f64() * 1e3);

    // The same computation through separate SDDMM and SpMM kernels.
    let t0 = std::time::Instant::now();
    let unfused = unfused_pipeline(&a, &x, &y, &ops);
    println!("unfused (DGL-style): {:>8.3} ms", t0.elapsed().as_secs_f64() * 1e3);
    println!(
        "unfused intermediate storage: {:.1} KB (fused: none)",
        unfused.intermediate_bytes as f64 / 1e3
    );

    // Same math, same answer.
    let diff = z.max_abs_diff(&unfused.z);
    println!("max |fused - unfused| = {diff:.2e}");
    assert!(diff < 1e-4, "fused and unfused outputs diverged");
    println!("OK: fused and unfused pipelines agree.");

    // Launching repeatedly? Z is an operand: prepare a plan once, own
    // the output, and every call overwrites it in place — no
    // allocation, no zero-fill, and the same bits as `execute`.
    let plan = Plan::prepare(&ops, d);
    let fresh = plan.execute(&a, &x, &y, &ops);
    let mut z = Dense::zeros(a.nrows(), d);
    for _ in 0..3 {
        plan.execute_into(&a, &x, &y, &ops, z.as_mut_slice());
    }
    assert_eq!(z, fresh, "execute_into and execute must agree bit for bit");
    println!("OK: execute_into reuses one output buffer, bit-identical to execute.");
}
