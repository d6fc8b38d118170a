//! What seeding two replicas costs, phase by phase: live and peak heap
//! (counting allocator) and seconds after *workers up*, *engine new*
//! and *first embed*, for a `RemoteShardedEngine` over unix sockets to
//! two in-process workers — the `serve_remote` benchmark's set-up with
//! one allocator to read.
//!
//! Run at the benchmark's size:
//! `FUSEDMM_RPC_N=131072 FUSEDMM_RPC_D=128 cargo run --release -p
//! fusedmm-bench --bin replica-probe` (defaults: 400 x 16).
//!
//! With `P` = one `(X, Y)` pair, expect `workers up` to hold the graph,
//! the band graphs and the coordinator's pair only (a worker drops the
//! `x0`/`y0` it is built with; the peak column shows the one placeholder
//! pair this probe allocates per worker while it builds), `engine new`
//! to add nothing to either column and to take no time (the record
//! shares the store's allocation; the writers stream it), and `first
//! embed` to end exactly one `X` and two `Y`s (`1.5 P`) above `workers
//! up` — each replica's band of `X` and its `Y`, read into memory that
//! held nothing — with a peak equal to that live level.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fusedmm_bench::workloads::rpc_demo_workload;
use fusedmm_core::{Partition, PartitionStrategy};
use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack::{self, CountingAllocator};
use fusedmm_rpc::{RpcConfig, RpcTransport, WorkerServer};
use fusedmm_serve::remote::{RemoteShardedEngine, WorkerEngine};
use fusedmm_serve::{AdmissionPolicy, EngineConfig, FaultPlan};
use fusedmm_sparse::Dense;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const NSHARDS: usize = 2;

fn config() -> EngineConfig {
    EngineConfig {
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

/// Print one row: heap now, peak since the last row, seconds since it.
fn phase(name: &str, since: &mut Instant) {
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    println!(
        "{name:<14} {:>9.1} {:>9.1} {:>8.3}",
        mb(memtrack::live_bytes()),
        mb(memtrack::peak_bytes()),
        since.elapsed().as_secs_f64()
    );
    memtrack::reset_peak();
    *since = Instant::now();
}

fn main() {
    let (a, x, y) = rpc_demo_workload();
    let (n, d) = (a.nrows(), x.ncols());
    let pair_mb = (x.storage_bytes() + y.storage_bytes()) as f64 / (1 << 20) as f64;
    println!("{n} vertices, d = {d}, {NSHARDS} workers; one (X, Y) pair = {pair_mb:.1} MB");
    println!("{:<14} {:>9} {:>9} {:>8}", "phase", "live MB", "peak MB", "s");

    let pid = std::process::id();
    let paths: Vec<PathBuf> = (0..NSHARDS)
        .map(|s| std::env::temp_dir().join(format!("fusedmm-replica-probe-{pid}-{s}.sock")))
        .collect();
    let mut since = Instant::now();
    memtrack::reset_peak();
    let partition = Partition::part1d(&a, NSHARDS, PartitionStrategy::NnzBalanced);
    let servers: Vec<WorkerServer> = (0..NSHARDS)
        .map(|s| {
            let (x0, y0) = (Dense::zeros(n, d), Dense::zeros(n, d));
            let ops = OpSet::sigmoid_embedding(None);
            let worker = WorkerEngine::new(&a, partition.rows(s), s, x0, y0, ops, config());
            WorkerServer::serve_unix(Arc::new(worker), &paths[s]).expect("bind worker socket")
        })
        .collect();
    let mut rpc = RpcConfig::new(paths);
    rpc.fault = Some(Arc::new(FaultPlan::disabled()));
    let transport = RpcTransport::connect(rpc).expect("connect to the in-process workers");
    phase("workers up", &mut since);

    let remote = RemoteShardedEngine::new(x, y, transport, config());
    phase("engine new", &mut since);

    // One row per band: answered once both replicas hold the snapshot.
    remote.embed(&[0, n - 1]).expect("first remote embed");
    phase("first embed", &mut since);

    drop(remote);
    drop(servers);
}
