//! One shard's worker process: builds the shared demo workload, hosts
//! its PART1D band behind a `WorkerEngine`, and serves it over a unix
//! socket until killed.
//!
//! ```text
//! fusedmm-shard-worker <socket-path> <shard> <nshards>
//! ```
//!
//! The graph and the partition cut are rebuilt deterministically from
//! the same seeds the coordinator uses
//! (`fusedmm_bench::workloads::rpc_demo_workload`, knobs
//! `FUSEDMM_RPC_N` / `FUSEDMM_RPC_D`) — only *features* replicate over
//! the wire, as the coordinator's epoch log; the sparse shard never
//! does. Boot features are zeros: the replica reports itself `fresh`
//! in the handshake and the coordinator seeds it from a snapshot
//! before any request arrives. `FUSEDMM_RPC_CACHE=0` disables the
//! per-replica result cache (default: on).

use std::sync::Arc;
use std::time::Duration;

use fusedmm_bench::workloads::{env_usize, rpc_demo_workload};
use fusedmm_core::{Partition, PartitionStrategy};
use fusedmm_ops::OpSet;
use fusedmm_rpc::WorkerServer;
use fusedmm_serve::remote::WorkerEngine;
use fusedmm_serve::{CacheConfig, EngineConfig};
use fusedmm_sparse::Dense;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 4 {
        eprintln!("usage: {} <socket-path> <shard> <nshards>", args[0]);
        std::process::exit(2);
    }
    let socket = &args[1];
    let shard: usize = args[2].parse().expect("shard index");
    let nshards: usize = args[3].parse().expect("shard count");
    assert!(shard < nshards, "shard index within the cut");

    let (a, _, _) = rpc_demo_workload();
    let d = env_usize("FUSEDMM_RPC_D", 16);
    let part = Partition::part1d(&a, nshards, PartitionStrategy::NnzBalanced);
    let band = part.rows(shard);
    let cache = (env_usize("FUSEDMM_RPC_CACHE", 1) != 0).then(CacheConfig::default);
    let config = EngineConfig { coalesce_window: Duration::ZERO, cache, ..EngineConfig::default() };
    let engine = WorkerEngine::new(
        &a,
        band.clone(),
        shard,
        Dense::zeros(a.nrows(), d),
        Dense::zeros(a.ncols(), d),
        OpSet::sigmoid_embedding(None),
        config,
    );
    let _server = WorkerServer::serve_unix(Arc::new(engine), socket).expect("bind worker socket");
    println!("worker {shard}/{nshards} serving rows {band:?} on {socket}");
    loop {
        std::thread::park();
    }
}
