//! One coordinator thread per worker. An `RpcTransport`'s manager
//! thread (`fusedmm-rpc-<shard>`) connects, catches its worker up and
//! reads the replies; whoever sends a frame writes it. The threads are
//! counted from `/proc/self/task`, in this test's own process, so no
//! other test's threads are counted.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm_core::{Partition, PartitionStrategy};
use fusedmm_ops::OpSet;
use fusedmm_rpc::{RpcConfig, RpcTransport, WorkerServer};
use fusedmm_serve::remote::{RemoteShardedEngine, WorkerEngine};
use fusedmm_serve::EngineConfig;
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::Dense;

/// Threads of this process named like a transport's managers.
fn rpc_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("fusedmm-rpc-"))
        .count()
}

#[test]
fn each_worker_costs_the_coordinator_one_thread() {
    let (n, d, nshards) = (256, 8, 2);
    let mut coo = Coo::new(n, n);
    for u in 0..n {
        coo.push(u, (u * 7 + 13) % n, 0.5);
        coo.push(u, (u * 3 + 1) % n, 0.25);
    }
    let a = coo.to_csr(Dedup::Sum);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths: Vec<std::path::PathBuf> =
        (0..nshards).map(|s| dir.join(format!("fusedmm-rpc-threads-{pid}-{s}.sock"))).collect();
    let partition = Partition::part1d(&a, nshards, PartitionStrategy::NnzBalanced);
    let servers: Vec<WorkerServer> = (0..nshards)
        .map(|s| {
            let (x0, y0) = (Dense::zeros(n, d), Dense::zeros(n, d));
            let ops = OpSet::sigmoid_embedding(None);
            let worker =
                WorkerEngine::new(&a, partition.rows(s), s, x0, y0, ops, EngineConfig::default());
            WorkerServer::serve_unix(Arc::new(worker), &paths[s]).expect("bind worker socket")
        })
        .collect();
    let mut rpc = RpcConfig::new(paths.clone());
    rpc.reconnect_backoff = Duration::from_millis(5);
    let transport = RpcTransport::connect(rpc).expect("connect loopback workers");
    assert_eq!(rpc_threads(), nshards, "after connect");

    let x = Dense::from_fn(n, d, |r, k| ((r * 3 + k) as f32 * 0.01).sin());
    let y = Dense::from_fn(n, d, |r, k| ((r + k * 5) as f32 * 0.02).cos());
    let remote =
        RemoteShardedEngine::new(x.clone(), y.clone(), transport.clone(), EngineConfig::default());
    for i in 0..200 {
        remote.embed(&[i % n, (i * 7 + 3) % n]).expect("embed");
    }
    remote.publish(y, x);
    let patch = Dense::filled(2, d, 0.5);
    remote.delta_update(&[1, n - 1], &patch, &patch);
    remote.embed(&[0, n - 1]).expect("embed after the writes");
    assert_eq!(rpc_threads(), nshards, "after 200 embeds, a publish and a delta");

    servers[0].disconnect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while transport.reconnects(0) == 0 {
        assert!(Instant::now() < deadline, "worker 0 never reconnected");
        std::thread::sleep(Duration::from_millis(5));
    }
    remote.embed(&[0, n - 1]).expect("embed after the reconnect");
    assert_eq!(rpc_threads(), nshards, "after a reconnect");
    drop(remote);
    drop(servers);
}
