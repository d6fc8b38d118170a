//! End-to-end multi-process smoke test: two `fusedmm-shard-worker`
//! processes + a `RemoteShardedEngine` coordinator over unix sockets,
//! checked bit-for-bit against an in-process `ShardedEngine` on the
//! same workload — through publishes, deltas, a worker kill mid-stream
//! (with a delta shipped while it is down), and the restart's
//! epoch-log catch-up.
//!
//! Run: `cargo run --release --bin fusedmm-rpc-smoke`
//! (builds `fusedmm-shard-worker` into the same target dir first:
//! `cargo build --release --bin fusedmm-shard-worker`).
//!
//! Exits nonzero on any mismatch. `FUSEDMM_METRICS_JSON=<path>` dumps
//! the final registry snapshot (the CI job asserts nonzero reconnect
//! counts and the epoch-lag gauge in it).

use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use fusedmm_bench::workloads::rpc_demo_workload;
use fusedmm_ops::OpSet;
use fusedmm_perf::registry::MetricsRegistry;
use fusedmm_rpc::{RpcConfig, RpcTransport};
use fusedmm_serve::remote::RemoteShardedEngine;
use fusedmm_serve::{EngineConfig, ShardedEngine};
use fusedmm_sparse::Dense;

const NSHARDS: usize = 2;

fn spawn_worker(bin: &PathBuf, path: &PathBuf, shard: usize) -> Child {
    Command::new(bin)
        .arg(path)
        .arg(shard.to_string())
        .arg(NSHARDS.to_string())
        .spawn()
        .expect("spawn fusedmm-shard-worker (build it into the same target dir first)")
}

/// Embed with retries — right after a worker restart the first
/// requests can still race the reconnect and fail typed.
fn embed_retrying(remote: &RemoteShardedEngine, nodes: &[usize]) -> Dense {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match remote.embed(nodes) {
            Ok(rows) => return rows,
            Err(e) if Instant::now() < deadline => {
                eprintln!("embed retry after typed failure: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("embed never recovered: {e}"),
        }
    }
}

fn main() {
    let (a, x, y) = rpc_demo_workload();
    let n = a.nrows();
    let d = x.ncols();
    let ops = OpSet::sigmoid_embedding(None);

    let worker_bin = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("target dir")
        .join("fusedmm-shard-worker");
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths: Vec<PathBuf> =
        (0..NSHARDS).map(|s| dir.join(format!("fusedmm-rpc-{pid}-{s}.sock"))).collect();
    let mut children: Vec<Child> =
        (0..NSHARDS).map(|s| spawn_worker(&worker_bin, &paths[s], s)).collect();

    let transport = RpcTransport::connect(RpcConfig::new(paths.clone())).expect("connect workers");
    let remote =
        RemoteShardedEngine::new(x.clone(), y.clone(), transport.clone(), EngineConfig::default());
    let local = ShardedEngine::new(a.clone(), x, y, ops, NSHARDS, EngineConfig::default());
    assert_eq!(remote.boundaries(), local.boundaries(), "same PART1D cut on both sides");

    let registry = MetricsRegistry::new();
    transport.register_metrics(&registry);
    remote.register_metrics(&registry);

    let windows: Vec<Vec<usize>> =
        vec![vec![0, n - 1, n / 2, 0, 7 % n], (0..n).step_by(3).collect(), (0..n).collect()];
    let check = |tag: &str| {
        for w in &windows {
            assert_eq!(embed_retrying(&remote, w), local.embed(w).unwrap(), "{tag}");
        }
        println!("bit-identical: {tag}");
    };

    check("epoch 0");

    // Delta mid-stream: both sides mint epoch 1 from the same patch.
    let rows = vec![0, n / 3, n - 1];
    let px = Dense::from_fn(rows.len(), d, |r, k| (r * 7 + k) as f32 * 0.013);
    let py = Dense::from_fn(rows.len(), d, |r, k| (r + k * 3) as f32 * 0.021);
    assert_eq!(remote.delta_update(&rows, &px, &py), 1);
    assert_eq!(local.store().delta_update(&rows, &px, &py), 1);
    check("epoch 1 (delta)");

    // Whole publish: epoch 2.
    let x2 = Dense::from_fn(n, d, |r, k| ((r + k) as f32 * 0.03).cos());
    let y2 = Dense::from_fn(n, d, |r, k| ((r * 2 + k) as f32 * 0.05).sin());
    assert_eq!(remote.publish(x2.clone(), y2.clone()), 2);
    assert_eq!(local.store().publish(x2, y2), 2);
    check("epoch 2 (publish)");

    // Kill worker 0 and ship a delta while it is down — the epoch log
    // must carry it across the restart.
    let reconnects_before = transport.reconnects(0);
    children[0].kill().expect("kill worker 0");
    let _ = children[0].wait();
    println!("killed worker 0");
    assert_eq!(remote.delta_update(&rows, &py, &px), 3);
    assert_eq!(local.store().delta_update(&rows, &py, &px), 3);
    // Give the coordinator a beat to notice the dead socket, then the
    // lag gauge for worker 0 must show the unacked epoch.
    std::thread::sleep(Duration::from_millis(300));
    let snap = registry.snapshot();
    let lag = snap
        .gauge_value("fusedmm_rpc_epoch_lag", &[("worker", "0")])
        .expect("lag gauge registered");
    assert!(lag > 0.0, "dead worker shows epoch-log lag (got {lag})");
    println!("worker 0 epoch-log lag while down: {lag}");

    children[0] = spawn_worker(&worker_bin, &paths[0], 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while transport.reconnects(0) == reconnects_before {
        assert!(Instant::now() < deadline, "worker 0 never reconnected");
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("worker 0 reconnected (fresh replica, snapshot catch-up)");
    check("epoch 3 (after kill + restart + catch-up)");

    // Scores cross the same transport.
    let pairs: Vec<(usize, usize)> = (0..n).step_by(7).map(|u| (u, (u * 5 + 3) % n)).collect();
    assert_eq!(
        remote.score_edges(&pairs).unwrap(),
        local.score_edges(&pairs).unwrap(),
        "scores bit-identical"
    );
    println!("bit-identical: score_edges ({} pairs)", pairs.len());

    let snap = registry.snapshot();
    let reconnects = snap.counter("fusedmm_rpc_reconnects_total", &[("worker", "0")]).unwrap_or(0);
    assert!(reconnects > 0, "reconnect counter must be nonzero after the restart");
    if let Ok(path) = std::env::var("FUSEDMM_METRICS_JSON") {
        if !path.is_empty() {
            std::fs::write(&path, snap.to_json()).expect("write metrics dump");
            println!("wrote FUSEDMM_METRICS_JSON -> {path}");
        }
    }

    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    println!("rpc-smoke OK: {NSHARDS} workers, 4 epochs, kill+restart, bit-identical throughout");
}
