//! What replication costs in bytes, under the counting allocator: a
//! hostile frame sizes nothing, the epoch log's base is the shipped
//! allocation until a fold has to patch it, and a replica built over a
//! real unix socket holds no features until it is seeded — seeding two
//! of them adds, per worker, its band's rows of `X` and one `Y`, with
//! no transient above it, and ships each worker exactly those bytes.
//! A delta copies a generation somebody else still holds — the log
//! base on the coordinator, the pinned history on a replica (its band
//! of `X` and its `Y`) — and leaves that holder's bits alone.
//! The tests run one at a time (the counters are process-wide).

use std::sync::{Arc, Mutex, MutexGuard};

use fusedmm_core::{Partition, PartitionStrategy};
use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack::{self, CountingAllocator};
use fusedmm_perf::registry::MetricsRegistry;
use fusedmm_rpc::{
    read_msg, write_frame, write_msg, DecodeError, EpochLog, Frame, Msg, RpcConfig, RpcTransport,
    WorkerServer,
};
use fusedmm_serve::remote::{EpochRecord, RemoteShardedEngine, ShardTransport, WorkerEngine};
use fusedmm_serve::{AdmissionPolicy, EngineConfig, FaultPlan, Quality};
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::Dense;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn storage(m: &Dense) -> *const f32 {
    m.as_slice().as_ptr()
}

#[test]
fn a_dense_header_larger_than_its_frame_sizes_nothing() {
    let _serial = serial();
    assert!(memtrack::is_active());
    // KIND_EMBED_OK claiming 30 000 x 30 000 floats (3.6 GB) in a frame
    // that carries eight bytes of them, then a good frame.
    let mut payload = Vec::new();
    payload.extend_from_slice(&30_000u32.to_le_bytes());
    payload.extend_from_slice(&30_000u32.to_le_bytes());
    payload.extend_from_slice(&[0; 8]);
    let mut wire = Vec::new();
    write_frame(&mut wire, &Frame { request_id: 1, kind: 3, payload }).unwrap();
    let good = Msg::EpochAck { epoch: 9 };
    write_msg(&mut wire, 2, &good).unwrap();

    let mut r = &wire[..];
    let (bad, allocated) = memtrack::measure_peak(|| read_msg(&mut r).unwrap());
    assert_eq!((bad.request_id, bad.msg), (1, Err(DecodeError::BadCount("dense"))));
    assert!(allocated < 4096, "a rejected count allocated {allocated} bytes");
    let next = read_msg(&mut r).unwrap();
    assert_eq!((next.request_id, next.msg), (2, Ok(good)));
}

#[test]
fn the_log_base_is_the_shipped_allocation_until_a_fold_patches_it() {
    let _serial = serial();
    let (n, d) = (512, 16);
    let x = Arc::new(Dense::from_fn(n, d, |r, k| (r * d + k) as f32));
    let y = Arc::new(Dense::from_fn(n, d, |r, k| -((r * d + k) as f32)));
    let original = (x.as_slice().to_vec(), y.as_slice().to_vec());
    let log = EpochLog::new();
    let (_, shipped) = memtrack::measure_peak(|| {
        log.ship(&EpochRecord::Snapshot {
            epoch: 0,
            x_start: 0,
            x: Arc::clone(&x),
            y: Arc::clone(&y),
        })
    });
    assert!(shipped < x.storage_bytes() / 20, "shipping a snapshot allocated {shipped} bytes");
    let base_storage = |log: &EpochLog| match &log.catch_up(None)[0] {
        EpochRecord::Snapshot { epoch, x, y, .. } => (*epoch, storage(x), storage(y)),
        other => panic!("a log with a base starts with it, got {other:?}"),
    };
    assert_eq!(base_storage(&log), (0, storage(&x), storage(&y)));

    // Past the compaction cap the tail folds into the base — into a
    // copy, because `x` / `y` (the store's epoch, here) still hold it.
    let rounds = 70u64;
    for e in 1..=rounds {
        log.ship(&EpochRecord::Delta {
            epoch: e,
            rows: vec![e as usize % n],
            x_rows: Dense::filled(1, d, e as f32 + 0.5),
            y_rows: Dense::filled(1, d, -(e as f32) - 0.5),
        });
    }
    let records = log.catch_up(None);
    let EpochRecord::Snapshot { epoch: folded, x: bx, y: by, .. } = &records[0] else {
        panic!("a compacted log starts with its base");
    };
    assert!(*folded >= 64 && records.len() as u64 == 1 + rounds - folded);
    assert_ne!(storage(bx), storage(&x), "the fold patched a copy");
    assert_eq!((x.as_slice(), y.as_slice()), (&original.0[..], &original.1[..]), "not the store's");
    for r in 0..n {
        // The last folded delta to touch row `r`, if any.
        let last = (1..=*folded).rev().find(|e| *e as usize % n == r);
        let (want_x, want_y) = match last {
            Some(e) => (vec![e as f32 + 0.5; d], vec![-(e as f32) - 0.5; d]),
            None => (x.row(r).to_vec(), y.row(r).to_vec()),
        };
        assert_eq!((bx.row(r), by.row(r)), (&want_x[..], &want_y[..]), "row {r}");
    }
    assert_eq!(log.latest(), Some(rounds));
}

fn graph(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for u in 0..n {
        coo.push(u, (u * 7 + 13) % n, 0.5);
        coo.push(u, (u * 3 + 1) % n, 0.25);
    }
    coo.to_csr(Dedup::Sum)
}

fn config() -> EngineConfig {
    EngineConfig {
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

/// `nshards` band workers of `a` serving over unix sockets (holding no
/// features until the coordinator seeds them), and a transport
/// connected to all of them.
fn loopback(
    a: &Csr,
    d: usize,
    nshards: usize,
    tag: &str,
) -> (Vec<WorkerServer>, Arc<RpcTransport>) {
    let n = a.nrows();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths: Vec<std::path::PathBuf> =
        (0..nshards).map(|s| dir.join(format!("fusedmm-rpc-{tag}-{pid}-{s}.sock"))).collect();
    let partition = Partition::part1d(a, nshards, PartitionStrategy::NnzBalanced);
    let servers = (0..nshards)
        .map(|s| {
            let (x0, y0) = (Dense::zeros(n, d), Dense::zeros(n, d));
            let ops = OpSet::sigmoid_embedding(None);
            let worker = WorkerEngine::new(a, partition.rows(s), s, x0, y0, ops, config());
            WorkerServer::serve_unix(Arc::new(worker), &paths[s]).expect("bind worker socket")
        })
        .collect();
    let mut rpc = RpcConfig::new(paths);
    rpc.fault = Some(Arc::new(FaultPlan::disabled()));
    (servers, RpcTransport::connect(rpc).expect("connect loopback workers"))
}

fn bits(m: &Dense) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn two_replicas_over_sockets_cost_their_band_of_x_and_one_y_each() {
    let _serial = serial();
    let (n, d, nshards) = (4096usize, 128usize, 2usize);
    let (matrix, pair) = (n * d * 4, 2 * n * d * 4);
    let a = graph(n);

    // A worker keeps its band of the graph and none of the features it
    // was built with: the placeholder pairs are gone before it serves.
    let before = memtrack::live_bytes();
    let (servers, transport) = loopback(&a, d, nshards, "memory");
    let retained = memtrack::live_bytes().saturating_sub(before);
    let bands = a.storage_bytes() + 8 * nshards;
    assert!(
        retained < bands + pair / 20,
        "building {nshards} workers retained {retained} bytes; their band graphs are {bands}"
    );

    let x = Dense::from_fn(n, d, |r, k| ((r * 3 + k) as f32 * 0.01).sin());
    let y = Dense::from_fn(n, d, |r, k| ((r + k * 5) as f32 * 0.02).cos());
    let bounds = transport.boundaries();
    let registry = MetricsRegistry::new();
    transport.register_metrics(&registry);
    let unseeded = memtrack::live_bytes();
    memtrack::reset_peak();
    let remote = RemoteShardedEngine::new(x, y, transport, config());
    // Requests queue behind the snapshot on each connection, and each
    // worker acknowledges the record before it answers: once a row of
    // each band is back, both `EpochAck`s have been read.
    remote.embed(&[0, n - 1]).expect("first embed, one row per band");
    let (live, peak) = (memtrack::live_bytes(), memtrack::peak_bytes());

    // The coordinator's store, record and log base are one pair (live
    // before seeding); each replica reads its band of `X` and all of
    // `Y` into memory that held nothing, so seeding adds exactly that
    // per worker — one `X` and `nshards` `Y`s in all — and nothing
    // rises above where it ends.
    let want = matrix + nshards * matrix;
    assert!(
        live.abs_diff(unseeded + want) <= pair / 20,
        "live {unseeded} -> {live} after both acks; the bands of X plus a Y per replica is {want}"
    );
    assert!(peak <= live + live / 100, "peak {peak} while seeding; live after both acks {live}");

    // On the wire: each worker was sent its seeding frame — its band
    // of X, all of Y, and the headers — plus the one-node embed.
    let sent = registry.snapshot();
    for s in 0..nshards {
        let band = bounds[s + 1] - bounds[s];
        let seeding = 4 + 9 + 1 + 8 + 8 + (8 + band * d * 4) + (8 + n * d * 4);
        let embed = 4 + 9 + 8 + 1 + 8 + 8 + 8;
        let worker = s.to_string();
        let bytes = sent.counter("fusedmm_rpc_bytes_sent_total", &[("worker", worker.as_str())]);
        assert_eq!(bytes, Some((seeding + embed) as u64), "worker {s}, band of {band} rows");
    }
    drop(remote);
    drop(servers);
}

#[test]
fn a_coordinator_delta_copies_the_generation_its_log_base_holds() {
    let _serial = serial();
    // The workers share this process and copy on their own side, so
    // storage pointers, not byte counts, tell what the coordinator did.
    let (n, d) = (4096usize, 64usize);
    let (servers, transport) = loopback(&graph(n), d, 2, "log-base");
    let log = Arc::clone(transport.log());
    let x = Dense::from_fn(n, d, |r, k| ((r * 5 + k) as f32 * 0.01).sin());
    let y = Dense::from_fn(n, d, |r, k| ((r + k * 3) as f32 * 0.02).cos());
    let original = (bits(&x), bits(&y));
    let remote = RemoteShardedEngine::new(x, y, transport, config());
    remote.embed(&[0, n - 1]).expect("first embed, one row per band");

    let rows = [1, 2000, n - 1];
    let px = Dense::filled(rows.len(), d, 4.0);
    let py = Dense::filled(rows.len(), d, -4.0);
    assert_eq!(remote.delta_update(&rows, &px, &py), 1);
    let EpochRecord::Snapshot { epoch: 0, x: bx, y: by, .. } = log.catch_up(None).remove(0) else {
        panic!("the log's base is the seeded generation");
    };
    assert!((bits(&bx), bits(&by)) == original, "the log base changed");
    let current = remote.store().snapshot();
    assert_ne!(storage(current.x()), storage(&bx), "the patch went into a copy");
    for (i, &u) in rows.iter().enumerate() {
        assert_eq!((current.x().row(u), current.y().row(u)), (px.row(i), py.row(i)));
    }

    // Nobody else holds the copy: the next delta writes in place.
    let held = (storage(current.x()), storage(current.y()));
    drop((bx, by, current));
    assert_eq!(remote.delta_update(&rows, &py, &px), 2);
    let current = remote.store().snapshot();
    assert_eq!((storage(current.x()), storage(current.y())), held, "written in place");
    assert_eq!(current.x().row(rows[0]), py.row(0));
    drop(current);
    drop(remote);
    drop(servers);
}

#[test]
fn a_replica_delta_copies_the_generation_its_history_pins() {
    let _serial = serial();
    let (n, d) = (4096usize, 64usize);
    // A quarter of the rows: the copy is that band of X and all of Y.
    let band = n / 4;
    let copy = (band + n) * d * 4;
    let a = graph(n);
    let ops = OpSet::sigmoid_embedding(None);
    let (x0, y0) = (Dense::zeros(n, d), Dense::zeros(n, d));
    let worker = WorkerEngine::new(&a, 0..band, 0, x0, y0, ops, config());
    let x = Arc::new(Dense::from_fn(n, d, |r, k| ((r * 5 + k) as f32 * 0.01).sin()));
    let y = Arc::new(Dense::from_fn(n, d, |r, k| ((r + k * 3) as f32 * 0.02).cos()));
    worker.apply(EpochRecord::Snapshot { epoch: 0, x_start: 0, x, y });

    let nodes = [0, 1, 7, 20, band - 1];
    let at_zero = || {
        let served = worker.embed_part(&nodes, 0, Quality::Exact, None).expect("epoch 0 is held");
        bits(&served.rows)
    };
    let before = at_zero();
    let rows = vec![1, 20, n - 1];
    let record = EpochRecord::Delta {
        epoch: 1,
        rows: rows.clone(),
        x_rows: Dense::filled(rows.len(), d, 4.0),
        y_rows: Dense::filled(rows.len(), d, -4.0),
    };
    let (epoch, allocated) = memtrack::measure_peak(|| worker.apply(record));
    assert_eq!(epoch, 1);
    assert!(
        allocated.abs_diff(copy) < copy / 20,
        "the delta allocated {allocated} bytes; the band of X plus Y is {copy}"
    );
    assert!(at_zero() == before, "the epoch the history pins changed");
    let after = worker.embed_part(&nodes, 1, Quality::Exact, None).expect("epoch 1");
    assert!(bits(&after.rows) != before, "epoch 1 serves the patch");
}
