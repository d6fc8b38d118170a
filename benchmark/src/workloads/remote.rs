//! `serve_remote` — `RemoteShardedEngine` over `RpcTransport` to two
//! `WorkerServer`s hosted in this process on real unix sockets: the
//! same codec, framing and socket path as multi-process serving,
//! without child-lifecycle noise and with one allocator to read. The
//! only workload where `rpc` works; its id stream is replayed through
//! an in-process `ShardedEngine`, so RPC cost is a difference of two
//! measured numbers.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fusedmm::kernel::Partition;
use fusedmm::prelude::*;
use fusedmm::rpc::{decode, read_frame, write_frame, Frame, Msg};

use super::{
    bit_identical, close, embed_call, engine_config, exported_p50_us, fingerprint_of,
    kernel_seconds, reference_rows, serve_inputs, Bench, Counters, Params, SetupInfo, D,
};
use crate::harness::{median, median_us, Call, Timed, Workload};
use crate::inputs::{batch_of, uniform_stream, Rng};
use crate::metrics::Metrics;
use crate::spans::Recorder;

const VERTICES: usize = 1 << 17;
const EDGES_PER_VERTEX: usize = 16;
const SHARDS: usize = 2;
const BATCH: usize = 64;
const SEGMENT_CALLS: usize = 600;
const WARMUP_CALLS: usize = 300;
const STREAM_CALLS: usize = 1 << 15;
/// Every this-many-th response is compared with the reference kernel
/// and kept for the bit-identity replay.
const CHECK_EVERY: usize = 1000;
const LAYER_CALLS: usize = 1000;
/// Where the sockets live: inside the checkout, git-ignored.
const SOCKET_DIR: &str = "benchmark/out";

pub struct Remote {
    // Declared before the servers: the front end must drop first.
    engine: RemoteShardedEngine,
    _servers: Vec<WorkerServer>,
    a: Csr,
    ids: Vec<u32>,
    /// Sampled `(ids, response)` pairs awaiting the bit-identity replay.
    sampled: Mutex<Vec<(Vec<usize>, Dense)>>,
    /// The in-process twin, built on first use and off every clock.
    local: OnceLock<ShardedEngine>,
    registry: MetricsRegistry,
}

fn ops() -> OpSet {
    OpSet::sigmoid_embedding(None)
}

impl Remote {
    fn local(&self) -> &ShardedEngine {
        self.local.get_or_init(|| {
            let epoch = self.engine.store().snapshot();
            let config = engine_config(&Tracer::disabled());
            ShardedEngine::new(
                self.a.clone(),
                epoch.x().clone(),
                epoch.y().clone(),
                ops(),
                SHARDS,
                config,
            )
        })
    }
}

impl Workload for Remote {
    fn callers(&self) -> usize {
        1
    }

    fn segment_calls(&self) -> usize {
        SEGMENT_CALLS
    }

    fn call(&self, _caller: usize, index: usize, rec: Option<&mut Recorder>) -> Call {
        let ids = batch_of(&self.ids, BATCH, index);
        let request = index as u64;
        let start = Instant::now();
        let result =
            embed_call(rec, request, || self.engine.embed(&ids), || self.engine.embed_begin(&ids));
        let latency = start.elapsed();
        let ok = match result {
            Ok(rows) if index.is_multiple_of(CHECK_EVERY) => {
                let epoch = self.engine.store().snapshot();
                let ok = close(&rows, &reference_rows(&self.a, &ids, epoch.x(), epoch.y(), &ops()));
                self.sampled.lock().expect("samples").push((ids, rows));
                ok
            }
            Ok(rows) => rows.nrows() == BATCH,
            Err(_) => false,
        };
        Call { latency, rows: BATCH, failed: !ok }
    }
}

impl Bench for Remote {
    const NAME: &'static str = "serve_remote";
    const TRACED_CALLS: usize = 2000;
    const KERNEL_SHARE: &'static str = "core.kernel_share_remote";

    fn ops() -> OpSet {
        ops()
    }

    fn setup(p: &Params, tracer: Arc<Tracer>) -> (Remote, SetupInfo) {
        /// Instances in one process get sockets of their own.
        static INSTANCE: AtomicUsize = AtomicUsize::new(0);

        let n = p.vertices(VERTICES);
        let (a, x, y, rmat_gen_s) = serve_inputs(p, n, EDGES_PER_VERTEX);
        let ids = uniform_stream(n, STREAM_CALLS, BATCH, &mut Rng::new(p.seed_for(4)));

        let t = Instant::now();
        let mut fp = fingerprint_of(&a, &x, &y);
        fp.u32s(&ids);
        let excluded = t.elapsed();

        // Workers boot as fresh replicas on placeholder features; the
        // coordinator seeds them with a snapshot over the socket.
        std::fs::create_dir_all(SOCKET_DIR).expect("socket directory inside the checkout");
        let instance = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let paths: Vec<PathBuf> = (0..SHARDS)
            .map(|s| {
                PathBuf::from(format!("{SOCKET_DIR}/w{}-{instance}-{s}.sock", std::process::id()))
            })
            .collect();
        let partition = Partition::part1d(&a, SHARDS, PartitionStrategy::NnzBalanced);
        let servers: Vec<WorkerServer> = (0..SHARDS)
            .map(|s| {
                let worker = WorkerEngine::new(
                    &a,
                    partition.rows(s),
                    s,
                    Dense::zeros(n, D),
                    Dense::zeros(n, D),
                    ops(),
                    engine_config(&Tracer::disabled()),
                );
                WorkerServer::serve_unix(Arc::new(worker), &paths[s]).expect("bind worker socket")
            })
            .collect();

        let ship = Instant::now();
        let mut rpc = RpcConfig::new(paths);
        rpc.fault = Some(Arc::new(FaultPlan::disabled()));
        let transport = RpcTransport::connect(rpc).expect("connect to the in-process workers");
        let registry = MetricsRegistry::new();
        transport.register_metrics(&registry);
        let engine = RemoteShardedEngine::new(x, y, transport, engine_config(&tracer));
        engine.register_metrics(&registry);
        let remote = Remote {
            engine,
            _servers: servers,
            a,
            ids,
            sampled: Mutex::default(),
            local: OnceLock::new(),
            registry,
        };
        // The first answer arrives once both replicas hold the snapshot.
        remote.engine.embed(&batch_of(&remote.ids, BATCH, 0)).expect("first remote embed");
        let snapshot_ship_s = ship.elapsed().as_secs_f64();

        for i in 0..WARMUP_CALLS {
            remote.call(0, i, None);
        }
        let info = SetupInfo {
            excluded,
            rmat_gen_s,
            fingerprint: fp.hex(),
            plan: format!("{:?}", Plan::prepare(&ops(), D).blocking()),
            warmup_calls: WARMUP_CALLS,
            layer: vec![("rpc.snapshot_ship_s", snapshot_ship_s)],
        };
        (remote, info)
    }

    fn verify(&self) -> Vec<String> {
        let local = self.local();
        let sampled = self.sampled.lock().expect("samples");
        let differing = sampled
            .iter()
            .filter(|(ids, rows)| !local.embed(ids).is_ok_and(|twin| bit_identical(rows, &twin)))
            .count();
        if differing == 0 {
            Vec::new()
        } else {
            vec![format!(
                "{differing} of {} sampled responses differ from the in-process twin",
                sampled.len()
            )]
        }
    }

    fn layer_pass(&self, _p: &Params, timed: &Timed, counters: &Counters, out: &mut Metrics) {
        // Codec and framing on one reply of this workload's shape.
        let reply = Msg::EmbedOk { rows: random_features(BATCH, D, 0.5, 1) };
        let payload = reply.encode();
        let per_row_ns =
            |f: &mut dyn FnMut()| median_us(0..LAYER_CALLS, |_| f()) * 1e3 / BATCH as f64;
        let encode = per_row_ns(&mut || {
            std::hint::black_box(reply.encode());
        });
        out.set("rpc.encode_ns_per_row", encode);
        let decoded = per_row_ns(&mut || {
            std::hint::black_box(decode(reply.kind(), &payload).expect("decode"));
        });
        out.set("rpc.decode_ns_per_row", decoded);
        let frame = Frame { request_id: 7, kind: reply.kind(), payload: payload.clone() };
        let frame_rw = per_row_ns(&mut || {
            let mut wire = Vec::with_capacity(payload.len() + 16);
            write_frame(&mut wire, &frame).expect("write to a Vec");
            std::hint::black_box(read_frame(&mut Cursor::new(&wire)).expect("read back"));
        });
        out.set("rpc.frame_rw_ns_per_row", frame_rw);

        // Exact counts the transport exports, over the timed pass.
        let calls = timed.attempted() as f64;
        let sum = |a: &str, b: &str| Some(counters.delta(a)? + counters.delta(b)?);
        out.set_opt(
            "rpc.wire_bytes_per_row",
            sum("fusedmm_rpc_bytes_sent_total", "fusedmm_rpc_bytes_received_total")
                .map(|b| b / (calls * BATCH as f64)),
        );
        out.set_opt(
            "rpc.frames_per_call",
            sum("fusedmm_rpc_frames_sent_total", "fusedmm_rpc_frames_received_total")
                .map(|f| f / calls),
        );
        out.set_opt(
            "rpc.rtt_p50_us",
            exported_p50_us(&counters.after, "fusedmm_rpc_roundtrip_seconds"),
        );

        // The same slice of the stream, remote then in-process.
        let first = timed.next_index;
        let kernel_before = kernel_seconds();
        let remote: Vec<f64> = (first..first + LAYER_CALLS)
            .map(|i| self.call(0, i, None).latency.as_secs_f64() * 1e6)
            .collect();
        let wall = remote.iter().sum::<f64>() / 1e6;
        out.set(Self::KERNEL_SHARE, (kernel_seconds() - kernel_before) / wall);
        let local = self.local();
        let batches = (first..first + LAYER_CALLS).map(|i| batch_of(&self.ids, BATCH, i));
        let in_process = median_us(batches, |ids| {
            std::hint::black_box(local.embed(&ids).expect("local embed"));
        });
        out.set("rpc.overhead_us", median(remote) - in_process);
        out.set("rpc.remote_p99_us", timed.latency_percentile(0.99));
    }

    fn exported(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}
