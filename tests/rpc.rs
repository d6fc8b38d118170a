//! Multi-process shard serving, exercised in-process: the wire codec
//! must be total (any byte slice decodes to a message or a typed
//! error, never a panic, never a wild allocation) and an exact inverse
//! of `encode`; and a `RemoteShardedEngine` gathering its parts from
//! `WorkerServer`s over real unix sockets must stay **bit-identical**
//! to the in-process `ShardedEngine` after a worker is killed, misses
//! an epoch, and a fresh replica catches up from the replicated log's
//! snapshot. (Remote over sockets at every epoch, before any restart,
//! is a front end of `tests/conformance.rs`.)

use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm::kernel::Partition;
use fusedmm::prelude::*;
use fusedmm::rpc::proto::WireError;
use fusedmm::rpc::{
    decode, decode_from, read_frame, read_msg, write_frame, write_msg, DecodeError, Frame,
    FrameError, Msg, PROTO_VERSION,
};
use fusedmm::serve::{Quality, ServeError};

// ---------------------------------------------------------------------
// Codec totality and round-trip.
// ---------------------------------------------------------------------

/// A reader that returns at most one byte per `read` — the worst a
/// stream may legally do.
struct OneByte<'a>(&'a [u8]);

impl std::io::Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.0.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Build one message of each wire kind from generated raw material.
/// `vals` is cycled so any `(rows, cols)` shape is fillable.
fn build_msg(variant: usize, nums: &[u64], vals: &[f32], dims: (usize, usize), tag: usize) -> Msg {
    let (r, c) = dims;
    let dense = |r: usize, c: usize| {
        Dense::from_fn(
            r,
            c,
            |i, j| if vals.is_empty() { 0.0 } else { vals[(i * c + j) % vals.len()] },
        )
    };
    let num = |i: usize| nums.get(i).copied().unwrap_or(7 * i as u64 + 1);
    match variant {
        0 => Msg::Hello {
            proto_version: num(0) as u32,
            shard: num(1) as u32,
            band_start: num(2),
            band_len: num(3),
            y_rows: num(4),
            d: num(5) as u32,
            epoch: num(6),
            fresh: tag.is_multiple_of(2),
            backend: format!("backend-{}", num(7)),
        },
        1 => Msg::Embed {
            epoch: num(0),
            quality: match tag % 3 {
                0 => Quality::Exact,
                1 => Quality::TopKNeighbors(num(1) as u32 as usize),
                _ => Quality::CachedOnly,
            },
            deadline_us: tag.is_multiple_of(2).then(|| num(2)),
            nodes: nums.to_vec(),
        },
        2 => Msg::EmbedOk { rows: dense(r, c) },
        3 => Msg::PartErr {
            err: match tag % 4 {
                0 => WireError::Expired,
                1 => WireError::Panicked,
                2 => WireError::EpochUnavailable,
                _ => WireError::Other(format!("detail {}", num(0))),
            },
        },
        4 => Msg::Score {
            epoch: num(0),
            pairs: nums.iter().map(|&u| (u, u.wrapping_mul(3))).collect(),
        },
        5 => Msg::ScoreOk { scores: Dense::from_rows(vals.len(), 1, vals).expect("n x 1") },
        6 => Msg::Epoch(match tag % 2 {
            0 => EpochRecord::Delta {
                epoch: num(0),
                rows: nums.iter().map(|&u| u as usize).collect(),
                x_rows: dense(nums.len(), c),
                y_rows: dense(nums.len(), c),
            },
            _ => EpochRecord::Snapshot {
                epoch: num(0),
                x_start: num(1) as usize,
                x: dense(r, c).into(),
                y: dense(c, r).into(),
            },
        }),
        _ => Msg::EpochAck { epoch: num(0) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `decode(kind, encode(msg)) == msg` for every message kind, the
    /// re-encoding is byte-identical (the codec is canonical), every
    /// strict prefix fails typed, and trailing junk is rejected.
    #[test]
    fn codec_round_trips_and_rejects_mutations(
        variant in 0usize..8,
        nums in proptest::collection::vec(0u64..1_000_000, 0..10),
        vals in proptest::collection::vec(-1.0e5f32..1.0e5, 1..40),
        dims in (0usize..5, 0usize..5),
        tag in 0usize..12,
    ) {
        let msg = build_msg(variant, &nums, &vals, dims, tag);
        let payload = msg.encode();
        let back = decode(msg.kind(), &payload);
        prop_assert_eq!(back.as_ref(), Ok(&msg), "decode inverts encode");
        prop_assert_eq!(back.expect("decoded").encode(), payload.clone(), "canonical re-encoding");

        // Every strict prefix must fail with a typed error (the frame
        // layer guarantees whole payloads; the codec must still never
        // accept a truncation).
        for cut in 0..payload.len() {
            prop_assert!(
                decode(msg.kind(), &payload[..cut]).is_err(),
                "prefix of {} bytes (of {}) decoded for kind {}", cut, payload.len(), msg.kind()
            );
        }
        let mut padded = payload;
        padded.push(0);
        prop_assert_eq!(decode(msg.kind(), &padded), Err(DecodeError::Trailing));
    }

    /// The streaming entry points are the same codec: `encoded_len`
    /// is the payload's length, `decode_from` over a reader that hands
    /// out one byte per `read` is `decode` over the slice (prefixes
    /// included), and `write_msg` puts `write_frame`'s bytes.
    #[test]
    fn streaming_codec_agrees_with_the_buffered_one(
        variant in 0usize..8,
        nums in proptest::collection::vec(0u64..1_000_000, 0..10),
        vals in proptest::collection::vec(-1.0e5f32..1.0e5, 1..40),
        dims in (0usize..5, 0usize..5),
        tag in 0usize..12,
        request_id in 0u64..u64::MAX,
    ) {
        let msg = build_msg(variant, &nums, &vals, dims, tag);
        let payload = msg.encode();
        prop_assert_eq!(msg.encoded_len(), payload.len());
        for len in [payload.len(), payload.len() / 2, payload.len().saturating_sub(1)] {
            let streamed = decode_from(msg.kind(), &mut OneByte(&payload[..len]), len);
            prop_assert_eq!(streamed.expect("a slice cannot fail"), decode(msg.kind(), &payload[..len]));
        }
        let mut framed = Vec::new();
        let frame = Frame { request_id, kind: msg.kind(), payload };
        write_frame(&mut framed, &frame).expect("vec write");
        let mut streamed = Vec::new();
        prop_assert_eq!(write_msg(&mut streamed, request_id, &msg).expect("vec write"), framed.len());
        prop_assert_eq!(&streamed, &framed);
        let back = read_msg(&mut OneByte(&framed)).expect("one frame");
        prop_assert_eq!((back.request_id, back.wire_len), (request_id, framed.len()));
        prop_assert_eq!(back.msg, Ok(msg));
    }

    /// Arbitrary bytes under an arbitrary kind either decode (and then
    /// re-encode canonically) or fail typed — never panic, including
    /// on garbage element counts, which must not size an allocation.
    #[test]
    fn codec_is_total_on_garbage(
        kind in 0usize..256,
        bytes in proptest::collection::vec(0usize..256, 0..64),
        huge_count in 0u64..u64::MAX,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        if let Ok(msg) = decode(kind as u8, &bytes) {
            prop_assert_eq!(msg.encode(), bytes.clone(), "accepted garbage must be canonical");
        }
        // A count field promising more elements than the payload holds
        // is rejected before any Vec is sized.
        let mut evil = huge_count.to_le_bytes().to_vec();
        evil.extend_from_slice(&bytes);
        let _ = decode(6, &evil); // KIND_SCORE_OK: leading count
        let mut evil_score = 0u64.to_le_bytes().to_vec();
        evil_score.extend_from_slice(&huge_count.to_le_bytes());
        prop_assert!(matches!(
            decode(5, &evil_score), // KIND_SCORE: epoch then pair count
            Err(DecodeError::BadCount(_)) | Err(DecodeError::Eof) | Ok(_)
        ));
    }

    /// The framing layer is total on arbitrary streams: truncated,
    /// oversized, or garbage input yields a frame or a typed error.
    #[test]
    fn framing_is_total_on_garbage_streams(
        bytes in proptest::collection::vec(0usize..256, 0..96),
        request_id in 0u64..u64::MAX,
        kind in 0usize..256,
        payload in proptest::collection::vec(0usize..256, 0..48),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        match read_frame(&mut Cursor::new(&bytes)) {
            Ok(_) | Err(FrameError::Io(_)) | Err(FrameError::Closed) | Err(FrameError::BadLength(_)) => {}
        }

        // And a well-formed frame round-trips bit-exactly.
        let frame = Frame {
            request_id,
            kind: kind as u8,
            payload: payload.into_iter().map(|b| b as u8).collect(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("vec write");
        let back = read_frame(&mut Cursor::new(&wire)).expect("round trip");
        prop_assert_eq!(back.request_id, frame.request_id);
        prop_assert_eq!(back.kind, frame.kind);
        prop_assert_eq!(back.payload, frame.payload);
    }
}

// ---------------------------------------------------------------------
// Loopback bit-identity: RemoteShardedEngine over real unix sockets
// versus the in-process ShardedEngine.
// ---------------------------------------------------------------------

/// Host one shard's band behind a fresh replica (boot features are
/// zeros — the coordinator must seed it from a log snapshot) on a unix
/// socket.
fn boot_worker(
    a: &Csr,
    shard: usize,
    nshards: usize,
    d: usize,
    path: &std::path::Path,
) -> fusedmm::rpc::WorkerServer {
    let band = Partition::part1d(a, nshards, PartitionStrategy::NnzBalanced).rows(shard);
    let engine = WorkerEngine::new(
        a,
        band,
        shard,
        Dense::zeros(a.nrows(), d),
        Dense::zeros(a.ncols(), d),
        OpSet::sigmoid_embedding(None),
        EngineConfig::default(),
    );
    fusedmm::rpc::WorkerServer::serve_unix(Arc::new(engine), path).expect("bind worker socket")
}

/// Embed with a retry budget: requests racing a worker reconnect fail
/// typed; the caller's contract is retry-or-degrade, never corruption.
fn embed_eventually(remote: &RemoteShardedEngine, nodes: &[usize]) -> Dense {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match remote.embed(nodes) {
            Ok(rows) => return rows,
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
                let _ = e;
            }
            Err(e) => panic!("embed never recovered: {e}"),
        }
    }
}

/// `connect` returns once every session is open, not merely once every
/// `Hello` is read: a front end built right after it gets its first
/// answer without a retry. (A manager marks its session connected a few
/// microseconds after it publishes the layout; a part dispatched in
/// between would fail as if the worker were down.)
#[test]
fn first_embed_after_connect_never_races_the_session() {
    let (n, d, nshards) = (48, 4, 2);
    let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(5));
    let x = random_features(n, d, 0.5, 1);
    let y = random_features(n, d, 0.5, 2);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths: Vec<std::path::PathBuf> =
        (0..nshards).map(|s| dir.join(format!("fusedmm-rpc-race-{pid}-{s}.sock"))).collect();
    // The workers outlive every coordinator: each round is a new
    // connection to a replica that already holds epoch 0.
    let servers: Vec<_> = (0..nshards).map(|s| boot_worker(&a, s, nshards, d, &paths[s])).collect();
    for round in 0..200 {
        let transport =
            RpcTransport::connect(RpcConfig::new(paths.clone())).expect("connect loopback workers");
        let remote =
            RemoteShardedEngine::new(x.clone(), y.clone(), transport, EngineConfig::default());
        // One node per band, no retry.
        if let Err(e) = remote.embed(&[0, n - 1]) {
            panic!("round {round}: first embed after connect failed: {e}");
        }
    }
    drop(servers);
}

/// A fake worker on a fresh socket: every connection it accepts gets
/// `hello(i)` (`i` counts the connections, from 0) and is then handed to
/// `keep`, which holds it open or drops it. Stop it with [`FakeWorker::stop`].
struct FakeWorker {
    path: std::path::PathBuf,
    answered: Arc<std::sync::atomic::AtomicUsize>,
    done: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FakeWorker {
    fn start(tag: &str, hello: impl Fn(usize) -> Msg + Send + 'static, keep: bool) -> FakeWorker {
        use std::os::unix::net::UnixListener;
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let path =
            std::env::temp_dir().join(format!("fusedmm-rpc-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let answered = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let thread = {
            let (answered, done) = (Arc::clone(&answered), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for stream in listener.incoming() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let _ = write_msg(&mut stream, 0, &hello(answered.load(Ordering::Acquire)));
                    answered.fetch_add(1, Ordering::AcqRel);
                    if keep {
                        held.push(stream);
                    }
                }
            })
        };
        FakeWorker { path, answered, done, thread: Some(thread) }
    }

    fn answered(&self) -> usize {
        self.answered.load(std::sync::atomic::Ordering::Acquire)
    }

    fn stop(&mut self) {
        self.done.store(true, std::sync::atomic::Ordering::Release);
        let _ = std::os::unix::net::UnixStream::connect(&self.path);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("fake worker thread");
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A revision-`version` `Hello` from worker 0 holding rows `0..n` of `X`.
fn hello(version: u32, n: usize, y_rows: usize, d: usize) -> Msg {
    Msg::Hello {
        proto_version: version,
        shard: 0,
        band_start: 0,
        band_len: n as u64,
        y_rows: y_rows as u64,
        d: d as u32,
        epoch: 0,
        fresh: true,
        backend: fusedmm::kernel::active_backend().label().to_string(),
    }
}

/// A worker speaking an older protocol revision is refused at the
/// handshake: `connect` never opens a session with it.
#[test]
fn a_revision_1_worker_is_refused_at_the_handshake() {
    assert_eq!(PROTO_VERSION, 3);
    let mut stale = FakeWorker::start("rev1", |_| hello(1, 8, 8, 4), false);
    let mut config = RpcConfig::new(vec![stale.path.clone()]);
    config.connect_timeout = Duration::from_millis(300);
    match RpcTransport::connect(config) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut, "{e}"),
        Ok(_) => panic!("a revision-1 worker opened a session"),
    }
    stale.stop();
}

/// A worker that comes back with another height of `Y` is refused at
/// the handshake like any other change of shape: it could not apply
/// the catch-up snapshot, so a session with it would flap forever.
#[test]
fn a_worker_back_with_another_y_height_is_refused_at_the_handshake() {
    // The first contact reports 8 rows of `Y`, every later one 9; each
    // connection is dropped right after its `Hello`.
    let mut fake = FakeWorker::start(
        "y-rows",
        |i| hello(PROTO_VERSION, 8, if i == 0 { 8 } else { 9 }, 4),
        false,
    );
    let mut config = RpcConfig::new(vec![fake.path.clone()]);
    config.reconnect_backoff = Duration::from_millis(5);
    let transport = RpcTransport::connect(config).expect("the first contact opens a session");
    let deadline = Instant::now() + Duration::from_secs(30);
    while fake.answered() < 3 {
        assert!(Instant::now() < deadline, "the coordinator stopped reconnecting");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(transport.reconnects(0), 0, "a worker with another Y height opened a session");
    drop(transport);
    fake.stop();
}

/// A worker that completes its handshake and then never reads cannot
/// hang the coordinator: a write that makes no progress for
/// `connect_timeout` ends the session like any other failure, so the
/// seeding `ship` returns, and a part sent afterwards fails typed
/// instead of waiting behind the stuck frame.
#[test]
fn a_worker_that_stops_reading_cannot_hang_the_coordinator() {
    // X and Y of 4096 x 128: a 4 MiB seeding frame, far past what the
    // socket buffers hold.
    let (n, d) = (4096, 128);
    let mut fake = FakeWorker::start("deaf", move |_| hello(PROTO_VERSION, n, n, d), true);
    let mut config = RpcConfig::new(vec![fake.path.clone()]);
    config.connect_timeout = Duration::from_millis(500);
    let transport = RpcTransport::connect(config).expect("the handshake completes");
    let t0 = Instant::now();
    let remote = RemoteShardedEngine::new(
        Dense::zeros(n, d),
        Dense::zeros(n, d),
        transport,
        EngineConfig::default(),
    );
    let built = t0.elapsed();
    assert!(built < Duration::from_secs(5), "seeding a deaf worker took {built:?}");
    let mut ticket = remote.embed_begin(&[0]).expect("admitted");
    match ticket.wait_deadline(Instant::now() + Duration::from_secs(5)) {
        Some(Err(ServeError::PartFailed { .. })) => {}
        Some(Err(e)) => panic!("a part on a deaf worker failed with {e}, not PartFailed"),
        Some(Ok(_)) => panic!("a deaf worker answered"),
        None => panic!("a part on a deaf worker was still pending after 5 s"),
    }
    drop(remote);
    fake.stop();
}

/// A worker that takes a score part and never answers cannot hold the
/// caller: the reply is awaited for `connect_timeout`, then the call
/// fails `PartFailed` for that worker's shard.
#[test]
fn a_score_a_worker_never_answers_fails_after_the_connect_timeout() {
    // Small enough that every frame fits the socket's buffers: no write
    // stalls, the session stays open, and only the reply is missing.
    let (n, d) = (8, 4);
    let mut fake = FakeWorker::start("mute", move |_| hello(PROTO_VERSION, n, n, d), true);
    let mut config = RpcConfig::new(vec![fake.path.clone()]);
    config.connect_timeout = Duration::from_millis(300);
    let transport = RpcTransport::connect(config).expect("the handshake completes");
    let (x, y) = (Dense::zeros(n, d), Dense::zeros(n, d));
    let remote = RemoteShardedEngine::new(x, y, transport, EngineConfig::default());
    let t0 = Instant::now();
    match remote.score_edges(&[(0, 1), (n - 1, 2)]) {
        Err(ServeError::PartFailed { shard: Some(0) }) => {}
        other => panic!("a score nobody answers returned {other:?}, not PartFailed on shard 0"),
    }
    let waited = t0.elapsed();
    assert!(waited >= Duration::from_millis(300), "failed after {waited:?}, before the bound");
    assert!(waited < Duration::from_secs(5), "a score nobody answers took {waited:?}");
    drop(remote);
    fake.stop();
}

#[test]
fn remote_engine_is_bit_identical_over_sockets_and_survives_worker_restart() {
    let (n, d, nshards) = (150, 8, 2);
    let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(9));
    let x = random_features(n, d, 0.5, 1);
    let y = random_features(n, d, 0.5, 2);
    let ops = OpSet::sigmoid_embedding(None);

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths: Vec<std::path::PathBuf> =
        (0..nshards).map(|s| dir.join(format!("fusedmm-rpc-test-{pid}-{s}.sock"))).collect();
    let mut servers: Vec<_> =
        (0..nshards).map(|s| boot_worker(&a, s, nshards, d, &paths[s])).collect();

    let transport =
        RpcTransport::connect(RpcConfig::new(paths.clone())).expect("connect loopback workers");
    let remote =
        RemoteShardedEngine::new(x.clone(), y.clone(), transport.clone(), EngineConfig::default());
    let local = ShardedEngine::new(a.clone(), x, y, ops, nshards, EngineConfig::default());
    assert_eq!(remote.boundaries(), local.boundaries());

    let windows: Vec<Vec<usize>> =
        vec![vec![0, n - 1, n / 2, 0], (0..n).step_by(5).collect(), (0..n).collect()];
    let check = |tag: &str| {
        for w in &windows {
            assert_eq!(
                embed_eventually(&remote, w),
                local.embed(w).expect("local embed"),
                "remote and in-process rows diverge: {tag}"
            );
        }
    };
    // A history for the fresh replica below to catch up on.
    let rows = vec![0, n / 2, n - 1];
    let px = Dense::from_fn(rows.len(), d, |r, k| (r * 5 + k) as f32 * 0.017);
    let py = Dense::from_fn(rows.len(), d, |r, k| (r + k * 2) as f32 * 0.011);
    assert_eq!(remote.delta_update(&rows, &px, &py), 1);
    assert_eq!(local.store().delta_update(&rows, &px, &py), 1);
    let x2 = Dense::from_fn(n, d, |r, k| ((r * 3 + k) as f32 * 0.02).sin());
    let y2 = Dense::from_fn(n, d, |r, k| ((r + 2 * k) as f32 * 0.04).cos());
    assert_eq!(remote.publish(x2.clone(), y2.clone()), 2);
    assert_eq!(local.store().publish(x2, y2), 2);

    // Kill worker 0's process stand-in, ship an epoch it cannot see,
    // then boot a *fresh* replica on the same socket: the replicated
    // log must carry it to identity via snapshot + catch-up.
    let reconnects_before = transport.reconnects(0);
    servers[0].stop();
    assert_eq!(remote.delta_update(&rows, &py, &px), 3);
    assert_eq!(local.store().delta_update(&rows, &py, &px), 3);
    servers[0] = boot_worker(&a, 0, nshards, d, &paths[0]);

    let deadline = Instant::now() + Duration::from_secs(30);
    while transport.reconnects(0) == reconnects_before {
        assert!(Instant::now() < deadline, "worker 0 never reconnected");
        std::thread::sleep(Duration::from_millis(20));
    }
    check("epoch 3 (after kill + fresh replica + log catch-up)");
    assert!(transport.reconnects(0) > reconnects_before, "reconnect counter advanced");

    // Scores cross the same transport, same bit-identity bar.
    let pairs: Vec<(usize, usize)> = (0..n).step_by(4).map(|u| (u, (u * 7 + 1) % n)).collect();
    assert_eq!(
        remote.score_edges(&pairs).expect("remote scores"),
        local.score_edges(&pairs).expect("local scores"),
    );

    // Every ticket resolved; the ledger reconciles exactly.
    let m = remote.metrics();
    let outcomes = ["harvested", "degraded", "shed", "failed", "abandoned"];
    let resolved: u64 =
        outcomes.iter().map(|o| m.sum(&format!("fusedmm_requests_{o}_total"))).sum();
    let begun = m.counter("fusedmm_requests_begun_total", &[]).expect("ledger sample");
    assert_eq!(begun, resolved, "remote front-end ledger reconciles: {}", m.to_prometheus());
    assert_eq!(m.gauge_value("fusedmm_feature_epoch", &[]), Some(3.0));

    drop(remote);
    drop(servers);
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}
