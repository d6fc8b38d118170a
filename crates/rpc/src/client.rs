//! The coordinator-side transport: [`RpcTransport`] implements
//! [`ShardTransport`] over one framed unix-socket connection per
//! worker, with reconnect-and-catch-up, per-worker telemetry, and
//! transport-level fault injection.
//!
//! Per worker, three moving parts:
//!
//! * a **manager thread** — connects, reads the worker's `Hello`,
//!   computes the epoch-log catch-up slice for the worker's reported
//!   epoch (snapshot + tail for a fresh or far-lagging replica, tail
//!   only otherwise), then becomes the connection's writer, draining
//!   the outgoing frame queue; on any failure it severs the
//!   connection, fails every pending request typed (the front end's
//!   retry machinery takes over), and reconnects with backoff;
//! * a **reader thread** per connection — decodes reply frames and
//!   resolves them against the pending map by request id (replies
//!   complete out of order), records round-trip latencies, and tracks
//!   the worker's epoch acknowledgements for the lag gauge;
//! * the **queue** — one FIFO of outbound messages, framed and
//!   encoded by the writer straight into the socket (a queued epoch
//!   record is a pair of `Arc`s to the generation it ships, not a copy
//!   of it, and the writer sends the worker only its band's rows of
//!   `X`). Epoch records and requests ride the same queue, which *is*
//!   the ordering guarantee: a record shipped before a request is
//!   written before it.
//!
//! Exactly-once log delivery across reconnects: a transport-wide
//! `ship_order` mutex makes `ship` (append to log + enqueue to every
//! connected worker) and reconnect catch-up (snapshot the log +
//! enqueue + mark connected) atomic with respect to each other, so a
//! record is either in a connection's catch-up slice or enqueued live
//! after it — never both, never neither.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fusedmm_core::active_backend;
use fusedmm_perf::hist::LatencyHistogram;
use fusedmm_perf::registry::{MetricsRegistry, Sample};
use fusedmm_serve::remote::{EpochRecord, PartOutcome, PartSlot, ShardTransport};
use fusedmm_serve::{FaultPlan, FeatureEpoch, Quality, ServeError};

use crate::frame::{read_msg, write_msg_for, Received};
use crate::log::EpochLog;
use crate::proto::{Msg, WireError, PROTO_VERSION};

/// How the transport connects and behaves under failure.
pub struct RpcConfig {
    /// One unix-socket path per shard; index order defines shard
    /// numbering and must match each worker's `Hello`.
    pub paths: Vec<PathBuf>,
    /// How long [`RpcTransport::connect`] waits for every worker's
    /// handshake before giving up.
    pub connect_timeout: Duration,
    /// Backoff between reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Transport fault injection (`drop_conn_every` severs the
    /// connection on every n-th request frame, `delay_frame_us` stalls
    /// each frame write); `None` falls back to `FUSEDMM_FAULT_PLAN`.
    pub fault: Option<Arc<FaultPlan>>,
}

impl RpcConfig {
    /// Defaults for a worker set on the given sockets.
    pub fn new(paths: Vec<PathBuf>) -> RpcConfig {
        RpcConfig {
            paths,
            connect_timeout: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(50),
            fault: None,
        }
    }
}

/// What the transport knows about one worker after its handshake.
#[derive(Debug, Clone)]
struct WorkerLayout {
    band_start: u64,
    band_len: u64,
    y_rows: u64,
    d: u32,
}

impl WorkerLayout {
    /// The worker's global row band: the rows of `X` it holds.
    fn band(&self) -> std::ops::Range<usize> {
        self.band_start as usize..(self.band_start + self.band_len) as usize
    }
}

/// One queued outbound message.
struct OutFrame {
    request_id: u64,
    msg: Msg,
    /// Request frames (embed/score) count toward the fault plan's
    /// `drop_conn_every` schedule; epoch records don't (severing the
    /// log stream would only test the catch-up path twice).
    is_request: bool,
}

/// Outbound queue + connection state, under one lock.
struct Queue {
    frames: VecDeque<OutFrame>,
    connected: bool,
}

/// A request awaiting its reply frame.
enum Pending {
    Embed { slot: PartSlot, sent: Instant, rows: usize },
    Score { cell: Arc<ScoreCell>, sent: Instant },
}

/// One-shot synchronous reply cell for a score request.
struct ScoreCell {
    slot: Mutex<Option<Result<Vec<f32>, ServeError>>>,
    cv: Condvar,
}

impl ScoreCell {
    fn resolve(&self, result: Result<Vec<f32>, ServeError>) {
        *self.slot.lock().expect("score cell") = Some(result);
        self.cv.notify_all();
    }
}

#[derive(Default)]
struct WorkerTelemetry {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    reconnects: AtomicU64,
    rtt: LatencyHistogram,
}

struct WorkerState {
    shard: usize,
    path: PathBuf,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Layout from the first successful handshake (validated against
    /// on every reconnect), plus the handshake rendezvous for
    /// `connect`.
    layout: Mutex<Option<WorkerLayout>>,
    layout_cv: Condvar,
    /// Highest epoch the worker acknowledged applying.
    acked: AtomicU64,
    /// Rows of embed work queued or in flight toward this worker.
    queued_rows: AtomicUsize,
    /// True once any session succeeded — the next handshake is a
    /// *re*connect.
    had_session: AtomicBool,
    telemetry: WorkerTelemetry,
}

impl WorkerState {
    /// Fail every pending request typed and drop queued frames. The
    /// front-end retry/`PartFailed` machinery handles the rest.
    fn fail_all(&self) {
        let drained: Vec<Pending> = {
            let mut pending = self.pending.lock().expect("pending map");
            pending.drain().map(|(_, p)| p).collect()
        };
        for p in drained {
            match p {
                Pending::Embed { slot, rows, .. } => {
                    self.queued_rows.fetch_sub(rows, Ordering::Relaxed);
                    slot.resolve(PartOutcome::Failed);
                }
                Pending::Score { cell, .. } => {
                    cell.resolve(Err(ServeError::PartFailed { shard: Some(self.shard) }));
                }
            }
        }
    }

    /// Mark disconnected and wake the writer.
    fn disconnect(&self) {
        let mut q = self.queue.lock().expect("queue");
        q.connected = false;
        q.frames.clear();
        drop(q);
        self.queue_cv.notify_all();
    }
}

/// Framed-socket [`ShardTransport`]: one connection per worker, the
/// replicated [`EpochLog`] behind `ship`, reconnect-with-catch-up, and
/// per-worker `fusedmm_rpc_*` telemetry.
pub struct RpcTransport {
    workers: Vec<Arc<WorkerState>>,
    log: Arc<EpochLog>,
    /// Serializes `ship` against reconnect catch-up (module docs).
    /// Shared with the manager threads.
    ship_order: Arc<Mutex<()>>,
    next_id: AtomicU64,
    /// Request frames written across all workers — the fault plan's
    /// `drop_conn_every` sequence.
    request_seq: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    boundaries: std::sync::OnceLock<Vec<usize>>,
}

impl RpcTransport {
    /// Connect to every worker and wait for all handshakes, assembling
    /// the shard layout (`boundaries`) from the workers' reported
    /// bands. Fails if any worker's handshake doesn't arrive within
    /// `config.connect_timeout` or the reported bands don't tile a
    /// contiguous row space.
    pub fn connect(config: RpcConfig) -> io::Result<Arc<RpcTransport>> {
        assert!(!config.paths.is_empty(), "at least one worker");
        let fault = config.fault.clone().or_else(FaultPlan::from_env);
        let stop = Arc::new(AtomicBool::new(false));
        let request_seq = Arc::new(AtomicU64::new(0));
        let log = Arc::new(EpochLog::new());
        let ship_order = Arc::new(Mutex::new(()));
        let workers: Vec<Arc<WorkerState>> = config
            .paths
            .iter()
            .enumerate()
            .map(|(shard, path)| {
                Arc::new(WorkerState {
                    shard,
                    path: path.clone(),
                    queue: Mutex::new(Queue { frames: VecDeque::new(), connected: false }),
                    queue_cv: Condvar::new(),
                    pending: Mutex::new(HashMap::new()),
                    layout: Mutex::new(None),
                    layout_cv: Condvar::new(),
                    acked: AtomicU64::new(0),
                    queued_rows: AtomicUsize::new(0),
                    had_session: AtomicBool::new(false),
                    telemetry: WorkerTelemetry::default(),
                })
            })
            .collect();
        let transport = Arc::new(RpcTransport {
            workers,
            log,
            ship_order,
            next_id: AtomicU64::new(1),
            request_seq,
            stop,
            boundaries: std::sync::OnceLock::new(),
        });
        for state in &transport.workers {
            let state = Arc::clone(state);
            let log = Arc::clone(&transport.log);
            let stop = Arc::clone(&transport.stop);
            let seq = Arc::clone(&transport.request_seq);
            let fault = fault.clone();
            let backoff = config.reconnect_backoff;
            let ship_order = Arc::clone(&transport.ship_order);
            std::thread::spawn(move || {
                manage_worker(state, log, stop, seq, fault, backoff, ship_order)
            });
        }
        // Wait for every handshake, then freeze the layout.
        let deadline = Instant::now() + config.connect_timeout;
        let timed_out = |shard: usize, what: &str| {
            transport.shutdown();
            io::Error::new(io::ErrorKind::TimedOut, format!("worker {shard} {what} timed out"))
        };
        let mut layouts = Vec::with_capacity(transport.workers.len());
        for state in &transport.workers {
            let mut slot = state.layout.lock().expect("layout");
            while slot.is_none() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(timed_out(state.shard, "handshake"));
                }
                let (s, _) = state.layout_cv.wait_timeout(slot, left).expect("layout wait");
                slot = s;
            }
            layouts.push(slot.clone().expect("present"));
        }
        let mut boundaries = vec![layouts[0].band_start as usize];
        for (s, l) in layouts.iter().enumerate() {
            if l.band_start as usize != *boundaries.last().expect("nonempty") {
                transport.shutdown();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("worker {s} band does not abut its predecessor"),
                ));
            }
            boundaries.push((l.band_start + l.band_len) as usize);
            if l.d != layouts[0].d || l.y_rows != layouts[0].y_rows {
                transport.shutdown();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("worker {s} disagrees on dimensions"),
                ));
            }
        }
        transport.boundaries.set(boundaries).expect("boundaries set once, here");
        // A manager publishes the layout when it has read the `Hello`
        // and opens the session (catch-up queued, `connected` set) a
        // little later; a part dispatched in between would fail fast as
        // if the worker were down. Return only once every session is
        // open.
        for state in &transport.workers {
            let mut q = state.queue.lock().expect("queue");
            while !q.connected {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    drop(q);
                    return Err(timed_out(state.shard, "session"));
                }
                let (guard, _) = state.queue_cv.wait_timeout(q, left).expect("queue wait");
                q = guard;
            }
        }
        Ok(transport)
    }

    /// The replicated epoch log (tests inspect catch-up slices).
    pub fn log(&self) -> &Arc<EpochLog> {
        &self.log
    }

    /// Register per-worker transport telemetry: bytes and frames in
    /// and out, round-trip latency, reconnects, and the epoch-log lag
    /// gauge (latest shipped epoch minus the worker's last applied
    /// acknowledgement), all labeled `worker="<shard>"`.
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        let transport = Arc::clone(self);
        registry.register(move |out| {
            for state in &transport.workers {
                let worker = state.shard.to_string();
                let l = |s: Sample| s.label("worker", worker.clone());
                let t = &state.telemetry;
                out.push(l(Sample::counter(
                    "fusedmm_rpc_bytes_sent_total",
                    t.bytes_sent.load(Ordering::Relaxed),
                )));
                out.push(l(Sample::counter(
                    "fusedmm_rpc_bytes_received_total",
                    t.bytes_received.load(Ordering::Relaxed),
                )));
                out.push(l(Sample::counter(
                    "fusedmm_rpc_frames_sent_total",
                    t.frames_sent.load(Ordering::Relaxed),
                )));
                out.push(l(Sample::counter(
                    "fusedmm_rpc_frames_received_total",
                    t.frames_received.load(Ordering::Relaxed),
                )));
                out.push(l(Sample::counter(
                    "fusedmm_rpc_reconnects_total",
                    t.reconnects.load(Ordering::Relaxed),
                )));
                out.push(l(Sample::histogram("fusedmm_rpc_roundtrip_seconds", t.rtt.snapshot())));
                let latest = transport.log.latest().unwrap_or(0);
                let lag = latest.saturating_sub(state.acked.load(Ordering::Relaxed));
                out.push(l(Sample::gauge("fusedmm_rpc_epoch_lag", lag as f64)));
            }
        });
    }

    /// Reconnect count for one worker (smoke tests assert liveness).
    pub fn reconnects(&self, shard: usize) -> u64 {
        self.workers[shard].telemetry.reconnects.load(Ordering::Relaxed)
    }
}

impl ShardTransport for RpcTransport {
    fn nshards(&self) -> usize {
        self.workers.len()
    }

    fn boundaries(&self) -> Vec<usize> {
        self.boundaries.get().expect("set by connect").clone()
    }

    fn embed_part(
        &self,
        shard: usize,
        nodes: &[usize],
        epoch: &Arc<FeatureEpoch>,
        quality: Quality,
        deadline: Option<Instant>,
        slot: PartSlot,
    ) {
        let msg = Msg::Embed {
            epoch: epoch.epoch(),
            quality,
            deadline_us: deadline
                .map(|d| d.saturating_duration_since(Instant::now()).as_micros() as u64),
            nodes: nodes.iter().map(|&n| n as u64).collect(),
        };
        let state = &self.workers[shard];
        // Insert into pending *under the queue lock* so a concurrent
        // disconnect either sees the entry (and fails it) or the
        // enqueue sees the disconnect (and fails fast) — never a
        // queued frame without a pending entry.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut q = state.queue.lock().expect("queue");
        if !q.connected {
            drop(q);
            slot.resolve(PartOutcome::Failed);
            return;
        }
        state
            .pending
            .lock()
            .expect("pending map")
            .insert(id, Pending::Embed { slot, sent: Instant::now(), rows: nodes.len() });
        state.queued_rows.fetch_add(nodes.len(), Ordering::Relaxed);
        q.frames.push_back(OutFrame { request_id: id, msg, is_request: true });
        drop(q);
        state.queue_cv.notify_all();
    }

    fn score_part(
        &self,
        shard: usize,
        pairs: &[(usize, usize)],
        epoch: &Arc<FeatureEpoch>,
    ) -> Result<Vec<f32>, ServeError> {
        let pairs = pairs.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
        let msg = Msg::Score { epoch: epoch.epoch(), pairs };
        let state = &self.workers[shard];
        let cell = Arc::new(ScoreCell { slot: Mutex::new(None), cv: Condvar::new() });
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = state.queue.lock().expect("queue");
            if !q.connected {
                return Err(ServeError::PartFailed { shard: Some(shard) });
            }
            state
                .pending
                .lock()
                .expect("pending map")
                .insert(id, Pending::Score { cell: Arc::clone(&cell), sent: Instant::now() });
            q.frames.push_back(OutFrame { request_id: id, msg, is_request: true });
        }
        state.queue_cv.notify_all();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut slot = cell.slot.lock().expect("score cell");
        while slot.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Give up typed; a late reply resolves a cell nobody
                // reads, which is harmless.
                state.pending.lock().expect("pending map").remove(&id);
                return Err(ServeError::PartFailed { shard: Some(shard) });
            }
            let (s, _) = cell.cv.wait_timeout(slot, left).expect("score wait");
            slot = s;
        }
        slot.take().expect("resolved")
    }

    fn ship(&self, record: &EpochRecord) {
        let _order = self.ship_order.lock().expect("ship order");
        self.log.ship(record);
        for state in &self.workers {
            let mut q = state.queue.lock().expect("queue");
            // Disconnected workers get the record via catch-up.
            if q.connected {
                let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let msg = Msg::Epoch(record.clone());
                q.frames.push_back(OutFrame { request_id, msg, is_request: false });
                drop(q);
                state.queue_cv.notify_all();
            }
        }
    }

    fn queued_rows(&self, shard: usize) -> usize {
        self.workers[shard].queued_rows.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for state in &self.workers {
            state.disconnect();
            state.fail_all();
        }
    }
}

impl Drop for RpcTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's connection manager: connect → handshake → catch-up →
/// write loop, forever (with backoff) until the transport stops.
fn manage_worker(
    state: Arc<WorkerState>,
    log: Arc<EpochLog>,
    stop: Arc<AtomicBool>,
    request_seq: Arc<AtomicU64>,
    fault: Option<Arc<FaultPlan>>,
    backoff: Duration,
    ship_order: Arc<Mutex<()>>,
) {
    while !stop.load(Ordering::Acquire) {
        let Ok(stream) = UnixStream::connect(&state.path) else {
            std::thread::sleep(backoff);
            continue;
        };
        // Bound the handshake read so a wedged worker doesn't pin the
        // manager forever; the session itself runs untimed.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let Some((worker_epoch, worker_fresh)) = read_hello(&state, &stream) else {
            std::thread::sleep(backoff);
            continue;
        };
        let _ = stream.set_read_timeout(None);
        // Catch-up + mark connected, atomically vs `ship` (module docs).
        {
            let _order = ship_order.lock().expect("ship order");
            let from = if worker_fresh { None } else { Some(worker_epoch) };
            let records = log.catch_up(from);
            let mut q = state.queue.lock().expect("queue");
            q.frames.clear();
            for record in records {
                q.frames.push_back(OutFrame {
                    request_id: 0,
                    msg: Msg::Epoch(record),
                    is_request: false,
                });
            }
            q.connected = true;
        }
        if state.had_session.swap(true, Ordering::AcqRel) {
            state.telemetry.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        state.queue_cv.notify_all();
        let reader = {
            let state = Arc::clone(&state);
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => {
                    state.disconnect();
                    continue;
                }
            };
            std::thread::spawn(move || read_replies(&state, stream))
        };
        write_outgoing(&state, &stream, &stop, &request_seq, fault.as_deref());
        // Session over (either side failed or chaos severed it):
        // tear down, fail pending, loop back to reconnect.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        state.disconnect();
        let _ = reader.join();
        state.fail_all();
    }
    state.disconnect();
    state.fail_all();
}

/// Read and validate the worker's handshake. Returns
/// `(epoch, fresh)` and records the layout on first contact.
fn read_hello(state: &WorkerState, stream: &UnixStream) -> Option<(u64, bool)> {
    let mut r = BufReader::new(stream.try_clone().ok()?);
    let Ok(Msg::Hello {
        proto_version,
        shard,
        band_start,
        band_len,
        y_rows,
        d,
        epoch,
        fresh,
        backend,
    }) = read_msg(&mut r).ok()?.msg
    else {
        return None;
    };
    if proto_version != PROTO_VERSION || shard as usize != state.shard {
        return None;
    }
    let layout = WorkerLayout { band_start, band_len, y_rows, d };
    let mut slot = state.layout.lock().expect("layout");
    if let Some(existing) = slot.as_ref() {
        // A restarted worker must come back with the same shape.
        if existing.band_start != layout.band_start
            || existing.band_len != layout.band_len
            || existing.d != layout.d
        {
            return None;
        }
    } else {
        if backend != active_backend().label() {
            eprintln!(
                "fusedmm-rpc: worker {} serves with backend `{}` (coordinator: `{}`)",
                state.shard,
                backend,
                active_backend().label()
            );
        }
        *slot = Some(layout);
    }
    drop(slot);
    state.layout_cv.notify_all();
    Some((epoch, fresh))
}

/// The connection's writer: drain the queue in FIFO order, applying
/// the fault plan's frame delay and scheduled connection drops. Epoch
/// records go out narrowed to the worker's band of `X`.
fn write_outgoing(
    state: &WorkerState,
    stream: &UnixStream,
    stop: &AtomicBool,
    request_seq: &AtomicU64,
    fault: Option<&FaultPlan>,
) {
    let band = state.layout.lock().expect("layout").as_ref().expect("handshake read").band();
    let Ok(raw) = stream.try_clone() else { return };
    let mut w = BufWriter::new(raw);
    loop {
        let out = {
            let mut q = state.queue.lock().expect("queue");
            loop {
                if !q.connected || stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(out) = q.frames.pop_front() {
                    break out;
                }
                q = state.queue_cv.wait(q).expect("queue wait");
            }
        };
        if let Some(delay) = fault.and_then(FaultPlan::frame_delay) {
            std::thread::sleep(delay);
        }
        if out.is_request {
            let seq = request_seq.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(n) = fault.and_then(FaultPlan::conn_drop_every) {
                if seq.is_multiple_of(n) {
                    // Scheduled chaos: sever instead of sending. The
                    // dropped request fails with the rest of the
                    // session's pending set.
                    return;
                }
            }
        }
        let Ok(len) = write_msg_for(&mut w, out.request_id, &out.msg, &band) else { return };
        if w.flush().is_err() {
            return;
        }
        state.telemetry.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
        state.telemetry.frames_sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// The connection's reader: resolve replies against the pending map.
fn read_replies(state: &WorkerState, stream: UnixStream) {
    let mut r = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    while let Ok(Received { request_id, wire_len, msg }) = read_msg(&mut r) {
        state.telemetry.bytes_received.fetch_add(wire_len as u64, Ordering::Relaxed);
        state.telemetry.frames_received.fetch_add(1, Ordering::Relaxed);
        let Ok(msg) = msg else { break }; // protocol corruption: force a reconnect
        match msg {
            Msg::EpochAck { epoch } => {
                state.acked.fetch_max(epoch, Ordering::Relaxed);
            }
            Msg::EmbedOk { rows } => {
                if let Some(Pending::Embed { slot, sent, rows: expect }) = take(state, request_id) {
                    state.telemetry.rtt.record(sent.elapsed());
                    state.queued_rows.fetch_sub(expect, Ordering::Relaxed);
                    if rows.nrows() == expect {
                        slot.resolve(PartOutcome::Rows(rows));
                    } else {
                        slot.resolve(PartOutcome::Failed);
                    }
                }
            }
            Msg::ScoreOk { scores } => {
                if let Some(Pending::Score { cell, sent }) = take(state, request_id) {
                    state.telemetry.rtt.record(sent.elapsed());
                    cell.resolve(Ok(scores));
                }
            }
            Msg::PartErr { err } => match take(state, request_id) {
                Some(Pending::Embed { slot, sent, rows }) => {
                    state.telemetry.rtt.record(sent.elapsed());
                    state.queued_rows.fetch_sub(rows, Ordering::Relaxed);
                    slot.resolve(match err {
                        WireError::Expired => PartOutcome::Expired,
                        _ => PartOutcome::Failed,
                    });
                }
                Some(Pending::Score { cell, .. }) => {
                    cell.resolve(Err(ServeError::PartFailed { shard: Some(state.shard) }));
                }
                None => {}
            },
            // Workers never originate other kinds mid-session.
            _ => {}
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    state.disconnect();
}

fn take(state: &WorkerState, id: u64) -> Option<Pending> {
    state.pending.lock().expect("pending map").remove(&id)
}
