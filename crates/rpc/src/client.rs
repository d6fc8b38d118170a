//! The coordinator-side transport: [`RpcTransport`] implements
//! [`ShardTransport`] over one framed unix-socket connection per
//! worker, with reconnect-and-catch-up, per-worker telemetry, and
//! transport-level fault injection.
//!
//! Per worker, one lock and one thread:
//!
//! * the **session** — a mutex over the open connection's buffered
//!   writer and the worker's band of `X` (`None` while the worker is
//!   down). A sender writes its own frame under it: `embed_part` and
//!   `score_part` insert their pending entry — the part's slot — then
//!   encode and write their request, and return without waiting;
//!   `ship` writes its epoch record, narrowed to the worker's band,
//!   straight from the record's shared matrices. `ship`
//!   returns only once its record is written to every open session,
//!   which *is* the ordering guarantee: a request sent after a `ship`
//!   follows its record on the stream.
//! * the **manager thread** (`fusedmm-rpc-<shard>`) — connects, reads
//!   the worker's `Hello`, writes the epoch-log catch-up slice for the
//!   worker's reported epoch (snapshot + tail for a fresh or
//!   far-lagging replica, tail only otherwise), opens the session, and
//!   then reads the session's replies: it resolves each part's slot
//!   from the pending map by request id (replies complete out of
//!   order; an embed reply carries rows, a score reply scores), records
//!   round-trip latencies, and tracks the worker's epoch
//!   acknowledgements for the lag gauge.
//!
//! A session ends one way, whatever ends it — a failed write, a
//! `drop_conn_every` sever, a write stalled past
//! [`RpcConfig::connect_timeout`], the worker hanging up, a corrupt
//! reply, or [`shutdown`](ShardTransport::shutdown): the socket is shut
//! first, which unblocks a sender stuck in `write`; the manager's read
//! sees the end; the session becomes `None`; every pending request
//! fails typed (the front end's retry machinery takes over); and the
//! manager reconnects with backoff. Locks nest session → pending, and
//! nothing takes them the other way.
//!
//! A pending entry leaves the map only when its reply arrives or its
//! session ends. The front end waits on a score part's slot for at most
//! [`RpcConfig::connect_timeout`] and then fails the call; the part
//! keeps its entry until the late reply, which resolves a slot nobody
//! reads, or until the session ends.
//!
//! Exactly-once log delivery across reconnects: a transport-wide
//! `ship_order` mutex makes `ship` (append to the log + write to every
//! open session) and reconnect catch-up (read the log's slice + write
//! it + open the session) atomic with respect to each other, so a
//! record is either in a connection's catch-up slice or written live
//! after it — never both, never neither. The worker acknowledges each
//! catch-up record while the manager is still writing; the slice is at
//! most a snapshot plus the log's 64-record tail, so those acks fit the
//! socket's buffers until the manager starts reading.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::Shutdown;
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fusedmm_core::active_backend;
use fusedmm_perf::hist::LatencyHistogram;
use fusedmm_perf::registry::{MetricsRegistry, Sample};
use fusedmm_serve::remote::{EpochRecord, PartOutcome, PartSlot, ShardTransport};
use fusedmm_serve::{FaultPlan, FeatureEpoch, Quality};

use crate::frame::{fits_frame, read_msg, write_msg_for, Received};
use crate::log::EpochLog;
use crate::proto::{Msg, WireError, PROTO_VERSION};

/// How the transport connects and behaves under failure.
pub struct RpcConfig {
    /// One unix-socket path per shard; index order defines shard
    /// numbering and must match each worker's `Hello`.
    pub paths: Vec<PathBuf>,
    /// The bound on any wait for a worker: [`RpcTransport::connect`]'s
    /// wait for every first session, one `Hello` read, a frame write
    /// that makes no progress (the session ends, as if the worker had
    /// hung up), and the front end's wait for a score reply
    /// ([`ShardTransport::score_timeout`]; the call fails
    /// `PartFailed`).
    pub connect_timeout: Duration,
    /// Backoff between reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Transport fault injection (`drop_conn_every` severs the
    /// connection on every n-th request frame, `delay_frame_us` stalls
    /// the thread writing each frame); `None` injects no fault.
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
#[derive(Debug, Clone, PartialEq)]
struct WorkerLayout {
    band_start: u64,
    band_len: u64,
    y_rows: u64,
    d: u32,
}

impl WorkerLayout {
    /// The worker's global row band: the rows of `X` it holds.
    fn band(&self) -> Range<usize> {
        self.band_start as usize..(self.band_start + self.band_len) as usize
    }
}

/// An open connection's sending half.
struct Session {
    w: BufWriter<UnixStream>,
    /// The worker's rows of `X`: epoch records go out narrowed to them.
    band: Range<usize>,
    /// The fault plan's stall before each frame.
    delay: Option<Duration>,
}

impl Session {
    /// Shut the socket: a sender blocked on it returns, and the
    /// manager's read sees the session end (module docs).
    fn sever(&self) {
        let _ = self.w.get_ref().shutdown(Shutdown::Both);
    }

    /// Write and flush one frame. A failed or stalled write severs the
    /// session.
    fn write(&mut self, telemetry: &WorkerTelemetry, request_id: u64, msg: &Msg) -> bool {
        if let Some(delay) = self.delay {
            std::thread::sleep(delay);
        }
        let written = write_msg_for(&mut self.w, request_id, msg, &self.band)
            .and_then(|len| self.w.flush().map(|()| len));
        match written {
            Ok(len) => {
                telemetry.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
                telemetry.frames_sent.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.sever();
                false
            }
        }
    }
}

/// A part awaiting its reply frame.
struct Pending {
    slot: PartSlot,
    sent: Instant,
    /// Rows of embed work the part adds to the backlog (0 for a score
    /// part, which no embed part ever is).
    rows: usize,
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
    session: Mutex<Option<Session>>,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Layout from the first handshake, set once its session is open
    /// (every reconnect is checked against it), plus the rendezvous for
    /// `connect`.
    layout: Mutex<Option<WorkerLayout>>,
    layout_cv: Condvar,
    /// Highest epoch the worker acknowledged applying.
    acked: AtomicU64,
    /// Rows of embed work in flight toward this worker.
    queued_rows: AtomicUsize,
    /// True once any session succeeded — the next handshake is a
    /// *re*connect.
    had_session: AtomicBool,
    telemetry: WorkerTelemetry,
}

impl WorkerState {
    /// Fail every pending request typed.
    fn fail_all(&self) {
        let drained: Vec<Pending> = {
            let mut pending = self.pending.lock().expect("pending map");
            pending.drain().map(|(_, p)| p).collect()
        };
        for p in drained {
            self.resolve(p, PartOutcome::Failed);
        }
    }

    /// Resolve one part, taking it off the backlog. A failure is
    /// typed: the front end's retry/`PartFailed` machinery handles the
    /// rest.
    fn resolve(&self, p: Pending, outcome: PartOutcome) {
        self.queued_rows.fetch_sub(p.rows, Ordering::Relaxed);
        p.slot.resolve(outcome);
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
    /// Request frames sent across all workers — the fault plan's
    /// `drop_conn_every` sequence.
    request_seq: AtomicU64,
    drop_conn_every: Option<u64>,
    /// [`RpcConfig::connect_timeout`].
    timeout: Duration,
    stop: Arc<AtomicBool>,
    boundaries: OnceLock<Vec<usize>>,
}

impl RpcTransport {
    /// Connect to every worker and wait until each has an open
    /// session, assembling the shard layout (`boundaries`) from the
    /// workers' reported bands. Fails if any session isn't open within
    /// `config.connect_timeout` or the reported bands don't tile a
    /// contiguous row space.
    pub fn connect(config: RpcConfig) -> io::Result<Arc<RpcTransport>> {
        assert!(!config.paths.is_empty(), "at least one worker");
        let workers: Vec<Arc<WorkerState>> = config
            .paths
            .iter()
            .enumerate()
            .map(|(shard, path)| {
                Arc::new(WorkerState {
                    shard,
                    path: path.clone(),
                    session: Mutex::new(None),
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
            log: Arc::new(EpochLog::new()),
            ship_order: Arc::new(Mutex::new(())),
            next_id: AtomicU64::new(1),
            request_seq: AtomicU64::new(0),
            drop_conn_every: config.fault.as_deref().and_then(FaultPlan::conn_drop_every),
            timeout: config.connect_timeout,
            stop: Arc::new(AtomicBool::new(false)),
            boundaries: OnceLock::new(),
        });
        for state in &transport.workers {
            let manager = Manager {
                state: Arc::clone(state),
                log: Arc::clone(&transport.log),
                ship_order: Arc::clone(&transport.ship_order),
                stop: Arc::clone(&transport.stop),
                frame_delay: config.fault.as_deref().and_then(FaultPlan::frame_delay),
                backoff: config.reconnect_backoff,
                timeout: config.connect_timeout,
            };
            std::thread::Builder::new()
                .name(format!("fusedmm-rpc-{}", state.shard))
                .spawn(move || manager.run())?;
        }
        // Wait for every first session, then freeze the layout. A
        // manager publishes its worker's layout only once the session
        // is open, so a part dispatched after this returns never finds
        // a worker that is still connecting.
        let refuse = |kind, what: String| {
            transport.shutdown();
            io::Error::new(kind, what)
        };
        let deadline = Instant::now() + config.connect_timeout;
        let mut layouts = Vec::with_capacity(transport.workers.len());
        for state in &transport.workers {
            let mut slot = state.layout.lock().expect("layout");
            while slot.is_none() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    let what = format!("worker {} handshake timed out", state.shard);
                    return Err(refuse(io::ErrorKind::TimedOut, what));
                }
                let (s, _) = state.layout_cv.wait_timeout(slot, left).expect("layout wait");
                slot = s;
            }
            layouts.push(slot.clone().expect("present"));
        }
        let mut boundaries = vec![layouts[0].band_start as usize];
        for (s, l) in layouts.iter().enumerate() {
            if l.band_start as usize != *boundaries.last().expect("nonempty") {
                let what = format!("worker {s} band does not abut its predecessor");
                return Err(refuse(io::ErrorKind::InvalidData, what));
            }
            boundaries.push((l.band_start + l.band_len) as usize);
            if l.d != layouts[0].d || l.y_rows != layouts[0].y_rows {
                let what = format!("worker {s} disagrees on dimensions");
                return Err(refuse(io::ErrorKind::InvalidData, what));
            }
        }
        transport.boundaries.set(boundaries).expect("boundaries set once, here");
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

    /// Send one request frame on `shard`'s open session, registering
    /// the part's `slot` for its reply first (both under the session
    /// lock, so the session's end fails whatever it owes), or fail the
    /// part when the worker has no session. `rows` is the part's
    /// backlog.
    fn request(&self, shard: usize, msg: &Msg, slot: PartSlot, rows: usize) {
        let state = &self.workers[shard];
        let pending = Pending { slot, sent: Instant::now(), rows };
        state.queued_rows.fetch_add(rows, Ordering::Relaxed);
        let mut guard = state.session.lock().expect("session");
        let Some(session) = guard.as_mut() else {
            drop(guard);
            state.resolve(pending, PartOutcome::Failed);
            return;
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        state.pending.lock().expect("pending map").insert(id, pending);
        if let Some(n) = self.drop_conn_every {
            if (self.request_seq.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(n) {
                // Scheduled chaos: sever instead of sending. The request
                // fails with the rest of the session's pending set.
                session.sever();
                return;
            }
        }
        session.write(&state.telemetry, id, msg);
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
        nodes: &Arc<[usize]>,
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
        self.request(shard, &msg, slot, nodes.len());
    }

    fn score_part(
        &self,
        shard: usize,
        pairs: &[(usize, usize)],
        epoch: &Arc<FeatureEpoch>,
        slot: PartSlot,
    ) {
        let pairs = pairs.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
        self.request(shard, &Msg::Score { epoch: epoch.epoch(), pairs }, slot, 0);
    }

    fn score_timeout(&self) -> Option<Duration> {
        Some(self.timeout)
    }

    fn ship(&self, record: &EpochRecord) {
        let msg = Msg::Epoch(record.clone());
        // Before any lock, as `publish` checks shapes: a record some
        // worker's frame cannot hold panics here, not inside a write
        // with the session (and `ship_order`) held.
        if let Some(bounds) = self.boundaries.get() {
            for (s, band) in bounds.windows(2).enumerate() {
                let len = msg.encoded_len_for(Some(&(band[0]..band[1])));
                assert!(
                    fits_frame(len),
                    "epoch {} record for worker {s} is {len} bytes, past MAX_FRAME",
                    record.epoch()
                );
            }
        }
        let _order = self.ship_order.lock().expect("ship order");
        self.log.ship(record);
        for state in &self.workers {
            // A worker without a session gets the record by catch-up.
            if let Some(session) = state.session.lock().expect("session").as_mut() {
                session.write(&state.telemetry, 0, &msg);
            }
        }
    }

    fn queued_rows(&self, shard: usize) -> usize {
        self.workers[shard].queued_rows.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for state in &self.workers {
            // The first step of a session's end; its manager takes the
            // rest and exits.
            if let Some(session) = state.session.lock().expect("session").as_ref() {
                session.sever();
            }
            state.fail_all();
        }
    }
}

impl Drop for RpcTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one worker's manager thread holds.
struct Manager {
    state: Arc<WorkerState>,
    log: Arc<EpochLog>,
    ship_order: Arc<Mutex<()>>,
    stop: Arc<AtomicBool>,
    frame_delay: Option<Duration>,
    backoff: Duration,
    timeout: Duration,
}

impl Manager {
    /// Connect → handshake → catch-up → read replies, then end the
    /// session and start over (after a backoff when connecting
    /// failed), until the transport stops.
    fn run(self) {
        let state = &*self.state;
        while !self.stop.load(Ordering::Acquire) {
            let Some(stream) = self.open() else {
                std::thread::sleep(self.backoff);
                continue;
            };
            read_replies(state, &stream);
            // The one end of a session (module docs).
            let _ = stream.shutdown(Shutdown::Both);
            *state.session.lock().expect("session") = None;
            state.fail_all();
        }
    }

    /// Connect, check the worker's `Hello`, write its catch-up slice
    /// and open the session. Returns the socket to read replies from.
    fn open(&self) -> Option<UnixStream> {
        let state = &*self.state;
        let stream = UnixStream::connect(&state.path).ok()?;
        // Bound the handshake read and every write: a wedged worker
        // cannot pin the manager or a sender. Replies are awaited
        // untimed — a session may idle.
        stream.set_read_timeout(Some(self.timeout)).ok()?;
        stream.set_write_timeout(Some(self.timeout)).ok()?;
        let (layout, epoch, fresh) = read_hello(state, &stream)?;
        stream.set_read_timeout(None).ok()?;
        let mut session = Session {
            w: BufWriter::new(stream.try_clone().ok()?),
            band: layout.band(),
            delay: self.frame_delay,
        };
        {
            let _order = self.ship_order.lock().expect("ship order");
            for record in self.log.catch_up((!fresh).then_some(epoch)) {
                if !session.write(&state.telemetry, 0, &Msg::Epoch(record)) {
                    return None;
                }
            }
            *state.session.lock().expect("session") = Some(session);
        }
        // `shutdown` may have run before the session existed to sever.
        if self.stop.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if state.had_session.swap(true, Ordering::AcqRel) {
            state.telemetry.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        state.layout.lock().expect("layout").get_or_insert(layout);
        state.layout_cv.notify_all();
        Some(stream)
    }
}

/// Read and check the worker's handshake: the right revision and shard,
/// and on a reconnect the layout of the first contact. Returns the
/// layout, the worker's epoch and whether it is fresh.
fn read_hello(state: &WorkerState, stream: &UnixStream) -> Option<(WorkerLayout, u64, bool)> {
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
    }) = read_msg(&mut BufReader::new(stream)).ok()?.msg
    else {
        return None;
    };
    if proto_version != PROTO_VERSION || shard as usize != state.shard {
        return None;
    }
    let layout = WorkerLayout { band_start, band_len, y_rows, d };
    match state.layout.lock().expect("layout").as_ref() {
        // A restarted worker must come back with the same shape.
        Some(first) if *first != layout => return None,
        Some(_) => {}
        None if backend != active_backend().label() => eprintln!(
            "fusedmm-rpc: worker {} serves with backend `{}` (coordinator: `{}`)",
            state.shard,
            backend,
            active_backend().label()
        ),
        None => {}
    }
    Some((layout, epoch, fresh))
}

/// The session's replies, resolved against the pending map until the
/// stream ends or a frame is corrupt.
fn read_replies(state: &WorkerState, stream: &UnixStream) {
    let mut r = BufReader::new(stream);
    while let Ok(Received { request_id, wire_len, msg }) = read_msg(&mut r) {
        state.telemetry.bytes_received.fetch_add(wire_len as u64, Ordering::Relaxed);
        state.telemetry.frames_received.fetch_add(1, Ordering::Relaxed);
        let Ok(msg) = msg else { return }; // protocol corruption: force a reconnect
        match msg {
            Msg::EpochAck { epoch } => {
                state.acked.fetch_max(epoch, Ordering::Relaxed);
            }
            // An embed part is owed one row per node; a score part (no
            // backlog rows) one score per pair, which the front end
            // checks. A reply of the other kind fails the part.
            Msg::EmbedOk { rows } => resolve(state, request_id, |p| {
                if rows.nrows() == p.rows {
                    PartOutcome::Rows(rows)
                } else {
                    PartOutcome::Failed
                }
            }),
            Msg::ScoreOk { scores } => resolve(state, request_id, |p| {
                if p.rows == 0 {
                    PartOutcome::Rows(scores)
                } else {
                    PartOutcome::Failed
                }
            }),
            Msg::PartErr { err } => resolve(state, request_id, |_| match err {
                WireError::Expired => PartOutcome::Expired,
                _ => PartOutcome::Failed,
            }),
            // Workers never originate other kinds mid-session.
            _ => {}
        }
    }
}

/// Resolve part `id` with `outcome(part)`, recording its round trip. A
/// reply whose part is gone (its session ended first) is dropped.
fn resolve(state: &WorkerState, id: u64, outcome: impl FnOnce(&Pending) -> PartOutcome) {
    let Some(p) = state.pending.lock().expect("pending map").remove(&id) else { return };
    state.telemetry.rtt.record(p.sent.elapsed());
    let outcome = outcome(&p);
    state.resolve(p, outcome);
}
