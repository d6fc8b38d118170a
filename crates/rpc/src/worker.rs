//! The worker-process side: a serve loop that exposes one
//! [`WorkerEngine`] over framed unix-socket connections.
//!
//! A worker is passive: it binds a socket, and for each coordinator
//! connection sends a `Hello` (shard, band, dimensions, current epoch,
//! freshness, SIMD backend — the handshake the coordinator validates
//! the shard layout against), then processes frames **sequentially in
//! arrival order**. Sequential processing is the whole ordering story:
//! an epoch record is applied before any request that follows it on
//! the stream, which is exactly the FIFO guarantee per-request epoch
//! pinning needs — no cross-frame locking, no reordering window.
//!
//! Connections are serial, state is durable: when a coordinator drops,
//! the loop returns to `accept` with the replica store, epoch history,
//! and cache intact — a reconnecting coordinator sees the worker's
//! current epoch in the next `Hello` and ships only the missing log
//! suffix. Only a worker *process* restart loses state, which the
//! `fresh` handshake flag reports so the coordinator starts from a
//! snapshot.

use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use fusedmm_core::active_backend;
use fusedmm_serve::remote::{WorkerEngine, WorkerError};
use fusedmm_serve::ServeError;

use crate::frame::{read_msg, write_msg, FrameError};
use crate::proto::{Msg, WireError, PROTO_VERSION};

/// A running worker serve loop and the handle to stop it.
pub struct WorkerServer {
    stop: Arc<AtomicBool>,
    path: PathBuf,
    /// The live connection, if any — so `kill` can sever it without
    /// waiting for the in-flight frame to finish.
    current: Arc<Mutex<Option<UnixStream>>>,
    thread: Option<JoinHandle<()>>,
}

impl WorkerServer {
    /// Bind `path` (replacing any stale socket file) and serve
    /// `engine` on a background thread until [`stop`](Self::stop).
    pub fn serve_unix(
        engine: Arc<WorkerEngine>,
        path: impl AsRef<Path>,
    ) -> io::Result<WorkerServer> {
        let path = path.as_ref().to_path_buf();
        // A previous run's socket file blocks bind; it is dead weight.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let current = Arc::new(Mutex::new(None::<UnixStream>));
        let thread = {
            let stop = Arc::clone(&stop);
            let current = Arc::clone(&current);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let Ok((stream, _)) = listener.accept() else { break };
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    *current.lock().expect("connection slot") = stream.try_clone().ok();
                    let _ = serve_connection(&engine, stream);
                    *current.lock().expect("connection slot") = None;
                }
            })
        };
        Ok(WorkerServer { stop, path, current, thread: Some(thread) })
    }

    /// Sever the live connection (if any) without stopping the loop —
    /// the worker keeps its state and accepts the reconnect. Chaos
    /// tests use this as a worker-side fault.
    pub fn disconnect(&self) {
        if let Some(stream) = self.current.lock().expect("connection slot").as_ref() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Stop the serve loop and join it. The replica state dies with
    /// the engine; a restarted worker reports `fresh` and is re-seeded
    /// from a snapshot. Idempotent: a second call (e.g. `Drop` after an
    /// explicit `stop`) is a no-op — the socket path may since belong
    /// to a replacement server and must not be unlinked again.
    pub fn stop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.stop.store(true, Ordering::Release);
        self.disconnect();
        // Unblock a loop parked in accept. If the listener is already
        // unreachable (socket file removed externally), joining could
        // block forever — detach instead.
        if UnixStream::connect(&self.path).is_ok() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for WorkerServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serve one coordinator connection to completion (EOF or error).
fn serve_connection(engine: &WorkerEngine, stream: UnixStream) -> Result<(), FrameError> {
    let mut r = BufReader::new(stream.try_clone()?);
    let mut w = BufWriter::new(stream);
    let band = engine.band();
    let hello = Msg::Hello {
        proto_version: PROTO_VERSION,
        shard: engine.shard() as u32,
        band_start: band.start as u64,
        band_len: (band.end - band.start) as u64,
        y_rows: engine.y_rows() as u64,
        d: engine.dimension() as u32,
        epoch: engine.current_epoch(),
        fresh: engine.is_fresh(),
        backend: active_backend().label().to_string(),
    };
    send(&mut w, 0, &hello)?;
    loop {
        let received = match read_msg(&mut r) {
            Ok(received) => received,
            Err(FrameError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let reply = match received.msg {
            Ok(msg) => handle(engine, msg),
            // A frame that doesn't decode is a protocol bug, not a
            // compute failure: report it typed and keep serving
            // (`read_msg` has skipped to the next frame).
            Err(e) => Some(Msg::PartErr { err: WireError::Other(e.to_string()) }),
        };
        if let Some(reply) = reply {
            send(&mut w, received.request_id, &reply)?;
        }
    }
}

fn send(w: &mut impl Write, request_id: u64, msg: &Msg) -> Result<(), FrameError> {
    write_msg(w, request_id, msg)?;
    w.flush()?;
    Ok(())
}

fn handle(engine: &WorkerEngine, msg: Msg) -> Option<Msg> {
    match msg {
        Msg::Epoch(record) => {
            let epoch = engine.apply(record);
            Some(Msg::EpochAck { epoch })
        }
        Msg::Embed { epoch, quality, deadline_us, nodes } => {
            let nodes: Vec<usize> = nodes.into_iter().map(|n| n as usize).collect();
            let deadline = Msg::deadline_from_us(deadline_us);
            Some(match engine.embed_part(&nodes, epoch, quality, deadline) {
                Ok(resp) => Msg::EmbedOk { rows: resp.rows },
                Err(e) => Msg::PartErr { err: wire_error(e) },
            })
        }
        Msg::Score { epoch, pairs } => {
            let pairs: Vec<(usize, usize)> =
                pairs.into_iter().map(|(u, v)| (u as usize, v as usize)).collect();
            Some(match engine.score_part(&pairs, epoch) {
                Ok(scores) => Msg::ScoreOk { scores },
                Err(e) => Msg::PartErr { err: wire_error(e) },
            })
        }
        // Replies and handshakes are never requests to a worker.
        _ => Some(Msg::PartErr { err: WireError::Other("unexpected message".into()) }),
    }
}

fn wire_error(e: WorkerError) -> WireError {
    match e {
        WorkerError::EpochUnavailable { .. } => WireError::EpochUnavailable,
        WorkerError::Serve(ServeError::DeadlineExpired) => WireError::Expired,
        // Everything else is retryable through the front end's
        // one-shot healthy-path retry.
        WorkerError::Serve(_) => WireError::Panicked,
    }
}
