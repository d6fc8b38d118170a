//! `fusedmm-rpc` — multi-process shard serving for FusedMM.
//!
//! [`ShardedEngine`](fusedmm_serve::ShardedEngine) runs its PART1D
//! band engines in-process; this crate moves them into separate worker
//! processes behind a hand-rolled, length-prefixed binary protocol
//! (unix sockets first; the framing is transport-agnostic and
//! TCP-ready). It follows the communication-optimal regime Bharadwaj,
//! Buluç & Demmel identify for sparse ML kernels: **replicate the
//! dense factor, partition only the sparse shards** — here, the
//! feature matrices replicate to every worker as an ordered epoch log,
//! while each worker owns just its sparse row band.
//!
//! Three layers:
//!
//! * [`frame`] + [`proto`] — the wire: length-prefixed frames with
//!   request ids and typed error frames, and a little-endian codec for
//!   the message schema (`Hello` handshake with shard-band + backend
//!   negotiation, embed/score parts, epoch records). `f32`s cross as
//!   raw bits, so remote responses are bit-identical to in-process. The
//!   codec streams ([`Msg::encode_into`], [`decode_from`], framed by
//!   [`write_msg`] / [`read_msg`]): a feature matrix goes from its own
//!   storage to the socket and from the socket into its destination,
//!   with no payload buffer on either side.
//! * [`worker`] — the worker process side: a serve loop exposing a
//!   [`WorkerEngine`](fusedmm_serve::remote::WorkerEngine) (band
//!   engine + replica feature store + epoch history + per-replica
//!   cache) over a socket, applying the coordinator's epoch log in
//!   stream order.
//! * [`client`] — the coordinator side: [`RpcTransport`] implements
//!   [`ShardTransport`](fusedmm_serve::remote::ShardTransport) for
//!   [`RemoteShardedEngine`](fusedmm_serve::remote::RemoteShardedEngine).
//!   Per worker it keeps one thread, a connection manager that
//!   reconnects, catches the replica up from the epoch log (snapshot
//!   for fresh replicas, log suffix for lagging ones) and reads the
//!   replies; whoever sends a request or ships a record writes its own
//!   frame under the worker's session lock. Failures and timeouts map
//!   onto the typed `PartFailed` / deadline machinery; transport fault
//!   injection (`drop_conn_every` / `delay_frame_us`) and
//!   `fusedmm_rpc_*` telemetry ride along.

#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod log;
pub mod proto;
pub mod worker;

pub use client::{RpcConfig, RpcTransport};
pub use frame::{
    read_frame, read_msg, write_frame, write_msg, write_msg_for, Frame, FrameError, Received,
};
pub use log::EpochLog;
pub use proto::{decode, decode_from, DecodeError, Msg, WireError, PROTO_VERSION};
pub use worker::WorkerServer;
