//! The message schema over [`frame`](crate::frame): a hand-rolled
//! little-endian codec, no external serializer.
//!
//! Every message encodes to one frame payload tagged by a `KIND_*`
//! byte. `f32` matrices cross the wire as raw little-endian bit
//! patterns, so a row decoded on the other side is **bit-identical**
//! to the row encoded — the multi-process bit-identity guarantee rests
//! on this, not on any decimal round-trip.
//!
//! The codec streams: [`Msg::encode_into`] writes into any `Write` and
//! [`decode_from`] reads from any `Read`, and on a little-endian target
//! a matrix body moves as one `write_all` of the matrix's own bytes and
//! one `read_exact` into the destination matrix (big-endian targets
//! convert element by element). [`Msg::encode`] and [`decode`] are the
//! same two bodies over a `Vec` and a slice.
//!
//! A snapshot epoch record — the one whole-generation record — carries
//! `x_start` and then only the `X` rows its receiver holds: the coordinator's record holds all of
//! `X`, and the encoder, told the receiving worker's band
//! ([`write_msg_for`](crate::frame::write_msg_for)), writes that band's
//! rows as one sub-slice of the shared matrix.
//!
//! Decoding is total: any input produces either a message or a typed
//! [`DecodeError`], never a panic and never an attacker-controlled
//! allocation (element counts are validated against the bytes the frame
//! still owes before anything is sized).

use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm_serve::remote::EpochRecord;
use fusedmm_serve::Quality;
use fusedmm_sparse::dense::{f32_bytes, f32_bytes_mut};
use fusedmm_sparse::Dense;

/// Protocol revision, checked at handshake. Bump on any wire change.
/// Revision 2: whole-generation records carry `x_start` and only the
/// receiver's rows of `X`. Revision 3: a publish ships as a snapshot
/// (record tag 2); tag 0, the separate publish record, is gone.
pub const PROTO_VERSION: u32 = 3;

/// Handshake: worker → coordinator, first frame on every connection.
pub const KIND_HELLO: u8 = 1;
/// One embed part: coordinator → worker.
pub const KIND_EMBED: u8 = 2;
/// Embed reply: the part's rows.
pub const KIND_EMBED_OK: u8 = 3;
/// Typed failure reply to an embed or score request.
pub const KIND_PART_ERR: u8 = 4;
/// One score part: coordinator → worker.
pub const KIND_SCORE: u8 = 5;
/// Score reply: the part's scores.
pub const KIND_SCORE_OK: u8 = 6;
/// One replicated epoch-log record: coordinator → worker.
pub const KIND_EPOCH: u8 = 7;
/// Worker's applied-epoch acknowledgement (drives the lag gauge).
pub const KIND_EPOCH_ACK: u8 = 8;

/// Why a payload failed to decode. Produced, never panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field being read.
    Eof,
    /// The payload has bytes left after a complete message.
    Trailing,
    /// A tag byte (`what` names the field) held an unknown value.
    BadTag(&'static str, u64),
    /// A length field promises more elements than the payload holds.
    BadCount(&'static str),
    /// A string field is not UTF-8.
    BadUtf8,
    /// The frame's kind byte names no known message.
    UnknownKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Eof => write!(f, "payload truncated"),
            DecodeError::Trailing => write!(f, "trailing bytes after message"),
            DecodeError::BadTag(what, tag) => write!(f, "bad {what} tag {tag}"),
            DecodeError::BadCount(what) => write!(f, "{what} count exceeds payload"),
            DecodeError::BadUtf8 => write!(f, "string is not utf-8"),
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
        }
    }
}

/// The typed failure a worker reports for one part — the wire image of
/// the worker-side error taxonomy. The coordinator maps it onto the
/// front end's `PartOutcome`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The piece expired past its deadline.
    Expired,
    /// The band engine failed the piece (panicked launch, shutdown).
    Panicked,
    /// The request pinned an epoch outside the replica's history.
    EpochUnavailable,
    /// Anything else, with a human-readable detail string.
    Other(String),
}

/// One decoded message. `encode` and [`decode`] are exact inverses for
/// every value (see the round-trip proptests in `tests/rpc.rs`).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker self-description, first frame after accept: which shard
    /// it hosts, its band, its dimensions, its current epoch,
    /// whether it holds no features yet (`fresh`), and the
    /// SIMD backend label it serves with.
    Hello {
        /// [`PROTO_VERSION`] of the sender.
        proto_version: u32,
        /// The shard index this worker hosts.
        shard: u32,
        /// First global row of the worker's band.
        band_start: u64,
        /// Rows in the band.
        band_len: u64,
        /// Rows of the global Y column space.
        y_rows: u64,
        /// Embedding dimension.
        d: u32,
        /// The replica's current epoch.
        epoch: u64,
        /// True when the replica has applied no record yet and holds
        /// no features (needs a snapshot regardless of its epoch
        /// number).
        fresh: bool,
        /// SIMD backend label (`active_backend().label()`), reported
        /// so a heterogeneous deployment is visible at connect time.
        backend: String,
    },
    /// One embed part at a pinned epoch.
    Embed {
        /// The epoch the coordinator pinned.
        epoch: u64,
        /// Serving tier for the part.
        quality: Quality,
        /// Deadline as *remaining* microseconds at send time (wall
        /// clocks don't cross process boundaries), `None` = no
        /// deadline.
        deadline_us: Option<u64>,
        /// Global node ids (within the worker's band).
        nodes: Vec<u64>,
    },
    /// Embed reply: one row per requested node, request order.
    EmbedOk {
        /// The computed rows.
        rows: Dense,
    },
    /// Typed failure reply (embed or score).
    PartErr {
        /// What failed.
        err: WireError,
    },
    /// One score part at a pinned epoch.
    Score {
        /// The epoch the coordinator pinned.
        epoch: u64,
        /// `(u, v)` pairs; sources within the worker's band.
        pairs: Vec<(u64, u64)>,
    },
    /// Score reply, request order.
    ScoreOk {
        /// One score per pair, as a `pairs × 1` matrix: the part's
        /// reply as the front end consumes it.
        scores: Dense,
    },
    /// One replicated epoch-log record.
    Epoch(EpochRecord),
    /// The worker applied the log through `epoch`.
    EpochAck {
        /// The replica's epoch after applying.
        epoch: u64,
    },
}

impl Msg {
    /// The frame kind byte for this message.
    pub fn kind(&self) -> u8 {
        match self {
            Msg::Hello { .. } => KIND_HELLO,
            Msg::Embed { .. } => KIND_EMBED,
            Msg::EmbedOk { .. } => KIND_EMBED_OK,
            Msg::PartErr { .. } => KIND_PART_ERR,
            Msg::Score { .. } => KIND_SCORE,
            Msg::ScoreOk { .. } => KIND_SCORE_OK,
            Msg::Epoch(_) => KIND_EPOCH,
            Msg::EpochAck { .. } => KIND_EPOCH_ACK,
        }
    }

    /// Encode to a frame payload (pair with [`Msg::kind`]):
    /// [`encode_into`](Msg::encode_into) a `Vec` of exactly
    /// [`encoded_len`](Msg::encoded_len) bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out).expect("a Vec accepts every write");
        out
    }

    /// The payload's length in bytes, without producing it: the encoder
    /// run into a byte counter, so the two cannot disagree. A matrix
    /// body counts in one step.
    pub fn encoded_len(&self) -> usize {
        self.encoded_len_for(None)
    }

    /// Stream the payload into `w` — the one encoder. A matrix body
    /// goes out as one `write_all` of the matrix's own bytes (on a
    /// little-endian target), so a feature generation is never copied
    /// into a payload buffer on its way to a socket.
    pub fn encode_into(&self, w: &mut impl Write) -> io::Result<()> {
        self.encode_for(w, None)
    }

    /// [`encoded_len`](Msg::encoded_len) of
    /// [`encode_for`](Msg::encode_for).
    pub(crate) fn encoded_len_for(&self, x_rows: Option<&Range<usize>>) -> usize {
        let mut count = ByteCount(0);
        self.encode_for(&mut count, x_rows).expect("a counter accepts every write");
        count.0
    }

    /// The encoder. With `x_rows`, a snapshot epoch record goes
    /// out as the worker holding those global rows of `X` receives it:
    /// `x_start = x_rows.start` and only those rows, read in place from
    /// the record's shared matrix. Every other message ignores it.
    ///
    /// # Panics
    /// Panics when the record's `X` does not cover `x_rows`.
    pub(crate) fn encode_for(
        &self,
        w: &mut impl Write,
        x_rows: Option<&Range<usize>>,
    ) -> io::Result<()> {
        match self {
            Msg::Hello {
                proto_version,
                shard,
                band_start,
                band_len,
                y_rows,
                d,
                epoch,
                fresh,
                backend,
            } => {
                put_u32(w, *proto_version)?;
                put_u32(w, *shard)?;
                put_u64(w, *band_start)?;
                put_u64(w, *band_len)?;
                put_u64(w, *y_rows)?;
                put_u32(w, *d)?;
                put_u64(w, *epoch)?;
                w.write_all(&[u8::from(*fresh)])?;
                put_str(w, backend)
            }
            Msg::Embed { epoch, quality, deadline_us, nodes } => {
                put_u64(w, *epoch)?;
                put_quality(w, *quality)?;
                put_u64(w, deadline_us.map_or(u64::MAX, |us| us.min(u64::MAX - 1)))?;
                put_u64(w, nodes.len() as u64)?;
                nodes.iter().try_for_each(|&n| put_u64(w, n))
            }
            Msg::EmbedOk { rows } => put_dense(w, rows),
            Msg::PartErr { err } => match err {
                WireError::Expired => w.write_all(&[0]),
                WireError::Panicked => w.write_all(&[1]),
                WireError::EpochUnavailable => w.write_all(&[2]),
                WireError::Other(detail) => {
                    w.write_all(&[3])?;
                    put_str(w, detail)
                }
            },
            Msg::Score { epoch, pairs } => {
                put_u64(w, *epoch)?;
                put_u64(w, pairs.len() as u64)?;
                pairs.iter().try_for_each(|&(u, v)| {
                    put_u64(w, u)?;
                    put_u64(w, v)
                })
            }
            Msg::ScoreOk { scores } => {
                put_u64(w, scores.as_slice().len() as u64)?;
                put_f32s(w, scores.as_slice())
            }
            Msg::Epoch(record) => match record {
                EpochRecord::Delta { epoch, rows, x_rows, y_rows } => {
                    w.write_all(&[1])?;
                    put_u64(w, *epoch)?;
                    put_u64(w, rows.len() as u64)?;
                    rows.iter().try_for_each(|&r| put_u64(w, r as u64))?;
                    put_dense(w, x_rows)?;
                    put_dense(w, y_rows)
                }
                EpochRecord::Snapshot { epoch, x_start, x, y } => {
                    w.write_all(&[2])?;
                    put_u64(w, *epoch)?;
                    put_x_rows(w, *x_start, x, x_rows)?;
                    put_dense(w, y)
                }
            },
            Msg::EpochAck { epoch } => put_u64(w, *epoch),
        }
    }

    /// The remote deadline reconstructed locally: `deadline_us`
    /// remaining at send time becomes `now + remaining` at receipt
    /// (transit time eats into the budget on the sender's clock, which
    /// is the conservative direction).
    pub fn deadline_from_us(deadline_us: Option<u64>) -> Option<Instant> {
        deadline_us.map(|us| Instant::now() + Duration::from_micros(us))
    }
}

/// Decode one frame payload of the given kind:
/// [`decode_from`] over the slice.
pub fn decode(kind: u8, payload: &[u8]) -> Result<Msg, DecodeError> {
    // Every read is checked against `payload.len()` first, so the
    // slice cannot run dry: the i/o arm is unreachable, not ignored.
    decode_from(kind, &mut &payload[..], payload.len()).unwrap_or(Err(DecodeError::Eof))
}

/// Decode the `len`-byte payload of a frame of the given kind straight
/// off `r` — the one decoder. A matrix body is read into its freshly
/// allocated (lazily zeroed) destination in one `read_exact` on a
/// little-endian target; nothing is staged in a payload buffer.
///
/// The outer error is the stream's (it ended or failed inside the
/// payload); the inner one is the payload's. On an inner error some
/// prefix of the `len` bytes has been consumed — a framed caller must
/// skip the rest ([`read_msg`](crate::frame::read_msg) does). At most
/// `len` bytes are ever read, and every element count is checked
/// against what is left of `len` before anything is sized.
pub fn decode_from(
    kind: u8,
    r: &mut impl Read,
    len: usize,
) -> io::Result<Result<Msg, DecodeError>> {
    match decode_body(kind, &mut Rd { r, left: len }) {
        Ok(msg) => Ok(Ok(msg)),
        Err(Fail::Decode(e)) => Ok(Err(e)),
        Err(Fail::Io(e)) => Err(e),
    }
}

fn decode_body(kind: u8, rd: &mut Rd<'_, impl Read>) -> Result<Msg, Fail> {
    let msg = match kind {
        KIND_HELLO => Msg::Hello {
            proto_version: rd.u32()?,
            shard: rd.u32()?,
            band_start: rd.u64()?,
            band_len: rd.u64()?,
            y_rows: rd.u64()?,
            d: rd.u32()?,
            epoch: rd.u64()?,
            fresh: match rd.u8()? {
                0 => false,
                1 => true,
                t => return Err(DecodeError::BadTag("fresh", t as u64).into()),
            },
            backend: rd.str()?,
        },
        KIND_EMBED => Msg::Embed {
            epoch: rd.u64()?,
            quality: rd.quality()?,
            deadline_us: match rd.u64()? {
                u64::MAX => None,
                us => Some(us),
            },
            nodes: rd.u64_vec("nodes")?,
        },
        KIND_EMBED_OK => Msg::EmbedOk { rows: rd.dense()? },
        KIND_PART_ERR => Msg::PartErr {
            err: match rd.u8()? {
                0 => WireError::Expired,
                1 => WireError::Panicked,
                2 => WireError::EpochUnavailable,
                3 => WireError::Other(rd.str()?),
                t => return Err(DecodeError::BadTag("part error", t as u64).into()),
            },
        },
        KIND_SCORE => {
            let epoch = rd.u64()?;
            let n = rd.count("pairs", 16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((rd.u64()?, rd.u64()?));
            }
            Msg::Score { epoch, pairs }
        }
        KIND_SCORE_OK => {
            let mut scores = Dense::zeros(rd.count("scores", 4)?, 1);
            rd.f32s(scores.as_mut_slice())?;
            Msg::ScoreOk { scores }
        }
        KIND_EPOCH => Msg::Epoch(match rd.u8()? {
            1 => {
                let epoch = rd.u64()?;
                let rows = rd.u64_vec("delta rows")?.into_iter().map(|r| r as usize).collect();
                EpochRecord::Delta { epoch, rows, x_rows: rd.dense()?, y_rows: rd.dense()? }
            }
            2 => EpochRecord::Snapshot {
                epoch: rd.u64()?,
                x_start: rd.u64()? as usize,
                x: Arc::new(rd.dense()?),
                y: Arc::new(rd.dense()?),
            },
            t => return Err(DecodeError::BadTag("epoch record", t as u64).into()),
        }),
        KIND_EPOCH_ACK => Msg::EpochAck { epoch: rd.u64()? },
        k => return Err(DecodeError::UnknownKind(k).into()),
    };
    if rd.left != 0 {
        return Err(DecodeError::Trailing.into());
    }
    Ok(msg)
}

/// A `Write` that only counts ([`Msg::encoded_len`]).
struct ByteCount(usize);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    put_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn put_quality(w: &mut impl Write, q: Quality) -> io::Result<()> {
    match q {
        Quality::Exact => w.write_all(&[0]),
        Quality::TopKNeighbors(k) => {
            w.write_all(&[1])?;
            put_u32(w, k as u32)
        }
        Quality::CachedOnly => w.write_all(&[2]),
    }
}

/// `f32`s as little-endian bit patterns: on a little-endian target
/// that is the slice's own memory, written in one call.
fn put_f32s(w: &mut impl Write, values: &[f32]) -> io::Result<()> {
    if cfg!(target_endian = "little") {
        w.write_all(f32_bytes(values))
    } else {
        values.iter().try_for_each(|v| w.write_all(&v.to_le_bytes()))
    }
}

fn put_dense(w: &mut impl Write, m: &Dense) -> io::Result<()> {
    put_u32(w, m.nrows() as u32)?;
    put_u32(w, m.ncols() as u32)?;
    put_f32s(w, m.as_slice())
}

/// `x_start`, then a dense `X` of the global rows `rows` (all of `x`'s
/// when `None`) out of `x`, whose row 0 is global row `x_start`: one
/// sub-slice of the row-major matrix, written as `put_dense` writes the
/// matrix holding exactly those rows.
fn put_x_rows(
    w: &mut impl Write,
    x_start: usize,
    x: &Dense,
    rows: Option<&Range<usize>>,
) -> io::Result<()> {
    let Some(rows) = rows else {
        put_u64(w, x_start as u64)?;
        return put_dense(w, x);
    };
    let held = x_start..x_start + x.nrows();
    assert!(
        held.start <= rows.start && rows.end <= held.end,
        "a record holding X rows {held:?} cannot ship rows {rows:?}"
    );
    let d = x.ncols();
    put_u64(w, rows.start as u64)?;
    put_u32(w, rows.len() as u32)?;
    put_u32(w, d as u32)?;
    put_f32s(w, &x.as_slice()[(rows.start - x_start) * d..(rows.end - x_start) * d])
}

/// Why the decoder stopped: the stream's fault or the payload's.
enum Fail {
    Io(io::Error),
    Decode(DecodeError),
}

impl From<io::Error> for Fail {
    fn from(e: io::Error) -> Fail {
        Fail::Io(e)
    }
}

impl From<DecodeError> for Fail {
    fn from(e: DecodeError) -> Fail {
        Fail::Decode(e)
    }
}

/// Little-endian reader over the `left` bytes a frame still owes: no
/// field is read, and nothing is sized, past them.
struct Rd<'a, R> {
    r: &'a mut R,
    left: usize,
}

impl<R: Read> Rd<'_, R> {
    /// Read exactly `buf.len()` of the frame's remaining bytes.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), Fail> {
        self.left = self.left.checked_sub(buf.len()).ok_or(DecodeError::Eof)?;
        self.r.read_exact(buf)?;
        Ok(())
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], Fail> {
        let mut b = [0u8; N];
        self.fill(&mut b)?;
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8, Fail> {
        Ok(self.bytes::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, Fail> {
        Ok(u32::from_le_bytes(self.bytes()?))
    }

    fn u64(&mut self) -> Result<u64, Fail> {
        Ok(u64::from_le_bytes(self.bytes()?))
    }

    /// The inverse of [`put_f32s`], into a destination already sized
    /// from a validated count.
    fn f32s(&mut self, out: &mut [f32]) -> Result<(), Fail> {
        if cfg!(target_endian = "little") {
            return self.fill(f32_bytes_mut(out));
        }
        for v in out {
            *v = f32::from_le_bytes(self.bytes()?);
        }
        Ok(())
    }

    /// An element count, validated against the bytes remaining
    /// (`elem_size` bytes per element) *before* any allocation — a
    /// garbage count must not size a `Vec`.
    fn count(&mut self, what: &'static str, elem_size: usize) -> Result<usize, Fail> {
        let n = self.u64()?;
        if n.checked_mul(elem_size as u64).is_none_or(|bytes| bytes > self.left as u64) {
            return Err(DecodeError::BadCount(what).into());
        }
        Ok(n as usize)
    }

    fn u64_vec(&mut self, what: &'static str) -> Result<Vec<u64>, Fail> {
        let n = self.count(what, 8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    fn str(&mut self) -> Result<String, Fail> {
        let mut bytes = vec![0u8; self.count("string", 1)?];
        self.fill(&mut bytes)?;
        Ok(String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?)
    }

    fn quality(&mut self) -> Result<Quality, Fail> {
        match self.u8()? {
            0 => Ok(Quality::Exact),
            1 => Ok(Quality::TopKNeighbors(self.u32()? as usize)),
            2 => Ok(Quality::CachedOnly),
            t => Err(DecodeError::BadTag("quality", t as u64).into()),
        }
    }

    fn dense(&mut self) -> Result<Dense, Fail> {
        let nrows = self.u32()? as usize;
        let ncols = self.u32()? as usize;
        let fits = nrows.checked_mul(ncols).and_then(|n| n.checked_mul(4));
        if fits.is_none_or(|bytes| bytes > self.left) {
            return Err(DecodeError::BadCount("dense").into());
        }
        // `zeros` is `posix_memalign` + `memset` (a 2 MiB matrix or more
        // is advised onto huge pages first); the read below overwrites
        // it once more.
        let mut m = Dense::zeros(nrows, ncols);
        self.f32s(m.as_mut_slice())?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire format, spelled out: one message of every kind (both
    /// epoch-record variants, every tag arm) against literal bytes. A
    /// layout change fails here whatever the round-trip tests say.
    #[test]
    fn golden_bytes_for_every_kind() {
        let dense = |r: usize, c: usize, v: &[f32]| Dense::from_rows(r, c, v).expect("shape");
        let cases: Vec<(Msg, u8, Vec<u8>)> = vec![
            (
                Msg::Hello {
                    proto_version: 3,
                    shard: 2,
                    band_start: 3,
                    band_len: 4,
                    y_rows: 5,
                    d: 6,
                    epoch: 7,
                    fresh: true,
                    backend: "avx2".into(),
                },
                1,
                [
                    &[3, 0, 0, 0][..],         // proto_version: u32
                    &[2, 0, 0, 0],             // shard: u32
                    &[3, 0, 0, 0, 0, 0, 0, 0], // band_start: u64
                    &[4, 0, 0, 0, 0, 0, 0, 0], // band_len: u64
                    &[5, 0, 0, 0, 0, 0, 0, 0], // y_rows: u64
                    &[6, 0, 0, 0],             // d: u32
                    &[7, 0, 0, 0, 0, 0, 0, 0], // epoch: u64
                    &[1],                      // fresh
                    &[4, 0, 0, 0, 0, 0, 0, 0], // backend: length
                    b"avx2",
                ]
                .concat(),
            ),
            (
                Msg::Embed {
                    epoch: 9,
                    quality: Quality::TopKNeighbors(3),
                    deadline_us: Some(1000),
                    nodes: vec![5, 258],
                },
                2,
                [
                    &[9, 0, 0, 0, 0, 0, 0, 0][..],
                    &[1, 3, 0, 0, 0],             // quality tag 1 + k: u32
                    &[0xE8, 3, 0, 0, 0, 0, 0, 0], // 1000 us remaining
                    &[2, 0, 0, 0, 0, 0, 0, 0],    // node count
                    &[5, 0, 0, 0, 0, 0, 0, 0],
                    &[2, 1, 0, 0, 0, 0, 0, 0],
                ]
                .concat(),
            ),
            (
                Msg::Embed { epoch: 9, quality: Quality::Exact, deadline_us: None, nodes: vec![] },
                2,
                [
                    &[9, 0, 0, 0, 0, 0, 0, 0][..],
                    &[0],       // quality tag 0
                    &[0xFF; 8], // no deadline
                    &[0; 8],    // node count
                ]
                .concat(),
            ),
            (
                Msg::EmbedOk { rows: dense(1, 2, &[1.0, -2.0]) },
                3,
                vec![1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0x80, 0x3F, 0, 0, 0, 0xC0],
            ),
            (Msg::PartErr { err: WireError::Expired }, 4, vec![0]),
            (Msg::PartErr { err: WireError::Panicked }, 4, vec![1]),
            (Msg::PartErr { err: WireError::EpochUnavailable }, 4, vec![2]),
            (
                Msg::PartErr { err: WireError::Other("no".into()) },
                4,
                vec![3, 2, 0, 0, 0, 0, 0, 0, 0, b'n', b'o'],
            ),
            (
                Msg::Score { epoch: 1, pairs: vec![(2, 3)] },
                5,
                [
                    &[1, 0, 0, 0, 0, 0, 0, 0][..],
                    &[1, 0, 0, 0, 0, 0, 0, 0], // pair count
                    &[2, 0, 0, 0, 0, 0, 0, 0],
                    &[3, 0, 0, 0, 0, 0, 0, 0],
                ]
                .concat(),
            ),
            (
                Msg::ScoreOk { scores: dense(1, 1, &[0.5]) },
                6,
                vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x3F],
            ),
            (
                Msg::Epoch(EpochRecord::Delta {
                    epoch: 5,
                    rows: vec![7],
                    x_rows: dense(1, 1, &[1.0]),
                    y_rows: dense(1, 1, &[2.0]),
                }),
                7,
                [
                    &[1][..], // record tag: delta
                    &[5, 0, 0, 0, 0, 0, 0, 0],
                    &[1, 0, 0, 0, 0, 0, 0, 0], // row count
                    &[7, 0, 0, 0, 0, 0, 0, 0],
                    &[1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x80, 0x3F],
                    &[1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x40],
                ]
                .concat(),
            ),
            (
                Msg::Epoch(EpochRecord::Snapshot {
                    epoch: 6,
                    x_start: 0,
                    x: Arc::new(dense(1, 1, &[1.0])),
                    y: Arc::new(dense(0, 3, &[])),
                }),
                7,
                [
                    &[2][..], // record tag: snapshot
                    &[6, 0, 0, 0, 0, 0, 0, 0],
                    &[0, 0, 0, 0, 0, 0, 0, 0], // x_start: u64
                    &[1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x80, 0x3F],
                    &[0, 0, 0, 0, 3, 0, 0, 0], // y: 0 x 3, no body
                ]
                .concat(),
            ),
            (Msg::EpochAck { epoch: 258 }, 8, vec![2, 1, 0, 0, 0, 0, 0, 0]),
        ];
        for (msg, kind, bytes) in cases {
            assert_eq!(msg.kind(), kind, "{msg:?}");
            assert_eq!(msg.encode(), bytes, "{msg:?}");
            assert_eq!(msg.encoded_len(), bytes.len(), "{msg:?}");
            assert_eq!(decode(kind, &bytes), Ok(msg));
        }
        // Revision 2's publish record (tag 0) no longer decodes.
        let publish = [&[0][..], &[4, 0, 0, 0, 0, 0, 0, 0]].concat();
        assert_eq!(decode(KIND_EPOCH, &publish), Err(DecodeError::BadTag("epoch record", 0)));
        assert_eq!(PROTO_VERSION, 3, "these bytes are revision 3");
    }

    /// A snapshot encoded for a receiver's rows is, byte for byte, the
    /// snapshot holding exactly those rows — and decodes to it.
    #[test]
    fn a_record_ships_the_receivers_rows_of_x_only() {
        let x = Arc::new(Dense::from_fn(5, 2, |r, c| (r * 2 + c) as f32));
        let y = Arc::new(Dense::from_fn(5, 2, |r, c| -((r * 2 + c) as f32)));
        let band = 1..3;
        let exact = Arc::new(Dense::from_fn(2, 2, |r, c| ((r + 1) * 2 + c) as f32));
        let snapshot = |x_start, x: &Arc<Dense>| {
            let (x, y) = (Arc::clone(x), Arc::clone(&y));
            Msg::Epoch(EpochRecord::Snapshot { epoch: 9, x_start, x, y })
        };
        let (whole, narrow) = (snapshot(0, &x), snapshot(band.start, &exact));
        let mut shipped = Vec::new();
        whole.encode_for(&mut shipped, Some(&band)).unwrap();
        assert_eq!(shipped, narrow.encode());
        assert_eq!(whole.encoded_len_for(Some(&band)), shipped.len());
        assert_eq!(decode(KIND_EPOCH, &shipped), Ok(narrow));
        // Everything after the header is the two matrices: the band's X
        // and all of Y.
        assert_eq!(shipped.len(), 1 + 8 + 8 + (8 + 2 * 2 * 4) + (8 + 5 * 2 * 4));
        // Deltas and every other kind go out as they are.
        let delta = Msg::Epoch(EpochRecord::Delta {
            epoch: 3,
            rows: vec![4],
            x_rows: Dense::filled(1, 2, 1.0),
            y_rows: Dense::filled(1, 2, 2.0),
        });
        let mut shipped = Vec::new();
        delta.encode_for(&mut shipped, Some(&band)).unwrap();
        assert_eq!(shipped, delta.encode());
    }

    #[test]
    #[should_panic(expected = "cannot ship rows")]
    fn a_record_missing_the_receivers_rows_is_refused_at_encode() {
        let x = Arc::new(Dense::filled(2, 2, 1.0));
        let record = EpochRecord::Snapshot {
            epoch: 1,
            x_start: 2,
            x,
            y: Arc::new(Dense::filled(5, 2, 0.0)),
        };
        let _ = Msg::Epoch(record).encode_for(&mut Vec::new(), Some(&(1..3)));
    }
}
