//! Length-prefixed binary framing over any byte stream.
//!
//! The wire unit is a *frame*:
//!
//! ```text
//! [len: u32 LE] [request_id: u64 LE] [kind: u8] [payload: len - 9 bytes]
//! ```
//!
//! `len` counts everything after itself (header + payload), so a
//! reader can pull exactly one frame off the stream without knowing
//! any message schema — the schema lives one layer up, in
//! [`proto`](crate::proto). Frames work over any `Read`/`Write` pair:
//! unix sockets today, TCP tomorrow, `Vec<u8>` in tests.
//!
//! [`write_frame`] / [`read_frame`] move a payload that already exists
//! as bytes. The transport itself uses [`write_msg`] / [`read_msg`],
//! which put the same bytes on the wire while the codec streams the
//! payload to or from the socket — a 128 MiB feature matrix is never
//! copied into a frame buffer on either side.
//!
//! `request_id` correlates replies with requests so responses may
//! complete out of order; `kind` tags the payload schema (including
//! the typed error frame) so a reply's success/failure is visible
//! before decoding.

use std::io::{self, Read, Write};
use std::ops::Range;

use crate::proto::{decode_from, DecodeError, Msg};

/// Frame header bytes after the length word: request id + kind.
pub const HEADER: usize = 8 + 1;

/// Hard ceiling on one frame's `len` word (1 GiB). Anything larger is
/// rejected *before* allocation — a garbage length must not become an
/// allocation request.
pub const MAX_FRAME: u32 = 1 << 30;

/// Whether a frame with a `payload_len`-byte payload fits
/// [`MAX_FRAME`]: the one length rule. A reader refuses a length word
/// past it, [`write_msg`] panics past it, and the coordinator checks an
/// epoch record against it before it ships anything.
pub(crate) fn fits_frame(payload_len: usize) -> bool {
    payload_len <= MAX_FRAME as usize - HEADER
}

/// One wire frame, header decoded, payload raw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlates a reply with its request. Requests mint fresh ids;
    /// replies echo them. Streamed records (the epoch log) use id 0.
    pub request_id: u64,
    /// Payload schema tag — see the `KIND_*` constants in
    /// [`proto`](crate::proto).
    pub kind: u8,
    /// Schema-tagged payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(io::Error),
    /// The stream ended cleanly on a frame boundary — not an error for
    /// a serve loop, but distinct from a mid-frame truncation.
    Closed,
    /// The length word exceeds [`MAX_FRAME`] or undercuts the header.
    BadLength(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::BadLength(len) => write!(f, "frame length {len} out of bounds"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Write the length word and header of a frame whose payload is
/// `payload_len` bytes.
fn write_header(
    w: &mut impl Write,
    payload_len: usize,
    request_id: u64,
    kind: u8,
) -> io::Result<()> {
    assert!(fits_frame(payload_len), "frame payload exceeds MAX_FRAME");
    w.write_all(&((HEADER + payload_len) as u32).to_le_bytes())?;
    w.write_all(&request_id.to_le_bytes())?;
    w.write_all(&[kind])
}

/// Read and bound-check a length word and header: the payload's
/// length, the request id, the kind. A clean EOF *before* the length
/// word is [`FrameError::Closed`].
fn read_header(r: &mut impl Read) -> Result<(usize, u64, u8), FrameError> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(len_bytes);
    if (len as usize).checked_sub(HEADER).is_none_or(|payload| !fits_frame(payload)) {
        return Err(FrameError::BadLength(len));
    }
    let mut id_bytes = [0u8; 8];
    r.read_exact(&mut id_bytes)?;
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    Ok((len as usize - HEADER, u64::from_le_bytes(id_bytes), kind[0]))
}

/// Write one frame. The caller owns flushing (batch several frames,
/// then flush once).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_header(w, frame.payload.len(), frame.request_id, frame.kind)?;
    w.write_all(&frame.payload)
}

/// Read exactly one frame. A clean EOF *before* the length word is
/// [`FrameError::Closed`]; an EOF anywhere inside a frame is an i/o
/// error (the peer died mid-send).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let (payload_len, request_id, kind) = read_header(r)?;
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload)?;
    Ok(Frame { request_id, kind, payload })
}

/// Frame `msg` without materialising its payload: byte for byte what
/// [`write_frame`] writes for `Frame { payload: msg.encode(), .. }`,
/// streamed by [`Msg::encode_into`]. Returns the bytes put on the wire,
/// length word included. The caller owns flushing.
///
/// # Panics
/// Panics when the message does not fit [`MAX_FRAME`] — for an epoch
/// record, when `X` and `Y` together exceed 1 GiB.
pub fn write_msg(w: &mut impl Write, request_id: u64, msg: &Msg) -> io::Result<usize> {
    write_msg_to(w, request_id, msg, None)
}

/// [`write_msg`] to the worker holding global rows `x_rows` of `X`: a
/// `Snapshot` record goes out with `x_start = x_rows.start`
/// and only those rows of its `X`, streamed from the record's shared
/// matrix (nothing is copied). Every other message is written as by
/// [`write_msg`].
///
/// # Panics
/// Panics as [`write_msg`] does, and when a record's `X` does not cover
/// `x_rows`.
pub fn write_msg_for(
    w: &mut impl Write,
    request_id: u64,
    msg: &Msg,
    x_rows: &Range<usize>,
) -> io::Result<usize> {
    write_msg_to(w, request_id, msg, Some(x_rows))
}

fn write_msg_to(
    w: &mut impl Write,
    request_id: u64,
    msg: &Msg,
    x_rows: Option<&Range<usize>>,
) -> io::Result<usize> {
    let payload_len = msg.encoded_len_for(x_rows);
    write_header(w, payload_len, request_id, msg.kind())?;
    msg.encode_for(w, x_rows)?;
    Ok(4 + HEADER + payload_len)
}

/// One frame read by [`read_msg`].
#[derive(Debug)]
pub struct Received {
    /// The frame's request id — known even when the payload is bad, so
    /// a serve loop can answer the failure typed.
    pub request_id: u64,
    /// Bytes the frame took on the wire, length word included.
    pub wire_len: usize,
    /// The decoded message, or why the payload is not one.
    pub msg: Result<Msg, DecodeError>,
}

/// Read one frame and decode its payload straight off the stream
/// ([`decode_from`]) — no payload buffer between the socket and the
/// message. Frame-level failures are the same as [`read_frame`]'s. A
/// payload that fails to decode is skipped to the frame's end, so the
/// next call starts on the next frame.
pub fn read_msg(r: &mut impl Read) -> Result<Received, FrameError> {
    let (payload_len, request_id, kind) = read_header(r)?;
    let mut body = r.by_ref().take(payload_len as u64);
    let msg = decode_from(kind, &mut body, payload_len)?;
    if msg.is_err() {
        io::copy(&mut body, &mut io::sink())?;
        if body.limit() != 0 {
            return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
    }
    Ok(Received { request_id, wire_len: 4 + HEADER + payload_len, msg })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        let frames = [
            Frame { request_id: 0, kind: 1, payload: vec![] },
            Frame { request_id: u64::MAX, kind: 255, payload: vec![7; 300] },
            Frame { request_id: 42, kind: 3, payload: (0..=255).collect() },
        ];
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0; 64]);
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::BadLength(_))));
        // Undersized too: a length that can't even hold the header.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::BadLength(3))));
    }

    #[test]
    fn truncation_mid_frame_is_io_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame { request_id: 9, kind: 2, payload: vec![1, 2, 3, 4] })
            .unwrap();
        for cut in 1..buf.len() {
            let r = read_frame(&mut &buf[..cut]);
            if cut < 4 {
                // A partial length word is indistinguishable from a
                // clean close to `read_exact`; either way, no frame.
                assert!(matches!(r, Err(FrameError::Closed)), "cut at {cut}");
            } else {
                assert!(matches!(r, Err(FrameError::Io(_))), "cut at {cut}");
            }
        }
    }

    #[test]
    fn a_frame_of_max_frame_bytes_fits_and_one_more_does_not() {
        let largest = MAX_FRAME as usize - HEADER;
        assert!(fits_frame(largest) && !fits_frame(largest + 1));
        // The writer: the largest frame's header goes out; one byte more
        // panics before anything is written. No payload is built.
        let mut wire = Vec::new();
        write_header(&mut wire, largest, 3, 4).unwrap();
        assert_eq!(wire[..4], MAX_FRAME.to_le_bytes());
        let mut past = Vec::new();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_header(&mut past, largest + 1, 3, 4)
        }));
        assert!(refused.is_err() && past.is_empty());
        // The reader: the same length word is a frame, one more is not.
        assert_eq!(read_header(&mut &wire[..]).unwrap(), (largest, 3, 4));
        let mut past = (MAX_FRAME + 1).to_le_bytes().to_vec();
        past.extend_from_slice(&wire[4..]);
        assert!(matches!(read_header(&mut &past[..]), Err(FrameError::BadLength(_))));
    }

    fn embed_ok() -> Msg {
        let rows = fusedmm_sparse::Dense::from_fn(3, 5, |r, c| (r * 5 + c) as f32 - 7.5);
        Msg::EmbedOk { rows }
    }

    #[test]
    fn write_msg_puts_the_bytes_write_frame_puts() {
        let msg = embed_ok();
        let mut framed = Vec::new();
        write_frame(
            &mut framed,
            &Frame { request_id: 77, kind: msg.kind(), payload: msg.encode() },
        )
        .unwrap();
        let mut streamed = Vec::new();
        assert_eq!(write_msg(&mut streamed, 77, &msg).unwrap(), framed.len());
        assert_eq!(streamed, framed);
        let back = read_msg(&mut &streamed[..]).unwrap();
        assert_eq!((back.request_id, back.wire_len), (77, framed.len()));
        assert_eq!(back.msg, Ok(msg));
    }

    #[test]
    fn a_bad_payload_is_typed_and_the_next_frame_survives_it() {
        let good = embed_ok();
        // A dense header promising 1000 x 1000 floats in a 16-byte
        // payload, and a well-formed message with one byte too many.
        let mut overcount = Vec::new();
        overcount.extend_from_slice(&1000u32.to_le_bytes());
        overcount.extend_from_slice(&1000u32.to_le_bytes());
        overcount.extend_from_slice(&[0; 8]);
        let mut trailing = good.encode();
        trailing.push(0);
        for (payload, want) in
            [(overcount, DecodeError::BadCount("dense")), (trailing, DecodeError::Trailing)]
        {
            let mut wire = Vec::new();
            write_frame(&mut wire, &Frame { request_id: 5, kind: good.kind(), payload }).unwrap();
            write_msg(&mut wire, 6, &good).unwrap();
            let mut r = &wire[..];
            let bad = read_msg(&mut r).unwrap();
            assert_eq!((bad.request_id, bad.msg), (5, Err(want)));
            let next = read_msg(&mut r).unwrap();
            assert_eq!((next.request_id, next.msg), (6, Ok(good.clone())));
            assert!(matches!(read_msg(&mut r), Err(FrameError::Closed)));
        }
    }

    #[test]
    fn a_stream_that_ends_inside_a_payload_is_io_for_read_msg_too() {
        let mut wire = Vec::new();
        write_msg(&mut wire, 1, &embed_ok()).unwrap();
        for cut in 4..wire.len() {
            assert!(matches!(read_msg(&mut &wire[..cut]), Err(FrameError::Io(_))), "cut at {cut}");
        }
        // Also when the payload is bad and the frame is being skipped.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame { request_id: 1, kind: 200, payload: vec![0; 64] }).unwrap();
        assert!(matches!(read_msg(&mut &wire[..40]), Err(FrameError::Io(_))));
        assert_eq!(read_msg(&mut &wire[..]).unwrap().msg, Err(DecodeError::UnknownKind(200)));
    }
}
