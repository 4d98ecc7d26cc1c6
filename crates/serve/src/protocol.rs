//! The length-prefixed wire protocol (dep-free, `std::net`).
//!
//! Every frame, in both directions, is
//!
//! ```text
//! ┌──────────────┬──────────┬─────────────────────┐
//! │ len: u32 LE  │ op: u8   │ payload: len bytes  │
//! └──────────────┴──────────┴─────────────────────┘
//! ```
//!
//! where `len` counts the payload only and is capped at [`MAX_FRAME`].
//! Client→server opcodes: [`OP_EMBED`] (payload = structural Verilog,
//! UTF-8), [`OP_STATS`] (empty payload), [`OP_RELOAD`] (UTF-8 checkpoint
//! path, or empty for the configured watch path), and [`OP_HEALTH`]
//! (empty payload). Server→client: [`OP_EMBEDDING`] (`u32 LE` dimension
//! then that many `f32 LE` values), [`OP_ERROR`] (`u16 LE` [`ErrorCode`]
//! then a UTF-8 message), [`OP_STATS_REPLY`] (UTF-8 JSON),
//! [`OP_RELOAD_REPLY`] (`u64 LE` new generation), and
//! [`OP_HEALTH_REPLY`] (UTF-8 JSON).
//!
//! Malformed input never panics the reader: a truncated frame or transport
//! error surfaces as [`FrameReadError::Io`], an absurd length prefix as
//! [`FrameReadError::Oversized`] *before* any allocation, and a clean
//! close at a frame boundary as `Ok(None)`.

use std::io::{self, ErrorKind, Read, Write};

/// Maximum payload bytes per frame (8 MiB — a multi-hundred-thousand-cell
/// netlist; anything larger is rejected before allocation).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Client→server: embed the structural-Verilog payload.
pub const OP_EMBED: u8 = 0x01;
/// Client→server: return server statistics.
pub const OP_STATS: u8 = 0x02;
/// Client→server: hot-reload the serving checkpoint. The payload is a
/// UTF-8 checkpoint path, or empty to reload the server's configured
/// watch path (`MOSS_SERVE_CKPT`). The swap is validated first; a bad
/// checkpoint is rejected with [`ErrorCode::Reload`] and the previous
/// generation keeps serving.
pub const OP_RELOAD: u8 = 0x03;
/// Client→server: return liveness/health (empty payload).
pub const OP_HEALTH: u8 = 0x04;
/// Server→client: an embedding (`u32 LE` dim + dim × `f32 LE`).
pub const OP_EMBEDDING: u8 = 0x81;
/// Server→client: a typed error (`u16 LE` code + UTF-8 message).
pub const OP_ERROR: u8 = 0x82;
/// Server→client: statistics as UTF-8 JSON.
pub const OP_STATS_REPLY: u8 = 0x83;
/// Server→client: reload succeeded (`u64 LE` new generation number).
pub const OP_RELOAD_REPLY: u8 = 0x84;
/// Server→client: health snapshot as UTF-8 JSON (uptime, generation,
/// reload and respawn counters, queue depth).
pub const OP_HEALTH_REPLY: u8 = 0x85;

/// Typed error categories carried in [`OP_ERROR`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame itself was malformed (bad opcode, non-UTF-8 payload,
    /// oversized length prefix).
    BadFrame = 1,
    /// The netlist payload failed to parse as structural Verilog.
    Parse = 2,
    /// The netlist parsed but cannot be embedded (e.g. a combinational
    /// cycle).
    Graph = 3,
    /// A deterministic `moss-faults` injection (`MOSS_FAULTS=serve:…`)
    /// poisoned this request — a rehearsed failure, not an organic one.
    Fault = 4,
    /// The scheduler queue is full; retry later.
    Overload = 5,
    /// The server failed internally (e.g. a forward pass panicked).
    Internal = 6,
    /// A checkpoint hot-reload was rejected (corrupt, truncated,
    /// shape-mismatched, or non-finite checkpoint; or the file could not
    /// be read). The previous generation is still serving.
    Reload = 7,
}

impl ErrorCode {
    /// The wire value.
    pub fn as_u16(self) -> u16 {
        self as u16
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode byte.
    pub op: u8,
    /// Payload bytes (`len` of them).
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameReadError {
    /// Transport failure: disconnect mid-frame, read timeout, reset.
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME`] (the stream is considered
    /// desynchronized and must be dropped after an optional error frame).
    Oversized(u64),
}

/// Reads one frame. Returns `Ok(None)` on a clean close at a frame
/// boundary; any mid-frame close, timeout, or transport error is
/// [`FrameReadError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameReadError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameReadError::Io(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u64::from(u32::from_le_bytes(len_buf));
    if len > MAX_FRAME as u64 {
        return Err(FrameReadError::Oversized(len));
    }
    let mut op = [0u8; 1];
    r.read_exact(&mut op).map_err(FrameReadError::Io)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameReadError::Io)?;
    Ok(Some(Frame { op: op[0], payload }))
}

/// Encodes one whole frame, header and payload, into one buffer.
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME`].
pub(crate) fn encode_frame(op: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME",
        ));
    }
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.push(op);
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one frame as a single write (on a `TCP_NODELAY` socket, separate
/// header and payload writes would each go out as their own segment) and
/// flushes.
///
/// # Errors
///
/// Propagates transport errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, op: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(op, payload)?)?;
    w.flush()
}

/// Encodes an [`OP_ERROR`] payload.
pub fn error_payload(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&code.as_u16().to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes an [`OP_ERROR`] payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Option<(u16, String)> {
    if payload.len() < 2 {
        return None;
    }
    let code = u16::from_le_bytes([payload[0], payload[1]]);
    let message = String::from_utf8_lossy(&payload[2..]).into_owned();
    Some((code, message))
}

/// Encodes an [`OP_EMBEDDING`] payload.
pub fn embedding_payload(embedding: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 * embedding.len());
    out.extend_from_slice(&(embedding.len() as u32).to_le_bytes());
    for v in embedding {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes an [`OP_RELOAD_REPLY`] payload.
pub fn reload_payload(generation: u64) -> Vec<u8> {
    generation.to_le_bytes().to_vec()
}

/// Decodes an [`OP_RELOAD_REPLY`] payload; `None` on a wrong length.
pub fn decode_reload(payload: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Decodes an [`OP_EMBEDDING`] payload; `None` if the dimension header
/// disagrees with the payload length.
pub fn decode_embedding(payload: &[u8]) -> Option<Vec<f32>> {
    if payload.len() < 4 {
        return None;
    }
    let dim = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
    let body = &payload[4..];
    if body.len() != dim * 4 {
        return None;
    }
    Some(
        body.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_EMBED, b"module m (); endmodule").unwrap();
        let f = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(f.op, OP_EMBED);
        assert_eq!(f.payload, b"module m (); endmodule");
    }

    /// A sink that accepts every byte and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [&b""[..], b"x", &[7u8; 4096]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, OP_EMBED, payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(w.bytes, encode_frame(OP_EMBED, payload).unwrap());
        }
        let oversized = vec![0u8; MAX_FRAME + 1];
        let mut w = CountingWriter::default();
        assert!(write_frame(&mut w, OP_EMBED, &oversized).is_err());
        assert_eq!(w.writes, 0, "an oversized frame writes nothing");
    }

    #[test]
    fn clean_close_is_none_and_midframe_close_is_io() {
        assert!(matches!(read_frame(&mut Cursor::new(&[])), Ok(None)));
        // Partial header.
        assert!(matches!(
            read_frame(&mut Cursor::new(&[1u8, 0])),
            Err(FrameReadError::Io(_))
        ));
        // Header promises more payload than arrives.
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_EMBED, b"abcdef").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameReadError::Io(_))
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.push(OP_EMBED);
        match read_frame(&mut Cursor::new(&buf)) {
            Err(FrameReadError::Oversized(n)) => assert_eq!(n, u64::from(u32::MAX)),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn embedding_payload_round_trips() {
        let emb = [0.25f32, -1.5, 3.75e-5, f32::MIN_POSITIVE];
        let p = embedding_payload(&emb);
        assert_eq!(decode_embedding(&p).unwrap(), emb);
        assert_eq!(decode_embedding(&p[..p.len() - 1]), None);
        assert_eq!(decode_embedding(&[]), None);
    }

    #[test]
    fn reload_payload_round_trips() {
        assert_eq!(decode_reload(&reload_payload(0)), Some(0));
        assert_eq!(decode_reload(&reload_payload(u64::MAX)), Some(u64::MAX));
        assert_eq!(decode_reload(&[1, 2, 3]), None);
        assert_eq!(decode_reload(&[]), None);
    }

    #[test]
    fn error_payload_round_trips() {
        let p = error_payload(ErrorCode::Parse, "bad verilog");
        assert_eq!(decode_error(&p).unwrap(), (2, "bad verilog".to_string()));
        assert_eq!(decode_error(&[1]), None);
    }
}
