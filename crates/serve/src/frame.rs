//! Length-prefixed wire protocol of the TCP front-end.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! (bounded by [`MAX_FRAME_BYTES`]) followed by the payload. Payloads
//! are versioned by a leading op byte; integers are little-endian,
//! matching the `.bstr` model format.
//!
//! ```text
//! request  : op=1 | id u64 | pin u64 (0 = active) | nfields u32
//!            | per field: tag u8 (0 missing, 1 num + f32, 2 cat + u32)
//! response : op=2 | id u64 | status u8
//!            | status 0 (ok): version u64 | count u32 | count × f64
//!            | status 3 (unknown version): version u64
//! ```
//!
//! An ok response carries `count` = the model's `num_outputs` scores —
//! one for scalar objectives, `num_class` for softmax — so one wire
//! shape serves every objective.
//!
//! Telemetry introspection rides the same connection (ops 14/15, still
//! below [`DIST_OP_BASE`]): any client may ask a serving process for
//! its live metrics registry dump ([`OP_INTROSPECT`]) and gets the
//! Prometheus-style text back ([`OP_METRICS`]):
//!
//! ```text
//! introspect : op=14                             (no body)
//! metrics    : op=15 | len u32 | len × utf8 byte (registry text dump)
//! ```
//!
//! The distributed trainer (`booster-dist`) shares this codec: same
//! framing, op bytes `16..=28` ([`DIST_OP_BASE`]), larger payload bound
//! ([`DIST_MAX_FRAME_BYTES`] — histogram lanes outgrow scoring
//! requests). Every distributed payload carries a `seq u32` echo right
//! after the op byte so a duplicated or dropped frame desynchronizes
//! *detectably*. Payload layouts (encoded in `booster-dist::proto`; the
//! lane block in `booster-dist::lanes`):
//!
//! ```text
//! init       : op=16 | seq u32 | loss tag u8 (+ alpha f64 for quantile)
//!              | base_score f64
//! init_done  : op=17 | seq u32 | shard records u64
//! build_hist : op=18 | seq u32 | nrows u32 | nrows × u32 (worker-local)
//!              | carry u8: 0 = start from zero, 1 = lanes follow
//!              | [lanes] (see hist_done)
//! hist_done  : op=19 | seq u32 | lanes: block | acc
//!   block    : nbins u32 | mode u8
//!              | mode 0 (dense): nbins × f64 (G) | nbins × f64 (H)
//!                | nbins × u64 (count)
//!              | mode 1 (sparse): nnz u32 | ⌈nbins/8⌉-byte occupancy
//!                bitmap (bit i%8 of byte i/8) | nnz × (g f64, h f64,
//!                count u64), ascending bin order, every count > 0
//!   acc      : 4 × (f64, f64) accumulator lanes | position u64
//! part       : op=20 | seq u32 | field u32 | rule tag u8 + operand u32
//!              | default_left u8 | absent u32 | nrows u32 | nrows × u32
//! part_done  : op=21 | seq u32 | nleft u32 | nleft × u32
//!              | nright u32 | nright × u32 (worker-local)
//! traverse   : op=22 | seq u32 | nnodes u32 | per node:
//!              tag u8 (0 leaf + weight f64,
//!              1 internal + field u32 + rule tag u8 + operand u32
//!                + default_left u8 + left u32 + right u32)
//! trav_done  : op=23 | seq u32 | sum_path u64
//! fold_loss  : op=24 | seq u32 | carry f64      (both directions)
//! shutdown   : op=25 | seq u32                  (no reply)
//! err        : op=26 | seq u32 | len u32 | len × utf8 byte
//! vtx_total  : op=27 | seq u32 | nrows u32 | nrows × u32 (worker-local)
//!              | acc                (a vertex nobody scans: no lanes)
//! total_done : op=28 | seq u32 | acc
//! ```
//!
//! A lane block's mode is the encoder's choice per block: a bin whose
//! count is 0 was never added to, so its `G`/`H` are `+0.0` and
//! omitting it is exact; sparse is shipped when that is at least 25 %
//! smaller than dense.

use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};

use booster_gbdt::dataset::RawValue;

use crate::error::ServeError;
use crate::scheduler::ScoreResponse;

/// Upper bound on a frame payload (1 MiB — far beyond any scoring
/// request; rejects hostile or corrupt length prefixes before
/// allocating).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Upper bound on a distributed-training frame (16 MiB): a histogram
/// frame carries 24 bytes per bin plus the accumulator state, and a
/// partition frame up to one `u32` per shard record — both can exceed
/// the scoring bound by orders of magnitude while still wanting a
/// hostile-length backstop.
pub const DIST_MAX_FRAME_BYTES: usize = 1 << 24;

const OP_REQUEST: u8 = 1;
const OP_RESPONSE: u8 = 2;

/// Op byte of a telemetry introspection request (empty body). Answered
/// by the TCP front-end — and any future framed endpoint — with an
/// [`OP_METRICS`] frame carrying the process-wide
/// [`booster_obs::metrics::global`] registry rendered as text.
pub const OP_INTROSPECT: u8 = 14;

/// Op byte of the introspection response: `op=15 | len u32 | len ×
/// utf8 byte`, the Prometheus-style registry dump.
pub const OP_METRICS: u8 = 15;

/// First op byte of the distributed-training range (`16..=28`; the
/// payloads are documented in the module header and encoded in
/// `booster-dist::proto`). Scoring ops stay below this and the two
/// protocols can never be confused on a misdirected connection.
pub const DIST_OP_BASE: u8 = 16;

const STATUS_OK: u8 = 0;
const STATUS_OVERLOADED: u8 = 1;
const STATUS_SHUTTING_DOWN: u8 = 2;
const STATUS_UNKNOWN_VERSION: u8 = 3;
const STATUS_BAD_REQUEST: u8 = 4;
const STATUS_NO_ACTIVE_MODEL: u8 = 5;
const STATUS_INTERNAL: u8 = 6;

/// A decoded scoring request.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Pinned model version (`None` scores on the active version).
    pub pin: Option<u64>,
    /// The record to score.
    pub features: Vec<RawValue>,
}

/// A decoded scoring response: the echoed id plus the scoring outcome
/// (the per-output predictions and serving version, or a typed error).
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Correlation id echoed from the request.
    pub id: u64,
    /// Scoring outcome: `(version, outputs)` or the typed error.
    pub outcome: Result<(u64, Vec<f64>), ServeError>,
}

/// Frame-level decode failure (malformed payload; the connection should
/// be dropped or the frame answered with `BadRequest`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= DIST_MAX_FRAME_BYTES);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
    // No flush here: callers own the buffering policy (and flush once
    // per protocol exchange).
}

/// [`write_frame`] for an *unbuffered* writer that sends one frame per
/// exchange (the distributed transport): prefix and payload leave in
/// one vectored write. Through a `BufWriter`, a payload above its
/// 8 KiB buffer forces the 4-byte prefix out as a write — and, on a
/// `TCP_NODELAY` socket, a segment — of its own before the payload.
pub fn write_frame_vectored(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= DIST_MAX_FRAME_BYTES);
    let len = (payload.len() as u32).to_le_bytes();
    let sent = w.write_vectored(&[io::IoSlice::new(&len), io::IoSlice::new(payload)])?;
    if sent == 0 {
        return Err(io::ErrorKind::WriteZero.into());
    }
    // A short write (full socket buffer) leaves a tail of the prefix,
    // the payload, or both.
    w.write_all(&len[sent.min(len.len())..])?;
    w.write_all(&payload[sent.saturating_sub(len.len())..])
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; EOF mid-frame and oversized lengths are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_limit(r, MAX_FRAME_BYTES)
}

/// [`read_frame`] with a caller-chosen payload bound — the distributed
/// transport reads with [`DIST_MAX_FRAME_BYTES`], scoring connections
/// with [`MAX_FRAME_BYTES`]. The bound is checked *before* allocating,
/// so a corrupt or hostile length prefix cannot trigger a huge
/// allocation.
pub fn read_frame_limit(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame header",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > max_bytes {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encode a scoring request payload.
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(22 + req.features.len() * 5);
    buf.put_u8(OP_REQUEST);
    buf.put_u64_le(req.id);
    buf.put_u64_le(req.pin.unwrap_or(0));
    buf.put_u32_le(req.features.len() as u32);
    for v in &req.features {
        match v {
            RawValue::Missing => buf.put_u8(0),
            RawValue::Num(x) => {
                buf.put_u8(1);
                buf.put_f32_le(*x);
            }
            RawValue::Cat(c) => {
                buf.put_u8(2);
                buf.put_u32_le(*c);
            }
        }
    }
    buf
}

/// Encode an introspection request ([`OP_INTROSPECT`], empty body).
pub fn encode_introspect_request() -> Vec<u8> {
    vec![OP_INTROSPECT]
}

/// Decode (validate) an introspection request payload.
///
/// # Errors
/// [`WireError`] if the op byte is wrong or trailing bytes follow.
pub fn decode_introspect_request(payload: &[u8]) -> Result<(), WireError> {
    match payload {
        [OP_INTROSPECT] => Ok(()),
        [OP_INTROSPECT, ..] => Err(WireError("trailing bytes")),
        _ => Err(WireError("not an introspect frame")),
    }
}

/// Encode a metrics response ([`OP_METRICS`]) carrying the registry
/// text dump.
pub fn encode_metrics_response(text: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + text.len());
    buf.put_u8(OP_METRICS);
    buf.put_u32_le(text.len() as u32);
    buf.put_slice(text.as_bytes());
    buf
}

/// Decode a metrics response payload into the registry text.
///
/// # Errors
/// [`WireError`] on a wrong op byte, truncated or trailing bytes, or
/// non-UTF-8 text.
pub fn decode_metrics_response(payload: &[u8]) -> Result<String, WireError> {
    let mut buf = payload;
    need(buf, 5, "metrics header")?;
    if buf.get_u8() != OP_METRICS {
        return Err(WireError("not a metrics frame"));
    }
    let len = buf.get_u32_le() as usize;
    if len != buf.remaining() {
        return Err(WireError("metrics length"));
    }
    String::from_utf8(buf.to_vec()).map_err(|_| WireError("metrics utf8"))
}

fn need(buf: &[u8], n: usize, what: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        return Err(WireError(what));
    }
    Ok(())
}

/// Decode a scoring request payload.
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, WireError> {
    let mut buf = payload;
    need(buf, 21, "request header")?;
    if buf.get_u8() != OP_REQUEST {
        return Err(WireError("not a request frame"));
    }
    let id = buf.get_u64_le();
    let pin = match buf.get_u64_le() {
        0 => None,
        v => Some(v),
    };
    let nfields = buf.get_u32_le() as usize;
    if nfields > buf.remaining() {
        // One byte per field minimum: bound before allocating.
        return Err(WireError("field count"));
    }
    let mut features = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        need(buf, 1, "field tag")?;
        features.push(match buf.get_u8() {
            0 => RawValue::Missing,
            1 => {
                need(buf, 4, "numeric value")?;
                RawValue::Num(buf.get_f32_le())
            }
            2 => {
                need(buf, 4, "category value")?;
                RawValue::Cat(buf.get_u32_le())
            }
            _ => return Err(WireError("field tag")),
        });
    }
    if buf.has_remaining() {
        return Err(WireError("trailing bytes"));
    }
    Ok(WireRequest { id, pin, features })
}

/// Encode a scoring response payload.
pub fn encode_response(id: u64, result: &Result<ScoreResponse, ServeError>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(26);
    buf.put_u8(OP_RESPONSE);
    buf.put_u64_le(id);
    match result {
        Ok(resp) => {
            buf.put_u8(STATUS_OK);
            buf.put_u64_le(resp.version);
            buf.put_u32_le(resp.outputs.len() as u32);
            for &o in &resp.outputs {
                buf.put_f64_le(o);
            }
        }
        Err(ServeError::Overloaded) => buf.put_u8(STATUS_OVERLOADED),
        Err(ServeError::ShuttingDown) => buf.put_u8(STATUS_SHUTTING_DOWN),
        Err(ServeError::UnknownVersion(v)) => {
            buf.put_u8(STATUS_UNKNOWN_VERSION);
            buf.put_u64_le(*v);
        }
        Err(ServeError::BadRequest(_)) => buf.put_u8(STATUS_BAD_REQUEST),
        Err(ServeError::NoActiveModel) => buf.put_u8(STATUS_NO_ACTIVE_MODEL),
        Err(_) => buf.put_u8(STATUS_INTERNAL),
    }
    buf
}

/// Decode a scoring response payload.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, WireError> {
    let mut buf = payload;
    need(buf, 10, "response header")?;
    if buf.get_u8() != OP_RESPONSE {
        return Err(WireError("not a response frame"));
    }
    let id = buf.get_u64_le();
    let status = buf.get_u8();
    let outcome = match status {
        STATUS_OK => {
            need(buf, 12, "prediction header")?;
            let version = buf.get_u64_le();
            let count = buf.get_u32_le() as usize;
            if count > buf.remaining() / 8 {
                // Eight bytes per output: bound before allocating.
                return Err(WireError("output count"));
            }
            let mut outputs = Vec::with_capacity(count);
            for _ in 0..count {
                outputs.push(buf.get_f64_le());
            }
            Ok((version, outputs))
        }
        STATUS_OVERLOADED => Err(ServeError::Overloaded),
        STATUS_SHUTTING_DOWN => Err(ServeError::ShuttingDown),
        STATUS_UNKNOWN_VERSION => {
            need(buf, 8, "version")?;
            Err(ServeError::UnknownVersion(buf.get_u64_le()))
        }
        STATUS_BAD_REQUEST => Err(ServeError::BadRequest("rejected by server")),
        STATUS_NO_ACTIVE_MODEL => Err(ServeError::NoActiveModel),
        STATUS_INTERNAL => Err(ServeError::Disconnected),
        _ => return Err(WireError("status")),
    };
    if buf.has_remaining() {
        return Err(WireError("trailing bytes"));
    }
    Ok(WireResponse { id, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_features() -> Vec<RawValue> {
        vec![RawValue::Num(3.5), RawValue::Missing, RawValue::Cat(7), RawValue::Num(-0.0)]
    }

    #[test]
    fn request_roundtrip() {
        for pin in [None, Some(42)] {
            let req = WireRequest { id: 9, pin, features: sample_features() };
            let decoded = decode_request(&encode_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let ok = Ok(ScoreResponse {
            outputs: vec![0.625],
            version: 3,
            batch_size: 8,
            latency_micros: 11,
        });
        let decoded = decode_response(&encode_response(5, &ok)).unwrap();
        assert_eq!(decoded.id, 5);
        assert_eq!(decoded.outcome, Ok((3, vec![0.625])));
        // Multi-output (softmax) responses carry every class score.
        let multi = Ok(ScoreResponse {
            outputs: vec![0.25, 0.5, 0.25],
            version: 7,
            batch_size: 1,
            latency_micros: 4,
        });
        let decoded = decode_response(&encode_response(6, &multi)).unwrap();
        assert_eq!(decoded.outcome, Ok((7, vec![0.25, 0.5, 0.25])));
        for err in [
            ServeError::Overloaded,
            ServeError::ShuttingDown,
            ServeError::UnknownVersion(17),
            ServeError::NoActiveModel,
        ] {
            let decoded = decode_response(&encode_response(1, &Err(err.clone()))).unwrap();
            assert_eq!(decoded.outcome, Err(err));
        }
        // BadRequest loses its static message but keeps its type.
        let decoded =
            decode_response(&encode_response(1, &Err(ServeError::BadRequest("x")))).unwrap();
        assert!(matches!(decoded.outcome, Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn decoders_reject_malformed_payloads_without_panicking() {
        let good = encode_request(&WireRequest { id: 1, pin: None, features: sample_features() });
        // Every strict prefix must fail cleanly.
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "prefix {cut}");
        }
        // Single-byte corruption must never panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            let _ = decode_request(&bad);
        }
        let resp = encode_response(1, &Err(ServeError::Overloaded));
        for cut in 0..resp.len() {
            assert!(decode_response(&resp[..cut]).is_err(), "prefix {cut}");
        }
        // Hostile field count cannot trigger a huge allocation.
        let mut hostile: Vec<u8> = Vec::new();
        hostile.put_u8(OP_REQUEST);
        hostile.put_u64_le(1);
        hostile.put_u64_le(0);
        hostile.put_u32_le(u32::MAX);
        assert_eq!(decode_request(&hostile), Err(WireError("field count")));
        // Every strict prefix of an ok (multi-output) response fails too.
        let ok = encode_response(
            2,
            &Ok(ScoreResponse {
                outputs: vec![0.1, 0.9],
                version: 1,
                batch_size: 1,
                latency_micros: 0,
            }),
        );
        for cut in 0..ok.len() {
            assert!(decode_response(&ok[..cut]).is_err(), "ok prefix {cut}");
        }
        // Hostile output count cannot trigger a huge allocation either.
        let mut hostile: Vec<u8> = Vec::new();
        hostile.put_u8(OP_RESPONSE);
        hostile.put_u64_le(2);
        hostile.put_u8(STATUS_OK);
        hostile.put_u64_le(1);
        hostile.put_u32_le(u32::MAX);
        assert_eq!(decode_response(&hostile), Err(WireError("output count")));
    }

    #[test]
    fn frame_io_roundtrip_and_bounds() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
        // Oversized length prefix rejected before allocation.
        let mut r = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
        // EOF mid-header is an error, not a silent None.
        let mut r = io::Cursor::new(vec![1u8, 0]);
        assert!(read_frame(&mut r).is_err());
    }

    /// Accepts at most `cap` bytes per write, from the first non-empty
    /// slice only — the shortest writes a socket is allowed to make.
    struct ShortWriter {
        cap: usize,
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            self.calls += 1;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_frame_write_matches_write_frame_under_short_writes() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        let mut want = Vec::new();
        write_frame(&mut want, &payload).unwrap();
        write_frame(&mut want, b"").unwrap();
        // Caps that end the first write inside the prefix, at its end,
        // inside the payload, and past the whole frame.
        for cap in [1, 3, 4, 5, 999, 4_096] {
            let mut w = ShortWriter { cap, out: Vec::new(), calls: 0 };
            write_frame_vectored(&mut w, &payload).unwrap();
            write_frame_vectored(&mut w, b"").unwrap();
            assert_eq!(w.out, want, "cap {cap}");
        }
        // A writer with real vectored support takes a frame in one call.
        let mut wire = Vec::new();
        write_frame_vectored(&mut wire, &payload).unwrap();
        assert_eq!(wire, want[..1_004]);
        // A writer that accepts nothing is an error, not a spin.
        let mut w = ShortWriter { cap: 0, out: Vec::new(), calls: 0 };
        assert!(write_frame_vectored(&mut w, &payload).is_err());
        assert_eq!(w.calls, 1);
    }
}
