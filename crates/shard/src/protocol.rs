//! The coordinator ↔ worker wire protocol.
//!
//! Messages travel as length-prefixed frames reusing the `.duob`
//! primitives from `duop_history::binary` — LEB128 varints for every
//! integer and a CRC-32 guard per frame. Verdicts inside `V` frames use
//! `duop_core`'s JSON codec, the same one `duop check --format json`
//! prints:
//!
//! ```text
//! frame := type:u8  len:varint  payload:[u8; len]  crc32:u32-le
//! ```
//!
//! The CRC covers the type byte and the payload, so a flipped frame type
//! is caught exactly like flipped payload bytes. Frame types:
//!
//! | type | direction | payload |
//! |------|-----------|---------|
//! | `H`  | both      | `DUOS` magic + version varint (handshake) |
//! | `T`  | coord → worker | task id, attempt, criterion token, pipeline flags, budgets, `.duob` sub-history |
//! | `V`  | worker → coord | task id, explored counter, JSON verdict |
//! | `S`  | coord → worker | empty (orderly shutdown) |
//! | `C`  | daemon → coord | magic + version + per-connection nonce (TCP auth challenge) |
//! | `A`  | coord → daemon | keyed SipHash-2-4 tag over the nonce (TCP auth response) |
//! | `P`  | both      | empty (liveness heartbeat on the TCP transport) |
//!
//! A decoder never panics on malformed input: every failure is a
//! structured [`ProtocolError`] the worker turns into exit code 2,
//! mirroring the `.duob` ingestion contract.

use duop_core::{SearchConfig, Verdict};
use duop_history::binary::{crc32, decode_varint, write_varint, Crc32};
use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

/// Handshake magic, distinguishing the shard protocol from a stray
/// `.duob` file (`DUOB`).
pub const MAGIC: &[u8; 4] = b"DUOS";
/// Protocol version sent (and required) in the handshake. Version 2
/// carries verdicts as JSON; version 3 carries a task's whole pipeline
/// (`memo` and optional budgets beside the stage switches). A peer of
/// another version fails at the handshake.
pub const VERSION: u64 = 3;

/// Frame type: handshake.
pub const FRAME_HELLO: u8 = b'H';
/// Frame type: task dispatch.
pub const FRAME_TASK: u8 = b'T';
/// Frame type: verdict reply.
pub const FRAME_VERDICT: u8 = b'V';
/// Frame type: orderly shutdown.
pub const FRAME_SHUTDOWN: u8 = b'S';
/// Frame type: authentication challenge (daemon → coordinator over TCP;
/// payload: magic, version varint, per-connection nonce).
pub const FRAME_CHALLENGE: u8 = b'C';
/// Frame type: authentication response (coordinator → daemon; payload:
/// the keyed tag over the challenge nonce).
pub const FRAME_AUTH: u8 = b'A';
/// Frame type: liveness ping (either direction, empty payload). Workers
/// ignore it; the coordinator timestamps it.
pub const FRAME_HEARTBEAT: u8 = b'P';

/// Hard cap on a frame payload. A task frame wraps a whole `.duob`
/// sub-history (itself internally framed), so this is far above
/// `duop_history::binary::MAX_FRAME_BYTES` — it only exists so a
/// corrupted length cannot drive allocation to the address-space limit.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 30;

/// A structured protocol failure: I/O trouble or malformed bytes.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The bytes do not parse as the frame or message they claim to be.
    Malformed {
        /// What was being decoded.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtocolError::Malformed { context, detail } => {
                write!(f, "malformed {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

fn malformed(context: &'static str, detail: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed {
        context,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Writes one frame: type byte, varint length, payload, CRC-32 over the
/// type byte and payload.
pub fn write_frame(w: &mut impl Write, ty: u8, payload: &[u8]) -> Result<(), ProtocolError> {
    let mut header = Vec::with_capacity(11);
    header.push(ty);
    write_varint(&mut header, payload.len() as u64);
    w.write_all(&header)?;
    w.write_all(payload)?;
    // The CRC covers [ty] ++ payload; incremental updates avoid
    // gathering a task's whole `.duob` sub-history into a second buffer.
    let mut digest = Crc32::new();
    digest.update(&[ty]);
    digest.update(payload);
    w.write_all(&digest.finish().to_le_bytes())?;
    Ok(())
}

fn read_exact_ctx(
    inner: &mut impl Read,
    out: &mut [u8],
    context: &'static str,
) -> Result<(), ProtocolError> {
    inner.read_exact(out).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            malformed(context, "stream ended mid-frame")
        } else {
            ProtocolError::Io(e)
        }
    })
}

/// Reads frames off a byte stream, reusing one payload buffer across
/// frames.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
        }
    }

    fn read_exact(&mut self, out: &mut [u8], context: &'static str) -> Result<(), ProtocolError> {
        read_exact_ctx(&mut self.inner, out, context)
    }

    /// Reads a varint byte-by-byte off the stream (the slice decoder
    /// needs the bytes in memory; a frame length is not).
    fn read_varint_stream(&mut self, context: &'static str) -> Result<u64, ProtocolError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        for i in 0..10 {
            let mut byte = [0u8; 1];
            self.read_exact(&mut byte, context)?;
            let b = byte[0];
            if shift == 63 && b > 1 {
                return Err(malformed(context, "varint overflows 64 bits"));
            }
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if i == 9 {
                break;
            }
        }
        Err(malformed(context, "varint longer than 10 bytes"))
    }

    /// Reads the next frame, returning its type and payload, or `None` on
    /// a clean end-of-stream at a frame boundary.
    pub fn read_frame(&mut self) -> Result<Option<(u8, &[u8])>, ProtocolError> {
        let mut ty = [0u8; 1];
        match self.inner.read_exact(&mut ty) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(ProtocolError::Io(e)),
        }
        let len = self.read_varint_stream("frame length")?;
        if len as usize > MAX_PAYLOAD_BYTES {
            return Err(malformed(
                "frame length",
                format!("{len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"),
            ));
        }
        self.buf.clear();
        self.buf.resize(len as usize + 1, 0);
        self.buf[0] = ty[0];
        read_exact_ctx(&mut self.inner, &mut self.buf[1..], "frame payload")?;
        let mut crc_bytes = [0u8; 4];
        self.read_exact(&mut crc_bytes, "frame checksum")?;
        let expected = u32::from_le_bytes(crc_bytes);
        let actual = crc32(&self.buf);
        if actual != expected {
            return Err(malformed(
                "frame checksum",
                format!("crc mismatch: stored {expected:#010x}, computed {actual:#010x}"),
            ));
        }
        Ok(Some((ty[0], &self.buf[1..])))
    }
}

// ---------------------------------------------------------------------------
// Slice decoding helpers
// ---------------------------------------------------------------------------

fn get_varint(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, ProtocolError> {
    decode_varint(bytes, pos, 0).map_err(|e| malformed(context, e.to_string()))
}

fn get_u8(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<u8, ProtocolError> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| malformed(context, "payload ends early"))?;
    *pos += 1;
    Ok(b)
}

fn get_bytes<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    context: &'static str,
) -> Result<&'a [u8], ProtocolError> {
    let len = get_varint(bytes, pos, context)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| malformed(context, "length prefix exceeds payload"))?;
    let out = &bytes[*pos..end];
    *pos = end;
    Ok(out)
}

fn get_str(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<String, ProtocolError> {
    let raw = get_bytes(bytes, pos, context)?;
    String::from_utf8(raw.to_vec()).map_err(|_| malformed(context, "invalid utf-8"))
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn expect_end(bytes: &[u8], pos: usize, context: &'static str) -> Result<(), ProtocolError> {
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(malformed(context, "trailing bytes after message"))
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Encodes the handshake payload.
pub fn encode_hello() -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.extend_from_slice(MAGIC);
    write_varint(&mut out, VERSION);
    out
}

/// Validates a handshake payload.
pub fn decode_hello(payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() < 4 || &payload[..4] != MAGIC {
        return Err(malformed("handshake", "bad magic"));
    }
    let mut pos = 4;
    let version = get_varint(payload, &mut pos, "handshake")?;
    if version != VERSION {
        return Err(malformed(
            "handshake",
            format!("version {version}, expected {VERSION}"),
        ));
    }
    expect_end(payload, pos, "handshake")
}

// ---------------------------------------------------------------------------
// Authenticated hello (TCP transport)
// ---------------------------------------------------------------------------

/// Bytes of the per-connection challenge nonce.
pub const NONCE_LEN: usize = 16;
/// Bytes of the keyed authentication tag.
pub const TAG_LEN: usize = 8;

/// SipHash-2-4 over `data` under the 128-bit key `(k0, k1)`. Hand-rolled
/// because the repo carries no external crypto dependency; the reference
/// construction (Aumasson–Bernstein) is small enough to own.
fn sip24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v0 = 0x736f6d6570736575u64 ^ k0;
    let mut v1 = 0x646f72616e646f6du64 ^ k1;
    let mut v2 = 0x6c7967656e657261u64 ^ k0;
    let mut v3 = 0x7465646279746573u64 ^ k1;
    let round = |v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64| {
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    };
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        v3 ^= m;
        round(&mut v0, &mut v1, &mut v2, &mut v3);
        round(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^= m;
    }
    let rest = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v3 ^= m;
    round(&mut v0, &mut v1, &mut v2, &mut v3);
    round(&mut v0, &mut v1, &mut v2, &mut v3);
    v0 ^= m;
    v2 ^= 0xff;
    for _ in 0..4 {
        round(&mut v0, &mut v1, &mut v2, &mut v3);
    }
    v0 ^ v1 ^ v2 ^ v3
}

/// Derives the 128-bit MAC key from an arbitrary-length shared secret:
/// two SipHash passes under distinct fixed domain-separation keys.
fn derive_key(secret: &[u8]) -> (u64, u64) {
    let k0 = sip24(0x64756f702d736864, 0x6b65792d64657230, secret);
    let k1 = sip24(0x64756f702d736864, 0x6b65792d64657231, secret);
    (k0, k1)
}

/// The authentication tag a coordinator must present for `nonce`:
/// `SipHash-2-4(derive(secret), nonce ‖ "DUOS-hello-v1")`. A tag is
/// bound to its connection's nonce, so a captured handshake replays
/// against a fresh nonce as garbage.
pub fn auth_tag(secret: &[u8], nonce: &[u8; NONCE_LEN]) -> [u8; TAG_LEN] {
    let (k0, k1) = derive_key(secret);
    let mut msg = Vec::with_capacity(NONCE_LEN + 13);
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(b"DUOS-hello-v1");
    sip24(k0, k1, &msg).to_le_bytes()
}

/// Constant-time byte-slice equality: the comparison cost never depends
/// on where the first mismatch sits, so a remote cannot binary-search
/// the tag byte by byte off response timing.
#[must_use]
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Encodes a challenge payload: magic, version, nonce.
pub fn encode_challenge(nonce: &[u8; NONCE_LEN]) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + NONCE_LEN);
    out.extend_from_slice(MAGIC);
    write_varint(&mut out, VERSION);
    put_bytes(&mut out, nonce);
    out
}

/// Decodes and validates a challenge payload, returning the nonce.
pub fn decode_challenge(payload: &[u8]) -> Result<[u8; NONCE_LEN], ProtocolError> {
    if payload.len() < 4 || &payload[..4] != MAGIC {
        return Err(malformed("challenge", "bad magic"));
    }
    let mut pos = 4;
    let version = get_varint(payload, &mut pos, "challenge")?;
    if version != VERSION {
        return Err(malformed(
            "challenge",
            format!("version {version}, expected {VERSION}"),
        ));
    }
    let raw = get_bytes(payload, &mut pos, "challenge")?;
    let nonce: [u8; NONCE_LEN] = raw.try_into().map_err(|_| {
        malformed(
            "challenge",
            format!("nonce is {} bytes, expected {NONCE_LEN}", raw.len()),
        )
    })?;
    expect_end(payload, pos, "challenge")?;
    Ok(nonce)
}

/// Encodes an auth-response payload (the tag alone).
pub fn encode_auth(tag: &[u8; TAG_LEN]) -> Vec<u8> {
    tag.to_vec()
}

/// Decodes an auth-response payload.
pub fn decode_auth(payload: &[u8]) -> Result<[u8; TAG_LEN], ProtocolError> {
    payload.try_into().map_err(|_| {
        malformed(
            "auth response",
            format!("tag is {} bytes, expected {TAG_LEN}", payload.len()),
        )
    })
}

// ---------------------------------------------------------------------------
// Task frames
// ---------------------------------------------------------------------------

/// One unit of work shipped to a worker: a criterion token, a
/// `.duob`-encoded (sub-)history and the pipeline to check it with.
///
/// The frame carries every [`SearchConfig`] field that can change a
/// worker's verdict or counters, losslessly: the four stage switches,
/// `memo` and both budgets. `threads` and `interruptible` stay
/// process-local and decode as their defaults: a worker searches
/// sequentially, and each process polls its own interrupt flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskMsg {
    /// Coordinator-assigned task id, echoed in the verdict frame.
    pub task_id: u64,
    /// How many workers have already died holding this task (the retry
    /// counter; fault-injection hooks key off attempt 0).
    pub attempt: u64,
    /// Criterion token (`du`, `final-state`, `rco`, `tms2`, `strict`,
    /// `opacity`).
    pub criterion: String,
    /// The pipeline the worker runs on this task.
    pub search: SearchConfig,
    /// The `.duob`-encoded history to check.
    pub history: Vec<u8>,
}

/// Task flag bits 0-4: the stage switches and `memo`.
const FLAG_PRELINT: u8 = 1;
const FLAG_LADDER: u8 = 1 << 1;
const FLAG_DECOMPOSE: u8 = 1 << 2;
const FLAG_SATURATE: u8 = 1 << 3;
const FLAG_MEMO: u8 = 1 << 4;
/// Task flag bits 5-6: a state budget, then a deadline, follows the
/// flags byte. Bit 7 is undefined.
const FLAG_MAX_STATES: u8 = 1 << 5;
const FLAG_DEADLINE: u8 = 1 << 6;
const TASK_FLAGS: u8 = 0x7F;

/// Encodes a task payload.
pub fn encode_task(msg: &TaskMsg) -> Vec<u8> {
    let search = &msg.search;
    let mut out = Vec::with_capacity(msg.history.len() + 64);
    write_varint(&mut out, msg.task_id);
    write_varint(&mut out, msg.attempt);
    put_bytes(&mut out, msg.criterion.as_bytes());
    let flag = |on: bool, bit: u8| if on { bit } else { 0 };
    out.push(
        flag(search.prelint, FLAG_PRELINT)
            | flag(search.ladder, FLAG_LADDER)
            | flag(search.decompose, FLAG_DECOMPOSE)
            | flag(search.saturate, FLAG_SATURATE)
            | flag(search.memo, FLAG_MEMO)
            | flag(search.max_states.is_some(), FLAG_MAX_STATES)
            | flag(search.deadline.is_some(), FLAG_DEADLINE),
    );
    if let Some(max_states) = search.max_states {
        write_varint(&mut out, max_states);
    }
    if let Some(deadline) = search.deadline {
        write_varint(&mut out, deadline.as_secs());
        write_varint(&mut out, u64::from(deadline.subsec_nanos()));
    }
    put_bytes(&mut out, &msg.history);
    out
}

/// Decodes a task payload.
pub fn decode_task(payload: &[u8]) -> Result<TaskMsg, ProtocolError> {
    let mut pos = 0;
    let task_id = get_varint(payload, &mut pos, "task")?;
    let attempt = get_varint(payload, &mut pos, "task")?;
    let criterion = get_str(payload, &mut pos, "task criterion")?;
    let flags = get_u8(payload, &mut pos, "task flags")?;
    if flags & !TASK_FLAGS != 0 {
        return Err(malformed("task flags", format!("unknown bits {flags:#x}")));
    }
    let max_states = if flags & FLAG_MAX_STATES != 0 {
        Some(get_varint(payload, &mut pos, "task budget")?)
    } else {
        None
    };
    let deadline = if flags & FLAG_DEADLINE != 0 {
        let secs = get_varint(payload, &mut pos, "task deadline")?;
        let nanos = get_varint(payload, &mut pos, "task deadline")?;
        if nanos >= 1_000_000_000 {
            return Err(malformed(
                "task deadline",
                format!("{nanos} ns is not under a second"),
            ));
        }
        Some(Duration::new(secs, nanos as u32))
    } else {
        None
    };
    let history = get_bytes(payload, &mut pos, "task history")?.to_vec();
    expect_end(payload, pos, "task")?;
    Ok(TaskMsg {
        task_id,
        attempt,
        criterion,
        search: SearchConfig {
            prelint: flags & FLAG_PRELINT != 0,
            ladder: flags & FLAG_LADDER != 0,
            decompose: flags & FLAG_DECOMPOSE != 0,
            saturate: flags & FLAG_SATURATE != 0,
            memo: flags & FLAG_MEMO != 0,
            max_states,
            deadline,
            ..SearchConfig::default()
        },
        history,
    })
}

// ---------------------------------------------------------------------------
// Verdict frames
// ---------------------------------------------------------------------------

/// A worker's answer for one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictMsg {
    /// The task this answers.
    pub task_id: u64,
    /// Explored-state counter of the worker's search (also embedded in
    /// violated/unknown verdicts; carried separately so satisfied tasks
    /// contribute to the coordinator's cumulative counts too).
    pub explored: u64,
    /// The verdict itself.
    pub verdict: Verdict,
}

/// Encodes a verdict payload: the task id and explored counter as
/// varints, then the verdict in its JSON form (the same codec as `duop
/// check --format json`).
pub fn encode_verdict_msg(msg: &VerdictMsg) -> Result<Vec<u8>, ProtocolError> {
    let json =
        serde_json::to_string(&msg.verdict).map_err(|e| malformed("verdict", e.to_string()))?;
    let mut out = Vec::with_capacity(json.len() + 20);
    write_varint(&mut out, msg.task_id);
    write_varint(&mut out, msg.explored);
    out.extend_from_slice(json.as_bytes());
    Ok(out)
}

/// Decodes a verdict payload.
pub fn decode_verdict_msg(payload: &[u8]) -> Result<VerdictMsg, ProtocolError> {
    let mut pos = 0;
    let task_id = get_varint(payload, &mut pos, "verdict")?;
    let explored = get_varint(payload, &mut pos, "verdict")?;
    let json =
        std::str::from_utf8(&payload[pos..]).map_err(|_| malformed("verdict", "invalid utf-8"))?;
    let verdict =
        serde_json::from_str::<Verdict>(json).map_err(|e| malformed("verdict", e.to_string()))?;
    Ok(VerdictMsg {
        task_id,
        explored,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_core::certificate::{Certificate, Rule, Step};
    use duop_core::lint::{self, Applicability, Diagnostic, Severity, Span};
    use duop_core::{PartialProgress, PlanCriterion, UnknownReason, Violation, Witness};
    use duop_history::{ObjId, TxnId, Value};
    use std::collections::BTreeMap;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }

    fn round_trip_frame(ty: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        let mut wire = Vec::new();
        write_frame(&mut wire, ty, payload).unwrap();
        let mut rd = FrameReader::new(&wire[..]);
        let (got_ty, got) = rd.read_frame().unwrap().expect("one frame");
        let out = (got_ty, got.to_vec());
        assert!(rd.read_frame().unwrap().is_none(), "clean eof after frame");
        out
    }

    #[test]
    fn frame_round_trips() {
        let (ty, payload) = round_trip_frame(FRAME_TASK, b"hello frames");
        assert_eq!(ty, FRAME_TASK);
        assert_eq!(payload, b"hello frames");
        let (ty, payload) = round_trip_frame(FRAME_SHUTDOWN, b"");
        assert_eq!(ty, FRAME_SHUTDOWN);
        assert!(payload.is_empty());
    }

    #[test]
    fn corrupt_byte_is_caught_by_crc() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_TASK, b"payload under guard").unwrap();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            let mut rd = FrameReader::new(&bad[..]);
            // Every single-byte corruption must surface as a structured
            // error or a clean EOF — never a wrong payload or a panic.
            if let Ok(Some((ty, payload))) = rd.read_frame() {
                assert!(
                    ty == FRAME_TASK && payload == b"payload under guard",
                    "corruption at {i} silently altered the frame"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_is_structured() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_VERDICT, b"0123456789abcdef").unwrap();
        for cut in 0..wire.len() {
            let mut rd = FrameReader::new(&wire[..cut]);
            match rd.read_frame() {
                Ok(None) => assert_eq!(cut, 0, "only an empty stream is a clean eof"),
                Ok(Some(_)) => panic!("truncated frame at {cut} decoded"),
                Err(ProtocolError::Malformed { .. }) => {}
                Err(ProtocolError::Io(e)) => panic!("io error at {cut}: {e}"),
            }
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_version() {
        decode_hello(&encode_hello()).unwrap();
        let mut bad = encode_hello();
        bad[4] = 99;
        assert!(decode_hello(&bad).is_err());
        assert!(decode_hello(b"DUOB\x01").is_err());
        // A version-1 peer speaks the binary verdict codec, a version-2
        // peer the task frame without `memo` and optional budgets: both
        // are rejected at the hello instead of misreading frames.
        assert!(decode_hello(b"DUOS\x01").is_err());
        assert!(decode_hello(b"DUOS\x02").is_err());
    }

    /// Every combination of the stage switches and `memo`, under every
    /// budget shape: absent, zero, one, and the largest.
    #[test]
    fn task_round_trips() {
        let states = [None, Some(0), Some(1), Some(u64::MAX)];
        let deadlines = [
            None,
            Some(Duration::ZERO),
            Some(Duration::from_millis(1)),
            Some(Duration::MAX),
        ];
        for bits in 0u8..32 {
            for max_states in states {
                for deadline in deadlines {
                    let msg = TaskMsg {
                        task_id: 42,
                        attempt: 1,
                        criterion: "du".to_owned(),
                        search: SearchConfig {
                            prelint: bits & 1 != 0,
                            ladder: bits & 2 != 0,
                            decompose: bits & 4 != 0,
                            saturate: bits & 8 != 0,
                            memo: bits & 16 != 0,
                            max_states,
                            deadline,
                            ..SearchConfig::default()
                        },
                        history: vec![1, 2, 3, 4, 5],
                    };
                    assert_eq!(decode_task(&encode_task(&msg)).unwrap(), msg);
                }
            }
        }
    }

    #[test]
    fn task_rejects_a_deadline_fraction_of_a_second_or_more() {
        let msg = TaskMsg {
            task_id: 0,
            attempt: 0,
            criterion: "du".to_owned(),
            search: SearchConfig {
                deadline: Some(Duration::from_secs(u64::MAX)),
                ..SearchConfig::default()
            },
            history: Vec::new(),
        };
        let mut wire = encode_task(&msg);
        // The deadline's nanosecond varint is the one `0` byte before the
        // empty history's `0` length.
        let at = wire.len() - 2;
        assert_eq!(wire[at], 0);
        wire.splice(at..=at, [0x80, 0x94, 0xEB, 0xDC, 0x03]); // 10^9
        assert!(matches!(
            decode_task(&wire),
            Err(ProtocolError::Malformed {
                context: "task deadline",
                ..
            })
        ));
    }

    #[test]
    fn verdict_round_trips_all_shapes() {
        let mut choices = BTreeMap::new();
        choices.insert(t(3), true);
        choices.insert(t(9), false);
        let shapes = vec![
            Verdict::Satisfied(Witness::new(vec![t(1), t(3), t(2)], choices)),
            Verdict::Violated(Violation::MissingWriter {
                txn: t(4),
                obj: ObjId::new(7),
                value: Value::new(19),
            }),
            Verdict::Violated(Violation::InternalReadInconsistency {
                txn: t(1),
                obj: ObjId::new(0),
                got: Value::new(2),
                expected: Value::new(3),
            }),
            Verdict::Violated(Violation::ConstraintCycle {
                txns: vec![t(1), t(2), t(3)],
            }),
            Verdict::Violated(Violation::NoSerialization {
                criterion: "du-opacity".to_owned(),
                explored: 12345,
            }),
            Verdict::Violated(Violation::PrefixNotFinalStateOpaque {
                prefix_len: 9,
                cause: Box::new(Violation::NoSerialization {
                    criterion: "final-state opacity".to_owned(),
                    explored: 7,
                }),
            }),
            Verdict::Violated(Violation::PrefixNotFinalStateOpaque {
                prefix_len: 3,
                cause: Box::new(Violation::LintRefuted {
                    criterion: "final-state opacity".to_owned(),
                    diagnostic: Box::new(Diagnostic {
                        rule: lint::rules()[0].id,
                        severity: Severity::Error,
                        applicability: Applicability::AllCriteria,
                        message: "a read can never be legal".to_owned(),
                        primary: Span {
                            event: 29,
                            label: "T4->2".to_owned(),
                        },
                        secondary: vec![Span {
                            event: 3,
                            label: "T1:W(X0,1)".to_owned(),
                        }],
                    }),
                }),
            }),
            Verdict::Violated(Violation::Certified {
                criterion: "du-opacity".to_owned(),
                certificate: Box::new(Certificate {
                    criterion: PlanCriterion::Du,
                    steps: vec![
                        Step {
                            from: t(1),
                            to: t(2),
                            rule: Rule::RealTime,
                        },
                        Step {
                            from: t(1),
                            to: t(2),
                            rule: Rule::ReadFrom {
                                obj: ObjId::new(3),
                                value: Value::new(7),
                                read: 11,
                            },
                        },
                        Step {
                            from: t(2),
                            to: t(1),
                            rule: Rule::AntiDependency {
                                obj: ObjId::new(3),
                                read: 5,
                            },
                        },
                        Step {
                            from: t(3),
                            to: t(2),
                            rule: Rule::InterferenceBefore {
                                read_from: 1,
                                after: 0,
                            },
                        },
                        Step {
                            from: t(1),
                            to: t(1),
                            rule: Rule::Transitive {
                                first: 0,
                                second: 2,
                            },
                        },
                    ],
                    cycle: vec![0, 2],
                }),
            }),
            Verdict::Violated(Violation::Certified {
                criterion: "TMS2".to_owned(),
                certificate: Box::new(Certificate {
                    criterion: PlanCriterion::Tms2,
                    steps: vec![
                        Step {
                            from: t(4),
                            to: t(5),
                            rule: Rule::Tms2CommitOrder {
                                obj: ObjId::new(0),
                                resp: 9,
                                tryc: 12,
                            },
                        },
                        Step {
                            from: t(5),
                            to: t(4),
                            rule: Rule::ReadCommitOrder {
                                obj: ObjId::new(1),
                                read: 2,
                                tryc: 8,
                            },
                        },
                        Step {
                            from: t(6),
                            to: t(5),
                            rule: Rule::InterferenceAfter {
                                read_from: 0,
                                before: 1,
                            },
                        },
                    ],
                    cycle: vec![0, 1],
                }),
            }),
            Verdict::Unknown {
                explored: 99,
                reason: UnknownReason::Deadline,
                partial: None,
            },
            Verdict::Unknown {
                explored: 1,
                reason: UnknownReason::WorkerDeath,
                partial: Some({
                    let mut p = PartialProgress::components(2, 5);
                    p.tiers = vec!["exact-search", "lint"];
                    p
                }),
            },
        ];
        for verdict in shapes {
            let msg = VerdictMsg {
                task_id: 7,
                explored: 1234,
                verdict,
            };
            let wire = encode_verdict_msg(&msg).unwrap();
            assert_eq!(decode_verdict_msg(&wire).unwrap(), msg, "shape: {msg:?}");
        }
    }

    #[test]
    fn verdict_fuzz_decode_never_panics() {
        // Deterministic xorshift byte soup: the decoder must always return
        // a structured result on arbitrary input — raw bytes, JSON-alphabet
        // soup behind a valid varint prefix, and truncations and byte
        // flips of a real verdict payload.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const JSON_ALPHABET: &[u8] = b"{}[],:\"\\0123456789-.eE truefalsnullTXstatuskindcause";
        for len in 0..256usize {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = decode_verdict_msg(&bytes);
            let _ = decode_task(&bytes);
            let _ = decode_hello(&bytes);
            let _ = decode_challenge(&bytes);
            let _ = decode_auth(&bytes);
            let mut soup = vec![7, 0];
            soup.extend((0..len).map(|_| JSON_ALPHABET[next() as usize % JSON_ALPHABET.len()]));
            let _ = decode_verdict_msg(&soup);
        }
        let real = encode_verdict_msg(&VerdictMsg {
            task_id: 3,
            explored: 9,
            verdict: Verdict::Violated(Violation::PrefixNotFinalStateOpaque {
                prefix_len: 4,
                cause: Box::new(Violation::LintRefuted {
                    criterion: "final-state opacity".to_owned(),
                    diagnostic: Box::new(Diagnostic {
                        rule: lint::rules()[1].id,
                        severity: Severity::Error,
                        applicability: Applicability::DuOpacityOnly,
                        message: "dirty read".to_owned(),
                        primary: Span {
                            event: 2,
                            label: "T2->1".to_owned(),
                        },
                        secondary: Vec::new(),
                    }),
                }),
            }),
        })
        .unwrap();
        for cut in 0..real.len() {
            assert!(decode_verdict_msg(&real[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..real.len() {
            let mut bad = real.clone();
            bad[i] ^= (next() as u8) | 1;
            let _ = decode_verdict_msg(&bad);
        }
    }

    #[test]
    fn challenge_round_trips() {
        let nonce = [7u8; NONCE_LEN];
        let wire = encode_challenge(&nonce);
        assert_eq!(decode_challenge(&wire).unwrap(), nonce);
        assert!(decode_challenge(b"DUOB").is_err(), "wrong magic");
        assert!(
            decode_challenge(&wire[..wire.len() - 1]).is_err(),
            "truncated nonce"
        );
    }

    #[test]
    fn auth_tag_binds_secret_and_nonce() {
        let nonce_a = [1u8; NONCE_LEN];
        let nonce_b = [2u8; NONCE_LEN];
        let tag = auth_tag(b"hunter2", &nonce_a);
        assert_eq!(tag, auth_tag(b"hunter2", &nonce_a), "deterministic");
        assert_ne!(
            tag,
            auth_tag(b"hunter2", &nonce_b),
            "a replayed tag must not verify against a fresh nonce"
        );
        assert_ne!(
            tag,
            auth_tag(b"hunter3", &nonce_a),
            "a wrong secret must not produce the right tag"
        );
        let wire = encode_auth(&tag);
        assert_eq!(decode_auth(&wire).unwrap(), tag);
        assert!(decode_auth(&wire[..TAG_LEN - 1]).is_err());
    }

    #[test]
    fn constant_time_eq_agrees_with_plain_equality() {
        assert!(constant_time_eq(b"abcd", b"abcd"));
        assert!(!constant_time_eq(b"abcd", b"abce"));
        assert!(!constant_time_eq(b"abcd", b"abc"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn siphash_reference_vector() {
        // The reference SipHash-2-4 test vector (Aumasson–Bernstein,
        // appendix A): key 000102…0f, message 000102…0e.
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let msg: Vec<u8> = (0u8..15).collect();
        assert_eq!(sip24(k0, k1, &msg), 0xa129ca6149be45e5);
    }
}
