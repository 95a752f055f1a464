//! Robustness corpus for the shard wire protocol: a worker fed hostile
//! or corrupted frames must produce a structured [`ProtocolError`] and a
//! usage-error exit code (2) — never a panic — whether driven in-process
//! through [`run_worker_io`] or as the real `duop shard-worker`
//! subprocess. The shard-protocol mirror of `malformed_binary.rs`.

use duop_core::SearchConfig;
use duop_history::binary::{crc32, write_varint, FRAME_END, FRAME_EVENTS, MAGIC, VERSION};
use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
use duop_shard::protocol::{
    encode_hello, encode_task, ProtocolError, TaskMsg, FRAME_HELLO, FRAME_SHUTDOWN, FRAME_TASK,
    FRAME_VERDICT, MAX_PAYLOAD_BYTES,
};
use duop_shard::run_worker_io;
use std::io::Write as _;
use std::process::{Command, Stdio};

/// A raw frame with independent control over every field, so entries can
/// be internally inconsistent (the CRC covers the type byte + payload).
fn raw_frame(ty: u8, payload: &[u8], crc: u32) -> Vec<u8> {
    let mut out = vec![ty];
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn good_frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut covered = vec![ty];
    covered.extend_from_slice(payload);
    raw_frame(ty, payload, crc32(&covered))
}

fn hello() -> Vec<u8> {
    good_frame(FRAME_HELLO, &encode_hello())
}

fn sample_task() -> TaskMsg {
    let h = HistoryBuilder::new()
        .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
        .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
        .build();
    TaskMsg {
        task_id: 0,
        attempt: 0,
        criterion: "du".to_owned(),
        search: SearchConfig {
            prelint: false,
            ladder: false,
            saturate: false,
            ..SearchConfig::default()
        },
        history: duop_history::binary::encode(&h),
    }
}

/// A 24-byte `.duob` history whose one events frame declares 2^40 events
/// and carries none, then a valid end frame.
fn huge_count_history() -> Vec<u8> {
    let mut out: Vec<u8> = MAGIC.iter().copied().chain([VERSION]).collect();
    for (ty, count) in [(FRAME_EVENTS, 1u64 << 40), (FRAME_END, 0)] {
        let mut payload = Vec::new();
        write_varint(&mut payload, count);
        out.push(ty);
        write_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
    }
    out
}

/// Each corpus entry: a label and the hostile input stream.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let task_payload = encode_task(&sample_task());

    vec![
        (
            "first-frame-not-hello",
            good_frame(FRAME_TASK, &task_payload),
        ),
        ("bad-hello-magic", {
            let mut payload = b"XUOS".to_vec();
            write_varint(&mut payload, 1);
            good_frame(FRAME_HELLO, &payload)
        }),
        ("wrong-hello-version", {
            let mut payload = b"DUOS".to_vec();
            write_varint(&mut payload, 9);
            good_frame(FRAME_HELLO, &payload)
        }),
        ("empty-hello", good_frame(FRAME_HELLO, &[])),
        ("truncated-mid-frame", {
            let h = hello();
            h[..h.len() - 3].to_vec()
        }),
        ("crc-mismatch", {
            let mut b = hello();
            let flip = b.len() - 6; // a payload byte, not the stored CRC
            b[flip] ^= 0xFF;
            b
        }),
        ("crc-of-wrong-bytes", {
            // CRC over the payload alone (omitting the type byte) must
            // not verify: the type byte is covered exactly so a frame
            // cannot be replayed as a different type.
            let payload = encode_hello();
            raw_frame(FRAME_HELLO, &payload, crc32(&payload))
        }),
        ("oversized-declared-length", {
            let mut b = vec![FRAME_TASK];
            write_varint(&mut b, (MAX_PAYLOAD_BYTES + 1) as u64);
            b
        }),
        ("unterminated-varint-length", {
            let mut b = vec![FRAME_TASK];
            b.extend_from_slice(&[0xFF; 11]);
            b
        }),
        ("unknown-frame-type", {
            let mut b = hello();
            b.extend_from_slice(&good_frame(b'Q', &[1, 2, 3]));
            b
        }),
        ("verdict-frame-to-worker", {
            // Role reversal: only coordinators receive verdict frames.
            let mut b = hello();
            b.extend_from_slice(&good_frame(FRAME_VERDICT, &[0]));
            b
        }),
        ("garbage-task-payload", {
            let mut b = hello();
            b.extend_from_slice(&good_frame(FRAME_TASK, &[0xEE; 24]));
            b
        }),
        ("truncated-task-payload", {
            let mut b = hello();
            let payload = encode_task(&sample_task());
            b.extend_from_slice(&good_frame(FRAME_TASK, &payload[..payload.len() - 4]));
            b
        }),
        ("task-unknown-flag-bits", {
            let history = sample_task().history;
            let mut payload = Vec::new();
            write_varint(&mut payload, 0); // task_id
            write_varint(&mut payload, 0); // attempt
            write_varint(&mut payload, 2); // criterion length
            payload.extend_from_slice(b"du");
            payload.push(0b1000_0000); // only bits 0-6 are defined
            write_varint(&mut payload, history.len() as u64);
            payload.extend_from_slice(&history);
            let mut b = hello();
            b.extend_from_slice(&good_frame(FRAME_TASK, &payload));
            b
        }),
        ("task-garbage-history", {
            let mut task = sample_task();
            task.history = vec![0xFF; 32];
            let mut b = hello();
            b.extend_from_slice(&good_frame(FRAME_TASK, &encode_task(&task)));
            b
        }),
        ("task-huge-declared-event-count", {
            // The declared count must size no allocation on the worker.
            let mut task = sample_task();
            task.history = huge_count_history();
            let mut b = hello();
            b.extend_from_slice(&good_frame(FRAME_TASK, &encode_task(&task)));
            b
        }),
        ("task-unknown-criterion", {
            let mut task = sample_task();
            task.criterion = "bogus".to_owned();
            let mut b = hello();
            b.extend_from_slice(&good_frame(FRAME_TASK, &encode_task(&task)));
            b
        }),
        ("shutdown-with-trailing-garbage-frame", {
            // Bytes after an orderly shutdown are never read — but a
            // corrupt frame *instead of* the handshake reply is.
            let mut b = good_frame(FRAME_SHUTDOWN, &[]);
            b.extend_from_slice(&hello());
            b
        }),
    ]
}

#[test]
fn every_corpus_entry_errors_in_process_without_panicking() {
    for (label, input) in corpus() {
        let mut output = Vec::new();
        // Returning at all is the no-panic guarantee; all entries except
        // the shutdown-first one must surface a structured error.
        let result = run_worker_io(&input[..], &mut output);
        if label == "shutdown-with-trailing-garbage-frame" {
            assert!(
                matches!(
                    result,
                    Err(ProtocolError::Malformed {
                        context: "handshake",
                        ..
                    })
                ),
                "{label}: a shutdown before the handshake is still a protocol breach"
            );
            continue;
        }
        let err = result.expect_err(label);
        assert!(
            matches!(err, ProtocolError::Malformed { .. } | ProtocolError::Io(_)),
            "{label}: unexpected error shape {err:?}"
        );
        if label == "task-unknown-flag-bits" {
            assert!(
                matches!(
                    err,
                    ProtocolError::Malformed {
                        context: "task flags",
                        ..
                    }
                ),
                "{label}: the flags byte, not a later field, must be refused: {err:?}"
            );
        }
        let rendered = err.to_string();
        assert!(
            rendered.contains("malformed") || rendered.contains("i/o error"),
            "{label}: error does not explain itself: {rendered}"
        );
    }
}

#[test]
fn truncation_at_every_offset_never_panics() {
    // A valid two-frame session (hello, then shutdown), cut at every
    // byte offset. Cuts at frame boundaries are a clean EOF (Ok); cuts
    // inside a frame are structured errors. Nothing may panic.
    let mut valid = hello();
    valid.extend_from_slice(&good_frame(FRAME_SHUTDOWN, &[]));
    for cut in 0..=valid.len() {
        let mut output = Vec::new();
        let _ = run_worker_io(&valid[..cut], &mut output);
    }
}

#[test]
fn worker_subprocess_exits_2_on_every_corpus_entry() {
    for (label, input) in corpus() {
        let mut child = Command::new(env!("CARGO_BIN_EXE_duop"))
            .arg("shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn shard-worker");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(&input)
            .ok(); // the worker may exit before reading everything
        let out = child.wait_with_output().expect("worker terminates");
        let code = out.status.code();
        assert_eq!(
            code,
            Some(2),
            "{label}: shard-worker should exit 2 (a panic would be 101), stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("duop shard-worker:"),
            "{label}: stderr should carry the structured error"
        );
    }
}

#[test]
fn worker_subprocess_is_orderly_on_clean_streams() {
    for (label, input) in [
        ("empty-stream", Vec::new()),
        ("hello-then-eof", hello()),
        ("hello-then-shutdown", {
            let mut b = hello();
            b.extend_from_slice(&good_frame(FRAME_SHUTDOWN, &[]));
            b
        }),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_duop"))
            .arg("shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn shard-worker");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(&input)
            .unwrap();
        let out = child.wait_with_output().expect("worker terminates");
        assert_eq!(out.status.code(), Some(0), "{label}: orderly shutdown");
    }
}
