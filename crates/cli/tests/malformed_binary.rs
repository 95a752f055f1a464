//! Robustness corpus for the `.duob` binary trace format: hostile and
//! corrupted inputs must produce a structured parse error and a usage-error
//! exit code — never a panic — from every trace-consuming subcommand. The
//! binary mirror of `malformed_traces.rs`.

use duop_history::binary::{
    self, crc32, write_varint, BinaryParseError, FRAME_END, FRAME_EVENTS, MAGIC, VERSION,
};
use duop_history::trace::TraceParseError;
use duop_history::{HistoryBuilder, ObjId, TxnId, Value};

/// A small valid history whose encoding the corpus mutates.
fn sample_bytes() -> Vec<u8> {
    let h = HistoryBuilder::new()
        .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
        .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
        .build();
    binary::encode(&h)
}

/// Appends a syntactically well-formed frame (length prefix and CRC are
/// consistent) with the given type byte and payload.
fn push_frame(out: &mut Vec<u8>, ty: u8, payload: &[u8]) {
    out.push(ty);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Each corpus entry: a label and the hostile bytes.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let valid = sample_bytes();
    let header: Vec<u8> = MAGIC.iter().copied().chain([VERSION]).collect();

    // An empty input is deliberately absent: with nothing to sniff it is
    // a valid empty *text* trace, not a truncated binary one.
    let mut entries: Vec<(&'static str, Vec<u8>)> = vec![
        ("truncated-magic", b"DUO".to_vec()),
        ("bad-magic", {
            let mut b = valid.clone();
            b[0] = b'X';
            b
        }),
        ("wrong-version", {
            let mut b = valid.clone();
            b[4] = 9;
            b
        }),
        ("header-only", header.clone()),
        ("truncated-mid-frame", valid[..header.len() + 3].to_vec()),
        ("truncated-before-crc", valid[..valid.len() - 9].to_vec()),
        ("truncated-last-byte", valid[..valid.len() - 1].to_vec()),
        ("crc-mismatch", {
            // Flip one payload byte of the first frame; its stored CRC no
            // longer matches.
            let mut b = valid.clone();
            let i = header.len() + 2;
            b[i] ^= 0xFF;
            b
        }),
        ("trailing-bytes", {
            let mut b = valid.clone();
            b.extend_from_slice(b"extra");
            b
        }),
        ("unknown-frame-type", {
            let mut b = header.clone();
            push_frame(&mut b, b'Q', &[1, 2, 3]);
            b
        }),
        ("oversized-varint-frame-len", {
            // Eleven continuation bytes can never terminate a varint.
            let mut b = header.clone();
            b.push(FRAME_EVENTS);
            b.extend_from_slice(&[0xFF; 11]);
            b
        }),
        ("frame-too-large", {
            let mut b = header.clone();
            b.push(FRAME_EVENTS);
            write_varint(&mut b, (binary::MAX_FRAME_BYTES + 1) as u64);
            b
        }),
        ("unknown-event-tag", {
            let mut b = header.clone();
            let mut payload = Vec::new();
            write_varint(&mut payload, 1); // one event in the chunk
            payload.push(0xEE); // no such tag
            write_varint(&mut payload, 1);
            push_frame(&mut b, FRAME_EVENTS, &payload);
            b
        }),
        ("event-txn-id-out-of-range", {
            let mut b = header.clone();
            let mut payload = Vec::new();
            write_varint(&mut payload, 1);
            payload.push(2); // tryC invocation tag
            write_varint(&mut payload, u64::from(u32::MAX)); // reserved id
            push_frame(&mut b, FRAME_EVENTS, &payload);
            b
        }),
        ("end-frame-count-mismatch", {
            // A valid-looking end frame declaring more events than the
            // stream carried.
            let mut b = header.clone();
            let mut payload = Vec::new();
            write_varint(&mut payload, 99);
            push_frame(&mut b, FRAME_END, &payload);
            b
        }),
        ("huge-declared-event-count", {
            // An events frame that declares 2^40 events and carries none,
            // then a valid end frame: the declared count must size no
            // allocation.
            let mut b = header.clone();
            let mut payload = Vec::new();
            write_varint(&mut payload, 1 << 40);
            push_frame(&mut b, FRAME_EVENTS, &payload);
            let mut end = Vec::new();
            write_varint(&mut end, 0);
            push_frame(&mut b, FRAME_END, &end);
            b
        }),
        ("events-after-end-frame", {
            // Splice a second copy of the stream after the end frame.
            let mut b = valid.clone();
            b.extend_from_slice(&valid[header.len()..]);
            b
        }),
    ];

    // A Z-frame whose payload is empty (count missing entirely).
    let mut empty_end = header;
    push_frame(&mut empty_end, FRAME_END, &[]);
    entries.push(("end-frame-missing-count", empty_end));

    entries
}

fn temp_trace(label: &str, content: &[u8]) -> String {
    let path = std::env::temp_dir().join(format!(
        "duop-malformed-bin-{}-{label}.duob",
        std::process::id()
    ));
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

/// Runs the CLI in-process; a panic would abort the test, so returning at
/// all is the no-panic guarantee.
fn run(args: &[&str]) -> (i32, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = duop_cli::run(&argv, &mut out);
    (code, String::from_utf8_lossy(&out).into_owned())
}

#[test]
fn every_subcommand_rejects_every_malformed_binary_without_panicking() {
    for (label, content) in corpus() {
        let path = temp_trace(label, &content);
        for sub in ["check", "lint", "monitor", "render", "convert"] {
            let args: &[&str] = if sub == "convert" {
                &["convert", &path, "--format", "text"]
            } else {
                &[sub, &path]
            };
            let (code, output) = run(args);
            assert_eq!(
                code, 2,
                "`duop {sub}` on {label} should exit 2, output:\n{output}"
            );
            assert!(
                output.contains("error:"),
                "`duop {sub}` on {label} should explain itself, output:\n{output}"
            );
        }
    }
}

#[test]
fn corpus_errors_decode_to_the_expected_variants() {
    let expect = |label: &str| {
        let (_, content) = corpus()
            .into_iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no corpus entry {label}"));
        binary::decode(&content).expect_err(label)
    };
    assert!(matches!(expect("bad-magic"), BinaryParseError::BadMagic));
    assert!(matches!(
        expect("wrong-version"),
        BinaryParseError::UnsupportedVersion(9)
    ));
    assert!(matches!(
        expect("crc-mismatch"),
        BinaryParseError::CrcMismatch { .. }
    ));
    assert!(matches!(
        expect("truncated-last-byte"),
        BinaryParseError::Truncated { .. }
    ));
    assert!(matches!(
        expect("oversized-varint-frame-len"),
        BinaryParseError::OversizedVarint { .. }
    ));
    assert!(matches!(
        expect("unknown-frame-type"),
        BinaryParseError::UnknownFrameType { byte: b'Q', .. }
    ));
    assert!(matches!(
        expect("unknown-event-tag"),
        BinaryParseError::UnknownEventTag { byte: 0xEE }
    ));
    assert!(matches!(
        expect("frame-too-large"),
        BinaryParseError::FrameTooLarge { .. }
    ));
    assert!(matches!(
        expect("end-frame-count-mismatch"),
        BinaryParseError::CountMismatch { declared: 99, .. }
    ));
    assert!(matches!(
        expect("header-only"),
        BinaryParseError::MissingEndFrame | BinaryParseError::Truncated { .. }
    ));
    assert!(matches!(
        expect("trailing-bytes"),
        BinaryParseError::TrailingBytes { .. }
    ));
    assert!(matches!(
        expect("event-txn-id-out-of-range"),
        BinaryParseError::IdOutOfRange { .. }
    ));
    assert!(matches!(
        expect("huge-declared-event-count"),
        BinaryParseError::Truncated { .. }
    ));
}

#[test]
fn every_corpus_error_is_json_formattable() {
    for (label, content) in corpus() {
        let err: TraceParseError = binary::decode(&content)
            .map(|_| ())
            .expect_err(&format!("{label} must fail to decode"))
            .into();
        let json = serde_json::to_string(&err.to_content())
            .unwrap_or_else(|e| panic!("{label}: error does not serialize: {e}"));
        assert!(json.contains("\"error\":"), "{label}: {json}");
        assert!(json.contains("\"message\":"), "{label}: {json}");
    }
}

#[test]
fn truncation_at_every_offset_errors_cleanly() {
    // Exhaustive prefix sweep: no cut point may panic, and every strict
    // prefix of a valid stream must be rejected (the end frame makes a
    // truncated stream detectable at any offset).
    let valid = sample_bytes();
    for cut in 0..valid.len() {
        let err = binary::decode(&valid[..cut]);
        assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
    }
    assert!(binary::decode(&valid).is_ok());
}
