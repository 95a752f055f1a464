//! Robustness corpus: hostile and corrupted checkpoint files must make
//! `duop resume` exit with a structured error and the usage-error exit
//! code — never a panic, and never a silently wrong verdict from a
//! mangled snapshot. Mirrors the malformed-trace corpus from the fault
//! injection work.

use duop_core::snapshot::{self, load, CheckSnapshot, InFlight, Snapshot, SnapshotError};
use duop_history::{HistoryBuilder, ObjId, TxnId, Value};

/// A well-formed checkpoint file body to corrupt.
fn good_checkpoint() -> String {
    let h = HistoryBuilder::new()
        .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
        .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
        .build();
    snapshot::to_file_string(&Snapshot::Check(CheckSnapshot {
        events: h.events().to_vec(),
        criteria: vec!["du".to_string()],
        format: "text".to_string(),
        escalate_milli: 2000,
        current: Some(InFlight {
            name: "du".to_string(),
            explored: 17,
            fragments: Vec::new(),
        }),
        ..CheckSnapshot::default()
    }))
}

/// Each corpus entry: a label and the hostile checkpoint bytes.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let good = good_checkpoint();
    let mut entries: Vec<(&'static str, Vec<u8>)> = vec![
        ("empty-file", Vec::new()),
        ("not-json", b"this is not a checkpoint\n".to_vec()),
        ("json-but-not-object", b"[1, 2, 3]\n".to_vec()),
        ("truncated-half", good.as_bytes()[..good.len() / 2].to_vec()),
        (
            "truncated-one-byte",
            good.as_bytes()[..good.len() - 2].to_vec(),
        ),
        (
            "wrong-version",
            good.replacen("\"version\":1", "\"version\":99", 1)
                .into_bytes(),
        ),
        (
            "missing-version",
            good.replacen("\"version\":1,", "", 1).into_bytes(),
        ),
        ("bad-hash-field", {
            let hash_start = good.find("\"hash\":\"").unwrap() + 8;
            let mut bad = good.clone().into_bytes();
            bad[hash_start] = b'z';
            bad
        }),
        (
            "wrong-kind",
            good.replacen("\"kind\":\"check\"", "\"kind\":\"cheque\"", 1)
                .into_bytes(),
        ),
        ("nul-bytes", b"\0\0\0\0".to_vec()),
        (
            // Valid JSON, tampered content: the integrity hash must catch
            // a payload edit that the parser cannot.
            "value-tamper",
            good.replacen("\"explored\":17", "\"explored\":71", 1)
                .into_bytes(),
        ),
    ];
    // Bit-flips inside the payload: the hash must catch every one. Flip a
    // byte at several positions past the payload marker.
    let payload_at = good.find("\"payload\":").unwrap() + 12;
    for (label, offset) in [
        ("bit-flip-early", payload_at),
        (
            "bit-flip-middle",
            payload_at + (good.len() - payload_at) / 2,
        ),
        ("bit-flip-late", good.len() - 4),
    ] {
        let mut bytes = good.clone().into_bytes();
        bytes[offset] ^= 0x20;
        entries.push((label, bytes));
    }
    entries
}

fn temp_checkpoint(label: &str, content: &[u8]) -> String {
    let path = std::env::temp_dir().join(format!("duop-badck-{}-{label}.json", std::process::id()));
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
fn resume_rejects_every_corrupt_checkpoint_without_panicking() {
    for (label, content) in corpus() {
        let path = temp_checkpoint(label, &content);
        let (code, output) = run(&["resume", &path]);
        assert_eq!(
            code, 2,
            "`duop resume` on {label} should exit 2, output:\n{output}"
        );
        assert!(
            output.contains("error:"),
            "`duop resume` on {label} should explain itself, output:\n{output}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn missing_checkpoint_is_an_io_error() {
    let (code, output) = run(&["resume", "/nonexistent/duop-no-such.ck"]);
    assert_eq!(code, 2, "output:\n{output}");
    assert!(output.contains("error:"), "output:\n{output}");
}

#[test]
fn corrupt_checkpoints_map_to_the_right_structured_errors() {
    let cases = corpus();
    let expect = |label: &str| {
        cases
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(l, c)| (temp_checkpoint(l, c), *l))
            .unwrap()
    };
    type Matcher<'a> = &'a dyn Fn(&SnapshotError) -> bool;
    for (label, matcher) in [
        (
            "truncated-half",
            (&|e: &SnapshotError| matches!(e, SnapshotError::Syntax(_))) as Matcher,
        ),
        ("wrong-version", &|e| {
            matches!(e, SnapshotError::WrongVersion { found: 99 })
        }),
        // A blind bit-flip may hit a structural byte (Syntax) or only
        // content (HashMismatch); either way it must be caught.
        ("bit-flip-middle", &|e| {
            matches!(
                e,
                SnapshotError::HashMismatch | SnapshotError::Syntax(_) | SnapshotError::Shape(_)
            )
        }),
        ("value-tamper", &|e| {
            matches!(e, SnapshotError::HashMismatch)
        }),
        ("wrong-kind", &|e| {
            matches!(e, SnapshotError::HashMismatch | SnapshotError::Shape(_))
        }),
    ] {
        let (path, label) = expect(label);
        let err = load(&path).expect_err(label);
        assert!(matcher(&err), "{label}: got {err:?}");
        let _ = std::fs::remove_file(&path);
    }
    let err = load("/nonexistent/duop-no-such.ck").expect_err("missing file");
    assert!(matches!(err, SnapshotError::Io(_)), "got {err:?}");
}

#[test]
fn the_uncorrupted_checkpoint_actually_resumes() {
    // The corpus is only meaningful if its base file is valid: the same
    // bytes with no corruption must load and resume to a verdict.
    let path = temp_checkpoint("pristine", good_checkpoint().as_bytes());
    let loaded = load(&path).expect("pristine checkpoint must load");
    assert!(matches!(loaded, Snapshot::Check(_)));
    let (code, output) = run(&["resume", &path]);
    assert_eq!(code, 0, "pristine resume should succeed, output:\n{output}");
    assert!(output.contains("du-opacity"), "output:\n{output}");
    let _ = std::fs::remove_file(&path);
}
