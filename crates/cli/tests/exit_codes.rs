//! The exit-code contract, in one table: every verdict-bearing
//! subcommand exits 0 when everything it checked holds, 1 when it found
//! a violation (or a fuzz finding), and 2 on malformed input or usage
//! errors. Scripts and CI steps branch on these codes, so the table is
//! pinned across all six subcommands — check, lint, fuzz, monitor,
//! localize, and resume.

use duop_core::snapshot::{self, CheckSnapshot, InFlight, Snapshot};
use duop_history::trace::parse_trace;

const GOOD: &str =
    "T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\nT2 read X0\nT2 val 1\nT2 tryc\nT2 commit\n";
const BAD: &str =
    "T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\nT2 read X0\nT2 val 9\nT2 tryc\nT2 commit\n";
const MALFORMED: &str = "T1 frobnicate\n";

fn temp_file(label: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(format!("duop-exit-{}-{label}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

/// A valid checkpoint whose resumed check yields the given trace's
/// verdict.
fn checkpoint_for(label: &str, trace: &str) -> String {
    let events = parse_trace(trace).unwrap().events().to_vec();
    let body = snapshot::to_file_string(&Snapshot::Check(CheckSnapshot {
        events,
        criteria: vec!["du".to_string()],
        format: "text".to_string(),
        escalate_milli: 2000,
        current: Some(InFlight {
            name: "du".to_string(),
            explored: 0,
            fragments: Vec::new(),
        }),
        ..CheckSnapshot::default()
    }));
    temp_file(label, &body)
}

fn run(args: &[String]) -> (i32, String) {
    let mut out = Vec::new();
    let code = duop_cli::run(args, &mut out);
    (code, String::from_utf8_lossy(&out).into_owned())
}

#[test]
fn every_subcommand_honors_the_exit_code_table() {
    let good = temp_file("good.trace", GOOD);
    let bad = temp_file("bad.trace", BAD);
    let malformed = temp_file("malformed.trace", MALFORMED);
    let ck_good = checkpoint_for("good.ck", GOOD);
    let ck_bad = checkpoint_for("bad.ck", BAD);
    let ck_corrupt = temp_file("corrupt.ck", "not a checkpoint\n");

    // (label, argv, expected exit code)
    let table: Vec<(&str, Vec<String>, i32)> = vec![
        ("check satisfied", vec!["check".into(), good.clone()], 0),
        ("check violated", vec!["check".into(), bad.clone()], 1),
        (
            "check malformed",
            vec!["check".into(), malformed.clone()],
            2,
        ),
        (
            "check bad flag",
            vec![
                "check".into(),
                good.clone(),
                "--escalate".into(),
                "0.5".into(),
            ],
            2,
        ),
        ("lint clean", vec!["lint".into(), good.clone()], 0),
        ("lint diagnosed", vec!["lint".into(), bad.clone()], 1),
        ("lint malformed", vec!["lint".into(), malformed.clone()], 2),
        (
            "fuzz safe engine",
            vec![
                "fuzz".into(),
                "--engine".into(),
                "tl2".into(),
                "--iters".into(),
                "5".into(),
                "--seed".into(),
                "1".into(),
            ],
            0,
        ),
        (
            "fuzz finding",
            vec![
                "fuzz".into(),
                "--engine".into(),
                "dirty".into(),
                "--iters".into(),
                "40".into(),
                "--seed".into(),
                "3".into(),
            ],
            1,
        ),
        (
            "fuzz finding (json)",
            vec![
                "fuzz".into(),
                "--engine".into(),
                "dirty".into(),
                "--iters".into(),
                "40".into(),
                "--seed".into(),
                "3".into(),
                "--format".into(),
                "json".into(),
            ],
            1,
        ),
        (
            "fuzz unknown engine",
            vec!["fuzz".into(), "--engine".into(), "warp".into()],
            2,
        ),
        ("monitor satisfied", vec!["monitor".into(), good.clone()], 0),
        ("monitor violated", vec!["monitor".into(), bad.clone()], 1),
        (
            "monitor malformed",
            vec!["monitor".into(), malformed.clone()],
            2,
        ),
        (
            "localize satisfied",
            vec!["localize".into(), good.clone()],
            0,
        ),
        ("localize violated", vec!["localize".into(), bad.clone()], 1),
        (
            "localize malformed",
            vec!["localize".into(), malformed.clone()],
            2,
        ),
        (
            "resume to satisfied",
            vec!["resume".into(), ck_good.clone()],
            0,
        ),
        (
            "resume to violated",
            vec!["resume".into(), ck_bad.clone()],
            1,
        ),
        (
            "resume corrupt",
            vec!["resume".into(), ck_corrupt.clone()],
            2,
        ),
        (
            "resume missing file",
            vec!["resume".into(), "/nonexistent/duop.ck".into()],
            2,
        ),
        ("unknown subcommand", vec!["transmogrify".into()], 2),
    ];

    for (label, argv, expected) in table {
        let (code, output) = run(&argv);
        assert_eq!(
            code, expected,
            "{label}: expected exit {expected}, got {code}, output:\n{output}"
        );
        if expected == 2 {
            assert!(
                output.contains("error:"),
                "{label}: exit-2 runs must explain themselves, output:\n{output}"
            );
        }
    }

    for f in [good, bad, malformed, ck_good, ck_bad, ck_corrupt] {
        let _ = std::fs::remove_file(f);
    }
}
