//! The verdict JSON codec: every verdict shape the checkers produce
//! decodes back to itself, renders byte-identically to the pinned form
//! scripts and the shard wire depend on, and malformed input is a
//! structured error.

use duop_core::certificate::{Certificate, Rule, Step};
use duop_core::lint::{self, Applicability, Diagnostic, Severity, Span};
use duop_core::{PartialProgress, PlanCriterion, UnknownReason, Verdict, Violation, Witness};
use duop_history::{ObjId, TxnId, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

fn t(k: u32) -> TxnId {
    TxnId::new(k)
}

/// One verdict of every shape the checkers produce — all seven
/// violation kinds, nested causes, every rule variant — paired with
/// its JSON rendering, which scripts and the shard wire depend on.
fn shapes() -> Vec<(Verdict, &'static str)> {
    let mut choices = BTreeMap::new();
    choices.insert(t(3), true);
    choices.insert(t(9), false);
    vec![
        (
            Verdict::Satisfied(Witness::new(vec![t(1), t(3), t(2)], choices)),
            r#"{"status":"satisfied","witness":{"order":["T1","T3","T2"],"commit_choices":{"T3":true,"T9":false}}}"#,
        ),
        (
            Verdict::Violated(Violation::MissingWriter {
                txn: t(4),
                obj: ObjId::new(7),
                value: Value::new(19),
            }),
            r#"{"status":"violated","violation":{"kind":"missing-writer","message":"T4 read 19 from X7, but no admissible transaction writes that value","txn":"T4","obj":"X7","value":19}}"#,
        ),
        (
            Verdict::Violated(Violation::InternalReadInconsistency {
                txn: t(1),
                obj: ObjId::new(0),
                got: Value::new(2),
                expected: Value::new(3),
            }),
            r#"{"status":"violated","violation":{"kind":"internal-read-inconsistency","message":"T1 read 2 from X0 after writing 3 to it; no equivalent sequential history is legal","txn":"T1","obj":"X0","got":2,"expected":3}}"#,
        ),
        (
            Verdict::Violated(Violation::ConstraintCycle {
                txns: vec![t(1), t(2), t(3)],
            }),
            r#"{"status":"violated","violation":{"kind":"constraint-cycle","message":"precedence constraints are cyclic among T1, T2, T3","txns":["T1","T2","T3"]}}"#,
        ),
        (
            Verdict::Violated(Violation::NoSerialization {
                criterion: "du-opacity".to_owned(),
                explored: 12345,
            }),
            r#"{"status":"violated","violation":{"kind":"no-serialization","message":"no serialization satisfies du-opacity (explored 12345 states)","criterion":"du-opacity","explored":12345}}"#,
        ),
        (
            Verdict::Violated(Violation::PrefixNotFinalStateOpaque {
                prefix_len: 9,
                cause: Box::new(Violation::NoSerialization {
                    criterion: "final-state opacity".to_owned(),
                    explored: 7,
                }),
            }),
            r#"{"status":"violated","violation":{"kind":"prefix-not-final-state-opaque","message":"prefix of length 9 is not final-state opaque: no serialization satisfies final-state opacity (explored 7 states)","prefix_len":9,"cause":{"kind":"no-serialization","message":"no serialization satisfies final-state opacity (explored 7 states)","criterion":"final-state opacity","explored":7}}}"#,
        ),
        (
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
            r#"{"status":"violated","violation":{"kind":"prefix-not-final-state-opaque","message":"prefix of length 3 is not final-state opaque: final-state opacity refuted by lint rule WF001: a read can never be legal (at event 29: T4->2)","prefix_len":3,"cause":{"kind":"lint-refuted","message":"final-state opacity refuted by lint rule WF001: a read can never be legal (at event 29: T4->2)","criterion":"final-state opacity","diagnostic":{"rule":"WF001","severity":"error","applicability":"all-criteria","message":"a read can never be legal","primary":{"event":29,"label":"T4->2"},"secondary":[{"event":3,"label":"T1:W(X0,1)"}]}}}}"#,
        ),
        (
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
            r#"{"status":"violated","violation":{"kind":"certified","message":"du-opacity refuted by saturation: du-opacity refutation cycle (5 steps): T1 [real-time] -> T2 [anti-dependency] -> T1","criterion":"du-opacity","certificate":{"criterion":"du","steps":[{"from":1,"to":2,"rule":{"rule":"real-time"}},{"from":1,"to":2,"rule":{"rule":"read-from","obj":3,"value":7,"read":11}},{"from":2,"to":1,"rule":{"rule":"anti-dependency","obj":3,"read":5}},{"from":3,"to":2,"rule":{"rule":"interference-before","read_from":1,"after":0}},{"from":1,"to":1,"rule":{"rule":"transitive","first":0,"second":2}}],"cycle":[0,2]}}}"#,
        ),
        (
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
            r#"{"status":"violated","violation":{"kind":"certified","message":"TMS2 refuted by saturation: TMS2 refutation cycle (3 steps): T4 [tms2-commit-order] -> T5 [read-commit-order] -> T4","criterion":"TMS2","certificate":{"criterion":"tms2","steps":[{"from":4,"to":5,"rule":{"rule":"tms2-commit-order","obj":0,"resp":9,"tryc":12}},{"from":5,"to":4,"rule":{"rule":"read-commit-order","obj":1,"read":2,"tryc":8}},{"from":6,"to":5,"rule":{"rule":"interference-after","read_from":0,"before":1}}],"cycle":[0,1]}}}"#,
        ),
        (
            Verdict::Unknown {
                explored: 99,
                reason: UnknownReason::Deadline,
                partial: None,
            },
            r#"{"status":"unknown","explored":99,"reason":"deadline"}"#,
        ),
        (
            Verdict::Unknown {
                explored: 1,
                reason: UnknownReason::WorkerDeath,
                partial: Some({
                    let mut p = PartialProgress::components(2, 5);
                    p.tiers = vec!["exact-search", "lint"];
                    p
                }),
            },
            r#"{"status":"unknown","explored":1,"reason":"worker-death","partial":{"components_decided":2,"components_total":5,"tiers":["exact-search","lint"]}}"#,
        ),
    ]
}

#[test]
fn every_verdict_shape_round_trips_byte_identically() {
    for (verdict, golden) in shapes() {
        assert_eq!(serde_json::to_string(&verdict).unwrap(), golden);
        assert_eq!(
            Verdict::from_content(&verdict.to_content()).as_ref(),
            Ok(&verdict)
        );
        let back: Verdict = serde_json::from_str(golden).unwrap();
        assert_eq!(back, verdict, "{golden}");
    }
}

#[test]
fn decoding_ignores_the_rendered_message() {
    let (verdict, golden) = shapes().swap_remove(1);
    let edited = golden.replace("no admissible transaction", "somebody");
    assert_ne!(edited, golden);
    assert_eq!(serde_json::from_str::<Verdict>(&edited).unwrap(), verdict);
}

#[test]
fn malformed_verdicts_are_structured_errors() {
    for bad in [
        r#"{"status":"pending"}"#,
        r#"{"status":"satisfied","witness":{"order":["T01"],"commit_choices":{}}}"#,
        r#"{"status":"satisfied","witness":{"order":["T-1"],"commit_choices":{}}}"#,
        r#"{"status":"satisfied","witness":{"order":[1],"commit_choices":{}}}"#,
        r#"{"status":"satisfied","witness":{"order":["T4294967296"],"commit_choices":{}}}"#,
        r#"{"status":"satisfied","witness":{"order":["T1"],"commit_choices":{"X1":true}}}"#,
        r#"{"status":"violated","violation":{"kind":"missing-writer","txn":"T1","obj":"T2","value":1}}"#,
        r#"{"status":"violated","violation":{"kind":"lint-refuted","criterion":"du-opacity","diagnostic":{"rule":"ZZ999","severity":"error","applicability":"all-criteria","message":"","primary":{"event":0,"label":""},"secondary":[]}}}"#,
        r#"{"status":"violated","violation":{"kind":"certified","criterion":"du-opacity","certificate":{"criterion":"opacity","steps":[],"cycle":[]}}}"#,
        r#"{"status":"unknown","explored":1,"reason":"boredom"}"#,
        r#"{"status":"unknown","explored":1,"reason":"deadline","partial":{"components_decided":0,"components_total":1,"tiers":["guessing"]}}"#,
        r#"[]"#,
    ] {
        assert!(
            serde_json::from_str::<Verdict>(bad).is_err(),
            "accepted: {bad}"
        );
    }
    // The identifier vocabulary: the baseline transaction round-trips.
    let w = Witness::new(vec![TxnId::BASELINE, t(0)], BTreeMap::new());
    let json = serde_json::to_string(&Verdict::Satisfied(w.clone())).unwrap();
    assert_eq!(
        serde_json::from_str::<Verdict>(&json).unwrap(),
        Verdict::Satisfied(w)
    );
}

#[test]
fn prefix_nesting_is_bounded() {
    let mut v = Violation::NoSerialization {
        criterion: "opacity".to_owned(),
        explored: 0,
    };
    for depth in 1..=40 {
        v = Violation::PrefixNotFinalStateOpaque {
            prefix_len: depth,
            cause: Box::new(v),
        };
        let json = serde_json::to_string(&Verdict::Violated(v.clone())).unwrap();
        assert_eq!(
            serde_json::from_str::<Verdict>(&json).is_ok(),
            depth <= 32,
            "depth {depth}"
        );
    }
}
