//! Tampered-certificate corpus: harvest real certificates from the
//! saturation engine over generated histories, then mutate every field —
//! edge endpoints, rule payloads (objects, values, event spans), premise
//! indices, cycle contents — and assert [`check_certificate`] rejects
//! each mutant with a structured [`CertificateError`], never a panic.
//!
//! Only mutations that are *guaranteed* invalid are asserted rejected
//! (e.g. reversing a real-time edge, pointing an event span at an event
//! the named transaction does not own, or making a premise reference
//! non-well-founded). Mutations that could accidentally produce a
//! different-but-true derivation are excluded by construction: object and
//! value bumps use offsets far outside the generators' ranges.
//!
//! At the CLI boundary a rejected certificate surfaces as an `Err` from
//! `duop check --certify` / `duop certify`, which `run()` maps to exit
//! code 2 (covered by the cli `exit_codes` suite).

use duop_core::certificate::{Certificate, CertificateError, Rule, Step};
use duop_core::{check_certificate, saturate, PlanCriterion, SaturationOutcome};
use duop_gen::{HistoryGen, HistoryGenConfig};
use duop_history::{History, ObjId, TxnId, Value};

const CRITERIA: [PlanCriterion; 5] = [
    PlanCriterion::FinalState,
    PlanCriterion::Du,
    PlanCriterion::Rco,
    PlanCriterion::Tms2,
    PlanCriterion::Strict,
];

/// A transaction id no generated history contains.
const GHOST: TxnId = TxnId::new(41_999);
/// Offsets far outside the generators' object/value/event ranges.
const OBJ_BUMP: u32 = 57;
const VALUE_BUMP: u64 = 9_001;
const EVENT_FAR: usize = usize::MAX / 2;

/// Harvests `(prepared history, certificate)` pairs from the saturation
/// engine over both generator modes and all criteria. Every certificate
/// is validated before being admitted to the corpus.
fn harvest(seeds: u64) -> Vec<(History, Certificate)> {
    let mut corpus = Vec::new();
    for cfg in [
        HistoryGenConfig::small_adversarial(),
        HistoryGenConfig::small_simulated(),
    ] {
        for seed in 0..seeds {
            let h = HistoryGen::new(cfg.clone(), seed).generate();
            for criterion in CRITERIA {
                if let SaturationOutcome::Refuted(cert) = saturate(&h, criterion) {
                    let prepared = criterion.prepare(&h);
                    let hh = prepared.unwrap_or_else(|| h.clone());
                    assert_eq!(
                        check_certificate(&hh, &cert),
                        Ok(()),
                        "harvested certificate is invalid at seed {seed}: {cert}"
                    );
                    corpus.push((hh, cert));
                }
            }
        }
    }
    corpus
}

/// All guaranteed-invalid single-field mutations of `cert`. Each entry is
/// a label (for failure messages) plus the mutant.
fn mutations(cert: &Certificate) -> Vec<(String, Certificate)> {
    let mut out: Vec<(String, Certificate)> = Vec::new();
    let mut push = |label: String, mutant: Certificate| out.push((label, mutant));

    for (i, step) in cert.steps.iter().enumerate() {
        // Endpoint tampering: ghost transactions, self edges, reversal.
        let mut m = cert.clone();
        m.steps[i].from = GHOST;
        push(format!("step {i}: from -> ghost txn"), m);

        let mut m = cert.clone();
        m.steps[i].to = GHOST;
        push(format!("step {i}: to -> ghost txn"), m);

        let mut m = cert.clone();
        m.steps[i].from = step.to;
        push(format!("step {i}: from == to (self edge)"), m);

        // Reversal: every rule pins at least one event span or premise
        // endpoint to the original orientation, so the reverse edge can
        // never re-derive.
        let mut m = cert.clone();
        m.steps[i].from = step.to;
        m.steps[i].to = step.from;
        push(format!("step {i}: reversed edge"), m);

        // Rule-payload tampering, per variant.
        match step.rule {
            Rule::RealTime => {}
            Rule::ReadFrom { obj, value, read } => {
                let mut m = cert.clone();
                m.steps[i].rule = Rule::ReadFrom {
                    obj: ObjId::new(obj.index() + OBJ_BUMP),
                    value,
                    read,
                };
                push(format!("step {i}: read-from obj bumped"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::ReadFrom {
                    obj,
                    value: Value::new(value.get() + VALUE_BUMP),
                    read,
                };
                push(format!("step {i}: read-from value bumped"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::ReadFrom {
                    obj,
                    value: Value::INITIAL,
                    read,
                };
                push(format!("step {i}: read-from value -> initial"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::ReadFrom {
                    obj,
                    value,
                    read: EVENT_FAR,
                };
                push(format!("step {i}: read-from span out of range"), m);
            }
            Rule::AntiDependency { obj, read } => {
                let mut m = cert.clone();
                m.steps[i].rule = Rule::AntiDependency {
                    obj: ObjId::new(obj.index() + OBJ_BUMP),
                    read,
                };
                push(format!("step {i}: anti-dependency obj bumped"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::AntiDependency {
                    obj,
                    read: EVENT_FAR,
                };
                push(format!("step {i}: anti-dependency span out of range"), m);
            }
            Rule::ReadCommitOrder { obj, read, tryc } => {
                let mut m = cert.clone();
                m.steps[i].rule = Rule::ReadCommitOrder {
                    obj: ObjId::new(obj.index() + OBJ_BUMP),
                    read,
                    tryc,
                };
                push(format!("step {i}: rco obj bumped"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::ReadCommitOrder {
                    obj,
                    read: EVENT_FAR,
                    tryc,
                };
                push(format!("step {i}: rco read span out of range"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::ReadCommitOrder {
                    obj,
                    read,
                    tryc: EVENT_FAR,
                };
                push(format!("step {i}: rco tryc span out of range"), m);
            }
            Rule::Tms2CommitOrder { obj, resp, tryc } => {
                let mut m = cert.clone();
                m.steps[i].rule = Rule::Tms2CommitOrder {
                    obj: ObjId::new(obj.index() + OBJ_BUMP),
                    resp,
                    tryc,
                };
                push(format!("step {i}: tms2 obj bumped"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::Tms2CommitOrder {
                    obj,
                    resp: EVENT_FAR,
                    tryc,
                };
                push(format!("step {i}: tms2 resp span out of range"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::Tms2CommitOrder {
                    obj,
                    resp,
                    tryc: EVENT_FAR,
                };
                push(format!("step {i}: tms2 tryc span out of range"), m);
            }
            Rule::Transitive { first, second } => {
                let mut m = cert.clone();
                m.steps[i].rule = Rule::Transitive { first: i, second };
                push(format!("step {i}: transitive first premise not earlier"), m);

                let mut m = cert.clone();
                m.steps[i].rule = Rule::Transitive { first, second: i };
                push(
                    format!("step {i}: transitive second premise not earlier"),
                    m,
                );
            }
            Rule::InterferenceAfter { read_from, before } => {
                let mut m = cert.clone();
                m.steps[i].rule = Rule::InterferenceAfter {
                    read_from: i,
                    before,
                };
                push(
                    format!("step {i}: interference-after rf premise not earlier"),
                    m,
                );

                let mut m = cert.clone();
                m.steps[i].rule = Rule::InterferenceAfter {
                    read_from,
                    before: i,
                };
                push(
                    format!("step {i}: interference-after before premise not earlier"),
                    m,
                );
            }
            Rule::InterferenceBefore { read_from, after } => {
                let mut m = cert.clone();
                m.steps[i].rule = Rule::InterferenceBefore {
                    read_from: i,
                    after,
                };
                push(
                    format!("step {i}: interference-before rf premise not earlier"),
                    m,
                );

                let mut m = cert.clone();
                m.steps[i].rule = Rule::InterferenceBefore {
                    read_from,
                    after: i,
                };
                push(
                    format!("step {i}: interference-before after premise not earlier"),
                    m,
                );
            }
        }

        // Scope tampering: smuggle a scope-gated rule into a certificate
        // whose criterion does not admit it.
        if cert.criterion != PlanCriterion::Rco {
            let mut m = cert.clone();
            m.steps[i].rule = Rule::ReadCommitOrder {
                obj: ObjId::new(0),
                read: 0,
                tryc: 1,
            };
            push(format!("step {i}: rco rule outside rco scope"), m);
        }
        if cert.criterion != PlanCriterion::Tms2 {
            let mut m = cert.clone();
            m.steps[i].rule = Rule::Tms2CommitOrder {
                obj: ObjId::new(0),
                resp: 0,
                tryc: 1,
            };
            push(format!("step {i}: tms2 rule outside tms2 scope"), m);
        }
    }

    // Cycle tampering.
    let mut m = cert.clone();
    m.cycle.clear();
    push("cycle emptied".into(), m);

    let mut m = cert.clone();
    m.cycle.push(cert.steps.len() + 7);
    push("cycle index out of range".into(), m);

    if let Some(&head) = cert.cycle.first() {
        // Duplicating the head breaks the chain: a valid step is never a
        // self edge, so `steps[head].to != steps[head].from`.
        let mut m = cert.clone();
        m.cycle.insert(0, head);
        push("cycle head duplicated".into(), m);
    }

    // Dropping the last edge of a simple cycle leaves the chain open.
    let txns = cert.cycle_txns();
    let simple = {
        let mut seen = txns.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len() == txns.len()
    };
    if simple && cert.cycle.len() >= 2 {
        let mut m = cert.clone();
        m.cycle.pop();
        push("cycle last edge dropped".into(), m);
    }

    // Truncating the step list strands every cycle reference to the tail.
    if let Some(&max) = cert.cycle.iter().max() {
        if max > 0 {
            let mut m = cert.clone();
            m.steps.truncate(max);
            push("steps truncated below cycle".into(), m);
        }
    }

    out
}

#[test]
fn every_tampered_certificate_is_rejected_with_a_structured_error() {
    let corpus = harvest(120);
    assert!(
        corpus.len() >= 40,
        "corpus too small: only {} certificates harvested",
        corpus.len()
    );

    // The corpus must exercise a healthy slice of the rule vocabulary,
    // or the mutation sweep proves less than it claims.
    let mut tags: Vec<&str> = corpus
        .iter()
        .flat_map(|(_, c)| c.steps.iter().map(|s| s.rule.tag()))
        .collect();
    tags.sort_unstable();
    tags.dedup();
    assert!(
        tags.len() >= 4,
        "only rule tags {tags:?} appear in the harvested corpus"
    );

    let mut mutants = 0usize;
    for (h, cert) in &corpus {
        for (label, mutant) in mutations(cert) {
            // `check_certificate` must reject — and must not panic. The
            // error's Display form is the structured message the CLI
            // prints before exiting 2.
            let err = check_certificate(h, &mutant)
                .expect_err(&format!("mutant accepted: {label}\n{cert}"));
            assert!(
                !err.to_string().is_empty(),
                "empty error rendering for: {label}"
            );
            mutants += 1;
        }
    }
    assert!(mutants > 500, "only {mutants} mutants exercised");
}

#[test]
fn hand_built_cross_criterion_scope_confusion_is_rejected() {
    // A certificate harvested under one criterion must not validate under
    // a scope that gates its rules: an RCO commit-order edge is only
    // sound where read-commit-order is actually required. Relabeling to
    // final-state keeps every other rule's semantics identical (both run
    // with the non-du supplier conditions), so the first defect the
    // validator can find is precisely the scope violation.
    let mut found = false;
    for seed in 0..200u64 {
        let h = HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate();
        if let SaturationOutcome::Refuted(cert) = saturate(&h, PlanCriterion::Rco) {
            if cert
                .steps
                .iter()
                .any(|s| matches!(s.rule, Rule::ReadCommitOrder { .. }))
            {
                let mut relabeled = cert.clone();
                relabeled.criterion = PlanCriterion::FinalState;
                let prepared = PlanCriterion::Rco.prepare(&h);
                let hh = prepared.unwrap_or_else(|| h.clone());
                assert!(
                    matches!(
                        check_certificate(&hh, &relabeled),
                        Err(CertificateError::WrongScope { .. })
                    ),
                    "relabeled rco certificate was not scope-rejected"
                );
                found = true;
                break;
            }
        }
    }
    assert!(
        found,
        "no rco certificate with a read-commit-order step found in 200 seeds"
    );
}

#[test]
fn du_interference_through_a_non_eligible_writer_is_rejected() {
    // Seed 303 of the six-transaction hotspot corpus is du-opaque
    // (T1 < T3 < T2 < T4 < T6 < T5): T5's read of X0 = 3 has the local
    // writer T2 and the global writer T6. This certificate treats T5 as
    // an interferer for T4's read, but T5 is not tryC-eligible for it and
    // T6 can restore X0 = 3 after it, so step 2 does not hold.
    use duop_gen::KeyDist;
    let cfg = HistoryGenConfig::small_adversarial()
        .with_txns(6)
        .with_key_dist(KeyDist::Hotspot {
            hot_fraction: 0.25,
            hot_prob: 0.9,
        });
    let h = HistoryGen::new(cfg, 303).generate();
    let (x0, three) = (ObjId::new(0), Value::new(3));
    let step = |from: u32, to: u32, rule: Rule| Step {
        from: TxnId::new(from),
        to: TxnId::new(to),
        rule,
    };
    let read_from = |read: usize| Rule::ReadFrom {
        obj: x0,
        value: three,
        read,
    };
    let cert = Certificate {
        criterion: PlanCriterion::Du,
        steps: vec![
            step(2, 5, Rule::RealTime),
            step(2, 4, read_from(13)),
            step(
                4,
                5,
                Rule::InterferenceAfter {
                    read_from: 1,
                    before: 0,
                },
            ),
            step(2, 5, read_from(16)),
            step(
                4,
                2,
                Rule::InterferenceBefore {
                    read_from: 3,
                    after: 2,
                },
            ),
            step(2, 4, read_from(13)),
        ],
        cycle: vec![5, 4],
    };
    assert!(
        matches!(
            check_certificate(&h, &cert),
            Err(CertificateError::AxiomUnsupported { step: 2, .. })
        ),
        "non-eligible interferer accepted: {:?}",
        check_certificate(&h, &cert)
    );
    assert!(
        !matches!(
            saturate(&h, PlanCriterion::Du),
            SaturationOutcome::Refuted(_)
        ),
        "saturation still refutes a du-opaque history:\n{h}"
    );
}

#[test]
fn fabricated_real_time_cycle_is_rejected_on_every_history() {
    // Real-time order is a strict partial order, so a two-step real-time
    // cycle can never re-derive — on any history whatsoever. A forger
    // cannot manufacture a refutation out of the cheapest axiom.
    let mut checked = 0usize;
    for seed in 0..200u64 {
        let h = HistoryGen::new(HistoryGenConfig::small_simulated(), seed).generate();
        if h.txn_count() < 2 {
            continue;
        }
        let ids: Vec<TxnId> = h.txn_ids().take(2).collect();
        let cert = Certificate {
            criterion: PlanCriterion::FinalState,
            steps: vec![
                Step {
                    from: ids[0],
                    to: ids[1],
                    rule: Rule::RealTime,
                },
                Step {
                    from: ids[1],
                    to: ids[0],
                    rule: Rule::RealTime,
                },
            ],
            cycle: vec![0, 1],
        };
        assert!(
            check_certificate(&h, &cert).is_err(),
            "fabricated real-time 2-cycle accepted at seed {seed}:\n{h}"
        );
        checked += 1;
    }
    assert!(checked > 20, "only {checked} clean histories exercised");
}
