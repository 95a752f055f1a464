//! The one codec for checker outcomes: hand-written [`serde::Serialize`]
//! and [`serde::Deserialize`] impls for verdicts, violations, witnesses,
//! refutation certificates and lint diagnostics.
//!
//! `duop check --format json`, `duop lint --format json`, `certify`,
//! `serve`, the shard protocol's verdict frames and checkpoints all go
//! through these impls, so a verdict has exactly one wire shape. Decoding
//! is the inverse of encoding with one allowance: a violation's rendered
//! `message` is ignored and recomputed from the structured fields.
//! Identifiers decode strictly (`T<n>` / `X<n>`, canonical decimal), the
//! `&'static str` vocabularies (lint rule ids, ladder tiers, severities,
//! reasons) map back through closed sets, and every failure is a
//! structured [`DeError`], never a panic.

use crate::certificate::{Certificate, Rule, Step};
use crate::lint::{self, Applicability, Diagnostic, Severity, Span};
use crate::plan::PlanCriterion;
use crate::{PartialProgress, UnknownReason, Verdict, Violation, Witness};
use duop_history::{ObjId, TxnId, Value};
use serde::{Content, DeError, Deserialize};
use std::collections::BTreeMap;

/// The ladder tiers a partial-progress payload may name (see
/// `search::ladder_fallback`).
const KNOWN_TIERS: [&str; 3] = ["exact-search", "lint", "unique-writes"];

const REASONS: [UnknownReason; 5] = [
    UnknownReason::StateBudget,
    UnknownReason::Deadline,
    UnknownReason::WorkerPanic,
    UnknownReason::Interrupted,
    UnknownReason::WorkerDeath,
];

const SEVERITIES: [Severity; 3] = [Severity::Error, Severity::Warning, Severity::Note];

const APPLICABILITIES: [Applicability; 4] = [
    Applicability::AllCriteria,
    Applicability::DuOpacityOnly,
    Applicability::ReadCommitOrderOnly,
    Applicability::Tms2Only,
];

/// Bound on nested `prefix-not-final-state-opaque` causes (checkers nest
/// one level; the bound only stops adversarial input).
const MAX_VIOLATION_DEPTH: usize = 32;

pub(crate) fn s(text: impl Into<String>) -> Content {
    Content::Str(text.into())
}

fn u(v: impl TryInto<u64>) -> Content {
    Content::U64(v.try_into().unwrap_or(u64::MAX))
}

/// The entries of an object, borrowed.
pub(crate) fn fields<'a>(
    content: &'a Content,
    what: &str,
) -> Result<&'a [(String, Content)], DeError> {
    match content {
        Content::Map(entries) => Ok(entries),
        _ => Err(DeError::custom(format!("expected {what} object"))),
    }
}

pub(crate) fn field<'a>(
    entries: &'a [(String, Content)],
    name: &str,
) -> Result<&'a Content, DeError> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::custom(format!("missing field `{name}`")))
}

fn u64_field(entries: &[(String, Content)], name: &str) -> Result<u64, DeError> {
    field(entries, name)?
        .as_u64()
        .ok_or_else(|| DeError::custom(format!("field `{name}` must be an integer")))
}

fn usize_field(entries: &[(String, Content)], name: &str) -> Result<usize, DeError> {
    usize::try_from(u64_field(entries, name)?)
        .map_err(|_| DeError::custom(format!("field `{name}` out of range")))
}

fn u32_field(entries: &[(String, Content)], name: &str) -> Result<u32, DeError> {
    u32::try_from(u64_field(entries, name)?)
        .map_err(|_| DeError::custom(format!("field `{name}` out of range")))
}

fn str_field<'a>(entries: &'a [(String, Content)], name: &str) -> Result<&'a str, DeError> {
    field(entries, name)?
        .as_str()
        .ok_or_else(|| DeError::custom(format!("field `{name}` must be a string")))
}

fn seq_field<'a>(entries: &'a [(String, Content)], name: &str) -> Result<&'a [Content], DeError> {
    match field(entries, name)? {
        Content::Seq(items) => Ok(items),
        _ => Err(DeError::custom(format!("field `{name}` must be an array"))),
    }
}

/// Maps `tag` back to the member of the closed set `set` named `tag`.
fn lookup<T: Copy>(
    set: &[T],
    name: impl Fn(T) -> &'static str,
    tag: &str,
    what: &str,
) -> Result<T, DeError> {
    set.iter()
        .copied()
        .find(|&x| name(x) == tag)
        .ok_or_else(|| DeError::custom(format!("unknown {what} `{tag}`")))
}

/// Parses `<prefix><n>` with `n` in canonical decimal (no sign, no
/// leading zeros), as `TxnId`/`ObjId` display themselves.
fn parse_id(text: &str, prefix: char) -> Result<u32, DeError> {
    let bad = || DeError::custom(format!("invalid identifier `{text}`"));
    let digits = text.strip_prefix(prefix).ok_or_else(bad)?;
    if digits.is_empty()
        || !digits.bytes().all(|b| b.is_ascii_digit())
        || (digits.len() > 1 && digits.starts_with('0'))
    {
        return Err(bad());
    }
    digits.parse().map_err(|_| bad())
}

fn txn_id(content: &Content) -> Result<TxnId, DeError> {
    let text = content
        .as_str()
        .ok_or_else(|| DeError::custom("transaction id must be a string"))?;
    parse_id(text, 'T').map(TxnId::new)
}

fn txn_field(entries: &[(String, Content)], name: &str) -> Result<TxnId, DeError> {
    txn_id(field(entries, name)?)
}

fn obj_field(entries: &[(String, Content)], name: &str) -> Result<ObjId, DeError> {
    parse_id(str_field(entries, name)?, 'X').map(ObjId::new)
}

impl serde::Serialize for Rule {
    fn to_content(&self) -> Content {
        let mut map: Vec<(String, Content)> = vec![("rule".into(), s(self.tag()))];
        match *self {
            Rule::RealTime => {}
            Rule::ReadFrom { obj, value, read } => {
                map.push(("obj".into(), u(obj.index())));
                map.push(("value".into(), u(value.get())));
                map.push(("read".into(), u(read)));
            }
            Rule::AntiDependency { obj, read } => {
                map.push(("obj".into(), u(obj.index())));
                map.push(("read".into(), u(read)));
            }
            Rule::ReadCommitOrder { obj, read, tryc } => {
                map.push(("obj".into(), u(obj.index())));
                map.push(("read".into(), u(read)));
                map.push(("tryc".into(), u(tryc)));
            }
            Rule::Tms2CommitOrder { obj, resp, tryc } => {
                map.push(("obj".into(), u(obj.index())));
                map.push(("resp".into(), u(resp)));
                map.push(("tryc".into(), u(tryc)));
            }
            Rule::Transitive { first, second } => {
                map.push(("first".into(), u(first)));
                map.push(("second".into(), u(second)));
            }
            Rule::InterferenceAfter { read_from, before } => {
                map.push(("read_from".into(), u(read_from)));
                map.push(("before".into(), u(before)));
            }
            Rule::InterferenceBefore { read_from, after } => {
                map.push(("read_from".into(), u(read_from)));
                map.push(("after".into(), u(after)));
            }
        }
        Content::Map(map)
    }
}

impl serde::Deserialize for Rule {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = fields(content, "rule")?;
        let obj = || Ok::<_, DeError>(ObjId::new(u32_field(entries, "obj")?));
        match str_field(entries, "rule")? {
            "real-time" => Ok(Rule::RealTime),
            "read-from" => Ok(Rule::ReadFrom {
                obj: obj()?,
                value: Value::new(u64_field(entries, "value")?),
                read: usize_field(entries, "read")?,
            }),
            "anti-dependency" => Ok(Rule::AntiDependency {
                obj: obj()?,
                read: usize_field(entries, "read")?,
            }),
            "read-commit-order" => Ok(Rule::ReadCommitOrder {
                obj: obj()?,
                read: usize_field(entries, "read")?,
                tryc: usize_field(entries, "tryc")?,
            }),
            "tms2-commit-order" => Ok(Rule::Tms2CommitOrder {
                obj: obj()?,
                resp: usize_field(entries, "resp")?,
                tryc: usize_field(entries, "tryc")?,
            }),
            "transitive" => Ok(Rule::Transitive {
                first: usize_field(entries, "first")?,
                second: usize_field(entries, "second")?,
            }),
            "interference-after" => Ok(Rule::InterferenceAfter {
                read_from: usize_field(entries, "read_from")?,
                before: usize_field(entries, "before")?,
            }),
            "interference-before" => Ok(Rule::InterferenceBefore {
                read_from: usize_field(entries, "read_from")?,
                after: usize_field(entries, "after")?,
            }),
            other => Err(DeError::custom(format!("unknown rule tag `{other}`"))),
        }
    }
}

impl serde::Serialize for Step {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("from".into(), u(self.from.index())),
            ("to".into(), u(self.to.index())),
            ("rule".into(), self.rule.to_content()),
        ])
    }
}

impl serde::Deserialize for Step {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = fields(content, "step")?;
        Ok(Step {
            from: TxnId::new(u32_field(entries, "from")?),
            to: TxnId::new(u32_field(entries, "to")?),
            rule: Rule::from_content(field(entries, "rule")?)?,
        })
    }
}

impl serde::Serialize for Certificate {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("criterion".into(), s(self.criterion.token())),
            (
                "steps".into(),
                Content::Seq(self.steps.iter().map(|st| st.to_content()).collect()),
            ),
            (
                "cycle".into(),
                Content::Seq(self.cycle.iter().map(|&i| u(i)).collect()),
            ),
        ])
    }
}

impl serde::Deserialize for Certificate {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = fields(content, "certificate")?;
        let token = str_field(entries, "criterion")?;
        let criterion = PlanCriterion::parse(token)
            .ok_or_else(|| DeError::custom(format!("unknown criterion `{token}`")))?;
        let steps = seq_field(entries, "steps")?
            .iter()
            .map(Step::from_content)
            .collect::<Result<Vec<_>, _>>()?;
        let cycle = seq_field(entries, "cycle")?
            .iter()
            .map(|c| {
                c.as_u64()
                    .and_then(|v| usize::try_from(v).ok())
                    .ok_or_else(|| DeError::custom("cycle entries must be integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Certificate {
            criterion,
            steps,
            cycle,
        })
    }
}

fn span_content(span: &Span) -> Content {
    Content::Map(vec![
        ("event".into(), u(span.event)),
        ("label".into(), s(span.label.clone())),
    ])
}

fn span_from(content: &Content) -> Result<Span, DeError> {
    let entries = fields(content, "span")?;
    Ok(Span {
        event: usize_field(entries, "event")?,
        label: str_field(entries, "label")?.to_owned(),
    })
}

impl serde::Serialize for Diagnostic {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("rule".into(), s(self.rule)),
            ("severity".into(), s(self.severity.as_str())),
            ("applicability".into(), s(self.applicability.as_str())),
            ("message".into(), s(self.message.clone())),
            ("primary".into(), span_content(&self.primary)),
            (
                "secondary".into(),
                Content::Seq(self.secondary.iter().map(span_content).collect()),
            ),
        ])
    }
}

impl serde::Deserialize for Diagnostic {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = fields(content, "diagnostic")?;
        let rule = lookup(
            lint::rules(),
            |r| r.id,
            str_field(entries, "rule")?,
            "lint rule",
        )?
        .id;
        Ok(Diagnostic {
            rule,
            severity: lookup(
                &SEVERITIES,
                Severity::as_str,
                str_field(entries, "severity")?,
                "severity",
            )?,
            applicability: lookup(
                &APPLICABILITIES,
                Applicability::as_str,
                str_field(entries, "applicability")?,
                "applicability",
            )?,
            message: str_field(entries, "message")?.to_owned(),
            primary: span_from(field(entries, "primary")?)?,
            secondary: seq_field(entries, "secondary")?
                .iter()
                .map(span_from)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl serde::Serialize for PartialProgress {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (
                "components_decided".into(),
                Content::U64(self.components_decided),
            ),
            (
                "components_total".into(),
                Content::U64(self.components_total),
            ),
            (
                "tiers".into(),
                Content::Seq(self.tiers.iter().map(|&t| s(t)).collect()),
            ),
        ])
    }
}

impl serde::Deserialize for PartialProgress {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = fields(content, "partial progress")?;
        let tiers = seq_field(entries, "tiers")?
            .iter()
            .map(|t| {
                let tag = t
                    .as_str()
                    .ok_or_else(|| DeError::custom("tiers must be strings"))?;
                lookup(&KNOWN_TIERS, |t| t, tag, "tier")
            })
            .collect::<Result<_, _>>()?;
        Ok(PartialProgress {
            components_decided: u64_field(entries, "components_decided")?,
            components_total: u64_field(entries, "components_total")?,
            tiers,
        })
    }
}

impl serde::Serialize for Witness {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (
                "order".into(),
                Content::Seq(self.order().iter().map(|t| s(t.to_string())).collect()),
            ),
            (
                "commit_choices".into(),
                Content::Map(
                    self.commit_choices()
                        .iter()
                        .map(|(t, &c)| (t.to_string(), Content::Bool(c)))
                        .collect(),
                ),
            ),
        ])
    }
}

impl serde::Deserialize for Witness {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = fields(content, "witness")?;
        let order = seq_field(entries, "order")?
            .iter()
            .map(txn_id)
            .collect::<Result<_, _>>()?;
        let Content::Map(choices) = field(entries, "commit_choices")? else {
            return Err(DeError::custom("field `commit_choices` must be an object"));
        };
        let choices = choices
            .iter()
            .map(|(t, c)| Ok((parse_id(t, 'T').map(TxnId::new)?, bool::from_content(c)?)))
            .collect::<Result<BTreeMap<_, _>, DeError>>()?;
        Ok(Witness::new(order, choices))
    }
}

impl serde::Serialize for Violation {
    fn to_content(&self) -> Content {
        let mut fields: Vec<(String, Content)> = Vec::new();
        let kind = match self {
            Violation::InternalReadInconsistency {
                txn,
                obj,
                got,
                expected,
            } => {
                fields.push(("txn".into(), s(txn.to_string())));
                fields.push(("obj".into(), s(obj.to_string())));
                fields.push(("got".into(), Content::U64(got.get())));
                fields.push(("expected".into(), Content::U64(expected.get())));
                "internal-read-inconsistency"
            }
            Violation::MissingWriter { txn, obj, value } => {
                fields.push(("txn".into(), s(txn.to_string())));
                fields.push(("obj".into(), s(obj.to_string())));
                fields.push(("value".into(), Content::U64(value.get())));
                "missing-writer"
            }
            Violation::ConstraintCycle { txns } => {
                fields.push((
                    "txns".into(),
                    Content::Seq(txns.iter().map(|t| s(t.to_string())).collect()),
                ));
                "constraint-cycle"
            }
            Violation::NoSerialization {
                criterion,
                explored,
            } => {
                fields.push(("criterion".into(), s(criterion.clone())));
                fields.push(("explored".into(), Content::U64(*explored)));
                "no-serialization"
            }
            Violation::PrefixNotFinalStateOpaque { prefix_len, cause } => {
                fields.push(("prefix_len".into(), Content::U64(*prefix_len as u64)));
                fields.push(("cause".into(), cause.to_content()));
                "prefix-not-final-state-opaque"
            }
            Violation::LintRefuted {
                criterion,
                diagnostic,
            } => {
                fields.push(("criterion".into(), s(criterion.clone())));
                fields.push(("diagnostic".into(), diagnostic.to_content()));
                "lint-refuted"
            }
            Violation::Certified {
                criterion,
                certificate,
            } => {
                fields.push(("criterion".into(), s(criterion.clone())));
                fields.push(("certificate".into(), certificate.to_content()));
                "certified"
            }
        };
        let mut map = vec![
            ("kind".into(), s(kind)),
            ("message".into(), s(self.to_string())),
        ];
        map.extend(fields);
        Content::Map(map)
    }
}

impl serde::Deserialize for Violation {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        violation_at(content, 0)
    }
}

/// Decodes a violation nested `depth` causes deep. The rendered `message`
/// is not read: `Display` recomputes it from the structured fields.
fn violation_at(content: &Content, depth: usize) -> Result<Violation, DeError> {
    if depth > MAX_VIOLATION_DEPTH {
        return Err(DeError::custom("violation nesting too deep"));
    }
    let entries = fields(content, "violation")?;
    let criterion = || str_field(entries, "criterion").map(str::to_owned);
    Ok(match str_field(entries, "kind")? {
        "internal-read-inconsistency" => Violation::InternalReadInconsistency {
            txn: txn_field(entries, "txn")?,
            obj: obj_field(entries, "obj")?,
            got: Value::new(u64_field(entries, "got")?),
            expected: Value::new(u64_field(entries, "expected")?),
        },
        "missing-writer" => Violation::MissingWriter {
            txn: txn_field(entries, "txn")?,
            obj: obj_field(entries, "obj")?,
            value: Value::new(u64_field(entries, "value")?),
        },
        "constraint-cycle" => Violation::ConstraintCycle {
            txns: seq_field(entries, "txns")?
                .iter()
                .map(txn_id)
                .collect::<Result<_, _>>()?,
        },
        "no-serialization" => Violation::NoSerialization {
            criterion: criterion()?,
            explored: u64_field(entries, "explored")?,
        },
        "prefix-not-final-state-opaque" => Violation::PrefixNotFinalStateOpaque {
            prefix_len: usize_field(entries, "prefix_len")?,
            cause: Box::new(violation_at(field(entries, "cause")?, depth + 1)?),
        },
        "lint-refuted" => Violation::LintRefuted {
            criterion: criterion()?,
            diagnostic: Box::new(Diagnostic::from_content(field(entries, "diagnostic")?)?),
        },
        "certified" => Violation::Certified {
            criterion: criterion()?,
            certificate: Box::new(Certificate::from_content(field(entries, "certificate")?)?),
        },
        other => return Err(DeError::custom(format!("unknown violation kind `{other}`"))),
    })
}

impl serde::Serialize for Verdict {
    fn to_content(&self) -> Content {
        match self {
            Verdict::Satisfied(w) => Content::Map(vec![
                ("status".into(), s("satisfied")),
                ("witness".into(), w.to_content()),
            ]),
            Verdict::Violated(v) => Content::Map(vec![
                ("status".into(), s("violated")),
                ("violation".into(), v.to_content()),
            ]),
            Verdict::Unknown {
                explored,
                reason,
                partial,
            } => {
                let mut map = vec![
                    ("status".into(), s("unknown")),
                    ("explored".into(), Content::U64(*explored)),
                    ("reason".into(), s(reason.as_str())),
                ];
                if let Some(p) = partial {
                    map.push(("partial".into(), p.to_content()));
                }
                Content::Map(map)
            }
        }
    }
}

impl serde::Deserialize for Verdict {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = fields(content, "verdict")?;
        match str_field(entries, "status")? {
            "satisfied" => {
                Witness::from_content(field(entries, "witness")?).map(Verdict::Satisfied)
            }
            "violated" => {
                Violation::from_content(field(entries, "violation")?).map(Verdict::Violated)
            }
            "unknown" => Ok(Verdict::Unknown {
                explored: u64_field(entries, "explored")?,
                reason: lookup(
                    &REASONS,
                    UnknownReason::as_str,
                    str_field(entries, "reason")?,
                    "unknown reason",
                )?,
                partial: match field(entries, "partial") {
                    Ok(p) => Some(PartialProgress::from_content(p)?),
                    Err(_) => None,
                },
            }),
            other => Err(DeError::custom(format!("unknown verdict status `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Criterion, DuOpacity, PartialProgress, SearchConfig, UnknownReason, Verdict};
    use duop_history::{HistoryBuilder, ObjId, TxnId, Value};

    #[test]
    fn satisfied_verdict_serializes_witness() {
        let h = HistoryBuilder::new()
            .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
            .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
            .build();
        let verdict = DuOpacity::new().check(&h);
        let json = serde_json::to_string(&verdict).unwrap();
        assert!(json.contains("\"status\":\"satisfied\""), "json: {json}");
        assert!(json.contains("\"order\":[\"T1\",\"T2\"]"), "json: {json}");
    }

    #[test]
    fn lint_refuted_verdict_embeds_diagnostic() {
        let h = HistoryBuilder::new()
            .committed_reader(TxnId::new(1), ObjId::new(0), Value::new(7))
            .build();
        let verdict = DuOpacity::new().check(&h);
        let json = serde_json::to_string(&verdict).unwrap();
        assert!(json.contains("\"status\":\"violated\""), "json: {json}");
        assert!(json.contains("\"kind\":\"lint-refuted\""), "json: {json}");
        assert!(json.contains("\"rule\":\"RF003\""), "json: {json}");
    }

    #[test]
    fn search_violation_serializes_without_prelint() {
        let h = HistoryBuilder::new()
            .committed_reader(TxnId::new(1), ObjId::new(0), Value::new(7))
            .build();
        let cfg = SearchConfig {
            prelint: false,
            ..SearchConfig::default()
        };
        let verdict = DuOpacity::with_config(cfg).check(&h);
        let json = serde_json::to_string(&verdict).unwrap();
        assert!(json.contains("\"kind\":\"missing-writer\""), "json: {json}");
    }

    #[test]
    fn unknown_verdict_serializes_explored_and_reason() {
        for (reason, tag) in [
            (UnknownReason::StateBudget, "state-budget"),
            (UnknownReason::Deadline, "deadline"),
            (UnknownReason::WorkerPanic, "worker-panic"),
            (UnknownReason::Interrupted, "interrupted"),
            (UnknownReason::WorkerDeath, "worker-death"),
        ] {
            let json = serde_json::to_string(&Verdict::Unknown {
                explored: 12,
                reason,
                partial: None,
            })
            .unwrap();
            assert_eq!(
                json,
                format!("{{\"status\":\"unknown\",\"explored\":12,\"reason\":\"{tag}\"}}")
            );
        }
    }

    /// Every `UnknownReason`, with and without a `partial` payload, must
    /// decode back to the same verdict and re-serialize byte-identically.
    #[test]
    fn unknown_reason_and_partial_round_trip_through_json() {
        for reason in [
            UnknownReason::StateBudget,
            UnknownReason::Deadline,
            UnknownReason::WorkerPanic,
            UnknownReason::Interrupted,
            UnknownReason::WorkerDeath,
        ] {
            for partial in [
                None,
                Some(PartialProgress::components(2, 5)),
                Some({
                    let mut p = PartialProgress::components(0, 3);
                    p.tiers = vec!["exact-search", "lint"];
                    p
                }),
            ] {
                let verdict = Verdict::Unknown {
                    explored: 44,
                    reason,
                    partial,
                };
                let json = serde_json::to_string(&verdict).unwrap();
                let back: Verdict = serde_json::from_str(&json)
                    .unwrap_or_else(|e| panic!("verdict JSON must parse back: {e}\n{json}"));
                assert_eq!(back, verdict);
                assert_eq!(serde_json::to_string(&back).unwrap(), json);
            }
        }
    }

    #[test]
    fn unknown_verdict_serializes_partial_payload() {
        let mut partial = PartialProgress::components(3, 7);
        partial.tiers = vec!["exact-search", "lint", "unique-writes"];
        let json = serde_json::to_string(&Verdict::Unknown {
            explored: 99,
            reason: UnknownReason::Deadline,
            partial: Some(partial),
        })
        .unwrap();
        assert_eq!(
            json,
            concat!(
                "{\"status\":\"unknown\",\"explored\":99,\"reason\":\"deadline\",",
                "\"partial\":{\"components_decided\":3,\"components_total\":7,",
                "\"tiers\":[\"exact-search\",\"lint\",\"unique-writes\"]}}"
            )
        );
    }
}
