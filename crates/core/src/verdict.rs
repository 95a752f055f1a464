//! Checker outcomes: witnesses, violations and verdicts.

use duop_history::{CommitCapability, Event, History, ObjId, Op, Ret, TxnId, TxnView, Value};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A *witness serialization*: evidence that a history satisfies a
/// criterion.
///
/// A witness consists of the total order `seq(S)` on the history's
/// transactions together with a commit/abort decision for every transaction
/// whose `tryC_k()` is incomplete (Definition 2 leaves that choice to the
/// completion). [`Witness::materialize`] turns it into the t-complete
/// t-sequential history `S` itself.
///
/// # Examples
///
/// ```
/// use duop_core::{Criterion, DuOpacity};
/// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
///
/// let h = HistoryBuilder::new()
///     .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
///     .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
///     .build();
/// let witness = DuOpacity::new().check(&h).into_result().unwrap();
/// assert_eq!(witness.order(), &[TxnId::new(1), TxnId::new(2)]);
/// let s = witness.materialize(&h);
/// assert!(s.is_t_sequential() && s.is_legal());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    // Crate-visible so the online monitor can adapt its witness in place.
    pub(crate) order: Vec<TxnId>,
    pub(crate) commit_choices: BTreeMap<TxnId, bool>,
}

impl Witness {
    /// Creates a witness from a transaction order and commit decisions for
    /// commit-pending transactions (`true` means the completion inserts
    /// `C_k`).
    pub fn new(order: Vec<TxnId>, commit_choices: BTreeMap<TxnId, bool>) -> Self {
        Witness {
            order,
            commit_choices,
        }
    }

    /// The serialization order `seq(S)`.
    pub fn order(&self) -> &[TxnId] {
        &self.order
    }

    /// The commit decision recorded for a commit-pending transaction.
    pub fn commit_choice(&self, txn: TxnId) -> Option<bool> {
        self.commit_choices.get(&txn).copied()
    }

    /// All recorded commit decisions.
    pub fn commit_choices(&self) -> &BTreeMap<TxnId, bool> {
        &self.commit_choices
    }

    /// Position of `txn` in the serialization order.
    pub fn position(&self, txn: TxnId) -> Option<usize> {
        self.order.iter().position(|t| *t == txn)
    }

    /// Whether `txn` is committed in the serialization this witness denotes,
    /// given the history `h` it serializes.
    pub fn is_committed_in(&self, h: &History, txn: TxnId) -> bool {
        h.txn(txn)
            .is_some_and(|t| committed_in_s(&t, self.commit_choice(txn)))
    }

    /// Materializes the legal-candidate history `S`: the transactions of
    /// `h`, completed per this witness's commit choices, laid out
    /// t-sequentially in witness order.
    ///
    /// The result is t-complete, t-sequential, and equivalent to a
    /// completion of `h`; whether it is *legal* (and satisfies the
    /// per-criterion conditions) is what
    /// [`check_witness`](crate::check_witness) decides.
    ///
    /// # Panics
    ///
    /// Panics if the witness order does not cover exactly the transactions
    /// of `h`.
    pub fn materialize(&self, h: &History) -> History {
        assert_eq!(
            self.order.len(),
            h.txn_count(),
            "witness must cover every transaction of the history"
        );
        let mut events: Vec<Event> = Vec::with_capacity(h.len() + 2 * h.txn_count());
        for &id in &self.order {
            let txn = h
                .txn(id)
                .unwrap_or_else(|| panic!("witness transaction {id} not in history"));
            events.extend(txn.events().copied());
            if txn.is_t_complete() {
                continue;
            }
            match txn.ops().last() {
                Some(last) if !last.is_complete() => {
                    let commit = last.op.is_try_commit() && self.commit_choice(id).unwrap_or(false);
                    events.push(Event::resp(
                        id,
                        if commit { Ret::Committed } else { Ret::Aborted },
                    ));
                }
                _ => {
                    events.push(Event::inv(id, Op::TryCommit));
                    events.push(Event::resp(id, Ret::Aborted));
                }
            }
        }
        History::new(events).expect("materialized serialization is well-formed")
    }
}

/// Whether `txn` is committed in a serialization whose completion makes
/// commit choice `choice` for it: always if it committed in the history,
/// as chosen if its `tryC` is pending, never otherwise.
pub(crate) fn committed_in_s(txn: &TxnView<'_>, choice: Option<bool>) -> bool {
    match txn.commit_capability() {
        CommitCapability::Committed => true,
        CommitCapability::CommitPending => choice.unwrap_or(false),
        CommitCapability::NeverCommitted => false,
    }
}

/// Why a history fails (or cannot be shown to satisfy) a criterion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A read that follows the transaction's own write to the same t-object
    /// returned a different value; no equivalent sequential history can be
    /// legal.
    InternalReadInconsistency {
        /// The reading transaction.
        txn: TxnId,
        /// The t-object.
        obj: ObjId,
        /// The value the read returned.
        got: Value,
        /// The transaction's own latest preceding write.
        expected: Value,
    },
    /// A read returned a value that no transaction capable of committing
    /// (and, for du-opacity, none that had invoked `tryC` before the read's
    /// response) ever writes to that t-object.
    MissingWriter {
        /// The reading transaction.
        txn: TxnId,
        /// The t-object.
        obj: ObjId,
        /// The orphaned value.
        value: Value,
    },
    /// The criterion's precedence constraints (real-time order plus any
    /// criterion-specific edges) are cyclic.
    ConstraintCycle {
        /// Transactions on the detected cycle.
        txns: Vec<TxnId>,
    },
    /// The search space of serializations was exhausted: no serialization
    /// satisfies the criterion.
    NoSerialization {
        /// Human-readable criterion name.
        criterion: String,
        /// Number of distinct search states explored.
        explored: u64,
    },
    /// A proper prefix of the history is not final-state opaque
    /// (Definition 5 fails).
    PrefixNotFinalStateOpaque {
        /// Length (in events) of the offending prefix.
        prefix_len: usize,
        /// Why that prefix fails.
        cause: Box<Violation>,
    },
    /// The lint prefilter refuted the criterion without searching: an
    /// `Error`-severity rule — a proven necessary condition for this
    /// criterion — fired (see [`crate::lint`]).
    LintRefuted {
        /// Human-readable criterion name.
        criterion: String,
        /// The refuting diagnostic.
        diagnostic: Box<crate::lint::Diagnostic>,
    },
    /// The must-precede saturation pass ([`crate::saturate`]) derived a
    /// precedence cycle; the attached machine-checkable certificate is
    /// independently validated by
    /// [`check_certificate`](crate::check_certificate).
    Certified {
        /// Human-readable criterion name.
        criterion: String,
        /// The closed refutation derivation.
        certificate: Box<crate::certificate::Certificate>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::InternalReadInconsistency { txn, obj, got, expected } => write!(
                f,
                "{txn} read {got} from {obj} after writing {expected} to it; no equivalent sequential history is legal"
            ),
            Violation::MissingWriter { txn, obj, value } => write!(
                f,
                "{txn} read {value} from {obj}, but no admissible transaction writes that value"
            ),
            Violation::ConstraintCycle { txns } => {
                write!(f, "precedence constraints are cyclic among ")?;
                for (i, t) in txns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            Violation::NoSerialization { criterion, explored } => write!(
                f,
                "no serialization satisfies {criterion} (explored {explored} states)"
            ),
            Violation::PrefixNotFinalStateOpaque { prefix_len, cause } => write!(
                f,
                "prefix of length {prefix_len} is not final-state opaque: {cause}"
            ),
            Violation::LintRefuted { criterion, diagnostic } => write!(
                f,
                "{criterion} refuted by lint rule {}: {} (at {})",
                diagnostic.rule, diagnostic.message, diagnostic.primary
            ),
            Violation::Certified { criterion, certificate } => write!(
                f,
                "{criterion} refuted by saturation: {certificate}"
            ),
        }
    }
}

impl Error for Violation {}

/// Why a check ended [`Verdict::Unknown`] instead of deciding the
/// question.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The state budget ([`SearchConfig::max_states`]) was exhausted.
    ///
    /// [`SearchConfig::max_states`]: crate::SearchConfig::max_states
    StateBudget,
    /// The wall-clock deadline ([`SearchConfig::deadline`]) expired.
    ///
    /// [`SearchConfig::deadline`]: crate::SearchConfig::deadline
    Deadline,
    /// A parallel search worker panicked; its siblings were cancelled and
    /// the panic was contained, but the subtree it owned is unexplored.
    WorkerPanic,
    /// The process received SIGINT/SIGTERM (see
    /// [`crate::snapshot::request_interrupt`]); the search flushed its
    /// progress and stopped cooperatively instead of dying mid-line.
    Interrupted,
    /// A sharded-checking worker process died (crash, kill, or a broken
    /// protocol stream) and the retry budget for its task was exhausted,
    /// so the component it owned is undecided.
    WorkerDeath,
}

impl UnknownReason {
    /// Stable kebab-case tag, used verbatim in the JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            UnknownReason::StateBudget => "state-budget",
            UnknownReason::Deadline => "deadline",
            UnknownReason::WorkerPanic => "worker-panic",
            UnknownReason::Interrupted => "interrupted",
            UnknownReason::WorkerDeath => "worker-death",
        }
    }
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Partial progress surviving an undecided check: what the anytime
/// machinery salvaged before the budget ran out.
///
/// Attached to [`Verdict::Unknown`] so callers (and the JSON output) can
/// distinguish "0% done" from "9 of 10 components decided". Everything in
/// it is *sound*: component verdicts are exact results for their
/// sub-problems (Lemma 1 restriction), and each listed tier is a sound
/// procedure that actually ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialProgress {
    /// Conflict-graph components fully decided before the budget ran out
    /// (their serialization fragments are reusable on resume).
    pub components_decided: u64,
    /// Total components the planner split the query into (`1` for a
    /// monolithic search).
    pub components_total: u64,
    /// Sound criterion tiers that ran before giving up, in order (e.g.
    /// `["exact-search", "lint", "unique-writes"]`).
    pub tiers: Vec<&'static str>,
}

impl PartialProgress {
    /// Progress with component counts and no tier record yet.
    pub fn components(decided: u64, total: u64) -> Self {
        PartialProgress {
            components_decided: decided,
            components_total: total,
            tiers: Vec::new(),
        }
    }
}

impl fmt::Display for PartialProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} components",
            self.components_decided, self.components_total
        )?;
        if !self.tiers.is_empty() {
            write!(f, "; tiers: {}", self.tiers.join(","))?;
        }
        Ok(())
    }
}

/// The outcome of checking a history against a criterion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The history satisfies the criterion; a witness serialization is
    /// attached.
    Satisfied(Witness),
    /// The history violates the criterion.
    Violated(Violation),
    /// A resource limit (state budget, deadline) or a contained worker
    /// panic stopped the search before the question was decided.
    Unknown {
        /// Number of distinct search states explored before giving up.
        explored: u64,
        /// Which limit (or failure) ended the search.
        reason: UnknownReason,
        /// Sound partial progress, if any was salvaged (see
        /// [`PartialProgress`]).
        partial: Option<PartialProgress>,
    },
}

impl Verdict {
    /// Returns `true` if the criterion is satisfied.
    pub fn is_satisfied(&self) -> bool {
        matches!(self, Verdict::Satisfied(_))
    }

    /// Returns `true` if the criterion is violated.
    pub fn is_violated(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }

    /// The witness, if satisfied.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Verdict::Satisfied(w) => Some(w),
            _ => None,
        }
    }

    /// The violation, if violated.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Violated(v) => Some(v),
            _ => None,
        }
    }

    /// Converts into a `Result`, treating [`Verdict::Unknown`] as an error.
    ///
    /// # Errors
    ///
    /// Returns the violation for `Violated`; returns
    /// [`Violation::NoSerialization`] with `explored` for `Unknown`.
    pub fn into_result(self) -> Result<Witness, Violation> {
        match self {
            Verdict::Satisfied(w) => Ok(w),
            Verdict::Violated(v) => Err(v),
            Verdict::Unknown {
                explored, reason, ..
            } => Err(Violation::NoSerialization {
                criterion: format!("undecided ({reason})"),
                explored,
            }),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Satisfied(w) => {
                write!(f, "satisfied; witness: ")?;
                for (i, t) in w.order().iter().enumerate() {
                    if i > 0 {
                        write!(f, " < ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            Verdict::Violated(v) => write!(f, "violated: {v}"),
            Verdict::Unknown {
                explored,
                reason,
                partial,
            } => {
                write!(f, "unknown ({reason} after {explored} states")?;
                if let Some(p) = partial {
                    write!(f, "; {p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::HistoryBuilder;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    #[test]
    fn materialize_t_complete_history() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        let w = Witness::new(vec![t(1), t(2)], BTreeMap::new());
        let s = w.materialize(&h);
        assert!(s.is_t_sequential());
        assert!(s.is_t_complete());
        assert!(s.is_legal());
        assert!(s.equivalent(&h));
    }

    #[test]
    fn materialize_respects_commit_choices() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .build();
        let commit = Witness::new(vec![t(1)], BTreeMap::from([(t(1), true)]));
        assert!(commit.materialize(&h).txn(t(1)).unwrap().is_committed());
        assert!(commit.is_committed_in(&h, t(1)));

        let abort = Witness::new(vec![t(1)], BTreeMap::from([(t(1), false)]));
        assert!(abort.materialize(&h).txn(t(1)).unwrap().is_aborted());
        assert!(!abort.is_committed_in(&h, t(1)));
    }

    #[test]
    fn materialize_completes_non_t_complete_txns() {
        // Complete but no tryC: gains tryC·A.
        let h = HistoryBuilder::new().read(t(1), x(), v(0)).build();
        let w = Witness::new(vec![t(1)], BTreeMap::new());
        let s = w.materialize(&h);
        let view = s.txn(t(1)).unwrap();
        assert!(view.is_aborted());
        assert_eq!(view.ops().len(), 2);

        // Incomplete read: answered with A.
        let h = HistoryBuilder::new().inv_read(t(1), x()).build();
        let s = Witness::new(vec![t(1)], BTreeMap::new()).materialize(&h);
        assert!(s.txn(t(1)).unwrap().is_aborted());
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cover every transaction")]
    fn materialize_rejects_partial_witness() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(2))
            .build();
        Witness::new(vec![t(1)], BTreeMap::new()).materialize(&h);
    }

    #[test]
    fn verdict_accessors() {
        let w = Witness::new(vec![t(1)], BTreeMap::new());
        let sat = Verdict::Satisfied(w.clone());
        assert!(sat.is_satisfied());
        assert_eq!(sat.witness(), Some(&w));
        assert!(sat.clone().into_result().is_ok());

        let vio = Verdict::Violated(Violation::MissingWriter {
            txn: t(1),
            obj: x(),
            value: v(3),
        });
        assert!(vio.is_violated());
        assert!(vio.violation().is_some());
        assert!(vio.clone().into_result().is_err());

        let unk = Verdict::Unknown {
            explored: 10,
            reason: UnknownReason::StateBudget,
            partial: None,
        };
        assert!(!unk.is_satisfied());
        assert!(!unk.is_violated());
        assert!(unk.into_result().is_err());
    }

    #[test]
    fn unknown_reasons_have_stable_tags() {
        assert_eq!(UnknownReason::StateBudget.as_str(), "state-budget");
        assert_eq!(UnknownReason::Deadline.as_str(), "deadline");
        assert_eq!(UnknownReason::WorkerPanic.as_str(), "worker-panic");
        assert_eq!(UnknownReason::Interrupted.as_str(), "interrupted");
        assert_eq!(UnknownReason::WorkerDeath.as_str(), "worker-death");
        let d = Verdict::Unknown {
            explored: 3,
            reason: UnknownReason::Deadline,
            partial: None,
        };
        assert!(d.to_string().contains("deadline"));
    }

    #[test]
    fn unknown_display_includes_partial_progress() {
        let mut partial = PartialProgress::components(2, 5);
        partial.tiers = vec!["exact-search", "lint"];
        let v = Verdict::Unknown {
            explored: 7,
            reason: UnknownReason::StateBudget,
            partial: Some(partial),
        };
        let text = v.to_string();
        assert!(text.contains("2/5 components"), "{text}");
        assert!(text.contains("exact-search,lint"), "{text}");
    }

    #[test]
    fn violations_display() {
        let samples: Vec<Violation> = vec![
            Violation::InternalReadInconsistency {
                txn: t(1),
                obj: x(),
                got: v(1),
                expected: v(2),
            },
            Violation::MissingWriter {
                txn: t(2),
                obj: x(),
                value: v(9),
            },
            Violation::ConstraintCycle {
                txns: vec![t(1), t(2)],
            },
            Violation::NoSerialization {
                criterion: "du-opacity".into(),
                explored: 42,
            },
            Violation::PrefixNotFinalStateOpaque {
                prefix_len: 3,
                cause: Box::new(Violation::MissingWriter {
                    txn: t(1),
                    obj: x(),
                    value: v(1),
                }),
            },
            Violation::LintRefuted {
                criterion: "du-opacity".into(),
                diagnostic: Box::new(crate::lint::Diagnostic {
                    rule: "RF003",
                    severity: crate::lint::Severity::Error,
                    applicability: crate::lint::Applicability::AllCriteria,
                    message: "orphan value".into(),
                    primary: crate::lint::Span {
                        event: 1,
                        label: "T2:R(X0)".into(),
                    },
                    secondary: Vec::new(),
                }),
            },
        ];
        for violation in samples {
            assert!(!violation.to_string().is_empty());
        }
    }

    #[test]
    fn witness_position_lookup() {
        let w = Witness::new(vec![t(2), t(1)], BTreeMap::new());
        assert_eq!(w.position(t(2)), Some(0));
        assert_eq!(w.position(t(1)), Some(1));
        assert_eq!(w.position(t(3)), None);
    }
}
