//! Polynomial static analysis over histories: the lint pipeline.
//!
//! Every criterion in this crate is decided by an NP-hard serialization
//! search, yet most violations are refutable by *polynomial* necessary
//! conditions: the deferred-update axioms of Definition 3, read-from
//! existence, and cycles in the must-precede relation. This module runs a
//! registry of such analyses ("rules") over a [`History`] and emits
//! structured [`Diagnostic`]s — rule id, severity, event spans into the
//! history, and a human explanation citing the paper definition.
//!
//! Severities encode soundness:
//!
//! * [`Severity::Error`] — the rule is a proven *necessary condition* for
//!   the criteria its [`Applicability`] names: when it fires, no
//!   serialization can satisfy them. The search prefilter
//!   ([`SearchConfig::prelint`](crate::SearchConfig::prelint)) turns these
//!   into immediate [`Violation::LintRefuted`](crate::Violation) verdicts
//!   without searching; the `lint_differential` suite checks the
//!   implication on generated corpora.
//! * [`Severity::Warning`] — a suspicious shape that *may* still be
//!   serializable (e.g. Figure 2's read from a commit-pending writer is
//!   du-opaque). Never short-circuits a checker.
//! * [`Severity::Note`] — informational (e.g. the history leaves the
//!   unique-writes regime of Theorem 11, so opacity and du-opacity may
//!   diverge).
//!
//! Every rule runs in polynomial time. The rules read their must-precede
//! facts from [`crate::must_precede`], whose per-object tables make
//! supplier sets `O(reads · (writers per object + txns/64))` and the
//! commit-order edges scans of those tables. CY004's per-scope cycle
//! checks are word-parallel depth-first searches, `O(txns²/64)` each,
//! and AN005 finds anti-dependency two-cycles by binary search, so the
//! pipeline is `O(txns²/64 + reads · (writers per object + txns/64) +
//! anti-deps · log anti-deps + events)` overall.
//!
//! [`lint`] runs every rule and reports every finding. The search
//! prefilter needs only the `Error` that
//! [`LintReport::first_error_for`] would pick for one scope, so it runs
//! only the rules whose `Error`s can refute that scope — one table in
//! the registry records which scopes each rule's `Error`s name. It skips
//! UW007 (a Note), DU002's Warning form and the other scopes' CY004
//! graphs, and instead of sorting takes the `Error` with the least
//! `(primary event, rule)`, the first emitted on ties. That is the
//! diagnostic the full report's stable sort puts first among the
//! scope's `Error`s, because each rule emits the scope's `Error`s in the
//! same order either way. It reads the facts of the query's
//! `Prepared`, which saturation, the planner and the search share.

mod context;
mod rules;

pub(crate) use rules::an005_pairs;

use crate::plan::PlanCriterion;
use crate::prepared::Prepared;
use crate::Violation;
use duop_history::History;
use std::fmt;

/// How severe a diagnostic is (see the module docs for the soundness
/// contract each level carries).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A proven refutation of the criteria named by the rule's
    /// [`Applicability`].
    Error,
    /// A suspicious shape that may still be serializable.
    Warning,
    /// Informational.
    Note,
}

impl Severity {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The criterion family a checker runs under, from the lint pipeline's
/// point of view. Determines which `Error`-severity rules may refute it
/// via [`Applicability::refutes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintScope {
    /// Plain serialization semantics: final-state opacity, opacity (per
    /// prefix), strict serializability (over the committed projection).
    Plain,
    /// Du-opacity (Definition 3): plain semantics plus the deferred-update
    /// local-serialization condition.
    Du,
    /// Read-commit-order opacity (Guerraoui–Henzinger–Singh).
    Rco,
    /// The TMS2 rendering of Section 4.2.
    Tms2,
}

/// Which criterion scopes an `Error`-severity diagnostic refutes.
///
/// Rules restricted to one scope exploit constraints that only that
/// criterion imposes (e.g. du-eligibility); `AllCriteria` rules use only
/// real-time order and value constraints shared by every scope — extra
/// criterion edges can only shrink the solution space, so a refutation of
/// the shared core refutes every scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Applicability {
    /// Refutes every criterion scope.
    AllCriteria,
    /// Refutes only du-opacity ([`LintScope::Du`]).
    DuOpacityOnly,
    /// Refutes only read-commit-order opacity ([`LintScope::Rco`]).
    ReadCommitOrderOnly,
    /// Refutes only TMS2 ([`LintScope::Tms2`]).
    Tms2Only,
}

impl Applicability {
    /// Whether an `Error` with this applicability refutes a checker
    /// running under `scope`.
    pub fn refutes(self, scope: LintScope) -> bool {
        match self {
            Applicability::AllCriteria => true,
            Applicability::DuOpacityOnly => scope == LintScope::Du,
            Applicability::ReadCommitOrderOnly => scope == LintScope::Rco,
            Applicability::Tms2Only => scope == LintScope::Tms2,
        }
    }

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Applicability::AllCriteria => "all-criteria",
            Applicability::DuOpacityOnly => "du-opacity-only",
            Applicability::ReadCommitOrderOnly => "read-commit-order-only",
            Applicability::Tms2Only => "tms2-only",
        }
    }
}

impl fmt::Display for Applicability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An event position in the history, labeled with the event's rendering
/// for self-contained display.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the event in the history.
    pub event: usize,
    /// The event's [`Display`](fmt::Display) rendering, e.g. `T1:R(X0)`.
    pub label: String,
}

impl Span {
    pub(crate) fn at(h: &History, event: usize) -> Span {
        Span {
            event,
            label: h.event_label(event).unwrap_or_default(),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {}: {}", self.event, self.label)
    }
}

/// One finding of the lint pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (see [`rules`]).
    pub rule: &'static str,
    /// Soundness level of the finding.
    pub severity: Severity,
    /// Which criterion scopes an `Error` refutes.
    pub applicability: Applicability,
    /// Human explanation, citing the paper definition the rule encodes.
    pub message: String,
    /// The event the finding is anchored to.
    pub primary: Span,
    /// Related events (e.g. the supplying writer's `tryC` invocation).
    pub secondary: Vec<Span>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)
    }
}

/// The diagnostics one [`lint`] run produced, in severity-then-position
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// A report of `diagnostics` in severity-then-position order. The sort
    /// is stable: equal keys keep their emission order.
    fn sorted(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            (a.severity, a.primary.event, a.rule).cmp(&(b.severity, b.primary.event, b.rule))
        });
        LintReport { diagnostics }
    }

    /// The diagnostics, most severe first (ties by primary event index,
    /// then rule id).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Returns `true` if no rule fired.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// The distinct rule ids that fired, sorted.
    pub fn rule_ids(&self) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = self.diagnostics.iter().map(|d| d.rule).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The first `Error` whose applicability refutes `scope`, if any.
    pub fn first_error_for(&self, scope: LintScope) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error && d.applicability.refutes(scope))
    }
}

impl serde::Serialize for LintReport {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![(
            "diagnostics".into(),
            serde::Content::Seq(
                self.diagnostics
                    .iter()
                    .map(serde::Serialize::to_content)
                    .collect(),
            ),
        )])
    }
}

/// Registry entry describing one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable identifier, e.g. `DU002`.
    pub id: &'static str,
    /// Short title.
    pub title: &'static str,
    /// One-line description of what firing means.
    pub summary: &'static str,
    /// The paper grounding: which definition or theorem makes an
    /// emission sound, and why (`duop lint --explain`).
    pub paper: &'static str,
    /// A minimal trace (line format) that fires the rule.
    pub example: &'static str,
}

/// The rule registry, in pipeline order.
pub fn rules() -> &'static [RuleInfo] {
    &rules::RULES
}

/// Which findings a lint run emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Emit {
    /// Every finding: the full report of [`lint`].
    All,
    /// Only the `Error`s that refute one scope: the prefilter's run.
    Refuting(LintScope),
}

impl Emit {
    /// Whether a finding of this severity and applicability is emitted.
    fn wants(self, severity: Severity, applicability: Applicability) -> bool {
        match self {
            Emit::All => true,
            Emit::Refuting(scope) => severity == Severity::Error && applicability.refutes(scope),
        }
    }

    /// Whether a rule whose `Error`s carry the applicabilities `errors`
    /// runs at all.
    fn selects(self, errors: &[Applicability]) -> bool {
        match self {
            Emit::All => true,
            Emit::Refuting(scope) => errors.iter().any(|a| a.refutes(scope)),
        }
    }
}

/// Runs every rule over `h` and collects the findings.
///
/// Polynomial in the history size; never searches for a serialization.
pub fn lint(h: &History) -> LintReport {
    LintReport::sorted(rules::run(&Prepared::of(h), Emit::All))
}

/// The search prefilter: the `Error` that `lint(h).first_error_for(scope)`
/// returns for the prepared query's history, where `scope` is
/// `criterion`'s lint scope, as a [`Violation::LintRefuted`] for
/// `criterion`. Runs only the rules that can refute `scope` (see the
/// module docs).
///
/// Sound by the `Error` contract — each such rule is a proven necessary
/// condition for every criterion its applicability names — so a checker
/// returning this violation instead of searching is verdict-equivalent.
pub(crate) fn prelint(p: &Prepared<'_>, criterion: PlanCriterion) -> Option<Violation> {
    let errors = rules::run(p, Emit::Refuting(criterion.lint_scope()));
    let first = first_error(&errors)?;
    Some(Violation::LintRefuted {
        criterion: criterion.display_name().to_owned(),
        // A clone is sized exactly, where the emitted strings and vectors
        // may carry spare capacity; a batch can hold many verdicts.
        diagnostic: Box::new(first.clone()),
    })
}

/// The diagnostic a sorted report lists first among `errors`, which are
/// all `Error`s: the least `(primary event, rule)`, the first emitted on
/// ties (`min_by_key` keeps the first of equal keys).
fn first_error(errors: &[Diagnostic]) -> Option<&Diagnostic> {
    errors.iter().min_by_key(|d| (d.primary.event, d.rule))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error(rule: &'static str, event: usize, message: &str) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Error,
            applicability: Applicability::AllCriteria,
            message: message.to_owned(),
            primary: Span {
                event,
                label: String::new(),
            },
            secondary: Vec::new(),
        }
    }

    /// The prefilter's pick equals the sorted report's first `Error` on
    /// emission lists no history produces today: out of order, with two
    /// rules on one event, and with ties on `(event, rule)`.
    #[test]
    fn first_error_is_the_sorted_reports_first() {
        let emitted = [
            error("RF003", 7, "a"),
            error("CY004", 9, "b"),
            error("AN005", 7, "c"),
            error("AN005", 7, "d"),
            error("CY004", 3, "e"),
            error("CY004", 3, "f"),
        ];
        for n in 1..=emitted.len() {
            for start in 0..n {
                let mut errors = emitted[..n].to_vec();
                errors.rotate_left(start);
                let report = LintReport::sorted(errors.clone());
                assert_eq!(
                    first_error(&errors),
                    report.first_error_for(LintScope::Plain),
                    "{errors:?}"
                );
            }
        }
    }
}
