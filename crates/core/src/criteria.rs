//! The correctness criteria of the paper, as checkers.
//!
//! | Type | Paper definition |
//! |------|------------------|
//! | [`FinalStateOpacity`] | Definition 4 (Guerraoui & Kapalka) |
//! | [`Opacity`] | Definition 5: every finite prefix is final-state opaque |
//! | [`DuOpacity`] | Definition 3: opacity + deferred-update local serializations |
//! | [`ReadCommitOrderOpacity`] | Guerraoui–Henzinger–Singh (DISC'08), Section 4.2 |
//! | [`Tms2`] | Doherty–Groves–Luchangco–Moir, as rendered informally in Section 4.2 |
//! | [`StrictSerializability`] | baseline: final-state opacity of the committed projection |

use crate::must_precede;
use crate::plan::{check_planned, PlanCriterion};
use crate::search::{SearchConfig, SearchStats};
use crate::{Verdict, Violation};
use duop_history::{EventKind, History, TxnId};

/// Which criterion a witness certifies; consumed by
/// [`check_witness`](crate::check_witness).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CriterionKind {
    /// Definition 4.
    FinalStateOpacity,
    /// Definition 3.
    DuOpacity,
    /// The TMS2 rendering of Section 4.2.
    Tms2,
    /// The read-commit-order definition of Section 4.2.
    ReadCommitOrder,
}

/// A decidable transactional-memory correctness criterion.
///
/// Implementations answer membership queries for single histories. All of
/// them attach a [`Witness`](crate::Witness) to positive answers that
/// [`check_witness`](crate::check_witness) can validate independently.
pub trait Criterion {
    /// Human-readable criterion name.
    fn name(&self) -> &'static str;

    /// Decides whether `h` satisfies the criterion.
    fn check(&self, h: &History) -> Verdict;
}

macro_rules! criterion_struct {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Debug, Default)]
        pub struct $name {
            cfg: SearchConfig,
        }

        impl $name {
            /// Creates the checker with default search configuration.
            pub fn new() -> Self {
                Self::default()
            }

            /// Creates the checker with an explicit search configuration.
            pub fn with_config(cfg: SearchConfig) -> Self {
                Self { cfg }
            }
        }
    };
    // A single serialization query: name and check come from the
    // criterion's `PlanCriterion`.
    ($(#[$doc:meta])* $name:ident => $plan:ident) => {
        criterion_struct! { $(#[$doc])* $name }

        impl $name {
            /// As [`Criterion::check`], additionally returning the search
            /// counters — the quantitative basis for the ablations.
            pub fn check_with_stats(&self, h: &History) -> (Verdict, SearchStats) {
                check_planned(h, PlanCriterion::$plan, &self.cfg, None)
            }
        }

        impl Criterion for $name {
            fn name(&self) -> &'static str {
                PlanCriterion::$plan.display_name()
            }

            fn check(&self, h: &History) -> Verdict {
                self.check_with_stats(h).0
            }
        }
    };
}

criterion_struct! {
    /// Final-state opacity (Definition 4): there is a legal t-complete
    /// t-sequential history, equivalent to a completion of `H`, that
    /// respects the real-time order of `H`.
    ///
    /// Not prefix-closed (Figure 3); see [`Opacity`] for the safety
    /// closure.
    ///
    /// # Examples
    ///
    /// ```
    /// use duop_core::{Criterion, FinalStateOpacity};
    /// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
    ///
    /// let h = HistoryBuilder::new()
    ///     .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
    ///     .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
    ///     .build();
    /// assert!(FinalStateOpacity::new().check(&h).is_satisfied());
    /// ```
    FinalStateOpacity => FinalState
}

criterion_struct! {
    /// Opacity (Definition 5): every finite prefix of the history is
    /// final-state opaque.
    ///
    /// Strictly weaker than [`DuOpacity`] (Theorem 10; Figure 4 separates
    /// them) and equal to it under unique writes (Theorem 11).
    ///
    /// # Examples
    ///
    /// ```
    /// use duop_core::{Criterion, Opacity};
    /// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
    ///
    /// let h = HistoryBuilder::new()
    ///     .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
    ///     .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
    ///     .build();
    /// assert!(Opacity::new().check(&h).is_satisfied());
    /// ```
    Opacity
}

impl Criterion for Opacity {
    fn name(&self) -> &'static str {
        "opacity"
    }

    fn check(&self, h: &History) -> Verdict {
        let fso = FinalStateOpacity::with_config(self.cfg.clone());
        opacity_prefix_loop(h, |prefix| fso.check(prefix))
    }
}

/// Opacity's check of `h` with `fso` deciding final-state opacity of each
/// prefix it searches.
pub(crate) fn opacity_prefix_loop(h: &History, fso: impl Fn(&History) -> Verdict) -> Verdict {
    // Only prefixes ending in a response event need checking: extending
    // a final-state-opaque prefix by a single *invocation* adds no
    // completed operations and no legality constraints — the incomplete
    // operation is answered `A_k` (or, for `tryC`, may be answered
    // `A_k`) by a completion, reproducing a serialization of the
    // shorter prefix — so final-state opacity is preserved.
    //
    // Fast path: if the full history is final-state opaque, the
    // Lemma 1-style restriction of its witness often already
    // serializes each prefix; validating a candidate is much cheaper
    // than searching. Final-state opacity is NOT prefix-closed
    // (Figure 3), so a failed validation falls back to a real search.
    let full = if h.is_empty() {
        Verdict::Satisfied(crate::Witness::new(Vec::new(), Default::default()))
    } else {
        fso(h)
    };
    let full_witness = full.witness().cloned();
    for end in 1..=h.len() {
        let is_resp = matches!(h.events()[end - 1].kind, EventKind::Resp(_));
        if !is_resp && end != h.len() {
            continue;
        }
        let prefix = h.prefix(end);
        if let Some(w) = &full_witness {
            let candidate = crate::lemmas::restrict_witness(h, w, end);
            if crate::check_witness(&prefix, &candidate, CriterionKind::FinalStateOpacity).is_ok() {
                if end == h.len() {
                    return Verdict::Satisfied(candidate);
                }
                continue;
            }
        }
        match fso(&prefix) {
            Verdict::Satisfied(w) => {
                if end == h.len() {
                    return Verdict::Satisfied(w);
                }
            }
            Verdict::Violated(v) => {
                return Verdict::Violated(Violation::PrefixNotFinalStateOpaque {
                    prefix_len: end,
                    cause: Box::new(v),
                });
            }
            Verdict::Unknown {
                explored,
                reason,
                partial,
            } => {
                return Verdict::Unknown {
                    explored,
                    reason,
                    partial,
                }
            }
        }
    }
    // Empty history: trivially opaque with the empty witness.
    Verdict::Satisfied(crate::Witness::new(Vec::new(), Default::default()))
}

criterion_struct! {
    /// DU-opacity (Definition 3): final-state opacity where, additionally,
    /// every `read_k(X)` is legal in its *local serialization*
    /// `S^{k,X}_H` — the prefix of `S` up to the read's response with all
    /// transactions that had not invoked `tryC` in `H` by then removed.
    ///
    /// This is the paper's contribution: a prefix-closed (Corollary 2)
    /// strengthening of opacity that explicitly enforces deferred-update
    /// semantics — no transaction reads from a transaction that has not
    /// started committing.
    ///
    /// # Examples
    ///
    /// ```
    /// use duop_core::{Criterion, DuOpacity};
    /// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
    ///
    /// let (t1, t2) = (TxnId::new(1), TxnId::new(2));
    /// let x = ObjId::new(0);
    /// // T2 reads T1's write while T1's tryC is still pending: du-opaque,
    /// // with the completion committing T1.
    /// let h = HistoryBuilder::new()
    ///     .write(t1, x, Value::new(1))
    ///     .inv_try_commit(t1)
    ///     .read(t2, x, Value::new(1))
    ///     .commit(t2)
    ///     .build();
    /// let verdict = DuOpacity::new().check(&h);
    /// assert!(verdict.is_satisfied());
    /// assert_eq!(verdict.witness().unwrap().commit_choice(t1), Some(true));
    /// ```
    DuOpacity => Du
}

criterion_struct! {
    /// The read-commit-order opacity of Guerraoui–Henzinger–Singh
    /// (DISC'08), discussed in Section 4.2: a final-state serialization
    /// must order `T_k` before `T_m` whenever a read of `X` by `T_k`
    /// precedes the `tryC` of a transaction `T_m` that commits on `X`.
    ///
    /// Strictly stronger than [`DuOpacity`]: Figure 5 is du-opaque but not
    /// read-commit-order opaque.
    ReadCommitOrderOpacity => Rco
}

criterion_struct! {
    /// The TMS2 condition as rendered informally in Section 4.2: if
    /// `X ∈ Wset(T_1) ∩ Rset(T_2)`, `T_1` commits, and the `tryC` of `T_1`
    /// precedes the `tryC` of `T_2`, then `T_1` must precede `T_2` in the
    /// final-state serialization.
    ///
    /// The paper conjectures TMS2 ⊆ du-opacity and separates them with
    /// Figure 6 (du-opaque but not TMS2). This is the paper's simplified
    /// rendering, not the full TMS2 I/O automaton.
    Tms2 => Tms2
}

criterion_struct! {
    /// Strict serializability of the *committed projection*: aborted
    /// transactions (and transactions that can only abort) are discarded;
    /// the committed transactions — plus any transaction whose `tryC` is
    /// still pending, which a completion may commit, mirroring how
    /// linearizability treats pending operations — must form a legal
    /// sequential history respecting real time.
    ///
    /// This is the database baseline the paper contrasts TM correctness
    /// with: it says nothing about the views of live or aborted
    /// transactions. Every (du-)opaque history is strictly serializable;
    /// the converse fails (a doomed transaction may observe an
    /// inconsistent snapshot).
    ///
    /// The witness covers only the retained (committed or commit-pending)
    /// transactions.
    StrictSerializability => Strict
}

/// Commit-conditional precedence edges for [`ReadCommitOrderOpacity`]:
/// `T_k → T_m` whenever a value-returning `read_k(X)` responds before the
/// `tryC_m` invocation of a transaction `T_m` with `X ∈ Wset(T_m)` *that
/// the serialization commits*. Writers whose `tryC` already committed in
/// `H` always qualify; commit-pending writers are constrained exactly when
/// the search chooses the commit fate for them (which is why these edges
/// go through `Query::commit_edges`, not `extra_edges`); writers that can
/// never commit are skipped. Enumerated by [`must_precede::rco`].
pub(crate) fn rco_edges(h: &History) -> Vec<(TxnId, TxnId)> {
    id_pairs(h, &must_precede::rco(h))
}

/// Precedence edges for [`Tms2`]: `T_1 → T_2` whenever
/// `X ∈ Wset(T_1) ∩ Rset(T_2)`, `T_1` is committed and the response of
/// `tryC_1` precedes the invocation of `tryC_2`. Enumerated by
/// [`must_precede::tms2`].
pub(crate) fn tms2_edges(h: &History) -> Vec<(TxnId, TxnId)> {
    id_pairs(h, &must_precede::tms2(h))
}

/// Commit-order edges as `(before, after)` transaction id pairs.
pub(crate) fn id_pairs(h: &History, edges: &[must_precede::CommitEdge]) -> Vec<(TxnId, TxnId)> {
    let ids: Vec<TxnId> = h.txn_ids().collect();
    edges
        .iter()
        .map(|e| (ids[e.before], ids[e.after]))
        .collect()
}

/// Checks `h` against every criterion, returning `(name, verdict)` pairs in
/// a fixed order: final-state opacity, opacity, du-opacity,
/// read-commit-order, TMS2, strict serializability.
///
/// Convenience for experiment tables and exploratory use.
pub fn evaluate_all(h: &History) -> Vec<(&'static str, Verdict)> {
    let checks: Vec<Box<dyn Criterion>> = vec![
        Box::new(FinalStateOpacity::new()),
        Box::new(Opacity::new()),
        Box::new(DuOpacity::new()),
        Box::new(ReadCommitOrderOpacity::new()),
        Box::new(Tms2::new()),
        Box::new(StrictSerializability::new()),
    ];
    checks.into_iter().map(|c| (c.name(), c.check(h))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::{HistoryBuilder, ObjId, Value};

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
    fn simple_history_satisfies_everything() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        for (name, verdict) in evaluate_all(&h) {
            assert!(verdict.is_satisfied(), "{name} failed: {verdict}");
        }
    }

    #[test]
    fn du_implies_opacity_on_separating_example() {
        // Figure 4 shape: opaque but not du-opaque. T1's commit attempt
        // spans the whole history and fails at the very end; T3 writes the
        // same value and commits after T2's read responds.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .read(t(2), x(), v(1))
            .committed_writer(t(3), x(), v(1))
            .resp_aborted(t(1))
            .build();
        assert!(Opacity::new().check(&h).is_satisfied());
        assert!(DuOpacity::new().check(&h).is_violated());
    }

    #[test]
    fn doomed_transaction_breaks_opacity_but_not_strict_serializability() {
        let (y, one) = (ObjId::new(1), v(1));
        // T3 observes X=1, Y=0 although T1 wrote both before committing —
        // T3 aborts, so the committed projection is fine, but opacity
        // fails.
        let h = HistoryBuilder::new()
            .write(t(1), x(), one)
            .write(t(1), y, one)
            .commit(t(1))
            .read(t(3), x(), one)
            .read(t(3), y, v(0))
            .commit_aborted(t(3))
            .build();
        assert!(StrictSerializability::new().check(&h).is_satisfied());
        assert!(FinalStateOpacity::new().check(&h).is_violated());
        assert!(DuOpacity::new().check(&h).is_violated());
    }

    #[test]
    fn final_state_opaque_history_with_non_opaque_prefix() {
        // Figure 3: sequential history whose prefix is not final-state
        // opaque.
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(1))
            .commit(t(2))
            .resp_ok(t(1))
            .commit(t(1))
            .build();
        assert!(FinalStateOpacity::new().check(&h).is_satisfied());
        let verdict = Opacity::new().check(&h);
        assert!(matches!(
            verdict.violation(),
            Some(Violation::PrefixNotFinalStateOpaque { .. })
        ));
    }

    #[test]
    fn empty_history_is_opaque() {
        let h = duop_history::History::empty();
        assert!(Opacity::new().check(&h).is_satisfied());
        assert!(DuOpacity::new().check(&h).is_satisfied());
    }

    #[test]
    fn rco_edges_computed() {
        // Reader's read responds before writer's tryC invocation.
        let h = HistoryBuilder::new()
            .read(t(1), x(), v(0))
            .committed_writer(t(2), x(), v(1))
            .commit(t(1))
            .build();
        assert_eq!(rco_edges(&h), vec![(t(1), t(2))]);
    }

    #[test]
    fn rco_edges_cover_commit_pending_writers() {
        // The writer's tryC never responds: the completion may commit it,
        // and then the read-commit-order constraint must bind. The edge is
        // emitted (conditionally) rather than skipped.
        let h = HistoryBuilder::new()
            .read(t(1), x(), v(0))
            .write(t(2), x(), v(1))
            .inv_try_commit(t(2))
            .commit(t(1))
            .build();
        assert_eq!(rco_edges(&h), vec![(t(1), t(2))]);
    }

    #[test]
    fn rco_binds_commit_pending_writer_a_reader_depends_on() {
        // T2's write of 1 is commit-pending with its tryC invoked *after*
        // T4's read of 1 responds. Serializing T4's read requires
        // committing T2 before T4; read-commit-order then demands T4
        // before T2 (T4's read responded before tryC_2) — contradiction,
        // so the history is not RCO-opaque. It is du-opaque? No — the
        // tryC_2 invocation follows the read response, so the read is not
        // even du-eligible; plain final-state opacity accepts it though.
        let h = HistoryBuilder::new()
            .inv_read(t(4), x())
            .write(t(2), x(), v(1))
            .resp_value(t(4), v(1))
            .inv_try_commit(t(2))
            .commit(t(4))
            .build();
        assert!(FinalStateOpacity::new().check(&h).is_satisfied());
        assert!(ReadCommitOrderOpacity::new().check(&h).is_violated());
    }

    #[test]
    fn tms2_edges_computed() {
        // Writer commits X before reader's tryC; reader read X.
        let h = HistoryBuilder::new()
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .committed_writer(t(1), x(), v(1))
            .commit(t(2))
            .build();
        assert_eq!(tms2_edges(&h), vec![(t(1), t(2))]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FinalStateOpacity::new().name(), "final-state opacity");
        assert_eq!(Opacity::new().name(), "opacity");
        assert_eq!(DuOpacity::new().name(), "du-opacity");
        assert_eq!(
            ReadCommitOrderOpacity::new().name(),
            "read-commit-order opacity"
        );
        assert_eq!(Tms2::new().name(), "TMS2");
        assert_eq!(
            StrictSerializability::new().name(),
            "strict serializability"
        );
    }
}
