//! Independent validation of witness serializations.
//!
//! [`check_witness`] re-derives every condition of the criterion
//! definitions directly on the materialized history `S`, sharing no state
//! with the search engine. It is the oracle used by the differential and
//! property tests, and the proof that a [`Witness`] returned by a checker
//! really certifies the criterion.

use crate::criteria::{rco_edges, tms2_edges, CriterionKind};
use crate::verdict::committed_in_s;
use crate::{Violation, Witness};
use duop_history::{History, LegalityError, ObjId, Op, OpRecord, Ret, TxnId, TxnView, Value};
use std::error::Error;
use std::fmt;

/// Why a witness fails to certify a criterion for a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessError {
    /// The witness order does not cover exactly the history's transactions.
    WrongCoverage,
    /// The materialized `S` is not equivalent to any completion of `H`.
    NotEquivalentToCompletion,
    /// Real-time order violated: `earlier ≺RT later` in `H` but the
    /// witness places them in the opposite order.
    RealTimeViolated {
        /// The transaction that finishes first in `H`.
        earlier: TxnId,
        /// The transaction that starts after `earlier` finishes.
        later: TxnId,
    },
    /// The materialized `S` is not legal.
    NotLegal(LegalityError),
    /// Definition 3(3) fails: a read is not legal in its local
    /// serialization `S^{k,X}_H`.
    LocalLegalityViolated {
        /// The reading transaction.
        txn: TxnId,
        /// The t-object.
        obj: ObjId,
        /// The value the read returned.
        got: Value,
        /// The latest written value in the local serialization.
        expected: Value,
    },
    /// A criterion-specific precedence edge is violated.
    EdgeViolated {
        /// Must come first.
        before: TxnId,
        /// Must come second.
        after: TxnId,
    },
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::WrongCoverage => {
                write!(f, "witness does not cover exactly the history's transactions")
            }
            WitnessError::NotEquivalentToCompletion => {
                write!(f, "materialized serialization is not equivalent to a completion")
            }
            WitnessError::RealTimeViolated { earlier, later } => {
                write!(f, "real-time order violated: {earlier} precedes {later} in the history")
            }
            WitnessError::NotLegal(err) => write!(f, "serialization is not legal: {err}"),
            WitnessError::LocalLegalityViolated { txn, obj, got, expected } => write!(
                f,
                "read of {obj} by {txn} returned {got} but its local serialization yields {expected}"
            ),
            WitnessError::EdgeViolated { before, after } => {
                write!(f, "criterion requires {before} before {after}")
            }
        }
    }
}

impl Error for WitnessError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WitnessError::NotLegal(err) => Some(err),
            _ => None,
        }
    }
}

/// Validates that `witness` certifies `kind` for history `h`.
///
/// Checks, in order: coverage; equivalence to a completion of `h`
/// (Definition 2); real-time order (Definitions 3(2)/4(1)); legality of
/// the materialized `S`; and the criterion-specific condition —
/// Definition 3(3) for du-opacity, the precedence edges for TMS2 and
/// read-commit-order opacity.
///
/// Runs in time near-linear in the history: witness positions come from
/// one table indexed by transaction slot, real-time order is one sweep
/// over the witness order (the pairwise scan runs only to name the
/// offending pair), and each read's local serialization is found by a
/// backward scan that stops at its latest eligible writer.
///
/// # Errors
///
/// Returns the first [`WitnessError`] encountered.
pub fn check_witness(
    h: &History,
    witness: &Witness,
    kind: CriterionKind,
) -> Result<(), WitnessError> {
    // Coverage: exactly the transactions of `h`, each once.
    let pos = positions(h, witness.order()).ok_or(WitnessError::WrongCoverage)?;

    let s = witness.materialize(h);

    // Equivalence to a completion (Definition 2). The canonical completion
    // with the witness's commit choices has the same per-transaction
    // events, so equivalence to it is exactly what we need.
    let completion = h.complete_with(|id| witness.commit_choice(id).unwrap_or(false));
    if !s.equivalent(&completion) || !completion.is_completion_of(h) {
        return Err(WitnessError::NotEquivalentToCompletion);
    }

    // The transactions in witness order.
    let placed: Vec<TxnView<'_>> = witness
        .order()
        .iter()
        .map(|&id| h.txn(id).expect("coverage checked"))
        .collect();
    check_real_time(h, &pos, &placed)?;

    // Legality of S.
    s.check_legal().map_err(WitnessError::NotLegal)?;

    match kind {
        CriterionKind::FinalStateOpacity => {}
        CriterionKind::DuOpacity => check_local_legality(h, witness, &pos, &placed)?,
        CriterionKind::Tms2 => check_edges(h, &pos, tms2_edges(h))?,
        CriterionKind::ReadCommitOrder => {
            // The edges are commit-conditional: an edge toward a writer
            // the witness's completion *aborts* is vacuous.
            let edges = rco_edges(h)
                .into_iter()
                .filter(|&(_, writer)| witness.is_committed_in(h, writer))
                .collect();
            check_edges(h, &pos, edges)?;
        }
    }
    Ok(())
}

/// The position of every transaction in `order`, indexed by its slot in
/// `h` ([`History::txn_slot`]), or `None` unless `order` lists exactly the
/// transactions of `h`, each once.
pub(crate) fn positions(h: &History, order: &[TxnId]) -> Option<Vec<u32>> {
    if order.len() != h.txn_count() {
        return None;
    }
    let mut pos = vec![u32::MAX; order.len()];
    for (p, &id) in order.iter().enumerate() {
        let slot = h.txn_slot(id)?;
        if pos[slot] != u32::MAX {
            return None;
        }
        pos[slot] = p as u32;
    }
    Some(pos)
}

/// Real-time order: no transaction may be placed after one it
/// `≺RT`-precedes. A sweep from the back of the witness order tracks the
/// earliest last event of a t-complete transaction placed later; an
/// inversion exists iff that event comes before some transaction's first.
fn check_real_time(h: &History, pos: &[u32], placed: &[TxnView<'_>]) -> Result<(), WitnessError> {
    let mut earliest_end = usize::MAX;
    let inverted = placed.iter().rev().any(|t| {
        if earliest_end < t.first_event_index() {
            return true;
        }
        if t.is_t_complete() {
            earliest_end = earliest_end.min(t.last_event_index());
        }
        false
    });
    if !inverted {
        return Ok(());
    }
    // Name the pair the definition's pairwise scan meets first.
    for (sa, a) in h.txns().enumerate() {
        if !a.is_t_complete() {
            continue;
        }
        for (sb, b) in h.txns().enumerate() {
            if a.last_event_index() < b.first_event_index() && pos[sa] >= pos[sb] {
                return Err(WitnessError::RealTimeViolated {
                    earlier: a.id(),
                    later: b.id(),
                });
            }
        }
    }
    unreachable!("the sweep found a real-time inversion")
}

/// Definition 3(3): for every `read_k(X)` returning a value, the local
/// serialization `S^{k,X}_H` — the prefix of `S` up to the read's
/// response, with every transaction `T_m` whose `tryC_m` is not invoked
/// in `H^{k,X}` removed (the reader itself is retained) — must make the
/// read return the latest written value.
fn check_local_legality(
    h: &History,
    witness: &Witness,
    pos: &[u32],
    placed: &[TxnView<'_>],
) -> Result<(), WitnessError> {
    let committed: Vec<bool> = placed
        .iter()
        .map(|t| committed_in_s(t, witness.commit_choice(t.id())))
        .collect();
    for (slot, txn) in h.txns().enumerate() {
        let before = pos[slot] as usize;
        for op in txn.ops() {
            let (Op::Read(x), Some(Ret::Value(got))) = (op.op, op.resp) else {
                continue;
            };
            // Own-write reads are legal locally iff legal globally (already
            // checked): the reader's own events are retained in S^{k,X}_H.
            if own_write_before(txn, op).is_some() {
                continue;
            }
            let resp = op.resp_index.expect("complete read has a response index");
            let writers = placed[..before]
                .iter()
                .zip(&committed[..before])
                .rev()
                .map(|(t, &c)| (*t, c));
            let (_, expected) = latest_writes(writers, x, resp);
            if got != expected {
                return Err(WitnessError::LocalLegalityViolated {
                    txn: txn.id(),
                    obj: x,
                    got,
                    expected,
                });
            }
        }
    }
    Ok(())
}

/// The value of `txn`'s latest completed write to the t-object the read
/// `op` reads, among the operations before it: when present, it fixes
/// the value the read must return whatever the serialization.
pub(crate) fn own_write_before(txn: TxnView<'_>, op: &OpRecord) -> Option<Value> {
    let Op::Read(x) = op.op else {
        return None;
    };
    txn.ops()
        .iter()
        .take_while(|o| o.inv_index < op.inv_index)
        .filter_map(|o| match (o.op, o.resp) {
            (Op::Write(ox, v), Some(Ret::Ok)) if ox == x => Some(v),
            _ => None,
        })
        .last()
}

/// The values a read of `x` responding at event `resp` must return,
/// given the transactions serialized before the reader, nearest first,
/// each with whether it is committed in `S`: the latest value written
/// there (global legality, for a read with no own write before it), and
/// the latest written by a transaction whose `tryC` was invoked before
/// `resp` (Definition 3(3)'s local serialization). Either is
/// [`Value::INITIAL`] without a writer.
pub(crate) fn latest_writes<'a>(
    before: impl Iterator<Item = (TxnView<'a>, bool)>,
    x: ObjId,
    resp: usize,
) -> (Value, Value) {
    let mut global = None;
    for (m, committed) in before {
        if !committed {
            continue;
        }
        let Some(v) = m.last_write_to(x) else {
            continue;
        };
        let latest = *global.get_or_insert(v);
        let eligible = m
            .ops()
            .iter()
            .find(|o| o.op.is_try_commit())
            .is_some_and(|o| o.inv_index < resp);
        if eligible {
            return (latest, v);
        }
    }
    (global.unwrap_or(Value::INITIAL), Value::INITIAL)
}

fn check_edges(h: &History, pos: &[u32], edges: Vec<(TxnId, TxnId)>) -> Result<(), WitnessError> {
    let at = |id| pos[h.txn_slot(id).expect("coverage checked")];
    for (before, after) in edges {
        if at(before) >= at(after) {
            return Err(WitnessError::EdgeViolated { before, after });
        }
    }
    Ok(())
}

impl From<WitnessError> for Violation {
    fn from(err: WitnessError) -> Self {
        match err {
            WitnessError::LocalLegalityViolated { txn, obj, got, .. } => Violation::MissingWriter {
                txn,
                obj,
                value: got,
            },
            other => Violation::NoSerialization {
                criterion: format!("witness validation failed: {other}"),
                explored: 0,
            },
        }
    }
}

/// The definition-literal form of [`check_witness`] — a pairwise
/// real-time scan, [`Witness::position`] lookups, and a forward scan of
/// the witness prefix per read — kept as the reference the near-linear
/// implementation must agree with exactly (same `Result`, same error
/// variant and fields).
#[cfg(test)]
mod literal {
    use super::*;

    pub(super) fn check_witness(
        h: &History,
        witness: &Witness,
        kind: CriterionKind,
    ) -> Result<(), WitnessError> {
        // Coverage: exactly the transactions of `h`, each once.
        if witness.order().len() != h.txn_count() {
            return Err(WitnessError::WrongCoverage);
        }
        for &id in witness.order() {
            if !h.participates(id) {
                return Err(WitnessError::WrongCoverage);
            }
        }
        {
            let mut seen = std::collections::HashSet::new();
            if !witness.order().iter().all(|id| seen.insert(*id)) {
                return Err(WitnessError::WrongCoverage);
            }
        }

        let s = witness.materialize(h);

        // Equivalence to a completion (Definition 2). The canonical completion
        // with the witness's commit choices has the same per-transaction
        // events, so equivalence to it is exactly what we need.
        let completion = h.complete_with(|id| witness.commit_choice(id).unwrap_or(false));
        if !s.equivalent(&completion) || !completion.is_completion_of(h) {
            return Err(WitnessError::NotEquivalentToCompletion);
        }

        // Real-time order.
        let ids: Vec<TxnId> = h.txn_ids().collect();
        for &a in &ids {
            for &b in &ids {
                if a != b && h.precedes_rt(a, b) {
                    let (pa, pb) = (
                        witness.position(a).expect("coverage checked"),
                        witness.position(b).expect("coverage checked"),
                    );
                    if pa >= pb {
                        return Err(WitnessError::RealTimeViolated {
                            earlier: a,
                            later: b,
                        });
                    }
                }
            }
        }

        // Legality of S.
        s.check_legal().map_err(WitnessError::NotLegal)?;

        match kind {
            CriterionKind::FinalStateOpacity => {}
            CriterionKind::DuOpacity => check_local_legality(h, witness, &s)?,
            CriterionKind::Tms2 => check_edges(witness, tms2_edges(h))?,
            CriterionKind::ReadCommitOrder => {
                // The edges are commit-conditional: an edge toward a writer
                // the witness's completion *aborts* is vacuous.
                let edges = rco_edges(h)
                    .into_iter()
                    .filter(|&(_, writer)| witness.is_committed_in(h, writer))
                    .collect();
                check_edges(witness, edges)?;
            }
        }
        Ok(())
    }

    /// Definition 3(3), implemented literally: for every `read_k(X)` returning
    /// a value, build the local serialization `S^{k,X}_H` — the prefix of `S`
    /// up to the read's response, with every transaction `T_m` whose `tryC_m`
    /// is not invoked in `H^{k,X}` removed (the reader itself is retained) —
    /// and check the read returns the latest written value there.
    fn check_local_legality(
        h: &History,
        witness: &Witness,
        s: &History,
    ) -> Result<(), WitnessError> {
        for txn in h.txns() {
            let k = txn.id();
            let pos_k = witness.position(k).expect("coverage checked");
            for op in txn.ops() {
                let (Op::Read(x), Some(Ret::Value(got))) = (op.op, op.resp) else {
                    continue;
                };
                // Own-write reads are legal locally iff legal globally (already
                // checked): the reader's own events are retained in S^{k,X}_H.
                let own_write = txn.ops()[..]
                    .iter()
                    .take_while(|o| o.inv_index < op.inv_index)
                    .filter_map(|o| match (o.op, o.resp) {
                        (Op::Write(ox, v), Some(Ret::Ok)) if ox == x => Some(v),
                        _ => None,
                    })
                    .last();
                if own_write.is_some() {
                    continue;
                }
                let resp_h = h
                    .read_resp_index(k, x)
                    .expect("complete read has a response index");
                // Latest written value of X in S^{k,X}_H: the last committed
                // (in S) transaction before T_k in the witness order that
                // writes X *and* has invoked tryC in H^{k,X}.
                let mut expected = Value::INITIAL;
                for &m in &witness.order()[..pos_k] {
                    if !witness.is_committed_in(h, m) {
                        continue;
                    }
                    let eligible = h.try_commit_inv_index(m).is_some_and(|inv| inv < resp_h);
                    if !eligible {
                        continue;
                    }
                    if let Some(v) = s.txn(m).expect("txn in S").last_write_to(x) {
                        expected = v;
                    }
                }
                if got != expected {
                    return Err(WitnessError::LocalLegalityViolated {
                        txn: k,
                        obj: x,
                        got,
                        expected,
                    });
                }
            }
        }
        Ok(())
    }

    fn check_edges(witness: &Witness, edges: Vec<(TxnId, TxnId)>) -> Result<(), WitnessError> {
        for (before, after) in edges {
            let (pa, pb) = (
                witness.position(before).expect("coverage checked"),
                witness.position(after).expect("coverage checked"),
            );
            if pa >= pb {
                return Err(WitnessError::EdgeViolated { before, after });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::CriterionKind;
    use duop_history::HistoryBuilder;
    use std::collections::BTreeMap;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    fn w(order: Vec<TxnId>) -> Witness {
        Witness::new(order, BTreeMap::new())
    }

    #[test]
    fn valid_witness_accepted() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        assert_eq!(
            check_witness(&h, &w(vec![t(1), t(2)]), CriterionKind::DuOpacity),
            Ok(())
        );
    }

    #[test]
    fn coverage_errors() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(2))
            .build();
        assert_eq!(
            check_witness(&h, &w(vec![t(1)]), CriterionKind::FinalStateOpacity),
            Err(WitnessError::WrongCoverage)
        );
        assert_eq!(
            check_witness(&h, &w(vec![t(1), t(1)]), CriterionKind::FinalStateOpacity),
            Err(WitnessError::WrongCoverage)
        );
        assert_eq!(
            check_witness(&h, &w(vec![t(1), t(9)]), CriterionKind::FinalStateOpacity),
            Err(WitnessError::WrongCoverage)
        );
    }

    #[test]
    fn real_time_violation_detected() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(2))
            .build();
        assert_eq!(
            check_witness(&h, &w(vec![t(2), t(1)]), CriterionKind::FinalStateOpacity),
            Err(WitnessError::RealTimeViolated {
                earlier: t(1),
                later: t(2)
            })
        );
    }

    #[test]
    fn illegal_serialization_detected() {
        // Both orders illegal for a stale read.
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_ok(t(1))
            .resp_value(t(2), v(9))
            .commit(t(1))
            .commit(t(2))
            .build();
        let res = check_witness(&h, &w(vec![t(1), t(2)]), CriterionKind::FinalStateOpacity);
        assert!(matches!(res, Err(WitnessError::NotLegal(_))));
    }

    #[test]
    fn local_legality_distinguishes_du() {
        // T3's write of 1 commits, but its tryC is invoked after T2's read
        // responded. Witness T1(aborted) T3 T2 is final-state valid but
        // du-invalid.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .commit_aborted(t(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(1))
            .committed_writer(t(3), x(), v(1))
            .commit(t(2))
            .build();
        let witness = w(vec![t(1), t(3), t(2)]);
        assert_eq!(
            check_witness(&h, &witness, CriterionKind::FinalStateOpacity),
            Ok(())
        );
        assert_eq!(
            check_witness(&h, &witness, CriterionKind::DuOpacity),
            Err(WitnessError::LocalLegalityViolated {
                txn: t(2),
                obj: x(),
                got: v(1),
                expected: v(0),
            })
        );
    }

    #[test]
    fn local_legality_takes_the_latest_eligible_writer() {
        // T2 reads T3's 2 before T3 invokes tryC; T1 committed 1 earlier.
        // Witness T1 T3 T2: globally T2 reads T3's 2, but S^{2,X} drops T3
        // and ends with T1's 1.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .write(t(3), x(), v(2))
            .inv_read(t(2), x())
            .resp_value(t(2), v(2))
            .commit(t(3))
            .commit(t(2))
            .build();
        let witness = w(vec![t(1), t(3), t(2)]);
        assert_eq!(
            check_witness(&h, &witness, CriterionKind::FinalStateOpacity),
            Ok(())
        );
        let expected = Err(WitnessError::LocalLegalityViolated {
            txn: t(2),
            obj: x(),
            got: v(2),
            expected: v(1),
        });
        assert_eq!(
            check_witness(&h, &witness, CriterionKind::DuOpacity),
            expected
        );
        assert_eq!(
            literal::check_witness(&h, &witness, CriterionKind::DuOpacity),
            expected
        );
    }

    #[test]
    fn pending_commit_choice_affects_validity() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .read(t(2), x(), v(1))
            .commit(t(2))
            .build();
        let committed = Witness::new(vec![t(1), t(2)], BTreeMap::from([(t(1), true)]));
        assert_eq!(
            check_witness(&h, &committed, CriterionKind::DuOpacity),
            Ok(())
        );

        let aborted = Witness::new(vec![t(1), t(2)], BTreeMap::from([(t(1), false)]));
        assert!(check_witness(&h, &aborted, CriterionKind::DuOpacity).is_err());
    }

    #[test]
    fn own_write_reads_are_locally_legal() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(7))
            .read(t(1), x(), v(7))
            .commit(t(1))
            .build();
        assert_eq!(
            check_witness(&h, &w(vec![t(1)]), CriterionKind::DuOpacity),
            Ok(())
        );
    }

    const KINDS: [CriterionKind; 4] = [
        CriterionKind::FinalStateOpacity,
        CriterionKind::DuOpacity,
        CriterionKind::ReadCommitOrder,
        CriterionKind::Tms2,
    ];

    /// Mutants of `base`: adjacent swaps, a moved transaction, flipped
    /// commit choices, dropped, duplicated and foreign ids, and the
    /// reversed order (which inverts most real-time pairs).
    fn mutants(base: &Witness, rng: &mut rand::rngs::StdRng) -> Vec<Witness> {
        use rand::Rng;
        let order = base.order().to_vec();
        let choices = base.commit_choices().clone();
        let with_order = |o: Vec<TxnId>| Witness::new(o, choices.clone());
        let mut out = vec![
            base.clone(),
            with_order(order.iter().rev().copied().collect()),
        ];
        let n = order.len();
        if n == 0 {
            out.push(with_order(vec![t(999)]));
            return out;
        }
        {
            let mut o = order.clone();
            if n > 1 {
                let i = rng.gen_range(0..n - 1);
                o.swap(i, i + 1);
            }
            out.push(with_order(o));

            let mut o = order.clone();
            let moved = o.remove(rng.gen_range(0..n));
            o.insert(rng.gen_range(0..n), moved);
            out.push(with_order(o));

            let id = order[rng.gen_range(0..n)];
            let mut flipped = choices.clone();
            flipped.insert(id, !base.commit_choice(id).unwrap_or(false));
            out.push(Witness::new(order.clone(), flipped));
        }
        let mut o = order.clone();
        o.remove(rng.gen_range(0..n));
        out.push(with_order(o));
        let mut o = order.clone();
        o.push(order[rng.gen_range(0..n)]);
        out.push(with_order(o));
        let mut o = order.clone();
        o[rng.gen_range(0..n)] = order[rng.gen_range(0..n)];
        out.push(with_order(o));
        let mut o = order.clone();
        o[rng.gen_range(0..n)] = t(999);
        out.push(with_order(o));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The near-linear `check_witness` returns exactly the literal
        /// form's `Result` — same error variant, same fields — for every
        /// criterion, on every prefix of generated histories (pending
        /// operations and commit-pending transactions included), for
        /// certified witnesses and their mutants alike.
        #[test]
        fn matches_the_literal_form(seed in proptest::prelude::any::<u64>()) {
            use duop_gen::{HistoryGen, HistoryGenConfig};
            use rand::{Rng, SeedableRng};
            let cfg = match seed % 4 {
                0 => HistoryGenConfig::small_adversarial().with_txns(6),
                1 => HistoryGenConfig::small_simulated().with_txns(6),
                // ABA under value-based validation: du-violations whose
                // cause is local legality alone.
                2 => HistoryGenConfig {
                    mode: duop_gen::GenMode::ValueValidated,
                    ..HistoryGenConfig::small_simulated().with_txns(6)
                },
                _ => HistoryGenConfig::medium_simulated().with_txns(10),
            };
            let h = HistoryGen::new(cfg, seed).generate();
            let certified = crate::Criterion::check(&crate::DuOpacity::new(), &h).into_result().ok();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for i in 0..=h.len() {
                let p = h.prefix(i);
                let mut bases = Vec::new();
                let choices = p
                    .commit_pending_txns()
                    .into_iter()
                    .map(|id| (id, rng.gen_bool(0.5)))
                    .collect();
                bases.push(Witness::new(p.txn_ids().collect(), choices));
                if let Some(w) = &certified {
                    // Lemma 1: the restriction certifies the prefix.
                    bases.push(crate::lemmas::restrict_witness(&h, w, i));
                }
                for base in &bases {
                    for m in mutants(base, &mut rng) {
                        for kind in KINDS {
                            proptest::prop_assert_eq!(
                                check_witness(&p, &m, kind),
                                literal::check_witness(&p, &m, kind),
                                "{:?} on prefix {} of seed {}: {:?}", kind, i, seed, m
                            );
                        }
                    }
                }
            }
        }
    }
}
