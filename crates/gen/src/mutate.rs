//! Targeted violation injection.
//!
//! Each mutator perturbs a (presumably correct) history in a way that is
//! likely — not guaranteed — to break a correctness criterion, while
//! keeping the history well-formed. Tests pair them with the checkers to
//! confirm violations are caught, and with correct inputs to measure
//! near-miss discrimination.

use duop_history::{Event, EventKind, History, Op, Ret, Value};
use rand::Rng;

/// Replaces the value returned by one randomly chosen read with a
/// different value, producing a likely-illegal read.
///
/// Returns `None` if the history contains no value-returning read or the
/// mutation would be ill-formed.
pub fn corrupt_read_value(h: &History, rng: &mut impl Rng) -> Option<History> {
    let candidates: Vec<usize> = h
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::Resp(Ret::Value(_))))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let at = candidates[rng.gen_range(0..candidates.len())];
    let mut events = h.events().to_vec();
    if let EventKind::Resp(Ret::Value(v)) = events[at].kind {
        let bumped = Value::new(v.get().wrapping_add(1 + rng.gen_range(0..5)));
        events[at] = Event::resp(events[at].txn, Ret::Value(bumped));
    }
    History::new(events).ok()
}

/// Replaces the value returned by one randomly chosen read with a value
/// above every value the history writes, so no transaction can supply
/// it: the mutant is rejected by every criterion (read-from
/// non-existence, lint rule RF003), unlike [`corrupt_read_value`]'s bump,
/// which may land on a value another transaction wrote.
///
/// Returns `None` if the history contains no value-returning read or
/// writes the largest representable value.
pub fn orphan_read_value(h: &History, rng: &mut impl Rng) -> Option<History> {
    let candidates: Vec<usize> = h
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::Resp(Ret::Value(_))))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let top = h
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Inv(Op::Write(_, v)) => Some(v.get()),
            _ => None,
        })
        .max()
        .unwrap_or(Value::INITIAL.get());
    let orphan = Value::new(top.checked_add(1)?);
    let at = candidates[rng.gen_range(0..candidates.len())];
    let mut events = h.events().to_vec();
    events[at] = Event::resp(events[at].txn, Ret::Value(orphan));
    History::new(events).ok()
}

/// Flips one randomly chosen commit response (`C_k`) into an abort
/// (`A_k`), likely orphaning any reader of the transaction's writes.
///
/// Returns `None` if no transaction commits.
pub fn flip_commit_to_abort(h: &History, rng: &mut impl Rng) -> Option<History> {
    let candidates: Vec<usize> = h
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::Resp(Ret::Committed)))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let at = candidates[rng.gen_range(0..candidates.len())];
    let mut events = h.events().to_vec();
    events[at] = Event::resp(events[at].txn, Ret::Aborted);
    History::new(events).ok()
}

/// Moves one randomly chosen `tryC` invocation (with its response, if any)
/// to the end of the history, which tends to break the deferred-update
/// condition while leaving plain opacity intact — the separation Theorem 10
/// is about.
///
/// Returns `None` if there is no `tryC` to move or the move is ill-formed.
pub fn delay_try_commit(h: &History, rng: &mut impl Rng) -> Option<History> {
    let invs: Vec<usize> = h
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::Inv(Op::TryCommit)))
        .map(|(i, _)| i)
        .collect();
    if invs.is_empty() {
        return None;
    }
    let at = invs[rng.gen_range(0..invs.len())];
    let txn = h.events()[at].txn;
    let mut moved = Vec::new();
    let mut rest = Vec::new();
    for (i, e) in h.events().iter().enumerate() {
        if i >= at && e.txn == txn {
            moved.push(*e);
        } else {
            rest.push(*e);
        }
    }
    rest.extend(moved);
    History::new(rest).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::{HistoryBuilder, ObjId, TxnId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    fn sample() -> History {
        HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build()
    }

    #[test]
    fn corrupt_read_changes_exactly_one_value() {
        let h = sample();
        let mut rng = StdRng::seed_from_u64(1);
        let mutated = corrupt_read_value(&h, &mut rng).expect("has a read");
        assert_eq!(mutated.len(), h.len());
        let diffs = h
            .events()
            .iter()
            .zip(mutated.events())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn corrupt_read_requires_a_read() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .build();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(corrupt_read_value(&h, &mut rng).is_none());
    }

    #[test]
    fn orphan_read_returns_an_unwritten_value() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(7))
            .committed_writer(t(2), ObjId::new(1), v(3))
            .committed_reader(t(3), x(), v(7))
            .build();
        let mut rng = StdRng::seed_from_u64(5);
        let mutated = orphan_read_value(&h, &mut rng).expect("has a read");
        let read: Vec<Value> = mutated
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Resp(Ret::Value(got)) => Some(got),
                _ => None,
            })
            .collect();
        assert_eq!(read, vec![v(8)]);
        let no_reads = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .build();
        assert!(orphan_read_value(&no_reads, &mut rng).is_none());
    }

    #[test]
    fn flip_commit_aborts_a_committed_txn() {
        let h = sample();
        let mut rng = StdRng::seed_from_u64(2);
        let mutated = flip_commit_to_abort(&h, &mut rng).expect("has commits");
        let aborted = mutated.txns().filter(|t| t.is_aborted()).count();
        assert_eq!(aborted, 1);
    }

    #[test]
    fn delay_try_commit_moves_txn_suffix_to_end() {
        let h = sample();
        let mut rng = StdRng::seed_from_u64(3);
        let mutated = delay_try_commit(&h, &mut rng).expect("has tryC");
        assert_eq!(mutated.len(), h.len());
        // The last event is now a commit/abort response.
        assert!(matches!(
            mutated.events().last().unwrap().kind,
            EventKind::Resp(Ret::Committed | Ret::Aborted)
        ));
    }

    #[test]
    fn mutators_preserve_well_formedness() {
        let h = sample();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            if let Some(m) = corrupt_read_value(&h, &mut rng) {
                assert_eq!(m.txn_count(), h.txn_count());
            }
            if let Some(m) = orphan_read_value(&h, &mut rng) {
                assert_eq!(m.txn_count(), h.txn_count());
            }
            if let Some(m) = flip_commit_to_abort(&h, &mut rng) {
                assert_eq!(m.txn_count(), h.txn_count());
            }
            if let Some(m) = delay_try_commit(&h, &mut rng) {
                assert_eq!(m.txn_count(), h.txn_count());
            }
        }
    }
}
