//! Completions of a history (Definition 2).
//!
//! A completion `H̄` of `H` closes every transaction: incomplete
//! `read`/`write`/`tryA` operations are answered with `A_k`, an incomplete
//! `tryC_k()` is answered with either `C_k` or `A_k`, and a complete but not
//! t-complete transaction is extended with `tryC_k · A_k`.

use crate::{CommitCapability, Event, History, Op, Ret, TxnId};

impl History {
    /// Transactions with an incomplete `tryC_k()` — the only transactions
    /// for which a completion has a choice (commit or abort).
    ///
    /// Ordered by first appearance.
    pub fn commit_pending_txns(&self) -> Vec<TxnId> {
        self.txns()
            .filter(|t| t.commit_capability() == CommitCapability::CommitPending)
            .map(|t| t.id())
            .collect()
    }

    /// Materializes a completion of this history.
    ///
    /// For every transaction with an incomplete `tryC_k()`, `decide`
    /// chooses the inserted response: `true` for `C_k`, `false` for `A_k`.
    /// All inserted events are appended after the original events (a valid
    /// choice of "somewhere after the invocation").
    ///
    /// The result is t-complete and is a completion of `self` in the sense
    /// of Definition 2 (see [`History::is_completion_of`]).
    pub fn complete_with(&self, mut decide: impl FnMut(TxnId) -> bool) -> History {
        let mut events = self.events().to_vec();
        for t in self.txns() {
            if t.is_t_complete() {
                continue;
            }
            match t.ops().last() {
                Some(last) if !last.is_complete() => {
                    let ret = if last.op.is_try_commit() && decide(t.id()) {
                        Ret::Committed
                    } else {
                        Ret::Aborted
                    };
                    events.push(Event::resp(t.id(), ret));
                }
                _ => {
                    // Complete but not t-complete: append tryC_k · A_k.
                    events.push(Event::inv(t.id(), Op::TryCommit));
                    events.push(Event::resp(t.id(), Ret::Aborted));
                }
            }
        }
        History::new(events).expect("completion of a well-formed history is well-formed")
    }

    /// Materializes the completion that aborts every unresolved
    /// transaction.
    pub fn complete_aborting(&self) -> History {
        self.complete_with(|_| false)
    }

    /// Enumerates all completions of this history (one per assignment of
    /// commit/abort to each commit-pending transaction), up to the
    /// placement of inserted events.
    ///
    /// The number of completions is `2^p` where `p` is the number of
    /// commit-pending transactions; intended for small histories and
    /// differential testing.
    pub fn completions(&self) -> impl Iterator<Item = History> + '_ {
        let pending = self.commit_pending_txns();
        let n = pending.len();
        assert!(
            n < usize::BITS as usize,
            "too many commit-pending transactions to enumerate"
        );
        (0..(1usize << n)).map(move |mask| {
            self.complete_with(|id| {
                let bit = pending.iter().position(|p| *p == id).expect("pending txn");
                mask & (1 << bit) != 0
            })
        })
    }

    /// Returns `true` if `self` is a completion of `h` per Definition 2.
    ///
    /// Checks that per transaction `self|k` extends `h|k` exactly as the
    /// definition allows, and that the events of `h` form a subsequence of
    /// the events of `self`.
    pub fn is_completion_of(&self, h: &History) -> bool {
        // txns must coincide.
        if self.txn_count() != h.txn_count() {
            return false;
        }
        for t in h.txns() {
            let Some(mine) = self.txn(t.id()) else {
                return false;
            };
            let mut ext = mine.events();
            if !t.events().all(|orig| ext.next() == Some(orig)) {
                return false;
            }
            let added: Vec<_> = ext.collect();
            let ok = if t.is_t_complete() {
                added.is_empty()
            } else {
                match t.commit_capability() {
                    CommitCapability::CommitPending => {
                        added.len() == 1
                            && matches!(
                                added[0].kind,
                                crate::EventKind::Resp(Ret::Committed | Ret::Aborted)
                            )
                    }
                    CommitCapability::NeverCommitted => {
                        match t.ops().last() {
                            Some(last) if !last.is_complete() => {
                                // Incomplete read/write/tryA: one A_k response.
                                added.len() == 1
                                    && matches!(added[0].kind, crate::EventKind::Resp(Ret::Aborted))
                            }
                            _ => {
                                // Complete, no tryC: tryC_k · A_k.
                                added.len() == 2
                                    && matches!(added[0].kind, crate::EventKind::Inv(Op::TryCommit))
                                    && matches!(added[1].kind, crate::EventKind::Resp(Ret::Aborted))
                            }
                        }
                    }
                    CommitCapability::Committed => false, // t-complete handled above
                }
            };
            if !ok {
                return false;
            }
        }
        // Original events must embed as a subsequence.
        let mut it = self.events().iter();
        h.events()
            .iter()
            .all(|orig| it.any(|candidate| candidate == orig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistoryBuilder, ObjId, Value};

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
    fn t_complete_history_is_its_own_completion() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .build();
        let c = h.complete_aborting();
        assert_eq!(c, h);
        assert!(h.is_completion_of(&h));
        assert!(h.commit_pending_txns().is_empty());
    }

    #[test]
    fn pending_try_commit_offers_choice() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .build();
        assert_eq!(h.commit_pending_txns(), vec![t(1)]);

        let committed = h.complete_with(|_| true);
        assert!(committed.txn(t(1)).unwrap().is_committed());
        assert!(committed.is_completion_of(&h));

        let aborted = h.complete_with(|_| false);
        assert!(aborted.txn(t(1)).unwrap().is_aborted());
        assert!(aborted.is_completion_of(&h));
    }

    #[test]
    fn incomplete_read_gets_aborted() {
        let h = HistoryBuilder::new().inv_read(t(1), x()).build();
        let c = h.complete_aborting();
        assert!(c.txn(t(1)).unwrap().is_aborted());
        assert!(c.is_completion_of(&h));
        // The read itself returned A_k.
        assert_eq!(c.txn(t(1)).unwrap().ops()[0].resp, Some(Ret::Aborted));
    }

    #[test]
    fn complete_but_not_t_complete_gets_try_commit_abort() {
        let h = HistoryBuilder::new().read(t(1), x(), v(0)).build();
        let c = h.complete_aborting();
        let view = c.txn(t(1)).unwrap();
        assert!(view.is_aborted());
        assert_eq!(view.ops().len(), 2);
        assert!(view.ops()[1].op.is_try_commit());
        assert!(c.is_completion_of(&h));
    }

    #[test]
    fn completions_enumerates_choice_space() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .write(t(2), x(), v(2))
            .inv_try_commit(t(2))
            .build();
        let all: Vec<_> = h.completions().collect();
        assert_eq!(all.len(), 4);
        let committed_counts: Vec<usize> = all
            .iter()
            .map(|c| c.txns().filter(|t| t.is_committed()).count())
            .collect();
        let mut sorted = committed_counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 1, 2]);
        for c in &all {
            assert!(c.is_t_complete());
            assert!(c.is_completion_of(&h));
        }
    }

    #[test]
    fn unrelated_history_is_not_a_completion() {
        let h = HistoryBuilder::new().inv_read(t(1), x()).build();
        let other = HistoryBuilder::new()
            .committed_writer(t(2), x(), v(1))
            .build();
        assert!(!other.is_completion_of(&h));
    }

    #[test]
    fn changing_a_value_is_not_a_completion() {
        let h = HistoryBuilder::new().read(t(1), x(), v(0)).build();
        let tampered = HistoryBuilder::new()
            .read(t(1), x(), v(9))
            .commit_aborted(t(1))
            .build();
        assert!(!tampered.is_completion_of(&h));
    }
}
