//! Preprocessing of a history into the indexed form the serialization
//! search consumes.

use crate::bitset::BitSet;
use crate::Violation;
use duop_history::{CommitCapability, History, ObjId, Op, Ret, TxnId, Value};
use std::collections::HashMap;

/// One external read: a complete `read_k(X) → v` with no preceding write to
/// `X` by the same transaction. Its legality depends on the serialization.
#[derive(Clone, Debug)]
pub(crate) struct ExternalRead {
    /// Index of the reading transaction in [`Spec::txns`].
    pub txn: usize,
    /// Interned object index.
    pub obj: usize,
    /// The value returned.
    pub value: Value,
    /// Index in the history of the read's response event (for the
    /// `H^{k,X}` prefix of Definition 3).
    pub resp_index: usize,
}

/// Preprocessed view of one transaction.
#[derive(Clone, Debug)]
pub(crate) struct TxnInfo {
    pub id: TxnId,
    pub capability: CommitCapability,
    /// Final value written per interned object (last write wins), for
    /// applying the transaction's effects when it commits.
    pub writes: Vec<(usize, Value)>,
    /// Index in the history of the `tryC_k()` invocation, if any.
    pub try_commit_inv: Option<usize>,
    /// Slots into [`Spec::reads`] for this transaction's external reads.
    pub external_reads: Vec<usize>,
    /// Ordering heuristic: position at which this transaction "took
    /// effect" (commit response, else last event).
    pub priority: usize,
}

impl TxnInfo {
    /// Whether this transaction invoked `tryC` before the event at
    /// `resp_index`: for a read responding there, whether it is an
    /// eligible writer of Definition 3(3)'s local serialization.
    pub(crate) fn try_commit_invoked_before(&self, resp_index: usize) -> bool {
        self.try_commit_inv.is_some_and(|inv| inv < resp_index)
    }
}

#[cfg(test)]
thread_local! {
    /// [`Spec::build`] calls on this thread, for the test that pins one
    /// build per query.
    pub(crate) static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Indexed form of a history.
#[derive(Clone, Debug)]
pub(crate) struct Spec {
    pub txns: Vec<TxnInfo>,
    pub reads: Vec<ExternalRead>,
    /// Interned object table.
    pub objs: Vec<ObjId>,
    /// Map from transaction id to index in `txns`.
    pub index: HashMap<TxnId, usize>,
    /// Real-time predecessors of each transaction, as index bit sets.
    pub rt_preds: Vec<BitSet>,
    /// Read slots per interned object.
    pub reads_on_obj: Vec<Vec<usize>>,
    /// Committable writers per interned object, in index order, with the
    /// final value each writes there: the table every supplier and
    /// anti-dependency builder in [`crate::must_precede`] scans.
    pub writers_on_obj: Vec<Vec<(usize, Value)>>,
}

impl Spec {
    /// Builds the spec, performing the *internal read consistency*
    /// precheck: a read that follows the transaction's own write to the
    /// same object must return the latest such write in every equivalent
    /// sequential history, so a mismatch dooms every serialization.
    pub(crate) fn build(h: &History) -> Result<Spec, Violation> {
        #[cfg(test)]
        BUILDS.with(|b| b.set(b.get() + 1));
        let mut objs: Vec<ObjId> = Vec::new();
        let mut obj_index: HashMap<ObjId, usize> = HashMap::new();
        let intern = |x: ObjId, objs: &mut Vec<ObjId>, obj_index: &mut HashMap<ObjId, usize>| {
            *obj_index.entry(x).or_insert_with(|| {
                objs.push(x);
                objs.len() - 1
            })
        };

        let n = h.txn_count();
        let mut txns = Vec::with_capacity(n);
        let mut reads = Vec::new();
        let mut index = HashMap::with_capacity(n);

        for (i, t) in h.txns().enumerate() {
            index.insert(t.id(), i);
            let mut own: HashMap<ObjId, Value> = HashMap::new();
            let mut external = Vec::new();
            for op in t.ops() {
                match (op.op, op.resp) {
                    (Op::Read(x), Some(Ret::Value(got))) => {
                        if let Some(&expected) = own.get(&x) {
                            if got != expected {
                                return Err(Violation::InternalReadInconsistency {
                                    txn: t.id(),
                                    obj: x,
                                    got,
                                    expected,
                                });
                            }
                            // Own-write read: resolved, never consulted again.
                        } else {
                            let slot = reads.len();
                            reads.push(ExternalRead {
                                txn: i,
                                obj: intern(x, &mut objs, &mut obj_index),
                                value: got,
                                resp_index: op.resp_index.expect("complete read has response"),
                            });
                            external.push(slot);
                        }
                    }
                    (Op::Write(x, v), Some(Ret::Ok)) => {
                        own.insert(x, v);
                    }
                    _ => {}
                }
            }
            let writes: Vec<(usize, Value)> = {
                let mut ws: Vec<(usize, Value)> = own
                    .iter()
                    .map(|(x, v)| (intern(*x, &mut objs, &mut obj_index), *v))
                    .collect();
                ws.sort_unstable_by_key(|(o, _)| *o);
                ws
            };
            let priority = t
                .ops()
                .iter()
                .find(|o| o.op.is_try_commit())
                .and_then(|o| o.resp_index.or(Some(o.inv_index)))
                .unwrap_or_else(|| t.last_event_index());
            txns.push(TxnInfo {
                id: t.id(),
                capability: t.commit_capability(),
                writes,
                try_commit_inv: h.try_commit_inv_index(t.id()),
                external_reads: external,
                priority,
            });
        }

        // Real-time order (Definition 1): `T_i ≺RT T_j` iff `T_i` is
        // t-complete and its last event precedes `T_j`'s first. Indices
        // follow first events, so `T_i`'s successors are every index from
        // the first whose first event follows `T_i`'s last: record `T_i`
        // there, then make the sets cumulative.
        let firsts: Vec<usize> = h.txns().map(|t| t.first_event_index()).collect();
        let mut rt_preds: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for (i, t) in h.txns().enumerate() {
            if t.is_t_complete() {
                let start = firsts.partition_point(|&f| f <= t.last_event_index());
                if start < n {
                    rt_preds[start].insert(i);
                }
            }
        }
        for j in 1..n {
            let (done, rest) = rt_preds.split_at_mut(j);
            rest[0].union_with(&done[j - 1]);
        }

        let mut reads_on_obj: Vec<Vec<usize>> = vec![Vec::new(); objs.len()];
        for (slot, r) in reads.iter().enumerate() {
            reads_on_obj[r.obj].push(slot);
        }
        let mut writers_on_obj: Vec<Vec<(usize, Value)>> = vec![Vec::new(); objs.len()];
        for (i, t) in txns.iter().enumerate() {
            if t.capability != CommitCapability::NeverCommitted {
                for &(o, v) in &t.writes {
                    writers_on_obj[o].push((i, v));
                }
            }
        }

        Ok(Spec {
            txns,
            reads,
            objs,
            index,
            rt_preds,
            reads_on_obj,
            writers_on_obj,
        })
    }

    /// Transaction indices accessing each interned object (writers and
    /// external readers), sorted and deduplicated. These are the
    /// shared-object edges of the search planner's conflict graph.
    pub(crate) fn accessors_per_obj(&self) -> Vec<Vec<usize>> {
        let mut acc: Vec<Vec<usize>> = vec![Vec::new(); self.objs.len()];
        for (i, t) in self.txns.iter().enumerate() {
            for &(o, _) in &t.writes {
                acc[o].push(i);
            }
        }
        for r in &self.reads {
            acc[r.obj].push(r.txn);
        }
        for a in &mut acc {
            a.sort_unstable();
            a.dedup();
        }
        acc
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
    fn external_and_internal_reads_are_separated() {
        let h = HistoryBuilder::new()
            .read(t(1), x(), v(0))
            .write(t(1), x(), v(3))
            .read(t(1), ObjId::new(1), v(0))
            .commit(t(1))
            .build();
        let spec = Spec::build(&h).unwrap();
        assert_eq!(spec.reads.len(), 2);
        assert_eq!(spec.txns[0].external_reads.len(), 2);
        assert_eq!(spec.txns[0].writes.len(), 1);
    }

    #[test]
    fn own_write_read_is_resolved_not_external() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(3))
            .read(t(1), x(), v(3))
            .commit(t(1))
            .build();
        let spec = Spec::build(&h).unwrap();
        assert!(spec.reads.is_empty());
    }

    #[test]
    fn internal_inconsistency_detected() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(3))
            .read(t(1), x(), v(4))
            .commit(t(1))
            .build();
        let err = Spec::build(&h).unwrap_err();
        assert_eq!(
            err,
            Violation::InternalReadInconsistency {
                txn: t(1),
                obj: x(),
                got: v(4),
                expected: v(3),
            }
        );
    }

    #[test]
    fn last_write_wins() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .write(t(1), x(), v(2))
            .commit(t(1))
            .build();
        let spec = Spec::build(&h).unwrap();
        assert_eq!(spec.txns[0].writes, vec![(0, v(2))]);
    }

    #[test]
    fn rt_preds_follow_real_time_order() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(2))
            .build();
        let spec = Spec::build(&h).unwrap();
        let i1 = spec.index[&t(1)];
        let i2 = spec.index[&t(2)];
        assert!(spec.rt_preds[i2].contains(i1));
        assert!(!spec.rt_preds[i1].contains(i2));
    }

    #[test]
    fn reads_on_obj_groups_slots() {
        let y = ObjId::new(1);
        let h = HistoryBuilder::new()
            .read(t(1), x(), v(0))
            .read(t(1), y, v(0))
            .commit(t(1))
            .read(t(2), x(), v(0))
            .commit(t(2))
            .build();
        let spec = Spec::build(&h).unwrap();
        let xi = spec.objs.iter().position(|o| *o == x()).unwrap();
        assert_eq!(spec.reads_on_obj[xi].len(), 2);
    }

    #[test]
    fn priority_prefers_commit_position() {
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .resp_ok(t(1))
            .commit(t(1))
            .build();
        let spec = Spec::build(&h).unwrap();
        let i1 = spec.index[&t(1)];
        let i2 = spec.index[&t(2)];
        // T1's commit response is the last event; T2 finished earlier.
        assert!(spec.txns[i2].priority < spec.txns[i1].priority);
    }
}
