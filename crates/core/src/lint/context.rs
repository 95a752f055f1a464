//! What the lint rules read: the prepared query's [`Spec`] and the
//! must-precede facts of [`crate::must_precede`] it builds on first use.

use crate::prepared::Prepared;
use crate::spec::Spec;
use duop_history::{History, Op, Ret};

/// Everything the rules share, borrowed from one [`Prepared`].
pub(super) struct LintCtx<'a> {
    pub h: &'a History,
    pub spec: &'a Spec,
    /// The facts: supplier sets, anti-dependencies and commit-order
    /// edges, shared with saturation, the planner and the searcher.
    pub facts: &'a Prepared<'a>,
}

impl<'a> LintCtx<'a> {
    /// The context over `p`; `None` when [`Spec::build`] rejected the
    /// history (internal read inconsistency), which rule `WF001` reports
    /// separately.
    pub(super) fn new(p: &'a Prepared<'a>) -> Option<Self> {
        Some(LintCtx {
            h: p.history(),
            spec: p.spec().ok()?,
            facts: p,
        })
    }

    /// Event index of transaction `txn_idx`'s final write invocation to
    /// interned object `obj_idx`, if any.
    pub(super) fn final_write_inv(&self, txn_idx: usize, obj_idx: usize) -> Option<usize> {
        let id = self.spec.txns[txn_idx].id;
        let obj = self.spec.objs[obj_idx];
        let t = self.h.txn(id)?;
        t.ops().iter().rev().find_map(|o| match (o.op, o.resp) {
            (Op::Write(x, _), Some(Ret::Ok)) if x == obj => Some(o.inv_index),
            _ => None,
        })
    }

    /// Per transaction (by spec index): the event index of its `C_k`
    /// response, when committed in `H`. Spec indices follow
    /// `h.txns()` order.
    pub(super) fn commit_responses(&self) -> Vec<Option<usize>> {
        self.h
            .txns()
            .map(|t| {
                t.ops()
                    .iter()
                    .find(|o| o.op.is_try_commit() && o.resp == Some(Ret::Committed))
                    .and_then(|o| o.resp_index)
            })
            .collect()
    }
}
