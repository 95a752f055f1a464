//! Shared preprocessing for the lint rules: the indexed [`Spec`] plus the
//! must-precede facts of [`crate::must_precede`] the rules read.

use crate::bitset::BitSet;
use crate::must_precede::{anti_deps, supplier_sets, AntiDep};
use crate::spec::Spec;
use duop_history::{History, Op, Ret};

/// Everything the rules share: built once per [`super::lint`] run.
pub(super) struct LintCtx<'a> {
    pub h: &'a History,
    pub spec: Spec,
    /// Per transaction (by spec index): the event index of its `C_k`
    /// response, when committed in `H`.
    pub commit_resp: Vec<Option<usize>>,
    /// Du-mode supplier sets per read slot: committable writers of the
    /// read's value whose `tryC` was invoked before the read's response.
    pub du_suppliers: Vec<BitSet>,
    /// Plain supplier sets per read slot: committable writers of the
    /// read's value, regardless of `tryC` timing.
    pub base_suppliers: Vec<BitSet>,
    /// Anti-dependency edges, sound for *every* criterion scope (see
    /// [`AntiDep`]); saturation seeds from the same list.
    pub anti_deps: Vec<AntiDep>,
}

impl<'a> LintCtx<'a> {
    /// Builds the context; `None` when [`Spec::build`] itself rejects the
    /// history (internal read inconsistency), which rule `WF001` reports
    /// separately.
    pub(super) fn build(h: &'a History) -> Option<Self> {
        let spec = Spec::build(h).ok()?;
        let du_suppliers = supplier_sets(&spec, true);
        let base_suppliers = supplier_sets(&spec, false);

        // Spec::build indexes transactions in h.txns() order, so zipping
        // the two iterations lines up.
        let commit_resp: Vec<Option<usize>> = h
            .txns()
            .map(|t| {
                t.ops()
                    .iter()
                    .find(|o| o.op.is_try_commit() && o.resp == Some(Ret::Committed))
                    .and_then(|o| o.resp_index)
            })
            .collect();

        let anti_deps = anti_deps(&spec);

        Some(LintCtx {
            h,
            spec,
            commit_resp,
            du_suppliers,
            base_suppliers,
            anti_deps,
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
}
