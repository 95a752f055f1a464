//! Must-precede facts: the constraints the paper's definitions force on
//! every serialization of a history, enumerated from per-object tables.
//!
//! | Fact | Paper | Builder |
//! |------|-------|---------|
//! | real-time order | Definition 1 | `Spec::build`'s `rt_preds` |
//! | plain and du-eligible suppliers of each read | Definition 3(3) | `supplier_sets`, `eligibility` |
//! | initial-value anti-dependencies | Section 2 legality | `anti_deps` |
//! | read-commit-order edges | Section 4.2 | [`rco`] |
//! | TMS2 commit-order edges | Section 4.2 | [`tms2`] |
//!
//! Lint, saturation, the planner, the searcher and `check_witness` all
//! read these facts from here, so each one is derived in exactly one
//! place; within one query they are built once, in its `Prepared`
//! (`crate::prepared`), and shared. No builder scans transaction pairs. Each walks a per-object
//! table instead: the committable writers of an object (built once per
//! spec in `Spec::build`, or per call from a [`History`]), or the readers
//! of an object that invoked `tryC`. With `n` transactions, `R` external
//! reads and `w` committable writers of the object at hand:
//!
//! * real-time order: `O(n log n + n²/64)` — one binary search per
//!   t-complete transaction, then a cumulative sweep;
//! * supplier sets: `O(R · (w + n/64))`;
//! * eligibility: `O(n log n + R log R + R · n/64)` — each set is a
//!   prefix of the `tryC` invocation order, copied a word at a time from
//!   the previous read's in response order, so each transaction is
//!   inserted once in all;
//! * anti-dependencies: `O(initial-value reads · w)`;
//! * read-commit-order edges: `O(ops · log objects)` to build the table,
//!   then `O(w)` per value-returning read;
//! * TMS2 edges: `O(ops · log objects)` to build the table, then, per
//!   committed writer, the readers of each object it writes plus
//!   `O(n/64)`.
//!
//! The module is public, hidden from the docs, only for the equivalence
//! suite `tests/must_precede_index.rs`, which pins every builder to its
//! all-pairs definition — down to order and duplicates — and saturation's
//! outcome to the one those definitions seed.

use crate::bitset::BitSet;
use crate::plan::PlanCriterion;
use crate::prepared::Prepared;
use crate::saturate::{self, SaturationOutcome, Seeds};
use crate::spec::Spec;
use duop_history::{CommitCapability, History, ObjId, Op, Ret, TxnView, Value};

/// One commit-order edge `before → after` between transaction slots of
/// a history ([`History::txn_slot`], which is also the spec index),
/// with the events that ground it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitEdge {
    /// The transaction that must come first: the reader for
    /// read-commit-order, the committed writer for TMS2.
    pub before: usize,
    /// The transaction that must come second.
    pub after: usize,
    /// Read-commit-order: the read's response. TMS2: the writer's `tryC`
    /// response.
    pub event: usize,
    /// The `tryC` invocation the edge is measured against: the writer's
    /// for read-commit-order, the reader's for TMS2.
    pub tryc: usize,
    /// The object relating the two: the object read for
    /// read-commit-order, the least object of `Wset ∩ Rset` for TMS2.
    pub obj: ObjId,
}

/// One initial-value anti-dependency: `reader` must precede `writer` in
/// every satisfying serialization of any criterion.
///
/// When an external read returns the initial value and no committable
/// transaction other than the reader finally writes the initial value
/// back ("no restorer"), then once any committed writer of the object is
/// serialized before the reader, the object's value differs from the
/// initial value forever — so the reader must precede every committed
/// writer of the object. Restricted to `Committed` targets (a pending
/// writer may abort, voiding the edge) and to initial-value reads (a
/// non-initial value can be re-supplied, so the analogous generalization
/// would be unsound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AntiDep {
    /// Spec index of the transaction whose read forces the edge.
    pub reader: usize,
    /// Spec index of the committed writer the reader must precede.
    pub writer: usize,
    /// Interned object index of the read.
    pub obj: usize,
    /// Read slot of the forcing read.
    pub slot: usize,
}

/// Index of the `tryC` invocation of `t`, if it invoked one.
fn try_commit_inv(t: &TxnView<'_>) -> Option<usize> {
    t.ops()
        .iter()
        .find(|o| o.op.is_try_commit())
        .map(|o| o.inv_index)
}

/// The objects `t` writes, one per write operation.
fn objects_written<'a>(t: &TxnView<'a>) -> impl Iterator<Item = ObjId> + 'a {
    t.ops().iter().filter_map(|o| match o.op {
        Op::Write(x, _) => Some(x),
        _ => None,
    })
}

/// The objects `t` reads, one per read operation (at most one each, by
/// well-formedness).
fn objects_read<'a>(t: &TxnView<'a>) -> impl Iterator<Item = ObjId> + 'a {
    t.ops().iter().filter_map(|o| match o.op {
        Op::Read(x) => Some(x),
        _ => None,
    })
}

/// The key column of a per-object table: the distinct objects, sorted,
/// looked up by binary search.
fn object_keys(objs: impl Iterator<Item = ObjId>) -> Vec<ObjId> {
    let mut keys: Vec<ObjId> = objs.collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Read-commit-order edges (Section 4.2): `T_k → T_m` whenever a
/// value-returning `read_k(X)` responds before the `tryC_m` invocation of
/// a committable `T_m ≠ T_k` with `X ∈ Wset(T_m)`. Commit-pending targets
/// are included: lint and saturation keep only committed ones, and the
/// search binds the rest when it commits them.
///
/// Ordered by reader slot, then object, then writer slot — the
/// definition's nested loops — with one edge per (reader, object,
/// writer), so a reader of two objects one writer writes yields that
/// pair twice.
pub fn rco(h: &History) -> Vec<CommitEdge> {
    let committable = |t: &TxnView<'_>| t.commit_capability() != CommitCapability::NeverCommitted;
    let keys = object_keys(
        h.txns()
            .filter(committable)
            .flat_map(|t| objects_written(&t)),
    );
    // Committable writers of each object, in slot order, with their
    // `tryC` invocation (every committable transaction invoked one).
    let mut writers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); keys.len()];
    for (w, t) in h.txns().enumerate() {
        if !committable(&t) {
            continue;
        }
        let tryc = try_commit_inv(&t).expect("a committable transaction invoked tryC");
        for x in objects_written(&t) {
            let list = &mut writers[keys.binary_search(&x).expect("keyed")];
            if list.last().map(|&(s, _)| s) != Some(w) {
                list.push((w, tryc));
            }
        }
    }

    let mut edges = Vec::new();
    let mut reads: Vec<(ObjId, usize)> = Vec::new();
    for (r, t) in h.txns().enumerate() {
        reads.clear();
        reads.extend(t.ops().iter().filter_map(|o| match (o.op, o.resp) {
            (Op::Read(x), Some(Ret::Value(_))) => Some((x, o.resp_index?)),
            _ => None,
        }));
        reads.sort_unstable_by_key(|&(x, _)| x);
        for &(x, resp) in &reads {
            let Ok(k) = keys.binary_search(&x) else {
                continue;
            };
            edges.extend(
                writers[k]
                    .iter()
                    .filter(|&&(w, tryc)| w != r && resp < tryc)
                    .map(|&(w, tryc)| CommitEdge {
                        before: r,
                        after: w,
                        event: resp,
                        tryc,
                        obj: x,
                    }),
            );
        }
    }
    edges
}

/// TMS2 commit-order edges (the Section 4.2 rendering): `T_1 → T_2`
/// whenever `X ∈ Wset(T_1) ∩ Rset(T_2)`, `T_1` is committed and the
/// response of `tryC_1` precedes the invocation of `tryC_2`.
///
/// Ordered by writer slot, then reader slot, one edge per pair; the
/// grounding object is the least shared one.
pub fn tms2(h: &History) -> Vec<CommitEdge> {
    let keys = object_keys(
        h.txns()
            .filter(|t| try_commit_inv(t).is_some())
            .flat_map(|t| objects_read(&t)),
    );
    // Transactions that invoked `tryC`, per object they read, in slot
    // order, with that invocation.
    let mut readers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); keys.len()];
    for (r, t) in h.txns().enumerate() {
        let Some(inv) = try_commit_inv(&t) else {
            continue;
        };
        for x in objects_read(&t) {
            readers[keys.binary_search(&x).expect("keyed")].push((r, inv));
        }
    }

    let n = h.txn_count();
    // The readers one writer reaches, and per reader the least shared
    // object's key and the reader's `tryC` invocation.
    let mut hit = BitSet::new(n);
    let mut via = vec![(0, 0); n];
    let mut edges = Vec::new();
    for (w, t) in h.txns().enumerate() {
        if !t.is_committed() {
            continue;
        }
        let Some(resp) = t
            .ops()
            .iter()
            .find(|o| o.op.is_try_commit())
            .and_then(|o| o.resp_index)
        else {
            continue;
        };
        for k in objects_written(&t).filter_map(|x| keys.binary_search(&x).ok()) {
            for &(r, inv) in &readers[k] {
                if r == w || inv <= resp {
                    continue;
                }
                if hit.contains(r) {
                    via[r].0 = via[r].0.min(k);
                } else {
                    hit.insert(r);
                    via[r] = (k, inv);
                }
            }
        }
        for r in hit.iter_ones() {
            let (k, inv) = via[r];
            edges.push(CommitEdge {
                before: w,
                after: r,
                event: resp,
                tryc: inv,
                obj: keys[k],
            });
        }
        hit.clear();
    }
    edges
}

/// Candidate writer ("supplier") sets per read slot: the committable
/// writers of the read's exact value, restricted in du mode to those
/// whose `tryC` invocation precedes the read's response — the only
/// transactions that can ever make the read legal, besides `T_0` for the
/// initial value. Scans only the object's committable writers
/// ([`Spec::writers_on_obj`]).
pub(crate) fn supplier_sets(spec: &Spec, du: bool) -> Vec<BitSet> {
    let n = spec.txns.len();
    spec.reads
        .iter()
        .map(|r| {
            let mut s = BitSet::new(n);
            for &(j, v) in &spec.writers_on_obj[r.obj] {
                let eligible = || spec.txns[j].try_commit_invoked_before(r.resp_index);
                if j != r.txn && v == r.value && (!du || eligible()) {
                    s.insert(j);
                }
            }
            s
        })
        .collect()
}

/// Du eligibility per read slot: the transactions whose `tryC`
/// invocation precedes the read's response in `H` (Definition 3(3)'s
/// local serialization keeps exactly these writers). Each set is the
/// prefix of the `tryC` invocation order that the read's response cuts
/// off, so the sets are built in response order, each from the previous
/// one: a copy of its words plus the transactions whose `tryC` falls in
/// between.
pub(crate) fn eligibility(spec: &Spec) -> Vec<BitSet> {
    let n = spec.txns.len();
    let mut by_inv: Vec<(usize, usize)> = spec
        .txns
        .iter()
        .enumerate()
        .filter_map(|(j, t)| t.try_commit_inv.map(|inv| (inv, j)))
        .collect();
    by_inv.sort_unstable();
    let mut by_resp: Vec<usize> = (0..spec.reads.len()).collect();
    by_resp.sort_unstable_by_key(|&slot| spec.reads[slot].resp_index);

    let mut sets = vec![BitSet::default(); spec.reads.len()];
    let mut invs = by_inv.iter().peekable();
    let mut prev: Option<usize> = None;
    for slot in by_resp {
        let mut set = prev.map_or_else(|| BitSet::new(n), |p| sets[p].clone());
        let resp = spec.reads[slot].resp_index;
        while let Some(&(_, j)) = invs.next_if(|&&(inv, _)| inv < resp) {
            set.insert(j);
        }
        sets[slot] = set;
        prev = Some(slot);
    }
    sets
}

/// The initial-value anti-dependencies (see [`AntiDep`]), by read slot
/// and then writer index. Lint rules CY004/AN005 and saturation's seeds
/// both read this list.
pub(crate) fn anti_deps(spec: &Spec) -> Vec<AntiDep> {
    let mut out = Vec::new();
    for (slot, r) in spec.reads.iter().enumerate() {
        if r.value != Value::INITIAL {
            continue;
        }
        let writers = &spec.writers_on_obj[r.obj];
        let restorer = writers
            .iter()
            .any(|&(j, v)| j != r.txn && v == Value::INITIAL);
        if restorer {
            continue;
        }
        out.extend(
            writers
                .iter()
                .filter(|&&(j, _)| {
                    j != r.txn && spec.txns[j].capability == CommitCapability::Committed
                })
                .map(|&(j, _)| AntiDep {
                    reader: r.txn,
                    writer: j,
                    obj: r.obj,
                    slot,
                }),
        );
    }
    out
}

/// One external read of a history's spec, as [`Facts`] lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadFact {
    /// Spec index of the reading transaction.
    pub txn: usize,
    /// The object read.
    pub obj: ObjId,
    /// The value returned.
    pub value: Value,
    /// Index of the read's response event.
    pub resp: usize,
}

/// Every must-precede fact of one history, as plain data indexed like
/// its spec: what the equivalence suite compares with the all-pairs
/// definitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Facts {
    /// The spec's interned objects, which [`AntiDep::obj`] indexes.
    pub objs: Vec<ObjId>,
    /// The external reads, by read slot.
    pub reads: Vec<ReadFact>,
    /// Real-time predecessors of each transaction.
    pub rt_preds: Vec<Vec<usize>>,
    /// Du eligibility per read slot: the transactions whose `tryC`
    /// invocation precedes the read's response.
    pub elig: Vec<Vec<usize>>,
    /// Plain supplier sets per read slot.
    pub suppliers: Vec<Vec<usize>>,
    /// Du supplier sets per read slot.
    pub du_suppliers: Vec<Vec<usize>>,
    /// The initial-value anti-dependencies.
    pub anti_deps: Vec<AntiDep>,
    /// Read-commit-order edges.
    pub rco: Vec<CommitEdge>,
    /// TMS2 commit-order edges.
    pub tms2: Vec<CommitEdge>,
}

fn members(sets: &[BitSet]) -> Vec<Vec<usize>> {
    sets.iter().map(|s| s.iter_ones().collect()).collect()
}

fn bitsets(n: usize, sets: &[Vec<usize>]) -> Vec<BitSet> {
    sets.iter()
        .map(|m| {
            let mut s = BitSet::new(n);
            for &i in m {
                s.insert(i);
            }
            s
        })
        .collect()
}

impl Facts {
    /// Builds every fact of `h` as a prepared query shares them; `None`
    /// when the history has an internal read inconsistency (no spec
    /// exists).
    pub fn of(h: &History) -> Option<Facts> {
        let p = Prepared::of(h);
        let spec = p.spec().ok()?;
        Some(Facts {
            objs: spec.objs.clone(),
            reads: spec
                .reads
                .iter()
                .map(|r| ReadFact {
                    txn: r.txn,
                    obj: spec.objs[r.obj],
                    value: r.value,
                    resp: r.resp_index,
                })
                .collect(),
            rt_preds: members(&spec.rt_preds),
            elig: members(p.eligibility()),
            suppliers: members(p.suppliers(false)),
            du_suppliers: members(p.suppliers(true)),
            anti_deps: p.anti_deps().to_vec(),
            rco: p.rco().to_vec(),
            tms2: p.tms2().to_vec(),
        })
    }
}

/// Saturates `criterion` over the already-[`PlanCriterion::prepare`]d
/// history `hh` exactly as [`saturate`](crate::saturate()) does, except that every
/// fact — real-time order included — comes from `facts` rather than
/// from the indexed builders.
pub fn saturate_from(hh: &History, criterion: PlanCriterion, facts: &Facts) -> SaturationOutcome {
    if saturate::gated(hh.txn_count()) {
        return SaturationOutcome::Inconclusive;
    }
    let Ok(spec) = Spec::build(hh) else {
        return SaturationOutcome::Inconclusive;
    };
    let n = spec.txns.len();
    let du = criterion == PlanCriterion::Du;
    let du_only = |sets: &[Vec<usize>]| if du { bitsets(n, sets) } else { Vec::new() };
    let rt_preds = bitsets(n, &facts.rt_preds);
    let elig = du_only(&facts.elig);
    let suppliers = bitsets(
        n,
        if du {
            &facts.du_suppliers
        } else {
            &facts.suppliers
        },
    );
    let writers = du_only(&facts.suppliers);
    let seeds = Seeds {
        rt_preds: &rt_preds,
        elig: &elig,
        suppliers: &suppliers,
        writers: &writers,
        anti_deps: &facts.anti_deps,
        commit: match criterion {
            PlanCriterion::Rco => &facts.rco,
            PlanCriterion::Tms2 => &facts.tms2,
            _ => &[],
        },
    };
    saturate::saturate_seeded(hh, &spec, criterion, seeds)
}
