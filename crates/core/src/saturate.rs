//! Must-precede saturation: a polynomial datalog-style fixpoint over the
//! precedence constraints a criterion imposes, producing *certified*
//! verdicts.
//!
//! The engine seeds a constraint graph over the history's transactions
//! with every edge the criterion forces outright — real-time order,
//! singleton candidate-writer (read-from) edges, initial-value
//! anti-dependencies, and the RCO/TMS2 commit-order edges for those
//! scopes — then saturates to closure with two derivation rule families:
//!
//! * **transitivity** (word-parallel Warshall closure, provenance-tracking);
//! * **interference**: when a read's value has a *unique* admissible
//!   supplier `w`, any committed writer of the object whose final write
//!   differs from the value cannot sit between `w` and the reader, so a
//!   known edge on one side forces an edge on the other (the same
//!   disjunction resolution as the Theorem 11 pass in [`crate::unique`],
//!   generalized beyond unique-write histories).
//!
//! Every derived edge records *provenance*: which rule produced it and
//! from which premises. A cycle is a sound refutation and is exported as
//! a [`Certificate`] — a closed derivation the independent
//! [`check_certificate`] validator re-derives from the literal history. A
//! cycle-free saturation that pins down *every* pair of transactions is a
//! decision the other way: the unique linear extension is validated by
//! [`crate::check_witness`] and returned as a witness. Anything else is
//! [`SaturationOutcome::Inconclusive`] and falls through to the planner
//! and the backtracking search.

use crate::bitset::BitSet;
use crate::certificate::{check_certificate, Certificate, Rule, Step};
use crate::must_precede::{AntiDep, CommitEdge};
use crate::plan::PlanCriterion;
use crate::prepared::Prepared;
use crate::spec::Spec;
use crate::{check_witness, CriterionKind, Verdict, Violation, Witness};
use duop_history::{CommitCapability, History, ObjId, TxnId, Value};
use std::collections::BTreeMap;

/// Transaction-count gate: the closure is O(n³/64) word operations and the
/// provenance table holds n² cells, so histories larger than this fall
/// through to the planner untouched.
const MAX_TXNS: usize = 512;

/// Bound on interference/closure alternations; the fixpoint converges in
/// a handful of rounds on every realistic history, and the gate keeps the
/// worst case polynomial with a small constant.
const MAX_ROUNDS: usize = 64;

/// What saturation concluded about one criterion over one history.
#[derive(Clone, Debug)]
pub enum SaturationOutcome {
    /// The must-precede relation is cyclic: the history violates the
    /// criterion, and the attached certificate proves it.
    Refuted(Certificate),
    /// Saturation alone pinned down a unique serialization order and the
    /// independent witness validator accepted it.
    Decided(Witness),
    /// Saturation neither refuted nor fully determined the order; the
    /// planner and search must decide.
    Inconclusive,
}

/// Provenance of one edge in the saturation graph.
#[derive(Clone, Copy, Debug)]
enum Prov {
    /// Real-time order.
    Rt,
    /// Singleton-supplier read-from edge for read slot `slot`.
    ReadFrom { slot: usize },
    /// Initial-value anti-dependency forced by read slot `slot`.
    AntiDep { slot: usize },
    /// RCO commit-order edge (committed writer), with grounding events.
    Rco {
        read: usize,
        tryc: usize,
        obj: ObjId,
    },
    /// TMS2 commit-order edge, with grounding events.
    Tms2 {
        resp: usize,
        tryc: usize,
        obj: ObjId,
    },
    /// Transitive through `mid`.
    Trans { mid: usize },
    /// Interference: reader of slot `slot` pushed after a conflicting
    /// committed writer.
    InterfAfter { slot: usize },
    /// Interference: conflicting committed writer pushed before the
    /// supplier of slot `slot`.
    InterfBefore { slot: usize },
}

/// A read slot with a unique admissible supplier (the premise of the
/// read-from and interference rules).
#[derive(Clone, Copy, Debug)]
struct RfSlot {
    /// Spec index of the unique supplier.
    supplier: usize,
    /// Spec index of the reader.
    reader: usize,
    /// Interned object index.
    obj: usize,
    /// The value read.
    value: Value,
    /// Whether every committed overwriter of the object interferes. True
    /// outside du mode, and in du mode when `supplier` is the only
    /// committable writer of the value at all. Otherwise only overwriters
    /// that are `tryC`-eligible for the read interfere: a non-eligible one
    /// can be followed by a non-eligible writer restoring the global value
    /// without entering the read's local serialization.
    any_interferer: bool,
}

/// The must-precede facts a saturation run seeds from.
pub(crate) struct Seeds<'a> {
    /// Real-time predecessors of each transaction.
    pub(crate) rt_preds: &'a [BitSet],
    /// Du mode only: `tryC`-eligible transactions per read slot.
    pub(crate) elig: &'a [BitSet],
    /// Admissible suppliers per read slot (du-eligible ones in du mode).
    pub(crate) suppliers: &'a [BitSet],
    /// Du mode only: every committable writer of each read slot's value.
    pub(crate) writers: &'a [BitSet],
    /// The initial-value anti-dependencies.
    pub(crate) anti_deps: &'a [AntiDep],
    /// The criterion's commit-order edges: read-commit-order for
    /// [`PlanCriterion::Rco`], TMS2 for [`PlanCriterion::Tms2`], none
    /// otherwise.
    pub(crate) commit: &'a [CommitEdge],
}

impl<'a> Seeds<'a> {
    /// The seeds of `criterion`, from the prepared query's facts.
    fn of(p: &'a Prepared<'_>, spec: &'a Spec, criterion: PlanCriterion) -> Seeds<'a> {
        let du = criterion == PlanCriterion::Du;
        Seeds {
            rt_preds: &spec.rt_preds,
            elig: if du { p.eligibility() } else { &[] },
            suppliers: p.suppliers(du),
            writers: if du { p.suppliers(false) } else { &[] },
            anti_deps: p.anti_deps(),
            commit: match criterion {
                PlanCriterion::Rco => p.rco(),
                PlanCriterion::Tms2 => p.tms2(),
                _ => &[],
            },
        }
    }
}

struct Saturator<'a> {
    spec: &'a Spec,
    criterion: PlanCriterion,
    n: usize,
    /// Successor sets: `reach[i]` holds every `j` with a derived edge
    /// `i → j`.
    reach: Vec<BitSet>,
    /// Flattened `n × n` provenance, `prov[i * n + j]` for edge `i → j`.
    prov: Vec<Option<Prov>>,
    /// Read slots with singleton suppliers, indexed by slot.
    rf: Vec<Option<RfSlot>>,
    /// Du mode only: `tryC`-eligible transactions per read slot.
    elig: &'a [BitSet],
}

impl<'a> Saturator<'a> {
    fn new(spec: &'a Spec, criterion: PlanCriterion) -> Self {
        let n = spec.txns.len();
        Saturator {
            spec,
            criterion,
            n,
            reach: (0..n).map(|_| BitSet::new(n)).collect(),
            prov: vec![None; n * n],
            rf: vec![None; spec.reads.len()],
            elig: &[],
        }
    }

    fn add(&mut self, i: usize, j: usize, prov: Prov) -> bool {
        if self.reach[i].contains(j) {
            return false;
        }
        self.reach[i].insert(j);
        self.prov[i * self.n + j] = Some(prov);
        true
    }

    /// Seeds the graph in a fixed order — real time, singleton read-from
    /// edges, anti-dependencies, commit-order edges — so provenance (and
    /// with it every certificate) is deterministic.
    fn seed(&mut self, seeds: Seeds<'a>) {
        for (j, preds) in seeds.rt_preds.iter().enumerate() {
            for i in preds.iter_ones() {
                self.add(i, j, Prov::Rt);
            }
        }

        let du = self.criterion == PlanCriterion::Du;
        for (slot, r) in self.spec.reads.iter().enumerate() {
            if r.value == Value::INITIAL || seeds.suppliers[slot].count_ones() != 1 {
                continue;
            }
            let w = seeds.suppliers[slot].iter_ones().next().expect("singleton");
            self.rf[slot] = Some(RfSlot {
                supplier: w,
                reader: r.txn,
                obj: r.obj,
                value: r.value,
                any_interferer: !du || seeds.writers[slot].count_ones() == 1,
            });
            self.add(w, r.txn, Prov::ReadFrom { slot });
        }
        self.elig = seeds.elig;

        // Initial-value anti-dependencies: the list lint rule CY004 reads.
        for d in seeds.anti_deps {
            self.add(d.reader, d.writer, Prov::AntiDep { slot: d.slot });
        }

        for e in seeds.commit {
            let prov = match self.criterion {
                // Unconditional only toward writers committed in `H`;
                // commit-pending targets stay with the search.
                PlanCriterion::Rco => {
                    if self.spec.txns[e.after].capability != CommitCapability::Committed {
                        continue;
                    }
                    Prov::Rco {
                        read: e.event,
                        tryc: e.tryc,
                        obj: e.obj,
                    }
                }
                PlanCriterion::Tms2 => Prov::Tms2 {
                    resp: e.event,
                    tryc: e.tryc,
                    obj: e.obj,
                },
                _ => unreachable!("only rco and tms2 have commit-order edges"),
            };
            self.add(e.before, e.after, prov);
        }
    }

    /// Warshall closure with per-edge provenance: each new cell records
    /// the pivot, whose constituent edges exist at derivation time — so
    /// the provenance graph stays well-founded.
    fn close(&mut self) {
        let n = self.n;
        let prov = &mut self.prov;
        transitive_close(&mut self.reach, |i, j, k| {
            prov[i * n + j] = Some(Prov::Trans { mid: k });
        });
    }

    /// One interference pass over the closed relation; `true` if any edge
    /// was added. For each singleton-supplier slot `(w, r, X, v)` and
    /// committed writer `j` of `X` with final value `≠ v` (in du mode, one
    /// the slot admits per [`RfSlot::any_interferer`]): `w → j` forces
    /// `r → j`, and `j → r` forces `j → w`.
    fn interfere(&mut self) -> bool {
        let mut changed = false;
        for slot in 0..self.rf.len() {
            let Some(rf) = self.rf[slot] else {
                continue;
            };
            for (j, t) in self.spec.txns.iter().enumerate() {
                if j == rf.reader || j == rf.supplier || t.capability != CommitCapability::Committed
                {
                    continue;
                }
                if !rf.any_interferer && !self.elig[slot].contains(j) {
                    continue;
                }
                if !t.writes.iter().any(|&(o, v)| o == rf.obj && v != rf.value) {
                    continue;
                }
                if self.reach[rf.supplier].contains(j) && !self.reach[rf.reader].contains(j) {
                    changed |= self.add(rf.reader, j, Prov::InterfAfter { slot });
                }
                if self.reach[j].contains(rf.reader) && !self.reach[j].contains(rf.supplier) {
                    changed |= self.add(j, rf.supplier, Prov::InterfBefore { slot });
                }
            }
        }
        changed
    }

    /// Index of a transaction on a cycle, if the closed relation has one.
    fn cycle_head(&self) -> Option<usize> {
        (0..self.n).find(|&i| self.reach[i].contains(i))
    }

    /// Exports the closed derivation of the self-loop at `head` as a
    /// certificate.
    fn certificate(&self, head: usize) -> Certificate {
        let n = self.n;
        let mut index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut steps: Vec<Step> = Vec::new();
        // The read-from axiom step grounding each interference slot. The
        // graph edge supplier → reader may carry *other* provenance (e.g.
        // real time, if that was seeded first), so the interference rules
        // emit their own axiom step per slot instead of reusing the cell.
        let mut rf_step: BTreeMap<usize, usize> = BTreeMap::new();
        let ensure_rf_step =
            |slot: usize, steps: &mut Vec<Step>, rf_step: &mut BTreeMap<usize, usize>| {
                *rf_step.entry(slot).or_insert_with(|| {
                    let r = &self.spec.reads[slot];
                    let rf = self.rf[slot].expect("grounded slot");
                    steps.push(Step {
                        from: self.spec.txns[rf.supplier].id,
                        to: self.spec.txns[rf.reader].id,
                        rule: Rule::ReadFrom {
                            obj: self.spec.objs[r.obj],
                            value: r.value,
                            read: r.resp_index,
                        },
                    });
                    steps.len() - 1
                })
            };

        // The self-loop is always transitive (no axiom is reflexive):
        // its two constituent edges are the top-level cycle.
        let Some(Prov::Trans { mid }) = self.prov[head * n + head] else {
            unreachable!("self-loop must be transitive");
        };
        let goals = [(head, mid), (mid, head)];

        let mut stack: Vec<(usize, usize)> = goals.to_vec();
        while let Some(&(i, j)) = stack.last() {
            if index.contains_key(&(i, j)) {
                stack.pop();
                continue;
            }
            let prov = self.prov[i * n + j].expect("edge has provenance");
            let premises: Vec<(usize, usize)> = match prov {
                Prov::Trans { mid } => vec![(i, mid), (mid, j)],
                Prov::InterfAfter { slot } => {
                    let rf = self.rf[slot].expect("grounded slot");
                    vec![(rf.supplier, j)]
                }
                Prov::InterfBefore { slot } => {
                    let rf = self.rf[slot].expect("grounded slot");
                    vec![(i, rf.reader)]
                }
                _ => Vec::new(),
            };
            let missing: Vec<(usize, usize)> = premises
                .iter()
                .copied()
                .filter(|cell| !index.contains_key(cell))
                .collect();
            if !missing.is_empty() {
                stack.extend(missing);
                continue;
            }
            let rule = match prov {
                Prov::Rt => Rule::RealTime,
                Prov::ReadFrom { slot } => {
                    let r = &self.spec.reads[slot];
                    Rule::ReadFrom {
                        obj: self.spec.objs[r.obj],
                        value: r.value,
                        read: r.resp_index,
                    }
                }
                Prov::AntiDep { slot } => {
                    let r = &self.spec.reads[slot];
                    Rule::AntiDependency {
                        obj: self.spec.objs[r.obj],
                        read: r.resp_index,
                    }
                }
                Prov::Rco { read, tryc, obj } => Rule::ReadCommitOrder { obj, read, tryc },
                Prov::Tms2 { resp, tryc, obj } => Rule::Tms2CommitOrder { obj, resp, tryc },
                Prov::Trans { mid } => Rule::Transitive {
                    first: index[&(i, mid)],
                    second: index[&(mid, j)],
                },
                Prov::InterfAfter { slot } => {
                    let rf = self.rf[slot].expect("grounded slot");
                    Rule::InterferenceAfter {
                        read_from: ensure_rf_step(slot, &mut steps, &mut rf_step),
                        before: index[&(rf.supplier, j)],
                    }
                }
                Prov::InterfBefore { slot } => {
                    let rf = self.rf[slot].expect("grounded slot");
                    Rule::InterferenceBefore {
                        read_from: ensure_rf_step(slot, &mut steps, &mut rf_step),
                        after: index[&(i, rf.reader)],
                    }
                }
            };
            index.insert((i, j), steps.len());
            steps.push(Step {
                from: self.spec.txns[i].id,
                to: self.spec.txns[j].id,
                rule,
            });
            stack.pop();
        }

        let cycle = goals.iter().map(|cell| index[cell]).collect();
        Certificate {
            criterion: self.criterion,
            steps,
            cycle,
        }
    }

    /// `Some(order)` when the closed acyclic relation orders *every* pair
    /// — the unique linear extension.
    fn total_order(&self) -> Option<Vec<usize>> {
        let n = self.n;
        for i in 0..n {
            for j in (i + 1)..n {
                if !self.reach[i].contains(j) && !self.reach[j].contains(i) {
                    return None;
                }
            }
        }
        // With a total strict order, predecessor counts are 0..n-1.
        let mut order = vec![usize::MAX; n];
        for i in 0..n {
            let pos = (0..n).filter(|&k| self.reach[k].contains(i)).count();
            if order[pos] != usize::MAX {
                return None; // defensive: duplicate predecessor count
            }
            order[pos] = i;
        }
        Some(order)
    }
}

/// Warshall's closure of the successor sets `reach` in place, calling
/// `on_new(i, j, k)` for each edge `i → j` it adds through pivot `k`, in
/// `(k, i, j)` order. For each pivot `k` and each `i ≠ k` reaching it,
/// `reach[i]` takes `reach[k]` a word at a time, so the closure costs
/// O(n³/64) word operations; only the new bits are visited one by one.
pub(crate) fn transitive_close(reach: &mut [BitSet], mut on_new: impl FnMut(usize, usize, usize)) {
    let mut via = BitSet::default();
    for k in 0..reach.len() {
        // `reach[k]` cannot change while `k` is the pivot: `i ≠ k` below.
        via.copy_from(&reach[k]);
        for (i, row) in reach.iter_mut().enumerate() {
            if i != k && row.contains(k) {
                row.union_with_new(&via, |j| on_new(i, j, k));
            }
        }
    }
}

/// The witness-validator rendering of each saturable criterion.
fn witness_kind(criterion: PlanCriterion) -> CriterionKind {
    match criterion {
        PlanCriterion::FinalState | PlanCriterion::Strict => CriterionKind::FinalStateOpacity,
        PlanCriterion::Du => CriterionKind::DuOpacity,
        PlanCriterion::Rco => CriterionKind::ReadCommitOrder,
        PlanCriterion::Tms2 => CriterionKind::Tms2,
    }
}

/// Saturates `criterion`'s must-precede relation over `h`.
///
/// For [`PlanCriterion::Strict`] the input is first restricted to its
/// committed projection (as [`PlanCriterion::prepare`] does); the
/// resulting certificate or witness refers to that projection, matching
/// the search path's convention.
///
/// Refutations are self-validated with [`check_certificate`] before being
/// returned; a certificate the independent validator rejects (which would
/// indicate an engine bug, checked in debug builds) degrades to
/// [`SaturationOutcome::Inconclusive`] rather than an unsound verdict.
pub fn saturate(h: &History, criterion: PlanCriterion) -> SaturationOutcome {
    saturate_prepared(&Prepared::new(h, criterion), criterion)
}

/// Whether saturation turns away a history of `n` transactions.
pub(crate) fn gated(n: usize) -> bool {
    n == 0 || n > MAX_TXNS
}

/// Whether du witness `w` of `h` has an adjacent pair that real time
/// leaves unordered and that touch disjoint objects (a transaction
/// touches each object it invokes a read or a write on). Swapping such a
/// pair gives a second du witness, so no sound rule orders the two: the
/// closure is not total, and du saturation of `h` cannot decide it
/// (DESIGN.md §12, "Witness-gated prefilter").
pub(crate) fn has_swappable_pair(h: &History, w: &Witness) -> bool {
    let objs = |t: TxnId| {
        h.txn(t)
            .into_iter()
            .flat_map(|v| v.ops())
            .filter_map(|o| o.op.obj())
    };
    w.order().windows(2).any(|pair| {
        let (a, b) = (pair[0], pair[1]);
        !h.precedes_rt(a, b) && !h.precedes_rt(b, a) && !objs(a).any(|x| objs(b).any(|y| x == y))
    })
}

/// As [`saturate`], over a prepared query. The size gate comes first,
/// so a gated query builds no spec here.
pub(crate) fn saturate_prepared(p: &Prepared<'_>, criterion: PlanCriterion) -> SaturationOutcome {
    if gated(p.history().txn_count()) {
        return SaturationOutcome::Inconclusive;
    }
    let Ok(spec) = p.spec() else {
        // Internal-read inconsistency: the spec precheck on the main path
        // reports it with its own violation shape.
        return SaturationOutcome::Inconclusive;
    };
    saturate_seeded(p.history(), spec, criterion, Seeds::of(p, spec, criterion))
}

/// The saturation run proper over `hh` and its spec, which has passed
/// the size gate.
pub(crate) fn saturate_seeded<'a>(
    hh: &History,
    spec: &'a Spec,
    criterion: PlanCriterion,
    seeds: Seeds<'a>,
) -> SaturationOutcome {
    let mut sat = Saturator::new(spec, criterion);
    sat.seed(seeds);
    let mut rounds = 0;
    loop {
        sat.close();
        if let Some(head) = sat.cycle_head() {
            let cert = sat.certificate(head);
            if let Err(e) = check_certificate(hh, &cert) {
                debug_assert!(false, "saturation produced an invalid certificate: {e}");
                return SaturationOutcome::Inconclusive;
            }
            return SaturationOutcome::Refuted(cert);
        }
        rounds += 1;
        if rounds >= MAX_ROUNDS || !sat.interfere() {
            break;
        }
    }

    let Some(order) = sat.total_order() else {
        return SaturationOutcome::Inconclusive;
    };

    // Commit choices: a commit-pending transaction commits iff some read
    // depends on it as the unique supplier; everything else aborts. The
    // independent witness validator has the final word.
    let mut choices: BTreeMap<TxnId, bool> = BTreeMap::new();
    for (i, t) in spec.txns.iter().enumerate() {
        if t.capability == CommitCapability::CommitPending {
            let needed = sat.rf.iter().flatten().any(|rf| rf.supplier == i);
            choices.insert(t.id, needed);
        }
    }
    let witness = Witness::new(order.iter().map(|&i| spec.txns[i].id).collect(), choices);
    match check_witness(hh, &witness, witness_kind(criterion)) {
        Ok(()) => SaturationOutcome::Decided(witness),
        Err(_) => SaturationOutcome::Inconclusive,
    }
}

/// Runs saturation for `criterion` over `h` (preparing as needed) and
/// wraps a decisive outcome as the verdict the check pipeline reports:
/// `Some(Violated(Certified))` or `Some(Satisfied)`; `None` when
/// inconclusive. [`crate::plan_query`] reaches the same verdict inside
/// the sharding coordinator's one planning call.
pub fn saturate_verdict(h: &History, criterion: PlanCriterion) -> Option<Verdict> {
    verdict_of(saturate(h, criterion), criterion)
}

/// The verdict a decisive saturation outcome stands for.
pub(crate) fn verdict_of(outcome: SaturationOutcome, criterion: PlanCriterion) -> Option<Verdict> {
    match outcome {
        SaturationOutcome::Refuted(cert) => Some(Verdict::Violated(Violation::Certified {
            criterion: criterion.display_name().into(),
            certificate: Box::new(cert),
        })),
        SaturationOutcome::Decided(w) => Some(Verdict::Satisfied(w)),
        SaturationOutcome::Inconclusive => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::{HistoryBuilder, ObjId};

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    /// Committed writer fully before an initial-value reader: real time
    /// vs anti-dependency is a 2-cycle.
    #[test]
    fn lost_initial_value_is_refuted_with_certificate() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(0))
            .build();
        for criterion in [
            PlanCriterion::FinalState,
            PlanCriterion::Du,
            PlanCriterion::Rco,
            PlanCriterion::Tms2,
            PlanCriterion::Strict,
        ] {
            match saturate(&h, criterion) {
                SaturationOutcome::Refuted(cert) => {
                    let hh = criterion.prepare(&h);
                    let target = hh.as_ref().unwrap_or(&h);
                    assert_eq!(check_certificate(target, &cert), Ok(()), "{criterion:?}");
                    assert_eq!(cert.criterion, criterion);
                }
                other => panic!("{criterion:?}: expected refutation, got {other:?}"),
            }
        }
    }

    /// Sequential write-then-read of the written value: the order is
    /// fully determined (rt + read-from), so saturation decides it
    /// positively.
    #[test]
    fn determined_history_yields_validated_witness() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        match saturate(&h, PlanCriterion::Du) {
            SaturationOutcome::Decided(w) => {
                assert_eq!(w.order(), &[t(1), t(2)]);
            }
            other => panic!("expected decision, got {other:?}"),
        }
    }

    /// Two overlapping independent writers: no edge orders them, so
    /// saturation abstains.
    #[test]
    fn undetermined_history_is_inconclusive() {
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_write(t(2), ObjId::new(1), v(2))
            .resp_ok(t(1))
            .resp_ok(t(2))
            .commit(t(1))
            .commit(t(2))
            .build();
        assert!(matches!(
            saturate(&h, PlanCriterion::FinalState),
            SaturationOutcome::Inconclusive
        ));
    }

    /// The interference rules fire: reader r reads v1 from unique
    /// supplier w; a later committed overwriter must be pushed after r.
    #[test]
    fn interference_refutes_overwrite_between_supplier_and_reader() {
        // T1 writes 1 and commits; T2 writes 2 and commits strictly after
        // T1; T3 (after T2) reads 1. T1 is the unique supplier of T3's
        // read; T2 (committed, final write 2 ≠ 1) must not sit between T1
        // and T3, forcing T3 -> T2 — contradicting rt T2 -> T3.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(2))
            .committed_reader(t(3), x(), v(1))
            .build();
        match saturate(&h, PlanCriterion::FinalState) {
            SaturationOutcome::Refuted(cert) => {
                assert_eq!(check_certificate(&h, &cert), Ok(()));
                assert!(
                    cert.steps.iter().any(|s| matches!(
                        s.rule,
                        Rule::InterferenceAfter { .. } | Rule::InterferenceBefore { .. }
                    )),
                    "expected an interference step: {cert}"
                );
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    /// Saturation agrees with the backtracking search on a spread of
    /// small histories (both polarities).
    #[test]
    fn saturation_never_contradicts_the_search() {
        use crate::{Criterion, DuOpacity, FinalStateOpacity, SearchConfig};
        let histories = vec![
            HistoryBuilder::new()
                .committed_writer(t(1), x(), v(1))
                .committed_reader(t(2), x(), v(1))
                .build(),
            HistoryBuilder::new()
                .committed_writer(t(1), x(), v(1))
                .committed_reader(t(2), x(), v(0))
                .build(),
            HistoryBuilder::new()
                .committed_writer(t(1), x(), v(1))
                .committed_writer(t(2), x(), v(2))
                .committed_reader(t(3), x(), v(1))
                .build(),
            HistoryBuilder::new()
                .write(t(1), x(), v(1))
                .inv_try_commit(t(1))
                .build(),
        ];
        let cfg = SearchConfig {
            saturate: false,
            prelint: false,
            ..SearchConfig::default()
        };
        for h in &histories {
            for criterion in [PlanCriterion::FinalState, PlanCriterion::Du] {
                let exact: Box<dyn Criterion> = match criterion {
                    PlanCriterion::FinalState => {
                        Box::new(FinalStateOpacity::with_config(cfg.clone()))
                    }
                    _ => Box::new(DuOpacity::with_config(cfg.clone())),
                };
                let expected = exact.check(h);
                match saturate(h, criterion) {
                    SaturationOutcome::Refuted(_) => {
                        assert!(expected.is_violated(), "{criterion:?} on {h:?}")
                    }
                    SaturationOutcome::Decided(_) => {
                        assert!(expected.is_satisfied(), "{criterion:?} on {h:?}")
                    }
                    SaturationOutcome::Inconclusive => {}
                }
            }
        }
    }

    #[test]
    fn saturate_verdict_wraps_certificate() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(0))
            .build();
        let verdict = saturate_verdict(&h, PlanCriterion::Du).expect("decided");
        match verdict {
            Verdict::Violated(Violation::Certified {
                criterion,
                certificate,
            }) => {
                assert_eq!(criterion, "du-opacity");
                assert_eq!(check_certificate(&h, &certificate), Ok(()));
            }
            other => panic!("expected certified violation, got {other:?}"),
        }
    }

    #[test]
    fn oversized_history_is_gated() {
        let mut b = HistoryBuilder::new();
        for k in 1..=(MAX_TXNS as u32 + 1) {
            b = b.committed_writer(t(k), ObjId::new(k), v(1));
        }
        let h = b.build();
        assert!(matches!(
            saturate(&h, PlanCriterion::FinalState),
            SaturationOutcome::Inconclusive
        ));
    }
}
