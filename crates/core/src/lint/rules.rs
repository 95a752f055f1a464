//! The lint rules. Each is a polynomial necessary-condition analysis; the
//! soundness argument for every `Error`-severity emission is spelled out
//! in `DESIGN.md` ("Static analysis: the lint pipeline").

use super::context::LintCtx;
use super::{Applicability, Diagnostic, Emit, RuleInfo, Severity, Span};
use crate::bitset::BitSet;
use crate::must_precede::AntiDep;
use crate::plan::topo_order;
use crate::prepared::Prepared;
use crate::spec::Spec;
use duop_history::{CommitCapability, History, Op, Ret, Value};
use std::collections::HashMap;

/// How a rule runs.
#[derive(Clone, Copy)]
enum Run {
    /// Over the history, only when it has no spec: WF001 explains why.
    WithoutSpec(fn(&History, &mut Vec<Diagnostic>)),
    /// Over the shared facts, emitting what the [`Emit`] asks for.
    WithSpec(fn(&LintCtx<'_>, Emit, &mut Vec<Diagnostic>)),
}

/// One rule of the pipeline.
struct Rule {
    info: RuleInfo,
    /// The applicabilities of the rule's `Error` emissions, which name
    /// the scopes it can refute; empty for a rule that never emits one.
    errors: &'static [Applicability],
    run: Run,
}

/// The pipeline in registry order: the one table of the rules, the
/// scopes each can refute, and how each runs. The prefilter runs a rule
/// only when its `errors` refute the scope at hand.
const PIPELINE: [Rule; 7] = [
    Rule {
        info: RuleInfo {
            id: "WF001",
            title: "internal read inconsistency",
            summary: "a read after the transaction's own write returned a different value \
                      (well-formedness / sequential specification, Section 2)",
            paper: "Section 2's sequential specification of a t-object requires every read \
                    to return the transaction's own latest preceding write to that object. \
                    A history violating this inside one transaction has no legal sequential \
                    image for that transaction at all, so every criterion built on \
                    equivalence to a legal sequential history (Definitions 3-5) is refuted \
                    outright — no serialization search is needed.",
            example: "T1 write X0 1\nT1 ok\nT1 read X0\nT1 val 2\nT1 tryc\nT1 commit\n",
        },
        errors: &[Applicability::AllCriteria],
        run: Run::WithoutSpec(wf001),
    },
    Rule {
        info: RuleInfo {
            id: "DU002",
            title: "deferred-update axiom",
            summary: "a value was observed before any writer of it committed (dirty read, \
                      Figure 2 shape); Error under du-opacity when no writer had even \
                      invoked tryC before the read's response (Definition 3(3))",
            paper: "Definition 3(3) (deferred update): in a du-opaque history a read may \
                    return a transaction's written value only if that writer's tryC was \
                    already invoked when the read responded — deferred-update TMs make \
                    writes visible no earlier than commit time. Observing the value before \
                    any writer even invoked tryC is therefore a refutation of du-opacity \
                    (Error); observing it between tryC and commit is the Figure 2 shape, \
                    legal but worth a Warning because it pins the writer's commit.",
            example: "T1 write X0 1\nT1 ok\nT2 read X0\nT2 val 1\nT2 tryc\nT2 commit\n\
                      T1 tryc\nT1 commit\n",
        },
        errors: &[Applicability::DuOpacityOnly],
        run: Run::WithSpec(du002),
    },
    Rule {
        info: RuleInfo {
            id: "RF003",
            title: "read-from non-existence",
            summary: "a read returned a non-initial value no committable transaction writes",
            paper: "In every serialization each read returns either the initial value or \
                    the latest committed write (Section 2). A non-initial value that no \
                    committable transaction ever writes has no possible supplier, so no \
                    serialization is legal under any of the criteria (Definitions 3-5) — \
                    the strongest and cheapest refutation in the pipeline.",
            example: "T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\nT2 read X0\nT2 val 9\n\
                      T2 tryc\nT2 commit\n",
        },
        errors: &[Applicability::AllCriteria],
        run: Run::WithSpec(rf003),
    },
    Rule {
        info: RuleInfo {
            id: "CY004",
            title: "must-precede cycle",
            summary: "the real-time, forced read-from, anti-dependency and criterion edges \
                      form a cycle, so no serialization exists (sound, incomplete)",
            paper: "Every serialization must embed the real-time order (Definition 1), \
                    place each read after its only possible supplier, and place a reader \
                    of an overwritten value before the overwriter. Each such edge is a \
                    necessary condition, so a cycle among them proves no serialization \
                    exists — sound for every criterion that demands one, incomplete \
                    because only forced edges are drawn. The certifying saturation pass \
                    (`duop certify`, DESIGN.md \u{00a7}12) extends this analysis and emits a \
                    machine-checkable certificate for the cycle.",
            example: "T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\nT2 read X0\nT2 val 0\n\
                      T2 tryc\nT2 commit\n",
        },
        errors: &[
            Applicability::AllCriteria,
            Applicability::DuOpacityOnly,
            Applicability::ReadCommitOrderOnly,
            Applicability::Tms2Only,
        ],
        run: Run::WithSpec(cy004),
    },
    Rule {
        info: RuleInfo {
            id: "AN005",
            title: "lost update / write skew",
            summary: "two transactions each read state the other's committed write destroys: \
                      an anti-dependency two-cycle no serialization can order",
            paper: "If T1 read a value that T2's committed write overwrote, any legal \
                    serialization puts T1 before T2 (else T1 would have seen T2's write); \
                    symmetrically for T2 against T1. Both edges at once — the classic \
                    lost-update / write-skew shape — form an anti-dependency two-cycle, \
                    so no order satisfies Definitions 3-5. This is the two-transaction \
                    core of CY004, reported with both read/write event spans.",
            example: "T1 read X0\nT1 val 0\nT2 read X1\nT2 val 0\nT1 write X1 1\nT1 ok\n\
                      T2 write X0 1\nT2 ok\nT1 tryc\nT1 commit\nT2 tryc\nT2 commit\n",
        },
        errors: &[Applicability::AllCriteria],
        run: Run::WithSpec(an005),
    },
    Rule {
        info: RuleInfo {
            id: "RCO006",
            title: "read-commit-order inversion",
            summary: "a reader is forced after the sole writer of a value it read, yet one of \
                      its reads responded before that writer's tryC (Guerraoui\u{2013}Henzinger\u{2013}Singh)",
            paper: "The read-commit-order criterion (Guerraoui\u{2013}Henzinger\u{2013}Singh; Section 4.1) \
                    strengthens du-opacity: a reader serialized after a writer must have \
                    *all* its reads respond after that writer's tryC. When the reader is \
                    forced after the sole possible supplier of some value it read, but \
                    another of its reads responded before that supplier's tryC, \
                    read-commit-order opacity is refuted (Error scoped to rco).",
            example: "T2 read X1\nT2 val 0\nT1 write X0 1\nT1 ok\nT1 write X1 1\nT1 ok\n\
                      T1 tryc\nT1 commit\nT2 read X0\nT2 val 1\nT2 tryc\nT2 commit\n",
        },
        errors: &[Applicability::ReadCommitOrderOnly],
        run: Run::WithSpec(rco006),
    },
    Rule {
        info: RuleInfo {
            id: "UW007",
            title: "non-unique writes",
            summary: "several committable writers could supply one read, leaving the \
                      unique-writes regime of Theorem 11",
            paper: "Theorem 11's polynomial decision procedure assumes unique writes: \
                    every value is written to each object by at most one committable \
                    transaction, so each read's supplier is forced. Two committable \
                    writers of the same value to the same object leave that regime — the \
                    checker falls back to the exponential search and the degradation \
                    ladder's Theorem 11 fast path no longer applies. A note, never a \
                    refutation.",
            example: "T1 write X0 5\nT1 ok\nT1 tryc\nT1 commit\nT2 write X0 5\nT2 ok\n\
                      T2 tryc\nT2 commit\nT3 read X0\nT3 val 5\nT3 tryc\nT3 commit\n",
        },
        errors: &[],
        run: Run::WithSpec(uw007),
    },
];

/// The public registry: each pipeline rule's entry, in order.
pub(super) static RULES: [RuleInfo; PIPELINE.len()] = {
    let mut infos = [PIPELINE[0].info; PIPELINE.len()];
    let mut i = 1;
    while i < infos.len() {
        infos[i] = PIPELINE[i].info;
        i += 1;
    }
    infos
};

/// Runs the rules `emit` selects over `p` in pipeline order and collects
/// what they emit.
///
/// Spec construction fails only on internal read inconsistency, and then
/// only WF001 runs: it reconstructs the offending pair for the spans.
/// The other rules need the spec, and that Error already refutes
/// everything.
pub(super) fn run(p: &Prepared<'_>, emit: Emit) -> Vec<Diagnostic> {
    let ctx = LintCtx::new(p);
    let mut out = Vec::new();
    for rule in PIPELINE.iter().filter(|r| emit.selects(r.errors)) {
        let start = out.len();
        match (rule.run, &ctx) {
            (Run::WithoutSpec(f), None) => f(p.history(), &mut out),
            (Run::WithSpec(f), Some(ctx)) => f(ctx, emit, &mut out),
            _ => {}
        }
        debug_assert!(
            out[start..].iter().all(|d| d.rule == rule.info.id
                && emit.wants(d.severity, d.applicability)
                && (d.severity != Severity::Error || rule.errors.contains(&d.applicability))),
            "{}: an emission its table entry does not name",
            rule.info.id
        );
    }
    out
}

/// WF001: a read after the transaction's own write to the same object
/// returned a different value. Sound for every criterion: in any
/// equivalent sequential history the read must return the transaction's
/// own latest preceding write (Section 2's sequential specification), so
/// no serialization is legal. Mirrors the precheck in `Spec::build`.
fn wf001(h: &History, out: &mut Vec<Diagnostic>) {
    for t in h.txns() {
        let mut own: HashMap<duop_history::ObjId, (Value, usize)> = HashMap::new();
        for op in t.ops() {
            match (op.op, op.resp) {
                (Op::Read(x), Some(Ret::Value(got))) => {
                    if let Some(&(expected, w_inv)) = own.get(&x) {
                        if got != expected {
                            let resp = op.resp_index.expect("complete read has response");
                            out.push(Diagnostic {
                                rule: "WF001",
                                severity: Severity::Error,
                                applicability: Applicability::AllCriteria,
                                message: format!(
                                    "{} read {got} from {x} after writing {expected} to it: \
                                     every equivalent sequential history violates the \
                                     sequential specification (Section 2)",
                                    t.id()
                                ),
                                primary: Span::at(h, resp),
                                secondary: vec![Span::at(h, w_inv)],
                            });
                            return;
                        }
                    }
                }
                (Op::Write(x, v), Some(Ret::Ok)) => {
                    own.insert(x, (v, op.inv_index));
                }
                _ => {}
            }
        }
    }
}

/// RF003: a non-initial value with an empty plain supplier set. Sound for
/// every criterion: no committable transaction writes the value, and `T_0`
/// supplies only the initial value, so the read is illegal in every
/// serialization. Promoted out of `plan.rs` (`Violation::MissingWriter`).
fn rf003(ctx: &LintCtx<'_>, _: Emit, out: &mut Vec<Diagnostic>) {
    let suppliers = ctx.facts.suppliers(false);
    for (slot, r) in ctx.spec.reads.iter().enumerate() {
        if r.value == Value::INITIAL || suppliers[slot].count_ones() > 0 {
            continue;
        }
        out.push(Diagnostic {
            rule: "RF003",
            severity: Severity::Error,
            applicability: Applicability::AllCriteria,
            message: format!(
                "{} read {} from {}, but no transaction capable of committing writes \
                 that value: the read can never be legal (read-from non-existence)",
                ctx.spec.txns[r.txn].id, r.value, ctx.spec.objs[r.obj],
            ),
            primary: Span::at(ctx.h, r.resp_index),
            secondary: Vec::new(),
        });
    }
}

/// DU002, two emissions sharing the rule id:
///
/// * **Warning (all criteria)** — dirty read: the value was observed
///   before any writer of it committed in `H` (Figure 2 shape). Not an
///   error: Figure 2 itself is du-opaque (the completion may commit the
///   pending writer), so this shape alone refutes nothing.
/// * **Error (du-opacity only)** — the du supplier set is empty while the
///   plain one is not: no writer of the value invoked `tryC` before the
///   read's response, so the local serialization `S^{k,X}` of
///   Definition 3(3) contains no writer of the value and the read is
///   illegal in it, whatever the serialization order. Necessary condition
///   for du-opacity; plain criteria are untouched (the plain supplier can
///   still serve).
///
/// The prefilter asks for the Error form alone.
fn du002(ctx: &LintCtx<'_>, emit: Emit, out: &mut Vec<Diagnostic>) {
    let suppliers = ctx.facts.suppliers(false);
    // Each form's input, built only when the form is wanted.
    let commit_resp = emit
        .wants(Severity::Warning, Applicability::AllCriteria)
        .then(|| ctx.commit_responses());
    let du_suppliers = emit
        .wants(Severity::Error, Applicability::DuOpacityOnly)
        .then(|| ctx.facts.suppliers(true));
    for (slot, r) in ctx.spec.reads.iter().enumerate() {
        if r.value == Value::INITIAL || suppliers[slot].count_ones() == 0 {
            continue; // RF003 covers the empty-supplier case.
        }
        let reader = ctx.spec.txns[r.txn].id;
        let obj = ctx.spec.objs[r.obj];
        let dirty = commit_resp.as_ref().is_some_and(|commit_resp| {
            !suppliers[slot]
                .iter_ones()
                .any(|j| commit_resp[j].is_some_and(|resp| resp < r.resp_index))
        });
        if dirty {
            let w = suppliers[slot].iter_ones().next().expect("non-empty");
            let mut secondary = Vec::new();
            if let Some(inv) = ctx.final_write_inv(w, r.obj) {
                secondary.push(Span::at(ctx.h, inv));
            }
            if let Some(inv) = ctx.spec.txns[w].try_commit_inv {
                secondary.push(Span::at(ctx.h, inv));
            }
            out.push(Diagnostic {
                rule: "DU002",
                severity: Severity::Warning,
                applicability: Applicability::AllCriteria,
                message: format!(
                    "{reader} observed {} from {obj} before any writer of that value \
                     committed: a deferred-update TM only reveals a write at commit \
                     (Definition 3; the Figure 2 shape)",
                    r.value,
                ),
                primary: Span::at(ctx.h, r.resp_index),
                secondary,
            });
        }
        if du_suppliers.is_some_and(|du| du[slot].count_ones() == 0) {
            let w = suppliers[slot].iter_ones().next().expect("non-empty");
            let secondary = ctx
                .final_write_inv(w, r.obj)
                .map(|inv| Span::at(ctx.h, inv))
                .into_iter()
                .collect();
            out.push(Diagnostic {
                rule: "DU002",
                severity: Severity::Error,
                applicability: Applicability::DuOpacityOnly,
                message: format!(
                    "{reader} read {} from {obj}, but no committable writer of that value \
                     invoked tryC before the read's response: the local serialization \
                     S^{{k,X}} of Definition 3(3) has no supplier",
                    r.value,
                ),
                primary: Span::at(ctx.h, r.resp_index),
                secondary,
            });
        }
    }
}

/// Forced read-from edges: a non-initial read with exactly one supplier
/// must be served by it, so the supplier precedes the reader in every
/// satisfying serialization (the planner's singleton-candidate argument).
fn add_forced(preds: &mut [BitSet], suppliers: &[BitSet], spec: &Spec) {
    for (slot, r) in spec.reads.iter().enumerate() {
        if r.value == Value::INITIAL || suppliers[slot].count_ones() != 1 {
            continue;
        }
        let w = suppliers[slot].iter_ones().next().expect("singleton");
        if w != r.txn {
            preds[r.txn].insert(w);
        }
    }
}

/// CY004: polynomial cycle detection over the must-precede relation. The
/// base graph collects edges that hold in every satisfying serialization
/// of *any* criterion: real-time order, forced singleton read-from edges,
/// and anti-dependency edges (see [`AntiDep`]); per-scope graphs add the
/// du-eligible forced edges (Definition 3(3)), the unconditional
/// read-commit-order edges, and the TMS2 commit-order edges. A cycle in
/// a graph refutes exactly the scopes whose constraints it uses. Sound
/// but incomplete: an acyclic graph proves nothing. The prefilter builds
/// only the base graph and its own scope's.
fn cy004(ctx: &LintCtx<'_>, emit: Emit, out: &mut Vec<Diagnostic>) {
    let mut base: Vec<BitSet> = ctx.spec.rt_preds.clone();
    add_forced(&mut base, ctx.facts.suppliers(false), ctx.spec);
    for d in ctx.facts.anti_deps() {
        base[d.writer].insert(d.reader);
    }
    if let Err(cyc) = topo_order(&base) {
        out.push(cycle_diag(
            ctx,
            &cyc,
            Applicability::AllCriteria,
            "real-time, forced read-from and anti-dependency edges",
        ));
        // The scope graphs are supersets: they would re-report the same
        // cycle with a narrower applicability.
        return;
    }

    if emit.wants(Severity::Error, Applicability::DuOpacityOnly) {
        let mut du = base.clone();
        add_forced(&mut du, ctx.facts.suppliers(true), ctx.spec);
        if let Err(cyc) = topo_order(&du) {
            out.push(cycle_diag(
                ctx,
                &cyc,
                Applicability::DuOpacityOnly,
                "the base edges plus du-eligible forced read-from edges (Definition 3(3))",
            ));
        }
    }

    // Read-commit-order edges are unconditional only for writers already
    // committed in `H`; for a commit-pending writer the serialization may
    // abort it, voiding the edge.
    if emit.wants(Severity::Error, Applicability::ReadCommitOrderOnly) {
        let mut rco = base.clone();
        for e in ctx.facts.rco() {
            if ctx.spec.txns[e.after].capability == CommitCapability::Committed {
                rco[e.after].insert(e.before);
            }
        }
        if let Err(cyc) = topo_order(&rco) {
            out.push(cycle_diag(
                ctx,
                &cyc,
                Applicability::ReadCommitOrderOnly,
                "the base edges plus read-commit-order edges (Section 4.2)",
            ));
        }
    }

    // TMS2 edges only relate writers already committed in `H`.
    if emit.wants(Severity::Error, Applicability::Tms2Only) {
        let mut tms2 = base;
        for e in ctx.facts.tms2() {
            tms2[e.after].insert(e.before);
        }
        if let Err(cyc) = topo_order(&tms2) {
            out.push(cycle_diag(
                ctx,
                &cyc,
                Applicability::Tms2Only,
                "the base edges plus TMS2 commit-order edges (Section 4.2)",
            ));
        }
    }
}

fn cycle_diag(
    ctx: &LintCtx<'_>,
    cycle: &[usize],
    applicability: Applicability,
    edges: &str,
) -> Diagnostic {
    let names: Vec<String> = cycle
        .iter()
        .map(|&i| ctx.spec.txns[i].id.to_string())
        .collect();
    let spans: Vec<usize> = cycle
        .iter()
        .filter_map(|&i| {
            let id = ctx.spec.txns[i].id;
            ctx.h.txn(id).map(|t| t.first_event_index())
        })
        .collect();
    let (first, rest) = spans.split_first().expect("cycle is non-empty");
    Diagnostic {
        rule: "CY004",
        severity: Severity::Error,
        applicability,
        message: format!(
            "the must-precede relation ({edges}) is cyclic involving {}: every edge is \
             a necessary condition, so no serialization exists",
            names.join(", "),
        ),
        primary: Span::at(ctx.h, *first),
        secondary: rest.iter().take(4).map(|&e| Span::at(ctx.h, e)).collect(),
    }
}

/// AN005: an anti-dependency two-cycle — each transaction read state the
/// other's committed write destroys, so each must precede the other.
/// Classified as *lost update* when both reads are on the same object and
/// *write skew* otherwise. Sound for every criterion (both edges are
/// necessary conditions; see [`AntiDep`]); CY004's base graph finds the
/// same two-cycle, AN005 names the anomaly.
fn an005(ctx: &LintCtx<'_>, _: Emit, out: &mut Vec<Diagnostic>) {
    let deps = ctx.facts.anti_deps();
    for (a, b) in an005_pairs(deps) {
        out.push(an005_diag(ctx, &deps[a], &deps[b]));
    }
}

/// The anti-dependency two-cycles as position pairs `(a, b)`, `a < b`,
/// where edge `b` reverses edge `a`, ordered by `a` and then `b`. Each
/// edge finds its reversals by binary search in the edges sorted by
/// `(writer, reader, position)`.
pub(crate) fn an005_pairs(deps: &[AntiDep]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if deps.len() < 2 {
        return pairs;
    }
    let mut sorted: Vec<(usize, usize, usize)> = deps
        .iter()
        .enumerate()
        .map(|(pos, d)| (d.writer, d.reader, pos))
        .collect();
    sorted.sort_unstable();
    for (a, d) in deps.iter().enumerate() {
        let reversed = (d.reader, d.writer);
        let from =
            sorted.partition_point(|&(w, r, pos)| (w, r, pos) <= (reversed.0, reversed.1, a));
        pairs.extend(
            sorted[from..]
                .iter()
                .take_while(|&&(w, r, _)| (w, r) == reversed)
                .map(|&(_, _, b)| (a, b)),
        );
    }
    pairs
}

fn an005_diag(ctx: &LintCtx<'_>, a: &AntiDep, b: &AntiDep) -> Diagnostic {
    let (ta, tb) = (ctx.spec.txns[a.reader].id, ctx.spec.txns[b.reader].id);
    let message = if a.obj == b.obj {
        format!(
            "lost update on {}: {ta} and {tb} each read the initial value and committed \
             an overwrite, so each must serialize before the other's write took effect \
             \u{2014} no order satisfies both",
            ctx.spec.objs[a.obj],
        )
    } else {
        format!(
            "write skew between {ta} (read {}) and {tb} (read {}): each read the initial \
             value of the object the other committed a write to, so each must precede \
             the other \u{2014} no order satisfies both",
            ctx.spec.objs[a.obj], ctx.spec.objs[b.obj],
        )
    };
    Diagnostic {
        rule: "AN005",
        severity: Severity::Error,
        applicability: Applicability::AllCriteria,
        message,
        primary: Span::at(ctx.h, ctx.spec.reads[a.slot].resp_index),
        secondary: vec![Span::at(ctx.h, ctx.spec.reads[b.slot].resp_index)],
    }
}

/// RCO006: read-commit-order inversion. When a read has exactly one
/// committable supplier `w` (so `w → reader` is forced in every satisfying
/// serialization) and `w` is committed in `H`, but some read by the same
/// reader of an object `w` writes responded before `tryC_w`, then
/// read-commit-order demands `reader → w` — a contradiction, so the
/// history is not RCO-opaque (Guerraoui–Henzinger–Singh, Section 4.2).
/// Fires on Figure 5 (du-opaque but not RCO-opaque).
fn rco006(ctx: &LintCtx<'_>, _: Emit, out: &mut Vec<Diagnostic>) {
    let suppliers = ctx.facts.suppliers(false);
    for (slot, r) in ctx.spec.reads.iter().enumerate() {
        if r.value == Value::INITIAL || suppliers[slot].count_ones() != 1 {
            continue;
        }
        let w = suppliers[slot].iter_ones().next().expect("singleton");
        if ctx.spec.txns[w].capability != CommitCapability::Committed {
            continue;
        }
        let Some(w_inv) = ctx.spec.txns[w].try_commit_inv else {
            continue;
        };
        let inverted = ctx.spec.txns[r.txn].external_reads.iter().find(|&&s2| {
            let r2 = &ctx.spec.reads[s2];
            r2.resp_index < w_inv && ctx.spec.txns[w].writes.iter().any(|&(o, _)| o == r2.obj)
        });
        let Some(&s2) = inverted else {
            continue;
        };
        let reader = ctx.spec.txns[r.txn].id;
        let writer = ctx.spec.txns[w].id;
        out.push(Diagnostic {
            rule: "RCO006",
            severity: Severity::Error,
            applicability: Applicability::ReadCommitOrderOnly,
            message: format!(
                "{reader} must follow {writer}, the only committable writer of {} to {}, \
                 yet {reader}'s read of {} responded before tryC of {writer}: \
                 read-commit-order demands {reader} before {writer} (Section 4.2)",
                r.value, ctx.spec.objs[r.obj], ctx.spec.objs[ctx.spec.reads[s2].obj],
            ),
            primary: Span::at(ctx.h, r.resp_index),
            secondary: vec![
                Span::at(ctx.h, ctx.spec.reads[s2].resp_index),
                Span::at(ctx.h, w_inv),
            ],
        });
    }
}

/// UW007 (note): a read whose value has two or more committable writers.
/// The history leaves the unique-writes regime of Theorem 11, under which
/// opacity and du-opacity coincide — criteria may diverge here.
fn uw007(ctx: &LintCtx<'_>, _: Emit, out: &mut Vec<Diagnostic>) {
    let suppliers = ctx.facts.suppliers(false);
    for (slot, r) in ctx.spec.reads.iter().enumerate() {
        let count = suppliers[slot].count_ones();
        if r.value == Value::INITIAL || count < 2 {
            continue;
        }
        let secondary: Vec<Span> = suppliers[slot]
            .iter_ones()
            .take(2)
            .filter_map(|w| ctx.final_write_inv(w, r.obj))
            .map(|inv| Span::at(ctx.h, inv))
            .collect();
        out.push(Diagnostic {
            rule: "UW007",
            severity: Severity::Note,
            applicability: Applicability::AllCriteria,
            message: format!(
                "{count} committable writers of {} to {} could supply {}'s read: outside \
                 the unique-writes regime of Theorem 11, opacity and du-opacity may \
                 diverge",
                r.value, ctx.spec.objs[r.obj], ctx.spec.txns[r.txn].id,
            ),
            primary: Span::at(ctx.h, r.resp_index),
            secondary,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::lint::{lint, rules, Applicability, LintScope, Severity};
    use duop_history::{HistoryBuilder, ObjId, TxnId, Value};

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn y() -> ObjId {
        ObjId::new(1)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let ids: Vec<&str> = rules().iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec!["WF001", "DU002", "RF003", "CY004", "AN005", "RCO006", "UW007"]
        );
    }

    #[test]
    fn registry_examples_parse_and_fire_their_rule() {
        // The `--explain` examples are load-bearing documentation: each
        // must be a well-formed trace whose lint report includes its own
        // rule, with non-empty grounding text.
        for rule in rules() {
            assert!(!rule.paper.is_empty(), "{}: empty paper grounding", rule.id);
            let h = duop_history::trace::parse_trace(rule.example)
                .unwrap_or_else(|e| panic!("{}: example does not parse: {e}", rule.id));
            let report = lint(&h);
            assert!(
                report.rule_ids().contains(&rule.id),
                "{}: example does not fire the rule (fired: {:?})",
                rule.id,
                report.rule_ids()
            );
        }
    }

    #[test]
    fn wf001_fires_on_internal_inconsistency() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(3))
            .read(t(1), x(), v(4))
            .commit(t(1))
            .build();
        let report = lint(&h);
        assert_eq!(report.rule_ids(), vec!["WF001"]);
        let d = &report.diagnostics()[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.primary.event, 3);
        assert_eq!(d.secondary[0].event, 0);
        assert!(d.applicability.refutes(LintScope::Plain));
    }

    #[test]
    fn rf003_fires_on_orphan_value() {
        let h = HistoryBuilder::new()
            .committed_reader(t(1), x(), v(7))
            .build();
        let report = lint(&h);
        assert_eq!(report.rule_ids(), vec!["RF003"]);
        assert_eq!(report.error_count(), 1);
    }

    #[test]
    fn du002_warns_on_commit_pending_supplier() {
        // Figure 2 shape: du-opaque, so the dirty read must stay a Warning.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .read(t(2), x(), v(1))
            .commit(t(2))
            .build();
        let report = lint(&h);
        assert_eq!(report.rule_ids(), vec!["DU002"]);
        assert_eq!(report.error_count(), 0);
        let d = &report.diagnostics()[0];
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.primary.event, 4, "anchors the read's response");
        assert!(!d.secondary.is_empty(), "names the writer's events");
    }

    #[test]
    fn du002_error_when_no_writer_invoked_tryc() {
        // Figure 3 shape: T1 commits only after T2's read responded.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .read(t(2), x(), v(1))
            .commit(t(2))
            .commit(t(1))
            .build();
        let report = lint(&h);
        assert_eq!(report.rule_ids(), vec!["CY004", "DU002", "RCO006"]);
        let err = report.first_error_for(LintScope::Du).expect("du error");
        assert_eq!(err.rule, "DU002");
        assert_eq!(err.applicability, Applicability::DuOpacityOnly);
        // Plain final-state opacity is untouched by the du-only findings.
        assert!(report.first_error_for(LintScope::Plain).is_none());
    }

    #[test]
    fn cy004_catches_stale_read_cycle() {
        // T2 runs entirely after T1 committed 1, yet reads 0: rt edge
        // T1 -> T2 plus anti-dependency T2 -> T1.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .read(t(2), x(), v(0))
            .commit(t(2))
            .build();
        let report = lint(&h);
        assert_eq!(report.rule_ids(), vec!["CY004"]);
        let d = &report.diagnostics()[0];
        assert_eq!(d.applicability, Applicability::AllCriteria);
        assert!(d.message.contains("T1") && d.message.contains("T2"));
    }

    #[test]
    fn an005_names_lost_update() {
        // Classic lost update: both read X=0 concurrently, both commit
        // an overwrite.
        let h = HistoryBuilder::new()
            .inv_read(t(1), x())
            .inv_read(t(2), x())
            .resp_value(t(1), v(0))
            .resp_value(t(2), v(0))
            .inv_write(t(1), x(), v(1))
            .inv_write(t(2), x(), v(2))
            .resp_ok(t(1))
            .resp_ok(t(2))
            .inv_try_commit(t(1))
            .inv_try_commit(t(2))
            .resp_committed(t(1))
            .resp_committed(t(2))
            .build();
        let report = lint(&h);
        let ids = report.rule_ids();
        assert!(ids.contains(&"AN005"), "ids: {ids:?}");
        assert!(ids.contains(&"CY004"), "ids: {ids:?}");
        let an = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == "AN005")
            .unwrap();
        assert!(an.message.contains("lost update"));
    }

    #[test]
    fn an005_names_write_skew() {
        let h = HistoryBuilder::new()
            .inv_read(t(1), x())
            .inv_read(t(2), y())
            .resp_value(t(1), v(0))
            .resp_value(t(2), v(0))
            .inv_write(t(1), y(), v(1))
            .inv_write(t(2), x(), v(2))
            .resp_ok(t(1))
            .resp_ok(t(2))
            .inv_try_commit(t(1))
            .inv_try_commit(t(2))
            .resp_committed(t(1))
            .resp_committed(t(2))
            .build();
        let an = lint(&h)
            .diagnostics()
            .iter()
            .find(|d| d.rule == "AN005")
            .cloned()
            .expect("write skew detected");
        assert!(an.message.contains("write skew"));
    }

    #[test]
    fn rco006_fires_on_figure5_shape() {
        // Figure 5: T2 reads X=1 from T1, T3 overwrites X and writes Y=1,
        // T2 then reads Y=1 — forced T3 -> T2 but rco demands T2 -> T3.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .read(t(2), x(), v(1))
            .write(t(3), x(), v(2))
            .write(t(3), y(), v(1))
            .commit(t(3))
            .read(t(2), y(), v(1))
            .build();
        let report = lint(&h);
        let ids = report.rule_ids();
        assert!(ids.contains(&"RCO006"), "ids: {ids:?}");
        // Only rco-scoped errors: the history is du-opaque.
        assert!(report.first_error_for(LintScope::Du).is_none());
        assert!(report.first_error_for(LintScope::Rco).is_some());
    }

    #[test]
    fn uw007_notes_ambiguous_suppliers() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(1))
            .committed_reader(t(3), x(), v(1))
            .build();
        let report = lint(&h);
        assert_eq!(report.rule_ids(), vec!["UW007"]);
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.diagnostics()[0].severity, Severity::Note);
    }

    #[test]
    fn diagnostics_sort_errors_first() {
        // A history with a Note (two suppliers) and an Error (orphan).
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(1))
            .committed_reader(t(3), x(), v(1))
            .committed_reader(t(4), x(), v(9))
            .build();
        let report = lint(&h);
        let severities: Vec<Severity> = report.diagnostics().iter().map(|d| d.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort();
        assert_eq!(severities, sorted);
        assert_eq!(report.diagnostics()[0].severity, Severity::Error);
    }

    #[test]
    fn clean_history_lints_clean() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        assert!(lint(&h).is_empty());
    }

    #[test]
    fn json_form_carries_rule_and_spans() {
        let h = HistoryBuilder::new()
            .committed_reader(t(1), x(), v(7))
            .build();
        let report = lint(&h);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"rule\":\"RF003\""), "json: {json}");
        assert!(json.contains("\"event\":"), "json: {json}");
        assert!(json.contains("\"label\":"), "json: {json}");
    }
}
