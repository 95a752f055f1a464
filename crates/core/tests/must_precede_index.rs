//! Equivalence suite for the indexed must-precede builders.
//!
//! Every fact the checkers derive before searching — real-time order
//! (Definition 1), each read's plain and du-eligible suppliers
//! (Definition 3(3)), the initial-value anti-dependencies, and the
//! read-commit-order and TMS2 commit-order edges (Section 4.2) — comes
//! from the per-object tables of `duop_core::must_precede`. This suite
//! keeps the literal all-pairs form of each builder as the reference and
//! asserts identical output: the same sets, the same edge order, the same
//! duplicates and the same grounding events. Saturation seeded from the
//! literal facts must reach the product path's outcome, down to the
//! certificate steps and the witness.
//!
//! Corpora: six-transaction adversarial histories under three key
//! distributions, the anomaly catalogue, 48-transaction simulated
//! histories at concurrency 12 on 4 objects, `stream-serve`-shaped
//! prefixes every 64 events, two 768-transaction streaming traces, and
//! hand cases for the shapes the tables must get right.

use duop_core::must_precede::{saturate_from, AntiDep, CommitEdge, Facts, ReadFact};
use duop_core::{saturate, PlanCriterion};
use duop_gen::{anomalies, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{CommitCapability, History, HistoryBuilder, ObjId, Op, Ret, TxnId, Value};

const CRITERIA: [PlanCriterion; 5] = [
    PlanCriterion::FinalState,
    PlanCriterion::Du,
    PlanCriterion::Rco,
    PlanCriterion::Tms2,
    PlanCriterion::Strict,
];

const DISTS: [KeyDist; 3] = [
    KeyDist::Uniform,
    KeyDist::Zipfian { theta: 1.2 },
    KeyDist::Hotspot {
        hot_fraction: 0.25,
        hot_prob: 0.9,
    },
];

/// What the reference builders need of one transaction, read straight
/// off the history.
struct Txn {
    capability: CommitCapability,
    /// Final value per object over the completed writes (last write wins).
    writes: Vec<(ObjId, Value)>,
    try_commit_inv: Option<usize>,
}

fn txns(h: &History) -> Vec<Txn> {
    h.txns()
        .map(|t| {
            let mut writes: Vec<(ObjId, Value)> = Vec::new();
            for op in t.ops() {
                if let (Op::Write(x, v), Some(Ret::Ok)) = (op.op, op.resp) {
                    match writes.iter_mut().find(|(o, _)| *o == x) {
                        Some(w) => w.1 = v,
                        None => writes.push((x, v)),
                    }
                }
            }
            Txn {
                capability: t.commit_capability(),
                writes,
                try_commit_inv: h.try_commit_inv_index(t.id()),
            }
        })
        .collect()
}

/// The external reads in spec order: complete value-returning reads not
/// preceded by the transaction's own write to the object. `None` on an
/// internal read inconsistency.
fn literal_reads(h: &History) -> Option<Vec<ReadFact>> {
    let mut reads = Vec::new();
    for (i, t) in h.txns().enumerate() {
        let mut own: Vec<(ObjId, Value)> = Vec::new();
        for op in t.ops() {
            match (op.op, op.resp) {
                (Op::Read(x), Some(Ret::Value(got))) => {
                    match own.iter().rev().find(|(o, _)| *o == x) {
                        Some(&(_, expected)) if expected != got => return None,
                        Some(_) => {}
                        None => reads.push(ReadFact {
                            txn: i,
                            obj: x,
                            value: got,
                            resp: op.resp_index.expect("complete read"),
                        }),
                    }
                }
                (Op::Write(x, v), Some(Ret::Ok)) => own.push((x, v)),
                _ => {}
            }
        }
    }
    Some(reads)
}

fn literal_rt_preds(h: &History) -> Vec<Vec<usize>> {
    let ids: Vec<TxnId> = h.txn_ids().collect();
    (0..ids.len())
        .map(|j| {
            (0..ids.len())
                .filter(|&i| i != j && h.precedes_rt(ids[i], ids[j]))
                .collect()
        })
        .collect()
}

fn eligible(t: &Txn, r: &ReadFact) -> bool {
    t.try_commit_inv.is_some_and(|inv| inv < r.resp)
}

fn literal_elig(txns: &[Txn], reads: &[ReadFact]) -> Vec<Vec<usize>> {
    reads
        .iter()
        .map(|r| (0..txns.len()).filter(|&j| eligible(&txns[j], r)).collect())
        .collect()
}

fn literal_suppliers(txns: &[Txn], reads: &[ReadFact], du: bool) -> Vec<Vec<usize>> {
    reads
        .iter()
        .map(|r| {
            (0..txns.len())
                .filter(|&j| {
                    let t = &txns[j];
                    j != r.txn
                        && t.capability != CommitCapability::NeverCommitted
                        && t.writes.iter().any(|&(o, v)| o == r.obj && v == r.value)
                        && (!du || eligible(t, r))
                })
                .collect()
        })
        .collect()
}

fn literal_anti_deps(txns: &[Txn], reads: &[ReadFact], objs: &[ObjId]) -> Vec<AntiDep> {
    let mut out = Vec::new();
    for (slot, r) in reads.iter().enumerate() {
        if r.value != Value::INITIAL {
            continue;
        }
        let restorer = txns.iter().enumerate().any(|(j, t)| {
            j != r.txn
                && t.capability != CommitCapability::NeverCommitted
                && t.writes
                    .iter()
                    .any(|&(o, v)| o == r.obj && v == Value::INITIAL)
        });
        if restorer {
            continue;
        }
        for (j, t) in txns.iter().enumerate() {
            if j != r.txn
                && t.capability == CommitCapability::Committed
                && t.writes.iter().any(|&(o, _)| o == r.obj)
            {
                out.push(AntiDep {
                    reader: r.txn,
                    writer: j,
                    obj: objs.iter().position(|&o| o == r.obj).expect("interned"),
                    slot,
                });
            }
        }
    }
    out
}

fn slot(h: &History, id: TxnId) -> usize {
    h.txn_slot(id).expect("participates")
}

/// Read-commit-order edges by the definition's nested loops over
/// transaction pairs, with the read-set and write-set of each.
fn literal_rco(h: &History) -> Vec<CommitEdge> {
    let mut edges = Vec::new();
    for reader in h.txns() {
        for &x in &reader.read_set() {
            let Some(resp) = h.read_resp_index(reader.id(), x) else {
                continue;
            };
            if reader.read_value(x).is_none() {
                continue; // read returned A_k
            }
            for writer in h.txns() {
                if writer.id() == reader.id()
                    || writer.commit_capability() == CommitCapability::NeverCommitted
                    || !writer.write_set().contains(&x)
                {
                    continue;
                }
                if let Some(inv) = h.try_commit_inv_index(writer.id()).filter(|&i| resp < i) {
                    edges.push(CommitEdge {
                        before: slot(h, reader.id()),
                        after: slot(h, writer.id()),
                        event: resp,
                        tryc: inv,
                        obj: x,
                    });
                }
            }
        }
    }
    edges
}

/// TMS2 commit-order edges over all (writer, reader) pairs.
fn literal_tms2(h: &History) -> Vec<CommitEdge> {
    let mut edges = Vec::new();
    for writer in h.txns() {
        if !writer.is_committed() {
            continue;
        }
        let Some(w_resp) = writer
            .ops()
            .iter()
            .find(|o| o.op.is_try_commit())
            .and_then(|o| o.resp_index)
        else {
            continue;
        };
        let wset = writer.write_set();
        for reader in h.txns() {
            if reader.id() == writer.id() {
                continue;
            }
            let Some(r_inv) = h.try_commit_inv_index(reader.id()) else {
                continue;
            };
            if w_resp >= r_inv {
                continue;
            }
            let Some(&obj) = reader.read_set().iter().find(|x| wset.contains(x)) else {
                continue;
            };
            edges.push(CommitEdge {
                before: slot(h, writer.id()),
                after: slot(h, reader.id()),
                event: w_resp,
                tryc: r_inv,
                obj,
            });
        }
    }
    edges
}

/// Every fact of `h` from the literal builders, interned like `indexed`.
fn literal_facts(h: &History, indexed: &Facts) -> Facts {
    let txns = txns(h);
    let reads = literal_reads(h).expect("a spec exists");
    Facts {
        objs: indexed.objs.clone(),
        rt_preds: literal_rt_preds(h),
        elig: literal_elig(&txns, &reads),
        suppliers: literal_suppliers(&txns, &reads, false),
        du_suppliers: literal_suppliers(&txns, &reads, true),
        anti_deps: literal_anti_deps(&txns, &reads, &indexed.objs),
        rco: literal_rco(h),
        tms2: literal_tms2(h),
        reads,
    }
}

/// What a corpus exercised, so each test can show it reached the shapes
/// that matter.
#[derive(Debug, Default)]
struct Tally {
    histories: usize,
    rco_edges: usize,
    rco_duplicates: usize,
    tms2_edges: usize,
    anti_deps: usize,
    pending_suppliers: usize,
    refuted: usize,
    decided: usize,
}

/// Asserts every indexed fact of `h` equals its literal form, and that
/// saturation of every criterion reaches the same outcome from both.
fn assert_equivalent(h: &History, label: &str, tally: &mut Tally) {
    tally.histories += 1;
    let Some(indexed) = Facts::of(h) else {
        assert!(
            literal_reads(h).is_none(),
            "{label}: spec rejected a consistent history"
        );
        return;
    };
    let literal = literal_facts(h, &indexed);
    assert_eq!(indexed.reads, literal.reads, "{label}: external reads");
    assert_eq!(
        indexed.rt_preds, literal.rt_preds,
        "{label}: real-time order"
    );
    assert_eq!(indexed.elig, literal.elig, "{label}: du eligibility");
    assert_eq!(
        indexed.suppliers, literal.suppliers,
        "{label}: plain suppliers"
    );
    assert_eq!(
        indexed.du_suppliers, literal.du_suppliers,
        "{label}: du suppliers"
    );
    assert_eq!(
        indexed.anti_deps, literal.anti_deps,
        "{label}: anti-dependencies"
    );
    assert_eq!(indexed.rco, literal.rco, "{label}: read-commit-order edges");
    assert_eq!(indexed.tms2, literal.tms2, "{label}: TMS2 edges");
    assert_eq!(indexed, literal, "{label}");

    tally.rco_edges += indexed.rco.len();
    tally.rco_duplicates += indexed
        .rco
        .windows(2)
        .filter(|w| (w[0].before, w[0].after) == (w[1].before, w[1].after))
        .count();
    tally.tms2_edges += indexed.tms2.len();
    tally.anti_deps += indexed.anti_deps.len();
    let t = txns(h);
    tally.pending_suppliers += indexed
        .suppliers
        .iter()
        .flatten()
        .filter(|&&j| t[j].capability == CommitCapability::CommitPending)
        .count();

    for criterion in CRITERIA {
        let prepared = criterion.prepare(h);
        let hh = prepared.as_ref().unwrap_or(h);
        let product = saturate(h, criterion);
        let seeded = match Facts::of(hh) {
            Some(facts) => saturate_from(hh, criterion, &literal_facts(hh, &facts)),
            None => saturate(hh, criterion),
        };
        assert_eq!(
            format!("{product:?}"),
            format!("{seeded:?}"),
            "{label}: {criterion:?} saturation"
        );
        match product {
            duop_core::SaturationOutcome::Refuted(_) => tally.refuted += 1,
            duop_core::SaturationOutcome::Decided(_) => tally.decided += 1,
            duop_core::SaturationOutcome::Inconclusive => {}
        }
    }
}

fn t(k: u32) -> TxnId {
    TxnId::new(k)
}
fn v(n: u64) -> Value {
    Value::new(n)
}

#[test]
fn hand_cases_match_the_definitions() {
    let (x, y) = (ObjId::new(0), ObjId::new(1));
    let cases: Vec<(&str, History)> = vec![
        // T1's write of Y is still pending, so Y is in its write set but
        // not among its completed writes, and T1 can never commit.
        (
            "pending write invocation",
            HistoryBuilder::new()
                .write(t(1), x, v(1))
                .read(t(2), y, v(0))
                .inv_write(t(1), y, v(2))
                .committed_writer(t(3), y, v(3))
                .commit(t(2))
                .build(),
        ),
        // T2's read of X returns A_k: in its read set, with no value.
        (
            "read returning A_k",
            HistoryBuilder::new()
                .read(t(1), x, v(0))
                .inv_read(t(2), x)
                .resp_aborted(t(2))
                .committed_writer(t(3), x, v(1))
                .commit(t(1))
                .build(),
        ),
        // T1 reads X after writing it: not an external read, yet in its
        // read set for both commit-order criteria.
        (
            "read after own write",
            HistoryBuilder::new()
                .write(t(1), x, v(1))
                .read(t(1), x, v(1))
                .committed_writer(t(2), x, v(2))
                .commit(t(1))
                .committed_reader(t(3), x, v(2))
                .build(),
        ),
        // T2 is commit-pending, T3 aborted: only T2 may supply or bind.
        (
            "commit-pending and aborted writers",
            HistoryBuilder::new()
                .read(t(1), x, v(0))
                .write(t(2), x, v(1))
                .inv_try_commit(t(2))
                .write(t(3), x, v(1))
                .commit_aborted(t(3))
                .read(t(4), x, v(1))
                .commit(t(1))
                .commit(t(4))
                .build(),
        ),
        // T1 reads X and Y before T2, which writes both, invokes tryC:
        // the read-commit-order edge T1 → T2 appears once per object.
        (
            "reader of two objects one writer writes",
            HistoryBuilder::new()
                .read(t(1), x, v(0))
                .read(t(1), y, v(0))
                .write(t(2), x, v(1))
                .write(t(2), y, v(1))
                .commit(t(2))
                .commit(t(1))
                .build(),
        ),
        // A writer restoring the initial value voids the anti-dependency.
        (
            "initial-value restorer",
            HistoryBuilder::new()
                .read(t(1), x, v(0))
                .committed_writer(t(2), x, v(1))
                .committed_writer(t(3), x, v(0))
                .commit(t(1))
                .build(),
        ),
        // The reader writing the initial value back itself is no
        // restorer: T1 → T2 stands.
        (
            "reader restoring the initial value itself",
            HistoryBuilder::new()
                .read(t(1), x, v(0))
                .write(t(1), x, v(0))
                .committed_writer(t(2), x, v(1))
                .commit(t(1))
                .build(),
        ),
    ];
    let mut tally = Tally::default();
    for (label, h) in &cases {
        assert_equivalent(h, label, &mut tally);
    }
    let dup = Facts::of(&cases[4].1).unwrap();
    assert_eq!(
        dup.rco
            .iter()
            .map(|e| (e.before, e.after, e.obj))
            .collect::<Vec<_>>(),
        vec![(0, 1, x), (0, 1, y)],
        "one edge per object read"
    );
    let own = Facts::of(&cases[2].1).unwrap();
    assert!(
        own.reads.iter().all(|r| r.txn != 0),
        "own-write read is internal"
    );
    assert!(
        own.rco.iter().any(|e| e.before == 0 && e.after == 1),
        "own-write read still binds read-commit-order"
    );
    assert!(
        own.tms2.iter().any(|e| e.before == 1 && e.after == 0),
        "own-write read is in the TMS2 read set"
    );
    assert!(
        tally.pending_suppliers > 0 && tally.anti_deps > 0,
        "{tally:?}"
    );
}

#[test]
fn adversarial_histories_match() {
    let mut tally = Tally::default();
    for dist in DISTS {
        for seed in 0..200 {
            let cfg = HistoryGenConfig::small_adversarial()
                .with_txns(6)
                .with_key_dist(dist);
            let h = HistoryGen::new(cfg, seed).generate();
            assert_equivalent(&h, &format!("adversarial {dist:?} seed {seed}"), &mut tally);
        }
    }
    assert!(tally.rco_edges > 0 && tally.tms2_edges > 0, "{tally:?}");
    assert!(tally.rco_duplicates > 0 && tally.anti_deps > 0, "{tally:?}");
    assert!(tally.pending_suppliers > 0, "{tally:?}");
    assert!(tally.refuted > 0 && tally.decided > 0, "{tally:?}");
}

#[test]
fn anomaly_catalogue_matches() {
    let mut tally = Tally::default();
    for (name, h) in anomalies::catalogue() {
        assert_equivalent(&h, name, &mut tally);
    }
    assert!(tally.refuted > 0, "{tally:?}");
}

#[test]
fn simulated_search_histories_match() {
    let mut tally = Tally::default();
    for seed in 0..30 {
        let cfg = HistoryGenConfig::medium_simulated()
            .with_txns(48)
            .with_concurrency(12)
            .with_objs(4)
            .with_key_dist(DISTS[seed as usize % 3]);
        let h = HistoryGen::new(cfg, seed).generate();
        assert_equivalent(&h, &format!("medium_simulated(48) seed {seed}"), &mut tally);
    }
    assert!(tally.rco_edges > 0 && tally.tms2_edges > 0, "{tally:?}");
}

#[test]
fn stream_serve_prefixes_match() {
    let mut tally = Tally::default();
    for seed in 0..3 {
        let h =
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(128), seed).generate();
        let ends = (1..=h.len() / 64).map(|k| k * 64).chain([h.len()]);
        for end in ends {
            let prefix = h.prefix(end);
            let label = format!("medium_simulated(128) seed {seed} prefix {end}");
            assert_equivalent(&prefix, &label, &mut tally);
        }
    }
    assert!(tally.pending_suppliers > 0, "{tally:?}");
}

#[test]
fn long_traces_match() {
    let mut tally = Tally::default();
    for seed in 0..2 {
        let cfg = HistoryGenConfig::large_streaming().with_txns(768);
        let h = HistoryGen::new(cfg, seed).generate();
        assert_equivalent(&h, &format!("large_streaming(768) seed {seed}"), &mut tally);
    }
    assert!(tally.rco_edges > 0 && tally.tms2_edges > 0, "{tally:?}");
}
