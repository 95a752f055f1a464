//! Differential suite for the eligible-writers first pass.
//!
//! Du-opacity, final-state opacity and strict serializability search in
//! two passes. The first cuts a read once its value is gone and no
//! eligible writer of it — one whose `tryC` was invoked before the read
//! responded (Definition 3(3)) — is left unplaced, so it never cuts a
//! serialization whose reads all take their value from eligible writers.
//! Only if it exhausts does the exact pass run. The reference
//! ([`check_exact_only`], [`opacity_exact_only`]) runs the same pipeline
//! with the exact pass alone, so the two must agree:
//!
//! * the same verdict status, and the same violation up to its
//!   `explored` counts;
//! * every witness passes [`check_witness`];
//! * where the reference's witness is deferred-update-served — every
//!   read's global writer is eligible — the same witness.
//!
//! Settings: 1 and 4 threads, decomposition on and off, the search alone
//! and (on the small corpora) the full pipeline; the larger corpora run
//! decomposed, on 1 and 4 threads. Corpora: adversarial histories of 6,
//! 9, 12 and 40 transactions under three key distributions, the anomaly
//! catalogue, 48-transaction simulated histories at concurrency 12 on 4
//! objects (the `batch-search` shape), 64-event prefixes of a
//! 128-transaction stream (the `stream-serve` shape), and 200-transaction
//! streaming traces. Opacity is compared where `dead_end_pruning` compares
//! it: the adversarial corpora, the catalogue, the streaming traces and
//! stream prefixes of up to 256 events.

use duop_core::graph_kernels::{
    check_exact_only, check_plain_dead_ends, dead_end_audit, opacity_exact_only,
};
use duop_core::{
    check_criterion_with_stats, check_witness, Criterion, CriterionKind, Opacity, PlanCriterion,
    SearchConfig, Verdict, Violation, Witness,
};
use duop_gen::{anomalies, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{CommitCapability, History, ObjId, Op, Ret, TxnId};
use std::collections::HashSet;

/// The criteria that search in two passes.
const CRITERIA: [PlanCriterion; 3] = [
    PlanCriterion::FinalState,
    PlanCriterion::Strict,
    PlanCriterion::Du,
];

const DISTS: [KeyDist; 3] = [
    KeyDist::Uniform,
    KeyDist::Zipfian { theta: 1.2 },
    KeyDist::Hotspot {
        hot_fraction: 0.25,
        hot_prob: 0.9,
    },
];

/// Zeroes the `explored` counts a violation carries.
fn normalize(v: &Violation) -> Violation {
    match v {
        Violation::NoSerialization { criterion, .. } => Violation::NoSerialization {
            criterion: criterion.clone(),
            explored: 0,
        },
        Violation::PrefixNotFinalStateOpaque { prefix_len, cause } => {
            Violation::PrefixNotFinalStateOpaque {
                prefix_len: *prefix_len,
                cause: Box::new(normalize(cause)),
            }
        }
        other => other.clone(),
    }
}

/// Whether `id` commits in `w`.
fn commits(h: &History, w: &Witness, id: TxnId) -> bool {
    match h
        .txn(id)
        .expect("witness names a transaction")
        .commit_capability()
    {
        CommitCapability::Committed => true,
        CommitCapability::CommitPending => w.commit_choice(id) == Some(true),
        CommitCapability::NeverCommitted => false,
    }
}

/// Whether `id` completes a write to `obj`.
fn writes(h: &History, id: TxnId, obj: ObjId) -> bool {
    h.txn(id)
        .expect("witness names a transaction")
        .ops()
        .iter()
        .any(|op| matches!((op.op, op.resp), (Op::Write(x, _), Some(Ret::Ok)) if x == obj))
}

/// Whether every external read of `h` takes its value, in `w`, from the
/// initial value or from a writer whose `tryC` was invoked before the
/// read responded.
fn deferred_update_served(h: &History, w: &Witness) -> bool {
    let order = w.order();
    order.iter().enumerate().all(|(pos, &reader)| {
        let mut own = HashSet::new();
        h.txn(reader)
            .expect("witness names a transaction")
            .ops()
            .iter()
            .all(|op| match (op.op, op.resp, op.resp_index) {
                (Op::Write(x, _), Some(Ret::Ok), _) => {
                    own.insert(x);
                    true
                }
                (Op::Read(x), Some(Ret::Value(_)), Some(resp)) if !own.contains(&x) => order[..pos]
                    .iter()
                    .rev()
                    .find(|&&id| commits(h, w, id) && writes(h, id, x))
                    .is_none_or(|&id| h.try_commit_inv_index(id).is_some_and(|inv| inv < resp)),
                _ => true,
            })
    })
}

/// What one corpus exercised.
#[derive(Debug, Default)]
struct Tally {
    satisfied: u64,
    violated: u64,
    /// Reference witnesses that are deferred-update-served, and so must
    /// be returned unchanged.
    served: u64,
    /// Reference witnesses that are not, and the witnesses among them
    /// the two-pass search changed.
    unserved: u64,
    changed: u64,
}

/// The settings a corpus runs under: `small` adds the full pipeline to
/// the search alone; `decomposed_only` drops decomposition off.
fn settings(small: bool, decomposed_only: bool) -> Vec<SearchConfig> {
    let mut out = Vec::new();
    for threads in [1, 4] {
        for decompose in [true, false] {
            if decompose || !decomposed_only {
                for full in [false, true] {
                    if full && !small {
                        continue;
                    }
                    out.push(SearchConfig {
                        threads: Some(threads),
                        decompose,
                        prelint: full,
                        saturate: full,
                        ..SearchConfig::default()
                    });
                }
            }
        }
    }
    out
}

/// The history `criterion`'s witness speaks about, and the kind
/// [`check_witness`] validates it as.
fn witness_target(h: &History, criterion: PlanCriterion) -> (History, CriterionKind) {
    let kind = match criterion {
        PlanCriterion::Du => CriterionKind::DuOpacity,
        _ => CriterionKind::FinalStateOpacity,
    };
    (criterion.prepare(h).unwrap_or_else(|| h.clone()), kind)
}

/// Asserts the two-pass search and the exact-only reference agree on `h`
/// under every setting (see the module docs).
fn compare(h: &History, label: &str, settings: &[SearchConfig], opacity: bool, tally: &mut Tally) {
    for cfg in settings {
        for criterion in CRITERIA {
            let (got, _) = check_criterion_with_stats(h, criterion, cfg);
            let (want, _) = check_exact_only(h, criterion, cfg);
            let at = format!("{label}: {criterion:?} under {cfg:?}");
            let (target, kind) = witness_target(h, criterion);
            agree(&target, kind, &got, &want, &at, tally);
        }
        if opacity {
            let got = Opacity::with_config(cfg.clone()).check(h);
            let want = opacity_exact_only(h, cfg);
            let at = format!("{label}: opacity under {cfg:?}");
            agree(h, CriterionKind::FinalStateOpacity, &got, &want, &at, tally);
        }
    }
}

/// One verdict pair against the contract, `h` being the history the
/// witnesses speak about.
fn agree(
    h: &History,
    kind: CriterionKind,
    got: &Verdict,
    want: &Verdict,
    at: &str,
    tally: &mut Tally,
) {
    match (got, want) {
        (Verdict::Satisfied(w), Verdict::Satisfied(reference)) => {
            tally.satisfied += 1;
            check_witness(h, w, kind).unwrap_or_else(|e| panic!("{at}: invalid witness: {e}"));
            if deferred_update_served(h, reference) {
                tally.served += 1;
                assert_eq!(
                    w, reference,
                    "{at}: a deferred-update-served witness changed"
                );
            } else {
                tally.unserved += 1;
                tally.changed += u64::from(w != reference);
            }
        }
        (Verdict::Violated(v), Verdict::Violated(reference)) => {
            tally.violated += 1;
            assert_eq!(normalize(v), normalize(reference), "{at}");
        }
        _ => panic!("{at}: {got} where the exact pass alone gives {want}"),
    }
}

fn adversarial(txns: usize, seeds: u64, tally: &mut Tally) {
    let settings = settings(txns <= 9, false);
    for dist in DISTS {
        for seed in 0..seeds {
            let cfg = HistoryGenConfig::small_adversarial()
                .with_txns(txns)
                .with_key_dist(dist);
            let h = HistoryGen::new(cfg, seed).generate();
            let label = format!("adversarial({txns}) {dist:?} seed {seed}");
            compare(&h, &label, &settings, true, tally);
        }
    }
}

#[test]
fn small_adversarial_histories_agree() {
    let mut tally = Tally::default();
    adversarial(6, 40, &mut tally);
    adversarial(9, 30, &mut tally);
    assert!(tally.satisfied > 0 && tally.violated > 0, "{tally:?}");
    assert!(tally.served > 0, "{tally:?}");
}

#[test]
fn larger_adversarial_histories_agree() {
    let mut tally = Tally::default();
    adversarial(12, 15, &mut tally);
    adversarial(40, 4, &mut tally);
    assert!(tally.satisfied > 0 && tally.violated > 0, "{tally:?}");
    assert!(tally.served > 0, "{tally:?}");
}

#[test]
fn anomaly_catalogue_agrees() {
    let mut tally = Tally::default();
    let settings = settings(true, false);
    for (name, h) in anomalies::catalogue() {
        compare(&h, name, &settings, true, &mut tally);
    }
    assert!(tally.satisfied > 0 && tally.violated > 0, "{tally:?}");
}

/// The `batch-search` shape, where most final-state witnesses change:
/// the exact pass alone reads from writers whose `tryC` follows the read.
#[test]
fn simulated_search_histories_agree() {
    let mut tally = Tally::default();
    let settings = settings(false, true);
    for seed in 0..6 {
        let cfg = HistoryGenConfig::medium_simulated()
            .with_txns(48)
            .with_concurrency(12)
            .with_objs(4)
            .with_key_dist(DISTS[seed as usize % 3]);
        let h = HistoryGen::new(cfg, seed).generate();
        let label = format!("medium_simulated(48) seed {seed}");
        compare(&h, &label, &settings, false, &mut tally);
    }
    assert!(tally.served > 0 && tally.changed > 0, "{tally:?}");
}

/// The `stream-serve` GET shape: prefixes of a 128-transaction stream,
/// every 64 events.
#[test]
fn stream_prefixes_agree() {
    let mut tally = Tally::default();
    let settings = settings(false, true);
    let h = HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(128), 0).generate();
    for end in (1..=h.len() / 64).map(|k| k * 64) {
        let label = format!("medium_simulated(128) seed 0 prefix {end}");
        compare(&h.prefix(end), &label, &settings, end <= 256, &mut tally);
    }
    assert!(tally.satisfied > 0 && tally.served > 0, "{tally:?}");
}

#[test]
fn streaming_traces_agree() {
    let mut tally = Tally::default();
    let settings = settings(false, true);
    for seed in 0..2 {
        let h =
            HistoryGen::new(HistoryGenConfig::large_streaming().with_txns(200), seed).generate();
        let label = format!("large_streaming(200) seed {seed}");
        compare(&h, &label, &settings, true, &mut tally);
    }
    assert!(tally.satisfied > 0, "{tally:?}");
}

/// DU002's registry example: T2 reads T1's write before T1 invokes
/// `tryC`. Final-state opacity holds only through that writer, so the
/// first pass's root is dead, and the exact pass must still find the
/// witness T1 < T2.
#[test]
fn dirty_read_is_served_by_the_exact_pass() {
    let h = duop_history::trace::parse_trace(
        "T1 write X0 1\nT1 ok\nT2 read X0\nT2 val 1\nT2 tryc\nT2 commit\nT1 tryc\nT1 commit\n",
    )
    .expect("the registry example parses");
    let (t1, t2) = (TxnId::new(1), TxnId::new(2));
    for cfg in settings(true, false) {
        for criterion in [PlanCriterion::FinalState, PlanCriterion::Strict] {
            let at = format!("{criterion:?} under {cfg:?}");
            let (got, _) = check_criterion_with_stats(&h, criterion, &cfg);
            let w = got.witness().unwrap_or_else(|| panic!("{at}: {got}"));
            assert_eq!(w.order(), &[t1, t2], "{at}");
            check_witness(&h, w, CriterionKind::FinalStateOpacity).expect("valid witness");
            assert!(!deferred_update_served(&h, w), "{at}");
        }
    }
    let search_only = SearchConfig {
        prelint: false,
        saturate: false,
        threads: Some(1),
        ..SearchConfig::default()
    };
    for criterion in [PlanCriterion::FinalState, PlanCriterion::Strict] {
        // One dead end more than the exact pass alone: the first pass's
        // root. It explores nothing.
        let (_, two_pass) = check_plain_dead_ends(&h, criterion, &search_only);
        let (_, exact) = check_exact_only(&h, criterion, &search_only);
        assert_eq!(two_pass.dead_ends, exact.dead_ends + 1, "{criterion:?}");
        assert_eq!(two_pass.explored, exact.explored, "{criterion:?}");
        let audit = dead_end_audit(&h, criterion, 100).expect("the audit passes");
        assert_eq!(audit.dead_first_roots, 1, "{criterion:?}: {audit:?}");
    }
    // Du-opacity refutes it: no writer of 1 is eligible.
    let (du, _) = check_criterion_with_stats(&h, PlanCriterion::Du, &search_only);
    assert!(du.is_violated(), "{du}");
}

/// `generate --mode simulated --txns 400 --concurrency 3 --objs 32
/// --seed 5`: du-opacity decides it at once, and so now do final-state
/// opacity and strict serializability. The exact pass alone ran past
/// 120 s here; under a budget of 1,000 states on one thread, or 10,000
/// shared by the racing workers of four, it gives up.
#[test]
fn long_simulated_trace_decides_under_a_small_budget() {
    let cfg = HistoryGenConfig::medium_simulated()
        .with_txns(400)
        .with_objs(32)
        .with_concurrency(3);
    let h = HistoryGen::new(cfg, 5).generate();
    assert_eq!(h.len(), 2_669, "the trace `duop generate` prints");
    for (threads, budget) in [(1, 1_000), (4, 10_000)] {
        let cfg = SearchConfig {
            max_states: Some(budget),
            threads: Some(threads),
            ..SearchConfig::default()
        };
        for criterion in [PlanCriterion::FinalState, PlanCriterion::Strict] {
            let at = format!("{criterion:?} on {threads} threads");
            let (got, _) = check_criterion_with_stats(&h, criterion, &cfg);
            let w = got.witness().unwrap_or_else(|| panic!("{at}: {got}"));
            let (target, kind) = witness_target(&h, criterion);
            check_witness(&target, w, kind).expect("valid witness");
            let (reference, _) = check_exact_only(&h, criterion, &cfg);
            assert!(
                matches!(reference, Verdict::Unknown { .. }),
                "{at}: {reference}"
            );
        }
    }
}
