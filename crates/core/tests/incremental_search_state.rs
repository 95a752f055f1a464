//! Debug-build drive of the searcher's incremental state.
//!
//! The searcher keeps its memo key as the XOR of one term per component
//! of its state, which `place` updates and `unplace` restores, and it
//! walks an open-position frontier instead of scanning the fail-first
//! order. In debug builds every expansion checks both against their
//! from-scratch definitions: the key against the XOR over the whole
//! state, the frontier against the scan of the whole order. This suite
//! drives those checks through every engine that places transactions:
//!
//! * the anomaly catalogue, 8-transaction adversarial histories under
//!   three key distributions, 48-transaction simulated histories at
//!   concurrency 12 on 4 objects and two 600-transaction streaming
//!   traces, each through all five criteria on 1 and 2 threads, with
//!   decomposition on and off and the memo on and off, the search alone
//!   (lint and saturation off, so the search decides every query; without
//!   the memo, under a state budget);
//! * the online monitor over one stream of eight disjoint clusters, whose
//!   fallback searches replay cached component fragments through `place`
//!   and `unplace`.
//!
//! Within one decomposition setting, the thread count and the memo must
//! not change the verdict or the witness; across settings, the verdict
//! kind must agree. Only a memo-off check may run out of budget. The
//! cross-check counter must grow by at least the states each sequential
//! check explored.

#![cfg(debug_assertions)]

use duop_core::graph_kernels::search_cross_checks;
use duop_core::online::OnlineChecker;
use duop_core::{check_criterion_with_stats, PlanCriterion, SearchConfig, Verdict, Violation};
use duop_gen::{anomalies, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{History, HistoryBuilder, ObjId, TxnId, Value};

const CRITERIA: [PlanCriterion; 5] = [
    PlanCriterion::FinalState,
    PlanCriterion::Du,
    PlanCriterion::Rco,
    PlanCriterion::Tms2,
    PlanCriterion::Strict,
];

/// The verdict with the `explored` count of a violation zeroed: the memo
/// changes how many states a failing search visits, nothing else.
fn normalize(v: &Verdict) -> Verdict {
    match v {
        Verdict::Violated(Violation::NoSerialization { criterion, .. }) => {
            Verdict::Violated(Violation::NoSerialization {
                criterion: criterion.clone(),
                explored: 0,
            })
        }
        other => other.clone(),
    }
}

/// The state budget of the memo-off settings. Without the memo a search
/// that exhausts (a violated criterion) is exponential in the history's
/// size; the budget bounds it while every state it expands is still
/// cross-checked.
const MEMO_OFF_BUDGET: u64 = 3_000;

/// Checks `h` under every criterion and setting (see the module docs) and
/// returns the states the sequential checks explored.
fn drive(h: &History, label: &str) -> u64 {
    let mut explored = 0;
    for criterion in CRITERIA {
        let mut kind = None;
        for decompose in [true, false] {
            let mut first: Option<Verdict> = None;
            for threads in [1, 2] {
                for memo in [true, false] {
                    let cfg = SearchConfig {
                        threads: Some(threads),
                        decompose,
                        memo,
                        max_states: (!memo).then_some(MEMO_OFF_BUDGET),
                        prelint: false,
                        saturate: false,
                        ladder: false,
                        ..SearchConfig::default()
                    };
                    let at = format!("{label}: {criterion:?} under {cfg:?}");
                    let before = search_cross_checks();
                    let (verdict, states) = check_criterion_with_stats(h, criterion, &cfg);
                    if threads == 1 {
                        let checks = search_cross_checks() - before;
                        assert!(
                            checks >= states,
                            "{at}: {checks} cross-checks, {states} states"
                        );
                        explored += states;
                    }
                    if matches!(verdict, Verdict::Unknown { .. }) {
                        assert!(!memo, "{at}: {verdict:?}");
                        continue;
                    }
                    let verdict = normalize(&verdict);
                    let shape = verdict.is_satisfied();
                    assert_eq!(*kind.get_or_insert(shape), shape, "{at}");
                    assert_eq!(
                        first.get_or_insert_with(|| verdict.clone()),
                        &verdict,
                        "{at}"
                    );
                }
            }
        }
    }
    explored
}

#[test]
fn anomaly_catalogue() {
    let explored: u64 = anomalies::catalogue()
        .iter()
        .map(|(name, h)| drive(h, name))
        .sum();
    assert!(explored > 0);
}

#[test]
fn adversarial_eight_transactions() {
    let dists = [
        KeyDist::Uniform,
        KeyDist::Zipfian { theta: 1.2 },
        KeyDist::Hotspot {
            hot_fraction: 0.25,
            hot_prob: 0.9,
        },
    ];
    let mut explored = 0;
    for dist in dists {
        let cfg = HistoryGenConfig::small_adversarial()
            .with_txns(8)
            .with_key_dist(dist);
        for seed in 0..20 {
            let h = HistoryGen::new(cfg.clone(), seed).generate();
            explored += drive(&h, &format!("adversarial {dist:?} seed {seed}"));
        }
    }
    assert!(explored > 0);
}

#[test]
fn simulated_48_transactions() {
    let mut explored = 0;
    let cfg = HistoryGenConfig::medium_simulated()
        .with_txns(48)
        .with_concurrency(12)
        .with_objs(4);
    for seed in 0..3 {
        let h = HistoryGen::new(cfg.clone(), seed).generate();
        assert_eq!(h.txn_count(), 48);
        explored += drive(&h, &format!("simulated seed {seed}"));
    }
    assert!(explored > 0);
}

#[test]
fn streaming_600_transactions() {
    for seed in 0..2 {
        let h =
            HistoryGen::new(HistoryGenConfig::large_streaming().with_txns(600), seed).generate();
        assert_eq!(h.txn_count(), 600);
        // Every criterion decides a streaming trace by search, one state
        // per placement at least.
        let explored = drive(&h, &format!("streaming seed {seed}"));
        assert!(explored >= 600, "streaming seed {seed}: {explored} states");
    }
}

/// Eight disjoint clusters, each a commit-pending writer and a reader of
/// its value. No witness adaptation certifies a read of a commit-pending
/// write (the writer's fate must flip), so each read response forces a
/// fallback search, and each fallback replays the fragments the earlier
/// ones cached for the clusters it left alone.
fn clustered_stream() -> History {
    let mut b = HistoryBuilder::new();
    let cluster = |k: u32| (TxnId::new(2 * k + 1), TxnId::new(2 * k + 2), ObjId::new(k));
    for k in 0..8 {
        let (writer, _, x) = cluster(k);
        b = b
            .inv_write(writer, x, Value::new(u64::from(k) + 1))
            .resp_ok(writer);
    }
    for k in 0..8 {
        let (writer, _, _) = cluster(k);
        b = b.inv_try_commit(writer);
    }
    for k in 0..8 {
        let (_, reader, x) = cluster(k);
        b = b
            .inv_read(reader, x)
            .resp_value(reader, Value::new(u64::from(k) + 1));
    }
    for k in 0..8 {
        let (_, reader, _) = cluster(k);
        b = b.commit(reader);
    }
    b.build()
}

#[test]
fn online_monitor_replays_cached_fragments() {
    let h = clustered_stream();
    let before = search_cross_checks();
    let mut mon = OnlineChecker::new();
    for &event in h.events() {
        let verdict = mon.push(event).expect("a well-formed stream");
        assert!(verdict.is_satisfied(), "{verdict:?}");
    }
    let stats = mon.stats();
    assert!(stats.full_searches >= 8, "{stats:?}");
    assert!(
        stats.component_reuses > 0,
        "no cached fragment replayed: {stats:?}"
    );
    assert!(
        search_cross_checks() > before,
        "the fallback searches ran no cross-check"
    );
}
