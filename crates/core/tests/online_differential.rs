//! Differential harness for the online monitor's delta validation.
//!
//! The monitor certifies each new prefix by adapting the previous
//! prefix's witness — (1) same order, (2) the event's transaction moved
//! to the end, (3–4) its commit choice set to true or to false — and,
//! while that witness is certified for exactly the previous prefix, it
//! re-checks only the reads the event can affect. The contract: after
//! every push the witness is exactly the first of those four candidates,
//! rebuilt here from the pre-push witness, that the full `check_witness`
//! accepts on the extended history; when none is accepted the prefix goes
//! to the fallback (lint or search). So the witness sequence and the
//! `incremental_hits`/`full_searches` counters are those of re-checking
//! every candidate in full.
//!
//! Corpora: the `stream-serve` benchmark's shape (128-transaction
//! simulated traces), six-transaction adversarial histories under three
//! key distributions, and fault-injected STM engine runs (experiment E16's
//! fault plan, the dirty engine included so violations occur), each with
//! compaction off and at every certified prefix. The adversarial corpus
//! also runs with a starved search budget, so `Unknown` pushes leave
//! stale witnesses behind.

use duop_core::online::OnlineChecker;
use duop_core::{check_witness, CriterionKind, SearchConfig, Verdict, Witness};
use duop_gen::{HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{Event, History};
use duop_stm::engines::{DirtyRead, Dstm, Eager2Pl, NoRec, Pessimistic, Tl2};
use duop_stm::{run_workload_faulted, Engine, FaultPlan, WorkloadConfig};
use std::collections::BTreeMap;

/// The candidate witnesses, in order, adapted from the pre-push witness
/// `prev` for `event` — built literally, one clone each.
fn candidates(prev: Option<&Witness>, event: Event) -> Vec<Witness> {
    let Some(prev) = prev else {
        // First event of the history: the single-transaction witness.
        return vec![Witness::new(vec![event.txn], BTreeMap::new())];
    };
    let mut base = prev.order().to_vec();
    if !base.contains(&event.txn) {
        base.push(event.txn);
    }
    let choices = prev.commit_choices().clone();
    let mut moved = base.clone();
    moved.retain(|t| *t != event.txn);
    moved.push(event.txn);
    let mut out = vec![
        Witness::new(base.clone(), choices.clone()),
        Witness::new(moved, choices.clone()),
    ];
    for decide in [true, false] {
        let mut flipped = choices.clone();
        flipped.insert(event.txn, decide);
        out.push(Witness::new(base.clone(), flipped));
    }
    out
}

/// What a corpus exercised, so each test can show it reached every path.
#[derive(Debug, Default)]
struct Tally {
    /// Pushes certified by each candidate, by index.
    accepted: [usize; 4],
    /// Pushes no candidate certified.
    fallbacks: usize,
    /// Pushes that ended `Unknown`, leaving a stale witness for the next.
    unknown: usize,
    /// Replays that ended violated.
    violated: usize,
    /// Compactions performed.
    compactions: u64,
}

/// Replays `h` through `mon` and checks every push against the
/// candidates `check_witness` accepts.
fn replay(h: &History, mut mon: OnlineChecker, label: &str, tally: &mut Tally) {
    for (i, &ev) in h.events().iter().enumerate() {
        let before = mon.stats();
        let was_violated = mon.violation().is_some();
        let prev = mon.witness().cloned();
        // The history the monitor checks this push against (compaction,
        // if any, runs after the verdict).
        let mut extended = mon.history().clone();
        extended.push_checked(ev).expect("well-formed history");
        let verdict = mon.push(ev).expect("well-formed history");
        let after = mon.stats();
        if was_violated {
            assert!(verdict.is_violated(), "{label}: violation not final at {i}");
            continue;
        }
        let accepted = candidates(prev.as_ref(), ev)
            .into_iter()
            .enumerate()
            .find(|(_, c)| check_witness(&extended, c, CriterionKind::DuOpacity).is_ok());
        let fallbacks =
            |s: duop_core::online::OnlineStats| s.full_searches as u64 + s.lint_refutations;
        match accepted {
            Some((k, c)) => {
                tally.accepted[k] += 1;
                assert_eq!(
                    verdict,
                    Verdict::Satisfied(c),
                    "{label}: wrong witness after event {i} ({ev})"
                );
                assert_eq!(after.incremental_hits, before.incremental_hits + 1);
                assert_eq!(fallbacks(after), fallbacks(before), "{label}: event {i}");
            }
            None => {
                tally.fallbacks += 1;
                tally.unknown += usize::from(matches!(verdict, Verdict::Unknown { .. }));
                assert_eq!(
                    after.incremental_hits, before.incremental_hits,
                    "{label}: event {i} ({ev}) accepted with no candidate valid: {verdict:?}"
                );
                assert_eq!(
                    fallbacks(after),
                    fallbacks(before) + 1,
                    "{label}: event {i}"
                );
                if let Verdict::Satisfied(w) = &verdict {
                    assert_eq!(
                        check_witness(&extended, w, CriterionKind::DuOpacity),
                        Ok(()),
                        "{label}: search witness after event {i}"
                    );
                }
            }
        }
    }
    tally.violated += usize::from(mon.violation().is_some());
    tally.compactions += mon.stats().compactions;
}

/// Replays `h` with compaction off and at every certified prefix.
fn replay_both(h: &History, label: &str, tally: &mut Tally) {
    replay(h, OnlineChecker::new(), label, tally);
    let mut compacting = OnlineChecker::new();
    compacting.set_compact_every(Some(1));
    replay(h, compacting, &format!("{label} compacting"), tally);
}

#[test]
fn stream_serve_shape() {
    let mut tally = Tally::default();
    for seed in 0..8 {
        let h =
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(128), seed).generate();
        let label = format!("medium_simulated().with_txns(128) seed {seed}");
        replay_both(&h, &label, &mut tally);
    }
    assert!(tally.accepted[0] > 0 && tally.accepted[1] > 0, "{tally:?}");
}

#[test]
fn small_adversarial_key_distributions() {
    let dists = [
        KeyDist::Uniform,
        KeyDist::Zipfian { theta: 1.2 },
        KeyDist::Hotspot {
            hot_fraction: 0.25,
            hot_prob: 0.9,
        },
    ];
    let mut tally = Tally::default();
    for dist in dists {
        let cfg = HistoryGenConfig::small_adversarial()
            .with_txns(6)
            .with_key_dist(dist);
        for seed in 0..300 {
            let h = HistoryGen::new(cfg.clone(), seed).generate();
            let label = format!("small_adversarial {dist:?} seed {seed}");
            replay_both(&h, &label, &mut tally);
            // A one-state search budget turns fallbacks into `Unknown`,
            // so the next push re-checks a stale witness in full.
            let starved = OnlineChecker::with_config(SearchConfig {
                max_states: Some(1),
                ladder: false,
                ..SearchConfig::default()
            });
            replay(&h, starved, &format!("{label} starved"), &mut tally);
        }
    }
    // Candidates 3–4 rarely certify what a same-order or moved witness
    // does not (the monitor's unit tests build one that does), but every
    // fallback push rejects them first.
    assert!(tally.accepted[0] > 0 && tally.accepted[1] > 0, "{tally:?}");
    assert!(
        tally.fallbacks > 0 && tally.violated > 0 && tally.compactions > 0 && tally.unknown > 0,
        "{tally:?}"
    );
}

#[test]
fn fault_injected_engine_runs() {
    let plan = FaultPlan::parse("abort=0.08,crash=0.08,delay=0.05,thread-crash=0.3")
        .expect("spec is valid");
    let cfg = |seed| WorkloadConfig {
        threads: 1,
        txns_per_thread: 12,
        ops_per_txn: (1, 4),
        read_ratio: 0.6,
        unique_values: true,
        max_attempts: 3,
        yield_between_ops: false,
        seed,
    };
    type EngineFactory = Box<dyn Fn() -> Box<dyn Engine>>;
    let engines: Vec<(&str, EngineFactory)> = vec![
        ("TL2", Box::new(|| Box::new(Tl2::new(5)))),
        ("NOrec", Box::new(|| Box::new(NoRec::new(5)))),
        ("DSTM", Box::new(|| Box::new(Dstm::new(5)))),
        ("eager 2PL", Box::new(|| Box::new(Eager2Pl::new(5)))),
        ("pessimistic", Box::new(|| Box::new(Pessimistic::new(5)))),
        ("dirty", Box::new(|| Box::new(DirtyRead::new(5)))),
    ];
    let mut tally = Tally::default();
    for (name, make) in &engines {
        for seed in 0..20 {
            let engine = make();
            let (h, _) = run_workload_faulted(engine.as_ref(), &cfg(seed), &plan.with_seed(seed));
            replay_both(&h, &format!("{name} seed {seed}"), &mut tally);
        }
    }
    assert!(tally.violated > 0 && tally.compactions > 0, "{tally:?}");
}
