//! Differential suite for the searcher's dead-end rule.
//!
//! A read's value is lost once it is gone from the search state and every
//! writer that could restore it is placed or must follow the reader in
//! the precedence closure. The reference engine
//! ([`check_plain_dead_ends`], [`opacity_plain_dead_ends`]) runs the same
//! pipeline with the plain rule, under which the value is lost only once
//! every writer is placed. The must-follow sets prune only subtrees with
//! no completion and leave the child order alone, so for all five
//! criteria and opacity's prefix loop the two must agree:
//!
//! * the same verdict, down to the witness, with only the `explored`
//!   counts of violations and unknowns free to differ;
//! * on a sequential run, `explored` no larger than the reference's;
//! * under a state budget, a sequential `Unknown` only where the
//!   reference is `Unknown` too, and otherwise the unbudgeted verdict.
//!
//! Settings: 1 and 4 threads, decomposition on and off, the full pipeline
//! and the search alone, and memo off on the small corpora; the larger
//! corpora run decomposed, once sequentially and once on 4 threads.
//! Corpora: adversarial histories of 6, 9, 12 and 40 transactions under
//! three key distributions, the anomaly catalogue, 48-transaction
//! simulated histories at concurrency 12 on 4 objects (the
//! `batch-search` shape), 64-event prefixes of 128-transaction streams
//! (the `stream-serve` shape), and 200-transaction streaming traces.
//! Opacity's prefix loop runs one search per failing prefix, so it is
//! compared on the adversarial corpora, the catalogue, the streaming
//! traces and stream prefixes of up to 256 events.

use duop_core::graph_kernels::{check_plain_dead_ends, opacity_plain_dead_ends};
use duop_core::{
    check_criterion_with_stats, Criterion, Opacity, PlanCriterion, SearchConfig, UnknownReason,
    Verdict, Violation,
};
use duop_gen::{anomalies, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::History;

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

/// State budgets of the budgeted settings: one below the transaction
/// count of the larger corpora, so it starves every satisfiable search
/// there; one most searches of the corpora fit under by either rule; and
/// one that some simulated histories fit under only with the must-follow
/// sets (TMS2's exact pass: final-state opacity's first pass, which
/// decides most of them, prunes by the plain rule under both).
const BUDGETS: [u64; 3] = [40, 500, 2_000];

/// Zeroes the `explored` counts a violation carries.
fn normalize_violation(v: &Violation) -> Violation {
    match v {
        Violation::NoSerialization { criterion, .. } => Violation::NoSerialization {
            criterion: criterion.clone(),
            explored: 0,
        },
        Violation::PrefixNotFinalStateOpaque { prefix_len, cause } => {
            Violation::PrefixNotFinalStateOpaque {
                prefix_len: *prefix_len,
                cause: Box::new(normalize_violation(cause)),
            }
        }
        other => other.clone(),
    }
}

/// The verdict with every `explored` count zeroed.
fn normalize(v: &Verdict) -> Verdict {
    match v {
        Verdict::Violated(violation) => Verdict::Violated(normalize_violation(violation)),
        Verdict::Unknown {
            reason, partial, ..
        } => Verdict::Unknown {
            explored: 0,
            reason: *reason,
            partial: partial.clone(),
        },
        satisfied => satisfied.clone(),
    }
}

/// The `explored` count a verdict prints, if any.
fn printed_explored(v: &Verdict) -> Option<u64> {
    fn of(v: &Violation) -> Option<u64> {
        match v {
            Violation::NoSerialization { explored, .. } => Some(*explored),
            Violation::PrefixNotFinalStateOpaque { cause, .. } => of(cause),
            _ => None,
        }
    }
    match v {
        Verdict::Violated(v) => of(v),
        Verdict::Unknown { explored, .. } => Some(*explored),
        Verdict::Satisfied(_) => None,
    }
}

/// What one corpus exercised.
#[derive(Debug, Default)]
struct Tally {
    satisfied: u64,
    violated: u64,
    /// Sequential states explored, by the change and by the reference.
    explored: u64,
    reference_explored: u64,
    /// Sequential checks where the change explored strictly fewer.
    fewer: u64,
    /// Budgeted checks the reference left `Unknown` and the change
    /// decided.
    decided_under_budget: u64,
}

/// How much of the settings matrix a corpus runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// Every setting, memo off included.
    Small,
    /// 1 and 4 threads, decomposition on and off, the full pipeline and
    /// the search alone.
    Medium,
    /// Decomposed: the search alone on 1 thread, the full pipeline on 4.
    Large,
}

/// The pipeline settings a corpus of `scale` runs under.
fn settings(scale: Scale) -> Vec<SearchConfig> {
    let config = |threads: usize, decompose: bool, full: bool, memo: bool| SearchConfig {
        threads: Some(threads),
        decompose,
        prelint: full,
        saturate: full,
        memo,
        ..SearchConfig::default()
    };
    if scale == Scale::Large {
        return vec![config(1, true, false, true), config(4, true, true, true)];
    }
    let mut out = Vec::new();
    for threads in [1, 4] {
        for decompose in [true, false] {
            out.push(config(threads, decompose, true, true));
            out.push(config(threads, decompose, false, true));
            if scale == Scale::Small && threads == 1 {
                out.push(config(1, decompose, false, false));
            }
        }
    }
    out
}

/// Asserts the change and the reference agree on `h` under every setting
/// (see the module docs).
fn compare(h: &History, label: &str, settings: &[SearchConfig], opacity: bool, tally: &mut Tally) {
    for cfg in settings {
        let sequential = cfg.effective_threads() == 1;
        for criterion in CRITERIA {
            let (got, explored) = check_criterion_with_stats(h, criterion, cfg);
            let (want, stats) = check_plain_dead_ends(h, criterion, cfg);
            let at = format!("{label}: {criterion:?} under {cfg:?}");
            assert_eq!(normalize(&got), normalize(&want), "{at}");
            tally.satisfied += u64::from(got.is_satisfied());
            tally.violated += u64::from(got.is_violated());
            if sequential {
                assert!(
                    explored <= stats.explored,
                    "{at}: {explored} states explored, the reference explored {}",
                    stats.explored
                );
                assert!(printed_explored(&got) <= printed_explored(&want), "{at}");
                tally.explored += explored;
                tally.reference_explored += stats.explored;
                tally.fewer += u64::from(explored < stats.explored);
            }
        }
        if !opacity {
            continue;
        }
        let got = Opacity::with_config(cfg.clone()).check(h);
        let want = opacity_plain_dead_ends(h, cfg);
        let at = format!("{label}: opacity under {cfg:?}");
        assert_eq!(normalize(&got), normalize(&want), "{at}");
        if sequential {
            assert!(printed_explored(&got) <= printed_explored(&want), "{at}");
        }
    }
}

/// Under each state budget, sequential and without the ladder: the
/// change is `Unknown` only where the reference is, a check both decide
/// has the same verdict, and one only the change decides has its
/// unbudgeted verdict.
fn compare_budgeted(h: &History, label: &str, tally: &mut Tally) {
    for budget in BUDGETS {
        let cfg = SearchConfig {
            prelint: false,
            saturate: false,
            ladder: false,
            max_states: Some(budget),
            threads: Some(1),
            ..SearchConfig::default()
        };
        for criterion in CRITERIA {
            let (got, _) = check_criterion_with_stats(h, criterion, &cfg);
            let (want, _) = check_plain_dead_ends(h, criterion, &cfg);
            let at = format!("{label}: {criterion:?} with a budget of {budget} states");
            match (&got, &want) {
                (Verdict::Unknown { reason, .. }, Verdict::Unknown { .. }) => {
                    assert_eq!(*reason, UnknownReason::StateBudget, "{at}");
                }
                (Verdict::Unknown { .. }, _) => {
                    panic!("{at}: the change gives {got} where the reference gives {want}")
                }
                (_, Verdict::Unknown { .. }) => {
                    let unbudgeted = SearchConfig {
                        max_states: None,
                        ..cfg.clone()
                    };
                    let (decided, _) = check_criterion_with_stats(h, criterion, &unbudgeted);
                    assert_eq!(normalize(&got), normalize(&decided), "{at}");
                    tally.decided_under_budget += 1;
                }
                _ => assert_eq!(normalize(&got), normalize(&want), "{at}"),
            }
        }
    }
}

fn adversarial(txns: usize, seeds: u64, tally: &mut Tally) {
    let scale = if txns <= 12 {
        Scale::Small
    } else {
        Scale::Medium
    };
    let settings = settings(scale);
    for dist in DISTS {
        for seed in 0..seeds {
            let cfg = HistoryGenConfig::small_adversarial()
                .with_txns(txns)
                .with_key_dist(dist);
            let h = HistoryGen::new(cfg, seed).generate();
            let label = format!("adversarial({txns}) {dist:?} seed {seed}");
            compare(&h, &label, &settings, true, tally);
            compare_budgeted(&h, &label, tally);
        }
    }
}

#[test]
fn small_adversarial_histories_agree() {
    let mut tally = Tally::default();
    adversarial(6, 40, &mut tally);
    adversarial(9, 30, &mut tally);
    assert!(tally.satisfied > 0 && tally.violated > 0, "{tally:?}");
    assert!(tally.fewer > 0, "{tally:?}");
}

#[test]
fn larger_adversarial_histories_agree() {
    let mut tally = Tally::default();
    adversarial(12, 15, &mut tally);
    adversarial(40, 4, &mut tally);
    assert!(tally.satisfied > 0 && tally.violated > 0, "{tally:?}");
    assert!(tally.fewer > 0, "{tally:?}");
}

#[test]
fn anomaly_catalogue_agrees() {
    let mut tally = Tally::default();
    let settings = settings(Scale::Small);
    for (name, h) in anomalies::catalogue() {
        compare(&h, name, &settings, true, &mut tally);
        compare_budgeted(&h, name, &mut tally);
    }
    assert!(tally.satisfied > 0 && tally.violated > 0, "{tally:?}");
}

/// The `batch-search` shape, where the rule saves the most.
#[test]
fn simulated_search_histories_agree() {
    let mut tally = Tally::default();
    let settings = settings(Scale::Large);
    for seed in 0..6 {
        let cfg = HistoryGenConfig::medium_simulated()
            .with_txns(48)
            .with_concurrency(12)
            .with_objs(4)
            .with_key_dist(DISTS[seed as usize % 3]);
        let h = HistoryGen::new(cfg, seed).generate();
        let label = format!("medium_simulated(48) seed {seed}");
        compare(&h, &label, &settings, false, &mut tally);
        compare_budgeted(&h, &label, &mut tally);
    }
    assert!(tally.satisfied > 0 && tally.fewer > 0, "{tally:?}");
    assert!(tally.explored < tally.reference_explored, "{tally:?}");
    assert!(tally.decided_under_budget > 0, "{tally:?}");
}

/// The `stream-serve` GET shape: prefixes of a 128-transaction stream,
/// every 64 events.
#[test]
fn stream_prefixes_agree() {
    let mut tally = Tally::default();
    let settings = settings(Scale::Large);
    let h = HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(128), 0).generate();
    for end in (1..=h.len() / 64).map(|k| k * 64) {
        let label = format!("medium_simulated(128) seed 0 prefix {end}");
        compare(&h.prefix(end), &label, &settings, end <= 256, &mut tally);
    }
    assert!(tally.satisfied > 0 && tally.fewer > 0, "{tally:?}");
}

#[test]
fn streaming_traces_agree() {
    let mut tally = Tally::default();
    let settings = settings(Scale::Large);
    for seed in 0..2 {
        let h =
            HistoryGen::new(HistoryGenConfig::large_streaming().with_txns(200), seed).generate();
        let label = format!("large_streaming(200) seed {seed}");
        compare(&h, &label, &settings, true, &mut tally);
    }
    assert!(tally.satisfied > 0, "{tally:?}");
}
