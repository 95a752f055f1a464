//! Property-based tests of the paper's theorems over randomly generated
//! histories.

use duop_core::lemmas::{live_set_reorder, restrict_witness};
use duop_core::online::OnlineChecker;
use duop_core::unique::{check_unique_writes_fast, has_unique_writes};
use duop_core::{
    check_witness, Criterion, CriterionKind, DuOpacity, Opacity, StrictSerializability,
};
use duop_gen::{arb_history, GenMode, HistoryGen, HistoryGenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The simulated-mode generator drives a deferred-update TM, so its
    /// histories must be du-opaque (and therefore opaque — Theorem 10).
    #[test]
    fn simulated_histories_are_du_opaque(h in arb_history(HistoryGenConfig::medium_simulated())) {
        let verdict = DuOpacity::new().check(&h);
        prop_assert!(verdict.is_satisfied(), "history:\n{h}\nverdict: {verdict}");
        let w = verdict.witness().unwrap();
        prop_assert_eq!(check_witness(&h, w, CriterionKind::DuOpacity), Ok(()));
    }

    /// Corollary 2 (prefix-closure): every prefix of a du-opaque history is
    /// du-opaque, and Lemma 1's witness restriction certifies it directly.
    #[test]
    fn du_opacity_is_prefix_closed(h in arb_history(HistoryGenConfig::small_simulated())) {
        let verdict = DuOpacity::new().check(&h);
        prop_assume!(verdict.is_satisfied());
        let w = verdict.witness().unwrap();
        for i in 0..=h.len() {
            let prefix = h.prefix(i);
            // Direct check.
            prop_assert!(
                DuOpacity::new().check(&prefix).is_satisfied(),
                "prefix {i} of du-opaque history not du-opaque:\n{h}"
            );
            // Lemma 1 construction.
            let restricted = restrict_witness(&h, w, i);
            prop_assert_eq!(
                check_witness(&prefix, &restricted, CriterionKind::DuOpacity),
                Ok(()),
                "Lemma 1 witness fails at prefix {}", i
            );
        }
    }

    /// Theorem 10 (one direction): du-opaque implies opaque.
    #[test]
    fn du_opaque_implies_opaque(h in arb_history(HistoryGenConfig::small_adversarial())) {
        if DuOpacity::new().check(&h).is_satisfied() {
            prop_assert!(Opacity::new().check(&h).is_satisfied(), "history:\n{h}");
        }
    }

    /// Opaque implies strictly serializable (committed projection).
    #[test]
    fn opaque_implies_strictly_serializable(h in arb_history(HistoryGenConfig::small_adversarial())) {
        if Opacity::new().check(&h).is_satisfied() {
            prop_assert!(
                StrictSerializability::new().check(&h).is_satisfied(),
                "history:\n{h}"
            );
        }
    }

    /// Theorem 11: under unique writes, opacity and du-opacity coincide.
    #[test]
    fn theorem_11_unique_writes_equivalence(seed in any::<u64>()) {
        let cfg = HistoryGenConfig {
            unique_writes: true,
            mode: GenMode::Adversarial,
            ..HistoryGenConfig::small_adversarial()
        };
        let h = HistoryGen::new(cfg, seed).generate();
        prop_assume!(has_unique_writes(&h));
        let opaque = Opacity::new().check(&h).is_satisfied();
        let du = DuOpacity::new().check(&h).is_satisfied();
        prop_assert_eq!(opaque, du, "Theorem 11 violated on:\n{}", h);
    }

    /// The unique-writes fast path agrees with the general search.
    #[test]
    fn fast_path_agrees_with_search(seed in any::<u64>()) {
        let cfg = HistoryGenConfig {
            unique_writes: true,
            mode: GenMode::Adversarial,
            ..HistoryGenConfig::small_adversarial()
        };
        let h = HistoryGen::new(cfg, seed).generate();
        prop_assume!(has_unique_writes(&h));
        let (fast, _) = check_unique_writes_fast(&h);
        let general = DuOpacity::new().check(&h);
        prop_assert_eq!(fast.is_satisfied(), general.is_satisfied(), "history:\n{}", h);
        if let Some(w) = fast.witness() {
            prop_assert_eq!(check_witness(&h, w, CriterionKind::DuOpacity), Ok(()));
        }
    }

    /// Lemma 4: on complete histories, the live-set reorder of a witness is
    /// still a witness and respects `≺LS`.
    #[test]
    fn lemma_4_reorder_preserves_witness(seed in any::<u64>()) {
        let cfg = HistoryGenConfig {
            stall_prob: 0.0,
            ..HistoryGenConfig::small_simulated()
        };
        let h = HistoryGen::new(cfg, seed).generate();
        prop_assume!(h.is_complete());
        let verdict = DuOpacity::new().check(&h);
        prop_assume!(verdict.is_satisfied());
        let w = verdict.witness().unwrap();
        let reordered = live_set_reorder(&h, w);
        prop_assert_eq!(
            check_witness(&h, &reordered, CriterionKind::DuOpacity),
            Ok(()),
            "reordered witness invalid for:\n{}", h
        );
        let ids: Vec<_> = h.txn_ids().collect();
        for &a in &ids {
            for &b in &ids {
                if a != b && h.precedes_ls(a, b) {
                    prop_assert!(
                        reordered.position(a).unwrap() < reordered.position(b).unwrap(),
                        "≺LS violated: {} before {} in:\n{}", a, b, h
                    );
                }
            }
        }
    }

    /// The online monitor agrees with the batch checker on every prefix,
    /// and every witness it reports certifies the prefix it was pushed
    /// for.
    #[test]
    fn online_matches_batch(h in arb_history(HistoryGenConfig::small_adversarial())) {
        let mut mon = OnlineChecker::new();
        for (i, ev) in h.events().iter().enumerate() {
            let online = mon.push(*ev).expect("prefix well-formed");
            let batch = DuOpacity::new().check(&h.prefix(i + 1));
            prop_assert_eq!(
                online.is_satisfied(),
                batch.is_satisfied(),
                "divergence at prefix {} of:\n{}", i + 1, h
            );
            if let Some(w) = online.witness() {
                prop_assert_eq!(
                    check_witness(mon.history(), w, CriterionKind::DuOpacity),
                    Ok(()),
                    "witness rejected at prefix {} of:\n{}", i + 1, h
                );
            }
        }
    }

    /// Mutating a read value in a correct history is always detected by
    /// legality-sensitive criteria whenever the oracle detects it.
    #[test]
    fn corrupted_reads_verdicts_stay_differential(seed in any::<u64>()) {
        use rand::SeedableRng;
        let h = HistoryGen::new(HistoryGenConfig::small_simulated(), seed).generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xDEAD);
        if let Some(m) = duop_gen::mutate::corrupt_read_value(&h, &mut rng) {
            let fast = DuOpacity::new().check(&m);
            let slow = duop_core::reference::check_by_enumeration(&m, CriterionKind::DuOpacity);
            prop_assert_eq!(fast.is_satisfied(), slow.is_satisfied(), "mutant:\n{}", m);
        }
    }
}

#[test]
fn medium_histories_check_quickly() {
    // Smoke-scale guard: STM-trace-sized simulated histories decide fast.
    use std::time::Instant;
    let start = Instant::now();
    for seed in 0..20 {
        let h = HistoryGen::new(
            HistoryGenConfig::medium_simulated()
                .with_txns(60)
                .with_concurrency(6),
            seed,
        )
        .generate();
        assert!(DuOpacity::new().check(&h).is_satisfied(), "seed {seed}");
    }
    assert!(
        start.elapsed().as_secs() < 30,
        "checker too slow: {:?}",
        start.elapsed()
    );
}

/// A NOrec-style TM with *value-based* validation admits ABA: an object
/// rewritten to the value a transaction previously read still validates.
/// The resulting histories are always opaque, but the ABA pattern makes
/// some of them non-du-opaque — a live instance of the Theorem 10
/// separation arising from a realistic implementation.
#[test]
fn value_validated_tm_is_opaque_but_not_always_du_opaque() {
    let cfg = HistoryGenConfig {
        txns: 30,
        objs: 2,
        ops_per_txn: (1, 3),
        read_ratio: 0.5,
        concurrency: 5,
        commit_prob: 0.95,
        stall_prob: 0.0,
        drop_prob: 0.0,
        unique_writes: false,
        barrier_every: 0,
        mode: GenMode::ValueValidated,
        key_dist: duop_gen::KeyDist::Uniform,
    };
    let mut du_violations = 0usize;
    for seed in 0..40 {
        let h = HistoryGen::new(cfg.clone(), seed).generate();
        assert!(
            Opacity::new().check(&h).is_satisfied(),
            "value-validated history not opaque at seed {seed}:\n{h}"
        );
        if DuOpacity::new().check(&h).is_violated() {
            du_violations += 1;
        }
    }
    assert!(
        du_violations > 0,
        "expected at least one ABA-induced du-opacity violation in 40 runs"
    );
}

/// Mutation differential: flipping a commit to an abort, or delaying a
/// tryC to the end of the history, produces histories on which the search
/// engine still agrees with the brute-force oracle.
#[test]
fn mutation_differential_flip_and_delay() {
    use duop_core::reference::check_by_enumeration;
    use rand::SeedableRng;
    let mut checked = 0;
    for seed in 0..120u64 {
        let h = HistoryGen::new(HistoryGenConfig::small_simulated(), seed).generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        for mutant in [
            duop_gen::mutate::flip_commit_to_abort(&h, &mut rng),
            duop_gen::mutate::delay_try_commit(&h, &mut rng),
        ]
        .into_iter()
        .flatten()
        {
            let fast = DuOpacity::new().check(&mutant);
            let slow = check_by_enumeration(&mutant, CriterionKind::DuOpacity);
            assert_eq!(
                fast.is_satisfied(),
                slow.is_satisfied(),
                "mutation divergence on:\n{mutant}"
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} mutants exercised");
}

/// Delaying a tryC specifically attacks the deferred-update condition:
/// measure that it flips some du-opaque histories to violated while the
/// checker never diverges from the oracle (covered above). This pins the
/// Theorem 10 separation as a *reachable* mutation.
#[test]
fn delayed_try_commit_can_break_du_only() {
    use duop_core::{FinalStateOpacity, Opacity};
    use rand::SeedableRng;
    let mut du_broken = 0;
    let mut fso_kept = 0;
    for seed in 0..200u64 {
        let h = HistoryGen::new(HistoryGenConfig::small_simulated(), seed).generate();
        if !DuOpacity::new().check(&h).is_satisfied() {
            continue;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let Some(mutant) = duop_gen::mutate::delay_try_commit(&h, &mut rng) else {
            continue;
        };
        if DuOpacity::new().check(&mutant).is_violated() {
            du_broken += 1;
            if FinalStateOpacity::new().check(&mutant).is_satisfied() {
                fso_kept += 1;
                // An opaque-but-not-du mutant is a fresh Theorem 10
                // separation witness; sanity-check opacity too.
                let _ = Opacity::new().check(&mutant);
            }
        }
    }
    assert!(
        du_broken > 0,
        "delaying tryC should break du-opacity sometimes"
    );
    assert!(
        fso_kept > 0,
        "some mutants should stay final-state opaque (the Theorem 10 gap)"
    );
}
