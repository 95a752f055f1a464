//! Differential testing: the search engine vs the brute-force enumeration
//! oracle, across thousands of randomly generated histories.

use duop_core::reference::check_by_enumeration;
use duop_core::{
    check_witness, Criterion, CriterionKind, DuOpacity, FinalStateOpacity, ReadCommitOrderOpacity,
    Tms2,
};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};

fn kinds() -> [(CriterionKind, Box<dyn Criterion>); 4] {
    [
        (CriterionKind::DuOpacity, Box::new(DuOpacity::new())),
        (
            CriterionKind::FinalStateOpacity,
            Box::new(FinalStateOpacity::new()),
        ),
        (CriterionKind::Tms2, Box::new(Tms2::new())),
        (
            CriterionKind::ReadCommitOrder,
            Box::new(ReadCommitOrderOpacity::new()),
        ),
    ]
}

#[test]
fn search_matches_enumeration_on_adversarial_histories() {
    let mut satisfied = 0usize;
    let mut violated = 0usize;
    for seed in 0..400 {
        let h = HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate();
        for (kind, checker) in kinds() {
            let fast = checker.check(&h);
            let slow = check_by_enumeration(&h, kind);
            assert_eq!(
                fast.is_satisfied(),
                slow.is_satisfied(),
                "divergence for {kind:?} at seed {seed}:\n{h}\nfast: {fast}\nslow: {slow}"
            );
            if let Some(w) = fast.witness() {
                assert_eq!(
                    check_witness(&h, w, kind),
                    Ok(()),
                    "invalid witness for {kind:?} at seed {seed}"
                );
                satisfied += 1;
            } else {
                violated += 1;
            }
        }
    }
    // The adversarial generator must exercise both outcomes heavily.
    assert!(satisfied > 100, "only {satisfied} satisfied cases");
    assert!(violated > 100, "only {violated} violated cases");
}

/// Six-transaction adversarial histories under skewed key distributions
/// pile several writes of one value onto a hot object, so a read's local
/// (tryC-eligible) writer often differs from its global one. Seeds 303,
/// 6130 and 6417 are du-opaque histories whose every witness needs such a
/// read, so search pruning or saturation that equates the two writer sets
/// refutes them. Every pipeline configuration must agree with enumeration.
#[test]
fn search_matches_enumeration_on_skewed_six_txn_histories() {
    use duop_core::SearchConfig;
    use duop_gen::KeyDist;

    let dists = [
        KeyDist::Zipfian { theta: 1.2 },
        KeyDist::Hotspot {
            hot_fraction: 0.25,
            hot_prob: 0.9,
        },
    ];
    let bare = SearchConfig {
        prelint: false,
        saturate: false,
        decompose: false,
        ..SearchConfig::default()
    };
    let seeds = (0..300).chain([303, 6130, 6417]);
    let mut du_satisfied = 0usize;
    for seed in seeds {
        for dist in dists {
            let cfg = HistoryGenConfig::small_adversarial()
                .with_txns(6)
                .with_key_dist(dist);
            let h = HistoryGen::new(cfg, seed).generate();
            for (kind, checker) in kinds() {
                let fast = checker.check(&h);
                let slow = check_by_enumeration(&h, kind);
                assert_eq!(
                    fast.is_satisfied(),
                    slow.is_satisfied(),
                    "divergence for {kind:?} at seed {seed} ({dist:?}):\n{h}\nfast: {fast}\nslow: {slow}"
                );
            }
            let expected = check_by_enumeration(&h, CriterionKind::DuOpacity).is_satisfied();
            let search_only = DuOpacity::with_config(bare.clone()).check(&h);
            assert_eq!(
                search_only.is_satisfied(),
                expected,
                "bare search diverges at seed {seed} ({dist:?}):\n{h}\n{search_only}"
            );
            du_satisfied += usize::from(expected);
        }
    }
    assert!(du_satisfied > 50, "only {du_satisfied} du-opaque histories");
}

#[test]
fn search_matches_enumeration_on_simulated_histories() {
    for seed in 0..200 {
        let h = HistoryGen::new(HistoryGenConfig::small_simulated(), seed).generate();
        for (kind, checker) in kinds() {
            let fast = checker.check(&h);
            let slow = check_by_enumeration(&h, kind);
            assert_eq!(
                fast.is_satisfied(),
                slow.is_satisfied(),
                "divergence for {kind:?} at seed {seed}:\n{h}"
            );
        }
    }
}

#[test]
fn search_matches_enumeration_with_memo_disabled() {
    use duop_core::SearchConfig;
    for seed in 200..320 {
        let h = HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate();
        let with = DuOpacity::new().check(&h);
        let without = DuOpacity::with_config(SearchConfig {
            memo: false,
            ..SearchConfig::default()
        })
        .check(&h);
        assert_eq!(with.is_satisfied(), without.is_satisfied(), "seed {seed}");
    }
}

#[test]
fn unique_writes_generator_matches_oracle() {
    let cfg = HistoryGenConfig {
        unique_writes: true,
        mode: GenMode::Adversarial,
        ..HistoryGenConfig::small_adversarial()
    };
    for seed in 0..200 {
        let h = HistoryGen::new(cfg.clone(), seed).generate();
        let fast = DuOpacity::new().check(&h);
        let slow = check_by_enumeration(&h, CriterionKind::DuOpacity);
        assert_eq!(
            fast.is_satisfied(),
            slow.is_satisfied(),
            "seed {seed}:\n{h}"
        );
    }
}
