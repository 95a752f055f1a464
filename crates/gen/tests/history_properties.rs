//! Property tests of the history model's algebraic laws, over generated
//! histories.

use duop_gen::{arb_history, HistoryGenConfig};
use duop_history::trace::{format_trace, from_json, parse_trace, to_json};
use duop_history::{CommitCapability, History};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Text and JSON trace round-trips are the identity.
    #[test]
    fn trace_roundtrips(h in arb_history(HistoryGenConfig::medium_simulated())) {
        prop_assert_eq!(&parse_trace(&format_trace(&h)).unwrap(), &h);
        prop_assert_eq!(&from_json(&to_json(&h)).unwrap(), &h);
    }

    /// Prefixes are monotone and consistent: `H^i` is a prefix of `H^j`
    /// for `i ≤ j`, and `H^len = H`.
    #[test]
    fn prefixes_are_monotone(h in arb_history(HistoryGenConfig::small_adversarial())) {
        prop_assert_eq!(&h.prefix(h.len()), &h);
        for i in 0..=h.len() {
            let p = h.prefix(i);
            prop_assert_eq!(p.events(), &h.events()[..i]);
            // txns(H^i) ⊆ txns(H).
            for id in p.txn_ids() {
                prop_assert!(h.participates(id));
            }
        }
    }

    /// Equivalence is reflexive and invariant under transaction-projection
    /// reassembly: a history is equivalent to itself filtered to all
    /// transactions.
    #[test]
    fn equivalence_laws(h in arb_history(HistoryGenConfig::small_adversarial())) {
        prop_assert!(h.equivalent(&h));
        let everyone = h.filter_txns(|_| true);
        prop_assert!(h.equivalent(&everyone));
    }

    /// Every materialized completion is a completion (Definition 2), is
    /// t-complete, and preserves the per-transaction prefix.
    #[test]
    fn completions_are_completions(h in arb_history(HistoryGenConfig::small_adversarial())) {
        for c in h.completions() {
            prop_assert!(c.is_t_complete());
            prop_assert!(c.is_completion_of(&h));
        }
        // The number of completions is 2^pending.
        let pending = h.commit_pending_txns().len();
        prop_assert_eq!(h.completions().count(), 1usize << pending);
    }

    /// Real-time order is a strict partial order: irreflexive, asymmetric
    /// and transitive.
    #[test]
    fn real_time_order_is_a_strict_partial_order(h in arb_history(HistoryGenConfig::small_adversarial())) {
        let ids: Vec<_> = h.txn_ids().collect();
        for &a in &ids {
            prop_assert!(!h.precedes_rt(a, a), "irreflexive");
            for &b in &ids {
                if h.precedes_rt(a, b) {
                    prop_assert!(!h.precedes_rt(b, a), "asymmetric");
                }
                for &c in &ids {
                    if h.precedes_rt(a, b) && h.precedes_rt(b, c) {
                        prop_assert!(h.precedes_rt(a, c), "transitive");
                    }
                }
            }
        }
    }

    /// Live sets are symmetric: `a ∈ Lset(b)` iff `b ∈ Lset(a)`, and every
    /// transaction is in its own live set.
    #[test]
    fn live_sets_are_symmetric(h in arb_history(HistoryGenConfig::small_adversarial())) {
        let ids: Vec<_> = h.txn_ids().collect();
        for &a in &ids {
            prop_assert!(h.live_set(a).contains(&a));
            for &b in &ids {
                prop_assert_eq!(
                    h.live_set(a).contains(&b),
                    h.live_set(b).contains(&a),
                    "live-set symmetry between {} and {}", a, b
                );
            }
        }
    }

    /// `TxnView::events` and `History::events_of`, which walk a
    /// transaction's own operation records, yield exactly the filtered
    /// event log `H|k` — on every prefix, so pending operations and
    /// commit-pending transactions are covered — and nothing for a
    /// transaction that does not participate.
    #[test]
    fn per_transaction_events_match_filtered_log(
        h in arb_history(HistoryGenConfig::small_adversarial().with_txns(8))
    ) {
        for i in 0..=h.len() {
            let p = h.prefix(i);
            for t in p.txns() {
                let filtered: Vec<_> = p.events().iter().filter(|e| e.txn == t.id()).collect();
                prop_assert_eq!(t.events().collect::<Vec<_>>(), filtered.clone());
                prop_assert_eq!(p.events_of(t.id()).collect::<Vec<_>>(), filtered);
            }
            prop_assert_eq!(p.events_of(duop_history::TxnId::new(999)).count(), 0);
        }
    }

    /// Commit capabilities exactly partition the terminal behaviours the
    /// completions realize.
    #[test]
    fn capabilities_match_completions(h in arb_history(HistoryGenConfig::small_adversarial())) {
        for txn in h.txns() {
            let id = txn.id();
            let can_commit = h.completions().any(|c| c.txn(id).unwrap().is_committed());
            let can_abort = h.completions().any(|c| c.txn(id).unwrap().is_aborted());
            match txn.commit_capability() {
                CommitCapability::Committed => {
                    prop_assert!(can_commit && !can_abort);
                }
                CommitCapability::NeverCommitted => {
                    prop_assert!(!can_commit && can_abort);
                }
                CommitCapability::CommitPending => {
                    prop_assert!(can_commit && can_abort);
                }
            }
        }
    }
}

/// A regression guard on the generator contract: repeated reads never
/// occur, which `History::new` would reject.
#[test]
fn generator_respects_single_read_per_object() {
    use duop_gen::{GenMode, HistoryGen};
    for seed in 0..100 {
        for mode in [
            GenMode::Simulated,
            GenMode::ValueValidated,
            GenMode::Adversarial,
        ] {
            let cfg = HistoryGenConfig {
                mode,
                ..HistoryGenConfig::medium_simulated()
            };
            let h = HistoryGen::new(cfg, seed).generate();
            // Constructing a History already validates; touch it to be
            // explicit.
            assert!(History::new(h.events().to_vec()).is_ok());
        }
    }
}
