//! Equivalence suite for the prepared query.
//!
//! Each serialization query builds one spec and one set of must-precede
//! facts, and lint's prefilter, saturation, the planner and the search
//! all read them. The prefilter runs only the rules whose `Error`s can
//! refute its scope and picks the least `(primary event, rule)` instead
//! of sorting a full report. This suite keeps the full report as the
//! literal reference: for every scope, `prelint_verdict` must equal the
//! `LintRefuted` verdict built from `lint(h).first_error_for(scope)`,
//! down to the Debug rendering. Strict serializability's projection must
//! equal the literal `Vec::contains` filter, and be `None` exactly when
//! no transaction is never-committed.
//!
//! Corpora: adversarial histories of 6, 9, 12 and 40 transactions under
//! three key distributions, the anomaly catalogue, 48-transaction
//! simulated histories at concurrency 12 on 4 objects, `stream-serve`
//! prefixes every 64 events, streaming traces of 200 transactions at
//! concurrency 6 and of 768, and hand cases for the branches the
//! generators do not reach. The pin of one spec build per query reads a
//! test-only counter, so it is a unit test of the crate
//! (`src/prepared.rs`).

use duop_core::lint::{lint, LintScope};
use duop_core::{prelint_verdict, PlanCriterion, Verdict, Violation};
use duop_gen::{anomalies, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{CommitCapability, History, HistoryBuilder, ObjId, TxnId, Value};
use std::collections::BTreeMap;

/// The criteria whose prefilter covers each scope. Strict serializability
/// shares final-state opacity's scope over its own projection.
const SCOPES: [(PlanCriterion, LintScope); 5] = [
    (PlanCriterion::FinalState, LintScope::Plain),
    (PlanCriterion::Du, LintScope::Du),
    (PlanCriterion::Rco, LintScope::Rco),
    (PlanCriterion::Tms2, LintScope::Tms2),
    (PlanCriterion::Strict, LintScope::Plain),
];

const DISTS: [KeyDist; 3] = [
    KeyDist::Uniform,
    KeyDist::Zipfian { theta: 1.2 },
    KeyDist::Hotspot {
        hot_fraction: 0.25,
        hot_prob: 0.9,
    },
];

/// The prefilter's verdict as the full report defines it.
fn reference(h: &History, criterion: PlanCriterion, scope: LintScope) -> Option<Verdict> {
    lint(h).first_error_for(scope).map(|d| {
        Verdict::Violated(Violation::LintRefuted {
            criterion: criterion.display_name().to_owned(),
            diagnostic: Box::new(d.clone()),
        })
    })
}

/// Which rule refuted how many queries, per scope.
#[derive(Debug, Default)]
struct Tally {
    queries: usize,
    refuted: BTreeMap<(String, &'static str), usize>,
}

impl Tally {
    fn count(&self, scope: &str, rule: &str) -> usize {
        self.refuted
            .iter()
            .filter(|((s, r), _)| s == scope && *r == rule)
            .map(|(_, n)| n)
            .sum()
    }
}

fn assert_prelint_matches(h: &History, label: &str, tally: &mut Tally) {
    for (criterion, scope) in SCOPES {
        let prepared = criterion.prepare(h);
        let hh = prepared.as_ref().unwrap_or(h);
        let got = prelint_verdict(hh, criterion);
        let want = reference(hh, criterion, scope);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{label}: {criterion:?} prefilter differs from the full report"
        );
        tally.queries += 1;
        if let Some(Verdict::Violated(Violation::LintRefuted { diagnostic, .. })) = &got {
            *tally
                .refuted
                .entry((format!("{scope:?}"), diagnostic.rule))
                .or_default() += 1;
        }
    }
}

/// The literal projection: keep every transaction that is not
/// never-committed, found by `Vec::contains`.
fn literal_projection(h: &History) -> History {
    let committed: Vec<TxnId> = h
        .txns()
        .filter(|t| t.commit_capability() != CommitCapability::NeverCommitted)
        .map(|t| t.id())
        .collect();
    h.filter_txns(|id| committed.contains(&id))
}

fn assert_projection_matches(h: &History, label: &str) -> bool {
    let never = h
        .txns()
        .any(|t| t.commit_capability() == CommitCapability::NeverCommitted);
    let prepared = PlanCriterion::Strict.prepare(h);
    assert_eq!(
        prepared.is_some(),
        never,
        "{label}: Some iff never-committed"
    );
    let projected = prepared.as_ref().unwrap_or(h);
    assert_eq!(
        projected.events(),
        literal_projection(h).events(),
        "{label}"
    );
    // A projection re-prepares to itself.
    assert!(
        PlanCriterion::Strict.prepare(projected).is_none(),
        "{label}"
    );
    for criterion in [
        PlanCriterion::FinalState,
        PlanCriterion::Du,
        PlanCriterion::Rco,
        PlanCriterion::Tms2,
    ] {
        assert!(criterion.prepare(h).is_none(), "{label}: {criterion:?}");
    }
    never
}

fn check(h: &History, label: &str, tally: &mut Tally) -> bool {
    assert_prelint_matches(h, label, tally);
    assert_projection_matches(h, label)
}

#[test]
fn adversarial_histories_match() {
    let mut tally = Tally::default();
    let mut projected = 0;
    for dist in DISTS {
        for (txns, seeds) in [(6, 200), (9, 120), (12, 80), (40, 30)] {
            for seed in 0..seeds {
                let cfg = HistoryGenConfig::small_adversarial()
                    .with_txns(txns)
                    .with_key_dist(dist);
                let h = HistoryGen::new(cfg, seed).generate();
                let label = format!("adversarial({txns}) {dist:?} seed {seed}");
                projected += usize::from(check(&h, &label, &mut tally));
            }
        }
    }
    // The corpus reaches every scope-specific refutation, and histories
    // both with and without a never-committed transaction. (AN005 never
    // decides: see `tied_an005_pairs_lose_to_their_cycle`.)
    for (scope, rule) in [
        ("Plain", "CY004"),
        ("Plain", "RF003"),
        ("Du", "DU002"),
        ("Du", "CY004"),
        ("Rco", "RCO006"),
        ("Rco", "CY004"),
        ("Tms2", "CY004"),
    ] {
        assert!(tally.count(scope, rule) > 0, "{scope} {rule}: {tally:?}");
    }
    assert!(projected > 0 && projected < tally.queries / SCOPES.len());
}

#[test]
fn anomaly_catalogue_matches() {
    let mut tally = Tally::default();
    for (name, h) in anomalies::catalogue() {
        check(&h, name, &mut tally);
    }
    assert!(!tally.refuted.is_empty(), "{tally:?}");
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
        check(&h, &format!("medium_simulated(48) seed {seed}"), &mut tally);
    }
    assert_eq!(tally.queries, 30 * SCOPES.len());
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
            check(&prefix, &label, &mut tally);
        }
    }
    assert!(tally.queries > 0);
}

#[test]
fn streaming_traces_match() {
    let mut tally = Tally::default();
    for seed in 0..2 {
        let cfg = HistoryGenConfig::large_streaming()
            .with_txns(200)
            .with_concurrency(6);
        let h = HistoryGen::new(cfg, seed).generate();
        check(&h, &format!("large_streaming(200) seed {seed}"), &mut tally);
    }
    let h = HistoryGen::new(HistoryGenConfig::large_streaming().with_txns(768), 0).generate();
    check(&h, "large_streaming(768) seed 0", &mut tally);
}

fn t(k: u32) -> TxnId {
    TxnId::new(k)
}
fn obj(k: u32) -> ObjId {
    ObjId::new(k)
}
fn v(n: u64) -> Value {
    Value::new(n)
}

/// The rule and applicability the prefilter reports for `criterion`.
fn refutation(h: &History, criterion: PlanCriterion) -> Option<(&'static str, String)> {
    match prelint_verdict(h, criterion)? {
        Verdict::Violated(Violation::LintRefuted { diagnostic, .. }) => {
            Some((diagnostic.rule, diagnostic.applicability.to_string()))
        }
        other => panic!("prefilter returned {other:?}"),
    }
}

/// A read after the transaction's own write returns another value: no
/// spec exists, so only WF001 runs, and it refutes every scope. No
/// generator produces this shape.
#[test]
fn internal_read_inconsistency_is_wf001_for_every_scope() {
    let h = HistoryBuilder::new()
        .committed_writer(t(2), obj(1), v(1))
        .write(t(1), obj(0), v(3))
        .read(t(1), obj(0), v(4))
        .commit(t(1))
        .build();
    let mut tally = Tally::default();
    check(&h, "internal read inconsistency", &mut tally);
    for (criterion, _) in SCOPES {
        assert_eq!(
            refutation(&h, criterion),
            Some(("WF001", "all-criteria".to_owned())),
            "{criterion:?}"
        );
    }
}

/// The prefilter orders by primary event before rule id: an RF003 at an
/// earlier event beats CY004 and AN005 (smaller rule ids) at later
/// ones. Two different rules never anchor on the same event — CY004
/// anchors on a transaction's first invocation, every other rule on the
/// response of a distinct read — so only one rule's emissions can tie
/// on `(event, rule)`; the next case has such a tie.
#[test]
fn least_event_wins_across_rules() {
    let (x, y, z) = (obj(0), obj(1), obj(2));
    let h = HistoryBuilder::new()
        // T3 reads a value nobody writes: RF003 at its read's response.
        .committed_reader(t(3), z, v(9))
        // Write skew between T1 and T2: AN005, later in the history.
        .inv_read(t(1), x)
        .inv_read(t(2), y)
        .resp_value(t(1), v(0))
        .resp_value(t(2), v(0))
        .inv_write(t(1), y, v(1))
        .inv_write(t(2), x, v(2))
        .resp_ok(t(1))
        .resp_ok(t(2))
        .inv_try_commit(t(1))
        .inv_try_commit(t(2))
        .resp_committed(t(1))
        .resp_committed(t(2))
        .build();
    let mut tally = Tally::default();
    check(&h, "RF003 before AN005", &mut tally);
    let report = lint(&h);
    let rules: Vec<&str> = report
        .diagnostics()
        .iter()
        .map(|d| d.rule)
        .filter(|r| *r == "RF003" || *r == "AN005")
        .collect();
    assert!(
        rules.contains(&"RF003") && rules.contains(&"AN005"),
        "{rules:?}"
    );
    assert_eq!(
        refutation(&h, PlanCriterion::FinalState).map(|r| r.0),
        Some("RF003")
    );
}

/// Two AN005 write-skew pairs share one read, so both Errors carry the
/// same primary event and rule. Every AN005 pair also closes a cycle in
/// CY004's base graph, whose first member starts before the pair's read
/// responds, so CY004 decides: among a scope's refuting Errors only
/// AN005's can tie, and they never come first. The lint unit tests pin
/// the tie rule itself on synthetic reports.
#[test]
fn tied_an005_pairs_lose_to_their_cycle() {
    let (x, y, z) = (obj(0), obj(1), obj(2));
    let h = HistoryBuilder::new()
        .inv_read(t(1), x)
        .inv_read(t(2), y)
        .inv_read(t(3), z)
        .resp_value(t(1), v(0))
        .resp_value(t(2), v(0))
        .resp_value(t(3), v(0))
        // T2 and T3 both overwrite X, which T1 read; T1 overwrites the
        // objects T2 and T3 read.
        .inv_write(t(1), y, v(1))
        .resp_ok(t(1))
        .inv_write(t(1), z, v(1))
        .resp_ok(t(1))
        .inv_write(t(2), x, v(2))
        .resp_ok(t(2))
        .inv_write(t(3), x, v(3))
        .resp_ok(t(3))
        .inv_try_commit(t(1))
        .inv_try_commit(t(2))
        .inv_try_commit(t(3))
        .resp_committed(t(1))
        .resp_committed(t(2))
        .resp_committed(t(3))
        .build();
    let report = lint(&h);
    let an005: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.rule == "AN005")
        .collect();
    assert!(an005.len() >= 2, "{an005:?}");
    assert_eq!(an005[0].primary.event, an005[1].primary.event);
    assert_ne!(an005[0].message, an005[1].message);
    let mut tally = Tally::default();
    check(&h, "tied AN005 pairs", &mut tally);
    let cy004 = report
        .diagnostics()
        .iter()
        .find(|d| d.rule == "CY004")
        .expect("the base graph is cyclic");
    assert!(cy004.primary.event < an005[0].primary.event);
    for (criterion, _) in SCOPES {
        assert_eq!(
            refutation(&h, criterion),
            Some(("CY004", "all-criteria".to_owned())),
            "{criterion:?}"
        );
    }
}

/// A CY004 cycle that only the read-commit-order graph has: T1's read of
/// the initial Z puts T1 before T2, which overwrites Z; T2's read of X
/// responds before T1, a committed writer of X, invokes `tryC`. RCO006
/// stays silent (T2's forced supplier T3 committed before the read), so
/// CY004 is the rco scope's refutation and no other scope has one.
#[test]
fn rco_only_cycle() {
    let (x, z) = (obj(0), obj(2));
    let h = HistoryBuilder::new()
        .committed_writer(t(3), x, v(5))
        .read(t(2), x, v(5))
        .read(t(1), z, v(0))
        .write(t(1), x, v(1))
        .write(t(2), z, v(1))
        .commit(t(1))
        .commit(t(2))
        .build();
    let mut tally = Tally::default();
    check(&h, "rco-only cycle", &mut tally);
    assert_eq!(
        refutation(&h, PlanCriterion::Rco),
        Some(("CY004", "read-commit-order-only".to_owned()))
    );
    for criterion in [
        PlanCriterion::FinalState,
        PlanCriterion::Du,
        PlanCriterion::Tms2,
    ] {
        assert_eq!(refutation(&h, criterion), None, "{criterion:?}");
    }
}

/// A CY004 cycle that only the TMS2 graph has: T2 read the initial X, so
/// T2 precedes T1, a committed writer of X; but T1's `tryC` responded
/// before T2 invoked its own, so TMS2 orders T1 before T2.
#[test]
fn tms2_only_cycle() {
    let x = obj(0);
    let h = HistoryBuilder::new()
        .read(t(2), x, v(0))
        .write(t(1), x, v(1))
        .commit(t(1))
        .commit(t(2))
        .build();
    let mut tally = Tally::default();
    check(&h, "tms2-only cycle", &mut tally);
    assert_eq!(
        refutation(&h, PlanCriterion::Tms2),
        Some(("CY004", "tms2-only".to_owned()))
    );
    for criterion in [
        PlanCriterion::FinalState,
        PlanCriterion::Du,
        PlanCriterion::Rco,
    ] {
        assert_eq!(refutation(&h, criterion), None, "{criterion:?}");
    }
}

/// Strict's projection keeps exactly the transactions that can commit.
#[test]
fn strict_projection_drops_only_never_committed() {
    let (x, y) = (obj(0), obj(1));
    let h = HistoryBuilder::new()
        .committed_writer(t(1), x, v(1))
        .write(t(2), y, v(2))
        .commit_aborted(t(2))
        .read(t(3), x, v(1))
        .inv_try_commit(t(3))
        .build();
    assert!(assert_projection_matches(&h, "one aborted"));
    let projected = PlanCriterion::Strict.prepare(&h).expect("T2 never commits");
    let ids: Vec<TxnId> = projected.txn_ids().collect();
    assert_eq!(ids, vec![t(1), t(3)]);

    let clean = HistoryBuilder::new()
        .committed_writer(t(1), x, v(1))
        .committed_reader(t(2), x, v(1))
        .build();
    assert!(!assert_projection_matches(&clean, "all committed"));
}
