//! End-to-end validation: real multi-threaded STM executions checked
//! against the paper's criteria (the Section 5 claim that du-opacity
//! captures the histories of practical deferred-update TMs).

use duop_core::{check_witness, Criterion, CriterionKind, DuOpacity, FinalStateOpacity};
use duop_stm::engines::{DirtyRead, Eager2Pl, NoRec, Tl2};
use duop_stm::{run_workload, Engine, WorkloadConfig};

fn config(seed: u64, unique: bool) -> WorkloadConfig {
    WorkloadConfig {
        threads: 4,
        txns_per_thread: 10,
        ops_per_txn: (1, 4),
        read_ratio: 0.6,
        unique_values: unique,
        max_attempts: 3,
        yield_between_ops: false,
        seed,
    }
}

#[test]
fn tl2_histories_are_du_opaque() {
    for seed in 0..10 {
        let engine = Tl2::new(6);
        let (h, stats) = run_workload(&engine, &config(seed, true));
        assert!(stats.committed > 0);
        let verdict = DuOpacity::new().check(&h);
        assert!(
            verdict.is_satisfied(),
            "TL2 produced a non-du-opaque history at seed {seed}: {verdict}\n{h}"
        );
        let w = verdict.witness().unwrap();
        assert_eq!(check_witness(&h, w, CriterionKind::DuOpacity), Ok(()));
    }
}

#[test]
fn tl2_histories_with_small_value_domain_are_du_opaque() {
    // Version-based validation has no ABA hole, so TL2 stays du-opaque
    // even when values collide.
    for seed in 0..10 {
        let engine = Tl2::new(3);
        let (h, _) = run_workload(&engine, &config(seed, false));
        assert!(
            DuOpacity::new().check(&h).is_satisfied(),
            "TL2 non-du-opaque at seed {seed}:\n{h}"
        );
    }
}

#[test]
fn norec_histories_with_unique_values_are_du_opaque() {
    // Unique values rule out ABA, closing NOrec's value-validation hole.
    for seed in 0..10 {
        let engine = NoRec::new(6);
        let (h, _) = run_workload(&engine, &config(seed, true));
        assert!(
            DuOpacity::new().check(&h).is_satisfied(),
            "NOrec non-du-opaque at seed {seed}:\n{h}"
        );
    }
}

#[test]
fn norec_histories_are_final_state_opaque_even_with_aba() {
    // With a colliding value domain NOrec may lose du-opacity to ABA, but
    // final-state opacity must survive.
    for seed in 0..10 {
        let engine = NoRec::new(3);
        let (h, _) = run_workload(&engine, &config(seed, false));
        assert!(
            FinalStateOpacity::new().check(&h).is_satisfied(),
            "NOrec non-final-state-opaque at seed {seed}:\n{h}"
        );
    }
}

#[test]
fn eager_2pl_histories_are_du_opaque() {
    for seed in 0..10 {
        let engine = Eager2Pl::new(6);
        let (h, _) = run_workload(&engine, &config(seed, false));
        assert!(
            DuOpacity::new().check(&h).is_satisfied(),
            "eager 2PL non-du-opaque at seed {seed}:\n{h}"
        );
    }
}

#[test]
fn dirty_read_engine_violates_du_opacity() {
    // The negative control: with write-heavy contention the dirty engine
    // must eventually produce a rejected history. The interleaving is
    // timing-dependent, so hunt across seeds with yields widening the
    // race windows and stop at the first catch.
    let mut caught = false;
    for seed in 0..200 {
        let engine = DirtyRead::new(1);
        let cfg = WorkloadConfig {
            threads: 8,
            txns_per_thread: 16,
            ops_per_txn: (3, 6),
            read_ratio: 0.5,
            unique_values: true,
            max_attempts: 1,
            yield_between_ops: true,
            seed,
        };
        let (h, _) = run_workload(&engine, &cfg);
        if DuOpacity::new().check(&h).is_violated() {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "dirty-read engine produced no du-opacity violation in 200 contended runs"
    );
}

#[test]
fn engine_names_and_sizes() {
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(Tl2::new(5)),
        Box::new(NoRec::new(5)),
        Box::new(Eager2Pl::new(5)),
        Box::new(DirtyRead::new(5)),
    ];
    let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
    assert_eq!(names, vec!["TL2", "NOrec", "eager 2PL", "dirty-read"]);
    for e in &engines {
        assert_eq!(e.objects(), 5);
    }
}

#[test]
fn dstm_histories_are_du_opaque() {
    use duop_stm::engines::Dstm;
    for seed in 0..10 {
        let engine = Dstm::new(6);
        let (h, stats) = run_workload(&engine, &config(seed, true));
        assert!(stats.committed > 0);
        assert!(
            DuOpacity::new().check(&h).is_satisfied(),
            "DSTM non-du-opaque at seed {seed}:\n{h}"
        );
    }
}

#[test]
fn dstm_histories_with_small_value_domain_are_du_opaque() {
    // Stamp-based (identity) validation has no ABA hole.
    use duop_stm::engines::Dstm;
    for seed in 0..10 {
        let engine = Dstm::new(3);
        let (h, _) = run_workload(&engine, &config(seed, false));
        assert!(
            DuOpacity::new().check(&h).is_satisfied(),
            "DSTM non-du-opaque at seed {seed}:\n{h}"
        );
    }
}

#[test]
fn pessimistic_engine_never_aborts_but_violates_du_opacity() {
    // Section 5 of the paper: the pessimistic (no-abort, in-place) STM is
    // not du-opaque. Hunt contended interleavings until the checker
    // catches one.
    use duop_stm::engines::Pessimistic;
    let mut caught = false;
    let mut total_aborts = 0;
    for seed in 0..200 {
        let engine = Pessimistic::new(2);
        let cfg = WorkloadConfig {
            threads: 8,
            txns_per_thread: 12,
            ops_per_txn: (2, 5),
            read_ratio: 0.5,
            unique_values: true,
            max_attempts: 1,
            yield_between_ops: true,
            seed,
        };
        let (h, stats) = run_workload(&engine, &cfg);
        total_aborts += stats.aborted;
        if DuOpacity::new().check(&h).is_violated() {
            caught = true;
            break;
        }
    }
    assert_eq!(total_aborts, 0, "the pessimistic engine never aborts");
    assert!(
        caught,
        "pessimistic engine produced no du-opacity violation in 200 contended runs"
    );
}

#[test]
fn corrupted_stm_traces_are_rejected() {
    // Take a certified-safe TL2 trace, make one read return a value no
    // transaction writes, and confirm the checker catches the tampering —
    // the monitoring use-case.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let engine = Tl2::new(6);
    let (h, _) = run_workload(&engine, &config(5, true));
    assert!(DuOpacity::new().check(&h).is_satisfied());
    let mut rng = StdRng::seed_from_u64(99);
    let mut rejected = 0;
    let mut mutated = 0;
    for _ in 0..20 {
        if let Some(m) = duop_gen::mutate::orphan_read_value(&h, &mut rng) {
            mutated += 1;
            if DuOpacity::new().check(&m).is_violated() {
                rejected += 1;
            }
        }
    }
    assert!(mutated > 0);
    // An orphaned read has no possible writer: every mutation must be
    // caught.
    assert_eq!(rejected, mutated, "all orphaned reads must be rejected");
}
