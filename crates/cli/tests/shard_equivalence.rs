//! Distributed-vs-local verdict equivalence.
//!
//! The sharded pipeline's contract is exactness: for every history and
//! criterion, `run_sharded` must return the same [`Verdict`] as the
//! in-process checker — same witness order, same commit choices, same
//! violation, not merely the same satisfied/violated bit. This suite
//! sweeps criteria × worker counts × pipelines (decomposition on and off,
//! each with lint, saturation or the ladder switched off) on generated
//! histories (du-opaque by construction *and* adversarial), validates
//! every satisfied witness independently with [`check_witness`], and
//! exercises the worker-death re-queue path with the fault-injection
//! hook.

use duop_core::{
    check_criterion_with_stats, check_witness, CriterionKind, PlanCriterion, SearchConfig, Verdict,
};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::History;
use duop_shard::{
    run_sharded, ShardConfig, ShardCriterion, ShardJob, KILL_AFTER_HELLO_ENV, KILL_TASK_ENV,
};
use std::time::Duration;

fn worker_cmd() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_duop").to_owned(),
        "shard-worker".to_owned(),
    ]
}

/// A pool of `workers` running `pipeline`'s stages, as `duop shard`
/// builds it from the same flags `duop check` parses into `pipeline`.
fn shard_config(workers: usize, pipeline: &SearchConfig) -> ShardConfig {
    ShardConfig {
        workers,
        worker_cmd: worker_cmd(),
        search: pipeline.clone(),
        ..ShardConfig::default()
    }
}

/// Whole-history pipelines whose budget is zero: no state to expand,
/// and a deadline already expired. The task frame must carry a zero
/// budget as such, not as "no budget".
fn zero_budgets() -> [SearchConfig; 2] {
    [
        SearchConfig {
            decompose: false,
            max_states: Some(0),
            ..SearchConfig::default()
        },
        SearchConfig {
            decompose: false,
            deadline: Some(Duration::ZERO),
            ..SearchConfig::default()
        },
    ]
}

/// The pipelines the matrix compares, with and without decomposition:
/// lint switched off, then saturation too, so that no earlier stage
/// masks a later one. A decomposed job runs lint and saturation in the
/// coordinator and ships component tasks with both off; a whole-history
/// task carries the pipeline's own switches to the worker. The ladder
/// only acts on an exhausted budget, and budgets bind per task, so it is
/// compared on whole-history tasks under a budget the search trips, and
/// under [`zero_budgets`].
fn pipelines() -> Vec<SearchConfig> {
    let mut out = Vec::new();
    for decompose in [true, false] {
        let all = SearchConfig {
            decompose,
            ..SearchConfig::default()
        };
        let no_lint = SearchConfig {
            prelint: false,
            ..all.clone()
        };
        let no_saturate = SearchConfig {
            saturate: false,
            ..no_lint.clone()
        };
        out.extend([all, no_lint, no_saturate]);
    }
    for ladder in [true, false] {
        out.push(SearchConfig {
            decompose: false,
            prelint: false,
            saturate: false,
            ladder,
            // A satisfiable check expands at least one state per
            // transaction, so a budget below the smallest sample history
            // (20 transactions) trips on every satisfiable check, however
            // strongly the search prunes.
            max_states: Some(15),
            ..SearchConfig::default()
        });
    }
    out.extend(zero_budgets());
    out
}

fn sample_histories() -> Vec<History> {
    let mut histories = Vec::new();
    for seed in [3, 17] {
        let cfg = HistoryGenConfig::medium_simulated().with_txns(30);
        histories.push(HistoryGen::new(cfg, seed).generate());
    }
    for seed in [5, 23] {
        let cfg = HistoryGenConfig {
            txns: 20,
            objs: 4,
            mode: GenMode::Adversarial,
            ..HistoryGenConfig::medium_simulated()
        };
        histories.push(HistoryGen::new(cfg, seed).generate());
    }
    histories
}

fn witness_kind(criterion: PlanCriterion) -> Option<CriterionKind> {
    match criterion {
        PlanCriterion::Du => Some(CriterionKind::DuOpacity),
        PlanCriterion::FinalState => Some(CriterionKind::FinalStateOpacity),
        PlanCriterion::Rco => Some(CriterionKind::ReadCommitOrder),
        _ => None,
    }
}

#[test]
fn distributed_matches_local_across_the_matrix() {
    let histories = sample_histories();
    let criteria = [
        PlanCriterion::Du,
        PlanCriterion::FinalState,
        PlanCriterion::Rco,
    ];

    let mut budget_tripped = 0;
    for criterion in criteria {
        for workers in [1usize, 4] {
            for pipeline in pipelines() {
                let jobs: Vec<ShardJob> = histories
                    .iter()
                    .map(|h| ShardJob {
                        history: h.clone(),
                        criterion: ShardCriterion::Plan(criterion),
                    })
                    .collect();
                let verdicts = run_sharded(jobs, &shard_config(workers, &pipeline))
                    .expect("sharded run completes");
                assert_eq!(verdicts.len(), histories.len());

                for (h, distributed) in histories.iter().zip(&verdicts) {
                    let (local, _) = check_criterion_with_stats(h, criterion, &pipeline);
                    if matches!(local, Verdict::Unknown { .. }) {
                        budget_tripped += 1;
                    }
                    assert_eq!(
                        *distributed,
                        local,
                        "criterion {} workers {workers} pipeline {pipeline:?}: \
                         distributed and local verdicts diverge",
                        criterion.token(),
                    );
                    if let (Verdict::Satisfied(witness), Some(kind)) =
                        (distributed, witness_kind(criterion))
                    {
                        check_witness(h, witness, kind).unwrap_or_else(|e| {
                            panic!(
                                "criterion {} workers {workers}: merged witness invalid: {e}",
                                criterion.token()
                            )
                        });
                    }
                }
            }
        }
    }
    assert!(budget_tripped > 0, "no check exhausted the ladder's budget");
}

#[test]
fn opacity_ships_whole_histories_and_matches() {
    use duop_core::{Criterion, Opacity};
    let mut pipelines = vec![SearchConfig::default()];
    pipelines.extend(zero_budgets());
    for pipeline in pipelines {
        for h in sample_histories() {
            let jobs = vec![ShardJob {
                history: h.clone(),
                criterion: ShardCriterion::Opacity,
            }];
            let verdicts =
                run_sharded(jobs, &shard_config(2, &pipeline)).expect("sharded run completes");
            let local = Opacity::with_config(pipeline.clone()).check(&h);
            assert_eq!(
                verdicts[0], local,
                "opacity diverged on a whole-history job under {pipeline:?}"
            );
        }
    }
}

/// Killing a worker mid-component must cost one re-queue, not the
/// verdict: with the injected death on the first dispatch of task 0,
/// the retry (attempt 1) answers normally and the merged verdict equals
/// the uninterrupted run's.
#[test]
fn worker_death_requeues_and_preserves_the_verdict() {
    let h = HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(30), 3).generate();
    let jobs = |criterion| {
        vec![ShardJob {
            history: h.clone(),
            criterion,
        }]
    };

    let baseline = run_sharded(
        jobs(ShardCriterion::Plan(PlanCriterion::Du)),
        &shard_config(2, &SearchConfig::default()),
    )
    .expect("uninterrupted run completes");

    let mut killer = shard_config(2, &SearchConfig::default());
    killer.worker_env = vec![(KILL_TASK_ENV.to_owned(), "0".to_owned())];
    let survived = run_sharded(jobs(ShardCriterion::Plan(PlanCriterion::Du)), &killer)
        .expect("run survives an injected worker death");

    assert_eq!(
        survived, baseline,
        "verdict changed after a worker was killed mid-component"
    );
    assert!(
        matches!(survived[0], Verdict::Satisfied(_) | Verdict::Violated(_)),
        "the re-queued task must still be decided, not degraded to unknown"
    );
}

/// Workers that die shortly after the handshake, never reading a frame,
/// fail every dispatch: the task dies unread in the pipe (or the write
/// itself breaks). The coordinator must keep the task through both
/// routes — re-queue it, burn the retry budget on the equally doomed
/// respawns, and degrade the verdict to `unknown (worker-death)` —
/// never strand it off the queue and stall. (If a worker loses a timing
/// race and dies before the task even reaches it, `AllWorkersDead` is
/// the documented outcome instead; both prove the task was not
/// silently lost.)
#[test]
fn failed_dispatch_never_strands_a_task() {
    use duop_core::UnknownReason;
    use duop_shard::ShardError;
    let h = HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(30), 3).generate();

    let mut cfg = shard_config(
        1,
        &SearchConfig {
            decompose: false,
            prelint: false, // force a real task: the lint prefilter must not decide it
            ladder: false,
            ..SearchConfig::default()
        },
    );
    cfg.retry = 1;
    cfg.worker_env = vec![(KILL_AFTER_HELLO_ENV.to_owned(), "1".to_owned())];

    match run_sharded(
        vec![ShardJob {
            history: h,
            criterion: ShardCriterion::Plan(PlanCriterion::Du),
        }],
        &cfg,
    ) {
        Ok(verdicts) => match &verdicts[0] {
            Verdict::Unknown {
                reason: UnknownReason::WorkerDeath,
                ..
            } => {}
            other => panic!("expected unknown (worker-death), got {other:?}"),
        },
        Err(ShardError::AllWorkersDead(_)) => {}
        Err(other) => panic!("expected a completed run or all-workers-dead, got {other}"),
    }
}

/// With the retry budget forced to zero, the same injected death must
/// degrade the affected verdict to `unknown (worker-death)` instead of
/// failing the run — the documented fallback.
#[test]
fn exhausted_retry_budget_degrades_to_worker_death() {
    use duop_core::UnknownReason;
    let h = HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(30), 3).generate();

    let mut cfg = shard_config(
        1,
        &SearchConfig {
            decompose: false,
            prelint: false, // force a real search task the hook can kill
            ladder: false,
            ..SearchConfig::default()
        },
    );
    cfg.retry = 0;
    cfg.worker_env = vec![(KILL_TASK_ENV.to_owned(), "0".to_owned())];

    let verdicts = run_sharded(
        vec![ShardJob {
            history: h,
            criterion: ShardCriterion::Plan(PlanCriterion::Du),
        }],
        &cfg,
    )
    .expect("the run itself must survive");
    match &verdicts[0] {
        Verdict::Unknown {
            reason: UnknownReason::WorkerDeath,
            ..
        } => {}
        other => panic!("expected unknown (worker-death), got {other:?}"),
    }
}
