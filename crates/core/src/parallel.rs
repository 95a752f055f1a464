//! Parallel checking engine: component-parallel and subtree-parallel
//! serialization search plus a batch fan-out over independent histories.
//! `std::thread` only — the workspace builds offline with no extra
//! dependencies.
//!
//! # Component parallelism
//!
//! Both engines borrow the search's one [`Setup`] (the plan's graph, its
//! closure and order, and one deadline); no worker builds a graph.
//!
//! When the plan has several conflict-graph components,
//! [`par_search_components`] searches each independently on the worker
//! pool — components share no objects and no order edges, so no
//! coordination (shared memo, cancellation) is needed at all, and each
//! per-component search is exactly the scoped sequential search the
//! planned sequential engine runs, producing the identical fragment. The
//! composed witness is therefore identical to the sequential one. The only
//! divergence is budget accounting: each component is charged against a
//! fresh `max_states` budget rather than the sequential cumulative count,
//! which can only turn `Unknown` into a definite (still correct) verdict.
//!
//! # Subtree parallelism
//!
//! [`par_search_spec`] runs a plan of one component (or none). It splits
//! the placement tree at the top levels into prefix tasks and runs the
//! ordinary sequential [`Searcher`] on each subtree, with three pieces of
//! shared state:
//!
//! * a **sharded memo** of failed canonical states (mutex-striped; keys
//!   are path-independent, and a state is inserted only after its subtree
//!   was *fully* exhausted, so a hit in any worker is sound for all);
//! * a **global state budget** (`AtomicU64`), so `max_states` bounds the
//!   whole search, not each worker;
//! * a **winner word** for cooperative cancellation: the lowest task index
//!   that found a witness. Only tasks with a *higher* index are cancelled,
//!   which makes the reduction deterministic.
//!
//! Tasks are enumerated in exact sequential-DFS order (the enumerator
//! reuses the searcher's own child ordering, legality and dead-end
//! pruning), so the lowest-indexed task containing a witness is the one
//! sequential DFS would reach first, and within a task DFS finds its
//! DFS-first witness. Memo pruning never hides a witness (memoized states
//! are provably witness-free), so the reported witness is identical to the
//! sequential engine's, and verdicts agree except for which states a
//! tripped budget happened to visit (`Unknown` is "anytime": a witness
//! found by any worker wins over a concurrent budget trip).
//!
//! # Inter-history parallelism
//!
//! [`par_check_batch`] / [`par_map`] spread independent checks over a
//! worker pool with order-preserving collection; used by the experiment
//! runner and the CLI's batch mode.

use crate::fxhash::FxBuildHasher;
use crate::plan::seq_planned;
use crate::search::{
    witness_from_path, Outcome, SearchConfig, SearchStats, Searcher, Setup, UndoLog,
};
use crate::{Criterion, UnknownReason, Verdict, Violation};
use duop_history::History;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Test-only injection point: a worker panics when it claims this subtree
/// task index (`u64::MAX` = disarmed; the hook disarms itself on firing).
/// Exercises the panic-isolation path without a purpose-built criterion.
#[doc(hidden)]
pub static PANIC_ON_TASK: AtomicU64 = AtomicU64::new(u64::MAX);

/// Mutex stripes in the shared memo. Power of two; 64 stripes keep the
/// probability of two workers colliding on a stripe low at ≤ 16 workers.
const MEMO_SHARDS: usize = 64;

/// Target number of subtree tasks per worker. More tasks than workers
/// smooths out skewed subtree sizes (work stealing via the shared claim
/// counter).
const TASKS_PER_THREAD: usize = 4;

/// Maximum split depth: the prefix enumeration itself is sequential and
/// exponential in depth, so it must stay shallow.
const MAX_SPLIT_DEPTH: usize = 8;

/// Failed-state memo striped over [`MEMO_SHARDS`] mutexes, keyed by the
/// same 128-bit compacted state key as the sequential memo.
struct ShardedMemo {
    shards: Vec<Mutex<HashSet<u128, FxBuildHasher>>>,
}

impl ShardedMemo {
    fn new() -> Self {
        ShardedMemo {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashSet::default()))
                .collect(),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<HashSet<u128, FxBuildHasher>> {
        // The key is already a high-quality hash; fold the halves for the
        // stripe index.
        let fold = (key as u64) ^ ((key >> 64) as u64);
        &self.shards[(fold as usize) & (MEMO_SHARDS - 1)]
    }

    fn contains(&self, key: u128) -> bool {
        self.shard(key).lock().unwrap().contains(&key)
    }

    fn insert(&self, key: u128) {
        self.shard(key).lock().unwrap().insert(key);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }
}

/// State shared by all workers of one parallel search.
pub(crate) struct SharedSearch {
    memo: Option<ShardedMemo>,
    /// Global count of expanded states, for the shared budget.
    pub(crate) explored: AtomicU64,
    /// Lowest task index that found a witness (`u64::MAX` = none yet).
    pub(crate) winner: AtomicU64,
    /// Set when a worker's subtree panicked (the panic is contained);
    /// peers poll it and cancel, so the search never hangs on a dead
    /// worker's unexplored subtree.
    pub(crate) panicked: AtomicBool,
    /// Global state budget (copied from [`SearchConfig::max_states`]).
    pub(crate) max_states: Option<u64>,
}

impl SharedSearch {
    fn new(cfg: &SearchConfig) -> Self {
        SharedSearch {
            memo: cfg.memo.then(ShardedMemo::new),
            explored: AtomicU64::new(0),
            winner: AtomicU64::new(u64::MAX),
            panicked: AtomicBool::new(false),
            max_states: cfg.max_states,
        }
    }

    pub(crate) fn memo_contains(&self, key: u128) -> bool {
        self.memo.as_ref().is_some_and(|m| m.contains(key))
    }

    pub(crate) fn memo_insert(&self, key: u128) {
        if let Some(m) = &self.memo {
            m.insert(key);
        }
    }

    fn memo_len(&self) -> usize {
        self.memo.as_ref().map_or(0, ShardedMemo::len)
    }
}

/// Collects every placement prefix of length `remaining` (in DFS order)
/// into `out`, applying the same legality and dead-end pruning as the
/// search proper, from a root the caller has found alive. Prefixes are
/// strictly shorter than the transaction count, so none is a complete
/// serialization. `scratch` recycles one child buffer per recursion
/// depth.
fn enumerate_prefixes(
    s: &mut Searcher<'_>,
    remaining: usize,
    scratch: &mut Vec<Vec<(usize, bool)>>,
    out: &mut Vec<Vec<(usize, bool)>>,
    explored: &mut u64,
    dead_ends: &mut u64,
) {
    *explored += 1;
    let mut children = scratch.pop().unwrap_or_default();
    s.children_into(&mut children);
    for &(i, committed) in &children {
        let undo = s.place(i, committed);
        let dead = s.dead_end_after(i);
        debug_assert_eq!(dead, s.dead_end(), "dead-end check after placing {i}");
        if dead {
            *dead_ends += 1;
            s.unplace(i, undo);
            continue;
        }
        if remaining == 1 {
            out.push(s.path.clone());
        } else {
            enumerate_prefixes(s, remaining - 1, scratch, out, explored, dead_ends);
        }
        s.unplace(i, undo);
    }
    scratch.push(children);
}

fn unwind_prefix(s: &mut Searcher<'_>, prefix: &[(usize, bool)], undos: Vec<UndoLog>) {
    for (&(i, _), undo) in prefix.iter().zip(undos).rev() {
        s.unplace(i, undo);
    }
}

/// Per-component outcome of the component-parallel engine.
enum CompOutcome {
    Found(Vec<(usize, bool)>),
    Exhausted,
    Budget(UnknownReason),
}

/// Fans the planned search out over conflict-graph components: each
/// component runs the same scoped sequential search the planned sequential
/// engine would, so fragments (and the composed witness) are identical to
/// the sequential result. The verdict is reduced in component order,
/// matching the sequential engine's first-failure semantics.
pub(crate) fn par_search_components(setup: &Setup<'_>) -> (Verdict, SearchStats) {
    let components = &setup.plan.components;
    let results = par_map(components, setup.cfg.effective_threads(), |comp| {
        let mut s = Searcher::new(setup);
        s.restrict(comp);
        let outcome = match s.search() {
            Outcome::Found => CompOutcome::Found(s.path.clone()),
            Outcome::Exhausted => CompOutcome::Exhausted,
            Outcome::Budget => CompOutcome::Budget(s.unknown_reason()),
            Outcome::Cancelled => unreachable!("component workers share no cancellation state"),
        };
        (outcome, s.stats())
    });

    let mut stats = SearchStats::default();
    let mut path: Vec<(usize, bool)> = Vec::new();
    let mut failure: Option<CompOutcome> = None;
    let mut decided: u64 = 0;
    for (outcome, comp_stats) in results {
        stats.absorb(&comp_stats);
        match outcome {
            CompOutcome::Found(frag) => {
                decided += 1;
                path.extend(frag);
            }
            other => {
                if failure.is_none() {
                    failure = Some(other);
                }
            }
        }
    }

    let verdict = match failure {
        None => Verdict::Satisfied(witness_from_path(setup.spec, &path)),
        Some(CompOutcome::Exhausted) => Verdict::Violated(Violation::NoSerialization {
            criterion: setup.criterion.display_name().to_owned(),
            explored: stats.explored,
        }),
        Some(CompOutcome::Budget(reason)) => Verdict::Unknown {
            explored: stats.explored,
            reason,
            partial: Some(crate::PartialProgress::components(
                decided,
                components.len() as u64,
            )),
        },
        Some(CompOutcome::Found(_)) => unreachable!("Found is never recorded as a failure"),
    };
    (verdict, stats)
}

/// Multi-threaded subtree search of a plan with at most one component:
/// the task enumerator and every worker borrow `setup`.
pub(crate) fn par_search_spec(setup: &Setup<'_>) -> (Verdict, SearchStats) {
    let cfg = setup.cfg;
    let threads = cfg.effective_threads();
    debug_assert!(threads > 1);
    debug_assert!(setup.plan.components.len() <= 1);

    let mut enumerator = Searcher::new(setup);
    let n = setup.spec.txns.len();
    let max_depth = n.saturating_sub(1).min(MAX_SPLIT_DEPTH);
    if max_depth == 0 {
        // Zero or one transaction: there is no tree to split.
        return seq_planned(setup, None);
    }
    let target = threads * TASKS_PER_THREAD;

    // Under du-opacity the search runs in the two passes of
    // `Searcher::search`; each pass is a complete parallel search and the
    // second runs only when the first finds nothing, so the lowest-indexed
    // winning task is the sequential engine's witness in either pass.
    let passes = setup.passes();
    let mut carried = SearchStats::default();
    for &eligible_global in passes {
        enumerator.eligible_global = eligible_global;
        if enumerator.dead_end() {
            // A dead root: this pass's tree holds no witness, as in
            // `Searcher::search`.
            carried.dead_ends += 1;
            continue;
        }
        let mut tasks: Vec<Vec<(usize, bool)>> = Vec::new();
        let mut scratch: Vec<Vec<(usize, bool)>> = Vec::new();
        let mut enum_explored = 0u64;
        let mut enum_dead_ends = 0u64;
        let mut depth = 1;
        while depth <= max_depth {
            tasks.clear();
            enum_explored = 0;
            enum_dead_ends = 0;
            enumerate_prefixes(
                &mut enumerator,
                depth,
                &mut scratch,
                &mut tasks,
                &mut enum_explored,
                &mut enum_dead_ends,
            );
            if tasks.len() >= target || tasks.is_empty() {
                break;
            }
            depth += 1;
        }

        if tasks.is_empty() {
            // Every prefix dead-ends before the split depth: this pass's tree
            // is exhausted and holds no witness.
            carried.explored += enum_explored;
            carried.dead_ends += enum_dead_ends;
            continue;
        }
        if tasks.len() == 1 || n <= depth {
            // Nothing to parallelize (tiny history or a single viable
            // subtree); the sequential engine is strictly cheaper.
            return seq_planned(setup, None);
        }

        let shared = SharedSearch::new(cfg);
        let next = AtomicUsize::new(0);
        let budget_reason: Mutex<Option<UnknownReason>> = Mutex::new(None);
        // Winning candidates keyed by task index; the reduction takes the
        // lowest, which is the witness sequential DFS finds first.
        let found: Mutex<BTreeMap<u64, Vec<(usize, bool)>>> = Mutex::new(BTreeMap::new());
        let totals: Mutex<SearchStats> = Mutex::new(SearchStats::default());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut s = Searcher::new(setup);
                    s.attach_shared(&shared);
                    s.eligible_global = eligible_global;
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= tasks.len() || shared.panicked.load(Ordering::Relaxed) {
                            break;
                        }
                        if shared.winner.load(Ordering::Relaxed) < t as u64 {
                            // Claims are monotone, so every remaining task is
                            // also higher-indexed than the winner.
                            break;
                        }
                        s.task_index = t as u64;
                        let prefix = &tasks[t];
                        // Contain a panicking subtree (a criterion bug, or the
                        // test hook): the searcher's placement state is
                        // unusable afterwards, so the worker retires and peers
                        // cancel via `shared.panicked`. `true` = keep looping.
                        let task = catch_unwind(AssertUnwindSafe(|| {
                            if PANIC_ON_TASK
                                .compare_exchange(
                                    t as u64,
                                    u64::MAX,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                            {
                                panic!("injected worker panic (test hook)");
                            }
                            let mut undos = Vec::with_capacity(prefix.len());
                            for &(i, committed) in prefix {
                                undos.push(s.place(i, committed));
                            }
                            match s.dfs() {
                                Outcome::Found => {
                                    shared.winner.fetch_min(t as u64, Ordering::Relaxed);
                                    found.lock().unwrap().insert(t as u64, s.path.clone());
                                    // `dfs` does not unwind on Found; this
                                    // searcher's state is spent, and every
                                    // unclaimed task is higher-indexed anyway.
                                    false
                                }
                                Outcome::Budget => {
                                    let reason = s.unknown_reason();
                                    let mut slot = budget_reason.lock().unwrap();
                                    slot.get_or_insert(reason);
                                    drop(slot);
                                    unwind_prefix(&mut s, prefix, undos);
                                    false
                                }
                                Outcome::Exhausted | Outcome::Cancelled => {
                                    unwind_prefix(&mut s, prefix, undos);
                                    true
                                }
                            }
                        }));
                        match task {
                            Ok(true) => {}
                            Ok(false) => break,
                            Err(_) => {
                                shared.panicked.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    let local = SearchStats {
                        explored: s.explored,
                        memo_hits: s.memo_hits,
                        dead_ends: s.dead_ends,
                        ..SearchStats::default()
                    };
                    totals.lock().unwrap().absorb(&local);
                });
            }
        });

        let mut stats = totals.into_inner().unwrap();
        stats.explored += enum_explored;
        stats.dead_ends += enum_dead_ends;
        stats.peak_memo_entries = shared.memo_len() as u64;
        stats.subtree_tasks = tasks.len() as u64;
        stats.absorb(&carried);

        // Reduction precedence: a witness is a definite answer regardless of
        // anything else; otherwise a panicked subtree (unexplored, so "no
        // witness elsewhere" proves nothing) forces Unknown ahead of a budget
        // trip; only a fully explored, witness-free tree is a violation.
        let found = found.into_inner().unwrap();
        let verdict = if let Some((_, path)) = found.into_iter().next() {
            Verdict::Satisfied(witness_from_path(setup.spec, &path))
        } else if shared.panicked.load(Ordering::Relaxed) {
            Verdict::Unknown {
                explored: stats.explored,
                reason: UnknownReason::WorkerPanic,
                partial: Some(crate::PartialProgress::components(0, 1)),
            }
        } else if let Some(reason) = budget_reason.into_inner().unwrap() {
            Verdict::Unknown {
                explored: stats.explored,
                reason,
                partial: Some(crate::PartialProgress::components(0, 1)),
            }
        } else {
            carried = stats;
            continue;
        };
        return (verdict, stats);
    }
    let verdict = Verdict::Violated(Violation::NoSerialization {
        criterion: setup.criterion.display_name().to_owned(),
        explored: carried.explored,
    });
    (verdict, carried)
}

/// Number of hardware threads, for `--threads 0` / default sizing.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of `threads` workers, returning
/// results in input order. Items are claimed dynamically, so uneven item
/// costs balance across the pool. `threads <= 1` runs inline.
///
/// A panicking item cancels the remaining items (peers finish their
/// current item and stop claiming) and the first panic payload is
/// re-raised on the caller's thread once the pool has drained — one
/// deterministic panic instead of a scope-wide abort or a hang.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if cancelled.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                    Ok(r) => *slots[i].lock().unwrap() = Some(r),
                    Err(payload) => {
                        cancelled.store(true, Ordering::Relaxed);
                        let mut slot = panic_payload.lock().unwrap();
                        slot.get_or_insert(payload);
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = panic_payload.into_inner().unwrap() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap()
                .expect("every slot is filled by the worker that claimed it")
        })
        .collect()
}

/// Checks a batch of independent histories against one criterion on
/// `threads` workers, preserving input order. This is the fan-out used by
/// the experiment harness; each individual check runs the (sequential or
/// parallel) engine configured in the criterion itself.
pub fn par_check_batch<C>(criterion: &C, histories: &[History], threads: usize) -> Vec<Verdict>
where
    C: Criterion + Sync + ?Sized,
{
    par_map(histories, threads, |h| criterion.check(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DuOpacity;
    use duop_history::{HistoryBuilder, ObjId, TxnId, Value};

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    fn sample_history(k: u64) -> History {
        HistoryBuilder::new()
            .committed_writer(t(1), x(), v(k))
            .committed_reader(t(2), x(), v(k))
            .build()
    }

    /// Several disjoint clusters on distinct objects, so the planner's
    /// component fan-out engages under threads > 1. The clusters are
    /// interleaved phase-by-phase (all writers open, then all reads, then
    /// all reader commits) so no transaction completes before another
    /// cluster's transactions begin — a completed transaction would add a
    /// real-time edge and merge the components.
    fn clustered_history(clusters: u32) -> History {
        let mut b = HistoryBuilder::new();
        for c in 0..clusters {
            let obj = ObjId::new(c);
            let w = t(c * 2 + 1);
            b = b
                .inv_write(w, obj, v(u64::from(c) + 1))
                .resp_ok(w)
                .inv_try_commit(w);
        }
        for c in 0..clusters {
            let obj = ObjId::new(c);
            let r = t(c * 2 + 2);
            b = b.inv_read(r, obj).resp_value(r, v(u64::from(c) + 1));
        }
        for c in 0..clusters {
            b = b.commit(t(c * 2 + 2));
        }
        b.build()
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(&items, 8, |&i| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_thread_matches() {
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(
            par_map(&items, 1, |&i| i + 1),
            par_map(&items, 4, |&i| i + 1)
        );
    }

    #[test]
    fn par_check_batch_matches_serial() {
        let histories: Vec<History> = (0..20).map(sample_history).collect();
        let c = DuOpacity::new();
        let serial: Vec<bool> = histories
            .iter()
            .map(|h| c.check(h).is_satisfied())
            .collect();
        let par: Vec<bool> = par_check_batch(&c, &histories, 4)
            .into_iter()
            .map(|v| v.is_satisfied())
            .collect();
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_search_small_history_agrees() {
        let h = sample_history(3);
        let seq = DuOpacity::new().check(&h);
        let par = DuOpacity::with_config(SearchConfig {
            threads: Some(4),
            ..SearchConfig::default()
        })
        .check(&h);
        assert_eq!(seq.witness(), par.witness());
    }

    #[test]
    fn component_fanout_matches_sequential_witness() {
        // Clustered history: > 1 component, so threads > 1 exercises
        // par_search_components; the witness must be byte-identical to
        // the sequential planned search.
        let h = clustered_history(4);
        let seq = DuOpacity::new().check(&h);
        let par = DuOpacity::with_config(SearchConfig {
            threads: Some(8),
            ..SearchConfig::default()
        })
        .check(&h);
        assert_eq!(seq.witness(), par.witness());
        assert!(seq.is_satisfied());
    }

    #[test]
    fn component_fanout_finds_violations() {
        // Two components: a satisfiable x-cluster (T1 commit-pending, T2
        // reads through it) and an unsatisfiable y-cluster — a stale read:
        // T4 sees the initial value although T3 committed 5 strictly
        // before T4 began. The x-cluster's transactions start before T3
        // completes, so no cross-cluster real-time edge merges the two.
        let y = ObjId::new(1);
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .resp_ok(t(1))
            .inv_try_commit(t(1))
            .inv_read(t(2), x())
            .committed_writer(t(3), y, v(5))
            .committed_reader(t(4), y, v(0))
            .resp_value(t(2), v(1))
            .commit(t(2))
            .build();
        let seq = DuOpacity::new().check(&h);
        let par = DuOpacity::with_config(SearchConfig {
            threads: Some(8),
            ..SearchConfig::default()
        })
        .check(&h);
        assert!(seq.is_violated());
        assert!(par.is_violated());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
