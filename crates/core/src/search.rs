//! The backtracking serialization search shared by every criterion.
//!
//! A query is one of five serialization criteria ([`PlanCriterion`]):
//! the criterion is the whole query, and every stage reads what it needs
//! of it from the query's [`Prepared`] facts. The search explores total
//! orders of the history's transactions that extend the real-time order
//! (plus the criterion's precedence edges), choosing a commit/abort fate
//! for every commit-pending transaction, and checking each transaction's
//! external reads at its placement:
//!
//! * **global legality** — the read's value must be the last value written
//!   to the object by a committed transaction placed so far (or the initial
//!   value);
//! * **local legality** (du-opacity only, Definition 3(3)) — the last such
//!   value *among transactions whose `tryC` was invoked before the read's
//!   response in `H`* must also match (`T_0` always qualifies, supplying
//!   the initial value).
//!
//! TMS2's commit-order edges constrain the order unconditionally.
//! Read-commit-order's are **commit-conditional** `(a, b)`: `a` must
//! precede `b` in any serialization that *commits* `b`, since the
//! criterion only binds writers the chosen completion actually commits;
//! for a commit-pending `b` they gate the commit fate instead of
//! constraining the order ([`crate::plan::build_constraints`]).
//!
//! Before any backtracking, the [`crate::plan`] module preprocesses the
//! query (conflict-graph decomposition into independent components,
//! candidate-writer analysis with forced precedence edges) and builds its
//! precedence graph, once. A [`Setup`] then computes what every searcher
//! of the search shares — the must-follow closure, the fail-first order
//! and the resolved [`Budget`] — and each [`Searcher`] borrows it. With
//! [`SearchConfig::decompose`] off, the monolithic ablation, the plan is
//! one component without forced edges, run by the same drivers.
//!
//! Failed states are memoized by a sound canonical key: the set of placed
//! transactions plus exactly the state the future can observe (per-object
//! last committed value for objects still read by unplaced transactions,
//! and per-pending-read last *eligible* committed value). Two states with
//! equal keys admit exactly the same completions — the commit-fate gate
//! depends only on the placed set, which is part of the key — so pruning
//! is lossless up to the 128-bit key hash: keys are stored hash-compacted
//! (fixed-width, allocation-free probes), making the memo *probabilistically*
//! sound with collision probability below 2⁻⁸⁰ for any feasible search.
//! The key is the XOR of one independent 128-bit term per component of
//! that state — a placed transaction, an observed object value, an
//! unplaced read's eligible value (none for the initial value) — so
//! [`Searcher::place`] updates it for exactly the components it changes
//! and [`Searcher::unplace`] restores it from the undo log: reading the
//! key costs nothing per state.
//!
//! Children are expanded **fail-first**: transactions with the most
//! not-yet-placed successors in the precedence closure are tried earliest,
//! so an infeasible branch is discovered near the root instead of after
//! permuting the unconstrained remainder. The searcher walks an
//! **open-position frontier**, a bit set over positions of the fail-first
//! order holding the in-scope transactions still unplaced; walking it in
//! increasing position visits the candidates in the same order as
//! scanning the whole order would, without stepping over placed ones.
//!
//! **Dead ends** are cut as soon as they appear. A state is dead when some
//! unplaced read can no longer be served: its value is gone from the state
//! and every writer that could restore it is placed already or must follow
//! the reader. The must-follow set of a transaction is its descendant set
//! in the precedence closure (real time, criterion edges, the planner's
//! forced edges); the search places a transaction only after all its
//! predecessors, so no such writer can come before the reader. A root can
//! be dead as well — a read whose every writer must follow it — so each
//! search pass checks its root before descending.
//!
//! Du-opacity, final-state opacity and strict serializability search in
//! **two passes** ([`Setup::passes`]). The first cuts a read as soon as
//! its value is gone and no *eligible* writer of it — one whose `tryC`
//! was invoked before the read responded (Definition 3(3)) — is left to
//! restore it, so it never cuts a serialization whose reads all take
//! their value from eligible writers. Only if it exhausts does the exact
//! second pass run. Either pass's witness is valid, so the verdict is
//! exact (DESIGN.md §6, "Two search passes").
//!
//! When [`SearchConfig::threads`] asks for more than one worker the search
//! is delegated to [`crate::parallel`], which fans out over conflict-graph
//! components when there are several and otherwise splits the placement
//! tree into subtree tasks running this same `Searcher` with shared state
//! (a sharded memo, a global budget counter, and a cooperative-cancellation
//! word). The sequential and parallel engines return equivalent verdicts
//! and identical witnesses; see `DESIGN.md`.

use crate::bitset::BitSet;
use crate::fxhash::{FxBuildHasher, Hash128};
use crate::parallel::SharedSearch;
use crate::plan::{ComponentCache, Plan, PlanCriterion};
use crate::prepared::Prepared;
use crate::spec::Spec;
use crate::{UnknownReason, Verdict, Witness};
use duop_history::{CommitCapability, TxnId, Value};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Tuning knobs for the serialization search.
///
/// The defaults (memoization on, unlimited budget, sequential, planner on)
/// decide every history in this repository quickly; `max_states` exists
/// because the membership problem is NP-hard in general and a caller may
/// prefer [`Verdict::Unknown`] to an unbounded search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchConfig {
    /// Memoize failed search states (default `true`). Disabling is only
    /// useful for the ablation benchmarks.
    pub memo: bool,
    /// Give up (returning [`Verdict::Unknown`]) after exploring this many
    /// states. `None` means unlimited. With multiple threads this is a
    /// *global* budget shared by all workers.
    pub max_states: Option<u64>,
    /// Worker threads for the parallel engine. `None`, `Some(0)` and
    /// `Some(1)` all mean sequential.
    pub threads: Option<usize>,
    /// Decompose the query before backtracking (default `true`): search
    /// conflict-graph components one at a time, and add the forced
    /// precedence edges of singleton candidate writer sets. `false` is
    /// the `--no-decompose` ablation: the planner still checks candidate
    /// writers and builds the precedence graph, but its plan is one
    /// component holding every transaction, with no forced edges.
    pub decompose: bool,
    /// Run the polynomial lint prefilter ([`crate::lint`]) before the
    /// search and return an immediate
    /// [`Violation::LintRefuted`](crate::Violation) when an
    /// `Error`-severity rule refutes the criterion (default `true`).
    /// Verdict-equivalent by the lint soundness contract; `false` is the
    /// `--no-prelint` ablation.
    pub prelint: bool,
    /// Run the must-precede saturation pass ([`crate::saturate`]) after
    /// lint and before the planner, returning an immediate certified
    /// refutation ([`Violation::Certified`](crate::Violation)) or a
    /// validated witness when the fixpoint decides the query outright
    /// (default `true`). Sound by construction — refutations carry a
    /// certificate the independent validator re-derives and positive
    /// decisions are re-checked by [`crate::check_witness`]; `false` is
    /// the `--no-saturate` ablation.
    pub saturate: bool,
    /// Wall-clock deadline for one check. The clock starts when the search
    /// does, once: every component, worker and pass of the search races
    /// the same instant. Expiry returns [`Verdict::Unknown`] with
    /// [`UnknownReason::Deadline`]. Checked cooperatively (roughly every
    /// thousand expansions), so overruns are bounded by a handful of node
    /// expansions. `None` means no deadline.
    pub deadline: Option<Duration>,
    /// On budget exhaustion, fall back through the sound degradation
    /// ladder (lint refutation, the Theorem 11 unique-writes fast path
    /// where applicable) before settling for [`Verdict::Unknown`], and
    /// attach a [`crate::PartialProgress`] payload to any remaining
    /// `Unknown` (default `true`). `false` is the `--no-ladder` ablation;
    /// the ladder only ever turns `Unknown` into a sound decision, never
    /// the other way, so ablating it cannot flip a decided verdict.
    pub ladder: bool,
    /// Poll the process-wide interrupt flag
    /// ([`crate::snapshot::request_interrupt`]) in the deadline sampling
    /// slot and stop cooperatively with [`UnknownReason::Interrupted`]
    /// (default `false`; the CLI opts in so SIGINT/SIGTERM flush a final
    /// checkpoint instead of killing the process mid-line).
    pub interruptible: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            memo: true,
            max_states: None,
            threads: None,
            decompose: true,
            prelint: true,
            saturate: true,
            deadline: None,
            ladder: true,
            interruptible: false,
        }
    }
}

impl SearchConfig {
    /// The effective worker count (`1` = sequential).
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or(1).max(1)
    }
}

/// Resource limits of one search run, resolved from a [`SearchConfig`]
/// once, when the search starts ([`Setup::new`]): the relative
/// [`SearchConfig::deadline`] becomes an absolute instant, so every
/// component task, parallel worker and pass of the search races the same
/// clock.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum states to expand (`None` = unlimited).
    pub max_states: Option<u64>,
    /// Absolute wall-clock cutoff (`None` = no deadline).
    pub deadline: Option<Instant>,
}

impl Budget {
    /// Resolves the config's limits against the current wall clock.
    pub fn resolve(cfg: &SearchConfig) -> Budget {
        Budget {
            max_states: cfg.max_states,
            deadline: cfg.deadline.map(|d| Instant::now() + d),
        }
    }

    /// Whether the wall clock has passed the deadline.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Quantitative account of one serialization search, for the ablation
/// experiments and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search states expanded.
    pub explored: u64,
    /// Branches cut by the failed-state memo.
    pub memo_hits: u64,
    /// Branches cut by forward feasibility (dead-end) pruning.
    pub dead_ends: u64,
    /// Peak entries in the failed-state memo. The planner clears the memo
    /// between components (entries cannot hit across components), so the
    /// peak rather than the final size is reported.
    pub peak_memo_entries: u64,
    /// Subtree tasks created by the parallel engine (`0` = sequential).
    pub subtree_tasks: u64,
}

impl SearchStats {
    /// Accumulates another search's counters (used when a criterion runs
    /// several searches, e.g. opacity's prefix loop, and by the parallel
    /// engine's per-worker reduction).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.explored += other.explored;
        self.memo_hits += other.memo_hits;
        self.dead_ends += other.dead_ends;
        self.peak_memo_entries = self.peak_memo_entries.max(other.peak_memo_entries);
        self.subtree_tasks += other.subtree_tasks;
    }
}

/// Memo-key term kinds: a placed transaction, an object's last
/// committed value while a read of it is pending, and (du mode) an
/// unplaced read's last eligible value.
const PLACED: u64 = 0;
const GLOBAL: u64 = 1;
const LOCAL: u64 = 2;

/// One component of the memo key: a full-avalanche 128-bit hash of
/// `(kind, index, value)`, the kind packed into the index's low bits. The
/// key is the XOR of the terms of every component of a state, so two
/// distinct states differ by the XOR of a non-empty set of distinct
/// terms.
fn key_term(kind: u64, index: usize, value: u64) -> u128 {
    let mut h = Hash128::new();
    h.write((index as u64) << 2 | kind);
    h.write(value);
    h.finish()
}

/// The term of a value component (kind [`GLOBAL`] or [`LOCAL`]): none
/// for the initial value. Which value components a state has is a
/// function of its placed set, which the key holds, so a component at
/// the initial value needs no term to tell it apart, and the key of the
/// root — nothing placed, every value initial — is 0.
fn value_term(kind: u64, index: usize, value: Value) -> u128 {
    if value == Value::INITIAL {
        0
    } else {
        key_term(kind, index, value.get())
    }
}

/// Cross-checks [`Searcher::cross_check`] has run in this process, for
/// the test that proves the debug checks are exercised.
#[cfg(debug_assertions)]
pub(crate) static CROSS_CHECKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// What every searcher of one search borrows: the plan's precedence graph
/// and the query's facts, with the must-follow closure, the fail-first
/// order and the resolved [`Budget`] computed from them once, when the
/// search starts. The sequential driver's searcher, each component task
/// and each parallel worker of every pass share one `Setup`, so none of
/// them rebuilds the graph or restarts the clock.
pub(crate) struct Setup<'a> {
    pub(crate) spec: &'a Spec,
    pub(crate) cfg: &'a SearchConfig,
    /// The criterion searched for; du-opacity enforces Definition 3(3)'s
    /// local serializations.
    pub(crate) criterion: PlanCriterion,
    pub(crate) plan: &'a Plan,
    suppliers: &'a [BitSet],
    elig: &'a [BitSet],
    writers: &'a [BitSet],
    /// Must-follow sets: `desc[i]` holds every transaction that must come
    /// after `i`, the closure of the plan's `preds`.
    desc: Vec<BitSet>,
    /// Fail-first candidate order over *all* transactions.
    order: Vec<usize>,
    /// Position of each transaction in `order`.
    rank: Vec<usize>,
    budget: Budget,
    /// The test-only exact-only reference
    /// ([`Prepared::with_exact_only`]): every criterion searches in one
    /// exact pass.
    exact_only: bool,
}

impl<'a> Setup<'a> {
    /// Sets up the search of `plan`, the plan of `criterion` over `p`.
    pub(crate) fn new(
        p: &'a Prepared<'_>,
        cfg: &'a SearchConfig,
        criterion: PlanCriterion,
        plan: &'a Plan,
    ) -> Self {
        let spec = p.indexed();
        // Reachability closure of the precedence edges, for fail-first
        // ordering and dead-end checks: desc[i] = transactions that must
        // come after i.
        let mut desc = descendants(&plan.preds, &plan.topo);

        // Most-constrained first: a transaction with many forced
        // successors prunes hardest when it fails, and unblocks the most
        // candidates when it succeeds. Ties fall back to the history-order
        // priority the sequential engine always used, then the index, so
        // the order (and hence every witness) stays deterministic.
        // Each closure's size is counted once, into the buffer that then
        // becomes each transaction's position in the order.
        let mut rank: Vec<usize> = desc.iter().map(BitSet::count_ones).collect();
        let mut order: Vec<usize> = (0..spec.txns.len()).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(rank[i]), spec.txns[i].priority, i));
        for (pos, &i) in order.iter().enumerate() {
            rank[i] = pos;
        }
        if p.plain_dead_ends() {
            // The test-only reference rule: no writer is known to follow
            // its reader.
            desc.iter_mut().for_each(BitSet::clear);
        }

        let du = criterion == PlanCriterion::Du;
        let (elig, writers) = if du {
            (p.eligibility(), p.suppliers(false))
        } else {
            (&[][..], &[][..])
        };
        Setup {
            spec,
            cfg,
            criterion,
            plan,
            suppliers: p.suppliers(du),
            elig,
            writers,
            desc,
            order,
            rank,
            budget: Budget::resolve(cfg),
            exact_only: p.exact_only(),
        }
    }

    /// Whether the search enforces du-opacity's local serializations.
    pub(crate) fn du(&self) -> bool {
        self.criterion == PlanCriterion::Du
    }

    /// The `eligible_global` setting of each pass of the search, in
    /// order ([`Searcher::search`]): the eligible-writers pass and then
    /// the exact pass for du-opacity and the final-state family
    /// (final-state opacity and strict serializability), one exact pass
    /// for read-commit-order opacity and TMS2, whose states per query a
    /// first pass raises.
    pub(crate) fn passes(&self) -> &'static [bool] {
        match self.criterion {
            _ if self.exact_only => &[false],
            PlanCriterion::Du | PlanCriterion::FinalState | PlanCriterion::Strict => &[true, false],
            PlanCriterion::Rco | PlanCriterion::Tms2 => &[false],
        }
    }
}

pub(crate) struct Searcher<'a> {
    spec: &'a Spec,
    cfg: &'a SearchConfig,
    du: bool,
    preds: &'a [BitSet],
    /// Conditional predecessors: placing `i` with the *commit* fate
    /// requires `commit_preds[i] ⊆ placed`. Empty sets for transactions
    /// without incoming commit-conditional edges.
    commit_preds: &'a [BitSet],
    /// Eligible writers per read slot (du mode): transactions whose
    /// `tryC` invocation precedes the read's response in `H`.
    elig: &'a [BitSet],
    /// Committable writers that could still supply each read slot's value
    /// (du mode: restricted to eligible writers). Used for forward
    /// feasibility pruning: once a slot's value is gone from the state and
    /// every candidate writer is placed or in the reader's `desc`, no
    /// extension can serve the read.
    suppliers: &'a [BitSet],
    /// Du mode only: every committable writer of each read slot's value,
    /// eligible or not — the writers that could restore the *global*
    /// value, until each is placed or in the reader's `desc`. Outside du
    /// mode this equals `suppliers` and is left empty.
    writers: &'a [BitSet],
    /// Must-follow sets: `desc[i]` holds every transaction that must come
    /// after `i`, the closure of `preds`. A transaction is placed only
    /// after all its predecessors, so no member of `desc[i]` is ever placed
    /// before `i`, and none can supply a value `i` reads.
    pub(crate) desc: &'a [BitSet],
    /// Prune as if only eligible writers could restore a read's global
    /// value — the first pass of [`Self::search`], which never cuts a
    /// witness whose global writers are all eligible.
    pub(crate) eligible_global: bool,
    /// The `eligible_global` setting of each pass ([`Setup::passes`]).
    passes: &'static [bool],
    /// Fail-first candidate order over *all* transactions: most successors
    /// in the precedence closure first, `priority` then index as
    /// tie-breakers (deterministic).
    order: &'a [usize],
    /// Position of each transaction in `order`.
    rank: &'a [usize],
    /// The transactions the current search covers (all of them by
    /// default; one conflict-graph component under the planner).
    scope: BitSet,
    /// `dfs` succeeds when `placed_count` reaches this (scope members may
    /// sit on top of already-placed earlier components).
    scope_target: usize,
    /// The open-position frontier: the positions in `order` of the scope's
    /// unplaced transactions. `dfs` walks it in increasing position — the
    /// order of scanning `order` and skipping the placed and the
    /// out-of-scope — and `place`/`unplace` keep it.
    open: BitSet,

    placed: BitSet,
    placed_count: usize,
    /// The memo key of the current state (see module docs): the XOR of
    /// one [`key_term`] per placed transaction and one [`value_term`] per
    /// object with a pending read and, in du mode, per unplaced read
    /// slot, maintained by `place` and restored by `unplace`.
    key: u128,
    /// Last committed value per interned object.
    global_last: Vec<Value>,
    /// Last eligible committed value per read slot (du mode).
    local_last: Vec<Value>,
    /// Unplaced external-read count per object (for memo canonicalization).
    pending_reads: Vec<usize>,
    /// Placement path: (txn index, committed).
    pub(crate) path: Vec<(usize, bool)>,

    /// Failed states, hash-compacted to fixed width (see module docs).
    memo: HashSet<u128, FxBuildHasher>,
    /// High-water mark across per-component memo clears.
    memo_peak: usize,
    /// Spent undo logs recycled across `place` calls so the hot loop does
    /// not allocate two `Vec`s per node.
    undo_pool: Vec<UndoLog>,
    /// Shared state when running as a parallel worker; `None` when
    /// sequential.
    shared: Option<&'a SharedSearch>,
    /// Index of the subtree task this worker is currently running; used
    /// for cooperative cancellation ordering.
    pub(crate) task_index: u64,

    pub(crate) explored: u64,
    pub(crate) memo_hits: u64,
    pub(crate) dead_ends: u64,
    /// Resolved resource limits (state budget, absolute deadline) this
    /// search runs under.
    pub(crate) budget: Budget,
    /// Why the search gave up, when [`Outcome::Budget`] was returned.
    pub(crate) unknown: Option<UnknownReason>,
}

pub(crate) enum Outcome {
    Found,
    Exhausted,
    Budget,
    /// A lower-indexed task already found a witness; the subtree was
    /// abandoned, so nothing may be memoized on the way out.
    Cancelled,
}

impl<'a> Searcher<'a> {
    /// A searcher over the whole spec, borrowing the precedence graph,
    /// the facts, the closure, the order and the budget of `setup`.
    pub(crate) fn new(setup: &'a Setup<'_>) -> Self {
        let spec = setup.spec;
        let n = spec.txns.len();
        let mut pending_reads = vec![0usize; spec.objs.len()];
        for r in &spec.reads {
            pending_reads[r.obj] += 1;
        }
        Searcher {
            spec,
            cfg: setup.cfg,
            du: setup.du(),
            preds: &setup.plan.preds,
            commit_preds: &setup.plan.commit_preds,
            elig: setup.elig,
            suppliers: setup.suppliers,
            writers: setup.writers,
            desc: &setup.desc,
            eligible_global: false,
            passes: setup.passes(),
            order: &setup.order,
            rank: &setup.rank,
            scope: BitSet::full(n),
            scope_target: n,
            open: BitSet::full(n),
            placed: BitSet::new(n),
            placed_count: 0,
            // The root's key (see `value_term`).
            key: 0,
            global_last: vec![Value::INITIAL; spec.objs.len()],
            local_last: vec![Value::INITIAL; spec.reads.len()],
            pending_reads,
            path: Vec::with_capacity(n),
            memo: HashSet::default(),
            memo_peak: 0,
            undo_pool: Vec::with_capacity(n),
            shared: None,
            task_index: 0,
            explored: 0,
            memo_hits: 0,
            dead_ends: 0,
            budget: setup.budget,
            unknown: None,
        }
    }

    /// Turns this searcher into a parallel worker: memo lookups, the state
    /// budget and cancellation all go through `shared`.
    pub(crate) fn attach_shared(&mut self, shared: &'a SharedSearch) {
        self.shared = Some(shared);
    }

    /// Narrows the search to one conflict-graph component on top of
    /// whatever is already placed. Components are independent, so memo
    /// entries from earlier components can never hit again (their placed
    /// sets differ); they are dropped to bound memory, tracking the peak.
    pub(crate) fn restrict(&mut self, members: &[usize]) {
        self.scope.clear();
        self.open.clear();
        for &i in members {
            self.scope.insert(i);
            if !self.placed.contains(i) {
                self.open.insert(self.rank[i]);
            }
        }
        self.scope_target = self.placed_count + members.len();
        self.clear_memo();
    }

    /// Drops every failed-state memo entry, tracking the peak.
    pub(crate) fn clear_memo(&mut self) {
        self.memo_peak = self.memo_peak.max(self.memo.len());
        self.memo.clear();
    }

    /// This search's counters, in reporting form.
    pub(crate) fn stats(&self) -> SearchStats {
        SearchStats {
            explored: self.explored,
            memo_hits: self.memo_hits,
            dead_ends: self.dead_ends,
            peak_memo_entries: self.memo_peak.max(self.memo.len()) as u64,
            subtree_tasks: 0,
        }
    }

    pub(crate) fn path_len(&self) -> usize {
        self.path.len()
    }

    pub(crate) fn path_slice(&self, from: usize) -> &[(usize, bool)] {
        &self.path[from..]
    }

    /// The memo key of the current state computed from scratch: the XOR
    /// of every component's term. Objects with no pending external read,
    /// and reads already placed, cannot influence the future, so they are
    /// no components and permutations collapse. Debug builds check that
    /// the key `place` and `unplace` maintain equals this at every
    /// expansion.
    #[cfg(debug_assertions)]
    fn full_key(&self) -> u128 {
        let mut key = 0;
        for i in self.placed.iter_ones() {
            key ^= key_term(PLACED, i, 0);
        }
        for (o, &v) in self.global_last.iter().enumerate() {
            if self.pending_reads[o] > 0 {
                key ^= value_term(GLOBAL, o, v);
            }
        }
        if self.du {
            for (slot, &v) in self.local_last.iter().enumerate() {
                if !self.placed.contains(self.spec.reads[slot].txn) {
                    key ^= value_term(LOCAL, slot, v);
                }
            }
        }
        key
    }

    /// The scope's unplaced transactions, in fail-first order.
    fn open_txns(&self) -> impl Iterator<Item = usize> + '_ {
        self.open.iter_ones().map(|pos| self.order[pos])
    }

    /// Debug builds: checks the incremental state against its
    /// from-scratch definition — the memo key against
    /// [`Self::full_key`], and the frontier against the scan of `order`
    /// for in-scope unplaced transactions — and counts the check in
    /// [`CROSS_CHECKS`].
    #[cfg(debug_assertions)]
    fn cross_check(&self) {
        debug_assert_eq!(
            self.key,
            self.full_key(),
            "incremental memo key after path {:?}",
            self.path
        );
        let scan = self
            .order
            .iter()
            .copied()
            .filter(|&i| self.scope.contains(i) && !self.placed.contains(i));
        debug_assert!(
            self.open_txns().eq(scan),
            "open-position frontier after path {:?}",
            self.path
        );
        CROSS_CHECKS.fetch_add(1, Ordering::Relaxed);
    }

    /// Forward feasibility: returns `true` if some unplaced in-scope
    /// transaction's external read can no longer be satisfied in any
    /// extension of the current state. The global value is lost once it
    /// differs from the read's and every committable writer of it is
    /// placed or must follow the reader; for du-opacity the local value is
    /// lost once it differs and every *eligible* writer is placed or must
    /// follow the reader. The two writer sets differ: a non-eligible
    /// writer can still restore the global value even though it never
    /// enters the read's local serialization — unless
    /// [`Self::eligible_global`] asks to ignore such witnesses. Outside
    /// du mode that first pass uses the plain rule: the global value is
    /// lost once every unplaced writer of it is ineligible.
    ///
    /// This is the all-slot scan over the scope's read slots. Each search
    /// pass runs it on its root; below the root the search calls
    /// [`Self::dead_end_after`] and checks it against this scan in debug
    /// builds.
    pub(crate) fn dead_end(&self) -> bool {
        self.open_txns()
            .flat_map(|i| &self.spec.txns[i].external_reads)
            .any(|&slot| self.slot_lost(slot))
    }

    /// [`Self::dead_end`] right after placing `i` onto a state that was not
    /// a dead end, re-checking only the read slots on objects `i` writes.
    ///
    /// Placing `i` can make a slot lost only through `i` itself: joining
    /// its writer set's placed part, or changing `global_last` or
    /// `local_last`. All three touch only objects in `i`'s write set,
    /// whatever `i`'s fate; the must-follow sets are fixed, so every other
    /// slot is as it was, and so not lost. Each pass checks its root with
    /// the all-slot scan, and `dfs` descends only through placements that
    /// are not dead ends.
    pub(crate) fn dead_end_after(&self, i: usize) -> bool {
        self.spec.txns[i].writes.iter().any(|&(obj, _)| {
            self.spec.reads_on_obj[obj]
                .iter()
                .any(|&slot| self.slot_lost(slot))
        })
    }

    /// Whether read slot `slot` of an unplaced in-scope transaction can no
    /// longer be served in any extension of the current state.
    fn slot_lost(&self, slot: usize) -> bool {
        let r = &self.spec.reads[slot];
        if self.placed.contains(r.txn) || !self.scope.contains(r.txn) {
            return false;
        }
        let follow = &self.desc[r.txn];
        if self.global_last[r.obj] != r.value {
            let lost = match (self.du, self.eligible_global) {
                // The final-state family's first pass: eligibility read
                // off the plain suppliers, without must-follow sets
                // (DESIGN.md §6, "Two search passes").
                (false, true) => !self.suppliers[slot]
                    .iter_difference(&self.placed)
                    .any(|w| self.spec.txns[w].try_commit_invoked_before(r.resp_index)),
                (true, false) => self.writers[slot].is_subset_of_union(&self.placed, follow),
                _ => self.suppliers[slot].is_subset_of_union(&self.placed, follow),
            };
            if lost {
                return true;
            }
        }
        self.du
            && self.local_last[slot] != r.value
            && self.suppliers[slot].is_subset_of_union(&self.placed, follow)
    }

    /// Searches the current scope for a serialization, in the passes of
    /// [`Setup::passes`]. Under du-opacity and the final-state family the
    /// first prunes with [`Self::eligible_global`] set, so it never cuts
    /// a serialization whose reads all take their global value from a
    /// `tryC`-eligible writer; that pruning is strong, and typical
    /// histories are decided there. Only if it exhausts does the exact
    /// second pass run, which also finds witnesses that need a writer
    /// whose `tryC` follows the read (DESIGN.md §6, "Two search passes").
    /// Either pass's witness is valid, so the verdict is exact, and the
    /// first witness found is the first-pass one whenever one exists.
    pub(crate) fn search(&mut self) -> Outcome {
        let (last, first) = self.passes.split_last().expect("at least one pass");
        for &eligible_global in first {
            self.eligible_global = eligible_global;
            let outcome = self.search_pass();
            if !matches!(outcome, Outcome::Exhausted) {
                return outcome;
            }
            // First-pass failures are not exact failures.
            self.clear_memo();
        }
        self.eligible_global = *last;
        self.search_pass()
    }

    /// One pass of [`Self::search`]: `dfs` from the current state, which
    /// is exhausted outright when it is already a dead end.
    fn search_pass(&mut self) -> Outcome {
        if self.dead_end() {
            self.dead_ends += 1;
            return Outcome::Exhausted;
        }
        self.dfs()
    }

    /// Checks whether transaction `i` can be placed now; its external reads
    /// must be legal against the current state.
    fn reads_legal(&self, i: usize) -> bool {
        for &slot in &self.spec.txns[i].external_reads {
            let r = &self.spec.reads[slot];
            if self.global_last[r.obj] != r.value {
                return false;
            }
            if self.du && self.local_last[slot] != r.value {
                return false;
            }
        }
        true
    }

    /// Whether placing `i` with the given fate is admissible right now:
    /// unplaced, in scope, predecessors placed, reads legal, fate allowed
    /// by the commit capability and the commit-conditional gate. Used by
    /// the online monitor's cached-fragment replay; `dfs` inlines the same
    /// checks.
    pub(crate) fn can_place(&self, i: usize, committed: bool) -> bool {
        if self.placed.contains(i) || !self.scope.contains(i) {
            return false;
        }
        if !self.preds[i].is_subset_of(&self.placed) || !self.reads_legal(i) {
            return false;
        }
        let fate_ok = match self.spec.txns[i].capability {
            CommitCapability::Committed => committed,
            CommitCapability::NeverCommitted => !committed,
            CommitCapability::CommitPending => true,
        };
        fate_ok && (!committed || self.commit_preds[i].is_subset_of(&self.placed))
    }

    /// The first candidate at or after frontier position `from`, as
    /// `(position, txn index)`: an open transaction whose predecessors
    /// are placed and whose reads are legal now. [`Self::dfs`] and
    /// [`Self::children_into`] both walk the candidates this way.
    fn next_candidate(&self, mut from: usize) -> Option<(usize, usize)> {
        while let Some(pos) = self.open.next_one(from) {
            let i = self.order[pos];
            if self.preds[i].is_subset_of(&self.placed) && self.reads_legal(i) {
                return Some((pos, i));
            }
            from = pos + 1;
        }
        None
    }

    /// The fates candidate `i` may take now, abort first: those its
    /// commit capability allows, with commit only once the
    /// commit-conditional gate holds.
    fn fates(&self, i: usize) -> &'static [bool] {
        let gate = || self.commit_preds[i].is_subset_of(&self.placed);
        match self.spec.txns[i].capability {
            CommitCapability::NeverCommitted => &[false],
            CommitCapability::Committed if gate() => &[true],
            CommitCapability::Committed => &[],
            CommitCapability::CommitPending if gate() => &[false, true],
            CommitCapability::CommitPending => &[false],
        }
    }

    /// Appends the current state's children as `(txn index, committed)` in
    /// the exact order [`Self::dfs`] tries them. Used by the parallel
    /// engine's task enumerator, which must mirror `dfs` so the
    /// lowest-indexed task containing a witness is also the one sequential
    /// DFS reaches first.
    pub(crate) fn children_into(&self, out: &mut Vec<(usize, bool)>) {
        #[cfg(debug_assertions)]
        self.cross_check();
        out.clear();
        let mut from = 0;
        while let Some((pos, i)) = self.next_candidate(from) {
            from = pos + 1;
            out.extend(self.fates(i).iter().map(|&committed| (i, committed)));
        }
    }

    /// Places transaction `i` with the given fate and returns an undo log.
    /// Updates the memo key for exactly the components placing `i`
    /// changes: `i` joins the placed set; an object `i` reads drops out
    /// once no read of it is pending, and `i`'s own read slots drop out
    /// in du mode; each value `i` commits replaces its object's term and
    /// the terms of the unplaced reads it is eligible for.
    pub(crate) fn place(&mut self, i: usize, committed: bool) -> UndoLog {
        let mut undo = self.undo_pool.pop().unwrap_or_default();
        undo.key = self.key;
        self.placed.insert(i);
        self.placed_count += 1;
        self.open.remove(self.rank[i]);
        let mut key = self.key ^ key_term(PLACED, i, 0);
        for &slot in &self.spec.txns[i].external_reads {
            let obj = self.spec.reads[slot].obj;
            self.pending_reads[obj] -= 1;
            if self.pending_reads[obj] == 0 {
                key ^= value_term(GLOBAL, obj, self.global_last[obj]);
            }
            if self.du {
                key ^= value_term(LOCAL, slot, self.local_last[slot]);
            }
        }
        if committed {
            for &(obj, v) in &self.spec.txns[i].writes {
                let old = std::mem::replace(&mut self.global_last[obj], v);
                undo.global.push((obj, old));
                if self.pending_reads[obj] > 0 && old != v {
                    key ^= value_term(GLOBAL, obj, old) ^ value_term(GLOBAL, obj, v);
                }
                if self.du {
                    for &slot in &self.spec.reads_on_obj[obj] {
                        let owner = self.spec.reads[slot].txn;
                        if !self.placed.contains(owner) && self.elig[slot].contains(i) {
                            let old = std::mem::replace(&mut self.local_last[slot], v);
                            undo.local.push((slot, old));
                            if old != v {
                                key ^= value_term(LOCAL, slot, old) ^ value_term(LOCAL, slot, v);
                            }
                        }
                    }
                }
            }
        }
        self.key = key;
        self.path.push((i, committed));
        undo
    }

    /// Undoes [`Self::place`] of `i`, restoring the memo key from `undo`.
    pub(crate) fn unplace(&mut self, i: usize, mut undo: UndoLog) {
        self.path.pop();
        for &(slot, v) in undo.local.iter().rev() {
            self.local_last[slot] = v;
        }
        for &(obj, v) in undo.global.iter().rev() {
            self.global_last[obj] = v;
        }
        for &slot in &self.spec.txns[i].external_reads {
            let obj = self.spec.reads[slot].obj;
            self.pending_reads[obj] += 1;
        }
        self.placed.remove(i);
        self.placed_count -= 1;
        if self.scope.contains(i) {
            self.open.insert(self.rank[i]);
        }
        self.key = undo.key;
        undo.global.clear();
        undo.local.clear();
        self.undo_pool.push(undo);
    }

    pub(crate) fn dfs(&mut self) -> Outcome {
        #[cfg(debug_assertions)]
        self.cross_check();
        if self.placed_count == self.scope_target {
            return Outcome::Found;
        }
        self.explored += 1;
        if let Some(shared) = self.shared {
            // Cooperative cancellation: once a lower-indexed task has a
            // witness, this subtree's result can no longer win the
            // deterministic reduction. A peer's contained panic cancels
            // too — the whole search will report `worker-panic`.
            if shared.winner.load(Ordering::Relaxed) < self.task_index
                || shared.panicked.load(Ordering::Relaxed)
            {
                return Outcome::Cancelled;
            }
            let total = shared.explored.fetch_add(1, Ordering::Relaxed) + 1;
            if shared.max_states.is_some_and(|max| total > max) {
                self.unknown = Some(UnknownReason::StateBudget);
                return Outcome::Budget;
            }
        } else if let Some(max) = self.budget.max_states {
            if self.explored > max {
                self.unknown = Some(UnknownReason::StateBudget);
                return Outcome::Budget;
            }
        }
        // The deadline is wall-clock; reading the clock per expansion
        // would dominate the hot loop, so it is sampled on the first
        // expansion (so an already-expired deadline fires even on tiny
        // searches) and every 1024 thereafter — an overrun is bounded by
        // that many node visits. The interrupt flag shares the slot: a
        // SIGINT/SIGTERM surfaces within the same bound.
        if self.explored & 1023 == 1 {
            if self.budget.deadline_expired() {
                self.unknown = Some(UnknownReason::Deadline);
                return Outcome::Budget;
            }
            if self.cfg.interruptible && crate::snapshot::interrupt_requested() {
                self.unknown = Some(UnknownReason::Interrupted);
                return Outcome::Budget;
            }
        }
        let key = if self.cfg.memo {
            let key = self.key;
            let hit = match self.shared {
                Some(shared) => shared.memo_contains(key),
                None => self.memo.contains(&key),
            };
            if hit {
                self.memo_hits += 1;
                return Outcome::Exhausted;
            }
            Some(key)
        } else {
            None
        };

        // Each placement below is undone before the walk moves on, so the
        // frontier past `pos` is the one this state entered with.
        let mut from = 0;
        while let Some((pos, i)) = self.next_candidate(from) {
            from = pos + 1;
            for &committed in self.fates(i) {
                let undo = self.place(i, committed);
                let dead = self.dead_end_after(i);
                debug_assert_eq!(dead, self.dead_end(), "dead-end check after placing {i}");
                if dead {
                    self.dead_ends += 1;
                    self.unplace(i, undo);
                    continue;
                }
                match self.dfs() {
                    Outcome::Found => return Outcome::Found,
                    Outcome::Budget => {
                        self.unplace(i, undo);
                        return Outcome::Budget;
                    }
                    Outcome::Cancelled => {
                        self.unplace(i, undo);
                        return Outcome::Cancelled;
                    }
                    Outcome::Exhausted => self.unplace(i, undo),
                }
            }
        }

        // Memoize only fully exhausted states: a Budget or Cancelled exit
        // above returns early, because an abandoned subtree proves nothing
        // about the state (this keeps the *shared* memo sound too).
        if let Some(key) = key {
            match self.shared {
                Some(shared) => shared.memo_insert(key),
                None => {
                    self.memo.insert(key);
                }
            }
        }
        Outcome::Exhausted
    }

    /// Whether this search's wall-clock deadline has expired (checked by
    /// the planner between components).
    pub(crate) fn deadline_expired(&self) -> bool {
        self.budget.deadline_expired()
    }

    /// The reason a [`Outcome::Budget`] exit should report, defaulting to
    /// the state budget.
    pub(crate) fn unknown_reason(&self) -> UnknownReason {
        self.unknown.unwrap_or(UnknownReason::StateBudget)
    }
}

#[cfg(test)]
thread_local! {
    /// [`descendants`] calls on this thread, for the test that pins one
    /// closure per search.
    pub(crate) static CLOSURES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Descendant sets of an acyclic precedence graph (edge `i → j` iff
/// `preds[j]` contains `i`), given a topological order of it:
/// `desc[i]` holds every transaction that must come after `i`.
///
/// In reverse topological order, `desc[i]` takes the union of `{j} ∪
/// desc[j]` over the successors `j` of `i`, skipping every successor
/// already covered: a union of descendant sets is closed under
/// successors, so a covered `j` brings nothing new. Successors are found
/// a word at a time from the transpose of `preds`, itself built 64×64
/// bits at a time ([`crate::bitset::transpose`]).
pub(crate) fn descendants(preds: &[BitSet], topo: &[usize]) -> Vec<BitSet> {
    #[cfg(test)]
    CLOSURES.with(|c| c.set(c.get() + 1));
    let n = preds.len();
    let succs = crate::bitset::transpose(preds);
    let mut desc: Vec<BitSet> = vec![BitSet::default(); n];
    for &i in topo.iter().rev() {
        let mut d = BitSet::new(n);
        while let Some(j) = succs[i].first_not_in(&d) {
            d.insert(j);
            d.union_with(&desc[j]);
        }
        desc[i] = d;
    }
    desc
}

/// What [`Searcher::unplace`] needs to undo one placement: the memo key
/// before it, and the object and read-slot values it overwrote.
#[derive(Default)]
pub(crate) struct UndoLog {
    key: u128,
    global: Vec<(usize, Value)>,
    local: Vec<(usize, Value)>,
}

/// Builds the satisfied-verdict witness from a complete placement path.
pub(crate) fn witness_from_path(spec: &Spec, path: &[(usize, bool)]) -> Witness {
    let order: Vec<TxnId> = path.iter().map(|&(i, _)| spec.txns[i].id).collect();
    let mut choices = BTreeMap::new();
    for &(i, committed) in path {
        if spec.txns[i].capability == CommitCapability::CommitPending {
            choices.insert(spec.txns[i].id, committed);
        }
    }
    Witness::new(order, choices)
}

/// Decides `criterion` over a prepared query whose history has a spec,
/// by the planned search in either planner setting. `cache` optionally
/// carries a persistent per-component serialization cache; it is used
/// only with decomposition on, so the monolithic ablation stores no
/// fragments.
pub(crate) fn decide_spec(
    p: &Prepared<'_>,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
    cache: Option<&mut ComponentCache>,
) -> (Verdict, SearchStats) {
    crate::plan::planned_search(p, criterion, cfg, cache.filter(|_| cfg.decompose))
}

#[cfg(test)]
thread_local! {
    /// Lint and saturation stages the prefilter skipped on this thread
    /// because a certified du witness settles them.
    pub(crate) static LINT_SKIPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    pub(crate) static SATURATION_SKIPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The polynomial stages ahead of the planner, per `cfg`: the lint
/// prefilter, then saturation. `Some` is the verdict of the first stage
/// that decides.
///
/// A du query whose history carries a certified du witness
/// ([`Prepared::with_du_witness`]) skips lint, which the witness shows
/// cannot refute, and saturation when the witness has a swappable pair,
/// which shows it can neither refute nor decide (DESIGN.md §12,
/// "Witness-gated prefilter"). Debug builds still run each skipped stage
/// and assert that it does not decide.
pub(crate) fn prefilter(
    p: &Prepared<'_>,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
) -> Option<Verdict> {
    let certified = p.du_witness().filter(|_| criterion == PlanCriterion::Du);
    if cfg.prelint {
        if certified.is_some() {
            #[cfg(test)]
            LINT_SKIPS.with(|c| c.set(c.get() + 1));
            debug_assert!(
                crate::lint::prelint(p, criterion).is_none(),
                "lint refuted a history with a certified du witness"
            );
        } else if let Some(v) = crate::lint::prelint(p, criterion) {
            return Some(Verdict::Violated(v));
        }
    }
    if cfg.saturate {
        if certified.is_some_and(|w| crate::saturate::has_swappable_pair(p.history(), w)) {
            #[cfg(test)]
            SATURATION_SKIPS.with(|c| c.set(c.get() + 1));
            debug_assert!(
                crate::saturate::verdict_of(
                    crate::saturate::saturate_prepared(p, criterion),
                    criterion
                )
                .is_none(),
                "saturation decided a history whose du witness has a swappable pair"
            );
            return None;
        }
        let outcome = crate::saturate::saturate_prepared(p, criterion);
        return crate::saturate::verdict_of(outcome, criterion);
    }
    None
}

/// The check pipeline every serialization query goes through: lint
/// prefilter, saturation, spec prechecks, the planned search (decomposed
/// or monolithic), and the degradation ladder — each per `cfg`, all over
/// the one spec and the must-precede facts of `p`. `cache` carries a
/// persistent component cache across calls (the anytime driver
/// [`crate::snapshot::ResumableCheck`]); it is advanced to a new
/// generation only when the search itself runs.
pub(crate) fn check_prepared(
    p: &Prepared<'_>,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
    mut cache: Option<&mut ComponentCache>,
) -> (Verdict, SearchStats) {
    if let Some(verdict) = prefilter(p, criterion, cfg) {
        return (verdict, SearchStats::default());
    }
    if let Err(v) = p.spec() {
        return (Verdict::Violated(v.clone()), SearchStats::default());
    }
    if let Some(c) = cache.as_deref_mut() {
        c.begin_generation();
    }
    let (verdict, stats) = decide_spec(p, criterion, cfg, cache);
    if cfg.ladder {
        if let Verdict::Unknown {
            explored,
            reason,
            partial,
        } = verdict
        {
            return (
                ladder_fallback(p, criterion, cfg, explored, reason, partial),
                stats,
            );
        }
    }
    (verdict, stats)
}

/// The verdict-degradation ladder: on budget exhaustion, fall back through
/// strictly *sound* procedures before settling for `Unknown`.
///
/// Every tier either decides the query exactly or abstains — it can turn
/// `Unknown` into `Satisfied`/`Violated` but never contradict what an
/// unbudgeted exact search would have said:
///
/// 1. **lint** — the polynomial rules of [`crate::lint`] refute only via
///    proven necessary conditions (skipped when `prelint` already ran
///    them before the search).
/// 2. **unique-writes** — Theorem 11's constraint-propagation pass, run
///    only for du-opacity on histories satisfying
///    [`crate::unique::has_unique_writes`], and only its polynomial
///    portion (it abstains instead of recursing into a fresh search).
///
/// If every tier abstains the `Unknown` is returned with its
/// [`crate::PartialProgress`] payload annotated with the tiers that ran.
pub(crate) fn ladder_fallback(
    p: &Prepared<'_>,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
    explored: u64,
    reason: UnknownReason,
    partial: Option<crate::PartialProgress>,
) -> Verdict {
    let h = p.history();
    let mut tiers: Vec<&'static str> = vec!["exact-search"];
    if cfg.prelint {
        // The prefilter already ran the lint tier and found nothing, or
        // skipped it because a certified du witness shows it cannot refute.
        tiers.push("lint");
    } else if let Some(v) = crate::lint::prelint(p, criterion) {
        return Verdict::Violated(v);
    } else {
        tiers.push("lint");
    }
    // Theorem 11 applies to du-opacity under the unique-writes
    // hypothesis.
    if criterion == PlanCriterion::Du && crate::unique::has_unique_writes(h) {
        tiers.push("unique-writes");
        if let Some(verdict) = crate::unique::propagate_unique_writes(h) {
            return verdict;
        }
    }
    let mut partial = partial.unwrap_or_else(|| crate::PartialProgress::components(0, 1));
    partial.tiers = tiers;
    Verdict::Unknown {
        explored,
        reason,
        partial: Some(partial),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;
    use duop_history::{History, HistoryBuilder, ObjId};

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }
    fn check(h: &History, criterion: PlanCriterion, cfg: &SearchConfig) -> Verdict {
        crate::plan::check_planned(h, criterion, cfg, None).0
    }

    /// Both planner settings, for tests that must hold under each.
    fn both_modes() -> [SearchConfig; 2] {
        [
            SearchConfig::default(),
            SearchConfig {
                decompose: false,
                ..SearchConfig::default()
            },
        ]
    }

    #[test]
    fn expired_deadline_yields_unknown_with_reason() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        for cfg in both_modes() {
            let cfg = SearchConfig {
                deadline: Some(Duration::ZERO),
                prelint: false,
                // The degradation ladder (and the saturation prefilter)
                // would decide this unique-writes history outright; this
                // test is about the raw search.
                ladder: false,
                saturate: false,
                ..cfg
            };
            let verdict = check(&h, PlanCriterion::Du, &cfg);
            assert!(
                matches!(
                    verdict,
                    Verdict::Unknown {
                        reason: UnknownReason::Deadline,
                        ..
                    }
                ),
                "expected deadline Unknown, got {verdict:?}"
            );
        }
    }

    #[test]
    fn generous_deadline_does_not_change_verdict() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        let cfg = SearchConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..SearchConfig::default()
        };
        assert!(check(&h, PlanCriterion::Du, &cfg).is_satisfied());
    }

    #[test]
    fn sequential_legal_history_found() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        for cfg in both_modes() {
            let verdict = check(&h, PlanCriterion::FinalState, &cfg);
            let w = verdict.witness().expect("satisfied");
            assert_eq!(w.order(), &[t(1), t(2)]);
        }
    }

    #[test]
    fn stale_read_rejected_with_missing_writer() {
        let h = HistoryBuilder::new()
            .committed_reader(t(1), x(), v(7))
            .build();
        for cfg in both_modes() {
            // The exact variant surfaces with the prefilter off; with it
            // on, lint rule RF003 reports the same refutation first.
            let cfg = SearchConfig {
                prelint: false,
                ..cfg
            };
            let verdict = check(&h, PlanCriterion::FinalState, &cfg);
            assert_eq!(
                verdict.violation(),
                Some(&Violation::MissingWriter {
                    txn: t(1),
                    obj: x(),
                    value: v(7)
                })
            );
        }
        let verdict = check(&h, PlanCriterion::FinalState, &SearchConfig::default());
        assert!(matches!(
            verdict.violation(),
            Some(Violation::LintRefuted { .. })
        ));
    }

    #[test]
    fn rt_violation_rejected() {
        // T1 commits writing 1, then T2 (entirely after T1) reads 0:
        // serialization would need T2 before T1, contradicting real time.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(0))
            .build();
        for cfg in both_modes() {
            let cfg = SearchConfig {
                prelint: false,
                saturate: false,
                ..cfg
            };
            let verdict = check(&h, PlanCriterion::FinalState, &cfg);
            assert!(matches!(
                verdict.violation(),
                Some(Violation::NoSerialization { .. })
            ));
        }
        // With only saturation on, the same cycle comes back certified.
        let cfg = SearchConfig {
            prelint: false,
            ..SearchConfig::default()
        };
        let verdict = check(&h, PlanCriterion::FinalState, &cfg);
        assert!(matches!(
            verdict.violation(),
            Some(Violation::Certified { .. })
        ));
        // With the prefilter on, CY004 refutes without searching.
        let verdict = check(&h, PlanCriterion::FinalState, &SearchConfig::default());
        assert!(matches!(
            verdict.violation(),
            Some(Violation::LintRefuted { .. })
        ));
    }

    #[test]
    fn overlapping_reader_may_serialize_before_writer() {
        // T2 overlaps T1 and reads the initial value: T2 < T1 works.
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .resp_ok(t(1))
            .commit(t(1))
            .commit(t(2))
            .build();
        for cfg in both_modes() {
            let verdict = check(&h, PlanCriterion::FinalState, &cfg);
            let w = verdict.witness().expect("satisfied");
            assert!(w.position(t(2)).unwrap() < w.position(t(1)).unwrap());
        }
    }

    #[test]
    fn pending_commit_fate_is_chosen() {
        // T1's tryC never returns; T2 reads T1's write. The only witness
        // commits T1.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .read(t(2), x(), v(1))
            .commit(t(2))
            .build();
        for cfg in both_modes() {
            let verdict = check(&h, PlanCriterion::Du, &cfg);
            let w = verdict.witness().expect("satisfied");
            assert_eq!(w.commit_choice(t(1)), Some(true));
            assert!(w.position(t(1)).unwrap() < w.position(t(2)).unwrap());
        }
    }

    #[test]
    fn du_rejects_read_from_not_yet_committing_txn() {
        // T3 writes 1 but invokes tryC only *after* T2's read returns, and
        // T1's write of 1 aborts: the value 1 has no du-eligible source.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .commit_aborted(t(1))
            .read(t(2), x(), v(1))
            .committed_writer(t(3), x(), v(1))
            .commit(t(2))
            .build();
        for cfg in both_modes() {
            let no_prelint = SearchConfig {
                prelint: false,
                ..cfg.clone()
            };
            let verdict = check(&h, PlanCriterion::Du, &no_prelint);
            assert_eq!(
                verdict.violation(),
                Some(&Violation::MissingWriter {
                    txn: t(2),
                    obj: x(),
                    value: v(1)
                })
            );
            // With the prefilter on, DU002 refutes du-opacity first.
            let verdict = check(&h, PlanCriterion::Du, &cfg);
            assert!(verdict.is_violated());
            // Without the deferred-update condition the same history
            // passes: T3 can be serialized before T2 (and the du-only
            // lint error must not leak into the plain scope).
            let verdict = check(&h, PlanCriterion::FinalState, &cfg);
            assert!(verdict.is_satisfied());
        }
    }

    /// Both planner settings with lint and saturation off, so the planner
    /// and the search alone meet the criterion's commit-order edges.
    fn search_only() -> [SearchConfig; 2] {
        both_modes().map(|cfg| SearchConfig {
            prelint: false,
            saturate: false,
            ..cfg
        })
    }

    /// A read-commit-order write skew: T1 reads x and writes y, T2 reads
    /// y and writes x, each read responding before the other writer's
    /// `tryC`, so RCO has an edge each way. T2 commits; T1 commits when
    /// `t1_commits`, else its `tryC` stays pending.
    fn rco_write_skew(t1_commits: bool) -> History {
        let y = ObjId::new(1);
        let b = HistoryBuilder::new()
            .read(t(1), x(), v(0))
            .read(t(2), y, v(0))
            .write(t(1), y, v(1))
            .write(t(2), x(), v(2));
        let b = if t1_commits {
            b.commit(t(1))
        } else {
            b.inv_try_commit(t(1))
        };
        b.commit(t(2)).build()
    }

    #[test]
    fn extra_edges_constrain_order() {
        // T1 and T2 overlap, T2 reads 0 and T1 commits a write of 1 before
        // T2 invokes tryC: TMS2's edge T1 → T2 makes the read stale, while
        // final-state opacity serializes T2 first.
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .resp_ok(t(1))
            .commit(t(1))
            .commit(t(2))
            .build();
        for cfg in search_only() {
            assert!(check(&h, PlanCriterion::Tms2, &cfg).is_violated());
            assert!(check(&h, PlanCriterion::FinalState, &cfg).is_satisfied());
        }
    }

    #[test]
    fn cyclic_edges_reported() {
        // Both transactions commit, so both RCO edges are unconditional.
        let h = rco_write_skew(true);
        for cfg in search_only() {
            let verdict = check(&h, PlanCriterion::Rco, &cfg);
            assert!(
                matches!(verdict.violation(), Some(Violation::ConstraintCycle { .. })),
                "{verdict:?}"
            );
        }
    }

    #[test]
    fn commit_edge_binds_commit_pending_target() {
        // T1 writes x = 1 and y = 1, then invokes tryC and never hears
        // back. T2 reads y (T3's 3) before that tryC — an RCO edge T2 → T1
        // that binds only if T1 commits — and then x = 1, which only a
        // committed T1 before T2 supplies: a contradiction either way.
        let y = ObjId::new(1);
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .write(t(1), y, v(1))
            .committed_writer(t(3), y, v(3))
            .read(t(2), y, v(3))
            .inv_try_commit(t(1))
            .read(t(2), x(), v(1))
            .commit(t(2))
            .build();
        for cfg in search_only() {
            let verdict = check(&h, PlanCriterion::Rco, &cfg);
            assert!(
                matches!(verdict.violation(), Some(Violation::NoSerialization { .. })),
                "{verdict:?}"
            );
            // Sanity: without the conditional edge the history is
            // satisfiable (T1 commits, then T3, then T2).
            assert!(check(&h, PlanCriterion::FinalState, &cfg).is_satisfied());
        }
    }

    #[test]
    fn commit_edge_forces_abort_instead_of_cycle() {
        // The write skew of `cyclic_edges_reported` with T1's tryC left
        // pending: the edge T2 → T1 now binds only if T1 commits, so the
        // search keeps T1 by choosing the abort fate instead of reporting
        // a cycle.
        let (pending, committed) = (rco_write_skew(false), rco_write_skew(true));
        for cfg in search_only() {
            let verdict = check(&pending, PlanCriterion::Rco, &cfg);
            let w = verdict.witness().expect("satisfied with T1 aborted");
            assert_eq!(w.commit_choice(t(1)), Some(false));
            crate::check_witness(&pending, w, crate::CriterionKind::ReadCommitOrder)
                .expect("witness validates");
            // The same two edges, both unconditional once T1 commits.
            let verdict = check(&committed, PlanCriterion::Rco, &cfg);
            assert!(
                matches!(verdict.violation(), Some(Violation::ConstraintCycle { .. })),
                "{verdict:?}"
            );
        }
    }

    #[test]
    fn commit_edge_on_committed_target_is_unconditional() {
        // T2 reads T1's x = 1 before T1 invokes tryC, and T1 commits: the
        // RCO edge T2 → T1 binds unconditionally, against the order the
        // read needs (T1 before T2). Final-state opacity accepts it.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .read(t(2), x(), v(1))
            .commit(t(1))
            .commit(t(2))
            .build();
        for cfg in search_only() {
            assert!(check(&h, PlanCriterion::Rco, &cfg).is_violated());
            assert!(check(&h, PlanCriterion::FinalState, &cfg).is_satisfied());
        }
    }

    #[test]
    fn budget_returns_unknown() {
        // An unserializable history with several overlapping transactions
        // forces exploration; a tiny budget gives Unknown.
        let mut b = HistoryBuilder::new();
        for k in 1..=4 {
            b = b.inv_write(t(k), x(), v(k as u64));
        }
        for k in 1..=4 {
            b = b.resp_ok(t(k));
        }
        for k in 1..=4 {
            b = b.commit(t(k));
        }
        // A reader of a value that exists but is overwritten forces search.
        let h = b
            .read(t(5), x(), v(9))
            .write(t(5), x(), v(9))
            .commit(t(5))
            .build();
        // The read of 9 precedes T5's own write of 9 (external read with
        // no other writer) — the planner's candidate-writer check kills it.
        let verdict = check(
            &h,
            PlanCriterion::FinalState,
            &SearchConfig {
                max_states: Some(0),
                ..SearchConfig::default()
            },
        );
        // Either violated by that check or unknown; accept both shapes but
        // require non-satisfied.
        assert!(!verdict.is_satisfied());
    }

    #[test]
    fn memo_disabled_gives_same_answers() {
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_write(t(2), x(), v(2))
            .inv_read(t(3), x())
            .resp_value(t(3), v(2))
            .resp_ok(t(1))
            .resp_ok(t(2))
            .commit(t(1))
            .commit(t(2))
            .commit(t(3))
            .build();
        let with = check(&h, PlanCriterion::FinalState, &SearchConfig::default());
        let without = check(
            &h,
            PlanCriterion::FinalState,
            &SearchConfig {
                memo: false,
                ..SearchConfig::default()
            },
        );
        assert_eq!(with.is_satisfied(), without.is_satisfied());
    }

    #[test]
    fn decompose_matches_monolithic_on_independent_clusters() {
        // Two disjoint object clusters, fully concurrent: the planner
        // splits them, the monolithic engine does not; verdicts agree and
        // both witnesses validate.
        let y = ObjId::new(1);
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_write(t(3), y, v(7))
            .resp_ok(t(1))
            .resp_ok(t(3))
            .inv_try_commit(t(1))
            .inv_try_commit(t(3))
            .read(t(2), x(), v(1))
            .read(t(4), y, v(7))
            .commit(t(2))
            .commit(t(4))
            .build();
        let [on, off] = both_modes();
        let vd_on = check(&h, PlanCriterion::Du, &on);
        let vd_off = check(&h, PlanCriterion::Du, &off);
        assert!(vd_on.is_satisfied() && vd_off.is_satisfied());
        for vd in [&vd_on, &vd_off] {
            let w = vd.witness().unwrap();
            assert_eq!(w.order().len(), 4);
            crate::check_witness(&h, w, crate::CriterionKind::DuOpacity)
                .expect("witness validates");
        }
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = SearchStats {
            explored: 1,
            memo_hits: 2,
            dead_ends: 3,
            peak_memo_entries: 10,
            subtree_tasks: 0,
        };
        let b = SearchStats {
            explored: 10,
            memo_hits: 20,
            dead_ends: 30,
            peak_memo_entries: 5,
            subtree_tasks: 4,
        };
        a.absorb(&b);
        assert_eq!(a.explored, 11);
        assert_eq!(a.memo_hits, 22);
        assert_eq!(a.dead_ends, 33);
        assert_eq!(a.peak_memo_entries, 10);
        assert_eq!(a.subtree_tasks, 4);
    }
}
