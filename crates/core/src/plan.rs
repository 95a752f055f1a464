//! The search planner: static preprocessing that runs before any
//! backtracking.
//!
//! Membership in du-opacity (and the related criteria) is NP-hard, so the
//! serialization search is exponential in the worst case. The planner
//! attacks the *instance size* rather than the constant factor:
//!
//! 1. **Conflict-graph decomposition.** Two transactions conflict when
//!    they access a common object, are ordered by real time, or are
//!    related by a criterion edge (conditional or not). Transactions in
//!    different connected components of this graph share *no* objects and
//!    *no* ordering constraints, so a serialization of the whole history
//!    exists iff each component has one, and per-component serializations
//!    compose by concatenation (see `DESIGN.md` for the argument). The
//!    search therefore runs per component and is exponential only in the
//!    largest component.
//! 2. **Candidate writer sets.** For every external read the planner
//!    precomputes the set of transactions that could supply its value in
//!    *some* serialization (committable writers of the value; in du mode
//!    additionally `tryC`-eligible). Zero candidates for a non-initial
//!    value is an immediate [`Violation::MissingWriter`] — no search. A
//!    *singleton* candidate is a writer that must commit and precede the
//!    reader in every satisfying serialization, so it becomes a **forced
//!    precedence edge** fed to the search, shrinking the tree before the
//!    first node is expanded.
//!
//! The planner is the one place that builds the query's **precedence
//! graph** ([`Plan`]); every searcher borrows it through one [`Setup`].
//! A query is its [`PlanCriterion`]: [`build_constraints`] takes the
//! criterion's edges from the prepared facts itself, TMS2's as
//! unconditional edges and read-commit-order's as commit-conditional
//! ones. With decomposition off the plan is one component without forced
//! edges, run by the same drivers.
//!
//! A cycle among real-time/criterion edges alone is reported as
//! [`Violation::ConstraintCycle`]; a cycle that appears only once forced
//! edges are added means no serialization exists (forced edges are
//! necessary conditions), reported as [`Violation::NoSerialization`] with
//! zero explored states.

use crate::bitset::BitSet;
use crate::prepared::Prepared;
use crate::search::{witness_from_path, Outcome, SearchConfig, SearchStats, Searcher, Setup};
use crate::snapshot::{Fragment, SinkState};
use crate::spec::Spec;
use crate::{Verdict, Violation};
use duop_history::{CommitCapability, History, TxnId, Value};
use std::collections::{HashMap, HashSet};

/// Result of planning one query: its precedence graph and its
/// conflict-graph components.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    /// The conflict-graph components, each a sorted list of transaction
    /// indices, ordered by smallest member. Without decomposition, one
    /// component holding every transaction (none for an empty history).
    pub(crate) components: Vec<Vec<usize>>,
    /// Unconditional predecessors of each transaction: real time, the
    /// criterion's edges whose target always commits, and the forced
    /// edges from singleton candidate sets (edge `i → j` iff `preds[j]`
    /// contains `i`). Acyclic.
    pub(crate) preds: Vec<BitSet>,
    /// Commit-conditional predecessors: placing `j` with the *commit*
    /// fate requires `commit_preds[j]` to be placed. A "cycle" through one
    /// only means the target cannot commit, which the fate gate handles.
    pub(crate) commit_preds: Vec<BitSet>,
    /// A topological order of `preds`.
    pub(crate) topo: Vec<usize>,
}

#[cfg(test)]
thread_local! {
    /// [`build_constraints`] calls on this thread, for the test that pins
    /// one precedence graph per query.
    pub(crate) static CONSTRAINT_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// [`topo_order`] calls on this thread.
    pub(crate) static TOPO_ORDERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Builds the precedence constraints of `criterion`'s query over the
/// spec of `p`: unconditional predecessors (real time, TMS2's commit-order
/// edges) and commit-conditional ones (read-commit-order's edges, which
/// bind a writer only when the serialization commits it). An RCO edge
/// into an always-committed target is unconditional. Neither fact list
/// holds a self-edge.
pub(crate) fn build_constraints(
    p: &Prepared<'_>,
    criterion: PlanCriterion,
) -> (Vec<BitSet>, Vec<BitSet>) {
    #[cfg(test)]
    CONSTRAINT_BUILDS.with(|c| c.set(c.get() + 1));
    let spec = p.indexed();
    let n = spec.txns.len();
    let mut preds = spec.rt_preds.clone();
    let mut commit_preds: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    match criterion {
        PlanCriterion::Tms2 => {
            for e in p.tms2() {
                preds[e.after].insert(e.before);
            }
        }
        PlanCriterion::Rco => {
            for e in p.rco() {
                match spec.txns[e.after].capability {
                    CommitCapability::Committed => preds[e.after].insert(e.before),
                    CommitCapability::CommitPending => commit_preds[e.after].insert(e.before),
                    CommitCapability::NeverCommitted => {}
                }
            }
        }
        PlanCriterion::FinalState | PlanCriterion::Du | PlanCriterion::Strict => {}
    }
    (preds, commit_preds)
}

/// Topological check over `preds` (edge `i → j` iff `preds[j]` contains
/// `i`). Returns a topological order or, when the graph is cyclic, the
/// sorted indices on a cycle or downstream of one — the set Kahn's
/// algorithm leaves unprocessed.
///
/// An iterative depth-first search over the predecessor sets that finds
/// unvisited predecessors a word at a time, so a check costs O(n²/64). A
/// node is *blocked* at its finish when a predecessor is still on the
/// stack (a back edge: the node is on a cycle) or already blocked (the
/// node is downstream of one); the blocked nodes are exactly Kahn's
/// leftover (DESIGN.md §6). Unblocked nodes finish after all their
/// predecessors, so the finish order is topological.
pub(crate) fn topo_order(preds: &[BitSet]) -> Result<Vec<usize>, Vec<usize>> {
    #[cfg(test)]
    TOPO_ORDERS.with(|c| c.set(c.get() + 1));
    let n = preds.len();
    let mut visited = BitSet::new(n);
    // Nodes on the stack, plus finished nodes that are blocked.
    let mut tainted = BitSet::new(n);
    let mut order = Vec::with_capacity(n);
    // (node, index of the next predecessor word to scan)
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if visited.contains(root) {
            continue;
        }
        visited.insert(root);
        tainted.insert(root);
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (v, words) = (top.0, preds[top.0].words());
            let mut next = None;
            while top.1 < words.len() {
                let fresh = words[top.1] & !visited.words()[top.1];
                if fresh != 0 {
                    next = Some(top.1 * 64 + fresh.trailing_zeros() as usize);
                    break;
                }
                top.1 += 1;
            }
            match next {
                Some(u) => {
                    visited.insert(u);
                    tainted.insert(u);
                    stack.push((u, 0));
                }
                None => {
                    stack.pop();
                    if !preds[v].intersects(&tainted) {
                        tainted.remove(v);
                    }
                    order.push(v);
                }
            }
        }
    }
    if tainted.count_ones() == 0 {
        Ok(order)
    } else {
        Err(tainted.iter_ones().collect())
    }
}

/// Union–find over transaction indices, used to build the conflict-graph
/// components.
#[derive(Debug, Default)]
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    /// Re-initialises the structure for `n` singletons, reusing the
    /// parent buffer.
    fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins, so component roots are deterministic.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }

    /// Joins every transaction to its predecessors in `preds` and
    /// `commit_preds` (edge `i → j` iff the set of `j` contains `i`).
    ///
    /// Once `j − 1` is joined, all of `preds[j − 1]` shares its component,
    /// so `j` joins one member of `preds[j] ∩ preds[j − 1]` plus each member
    /// outside `preds[j − 1]`: the partition equals joining every edge,
    /// while consecutive real-time sets, which mostly overlap, cost one
    /// union each.
    fn join_order_edges(&mut self, preds: &[BitSet], commit_preds: &[BitSet]) {
        let none = BitSet::new(preds.len());
        for (j, (p, commit_pred)) in preds.iter().zip(commit_preds).enumerate() {
            let prev = if j == 0 { &none } else { &preds[j - 1] };
            if let Some(i) = p.first_common(prev) {
                self.union(i, j);
            }
            for i in p.iter_difference(prev) {
                self.union(i, j);
            }
            for i in commit_pred.iter_ones() {
                self.union(i, j);
            }
        }
    }
}

/// The connected components of the order edges `preds ∪ commit_preds`
/// alone, each sorted, ordered by smallest member: the planner's
/// union-find step in isolation, for the kernel equivalence suite.
pub(crate) fn order_components(preds: &[BitSet], commit_preds: &[BitSet]) -> Vec<Vec<usize>> {
    let mut scratch = PlanScratch::new();
    scratch.dsu.reset(preds.len());
    scratch.dsu.join_order_edges(preds, commit_preds);
    scratch.components(preds.len())
}

/// Pooled scratch for repeated planning, so a caller that extracts
/// components in a loop — the sharding coordinator replans every incoming
/// history — reuses the union-find and component buffers instead of
/// reallocating them per call (the same discipline `search.rs` applies to
/// its undo logs). The precedence graph a plan keeps, and the topological
/// checks' working sets, are allocated per plan.
#[derive(Debug, Default)]
pub struct PlanScratch {
    dsu: Dsu,
    /// Component slot per union-find root; `usize::MAX` = unassigned.
    slot_of_root: Vec<usize>,
    /// Spare component vectors, recycled between plans.
    spare: Vec<Vec<usize>>,
}

impl PlanScratch {
    /// Creates an empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The union-find's components over `0..n`, each sorted, ordered by
    /// smallest member, in vectors from the spare pool.
    fn components(&mut self, n: usize) -> Vec<Vec<usize>> {
        self.slot_of_root.clear();
        self.slot_of_root.resize(n, usize::MAX);
        let mut components: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let root = self.dsu.find(i);
            let slot = self.slot_of_root[root];
            if slot == usize::MAX {
                self.slot_of_root[root] = components.len();
                let mut c = self.spare.pop().unwrap_or_default();
                c.clear();
                c.push(i);
                components.push(c);
            } else {
                components[slot].push(i);
            }
        }
        components
    }

    /// Returns a plan's component vectors to the spare pool.
    fn recycle(&mut self, components: Vec<Vec<usize>>) {
        self.spare.extend(components.into_iter().map(|mut c| {
            c.clear();
            c
        }));
    }
}

impl Plan {
    /// Plans `criterion`'s query over the spec of `p` with a private
    /// scratch pool; see [`Plan::build_with`].
    pub(crate) fn build(
        p: &Prepared<'_>,
        criterion: PlanCriterion,
        decompose: bool,
    ) -> Result<Plan, Violation> {
        Plan::build_with(p, criterion, decompose, &mut PlanScratch::new())
    }

    /// Plans `criterion`'s query over the spec of `p`, reading its
    /// supplier sets; fails fast with the violation when the planning
    /// analysis alone already refutes the query. With `decompose` off
    /// the plan has no forced edges and one component, and no union-find
    /// runs. All internal buffers come from (and the caller may return
    /// component vectors to) `scratch`.
    pub(crate) fn build_with(
        p: &Prepared<'_>,
        criterion: PlanCriterion,
        decompose: bool,
        scratch: &mut PlanScratch,
    ) -> Result<Plan, Violation> {
        let spec = p.indexed();
        let n = spec.txns.len();
        let (mut preds, commit_preds) = build_constraints(p, criterion);
        let suppliers = p.suppliers(criterion == PlanCriterion::Du);

        // Zero candidates for a non-initial value: no serialization can
        // ever serve the read — `T_0` can always supply the initial value.
        for (slot, r) in spec.reads.iter().enumerate() {
            if r.value != Value::INITIAL && suppliers[slot].count_ones() == 0 {
                return Err(Violation::MissingWriter {
                    txn: spec.txns[r.txn].id,
                    obj: spec.objs[r.obj],
                    value: r.value,
                });
            }
        }

        // A cycle among the caller's own constraints is a crisp
        // ConstraintCycle. Conditional edges are excluded: a "cycle"
        // through one only means the target cannot commit.
        let mut topo = topo_order(&preds).map_err(|cyc| Violation::ConstraintCycle {
            txns: cyc.into_iter().map(|i| spec.txns[i].id).collect(),
        })?;
        let components = if decompose {
            // Singleton candidates: the sole supplier must commit before
            // the reader in every satisfying serialization, so the edge is
            // sound and complete. Initial-value reads never force.
            let mut forced = false;
            for (slot, r) in spec.reads.iter().enumerate() {
                if r.value != Value::INITIAL && suppliers[slot].count_ones() == 1 {
                    let w = suppliers[slot].iter_ones().next().expect("one element");
                    forced |= !preds[r.txn].contains(w);
                    preds[r.txn].insert(w);
                }
            }
            // A cycle only through forced edges refutes the query without
            // a search: forced edges hold in every satisfying serialization.
            if forced {
                topo = topo_order(&preds).map_err(|_| Violation::NoSerialization {
                    criterion: criterion.display_name().to_owned(),
                    explored: 0,
                })?;
            }
            // Conflict graph: shared objects ∪ all order edges (including
            // commit-conditional ones, which constrain the order whenever
            // the target commits).
            scratch.dsu.reset(n);
            scratch.dsu.join_order_edges(&preds, &commit_preds);
            for accessors in spec.accessors_per_obj() {
                for w in accessors.windows(2) {
                    scratch.dsu.union(w[0], w[1]);
                }
            }
            scratch.components(n)
        } else {
            // One component holding every transaction (none when empty).
            (n > 0).then(|| (0..n).collect()).into_iter().collect()
        };
        Ok(Plan {
            components,
            preds,
            commit_preds,
            topo,
        })
    }
}

/// The criteria the sharded checker can plan, distribute
/// component-by-component, and recombine into the exact in-process
/// verdict: every criterion whose check is a single serialization query.
/// (Opacity's prefix loop and the TMS2 automaton are not serialization
/// queries; a sharded run ships those histories whole instead.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanCriterion {
    /// Final-state opacity (Definition 4).
    FinalState,
    /// Du-opacity (Definition 3).
    Du,
    /// Read-commit-order opacity (Section 4.2).
    Rco,
    /// TMS2, the Section 4.2 rendering.
    Tms2,
    /// Strict serializability of the committed projection.
    Strict,
}

impl PlanCriterion {
    /// Parses the CLI spelling (`final-state`, `du`, `rco`, `tms2`,
    /// `strict`).
    pub fn parse(token: &str) -> Option<PlanCriterion> {
        match token {
            "final-state" => Some(PlanCriterion::FinalState),
            "du" => Some(PlanCriterion::Du),
            "rco" => Some(PlanCriterion::Rco),
            "tms2" => Some(PlanCriterion::Tms2),
            "strict" => Some(PlanCriterion::Strict),
            _ => None,
        }
    }

    /// The CLI spelling, inverse of [`PlanCriterion::parse`].
    pub fn token(self) -> &'static str {
        match self {
            PlanCriterion::FinalState => "final-state",
            PlanCriterion::Du => "du",
            PlanCriterion::Rco => "rco",
            PlanCriterion::Tms2 => "tms2",
            PlanCriterion::Strict => "strict",
        }
    }

    /// The human-readable criterion name used in verdicts.
    pub fn display_name(self) -> &'static str {
        match self {
            PlanCriterion::FinalState => "final-state opacity",
            PlanCriterion::Du => "du-opacity",
            PlanCriterion::Rco => "read-commit-order opacity",
            PlanCriterion::Tms2 => "TMS2",
            PlanCriterion::Strict => "strict serializability",
        }
    }

    /// The criterion family the lint prefilter treats this query as:
    /// which `Error`-severity rules may refute it.
    pub(crate) fn lint_scope(self) -> crate::lint::LintScope {
        match self {
            PlanCriterion::FinalState | PlanCriterion::Strict => crate::lint::LintScope::Plain,
            PlanCriterion::Du => crate::lint::LintScope::Du,
            PlanCriterion::Rco => crate::lint::LintScope::Rco,
            PlanCriterion::Tms2 => crate::lint::LintScope::Tms2,
        }
    }

    /// The history the criterion's serialization query actually runs over,
    /// when it differs from the input: for strict serializability
    /// (mirroring [`crate::StrictSerializability`]), the projection onto
    /// the transactions that can commit, `Some` only when some
    /// transaction never commits. `None` — the input itself — otherwise
    /// and for every other criterion. A projection has no transaction
    /// that never commits, so re-preparing a shipped sub-history on the
    /// worker side returns `None`.
    ///
    /// One pass over the transactions and one over the events.
    pub fn prepare(self, h: &History) -> Option<History> {
        match self {
            PlanCriterion::Strict => {
                let never: HashSet<TxnId> = h
                    .txns()
                    .filter(|t| t.commit_capability() == CommitCapability::NeverCommitted)
                    .map(|t| t.id())
                    .collect();
                (!never.is_empty()).then(|| h.filter_txns(|id| !never.contains(&id)))
            }
            _ => None,
        }
    }
}

/// Checks `h` against `criterion`: prepares the history and runs the
/// check pipeline ([`crate::search::check_prepared`]), optionally
/// through a persistent component cache. Every criterion struct, the
/// shard worker and [`crate::snapshot::ResumableCheck`] come through here.
pub(crate) fn check_planned(
    h: &History,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
    cache: Option<&mut ComponentCache>,
) -> (Verdict, SearchStats) {
    crate::search::check_prepared(&Prepared::new(h, criterion), criterion, cfg, cache)
}

/// Outcome of standalone component extraction ([`plan_components`]).
#[derive(Clone, Debug)]
pub enum PlanOutcome {
    /// Planning alone decided the query — spec prechecks or the planner's
    /// fast paths refuted it without a search (internal-read
    /// inconsistency, missing writer, constraint cycle, forced-edge
    /// cycle). The verdict is exactly what the in-process search path
    /// returns.
    Decided(Verdict),
    /// The conflict-graph components, each a list of transaction ids
    /// sorted by spec index, in deterministic smallest-member order. A
    /// serialization of the whole history exists iff each component has
    /// one, and per-component witnesses compose by concatenation in this
    /// order.
    Components(Vec<Vec<TxnId>>),
}

/// Extracts the conflict-graph components of `criterion`'s query over `h`
/// as a standalone unit the sharding coordinator can ship: each component
/// (a set of transaction ids) can be checked in isolation — restricted via
/// [`History::filter_txns`] — and the verdicts recombined exactly.
///
/// `h` must already be [`PlanCriterion::prepare`]d. Repeated calls reuse
/// `scratch`, keeping extraction allocation-free apart from the returned
/// id lists.
pub fn plan_components(
    h: &History,
    criterion: PlanCriterion,
    scratch: &mut PlanScratch,
) -> PlanOutcome {
    components_of(&Prepared::of(h), criterion, scratch)
}

fn components_of(
    p: &Prepared<'_>,
    criterion: PlanCriterion,
    scratch: &mut PlanScratch,
) -> PlanOutcome {
    let spec = match p.spec() {
        Ok(s) => s,
        Err(v) => return PlanOutcome::Decided(Verdict::Violated(v.clone())),
    };
    let plan = match Plan::build_with(p, criterion, true, scratch) {
        Ok(plan) => plan,
        Err(v) => return PlanOutcome::Decided(Verdict::Violated(v)),
    };
    let comps = plan
        .components
        .iter()
        .map(|c| c.iter().map(|&i| spec.txns[i].id).collect())
        .collect();
    scratch.recycle(plan.components);
    PlanOutcome::Components(comps)
}

/// The in-process pipeline up to the search, for the sharding
/// coordinator: over an already-[`PlanCriterion::prepare`]d history, the
/// lint prefilter and saturation when `cfg` turns them on, then
/// component extraction as [`plan_components`] does it. The stages share
/// one spec and one set of must-precede facts. A stage that decides
/// returns the verdict the in-process path returns at that stage.
pub fn plan_query(
    h: &History,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
    scratch: &mut PlanScratch,
) -> PlanOutcome {
    let p = Prepared::of(h);
    match crate::search::prefilter(&p, criterion, cfg) {
        Some(verdict) => PlanOutcome::Decided(verdict),
        None => components_of(&p, criterion, scratch),
    }
}

/// Runs the lint prefilter for `criterion` over an already-prepared
/// history, exactly as the in-process search path does when
/// [`SearchConfig::prelint`] is on. `Some` is the refuting verdict.
pub fn prelint_verdict(h: &History, criterion: PlanCriterion) -> Option<Verdict> {
    crate::lint::prelint(&Prepared::of(h), criterion).map(Verdict::Violated)
}

/// Applies the verdict-degradation ladder to an undecided sharded check,
/// exactly as the in-process path does when [`SearchConfig::ladder`] is
/// on: sound polynomial fallbacks may still decide the query, otherwise
/// the `Unknown` comes back annotated with the tiers that ran.
pub fn ladder_verdict(
    h: &History,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
    explored: u64,
    reason: crate::UnknownReason,
    partial: Option<crate::PartialProgress>,
) -> Verdict {
    let p = Prepared::new(h, criterion);
    crate::search::ladder_fallback(&p, criterion, cfg, explored, reason, partial)
}

/// Checks `h` against `criterion` through the full in-process search path
/// (prepare → prelint → plan → search per `cfg`), additionally returning
/// the explored-state counter — what a shard worker reports so the
/// coordinator can reconstruct the sequential engine's cumulative counts.
pub fn check_criterion_with_stats(
    h: &History,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
) -> (Verdict, u64) {
    let (verdict, stats) = check_planned(h, criterion, cfg, None);
    (verdict, stats.explored)
}

/// Serializations of previously decided components, for the online
/// monitor and the anytime driver: keyed by the component's member ids,
/// holding the placement order with chosen commit fates.
///
/// Entries are validated by *replay* against the current spec before
/// reuse (every placement re-checked for legality), so a stale entry can
/// never produce a wrong answer — at worst it fails to replay and the
/// component is searched afresh.
#[derive(Debug, Default)]
pub(crate) struct ComponentCache {
    /// Fragments from the previous generation, consulted on lookup.
    prev: HashMap<Vec<TxnId>, Vec<(TxnId, bool)>>,
    /// Fragments of the current generation (searched or replayed).
    cur: HashMap<Vec<TxnId>, Vec<(TxnId, bool)>>,
    /// Components certified by replaying a cached fragment.
    pub(crate) reuses: u64,
    /// The checkpoint sink of the [`crate::snapshot::ResumableCheck`]
    /// owning this cache, told of every decided component.
    pub(crate) sink: Option<SinkState>,
}

impl ComponentCache {
    /// Starts a new generation: current fragments become the lookup set,
    /// so entries for components that no longer exist age out.
    pub(crate) fn begin_generation(&mut self) {
        self.prev = std::mem::take(&mut self.cur);
    }

    fn lookup(&self, members: &[TxnId]) -> Option<&[(TxnId, bool)]> {
        self.prev.get(members).map(Vec::as_slice)
    }

    /// Records a decided component's fragment in the current generation
    /// and tells the checkpoint sink, if any, with the explored-state
    /// count so far.
    fn store(&mut self, fragment: Fragment, explored: u64) {
        self.cur.insert(fragment.members, fragment.placements);
        if let Some(mut sink) = self.sink.take() {
            sink.progress(explored, || self.fragments());
            self.sink = Some(sink);
        }
    }

    /// The current generation's fragments, sorted by member ids for
    /// deterministic checkpoints.
    pub(crate) fn fragments(&self) -> Vec<Fragment> {
        let mut out: Vec<Fragment> = self
            .cur
            .iter()
            .map(|(members, placements)| Fragment {
                members: members.clone(),
                placements: placements.clone(),
            })
            .collect();
        out.sort();
        out
    }

    /// Preloads fragments (e.g. from a checkpoint) into the *current*
    /// generation, so the [`Self::begin_generation`] call that precedes
    /// every cached search promotes them into the lookup set. Preloaded
    /// entries go through the same replay validation as any other cached
    /// fragment, so a corrupt or stale fragment costs a failed replay —
    /// never a wrong answer.
    pub(crate) fn preload(&mut self, fragments: Vec<Fragment>) {
        for f in fragments {
            self.cur.insert(f.members, f.placements);
        }
    }
}

/// Attempts to replay a cached fragment through the searcher's own
/// placement rules (predecessor, legality, fate and commit-gate checks).
/// On success the fragment's transactions are left placed and the replay
/// certifies the component; on failure the searcher is restored.
fn try_replay(s: &mut Searcher<'_>, spec: &Spec, fragment: &[(TxnId, bool)]) -> bool {
    let mut placed: Vec<(usize, crate::search::UndoLog)> = Vec::with_capacity(fragment.len());
    for &(id, committed) in fragment {
        let ok = spec
            .index
            .get(&id)
            .is_some_and(|&i| s.can_place(i, committed));
        let Some(&i) = spec.index.get(&id) else {
            break;
        };
        if !ok {
            break;
        }
        let undo = s.place(i, committed);
        placed.push((i, undo));
    }
    if placed.len() == fragment.len() {
        return true;
    }
    for (i, undo) in placed.into_iter().rev() {
        s.unplace(i, undo);
    }
    false
}

/// The planned search: plan the query (decomposed or as one component,
/// per [`SearchConfig::decompose`]), set up the one search every searcher
/// borrows, and decide per component, composing per-component
/// serializations into the global witness.
pub(crate) fn planned_search(
    p: &Prepared<'_>,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
    cache: Option<&mut ComponentCache>,
) -> (Verdict, SearchStats) {
    let plan = match Plan::build(p, criterion, cfg.decompose) {
        Ok(plan) => plan,
        Err(v) => return (Verdict::Violated(v), SearchStats::default()),
    };
    let setup = Setup::new(p, cfg, criterion, &plan);
    if cfg.effective_threads() > 1 {
        if plan.components.len() > 1 {
            return crate::parallel::par_search_components(&setup);
        }
        return crate::parallel::par_search_spec(&setup);
    }
    seq_planned(&setup, cache)
}

/// The sequential planned driver: one searcher serializes the plan's
/// components in turn.
pub(crate) fn seq_planned(
    setup: &Setup<'_>,
    mut cache: Option<&mut ComponentCache>,
) -> (Verdict, SearchStats) {
    let spec = setup.spec;
    let mut s = Searcher::new(setup);
    // One searcher serializes every component in turn without unwinding:
    // components are independent, so searching component k with components
    // 1..k already placed explores exactly the tree a fresh per-component
    // searcher would (their objects and constraints are disjoint), and the
    // accumulated path *is* the composed serialization. The state budget
    // and the explored counter are naturally global this way.
    let total = setup.plan.components.len() as u64;
    let mut decided: u64 = 0;
    for comp in &setup.plan.components {
        // The in-search deadline sampling only runs while expanding; a
        // between-components check keeps many-small-component specs
        // responsive too. The interrupt flag shares the slot.
        if s.deadline_expired() {
            let stats = s.stats();
            return (
                Verdict::Unknown {
                    explored: stats.explored,
                    reason: crate::UnknownReason::Deadline,
                    partial: Some(crate::PartialProgress::components(decided, total)),
                },
                stats,
            );
        }
        if setup.cfg.interruptible && crate::snapshot::interrupt_requested() {
            let stats = s.stats();
            return (
                Verdict::Unknown {
                    explored: stats.explored,
                    reason: crate::UnknownReason::Interrupted,
                    partial: Some(crate::PartialProgress::components(decided, total)),
                },
                stats,
            );
        }
        s.restrict(comp);
        let path_start = s.path_len();
        let mut replayed = false;
        if let Some(c) = cache.as_deref_mut() {
            let members: Vec<TxnId> = comp.iter().map(|&i| spec.txns[i].id).collect();
            if let Some(frag) = c.lookup(&members) {
                let frag = frag.to_vec();
                if frag.len() == comp.len() && try_replay(&mut s, spec, &frag) {
                    c.reuses += 1;
                    let fragment = Fragment {
                        members,
                        placements: frag,
                    };
                    c.store(fragment, s.stats().explored);
                    replayed = true;
                }
            }
        }
        if replayed {
            decided += 1;
            continue;
        }
        let outcome = s.search();
        match outcome {
            Outcome::Found => {
                decided += 1;
                if let Some(c) = cache.as_deref_mut() {
                    let fragment = Fragment {
                        members: comp.iter().map(|&i| spec.txns[i].id).collect(),
                        placements: s
                            .path_slice(path_start)
                            .iter()
                            .map(|&(i, f)| (spec.txns[i].id, f))
                            .collect(),
                    };
                    c.store(fragment, s.stats().explored);
                }
            }
            Outcome::Exhausted => {
                let stats = s.stats();
                let verdict = Verdict::Violated(Violation::NoSerialization {
                    criterion: setup.criterion.display_name().to_owned(),
                    explored: stats.explored,
                });
                return (verdict, stats);
            }
            Outcome::Budget => {
                let stats = s.stats();
                let reason = s.unknown_reason();
                return (
                    Verdict::Unknown {
                        explored: stats.explored,
                        reason,
                        partial: Some(crate::PartialProgress::components(decided, total)),
                    },
                    stats,
                );
            }
            Outcome::Cancelled => unreachable!("sequential search cannot be cancelled"),
        }
    }
    let stats = s.stats();
    let verdict = Verdict::Satisfied(witness_from_path(spec, s.path_slice(0)));
    (verdict, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::{HistoryBuilder, ObjId, TxnId, Value};

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    /// Two independent clusters on distinct objects, fully concurrent.
    fn two_cluster_history() -> duop_history::History {
        let (x, y) = (ObjId::new(0), ObjId::new(1));
        HistoryBuilder::new()
            .inv_write(t(1), x, v(1))
            .inv_write(t(3), y, v(7))
            .resp_ok(t(1))
            .resp_ok(t(3))
            .inv_try_commit(t(1))
            .inv_try_commit(t(3))
            .read(t(2), x, v(1))
            .read(t(4), y, v(7))
            .commit(t(2))
            .commit(t(4))
            .build()
    }

    #[test]
    fn splits_independent_clusters() {
        let h = two_cluster_history();
        let plan = Plan::build(&Prepared::of(&h), PlanCriterion::Du, true).unwrap();
        assert_eq!(plan.components.len(), 2, "plan: {plan:?}");
        let sizes: Vec<usize> = plan.components.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 2]);
        // Components are disjoint and cover every transaction.
        let mut all: Vec<usize> = plan.components.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn real_time_order_merges_components() {
        let (x, y) = (ObjId::new(0), ObjId::new(1));
        // T2 starts only after T1 finished: distinct objects, but the
        // real-time edge keeps them in one component.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x, v(1))
            .committed_writer(t(2), y, v(2))
            .build();
        let plan = Plan::build(&Prepared::of(&h), PlanCriterion::Du, true).unwrap();
        assert_eq!(plan.components.len(), 1);
    }

    #[test]
    fn singleton_supplier_forces_edge() {
        let x = ObjId::new(0);
        let h = HistoryBuilder::new()
            .inv_write(t(1), x, v(1))
            .inv_read(t(2), x)
            .resp_ok(t(1))
            .inv_try_commit(t(1))
            .resp_value(t(2), v(1))
            .commit(t(2))
            .build();
        let p = Prepared::of(&h);
        let spec = p.indexed();
        let plan = Plan::build(&p, PlanCriterion::Du, true).unwrap();
        let i1 = spec.index[&t(1)];
        let i2 = spec.index[&t(2)];
        // Not a real-time edge: T1's tryC is still pending.
        assert!(!spec.rt_preds[i2].contains(i1));
        assert!(
            plan.preds[i2].contains(i1),
            "expected forced edge ({i1}, {i2}) in {:?}",
            plan.preds
        );
    }

    #[test]
    fn zero_candidates_is_immediate_missing_writer() {
        let x = ObjId::new(0);
        let h = HistoryBuilder::new()
            .committed_reader(t(1), x, v(9))
            .build();
        let err = Plan::build(&Prepared::of(&h), PlanCriterion::Du, true).unwrap_err();
        assert!(matches!(err, Violation::MissingWriter { .. }));
    }

    #[test]
    fn forced_cycle_refutes_without_search() {
        let (x, y) = (ObjId::new(0), ObjId::new(1));
        // T2 reads T1's x = 1 before T1 invokes tryC, and T1 commits:
        // read-commit-order's edge T2 → T1 is acyclic with real time, but
        // T1, the read's sole supplier, is forced before T2 — a cycle
        // only through a forced edge.
        let h = HistoryBuilder::new()
            .write(t(1), x, v(1))
            .read(t(2), x, v(1))
            .commit(t(1))
            .commit(t(2))
            .build();
        let p = Prepared::of(&h);
        assert_eq!(
            Plan::build(&p, PlanCriterion::Rco, true).unwrap_err(),
            Violation::NoSerialization {
                criterion: "read-commit-order opacity".to_owned(),
                explored: 0,
            }
        );
        // Without forced edges, or without the criterion's edge, the
        // graph is acyclic.
        assert!(Plan::build(&p, PlanCriterion::Rco, false).is_ok());
        assert!(Plan::build(&p, PlanCriterion::FinalState, true).is_ok());

        // A cycle among the criterion's own edges is a ConstraintCycle:
        // a write skew whose reads each respond before the other
        // writer's tryC.
        let h = HistoryBuilder::new()
            .read(t(1), x, v(0))
            .read(t(2), y, v(0))
            .write(t(1), y, v(1))
            .write(t(2), x, v(2))
            .commit(t(1))
            .commit(t(2))
            .build();
        let err = Plan::build(&Prepared::of(&h), PlanCriterion::Rco, true).unwrap_err();
        assert_eq!(
            err,
            Violation::ConstraintCycle {
                txns: vec![t(1), t(2)]
            }
        );
    }

    #[test]
    fn topo_order_detects_cycles() {
        let mut a = BitSet::new(3);
        let mut b = BitSet::new(3);
        let c = BitSet::new(3);
        a.insert(1); // 1 → 0
        b.insert(0); // 0 → 1
        assert!(topo_order(&[a, b, c]).is_err());

        let mut p0 = BitSet::new(2);
        p0.insert(1); // 1 → 0
        let order = topo_order(&[p0, BitSet::new(2)]).unwrap();
        assert_eq!(order.len(), 2);
        let pos0 = order.iter().position(|&i| i == 0).unwrap();
        let pos1 = order.iter().position(|&i| i == 1).unwrap();
        assert!(pos1 < pos0);

        // The cyclic set is Kahn's leftover, sorted: the cycle's members
        // and everything downstream of it, nothing upstream or beside it.
        let graph = |n: usize, edges: &[(usize, usize)]| {
            let mut preds: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
            for &(a, b) in edges {
                preds[b].insert(a); // a → b
            }
            preds
        };
        // 0 → 1 ⇄ 2 → 3 → 4, and 5 alone: 0 and 5 are not blocked.
        let g = graph(6, &[(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)]);
        assert_eq!(topo_order(&g), Err(vec![1, 2, 3, 4]));
        // A downstream node with a lower index than the cycle, reached
        // before the cycle in index order: 3 → 4 → 3 feeds 0.
        let g = graph(5, &[(3, 4), (4, 3), (4, 0), (1, 2)]);
        assert_eq!(topo_order(&g), Err(vec![0, 3, 4]));
        // A self-loop is a cycle of one; its successor is downstream.
        let g = graph(3, &[(1, 1), (1, 2)]);
        assert_eq!(topo_order(&g), Err(vec![1, 2]));
        // A long cycle through every node.
        let g = graph(70, &(0..70).map(|i| (i, (i + 1) % 70)).collect::<Vec<_>>());
        assert_eq!(topo_order(&g), Err((0..70).collect()));
        // Acyclic: the order respects every edge.
        let edges = [(4, 0), (0, 2), (3, 2), (2, 1), (4, 1)];
        let order = topo_order(&graph(5, &edges)).unwrap();
        let pos = |x: usize| order.iter().position(|&i| i == x).unwrap();
        assert!(edges.iter().all(|&(a, b)| pos(a) < pos(b)), "{order:?}");
    }
}
