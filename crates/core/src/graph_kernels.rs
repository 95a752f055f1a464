//! Plain-data entry points to the precedence-graph kernels, for the
//! equivalence suite (`tests/graph_kernels.rs`), which keeps the literal
//! form of each kernel as its reference. Not a stable API.
//!
//! The kernels: the topological check behind lint CY004 and the planner;
//! the search's fail-first closure; the planner's union-find over order
//! edges; the touched-only dead-end check; the saturation closure; and
//! lint AN005's two-cycle index. Graphs are given as predecessor lists:
//! edge `i → j` iff `preds[j]` contains `i`.
//!
//! The searcher's dead-end rule has a reference here too: the plain rule,
//! under which a read's value is lost only once every writer that could
//! restore it is placed. [`check_plain_dead_ends`] and
//! [`opacity_plain_dead_ends`] run the whole check pipeline with it, for
//! the differential suite `tests/dead_end_pruning.rs`. So does its
//! first-pass table: [`check_exact_only`] and [`opacity_exact_only`]
//! search every criterion in one exact pass, for the differential suite
//! `tests/eligible_first_pass.rs`.
//!
//! In debug builds the searcher checks its incremental memo key and its
//! open-position frontier against their from-scratch definitions at
//! every expansion; `search_cross_checks` counts those checks, so
//! `tests/incremental_search_state.rs` can prove they ran.

use crate::bitset::BitSet;
use crate::must_precede::AntiDep;
use crate::plan::{Plan, PlanCriterion};
use crate::prepared::Prepared;
use crate::search::{Outcome, SearchConfig, SearchStats, Searcher, Setup};
use crate::Verdict;
use duop_history::History;

fn bitsets(sets: &[Vec<usize>]) -> Vec<BitSet> {
    sets.iter()
        .map(|m| {
            let mut s = BitSet::new(sets.len());
            for &i in m {
                s.insert(i);
            }
            s
        })
        .collect()
}

fn members(sets: &[BitSet]) -> Vec<Vec<usize>> {
    sets.iter().map(|s| s.iter_ones().collect()).collect()
}

/// The topological check: a topological order, or the sorted indices on
/// a cycle or downstream of one.
pub fn topo_order(preds: &[Vec<usize>]) -> Result<Vec<usize>, Vec<usize>> {
    crate::plan::topo_order(&bitsets(preds))
}

/// The searcher's fail-first closure: every node's descendant set, or
/// `None` when the graph is cyclic.
pub fn descendants(preds: &[Vec<usize>]) -> Option<Vec<Vec<usize>>> {
    let preds = bitsets(preds);
    let topo = crate::plan::topo_order(&preds).ok()?;
    Some(members(&crate::search::descendants(&preds, &topo)))
}

/// Debug builds: how many times, in this process, a searcher has checked
/// its incremental memo key against the XOR of every term of its state,
/// and its open-position frontier against the scan of the fail-first
/// order.
#[cfg(debug_assertions)]
pub fn search_cross_checks() -> u64 {
    crate::search::CROSS_CHECKS.load(std::sync::atomic::Ordering::Relaxed)
}

/// The planner's union-find over order edges: the connected components
/// of `preds ∪ commit_preds`, each sorted, ordered by smallest member.
pub fn order_components(preds: &[Vec<usize>], commit_preds: &[Vec<usize>]) -> Vec<Vec<usize>> {
    crate::plan::order_components(&bitsets(preds), &bitsets(commit_preds))
}

/// A transitive closure and how it was derived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Closure {
    /// The closed successor lists.
    pub reach: Vec<Vec<usize>>,
    /// Each added edge as `(i, j, pivot)`, in the order it was added.
    pub added: Vec<(usize, usize, usize)>,
}

/// Saturation's closure of the successor lists `reach` (edge `i → j` iff
/// `reach[i]` contains `j`).
pub fn transitive_close(reach: &[Vec<usize>]) -> Closure {
    let mut sets = bitsets(reach);
    let mut added = Vec::new();
    crate::saturate::transitive_close(&mut sets, |i, j, k| added.push((i, j, k)));
    Closure {
        reach: members(&sets),
        added,
    }
}

/// Lint AN005's anti-dependency two-cycles, as position pairs in
/// emission order.
pub fn an005_pairs(deps: &[AntiDep]) -> Vec<(usize, usize)> {
    crate::lint::an005_pairs(deps)
}

/// Checks `h` against `criterion` as
/// [`check_criterion_with_stats`](crate::check_criterion_with_stats)
/// does, with every search pruning dead ends by the plain rule.
pub fn check_plain_dead_ends(
    h: &History,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
) -> (Verdict, SearchStats) {
    let p = Prepared::new(h, criterion).with_plain_dead_ends();
    crate::search::check_prepared(&p, criterion, cfg, None)
}

/// Checks `h` against opacity as [`crate::Opacity`] does, with every
/// search of its prefix loop pruning dead ends by the plain rule.
pub fn opacity_plain_dead_ends(h: &History, cfg: &SearchConfig) -> Verdict {
    crate::criteria::opacity_prefix_loop(h, |prefix| {
        check_plain_dead_ends(prefix, PlanCriterion::FinalState, cfg).0
    })
}

/// Checks `h` against `criterion` as
/// [`check_criterion_with_stats`](crate::check_criterion_with_stats)
/// does, with every search in one exact pass: no eligible-writers pass
/// first.
pub fn check_exact_only(
    h: &History,
    criterion: PlanCriterion,
    cfg: &SearchConfig,
) -> (Verdict, SearchStats) {
    let p = Prepared::new(h, criterion).with_exact_only();
    crate::search::check_prepared(&p, criterion, cfg, None)
}

/// Checks `h` against opacity as [`crate::Opacity`] does, with every
/// search of its prefix loop in one exact pass.
pub fn opacity_exact_only(h: &History, cfg: &SearchConfig) -> Verdict {
    crate::criteria::opacity_prefix_loop(h, |prefix| {
        check_exact_only(prefix, PlanCriterion::FinalState, cfg).0
    })
}

/// What [`dead_end_audit`] compared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadEndAudit {
    /// Placements checked both ways.
    pub placements: u64,
    /// Placements both checks found to be dead ends.
    pub dead_ends: u64,
    /// Dead ends only the must-follow sets reveal (dead roots included),
    /// from which a budgeted plain-rule search exhausted.
    pub confirmed: u64,
    /// Dead ends only the must-follow sets reveal, from which the plain
    /// search ran out of budget: no witness found, none ruled out.
    pub unconfirmed: u64,
    /// Search roots (per component and pass) that only the must-follow
    /// sets find dead; the walk skips them.
    pub dead_roots: u64,
    /// First-pass roots (per component) that both rules find dead: a
    /// read no eligible writer can serve. The walk skips them, and the
    /// search goes on to its exact pass.
    pub dead_first_roots: u64,
}

/// Walks the search tree of `criterion`'s query over `h` component by
/// component, as the sequential planned search does, and checks the
/// dead-end rule after every placement: an exhaustive depth-first walk
/// without memo, up to `max_placements` per component and pruning pass,
/// from each root the all-slot scan finds alive; then the real search
/// (with a state budget of `max_placements`) places the component before
/// the next. After each placement:
///
/// * the touched-only check equals the all-slot scan;
/// * a dead end by the plain rule is a dead end by the searcher's rule;
/// * from a dead end only the searcher's rule finds, a plain-rule search
///   of up to `max_placements` states finds no witness.
///
/// No root of an exact pass is dead by the plain rule, and from a dead
/// root, too, the plain-rule search finds no witness. A first pass's
/// root may be dead by design — some read has no eligible writer left
/// to serve it — and then both rules must find it dead, and the search
/// must go on to its exact pass.
///
/// `Err` describes the first failure. A history the spec or the planner
/// refutes has nothing to walk.
pub fn dead_end_audit(
    h: &History,
    criterion: PlanCriterion,
    max_placements: u64,
) -> Result<DeadEndAudit, String> {
    let mut audit = DeadEndAudit::default();
    let p = Prepared::new(h, criterion);
    if p.spec().is_err() {
        return Ok(audit);
    }
    let Ok(plan) = Plan::build(&p, criterion, true) else {
        return Ok(audit);
    };
    let cfg = SearchConfig {
        max_states: Some(max_placements),
        ..SearchConfig::default()
    };
    let n = plan.preds.len();
    let plain = vec![BitSet::new(n); n];
    let setup = Setup::new(&p, &cfg, criterion, &plan);
    let mut s = Searcher::new(&setup);
    let mut walker = Walker {
        plain: &plain,
        max_placements,
        budget: 0,
        audit: &mut audit,
    };
    let passes = setup.passes();
    let (&exact, first) = passes.split_last().expect("at least one pass");
    for comp in &plan.components {
        s.restrict(comp);
        let mut dead_first_root = false;
        for (k, &eligible_global) in passes.iter().enumerate() {
            s.eligible_global = eligible_global;
            if walker.plain_dead_end(&mut s) {
                if k == first.len() {
                    return Err(format!(
                        "the plain rule finds the root of component {comp:?} dead \
                         (exact pass, eligible_global {eligible_global})"
                    ));
                }
                if !s.dead_end() {
                    return Err(format!(
                        "the plain rule finds the root of component {comp:?} dead in \
                         pass {k}, the searcher's rule alive"
                    ));
                }
                walker.audit.dead_first_roots += 1;
                dead_first_root = true;
                continue;
            }
            if s.dead_end() {
                walker.audit.dead_roots += 1;
                walker.confirm(&mut s)?;
                continue;
            }
            walker.budget = max_placements;
            walker.walk(&mut s)?;
        }
        let found = matches!(s.search(), Outcome::Found);
        if dead_first_root && s.eligible_global != exact {
            return Err(format!(
                "component {comp:?}: the first pass's root is dead, yet the search \
                 stopped before its exact pass"
            ));
        }
        if !found {
            break;
        }
    }
    Ok(audit)
}

/// The state of one [`dead_end_audit`].
struct Walker<'a, 's> {
    /// Empty must-follow sets: swapped into the searcher, they make its
    /// rule the plain one.
    plain: &'s [BitSet],
    max_placements: u64,
    /// Placements left in the current walk.
    budget: u64,
    audit: &'a mut DeadEndAudit,
}

impl<'s> Walker<'_, 's> {
    fn walk(&mut self, s: &mut Searcher<'s>) -> Result<(), String> {
        let mut children = Vec::new();
        s.children_into(&mut children);
        for (i, committed) in children {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            let undo = s.place(i, committed);
            let result = self.check(s, i);
            s.unplace(i, undo);
            result?;
        }
        Ok(())
    }

    /// Checks the state right after placing `i`, then walks below it if
    /// it is alive.
    fn check(&mut self, s: &mut Searcher<'s>, i: usize) -> Result<(), String> {
        self.audit.placements += 1;
        let (after, full) = (s.dead_end_after(i), s.dead_end());
        let plain = self.plain_dead_end(s);
        if after != full {
            return Err(format!(
                "{}: touched-only check says {after}, all-slot scan says {full}",
                at(s)
            ));
        }
        if plain && !full {
            return Err(format!("{}: dead by the plain rule only", at(s)));
        }
        if !full {
            return self.walk(s);
        }
        self.audit.dead_ends += 1;
        if plain {
            return Ok(());
        }
        self.confirm(s)
    }

    /// Runs a plain-rule search from a state only the must-follow sets
    /// call dead, which must find no witness.
    fn confirm(&mut self, s: &mut Searcher<'s>) -> Result<(), String> {
        let state = at(s);
        match self.plain_search(s) {
            Outcome::Exhausted => self.audit.confirmed += 1,
            Outcome::Budget => self.audit.unconfirmed += 1,
            Outcome::Found => {
                return Err(format!(
                    "{state}: dead by the must-follow sets, yet the plain search \
                     completes it to {:?}",
                    s.path
                ))
            }
            Outcome::Cancelled => unreachable!("the audit's search is sequential"),
        }
        Ok(())
    }

    /// Whether the current state is a dead end by the plain rule.
    fn plain_dead_end(&mut self, s: &mut Searcher<'s>) -> bool {
        std::mem::swap(&mut s.desc, &mut self.plain);
        let dead = s.dead_end();
        std::mem::swap(&mut s.desc, &mut self.plain);
        dead
    }

    /// A plain-rule search from the current state, with a budget of
    /// `max_placements` states and a memo of its own. The searcher's
    /// counters, budget and memo are restored afterwards; on `Found` its
    /// path keeps the completion.
    fn plain_search(&mut self, s: &mut Searcher<'s>) -> Outcome {
        std::mem::swap(&mut s.desc, &mut self.plain);
        let (explored, memo_hits, dead_ends, budget) =
            (s.explored, s.memo_hits, s.dead_ends, s.budget);
        s.explored = 0;
        s.budget.max_states = Some(self.max_placements);
        let outcome = s.dfs();
        (s.explored, s.memo_hits, s.dead_ends, s.budget) = (explored, memo_hits, dead_ends, budget);
        s.unknown = None;
        s.clear_memo();
        std::mem::swap(&mut s.desc, &mut self.plain);
        outcome
    }
}

/// Where the searcher stands, for a failure message.
fn at(s: &Searcher<'_>) -> String {
    format!(
        "after path {:?} (eligible_global {})",
        s.path, s.eligible_global
    )
}
