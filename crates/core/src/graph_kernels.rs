//! Plain-data entry points to the precedence-graph kernels, for the
//! equivalence suite (`tests/graph_kernels.rs`), which keeps the literal
//! form of each kernel as its reference. Not a stable API.
//!
//! The kernels: the topological check behind lint CY004, the planner and
//! the searcher; the searcher's fail-first closure; the planner's
//! union-find over order edges; the touched-only dead-end check; the
//! saturation closure; and lint AN005's two-cycle index. Graphs are given
//! as predecessor lists: edge `i → j` iff `preds[j]` contains `i`.

use crate::bitset::BitSet;
use crate::must_precede::AntiDep;
use crate::plan::{Plan, PlanCriterion};
use crate::prepared::Prepared;
use crate::search::{Outcome, SearchConfig, Searcher};
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

/// What [`dead_end_audit`] compared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadEndAudit {
    /// Placements checked both ways.
    pub placements: u64,
    /// Placements both checks found to be dead ends.
    pub dead_ends: u64,
}

/// Walks the search tree of `criterion`'s query over `h` component by
/// component, as the sequential planned search does, and compares the
/// touched-only dead-end check with the all-slot scan after every
/// placement: an exhaustive depth-first walk without memo, up to
/// `max_placements` per component and pruning pass, then the real
/// search (with a state budget of `max_placements`) places the component
/// before the next. `Err` describes the first disagreement. A history
/// the spec or the planner refutes has nothing to walk.
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
    let query = criterion.query(&p);
    let Ok(plan) = Plan::build(&p, &query) else {
        return Ok(audit);
    };
    let cfg = SearchConfig {
        max_states: Some(max_placements),
        ..SearchConfig::default()
    };
    let Ok(mut s) = Searcher::new(&p, &cfg, &query, &plan.forced) else {
        return Ok(audit);
    };
    let passes: &[bool] = if query.deferred_update {
        &[true, false]
    } else {
        &[false]
    };
    for comp in &plan.components {
        s.restrict(comp);
        for &eligible_global in passes {
            s.eligible_global = eligible_global;
            let mut budget = max_placements;
            walk(&mut s, &mut budget, &mut audit)?;
        }
        if !matches!(s.search(), Outcome::Found) {
            break;
        }
    }
    Ok(audit)
}

fn walk(s: &mut Searcher<'_>, budget: &mut u64, audit: &mut DeadEndAudit) -> Result<(), String> {
    let mut children = Vec::new();
    s.children_into(&mut children);
    for (i, committed) in children {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        let undo = s.place(i, committed);
        audit.placements += 1;
        let (after, full) = (s.dead_end_after(i), s.dead_end());
        let result = if after != full {
            Err(format!(
                "after path {:?} (eligible_global {}): touched-only check says {after}, \
                 all-slot scan says {full}",
                s.path, s.eligible_global
            ))
        } else if full {
            audit.dead_ends += 1;
            Ok(())
        } else {
            walk(s, budget, audit)
        };
        s.unplace(i, undo);
        result?;
    }
    Ok(())
}
