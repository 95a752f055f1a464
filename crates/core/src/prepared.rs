//! One prepared query: the history a criterion's serialization query runs
//! over, indexed once, with the must-precede facts every stage reads.
//!
//! A query that reaches the search passes through lint's prefilter,
//! saturation, the planner and the searcher. Each of them reads the same
//! [`Spec`] and the same facts of [`crate::must_precede`], so a
//! [`Prepared`] builds the spec and each fact once, on first use, and
//! every stage borrows them. They sit in `OnceLock`s, so the parallel
//! engine's workers can share one `Prepared` too, and a stage that turns
//! a query away before reading them (saturation's size gate) builds
//! nothing. dbcop's
//! checkers work the same way: a raw history is converted once into an
//! indexed "atomic" history that every checker consumes.
//!
//! Each stage computes the same function of the same facts it did when
//! it built them itself, so sharing them changes no output.

use crate::bitset::BitSet;
use crate::must_precede::{self, AntiDep, CommitEdge};
use crate::plan::PlanCriterion;
use crate::spec::Spec;
use crate::{Violation, Witness};
use duop_history::History;
use std::sync::OnceLock;

/// One query's history, its spec, and its must-precede facts.
pub(crate) struct Prepared<'h> {
    input: &'h History,
    /// Strict serializability's committed projection, when it differs
    /// from the input.
    projection: Option<History>,
    spec: OnceLock<Result<Spec, Violation>>,
    suppliers: OnceLock<Vec<BitSet>>,
    du_suppliers: OnceLock<Vec<BitSet>>,
    elig: OnceLock<Vec<BitSet>>,
    anti_deps: OnceLock<Vec<AntiDep>>,
    rco: OnceLock<Vec<CommitEdge>>,
    tms2: OnceLock<Vec<CommitEdge>>,
    /// The searchers of this query prune dead ends by the plain rule,
    /// without must-follow sets: the test-only reference that
    /// [`crate::graph_kernels`] builds with [`Self::with_plain_dead_ends`].
    plain_dead_ends: bool,
    /// The searchers of this query run one exact pass whatever the
    /// criterion: the test-only reference that [`crate::graph_kernels`]
    /// builds with [`Self::with_exact_only`].
    exact_only: bool,
    /// A du witness certified for exactly this history, which settles
    /// what the prefilter's stages could find ([`Self::with_du_witness`]).
    du_witness: Option<&'h Witness>,
}

impl<'h> Prepared<'h> {
    /// Prepares `h` for `criterion`'s query: the history
    /// [`PlanCriterion::prepare`] makes of it, indexed.
    pub(crate) fn new(h: &'h History, criterion: PlanCriterion) -> Self {
        Self::build(h, criterion.prepare(h))
    }

    /// Indexes `h` as it is: an already-prepared history, or one the
    /// query or lint report reads whole.
    pub(crate) fn of(h: &'h History) -> Self {
        Self::build(h, None)
    }

    fn build(input: &'h History, projection: Option<History>) -> Self {
        Prepared {
            input,
            projection,
            spec: OnceLock::new(),
            suppliers: OnceLock::new(),
            du_suppliers: OnceLock::new(),
            elig: OnceLock::new(),
            anti_deps: OnceLock::new(),
            rco: OnceLock::new(),
            tms2: OnceLock::new(),
            plain_dead_ends: false,
            exact_only: false,
            du_witness: None,
        }
    }

    /// This query with the plain dead-end rule: a read's value is lost
    /// only once every writer that could restore it is placed.
    pub(crate) fn with_plain_dead_ends(mut self) -> Self {
        self.plain_dead_ends = true;
        self
    }

    /// Whether the searchers of this query use the plain dead-end rule.
    pub(crate) fn plain_dead_ends(&self) -> bool {
        self.plain_dead_ends
    }

    /// This query searched in one exact pass, without the
    /// eligible-writers pass that du-opacity and the final-state family
    /// run first.
    pub(crate) fn with_exact_only(mut self) -> Self {
        self.exact_only = true;
        self
    }

    /// Whether the searchers of this query skip the eligible-writers pass.
    pub(crate) fn exact_only(&self) -> bool {
        self.exact_only
    }

    /// This query told that `w` is a du witness certified for exactly its
    /// history: a du query's prefilter skips the stages `w` settles
    /// (DESIGN.md §12, "Witness-gated prefilter"). Only the online
    /// monitor's batch verdict passes one.
    pub(crate) fn with_du_witness(mut self, w: &'h Witness) -> Self {
        self.du_witness = Some(w);
        self
    }

    /// The du witness certified for this history, if the caller passed one.
    pub(crate) fn du_witness(&self) -> Option<&'h Witness> {
        self.du_witness
    }

    /// The history the query runs over.
    pub(crate) fn history(&self) -> &History {
        self.projection.as_ref().unwrap_or(self.input)
    }

    /// The spec, or the internal read inconsistency that rules one out.
    pub(crate) fn spec(&self) -> Result<&Spec, &Violation> {
        self.spec
            .get_or_init(|| Spec::build(self.history()))
            .as_ref()
    }

    /// The spec, for the stages that run only once [`Self::spec`] has
    /// succeeded: the planner, the searcher and the fact builders.
    pub(crate) fn indexed(&self) -> &Spec {
        self.spec()
            .expect("stage runs only over a history with a spec")
    }

    /// Supplier sets per read slot: du-eligible ones when `du`, plain
    /// ones otherwise ([`must_precede::supplier_sets`]).
    pub(crate) fn suppliers(&self, du: bool) -> &[BitSet] {
        let cell = if du {
            &self.du_suppliers
        } else {
            &self.suppliers
        };
        cell.get_or_init(|| must_precede::supplier_sets(self.indexed(), du))
    }

    /// Du eligibility per read slot ([`must_precede::eligibility`]).
    pub(crate) fn eligibility(&self) -> &[BitSet] {
        self.elig
            .get_or_init(|| must_precede::eligibility(self.indexed()))
    }

    /// The initial-value anti-dependencies ([`must_precede::anti_deps`]).
    pub(crate) fn anti_deps(&self) -> &[AntiDep] {
        self.anti_deps
            .get_or_init(|| must_precede::anti_deps(self.indexed()))
    }

    /// Read-commit-order edges ([`must_precede::rco`]).
    pub(crate) fn rco(&self) -> &[CommitEdge] {
        self.rco.get_or_init(|| must_precede::rco(self.history()))
    }

    /// TMS2 commit-order edges ([`must_precede::tms2`]).
    pub(crate) fn tms2(&self) -> &[CommitEdge] {
        self.tms2.get_or_init(|| must_precede::tms2(self.history()))
    }
}

#[cfg(test)]
mod tests {
    use super::Prepared;
    use crate::online::OnlineChecker;
    use crate::plan::{
        check_planned, plan_components, Plan, PlanCriterion, PlanScratch, CONSTRAINT_BUILDS,
        TOPO_ORDERS,
    };
    use crate::search::CLOSURES;
    use crate::spec::BUILDS;
    use crate::SearchConfig;
    use duop_gen::{anomalies, HistoryGen, HistoryGenConfig};
    use duop_history::{History, HistoryBuilder, ObjId, TxnId, Value};
    use std::cell::Cell;

    /// `Spec::build` calls on this thread while `f` runs.
    fn spec_builds(f: impl FnOnce()) -> usize {
        let before = BUILDS.with(|b| b.get());
        f();
        BUILDS.with(|b| b.get()) - before
    }

    fn corpus() -> Vec<History> {
        let (t, x, v) = (TxnId::new, ObjId::new(0), Value::new);
        let mut out: Vec<History> = anomalies::catalogue().into_iter().map(|(_, h)| h).collect();
        for seed in 0..12 {
            let cfg = HistoryGenConfig::small_adversarial().with_txns(8);
            out.push(HistoryGen::new(cfg, seed).generate());
        }
        for seed in 0..3 {
            let cfg = HistoryGenConfig::medium_simulated().with_txns(24);
            out.push(HistoryGen::new(cfg, seed).generate());
        }
        // No spec at all: an internal read inconsistency.
        out.push(
            HistoryBuilder::new()
                .write(t(1), x, v(3))
                .read(t(1), x, v(4))
                .commit(t(1))
                .build(),
        );
        // A transaction that never commits, so strict projects.
        out.push(
            HistoryBuilder::new()
                .committed_writer(t(1), x, v(1))
                .write(t(2), x, v(2))
                .commit_aborted(t(2))
                .committed_reader(t(3), x, v(1))
                .build(),
        );
        out
    }

    /// The batch path builds one spec per query, whichever stage decides
    /// it and whichever stages are switched off. A budget of one state
    /// sends undecided queries down the degradation ladder too.
    #[test]
    fn one_spec_build_per_query() {
        let criteria = [
            PlanCriterion::FinalState,
            PlanCriterion::Du,
            PlanCriterion::Rco,
            PlanCriterion::Tms2,
            PlanCriterion::Strict,
        ];
        for h in corpus() {
            for criterion in criteria {
                for bits in 0..16u8 {
                    let cfg = SearchConfig {
                        prelint: bits & 1 != 0,
                        saturate: bits & 2 != 0,
                        decompose: bits & 4 != 0,
                        max_states: (bits & 8 != 0).then_some(1),
                        threads: None,
                        ..SearchConfig::default()
                    };
                    let builds = spec_builds(|| {
                        check_planned(&h, criterion, &cfg, None);
                    });
                    assert_eq!(builds, 1, "{criterion:?} {cfg:?} on {h:?}");
                }
            }
        }
    }

    /// Precedence-graph work on this thread while `f` runs: calls of
    /// `build_constraints`, `topo_order` and the must-follow closure.
    fn graph_work(f: impl FnOnce()) -> [usize; 3] {
        let read = || {
            [
                CONSTRAINT_BUILDS.with(Cell::get),
                TOPO_ORDERS.with(Cell::get),
                CLOSURES.with(Cell::get),
            ]
        };
        let before = read();
        f();
        let after = read();
        [0, 1, 2].map(|k| after[k] - before[k])
    }

    /// The planner builds one precedence graph per query that reaches it,
    /// and the search computes one closure from it, in either planner
    /// setting and at any thread count: searchers only borrow. A query
    /// that lint or saturation decides builds neither, and component
    /// extraction for the shard coordinator computes no closure.
    #[test]
    fn one_precedence_graph_per_query() {
        let criteria = [
            PlanCriterion::FinalState,
            PlanCriterion::Du,
            PlanCriterion::Rco,
            PlanCriterion::Tms2,
            PlanCriterion::Strict,
        ];
        for h in corpus() {
            for criterion in criteria {
                for bits in 0..32u8 {
                    let cfg = SearchConfig {
                        prelint: bits & 1 != 0,
                        saturate: bits & 2 != 0,
                        decompose: bits & 4 != 0,
                        max_states: (bits & 8 != 0).then_some(1),
                        threads: (bits & 16 != 0).then_some(2),
                        ..SearchConfig::default()
                    };
                    // Which stage decides, found without a graph.
                    let p = Prepared::new(&h, criterion);
                    let reaches_planner = p.spec().is_ok()
                        && !(cfg.prelint && crate::lint::prelint(&p, criterion).is_some())
                        && !(cfg.saturate
                            && crate::saturate::verdict_of(
                                crate::saturate::saturate_prepared(&p, criterion),
                                criterion,
                            )
                            .is_some());
                    let reaches_search =
                        reaches_planner && Plan::build(&p, criterion, cfg.decompose).is_ok();

                    let [constraints, topos, closures] = graph_work(|| {
                        check_planned(&h, criterion, &cfg, None);
                    });
                    let at = format!("{criterion:?} {cfg:?} on {h:?}");
                    assert_eq!(constraints, usize::from(reaches_planner), "{at}");
                    assert_eq!(closures, usize::from(reaches_search), "{at}");
                    // Lint's cycle rules share the topological check; where
                    // lint runs neither as the prefilter nor as the tier of
                    // a budgeted search's ladder, the planner's checks are
                    // the only ones.
                    if !cfg.prelint && cfg.max_states.is_none() {
                        assert!(topos <= 2, "{topos} topological checks: {at}");
                    }
                }
                let prepared = criterion.prepare(&h);
                let hp = prepared.as_ref().unwrap_or(&h);
                let [constraints, topos, closures] = graph_work(|| {
                    plan_components(hp, criterion, &mut PlanScratch::new());
                });
                assert!(constraints <= 1 && topos <= 2, "{criterion:?} on {h:?}");
                assert_eq!(closures, 0, "{criterion:?} on {h:?}");
            }
        }
    }

    /// The online monitor's fallback builds one spec for its prefilter
    /// and its search, and none when a witness adapts.
    #[test]
    fn monitor_builds_at_most_one_spec_per_push() {
        for h in corpus() {
            let mut monitor = OnlineChecker::new();
            for &event in h.events() {
                let builds = spec_builds(|| {
                    let _ = monitor.push(event);
                });
                assert!(builds <= 1, "{builds} builds on one push of {h:?}");
            }
        }
    }
}
