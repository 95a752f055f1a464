//! Incremental, per-event du-opacity monitoring.
//!
//! [`OnlineChecker`] consumes a history one event at a time and reports
//! after each event whether the prefix seen so far is du-opaque. It
//! exploits two results of the paper:
//!
//! * **Corollary 2** (prefix-closure): once a prefix is not du-opaque no
//!   extension can be, so a violation verdict is final;
//! * **Lemma 1** (witness restriction): serializations of prefixes embed
//!   into serializations of extensions, so the witness found for the
//!   previous prefix is an excellent candidate for the next one — the
//!   monitor first tries cheap adaptations of it and only falls back to a
//!   full search when they all fail.
//!
//! Even the fallback searches are incremental: the search planner
//! ([`crate::plan`]) decomposes each prefix into conflict-graph
//! components, and the monitor caches each component's serialization
//! fragment between events. A new event typically perturbs only the
//! component of the transaction it belongs to; every other component's
//! cached fragment is *replayed* through the searcher's own placement
//! rules (so reuse is validated, never trusted) and only the touched
//! component is actually re-searched.

use crate::plan::{ComponentCache, PlanCriterion};
use crate::search::decide_spec;
use crate::spec::Spec;
use crate::{check_witness, CriterionKind, SearchConfig, Verdict, Witness};
use duop_history::{Event, History, MalformedHistoryError, ObjId, Op, Ret, TxnId, Value};
use std::collections::BTreeMap;

/// Counters describing how much work the monitor has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Events accepted so far.
    pub events: usize,
    /// Prefixes certified by adapting the previous witness (no search).
    pub incremental_hits: usize,
    /// Prefixes that needed a full serialization search.
    pub full_searches: usize,
    /// Conflict-graph components certified during fallback searches by
    /// replaying a cached fragment instead of searching.
    pub component_reuses: u64,
    /// Prefixes refuted by the polynomial lint prefilter, skipping the
    /// fallback search entirely.
    pub lint_refutations: u64,
    /// Events currently retained in the monitor's history (its resident
    /// working set — what a checkpoint must persist).
    pub retained_events: usize,
    /// High-water mark of `retained_events` over the monitor's lifetime
    /// (survives checkpoint/resume).
    pub peak_resident_events: usize,
    /// Times a certified t-complete prefix was replaced by its synthetic
    /// baseline transaction (see [`OnlineChecker::try_compact`]).
    pub compactions: u64,
    /// Total events discarded by compactions (each compaction drops the
    /// whole retained history and re-seeds it with the baseline events).
    pub compacted_events: u64,
}

/// A per-event du-opacity monitor.
///
/// # Examples
///
/// ```
/// use duop_core::online::OnlineChecker;
/// use duop_history::{Event, Op, Ret, ObjId, TxnId, Value};
///
/// let t1 = TxnId::new(1);
/// let x = ObjId::new(0);
/// let mut mon = OnlineChecker::new();
/// assert!(mon.push(Event::inv(t1, Op::Write(x, Value::new(1))))?.is_satisfied());
/// assert!(mon.push(Event::resp(t1, Ret::Ok))?.is_satisfied());
/// assert!(mon.push(Event::inv(t1, Op::TryCommit))?.is_satisfied());
/// assert!(mon.push(Event::resp(t1, Ret::Committed))?.is_satisfied());
/// # Ok::<(), duop_history::MalformedHistoryError>(())
/// ```
#[derive(Debug, Default)]
pub struct OnlineChecker {
    history: History,
    witness: Option<Witness>,
    violated: Option<Verdict>,
    cfg: SearchConfig,
    stats: OnlineStats,
    /// Per-component serialization fragments from the previous fallback
    /// search, reused (after replay validation) by the next one.
    cache: ComponentCache,
    /// When set, the monitor attempts a [`Self::try_compact`] whenever a
    /// certified prefix has grown past this many retained events.
    compact_every: Option<usize>,
}

impl OnlineChecker {
    /// Creates a monitor over the empty history.
    pub fn new() -> Self {
        OnlineChecker::default()
    }

    /// Creates a monitor with an explicit search configuration for the
    /// fallback searches.
    pub fn with_config(cfg: SearchConfig) -> Self {
        OnlineChecker {
            cfg,
            ..OnlineChecker::default()
        }
    }

    /// Reconstructs a monitor from checkpointed state (see
    /// [`crate::snapshot`]).
    ///
    /// Nothing from the checkpoint is trusted: the witness is revalidated
    /// against the history before reuse (a stale or corrupt witness costs
    /// one fallback search, never a wrong verdict), and `violated` is
    /// expected to be a verdict the *caller* recomputed from the history
    /// itself — `duop resume` re-checks the prefix where the checkpoint
    /// says the violation occurred rather than deserializing a violation
    /// object.
    pub fn resume(
        history: History,
        witness: Option<Witness>,
        violated: Option<Verdict>,
        stats: OnlineStats,
        cfg: SearchConfig,
    ) -> Self {
        let witness =
            witness.filter(|w| check_witness(&history, w, CriterionKind::DuOpacity).is_ok());
        let mut stats = stats;
        stats.retained_events = history.len();
        stats.peak_resident_events = stats.peak_resident_events.max(history.len());
        OnlineChecker {
            history,
            witness,
            violated,
            cfg,
            stats,
            cache: ComponentCache::default(),
            compact_every: None,
        }
    }

    /// Enables (or disables, with `None`) automatic history compaction
    /// once the retained history outgrows `threshold` events. See
    /// [`Self::try_compact`] for what compaction does and when it is
    /// sound.
    pub fn set_compact_every(&mut self, threshold: Option<usize>) {
        self.compact_every = threshold;
    }

    /// The current automatic-compaction threshold (`None` = disabled).
    /// The serve daemon reads this back when re-arming a session resumed
    /// through [`Self::resume`], which deliberately starts with compaction
    /// off.
    pub fn compact_every(&self) -> Option<usize> {
        self.compact_every
    }

    /// The history consumed so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Work counters.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// The current witness serialization, if the prefix is certified
    /// du-opaque (checkpointed so a resumed monitor can start from it).
    pub fn witness(&self) -> Option<&Witness> {
        self.witness.as_ref()
    }

    /// The final violation verdict, once a prefix has been refuted
    /// (Corollary 2 makes it final).
    pub fn violation(&self) -> Option<&Verdict> {
        self.violated.as_ref()
    }

    /// Exports the component cache's serialization fragments for
    /// checkpointing (sorted, deterministic).
    pub fn export_fragments(&self) -> Vec<crate::snapshot::RawFragment> {
        self.cache.export_fragments()
    }

    /// Preloads checkpointed component fragments into the cache. They are
    /// replay-validated before any reuse, exactly like fragments the
    /// monitor cached itself.
    pub fn preload_fragments(&mut self, fragments: Vec<crate::snapshot::RawFragment>) {
        self.cache.preload(fragments);
    }

    /// Appends `event` and reports whether the extended prefix is
    /// du-opaque.
    ///
    /// Once a prefix is violated the verdict is final (Corollary 2) and
    /// every further push returns the same violation without searching.
    ///
    /// # Errors
    ///
    /// Returns a [`MalformedHistoryError`] if the event does not extend the
    /// history to a well-formed one; the event is discarded and the monitor
    /// state is unchanged.
    pub fn push(&mut self, event: Event) -> Result<Verdict, MalformedHistoryError> {
        self.history.push_checked(event)?;
        self.stats.events += 1;
        self.stats.retained_events = self.history.len();
        self.stats.peak_resident_events = self.stats.peak_resident_events.max(self.history.len());

        if let Some(v) = &self.violated {
            return Ok(v.clone());
        }

        // Candidate witnesses adapted from the previous prefix's witness.
        for candidate in self.candidates(event) {
            if check_witness(&self.history, &candidate, CriterionKind::DuOpacity).is_ok() {
                self.stats.incremental_hits += 1;
                self.witness = Some(candidate.clone());
                self.maybe_auto_compact();
                return Ok(Verdict::Satisfied(candidate));
            }
        }

        // Cheap polynomial prefilter before any search: an Error-severity
        // lint finding for the du scope is a proven refutation, and lint
        // runs per event in polynomial time.
        if self.cfg.prelint {
            if let Some(v) =
                crate::lint::prelint(&self.history, crate::lint::LintScope::Du, "du-opacity")
            {
                self.stats.lint_refutations += 1;
                let verdict = Verdict::Violated(v);
                self.violated = Some(verdict.clone());
                return Ok(verdict);
            }
        }

        // Full search — planned per conflict-graph component, reusing the
        // previous search's fragments for components the event left alone.
        self.stats.full_searches += 1;
        self.cache.begin_generation();
        let query = PlanCriterion::Du.query(&self.history);
        let verdict = match Spec::build(&self.history) {
            Err(v) => Verdict::Violated(v),
            Ok(spec) => decide_spec(&spec, &query, &self.cfg, Some(&mut self.cache)).0,
        };
        self.stats.component_reuses = self.cache.reuses;
        match &verdict {
            Verdict::Satisfied(w) => {
                self.witness = Some(w.clone());
                self.maybe_auto_compact();
            }
            Verdict::Violated(_) => self.violated = Some(verdict.clone()),
            Verdict::Unknown { .. } => {}
        }
        Ok(verdict)
    }

    fn maybe_auto_compact(&mut self) {
        if let Some(n) = self.compact_every {
            if self.history.len() >= n.max(1) {
                self.try_compact();
            }
        }
    }

    /// Attempts to compact the retained history, returning whether it
    /// happened. On success the whole retained prefix is replaced by a
    /// synthetic committed *baseline* transaction [`TxnId::BASELINE`] that
    /// writes each t-object's final committed value — the paper's `T_0`
    /// convention (Section 2) re-applied at a later cut point — so the
    /// monitor's resident memory drops to a few events per object while
    /// verdicts for all future events are unchanged.
    ///
    /// Compaction is performed only when it is provably verdict-preserving:
    ///
    /// 1. **The prefix is certified**: the current witness re-validates
    ///    against the retained history (so the prefix is du-opaque, and by
    ///    Corollary 2 nothing before the cut can retroactively fail).
    /// 2. **The prefix is t-complete**: every transaction has terminated,
    ///    so every retained transaction `≺RT`-precedes every future one and
    ///    any serialization of any extension orders the whole prefix block
    ///    before the suffix (Lemma 1's embedding applies blockwise).
    /// 3. **Final values are forced**: for every t-object, the committed
    ///    writers contain one that `≺RT`-follows all the others. Every
    ///    serialization that respects `≺RT` then agrees on the object's
    ///    final committed value, so the baseline's writes do not depend on
    ///    *which* witness certified the prefix. Without this condition two
    ///    concurrent committed writers could leave either value, and
    ///    pinning one would wrongly refute suffixes consistent only with
    ///    the other.
    ///
    /// Under 1–3, a suffix extends the compacted history to a du-opaque
    /// one exactly when the original prefix plus suffix is du-opaque:
    /// serializations correspond block for block, with the baseline
    /// transaction standing in for the prefix block's (forced) net effect.
    ///
    /// If every retained transaction aborted, the baseline itself is empty
    /// and the history compacts to nothing — the `T_0` convention already
    /// covers all initial values.
    pub fn try_compact(&mut self) -> bool {
        if self.violated.is_some() || self.history.is_empty() {
            return false;
        }
        if !self.history.is_t_complete() {
            return false;
        }
        match &self.witness {
            Some(w) if check_witness(&self.history, w, CriterionKind::DuOpacity).is_ok() => {}
            _ => return false,
        }
        let Some(finals) = self.forced_final_values() else {
            return false;
        };

        let mut events: Vec<Event> = Vec::with_capacity(finals.len() * 2 + 2);
        for &(obj, value) in &finals {
            events.push(Event::inv(TxnId::BASELINE, Op::Write(obj, value)));
            events.push(Event::resp(TxnId::BASELINE, Ret::Ok));
        }
        if !finals.is_empty() {
            events.push(Event::inv(TxnId::BASELINE, Op::TryCommit));
            events.push(Event::resp(TxnId::BASELINE, Ret::Committed));
        }
        let dropped = self.history.len();
        let baseline = History::new(events).expect("baseline history is well-formed");
        self.witness = if finals.is_empty() {
            None
        } else {
            Some(Witness::new(vec![TxnId::BASELINE], BTreeMap::new()))
        };
        self.stats.compactions += 1;
        self.stats.compacted_events += dropped as u64;
        self.stats.retained_events = baseline.len();
        self.history = baseline;
        // Cached fragments serialize transactions that no longer exist.
        self.cache = ComponentCache::default();
        true
    }

    /// The forced final committed value of every committed-written
    /// t-object, or `None` if some object's final value depends on the
    /// serialization (two committed writers not ordered by `≺RT`).
    fn forced_final_values(&self) -> Option<Vec<(ObjId, Value)>> {
        // Committed writers per object as (first, last, final value).
        let mut writers: BTreeMap<ObjId, Vec<(usize, usize, Value)>> = BTreeMap::new();
        for t in self.history.txns() {
            if !t.is_committed() {
                continue;
            }
            for obj in t.write_set() {
                let value = t.last_write_to(obj).expect("write set implies a write");
                writers.entry(obj).or_default().push((
                    t.first_event_index(),
                    t.last_event_index(),
                    value,
                ));
            }
        }
        let mut finals = Vec::with_capacity(writers.len());
        for (obj, ws) in writers {
            let &(max_first, _, value) = ws.iter().max_by_key(|(first, _, _)| *first)?;
            for &(first, last, _) in &ws {
                if first != max_first && last >= max_first {
                    // A rival committed writer does not RT-precede the
                    // latest-starting one: the final value is not forced.
                    return None;
                }
            }
            finals.push((obj, value));
        }
        Some(finals)
    }

    /// Cheap adaptations of the previous witness to the extended history.
    fn candidates(&self, event: Event) -> Vec<Witness> {
        let Some(prev) = &self.witness else {
            // First event of the history: the single-transaction witness.
            return vec![Witness::new(vec![event.txn], BTreeMap::new())];
        };
        let mut out = Vec::new();

        let mut base_order = prev.order().to_vec();
        if !base_order.contains(&event.txn) {
            base_order.push(event.txn);
        }
        let choices = prev.commit_choices().clone();

        // 1. Same order, same choices.
        out.push(Witness::new(base_order.clone(), choices.clone()));

        // 2. The affected transaction moved to the end (a response often
        //    pushes a transaction later in the order, e.g. when it read a
        //    newly committed value).
        let mut moved = base_order.clone();
        moved.retain(|t| *t != event.txn);
        moved.push(event.txn);
        out.push(Witness::new(moved, choices.clone()));

        // 3. Same order with the affected transaction's pending-commit
        //    choice flipped both ways (a new tryC invocation opens the
        //    choice; a read from it may require commit).
        for decide in [true, false] {
            let mut flipped = choices.clone();
            flipped.insert(event.txn, decide);
            out.push(Witness::new(base_order.clone(), flipped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Criterion, DuOpacity};
    use duop_history::{HistoryBuilder, ObjId, Op, Ret, TxnId, Value};

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    /// Replays a complete history through the monitor, returning the final
    /// verdict.
    fn replay(h: &duop_history::History) -> (Verdict, OnlineStats) {
        let mut mon = OnlineChecker::new();
        let mut last = Verdict::Satisfied(Witness::new(Vec::new(), BTreeMap::new()));
        for ev in h.events() {
            last = mon.push(*ev).expect("well-formed prefix");
        }
        (last, mon.stats())
    }

    #[test]
    fn accepts_du_opaque_history_incrementally() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        let (verdict, stats) = replay(&h);
        assert!(verdict.is_satisfied());
        assert_eq!(stats.events, h.len());
        assert!(
            stats.incremental_hits > 0,
            "expected witness reuse: {stats:?}"
        );
    }

    #[test]
    fn flags_violation_and_stays_violated() {
        // Stale read: T2 reads 0 after T1 committed 1, entirely after T1.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .read(t(2), x(), v(0))
            .commit(t(2))
            .build();
        let mut mon = OnlineChecker::new();
        let mut first_violation = None;
        for (i, ev) in h.events().iter().enumerate() {
            let verdict = mon.push(*ev).unwrap();
            if verdict.is_violated() && first_violation.is_none() {
                first_violation = Some(i);
            }
        }
        // The violation appears exactly when the stale read's response
        // lands (event index 5) and persists.
        assert_eq!(first_violation, Some(5));
        let after = mon.push(Event::inv(t(3), Op::Read(x()))).unwrap();
        assert!(after.is_violated());
    }

    #[test]
    fn rejects_malformed_events_without_corruption() {
        let mut mon = OnlineChecker::new();
        mon.push(Event::inv(t(1), Op::Read(x()))).unwrap();
        let err = mon.push(Event::resp(t(1), Ret::Ok));
        assert!(err.is_err());
        // Monitor still usable with the correct response.
        let verdict = mon.push(Event::resp(t(1), Ret::Value(v(0)))).unwrap();
        assert!(verdict.is_satisfied());
        assert_eq!(mon.history().len(), 2);
    }

    #[test]
    fn pending_commit_read_through_is_tracked() {
        let mut mon = OnlineChecker::new();
        let events = [
            Event::inv(t(1), Op::Write(x(), v(1))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(1), Op::TryCommit),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(1))),
            Event::inv(t(2), Op::TryCommit),
            Event::resp(t(2), Ret::Committed),
        ];
        let mut last = None;
        for ev in events {
            last = Some(mon.push(ev).unwrap());
        }
        let verdict = last.unwrap();
        let w = verdict.witness().expect("du-opaque");
        assert_eq!(w.commit_choice(t(1)), Some(true));
    }

    #[test]
    fn expired_deadline_surfaces_as_unknown_per_push() {
        // Zero deadline: pushes certified by cheap witness adaptation stay
        // Satisfied, but the read response that forces a fallback search
        // must return Unknown(deadline) instead of searching unboundedly.
        let mut mon = OnlineChecker::with_config(crate::SearchConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..crate::SearchConfig::default()
        });
        let events = [
            Event::inv(t(1), Op::Write(x(), v(1))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(1), Op::TryCommit),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(1))),
        ];
        let mut last = None;
        for ev in events {
            last = Some(mon.push(ev).unwrap());
        }
        assert!(
            matches!(
                last,
                Some(Verdict::Unknown {
                    reason: crate::UnknownReason::Deadline,
                    ..
                })
            ),
            "expected deadline Unknown, got {last:?}"
        );
    }

    #[test]
    fn fallback_searches_reuse_untouched_components() {
        // Two disjoint overlapping clusters (x: T1/T2, y: T3/T4). Each
        // reader returns a commit-pending writer's value, which no cheap
        // witness adaptation certifies (the *writer's* fate must flip), so
        // both read responses force fallback searches. The second fallback
        // must replay the x-cluster's cached fragment instead of
        // re-searching it.
        let y = ObjId::new(1);
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_write(t(3), y, v(7))
            .resp_ok(t(1))
            .resp_ok(t(3))
            .inv_try_commit(t(1))
            .inv_try_commit(t(3))
            .inv_read(t(2), x())
            .resp_value(t(2), v(1))
            .inv_read(t(4), y)
            .resp_value(t(4), v(7))
            .commit(t(2))
            .commit(t(4))
            .build();
        let (verdict, stats) = replay(&h);
        assert!(verdict.is_satisfied());
        assert!(stats.full_searches >= 2, "stats: {stats:?}");
        assert!(
            stats.component_reuses > 0,
            "expected cached component fragments to be replayed: {stats:?}"
        );
    }

    #[test]
    fn compaction_replaces_certified_prefix_with_baseline() {
        let mut mon = OnlineChecker::new();
        mon.set_compact_every(Some(1));
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(2))
            .build();
        for ev in h.events() {
            assert!(mon.push(*ev).unwrap().is_satisfied());
        }
        let stats = mon.stats();
        assert!(stats.compactions > 0, "stats: {stats:?}");
        // The retained history is just the baseline transaction.
        assert!(mon.history().participates(TxnId::BASELINE));
        assert_eq!(mon.history().txn_count(), 1);
        let tb = mon.history().txn(TxnId::BASELINE).unwrap();
        assert_eq!(tb.last_write_to(x()), Some(v(2)));
        assert!(stats.retained_events < h.len());
    }

    #[test]
    fn compaction_preserves_future_verdicts() {
        // A post-compaction stale read of the pre-compaction value must
        // still be flagged: T1 commits 1, compaction replaces it with the
        // baseline, then T2 reads 0.
        let mut mon = OnlineChecker::new();
        let prefix = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .build();
        for ev in prefix.events() {
            mon.push(*ev).unwrap();
        }
        assert!(mon.try_compact());
        let verdicts: Vec<bool> = [
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(0))),
        ]
        .into_iter()
        .map(|ev| mon.push(ev).unwrap().is_violated())
        .collect();
        assert!(verdicts[1], "stale read must violate after compaction");

        // And the fresh value stays accepted.
        let mut mon = OnlineChecker::new();
        for ev in prefix.events() {
            mon.push(*ev).unwrap();
        }
        assert!(mon.try_compact());
        let h2 = [
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(1))),
            Event::inv(t(2), Op::TryCommit),
            Event::resp(t(2), Ret::Committed),
        ];
        let mut last = None;
        for ev in h2 {
            last = Some(mon.push(ev).unwrap());
        }
        assert!(last.unwrap().is_satisfied());
    }

    #[test]
    fn compaction_refused_when_final_value_not_forced() {
        // Two committed writers of x overlap: either serialization order is
        // legal, so the final value is not forced and compaction must
        // refuse (pinning one value would wrongly refute a suffix reading
        // the other).
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_write(t(2), x(), v(2))
            .resp_ok(t(1))
            .resp_ok(t(2))
            .inv_try_commit(t(1))
            .inv_try_commit(t(2))
            .resp_committed(t(1))
            .resp_committed(t(2))
            .build();
        let mut mon = OnlineChecker::new();
        for ev in h.events() {
            assert!(mon.push(*ev).unwrap().is_satisfied());
        }
        assert!(h.is_t_complete());
        assert!(!mon.try_compact());
        assert_eq!(mon.stats().compactions, 0);
        // Both continuations must remain accepted.
        for stale in [v(1), v(2)] {
            let mut m2 = OnlineChecker::new();
            for ev in h.events() {
                m2.push(*ev).unwrap();
            }
            let cont = [
                Event::inv(t(3), Op::Read(x())),
                Event::resp(t(3), Ret::Value(stale)),
            ];
            let mut last = None;
            for ev in cont {
                last = Some(m2.push(ev).unwrap());
            }
            assert!(
                last.unwrap().is_satisfied(),
                "reading {stale:?} should be accepted"
            );
        }
    }

    #[test]
    fn compaction_refused_mid_transaction() {
        let mut mon = OnlineChecker::new();
        mon.push(Event::inv(t(1), Op::Write(x(), v(1)))).unwrap();
        mon.push(Event::resp(t(1), Ret::Ok)).unwrap();
        assert!(!mon.try_compact(), "prefix is not t-complete");
    }

    #[test]
    fn all_aborted_prefix_compacts_to_empty() {
        let mut mon = OnlineChecker::new();
        for ev in [
            Event::inv(t(1), Op::Write(x(), v(9))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(1), Op::TryAbort),
            Event::resp(t(1), Ret::Aborted),
        ] {
            mon.push(ev).unwrap();
        }
        assert!(mon.try_compact());
        assert!(mon.history().is_empty());
        // The aborted write left no trace: a read of 9 now violates, a
        // read of the initial value is fine.
        let mut m = OnlineChecker::new();
        for ev in [
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(0))),
        ] {
            assert!(m.push(ev).unwrap().is_satisfied());
        }
    }

    #[test]
    fn compaction_on_and_off_agree_along_generated_interleavings() {
        // Differential check: with aggressive auto-compaction the verdict
        // sequence must match the uncompacted monitor event for event.
        let y = ObjId::new(1);
        let histories = [
            HistoryBuilder::new()
                .committed_writer(t(1), x(), v(1))
                .committed_reader(t(2), x(), v(1))
                .committed_writer(t(3), y, v(5))
                .committed_reader(t(4), y, v(5))
                .committed_writer(t(5), x(), v(7))
                .committed_reader(t(6), x(), v(7))
                .build(),
            // Violating tail after a compactable prefix.
            HistoryBuilder::new()
                .committed_writer(t(1), x(), v(1))
                .committed_writer(t(2), x(), v(2))
                .read(t(3), x(), v(1))
                .commit(t(3))
                .build(),
            // Aborts interleaved with commits.
            HistoryBuilder::new()
                .committed_writer(t(1), x(), v(1))
                .write(t(2), x(), v(3))
                .try_abort(t(2))
                .committed_reader(t(3), x(), v(1))
                .build(),
        ];
        for h in &histories {
            let mut plain = OnlineChecker::new();
            let mut compacting = OnlineChecker::new();
            compacting.set_compact_every(Some(1));
            for ev in h.events() {
                let a = plain.push(*ev).unwrap();
                let b = compacting.push(*ev).unwrap();
                assert_eq!(
                    a.is_satisfied(),
                    b.is_satisfied(),
                    "divergence on {ev} of {h:?}"
                );
                assert_eq!(a.is_violated(), b.is_violated(), "divergence on {ev}");
            }
        }
    }

    #[test]
    fn verdict_matches_batch_checker_on_prefixes() {
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .resp_ok(t(1))
            .commit(t(1))
            .commit(t(2))
            .committed_reader(t(3), x(), v(1))
            .build();
        let mut mon = OnlineChecker::new();
        for (i, ev) in h.events().iter().enumerate() {
            let online = mon.push(*ev).unwrap();
            let batch = DuOpacity::new().check(&h.prefix(i + 1));
            assert_eq!(
                online.is_satisfied(),
                batch.is_satisfied(),
                "divergence at prefix {}",
                i + 1
            );
        }
    }
}
