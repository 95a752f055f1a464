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
//! The adaptations are tried in a fixed order: the same order, the
//! event's transaction moved to the end, and its commit choice set to
//! true, then to false. While the stored witness certifies exactly the
//! previous prefix, each is *delta-validated*: coverage, equivalence to a
//! completion and real-time order hold by construction, so only the reads
//! the event can affect are re-checked for global and local (Definition
//! 3(3)) legality — the read the event answers, the moved transaction's
//! own reads, and reads of a transaction's write set placed after it when
//! its membership among their committed predecessors changes. Each costs
//! a backward scan from the reader over the witness order, found through
//! a position table, so a push costs about the transactions it can
//! affect, not the retained history. It accepts exactly the candidate
//! [`check_witness`] would (DESIGN.md §10, "Delta validation"). A witness
//! an `Unknown` push left behind certifies only an older prefix; the next
//! push re-checks its adaptations with the full [`check_witness`], as do
//! [`OnlineChecker::resume`] and [`OnlineChecker::try_compact`].
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
use crate::prepared::Prepared;
use crate::search::{check_prepared, decide_spec};
use crate::snapshot::Fragment;
use crate::verdict::committed_in_s;
use crate::witness_check::{latest_writes, own_write_before, positions};
use crate::{check_witness, CriterionKind, SearchConfig, Verdict, Witness};
use duop_history::{Event, History, MalformedHistoryError, ObjId, Op, OpRecord, Ret, TxnId, Value};
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
    /// Length of the prefix `witness` was certified for (`None` certifies
    /// only the empty history). Delta validation needs it to equal the
    /// history's length before a push; an `Unknown` push leaves an older
    /// prefix's witness behind, and the next push re-checks in full.
    certified_len: usize,
    /// `witness`'s positions by history transaction slot
    /// ([`History::txn_slot`]), kept in step with it while it is certified.
    positions: Vec<u32>,
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
    /// one fallback search, never a wrong verdict), and a violation is
    /// re-derived from the history itself by `recheck` rather than
    /// deserialized — `duop resume` re-checks the prefix where the
    /// checkpoint says the violation occurred. `recheck` runs only when
    /// no witness validates: a valid du witness proves there is no
    /// violation.
    pub fn resume(
        history: History,
        witness: Option<Witness>,
        recheck: impl FnOnce(&History) -> Option<Verdict>,
        stats: OnlineStats,
        cfg: SearchConfig,
    ) -> Self {
        let witness =
            witness.filter(|w| check_witness(&history, w, CriterionKind::DuOpacity).is_ok());
        let violated = match witness {
            Some(_) => None,
            None => recheck(&history),
        };
        let mut stats = stats;
        stats.retained_events = history.len();
        stats.peak_resident_events = stats.peak_resident_events.max(history.len());
        let mut mon = OnlineChecker {
            history,
            violated,
            cfg,
            stats,
            ..OnlineChecker::default()
        };
        if let Some(w) = witness {
            mon.certify(w);
        }
        mon
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

    /// The batch du-opacity verdict of the retained history: exactly the
    /// verdict, witness included, that
    /// `DuOpacity::with_config(cfg).check(self.history())` returns, with
    /// `cfg` this monitor's configuration. When the monitor's witness is
    /// certified for exactly the retained history, the check is told so,
    /// and its prefilter skips the lint and saturation stages that
    /// witness settles (DESIGN.md §12, "Witness-gated prefilter"). A
    /// witness left by an `Unknown` push or from before a violation
    /// certifies a shorter prefix only and is not passed on.
    pub fn batch_verdict(&self) -> Verdict {
        let mut p = Prepared::new(&self.history, PlanCriterion::Du);
        let certified = self.certified_len == self.history.len();
        if let Some(w) = self.witness.as_ref().filter(|_| certified) {
            p = p.with_du_witness(w);
        }
        check_prepared(&p, PlanCriterion::Du, &self.cfg, None).0
    }

    /// Exports the component cache's serialization fragments for
    /// checkpointing (sorted, deterministic).
    pub fn export_fragments(&self) -> Vec<Fragment> {
        self.cache.fragments()
    }

    /// Preloads checkpointed component fragments into the cache. They are
    /// replay-validated before any reuse, exactly like fragments the
    /// monitor cached itself.
    pub fn preload_fragments(&mut self, fragments: Vec<Fragment>) {
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

        // Candidate witnesses adapted from the previous prefix's witness:
        // delta-validated when that witness certifies exactly the previous
        // prefix, re-checked in full when it is stale.
        let tries = if self.witness.is_some() {
            &ADAPTATIONS[..]
        } else {
            // First event of the history: the single-transaction witness.
            &ADAPTATIONS[..1]
        };
        if self.certified_len == self.history.len() - 1 {
            if let Some(&a) = tries.iter().find(|&&a| self.delta_accepts(event, a)) {
                self.adapt(a, event.txn);
                return Ok(self.incremental_hit());
            }
        } else {
            for &a in tries {
                let candidate = a.candidate(self.witness.as_ref(), event.txn);
                if check_witness(&self.history, &candidate, CriterionKind::DuOpacity).is_ok() {
                    self.certify(candidate);
                    return Ok(self.incremental_hit());
                }
            }
        }

        // Cheap polynomial prefilter before any search: an Error-severity
        // lint finding for the du scope is a proven refutation, and lint
        // runs per event in polynomial time. The prefilter and the search
        // read one prepared spec and its facts.
        let p = Prepared::of(&self.history);
        if self.cfg.prelint {
            if let Some(v) = crate::lint::prelint(&p, PlanCriterion::Du) {
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
        let verdict = match p.spec() {
            Err(v) => Verdict::Violated(v.clone()),
            Ok(_) => decide_spec(&p, PlanCriterion::Du, &self.cfg, Some(&mut self.cache)).0,
        };
        self.stats.component_reuses = self.cache.reuses;
        match &verdict {
            Verdict::Satisfied(w) => {
                self.certify(w.clone());
                self.maybe_auto_compact();
            }
            Verdict::Violated(_) => self.violated = Some(verdict.clone()),
            Verdict::Unknown { .. } => {}
        }
        Ok(verdict)
    }

    /// Counts a prefix certified by an adapted witness and reports it.
    fn incremental_hit(&mut self) -> Verdict {
        self.stats.incremental_hits += 1;
        let w = self
            .witness
            .clone()
            .expect("an adapted witness was adopted");
        self.maybe_auto_compact();
        Verdict::Satisfied(w)
    }

    /// Adopts `w` as the witness certified for the current history.
    fn certify(&mut self, w: Witness) {
        self.certified_len = match positions(&self.history, w.order()) {
            Some(p) => {
                self.positions = p;
                self.history.len()
            }
            // A witness that does not cover the history cannot seed delta
            // validation; the next push re-checks its candidates in full.
            None => usize::MAX,
        };
        self.witness = Some(w);
    }

    /// Applies adaptation `a` for the event's transaction `txn` to the
    /// certified witness in place, keeping the position table in step.
    fn adapt(&mut self, a: Adaptation, txn: TxnId) {
        let slot = self.history.txn_slot(txn).expect("the event was pushed");
        let old = self.positions.get(slot).map(|&p| p as usize);
        let w = self
            .witness
            .get_or_insert_with(|| Witness::new(Vec::new(), BTreeMap::new()));
        a.apply(w, txn, old);
        match old {
            // A new transaction takes the next slot and the last position.
            None => {
                debug_assert_eq!(slot, self.positions.len());
                self.positions.push((w.order.len() - 1) as u32);
            }
            Some(from) if a == Adaptation::MoveToEnd => {
                for (p, &m) in w.order.iter().enumerate().skip(from) {
                    let s = self
                        .history
                        .txn_slot(m)
                        .expect("witness covers the history");
                    self.positions[s] = p as u32;
                }
            }
            Some(_) => {}
        }
        self.certified_len = self.history.len();
    }

    /// Whether adaptation `a` of the witness certified for the previous
    /// prefix certifies the history `event` (already pushed) extends it
    /// to, by re-checking only the reads whose legality the event or the
    /// adaptation can change (DESIGN.md §10, "Delta validation"):
    ///
    /// * the read `event` answers, if it is one;
    /// * the event's transaction's own reads, if `a` moves it;
    /// * reads of its write set by transactions placed after it, if its
    ///   membership among their committed predecessors in `S` changes —
    ///   its commit status flips (a `tryC` invocation under a true choice,
    ///   a commit or abort response, a choice flip), or it moves away
    ///   while committed.
    ///
    /// Coverage, equivalence to a completion and real-time order hold by
    /// construction for every adaptation, and every other read keeps its
    /// predecessors, so this accepts exactly when [`check_witness`] does.
    fn delta_accepts(&self, event: Event, a: Adaptation) -> bool {
        let h = &self.history;
        let t = event.txn;
        let view = h.txn(t).expect("the event was pushed");
        let empty = Witness::new(Vec::new(), BTreeMap::new());
        let w = self.witness.as_ref().unwrap_or(&empty);
        let order = w.order();
        let old = h
            .txn_slot(t)
            .and_then(|slot| self.positions.get(slot))
            .map(|&p| p as usize);
        let moved = a == Adaptation::MoveToEnd && old.is_some_and(|p| p + 1 != order.len());

        // The event's transaction's commit status in S, before the event
        // (only a resolved `tryC` was commit-pending then) and under `a`.
        let tryc_resolved =
            event.kind.is_resp() && view.ops().last().is_some_and(|o| o.op.is_try_commit());
        let committed_before = tryc_resolved && w.commit_choice(t) == Some(true);
        let choice = match a {
            Adaptation::Choose(c) => Some(c),
            _ => w.commit_choice(t),
        };
        let committed_after = committed_in_s(&view, choice);

        // A read is legal under `a` if it returns the latest value written
        // before it in S, globally and in its local serialization; `end`
        // bounds its predecessors in the previous order (the moved
        // transaction is skipped: it now sits after everything).
        let legal = |op: &OpRecord, end: usize| -> bool {
            let (Op::Read(x), Some(Ret::Value(got))) = (op.op, op.resp) else {
                return true;
            };
            let before = order[..end]
                .iter()
                .rev()
                .filter(|&&m| !(moved && m == t))
                .map(|&m| {
                    let v = h.txn(m).expect("certified witness covers the history");
                    let c = if m == t {
                        committed_after
                    } else {
                        committed_in_s(&v, w.commit_choice(m))
                    };
                    (v, c)
                });
            let resp = op.resp_index.expect("complete read has a response index");
            let (global, local) = latest_writes(before, x, resp);
            got == global && got == local
        };

        // The event's transaction's reads: the one the event answers, and
        // every other one if `a` moved it.
        let own_end = if moved {
            order.len()
        } else {
            old.unwrap_or(order.len())
        };
        for op in view.ops() {
            let new = op.resp_index == Some(h.len() - 1);
            if !new && !moved {
                continue;
            }
            let ok = match own_write_before(view, op) {
                // Fixed by the own write: order-independent, so only the
                // new read needs it.
                Some(v) => !new || op.resp.and_then(Ret::value) == Some(v),
                None => legal(op, own_end),
            };
            if !ok {
                return false;
            }
        }

        // Reads of its write set by transactions placed after it.
        let Some(old) = old else {
            return true;
        };
        if committed_before == (committed_after && !moved) {
            return true;
        }
        for (p, &k) in order.iter().enumerate().skip(old + 1) {
            let reader = h.txn(k).expect("certified witness covers the history");
            for op in reader.ops() {
                let Op::Read(x) = op.op else {
                    continue;
                };
                if view.last_write_to(x).is_some()
                    && own_write_before(reader, op).is_none()
                    && !legal(op, p)
                {
                    return false;
                }
            }
        }
        true
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
        self.stats.compactions += 1;
        self.stats.compacted_events += dropped as u64;
        self.stats.retained_events = baseline.len();
        self.history = baseline;
        self.witness = None;
        self.positions.clear();
        self.certified_len = 0;
        if !finals.is_empty() {
            self.certify(Witness::new(vec![TxnId::BASELINE], BTreeMap::new()));
        }
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
}

/// A cheap adaptation of the previous prefix's witness to the extended
/// history. The monitor tries [`ADAPTATIONS`] in order and adopts the
/// first that certifies the new prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Adaptation {
    /// Same order, same choices (a new transaction joins at the end).
    Same,
    /// The event's transaction moved to the end: a response often pushes
    /// a transaction later in the order, e.g. when it read a newly
    /// committed value.
    MoveToEnd,
    /// Same order with the event's transaction's pending-commit choice
    /// set: a new tryC invocation opens the choice; a read from it may
    /// require commit.
    Choose(bool),
}

const ADAPTATIONS: [Adaptation; 4] = [
    Adaptation::Same,
    Adaptation::MoveToEnd,
    Adaptation::Choose(true),
    Adaptation::Choose(false),
];

impl Adaptation {
    /// Applies the adaptation for `txn` to `w` in place; `old` is `txn`'s
    /// position in `w`, `None` if it is new (it then joins at the end).
    fn apply(self, w: &mut Witness, txn: TxnId, old: Option<usize>) {
        match (self, old) {
            (_, None) => w.order.push(txn),
            (Adaptation::MoveToEnd, Some(p)) => {
                w.order.remove(p);
                w.order.push(txn);
            }
            _ => {}
        }
        if let Adaptation::Choose(c) = self {
            w.commit_choices.insert(txn, c);
        }
    }

    /// The adapted copy of `prev` (`None`: the empty witness).
    fn candidate(self, prev: Option<&Witness>, txn: TxnId) -> Witness {
        let mut w = prev
            .cloned()
            .unwrap_or_else(|| Witness::new(Vec::new(), BTreeMap::new()));
        let old = w.position(txn);
        self.apply(&mut w, txn, old);
        w
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
    fn stale_witness_after_unknown_is_rechecked_in_full() {
        // T2's read of T1's commit-pending value needs a search, which the
        // zero deadline turns into Unknown: the witness stays certified
        // for the previous prefix only. Validating T3's invocation against
        // it by delta would re-check nothing and accept, although no
        // adaptation of it explains T2's read.
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
        assert!(matches!(last, Some(Verdict::Unknown { .. })), "{last:?}");
        let stale = mon.witness().cloned().expect("an older prefix's witness");
        let hits = mon.stats().incremental_hits;

        let verdict = mon.push(Event::inv(t(3), Op::Read(x()))).unwrap();
        if let Verdict::Satisfied(w) = &verdict {
            assert_eq!(
                check_witness(mon.history(), w, CriterionKind::DuOpacity),
                Ok(())
            );
        }
        assert!(matches!(verdict, Verdict::Unknown { .. }), "{verdict:?}");
        assert_eq!(mon.stats().incremental_hits, hits);
        let mut order = stale.order().to_vec();
        order.push(t(3));
        let same = Witness::new(order, stale.commit_choices().clone());
        assert!(check_witness(mon.history(), &same, CriterionKind::DuOpacity).is_err());
    }

    #[test]
    fn delta_validation_can_settle_on_the_abort_choice() {
        // T1 reads y = 0 and writes x; T3 then commits y = 5 and T2 reads
        // x = 0. The resumed witness T1 < T3 < T2 carries a commit choice
        // for T1 from before its tryC. Once T1 invokes tryC, committing it
        // in place hides x = 0 from T2 (candidates 1 and 3), and moving it
        // to the end shows it y = 5 (candidate 2): only the abort choice
        // (candidate 4) certifies the prefix.
        let y = ObjId::new(1);
        let h = HistoryBuilder::new()
            .read(t(1), y, v(0))
            .write(t(1), x(), v(1))
            .committed_writer(t(3), y, v(5))
            .read(t(2), x(), v(0))
            .build();
        let order = vec![t(1), t(3), t(2)];
        let w = Witness::new(order.clone(), BTreeMap::from([(t(1), true)]));
        let mut mon = OnlineChecker::resume(
            h,
            Some(w),
            |_| None,
            OnlineStats::default(),
            crate::SearchConfig::default(),
        );
        assert!(mon.witness().is_some(), "the resumed witness certifies H");
        let verdict = mon.push(Event::inv(t(1), Op::TryCommit)).unwrap();
        let aborting = Witness::new(order, BTreeMap::from([(t(1), false)]));
        assert_eq!(verdict, Verdict::Satisfied(aborting));
        assert_eq!(mon.stats().incremental_hits, 1);
        assert_eq!(mon.stats().full_searches, 0);
        assert_eq!(
            check_witness(
                mon.history(),
                mon.witness().unwrap(),
                CriterionKind::DuOpacity
            ),
            Ok(())
        );
    }

    #[test]
    fn moved_reads_are_rechecked_locally() {
        // T1 reads x = 7 while committed T2 (7) and commit-pending T4 (9)
        // are its eligible writers; T3 later commits 7 again, but only
        // after T1's read. When T1 then reads T5's y = 3 it must move past
        // T5, hence past T4 and T3 too (they precede T5 in real time):
        // globally x = 7 (T3) still holds, but T1's local serialization
        // S^{1,x} drops T3 and ends with T4's 9. Final-state opaque, not
        // du-opaque — and the moved candidate must not certify it.
        let y = ObjId::new(1);
        let h = HistoryBuilder::new()
            .committed_writer(t(2), x(), v(7))
            .inv_read(t(1), x())
            .write(t(4), x(), v(9))
            .inv_try_commit(t(4))
            .resp_value(t(1), v(7))
            .resp_committed(t(4))
            .committed_writer(t(3), x(), v(7))
            .committed_writer(t(5), y, v(3))
            .read(t(1), y, v(3))
            .build();
        let (verdict, _) = replay(&h);
        assert!(verdict.is_violated(), "{verdict:?}");
        assert!(crate::FinalStateOpacity::new().check(&h).is_satisfied());
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

    /// Prefilter stages the certified witness let a batch verdict skip,
    /// as `(lint, saturation)` counts on this thread.
    fn skips() -> (usize, usize) {
        use crate::search::{LINT_SKIPS, SATURATION_SKIPS};
        (
            LINT_SKIPS.with(std::cell::Cell::get),
            SATURATION_SKIPS.with(std::cell::Cell::get),
        )
    }

    /// The `stream-serve` benchmark's GETs: its 40 traces (128-transaction
    /// simulated, seeds 0–39), a GET after every second 32-event POST and
    /// at the end. The monitor's witness settles both prefilter stages at
    /// nearly every one.
    #[test]
    fn certified_witness_skips_the_prefilter_on_stream_serve_gets() {
        use duop_gen::{HistoryGen, HistoryGenConfig};
        let (mut gets, mut skipped) = (0usize, 0usize);
        for seed in 0..40 {
            let cfg = HistoryGenConfig::medium_simulated().with_txns(128);
            let h = HistoryGen::new(cfg, seed).generate();
            let mut mon = OnlineChecker::new();
            for (i, &ev) in h.events().iter().enumerate() {
                mon.push(ev).unwrap();
                if (i + 1) % 64 == 0 || i + 1 == h.len() {
                    let before = skips();
                    mon.batch_verdict();
                    let after = skips();
                    gets += 1;
                    skipped += usize::from(after.0 > before.0 && after.1 > before.1);
                }
            }
        }
        assert!(gets > 500, "{gets} GETs");
        assert!(
            skipped * 100 >= gets * 99,
            "skipped on {skipped} of {gets} GETs"
        );
    }

    /// A history fully ordered by real time: the monitor's witness has no
    /// swappable pair, so saturation still runs, and it decides with its
    /// own witness, which is the batch verdict's.
    #[test]
    fn saturation_runs_and_decides_without_a_swappable_pair() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .read(t(2), x(), v(1))
            .write(t(2), x(), v(2))
            .inv_try_commit(t(2))
            .build();
        let mut mon = OnlineChecker::new();
        for &ev in h.events() {
            assert!(mon.push(ev).unwrap().is_satisfied());
        }
        let Some(Verdict::Satisfied(saturated)) =
            crate::saturate::saturate_verdict(&h, PlanCriterion::Du)
        else {
            panic!("saturation decides a history ordered by real time");
        };
        assert_ne!(mon.witness(), Some(&saturated), "the witnesses differ");

        let before = skips();
        let verdict = mon.batch_verdict();
        let after = skips();
        assert_eq!(verdict, Verdict::Satisfied(saturated));
        assert_eq!(verdict, DuOpacity::new().check(&h));
        assert_eq!(after.0, before.0 + 1, "lint is skipped");
        assert_eq!(after.1, before.1, "saturation runs");
    }

    /// A witness certified for an older prefix only — after an `Unknown`
    /// push, or from before a violation — is not passed on.
    #[test]
    fn stale_witnesses_skip_nothing() {
        let mut starved = OnlineChecker::with_config(crate::SearchConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..crate::SearchConfig::default()
        });
        for ev in [
            Event::inv(t(1), Op::Write(x(), v(1))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(1), Op::TryCommit),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(1))),
        ] {
            starved.push(ev).unwrap();
        }
        let stale = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .read(t(2), x(), v(0))
            .commit(t(2))
            .build();
        let mut violated = OnlineChecker::new();
        for &ev in stale.events() {
            violated.push(ev).unwrap();
        }
        for mon in [starved, violated] {
            assert!(mon.witness().is_some());
            let before = skips();
            let verdict = mon.batch_verdict();
            assert_eq!(skips(), before, "{verdict:?}");
            let batch = DuOpacity::with_config(mon.cfg.clone()).check(mon.history());
            assert_eq!(verdict, batch);
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
