//! The full TMS2 specification automaton (Doherty, Groves, Luchangco,
//! Moir), as a membership checker.
//!
//! Section 4.2 of the paper renders TMS2 informally (a final-state
//! serialization constrained by commit-order edges) and *conjectures* that
//! every TMS2 history is du-opaque. The informal rendering provably does
//! not imply du-opacity (see
//! `duop_experiments::figures::tms2_rendering_gap`); this module
//! implements the automaton itself so the conjecture can be tested against
//! its actual subject.
//!
//! ## The automaton
//!
//! TMS2 maintains a growing sequence of memory snapshots `mems`
//! (`mems[0]` is the all-initial snapshot). Committing a writer appends
//! `last(mems) ⊕ wrSet`. The per-transaction protocol:
//!
//! * a transaction's **begin index** is the index of the latest snapshot
//!   when it begins (here: at its first event);
//! * a **read response** `read_t(x) → v` (not from `t`'s own write set)
//!   requires some `n ≥ beginIdx(t)` with `rdSet(t) ∪ {x ↦ v} ⊆ mems[n]`;
//! * a **writer's commit** requires `rdSet(t) ⊆ last(mems)` at its
//!   linearization point (inside the `tryC` interval) and appends the new
//!   snapshot; a **read-only commit** requires `rdSet(t) ⊆ mems[n]` for
//!   some `n ≥ beginIdx(t)`;
//! * aborts are always allowed.
//!
//! Membership is decided by a search over the only nondeterminism: *when*
//! each writer's commit linearizes inside its `tryC` interval (the
//! snapshot index `n` of a read is an existence check and needs no
//! branching). Accepted histories come with a replayable
//! [`Tms2Execution`] certificate, independently validated by [`replay`].
//! [`check_tms2_automaton_interruptible`] also stops, `Unknown`, once
//! SIGINT/SIGTERM requests it ([`crate::snapshot::request_interrupt`]).

use crate::UnknownReason;
use duop_history::{EventKind, History, ObjId, Op, Ret, TxnId, Value};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A certificate for acceptance by the TMS2 automaton: the commit
/// linearization schedule.
///
/// `flushes_before[i]` lists the writer transactions whose commits
/// linearize immediately before history event `i` (in order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tms2Execution {
    /// Commit linearizations per event index (length = history length).
    pub flushes_before: Vec<Vec<TxnId>>,
}

/// Outcome of the TMS2 automaton membership check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tms2Verdict {
    /// The history is a TMS2 history; the certificate replays.
    Accepted(Tms2Execution),
    /// No commit schedule makes the automaton accept.
    Rejected {
        /// Number of search states explored.
        explored: u64,
    },
    /// The search stopped undecided.
    Unknown {
        /// Number of search states explored.
        explored: u64,
        /// Why: [`UnknownReason::StateBudget`] when the state budget
        /// ran out, [`UnknownReason::Interrupted`] when an interrupt was
        /// requested.
        reason: UnknownReason,
    },
}

impl Tms2Verdict {
    /// Returns `true` for [`Tms2Verdict::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Tms2Verdict::Accepted(_))
    }

    /// The certificate, if accepted.
    pub fn execution(&self) -> Option<&Tms2Execution> {
        match self {
            Tms2Verdict::Accepted(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a [`Tms2Execution`] certificate failed to replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The certificate's length does not match the history.
    WrongShape,
    /// A scheduled commit was not linearizable at its position.
    BadFlush {
        /// The transaction whose commit failed.
        txn: TxnId,
    },
    /// A read response had no valid snapshot.
    BadRead {
        /// The reading transaction.
        txn: TxnId,
        /// The object read.
        obj: ObjId,
    },
    /// A commit response arrived for a transaction that never linearized.
    UnflushedCommit {
        /// The transaction.
        txn: TxnId,
    },
    /// An abort response arrived for an already-linearized commit.
    FlushedAbort {
        /// The transaction.
        txn: TxnId,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::WrongShape => write!(f, "certificate shape does not match history"),
            ReplayError::BadFlush { txn } => {
                write!(f, "commit of {txn} not linearizable as scheduled")
            }
            ReplayError::BadRead { txn, obj } => {
                write!(f, "read of {obj} by {txn} has no valid snapshot")
            }
            ReplayError::UnflushedCommit { txn } => {
                write!(f, "{txn} responded committed without a linearized commit")
            }
            ReplayError::FlushedAbort { txn } => {
                write!(f, "{txn} aborted after its commit linearized")
            }
        }
    }
}

impl Error for ReplayError {}

#[derive(Clone, Debug, Default)]
struct TxnState {
    begin_idx: Option<usize>,
    rd: HashMap<ObjId, Value>,
    wr: HashMap<ObjId, Value>,
    /// `tryC` invoked, commit not yet linearized.
    pending: bool,
    /// Commit linearized (snapshot appended, or read-only validated).
    flushed: bool,
}

#[derive(Clone, Debug)]
struct AutomatonState {
    mems: Vec<HashMap<ObjId, Value>>,
    txns: HashMap<TxnId, TxnState>,
}

impl AutomatonState {
    fn new() -> Self {
        AutomatonState {
            mems: vec![HashMap::new()],
            txns: HashMap::new(),
        }
    }

    fn lookup(&self, n: usize, obj: ObjId) -> Value {
        self.mems[n].get(&obj).copied().unwrap_or(Value::INITIAL)
    }

    /// Is `rdSet ∪ extra ⊆ mems[n]`?
    fn consistent_at(
        &self,
        n: usize,
        rd: &HashMap<ObjId, Value>,
        extra: Option<(ObjId, Value)>,
    ) -> bool {
        rd.iter().all(|(o, v)| self.lookup(n, *o) == *v)
            && extra.is_none_or(|(o, v)| self.lookup(n, o) == v)
    }

    /// Is there a valid snapshot `n ≥ begin` for `rdSet ∪ extra`?
    fn some_consistent(
        &self,
        begin: usize,
        rd: &HashMap<ObjId, Value>,
        extra: Option<(ObjId, Value)>,
    ) -> bool {
        (begin..self.mems.len()).any(|n| self.consistent_at(n, rd, extra))
    }

    /// Attempts to linearize the commit of `txn` now.
    fn flush(&mut self, txn: TxnId) -> bool {
        let state = self.txns.get(&txn).expect("pending txn has state");
        let begin = state.begin_idx.unwrap_or(0);
        if state.wr.is_empty() {
            // Read-only: any consistent snapshot suffices.
            if !self.some_consistent(begin, &state.rd, None) {
                return false;
            }
        } else {
            // Writer: the read set must be consistent with the latest
            // snapshot, which the write set then extends.
            let last = self.mems.len() - 1;
            if !self.consistent_at(last, &state.rd, None) {
                return false;
            }
            let mut next = self.mems[last].clone();
            for (o, v) in &state.wr {
                next.insert(*o, *v);
            }
            self.mems.push(next);
        }
        let state = self.txns.get_mut(&txn).expect("pending txn has state");
        state.pending = false;
        state.flushed = true;
        true
    }
}

/// Precomputed per-event info: the operation a response answers.
fn resp_ops(h: &History) -> Vec<Option<Op>> {
    let mut out = vec![None; h.len()];
    for t in h.txns() {
        for op in t.ops() {
            if let Some(r) = op.resp_index {
                out[r] = Some(op.op);
            }
        }
    }
    out
}

struct Searcher<'a> {
    h: &'a History,
    resp_op: Vec<Option<Op>>,
    max_states: Option<u64>,
    /// Poll the process-wide interrupt flag.
    interruptible: bool,
    explored: u64,
    /// Why the search stopped, once [`StepOutcome::Stopped`] is returned.
    stopped: UnknownReason,
    flushes: Vec<Vec<TxnId>>,
}

enum StepOutcome {
    Accepted,
    Rejected,
    Stopped,
}

impl Searcher<'_> {
    fn step(&mut self, idx: usize, state: &AutomatonState) -> StepOutcome {
        self.explored += 1;
        if let Some(max) = self.max_states {
            if self.explored > max {
                self.stopped = UnknownReason::StateBudget;
                return StepOutcome::Stopped;
            }
        }
        // Sampled on the first state and every 1024 thereafter, as the
        // serialization search samples it: an interrupt surfaces within
        // that many states.
        if self.interruptible && self.explored & 1023 == 1 && crate::snapshot::interrupt_requested()
        {
            self.stopped = UnknownReason::Interrupted;
            return StepOutcome::Stopped;
        }
        if idx == self.h.len() {
            return StepOutcome::Accepted;
        }

        // Option: linearize a pending commit before this event. Tried in
        // id order, not map order, so the certificate (and the explored
        // count) is the same on every call.
        let mut pending: Vec<TxnId> = state
            .txns
            .iter()
            .filter(|(_, s)| s.pending)
            .map(|(t, _)| *t)
            .collect();
        pending.sort_unstable();
        for txn in pending {
            let mut next = state.clone();
            if next.flush(txn) {
                self.flushes[idx].push(txn);
                match self.step(idx, &next) {
                    StepOutcome::Accepted => return StepOutcome::Accepted,
                    StepOutcome::Stopped => {
                        self.flushes[idx].pop();
                        return StepOutcome::Stopped;
                    }
                    StepOutcome::Rejected => {
                        self.flushes[idx].pop();
                    }
                }
            }
        }

        // Option: process the event itself.
        let mut next = state.clone();
        if self.process(idx, &mut next) {
            match self.step(idx + 1, &next) {
                StepOutcome::Accepted => return StepOutcome::Accepted,
                other => return other,
            }
        }
        StepOutcome::Rejected
    }

    /// Applies event `idx`; returns `false` if the automaton cannot take
    /// it.
    fn process(&self, idx: usize, state: &mut AutomatonState) -> bool {
        let ev = self.h.events()[idx];
        let txn_state = state.txns.entry(ev.txn).or_default();
        if txn_state.begin_idx.is_none() {
            txn_state.begin_idx = Some(state.mems.len() - 1);
        }
        match ev.kind {
            EventKind::Inv(Op::TryCommit) => {
                let s = state.txns.get_mut(&ev.txn).expect("just inserted");
                s.pending = true;
                true
            }
            EventKind::Inv(_) => true,
            EventKind::Resp(ret) => {
                let op = self.resp_op[idx].expect("response matches an operation");
                match (op, ret) {
                    (Op::Read(x), Ret::Value(v)) => {
                        let s = state.txns.get(&ev.txn).expect("participating");
                        if let Some(&own) = s.wr.get(&x) {
                            return own == v;
                        }
                        let begin = s.begin_idx.unwrap_or(0);
                        if !state.some_consistent(begin, &s.rd, Some((x, v))) {
                            return false;
                        }
                        state
                            .txns
                            .get_mut(&ev.txn)
                            .expect("participating")
                            .rd
                            .insert(x, v);
                        true
                    }
                    (Op::Write(x, v), Ret::Ok) => {
                        state
                            .txns
                            .get_mut(&ev.txn)
                            .expect("participating")
                            .wr
                            .insert(x, v);
                        true
                    }
                    (Op::TryCommit, Ret::Committed) => {
                        // The commit must have linearized inside the
                        // interval; last chance is right now.
                        let s = state.txns.get(&ev.txn).expect("participating");
                        if s.flushed {
                            return true;
                        }
                        state.flush(ev.txn)
                        // Note: a flush here is "before the response",
                        // recorded implicitly by the deterministic replay
                        // (replay retries a late flush the same way).
                    }
                    (Op::TryCommit, Ret::Aborted) => {
                        let s = state.txns.get_mut(&ev.txn).expect("participating");
                        if s.flushed {
                            return false;
                        }
                        s.pending = false;
                        true
                    }
                    // Aborted reads/writes and tryA: always allowed.
                    (_, Ret::Aborted) => true,
                    _ => true,
                }
            }
        }
    }
}

/// Decides membership of `h` in the TMS2 automaton's set of histories.
///
/// `max_states` bounds the search (the nondeterminism is the commit
/// schedule, so the bound is rarely hit on realistic histories); `None`
/// means unlimited.
///
/// # Examples
///
/// ```
/// use duop_core::tms2_automaton::{check_tms2_automaton, replay};
/// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
///
/// let h = HistoryBuilder::new()
///     .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
///     .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
///     .build();
/// let verdict = check_tms2_automaton(&h, None);
/// let exec = verdict.execution().expect("a TMS2 history");
/// assert!(replay(&h, exec).is_ok());
/// ```
pub fn check_tms2_automaton(h: &History, max_states: Option<u64>) -> Tms2Verdict {
    run(h, max_states, false)
}

/// [`check_tms2_automaton`], stopping with
/// [`UnknownReason::Interrupted`] once an interrupt is requested
/// ([`crate::snapshot::request_interrupt`]; the CLI requests one on
/// SIGINT/SIGTERM). The flag is polled every 1024 states.
pub fn check_tms2_automaton_interruptible(h: &History, max_states: Option<u64>) -> Tms2Verdict {
    run(h, max_states, true)
}

fn run(h: &History, max_states: Option<u64>, interruptible: bool) -> Tms2Verdict {
    let mut searcher = Searcher {
        h,
        resp_op: resp_ops(h),
        max_states,
        interruptible,
        explored: 0,
        stopped: UnknownReason::StateBudget,
        flushes: vec![Vec::new(); h.len() + 1],
    };
    let state = AutomatonState::new();
    match searcher.step(0, &state) {
        StepOutcome::Accepted => {
            let mut flushes = searcher.flushes;
            flushes.truncate(h.len());
            Tms2Verdict::Accepted(Tms2Execution {
                flushes_before: flushes,
            })
        }
        StepOutcome::Rejected => Tms2Verdict::Rejected {
            explored: searcher.explored,
        },
        StepOutcome::Stopped => Tms2Verdict::Unknown {
            explored: searcher.explored,
            reason: searcher.stopped,
        },
    }
}

/// Deterministically replays a certificate against the history.
///
/// # Errors
///
/// Returns the first [`ReplayError`] if the certificate does not witness
/// acceptance.
pub fn replay(h: &History, exec: &Tms2Execution) -> Result<(), ReplayError> {
    if exec.flushes_before.len() != h.len() {
        return Err(ReplayError::WrongShape);
    }
    let resp_op = resp_ops(h);
    let mut state = AutomatonState::new();
    for (idx, ev) in h.events().iter().enumerate() {
        for &txn in &exec.flushes_before[idx] {
            if !state.txns.contains_key(&txn) || !state.txns[&txn].pending || !state.flush(txn) {
                return Err(ReplayError::BadFlush { txn });
            }
        }
        let txn_state = state.txns.entry(ev.txn).or_default();
        if txn_state.begin_idx.is_none() {
            txn_state.begin_idx = Some(state.mems.len() - 1);
        }
        match ev.kind {
            EventKind::Inv(Op::TryCommit) => {
                state.txns.get_mut(&ev.txn).expect("inserted").pending = true;
            }
            EventKind::Inv(_) => {}
            EventKind::Resp(ret) => {
                let op = resp_op[idx].expect("matched response");
                match (op, ret) {
                    (Op::Read(x), Ret::Value(v)) => {
                        let s = &state.txns[&ev.txn];
                        if let Some(&own) = s.wr.get(&x) {
                            if own != v {
                                return Err(ReplayError::BadRead {
                                    txn: ev.txn,
                                    obj: x,
                                });
                            }
                        } else {
                            let begin = s.begin_idx.unwrap_or(0);
                            if !state.some_consistent(begin, &s.rd, Some((x, v))) {
                                return Err(ReplayError::BadRead {
                                    txn: ev.txn,
                                    obj: x,
                                });
                            }
                            state
                                .txns
                                .get_mut(&ev.txn)
                                .expect("participating")
                                .rd
                                .insert(x, v);
                        }
                    }
                    (Op::Write(x, v), Ret::Ok) => {
                        state
                            .txns
                            .get_mut(&ev.txn)
                            .expect("participating")
                            .wr
                            .insert(x, v);
                    }
                    (Op::TryCommit, Ret::Committed) => {
                        let flushed = state.txns[&ev.txn].flushed;
                        if !flushed && !state.flush(ev.txn) {
                            return Err(ReplayError::UnflushedCommit { txn: ev.txn });
                        }
                    }
                    (Op::TryCommit, Ret::Aborted) => {
                        if state.txns[&ev.txn].flushed {
                            return Err(ReplayError::FlushedAbort { txn: ev.txn });
                        }
                        state.txns.get_mut(&ev.txn).expect("participating").pending = false;
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::HistoryBuilder;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn y() -> ObjId {
        ObjId::new(1)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    #[test]
    fn sequential_writer_reader_accepted() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        let verdict = check_tms2_automaton(&h, None);
        let exec = verdict.execution().expect("accepted");
        assert_eq!(replay(&h, exec), Ok(()));
    }

    #[test]
    fn stale_read_rejected() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(7))
            .build();
        assert!(matches!(
            check_tms2_automaton(&h, None),
            Tms2Verdict::Rejected { .. }
        ));
    }

    #[test]
    fn read_through_pending_commit_accepted() {
        // The commit linearizes inside its interval, before T2's read.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .read(t(2), x(), v(1))
            .commit(t(2))
            .build();
        let verdict = check_tms2_automaton(&h, None);
        let exec = verdict.execution().expect("accepted");
        assert_eq!(replay(&h, exec), Ok(()));
        // The schedule linearizes T1's commit somewhere before T2's read
        // response (event 4).
        let flush_pos = exec
            .flushes_before
            .iter()
            .position(|f| f.contains(&t(1)))
            .expect("T1 commit scheduled");
        assert!(flush_pos <= 4);
    }

    #[test]
    fn doomed_inconsistent_snapshot_rejected() {
        // T3 reads X before T1's commit and Y after it: no single snapshot
        // holds both, even though T3 aborts.
        let h = HistoryBuilder::new()
            .read(t(3), x(), v(0))
            .write(t(1), x(), v(1))
            .write(t(1), y(), v(1))
            .commit(t(1))
            .read(t(3), y(), v(1))
            .try_abort(t(3))
            .build();
        assert!(matches!(
            check_tms2_automaton(&h, None),
            Tms2Verdict::Rejected { .. }
        ));
    }

    #[test]
    fn read_only_commit_may_use_old_snapshot() {
        // T2 begins before T1 commits, reads the old value of X after T1's
        // commit, and still commits read-only from the old snapshot.
        let h = HistoryBuilder::new()
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .committed_writer(t(1), x(), v(1))
            .read(t(2), y(), v(0))
            .commit(t(2))
            .build();
        let verdict = check_tms2_automaton(&h, None);
        assert!(verdict.is_accepted(), "read-only snapshot commit is TMS2");
    }

    #[test]
    fn writer_must_validate_against_latest() {
        // T2 reads X=0, T1 commits X=1, then T2 (a writer) tries to commit:
        // its read set is stale against the latest snapshot.
        let h = HistoryBuilder::new()
            .read(t(2), x(), v(0))
            .committed_writer(t(1), x(), v(1))
            .write(t(2), y(), v(5))
            .commit(t(2))
            .build();
        assert!(matches!(
            check_tms2_automaton(&h, None),
            Tms2Verdict::Rejected { .. }
        ));
    }

    #[test]
    fn rejects_commit_after_abort_impossibility() {
        // A tryC that aborted cannot have linearized: accepted only via the
        // non-flush branch, and a later reader must not see the value.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .commit_aborted(t(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        assert!(matches!(
            check_tms2_automaton(&h, None),
            Tms2Verdict::Rejected { .. }
        ));
    }

    #[test]
    fn budget_gives_unknown() {
        let mut b = HistoryBuilder::new();
        for k in 1..=6 {
            b = b.write(t(k), x(), v(k as u64)).inv_try_commit(t(k));
        }
        // Reader wanting a value that needs a very specific schedule.
        let h = b.read(t(7), x(), v(9)).commit(t(7)).build();
        assert!(matches!(
            check_tms2_automaton(&h, Some(3)),
            Tms2Verdict::Unknown {
                reason: UnknownReason::StateBudget,
                ..
            } | Tms2Verdict::Rejected { .. }
        ));
    }

    #[test]
    fn concurrent_pending_commits_flush_in_id_order() {
        // T1 and T2 are both commit-pending when T3 begins and reads the
        // initial values of both objects: the commits may linearize in
        // either order, and every call must pick the same one.
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .write(t(2), y(), v(1))
            .inv_try_commit(t(2))
            .read(t(3), x(), v(0))
            .read(t(3), y(), v(0))
            .commit(t(3))
            .build();
        let mut certificates: Vec<Tms2Execution> = Vec::new();
        for _ in 0..32 {
            let exec = check_tms2_automaton(&h, None)
                .execution()
                .cloned()
                .expect("accepted");
            assert_eq!(replay(&h, &exec), Ok(()));
            if !certificates.contains(&exec) {
                certificates.push(exec);
            }
        }
        assert_eq!(certificates.len(), 1, "certificates: {certificates:?}");
        assert_eq!(
            certificates[0].flushes_before.concat(),
            vec![t(1), t(2), t(3)]
        );
    }

    #[test]
    fn replay_rejects_tampered_certificates() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        let exec = check_tms2_automaton(&h, None)
            .execution()
            .cloned()
            .expect("accepted");
        // Wrong shape.
        let bad = Tms2Execution {
            flushes_before: vec![],
        };
        assert_eq!(replay(&h, &bad), Err(ReplayError::WrongShape));
        // Scheduling a flush before the tryC invocation.
        let mut early = exec.clone();
        for f in &mut early.flushes_before {
            f.clear();
        }
        early.flushes_before[0] = vec![t(1)];
        assert!(matches!(
            replay(&h, &early),
            Err(ReplayError::BadFlush { .. })
        ));
    }
}
