//! Histories: validated sequences of invocation and response events.

use crate::{Event, EventKind, ObjId, Op, OpRecord, Ret, TxnId, Value};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Why a sequence of events is not a well-formed history.
///
/// Well-formedness follows Section 2 of the paper: for every transaction
/// `T_k`, `H|k` is sequential (invocations and responses strictly
/// alternate, and each response matches the pending invocation), has no
/// events after `A_k` or `C_k`, and reads each t-object at most once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MalformedHistoryError {
    /// A history event used the reserved initial transaction `T_0`.
    ReservedInitialTxn {
        /// Index of the offending event.
        index: usize,
    },
    /// A response arrived with no pending invocation.
    ResponseWithoutInvocation {
        /// Index of the offending event.
        index: usize,
        /// The transaction whose protocol was violated.
        txn: TxnId,
    },
    /// An invocation arrived while another was still pending.
    OverlappingInvocation {
        /// Index of the offending event.
        index: usize,
        /// The transaction whose protocol was violated.
        txn: TxnId,
    },
    /// A response did not match the pending invocation's signature.
    MismatchedResponse {
        /// Index of the offending event.
        index: usize,
        /// The transaction whose protocol was violated.
        txn: TxnId,
        /// The pending invocation.
        op: Op,
        /// The offending response.
        ret: Ret,
    },
    /// An event followed the transaction's terminal `C_k` or `A_k`.
    EventAfterTermination {
        /// Index of the offending event.
        index: usize,
        /// The transaction whose protocol was violated.
        txn: TxnId,
    },
    /// A transaction invoked `read_k(X)` twice on the same t-object.
    ///
    /// The paper assumes at most one read per t-object per transaction
    /// (without loss of generality: a repeated read can be served from the
    /// first result without affecting correctness).
    RepeatedRead {
        /// Index of the offending event.
        index: usize,
        /// The transaction whose protocol was violated.
        txn: TxnId,
        /// The t-object that was read twice.
        obj: ObjId,
    },
}

impl fmt::Display for MalformedHistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalformedHistoryError::ReservedInitialTxn { index } => {
                write!(f, "event {index} uses reserved initial transaction T0")
            }
            MalformedHistoryError::ResponseWithoutInvocation { index, txn } => {
                write!(
                    f,
                    "event {index}: response for {txn} without pending invocation"
                )
            }
            MalformedHistoryError::OverlappingInvocation { index, txn } => {
                write!(
                    f,
                    "event {index}: {txn} invoked an operation while another is pending"
                )
            }
            MalformedHistoryError::MismatchedResponse {
                index,
                txn,
                op,
                ret,
            } => {
                write!(
                    f,
                    "event {index}: {txn} response {ret} does not match invocation {op}"
                )
            }
            MalformedHistoryError::EventAfterTermination { index, txn } => {
                write!(f, "event {index}: {txn} acted after committing or aborting")
            }
            MalformedHistoryError::RepeatedRead { index, txn, obj } => {
                write!(f, "event {index}: {txn} read {obj} more than once")
            }
        }
    }
}

impl Error for MalformedHistoryError {}

/// How a transaction may terminate across the completions of a history
/// (Definition 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommitCapability {
    /// The transaction already committed (`C_k` appears in the history); it
    /// is committed in every completion.
    Committed,
    /// The transaction has an incomplete `tryC_k()`; a completion may insert
    /// either `C_k` or `A_k`.
    CommitPending,
    /// The transaction aborts in every completion: either it already
    /// aborted, or it has an incomplete `read`/`write`/`tryA` (completed
    /// with `A_k`), or it is complete but never invoked `tryC_k()`
    /// (completed with `tryC_k · A_k`).
    NeverCommitted,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TxnRecord {
    pub(crate) id: TxnId,
    pub(crate) first: usize,
    pub(crate) last: usize,
    pub(crate) ops: Ops,
    /// Terminal response (`Committed` or `Aborted`) if t-complete.
    pub(crate) terminal: Option<Ret>,
}

impl TxnRecord {
    fn is_complete(&self) -> bool {
        self.ops.last().is_none_or(OpRecord::is_complete)
    }
}

/// T-operations a transaction's record can hold inline before spilling.
/// Covers a handful of data operations plus the terminating `tryC`/`tryA`
/// — the shape of almost every real transaction.
const OPS_INLINE: usize = 6;

/// A transaction's t-operations, stored inline until they outgrow
/// [`OPS_INLINE`].
///
/// Bulk ingestion creates one record per transaction; giving each one a
/// heap-allocated `Vec` made the per-transaction malloc/free pair the
/// single largest cost in `History` construction. `OpRecord` is `Copy`,
/// so the inline variant is a plain initialized array — no unsafe code —
/// and long transactions transparently spill to a `Vec`.
// The size gap between the variants is the point: keeping the array
// inline (not boxed) is what removes the per-transaction allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Eq)]
pub(crate) enum Ops {
    Inline {
        buf: [OpRecord; OPS_INLINE],
        len: u8,
    },
    Heap(Vec<OpRecord>),
}

impl Ops {
    /// Placeholder filling unused inline slots; never observable through
    /// `as_slice`.
    const EMPTY: OpRecord = OpRecord {
        op: Op::TryCommit,
        resp: None,
        inv_index: 0,
        resp_index: None,
    };

    /// A record holding a single operation.
    fn first(op: OpRecord) -> Self {
        let mut buf = [Self::EMPTY; OPS_INLINE];
        buf[0] = op;
        Ops::Inline { buf, len: 1 }
    }

    pub(crate) fn as_slice(&self) -> &[OpRecord] {
        match self {
            Ops::Inline { buf, len } => &buf[..*len as usize],
            Ops::Heap(v) => v,
        }
    }

    fn push(&mut self, op: OpRecord) {
        match self {
            Ops::Inline { buf, len } => {
                let l = *len as usize;
                if l < OPS_INLINE {
                    buf[l] = op;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(2 * OPS_INLINE);
                    v.extend_from_slice(buf);
                    v.push(op);
                    *self = Ops::Heap(v);
                }
            }
            Ops::Heap(v) => v.push(op),
        }
    }

    fn last(&self) -> Option<&OpRecord> {
        self.as_slice().last()
    }

    fn last_mut(&mut self) -> Option<&mut OpRecord> {
        match self {
            Ops::Inline { buf, len } => (*len as usize).checked_sub(1).map(|l| &mut buf[l]),
            Ops::Heap(v) => v.last_mut(),
        }
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, OpRecord> {
        self.as_slice().iter()
    }
}

impl PartialEq for Ops {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A well-formed (possibly incomplete) transactional history.
///
/// Constructed with [`History::new`], which validates well-formedness, or
/// via [`HistoryBuilder`](crate::HistoryBuilder). Histories are immutable;
/// derived histories (prefixes, projections) are produced by methods.
///
/// # Examples
///
/// ```
/// use duop_history::{Event, History, ObjId, Op, Ret, TxnId, Value};
///
/// let t1 = TxnId::new(1);
/// let x = ObjId::new(0);
/// let h = History::new(vec![
///     Event::inv(t1, Op::Read(x)),
///     Event::resp(t1, Ret::Value(Value::INITIAL)),
///     Event::inv(t1, Op::TryCommit),
///     Event::resp(t1, Ret::Committed),
/// ])?;
/// assert!(h.is_complete());
/// assert!(h.txn(t1).unwrap().is_committed());
/// # Ok::<(), duop_history::MalformedHistoryError>(())
/// ```
#[derive(Clone, Debug)]
pub struct History {
    events: Vec<Event>,
    /// Transaction records in order of first appearance.
    recs: Vec<TxnRecord>,
    /// Transaction id → position in `recs`.
    index: TxnIndex,
}

/// Transaction id → record position, direct-mapped for the dense ids real
/// traces use.
///
/// `dense[id]` holds `position + 1` (0 marks absent), so the per-event
/// lookup in [`History::admit`] — the ingestion hot path — is one bounds
/// check and one array read instead of a hash probe. Ids too far beyond
/// the transaction count to justify table space (and the synthetic
/// [`TxnId::BASELINE`], `u32::MAX`) spill into a hash map, keeping the
/// table O(transaction count) even for adversarial id choices.
#[derive(Clone, Debug, Default)]
struct TxnIndex {
    dense: Vec<u32>,
    sparse: HashMap<TxnId, u32, BuildIdHash>,
}

impl TxnIndex {
    fn with_capacity(guess: usize) -> Self {
        TxnIndex {
            dense: Vec::with_capacity(guess.saturating_mul(2)),
            sparse: HashMap::with_hasher(BuildIdHash),
        }
    }

    fn get(&self, id: TxnId) -> Option<u32> {
        let i = id.index() as usize;
        if i < self.dense.len() {
            let v = self.dense[i];
            if v != 0 {
                return Some(v - 1);
            }
            // Fall through: the id may have spilled before the table grew
            // past it.
        }
        self.sparse.get(&id).copied()
    }

    /// Records `id -> pos`. `count` (the number of transactions seen so
    /// far) gates table growth so one huge id cannot force a huge table.
    fn insert(&mut self, id: TxnId, pos: u32, count: usize) {
        let i = id.index() as usize;
        if i < self.dense.len() {
            self.dense[i] = pos + 1;
        } else if i < 2 * (count + 16) {
            self.dense.resize(i + 1, 0);
            self.dense[i] = pos + 1;
        } else {
            self.sparse.insert(id, pos);
        }
    }
}

/// Multiplicative hasher for the transaction index. Ids are small dense
/// integers, so one `wrapping_mul` by a 64-bit odd constant spreads them
/// across the table far cheaper than the default SipHash — `History::new`
/// does one lookup per event and this is its hot path.
#[derive(Clone, Copy, Debug, Default)]
struct IdHash(u64);

impl std::hash::Hasher for IdHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-style fallback; the id types hash via `write_u32`.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BuildIdHash;

impl std::hash::BuildHasher for BuildIdHash {
    type Hasher = IdHash;

    fn build_hasher(&self) -> IdHash {
        IdHash::default()
    }
}

impl PartialEq for History {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl Eq for History {}

impl Default for History {
    fn default() -> Self {
        History::empty()
    }
}

impl History {
    /// Creates the empty history.
    pub fn empty() -> Self {
        History {
            events: Vec::new(),
            recs: Vec::new(),
            index: TxnIndex::default(),
        }
    }

    /// Creates an empty history with internal tables pre-sized for
    /// `events` incoming [`push_checked`](History::push_checked) calls —
    /// the bulk-ingestion entry point for streaming decoders.
    pub fn with_event_capacity(events: usize) -> Self {
        // A transaction contributes at least four events (an operation and
        // `tryC`/`tryA`, each with a response); sizing for that avoids
        // rehashing during the single validation pass.
        let guess = events / 4 + 1;
        History {
            events: Vec::with_capacity(events),
            recs: Vec::with_capacity(guess),
            index: TxnIndex::with_capacity(guess),
        }
    }

    /// Validates `events` as a well-formed history.
    ///
    /// # Errors
    ///
    /// Returns a [`MalformedHistoryError`] describing the first violation of
    /// well-formedness (see the error type for the rules enforced).
    pub fn new(events: Vec<Event>) -> Result<Self, MalformedHistoryError> {
        let mut h = History::with_event_capacity(events.len());
        h.events = Vec::new();
        for (index, ev) in events.iter().enumerate() {
            h.admit(index, ev)?;
        }
        h.events = events;
        Ok(h)
    }

    /// Appends one event in place, revalidating incrementally.
    ///
    /// Equivalent to [`History::extended`] with a single event, but O(1)
    /// amortized instead of re-validating the whole history — the
    /// difference between linear and quadratic ingestion for a streaming
    /// monitor.
    ///
    /// # Errors
    ///
    /// Returns a [`MalformedHistoryError`] if the event does not extend the
    /// history to a well-formed one; the history is unchanged.
    #[inline(always)]
    pub fn push_checked(&mut self, event: Event) -> Result<(), MalformedHistoryError> {
        self.admit(self.events.len(), &event)?;
        self.events.push(event);
        Ok(())
    }

    /// Folds the event at position `index` into the transaction records,
    /// with every well-formedness check performed *before* any mutation so
    /// a rejected event leaves the records untouched.
    #[inline(always)]
    fn admit(&mut self, index: usize, ev: &Event) -> Result<(), MalformedHistoryError> {
        if ev.txn.is_initial() {
            return Err(MalformedHistoryError::ReservedInitialTxn { index });
        }
        let slot = match self.index.get(ev.txn) {
            Some(slot) => slot as usize,
            None => {
                // First event of the transaction.
                let EventKind::Inv(op) = ev.kind else {
                    return Err(MalformedHistoryError::ResponseWithoutInvocation {
                        index,
                        txn: ev.txn,
                    });
                };
                let slot = self.recs.len() as u32;
                self.index.insert(ev.txn, slot, self.recs.len());
                self.recs.push(TxnRecord {
                    id: ev.txn,
                    first: index,
                    last: index,
                    ops: Ops::first(OpRecord {
                        op,
                        resp: None,
                        inv_index: index,
                        resp_index: None,
                    }),
                    terminal: None,
                });
                return Ok(());
            }
        };
        let rec = &mut self.recs[slot];
        if rec.terminal.is_some() {
            return Err(MalformedHistoryError::EventAfterTermination { index, txn: ev.txn });
        }
        match ev.kind {
            EventKind::Inv(op) => {
                if rec.ops.last().is_some_and(|o| !o.is_complete()) {
                    return Err(MalformedHistoryError::OverlappingInvocation {
                        index,
                        txn: ev.txn,
                    });
                }
                if let Op::Read(x) = op {
                    if rec.ops.iter().any(|o| o.op == Op::Read(x)) {
                        return Err(MalformedHistoryError::RepeatedRead {
                            index,
                            txn: ev.txn,
                            obj: x,
                        });
                    }
                }
                rec.ops.push(OpRecord {
                    op,
                    resp: None,
                    inv_index: index,
                    resp_index: None,
                });
            }
            EventKind::Resp(ret) => {
                let Some(pending) = rec.ops.last_mut().filter(|o| !o.is_complete()) else {
                    return Err(MalformedHistoryError::ResponseWithoutInvocation {
                        index,
                        txn: ev.txn,
                    });
                };
                if !ret.matches(pending.op) {
                    return Err(MalformedHistoryError::MismatchedResponse {
                        index,
                        txn: ev.txn,
                        op: pending.op,
                        ret,
                    });
                }
                pending.resp = Some(ret);
                pending.resp_index = Some(index);
                if matches!(ret, Ret::Committed | Ret::Aborted) {
                    rec.terminal = Some(ret);
                }
            }
        }
        rec.last = index;
        Ok(())
    }

    /// The events of the history, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Human-readable label of the event at `index` (its [`Display`]
    /// rendering, e.g. `T1:R(X0)` or `T2->C`), or `None` if out of range.
    ///
    /// Used by diagnostics that anchor explanations to event spans.
    ///
    /// [`Display`]: fmt::Display
    pub fn event_label(&self, index: usize) -> Option<String> {
        self.events.get(index).map(|e| e.to_string())
    }

    /// Returns `true` if the history has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The prefix `H^n` consisting of the first `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> History {
        assert!(
            n <= self.len(),
            "prefix length {n} exceeds history length {}",
            self.len()
        );
        // A prefix of a well-formed history is well-formed.
        History::new(self.events[..n].to_vec())
            .expect("prefix of a well-formed history is well-formed")
    }

    /// Transaction identifiers in `txns(H)`, ordered by first appearance.
    pub fn txn_ids(&self) -> impl ExactSizeIterator<Item = TxnId> + '_ {
        self.recs.iter().map(|r| r.id)
    }

    /// Number of participating transactions.
    pub fn txn_count(&self) -> usize {
        self.recs.len()
    }

    /// The position of `txn` in [`History::txn_ids`] order (its slot in
    /// the transaction table), if it participates: a dense index for
    /// per-transaction side tables.
    pub fn txn_slot(&self, txn: TxnId) -> Option<usize> {
        self.index.get(txn).map(|slot| slot as usize)
    }

    /// The record of `txn`, if it participates.
    fn rec(&self, txn: TxnId) -> Option<&TxnRecord> {
        self.index.get(txn).map(|slot| &self.recs[slot as usize])
    }

    /// Returns `true` if `T_k` participates in `H` (i.e. `H|k` is
    /// non-empty).
    pub fn participates(&self, txn: TxnId) -> bool {
        self.index.get(txn).is_some()
    }

    /// A view of transaction `txn`, or `None` if it does not participate.
    pub fn txn(&self, txn: TxnId) -> Option<TxnView<'_>> {
        self.rec(txn).map(|rec| TxnView { history: self, rec })
    }

    /// Views of all participating transactions, ordered by first appearance.
    pub fn txns(&self) -> impl Iterator<Item = TxnView<'_>> {
        self.recs
            .iter()
            .map(move |rec| TxnView { history: self, rec })
    }

    /// Returns `true` if every transaction in `txns(H)` is complete
    /// (each `H|k` ends with a response event).
    pub fn is_complete(&self) -> bool {
        self.txns().all(|t| t.is_complete())
    }

    /// Returns `true` if every transaction in `txns(H)` is t-complete
    /// (each `H|k` ends with `A_k` or `C_k`).
    pub fn is_t_complete(&self) -> bool {
        self.txns().all(|t| t.is_t_complete())
    }

    /// Returns `true` if every invocation is either the last event or is
    /// immediately followed by its matching response.
    pub fn is_sequential(&self) -> bool {
        for (i, ev) in self.events.iter().enumerate() {
            if let EventKind::Inv(_) = ev.kind {
                if i + 1 == self.events.len() {
                    continue;
                }
                let next = &self.events[i + 1];
                if next.txn != ev.txn || !next.kind.is_resp() {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if no two transactions overlap: for every pair, one
    /// precedes the other in real-time order.
    pub fn is_t_sequential(&self) -> bool {
        // Transactions sorted by first event; each must end (t-complete)
        // before the next begins.
        let mut prev_last: Option<(usize, bool)> = None;
        for rec in &self.recs {
            if let Some((last, t_complete)) = prev_last {
                if !(t_complete && last < rec.first) {
                    return false;
                }
            }
            prev_last = Some((rec.last, rec.terminal.is_some()));
        }
        true
    }

    /// Returns `true` if `H` and `other` are *equivalent*:
    /// `txns(H) = txns(H')` and `H|k = H'|k` for every transaction.
    pub fn equivalent(&self, other: &History) -> bool {
        if self.recs.len() != other.recs.len() {
            return false;
        }
        self.txns()
            .all(|t| other.txn(t.id()).is_some_and(|o| t.events().eq(o.events())))
    }

    /// The subsequence `H|k` of events of transaction `txn`.
    pub fn events_of(&self, txn: TxnId) -> impl Iterator<Item = &Event> {
        self.txn(txn).into_iter().flat_map(|t| t.events())
    }

    /// The subsequence of `H` consisting of events whose transaction
    /// satisfies `keep`.
    ///
    /// Used to build committed projections and the local serializations
    /// `S^{k,X}_H` of Definition 3.
    pub fn filter_txns(&self, mut keep: impl FnMut(TxnId) -> bool) -> History {
        let events = self
            .events
            .iter()
            .filter(|e| keep(e.txn))
            .copied()
            .collect();
        History::new(events)
            .expect("transaction-projection of a well-formed history is well-formed")
    }

    /// Real-time order on transactions: `T_k ≺RT T_m` iff `T_k` is
    /// t-complete in `H` and its last event precedes the first event of
    /// `T_m`.
    ///
    /// Returns `false` if either transaction does not participate.
    pub fn precedes_rt(&self, k: TxnId, m: TxnId) -> bool {
        let (Some(a), Some(b)) = (self.rec(k), self.rec(m)) else {
            return false;
        };
        a.terminal.is_some() && a.last < b.first
    }

    /// Returns `true` if `T_k` and `T_m` overlap (neither precedes the
    /// other in real-time order).
    pub fn overlaps(&self, k: TxnId, m: TxnId) -> bool {
        self.participates(k)
            && self.participates(m)
            && k != m
            && !self.precedes_rt(k, m)
            && !self.precedes_rt(m, k)
    }

    /// Index of the response event of `read_k(X)`, if that read is complete.
    ///
    /// Used to form the prefix `H^{k,X}` of Definition 3.
    pub fn read_resp_index(&self, txn: TxnId, obj: ObjId) -> Option<usize> {
        let rec = self.rec(txn)?;
        rec.ops
            .iter()
            .find(|o| o.op == Op::Read(obj))
            .and_then(|o| o.resp_index)
    }

    /// Index of the invocation of `tryC_k()`, if the transaction invoked it.
    pub fn try_commit_inv_index(&self, txn: TxnId) -> Option<usize> {
        let rec = self.rec(txn)?;
        rec.ops
            .iter()
            .find(|o| o.op == Op::TryCommit)
            .map(|o| o.inv_index)
    }

    /// Appends `events` to a copy of this history, revalidating.
    ///
    /// # Errors
    ///
    /// Returns a [`MalformedHistoryError`] if the extension is not
    /// well-formed.
    pub fn extended(
        &self,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<History, MalformedHistoryError> {
        let mut all = self.events.clone();
        all.extend(events);
        History::new(all)
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "(empty history)");
        }
        let mut first = true;
        for ev in &self.events {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{ev}")?;
            first = false;
        }
        Ok(())
    }
}

impl serde::Serialize for History {
    fn to_content(&self) -> serde::Content {
        serde::Serialize::to_content(&self.events)
    }
}

impl serde::Deserialize for History {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let events = <Vec<Event> as serde::Deserialize>::from_content(content)?;
        History::new(events).map_err(serde::de::Error::custom)
    }
}

/// A read-only view of one transaction inside a [`History`].
#[derive(Clone, Copy)]
pub struct TxnView<'a> {
    history: &'a History,
    rec: &'a TxnRecord,
}

impl fmt::Debug for TxnView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnView")
            .field("id", &self.rec.id)
            .field("ops", &self.rec.ops)
            .field("terminal", &self.rec.terminal)
            .finish()
    }
}

impl<'a> TxnView<'a> {
    /// The transaction identifier.
    pub fn id(&self) -> TxnId {
        self.rec.id
    }

    /// The t-operations of the transaction in program order.
    pub fn ops(&self) -> &'a [OpRecord] {
        self.rec.ops.as_slice()
    }

    /// Index of the transaction's first event in the history.
    pub fn first_event_index(&self) -> usize {
        self.rec.first
    }

    /// Index of the transaction's last event in the history.
    pub fn last_event_index(&self) -> usize {
        self.rec.last
    }

    /// Returns `true` if `H|k` ends with a response event.
    pub fn is_complete(&self) -> bool {
        self.rec.is_complete()
    }

    /// Returns `true` if `H|k` ends with `A_k` or `C_k`.
    pub fn is_t_complete(&self) -> bool {
        self.rec.terminal.is_some()
    }

    /// Returns `true` if the transaction committed (`C_k` in `H`).
    pub fn is_committed(&self) -> bool {
        self.rec.terminal == Some(Ret::Committed)
    }

    /// Returns `true` if the transaction aborted (`A_k` in `H`).
    pub fn is_aborted(&self) -> bool {
        self.rec.terminal == Some(Ret::Aborted)
    }

    /// How this transaction may terminate across completions
    /// (Definition 2).
    pub fn commit_capability(&self) -> CommitCapability {
        match self.rec.terminal {
            Some(Ret::Committed) => CommitCapability::Committed,
            Some(_) => CommitCapability::NeverCommitted,
            None => {
                let pending_try_commit = self
                    .rec
                    .ops
                    .last()
                    .is_some_and(|o| !o.is_complete() && o.op.is_try_commit());
                if pending_try_commit {
                    CommitCapability::CommitPending
                } else {
                    CommitCapability::NeverCommitted
                }
            }
        }
    }

    /// The read set `Rset(T_k)`: t-objects read by the transaction.
    ///
    /// Includes only reads whose invocation appears, whether or not a
    /// response arrived.
    pub fn read_set(&self) -> Vec<ObjId> {
        let mut objs: Vec<ObjId> = self
            .rec
            .ops
            .iter()
            .filter_map(|o| match o.op {
                Op::Read(x) => Some(x),
                _ => None,
            })
            .collect();
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    /// The write set `Wset(T_k)`: t-objects written by the transaction.
    pub fn write_set(&self) -> Vec<ObjId> {
        let mut objs: Vec<ObjId> = self
            .rec
            .ops
            .iter()
            .filter_map(|o| match o.op {
                Op::Write(x, _) => Some(x),
                _ => None,
            })
            .collect();
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    /// The value of the transaction's last write to `obj`, if any.
    pub fn last_write_to(&self, obj: ObjId) -> Option<Value> {
        self.rec.ops.iter().rev().find_map(|o| match o.op {
            Op::Write(x, v) if x == obj => Some(v),
            _ => None,
        })
    }

    /// The value returned by this transaction's read of `obj`, if the read
    /// completed with a value.
    pub fn read_value(&self, obj: ObjId) -> Option<Value> {
        self.rec
            .ops
            .iter()
            .find(|o| o.op == Op::Read(obj))
            .and_then(OpRecord::read_value)
    }

    /// Returns `true` if the transaction invoked `tryC_k()` in `H`.
    pub fn has_try_commit_inv(&self) -> bool {
        self.rec.ops.iter().any(|o| o.op.is_try_commit())
    }

    /// The events `H|k` of this transaction, read off its own operation
    /// records (each invocation, then its response if it has one) rather
    /// than by filtering the whole event log.
    pub fn events(&self) -> impl Iterator<Item = &'a Event> {
        let events = &self.history.events;
        self.ops().iter().flat_map(move |o| {
            std::iter::once(o.inv_index)
                .chain(o.resp_index)
                .map(move |i| &events[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    #[test]
    fn empty_history() {
        let h = History::empty();
        assert!(h.is_empty());
        assert!(h.is_complete());
        assert!(h.is_t_complete());
        assert!(h.is_sequential());
        assert!(h.is_t_sequential());
        assert_eq!(h.txn_count(), 0);
    }

    #[test]
    fn rejects_initial_txn() {
        let err = History::new(vec![Event::inv(TxnId::INITIAL, Op::TryCommit)]).unwrap_err();
        assert_eq!(err, MalformedHistoryError::ReservedInitialTxn { index: 0 });
    }

    #[test]
    fn rejects_response_without_invocation() {
        let err = History::new(vec![Event::resp(t(1), Ret::Ok)]).unwrap_err();
        assert!(matches!(
            err,
            MalformedHistoryError::ResponseWithoutInvocation { index: 0, .. }
        ));
    }

    #[test]
    fn rejects_overlapping_invocations_within_txn() {
        let err = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::inv(t(1), Op::TryCommit),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            MalformedHistoryError::OverlappingInvocation { index: 1, .. }
        ));
    }

    #[test]
    fn rejects_mismatched_response() {
        let err = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Ok),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            MalformedHistoryError::MismatchedResponse { index: 1, .. }
        ));
    }

    #[test]
    fn rejects_event_after_commit() {
        let err = History::new(vec![
            Event::inv(t(1), Op::TryCommit),
            Event::resp(t(1), Ret::Committed),
            Event::inv(t(1), Op::Read(x())),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            MalformedHistoryError::EventAfterTermination { index: 2, .. }
        ));
    }

    #[test]
    fn rejects_repeated_read() {
        let err = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(0))),
            Event::inv(t(1), Op::Read(x())),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            MalformedHistoryError::RepeatedRead { index: 2, .. }
        ));
    }

    #[test]
    fn abort_response_on_read_terminates_txn() {
        let h = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Aborted),
        ])
        .unwrap();
        let view = h.txn(t(1)).unwrap();
        assert!(view.is_aborted());
        assert!(view.is_t_complete());
        assert_eq!(view.commit_capability(), CommitCapability::NeverCommitted);
    }

    #[test]
    fn commit_capability_cases() {
        // Committed.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .build();
        assert_eq!(
            h.txn(t(1)).unwrap().commit_capability(),
            CommitCapability::Committed
        );

        // Pending tryC.
        let h = History::new(vec![
            Event::inv(t(1), Op::Write(x(), v(1))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(1), Op::TryCommit),
        ])
        .unwrap();
        assert_eq!(
            h.txn(t(1)).unwrap().commit_capability(),
            CommitCapability::CommitPending
        );

        // Complete but never tried to commit.
        let h = History::new(vec![
            Event::inv(t(1), Op::Write(x(), v(1))),
            Event::resp(t(1), Ret::Ok),
        ])
        .unwrap();
        assert_eq!(
            h.txn(t(1)).unwrap().commit_capability(),
            CommitCapability::NeverCommitted
        );

        // Incomplete read: completion aborts it.
        let h = History::new(vec![Event::inv(t(1), Op::Read(x()))]).unwrap();
        assert_eq!(
            h.txn(t(1)).unwrap().commit_capability(),
            CommitCapability::NeverCommitted
        );
    }

    #[test]
    fn real_time_order_requires_t_completion() {
        // T1 completes its write but never terminates before T2 starts:
        // not RT-ordered.
        let h = History::new(vec![
            Event::inv(t(1), Op::Write(x(), v(1))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(0))),
        ])
        .unwrap();
        assert!(!h.precedes_rt(t(1), t(2)));
        assert!(h.overlaps(t(1), t(2)));

        // With a commit in between they are RT-ordered.
        let h = History::new(vec![
            Event::inv(t(1), Op::Write(x(), v(1))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(1), Op::TryCommit),
            Event::resp(t(1), Ret::Committed),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(1))),
        ])
        .unwrap();
        assert!(h.precedes_rt(t(1), t(2)));
        assert!(!h.overlaps(t(1), t(2)));
    }

    #[test]
    fn sequential_and_t_sequential() {
        let seq = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        assert!(seq.is_sequential());
        assert!(seq.is_t_sequential());

        // Interleaved invocations: sequential fails.
        let h = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(0))),
            Event::resp(t(2), Ret::Value(v(0))),
        ])
        .unwrap();
        assert!(!h.is_sequential());
        assert!(!h.is_t_sequential());
    }

    #[test]
    fn sequential_but_not_t_sequential() {
        // Operations never interleave, but transactions do.
        let h = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(0))),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(0))),
            Event::inv(t(1), Op::TryCommit),
            Event::resp(t(1), Ret::Committed),
        ])
        .unwrap();
        assert!(h.is_sequential());
        assert!(!h.is_t_sequential());
    }

    #[test]
    fn equivalence_ignores_interleaving() {
        let a = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(0))),
            Event::resp(t(2), Ret::Value(v(0))),
        ])
        .unwrap();
        let b = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(0))),
            Event::inv(t(2), Op::Read(x())),
            Event::resp(t(2), Ret::Value(v(0))),
        ])
        .unwrap();
        assert!(a.equivalent(&b));
        assert!(b.equivalent(&a));

        let c = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(1))),
        ])
        .unwrap();
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn prefix_is_well_formed_and_shorter() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        let p = h.prefix(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.events(), &h.events()[..3]);
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn prefix_out_of_range_panics() {
        History::empty().prefix(1);
    }

    #[test]
    fn read_and_write_sets() {
        let y = ObjId::new(1);
        let h = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(0))),
            Event::inv(t(1), Op::Write(y, v(5))),
            Event::resp(t(1), Ret::Ok),
            Event::inv(t(1), Op::Write(y, v(6))),
            Event::resp(t(1), Ret::Ok),
        ])
        .unwrap();
        let view = h.txn(t(1)).unwrap();
        assert_eq!(view.read_set(), vec![x()]);
        assert_eq!(view.write_set(), vec![y]);
        assert_eq!(view.last_write_to(y), Some(v(6)));
        assert_eq!(view.last_write_to(x()), None);
        assert_eq!(view.read_value(x()), Some(v(0)));
    }

    #[test]
    fn filter_txns_projects() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        let only1 = h.filter_txns(|id| id == t(1));
        assert_eq!(only1.txn_count(), 1);
        assert!(only1.participates(t(1)));
        assert!(!only1.participates(t(2)));
    }

    #[test]
    fn event_labels_render_events() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .build();
        assert_eq!(h.event_label(0).as_deref(), Some("T1:W(X0,1)"));
        assert_eq!(h.event_label(3).as_deref(), Some("T1->C"));
        assert_eq!(h.event_label(99), None);
    }

    #[test]
    fn indices_for_definition3() {
        let h = History::new(vec![
            Event::inv(t(1), Op::Read(x())),
            Event::resp(t(1), Ret::Value(v(0))),
            Event::inv(t(1), Op::TryCommit),
            Event::resp(t(1), Ret::Committed),
        ])
        .unwrap();
        assert_eq!(h.read_resp_index(t(1), x()), Some(1));
        assert_eq!(h.try_commit_inv_index(t(1)), Some(2));
        assert_eq!(h.read_resp_index(t(1), ObjId::new(9)), None);
        assert_eq!(h.try_commit_inv_index(t(9)), None);
    }

    #[test]
    fn serde_roundtrip_validates() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .build();
        let json = serde_json::to_string(&h).unwrap();
        let back: History = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);

        // Malformed event lists fail to deserialize as a History.
        let bad = serde_json::to_string(&vec![Event::resp(t(1), Ret::Ok)]).unwrap();
        assert!(serde_json::from_str::<History>(&bad).is_err());
    }

    #[test]
    fn extended_appends_and_validates() {
        let h = History::new(vec![Event::inv(t(1), Op::TryCommit)]).unwrap();
        let h2 = h.extended([Event::resp(t(1), Ret::Committed)]).unwrap();
        assert_eq!(h2.len(), 2);
        assert!(h2.txn(t(1)).unwrap().is_committed());
        assert!(h2.extended([Event::inv(t(1), Op::TryCommit)]).is_err());
    }
}
