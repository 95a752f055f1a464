//! Durable checkpoint/resume for anytime checking.
//!
//! A long-running check or monitor should never lose its work to a crash,
//! a SIGTERM, or an exhausted budget. This module provides the pieces:
//!
//! * a **versioned, integrity-hashed snapshot format** ([`Snapshot`],
//!   [`save`], [`load`]) — hand-written JSON like everything else in the
//!   workspace, written atomically (temp file + rename) so a kill during
//!   a flush can never leave a half-written checkpoint behind;
//! * a **process-wide interrupt flag** ([`request_interrupt`]) that a
//!   signal handler can set from SIGINT/SIGTERM; interruptible searches
//!   poll it in their deadline-sampling slot and stop cooperatively with
//!   [`UnknownReason::Interrupted`](crate::UnknownReason) so the caller
//!   can flush a final checkpoint;
//! * an anytime check driver ([`ResumableCheck`]) that runs the same
//!   query as the criterion structs but through a persistent component
//!   cache, so decided fragments survive budget exhaustion (for
//!   checkpointing) and seed the next attempt (for `duop resume` and
//!   `--retry`/`--escalate`);
//! * a **checkpoint sink** the driver owns
//!   ([`ResumableCheck::set_checkpoint_sink`]): the sequential planned
//!   search hands it the decided fragments as components are decided, so
//!   checkpoints land *during* a check, not only after it.
//!
//! Soundness is inherited, never assumed: resumed fragments are *replayed*
//! through the searcher's own placement rules before reuse, and a resumed
//! monitor revalidates its checkpointed witness. A corrupt-but-well-hashed
//! snapshot therefore costs wasted replay time, never a wrong verdict —
//! and an actually corrupted file is rejected by the integrity hash first.

use crate::json::{field, fields, s};
use crate::online::OnlineStats;
use crate::plan::ComponentCache;
use crate::search::{SearchConfig, SearchStats};
use crate::{Verdict, Witness};
use duop_history::{Event, History, TxnId};
use serde::{Content, DeError, Deserialize as _};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Format version of the snapshot file; [`load`] rejects anything else.
pub const SNAPSHOT_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Interrupt flag
// ---------------------------------------------------------------------------

/// Process-wide cooperative interrupt flag, set by the CLI's
/// SIGINT/SIGTERM handler. Searches poll it only when they opt in via
/// [`SearchConfig::interruptible`](crate::SearchConfig); the shard
/// coordinator and the serve daemon poll it in their event loops.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Requests a cooperative stop. Async-signal-safe (a single atomic
/// store), so a signal handler may call it directly.
pub fn request_interrupt() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Whether an interrupt has been requested.
pub fn interrupt_requested() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Clears the interrupt flag (tests; a CLI process simply exits).
pub fn clear_interrupt() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Checkpoint sink
// ---------------------------------------------------------------------------

/// One decided conflict-graph component: its member transactions (sorted
/// spec order) and the serialization fragment (placement order + chosen
/// commit fates) that certified it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fragment {
    /// The component's member transactions.
    pub members: Vec<TxnId>,
    /// The fragment: `(txn, committed)` in placement order.
    pub placements: Vec<(TxnId, bool)>,
}

/// A checkpoint-sink callback: receives the decided fragments and the
/// explored-state count at each flush.
pub type CheckpointSink = Box<dyn FnMut(&[Fragment], u64) + Send>;

/// A [`ResumableCheck`]'s checkpoint sink and its flush cadence.
pub(crate) struct SinkState {
    every: u64,
    last_flush: u64,
    sink: CheckpointSink,
}

impl SinkState {
    /// Hands `fragments` to the sink when at least `every` states have
    /// been explored since the last flush.
    pub(crate) fn progress(&mut self, explored: u64, fragments: impl FnOnce() -> Vec<Fragment>) {
        if explored.saturating_sub(self.last_flush) >= self.every {
            self.last_flush = explored;
            (self.sink)(&fragments(), explored);
        }
    }
}

impl fmt::Debug for SinkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkState")
            .field("every", &self.every)
            .field("last_flush", &self.last_flush)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Snapshot data model
// ---------------------------------------------------------------------------

/// A criterion the enclosing `duop check` already finished: its CLI name,
/// whether it passed, and the exact output line to re-emit on resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedCriterion {
    /// CLI criterion name (e.g. `du`).
    pub name: String,
    /// Whether the criterion was satisfied.
    pub ok: bool,
    /// The rendered output line (text or JSON, matching the run's format).
    pub line: String,
}

/// The criterion a checkpointed `duop check` was working on when the
/// snapshot was taken, with the component fragments decided so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InFlight {
    /// CLI criterion name.
    pub name: String,
    /// Explored-state count at flush time (informational).
    pub explored: u64,
    /// Decided component fragments, replay-validated on resume.
    pub fragments: Vec<Fragment>,
}

/// Checkpoint of a `duop check` run.
///
/// Of [`Self::search`] the file records `threads`, the four stage
/// switches and both budgets, each under its version-1 key; the deadline
/// in whole milliseconds as `deadline_ms`. A `0` thread count or budget
/// means none, so a zero budget reads back as `None`. `memo` and
/// `interruptible` are not recorded and read back as their defaults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckSnapshot {
    /// The full input trace (resume does not need the original file).
    pub events: Vec<Event>,
    /// Requested criteria, CLI spellings, in order.
    pub criteria: Vec<String>,
    /// Output format (`text` or `json`).
    pub format: String,
    /// The pipeline of the run's first attempt.
    pub search: SearchConfig,
    /// Remaining escalation retries.
    pub retry: u64,
    /// Escalation factor, in thousandths (e.g. `2000` = 2.0×).
    pub escalate_milli: u64,
    /// Escalation attempts already consumed.
    pub attempt: u64,
    /// Criteria already decided, with their recorded output lines.
    pub completed: Vec<CompletedCriterion>,
    /// The criterion in flight when the snapshot was flushed.
    pub current: Option<InFlight>,
}

/// Checkpoint of a `duop monitor` run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorSnapshot {
    /// The full input trace.
    pub events: Vec<Event>,
    /// Events already pushed through the monitor.
    pub done: u64,
    /// Event index (0-based) whose push first returned a violation, if
    /// any. Resume *re-derives* the violation by checking that prefix —
    /// the snapshot records where, never what, so a forged location can
    /// only cause a recheck, not a wrong verdict.
    pub violated_at: Option<u64>,
    /// The last certified witness, revalidated on resume.
    pub witness: Option<Witness>,
    /// Monitor work counters at flush time.
    pub stats: OnlineStats,
    /// Component fragments from the monitor's cache.
    pub fragments: Vec<Fragment>,
    /// `--status-every` setting (`0` = none), restored on resume.
    pub status_every: u64,
    /// `--checkpoint-every` setting, restored on resume.
    pub checkpoint_every: u64,
}

/// Checkpoint of one `duop serve` session: everything the daemon needs to
/// resume the session's `OnlineChecker` after a crash and keep producing
/// the same verdicts it would have produced uninterrupted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionSnapshot {
    /// The daemon-assigned session id.
    pub session: u64,
    /// Total events acknowledged so far (clients re-stream from here).
    pub ingested: u64,
    /// The retained (possibly compacted) history at flush time. Like
    /// [`MonitorSnapshot::violated_at`], any violation is *re-derived* by
    /// checking these events on load — never deserialized.
    pub events: Vec<Event>,
    /// Whether the session has exhausted its retained-event budget and
    /// stopped retaining new events (its verdict degrades to
    /// `Unknown{partial}` unless a violation was already final).
    pub degraded: bool,
    /// Events counted but not retained after degradation set in.
    pub discarded: u64,
    /// The last certified witness, revalidated on resume.
    pub witness: Option<Witness>,
    /// Monitor work counters at flush time.
    pub stats: OnlineStats,
    /// Component fragments from the session checker's cache.
    pub fragments: Vec<Fragment>,
    /// Per-session retained-event budget (`0` = unbounded), restored on
    /// resume so a recovered session keeps the same degradation policy.
    pub budget: u64,
}

/// A checkpoint: what kind of run it belongs to plus that run's progress.
#[derive(Clone, Debug, PartialEq)]
pub enum Snapshot {
    /// A `duop check` checkpoint.
    Check(CheckSnapshot),
    /// A `duop monitor` checkpoint.
    Monitor(MonitorSnapshot),
    /// A `duop serve` per-session checkpoint.
    Session(SessionSnapshot),
}

// ---------------------------------------------------------------------------
// Serialization (hand-written, through core/json.rs's helpers)
// ---------------------------------------------------------------------------

fn pair_seq(pairs: &[(TxnId, bool)]) -> Content {
    Content::Seq(
        pairs
            .iter()
            .map(|&(t, c)| Content::Seq(vec![serde::Serialize::to_content(&t), Content::Bool(c)]))
            .collect(),
    )
}

fn pairs_from(content: &Content) -> Result<Vec<(TxnId, bool)>, DeError> {
    let Content::Seq(items) = content else {
        return Err(DeError::custom("expected array of [txn, bool] pairs"));
    };
    items
        .iter()
        .map(|item| match item {
            Content::Seq(kv) if kv.len() == 2 => {
                let t = <TxnId as serde::Deserialize>::from_content(&kv[0])?;
                let c = bool::from_content(&kv[1])?;
                Ok((t, c))
            }
            _ => Err(DeError::custom("expected [txn, bool] pair")),
        })
        .collect()
}

impl serde::Serialize for Fragment {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("members".into(), self.members.to_content()),
            ("placements".into(), pair_seq(&self.placements)),
        ])
    }
}

impl serde::Deserialize for Fragment {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "fragment")?;
        Ok(Fragment {
            members: Vec::<TxnId>::from_content(field(m, "members")?)?,
            placements: pairs_from(field(m, "placements")?)?,
        })
    }
}

/// Decodes a checkpointed witness: `null`, the verdict codec's shape, or
/// the legacy `{"order":[1,2],"choices":[[1,true]]}` shape older
/// checkpoints carry.
fn checkpoint_witness(content: &Content) -> Result<Option<Witness>, DeError> {
    if matches!(content, Content::Null) {
        return Ok(None);
    }
    let m = fields(content, "witness")?;
    if field(m, "commit_choices").is_ok() {
        return Witness::from_content(content).map(Some);
    }
    let order = Vec::<TxnId>::from_content(field(m, "order")?)?;
    let choices = pairs_from(field(m, "choices")?)?;
    Ok(Some(Witness::new(order, choices.into_iter().collect())))
}

impl serde::Serialize for CompletedCriterion {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("name".into(), s(self.name.clone())),
            ("ok".into(), Content::Bool(self.ok)),
            ("line".into(), s(self.line.clone())),
        ])
    }
}

impl serde::Deserialize for CompletedCriterion {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "completed criterion")?;
        Ok(CompletedCriterion {
            name: String::from_content(field(m, "name")?)?,
            ok: bool::from_content(field(m, "ok")?)?,
            line: String::from_content(field(m, "line")?)?,
        })
    }
}

impl serde::Serialize for InFlight {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("name".into(), s(self.name.clone())),
            ("explored".into(), Content::U64(self.explored)),
            ("fragments".into(), self.fragments.to_content()),
        ])
    }
}

impl serde::Deserialize for InFlight {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "in-flight criterion")?;
        Ok(InFlight {
            name: String::from_content(field(m, "name")?)?,
            explored: u64::from_content(field(m, "explored")?)?,
            fragments: Vec::<Fragment>::from_content(field(m, "fragments")?)?,
        })
    }
}

impl serde::Serialize for OnlineStats {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("events".into(), Content::U64(self.events as u64)),
            (
                "incremental_hits".into(),
                Content::U64(self.incremental_hits as u64),
            ),
            (
                "full_searches".into(),
                Content::U64(self.full_searches as u64),
            ),
            (
                "component_reuses".into(),
                Content::U64(self.component_reuses),
            ),
            (
                "lint_refutations".into(),
                Content::U64(self.lint_refutations),
            ),
            (
                "retained_events".into(),
                Content::U64(self.retained_events as u64),
            ),
            (
                "peak_resident_events".into(),
                Content::U64(self.peak_resident_events as u64),
            ),
            ("compactions".into(), Content::U64(self.compactions)),
            (
                "compacted_events".into(),
                Content::U64(self.compacted_events),
            ),
        ])
    }
}

impl serde::Deserialize for OnlineStats {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "monitor stats")?;
        Ok(OnlineStats {
            events: usize::from_content(field(m, "events")?)?,
            incremental_hits: usize::from_content(field(m, "incremental_hits")?)?,
            full_searches: usize::from_content(field(m, "full_searches")?)?,
            component_reuses: u64::from_content(field(m, "component_reuses")?)?,
            lint_refutations: u64::from_content(field(m, "lint_refutations")?)?,
            retained_events: usize::from_content(field(m, "retained_events")?)?,
            peak_resident_events: usize::from_content(field(m, "peak_resident_events")?)?,
            // Absent in checkpoints written before compaction existed.
            compactions: match field(m, "compactions") {
                Ok(v) => u64::from_content(v)?,
                Err(_) => 0,
            },
            compacted_events: match field(m, "compacted_events") {
                Ok(v) => u64::from_content(v)?,
                Err(_) => 0,
            },
        })
    }
}

impl serde::Serialize for CheckSnapshot {
    fn to_content(&self) -> Content {
        let search = &self.search;
        let threads = search.threads.unwrap_or(0) as u64;
        let deadline_ms = search.deadline.map_or(0, |d| d.as_millis() as u64);
        let max_states = search.max_states.unwrap_or(0);
        Content::Map(vec![
            ("kind".into(), s("check")),
            ("events".into(), self.events.to_content()),
            ("criteria".into(), self.criteria.to_content()),
            ("format".into(), s(self.format.clone())),
            ("threads".into(), Content::U64(threads)),
            ("decompose".into(), Content::Bool(search.decompose)),
            ("prelint".into(), Content::Bool(search.prelint)),
            ("saturate".into(), Content::Bool(search.saturate)),
            ("ladder".into(), Content::Bool(search.ladder)),
            ("deadline_ms".into(), Content::U64(deadline_ms)),
            ("max_states".into(), Content::U64(max_states)),
            ("retry".into(), Content::U64(self.retry)),
            ("escalate_milli".into(), Content::U64(self.escalate_milli)),
            ("attempt".into(), Content::U64(self.attempt)),
            ("completed".into(), self.completed.to_content()),
            ("current".into(), self.current.to_content()),
        ])
    }
}

impl serde::Deserialize for CheckSnapshot {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "check snapshot")?;
        let nonzero = |key| u64::from_content(field(m, key)?).map(|n| (n > 0).then_some(n));
        Ok(CheckSnapshot {
            events: Vec::<Event>::from_content(field(m, "events")?)?,
            criteria: Vec::<String>::from_content(field(m, "criteria")?)?,
            format: String::from_content(field(m, "format")?)?,
            search: SearchConfig {
                threads: nonzero("threads")?.map(|n| n as usize),
                decompose: bool::from_content(field(m, "decompose")?)?,
                prelint: bool::from_content(field(m, "prelint")?)?,
                // Absent in checkpoints written before the saturation pass.
                saturate: match field(m, "saturate") {
                    Ok(v) => bool::from_content(v)?,
                    Err(_) => true,
                },
                ladder: bool::from_content(field(m, "ladder")?)?,
                deadline: nonzero("deadline_ms")?.map(Duration::from_millis),
                max_states: nonzero("max_states")?,
                ..SearchConfig::default()
            },
            retry: u64::from_content(field(m, "retry")?)?,
            escalate_milli: u64::from_content(field(m, "escalate_milli")?)?,
            attempt: u64::from_content(field(m, "attempt")?)?,
            completed: Vec::<CompletedCriterion>::from_content(field(m, "completed")?)?,
            current: Option::<InFlight>::from_content(field(m, "current")?)?,
        })
    }
}

impl serde::Serialize for MonitorSnapshot {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("kind".into(), s("monitor")),
            ("events".into(), self.events.to_content()),
            ("done".into(), Content::U64(self.done)),
            ("violated_at".into(), self.violated_at.to_content()),
            ("witness".into(), self.witness.to_content()),
            ("stats".into(), self.stats.to_content()),
            ("fragments".into(), self.fragments.to_content()),
            ("status_every".into(), Content::U64(self.status_every)),
            (
                "checkpoint_every".into(),
                Content::U64(self.checkpoint_every),
            ),
        ])
    }
}

impl serde::Deserialize for MonitorSnapshot {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "monitor snapshot")?;
        Ok(MonitorSnapshot {
            events: Vec::<Event>::from_content(field(m, "events")?)?,
            done: u64::from_content(field(m, "done")?)?,
            violated_at: Option::<u64>::from_content(field(m, "violated_at")?)?,
            witness: checkpoint_witness(field(m, "witness")?)?,
            stats: OnlineStats::from_content(field(m, "stats")?)?,
            fragments: Vec::<Fragment>::from_content(field(m, "fragments")?)?,
            status_every: u64::from_content(field(m, "status_every")?)?,
            checkpoint_every: u64::from_content(field(m, "checkpoint_every")?)?,
        })
    }
}

impl serde::Serialize for SessionSnapshot {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("kind".into(), s("session")),
            ("session".into(), Content::U64(self.session)),
            ("ingested".into(), Content::U64(self.ingested)),
            ("events".into(), self.events.to_content()),
            ("degraded".into(), Content::Bool(self.degraded)),
            ("discarded".into(), Content::U64(self.discarded)),
            ("witness".into(), self.witness.to_content()),
            ("stats".into(), self.stats.to_content()),
            ("fragments".into(), self.fragments.to_content()),
            ("budget".into(), Content::U64(self.budget)),
        ])
    }
}

impl serde::Deserialize for SessionSnapshot {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "session snapshot")?;
        Ok(SessionSnapshot {
            session: u64::from_content(field(m, "session")?)?,
            ingested: u64::from_content(field(m, "ingested")?)?,
            events: Vec::<Event>::from_content(field(m, "events")?)?,
            degraded: bool::from_content(field(m, "degraded")?)?,
            discarded: u64::from_content(field(m, "discarded")?)?,
            witness: checkpoint_witness(field(m, "witness")?)?,
            stats: OnlineStats::from_content(field(m, "stats")?)?,
            fragments: Vec::<Fragment>::from_content(field(m, "fragments")?)?,
            budget: u64::from_content(field(m, "budget")?)?,
        })
    }
}

impl serde::Serialize for Snapshot {
    fn to_content(&self) -> Content {
        match self {
            Snapshot::Check(c) => c.to_content(),
            Snapshot::Monitor(m) => m.to_content(),
            Snapshot::Session(s) => s.to_content(),
        }
    }
}

impl serde::Deserialize for Snapshot {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let m = fields(content, "snapshot payload")?;
        match String::from_content(field(m, "kind")?)?.as_str() {
            "check" => CheckSnapshot::from_content(content).map(Snapshot::Check),
            "monitor" => MonitorSnapshot::from_content(content).map(Snapshot::Monitor),
            "session" => SessionSnapshot::from_content(content).map(Snapshot::Session),
            other => Err(DeError::custom(format!("unknown snapshot kind `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Durable save / load
// ---------------------------------------------------------------------------

/// Why a snapshot file could not be written or read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(String),
    /// The file is not syntactically valid JSON (truncation, bit flips in
    /// structure).
    Syntax(String),
    /// The file's format version is not [`SNAPSHOT_VERSION`].
    WrongVersion {
        /// The version the file declares.
        found: u64,
    },
    /// The payload does not match its recorded integrity hash.
    HashMismatch,
    /// The payload parses as JSON but not as a snapshot.
    Shape(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            SnapshotError::Syntax(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            SnapshotError::WrongVersion { found } => write!(
                f,
                "checkpoint version {found} is not supported (expected {SNAPSHOT_VERSION})"
            ),
            SnapshotError::HashMismatch => {
                write!(f, "checkpoint integrity hash does not match its payload")
            }
            SnapshotError::Shape(e) => write!(f, "checkpoint payload is malformed: {e}"),
        }
    }
}

impl Error for SnapshotError {}

/// FxHash-128 of the payload bytes, as 32 hex digits. Not cryptographic —
/// it detects corruption (truncation, bit flips), not tampering.
fn hash_hex(bytes: &[u8]) -> String {
    let mut h = crate::fxhash::Hash128::new();
    h.write(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h.write(u64::from_le_bytes(buf));
    }
    format!("{:032x}", h.finish())
}

/// Renders a snapshot to its on-disk form (exposed for tests that build
/// corrupt variants).
pub fn to_file_string(snapshot: &Snapshot) -> String {
    let payload = serde::Serialize::to_content(snapshot);
    let body = serde_json::to_string(&payload).expect("content serialization is infallible");
    let hash = hash_hex(body.as_bytes());
    format!("{{\"version\":{SNAPSHOT_VERSION},\"hash\":\"{hash}\",\"payload\":{body}}}\n")
}

/// Writes `snapshot` to `path` atomically: the bytes go to a temp file in
/// the same directory, then a single `rename` publishes them. A reader
/// (or a crash) sees either the old complete checkpoint or the new one.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the temp write or the rename fails.
pub fn save(path: &str, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    let text = to_file_string(snapshot);
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, &text).map_err(|e| SnapshotError::Io(format!("{tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(format!("{tmp} -> {path}: {e}")))
}

/// Identity deserializer so the raw content tree can be inspected before
/// committing to a snapshot shape.
struct Raw(Content);

impl serde::Deserialize for Raw {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Raw(content.clone()))
    }
}

/// Loads and verifies a snapshot: JSON syntax, format version, integrity
/// hash (recomputed over the canonical re-serialization of the payload),
/// then shape — in that order, so the error names the first problem.
///
/// # Errors
///
/// Every [`SnapshotError`] variant is reachable; none of them panic, so a
/// truncated, bit-flipped, or hand-edited file degrades to a structured
/// error (`duop resume` exits 2).
pub fn load(path: &str) -> Result<Snapshot, SnapshotError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| SnapshotError::Io(format!("{path}: {e}")))?;
    let Raw(outer) =
        serde_json::from_str::<Raw>(&text).map_err(|e| SnapshotError::Syntax(e.to_string()))?;
    let entries = fields(&outer, "snapshot file").map_err(|e| SnapshotError::Shape(e.0))?;
    let version = field(entries, "version")
        .map_err(|e| SnapshotError::Shape(e.0))?
        .as_u64()
        .ok_or_else(|| SnapshotError::Shape("`version` must be an integer".into()))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::WrongVersion { found: version });
    }
    let recorded = field(entries, "hash")
        .map_err(|e| SnapshotError::Shape(e.0))?
        .as_str()
        .ok_or_else(|| SnapshotError::Shape("`hash` must be a string".into()))?
        .to_owned();
    let payload = field(entries, "payload").map_err(|e| SnapshotError::Shape(e.0))?;
    // The payload was written by our own serializer, whose output the
    // parser round-trips exactly, so re-serializing the parsed tree
    // reproduces the hashed bytes.
    let body = serde_json::to_string(payload).expect("content serialization is infallible");
    if hash_hex(body.as_bytes()) != recorded {
        return Err(SnapshotError::HashMismatch);
    }
    <Snapshot as serde::Deserialize>::from_content(payload).map_err(|e| SnapshotError::Shape(e.0))
}

// ---------------------------------------------------------------------------
// Anytime check driver
// ---------------------------------------------------------------------------

/// The criteria whose checks are single serialization queries — exactly
/// the ones whose per-component progress is checkpointable and resumable.
/// (`opacity` runs a prefix loop and the TMS2 automaton is polynomial;
/// both re-run from scratch on resume.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckableCriterion {
    /// Final-state opacity (Definition 2).
    FinalStateOpacity,
    /// DU-opacity (Definition 3).
    DuOpacity,
    /// Read-commit-order opacity.
    ReadCommitOrder,
    /// The paper's TMS2 rendering.
    Tms2,
    /// Strict serializability of the committed projection.
    StrictSerializability,
}

impl CheckableCriterion {
    fn plan_criterion(self) -> crate::plan::PlanCriterion {
        match self {
            CheckableCriterion::FinalStateOpacity => crate::plan::PlanCriterion::FinalState,
            CheckableCriterion::DuOpacity => crate::plan::PlanCriterion::Du,
            CheckableCriterion::ReadCommitOrder => crate::plan::PlanCriterion::Rco,
            CheckableCriterion::Tms2 => crate::plan::PlanCriterion::Tms2,
            CheckableCriterion::StrictSerializability => crate::plan::PlanCriterion::Strict,
        }
    }
}

/// An anytime, resumable exact check: the same prelint → plan → search
/// pipeline as the criterion structs, run through a persistent
/// [`ComponentCache`] so that
///
/// * on budget exhaustion, the fragments of every component decided so
///   far are exportable ([`ResumableCheck::fragments`]) for a checkpoint;
/// * a later attempt (a `duop resume`, or the in-process
///   `--retry`/`--escalate` loop) preloads those fragments and *replays*
///   them through the searcher's own placement rules instead of
///   re-searching — validated reuse, identical verdicts, strictly fewer
///   explored states.
///
/// Fragment reuse and the checkpoint sink flow through the sequential
/// planned engine; with `threads > 1` (the parallel engine) or
/// `decompose = false` the check still works but decides every component
/// afresh and flushes nothing mid-search.
#[derive(Debug, Default)]
pub struct ResumableCheck {
    cache: ComponentCache,
}

impl ResumableCheck {
    /// A driver with an empty cache (a from-scratch check).
    pub fn new() -> Self {
        ResumableCheck::default()
    }

    /// Preloads checkpointed fragments. They are replay-validated before
    /// any reuse, so corrupt or stale fragments are harmless.
    pub fn preload(&mut self, fragments: Vec<Fragment>) {
        self.cache.preload(fragments);
    }

    /// The fragments of every component decided by the most recent
    /// [`ResumableCheck::check`] call (sorted, deterministic).
    pub fn fragments(&self) -> Vec<Fragment> {
        self.cache.fragments()
    }

    /// Flushes checkpoints while later [`ResumableCheck::check`] calls
    /// run: after each decided component, once at least `every` states
    /// have been explored since the last flush, `sink` receives the
    /// decided fragments and the explored-state count. Replaces any
    /// previous sink.
    pub fn set_checkpoint_sink(&mut self, every: u64, sink: CheckpointSink) {
        self.cache.sink = Some(SinkState {
            every: every.max(1),
            last_flush: 0,
            sink,
        });
    }

    /// Checks `h` against `criterion` under `cfg`: the same pipeline as
    /// the corresponding [`Criterion::check`](crate::Criterion) call, run
    /// through the persistent cache.
    pub fn check(
        &mut self,
        h: &History,
        criterion: CheckableCriterion,
        cfg: &SearchConfig,
    ) -> (Verdict, SearchStats) {
        crate::plan::check_planned(h, criterion.plan_criterion(), cfg, Some(&mut self.cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::{HistoryBuilder, ObjId, Value};
    use std::collections::BTreeMap;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }

    fn sample_check_snapshot() -> CheckSnapshot {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), ObjId::new(0), Value::new(1))
            .committed_reader(t(2), ObjId::new(0), Value::new(1))
            .build();
        CheckSnapshot {
            events: h.events().to_vec(),
            criteria: vec!["du".into(), "rco".into()],
            format: "text".into(),
            search: SearchConfig {
                deadline: Some(Duration::from_millis(250)),
                max_states: Some(1000),
                ..SearchConfig::default()
            },
            retry: 3,
            escalate_milli: 2000,
            attempt: 1,
            completed: vec![CompletedCriterion {
                name: "du".into(),
                ok: true,
                line: "du-opacity                   satisfied; witness: \"T1\" < T2".into(),
            }],
            current: Some(InFlight {
                name: "rco".into(),
                explored: 42,
                fragments: vec![Fragment {
                    members: vec![t(1), t(2)],
                    placements: vec![(t(1), true), (t(2), true)],
                }],
            }),
        }
    }

    #[test]
    fn check_snapshot_round_trips_through_file() {
        let snap = Snapshot::Check(sample_check_snapshot());
        let path = std::env::temp_dir().join(format!(
            "duop-snap-rt-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = path.to_str().unwrap().to_owned();
        save(&path, &snap).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, snap);
        std::fs::remove_file(&path).ok();
    }

    /// Pins the version-1 bytes of a check checkpoint, pipeline keys
    /// included: changing them needs a new `SNAPSHOT_VERSION`.
    #[test]
    fn check_snapshot_bytes_keep_the_version_1_layout() {
        let snap = CheckSnapshot {
            search: SearchConfig {
                threads: Some(2),
                decompose: false,
                saturate: false,
                ..sample_check_snapshot().search
            },
            ..sample_check_snapshot()
        };
        let expected = concat!(
            r#"{"version":1,"hash":"4ce063367d36adea86d18b9c57b051c4","#,
            r#""payload":{"kind":"check","events":[{"txn":1,"kind":{"Inv":{"Write":[0,1]}}},"#,
            r#"{"txn":1,"kind":{"Resp":"Ok"}},{"txn":1,"kind":{"Inv":"TryCommit"}},{"txn":1,"#,
            r#""kind":{"Resp":"Committed"}},{"txn":2,"kind":{"Inv":{"Read":0}}},{"txn":2,"#,
            r#""kind":{"Resp":{"Value":1}}},{"txn":2,"kind":{"Inv":"TryCommit"}},{"txn":2,"#,
            r#""kind":{"Resp":"Committed"}}],"criteria":["du","rco"],"format":"text","#,
            r#""threads":2,"decompose":false,"prelint":true,"saturate":false,"ladder":true,"#,
            r#""deadline_ms":250,"max_states":1000,"retry":3,"escalate_milli":2000,"#,
            r#""attempt":1,"completed":[{"name":"du","ok":true,"#,
            r#""line":"du-opacity                   satisfied; witness: \"T1\" < T2"}],"#,
            r#""current":{"name":"rco","explored":42,"fragments":[{"members":[1,2],"#,
            r#""placements":[[1,true],[2,true]]}]}}}"#,
            "\n"
        );
        let snap = Snapshot::Check(snap);
        assert_eq!(to_file_string(&snap), expected);
        let path = std::env::temp_dir().join(format!(
            "duop-snap-v1-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = path.to_str().unwrap().to_owned();
        std::fs::write(&path, expected).unwrap();
        assert_eq!(load(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn monitor_snapshot_round_trips() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), ObjId::new(0), Value::new(1))
            .build();
        let stats = OnlineStats {
            events: 4,
            incremental_hits: 3,
            full_searches: 1,
            component_reuses: 0,
            lint_refutations: 0,
            retained_events: 4,
            peak_resident_events: 4,
            compactions: 1,
            compacted_events: 6,
        };
        let snap = Snapshot::Monitor(MonitorSnapshot {
            events: h.events().to_vec(),
            done: 4,
            violated_at: None,
            witness: Some(Witness::new(vec![t(1)], BTreeMap::from([(t(1), true)]))),
            stats,
            fragments: Vec::new(),
            status_every: 2,
            checkpoint_every: 1,
        });
        let text = to_file_string(&snap);
        let path = std::env::temp_dir().join(format!(
            "duop-snap-mon-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, &text).unwrap();
        let loaded = load(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, snap);
        std::fs::remove_file(&path).ok();
    }

    /// A session checkpoint in the format written before witnesses moved
    /// to the verdict codec (`{"order":[1,2],"choices":[[2,false]]}`)
    /// still loads, into the same snapshot the current writer produces.
    #[test]
    fn legacy_witness_checkpoint_loads() {
        let legacy = r#"{"version":1,"hash":"8138669b2dc570796d64dff7fb9c5a05","payload":{"kind":"session","session":7,"ingested":9,"events":[{"txn":1,"kind":{"Inv":{"Write":[0,1]}}},{"txn":1,"kind":{"Resp":"Ok"}},{"txn":1,"kind":{"Inv":"TryCommit"}},{"txn":1,"kind":{"Resp":"Committed"}},{"txn":2,"kind":{"Inv":{"Write":[0,2]}}},{"txn":2,"kind":{"Resp":"Ok"}},{"txn":2,"kind":{"Inv":"TryCommit"}}],"degraded":false,"discarded":0,"witness":{"order":[1,2],"choices":[[2,false]]},"stats":{"events":9,"incremental_hits":5,"full_searches":2,"component_reuses":1,"lint_refutations":0,"retained_events":7,"peak_resident_events":7,"compactions":0,"compacted_events":0},"fragments":[{"members":[1,2],"placements":[[1,true],[2,false]]}],"budget":64}}"#;
        let h = HistoryBuilder::new()
            .committed_writer(t(1), ObjId::new(0), Value::new(1))
            .write(t(2), ObjId::new(0), Value::new(2))
            .inv_try_commit(t(2))
            .build();
        let expected = Snapshot::Session(SessionSnapshot {
            session: 7,
            ingested: 9,
            events: h.events().to_vec(),
            degraded: false,
            discarded: 0,
            witness: Some(Witness::new(
                vec![t(1), t(2)],
                BTreeMap::from([(t(2), false)]),
            )),
            stats: OnlineStats {
                events: 9,
                incremental_hits: 5,
                full_searches: 2,
                component_reuses: 1,
                lint_refutations: 0,
                retained_events: 7,
                peak_resident_events: 7,
                compactions: 0,
                compacted_events: 0,
            },
            fragments: vec![Fragment {
                members: vec![t(1), t(2)],
                placements: vec![(t(1), true), (t(2), false)],
            }],
            budget: 64,
        });
        let path = std::env::temp_dir().join(format!(
            "duop-snap-legacy-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, legacy).unwrap();
        let loaded = load(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, Ok(expected.clone()));
        // Re-saving writes the verdict codec's witness shape.
        assert!(to_file_string(&expected)
            .contains(r#""witness":{"order":["T1","T2"],"commit_choices":{"T2":false}}"#));
    }

    #[test]
    fn session_snapshot_round_trips() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), ObjId::new(0), Value::new(1))
            .committed_reader(t(2), ObjId::new(0), Value::new(1))
            .build();
        let stats = OnlineStats {
            events: 8,
            incremental_hits: 5,
            full_searches: 2,
            component_reuses: 1,
            lint_refutations: 0,
            retained_events: 8,
            peak_resident_events: 8,
            compactions: 1,
            compacted_events: 4,
        };
        let snap = Snapshot::Session(SessionSnapshot {
            session: 7,
            ingested: 12,
            events: h.events().to_vec(),
            degraded: true,
            discarded: 4,
            witness: Some(Witness::new(
                vec![t(1), t(2)],
                BTreeMap::from([(t(1), true), (t(2), false)]),
            )),
            stats,
            fragments: vec![Fragment {
                members: vec![t(1), t(2)],
                placements: vec![(t(1), true), (t(2), true)],
            }],
            budget: 64,
        });
        let path = std::env::temp_dir().join(format!(
            "duop-snap-sess-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = path.to_str().unwrap().to_owned();
        save(&path, &snap).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_yield_structured_errors() {
        let snap = Snapshot::Check(sample_check_snapshot());
        let good = to_file_string(&snap);

        // Truncated: syntax error.
        let half = &good[..good.len() / 2];
        let dir = std::env::temp_dir();
        let write = |label: &str, text: &str| {
            let p = dir.join(format!(
                "duop-snap-corrupt-{label}-{}-{:?}.json",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::write(&p, text).unwrap();
            p.to_str().unwrap().to_owned()
        };

        let p = write("trunc", half);
        assert!(matches!(load(&p), Err(SnapshotError::Syntax(_))));

        // Wrong version.
        let versioned = good.replacen("\"version\":1", "\"version\":99", 1);
        let p = write("ver", &versioned);
        assert!(matches!(
            load(&p),
            Err(SnapshotError::WrongVersion { found: 99 })
        ));

        // Payload flip: hash mismatch.
        let flipped = good.replacen("\"threads\":0", "\"threads\":7", 1);
        let p = write("flip", &flipped);
        assert!(matches!(load(&p), Err(SnapshotError::HashMismatch)));

        // Bad hash field.
        let bad_hash = {
            let start = good.find("\"hash\":\"").unwrap() + "\"hash\":\"".len();
            let mut s = good.clone();
            s.replace_range(start..start + 4, "dead");
            s
        };
        let p = write("hash", &bad_hash);
        match load(&p) {
            // 1-in-16^4 chance the original hash started with "dead".
            Err(SnapshotError::HashMismatch) | Ok(_) => {}
            other => panic!("expected hash mismatch, got {other:?}"),
        }

        // Missing file: io error.
        assert!(matches!(
            load("/nonexistent/duop-snap.json"),
            Err(SnapshotError::Io(_))
        ));
    }

    #[test]
    fn resumable_check_reuses_fragments_across_attempts() {
        // Two independent clusters (concurrent, so real-time order does
        // not merge them); a tiny budget decides the first component then
        // trips. The resumed attempt must replay it and explore strictly
        // fewer states than a fresh unbudgeted run.
        let (x, y) = (ObjId::new(0), ObjId::new(1));
        let h = HistoryBuilder::new()
            .inv_write(t(1), x, Value::new(1))
            .inv_write(t(3), y, Value::new(7))
            .resp_ok(t(1))
            .resp_ok(t(3))
            .inv_try_commit(t(1))
            .inv_try_commit(t(3))
            .read(t(2), x, Value::new(1))
            .read(t(4), y, Value::new(7))
            .commit(t(2))
            .commit(t(4))
            .build();

        let cfg_unlimited = SearchConfig {
            prelint: false,
            ..SearchConfig::default()
        };
        let (fresh_verdict, fresh_stats) =
            ResumableCheck::new().check(&h, CheckableCriterion::DuOpacity, &cfg_unlimited);
        assert!(fresh_verdict.is_satisfied());

        let mut budgeted = ResumableCheck::new();
        let cfg_tiny = SearchConfig {
            max_states: Some(3),
            prelint: false,
            // Keep the ladder out so the budget trip is observable.
            ladder: false,
            ..SearchConfig::default()
        };
        let (first, _) = budgeted.check(&h, CheckableCriterion::DuOpacity, &cfg_tiny);
        assert!(
            matches!(first, Verdict::Unknown { .. }),
            "expected budget trip, got {first:?}"
        );
        let fragments = budgeted.fragments();
        assert!(
            !fragments.is_empty(),
            "at least one component should be decided before the budget"
        );

        let mut resumed = ResumableCheck::new();
        resumed.preload(fragments);
        let (second, resumed_stats) =
            resumed.check(&h, CheckableCriterion::DuOpacity, &cfg_unlimited);
        assert!(second.is_satisfied());
        assert!(
            resumed_stats.explored < fresh_stats.explored,
            "resume should skip replayed components: {} vs {}",
            resumed_stats.explored,
            fresh_stats.explored
        );
    }

    #[test]
    fn checkpoint_sink_fires_on_component_progress() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        let flushes = Arc::new(AtomicUsize::new(0));
        let seen = flushes.clone();
        let mut check = ResumableCheck::new();
        check.set_checkpoint_sink(
            1,
            Box::new(move |fragments, _explored| {
                assert!(!fragments.is_empty());
                seen.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let h = HistoryBuilder::new()
            .committed_writer(t(1), ObjId::new(0), Value::new(1))
            .committed_reader(t(2), ObjId::new(0), Value::new(1))
            .committed_writer(t(3), ObjId::new(1), Value::new(7))
            .committed_reader(t(4), ObjId::new(1), Value::new(7))
            .build();
        // Saturation off: this test exercises the planned search's sink
        // notifications, and the prefilter decides this history outright.
        let cfg = SearchConfig {
            saturate: false,
            ..SearchConfig::default()
        };
        let (verdict, _) = check.check(&h, CheckableCriterion::DuOpacity, &cfg);
        assert!(verdict.is_satisfied());
        let fired = flushes.load(Ordering::Relaxed);
        assert!(fired > 0, "sink never fired");
        // The sink belongs to its check: another check flushes nothing
        // to it.
        let (verdict, _) = ResumableCheck::new().check(&h, CheckableCriterion::DuOpacity, &cfg);
        assert!(verdict.is_satisfied());
        assert_eq!(flushes.load(Ordering::Relaxed), fired);
    }

    /// Also the TMS2 automaton's poll of the flag, in the one test that
    /// sets it.
    #[test]
    fn interrupt_flag_round_trip() {
        use crate::tms2_automaton::{
            check_tms2_automaton, check_tms2_automaton_interruptible, Tms2Verdict,
        };
        use crate::UnknownReason;
        let h = HistoryBuilder::new()
            .committed_writer(t(1), ObjId::new(0), Value::new(1))
            .committed_reader(t(2), ObjId::new(0), Value::new(1))
            .build();
        clear_interrupt();
        assert!(!interrupt_requested());
        assert!(check_tms2_automaton_interruptible(&h, None).is_accepted());
        request_interrupt();
        assert!(interrupt_requested());
        assert_eq!(
            check_tms2_automaton_interruptible(&h, None),
            Tms2Verdict::Unknown {
                explored: 1,
                reason: UnknownReason::Interrupted
            }
        );
        assert!(check_tms2_automaton(&h, None).is_accepted());
        clear_interrupt();
        assert!(!interrupt_requested());
    }
}
