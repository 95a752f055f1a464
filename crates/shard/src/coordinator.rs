//! The coordinator: plans histories into components, ships them to a
//! pool of worker processes, and merges the per-component verdicts back
//! into exactly the verdict the in-process path produces.
//!
//! # Scheduling
//!
//! Planning streams: a planner thread emits tasks as component
//! extraction produces them, so the first component is on a worker's
//! desk while later histories are still being planned. Tasks queue in a
//! largest-first priority order (by transaction count — the best
//! available proxy for search cost) and workers self-schedule: each
//! worker holds at most one outstanding task and pulls the next when it
//! answers, which is work stealing in its pull form — a fast worker
//! drains the queue while a slow one grinds on a big component. When the
//! queue runs dry and planning is done, idle workers speculatively
//! re-execute the longest-running in-flight task (capped at two copies;
//! first answer wins), so one straggler cannot serialize the tail.
//!
//! # Failure semantics
//!
//! A worker death (crash, kill, broken pipe, malformed reply) re-queues
//! the component it held and respawns a replacement. Each task carries a
//! death budget ([`ShardConfig::retry`]); when it is exhausted the
//! component is recorded as undecided and the job's merged verdict
//! degrades to [`Verdict::Unknown`] with
//! [`UnknownReason::WorkerDeath`] and a partial-progress payload — after
//! running the sound degradation ladder, which may still refute via lint.
//! The coordinator never loses decided components to a crash.

use crate::protocol::{
    decode_hello, decode_verdict_msg, encode_hello, encode_task, write_frame, FrameReader, TaskMsg,
    VerdictMsg, FRAME_HEARTBEAT, FRAME_HELLO, FRAME_SHUTDOWN, FRAME_TASK, FRAME_VERDICT,
};
use crate::transport::{connect_remote, net_timeout, Backoff};
use duop_core::snapshot::interrupt_requested;
use duop_core::{
    available_threads, ladder_verdict, plan_query, PartialProgress, PlanCriterion, PlanOutcome,
    PlanScratch, SearchConfig, UnknownReason, Verdict, Violation, Witness,
};
use duop_history::{binary, History, TxnId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// What a shard run checks: a component-decomposable criterion, or
/// opacity, which ships whole histories (every prefix must be
/// final-state opaque, so components are not independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardCriterion {
    /// A criterion the planner can decompose by conflict component.
    Plan(PlanCriterion),
    /// Full opacity (prefix-closed); checked whole per history.
    Opacity,
}

impl ShardCriterion {
    /// Parses a CLI token (`du`, `final-state`, `rco`, `tms2`, `strict`,
    /// `opacity`).
    pub fn parse(token: &str) -> Option<Self> {
        if token == "opacity" {
            Some(ShardCriterion::Opacity)
        } else {
            PlanCriterion::parse(token).map(ShardCriterion::Plan)
        }
    }

    /// The wire/CLI token.
    pub fn token(self) -> &'static str {
        match self {
            ShardCriterion::Plan(c) => c.token(),
            ShardCriterion::Opacity => "opacity",
        }
    }
}

/// Configuration of one sharded run.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Worker processes to keep in the pool.
    pub workers: usize,
    /// Command line to spawn a worker (`argv[0]` + args). The command
    /// must speak the shard protocol on stdin/stdout — normally the
    /// current executable with the hidden `shard-worker` argument.
    pub worker_cmd: Vec<String>,
    /// Extra environment for workers (fault-injection hooks in tests).
    pub worker_env: Vec<(String, String)>,
    /// The pipeline the run mirrors, as `duop check` runs it. With
    /// `decompose` on (the point of sharding), the coordinator runs the
    /// prefilters on each whole history, ships its components with the
    /// prefilters and ladder off, and runs the ladder on the merged
    /// verdict; with it off (`--no-decompose`), and for opacity, each
    /// job is one whole-history task that runs this pipeline as is.
    /// Budgets bind per task, not per job: each task starts its own
    /// state count and clock. `threads` and `interruptible` stay
    /// process-local and never reach a worker: workers search
    /// sequentially, and each process polls its own interrupt flag.
    pub search: SearchConfig,
    /// Worker deaths tolerated per task before it is recorded as
    /// undecided ([`UnknownReason::WorkerDeath`]).
    pub retry: u64,
    /// Minimum transactions per dispatched task: consecutive plan-order
    /// components are batched until this floor, amortizing the
    /// per-process protocol overhead over many tiny components.
    pub min_task_txns: usize,
    /// Remote worker daemons (`HOST:PORT` of `duop shard-serve`
    /// instances) to drive alongside the local pool. A remote that dies
    /// or partitions is reconnected with capped exponential backoff and
    /// its task re-queued, exactly like a local worker death.
    pub connect: Vec<String>,
    /// Shared secret for the remote authenticated hello (required when
    /// `connect` is non-empty).
    pub secret: Vec<u8>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: available_threads(),
            worker_cmd: Vec::new(),
            worker_env: Vec::new(),
            search: SearchConfig::default(),
            retry: 2,
            min_task_txns: 8,
            connect: Vec::new(),
            secret: Vec::new(),
        }
    }
}

/// One history to check under one criterion.
#[derive(Clone, Debug)]
pub struct ShardJob {
    /// The history.
    pub history: History,
    /// What to check it against.
    pub criterion: ShardCriterion,
}

/// A coordinator-level failure (worker pool unusable). Per-task worker
/// deaths are *not* errors — they degrade the affected job's verdict.
#[derive(Debug)]
pub enum ShardError {
    /// A worker process could not be spawned.
    Spawn(String),
    /// Every worker died and tasks remain; no progress is possible.
    AllWorkersDead(String),
    /// The planner thread or event channel failed.
    Internal(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Spawn(d) => write!(f, "cannot spawn shard worker: {d}"),
            ShardError::AllWorkersDead(d) => {
                write!(f, "all shard workers died with tasks outstanding: {d}")
            }
            ShardError::Internal(d) => write!(f, "shard coordinator failure: {d}"),
        }
    }
}

impl std::error::Error for ShardError {}

// ---------------------------------------------------------------------------
// Internal plumbing
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TaskSpec {
    id: u64,
    job: usize,
    /// Index of this task's first component in the job's plan order;
    /// merging sorts tasks by this key.
    plan_pos: u64,
    /// Components covered by this task (for partial-progress counts).
    components: u64,
    /// Transaction count — the largest-first scheduling weight.
    txns: usize,
    criterion: &'static str,
    /// Whole-history task: its verdict passes through unmerged.
    whole: bool,
    /// `.duob`-encoded (sub-)history.
    payload: Vec<u8>,
}

enum Event {
    /// The planner decided a job without any worker.
    Immediate { job: usize, verdict: Box<Verdict> },
    /// A unit of work, streamed as planning produces it.
    Task(Box<TaskSpec>),
    /// All tasks of `job` have been sent.
    JobPlanned {
        job: usize,
        tasks: u64,
        components_total: u64,
        /// History + criterion for the coordinator-side ladder on merged
        /// `Unknown` verdicts (absent for opacity jobs).
        ladder_ctx: Option<Box<(History, PlanCriterion)>>,
    },
    /// The planner has processed every job.
    PlanDone,
    /// A worker answered a task.
    Verdict { worker: usize, msg: VerdictMsg },
    /// A worker's stream ended or broke.
    WorkerGone { worker: usize, detail: String },
    /// A connector thread completed the authenticated handshake to a
    /// remote daemon (initial connect or reconnect).
    RemoteUp { addr: String, stream: TcpStream },
    /// A connector thread exhausted its attempts on `addr`.
    RemoteGone { addr: String, detail: String },
    /// A liveness frame (or completed hello) from a worker's stream.
    Heartbeat { worker: usize },
}

enum TaskOutcome {
    Answered {
        explored: u64,
        verdict: Verdict,
    },
    /// Undecided: its retry budget ran out (`WorkerDeath`), or the run
    /// was interrupted (`Interrupted`).
    Lost(UnknownReason),
}

struct TaskState {
    spec: TaskSpec,
    deaths: u64,
    queued: bool,
    assigned: Vec<usize>,
    last_dispatch: Instant,
    outcome: Option<TaskOutcome>,
}

#[derive(Default)]
struct JobState {
    immediate: Option<Verdict>,
    task_ids: Vec<u64>,
    expected: Option<u64>,
    components_total: u64,
    done: u64,
    ladder_ctx: Option<Box<(History, PlanCriterion)>>,
}

/// How the coordinator reaches one worker: a child process on pipes, or
/// an authenticated TCP stream to a `duop shard-serve` host.
enum WorkerLink {
    Local {
        child: Child,
        stdin: Option<ChildStdin>,
    },
    Remote {
        addr: String,
        stream: TcpStream,
    },
}

struct WorkerHandle {
    link: WorkerLink,
    task: Option<u64>,
    alive: bool,
    /// When the worker's stream last produced a frame. Remote workers
    /// heartbeat once a second, so prolonged silence means a dead host
    /// or a partition; local pipes report death via EOF instead and
    /// never time out.
    last_heard: Instant,
}

/// Consecutive connection failures tolerated per remote address before
/// the coordinator stops reconnecting to it.
const MAX_REMOTE_FAILURES: u64 = 5;
/// Reconnect backoff schedule (doubles from base to cap, jittered).
const RECONNECT_BASE_MS: u64 = 100;
const RECONNECT_CAP_MS: u64 = 2_000;
/// TCP-level attempts within one connector thread.
const CONNECT_ATTEMPTS: u32 = 3;

fn spawn_worker(
    cfg: &ShardConfig,
    index: usize,
    tx: &Sender<Event>,
) -> Result<WorkerHandle, ShardError> {
    let program = cfg
        .worker_cmd
        .first()
        .ok_or_else(|| ShardError::Spawn("empty worker command".to_owned()))?;
    let mut child = Command::new(program)
        .args(&cfg.worker_cmd[1..])
        .envs(cfg.worker_env.iter().map(|(k, v)| (k, v)))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| ShardError::Spawn(format!("{program}: {e}")))?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    write_frame(&mut stdin, FRAME_HELLO, &encode_hello())
        .and_then(|()| stdin.flush().map_err(Into::into))
        .map_err(|e| ShardError::Spawn(format!("handshake write: {e}")))?;
    let tx = tx.clone();
    std::thread::spawn(move || reader_loop(index, stdout, tx));
    Ok(WorkerHandle {
        link: WorkerLink::Local {
            child,
            stdin: Some(stdin),
        },
        task: None,
        alive: true,
        last_heard: Instant::now(),
    })
}

/// Dials `addr` (with in-thread retries and jittered backoff), completes
/// the authenticated hello plus the protocol handshake, and reports the
/// ready stream — or gives up — via the event channel.
fn spawn_connector(addr: String, secret: Vec<u8>, tx: Sender<Event>, delay_first: bool) {
    std::thread::spawn(move || {
        let mut backoff = Backoff::new(RECONNECT_BASE_MS, RECONNECT_CAP_MS);
        let mut last_err = String::new();
        for attempt in 0..CONNECT_ATTEMPTS {
            if attempt > 0 || delay_first {
                std::thread::sleep(backoff.next_delay());
            }
            let stream = match connect_remote(&addr, &secret) {
                Ok(stream) => stream,
                Err(e) => {
                    last_err = e.to_string();
                    continue;
                }
            };
            let hello = stream
                .try_clone()
                .map_err(|e| e.to_string())
                .and_then(|mut w| {
                    write_frame(&mut w, FRAME_HELLO, &encode_hello())
                        .and_then(|()| w.flush().map_err(Into::into))
                        .map_err(|e| e.to_string())
                });
            match hello {
                Ok(()) => {
                    let _ = tx.send(Event::RemoteUp { addr, stream });
                    return;
                }
                Err(e) => {
                    last_err = e;
                    continue;
                }
            }
        }
        let _ = tx.send(Event::RemoteGone {
            addr,
            detail: format!("{CONNECT_ATTEMPTS} attempts failed; last: {last_err}"),
        });
    });
}

fn reader_loop(worker: usize, input: impl Read, tx: Sender<Event>) {
    let gone = |detail: String| Event::WorkerGone { worker, detail };
    let mut reader = FrameReader::new(input);
    // Hello phase. On the TCP transport the daemon's heartbeat thread
    // races the worker loop's hello, so heartbeats are legal here too.
    loop {
        match reader.read_frame() {
            Ok(Some((FRAME_HEARTBEAT, _))) => {
                let _ = tx.send(Event::Heartbeat { worker });
            }
            Ok(Some((FRAME_HELLO, payload))) => {
                if let Err(e) = decode_hello(payload) {
                    let _ = tx.send(gone(e.to_string()));
                    return;
                }
                break;
            }
            Ok(Some((ty, _))) => {
                let _ = tx.send(gone(format!("expected hello, got frame type {ty:#04x}")));
                return;
            }
            Ok(None) => {
                let _ = tx.send(gone("exited before handshake".to_owned()));
                return;
            }
            Err(e) => {
                let _ = tx.send(gone(e.to_string()));
                return;
            }
        }
    }
    // A completed handshake doubles as the first liveness proof (and
    // resets the remote's consecutive-failure counter).
    let _ = tx.send(Event::Heartbeat { worker });
    loop {
        match reader.read_frame() {
            Ok(Some((FRAME_VERDICT, payload))) => match decode_verdict_msg(payload) {
                Ok(msg) => {
                    if tx.send(Event::Verdict { worker, msg }).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(gone(e.to_string()));
                    return;
                }
            },
            Ok(Some((FRAME_HEARTBEAT, _))) => {
                if tx.send(Event::Heartbeat { worker }).is_err() {
                    return;
                }
            }
            Ok(Some((ty, _))) => {
                let _ = tx.send(gone(format!("unexpected frame type {ty:#04x}")));
                return;
            }
            Ok(None) => {
                let _ = tx.send(gone("stream ended".to_owned()));
                return;
            }
            Err(e) => {
                let _ = tx.send(gone(e.to_string()));
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

fn plan_jobs(
    jobs: Vec<ShardJob>,
    pipeline: &SearchConfig,
    min_task_txns: usize,
    tx: &Sender<Event>,
) {
    let mut scratch = PlanScratch::new();
    let mut next_task = 0u64;
    for (job_index, job) in jobs.into_iter().enumerate() {
        plan_one(
            job_index,
            job,
            pipeline,
            min_task_txns,
            tx,
            &mut scratch,
            &mut next_task,
        );
    }
    let _ = tx.send(Event::PlanDone);
}

fn plan_one(
    job_index: usize,
    job: ShardJob,
    pipeline: &SearchConfig,
    min_task_txns: usize,
    tx: &Sender<Event>,
    scratch: &mut PlanScratch,
    next_task: &mut u64,
) {
    let immediate = |verdict: Verdict| Event::Immediate {
        job: job_index,
        verdict: Box::new(verdict),
    };
    let mut task_id = || {
        let id = *next_task;
        *next_task += 1;
        id
    };

    let plan_criterion = match job.criterion {
        ShardCriterion::Plan(c) if pipeline.decompose => c,
        _ => {
            // Whole-history task: opacity, or decomposition ablated. The
            // worker is the in-process path end to end (prelint, ladder,
            // planner per config), so its verdict passes through.
            let spec = TaskSpec {
                id: task_id(),
                job: job_index,
                plan_pos: 0,
                components: 0,
                txns: job.history.txn_count(),
                criterion: job.criterion.token(),
                whole: true,
                payload: binary::encode(&job.history),
            };
            let _ = tx.send(Event::Task(Box::new(spec)));
            let ladder_ctx = match job.criterion {
                ShardCriterion::Plan(c) => Some(Box::new((job.history, c))),
                ShardCriterion::Opacity => None,
            };
            let _ = tx.send(Event::JobPlanned {
                job: job_index,
                tasks: 1,
                components_total: 0,
                ladder_ctx,
            });
            return;
        }
    };

    let prepared = plan_criterion.prepare(&job.history);
    let checked: &History = prepared.as_ref().unwrap_or(&job.history);
    // Mirror the in-process pipeline: lint and saturation run on the
    // whole prepared history before planning, so a refutation's
    // certificate (or a fully-determined witness) is identical to the
    // local run's — component tasks then skip both entirely.
    let components = match plan_query(checked, plan_criterion, pipeline, scratch) {
        PlanOutcome::Decided(verdict) => {
            let _ = tx.send(immediate(verdict));
            return;
        }
        PlanOutcome::Components(components) => components,
    };
    if components.is_empty() {
        let _ = tx.send(immediate(Verdict::Satisfied(Witness::new(
            Vec::new(),
            BTreeMap::new(),
        ))));
        return;
    }
    let components_total = components.len() as u64;

    // Batch consecutive plan-order components into chunks of at least
    // `min_task_txns` transactions. Consecutiveness keeps the merge a
    // plain plan-order concatenation.
    let mut chunks: Vec<(u64, u64, Vec<TxnId>)> = Vec::new();
    let mut first = 0u64;
    let mut count = 0u64;
    let mut members: Vec<TxnId> = Vec::new();
    for (i, component) in components.into_iter().enumerate() {
        if count == 0 {
            first = i as u64;
        }
        count += 1;
        members.extend(component);
        if members.len() >= min_task_txns {
            chunks.push((first, count, std::mem::take(&mut members)));
            count = 0;
        }
    }
    if count > 0 {
        chunks.push((first, count, members));
    }

    let single = chunks.len() == 1;
    let tasks = chunks.len() as u64;
    for (plan_pos, chunk_components, chunk_members) in chunks {
        let payload = if single {
            // One chunk covers everything: skip the identity projection.
            binary::encode(checked)
        } else {
            let keep: HashSet<TxnId> = chunk_members.iter().copied().collect();
            binary::encode(&checked.filter_txns(|t| keep.contains(&t)))
        };
        let spec = TaskSpec {
            id: task_id(),
            job: job_index,
            plan_pos,
            components: chunk_components,
            txns: chunk_members.len(),
            criterion: plan_criterion.token(),
            whole: false,
            payload,
        };
        let _ = tx.send(Event::Task(Box::new(spec)));
    }
    let _ = tx.send(Event::JobPlanned {
        job: job_index,
        tasks,
        components_total,
        ladder_ctx: Some(Box::new((job.history, plan_criterion))),
    });
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

fn finish_unknown(
    explored: u64,
    reason: UnknownReason,
    partial: Option<PartialProgress>,
    job: &JobState,
    pipeline: &SearchConfig,
) -> Verdict {
    if pipeline.ladder {
        if let Some(ctx) = &job.ladder_ctx {
            let (history, criterion) = ctx.as_ref();
            return ladder_verdict(history, *criterion, pipeline, explored, reason, partial);
        }
    }
    Verdict::Unknown {
        explored,
        reason,
        partial,
    }
}

/// Recombines a job's per-task outcomes into the verdict the in-process
/// checker produces: plan-order witness concatenation when everything is
/// satisfied, the earliest plan-order failure otherwise, with cumulative
/// explored-state counts.
fn merge_job(job: &JobState, tasks: &HashMap<u64, TaskState>, pipeline: &SearchConfig) -> Verdict {
    if let Some(v) = &job.immediate {
        return v.clone();
    }
    let mut parts: Vec<&TaskState> = job.task_ids.iter().map(|id| &tasks[id]).collect();
    parts.sort_by_key(|t| t.spec.plan_pos);

    if parts.len() == 1 && parts[0].spec.whole {
        return match parts[0].outcome.as_ref().expect("job is complete") {
            TaskOutcome::Answered { verdict, .. } => verdict.clone(),
            TaskOutcome::Lost(reason) => finish_unknown(0, *reason, None, job, pipeline),
        };
    }

    let mut order: Vec<TxnId> = Vec::new();
    let mut choices: BTreeMap<TxnId, bool> = BTreeMap::new();
    let mut explored_before = 0u64;
    let mut decided_before = 0u64;
    for task in parts {
        match task.outcome.as_ref().expect("job is complete") {
            TaskOutcome::Answered { explored, verdict } => match verdict {
                Verdict::Satisfied(w) => {
                    order.extend(w.order().iter().copied());
                    choices.extend(w.commit_choices().iter().map(|(t, c)| (*t, *c)));
                    explored_before += explored;
                    decided_before += task.spec.components;
                }
                Verdict::Violated(violation) => {
                    let merged = match violation.clone() {
                        Violation::NoSerialization {
                            criterion,
                            explored,
                        } => Violation::NoSerialization {
                            criterion,
                            explored: explored_before + explored,
                        },
                        other => other,
                    };
                    return Verdict::Violated(merged);
                }
                Verdict::Unknown {
                    explored,
                    reason,
                    partial,
                } => {
                    let decided =
                        decided_before + partial.as_ref().map_or(0, |p| p.components_decided);
                    return finish_unknown(
                        explored_before + explored,
                        *reason,
                        Some(PartialProgress::components(decided, job.components_total)),
                        job,
                        pipeline,
                    );
                }
            },
            TaskOutcome::Lost(reason) => {
                return finish_unknown(
                    explored_before,
                    *reason,
                    Some(PartialProgress::components(
                        decided_before,
                        job.components_total,
                    )),
                    job,
                    pipeline,
                );
            }
        }
    }
    Verdict::Satisfied(Witness::new(order, choices))
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

struct Coordinator<'a> {
    cfg: &'a ShardConfig,
    tx: Sender<Event>,
    workers: Vec<WorkerHandle>,
    idle: Vec<usize>,
    tasks: HashMap<u64, TaskState>,
    /// Max-heap of `(txns, Reverse(task id))`: biggest component chunk
    /// first, ties broken oldest-first.
    pending: BinaryHeap<(usize, Reverse<u64>)>,
    jobs: Vec<JobState>,
    results: Vec<Option<Verdict>>,
    completed: usize,
    plan_done: bool,
    /// Connector threads currently trying to (re)establish a remote.
    /// While positive, an empty pool is "waiting", not "dead".
    reconnecting: usize,
    /// Consecutive handshake-or-stream failures per remote address;
    /// reset by the first frame of a successful handshake.
    remote_failures: HashMap<String, u64>,
    /// Silence budget before a remote worker is declared dead.
    net_timeout: Duration,
    /// Last heartbeat broadcast to remote workers.
    last_ping: Instant,
}

impl Coordinator<'_> {
    fn alive_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Detects a wedged run: jobs outstanding, yet nothing left that can
    /// produce another event. Progress needs either the planner (more
    /// tasks coming) or an in-flight task on a live worker (a verdict
    /// coming); anything else is a lost-event stall this converts into a
    /// [`ShardError`] instead of blocking on the event channel forever.
    fn stall_detail(&self, planner_finished: bool) -> Option<String> {
        if !self.plan_done {
            return planner_finished
                .then(|| "planner thread ended before completing the plan".to_owned());
        }
        if self.reconnecting > 0 {
            // A connector thread will deliver RemoteUp or RemoteGone.
            return None;
        }
        let in_flight = self
            .tasks
            .values()
            .any(|t| t.outcome.is_none() && t.assigned.iter().any(|&w| self.workers[w].alive));
        if in_flight {
            return None;
        }
        let queued = self
            .tasks
            .values()
            .filter(|t| t.outcome.is_none() && t.queued)
            .count();
        Some(format!(
            "stalled with jobs outstanding: {queued} queued task(s), none in flight, {} live worker(s)",
            self.alive_count()
        ))
    }

    fn record_job_if_complete(&mut self, job_index: usize) {
        let job = &self.jobs[job_index];
        if self.results[job_index].is_some() {
            return;
        }
        let complete = match (&job.immediate, job.expected) {
            (Some(_), _) => true,
            (None, Some(expected)) => job.done == expected,
            (None, None) => false,
        };
        if complete {
            let verdict = merge_job(job, &self.tasks, &self.cfg.search);
            self.results[job_index] = Some(verdict);
            self.completed += 1;
        }
    }

    fn finish_task(&mut self, task_id: u64, outcome: TaskOutcome) {
        let task = self.tasks.get_mut(&task_id).expect("known task");
        debug_assert!(task.outcome.is_none());
        task.outcome = Some(outcome);
        task.queued = false;
        let job_index = task.spec.job;
        self.jobs[job_index].done += 1;
        self.record_job_if_complete(job_index);
    }

    /// Asks a connector thread to re-establish `addr`, unless the
    /// address has burned through its consecutive-failure budget.
    fn schedule_reconnect(&mut self, addr: String, why: &str) {
        let failures = self.remote_failures.entry(addr.clone()).or_insert(0);
        *failures += 1;
        if *failures > MAX_REMOTE_FAILURES {
            log_line(&format!(
                "giving up on remote {addr} after {failures} consecutive failures ({why})"
            ));
            return;
        }
        log_line(&format!(
            "remote {addr} lost ({why}); reconnecting with backoff (failure {failures})"
        ));
        self.reconnecting += 1;
        spawn_connector(addr, self.cfg.secret.clone(), self.tx.clone(), true);
    }

    fn handle_worker_gone(&mut self, worker: usize, detail: &str) {
        if !self.workers[worker].alive {
            return;
        }
        self.workers[worker].alive = false;
        self.idle.retain(|&w| w != worker);
        // A remote's stream is force-closed so its reader thread (and the
        // daemon's connection thread) unblock promptly; the address then
        // goes back through the backoff reconnect path — whether or not a
        // task was lost, since an idle connection is worth re-having.
        let remote_addr = match &self.workers[worker].link {
            WorkerLink::Remote { addr, stream } => {
                let _ = stream.shutdown(Shutdown::Both);
                Some(addr.clone())
            }
            WorkerLink::Local { .. } => None,
        };
        let lost_task = self.workers[worker].task.take();
        if let Some(addr) = remote_addr.clone() {
            self.schedule_reconnect(addr, detail);
        }
        let Some(task_id) = lost_task else {
            return;
        };
        let task = self.tasks.get_mut(&task_id).expect("known task");
        task.assigned.retain(|&w| w != worker);
        if task.outcome.is_some() || task.queued || !task.assigned.is_empty() {
            return;
        }
        task.deaths += 1;
        if task.deaths > self.cfg.retry {
            log_line(&format!(
                "task {task_id} lost to its {}th worker death ({detail}); retry budget exhausted",
                task.deaths
            ));
            self.finish_task(task_id, TaskOutcome::Lost(UnknownReason::WorkerDeath));
            return;
        }
        log_line(&format!(
            "worker {worker} died holding task {task_id} ({detail}); re-queueing (attempt {})",
            task.deaths
        ));
        task.queued = true;
        self.pending.push((task.spec.txns, Reverse(task_id)));
        if remote_addr.is_some() {
            // The reconnect above is the remote's replacement.
            return;
        }
        // Keep the local pool at strength for the retry.
        match spawn_worker(self.cfg, self.workers.len(), &self.tx) {
            Ok(handle) => {
                self.idle.push(self.workers.len());
                self.workers.push(handle);
            }
            Err(e) => log_line(&format!("respawn failed: {e}")),
        }
    }

    fn dispatch_to(&mut self, worker: usize, task_id: u64) -> Result<(), String> {
        let task = self.tasks.get_mut(&task_id).expect("known task");
        let run = &self.cfg.search;
        // A whole-history task runs the run's pipeline in the worker. For
        // a component task the coordinator already linted and saturated
        // the whole history and owns the ladder for the merged verdict.
        let search = if task.spec.whole {
            run.clone()
        } else {
            SearchConfig {
                decompose: true,
                prelint: false,
                saturate: false,
                ladder: false,
                ..run.clone()
            }
        };
        let msg = TaskMsg {
            task_id,
            attempt: task.deaths,
            criterion: task.spec.criterion.to_owned(),
            search,
            history: task.spec.payload.clone(),
        };
        // Register the assignment before touching the pipe: a failed
        // write then flows through `handle_worker_gone` like any other
        // worker death — the task is re-queued (or retired against its
        // retry budget) and a replacement worker is spawned, instead of
        // being silently lost off the queue.
        task.assigned.push(worker);
        task.queued = false;
        task.last_dispatch = Instant::now();
        let handle = &mut self.workers[worker];
        handle.task = Some(task_id);
        let encoded = encode_task(&msg);
        match &mut handle.link {
            WorkerLink::Local { stdin, .. } => {
                let stdin = stdin.as_mut().expect("live worker has stdin");
                write_frame(stdin, FRAME_TASK, &encoded)
                    .and_then(|()| stdin.flush().map_err(Into::into))
            }
            WorkerLink::Remote { stream, .. } => write_frame(stream, FRAME_TASK, &encoded)
                .and_then(|()| stream.flush().map_err(Into::into)),
        }
        .map_err(|e| e.to_string())
    }

    /// The task `worker` should duplicate when the queue is dry: the
    /// longest-running in-flight task not already duplicated and not
    /// already on this worker's desk.
    fn steal_candidate(&self, worker: usize) -> Option<u64> {
        self.tasks
            .values()
            .filter(|t| {
                t.outcome.is_none()
                    && !t.queued
                    && !t.assigned.is_empty()
                    && t.assigned.len() < 2
                    && !t.assigned.contains(&worker)
            })
            .min_by_key(|t| t.last_dispatch)
            .map(|t| t.spec.id)
    }

    fn dispatch(&mut self) -> Result<(), ShardError> {
        if interrupt_requested() {
            // An interrupted run hands out no more work.
            return Ok(());
        }
        loop {
            // Drop queue entries whose task got answered speculatively or
            // re-queued under a newer entry.
            let next = loop {
                match self.pending.peek() {
                    None => break None,
                    Some(&(_, Reverse(id))) => {
                        let task = &self.tasks[&id];
                        if task.outcome.is_some() || !task.queued {
                            self.pending.pop();
                            continue;
                        }
                        break Some(id);
                    }
                }
            };
            let Some(task_id) = next else {
                // Queue dry: speculate on stragglers once planning is done.
                if !self.plan_done {
                    return Ok(());
                }
                // Pair any idle worker with a candidate it is not
                // already running; one collision must not strand the
                // rest of the idle pool until the next event.
                let pair = self
                    .idle
                    .iter()
                    .enumerate()
                    .rev()
                    .find_map(|(pos, &worker)| self.steal_candidate(worker).map(|c| (pos, c)));
                let Some((pos, candidate)) = pair else {
                    return Ok(());
                };
                let worker = self.idle.remove(pos);
                if let Err(detail) = self.dispatch_to(worker, candidate) {
                    self.handle_worker_gone(worker, &detail);
                }
                continue;
            };
            let Some(worker) = self.idle.pop() else {
                if self.alive_count() == 0 {
                    if self.reconnecting > 0 {
                        // Capacity is on its way back; hold the queue.
                        return Ok(());
                    }
                    if !self.cfg.connect.is_empty() {
                        // Every host is gone past its reconnect budget.
                        // Soundness over availability: undecided tasks
                        // degrade to WorkerDeath so each job still merges
                        // to a sound `Unknown{partial}` — never a wrong
                        // Satisfied/Violation, and never a hang.
                        self.degrade_undecided_tasks(
                            "no live or recoverable workers",
                            UnknownReason::WorkerDeath,
                        );
                        continue;
                    }
                    return Err(ShardError::AllWorkersDead(format!(
                        "task {task_id} is queued with no live worker"
                    )));
                }
                return Ok(());
            };
            self.pending.pop();
            if let Err(detail) = self.dispatch_to(worker, task_id) {
                self.handle_worker_gone(worker, &detail);
            }
        }
    }

    /// Finishes every undecided task as lost for `reason`: the terminal
    /// degradation when the whole (remote-inclusive) pool is
    /// unrecoverable (`WorkerDeath`) or the run is interrupted
    /// (`Interrupted`).
    fn degrade_undecided_tasks(&mut self, why: &str, reason: UnknownReason) {
        let undecided: Vec<u64> = self
            .tasks
            .values()
            .filter(|t| t.outcome.is_none())
            .map(|t| t.spec.id)
            .collect();
        if undecided.is_empty() {
            return;
        }
        log_line(&format!(
            "{why}; degrading {} undecided task(s) to {reason:?}",
            undecided.len()
        ));
        for task_id in undecided {
            self.finish_task(task_id, TaskOutcome::Lost(reason));
        }
    }

    /// Broadcasts a heartbeat to live remote workers (at most once a
    /// second); a failed write is a death like any other.
    fn ping_remotes(&mut self) {
        if self.last_ping.elapsed() < Duration::from_secs(1) {
            return;
        }
        self.last_ping = Instant::now();
        let mut lost = Vec::new();
        for (index, handle) in self.workers.iter_mut().enumerate() {
            if !handle.alive {
                continue;
            }
            if let WorkerLink::Remote { stream, .. } = &mut handle.link {
                let sent = write_frame(stream, FRAME_HEARTBEAT, &[])
                    .and_then(|()| stream.flush().map_err(Into::into));
                if sent.is_err() {
                    lost.push(index);
                }
            }
        }
        for worker in lost {
            self.handle_worker_gone(worker, "heartbeat write failed");
        }
    }

    /// Declares remotes silent past the net timeout dead. The daemon
    /// heartbeats independently of task computation, so a grinding
    /// worker stays loud while a partitioned one goes quiet.
    fn check_remote_liveness(&mut self) {
        let stale: Vec<(usize, u128)> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, h)| {
                h.alive
                    && matches!(h.link, WorkerLink::Remote { .. })
                    && h.last_heard.elapsed() > self.net_timeout
            })
            .map(|(i, h)| (i, h.last_heard.elapsed().as_millis()))
            .collect();
        for (worker, silent_ms) in stale {
            self.handle_worker_gone(worker, &format!("silent for {silent_ms}ms (net timeout)"));
        }
    }

    fn handle_event(&mut self, event: Event) {
        match event {
            Event::Immediate { job, verdict } => {
                self.jobs[job].immediate = Some(*verdict);
                self.record_job_if_complete(job);
            }
            Event::Task(spec) => {
                let id = spec.id;
                self.jobs[spec.job].task_ids.push(id);
                self.pending.push((spec.txns, Reverse(id)));
                self.tasks.insert(
                    id,
                    TaskState {
                        spec: *spec,
                        deaths: 0,
                        queued: true,
                        assigned: Vec::new(),
                        last_dispatch: Instant::now(),
                        outcome: None,
                    },
                );
            }
            Event::JobPlanned {
                job,
                tasks,
                components_total,
                ladder_ctx,
            } => {
                let state = &mut self.jobs[job];
                state.expected = Some(tasks);
                state.components_total = components_total;
                state.ladder_ctx = ladder_ctx;
                self.record_job_if_complete(job);
            }
            Event::PlanDone => self.plan_done = true,
            Event::RemoteUp { addr, stream } => {
                self.reconnecting -= 1;
                let read_half = match stream.try_clone() {
                    Ok(half) => half,
                    Err(e) => {
                        // The freshly-made stream is already unusable:
                        // back through the reconnect path.
                        self.schedule_reconnect(addr, &format!("stream clone: {e}"));
                        return;
                    }
                };
                let index = self.workers.len();
                log_line(&format!("remote worker {index} up ({addr})"));
                self.workers.push(WorkerHandle {
                    link: WorkerLink::Remote { addr, stream },
                    task: None,
                    alive: true,
                    last_heard: Instant::now(),
                });
                self.idle.push(index);
                let tx = self.tx.clone();
                std::thread::spawn(move || reader_loop(index, read_half, tx));
            }
            Event::RemoteGone { addr, detail } => {
                self.reconnecting -= 1;
                // Count the whole connector run as one failure and decide
                // whether another round of backoff is worth it.
                self.schedule_reconnect(addr, &detail);
            }
            Event::Heartbeat { worker } => {
                if let Some(handle) = self.workers.get_mut(worker) {
                    handle.last_heard = Instant::now();
                    if let WorkerLink::Remote { addr, .. } = &handle.link {
                        // A talking connection clears the address's
                        // consecutive-failure budget.
                        let addr = addr.clone();
                        self.remote_failures.insert(addr, 0);
                    }
                }
            }
            Event::Verdict { worker, msg } => {
                self.workers[worker].last_heard = Instant::now();
                if self.workers[worker].alive {
                    self.workers[worker].task = None;
                    self.idle.push(worker);
                }
                match self.tasks.get_mut(&msg.task_id) {
                    Some(task) => {
                        task.assigned.retain(|&w| w != worker);
                        if task.outcome.is_none() {
                            self.finish_task(
                                msg.task_id,
                                TaskOutcome::Answered {
                                    explored: msg.explored,
                                    verdict: msg.verdict,
                                },
                            );
                        }
                    }
                    None => {
                        // A verdict for a task that was never dispatched:
                        // the worker is off-protocol.
                        self.handle_worker_gone(worker, "verdict for unknown task");
                    }
                }
            }
            Event::WorkerGone { worker, detail } => self.handle_worker_gone(worker, &detail),
        }
    }

    fn shutdown(mut self) {
        for handle in &mut self.workers {
            let orderly = handle.alive && handle.task.is_none();
            let alive = handle.alive;
            match &mut handle.link {
                WorkerLink::Local { child, stdin } => {
                    if orderly {
                        if let Some(stdin) = stdin.as_mut() {
                            let _ = write_frame(stdin, FRAME_SHUTDOWN, &[]);
                            let _ = stdin.flush();
                        }
                    } else if alive {
                        // Still grinding on a speculatively-duplicated
                        // task whose twin already answered: no reason to
                        // wait it out.
                        let _ = child.kill();
                    }
                    *stdin = None;
                    let _ = child.wait();
                }
                WorkerLink::Remote { stream, .. } => {
                    if orderly {
                        // The daemon outlives this run; the shutdown
                        // frame just ends our connection's worker loop.
                        let _ = write_frame(stream, FRAME_SHUTDOWN, &[]);
                        let _ = stream.flush();
                    }
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

fn log_line(message: &str) {
    eprintln!("duop shard: {message}");
}

/// Checks `jobs` across a pool of worker processes and returns one
/// verdict per job, in job order — each identical to what the
/// in-process checker produces for that history and criterion (modulo
/// the documented per-task deadline semantics and the
/// [`UnknownReason::WorkerDeath`] degradation, which has no in-process
/// analog).
pub fn run_sharded(jobs: Vec<ShardJob>, cfg: &ShardConfig) -> Result<Vec<Verdict>, ShardError> {
    let total = jobs.len();
    let (tx, rx) = channel::<Event>();

    let mut coordinator = Coordinator {
        cfg,
        tx: tx.clone(),
        workers: Vec::new(),
        idle: Vec::new(),
        tasks: HashMap::new(),
        pending: BinaryHeap::new(),
        jobs: Vec::new(),
        results: Vec::new(),
        completed: 0,
        plan_done: false,
        reconnecting: 0,
        remote_failures: HashMap::new(),
        net_timeout: net_timeout(),
        last_ping: Instant::now(),
    };
    coordinator.jobs.resize_with(total, JobState::default);
    coordinator.results.resize_with(total, || None);

    // With remote daemons configured, zero local workers is a valid pool;
    // purely local runs keep the at-least-one floor.
    let pool = if cfg.connect.is_empty() {
        cfg.workers.max(1)
    } else {
        cfg.workers
    };
    for i in 0..pool {
        let handle = spawn_worker(cfg, i, &tx)?;
        coordinator.idle.push(i);
        coordinator.workers.push(handle);
    }
    for addr in &cfg.connect {
        coordinator.reconnecting += 1;
        spawn_connector(addr.clone(), cfg.secret.clone(), tx.clone(), false);
    }

    let (pipeline, min_task_txns) = (cfg.search.clone(), cfg.min_task_txns);
    let planner_tx = tx.clone();
    let planner =
        std::thread::spawn(move || plan_jobs(jobs, &pipeline, min_task_txns, &planner_tx));
    drop(tx);

    // How long the event channel may sit silent between liveness checks.
    // Generous against real work (an in-flight task suppresses the stall
    // verdict no matter how long it grinds) and cheap to poll.
    const LIVENESS_INTERVAL: Duration = Duration::from_millis(200);

    let result = loop {
        if coordinator.completed == total {
            break Ok(());
        }
        // On SIGINT/SIGTERM, once the planner has handed over every job
        // (lint and saturation may have decided some), each undecided job
        // finishes as interrupted through the ladder, as `duop check`'s
        // do; `shutdown` then kills the workers still searching.
        if interrupt_requested() && coordinator.plan_done {
            coordinator.degrade_undecided_tasks("interrupted", UnknownReason::Interrupted);
            if coordinator.completed < total {
                break Err(ShardError::Internal(
                    "interrupted with jobs outstanding".to_owned(),
                ));
            }
            continue;
        }
        let event = match rx.recv_timeout(LIVENESS_INTERVAL) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => {
                coordinator.ping_remotes();
                coordinator.check_remote_liveness();
                // Liveness may have re-queued (or terminally degraded)
                // tasks; give the queue a turn before the stall verdict.
                if let Err(e) = coordinator.dispatch() {
                    break Err(e);
                }
                if let Some(detail) = coordinator.stall_detail(planner.is_finished()) {
                    break Err(ShardError::Internal(detail));
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => {
                break Err(ShardError::Internal(
                    "event channel closed with jobs outstanding".to_owned(),
                ))
            }
        };
        coordinator.handle_event(event);
        if let Err(e) = coordinator.dispatch() {
            break Err(e);
        }
    };

    let results = std::mem::take(&mut coordinator.results);
    coordinator.shutdown();
    let _ = planner.join();
    result?;
    Ok(results
        .into_iter()
        .map(|v| v.expect("all jobs completed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_criterion_parses_all_tokens() {
        for token in ["du", "final-state", "rco", "tms2", "strict", "opacity"] {
            let c = ShardCriterion::parse(token).expect(token);
            assert_eq!(c.token(), token);
        }
        assert!(ShardCriterion::parse("bogus").is_none());
    }

    #[test]
    fn empty_worker_command_is_a_spawn_error() {
        let cfg = ShardConfig {
            workers: 1,
            ..ShardConfig::default()
        };
        let err = run_sharded(Vec::new(), &cfg).unwrap_err();
        assert!(matches!(err, ShardError::Spawn(_)), "{err}");
    }

    /// A task whose dispatch write fails (worker already dead, so the
    /// task-frame write gets a broken pipe) must never be stranded:
    /// after `dispatch` returns, it is either decided, assigned to a
    /// replacement, or back on the queue with a death charged — never
    /// the pre-fix state {queued flag set, off the heap, unassigned,
    /// undecided}, which no later event could ever resurrect.
    #[test]
    fn failed_dispatch_write_keeps_the_task() {
        let cfg = ShardConfig {
            workers: 1,
            worker_cmd: vec!["true".to_owned()],
            ..ShardConfig::default()
        };
        let (tx, _rx) = channel::<Event>();
        // A worker whose process has already exited: the write end of
        // its stdin is still open, but the read end is closed, so the
        // task-frame write deterministically fails with EPIPE.
        let mut child = Command::new("true")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn `true`");
        let stdin = child.stdin.take().expect("stdin was piped");
        child.wait().expect("`true` exits");

        let mut coordinator = Coordinator {
            cfg: &cfg,
            tx,
            workers: vec![WorkerHandle {
                link: WorkerLink::Local {
                    child,
                    stdin: Some(stdin),
                },
                task: None,
                alive: true,
                last_heard: Instant::now(),
            }],
            idle: vec![0],
            tasks: HashMap::new(),
            pending: BinaryHeap::new(),
            jobs: vec![JobState::default()],
            results: vec![None],
            completed: 0,
            plan_done: true,
            reconnecting: 0,
            remote_failures: HashMap::new(),
            net_timeout: Duration::from_secs(10),
            last_ping: Instant::now(),
        };
        coordinator.jobs[0].task_ids.push(0);
        coordinator.jobs[0].expected = Some(1);
        coordinator.tasks.insert(
            0,
            TaskState {
                spec: TaskSpec {
                    id: 0,
                    job: 0,
                    plan_pos: 0,
                    components: 1,
                    txns: 4,
                    criterion: "du",
                    whole: false,
                    payload: vec![0u8; 8],
                },
                deaths: 0,
                queued: true,
                assigned: Vec::new(),
                last_dispatch: Instant::now(),
                outcome: None,
            },
        );
        coordinator.pending.push((4, Reverse(0)));

        // Both outcomes are legal — Ok (the task went to a respawned
        // worker or re-queued) or AllWorkersDead (the respawn lost its
        // own race against `true` exiting) — but the task must survive.
        let _ = coordinator.dispatch();
        let task = &coordinator.tasks[&0];
        assert!(task.deaths >= 1, "the failed write must count as a death");
        let in_heap = coordinator.pending.iter().any(|&(_, Reverse(id))| id == 0);
        assert!(
            task.outcome.is_some() || !task.assigned.is_empty() || (task.queued && in_heap),
            "task stranded: queued={} assigned={:?} decided={} in_heap={in_heap}",
            task.queued,
            task.assigned,
            task.outcome.is_some(),
        );
    }

    #[test]
    fn nonexistent_worker_command_is_a_spawn_error() {
        let cfg = ShardConfig {
            workers: 1,
            worker_cmd: vec!["/nonexistent/duop-worker-binary".to_owned()],
            ..ShardConfig::default()
        };
        let err = run_sharded(Vec::new(), &cfg).unwrap_err();
        assert!(matches!(err, ShardError::Spawn(_)), "{err}");
    }
}
