//! The daemon: a thread-per-connection HTTP/1.1 accept loop multiplexing
//! checking sessions, with idle reaping, global load shedding, periodic
//! per-session checkpointing, eager `--state-dir` recovery, graceful
//! drain on SIGINT/SIGTERM, a Prometheus-style `/metrics` endpoint, and
//! the `DUOP_SERVE_KILL_*` deterministic fault hooks.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use duop_core::snapshot::{self, Snapshot};
use duop_core::Verdict;
use duop_history::reader::TraceReader;
use duop_history::Event;

use crate::http::{self, HttpError, Request, Response};
use crate::listener::{self, Accepted, ShutdownHandle};
use crate::session::{verdict_line, Session};

/// Exit code of a fault-hook-induced death (same value as the shard
/// protocol's kill hooks, so test harnesses can share the constant).
pub const KILL_EXIT_CODE: i32 = 83;

/// `DUOP_SERVE_KILL_INGEST=N`: die (exit [`KILL_EXIT_CODE`]) once N
/// total events have been ingested — *before* the batch's checkpoint and
/// acknowledgement, so everything past the last flush is lost.
pub const KILL_INGEST_ENV: &str = "DUOP_SERVE_KILL_INGEST";
/// `DUOP_SERVE_KILL_CHECKPOINT=N`: die immediately before the Nth
/// checkpoint write, once the N−1 earlier writes have finished
/// (mid-checkpoint crash; the atomic temp-file+rename save means the
/// previous checkpoint must survive intact).
pub const KILL_CHECKPOINT_ENV: &str = "DUOP_SERVE_KILL_CHECKPOINT";
/// `DUOP_SERVE_DROP_CONN=N`: drop the Nth accepted connection on the
/// floor without reading or answering it.
pub const DROP_CONN_ENV: &str = "DUOP_SERVE_DROP_CONN";

/// Daemon configuration (the `duop serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (printed on startup).
    pub addr: String,
    /// Checkpoint directory. `None` disables crash safety.
    pub state_dir: Option<String>,
    /// Maximum live sessions; creation beyond it is shed with 429.
    pub session_cap: usize,
    /// Reap sessions idle for longer than this (flushed to the state
    /// dir first, and transparently recovered on next access).
    pub idle_timeout: Duration,
    /// Global ceiling on retained events across all sessions; ingest
    /// beyond it is shed with `429 Retry-After` until compaction or
    /// reaping brings the total back down.
    pub max_retained: Option<u64>,
    /// Default per-session retained-event budget (overridable per
    /// session with `POST /v1/session?budget=N`).
    pub session_budget: Option<usize>,
    /// Flush a session's checkpoint every N ingest requests.
    pub checkpoint_every: u64,
    /// Per-client (peer-address) ceiling on session-route requests per
    /// second; `0` disables it. One hot client is throttled with
    /// `429 Retry-After` before it can crowd out the global ceiling
    /// every other client shares.
    pub peer_rps: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: None,
            session_cap: 256,
            idle_timeout: Duration::from_secs(300),
            max_retained: None,
            session_budget: None,
            checkpoint_every: 1,
            peer_rps: 0,
        }
    }
}

/// Why the daemon could not start or crashed out of its accept loop.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Monotonic counters and gauges behind `/metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    sessions_created: AtomicU64,
    sessions_reaped: AtomicU64,
    sessions_recovered: AtomicU64,
    events_ingested: AtomicU64,
    events_discarded: AtomicU64,
    retained_peak: AtomicU64,
    requests_total: AtomicU64,
    shed_requests: AtomicU64,
    throttled_requests: AtomicU64,
    checkpoints_written: AtomicU64,
    connections_accepted: AtomicU64,
    connections_dropped: AtomicU64,
    verdicts_satisfied: AtomicU64,
    verdicts_violated: AtomicU64,
    verdicts_unknown: AtomicU64,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// One peer's fixed-window request tally.
struct PeerWindow {
    start: Instant,
    count: u64,
}

struct State {
    cfg: ServeConfig,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    metrics: Metrics,
    /// Sum of retained events across live sessions (the shedding gauge).
    retained: AtomicU64,
    /// Per-peer request windows for `peer_rps` throttling.
    peers: Mutex<HashMap<IpAddr, PeerWindow>>,
    conns: AtomicU64,
    /// Checkpoint saves numbered so far, and those finished (written or
    /// failed); saves on different sessions run concurrently.
    checkpoints: AtomicU64,
    checkpoints_done: AtomicU64,
    kill_ingest: Option<u64>,
    kill_checkpoint: Option<u64>,
    drop_conn: Option<u64>,
}

/// The daemon. [`Server::bind`] opens the socket and recovers any
/// checkpointed sessions; [`Server::run`] blocks in the accept loop
/// until a drain is requested.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

fn session_path(dir: &str, id: u64) -> String {
    format!("{dir}/session-{id}.ck")
}

impl Server {
    /// Binds the listen socket and eagerly recovers every loadable
    /// `session-*.ck` checkpoint in the state dir. A corrupt or
    /// unreadable checkpoint is skipped (the daemon must come up), never
    /// trusted: recovery re-derives verdicts from the retained events.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket cannot be bound or the state dir
    /// cannot be created.
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = listener::bind_nonblocking(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("{}: {e}", cfg.addr)))?;
        let state = Arc::new(State {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            metrics: Metrics::default(),
            retained: AtomicU64::new(0),
            peers: Mutex::new(HashMap::new()),
            conns: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoints_done: AtomicU64::new(0),
            kill_ingest: env_u64(KILL_INGEST_ENV),
            kill_checkpoint: env_u64(KILL_CHECKPOINT_ENV),
            drop_conn: env_u64(DROP_CONN_ENV),
            cfg,
        });
        if let Some(dir) = state.cfg.state_dir.clone() {
            std::fs::create_dir_all(&dir).map_err(|e| ServeError::Io(format!("{dir}: {e}")))?;
            recover_sessions(&state, &dir);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        Ok(Server {
            listener,
            state,
            shutdown,
        })
    }

    /// The bound address (with the OS-assigned port when `addr` ended in
    /// `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket's own failure to report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))
    }

    /// Sessions recovered from the state dir at bind time.
    pub fn recovered_sessions(&self) -> u64 {
        self.state
            .metrics
            .sessions_recovered
            .load(Ordering::Relaxed)
    }

    /// A handle that triggers the same graceful drain as SIGTERM.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle::new(Arc::clone(&self.shutdown))
    }

    /// Runs the accept loop until SIGINT/SIGTERM (the process-wide
    /// interrupt flag) or the [`ShutdownHandle`] requests a drain, then
    /// drains: stops accepting, lets in-flight requests finish, flushes
    /// every session to the state dir, and returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a non-transient accept failure.
    pub fn run(self, out: &mut dyn Write) -> Result<(), ServeError> {
        let addr = self.local_addr()?;
        writeln!(out, "listening on {addr}").map_err(|e| ServeError::Io(e.to_string()))?;
        out.flush().ok();
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut last_reap = Instant::now();
        let mut idle = Duration::ZERO;
        loop {
            match listener::poll_accept(&self.listener, &self.shutdown, &mut idle) {
                Ok(Accepted::Shutdown) => break,
                Ok(Accepted::Idle) => {}
                Ok(Accepted::Conn(stream, peer)) => {
                    let n = self.state.conns.fetch_add(1, Ordering::SeqCst) + 1;
                    self.state
                        .metrics
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    if self.state.drop_conn == Some(n) {
                        // Fault hook: hang up without a byte of response.
                        self.state
                            .metrics
                            .connections_dropped
                            .fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    stream
                        .set_read_timeout(Some(Duration::from_millis(500)))
                        .ok();
                    let state = Arc::clone(&self.state);
                    let shutdown = Arc::clone(&self.shutdown);
                    workers.push(std::thread::spawn(move || {
                        handle_connection(&state, &shutdown, stream, peer.ip());
                    }));
                }
                Err(e) => return Err(ServeError::Io(format!("accept: {e}"))),
            }
            workers.retain(|w| !w.is_finished());
            if last_reap.elapsed() >= Duration::from_secs(1) {
                reap_idle(&self.state);
                last_reap = Instant::now();
            }
        }
        // Drain: in-flight requests finish (each worker notices the
        // shutdown flag within one read timeout), then every session is
        // flushed so a restart resumes exactly here.
        self.shutdown.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().ok();
        }
        let flushed = flush_all(&self.state);
        writeln!(out, "drained ({flushed} sessions flushed)")
            .map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(())
    }
}

fn recover_sessions(state: &Arc<State>, dir: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut max_id = 0u64;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("session-") || !name.ends_with(".ck") {
            continue;
        }
        let path = format!("{dir}/{name}");
        let snap = match snapshot::load(&path) {
            Ok(Snapshot::Session(s)) => s,
            // A corrupt (or foreign-kind) checkpoint cannot stop the
            // daemon from coming up; it is skipped, not deleted, so the
            // evidence survives for inspection.
            _ => continue,
        };
        match Session::resume(snap) {
            Ok(session) => {
                max_id = max_id.max(session.id);
                state
                    .retained
                    .fetch_add(session.retained() as u64, Ordering::SeqCst);
                state
                    .metrics
                    .sessions_recovered
                    .fetch_add(1, Ordering::Relaxed);
                state
                    .sessions
                    .lock()
                    .unwrap()
                    .insert(session.id, Arc::new(Mutex::new(session)));
            }
            Err(_) => continue,
        }
    }
    bump_retained_peak(state);
    let next = state.next_id.load(Ordering::SeqCst).max(max_id + 1);
    state.next_id.store(next, Ordering::SeqCst);
}

fn bump_retained_peak(state: &State) {
    let now = state.retained.load(Ordering::SeqCst);
    state.metrics.retained_peak.fetch_max(now, Ordering::SeqCst);
}

/// Flushes one session's checkpoint (honouring the mid-checkpoint kill
/// hook). Returns whether a file was written.
fn checkpoint_session(state: &State, session: &mut Session) -> bool {
    let Some(dir) = state.cfg.state_dir.as_deref() else {
        return false;
    };
    let nth = state.checkpoints.fetch_add(1, Ordering::SeqCst) + 1;
    if state.kill_checkpoint == Some(nth) {
        // Fault hook: die mid-checkpoint. The atomic save (temp file +
        // rename) has not started, so the previous checkpoint survives.
        // Saves numbered earlier may still be writing on other
        // connection threads. Wait for them, so their files exist: a
        // numbered save takes no further lock, so this cannot deadlock.
        while state.checkpoints_done.load(Ordering::SeqCst) < nth - 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::process::exit(KILL_EXIT_CODE);
    }
    let snap = Snapshot::Session(session.snapshot());
    let saved = snapshot::save(&session_path(dir, session.id), &snap).is_ok();
    state.checkpoints_done.fetch_add(1, Ordering::SeqCst);
    if saved {
        session.dirty_posts = 0;
        state
            .metrics
            .checkpoints_written
            .fetch_add(1, Ordering::Relaxed);
        true
    } else {
        false
    }
}

fn reap_idle(state: &Arc<State>) {
    let timeout = state.cfg.idle_timeout;
    let mut sessions = state.sessions.lock().unwrap();
    let idle: Vec<u64> = sessions
        .iter()
        .filter(|(_, s)| {
            s.lock()
                .map(|s| s.last_activity.elapsed() >= timeout)
                .unwrap_or(false)
        })
        .map(|(&id, _)| id)
        .collect();
    for id in idle {
        if let Some(arc) = sessions.remove(&id) {
            if let Ok(mut session) = arc.lock() {
                checkpoint_session(state, &mut session);
                state
                    .retained
                    .fetch_sub(session.retained() as u64, Ordering::SeqCst);
            }
            state
                .metrics
                .sessions_reaped
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn flush_all(state: &Arc<State>) -> u64 {
    let sessions = state.sessions.lock().unwrap();
    let mut flushed = 0;
    for arc in sessions.values() {
        if let Ok(mut session) = arc.lock() {
            if checkpoint_session(state, &mut session) {
                flushed += 1;
            }
        }
    }
    flushed
}

fn handle_connection(
    state: &Arc<State>,
    shutdown: &Arc<AtomicBool>,
    stream: TcpStream,
    peer: IpAddr,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    loop {
        let draining = shutdown.load(Ordering::SeqCst) || snapshot::interrupt_requested();
        match http::parse_request(&mut reader) {
            Ok(req) => {
                state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                let close = req.wants_close() || draining;
                let resp = route(state, &req, peer);
                if http::write_response(&mut write_half, &resp, close).is_err() || close {
                    return;
                }
            }
            Err(HttpError::Closed) => return,
            Err(HttpError::Idle) => {
                if draining {
                    return;
                }
            }
            Err(e) => {
                if let Some((status, reason)) = e.status() {
                    let resp = Response::error(status, reason, &e.to_string());
                    http::write_response(&mut write_half, &resp, true).ok();
                }
                return;
            }
        }
    }
}

/// Splits `/v1/session/17/events` into its id and trailing segment.
fn session_route(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/v1/session/")?;
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, tail),
        None => (rest, ""),
    };
    Some((id.parse().ok()?, tail))
}

fn lookup(state: &State, id: u64) -> Option<Arc<Mutex<Session>>> {
    if let Some(s) = state.sessions.lock().unwrap().get(&id) {
        return Some(Arc::clone(s));
    }
    // Reaped (or pre-restart) sessions page back in from their
    // checkpoint transparently.
    let dir = state.cfg.state_dir.as_deref()?;
    let snap = match snapshot::load(&session_path(dir, id)) {
        Ok(Snapshot::Session(s)) => s,
        _ => return None,
    };
    let session = Session::resume(snap).ok()?;
    state
        .retained
        .fetch_add(session.retained() as u64, Ordering::SeqCst);
    state
        .metrics
        .sessions_recovered
        .fetch_add(1, Ordering::Relaxed);
    bump_retained_peak(state);
    let arc = Arc::new(Mutex::new(session));
    let mut sessions = state.sessions.lock().unwrap();
    Some(Arc::clone(
        sessions.entry(id).or_insert_with(|| Arc::clone(&arc)),
    ))
}

fn shed(state: &State) -> Response {
    state.metrics.shed_requests.fetch_add(1, Ordering::Relaxed);
    let mut resp = Response::error(
        429,
        "Too Many Requests",
        "retained-event ceiling reached; retry after compaction or reaping",
    );
    resp.extra.push(("Retry-After", "1".to_owned()));
    resp
}

fn over_ceiling(state: &State) -> bool {
    state
        .cfg
        .max_retained
        .is_some_and(|cap| state.retained.load(Ordering::SeqCst) >= cap)
}

/// Counts `peer` against its fixed one-second window and reports whether
/// this request exceeds the per-client ceiling. The global retained
/// ceiling ([`over_ceiling`]) protects the daemon; this protects the
/// *other clients* from one hot peer monopolizing it.
fn peer_throttled(state: &State, peer: IpAddr) -> bool {
    let limit = state.cfg.peer_rps;
    if limit == 0 {
        return false;
    }
    let mut peers = state.peers.lock().unwrap();
    // Bound the table: stale windows from long-gone peers are dropped
    // before inserting new ones.
    if peers.len() >= 1024 {
        peers.retain(|_, w| w.start.elapsed() < Duration::from_secs(10));
    }
    let window = peers.entry(peer).or_insert_with(|| PeerWindow {
        start: Instant::now(),
        count: 0,
    });
    if window.start.elapsed() >= Duration::from_secs(1) {
        window.start = Instant::now();
        window.count = 0;
    }
    window.count += 1;
    if window.count > limit {
        state
            .metrics
            .throttled_requests
            .fetch_add(1, Ordering::Relaxed);
        return true;
    }
    false
}

fn throttled(peer: IpAddr, limit: u64) -> Response {
    let mut resp = Response::error(
        429,
        "Too Many Requests",
        &format!("client {peer} exceeded {limit} session requests/s"),
    );
    resp.extra.push(("Retry-After", "1".to_owned()));
    resp
}

fn route(state: &Arc<State>, req: &Request, peer: IpAddr) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => metrics_response(state),
        ("POST", "/v1/session") => {
            if peer_throttled(state, peer) {
                return throttled(peer, state.cfg.peer_rps);
            }
            create_session(state, req)
        }
        (method, path) => match session_route(path) {
            Some((id, tail)) => {
                if peer_throttled(state, peer) {
                    return throttled(peer, state.cfg.peer_rps);
                }
                session_request(state, req, method, id, tail)
            }
            None => Response::error(404, "Not Found", &format!("no route for {path}")),
        },
    }
}

fn create_session(state: &Arc<State>, req: &Request) -> Response {
    if over_ceiling(state) {
        return shed(state);
    }
    let budget = match req.query_param("budget") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(0) => None,
            Ok(b) => Some(b),
            Err(_) => {
                return Response::error(400, "Bad Request", &format!("bad budget `{raw}`"));
            }
        },
        None => state.cfg.session_budget,
    };
    let mut sessions = state.sessions.lock().unwrap();
    if sessions.len() >= state.cfg.session_cap {
        drop(sessions);
        return shed(state);
    }
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    sessions.insert(id, Arc::new(Mutex::new(Session::new(id, budget))));
    drop(sessions);
    state
        .metrics
        .sessions_created
        .fetch_add(1, Ordering::Relaxed);
    Response::json(201, "Created", format!("{{\"session\":{id}}}\n"))
}

fn session_request(
    state: &Arc<State>,
    req: &Request,
    method: &str,
    id: u64,
    tail: &str,
) -> Response {
    let Some(arc) = lookup(state, id) else {
        return Response::error(404, "Not Found", &format!("no session {id}"));
    };
    match (method, tail) {
        ("POST", "events") => ingest(state, &arc, req),
        ("GET", "verdict") => verdict(state, &arc, req),
        ("GET", "") => {
            let session = arc.lock().unwrap();
            Response::json(
                200,
                "OK",
                format!(
                    "{{\"session\":{},\"ingested\":{},\"retained\":{},\"degraded\":{},\"violated\":{}}}\n",
                    session.id,
                    session.ingested(),
                    session.retained(),
                    session.degraded(),
                    session.violated(),
                ),
            )
        }
        ("DELETE", "") => {
            let removed = state.sessions.lock().unwrap().remove(&id);
            if let Some(arc) = removed {
                if let Ok(session) = arc.lock() {
                    state
                        .retained
                        .fetch_sub(session.retained() as u64, Ordering::SeqCst);
                }
            }
            if let Some(dir) = state.cfg.state_dir.as_deref() {
                std::fs::remove_file(session_path(dir, id)).ok();
            }
            Response::json(200, "OK", format!("{{\"deleted\":{id}}}\n"))
        }
        _ => Response::error(
            405,
            "Method Not Allowed",
            &format!("{method} not supported on this route"),
        ),
    }
}

fn parse_body_events(body: &[u8]) -> Result<Vec<Event>, String> {
    let mut reader = TraceReader::new(body).map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    while let Some(event) = reader.next_event().map_err(|e| e.to_string())? {
        events.push(event);
    }
    Ok(events)
}

fn ingest(state: &Arc<State>, arc: &Arc<Mutex<Session>>, req: &Request) -> Response {
    if over_ceiling(state) {
        return shed(state);
    }
    let events = match parse_body_events(&req.body) {
        Ok(events) => events,
        Err(e) => return Response::error(400, "Bad Request", &e),
    };
    let mut session = arc.lock().unwrap();
    let before_retained = session.retained() as u64;
    let (report, malformed) = match session.ingest(&events) {
        Ok(report) => (report, None),
        Err((e, partial)) => (partial, Some(e.to_string())),
    };
    let after_retained = session.retained() as u64;
    // Update the shedding gauge by the batch's delta (compaction can
    // shrink it).
    if after_retained >= before_retained {
        state
            .retained
            .fetch_add(after_retained - before_retained, Ordering::SeqCst);
    } else {
        state
            .retained
            .fetch_sub(before_retained - after_retained, Ordering::SeqCst);
    }
    bump_retained_peak(state);
    let total = state
        .metrics
        .events_ingested
        .fetch_add(report.accepted, Ordering::SeqCst)
        + report.accepted;
    state
        .metrics
        .events_discarded
        .fetch_add(report.discarded, Ordering::Relaxed);
    if state.kill_ingest.is_some_and(|n| total >= n) {
        // Fault hook: die mid-ingest, before this batch is checkpointed
        // or acknowledged — the client must re-stream it after recovery.
        std::process::exit(KILL_EXIT_CODE);
    }
    if session.dirty_posts >= state.cfg.checkpoint_every.max(1) {
        checkpoint_session(state, &mut session);
    }
    let ack = format!(
        "{{\"session\":{},\"ingested\":{},\"retained\":{},\"degraded\":{},\"violated\":{}}}\n",
        session.id,
        session.ingested(),
        session.retained(),
        session.degraded(),
        session.violated(),
    );
    match malformed {
        Some(e) => Response::error(
            400,
            "Bad Request",
            &format!("{e} (ingested so far ride in /v1/session/{})", session.id),
        ),
        None => Response::json(200, "OK", ack),
    }
}

fn verdict(state: &Arc<State>, arc: &Arc<Mutex<Session>>, req: &Request) -> Response {
    let json = req.query_param("format") != Some("text");
    let mut session = arc.lock().unwrap();
    let verdict = session.verdict();
    match verdict {
        Verdict::Satisfied(_) => &state.metrics.verdicts_satisfied,
        Verdict::Violated(_) => &state.metrics.verdicts_violated,
        Verdict::Unknown { .. } => &state.metrics.verdicts_unknown,
    }
    .fetch_add(1, Ordering::Relaxed);
    let body = verdict_line(&verdict, json);
    if json {
        Response::json(200, "OK", body)
    } else {
        Response::text(200, "OK", body)
    }
}

fn metrics_response(state: &Arc<State>) -> Response {
    let m = &state.metrics;
    let live = state.sessions.lock().unwrap().len() as u64;
    let mut body = String::new();
    let mut metric = |name: &str, kind: &str, value: u64| {
        body.push_str(&format!(
            "# TYPE duop_serve_{name} {kind}\nduop_serve_{name} {value}\n"
        ));
    };
    metric("sessions_live", "gauge", live);
    metric(
        "sessions_created",
        "counter",
        m.sessions_created.load(Ordering::Relaxed),
    );
    metric(
        "sessions_reaped",
        "counter",
        m.sessions_reaped.load(Ordering::Relaxed),
    );
    metric(
        "sessions_recovered",
        "counter",
        m.sessions_recovered.load(Ordering::Relaxed),
    );
    metric(
        "events_ingested",
        "counter",
        m.events_ingested.load(Ordering::Relaxed),
    );
    metric(
        "events_discarded",
        "counter",
        m.events_discarded.load(Ordering::Relaxed),
    );
    metric(
        "retained_events",
        "gauge",
        state.retained.load(Ordering::SeqCst),
    );
    metric(
        "retained_peak_events",
        "gauge",
        m.retained_peak.load(Ordering::Relaxed),
    );
    metric(
        "requests_total",
        "counter",
        m.requests_total.load(Ordering::Relaxed),
    );
    metric(
        "shed_requests",
        "counter",
        m.shed_requests.load(Ordering::Relaxed),
    );
    metric(
        "throttled_requests",
        "counter",
        m.throttled_requests.load(Ordering::Relaxed),
    );
    metric(
        "checkpoints_written",
        "counter",
        m.checkpoints_written.load(Ordering::Relaxed),
    );
    metric(
        "connections_accepted",
        "counter",
        m.connections_accepted.load(Ordering::Relaxed),
    );
    metric(
        "connections_dropped",
        "counter",
        m.connections_dropped.load(Ordering::Relaxed),
    );
    for (shape, counter) in [
        ("satisfied", &m.verdicts_satisfied),
        ("violated", &m.verdicts_violated),
        ("unknown", &m.verdicts_unknown),
    ] {
        body.push_str(&format!(
            "duop_serve_verdicts{{shape=\"{shape}\"}} {}\n",
            counter.load(Ordering::Relaxed)
        ));
    }
    Response::text(200, "OK", body)
}
