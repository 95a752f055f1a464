//! The `stream-serve` workload: an in-process `duop serve` on loopback fed
//! by closed-loop clients, each on one keep-alive connection. A client
//! streams a trace as 32-event text POSTs and asks for the verdict after
//! every second POST and at the end of the stream.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use duop_core::{check_witness, CriterionKind, Witness};
use duop_gen::{HistoryGen, HistoryGenConfig};
use duop_history::reader::TraceReader;
use duop_history::trace::format_trace;
use duop_history::{Event, History, TxnId};
use duop_serve::{ServeConfig, Server, Session, ShutdownHandle};
use serde::Content;

use crate::calib::Calibrator;
use crate::oracle::{Origin, Tally};
use crate::spans::Tracer;
use crate::stats::{field, median, p50_p90_ms, percentile, ratio, Report, Reservoir};
use crate::{peak_rss_mb, Sizes, SETUP_REPS};

const WORKLOAD: &str = "stream-serve";
const CHUNK_EVENTS: usize = 32;
const CLIENTS: usize = 2;

struct Stream {
    history: History,
    /// Trace-text bodies, `CHUNK_EVENTS` lines each, with their event counts.
    chunks: Vec<(String, u64)>,
    origin: Origin,
}

impl Stream {
    /// Whether a verdict is requested after chunk `k`.
    fn verdict_after(&self, k: usize) -> bool {
        (k + 1).is_multiple_of(2) || k + 1 == self.chunks.len()
    }
}

fn corpus(seed: u64, sizes: &Sizes) -> Vec<Stream> {
    (0..sizes.stream_traces)
        .map(|i| {
            let cfg = HistoryGenConfig::medium_simulated().with_txns(sizes.stream_txns);
            let history = HistoryGen::new(cfg, seed + i).generate();
            let text = format_trace(&history);
            let lines: Vec<&str> = text.lines().collect();
            let chunks = lines
                .chunks(CHUNK_EVENTS)
                .map(|c| (format!("{}\n", c.join("\n")), c.len() as u64))
                .collect();
            Stream {
                history,
                chunks,
                origin: Origin {
                    config: format!("medium_simulated().with_txns({})", sizes.stream_txns),
                    seed: Some(seed + i),
                },
            }
        })
        .collect()
}

/// The in-process daemon and its accept-loop thread.
struct Daemon {
    addr: String,
    handle: ShutdownHandle,
    join: JoinHandle<()>,
}

impl Daemon {
    fn start() -> Daemon {
        let server = Server::bind(ServeConfig::default()).expect("bind loopback server");
        let addr = server.local_addr().expect("server address").to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || {
            let mut log = Vec::new();
            server.run(&mut log).expect("server accept loop");
        });
        Daemon { addr, handle, join }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join.join().expect("server thread");
    }
}

/// A keep-alive loopback connection speaking just enough HTTP/1.1.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<(u16, Vec<u8>)> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if let Some(b) = body {
            head.push_str(&format!(
                "Content-Type: text/plain\r\nContent-Length: {}\r\n",
                b.len()
            ));
        }
        head.push_str("\r\n");
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        if let Some(b) = body {
            stream.write_all(b)?;
        }
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {status_line:?}")))?;
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut payload = vec![0u8; len];
        self.reader.read_exact(&mut payload)?;
        Ok((status, payload))
    }
}

/// What one client saw. Durations are at the reference host speed (see
/// [`crate::calib`]).
struct Log {
    cal: Calibrator,
    post_ns: Reservoir<u64>,
    get_ns: Reservoir<u64>,
    stream_ns: Reservoir<u64>,
    /// Events acknowledged per second of each complete stream.
    stream_rates: Reservoir<f64>,
    /// Time spent waiting on requests: all of them, event POSTs, verdict
    /// GETs.
    busy_ns: u64,
    post_total_ns: u64,
    get_total_ns: u64,
    acked: u64,
    attempted: u64,
    failed: u64,
    /// First verdict body per (stream, events acknowledged so far).
    verdicts: BTreeMap<(usize, u64), Vec<u8>>,
}

impl Log {
    fn new() -> Log {
        Log {
            cal: Calibrator::new(),
            post_ns: Reservoir::new(u64::MAX),
            get_ns: Reservoir::new(u64::MAX),
            stream_ns: Reservoir::new(u64::MAX),
            stream_rates: Reservoir::new(f64::MAX),
            busy_ns: 0,
            post_total_ns: 0,
            get_total_ns: 0,
            acked: 0,
            attempted: 0,
            failed: 0,
            verdicts: BTreeMap::new(),
        }
    }

    fn absorb(&mut self, other: Log) {
        self.post_ns.absorb(&other.post_ns);
        self.get_ns.absorb(&other.get_ns);
        self.stream_ns.absorb(&other.stream_ns);
        self.stream_rates.absorb(&other.stream_rates);
        self.busy_ns += other.busy_ns;
        self.post_total_ns += other.post_total_ns;
        self.get_total_ns += other.get_total_ns;
        self.acked += other.acked;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.verdicts {
            self.verdicts.entry(k).or_insert(v);
        }
    }

    /// Sends one request and tallies it. Returns the payload (`None` on a
    /// status other than `expect`) and the request's duration.
    fn send(
        &mut self,
        conn: &mut Conn,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        expect: u16,
    ) -> io::Result<(Option<Vec<u8>>, u64)> {
        self.cal.tick();
        self.attempted += 1;
        let start = Instant::now();
        let (status, payload) = conn.request(method, path, body)?;
        let ns = self.cal.ns(start.elapsed());
        self.busy_ns += ns;
        if status != expect {
            self.failed += 1;
            return Ok((None, ns));
        }
        Ok((Some(payload), ns))
    }
}

/// Streams one trace through a fresh session. Returns whether the whole
/// stream went through before `deadline`.
fn stream_one(
    conn: &mut Conn,
    idx: usize,
    s: &Stream,
    deadline: Option<Instant>,
    log: &mut Log,
) -> io::Result<bool> {
    let (created, mut stream_ns) = log.send(conn, "POST", "/v1/session", Some(b""), 201)?;
    let Some(created) = created else {
        return Ok(false);
    };
    let sid = session_id(&created)?;
    let events_path = format!("/v1/session/{sid}/events");
    let verdict_path = format!("/v1/session/{sid}/verdict");
    let mut sent = 0u64;
    let mut complete = true;
    for (k, (body, events)) in s.chunks.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            complete = false;
            break;
        }
        let (acked, ns) = log.send(conn, "POST", &events_path, Some(body.as_bytes()), 200)?;
        log.post_ns.push(ns);
        log.post_total_ns += ns;
        stream_ns += ns;
        if acked.is_some() {
            log.acked += events;
            sent += events;
        }
        if s.verdict_after(k) {
            let (verdict, ns) = log.send(conn, "GET", &verdict_path, None, 200)?;
            log.get_ns.push(ns);
            log.get_total_ns += ns;
            stream_ns += ns;
            if let Some(body) = verdict {
                if status_of(&body).as_deref() == Some("unknown") {
                    log.failed += 1;
                }
                log.verdicts.entry((idx, sent)).or_insert(body);
            }
        }
    }
    if complete {
        log.stream_ns.push(stream_ns);
        log.stream_rates
            .push(sent as f64 / (stream_ns as f64 / 1e9));
    }
    log.send(conn, "DELETE", &format!("/v1/session/{sid}"), None, 200)?;
    Ok(complete)
}

fn session_id(body: &[u8]) -> io::Result<u64> {
    let text = String::from_utf8_lossy(body);
    text.split("\"session\":")
        .nth(1)
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .ok_or_else(|| io::Error::other(format!("no session id in {text:?}")))
}

fn verdict_content(body: &[u8]) -> Option<Content> {
    let parsed: Content = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    field(&parsed, "verdict").cloned()
}

fn status_of(body: &[u8]) -> Option<String> {
    verdict_content(body).and_then(|v| field(&v, "status")?.as_str().map(str::to_owned))
}

fn txn_id(name: &str) -> Option<TxnId> {
    name.strip_prefix('T')?.parse().ok().map(TxnId::new)
}

fn witness_of(verdict: &Content) -> Option<Witness> {
    let w = field(verdict, "witness")?;
    let Content::Seq(order) = field(w, "order")? else {
        return None;
    };
    let order = order
        .iter()
        .map(|t| t.as_str().and_then(txn_id))
        .collect::<Option<Vec<_>>>()?;
    let Content::Map(choices) = field(w, "commit_choices")? else {
        return None;
    };
    let choices = choices
        .iter()
        .map(|(t, c)| match c {
            Content::Bool(b) => Some((txn_id(t)?, *b)),
            _ => None,
        })
        .collect::<Option<BTreeMap<_, _>>>()?;
    Some(Witness::new(order, choices))
}

/// Every client cycles through its share of the corpus until `limit`.
fn http_phase(addr: &str, streams: &[Stream], limit: Duration) -> Log {
    let deadline = Instant::now() + limit;
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = Log::new();
                    let Ok(mut conn) = Conn::open(addr) else {
                        log.attempted += 1;
                        log.failed += 1;
                        return log;
                    };
                    let mut k = 0;
                    while Instant::now() < deadline {
                        let idx = (c + k * CLIENTS) % streams.len();
                        if stream_one(&mut conn, idx, &streams[idx], Some(deadline), &mut log)
                            .is_err()
                        {
                            log.failed += 1;
                            break;
                        }
                        k += 1;
                    }
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut log = Log::new();
    for l in logs {
        log.absorb(l);
    }
    log
}

/// Brings a daemon up and streams the warm-up slice through it,
/// `SETUP_REPS` times; the median is the set-up time. The last daemon
/// stays up for the timed section.
fn setup(warmup: &[Stream]) -> (f64, Daemon, Log) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let mut log = Log::new();
        let start = Instant::now();
        let daemon = Daemon::start();
        let mut conn = Conn::open(&daemon.addr).expect("connect to the daemon");
        let bind_ns = log.cal.ns(start.elapsed());
        for (idx, s) in warmup.iter().enumerate() {
            stream_one(&mut conn, idx, s, None, &mut log).expect("warm-up stream");
        }
        times.push((bind_ns + log.busy_ns) as f64 / 1e9);
        drop(conn);
        if rep + 1 < SETUP_REPS {
            daemon.stop();
        } else {
            last = Some((daemon, log));
        }
    }
    let (daemon, log) = last.expect("at least one set-up");
    (median(&times), daemon, log)
}

/// `duop_serve_events_ingested` from `/metrics`.
fn metrics_events(addr: &str) -> io::Result<u64> {
    let (_, body) = Conn::open(addr)?.request("GET", "/metrics", None)?;
    String::from_utf8_lossy(&body)
        .lines()
        .find_map(|l| {
            l.strip_prefix("duop_serve_events_ingested ")?
                .trim()
                .parse()
                .ok()
        })
        .ok_or_else(|| io::Error::other("no duop_serve_events_ingested in /metrics"))
}

/// Checks every verdict the clients received: the simulated corpus is
/// du-opaque, so every prefix must be satisfied with a witness that
/// `check_witness` accepts.
fn oracle(streams: &[Stream], log: &Log, tally: &mut Tally) {
    for (&(idx, events), body) in &log.verdicts {
        let s = &streams[idx];
        let verdict = verdict_content(body);
        let status = verdict.as_ref().and_then(|v| field(v, "status")?.as_str());
        if status != Some("satisfied") {
            let why = format!("verdict after {events} events is {status:?}, expected satisfied");
            tally.reject(WORKLOAD, &s.origin, "du", &why, false);
            continue;
        }
        let Some(w) = verdict.as_ref().and_then(witness_of) else {
            tally.reject(WORKLOAD, &s.origin, "du", "unparsable witness", false);
            continue;
        };
        let prefix = s.history.prefix(events as usize);
        let checked = tally.time_witness(events, || {
            check_witness(&prefix, &w, CriterionKind::DuOpacity)
        });
        if let Err(e) = checked {
            let why = format!("witness after {events} events rejected by check_witness: {e}");
            tally.reject(WORKLOAD, &s.origin, "du", &why, false);
        }
    }
}

fn parse_chunk(body: &str) -> Vec<Event> {
    let mut reader = TraceReader::new(body.as_bytes()).expect("chunk text parses");
    let mut events = Vec::new();
    while let Some(ev) = reader.next_event().expect("chunk event parses") {
        events.push(ev);
    }
    events
}

/// The direct path: the same requests fed straight into `Session`.
#[derive(Default)]
struct Direct {
    streams: usize,
    events: u64,
    /// Time inside requests, as measured and at the reference host speed.
    raw_ns: u64,
    busy_ns: u64,
    incremental_hits: usize,
    full_searches: usize,
    pushed: usize,
    peak_retained: usize,
    not_satisfied: u64,
}

/// Feeds whole streams into sessions until `limit` or `max_streams`,
/// recording spans when `tracer` is enabled.
fn direct(streams: &[Stream], limit: Duration, max_streams: usize, tracer: &mut Tracer) -> Direct {
    let mut d = Direct::default();
    let mut cal = Calibrator::new();
    let start = Instant::now();
    let timed = |cal: &mut Calibrator, d: &mut Direct, f: &mut dyn FnMut()| {
        cal.tick();
        let t = Instant::now();
        f();
        let took = t.elapsed();
        d.raw_ns += took.as_nanos() as u64;
        d.busy_ns += cal.ns(took);
    };
    for (idx, s) in streams.iter().enumerate().take(max_streams) {
        if start.elapsed() >= limit {
            break;
        }
        let sid = idx as u64 + 1;
        let root = tracer.open("stream", None, (sid, 0));
        let mut session = Session::new(sid, None);
        let mut request = 0u32;
        for (k, (body, events)) in s.chunks.iter().enumerate() {
            request += 1;
            let req = (sid, request);
            timed(&mut cal, &mut d, &mut || {
                let r = tracer.open("request", Some(root), req);
                let (parsed, _) = tracer.span("decode", Some(r), req, || parse_chunk(body));
                let (ingested, _) =
                    tracer.span("session.ingest", Some(r), req, || session.ingest(&parsed));
                tracer.close(r);
                ingested.expect("simulated events ingest");
            });
            d.events += events;
            if s.verdict_after(k) {
                request += 1;
                let req = (sid, request);
                let mut satisfied = true;
                timed(&mut cal, &mut d, &mut || {
                    let r = tracer.open("request", Some(root), req);
                    let (v, _) = tracer.span("session.verdict", Some(r), req, || session.verdict());
                    tracer.close(r);
                    satisfied = v.is_satisfied();
                });
                if !satisfied {
                    d.not_satisfied += 1;
                }
            }
        }
        tracer.close(root);
        let stats = session.stats();
        d.incremental_hits += stats.incremental_hits;
        d.full_searches += stats.full_searches;
        d.pushed += stats.events;
        d.peak_retained = d.peak_retained.max(stats.peak_resident_events);
        d.streams += 1;
    }
    d
}

pub fn run(seconds: f64, trace: bool, seed: u64, sizes: &Sizes) -> (Report, Option<Tracer>) {
    let streams = corpus(seed, sizes);
    let total: u64 = streams.iter().map(|s| s.history.len() as u64).sum();
    let mut budget = (total / 20).max(1);
    let warm = streams
        .iter()
        .take_while(|s| {
            let take = budget > 0;
            budget = budget.saturating_sub(s.history.len() as u64);
            take
        })
        .count();
    eprintln!(
        "{WORKLOAD}: {} traces, {total} events; warm-up {warm} traces",
        streams.len()
    );
    let (setup_s, daemon, warm_log) = setup(&streams[..warm]);
    let limit = Duration::from_secs_f64(seconds);
    let phase = if trace { limit / 3 } else { limit };
    let mut log = http_phase(&daemon.addr, &streams, phase);
    let mut tally = Tally::new();
    let expected = warm_log.acked + log.acked;
    let counted = metrics_events(&daemon.addr);
    daemon.stop();
    if counted.as_ref().ok() != Some(&expected) {
        let origin = Origin {
            config: "GET /metrics".to_owned(),
            seed: None,
        };
        let why = format!(
            "duop_serve_events_ingested reads {counted:?}, {expected} events were acknowledged"
        );
        tally.reject(WORKLOAD, &origin, "du", &why, false);
    }
    oracle(&streams, &warm_log, &mut tally);
    oracle(&streams, &log, &mut tally);
    eprintln!(
        "{WORKLOAD}: {} requests, {} complete streams, {} events acknowledged",
        log.attempted,
        log.stream_ns.seen(),
        log.acked,
    );
    let mut report = Report {
        attempted: log.attempted,
        failed_ops: log.failed,
        ..Report::default()
    };

    if !trace {
        // The clients run side by side, so together they acknowledge
        // `CLIENTS` times one client's median stream rate.
        let rate = CLIENTS as f64 * median(log.stream_rates.values());
        report.push("events_per_s", rate, "1/s");
        report.push("trace_p50_ms", p50_p90_ms(&mut log.stream_ns).0, "ms");
        let (v50, v90) = p50_p90_ms(&mut log.get_ns);
        report.push("verdict_p50_ms", v50, "ms");
        report.push("verdict_p90_ms", v90, "ms");
        report.push("setup_s", setup_s, "s");
        report.push("peak_rss_mb", peak_rss_mb(), "MB");
        report.wrong = tally.wrong;
        report.known = tally.known;
        return (report, None);
    }

    // Traced run: the same streams fed straight into `Session`, first
    // untraced for the baseline, then with spans.
    let untraced = direct(&streams, phase, usize::MAX, &mut Tracer::off());
    let mut tracer = Tracer::new();
    let traced = direct(&streams, Duration::MAX, untraced.streams, &mut tracer);
    let not_satisfied = untraced.not_satisfied + traced.not_satisfied;
    if not_satisfied > 0 {
        let origin = Origin {
            config: "direct Session feed".to_owned(),
            seed: Some(seed),
        };
        let why = format!("{not_satisfied} verdicts were not satisfied");
        tally.reject(WORKLOAD, &origin, "du", &why, false);
    }
    let own = tracer.self_times();
    // Span times are as measured; scale them to the reference host speed
    // like every other duration.
    let scale = ratio(traced.busy_ns as f64, traced.raw_ns as f64);
    let ns = |name| tracer.self_ns(&own, name) as f64;
    let durations = |name| -> Vec<u64> {
        tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .collect()
    };
    let mut verdict_spans = durations("session.verdict");
    verdict_spans.sort_unstable();
    let requests = durations("request");
    let mean = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64);
    let http_mean = ratio(
        (log.post_total_ns + log.get_total_ns) as f64,
        (log.post_ns.seen() + log.get_ns.seen()) as f64,
    );
    let events = traced.events as f64;
    let accounted = ns("decode") + ns("session.ingest") + ns("session.verdict");
    report.push(
        "history.decode_ns_per_event",
        ratio(ns("decode") * scale, events),
        "ns",
    );
    report.push(
        "witness_check.ns_per_event",
        ratio(tally.witness_ns as f64, tally.witness_events as f64),
        "ns",
    );
    report.push(
        "online.push_ns_per_event",
        ratio(ns("session.ingest") * scale, events),
        "ns",
    );
    let pushed = traced.pushed as f64;
    report.push(
        "online.incremental_hit_frac",
        ratio(traced.incremental_hits as f64, pushed),
        "frac",
    );
    report.push(
        "online.full_search_frac",
        ratio(traced.full_searches as f64, pushed),
        "frac",
    );
    report.push(
        "online.peak_retained_events",
        traced.peak_retained as f64,
        "count",
    );
    report.push(
        "serve.ingest_ns_per_event",
        ratio(log.post_total_ns as f64, log.acked as f64),
        "ns",
    );
    report.push(
        "serve.verdict_ns",
        percentile(&verdict_spans, 50.0) * scale,
        "ns",
    );
    report.push(
        "serve.http_overhead_frac",
        1.0 - ratio(mean(&requests) * scale, http_mean),
        "frac",
    );
    report.push(
        "trace.overhead_frac",
        ratio(traced.busy_ns as f64, untraced.busy_ns as f64) - 1.0,
        "frac",
    );
    report.push(
        "trace.unaccounted_frac",
        1.0 - ratio(accounted, traced.raw_ns as f64),
        "frac",
    );
    report.push("oracle.wrong_verdicts", tally.wrong as f64, "count");
    report.wrong = tally.wrong;
    report.known = tally.known;
    (report, Some(tracer))
}
