//! The TCP transport: a worker daemon (`duop shard-serve`) and the
//! coordinator-side connector that lets `duop shard --connect HOST:PORT`
//! drive worker pools on other hosts.
//!
//! # Wire authentication
//!
//! Nothing on the stdin/stdout path needs authenticating — the
//! coordinator spawned the worker. A TCP listener accepts bytes from
//! anyone, so every connection starts with a challenge–response hello:
//! the daemon sends a fresh per-connection nonce
//! ([`crate::protocol::FRAME_CHALLENGE`]), the coordinator answers with
//! a keyed SipHash-2-4 tag over it ([`crate::protocol::FRAME_AUTH`]),
//! and the daemon verifies in constant time. A wrong secret, a replayed
//! tag from an earlier connection (the nonce is fresh), or any malformed
//! frame closes the connection *before a single task frame is read*.
//! Only after that gate does the connection enter the ordinary worker
//! loop ([`crate::run_worker_io`]) — the same loop, byte for byte, that
//! serves a local pipe.
//!
//! # Liveness
//!
//! Each authenticated connection gets a daemon-side heartbeat thread
//! writing [`crate::protocol::FRAME_HEARTBEAT`] once a second — crucially
//! *independent of the worker loop*, so a worker grinding minutes on one
//! component still proves its host is alive. The coordinator timestamps
//! every received frame and declares a remote dead after
//! [`net_timeout`] of silence; reconnection uses capped exponential
//! [`Backoff`] with jitter.

use crate::protocol::{
    auth_tag, constant_time_eq, decode_auth, decode_challenge, encode_auth, encode_challenge,
    write_frame, FrameReader, ProtocolError, FRAME_AUTH, FRAME_CHALLENGE, FRAME_HEARTBEAT,
    NONCE_LEN,
};
use crate::worker::run_worker_io;
use duop_serve::listener::{bind_nonblocking, poll_accept, Accepted, ShutdownHandle};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// `DUOP_SHARD_NET_DROP_CONN=N` (daemon): close the Nth accepted
/// connection right after its handshake succeeds — a deterministic
/// mid-run connection drop the coordinator must absorb by re-queueing
/// and reconnecting.
pub const NET_DROP_CONN_ENV: &str = "DUOP_SHARD_NET_DROP_CONN";
/// `DUOP_SHARD_NET_STALL=N` (daemon): after the Nth connection's
/// handshake, go silent — never send hello, heartbeats, or verdicts —
/// until the daemon shuts down. Simulates a partitioned-away host; the
/// coordinator's net timeout must fire.
pub const NET_STALL_ENV: &str = "DUOP_SHARD_NET_STALL";
/// `DUOP_SHARD_NET_BAD_HELLO=N` (coordinator): present a deliberately
/// wrong auth tag on the Nth outbound handshake. The daemon must reject
/// it before reading a task frame; the coordinator treats the rejection
/// as a failed connect and retries with the real tag.
pub const NET_BAD_HELLO_ENV: &str = "DUOP_SHARD_NET_BAD_HELLO";
/// `DUOP_SHARD_NET_TIMEOUT_MS` (coordinator): override for how long a
/// remote worker may stay silent before it is declared dead (default
/// [`DEFAULT_NET_TIMEOUT_MS`]).
pub const NET_TIMEOUT_ENV: &str = "DUOP_SHARD_NET_TIMEOUT_MS";

/// Default silence budget for a remote worker, in milliseconds. The
/// daemon heartbeats once a second, so ten missed beats means the host
/// or path is gone, not slow.
pub const DEFAULT_NET_TIMEOUT_MS: u64 = 10_000;

/// Daemon-side heartbeat cadence.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// How long the daemon waits for the auth response before giving up on
/// a connection that dialed in and went mute.
const AUTH_READ_TIMEOUT: Duration = Duration::from_secs(5);

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The coordinator's silence budget for remote workers: the env override
/// or the default.
pub fn net_timeout() -> Duration {
    Duration::from_millis(env_u64(NET_TIMEOUT_ENV).unwrap_or(DEFAULT_NET_TIMEOUT_MS))
}

/// Reads a shared-secret file, trimming trailing ASCII whitespace (the
/// newline every editor appends must not change the key).
///
/// # Errors
///
/// The file's own read failure, or an error for an empty secret.
pub fn load_secret(path: &str) -> io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    while bytes.last().is_some_and(|b| b.is_ascii_whitespace()) {
        bytes.pop();
    }
    if bytes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{path}: secret file is empty"),
        ));
    }
    Ok(bytes)
}

/// Process-local entropy for nonces: two independent [`RandomState`]
/// seeds (per-process random) folded with a monotone counter, so nonces
/// never repeat within a process and differ across processes.
fn fresh_nonce() -> [u8; NONCE_LEN] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEEDS: OnceLock<(RandomState, RandomState)> = OnceLock::new();
    let (a, b) = SEEDS.get_or_init(|| (RandomState::new(), RandomState::new()));
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut ha = a.build_hasher();
    ha.write_u64(n);
    let mut hb = b.build_hasher();
    hb.write_u64(!n);
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&ha.finish().to_le_bytes());
    nonce[8..].copy_from_slice(&hb.finish().to_le_bytes());
    nonce
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Capped exponential backoff with jitter, shared by the coordinator's
/// reconnect loop and `duop client`'s 429 handling. Each delay is drawn
/// uniformly from `[cur/2, cur)` (full jitter over the upper half, so
/// herds desynchronize but progress is never quicker than half the
/// nominal step), then the nominal step doubles up to `cap`.
#[derive(Debug)]
pub struct Backoff {
    cur_ms: u64,
    cap_ms: u64,
    rng: u64,
}

impl Backoff {
    /// Starts a schedule at `base_ms`, doubling to at most `cap_ms`.
    #[must_use]
    pub fn new(base_ms: u64, cap_ms: u64) -> Backoff {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(0x0062_6163_6b6f_6666); // "backoff"
        Backoff {
            cur_ms: base_ms.max(1),
            cap_ms: cap_ms.max(base_ms.max(1)),
            rng: h.finish() | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64: plenty for jitter.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// The next delay in the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let cur = self.cur_ms;
        let half = (cur / 2).max(1);
        let jittered = half + self.next_u64() % half.max(1);
        self.cur_ms = (cur * 2).min(self.cap_ms);
        Duration::from_millis(jittered.min(cur))
    }

    /// The next delay, floored by a server-mandated minimum (an HTTP
    /// `Retry-After`, in milliseconds).
    pub fn next_delay_at_least(&mut self, floor_ms: u64) -> Duration {
        self.next_delay().max(Duration::from_millis(floor_ms))
    }
}

// ---------------------------------------------------------------------------
// Coordinator side: connect + authenticate
// ---------------------------------------------------------------------------

fn bad_hello_counter() -> &'static AtomicU64 {
    static N: OnceLock<AtomicU64> = OnceLock::new();
    N.get_or_init(|| AtomicU64::new(0))
}

/// Dials a worker daemon and completes the authenticated hello: read the
/// challenge, answer with the keyed tag. On success the stream is ready
/// for the ordinary worker-protocol exchange (the caller sends its
/// `FRAME_HELLO` next).
///
/// # Errors
///
/// Connection failure, a malformed challenge, or the daemon hanging up
/// (wrong secret / rejected tag) — all as [`ProtocolError`].
pub fn connect_remote(addr: &str, secret: &[u8]) -> Result<TcpStream, ProtocolError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(AUTH_READ_TIMEOUT)).ok();
    let mut reader = FrameReader::new(stream.try_clone()?);
    let challenge = match reader.read_frame()? {
        Some((FRAME_CHALLENGE, payload)) => decode_challenge(payload)?,
        Some((ty, _)) => {
            return Err(ProtocolError::Malformed {
                context: "challenge",
                detail: format!("expected challenge frame, got type {ty:#04x}"),
            })
        }
        None => {
            return Err(ProtocolError::Malformed {
                context: "challenge",
                detail: "daemon hung up before the challenge".to_owned(),
            })
        }
    };
    let mut tag = auth_tag(secret, &challenge);
    if let Some(n) = env_u64(NET_BAD_HELLO_ENV) {
        if bad_hello_counter().fetch_add(1, Ordering::SeqCst) + 1 == n {
            // Fault hook: impostor drill — flip the tag and let the
            // daemon slam the door.
            for b in &mut tag {
                *b = !*b;
            }
        }
    }
    let mut write_half = stream.try_clone()?;
    write_frame(&mut write_half, FRAME_AUTH, &encode_auth(&tag))?;
    write_half.flush()?;
    stream.set_read_timeout(None).ok();
    Ok(stream)
}

// ---------------------------------------------------------------------------
// Daemon side
// ---------------------------------------------------------------------------

/// `duop shard-serve` configuration.
#[derive(Clone, Debug)]
pub struct ShardServeConfig {
    /// Bind address; port `0` picks a free port (printed on startup).
    pub listen: String,
    /// The shared secret coordinators must prove knowledge of.
    pub secret: Vec<u8>,
    /// Fault hook: close the Nth accepted connection post-handshake.
    pub drop_conn: Option<u64>,
    /// Fault hook: go silent on the Nth connection post-handshake.
    pub stall_conn: Option<u64>,
}

impl ShardServeConfig {
    /// A config for `listen`/`secret` with the fault hooks read from the
    /// environment (`DUOP_SHARD_NET_DROP_CONN`, `DUOP_SHARD_NET_STALL`)
    /// — the CLI entry path.
    #[must_use]
    pub fn from_env(listen: String, secret: Vec<u8>) -> ShardServeConfig {
        ShardServeConfig {
            listen,
            secret,
            drop_conn: env_u64(NET_DROP_CONN_ENV),
            stall_conn: env_u64(NET_STALL_ENV),
        }
    }
}

/// The worker daemon: accepts authenticated coordinator connections and
/// runs one worker loop per connection.
pub struct ShardServer {
    listener: std::net::TcpListener,
    cfg: ShardServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl ShardServer {
    /// Binds the listen socket.
    ///
    /// # Errors
    ///
    /// The bind failure.
    pub fn bind(cfg: ShardServeConfig) -> io::Result<ShardServer> {
        let listener = bind_nonblocking(&cfg.listen)?;
        Ok(ShardServer {
            listener,
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (with the OS-assigned port when `listen` ended
    /// in `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket's own failure to report its address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers the same graceful stop as SIGTERM.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle::new(Arc::clone(&self.shutdown))
    }

    /// Runs the accept loop until SIGINT/SIGTERM or the
    /// [`ShutdownHandle`] asks for a stop, then drains: open
    /// connections notice the flag and wind down after their current
    /// task.
    ///
    /// # Errors
    ///
    /// A non-transient accept failure.
    pub fn run(self, out: &mut dyn Write) -> io::Result<()> {
        let addr = self.local_addr()?;
        writeln!(out, "listening on {addr}")?;
        out.flush().ok();
        let mut conns = 0u64;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut idle = Duration::ZERO;
        loop {
            match poll_accept(&self.listener, &self.shutdown, &mut idle)? {
                Accepted::Shutdown => break,
                Accepted::Idle => {}
                Accepted::Conn(stream, peer) => {
                    conns += 1;
                    let n = conns;
                    let cfg = self.cfg.clone();
                    let stop = Arc::clone(&self.shutdown);
                    workers.push(std::thread::spawn(move || {
                        serve_connection(stream, peer, &cfg, n, &stop);
                    }));
                }
            }
            workers.retain(|w| !w.is_finished());
        }
        self.shutdown.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().ok();
        }
        writeln!(out, "drained")?;
        Ok(())
    }
}

fn log_line(message: &str) {
    eprintln!("duop shard-serve: {message}");
}

/// Runs the daemon side of the authenticated hello. `Ok(())` means the
/// peer proved knowledge of the secret; any other outcome closes the
/// connection before a single worker-protocol frame is read.
fn authenticate(stream: &TcpStream, secret: &[u8]) -> Result<(), ProtocolError> {
    let nonce = fresh_nonce();
    let mut write_half = stream.try_clone()?;
    write_frame(&mut write_half, FRAME_CHALLENGE, &encode_challenge(&nonce))?;
    write_half.flush()?;
    stream.set_read_timeout(Some(AUTH_READ_TIMEOUT)).ok();
    let mut reader = FrameReader::new(stream.try_clone()?);
    let tag = match reader.read_frame()? {
        Some((FRAME_AUTH, payload)) => decode_auth(payload)?,
        Some((ty, _)) => {
            return Err(ProtocolError::Malformed {
                context: "auth response",
                detail: format!("expected auth frame, got type {ty:#04x}"),
            })
        }
        None => {
            return Err(ProtocolError::Malformed {
                context: "auth response",
                detail: "peer hung up before authenticating".to_owned(),
            })
        }
    };
    let expected = auth_tag(secret, &nonce);
    if !constant_time_eq(&tag, &expected) {
        return Err(ProtocolError::Malformed {
            context: "auth response",
            detail: "tag does not verify (wrong secret or replayed hello)".to_owned(),
        });
    }
    stream.set_read_timeout(None).ok();
    Ok(())
}

/// A frame-buffered writer sharing one socket with the heartbeat thread.
/// Writes accumulate in a private buffer; `flush` ships the buffer under
/// the socket mutex in one piece. The worker loop flushes exactly at
/// frame boundaries, so heartbeats never land mid-frame.
struct SharedFrameWriter {
    socket: Arc<Mutex<TcpStream>>,
    buf: Vec<u8>,
}

impl Write for SharedFrameWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut socket = self.socket.lock().unwrap();
        socket.write_all(&self.buf)?;
        socket.flush()?;
        self.buf.clear();
        Ok(())
    }
}

fn serve_connection(
    stream: TcpStream,
    peer: SocketAddr,
    cfg: &ShardServeConfig,
    conn: u64,
    stop: &Arc<AtomicBool>,
) {
    if let Err(e) = authenticate(&stream, &cfg.secret) {
        log_line(&format!("rejected {peer}: {e}"));
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    if cfg.drop_conn == Some(conn) {
        // Fault hook: a freshly-authenticated connection dies on the
        // floor — the coordinator sees an EOF where the hello should be.
        log_line(&format!("fault hook: dropping connection {conn} ({peer})"));
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    if cfg.stall_conn == Some(conn) {
        // Fault hook: the host "partitions" — stays connected, says
        // nothing. Wind down only when the daemon itself stops.
        log_line(&format!("fault hook: stalling connection {conn} ({peer})"));
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    log_line(&format!("coordinator {peer} authenticated"));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let socket = Arc::new(Mutex::new(stream));
    let writer = SharedFrameWriter {
        socket: Arc::clone(&socket),
        buf: Vec::new(),
    };
    let beat_socket = Arc::clone(&socket);
    let beating = Arc::new(AtomicBool::new(true));
    let beating_flag = Arc::clone(&beating);
    let stop_flag = Arc::clone(stop);
    let beater = std::thread::spawn(move || {
        let mut last = Instant::now();
        while beating_flag.load(Ordering::SeqCst) && !stop_flag.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            if last.elapsed() < HEARTBEAT_INTERVAL {
                continue;
            }
            last = Instant::now();
            let mut socket = beat_socket.lock().unwrap();
            if write_frame(&mut *socket, FRAME_HEARTBEAT, &[]).is_err() || socket.flush().is_err() {
                return;
            }
        }
    });
    let result = run_worker_io(read_half, writer);
    beating.store(false, Ordering::SeqCst);
    if let Ok(socket) = socket.lock() {
        let _ = socket.shutdown(Shutdown::Both);
    }
    beater.join().ok();
    match result {
        Ok(()) => log_line(&format!("coordinator {peer} finished")),
        Err(e) => log_line(&format!("connection {peer} failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_cap_with_bounded_jitter() {
        let mut b = Backoff::new(100, 800);
        let expected_nominal = [100u64, 200, 400, 800, 800, 800];
        for nominal in expected_nominal {
            let d = b.next_delay().as_millis() as u64;
            assert!(
                d >= nominal / 2 && d <= nominal,
                "delay {d}ms outside [{}, {nominal}]",
                nominal / 2
            );
        }
    }

    #[test]
    fn backoff_honors_a_retry_after_floor() {
        let mut b = Backoff::new(10, 20);
        let d = b.next_delay_at_least(5_000);
        assert_eq!(d, Duration::from_millis(5_000));
    }

    #[test]
    fn nonces_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(fresh_nonce()), "nonce repeated");
        }
    }

    #[test]
    fn secret_file_round_trip_trims_trailing_newline() {
        let dir = std::env::temp_dir().join(format!("duop-secret-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("secret");
        std::fs::write(&path, "hunter2\n").unwrap();
        assert_eq!(load_secret(path.to_str().unwrap()).unwrap(), b"hunter2");
        std::fs::write(&path, "\n \n").unwrap();
        assert!(load_secret(path.to_str().unwrap()).is_err(), "empty secret");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn authenticated_round_trip_against_a_live_daemon() {
        let server = ShardServer::bind(ShardServeConfig {
            listen: "127.0.0.1:0".to_owned(),
            secret: b"s3cret".to_vec(),
            drop_conn: None,
            stall_conn: None,
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let daemon = std::thread::spawn(move || {
            let mut out = Vec::new();
            server.run(&mut out).unwrap();
        });

        let stream = connect_remote(&addr.to_string(), b"s3cret").unwrap();
        // The daemon's worker loop sends its hello once we are in.
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        let frame = reader.read_frame().unwrap().map(|(ty, _)| ty);
        assert_eq!(frame, Some(crate::protocol::FRAME_HELLO));
        drop(reader);
        drop(stream);

        // A wrong secret is turned away before any worker frame.
        let err = connect_and_expect_hello(&addr.to_string(), b"wrong");
        assert!(err.is_err(), "wrong secret must not reach the worker loop");

        handle.shutdown();
        daemon.join().unwrap();
    }

    fn connect_and_expect_hello(addr: &str, secret: &[u8]) -> Result<(), ProtocolError> {
        let stream = connect_remote(addr, secret)?;
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut reader = FrameReader::new(stream);
        match reader.read_frame()? {
            Some((ty, _)) if ty == crate::protocol::FRAME_HELLO => Ok(()),
            Some((ty, _)) => Err(ProtocolError::Malformed {
                context: "handshake",
                detail: format!("unexpected frame {ty:#04x}"),
            }),
            None => Err(ProtocolError::Malformed {
                context: "handshake",
                detail: "hung up".to_owned(),
            }),
        }
    }
}
