//! Shared accept-loop plumbing: a non-blocking listener polled against a
//! shutdown flag.
//!
//! Both network daemons in the workspace — the HTTP checking daemon
//! (`duop serve`) and the TCP shard-worker daemon (`duop shard-serve`) —
//! need the same socket skeleton: bind, go non-blocking, poll `accept`
//! every few milliseconds so SIGINT/SIGTERM (or an in-process shutdown
//! handle) can interrupt the loop — backing off while idle, so a
//! connection that follows another closely is accepted within about a
//! millisecond — and set `TCP_NODELAY` on every
//! accepted connection because both protocols are small request/ack
//! round-trips that Nagle + delayed ACK would stall ~40ms each. This
//! module owns that skeleton, and the one [`ShutdownHandle`] both daemons
//! hand out, so the two cannot drift apart.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cloneable handle that asks a running daemon to drain and stop: the
/// in-process equivalent of SIGTERM, for tests that share the
/// process-wide interrupt flag with other tests. Both `duop serve` and
/// `duop shard-serve` hand one out over the stop flag their accept loop
/// polls.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// A handle that raises `flag`, the stop flag a daemon passes to
    /// [`poll_accept`].
    pub fn new(flag: Arc<AtomicBool>) -> ShutdownHandle {
        ShutdownHandle { flag }
    }

    /// Requests a graceful drain.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

/// The longest `poll_accept` sleeps when no connection is pending — the
/// latency bound on noticing a shutdown request.
pub const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// The first sleep after an accepted connection. Each idle poll doubles
/// the sleep up to [`ACCEPT_POLL`], so a client that opens one
/// connection per request waits about this long per connection, and an
/// idle daemon wakes as rarely as with a flat [`ACCEPT_POLL`].
pub const ACCEPT_POLL_MIN: Duration = Duration::from_millis(1);

/// One turn of the accept loop.
#[derive(Debug)]
pub enum Accepted {
    /// A connection arrived (already `TCP_NODELAY`); its peer address
    /// rides along for per-client accounting.
    Conn(TcpStream, SocketAddr),
    /// Nothing pending; the poll's backoff sleep has already been taken.
    Idle,
    /// The shutdown flag (or the process-wide interrupt) was raised.
    Shutdown,
}

/// Binds `addr` and switches the socket to non-blocking mode so the
/// accept loop stays interruptible.
///
/// # Errors
///
/// Propagates the bind or `set_nonblocking` failure.
pub fn bind_nonblocking(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Polls the listener once: returns a connection, an idle tick, or a
/// shutdown notice when `stop` (or the process-wide interrupt flag) is
/// set. `idle` is the accept loop's backoff, starting at zero: an idle
/// tick doubles it within [`ACCEPT_POLL_MIN`]..=[`ACCEPT_POLL`] and
/// sleeps that long; a connection resets it to zero.
///
/// # Errors
///
/// A non-transient `accept` failure.
pub fn poll_accept(
    listener: &TcpListener,
    stop: &AtomicBool,
    idle: &mut Duration,
) -> io::Result<Accepted> {
    if stop.load(Ordering::SeqCst) || duop_core::snapshot::interrupt_requested() {
        return Ok(Accepted::Shutdown);
    }
    match listener.accept() {
        Ok((stream, peer)) => {
            *idle = Duration::ZERO;
            stream.set_nodelay(true).ok();
            Ok(Accepted::Conn(stream, peer))
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            *idle = (*idle * 2).clamp(ACCEPT_POLL_MIN, ACCEPT_POLL);
            std::thread::sleep(*idle);
            Ok(Accepted::Idle)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn idle_then_conn_then_shutdown() {
        let listener = bind_nonblocking("127.0.0.1:0").unwrap();
        let stop = AtomicBool::new(false);
        let mut idle = Duration::ZERO;
        assert!(matches!(
            poll_accept(&listener, &stop, &mut idle),
            Ok(Accepted::Idle)
        ));
        assert_eq!(idle, ACCEPT_POLL_MIN);
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        // The connection may take a poll or two to surface.
        let mut seen = false;
        for _ in 0..50 {
            if let Ok(Accepted::Conn(_, peer)) = poll_accept(&listener, &stop, &mut idle) {
                assert!(peer.ip().is_loopback());
                seen = true;
                break;
            }
        }
        assert!(seen, "the pending connection never surfaced");
        assert_eq!(idle, Duration::ZERO, "a connection resets the backoff");
        stop.store(true, Ordering::SeqCst);
        assert!(matches!(
            poll_accept(&listener, &stop, &mut idle),
            Ok(Accepted::Shutdown)
        ));
    }

    #[test]
    fn idle_backoff_doubles_up_to_the_poll_bound() {
        let listener = bind_nonblocking("127.0.0.1:0").unwrap();
        let stop = AtomicBool::new(false);
        let mut idle = Duration::ZERO;
        let mut sleeps = Vec::new();
        for _ in 0..7 {
            poll_accept(&listener, &stop, &mut idle).unwrap();
            sleeps.push(idle.as_millis());
        }
        assert_eq!(sleeps, [1, 2, 4, 8, 16, 20, 20]);
    }
}
