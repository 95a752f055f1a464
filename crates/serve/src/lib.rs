//! `duop serve`: a crash-safe, overload-shedding checking daemon.
//!
//! A hand-rolled HTTP/1.1 server over `std::net` (matching the repo's
//! no-external-dependencies philosophy) multiplexes many concurrent
//! checking sessions, one [`duop_core::online::OnlineChecker`] each:
//!
//! - [`http`]: request parsing with hard limits — every malformed or
//!   oversized request degrades to a structured 4xx, never a panic.
//! - [`session`]: one session's checker, retained-event budget, sound
//!   degradation to `Unknown{partial}`, and checkpoint round-tripping.
//! - [`server`]: the accept loop — lifecycle routes, idle reaping,
//!   global `429 Retry-After` shedding, periodic checkpoints, eager
//!   `--state-dir` recovery, graceful drain, `/metrics`, and the
//!   `DUOP_SERVE_KILL_*` fault hooks that make the recovery paths
//!   testable the way the shard protocol's are.
//!
//! The robustness contract mirrors the paper's prefix-closure results:
//! violations are final (Corollary 2), so a session can compact, crash,
//! recover, and shed load without ever un-deciding a verdict; positive
//! verdicts are recomputed from the retained history, so an uncompacted
//! session's verdict is byte-identical to one-shot `duop check` on the
//! full trace — including across a kill/restart recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod listener;
pub mod server;
pub mod session;

pub use listener::ShutdownHandle;
pub use server::{
    ServeConfig, ServeError, Server, DROP_CONN_ENV, KILL_CHECKPOINT_ENV, KILL_EXIT_CODE,
    KILL_INGEST_ENV,
};
pub use session::{verdict_line, IngestReport, Session};
