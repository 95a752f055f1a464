//! Sharded multi-process checking: a component-parallel verdict
//! pipeline with a work-stealing coordinator.
//!
//! The planner ([`duop_core::plan_components`]) splits a history's
//! conflict graph into independent components; this crate ships those
//! components (or whole histories, for batch workloads and opacity) to a
//! pool of worker *processes* over a length-prefixed, CRC-guarded binary
//! protocol, then merges the per-component verdicts and witness
//! fragments back into exactly the verdict the in-process path produces.
//! Process isolation buys what in-process threads cannot: a crashing or
//! killed worker costs one component (re-queued, retried, and only after
//! the retry budget degraded to
//! [`duop_core::UnknownReason::WorkerDeath`]), never the run.
//!
//! - [`protocol`]: the wire format (`.duob`-style varints + CRC-32
//!   frames), including the challenge–response authenticated hello used
//!   on TCP.
//! - [`coordinator`]: planning, largest-first scheduling, work stealing,
//!   death handling (local crashes, host deaths, network partitions),
//!   verdict merge.
//! - [`worker`]: the frame loop run by the hidden `shard-worker` mode —
//!   transport-agnostic, so the same loop serves a pipe or a socket.
//! - [`transport`]: the TCP layer — the `duop shard-serve` worker
//!   daemon, the coordinator-side authenticated connector, and the
//!   shared jittered-backoff schedule.

#![warn(missing_docs)]

pub mod coordinator;
pub mod protocol;
pub mod transport;
pub mod worker;

pub use coordinator::{run_sharded, ShardConfig, ShardCriterion, ShardError, ShardJob};
pub use transport::{
    connect_remote, load_secret, Backoff, ShardServeConfig, ShardServer, NET_BAD_HELLO_ENV,
    NET_DROP_CONN_ENV, NET_STALL_ENV, NET_TIMEOUT_ENV,
};
pub use worker::{run_worker_io, worker_main, KILL_AFTER_HELLO_ENV, KILL_TASK_ENV};
