//! Multi-host sharding equivalence and partition drills.
//!
//! The TCP transport inherits the shard pipeline's exactness contract:
//! with remote workers — alone or mixed with local ones — `run_sharded`
//! must return byte-identical verdicts to the in-process checker, and a
//! dropped connection, a stalled (partitioned) host, or an outright
//! dead daemon must cost retries, never a wrong verdict. Only when
//! every remote is gone for good may the affected verdicts degrade to
//! `unknown (worker-death)` with a partial payload.

use duop_core::{check_criterion_with_stats, PlanCriterion, SearchConfig, UnknownReason, Verdict};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::History;
use duop_serve::ShutdownHandle;
use duop_shard::{
    run_sharded, ShardConfig, ShardCriterion, ShardJob, ShardServeConfig, ShardServer,
    NET_TIMEOUT_ENV,
};
use std::net::SocketAddr;

const SECRET: &[u8] = b"remote-shard-secret";

/// The stall drill waits out the liveness timeout; keep it short but
/// comfortably above the 1s heartbeat interval so healthy connections
/// are never declared dead. Idempotent: every test sets the same value,
/// so parallel tests in this binary cannot race to different timeouts.
fn shorten_net_timeout() {
    std::env::set_var(NET_TIMEOUT_ENV, "2500");
}

fn start_daemon(drop_conn: Option<u64>, stall_conn: Option<u64>) -> (SocketAddr, ShutdownHandle) {
    let server = ShardServer::bind(ShardServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        secret: SECRET.to_vec(),
        drop_conn,
        stall_conn,
    })
    .expect("bind shard-serve");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        server.run(&mut sink).expect("daemon accept loop");
    });
    (addr, handle)
}

fn remote_config(addrs: &[SocketAddr], local_workers: usize) -> ShardConfig {
    ShardConfig {
        workers: local_workers,
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_duop").to_owned(),
            "shard-worker".to_owned(),
        ],
        connect: addrs.iter().map(|a| a.to_string()).collect(),
        secret: SECRET.to_vec(),
        ..ShardConfig::default()
    }
}

fn sample_histories() -> Vec<History> {
    let mut histories = Vec::new();
    for seed in [3, 17] {
        let cfg = HistoryGenConfig::medium_simulated().with_txns(30);
        histories.push(HistoryGen::new(cfg, seed).generate());
    }
    let cfg = HistoryGenConfig {
        txns: 20,
        objs: 4,
        mode: GenMode::Adversarial,
        ..HistoryGenConfig::medium_simulated()
    };
    histories.push(HistoryGen::new(cfg, 5).generate());
    histories
}

fn jobs(histories: &[History]) -> Vec<ShardJob> {
    histories
        .iter()
        .map(|h| ShardJob {
            history: h.clone(),
            criterion: ShardCriterion::Plan(PlanCriterion::Du),
        })
        .collect()
}

fn local_verdicts(histories: &[History]) -> Vec<Verdict> {
    // Mirror the shard pipeline's defaults explicitly: the equivalence
    // claim is against this exact in-process configuration.
    let cfg = SearchConfig {
        decompose: true,
        prelint: true,
        ladder: true,
        saturate: true,
        ..SearchConfig::default()
    };
    histories
        .iter()
        .map(|h| check_criterion_with_stats(h, PlanCriterion::Du, &cfg).0)
        .collect()
}

/// Two healthy daemons, no local workers: the remote-only pool must
/// reproduce the in-process verdicts exactly.
#[test]
fn remote_only_pool_matches_in_process_verdicts() {
    shorten_net_timeout();
    let histories = sample_histories();
    let (addr1, h1) = start_daemon(None, None);
    let (addr2, h2) = start_daemon(None, None);
    let verdicts = run_sharded(jobs(&histories), &remote_config(&[addr1, addr2], 0))
        .expect("remote-only run completes");
    assert_eq!(verdicts, local_verdicts(&histories));
    h1.shutdown();
    h2.shutdown();
}

/// Remote and local workers freely mix in one pool.
#[test]
fn mixed_local_and_remote_pool_matches_in_process_verdicts() {
    shorten_net_timeout();
    let histories = sample_histories();
    let (addr, handle) = start_daemon(None, None);
    let verdicts = run_sharded(jobs(&histories), &remote_config(&[addr], 2))
        .expect("mixed-pool run completes");
    assert_eq!(verdicts, local_verdicts(&histories));
    handle.shutdown();
}

/// A daemon that hangs up on its first authenticated connection (the
/// drop fault hook — the coordinator sees an EOF where the worker hello
/// belongs) is redialed with backoff; the second connection serves, and
/// the verdicts never notice.
#[test]
fn dropped_connection_is_redialed_and_verdicts_are_preserved() {
    shorten_net_timeout();
    let histories = sample_histories();
    let (addr, handle) = start_daemon(Some(1), None);
    let verdicts = run_sharded(jobs(&histories), &remote_config(&[addr], 0))
        .expect("run survives the dropped connection");
    assert_eq!(verdicts, local_verdicts(&histories));
    handle.shutdown();
}

/// A partitioned host — connected, authenticated, silent — must be
/// declared dead by the liveness timeout and its work re-queued on the
/// healthy daemon. Byte-identical verdicts, just later.
#[test]
fn stalled_host_is_declared_dead_and_work_requeues_elsewhere() {
    shorten_net_timeout();
    let histories = sample_histories();
    let (stalled, h1) = start_daemon(None, Some(1));
    let (healthy, h2) = start_daemon(None, None);
    let verdicts = run_sharded(jobs(&histories), &remote_config(&[stalled, healthy], 0))
        .expect("run survives the partition");
    assert_eq!(verdicts, local_verdicts(&histories));
    h1.shutdown();
    h2.shutdown();
}

/// When every remote is dead for good (here: nothing ever listened on
/// the address), the run must end — degraded to `unknown (worker-death)`
/// with a partial payload, never a wrong verdict, never a hang.
#[test]
fn all_remotes_dead_degrades_to_unknown_worker_death() {
    shorten_net_timeout();
    // Bind-then-drop reserves an address that refuses connections.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let h = HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(20), 3).generate();
    let mut cfg = remote_config(&[dead_addr], 0);
    cfg.search.prelint = false; // force a real dispatched task: the prefilters
    cfg.search.ladder = false; //  must not decide the history in-coordinator
    cfg.search.saturate = false;
    let verdicts = run_sharded(
        vec![ShardJob {
            history: h,
            criterion: ShardCriterion::Plan(PlanCriterion::Du),
        }],
        &cfg,
    )
    .expect("the run degrades instead of failing");
    match &verdicts[0] {
        Verdict::Unknown {
            reason: UnknownReason::WorkerDeath,
            partial,
            ..
        } => {
            assert!(
                partial.is_some(),
                "degraded verdict must carry a partial payload"
            );
        }
        other => panic!("expected unknown (worker-death), got {other:?}"),
    }
}
