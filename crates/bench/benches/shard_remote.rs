//! TCP remote workers vs local stdin/stdout workers.
//!
//! Two measurements over the same refutation-heavy batch corpus:
//!
//! * `shard_remote/*_events_per_sec` — throughput with a 2-worker pool,
//!   once as local pipe-driven processes and once as two localhost
//!   `shard-serve` daemons behind the authenticated TCP transport. The
//!   gap is the full network stack: challenge–response hello, frame
//!   CRCs, heartbeats, loopback TCP.
//! * `shard_remote/*_dispatch_ns` — mean per-task round-trip on a
//!   single-worker pool fed tiny single-component tasks whose checks
//!   cost microseconds, so the number is dominated by dispatch + wire
//!   latency, not search.
//!
//! Custom harness (no criterion): results land in `BENCH_10.json` at
//! the repository root with an honest `host_cores` field (on a
//! single-core host both transports contend with the coordinator and
//! the comparison stays fair but slow). `--test` runs a quick smoke
//! pass without touching the JSON.

use duop_core::{available_threads, SearchConfig, Verdict};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::History;
use duop_serve::ShutdownHandle;
use duop_shard::{
    run_sharded, ShardConfig, ShardCriterion, ShardJob, ShardServeConfig, ShardServer,
};
use std::net::SocketAddr;
use std::time::Instant;

const SECRET: &[u8] = b"bench-shard-remote";

/// Locates the `duop` binary whose hidden `shard-worker` mode is the
/// worker: a sibling of this bench executable (which runs from
/// `target/<profile>/deps/`).
fn worker_cmd() -> Vec<String> {
    let exe = std::env::current_exe().expect("bench executable path");
    let name = format!("duop{}", std::env::consts::EXE_SUFFIX);
    let path = exe
        .ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join(&name))
        .find(|cand| cand.is_file())
        .unwrap_or_else(|| {
            panic!(
                "no `duop` binary near {}; build the workspace first",
                exe.display()
            )
        });
    vec![
        path.to_string_lossy().into_owned(),
        "shard-worker".to_owned(),
    ]
}

fn start_daemon() -> (SocketAddr, ShutdownHandle) {
    let server = ShardServer::bind(ShardServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        secret: SECRET.to_vec(),
        drop_conn: None,
        stall_conn: None,
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

/// The adversarial batch corpus (the shard_scaling workload, smaller:
/// the comparison needs identical work per transport, not 10^6 txns).
fn batch_corpus(traces: usize, txns_per_trace: usize) -> Vec<History> {
    (0..traces)
        .map(|seed| {
            let cfg = HistoryGenConfig {
                txns: txns_per_trace,
                objs: 4,
                ops_per_txn: (1, 2),
                mode: GenMode::Adversarial,
                ..HistoryGenConfig::medium_simulated()
            };
            HistoryGen::new(cfg, seed as u64).generate()
        })
        .collect()
}

fn opacity_jobs(corpus: &[History]) -> Vec<ShardJob> {
    corpus
        .iter()
        .map(|h| ShardJob {
            history: h.clone(),
            criterion: ShardCriterion::Opacity,
        })
        .collect()
}

/// Runs `jobs` and returns elapsed ns, asserting every verdict decided.
fn timed_run(jobs: Vec<ShardJob>, cfg: &ShardConfig) -> u64 {
    let start = Instant::now();
    let verdicts = run_sharded(jobs, cfg).expect("sharded run completes");
    let ns = start.elapsed().as_nanos() as u64;
    assert!(
        verdicts
            .iter()
            .all(|v| !matches!(v, Verdict::Unknown { .. })),
        "a bench run must decide every history"
    );
    ns
}

fn local_cfg(workers: usize) -> ShardConfig {
    ShardConfig {
        workers,
        worker_cmd: worker_cmd(),
        search: SearchConfig {
            decompose: false,
            ..SearchConfig::default()
        },
        ..ShardConfig::default()
    }
}

fn remote_cfg(addrs: &[SocketAddr]) -> ShardConfig {
    ShardConfig {
        workers: 0,
        worker_cmd: worker_cmd(),
        search: SearchConfig {
            decompose: false,
            ..SearchConfig::default()
        },
        connect: addrs.iter().map(|a| a.to_string()).collect(),
        secret: SECRET.to_vec(),
        ..ShardConfig::default()
    }
}

fn events_per_sec(events: usize, ns: u64) -> u64 {
    (events as f64 / (ns as f64 / 1e9)) as u64
}

fn arg_override(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");

    let (traces, txns_per_trace) = if smoke { (12, 16) } else { (2_048, 32) };
    let traces = arg_override(&args, "--traces").unwrap_or(traces);
    let txns_per_trace = arg_override(&args, "--txns").unwrap_or(txns_per_trace);
    let corpus = batch_corpus(traces, txns_per_trace);
    let events: usize = corpus.iter().map(|h| h.events().len()).sum();
    println!(
        "shard_remote/batch: {traces} adversarial traces, {} txns, {events} events",
        traces * txns_per_trace
    );

    // Throughput: the same batch, 2 local pipe workers vs 2 TCP daemons.
    let local_ns = timed_run(opacity_jobs(&corpus), &local_cfg(2));
    let local_eps = events_per_sec(events, local_ns);
    println!(
        "shard_remote/local workers=2: {:.2}s, {local_eps} events/s",
        local_ns as f64 / 1e9
    );

    let (addr1, h1) = start_daemon();
    let (addr2, h2) = start_daemon();
    let tcp_ns = timed_run(opacity_jobs(&corpus), &remote_cfg(&[addr1, addr2]));
    let tcp_eps = events_per_sec(events, tcp_ns);
    println!(
        "shard_remote/tcp workers=2: {:.2}s, {tcp_eps} events/s",
        tcp_ns as f64 / 1e9
    );
    h1.shutdown();
    h2.shutdown();

    // Dispatch latency: tiny tasks on a 1-worker pool; per-task time is
    // protocol round-trip, not search.
    let tiny_count = if smoke { 8 } else { 256 };
    let tiny = batch_corpus(tiny_count, 4);
    let tiny_events: usize = tiny.iter().map(|h| h.events().len()).sum();
    println!("shard_remote/dispatch: {tiny_count} tiny tasks, {tiny_events} events");
    let local_dispatch_ns = timed_run(opacity_jobs(&tiny), &local_cfg(1)) / tiny_count as u64;
    let (addr, h3) = start_daemon();
    let tcp_dispatch_ns = timed_run(opacity_jobs(&tiny), &remote_cfg(&[addr])) / tiny_count as u64;
    h3.shutdown();
    println!(
        "shard_remote/dispatch local {local_dispatch_ns} ns/task, tcp {tcp_dispatch_ns} ns/task"
    );

    let host_cores = available_threads();
    // Loopback TCP with CRC framing should cost percents, not multiples:
    // a >4x throughput collapse would mean the transport serializes the
    // pool (e.g. heartbeats blocking task frames).
    assert!(
        tcp_eps as f64 >= local_eps as f64 / 4.0,
        "TCP transport collapsed throughput: {tcp_eps} vs {local_eps} events/s"
    );

    if smoke {
        println!("smoke run (--test): BENCH_10.json left untouched");
        return;
    }

    let results: Vec<(String, u64)> = vec![
        ("shard_remote/traces".to_owned(), traces as u64),
        ("shard_remote/events".to_owned(), events as u64),
        ("shard_remote/host_cores".to_owned(), host_cores as u64),
        ("shard_remote/local_events_per_sec_w2".to_owned(), local_eps),
        ("shard_remote/tcp_events_per_sec_w2".to_owned(), tcp_eps),
        ("shard_remote/dispatch_tasks".to_owned(), tiny_count as u64),
        (
            "shard_remote/local_dispatch_ns_per_task".to_owned(),
            local_dispatch_ns,
        ),
        (
            "shard_remote/tcp_dispatch_ns_per_task".to_owned(),
            tcp_dispatch_ns,
        ),
    ];
    let mut json = String::from("{\n");
    for (i, (name, v)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {v}{comma}\n"));
    }
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    std::fs::write(path, json).expect("write BENCH_10.json");
    println!("wrote {path}");
}
