//! Sharded checking throughput vs worker-process count.
//!
//! Two workloads, each swept over pools of 1, 2, 4 and 8 workers:
//!
//! * `shard_scaling/batch_*` — a refutation-heavy batch: a corpus of
//!   small adversarial traces totalling ~10^6 transactions, checked for
//!   full opacity and shipped as whole-history tasks (the batch regime;
//!   opacity never decomposes). Every trace is an independent task, so
//!   the ideal speedup is linear in workers until the coordinator's
//!   encode/merge loop saturates.
//! * `shard_scaling/component_*` — one clustered history: many
//!   object-disjoint transaction clusters whose transactions all overlap
//!   in real time, so the planner decomposes it into one conflict
//!   component per cluster and the pool checks the components
//!   concurrently.
//!
//! Custom harness (no criterion): results land in `BENCH_7.json` at the
//! repository root, including a `host_cores` field — on a single-core
//! host the honest numbers are ~1x and the >=3x-at-4-workers scaling
//! assertion is gated on `available_threads() >= 4`. `--test` runs a
//! quick smoke pass without touching the JSON.

use duop_core::{available_threads, PlanCriterion, SearchConfig, Verdict};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::{Event, History, ObjId, TxnId};
use duop_shard::{run_sharded, ShardConfig, ShardCriterion, ShardJob};
use std::time::Instant;

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

/// The refutation-heavy batch corpus: small adversarial traces (a mix of
/// lint-refutable and satisfiable histories) summing to `traces *
/// txns_per_trace` transactions. `ops_max` steers per-task search cost:
/// at (1,2) many histories need a deep refutation search (tens of ms
/// each); at (1,4) the lint/planner fast paths refute most of them in
/// microseconds.
fn batch_corpus(traces: usize, txns_per_trace: usize, ops_max: usize) -> Vec<History> {
    (0..traces)
        .map(|seed| {
            let cfg = HistoryGenConfig {
                txns: txns_per_trace,
                objs: 4,
                ops_per_txn: (1, ops_max),
                mode: GenMode::Adversarial,
                ..HistoryGenConfig::medium_simulated()
            };
            HistoryGen::new(cfg, seed as u64).generate()
        })
        .collect()
}

/// One history of `clusters` object-disjoint transaction clusters in
/// which every transaction overlaps every other in real time (all first
/// events precede all last events), so the planner's conflict graph —
/// shared objects ∪ real-time edges — decomposes into exactly one
/// component per cluster.
fn clustered_history(clusters: usize, txns_per_cluster: usize, objs_per_cluster: u32) -> History {
    let relabel = |e: &Event, c: usize| {
        let txn = TxnId::new(e.txn.index() + (c * txns_per_cluster) as u32);
        let shift = |x: ObjId| ObjId::new(x.index() + c as u32 * objs_per_cluster);
        use duop_history::{EventKind, Op};
        let kind = match e.kind {
            EventKind::Inv(Op::Read(x)) => EventKind::Inv(Op::Read(shift(x))),
            EventKind::Inv(Op::Write(x, v)) => EventKind::Inv(Op::Write(shift(x), v)),
            other => other,
        };
        Event { txn, kind }
    };
    let streams: Vec<Vec<Event>> = (0..clusters)
        .map(|c| {
            let cfg = HistoryGenConfig::medium_simulated()
                .with_txns(txns_per_cluster)
                .with_objs(objs_per_cluster);
            HistoryGen::new(cfg, c as u64)
                .generate()
                .events()
                .iter()
                .map(|e| relabel(e, c))
                .collect()
        })
        .collect();
    // Two-phase merge keyed per *transaction* (only per-transaction event
    // order must be preserved for well-formedness): first every
    // transaction's opening event, then the remainders round-robin. Every
    // transaction's first event precedes every transaction's last event,
    // so no pair of transactions is real-time ordered and the planner
    // sees exactly one conflict component per cluster — a round-robin
    // merge of the raw streams would instead leave early transactions
    // real-time-before late ones, welding all clusters into a single
    // monolithic component.
    let mut queues: Vec<std::collections::VecDeque<Event>> = Vec::new();
    let mut index: std::collections::HashMap<TxnId, usize> = std::collections::HashMap::new();
    for e in streams.iter().flatten() {
        let slot = *index.entry(e.txn).or_insert_with(|| {
            queues.push(std::collections::VecDeque::new());
            queues.len() - 1
        });
        queues[slot].push_back(*e);
    }
    // A single-event (stalled) transaction spans one instant, so it would
    // be real-time ordered against almost everything; drop those.
    queues.retain(|q| q.len() >= 2);
    let total: usize = queues.iter().map(std::collections::VecDeque::len).sum();
    let mut events = Vec::with_capacity(total);
    for q in &mut queues {
        events.push(q.pop_front().expect("every transaction has events"));
    }
    while events.len() < total {
        for q in &mut queues {
            if let Some(e) = q.pop_front() {
                events.push(e);
            }
        }
    }
    History::new(events).expect("interleaved clusters stay well-formed")
}

/// Runs `jobs` on a pool of `workers` and returns (elapsed ns, violated
/// count), asserting every verdict is decided.
fn timed_run(jobs: Vec<ShardJob>, workers: usize, decompose: bool) -> (u64, usize) {
    let cfg = ShardConfig {
        workers,
        worker_cmd: worker_cmd(),
        search: SearchConfig {
            decompose,
            ..SearchConfig::default()
        },
        ..ShardConfig::default()
    };
    let start = Instant::now();
    let verdicts = run_sharded(jobs, &cfg).expect("sharded run completes");
    let ns = start.elapsed().as_nanos() as u64;
    let violated = verdicts.iter().filter(|v| v.is_violated()).count();
    assert!(
        verdicts
            .iter()
            .all(|v| !matches!(v, Verdict::Unknown { .. })),
        "a scaling run must decide every history"
    );
    (ns, violated)
}

fn events_per_sec(events: usize, ns: u64) -> u64 {
    (events as f64 / (ns as f64 / 1e9)) as u64
}

/// `--flag N` style override, for re-measuring on other hosts without
/// recompiling (e.g. `-- --traces 4096 --txns 64`).
fn arg_override(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let worker_counts = [1usize, 2, 4, 8];

    // ~10^6 transactions in the full run (21845 traces x 48 txns; at 64
    // txns per trace the adversarial tail contains instances whose
    // opacity search runs for minutes, so the full seed range is kept at
    // a size verified to stay search-bound but bounded per task).
    let (traces, txns_per_trace) = if smoke { (12, 16) } else { (21_845, 48) };
    let traces = arg_override(&args, "--traces").unwrap_or(traces);
    let txns_per_trace = arg_override(&args, "--txns").unwrap_or(txns_per_trace);
    let ops_max = arg_override(&args, "--ops-max").unwrap_or(2);
    let corpus = batch_corpus(traces, txns_per_trace, ops_max);
    let batch_txns = traces * txns_per_trace;
    let batch_events: usize = corpus.iter().map(|h| h.events().len()).sum();
    println!(
        "shard_scaling/batch: {traces} adversarial traces, {batch_txns} txns, {batch_events} events"
    );

    // Opacity (all prefixes final-state opaque) is the heavyweight
    // whole-history criterion: every task costs a real search, so worker
    // compute dominates the wire protocol and the sweep measures
    // scaling, not framing overhead.
    let mut batch_eps = Vec::new();
    for &w in &worker_counts {
        let jobs: Vec<ShardJob> = corpus
            .iter()
            .map(|h| ShardJob {
                history: h.clone(),
                criterion: ShardCriterion::Opacity,
            })
            .collect();
        let (ns, violated) = timed_run(jobs, w, false);
        let eps = events_per_sec(batch_events, ns);
        batch_eps.push(eps);
        println!(
            "shard_scaling/batch workers={w}: {:.2}s, {eps} events/s, {violated}/{traces} refuted",
            ns as f64 / 1e9
        );
    }

    let (clusters, txns_per_cluster) = if smoke { (4, 10) } else { (48, 24) };
    let clustered = clustered_history(clusters, txns_per_cluster, 6);
    let component_events = clustered.events().len();
    println!(
        "shard_scaling/component: {clusters} clusters, {} txns, {component_events} events",
        clustered.txn_count()
    );
    let mut component_eps = Vec::new();
    for &w in &worker_counts {
        let jobs = vec![ShardJob {
            history: clustered.clone(),
            criterion: ShardCriterion::Plan(PlanCriterion::Du),
        }];
        let (ns, _) = timed_run(jobs, w, true);
        let eps = events_per_sec(component_events, ns);
        component_eps.push(eps);
        println!(
            "shard_scaling/component workers={w}: {:.3}s, {eps} events/s",
            ns as f64 / 1e9
        );
    }

    let host_cores = available_threads();
    let speedup4 = batch_eps[2] as f64 / batch_eps[0] as f64;
    println!("shard_scaling: host_cores={host_cores}, batch speedup at 4 workers {speedup4:.2}x");
    if host_cores >= 4 {
        assert!(
            speedup4 >= 3.0,
            "4 workers on a >=4-core host must be >=3x one worker (got {speedup4:.2}x)"
        );
    } else {
        println!(
            "shard_scaling: {host_cores}-core host cannot demonstrate multi-worker scaling; \
             recording honest numbers, skipping the >=3x gate"
        );
    }

    if smoke {
        println!("smoke run (--test): BENCH_7.json left untouched");
        return;
    }

    let mut results: Vec<(String, u64)> = vec![
        ("shard_scaling/batch_traces".to_owned(), traces as u64),
        ("shard_scaling/batch_txns".to_owned(), batch_txns as u64),
        ("shard_scaling/batch_events".to_owned(), batch_events as u64),
        (
            "shard_scaling/component_clusters".to_owned(),
            clusters as u64,
        ),
        (
            "shard_scaling/component_events".to_owned(),
            component_events as u64,
        ),
        ("shard_scaling/host_cores".to_owned(), host_cores as u64),
        (
            "shard_scaling/batch_speedup_milli_w4".to_owned(),
            (speedup4 * 1000.0) as u64,
        ),
    ];
    for (i, &w) in worker_counts.iter().enumerate() {
        results.push((
            format!("shard_scaling/batch_events_per_sec_w{w}"),
            batch_eps[i],
        ));
        results.push((
            format!("shard_scaling/component_events_per_sec_w{w}"),
            component_eps[i],
        ));
    }
    let mut json = String::from("{\n");
    for (i, (name, v)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {v}{comma}\n"));
    }
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    std::fs::write(path, json).expect("write BENCH_7.json");
    println!("wrote {path}");
}
