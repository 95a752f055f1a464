//! `pipeline_profile`: one benchmark for the du-opacity verdict pipeline —
//! batch checking of many small histories, batch checking where search
//! dominates, checking of long traces, and streaming verdicts through
//! `duop serve` — with end-to-end metrics, a traced run that breaks the
//! time down per layer, and a correctness oracle over every verdict.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipeline_profile/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--repeat N] [--test]
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of
//! its own so that `peak_rss_mb` belongs to one workload. `--repeat N`
//! runs each N times and prints every metric's median and quartiles.
//! `--test` is a smoke run: all workloads, untraced and traced, on tiny
//! corpora, checking that every metric is printed and no verdict is wrong;
//! it writes no files.
//!
//! # Workloads
//!
//! Every generator seed is `S + i` (default `S = 0`; `S = 1000000` is held
//! out for checking claims). Each corpus is small enough that one pass
//! takes well under a run; the timed section cycles through it, so every
//! run checks the whole corpus and peak memory and the oracle see the same
//! work however fast the checker is. Before timing, each workload brings
//! the system from cold to warm on the first 5% of its corpus's events.
//!
//! * `batch-small` — 10,000 seeds × {uniform, Zipfian θ=1.2, hotspot
//!   0.25/0.9} of `small_adversarial().with_txns(6)` plus the anomaly
//!   catalogue, as `.duob` bytes. Lint, saturation and the planner decide
//!   most queries and search does little, so per-query overhead and the
//!   prefilters show here.
//! * `batch-search` — 1,000 `medium_simulated()` histories of 48
//!   transactions at concurrency 12 over 4 objects, the key distribution
//!   rotating with the generator seed. Search and planning take most of
//!   the time, with a heavy tail: the workload for search, memo and planner
//!   changes. It barely exercises lint.
//! * `long-trace` — 6 `large_streaming().with_txns(768)` traces of about
//!   6.9k events. Saturation is skipped above 512 transactions and lint
//!   grows superlinearly with trace length, so a per-stage cost that grows
//!   with history length shows here.
//! * `stream-serve` — an in-process `duop serve` on loopback with two
//!   closed-loop clients, one keep-alive connection each. A client streams
//!   a 128-transaction `medium_simulated()` trace (40 traces) as 32-event
//!   text POSTs and GETs the verdict after every second POST and at the
//!   end. This is the online path: `OnlineChecker::push` over a growing
//!   history plus a full batch re-check on every GET, with writers and
//!   readers sharing one session.
//!
//! The batch workloads make the calls `duop check --threads 1 --criterion
//! final-state --criterion du --criterion rco --criterion tms2 --criterion
//! strict` makes: `reader::read_history`, then one fresh `ResumableCheck`
//! per criterion with the default `SearchConfig`. Opacity's prefix loop,
//! the TMS2 automaton, sharding and `--threads` are out of scope.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every metric applies to every workload; for the batch workloads a
//! "trace" is one history, for `stream-serve` one whole stream. Durations
//! are scaled to a reference host speed (see [`calib`]).
//!
//! | metric | unit | batch workloads | `stream-serve` |
//! |---|---|---|---|
//! | `events_per_s` | 1/s | median over 250 ms slices of events checked per second | two clients × the median stream's events acknowledged per second |
//! | `trace_p50_ms` | ms | bytes to all five verdicts, per history | session create to final verdict, per stream |
//! | `verdict_p50_ms`, `verdict_p90_ms` | ms | one criterion check | one `GET …/verdict` |
//! | `setup_s` | s | median of three warm-ups | median of three (bind, first `201`, warm-up streams) |
//! | `peak_rss_mb` | MB | `VmHWM` of the workload's process | same |
//!
//! Throughput is a median over slices so that a rare monster history moves
//! the tail rather than the rate. The tail is p90, the highest percentile
//! every workload samples at least ten times beyond in a run. The result
//! line's `attempted` counts verdicts (batch) or HTTP requests (stream);
//! `failed` counts Unknown verdicts, non-2xx responses, ingest errors and
//! oracle rejections no recorded known failure explains.
//!
//! # Traced run (`--trace 1`)
//!
//! A separate run makes one untraced pass for a baseline, then the same
//! work again with spans recorded in memory (name, start, end, parent and
//! a request id) and written to
//! `$CARGO_TARGET_DIR/pipeline_profile/<workload>.spans.jsonl` (or under
//! `target/`). Spans are taken from outside, around calls into each
//! layer's public functions. For batch workloads each query runs the
//! stages in pipeline order, stopping at the first that decides:
//! `prelint_verdict`, `saturate`, `plan_components`, then
//! `check_criterion_with_stats` with lint and saturation off, whose search
//! self time excludes the planning it repeats; the staged verdicts must
//! match the untraced ones. For `stream-serve` the same streams go straight
//! into `Session::ingest` and `Session::verdict`, so HTTP cost is the
//! difference between request and session times. Layers a workload does
//! not exercise report 0. `trace.overhead_frac` is traced over untraced
//! time; `trace.unaccounted_frac` is the share of traced time outside every
//! layer span.
//!
//! # Oracle
//!
//! Outside the timed sections every witness must pass `check_witness`,
//! every certified refutation `check_certificate`, simulated corpora must
//! be du- and final-state-satisfied, `batch-small`'s du verdicts must match
//! `reference::check_by_enumeration` on its first 600 histories, and after
//! `stream-serve` the `/metrics` event counter must equal the events
//! acknowledged. Each disagreement prints a repro line (workload,
//! generator config, seed, criterion). Every `batch-small` run also
//! re-checks the false verdicts recorded in `bench_record.json`.
//! Disagreements of that recorded shape are counted in
//! `oracle.wrong_verdicts` but do not make the run incorrect.
//!
//! # Comparing two commits
//!
//! Build each commit's benchmark once into its own target directory, then
//! alternate the two executables for at least ten pairs per workload,
//! swapping which side runs first, and compare each metric's median and
//! quartiles (`--repeat N` prints them for one side). Claim a gain only
//! when the change wins at least nine pairs in ten and the medians differ
//! by more than the parent's own quartile spread; confirm it on the
//! held-out seed. Use the traced run to show which layer's self time
//! accounts for it.

mod batch;
mod calib;
mod oracle;
mod spans;
mod stats;
mod stream;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use stats::{median, quartiles, Report};

/// Warm-ups per run; their median is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// `--seconds` when none is given (the value `BENCHMARK.json` records).
const DEFAULT_SECONDS: f64 = 15.0;

/// The `--test` smoke run must finish within this many seconds.
const SMOKE_BUDGET_S: f64 = 15.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchSmall,
    BatchSearch,
    LongTrace,
    StreamServe,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::BatchSmall,
        Workload::BatchSearch,
        Workload::LongTrace,
        Workload::StreamServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSmall => "batch-small",
            Workload::BatchSearch => "batch-search",
            Workload::LongTrace => "long-trace",
            Workload::StreamServe => "stream-serve",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Corpus sizes: the measured ones and the `--test` smoke ones.
pub struct Sizes {
    pub small_seeds: u64,
    /// `batch-small` histories whose du verdict is checked by enumeration.
    pub enumerated: usize,
    pub search_histories: u64,
    pub long_traces: u64,
    pub long_txns: usize,
    pub stream_traces: u64,
    pub stream_txns: usize,
}

const FULL: Sizes = Sizes {
    small_seeds: 10_000,
    enumerated: 600,
    search_histories: 1_000,
    long_traces: 6,
    long_txns: 768,
    stream_traces: 40,
    stream_txns: 128,
};

/// Tiny corpora; `long_txns` stays above saturation's 512-transaction gate.
const SMOKE: Sizes = Sizes {
    small_seeds: 40,
    enumerated: 120,
    search_histories: 12,
    long_traces: 2,
    long_txns: 600,
    stream_traces: 4,
    stream_txns: 24,
};

const END_TO_END: [(&str, &str); 6] = [
    ("events_per_s", "1/s"),
    ("trace_p50_ms", "ms"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Which workloads exercise a layer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    All,
    Batch,
    Stream,
}

const PER_LAYER: [(&str, &str, Scope); 22] = [
    ("history.decode_ns_per_event", "ns", Scope::All),
    ("lint.ns_per_query", "ns", Scope::Batch),
    ("lint.decided_frac", "frac", Scope::Batch),
    ("saturate.ns_per_query", "ns", Scope::Batch),
    ("saturate.decided_frac", "frac", Scope::Batch),
    ("saturate.gated_frac", "frac", Scope::Batch),
    ("plan.ns_per_query", "ns", Scope::Batch),
    ("plan.decided_frac", "frac", Scope::Batch),
    ("plan.max_component_txns", "count", Scope::Batch),
    ("search.ns_per_query", "ns", Scope::Batch),
    ("search.states_per_query", "count", Scope::Batch),
    ("witness_check.ns_per_event", "ns", Scope::All),
    ("online.push_ns_per_event", "ns", Scope::Stream),
    ("online.incremental_hit_frac", "frac", Scope::Stream),
    ("online.full_search_frac", "frac", Scope::Stream),
    ("online.peak_retained_events", "count", Scope::Stream),
    ("serve.ingest_ns_per_event", "ns", Scope::Stream),
    ("serve.verdict_ns", "ns", Scope::Stream),
    ("serve.http_overhead_frac", "frac", Scope::Stream),
    ("trace.overhead_frac", "frac", Scope::All),
    ("trace.unaccounted_frac", "frac", Scope::All),
    ("oracle.wrong_verdicts", "count", Scope::All),
];

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    test: bool,
}

const USAGE: &str =
    "usage: pipeline_profile [--workload batch-small|batch-search|long-trace|stream-serve] \
[--seed S] [--seconds N] [--trace [0|1]] [--repeat N] [--test]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        test: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let value = |i: usize| raw.get(i + 1).ok_or(format!("{} needs a value", raw[i]));
        match raw[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                args.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                i += 1;
            }
            "--seed" => {
                args.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                args.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                i += 1;
            }
            "--trace" => {
                args.trace = true;
                match raw.get(i + 1).map(String::as_str) {
                    Some("1") => i += 1,
                    Some("0") => {
                        args.trace = false;
                        i += 1;
                    }
                    _ => {}
                }
            }
            "--repeat" => {
                args.repeat = value(i)?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
                i += 1;
            }
            "--test" => args.test = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) if args.repeat == 1 => run_in_process(w, &args),
        _ => run_children(&args),
    }
}

/// Runs one workload in this process and prints its metrics, then the
/// result line.
fn run_in_process(w: Workload, args: &Args) -> ExitCode {
    let sizes = if args.test { &SMOKE } else { &FULL };
    let (mut report, tracer) = match w {
        Workload::StreamServe => stream::run(args.seconds, args.trace, args.seed, sizes),
        _ => batch::run(w, args.seconds, args.trace, args.seed, sizes),
    };
    let expected: Vec<(&str, &str)> = if args.trace {
        let scope = if w == Workload::StreamServe {
            Scope::Stream
        } else {
            Scope::Batch
        };
        let mut reported: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let mut applies: Vec<&str> = PER_LAYER
            .iter()
            .filter(|l| l.2 == Scope::All || l.2 == scope)
            .map(|l| l.0)
            .collect();
        reported.sort_unstable();
        applies.sort_unstable();
        assert_eq!(
            reported,
            applies,
            "per-layer metrics reported for {}",
            w.name()
        );
        for (name, unit, s) in PER_LAYER {
            if s != Scope::All && s != scope {
                report.push(name, 0.0, unit);
            }
        }
        PER_LAYER.iter().map(|l| (l.0, l.1)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut ordered = Vec::new();
    for (name, unit) in &expected {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("{} did not report {name}", w.name()));
        assert_eq!(m.unit, *unit, "unit of {name}");
        ordered.push(m.clone());
    }
    assert_eq!(
        ordered.len(),
        report.metrics.len(),
        "unexpected extra metrics"
    );
    for m in &ordered {
        println!(
            "{:<13} {:<30} {:>18.6} {}",
            w.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "{:<13} oracle: {} wrong verdicts ({} known failures), {} failed of {} attempted",
        w.name(),
        report.wrong,
        report.known,
        report.failed_ops,
        report.attempted
    );
    if let (Some(tracer), false) = (tracer, args.test) {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
        let path = std::path::Path::new(&dir)
            .join("pipeline_profile")
            .join(format!("{}.spans.jsonl", w.name()));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "{}: {} spans written to {}",
                w.name(),
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("{}: cannot write {}: {e}", w.name(), path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(&report, &ordered));
    ExitCode::SUCCESS
}

fn result_line(report: &Report, metrics: &[stats::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.unexplained() == 0,
        report.attempted.max(1),
        report.failed_ops + report.unexplained(),
        body.join(",")
    )
}

/// One child process per workload run, so `peak_rss_mb` belongs to one
/// workload and no workload's heap shapes the next. `--repeat N` prints
/// each metric's median and quartiles over the N runs; `--test` runs every
/// workload untraced and traced on the smoke corpora. A child exits 0 only
/// after printing every metric of its mode (`run_in_process` asserts it),
/// so the parent checks exit codes, `correct` and the time budget.
fn run_children(args: &Args) -> ExitCode {
    let start = Instant::now();
    let exe = std::env::current_exe().expect("current executable");
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let modes: Vec<bool> = if args.test {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let seconds = if args.test { 0.3 } else { args.seconds };
    let mut ok = true;
    for w in &workloads {
        for &trace in &modes {
            let mut runs: Vec<Measured> = Vec::new();
            for _ in 0..args.repeat {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name()])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit());
                if args.test {
                    cmd.arg("--test");
                }
                let out = cmd.output().expect("spawn workload process");
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                let parsed = text.lines().last().and_then(parse_result);
                match (out.status.success(), parsed) {
                    (true, Some((correct, metrics))) => {
                        ok &= correct;
                        runs.push(metrics);
                    }
                    _ => {
                        eprintln!("{} run failed: {}", w.name(), out.status);
                        ok = false;
                    }
                }
            }
            if args.repeat > 1 && !runs.is_empty() {
                print_spread(*w, &runs);
            }
        }
    }
    if args.test {
        let elapsed = start.elapsed().as_secs_f64();
        println!("smoke run took {elapsed:.1} s (budget {SMOKE_BUDGET_S} s)");
        ok &= elapsed < SMOKE_BUDGET_S;
        println!("smoke run {}", if ok { "passed" } else { "FAILED" });
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metrics of one run as `(name, value, unit)`.
type Measured = Vec<(String, f64, String)>;

/// `(correct, metrics)` from a result line.
fn parse_result(line: &str) -> Option<(bool, Measured)> {
    use serde::Content;
    let top: Content = serde_json::from_str(line).ok()?;
    let correct = matches!(stats::field(&top, "correct")?, Content::Bool(true));
    let Content::Map(metrics) = stats::field(&top, "metrics")? else {
        return None;
    };
    let mut out = Vec::new();
    for (name, m) in metrics {
        let value = stats::number(stats::field(m, "value")?)?;
        let unit = stats::field(m, "unit")?.as_str()?.to_owned();
        out.push((name.clone(), value, unit));
    }
    Some((correct, out))
}

fn print_spread(w: Workload, runs: &[Measured]) {
    println!(
        "{} over {} runs: median [q1, q3] (IQR / median)",
        w.name(),
        runs.len()
    );
    for (name, _, unit) in &runs[0] {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|(n, _, _)| n == name).map(|m| m.1))
            .collect();
        let med = median(&values);
        let (q1, q3) = quartiles(&values);
        let spread = stats::ratio(q3 - q1, med.abs());
        println!(
            "{:<13} {:<30} {med:>18.6} [{q1:.6}, {q3:.6}] {:.2}% {unit}",
            w.name(),
            name,
            spread * 100.0
        );
    }
}
