//! Execution of parsed `duop` commands.

use crate::args::{Command, CriterionName, EngineName, GenModeName, USAGE};
use duop_core::online::OnlineChecker;
use duop_core::snapshot::{
    self, CheckSnapshot, CheckableCriterion, CompletedCriterion, InFlight, MonitorSnapshot,
    ResumableCheck, Snapshot,
};
use duop_core::tms2_automaton::{check_tms2_automaton_interruptible, Tms2Verdict};
use duop_core::{
    available_threads, Criterion, DuOpacity, Opacity, SearchConfig, UnknownReason, Verdict,
};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::reader::{self, TraceReader};
use duop_history::render::render_lanes;
use duop_history::trace::{format_event, format_trace, to_json};
use duop_history::{binary, dbcop, Event, History};
use duop_serve::http::{MAX_BODY_BYTES, MAX_HEADERS, MAX_HEAD_BYTES};
use std::error::Error;
use std::io::Write;
use std::time::Duration;

type CmdResult = Result<bool, Box<dyn Error>>;

/// Executes a parsed command, writing human-readable output to `out`.
///
/// Returns `Ok(true)` when everything checked was satisfied (or the
/// command does not check anything), `Ok(false)` when some criterion was
/// violated.
///
/// # Errors
///
/// I/O and parse failures are returned as boxed errors.
pub fn execute(cmd: &Command, out: &mut dyn Write) -> CmdResult {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(true)
        }
        Command::Figures => figures(out),
        Command::Litmus => litmus(out),
        Command::Render { input } => {
            let h = load(input)?;
            write!(out, "{}", render_lanes(&h))?;
            Ok(true)
        }
        Command::Convert { input, output, to } => {
            let bytes = load_bytes(input)?;
            // Names survive transcoding: a dbcop import's variable and
            // session labels ride along into the binary intern table.
            let (h, names) = reader::read_history_with_names(&bytes)?;
            let encoded: Vec<u8> = match to.as_str() {
                "json" => {
                    let mut s = to_json(&h);
                    s.push('\n');
                    s.into_bytes()
                }
                "binary" => binary::encode_with_names(&h, &names),
                "dbcop" => {
                    let mut s = dbcop::export(&h);
                    s.push('\n');
                    s.into_bytes()
                }
                _ => format_trace(&h).into_bytes(),
            };
            match output.as_deref() {
                Some(path) if path != "-" => std::fs::write(path, &encoded)?,
                _ => out.write_all(&encoded)?,
            }
            Ok(true)
        }
        Command::Check {
            input,
            criteria,
            threads,
            search,
            certify,
            retry,
            escalate_milli,
            checkpoint,
            checkpoint_every,
            format,
        } => {
            // `--threads 0` = every hardware thread; `1` = the sequential
            // engine.
            let threads = if *threads == 0 {
                available_threads()
            } else {
                *threads
            };
            let opts = CheckOpts {
                search: SearchConfig {
                    threads: Some(threads),
                    ..search.clone()
                },
                certify: *certify,
                retry: *retry,
                escalate_milli: *escalate_milli,
                checkpoint: checkpoint.clone(),
                checkpoint_every: *checkpoint_every,
                format: format.clone(),
            };
            check(&load(input)?, criteria, &opts, None, out)
        }
        Command::Shard {
            inputs,
            workers,
            criteria,
            search,
            retry,
            min_chunk,
            connect,
            secret_file,
            format,
        } => {
            let opts = ShardOpts {
                workers: *workers,
                search,
                retry: *retry,
                min_chunk: *min_chunk,
                connect: connect.clone(),
                secret_file: secret_file.clone(),
                format: format.clone(),
            };
            shard(inputs, criteria, &opts, out)
        }
        Command::ShardWorker => {
            // The worker owns the raw standard streams (they carry the
            // binary shard protocol, not human output) and reports
            // malformed input via exit code 2, like trace ingestion.
            std::process::exit(duop_shard::worker_main());
        }
        Command::ShardServe {
            listen,
            secret_file,
        } => {
            let secret = duop_shard::load_secret(secret_file)?;
            let cfg = duop_shard::ShardServeConfig::from_env(listen.clone(), secret);
            let server = duop_shard::ShardServer::bind(cfg)?;
            server.run(out)?;
            Ok(true)
        }
        Command::Fuzz {
            engine,
            faults,
            seed,
            iters,
            threads,
            objs,
            format,
            trace_out,
            trace_format,
        } => {
            let opts = FuzzOpts {
                engine: *engine,
                faults,
                seed: *seed,
                iters: *iters,
                threads: *threads,
                objs: *objs,
                format,
                trace_out: trace_out.as_deref(),
                trace_format,
            };
            fuzz(&opts, out)
        }
        Command::Certify {
            input,
            criteria,
            format,
        } => certify(&load(input)?, criteria, format, out),
        Command::Lint {
            input,
            format,
            rules,
            explain,
        } => match explain {
            // `--explain` is a registry lookup: no trace is read.
            Some(id) => explain_rule(id, out),
            None => lint(&load(input)?, format, rules, out),
        },
        Command::Graph { input } => {
            let h = load(input)?;
            let witness = DuOpacity::new().check(&h).witness().cloned();
            write!(out, "{}", duop_core::graph::to_dot(&h, witness.as_ref()))?;
            Ok(true)
        }
        Command::Localize { input } => {
            let h = load(input)?;
            let checker = DuOpacity::new();
            match duop_core::minimize::localize(&h, &checker) {
                Some(core) => {
                    writeln!(
                        out,
                        "du-opacity violated; minimized from {} events / {} transactions to {} / {}:",
                        h.len(),
                        h.txn_count(),
                        core.len(),
                        core.txn_count()
                    )?;
                    write!(out, "{}", render_lanes(&core))?;
                    if let Some(v) = checker.check(&core).violation() {
                        writeln!(out, "cause: {v}")?;
                    }
                    Ok(false)
                }
                None => {
                    writeln!(out, "du-opacity satisfied; nothing to localize")?;
                    Ok(true)
                }
            }
        }
        Command::Monitor {
            input,
            checkpoint,
            checkpoint_every,
            status_every,
            compact_every,
        } => {
            let opts = MonitorOpts {
                checkpoint: checkpoint.clone(),
                checkpoint_every: *checkpoint_every,
                status_every: *status_every,
                compact_every: *compact_every,
            };
            if opts.checkpoint.is_some() {
                // Snapshots must embed the complete event list to be
                // resumable, so the checkpointed path materialises the
                // input up front.
                monitor(&load(input)?, &opts, None, out)
            } else {
                monitor_stream(&load_bytes(input)?, &opts, out)
            }
        }
        Command::Resume { file } => resume(file, out),
        Command::Serve {
            addr,
            state_dir,
            session_cap,
            idle_timeout_secs,
            max_retained,
            session_budget,
            checkpoint_every,
            peer_rps,
        } => {
            let cfg = duop_serve::ServeConfig {
                addr: addr.clone(),
                state_dir: state_dir.clone(),
                session_cap: *session_cap,
                idle_timeout: std::time::Duration::from_secs(*idle_timeout_secs),
                max_retained: *max_retained,
                session_budget: *session_budget,
                checkpoint_every: *checkpoint_every,
                peer_rps: *peer_rps,
            };
            let server = duop_serve::Server::bind(cfg)?;
            server.run(out)?;
            Ok(true)
        }
        Command::Client {
            input,
            addr,
            session,
            chunk_events,
            body_format,
            budget,
            format,
        } => {
            let opts = ClientOpts {
                addr,
                session: *session,
                chunk_events: *chunk_events,
                body_format,
                budget: *budget,
                format,
            };
            client(input, &opts, out)
        }
        Command::Generate {
            mode,
            txns,
            objs,
            seed,
            unique,
            concurrency,
        } => {
            let cfg = HistoryGenConfig {
                txns: *txns,
                objs: *objs,
                unique_writes: *unique,
                mode: match mode {
                    GenModeName::Simulated => GenMode::Simulated,
                    GenModeName::Value => GenMode::ValueValidated,
                    GenModeName::Adversarial => GenMode::Adversarial,
                },
                ..HistoryGenConfig::medium_simulated()
            }
            .with_concurrency(*concurrency);
            let h = HistoryGen::new(cfg, *seed).generate();
            write!(out, "{}", format_trace(&h))?;
            Ok(true)
        }
    }
}

/// Reads a trace path (`-` = stdin) into raw bytes.
fn load_bytes(input: &str) -> Result<Vec<u8>, Box<dyn Error>> {
    if input == "-" {
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut std::io::stdin(), &mut buf)?;
        Ok(buf)
    } else {
        Ok(std::fs::read(input)?)
    }
}

/// Loads a trace from a path (`-` = stdin), auto-detecting the encoding
/// — line text, JSON event array, `.duob` binary, or a dbcop session
/// history — from the leading bytes.
fn load(input: &str) -> Result<History, Box<dyn Error>> {
    Ok(reader::read_history(&load_bytes(input)?)?)
}

fn all_criteria() -> Vec<CriterionName> {
    vec![
        CriterionName::FinalState,
        CriterionName::Opacity,
        CriterionName::DuOpacity,
        CriterionName::Rco,
        CriterionName::Tms2,
        CriterionName::Tms2Automaton,
        CriterionName::Strict,
    ]
}

/// Resolved `duop check` options (CLI flags or a resumed checkpoint).
struct CheckOpts {
    /// The pipeline of the first attempt, with `threads` resolved to a
    /// worker count.
    search: SearchConfig,
    certify: bool,
    retry: u64,
    escalate_milli: u64,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    format: String,
}

/// Progress carried over from a loaded check snapshot.
struct CheckResumeState {
    completed: Vec<CompletedCriterion>,
    current: Option<InFlight>,
    attempt: u64,
}

/// The CLI spelling of a criterion, used as the stable key inside
/// checkpoints (`CriterionName::parse` accepts every token).
fn criterion_token(name: CriterionName) -> &'static str {
    match name {
        CriterionName::DuOpacity => "du",
        CriterionName::FinalState => "final-state",
        CriterionName::Opacity => "opacity",
        CriterionName::Rco => "rco",
        CriterionName::Tms2 => "tms2",
        CriterionName::Tms2Automaton => "tms2-automaton",
        CriterionName::Strict => "strict",
    }
}

/// The criteria whose exact check runs through the resumable anytime
/// driver: the single serialization queries.
fn resumable_criterion(name: CriterionName) -> Option<CheckableCriterion> {
    match name {
        CriterionName::DuOpacity => Some(CheckableCriterion::DuOpacity),
        CriterionName::FinalState => Some(CheckableCriterion::FinalStateOpacity),
        CriterionName::Rco => Some(CheckableCriterion::ReadCommitOrder),
        CriterionName::Tms2 => Some(CheckableCriterion::Tms2),
        CriterionName::Strict => Some(CheckableCriterion::StrictSerializability),
        CriterionName::Opacity | CriterionName::Tms2Automaton => None,
    }
}

/// Applies `attempt` rounds of geometric escalation to a budget. Each
/// round grows the budget by at least one unit so a degenerate factor
/// (or a zero budget) still escalates; attempt 0 returns it unchanged.
fn escalated(budget: Option<u64>, escalate_milli: u64, attempt: u64) -> Option<u64> {
    budget.map(|mut b| {
        for _ in 0..attempt {
            b = (b.saturating_mul(escalate_milli) / 1000).max(b.saturating_add(1));
        }
        b
    })
}

/// Whether a verdict is an Unknown worth retrying with a bigger budget.
fn retryable(verdict: &Verdict) -> bool {
    matches!(
        verdict,
        Verdict::Unknown {
            reason: UnknownReason::StateBudget | UnknownReason::Deadline,
            ..
        }
    )
}

fn base_snapshot(h: &History, list: &[CriterionName], opts: &CheckOpts) -> CheckSnapshot {
    CheckSnapshot {
        events: h.events().to_vec(),
        criteria: list
            .iter()
            .map(|c| criterion_token(*c).to_owned())
            .collect(),
        format: opts.format.clone(),
        search: opts.search.clone(),
        retry: opts.retry,
        escalate_milli: opts.escalate_milli,
        attempt: 0,
        completed: Vec::new(),
        current: None,
    }
}

fn search_config(opts: &CheckOpts, attempt: u64) -> SearchConfig {
    // `--deadline` counts whole milliseconds, and so does escalation.
    let deadline_ms = opts.search.deadline.map(|d| d.as_millis() as u64);
    SearchConfig {
        deadline: escalated(deadline_ms, opts.escalate_milli, attempt).map(Duration::from_millis),
        max_states: escalated(opts.search.max_states, opts.escalate_milli, attempt),
        interruptible: true,
        ..opts.search.clone()
    }
}

/// Runs the full-automaton TMS2 check and renders the `ok` flag and
/// detail field of its output line, with the states explored when
/// SIGINT/SIGTERM stopped it. Shared by `check` and `shard`
/// ([`Tms2Verdict`] is not a [`Verdict`], so the shard pipeline runs
/// this criterion in the coordinator).
fn tms2_automaton_detail(h: &History, json: bool) -> (bool, String, Option<u64>) {
    let verdict = check_tms2_automaton_interruptible(h, Some(10_000_000));
    let interrupted = match verdict {
        Tms2Verdict::Unknown {
            explored,
            reason: UnknownReason::Interrupted,
        } => Some(explored),
        _ => None,
    };
    let (ok, detail) = match verdict {
        Tms2Verdict::Accepted(_) => (
            true,
            if json {
                "{\"status\":\"satisfied\"}".to_owned()
            } else {
                "accepted".to_owned()
            },
        ),
        Tms2Verdict::Rejected { explored } => (
            false,
            if json {
                format!("{{\"status\":\"violated\",\"explored\":{explored}}}")
            } else {
                format!("rejected ({explored} states)")
            },
        ),
        Tms2Verdict::Unknown {
            explored,
            reason: UnknownReason::Interrupted,
        } => (
            false,
            if json {
                format!(
                    "{{\"status\":\"unknown\",\"explored\":{explored},\"reason\":\"interrupted\"}}"
                )
            } else {
                format!("unknown (interrupted after {explored} states)")
            },
        ),
        Tms2Verdict::Unknown { explored, .. } => (
            false,
            if json {
                format!("{{\"status\":\"unknown\",\"explored\":{explored}}}")
            } else {
                format!("unknown (budget after {explored} states)")
            },
        ),
    };
    (ok, detail, interrupted)
}

fn check(
    h: &History,
    criteria: &[CriterionName],
    opts: &CheckOpts,
    resume: Option<CheckResumeState>,
    out: &mut dyn Write,
) -> CmdResult {
    let json = opts.format == "json";
    if !json {
        writeln!(out, "{}", h.stats())?;
    }
    let list = if criteria.is_empty() {
        all_criteria()
    } else {
        criteria.to_vec()
    };
    let snap_base = base_snapshot(h, &list, opts);
    let (mut completed, in_flight, resumed_attempt) = match resume {
        Some(r) => (r.completed, r.current, r.attempt),
        None => (Vec::new(), None, 0),
    };
    // Recorded lines from the interrupted run are re-emitted verbatim:
    // the resumed transcript is the uninterrupted transcript.
    let mut all_ok = true;
    for c in &completed {
        writeln!(out, "{}", c.line)?;
        all_ok &= c.ok;
    }
    for name in list {
        let token = criterion_token(name);
        if completed.iter().any(|c| c.name == token) {
            continue;
        }
        let mut attempt = match &in_flight {
            Some(f) if f.name == token => resumed_attempt,
            _ => 0,
        };
        let (label, ok, detail): (&str, bool, String) = match name {
            CriterionName::Tms2Automaton => {
                let (ok, detail, interrupted) = tms2_automaton_detail(h, json);
                if let (Some(path), Some(explored)) = (&opts.checkpoint, interrupted) {
                    // The automaton keeps no progress to resume from:
                    // leave it in flight, and `duop resume` runs it again.
                    let mut snap = snap_base.clone();
                    snap.completed = completed.clone();
                    snap.current = Some(InFlight {
                        name: token.to_owned(),
                        explored,
                        fragments: Vec::new(),
                    });
                    snapshot::save(path, &Snapshot::Check(snap))?;
                    if !json {
                        writeln!(
                            out,
                            "interrupted; progress checkpointed to {path} \
                             (continue with: duop resume {path})"
                        )?;
                    }
                    return Ok(false);
                }
                ("TMS2 (full automaton)", ok, detail)
            }
            other => {
                // One retry loop for every criterion: the serialization
                // criteria run through the anytime driver (persistent
                // component cache, checkpoint sink, fragment reuse on the
                // sequential engine), opacity through its prefix loop.
                let resumable = resumable_criterion(other);
                let mut rc = ResumableCheck::new();
                if let Some(f) = in_flight.as_ref().filter(|f| f.name == token) {
                    rc.preload(f.fragments.clone());
                }
                if let Some(path) = &opts.checkpoint {
                    let sink_snap = CheckSnapshot {
                        completed: completed.clone(),
                        attempt,
                        ..snap_base.clone()
                    };
                    let sink_path = path.clone();
                    rc.set_checkpoint_sink(
                        opts.checkpoint_every,
                        Box::new(move |fragments, explored| {
                            let mut snap = sink_snap.clone();
                            snap.current = Some(InFlight {
                                name: token.to_owned(),
                                explored,
                                fragments: fragments.to_vec(),
                            });
                            // Mid-flight flushes are best-effort; the
                            // final flush reports errors.
                            let _ = snapshot::save(&sink_path, &Snapshot::Check(snap));
                        }),
                    );
                }
                let verdict = loop {
                    let cfg = search_config(opts, attempt);
                    let verdict = match resumable {
                        Some(cc) => rc.check(h, cc, &cfg).0,
                        None => Opacity::with_config(cfg).check(h),
                    };
                    if retryable(&verdict) && attempt < opts.retry {
                        attempt += 1;
                        if !json {
                            writeln!(
                                out,
                                "{:<28} {verdict}; retrying (attempt {attempt}, budget ×{})",
                                checker_label(other),
                                (opts.escalate_milli as f64 / 1000.0),
                            )?;
                        }
                        continue;
                    }
                    break verdict;
                };
                if let (
                    Some(path),
                    Verdict::Unknown {
                        reason, explored, ..
                    },
                ) = (&opts.checkpoint, &verdict)
                {
                    // Leave the criterion in-flight with its decided
                    // fragments so `duop resume` picks it back up.
                    let mut snap = snap_base.clone();
                    snap.completed = completed.clone();
                    snap.attempt = attempt;
                    snap.current = Some(InFlight {
                        name: token.to_owned(),
                        explored: *explored,
                        fragments: rc.fragments(),
                    });
                    snapshot::save(path, &Snapshot::Check(snap))?;
                    if *reason == UnknownReason::Interrupted {
                        if !json {
                            writeln!(
                                out,
                                "interrupted; progress checkpointed to {path} \
                                 (continue with: duop resume {path})"
                            )?;
                        }
                        return Ok(false);
                    }
                }
                if opts.certify {
                    validate_certified(h, &verdict)?;
                }
                let ok = verdict.is_satisfied();
                let detail = if json {
                    serde_json::to_string(&verdict)?
                } else {
                    verdict.to_string()
                };
                (checker_label(other), ok, detail)
            }
        };
        let line = if json {
            format!("{{\"criterion\":\"{label}\",\"verdict\":{detail}}}")
        } else {
            format!("{label:<28} {detail}")
        };
        writeln!(out, "{line}")?;
        all_ok &= ok;
        completed.push(CompletedCriterion {
            name: token.to_owned(),
            ok,
            line,
        });
        if let Some(path) = &opts.checkpoint {
            let mut snap = snap_base.clone();
            snap.completed = completed.clone();
            snapshot::save(path, &Snapshot::Check(snap))?;
        }
    }
    Ok(all_ok)
}

/// `--certify`: re-runs the independent certificate validator over a
/// saturation refutation before the verdict is reported. A failure is a
/// checker bug surfaced as a hard error (exit 2), never a silent pass.
fn validate_certified(h: &History, verdict: &Verdict) -> Result<(), Box<dyn Error>> {
    if let Verdict::Violated(duop_core::Violation::Certified { certificate, .. }) = verdict {
        // The certificate speaks about the criterion-prepared history
        // (e.g. the committed projection for strict serializability).
        let prepared = certificate.criterion.prepare(h);
        duop_core::check_certificate(prepared.as_ref().unwrap_or(h), certificate)
            .map_err(|e| format!("certificate failed independent validation: {e}"))?;
    }
    Ok(())
}

/// Maps the CLI criteria to the saturable [`duop_core::PlanCriterion`]s
/// `duop certify` runs (empty = all five, in check order).
fn certify_list(
    criteria: &[CriterionName],
) -> Result<Vec<duop_core::PlanCriterion>, Box<dyn Error>> {
    use duop_core::PlanCriterion;
    if criteria.is_empty() {
        return Ok(vec![
            PlanCriterion::FinalState,
            PlanCriterion::Du,
            PlanCriterion::Rco,
            PlanCriterion::Tms2,
            PlanCriterion::Strict,
        ]);
    }
    criteria
        .iter()
        .map(|c| match c {
            CriterionName::DuOpacity => Ok(PlanCriterion::Du),
            CriterionName::FinalState => Ok(PlanCriterion::FinalState),
            CriterionName::Rco => Ok(PlanCriterion::Rco),
            CriterionName::Tms2 => Ok(PlanCriterion::Tms2),
            CriterionName::Strict => Ok(PlanCriterion::Strict),
            CriterionName::Opacity | CriterionName::Tms2Automaton => {
                Err(Box::new(crate::args::ParseError(format!(
                    "certify supports the saturable criteria only \
                     (final-state, du, rco, tms2, strict), not `{}`",
                    criterion_token(*c)
                ))) as Box<dyn Error>)
            }
        })
        .collect()
}

/// Executes `duop certify`: the saturation pass alone, per criterion.
/// Every refutation's certificate is re-validated by the independent
/// checker before being printed; a fully-determined history prints its
/// witness; everything else is `inconclusive` (not a failure — the exit
/// code only reflects certified refutations).
fn certify(
    h: &History,
    criteria: &[CriterionName],
    format: &str,
    out: &mut dyn Write,
) -> CmdResult {
    use duop_core::SaturationOutcome;
    use serde::Serialize as _;
    let json = format == "json";
    if !json {
        writeln!(out, "{}", h.stats())?;
    }
    let mut all_ok = true;
    for criterion in certify_list(criteria)? {
        let label = criterion.display_name();
        match duop_core::saturate(h, criterion) {
            SaturationOutcome::Refuted(cert) => {
                let prepared = criterion.prepare(h);
                duop_core::check_certificate(prepared.as_ref().unwrap_or(h), &cert).map_err(
                    |e| format!("{label}: certificate failed independent validation: {e}"),
                )?;
                all_ok = false;
                if json {
                    let obj = serde::Content::Map(vec![
                        ("criterion".into(), serde::Content::Str(label.into())),
                        ("status".into(), serde::Content::Str("violated".into())),
                        ("certificate".into(), cert.to_content()),
                        ("validated".into(), serde::Content::Bool(true)),
                    ]);
                    writeln!(out, "{}", serde_json::to_string(&obj)?)?;
                } else {
                    writeln!(out, "{label:<28} violated: {cert}")?;
                    writeln!(
                        out,
                        "{:<28} certificate: {} steps, cycle of {}; independently validated",
                        "",
                        cert.steps.len(),
                        cert.cycle.len()
                    )?;
                }
            }
            SaturationOutcome::Decided(w) => {
                if json {
                    let obj = serde::Content::Map(vec![
                        ("criterion".into(), serde::Content::Str(label.into())),
                        ("status".into(), serde::Content::Str("satisfied".into())),
                        ("witness".into(), w.to_content()),
                    ]);
                    writeln!(out, "{}", serde_json::to_string(&obj)?)?;
                } else {
                    writeln!(out, "{label:<28} satisfied (saturation-determined witness)")?;
                }
            }
            SaturationOutcome::Inconclusive => {
                if json {
                    writeln!(
                        out,
                        "{{\"criterion\":\"{label}\",\"status\":\"inconclusive\"}}"
                    )?;
                } else {
                    writeln!(
                        out,
                        "{label:<28} inconclusive (saturation abstains; run `duop check`)"
                    )?;
                }
            }
        }
    }
    Ok(all_ok)
}

/// Executes `duop lint --explain RULE-ID`: the registry entry's paper
/// grounding and a minimal example trace that fires the rule.
fn explain_rule(id: &str, out: &mut dyn Write) -> CmdResult {
    let known = duop_core::lint::rules();
    let Some(rule) = known.iter().find(|r| r.id == id) else {
        return Err(Box::new(crate::args::ParseError(format!(
            "unknown lint rule `{id}` (known: {})",
            known.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
        ))));
    };
    writeln!(out, "{}: {}", rule.id, rule.title)?;
    writeln!(out)?;
    writeln!(out, "{}", rule.summary)?;
    writeln!(out)?;
    writeln!(out, "Paper grounding: {}", rule.paper)?;
    writeln!(out)?;
    writeln!(out, "Minimal example (fires the rule):")?;
    for line in rule.example.lines() {
        writeln!(out, "  {line}")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Replay: save the trace and run `duop lint <file> --rule {}`",
        rule.id
    )?;
    Ok(true)
}

/// Resolved `duop shard` options.
struct ShardOpts<'a> {
    workers: usize,
    search: &'a SearchConfig,
    retry: u64,
    min_chunk: usize,
    connect: Vec<String>,
    secret_file: Option<String>,
    format: String,
}

/// Executes `duop shard`: plans every (input, criterion) pair into one
/// batch of jobs, checks them across a pool of worker processes, and
/// prints per input exactly the transcript `duop check` prints — stats
/// line, one line per criterion, same exit semantics. The
/// tms2-automaton criterion runs in the coordinator (its verdict type
/// does not cross the wire).
fn shard(
    inputs: &[String],
    criteria: &[CriterionName],
    opts: &ShardOpts<'_>,
    out: &mut dyn Write,
) -> CmdResult {
    let json = opts.format == "json";
    let list = if criteria.is_empty() {
        all_criteria()
    } else {
        criteria.to_vec()
    };
    let histories = inputs
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let exe = std::env::current_exe()?;
    let secret = match &opts.secret_file {
        Some(path) => duop_shard::load_secret(path)?,
        None => Vec::new(),
    };
    let cfg = duop_shard::ShardConfig {
        // With remote workers in the pool, `--workers 0` means "no
        // local workers", not "all hardware threads".
        workers: if opts.workers == 0 && opts.connect.is_empty() {
            available_threads()
        } else {
            opts.workers
        },
        worker_cmd: vec![
            exe.to_string_lossy().into_owned(),
            "shard-worker".to_owned(),
        ],
        search: opts.search.clone(),
        retry: opts.retry,
        min_task_txns: opts.min_chunk,
        connect: opts.connect.clone(),
        secret,
        ..duop_shard::ShardConfig::default()
    };
    // One flat job list over all (input, criterion) pairs: the whole
    // batch shares the worker pool, so a small trace's components fill
    // the idle slots while a big one is still being planned.
    let mut jobs = Vec::new();
    let mut job_index: Vec<Vec<Option<usize>>> = Vec::with_capacity(histories.len());
    for h in &histories {
        let mut per_criterion = Vec::with_capacity(list.len());
        for name in &list {
            match duop_shard::ShardCriterion::parse(criterion_token(*name)) {
                Some(criterion) => {
                    per_criterion.push(Some(jobs.len()));
                    jobs.push(duop_shard::ShardJob {
                        history: h.clone(),
                        criterion,
                    });
                }
                None => per_criterion.push(None),
            }
        }
        job_index.push(per_criterion);
    }
    let verdicts = duop_shard::run_sharded(jobs, &cfg)?;
    let mut all_ok = true;
    for (h, per_criterion) in histories.iter().zip(&job_index) {
        if !json {
            writeln!(out, "{}", h.stats())?;
        }
        for (name, job) in list.iter().zip(per_criterion) {
            let (label, ok, detail) = match job {
                None => {
                    let (ok, detail, _) = tms2_automaton_detail(h, json);
                    ("TMS2 (full automaton)", ok, detail)
                }
                Some(j) => {
                    let verdict = &verdicts[*j];
                    let detail = if json {
                        serde_json::to_string(verdict)?
                    } else {
                        verdict.to_string()
                    };
                    (checker_label(*name), verdict.is_satisfied(), detail)
                }
            };
            if json {
                writeln!(out, "{{\"criterion\":\"{label}\",\"verdict\":{detail}}}")?;
            } else {
                writeln!(out, "{label:<28} {detail}")?;
            }
            all_ok &= ok;
        }
    }
    Ok(all_ok)
}

/// Executes `duop resume`: loads and verifies the snapshot, then
/// continues the recorded run to its verdict.
fn resume(file: &str, out: &mut dyn Write) -> CmdResult {
    match snapshot::load(file)? {
        Snapshot::Check(cs) => resume_check(cs, file, out),
        Snapshot::Monitor(ms) => resume_monitor(ms, file, out),
        Snapshot::Session(ss) => resume_session(ss, file, out),
    }
}

/// Resumes a daemon session checkpoint offline: rebuilds the session
/// (revalidating history and witness, re-deriving any violation) and
/// reports its verdict — the same one the daemon would serve after
/// recovering the checkpoint with `duop serve --state-dir`.
fn resume_session(ss: snapshot::SessionSnapshot, file: &str, out: &mut dyn Write) -> CmdResult {
    let sid = ss.session;
    let ingested = ss.ingested;
    let mut session = duop_serve::Session::resume(ss)?;
    writeln!(
        out,
        "resumed session {sid} from {file}: {ingested} events acknowledged, \
         {} retained{}",
        session.retained(),
        if session.degraded() {
            " (degraded)"
        } else {
            ""
        }
    )?;
    let line = duop_serve::verdict_line(&session.verdict(), false);
    write!(out, "{line}")?;
    Ok(line.contains("satisfied"))
}

fn resume_check(cs: CheckSnapshot, file: &str, out: &mut dyn Write) -> CmdResult {
    let h = History::new(cs.events.clone())?;
    let criteria: Vec<CriterionName> = cs
        .criteria
        .iter()
        .map(|tok| CriterionName::parse(tok))
        .collect::<Result<_, _>>()?;
    let opts = CheckOpts {
        search: cs.search,
        // `--certify` is a per-invocation display/validation choice, not
        // part of the resumable run state.
        certify: false,
        retry: cs.retry,
        escalate_milli: cs.escalate_milli,
        checkpoint: Some(file.to_owned()),
        checkpoint_every: 4096,
        format: cs.format.clone(),
    };
    let resume_state = CheckResumeState {
        completed: cs.completed,
        current: cs.current,
        attempt: cs.attempt,
    };
    check(&h, &criteria, &opts, Some(resume_state), out)
}

/// `duop fuzz` options.
struct FuzzOpts<'a> {
    engine: EngineName,
    faults: &'a str,
    seed: u64,
    iters: usize,
    threads: usize,
    objs: u32,
    format: &'a str,
    /// Write the shrunk counterexample trace here on a finding.
    trace_out: Option<&'a str>,
    /// Encoding for `trace_out`: `text` or `binary`.
    trace_format: &'a str,
}

/// Runs `iters` fault-injected workloads against the named engine and
/// checks every recorded history for du-opacity. The first violating
/// history is shrunk to a minimal core and rendered with its seed so the
/// run replays exactly; `Ok(false)` on a finding.
fn fuzz(opts: &FuzzOpts<'_>, out: &mut dyn Write) -> CmdResult {
    let &FuzzOpts {
        engine,
        faults,
        seed,
        iters,
        threads,
        objs,
        format,
        trace_out,
        trace_format,
    } = opts;
    let json = format == "json";
    use duop_stm::{engines, run_workload_faulted, Engine, FaultPlan, WorkloadConfig};
    let plan = FaultPlan::parse(faults)?;
    // A fresh engine per iteration: leaked state from a crashed run must
    // not contaminate the next seed's history.
    let make: fn(u32) -> Box<dyn Engine> = match engine {
        EngineName::Tl2 => |n| Box::new(engines::Tl2::new(n)),
        EngineName::NoRec => |n| Box::new(engines::NoRec::new(n)),
        EngineName::Dstm => |n| Box::new(engines::Dstm::new(n)),
        EngineName::TwoPl => |n| Box::new(engines::Eager2Pl::new(n)),
        EngineName::Pessimistic => |n| Box::new(engines::Pessimistic::new(n)),
        EngineName::Dirty => |n| Box::new(engines::DirtyRead::new(n)),
    };
    let checker = DuOpacity::new();
    let mut crashed = 0usize;
    let mut aborted = 0usize;
    let mut undecided = 0usize;
    for iter in 0..iters {
        let iter_seed = seed.wrapping_add(iter as u64);
        let engine_instance = make(objs);
        let cfg = WorkloadConfig {
            threads,
            seed: iter_seed,
            ..WorkloadConfig::default()
        };
        let (h, stats) =
            run_workload_faulted(engine_instance.as_ref(), &cfg, &plan.with_seed(iter_seed));
        crashed += stats.crashed;
        aborted += stats.aborted;
        let verdict = checker.check(&h);
        if verdict.is_violated() {
            let core = duop_core::minimize::localize(&h, &checker).unwrap_or_else(|| h.clone());
            let replay = format!(
                "duop fuzz --engine {} --faults {faults} --seed {iter_seed} \
                 --iters 1 --threads {threads} --objs {objs}",
                engine_label(engine)
            );
            if let Some(path) = trace_out {
                let encoded = if trace_format == "binary" {
                    binary::encode(&core)
                } else {
                    format_trace(&core).into_bytes()
                };
                std::fs::write(path, &encoded)?;
            }
            if json {
                use serde::{Content, Serialize as _};
                let finding = Content::Map(vec![
                    ("status".into(), Content::Str("finding".into())),
                    ("iteration".into(), Content::U64(iter as u64)),
                    ("seed".into(), Content::U64(iter_seed)),
                    (
                        "engine".into(),
                        Content::Str(engine_label(engine).to_owned()),
                    ),
                    ("events".into(), Content::U64(h.len() as u64)),
                    ("txns".into(), Content::U64(h.txn_count() as u64)),
                    ("crashed".into(), Content::U64(stats.crashed as u64)),
                    ("minimized_events".into(), Content::U64(core.len() as u64)),
                    (
                        "minimized_txns".into(),
                        Content::U64(core.txn_count() as u64),
                    ),
                    ("trace".into(), core.events().to_vec().to_content()),
                    ("verdict".into(), checker.check(&core).to_content()),
                    ("replay".into(), Content::Str(replay)),
                ]);
                let finding = match trace_out {
                    Some(path) => match finding {
                        Content::Map(mut m) => {
                            m.push(("trace_file".into(), Content::Str(path.to_owned())));
                            m.push(("trace_format".into(), Content::Str(trace_format.to_owned())));
                            Content::Map(m)
                        }
                        other => other,
                    },
                    None => finding,
                };
                writeln!(out, "{}", serde_json::to_string(&finding)?)?;
            } else {
                writeln!(
                    out,
                    "iteration {iter} (seed {iter_seed}): {} produced a non-du-opaque history \
                     ({} events, {} transactions, {} crashed)",
                    engine_instance.name(),
                    h.len(),
                    h.txn_count(),
                    stats.crashed
                )?;
                writeln!(
                    out,
                    "minimized to {} events / {} transactions:",
                    core.len(),
                    core.txn_count()
                )?;
                write!(out, "{}", render_lanes(&core))?;
                if let Some(v) = checker.check(&core).violation() {
                    writeln!(out, "cause: {v}")?;
                }
                writeln!(out, "replay: {replay}")?;
                if let Some(path) = trace_out {
                    writeln!(
                        out,
                        "trace written to {path} ({trace_format}); \
                         replay with: duop check {path}"
                    )?;
                }
            }
            return Ok(false);
        }
        if matches!(verdict, duop_core::Verdict::Unknown { .. }) {
            undecided += 1;
            if json {
                writeln!(
                    out,
                    "{{\"status\":\"undecided\",\"iteration\":{iter},\"seed\":{iter_seed}}}"
                )?;
            } else {
                writeln!(
                    out,
                    "iteration {iter} (seed {iter_seed}): verdict undecided: {verdict}"
                )?;
            }
        }
    }
    if json {
        writeln!(
            out,
            "{{\"status\":\"clean\",\"engine\":\"{}\",\"iters\":{iters},\"aborted\":{aborted},\
             \"crashed\":{crashed},\"undecided\":{undecided}}}",
            engine_label(engine)
        )?;
    } else {
        writeln!(
            out,
            "{iters} iterations on {}: all histories du-opaque \
             ({aborted} aborted, {crashed} crashed attempts, {undecided} undecided)",
            engine_label(engine)
        )?;
    }
    Ok(true)
}

fn engine_label(name: EngineName) -> &'static str {
    match name {
        EngineName::Tl2 => "tl2",
        EngineName::NoRec => "norec",
        EngineName::Dstm => "dstm",
        EngineName::TwoPl => "2pl",
        EngineName::Pessimistic => "pessimistic",
        EngineName::Dirty => "dirty",
    }
}

/// Runs the lint pipeline and prints diagnostics; `Ok(false)` when an
/// `Error`-severity diagnostic (after `--rule` filtering) fired.
fn lint(h: &History, format: &str, rules: &[String], out: &mut dyn Write) -> CmdResult {
    use serde::Serialize as _;
    let known = duop_core::lint::rules();
    for id in rules {
        if !known.iter().any(|r| r.id == id) {
            return Err(Box::new(crate::args::ParseError(format!(
                "unknown lint rule `{id}` (known: {})",
                known.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
            ))));
        }
    }
    let report = duop_core::lint::lint(h);
    let selected: Vec<&duop_core::lint::Diagnostic> = report
        .diagnostics()
        .iter()
        .filter(|d| rules.is_empty() || rules.iter().any(|id| id == d.rule))
        .collect();
    let errors = selected
        .iter()
        .filter(|d| d.severity == duop_core::lint::Severity::Error)
        .count();
    if format == "json" {
        let content = serde::Content::Map(vec![
            (
                "diagnostics".into(),
                serde::Content::Seq(selected.iter().map(|d| d.to_content()).collect()),
            ),
            ("errors".into(), serde::Content::U64(errors as u64)),
        ]);
        writeln!(out, "{}", serde_json::to_string(&content)?)?;
    } else {
        for d in &selected {
            writeln!(out, "{d}")?;
            writeln!(out, "  at {}", d.primary)?;
            for sp in &d.secondary {
                writeln!(out, "  with {sp}")?;
            }
        }
        let warnings = selected
            .iter()
            .filter(|d| d.severity == duop_core::lint::Severity::Warning)
            .count();
        let notes = selected.len() - errors - warnings;
        writeln!(
            out,
            "{} diagnostics: {errors} errors, {warnings} warnings, {notes} notes",
            selected.len()
        )?;
    }
    Ok(errors == 0)
}

fn checker_label(name: CriterionName) -> &'static str {
    match name {
        CriterionName::DuOpacity => "du-opacity",
        CriterionName::FinalState => "final-state opacity",
        CriterionName::Opacity => "opacity",
        CriterionName::Rco => "read-commit-order opacity",
        CriterionName::Tms2 => "TMS2 (informal rendering)",
        CriterionName::Tms2Automaton => "TMS2 (full automaton)",
        CriterionName::Strict => "strict serializability",
    }
}

/// `duop monitor` options.
struct MonitorOpts {
    checkpoint: Option<String>,
    checkpoint_every: u64,
    status_every: u64,
    compact_every: Option<u64>,
}

/// Prints the per-event monitor line, tracking the first violation.
fn report_event(
    i: usize,
    ev: &Event,
    verdict: &Verdict,
    ok: &mut bool,
    violated_at: &mut Option<u64>,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    if verdict.is_satisfied() {
        writeln!(out, "event {i:>3}: {ev:<14} ok")?;
    } else {
        if *ok {
            *violated_at = Some(i as u64);
        }
        *ok = false;
        writeln!(out, "event {i:>3}: {ev:<14} VIOLATION")?;
        if let Some(v) = verdict.violation() {
            writeln!(out, "            {v}")?;
        }
    }
    Ok(())
}

/// Prints the `--status-every` JSON line.
fn status_line(i: usize, mon: &OnlineChecker, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use serde::Serialize as _;
    writeln!(
        out,
        "{{\"event\":{i},\"stats\":{}}}",
        serde_json::to_string(&mon.stats().to_content())?
    )?;
    Ok(())
}

/// Prints the end-of-run statistics summary.
fn monitor_summary(mon: &OnlineChecker, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let stats = mon.stats();
    writeln!(
        out,
        "{} events; {} witness reuses; {} full searches; {} component reuses; \
         {} lint refutations; {} retained events (peak {})",
        stats.events,
        stats.incremental_hits,
        stats.full_searches,
        stats.component_reuses,
        stats.lint_refutations,
        stats.retained_events,
        stats.peak_resident_events
    )?;
    if stats.compactions > 0 {
        writeln!(
            out,
            "{} compactions dropped {} events",
            stats.compactions, stats.compacted_events
        )?;
    }
    Ok(())
}

/// The streaming monitor: decodes events off the raw trace bytes one at a
/// time (text and binary formats never materialise the event vector) and
/// feeds them straight into the online checker, so the resident set is
/// the checker's retained history — which `--compact-every` bounds — not
/// the input. Checkpointing needs the full event list and takes the
/// eager [`monitor`] path instead.
fn monitor_stream(bytes: &[u8], opts: &MonitorOpts, out: &mut dyn Write) -> CmdResult {
    let mut reader = TraceReader::new(bytes)?;
    let mut mon = OnlineChecker::new();
    mon.set_compact_every(opts.compact_every.map(|n| n as usize));
    let mut ok = true;
    let mut violated_at = None;
    let mut i = 0usize;
    while let Some(ev) = reader.next_event()? {
        if duop_core::snapshot::interrupt_requested() {
            writeln!(out, "interrupted after {i} events")?;
            return Ok(false);
        }
        let verdict = mon.push(ev)?;
        report_event(i, &ev, &verdict, &mut ok, &mut violated_at, out)?;
        i += 1;
        if opts.status_every > 0 && (i as u64).is_multiple_of(opts.status_every) {
            status_line(i - 1, &mon, out)?;
        }
    }
    monitor_summary(&mon, out)?;
    Ok(ok)
}

fn monitor_snapshot(
    h: &History,
    done: u64,
    violated_at: Option<u64>,
    mon: &OnlineChecker,
    opts: &MonitorOpts,
) -> MonitorSnapshot {
    MonitorSnapshot {
        events: h.events().to_vec(),
        done,
        violated_at,
        witness: mon.witness().cloned(),
        stats: mon.stats(),
        fragments: mon.export_fragments(),
        status_every: opts.status_every,
        checkpoint_every: opts.checkpoint_every,
    }
}

fn monitor(
    h: &History,
    opts: &MonitorOpts,
    resume_from: Option<(OnlineChecker, u64, Option<u64>)>,
    out: &mut dyn Write,
) -> CmdResult {
    let (mut mon, start, mut violated_at) = match resume_from {
        Some((mon, done, violated_at)) => (mon, done as usize, violated_at),
        None => (OnlineChecker::new(), 0, None),
    };
    let mut ok = violated_at.is_none();
    for (i, ev) in h.events().iter().enumerate().skip(start) {
        if duop_core::snapshot::interrupt_requested() {
            if let Some(path) = &opts.checkpoint {
                let snap = monitor_snapshot(h, i as u64, violated_at, &mon, opts);
                snapshot::save(path, &Snapshot::Monitor(snap))?;
                writeln!(
                    out,
                    "interrupted after {i} events; progress checkpointed to {path} \
                     (continue with: duop resume {path})"
                )?;
            } else {
                writeln!(out, "interrupted after {i} events")?;
            }
            return Ok(false);
        }
        let verdict = mon.push(*ev)?;
        report_event(i, ev, &verdict, &mut ok, &mut violated_at, out)?;
        let done = (i + 1) as u64;
        if opts.status_every > 0 && done.is_multiple_of(opts.status_every) {
            status_line(i, &mon, out)?;
        }
        if let Some(path) = &opts.checkpoint {
            if done.is_multiple_of(opts.checkpoint_every) {
                let snap = monitor_snapshot(h, done, violated_at, &mon, opts);
                snapshot::save(path, &Snapshot::Monitor(snap))?;
            }
        }
    }
    if let Some(path) = &opts.checkpoint {
        let snap = monitor_snapshot(h, h.len() as u64, violated_at, &mon, opts);
        snapshot::save(path, &Snapshot::Monitor(snap))?;
    }
    monitor_summary(&mon, out)?;
    Ok(ok)
}

fn resume_monitor(ms: MonitorSnapshot, file: &str, out: &mut dyn Write) -> CmdResult {
    let h = History::new(ms.events.clone())?;
    let done = (ms.done as usize).min(h.len());
    let prefix = h.prefix(done);
    // The snapshot records only *where* a violation was seen, never the
    // verdict itself: re-deriving it from the prefix means a tampered or
    // stale checkpoint can cost a recheck but cannot forge a verdict.
    // Violations are prefix-final (Corollary 2), so checking the whole
    // done-prefix rediscovers any recorded one.
    let recorded = ms.violated_at;
    let mut mon = OnlineChecker::resume(
        prefix,
        ms.witness.clone(),
        |prefix| {
            recorded
                .is_some()
                .then(|| DuOpacity::new().check(prefix))
                .filter(Verdict::is_violated)
        },
        ms.stats,
        SearchConfig::default(),
    );
    let violated_at = mon.violation().is_some().then(|| recorded.unwrap_or(0));
    mon.preload_fragments(ms.fragments);
    writeln!(
        out,
        "resuming monitor at event {done} of {} from {file}",
        h.len()
    )?;
    let opts = MonitorOpts {
        checkpoint: Some(file.to_owned()),
        checkpoint_every: ms.checkpoint_every.max(1),
        status_every: ms.status_every,
        compact_every: None,
    };
    monitor(&h, &opts, Some((mon, done as u64, violated_at)), out)
}

struct ClientOpts<'a> {
    addr: &'a str,
    session: Option<u64>,
    chunk_events: u64,
    body_format: &'a str,
    budget: Option<u64>,
    format: &'a str,
}

/// One HTTP/1.1 exchange over a fresh connection (`Connection: close`),
/// returning the status code and body. Small by design: the client only
/// needs request/response, not keep-alive or chunked bodies.
fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> Result<(u16, Vec<u8>), Box<dyn Error>> {
    let (status, _, payload) = http_request_full(addr, method, path, body)?;
    Ok((status, payload))
}

/// Status code, `Retry-After` seconds (when the daemon sent one), body.
type HttpResponse = (u16, Option<u64>, Vec<u8>);

/// Like [`http_request`], additionally surfacing the `Retry-After`
/// header (seconds) so 429 handling can honor the daemon's hint.
///
/// The response is held to the limits the daemon puts on a request
/// ([`MAX_HEAD_BYTES`], [`MAX_HEADERS`], [`MAX_BODY_BYTES`]): a peer that
/// sends more is an error, never an unbounded allocation.
fn http_request_full(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> Result<HttpResponse, Box<dyn Error>> {
    use std::io::{BufReader, Read};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some((ctype, b)) = body {
        head.push_str(&format!(
            "Content-Type: {ctype}\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some((_, b)) = body {
        stream.write_all(b)?;
    }
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut head_reader = (&mut reader).take(MAX_HEAD_BYTES as u64);
    let mut status_line = String::new();
    read_head_line(&mut head_reader, &mut status_line)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed HTTP status line `{}`", status_line.trim_end()))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    let mut headers = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if read_head_line(&mut head_reader, &mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(format!("HTTP response has more than {MAX_HEADERS} headers").into());
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let mut payload = Vec::new();
    match content_length {
        Some(n) if n > MAX_BODY_BYTES => {
            return Err(format!(
                "HTTP response declares a {n}-byte body, over the {MAX_BODY_BYTES}-byte limit"
            )
            .into());
        }
        Some(n) => {
            payload.resize(n, 0);
            reader.read_exact(&mut payload)?;
        }
        None => {
            reader
                .take(MAX_BODY_BYTES as u64 + 1)
                .read_to_end(&mut payload)?;
            if payload.len() > MAX_BODY_BYTES {
                return Err(
                    format!("HTTP response body exceeds the {MAX_BODY_BYTES}-byte limit").into(),
                );
            }
        }
    }
    Ok((status, retry_after, payload))
}

/// Appends one line of a response head to `line`, returning the bytes
/// read (`0` at end of stream). `head` holds what is left of the head's
/// byte budget; a line it cuts off is an error.
fn read_head_line<R: std::io::BufRead>(
    head: &mut std::io::Take<R>,
    line: &mut String,
) -> Result<usize, Box<dyn Error>> {
    let n = std::io::BufRead::read_line(head, line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(format!("HTTP response head exceeds {MAX_HEAD_BYTES} bytes").into());
    }
    Ok(n)
}

/// Extracts the unsigned integer value of `"field":N` from a flat JSON
/// body (the daemon's responses are all flat objects).
fn json_u64_field(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = &body[body.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Posts one events body, retrying on `429 Retry-After` (the daemon
/// sheds under its retained-event ceiling or per-peer rate limit;
/// compaction, reaping, or the next window clears it) with the same
/// capped-exponential-jittered schedule the shard coordinator uses to
/// reconnect remote workers — never sooner than the daemon's
/// `Retry-After` hint.
fn post_events(
    addr: &str,
    sid: u64,
    ctype: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), Box<dyn Error>> {
    let path = format!("/v1/session/{sid}/events");
    let mut backoff = duop_shard::Backoff::new(100, 5_000);
    for _ in 0..50 {
        let (status, retry_after, resp) =
            http_request_full(addr, "POST", &path, Some((ctype, body)))?;
        if status != 429 {
            return Ok((status, resp));
        }
        let delay = match retry_after {
            Some(secs) => backoff.next_delay_at_least(secs.saturating_mul(1_000)),
            None => backoff.next_delay(),
        };
        std::thread::sleep(delay);
    }
    Err("daemon kept shedding (429) after 50 retries".into())
}

fn client(input: &str, opts: &ClientOpts<'_>, out: &mut dyn Write) -> CmdResult {
    let bytes = load_bytes(input)?;
    let mut rd = TraceReader::new(&bytes)?;
    let mut events = Vec::new();
    while let Some(ev) = rd.next_event()? {
        events.push(ev);
    }
    let sid = match opts.session {
        Some(id) => id,
        None => {
            let path = match opts.budget {
                Some(b) => format!("/v1/session?budget={b}"),
                None => "/v1/session".to_owned(),
            };
            let (status, body) = http_request(opts.addr, "POST", &path, Some(("text/plain", b"")))?;
            if status != 201 {
                return Err(format!(
                    "session create failed: HTTP {status}: {}",
                    String::from_utf8_lossy(&body).trim_end()
                )
                .into());
            }
            json_u64_field(std::str::from_utf8(&body)?, "session")
                .ok_or("malformed session-create response")?
        }
    };
    // The daemon's acknowledged-event count is the resume point: after a
    // crash/restart only the unacknowledged suffix is re-streamed.
    let (status, body) = http_request(opts.addr, "GET", &format!("/v1/session/{sid}"), None)?;
    if status != 200 {
        return Err(format!(
            "session {sid} status failed: HTTP {status}: {}",
            String::from_utf8_lossy(&body).trim_end()
        )
        .into());
    }
    let acked = json_u64_field(std::str::from_utf8(&body)?, "ingested")
        .ok_or("malformed session-status response")? as usize;
    let todo = &events[acked.min(events.len())..];
    if opts.body_format == "binary" {
        // `.duob` bodies carry a whole well-formed trace, so binary mode
        // streams the complete input in one request; resuming mid-trace
        // needs per-event framing — use text bodies for that.
        if acked > 0 {
            return Err(
                "--body-format binary cannot resume a partially-streamed session \
                 (re-run with text bodies)"
                    .into(),
            );
        }
        let (h, names) = reader::read_history_with_names(&bytes)?;
        let payload = binary::encode_with_names(&h, &names);
        let (status, body) = post_events(opts.addr, sid, "application/octet-stream", &payload)?;
        if status != 200 {
            return Err(format!(
                "ingest failed: HTTP {status}: {}",
                String::from_utf8_lossy(&body).trim_end()
            )
            .into());
        }
    } else {
        let chunk = match opts.chunk_events {
            0 => todo.len().max(1),
            n => n as usize,
        };
        for batch in todo.chunks(chunk) {
            let mut payload = String::new();
            for ev in batch {
                payload.push_str(&format_event(ev));
                payload.push('\n');
            }
            let (status, body) = post_events(opts.addr, sid, "text/plain", payload.as_bytes())?;
            if status != 200 {
                return Err(format!(
                    "ingest failed: HTTP {status}: {}",
                    String::from_utf8_lossy(&body).trim_end()
                )
                .into());
            }
        }
    }
    let path = if opts.format == "text" {
        format!("/v1/session/{sid}/verdict?format=text")
    } else {
        format!("/v1/session/{sid}/verdict")
    };
    let (status, body) = http_request(opts.addr, "GET", &path, None)?;
    if status != 200 {
        return Err(format!(
            "verdict failed: HTTP {status}: {}",
            String::from_utf8_lossy(&body).trim_end()
        )
        .into());
    }
    out.write_all(&body)?;
    Ok(std::str::from_utf8(&body)?.contains("satisfied"))
}

fn litmus(out: &mut dyn Write) -> CmdResult {
    let mark = |b: bool| if b { "sat" } else { "VIOL" };
    writeln!(
        out,
        "{:<28} {:>5} {:>7} {:>5} {:>7}",
        "litmus", "fso", "opacity", "du", "strict"
    )?;
    for entry in duop_experiments::litmus::catalogue() {
        let e = entry.expected;
        writeln!(
            out,
            "{:<28} {:>5} {:>7} {:>5} {:>7}",
            entry.name,
            mark(e.final_state),
            mark(e.opacity),
            mark(e.du_opacity),
            mark(e.strict_serializability),
        )?;
    }
    writeln!(
        out,
        "
Run `duop render`/`duop check` on any entry via `duop figures`-style traces;"
    )?;
    writeln!(out, "descriptions live in duop_experiments::litmus.")?;
    Ok(true)
}

fn figures(out: &mut dyn Write) -> CmdResult {
    for (name, h) in duop_experiments::figures::all_figures() {
        writeln!(out, "# {name}")?;
        write!(out, "{}", format_trace(&h))?;
        writeln!(out)?;
    }
    writeln!(out, "# Figure 2 (prefix with 3 readers)")?;
    write!(
        out,
        "{}",
        format_trace(&duop_experiments::figures::fig2_prefix(3))
    )?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn run_to_string(cmd: &Command) -> (bool, String) {
        let mut buf = Vec::new();
        let ok = execute(cmd, &mut buf).expect("command runs");
        (ok, String::from_utf8(buf).expect("utf8 output"))
    }

    fn temp_trace(content: &str) -> String {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "duop-cli-test-{}-{}.txt",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const GOOD: &str =
        "T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\nT2 read X0\nT2 val 1\nT2 tryc\nT2 commit\n";
    const BAD: &str =
        "T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\nT2 read X0\nT2 val 9\nT2 tryc\nT2 commit\n";

    #[test]
    fn check_reports_all_criteria() {
        let path = temp_trace(GOOD);
        let (ok, output) = run_to_string(&Command::Check {
            input: path,
            criteria: vec![],
            threads: 1,
            search: SearchConfig::default(),
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "text".into(),
        });
        assert!(ok, "output:\n{output}");
        for label in [
            "final-state opacity",
            "opacity",
            "du-opacity",
            "read-commit-order opacity",
            "TMS2 (informal rendering)",
            "TMS2 (full automaton)",
            "strict serializability",
        ] {
            assert!(output.contains(label), "missing {label} in:\n{output}");
        }
    }

    #[test]
    fn check_flags_violations() {
        let path = temp_trace(BAD);
        let (ok, output) = run_to_string(&Command::Check {
            input: path,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            search: SearchConfig::default(),
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "text".into(),
        });
        assert!(!ok);
        assert!(output.contains("violated"), "output:\n{output}");
    }

    #[test]
    fn check_with_threads_matches_sequential() {
        // The explored-state counts inside violation messages may differ
        // between engines (workers can race to expand a state another
        // worker is about to memoize), so normalize them; everything else
        // — verdicts, witnesses, exit status — must be byte-identical.
        fn normalize(s: &str) -> String {
            let mut out = String::new();
            let mut rest = s;
            while let Some(i) = rest.find("(explored ") {
                out.push_str(&rest[..i]);
                out.push_str("(explored N states)");
                match rest[i..].find(')') {
                    Some(j) => rest = &rest[i + j + 1..],
                    None => {
                        rest = "";
                        break;
                    }
                }
            }
            out.push_str(rest);
            out
        }
        for trace in [GOOD, BAD] {
            let (seq_ok, seq) = run_to_string(&Command::Check {
                input: temp_trace(trace),
                criteria: vec![],
                threads: 1,
                search: SearchConfig::default(),
                certify: false,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "text".into(),
            });
            let (par_ok, par) = run_to_string(&Command::Check {
                input: temp_trace(trace),
                criteria: vec![],
                threads: 4,
                search: SearchConfig::default(),
                certify: false,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "text".into(),
            });
            assert_eq!(seq_ok, par_ok);
            assert_eq!(normalize(&seq), normalize(&par));
            let (abl_ok, abl) = run_to_string(&Command::Check {
                input: temp_trace(trace),
                criteria: vec![],
                threads: 1,
                search: SearchConfig {
                    decompose: false,
                    ..SearchConfig::default()
                },
                certify: false,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "text".into(),
            });
            assert_eq!(seq_ok, abl_ok);
            assert_eq!(normalize(&seq), normalize(&abl));
        }
    }

    #[test]
    fn check_format_json_emits_verdicts() {
        let path = temp_trace(BAD);
        let (ok, output) = run_to_string(&Command::Check {
            input: path,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            search: SearchConfig::default(),
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "json".into(),
        });
        assert!(!ok);
        assert!(
            output.contains("\"criterion\":\"du-opacity\""),
            "output:\n{output}"
        );
        assert!(
            output.contains("\"status\":\"violated\""),
            "output:\n{output}"
        );
    }

    #[test]
    fn check_json_reports_deadline_reason() {
        // A zero deadline is already expired when the search starts, so
        // any history needing a real search comes back undecided, with
        // the provenance tag in the JSON verdict.
        let path = temp_trace(GOOD);
        let (ok, output) = run_to_string(&Command::Check {
            input: path,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            // The degradation ladder would decide this unique-writes
            // history despite the expired deadline — and saturation
            // would decide it before the search even starts; this test
            // is about the deadline provenance tag.
            search: SearchConfig {
                ladder: false,
                saturate: false,
                deadline: Some(Duration::ZERO),
                ..SearchConfig::default()
            },
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "json".into(),
        });
        assert!(!ok, "undecided must not count as satisfied:\n{output}");
        assert!(
            output.contains("\"status\":\"unknown\""),
            "output:\n{output}"
        );
        assert!(
            output.contains("\"reason\":\"deadline\""),
            "output:\n{output}"
        );
    }

    #[test]
    fn check_generous_deadline_changes_nothing() {
        let path = temp_trace(BAD);
        let (ok, output) = run_to_string(&Command::Check {
            input: path,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            search: SearchConfig {
                deadline: Some(Duration::from_millis(60_000)),
                ..SearchConfig::default()
            },
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "json".into(),
        });
        assert!(!ok);
        assert!(
            output.contains("\"status\":\"violated\""),
            "output:\n{output}"
        );
    }

    #[test]
    fn fuzz_finds_and_shrinks_dirty_violation_deterministically() {
        let cmd = Command::Fuzz {
            engine: EngineName::Dirty,
            faults: "abort=0.05,crash=0.05,thread-crash=0.25".into(),
            seed: 0,
            iters: 200,
            threads: 1,
            objs: 4,
            format: "text".into(),
            trace_out: None,
            trace_format: "text".into(),
        };
        let (ok, output) = run_to_string(&cmd);
        assert!(!ok, "the dirty engine must produce a finding:\n{output}");
        assert!(output.contains("non-du-opaque"), "output:\n{output}");
        assert!(output.contains("minimized to"), "output:\n{output}");
        assert!(output.contains("cause:"), "output:\n{output}");
        assert!(output.contains("replay:"), "output:\n{output}");
        // Single-threaded fault injection is a pure function of the seed:
        // rerunning reproduces the identical report, shrink included.
        let (_, again) = run_to_string(&cmd);
        assert_eq!(output, again, "fuzz finding must be deterministic");
    }

    #[test]
    fn fuzz_opaque_engines_stay_clean_under_faults() {
        for engine in [
            EngineName::Tl2,
            EngineName::NoRec,
            EngineName::Dstm,
            EngineName::TwoPl,
            EngineName::Pessimistic,
        ] {
            let (ok, output) = run_to_string(&Command::Fuzz {
                engine,
                faults: "abort=0.1,crash=0.1,thread-crash=0.5".into(),
                seed: 42,
                iters: 60,
                threads: 1,
                objs: 3,
                format: "text".into(),
                trace_out: None,
                trace_format: "text".into(),
            });
            assert!(ok, "{engine:?} produced a finding:\n{output}");
            assert!(output.contains("all histories du-opaque"), "{output}");
            assert!(output.contains("0 undecided"), "{output}");
        }
    }

    #[test]
    fn fuzz_rejects_bad_fault_spec() {
        let mut buf = Vec::new();
        assert!(execute(
            &Command::Fuzz {
                engine: EngineName::Tl2,
                faults: "explode=1".into(),
                seed: 0,
                iters: 1,
                threads: 1,
                objs: 2,
                format: "text".into(),
                trace_out: None,
                trace_format: "text".into(),
            },
            &mut buf
        )
        .is_err());
    }

    #[test]
    fn lint_reports_clean_trace() {
        let path = temp_trace(GOOD);
        let (ok, output) = run_to_string(&Command::Lint {
            input: path,
            format: "text".into(),
            rules: vec![],
            explain: None,
        });
        assert!(ok);
        assert!(output.contains("0 errors"), "output:\n{output}");
    }

    #[test]
    fn lint_names_dirty_read_events_on_figure2() {
        // The acceptance shape: Figure 2's trace must get DU002 with both
        // event spans, in text and JSON.
        let fig2 = duop_history::trace::format_trace(&duop_experiments::figures::fig2_prefix(1));
        let path = temp_trace(&fig2);
        let (ok, text) = run_to_string(&Command::Lint {
            input: path.clone(),
            format: "text".into(),
            rules: vec![],
            explain: None,
        });
        // Figure 2 is du-opaque: the dirty read is Warning-severity, so
        // the exit status stays success.
        assert!(ok, "output:\n{text}");
        assert!(text.contains("warning[DU002]"), "output:\n{text}");
        assert!(text.contains("at event "), "output:\n{text}");
        assert!(text.contains("with event "), "output:\n{text}");
        let (_, json) = run_to_string(&Command::Lint {
            input: path,
            format: "json".into(),
            rules: vec![],
            explain: None,
        });
        assert!(json.contains("\"rule\":\"DU002\""), "output:\n{json}");
        assert!(json.contains("\"primary\":{\"event\":"), "output:\n{json}");
        assert!(
            json.contains("\"secondary\":[{\"event\":"),
            "output:\n{json}"
        );
    }

    #[test]
    fn lint_flags_errors_and_filters_rules() {
        let path = temp_trace(BAD);
        let (ok, output) = run_to_string(&Command::Lint {
            input: path.clone(),
            format: "text".into(),
            rules: vec![],
            explain: None,
        });
        assert!(!ok);
        assert!(output.contains("error[RF003]"), "output:\n{output}");
        // Filtering to an unrelated rule hides the error: exit ok.
        let (ok, output) = run_to_string(&Command::Lint {
            input: path.clone(),
            format: "text".into(),
            rules: vec!["UW007".into()],
            explain: None,
        });
        assert!(ok, "output:\n{output}");
        // Unknown rule ids are a usage error.
        let mut buf = Vec::new();
        assert!(execute(
            &Command::Lint {
                input: path,
                format: "text".into(),
                rules: vec!["NOPE".into()],
                explain: None,
            },
            &mut buf
        )
        .is_err());
    }

    /// Real-time vs anti-dependency two-cycle: T1 commits fully before
    /// T2, which still reads the initial value — saturation refutes
    /// every saturable criterion with a certificate.
    const CYCLE: &str =
        "T1 write X0 1\nT1 ok\nT1 tryc\nT1 commit\nT2 read X0\nT2 val 0\nT2 tryc\nT2 commit\n";

    #[test]
    fn certify_refutes_with_validated_certificate() {
        let path = temp_trace(CYCLE);
        let (ok, output) = run_to_string(&Command::Certify {
            input: path.clone(),
            criteria: vec![],
            format: "text".into(),
        });
        assert!(!ok);
        assert!(output.contains("violated"), "output:\n{output}");
        assert!(
            output.contains("independently validated"),
            "output:\n{output}"
        );
        let (ok, json) = run_to_string(&Command::Certify {
            input: path,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            format: "json".into(),
        });
        assert!(!ok);
        assert!(json.contains("\"certificate\""), "output:\n{json}");
        assert!(json.contains("\"validated\":true"), "output:\n{json}");
        assert!(json.contains("\"cycle\""), "output:\n{json}");
    }

    #[test]
    fn certify_decides_satisfied_history() {
        let path = temp_trace(GOOD);
        let (ok, output) = run_to_string(&Command::Certify {
            input: path,
            criteria: vec![],
            format: "text".into(),
        });
        assert!(ok, "output:\n{output}");
        assert!(
            output.contains("saturation-determined witness"),
            "output:\n{output}"
        );
    }

    #[test]
    fn certify_rejects_unsupported_criterion() {
        let path = temp_trace(GOOD);
        let mut buf = Vec::new();
        let err = execute(
            &Command::Certify {
                input: path,
                criteria: vec![crate::args::CriterionName::Opacity],
                format: "text".into(),
            },
            &mut buf,
        )
        .expect_err("opacity is not saturable");
        assert!(err.to_string().contains("saturable"), "{err}");
    }

    #[test]
    fn check_certify_validates_and_reports_certified_refutation() {
        // Prelint off so the refutation comes from saturation (with its
        // certificate) rather than the lint prefilter; `--certify`
        // re-validates it in-line.
        let path = temp_trace(CYCLE);
        let (ok, output) = run_to_string(&Command::Check {
            input: path,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            search: SearchConfig {
                prelint: false,
                ..SearchConfig::default()
            },
            certify: true,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "text".into(),
        });
        assert!(!ok);
        assert!(
            output.contains("refuted by saturation"),
            "output:\n{output}"
        );
    }

    #[test]
    fn check_no_saturate_reaches_the_same_verdict() {
        for (trace, expect_ok) in [(GOOD, true), (CYCLE, false), (BAD, false)] {
            for saturate in [true, false] {
                let (ok, output) = run_to_string(&Command::Check {
                    input: temp_trace(trace),
                    criteria: vec![crate::args::CriterionName::DuOpacity],
                    threads: 1,
                    search: SearchConfig {
                        saturate,
                        ..SearchConfig::default()
                    },
                    certify: false,
                    retry: 0,
                    escalate_milli: 2000,
                    checkpoint: None,
                    checkpoint_every: 4096,
                    format: "text".into(),
                });
                assert_eq!(ok, expect_ok, "saturate={saturate}, output:\n{output}");
            }
        }
    }

    #[test]
    fn lint_explain_prints_grounding_and_example() {
        let (ok, output) = run_to_string(&Command::Lint {
            input: "-".into(),
            format: "text".into(),
            rules: vec![],
            explain: Some("DU002".into()),
        });
        assert!(ok);
        assert!(output.contains("DU002: deferred-update axiom"), "{output}");
        assert!(output.contains("Paper grounding:"), "{output}");
        assert!(output.contains("Minimal example"), "{output}");
        assert!(output.contains("T2 read X0"), "{output}");
        // Unknown rule ids are a usage error listing the registry.
        let mut buf = Vec::new();
        let err = execute(
            &Command::Lint {
                input: "-".into(),
                format: "text".into(),
                rules: vec![],
                explain: Some("NOPE".into()),
            },
            &mut buf,
        )
        .expect_err("unknown rule");
        assert!(err.to_string().contains("known:"), "{err}");
    }

    #[test]
    fn lint_explain_examples_fire_their_rule_via_cli() {
        // Every registry example round-trips through the real lint
        // command and reports its own rule id.
        for rule in duop_core::lint::rules() {
            let path = temp_trace(rule.example);
            let (_, output) = run_to_string(&Command::Lint {
                input: path,
                format: "json".into(),
                rules: vec![rule.id.to_owned()],
                explain: None,
            });
            assert!(
                output.contains(&format!("\"rule\":\"{}\"", rule.id)),
                "{}: output:\n{output}",
                rule.id
            );
        }
    }

    #[test]
    fn monitor_counts_lint_refutations() {
        let path = temp_trace(BAD);
        let (ok, output) = run_to_string(&Command::Monitor {
            input: path,
            checkpoint: None,
            checkpoint_every: 32,
            status_every: 0,
            compact_every: None,
        });
        assert!(!ok);
        assert!(output.contains("lint refutations"), "output:\n{output}");
    }

    #[test]
    fn render_draws_lanes() {
        let path = temp_trace(GOOD);
        let (_, output) = run_to_string(&Command::Render { input: path });
        assert!(output.contains("T1 |"));
        assert!(output.contains("W(X0,1)"));
    }

    #[test]
    fn convert_roundtrips_via_json() {
        let path = temp_trace(GOOD);
        let (_, json) = run_to_string(&Command::Convert {
            input: path,
            output: None,
            to: "json".into(),
        });
        let jpath = temp_trace(&json);
        let (_, text) = run_to_string(&Command::Convert {
            input: jpath,
            output: None,
            to: "text".into(),
        });
        assert_eq!(text, GOOD);
    }

    #[test]
    fn convert_roundtrips_via_binary_file() {
        let path = temp_trace(GOOD);
        let bpath = format!("{path}.duob");
        let (ok, _) = run_to_string(&Command::Convert {
            input: path,
            output: Some(bpath.clone()),
            to: "binary".into(),
        });
        assert!(ok);
        assert!(std::fs::read(&bpath).unwrap().starts_with(b"DUOB"));
        let (_, text) = run_to_string(&Command::Convert {
            input: bpath.clone(),
            output: None,
            to: "text".into(),
        });
        assert_eq!(text, GOOD);
        // The binary file is accepted transparently by check.
        let (ok, output) = run_to_string(&Command::Check {
            input: bpath,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            search: SearchConfig::default(),
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "text".into(),
        });
        assert!(ok, "output:\n{output}");
    }

    #[test]
    fn convert_roundtrips_via_dbcop() {
        // dbcop export is lossy (one session per transaction) but the
        // per-transaction reads/writes and commit status survive, so a
        // sequential history round-trips to the same verdict.
        let path = temp_trace(GOOD);
        let (_, dbc) = run_to_string(&Command::Convert {
            input: path,
            output: None,
            to: "dbcop".into(),
        });
        assert!(dbc.trim_start().starts_with('{'), "output:\n{dbc}");
        let dpath = temp_trace(&dbc);
        let (ok, _) = run_to_string(&Command::Check {
            input: dpath,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            search: SearchConfig::default(),
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "text".into(),
        });
        assert!(ok);
    }

    #[test]
    fn monitor_streams_binary_and_compacts() {
        let path = temp_trace(GOOD);
        let bpath = format!("{path}.duob");
        run_to_string(&Command::Convert {
            input: path.clone(),
            output: Some(bpath.clone()),
            to: "binary".into(),
        });
        // Binary input, streamed, with aggressive compaction: the same
        // per-event verdicts as the text monitor, plus a compaction line.
        let (ok, output) = run_to_string(&Command::Monitor {
            input: bpath,
            checkpoint: None,
            checkpoint_every: 32,
            status_every: 0,
            compact_every: Some(1),
        });
        assert!(ok, "output:\n{output}");
        assert!(output.contains("compactions dropped"), "output:\n{output}");
        let (plain_ok, plain) = run_to_string(&Command::Monitor {
            input: path,
            checkpoint: None,
            checkpoint_every: 32,
            status_every: 0,
            compact_every: None,
        });
        assert_eq!(ok, plain_ok);
        // Per-event verdict lines agree between the two runs.
        let verdicts = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("event"))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&output), verdicts(&plain));
    }

    #[test]
    fn fuzz_trace_out_replays_from_binary() {
        let out_path = std::env::temp_dir()
            .join(format!("duop-fuzz-core-{}.duob", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let (ok, output) = run_to_string(&Command::Fuzz {
            engine: EngineName::Dirty,
            faults: "abort=0.05,crash=0.05,thread-crash=0.25".into(),
            seed: 0,
            iters: 200,
            threads: 1,
            objs: 4,
            format: "text".into(),
            trace_out: Some(out_path.clone()),
            trace_format: "binary".into(),
        });
        assert!(!ok, "the dirty engine must produce a finding:\n{output}");
        assert!(
            output.contains(&format!("duop check {out_path}")),
            "output:\n{output}"
        );
        let bytes = std::fs::read(&out_path).unwrap();
        assert!(bytes.starts_with(b"DUOB"));
        // The written counterexample replays to a violation through the
        // ordinary check pipeline.
        let (replayed_ok, replay_out) = run_to_string(&Command::Check {
            input: out_path,
            criteria: vec![crate::args::CriterionName::DuOpacity],
            threads: 1,
            search: SearchConfig::default(),
            certify: false,
            retry: 0,
            escalate_milli: 2000,
            checkpoint: None,
            checkpoint_every: 4096,
            format: "text".into(),
        });
        assert!(!replayed_ok, "output:\n{replay_out}");
        assert!(replay_out.contains("violated"), "output:\n{replay_out}");
    }

    #[test]
    fn monitor_pinpoints_the_event() {
        let path = temp_trace(BAD);
        let (ok, output) = run_to_string(&Command::Monitor {
            input: path,
            checkpoint: None,
            checkpoint_every: 32,
            status_every: 0,
            compact_every: None,
        });
        assert!(!ok);
        assert!(output.contains("VIOLATION"), "output:\n{output}");
    }

    #[test]
    fn generate_emits_parseable_traces() {
        let (_, output) = run_to_string(&Command::Generate {
            mode: crate::args::GenModeName::Simulated,
            txns: 6,
            objs: 3,
            seed: 4,
            unique: true,
            concurrency: 3,
        });
        let h = duop_history::trace::parse_trace(&output).expect("generated trace parses");
        assert!(h.txn_count() > 0);
    }

    #[test]
    fn figures_lists_all() {
        let (_, output) = run_to_string(&Command::Figures);
        for name in [
            "Figure 1", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 2",
        ] {
            assert!(output.contains(name), "missing {name}");
        }
    }

    #[test]
    fn graph_emits_dot() {
        let path = temp_trace(GOOD);
        let (_, output) = run_to_string(&Command::Graph { input: path });
        assert!(output.starts_with("digraph history"));
        assert!(output.contains("T1 -> T2"));
    }

    #[test]
    fn localize_shrinks_violations() {
        let path = temp_trace(BAD);
        let (ok, output) = run_to_string(&Command::Localize { input: path });
        assert!(!ok);
        assert!(output.contains("minimized"), "output:\n{output}");
        assert!(output.contains("cause:"), "output:\n{output}");
    }

    #[test]
    fn localize_reports_satisfied() {
        let path = temp_trace(GOOD);
        let (ok, output) = run_to_string(&Command::Localize { input: path });
        assert!(ok);
        assert!(output.contains("nothing to localize"));
    }

    #[test]
    fn litmus_lists_catalogue() {
        let (ok, output) = run_to_string(&Command::Litmus);
        assert!(ok);
        assert!(output.contains("zombie-doomed-reader"));
        assert!(output.contains("aba-value-coincidence"));
    }

    #[test]
    fn help_prints_usage() {
        let (_, output) = run_to_string(&Command::Help);
        assert!(output.contains("USAGE"));
    }
}
