//! The batch workloads (`batch-small`, `batch-search`, `long-trace`).
//!
//! Each history is stored as `.duob` bytes and checked the way
//! `duop check --threads 1` checks it: `reader::read_history`, then one
//! fresh `ResumableCheck` per criterion with the default `SearchConfig`.

use std::time::{Duration, Instant};

use duop_core::reference::{check_by_enumeration, MAX_ENUMERABLE_TXNS};
use duop_core::snapshot::ResumableCheck;
use duop_core::{
    check_criterion_with_stats, plan_components, prelint_verdict, saturate, CriterionKind,
    PlanCriterion, PlanOutcome, PlanScratch, SaturationOutcome, SearchConfig, Verdict,
};
use duop_gen::{anomalies, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{binary, reader, History};

use crate::calib::Calibrator;
use crate::oracle::{
    check_evidence, checkable, known_failures, local_writer_differs, shape, Origin, Tally,
    CRITERIA, DU,
};
use crate::spans::Tracer;
use crate::stats::{median, p50_p90_ms, ratio, Report, Reservoir};
use crate::{peak_rss_mb, Sizes, Workload, SETUP_REPS};

/// Saturation gives up above this many transactions (`MAX_TXNS` in
/// `crates/core/src/saturate.rs`); an inconclusive pass over a larger
/// history counts as gated rather than as a miss.
const SATURATE_MAX_TXNS: usize = 512;

/// The three key distributions of E20.
const DISTS: [KeyDist; 3] = [
    KeyDist::Uniform,
    KeyDist::Zipfian { theta: 1.2 },
    KeyDist::Hotspot {
        hot_fraction: 0.25,
        hot_prob: 0.9,
    },
];

#[derive(Clone)]
struct Item {
    bytes: Vec<u8>,
    events: u64,
    origin: Origin,
    /// Generated in simulated mode, hence du- and final-state-opaque.
    simulated: bool,
}

impl Item {
    fn new(h: &History, config: String, seed: Option<u64>, simulated: bool) -> Item {
        Item {
            bytes: binary::encode(h),
            events: h.len() as u64,
            origin: Origin { config, seed },
            simulated,
        }
    }

    fn decode(&self) -> History {
        reader::read_history(&self.bytes).expect("corpus bytes decode")
    }
}

struct Corpus {
    items: Vec<Item>,
    /// The first 5% of the corpus's events: whole histories, then a prefix
    /// of the history the cut falls in.
    warmup: Vec<Item>,
}

fn corpus(w: Workload, seed: u64, sizes: &Sizes) -> Corpus {
    let mut items = Vec::new();
    match w {
        Workload::BatchSmall => {
            for i in 0..sizes.small_seeds {
                for dist in DISTS {
                    let cfg = HistoryGenConfig::small_adversarial()
                        .with_txns(6)
                        .with_key_dist(dist);
                    let h = HistoryGen::new(cfg, seed + i).generate();
                    let config =
                        format!("small_adversarial().with_txns(6).with_key_dist({dist:?})");
                    items.push(Item::new(&h, config, Some(seed + i), false));
                }
            }
            for (name, h) in anomalies::catalogue() {
                let config = format!("anomalies::catalogue() entry `{name}`");
                items.push(Item::new(&h, config, None, false));
            }
        }
        Workload::BatchSearch => {
            for i in 0..sizes.search_histories {
                let dist = DISTS[((seed + i) % 3) as usize];
                let cfg = HistoryGenConfig::medium_simulated()
                    .with_txns(48)
                    .with_concurrency(12)
                    .with_objs(4)
                    .with_key_dist(dist);
                let h = HistoryGen::new(cfg, seed + i).generate();
                let config = format!(
                    "medium_simulated().with_txns(48).with_concurrency(12).with_objs(4).with_key_dist({dist:?})"
                );
                items.push(Item::new(&h, config, Some(seed + i), true));
            }
        }
        Workload::LongTrace => {
            for i in 0..sizes.long_traces {
                let cfg = HistoryGenConfig::large_streaming().with_txns(sizes.long_txns);
                let h = HistoryGen::new(cfg, seed + i).generate();
                let config = format!("large_streaming().with_txns({})", sizes.long_txns);
                items.push(Item::new(&h, config, Some(seed + i), true));
            }
        }
        Workload::StreamServe => unreachable!("stream-serve has its own corpus"),
    }
    let warmup = warmup_slice(&items);
    Corpus { items, warmup }
}

fn warmup_slice(items: &[Item]) -> Vec<Item> {
    let total: u64 = items.iter().map(|i| i.events).sum();
    let mut budget = (total / 20).max(1);
    let mut out = Vec::new();
    for item in items {
        if item.events <= budget {
            budget -= item.events;
            out.push(item.clone());
        } else {
            let prefix = item.decode().prefix(budget as usize);
            out.push(Item::new(
                &prefix,
                item.origin.config.clone(),
                item.origin.seed,
                false,
            ));
            break;
        }
        if budget == 0 {
            break;
        }
    }
    out
}

/// One untraced pass (or several, cycling) over the corpus.
struct Pass {
    /// Verdicts of the first check of each item, for the oracle.
    verdicts: Vec<Option<Vec<Verdict>>>,
    /// Items whose verdict shapes changed between passes.
    unstable: Vec<usize>,
    /// Durations at the reference host speed (see [`crate::calib`]).
    trace_ns: Reservoir<u64>,
    verdict_ns: Reservoir<u64>,
    /// Items checked, in order (may exceed the corpus when cycling).
    checked: usize,
    unknown: u64,
    /// Total of `trace_ns`: time spent decoding and checking.
    busy_ns: u64,
    /// Events per second of consecutive slices of at least `SLICE`.
    slice_rates: Vec<f64>,
}

/// Throughput is the median over slices of this much checking time, so a
/// rare monster history moves the tail metrics rather than the rate.
const SLICE: Duration = Duration::from_millis(250);

/// Checks items in corpus order until `limit` has passed, cycling through
/// the corpus unless `max_items` stops it earlier.
fn timed(items: &[Item], limit: Duration, max_items: Option<usize>) -> Pass {
    let cfg = SearchConfig::default();
    let mut pass = Pass {
        verdicts: (0..items.len()).map(|_| None).collect(),
        unstable: Vec::new(),
        trace_ns: Reservoir::new(u64::MAX),
        verdict_ns: Reservoir::new(u64::MAX),
        checked: 0,
        unknown: 0,
        busy_ns: 0,
        slice_rates: Vec::new(),
    };
    let mut cal = Calibrator::new();
    let (mut slice_events, mut slice_ns) = (0u64, 0u64);
    let start = Instant::now();
    loop {
        let idx = pass.checked % items.len();
        let item = &items[idx];
        cal.tick();
        let t = Instant::now();
        let h = item.decode();
        let mut trace = cal.ns(t.elapsed());
        let mut verdicts = Vec::with_capacity(CRITERIA.len());
        for c in CRITERIA {
            cal.tick();
            let t = Instant::now();
            let (v, _) = ResumableCheck::new().check(&h, checkable(c), &cfg);
            let ns = cal.ns(t.elapsed());
            pass.verdict_ns.push(ns);
            trace += ns;
            verdicts.push(v);
        }
        pass.trace_ns.push(trace);
        pass.busy_ns += trace;
        slice_events += item.events;
        slice_ns += trace;
        if slice_ns >= SLICE.as_nanos() as u64 {
            pass.slice_rates
                .push(slice_events as f64 / (slice_ns as f64 / 1e9));
            (slice_events, slice_ns) = (0, 0);
        }
        pass.unknown += verdicts.iter().filter(|v| shape(v) == "unknown").count() as u64;
        match &pass.verdicts[idx] {
            None => pass.verdicts[idx] = Some(verdicts),
            Some(first) => {
                if first
                    .iter()
                    .zip(&verdicts)
                    .any(|(a, b)| shape(a) != shape(b))
                {
                    pass.unstable.push(idx);
                }
            }
        }
        pass.checked += 1;
        let done = max_items.is_some_and(|m| pass.checked >= m);
        if done || start.elapsed() >= limit {
            break;
        }
    }
    if pass.slice_rates.is_empty() {
        pass.slice_rates
            .push(slice_events as f64 / (slice_ns as f64 / 1e9));
    }
    pass
}

/// Decodes and checks the warm-up slice `SETUP_REPS` times; the median is
/// the set-up time. The first repetition runs cold.
fn setup(warmup: &[Item]) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| timed(warmup, Duration::MAX, Some(warmup.len())).busy_ns as f64 / 1e9)
        .collect();
    median(&times)
}

/// Per-stage counters of the traced pass.
#[derive(Default)]
struct Stages {
    queries: u64,
    lint_decided: u64,
    saturate_queries: u64,
    saturate_decided: u64,
    saturate_gated: u64,
    plan_queries: u64,
    plan_decided: u64,
    max_component: usize,
    search_queries: u64,
    search_self_ns: u64,
    search_states: u64,
    events: u64,
    /// Time inside the traced histories, as measured and at the reference
    /// host speed.
    raw_ns: u64,
    busy_ns: u64,
}

/// The traced pass: the pipeline's stages called one by one on each
/// prepared history, stopping at the first stage that decides. Verdict
/// shapes must match the untraced pass.
fn traced(
    items: &[Item],
    count: usize,
    untraced: &Pass,
    tracer: &mut Tracer,
    workload: &str,
    tally: &mut Tally,
) -> Stages {
    let search_cfg = SearchConfig {
        prelint: false,
        saturate: false,
        ..SearchConfig::default()
    };
    let mut scratch = PlanScratch::new();
    let mut st = Stages::default();
    let mut cal = Calibrator::new();
    for (idx, item) in items.iter().enumerate().take(count) {
        cal.tick();
        let req = (idx as u64, 0);
        let root = tracer.open("history", None, req);
        let (h, _) = tracer.span("decode", Some(root), req, || item.decode());
        st.events += item.events;
        for (ci, c) in CRITERIA.into_iter().enumerate() {
            let req = (idx as u64, ci as u32 + 1);
            let query = tracer.open("query", Some(root), req);
            let (prepared, _) = tracer.span("prepare", Some(query), req, || c.prepare(&h));
            let hh = prepared.as_ref().unwrap_or(&h);
            let verdict = staged(
                hh,
                c,
                &search_cfg,
                &mut scratch,
                tracer,
                query,
                req,
                &mut st,
            );
            tracer.close(query);
            if let Some(first) = untraced.verdicts.get(idx).and_then(Option::as_ref) {
                if shape(&first[ci]) != verdict {
                    let why = format!(
                        "staged pipeline says {verdict}, ResumableCheck says {}",
                        shape(&first[ci])
                    );
                    tally.reject(workload, &item.origin, c.token(), &why, false);
                }
            }
        }
        tracer.close(root);
        let took = tracer.spans[root].duration();
        st.raw_ns += took;
        st.busy_ns += cal.ns(Duration::from_nanos(took));
    }
    st
}

/// Runs lint, saturation, planning and search in pipeline order and
/// returns the verdict shape of the first stage that decides.
#[allow(clippy::too_many_arguments)]
fn staged(
    hh: &History,
    c: PlanCriterion,
    search_cfg: &SearchConfig,
    scratch: &mut PlanScratch,
    tracer: &mut Tracer,
    query: usize,
    req: (u64, u32),
    st: &mut Stages,
) -> &'static str {
    st.queries += 1;
    let (lint, _) = tracer.span("lint", Some(query), req, || prelint_verdict(hh, c));
    if let Some(v) = lint {
        st.lint_decided += 1;
        return shape(&v);
    }
    st.saturate_queries += 1;
    let (sat, _) = tracer.span("saturate", Some(query), req, || saturate(hh, c));
    match sat {
        SaturationOutcome::Refuted(_) => {
            st.saturate_decided += 1;
            return "violated";
        }
        SaturationOutcome::Decided(_) => {
            st.saturate_decided += 1;
            return "satisfied";
        }
        SaturationOutcome::Inconclusive => {
            if hh.txn_count() > SATURATE_MAX_TXNS {
                st.saturate_gated += 1;
            }
        }
    }
    st.plan_queries += 1;
    let (plan, plan_id) = tracer.span("plan", Some(query), req, || plan_components(hh, c, scratch));
    match plan {
        PlanOutcome::Decided(v) => {
            st.plan_decided += 1;
            return shape(&v);
        }
        PlanOutcome::Components(comps) => {
            let largest = comps.iter().map(Vec::len).max().unwrap_or(0);
            st.max_component = st.max_component.max(largest);
        }
    }
    st.search_queries += 1;
    let ((v, explored), search_id) = tracer.span("search", Some(query), req, || {
        check_criterion_with_stats(hh, c, search_cfg)
    });
    // The search call re-plans internally; its self time excludes that.
    let spans = &tracer.spans;
    st.search_self_ns += spans[search_id]
        .duration()
        .saturating_sub(spans[plan_id].duration());
    st.search_states += explored;
    shape(&v)
}

/// Re-checks every verdict of the untraced pass; see [`crate::oracle`].
fn oracle(w: Workload, corpus: &Corpus, pass: &Pass, sizes: &Sizes, tally: &mut Tally) {
    let name = w.name();
    for (idx, verdicts) in pass.verdicts.iter().enumerate() {
        let Some(verdicts) = verdicts else { continue };
        let item = &corpus.items[idx];
        let h = item.decode();
        for (c, v) in CRITERIA.iter().zip(verdicts) {
            let prepared = c.prepare(&h);
            let hh = prepared.as_ref().unwrap_or(&h);
            let events = if v.is_satisfied() { hh.len() as u64 } else { 0 };
            let evidence = tally.time_witness(events, || check_evidence(hh, *c, v));
            if let Err(why) = evidence {
                tally.reject(name, &item.origin, c.token(), &why, false);
            }
            let must_hold = matches!(c, PlanCriterion::Du | PlanCriterion::FinalState);
            if item.simulated && must_hold && !v.is_satisfied() {
                let why = format!("simulated-mode history reported {}", shape(v));
                tally.reject(name, &item.origin, c.token(), &why, false);
            }
        }
        if w == Workload::BatchSmall && idx < sizes.enumerated {
            enumerate_du(name, &item.origin, &h, &verdicts[DU], tally);
        }
    }
    for &idx in &pass.unstable {
        let why = "verdict shape changed between passes";
        tally.reject(name, &corpus.items[idx].origin, "any", why, false);
    }
    if w == Workload::BatchSmall {
        for kf in known_failures() {
            let cfg = HistoryGenConfig::small_adversarial()
                .with_txns(kf.txns)
                .with_key_dist(kf.key_dist);
            let h = HistoryGen::new(cfg, kf.seed).generate();
            let (du, _) = ResumableCheck::new().check(
                &h,
                checkable(PlanCriterion::Du),
                &SearchConfig::default(),
            );
            let origin = Origin {
                config: format!(
                    "small_adversarial().with_txns({}).with_key_dist({:?})",
                    kf.txns, kf.key_dist
                ),
                seed: Some(kf.seed),
            };
            if !enumerate_du(name, &origin, &h, &du, tally) {
                eprintln!("known failure no longer reproduces: {origin}, criterion du");
            }
        }
    }
}

/// Compares a du verdict with brute-force enumeration; returns whether
/// they disagree. A false refutation whose enumeration witness has a read
/// with distinct local and global writers is the recorded known failure.
fn enumerate_du(
    workload: &str,
    origin: &Origin,
    h: &History,
    du: &Verdict,
    tally: &mut Tally,
) -> bool {
    if h.txn_count() > MAX_ENUMERABLE_TXNS {
        return false;
    }
    let reference = check_by_enumeration(h, CriterionKind::DuOpacity);
    if shape(&reference) == shape(du) {
        return false;
    }
    let known = du.is_violated()
        && reference
            .witness()
            .is_some_and(|w| local_writer_differs(h, w));
    let why = format!(
        "checker says {}, enumeration says {}",
        shape(du),
        shape(&reference)
    );
    tally.reject(workload, origin, "du", &why, known);
    true
}

pub fn run(
    w: Workload,
    seconds: f64,
    trace: bool,
    seed: u64,
    sizes: &Sizes,
) -> (Report, Option<Tracer>) {
    let corpus = corpus(w, seed, sizes);
    let total_events: u64 = corpus.items.iter().map(|i| i.events).sum();
    eprintln!(
        "{}: {} histories, {total_events} events; warm-up {} histories",
        w.name(),
        corpus.items.len(),
        corpus.warmup.len()
    );
    let setup_s = setup(&corpus.warmup);
    let mut report = Report::default();
    let mut tally = Tally::new();
    let limit = Duration::from_secs_f64(seconds);
    if !trace {
        let mut pass = timed(&corpus.items, limit, None);
        oracle(w, &corpus, &pass, sizes, &mut tally);
        report.attempted = pass.verdict_ns.seen();
        report.failed_ops = pass.unknown;
        let busy_s = pass.busy_ns as f64 / 1e9;
        report.push("events_per_s", median(&pass.slice_rates), "1/s");
        report.push("trace_p50_ms", p50_p90_ms(&mut pass.trace_ns).0, "ms");
        let (v50, v90) = p50_p90_ms(&mut pass.verdict_ns);
        report.push("verdict_p50_ms", v50, "ms");
        report.push("verdict_p90_ms", v90, "ms");
        report.push("setup_s", setup_s, "s");
        report.push("peak_rss_mb", peak_rss_mb(), "MB");
        eprintln!(
            "{}: {} histories checked ({} verdicts), {busy_s:.3} s at reference speed",
            w.name(),
            pass.checked,
            pass.verdict_ns.seen()
        );
        report.wrong = tally.wrong;
        report.known = tally.known;
        return (report, None);
    }

    // Traced run: one untraced pass for the baseline, then the same
    // histories again with spans.
    let pass = timed(&corpus.items, limit / 2, Some(corpus.items.len()));
    let mut tracer = Tracer::new();
    let st = traced(
        &corpus.items,
        pass.checked,
        &pass,
        &mut tracer,
        w.name(),
        &mut tally,
    );
    oracle(w, &corpus, &pass, sizes, &mut tally);
    report.attempted = pass.verdict_ns.seen();
    report.failed_ops = pass.unknown;
    let own = tracer.self_times();
    // Span times are as measured; scale them to the reference host speed
    // like every other duration.
    let scale = ratio(st.busy_ns as f64, st.raw_ns as f64);
    let ns = |name| tracer.self_ns(&own, name) as f64 * scale;
    let q = st.queries as f64;
    let layers = ["decode", "prepare", "lint", "saturate", "plan", "search"];
    let accounted: f64 = layers.iter().map(|l| tracer.self_ns(&own, l) as f64).sum();
    report.push(
        "history.decode_ns_per_event",
        ratio(ns("decode"), st.events as f64),
        "ns",
    );
    report.push("lint.ns_per_query", ratio(ns("lint"), q), "ns");
    report.push(
        "lint.decided_frac",
        ratio(st.lint_decided as f64, q),
        "frac",
    );
    let sq = st.saturate_queries as f64;
    report.push("saturate.ns_per_query", ratio(ns("saturate"), sq), "ns");
    report.push(
        "saturate.decided_frac",
        ratio(st.saturate_decided as f64, q),
        "frac",
    );
    report.push(
        "saturate.gated_frac",
        ratio(st.saturate_gated as f64, sq),
        "frac",
    );
    let pq = st.plan_queries as f64;
    report.push("plan.ns_per_query", ratio(ns("plan"), pq), "ns");
    report.push(
        "plan.decided_frac",
        ratio(st.plan_decided as f64, q),
        "frac",
    );
    report.push("plan.max_component_txns", st.max_component as f64, "count");
    let xq = st.search_queries as f64;
    report.push(
        "search.ns_per_query",
        ratio(st.search_self_ns as f64 * scale, xq),
        "ns",
    );
    report.push(
        "search.states_per_query",
        ratio(st.search_states as f64, xq),
        "count",
    );
    report.push(
        "witness_check.ns_per_event",
        ratio(tally.witness_ns as f64, tally.witness_events as f64),
        "ns",
    );
    report.push(
        "trace.overhead_frac",
        ratio(st.busy_ns as f64, pass.busy_ns as f64) - 1.0,
        "frac",
    );
    report.push(
        "trace.unaccounted_frac",
        1.0 - ratio(accounted, st.raw_ns as f64),
        "frac",
    );
    report.push("oracle.wrong_verdicts", tally.wrong as f64, "count");
    report.wrong = tally.wrong;
    report.known = tally.known;
    (report, Some(tracer))
}
