//! Differential harness for the online monitor's batch verdict.
//!
//! `OnlineChecker::batch_verdict` runs the batch du-opacity check of the
//! retained history, telling it the monitor's witness when that witness
//! is certified for exactly this history; the check's prefilter then
//! skips lint, and saturation when the witness has a swappable pair. The
//! contract: after every push its verdict serializes to exactly the JSON
//! a fresh `DuOpacity::with_config(cfg).check` of the retained history
//! does, with `cfg` the monitor's configuration — witness, certificate
//! and counters included. In the debug profile every skipped stage still
//! runs and is asserted not to decide.
//!
//! Corpora: `online_differential`'s — the `stream-serve` benchmark's
//! shape (128-transaction simulated traces), six-transaction adversarial
//! histories under three key distributions (also with a starved search
//! budget, so `Unknown` pushes leave stale witnesses behind), and
//! fault-injected STM engine runs (the dirty engine included, so
//! violations occur) — plus experiment E21's two shapes. Each runs with
//! compaction off and at every certified prefix.

use duop_core::online::OnlineChecker;
use duop_core::{Criterion, DuOpacity, SearchConfig, Verdict};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::History;
use duop_stm::engines::{DirtyRead, Dstm, Eager2Pl, NoRec, Pessimistic, Tl2};
use duop_stm::{run_workload_faulted, Engine, FaultPlan, WorkloadConfig};

/// What a corpus exercised, so each test can show it reached every path.
#[derive(Debug, Default)]
struct Tally {
    /// Batch verdicts compared.
    verdicts: usize,
    /// Of those, the ones taken while the monitor held a witness.
    with_witness: usize,
    /// Satisfied, violated and unknown verdicts.
    shapes: [usize; 3],
    /// Compactions performed.
    compactions: u64,
}

fn json(v: &Verdict) -> String {
    serde_json::to_string(v).expect("verdicts serialize")
}

/// Replays `h` through `mon`, comparing its batch verdict after every
/// push with a fresh batch check of the retained history.
fn replay(h: &History, mut mon: OnlineChecker, cfg: &SearchConfig, label: &str, t: &mut Tally) {
    let batch = DuOpacity::with_config(cfg.clone());
    for (i, &ev) in h.events().iter().enumerate() {
        mon.push(ev).expect("well-formed history");
        let got = mon.batch_verdict();
        assert_eq!(
            json(&got),
            json(&batch.check(mon.history())),
            "{label}: batch verdict after event {i} ({ev})"
        );
        t.verdicts += 1;
        t.with_witness += usize::from(mon.witness().is_some());
        t.shapes[match got {
            Verdict::Satisfied(_) => 0,
            Verdict::Violated(_) => 1,
            Verdict::Unknown { .. } => 2,
        }] += 1;
    }
    t.compactions += mon.stats().compactions;
}

/// Replays `h` with compaction off and at every certified prefix.
fn replay_both(h: &History, label: &str, t: &mut Tally) {
    let cfg = SearchConfig::default();
    replay(h, OnlineChecker::new(), &cfg, label, t);
    let mut compacting = OnlineChecker::new();
    compacting.set_compact_every(Some(1));
    replay(h, compacting, &cfg, &format!("{label} compacting"), t);
}

#[test]
fn stream_serve_shape() {
    let mut t = Tally::default();
    for seed in 0..2 {
        let h =
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(128), seed).generate();
        replay_both(&h, &format!("stream-serve seed {seed}"), &mut t);
    }
    assert!(t.with_witness > t.verdicts * 9 / 10, "{t:?}");
}

#[test]
fn small_adversarial_key_distributions() {
    let dists = [
        KeyDist::Uniform,
        KeyDist::Zipfian { theta: 1.2 },
        KeyDist::Hotspot {
            hot_fraction: 0.25,
            hot_prob: 0.9,
        },
    ];
    let starved = SearchConfig {
        max_states: Some(1),
        ladder: false,
        ..SearchConfig::default()
    };
    let mut t = Tally::default();
    for dist in dists {
        let cfg = HistoryGenConfig::small_adversarial()
            .with_txns(6)
            .with_key_dist(dist);
        for seed in 0..300 {
            let h = HistoryGen::new(cfg.clone(), seed).generate();
            let label = format!("small_adversarial {dist:?} seed {seed}");
            replay_both(&h, &label, &mut t);
            // A one-state budget turns fallback searches into `Unknown`,
            // leaving witnesses certified for older prefixes only.
            let mon = OnlineChecker::with_config(starved.clone());
            replay(&h, mon, &starved, &format!("{label} starved"), &mut t);
        }
    }
    assert!(
        t.shapes.iter().all(|&n| n > 0) && t.compactions > 0,
        "{t:?}"
    );
}

#[test]
fn fault_injected_engine_runs() {
    let plan = FaultPlan::parse("abort=0.08,crash=0.08,delay=0.05,thread-crash=0.3")
        .expect("spec is valid");
    let cfg = |seed| WorkloadConfig {
        threads: 1,
        txns_per_thread: 12,
        ops_per_txn: (1, 4),
        read_ratio: 0.6,
        unique_values: true,
        max_attempts: 3,
        yield_between_ops: false,
        seed,
    };
    type EngineFactory = Box<dyn Fn() -> Box<dyn Engine>>;
    let engines: Vec<(&str, EngineFactory)> = vec![
        ("TL2", Box::new(|| Box::new(Tl2::new(5)))),
        ("NOrec", Box::new(|| Box::new(NoRec::new(5)))),
        ("DSTM", Box::new(|| Box::new(Dstm::new(5)))),
        ("eager 2PL", Box::new(|| Box::new(Eager2Pl::new(5)))),
        ("pessimistic", Box::new(|| Box::new(Pessimistic::new(5)))),
        ("dirty", Box::new(|| Box::new(DirtyRead::new(5)))),
    ];
    let mut t = Tally::default();
    for (name, make) in &engines {
        for seed in 0..20 {
            let engine = make();
            let (h, _) = run_workload_faulted(engine.as_ref(), &cfg(seed), &plan.with_seed(seed));
            replay_both(&h, &format!("{name} seed {seed}"), &mut t);
        }
    }
    assert!(t.shapes[1] > 0 && t.compactions > 0, "{t:?}");
}

/// Experiment E21's two shapes: 16-transaction simulated histories and
/// 12-transaction adversarial ones on three objects.
#[test]
fn e21_shapes() {
    let mut t = Tally::default();
    for seed in 0..40 {
        let simulated = HistoryGenConfig::medium_simulated().with_txns(16);
        let adversarial = HistoryGenConfig {
            txns: 12,
            objs: 3,
            mode: GenMode::Adversarial,
            ..HistoryGenConfig::medium_simulated()
        };
        for (name, cfg) in [("simulated", simulated), ("adversarial", adversarial)] {
            let h = HistoryGen::new(cfg, seed).generate();
            replay_both(&h, &format!("E21 {name} seed {seed}"), &mut t);
        }
    }
    assert!(t.shapes[0] > 0 && t.shapes[1] > 0, "{t:?}");
}
