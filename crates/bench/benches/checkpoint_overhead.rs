//! Checkpointing overhead for the anytime checker.
//!
//! Durability is only free if you don't use it: a `duop check` without
//! `--checkpoint` must pay nothing for the machinery, and with it the
//! cost should be the snapshot serialization, not the search. Three
//! numbers pin that down:
//!
//! * `check/no_sink_ns` — a du-opacity sweep through the resumable
//!   pipeline with no checkpoint sink set (the default path; the
//!   per-component notification finds no sink and returns).
//! * `check/sink_every1_ns` — the same sweep with a sink set on each
//!   check at `--checkpoint-every 1`, writing a real snapshot file (temp
//!   file + rename) on every decided component — the worst case a user
//!   can configure.
//! * `snapshot/save_ns` / `snapshot/load_ns` — one atomic save and one
//!   verified load of a representative mid-flight snapshot, isolating
//!   the per-flush file cost from the search.
//!
//! Custom harness (no criterion): medians are written to `BENCH_5.json`
//! at the repository root — machine-readable `{bench name: median ns}` —
//! so the perf trajectory is trackable across PRs. `--test` runs a quick
//! smoke pass without touching the JSON.

use duop_core::snapshot::{
    load, save, CheckSnapshot, CheckableCriterion, InFlight, ResumableCheck, Snapshot,
};
use duop_core::SearchConfig;
use duop_gen::{HistoryGen, HistoryGenConfig};
use duop_history::History;
use std::time::Instant;

/// Median wall-clock nanoseconds of `f` over `samples` runs.
fn median_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn corpus(seeds: u64) -> Vec<History> {
    (0..seeds)
        .map(|seed| HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate())
        .collect()
}

/// The sequential planned engine: the one the checkpoint sink observes.
fn cfg() -> SearchConfig {
    SearchConfig {
        threads: None,
        ..SearchConfig::default()
    }
}

fn sweep(corpus: &[History]) {
    for h in corpus {
        let mut rc = ResumableCheck::new();
        let (verdict, _) = rc.check(h, CheckableCriterion::DuOpacity, &cfg());
        assert!(!matches!(verdict, duop_core::Verdict::Unknown { .. }));
    }
}

fn base_snapshot(h: &History) -> CheckSnapshot {
    CheckSnapshot {
        events: h.events().to_vec(),
        criteria: vec!["du".to_string()],
        format: "text".to_string(),
        escalate_milli: 2000,
        ..CheckSnapshot::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let samples = if smoke { 5 } else { 31 };
    let seeds = if smoke { 40 } else { 120 };

    let corpus = corpus(seeds);
    let ck_path = std::env::temp_dir().join(format!("duop-bench-ck-{}.json", std::process::id()));
    let ck_path = ck_path.to_string_lossy().into_owned();

    let mut results: Vec<(String, u64)> = Vec::new();

    // No sink: the cost of having the notification hook compiled into the
    // planned search when nobody is listening.
    let no_sink_ns = median_ns(samples, || sweep(&corpus));

    // Worst-case sink: flush a real snapshot file on every decided
    // component, exactly as `duop check --checkpoint F --checkpoint-every 1`
    // does (clone the base snapshot, attach the in-flight fragments,
    // atomic temp-file + rename).
    let sink_ns = median_ns(samples, || {
        for h in &corpus {
            let base = base_snapshot(h);
            let path = ck_path.clone();
            let mut rc = ResumableCheck::new();
            rc.set_checkpoint_sink(
                1,
                Box::new(move |fragments, explored| {
                    let mut snap = base.clone();
                    snap.current = Some(InFlight {
                        name: "du".to_string(),
                        explored,
                        fragments: fragments.to_vec(),
                    });
                    let _ = save(&path, &Snapshot::Check(snap));
                }),
            );
            let (verdict, _) = rc.check(h, CheckableCriterion::DuOpacity, &cfg());
            assert!(!matches!(verdict, duop_core::Verdict::Unknown { .. }));
        }
    });
    println!(
        "checkpoint_overhead/check ({} histories): no sink {no_sink_ns} ns/sweep, \
         sink at every=1 {sink_ns} ns/sweep ({:+.1}% from checkpointing)",
        corpus.len(),
        (sink_ns as f64 / no_sink_ns as f64 - 1.0) * 100.0
    );
    results.push(("checkpoint_overhead/check/no_sink_ns".into(), no_sink_ns));
    results.push(("checkpoint_overhead/check/sink_every1_ns".into(), sink_ns));

    // The isolated per-flush cost: serialize + hash + write + rename one
    // representative mid-flight snapshot, and verify + parse it back.
    let representative = {
        let h = &corpus[corpus.len() / 2];
        let mut snap = base_snapshot(h);
        snap.current = Some(InFlight {
            name: "du".to_string(),
            explored: 4096,
            fragments: Vec::new(),
        });
        Snapshot::Check(snap)
    };
    let save_ns = median_ns(samples.max(11), || {
        save(&ck_path, &representative).expect("save");
    });
    let load_ns = median_ns(samples.max(11), || {
        let loaded = load(&ck_path).expect("load");
        assert!(matches!(loaded, Snapshot::Check(_)));
    });
    println!("checkpoint_overhead/snapshot: save {save_ns} ns, verified load {load_ns} ns");
    results.push(("checkpoint_overhead/snapshot/save_ns".into(), save_ns));
    results.push(("checkpoint_overhead/snapshot/load_ns".into(), load_ns));
    let _ = std::fs::remove_file(&ck_path);

    if smoke {
        println!("smoke run (--test): BENCH_5.json left untouched");
        return;
    }

    let mut json = String::from("{\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {ns}{comma}\n"));
    }
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    std::fs::write(path, json).expect("write BENCH_5.json");
    println!("wrote {path}");
}
