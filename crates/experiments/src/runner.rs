//! The experiment suite: every figure and theorem of the paper, re-derived
//! mechanically. Consumed by the `experiments` binary and the integration
//! tests; EXPERIMENTS.md records its output.

use crate::figures;
use duop_core::lemmas::{live_set_reorder, restrict_witness};
use duop_core::unique::{check_unique_writes_fast, has_unique_writes};
use duop_core::{
    check_witness, Criterion, CriterionKind, DuOpacity, FinalStateOpacity, Opacity,
    ReadCommitOrderOpacity, SearchConfig, Tms2,
};
use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::History;
use duop_stm::engines::{DirtyRead, Eager2Pl, NoRec, Tl2};
use duop_stm::{run_workload, Engine, WorkloadConfig};

/// Outcome of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment identifier (E1–E10).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// The paper's claim.
    pub claim: &'static str,
    /// What we measured.
    pub measured: String,
    /// Whether the measurement confirms the claim.
    pub pass: bool,
}

/// Runs every experiment serially under the default search pipeline.
/// `quick` trims the statistical sample sizes (used by the integration
/// tests); the binary runs the full sizes.
pub fn run_all(quick: bool) -> Vec<ExperimentResult> {
    run_all_with(quick, 1, &SearchConfig::default())
}

/// As [`run_all`], fanning the corpus experiments (E7–E9, E11, E13, E14)
/// out over `threads` workers with [`duop_core::par_map`], with every
/// checker of E1–E18 and E20 built from `base`. Results are identical to
/// the serial run — per-seed work is independent and is reduced in seed
/// order. The STM experiments (E10, E12) stay serial because their
/// workloads already spawn real threads.
pub fn run_all_with(quick: bool, threads: usize, base: &SearchConfig) -> Vec<ExperimentResult> {
    vec![
        e1_fig1(base),
        e2_fig2(base),
        e3_fig3(base),
        e4_fig4(base),
        e5_fig5(base),
        e6_fig6(base),
        e7_theorem11(if quick { 60 } else { 400 }, threads, base),
        e8_prefix_closure(if quick { 30 } else { 150 }, threads, base),
        e9_lemma4(if quick { 30 } else { 150 }, threads, base),
        e10_stm(if quick { 4 } else { 20 }, base),
        e11_tms2_conjecture(if quick { 80 } else { 300 }, threads, base),
        e12_pessimistic(if quick { 4 } else { 20 }, base),
        e13_search_ablation(if quick { 40 } else { 150 }, threads, base),
        e14_discrimination(if quick { 60 } else { 250 }, threads, base),
        e15_lint_agreement(if quick { 40 } else { 150 }, threads, base),
        e16_crash_consistency(if quick { 6 } else { 25 }, base),
        e17_kill_resume(if quick { 60 } else { 150 }, threads, base),
        e18_trace_ingestion(quick, threads, base),
        e19_sharded_equivalence(if quick { 6 } else { 20 }),
        e20_three_way_certified(if quick { 60 } else { 200 }, threads, base),
        e21_serve_equivalence(if quick { 10 } else { 40 }, threads),
        e22_remote_shard(if quick { 4 } else { 12 }),
    ]
}

/// The command E19 spawns shard workers with. The `experiments` binary
/// registers itself (it carries the `shard-worker` hook at the top of
/// its `main`); embedding test harnesses have no such hook, so when
/// nothing is registered E19 falls back to the sibling `duop` binary in
/// the same target directory.
static SHARD_WORKER_CMD: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();

/// Registers the worker command for [`run_all`]'s sharded-equivalence
/// experiment (first registration wins). The command must speak the
/// shard protocol on stdin/stdout.
pub fn set_shard_worker_cmd(cmd: Vec<String>) {
    let _ = SHARD_WORKER_CMD.set(cmd);
}

fn shard_worker_cmd() -> Option<Vec<String>> {
    if let Some(cmd) = SHARD_WORKER_CMD.get() {
        return Some(cmd.clone());
    }
    // Test harnesses run from target/<profile>/deps/<test-bin>; the CLI
    // binary whose hidden `shard-worker` mode is the canonical worker
    // lives one or two directories up.
    let exe = std::env::current_exe().ok()?;
    let name = format!("duop{}", std::env::consts::EXE_SUFFIX);
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join(&name))
        .find(|cand| cand.is_file())
        .map(|path| {
            vec![
                path.to_string_lossy().into_owned(),
                "shard-worker".to_owned(),
            ]
        })
}

/// Maps `f` over the seed range `0..samples` on `threads` workers,
/// returning per-seed rows in seed order.
fn par_seeds<R, F>(samples: u64, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let seeds: Vec<u64> = (0..samples).collect();
    duop_core::par_map(&seeds, threads, |&seed| f(seed))
}

/// A configured criterion the corpus experiments share across workers.
type Checker = Box<dyn Criterion + Sync>;

fn verdict_str(sat: bool) -> &'static str {
    if sat {
        "sat"
    } else {
        "viol"
    }
}

fn e1_fig1(base: &SearchConfig) -> ExperimentResult {
    let h = figures::fig1();
    let du = DuOpacity::with_config(base.clone()).check(&h);
    let papers = duop_core::Witness::new(
        vec![2, 3, 1, 4]
            .into_iter()
            .map(duop_history::TxnId::new)
            .collect(),
        Default::default(),
    );
    let papers_ok = check_witness(&h, &papers, CriterionKind::DuOpacity).is_ok();
    let pass = du.is_satisfied() && papers_ok;
    ExperimentResult {
        id: "E1",
        title: "Figure 1",
        claim: "du-opaque, with serialization T2·T3·T1·T4",
        measured: format!(
            "du-opacity {}; paper's witness T2·T3·T1·T4 {}",
            verdict_str(du.is_satisfied()),
            if papers_ok { "validates" } else { "rejected" }
        ),
        pass,
    }
}

fn e2_fig2(base: &SearchConfig) -> ExperimentResult {
    let du = DuOpacity::with_config(base.clone());
    let sizes = [1usize, 2, 4, 8, 16, 32];
    let mut all_du = true;
    let mut positions = Vec::new();
    for &n in &sizes {
        let h = figures::fig2_prefix(n);
        match du.check(&h).witness().cloned() {
            Some(w) => {
                let p1 = w.position(duop_history::TxnId::new(1)).unwrap();
                positions.push(p1);
                if p1 < n {
                    all_du = false;
                }
            }
            None => all_du = false,
        }
    }
    let diverges = positions.windows(2).all(|w| w[1] > w[0]);
    ExperimentResult {
        id: "E2",
        title: "Figure 2 / Proposition 1",
        claim: "every finite prefix du-opaque; T1's witness position is unbounded (no limit serialization)",
        measured: format!(
            "prefixes with {sizes:?} readers all du-opaque: {all_du}; T1 witness positions {positions:?} strictly increase: {diverges}"
        ),
        pass: all_du && diverges,
    }
}

fn e3_fig3(base: &SearchConfig) -> ExperimentResult {
    let h = figures::fig3();
    let fso = FinalStateOpacity::with_config(base.clone());
    let fso_full = fso.check(&h).is_satisfied();
    let fso_prefix = fso.check(&h.prefix(figures::FIG3_PREFIX_LEN));
    let opaque = Opacity::with_config(base.clone()).check(&h).is_satisfied();
    ExperimentResult {
        id: "E3",
        title: "Figure 3",
        claim: "final-state opaque, but its prefix H' is not (FSO is not prefix-closed)",
        measured: format!(
            "H: final-state {}; H' (4 events): final-state {}; opacity {}",
            verdict_str(fso_full),
            verdict_str(fso_prefix.is_satisfied()),
            verdict_str(opaque)
        ),
        pass: fso_full && !fso_prefix.is_satisfied() && !opaque,
    }
}

fn e4_fig4(base: &SearchConfig) -> ExperimentResult {
    let h = figures::fig4();
    let opaque = Opacity::with_config(base.clone()).check(&h).is_satisfied();
    let du = DuOpacity::with_config(base.clone()).check(&h);
    ExperimentResult {
        id: "E4",
        title: "Figure 4 / Proposition 2, Theorem 10",
        claim: "opaque but not du-opaque (DU-Opacity ⊊ Opacity)",
        measured: format!(
            "opacity {}; du-opacity {}",
            verdict_str(opaque),
            verdict_str(du.is_satisfied())
        ),
        pass: opaque && !du.is_satisfied(),
    }
}

fn e5_fig5(base: &SearchConfig) -> ExperimentResult {
    let h = figures::fig5();
    let du = DuOpacity::with_config(base.clone()).check(&h);
    let rco = ReadCommitOrderOpacity::with_config(base.clone()).check(&h);
    ExperimentResult {
        id: "E5",
        title: "Figure 5",
        claim: "sequential, du-opaque, but not opaque per the read-commit-order definition [6]",
        measured: format!(
            "sequential: {}; du-opacity {}; read-commit-order {}",
            h.is_sequential(),
            verdict_str(du.is_satisfied()),
            verdict_str(rco.is_satisfied())
        ),
        pass: h.is_sequential() && du.is_satisfied() && !rco.is_satisfied(),
    }
}

fn e6_fig6(base: &SearchConfig) -> ExperimentResult {
    let h = figures::fig6();
    let du = DuOpacity::with_config(base.clone())
        .check(&h)
        .is_satisfied();
    let tms2 = Tms2::with_config(base.clone()).check(&h).is_satisfied();
    ExperimentResult {
        id: "E6",
        title: "Figure 6",
        claim: "du-opaque but not TMS2",
        measured: format!("du-opacity {}; TMS2 {}", verdict_str(du), verdict_str(tms2)),
        pass: du && !tms2,
    }
}

fn e7_theorem11(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    let opacity = Opacity::with_config(base.clone());
    let du_opacity = DuOpacity::with_config(base.clone());
    let cfg = HistoryGenConfig {
        unique_writes: true,
        mode: GenMode::Adversarial,
        ..HistoryGenConfig::small_adversarial()
    };
    // Per seed: (agrees, fast path fell back, du-satisfiable); None when
    // the generated history is outside the unique-writes regime.
    let rows = par_seeds(samples, threads, |seed| {
        let h = HistoryGen::new(cfg.clone(), seed).generate();
        if !has_unique_writes(&h) {
            return None;
        }
        let opaque = opacity.check(&h).is_satisfied();
        let du = du_opacity.check(&h).is_satisfied();
        let (fast, stats) = check_unique_writes_fast(&h);
        Some((
            opaque == du && fast.is_satisfied() == du,
            stats.fell_back,
            du,
        ))
    });
    let total = rows.iter().flatten().count() as u64;
    let agree = rows.iter().flatten().filter(|r| r.0).count() as u64;
    let fallbacks = rows.iter().flatten().filter(|r| r.1).count() as u64;
    let sat = rows.iter().flatten().filter(|r| r.2).count() as u64;
    ExperimentResult {
        id: "E7",
        title: "Theorem 11 (unique writes)",
        claim: "under unique writes, Opacity = DU-Opacity; fast path agrees with search",
        measured: format!(
            "{agree}/{total} histories agree across opacity, du-opacity and the fast path ({sat} satisfiable, {fallbacks} fast-path fallbacks)"
        ),
        pass: total > 0 && agree == total,
    }
}

fn e8_prefix_closure(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    let du = DuOpacity::with_config(base.clone());
    let rows = par_seeds(samples, threads, |seed| {
        let h = HistoryGen::new(HistoryGenConfig::small_simulated(), seed).generate();
        let Some(w) = du.check(&h).witness().cloned() else {
            return (0u64, false);
        };
        let mut checked = 0u64;
        let mut ok = true;
        for i in 0..=h.len() {
            let prefix = h.prefix(i);
            let restricted = restrict_witness(&h, &w, i);
            if check_witness(&prefix, &restricted, CriterionKind::DuOpacity).is_err() {
                ok = false;
            }
            checked += 1;
        }
        (checked, ok)
    });
    let checked: u64 = rows.iter().map(|r| r.0).sum();
    let ok = rows.iter().all(|r| r.1);
    ExperimentResult {
        id: "E8",
        title: "Lemma 1 / Corollary 2 (prefix-closure)",
        claim: "the restriction of a du-serialization serializes every prefix",
        measured: format!("{checked} prefix witnesses constructed and validated"),
        pass: ok && checked > 0,
    }
}

fn e9_lemma4(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    let du = DuOpacity::with_config(base.clone());
    let cfg = HistoryGenConfig {
        stall_prob: 0.0,
        ..HistoryGenConfig::small_simulated()
    };
    // Per seed: Some(lemma holds); None when the history is incomplete.
    let rows = par_seeds(samples, threads, |seed| {
        let h = HistoryGen::new(cfg.clone(), seed).generate();
        if !h.is_complete() {
            return None;
        }
        let Some(w) = du.check(&h).witness().cloned() else {
            return Some(false);
        };
        let reordered = live_set_reorder(&h, &w);
        let mut ok = check_witness(&h, &reordered, CriterionKind::DuOpacity).is_ok();
        let ids: Vec<_> = h.txn_ids().collect();
        for &a in &ids {
            for &b in &ids {
                if a != b
                    && h.precedes_ls(a, b)
                    && reordered.position(a).unwrap() >= reordered.position(b).unwrap()
                {
                    ok = false;
                }
            }
        }
        Some(ok)
    });
    let checked = rows.iter().flatten().count() as u64;
    let ok = rows.iter().flatten().all(|&b| b);
    ExperimentResult {
        id: "E9",
        title: "Lemma 4 (live-set reordering)",
        claim: "on complete histories, serializations can be reordered to respect ≺LS",
        measured: format!("{checked} witnesses reordered and revalidated"),
        pass: ok && checked > 0,
    }
}

fn e11_tms2_conjecture(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    use duop_core::tms2_automaton::{check_tms2_automaton, replay};

    let du = DuOpacity::with_config(base.clone());
    // The conjecture, against its actual subject: every history accepted
    // by the full TMS2 automaton must be du-opaque.
    // Per seed: (accepted, replayed, du-holds) over both generator modes.
    let rows = par_seeds(samples, threads, |seed| {
        let mut acc = (0u64, 0u64, 0u64);
        for cfg in [
            HistoryGenConfig::small_adversarial(),
            HistoryGenConfig::small_simulated(),
        ] {
            let h = HistoryGen::new(cfg, seed).generate();
            let verdict = check_tms2_automaton(&h, Some(2_000_000));
            if let Some(exec) = verdict.execution() {
                acc.0 += 1;
                if replay(&h, exec).is_ok() {
                    acc.1 += 1;
                }
                if du.check(&h).is_satisfied() {
                    acc.2 += 1;
                }
            }
        }
        acc
    });
    let accepted: u64 = rows.iter().map(|r| r.0).sum();
    let replayed: u64 = rows.iter().map(|r| r.1).sum();
    let du_holds: u64 = rows.iter().map(|r| r.2).sum();
    // The rendering gap: the informal Section 4.2 condition accepts a
    // history the automaton (and du-opacity) rejects.
    let gap = figures::tms2_rendering_gap();
    let rendering_accepts = Tms2::with_config(base.clone()).check(&gap).is_satisfied();
    let automaton_rejects = !check_tms2_automaton(&gap, None).is_accepted();
    let du_rejects = du.check(&gap).is_violated();
    let fig6_rejected = !check_tms2_automaton(&figures::fig6(), None).is_accepted();

    let pass = accepted > 0
        && du_holds == accepted
        && replayed == accepted
        && rendering_accepts
        && automaton_rejects
        && du_rejects
        && fig6_rejected;
    ExperimentResult {
        id: "E11",
        title: "TMS2 conjecture (Section 4.2), via the full automaton",
        claim: "every TMS2 history is du-opaque (conjectured); Figure 6 is not TMS2",
        measured: format!(
            "full-automaton checker: {accepted} corpus histories accepted, {du_holds} du-opaque, {replayed} certificates replay; Figure 6 rejected by the automaton: {fig6_rejected}; the informal rendering's gap history is accepted by the rendering ({rendering_accepts}) but rejected by the automaton ({automaton_rejects}) and by du-opacity ({du_rejects})"
        ),
        pass,
    }
}

fn e14_discrimination(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    use duop_core::tms2_automaton::check_tms2_automaton;

    // How often do the criteria actually disagree? Satisfaction rates over
    // an adversarial corpus, ordered by strictness. The counts quantify
    // the hierarchy the figures establish pointwise.
    let checkers: [Checker; 5] = [
        Box::new(duop_core::StrictSerializability::with_config(base.clone())),
        Box::new(FinalStateOpacity::with_config(base.clone())),
        Box::new(Opacity::with_config(base.clone())),
        Box::new(DuOpacity::with_config(base.clone())),
        Box::new(ReadCommitOrderOpacity::with_config(base.clone())),
    ];
    let rows = par_seeds(samples, threads, |seed| {
        let h = HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate();
        let mut row: Vec<bool> = checkers
            .iter()
            .map(|c| c.check(&h).is_satisfied())
            .collect();
        row.push(check_tms2_automaton(&h, Some(2_000_000)).is_accepted());
        row
    });
    let n = rows.len() as u64;
    let mut sat = [0u64; 6]; // strict, fso, opacity, du, rco, tms2-automaton
    for row in &rows {
        for (slot, v) in sat.iter_mut().zip(row) {
            if *v {
                *slot += 1;
            }
        }
    }
    // Monotone non-increasing along strict ⊇ fso ⊇ opacity ⊇ du ⊇ rco and
    // du ⊇ tms2-automaton (on this corpus).
    let monotone = sat[0] >= sat[1]
        && sat[1] >= sat[2]
        && sat[2] >= sat[3]
        && sat[3] >= sat[4]
        && sat[3] >= sat[5];
    ExperimentResult {
        id: "E14",
        title: "Criterion discrimination rates",
        claim: "the hierarchy strict ⊇ FSO ⊇ opacity ⊇ du ⊇ RCO (and du ⊇ TMS2) holds pointwise",
        measured: format!(
            "satisfaction over {n} adversarial histories: strict {}, final-state {}, opacity {}, du {}, rco {}, tms2-automaton {}; monotone: {monotone}",
            sat[0], sat[1], sat[2], sat[3], sat[4], sat[5]
        ),
        pass: monotone && n > 0,
    }
}

fn e13_search_ablation(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    // Quantify the two design choices DESIGN.md calls out: failed-state
    // memoization and forward feasibility pruning. Compare explored-state
    // counts with memoization on vs off across a mixed corpus, and count
    // the work the dead-end pruner saves on Figure-2-style histories.
    let memo_on = DuOpacity::with_config(SearchConfig {
        memo: true,
        ..base.clone()
    });
    let memo_off = DuOpacity::with_config(SearchConfig {
        memo: false,
        max_states: Some(2_000_000),
        ..base.clone()
    });
    let rows = par_seeds(samples, threads, |seed| {
        let h = HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate();
        let on = memo_on.check_with_stats(&h);
        let off = memo_off.check_with_stats(&h);
        let agree = matches!(off.0, duop_core::Verdict::Unknown { .. })
            || on.0.is_satisfied() == off.0.is_satisfied();
        (on.1, off.1, agree)
    });
    let explored_on: u64 = rows.iter().map(|r| r.0.explored).sum();
    let explored_off: u64 = rows.iter().map(|r| r.1.explored).sum();
    let memo_hits: u64 = rows.iter().map(|r| r.0.memo_hits).sum();
    let dead_ends: u64 = rows.iter().map(|r| r.0.dead_ends).sum();
    let agree = rows.iter().all(|r| r.2);
    // The dead-end pruner is what makes Figure 2 linear; measure it.
    let fig2 = figures::fig2_prefix(64);
    let (v, fig2_stats) = memo_on.check_with_stats(&fig2);
    let fig2_linear = v.is_satisfied() && fig2_stats.explored <= 4 * (fig2.txn_count() as u64);

    ExperimentResult {
        id: "E13",
        title: "Search ablation (memoization + dead-end pruning)",
        claim: "design choices in DESIGN.md §6: lossless memoization and feasibility pruning keep the NP-hard search practical",
        measured: format!(
            "du-opacity over {samples} adversarial histories: {explored_on} states with memo vs {explored_off} without ({memo_hits} memo hits, {dead_ends} dead-end prunes); verdicts agree: {agree}; Figure 2 with 64 readers explored {} states for {} transactions (linear: {fig2_linear})",
            fig2_stats.explored,
            fig2.txn_count(),
        ),
        pass: agree && explored_on <= explored_off && fig2_linear,
    }
}

fn e15_lint_agreement(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    use duop_core::lint::{lint, LintScope};

    // The lint soundness contract, measured: whenever an Error-severity
    // diagnostic refutes a criterion scope, the full (prelint-off) search
    // for that criterion must say Violated; and turning the prefilter on
    // must never change any is_satisfied answer.
    let no_prelint = || SearchConfig {
        prelint: false,
        ..base.clone()
    };
    let with_prelint = || SearchConfig {
        prelint: true,
        ..base.clone()
    };
    let checks: [(LintScope, Checker, Checker); 3] = [
        (
            LintScope::Du,
            Box::new(DuOpacity::with_config(no_prelint())),
            Box::new(DuOpacity::with_config(with_prelint())),
        ),
        (
            LintScope::Rco,
            Box::new(ReadCommitOrderOpacity::with_config(no_prelint())),
            Box::new(ReadCommitOrderOpacity::with_config(with_prelint())),
        ),
        (
            LintScope::Tms2,
            Box::new(Tms2::with_config(no_prelint())),
            Box::new(Tms2::with_config(with_prelint())),
        ),
    ];
    let rows = par_seeds(samples, threads, |seed| {
        let h = HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate();
        let report = lint(&h);
        let mut sound = true;
        let mut agree = true;
        let mut refuted = 0u64;
        for (scope, off, on) in &checks {
            let off_verdict = off.check(&h);
            let on_verdict = on.check(&h);
            agree &= off_verdict.is_satisfied() == on_verdict.is_satisfied();
            if report.first_error_for(*scope).is_some() {
                refuted += 1;
                sound &= off_verdict.is_violated();
            }
        }
        (sound, agree, refuted)
    });
    let sound = rows.iter().all(|r| r.0);
    let agree = rows.iter().all(|r| r.1);
    let refuted: u64 = rows.iter().map(|r| r.2).sum();
    let total = samples * 3;

    ExperimentResult {
        id: "E15",
        title: "Lint-vs-search agreement (prefilter soundness)",
        claim: "every Error-severity lint rule is a necessary condition: lint refutations imply search violations, and the prefilter changes no verdict",
        measured: format!(
            "{samples} adversarial histories x 3 criteria (du, rco, tms2): {refuted}/{total} checks lint-refuted; every refutation confirmed by the full search: {sound}; prelint on/off verdicts agree: {agree}"
        ),
        pass: sound && agree && refuted > 0,
    }
}

fn e12_pessimistic(runs: u64, base: &SearchConfig) -> ExperimentResult {
    use duop_stm::engines::{Dstm, Pessimistic};

    let du = DuOpacity::with_config(base.clone());
    // DSTM (stamp-validated, deferred update): du-opaque in every run.
    let mut dstm_du = true;
    for seed in 0..runs {
        let engine = Dstm::new(6);
        let cfg = WorkloadConfig {
            threads: 4,
            txns_per_thread: 10,
            ops_per_txn: (1, 4),
            read_ratio: 0.6,
            unique_values: false,
            max_attempts: 3,
            yield_between_ops: false,
            seed,
        };
        let (h, _) = run_workload(&engine, &cfg);
        dstm_du &= du.check(&h).is_satisfied();
    }

    // Pessimistic (no-abort, in-place): never aborts, and contended runs
    // produce du-opacity violations — the paper's Section 5 claim.
    let mut caught = 0u64;
    let mut hunted = 0u64;
    let mut aborts = 0usize;
    for seed in 0..200u64 {
        hunted += 1;
        let engine = Pessimistic::new(2);
        let cfg = WorkloadConfig {
            threads: 8,
            txns_per_thread: 12,
            ops_per_txn: (2, 5),
            read_ratio: 0.5,
            unique_values: true,
            max_attempts: 1,
            yield_between_ops: true,
            seed,
        };
        let (h, stats) = run_workload(&engine, &cfg);
        aborts += stats.aborted;
        if du.check(&h).is_violated() {
            caught += 1;
            if caught >= runs {
                break;
            }
        }
    }

    ExperimentResult {
        id: "E12",
        title: "DSTM + pessimistic STM (Section 5)",
        claim: "DSTM is du-opaque; the pessimistic no-abort STM [1] is not du-opaque",
        measured: format!(
            "DSTM du-opaque in {runs}/{runs} runs: {dstm_du}; pessimistic engine: {aborts} aborts (never aborts), {caught} du-opacity violations caught across {hunted} contended runs"
        ),
        pass: dstm_du && aborts == 0 && caught > 0,
    }
}

fn e10_stm(runs: u64, base: &SearchConfig) -> ExperimentResult {
    let mut lines = Vec::new();
    let mut pass = true;
    let du_opacity = DuOpacity::with_config(base.clone());
    let fso_opacity = FinalStateOpacity::with_config(base.clone());

    let check_engine =
        |engine: &dyn Engine, unique: bool, seed: u64| -> (bool, bool, usize, usize) {
            let cfg = WorkloadConfig {
                threads: 4,
                txns_per_thread: 10,
                ops_per_txn: (1, 4),
                read_ratio: 0.6,
                unique_values: unique,
                max_attempts: 3,
                yield_between_ops: false,
                seed,
            };
            let (h, stats) = run_workload(engine, &cfg);
            let du = du_opacity.check(&h).is_satisfied();
            let fso = fso_opacity.check(&h).is_satisfied();
            (du, fso, stats.committed, stats.aborted)
        };

    // TL2 and eager 2PL: du-opaque in every run.
    type EngineFactory = Box<dyn Fn() -> Box<dyn Engine>>;
    let factories: Vec<(&str, EngineFactory)> = vec![
        ("TL2", Box::new(|| Box::new(Tl2::new(6)))),
        ("eager 2PL", Box::new(|| Box::new(Eager2Pl::new(6)))),
    ];
    for (name, make) in factories {
        let mut du_all = true;
        let mut committed = 0usize;
        let mut aborted = 0usize;
        for seed in 0..runs {
            let engine = make();
            let (du, _, c, a) = check_engine(engine.as_ref(), false, seed);
            du_all &= du;
            committed += c;
            aborted += a;
        }
        lines.push(format!(
            "{name}: du-opaque {}/{} runs ({committed} commits, {aborted} aborts)",
            if du_all { runs } else { 0 },
            runs
        ));
        pass &= du_all;
    }

    // NOrec: du-opaque with unique values; final-state opaque always; the
    // ABA regime (small value domain) may lose du-opacity.
    {
        let mut du_unique = true;
        let mut fso_all = true;
        let mut aba_du_violations = 0u64;
        for seed in 0..runs {
            let engine = NoRec::new(6);
            let (du, _, _, _) = check_engine(&engine, true, seed);
            du_unique &= du;
            let engine = NoRec::new(2);
            let (du_aba, fso, _, _) = check_engine(&engine, false, seed);
            fso_all &= fso;
            if !du_aba {
                aba_du_violations += 1;
            }
        }
        lines.push(format!(
            "NOrec: du-opaque with unique values {}/{} runs; final-state opaque {}/{} runs; ABA regime lost du-opacity in {aba_du_violations} runs",
            if du_unique { runs } else { 0 },
            runs,
            if fso_all { runs } else { 0 },
            runs,
        ));
        pass &= du_unique && fso_all;
    }

    // Dirty-read: violations must be caught. The interleaving is
    // timing-dependent, so hunt across seeds (yielding between operations
    // to widen race windows) until one surfaces.
    {
        let mut caught = 0u64;
        let mut hunted = 0u64;
        for seed in 0..200u64 {
            hunted += 1;
            let engine = DirtyRead::new(1);
            let cfg = WorkloadConfig {
                threads: 8,
                txns_per_thread: 16,
                ops_per_txn: (3, 6),
                read_ratio: 0.5,
                unique_values: true,
                max_attempts: 1,
                yield_between_ops: true,
                seed,
            };
            let (h, _) = run_workload(&engine, &cfg);
            if du_opacity.check(&h).is_violated() {
                caught += 1;
                if caught >= runs {
                    break;
                }
            }
        }
        lines.push(format!(
            "dirty-read: {caught} du-opacity violations caught across {hunted} contended runs"
        ));
        pass &= caught > 0;
    }

    ExperimentResult {
        id: "E10",
        title: "STM engines (Section 5 discussion)",
        claim: "deferred-update engines produce du-opaque histories; the unsafe engine is rejected",
        measured: lines.join(" | "),
        pass,
    }
}

/// E16: crash consistency under deterministic fault injection. Every
/// fault-injected run of the five safe engines must record a du-opaque
/// history — and, by Lemma 1, so must every prefix of it (crashes leave
/// pending operations and commit-pending transactions dangling, which is
/// exactly what prefixes exercise) — while the dirty engine's leaked
/// in-place writes are refuted. Every verdict must be decided: a crash
/// must never push the checker into `Unknown`.
fn e16_crash_consistency(runs: u64, base: &SearchConfig) -> ExperimentResult {
    use duop_stm::engines::{Dstm, Pessimistic};
    use duop_stm::{run_workload_faulted, FaultPlan};

    let du = DuOpacity::with_config(base.clone());
    let plan = FaultPlan::parse("abort=0.08,crash=0.08,delay=0.05,thread-crash=0.3")
        .expect("spec is valid");
    // Single worker thread: the run (and any finding) replays exactly
    // from the seed, and the pessimistic engine — which is only unsafe
    // under contention — is expected to stay du-opaque here.
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
    let safe: Vec<(&str, EngineFactory)> = vec![
        ("TL2", Box::new(|| Box::new(Tl2::new(5)))),
        ("NOrec", Box::new(|| Box::new(NoRec::new(5)))),
        ("DSTM", Box::new(|| Box::new(Dstm::new(5)))),
        ("eager 2PL", Box::new(|| Box::new(Eager2Pl::new(5)))),
        ("pessimistic", Box::new(|| Box::new(Pessimistic::new(5)))),
    ];
    let mut safe_ok = true;
    let mut histories = 0u64;
    let mut prefixes = 0u64;
    let mut crashed = 0usize;
    let mut undecided = 0u64;
    for (_, make) in &safe {
        for seed in 0..runs {
            let engine = make();
            let (h, stats) =
                run_workload_faulted(engine.as_ref(), &cfg(seed), &plan.with_seed(seed));
            crashed += stats.crashed;
            let verdict = du.check(&h);
            if matches!(verdict, duop_core::Verdict::Unknown { .. }) {
                undecided += 1;
            }
            let Some(w) = verdict.witness().cloned() else {
                safe_ok = false;
                continue;
            };
            histories += 1;
            for i in 0..=h.len() {
                let prefix = h.prefix(i);
                let restricted = restrict_witness(&h, &w, i);
                if check_witness(&prefix, &restricted, CriterionKind::DuOpacity).is_err() {
                    safe_ok = false;
                }
                prefixes += 1;
            }
        }
    }

    // The negative control: under the same faults the dirty engine leaks
    // in-place writes of crashed transactions, and the checker must say so.
    let mut dirty_refuted = 0u64;
    for seed in 0..runs.max(20) {
        let engine = DirtyRead::new(5);
        let (h, _) = run_workload_faulted(&engine, &cfg(seed), &plan.with_seed(seed));
        let verdict = du.check(&h);
        if matches!(verdict, duop_core::Verdict::Unknown { .. }) {
            undecided += 1;
        }
        if verdict.is_violated() {
            dirty_refuted += 1;
        }
    }

    let pass = safe_ok && histories > 0 && crashed > 0 && dirty_refuted > 0 && undecided == 0;
    ExperimentResult {
        id: "E16",
        title: "Crash consistency under fault injection",
        claim: "deferred-update engines stay du-opaque (all prefixes included) under injected aborts and crashes; the dirty engine is refuted; every verdict is decided",
        measured: format!(
            "{histories} fault-injected histories du-opaque across 5 engines ({crashed} crashed attempts); {prefixes} prefix witnesses validated; dirty engine refuted in {dirty_refuted} runs; {undecided} undecided verdicts"
        ),
        pass,
    }
}

/// E17: kill/resume equivalence for the anytime checker. Every (seed,
/// kill-point) pair simulates a mid-flight death — a budgeted
/// [`ResumableCheck`] that trips, exports its decided component
/// fragments (a sample of them round-tripped through the real snapshot
/// file format), and resumes in a fresh driver with the budget lifted.
/// The resumed verdict must equal the uninterrupted run's on every pair,
/// and on at least one multi-component pair the resumed search must
/// explore strictly fewer states than from scratch (cached fragments
/// replay instead of re-searching). A real SIGKILL + `duop resume` of
/// the same pipeline runs in CI; this experiment covers the state-space
/// contract at corpus scale.
fn e17_kill_resume(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    use duop_core::snapshot::{
        load, save, CheckSnapshot, CheckableCriterion, InFlight, ResumableCheck, Snapshot,
    };
    use duop_core::Verdict;
    use duop_history::{HistoryBuilder, ObjId, TxnId, Value};

    // Sequential planned engine (fragments flow through it only there,
    // so decomposition stays on even under `--no-decompose`), prelint off
    // (every pair actually searches) and ladder off (the budget genuinely
    // trips instead of being soundly rescued).
    let cfg = |max_states: Option<u64>| SearchConfig {
        decompose: true,
        prelint: false,
        ladder: false,
        max_states,
        ..base.clone()
    };

    // Fully concurrent independent write/read clusters on distinct
    // objects: guaranteed multi-component, so a tripped budget has
    // decided fragments to carry across the kill.
    let multi_cluster = |clusters: u64, seed: u64| {
        let mut b = HistoryBuilder::new();
        for c in 0..clusters {
            let writer = TxnId::new((2 * c + 1) as u32);
            let val = Value::new(seed * 10 + c + 1);
            b = b
                .inv_write(writer, ObjId::new(c as u32), val)
                .resp_ok(writer);
        }
        for c in 0..clusters {
            b = b.inv_try_commit(TxnId::new((2 * c + 1) as u32));
        }
        for c in 0..clusters {
            let reader = TxnId::new((2 * c + 2) as u32);
            let val = Value::new(seed * 10 + c + 1);
            b = b.read(reader, ObjId::new(c as u32), val);
        }
        for c in 0..clusters {
            b = b.commit(TxnId::new((2 * c + 2) as u32));
        }
        b.build()
    };

    // Per seed: rows of (verdict_equal, resumed_explored, fresh_explored,
    // fragments_carried, roundtripped).
    let rows = par_seeds(samples, threads, |seed| {
        let h = match seed % 4 {
            0 => multi_cluster(2 + seed % 3, seed),
            1 => HistoryGen::new(HistoryGenConfig::small_simulated(), seed).generate(),
            _ => HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate(),
        };
        let (truth, fresh_stats) =
            ResumableCheck::new().check(&h, CheckableCriterion::DuOpacity, &cfg(None));
        if matches!(truth, Verdict::Unknown { .. }) {
            return Vec::new();
        }
        // Kill points: budgets strictly below the uninterrupted explored
        // count, so the budgeted attempt is guaranteed to die mid-search.
        let mut kills = vec![
            1u64,
            fresh_stats.explored / 2,
            fresh_stats.explored.saturating_sub(1),
        ];
        kills.sort_unstable();
        kills.dedup();
        let mut out = Vec::new();
        for &budget in kills.iter().filter(|&&b| b > 0 && b < fresh_stats.explored) {
            let mut killed = ResumableCheck::new();
            let (v1, _) = killed.check(&h, CheckableCriterion::DuOpacity, &cfg(Some(budget)));
            if !matches!(v1, Verdict::Unknown { .. }) {
                // Memoization can decide under a budget the unbudgeted
                // run exceeded; that is not a kill, skip the pair.
                continue;
            }
            let mut fragments = killed.fragments();
            let carried = !fragments.is_empty();

            // A sample of pairs round-trips the fragments through the
            // real checkpoint file format (save → load → resume).
            let mut roundtripped = false;
            if seed % 3 == 0 && budget == 1 {
                let path =
                    std::env::temp_dir().join(format!("duop-e17-{}-{seed}.ck", std::process::id()));
                let path = path.to_string_lossy().into_owned();
                let snap = Snapshot::Check(CheckSnapshot {
                    events: h.events().to_vec(),
                    criteria: vec!["du".to_string()],
                    format: "text".to_string(),
                    search: cfg(Some(budget)),
                    escalate_milli: 2000,
                    current: Some(InFlight {
                        name: "du".to_string(),
                        explored: budget,
                        fragments: fragments.clone(),
                    }),
                    ..CheckSnapshot::default()
                });
                if save(&path, &snap).is_ok() {
                    if let Ok(Snapshot::Check(cs)) = load(&path) {
                        if let Some(current) = cs.current {
                            fragments = current.fragments;
                            roundtripped = true;
                        }
                    }
                    let _ = std::fs::remove_file(&path);
                }
            }

            let mut resumed = ResumableCheck::new();
            resumed.preload(fragments);
            let (v2, resumed_stats) = resumed.check(&h, CheckableCriterion::DuOpacity, &cfg(None));
            let equal = v2.is_satisfied() == truth.is_satisfied()
                && v2.is_violated() == truth.is_violated();
            out.push((
                equal,
                resumed_stats.explored,
                fresh_stats.explored,
                carried,
                roundtripped,
            ));
        }
        out
    });

    let pairs: Vec<_> = rows.into_iter().flatten().collect();
    let total = pairs.len() as u64;
    let equal = pairs.iter().filter(|p| p.0).count() as u64;
    let strictly_below = pairs.iter().filter(|p| p.1 < p.2).count() as u64;
    let carried = pairs.iter().filter(|p| p.3).count() as u64;
    let roundtripped = pairs.iter().filter(|p| p.4).count() as u64;
    let pass = total >= 50 && equal == total && strictly_below >= 1 && roundtripped >= 1;
    ExperimentResult {
        id: "E17",
        title: "Kill/resume equivalence (anytime checking)",
        claim: "resuming a killed check from its checkpoint reaches the uninterrupted verdict, reusing decided components",
        measured: format!(
            "{equal}/{total} (seed, kill-point) pairs resume to the uninterrupted verdict; {carried} carried decided fragments across the kill ({roundtripped} via the on-disk snapshot format); resumed search explored strictly fewer states on {strictly_below} pairs"
        ),
        pass,
    }
}

fn e18_trace_ingestion(quick: bool, threads: usize, base: &SearchConfig) -> ExperimentResult {
    use duop_history::trace::{format_trace, to_json};
    use duop_history::{binary, reader};
    use std::time::Instant;

    // The generator emits ~9 events per transaction, so the full run
    // ingests a ~10^6-event trace; quick trims it for the test suite.
    let txns = if quick { 2_048 } else { 110_000 };
    let h = HistoryGen::new(HistoryGenConfig::large_streaming().with_txns(txns), 42).generate();
    let n = h.events().len();
    let text = format_trace(&h).into_bytes();
    let bin = binary::encode(&h);

    // Wall-clock ingestion (format sniff + parse + validation): text and
    // binary are read alternately, three times each, and each encoding
    // keeps its best read. Both bests come from the same window, so a
    // swing in host speed lands on both encodings alike instead of on one
    // batch of reads. Decoding to the identical history is the lossless
    // check and — verdicts being a function of the history — verdict
    // agreement for the large trace.
    let (mut text_ns, mut bin_ns) = (u64::MAX, u64::MAX);
    let (mut text_id, mut bin_id) = (true, true);
    for _ in 0..3 {
        for (bytes, best, identical) in [
            (&text, &mut text_ns, &mut text_id),
            (&bin, &mut bin_ns, &mut bin_id),
        ] {
            let start = Instant::now();
            let parsed = reader::read_history(bytes);
            *best = (*best).min(start.elapsed().as_nanos() as u64);
            *identical &= parsed.map(|p| p == h).unwrap_or(false);
        }
    }
    let speedup = text_ns as f64 / bin_ns as f64;

    // Verdict agreement, measured rather than argued: adversarial
    // histories (a mix of du-opaque and violating) must get the same
    // du-opacity verdict from every encoding.
    let agree_samples = if quick { 8 } else { 30 };
    let du = DuOpacity::with_config(base.clone());
    let agreed = par_seeds(agree_samples, threads, |seed| {
        let g = HistoryGen::new(HistoryGenConfig::small_adversarial(), seed).generate();
        let truth = du.check(&g).is_satisfied();
        [
            format_trace(&g).into_bytes(),
            to_json(&g).into_bytes(),
            binary::encode(&g),
        ]
        .iter()
        .all(|bytes| {
            let p = reader::read_history(bytes).expect("lossless encodings round-trip");
            du.check(&p).is_satisfied() == truth
        })
    })
    .into_iter()
    .filter(|&a| a)
    .count();

    // The streaming monitor's memory high-water mark (peak resident
    // events — the process-RSS proxy the checker can measure exactly)
    // must stay below full materialization.
    let mon_txns = if quick { 256 } else { 1024 };
    let mh = HistoryGen::new(HistoryGenConfig::large_streaming().with_txns(mon_txns), 7).generate();
    let mbin = binary::encode(&mh);
    let mut rd = reader::TraceReader::new(&mbin).expect("valid binary trace");
    let mut mon = duop_core::online::OnlineChecker::new();
    mon.set_compact_every(Some(256));
    while let Some(ev) = rd.next_event().expect("valid binary trace") {
        let v = mon.push(ev).expect("generator histories are well-formed");
        assert!(!v.is_violated(), "simulated-mode trace must stay du-opaque");
    }
    let peak = mon.stats().peak_resident_events;
    let bounded = peak < mh.len();

    let pass = text_id
        && bin_id
        && agreed == agree_samples as usize
        && bounded
        && (quick || speedup >= 3.0);
    ExperimentResult {
        id: "E18",
        title: "Trace ingestion: binary vs text, streaming memory",
        claim: "binary and text encodings are verdict-identical; binary ingests >=3x faster; streaming+compaction bounds resident memory",
        measured: format!(
            "{n}-event trace: text {:.1} ms / binary {:.1} ms ({speedup:.1}x), both decode to the identical history ({}); du verdicts agree across text/json/binary on {agreed}/{agree_samples} adversarial histories; streaming monitor peak {peak}/{} resident events",
            text_ns as f64 / 1e6,
            bin_ns as f64 / 1e6,
            if text_id && bin_id { "lossless" } else { "MISMATCH" },
            mh.len(),
        ),
        pass,
    }
}

/// E19: the pool and the in-process checker both run the default
/// pipeline; `shard_equivalence` covers the shard path's stage switches.
fn e19_sharded_equivalence(samples: u64) -> ExperimentResult {
    use duop_core::{check_criterion_with_stats, PlanCriterion};
    use duop_shard::{run_sharded, ShardConfig, ShardCriterion, ShardJob, KILL_TASK_ENV};

    let Some(worker_cmd) = shard_worker_cmd() else {
        // No process to re-exec as a worker (e.g. a bare library build):
        // nothing to measure, nothing to claim.
        return ExperimentResult {
            id: "E19",
            title: "Sharded checking: distributed == in-process verdicts",
            claim: "the multi-process pipeline returns the exact in-process verdict, even across injected worker deaths",
            measured: "skipped: no shard-worker binary reachable from this process".to_owned(),
            pass: true,
        };
    };
    let shard_cfg = |worker_env: Vec<(String, String)>| ShardConfig {
        workers: 2,
        worker_cmd: worker_cmd.clone(),
        worker_env,
        ..ShardConfig::default()
    };
    let criteria = [
        PlanCriterion::Du,
        PlanCriterion::FinalState,
        PlanCriterion::Rco,
    ];

    // Per seed: one du-opaque-by-construction history and one adversarial
    // history, each checked under three criteria by the worker pool and
    // in-process; then the du check repeated with the first dispatched
    // task's worker killed (fault-injection hook), which must re-queue
    // and still produce the identical verdict.
    let mut compared = 0u64;
    let mut equal = 0u64;
    let mut killed_equal = 0u64;
    let mut satisfied = 0u64;
    for seed in 0..samples {
        let histories = [
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(24), seed).generate(),
            HistoryGen::new(
                HistoryGenConfig {
                    txns: 16,
                    objs: 4,
                    mode: GenMode::Adversarial,
                    ..HistoryGenConfig::medium_simulated()
                },
                seed,
            )
            .generate(),
        ];
        for h in &histories {
            let jobs: Vec<ShardJob> = criteria
                .iter()
                .map(|&c| ShardJob {
                    history: h.clone(),
                    criterion: ShardCriterion::Plan(c),
                })
                .collect();
            let Ok(verdicts) = run_sharded(jobs, &shard_cfg(Vec::new())) else {
                compared += criteria.len() as u64;
                continue;
            };
            for (&c, distributed) in criteria.iter().zip(&verdicts) {
                let (local, _) = check_criterion_with_stats(h, c, &SearchConfig::default());
                compared += 1;
                if *distributed == local {
                    equal += 1;
                }
                if local.is_satisfied() {
                    satisfied += 1;
                }
            }
        }

        // Injected worker death on the very first task of a du check.
        let h = &histories[0];
        let (local, _) = check_criterion_with_stats(h, PlanCriterion::Du, &SearchConfig::default());
        let killer = shard_cfg(vec![(KILL_TASK_ENV.to_owned(), "0".to_owned())]);
        let survived = run_sharded(
            vec![ShardJob {
                history: h.clone(),
                criterion: ShardCriterion::Plan(PlanCriterion::Du),
            }],
            &killer,
        );
        if survived.map(|v| v[0] == local).unwrap_or(false) {
            killed_equal += 1;
        }
    }

    let pass = equal == compared && killed_equal == samples && satisfied > 0;
    ExperimentResult {
        id: "E19",
        title: "Sharded checking: distributed == in-process verdicts",
        claim: "the multi-process pipeline returns the exact in-process verdict, even across injected worker deaths",
        measured: format!(
            "{equal}/{compared} verdicts identical (3 criteria x {samples} seeds x {{du-opaque, adversarial}}, {satisfied} satisfied); {killed_equal}/{samples} identical after killing the worker holding the first task"
        ),
        pass,
    }
}

/// E20: three-way agreement between the certifying saturation pass, the
/// backtracking search, and the full TMS2 automaton, over the anomaly
/// catalogue plus generated corpora under uniform, Zipfian, and hotspot
/// key distributions.
///
/// The contract being measured:
///
/// 1. Whenever saturation is decisive for a saturable criterion, the
///    search (both prefilters off, so the comparison is independent)
///    reaches the same verdict.
/// 2. Every saturation refutation carries a certificate that
///    [`duop_core::check_certificate`] independently validates against
///    the criterion-prepared history.
/// 3. Every certified du-opacity refutation is also rejected by the full
///    TMS2 automaton — the contrapositive of the E11 inclusion (every
///    automaton-accepted history is du-opaque). The Section 4.2
///    *rendering* is incomparable with the automaton (its commit-order
///    condition also binds aborted readers), so the rendering leg is
///    cross-checked against the search, not the automaton.
fn e20_three_way_certified(samples: u64, threads: usize, base: &SearchConfig) -> ExperimentResult {
    use duop_core::tms2_automaton::check_tms2_automaton;
    use duop_core::{
        check_certificate, saturate, PlanCriterion, SaturationOutcome, StrictSerializability,
    };
    use duop_gen::{anomalies, KeyDist};

    let no_prefilter = || SearchConfig {
        prelint: false,
        saturate: false,
        ..base.clone()
    };
    let checkers: [(PlanCriterion, Checker); 5] = [
        (
            PlanCriterion::FinalState,
            Box::new(FinalStateOpacity::with_config(no_prefilter())),
        ),
        (
            PlanCriterion::Du,
            Box::new(DuOpacity::with_config(no_prefilter())),
        ),
        (
            PlanCriterion::Rco,
            Box::new(ReadCommitOrderOpacity::with_config(no_prefilter())),
        ),
        (
            PlanCriterion::Tms2,
            Box::new(Tms2::with_config(no_prefilter())),
        ),
        (
            PlanCriterion::Strict,
            Box::new(StrictSerializability::with_config(no_prefilter())),
        ),
    ];

    // Per history: (decided, refuted, automaton cross-checks, disagreements).
    let sweep = |h: &History| -> (u64, u64, u64, u64) {
        let mut acc = (0u64, 0u64, 0u64, 0u64);
        for &(criterion, ref checker) in &checkers {
            match saturate(h, criterion) {
                SaturationOutcome::Refuted(cert) => {
                    acc.1 += 1;
                    let prepared = criterion.prepare(h);
                    let hh = prepared.as_ref().unwrap_or(h);
                    if check_certificate(hh, &cert).is_err() || !checker.check(h).is_violated() {
                        acc.3 += 1;
                    }
                    if criterion == PlanCriterion::Du {
                        match check_tms2_automaton(h, Some(2_000_000)) {
                            v if v.is_accepted() => acc.3 += 1,
                            duop_core::tms2_automaton::Tms2Verdict::Unknown { .. } => {}
                            _ => acc.2 += 1,
                        }
                    }
                }
                SaturationOutcome::Decided(_) => {
                    acc.0 += 1;
                    if !checker.check(h).is_satisfied() {
                        acc.3 += 1;
                    }
                }
                SaturationOutcome::Inconclusive => {}
            }
        }
        acc
    };

    let dists: [(&str, KeyDist); 3] = [
        ("uniform", KeyDist::Uniform),
        ("zipfian", KeyDist::Zipfian { theta: 1.2 }),
        (
            "hotspot",
            KeyDist::Hotspot {
                hot_fraction: 0.25,
                hot_prob: 0.9,
            },
        ),
    ];
    let rows = par_seeds(samples, threads, |seed| {
        let mut acc = (0u64, 0u64, 0u64, 0u64);
        for (_, dist) in &dists {
            let cfg = HistoryGenConfig::small_adversarial().with_key_dist(*dist);
            let h = HistoryGen::new(cfg, seed).generate();
            let (d, r, a, x) = sweep(&h);
            acc = (acc.0 + d, acc.1 + r, acc.2 + a, acc.3 + x);
        }
        acc
    });
    let mut decided: u64 = rows.iter().map(|r| r.0).sum();
    let mut refuted: u64 = rows.iter().map(|r| r.1).sum();
    let mut automaton: u64 = rows.iter().map(|r| r.2).sum();
    let mut disagree: u64 = rows.iter().map(|r| r.3).sum();

    let mut catalogue_refuted = 0u64;
    for (_, h) in anomalies::catalogue() {
        let (d, r, a, x) = sweep(&h);
        decided += d;
        refuted += r;
        automaton += a;
        disagree += x;
        catalogue_refuted += r;
    }

    let histories = samples * dists.len() as u64 + anomalies::catalogue().len() as u64;
    let pass = disagree == 0 && decided > 0 && refuted > 0 && automaton > 0;
    ExperimentResult {
        id: "E20",
        title: "Three-way certified agreement (saturate / search / TMS2 automaton)",
        claim: "certified saturation verdicts agree with the search everywhere, and certified du refutations are never TMS2 histories",
        measured: format!(
            "{histories} histories (anomaly catalogue + {samples} seeds x {{uniform, zipfian, hotspot}}), {decided} saturation-decided, {refuted} certified refutations ({catalogue_refuted} on the catalogue), {automaton} automaton cross-checks; disagreements: {disagree}"
        ),
        pass,
    }
}

/// E21: the serve-daemon session layer is verdict-equivalent to batch
/// checking, across chunked churn, checkpoint/recover cycles, and
/// budget-forced degradation.
///
/// Three legs per seed, over one du-opaque-by-construction history and
/// one adversarial history:
///
/// 1. **Churn**: each history is streamed through its own
///    [`duop_serve::Session`] in small interleaved chunks (the two
///    sessions alternate, as concurrent daemon clients do) and the
///    session's JSON verdict line must equal the batch `DuOpacity`
///    verdict of the whole trace, byte for byte.
/// 2. **Kill/recover**: streaming is cut at every chunk boundary in
///    turn; the session is checkpointed, dropped, rebuilt with
///    [`duop_serve::Session::resume`] (which revalidates the history and
///    witness and re-derives any violation), fed the remaining suffix,
///    and must reach the same byte-identical verdict — recovery is
///    invisible in the output.
/// 3. **Degradation**: the same traces under a tiny retained-event
///    budget must either report `Unknown` with the state-budget reason
///    (never a false positive) or — when a violation landed before the
///    budget bit — keep the violation final; retained events must never
///    exceed the budget.
///
/// A session takes no search configuration: both sides run the defaults.
fn e21_serve_equivalence(samples: u64, threads: usize) -> ExperimentResult {
    use duop_core::{UnknownReason, Verdict};
    use duop_serve::Session;

    let batch = DuOpacity::new();
    let batch_line =
        |h: &History| serde_json::to_string(&batch.check(h)).expect("verdicts serialize");
    let session_line = |s: &mut Session| {
        // `verdict_line(.., true)` wraps the same serialization; strip the
        // envelope (prefix and exactly one closing brace) so the
        // comparison is against the verdict JSON itself.
        let line = duop_serve::verdict_line(&s.verdict(), true);
        let inner = line
            .trim_end()
            .strip_suffix('}')
            .and_then(|l| l.strip_prefix("{\"criterion\":\"du-opacity\",\"verdict\":"))
            .expect("verdict line shape");
        inner.to_owned()
    };

    let rows = par_seeds(samples, threads, |seed| {
        let histories = [
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(16), seed).generate(),
            HistoryGen::new(
                HistoryGenConfig {
                    txns: 12,
                    objs: 3,
                    mode: GenMode::Adversarial,
                    ..HistoryGenConfig::medium_simulated()
                },
                seed,
            )
            .generate(),
        ];
        let chunks: Vec<Vec<&[duop_history::Event]>> = histories
            .iter()
            .map(|h| h.events().chunks(5).collect())
            .collect();

        // Leg 1: interleaved chunked streaming.
        let mut churn_equal = 0u64;
        let mut sessions = [Session::new(1, None), Session::new(2, None)];
        let rounds = chunks.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            for (i, per_history) in chunks.iter().enumerate() {
                if let Some(chunk) = per_history.get(round) {
                    sessions[i]
                        .ingest(chunk)
                        .expect("generator histories are well-formed");
                }
            }
        }
        for (s, h) in sessions.iter_mut().zip(&histories) {
            if session_line(s) == batch_line(h) {
                churn_equal += 1;
            }
        }

        // Leg 2: kill at every chunk boundary, recover, finish.
        let mut cuts = 0u64;
        let mut recovered_equal = 0u64;
        for (h, per_history) in histories.iter().zip(&chunks) {
            let expect = batch_line(h);
            for cut in 0..=per_history.len() {
                let mut s = Session::new(9, None);
                for chunk in &per_history[..cut] {
                    s.ingest(chunk).expect("prefix ingest");
                }
                let snap = s.snapshot();
                drop(s);
                let mut resumed = Session::resume(snap).expect("checkpoint resumes");
                for chunk in &per_history[cut..] {
                    resumed.ingest(chunk).expect("suffix ingest");
                }
                cuts += 1;
                if session_line(&mut resumed) == expect {
                    recovered_equal += 1;
                }
            }
        }

        // Leg 3: a budget far below the trace length forces compaction
        // or degradation; the verdict must stay sound either way.
        let mut degraded_sound = 0u64;
        for h in &histories {
            let mut s = Session::new(17, Some(4));
            s.ingest(h.events()).expect("budgeted ingest");
            let within_budget = s.retained() <= 4 || s.violated();
            let sound = match s.verdict() {
                Verdict::Unknown {
                    reason: UnknownReason::StateBudget,
                    ..
                } => true,
                v @ Verdict::Violated { .. } => {
                    // A violation reported under budget must be real.
                    v.is_violated() && batch.check(h).is_violated()
                }
                // With compaction the whole trace may still fit; then
                // the verdict must match batch.
                _ => session_line(&mut s) == batch_line(h),
            };
            if within_budget && sound {
                degraded_sound += 1;
            }
        }

        (churn_equal, cuts, recovered_equal, degraded_sound)
    });

    let mut churn_equal = 0u64;
    let mut cuts = 0u64;
    let mut recovered_equal = 0u64;
    let mut degraded_sound = 0u64;
    for (c, k, r, d) in rows {
        churn_equal += c;
        cuts += k;
        recovered_equal += r;
        degraded_sound += d;
    }
    let streams = samples * 2;
    let pass = churn_equal == streams && recovered_equal == cuts && degraded_sound == streams;
    ExperimentResult {
        id: "E21",
        title: "Serve sessions: daemon == batch verdicts across churn, recovery, degradation",
        claim: "chunk-streamed sessions, checkpoint/recover at every cut, and budget-degraded sessions never change or unsoundly decide a verdict",
        measured: format!(
            "{churn_equal}/{streams} interleaved streams byte-identical to batch; {recovered_equal}/{cuts} kill/recover cuts byte-identical; {degraded_sound}/{streams} budgeted sessions sound (Unknown{{state-budget}}, real violation, or compacted-and-identical)"
        ),
        pass,
    }
}

/// E22: multi-host sharding over TCP. A remote worker pool — in-process
/// `shard-serve` daemons behind the authenticated transport — must
/// return the exact in-process verdicts, through dropped connections
/// and partitioned (stalled) hosts; a pool whose every remote is dead
/// must degrade to `unknown (worker-death)` with a partial payload
/// instead of guessing or hanging; and wrong-secret or replayed hellos
/// must be rejected before a single task frame is read. The remote pool
/// and the in-process checker both run the default pipeline.
fn e22_remote_shard(samples: u64) -> ExperimentResult {
    use duop_core::{check_criterion_with_stats, PlanCriterion, UnknownReason, Verdict};
    use duop_serve::ShutdownHandle;
    use duop_shard::protocol::{
        auth_tag, decode_challenge, encode_auth, write_frame, FrameReader, FRAME_AUTH,
        FRAME_CHALLENGE, FRAME_HEARTBEAT, FRAME_HELLO,
    };
    use duop_shard::{
        run_sharded, ShardConfig, ShardCriterion, ShardJob, ShardServeConfig, ShardServer,
        NET_TIMEOUT_ENV,
    };
    use std::net::{SocketAddr, TcpStream};

    // The stall drill waits out the liveness timeout; keep it short but
    // comfortably above the 1s heartbeat interval so healthy daemons are
    // never spuriously declared dead. Idempotent with the test suites.
    std::env::set_var(NET_TIMEOUT_ENV, "2500");

    const SECRET: &[u8] = b"e22-remote-shard";
    fn start_daemon(
        drop_conn: Option<u64>,
        stall_conn: Option<u64>,
    ) -> (SocketAddr, ShutdownHandle) {
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
            let _ = server.run(&mut sink);
        });
        (addr, handle)
    }
    // Remote-only pools never spawn a local worker, so no worker binary
    // is needed (unlike E19, this experiment has no skip path).
    let remote_cfg = |addrs: &[SocketAddr]| ShardConfig {
        workers: 0,
        connect: addrs.iter().map(|a| a.to_string()).collect(),
        secret: SECRET.to_vec(),
        ..ShardConfig::default()
    };
    let criteria = [
        PlanCriterion::Du,
        PlanCriterion::FinalState,
        PlanCriterion::Rco,
    ];
    let batch = |h: &History| -> Vec<ShardJob> {
        criteria
            .iter()
            .map(|&c| ShardJob {
                history: h.clone(),
                criterion: ShardCriterion::Plan(c),
            })
            .collect()
    };
    let compare = |h: &History, verdicts: &[Verdict], equal: &mut u64, satisfied: &mut u64| {
        for (&c, remote) in criteria.iter().zip(verdicts) {
            let (local, _) = check_criterion_with_stats(h, c, &SearchConfig::default());
            if *remote == local {
                *equal += 1;
            }
            if local.is_satisfied() {
                *satisfied += 1;
            }
        }
    };

    // Equivalence sweep: per seed one du-opaque-by-construction history
    // and one adversarial history, each under three criteria on a
    // two-daemon remote-only pool.
    let (addr1, h1) = start_daemon(None, None);
    let (addr2, h2) = start_daemon(None, None);
    let mut compared = 0u64;
    let mut equal = 0u64;
    let mut satisfied = 0u64;
    let mut sample_history = None;
    for seed in 0..samples {
        let histories = [
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(24), seed).generate(),
            HistoryGen::new(
                HistoryGenConfig {
                    txns: 16,
                    objs: 4,
                    mode: GenMode::Adversarial,
                    ..HistoryGenConfig::medium_simulated()
                },
                seed,
            )
            .generate(),
        ];
        for h in &histories {
            compared += criteria.len() as u64;
            if let Ok(verdicts) = run_sharded(batch(h), &remote_cfg(&[addr1, addr2])) {
                compare(h, &verdicts, &mut equal, &mut satisfied);
            }
        }
        sample_history.get_or_insert_with(|| histories[0].clone());
    }
    h1.shutdown();
    h2.shutdown();
    let sample = sample_history.expect("at least one seed");

    // Drop drill: the daemon hangs up on its first authenticated
    // connection; the coordinator must redial and the verdicts must
    // never notice.
    let mut drop_equal = 0u64;
    let (addr, handle) = start_daemon(Some(1), None);
    if let Ok(verdicts) = run_sharded(batch(&sample), &remote_cfg(&[addr])) {
        compare(&sample, &verdicts, &mut drop_equal, &mut 0);
    }
    handle.shutdown();

    // Stall drill: a partitioned host — connected, authenticated,
    // silent — is declared dead by the liveness timeout and its work
    // re-queued on the healthy daemon.
    let mut stall_equal = 0u64;
    let (stalled, h1) = start_daemon(None, Some(1));
    let (healthy, h2) = start_daemon(None, None);
    if let Ok(verdicts) = run_sharded(batch(&sample), &remote_cfg(&[stalled, healthy])) {
        compare(&sample, &verdicts, &mut stall_equal, &mut 0);
    }
    h1.shutdown();
    h2.shutdown();

    // All remotes dead for good (nothing ever listened): the run must
    // end degraded — unknown (worker-death) with a partial payload —
    // never a wrong verdict, never a hang. Prefilters off so the
    // coordinator cannot decide the history without dispatching.
    let dead_addr = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("reserve a dead address")
        .local_addr()
        .expect("local addr");
    let mut dead_cfg = remote_cfg(&[dead_addr]);
    dead_cfg.search.prelint = false;
    dead_cfg.search.ladder = false;
    dead_cfg.search.saturate = false;
    let dead_ok = run_sharded(
        vec![ShardJob {
            history: sample.clone(),
            criterion: ShardCriterion::Plan(PlanCriterion::Du),
        }],
        &dead_cfg,
    )
    .map(|verdicts| {
        matches!(
            &verdicts[0],
            Verdict::Unknown {
                reason: UnknownReason::WorkerDeath,
                partial: Some(_),
                ..
            }
        )
    })
    .unwrap_or(false);

    // Auth drill: a wrong-secret tag and a tag replayed from another
    // connection's challenge must both be rejected before any task
    // frame — the daemon never answers with its worker hello (and
    // heartbeats only start post-auth).
    let (addr, handle) = start_daemon(None, None);
    let read_challenge = |stream: &TcpStream| {
        let mut reader = FrameReader::new(stream.try_clone().expect("clone stream"));
        let (ty, payload) = reader
            .read_frame()
            .expect("challenge frame decodes")
            .expect("daemon sends a challenge");
        assert_eq!(ty, FRAME_CHALLENGE);
        decode_challenge(payload).expect("challenge payload decodes")
    };
    let rejected = |stream: TcpStream, tag: &[u8; duop_shard::protocol::TAG_LEN]| -> bool {
        let mut w = stream.try_clone().expect("clone stream");
        if write_frame(&mut w, FRAME_AUTH, &encode_auth(tag)).is_err() {
            return true; // daemon already hung up: rejected
        }
        let mut reader = FrameReader::new(stream);
        loop {
            match reader.read_frame() {
                Ok(Some((ty, _))) if ty == FRAME_HELLO || ty == FRAME_HEARTBEAT => return false,
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return true,
            }
        }
    };
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("set read timeout");
        stream
    };
    let mut auth_rejected = 0u64;
    let wrong = connect();
    let nonce = read_challenge(&wrong);
    if rejected(wrong, &auth_tag(b"not-the-secret", &nonce)) {
        auth_rejected += 1;
    }
    // Replay: a tag valid for connection A's nonce, presented on B.
    let conn_a = connect();
    let nonce_a = read_challenge(&conn_a);
    let conn_b = connect();
    let _nonce_b = read_challenge(&conn_b);
    if rejected(conn_b, &auth_tag(SECRET, &nonce_a)) {
        auth_rejected += 1;
    }
    drop(conn_a);
    handle.shutdown();

    let pass = equal == compared
        && drop_equal == 3
        && stall_equal == 3
        && dead_ok
        && auth_rejected == 2
        && satisfied > 0;
    ExperimentResult {
        id: "E22",
        title: "Multi-host sharding: remote TCP pools == in-process verdicts",
        claim: "authenticated remote pools return the exact in-process verdicts through drops and partitions, degrade to unknown (worker-death) only when every remote is gone, and reject hostile hellos before any task frame",
        measured: format!(
            "{equal}/{compared} remote verdicts identical (3 criteria x {samples} seeds x {{du-opaque, adversarial}}, {satisfied} satisfied); drop/stall drills {drop_equal}/3 and {stall_equal}/3 identical; all-remotes-dead degraded to unknown (worker-death): {dead_ok}; {auth_rejected}/2 hostile hellos rejected pre-task"
        ),
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The corpus experiments must report identical numbers regardless of
    /// worker count: per-seed rows are independent and reduced in seed
    /// order.
    #[test]
    fn parallel_fanout_matches_serial() {
        let b = &SearchConfig::default();
        for (serial, parallel) in [
            (e7_theorem11(12, 1, b), e7_theorem11(12, 4, b)),
            (e9_lemma4(6, 1, b), e9_lemma4(6, 4, b)),
            (e14_discrimination(10, 1, b), e14_discrimination(10, 4, b)),
            (e17_kill_resume(12, 1, b), e17_kill_resume(12, 4, b)),
            (
                e20_three_way_certified(8, 1, b),
                e20_three_way_certified(8, 4, b),
            ),
            (e21_serve_equivalence(4, 1), e21_serve_equivalence(4, 4)),
        ] {
            assert_eq!(serial.measured, parallel.measured);
            assert_eq!(serial.pass, parallel.pass);
        }
    }

    /// The remote-shard experiment end to end on a small sweep: TCP
    /// equivalence, drop/stall drills, dead-pool degradation, and the
    /// hostile-hello rejections must all hold.
    #[test]
    fn remote_shard_drills_pass() {
        let r = e22_remote_shard(2);
        assert!(r.pass, "E22 failed: {}", r.measured);
    }
}
