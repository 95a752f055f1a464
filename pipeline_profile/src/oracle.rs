//! The correctness oracle: independent re-checks of every verdict the
//! timed sections produced, run outside the timed sections.
//!
//! * a `Satisfied` witness must pass [`check_witness`] for its criterion;
//! * a certified refutation must pass [`check_certificate`] on the
//!   criterion-prepared history;
//! * workload-specific checks (simulated corpora are du-opaque, du verdicts
//!   agree with brute-force enumeration, `/metrics` counts every event) live
//!   with the workloads and report through [`Tally`].
//!
//! A disagreement that matches a recorded known failure (see
//! `bench_record.json`) is counted but does not make the run incorrect.

use duop_core::snapshot::CheckableCriterion;
use duop_core::{
    check_certificate, check_witness, CriterionKind, PlanCriterion, Verdict, Violation, Witness,
};
use duop_gen::KeyDist;
use duop_history::{History, Op};
use std::time::Instant;

use crate::calib::Calibrator;
use crate::stats::{field, number};

/// The criteria `duop check --criterion final-state --criterion du
/// --criterion rco --criterion tms2 --criterion strict` runs, in that order.
pub const CRITERIA: [PlanCriterion; 5] = [
    PlanCriterion::FinalState,
    PlanCriterion::Du,
    PlanCriterion::Rco,
    PlanCriterion::Tms2,
    PlanCriterion::Strict,
];

/// Position of du-opacity in [`CRITERIA`].
pub const DU: usize = 1;

pub fn checkable(c: PlanCriterion) -> CheckableCriterion {
    match c {
        PlanCriterion::FinalState => CheckableCriterion::FinalStateOpacity,
        PlanCriterion::Du => CheckableCriterion::DuOpacity,
        PlanCriterion::Rco => CheckableCriterion::ReadCommitOrder,
        PlanCriterion::Tms2 => CheckableCriterion::Tms2,
        PlanCriterion::Strict => CheckableCriterion::StrictSerializability,
    }
}

/// The definition a witness for `c` is validated against. Strict
/// serializability is final-state opacity of the committed projection,
/// which is what [`PlanCriterion::prepare`] returns.
fn witness_kind(c: PlanCriterion) -> CriterionKind {
    match c {
        PlanCriterion::FinalState | PlanCriterion::Strict => CriterionKind::FinalStateOpacity,
        PlanCriterion::Du => CriterionKind::DuOpacity,
        PlanCriterion::Rco => CriterionKind::ReadCommitOrder,
        PlanCriterion::Tms2 => CriterionKind::Tms2,
    }
}

/// `satisfied`, `violated` or `unknown`.
pub fn shape(v: &Verdict) -> &'static str {
    match v {
        Verdict::Satisfied(_) => "satisfied",
        Verdict::Violated(_) => "violated",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Re-checks the evidence a verdict carries against the prepared history.
pub fn check_evidence(prepared: &History, c: PlanCriterion, v: &Verdict) -> Result<(), String> {
    match v {
        Verdict::Satisfied(w) => check_witness(prepared, w, witness_kind(c))
            .map_err(|e| format!("witness rejected by check_witness: {e}")),
        Verdict::Violated(Violation::Certified { certificate, .. }) => {
            check_certificate(prepared, certificate)
                .map_err(|e| format!("certificate rejected by check_certificate: {e}"))
        }
        _ => Ok(()),
    }
}

/// The shape of the recorded du false refutations: in the witness the
/// enumeration found, some external read's *local* writer (the last
/// committed writer among transactions that invoked `tryC` before the read
/// responded) differs from its *global* writer (the last committed writer
/// before the reader). Both write the value read, so the witness is legal,
/// but a check that only considers `tryC`-eligible suppliers for the
/// global value prunes it.
pub fn local_writer_differs(h: &History, w: &Witness) -> bool {
    let order = w.order();
    for (pos, &reader) in order.iter().enumerate() {
        let Some(txn) = h.txn(reader) else { continue };
        let mut own_writes = Vec::new();
        for rec in txn.ops() {
            match rec.op {
                Op::Write(x, _) => own_writes.push(x),
                Op::Read(x) if !own_writes.contains(&x) => {
                    let (Some(_), Some(resp)) = (rec.read_value(), rec.resp_index) else {
                        continue;
                    };
                    let writers: Vec<_> = order[..pos]
                        .iter()
                        .rev()
                        .copied()
                        .filter(|&u| {
                            w.is_committed_in(h, u)
                                && h.txn(u).is_some_and(|t| t.write_set().contains(&x))
                        })
                        .collect();
                    let global = writers.first().copied();
                    let local = writers
                        .iter()
                        .copied()
                        .find(|&u| h.try_commit_inv_index(u).is_some_and(|i| i < resp));
                    if global != local {
                        return true;
                    }
                }
                _ => {}
            }
        }
    }
    false
}

/// Where a corpus history came from, printed with every disagreement so
/// it can be regenerated.
#[derive(Clone, Debug)]
pub struct Origin {
    pub config: String,
    pub seed: Option<u64>,
}

impl std::fmt::Display for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seed {
            Some(seed) => write!(f, "{} seed {seed}", self.config),
            None => write!(f, "{}", self.config),
        }
    }
}

/// Oracle tally for one run.
#[derive(Debug)]
pub struct Tally {
    pub wrong: u64,
    pub known: u64,
    /// Total time (at the reference host speed) and event count of the
    /// witness re-checks.
    pub witness_ns: u64,
    pub witness_events: u64,
    cal: Calibrator,
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            wrong: 0,
            known: 0,
            witness_ns: 0,
            witness_events: 0,
            cal: Calibrator::new(),
        }
    }

    /// Runs one evidence check, timing it as a witness check over
    /// `events` events when `events` is non-zero.
    pub fn time_witness<T>(&mut self, events: u64, check: impl FnOnce() -> T) -> T {
        self.cal.tick();
        let start = Instant::now();
        let out = check();
        if events > 0 {
            self.witness_ns += self.cal.ns(start.elapsed());
            self.witness_events += events;
        }
        out
    }

    /// Records a rejected verdict and prints its repro line.
    pub fn reject(
        &mut self,
        workload: &str,
        origin: &Origin,
        criterion: &str,
        why: &str,
        known: bool,
    ) {
        self.wrong += 1;
        if known {
            self.known += 1;
        }
        let tag = if known {
            "known failure"
        } else {
            "WRONG VERDICT"
        };
        eprintln!("{tag}: workload {workload}, generator {origin}, criterion {criterion}: {why}");
    }
}

/// A recorded false verdict, re-checked on every `batch-small` run.
#[derive(Clone, Debug)]
pub struct KnownFailure {
    pub key_dist: KeyDist,
    pub seed: u64,
    pub txns: usize,
}

/// The recorded known failures, parsed from `bench_record.json`.
pub fn known_failures() -> Vec<KnownFailure> {
    use serde::Content;
    let record: Content = serde_json::from_str(include_str!("../bench_record.json"))
        .expect("bench_record.json is valid JSON");
    let get = |c: &'_ Content, key: &str| -> Content {
        field(c, key)
            .cloned()
            .unwrap_or_else(|| panic!("bench_record.json: missing `{key}`"))
    };
    let num = |c: &Content| number(c).expect("bench_record.json: expected a number");
    let Content::Seq(entries) = get(&record, "known_failures") else {
        panic!("bench_record.json: known_failures is not a list");
    };
    entries
        .iter()
        .map(|e| {
            let dist = get(e, "key_dist");
            let key_dist = match get(&dist, "kind").as_str().expect("kind") {
                "uniform" => KeyDist::Uniform,
                "zipfian" => KeyDist::Zipfian {
                    theta: num(&get(&dist, "theta")),
                },
                "hotspot" => KeyDist::Hotspot {
                    hot_fraction: num(&get(&dist, "hot_fraction")),
                    hot_prob: num(&get(&dist, "hot_prob")),
                },
                other => panic!("bench_record.json: unknown key_dist {other}"),
            };
            KnownFailure {
                key_dist,
                seed: get(e, "seed").as_u64().expect("seed"),
                txns: get(e, "txns").as_u64().expect("txns") as usize,
            }
        })
        .collect()
}
