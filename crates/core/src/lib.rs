//! Checkers for du-opacity and related transactional-memory correctness
//! criteria.
//!
//! This crate is the executable core of *Safety of Deferred Update in
//! Transactional Memory* (Attiya, Hans, Kuznetsov, Ravi; ICDCS 2013). It
//! decides, for a finite [`History`](duop_history::History), membership in:
//!
//! * **du-opacity** (Definition 3) — [`DuOpacity`], the paper's
//!   contribution;
//! * **final-state opacity** (Definition 4) — [`FinalStateOpacity`];
//! * **opacity** (Definition 5) — [`Opacity`];
//! * **read-commit-order opacity** (Section 4.2) —
//!   [`ReadCommitOrderOpacity`];
//! * **TMS2** (Section 4.2 rendering) — [`Tms2`];
//! * **strict serializability** (baseline) — [`StrictSerializability`].
//!
//! Positive verdicts carry a [`Witness`] that the independent validator
//! [`check_witness`] re-verifies against the literal definitions. The
//! paper's constructive lemmas are implemented in [`lemmas`]:
//! [`lemmas::restrict_witness`] (Lemma 1) and
//! [`lemmas::live_set_reorder`] (Lemma 4). The [`unique`] module provides
//! the Theorem 11 fast path for unique-write histories, and [`online`] an
//! incremental per-event monitor. [`mod@reference`] contains a brute-force
//! enumeration checker used as a differential-testing oracle.
//!
//! Membership is NP-hard in general; before any backtracking a **search
//! planner** decomposes each query along the transaction conflict graph
//! and turns candidate-writer analysis into forced precedence edges (see
//! `DESIGN.md`; disable with [`SearchConfig::decompose`] for the
//! ablation). The search engine itself uses sound state memoization
//! (hash-compacted 128-bit keys), fail-first
//! child ordering and prechecks that decide realistic histories (including
//! multi-thread STM traces) quickly, and accepts an optional state budget
//! returning [`Verdict::Unknown`] when exceeded. The [`parallel`] module
//! adds component- and subtree-parallel search engines (enabled by
//! [`SearchConfig::threads`]) and [`par_check_batch`], an order-preserving
//! fan-out of independent checks over a worker pool. Before the planner
//! even runs, the [`lint`] pipeline — a registry of polynomial
//! static-analysis rules with structured diagnostics — refutes most
//! violating histories outright (disable with [`SearchConfig::prelint`]).
//!
//! # Example
//!
//! ```
//! use duop_core::{check_witness, Criterion, CriterionKind, DuOpacity};
//! use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
//!
//! let (t1, t2) = (TxnId::new(1), TxnId::new(2));
//! let x = ObjId::new(0);
//! let h = HistoryBuilder::new()
//!     .committed_writer(t1, x, Value::new(1))
//!     .committed_reader(t2, x, Value::new(1))
//!     .build();
//!
//! let verdict = DuOpacity::new().check(&h);
//! let witness = verdict.witness().expect("du-opaque");
//! assert!(check_witness(&h, witness, CriterionKind::DuOpacity).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod bitset;
mod criteria;
mod json;
mod plan;
mod prepared;
mod search;
mod spec;
mod verdict;
mod witness_check;

pub mod certificate;
pub mod saturate;

#[doc(hidden)]
pub mod graph_kernels;
#[doc(hidden)]
pub mod must_precede;

pub mod fxhash;
pub mod graph;
pub mod lemmas;
pub mod lint;
pub mod minimize;
pub mod online;
pub mod paper;
pub mod parallel;
pub mod reference;
pub mod snapshot;
pub mod tms2_automaton;
pub mod unique;

pub use certificate::{check_certificate, Certificate, CertificateError};
pub use criteria::{
    evaluate_all, Criterion, CriterionKind, DuOpacity, FinalStateOpacity, Opacity,
    ReadCommitOrderOpacity, StrictSerializability, Tms2,
};
pub use parallel::{available_threads, par_check_batch, par_map};
pub use plan::{
    check_criterion_with_stats, ladder_verdict, plan_components, plan_query, prelint_verdict,
    PlanCriterion, PlanOutcome, PlanScratch,
};
pub use saturate::{saturate, saturate_verdict, SaturationOutcome};
pub use search::{Budget, SearchConfig, SearchStats};
pub use verdict::{PartialProgress, UnknownReason, Verdict, Violation, Witness};
pub use witness_check::{check_witness, WitnessError};
