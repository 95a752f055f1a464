//! Machine-checkable refutation certificates and their independent
//! validator.
//!
//! A [`Certificate`] is a *closed derivation* of a precedence cycle: an
//! ordered list of [`Step`]s, each asserting a must-precede edge
//! `from → to` justified by a [`Rule`], followed by a [`Certificate::cycle`]
//! — indices into the step list whose edges chain head-to-tail and close.
//! Axiom steps are justified directly by events of the history; derived
//! steps name strictly earlier steps as premises, so the derivation is
//! well-founded by construction.
//!
//! Every rule is a proven *necessary condition*: in any t-complete
//! t-sequential history `S` equivalent to (a completion of) `H` that is
//! legal under the certificate's criterion, `from` must precede `to` in
//! `seq(S)`. A closed cycle of such edges is therefore a sound refutation
//! — no satisfying serialization exists (see `DESIGN.md` §12 for the
//! per-rule soundness arguments).
//!
//! [`check_certificate`] re-derives every step from the *literal* history,
//! mirroring what [`crate::check_witness`] does for positive verdicts: the
//! saturation engine ([`crate::saturate`]) that produced the certificate is
//! not trusted, only the derivation itself. Validation is polynomial and
//! allocation-light; a rejected certificate yields a structured
//! [`CertificateError`] naming the offending step, never a panic.

use crate::plan::PlanCriterion;
use duop_history::{CommitCapability, History, ObjId, Op, Ret, TxnId, Value};
use std::error::Error;
use std::fmt;

/// One must-precede edge of a derivation, with its justification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// The transaction that must be serialized earlier.
    pub from: TxnId,
    /// The transaction that must be serialized later.
    pub to: TxnId,
    /// Why `from` must precede `to`.
    pub rule: Rule,
}

/// Justification of one [`Step`]: an axiom re-derivable from the events
/// of the history, or a derived rule naming earlier steps as premises.
///
/// Event positions (`read`, `tryc`, `resp`) are indices into
/// [`History::events`], pinning each axiom to the exact events that
/// ground it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Real-time order (Definition 1): every event of `from` precedes
    /// every event of `to` in `H`, and any equivalent serialization must
    /// respect the real-time order.
    RealTime,
    /// Read-from with a *unique* admissible writer: `to`'s external read
    /// of `obj` (response at event `read`) returned `value ≠ 0`, and
    /// `from` is the only transaction that can supply it — committable,
    /// final write of `value` to `obj`, and (du-opacity only) `tryC`
    /// invoked before the read's response. The supplier must be committed
    /// before the read takes effect, so `from` precedes `to`.
    ReadFrom {
        /// The t-object read.
        obj: ObjId,
        /// The value returned.
        value: Value,
        /// Event index of the read's response.
        read: usize,
    },
    /// Anti-dependency on the initial value: `from`'s external read of
    /// `obj` (response at event `read`) returned the initial value, no
    /// committable transaction other than `from` finally writes the
    /// initial value back, and `to` is a committed writer of `obj` — once
    /// any committed writer of `obj` is serialized, the initial value is
    /// gone forever, so the reader must come first.
    AntiDependency {
        /// The t-object read.
        obj: ObjId,
        /// Event index of the initial-value read's response.
        read: usize,
    },
    /// Read-commit-order (Section 4.2, RCO scope only): `from`'s
    /// value-returning read of `obj` responded (event `read`) before the
    /// `tryC` invocation (event `tryc`) of the committed writer `to` with
    /// `obj ∈ Wset(to)`.
    ReadCommitOrder {
        /// The t-object read.
        obj: ObjId,
        /// Event index of the read's response.
        read: usize,
        /// Event index of `to`'s `tryC` invocation.
        tryc: usize,
    },
    /// TMS2 commit order (Section 4.2 rendering, TMS2 scope only): the
    /// committed writer `from`'s `tryC` response (event `resp`) precedes
    /// `to`'s `tryC` invocation (event `tryc`) and
    /// `obj ∈ Wset(from) ∩ Rset(to)`.
    Tms2CommitOrder {
        /// The shared t-object.
        obj: ObjId,
        /// Event index of `from`'s `tryC` response.
        resp: usize,
        /// Event index of `to`'s `tryC` invocation.
        tryc: usize,
    },
    /// Transitivity: premises `first: from → m` and `second: m → to`
    /// (indices of strictly earlier steps).
    Transitive {
        /// Step index proving `from → m`.
        first: usize,
        /// Step index proving `m → to`.
        second: usize,
    },
    /// Interference after the supplier: premise `read_from: w → r` (a
    /// [`Rule::ReadFrom`] step) and premise `before: w → to`, where `to`
    /// is a committed writer of the read's object whose final write
    /// differs from the read's value. `to` cannot be serialized between
    /// `w` and `r` (it would overwrite the value `r` observed), and it
    /// comes after `w`, so it must come after `r`: `from = r → to`. Under
    /// du-opacity `to` must also be `tryC`-eligible for the read, unless
    /// `w` is the only committable writer of the value.
    InterferenceAfter {
        /// Step index of the grounding [`Rule::ReadFrom`] edge `w → r`.
        read_from: usize,
        /// Step index proving `w → to`.
        before: usize,
    },
    /// Interference before the supplier: premise `read_from: w → r` (a
    /// [`Rule::ReadFrom`] step) and premise `after: from → r`, where
    /// `from` is a committed writer of the read's object whose final
    /// write differs from the read's value. `from` cannot sit between `w`
    /// and `r`, and it precedes `r`, so it must precede `w`:
    /// `from → to = w`. The du-opacity eligibility condition of
    /// [`Rule::InterferenceAfter`] applies to `from`.
    InterferenceBefore {
        /// Step index of the grounding [`Rule::ReadFrom`] edge `w → r`.
        read_from: usize,
        /// Step index proving `from → r`.
        after: usize,
    },
}

impl Rule {
    /// Stable kebab-case tag, used verbatim in the JSON form.
    pub fn tag(&self) -> &'static str {
        match self {
            Rule::RealTime => "real-time",
            Rule::ReadFrom { .. } => "read-from",
            Rule::AntiDependency { .. } => "anti-dependency",
            Rule::ReadCommitOrder { .. } => "read-commit-order",
            Rule::Tms2CommitOrder { .. } => "tms2-commit-order",
            Rule::Transitive { .. } => "transitive",
            Rule::InterferenceAfter { .. } => "interference-after",
            Rule::InterferenceBefore { .. } => "interference-before",
        }
    }
}

/// A machine-checkable refutation: a closed derivation of a must-precede
/// cycle under `criterion`'s rules.
///
/// For [`PlanCriterion::Strict`] the steps refer to the *committed
/// projection* of the input (the history the strict-serializability query
/// actually runs over, see [`PlanCriterion::prepare`]); validate against
/// that prepared history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The criterion whose must-precede rules the derivation uses.
    pub criterion: PlanCriterion,
    /// The derivation, premises strictly before conclusions.
    pub steps: Vec<Step>,
    /// Indices into [`Certificate::steps`] whose edges chain head-to-tail
    /// (`steps[cycle[i]].to == steps[cycle[i+1]].from`, wrapping).
    pub cycle: Vec<usize>,
}

impl Certificate {
    /// The transactions on the refuting cycle, in cycle order.
    pub fn cycle_txns(&self) -> Vec<TxnId> {
        self.cycle
            .iter()
            .filter_map(|&i| self.steps.get(i).map(|s| s.from))
            .collect()
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refutation cycle ({} steps): ",
            self.criterion.display_name(),
            self.steps.len()
        )?;
        for (i, &s) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            match self.steps.get(s) {
                Some(step) => write!(f, "{} [{}]", step.from, step.rule.tag())?,
                None => write!(f, "#{s}?")?,
            }
        }
        if let Some(&first) = self.cycle.first() {
            if let Some(step) = self.steps.get(first) {
                write!(f, " -> {}", step.from)?;
            }
        }
        Ok(())
    }
}

/// Why [`check_certificate`] rejected a certificate. Every variant names
/// the offending position, so a tampered certificate is pinpointed rather
/// than waved away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// A step names a transaction the history does not contain.
    UnknownTxn {
        /// Offending step index.
        step: usize,
        /// The unknown transaction.
        txn: TxnId,
    },
    /// A step's endpoints coincide (`from == to`), which no rule derives.
    SelfEdge {
        /// Offending step index.
        step: usize,
    },
    /// A derived step names a premise at or after its own position, which
    /// would break the well-foundedness of the derivation.
    PremiseOutOfOrder {
        /// Offending step index.
        step: usize,
        /// The out-of-order premise index.
        premise: usize,
    },
    /// A derived step's premises do not connect the way the rule requires
    /// (wrong endpoints, or a non-`ReadFrom` step where one is required).
    PremiseMismatch {
        /// Offending step index.
        step: usize,
        /// What failed to line up.
        detail: String,
    },
    /// An axiom step is not supported by the literal history: the named
    /// events are absent, mis-shaped, or the side conditions (uniqueness,
    /// no-restorer, commit capability, eligibility) fail.
    AxiomUnsupported {
        /// Offending step index.
        step: usize,
        /// What re-derivation found instead.
        detail: String,
    },
    /// A step uses a rule outside the certificate's criterion scope (e.g.
    /// a [`Rule::ReadCommitOrder`] step in a du-opacity certificate).
    WrongScope {
        /// Offending step index.
        step: usize,
    },
    /// The cycle is empty.
    EmptyCycle,
    /// The cycle names a step index outside the step list.
    CycleStepOutOfRange {
        /// Position within the cycle list.
        position: usize,
        /// The out-of-range step index.
        step: usize,
    },
    /// Consecutive cycle edges do not chain (`steps[cycle[i]].to !=
    /// steps[cycle[i+1]].from`, wrapping at the end).
    CycleBroken {
        /// First position of the broken link.
        position: usize,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::UnknownTxn { step, txn } => {
                write!(f, "step {step}: transaction {txn} is not in the history")
            }
            CertificateError::SelfEdge { step } => {
                write!(f, "step {step}: from and to coincide")
            }
            CertificateError::PremiseOutOfOrder { step, premise } => {
                write!(f, "step {step}: premise {premise} is not strictly earlier")
            }
            CertificateError::PremiseMismatch { step, detail } => {
                write!(f, "step {step}: premise mismatch: {detail}")
            }
            CertificateError::AxiomUnsupported { step, detail } => {
                write!(
                    f,
                    "step {step}: axiom not supported by the history: {detail}"
                )
            }
            CertificateError::WrongScope { step } => {
                write!(
                    f,
                    "step {step}: rule outside the certificate's criterion scope"
                )
            }
            CertificateError::EmptyCycle => write!(f, "certificate cycle is empty"),
            CertificateError::CycleStepOutOfRange { position, step } => write!(
                f,
                "cycle position {position}: step index {step} out of range"
            ),
            CertificateError::CycleBroken { position } => write!(
                f,
                "cycle position {position}: edges do not chain head-to-tail"
            ),
        }
    }
}

impl Error for CertificateError {}

/// Whether `txn`'s read of `obj` returning `value` with response at event
/// index `read` exists, is complete, and is *external* (no earlier own
/// completed write to `obj`).
fn check_external_read(
    h: &History,
    txn: TxnId,
    obj: ObjId,
    value: Value,
    read: usize,
) -> Result<(), String> {
    let view = h.txn(txn).ok_or_else(|| format!("{txn} not in history"))?;
    let mut wrote_before = false;
    for op in view.ops() {
        if op.resp_index == Some(read) {
            return match (op.op, op.resp) {
                (Op::Read(x), Some(Ret::Value(got))) if x == obj && got == value => {
                    if wrote_before {
                        Err(format!(
                            "{txn}'s read of {obj} at event {read} is internal (own prior write)"
                        ))
                    } else {
                        Ok(())
                    }
                }
                _ => Err(format!(
                    "event {read} is not {txn} reading {value:?} from {obj}"
                )),
            };
        }
        if let (Op::Write(x, _), Some(Ret::Ok)) = (op.op, op.resp) {
            if x == obj {
                wrote_before = true;
            }
        }
    }
    Err(format!("{txn} has no response at event {read}"))
}

/// Whether `txn` is an admissible supplier of (`obj`, `value`) for a read
/// responding at event `read`: committable, final write of `value` to
/// `obj`, and (du mode) `tryC` invoked before the read's response.
fn is_supplier(h: &History, txn: TxnId, obj: ObjId, value: Value, read: usize, du: bool) -> bool {
    let Some(view) = h.txn(txn) else {
        return false;
    };
    if view.commit_capability() == CommitCapability::NeverCommitted {
        return false;
    }
    if view.last_write_to(obj) != Some(value) {
        return false;
    }
    if du {
        match h.try_commit_inv_index(txn) {
            Some(inv) => inv < read,
            None => false,
        }
    } else {
        true
    }
}

/// Validates `cert` against the literal history `h`, re-deriving every
/// step: axioms from the events themselves, derived steps from strictly
/// earlier premises, then the closed cycle.
///
/// Independent of the saturation engine and of [`crate::spec`]: only
/// `h`'s own accessors are consulted. Polynomial in `|H|` and the
/// certificate size.
///
/// # Errors
///
/// The first defect found, as a structured [`CertificateError`].
pub fn check_certificate(h: &History, cert: &Certificate) -> Result<(), CertificateError> {
    let du = cert.criterion == PlanCriterion::Du;
    for (i, step) in cert.steps.iter().enumerate() {
        if step.from == step.to {
            return Err(CertificateError::SelfEdge { step: i });
        }
        for txn in [step.from, step.to] {
            if !h.participates(txn) {
                return Err(CertificateError::UnknownTxn { step: i, txn });
            }
        }
        check_step(h, cert, i, du)?;
    }
    if cert.cycle.is_empty() {
        return Err(CertificateError::EmptyCycle);
    }
    for (pos, &s) in cert.cycle.iter().enumerate() {
        if s >= cert.steps.len() {
            return Err(CertificateError::CycleStepOutOfRange {
                position: pos,
                step: s,
            });
        }
        let next = cert.cycle[(pos + 1) % cert.cycle.len()];
        if next >= cert.steps.len() {
            continue; // reported at its own position
        }
        if cert.steps[s].to != cert.steps[next].from {
            return Err(CertificateError::CycleBroken { position: pos });
        }
    }
    Ok(())
}

/// Fetches premise `p` of step `i`, enforcing strict ordering.
fn premise(cert: &Certificate, i: usize, p: usize) -> Result<&Step, CertificateError> {
    if p >= i {
        return Err(CertificateError::PremiseOutOfOrder {
            step: i,
            premise: p,
        });
    }
    Ok(&cert.steps[p])
}

/// A [`Rule::ReadFrom`] premise: supplier `w`, reader `r`, and the read.
struct ReadFromPremise {
    w: TxnId,
    r: TxnId,
    obj: ObjId,
    value: Value,
    read: usize,
}

/// The [`Rule::ReadFrom`] premise `p` of step `i`, or a mismatch error.
fn read_from_premise(
    cert: &Certificate,
    i: usize,
    p: usize,
) -> Result<ReadFromPremise, CertificateError> {
    let rf = premise(cert, i, p)?;
    match rf.rule {
        Rule::ReadFrom { obj, value, read } => Ok(ReadFromPremise {
            w: rf.from,
            r: rf.to,
            obj,
            value,
            read,
        }),
        _ => Err(CertificateError::PremiseMismatch {
            step: i,
            detail: format!("premise {p} is not a read-from step"),
        }),
    }
}

fn check_step(h: &History, cert: &Certificate, i: usize, du: bool) -> Result<(), CertificateError> {
    let step = &cert.steps[i];
    let axiom_err = |detail: String| CertificateError::AxiomUnsupported { step: i, detail };
    match step.rule {
        Rule::RealTime => {
            if !h.precedes_rt(step.from, step.to) {
                return Err(axiom_err(format!(
                    "{} does not precede {} in real time",
                    step.from, step.to
                )));
            }
        }
        Rule::ReadFrom { obj, value, read } => {
            if value == Value::INITIAL {
                return Err(axiom_err(
                    "read-from cannot ground an initial-value read (T0 supplies it)".into(),
                ));
            }
            check_external_read(h, step.to, obj, value, read).map_err(&axiom_err)?;
            if !is_supplier(h, step.from, obj, value, read, du) {
                return Err(axiom_err(format!(
                    "{} is not an admissible supplier of {value:?} to {obj}",
                    step.from
                )));
            }
            let rival = h.txn_ids().find(|&j| {
                j != step.from && j != step.to && is_supplier(h, j, obj, value, read, du)
            });
            if let Some(j) = rival {
                return Err(axiom_err(format!(
                    "supplier is not unique: {j} also writes {value:?} to {obj}"
                )));
            }
        }
        Rule::AntiDependency { obj, read } => {
            check_external_read(h, step.from, obj, Value::INITIAL, read).map_err(&axiom_err)?;
            let restorer = h.txns().find(|t| {
                t.id() != step.from
                    && t.commit_capability() != CommitCapability::NeverCommitted
                    && t.last_write_to(obj) == Some(Value::INITIAL)
            });
            if let Some(t) = restorer {
                return Err(axiom_err(format!(
                    "{} restores the initial value of {obj}",
                    t.id()
                )));
            }
            let writer = h.txn(step.to).expect("participation checked");
            if writer.commit_capability() != CommitCapability::Committed {
                return Err(axiom_err(format!("{} is not committed", step.to)));
            }
            if writer.last_write_to(obj).is_none() {
                return Err(axiom_err(format!("{} does not write {obj}", step.to)));
            }
        }
        Rule::ReadCommitOrder { obj, read, tryc } => {
            if cert.criterion != PlanCriterion::Rco {
                return Err(CertificateError::WrongScope { step: i });
            }
            let reader = h.txn(step.from).expect("participation checked");
            if h.read_resp_index(step.from, obj) != Some(read) || reader.read_value(obj).is_none() {
                return Err(axiom_err(format!(
                    "{} has no value-returning read of {obj} responding at event {read}",
                    step.from
                )));
            }
            let writer = h.txn(step.to).expect("participation checked");
            if writer.commit_capability() != CommitCapability::Committed {
                return Err(axiom_err(format!("{} is not committed", step.to)));
            }
            if !writer.write_set().contains(&obj) {
                return Err(axiom_err(format!("{} does not write {obj}", step.to)));
            }
            if h.try_commit_inv_index(step.to) != Some(tryc) {
                return Err(axiom_err(format!(
                    "{}'s tryC invocation is not at event {tryc}",
                    step.to
                )));
            }
            if read >= tryc {
                return Err(axiom_err(format!(
                    "read response {read} does not precede tryC invocation {tryc}"
                )));
            }
        }
        Rule::Tms2CommitOrder { obj, resp, tryc } => {
            if cert.criterion != PlanCriterion::Tms2 {
                return Err(CertificateError::WrongScope { step: i });
            }
            let writer = h.txn(step.from).expect("participation checked");
            if !writer.is_committed() {
                return Err(axiom_err(format!("{} is not committed", step.from)));
            }
            let w_resp = writer
                .ops()
                .iter()
                .find(|o| o.op.is_try_commit())
                .and_then(|o| o.resp_index);
            if w_resp != Some(resp) {
                return Err(axiom_err(format!(
                    "{}'s tryC response is not at event {resp}",
                    step.from
                )));
            }
            if !writer.write_set().contains(&obj) {
                return Err(axiom_err(format!("{} does not write {obj}", step.from)));
            }
            if h.try_commit_inv_index(step.to) != Some(tryc) {
                return Err(axiom_err(format!(
                    "{}'s tryC invocation is not at event {tryc}",
                    step.to
                )));
            }
            let reader = h.txn(step.to).expect("participation checked");
            if !reader.read_set().contains(&obj) {
                return Err(axiom_err(format!("{} does not read {obj}", step.to)));
            }
            if resp >= tryc {
                return Err(axiom_err(format!(
                    "tryC response {resp} does not precede tryC invocation {tryc}"
                )));
            }
        }
        Rule::Transitive { first, second } => {
            let a = premise(cert, i, first)?;
            let b = premise(cert, i, second)?;
            if a.from != step.from || a.to != b.from || b.to != step.to {
                return Err(CertificateError::PremiseMismatch {
                    step: i,
                    detail: format!(
                        "{} -> {} and {} -> {} do not compose to {} -> {}",
                        a.from, a.to, b.from, b.to, step.from, step.to
                    ),
                });
            }
        }
        Rule::InterferenceAfter { read_from, before } => {
            let rf = read_from_premise(cert, i, read_from)?;
            let b = premise(cert, i, before)?;
            if step.from != rf.r || b.from != rf.w || b.to != step.to {
                return Err(CertificateError::PremiseMismatch {
                    step: i,
                    detail: "premises do not anchor r and w -> to".into(),
                });
            }
            check_interferer(h, i, step.to, &rf, du)?;
        }
        Rule::InterferenceBefore { read_from, after } => {
            let rf = read_from_premise(cert, i, read_from)?;
            let a = premise(cert, i, after)?;
            if step.to != rf.w || a.from != step.from || a.to != rf.r {
                return Err(CertificateError::PremiseMismatch {
                    step: i,
                    detail: "premises do not anchor w and from -> r".into(),
                });
            }
            check_interferer(h, i, step.from, &rf, du)?;
        }
    }
    Ok(())
}

/// An interference rule's third party must be a *committed* writer of the
/// read's object whose final write differs from the read's value — only
/// then is "cannot sit between supplier and reader" forced. Under
/// du-opacity it must also be `tryC`-eligible for the read, unless the
/// supplier is the only committable writer of the value: otherwise a
/// non-eligible writer could restore the global value after it, and the
/// read stays legal.
fn check_interferer(
    h: &History,
    i: usize,
    txn: TxnId,
    rf: &ReadFromPremise,
    du: bool,
) -> Result<(), CertificateError> {
    let unsupported = |detail: String| CertificateError::AxiomUnsupported { step: i, detail };
    let view = h.txn(txn).expect("participation checked");
    if view.commit_capability() != CommitCapability::Committed {
        return Err(unsupported(format!("{txn} is not committed")));
    }
    let obj = rf.obj;
    match view.last_write_to(obj) {
        Some(v) if v != rf.value => {}
        Some(_) => {
            return Err(unsupported(format!(
                "{txn}'s final write to {obj} re-supplies the read value"
            )))
        }
        None => return Err(unsupported(format!("{txn} does not write {obj}"))),
    }
    if !du || h.try_commit_inv_index(txn).is_some_and(|inv| inv < rf.read) {
        return Ok(());
    }
    let restorer = h
        .txn_ids()
        .find(|&k| k != rf.w && k != rf.r && is_supplier(h, k, obj, rf.value, rf.read, false));
    match restorer {
        None => Ok(()),
        Some(k) => Err(unsupported(format!(
            "{txn} is not tryC-eligible for the read at event {} and {k} can restore {:?} to {obj}",
            rf.read, rf.value
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::HistoryBuilder;

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    /// T1 writes then commits; T2 (entirely after T1) reads the initial
    /// value: real-time gives T1 -> T2, anti-dependency gives T2 -> T1.
    fn lost_initial_history() -> History {
        HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(0))
            .build()
    }

    fn lost_initial_certificate(h: &History) -> Certificate {
        let read = h.read_resp_index(t(2), x()).expect("T2 reads X0");
        Certificate {
            criterion: PlanCriterion::FinalState,
            steps: vec![
                Step {
                    from: t(1),
                    to: t(2),
                    rule: Rule::RealTime,
                },
                Step {
                    from: t(2),
                    to: t(1),
                    rule: Rule::AntiDependency { obj: x(), read },
                },
            ],
            cycle: vec![0, 1],
        }
    }

    #[test]
    fn valid_certificate_is_accepted() {
        let h = lost_initial_history();
        let cert = lost_initial_certificate(&h);
        assert_eq!(check_certificate(&h, &cert), Ok(()));
    }

    #[test]
    fn broken_cycle_is_rejected() {
        let h = lost_initial_history();
        let mut cert = lost_initial_certificate(&h);
        cert.cycle = vec![0, 0];
        assert!(matches!(
            check_certificate(&h, &cert),
            Err(CertificateError::CycleBroken { .. })
        ));
    }

    #[test]
    fn empty_cycle_is_rejected() {
        let h = lost_initial_history();
        let mut cert = lost_initial_certificate(&h);
        cert.cycle.clear();
        assert_eq!(
            check_certificate(&h, &cert),
            Err(CertificateError::EmptyCycle)
        );
    }

    #[test]
    fn unknown_txn_is_rejected() {
        let h = lost_initial_history();
        let mut cert = lost_initial_certificate(&h);
        cert.steps[0].from = t(9);
        assert!(matches!(
            check_certificate(&h, &cert),
            Err(CertificateError::UnknownTxn { step: 0, .. })
        ));
    }

    #[test]
    fn fabricated_real_time_edge_is_rejected() {
        // T1 and T2 overlap: no real-time edge either way.
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .resp_ok(t(1))
            .commit(t(1))
            .commit(t(2))
            .build();
        let cert = Certificate {
            criterion: PlanCriterion::FinalState,
            steps: vec![Step {
                from: t(1),
                to: t(2),
                rule: Rule::RealTime,
            }],
            cycle: vec![0],
        };
        assert!(matches!(
            check_certificate(&h, &cert),
            Err(CertificateError::AxiomUnsupported { step: 0, .. })
                | Err(CertificateError::CycleBroken { .. })
        ));
    }

    #[test]
    fn rco_rule_is_scope_gated() {
        let h = lost_initial_history();
        let mut cert = lost_initial_certificate(&h);
        cert.steps[1].rule = Rule::ReadCommitOrder {
            obj: x(),
            read: 0,
            tryc: 1,
        };
        assert_eq!(
            check_certificate(&h, &cert),
            Err(CertificateError::WrongScope { step: 1 })
        );
    }

    #[test]
    fn read_from_requires_unique_supplier() {
        // Two committable writers of the same value: the edge is not
        // forced, so a read-from step must be rejected.
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(7))
            .committed_writer(t(2), x(), v(7))
            .committed_reader(t(3), x(), v(7))
            .build();
        let read = h.read_resp_index(t(3), x()).unwrap();
        let cert = Certificate {
            criterion: PlanCriterion::FinalState,
            steps: vec![Step {
                from: t(1),
                to: t(3),
                rule: Rule::ReadFrom {
                    obj: x(),
                    value: v(7),
                    read,
                },
            }],
            cycle: vec![0],
        };
        assert!(matches!(
            check_certificate(&h, &cert),
            Err(CertificateError::AxiomUnsupported { step: 0, .. })
        ));
    }

    #[test]
    fn premise_order_is_enforced() {
        let h = lost_initial_history();
        let mut cert = lost_initial_certificate(&h);
        cert.steps.push(Step {
            from: t(1),
            to: t(1),
            rule: Rule::Transitive {
                first: 0,
                second: 1,
            },
        });
        // Self edge reported before the premise check.
        assert!(matches!(
            check_certificate(&h, &cert),
            Err(CertificateError::SelfEdge { step: 2 })
        ));

        let mut fwd = lost_initial_certificate(&h);
        fwd.steps.insert(
            0,
            Step {
                from: t(1),
                to: t(2),
                rule: Rule::Transitive {
                    first: 1,
                    second: 2,
                },
            },
        );
        fwd.cycle = vec![1, 2];
        assert!(matches!(
            check_certificate(&h, &fwd),
            Err(CertificateError::PremiseOutOfOrder { step: 0, .. })
        ));
    }

    #[test]
    fn display_renders_cycle() {
        let h = lost_initial_history();
        let cert = lost_initial_certificate(&h);
        let text = cert.to_string();
        assert!(text.contains("T1"), "{text}");
        assert!(text.contains("anti-dependency"), "{text}");
    }
}
