//! The unique-writes fast path (Theorem 11).
//!
//! Under the assumption that no two transactions write the same value to
//! the same t-object, the reads-from relation of a history is *fixed*:
//! each external `read_k(X) → v` can only have read from the single
//! transaction that writes `v` to `X` (or from `T_0` when `v` is the
//! initial value). Theorem 11 shows that opacity and du-opacity coincide
//! on such histories; operationally, fixing reads-from lets a polynomial
//! constraint-propagation pass decide most histories outright, falling
//! back to the general du-opacity check only when an anti-dependency
//! disjunction remains unresolved. Every edge the pass infers is implied
//! by du-opacity, so the fallback needs none of them: the general check
//! derives the same verdict from the history alone.

use crate::{Criterion, DuOpacity, Verdict, Violation, Witness};
use duop_history::{CommitCapability, History, ObjId, TxnId, Value};
use std::collections::BTreeMap;

/// Returns `true` if no two distinct transactions write the same value to
/// the same t-object — the hypothesis of Theorem 11.
///
/// The imaginary initial transaction `T_0` counts: an explicit write of
/// [`Value::INITIAL`] duplicates `T_0`'s initializing write and therefore
/// violates the assumption.
///
/// # Examples
///
/// ```
/// use duop_core::unique::has_unique_writes;
/// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
///
/// let x = ObjId::new(0);
/// let h = HistoryBuilder::new()
///     .committed_writer(TxnId::new(1), x, Value::new(1))
///     .committed_writer(TxnId::new(2), x, Value::new(2))
///     .build();
/// assert!(has_unique_writes(&h));
/// ```
pub fn has_unique_writes(h: &History) -> bool {
    let mut seen: std::collections::HashMap<(ObjId, Value), TxnId> =
        std::collections::HashMap::new();
    for t in h.txns() {
        for op in t.ops() {
            if let duop_history::Op::Write(x, v) = op.op {
                if v == Value::INITIAL {
                    return false; // duplicates T0's initializing write
                }
                match seen.get(&(x, v)) {
                    Some(owner) if *owner != t.id() => return false,
                    _ => {
                        seen.insert((x, v), t.id());
                    }
                }
            }
        }
    }
    true
}

/// Statistics from a [`check_unique_writes_fast`] run, for the ablation
/// benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Propagation rounds executed.
    pub rounds: usize,
    /// Precedence edges inferred.
    pub edges: usize,
    /// `true` if the general du-opacity check had to finish the job.
    pub fell_back: bool,
}

/// Decides du-opacity of a *unique-writes* history by constraint
/// propagation over the fixed reads-from relation.
///
/// Sound and complete: every edge propagation infers is implied by the
/// definition, so a verdict it reaches is [`DuOpacity`]'s; if a
/// disjunctive anti-dependency constraint cannot be resolved by
/// propagation, the verdict is [`DuOpacity::check`]'s own. By Theorem 11
/// the verdict also matches [`Opacity`](crate::Opacity) for complete
/// unique-writes histories.
///
/// # Examples
///
/// ```
/// use duop_core::unique::check_unique_writes_fast;
/// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
///
/// let h = HistoryBuilder::new()
///     .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
///     .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
///     .build();
/// let (verdict, stats) = check_unique_writes_fast(&h);
/// assert!(verdict.is_satisfied());
/// assert!(!stats.fell_back);
/// ```
///
/// # Panics
///
/// Panics if `h` does not satisfy [`has_unique_writes`]; check first.
pub fn check_unique_writes_fast(h: &History) -> (Verdict, FastPathStats) {
    assert!(
        has_unique_writes(h),
        "fast path requires the unique-writes assumption"
    );
    let (decided, mut stats) = propagate(h);
    if let Some(verdict) = decided {
        return (verdict, stats);
    }
    stats.fell_back = true;
    (DuOpacity::new().check(h), stats)
}

/// The polynomial portion of the Theorem 11 fast path: decides du-opacity
/// by constraint propagation alone, *abstaining* (`None`) when an
/// anti-dependency disjunction remains unresolved instead of falling back
/// to the exponential search.
///
/// Also abstains when `h` does not satisfy [`has_unique_writes`] (the
/// hypothesis of Theorem 11). Any `Some` verdict matches what
/// [`DuOpacity`] would return; this is the degradation ladder's
/// budget-free tier.
///
/// # Examples
///
/// ```
/// use duop_core::unique::propagate_unique_writes;
/// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
///
/// let h = HistoryBuilder::new()
///     .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(1))
///     .committed_reader(TxnId::new(2), ObjId::new(0), Value::new(1))
///     .build();
/// assert!(propagate_unique_writes(&h).is_some_and(|v| v.is_satisfied()));
/// ```
pub fn propagate_unique_writes(h: &History) -> Option<Verdict> {
    if !has_unique_writes(h) {
        return None;
    }
    propagate(h).0
}

/// Shared propagation pass: returns the decided verdict, `None` when an
/// anti-dependency disjunction remains unresolved, along with the pass's
/// statistics.
fn propagate(h: &History) -> (Option<Verdict>, FastPathStats) {
    let mut stats = FastPathStats::default();

    let ids: Vec<TxnId> = h.txn_ids().collect();
    let n = ids.len();

    // Writers per (object, value). Only a transaction's *last* write to an
    // object is ever observable (the "latest written value" of Section 2),
    // so intermediate overwritten writes are deliberately excluded — a
    // read returning one is unserializable.
    let mut writer_of: std::collections::HashMap<(ObjId, Value), usize> =
        std::collections::HashMap::new();
    for (i, t) in h.txns().enumerate() {
        for &x in &t.write_set() {
            if let Some(v) = t.last_write_to(x) {
                writer_of.insert((x, v), i);
            }
        }
    }

    // External reads: (reader, obj, value, resp index).
    struct FixedRead {
        reader: usize,
        obj: ObjId,
        value: Value,
        resp: usize,
        /// Index of the source transaction, `None` for T0.
        source: Option<usize>,
    }
    let mut reads: Vec<FixedRead> = Vec::new();
    for (i, t) in h.txns().enumerate() {
        let mut written: Vec<ObjId> = Vec::new();
        for op in t.ops() {
            match (op.op, op.resp) {
                (duop_history::Op::Write(x, _), Some(duop_history::Ret::Ok)) => written.push(x),
                (duop_history::Op::Read(x), Some(duop_history::Ret::Value(v))) => {
                    if written.contains(&x) {
                        continue; // own-write read, resolved by preprocessing
                    }
                    reads.push(FixedRead {
                        reader: i,
                        obj: x,
                        value: v,
                        resp: op.resp_index.expect("complete read"),
                        source: None,
                    });
                }
                _ => {}
            }
        }
    }

    // Resolve reads-from; decide forced commits.
    let caps: Vec<CommitCapability> = h.txns().map(|t| t.commit_capability()).collect();
    let mut forced_commit = vec![false; n];
    for r in &mut reads {
        if r.value == Value::INITIAL {
            continue; // reads from T0 (nothing else writes the initial value)
        }
        let Some(&w) = writer_of.get(&(r.obj, r.value)) else {
            return (
                Some(Verdict::Violated(Violation::MissingWriter {
                    txn: ids[r.reader],
                    obj: r.obj,
                    value: r.value,
                })),
                stats,
            );
        };
        if w == r.reader {
            // Unique writes: only the reader itself writes this value, but
            // an external read precedes every own write to the object.
            return (
                Some(Verdict::Violated(Violation::MissingWriter {
                    txn: ids[r.reader],
                    obj: r.obj,
                    value: r.value,
                })),
                stats,
            );
        }
        // Deferred-update eligibility (Definition 3(3)): the source must
        // have invoked tryC before the read's response.
        let eligible = h
            .try_commit_inv_index(ids[w])
            .is_some_and(|inv| inv < r.resp);
        let commit_capable = match caps[w] {
            CommitCapability::Committed => true,
            CommitCapability::CommitPending => true,
            CommitCapability::NeverCommitted => false,
        };
        if !eligible || !commit_capable {
            return (
                Some(Verdict::Violated(Violation::MissingWriter {
                    txn: ids[r.reader],
                    obj: r.obj,
                    value: r.value,
                })),
                stats,
            );
        }
        if caps[w] == CommitCapability::CommitPending {
            forced_commit[w] = true;
        }
        r.source = Some(w);
    }

    // Transactions committed in the serialization we are constructing.
    let committed: Vec<bool> = (0..n)
        .map(|i| caps[i] == CommitCapability::Committed || forced_commit[i])
        .collect();

    // Committed writers per object.
    let mut committed_writers: std::collections::HashMap<ObjId, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, t) in h.txns().enumerate() {
        if committed[i] {
            for &x in &t.write_set() {
                committed_writers.entry(x).or_default().push(i);
            }
        }
    }

    // Edge matrix (adjacency), seeded with real time and reads-from.
    let mut adj = vec![vec![false; n]; n];
    let add_edge = |adj: &mut Vec<Vec<bool>>, a: usize, b: usize, stats: &mut FastPathStats| {
        if !adj[a][b] {
            adj[a][b] = true;
            stats.edges += 1;
        }
    };
    for (i, &a) in ids.iter().enumerate() {
        for (j, &b) in ids.iter().enumerate() {
            if i != j && h.precedes_rt(a, b) {
                add_edge(&mut adj, i, j, &mut stats);
            }
        }
    }
    for r in &reads {
        if let Some(w) = r.source {
            add_edge(&mut adj, w, r.reader, &mut stats);
        }
        // Reads from T0: every committed writer of the object must follow
        // the reader.
        if r.source.is_none() {
            if let Some(ws) = committed_writers.get(&r.obj) {
                for &j in ws {
                    if j != r.reader {
                        add_edge(&mut adj, r.reader, j, &mut stats);
                    }
                }
            }
        }
    }

    // Propagate anti-dependency disjunctions to fixpoint.
    let mut unresolved = true;
    let mut progress = true;
    while progress {
        progress = false;
        stats.rounds += 1;
        let reach = closure(&adj);
        // Cycle?
        if (0..n).any(|i| reach[i][i]) {
            let cyc: Vec<TxnId> = (0..n).filter(|&i| reach[i][i]).map(|i| ids[i]).collect();
            return (
                Some(Verdict::Violated(Violation::ConstraintCycle { txns: cyc })),
                stats,
            );
        }
        unresolved = false;
        for r in &reads {
            let Some(w) = r.source else { continue };
            let Some(ws) = committed_writers.get(&r.obj) else {
                continue;
            };
            for &j in ws {
                if j == w || j == r.reader {
                    continue;
                }
                // T_j must not fall between the source and the reader:
                // either T_j < source or reader < T_j.
                let before = reach[j][w];
                let after = reach[r.reader][j];
                match (before, after) {
                    (true, true) => {
                        // j < w < reader < j: cycle; will be caught above
                        // next round after we add nothing — report now.
                        return (
                            Some(Verdict::Violated(Violation::ConstraintCycle {
                                txns: vec![ids[j], ids[w], ids[r.reader]],
                            })),
                            stats,
                        );
                    }
                    (true, false) | (false, true) => {}
                    (false, false) => {
                        // Try to resolve using forbidden directions.
                        if reach[w][j] {
                            // source < j forced: need reader < j.
                            add_edge(&mut adj, r.reader, j, &mut stats);
                            progress = true;
                        } else if reach[j][r.reader] {
                            // j < reader forced: need j < source.
                            add_edge(&mut adj, j, w, &mut stats);
                            progress = true;
                        } else {
                            unresolved = true;
                        }
                    }
                }
            }
        }
    }

    if unresolved {
        // Only `check_unique_writes_fast` escalates to the general check.
        return (None, stats);
    }

    // All constraints resolved: any topological order is a witness.
    let order_idx = topo_order(&adj).expect("acyclic after closure check");
    let order: Vec<TxnId> = order_idx.into_iter().map(|i| ids[i]).collect();
    let mut choices = BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        if caps[i] == CommitCapability::CommitPending {
            choices.insert(id, forced_commit[i]);
        }
    }
    (
        Some(Verdict::Satisfied(Witness::new(order, choices))),
        stats,
    )
}

/// Convenience: decides du-opacity, taking the fast path when the history
/// has unique writes and the general search otherwise.
///
/// # Examples
///
/// ```
/// use duop_core::unique::check_du_opacity_auto;
/// use duop_history::{HistoryBuilder, ObjId, TxnId, Value};
///
/// let h = HistoryBuilder::new()
///     .committed_writer(TxnId::new(1), ObjId::new(0), Value::new(5))
///     .build();
/// assert!(check_du_opacity_auto(&h).is_satisfied());
/// ```
pub fn check_du_opacity_auto(h: &History) -> Verdict {
    if has_unique_writes(h) {
        check_unique_writes_fast(h).0
    } else {
        DuOpacity::new().check(h)
    }
}

fn closure(adj: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let n = adj.len();
    let mut reach: Vec<Vec<bool>> = adj.to_vec();
    for k in 0..n {
        for i in 0..n {
            if i == k || !reach[i][k] {
                continue; // OR-ing a row into itself is a no-op
            }
            let (head, tail) = if i < k {
                let (a, b) = reach.split_at_mut(k);
                (&mut a[i], &b[0])
            } else {
                let (a, b) = reach.split_at_mut(i);
                (&mut b[0], &a[k])
            };
            for (dst, &src) in head.iter_mut().zip(tail.iter()) {
                *dst |= src;
            }
        }
    }
    reach
}

fn topo_order(adj: &[Vec<bool>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut indeg = vec![0usize; n];
    for row in adj {
        for (j, &e) in row.iter().enumerate() {
            if e {
                indeg[j] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        out.push(i);
        for j in 0..n {
            if adj[i][j] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
    }
    (out.len() == n).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_witness, CriterionKind};
    use duop_history::{HistoryBuilder, ObjId};

    fn t(k: u32) -> TxnId {
        TxnId::new(k)
    }
    fn x() -> ObjId {
        ObjId::new(0)
    }
    fn v(n: u64) -> Value {
        Value::new(n)
    }

    #[test]
    fn unique_writes_detection() {
        let unique = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(2))
            .build();
        assert!(has_unique_writes(&unique));

        let duplicated = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(1))
            .build();
        assert!(!has_unique_writes(&duplicated));
    }

    #[test]
    fn same_txn_rewriting_a_value_is_still_unique() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .write(t(1), x(), v(1))
            .commit(t(1))
            .build();
        assert!(has_unique_writes(&h));
    }

    #[test]
    fn fast_path_accepts_and_produces_valid_witness() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .committed_writer(t(3), x(), v(2))
            .committed_reader(t(4), x(), v(2))
            .build();
        let (verdict, stats) = check_unique_writes_fast(&h);
        let w = verdict.witness().expect("du-opaque");
        assert_eq!(check_witness(&h, w, CriterionKind::DuOpacity), Ok(()));
        assert!(!stats.fell_back);
    }

    #[test]
    fn fast_path_rejects_stale_read() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(0))
            .build();
        let (verdict, _) = check_unique_writes_fast(&h);
        assert!(verdict.is_violated());
    }

    #[test]
    fn fast_path_rejects_du_ineligible_source() {
        // T2 reads T3's value before T3 invokes tryC.
        let h = HistoryBuilder::new()
            .read(t(2), x(), v(1))
            .committed_writer(t(3), x(), v(1))
            .commit(t(2))
            .build();
        let (verdict, _) = check_unique_writes_fast(&h);
        assert_eq!(
            verdict.violation(),
            Some(&Violation::MissingWriter {
                txn: t(2),
                obj: x(),
                value: v(1)
            })
        );
    }

    #[test]
    fn fast_path_matches_general_search() {
        // Concurrent mix, unique writes.
        let h = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_read(t(2), x())
            .resp_value(t(2), v(0))
            .resp_ok(t(1))
            .commit(t(1))
            .commit(t(2))
            .committed_reader(t(3), x(), v(1))
            .build();
        let (fast, _) = check_unique_writes_fast(&h);
        let general = DuOpacity::new().check(&h);
        assert_eq!(fast.is_satisfied(), general.is_satisfied());
        if let Some(w) = fast.witness() {
            assert_eq!(check_witness(&h, w, CriterionKind::DuOpacity), Ok(()));
        }
    }

    /// When propagation leaves an anti-dependency disjunction open, the
    /// fast path returns du-opacity's own verdict.
    #[test]
    fn unresolved_disjunction_falls_back_to_du_opacity() {
        // T2 reads T1's 1 while T3's write of 3 overlaps both: T3 may go
        // before T1 or after T2, and propagation cannot choose.
        let concurrent = HistoryBuilder::new()
            .inv_write(t(1), x(), v(1))
            .inv_write(t(3), x(), v(3))
            .resp_ok(t(1))
            .resp_ok(t(3))
            .inv_try_commit(t(1))
            .inv_try_commit(t(3))
            .read(t(2), x(), v(1))
            .resp_committed(t(1))
            .resp_committed(t(3))
            .commit(t(2))
            .build();
        let mut histories = vec![concurrent];
        for seed in 0..40 {
            let mut cfg = duop_gen::HistoryGenConfig::small_adversarial().with_txns(8);
            cfg.unique_writes = true;
            histories.push(duop_gen::HistoryGen::new(cfg, seed).generate());
        }
        let (mut fell_back, mut satisfied) = (0, 0);
        for h in histories.iter().filter(|h| has_unique_writes(h)) {
            let (verdict, stats) = check_unique_writes_fast(h);
            if !stats.fell_back {
                continue;
            }
            fell_back += 1;
            assert_eq!(verdict, DuOpacity::new().check(h), "{h:?}");
            if let Some(w) = verdict.witness() {
                satisfied += 1;
                assert_eq!(check_witness(h, w, CriterionKind::DuOpacity), Ok(()));
            }
        }
        assert!(
            fell_back > 0 && satisfied > 0,
            "{fell_back} fell back, {satisfied} satisfied"
        );
    }

    #[test]
    fn auto_dispatches_on_uniqueness() {
        let non_unique = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(1))
            .committed_reader(t(3), x(), v(1))
            .build();
        assert!(check_du_opacity_auto(&non_unique).is_satisfied());

        let unique = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_reader(t(2), x(), v(1))
            .build();
        assert!(check_du_opacity_auto(&unique).is_satisfied());
    }

    #[test]
    #[should_panic(expected = "unique-writes assumption")]
    fn fast_path_panics_without_uniqueness() {
        let h = HistoryBuilder::new()
            .committed_writer(t(1), x(), v(1))
            .committed_writer(t(2), x(), v(1))
            .build();
        check_unique_writes_fast(&h);
    }

    #[test]
    fn pending_source_is_force_committed() {
        let h = HistoryBuilder::new()
            .write(t(1), x(), v(1))
            .inv_try_commit(t(1))
            .read(t(2), x(), v(1))
            .commit(t(2))
            .build();
        let (verdict, _) = check_unique_writes_fast(&h);
        let w = verdict.witness().expect("du-opaque");
        assert_eq!(w.commit_choice(t(1)), Some(true));
        assert_eq!(check_witness(&h, w, CriterionKind::DuOpacity), Ok(()));
    }
}
