//! One deadline per check, however many workers run it: the wall-clock
//! limit resolves once when the search starts, and every component task
//! of the parallel engine races that same instant. A component claimed
//! late must not start a clock of its own.

use duop_core::{Criterion, DuOpacity, SearchConfig, UnknownReason, Verdict};
use duop_history::{History, HistoryBuilder, ObjId, TxnId, Value};
use std::time::{Duration, Instant};

/// Independent components, each unsatisfiable only deep in the search:
/// `W1` writes `(y, z) = (100, 100)` and `W2` writes `(200, 200)`, while
/// the reader takes `y` from `W1` and `z` from `W2`, a mixed snapshot no
/// serial order produces. Six more commit-pending writers of `y` per
/// component make the exhaustive search long. Every transaction starts
/// before any completes, so no real-time edge joins two components.
fn mixed_snapshot_components(components: u32) -> History {
    let (t, v) = (TxnId::new, Value::new);
    let y = |c: u32| ObjId::new(2 * c);
    let z = |c: u32| ObjId::new(2 * c + 1);
    let txn = |c: u32, k: u32| t(c * 10 + k + 1);
    let mut b = HistoryBuilder::new();
    for c in 0..components {
        for (k, val) in [(0, 100), (1, 200)] {
            b = b
                .inv_write(txn(c, k), y(c), v(val))
                .resp_ok(txn(c, k))
                .inv_write(txn(c, k), z(c), v(val))
                .resp_ok(txn(c, k))
                .inv_try_commit(txn(c, k));
        }
        for k in 2..8 {
            b = b
                .inv_write(txn(c, k), y(c), v(u64::from(k) * 1000))
                .resp_ok(txn(c, k))
                .inv_try_commit(txn(c, k));
        }
    }
    for c in 0..components {
        let r = txn(c, 8);
        b = b
            .inv_read(r, y(c))
            .resp_value(r, v(100))
            .inv_read(r, z(c))
            .resp_value(r, v(200));
    }
    for c in 0..components {
        b = b.commit(txn(c, 8));
    }
    b.build()
}

/// The raw search under a deadline: no memo (so each component's search
/// outlasts the deadline), no prefilters and no ladder (so nothing decides
/// the history before or after the search).
fn deadline_cfg(threads: usize, deadline: Duration) -> SearchConfig {
    SearchConfig {
        threads: Some(threads),
        memo: false,
        prelint: false,
        saturate: false,
        ladder: false,
        deadline: Some(deadline),
        ..SearchConfig::default()
    }
}

#[test]
fn component_tasks_share_one_deadline() {
    let h = mixed_snapshot_components(16);
    let deadline = Duration::from_millis(100);
    for threads in [1, 2] {
        let start = Instant::now();
        let verdict = DuOpacity::with_config(deadline_cfg(threads, deadline)).check(&h);
        let elapsed = start.elapsed();
        assert!(
            matches!(
                verdict,
                Verdict::Unknown {
                    reason: UnknownReason::Deadline,
                    ..
                }
            ),
            "threads {threads}: {verdict:?}"
        );
        // Sixteen components each starting a clock of their own would
        // take eight deadlines on two workers.
        assert!(
            elapsed < deadline * 4,
            "threads {threads}: a {deadline:?} deadline returned after {elapsed:?}"
        );
    }
}
