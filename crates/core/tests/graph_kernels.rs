//! Equivalence suite for the precedence-graph kernels.
//!
//! Lint, the planner, the search and saturation all walk one precedence
//! graph over transactions. Their kernels are word-parallel or
//! touched-only; this suite keeps the literal form of each as the
//! reference and asserts identical output:
//!
//! * the topological check against Kahn's algorithm — the same cyclic set
//!   (every node on a cycle or downstream of one), and on an acyclic graph
//!   an order that respects every edge;
//! * the fail-first closure against the per-edge closure;
//! * the planner's union-find against joining every edge;
//! * saturation's closure against the bit-test Warshall step, down to
//!   the pivot recorded for each added edge and the order of additions;
//! * lint AN005's two-cycle index against the pair loop;
//! * the touched-only dead-end check against the all-slot scan, after
//!   every placement of a bounded walk of each search tree from every
//!   root the scan finds alive — and the searcher's dead-end rule against
//!   the plain rule it refines (a read's value is lost once every writer
//!   of it is placed): every plain dead end is a dead end, and from each
//!   dead end only the must-follow sets reveal, dead roots included, a
//!   budgeted plain-rule search finds no witness (and, on the small and
//!   cyclic corpora, exhausts).
//!
//! Random graphs: dense interval orders plus random edges, self-loops,
//! 2-cycles, long cycles, nodes downstream of a cycle and disconnected
//! parts. Corpora: six- and nine-transaction adversarial histories under
//! three key distributions, the anomaly catalogue, 48-transaction
//! simulated histories at concurrency 12 on 4 objects, `stream-serve`
//! prefixes every 64 events, and two 768-transaction streaming traces;
//! 200-transaction streaming traces at concurrency 6 and 40-transaction
//! adversarial histories reach lint CY004, `ConstraintCycle` and certified
//! refutations. On every history the CY004 diagnostics and any
//! `ConstraintCycle` must name exactly Kahn's leftover.

use duop_core::graph_kernels::{
    an005_pairs, check_plain_dead_ends, dead_end_audit, descendants, order_components, topo_order,
    transitive_close, Closure,
};
use duop_core::lint::Applicability;
use duop_core::must_precede::{AntiDep, Facts};
use duop_core::{
    check_criterion_with_stats, saturate, PlanCriterion, SaturationOutcome, SearchConfig, Verdict,
    Violation,
};
use duop_gen::{anomalies, HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{CommitCapability, History, HistoryBuilder, ObjId, TxnId, Value};
use proptest::prelude::*;

const CRITERIA: [PlanCriterion; 5] = [
    PlanCriterion::FinalState,
    PlanCriterion::Du,
    PlanCriterion::Rco,
    PlanCriterion::Tms2,
    PlanCriterion::Strict,
];

const DISTS: [KeyDist; 3] = [
    KeyDist::Uniform,
    KeyDist::Zipfian { theta: 1.2 },
    KeyDist::Hotspot {
        hot_fraction: 0.25,
        hot_prob: 0.9,
    },
];

/// Saturation runs only up to this many transactions, so the closure is
/// compared only there.
const SATURATION_GATE: usize = 512;

/// A fixed-capacity bit set, as the kernels' inputs were held before
/// they became word-parallel.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64).max(1)])
    }
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
    fn union_with(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
    fn ones(&self, n: usize) -> Vec<usize> {
        (0..n).filter(|&i| self.contains(i)).collect()
    }
}

fn bits(n: usize, lists: &[Vec<usize>]) -> Vec<Bits> {
    lists
        .iter()
        .map(|l| {
            let mut b = Bits::new(n);
            for &i in l {
                b.insert(i);
            }
            b
        })
        .collect()
}

/// Kahn's algorithm over predecessor sets, as the topological check ran
/// it: a topological order, or the indices whose in-degree never reached
/// zero.
fn kahn(preds: &[Vec<usize>]) -> Result<Vec<usize>, Vec<usize>> {
    let n = preds.len();
    let preds = bits(n, preds);
    let mut indeg: Vec<usize> = preds.iter().map(|p| p.ones(n).len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        topo.push(i);
        for (j, p) in preds.iter().enumerate() {
            if p.contains(i) {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
    }
    if topo.len() == n {
        Ok(topo)
    } else {
        Err((0..n).filter(|&i| indeg[i] > 0).collect())
    }
}

/// The per-edge closure over successor lists, in reverse topological
/// order.
fn literal_descendants(preds: &[Vec<usize>], topo: &[usize]) -> Vec<Vec<usize>> {
    let n = preds.len();
    let succs = transpose(preds);
    let mut desc: Vec<Bits> = (0..n).map(|_| Bits::new(n)).collect();
    for &i in topo.iter().rev() {
        let mut d = Bits::new(n);
        for &j in &succs[i] {
            d.insert(j);
            d.union_with(&desc[j]);
        }
        desc[i] = d;
    }
    desc.iter().map(|d| d.ones(n)).collect()
}

/// Union-find joining every edge of `preds ∪ commit_preds`; components
/// sorted, ordered by smallest member.
fn literal_components(preds: &[Vec<usize>], commit_preds: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = preds.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for j in 0..n {
        for &i in preds[j].iter().chain(&commit_preds[j]) {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                let (lo, hi) = if ri < rj { (ri, rj) } else { (rj, ri) };
                parent[hi] = lo;
            }
        }
    }
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut slot_of_root = vec![usize::MAX; n];
    for i in 0..n {
        let root = find(&mut parent, i);
        if slot_of_root[root] == usize::MAX {
            slot_of_root[root] = components.len();
            components.push(Vec::new());
        }
        components[slot_of_root[root]].push(i);
    }
    components
}

/// The bit-test Warshall step over successor lists, recording each added
/// edge `(i, j, pivot)` in the order it is added.
fn literal_close(reach: &[Vec<usize>]) -> Closure {
    let n = reach.len();
    let mut reach = bits(n, reach);
    let mut added = Vec::new();
    for k in 0..n {
        let via = reach[k].clone();
        for (i, row) in reach.iter_mut().enumerate() {
            if i == k || !row.contains(k) {
                continue;
            }
            for j in via.ones(n) {
                if !row.contains(j) {
                    added.push((i, j, k));
                }
            }
            row.union_with(&via);
        }
    }
    Closure {
        reach: reach.iter().map(|r| r.ones(n)).collect(),
        added,
    }
}

/// AN005's pair loop: every `(a, b)`, `a < b`, where edge `b` reverses
/// edge `a`.
fn literal_an005(deps: &[AntiDep]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, a) in deps.iter().enumerate() {
        for (j, b) in deps.iter().enumerate().skip(i + 1) {
            if a.reader == b.writer && a.writer == b.reader {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Successor lists of the predecessor lists `preds`.
fn transpose(preds: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
    for (j, p) in preds.iter().enumerate() {
        for &i in p {
            succs[i].push(j);
        }
    }
    succs
}

/// What the graph comparisons exercised.
#[derive(Debug, Default)]
struct GraphTally {
    graphs: usize,
    cyclic: usize,
    /// Cyclic graphs where some node is blocked only downstream of a
    /// cycle.
    downstream: usize,
    closure_edges: usize,
    components_split: usize,
}

/// Asserts every graph kernel matches its literal form on `preds`, with
/// `commit_preds` as the conditional order edges; the saturation closure
/// is compared only up to saturation's transaction gate.
fn assert_graph_kernels(
    preds: &[Vec<usize>],
    commit_preds: &[Vec<usize>],
    label: &str,
    tally: &mut GraphTally,
) {
    tally.graphs += 1;
    let n = preds.len();
    let reference = kahn(preds);
    let got = topo_order(preds);
    match (&reference, &got) {
        (Err(expected), Err(cyclic)) => {
            assert_eq!(cyclic, expected, "{label}: cyclic set");
            tally.cyclic += 1;
            if n <= 200 && expected.iter().any(|&i| !reaches(preds, i, i)) {
                tally.downstream += 1;
            }
        }
        (Ok(_), Ok(order)) => {
            let mut pos = vec![usize::MAX; n];
            for (k, &i) in order.iter().enumerate() {
                assert_eq!(pos[i], usize::MAX, "{label}: {i} twice in {order:?}");
                pos[i] = k;
            }
            assert_eq!(order.len(), n, "{label}: order is a permutation");
            for (j, p) in preds.iter().enumerate() {
                for &i in p {
                    assert!(pos[i] < pos[j], "{label}: edge {i} → {j} against {order:?}");
                }
            }
            let expected = literal_descendants(preds, order);
            assert_eq!(
                descendants(preds).as_ref(),
                Some(&expected),
                "{label}: descendant sets"
            );
            // The closure is a function of the graph: Kahn's order gives
            // the same sets.
            assert_eq!(
                literal_descendants(preds, reference.as_ref().unwrap()),
                expected,
                "{label}: closure depends on the order"
            );
        }
        _ => panic!("{label}: Kahn says {reference:?}, the kernel says {got:?}"),
    }
    if reference.is_err() {
        assert_eq!(
            descendants(preds),
            None,
            "{label}: closure of a cyclic graph"
        );
    }

    let components = order_components(preds, commit_preds);
    assert_eq!(
        components,
        literal_components(preds, commit_preds),
        "{label}: components"
    );
    if components.len() > 1 {
        tally.components_split += 1;
    }

    if n <= SATURATION_GATE {
        let reach = transpose(preds);
        let got = transitive_close(&reach);
        let expected = literal_close(&reach);
        assert_eq!(got.reach, expected.reach, "{label}: closed relation");
        assert_eq!(got.added, expected.added, "{label}: added edges and pivots");
        tally.closure_edges += got.added.len();
    }
}

/// Whether `to` is reachable from `from` by one or more edges.
fn reaches(preds: &[Vec<usize>], from: usize, to: usize) -> bool {
    let succs = transpose(preds);
    let mut seen = vec![false; preds.len()];
    let mut stack: Vec<usize> = succs[from].clone();
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        if !std::mem::replace(&mut seen[v], true) {
            stack.extend(&succs[v]);
        }
    }
    false
}

/// SplitMix64, for reproducible random graphs from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A random precedence graph: an interval order (real time) within each
/// of up to four disconnected parts, random extra edges (forward-only in
/// an acyclic draw), and in a cyclic draw some of self-loops, 2-cycles,
/// a long cycle and edges out of it to downstream nodes.
fn random_graph(rng: &mut Rng) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = rng.below(161);
    let parts = 1 + rng.below(4);
    let part: Vec<usize> = (0..n).map(|_| rng.below(parts)).collect();
    let spread = 1 + rng.below(40);
    let start: Vec<usize> = (0..n).map(|i| i * 4 + rng.below(spread)).collect();
    let end: Vec<usize> = start.iter().map(|&s| s + rng.below(spread * 4)).collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && part[i] == part[j] && end[i] < start[j] {
                edges.push((i, j));
            }
        }
    }
    let cyclic = rng.chance(50);
    for _ in 0..rng.below(n / 2 + 1) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b && (cyclic || a < b) {
            edges.push((a, b));
        }
    }
    if cyclic && n > 0 {
        if rng.chance(40) {
            let v = rng.below(n);
            edges.push((v, v));
        }
        if rng.chance(40) && n > 1 {
            let (a, b) = (rng.below(n), rng.below(n));
            edges.push((a, b));
            edges.push((b, a));
        }
        if rng.chance(60) && n > 2 {
            let len = 3 + rng.below(n - 2);
            let cycle: Vec<usize> = (0..len).map(|_| rng.below(n)).collect();
            for w in cycle.windows(2) {
                edges.push((w[0], w[1]));
            }
            edges.push((cycle[len - 1], cycle[0]));
            for _ in 0..rng.below(4) {
                edges.push((cycle[rng.below(len)], rng.below(n)));
            }
        }
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in edges {
        preds[b].push(a);
    }
    let mut commit_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for _ in 0..rng.below(n / 8 + 1) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            commit_preds[b].push(a);
        }
    }
    for l in preds.iter_mut().chain(commit_preds.iter_mut()) {
        l.sort_unstable();
        l.dedup();
    }
    (preds, commit_preds)
}

fn random_anti_deps(rng: &mut Rng) -> Vec<AntiDep> {
    let txns = 1 + rng.below(12);
    (0..rng.below(60))
        .map(|slot| AntiDep {
            reader: rng.below(txns),
            writer: rng.below(txns),
            obj: rng.below(3),
            slot,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every kernel matches its literal form on random graphs.
    #[test]
    fn random_graphs_match(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (preds, commit_preds) = random_graph(&mut rng);
        let mut tally = GraphTally::default();
        assert_graph_kernels(&preds, &commit_preds, &format!("seed {seed}"), &mut tally);
        let deps = random_anti_deps(&mut rng);
        prop_assert_eq!(an005_pairs(&deps), literal_an005(&deps), "seed {}", seed);
    }
}

/// The random draws reach the shapes that matter.
#[test]
fn random_graphs_cover_the_shapes() {
    let mut tally = GraphTally::default();
    let mut pairs = 0;
    for seed in 0..300 {
        let mut rng = Rng(seed);
        let (preds, commit_preds) = random_graph(&mut rng);
        assert_graph_kernels(&preds, &commit_preds, &format!("seed {seed}"), &mut tally);
        let deps = random_anti_deps(&mut rng);
        let expected = literal_an005(&deps);
        assert_eq!(an005_pairs(&deps), expected, "seed {seed}");
        pairs += expected.len();
    }
    assert!(
        tally.cyclic > 50 && tally.graphs - tally.cyclic > 50,
        "{tally:?}"
    );
    assert!(
        tally.downstream > 10 && tally.components_split > 10,
        "{tally:?}"
    );
    assert!(tally.closure_edges > 0 && pairs > 0, "{tally:?}");
}

/// Hand cases at word boundaries and the shapes of the cyclic set.
#[test]
fn hand_graphs_match() {
    let graph = |n: usize, edges: &[(usize, usize)]| {
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            preds[b].push(a);
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        preds
    };
    let chain = |n: usize| (1..n).map(|i| (i - 1, i)).collect::<Vec<_>>();
    let mut cases: Vec<(String, Vec<Vec<usize>>)> = vec![
        ("empty".into(), graph(0, &[])),
        ("single self-loop".into(), graph(1, &[(0, 0)])),
        (
            "2-cycle with tail".into(),
            graph(4, &[(0, 1), (1, 0), (1, 2), (3, 2)]),
        ),
        (
            "cycle feeding a lower index".into(),
            graph(5, &[(3, 4), (4, 3), (4, 0), (1, 2)]),
        ),
    ];
    for n in [63, 64, 65, 128, 129, 200] {
        cases.push((format!("chain {n}"), graph(n, &chain(n))));
        let mut back = chain(n);
        back.push((n - 1, 0));
        cases.push((format!("cycle {n}"), graph(n, &back)));
        let total: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        cases.push((format!("total order {n}"), graph(n, &total)));
        let mut fed = total.clone();
        fed.push((n / 2, n / 2));
        cases.push((format!("total order {n} with a self-loop"), graph(n, &fed)));
    }
    let mut tally = GraphTally::default();
    for (label, preds) in &cases {
        let none = vec![Vec::new(); preds.len()];
        assert_graph_kernels(preds, &none, label, &mut tally);
    }
    assert!(tally.downstream > 0, "{tally:?}");
}

/// What a corpus exercised.
#[derive(Debug, Default)]
struct Tally {
    histories: usize,
    graphs: GraphTally,
    cy004: usize,
    an005: usize,
    constraint_cycles: usize,
    certified: usize,
    placements: u64,
    dead_ends: u64,
    /// Dead ends only the must-follow sets find, from which a budgeted
    /// plain-rule search exhausted or ran out of budget.
    confirmed: u64,
    unconfirmed: u64,
    dead_roots: u64,
    /// First-pass roots both rules find dead, after which the search ran
    /// its exact pass.
    dead_first_roots: u64,
}

/// The precedence graphs lint CY004 checks, with each one's
/// applicability, built literally from the must-precede facts: the base
/// graph (real time, forced read-from, anti-dependencies), then the du,
/// read-commit-order and TMS2 scope graphs over it.
fn cy004_graphs(facts: &Facts, caps: &[CommitCapability]) -> Vec<(Applicability, Vec<Vec<usize>>)> {
    let forced = |preds: &mut Vec<Vec<usize>>, suppliers: &[Vec<usize>]| {
        for (r, s) in facts.reads.iter().zip(suppliers) {
            if r.value != Value::INITIAL && s.len() == 1 && s[0] != r.txn {
                preds[r.txn].push(s[0]);
            }
        }
    };
    let mut base = facts.rt_preds.clone();
    forced(&mut base, &facts.suppliers);
    for d in &facts.anti_deps {
        base[d.writer].push(d.reader);
    }
    let mut du = base.clone();
    forced(&mut du, &facts.du_suppliers);
    let mut rco = base.clone();
    for e in &facts.rco {
        if caps[e.after] == CommitCapability::Committed {
            rco[e.after].push(e.before);
        }
    }
    let mut tms2 = base.clone();
    for e in &facts.tms2 {
        tms2[e.after].push(e.before);
    }
    let mut graphs = vec![
        (Applicability::AllCriteria, base),
        (Applicability::DuOpacityOnly, du),
        (Applicability::ReadCommitOrderOnly, rco),
        (Applicability::Tms2Only, tms2),
    ];
    for (_, g) in &mut graphs {
        for p in g.iter_mut() {
            p.sort_unstable();
            p.dedup();
        }
    }
    graphs
}

/// Asserts every kernel matches its literal form on the graphs `h`
/// yields, that lint's CY004 diagnostics and any `ConstraintCycle` of
/// the read-commit-order or TMS2 query name Kahn's leftover, and that
/// every criterion's dead-end rule passes [`dead_end_audit`] along a walk
/// of its search tree of up to `walk` placements per component and pass.
fn assert_equivalent(h: &History, label: &str, walk: u64, tally: &mut Tally) {
    tally.histories += 1;
    for criterion in CRITERIA {
        match dead_end_audit(h, criterion, walk) {
            Ok(audit) => {
                tally.placements += audit.placements;
                tally.dead_ends += audit.dead_ends;
                tally.confirmed += audit.confirmed;
                tally.unconfirmed += audit.unconfirmed;
                tally.dead_roots += audit.dead_roots;
                tally.dead_first_roots += audit.dead_first_roots;
            }
            Err(e) => panic!("{label}: {criterion:?}: {e}"),
        }
        if matches!(saturate(h, criterion), SaturationOutcome::Refuted(_)) {
            tally.certified += 1;
        }
    }
    let Some(facts) = Facts::of(h) else {
        return;
    };
    let caps: Vec<CommitCapability> = h.txns().map(|t| t.commit_capability()).collect();
    let ids: Vec<TxnId> = h.txns().map(|t| t.id()).collect();

    // Conditional order edges, as the read-commit-order query has them.
    let mut commit_preds: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for e in &facts.rco {
        if caps[e.after] == CommitCapability::CommitPending {
            commit_preds[e.after].push(e.before);
        }
    }
    for p in &mut commit_preds {
        p.sort_unstable();
        p.dedup();
    }

    let mut expected_cy004: Vec<(Applicability, Vec<usize>)> = Vec::new();
    for (applicability, preds) in cy004_graphs(&facts, &caps) {
        let glabel = format!("{label}: {applicability:?} graph");
        assert_graph_kernels(&preds, &commit_preds, &glabel, &mut tally.graphs);
        if let Err(cyclic) = kahn(&preds) {
            expected_cy004.push((applicability, cyclic));
            if applicability == Applicability::AllCriteria {
                break; // the scope graphs would re-report the cycle
            }
        }
    }
    let report = duop_core::lint::lint(h);
    let cy004: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.rule == "CY004")
        .collect();
    assert_eq!(cy004.len(), expected_cy004.len(), "{label}: CY004 count");
    for (applicability, cyclic) in &expected_cy004 {
        let names: Vec<String> = cyclic.iter().map(|&i| ids[i].to_string()).collect();
        let involving = format!("involving {}: ", names.join(", "));
        assert!(
            cy004
                .iter()
                .any(|d| d.applicability == *applicability && d.message.contains(&involving)),
            "{label}: no CY004 for {applicability:?} {involving}in {cy004:?}"
        );
    }
    tally.cy004 += cy004.len();

    let pairs = an005_pairs(&facts.anti_deps);
    assert_eq!(pairs, literal_an005(&facts.anti_deps), "{label}: AN005");
    tally.an005 += pairs.len();

    // With the prefilters off, a cycle among the read-commit-order or
    // TMS2 query's unconditional constraints — real time plus the edges
    // toward committed targets — reaches the planner or, without
    // decomposition, the searcher as a `ConstraintCycle`.
    let rco = facts
        .rco
        .iter()
        .filter(|e| caps[e.after] == CommitCapability::Committed);
    let queries = [
        (PlanCriterion::Rco, rco.collect::<Vec<_>>()),
        (PlanCriterion::Tms2, facts.tms2.iter().collect()),
    ];
    for (criterion, edges) in queries {
        let mut preds = facts.rt_preds.clone();
        for e in edges {
            preds[e.after].push(e.before);
        }
        let expected: Option<Vec<TxnId>> = kahn(&preds)
            .err()
            .map(|cyclic| cyclic.iter().map(|&i| ids[i]).collect());
        for decompose in [true, false] {
            let cfg = SearchConfig {
                prelint: false,
                saturate: false,
                decompose,
                threads: None,
                max_states: Some(walk),
                ..SearchConfig::default()
            };
            let (verdict, _) = check_criterion_with_stats(h, criterion, &cfg);
            if let Verdict::Violated(Violation::ConstraintCycle { txns }) = verdict {
                assert_eq!(
                    Some(txns),
                    expected,
                    "{label}: {criterion:?} ConstraintCycle members (decompose {decompose})"
                );
                tally.constraint_cycles += 1;
            }
        }
    }
}

#[test]
fn adversarial_histories_match() {
    let mut tally = Tally::default();
    for txns in [6, 9] {
        for dist in DISTS {
            for seed in 0..120 {
                let cfg = HistoryGenConfig::small_adversarial()
                    .with_txns(txns)
                    .with_key_dist(dist);
                let h = HistoryGen::new(cfg, seed).generate();
                let label = format!("adversarial({txns}) {dist:?} seed {seed}");
                assert_equivalent(&h, &label, 2_000, &mut tally);
            }
        }
    }
    assert!(tally.cy004 > 0 && tally.an005 > 0, "{tally:?}");
    assert!(tally.certified > 0 && tally.dead_ends > 0, "{tally:?}");
    assert!(tally.dead_roots > 0 && tally.confirmed > 0, "{tally:?}");
    assert!(tally.dead_first_roots > 0, "{tally:?}");
    assert_eq!(tally.unconfirmed, 0, "{tally:?}");
}

#[test]
fn anomaly_catalogue_matches() {
    let mut tally = Tally::default();
    for (name, h) in anomalies::catalogue() {
        assert_equivalent(&h, name, 2_000, &mut tally);
    }
    assert!(tally.cy004 > 0 && tally.certified > 0, "{tally:?}");
    assert!(tally.dead_first_roots > 0, "{tally:?}");
}

#[test]
fn simulated_search_histories_match() {
    let mut tally = Tally::default();
    for seed in 0..20 {
        let cfg = HistoryGenConfig::medium_simulated()
            .with_txns(48)
            .with_concurrency(12)
            .with_objs(4)
            .with_key_dist(DISTS[seed as usize % 3]);
        let h = HistoryGen::new(cfg, seed).generate();
        let label = format!("medium_simulated(48) seed {seed}");
        assert_equivalent(&h, &label, 1_000, &mut tally);
    }
    assert!(tally.placements > 0 && tally.dead_ends > 0, "{tally:?}");
    assert!(
        tally.constraint_cycles > 0 && tally.confirmed > 0,
        "{tally:?}"
    );
}

#[test]
fn stream_serve_prefixes_match() {
    let mut tally = Tally::default();
    for seed in 0..2 {
        let h =
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(128), seed).generate();
        let ends = (1..=h.len() / 64).map(|k| k * 64).chain([h.len()]);
        for end in ends {
            let prefix = h.prefix(end);
            let label = format!("medium_simulated(128) seed {seed} prefix {end}");
            assert_equivalent(&prefix, &label, 300, &mut tally);
        }
    }
    assert!(tally.placements > 0 && tally.dead_ends > 0, "{tally:?}");
    assert!(tally.confirmed > 0, "{tally:?}");
}

#[test]
fn long_traces_match() {
    let mut tally = Tally::default();
    for seed in 0..2 {
        let cfg = HistoryGenConfig::large_streaming().with_txns(768);
        let h = HistoryGen::new(cfg, seed).generate();
        let label = format!("large_streaming(768) seed {seed}");
        assert_equivalent(&h, &label, 1_000, &mut tally);
    }
    assert!(tally.placements > 0 && tally.confirmed > 0, "{tally:?}");
}

/// Histories whose precedence graphs are cyclic: CY004 fires, the
/// read-commit-order query reports `ConstraintCycle`, and saturation
/// certifies refutations.
#[test]
fn cyclic_histories_match() {
    let mut tally = Tally::default();
    for seed in 0..3 {
        let cfg = HistoryGenConfig::large_streaming()
            .with_txns(200)
            .with_concurrency(6);
        let h = HistoryGen::new(cfg, seed).generate();
        let label = format!("large_streaming(200, concurrency 6) seed {seed}");
        assert_equivalent(&h, &label, 1_000, &mut tally);
    }
    for seed in 0..30 {
        let cfg = HistoryGenConfig::small_adversarial().with_txns(40);
        let h = HistoryGen::new(cfg, seed).generate();
        assert_equivalent(
            &h,
            &format!("adversarial(40) seed {seed}"),
            1_000,
            &mut tally,
        );
    }
    assert!(tally.graphs.cyclic > 0 && tally.cy004 > 0, "{tally:?}");
    assert!(
        tally.constraint_cycles > 0 && tally.certified > 0,
        "{tally:?}"
    );
    assert!(tally.graphs.downstream > 0, "{tally:?}");
    assert!(tally.dead_roots > 0 && tally.confirmed > 0, "{tally:?}");
    assert!(tally.dead_first_roots > 0, "{tally:?}");
    assert_eq!(tally.unconfirmed, 0, "{tally:?}");
}

/// A read whose only other writer of its value starts after the reader
/// commits. T1 writes 1 and T7 reads it; T2–T6 write other values
/// concurrently, and T8 writes 1 again once T7 is done. Once another
/// write follows T1's, T7's read is lost, since T8 must follow T7. The
/// plain rule keeps the read alive until T8 is placed, which cannot
/// happen first, so it permutes the other writers under every such
/// placement.
#[test]
fn later_writer_cannot_serve_the_read() {
    let (t, x, v) = (TxnId::new, ObjId::new(0), Value::new);
    let mut b = HistoryBuilder::new().inv_write(t(1), x, v(1)).resp_ok(t(1));
    for k in 2..=6 {
        b = b.inv_write(t(k), x, v(u64::from(k) * 10)).resp_ok(t(k));
    }
    b = b.inv_read(t(7), x).resp_value(t(7), v(1));
    for k in 1..=7 {
        b = b.commit(t(k));
    }
    let h = b.committed_writer(t(8), x, v(1)).build();
    for decompose in [true, false] {
        let cfg = SearchConfig {
            prelint: false,
            saturate: false,
            decompose,
            threads: None,
            ..SearchConfig::default()
        };
        let (verdict, explored) = check_criterion_with_stats(&h, PlanCriterion::FinalState, &cfg);
        let (reference, stats) = check_plain_dead_ends(&h, PlanCriterion::FinalState, &cfg);
        eprintln!(
            "decompose {decompose}: {explored} states explored; the plain rule explores {}",
            stats.explored
        );
        assert!(verdict.is_satisfied(), "{verdict:?}");
        assert_eq!(verdict, reference);
        assert!(
            explored < stats.explored,
            "{explored} vs {}",
            stats.explored
        );
    }
}
