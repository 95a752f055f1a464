//! A small fixed-capacity bit set used by the serialization search and
//! the search planner.

/// Fixed-capacity bit set over transaction indices.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set with capacity for `n` indices.
    pub(crate) fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64).max(1)],
        }
    }

    /// Creates a set containing every index in `0..n`.
    pub(crate) fn full(n: usize) -> Self {
        let mut s = BitSet::new(n);
        s.words[..n / 64].fill(!0);
        if !n.is_multiple_of(64) {
            s.words[n / 64] = (1 << (n % 64)) - 1;
        }
        s
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub(crate) fn is_subset_of(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if every element of `self` is in `a` or in `b`.
    pub(crate) fn is_subset_of_union(&self, a: &BitSet, b: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&a.words)
            .zip(&b.words)
            .all(|((s, a), b)| s & !(a | b) == 0)
    }

    /// Returns `true` if `self` and `other` share an element.
    pub(crate) fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Adds every element of `other` to `self`. Both sets must have the
    /// same capacity.
    pub(crate) fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// As [`Self::union_with`], calling `on_new` with each element of
    /// `other` that was not already in `self`, in increasing order. The
    /// new elements are found a word at a time.
    pub(crate) fn union_with_new(&mut self, other: &BitSet, mut on_new: impl FnMut(usize)) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (wi, (a, &b)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let mut fresh = b & !*a;
            *a |= b;
            while fresh != 0 {
                on_new(wi * 64 + fresh.trailing_zeros() as usize);
                fresh &= fresh - 1;
            }
        }
    }

    /// The smallest element of `self` not in `other`, if any.
    pub(crate) fn first_not_in(&self, other: &BitSet) -> Option<usize> {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .find_map(|(wi, (a, b))| {
                let fresh = a & !b;
                (fresh != 0).then(|| wi * 64 + fresh.trailing_zeros() as usize)
            })
    }

    /// The smallest element of `self` that is at least `from`, if any:
    /// the next open position when `self` is a frontier walked in
    /// increasing order while it changes. Skips a word at a time.
    pub(crate) fn next_one(&self, from: usize) -> Option<usize> {
        let mut wi = from / 64;
        let mut w = self.words.get(wi)? & (!0 << (from % 64));
        loop {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            wi += 1;
            w = *self.words.get(wi)?;
        }
    }

    /// The smallest element of both `self` and `other`, if any.
    pub(crate) fn first_common(&self, other: &BitSet) -> Option<usize> {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .find_map(|(wi, (a, b))| {
                let common = a & b;
                (common != 0).then(|| wi * 64 + common.trailing_zeros() as usize)
            })
    }

    /// Iterates the elements of `self` not in `other`, in increasing
    /// order (word-skipping, like [`Self::iter_ones`]).
    pub(crate) fn iter_difference<'s>(
        &'s self,
        other: &'s BitSet,
    ) -> impl Iterator<Item = usize> + 's {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (&a, &b))| word_ones(wi, a & !b))
    }

    /// Removes every element.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Makes `self` a copy of `other`, reusing the existing word buffer
    /// (no allocation when capacities match) — the pooling primitive for
    /// scratch sets that are rebuilt every call.
    pub(crate) fn copy_from(&mut self, other: &BitSet) {
        self.words.clone_from(&other.words);
    }

    /// Number of elements in the set.
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the elements in increasing order (word-skipping, so cost
    /// is proportional to the population, not the capacity).
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| word_ones(wi, w))
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The transpose of the square bit matrix whose row `i` is `rows[i]`
/// (each of capacity `rows.len()`): row `j` of the result holds `i` iff
/// `rows[i]` holds `j`.
///
/// Matrices wider than one word go through 64×64 blocks, each transposed
/// in registers by [`transpose_block`], and all-zero blocks are skipped.
/// A one-word matrix keeps the per-bit loop, which is cheaper there than
/// one block.
pub(crate) fn transpose(rows: &[BitSet]) -> Vec<BitSet> {
    let n = rows.len();
    let mut out: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    if n <= 64 {
        for (i, row) in rows.iter().enumerate() {
            for j in row.iter_ones() {
                out[j].insert(i);
            }
        }
        return out;
    }
    let words = n.div_ceil(64);
    let mut block = [0u64; 64];
    for (bi, band) in rows.chunks(64).enumerate() {
        for bj in 0..words {
            for (b, row) in block.iter_mut().zip(band) {
                debug_assert_eq!(row.words.len(), words);
                *b = row.words[bj];
            }
            block[band.len()..].fill(0);
            if block.iter().all(|&b| b == 0) {
                continue;
            }
            transpose_block(&mut block);
            for (row, &b) in out[bj * 64..].iter_mut().zip(&block) {
                row.words[bi] = b;
            }
        }
    }
    out
}

/// Transposes a 64×64 bit matrix in place (row `r` is `block[r]`, column
/// `c` its bit `c`): swaps the off-diagonal halves of every 2k×2k
/// sub-block, for k = 32, 16, …, 1.
fn transpose_block(block: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((block[k] >> j) ^ block[k + j]) & mask;
            block[k] ^= t << j;
            block[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The elements a word `w` at word index `wi` holds, in increasing order.
fn word_ones(wi: usize, w: u64) -> impl Iterator<Item = usize> {
    let mut rest = w;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let i = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        Some(wi * 64 + i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));
    }

    #[test]
    fn subset() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(3);
        b.insert(3);
        b.insert(5);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        a.insert(7);
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn subset_of_union() {
        let (mut s, mut a, mut b) = (BitSet::new(130), BitSet::new(130), BitSet::new(130));
        assert!(s.is_subset_of_union(&a, &b));
        s.insert(3);
        s.insert(100);
        a.insert(3);
        assert!(!s.is_subset_of_union(&a, &b));
        b.insert(100);
        assert!(s.is_subset_of_union(&a, &b));
        assert!(s.is_subset_of_union(&b, &a));
        s.insert(129);
        assert!(!s.is_subset_of_union(&a, &b));
    }

    #[test]
    fn zero_capacity_still_valid() {
        let s = BitSet::new(0);
        assert_eq!(s.words().len(), 1);
    }

    #[test]
    fn union_with_merges() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        a.insert(1);
        b.insert(65);
        b.insert(129);
        a.union_with(&b);
        assert!(a.contains(1));
        assert!(a.contains(65));
        assert!(a.contains(129));
        assert_eq!(a.count_ones(), 3);
        // Idempotent.
        let before = a.clone();
        a.union_with(&b);
        assert_eq!(a, before);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut s = BitSet::new(200);
        for i in [0, 3, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter_ones().collect();
        assert_eq!(got, vec![0, 3, 63, 64, 127, 128, 199]);
        assert_eq!(got.len(), s.count_ones());
    }

    #[test]
    fn iter_ones_empty() {
        let s = BitSet::new(77);
        assert_eq!(s.iter_ones().count(), 0);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(100);
        s.insert(5);
        s.insert(99);
        s.clear();
        assert_eq!(s.count_ones(), 0);
        assert!(!s.contains(5));
        // Still usable after clearing.
        s.insert(42);
        assert!(s.contains(42));
    }

    #[test]
    fn word_parallel_set_operations() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        for i in [1, 64, 70, 130, 199] {
            a.insert(i);
        }
        for i in [64, 130, 150] {
            b.insert(i);
        }
        assert!(a.intersects(&b));
        assert_eq!(a.first_common(&b), Some(64));
        assert_eq!(a.first_not_in(&b), Some(1));
        assert_eq!(a.iter_difference(&b).collect::<Vec<_>>(), vec![1, 70, 199]);
        assert_eq!(b.first_not_in(&a), Some(150));
        assert_eq!(b.first_not_in(&b), None);
        assert!(!a.intersects(&BitSet::new(200)));
        assert_eq!(a.first_common(&BitSet::new(200)), None);

        let mut new = Vec::new();
        b.union_with_new(&a, |i| new.push(i));
        assert_eq!(new, vec![1, 70, 199]);
        assert_eq!(b.count_ones(), 6);
        new.clear();
        b.union_with_new(&a, |i| new.push(i));
        assert!(new.is_empty());
    }

    /// The sizes the word-parallel kernels must agree at: empty, one
    /// word, and either side of each word boundary.
    const SIZES: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 200];

    /// A set of capacity `n` holding each index with probability about
    /// `density`, drawn from the splitmix64 stream at `state`.
    fn random_set(n: usize, density: f64, state: &mut u64) -> BitSet {
        let mut s = BitSet::new(n);
        for j in 0..n {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            if ((z ^ (z >> 31)) as f64 / u64::MAX as f64) < density {
                s.insert(j);
            }
        }
        s
    }

    /// A square bit matrix of size `n` of [`random_set`] rows.
    fn random_matrix(n: usize, density: f64, mut seed: u64) -> Vec<BitSet> {
        (0..n).map(|_| random_set(n, density, &mut seed)).collect()
    }

    #[test]
    fn transpose_matches_bit_by_bit() {
        for n in SIZES {
            for (density, seed) in [(0.5, 1), (0.9, 2), (0.02, 3), (0.0, 4), (1.0, 5)] {
                let rows = random_matrix(n, density, seed + n as u64);
                let got = transpose(&rows);
                assert_eq!(got.len(), n);
                for (j, col) in got.iter().enumerate() {
                    assert_eq!(col.words().len(), n.div_ceil(64).max(1));
                    for (i, row) in rows.iter().enumerate() {
                        assert_eq!(
                            col.contains(i),
                            row.contains(j),
                            "n {n}, density {density}: entry ({i}, {j})"
                        );
                    }
                    // Nothing beyond the matrix.
                    assert!(col.iter_ones().all(|i| i < n));
                }
                assert_eq!(transpose(&got), rows, "n {n}: transpose is an involution");
            }
        }
    }

    #[test]
    fn next_one_matches_linear_scan() {
        for n in SIZES {
            for (density, mut seed) in [(0.5, 7), (0.05, 8), (0.0, 9), (1.0, 10)] {
                let s = random_set(n, density, &mut seed);
                for from in 0..=n + 65 {
                    let want = (from..n).find(|&i| s.contains(i));
                    assert_eq!(
                        s.next_one(from),
                        want,
                        "n {n}, density {density}, from {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_one_walks_a_changing_frontier() {
        // The search's walk: clear the position it stands on and restore
        // it before asking for the next one.
        let mut open = BitSet::full(130);
        for i in [0, 5, 63, 64, 100] {
            open.remove(i);
        }
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(p) = open.next_one(from) {
            open.remove(p);
            open.insert(p);
            seen.push(p);
            from = p + 1;
        }
        let want: Vec<usize> = (0..130)
            .filter(|i| ![0, 5, 63, 64, 100].contains(i))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn full_contains_everything() {
        let s = BitSet::full(70);
        assert_eq!(s.count_ones(), 70);
        assert!(s.contains(0));
        assert!(s.contains(69));
        let empty = BitSet::full(0);
        assert_eq!(empty.count_ones(), 0);
        for n in SIZES {
            let s = BitSet::full(n);
            assert_eq!(
                s.iter_ones().collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
        }
    }
}
