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
        for i in 0..n {
            s.insert(i);
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

    #[test]
    fn full_contains_everything() {
        let s = BitSet::full(70);
        assert_eq!(s.count_ones(), 70);
        assert!(s.contains(0));
        assert!(s.contains(69));
        let empty = BitSet::full(0);
        assert_eq!(empty.count_ones(), 0);
    }
}
