//! Collection strategies: `vec` and `btree_set`.

use core::ops::{Range, RangeInclusive};
use std::collections::BTreeSet;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A range of collection sizes.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Inclusive upper bound.
    max: usize,
}

impl SizeRange {
    fn pick(self, rng: &mut TestRng) -> usize {
        self.min + rng.below((self.max - self.min + 1) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        SizeRange { min: len, max: len }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty size range");
        SizeRange {
            min: range.start,
            max: range.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(range: RangeInclusive<usize>) -> Self {
        assert!(range.start() <= range.end(), "empty size range");
        SizeRange {
            min: *range.start(),
            max: *range.end(),
        }
    }
}

/// Generates a `Vec` whose length falls in `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
        let len = self.size.pick(rng);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.element.generate(rng)?);
        }
        Some(out)
    }
}

/// Generates a `BTreeSet` whose cardinality falls in `size` and whose
/// elements come from `element`. Rejects the draw when the element
/// strategy cannot produce enough distinct values.
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Option<BTreeSet<S::Value>> {
        let target = self.size.pick(rng);
        let mut out = BTreeSet::new();
        // Duplicates do not grow the set, so allow a generous number of
        // extra draws before rejecting the case.
        let max_attempts = target * 16 + 64;
        for _ in 0..max_attempts {
            if out.len() == target {
                return Some(out);
            }
            out.insert(self.element.generate(rng)?);
        }
        (out.len() >= self.size.min).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn vec_respects_size_and_elements() {
        let strat = vec(2usize..5, 3..7);
        let mut rng = TestRng::from_name("vec-test");
        for _ in 0..100 {
            let v = strat.generate(&mut rng).unwrap();
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| (2..5).contains(&x)));
        }
    }

    #[test]
    fn btree_set_yields_distinct_elements() {
        let strat = btree_set(0usize..256, 1..12);
        let mut rng = TestRng::from_name("set-test");
        for _ in 0..100 {
            let s = strat.generate(&mut rng).unwrap();
            assert!((1..12).contains(&s.len()));
        }
    }
}
