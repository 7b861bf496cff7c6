//! Deterministic random numbers for reproducible experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seedable random-number generator used for synthetic tensors and
/// sparsity masks.
///
/// Every experiment binary seeds its generator explicitly so results are
/// reproducible run to run. Internally this wraps [`rand::rngs::StdRng`].
///
/// # Example
///
/// ```
/// use maeri_sim::SimRng;
///
/// let mut a = SimRng::seed(7);
/// let mut b = SimRng::seed(7);
/// assert_eq!(a.next_f32(), b.next_f32());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Returns a uniform `f32` in `[-1, 1)`, the range used for synthetic
    /// weights and activations.
    pub fn next_f32(&mut self) -> f32 {
        self.inner.gen_range(-1.0..1.0)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
    }

    /// Chooses exactly `count` distinct indices from `0..len`, in sorted
    /// order. Used to pick which weights of a filter are pruned to zero.
    ///
    /// # Panics
    ///
    /// Panics if `count > len`.
    pub fn choose_indices(&mut self, len: usize, count: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..len).collect();
        self.partial_shuffle(&mut pool, count);
        pool.truncate(count);
        pool.sort_unstable();
        pool
    }

    /// Moves `count` uniformly chosen entries of `pool` to its front, in
    /// draw order (a partial Fisher-Yates shuffle), drawing exactly as
    /// [`Self::choose_indices`] does. Over a pool holding `0..len` in
    /// order, `pool[..count]` is then that call's choice before sorting,
    /// so a caller drawing many sets can refill one pool instead of
    /// allocating and sorting each.
    ///
    /// # Panics
    ///
    /// Panics if `count > pool.len()`.
    pub fn partial_shuffle<T>(&mut self, pool: &mut [T], count: usize) {
        let len = pool.len();
        assert!(count <= len, "cannot choose {count} indices from {len}");
        for i in 0..count {
            let j = i + self.next_below(len - i);
            pool.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_f32().to_bits(), b.next_f32().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).all(|_| a.next_f32().to_bits() == b.next_f32().to_bits());
        assert!(!same);
    }

    #[test]
    fn next_f32_in_range() {
        let mut rng = SimRng::seed(3);
        for _ in 0..1000 {
            let x = rng.next_f32();
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range() {
        let mut rng = SimRng::seed(4);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SimRng::seed(0).next_below(0);
    }

    #[test]
    fn choose_indices_distinct_sorted() {
        let mut rng = SimRng::seed(5);
        for _ in 0..50 {
            let picks = rng.choose_indices(20, 9);
            assert_eq!(picks.len(), 9);
            assert!(picks.windows(2).all(|w| w[0] < w[1]));
            assert!(picks.iter().all(|&i| i < 20));
        }
    }

    /// `choose_indices` as it was before it shared
    /// [`SimRng::partial_shuffle`]: its own pool, shuffle and sort.
    fn choose_indices_reference(rng: &mut SimRng, len: usize, count: usize) -> Vec<usize> {
        assert!(count <= len, "cannot choose {count} indices from {len}");
        let mut pool: Vec<usize> = (0..len).collect();
        for i in 0..count {
            let j = i + rng.next_below(len - i);
            pool.swap(i, j);
        }
        let mut chosen = pool[..count].to_vec();
        chosen.sort_unstable();
        chosen
    }

    #[test]
    fn choose_indices_matches_its_reference() {
        let mut cases = SimRng::seed(31);
        for case in 0..300 {
            let len = cases.next_below(80);
            let count = match case % 3 {
                0 => 0,
                1 => len,
                _ => cases.next_below(len + 1),
            };
            let seed = cases.next_below(1 << 20) as u64;
            let (mut new, mut old) = (SimRng::seed(seed), SimRng::seed(seed));
            assert_eq!(
                new.choose_indices(len, count),
                choose_indices_reference(&mut old, len, count),
                "case {case}: len {len}, count {count}, seed {seed}"
            );
            assert_eq!(
                new.next_below(1 << 30),
                old.next_below(1 << 30),
                "case {case}: len {len}, count {count}, seed {seed}: stream diverged"
            );
        }
    }

    #[test]
    fn choose_indices_all() {
        let mut rng = SimRng::seed(6);
        let picks = rng.choose_indices(5, 5);
        assert_eq!(picks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_bool_extremes() {
        let mut rng = SimRng::seed(7);
        assert!(!rng.next_bool(0.0));
        assert!(rng.next_bool(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.next_bool(2.0));
        assert!(!rng.next_bool(-1.0));
    }
}
