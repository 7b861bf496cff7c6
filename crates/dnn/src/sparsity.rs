//! Weight sparsity masks for the sparse-dataflow experiments.
//!
//! EIE and the sparse experiments in the MAERI paper (Figure 13) vary the
//! fraction of *zero weights* per filter. What matters architecturally is
//! only the per-filter count of surviving (non-zero) weights, because
//! that determines the virtual-neuron size MAERI constructs and the
//! cluster occupancy of the fixed-cluster baseline. This module
//! generates seeded masks with an exact zero fraction per filter.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use maeri_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::layer::ConvLayer;
use crate::tensor::Tensor;

/// A pruning mask over a convolution layer's weights.
///
/// Weight `j` (flattened over `C*R*S`) of filter `k` is kept (non-zero)
/// when [`Self::is_kept`] says so. The flags are stored as a bitset, and
/// each filter also carries prefix counts of its kept weights over the
/// channel axis, so [`Self::kept_in_channels`] answers a survivor count
/// for any channel range in O(1).
///
/// # Example
///
/// ```
/// use maeri_dnn::{ConvLayer, WeightMask};
/// use maeri_sim::SimRng;
///
/// let layer = ConvLayer::new("c", 3, 8, 8, 4, 3, 3, 1, 1);
/// let mask = WeightMask::generate(&layer, 0.5, &mut SimRng::seed(1));
/// // 27 weights per filter; round(0.5 * 27) = 14 pruned, 13 kept.
/// for &n in mask.nonzeros_per_filter() {
///     assert_eq!(n, 13);
/// }
/// assert_eq!(mask.kept_in_channels(0, 0, 3), 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightMask {
    filter_volume: usize,
    /// Weights per channel (`R*S`).
    kernel_area: usize,
    /// Kept flags, `filter_volume.div_ceil(64)` words per filter: bit
    /// `j % 64` of the filter's word `j / 64` is weight `j`.
    bits: Vec<u64>,
    /// Per-filter channel prefix counts, `C + 1` entries per filter:
    /// entry `c` is the number of kept weights in channels `0..c`.
    prefix: Vec<u32>,
    nonzeros: Vec<usize>,
}

/// What [`WeightMask::generate`] reads: the layer's input channels,
/// kernel height and width and filters, the zero fraction's bits and
/// the seed.
type Recipe = ([usize; 4], u64, u64);

/// The masks [`WeightMask::seeded`] has handed out, by recipe. It holds
/// no mask alive: once a mask's last holder drops it, its entry is
/// dead, and the next call prunes it.
static SHELF: Mutex<Vec<(Recipe, Weak<WeightMask>)>> = Mutex::new(Vec::new());

#[cfg(test)]
thread_local! {
    /// Masks [`WeightMask::seeded`] built on this thread.
    static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl WeightMask {
    /// The mask `generate(layer, zero_fraction, &mut SimRng::seed(seed))`
    /// returns, shared: while one caller holds the mask of a recipe (the
    /// shape `generate` reads, the zero fraction and the seed; not the
    /// layer's name), every other caller gets that same mask. A mask is
    /// built under the shelf's lock, so concurrent callers with one
    /// recipe wait for it instead of building it twice, and no mask
    /// outlives its last holder.
    ///
    /// # Panics
    ///
    /// As [`Self::generate`].
    #[must_use]
    pub fn seeded(layer: &ConvLayer, zero_fraction: f64, seed: u64) -> Arc<Self> {
        let shape = [
            layer.in_channels,
            layer.kernel_h,
            layer.kernel_w,
            layer.out_channels,
        ];
        let recipe = (shape, zero_fraction.to_bits(), seed);
        // A caller that panicked in `generate` left the shelf whole: it
        // pushes only after building.
        let mut shelf = SHELF.lock().unwrap_or_else(PoisonError::into_inner);
        shelf.retain(|(_, mask)| mask.strong_count() > 0);
        let held = shelf.iter().find(|(r, _)| *r == recipe);
        if let Some(mask) = held.and_then(|(_, mask)| mask.upgrade()) {
            return mask;
        }
        let mask = Arc::new(Self::generate(
            layer,
            zero_fraction,
            &mut SimRng::seed(seed),
        ));
        #[cfg(test)]
        BUILDS.with(|builds| builds.set(builds.get() + 1));
        shelf.push((recipe, Arc::downgrade(&mask)));
        mask
    }

    /// Generates a mask that prunes `round(zero_fraction * filter_volume)`
    /// weights in every filter, chosen uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `zero_fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn generate(layer: &ConvLayer, zero_fraction: f64, rng: &mut SimRng) -> Self {
        assert!(
            (0.0..=1.0).contains(&zero_fraction),
            "zero fraction must be in [0, 1], got {zero_fraction}"
        );
        let volume = layer.filter_volume();
        let zeros_per_filter = ((zero_fraction * volume as f64).round() as usize).min(volume);
        // Each filter draws as `SimRng::choose_indices(volume, zeros)`
        // would, into one pool refilled per filter; the pruned set is
        // the same, and clearing its bits needs no sorted copy.
        let mut pool = Vec::with_capacity(volume);
        Self::from_pruned(layer, |filter| {
            pool.clear();
            pool.extend(0..volume);
            rng.partial_shuffle(&mut pool, zeros_per_filter);
            for &j in &pool[..zeros_per_filter] {
                filter[j / 64] &= !(1u64 << (j % 64));
            }
        })
    }

    /// A dense (no-op) mask for the layer.
    #[must_use]
    pub fn dense(layer: &ConvLayer) -> Self {
        Self::from_pruned(layer, |_| {})
    }

    /// Builds the mask filter by filter; `prune` clears the pruned
    /// weights' bits in the next filter's words, which start all set.
    fn from_pruned(layer: &ConvLayer, mut prune: impl FnMut(&mut [u64])) -> Self {
        let volume = layer.filter_volume();
        assert!(
            u32::try_from(volume).is_ok(),
            "filter volume {volume} exceeds the prefix-count range"
        );
        let kernel_area = layer.kernel_h * layer.kernel_w;
        let words = volume.div_ceil(64);
        let filters = layer.out_channels;
        let mut bits = Vec::with_capacity(filters * words);
        let mut prefix = Vec::with_capacity(filters * (layer.in_channels + 1));
        let mut nonzeros = Vec::with_capacity(filters);
        for _ in 0..filters {
            let first = bits.len();
            bits.extend((0..words).map(|w| {
                let live = (volume - w * 64).min(64);
                if live == 64 {
                    u64::MAX
                } else {
                    (1u64 << live) - 1
                }
            }));
            let filter = &mut bits[first..];
            prune(filter);
            let mut kept = 0u32;
            prefix.push(0);
            for c in 0..layer.in_channels {
                kept += ones_in(filter, c * kernel_area..(c + 1) * kernel_area);
                prefix.push(kept);
            }
            nonzeros.push(kept as usize);
        }
        WeightMask {
            filter_volume: volume,
            kernel_area,
            bits,
            prefix,
            nonzeros,
        }
    }

    /// Weights per (unpruned) filter.
    #[must_use]
    pub fn filter_volume(&self) -> usize {
        self.filter_volume
    }

    /// Number of filters covered by the mask.
    #[must_use]
    pub fn num_filters(&self) -> usize {
        self.nonzeros.len()
    }

    /// Surviving weight counts per filter — the virtual-neuron sizes a
    /// sparse MAERI mapping will construct.
    #[must_use]
    pub fn nonzeros_per_filter(&self) -> &[usize] {
        &self.nonzeros
    }

    /// Whether weight `j` of filter `k` survives pruning.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `j` is out of range.
    #[must_use]
    pub fn is_kept(&self, filter: usize, weight: usize) -> bool {
        assert!(
            weight < self.filter_volume,
            "weight {weight} out of range for filter volume {}",
            self.filter_volume
        );
        let word = filter * self.filter_volume.div_ceil(64) + weight / 64;
        self.bits[word] >> (weight % 64) & 1 == 1
    }

    /// Surviving weights of filter `filter` in channels `c_lo..c_hi`
    /// (every `R*S` tap of each channel), from the prefix counts.
    ///
    /// # Panics
    ///
    /// Panics if the filter is out of range or `c_lo..c_hi` is not a
    /// range of the mask's channels.
    #[must_use]
    pub fn kept_in_channels(&self, filter: usize, c_lo: usize, c_hi: usize) -> usize {
        let stride = self.filter_volume / self.kernel_area + 1;
        assert!(
            c_lo <= c_hi && c_hi < stride,
            "channel range {c_lo}..{c_hi} invalid for {} channels",
            stride - 1
        );
        let row = &self.prefix[filter * stride..(filter + 1) * stride];
        (row[c_hi] - row[c_lo]) as usize
    }

    /// Total surviving weights across all filters.
    #[must_use]
    pub fn total_nonzeros(&self) -> usize {
        self.nonzeros.iter().sum()
    }

    /// Overall zero fraction actually achieved.
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        let total = self.filter_volume * self.num_filters();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.total_nonzeros() as f64 / total as f64
    }

    /// Applies the mask to a `[K, C, R, S]` weight tensor, zeroing the
    /// pruned entries in place.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shape does not match the mask.
    pub fn apply(&self, weights: &mut Tensor) {
        let shape = weights.shape().to_vec();
        assert_eq!(shape.len(), 4, "expected [K, C, R, S] weights");
        assert_eq!(shape[0], self.num_filters(), "filter count mismatch");
        assert_eq!(
            shape[1] * shape[2] * shape[3],
            self.filter_volume,
            "filter volume mismatch"
        );
        let volume = self.filter_volume;
        let data = weights.as_mut_slice();
        for k in 0..self.num_filters() {
            for j in 0..volume {
                if !self.is_kept(k, j) {
                    data[k * volume + j] = 0.0;
                }
            }
        }
    }
}

/// The set bits of `words` in the bit range `bits`, counted one word
/// slice at a time.
fn ones_in(words: &[u64], bits: std::ops::Range<usize>) -> u32 {
    let mut ones = 0;
    let mut bit = bits.start;
    while bit < bits.end {
        let end = bits.end.min((bit / 64 + 1) * 64);
        let slice = u64::MAX >> (64 - (end - bit)) << (bit % 64);
        ones += (words[bit / 64] & slice).count_ones();
        bit = end;
    }
    ones
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::new("c", 3, 8, 8, 4, 3, 3, 1, 0)
    }

    #[test]
    fn dense_mask_keeps_everything() {
        let mask = WeightMask::dense(&layer());
        assert_eq!(mask.total_nonzeros(), 4 * 27);
        assert_eq!(mask.zero_fraction(), 0.0);
        assert!(mask.is_kept(0, 0));
        assert_eq!(mask.num_filters(), 4);
        assert_eq!(mask.filter_volume(), 27);
    }

    #[test]
    fn exact_zero_counts() {
        let mask = WeightMask::generate(&layer(), 0.5, &mut SimRng::seed(3));
        // round(0.5 * 27) = 14 zeros -> 13 kept.
        for &n in mask.nonzeros_per_filter() {
            assert_eq!(n, 13);
        }
        let achieved = mask.zero_fraction();
        assert!((achieved - 14.0 / 27.0).abs() < 1e-9);
    }

    #[test]
    fn full_pruning_and_no_pruning() {
        let all = WeightMask::generate(&layer(), 1.0, &mut SimRng::seed(4));
        assert_eq!(all.total_nonzeros(), 0);
        let none = WeightMask::generate(&layer(), 0.0, &mut SimRng::seed(4));
        assert_eq!(none.total_nonzeros(), 4 * 27);
    }

    #[test]
    #[should_panic(expected = "zero fraction")]
    fn out_of_range_fraction_panics() {
        let _ = WeightMask::generate(&layer(), 1.5, &mut SimRng::seed(0));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = WeightMask::generate(&layer(), 0.3, &mut SimRng::seed(7));
        let b = WeightMask::generate(&layer(), 0.3, &mut SimRng::seed(7));
        assert_eq!(a, b);
    }

    #[test]
    fn apply_zeroes_pruned_weights() {
        let l = layer();
        let mask = WeightMask::generate(&l, 0.5, &mut SimRng::seed(9));
        let mut weights = Tensor::from_fn(&[4, 3, 3, 3], |_| 1.0);
        mask.apply(&mut weights);
        let zeros = weights.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 4 * 14);
        // Kept weights untouched.
        assert!(weights.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn channel_prefix_counts_match_kept_flags() {
        let mut rng = SimRng::seed(21);
        for kernel in [1, 3, 5] {
            let l = ConvLayer::new("k", 7, 8, 8, 5, kernel, kernel, 1, 2);
            let rs = kernel * kernel;
            let mut masks = vec![WeightMask::dense(&l)];
            for zero_fraction in [0.0, 0.3, 0.7, 1.0] {
                masks.push(WeightMask::generate(&l, zero_fraction, &mut rng));
            }
            for mask in &masks {
                for k in 0..mask.num_filters() {
                    for c_lo in 0..=l.in_channels {
                        for c_hi in c_lo..=l.in_channels {
                            let brute = (c_lo * rs..c_hi * rs)
                                .filter(|&j| mask.is_kept(k, j))
                                .count();
                            assert_eq!(mask.kept_in_channels(k, c_lo, c_hi), brute);
                        }
                    }
                    let all = mask.kept_in_channels(k, 0, l.in_channels);
                    assert_eq!(all, mask.nonzeros_per_filter()[k]);
                }
            }
            assert_eq!(masks[0].total_nonzeros(), 5 * 7 * rs);
            assert_eq!(masks[4].total_nonzeros(), 0);
        }
    }

    #[test]
    fn generate_prunes_what_choose_indices_chooses() {
        // Filter volumes below, at and across 64-bit word boundaries,
        // and channels that straddle one (25 weights from 50 and 125,
        // 9 weights from 63).
        let shapes = [
            (1, 63),
            (1, 64),
            (1, 65),
            (1, 128),
            (3, 7),
            (3, 8),
            (5, 2),
            (5, 3),
            (5, 6),
            (3, 15),
        ];
        for (kernel, channels) in shapes {
            let l = ConvLayer::new("w", channels, 5, 5, 2, kernel, kernel, 1, 0);
            let volume = l.filter_volume();
            let rs = kernel * kernel;
            for zero_fraction in [0.0, 0.1, 0.5, 0.6, 0.99, 1.0] {
                let seed = (volume * 100) as u64 + (zero_fraction * 100.0) as u64;
                let case = format!(
                    "{volume} weights ({kernel}x{kernel}), {zero_fraction} zeros, seed {seed}"
                );
                let (mut ours, mut theirs) = (SimRng::seed(seed), SimRng::seed(seed));
                let mask = WeightMask::generate(&l, zero_fraction, &mut ours);
                let zeros = ((zero_fraction * volume as f64).round() as usize).min(volume);
                for k in 0..l.out_channels {
                    let mut kept = vec![true; volume];
                    for j in theirs.choose_indices(volume, zeros) {
                        kept[j] = false;
                    }
                    for (j, &want) in kept.iter().enumerate() {
                        assert_eq!(mask.is_kept(k, j), want, "{case}: filter {k}, weight {j}");
                    }
                    for c in 0..channels {
                        let want = kept[c * rs..(c + 1) * rs].iter().filter(|&&b| b).count();
                        assert_eq!(
                            mask.kept_in_channels(k, c, c + 1),
                            want,
                            "{case}: filter {k}, channel {c}"
                        );
                    }
                    assert_eq!(
                        mask.nonzeros_per_filter()[k],
                        volume - zeros,
                        "{case}: filter {k}"
                    );
                }
                assert_eq!(
                    ours.next_below(1 << 30),
                    theirs.next_below(1 << 30),
                    "{case}: the next draw after the mask differs"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel range")]
    fn channel_range_past_the_mask_panics() {
        let _ = WeightMask::dense(&layer()).kept_in_channels(0, 0, 4);
    }

    #[test]
    fn seeded_shares_one_generated_mask_while_it_is_held() {
        let l = ConvLayer::new("s", 2, 4, 4, 3, 3, 3, 1, 0);
        let builds = || BUILDS.with(std::cell::Cell::get);
        let before = builds();
        let first = WeightMask::seeded(&l, 0.4, 101);
        assert_eq!(
            *first,
            WeightMask::generate(&l, 0.4, &mut SimRng::seed(101))
        );
        // The name is not part of the recipe; the shape, zero fraction
        // and seed are.
        let renamed = ConvLayer::new("other", 2, 4, 4, 3, 3, 3, 1, 0);
        let second = WeightMask::seeded(&renamed, 0.4, 101);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(builds() - before, 1);
        for (layer, zero_fraction, seed) in [(&l, 0.4, 102), (&l, 0.5, 101)] {
            let other = WeightMask::seeded(layer, zero_fraction, seed);
            assert!(!Arc::ptr_eq(&first, &other), "{zero_fraction}, seed {seed}");
        }
        let wider = ConvLayer::new("s", 2, 4, 4, 4, 3, 3, 1, 0);
        assert!(!Arc::ptr_eq(&first, &WeightMask::seeded(&wider, 0.4, 101)));
        assert_eq!(builds() - before, 4);

        // Once both holders drop it, the shelf keeps nothing of it, and
        // the next call builds the mask again.
        let recipe = ([2, 3, 3, 3], 0.4f64.to_bits(), 101);
        drop((first, second));
        let live = |shelf: &[(Recipe, Weak<WeightMask>)]| {
            shelf
                .iter()
                .any(|(r, mask)| *r == recipe && mask.strong_count() > 0)
        };
        assert!(!live(&SHELF.lock().unwrap_or_else(PoisonError::into_inner)));
        let again = WeightMask::seeded(&l, 0.4, 101);
        assert_eq!(builds() - before, 5);
        assert!(live(&SHELF.lock().unwrap_or_else(PoisonError::into_inner)));
        assert_eq!(
            *again,
            WeightMask::generate(&l, 0.4, &mut SimRng::seed(101))
        );
    }

    #[test]
    fn seeded_builds_once_for_two_threads_with_one_recipe() {
        let l = ConvLayer::new("t", 3, 4, 4, 2, 3, 3, 1, 0);
        // Both threads hold their mask until both have one, so the
        // second caller always finds the first one's.
        let both = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let take = || {
                let before = BUILDS.with(std::cell::Cell::get);
                let mask = WeightMask::seeded(&l, 0.6, 202);
                both.wait();
                (mask, BUILDS.with(std::cell::Cell::get) - before)
            };
            let a = scope.spawn(take);
            let b = scope.spawn(take);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a.1 + b.1, 1, "builds per thread: {}, {}", a.1, b.1);
        assert_eq!(*a.0, WeightMask::generate(&l, 0.6, &mut SimRng::seed(202)));
    }

    #[test]
    fn nonzeros_match_kept_flags() {
        let mask = WeightMask::generate(&layer(), 0.25, &mut SimRng::seed(12));
        for k in 0..mask.num_filters() {
            let counted = (0..mask.filter_volume())
                .filter(|&j| mask.is_kept(k, j))
                .count();
            assert_eq!(counted, mask.nonzeros_per_filter()[k]);
        }
    }
}
