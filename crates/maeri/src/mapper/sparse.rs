//! Sparse CONV mapping (Section 4.7, Figure 13).
//!
//! With pruned weights, each `(filter, channel segment)` contributes a
//! virtual neuron sized by its *surviving* weight count, so VN sizes
//! vary across the array. The controller greedily packs VNs left to
//! right until the multiplier switches run out, runs those lanes for a
//! full output row, and continues with the next group.
//!
//! Two effects drive Figure 13:
//!
//! * higher sparsity -> smaller VNs -> more simultaneous lanes -> more
//!   outputs per cycle demanded of the ART's chubby root; at 0.25x
//!   bandwidth the collection becomes the bottleneck
//!   ([`crate::art::ArtConfig::throughput_slowdown`]),
//! * the fixed-cluster baseline instead rounds every VN up to a whole
//!   4x4 cluster (see `maeri-baselines`), wasting multipliers.

use std::collections::BTreeMap;

use maeri_dnn::{ConvLayer, WeightMask};
use maeri_sim::util::ceil_div;
use maeri_sim::{Cycle, Result};

use super::{knob_in_range, span_capacity, PlanError};
use crate::art::{SoloLoads, SpanCursor};
use crate::engine::RunStats;
use crate::MaeriConfig;

/// Entries the per-run slowdown memo of [`SparseConvMapper::run`] holds
/// before it is cleared, so a run's memory stays flat however many
/// distinct groups it packs.
const SLOWDOWN_MEMO_CAP: usize = 1024;

/// Maps weight-sparse CONV layers onto a MAERI instance.
///
/// # Example
///
/// ```
/// use maeri::{MaeriConfig, SparseConvMapper};
/// use maeri_dnn::{ConvLayer, WeightMask};
/// use maeri_sim::SimRng;
///
/// let layer = ConvLayer::new("c", 3, 8, 8, 8, 3, 3, 1, 1);
/// let mask = WeightMask::generate(&layer, 0.5, &mut SimRng::seed(1));
/// let run = SparseConvMapper::new(MaeriConfig::paper_64())
///     .run(&layer, &mask, 3)?;
/// assert!(run.macs < layer.macs()); // only surviving weights compute
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SparseConvMapper {
    cfg: MaeriConfig,
}

impl SparseConvMapper {
    /// Creates a mapper over the given fabric.
    #[must_use]
    pub fn new(cfg: MaeriConfig) -> Self {
        SparseConvMapper { cfg }
    }

    /// Picks the channel tile that best packs the *surviving* weights:
    /// for each candidate tile the expected sparse slice size is the
    /// layer's overall density times `R*S*ct`, and the score is the
    /// multiplier coverage of greedily packed slices (ties prefer the
    /// larger tile, which folds less).
    ///
    /// # Panics
    ///
    /// Panics if the mask does not match the layer.
    #[must_use]
    pub fn auto_channel_tile(&self, layer: &ConvLayer, mask: &WeightMask) -> usize {
        assert_eq!(
            mask.filter_volume(),
            layer.filter_volume(),
            "mask does not match layer"
        );
        let n = self.cfg.num_mult_switches();
        let rs = (layer.kernel_h * layer.kernel_w) as f64;
        let density = 1.0 - mask.zero_fraction();
        let cols_new = (layer.stride.min(layer.kernel_w)) as f64;
        let bw = self.cfg.dist_bandwidth() as f64;
        let collect = self.cfg.collect_bandwidth() as f64;
        let mut best = (1usize, 0.0f64);
        for ct in 1..=layer.in_channels {
            let slice = (rs * ct as f64 * density).max(1.0);
            // Oversized slices fold into <= n pieces.
            let pieces = (slice / n as f64).ceil().max(1.0);
            let piece = slice / pieces;
            let lanes = (n as f64 / piece).floor().max(1.0);
            let coverage = (lanes * piece).min(n as f64) / n as f64;
            // Same steady-state rate model as the dense Auto policy:
            // a step fetches the group's shared channel slice and
            // collects one output per lane.
            let step_inputs = layer.kernel_h as f64 * cols_new * ct as f64 / pieces;
            let steady = (step_inputs / bw).max(1.0).max(lanes / collect);
            let score = coverage / steady;
            if score > best.1 + 1e-9 || (score > best.1 - 1e-9 && ct > best.0) {
                best = (ct, score);
            }
        }
        best.0
    }

    /// Surviving-weight count per `(filter, segment)` work unit, given
    /// `ct` channels per segment. Units with zero survivors are elided
    /// entirely (their multiplications are skipped).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::KnobOutOfRange`] for an invalid channel tile.
    pub fn vn_sizes(
        &self,
        layer: &ConvLayer,
        mask: &WeightMask,
        ct: usize,
    ) -> Result<Vec<usize>, PlanError> {
        knob_in_range("channel_tile", ct, layer.in_channels)?;
        let segments = ceil_div(layer.in_channels as u64, ct as u64) as usize;
        let mut sizes = Vec::with_capacity(layer.out_channels * segments);
        // Segment-major order: consecutive VNs share a channel segment
        // (different filters), so the lanes packed together in one
        // group multicast the *same* input slice.
        for seg in 0..segments {
            let c_lo = seg * ct;
            let c_hi = ((seg + 1) * ct).min(layer.in_channels);
            for k in 0..layer.out_channels {
                let nonzeros = mask.kept_in_channels(k, c_lo, c_hi);
                if nonzeros > 0 {
                    sizes.push(nonzeros);
                }
            }
        }
        Ok(sizes)
    }

    /// Plans and costs a sparse CONV run with `ct` channels per VN.
    ///
    /// A group's ART slowdown depends only on its piece sizes (the
    /// ranges follow from the sizes and the healthy spans, and the
    /// chubby tree and fault plan are fixed for the run), so each
    /// distinct size sequence is costed at most once between memo
    /// clears. A group's ART loads are the sum of what each of its VNs
    /// loads alone, so the ART walk runs once per distinct VN range in
    /// the run, and on a whole group only when those sums cannot rule
    /// out a conflict; the slowdown and any error are the group walk's.
    ///
    /// # Errors
    ///
    /// Propagates invalid tiles and ART construction failures.
    pub fn run(&self, layer: &ConvLayer, mask: &WeightMask, ct: usize) -> Result<RunStats> {
        let n = self.cfg.num_mult_switches();
        let dist = self.cfg.distributor();
        let sizes = self.vn_sizes(layer, mask, ct)?;
        // An entirely pruned layer performs no work.
        if sizes.is_empty() {
            let mut run = RunStats::new(&layer.name, n, Cycle::ZERO, 0);
            run.extra.add("groups", 0);
            return Ok(run);
        }
        let spans = self.cfg.healthy_spans();
        let (cap, _budget) = span_capacity(&spans)?;
        let chubby = self.cfg.collection_chubby();
        let fault_plan = self.cfg.fault_plan();
        let mut solo = SoloLoads::new(*chubby.tree(), fault_plan.as_ref());
        // Oversized sparse VNs fold like dense ones; split them here so
        // packing sees mappable pieces (no piece may exceed the largest
        // healthy span). Each piece remembers its fold factor: a piece
        // covering 1/f of a slice also only touches ~1/f of the filter
        // rows per step.
        let mut pieces: Vec<(usize, usize)> = Vec::with_capacity(sizes.len());
        for size in sizes {
            let folds = ceil_div(size as u64, cap as u64) as usize;
            let base = size / folds;
            let mut rem = size % folds;
            for _ in 0..folds {
                let extra = usize::from(rem > 0);
                rem = rem.saturating_sub(1);
                pieces.push((base + extra, folds));
            }
        }

        // Greedy grouping: fill the array, run a group for all P rows,
        // move on.
        let q = layer.out_w() as u64;
        let p = layer.out_h() as u64;
        let (r, stride) = (layer.kernel_h as u64, layer.stride as u64);
        let cols_new = stride.min(layer.kernel_w as u64);
        let mut total_cycles = 0f64;
        let mut total_macs = 0u64;
        let mut input_reads = 0u64;
        let mut groups = 0u64;
        let mut idx = 0usize;
        // The memo keys groups by their piece sizes as `u32`; no piece
        // exceeds the leaf count, so the key is lossless.
        let mut memo: BTreeMap<Box<[u32]>, f64> = BTreeMap::new();
        let mut key: Vec<u32> = Vec::new();
        let mut ranges = Vec::new();
        while idx < pieces.len() {
            key.clear();
            ranges.clear();
            let mut cursor = SpanCursor::new(&spans);
            let mut max_folds = 1usize;
            // Grow the group while every piece still lands on a healthy
            // span; the first piece that no longer fits starts the next
            // group (with the span cursor reset to the array's left).
            // A group never holds an overflow, so placing each piece
            // once gives the ranges a re-pack of the group would.
            while let Some(&(size, folds)) = pieces.get(idx) {
                let Some(range) = cursor.place(size) else {
                    break;
                };
                ranges.push(range);
                key.push(size as u32);
                max_folds = max_folds.max(folds);
                idx += 1;
            }
            debug_assert!(!ranges.is_empty(), "one VN must always fit");
            let slowdown = if let Some(&slowdown) = memo.get(key.as_slice()) {
                slowdown
            } else {
                let slowdown = solo.group_slowdown(&chubby, &ranges)?;
                if memo.len() >= SLOWDOWN_MEMO_CAP {
                    memo.clear();
                }
                memo.insert(key.as_slice().into(), slowdown);
                slowdown
            };

            // Input traffic: segment-major packing means the lanes of a
            // group share one channel segment (groups straddling a
            // segment boundary are rare with K >> lanes), so one input
            // slice multicast feeds every lane. A folded piece covers
            // only ~1/folds of the filter rows per pass.
            let channels_active = (ct as u64).min(layer.in_channels as u64);
            let rows_piece = ceil_div(r, max_folds as u64);
            let step_inputs = rows_piece * cols_new * channels_active;
            let fill_inputs = rows_piece * layer.kernel_w as u64 * channels_active;
            let steady = (step_inputs as f64 / dist.bandwidth() as f64)
                .max(1.0)
                .max(slowdown);
            // One-time group startup (configure, ART fill, first
            // window); rows pipeline thereafter.
            let startup = 1.0
                + self.cfg.art_depth() as f64
                + dist.multicast_cycles(fill_inputs).as_u64() as f64;
            total_cycles += startup + p as f64 * q as f64 * steady;
            let group_weights: u64 = ranges.iter().map(|vn| vn.len as u64).sum();
            total_macs += group_weights * p * q;
            input_reads += p * (fill_inputs + q.saturating_sub(1) * step_inputs);
            groups += 1;
        }

        let total_weights: u64 = pieces.iter().map(|&(v, _)| v as u64).sum();
        let weight_cycles = dist.multicast_cycles(total_weights).as_u64();
        let mut run = RunStats::new(
            &layer.name,
            n,
            Cycle::new(total_cycles.ceil() as u64 + weight_cycles),
            total_macs,
        );
        run.sram_reads = total_weights + input_reads;
        run.sram_writes = layer.output_count() as u64;
        run.extra.add("groups", groups);
        run.extra.add("nonzero_weights", total_weights);
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::art::{pack_vns_into_spans, ArtConfig, FALLBACKS};
    use crate::fault::FaultSpec;
    use maeri_sim::SimRng;
    use std::collections::BTreeSet;

    /// `m.run(layer, mask, ct)`, with the group walks its table fell
    /// back to and how many of them failed (at most the last one, since
    /// a failure ends the run).
    fn run_counting_fallbacks(
        m: &SparseConvMapper,
        layer: &ConvLayer,
        mask: &WeightMask,
        ct: usize,
    ) -> (Result<RunStats>, (usize, usize)) {
        let count = || FALLBACKS.with(std::cell::Cell::get);
        let before = count();
        let run = m.run(layer, mask, ct);
        let after = count();
        (run, (after.0 - before.0, after.1 - before.1))
    }

    /// The straightforward `run`: survivor counts from per-weight mask
    /// lookups, each group re-packed from the left on every push, and
    /// one ART build per group. The optimized `run` must agree with it
    /// exactly. Also returns the number of distinct group size
    /// sequences, the memo's key count without eviction.
    fn reference_run(
        m: &SparseConvMapper,
        layer: &ConvLayer,
        mask: &WeightMask,
        ct: usize,
    ) -> (Result<RunStats>, usize) {
        let mut distinct: BTreeSet<Vec<usize>> = BTreeSet::new();
        let run = reference_run_inner(m, layer, mask, ct, &mut distinct);
        (run, distinct.len())
    }

    fn reference_run_inner(
        m: &SparseConvMapper,
        layer: &ConvLayer,
        mask: &WeightMask,
        ct: usize,
        distinct: &mut BTreeSet<Vec<usize>>,
    ) -> Result<RunStats> {
        let n = m.cfg.num_mult_switches();
        let dist = m.cfg.distributor();
        if ct == 0 || ct > layer.in_channels {
            return Err(PlanError::KnobOutOfRange {
                knob: "channel_tile",
                value: ct,
                min: 1,
                max: layer.in_channels,
            }
            .into());
        }
        let rs = layer.kernel_h * layer.kernel_w;
        let segments = ceil_div(layer.in_channels as u64, ct as u64) as usize;
        let mut sizes = Vec::new();
        for seg in 0..segments {
            for k in 0..layer.out_channels {
                let c_lo = seg * ct;
                let c_hi = ((seg + 1) * ct).min(layer.in_channels);
                let mut nonzeros = 0usize;
                for c in c_lo..c_hi {
                    for j in 0..rs {
                        if mask.is_kept(k, c * rs + j) {
                            nonzeros += 1;
                        }
                    }
                }
                if nonzeros > 0 {
                    sizes.push(nonzeros);
                }
            }
        }
        if sizes.is_empty() {
            let mut run = RunStats::new(&layer.name, n, Cycle::ZERO, 0);
            run.extra.add("groups", 0);
            return Ok(run);
        }
        let spans = m.cfg.healthy_spans();
        let (cap, _budget) = span_capacity(&spans)?;
        let fault_plan = m.cfg.fault_plan();
        let mut pieces: Vec<(usize, usize)> = Vec::with_capacity(sizes.len());
        for size in sizes {
            let folds = ceil_div(size as u64, cap as u64) as usize;
            let base = size / folds;
            let mut rem = size % folds;
            for _ in 0..folds {
                let extra = usize::from(rem > 0);
                rem = rem.saturating_sub(1);
                pieces.push((base + extra, folds));
            }
        }
        let q = layer.out_w() as u64;
        let p = layer.out_h() as u64;
        let (r, stride) = (layer.kernel_h as u64, layer.stride as u64);
        let cols_new = stride.min(layer.kernel_w as u64);
        let mut total_cycles = 0f64;
        let mut total_macs = 0u64;
        let mut input_reads = 0u64;
        let mut groups = 0u64;
        let mut idx = 0usize;
        while idx < pieces.len() {
            let mut group = Vec::new();
            let mut max_folds = 1usize;
            while idx < pieces.len() {
                group.push(pieces[idx].0);
                let (_, overflow) = pack_vns_into_spans(&spans, &group);
                if !overflow.is_empty() {
                    group.pop();
                    break;
                }
                max_folds = max_folds.max(pieces[idx].1);
                idx += 1;
            }
            let (ranges, overflow) = pack_vns_into_spans(&spans, &group);
            assert!(overflow.is_empty());
            let art = ArtConfig::build_with_faults(
                m.cfg.collection_chubby(),
                &ranges,
                fault_plan.as_ref(),
            )?;
            let slowdown = art.throughput_slowdown();
            distinct.insert(group.clone());
            let channels_active = (ct as u64).min(layer.in_channels as u64);
            let rows_piece = ceil_div(r, max_folds as u64);
            let step_inputs = rows_piece * cols_new * channels_active;
            let fill_inputs = rows_piece * layer.kernel_w as u64 * channels_active;
            let steady = (step_inputs as f64 / dist.bandwidth() as f64)
                .max(1.0)
                .max(slowdown);
            let startup =
                1.0 + m.cfg.art_depth() as f64 + dist.multicast_cycles(fill_inputs).as_u64() as f64;
            total_cycles += startup + p as f64 * q as f64 * steady;
            let group_weights: u64 = group.iter().map(|&v| v as u64).sum();
            total_macs += group_weights * p * q;
            input_reads += p * (fill_inputs + q.saturating_sub(1) * step_inputs);
            groups += 1;
        }
        let total_weights: u64 = pieces.iter().map(|&(v, _)| v as u64).sum();
        let weight_cycles = dist.multicast_cycles(total_weights).as_u64();
        let mut run = RunStats::new(
            &layer.name,
            n,
            Cycle::new(total_cycles.ceil() as u64 + weight_cycles),
            total_macs,
        );
        run.sram_reads = total_weights + input_reads;
        run.sram_writes = layer.output_count() as u64;
        run.extra.add("groups", groups);
        run.extra.add("nonzero_weights", total_weights);
        Ok(run)
    }

    fn fabrics() -> Vec<(&'static str, MaeriConfig)> {
        let build = |b: crate::config::MaeriConfigBuilder| b.build().unwrap();
        vec![
            ("healthy", MaeriConfig::paper_64()),
            (
                "thin collection",
                build(
                    MaeriConfig::builder(64)
                        .distribution_bandwidth(2)
                        .collection_bandwidth(2),
                ),
            ),
            (
                "dead switches and links",
                build(
                    MaeriConfig::builder(64).faults(
                        FaultSpec::new(11)
                            .dead_multipliers(150)
                            .dead_forwarding_links(300),
                    ),
                ),
            ),
            (
                "dead links, thin collection",
                build(
                    MaeriConfig::builder(32)
                        .collection_bandwidth(1)
                        .faults(FaultSpec::new(5).dead_forwarding_links(600)),
                ),
            ),
            (
                "every switch dead",
                build(MaeriConfig::builder(16).faults(FaultSpec::new(2).dead_multipliers(1000))),
            ),
        ]
    }

    #[test]
    fn run_matches_reference_over_masks_tiles_and_fabrics() {
        let l = ConvLayer::new("diff", 20, 5, 5, 12, 3, 3, 1, 1);
        let c = l.in_channels;
        // Group walks the runs' tables fell back to, and the runs whose
        // error came back through one.
        let (mut fallbacks, mut failed_through_fallback) = (0, 0);
        for (f, zero_fraction) in [0.0, 0.3, 0.6, 0.9, 1.0].into_iter().enumerate() {
            let mask = WeightMask::generate(&l, zero_fraction, &mut SimRng::seed(40 + f as u64));
            for (name, cfg) in fabrics() {
                let m = SparseConvMapper::new(cfg);
                let auto = m.auto_channel_tile(&l, &mask);
                for ct in [1, 2, 3, auto, c - 1, c, 0, c + 1] {
                    let case = format!("{name}, zero fraction {zero_fraction}, tile {ct}");
                    let (want, _) = reference_run(&m, &l, &mask, ct);
                    let (got, (walks, failed)) = run_counting_fallbacks(&m, &l, &mask, ct);
                    assert_eq!(got, want, "{case}");
                    if cfg.faults().is_none() {
                        assert_eq!(walks, 0, "{case}: a healthy fabric fell back");
                    }
                    fallbacks += walks;
                    failed_through_fallback += failed;
                }
            }
        }
        assert!(
            failed_through_fallback > 0,
            "no run's error came through the fallback ({fallbacks} fallbacks)"
        );
        assert_eq!(
            failed_through_fallback, fallbacks,
            "a fallback walk built a group whose sums flagged a conflict"
        );
    }

    #[test]
    fn run_matches_reference_past_the_memo_cap() {
        // Over a thousand groups of about a dozen varied pieces: nearly
        // every group is distinct, so the memo fills and is cleared
        // mid-run.
        let l = ConvLayer::new("evict", 128, 3, 3, 160, 3, 3, 1, 1);
        let mask = WeightMask::generate(&l, 0.5, &mut SimRng::seed(8));
        let healthy = SparseConvMapper::new(
            MaeriConfig::builder(64)
                .collection_bandwidth(4)
                .build()
                .unwrap(),
        );
        let (want, distinct) = reference_run(&healthy, &l, &mask, 1);
        assert!(
            distinct > SLOWDOWN_MEMO_CAP,
            "only {distinct} distinct groups; the memo never evicts"
        );
        assert!(want.is_ok());
        let (got, fallbacks) = run_counting_fallbacks(&healthy, &l, &mask, 1);
        assert_eq!(got, want);
        assert_eq!(fallbacks, (0, 0), "a healthy fabric fell back");

        // On this faulty fabric a later group's ART configuration is
        // illegal: the memo must not hide the build error.
        let faulty = SparseConvMapper::new(
            MaeriConfig::builder(64)
                .faults(
                    FaultSpec::new(3)
                        .dead_multipliers(40)
                        .dead_forwarding_links(200),
                )
                .build()
                .unwrap(),
        );
        let (want, distinct) = reference_run(&faulty, &l, &mask, 1);
        assert!(distinct > 0, "the error should follow successful groups");
        assert!(want
            .as_ref()
            .is_err_and(|e| e.to_string().contains("addends")));
        let (got, (walks, failed)) = run_counting_fallbacks(&faulty, &l, &mask, 1);
        assert_eq!(got, want);
        assert_eq!(
            failed, 1,
            "the error must come through the fallback ({walks} fallbacks)"
        );
    }

    #[test]
    fn run_past_u16_leaves_matches_reference() {
        // 131,072 leaves: spans and leaf positions past `u16::MAX`, and
        // a (start, length) table dense over the leaves would need about
        // 17 billion slots; the table holds only the ranges it sees.
        let m = SparseConvMapper::new(MaeriConfig::builder(1 << 17).build().unwrap());
        let l = ConvLayer::new("wide", 6, 4, 4, 8, 3, 3, 1, 1);
        let mask = WeightMask::generate(&l, 0.5, &mut SimRng::seed(17));
        for ct in [1, 6] {
            let (want, _) = reference_run(&m, &l, &mask, ct);
            assert!(want.is_ok(), "tile {ct}: {want:?}");
            assert_eq!(m.run(&l, &mask, ct), want, "tile {ct}");
        }
    }

    fn layer() -> ConvLayer {
        // VGG16 C8 shape, downsized spatially for test speed.
        ConvLayer::new("vgg_c8_small", 256, 7, 7, 32, 3, 3, 1, 1)
    }

    fn mapper() -> SparseConvMapper {
        SparseConvMapper::new(MaeriConfig::paper_64())
    }

    #[test]
    fn dense_mask_matches_filter_volume() {
        let l = layer();
        let mask = WeightMask::dense(&l);
        let sizes = mapper().vn_sizes(&l, &mask, 3).unwrap();
        // ceil(256/3) = 86 segments per filter; last covers one channel.
        assert_eq!(sizes.len(), 32 * 86);
        assert_eq!(sizes[0], 27);
        let total: usize = sizes.iter().sum();
        assert_eq!(total, l.weight_count());
    }

    #[test]
    fn sparsity_shrinks_vns_and_work() {
        let l = layer();
        let dense = WeightMask::dense(&l);
        let sparse = WeightMask::generate(&l, 0.5, &mut SimRng::seed(3));
        let m = mapper();
        let run_dense = m.run(&l, &dense, 3).unwrap();
        let run_sparse = m.run(&l, &sparse, 3).unwrap();
        assert!(run_sparse.macs < run_dense.macs);
        assert!(
            run_sparse.cycles < run_dense.cycles,
            "sparse {} should beat dense {}",
            run_sparse.cycles,
            run_dense.cycles
        );
    }

    #[test]
    fn thin_collection_tree_throttles_sparse_speedup() {
        // Figure 13: at 0.25x root bandwidth the sparse win shrinks.
        let l = layer();
        let sparse = WeightMask::generate(&l, 0.5, &mut SimRng::seed(3));
        // 1x vs 0.25x root bandwidth applies to both trees, as in the
        // figure's "chubby tree bandwidth" knob.
        let wide = SparseConvMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(8)
                .collection_bandwidth(8)
                .build()
                .unwrap(),
        );
        let thin = SparseConvMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(2)
                .collection_bandwidth(2)
                .build()
                .unwrap(),
        );
        let run_wide = wide.run(&l, &sparse, 3).unwrap();
        let run_thin = thin.run(&l, &sparse, 3).unwrap();
        assert!(run_thin.cycles > run_wide.cycles);
    }

    #[test]
    fn fully_pruned_layer_is_free() {
        let l = layer();
        let empty = WeightMask::generate(&l, 1.0, &mut SimRng::seed(0));
        let run = mapper().run(&l, &empty, 3).unwrap();
        assert_eq!(run.macs, 0);
        assert_eq!(run.cycles, Cycle::ZERO);
    }

    #[test]
    fn macs_equal_nonzeros_times_outputs() {
        let l = layer();
        let mask = WeightMask::generate(&l, 0.3, &mut SimRng::seed(9));
        let run = mapper().run(&l, &mask, 3).unwrap();
        let outputs_per_filter = (l.out_h() * l.out_w()) as u64;
        let expected: u64 = mask
            .nonzeros_per_filter()
            .iter()
            .map(|&nz| nz as u64 * outputs_per_filter)
            .sum();
        assert_eq!(run.macs, expected);
    }

    #[test]
    fn invalid_tile_rejected() {
        let l = layer();
        let mask = WeightMask::dense(&l);
        assert!(mapper().run(&l, &mask, 0).is_err());
        assert!(mapper().run(&l, &mask, 10_000).is_err());
    }

    #[test]
    fn oversized_sparse_vn_folds() {
        // channel tile = all 256 channels: VN of up to 2304 weights
        // must fold over 64 leaves rather than fail.
        let l = layer();
        let mask = WeightMask::generate(&l, 0.2, &mut SimRng::seed(5));
        let run = mapper().run(&l, &mask, 256).unwrap();
        assert!(run.cycles.as_u64() > 0);
    }
}
