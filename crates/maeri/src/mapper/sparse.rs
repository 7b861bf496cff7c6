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
//!
//! Of a group's cost, only its ART slowdown needs the tree. A group of
//! one piece never slows the ART, so a tile whose every group is one
//! piece is costed in closed form from its VN count per fold count;
//! any other tile is packed group by group, and a multi-piece group's
//! slowdown is read from the summed solo loads of its VNs, of which
//! only the links and adders two VNs could share are kept
//! ([`crate::art`], DESIGN.md §10).

use maeri_dnn::{ConvLayer, WeightMask};
use maeri_sim::util::ceil_div;
use maeri_sim::{Cycle, Result};

use super::{knob_in_range, span_capacity, PlanError};
use crate::art::{SoloLoads, SpanCursor, VnRange};
use crate::engine::RunStats;
use crate::fault::FaultPlan;
use crate::MaeriConfig;

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
    /// A lone VN never slows the ART (DESIGN.md §10), so a group of one
    /// piece has slowdown 1.0 and is costed without a walk. When every
    /// group must hold one piece (one healthy span, every piece larger
    /// than half of it), the tile is costed in closed form from its VN
    /// count per fold count, with no piece list and no group loop,
    /// whenever that sum is exact in `f64`. Otherwise the pieces are
    /// grouped one by one. A multi-piece group's ART loads are the sum
    /// of what each of its VNs loads alone, so the ART walk runs once
    /// per distinct VN range in the run, and on a whole group only when
    /// those sums cannot rule out a conflict; the slowdown and any
    /// error are the group walk's.
    ///
    /// # Errors
    ///
    /// Propagates invalid tiles and ART construction failures.
    pub fn run(&self, layer: &ConvLayer, mask: &WeightMask, ct: usize) -> Result<RunStats> {
        self.cost(layer, ct, self.vn_sizes(layer, mask, ct)?)
    }

    /// [`Self::run`] on `sizes`, the VN sizes [`Self::vn_sizes`] counts
    /// for the layer's mask with `ct` channels per VN: a caller that
    /// checked the sizes first (the static gate, `maeri-verify`) costs
    /// the sizes it checked without counting them again.
    ///
    /// # Errors
    ///
    /// Propagates ART construction failures, and a fabric with no
    /// healthy multiplier when `sizes` is not empty.
    pub fn cost(&self, layer: &ConvLayer, ct: usize, sizes: Vec<usize>) -> Result<RunStats> {
        let n = self.cfg.num_mult_switches();
        let dist = self.cfg.distributor();
        // An entirely pruned layer performs no work.
        if sizes.is_empty() {
            let mut run = RunStats::new(&layer.name, n, Cycle::ZERO, 0);
            run.extra.add("groups", 0);
            return Ok(run);
        }
        let fault_plan = self.cfg.fault_plan();
        let spans = self.cfg.healthy_spans_under(fault_plan.as_ref());
        let (cap, _budget) = span_capacity(&spans)?;
        // Oversized sparse VNs fold like dense ones, into pieces no
        // larger than the largest healthy span.
        let mut vns_by_folds: Vec<u64> = Vec::new();
        let mut smallest_piece = usize::MAX;
        for &size in &sizes {
            let folds = ceil_div(size as u64, cap as u64) as usize;
            if vns_by_folds.len() < folds {
                vns_by_folds.resize(folds, 0);
            }
            vns_by_folds[folds - 1] += 1;
            smallest_piece = smallest_piece.min(size / folds);
        }
        let total_weights: u64 = sizes.iter().map(|&v| v as u64).sum();
        let costs = self.group_costs(layer, ct, vns_by_folds.len());
        let (p, q) = (layer.out_h() as u64, layer.out_w() as u64);
        // No two pieces larger than half of the only span fit together.
        let one_piece_groups = spans.len() == 1 && 2 * smallest_piece > cap;
        let closed = one_piece_groups
            .then(|| closed_form(&costs, &vns_by_folds, p, q, dist.bandwidth()))
            .flatten();
        #[cfg(test)]
        PATHS.with(|paths| {
            let (closed_forms, loops) = paths.get();
            let now = usize::from(closed.is_some());
            paths.set((closed_forms + now, loops + 1 - now));
        });
        let tile = if let Some(tile) = closed {
            tile
        } else {
            let pq = p as f64 * q as f64;
            self.group_loop(sizes, &spans, cap, fault_plan.as_ref(), &costs, pq)?
        };

        let weight_cycles = dist.multicast_cycles(total_weights).as_u64();
        let mut run = RunStats::new(
            &layer.name,
            n,
            Cycle::new(tile.cycles.ceil() as u64 + weight_cycles),
            total_weights * p * q,
        );
        run.sram_reads = total_weights + tile.input_reads;
        run.sram_writes = layer.output_count() as u64;
        run.extra.add("groups", tile.groups);
        run.extra.add("nonzero_weights", total_weights);
        Ok(run)
    }

    /// The cost of a group whose widest piece folds `f` times, at index
    /// `f - 1`, for every `f` up to `max_folds`.
    ///
    /// Input traffic: segment-major packing means the lanes of a group
    /// share one channel segment (groups straddling a segment boundary
    /// are rare with K >> lanes), so one input slice multicast feeds
    /// every lane. A folded piece covers only ~1/folds of the filter
    /// rows per pass.
    fn group_costs(&self, layer: &ConvLayer, ct: usize, max_folds: usize) -> Vec<GroupCost> {
        let dist = self.cfg.distributor();
        let (p, q) = (layer.out_h() as u64, layer.out_w() as u64);
        let (r, stride) = (layer.kernel_h as u64, layer.stride as u64);
        let cols_new = stride.min(layer.kernel_w as u64);
        let channels_active = (ct as u64).min(layer.in_channels as u64);
        (1..=max_folds as u64)
            .map(|folds| {
                let rows_piece = ceil_div(r, folds);
                let step_inputs = rows_piece * cols_new * channels_active;
                let fill_inputs = rows_piece * layer.kernel_w as u64 * channels_active;
                GroupCost {
                    step_inputs,
                    steady: (step_inputs as f64 / dist.bandwidth() as f64).max(1.0),
                    startup: 1
                        + self.cfg.art_depth() as u64
                        + dist.multicast_cycles(fill_inputs).as_u64(),
                    input_reads: p * (fill_inputs + q.saturating_sub(1) * step_inputs),
                }
            })
            .collect()
    }

    /// Splits `sizes` into pieces of at most `cap` leaves, groups them
    /// greedily (fill the array, run a group for all `pq` output
    /// pixels, move on) and sums the groups' costs.
    fn group_loop(
        &self,
        sizes: Vec<usize>,
        spans: &[VnRange],
        cap: usize,
        fault_plan: Option<&FaultPlan>,
        costs: &[GroupCost],
        pq: f64,
    ) -> Result<TileCost> {
        // Each piece remembers its fold factor: a piece covering 1/f of
        // a slice also only touches ~1/f of the filter rows per step.
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
        let chubby = self.cfg.collection_chubby();
        let mut solo = SoloLoads::new(*chubby.tree(), fault_plan);
        let mut tile = TileCost::default();
        let mut idx = 0usize;
        let mut ranges = Vec::new();
        while idx < pieces.len() {
            ranges.clear();
            let mut cursor = SpanCursor::new(spans);
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
                max_folds = max_folds.max(folds);
                idx += 1;
            }
            debug_assert!(!ranges.is_empty(), "one VN must always fit");
            // A lone VN on healthy leaves builds and never slows the ART.
            let slowdown = if ranges.len() == 1 {
                1.0
            } else {
                solo.group_slowdown(&chubby, &ranges)?
            };
            // One-time group startup (configure, ART fill, first
            // window); rows pipeline thereafter.
            let cost = &costs[max_folds - 1];
            tile.cycles += cost.startup as f64 + pq * cost.steady.max(slowdown);
            tile.groups += 1;
            tile.input_reads += cost.input_reads;
        }
        Ok(tile)
    }
}

/// What a group costs apart from its ART slowdown, which is fixed by
/// how many times its widest piece folds.
#[derive(Debug)]
struct GroupCost {
    /// Input words each output step fetches.
    step_inputs: u64,
    /// Cycles per output step before the ART's slowdown: the step's
    /// input delivery at the distribution bandwidth, and at least 1.
    steady: f64,
    /// One-time startup cycles: configure, ART fill, first window.
    startup: u64,
    /// Input words the group reads over all output rows.
    input_reads: u64,
}

/// A tile's cycles before the weight load, its group count and its
/// input reads: the sums over its groups.
#[derive(Debug, Default)]
struct TileCost {
    cycles: f64,
    groups: u64,
    input_reads: u64,
}

/// The cost of a tile whose every group holds one piece, from its VN
/// count per fold count, bit for bit what the group loop sums; `None`
/// when that is not certain.
///
/// Every group term `startup + P·Q·max(step / bw, 1)` is a multiple of
/// `1/bw` (the distribution bandwidth `bw` is a power of two, the
/// startup an integer), so the total is an integer count of `1/bw`
/// units. Below 2^53 units every term and partial sum of the loop is
/// exact in `f64`, in any order, and equals this count over `bw`.
fn closed_form(
    costs: &[GroupCost],
    vns_by_folds: &[u64],
    p: u64,
    q: u64,
    bw: usize,
) -> Option<TileCost> {
    let bw = bw as u64;
    debug_assert!(bw.is_power_of_two(), "bandwidth {bw}");
    let pq = p.checked_mul(q)?;
    let mut units = 0u64;
    let mut tile = TileCost::default();
    for ((folds, &vns), cost) in (1u64..).zip(vns_by_folds).zip(costs) {
        let pieces = vns * folds;
        let per_piece = (cost.startup.checked_mul(bw)?)
            .checked_add(pq.checked_mul(cost.step_inputs.max(bw))?)?;
        units = units.checked_add(pieces.checked_mul(per_piece)?)?;
        tile.groups += pieces;
        tile.input_reads += pieces * cost.input_reads;
    }
    (units < 1 << f64::MANTISSA_DIGITS).then(|| TileCost {
        cycles: units as f64 / bw as f64,
        ..tile
    })
}

#[cfg(test)]
thread_local! {
    /// Runs on this thread costed in closed form, and runs that grouped
    /// their pieces one by one.
    static PATHS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
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
    /// exactly. Also returns the number of distinct size sequences of
    /// its multi-piece groups.
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
            if group.len() > 1 {
                distinct.insert(group.clone());
            }
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
    fn run_matches_reference_over_a_thousand_distinct_groups() {
        // Over a thousand groups of about a dozen varied pieces, nearly
        // every one distinct, summed through one table whose group
        // stamps must keep each group's sums apart.
        let l = ConvLayer::new("evict", 128, 3, 3, 160, 3, 3, 1, 1);
        let mask = WeightMask::generate(&l, 0.5, &mut SimRng::seed(8));
        let healthy = SparseConvMapper::new(
            MaeriConfig::builder(64)
                .collection_bandwidth(4)
                .build()
                .unwrap(),
        );
        let (want, distinct) = reference_run(&healthy, &l, &mask, 1);
        assert!(distinct > 1024, "only {distinct} distinct groups");
        assert!(want.is_ok());
        let (got, fallbacks) = run_counting_fallbacks(&healthy, &l, &mask, 1);
        assert_eq!(got, want);
        assert_eq!(fallbacks, (0, 0), "a healthy fabric fell back");

        // On this faulty fabric a later group's ART configuration is
        // illegal: its error must come back after the groups before it.
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

    /// `m.run(layer, mask, ct)`, and whether it was costed in closed
    /// form (`Some(true)`), by the group loop (`Some(false)`), or took
    /// neither (an error or a layer with no surviving weight).
    fn run_noting_path(
        m: &SparseConvMapper,
        layer: &ConvLayer,
        mask: &WeightMask,
        ct: usize,
    ) -> (Result<RunStats>, Option<bool>) {
        let paths = || PATHS.with(std::cell::Cell::get);
        let before = paths();
        let run = m.run(layer, mask, ct);
        let after = paths();
        let path = match (after.0 - before.0, after.1 - before.1) {
            (0, 0) => None,
            (1, 0) => Some(true),
            (0, 1) => Some(false),
            counts => panic!("one run took {counts:?} paths"),
        };
        (run, path)
    }

    #[test]
    fn run_matches_reference_on_both_paths_over_random_cases() {
        let mut rng = SimRng::seed(26);
        // Runs costed in closed form, by the group loop, and runs that
        // failed.
        let mut outcomes = [0usize; 3];
        for case in 0..200 {
            let leaves = [16, 32, 64, 128][rng.next_below(4)];
            let seed = rng.next_below(1 << 16) as u64;
            let faults = match rng.next_below(3) {
                0 => None,
                1 => Some(FaultSpec::new(seed).dead_multipliers(rng.next_below(301) as u16)),
                _ => Some(FaultSpec::new(seed).dead_forwarding_links(rng.next_below(1001) as u16)),
            };
            let mut fabric = MaeriConfig::builder(leaves)
                .distribution_bandwidth(1 << rng.next_below(4))
                .collection_bandwidth(1 << rng.next_below(4));
            if let Some(spec) = faults {
                fabric = fabric.faults(spec);
            }
            let cfg = fabric.build().unwrap();
            let kernel = 1 + rng.next_below(5);
            let channels = 1 + rng.next_below(24);
            let hw = kernel + rng.next_below(6);
            let layer = ConvLayer::new(
                &format!("rand{case}"),
                channels,
                hw,
                hw,
                1 + rng.next_below(24),
                kernel,
                kernel,
                1 + rng.next_below(2),
                kernel / 2,
            );
            let zero_fraction = rng.next_below(101) as f64 / 100.0;
            let mask = WeightMask::generate(&layer, zero_fraction, &mut rng);
            // Large tiles make large VNs, which the closed form needs.
            let ct = 1 + rng.next_below(channels).max(rng.next_below(channels));
            let m = SparseConvMapper::new(cfg);
            let case = format!(
                "case {case}: {layer}, {zero_fraction} zeros, tile {ct}, {leaves} leaves, \
                 bandwidths {}/{}, {faults:?}",
                cfg.dist_bandwidth(),
                cfg.collect_bandwidth()
            );
            let (want, _) = reference_run(&m, &layer, &mask, ct);
            let (got, path) = run_noting_path(&m, &layer, &mask, ct);
            assert_eq!(got, want, "{case}");
            match (path, &got) {
                (Some(closed), Ok(_)) => outcomes[usize::from(!closed)] += 1,
                (_, Err(_)) => outcomes[2] += 1,
                (None, Ok(run)) => assert_eq!(run.macs, 0, "{case}: no path taken"),
            }
        }
        // Only multi-piece groups on severed links fail, so failures are
        // the rarest outcome.
        assert!(
            outcomes[0] >= 20 && outcomes[1] >= 20 && outcomes[2] > 0,
            "closed form, group loop, failed: {outcomes:?}"
        );
    }

    #[test]
    fn closed_form_takes_the_loop_past_exact_f64_sums() {
        // 2^24 x 2^24 output pixels: each one-piece group costs about
        // 3 * 2^48 cycles at distribution bandwidth 1, so 8 filters
        // stay below 2^53 and 16 pass it.
        let m = SparseConvMapper::new(
            MaeriConfig::builder(16)
                .distribution_bandwidth(1)
                .collection_bandwidth(1)
                .build()
                .unwrap(),
        );
        for (filters, closed) in [(8, true), (16, false)] {
            let l = ConvLayer::new("huge", 1, 1 << 24, 1 << 24, filters, 3, 3, 1, 1);
            let mask = WeightMask::dense(&l);
            let (want, _) = reference_run(&m, &l, &mask, 1);
            assert!(want.is_ok(), "{filters} filters: {want:?}");
            let (got, path) = run_noting_path(&m, &l, &mask, 1);
            assert_eq!(got, want, "{filters} filters");
            assert_eq!(path, Some(closed), "{filters} filters");
        }
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in words {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn every_vgg16_c8_tile_matches_its_golden_digest() {
        // The sparse mapping search's layer, mask and fabric. Its report
        // prints only the frontier, so this digest of every channel
        // tile's cycles, MACs, SRAM reads and groups, recorded before
        // the closed form existed, also pins the tiles it leaves out.
        let layer = maeri_dnn::zoo::vgg16_c8();
        let mask = WeightMask::generate(&layer, 0.6, &mut SimRng::seed(42));
        let m = SparseConvMapper::new(MaeriConfig::paper_64());
        let mut paths = [0usize; 2];
        let mut words = Vec::new();
        for ct in 1..=layer.in_channels {
            let (run, path) = run_noting_path(&m, &layer, &mask, ct);
            let run = run.unwrap();
            paths[usize::from(path == Some(false))] += 1;
            let groups = run.extra.get("groups");
            words.extend([run.cycles.as_u64(), run.macs, run.sram_reads, groups]);
        }
        assert_eq!(fnv1a(words), 0xde5c_40fc_5401_8263);
        assert!(
            paths.iter().all(|&n| n > 0),
            "closed form, group loop: {paths:?}"
        );
    }

    #[test]
    fn figure13_runs_match_their_golden_digest() {
        // Figure 13's twelve MAERI runs: VGG16-C8 at tile 3 with 0-50%
        // zeros, each on the 1x fabric and on the 0.25x one, whose
        // thinner collection tree gives its groups slowdowns above 1.
        // The digest of their cycles, MACs, SRAM reads and groups was
        // recorded before the sums skipped the links inside one VN.
        let layer = maeri_dnn::zoo::vgg16_c8();
        let quarter = MaeriConfig::builder(64)
            .distribution_bandwidth(2)
            .collection_bandwidth(2)
            .build()
            .unwrap();
        let fabrics = [MaeriConfig::paper_64(), quarter].map(SparseConvMapper::new);
        let mut words = Vec::new();
        for pct in [0u32, 10, 20, 30, 40, 50] {
            let zero_fraction = f64::from(pct) / 100.0;
            let mask = WeightMask::generate(&layer, zero_fraction, &mut SimRng::seed(42));
            for m in &fabrics {
                let run = m.run(&layer, &mask, 3).unwrap();
                let groups = run.extra.get("groups");
                words.extend([run.cycles.as_u64(), run.macs, run.sram_reads, groups]);
            }
        }
        assert_eq!(fnv1a(words), 0xff6b_a4c0_0560_3206);
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
