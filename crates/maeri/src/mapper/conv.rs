//! CONV layer mapping (Section 4.2) with folding (Section 4.8).
//!
//! # Mapping model
//!
//! A dense virtual neuron covers `R * S * ct` weights: `ct` channels of
//! one filter ("channel tile"). The controller packs as many VNs as fit
//! over the `N` multiplier switches; each VN is assigned one
//! `(filter, output row, channel segment)` work unit at a time and
//! produces `Q` partial sums (one per output column) by sliding the
//! window with the leaf forwarding links.
//!
//! Folding: when `C > ct`, a filter needs `ceil(C / ct)` channel
//! *segments*; when a single segment still exceeds `N`, it is split
//! `subfold` ways. Partial sums accumulate in the adder-switch temporal
//! registers across fold passes (Section 6.3), so folding costs extra
//! passes but no extra SRAM psum traffic.
//!
//! # Cycle model (per iteration)
//!
//! ```text
//! 1 (configuration)
//! + ART fill (log2 N)
//! + first-window input fill   ceil(rows * S_cols * ct / dist_bw)
//! + (Q - 1) steady steps      max(1, ceil(new_inputs / dist_bw), slowdown)
//! ```
//!
//! plus the one-time weight distribution for every `(filter, segment)`
//! (each weight enters the fabric exactly once, weight-stationary).

use maeri_dnn::ConvLayer;
use maeri_sim::util::ceil_div;
use maeri_sim::{Cycle, Result, SimError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use super::{knob_in_range, span_capacity, ArtSource, FabricArts, PlanError};
use crate::art::{packed_count, ArtConfig, VnRange};
use crate::engine::RunStats;
use crate::MaeriConfig;

/// Where folded partial sums accumulate (Section 4.8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FoldMode {
    /// Temporal registers inside the adder switches accumulate across
    /// fold passes (Section 6.3's mapping) — no extra SRAM traffic.
    #[default]
    AdderRegister,
    /// Each fold pass sends its partial sums to the prefetch buffer and
    /// reads them back for the next pass (Section 4.8's description) —
    /// cheaper switches, more SRAM traffic and collection bandwidth.
    PbRoundTrip,
}

/// Order in which output work units are tiled over the simultaneous
/// VNs within one iteration.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum LoopOrder {
    /// Lanes take distinct filters first (maximal input multicast:
    /// every lane shares one sliding window), spilling to further
    /// output rows only when there are more lanes than filters.
    #[default]
    FilterMajor,
    /// Lanes take distinct output rows first: each lane slides its own
    /// window, so per-step fresh-input traffic grows with the lane
    /// count instead of `ceil(lanes / K)`.
    RowMajor,
}

impl LoopOrder {
    /// Distinct output rows simultaneously resident across `num_vns`
    /// VNs: [`LoopOrder::FilterMajor`] packs distinct filters first
    /// (`ceil(num_vns / K)` rows), [`LoopOrder::RowMajor`] gives every
    /// lane its own row (up to the `P` rows that exist).
    #[must_use]
    pub fn row_groups(self, num_vns: usize, layer: &ConvLayer) -> u64 {
        match self {
            LoopOrder::FilterMajor => ceil_div(num_vns as u64, layer.out_channels as u64),
            LoopOrder::RowMajor => (num_vns as u64).min(layer.out_h() as u64),
        }
    }
}

/// An explicit CONV mapping point: every knob the mapping-space search
/// (`maeri-mapspace`) enumerates. [`ConvMapper::heuristic_mapping`]
/// resolves the [`VnPolicy::Auto`] heuristic to one of these, making
/// the legacy mapper a named point in the same space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConvMapping {
    /// Channels covered per VN (`1..=C`).
    pub channel_tile: usize,
    /// Replication cap: at most this many VNs are mapped
    /// simultaneously (the packer may place fewer when the healthy
    /// leaves run out). Use `num_mult_switches` for "as many as fit".
    pub max_vns: usize,
    /// How work units tile over the simultaneous VNs.
    pub loop_order: LoopOrder,
}

/// How to size virtual neurons for a CONV layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum VnPolicy {
    /// One VN covers a whole 3-D filter (`R*S*C`), folding if needed.
    FullFilter,
    /// One VN covers `R*S*ct` weights (a channel tile of `ct` channels).
    ChannelsPerVn(usize),
    /// Choose the channel tile that maximizes multiplier coverage,
    /// breaking ties toward fewer fold passes.
    Auto,
    /// A fully explicit mapping point (channel tile, replication cap,
    /// loop order) — the form the auto-tuner searches over.
    Explicit(ConvMapping),
}

/// A CONV channel tile's part of a [`ConvShape`] on given healthy spans:
/// everything the replication cap and the loop order leave alone, and
/// the most VNs of the tile that pack. VNs of one size pack left to
/// right and stop at the first that fits nowhere, so a cap of `c` maps
/// `min(c, packed)` of them, and every cap at or above `packed` gives
/// the tile one shape per loop order. [`ConvMapper::tile_shape`] packs
/// once per tile; [`TileShape::with_cap`] is arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileShape {
    /// Channels covered per VN.
    pub channel_tile: usize,
    /// Leaves per VN after any sub-folding.
    pub vn_size: usize,
    /// Channel segments per filter (`ceil(C / ct)`).
    pub segments: usize,
    /// Extra folds when one segment exceeds the array (`>= 1`).
    pub subfold: usize,
    /// The most VNs of `vn_size` the spans hold: [`packed_count`] of
    /// all the healthy budget allows (`>= 1`).
    pub packed: usize,
    /// Work units: one per (filter, output row, segment, subfold pass).
    row_units: u64,
}

impl TileShape {
    /// The tile's shape under a replication cap of `max_vns` (`>= 1`)
    /// VNs and `loop_order`.
    #[must_use]
    pub fn with_cap(&self, max_vns: usize, loop_order: LoopOrder) -> ConvShape {
        let num_vns = self.packed.min(max_vns).max(1);
        ConvShape {
            vn_size: self.vn_size,
            num_vns,
            channel_tile: self.channel_tile,
            segments: self.segments,
            subfold: self.subfold,
            iterations: ceil_div(self.row_units, num_vns as u64),
            loop_order,
        }
    }
}

/// A CONV mapping's shape: everything [`ConvMapper::plan`] decides
/// before it asks for the ART of `num_vns` VNs of `vn_size`, its
/// channel tile's [`TileShape`] under one replication cap and loop
/// order. The shape holds no ranges: the packer places the VNs only
/// where an ART is built ([`ArtSource::art`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvShape {
    /// Leaves per VN after any sub-folding.
    pub vn_size: usize,
    /// VNs mapped simultaneously.
    pub num_vns: usize,
    /// Channels covered per VN.
    pub channel_tile: usize,
    /// Channel segments per filter (`ceil(C / ct)`).
    pub segments: usize,
    /// Extra folds when one segment exceeds the array (`>= 1`).
    pub subfold: usize,
    /// Iterations over the whole layer.
    pub iterations: u64,
    /// How work units tile over the simultaneous VNs.
    pub loop_order: LoopOrder,
}

impl ConvShape {
    /// This shape's plan, with the ART of its packing from `arts`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Partition`] when the ART refuses the packing.
    pub fn into_plan(self, arts: &mut impl ArtSource) -> Result<ConvPlan, PlanError> {
        Ok(ConvPlan {
            vn_size: self.vn_size,
            num_vns: self.num_vns,
            channel_tile: self.channel_tile,
            segments: self.segments,
            subfold: self.subfold,
            iterations: self.iterations,
            loop_order: self.loop_order,
            art: arts.art(self.vn_size, self.num_vns)?,
        })
    }
}

/// A planned CONV mapping: a [`ConvShape`] with its ART built.
#[derive(Debug, Clone)]
pub struct ConvPlan {
    /// Leaves per VN after any sub-folding.
    pub vn_size: usize,
    /// VNs mapped simultaneously.
    pub num_vns: usize,
    /// Channels covered per VN.
    pub channel_tile: usize,
    /// Channel segments per filter (`ceil(C / ct)`).
    pub segments: usize,
    /// Extra folds when one segment exceeds the array (`>= 1`).
    pub subfold: usize,
    /// Iterations over the whole layer.
    pub iterations: u64,
    /// How work units tile over the simultaneous VNs.
    pub loop_order: LoopOrder,
    /// The ART configuration of one iteration. Plans that ask one
    /// [`ArtSource`] for the same packing may share it.
    pub art: Arc<ArtConfig>,
}

impl ConvPlan {
    /// The plan's shape: every field but the ART, which
    /// [`ConvShape::into_plan`] asks an [`ArtSource`] for again.
    #[must_use]
    pub fn shape(&self) -> ConvShape {
        ConvShape {
            vn_size: self.vn_size,
            num_vns: self.num_vns,
            channel_tile: self.channel_tile,
            segments: self.segments,
            subfold: self.subfold,
            iterations: self.iterations,
            loop_order: self.loop_order,
        }
    }

    /// Total fold factor (`segments * subfold`).
    #[must_use]
    pub fn fold_factor(&self) -> usize {
        self.segments * self.subfold
    }

    /// [`LoopOrder::row_groups`] of the mapped VNs.
    #[must_use]
    pub fn row_groups(&self, layer: &ConvLayer) -> u64 {
        self.loop_order.row_groups(self.num_vns, layer)
    }

    /// Input rows a steady-state window slide touches, clamped to the
    /// padded input height (the fabric can never need more rows than
    /// the image has).
    #[must_use]
    pub fn rows_touched(&self, layer: &ConvLayer) -> u64 {
        let stride = layer.stride as u64;
        let rows_piece = ceil_div(layer.kernel_h as u64, self.subfold as u64);
        (self.row_groups(layer) * stride + rows_piece.saturating_sub(stride.min(rows_piece)))
            .min(layer.in_h as u64 + 2 * layer.pad as u64)
    }

    /// Input words of a row's first window: every touched row across
    /// the kernel's `S` columns, for each of the tile's channels.
    fn fill_inputs(&self, layer: &ConvLayer) -> u64 {
        self.rows_touched(layer) * layer.kernel_w as u64 * self.channel_tile as u64
    }

    /// Fresh (unique) input words per steady-state output step, shared
    /// across all lanes by multicast. Both the closed-form cost model
    /// and the clocked trace in [`crate::cycle_sim`] derive their input
    /// traffic from this one definition, so they cannot drift apart.
    #[must_use]
    pub fn step_inputs(&self, layer: &ConvLayer) -> u64 {
        let cols_new = (layer.stride as u64).min(layer.kernel_w as u64);
        self.rows_touched(layer) * cols_new * self.channel_tile as u64
    }
}

/// Maps dense CONV layers onto a MAERI instance.
///
/// # Example
///
/// ```
/// use maeri::{ConvMapper, MaeriConfig, VnPolicy};
/// use maeri_dnn::ConvLayer;
///
/// let cfg = MaeriConfig::paper_64();
/// let layer = ConvLayer::new("vgg_like", 3, 8, 8, 4, 3, 3, 1, 1);
/// let run = ConvMapper::new(cfg).run(&layer, VnPolicy::Auto)?;
/// assert_eq!(run.macs, layer.macs());
/// assert!(run.utilization() > 0.5);
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ConvMapper {
    cfg: MaeriConfig,
}

impl ConvMapper {
    /// Creates a mapper over the given fabric.
    #[must_use]
    pub fn new(cfg: MaeriConfig) -> Self {
        ConvMapper { cfg }
    }

    /// Resolves a policy to a concrete channel tile on the healthy `spans`,
    /// or a [`PlanError::KnobOutOfRange`] for a zero or oversized explicit tile.
    fn channel_tile(
        &self,
        layer: &ConvLayer,
        policy: VnPolicy,
        spans: &[VnRange],
    ) -> Result<usize, PlanError> {
        match policy {
            VnPolicy::FullFilter => Ok(layer.in_channels),
            VnPolicy::ChannelsPerVn(ct)
            | VnPolicy::Explicit(ConvMapping {
                channel_tile: ct, ..
            }) => knob_in_range("channel_tile", ct, layer.in_channels),
            VnPolicy::Auto => {
                // Score every tile by the cycle model's estimated
                // utilization: wide tiles maximize multiplier coverage
                // but inflate per-step input bandwidth (all `ct`
                // channels refresh every window slide), so the best
                // tile balances both. On a faulty fabric, tiles are
                // sized against the largest healthy span (`cap`) and
                // the total healthy budget instead of the full array.
                let Ok((cap, budget)) = span_capacity(spans) else {
                    // Nothing maps; let plan() report the error.
                    return Ok(1);
                };
                let mut best = (1usize, f64::MIN);
                for ct in 1..=layer.in_channels {
                    let score = self.estimate_utilization(layer, ct, cap as u64, budget as u64);
                    if score > best.1 + 1e-12 {
                        best = (ct, score);
                    }
                }
                Ok(best.0)
            }
        }
    }

    /// Closed-form utilization estimate of a channel tile, mirroring
    /// [`Self::cost`] without building an ART (collection contention is
    /// approximated as `num_vns / collect_bandwidth`). `cap` is the
    /// largest contiguous healthy span and `budget` the total healthy
    /// leaf count — both equal to `N` on a fault-free fabric.
    fn estimate_utilization(&self, layer: &ConvLayer, ct: usize, cap: u64, budget: u64) -> f64 {
        let n = self.cfg.num_mult_switches() as u64;
        let rs = (layer.kernel_h * layer.kernel_w) as u64;
        let vn_weights = rs * ct as u64;
        let subfold = ceil_div(vn_weights, cap);
        let vn_size = ceil_div(vn_weights, subfold);
        let num_vns = (budget / vn_size).max(1);
        let segments = ceil_div(layer.in_channels as u64, ct as u64);
        let row_units = layer.out_channels as u64 * layer.out_h() as u64 * segments * subfold;
        let iterations = ceil_div(row_units, num_vns);
        let q = layer.out_w() as u64;
        let stride = layer.stride as u64;
        let row_groups = LoopOrder::FilterMajor.row_groups(num_vns as usize, layer);
        let rows_piece = ceil_div(layer.kernel_h as u64, subfold);
        let rows_touched = row_groups * stride + rows_piece.saturating_sub(stride.min(rows_piece));
        let cols_new = stride.min(layer.kernel_w as u64);
        let step_inputs = rows_touched * cols_new * ct as u64;
        let bw = self.cfg.dist_bandwidth() as u64;
        let steady = (step_inputs as f64 / bw as f64)
            .max(1.0)
            .max(num_vns as f64 / self.cfg.collect_bandwidth() as f64);
        let cycles = iterations as f64 * q as f64 * steady
            + ceil_div(layer.weight_count() as u64, bw) as f64;
        layer.macs() as f64 / (n as f64 * cycles)
    }

    /// The per-tile part of [`Self::shape`] on the healthy `spans`: the
    /// policy's channel tile, its VN size and folds, and the most VNs
    /// that pack, which [`packed_count`] counts once for every cap.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NothingMappable`] on a fully faulty fabric
    /// and [`PlanError::KnobOutOfRange`] for a bad channel tile.
    pub fn tile_shape(
        &self,
        layer: &ConvLayer,
        policy: VnPolicy,
        spans: &[VnRange],
    ) -> Result<TileShape, PlanError> {
        let (cap, budget) = span_capacity(spans)?;
        let ct = self.channel_tile(layer, policy, spans)?;
        let vn_weights = layer.kernel_h * layer.kernel_w * ct;
        let subfold = ceil_div(vn_weights as u64, cap as u64) as usize;
        let vn_size = ceil_div(vn_weights as u64, subfold as u64) as usize;
        let segments = ceil_div(layer.in_channels as u64, ct as u64) as usize;
        // Fragmentation may shrink the VN count below the healthy
        // budget's ideal; at least one VN always fits in the largest
        // span because vn_size <= cap.
        let packed = packed_count(spans, vn_size, budget / vn_size);
        debug_assert!(packed > 0, "vn_size <= cap must fit");
        Ok(TileShape {
            channel_tile: ct,
            vn_size,
            segments,
            subfold,
            packed,
            row_units: layer.out_channels as u64
                * layer.out_h() as u64
                * (segments * subfold) as u64,
        })
    }

    /// Plans the mapping on the healthy `spans` up to its ART: every field
    /// of [`Self::plan`] but the ART. It is [`Self::tile_shape`] under the
    /// policy's replication cap and loop order ([`TileShape::with_cap`]),
    /// so the VN count is what [`packed_count`] places of the VNs the
    /// budget and replication cap allow.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NothingMappable`] on a fully faulty fabric
    /// and [`PlanError::KnobOutOfRange`] for a bad channel tile or a
    /// zero `max_vns`.
    pub fn shape(
        &self,
        layer: &ConvLayer,
        policy: VnPolicy,
        spans: &[VnRange],
    ) -> Result<ConvShape, PlanError> {
        let tile = self.tile_shape(layer, policy, spans)?;
        let (max_vns, loop_order) = match policy {
            VnPolicy::Explicit(m) => {
                if m.max_vns == 0 {
                    return Err(PlanError::KnobOutOfRange {
                        knob: "max_vns",
                        value: 0,
                        min: 1,
                        max: self.cfg.num_mult_switches(),
                    });
                }
                (m.max_vns, m.loop_order)
            }
            _ => (usize::MAX, LoopOrder::FilterMajor),
        };
        Ok(tile.with_cap(max_vns, loop_order))
    }

    /// Plans the mapping without computing costs: [`Self::shape`], then
    /// the ART of its packed VNs, on one materialized fault plan.
    ///
    /// # Errors
    ///
    /// As [`Self::shape`], and [`PlanError::Partition`] when the ART
    /// refuses the packing.
    pub fn plan(&self, layer: &ConvLayer, policy: VnPolicy) -> Result<ConvPlan, PlanError> {
        let mut arts = FabricArts::new(&self.cfg);
        self.shape(layer, policy, arts.spans())?
            .into_plan(&mut arts)
    }

    /// Resolves the legacy [`VnPolicy::Auto`] heuristic to its explicit
    /// [`ConvMapping`] point: the utilization-scored channel tile,
    /// unlimited replication, filter-major tiling. This is the "named
    /// point" the mapping-space search compares every candidate
    /// against.
    ///
    /// # Errors
    ///
    /// Propagates policy-resolution failures.
    pub fn heuristic_mapping(&self, layer: &ConvLayer) -> Result<ConvMapping> {
        Ok(ConvMapping {
            channel_tile: self.channel_tile(layer, VnPolicy::Auto, &self.cfg.healthy_spans())?,
            max_vns: self.cfg.num_mult_switches(),
            loop_order: LoopOrder::FilterMajor,
        })
    }

    /// Plans and costs a dense CONV layer run with adder-register
    /// folding (the paper's Section 6.3 mapping).
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn run(&self, layer: &ConvLayer, policy: VnPolicy) -> Result<RunStats> {
        self.run_with_fold_mode(layer, policy, FoldMode::AdderRegister)
    }

    /// Plans and costs a dense CONV layer run under an explicit folding
    /// mode (Section 4.8).
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn run_with_fold_mode(
        &self,
        layer: &ConvLayer,
        policy: VnPolicy,
        fold_mode: FoldMode,
    ) -> Result<RunStats> {
        let plan = self.plan(layer, policy)?;
        let mut run = self.cost(layer, &plan);
        if fold_mode == FoldMode::PbRoundTrip && plan.fold_factor() > 1 {
            // Every non-final fold pass emits its psums to the PB and
            // reads them back: two extra SRAM ops per output per extra
            // pass, moving over the collection/distribution trees.
            let passes = plan.fold_factor() as u64 - 1;
            let psum_words = layer.output_count() as u64 * passes;
            run.sram_writes += psum_words;
            run.sram_reads += psum_words;
            let extra_cycles = ceil_div(psum_words, self.cfg.collect_bandwidth() as u64)
                + ceil_div(psum_words, self.cfg.dist_bandwidth() as u64);
            run.cycles += Cycle::new(extra_cycles);
            run.extra.add("psum_roundtrip_words", 2 * psum_words);
        }
        Ok(run)
    }

    /// Costs a batch of `batch` images through the same layer: the
    /// stationary weights are distributed once and every image reuses
    /// them, so per-image cost drops toward the pure streaming rate —
    /// the throughput mode an inference server runs.
    ///
    /// # Errors
    ///
    /// Propagates planning errors and rejects a zero-sized batch.
    pub fn run_batch(&self, layer: &ConvLayer, policy: VnPolicy, batch: u64) -> Result<RunStats> {
        if batch == 0 {
            return Err(SimError::invalid_config("batch must be at least one image"));
        }
        let plan = self.plan(layer, policy)?;
        let one = self.cost(layer, &plan);
        let dist = self.cfg.distributor();
        let weight_cycles = dist.multicast_cycles(layer.weight_count() as u64).as_u64();
        let per_image_stream = one.cycles.as_u64().saturating_sub(weight_cycles);
        let mut run = RunStats::new(
            &format!("{}xB{}", layer.name, batch),
            self.cfg.num_mult_switches(),
            maeri_sim::Cycle::new(weight_cycles + per_image_stream * batch),
            one.macs * batch,
        );
        run.sram_reads =
            layer.weight_count() as u64 + (one.sram_reads - layer.weight_count() as u64) * batch;
        run.sram_writes = one.sram_writes * batch;
        run.extra.merge(&one.extra);
        run.extra.add("batch", batch);
        Ok(run)
    }

    /// The cycles of [`Self::cost`] without its traffic and counters:
    /// what the mapping search ranks a plan by.
    #[must_use]
    pub fn cycles(&self, layer: &ConvLayer, plan: &ConvPlan) -> u64 {
        let dist = self.cfg.distributor();
        let q = layer.out_w() as u64;

        // Per-step unique input values (new window columns), shared
        // with the clocked trace via the plan (a folded VN holds only
        // `ceil(R / subfold)` filter rows per pass, and the loop order
        // sets how many distinct rows are live at once).
        let step_inputs = plan.step_inputs(layer);
        let fill_inputs = plan.fill_inputs(layer);

        let slowdown = plan.art.throughput_slowdown();
        // Steady-state step rate, fractional: distribution amortizes
        // over steps (e.g. 9 words over an 8-wide root sustains one
        // step per 1.125 cycles, not one per 2).
        let steady = (step_inputs as f64 / dist.bandwidth() as f64)
            .max(1.0)
            .max(slowdown);
        // The VN structure is constant for the whole layer, and the
        // next row's window fill overlaps the current row's tail
        // (double-buffered MS FIFOs), so configuration, ART fill and
        // the first-window fill are one-time startup costs.
        let startup = 1 + self.cfg.art_depth() as u64 + dist.multicast_cycles(fill_inputs).as_u64();
        let per_iter = q as f64 * steady;

        // Weight distribution: every weight enters once (stationary).
        let weight_cycles = dist.multicast_cycles(layer.weight_count() as u64).as_u64();

        (plan.iterations as f64 * per_iter).ceil() as u64 + startup + weight_cycles
    }

    /// Applies the cycle model to a plan from [`ConvMapper::plan`]:
    /// [`Self::cycles`], with the SRAM traffic and the plan's counters.
    #[must_use]
    pub fn cost(&self, layer: &ConvLayer, plan: &ConvPlan) -> RunStats {
        let n = self.cfg.num_mult_switches();
        let q = layer.out_w() as u64;
        let total_cycles = self.cycles(layer, plan);

        // SRAM traffic: weights once; inputs per iteration (fill +
        // steady steps); outputs once.
        let inputs_per_iter =
            plan.fill_inputs(layer) + q.saturating_sub(1) * plan.step_inputs(layer);
        let sram_reads = layer.weight_count() as u64 + plan.iterations * inputs_per_iter;
        let sram_writes = layer.output_count() as u64;

        let mut run = RunStats::new(&layer.name, n, Cycle::new(total_cycles), layer.macs());
        run.sram_reads = sram_reads;
        run.sram_writes = sram_writes;
        run.extra.add("iterations", plan.iterations);
        run.extra.add("vn_size", plan.vn_size as u64);
        run.extra.add("num_vns", plan.num_vns as u64);
        run.extra.add("fold_factor", plan.fold_factor() as u64);
        run.extra.add(
            "slowdown_x100",
            (plan.art.throughput_slowdown() * 100.0).round() as u64,
        );
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> ConvMapper {
        ConvMapper::new(MaeriConfig::paper_64())
    }

    fn vgg_like() -> ConvLayer {
        ConvLayer::new("vgg_c8", 256, 28, 28, 512, 3, 3, 1, 1)
    }

    #[test]
    fn auto_policy_prefers_high_coverage_for_3x3() {
        // 3x3 filters on 64 MSes: near-full coverage is available
        // (e.g. seven VNs of 9 = 63 busy switches). Auto must keep
        // coverage at >= 63/64 without exploding input bandwidth.
        let plan = mapper().plan(&vgg_like(), VnPolicy::Auto).unwrap();
        assert!(plan.vn_size * plan.num_vns >= 63);
        // And the chosen tile must stay input-bandwidth friendly.
        let run = mapper().run(&vgg_like(), VnPolicy::Auto).unwrap();
        assert!(run.utilization() > 0.5, "util {}", run.utilization());
    }

    #[test]
    fn alexnet_c1_requires_folding() {
        // 11x11 filters: a single channel slice (121 weights) exceeds
        // 64 multipliers, forcing temporal folding (Section 6.1).
        let c1 = ConvLayer::new("alexnet_conv1", 3, 224, 224, 96, 11, 11, 4, 2);
        let plan = mapper().plan(&c1, VnPolicy::ChannelsPerVn(1)).unwrap();
        assert!(plan.subfold >= 2);
        assert_eq!(plan.segments, 3);
        assert!(plan.fold_factor() >= 6);
    }

    #[test]
    fn full_filter_policy_counts_all_channels() {
        let plan = mapper().plan(&vgg_like(), VnPolicy::FullFilter).unwrap();
        assert_eq!(plan.channel_tile, 256);
        assert_eq!(plan.segments, 1);
        // 3*3*256 = 2304 weights fold over 64 leaves.
        assert_eq!(plan.subfold, 36);
        assert_eq!(plan.vn_size, 64);
    }

    #[test]
    fn run_reports_all_macs() {
        let layer = ConvLayer::new("small", 3, 8, 8, 4, 3, 3, 1, 1);
        let run = mapper().run(&layer, VnPolicy::Auto).unwrap();
        assert_eq!(run.macs, layer.macs());
        assert!(run.cycles.as_u64() > 0);
        assert!(run.utilization() > 0.0 && run.utilization() <= 1.0);
        assert!(run.sram_reads > layer.weight_count() as u64);
        assert_eq!(run.sram_writes, layer.output_count() as u64);
    }

    #[test]
    fn vgg_utilization_beats_alexnet_c1() {
        // Figure 12's qualitative claim: 3x3 VGG layers utilize MAERI
        // better than AlexNet's 11x11 C1.
        let c1 = ConvLayer::new("alexnet_conv1", 3, 224, 224, 96, 11, 11, 4, 2);
        let vgg = vgg_like();
        let m = mapper();
        let u_c1 = m.run(&c1, VnPolicy::Auto).unwrap().utilization();
        let u_vgg = m.run(&vgg, VnPolicy::Auto).unwrap().utilization();
        assert!(u_vgg > u_c1, "vgg {u_vgg} should beat alexnet c1 {u_c1}");
        assert!(u_vgg > 0.8, "vgg utilization {u_vgg}");
    }

    #[test]
    fn explicit_channel_tile_respected() {
        let plan = mapper()
            .plan(&vgg_like(), VnPolicy::ChannelsPerVn(3))
            .unwrap();
        assert_eq!(plan.channel_tile, 3);
        assert_eq!(plan.vn_size, 27);
        assert_eq!(plan.num_vns, 2);
    }

    #[test]
    fn invalid_channel_tile_rejected() {
        let m = mapper();
        assert!(m.plan(&vgg_like(), VnPolicy::ChannelsPerVn(0)).is_err());
        assert!(m.plan(&vgg_like(), VnPolicy::ChannelsPerVn(1000)).is_err());
    }

    #[test]
    fn iterations_cover_all_work() {
        let layer = vgg_like();
        let plan = mapper().plan(&layer, VnPolicy::ChannelsPerVn(3)).unwrap();
        let row_units =
            layer.out_channels as u64 * layer.out_h() as u64 * plan.fold_factor() as u64;
        assert_eq!(plan.iterations, ceil_div(row_units, plan.num_vns as u64));
    }

    #[test]
    fn batching_amortizes_weight_distribution() {
        let layer = ConvLayer::new("batchy", 3, 8, 8, 32, 3, 3, 1, 1);
        let m = mapper();
        let one = m.run_batch(&layer, VnPolicy::Auto, 1).unwrap();
        let single = m.run(&layer, VnPolicy::Auto).unwrap();
        assert_eq!(one.cycles, single.cycles);
        let sixteen = m.run_batch(&layer, VnPolicy::Auto, 16).unwrap();
        assert_eq!(sixteen.macs, 16 * single.macs);
        // Weights counted once: per-image cycles strictly below the
        // single-image run.
        let per_image = sixteen.cycles.as_f64() / 16.0;
        assert!(per_image < single.cycles.as_f64());
        // Weight words appear once in the batch's reads.
        let stream_reads = single.sram_reads - layer.weight_count() as u64;
        assert_eq!(
            sixteen.sram_reads,
            layer.weight_count() as u64 + 16 * stream_reads
        );
        assert!(m.run_batch(&layer, VnPolicy::Auto, 0).is_err());
    }

    #[test]
    fn pb_roundtrip_folding_costs_traffic_and_cycles() {
        // VGG C8 folds heavily; PB round-trips must add psum traffic.
        let layer = vgg_like();
        let m = mapper();
        let reg = m
            .run_with_fold_mode(&layer, VnPolicy::ChannelsPerVn(3), FoldMode::AdderRegister)
            .unwrap();
        let pb = m
            .run_with_fold_mode(&layer, VnPolicy::ChannelsPerVn(3), FoldMode::PbRoundTrip)
            .unwrap();
        assert!(pb.cycles > reg.cycles);
        assert!(pb.sram_writes > reg.sram_writes);
        assert!(pb.sram_reads > reg.sram_reads);
        assert_eq!(pb.macs, reg.macs);
        // An unfolded layer is unaffected by the mode.
        let small = ConvLayer::new("nofold", 3, 8, 8, 4, 3, 3, 1, 1);
        let plan = m.plan(&small, VnPolicy::Auto).unwrap();
        if plan.fold_factor() == 1 {
            let a = m
                .run_with_fold_mode(&small, VnPolicy::Auto, FoldMode::AdderRegister)
                .unwrap();
            let b = m
                .run_with_fold_mode(&small, VnPolicy::Auto, FoldMode::PbRoundTrip)
                .unwrap();
            assert_eq!(a.cycles, b.cycles);
        }
    }

    #[test]
    fn wider_distribution_is_never_slower() {
        let layer = vgg_like();
        let narrow = ConvMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(2)
                .build()
                .unwrap(),
        )
        .run(&layer, VnPolicy::Auto)
        .unwrap();
        let wide = ConvMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(16)
                .build()
                .unwrap(),
        )
        .run(&layer, VnPolicy::Auto)
        .unwrap();
        assert!(wide.cycles <= narrow.cycles);
    }

    /// The shape of `ct` channels per VN under the cap `max_vns`, as
    /// `shape` computed it before the per-tile split: the VNs
    /// `pack_vns_into_spans` places of the `want` the healthy budget and
    /// the cap allow.
    fn packed_shape(
        layer: &ConvLayer,
        spans: &[VnRange],
        ct: usize,
        max_vns: usize,
        loop_order: LoopOrder,
    ) -> ConvShape {
        let (cap, budget) = span_capacity(spans).unwrap();
        let vn_weights = layer.kernel_h * layer.kernel_w * ct;
        let subfold = vn_weights.div_ceil(cap);
        let vn_size = vn_weights.div_ceil(subfold);
        let want = (budget / vn_size).min(max_vns).max(1);
        let (ranges, _) = crate::art::pack_vns_into_spans(spans, &vec![vn_size; want]);
        let segments = layer.in_channels.div_ceil(ct);
        let row_units = layer.out_channels * layer.out_h() * segments * subfold;
        ConvShape {
            vn_size,
            num_vns: ranges.len(),
            channel_tile: ct,
            segments,
            subfold,
            iterations: row_units.div_ceil(ranges.len()) as u64,
            loop_order,
        }
    }

    #[test]
    fn a_tile_shape_under_every_cap_equals_packing_the_capped_vns() {
        use crate::fault::FaultSpec;
        use maeri_sim::SimRng;
        // Seeded layers on fabrics of 16-128 leaves, healthy in a quarter
        // of the cases and otherwise with dead multipliers (every one in
        // a tenth of those), dead adders and severed links. For every
        // channel tile from 0 to one past the layer's channels, every
        // replication cap from 1 to the multiplier count and both loop
        // orders, the tile's shape under the cap, and `shape`, equal
        // packing the capped VNs; a tile the mapper refuses is refused
        // alike under every cap.
        let mut rng = SimRng::seed(37);
        let (mut saturated, mut fragmented, mut refused) = (0, 0, 0);
        for case in 0..60 {
            let leaves = 16 << rng.next_below(4);
            let mut builder = MaeriConfig::builder(leaves);
            if case % 4 != 0 {
                let dead = if case % 10 == 1 {
                    1000
                } else {
                    rng.next_below(400)
                };
                let spec = FaultSpec::new(rng.next_below(1 << 16) as u64)
                    .dead_multipliers(dead as u16)
                    .dead_adders(rng.next_below(100) as u16)
                    .dead_forwarding_links(rng.next_below(1001) as u16);
                builder = builder.faults(spec);
            }
            let cfg = builder.build().unwrap();
            let kernel = 1 + rng.next_below(5);
            let side = kernel + rng.next_below(8);
            let layer = ConvLayer::new(
                "tile",
                1 + rng.next_below(12),
                side,
                side,
                1 + rng.next_below(16),
                kernel,
                kernel,
                1 + rng.next_below(2),
                rng.next_below(2),
            );
            let mapper = ConvMapper::new(cfg);
            let spans = cfg.healthy_spans();
            let what = |ct| {
                format!(
                    "case {case}: {leaves} leaves, {:?}, {layer:?}, ct {ct}",
                    cfg.faults()
                )
            };
            for ct in 0..=layer.in_channels + 1 {
                let tile = mapper.tile_shape(&layer, VnPolicy::ChannelsPerVn(ct), &spans);
                if let Ok(tile) = &tile {
                    let budget: usize = spans.iter().map(|s| s.len).sum();
                    fragmented += usize::from(tile.packed < budget / tile.vn_size);
                }
                for max_vns in 1..=leaves {
                    for loop_order in [LoopOrder::FilterMajor, LoopOrder::RowMajor] {
                        let mapping = ConvMapping {
                            channel_tile: ct,
                            max_vns,
                            loop_order,
                        };
                        let shape = mapper.shape(&layer, VnPolicy::Explicit(mapping), &spans);
                        let Ok(tile) = &tile else {
                            assert_eq!(shape.err(), tile.clone().err(), "{}", what(ct));
                            refused += 1;
                            continue;
                        };
                        let want = packed_shape(&layer, &spans, ct, max_vns, loop_order);
                        let got = tile.with_cap(max_vns, loop_order);
                        assert_eq!(got, want, "{}, cap {max_vns}", what(ct));
                        assert_eq!(shape, Ok(got), "{}, cap {max_vns}", what(ct));
                        saturated += usize::from(max_vns > tile.packed);
                    }
                }
            }
        }
        assert!(
            saturated > 0 && fragmented > 0 && refused > 0,
            "{saturated} saturated caps, {fragmented} fragmented tiles, {refused} refusals"
        );
    }

    #[test]
    fn stride_reduces_input_reuse() {
        // With stride 2 a step fetches twice the columns of stride 1.
        let s1 = ConvLayer::new("s1", 3, 16, 16, 8, 3, 3, 1, 1);
        let s2 = ConvLayer::new("s2", 3, 16, 16, 8, 3, 3, 2, 1);
        let m = mapper();
        let r1 = m.run(&s1, VnPolicy::Auto).unwrap();
        let r2 = m.run(&s2, VnPolicy::Auto).unwrap();
        // Per-output input traffic is higher for stride 2.
        let per_out1 = r1.sram_reads as f64 / s1.output_count() as f64;
        let per_out2 = r2.sram_reads as f64 / s2.output_count() as f64;
        assert!(per_out2 > per_out1);
    }
}
