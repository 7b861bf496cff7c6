//! Fully-connected mapping (Section 4.5, Figure 10).
//!
//! An FC neuron consumes every input, so its VN spans as many multiplier
//! switches as the input length — in the extreme, the whole ART computes
//! one neuron, folding when the input vector exceeds the array. FC
//! weights are used exactly once (no reuse), so the layer is weight-
//! bandwidth bound, like the LSTM gate phase.

use maeri_dnn::FcLayer;
use maeri_sim::util::ceil_div;
use maeri_sim::{Cycle, Result};

use super::{ArtSource, FabricArts, PlanError, VectorPlan};
use crate::engine::RunStats;
use crate::MaeriConfig;

/// Maps fully-connected layers onto a MAERI instance.
///
/// # Example
///
/// ```
/// use maeri::{FcMapper, MaeriConfig};
/// use maeri_dnn::FcLayer;
///
/// let layer = FcLayer::new("fc", 256, 10);
/// let run = FcMapper::new(MaeriConfig::paper_64()).run(&layer)?;
/// assert_eq!(run.macs, layer.macs());
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FcMapper {
    cfg: MaeriConfig,
}

impl FcMapper {
    /// Creates a mapper over the given fabric.
    #[must_use]
    pub fn new(cfg: MaeriConfig) -> Self {
        FcMapper { cfg }
    }

    /// Costs an FC layer run with the heuristic VN size (the largest
    /// healthy span, i.e. minimal folding).
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn run(&self, layer: &FcLayer) -> Result<RunStats> {
        self.run_with_vn_size(layer, self.heuristic_vn_size(layer)?)
    }

    /// The VN size [`FcMapper::run`] resolves to — the heuristic's
    /// named point in the mapping space.
    ///
    /// # Errors
    ///
    /// Propagates span-capacity failures.
    pub fn heuristic_vn_size(&self, layer: &FcLayer) -> Result<usize> {
        Ok(VectorPlan::heuristic_vn_size(&self.cfg, layer.inputs)?)
    }

    /// Plans an FC layer with an explicit VN-size target: each neuron's
    /// dot product folds `ceil(inputs / vn_size)` ways, so the effective
    /// (balanced) VN may be slightly smaller than requested. This is
    /// the knob the mapping-space search sweeps.
    ///
    /// # Errors
    ///
    /// Returns the [`VectorPlan::new`] refusal for knob `vn_size`.
    pub fn plan(&self, layer: &FcLayer, vn_size: usize) -> Result<VectorPlan, PlanError> {
        Self::plan_with(&mut FabricArts::new(&self.cfg), layer, vn_size)
    }

    /// [`FcMapper::plan`] on the spans and ARTs of `arts`.
    ///
    /// # Errors
    ///
    /// Returns the [`VectorPlan::over`] refusal for knob `vn_size`.
    pub fn plan_with(
        arts: &mut impl ArtSource,
        layer: &FcLayer,
        vn_size: usize,
    ) -> Result<VectorPlan, PlanError> {
        VectorPlan::over(arts, layer.inputs, vn_size, "vn_size")
    }

    /// Costs an FC layer run on [`FcMapper::plan`]'s plan for
    /// `vn_size`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unmappable`](maeri_sim::SimError::Unmappable)
    /// when [`FcMapper::plan`] refuses `vn_size`.
    pub fn run_with_vn_size(&self, layer: &FcLayer, vn_size: usize) -> Result<RunStats> {
        Ok(self.cost(layer, &self.plan(layer, vn_size)?))
    }

    /// The FC cost model over a folded-vector plan from
    /// [`FcMapper::plan`].
    #[must_use]
    pub fn cost(&self, layer: &FcLayer, plan: &VectorPlan) -> RunStats {
        let n = self.cfg.num_mult_switches();
        let dist = self.cfg.distributor();
        let d = layer.inputs as u64;
        let (fold, vn_size, num_vns) = (plan.fold as u64, plan.vn_size, plan.art.vns().len());
        let slowdown = plan.art.throughput_slowdown();

        let units = layer.outputs as u64 * fold;
        let iterations = ceil_div(units, num_vns as u64);
        // Weights are unique per neuron; inputs are multicast and reused
        // by every neuron, so each x-segment is charged once.
        let weights_per_iter = (num_vns * vn_size) as u64;
        let per_iter = (dist.multicast_cycles(weights_per_iter).as_u64() as f64)
            .max(1.0)
            .max(slowdown);
        // One multicast of each of the `fold` x-segments.
        let input_cycles = fold * dist.multicast_cycles(vn_size as u64).as_u64();
        let cycles = 1
            + self.cfg.art_depth() as u64
            + input_cycles
            + (iterations as f64 * per_iter).ceil() as u64;

        let mut run = RunStats::new(&layer.name, n, Cycle::new(cycles), layer.macs());
        run.sram_reads = layer.macs() + d; // every weight once + inputs
        run.sram_writes = layer.outputs as u64;
        run.extra.add("fc_iterations", iterations);
        run.extra.add("fc_fold", fold);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> FcMapper {
        FcMapper::new(MaeriConfig::paper_64())
    }

    #[test]
    fn small_fc_runs() {
        let layer = FcLayer::new("fc", 32, 8);
        let run = mapper().run(&layer).unwrap();
        assert_eq!(run.macs, 256);
        assert!(run.cycles.as_u64() > 0);
    }

    #[test]
    fn alexnet_fc6_folds_144_ways() {
        let layer = FcLayer::new("fc6", 9216, 4096);
        let run = mapper().run(&layer).unwrap();
        assert_eq!(run.extra.get("fc_fold"), 144);
        assert_eq!(run.macs, layer.macs());
    }

    #[test]
    fn fc_is_weight_bandwidth_bound() {
        // The dominant term is weights/bandwidth: cycles scale ~1/bw.
        let layer = FcLayer::new("fc7", 4096, 4096);
        let narrow = FcMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(2)
                .build()
                .unwrap(),
        )
        .run(&layer)
        .unwrap();
        let wide = mapper().run(&layer).unwrap();
        let ratio = narrow.cycles.as_f64() / wide.cycles.as_f64();
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn sram_reads_count_every_weight_once() {
        let layer = FcLayer::new("fc", 128, 16);
        let run = mapper().run(&layer).unwrap();
        assert_eq!(run.sram_reads, 128 * 16 + 128);
        assert_eq!(run.sram_writes, 16);
    }
}
