//! POOL mapping (Section 4.4).
//!
//! A pooling output is a max-reduction over a `w x w` window: MAERI maps
//! it as a VN of `w*w` multiplier switches (passing values through) with
//! the adder switches configured as comparators. The cost model mirrors
//! the CONV mapper, except pooling windows rarely overlap (stride is
//! typically `w` or `w - 1`), so nearly every input is fetched fresh.

use maeri_dnn::PoolLayer;
use maeri_sim::util::ceil_div;
use maeri_sim::{Cycle, Result};

use super::{PlanError, VectorPlan};
use crate::engine::RunStats;
use crate::MaeriConfig;

/// Maps max-pool layers onto a MAERI instance.
///
/// # Example
///
/// ```
/// use maeri::{MaeriConfig, PoolMapper};
/// use maeri_dnn::PoolLayer;
///
/// let layer = PoolLayer::new("pool1", 16, 8, 8, 2, 2);
/// let run = PoolMapper::new(MaeriConfig::paper_64()).run(&layer)?;
/// assert_eq!(run.macs, layer.comparisons());
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PoolMapper {
    cfg: MaeriConfig,
}

impl PoolMapper {
    /// Creates a mapper over the given fabric.
    #[must_use]
    pub fn new(cfg: MaeriConfig) -> Self {
        PoolMapper { cfg }
    }

    /// Plans a max-pool layer: one VN per `w x w` window, folding a
    /// window beyond the largest healthy span (AS registers keep
    /// running maxima just as they keep partial sums).
    ///
    /// # Errors
    ///
    /// Returns the [`VectorPlan::new`] refusal.
    pub fn plan(&self, layer: &PoolLayer) -> Result<VectorPlan, PlanError> {
        let window = layer.window * layer.window;
        let vn_size = VectorPlan::heuristic_vn_size(&self.cfg, window)?;
        VectorPlan::new(&self.cfg, window, vn_size, "vn_size")
    }

    /// Costs a max-pool layer run on [`PoolMapper::plan`]'s plan.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn run(&self, layer: &PoolLayer) -> Result<RunStats> {
        let n = self.cfg.num_mult_switches();
        let dist = self.cfg.distributor();
        let plan = self.plan(layer)?;
        let (fold, vn_size, num_vns) = (plan.fold as u64, plan.vn_size, plan.art.vns().len());
        let slowdown = plan.art.throughput_slowdown();

        let outputs = (layer.channels * layer.out_h() * layer.out_w()) as u64;
        let units = outputs * fold;
        let iterations = ceil_div(units, num_vns as u64);
        // Fresh inputs per lane per output: the sliding overlap is
        // `w - stride` columns.
        let new_cols = layer.stride.min(layer.window) as u64;
        let inputs_per_lane = layer.window as u64 * new_cols;
        let per_iter = (dist
            .multicast_cycles(inputs_per_lane * num_vns as u64)
            .as_u64() as f64)
            .max(1.0)
            .max(slowdown);
        let cycles = 1 + self.cfg.art_depth() as u64 + (iterations as f64 * per_iter).ceil() as u64;

        let mut run = RunStats::new(&layer.name, n, Cycle::new(cycles), layer.comparisons());
        run.sram_reads = units * inputs_per_lane;
        run.sram_writes = outputs;
        run.extra.add("pool_iterations", iterations);
        run.extra.add("vn_size", vn_size as u64);
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> PoolMapper {
        PoolMapper::new(MaeriConfig::paper_64())
    }

    #[test]
    fn alexnet_pool_runs() {
        let layer = PoolLayer::new("pool1", 96, 55, 55, 3, 2);
        let run = mapper().run(&layer).unwrap();
        assert_eq!(run.macs, layer.comparisons());
        assert!(run.cycles.as_u64() > 0);
        assert_eq!(run.sram_writes, (96 * layer.out_h() * layer.out_w()) as u64);
    }

    #[test]
    fn vn_size_matches_window() {
        let layer = PoolLayer::new("p", 4, 8, 8, 3, 2);
        let run = mapper().run(&layer).unwrap();
        assert_eq!(run.extra.get("vn_size"), 9);
    }

    #[test]
    fn giant_window_folds() {
        // 16x16 window = 256 values over 64 switches: 4-way fold.
        let layer = PoolLayer::new("global", 2, 16, 16, 16, 16);
        let run = mapper().run(&layer).unwrap();
        assert!(run.cycles.as_u64() > 0);
        assert_eq!(run.macs, layer.comparisons());
    }

    #[test]
    fn pooling_is_input_bandwidth_bound() {
        let layer = PoolLayer::new("p", 64, 32, 32, 2, 2);
        let narrow = PoolMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(2)
                .build()
                .unwrap(),
        )
        .run(&layer)
        .unwrap();
        let wide = mapper().run(&layer).unwrap();
        assert!(narrow.cycles > wide.cycles);
    }
}
