//! LSTM mapping (Section 4.3, Figure 9).
//!
//! An LSTM time step runs in two phases on MAERI:
//!
//! 1. **Gates + input transform** (steps 1-2): for every hidden neuron,
//!    four dot products over the concatenated `[x; h_prev]` vector.
//!    VNs are sized to the vector length (folding if it exceeds the
//!    array); the input vector is *multicast* to every lane while each
//!    lane streams its own weights — LSTMs are weight-bandwidth bound.
//! 2. **State + output** (steps 3-4): the VNs are *reconstructed* much
//!    smaller — two multipliers for `s = f*s_prev + i*t` and one for
//!    `h = o * tanh(s)` — exactly the reconfiguration flexibility the
//!    paper highlights.

use maeri_dnn::LstmLayer;
use maeri_sim::util::ceil_div;
use maeri_sim::{Cycle, Result};
use maeri_telemetry::{NullSink, TraceSink};

use super::{ArtSource, FabricArts, PlanError, VectorPlan};
use crate::engine::RunStats;
use crate::MaeriConfig;

/// Maps LSTM layers onto a MAERI instance.
///
/// # Example
///
/// ```
/// use maeri::{LstmMapper, MaeriConfig};
/// use maeri_dnn::LstmLayer;
///
/// let layer = LstmLayer::new("rnn", 64, 32);
/// let run = LstmMapper::new(MaeriConfig::paper_64()).run(&layer)?;
/// assert_eq!(run.macs, layer.gate_macs() + layer.state_macs());
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LstmMapper {
    cfg: MaeriConfig,
}

impl LstmMapper {
    /// Creates a mapper over the given fabric.
    #[must_use]
    pub fn new(cfg: MaeriConfig) -> Self {
        LstmMapper { cfg }
    }

    /// Costs one LSTM time step (both phases).
    ///
    /// # Errors
    ///
    /// Propagates ART construction failures.
    pub fn run(&self, layer: &LstmLayer) -> Result<RunStats> {
        self.run_probed(layer, &mut NullSink)
    }

    /// [`LstmMapper::run`] with probes: both phases report their ART
    /// configurations and closed-form distribution deliveries to
    /// `sink`. `run` itself is this function with a [`NullSink`], so
    /// the unprobed path is structurally identical.
    ///
    /// # Errors
    ///
    /// Propagates ART construction failures.
    pub fn run_probed<S: TraceSink>(&self, layer: &LstmLayer, sink: &mut S) -> Result<RunStats> {
        let mut run = self.run_gate_phase_probed(layer, sink)?;
        let state = self.run_state_phase_probed(layer, sink)?;
        run.absorb(&state);
        run.label.clone_from(&layer.name);
        Ok(run)
    }

    /// Costs a whole sequence of `time_steps` LSTM steps.
    ///
    /// Within one step the four gate matrices stream through the fabric
    /// once; across steps the *same* matrices stream again (they exceed
    /// any on-fabric storage), but the one-time configuration and fill
    /// amortize, and the state/output phase reuses its reconstructed
    /// VN shape without re-configuring. The paper's Figure 9 walks one
    /// step; real RNN inference runs hundreds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`](maeri_sim::SimError) for a zero-length
    /// sequence and propagates ART construction failures.
    pub fn run_sequence(&self, layer: &LstmLayer, time_steps: u64) -> Result<RunStats> {
        if time_steps == 0 {
            return Err(maeri_sim::SimError::invalid_config(
                "sequence needs at least one time step",
            ));
        }
        let gates = self.run_gate_phase(layer)?;
        let state = self.run_state_phase(layer)?;
        // Per-step startup (config + ART fill) is paid once; the
        // steady-state portion repeats every step.
        let startup = 2 * (1 + self.cfg.art_depth() as u64);
        let steady_per_step =
            (gates.cycles.as_u64() + state.cycles.as_u64()).saturating_sub(startup);
        let mut run = RunStats::new(
            &format!("{}x{}", layer.name, time_steps),
            self.cfg.num_mult_switches(),
            Cycle::new(startup + steady_per_step * time_steps),
            (layer.gate_macs() + layer.state_macs()) * time_steps,
        );
        run.sram_reads = (gates.sram_reads + state.sram_reads) * time_steps;
        run.sram_writes = (gates.sram_writes + state.sram_writes) * time_steps;
        run.extra.add("time_steps", time_steps);
        Ok(run)
    }

    /// Phase 1: gate values and input transform (4H dot products of
    /// length `input_dim + hidden_dim`).
    ///
    /// # Errors
    ///
    /// Propagates ART construction failures.
    pub fn run_gate_phase(&self, layer: &LstmLayer) -> Result<RunStats> {
        self.run_gate_phase_probed(layer, &mut NullSink)
    }

    /// [`LstmMapper::run_gate_phase`] with telemetry probes.
    ///
    /// # Errors
    ///
    /// Propagates ART construction failures.
    pub fn run_gate_phase_probed<S: TraceSink>(
        &self,
        layer: &LstmLayer,
        sink: &mut S,
    ) -> Result<RunStats> {
        let plan = Self::gate_plan(&self.cfg, layer, self.heuristic_gate_vn_size(layer)?)?;
        Ok(self.gate_cost(layer, &plan, sink))
    }

    /// The gate-phase VN size [`LstmMapper::run`] resolves to — the
    /// heuristic's named point in the mapping space.
    ///
    /// # Errors
    ///
    /// Propagates span-capacity failures.
    pub fn heuristic_gate_vn_size(&self, layer: &LstmLayer) -> Result<usize> {
        Ok(VectorPlan::heuristic_vn_size(
            &self.cfg,
            layer.input_dim + layer.hidden_dim,
        )?)
    }

    /// The gate-phase plan: the `4H` gate dot products over `[x; h]`
    /// fold into VNs of the `gate_vn_size` target.
    ///
    /// # Errors
    ///
    /// Returns the [`VectorPlan::new`] refusal for knob `gate_vn_size`.
    pub fn gate_plan(
        cfg: &MaeriConfig,
        layer: &LstmLayer,
        vn_size: usize,
    ) -> Result<VectorPlan, PlanError> {
        Self::gate_plan_with(&mut FabricArts::new(cfg), layer, vn_size)
    }

    /// [`LstmMapper::gate_plan`] on the spans and ARTs of `arts`.
    ///
    /// # Errors
    ///
    /// Returns the [`VectorPlan::over`] refusal for knob `gate_vn_size`.
    pub fn gate_plan_with(
        arts: &mut impl ArtSource,
        layer: &LstmLayer,
        vn_size: usize,
    ) -> Result<VectorPlan, PlanError> {
        let d = layer.input_dim + layer.hidden_dim;
        VectorPlan::over(arts, d, vn_size, "gate_vn_size")
    }

    /// The state-phase plan: two-switch VNs for `f*s_prev + i*t`
    /// (knob `state_vn_size`, fixed at 2).
    ///
    /// # Errors
    ///
    /// Returns the [`VectorPlan::new`] refusal, e.g. when no two
    /// adjacent multiplier switches are healthy.
    pub fn state_plan(cfg: &MaeriConfig) -> Result<VectorPlan, PlanError> {
        Self::state_plan_with(&mut FabricArts::new(cfg))
    }

    /// [`LstmMapper::state_plan`] on the spans and ARTs of `arts`.
    ///
    /// # Errors
    ///
    /// As [`LstmMapper::state_plan`].
    pub fn state_plan_with(arts: &mut impl ArtSource) -> Result<VectorPlan, PlanError> {
        VectorPlan::over(arts, 2, 2, "state_vn_size")
    }

    /// Costs one LSTM time step with an explicit gate-phase VN-size
    /// target (the state phase keeps its fixed two-wide VNs). Each
    /// gate dot product folds `ceil((input_dim + hidden_dim) /
    /// vn_size)` ways. This is the knob the mapping-space search
    /// sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`](maeri_sim::SimError) when the gate or state
    /// plan is refused ([`LstmMapper::gate_plan`],
    /// [`LstmMapper::state_plan`]).
    pub fn run_with_gate_vn_size(&self, layer: &LstmLayer, vn_size: usize) -> Result<RunStats> {
        let mut arts = FabricArts::new(&self.cfg);
        let gate = Self::gate_plan_with(&mut arts, layer, vn_size)?;
        Ok(self.cost(layer, &gate, &Self::state_plan_with(&mut arts)?))
    }

    /// Costs one LSTM time step over its two plans: `gate` from
    /// [`LstmMapper::gate_plan`] and `state` from
    /// [`LstmMapper::state_plan`].
    #[must_use]
    pub fn cost(&self, layer: &LstmLayer, gate: &VectorPlan, state: &VectorPlan) -> RunStats {
        let mut run = self.gate_cost(layer, gate, &mut NullSink);
        run.absorb(&self.state_cost(layer, state, &mut NullSink));
        run.label.clone_from(&layer.name);
        run
    }

    /// The gate-phase cost model over a folded-vector plan.
    fn gate_cost<S: TraceSink>(
        &self,
        layer: &LstmLayer,
        plan: &VectorPlan,
        sink: &mut S,
    ) -> RunStats {
        let n = self.cfg.num_mult_switches();
        let dist = self.cfg.distributor();
        let d = (layer.input_dim + layer.hidden_dim) as u64;
        let (fold, vn_size, num_vns) = (plan.fold as u64, plan.vn_size, plan.art.vns().len());
        plan.art.probe_configuration(sink);
        let slowdown = plan.art.throughput_slowdown();

        // 4 gates x H neurons, each needing `fold` passes.
        let units = 4 * layer.hidden_dim as u64 * fold;
        let iterations = ceil_div(units, num_vns as u64);
        // Per iteration: each lane loads its own weight slice (distinct)
        // while the shared input slice is multicast once. The input
        // vector is reused across all four gates (the paper merges
        // steps 1 and 2), so it is charged once per `fold` segment.
        let weights_per_iter = (num_vns * vn_size) as u64;
        let weight_cycles = dist
            .multicast_cycles_probed(weights_per_iter, sink)
            .as_u64();
        let per_iter = (weight_cycles as f64).max(1.0).max(slowdown);
        let input_rounds = fold; // one multicast of each x-segment
        let input_cycles: u64 = (0..input_rounds)
            .map(|_| dist.multicast_cycles_probed(vn_size as u64, sink).as_u64())
            .sum();
        let cycles = 1
            + self.cfg.art_depth() as u64
            + input_cycles
            + (iterations as f64 * per_iter).ceil() as u64;

        let mut run = RunStats::new(
            &format!("{}:gates", layer.name),
            n,
            Cycle::new(cycles),
            layer.gate_macs(),
        );
        run.sram_reads = 4 * layer.hidden_dim as u64 * d + d;
        run.sram_writes = 4 * layer.hidden_dim as u64; // f, i, o, t per neuron
        run.extra.add("gate_iterations", iterations);
        run.extra.add("gate_fold", fold);
        run
    }

    /// Phase 2: state (`s = f*s_prev + i*t`) and output
    /// (`h = o * tanh(s)`) with reconstructed, tiny VNs.
    ///
    /// # Errors
    ///
    /// Propagates ART construction failures.
    pub fn run_state_phase(&self, layer: &LstmLayer) -> Result<RunStats> {
        self.run_state_phase_probed(layer, &mut NullSink)
    }

    /// [`LstmMapper::run_state_phase`] with telemetry probes.
    ///
    /// # Errors
    ///
    /// Propagates [`LstmMapper::state_plan`] refusals.
    pub fn run_state_phase_probed<S: TraceSink>(
        &self,
        layer: &LstmLayer,
        sink: &mut S,
    ) -> Result<RunStats> {
        Ok(self.state_cost(layer, &Self::state_plan(&self.cfg)?, sink))
    }

    /// The state-phase cost model over [`LstmMapper::state_plan`]'s plan:
    /// VNs of two multipliers, carved from healthy spans.
    fn state_cost<S: TraceSink>(
        &self,
        layer: &LstmLayer,
        plan: &VectorPlan,
        sink: &mut S,
    ) -> RunStats {
        let n = self.cfg.num_mult_switches();
        let dist = self.cfg.distributor();
        let h = layer.hidden_dim as u64;
        let state_vns = plan.art.vns().len();
        plan.art.probe_configuration(sink);
        let slowdown = plan.art.throughput_slowdown();
        let state_iters = ceil_div(h, state_vns as u64);
        // Four operands per neuron: f, s_prev, i, t.
        let per_iter = (dist
            .multicast_cycles_probed(4 * state_vns.min(h as usize) as u64, sink)
            .as_u64() as f64)
            .max(1.0)
            .max(slowdown);
        let state_cycles =
            1 + self.cfg.art_depth() as u64 + (state_iters as f64 * per_iter).ceil() as u64;

        // Output: one multiply per neuron (o * tanh(s)); pure
        // distribution/collection bound over the healthy switches.
        let budget: usize = self.cfg.healthy_spans().iter().map(|s| s.len).sum();
        let out_iters = ceil_div(h, budget as u64);
        let out_lanes = budget.min(h as usize) as u64;
        let out_per_iter = (dist.multicast_cycles_probed(2 * out_lanes, sink).as_u64())
            .max(ceil_div(out_lanes, self.cfg.collect_bandwidth() as u64))
            .max(1);
        let out_cycles = 1 + out_iters * out_per_iter;

        let mut run = RunStats::new(
            &format!("{}:state", layer.name),
            n,
            Cycle::new(state_cycles + out_cycles),
            layer.state_macs(),
        );
        run.sram_reads = 4 * h + 2 * h; // state operands + output operands
        run.sram_writes = 2 * h; // s and h per neuron
        run.extra.add("state_iterations", state_iters);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> LstmMapper {
        LstmMapper::new(MaeriConfig::paper_64())
    }

    #[test]
    fn small_lstm_runs() {
        let layer = LstmLayer::new("l", 16, 16);
        let run = mapper().run(&layer).unwrap();
        assert_eq!(run.macs, layer.gate_macs() + layer.state_macs());
        assert!(run.cycles.as_u64() > 0);
        assert!(run.utilization() > 0.0 && run.utilization() <= 1.0);
    }

    #[test]
    fn long_vectors_fold() {
        // input+hidden = 2560 over 64 multipliers: 40-way folding.
        let layer = LstmLayer::new("ds2", 1280, 1280);
        let run = mapper().run_gate_phase(&layer).unwrap();
        assert_eq!(run.extra.get("gate_fold"), 40);
        assert_eq!(run.macs, layer.gate_macs());
    }

    #[test]
    fn gates_dominate_state_phase() {
        // Gate math is O(H*D); state math is O(H): the paper
        // reconstructs VNs precisely because phase 2 is tiny.
        let layer = LstmLayer::new("l", 256, 256);
        let m = mapper();
        let gates = m.run_gate_phase(&layer).unwrap();
        let state = m.run_state_phase(&layer).unwrap();
        assert!(gates.cycles.as_u64() > 10 * state.cycles.as_u64());
    }

    #[test]
    fn lstm_is_weight_bandwidth_bound() {
        // Doubling distribution bandwidth should cut gate-phase cycles
        // nearly in half.
        let layer = LstmLayer::new("l", 512, 512);
        let narrow = LstmMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(4)
                .build()
                .unwrap(),
        )
        .run_gate_phase(&layer)
        .unwrap();
        let wide = LstmMapper::new(
            MaeriConfig::builder(64)
                .distribution_bandwidth(8)
                .build()
                .unwrap(),
        )
        .run_gate_phase(&layer)
        .unwrap();
        let ratio = narrow.cycles.as_f64() / wide.cycles.as_f64();
        assert!(ratio > 1.5, "ratio {ratio}");
    }

    #[test]
    fn sequence_amortizes_startup() {
        let layer = LstmLayer::new("seq", 64, 64);
        let m = mapper();
        let one = m.run_sequence(&layer, 1).unwrap();
        let hundred = m.run_sequence(&layer, 100).unwrap();
        // Per-step cost of the long sequence is at most the single
        // step's (startup amortized).
        let per_step_1 = one.cycles.as_f64();
        let per_step_100 = hundred.cycles.as_f64() / 100.0;
        assert!(per_step_100 <= per_step_1 + 1e-9);
        assert_eq!(hundred.macs, 100 * one.macs);
        assert_eq!(hundred.extra.get("time_steps"), 100);
    }

    #[test]
    fn sequence_rejects_zero_steps() {
        assert!(mapper()
            .run_sequence(&LstmLayer::new("z", 4, 4), 0)
            .is_err());
    }

    #[test]
    fn phases_absorb_into_total() {
        let layer = LstmLayer::new("l", 32, 32);
        let m = mapper();
        let total = m.run(&layer).unwrap();
        let gates = m.run_gate_phase(&layer).unwrap();
        let state = m.run_state_phase(&layer).unwrap();
        assert_eq!(
            total.cycles.as_u64(),
            gates.cycles.as_u64() + state.cycles.as_u64()
        );
        assert_eq!(total.label, "l");
    }
}
