//! Cycle-by-cycle trace simulation of one mapping iteration.
//!
//! The mappers in [`crate::mapper`] use closed-form bandwidth counting.
//! This module cross-validates them with an actual clocked simulation
//! of the fabric's steady state:
//!
//! * the prefetch buffer issues at most `dist_bandwidth` words per
//!   cycle (a multicast counts once), and each multiplier switch
//!   accepts at most one word per cycle into its FIFO,
//! * a virtual neuron fires a *reduction wave* in a cycle where every
//!   one of its multiplier switches has an input queued,
//! * waves ride the ART's pipeline (one stage per tree level) and leave
//!   through the root at up to `collect_bandwidth` outputs per cycle;
//!   a full collection queue back-pressures the waves, which in turn
//!   back-pressures distribution through the FIFOs.
//!
//! [`simulate_conv_iteration`] clocks one iteration of a CONV mapping
//! (a set of lanes each producing `steps` outputs) and reports where
//! the cycles went. Tests assert the trace agrees with the analytic
//! steady-state rate used by [`crate::mapper::conv::ConvMapper`].

use maeri_sim::{Cycle, Result, SimError, SimRng, Stats};
use maeri_telemetry::{FabricTelemetry, NullSink, TelemetrySink, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

use crate::art::{pack_vns_into_spans, ArtConfig};
use crate::mapper::{ConvMapper, ConvPlan, VnPolicy};
use crate::MaeriConfig;

/// Salt folded into the fault seed so the flit-loss stream is
/// independent of the stream that placed the dead switches.
const FLIT_STREAM_SALT: u64 = 0x464c_4954; // "FLIT"

/// Outcome of a clocked iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total cycles from first issue to last output collected.
    pub cycles: Cycle,
    /// Reduction waves completed (outputs per lane x lanes).
    pub waves_completed: u64,
    /// Cycles in which at least one lane fired a wave.
    pub busy_cycles: u64,
    /// Lane-cycles in which a lane sat idle waiting for inputs
    /// (distribution was the limiter).
    pub distribution_stall_cycles: u64,
    /// Lane-cycles in which a ready wave could not enter the ART
    /// because collection back-pressure filled the pipeline.
    pub collection_stall_cycles: u64,
    /// Event counters (words issued, queue highwater, ...).
    pub extra: Stats,
}

impl TraceStats {
    /// Average outputs per cycle across the run.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.cycles.rate(self.waves_completed as f64)
    }
}

/// One lane (virtual neuron) of the iteration being traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneSpec {
    /// Multiplier switches in the lane.
    pub vn_size: usize,
    /// Fresh input words the lane needs per output step (after
    /// forwarding-link reuse); the remaining operands come from its
    /// neighbors' forwards or stationary weights.
    pub fresh_inputs_per_step: usize,
}

/// Clocks one iteration: `lanes` virtual neurons, each producing
/// `steps` outputs, with `shared_inputs` of each step's fresh words
/// multicast to every lane (the overlap between lanes' windows).
///
/// # Errors
///
/// Returns [`SimError::Unmappable`] when the lanes do not fit the
/// fabric, and propagates ART construction failures.
pub fn simulate_conv_iteration(
    cfg: &MaeriConfig,
    lanes: &[LaneSpec],
    steps: u64,
    shared_inputs: usize,
) -> Result<TraceStats> {
    simulate_conv_iteration_probed(cfg, lanes, steps, shared_inputs, &mut NullSink)
}

/// [`simulate_conv_iteration`] with probes: every cycle reports what it
/// did to `sink` (words injected, flits dropped, waves started and
/// completed with their ART latency, per-lane stalls, the final cycle).
///
/// The probes are zero-cost when disabled: each site hands
/// [`TraceSink::emit`] a closure, and with [`NullSink`] (whose
/// [`ENABLED`](TraceSink::ENABLED) is `false`) the monomorphized loop
/// is the uninstrumented one — [`simulate_conv_iteration`] itself is
/// just this function with a `NullSink`.
///
/// # Errors
///
/// Same conditions as [`simulate_conv_iteration`].
pub fn simulate_conv_iteration_probed<S: TraceSink>(
    cfg: &MaeriConfig,
    lanes: &[LaneSpec],
    steps: u64,
    shared_inputs: usize,
    sink: &mut S,
) -> Result<TraceStats> {
    if lanes.is_empty() || steps == 0 {
        return Err(SimError::unmappable("nothing to simulate"));
    }
    for lane in lanes {
        cfg.validate_vn_size(lane.vn_size)?;
    }
    let total: usize = lanes.iter().map(|l| l.vn_size).sum();
    let n = cfg.num_mult_switches();
    if total > n {
        return Err(SimError::unmappable(format!(
            "lanes need {total} switches, fabric has {n}"
        )));
    }
    // Build the real ART configuration so the trace honors the same
    // structure the mapper verified; lanes land on healthy spans only.
    let fault_plan = cfg.fault_plan();
    let spans = cfg.healthy_spans_under(fault_plan.as_ref());
    let sizes: Vec<usize> = lanes.iter().map(|l| l.vn_size).collect();
    let (ranges, overflow) = pack_vns_into_spans(&spans, &sizes);
    if !overflow.is_empty() {
        return Err(SimError::unmappable(format!(
            "lanes need {total} switches on contiguous healthy spans, \
             only {} healthy switches remain",
            spans.iter().map(|s| s.len).sum::<usize>()
        )));
    }
    let art = ArtConfig::build_with_faults(cfg.collection_chubby(), &ranges, fault_plan.as_ref())?;
    clock_iteration(cfg, &art, lanes, steps, shared_inputs, sink)
}

/// The clocked loop of [`simulate_conv_iteration_probed`] over `art`,
/// the ART `lanes` pack to on `cfg`'s healthy spans: it announces the
/// ART to `sink`, then clocks the lanes until every wave is collected.
fn clock_iteration<S: TraceSink>(
    cfg: &MaeriConfig,
    art: &ArtConfig,
    lanes: &[LaneSpec],
    steps: u64,
    shared_inputs: usize,
    sink: &mut S,
) -> Result<TraceStats> {
    art.probe_configuration(sink);

    // Flit faults on the distribution tree: a seeded stream decides
    // which injections are lost (and retransmitted), and every
    // completed input set waits out the rerouting delay. With a quiet
    // or absent fault spec the RNG is never consulted, keeping the
    // clean trace bit-identical to the pre-fault model.
    let (flit_drop_p, flit_delay) = cfg.faults().map_or((0.0, 0u64), |spec| {
        (
            f64::from(spec.flit_drop_permille) / f64::from(crate::fault::PERMILLE),
            u64::from(spec.flit_delay_cycles),
        )
    });
    let mut flit_rng = cfg
        .faults()
        .map(|spec| SimRng::seed(spec.seed ^ FLIT_STREAM_SALT));

    // Per-lane distribution demand per step: unique words = shared
    // multicast words (counted once across all lanes) + private words.
    let shared = shared_inputs.min(
        lanes
            .iter()
            .map(|l| l.fresh_inputs_per_step)
            .min()
            .unwrap_or(0),
    );
    let private_per_lane: Vec<u64> = lanes
        .iter()
        .map(|l| (l.fresh_inputs_per_step - shared) as u64)
        .collect();

    let dist_bw = cfg.dist_bandwidth() as u64;
    let collect_bw = cfg.collect_bandwidth() as u64;
    let pipeline_depth = cfg.art_depth() as u64;

    // State: how many complete input *sets* each lane has buffered
    // (bounded by the MS FIFO depth), the words still owed for the set
    // currently in flight, the number of waves fired, and waves in
    // flight in the ART pipeline.
    let fifo_depth = cfg.ms_local_buffers() as u64;
    let mut buffered: Vec<u64> = vec![0; lanes.len()];
    let mut owed_shared: Vec<u64> = vec![0; lanes.len()];
    let mut owed_private: Vec<u64> = vec![0; lanes.len()];
    let mut set_open: Vec<bool> = vec![false; lanes.len()];
    let mut fired: Vec<u64> = vec![0; lanes.len()];
    let mut sets_delivered: Vec<u64> = vec![0; lanes.len()];
    // Waves riding the ART pipeline: (cycle entered, firing lane).
    let mut in_flight: std::collections::VecDeque<(u64, u32)> = std::collections::VecDeque::new();
    // Sets whose words arrived but whose rerouting delay has not yet
    // elapsed: (ready_cycle, lane).
    let mut pending: std::collections::VecDeque<(u64, usize)> = std::collections::VecDeque::new();
    let mut collected = 0u64;
    let target = steps * lanes.len() as u64;

    let mut stats = TraceStats {
        cycles: Cycle::ZERO,
        waves_completed: 0,
        busy_cycles: 0,
        distribution_stall_cycles: 0,
        collection_stall_cycles: 0,
        extra: Stats::new(),
    };
    let mut cycle = 0u64;
    // Event counts, added to `stats.extra` once the run ends.
    let (mut words_issued, mut flits_dropped) = (0u64, 0u64);
    // Generous bound: everything serialized through a 1-wide port,
    // inflated by twice the expected flit-retransmission factor plus
    // the full rerouting delay of every set.
    let serial = (target + 4)
        * (1 + shared as u64 + private_per_lane.iter().sum::<u64>() + pipeline_depth)
        + 1024;
    let drop_permille = cfg.faults().map_or(0, |s| u64::from(s.flit_drop_permille));
    let bound = serial * 2000 / (1000 - drop_permille) + flit_delay * (target + 4);
    while collected < target {
        cycle += 1;
        if cycle > bound {
            return Err(SimError::invalid_config(
                "trace simulation failed to converge (internal bound exceeded)",
            ));
        }

        // --- Collection: drain up to collect_bw finished waves whose
        // pipeline latency has elapsed.
        let mut drained = 0u64;
        while drained < collect_bw {
            match in_flight.front() {
                Some(&(entered, lane)) if cycle - entered >= pipeline_depth => {
                    in_flight.pop_front();
                    collected += 1;
                    drained += 1;
                    sink.emit(|| TraceEvent::VnReduceComplete {
                        cycle,
                        lane,
                        latency: cycle - entered,
                    });
                }
                _ => break,
            }
        }

        // --- Rerouted sets whose delay elapsed become buffered waves.
        while let Some(&(ready, lane)) = pending.front() {
            if ready > cycle {
                break;
            }
            pending.pop_front();
            buffered[lane] += 1;
        }

        // --- Distribution: issue up to dist_bw words, word-accurate.
        // A shared word is one injection that multicasts to every lane
        // with an open set still owing shared data; private words go to
        // one lane each, round-robin.
        let mut budget = dist_bw;
        let mut issued_this_cycle = 0u64;
        loop {
            // Open the next set in lockstep: the controller keeps
            // co-scheduled lanes on the same window step, so new sets
            // start only when no set is still in flight and every
            // eligible lane has FIFO room.
            let any_open = set_open.iter().any(|&open| open);
            let all_ready = (0..lanes.len()).all(|lane| {
                sets_delivered[lane] >= steps
                    || (buffered[lane] < fifo_depth
                        && sets_delivered[lane] - fired[lane] < fifo_depth)
            });
            if !any_open && all_ready {
                for lane in 0..lanes.len() {
                    if sets_delivered[lane] < steps {
                        set_open[lane] = true;
                        owed_shared[lane] = shared as u64;
                        owed_private[lane] = private_per_lane[lane];
                    }
                }
            }
            let before = budget;
            while budget > 0 {
                let wants_shared = (0..lanes.len()).any(|l| set_open[l] && owed_shared[l] > 0);
                let private_lane = if wants_shared {
                    None
                } else {
                    (0..lanes.len()).find(|&l| set_open[l] && owed_private[l] > 0)
                };
                if !wants_shared && private_lane.is_none() {
                    break;
                }
                // A lost flit burns the injection slot and is
                // retransmitted later (the owed counters stay put).
                if let Some(rng) = flit_rng.as_mut() {
                    if flit_drop_p > 0.0 && rng.next_bool(flit_drop_p) {
                        budget -= 1;
                        flits_dropped += 1;
                        sink.emit(|| TraceEvent::FlitDropped { cycle });
                        continue;
                    }
                }
                if wants_shared {
                    // One multicast word serves every lane still owed it.
                    for lane in 0..lanes.len() {
                        if set_open[lane] && owed_shared[lane] > 0 {
                            owed_shared[lane] -= 1;
                        }
                    }
                } else if let Some(lane) = private_lane {
                    owed_private[lane] -= 1;
                }
                budget -= 1;
                issued_this_cycle += 1;
            }
            // Sets whose words all arrived become buffered waves — or
            // wait out the rerouting delay on a degraded tree.
            let mut completed = false;
            for lane in 0..lanes.len() {
                if set_open[lane] && owed_shared[lane] == 0 && owed_private[lane] == 0 {
                    set_open[lane] = false;
                    sets_delivered[lane] += 1;
                    if flit_delay == 0 {
                        buffered[lane] += 1;
                    } else {
                        pending.push_back((cycle + flit_delay, lane));
                    }
                    completed = true;
                }
            }
            // Keep going while the budget moved or zero-cost sets can
            // still open; stop once the cycle's bandwidth is spent or
            // nothing progresses.
            if budget == 0 || (budget == before && !completed) {
                break;
            }
        }
        words_issued += issued_this_cycle;
        if issued_this_cycle > 0 {
            sink.emit(|| TraceEvent::DistIssue {
                cycle,
                words: issued_this_cycle,
            });
        }

        // --- Compute: every lane with a buffered input set fires one
        // wave, provided the ART pipeline entrance is not blocked by
        // collection backpressure (bounded in-flight waves).
        let pipeline_room = (pipeline_depth + collect_bw) * lanes.len() as u64;
        let mut fired_this_cycle = 0u64;
        let mut wanted_to_fire = 0u64;
        // Rotate firing priority so back-pressured cycles don't starve
        // high-index lanes (the ART has no positional bias).
        let start = cycle as usize % lanes.len();
        for offset in 0..lanes.len() {
            let lane = (start + offset) % lanes.len();
            if buffered[lane] > 0 && fired[lane] < steps {
                wanted_to_fire += 1;
                if (in_flight.len() as u64) < pipeline_room {
                    buffered[lane] -= 1;
                    fired[lane] += 1;
                    in_flight.push_back((cycle, lane as u32));
                    fired_this_cycle += 1;
                    sink.emit(|| TraceEvent::VnReduceStart {
                        cycle,
                        lane: lane as u32,
                    });
                } else {
                    sink.emit(|| TraceEvent::CollectStall {
                        cycle,
                        lane: lane as u32,
                    });
                }
            }
        }
        stats.waves_completed += fired_this_cycle;
        if fired_this_cycle > 0 {
            stats.busy_cycles += 1;
        }
        stats.collection_stall_cycles += wanted_to_fire - fired_this_cycle;
        let mut starving = 0u64;
        for lane in 0..lanes.len() {
            if fired[lane] < steps && buffered[lane] == 0 {
                starving += 1;
                sink.emit(|| TraceEvent::DistStall {
                    cycle,
                    lane: lane as u32,
                });
            }
        }
        stats.distribution_stall_cycles += starving;
    }
    sink.emit(|| TraceEvent::RunEnd { cycle });
    stats.cycles = Cycle::new(cycle);
    stats.waves_completed = collected;
    for (name, count) in [
        ("words_issued", words_issued),
        ("flits_dropped", flits_dropped),
    ] {
        if count > 0 {
            stats.extra.add(name, count);
        }
    }
    stats
        .extra
        .add("art_active_adders", art.active_adders() as u64);
    Ok(stats)
}

/// Clocks a whole dense CONV layer: plans it with the same policy the
/// analytic mapper uses, traces one steady-state iteration cycle by
/// cycle, and composes the total (weight-load phase + iterations x
/// traced iteration + startup). Because every iteration of a dense
/// layer is structurally identical, one traced iteration scaled by the
/// iteration count is exact, and the result cross-validates
/// [`crate::mapper::conv::ConvMapper`]'s closed-form cost.
///
/// # Errors
///
/// Propagates planning and trace failures.
pub fn simulate_conv_layer(
    cfg: &MaeriConfig,
    layer: &maeri_dnn::ConvLayer,
    policy: VnPolicy,
) -> Result<TraceStats> {
    simulate_conv_layer_probed(cfg, layer, policy, &mut NullSink)
}

/// [`simulate_conv_layer`] with probes: the weight multicast reports a
/// [`TraceEvent::DistDelivery`] and the traced iteration streams its
/// cycle-level events into `sink` (see
/// [`simulate_conv_iteration_probed`]). Only the one traced iteration
/// is probed — the scaled-out iterations are structurally identical, so
/// the per-iteration event stream already describes all of them.
///
/// # Errors
///
/// Same conditions as [`simulate_conv_layer`].
pub fn simulate_conv_layer_probed<S: TraceSink>(
    cfg: &MaeriConfig,
    layer: &maeri_dnn::ConvLayer,
    policy: VnPolicy,
    sink: &mut S,
) -> Result<TraceStats> {
    let plan = ConvMapper::new(*cfg).plan(layer, policy)?;
    trace_conv_plan(cfg, layer, &plan, sink)
}

/// [`simulate_conv_layer_probed`] on `plan`, the layer's plan on `cfg`.
/// Its lanes are the plan's VNs, equal-sized, so they pack to the ranges
/// of the plan's ART, and the loop clocks that ART without building it
/// again.
fn trace_conv_plan<S: TraceSink>(
    cfg: &MaeriConfig,
    layer: &maeri_dnn::ConvLayer,
    plan: &ConvPlan,
    sink: &mut S,
) -> Result<TraceStats> {
    // Per-step fresh inputs: the plan's definition is shared with the
    // closed-form cost model, so trace and model count the same input
    // traffic (including the padded-image row clamp and the loop-order
    // row spread).
    let fresh = plan.step_inputs(layer) as usize;
    let lanes = vec![
        LaneSpec {
            vn_size: plan.vn_size,
            // All lanes share the slice (filter-parallel assignment).
            fresh_inputs_per_step: fresh,
        };
        plan.num_vns
    ];
    let steps = layer.out_w() as u64;
    let one_iteration = clock_iteration(cfg, &plan.art, &lanes, steps, fresh, sink)?;
    let dist = cfg.distributor();
    let weight_cycles = dist
        .multicast_cycles_probed(layer.weight_count() as u64, sink)
        .as_u64();
    let mut total = one_iteration.clone();
    // Back-to-back iterations overlap in the ART pipeline: only the
    // first pays the fill latency the standalone trace includes.
    let steady = one_iteration
        .cycles
        .as_u64()
        .saturating_sub(cfg.art_depth() as u64);
    total.cycles = Cycle::new(
        weight_cycles + one_iteration.cycles.as_u64() + steady * plan.iterations.saturating_sub(1),
    );
    total.waves_completed = one_iteration.waves_completed * plan.iterations;
    total.busy_cycles = one_iteration.busy_cycles * plan.iterations;
    total.distribution_stall_cycles = one_iteration.distribution_stall_cycles * plan.iterations;
    total.collection_stall_cycles = one_iteration.collection_stall_cycles * plan.iterations;
    total.extra.add("iterations", plan.iterations);
    total.extra.add("weight_cycles", weight_cycles);
    Ok(total)
}

/// Runs [`simulate_conv_layer_probed`] with a [`TelemetrySink`] and
/// reduces what it saw to per-run [`FabricTelemetry`]: per-level
/// distribution link occupancy, multiplier busy fraction, stall
/// fractions, ART usage, and the VN reduction-latency histogram. All
/// fabric figures describe the one traced steady-state iteration
/// (every iteration of a dense layer is structurally identical); the
/// returned [`TraceStats`] is the whole-layer total, exactly as
/// [`simulate_conv_layer`] reports it.
///
/// # Errors
///
/// Same conditions as [`simulate_conv_layer`].
pub fn simulate_conv_layer_telemetry(
    cfg: &MaeriConfig,
    layer: &maeri_dnn::ConvLayer,
    policy: VnPolicy,
) -> Result<(TraceStats, FabricTelemetry)> {
    let plan = ConvMapper::new(*cfg).plan(layer, policy)?;
    let mut sink = TelemetrySink::new();
    let total = trace_conv_plan(cfg, layer, &plan, &mut sink)?;
    Ok((
        total,
        fabric_telemetry(cfg, &sink, plan.num_vns, plan.vn_size),
    ))
}

/// Reduces an iteration's [`TelemetrySink`] to [`FabricTelemetry`].
/// Only the simulator knows the denominators (link bandwidths, switch
/// and lane counts), so the reduction lives here rather than in the
/// telemetry crate.
fn fabric_telemetry(
    cfg: &MaeriConfig,
    sink: &TelemetrySink,
    num_vns: usize,
    vn_size: usize,
) -> FabricTelemetry {
    let cycles = sink.end_cycle();
    let chubby = cfg.distribution_chubby();
    let levels = chubby.tree().levels();
    // Unique injected words against each level's aggregate bandwidth —
    // a lower bound, since free multicast replication is not re-counted.
    let words = sink.words_issued() as f64;
    let mut dist_level_utilization = Vec::with_capacity(levels.saturating_sub(1));
    for level in 1..levels {
        let capacity = cycles as f64 * chubby.level_aggregate_bandwidth(level) as f64;
        dist_level_utilization.push(if capacity > 0.0 {
            (words / capacity).min(1.0)
        } else {
            0.0
        });
    }
    let mult_cycles = cfg.num_mult_switches() as f64 * cycles as f64;
    let busy_mults = (sink.waves_started() * vn_size as u64) as f64;
    let lane_cycles = num_vns as f64 * cycles as f64;
    FabricTelemetry {
        cycles,
        dist_level_utilization,
        mult_busy_fraction: if mult_cycles > 0.0 {
            (busy_mults / mult_cycles).min(1.0)
        } else {
            0.0
        },
        dist_stall_fraction: if lane_cycles > 0.0 {
            sink.dist_stall_lane_cycles() as f64 / lane_cycles
        } else {
            0.0
        },
        collect_stall_fraction: if lane_cycles > 0.0 {
            sink.collect_stall_lane_cycles() as f64 / lane_cycles
        } else {
            0.0
        },
        art_active_adders: sink.art_active_adders(),
        art_forward_links: sink.art_forward_links(),
        vn_latency: sink.vn_latency().clone(),
        events: sink.counts().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MaeriConfig {
        MaeriConfig::paper_64()
    }

    #[test]
    fn zero_cycle_trace_has_finite_throughput() {
        // A trace that never advanced must report 0 outputs/cycle, not
        // NaN — downstream reports feed this straight into tables.
        let trace = TraceStats {
            cycles: Cycle::ZERO,
            waves_completed: 0,
            busy_cycles: 0,
            distribution_stall_cycles: 0,
            collection_stall_cycles: 0,
            extra: Stats::new(),
        };
        assert_eq!(trace.throughput(), 0.0);
        assert!(trace.throughput().is_finite());
    }

    #[test]
    fn layer_trace_matches_mapper_cost() {
        use crate::mapper::{ConvMapper, VnPolicy};
        use maeri_dnn::ConvLayer;
        for layer in [
            ConvLayer::new("vgg_small", 16, 14, 14, 8, 3, 3, 1, 1),
            ConvLayer::new("stride2", 4, 16, 16, 8, 5, 5, 2, 2),
            ConvLayer::new("one_by_one", 32, 10, 10, 16, 1, 1, 1, 0),
        ] {
            let trace = simulate_conv_layer(&cfg(), &layer, VnPolicy::Auto).unwrap();
            let model = ConvMapper::new(cfg()).run(&layer, VnPolicy::Auto).unwrap();
            let ratio = trace.cycles.as_f64() / model.cycles.as_f64();
            assert!(
                (0.75..=1.35).contains(&ratio),
                "{}: trace {} vs model {} (ratio {ratio:.3})",
                layer.name,
                trace.cycles.as_u64(),
                model.cycles.as_u64()
            );
        }
    }

    #[test]
    fn layer_trace_counts_all_waves() {
        use crate::mapper::{ConvMapper, VnPolicy};
        use maeri_dnn::ConvLayer;
        let layer = ConvLayer::new("count", 8, 12, 12, 8, 3, 3, 1, 1);
        let plan = ConvMapper::new(cfg()).plan(&layer, VnPolicy::Auto).unwrap();
        let trace = simulate_conv_layer(&cfg(), &layer, VnPolicy::Auto).unwrap();
        assert_eq!(
            trace.waves_completed,
            plan.iterations * layer.out_w() as u64 * plan.num_vns as u64
        );
        assert_eq!(trace.extra.get("iterations"), plan.iterations);
    }

    #[test]
    fn compute_bound_iteration_hits_one_wave_per_cycle() {
        // 7 lanes of 9 switches, 3 fresh inputs each, all shared: the
        // 8-wide tree sustains a wave per cycle.
        let lanes = vec![
            LaneSpec {
                vn_size: 9,
                fresh_inputs_per_step: 3
            };
            7
        ];
        let trace = simulate_conv_iteration(&cfg(), &lanes, 100, 3).unwrap();
        assert_eq!(trace.waves_completed, 700);
        // Rate ~1 wave/lane/cycle plus pipeline fill.
        let ideal = 100 + cfg().art_depth() as u64;
        assert!(
            trace.cycles.as_u64() <= ideal + 8,
            "{} cycles vs ideal {}",
            trace.cycles.as_u64(),
            ideal
        );
        assert_eq!(trace.collection_stall_cycles, 0);
    }

    #[test]
    fn distribution_bound_iteration_matches_analytic_rate() {
        // One lane needing 24 fresh words per step over an 8-wide tree:
        // analytic steady state is 3 cycles per output.
        let lanes = vec![LaneSpec {
            vn_size: 61,
            fresh_inputs_per_step: 24,
        }];
        let steps = 200;
        let trace = simulate_conv_iteration(&cfg(), &lanes, steps, 0).unwrap();
        let per_step = trace.cycles.as_u64() as f64 / steps as f64;
        assert!(
            (per_step - 3.0).abs() < 0.2,
            "traced {per_step} cycles/step, analytic 3.0"
        );
        assert!(trace.distribution_stall_cycles > steps / 2);
    }

    #[test]
    fn collection_bound_iteration_stalls_on_thin_root() {
        // 32 lanes of 2 switches on a 2-wide collection root: only 2
        // outputs/cycle can leave, so throughput caps at 2 waves/cycle.
        let thin = MaeriConfig::builder(64)
            .distribution_bandwidth(64)
            .collection_bandwidth(2)
            .build()
            .unwrap();
        let lanes = vec![
            LaneSpec {
                vn_size: 2,
                fresh_inputs_per_step: 1
            };
            32
        ];
        let steps = 50;
        let trace = simulate_conv_iteration(&thin, &lanes, steps, 1).unwrap();
        let throughput = trace.throughput();
        assert!(
            throughput <= 2.05,
            "collection cap violated: {throughput} waves/cycle"
        );
        assert!(trace.collection_stall_cycles > 0);
    }

    #[test]
    fn trace_agrees_with_conv_mapper_steady_state() {
        // The mapper's steady-state model for the VGG-like mapping
        // (7 VNs of 9, 3 fresh shared inputs/step) predicts 1
        // cycle/step; the trace must agree within pipeline effects.
        use crate::mapper::{ConvMapper, VnPolicy};
        use maeri_dnn::ConvLayer;
        let layer = ConvLayer::new("vgg_like", 1, 30, 30, 7, 3, 3, 1, 1);
        let mapper = ConvMapper::new(cfg());
        let plan = mapper.plan(&layer, VnPolicy::ChannelsPerVn(1)).unwrap();
        assert_eq!(plan.num_vns, 7);
        let steps = layer.out_w() as u64;
        let lanes = vec![
            LaneSpec {
                vn_size: plan.vn_size,
                fresh_inputs_per_step: 3
            };
            plan.num_vns
        ];
        let trace = simulate_conv_iteration(&cfg(), &lanes, steps, 3).unwrap();
        // Mapper: steps * steady(=1) per iteration.
        let traced_per_step = trace.cycles.as_u64() as f64 / steps as f64;
        assert!(
            traced_per_step < 1.5,
            "traced {traced_per_step} cycles/step"
        );
    }

    #[test]
    fn fifo_depth_bounds_lookahead() {
        // With a 1-deep FIFO the distribution cannot run ahead, so a
        // bursty demand pattern serializes; deeper FIFOs overlap.
        let shallow = MaeriConfig::builder(64)
            .ms_local_buffers(1)
            .build()
            .unwrap();
        let deep = MaeriConfig::builder(64)
            .ms_local_buffers(8)
            .build()
            .unwrap();
        let lanes = vec![
            LaneSpec {
                vn_size: 16,
                fresh_inputs_per_step: 12
            };
            4
        ];
        let a = simulate_conv_iteration(&shallow, &lanes, 64, 0).unwrap();
        let b = simulate_conv_iteration(&deep, &lanes, 64, 0).unwrap();
        assert!(b.cycles <= a.cycles);
    }

    #[test]
    fn rejects_oversized_lane_sets() {
        let lanes = vec![
            LaneSpec {
                vn_size: 30,
                fresh_inputs_per_step: 1
            };
            3
        ];
        assert!(simulate_conv_iteration(&cfg(), &lanes, 1, 0).is_err());
        assert!(simulate_conv_iteration(&cfg(), &[], 1, 0).is_err());
    }

    #[test]
    fn a_plan_clocks_the_art_its_lanes_pack_to() {
        use crate::fault::FaultSpec;
        use crate::mapper::{ConvMapping, LoopOrder};
        use maeri_dnn::ConvLayer;
        // Seeded random CONV layers and explicit mappings on fabrics of
        // 16-64 leaves, healthy or with dead multipliers, severed links
        // and lost flits. A layer trace clocks the ART its plan holds;
        // the iteration it clocks must equal the one the public loop
        // traces after packing the same lanes and building their ART,
        // events and counters included, and the counters it keeps must
        // match the words and flits its probes report.
        let mut rng = SimRng::seed(35);
        let (mut traced, mut dropping) = (0, 0);
        for case in 0..120 {
            let mut builder = MaeriConfig::builder(16 << rng.next_below(3))
                .distribution_bandwidth(1 << rng.next_below(4))
                .collection_bandwidth(1 << rng.next_below(4));
            if case % 2 == 1 {
                builder = builder.faults(
                    FaultSpec::new(case)
                        .dead_multipliers(rng.next_below(300) as u16)
                        .dead_forwarding_links(rng.next_below(1000) as u16)
                        .flit_drops(rng.next_below(200) as u16)
                        .flit_delay(rng.next_below(3) as u16),
                );
            }
            let cfg = builder.build().unwrap();
            let kernel = 1 + rng.next_below(4);
            let side = kernel + rng.next_below(8);
            let layer = ConvLayer::new(
                "conv",
                1 + rng.next_below(8),
                side,
                side,
                1 + rng.next_below(8),
                kernel,
                kernel,
                1,
                rng.next_below(2),
            );
            let policy = VnPolicy::Explicit(ConvMapping {
                channel_tile: 1 + rng.next_below(layer.in_channels),
                max_vns: 1 + rng.next_below(cfg.num_mult_switches()),
                loop_order: [LoopOrder::FilterMajor, LoopOrder::RowMajor][rng.next_below(2)],
            });
            let Ok(plan) = ConvMapper::new(cfg).plan(&layer, policy) else {
                continue;
            };
            let fresh = plan.step_inputs(&layer) as usize;
            let lanes = vec![
                LaneSpec {
                    vn_size: plan.vn_size,
                    fresh_inputs_per_step: fresh,
                };
                plan.num_vns
            ];
            let steps = layer.out_w() as u64;
            let (mut shared, mut rebuilt) = (TelemetrySink::new(), TelemetrySink::new());
            let clocked = clock_iteration(&cfg, &plan.art, &lanes, steps, fresh, &mut shared);
            let repacked = simulate_conv_iteration_probed(&cfg, &lanes, steps, fresh, &mut rebuilt);
            let what = format!("case {case}: {cfg:?}, {layer:?}, {policy:?}");
            assert_eq!(clocked, repacked, "{what}");
            assert_eq!(shared, rebuilt, "{what}");
            let extra = &clocked.unwrap_or_else(|err| panic!("{what}: {err}")).extra;
            assert_eq!(
                (extra.get("words_issued"), extra.get("flits_dropped")),
                (shared.words_issued(), shared.flit_drops()),
                "{what}"
            );
            traced += 1;
            dropping += usize::from(shared.flit_drops() > 0);
        }
        assert!(
            traced > 60 && dropping > 0,
            "{traced} of 120 cases planned, {dropping} dropped flits"
        );
    }

    #[test]
    fn throughput_is_bounded_by_both_resources() {
        // Sweep lane counts: throughput never exceeds collection bw or
        // distribution-implied rates.
        for lanes_count in [1usize, 2, 4, 8] {
            let lanes = vec![
                LaneSpec {
                    vn_size: 8,
                    fresh_inputs_per_step: 4
                };
                lanes_count
            ];
            let trace = simulate_conv_iteration(&cfg(), &lanes, 100, 4).unwrap();
            assert!(trace.throughput() <= cfg().collect_bandwidth() as f64 + 1e-9);
            assert!(trace.throughput() <= lanes_count as f64 + 1e-9);
        }
    }
}
