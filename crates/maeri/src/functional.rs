//! Functional (value-accurate) execution of the mappers' plans.
//!
//! The cycle models in [`crate::mapper`] account time and traffic on a
//! plan; this module *computes* layers on the same plan, driving values
//! through [`crate::switch::MultSwitch`] instances and the plan's
//! [`crate::art::ArtConfig`] reduction interpreter, so tests can check
//! the fabric's arithmetic against the `maeri-dnn` software reference
//! on exactly the partition the cost model costs and the verifier
//! proves. It is the simulator's answer to RTL simulation of the
//! original Bluespec design.

use maeri_dnn::{ConvLayer, FcLayer, PoolLayer, Tensor};
use maeri_sim::Result;

use crate::mapper::{ConvPlan, LoopOrder, LstmMapper, VectorPlan};
use crate::switch::MultSwitch;
use crate::MaeriConfig;

/// Runs a CONV layer on a plan from
/// [`ConvMapper::plan`](crate::ConvMapper::plan), returning `[K, P, Q]`
/// outputs.
///
/// A work unit is one (filter, output row, fold pass); each iteration
/// gives every VN of `plan.art` one unit, taken in `plan.loop_order`.
/// Fold pass `p` covers channel segment `p / subfold`, piece
/// `p % subfold`, and its partial sums accumulate across passes the way
/// the adder-switch temporal registers of Section 6.3 keep them.
///
/// # Panics
///
/// Panics if tensor shapes do not match the layer.
#[must_use]
pub fn run_conv(
    cfg: &MaeriConfig,
    layer: &ConvLayer,
    plan: &ConvPlan,
    input: &Tensor,
    weights: &Tensor,
) -> Tensor {
    assert_eq!(
        input.shape(),
        &[layer.in_channels, layer.in_h, layer.in_w],
        "input shape mismatch"
    );
    assert_eq!(
        weights.shape(),
        &[
            layer.out_channels,
            layer.in_channels,
            layer.kernel_h,
            layer.kernel_w
        ],
        "weight shape mismatch"
    );
    let n = cfg.num_mult_switches();
    let (k, p, q) = (layer.out_channels, layer.out_h(), layer.out_w());
    let units: Vec<(usize, usize, usize)> = (0..plan.fold_factor())
        .flat_map(|pass| {
            (0..k * p).map(move |i| match plan.loop_order {
                LoopOrder::FilterMajor => (i % k, i / k, pass),
                LoopOrder::RowMajor => (i / p, i % p, pass),
            })
        })
        .collect();
    let vns = plan.art.vns();
    let mut switches: Vec<MultSwitch> = (0..n)
        .map(|_| MultSwitch::new(cfg.ms_local_buffers()))
        .collect();
    debug_assert_eq!(units.len().div_ceil(vns.len()) as u64, plan.iterations);
    let mut out = Tensor::zeros(&[k, p, q]);
    for batch in units.chunks(vns.len()) {
        // Weight-stationary loading: each VN holds its piece for the
        // whole output row.
        for (vn, &(filter, _, pass)) in vns.iter().zip(batch) {
            for (leaf, (c, r, s)) in (vn.start..).zip(conv_piece(layer, plan, pass)) {
                switches[leaf].load_weight(weights.get(&[filter, c, r, s]));
            }
        }
        for ox in 0..q {
            let mut leaf_values = vec![0.0f32; n];
            for (vn, &(_, oy, pass)) in vns.iter().zip(batch) {
                for (leaf, (c, r, s)) in (vn.start..).zip(conv_piece(layer, plan, pass)) {
                    let x = padded_input(layer, input, c, oy, ox, r, s);
                    switches[leaf]
                        .push_input(x)
                        .expect("switch FIFO was drained");
                    leaf_values[leaf] = switches[leaf].fire().expect("weight loaded");
                }
            }
            for (&(filter, oy, _), sum) in batch.iter().zip(plan.art.reduce(&leaf_values)) {
                let acc = out.get(&[filter, oy, ox]) + sum;
                out.set(&[filter, oy, ox], acc);
            }
        }
    }
    out
}

/// The `(c, r, s)` weights fold pass `pass` maps onto one VN: piece
/// `pass % subfold` of channel segment `pass / subfold`, in flattened
/// `(c, r, s)` order (the software reference's accumulation order).
fn conv_piece(
    layer: &ConvLayer,
    plan: &ConvPlan,
    pass: usize,
) -> impl Iterator<Item = (usize, usize, usize)> {
    let (rs, kw) = (layer.kernel_h * layer.kernel_w, layer.kernel_w);
    let c_lo = pass / plan.subfold * plan.channel_tile;
    let len = rs * plan.channel_tile.min(layer.in_channels - c_lo);
    let piece = pass % plan.subfold;
    let (lo, hi) = (piece * plan.vn_size, (piece + 1) * plan.vn_size);
    (lo.min(len)..hi.min(len)).map(move |w| (c_lo + w / rs, w % rs / kw, w % kw))
}

fn padded_input(
    layer: &ConvLayer,
    input: &Tensor,
    c: usize,
    oy: usize,
    ox: usize,
    r: usize,
    s: usize,
) -> f32 {
    let iy = oy * layer.stride + r;
    let ix = ox * layer.stride + s;
    if iy < layer.pad || ix < layer.pad {
        return 0.0;
    }
    let (iy, ix) = (iy - layer.pad, ix - layer.pad);
    if iy >= layer.in_h || ix >= layer.in_w {
        return 0.0;
    }
    input.get(&[c, iy, ix])
}

/// Runs `units` length-`d` reductions on a folded-vector plan. Each
/// iteration gives every VN of `plan.art` one (unit, pass); pass `p`
/// fires `operands(unit, i)` (a weight and an input) for `i` in
/// `p * vn_size..(p + 1) * vn_size`, clipped to `d`. Passes are summed,
/// or max'd when `pool` configures the adders as comparators.
fn run_folded(
    cfg: &MaeriConfig,
    plan: &VectorPlan,
    units: usize,
    d: usize,
    pool: bool,
    operands: impl Fn(usize, usize) -> (f32, f32),
) -> Vec<f32> {
    let (idle, combine): (f32, fn(f32, f32) -> f32) = if pool {
        (f32::NEG_INFINITY, f32::max)
    } else {
        (0.0, |a, b| a + b)
    };
    // Pass-major, so each input segment is multicast once.
    let work: Vec<(usize, usize)> = (0..plan.fold)
        .flat_map(|pass| (0..units).map(move |unit| (unit, pass)))
        .collect();
    let vns = plan.art.vns();
    let mut out = vec![idle; units];
    for batch in work.chunks(vns.len()) {
        let mut leaf_values = vec![idle; cfg.num_mult_switches()];
        for (vn, &(unit, pass)) in vns.iter().zip(batch) {
            let (lo, hi) = (pass * plan.vn_size, (pass + 1) * plan.vn_size);
            for (leaf, i) in (vn.start..).zip(lo.min(d)..hi.min(d)) {
                let (weight, x) = operands(unit, i);
                leaf_values[leaf] = fire(weight, x);
            }
        }
        let reduced = if pool {
            plan.art.reduce_max(&leaf_values)
        } else {
            plan.art.reduce(&leaf_values)
        };
        for (&(unit, _), value) in batch.iter().zip(reduced) {
            out[unit] = combine(out[unit], value);
        }
    }
    out
}

/// One multiplier switch firing `weight * input`.
fn fire(weight: f32, input: f32) -> f32 {
    let mut ms = MultSwitch::new(1);
    ms.load_weight(weight);
    ms.push_input(input).expect("fresh FIFO");
    ms.fire().expect("weight loaded")
}

/// Runs a max-pool layer on [`PoolMapper::plan`](crate::PoolMapper::plan)'s
/// plan (comparator-configured adder switches; the multiplier switches
/// pass values through), returning `[C, P, Q]` outputs.
///
/// # Panics
///
/// Panics if the input shape does not match the layer.
#[must_use]
pub fn run_pool(cfg: &MaeriConfig, layer: &PoolLayer, plan: &VectorPlan, input: &Tensor) -> Tensor {
    assert_eq!(
        input.shape(),
        &[layer.channels, layer.in_h, layer.in_w],
        "input shape mismatch"
    );
    let (w, p, q) = (layer.window, layer.out_h(), layer.out_w());
    let maxes = run_folded(cfg, plan, layer.channels * p * q, w * w, true, |unit, i| {
        let (c, oy, ox) = (unit / (p * q), unit / q % p, unit % q);
        let (iy, ix) = (oy * layer.stride + i / w, ox * layer.stride + i % w);
        (1.0, input.get(&[c, iy, ix]))
    });
    Tensor::from_vec(&[layer.channels, p, q], maxes)
}

/// Runs an FC layer on [`FcMapper::plan`](crate::FcMapper::plan)'s
/// plan: one unit per neuron, folded `plan.fold` ways.
///
/// # Panics
///
/// Panics if shapes do not match the layer.
#[must_use]
pub fn run_fc(
    cfg: &MaeriConfig,
    layer: &FcLayer,
    plan: &VectorPlan,
    input: &[f32],
    weights: &Tensor,
) -> Vec<f32> {
    assert_eq!(input.len(), layer.inputs, "input length mismatch");
    assert_eq!(
        weights.shape(),
        &[layer.outputs, layer.inputs],
        "weight shape mismatch"
    );
    run_folded(cfg, plan, layer.outputs, layer.inputs, false, |o, i| {
        (weights.get(&[o, i]), input[i])
    })
}

/// Runs one LSTM time step (Section 4.3 / Figure 9) on the gate plan
/// from [`LstmMapper::gate_plan`]: phase 1 computes all `4H` gate
/// dot products over `[x; h_prev]` in one run and applies the LUT
/// activation units at the ART root; phase 2 reconstructs the tiny VNs
/// of [`LstmMapper::state_plan`] for `s = f*s_prev + i*t`, and a lone
/// multiplier switch computes `h = o*tanh(s)`.
///
/// # Errors
///
/// Returns the [`LstmMapper::state_plan`] refusal.
///
/// # Panics
///
/// Panics if vector lengths do not match the layer.
pub fn run_lstm_step(
    cfg: &MaeriConfig,
    layer: &maeri_dnn::LstmLayer,
    gate_plan: &VectorPlan,
    params: &maeri_dnn::reference::LstmParams,
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
) -> Result<(Vec<f32>, Vec<f32>)> {
    use crate::activation::{ActivationKind, ActivationLut};
    assert_eq!(x.len(), layer.input_dim, "input length mismatch");
    assert_eq!(h_prev.len(), layer.hidden_dim, "hidden length mismatch");
    assert_eq!(c_prev.len(), layer.hidden_dim, "cell length mismatch");
    let h = layer.hidden_dim;
    let sigmoid = ActivationLut::default_for(ActivationKind::Sigmoid);
    let tanh = ActivationLut::default_for(ActivationKind::Tanh);

    // Phase 1: the four weight matrices stream through the same VNs;
    // the activation units transform each collected dot product.
    let gates = [
        (&params.w_forget, &params.b_forget, &sigmoid),
        (&params.w_input, &params.b_input, &sigmoid),
        (&params.w_output, &params.b_output, &sigmoid),
        (&params.w_cell, &params.b_cell, &tanh),
    ];
    let concat: Vec<f32> = x.iter().chain(h_prev).copied().collect();
    let dots = run_folded(cfg, gate_plan, 4 * h, concat.len(), false, |unit, i| {
        (gates[unit / h].0.get(&[unit % h, i]), concat[i])
    });
    let act: Vec<f32> = (0..4 * h)
        .map(|unit| {
            let (_, bias, lut) = gates[unit / h];
            lut.apply(dots[unit] + bias[unit % h])
        })
        .collect();
    let (f, i, o, t) = (&act[..h], &act[h..2 * h], &act[2 * h..3 * h], &act[3 * h..]);

    // Phase 2: two-leaf VNs compute f*s_prev + i*t per neuron; the
    // output gate multiplies through a lone switch.
    let state_plan = LstmMapper::state_plan(cfg)?;
    let cell = run_folded(cfg, &state_plan, h, 2, false, |n, leaf| {
        [(f[n], c_prev[n]), (i[n], t[n])][leaf]
    });
    let hidden = (0..h).map(|n| fire(o[n], tanh.apply(cell[n]))).collect();
    Ok((hidden, cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvMapper, FcMapper, PoolMapper, VnPolicy};
    use maeri_dnn::reference;
    use maeri_sim::SimRng;

    fn cfg() -> MaeriConfig {
        MaeriConfig::paper_64()
    }

    /// `run_conv` on the auto policy's plan.
    fn conv(layer: &ConvLayer, input: &Tensor, weights: &Tensor) -> Tensor {
        let plan = ConvMapper::new(cfg()).plan(layer, VnPolicy::Auto).unwrap();
        run_conv(&cfg(), layer, &plan, input, weights)
    }

    fn pool(layer: &PoolLayer, input: &Tensor) -> Tensor {
        let plan = PoolMapper::new(cfg()).plan(layer).unwrap();
        run_pool(&cfg(), layer, &plan, input)
    }

    #[test]
    fn conv_matches_reference_single_channel() {
        let layer = ConvLayer::new("fig8", 1, 4, 4, 1, 2, 2, 1, 0);
        let mut rng = SimRng::seed(1);
        let input = Tensor::random(&[1, 4, 4], &mut rng);
        let weights = Tensor::random(&[1, 1, 2, 2], &mut rng);
        let fabric = conv(&layer, &input, &weights);
        let reference = reference::conv2d(&layer, &input, &weights);
        assert!(fabric.max_abs_diff(&reference) < 1e-4);
    }

    #[test]
    fn conv_matches_reference_fig17_example() {
        // The paper's worked example: eight 3x3x3 filters, 5x5x3 input.
        let layer = maeri_dnn::zoo::fig17_example();
        let mut rng = SimRng::seed(2);
        let input = Tensor::random(&[3, 5, 5], &mut rng);
        let weights = Tensor::random(&[8, 3, 3, 3], &mut rng);
        let fabric = conv(&layer, &input, &weights);
        let reference = reference::conv2d(&layer, &input, &weights);
        assert!(fabric.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn conv_matches_reference_with_padding_and_stride() {
        let layer = ConvLayer::new("ps", 2, 9, 9, 3, 3, 3, 2, 1);
        let mut rng = SimRng::seed(3);
        let input = Tensor::random(&[2, 9, 9], &mut rng);
        let weights = Tensor::random(&[3, 2, 3, 3], &mut rng);
        let fabric = conv(&layer, &input, &weights);
        let reference = reference::conv2d(&layer, &input, &weights);
        assert!(fabric.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn conv_folds_many_channels() {
        // 16 channels x 3x3 = 144 weights > 64: requires segments.
        let layer = ConvLayer::new("fold", 16, 6, 6, 4, 3, 3, 1, 1);
        let mut rng = SimRng::seed(4);
        let input = Tensor::random(&[16, 6, 6], &mut rng);
        let weights = Tensor::random(&[4, 16, 3, 3], &mut rng);
        let fabric = conv(&layer, &input, &weights);
        let reference = reference::conv2d(&layer, &input, &weights);
        assert!(fabric.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn conv_subfolds_an_oversized_slice() {
        // 9x9 = 81 > 64 multipliers: the slice splits into two pieces.
        let layer = ConvLayer::new("big", 1, 12, 12, 1, 9, 9, 1, 0);
        let plan = ConvMapper::new(cfg()).plan(&layer, VnPolicy::Auto).unwrap();
        assert_eq!(plan.subfold, 2);
        let mut rng = SimRng::seed(5);
        let input = Tensor::random(&[1, 12, 12], &mut rng);
        let weights = Tensor::random(&[1, 1, 9, 9], &mut rng);
        let fabric = run_conv(&cfg(), &layer, &plan, &input, &weights);
        let reference = reference::conv2d(&layer, &input, &weights);
        assert!(fabric.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn pool_matches_reference() {
        let layer = PoolLayer::new("p", 3, 6, 6, 2, 2);
        let mut rng = SimRng::seed(6);
        let input = Tensor::random(&[3, 6, 6], &mut rng);
        let reference = reference::max_pool(&layer, &input);
        assert!(pool(&layer, &input).max_abs_diff(&reference) < 1e-6);
    }

    #[test]
    fn pool_overlapping_windows_match() {
        let layer = PoolLayer::new("p", 2, 7, 7, 3, 2);
        let mut rng = SimRng::seed(7);
        let input = Tensor::random(&[2, 7, 7], &mut rng);
        let reference = reference::max_pool(&layer, &input);
        assert!(pool(&layer, &input).max_abs_diff(&reference) < 1e-6);
    }

    #[test]
    fn pool_folds_an_oversized_window() {
        // 9x9 = 81 > 64 multipliers: each window folds two ways.
        let layer = PoolLayer::new("p", 2, 12, 12, 9, 3);
        assert_eq!(PoolMapper::new(cfg()).plan(&layer).unwrap().fold, 2);
        let mut rng = SimRng::seed(9);
        let input = Tensor::random(&[2, 12, 12], &mut rng);
        let reference = reference::max_pool(&layer, &input);
        assert!(pool(&layer, &input).max_abs_diff(&reference) < 1e-6);
    }

    /// One LSTM step on the heuristic gate plan.
    fn lstm_step(
        layer: &maeri_dnn::LstmLayer,
        params: &reference::LstmParams,
        x: &[f32],
        h0: &[f32],
        c0: &[f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let vn_size = LstmMapper::new(cfg())
            .heuristic_gate_vn_size(layer)
            .unwrap();
        let plan = LstmMapper::gate_plan(&cfg(), layer, vn_size).unwrap();
        run_lstm_step(&cfg(), layer, &plan, params, x, h0, c0).unwrap()
    }

    #[test]
    fn lstm_step_matches_reference_within_lut_error() {
        let layer = maeri_dnn::LstmLayer::new("l", 12, 8);
        let mut rng = SimRng::seed(21);
        let params = reference::LstmParams::random(&layer, &mut rng);
        let x: Vec<f32> = (0..12).map(|_| rng.next_f32()).collect();
        let h0: Vec<f32> = (0..8).map(|_| rng.next_f32() * 0.5).collect();
        let c0: Vec<f32> = (0..8).map(|_| rng.next_f32()).collect();
        let (h_fab, c_fab) = lstm_step(&layer, &params, &x, &h0, &c0);
        let expected = reference::lstm_step(&layer, &params, &x, &h0, &c0);
        for (a, b) in c_fab.iter().zip(&expected.cell) {
            assert!((a - b).abs() < 5e-3, "cell {a} vs {b}");
        }
        for (a, b) in h_fab.iter().zip(&expected.hidden) {
            assert!((a - b).abs() < 5e-3, "hidden {a} vs {b}");
        }
    }

    #[test]
    fn lstm_step_hidden_dim_exceeding_lanes_chunks() {
        // hidden 40 > 32 state lanes on a 64-switch array: two chunks.
        let layer = maeri_dnn::LstmLayer::new("wide", 4, 40);
        let mut rng = SimRng::seed(22);
        let params = reference::LstmParams::random(&layer, &mut rng);
        let x: Vec<f32> = (0..4).map(|_| rng.next_f32()).collect();
        let h0 = vec![0.0f32; 40];
        let c0: Vec<f32> = (0..40).map(|_| rng.next_f32()).collect();
        let (h_fab, _) = lstm_step(&layer, &params, &x, &h0, &c0);
        let expected = reference::lstm_step(&layer, &params, &x, &h0, &c0);
        for (a, b) in h_fab.iter().zip(&expected.hidden) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn fc_matches_reference_with_folding() {
        // 100 inputs over 64 switches: two balanced passes of 50.
        let layer = FcLayer::new("fc", 100, 7);
        let mapper = FcMapper::new(cfg());
        let plan = mapper
            .plan(&layer, mapper.heuristic_vn_size(&layer).unwrap())
            .unwrap();
        assert_eq!((plan.fold, plan.vn_size), (2, 50));
        let mut rng = SimRng::seed(8);
        let input: Vec<f32> = (0..100).map(|_| rng.next_f32()).collect();
        let weights = Tensor::random(&[7, 100], &mut rng);
        let fabric = run_fc(&cfg(), &layer, &plan, &input, &weights);
        let reference = reference::fully_connected(&layer, &input, &weights);
        for (a, b) in fabric.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
