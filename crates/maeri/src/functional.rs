//! Functional (value-accurate) execution through the fabric.
//!
//! The cycle models in [`crate::mapper`] account time and traffic; this
//! module actually *computes* layers by driving values through
//! [`crate::switch::MultSwitch`] instances and the
//! [`crate::art::ArtConfig`] reduction interpreter, so tests can check
//! the fabric's arithmetic against the `maeri-dnn` software reference.
//! It is the simulator's answer to RTL simulation of the original
//! Bluespec design.

use maeri_dnn::{ConvLayer, FcLayer, PoolLayer, Tensor};
use maeri_sim::{Result, SimError};

use crate::art::{pack_vns_into_spans, ArtConfig, VnRange};
use crate::mapper::{span_capacity, LstmMapper};
use crate::switch::MultSwitch;
use crate::MaeriConfig;

/// Runs a CONV layer through the fabric, returning `[K, P, Q]` outputs.
///
/// Filters are processed in batches of simultaneous virtual neurons;
/// channels beyond the array fold with software "adder-switch temporal
/// registers" accumulating across segments, mirroring Section 6.3.
///
/// # Errors
///
/// Returns [`SimError::Unmappable`] when a single channel slice
/// (`R*S` weights) exceeds the array (the functional model does not
/// split below one channel slice).
///
/// # Panics
///
/// Panics if tensor shapes do not match the layer.
pub fn run_conv(
    cfg: &MaeriConfig,
    layer: &ConvLayer,
    input: &Tensor,
    weights: &Tensor,
) -> Result<Tensor> {
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
    let spans = cfg.healthy_spans();
    let (cap, _) = span_capacity(&spans)?;
    let fault_plan = cfg.fault_plan();
    let rs = layer.kernel_h * layer.kernel_w;
    if rs > cap {
        return Err(SimError::unmappable(format!(
            "one channel slice needs {rs} multipliers, largest healthy span has {cap}"
        )));
    }
    // Channels per VN: as many as fit in one healthy span.
    let ct = (cap / rs).min(layer.in_channels).max(1);
    let segments = layer.in_channels.div_ceil(ct);
    let (p, q) = (layer.out_h(), layer.out_w());
    let mut out = Tensor::zeros(&[layer.out_channels, p, q]);

    // Lanes per filter batch: sized for the widest (first) segment so
    // every segment of a batch covers the same filters. Each span
    // hosts whole VNs only — a VN never straddles a dead switch.
    let batch_lanes = spans
        .iter()
        .map(|s| s.len / (rs * ct))
        .sum::<usize>()
        .max(1);
    let mut k0 = 0usize;
    while k0 < layer.out_channels {
        let lanes = batch_lanes.min(layer.out_channels - k0);
        for seg in 0..segments {
            let c_lo = seg * ct;
            let c_hi = ((seg + 1) * ct).min(layer.in_channels);
            let vn_size = rs * (c_hi - c_lo);
            let (ranges, _) = pack_vns_into_spans(&spans, &vec![vn_size; lanes]);
            debug_assert_eq!(ranges.len(), lanes, "lane budget must pack");
            let art = ArtConfig::build_with_faults(
                cfg.collection_chubby(),
                &ranges,
                fault_plan.as_ref(),
            )?;

            // Weight-stationary loading: VN leaf order is (c, r, s),
            // matching the software reference accumulation order.
            let mut switches: Vec<MultSwitch> = (0..n)
                .map(|_| MultSwitch::new(cfg.ms_local_buffers()))
                .collect();
            for (lane, range) in ranges.iter().enumerate() {
                let k = k0 + lane;
                let mut leaf = range.start;
                for c in c_lo..c_hi {
                    for r in 0..layer.kernel_h {
                        for s in 0..layer.kernel_w {
                            switches[leaf].load_weight(weights.get(&[k, c, r, s]));
                            leaf += 1;
                        }
                    }
                }
            }

            for oy in 0..p {
                for ox in 0..q {
                    let mut leaf_values = vec![0.0f32; n];
                    for (lane, range) in ranges.iter().enumerate() {
                        let mut leaf = range.start;
                        for c in c_lo..c_hi {
                            for r in 0..layer.kernel_h {
                                for s in 0..layer.kernel_w {
                                    let x = padded_input(layer, input, c, oy, ox, r, s);
                                    switches[leaf]
                                        .push_input(x)
                                        .expect("switch FIFO was drained");
                                    leaf_values[leaf] =
                                        switches[leaf].fire().expect("weight loaded");
                                    leaf += 1;
                                }
                            }
                        }
                        let _ = lane;
                    }
                    let sums = art.reduce(&leaf_values);
                    for (lane, sum) in sums.iter().enumerate() {
                        let k = k0 + lane;
                        let acc = out.get(&[k, oy, ox]) + sum;
                        out.set(&[k, oy, ox], acc);
                    }
                }
            }
        }
        k0 += lanes;
    }
    Ok(out)
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

/// Runs a max-pool layer through the fabric (comparator-configured
/// adder switches), returning `[C, P, Q]` outputs.
///
/// # Errors
///
/// Returns [`SimError::Unmappable`] when one window exceeds the array.
///
/// # Panics
///
/// Panics if the input shape does not match the layer.
pub fn run_pool(cfg: &MaeriConfig, layer: &PoolLayer, input: &Tensor) -> Result<Tensor> {
    assert_eq!(
        input.shape(),
        &[layer.channels, layer.in_h, layer.in_w],
        "input shape mismatch"
    );
    let n = cfg.num_mult_switches();
    let spans = cfg.healthy_spans();
    let (cap, _) = span_capacity(&spans)?;
    let window = layer.window * layer.window;
    if window > cap {
        return Err(SimError::unmappable(format!(
            "pooling window needs {window} switches, largest healthy span has {cap}"
        )));
    }
    let want: usize = spans.iter().map(|s| s.len / window).sum();
    let (ranges, _) = pack_vns_into_spans(&spans, &vec![window; want.max(1)]);
    let lanes = ranges.len();
    let art =
        ArtConfig::build_with_faults(cfg.collection_chubby(), &ranges, cfg.fault_plan().as_ref())?;
    let (p, q) = (layer.out_h(), layer.out_w());
    let mut out = Tensor::zeros(&[layer.channels, p, q]);
    // Enumerate outputs in lane-sized batches.
    let outputs: Vec<(usize, usize, usize)> = (0..layer.channels)
        .flat_map(|c| (0..p).flat_map(move |oy| (0..q).map(move |ox| (c, oy, ox))))
        .collect();
    for batch in outputs.chunks(lanes) {
        let mut leaf_values = vec![f32::NEG_INFINITY; n];
        for (lane, &(c, oy, ox)) in batch.iter().enumerate() {
            let base = ranges[lane].start;
            for r in 0..layer.window {
                for s in 0..layer.window {
                    leaf_values[base + r * layer.window + s] =
                        input.get(&[c, oy * layer.stride + r, ox * layer.stride + s]);
                }
            }
        }
        let maxes = art.reduce_max(&leaf_values);
        for (lane, &(c, oy, ox)) in batch.iter().enumerate() {
            out.set(&[c, oy, ox], maxes[lane]);
        }
    }
    Ok(out)
}

/// Runs an FC layer through the fabric, folding long input vectors.
///
/// # Errors
///
/// Propagates ART construction failures.
///
/// # Panics
///
/// Panics if shapes do not match the layer.
pub fn run_fc(
    cfg: &MaeriConfig,
    layer: &FcLayer,
    input: &[f32],
    weights: &Tensor,
) -> Result<Vec<f32>> {
    assert_eq!(input.len(), layer.inputs, "input length mismatch");
    assert_eq!(
        weights.shape(),
        &[layer.outputs, layer.inputs],
        "weight shape mismatch"
    );
    let n = cfg.num_mult_switches();
    let spans = cfg.healthy_spans();
    let (cap, _) = span_capacity(&spans)?;
    let fault_plan = cfg.fault_plan();
    // The single folded VN lives on the largest healthy span.
    let base = spans.iter().max_by_key(|s| s.len).map_or(0, |s| s.start);
    let seg_len = cap.min(layer.inputs);
    let segments = layer.inputs.div_ceil(seg_len);
    let mut out = vec![0.0f32; layer.outputs];
    for (o, out_val) in out.iter_mut().enumerate() {
        for seg in 0..segments {
            let lo = seg * seg_len;
            let hi = ((seg + 1) * seg_len).min(layer.inputs);
            let art = ArtConfig::build_with_faults(
                cfg.collection_chubby(),
                &[VnRange::new(base, hi - lo)],
                fault_plan.as_ref(),
            )?;
            let mut leaf_values = vec![0.0f32; n];
            for (leaf, i) in (lo..hi).enumerate() {
                let mut ms = MultSwitch::new(1);
                ms.load_weight(weights.get(&[o, i]));
                ms.push_input(input[i]).expect("fresh FIFO");
                leaf_values[base + leaf] = ms.fire().expect("weight loaded");
            }
            *out_val += art.reduce(&leaf_values)[0];
        }
    }
    Ok(out)
}

/// Runs one LSTM time step through the fabric (Section 4.3 / Figure 9):
/// phase 1 computes the four gate dot-products as FC reductions over
/// `[x; h_prev]` and applies the LUT activation units at the ART root;
/// phase 2 reconstructs tiny VNs for `s = f*s_prev + i*t` and
/// `h = o*tanh(s)` using multiplier switches and 2-leaf reductions.
///
/// # Errors
///
/// Propagates ART construction failures.
///
/// # Panics
///
/// Panics if vector lengths do not match the layer.
pub fn run_lstm_step(
    cfg: &MaeriConfig,
    layer: &maeri_dnn::LstmLayer,
    params: &maeri_dnn::reference::LstmParams,
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
) -> Result<(Vec<f32>, Vec<f32>)> {
    use crate::activation::{ActivationKind, ActivationLut};
    assert_eq!(x.len(), layer.input_dim, "input length mismatch");
    assert_eq!(h_prev.len(), layer.hidden_dim, "hidden length mismatch");
    assert_eq!(c_prev.len(), layer.hidden_dim, "cell length mismatch");
    let concat: Vec<f32> = x.iter().chain(h_prev.iter()).copied().collect();
    let d = layer.input_dim + layer.hidden_dim;
    let as_fc = FcLayer::new(&format!("{}_gates", layer.name), d, layer.hidden_dim);
    let sigmoid = ActivationLut::default_for(ActivationKind::Sigmoid);
    let tanh = ActivationLut::default_for(ActivationKind::Tanh);

    // Phase 1: four weight matrices stream through the same VNs; the
    // activation units transform each collected dot product.
    let gate = |w: &Tensor, b: &[f32], lut: &ActivationLut| -> Result<Vec<f32>> {
        let dots = run_fc(cfg, &as_fc, &concat, w)?;
        Ok(dots
            .iter()
            .zip(b)
            .map(|(dot, bias)| lut.apply(dot + bias))
            .collect())
    };
    let f = gate(&params.w_forget, &params.b_forget, &sigmoid)?;
    let i = gate(&params.w_input, &params.b_input, &sigmoid)?;
    let o = gate(&params.w_output, &params.b_output, &sigmoid)?;
    let t = gate(&params.w_cell, &params.b_cell, &tanh)?;

    // Phase 2: reconstructed 2-leaf VNs compute f*s_prev + i*t per
    // neuron; the output gate multiplies through a lone switch.
    let n = cfg.num_mult_switches();
    let art = LstmMapper::state_plan(cfg)?.art;
    let ranges = art.vns();
    let state_lanes = ranges.len();
    let mut cell = vec![0.0f32; layer.hidden_dim];
    for chunk_start in (0..layer.hidden_dim).step_by(state_lanes) {
        let chunk_end = (chunk_start + state_lanes).min(layer.hidden_dim);
        let mut leaf_values = vec![0.0f32; n];
        for (lane, neuron) in (chunk_start..chunk_end).enumerate() {
            let mut ms_f = MultSwitch::new(1);
            ms_f.load_weight(f[neuron]);
            ms_f.push_input(c_prev[neuron]).expect("fresh FIFO");
            let mut ms_i = MultSwitch::new(1);
            ms_i.load_weight(i[neuron]);
            ms_i.push_input(t[neuron]).expect("fresh FIFO");
            leaf_values[ranges[lane].start] = ms_f.fire().expect("weight loaded");
            leaf_values[ranges[lane].start + 1] = ms_i.fire().expect("weight loaded");
        }
        let sums = art.reduce(&leaf_values);
        for (lane, neuron) in (chunk_start..chunk_end).enumerate() {
            cell[neuron] = sums[lane];
        }
    }
    let hidden: Vec<f32> = (0..layer.hidden_dim)
        .map(|neuron| {
            let mut ms = MultSwitch::new(1);
            ms.load_weight(o[neuron]);
            ms.push_input(tanh.apply(cell[neuron])).expect("fresh FIFO");
            ms.fire().expect("weight loaded")
        })
        .collect();
    Ok((hidden, cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_dnn::reference;
    use maeri_sim::SimRng;

    fn cfg() -> MaeriConfig {
        MaeriConfig::paper_64()
    }

    #[test]
    fn conv_matches_reference_single_channel() {
        let layer = ConvLayer::new("fig8", 1, 4, 4, 1, 2, 2, 1, 0);
        let mut rng = SimRng::seed(1);
        let input = Tensor::random(&[1, 4, 4], &mut rng);
        let weights = Tensor::random(&[1, 1, 2, 2], &mut rng);
        let fabric = run_conv(&cfg(), &layer, &input, &weights).unwrap();
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
        let fabric = run_conv(&cfg(), &layer, &input, &weights).unwrap();
        let reference = reference::conv2d(&layer, &input, &weights);
        assert!(fabric.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn conv_matches_reference_with_padding_and_stride() {
        let layer = ConvLayer::new("ps", 2, 9, 9, 3, 3, 3, 2, 1);
        let mut rng = SimRng::seed(3);
        let input = Tensor::random(&[2, 9, 9], &mut rng);
        let weights = Tensor::random(&[3, 2, 3, 3], &mut rng);
        let fabric = run_conv(&cfg(), &layer, &input, &weights).unwrap();
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
        let fabric = run_conv(&cfg(), &layer, &input, &weights).unwrap();
        let reference = reference::conv2d(&layer, &input, &weights);
        assert!(fabric.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn conv_rejects_oversized_slice() {
        // 9x9 = 81 > 64 multipliers.
        let layer = ConvLayer::new("big", 1, 12, 12, 1, 9, 9, 1, 0);
        let mut rng = SimRng::seed(5);
        let input = Tensor::random(&[1, 12, 12], &mut rng);
        let weights = Tensor::random(&[1, 1, 9, 9], &mut rng);
        assert!(run_conv(&cfg(), &layer, &input, &weights).is_err());
    }

    #[test]
    fn pool_matches_reference() {
        let layer = PoolLayer::new("p", 3, 6, 6, 2, 2);
        let mut rng = SimRng::seed(6);
        let input = Tensor::random(&[3, 6, 6], &mut rng);
        let fabric = run_pool(&cfg(), &layer, &input).unwrap();
        let reference = reference::max_pool(&layer, &input);
        assert!(fabric.max_abs_diff(&reference) < 1e-6);
    }

    #[test]
    fn pool_overlapping_windows_match() {
        let layer = PoolLayer::new("p", 2, 7, 7, 3, 2);
        let mut rng = SimRng::seed(7);
        let input = Tensor::random(&[2, 7, 7], &mut rng);
        let fabric = run_pool(&cfg(), &layer, &input).unwrap();
        let reference = reference::max_pool(&layer, &input);
        assert!(fabric.max_abs_diff(&reference) < 1e-6);
    }

    #[test]
    fn lstm_step_matches_reference_within_lut_error() {
        let layer = maeri_dnn::LstmLayer::new("l", 12, 8);
        let mut rng = SimRng::seed(21);
        let params = reference::LstmParams::random(&layer, &mut rng);
        let x: Vec<f32> = (0..12).map(|_| rng.next_f32()).collect();
        let h0: Vec<f32> = (0..8).map(|_| rng.next_f32() * 0.5).collect();
        let c0: Vec<f32> = (0..8).map(|_| rng.next_f32()).collect();
        let (h_fab, c_fab) = run_lstm_step(&cfg(), &layer, &params, &x, &h0, &c0).unwrap();
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
        let (h_fab, _) = run_lstm_step(&cfg(), &layer, &params, &x, &h0, &c0).unwrap();
        let expected = reference::lstm_step(&layer, &params, &x, &h0, &c0);
        for (a, b) in h_fab.iter().zip(&expected.hidden) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn fc_matches_reference_with_folding() {
        // 100 inputs over 64 switches: two segments.
        let layer = FcLayer::new("fc", 100, 7);
        let mut rng = SimRng::seed(8);
        let input: Vec<f32> = (0..100).map(|_| rng.next_f32()).collect();
        let weights = Tensor::random(&[7, 100], &mut rng);
        let fabric = run_fc(&cfg(), &layer, &input, &weights).unwrap();
        let reference = reference::fully_connected(&layer, &input, &weights);
        for (a, b) in fabric.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
