//! Software reference implementations of each layer.
//!
//! These are deliberately simple, direct loop nests. The cycle-level
//! accelerator simulators in `maeri` and `maeri-baselines` are validated
//! by checking that the values they compute match these references
//! bit-for-bit (the simulators use the same f32 accumulation order) or
//! within a small epsilon where the accumulation order differs.

use crate::layer::{ConvLayer, FcLayer, LstmLayer, PoolLayer};
use crate::tensor::Tensor;

/// Direct 2-D convolution.
///
/// * `input` must be `[C, H, W]`,
/// * `weights` must be `[K, C, R, S]`,
/// * output is `[K, P, Q]`.
///
/// Accumulation order is filter-major: channel, then filter row, then
/// filter column — the same order a MAERI virtual neuron reduces its
/// partial sums, so dense MAERI runs match this bit-for-bit.
///
/// # Panics
///
/// Panics if the tensor shapes do not match the layer descriptor.
#[must_use]
pub fn conv2d(layer: &ConvLayer, input: &Tensor, weights: &Tensor) -> Tensor {
    assert_eq!(
        input.shape(),
        &[layer.in_channels, layer.in_h, layer.in_w],
        "input shape does not match layer {}",
        layer.name
    );
    assert_eq!(
        weights.shape(),
        &[
            layer.out_channels,
            layer.in_channels,
            layer.kernel_h,
            layer.kernel_w
        ],
        "weight shape does not match layer {}",
        layer.name
    );
    let (p, q) = (layer.out_h(), layer.out_w());
    let mut out = Tensor::zeros(&[layer.out_channels, p, q]);
    for k in 0..layer.out_channels {
        for oy in 0..p {
            for ox in 0..q {
                let mut acc = 0.0f32;
                for c in 0..layer.in_channels {
                    for r in 0..layer.kernel_h {
                        for s in 0..layer.kernel_w {
                            let iy = oy * layer.stride + r;
                            let ix = ox * layer.stride + s;
                            // Positions inside the zero padding contribute 0.
                            if iy < layer.pad || ix < layer.pad {
                                continue;
                            }
                            let (iy, ix) = (iy - layer.pad, ix - layer.pad);
                            if iy >= layer.in_h || ix >= layer.in_w {
                                continue;
                            }
                            acc += input.get(&[c, iy, ix]) * weights.get(&[k, c, r, s]);
                        }
                    }
                }
                out.set(&[k, oy, ox], acc);
            }
        }
    }
    out
}

/// Fully-connected layer: `out[o] = sum_i W[o, i] * x[i]`.
///
/// # Panics
///
/// Panics if shapes do not match the descriptor.
#[must_use]
pub fn fully_connected(layer: &FcLayer, input: &[f32], weights: &Tensor) -> Vec<f32> {
    assert_eq!(input.len(), layer.inputs, "input length mismatch");
    assert_eq!(
        weights.shape(),
        &[layer.outputs, layer.inputs],
        "weight shape mismatch"
    );
    (0..layer.outputs)
        .map(|o| {
            (0..layer.inputs)
                .map(|i| weights.get(&[o, i]) * input[i])
                .sum()
        })
        .collect()
}

/// Max pooling over `[C, H, W]`, producing `[C, P, Q]`.
///
/// # Panics
///
/// Panics if the input shape does not match the descriptor.
#[must_use]
pub fn max_pool(layer: &PoolLayer, input: &Tensor) -> Tensor {
    assert_eq!(
        input.shape(),
        &[layer.channels, layer.in_h, layer.in_w],
        "input shape does not match pool layer {}",
        layer.name
    );
    let (p, q) = (layer.out_h(), layer.out_w());
    let mut out = Tensor::zeros(&[layer.channels, p, q]);
    for c in 0..layer.channels {
        for oy in 0..p {
            for ox in 0..q {
                let mut best = f32::NEG_INFINITY;
                for r in 0..layer.window {
                    for s in 0..layer.window {
                        let v = input.get(&[c, oy * layer.stride + r, ox * layer.stride + s]);
                        best = best.max(v);
                    }
                }
                out.set(&[c, oy, ox], best);
            }
        }
    }
    out
}

/// Parameters of one LSTM layer: four gate weight matrices over the
/// concatenated `[x; h_prev]` vector plus biases.
///
/// Matrix shapes are `[hidden, input + hidden]`; bias length `hidden`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmParams {
    /// Forget-gate weights.
    pub w_forget: Tensor,
    /// Input-gate weights.
    pub w_input: Tensor,
    /// Output-gate weights.
    pub w_output: Tensor,
    /// Input-transform (candidate) weights.
    pub w_cell: Tensor,
    /// Forget-gate bias.
    pub b_forget: Vec<f32>,
    /// Input-gate bias.
    pub b_input: Vec<f32>,
    /// Output-gate bias.
    pub b_output: Vec<f32>,
    /// Input-transform bias.
    pub b_cell: Vec<f32>,
}

impl LstmParams {
    /// Creates random parameters for the given layer.
    #[must_use]
    pub fn random(layer: &LstmLayer, rng: &mut maeri_sim::SimRng) -> Self {
        let cols = layer.input_dim + layer.hidden_dim;
        let shape = [layer.hidden_dim, cols];
        let bias =
            |rng: &mut maeri_sim::SimRng| (0..layer.hidden_dim).map(|_| rng.next_f32()).collect();
        LstmParams {
            w_forget: Tensor::random(&shape, rng),
            w_input: Tensor::random(&shape, rng),
            w_output: Tensor::random(&shape, rng),
            w_cell: Tensor::random(&shape, rng),
            b_forget: bias(rng),
            b_input: bias(rng),
            b_output: bias(rng),
            b_cell: bias(rng),
        }
    }
}

/// Result of one LSTM time step.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmStep {
    /// New hidden state (output activation), length `hidden`.
    pub hidden: Vec<f32>,
    /// New cell state, length `hidden`.
    pub cell: Vec<f32>,
    /// Pre-activation gate values `(f, i, o, t)` kept for simulator
    /// validation (the paper's step 1+2 outputs).
    pub gates: LstmGates,
}

/// Post-activation gate vectors from LSTM step 1+2.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmGates {
    /// Forget gate (sigmoid).
    pub forget: Vec<f32>,
    /// Input gate (sigmoid).
    pub input: Vec<f32>,
    /// Output gate (sigmoid).
    pub output: Vec<f32>,
    /// Input transform / candidate (tanh).
    pub transform: Vec<f32>,
}

/// Logistic sigmoid.
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One LSTM time step following Section 4.3 of the paper:
/// step 1+2 compute gates and input transform, step 3 the cell state,
/// step 4 the output activation.
///
/// # Panics
///
/// Panics if vector lengths do not match the descriptor.
#[must_use]
pub fn lstm_step(
    layer: &LstmLayer,
    params: &LstmParams,
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
) -> LstmStep {
    assert_eq!(x.len(), layer.input_dim, "input length mismatch");
    assert_eq!(h_prev.len(), layer.hidden_dim, "hidden length mismatch");
    assert_eq!(c_prev.len(), layer.hidden_dim, "cell length mismatch");
    let concat: Vec<f32> = x.iter().chain(h_prev.iter()).copied().collect();
    let gate = |w: &Tensor, b: &[f32], act: fn(f32) -> f32| -> Vec<f32> {
        (0..layer.hidden_dim)
            .map(|n| {
                let dot: f32 = concat
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| w.get(&[n, i]) * v)
                    .sum();
                act(dot + b[n])
            })
            .collect()
    };
    let forget = gate(&params.w_forget, &params.b_forget, sigmoid);
    let input = gate(&params.w_input, &params.b_input, sigmoid);
    let output = gate(&params.w_output, &params.b_output, sigmoid);
    let transform = gate(&params.w_cell, &params.b_cell, f32::tanh);
    // Step 3: s_k = f * s_prev + i * t.
    let cell: Vec<f32> = (0..layer.hidden_dim)
        .map(|n| forget[n] * c_prev[n] + input[n] * transform[n])
        .collect();
    // Step 4: h_k = o * tanh(s_k).
    let hidden: Vec<f32> = (0..layer.hidden_dim)
        .map(|n| output[n] * cell[n].tanh())
        .collect();
    LstmStep {
        hidden,
        cell,
        gates: LstmGates {
            forget,
            input,
            output,
            transform,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_sim::SimRng;

    #[test]
    fn conv_identity_filter_copies_input() {
        // A single 1x1 filter with weight 1 copies the input channel.
        let layer = ConvLayer::new("id", 1, 3, 3, 1, 1, 1, 1, 0);
        let input = Tensor::from_fn(&[1, 3, 3], |i| (i[1] * 3 + i[2]) as f32);
        let weights = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let out = conv2d(&layer, &input, &weights);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv_known_2x2_example() {
        // Paper Fig. 8: 2x2 filter over 4x4 input, one channel.
        let layer = ConvLayer::new("fig8", 1, 4, 4, 1, 2, 2, 1, 0);
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as f32);
        let weights = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv2d(&layer, &input, &weights);
        assert_eq!(out.shape(), &[1, 3, 3]);
        // O(0,0) = 0*1 + 1*2 + 4*3 + 5*4 = 34.
        assert_eq!(out.get(&[0, 0, 0]), 34.0);
        // O(2,2) = 10*1+11*2+14*3+15*4 = 134.
        assert_eq!(out.get(&[0, 2, 2]), 134.0);
    }

    #[test]
    fn conv_with_padding_zeroes_border() {
        let layer = ConvLayer::new("pad", 1, 2, 2, 1, 3, 3, 1, 1);
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 1.0, 1.0, 1.0]);
        let weights = Tensor::from_vec(&[1, 1, 3, 3], vec![1.0; 9]);
        let out = conv2d(&layer, &input, &weights);
        assert_eq!(out.shape(), &[1, 2, 2]);
        // Each output sees all four ones regardless of padding position.
        assert!(out.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv_stride_subsamples() {
        let layer = ConvLayer::new("s2", 1, 5, 5, 1, 1, 1, 2, 0);
        let input = Tensor::from_fn(&[1, 5, 5], |i| (i[1] * 5 + i[2]) as f32);
        let weights = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let out = conv2d(&layer, &input, &weights);
        assert_eq!(out.shape(), &[1, 3, 3]);
        assert_eq!(out.get(&[0, 1, 1]), 12.0); // input (2,2)
    }

    #[test]
    fn conv_multi_channel_sums_channels() {
        let layer = ConvLayer::new("mc", 3, 2, 2, 2, 2, 2, 1, 0);
        let input = Tensor::from_fn(&[3, 2, 2], |_| 1.0);
        let weights = Tensor::from_fn(&[2, 3, 2, 2], |i| (i[0] + 1) as f32);
        let out = conv2d(&layer, &input, &weights);
        assert_eq!(out.get(&[0, 0, 0]), 12.0); // 12 weights of 1.0
        assert_eq!(out.get(&[1, 0, 0]), 24.0);
    }

    #[test]
    fn fc_matches_manual_dot() {
        let layer = FcLayer::new("fc", 3, 2);
        let weights = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = fully_connected(&layer, &[1.0, 1.0, 1.0], &weights);
        assert_eq!(out, vec![6.0, 15.0]);
    }

    #[test]
    fn max_pool_picks_maximum() {
        let layer = PoolLayer::new("p", 1, 4, 4, 2, 2);
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as f32);
        let out = max_pool(&layer, &input);
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn lstm_zero_weights_give_half_gates() {
        let layer = LstmLayer::new("l", 2, 2);
        let cols = 4;
        let zero = Tensor::zeros(&[2, cols]);
        let params = LstmParams {
            w_forget: zero.clone(),
            w_input: zero.clone(),
            w_output: zero.clone(),
            w_cell: zero,
            b_forget: vec![0.0; 2],
            b_input: vec![0.0; 2],
            b_output: vec![0.0; 2],
            b_cell: vec![0.0; 2],
        };
        let step = lstm_step(&layer, &params, &[1.0, -1.0], &[0.0, 0.0], &[1.0, 1.0]);
        // sigmoid(0) = 0.5, tanh(0) = 0.
        assert!(step.gates.forget.iter().all(|&g| (g - 0.5).abs() < 1e-6));
        // cell = 0.5 * 1 + 0.5 * 0 = 0.5; hidden = 0.5 * tanh(0.5).
        assert!((step.cell[0] - 0.5).abs() < 1e-6);
        let expected_h = 0.5 * 0.5f32.tanh();
        assert!((step.hidden[0] - expected_h).abs() < 1e-6);
    }

    #[test]
    fn lstm_forget_gate_controls_state_retention() {
        let layer = LstmLayer::new("l", 1, 1);
        // Large positive forget bias -> forget gate ~ 1 -> state retained.
        let zero = Tensor::zeros(&[1, 2]);
        let params = LstmParams {
            w_forget: zero.clone(),
            w_input: zero.clone(),
            w_output: zero.clone(),
            w_cell: zero,
            b_forget: vec![100.0],
            b_input: vec![-100.0],
            b_output: vec![0.0],
            b_cell: vec![0.0],
        };
        let step = lstm_step(&layer, &params, &[0.0], &[0.0], &[0.7]);
        assert!((step.cell[0] - 0.7).abs() < 1e-4);
    }

    #[test]
    fn lstm_random_params_deterministic() {
        let layer = LstmLayer::new("l", 4, 3);
        let p1 = LstmParams::random(&layer, &mut SimRng::seed(11));
        let p2 = LstmParams::random(&layer, &mut SimRng::seed(11));
        assert_eq!(p1, p2);
        assert_eq!(p1.w_forget.shape(), &[3, 7]);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }

    #[test]
    #[should_panic(expected = "input shape does not match")]
    fn conv_shape_mismatch_panics() {
        let layer = ConvLayer::new("bad", 1, 4, 4, 1, 2, 2, 1, 0);
        let input = Tensor::zeros(&[1, 3, 3]);
        let weights = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = conv2d(&layer, &input, &weights);
    }
}
