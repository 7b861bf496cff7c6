//! Randomized tests for the DNN substrate: layer shape arithmetic,
//! reference-compute invariants, and sparsity-mask accounting. Each
//! property runs 256 cases from its own fixed seed, and every assertion
//! names the case and its inputs.

use std::ops::RangeInclusive;

use maeri_dnn::{reference, ConvLayer, PoolLayer, Tensor, WeightMask};
use maeri_sim::SimRng;

const CASES: usize = 256;

/// A uniform draw from `range`.
fn draw(rng: &mut SimRng, range: RangeInclusive<usize>) -> usize {
    range.start() + rng.next_below(range.end() - range.start() + 1)
}

/// A tensor or mask seed in `0..10_000`.
fn draw_seed(rng: &mut SimRng) -> u64 {
    rng.next_below(10_000) as u64
}

/// Convolution output shapes obey the standard formula and every
/// derived count is consistent.
#[test]
fn conv_shape_arithmetic() {
    let mut rng = SimRng::seed(31);
    for case in 0..CASES {
        let in_c = draw(&mut rng, 1..=16);
        let hw = draw(&mut rng, 1..=64);
        let out_c = draw(&mut rng, 1..=16);
        let stride = draw(&mut rng, 1..=4);
        let pad = draw(&mut rng, 0..=3);
        // The kernel (at most 7) always fits the padded input.
        let k = draw(&mut rng, 1..=(hw + 2 * pad).min(7));
        let layer = ConvLayer::new("prop", in_c, hw, hw, out_c, k, k, stride, pad);
        let what = format!("case {case}: {layer}");
        assert_eq!(layer.out_h(), (hw + 2 * pad - k) / stride + 1, "{what}");
        assert!(layer.out_h() >= 1, "{what}");
        assert_eq!(layer.filter_volume(), k * k * in_c, "{what}");
        assert_eq!(
            layer.macs(),
            layer.output_count() as u64 * layer.filter_volume() as u64,
            "{what}"
        );
        assert_eq!(layer.weight_count(), out_c * k * k * in_c, "{what}");
    }
}

/// Convolution is linear in the weights: scaling every weight
/// scales every output.
#[test]
fn conv_is_linear_in_weights() {
    let mut rng = SimRng::seed(32);
    let layer = ConvLayer::new("lin", 2, 6, 6, 2, 3, 3, 1, 1);
    for case in 0..CASES {
        let seed = draw_seed(&mut rng);
        let scale = draw(&mut rng, 1..=8) as f32;
        let mut data = SimRng::seed(seed);
        let input = Tensor::random(&[2, 6, 6], &mut data);
        let weights = Tensor::random(&[2, 2, 3, 3], &mut data);
        let scaled = Tensor::from_vec(
            weights.shape(),
            weights.as_slice().iter().map(|w| w * scale).collect(),
        );
        let base = reference::conv2d(&layer, &input, &weights);
        let big = reference::conv2d(&layer, &input, &scaled);
        for (a, b) in base.as_slice().iter().zip(big.as_slice()) {
            assert!(
                (a * scale - b).abs() < 1e-3 * (1.0 + b.abs()),
                "case {case}: seed {seed}, scale {scale}: {a} * {scale} vs {b}"
            );
        }
    }
}

/// Max pooling never invents values: every output equals some input
/// in its window, and pooling a constant tensor is the identity.
#[test]
fn pool_selects_existing_values() {
    let mut rng = SimRng::seed(33);
    for case in 0..CASES {
        let seed = draw_seed(&mut rng);
        // At least 4 pixels against a window of at most 3: it always fits.
        let hw = draw(&mut rng, 4..=12);
        let window = draw(&mut rng, 2..=3);
        let stride = draw(&mut rng, 1..=3);
        let layer = PoolLayer::new("p", 2, hw, hw, window, stride);
        let input = Tensor::random(&[2, hw, hw], &mut SimRng::seed(seed));
        let out = reference::max_pool(&layer, &input);
        let inputs: std::collections::BTreeSet<u32> =
            input.as_slice().iter().map(|v| v.to_bits()).collect();
        for &v in out.as_slice() {
            assert!(
                inputs.contains(&v.to_bits()),
                "case {case}: {layer}, seed {seed}: pool invented {v}"
            );
        }
    }
}

/// Sparsity masks prune exactly `round(f * volume)` weights in
/// every filter, and applying the mask leaves that many zeros.
#[test]
fn mask_accounting_is_exact() {
    let mut rng = SimRng::seed(34);
    for case in 0..CASES {
        // The first two cases pin both ends of the closed interval.
        let zero_frac = match case {
            0 => 0.0,
            1 => 1.0,
            _ => rng.next_unit_f64(),
        };
        let seed = draw_seed(&mut rng);
        let out_c = draw(&mut rng, 1..=8);
        let what = format!("case {case}: zero_frac {zero_frac}, seed {seed}, out_c {out_c}");
        let layer = ConvLayer::new("m", 4, 8, 8, out_c, 3, 3, 1, 1);
        let mask = WeightMask::generate(&layer, zero_frac, &mut SimRng::seed(seed));
        let volume = layer.filter_volume();
        let expect_zeros = ((zero_frac * volume as f64).round() as usize).min(volume);
        for &nz in mask.nonzeros_per_filter() {
            assert_eq!(nz, volume - expect_zeros, "{what}");
        }
        let mut weights = Tensor::from_fn(&[out_c, 4, 3, 3], |_| 1.0);
        mask.apply(&mut weights);
        let zeros = weights.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, out_c * expect_zeros, "{what}");
    }
}

/// LSTM steps keep the hidden state bounded by the output gate
/// (|h| <= 1 since tanh and sigmoid are bounded).
#[test]
fn lstm_hidden_state_is_bounded() {
    let mut rng = SimRng::seed(35);
    let layer = maeri_dnn::LstmLayer::new("l", 6, 4);
    for case in 0..CASES {
        let seed = draw_seed(&mut rng);
        let mut data = SimRng::seed(seed);
        let params = reference::LstmParams::random(&layer, &mut data);
        let mut h = vec![0.0f32; 4];
        let mut c = vec![0.0f32; 4];
        for step_index in 0..10 {
            let what = format!("case {case}: seed {seed}, step {step_index}");
            let x: Vec<f32> = (0..6).map(|_| data.next_f32()).collect();
            let step = reference::lstm_step(&layer, &params, &x, &h, &c);
            h = step.hidden;
            c = step.cell;
            assert!(h.iter().all(|v| v.abs() <= 1.0 + 1e-6), "{what}: h {h:?}");
            for gate in [&step.gates.forget, &step.gates.input, &step.gates.output] {
                assert!(
                    gate.iter().all(|g| (0.0..=1.0).contains(g)),
                    "{what}: gate {gate:?}"
                );
            }
        }
    }
}
