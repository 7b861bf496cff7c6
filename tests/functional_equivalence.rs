//! Randomized functional equivalence: layers executed through the
//! fabric (multiplier switches + ART interpreter) on the mappers' plans
//! must compute the same values as the plain software reference, over
//! randomized shapes and tensors. Each property runs 48 cases from its
//! own fixed seed, and every assertion names the case and its inputs.

use std::ops::RangeInclusive;

use maeri_repro::dnn::{reference, ConvLayer, FcLayer, PoolLayer, Tensor};
use maeri_repro::fabric::{functional, ConvMapper, FcMapper, MaeriConfig, PoolMapper, VnPolicy};
use maeri_repro::sim::SimRng;

const CASES: usize = 48;

fn cfg() -> MaeriConfig {
    MaeriConfig::paper_64()
}

/// A uniform draw from `range`.
fn draw(rng: &mut SimRng, range: RangeInclusive<usize>) -> usize {
    range.start() + rng.next_below(range.end() - range.start() + 1)
}

/// A tensor seed in `0..10_000`.
fn draw_seed(rng: &mut SimRng) -> u64 {
    rng.next_below(10_000) as u64
}

#[test]
fn conv_fabric_equals_reference() {
    let mut rng = SimRng::seed(11);
    for case in 0..CASES {
        let in_c = draw(&mut rng, 1..=6);
        // At least 4 pixels against a kernel of at most 3: it always fits.
        let hw = draw(&mut rng, 4..=9);
        let out_c = draw(&mut rng, 1..=5);
        let k = draw(&mut rng, 1..=3);
        let stride = draw(&mut rng, 1..=2);
        let pad = draw(&mut rng, 0..=1);
        let seed = draw_seed(&mut rng);
        let layer = ConvLayer::new("prop_conv", in_c, hw, hw, out_c, k, k, stride, pad);
        let what = format!("case {case}: {layer}, seed {seed}");
        let mut data = SimRng::seed(seed);
        let input = Tensor::random(&[in_c, hw, hw], &mut data);
        let weights = Tensor::random(&[out_c, in_c, k, k], &mut data);
        let plan = ConvMapper::new(cfg())
            .plan(&layer, VnPolicy::Auto)
            .expect(&what);
        let fabric = functional::run_conv(&cfg(), &layer, &plan, &input, &weights);
        let expected = reference::conv2d(&layer, &input, &weights);
        let diff = fabric.max_abs_diff(&expected);
        assert!(diff < 1e-3, "{what}: max diff {diff}");
    }
}

#[test]
fn pool_fabric_equals_reference() {
    let mut rng = SimRng::seed(12);
    for case in 0..CASES {
        let channels = draw(&mut rng, 1..=4);
        // At least 4 pixels against a window of at most 3: it always fits.
        let hw = draw(&mut rng, 4..=10);
        let window = draw(&mut rng, 2..=3);
        let stride = draw(&mut rng, 1..=3);
        let seed = draw_seed(&mut rng);
        let layer = PoolLayer::new("prop_pool", channels, hw, hw, window, stride);
        let what = format!("case {case}: {layer}, seed {seed}");
        let input = Tensor::random(&[channels, hw, hw], &mut SimRng::seed(seed));
        let plan = PoolMapper::new(cfg()).plan(&layer).expect(&what);
        let fabric = functional::run_pool(&cfg(), &layer, &plan, &input);
        let diff = fabric.max_abs_diff(&reference::max_pool(&layer, &input));
        assert!(diff < 1e-6, "{what}: max diff {diff}");
    }
}

#[test]
fn fc_fabric_equals_reference() {
    let mut rng = SimRng::seed(13);
    for case in 0..CASES {
        let inputs = draw(&mut rng, 1..=150);
        let outputs = draw(&mut rng, 1..=10);
        let seed = draw_seed(&mut rng);
        let layer = FcLayer::new("prop_fc", inputs, outputs);
        let what = format!("case {case}: {layer}, seed {seed}");
        let mut data = SimRng::seed(seed);
        let x: Vec<f32> = (0..inputs).map(|_| data.next_f32()).collect();
        let weights = Tensor::random(&[outputs, inputs], &mut data);
        let mapper = FcMapper::new(cfg());
        let vn_size = mapper.heuristic_vn_size(&layer).expect(&what);
        let plan = mapper.plan(&layer, vn_size).expect(&what);
        let fabric = functional::run_fc(&cfg(), &layer, &plan, &x, &weights);
        let expected = reference::fully_connected(&layer, &x, &weights);
        for (a, b) in fabric.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-3, "{what}: {a} vs {b}");
        }
    }
}

/// The fabric result is independent of the array size: 64 and 256
/// multiplier switches compute the same convolution.
#[test]
fn conv_result_independent_of_array_size() {
    let mut rng = SimRng::seed(14);
    let layer = ConvLayer::new("size_check", 4, 6, 6, 3, 3, 3, 1, 1);
    for case in 0..CASES {
        let seed = draw_seed(&mut rng);
        let mut data = SimRng::seed(seed);
        let input = Tensor::random(&[4, 6, 6], &mut data);
        let weights = Tensor::random(&[3, 4, 3, 3], &mut data);
        let run = |cfg: MaeriConfig| {
            let plan = ConvMapper::new(cfg).plan(&layer, VnPolicy::Auto).unwrap();
            functional::run_conv(&cfg, &layer, &plan, &input, &weights)
        };
        let small = run(cfg());
        let big = run(MaeriConfig::builder(256).build().unwrap());
        let diff = small.max_abs_diff(&big);
        assert!(diff < 1e-3, "case {case}: seed {seed}: max diff {diff}");
    }
}
