//! Property-based functional equivalence: layers executed through the
//! fabric (multiplier switches + ART interpreter) on the mappers' plans
//! must compute the same values as the plain software reference, over
//! randomized shapes and tensors.

use maeri_repro::dnn::{reference, ConvLayer, FcLayer, PoolLayer, Tensor};
use maeri_repro::fabric::{functional, ConvMapper, FcMapper, MaeriConfig, PoolMapper, VnPolicy};
use maeri_repro::sim::SimRng;
use proptest::prelude::*;

fn cfg() -> MaeriConfig {
    MaeriConfig::paper_64()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_fabric_equals_reference(
        in_c in 1usize..=6,
        hw in 4usize..=9,
        out_c in 1usize..=5,
        k in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=1,
        seed in 0u64..10_000,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let layer = ConvLayer::new("prop_conv", in_c, hw, hw, out_c, k, k, stride, pad);
        let mut rng = SimRng::seed(seed);
        let input = Tensor::random(&[in_c, hw, hw], &mut rng);
        let weights = Tensor::random(&[out_c, in_c, k, k], &mut rng);
        let plan = ConvMapper::new(cfg()).plan(&layer, VnPolicy::Auto).expect("mappable");
        let fabric = functional::run_conv(&cfg(), &layer, &plan, &input, &weights);
        let expected = reference::conv2d(&layer, &input, &weights);
        prop_assert!(
            fabric.max_abs_diff(&expected) < 1e-3,
            "max diff {}", fabric.max_abs_diff(&expected)
        );
    }

    #[test]
    fn pool_fabric_equals_reference(
        channels in 1usize..=4,
        hw in 4usize..=10,
        window in 2usize..=3,
        stride in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        prop_assume!(window <= hw);
        let layer = PoolLayer::new("prop_pool", channels, hw, hw, window, stride);
        let mut rng = SimRng::seed(seed);
        let input = Tensor::random(&[channels, hw, hw], &mut rng);
        let plan = PoolMapper::new(cfg()).plan(&layer).expect("mappable");
        let fabric = functional::run_pool(&cfg(), &layer, &plan, &input);
        let expected = reference::max_pool(&layer, &input);
        prop_assert!(fabric.max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn fc_fabric_equals_reference(
        inputs in 1usize..=150,
        outputs in 1usize..=10,
        seed in 0u64..10_000,
    ) {
        let layer = FcLayer::new("prop_fc", inputs, outputs);
        let mut rng = SimRng::seed(seed);
        let x: Vec<f32> = (0..inputs).map(|_| rng.next_f32()).collect();
        let weights = Tensor::random(&[outputs, inputs], &mut rng);
        let mapper = FcMapper::new(cfg());
        let vn_size = mapper.heuristic_vn_size(&layer).expect("mappable");
        let plan = mapper.plan(&layer, vn_size).expect("mappable");
        let fabric = functional::run_fc(&cfg(), &layer, &plan, &x, &weights);
        let expected = reference::fully_connected(&layer, &x, &weights);
        for (a, b) in fabric.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// The fabric result is independent of the array size: 64 and 256
    /// multiplier switches compute the same convolution.
    #[test]
    fn conv_result_independent_of_array_size(
        seed in 0u64..10_000,
    ) {
        let layer = ConvLayer::new("size_check", 4, 6, 6, 3, 3, 3, 1, 1);
        let mut rng = SimRng::seed(seed);
        let input = Tensor::random(&[4, 6, 6], &mut rng);
        let weights = Tensor::random(&[3, 4, 3, 3], &mut rng);
        let run = |cfg: MaeriConfig| {
            let plan = ConvMapper::new(cfg).plan(&layer, VnPolicy::Auto).unwrap();
            functional::run_conv(&cfg, &layer, &plan, &input, &weights)
        };
        let small = run(cfg());
        let big = run(MaeriConfig::builder(256).build().unwrap());
        prop_assert!(small.max_abs_diff(&big) < 1e-3);
    }
}
