//! End-to-end fault tolerance: a degraded fabric must either produce
//! reference-exact outputs (VNs carved around the dead hardware) or
//! fail with a clean mapping error — never a panic, never a silently
//! wrong value.

use maeri::{ConvMapper, FaultPlan, FaultSpec, FcMapper, MaeriConfig, SparseConvMapper, VnPolicy};
use maeri_dnn::{reference, ConvLayer, FcLayer, Tensor, WeightMask};
use maeri_sim::SimRng;

fn faulty_cfg(seed: u64, dead_mult_permille: u16) -> MaeriConfig {
    MaeriConfig::builder(64)
        .distribution_bandwidth(8)
        .collection_bandwidth(8)
        .faults(FaultSpec::new(seed).dead_multipliers(dead_mult_permille))
        .build()
        .unwrap()
}

#[test]
fn conv_matches_reference_up_to_25_percent_dead_multipliers() {
    let layer = ConvLayer::new("ft_conv", 3, 6, 6, 4, 3, 3, 1, 1);
    let mut rng = SimRng::seed(1001);
    let input = Tensor::random(&[3, 6, 6], &mut rng);
    let weights = Tensor::random(&[4, 3, 3, 3], &mut rng);
    let expected = reference::conv2d(&layer, &input, &weights);
    for permille in [50u16, 125, 250] {
        for seed in 0..4u64 {
            // Every pair plans: a slice wider than the largest healthy
            // span subfolds instead of being refused.
            let cfg = faulty_cfg(seed, permille);
            let plan = ConvMapper::new(cfg).plan(&layer, VnPolicy::Auto).unwrap();
            let out = maeri::functional::run_conv(&cfg, &layer, &plan, &input, &weights);
            assert!(
                out.max_abs_diff(&expected) < 1e-3,
                "seed {seed} rate {permille}: wrong values"
            );
        }
    }
}

#[test]
fn fc_matches_reference_under_faults() {
    let layer = FcLayer::new("ft_fc", 100, 7);
    let mut rng = SimRng::seed(1002);
    let input: Vec<f32> = (0..100).map(|_| rng.next_f32()).collect();
    let weights = Tensor::random(&[7, 100], &mut rng);
    let expected = reference::fully_connected(&layer, &input, &weights);
    for seed in 0..4u64 {
        let cfg = faulty_cfg(seed, 250);
        let mapper = FcMapper::new(cfg);
        let plan = mapper
            .plan(&layer, mapper.heuristic_vn_size(&layer).unwrap())
            .unwrap();
        let out = maeri::functional::run_fc(&cfg, &layer, &plan, &input, &weights);
        for (a, b) in out.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-3, "seed {seed}: {a} vs {b}");
        }
    }
}

#[test]
fn sparse_mapper_runs_on_degraded_fabric() {
    let layer = ConvLayer::new("ft_sparse", 3, 8, 8, 8, 3, 3, 1, 1);
    let mask = WeightMask::generate(&layer, 0.5, &mut SimRng::seed(99));
    for seed in 0..4u64 {
        let cfg = faulty_cfg(seed, 250);
        let run = SparseConvMapper::new(cfg).run(&layer, &mask, 3).unwrap();
        // The surviving MAC count does not depend on which switches
        // died — only the schedule does.
        let clean = SparseConvMapper::new(MaeriConfig::paper_64())
            .run(&layer, &mask, 3)
            .unwrap();
        assert_eq!(run.macs, clean.macs, "seed {seed}");
        assert!(run.cycles >= clean.cycles, "faults never speed things up");
    }
}

#[test]
fn degraded_fabric_is_slower_not_wrong() {
    let layer = ConvLayer::new("slow", 16, 14, 14, 8, 3, 3, 1, 1);
    let clean = ConvMapper::new(MaeriConfig::paper_64())
        .run(&layer, VnPolicy::Auto)
        .unwrap();
    let degraded = ConvMapper::new(faulty_cfg(7, 250))
        .run(&layer, VnPolicy::Auto)
        .unwrap();
    assert_eq!(degraded.macs, clean.macs);
    assert!(degraded.cycles >= clean.cycles);
}

#[test]
fn fault_plans_are_deterministic_and_serializable() {
    let spec = FaultSpec::new(42)
        .dead_multipliers(200)
        .dead_adders(50)
        .dead_forwarding_links(100)
        .flit_drops(30)
        .flit_delay(2);
    let a = FaultPlan::materialize(spec, 64);
    let b = FaultPlan::materialize(spec, 64);
    assert_eq!(a, b);
    // A different seed moves the dead set.
    let c = FaultPlan::materialize(FaultSpec::new(43).dead_multipliers(200), 64);
    assert_ne!(a.dead_leaves(), c.dead_leaves());
    // Yield accounts for dead adder subtrees as well as dead leaves.
    assert!(a.yield_fraction() < 1.0);
    assert!(a.yield_fraction() > 0.0);
}

#[test]
fn total_fault_plan_yields_clean_mapping_error() {
    let cfg = MaeriConfig::builder(64)
        .faults(FaultSpec::new(5).dead_multipliers(1000))
        .build()
        .unwrap();
    let layer = ConvLayer::new("dead", 1, 4, 4, 1, 2, 2, 1, 0);
    let err = ConvMapper::new(cfg)
        .run(&layer, VnPolicy::Auto)
        .unwrap_err();
    assert!(
        err.to_string().contains("faulty"),
        "expected a fault-mapping error, got: {err}"
    );
    let fc_err = FcMapper::new(cfg)
        .run(&FcLayer::new("fc", 8, 2))
        .unwrap_err();
    assert!(fc_err.to_string().contains("faulty"), "{fc_err}");
}

#[test]
fn vn_size_one_maps_everywhere_healthy() {
    // Edge case: a VN of one multiplier fits any healthy leaf, so the
    // mapping only fails when the whole array is dead.
    let cfg = faulty_cfg(3, 250);
    let layer = ConvLayer::new("tiny", 1, 4, 4, 2, 1, 1, 1, 0);
    let run = ConvMapper::new(cfg)
        .run(&layer, VnPolicy::ChannelsPerVn(1))
        .unwrap();
    assert_eq!(run.macs, layer.macs());
}

#[test]
fn vn_spanning_full_array_requires_a_fault_free_fabric() {
    // Edge case: a 64-leaf VN needs all 64 switches contiguously; one
    // dead multiplier forces a deeper fold instead of an error.
    let clean = MaeriConfig::paper_64();
    let layer = FcLayer::new("wide", 64, 4);
    let run = FcMapper::new(clean).run(&layer).unwrap();
    assert_eq!(run.extra.get("fc_fold"), 1);
    let degraded = FcMapper::new(faulty_cfg(11, 50)).run(&layer).unwrap();
    assert!(degraded.extra.get("fc_fold") >= 2);
    assert_eq!(run.macs, degraded.macs);
}

#[test]
fn flit_faults_slow_the_clocked_trace() {
    use maeri::cycle_sim::{simulate_conv_iteration, LaneSpec};
    let clean = MaeriConfig::paper_64();
    let flaky = MaeriConfig::builder(64)
        .distribution_bandwidth(8)
        .collection_bandwidth(8)
        .faults(FaultSpec::new(9).flit_drops(200).flit_delay(3))
        .build()
        .unwrap();
    let lanes = vec![
        LaneSpec {
            vn_size: 9,
            fresh_inputs_per_step: 6,
        };
        7
    ];
    let a = simulate_conv_iteration(&clean, &lanes, 50, 3).unwrap();
    let b = simulate_conv_iteration(&flaky, &lanes, 50, 3).unwrap();
    assert_eq!(a.waves_completed, b.waves_completed);
    assert!(
        b.cycles > a.cycles,
        "flit loss must cost cycles: {} vs {}",
        b.cycles.as_u64(),
        a.cycles.as_u64()
    );
    assert!(b.extra.get("flits_dropped") > 0);
    // Same seed, same trace: the flit stream is deterministic.
    let c = simulate_conv_iteration(&flaky, &lanes, 50, 3).unwrap();
    assert_eq!(b, c);
}

#[test]
fn oversized_and_zero_vn_sizes_rejected_by_trace() {
    use maeri::cycle_sim::{simulate_conv_iteration, LaneSpec};
    let cfg = MaeriConfig::paper_64();
    let too_big = vec![LaneSpec {
        vn_size: 65,
        fresh_inputs_per_step: 1,
    }];
    let err = simulate_conv_iteration(&cfg, &too_big, 1, 0).unwrap_err();
    assert!(
        err.to_string().contains("vn_size 65 out of range 1..=64"),
        "{err}"
    );
    let zero = vec![LaneSpec {
        vn_size: 0,
        fresh_inputs_per_step: 1,
    }];
    let err = simulate_conv_iteration(&cfg, &zero, 1, 0).unwrap_err();
    assert!(
        err.to_string().contains("vn_size 0 out of range 1..=64"),
        "{err}"
    );
}
