//! Randomized tests of the dataflow mappers' cost-model invariants:
//! work conservation, causal utilization, and bandwidth monotonicity.
//! Each property runs 64 cases from its own fixed seed, and every
//! assertion names the case and its inputs.

use std::ops::RangeInclusive;

use maeri::{ConvMapper, FcMapper, LstmMapper, MaeriConfig, PoolMapper, VnPolicy};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer, PoolLayer};
use maeri_sim::SimRng;

const CASES: usize = 64;

/// A uniform draw from `range`.
fn draw(rng: &mut SimRng, range: RangeInclusive<usize>) -> usize {
    range.start() + rng.next_below(range.end() - range.start() + 1)
}

/// A random square CONV layer, redrawn until the kernel fits the
/// padded input.
fn arb_conv(rng: &mut SimRng) -> ConvLayer {
    loop {
        let c = draw(rng, 1..=32);
        let hw = draw(rng, 4..=32);
        let k_out = draw(rng, 1..=32);
        let k = draw(rng, 1..=5);
        let s = draw(rng, 1..=3);
        let p = draw(rng, 0..=2);
        if hw + 2 * p >= k {
            return ConvLayer::new("prop", c, hw, hw, k_out, k, k, s, p);
        }
    }
}

/// Cycles of `layer` on `switches` multipliers with both trees `bw`
/// wide.
fn conv_cycles(switches: usize, bw: usize, layer: &ConvLayer, what: &str) -> u64 {
    let cfg = MaeriConfig::builder(switches)
        .distribution_bandwidth(bw)
        .collection_bandwidth(bw)
        .build()
        .unwrap();
    ConvMapper::new(cfg)
        .run(layer, VnPolicy::Auto)
        .expect(what)
        .cycles
        .as_u64()
}

/// Every dense CONV mapping conserves work, stays causal
/// (utilization in (0, 1]), and accounts at least the weights as
/// SRAM reads.
#[test]
fn conv_mapping_invariants() {
    let mut rng = SimRng::seed(21);
    for case in 0..CASES {
        let layer = arb_conv(&mut rng);
        let what = format!("case {case}: {layer}");
        let run = ConvMapper::new(MaeriConfig::paper_64())
            .run(&layer, VnPolicy::Auto)
            .expect(&what);
        assert_eq!(run.macs, layer.macs(), "{what}");
        assert!(run.cycles.as_u64() > 0, "{what}");
        let util = run.utilization();
        assert!(util > 0.0 && util <= 1.0 + 1e-9, "{what}: util {util}");
        assert!(run.sram_reads >= layer.weight_count() as u64, "{what}");
        assert_eq!(run.sram_writes, layer.output_count() as u64, "{what}");
    }
}

/// Widening both trees never slows a CONV layer down.
#[test]
fn conv_bandwidth_monotonicity() {
    let mut rng = SimRng::seed(22);
    for case in 0..CASES {
        let layer = arb_conv(&mut rng);
        let what = format!("case {case}: {layer}");
        let mut prev = u64::MAX;
        for bw in [2usize, 4, 8, 16] {
            let cycles = conv_cycles(64, bw, &layer, &what);
            assert!(cycles <= prev, "{what}: bw {bw} slower: {cycles} > {prev}");
            prev = cycles;
        }
    }
}

/// A larger array is never slower at matched bandwidth-per-switch.
#[test]
fn conv_scales_with_array() {
    let mut rng = SimRng::seed(23);
    for case in 0..CASES {
        let layer = arb_conv(&mut rng);
        let what = format!("case {case}: {layer}");
        let small = conv_cycles(64, 8, &layer, &what);
        let big = conv_cycles(256, 32, &layer, &what);
        assert!(
            big <= small + 64,
            "{what}: 256 switches slower: {big} vs {small}"
        );
    }
}

/// FC and LSTM mappings conserve work and stay causal.
#[test]
fn fc_lstm_pool_invariants() {
    let mut rng = SimRng::seed(24);
    let cfg = MaeriConfig::paper_64();
    for case in 0..CASES {
        let inputs = draw(&mut rng, 1..=512);
        let outputs = draw(&mut rng, 1..=64);
        let hidden = draw(&mut rng, 1..=64);
        let channels = draw(&mut rng, 1..=8);
        let window = draw(&mut rng, 2..=3);
        let what = format!(
            "case {case}: inputs {inputs}, outputs {outputs}, hidden {hidden}, \
             channels {channels}, window {window}"
        );

        let fc = FcLayer::new("fc", inputs, outputs);
        let run = FcMapper::new(cfg).run(&fc).expect(&what);
        assert_eq!(run.macs, fc.macs(), "{what}");
        assert!(run.utilization() <= 1.0 + 1e-9, "{what}");

        let lstm = LstmLayer::new("l", inputs, hidden);
        let run = LstmMapper::new(cfg).run(&lstm).expect(&what);
        assert_eq!(run.macs, lstm.gate_macs() + lstm.state_macs(), "{what}");
        assert!(run.utilization() <= 1.0 + 1e-9, "{what}");

        let pool = PoolLayer::new("p", channels, 8, 8, window, window);
        let run = PoolMapper::new(cfg).run(&pool).expect(&what);
        assert_eq!(run.macs, pool.comparisons(), "{what}");
        assert!(run.utilization() <= 1.0 + 1e-9, "{what}");
    }
}
