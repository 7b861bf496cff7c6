//! Quickstart: map one convolution layer onto MAERI, inspect the
//! mapping, and verify the fabric's arithmetic against the software
//! reference.
//!
//! Run with: `cargo run --example quickstart`

use maeri_repro::dnn::{reference, ConvLayer, Tensor};
use maeri_repro::fabric::{functional, ConvMapper, MaeriConfig, VnPolicy};
use maeri_repro::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's evaluation fabric: 64 multiplier switches, 8x chubby
    // distribution tree, 8-wide ART collection.
    let cfg = MaeriConfig::paper_64();
    println!(
        "fabric: {} multiplier switches, {}x distribution bandwidth, ART depth {}",
        cfg.num_mult_switches(),
        cfg.dist_bandwidth(),
        cfg.art_depth()
    );

    // A small VGG-flavoured layer: 16 filters of 3x3x8 over 16x16.
    let layer = ConvLayer::new("demo_conv", 8, 16, 16, 16, 3, 3, 1, 1);
    println!("layer: {layer}");

    // 1) Plan the mapping: how are virtual neurons carved out?
    let mapper = ConvMapper::new(cfg);
    let plan = mapper.plan(&layer, VnPolicy::Auto)?;
    println!(
        "mapping: {} VNs of {} switches each ({} channels per VN), {} fold passes, \
         {} iterations",
        plan.num_vns,
        plan.vn_size,
        plan.channel_tile,
        plan.fold_factor(),
        plan.iterations
    );

    // 2) Cost that plan: cycles, utilization, SRAM traffic.
    let run = mapper.cost(&layer, &plan);
    println!(
        "cost: {} cycles, {:.1}% multiplier utilization, {} SRAM reads, {} writes",
        run.cycles.as_u64(),
        run.utilization() * 100.0,
        run.sram_reads,
        run.sram_writes
    );

    // 3) Prove the fabric computes the right values on the plan printed
    //    in step 1: drive synthetic tensors through its multiplier
    //    switches and ART, then compare against a plain software
    //    convolution.
    let mut rng = SimRng::seed(2024);
    let input = Tensor::random(&[8, 16, 16], &mut rng);
    let weights = Tensor::random(&[16, 8, 3, 3], &mut rng);
    let fabric_out = functional::run_conv(&cfg, &layer, &plan, &input, &weights);
    let reference_out = reference::conv2d(&layer, &input, &weights);
    let max_err = fabric_out.max_abs_diff(&reference_out);
    println!("functional check: max |fabric - reference| = {max_err:.2e}");
    assert!(max_err < 1e-3, "fabric arithmetic must match the reference");
    println!("OK — the reconfigurable trees computed the exact convolution.");
    Ok(())
}
