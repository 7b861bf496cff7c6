//! The functional model runs the mappers' own plans, so over seeded
//! random fabrics (16, 32 or 64 leaves: a third healthy, a third with
//! 0–399‰ dead multipliers, a third with 300‰ severed forwarding links)
//! and random mapping knobs, every plan a mapper produces must compute
//! the software reference's values: CONV and FC within 1e-3, pooling
//! within 1e-6 and an LSTM step within the activation LUTs' 5e-3.

use maeri::fault::FaultSpec;
use maeri::functional::{run_conv, run_fc, run_lstm_step, run_pool};
use maeri::{
    ConvMapper, ConvMapping, FcMapper, LoopOrder, LstmMapper, MaeriConfig, PoolMapper, VnPolicy,
};
use maeri_dnn::reference::{self, LstmParams};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer, PoolLayer, Tensor};
use maeri_sim::SimRng;

/// Plans that ran, per kind, and the folded shapes among them.
#[derive(Debug, Default)]
struct Tally {
    conv: usize,
    conv_subfolded: usize,
    conv_row_major: usize,
    fc: usize,
    pool: usize,
    pool_folded: usize,
    lstm: usize,
}

fn random_vec(len: usize, rng: &mut SimRng) -> Vec<f32> {
    (0..len).map(|_| rng.next_f32()).collect()
}

fn check_conv(cfg: &MaeriConfig, rng: &mut SimRng, tally: &mut Tally, what: &str) {
    let c = 1 + rng.next_below(6);
    let k = 1 + rng.next_below(5);
    let kernel = 1 + rng.next_below(6);
    let (stride, pad) = (1 + rng.next_below(2), rng.next_below(2));
    let hw = kernel + rng.next_below(4);
    let layer = ConvLayer::new("conv", c, hw, hw, k, kernel, kernel, stride, pad);
    let mapping = ConvMapping {
        channel_tile: 1 + rng.next_below(c),
        max_vns: 1 + rng.next_below(cfg.num_mult_switches()),
        loop_order: [LoopOrder::FilterMajor, LoopOrder::RowMajor][rng.next_below(2)],
    };
    let input = Tensor::random(&[c, hw, hw], rng);
    let weights = Tensor::random(&[k, c, kernel, kernel], rng);
    let Ok(plan) = ConvMapper::new(*cfg).plan(&layer, VnPolicy::Explicit(mapping)) else {
        return;
    };
    let diff = run_conv(cfg, &layer, &plan, &input, &weights)
        .max_abs_diff(&reference::conv2d(&layer, &input, &weights));
    assert!(
        diff < 1e-3,
        "{what}: {layer} on {mapping:?} is off by {diff}"
    );
    tally.conv += 1;
    tally.conv_subfolded += usize::from(plan.subfold > 1);
    tally.conv_row_major += usize::from(mapping.loop_order == LoopOrder::RowMajor);
}

fn check_fc(cfg: &MaeriConfig, rng: &mut SimRng, tally: &mut Tally, what: &str) {
    let inputs = 1 + rng.next_below(150);
    let layer = FcLayer::new("fc", inputs, 1 + rng.next_below(6));
    let vn_size = 1 + rng.next_below(inputs.min(cfg.num_mult_switches()));
    let x = random_vec(inputs, rng);
    let weights = Tensor::random(&[layer.outputs, inputs], rng);
    let Ok(plan) = FcMapper::new(*cfg).plan(&layer, vn_size) else {
        return;
    };
    let fabric = run_fc(cfg, &layer, &plan, &x, &weights);
    for (a, b) in fabric
        .iter()
        .zip(reference::fully_connected(&layer, &x, &weights))
    {
        assert!(
            (a - b).abs() < 1e-3,
            "{what}: {layer} at vn_size {vn_size}: {a} vs {b}"
        );
    }
    tally.fc += 1;
}

fn check_pool(cfg: &MaeriConfig, rng: &mut SimRng, tally: &mut Tally, what: &str) {
    let window = 2 + rng.next_below(6);
    let (channels, stride) = (1 + rng.next_below(3), 1 + rng.next_below(window));
    let hw = window + rng.next_below(4);
    let layer = PoolLayer::new("pool", channels, hw, hw, window, stride);
    let input = Tensor::random(&[channels, hw, hw], rng);
    let Ok(plan) = PoolMapper::new(*cfg).plan(&layer) else {
        return;
    };
    let diff =
        run_pool(cfg, &layer, &plan, &input).max_abs_diff(&reference::max_pool(&layer, &input));
    assert!(diff < 1e-6, "{what}: {layer} is off by {diff}");
    tally.pool += 1;
    tally.pool_folded += usize::from(plan.fold > 1);
}

fn check_lstm(cfg: &MaeriConfig, rng: &mut SimRng, tally: &mut Tally, what: &str) {
    let (input_dim, hidden) = (1 + rng.next_below(20), 1 + rng.next_below(12));
    let layer = LstmLayer::new("lstm", input_dim, hidden);
    let d = input_dim + hidden;
    let vn_size = 1 + rng.next_below(d.min(cfg.num_mult_switches()));
    let params = LstmParams::random(&layer, rng);
    let (x, h0, c0) = (
        random_vec(input_dim, rng),
        random_vec(hidden, rng),
        random_vec(hidden, rng),
    );
    let (Ok(plan), Ok(_)) = (
        LstmMapper::gate_plan(cfg, &layer, vn_size),
        LstmMapper::state_plan(cfg),
    ) else {
        return;
    };
    let (h, c) = run_lstm_step(cfg, &layer, &plan, &params, &x, &h0, &c0).unwrap();
    let expected = reference::lstm_step(&layer, &params, &x, &h0, &c0);
    let fabric = h.iter().chain(&c);
    for (a, b) in fabric.zip(expected.hidden.iter().chain(&expected.cell)) {
        assert!(
            (a - b).abs() < 5e-3,
            "{what}: {layer} at gate_vn_size {vn_size}: {a} vs {b}"
        );
    }
    tally.lstm += 1;
}

#[test]
fn functional_model_equals_reference_on_random_plans() {
    let mut rng = SimRng::seed(77);
    let mut tally = Tally::default();
    for case in 0..400u64 {
        let leaves = [16, 32, 64][rng.next_below(3)];
        let faults = match case % 3 {
            0 => None,
            1 => Some(FaultSpec::new(case).dead_multipliers(rng.next_below(400) as u16)),
            _ => Some(FaultSpec::new(case).dead_forwarding_links(300)),
        };
        let mut builder = MaeriConfig::builder(leaves);
        if let Some(faults) = faults {
            builder = builder.faults(faults);
        }
        let cfg = builder.build().unwrap();
        let what = format!("case {case}: {leaves} leaves, {faults:?}");
        check_conv(&cfg, &mut rng, &mut tally, &what);
        check_fc(&cfg, &mut rng, &mut tally, &what);
        check_pool(&cfg, &mut rng, &mut tally, &what);
        check_lstm(&cfg, &mut rng, &mut tally, &what);
    }
    println!("{tally:?}");
    assert!(
        tally.conv_subfolded > 0 && tally.conv_row_major > 0 && tally.pool_folded > 0,
        "{tally:?}"
    );
}
