//! Telemetry neutrality: attaching probes must never change what the
//! simulator computes.
//!
//! The plain entry points (`simulate_conv_layer`, `LstmMapper::run`,
//! ...) are thin wrappers over the probed ones with a `NullSink`, so
//! equality there is structural — these tests pin the stronger claims:
//! a *recording* sink observes the run without perturbing it, the
//! telemetry reduction is deterministic, the Chrome export is valid
//! JSON, and the `NullSink` path costs roughly nothing over repeated
//! runs.

use std::time::Instant;

use maeri::cycle_sim::{
    simulate_conv_layer, simulate_conv_layer_probed, simulate_conv_layer_telemetry,
};
use maeri::{FaultSpec, LstmMapper, MaeriConfig, VnPolicy};
use maeri_dnn::{ConvLayer, LstmLayer};
use maeri_telemetry::{ChromeTraceSink, CountingSink, NullSink, TelemetrySink};

fn conv() -> ConvLayer {
    ConvLayer::new("neutral_conv", 16, 13, 13, 32, 3, 3, 1, 1)
}

fn degraded_config() -> MaeriConfig {
    MaeriConfig::builder(64)
        .faults(FaultSpec::new(7).dead_multipliers(150))
        .build()
        .expect("sub-100% fault rates validate")
}

#[test]
fn null_sink_is_neutral_for_conv_layers() {
    let cfg = MaeriConfig::paper_64();
    let plain = simulate_conv_layer(&cfg, &conv(), VnPolicy::Auto).unwrap();
    let probed = simulate_conv_layer_probed(&cfg, &conv(), VnPolicy::Auto, &mut NullSink).unwrap();
    assert_eq!(plain, probed);
}

#[test]
fn null_sink_is_neutral_on_a_faulty_fabric() {
    let cfg = degraded_config();
    let plain = simulate_conv_layer(&cfg, &conv(), VnPolicy::Auto).unwrap();
    let probed = simulate_conv_layer_probed(&cfg, &conv(), VnPolicy::Auto, &mut NullSink).unwrap();
    assert_eq!(plain, probed);
}

#[test]
fn null_sink_is_neutral_for_lstm_mappings() {
    let mapper = LstmMapper::new(MaeriConfig::paper_64());
    let layer = LstmLayer::new("neutral_lstm", 128, 256);
    let plain = mapper.run(&layer).unwrap();
    let probed = mapper.run_probed(&layer, &mut NullSink).unwrap();
    assert_eq!(plain, probed);
}

#[test]
fn recording_sinks_observe_without_perturbing() {
    let cfg = MaeriConfig::paper_64();
    let plain = simulate_conv_layer(&cfg, &conv(), VnPolicy::Auto).unwrap();

    let mut counting = CountingSink::new();
    let counted = simulate_conv_layer_probed(&cfg, &conv(), VnPolicy::Auto, &mut counting).unwrap();
    assert_eq!(
        plain, counted,
        "a counting observer must not change the run"
    );
    assert!(counting.total() > 0, "the probes must actually fire");

    let mut full = TelemetrySink::new();
    let traced = simulate_conv_layer_probed(&cfg, &conv(), VnPolicy::Auto, &mut full).unwrap();
    assert_eq!(
        plain, traced,
        "the telemetry reducer must not change the run"
    );
    assert!(full.end_cycle() > 0);
}

#[test]
fn chrome_export_is_valid_trace_json() {
    let cfg = MaeriConfig::paper_64();
    let mut sink = ChromeTraceSink::new();
    let probed = simulate_conv_layer_probed(&cfg, &conv(), VnPolicy::Auto, &mut sink).unwrap();
    let plain = simulate_conv_layer(&cfg, &conv(), VnPolicy::Auto).unwrap();
    assert_eq!(plain, probed, "trace capture must not change the run");
    assert!(!sink.is_empty());
    let rendered = sink.render();
    maeri_telemetry::json::validate(&rendered).expect("Chrome trace must be valid JSON");
    assert!(rendered.contains("\"traceEvents\""));
    // Completed reductions become "X" duration slices named vn_reduce.
    assert!(rendered.contains("\"name\":\"vn_reduce\",\"cat\":\"fabric\",\"ph\":\"X\""));
}

#[test]
fn telemetry_reduction_is_deterministic() {
    let cfg = MaeriConfig::paper_64();
    let (trace_a, fabric_a) = simulate_conv_layer_telemetry(&cfg, &conv(), VnPolicy::Auto).unwrap();
    let (trace_b, fabric_b) = simulate_conv_layer_telemetry(&cfg, &conv(), VnPolicy::Auto).unwrap();
    assert_eq!(trace_a, trace_b);
    assert_eq!(fabric_a.canonical_text(), fabric_b.canonical_text());
    assert!(fabric_a.total_events() > 0);
}

#[test]
fn null_sink_overhead_is_negligible() {
    // Lenient min-of-N wall-clock guard: the NullSink path compiles to
    // the same machine code as the plain path, so their best-of-five
    // times must be close. Generous bound — CI boxes are noisy.
    let cfg = MaeriConfig::paper_64();
    let layer = conv();
    // Warm up both paths.
    let _ = simulate_conv_layer(&cfg, &layer, VnPolicy::Auto).unwrap();
    let _ = simulate_conv_layer_probed(&cfg, &layer, VnPolicy::Auto, &mut NullSink).unwrap();
    let best = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let plain = best(&|| {
        let _ = simulate_conv_layer(&cfg, &layer, VnPolicy::Auto).unwrap();
    });
    let probed = best(&|| {
        let _ = simulate_conv_layer_probed(&cfg, &layer, VnPolicy::Auto, &mut NullSink).unwrap();
    });
    assert!(
        probed.as_secs_f64() <= plain.as_secs_f64() * 2.0 + 0.005,
        "NullSink-probed best {probed:?} vs plain best {plain:?}"
    );
}
