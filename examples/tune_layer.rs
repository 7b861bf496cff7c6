//! Tune one CONV layer's mapping with the mapping-space search engine.
//!
//! Sweeps VN partition (channel tile), replication cap, and loop order
//! for an AlexNet-C3-shaped layer on the paper's 64-switch fabric,
//! validates the analytic frontier against the clocked simulator, and
//! prints the tuned-vs-heuristic outcome.
//!
//! `cargo run --example tune_layer` — the exhaustive search.
//! `cargo run --example tune_layer -- --faulty` — the same search for
//! an FC layer on a fabric with dead multiplier switches; the static
//! verifier prunes every VN size the mapper's plan refuses before
//! scoring (CI asserts the printed count, `statically rejected: 60`).

use maeri_repro::dnn::{ConvLayer, FcLayer};
use maeri_repro::fabric::fault::FaultSpec;
use maeri_repro::fabric::MaeriConfig;
use maeri_repro::mapspace::{search, SearchLayer, SearchSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut faulty = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--faulty" => faulty = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    let spec = if faulty {
        // Dead multipliers shrink the largest healthy span below 64, so
        // part of the FC vn_size range becomes statically illegal.
        let base = MaeriConfig::builder(64)
            .faults(FaultSpec::new(5).dead_multipliers(500))
            .build()?;
        let layer = FcLayer::new("fc6", 256, 64);
        SearchSpec::new(SearchLayer::Fc(layer), base)
    } else {
        let layer = ConvLayer::new("alexnet_c3", 256, 13, 13, 384, 3, 3, 1, 1);
        SearchSpec::new(SearchLayer::Conv(layer), MaeriConfig::paper_64())
    };
    let result = search(&spec)?;

    print!("{}", result.canonical_text());
    if faulty {
        println!(
            "statically rejected: {}",
            result.counters.statically_rejected
        );
    }
    println!(
        "tuned mapping is {} ({} -> {} cycles, {:.3}x)",
        result.describe(&result.best.candidate),
        result.heuristic_cycles(),
        result.best_cycles(),
        result.speedup()
    );
    Ok(())
}
