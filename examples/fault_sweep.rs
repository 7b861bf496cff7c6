//! Fault-injection walkthrough: materialize a seeded fault plan, watch
//! the mappers carve virtual neurons around the dead multiplier
//! switches, and run the degraded sweep as one batch on a private
//! runtime (each job runs once, with a failure isolated to its own
//! result).
//!
//! Run with: `cargo run --release --example fault_sweep`

use maeri_repro::dnn::ConvLayer;
use maeri_repro::fabric::{FaultPlan, FaultSpec, MaeriConfig, VnPolicy};
use maeri_repro::runtime::{Runtime, SimJob};
use maeri_repro::sim::table::{fmt_f64, fmt_pct, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A seeded fault spec is a deterministic, serializable artifact:
    // the same seed places the same dead switches on every machine.
    let spec = FaultSpec::new(42).dead_multipliers(250);
    let plan = FaultPlan::materialize(spec, 64);
    println!(
        "fault plan (seed 42, 25% injected): {} of 64 switches dead, yield {:.1}%",
        plan.dead_leaves().len(),
        plan.yield_fraction() * 100.0
    );
    let spans: Vec<String> = plan
        .healthy_spans()
        .iter()
        .map(|s| format!("{}..{}", s.start, s.end()))
        .collect();
    println!("healthy spans the mappers can pack: {}\n", spans.join(", "));

    // A private runtime: a job that panics fails alone, as a
    // `JobError` in its own slot, and the rest of the sweep completes.
    let runtime = Runtime::new(4);

    let layer = ConvLayer::new("vgg_style", 64, 28, 28, 64, 3, 3, 1, 1);
    println!("layer: {layer}\n");

    let rates = [0u16, 50, 100, 150, 200, 250];
    let jobs: Vec<SimJob> = rates
        .iter()
        .map(|&rate| {
            let mut builder = MaeriConfig::builder(64);
            if rate > 0 {
                builder = builder.faults(FaultSpec::new(42).dead_multipliers(rate));
            }
            Ok(SimJob::dense_conv(
                builder.build()?,
                layer.clone(),
                VnPolicy::Auto,
            ))
        })
        .collect::<Result<_, maeri_repro::sim::SimError>>()?;
    let results = runtime.run_phase("fault_sweep", &jobs);

    let mut table = Table::new(vec!["dead switches", "cycles", "utilization", "slowdown"]);
    let clean_cycles = results[0].as_ref().unwrap().run_stats().unwrap().cycles;
    for (&rate, result) in rates.iter().zip(&results) {
        let run = result.as_ref().unwrap().run_stats().unwrap();
        table.row(vec![
            format!("{:.1}%", f64::from(rate) / 10.0),
            run.cycles.to_string(),
            fmt_pct(run.utilization()),
            format!(
                "{}x",
                fmt_f64(run.cycles.as_f64() / clean_cycles.as_f64(), 2)
            ),
        ]);
    }
    print!("{table}");

    println!("\n{}", runtime.metrics().render().trim_end());
    Ok(())
}
