//! The paper's evaluation experiments, as reusable functions.
//!
//! Everything here is deterministic (seeded RNG) so binaries and tests
//! regenerate identical numbers.
//!
//! The dataflow sweeps (Figs. 12-14, 17) are expressed as
//! [`SimJob`] batches and submitted to the shared [`Runtime`], which
//! parallelizes them across workers and caches identical points: the
//! headline summary re-visits the figure sweeps and is answered from
//! cache. Results come back in job order, so the numbers are
//! bit-identical to the old serial loops.

use maeri::analytic::AnalyticResult;
use maeri::engine::RunStats;
use maeri::{FaultSpec, MaeriConfig, VnPolicy};
use maeri_dnn::layer::Layer;
use maeri_dnn::{zoo, ConvLayer};
use maeri_mapspace::{SearchLayer, SearchResult, SearchSpec};
use maeri_noc::ppa::{compare_all, NocKind, NocPpa};
use maeri_noc::reduction::{utilization_sweep, ReductionKind};
use maeri_ppa::DesignPoint;
use maeri_runtime::{JobResult, Runtime, SimJob};

/// Seed used by every randomized experiment.
pub const EXPERIMENT_SEED: u64 = 42;

/// Unwraps the next batched result as mapper/baseline run statistics.
fn take_run(results: &mut impl Iterator<Item = JobResult>) -> RunStats {
    results
        .next()
        .expect("batch is sized to the sweep")
        .expect("experiment points are mappable")
        .into_run_stats()
}

/// Unwraps the next batched result as an analytic walk-through.
fn take_analytic(results: &mut impl Iterator<Item = JobResult>) -> AnalyticResult {
    results
        .next()
        .expect("batch is sized to the sweep")
        .expect("analytic walk-throughs cannot fail")
        .into_analytic()
}

/// The paper's 64-PE evaluation configuration.
#[must_use]
pub fn paper_config() -> MaeriConfig {
    MaeriConfig::paper_64()
}

// ---------------------------------------------------------------- fig 12

/// One Figure 12 layer result: the three designs at 64 compute units.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Layer name.
    pub layer: String,
    /// Cycles of an ideal 64-PE accelerator (MACs / 64).
    pub ideal_cycles: u64,
    /// MAERI result.
    pub maeri: RunStats,
    /// Systolic-array result.
    pub systolic: RunStats,
    /// Row-stationary result.
    pub row_stationary: RunStats,
}

/// Runs the Figure 12 sweep: AlexNet C1-C5 plus representative VGG-16
/// layers on MAERI, a systolic array, and a row-stationary design, all
/// with 64 multipliers and 8-word SRAM bandwidth.
#[must_use]
pub fn figure12() -> Vec<Fig12Row> {
    let cfg = paper_config();
    let layers = zoo::fig12_layers();
    let jobs: Vec<SimJob> = layers
        .iter()
        .flat_map(|layer| {
            [
                SimJob::dense_conv(cfg, layer.clone(), VnPolicy::Auto),
                SimJob::systolic_conv(8, 8, 8, layer.clone()),
                SimJob::row_stationary_conv(8, 8, 8, layer.clone()),
            ]
        })
        .collect();
    let mut results = Runtime::global().run_phase("figure12", &jobs).into_iter();
    layers
        .into_iter()
        .map(|layer| Fig12Row {
            ideal_cycles: layer.macs() / 64,
            maeri: take_run(&mut results),
            systolic: take_run(&mut results),
            row_stationary: take_run(&mut results),
            layer: layer.name.clone(),
        })
        .collect()
}

/// Mean MAERI speedup over the systolic array across the Figure 12
/// layers (the paper reports 72.4 % average speedup, ~95 % utilization
/// on 3x3-heavy layers).
#[must_use]
pub fn figure12_mean_speedup(rows: &[Fig12Row]) -> f64 {
    let speedups: Vec<f64> = rows
        .iter()
        .map(|r| r.maeri.speedup_over(&r.systolic))
        .collect();
    maeri_sim::util::mean(&speedups).unwrap_or(0.0)
}

// ---------------------------------------------------------------- fig 13

/// One Figure 13 sparsity point.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Percentage of zero weights.
    pub sparsity_pct: u32,
    /// MAERI at 1x chubby bandwidth (8 words/cycle).
    pub maeri_1x: RunStats,
    /// MAERI at 0.25x chubby bandwidth (2 words/cycle).
    pub maeri_quarter: RunStats,
    /// Fixed 4x4-cluster baseline.
    pub cluster: RunStats,
}

/// Runs the Figure 13 sweep: VGG-16 conv8 with 0-50 % zero weights on
/// MAERI (1x and 0.25x root bandwidth) and the fixed-cluster baseline,
/// 27-weight neuron slices (3 channels x 3x3) as in the paper.
/// The fixed-cluster baseline shape: 4 clusters of 16 PEs on an 8-word
/// bus (kept in sync with `FixedClusterArray::paper_baseline`).
const CLUSTER_BASELINE: (usize, usize, usize) = (4, 16, 8);

/// Runs the Figure 13 sweep: VGG-16 conv8 with 0-50 % zero weights on
/// MAERI (1x and 0.25x root bandwidth) and the fixed-cluster baseline,
/// 27-weight neuron slices (3 channels x 3x3) as in the paper.
#[must_use]
pub fn figure13() -> Vec<Fig13Row> {
    let layer = zoo::vgg16_c8();
    let full = paper_config();
    let quarter = MaeriConfig::builder(64)
        .distribution_bandwidth(2)
        .collection_bandwidth(2)
        .build()
        .expect("valid 0.25x configuration");
    let (clusters, cluster_size, bus) = CLUSTER_BASELINE;
    let pcts = [0u32, 10, 20, 30, 40, 50];
    let jobs: Vec<SimJob> = pcts
        .iter()
        .flat_map(|&pct| {
            let zero_fraction = f64::from(pct) / 100.0;
            [
                SimJob::sparse_conv(full, layer.clone(), zero_fraction, 3, EXPERIMENT_SEED),
                SimJob::sparse_conv(quarter, layer.clone(), zero_fraction, 3, EXPERIMENT_SEED),
                SimJob::ClusterSparseConv {
                    clusters,
                    cluster_size,
                    bus_bandwidth: bus,
                    layer: layer.clone(),
                    zero_fraction,
                    channel_tile: 3,
                    mask_seed: EXPERIMENT_SEED,
                },
            ]
        })
        .collect();
    let mut results = Runtime::global().run_phase("figure13", &jobs).into_iter();
    pcts.into_iter()
        .map(|pct| Fig13Row {
            sparsity_pct: pct,
            maeri_1x: take_run(&mut results),
            maeri_quarter: take_run(&mut results),
            cluster: take_run(&mut results),
        })
        .collect()
}

// ---------------------------------------------------------------- fig 14

/// One fused mapping of Figure 14.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Map name (MapA..MapE).
    pub name: String,
    /// The fused AlexNet layer names.
    pub layers: Vec<String>,
    /// MAERI fused run.
    pub maeri: RunStats,
    /// Fixed-cluster fused run.
    pub cluster: RunStats,
}

impl Fig14Row {
    /// MAERI speedup over the cluster baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.maeri.speedup_over(&self.cluster)
    }
}

fn alexnet_conv(name: &str) -> ConvLayer {
    let model = zoo::alexnet();
    match model.layer(name) {
        Some(Layer::Conv(c)) => c.clone(),
        _ => unreachable!("alexnet layer {name} exists"),
    }
}

/// The five fused maps of Figure 14: AlexNet conv 1+2+3, 2+3+4, 3+4+5,
/// 1+2+3+4 and 2+3+4+5.
#[must_use]
pub fn figure14() -> Vec<Fig14Row> {
    let maps: [(&str, &[&str]); 5] = [
        ("MapA", &["alexnet_conv1", "alexnet_conv2", "alexnet_conv3"]),
        ("MapB", &["alexnet_conv2", "alexnet_conv3", "alexnet_conv4"]),
        ("MapC", &["alexnet_conv3", "alexnet_conv4", "alexnet_conv5"]),
        (
            "MapD",
            &[
                "alexnet_conv1",
                "alexnet_conv2",
                "alexnet_conv3",
                "alexnet_conv4",
            ],
        ),
        (
            "MapE",
            &[
                "alexnet_conv2",
                "alexnet_conv3",
                "alexnet_conv4",
                "alexnet_conv5",
            ],
        ),
    ];
    let cfg = paper_config();
    let (clusters, cluster_size, bus) = CLUSTER_BASELINE;
    let jobs: Vec<SimJob> = maps
        .iter()
        .flat_map(|(_, names)| {
            let chain: Vec<ConvLayer> = names.iter().map(|n| alexnet_conv(n)).collect();
            [
                SimJob::fused_chain(cfg, chain.clone()),
                SimJob::ClusterFusedChain {
                    clusters,
                    cluster_size,
                    bus_bandwidth: bus,
                    layers: chain,
                },
            ]
        })
        .collect();
    let mut results = Runtime::global().run_phase("figure14", &jobs).into_iter();
    maps.into_iter()
        .map(|(name, names)| Fig14Row {
            name: name.to_owned(),
            layers: names.iter().map(|s| (*s).to_owned()).collect(),
            maeri: take_run(&mut results),
            cluster: take_run(&mut results),
        })
        .collect()
}

// ---------------------------------------------------------------- fig 15

/// The three reduction networks compared in Figure 15 (64 PEs).
#[must_use]
pub fn figure15() -> Vec<(String, Vec<(usize, f64)>)> {
    let kinds = [
        ReductionKind::Art,
        ReductionKind::FatTree,
        ReductionKind::PlainTrees {
            width: 16,
            count: 4,
        },
    ];
    kinds
        .into_iter()
        .map(|kind| (kind.name(), utilization_sweep(kind, 64)))
        .collect()
}

// ---------------------------------------------------------------- fig 16

/// One NoC PPA point of Figure 16.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Aggregate bandwidth in words/cycle.
    pub bandwidth: usize,
    /// `(noc, ppa)` for the four designs.
    pub designs: Vec<(NocKind, NocPpa)>,
}

/// Area/power of the four NoCs at 64 terminals over a bandwidth sweep.
#[must_use]
pub fn figure16() -> Vec<Fig16Row> {
    [1usize, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|bandwidth| Fig16Row {
            bandwidth,
            designs: compare_all(64, bandwidth),
        })
        .collect()
}

// ---------------------------------------------------------------- fig 17

/// The Figure 17 / Section 6.3 walk-through results.
#[derive(Debug, Clone)]
pub struct Fig17Report {
    /// 8x8 weight-stationary systolic array (paper: 156 cycles, 1323
    /// reads).
    pub systolic: AnalyticResult,
    /// 64-MS MAERI under the bandwidth-consistent rule (140 cycles,
    /// 516 reads).
    pub maeri: AnalyticResult,
    /// The paper's literally stated decomposition (143 cycles).
    pub maeri_paper_stated: AnalyticResult,
    /// SRAM-read ratio (systolic / MAERI) for the 256x256 scale-up on
    /// VGG-16 (paper: 6.3x fewer reads for MAERI).
    pub vgg16_read_ratio_256: f64,
}

/// Runs the deep-dive comparison.
#[must_use]
pub fn figure17() -> Fig17Report {
    let layer = maeri::analytic::example_layer();
    let vgg = zoo::vgg16();
    let convs = vgg.conv_layers();
    let mut jobs = vec![
        SimJob::AnalyticSystolic {
            layer: layer.clone(),
            rows: 8,
            cols: 8,
        },
        SimJob::AnalyticMaeri {
            layer,
            num_ms: 64,
            dist_bw: 8,
        },
    ];
    for conv in &convs {
        jobs.push(SimJob::AnalyticSystolic {
            layer: (*conv).clone(),
            rows: 256,
            cols: 256,
        });
        jobs.push(SimJob::AnalyticMaeri {
            layer: (*conv).clone(),
            num_ms: 256 * 256,
            dist_bw: 256,
        });
    }
    let mut results = Runtime::global().run_phase("figure17", &jobs).into_iter();
    let systolic = take_analytic(&mut results);
    let maeri = take_analytic(&mut results);
    let mut sa_reads = 0u64;
    let mut maeri_reads = 0u64;
    for _ in &convs {
        sa_reads += take_analytic(&mut results).sram_reads;
        maeri_reads += take_analytic(&mut results).sram_reads;
    }
    Fig17Report {
        systolic,
        maeri,
        maeri_paper_stated: maeri::analytic::maeri_example_paper_stated(),
        vgg16_read_ratio_256: sa_reads as f64 / maeri_reads as f64,
    }
}

// ----------------------------------------------------------- tables / fig 11

/// The Table 3 design points.
#[must_use]
pub fn table3() -> Vec<DesignPoint> {
    DesignPoint::table3()
}

/// Figure 11(e): core (PE-array) area versus PE count, normalized to
/// the 16-PE systolic array. Returns `(pes, systolic, maeri, eyeriss)`.
#[must_use]
pub fn figure11_scaling() -> Vec<(usize, f64, f64, f64)> {
    use maeri_ppa::AcceleratorKind;
    let mk = |kind, n: usize, local: usize| DesignPoint {
        kind,
        num_pes: n,
        local_bytes: local,
        pb_kb: 80,
    };
    let base = mk(AcceleratorKind::SystolicArray, 16, 0).core_area_um2();
    [16usize, 32, 64, 128, 256]
        .into_iter()
        .map(|n| {
            (
                n,
                mk(AcceleratorKind::SystolicArray, n, 0).core_area_um2() / base,
                mk(AcceleratorKind::Maeri, n, 512).core_area_um2() / base,
                mk(AcceleratorKind::Eyeriss, n, 512).core_area_um2() / base,
            )
        })
        .collect()
}

// ------------------------------------------------------------- fault sweep

/// One dead-multiplier rate of the fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Injected dead-multiplier rate, in permille.
    pub rate_permille: u16,
    /// Mean surviving compute fraction across the sweep seeds.
    pub fabric_yield: f64,
    /// Points (layer x seed) that still produced a mapping.
    pub mapped: usize,
    /// Total points at this rate.
    pub points: usize,
    /// Mean cycles across the mapped points.
    pub mean_cycles: f64,
    /// Mean per-point cycle ratio against the fault-free fabric,
    /// over the mapped points.
    pub slowdown: f64,
}

/// Dead-multiplier rates swept, in permille (0-25 % of the array).
pub const FAULT_SWEEP_RATES: [u16; 6] = [0, 50, 100, 150, 200, 250];

/// Seeds averaged per fault rate.
const FAULT_SWEEP_SEEDS: [u64; 3] = [EXPERIMENT_SEED, EXPERIMENT_SEED + 1, EXPERIMENT_SEED + 2];

fn fault_sweep_config(rate_permille: u16, seed: u64) -> MaeriConfig {
    if rate_permille == 0 {
        // The fault-free point is the plain paper fabric, so it shares
        // cached results with every other report.
        return paper_config();
    }
    MaeriConfig::builder(64)
        .faults(FaultSpec::new(seed).dead_multipliers(rate_permille))
        .build()
        .expect("sub-100% fault rates validate")
}

/// Runs the fault sweep: AlexNet's convolution layers on a 64-switch
/// fabric with 0-25 % of the multiplier switches stuck dead, averaged
/// over three fault placements per rate. Reports the surviving compute
/// yield, how many points still map (the fault-aware mappers carve VNs
/// around the dead spans), and the cycle cost of the lost parallelism.
#[must_use]
pub fn fault_sweep() -> Vec<FaultSweepRow> {
    let model = zoo::alexnet();
    let layers: Vec<ConvLayer> = model.conv_layers().into_iter().cloned().collect();
    let mut jobs = Vec::new();
    for &rate in &FAULT_SWEEP_RATES {
        for &seed in &FAULT_SWEEP_SEEDS {
            let cfg = fault_sweep_config(rate, seed);
            for layer in &layers {
                jobs.push(SimJob::dense_conv(cfg, layer.clone(), VnPolicy::Auto));
            }
        }
    }
    let results: Vec<JobResult> = Runtime::global().run_phase("fault_sweep", &jobs);

    // The first rate is 0: its first seed's block is the clean baseline.
    let clean_cycles: Vec<f64> = results[..layers.len()]
        .iter()
        .map(|r| {
            r.as_ref()
                .expect("the fault-free fabric maps every layer")
                .run_stats()
                .expect("dense conv returns run statistics")
                .cycles
                .as_f64()
        })
        .collect();

    let block = FAULT_SWEEP_SEEDS.len() * layers.len();
    FAULT_SWEEP_RATES
        .iter()
        .enumerate()
        .map(|(rate_idx, &rate)| {
            let mut mapped = 0usize;
            let mut cycle_sum = 0.0;
            let mut ratio_sum = 0.0;
            let mut yield_sum = 0.0;
            for (seed_idx, &seed) in FAULT_SWEEP_SEEDS.iter().enumerate() {
                let cfg = fault_sweep_config(rate, seed);
                yield_sum += cfg.fault_plan().map_or(1.0, |plan| plan.yield_fraction());
                for (layer_idx, _) in layers.iter().enumerate() {
                    let at = rate_idx * block + seed_idx * layers.len() + layer_idx;
                    if let Ok(output) = &results[at] {
                        let cycles = output
                            .run_stats()
                            .expect("dense conv returns run statistics")
                            .cycles
                            .as_f64();
                        mapped += 1;
                        cycle_sum += cycles;
                        ratio_sum += cycles / clean_cycles[layer_idx];
                    }
                }
            }
            FaultSweepRow {
                rate_permille: rate,
                fabric_yield: yield_sum / FAULT_SWEEP_SEEDS.len() as f64,
                mapped,
                points: block,
                mean_cycles: if mapped > 0 {
                    cycle_sum / mapped as f64
                } else {
                    0.0
                },
                slowdown: if mapped > 0 {
                    ratio_sum / mapped as f64
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}

// --------------------------------------------------------- telemetry profile

/// One telemetry-instrumented CONV layer of the profile.
#[derive(Debug, Clone)]
pub struct TelemetryRow {
    /// Layer name.
    pub layer: String,
    /// Cycles of the instrumented clocked trace.
    pub cycles: u64,
    /// Multiplier busy fraction over the run.
    pub mult_busy: f64,
    /// Fraction of lane-cycles stalled waiting on distribution.
    pub dist_stall: f64,
    /// Fraction of lane-cycles stalled on collection backpressure.
    pub collect_stall: f64,
    /// Utilization of the busiest distribution-tree level.
    pub peak_link_utilization: f64,
    /// Median VN reduction latency, in cycles.
    pub vn_latency_p50: u64,
    /// 95th-percentile VN reduction latency, in cycles.
    pub vn_latency_p95: u64,
    /// Adder switches active in the configured ART.
    pub art_active_adders: u64,
    /// Trace events the probes recorded for the layer.
    pub events: u64,
}

/// Runs the telemetry profile: AlexNet's convolution layers through the
/// clocked simulator with the fabric probes live, reducing the event
/// stream of each layer to link utilization, busy/stall fractions, and
/// the VN-latency histogram. Deterministic: the probes observe the same
/// scheduled cycles every run.
#[must_use]
pub fn telemetry_profile() -> Vec<TelemetryRow> {
    let model = zoo::alexnet();
    let layers: Vec<ConvLayer> = model.conv_layers().into_iter().cloned().collect();
    let jobs: Vec<SimJob> = layers
        .iter()
        .map(|layer| SimJob::telemetry_conv(paper_config(), layer.clone(), VnPolicy::Auto))
        .collect();
    let results = Runtime::global().run_phase("telemetry_profile", &jobs);
    layers
        .iter()
        .zip(results)
        .map(|(layer, result)| {
            let output = result.expect("the paper fabric maps every AlexNet layer");
            let run = output
                .telemetry()
                .expect("telemetry jobs return telemetry output")
                .clone();
            let mut latency = run.fabric.vn_latency.clone();
            TelemetryRow {
                layer: layer.name.clone(),
                cycles: run.fabric.cycles,
                mult_busy: run.fabric.mult_busy_fraction,
                dist_stall: run.fabric.dist_stall_fraction,
                collect_stall: run.fabric.collect_stall_fraction,
                peak_link_utilization: run
                    .fabric
                    .dist_level_utilization
                    .iter()
                    .copied()
                    .fold(0.0, f64::max),
                vn_latency_p50: latency.percentile(50.0).unwrap_or(0),
                vn_latency_p95: latency.percentile(95.0).unwrap_or(0),
                art_active_adders: run.fabric.art_active_adders,
                events: run.fabric.total_events(),
            }
        })
        .collect()
}

// ----------------------------------------------------------- mapping search

/// The layer searches of the `mapping_search` report: every Figure 12
/// CONV layer, AlexNet's two big FC layers, a DeepSpeech2 recurrent
/// layer, and the sparse VGG16-C8 layer — all tuned exhaustively on the
/// paper's 64-switch fabric.
#[must_use]
pub fn mapping_search_specs() -> Vec<SearchSpec> {
    let cfg = paper_config();
    let mut specs: Vec<SearchSpec> = zoo::fig12_layers()
        .into_iter()
        .map(|layer| SearchSpec::new(SearchLayer::Conv(layer), cfg))
        .collect();
    let alexnet = zoo::alexnet();
    for name in ["alexnet_fc6", "alexnet_fc7"] {
        if let Some(Layer::Fc(l)) = alexnet.layer(name) {
            specs.push(SearchSpec::new(SearchLayer::Fc(l.clone()), cfg));
        }
    }
    if let Some(Layer::Lstm(l)) = zoo::deepspeech2().layer("ds2_rnn2") {
        specs.push(SearchSpec::new(SearchLayer::Lstm(l.clone()), cfg));
    }
    specs.push(SearchSpec::new(
        SearchLayer::SparseConv {
            layer: zoo::vgg16_c8(),
            zero_fraction: 0.6,
            mask_seed: EXPERIMENT_SEED,
        },
        cfg,
    ));
    specs
}

/// Runs the mapping-space auto-tuner over [`mapping_search_specs`] as
/// one runtime batch (parallel across workers, cached by content hash)
/// and returns the per-layer results in spec order.
#[must_use]
pub fn mapping_search() -> Vec<SearchResult> {
    let jobs: Vec<SimJob> = mapping_search_specs()
        .into_iter()
        .map(SimJob::map_search)
        .collect();
    Runtime::global()
        .run_phase("mapping_search", &jobs)
        .into_iter()
        .map(|result| {
            result
                .expect("every zoo search spec is well-formed")
                .into_search()
        })
        .collect()
}

// ----------------------------------------------------------------- headline

/// Utilization-improvement observations across all dataflow
/// experiments: `(experiment, maeri utilization, baseline utilization,
/// improvement %)`. The paper's abstract quotes 8-459 % across its
/// mappings.
#[must_use]
pub fn headline_improvements() -> Vec<(String, f64, f64, f64)> {
    let mut out = Vec::new();
    let mut push = |label: String, maeri: f64, baseline: f64| {
        if baseline > 0.0 {
            out.push((label, maeri, baseline, (maeri / baseline - 1.0) * 100.0));
        }
    };
    for row in figure12() {
        push(
            format!("{} vs systolic", row.layer),
            row.maeri.utilization(),
            row.systolic.utilization(),
        );
        push(
            format!("{} vs row-stationary", row.layer),
            row.maeri.utilization(),
            row.row_stationary.utilization(),
        );
    }
    for row in figure13() {
        push(
            format!("vgg16_c8 @{}% sparse vs clusters", row.sparsity_pct),
            row.maeri_1x.utilization(),
            row.cluster.utilization(),
        );
    }
    for row in figure14() {
        push(
            format!("{} fused vs clusters", row.name),
            row.maeri.utilization(),
            row.cluster.utilization(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_baselines::FixedClusterArray;

    #[test]
    fn cluster_baseline_matches_paper_shape() {
        let (clusters, cluster_size, bus) = CLUSTER_BASELINE;
        assert_eq!(
            FixedClusterArray::new(clusters, cluster_size, bus),
            FixedClusterArray::paper_baseline()
        );
    }

    #[test]
    fn figure12_has_ten_layers_and_maeri_wins_on_3x3() {
        let rows = figure12();
        assert_eq!(rows.len(), 10);
        for row in &rows {
            // Same work on every design.
            assert_eq!(row.maeri.macs, row.systolic.macs);
            assert_eq!(row.maeri.macs, row.row_stationary.macs);
            if row.layer.contains("vgg") {
                assert!(row.maeri.cycles < row.systolic.cycles, "{}", row.layer);
                assert!(
                    row.maeri.cycles < row.row_stationary.cycles,
                    "{}",
                    row.layer
                );
                assert!(row.maeri.utilization() > 0.9, "{}", row.layer);
            }
        }
    }

    #[test]
    fn figure12_average_speedup_in_paper_band() {
        // Paper: 72.4% average speedup. Accept a generous band around
        // it — the shape claim is "MAERI is decisively faster overall".
        let rows = figure12();
        let mean = figure12_mean_speedup(&rows);
        assert!(
            (1.4..=2.3).contains(&mean),
            "mean speedup {mean} outside band"
        );
    }

    #[test]
    fn figure13_speedup_grows_with_sparsity() {
        let rows = figure13();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        let s0 = first.cluster.cycles.as_f64() / first.maeri_1x.cycles.as_f64();
        let s50 = last.cluster.cycles.as_f64() / last.maeri_1x.cycles.as_f64();
        assert!(s50 > s0 + 0.5, "speedup must grow: {s0} -> {s50}");
        assert!(s50 >= 3.0, "50% sparse speedup {s50}");
        // Paper: 73.8% utilization at 50% sparsity.
        let util = last.maeri_1x.utilization();
        assert!((util - 0.738).abs() < 0.08, "util {util}");
        // 0.25x bandwidth throttles MAERI heavily.
        assert!(last.maeri_quarter.cycles.as_u64() > 2 * last.maeri_1x.cycles.as_u64());
    }

    #[test]
    fn figure14_speedups_in_paper_band() {
        // Paper: 1.08-1.5x with MapC the largest win. Our consistent
        // multicast-sharing model lands ~1.5x higher in magnitude but
        // preserves the ordering (MapC max, MapA min).
        let rows = figure14();
        for row in &rows {
            let s = row.speedup();
            assert!(
                (1.0..=2.6).contains(&s),
                "{} speedup {s} outside band",
                row.name
            );
        }
        let max_row = rows
            .iter()
            .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .unwrap();
        assert_eq!(max_row.name, "MapC", "paper's best map is MapC");
        assert!(max_row.speedup() >= 1.5);
    }

    #[test]
    fn figure15_art_dominates() {
        let curves = figure15();
        assert_eq!(curves.len(), 3);
        let art = &curves[0].1;
        for (name, curve) in &curves[1..] {
            for ((vn, art_util), (_, other_util)) in art.iter().zip(curve) {
                assert!(
                    art_util + 1e-12 >= *other_util,
                    "{name} beats ART at vn={vn}"
                );
            }
        }
    }

    #[test]
    fn figure16_maeri_cheapest_vs_switched_nocs() {
        for row in figure16() {
            let maeri = row
                .designs
                .iter()
                .find(|(k, _)| *k == NocKind::MaeriTrees)
                .unwrap()
                .1;
            for (kind, ppa) in &row.designs {
                if matches!(kind, NocKind::Mesh | NocKind::Crossbar) {
                    assert!(maeri.area_um2 < ppa.area_um2);
                }
            }
        }
    }

    #[test]
    fn figure17_matches_paper_numbers() {
        let report = figure17();
        assert_eq!(report.systolic.cycles, 156);
        assert_eq!(report.systolic.sram_reads, 1323);
        assert_eq!(report.maeri_paper_stated.cycles, 143);
        assert_eq!(report.maeri.sram_reads, 516);
        assert!(report.maeri.cycles < report.systolic.cycles);
        // Scale-up: MAERI reads several times fewer on VGG-16.
        assert!(
            report.vgg16_read_ratio_256 > 1.5,
            "read ratio {}",
            report.vgg16_read_ratio_256
        );
    }

    #[test]
    fn fault_sweep_degrades_gracefully() {
        let rows = fault_sweep();
        assert_eq!(rows.len(), FAULT_SWEEP_RATES.len());
        let clean = &rows[0];
        assert!((clean.fabric_yield - 1.0).abs() < 1e-12);
        assert!((clean.slowdown - 1.0).abs() < 1e-12);
        assert_eq!(clean.mapped, clean.points);
        for pair in rows.windows(2) {
            assert!(
                pair[1].fabric_yield <= pair[0].fabric_yield + 1e-12,
                "yield must fall as faults rise"
            );
        }
        for row in &rows {
            assert!(
                row.slowdown >= 1.0 - 1e-9,
                "faults never speed things up: {} at {}",
                row.slowdown,
                row.rate_permille
            );
            assert!(
                row.mapped == row.points,
                "auto VN sizing must carve around <=25% dead switches"
            );
        }
        let last = rows.last().unwrap();
        assert!(last.slowdown > 1.0, "25% dead switches must cost cycles");
    }

    #[test]
    fn fault_sweep_is_deterministic() {
        let a = fault_sweep();
        let b = fault_sweep();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rate_permille, y.rate_permille);
            assert_eq!(x.mapped, y.mapped);
            assert!((x.mean_cycles - y.mean_cycles).abs() < 1e-12);
            assert!((x.slowdown - y.slowdown).abs() < 1e-12);
        }
    }

    #[test]
    fn telemetry_profile_observes_every_conv_layer() {
        let rows = telemetry_profile();
        assert_eq!(rows.len(), zoo::alexnet().conv_layers().len());
        for row in &rows {
            assert!(row.cycles > 0, "{}: empty trace", row.layer);
            assert!(row.events > 0, "{}: probes recorded nothing", row.layer);
            assert!(
                (0.0..=1.0).contains(&row.mult_busy),
                "{}: busy fraction {}",
                row.layer,
                row.mult_busy
            );
            assert!((0.0..=1.0).contains(&row.peak_link_utilization));
            assert!(row.vn_latency_p95 >= row.vn_latency_p50);
            assert!(row.art_active_adders > 0, "{}: ART unconfigured", row.layer);
        }
    }

    #[test]
    fn telemetry_profile_is_deterministic() {
        let a = telemetry_profile();
        let b = telemetry_profile();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.layer, y.layer);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.events, y.events);
            assert_eq!(x.vn_latency_p50, y.vn_latency_p50);
            assert_eq!(x.vn_latency_p95, y.vn_latency_p95);
            assert!((x.mult_busy - y.mult_busy).abs() < 1e-15);
        }
    }

    #[test]
    fn headline_has_large_positive_improvements() {
        let improvements = headline_improvements();
        assert!(improvements.len() > 20);
        let max = improvements
            .iter()
            .map(|(_, _, _, pct)| *pct)
            .fold(f64::MIN, f64::max);
        assert!(max > 100.0, "max improvement {max}%");
    }
}
