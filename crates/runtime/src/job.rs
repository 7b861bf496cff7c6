//! Simulation job descriptions and their content-hash identity.

use std::sync::Arc;

use maeri::analytic;
use maeri::cycle_sim::simulate_conv_layer_telemetry;
use maeri::{
    CandidateKind, ConvMapper, CrossLayerMapper, FcMapper, LoopOrder, LstmMapper, MaeriConfig,
    PoolMapper, SparseConvMapper, VnPolicy,
};
use maeri_baselines::{FixedClusterArray, RowStationary, SystolicArray};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer, PoolLayer, WeightMask};
use maeri_mapspace::{SearchLayer, SearchSpec};
use maeri_verify::{statically_reject, VerifyLayer};

use crate::output::{JobError, JobResult, SimOutput, TelemetryRun};

/// One simulation request: everything needed to reproduce one point of
/// a sweep, and nothing environment-dependent.
///
/// Jobs deliberately carry *descriptions* (e.g. a sparsity fraction and
/// mask seed rather than a materialized [`WeightMask`]) so that their
/// [content key](SimJob::key) is small and two textually identical
/// requests are recognized as the same work.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimJob {
    /// Dense CONV on the MAERI fabric.
    DenseConv {
        /// Fabric configuration.
        cfg: MaeriConfig,
        /// Layer to map.
        layer: ConvLayer,
        /// VN-sizing policy.
        policy: VnPolicy,
    },
    /// Sparse CONV on the MAERI fabric. The weight mask is regenerated
    /// deterministically from `(layer, zero_fraction, mask_seed)`.
    SparseConv {
        /// Fabric configuration.
        cfg: MaeriConfig,
        /// Layer to map.
        layer: ConvLayer,
        /// Fraction of zero weights in `[0, 1]`.
        zero_fraction: f64,
        /// Channels per neuron slice.
        channel_tile: usize,
        /// Seed for the mask generator.
        mask_seed: u64,
    },
    /// Cross-layer fused CONV chain on the MAERI fabric.
    FusedConvChain {
        /// Fabric configuration.
        cfg: MaeriConfig,
        /// The fused layers, producer to consumer.
        layers: Vec<ConvLayer>,
    },
    /// Fully-connected layer on the MAERI fabric.
    Fc {
        /// Fabric configuration.
        cfg: MaeriConfig,
        /// Layer to map.
        layer: FcLayer,
    },
    /// LSTM layer on the MAERI fabric.
    Lstm {
        /// Fabric configuration.
        cfg: MaeriConfig,
        /// Layer to map.
        layer: LstmLayer,
    },
    /// Max-pool layer on the MAERI fabric.
    Pool {
        /// Fabric configuration.
        cfg: MaeriConfig,
        /// Layer to map.
        layer: PoolLayer,
    },
    /// Dense CONV on the weight-stationary systolic-array baseline.
    SystolicConv {
        /// PE rows.
        rows: usize,
        /// PE columns.
        cols: usize,
        /// SRAM bandwidth in words/cycle.
        sram_bandwidth: usize,
        /// Layer to run.
        layer: ConvLayer,
    },
    /// Fully-connected layer on the weight-stationary systolic-array
    /// baseline (fleet scheduling probes FC layers on every backend).
    SystolicFc {
        /// PE rows.
        rows: usize,
        /// PE columns.
        cols: usize,
        /// SRAM bandwidth in words/cycle.
        sram_bandwidth: usize,
        /// Layer to run.
        layer: FcLayer,
    },
    /// Dense CONV on the row-stationary (Eyeriss-like) baseline.
    RowStationaryConv {
        /// PE rows.
        rows: usize,
        /// PE columns.
        cols: usize,
        /// SRAM bandwidth in words/cycle.
        sram_bandwidth: usize,
        /// Layer to run.
        layer: ConvLayer,
    },
    /// Sparse CONV on the fixed-cluster baseline (mask regenerated as
    /// for [`SimJob::SparseConv`]).
    ClusterSparseConv {
        /// Number of clusters.
        clusters: usize,
        /// PEs per cluster.
        cluster_size: usize,
        /// Shared-bus bandwidth in words/cycle.
        bus_bandwidth: usize,
        /// Layer to run.
        layer: ConvLayer,
        /// Fraction of zero weights in `[0, 1]`.
        zero_fraction: f64,
        /// Channels per neuron slice.
        channel_tile: usize,
        /// Seed for the mask generator.
        mask_seed: u64,
    },
    /// Fused CONV chain on the fixed-cluster baseline.
    ClusterFusedChain {
        /// Number of clusters.
        clusters: usize,
        /// PEs per cluster.
        cluster_size: usize,
        /// Shared-bus bandwidth in words/cycle.
        bus_bandwidth: usize,
        /// The fused layers, producer to consumer.
        layers: Vec<ConvLayer>,
    },
    /// Section 6.3 analytic walk-through of a systolic array.
    AnalyticSystolic {
        /// Layer to analyse.
        layer: ConvLayer,
        /// PE rows.
        rows: usize,
        /// PE columns.
        cols: usize,
    },
    /// Section 6.3 analytic walk-through of a MAERI fabric.
    AnalyticMaeri {
        /// Layer to analyse.
        layer: ConvLayer,
        /// Multiplier switches.
        num_ms: usize,
        /// Distribution bandwidth in words/cycle.
        dist_bw: usize,
    },
    /// Clocked cycle-trace of a full CONV layer with fabric telemetry
    /// captured: link utilization per tree level, multiplier busy
    /// fraction, stall fractions, and the VN-latency histogram.
    TelemetryConv {
        /// Fabric configuration.
        cfg: MaeriConfig,
        /// Layer to map.
        layer: ConvLayer,
        /// VN-sizing policy.
        policy: VnPolicy,
    },
    /// Mapping-space search for one layer: enumerate candidates, score
    /// them analytically, trace-validate the frontier (see
    /// [`maeri_mapspace::search`]).
    MapSearch {
        /// The full search description.
        spec: SearchSpec,
    },
    /// Scheduler health-check probe. Completes immediately, panics
    /// with the given message, or stalls for a fixed wall-clock time —
    /// used to verify panic isolation and the timeout watchdog.
    Probe {
        /// When `Some`, the job panics with this message.
        panic_with: Option<String>,
        /// Wall-clock milliseconds to sleep before completing; models a
        /// wedged simulation for timeout tests.
        stall_ms: u64,
    },
}

impl SimJob {
    /// Dense CONV on MAERI (see [`SimJob::DenseConv`]).
    #[must_use]
    pub fn dense_conv(cfg: MaeriConfig, layer: ConvLayer, policy: VnPolicy) -> Self {
        SimJob::DenseConv { cfg, layer, policy }
    }

    /// Sparse CONV on MAERI (see [`SimJob::SparseConv`]).
    #[must_use]
    pub fn sparse_conv(
        cfg: MaeriConfig,
        layer: ConvLayer,
        zero_fraction: f64,
        channel_tile: usize,
        mask_seed: u64,
    ) -> Self {
        SimJob::SparseConv {
            cfg,
            layer,
            zero_fraction,
            channel_tile,
            mask_seed,
        }
    }

    /// Fused CONV chain on MAERI (see [`SimJob::FusedConvChain`]).
    #[must_use]
    pub fn fused_chain(cfg: MaeriConfig, layers: Vec<ConvLayer>) -> Self {
        SimJob::FusedConvChain { cfg, layers }
    }

    /// Systolic-array baseline CONV (see [`SimJob::SystolicConv`]).
    #[must_use]
    pub fn systolic_conv(
        rows: usize,
        cols: usize,
        sram_bandwidth: usize,
        layer: ConvLayer,
    ) -> Self {
        SimJob::SystolicConv {
            rows,
            cols,
            sram_bandwidth,
            layer,
        }
    }

    /// Systolic-array baseline FC (see [`SimJob::SystolicFc`]).
    #[must_use]
    pub fn systolic_fc(rows: usize, cols: usize, sram_bandwidth: usize, layer: FcLayer) -> Self {
        SimJob::SystolicFc {
            rows,
            cols,
            sram_bandwidth,
            layer,
        }
    }

    /// Row-stationary baseline CONV (see [`SimJob::RowStationaryConv`]).
    #[must_use]
    pub fn row_stationary_conv(
        rows: usize,
        cols: usize,
        sram_bandwidth: usize,
        layer: ConvLayer,
    ) -> Self {
        SimJob::RowStationaryConv {
            rows,
            cols,
            sram_bandwidth,
            layer,
        }
    }

    /// Telemetry-instrumented CONV on MAERI (see
    /// [`SimJob::TelemetryConv`]).
    #[must_use]
    pub fn telemetry_conv(cfg: MaeriConfig, layer: ConvLayer, policy: VnPolicy) -> Self {
        SimJob::TelemetryConv { cfg, layer, policy }
    }

    /// Mapping-space search for one layer (see [`SimJob::MapSearch`]).
    #[must_use]
    pub fn map_search(spec: SearchSpec) -> Self {
        SimJob::MapSearch { spec }
    }

    /// A probe that succeeds immediately.
    #[must_use]
    pub fn health_check() -> Self {
        SimJob::Probe {
            panic_with: None,
            stall_ms: 0,
        }
    }

    /// A probe that panics — for exercising the pool's panic isolation.
    #[must_use]
    pub fn poison(message: impl Into<String>) -> Self {
        SimJob::Probe {
            panic_with: Some(message.into()),
            stall_ms: 0,
        }
    }

    /// A probe that wedges for `stall_ms` wall-clock milliseconds
    /// before succeeding — for exercising the timeout watchdog.
    #[must_use]
    pub fn wedge(stall_ms: u64) -> Self {
        SimJob::Probe {
            panic_with: None,
            stall_ms,
        }
    }

    /// A short label for logs and progress reporting.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SimJob::DenseConv { layer, .. } => format!("maeri/conv/{}", layer.name),
            SimJob::SparseConv {
                layer,
                zero_fraction,
                ..
            } => format!("maeri/sparse/{}@{:.0}%", layer.name, zero_fraction * 100.0),
            SimJob::FusedConvChain { layers, .. } => {
                format!("maeri/fused/{}x", layers.len())
            }
            SimJob::Fc { layer, .. } => format!("maeri/fc/{}", layer.name),
            SimJob::Lstm { layer, .. } => format!("maeri/lstm/{}", layer.name),
            SimJob::Pool { layer, .. } => format!("maeri/pool/{}", layer.name),
            SimJob::SystolicConv { layer, .. } => format!("systolic/conv/{}", layer.name),
            SimJob::SystolicFc { layer, .. } => format!("systolic/fc/{}", layer.name),
            SimJob::RowStationaryConv { layer, .. } => format!("rowstat/conv/{}", layer.name),
            SimJob::ClusterSparseConv { layer, .. } => format!("cluster/sparse/{}", layer.name),
            SimJob::ClusterFusedChain { layers, .. } => format!("cluster/fused/{}x", layers.len()),
            SimJob::AnalyticSystolic { layer, .. } => format!("analytic/systolic/{}", layer.name),
            SimJob::AnalyticMaeri { layer, .. } => format!("analytic/maeri/{}", layer.name),
            SimJob::TelemetryConv { layer, .. } => format!("telemetry/conv/{}", layer.name),
            SimJob::MapSearch { spec } => {
                format!("search/{}/{}", spec.layer.kind_label(), spec.layer.name())
            }
            SimJob::Probe {
                panic_with,
                stall_ms,
            } => match (panic_with, stall_ms) {
                (Some(_), _) => "probe/poison".to_owned(),
                (None, 0) => "probe/health".to_owned(),
                (None, _) => "probe/wedge".to_owned(),
            },
        }
    }

    /// Static pre-flight verification: job kinds the static verifier
    /// covers fail fast with a structured, deterministic
    /// [`JobError::InvalidMapping`] — before any mapper runs or any
    /// cycle is clocked. Sound: it only rejects jobs whose execution
    /// would fail too, so legal jobs are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::InvalidMapping`] carrying the violation and
    /// its minimal counterexample.
    pub fn verify(&self) -> Result<(), JobError> {
        let violation = match self {
            SimJob::DenseConv {
                cfg,
                layer,
                policy: VnPolicy::Explicit(m),
            } => statically_reject(cfg, &VerifyLayer::Conv(layer), &CandidateKind::Conv(*m)),
            SimJob::SparseConv {
                cfg,
                layer,
                zero_fraction,
                channel_tile,
                mask_seed,
            } => {
                let mask = regenerate_mask(layer, *zero_fraction, *mask_seed);
                return verify_sparse(cfg, layer, &mask, *channel_tile);
            }
            _ => None,
        };
        match violation {
            Some(err) => Err(JobError::InvalidMapping(err.to_string())),
            None => Ok(()),
        }
    }

    /// Executes the job to completion. Pure: the result depends only on
    /// the job description, never on scheduling.
    ///
    /// # Panics
    ///
    /// A [`SimJob::Probe`] with a poison message panics by design (the
    /// worker pool converts the panic into a failed [`JobResult`]).
    /// Mapper-internal invariant violations also surface as panics and
    /// are isolated the same way.
    pub fn execute(&self) -> JobResult {
        // A sparse job verifies, in its arm, the one mask it runs on.
        if !matches!(self, SimJob::SparseConv { .. }) {
            self.verify()?;
        }
        match self {
            SimJob::DenseConv { cfg, layer, policy } => {
                Ok(SimOutput::Run(ConvMapper::new(*cfg).run(layer, *policy)?))
            }
            SimJob::SparseConv {
                cfg,
                layer,
                zero_fraction,
                channel_tile,
                mask_seed,
            } => {
                let mask = regenerate_mask(layer, *zero_fraction, *mask_seed);
                verify_sparse(cfg, layer, &mask, *channel_tile)?;
                Ok(SimOutput::Run(SparseConvMapper::new(*cfg).run(
                    layer,
                    &mask,
                    *channel_tile,
                )?))
            }
            SimJob::FusedConvChain { cfg, layers } => {
                Ok(SimOutput::Run(CrossLayerMapper::new(*cfg).run(layers)?))
            }
            SimJob::Fc { cfg, layer } => Ok(SimOutput::Run(FcMapper::new(*cfg).run(layer)?)),
            SimJob::Lstm { cfg, layer } => Ok(SimOutput::Run(LstmMapper::new(*cfg).run(layer)?)),
            SimJob::Pool { cfg, layer } => Ok(SimOutput::Run(PoolMapper::new(*cfg).run(layer)?)),
            SimJob::SystolicConv {
                rows,
                cols,
                sram_bandwidth,
                layer,
            } => Ok(SimOutput::Run(
                SystolicArray::new(*rows, *cols, *sram_bandwidth).run_conv(layer),
            )),
            SimJob::SystolicFc {
                rows,
                cols,
                sram_bandwidth,
                layer,
            } => Ok(SimOutput::Run(
                SystolicArray::new(*rows, *cols, *sram_bandwidth).run_fc(layer),
            )),
            SimJob::RowStationaryConv {
                rows,
                cols,
                sram_bandwidth,
                layer,
            } => Ok(SimOutput::Run(
                RowStationary::new(*rows, *cols, *sram_bandwidth).run_conv(layer),
            )),
            SimJob::ClusterSparseConv {
                clusters,
                cluster_size,
                bus_bandwidth,
                layer,
                zero_fraction,
                channel_tile,
                mask_seed,
            } => {
                let mask = regenerate_mask(layer, *zero_fraction, *mask_seed);
                Ok(SimOutput::Run(
                    FixedClusterArray::new(*clusters, *cluster_size, *bus_bandwidth).run_conv(
                        layer,
                        &mask,
                        *channel_tile,
                    )?,
                ))
            }
            SimJob::ClusterFusedChain {
                clusters,
                cluster_size,
                bus_bandwidth,
                layers,
            } => Ok(SimOutput::Run(
                FixedClusterArray::new(*clusters, *cluster_size, *bus_bandwidth)
                    .run_fused(layers)?,
            )),
            SimJob::AnalyticSystolic { layer, rows, cols } => Ok(SimOutput::Analytic(
                analytic::systolic_example(layer, *rows, *cols),
            )),
            SimJob::AnalyticMaeri {
                layer,
                num_ms,
                dist_bw,
            } => Ok(SimOutput::Analytic(analytic::maeri_example(
                layer, *num_ms, *dist_bw,
            ))),
            SimJob::TelemetryConv { cfg, layer, policy } => {
                let (trace, fabric) = simulate_conv_layer_telemetry(cfg, layer, *policy)?;
                Ok(SimOutput::Telemetry(Box::new(TelemetryRun {
                    trace,
                    fabric,
                })))
            }
            SimJob::MapSearch { spec } => {
                Ok(SimOutput::Search(Box::new(maeri_mapspace::search(spec)?)))
            }
            SimJob::Probe {
                panic_with,
                stall_ms,
            } => {
                if let Some(message) = panic_with {
                    panic!("{}", message.clone());
                }
                if *stall_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(*stall_ms));
                }
                Ok(SimOutput::Run(maeri::RunStats::new(
                    "probe",
                    1,
                    maeri_sim::Cycle::ONE,
                    1,
                )))
            }
        }
    }

    /// The job's content key: a canonical byte encoding of every field
    /// that affects the result. Two jobs with equal keys compute the
    /// same output, so the key doubles as the cache identity.
    #[must_use]
    pub fn key(&self) -> JobKey {
        let mut enc = KeyEncoder::new();
        match self {
            SimJob::DenseConv { cfg, layer, policy } => {
                enc.tag(1);
                enc.config(cfg);
                enc.conv(layer);
                enc.policy(policy);
            }
            SimJob::SparseConv {
                cfg,
                layer,
                zero_fraction,
                channel_tile,
                mask_seed,
            } => {
                enc.tag(2);
                enc.config(cfg);
                enc.conv(layer);
                enc.f64(*zero_fraction);
                enc.usize(*channel_tile);
                enc.u64(*mask_seed);
            }
            SimJob::FusedConvChain { cfg, layers } => {
                enc.tag(3);
                enc.config(cfg);
                enc.usize(layers.len());
                for layer in layers {
                    enc.conv(layer);
                }
            }
            SimJob::Fc { cfg, layer } => {
                enc.tag(4);
                enc.config(cfg);
                enc.str(&layer.name);
                enc.usize(layer.inputs);
                enc.usize(layer.outputs);
            }
            SimJob::Lstm { cfg, layer } => {
                enc.tag(5);
                enc.config(cfg);
                enc.str(&layer.name);
                enc.usize(layer.input_dim);
                enc.usize(layer.hidden_dim);
            }
            SimJob::Pool { cfg, layer } => {
                enc.tag(6);
                enc.config(cfg);
                enc.str(&layer.name);
                enc.usize(layer.channels);
                enc.usize(layer.in_h);
                enc.usize(layer.in_w);
                enc.usize(layer.window);
                enc.usize(layer.stride);
            }
            SimJob::SystolicConv {
                rows,
                cols,
                sram_bandwidth,
                layer,
            } => {
                enc.tag(7);
                enc.usize(*rows);
                enc.usize(*cols);
                enc.usize(*sram_bandwidth);
                enc.conv(layer);
            }
            SimJob::SystolicFc {
                rows,
                cols,
                sram_bandwidth,
                layer,
            } => {
                enc.tag(17);
                enc.usize(*rows);
                enc.usize(*cols);
                enc.usize(*sram_bandwidth);
                enc.str(&layer.name);
                enc.usize(layer.inputs);
                enc.usize(layer.outputs);
            }
            SimJob::RowStationaryConv {
                rows,
                cols,
                sram_bandwidth,
                layer,
            } => {
                enc.tag(8);
                enc.usize(*rows);
                enc.usize(*cols);
                enc.usize(*sram_bandwidth);
                enc.conv(layer);
            }
            SimJob::ClusterSparseConv {
                clusters,
                cluster_size,
                bus_bandwidth,
                layer,
                zero_fraction,
                channel_tile,
                mask_seed,
            } => {
                enc.tag(9);
                enc.usize(*clusters);
                enc.usize(*cluster_size);
                enc.usize(*bus_bandwidth);
                enc.conv(layer);
                enc.f64(*zero_fraction);
                enc.usize(*channel_tile);
                enc.u64(*mask_seed);
            }
            SimJob::ClusterFusedChain {
                clusters,
                cluster_size,
                bus_bandwidth,
                layers,
            } => {
                enc.tag(10);
                enc.usize(*clusters);
                enc.usize(*cluster_size);
                enc.usize(*bus_bandwidth);
                enc.usize(layers.len());
                for layer in layers {
                    enc.conv(layer);
                }
            }
            SimJob::AnalyticSystolic { layer, rows, cols } => {
                enc.tag(11);
                enc.conv(layer);
                enc.usize(*rows);
                enc.usize(*cols);
            }
            SimJob::AnalyticMaeri {
                layer,
                num_ms,
                dist_bw,
            } => {
                enc.tag(12);
                enc.conv(layer);
                enc.usize(*num_ms);
                enc.usize(*dist_bw);
            }
            // Tag 13 stays unused: it keyed a retired job kind, and tags
            // never change meaning (see `JobKey::as_bytes`).
            SimJob::TelemetryConv { cfg, layer, policy } => {
                enc.tag(15);
                enc.config(cfg);
                enc.conv(layer);
                enc.policy(policy);
            }
            SimJob::MapSearch { spec } => {
                enc.tag(16);
                enc.config(&spec.base);
                match &spec.layer {
                    SearchLayer::Conv(layer) => {
                        enc.tag(0);
                        enc.conv(layer);
                    }
                    SearchLayer::SparseConv {
                        layer,
                        zero_fraction,
                        mask_seed,
                    } => {
                        enc.tag(1);
                        enc.conv(layer);
                        enc.f64(*zero_fraction);
                        enc.u64(*mask_seed);
                    }
                    SearchLayer::Fc(layer) => {
                        enc.tag(2);
                        enc.str(&layer.name);
                        enc.usize(layer.inputs);
                        enc.usize(layer.outputs);
                    }
                    SearchLayer::Lstm(layer) => {
                        enc.tag(3);
                        enc.str(&layer.name);
                        enc.usize(layer.input_dim);
                        enc.usize(layer.hidden_dim);
                    }
                }
                // Old defaults (no pairs, exhaustive, top 8) keep stored results addressable.
                enc.usize(0);
                enc.tag(0);
                enc.usize(8);
            }
            SimJob::Probe {
                panic_with,
                stall_ms,
            } => {
                enc.tag(14);
                match panic_with {
                    Some(message) => {
                        enc.tag(1);
                        enc.str(message);
                    }
                    None => enc.tag(0),
                }
                enc.u64(*stall_ms);
            }
        }
        enc.finish()
    }
}

/// Regenerates the deterministic weight mask a sparse job describes,
/// shared with every concurrent job of the same recipe.
fn regenerate_mask(layer: &ConvLayer, zero_fraction: f64, seed: u64) -> Arc<WeightMask> {
    WeightMask::seeded(layer, zero_fraction, seed)
}

/// A sparse job's static pre-flight check on the mask it runs on.
fn verify_sparse(
    cfg: &MaeriConfig,
    layer: &ConvLayer,
    mask: &WeightMask,
    channel_tile: usize,
) -> Result<(), JobError> {
    let cand = CandidateKind::SparseConv { channel_tile };
    match statically_reject(cfg, &VerifyLayer::SparseConv { layer, mask }, &cand) {
        Some(err) => Err(JobError::InvalidMapping(err.to_string())),
        None => Ok(()),
    }
}

/// Content identity of a [`SimJob`].
///
/// The key stores the job's full canonical encoding, so equal keys mean
/// equal jobs (a perfect content hash — no collision risk); a 64-bit
/// [fingerprint](JobKey::fingerprint) is derived for display.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey(Box<[u8]>);

impl JobKey {
    /// The key's canonical byte encoding. This is the identity the
    /// persistent result store (`maeri-serve`) writes to disk, so the
    /// encoding is append-only stable: new job kinds add tags, existing
    /// tags never change meaning.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Rebuilds a key from its canonical byte encoding (as returned by
    /// [`JobKey::as_bytes`]); used when replaying a persistent store
    /// log.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        JobKey(bytes.into_boxed_slice())
    }

    /// A short FNV-1a fingerprint for logs.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in &self.0 {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.fingerprint())
    }
}

struct KeyEncoder {
    bytes: Vec<u8>,
}

impl KeyEncoder {
    fn new() -> Self {
        KeyEncoder { bytes: Vec::new() }
    }

    fn tag(&mut self, tag: u8) {
        self.bytes.push(tag);
    }

    fn u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn str(&mut self, value: &str) {
        self.usize(value.len());
        self.bytes.extend_from_slice(value.as_bytes());
    }

    fn config(&mut self, cfg: &MaeriConfig) {
        self.usize(cfg.num_mult_switches());
        self.usize(cfg.dist_bandwidth());
        self.usize(cfg.collect_bandwidth());
        self.usize(cfg.ms_local_buffers());
        // The fault spec reshapes mappings and schedules, so two
        // configs differing only in faults must never share a key.
        match cfg.faults() {
            None => self.tag(0),
            Some(spec) => {
                self.tag(1);
                self.u64(spec.seed);
                self.u64(u64::from(spec.dead_mult_permille));
                self.u64(u64::from(spec.dead_adder_permille));
                self.u64(u64::from(spec.dead_link_permille));
                self.u64(u64::from(spec.flit_drop_permille));
                self.u64(u64::from(spec.flit_delay_cycles));
            }
        }
    }

    fn conv(&mut self, layer: &ConvLayer) {
        self.str(&layer.name);
        self.usize(layer.in_channels);
        self.usize(layer.in_h);
        self.usize(layer.in_w);
        self.usize(layer.out_channels);
        self.usize(layer.kernel_h);
        self.usize(layer.kernel_w);
        self.usize(layer.stride);
        self.usize(layer.pad);
    }

    fn policy(&mut self, policy: &VnPolicy) {
        match policy {
            VnPolicy::FullFilter => self.tag(0),
            VnPolicy::ChannelsPerVn(channels) => {
                self.tag(1);
                self.usize(*channels);
            }
            VnPolicy::Auto => self.tag(2),
            VnPolicy::Explicit(mapping) => {
                self.tag(3);
                self.usize(mapping.channel_tile);
                self.usize(mapping.max_vns);
                self.tag(match mapping.loop_order {
                    LoopOrder::FilterMajor => 0,
                    LoopOrder::RowMajor => 1,
                });
            }
            // `VnPolicy` is non-exhaustive upstream; any new variant
            // must be given a stable encoding here before use.
            other => unimplemented!("no key encoding for VN policy {other:?}"),
        }
    }

    fn finish(self) -> JobKey {
        JobKey(self.bytes.into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::new("k", 3, 8, 8, 4, 3, 3, 1, 1)
    }

    #[test]
    fn key_bytes_round_trip() {
        let job = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let key = job.key();
        let rebuilt = JobKey::from_bytes(key.as_bytes().to_vec());
        assert_eq!(key, rebuilt);
        assert_eq!(key.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn identical_jobs_share_a_key() {
        let a = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let b = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn different_fields_change_the_key() {
        let base = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let policy = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::FullFilter);
        let cfg = SimJob::dense_conv(
            MaeriConfig::builder(128).build().unwrap(),
            layer(),
            VnPolicy::Auto,
        );
        assert_ne!(base.key(), policy.key());
        assert_ne!(base.key(), cfg.key());
    }

    #[test]
    fn variants_never_collide() {
        // Same layer through different designs must key differently.
        let dense = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let systolic = SimJob::systolic_conv(8, 8, 8, layer());
        let rowstat = SimJob::row_stationary_conv(8, 8, 8, layer());
        assert_ne!(dense.key(), systolic.key());
        assert_ne!(systolic.key(), rowstat.key());
    }

    #[test]
    fn systolic_fc_keys_labels_and_executes() {
        let fc = maeri_dnn::FcLayer::new("fc6", 256, 64);
        let job = SimJob::systolic_fc(8, 8, 8, fc.clone());
        assert_eq!(job.label(), "systolic/fc/fc6");
        assert_eq!(job.key(), SimJob::systolic_fc(8, 8, 8, fc.clone()).key());
        // The job must report exactly what the baseline reports.
        let direct = SystolicArray::new(8, 8, 8).run_fc(&fc);
        let run = job.execute().unwrap().into_run_stats();
        assert_eq!(run.cycles, direct.cycles);
        assert_eq!(run.sram_reads, direct.sram_reads);
        // Distinct from the MAERI FC job and from a resized array.
        let maeri_fc = SimJob::Fc {
            cfg: MaeriConfig::paper_64(),
            layer: fc.clone(),
        };
        assert_ne!(job.key(), maeri_fc.key());
        assert_ne!(job.key(), SimJob::systolic_fc(16, 16, 8, fc).key());
    }

    #[test]
    fn execute_is_pure() {
        let job = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let a = job.execute().unwrap().into_run_stats();
        let b = job.execute().unwrap().into_run_stats();
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_mask_is_deterministic_from_description() {
        let job = SimJob::sparse_conv(MaeriConfig::paper_64(), layer(), 0.3, 3, 42);
        let a = job.execute().unwrap().into_run_stats();
        let b = job.execute().unwrap().into_run_stats();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.sram_reads, b.sram_reads);
    }

    #[test]
    fn unmappable_is_an_error_value() {
        // Channel tile larger than the channel count is rejected by the
        // static pre-flight verifier, before any mapper runs.
        let job = SimJob::sparse_conv(MaeriConfig::paper_64(), layer(), 0.0, 99, 1);
        let err = match job.execute() {
            Err(crate::JobError::InvalidMapping(msg)) => msg,
            other => panic!("expected InvalidMapping, got {other:?}"),
        };
        assert!(err.contains("channel_tile 99 out of range"), "{err}");
        // Deterministic, so cached: a repeat request reuses the error.
        assert!(!crate::JobError::InvalidMapping(err).is_transient());
    }

    #[test]
    fn fault_spec_is_part_of_the_cache_identity() {
        let clean = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let degraded_cfg = MaeriConfig::builder(64)
            .distribution_bandwidth(8)
            .collection_bandwidth(8)
            .faults(maeri::FaultSpec::new(7).dead_multipliers(250))
            .build()
            .unwrap();
        let degraded = SimJob::dense_conv(degraded_cfg, layer(), VnPolicy::Auto);
        assert_ne!(
            clean.key(),
            degraded.key(),
            "configs differing only in faults must not share cached results"
        );
        let reseeded_cfg = MaeriConfig::builder(64)
            .distribution_bandwidth(8)
            .collection_bandwidth(8)
            .faults(maeri::FaultSpec::new(8).dead_multipliers(250))
            .build()
            .unwrap();
        let reseeded = SimJob::dense_conv(reseeded_cfg, layer(), VnPolicy::Auto);
        assert_ne!(degraded.key(), reseeded.key());
    }

    #[test]
    fn probe_kinds_key_and_label_distinctly() {
        assert_ne!(SimJob::health_check().key(), SimJob::wedge(10).key());
        assert_ne!(SimJob::wedge(10).key(), SimJob::wedge(20).key());
        assert_eq!(SimJob::wedge(10).label(), "probe/wedge");
    }

    #[test]
    fn telemetry_conv_keys_apart_from_dense_conv() {
        let dense = SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let telemetry = SimJob::telemetry_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        assert_ne!(dense.key(), telemetry.key());
        assert_eq!(telemetry.label(), "telemetry/conv/k");
    }

    #[test]
    fn telemetry_conv_carries_trace_and_fabric() {
        let job = SimJob::telemetry_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto);
        let out = job.execute().unwrap();
        let run = out.telemetry().expect("telemetry output");
        assert!(run.trace.cycles.as_u64() > 0);
        assert!(run.fabric.cycles > 0);
        assert!(run.fabric.total_events() > 0);
        let again = job.execute().unwrap();
        assert_eq!(out.canonical_text(), again.canonical_text());
    }

    #[test]
    fn map_search_keys_label_and_execute() {
        let spec = SearchSpec::new(SearchLayer::Conv(layer()), MaeriConfig::paper_64());
        let job = SimJob::map_search(spec.clone());
        assert_eq!(job.label(), "search/conv/k");
        assert_eq!(job.key(), SimJob::map_search(spec).key());
        let result = job.execute().unwrap();
        let search = result.search().expect("search output");
        assert!(search.best_cycles() <= search.heuristic_cycles());
        assert_eq!(
            result.canonical_text(),
            job.execute().unwrap().canonical_text()
        );
    }

    #[test]
    fn map_search_keys_keep_their_stored_bytes() {
        // The persistent store addresses results by these bytes, so a
        // change to the spec must leave stored tag 16 keys where they are.
        let dense = SimJob::map_search(SearchSpec::new(
            SearchLayer::Conv(layer()),
            MaeriConfig::paper_64(),
        ));
        let sparse = SimJob::map_search(SearchSpec::new(
            SearchLayer::SparseConv {
                layer: layer(),
                zero_fraction: 0.5,
                mask_seed: 7,
            },
            MaeriConfig::paper_64(),
        ));
        assert_eq!(dense.key().fingerprint(), 0x89a1_a771_2893_d54c);
        assert_eq!(sparse.key().fingerprint(), 0x5d35_a549_8493_72d1);
    }

    #[test]
    fn map_search_labels_its_layer_kind() {
        let fc = SimJob::map_search(SearchSpec::new(
            SearchLayer::Fc(maeri_dnn::FcLayer::new("fc", 64, 8)),
            MaeriConfig::paper_64(),
        ));
        assert_eq!(fc.label(), "search/fc/fc");
    }

    #[test]
    fn explicit_policy_keys_stably() {
        use maeri::{ConvMapping, LoopOrder};
        let mapping = ConvMapping {
            channel_tile: 2,
            max_vns: 8,
            loop_order: LoopOrder::RowMajor,
        };
        let a = SimJob::dense_conv(
            MaeriConfig::paper_64(),
            layer(),
            VnPolicy::Explicit(mapping),
        );
        let b = SimJob::dense_conv(
            MaeriConfig::paper_64(),
            layer(),
            VnPolicy::Explicit(ConvMapping {
                loop_order: LoopOrder::FilterMajor,
                ..mapping
            }),
        );
        assert_eq!(a.key(), a.key());
        assert_ne!(a.key(), b.key());
        assert_ne!(
            a.key(),
            SimJob::dense_conv(MaeriConfig::paper_64(), layer(), VnPolicy::Auto).key()
        );
        assert!(a.execute().is_ok());
    }
}
