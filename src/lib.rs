//! # maeri-repro — a reproduction of MAERI (ASPLOS 2018)
//!
//! Facade crate for the workspace reproducing *MAERI: Enabling Flexible
//! Dataflow Mapping over DNN Accelerators via Reconfigurable
//! Interconnects* (Kwon, Samajdar & Krishna). It re-exports the member
//! crates under stable names:
//!
//! * [`fabric`] — the MAERI core: configuration, switches, distribution
//!   tree, Augmented Reduction Tree, dataflow mappers, functional
//!   simulation ([`maeri`]),
//! * [`dnn`] — tensors, layer descriptors, the Table 1 model zoo,
//!   software reference compute, sparsity masks ([`maeri_dnn`]),
//! * [`noc`] — tree topologies, chubby bandwidth profiles,
//!   reduction-network models, NoC PPA comparators ([`maeri_noc`]),
//! * [`baselines`] — systolic array, row stationary, fixed clusters
//!   ([`maeri_baselines`]),
//! * [`ppa`] — the calibrated 28 nm area/power model ([`maeri_ppa`]),
//! * [`mapspace`] — mapping-space exploration: per-layer auto-tuning of
//!   VN partitions, replication, and loop order ([`maeri_mapspace`]),
//! * [`verify`] — static mapping verification: proves VN-partition
//!   legality, fault consistency, and MAC conservation without
//!   clocking a cycle ([`maeri_verify`]),
//! * [`runtime`] — parallel batch execution: simulation jobs, the
//!   worker-pool scheduler, result caching ([`maeri_runtime`]),
//! * [`fleet`] — heterogeneous multi-accelerator fleet simulation:
//!   per-layer placement policies, fault-degraded co-scheduling,
//!   virtual-clock fleet load replay ([`maeri_fleet`]),
//! * [`sim`] — cycles, statistics, RNG, tables ([`maeri_sim`]),
//! * [`telemetry`] — cycle-level fabric observability: trace probes,
//!   event sinks, Chrome-trace export ([`maeri_telemetry`]).
//!
//! # Quick start
//!
//! ```
//! use maeri_repro::fabric::{ConvMapper, MaeriConfig, VnPolicy};
//! use maeri_repro::dnn::ConvLayer;
//!
//! let cfg = MaeriConfig::paper_64();
//! let layer = ConvLayer::new("conv", 3, 32, 32, 16, 3, 3, 1, 1);
//! let run = ConvMapper::new(cfg).run(&layer, VnPolicy::Auto)?;
//! assert!(run.utilization() > 0.5);
//! # Ok::<(), maeri_repro::sim::SimError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin`
//! for the binaries that regenerate every table and figure of the
//! paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The MAERI fabric (re-export of the `maeri` crate).
pub use maeri as fabric;

/// DNN substrate (re-export of `maeri-dnn`).
pub use maeri_dnn as dnn;

/// NoC substrate (re-export of `maeri-noc`).
pub use maeri_noc as noc;

/// Baseline accelerators (re-export of `maeri-baselines`).
pub use maeri_baselines as baselines;

/// 28 nm PPA model (re-export of `maeri-ppa`).
pub use maeri_ppa as ppa;

/// Mapping-space exploration (re-export of `maeri-mapspace`).
pub use maeri_mapspace as mapspace;

/// Batch-simulation runtime (re-export of `maeri-runtime`).
pub use maeri_runtime as runtime;

/// Batch-inference simulation service (re-export of `maeri-serve`).
pub use maeri_serve as serve;

/// Heterogeneous fleet simulation (re-export of `maeri-fleet`).
pub use maeri_fleet as fleet;

/// Static mapping verification (re-export of `maeri-verify`).
pub use maeri_verify as verify;

/// Simulation kernel (re-export of `maeri-sim`).
pub use maeri_sim as sim;

/// Fabric telemetry (re-export of `maeri-telemetry`).
pub use maeri_telemetry as telemetry;
