//! # MAERI: Multiply-Accumulate Engine with Reconfigurable Interconnect
//!
//! A cycle-level, value-accurate reproduction of the MAERI DNN
//! accelerator fabric (Kwon, Samajdar & Krishna, ASPLOS 2018). MAERI
//! builds accelerators from three tiny, composable switch types —
//! multiplier switches, adder switches, and simple switches — connected
//! by two reconfigurable tree networks:
//!
//! * a **distribution tree** with chubby (wide) links near the root and
//!   forwarding links between adjacent leaves ([`dist`]),
//! * an **Augmented Reduction Tree** with same-level forwarding links
//!   that lets *arbitrary-sized, contiguous* groups of multipliers
//!   ("virtual neurons") reduce without blocking each other ([`art`]).
//!
//! On top of the fabric sit the dataflow mappers of the paper's
//! Section 4: dense convolution ([`mapper::conv`]), sparse convolution
//! ([`mapper::sparse`]), LSTM ([`mapper::lstm`]), pooling
//! ([`mapper::pool`]), fully-connected ([`mapper::fc`]) and cross-layer
//! fusion ([`mapper::cross_layer`]), each producing a
//! [`engine::RunStats`] with cycles, utilization, and SRAM traffic.
//! The [`functional`] module executes the mappers' plans value-by-value
//! through the switches and the ART, so the fabric's arithmetic is
//! validated against the `maeri-dnn` software reference. The
//! [`fault`] module injects deterministic hard faults (dead
//! multipliers, dead adders, severed forwarding links, flaky
//! distribution links); the mappers carve virtual neurons around the
//! dead regions so a degraded fabric keeps producing reference-exact
//! outputs.
//!
//! # Quick start
//!
//! ```
//! use maeri::{ConvMapper, MaeriConfig, VnPolicy};
//! use maeri_dnn::ConvLayer;
//!
//! // The paper's 64-multiplier fabric with an 8x chubby tree.
//! let cfg = MaeriConfig::paper_64();
//! let layer = ConvLayer::new("conv", 3, 32, 32, 16, 3, 3, 1, 1);
//! let run = ConvMapper::new(cfg).run(&layer, VnPolicy::Auto)?;
//! println!(
//!     "{}: {} cycles, {:.1}% utilization, {} SRAM reads",
//!     run.label,
//!     run.cycles.as_u64(),
//!     run.utilization() * 100.0,
//!     run.sram_reads
//! );
//! # Ok::<(), maeri_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod analytic;
pub mod art;
pub mod config;
pub mod controller;
pub mod cycle_sim;
pub mod dist;
pub mod engine;
pub mod fault;
pub mod functional;
pub mod mapper;
pub mod switch;
pub mod viz;

pub use art::{ArtConfig, ArtError, VnRange};
pub use config::{MaeriConfig, MaeriConfigBuilder};
pub use engine::RunStats;
pub use fault::{FaultPlan, FaultSpec};
pub use mapper::{
    CandidateKind, ConvMapper, ConvMapping, CrossLayerMapper, FcMapper, FoldMode, LoopOrder,
    LstmMapper, PlanError, PoolMapper, SparseConvMapper, VectorPlan, VnPolicy,
};
