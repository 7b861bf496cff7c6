//! The common currency between the heuristic mappers and the
//! mapping-space search (`maeri-mapspace`).
//!
//! Every mapper in this module exposes its tunable knobs as one
//! [`CandidateKind`]: the layer-kind-specific VN partition the switches
//! are reconfigured into. The bandwidth pair is the fabric's, not the
//! mapping's. The legacy heuristics
//! ([`ConvMapper::heuristic_mapping`](super::ConvMapper::heuristic_mapping),
//! [`FcMapper::heuristic_vn_size`](super::FcMapper::heuristic_vn_size),
//! [`LstmMapper::heuristic_gate_vn_size`](super::LstmMapper::heuristic_gate_vn_size),
//! [`SparseConvMapper::auto_channel_tile`](super::SparseConvMapper::auto_channel_tile))
//! each resolve to one candidate, making them named points in the same
//! space the auto-tuner enumerates.

use serde::{Deserialize, Serialize};

use super::conv::ConvMapping;

/// The layer-kind-specific mapping knobs of one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CandidateKind {
    /// Dense CONV: channel tile, replication cap, loop order.
    Conv(ConvMapping),
    /// Sparse CONV: the channel tile survivor VNs are carved from.
    SparseConv {
        /// Channels covered per VN before mask compression.
        channel_tile: usize,
    },
    /// Fully-connected: the per-neuron VN-size target (folding knob).
    Fc {
        /// Multiplier switches per VN (each neuron folds
        /// `ceil(inputs / vn_size)` ways).
        vn_size: usize,
    },
    /// LSTM: the gate-phase VN-size target (the state phase always
    /// rebuilds two-wide VNs).
    Lstm {
        /// Multiplier switches per gate-phase VN.
        gate_vn_size: usize,
    },
}

impl CandidateKind {
    /// A stable human-readable label of the knobs, e.g.
    /// `conv ct=3 max_vns=64 filter-major`.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            CandidateKind::Conv(m) => {
                let order = match m.loop_order {
                    super::LoopOrder::FilterMajor => "filter-major",
                    super::LoopOrder::RowMajor => "row-major",
                };
                format!("conv ct={} max_vns={} {order}", m.channel_tile, m.max_vns)
            }
            CandidateKind::SparseConv { channel_tile } => format!("sparse ct={channel_tile}"),
            CandidateKind::Fc { vn_size } => format!("fc vn={vn_size}"),
            CandidateKind::Lstm { gate_vn_size } => format!("lstm gate_vn={gate_vn_size}"),
        }
    }
}
