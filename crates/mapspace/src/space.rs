//! Search-space definition: what a search is over, and the full
//! deterministic enumeration of its candidates.

use maeri::{CandidateKind, ConvMapping, LoopOrder, MaeriConfig};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer};
use serde::{Deserialize, Serialize};

/// The layer a search tunes. Sparse layers carry the mask *recipe*
/// (zero fraction + seed) rather than a materialized mask so specs
/// stay small, hashable, and serializable — the search regenerates the
/// mask deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchLayer {
    /// Dense convolution.
    Conv(ConvLayer),
    /// Sparse convolution with a seeded random weight mask.
    SparseConv {
        /// The dense layer shape.
        layer: ConvLayer,
        /// Fraction of weights that are zero (`0.0..=1.0`).
        zero_fraction: f64,
        /// Seed for the mask generator.
        mask_seed: u64,
    },
    /// Fully-connected layer.
    Fc(FcLayer),
    /// One LSTM time step (gate + state phases).
    Lstm(LstmLayer),
}

impl SearchLayer {
    /// The layer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            SearchLayer::Conv(l) | SearchLayer::SparseConv { layer: l, .. } => &l.name,
            SearchLayer::Fc(l) => &l.name,
            SearchLayer::Lstm(l) => &l.name,
        }
    }

    /// A short kind label (`conv`, `sparse`, `fc`, `lstm`).
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            SearchLayer::Conv(_) => "conv",
            SearchLayer::SparseConv { .. } => "sparse",
            SearchLayer::Fc(_) => "fc",
            SearchLayer::Lstm(_) => "lstm",
        }
    }
}

/// A complete description of one mapping search. Everything the search
/// does is a deterministic function of this value, which is why
/// `maeri-runtime` can content-hash it as a cache key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpec {
    /// The layer to tune.
    pub layer: SearchLayer,
    /// The fabric the layer runs on, bandwidth pair and faults included.
    /// Every candidate runs on it, so the tuned and heuristic mappings
    /// are compared on identical hardware.
    pub base: MaeriConfig,
}

impl SearchSpec {
    /// A search for `layer` on `base`.
    #[must_use]
    pub fn new(layer: SearchLayer, base: MaeriConfig) -> Self {
        SearchSpec { layer, base }
    }
}

/// Closed-form size of the exhaustive space — the count [`enumerate`]
/// must produce (a test asserts the two agree, so the search provably
/// covers the space):
///
/// * CONV: `C x (log2(N) + 1) x 2` (channel tiles x power-of-two
///   replication caps x loop orders),
/// * sparse CONV: `C`,
/// * FC: `min(inputs, N)`,
/// * LSTM: `min(input_dim + hidden_dim, N)`.
#[must_use]
pub fn space_size(spec: &SearchSpec) -> u64 {
    let n = spec.base.num_mult_switches() as u64;
    match &spec.layer {
        SearchLayer::Conv(l) => {
            let caps = spec.base.art_depth() as u64 + 1;
            l.in_channels as u64 * caps * 2
        }
        SearchLayer::SparseConv { layer, .. } => layer.in_channels as u64,
        SearchLayer::Fc(l) => (l.inputs as u64).min(n),
        SearchLayer::Lstm(l) => ((l.input_dim + l.hidden_dim) as u64).min(n),
    }
}

/// Every candidate in the space, in a fixed deterministic order (knobs
/// ascending). Infeasible candidates are *included* — the scoring pass
/// prunes them, so the enumeration count always matches [`space_size`].
#[must_use]
pub fn enumerate(spec: &SearchSpec) -> Vec<CandidateKind> {
    let n = spec.base.num_mult_switches();
    let mut out = Vec::with_capacity(space_size(spec) as usize);
    match &spec.layer {
        SearchLayer::Conv(l) => {
            for channel_tile in 1..=l.in_channels {
                for exp in 0..=spec.base.art_depth() {
                    for loop_order in [LoopOrder::FilterMajor, LoopOrder::RowMajor] {
                        out.push(CandidateKind::Conv(ConvMapping {
                            channel_tile,
                            max_vns: 1 << exp,
                            loop_order,
                        }));
                    }
                }
            }
        }
        SearchLayer::SparseConv { layer, .. } => {
            for channel_tile in 1..=layer.in_channels {
                out.push(CandidateKind::SparseConv { channel_tile });
            }
        }
        SearchLayer::Fc(l) => {
            for vn_size in 1..=l.inputs.min(n) {
                out.push(CandidateKind::Fc { vn_size });
            }
        }
        SearchLayer::Lstm(l) => {
            for gate_vn_size in 1..=(l.input_dim + l.hidden_dim).min(n) {
                out.push(CandidateKind::Lstm { gate_vn_size });
            }
        }
    }
    out
}
