//! Dataflow mappers: one per layer type of Section 4.
//!
//! Each mapper turns a layer descriptor plus a [`crate::MaeriConfig`]
//! into a *plan* — virtual-neuron assignments over the multiplier
//! switches and the [`crate::art::ArtConfig`] they build — and then
//! applies its cost model to the plan to produce a
//! [`crate::engine::RunStats`]:
//!
//! * distribution cost from [`crate::dist::Distributor`] bandwidth
//!   counting (multicast-aware),
//! * one multiply per multiplier switch per output step,
//! * collection throughput bounded by the ART's chubby links
//!   ([`crate::art::ArtConfig::throughput_slowdown`]),
//! * folding (Section 4.8) via adder-switch temporal registers.
//!
//! FC neurons, LSTM gates, the LSTM state phase and pooling windows
//! share one folded-vector plan, [`VectorPlan`]. The dense mappers take
//! the healthy spans and each plan's ART from an [`ArtSource`]:
//! [`FabricArts`] for a plan on its own, or a caller's memo when many
//! plans share one fabric. A refused plan is a structured
//! [`PlanError`], which the static verifier (`maeri-verify`) reports
//! unchanged; [`crate::functional`] executes the plans themselves.

pub mod candidate;
pub mod conv;
pub mod cross_layer;
pub mod fc;
pub mod lstm;
pub mod pool;
pub mod sparse;

use std::fmt;
use std::sync::Arc;

pub use candidate::CandidateKind;
pub use conv::{ConvMapper, ConvMapping, ConvPlan, FoldMode, LoopOrder, VnPolicy};
pub use cross_layer::CrossLayerMapper;
pub use fc::FcMapper;
pub use lstm::LstmMapper;
pub use pool::PoolMapper;
pub use sparse::SparseConvMapper;

use crate::art::{pack_equal_vns, packed_count, ArtConfig, ArtError, ArtWalk, VnRange};
use crate::{FaultPlan, MaeriConfig};
use maeri_noc::ChubbyTree;
use maeri_sim::{Result, SimError};

/// Why a mapper cannot plan a layer: a knob outside its legal range, a
/// fabric with no healthy multiplier, or a VN partition the ART
/// refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A mapping knob sits outside its legal range.
    KnobOutOfRange {
        /// The knob's name (e.g. `"channel_tile"`).
        knob: &'static str,
        /// The supplied value.
        value: usize,
        /// Smallest legal value.
        min: usize,
        /// Largest legal value.
        max: usize,
    },
    /// Every multiplier switch is faulty; no VN can be formed.
    NothingMappable,
    /// The ART cannot build the planned VN partition.
    Partition(ArtError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::KnobOutOfRange {
                knob,
                value,
                min,
                max,
            } => write!(f, "{knob} {value} out of range {min}..={max}"),
            PlanError::NothingMappable => {
                f.write_str("every multiplier switch is faulty; no virtual neuron can be formed")
            }
            PlanError::Partition(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ArtError> for PlanError {
    fn from(err: ArtError) -> Self {
        PlanError::Partition(err)
    }
}

impl From<PlanError> for SimError {
    fn from(err: PlanError) -> Self {
        SimError::unmappable(err)
    }
}

/// Largest contiguous healthy span (`cap`, the biggest VN the fabric
/// can host) and total healthy leaves (`budget`) of a span set. On a
/// fault-free fabric both equal the multiplier count.
///
/// # Errors
///
/// Returns [`PlanError::NothingMappable`] when no healthy span remains.
pub fn span_capacity(spans: &[VnRange]) -> Result<(usize, usize), PlanError> {
    let cap = spans.iter().map(|s| s.len).max().unwrap_or(0);
    if cap == 0 {
        return Err(PlanError::NothingMappable);
    }
    Ok((cap, spans.iter().map(|s| s.len).sum()))
}

/// `value` when the knob lies in `1..=max`, else its range error.
pub(crate) fn knob_in_range(
    knob: &'static str,
    value: usize,
    max: usize,
) -> Result<usize, PlanError> {
    if (1..=max).contains(&value) {
        Ok(value)
    } else {
        Err(PlanError::KnobOutOfRange {
            knob,
            value,
            min: 1,
            max,
        })
    }
}

/// Where a mapper's VNs pack and where the ART of a packing comes from.
/// A mapper counts the VNs that fit with [`packed_count`] and asks for
/// the ART of that many; the ranges are packed only where an ART is
/// built. [`FabricArts`] builds every ART afresh; a caller planning
/// many mappings on one fabric may share one ART among the plans that
/// ask for the same packing.
pub trait ArtSource {
    /// The healthy spans VNs pack into.
    fn spans(&self) -> &[VnRange];

    /// The ART of `num_vns` VNs of `vn_size` leaves, packed into
    /// [`Self::spans`] by [`crate::art::pack_vns_into_spans`]; the caller
    /// asks for no more than [`packed_count`] places.
    ///
    /// # Errors
    ///
    /// Returns the ART's refusal of the packing.
    fn art(&mut self, vn_size: usize, num_vns: usize) -> Result<Arc<ArtConfig>, ArtError>;
}

/// A fabric's [`ArtSource`]: its fault plan and healthy spans,
/// materialized once, and an ART built per request. Every request packs
/// into one reused range buffer and is built on one reused construction
/// walk, whose result the ART copies out, so a source asked for many
/// ARTs allocates little more than the ARTs themselves.
#[derive(Debug)]
pub struct FabricArts {
    chubby: ChubbyTree,
    faults: Option<FaultPlan>,
    spans: Vec<VnRange>,
    walk: ArtWalk,
    ranges: Vec<VnRange>,
}

impl FabricArts {
    /// Materializes `cfg`'s fault plan and healthy spans.
    #[must_use]
    pub fn new(cfg: &MaeriConfig) -> Self {
        let faults = cfg.fault_plan();
        let chubby = cfg.collection_chubby();
        FabricArts {
            chubby,
            spans: cfg.healthy_spans_under(faults.as_ref()),
            faults,
            walk: ArtWalk::new(*chubby.tree()),
            ranges: Vec::new(),
        }
    }
}

impl ArtSource for FabricArts {
    fn spans(&self) -> &[VnRange] {
        &self.spans
    }

    fn art(&mut self, vn_size: usize, num_vns: usize) -> Result<Arc<ArtConfig>, ArtError> {
        self.ranges.clear();
        self.ranges
            .extend(pack_equal_vns(&self.spans, vn_size, num_vns));
        self.walk
            .build(&self.chubby, &self.ranges, self.faults.as_ref())
            .map(Arc::new)
    }
}

/// The folded-vector plan shared by FC neurons (Section 4.5), LSTM
/// gates and the LSTM state phase (Section 4.3) and pooling windows
/// (Section 4.4): each length-`d` reduction folds `fold` ways
/// (Section 4.8) into balanced VNs of `vn_size` switches, packed into
/// the healthy spans as many times as the healthy budget allows.
#[derive(Debug, Clone)]
pub struct VectorPlan {
    /// Passes per reduction (`ceil(d / requested VN size)`).
    pub fold: usize,
    /// Switches per VN after balancing (`ceil(d / fold)`).
    pub vn_size: usize,
    /// The ART configuration of one iteration; its VNs are the lanes.
    /// Plans that ask one [`ArtSource`] for the same packing may share it.
    pub art: Arc<ArtConfig>,
}

impl VectorPlan {
    /// Plans length-`d` reductions with the VN-size target `vn_size`,
    /// the knob named `knob` in errors.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NothingMappable`] on a fully faulty fabric,
    /// [`PlanError::KnobOutOfRange`] when `vn_size` is outside
    /// `1..=min(d, cap)`, and [`PlanError::Partition`] when the ART
    /// refuses the packing.
    pub fn new(
        cfg: &MaeriConfig,
        d: usize,
        vn_size: usize,
        knob: &'static str,
    ) -> Result<Self, PlanError> {
        Self::over(&mut FabricArts::new(cfg), d, vn_size, knob)
    }

    /// [`Self::new`] on the spans of `arts`, with the ART of the packed
    /// VNs from `arts`.
    ///
    /// # Errors
    ///
    /// As [`Self::new`]; a [`PlanError::Partition`] is the refusal of
    /// [`ArtSource::art`].
    pub fn over(
        arts: &mut impl ArtSource,
        d: usize,
        vn_size: usize,
        knob: &'static str,
    ) -> Result<Self, PlanError> {
        let (cap, budget) = span_capacity(arts.spans())?;
        let fold = d.div_ceil(knob_in_range(knob, vn_size, d.min(cap))?);
        let vn_size = d.div_ceil(fold);
        let want = (budget / vn_size).max(1);
        let num_vns = packed_count(arts.spans(), vn_size, want);
        Ok(VectorPlan {
            fold,
            vn_size,
            art: arts.art(vn_size, num_vns)?,
        })
    }

    /// The heuristic VN size for length-`d` reductions: the fewest
    /// folds the largest healthy span allows, balanced.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NothingMappable`] on a fully faulty fabric.
    pub fn heuristic_vn_size(cfg: &MaeriConfig, d: usize) -> Result<usize, PlanError> {
        let (cap, _) = span_capacity(&cfg.healthy_spans())?;
        Ok(d.div_ceil(d.div_ceil(cap)))
    }
}
