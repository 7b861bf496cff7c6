//! Invariant 4 and the pre-score prune gate: static verification of a
//! [`CandidateKind`] against a layer on a fabric, on the mapper's own
//! plan.
//!
//! [`statically_reject`] asks the mapper for its plan
//! ([`ConvMapper::plan`], [`FcMapper::plan`], [`LstmMapper::gate_plan`],
//! [`LstmMapper::state_plan`], [`SparseConvMapper::vn_sizes`]), so a
//! refused candidate comes back as the mapper's own
//! [`maeri::PlanError`]. Building the plan built its ART, which decided
//! invariants 1, 2 and 5, and a MAC-conservation ledger checks the
//! plan's fields against the layer: every weight×input pair must be
//! assigned exactly once, and trailing idle switches drop none.
//!
//! The mapping-space search uses it as a prune gate. It rejects exactly
//! the dense CONV, FC and LSTM candidates the mapper refuses, and only
//! sparse candidates the mapper refuses too, so pruning before scoring
//! changes no search outcome. [`reject_plan`] is the gate's check of a
//! plan already built: the search plans each dense candidate once and
//! hands the plan it costs to the same ledger.

use maeri::mapper::{span_capacity, ConvPlan};
use maeri::{
    CandidateKind, ConvMapper, FcMapper, LstmMapper, MaeriConfig, SparseConvMapper, VectorPlan,
    VnPolicy,
};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer, WeightMask};

use crate::error::VerifyError;

/// A layer with the plan its mapper built for one candidate: what
/// [`reject_plan`] checks.
#[derive(Debug, Clone, Copy)]
pub enum VerifyPlan<'a> {
    /// Dense convolution, planned by [`ConvMapper::plan`].
    Conv(&'a ConvLayer, &'a ConvPlan),
    /// Fully connected, planned by [`FcMapper::plan`].
    Fc(&'a FcLayer, &'a VectorPlan),
    /// LSTM cell with its gate phase's plan ([`LstmMapper::gate_plan`]),
    /// the one its knob sizes; the state phase's fixed plan
    /// ([`LstmMapper::state_plan`]) only has to build.
    Lstm(&'a LstmLayer, &'a VectorPlan),
}

/// The layer a candidate is verified against.
#[derive(Debug, Clone, Copy)]
pub enum VerifyLayer<'a> {
    /// Dense convolution.
    Conv(&'a ConvLayer),
    /// Sparse convolution with its weight mask.
    SparseConv {
        /// The dense layer shape.
        layer: &'a ConvLayer,
        /// Which weights survived pruning.
        mask: &'a WeightMask,
    },
    /// Fully connected.
    Fc(&'a FcLayer),
    /// LSTM cell.
    Lstm(&'a LstmLayer),
}

impl VerifyLayer<'_> {
    fn kind_label(&self) -> &'static str {
        match self {
            VerifyLayer::Conv(_) => "conv",
            VerifyLayer::SparseConv { .. } => "sparse",
            VerifyLayer::Fc(_) => "fc",
            VerifyLayer::Lstm(_) => "lstm",
        }
    }
}

/// [`statically_reject`]'s checks, as a `Result`.
fn check_mapping(
    cfg: &MaeriConfig,
    layer: &VerifyLayer<'_>,
    cand: &CandidateKind,
) -> Result<(), VerifyError> {
    match (layer, *cand) {
        (VerifyLayer::Conv(l), CandidateKind::Conv(m)) => {
            let plan = ConvMapper::new(*cfg).plan(l, VnPolicy::Explicit(m))?;
            check_plan(VerifyPlan::Conv(l, &plan))
        }
        (VerifyLayer::Fc(l), CandidateKind::Fc { vn_size }) => {
            check_plan(VerifyPlan::Fc(l, &FcMapper::new(*cfg).plan(l, vn_size)?))
        }
        (VerifyLayer::Lstm(l), CandidateKind::Lstm { gate_vn_size }) => {
            let plan = LstmMapper::gate_plan(cfg, l, gate_vn_size)?;
            LstmMapper::state_plan(cfg)?;
            check_plan(VerifyPlan::Lstm(l, &plan))
        }
        (VerifyLayer::SparseConv { layer, mask }, CandidateKind::SparseConv { channel_tile }) => {
            let sizes = SparseConvMapper::new(*cfg).vn_sizes(layer, mask, channel_tile)?;
            // An entirely pruned layer performs no work and always maps.
            if !sizes.is_empty() {
                span_capacity(&cfg.healthy_spans())?;
            }
            // Each surviving weight is assigned once per output position.
            let positions = (layer.out_h() * layer.out_w()) as u64;
            let expected = mask.total_nonzeros() as u64 * positions;
            let assigned = sizes.iter().sum::<usize>() as u64 * positions;
            conserve(expected, assigned, "sparse survivors")
        }
        (layer, kind) => Err(VerifyError::KindMismatch {
            candidate: match kind {
                CandidateKind::Conv(_) => "conv",
                CandidateKind::SparseConv { .. } => "sparse",
                CandidateKind::Fc { .. } => "fc",
                CandidateKind::Lstm { .. } => "lstm",
            },
            layer: layer.kind_label(),
        }),
    }
}

/// The mapping-space prune gate: `Some(violation)` exactly when the
/// mapper refuses a dense CONV, FC or LSTM candidate
/// (`ConvMapper::run`, `FcMapper::run_with_vn_size`,
/// `LstmMapper::run_with_gate_vn_size`), and for a sparse candidate
/// only when `SparseConvMapper::run` refuses it too (a later group's
/// ART may still fail there). A statically rejected candidate can never
/// have scored.
///
/// The candidate is planned on `cfg` as given. The violation is the
/// first of: a kind mismatch, the mapper's refusal to plan, or a
/// MAC-conservation mismatch in the plan.
#[must_use]
pub fn statically_reject(
    cfg: &MaeriConfig,
    layer: &VerifyLayer<'_>,
    cand: &CandidateKind,
) -> Option<VerifyError> {
    check_mapping(cfg, layer, cand).err()
}

/// The gate's check of a plan the mapper already built, which
/// [`statically_reject`] runs on the plan it asks for: `Some(violation)`
/// when the plan's MAC-conservation ledger (invariant 4) fails. Building
/// the plan decided the other invariants, so a caller that holds the
/// plan it will cost gets the gate's verdict without planning again.
#[must_use]
pub fn reject_plan(plan: VerifyPlan<'_>) -> Option<VerifyError> {
    check_plan(plan).err()
}

/// [`reject_plan`]'s ledger, as a `Result`.
fn check_plan(plan: VerifyPlan<'_>) -> Result<(), VerifyError> {
    match plan {
        VerifyPlan::Conv(l, plan) => conv_ledger(l, plan),
        VerifyPlan::Fc(l, plan) => folded_ledger(plan, l.inputs, l.outputs, l.macs(), "fc folding"),
        VerifyPlan::Lstm(l, plan) => {
            let (d, gates) = (l.input_dim + l.hidden_dim, 4 * l.hidden_dim);
            folded_ledger(plan, d, gates, l.gate_macs(), "lstm gate folding")
        }
    }
}

/// Invariant 4's books: the plan must assign exactly the `expected`
/// units the layer defines.
fn conserve(expected: u64, assigned: u64, unit: &'static str) -> Result<(), VerifyError> {
    if assigned == expected {
        Ok(())
    } else {
        Err(VerifyError::MacMismatch {
            expected,
            assigned,
            unit,
        })
    }
}

/// Invariant 4 over a dense CONV plan, in three closures: the plan's
/// `segments` channel tiles cover every input channel once, its
/// `subfold` pieces cover every weight of one tile once (trailing idle
/// switches pad the last piece but drop nothing), and its iterations
/// cover every work unit at least once.
fn conv_ledger(layer: &ConvLayer, plan: &ConvPlan) -> Result<(), VerifyError> {
    let rs = layer.kernel_h * layer.kernel_w;
    let covered = (plan.segments * plan.channel_tile).min(layer.in_channels);
    let assigned = layer.output_count() as u64 * (rs * covered) as u64;
    conserve(layer.macs(), assigned, "conv channel tiling")?;
    let tile = rs * plan.channel_tile;
    let pieces = (plan.subfold * plan.vn_size).min(tile);
    conserve(tile as u64, pieces as u64, "conv subfold pieces")?;
    let units = layer.out_channels as u64 * layer.out_h() as u64 * plan.fold_factor() as u64;
    let lanes = plan.iterations * plan.num_vns as u64;
    if lanes < units {
        return Err(VerifyError::MacMismatch {
            expected: units,
            assigned: lanes,
            unit: "conv work units",
        });
    }
    Ok(())
}

/// Invariant 4 over a folded-vector plan: `plan.fold` segments of
/// `plan.vn_size` switches cover all `d` inputs of each of the
/// `outputs` dot products, `expected` MACs in all.
fn folded_ledger(
    plan: &VectorPlan,
    d: usize,
    outputs: usize,
    expected: u64,
    unit: &'static str,
) -> Result<(), VerifyError> {
    let covered = (plan.fold * plan.vn_size).min(d);
    conserve(expected, (outputs * covered) as u64, unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::{ConvMapping, LoopOrder, PlanError};
    use maeri_sim::SimRng;

    fn conv_layer() -> ConvLayer {
        ConvLayer::new("c", 3, 8, 8, 4, 3, 3, 1, 1)
    }

    #[test]
    fn valid_conv_candidate_verifies_and_conserves_macs() {
        let base = MaeriConfig::paper_64();
        let layer = conv_layer();
        let cand = CandidateKind::Conv(ConvMapping {
            channel_tile: 3,
            max_vns: 64,
            loop_order: LoopOrder::FilterMajor,
        });
        // The plan builds and its ledger assigns every MAC once.
        assert_eq!(
            statically_reject(&base, &VerifyLayer::Conv(&layer), &cand),
            None
        );
    }

    #[test]
    fn oversized_channel_tile_rejected_with_bounds() {
        let base = MaeriConfig::paper_64();
        let layer = conv_layer();
        let cand = CandidateKind::SparseConv { channel_tile: 99 };
        let mask = WeightMask::generate(&layer, 0.5, &mut SimRng::seed(1));
        let err = statically_reject(
            &base,
            &VerifyLayer::SparseConv {
                layer: &layer,
                mask: &mask,
            },
            &cand,
        )
        .unwrap();
        assert_eq!(
            err,
            VerifyError::Plan(PlanError::KnobOutOfRange {
                knob: "channel_tile",
                value: 99,
                min: 1,
                max: 3
            })
        );
        // The dynamic mapper rejects it too (gate soundness).
        assert!(SparseConvMapper::new(base).run(&layer, &mask, 99).is_err());
    }

    #[test]
    fn fc_vn_size_bounds_follow_healthy_capacity() {
        use maeri::fault::FaultSpec;
        let base = MaeriConfig::builder(64)
            .faults(FaultSpec::new(5).dead_multipliers(500))
            .build()
            .unwrap();
        let cap = base.fault_plan().unwrap().max_span_len();
        assert!(cap < 64);
        let fc = FcLayer::new("f", 256, 16);
        let reject = CandidateKind::Fc { vn_size: cap + 1 };
        let err = statically_reject(&base, &VerifyLayer::Fc(&fc), &reject).unwrap();
        assert_eq!(
            err,
            VerifyError::Plan(PlanError::KnobOutOfRange {
                knob: "vn_size",
                value: cap + 1,
                min: 1,
                max: cap
            })
        );
        let accept = CandidateKind::Fc { vn_size: cap };
        assert!(statically_reject(&base, &VerifyLayer::Fc(&fc), &accept).is_none());
    }

    #[test]
    fn kind_mismatch_is_structured() {
        let base = MaeriConfig::paper_64();
        let fc = FcLayer::new("f", 16, 4);
        let cand = CandidateKind::Lstm { gate_vn_size: 4 };
        let err = statically_reject(&base, &VerifyLayer::Fc(&fc), &cand).unwrap();
        assert_eq!(
            err,
            VerifyError::KindMismatch {
                candidate: "lstm",
                layer: "fc"
            }
        );
    }

    /// A plan the mapper built for a 3×3 layer of 16 channels with tile
    /// 8 on 64 leaves: 2 segments, each folded into 2 pieces of 36.
    fn folded_conv_plan() -> (ConvLayer, ConvPlan) {
        let layer = ConvLayer::new("fold", 16, 8, 8, 4, 3, 3, 1, 1);
        let mapping = ConvMapping {
            channel_tile: 8,
            max_vns: 64,
            loop_order: LoopOrder::FilterMajor,
        };
        let plan = ConvMapper::new(MaeriConfig::paper_64())
            .plan(&layer, VnPolicy::Explicit(mapping))
            .unwrap();
        assert_eq!((plan.segments, plan.subfold, plan.vn_size), (2, 2, 36));
        assert_eq!(conv_ledger(&layer, &plan), Ok(()));
        (layer, plan)
    }

    #[test]
    fn conv_ledger_flags_a_dropped_channel_segment() {
        let (layer, mut plan) = folded_conv_plan();
        plan.segments -= 1;
        // 256 outputs × 9 taps × 8 of the 16 channels.
        assert_eq!(
            conv_ledger(&layer, &plan),
            Err(VerifyError::MacMismatch {
                expected: 36_864,
                assigned: 18_432,
                unit: "conv channel tiling",
            })
        );
    }

    #[test]
    fn conv_ledger_flags_a_dropped_subfold_piece() {
        let (layer, mut plan) = folded_conv_plan();
        plan.subfold -= 1;
        assert_eq!(
            conv_ledger(&layer, &plan),
            Err(VerifyError::MacMismatch {
                expected: 72,
                assigned: 36,
                unit: "conv subfold pieces",
            })
        );
    }

    #[test]
    fn conv_ledger_flags_a_missing_iteration() {
        let (layer, mut plan) = folded_conv_plan();
        assert_eq!(plan.num_vns, 1);
        plan.iterations -= 1;
        // 4 filters × 8 output rows × 4 fold passes, one VN per iteration.
        assert_eq!(
            conv_ledger(&layer, &plan),
            Err(VerifyError::MacMismatch {
                expected: 128,
                assigned: 127,
                unit: "conv work units",
            })
        );
    }

    #[test]
    fn folded_ledger_flags_a_dropped_fold() {
        let fc = FcLayer::new("f", 256, 16);
        let mut plan = VectorPlan::new(&MaeriConfig::paper_64(), 256, 64, "vn_size").unwrap();
        assert_eq!((plan.fold, plan.vn_size), (4, 64));
        assert_eq!(fc.macs(), 4096);
        assert_eq!(
            folded_ledger(&plan, 256, 16, fc.macs(), "fc folding"),
            Ok(())
        );
        plan.fold -= 1;
        assert_eq!(
            folded_ledger(&plan, 256, 16, fc.macs(), "fc folding"),
            Err(VerifyError::MacMismatch {
                expected: 4096,
                assigned: 3072,
                unit: "fc folding",
            })
        );
    }
}
