//! Invariant 4 and the pre-score prune gate: static verification of a
//! [`MappingCandidate`] against a layer, without running any mapper.
//!
//! [`verify_mapping`] replays each mapper's *planning* math (knob
//! bounds, folding, VN packing) symbolically, verifies the resulting
//! partition with [`crate::verify_partition_with_faults`], and closes
//! the books with a MAC-conservation ledger: every weight×input pair
//! must be assigned exactly once, and trailing idle switches drop none.
//!
//! [`statically_reject`] is the soundness-critical wrapper the
//! mapping-space search uses as a prune gate: it only rejects
//! candidates the dynamic scoring path would also reject, so pruning
//! before scoring changes no search outcome (pinned by the byte-stable
//! report comparison in CI).

use maeri::art::{pack_vns_into_spans, VnRange};
use maeri::{CandidateKind, ConvMapping, MaeriConfig, MappingCandidate};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer, WeightMask};
use maeri_sim::util::ceil_div;

use crate::error::VerifyError;
use crate::partition::{verify_partition_with_faults, PartitionReport};

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

/// What a successful mapping verification proves.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingReport {
    /// The verified VN partition of one steady-state iteration (`None`
    /// for sparse layers, whose grouping is re-packed dynamically per
    /// group, and for entirely pruned sparse layers that do no work).
    pub partition: Option<PartitionReport>,
    /// Work units the layer defines (MACs; gate-phase MACs for LSTM).
    pub macs_expected: u64,
    /// Work units the mapping assigns.
    pub macs_assigned: u64,
}

/// Statically verifies a mapping candidate against a layer.
///
/// # Errors
///
/// Returns the first [`VerifyError`] violation: fabric-configuration
/// failures, knob bounds, kind mismatches, partition illegality, or a
/// MAC-conservation mismatch.
pub fn verify_mapping(
    base: &MaeriConfig,
    layer: &VerifyLayer<'_>,
    cand: &MappingCandidate,
) -> Result<MappingReport, VerifyError> {
    let cfg = cand.config(base).map_err(|e| VerifyError::Config {
        message: e.to_string(),
    })?;
    match (layer, cand.kind) {
        (VerifyLayer::Conv(l), CandidateKind::Conv(m)) => verify_conv(&cfg, l, &m),
        (VerifyLayer::SparseConv { layer, mask }, CandidateKind::SparseConv { channel_tile }) => {
            verify_sparse(&cfg, layer, mask, channel_tile)
        }
        (VerifyLayer::Fc(l), CandidateKind::Fc { vn_size }) => {
            let d = l.inputs;
            let report = verify_folded_vector(&cfg, d, vn_size, "vn_size")?;
            mac_ledger_folded(d, report.1, l.outputs as u64, l.macs(), "fc folding").map(
                |(expected, assigned)| MappingReport {
                    partition: Some(report.0),
                    macs_expected: expected,
                    macs_assigned: assigned,
                },
            )
        }
        (VerifyLayer::Lstm(l), CandidateKind::Lstm { gate_vn_size }) => {
            let d = l.input_dim + l.hidden_dim;
            let report = verify_folded_vector(&cfg, d, gate_vn_size, "gate_vn_size")?;
            mac_ledger_folded(
                d,
                report.1,
                4 * l.hidden_dim as u64,
                l.gate_macs(),
                "lstm gate folding",
            )
            .map(|(expected, assigned)| MappingReport {
                partition: Some(report.0),
                macs_expected: expected,
                macs_assigned: assigned,
            })
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

/// The mapping-space prune gate: `Some(violation)` only when the
/// dynamic scoring path is guaranteed to reject the candidate too.
///
/// Every check in [`verify_mapping`] mirrors a reject condition of the
/// corresponding mapper (`ConvMapper::plan`, `FcMapper::run_with_vn_size`,
/// `LstmMapper::run_with_gate_vn_size`, `SparseConvMapper::run`) or of
/// the ART construction those mappers invoke, so a statically rejected
/// candidate can never have scored.
#[must_use]
pub fn statically_reject(
    base: &MaeriConfig,
    layer: &VerifyLayer<'_>,
    cand: &MappingCandidate,
) -> Option<VerifyError> {
    verify_mapping(base, layer, cand).err()
}

/// Largest healthy span and total healthy budget, or
/// [`VerifyError::NothingMappable`].
fn span_capacity(spans: &[VnRange]) -> Result<(usize, usize), VerifyError> {
    let cap = spans.iter().map(|s| s.len).max().unwrap_or(0);
    if cap == 0 {
        return Err(VerifyError::NothingMappable);
    }
    Ok((cap, spans.iter().map(|s| s.len).sum()))
}

/// Dense CONV: mirrors `ConvMapper::plan` (Section 4.2 with folding
/// from Section 4.8), then verifies the packed partition and the
/// channel-tiling MAC ledger.
fn verify_conv(
    cfg: &MaeriConfig,
    layer: &ConvLayer,
    m: &ConvMapping,
) -> Result<MappingReport, VerifyError> {
    let spans = cfg.healthy_spans();
    let (cap, budget) = span_capacity(&spans)?;
    if m.channel_tile == 0 || m.channel_tile > layer.in_channels {
        return Err(VerifyError::KnobOutOfRange {
            knob: "channel_tile",
            value: m.channel_tile,
            min: 1,
            max: layer.in_channels,
        });
    }
    if m.max_vns == 0 {
        return Err(VerifyError::KnobOutOfRange {
            knob: "max_vns",
            value: 0,
            min: 1,
            max: cfg.num_mult_switches(),
        });
    }
    let rs = layer.kernel_h * layer.kernel_w;
    let vn_weights = rs * m.channel_tile;
    let subfold = ceil_div(vn_weights as u64, cap as u64) as usize;
    let vn_size = ceil_div(vn_weights as u64, subfold as u64) as usize;
    let want = (budget / vn_size).min(m.max_vns).max(1);
    let (ranges, _) = pack_vns_into_spans(&spans, &vec![vn_size; want]);
    let plan = cfg.fault_plan();
    let partition = verify_partition_with_faults(cfg, plan.as_ref(), &ranges)?;

    // Invariant 4 ledger, in three closures over the same tiling:
    // (a) the `segments` channel tiles cover every input channel once,
    let segments = ceil_div(layer.in_channels as u64, m.channel_tile as u64) as usize;
    let mut covered = 0usize;
    for seg in 0..segments {
        covered += m
            .channel_tile
            .min(layer.in_channels.saturating_sub(seg * m.channel_tile));
    }
    let per_position = (rs * covered) as u64;
    let positions = layer.out_channels as u64 * layer.out_h() as u64 * layer.out_w() as u64;
    let assigned = positions * per_position;
    let expected = layer.macs();
    if covered != layer.in_channels || assigned != expected {
        return Err(VerifyError::MacMismatch {
            expected,
            assigned,
            unit: "conv channel tiling",
        });
    }
    // (b) the subfold passes cover every weight of one padded tile once
    // (trailing idle switches pad the last pass but drop nothing),
    let mut piece_sum = 0usize;
    for pass in 0..subfold {
        piece_sum += vn_size.min(vn_weights.saturating_sub(pass * vn_size));
    }
    if piece_sum != vn_weights {
        return Err(VerifyError::MacMismatch {
            expected: vn_weights as u64,
            assigned: piece_sum as u64,
            unit: "conv subfold pieces",
        });
    }
    // (c) the iteration count covers every work unit at least once.
    let row_units = layer.out_channels as u64 * layer.out_h() as u64 * (segments * subfold) as u64;
    let lanes = ranges.len() as u64;
    let iterations = ceil_div(row_units, lanes);
    if iterations * lanes < row_units {
        return Err(VerifyError::MacMismatch {
            expected: row_units,
            assigned: iterations * lanes,
            unit: "conv work units",
        });
    }
    Ok(MappingReport {
        partition: Some(partition),
        macs_expected: expected,
        macs_assigned: assigned,
    })
}

/// Sparse CONV: mirrors `SparseConvMapper::run`'s reject conditions
/// (channel-tile bounds, fully faulty fabric) and checks the
/// fold-piece MAC ledger over the survivor VN sizes. The per-group
/// packing itself is re-formed dynamically group by group, so no
/// single partition exists to verify here.
fn verify_sparse(
    cfg: &MaeriConfig,
    layer: &ConvLayer,
    mask: &WeightMask,
    ct: usize,
) -> Result<MappingReport, VerifyError> {
    if ct == 0 || ct > layer.in_channels {
        return Err(VerifyError::KnobOutOfRange {
            knob: "channel_tile",
            value: ct,
            min: 1,
            max: layer.in_channels,
        });
    }
    // Survivor VN sizes: nonzero weights per (segment, filter) slice.
    let segments = ceil_div(layer.in_channels as u64, ct as u64) as usize;
    let mut sizes: Vec<usize> = Vec::with_capacity(layer.out_channels * segments);
    for seg in 0..segments {
        let c_lo = seg * ct;
        let c_hi = ((seg + 1) * ct).min(layer.in_channels);
        for k in 0..layer.out_channels {
            let nonzeros = mask.kept_in_channels(k, c_lo, c_hi);
            if nonzeros > 0 {
                sizes.push(nonzeros);
            }
        }
    }
    let positions = (layer.out_h() * layer.out_w()) as u64;
    let kept: u64 = sizes.iter().map(|&s| s as u64).sum();
    let expected = kept * positions;
    if sizes.is_empty() {
        // An entirely pruned layer performs no work and always maps.
        return Ok(MappingReport {
            partition: None,
            macs_expected: 0,
            macs_assigned: 0,
        });
    }
    let spans = cfg.healthy_spans();
    let (cap, _budget) = span_capacity(&spans)?;
    // Oversized survivor VNs fold into <= cap pieces; the ledger checks
    // the pieces repartition the survivors exactly.
    let mut piece_total = 0u64;
    for size in &sizes {
        let folds = ceil_div(*size as u64, cap as u64) as usize;
        let base = size / folds;
        let mut rem = size % folds;
        for _ in 0..folds {
            let extra = usize::from(rem > 0);
            rem = rem.saturating_sub(1);
            piece_total += (base + extra) as u64;
        }
    }
    let assigned = piece_total * positions;
    if assigned != expected {
        return Err(VerifyError::MacMismatch {
            expected,
            assigned,
            unit: "sparse fold pieces",
        });
    }
    Ok(MappingReport {
        partition: None,
        macs_expected: expected,
        macs_assigned: assigned,
    })
}

/// FC/LSTM-gate shared path: mirrors the folded-vector packing of
/// `FcMapper::run_folded` / `LstmMapper::gate_phase_folded`, verifying
/// the packed partition. Returns the report plus the fold count.
fn verify_folded_vector(
    cfg: &MaeriConfig,
    d: usize,
    vn_size: usize,
    knob: &'static str,
) -> Result<(PartitionReport, u64), VerifyError> {
    let spans = cfg.healthy_spans();
    let (cap, budget) = span_capacity(&spans)?;
    let max = d.min(cap);
    if vn_size == 0 || vn_size > max {
        return Err(VerifyError::KnobOutOfRange {
            knob,
            value: vn_size,
            min: 1,
            max,
        });
    }
    let fold = ceil_div(d as u64, vn_size as u64);
    let packed = ceil_div(d as u64, fold) as usize;
    let want = (budget / packed).max(1);
    let (ranges, _) = pack_vns_into_spans(&spans, &vec![packed; want]);
    let plan = cfg.fault_plan();
    let partition = verify_partition_with_faults(cfg, plan.as_ref(), &ranges)?;
    Ok((partition, fold))
}

/// Invariant 4 for folded dot products: `fold` segments of
/// `ceil(d / fold)` switches cover all `d` inputs exactly once, for
/// each of the `outputs` neurons.
fn mac_ledger_folded(
    d: usize,
    fold: u64,
    outputs: u64,
    expected: u64,
    unit: &'static str,
) -> Result<(u64, u64), VerifyError> {
    let packed = ceil_div(d as u64, fold) as usize;
    let mut covered = 0usize;
    for seg in 0..fold as usize {
        covered += packed.min(d.saturating_sub(seg * packed));
    }
    let assigned = outputs * covered as u64;
    if covered != d || assigned != expected {
        return Err(VerifyError::MacMismatch {
            expected,
            assigned,
            unit,
        });
    }
    Ok((expected, assigned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::{LoopOrder, SparseConvMapper};
    use maeri_sim::SimRng;

    fn conv_layer() -> ConvLayer {
        ConvLayer::new("c", 3, 8, 8, 4, 3, 3, 1, 1)
    }

    #[test]
    fn valid_conv_candidate_verifies_and_conserves_macs() {
        let base = MaeriConfig::paper_64();
        let layer = conv_layer();
        let cand = MappingCandidate::with_base_bandwidth(
            CandidateKind::Conv(ConvMapping {
                channel_tile: 3,
                max_vns: 64,
                loop_order: LoopOrder::FilterMajor,
            }),
            &base,
        );
        let report = verify_mapping(&base, &VerifyLayer::Conv(&layer), &cand).unwrap();
        assert_eq!(report.macs_assigned, layer.macs());
        assert_eq!(report.macs_expected, layer.macs());
        assert!(report.partition.is_some());
    }

    #[test]
    fn oversized_channel_tile_rejected_with_bounds() {
        let base = MaeriConfig::paper_64();
        let layer = conv_layer();
        let cand = MappingCandidate::with_base_bandwidth(
            CandidateKind::SparseConv { channel_tile: 99 },
            &base,
        );
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
            VerifyError::KnobOutOfRange {
                knob: "channel_tile",
                value: 99,
                min: 1,
                max: 3
            }
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
        let reject =
            MappingCandidate::with_base_bandwidth(CandidateKind::Fc { vn_size: cap + 1 }, &base);
        let err = statically_reject(&base, &VerifyLayer::Fc(&fc), &reject).unwrap();
        assert_eq!(
            err,
            VerifyError::KnobOutOfRange {
                knob: "vn_size",
                value: cap + 1,
                min: 1,
                max: cap
            }
        );
        let accept =
            MappingCandidate::with_base_bandwidth(CandidateKind::Fc { vn_size: cap }, &base);
        assert!(statically_reject(&base, &VerifyLayer::Fc(&fc), &accept).is_none());
    }

    #[test]
    fn kind_mismatch_is_structured() {
        let base = MaeriConfig::paper_64();
        let fc = FcLayer::new("f", 16, 4);
        let cand =
            MappingCandidate::with_base_bandwidth(CandidateKind::Lstm { gate_vn_size: 4 }, &base);
        let err = verify_mapping(&base, &VerifyLayer::Fc(&fc), &cand).unwrap_err();
        assert_eq!(
            err,
            VerifyError::KindMismatch {
                candidate: "lstm",
                layer: "fc"
            }
        );
    }

    #[test]
    fn bad_bandwidth_pair_is_a_config_error() {
        let base = MaeriConfig::paper_64();
        let layer = conv_layer();
        let cand = MappingCandidate {
            kind: CandidateKind::Conv(ConvMapping {
                channel_tile: 1,
                max_vns: 64,
                loop_order: LoopOrder::FilterMajor,
            }),
            dist_bandwidth: 3,
            collect_bandwidth: 8,
        };
        let err = verify_mapping(&base, &VerifyLayer::Conv(&layer), &cand).unwrap_err();
        assert!(matches!(err, VerifyError::Config { .. }), "{err}");
    }
}
