//! Seeded-random mutation tests: start from a known-legal mapping on
//! the paper's 64-multiplier fabric, break exactly one cell (or one
//! knob) at a time, and assert the verifier flags exactly the broken
//! invariant with the correct counterexample fields — never a
//! neighbouring invariant, never a bare rejection. A broken cell is
//! judged by the ART walk every plan runs, a broken knob by
//! `statically_reject`.

use maeri::art::{pack_vns, ArtConfig, ArtError, VnRange};
use maeri::fault::{FaultPlan, FaultSpec};
use maeri::mapper::{CandidateKind, ConvMapping, LoopOrder};
use maeri::{MaeriConfig, PlanError};
use maeri_dnn::layer::{ConvLayer, FcLayer};
use maeri_sim::SimRng;
use maeri_verify::{statically_reject, VerifyError, VerifyLayer};

/// Builds `vns` on `cfg`'s collection tree under its own fault plan,
/// as every mapper's plan does.
fn build(cfg: &MaeriConfig, vns: &[VnRange]) -> Result<ArtConfig, ArtError> {
    ArtConfig::build_with_faults(cfg.collection_chubby(), vns, cfg.fault_plan().as_ref())
}

/// A legal mixed-size packing covering all 64 leaves without gaps.
fn legal_partition() -> Vec<VnRange> {
    let (vns, leftover) = pack_vns(64, &[5, 3, 8, 1, 7, 6, 2, 9, 4, 8, 6, 5]);
    assert!(leftover.is_empty());
    assert_eq!(vns.iter().map(|r| r.len).sum::<usize>(), 64);
    vns
}

#[test]
fn baseline_partition_is_legal() {
    let cfg = MaeriConfig::paper_64();
    build(&cfg, &legal_partition()).unwrap();
}

#[test]
fn single_cell_overlap_flags_exactly_that_pair() {
    let cfg = MaeriConfig::paper_64();
    let mut rng = SimRng::seed(11);
    for _ in 0..40 {
        let mut vns = legal_partition();
        // Stretch one interior VN a single leaf to the left: it now
        // shares exactly that leaf with its predecessor.
        let victim = 1 + rng.next_below(vns.len() - 1);
        let v = vns[victim];
        vns[victim] = VnRange::new(v.start - 1, v.len + 1);
        let err = build(&cfg, &vns).unwrap_err();
        assert_eq!(
            err,
            ArtError::Overlap {
                first_vn: victim - 1,
                second_vn: victim,
                leaf: v.start - 1,
            }
        );
    }
}

#[test]
fn single_cell_out_of_range_flags_exact_bounds() {
    let cfg = MaeriConfig::paper_64();
    let mut rng = SimRng::seed(13);
    for _ in 0..40 {
        let mut vns = legal_partition();
        // Grow the last VN past the array by 1..=4 cells.
        let last = vns.len() - 1;
        let grow = 1 + rng.next_below(4);
        let v = vns[last];
        vns[last] = VnRange::new(v.start, v.len + grow);
        let err = build(&cfg, &vns).unwrap_err();
        assert_eq!(
            err,
            ArtError::OutOfRange {
                vn: last,
                start: v.start,
                end: v.end() + grow,
                leaves: 64,
            }
        );
    }
}

#[test]
fn single_cell_onto_dead_leaf_flags_fault_inconsistency() {
    let spec = FaultSpec::new(21).dead_multipliers(100);
    let plan = FaultPlan::materialize(spec, 64);
    let dead: Vec<usize> = plan.dead_leaves().iter().copied().collect();
    assert!(!dead.is_empty());
    let cfg = MaeriConfig::builder(64)
        .distribution_bandwidth(8)
        .collection_bandwidth(8)
        .faults(spec)
        .build()
        .unwrap();
    // Legal on the degraded fabric: pack into the healthy spans.
    let spans = plan.healthy_spans();
    build(&cfg, &spans).unwrap();
    let mut rng = SimRng::seed(22);
    for _ in 0..40 {
        // Drop a fresh single-cell VN onto a random dead leaf. Dead
        // leaves sit in the gaps between healthy spans, so the only
        // violated invariant is fault consistency.
        let mut vns = spans.clone();
        let leaf = dead[rng.next_below(dead.len())];
        vns.push(VnRange::new(leaf, 1));
        let err = build(&cfg, &vns).unwrap_err();
        assert_eq!(
            err,
            ArtError::DeadLeaf {
                vn: spans.len(),
                leaf,
            }
        );
    }
}

#[test]
fn knob_mutations_flag_exact_knob_and_bounds() {
    let base = MaeriConfig::paper_64();
    let layer = ConvLayer::new("mut", 16, 14, 14, 8, 3, 3, 1, 1);
    let good = CandidateKind::Conv(ConvMapping {
        channel_tile: 2,
        max_vns: 64,
        loop_order: LoopOrder::FilterMajor,
    });
    assert_eq!(
        statically_reject(&base, &VerifyLayer::Conv(&layer), &good),
        None
    );

    // channel_tile pushed one past either end of its range.
    for (ct, value) in [(0usize, 0usize), (17, 17)] {
        let cand = CandidateKind::Conv(ConvMapping {
            channel_tile: ct,
            max_vns: 64,
            loop_order: LoopOrder::FilterMajor,
        });
        let err = statically_reject(&base, &VerifyLayer::Conv(&layer), &cand).unwrap();
        assert_eq!(
            err,
            VerifyError::Plan(PlanError::KnobOutOfRange {
                knob: "channel_tile",
                value,
                min: 1,
                max: 16,
            })
        );
    }

    // max_vns zeroed.
    let cand = CandidateKind::Conv(ConvMapping {
        channel_tile: 2,
        max_vns: 0,
        loop_order: LoopOrder::FilterMajor,
    });
    let err = statically_reject(&base, &VerifyLayer::Conv(&layer), &cand).unwrap();
    assert!(
        matches!(
            err,
            VerifyError::Plan(PlanError::KnobOutOfRange {
                knob: "max_vns",
                value: 0,
                min: 1,
                ..
            })
        ),
        "unexpected error: {err}"
    );

    // FC vn_size past the healthy-span capacity.
    let fc = FcLayer::new("mut-fc", 128, 10);
    let cand = CandidateKind::Fc { vn_size: 65 };
    let err = statically_reject(&base, &VerifyLayer::Fc(&fc), &cand).unwrap();
    assert_eq!(
        err,
        VerifyError::Plan(PlanError::KnobOutOfRange {
            knob: "vn_size",
            value: 65,
            min: 1,
            max: 64,
        })
    );

    // Kind mismatch is structural, not a knob error.
    let err = statically_reject(&base, &VerifyLayer::Fc(&fc), &good).unwrap();
    assert_eq!(
        err,
        VerifyError::KindMismatch {
            candidate: "conv",
            layer: "fc",
        }
    );
}

#[test]
fn seeded_mutation_sweep_flags_one_invariant_per_mutation() {
    let cfg = MaeriConfig::paper_64();
    let mut rng = SimRng::seed(0xA5);
    for _ in 0..200 {
        let mut vns = legal_partition();
        let victim = rng.next_below(vns.len());
        let v = vns[victim];
        match rng.next_below(2) {
            // Overlap with the predecessor (or out-of-range shift when
            // the victim is VN 0, which starts at leaf 0).
            0 if victim > 0 => {
                vns[victim] = VnRange::new(v.start - 1, v.len + 1);
                let err = build(&cfg, &vns).unwrap_err();
                assert_eq!(
                    err,
                    ArtError::Overlap {
                        first_vn: victim - 1,
                        second_vn: victim,
                        leaf: v.start - 1,
                    }
                );
            }
            0 => {
                // VN 0 teleported past the end instead.
                vns[victim] = VnRange::new(64, 1);
                let err = build(&cfg, &vns).unwrap_err();
                assert_eq!(
                    err,
                    ArtError::OutOfRange {
                        vn: victim,
                        start: 64,
                        end: 65,
                        leaves: 64,
                    }
                );
            }
            // Overlap with the successor by growing one cell (the
            // packing is gapless, so growth always collides; the last
            // VN runs out of range instead).
            _ => {
                vns[victim] = VnRange::new(v.start, v.len + 1);
                let err = build(&cfg, &vns).unwrap_err();
                if victim + 1 < vns.len() {
                    assert_eq!(
                        err,
                        ArtError::Overlap {
                            first_vn: victim,
                            second_vn: victim + 1,
                            leaf: v.end(),
                        }
                    );
                } else {
                    assert_eq!(
                        err,
                        ArtError::OutOfRange {
                            vn: victim,
                            start: v.start,
                            end: v.end() + 1,
                            leaves: 64,
                        }
                    );
                }
            }
        }
    }
}
