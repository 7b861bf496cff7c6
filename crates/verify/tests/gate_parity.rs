//! The prune gate is the mapper's own refusal.
//!
//! `statically_reject` plans a candidate with the mapper's planner, so
//! over seeded random fabrics (16, 32 or 64 leaves, 0–1000‰ dead
//! multipliers, severed forwarding links in a third of them) and random
//! knobs, including values one past either end of their range, it must
//! reject a dense CONV, FC or LSTM candidate exactly when the mapper
//! fails, with the mapper's own text. A sparse mapper can still fail
//! after the gate accepts (a later group's ART can be refused on
//! severed links), so for sparse candidates a rejection only implies
//! the mapper fails, with the same text.

use maeri::fault::FaultSpec;
use maeri::{
    CandidateKind, ConvMapper, ConvMapping, FcMapper, LoopOrder, LstmMapper, MaeriConfig, RunStats,
    SparseConvMapper, VnPolicy,
};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer, WeightMask};
use maeri_sim::{SimError, SimRng};
use maeri_verify::{statically_reject, VerifyError, VerifyLayer};

/// Accept/reject tallies for one candidate kind.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
}

impl Tally {
    /// Checks one verdict pair. `exact` demands the gate accept every
    /// candidate the mapper runs; otherwise only a rejection is checked.
    fn check(
        &mut self,
        gate: Option<VerifyError>,
        mapper: Result<RunStats, SimError>,
        exact: bool,
        what: &str,
    ) {
        match (gate, mapper) {
            (None, Ok(_)) => self.accepted += 1,
            (None, Err(_)) if !exact => self.accepted += 1,
            (Some(gate), Err(mapper)) => {
                assert_eq!(
                    mapper.to_string(),
                    format!("workload cannot be mapped: {gate}"),
                    "{what}"
                );
                self.rejected += 1;
            }
            (gate, mapper) => panic!("{what}: gate {gate:?}, mapper {mapper:?}"),
        }
    }
}

#[test]
fn gate_rejects_exactly_what_the_mapper_refuses() {
    let mut rng = SimRng::seed(99);
    let (mut conv, mut fc, mut lstm, mut sparse) = (
        Tally::default(),
        Tally::default(),
        Tally::default(),
        Tally::default(),
    );
    let mut single_leaf_spans = 0;
    for case in 0..400u64 {
        let leaves = [16, 32, 64][rng.next_below(3)];
        let mut faults = FaultSpec::new(case).dead_multipliers(rng.next_below(1001) as u16);
        if rng.next_below(3) == 0 {
            faults = faults.dead_forwarding_links(300);
        }
        let cfg = MaeriConfig::builder(leaves).faults(faults).build().unwrap();
        if cfg.healthy_spans().iter().map(|s| s.len).max() == Some(1) {
            single_leaf_spans += 1;
        }
        let what = format!("case {case}: {leaves} leaves, {faults:?}");

        let c = 1 + rng.next_below(12);
        let kernel = 1 + rng.next_below(5);
        let layer = ConvLayer::new("conv", c, 6, 6, 1 + rng.next_below(8), kernel, kernel, 1, 1);
        let mapping = ConvMapping {
            channel_tile: rng.next_below(c + 2),
            max_vns: rng.next_below(leaves + 1),
            loop_order: [LoopOrder::FilterMajor, LoopOrder::RowMajor][rng.next_below(2)],
        };
        conv.check(
            statically_reject(
                &cfg,
                &VerifyLayer::Conv(&layer),
                &CandidateKind::Conv(mapping),
            ),
            ConvMapper::new(cfg).run(&layer, VnPolicy::Explicit(mapping)),
            true,
            &format!("{what}, conv {mapping:?}"),
        );

        let fc_layer = FcLayer::new("fc", 1 + rng.next_below(200), 1 + rng.next_below(16));
        let vn_size = rng.next_below(leaves + 2);
        fc.check(
            statically_reject(
                &cfg,
                &VerifyLayer::Fc(&fc_layer),
                &CandidateKind::Fc { vn_size },
            ),
            FcMapper::new(cfg).run_with_vn_size(&fc_layer, vn_size),
            true,
            &format!("{what}, fc vn_size {vn_size}"),
        );

        let lstm_layer = LstmLayer::new("lstm", 1 + rng.next_below(40), 1 + rng.next_below(40));
        let gate_vn_size = rng.next_below(leaves + 2);
        lstm.check(
            statically_reject(
                &cfg,
                &VerifyLayer::Lstm(&lstm_layer),
                &CandidateKind::Lstm { gate_vn_size },
            ),
            LstmMapper::new(cfg).run_with_gate_vn_size(&lstm_layer, gate_vn_size),
            true,
            &format!("{what}, lstm gate_vn_size {gate_vn_size}"),
        );

        let zeros = rng.next_below(11) as f64 / 10.0;
        let mask = WeightMask::generate(&layer, zeros, &mut SimRng::seed(case));
        let channel_tile = rng.next_below(c + 2);
        sparse.check(
            statically_reject(
                &cfg,
                &VerifyLayer::SparseConv {
                    layer: &layer,
                    mask: &mask,
                },
                &CandidateKind::SparseConv { channel_tile },
            ),
            SparseConvMapper::new(cfg).run(&layer, &mask, channel_tile),
            false,
            &format!("{what}, sparse tile {channel_tile}"),
        );
    }
    // The draw reaches both verdicts of every kind, and fabrics whose
    // largest healthy span is one leaf, where the LSTM state phase's
    // two-switch VNs cannot form.
    for (kind, tally) in [
        ("conv", conv),
        ("fc", fc),
        ("lstm", lstm),
        ("sparse", sparse),
    ] {
        assert!(
            tally.accepted > 0 && tally.rejected > 0,
            "{kind}: {tally:?}"
        );
    }
    assert!(single_leaf_spans > 0);
}
