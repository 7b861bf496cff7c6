//! Mapping-space search guarantees: provable exhaustive coverage,
//! tuned-never-loses, and byte-stable determinism.

use maeri::{CandidateKind, FaultSpec, MaeriConfig};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer};
use maeri_mapspace::{enumerate, search, space_size, SearchLayer, SearchSpec};

fn small_conv() -> ConvLayer {
    ConvLayer::new("small_conv", 6, 10, 10, 4, 3, 3, 1, 1)
}

fn conv_spec(cfg: MaeriConfig) -> SearchSpec {
    SearchSpec::new(SearchLayer::Conv(small_conv()), cfg)
}

#[test]
fn exhaustive_covers_the_space_at_small_configs() {
    // The acceptance bar: at <= 16 multipliers, the candidate count
    // equals the closed-form space size, so exhaustive search provably
    // covers the space.
    for n in [4, 8, 16] {
        let cfg = MaeriConfig::builder(n)
            .distribution_bandwidth(2)
            .collection_bandwidth(2)
            .build()
            .unwrap();
        for layer in [
            SearchLayer::Conv(small_conv()),
            SearchLayer::SparseConv {
                layer: small_conv(),
                zero_fraction: 0.5,
                mask_seed: 7,
            },
            SearchLayer::Fc(FcLayer::new("fc", 40, 12)),
            SearchLayer::Lstm(LstmLayer::new("lstm", 24, 24)),
        ] {
            let spec = SearchSpec::new(layer, cfg);
            let expected = space_size(&spec);
            assert_eq!(
                enumerate(&spec).len() as u64,
                expected,
                "enumeration must match the closed form at n={n}"
            );
            let result = search(&spec).unwrap();
            assert_eq!(
                result.counters.enumerated, expected,
                "exhaustive search must consider the whole space at n={n}"
            );
            assert_eq!(
                result.counters.pruned + result.counters.scored,
                result.counters.enumerated,
                "every considered candidate is either pruned or scored"
            );
        }
    }
}

#[test]
fn conv_space_closed_form_is_c_times_caps_times_orders() {
    let cfg = MaeriConfig::paper_64(); // 64 MS -> log2(64)+1 = 7 caps
    let spec = conv_spec(cfg);
    assert_eq!(space_size(&spec), 6 * 7 * 2);
    let space = enumerate(&spec);
    assert_eq!(space.len() as u64, 6 * 7 * 2);
}

#[test]
fn tuned_never_loses_to_the_heuristic() {
    let cfg = MaeriConfig::paper_64();
    for layer in [
        SearchLayer::Conv(ConvLayer::new("c", 16, 14, 14, 8, 3, 3, 1, 1)),
        SearchLayer::SparseConv {
            layer: ConvLayer::new("s", 16, 14, 14, 8, 3, 3, 1, 1),
            zero_fraction: 0.6,
            mask_seed: 3,
        },
        SearchLayer::Fc(FcLayer::new("fc", 512, 64)),
        SearchLayer::Lstm(LstmLayer::new("lstm", 128, 128)),
    ] {
        let result = search(&SearchSpec::new(layer, cfg)).unwrap();
        assert!(
            result.best_cycles() <= result.heuristic_cycles(),
            "{}: best {} vs heuristic {}",
            result.layer,
            result.best_cycles(),
            result.heuristic_cycles()
        );
        assert!(result.speedup() >= 1.0);
        // The heuristic's named point is always in the frontier.
        assert!(result
            .frontier
            .iter()
            .any(|o| o.candidate == result.heuristic.candidate));
    }
}

#[test]
fn conv_frontier_is_trace_validated_with_rank_check() {
    let result = search(&conv_spec(MaeriConfig::paper_64())).unwrap();
    assert!(result.counters.validated > 0);
    assert!(result.counters.rank_agreement.is_some());
    assert!(result.frontier.iter().all(|o| o.validated_cycles.is_some()));
    assert!(result.best.validated_cycles.is_some());
}

#[test]
fn closed_form_kinds_skip_trace_validation() {
    let spec = SearchSpec::new(
        SearchLayer::Fc(FcLayer::new("fc", 256, 32)),
        MaeriConfig::paper_64(),
    );
    let result = search(&spec).unwrap();
    assert_eq!(result.counters.validated, 0);
    assert_eq!(result.counters.rank_agreement, None);
    assert!(result.frontier.iter().all(|o| o.validated_cycles.is_none()));
}

#[test]
fn search_is_deterministic() {
    let spec = conv_spec(MaeriConfig::paper_64());
    let a = search(&spec).unwrap();
    let b = search(&spec).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.canonical_text(), b.canonical_text());
}

#[test]
fn search_works_on_a_faulty_fabric() {
    let cfg = MaeriConfig::builder(64)
        .faults(FaultSpec::new(11).dead_multipliers(60))
        .build()
        .unwrap();
    let result = search(&conv_spec(cfg)).unwrap();
    assert!(result.best_cycles() <= result.heuristic_cycles());
    assert!(result.counters.scored > 0);
}

#[test]
fn candidate_kinds_match_their_layers() {
    let result = search(&conv_spec(MaeriConfig::paper_64())).unwrap();
    assert!(matches!(result.best.candidate, CandidateKind::Conv(_)));
    assert_eq!(result.kind, "conv");
    // The result records the bandwidth pair of the fabric searched.
    assert_eq!((result.dist_bandwidth, result.collect_bandwidth), (8, 8));
}

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn search_text_matches_its_golden_digest() {
    // Searches whose full text no other digest covers: the
    // `mapping_search` report's sparse layer (the report prints only
    // its best mapping), `tune_layer --faulty`'s FC layer, where the
    // static verifier refuses 60 of the 64 VN sizes, and a 1x1 CONV
    // layer (VN sizes 1 to 24) on three faulty 64-leaf fabrics, where
    // packings fragment: dead multipliers, severed forwarding links
    // (the ART refuses 44 candidates' packings) and dead adders. Three
    // searches on a 4/2 bandwidth pair pin the `bw=` suffix every label
    // prints from the searched fabric; the FC and LSTM frontiers tie in
    // analytic cycles, so they also pin the tie-break on the label.
    let sparse = SearchSpec::new(
        SearchLayer::SparseConv {
            layer: maeri_dnn::zoo::vgg16_c8(),
            zero_fraction: 0.6,
            mask_seed: 42,
        },
        MaeriConfig::paper_64(),
    );
    let faulty = MaeriConfig::builder(64)
        .faults(FaultSpec::new(5).dead_multipliers(500))
        .build()
        .unwrap();
    let faulty_fc = SearchSpec::new(SearchLayer::Fc(FcLayer::new("fc6", 256, 64)), faulty);
    let faulty_conv = |faults: FaultSpec| {
        let base = MaeriConfig::builder(64).faults(faults).build().unwrap();
        let layer = ConvLayer::new("faulty_conv", 24, 14, 14, 8, 1, 1, 1, 0);
        SearchSpec::new(SearchLayer::Conv(layer), base)
    };
    let thin = MaeriConfig::builder(64)
        .distribution_bandwidth(4)
        .collection_bandwidth(2)
        .build()
        .unwrap();
    let thin = |layer| SearchSpec::new(layer, thin);
    // (spec, text digest, statically rejected candidates)
    for (spec, want, rejected) in [
        (sparse, 0x7715_c069_24d5_8094, 0),
        (faulty_fc, 0x2d9d_2d1d_b452_f712, 60),
        (
            faulty_conv(FaultSpec::new(5).dead_multipliers(200)),
            0x30c3_9e86_3dc4_64bb,
            0,
        ),
        (
            faulty_conv(FaultSpec::new(6).dead_forwarding_links(500)),
            0x76c3_26e8_b74a_c7cd,
            44,
        ),
        (
            faulty_conv(FaultSpec::new(9).dead_adders(100)),
            0xd1fa_f363_8ef1_59d1,
            0,
        ),
        (
            thin(SearchLayer::Conv(ConvLayer::new(
                "bw_conv", 8, 10, 10, 4, 3, 3, 1, 1,
            ))),
            0x6bcf_e07b_47a5_740f,
            0,
        ),
        (
            thin(SearchLayer::Fc(FcLayer::new("bw_fc", 200, 16))),
            0x2841_ec36_a50c_4579,
            0,
        ),
        (
            thin(SearchLayer::Lstm(LstmLayer::new("bw_lstm", 40, 24))),
            0xb13c_f501_7844_0a90,
            0,
        ),
    ] {
        let result = search(&spec).unwrap();
        let text = result.canonical_text();
        assert_eq!(fnv1a(&text), want, "{text}");
        assert_eq!(result.counters.statically_rejected, rejected, "{text}");
    }
}
