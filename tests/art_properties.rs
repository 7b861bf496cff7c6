//! Randomized tests of the Augmented Reduction Tree's two formal
//! properties (Section 3.2.2):
//!
//! * **Property 1 (Configurability):** an ART with N leaves can map any
//!   adder tree over k consecutive leaves, k <= N.
//! * **Property 2 (Non-Blocking):** multiple such adder trees map
//!   simultaneously without sharing links when their leaf sets are
//!   disjoint.
//!
//! Each property draws its cases from its own fixed seed, and every
//! assertion names the case and its inputs.

use maeri_repro::fabric::art::{pack_vns, ArtConfig, VnRange};
use maeri_repro::noc::{BinaryTree, ChubbyTree};
use maeri_repro::sim::SimRng;

fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
    ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
}

/// One value per leaf, drawn from `seed`.
fn leaf_values(leaves: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed(seed);
    (0..leaves).map(|_| rng.next_f32()).collect()
}

/// Property 1: every contiguous range reduces to the exact sum.
#[test]
fn any_contiguous_vn_reduces_correctly() {
    let mut rng = SimRng::seed(1);
    for case in 0..256 {
        let leaves = 1usize << (2 + rng.next_below(7));
        let start = rng.next_below(leaves);
        let len = 1 + rng.next_below(leaves - start);
        let seed = rng.next_below(1000) as u64;
        let what = format!("case {case}: {leaves} leaves, VN at {start} of {len}, seed {seed}");

        let config = ArtConfig::build(
            chubby(leaves, (leaves / 2).clamp(2, 16)),
            &[VnRange::new(start, len)],
        )
        .expect(&what);

        let values = leaf_values(leaves, seed);
        let sums = config.reduce(&values);
        assert_eq!(sums.len(), 1, "{what}");
        let expected: f32 = values[start..start + len].iter().sum();
        assert!(
            (sums[0] - expected).abs() <= 1e-3 * (1.0 + expected.abs()),
            "{what}: got {} want {}",
            sums[0],
            expected
        );
    }
}

/// Property 2: disjoint VN packings all reduce correctly and claim
/// each forwarding link at most once.
#[test]
fn disjoint_vns_are_non_blocking() {
    let mut rng = SimRng::seed(2);
    let mut case = 0;
    while case < 256 {
        let leaves = 1usize << (3 + rng.next_below(5));
        let count = 1 + rng.next_below(19);
        let sizes: Vec<usize> = (0..count).map(|_| 1 + rng.next_below(20)).collect();
        let seed = rng.next_below(1000) as u64;
        let (ranges, _) = pack_vns(leaves, &sizes);
        // Redraw until at least one VN fits.
        if ranges.is_empty() {
            continue;
        }
        let what = format!("case {case}: {leaves} leaves, VN sizes {sizes:?}, seed {seed}");

        let config = ArtConfig::build(chubby(leaves, (leaves / 4).max(2)), &ranges).expect(&what);

        // Functional correctness of every VN at once.
        let values = leaf_values(leaves, seed);
        let sums = config.reduce(&values);
        for (range, sum) in ranges.iter().zip(&sums) {
            let expected: f32 = values[range.start..range.end()].iter().sum();
            assert!(
                (sum - expected).abs() <= 1e-3 * (1.0 + expected.abs()),
                "{what}: vn {range:?}: got {sum} want {expected}"
            );
        }

        // No forwarding link claimed twice, in any direction.
        let mut seen = std::collections::BTreeSet::new();
        for fl in config.forwarding_links() {
            let key = (fl.from.min(fl.to), fl.from.max(fl.to));
            assert!(seen.insert(key), "{what}: link {key:?} claimed twice");
        }
        case += 1;
    }
}

/// Max-reduction (POOL comparator mode) is as correct as addition.
#[test]
fn pool_mode_reduces_to_maximum() {
    let mut rng = SimRng::seed(3);
    let leaves = 64;
    for case in 0..256 {
        // At most 7 VNs of at most 16 leaves: the first always fits.
        let count = 1 + rng.next_below(7);
        let sizes: Vec<usize> = (0..count).map(|_| 1 + rng.next_below(16)).collect();
        let seed = rng.next_below(1000) as u64;
        let what = format!("case {case}: VN sizes {sizes:?}, seed {seed}");
        let (ranges, _) = pack_vns(leaves, &sizes);
        let config = ArtConfig::build(chubby(leaves, 8), &ranges).expect(&what);
        let values = leaf_values(leaves, seed);
        let maxes = config.reduce_max(&values);
        for (range, max) in ranges.iter().zip(&maxes) {
            let expected = values[range.start..range.end()]
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            // Exact comparison is intended: max-reduction returns one
            // of the inputs verbatim, bit for bit.
            assert_eq!(max.to_bits(), expected.to_bits(), "{what}: vn {range:?}");
        }
    }
}

/// Chubby-link claim of Figure 6(c): when the VNs span the whole
/// array and the root is wide enough for their outputs, collection
/// is fully non-blocking (slowdown 1.0). Smaller VNs crammed under
/// one subtree legitimately funnel — that is the 0.25x-bandwidth
/// effect of Figure 13 — but the slowdown can never exceed the
/// output count. Every VN size from 1 to 16 is checked.
#[test]
fn chubby_root_collection_bounds() {
    let leaves = 64;
    for vn_size in 1..=16 {
        let count = leaves / vn_size;
        let (ranges, _) = pack_vns(leaves, &vec![vn_size; count]);
        let config = ArtConfig::build(chubby(leaves, 16), &ranges)
            .unwrap_or_else(|err| panic!("vn_size {vn_size}: {err}"));
        let slowdown = config.throughput_slowdown();
        assert!(
            slowdown <= count as f64 + 1e-9,
            "vn_size {vn_size}: slowdown {slowdown} exceeds {count} outputs"
        );
        if vn_size >= 4 && count <= 16 {
            // Full-array spread with <= root-bandwidth outputs: fully
            // non-blocking.
            assert!(
                (slowdown - 1.0).abs() < 1e-9,
                "vn_size {vn_size}: slowdown {slowdown} for {count} spread VNs"
            );
        }
    }
}
