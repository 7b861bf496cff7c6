//! Randomized and exhaustive tests for the NoC substrate: topology
//! arithmetic, chubby bandwidth profiles, multicast routing, and the
//! reduction models. Small domains are enumerated; the rest run 256
//! cases from their own fixed seed. Every assertion names its inputs.

use maeri_noc::reduction::ReductionKind;
use maeri_noc::routing::{multicast_tree, unicast_route};
use maeri_noc::{BinaryTree, ChubbyTree};
use maeri_sim::SimRng;

const CASES: usize = 256;

/// Parent/child arithmetic is consistent for every node of every
/// tree size from 2 to 1024 leaves.
#[test]
fn tree_structure_is_consistent() {
    for log_leaves in 1..=10 {
        let tree = BinaryTree::with_leaves(1 << log_leaves).unwrap();
        for node in 0..tree.num_nodes() {
            if let Some((l, r)) = tree.children(node) {
                let what = format!("{} leaves, node {node}", 1 << log_leaves);
                assert_eq!(tree.parent(l), Some(node), "{what}");
                assert_eq!(tree.parent(r), Some(node), "{what}");
                assert_eq!(tree.level_of(l), tree.level_of(node) + 1, "{what}");
                // A node's leaf span is the union of its children's.
                let (lo, hi) = tree.leaf_span(node);
                let (llo, lhi) = tree.leaf_span(l);
                let (rlo, rhi) = tree.leaf_span(r);
                assert_eq!(lo, llo, "{what}");
                assert_eq!(hi, rhi, "{what}");
                assert_eq!(lhi + 1, rlo, "{what}");
            }
        }
    }
}

/// The LCA of two leaves covers both in its span, and no deeper
/// node does.
#[test]
fn lca_is_the_deepest_covering_node() {
    let mut rng = SimRng::seed(41);
    for case in 0..CASES {
        let leaves = 1usize << (2 + rng.next_below(7));
        let a = rng.next_below(leaves);
        let b = rng.next_below(leaves);
        let what = format!("case {case}: {leaves} leaves, leaves {a} and {b}");
        let tree = BinaryTree::with_leaves(leaves).unwrap();
        let lca = tree.lca_of_leaves(a, b);
        let (lo, hi) = tree.leaf_span(lca);
        assert!(lo <= a && a <= hi, "{what}");
        assert!(lo <= b && b <= hi, "{what}");
        if let Some((l, r)) = tree.children(lca) {
            for child in [l, r] {
                let (clo, chi) = tree.leaf_span(child);
                assert!(
                    !(clo <= a && a <= chi && clo <= b && b <= chi),
                    "{what}: child {child} also covers both"
                );
            }
        }
    }
}

/// Chubby link bandwidth halves (or floors at 1) per level, and the
/// aggregate never shrinks toward the leaves, for all 80 pairs of
/// tree size (4 to 512 leaves) and root bandwidth exponent (0 to 9).
#[test]
fn chubby_profile_monotone() {
    for log_leaves in 2..=9 {
        for log_bw in 0..=9usize {
            let leaves = 1usize << log_leaves;
            let bw = 1usize << log_bw.min(log_leaves);
            let chubby = ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap();
            let mut prev_link = usize::MAX;
            let mut prev_agg = 0usize;
            for level in 1..chubby.tree().levels() {
                let what = format!("{leaves} leaves, root bandwidth {bw}, level {level}");
                let link = chubby.link_bandwidth(level);
                let agg = chubby.level_aggregate_bandwidth(level);
                assert!(link <= prev_link, "{what}");
                assert!(link >= 1, "{what}");
                assert!(agg >= prev_agg, "{what}");
                prev_link = link;
                prev_agg = agg;
            }
        }
    }
}

/// A multicast tree is never larger than the union of unicasts and
/// never smaller than the largest single unicast.
#[test]
fn multicast_bounded_by_unicasts() {
    let mut rng = SimRng::seed(42);
    for case in 0..CASES {
        let leaves = 1usize << (2 + rng.next_below(7));
        // 1 to 11 distinct picks from 0..256, folded onto the leaves.
        let count = 1 + rng.next_below(11);
        let picks = rng.choose_indices(256, count);
        let dests: Vec<usize> = picks.iter().map(|&p| p % leaves).collect();
        let what = format!("case {case}: {leaves} leaves, destinations {dests:?}");
        let tree = BinaryTree::with_leaves(leaves).unwrap();
        let m = multicast_tree(&tree, &dests);
        let depth = tree.levels() - 1;
        let unique: std::collections::BTreeSet<usize> = dests.iter().copied().collect();
        assert!(m.total_links() >= depth, "{what}");
        assert!(m.total_links() <= depth * unique.len(), "{what}");
        // Replication points are at most destinations - 1.
        assert!(
            m.replication_points.len() <= unique.len().saturating_sub(1),
            "{what}"
        );
        // Route length always equals the depth.
        for &d in &unique {
            assert_eq!(unicast_route(&tree, d).len(), depth, "{what}: leaf {d}");
        }
    }
}

/// ART utilization dominates the fat tree and plain trees for every
/// VN size on every array size from 16 to 512 PEs (1,008 cases).
#[test]
fn art_dominates_alternatives() {
    for log_pes in 4..=9 {
        let pes = 1usize << log_pes;
        for vn in 1..=pes {
            let art = ReductionKind::Art.utilization(vn, pes);
            let fat = ReductionKind::FatTree.utilization(vn, pes);
            assert!(art + 1e-12 >= fat, "vn={vn} pes={pes}");
            let plain = ReductionKind::PlainTrees {
                width: 16,
                count: pes / 16,
            }
            .utilization(vn, pes);
            assert!(art + 1e-12 >= plain, "vn={vn} pes={pes}");
            assert!(art > 0.0 && art <= 1.0 + 1e-12, "vn={vn} pes={pes}");
        }
    }
}
