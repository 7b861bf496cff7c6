//! Exhaustive tests for the NoC substrate: topology arithmetic,
//! chubby bandwidth profiles and the reduction models. Every domain is
//! small enough to enumerate, and every assertion names its inputs.

use maeri_noc::reduction::ReductionKind;
use maeri_noc::{BinaryTree, ChubbyTree};

/// Position, level and parent arithmetic agree for every node of
/// every tree size from 2 to 1024 leaves.
#[test]
fn tree_structure_is_consistent() {
    for log_leaves in 1..=10 {
        let leaves = 1usize << log_leaves;
        let tree = BinaryTree::with_leaves(leaves).unwrap();
        assert_eq!(tree.node_at(0, 0), 0, "{leaves} leaves");
        assert_eq!(tree.parent(0), None, "{leaves} leaves");
        for level in 1..tree.levels() {
            for pos in 0..tree.nodes_at_level(level) {
                let what = format!("{leaves} leaves, level {level}, position {pos}");
                let node = tree.node_at(level, pos);
                assert_eq!(tree.level_of(node), level, "{what}");
                // Positions 2p and 2p + 1 are the children of position p
                // one level up.
                let parent = tree.node_at(level - 1, pos / 2);
                assert_eq!(tree.parent(node), Some(parent), "{what}");
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
