//! Invariants 1–3 and 5: static verification of a VN partition.
//!
//! [`verify_reduction`] builds the ART with the one VN-construction walk
//! (`maeri::art::ArtConfig::build_with_faults`, Section 4.1 of the
//! paper) without clocking a cycle: the builder's first conflict comes
//! back as its own [`ArtError`] with the conflicting VN pair, and an
//! accepted build's accessors fill the report. A mapper's plan carries
//! an ART that is already built, so [`PartitionReport::of`] reports it
//! without a second build. `tests/differential.rs` checks the walk
//! against an independent oracle (legality from the ranges and the
//! fault plan alone, exact sums from the replay).

use maeri::art::{ArtConfig, ArtError, VnRange};
use maeri::fault::FaultPlan;
use maeri::MaeriConfig;
use maeri_noc::ChubbyTree;

use crate::error::{Network, VerifyError};

/// Worst-case per-cycle demand on one link of a level, against the
/// chubby capacity of that level. Level 0 is the root port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLoad {
    /// Tree level (0 = root port, `levels - 1` = leaf up-links).
    pub level: usize,
    /// Worst per-cycle word demand on one link of the level.
    pub load: u64,
    /// Words per cycle one link of the level carries.
    pub capacity: u64,
}

impl LevelLoad {
    /// Cycles one steady-state round needs on this level's worst link.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.load.div_ceil(self.capacity.max(1))
    }
}

/// What a successful reduction-forest verification proves about a VN
/// partition (invariants 1, 2, 5, plus the collection half of 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionReport {
    /// VNs in the partition.
    pub num_vns: usize,
    /// Multiplier leaves covered by VNs.
    pub busy_leaves: usize,
    /// Forwarding links the reduction forest activates.
    pub forwarding_links: usize,
    /// Adder switches performing additions.
    pub active_adders: usize,
    /// Steady-state collection slowdown (`1.0` = non-blocking,
    /// Property 2 of the paper).
    pub collection_slowdown: f64,
    /// Per-level worst link load of the collection network; entry 0 is
    /// the root port (`num_vns` outputs per reduction wave).
    pub collection_loads: Vec<LevelLoad>,
}

impl ReductionReport {
    /// The report of an ART built over the `collection` tree.
    #[must_use]
    pub fn of(collection: &ChubbyTree, art: &ArtConfig) -> Self {
        ReductionReport {
            num_vns: art.vns().len(),
            busy_leaves: art.busy_leaves(),
            forwarding_links: art.forwarding_links().len(),
            active_adders: art.active_adders(),
            collection_slowdown: art.throughput_slowdown(),
            // Invariant 3, collection half.
            collection_loads: level_loads(collection, art.worst_link_loads()),
        }
    }
}

/// A [`ReductionReport`] joined by the distribution network's per-level
/// feasibility (the other half of invariant 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// The reduction-forest findings.
    pub reduction: ReductionReport,
    /// Per-level worst link load of the distribution tree; entry 0 is
    /// the root port (all busy leaves fed from the prefetch buffer).
    pub distribution_loads: Vec<LevelLoad>,
}

impl PartitionReport {
    /// The report of an ART built on `cfg`'s fabric: its reduction
    /// forest plus the distribution loads of its VNs.
    #[must_use]
    pub fn of(cfg: &MaeriConfig, art: &ArtConfig) -> Self {
        PartitionReport {
            reduction: ReductionReport::of(&cfg.collection_chubby(), art),
            distribution_loads: distribution_loads(&cfg.distribution_chubby(), art.vns()),
        }
    }

    /// Invariant 3 in strict form: every level of both networks must
    /// sustain full rate.
    ///
    /// The collection side demands slowdown 1.0 — every up-link and the
    /// root port fit their per-wave flows in one cycle. The
    /// distribution side demands the chubby property: no inner level
    /// may be a worse bottleneck than the root port (Section 3.1.1's
    /// argument for chubby tapering).
    ///
    /// This is deliberately *not* part of [`verify_partition`]'s
    /// accept/reject decision: a thin-root fabric (e.g. the 0.25x
    /// configuration of Figure 13) is legal and merely slower, and the
    /// dynamic checks accept it too. Callers wanting the paper's
    /// non-blocking guarantee opt in here.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::BandwidthInfeasible`] naming the first
    /// bottleneck level.
    pub fn check_bandwidth(&self) -> Result<(), VerifyError> {
        for ll in &self.reduction.collection_loads {
            if ll.load > ll.capacity {
                return Err(VerifyError::BandwidthInfeasible {
                    network: Network::Collection,
                    level: ll.level,
                    load: ll.load,
                    capacity: ll.capacity,
                });
            }
        }
        let root_rounds = self.distribution_loads.first().map_or(1, LevelLoad::rounds);
        for ll in self.distribution_loads.iter().skip(1) {
            if ll.rounds() > root_rounds {
                return Err(VerifyError::BandwidthInfeasible {
                    network: Network::Distribution,
                    level: ll.level,
                    load: ll.load,
                    capacity: ll.capacity,
                });
            }
        }
        Ok(())
    }
}

/// Statically verifies a VN partition against a fabric configuration:
/// invariants 1, 2, 5 decide acceptance; the report carries the
/// invariant-3 level loads for both networks.
///
/// Faults are materialized from the configuration's own
/// [`maeri::fault::FaultSpec`], matching what every mapper simulates.
///
/// # Errors
///
/// Returns the ART builder's first conflict.
pub fn verify_partition(cfg: &MaeriConfig, vns: &[VnRange]) -> Result<PartitionReport, ArtError> {
    let art =
        ArtConfig::build_with_faults(cfg.collection_chubby(), vns, cfg.fault_plan().as_ref())?;
    Ok(PartitionReport::of(cfg, &art))
}

/// Verifies the reduction forest a VN partition induces on the ART by
/// building it with [`maeri::art::ArtConfig::build_with_faults`].
///
/// # Errors
///
/// Returns the builder's first conflict.
pub fn verify_reduction(
    collection: &ChubbyTree,
    faults: Option<&FaultPlan>,
    vns: &[VnRange],
) -> Result<ReductionReport, ArtError> {
    let art = ArtConfig::build_with_faults(*collection, vns, faults)?;
    Ok(ReductionReport::of(collection, &art))
}

/// Per-level worst busy-leaf demand of the distribution tree: a link at
/// level `l` must feed every busy leaf below it, one word per leaf per
/// full-rate step.
fn distribution_loads(distribution: &ChubbyTree, vns: &[VnRange]) -> Vec<LevelLoad> {
    let tree = distribution.tree();
    let leaves = tree.num_leaves();
    // Prefix sums of busy leaves for O(1) subtree queries.
    let mut busy_prefix = vec![0u64; leaves + 1];
    let mut busy = vec![false; leaves];
    for range in vns {
        for slot in &mut busy[range.start..range.end().min(leaves)] {
            *slot = true;
        }
    }
    for (i, &b) in busy.iter().enumerate() {
        busy_prefix[i + 1] = busy_prefix[i] + u64::from(b);
    }
    let mut loads = vec![busy_prefix[leaves]];
    for level in 1..tree.levels() {
        let mut worst = 0u64;
        for pos in 0..tree.nodes_at_level(level) {
            let (lo, hi) = tree.leaf_span(tree.node_at(level, pos));
            worst = worst.max(busy_prefix[hi + 1] - busy_prefix[lo]);
        }
        loads.push(worst);
    }
    level_loads(distribution, loads)
}

/// Pairs per-level worst loads (entry 0 the root port) with the chubby
/// capacity of each level.
fn level_loads(chubby: &ChubbyTree, loads: impl IntoIterator<Item = u64>) -> Vec<LevelLoad> {
    loads
        .into_iter()
        .enumerate()
        .map(|(level, load)| LevelLoad {
            level,
            load,
            capacity: if level == 0 {
                chubby.root_bandwidth()
            } else {
                chubby.link_bandwidth(level)
            } as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::art::pack_vns;
    use maeri_noc::BinaryTree;

    fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
        ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
    }

    #[test]
    fn figure6_partition_is_non_blocking() {
        let vns = [VnRange::new(0, 5), VnRange::new(5, 5), VnRange::new(10, 5)];
        let report = verify_reduction(&chubby(16, 8), None, &vns).unwrap();
        assert_eq!(report.num_vns, 3);
        assert_eq!(report.busy_leaves, 15);
        assert!(report.forwarding_links > 0);
        assert!((report.collection_slowdown - 1.0).abs() < 1e-12);
        // Agrees with the dynamic construction on every metric.
        let art = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        assert_eq!(report.forwarding_links, art.forwarding_links().len());
        assert_eq!(report.active_adders, art.active_adders());
        assert!((report.collection_slowdown - art.throughput_slowdown()).abs() < 1e-12);
    }

    #[test]
    fn overlap_reports_conflicting_pair() {
        let vns = [VnRange::new(0, 5), VnRange::new(4, 5)];
        let err = verify_reduction(&chubby(16, 8), None, &vns).unwrap_err();
        assert_eq!(
            err,
            ArtError::Overlap {
                first_vn: 0,
                second_vn: 1,
                leaf: 4
            }
        );
    }

    #[test]
    fn out_of_range_reports_bounds() {
        let err = verify_reduction(&chubby(16, 8), None, &[VnRange::new(10, 8)]).unwrap_err();
        assert_eq!(
            err,
            ArtError::OutOfRange {
                vn: 0,
                start: 10,
                end: 18,
                leaves: 16
            }
        );
    }

    #[test]
    fn dead_leaf_reports_vn_and_leaf() {
        use maeri::fault::{FaultPlan, FaultSpec};
        let plan = FaultPlan::materialize(FaultSpec::new(7).dead_multipliers(200), 16);
        let dead = *plan.dead_leaves().iter().next().unwrap();
        let err =
            verify_reduction(&chubby(16, 8), Some(&plan), &[VnRange::new(dead, 1)]).unwrap_err();
        assert_eq!(err, ArtError::DeadLeaf { vn: 0, leaf: dead });
    }

    #[test]
    fn thin_root_fails_strict_bandwidth_but_verifies() {
        let cfg = MaeriConfig::builder(16)
            .distribution_bandwidth(8)
            .collection_bandwidth(1)
            .build()
            .unwrap();
        let (vns, _) = pack_vns(16, &[2; 8]);
        let report = verify_partition(&cfg, &vns).unwrap();
        assert!(report.reduction.collection_slowdown >= 8.0);
        let err = report.check_bandwidth().unwrap_err();
        assert_eq!(
            err,
            VerifyError::BandwidthInfeasible {
                network: Network::Collection,
                level: 0,
                load: 8,
                capacity: 1
            }
        );
    }

    #[test]
    fn paper_chubby_profile_passes_strict_bandwidth() {
        let cfg = MaeriConfig::paper_64();
        let (vns, _) = pack_vns(64, &[8; 8]);
        let report = verify_partition(&cfg, &vns).unwrap();
        report.check_bandwidth().unwrap();
        // The distribution root feeds all 64 leaves through an 8-wide
        // port; no inner level is a worse bottleneck (chubby property).
        assert_eq!(report.distribution_loads[0].rounds(), 8);
        for ll in &report.distribution_loads {
            assert!(ll.rounds() <= 8, "level {} over-bottlenecked", ll.level);
        }
    }
}
