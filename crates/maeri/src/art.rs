//! The Augmented Reduction Tree (ART) and virtual-neuron construction.
//!
//! The ART (Section 3.2) is a binary adder tree augmented with
//! forwarding links (FLs) between adjacent same-level nodes that have
//! different parents, plus chubby (wide) links near the root. Mapping a
//! dataflow onto MAERI means partitioning the multiplier switches into
//! contiguous *virtual neurons* (VNs) and configuring the adder switches
//! so each VN's partial sums reduce without interfering — the
//! VN-construction algorithm of Section 4.1.
//!
//! The algorithm is one walk, a reusable pass that clears and refills
//! its own buffers for each partition. [`ArtConfig::build`] runs it
//! once and copies out what it produced: per VN, an ordered operation
//! list that can be *replayed on real values* ([`ArtConfig::reduce`]),
//! plus structural bookkeeping: the mode of every adder switch and
//! which FLs were activated in which direction. The walk's per-link flow
//! load against the chubby capacity profile yields
//! [`ArtConfig::throughput_slowdown`] — 1.0 means fully non-blocking
//! (Property 2); thinner links (e.g. the 0.25x configuration of
//! Figure 13) yield a proportional slowdown. The sparse mapper reads
//! only that slowdown, and for a group of disjoint VNs it sums what
//! each VN loads when walked alone: the walk runs once per distinct VN
//! range, and on a whole group only when the sums cannot rule out a
//! conflict.
//!
//! A partition the walk cannot build comes back as an [`ArtError`]
//! naming the first conflict and the VNs behind it. This walk is the
//! only one: the static verifier (`maeri-verify`) judges a mapping by
//! the mapper's own plan, which builds its ART here, so a mapper and
//! the prune gate meet the same error.

use std::collections::BTreeMap;
use std::fmt;

use maeri_noc::topology::NodeId;
use maeri_noc::{BinaryTree, ChubbyTree};
use maeri_sim::SimError;
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;
use crate::switch::AdderMode;

/// Why the ART cannot build a VN partition. VN indices are positions
/// in the supplied partition; the first conflict the construction walk
/// meets is reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtError {
    /// VN `vn` covers leaves `start..end`, which leaves the
    /// `leaves`-wide multiplier array.
    OutOfRange {
        /// Index of the offending VN in the supplied partition.
        vn: usize,
        /// First leaf the VN claims.
        start: usize,
        /// One past the last leaf the VN claims.
        end: usize,
        /// Number of multiplier leaves in the fabric.
        leaves: usize,
    },
    /// Two VNs both claim `leaf`.
    Overlap {
        /// Index of the lower-starting VN of the conflicting pair.
        first_vn: usize,
        /// Index of the higher-starting VN of the conflicting pair.
        second_vn: usize,
        /// A leaf both VNs cover.
        leaf: usize,
    },
    /// VN `vn` covers the dead multiplier switch `leaf`.
    DeadLeaf {
        /// Index of the offending VN.
        vn: usize,
        /// The dead leaf it covers.
        leaf: usize,
    },
    /// The forwarding link between `from` and `to` at `level` would be
    /// claimed by two VNs.
    LinkClaimedTwice {
        /// Tree level of both endpoints.
        level: usize,
        /// Sending node of the second (conflicting) activation.
        from: NodeId,
        /// Receiving node of the second (conflicting) activation.
        to: NodeId,
        /// VN that claimed the link first.
        first_vn: usize,
        /// VN whose claim collides.
        second_vn: usize,
    },
    /// Adder switch `node` would need more than its three input ports.
    AdderOverloaded {
        /// Tree level of the adder.
        level: usize,
        /// The overloaded adder switch.
        node: NodeId,
        /// Addends demanded of it.
        addends: usize,
        /// First VN contributing addends.
        first_vn: usize,
        /// Last VN contributing addends (distinct from `first_vn` when
        /// more than one VN contributes).
        second_vn: usize,
    },
}

impl fmt::Display for ArtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtError::OutOfRange {
                vn,
                start,
                end,
                leaves,
            } => write!(
                f,
                "vn {vn} covers leaves {start}..{end}, out of range 0..{leaves}"
            ),
            ArtError::Overlap {
                first_vn,
                second_vn,
                leaf,
            } => write!(f, "vn {first_vn} and vn {second_vn} both cover leaf {leaf}"),
            ArtError::DeadLeaf { vn, leaf } => {
                write!(f, "vn {vn} covers dead multiplier switch {leaf}")
            }
            ArtError::LinkClaimedTwice {
                level,
                from,
                to,
                first_vn,
                second_vn,
            } => write!(
                f,
                "forwarding link {from}-{to} at level {level} claimed by vn {first_vn} and vn {second_vn}"
            ),
            ArtError::AdderOverloaded {
                level,
                node,
                addends,
                first_vn,
                second_vn,
            } => write!(
                f,
                "adder switch {node} at level {level} needs {addends} addends (vn {first_vn} vs vn {second_vn}); 3 is the port budget"
            ),
        }
    }
}

impl std::error::Error for ArtError {}

impl From<ArtError> for SimError {
    fn from(err: ArtError) -> Self {
        SimError::unmappable(err)
    }
}

/// A virtual neuron: a contiguous run of multiplier-switch leaves.
///
/// # Example
///
/// ```
/// use maeri::art::VnRange;
///
/// let vn = VnRange::new(5, 9); // leaves 5..=13
/// assert_eq!(vn.end(), 14);
/// assert!(vn.contains(13));
/// assert!(!vn.contains(14));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VnRange {
    /// First leaf index.
    pub start: usize,
    /// Number of leaves.
    pub len: usize,
}

impl VnRange {
    /// Creates a range covering `len` leaves starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn new(start: usize, len: usize) -> Self {
        assert!(len > 0, "virtual neuron must cover at least one leaf");
        VnRange { start, len }
    }

    /// One past the last covered leaf.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Whether the range covers `leaf`.
    #[must_use]
    pub fn contains(&self, leaf: usize) -> bool {
        leaf >= self.start && leaf < self.end()
    }
}

/// One step of a VN's reduction, replayable on values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Op {
    /// Adder switch `node` combines the fragments currently held at
    /// `children` (its two in-VN children) into one fragment at `node`.
    Combine { node: NodeId, children: [NodeId; 2] },
    /// A lone fragment moves up unchanged from `from` to its parent.
    Up { from: NodeId, to: NodeId },
    /// A fragment moves over a forwarding link from `from` into the
    /// fragment already held at `to` (the receiving switch performs the
    /// extra addition — 3:1 ADD or ADD-plus-forward).
    Lateral { from: NodeId, to: NodeId },
}

/// An activated forwarding link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlActivation {
    /// Tree level of both endpoints.
    pub level: usize,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node (performs the extra addition).
    pub to: NodeId,
    /// Which VN uses the link.
    pub vn: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct NodeUse {
    /// Inputs consumed by this switch's adder (0, 2 or 3).
    addends: u8,
    /// Values routed through without being added, saturating: a mode
    /// reads only whether there are none, one or more, and every VN
    /// output past the 255th may climb through the root.
    passes: u8,
    /// Whether the switch receives a lateral input.
    lateral_in: bool,
    /// Whether the switch sends its output laterally.
    lateral_out: bool,
}

/// A fully constructed ART configuration for one set of VNs: what one
/// run of the construction walk produced, copied out of the walk, so a
/// caller building many ARTs may build them all on one walk
/// ([`FabricArts`](crate::mapper::FabricArts) does). It keeps the
/// slowdown its flow loads give, not the tree-sized loads themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtConfig {
    tree: BinaryTree,
    vns: Vec<VnRange>,
    /// Every VN's reduction steps, VN after VN; VN `i`'s steps end at
    /// `op_ends[i]`.
    ops: Vec<Op>,
    op_ends: Vec<usize>,
    output_nodes: Vec<NodeId>,
    node_uses: Vec<NodeUse>,
    fl_activations: Vec<FlActivation>,
    /// [`Self::throughput_slowdown`], computed by the build from the
    /// walk's per-link flow loads, which the config does not keep.
    slowdown: f64,
}

impl ArtConfig {
    /// Runs the VN-construction algorithm over disjoint leaf ranges.
    ///
    /// `chubby` describes the collection network's bandwidth profile;
    /// it bounds nothing during construction but determines
    /// [`Self::throughput_slowdown`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ArtError`] conflict: a range outside the
    /// tree, two overlapping ranges, a forwarding link claimed twice or
    /// an adder switch past its port budget.
    pub fn build(chubby: ChubbyTree, vns: &[VnRange]) -> Result<Self, ArtError> {
        Self::build_with_faults(chubby, vns, None)
    }

    /// Like [`Self::build`], but over a degraded fabric: ranges must
    /// avoid dead multiplier leaves, and severed forwarding links are
    /// never activated (the lone fragment climbs through its parent
    /// instead).
    ///
    /// Dead adder switches need no special handling here: a dead adder
    /// marks its entire leaf subtree dead in the [`FaultPlan`], so a
    /// valid range can never route a fragment through one.
    ///
    /// # Errors
    ///
    /// As [`Self::build`], plus [`ArtError::DeadLeaf`] when a range
    /// covers a faulty leaf.
    pub fn build_with_faults(
        chubby: ChubbyTree,
        vns: &[VnRange],
        faults: Option<&FaultPlan>,
    ) -> Result<Self, ArtError> {
        ArtWalk::new(*chubby.tree()).build(&chubby, vns, faults)
    }

    /// The configured VN ranges.
    #[must_use]
    pub fn vns(&self) -> &[VnRange] {
        &self.vns
    }

    /// The tree skeleton.
    #[must_use]
    pub fn tree(&self) -> &BinaryTree {
        &self.tree
    }

    /// Node where each VN's final sum becomes available (before
    /// collection to the root).
    #[must_use]
    pub fn output_nodes(&self) -> &[NodeId] {
        &self.output_nodes
    }

    /// Activated forwarding links.
    #[must_use]
    pub fn forwarding_links(&self) -> &[FlActivation] {
        &self.fl_activations
    }

    /// The static mode of an adder switch under this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an internal node.
    #[must_use]
    pub fn adder_mode(&self, node: NodeId) -> AdderMode {
        assert!(
            node < self.tree.num_internal(),
            "node {node} is not an adder switch"
        );
        let usage = self.node_uses[node];
        match (usage.addends, usage.passes) {
            (0, 0) => AdderMode::Idle,
            (0, 1) => AdderMode::ForwardOne,
            (0, _) => AdderMode::ForwardTwo,
            (2, 0) => AdderMode::AddTwo,
            (3, 0) => AdderMode::AddThree,
            (_, _) => AdderMode::AddOneForwardOne,
        }
    }

    /// Number of adder switches performing additions.
    #[must_use]
    pub fn active_adders(&self) -> usize {
        self.node_uses.iter().filter(|u| u.addends > 0).count()
    }

    /// Reports this configuration's adder-fabric usage to a telemetry
    /// sink as one [`ArtConfigured`] event (a no-op for a disabled
    /// sink).
    ///
    /// [`ArtConfigured`]: maeri_telemetry::TraceEvent::ArtConfigured
    pub fn probe_configuration<S: maeri_telemetry::TraceSink>(&self, sink: &mut S) {
        sink.emit(|| maeri_telemetry::TraceEvent::ArtConfigured {
            active_adders: self.active_adders() as u64,
            forward_links: self.forwarding_links().len() as u64,
        });
    }

    /// Steady-state throughput slowdown from link contention: the worst
    /// ratio of per-cycle flows to link capacity over every up-link and
    /// the root port. `1.0` means fully non-blocking.
    #[must_use]
    pub fn throughput_slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Replays the configuration on multiplier outputs, returning one
    /// sum per VN (in the order the VNs were supplied to [`Self::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_values.len()` differs from the leaf count.
    #[must_use]
    pub fn reduce(&self, leaf_values: &[f32]) -> Vec<f32> {
        self.reduce_with(leaf_values, |a, b| a + b)
    }

    /// Replays with the comparator configured instead of the adder
    /// (POOL layers, Section 4.4): returns one max per VN.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_values.len()` differs from the leaf count.
    #[must_use]
    pub fn reduce_max(&self, leaf_values: &[f32]) -> Vec<f32> {
        self.reduce_with(leaf_values, f32::max)
    }

    fn reduce_with(&self, leaf_values: &[f32], combine: impl Fn(f32, f32) -> f32) -> Vec<f32> {
        assert_eq!(
            leaf_values.len(),
            self.tree.num_leaves(),
            "expected one value per multiplier switch"
        );
        let mut outputs = Vec::with_capacity(self.vns.len());
        for (vn_idx, ops) in ops_per_vn(&self.ops, &self.op_ends).enumerate() {
            let mut held: BTreeMap<NodeId, f32> = BTreeMap::new();
            let range = self.vns[vn_idx];
            for (leaf, &value) in leaf_values
                .iter()
                .enumerate()
                .take(range.end())
                .skip(range.start)
            {
                held.insert(self.tree.leaf_node(leaf), value);
            }
            for op in ops {
                match op {
                    Op::Combine { node, children } => {
                        let mut acc: Option<f32> = held.remove(node);
                        for child in children {
                            let v = held
                                .remove(child)
                                .expect("combine input fragment must exist");
                            acc = Some(match acc {
                                Some(a) => combine(a, v),
                                None => v,
                            });
                        }
                        held.insert(*node, acc.expect("combine produced no value"));
                    }
                    Op::Up { from, to } => {
                        let v = held.remove(from).expect("up fragment must exist");
                        // A lateral value may already sit at the parent.
                        match held.remove(to) {
                            Some(existing) => held.insert(*to, combine(existing, v)),
                            None => held.insert(*to, v),
                        };
                    }
                    Op::Lateral { from, to } => {
                        let v = held.remove(from).expect("lateral fragment must exist");
                        match held.remove(to) {
                            Some(existing) => held.insert(*to, combine(existing, v)),
                            None => held.insert(*to, v),
                        };
                    }
                }
            }
            assert_eq!(
                held.len(),
                1,
                "reduction must leave exactly one fragment, found {held:?}"
            );
            let (&node, &value) = held.iter().next().expect("one fragment");
            debug_assert_eq!(node, self.output_nodes[vn_idx]);
            outputs.push(value);
        }
        outputs
    }
}

/// The VN-construction walk (Section 4.1) over one tree, as a reusable
/// pass: each [`Self::run`] clears and refills the same buffers, so
/// configuring many partitions allocates only while the buffers grow.
/// [`Self::build`] runs it and copies the configuration out;
/// [`ArtConfig::build_with_faults`] is that on a fresh walk, and a
/// [`FabricArts`](crate::mapper::FabricArts) builds every ART it is
/// asked for on one walk. The sparse mapper's [`SoloLoads`] keeps one
/// for a whole run, to walk each distinct VN range alone and a whole
/// group only when the summed solo loads cannot rule out a conflict.
#[derive(Debug)]
pub(crate) struct ArtWalk {
    tree: BinaryTree,
    // Results, as `ArtConfig` keeps them.
    ops: Vec<Op>,
    op_ends: Vec<usize>,
    output_nodes: Vec<NodeId>,
    node_uses: Vec<NodeUse>,
    fl_activations: Vec<FlActivation>,
    /// Flow count per up-link, indexed by the child node of the link
    /// (zero for links no flow uses); the slowdown reads it.
    edge_loads: Vec<u32>,
    // Scratch.
    /// VN indices in ascending start order.
    by_start: Vec<usize>,
    /// Fragment positions at the current level, ascending.
    frags: Vec<usize>,
    /// Parent positions of `frags`, built while pairing.
    next: Vec<usize>,
    /// `removed[i]`: fragment `frags[i]` merged laterally into its
    /// partner at this level (only ever set for the fragment being
    /// visited, so a visited fragment is never already removed).
    removed: Vec<bool>,
    /// `link_claims[node]`: one more than the index in `fl_activations`
    /// of the first activation of the forwarding link whose lower
    /// endpoint is `node`, or 0. Every entry is 0 between runs.
    link_claims: Vec<usize>,
}

impl ArtWalk {
    /// A walk over `tree` that has not run yet.
    pub(crate) fn new(tree: BinaryTree) -> Self {
        ArtWalk {
            tree,
            ops: Vec::new(),
            op_ends: Vec::new(),
            output_nodes: Vec::new(),
            node_uses: Vec::new(),
            fl_activations: Vec::new(),
            edge_loads: Vec::new(),
            by_start: Vec::new(),
            frags: Vec::new(),
            next: Vec::new(),
            removed: Vec::new(),
            link_claims: Vec::new(),
        }
    }

    /// Builds `vns` and copies the configuration out under the collection
    /// profile `chubby`, keeping the walk's buffers for its next run.
    ///
    /// # Errors
    ///
    /// As [`ArtConfig::build_with_faults`].
    pub(crate) fn build(
        &mut self,
        chubby: &ChubbyTree,
        vns: &[VnRange],
        faults: Option<&FaultPlan>,
    ) -> Result<ArtConfig, ArtError> {
        self.run(vns, faults)?;
        Ok(ArtConfig {
            tree: self.tree,
            vns: vns.to_vec(),
            ops: self.ops.clone(),
            op_ends: self.op_ends.clone(),
            output_nodes: self.output_nodes.clone(),
            node_uses: self.node_uses.clone(),
            fl_activations: self.fl_activations.clone(),
            slowdown: self.throughput_slowdown(chubby),
        })
    }

    /// Builds `vns`, replacing everything the previous run left,
    /// including the partial state of a run that failed.
    ///
    /// # Errors
    ///
    /// As [`ArtConfig::build_with_faults`].
    pub(crate) fn run(
        &mut self,
        vns: &[VnRange],
        faults: Option<&FaultPlan>,
    ) -> Result<(), ArtError> {
        self.ops.clear();
        self.op_ends.clear();
        self.output_nodes.clear();
        self.fl_activations.clear();
        self.node_uses.clear();
        self.node_uses
            .resize(self.tree.num_internal(), NodeUse::default());
        self.edge_loads.clear();
        self.edge_loads.resize(self.tree.num_nodes(), 0);
        self.validate(vns, faults)?;
        for (vn_idx, &range) in vns.iter().enumerate() {
            self.construct_vn(vn_idx, range, faults);
        }
        self.check_link_exclusivity()
    }

    /// [`ArtConfig::throughput_slowdown`] of the last run, which must
    /// have succeeded, under the collection profile `chubby`.
    pub(crate) fn throughput_slowdown(&self, chubby: &ChubbyTree) -> f64 {
        debug_assert_eq!(*chubby.tree(), self.tree, "chubby tree / walk mismatch");
        let worst = level_worst_loads(self.tree, &self.edge_loads);
        collection_slowdown(chubby, worst, self.output_nodes.len())
    }

    /// Checks that every range is in range, pairwise disjoint and on
    /// healthy leaves, in ascending start order.
    fn validate(&mut self, vns: &[VnRange], faults: Option<&FaultPlan>) -> Result<(), ArtError> {
        let leaves = self.tree.num_leaves();
        if let Some(plan) = faults {
            debug_assert_eq!(plan.num_leaves(), leaves, "fault plan / tree mismatch");
        }
        self.by_start.clear();
        self.by_start.extend(0..vns.len());
        self.by_start.sort_by_key(|&vn| vns[vn].start);
        let mut prev: Option<(usize, usize)> = None;
        for &vn in &self.by_start {
            let range = vns[vn];
            if range.end() > leaves {
                return Err(ArtError::OutOfRange {
                    vn,
                    start: range.start,
                    end: range.end(),
                    leaves,
                });
            }
            if let Some((first_vn, prev_end)) = prev {
                if range.start < prev_end {
                    return Err(ArtError::Overlap {
                        first_vn,
                        second_vn: vn,
                        leaf: range.start,
                    });
                }
            }
            prev = Some((vn, range.end()));
            if let Some(plan) = faults {
                if let Some(leaf) = (range.start..range.end()).find(|&l| plan.is_leaf_dead(l)) {
                    return Err(ArtError::DeadLeaf { vn, leaf });
                }
            }
        }
        Ok(())
    }

    /// The VN-construction walk for one range (Section 4.1): fragments
    /// rise level by level; lone fragments prefer an active forwarding
    /// link toward the VN interior over climbing through an otherwise
    /// idle parent.
    fn construct_vn(&mut self, vn_idx: usize, range: VnRange, faults: Option<&FaultPlan>) {
        let tree = self.tree;
        let leaf_level = tree.levels() - 1;
        self.frags.clear();
        self.frags.extend(range.start..range.end());
        let mut level = leaf_level;
        while self.frags.len() > 1 {
            debug_assert!(level > 0, "multiple fragments cannot reach the root");
            // Lateral resolution: only internal levels have FLs.
            if level < leaf_level {
                self.resolve_laterals(vn_idx, level, faults);
            }
            // Pair fragments up to their parents.
            self.next.clear();
            let mut i = 0;
            while i < self.frags.len() {
                let pos = self.frags[i];
                let sibling = pos ^ 1;
                let parent_pos = pos / 2;
                let parent = tree.node_at(level - 1, parent_pos);
                if i + 1 < self.frags.len() && self.frags[i + 1] == sibling {
                    // Both children present: 2:1 add at the parent.
                    let a = tree.node_at(level, pos);
                    let b = tree.node_at(level, sibling);
                    self.ops.push(Op::Combine {
                        node: parent,
                        children: [a, b],
                    });
                    self.node_uses[parent].addends += 2;
                    self.edge_loads[a] += 1;
                    self.edge_loads[b] += 1;
                    i += 2;
                } else {
                    // Lone fragment: pass through the parent.
                    let from = tree.node_at(level, pos);
                    self.ops.push(Op::Up { from, to: parent });
                    let passes = &mut self.node_uses[parent].passes;
                    *passes = passes.saturating_add(1);
                    self.edge_loads[from] += 1;
                    i += 1;
                }
                self.next.push(parent_pos);
            }
            std::mem::swap(&mut self.frags, &mut self.next);
            level -= 1;
        }
        // Single fragment left: the VN output. Collection from here to
        // the root rides the chubby links; record the loads.
        let output_node = tree.node_at(level, self.frags[0]);
        let mut node = output_node;
        while let Some(parent) = tree.parent(node) {
            self.edge_loads[node] += 1;
            let passes = &mut self.node_uses[parent].passes;
            *passes = passes.saturating_add(1);
            node = parent;
        }
        self.op_ends.push(self.ops.len());
        self.output_nodes.push(output_node);
    }

    /// Applies the Step 1/Step 2 forwarding-link rules among the lone
    /// fragments at one level, leaving the surviving fragments in
    /// `frags`, which holds the fragment positions in ascending order.
    fn resolve_laterals(&mut self, vn_idx: usize, level: usize, faults: Option<&FaultPlan>) {
        let tree = self.tree;
        let frags = &self.frags;
        debug_assert!(frags.windows(2).all(|w| w[0] < w[1]));
        let index_of = |pos: usize| frags.binary_search(&pos).ok();
        let is_lone = |pos: usize| index_of(pos ^ 1).is_none();
        // The FL partner of `pos`: links exist between (odd, odd + 1).
        let fl_partner = |pos: usize| -> Option<usize> {
            if pos % 2 == 1 {
                let p = pos + 1;
                (p < tree.nodes_at_level(level)).then_some(p)
            } else {
                pos.checked_sub(1)
            }
        };
        let removed = &mut self.removed;
        removed.clear();
        removed.resize(frags.len(), false);
        for (i, &pos) in frags.iter().enumerate() {
            if !is_lone(pos) {
                continue;
            }
            let Some(partner) = fl_partner(pos) else {
                continue;
            };
            if index_of(partner).is_none_or(|j| removed[j]) {
                continue;
            }
            // Step 1: direction from the smaller span to the larger.
            // Span = fragments on each side of the FL boundary.
            let boundary = pos.min(partner);
            // A severed link is never activated: the fragment climbs
            // through its parent instead (graceful degradation).
            if faults.is_some_and(|plan| plan.is_fl_dead(level, boundary)) {
                continue;
            }
            let live = || frags.iter().zip(removed.iter()).filter(|&(_, &r)| !r);
            let left_span = live().filter(|&(&p, _)| p <= boundary).count();
            let right_span = live().filter(|&(&p, _)| p > boundary).count();
            let (from, to) = if (pos < partner && left_span <= right_span)
                || (pos > partner && right_span <= left_span)
            {
                (pos, partner)
            } else {
                // Step 2: the partner side would need its parent anyway;
                // keep this fragment climbing instead.
                continue;
            };
            // Only merge if the receiver keeps an addend slot free
            // (at most 3:1) and neither endpoint already uses its FL.
            let from_node = tree.node_at(level, from);
            let to_node = tree.node_at(level, to);
            if self.node_uses[to_node].addends >= 3
                || self.node_uses[to_node].lateral_in
                || self.node_uses[from_node].lateral_out
            {
                continue;
            }
            self.ops.push(Op::Lateral {
                from: from_node,
                to: to_node,
            });
            self.fl_activations.push(FlActivation {
                level,
                from: from_node,
                to: to_node,
                vn: vn_idx,
            });
            self.node_uses[from_node].lateral_out = true;
            let to_use = &mut self.node_uses[to_node];
            to_use.lateral_in = true;
            // The receiver's adder absorbs one extra addend; if it was
            // a pure passthrough it becomes a 2:1 add (child + lateral).
            if to_use.addends == 0 {
                to_use.addends = 2;
                to_use.passes = to_use.passes.saturating_sub(1);
            } else {
                to_use.addends += 1;
            }
            removed[i] = true;
        }
        let mut removed = self.removed.iter();
        self.frags.retain(|_| removed.next().is_some_and(|&r| !r));
    }

    /// Verifies that no forwarding link is claimed twice and no adder
    /// switch exceeds its port budget, naming the VNs behind the first
    /// conflict. Each node has at most one forwarding-link partner, so a
    /// link's lower endpoint names it, and one pass that records each
    /// link's first claimant finds the first activation of a link
    /// claimed before.
    fn check_link_exclusivity(&mut self) -> Result<(), ArtError> {
        self.link_claims.resize(self.tree.num_internal(), 0);
        let mut reclaimed = None;
        for (k, fl) in self.fl_activations.iter().enumerate() {
            let claim = &mut self.link_claims[fl.from.min(fl.to)];
            if *claim > 0 {
                reclaimed = Some((*claim - 1, fl));
                break;
            }
            *claim = k + 1;
        }
        for fl in &self.fl_activations {
            self.link_claims[fl.from.min(fl.to)] = 0;
        }
        if let Some((first, fl)) = reclaimed {
            let first = &self.fl_activations[first];
            debug_assert_eq!(first.from.max(first.to), fl.from.max(fl.to));
            return Err(ArtError::LinkClaimedTwice {
                level: fl.level,
                from: fl.from,
                to: fl.to,
                first_vn: first.vn,
                second_vn: fl.vn,
            });
        }
        let Some(node) = self.node_uses.iter().position(|u| u.addends > 3) else {
            return Ok(());
        };
        // Claimants in construction order: VNs that combine at the
        // adder or send a lateral into it.
        let claims = |ops: &[Op]| {
            ops.iter().any(|op| match *op {
                Op::Combine { node: n, .. } | Op::Lateral { to: n, .. } => n == node,
                Op::Up { .. } => false,
            })
        };
        let mut claimants = ops_per_vn(&self.ops, &self.op_ends)
            .enumerate()
            .filter_map(|(vn, ops)| claims(ops).then_some(vn));
        let first_vn = claimants.next().unwrap_or(0);
        Err(ArtError::AdderOverloaded {
            level: self.tree.level_of(node),
            node,
            addends: usize::from(self.node_uses[node].addends),
            first_vn,
            second_vn: claimants.last().unwrap_or(first_vn),
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Group walks [`SoloLoads::group_slowdown`] fell back to on this
    /// thread, and how many of them failed.
    pub(crate) static FALLBACKS: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// What each VN range loads when walked alone, for one tree and fault
/// plan: the sparse mapper's per-run table for its multi-piece groups.
/// Each distinct range is walked once, by [`ArtWalk::run`] on that
/// range alone. A one-piece group never asks: a lone VN on healthy
/// leaves builds and loads each up-link at most once, so its slowdown
/// is 1.0 (DESIGN.md §10).
///
/// A group of ascending, disjoint ranges loads the sum of its VNs'
/// solo loads. A VN's walk reads state another VN may share only at a
/// forwarding-link step: the receiver's addends and both endpoints'
/// lateral flags. Each node has one forwarding-link partner, so another
/// VN could set those flags only by holding fragments at both ends of
/// the same link, and the two VNs would overlap. Another VN adds
/// addends at a node only by combining there, which adds 2 and needs
/// it to span the node's midpoint, so the `>= 3` check answers as it
/// does alone. Every VN thus makes its solo decisions and the loads
/// add up. The addends may overcount: a lateral into an idle adder
/// counts 2 alone but 1 beside a neighbour's combine. So while no
/// summed adder exceeds its 3 ports, no adder overloads, the only
/// conflict disjoint VNs can cause. Otherwise [`Self::group_slowdown`]
/// walks the whole group, as it does when a solo walk fails or the
/// ranges are not ascending and disjoint.
///
/// An entry keeps only what a second VN could share. A node whose leaf
/// span lies inside the range is *interior* to it, and no other VN of
/// a group ever loads its up-link or adds at it (the interior-link
/// lemma, DESIGN.md §10): the range's own load there is at most 1,
/// which no link width is below, and its own addends are at most 3.
/// Neither can change the slowdown or the port verdict, so an entry
/// keeps the loaded links and adding switches of the nodes holding the
/// range's first or last leaf, at most two per level. Every solo load
/// is 1, so a link is kept as its node alone.
///
/// Summing a group stamps each node's slot with the group's number
/// instead of clearing the tree-sized buffers first; a slot stamped
/// with another number holds zero. The buffers are cleared only when
/// the number wraps. Each level's worst summed load is tracked while
/// adding, so the slowdown reads one load per level.
///
/// Node ids and entry numbers are stored as `u32`. Neither passes
/// `u32::MAX` before memory runs out: the walk keeps a `u32` load per
/// node, and each entry a pair of `usize` ends.
#[derive(Debug)]
pub(crate) struct SoloLoads<'a> {
    faults: Option<&'a FaultPlan>,
    walk: ArtWalk,
    /// `slots[start][len]`: the range's entry in `ends`, or 0 before
    /// its first walk. Indexed by start, then length, so memory grows
    /// with the ranges seen rather than with the leaf count squared.
    slots: Vec<Vec<u32>>,
    /// Entry `k`'s links are `links[ends[k - 1].0..ends[k].0]` and its
    /// adders `adders[ends[k - 1].1..ends[k].1]`; `ends[0]` is `(0, 0)`.
    ends: Vec<(usize, usize)>,
    /// Loaded up-links that are not interior, as child nodes, entry
    /// after entry.
    links: Vec<u32>,
    /// Adding switches that are not interior, as (node, addends), entry
    /// after entry.
    adders: Vec<(u32, u8)>,
    /// The number of the group being summed; 0 stamps no group.
    group: u32,
    /// Per up-link, indexed like the walk's loads: (group, summed load).
    loads: Vec<(u32, u32)>,
    /// Per adder switch: (group, summed addends).
    addends: Vec<(u32, u8)>,
    /// The summed group's worst load on one up-link of each level,
    /// indexed by level (the root, level 0, has no up-link).
    worst: Vec<u32>,
}

impl<'a> SoloLoads<'a> {
    /// An empty table over `tree` under `faults`.
    pub(crate) fn new(tree: BinaryTree, faults: Option<&'a FaultPlan>) -> Self {
        SoloLoads {
            faults,
            walk: ArtWalk::new(tree),
            slots: Vec::new(),
            ends: vec![(0, 0)],
            links: Vec::new(),
            adders: Vec::new(),
            group: 0,
            loads: vec![(0, 0); tree.num_nodes()],
            addends: vec![(0, 0); tree.num_internal()],
            worst: vec![0; tree.levels()],
        }
    }

    /// [`Self::new`], with the next group numbered `group + 1`.
    #[cfg(test)]
    fn starting_at_group(tree: BinaryTree, faults: Option<&'a FaultPlan>, group: u32) -> Self {
        SoloLoads {
            group,
            ..Self::new(tree, faults)
        }
    }

    /// The slowdown under `chubby` of the group `vns`, bit for bit what
    /// a walk of the whole group gives, or that walk's error.
    ///
    /// # Errors
    ///
    /// As [`ArtConfig::build_with_faults`].
    pub(crate) fn group_slowdown(
        &mut self,
        chubby: &ChubbyTree,
        vns: &[VnRange],
    ) -> Result<f64, ArtError> {
        debug_assert_eq!(
            *chubby.tree(),
            self.walk.tree,
            "chubby tree / table mismatch"
        );
        if self.sum(vns) {
            let worst = self.worst.iter().copied().enumerate().skip(1);
            return Ok(collection_slowdown(chubby, worst, vns.len()));
        }
        let walked = self.walk.run(vns, self.faults);
        #[cfg(test)]
        FALLBACKS.with(|count| {
            let (walks, failed) = count.get();
            count.set((walks + 1, failed + usize::from(walked.is_err())));
        });
        walked?;
        Ok(self.walk.throughput_slowdown(chubby))
    }

    /// Sums the kept solo loads and addends of `vns` into the slots
    /// stamped with a new group number, and each level's worst load
    /// into `worst`. Returns whether the sums rule out a conflict:
    /// every range built alone, the ranges ascend without overlap, and
    /// no adder's summed addends exceed 3.
    fn sum(&mut self, vns: &[VnRange]) -> bool {
        self.group = self.group.wrapping_add(1);
        if self.group == 0 {
            // Forget every earlier group's stamp before reusing them.
            self.loads.fill((0, 0));
            self.addends.fill((0, 0));
            self.group = 1;
        }
        self.worst.fill(0);
        let group = self.group;
        let mut within_ports = true;
        let mut prev_end = 0;
        for &range in vns {
            if range.start < prev_end {
                return false;
            }
            prev_end = range.end();
            let Some(entry) = self.entry(range) else {
                return false;
            };
            let (from, to) = (self.ends[entry - 1], self.ends[entry]);
            for &node in &self.links[from.0..to.0] {
                let slot = &mut self.loads[node as usize];
                if slot.0 != group {
                    *slot = (group, 0);
                }
                slot.1 += 1;
                let worst = &mut self.worst[self.walk.tree.level_of(node as usize)];
                *worst = (*worst).max(slot.1);
            }
            for &(node, addends) in &self.adders[from.1..to.1] {
                let slot = &mut self.addends[node as usize];
                if slot.0 != group {
                    *slot = (group, 0);
                }
                slot.1 += addends;
                within_ports &= slot.1 <= 3;
            }
        }
        within_ports
    }

    /// The entry of `range`, walking it alone on first sight; `None`
    /// when it leaves the tree or its walk fails.
    fn entry(&mut self, range: VnRange) -> Option<usize> {
        let tree = self.walk.tree;
        if range.end() > tree.num_leaves() {
            return None;
        }
        if self.slots.len() <= range.start {
            self.slots.resize_with(range.start + 1, Vec::new);
        }
        let by_len = &mut self.slots[range.start];
        if by_len.len() <= range.len {
            by_len.resize(range.len + 1, 0);
        }
        if by_len[range.len] == 0 {
            self.walk.run(&[range], self.faults).ok()?;
            // The walk touches only nodes whose span meets the range, so
            // a node it uses that is not interior holds the range's first
            // or last leaf: one of two candidates per level.
            let leaf_level = tree.levels() - 1;
            for level in 0..=leaf_level {
                let shift = leaf_level - level;
                let (first, last) = (range.start >> shift, (range.end() - 1) >> shift);
                for pos in std::iter::once(first).chain((last > first).then_some(last)) {
                    let inside = pos << shift >= range.start && (pos + 1) << shift <= range.end();
                    if inside {
                        continue;
                    }
                    let node = tree.node_at(level, pos);
                    let load = self.walk.edge_loads[node];
                    debug_assert!(load <= 1, "a lone VN loads {node} {load} times");
                    if load > 0 {
                        self.links.push(node as u32);
                    }
                    if let Some(usage) = self.walk.node_uses.get(node) {
                        if usage.addends > 0 {
                            self.adders.push((node as u32, usage.addends));
                        }
                    }
                }
            }
            by_len[range.len] = self.ends.len() as u32;
            self.ends.push((self.links.len(), self.adders.len()));
        }
        Some(by_len[range.len] as usize)
    }
}

/// Each VN's reduction steps, in VN order, from the flat `ops` and the
/// per-VN ends.
fn ops_per_vn<'a>(ops: &'a [Op], op_ends: &'a [usize]) -> impl Iterator<Item = &'a [Op]> {
    op_ends.iter().scan(0, move |start, &end| {
        let vn_ops = &ops[*start..end];
        *start = end;
        Some(vn_ops)
    })
}

/// The worst flow count on one up-link of each level below the root,
/// as `(level, load)` from level 1 down. Nodes are numbered level by
/// level, so each level's links are one slice of `edge_loads`.
fn level_worst_loads(
    tree: BinaryTree,
    edge_loads: &[u32],
) -> impl Iterator<Item = (usize, u32)> + '_ {
    (1..tree.levels()).map(move |level| {
        let first = tree.node_at(level, 0);
        let links = &edge_loads[first..first + tree.nodes_at_level(level)];
        (level, links.iter().copied().max().unwrap_or(0))
    })
}

/// The steady-state slowdown of a group's flows, from the worst load on
/// one up-link of each level as `(level, load)`: the worst load over
/// capacity of any up-link, or of the root port, which carries one
/// output per VN, and at least 1.0. Capacity is uniform within a level
/// and correctly rounded division is monotone, so dividing each level's
/// worst load once gives the bits a division per link would.
fn collection_slowdown(
    chubby: &ChubbyTree,
    worst_loads: impl IntoIterator<Item = (usize, u32)>,
    vns: usize,
) -> f64 {
    let mut worst: f64 = 1.0;
    for (level, load) in worst_loads {
        if load > 0 {
            worst = worst.max(f64::from(load) / chubby.link_bandwidth(level) as f64);
        }
    }
    worst.max(vns as f64 / chubby.root_bandwidth() as f64)
}

/// Packs VNs of the given sizes left to right over `leaves` leaves,
/// returning the ranges that fit and the sizes that did not.
///
/// This is the dense-packing policy the MAERI controller uses: VN `i`
/// starts where VN `i-1` ended (Section 4: "mapping neurons one by one
/// over the MSes").
#[must_use]
pub fn pack_vns(leaves: usize, sizes: &[usize]) -> (Vec<VnRange>, Vec<usize>) {
    let mut ranges = Vec::new();
    let mut overflow = Vec::new();
    let mut cursor = 0usize;
    for &size in sizes {
        if size == 0 {
            continue;
        }
        if cursor + size <= leaves {
            ranges.push(VnRange::new(cursor, size));
            cursor += size;
        } else {
            overflow.push(size);
        }
    }
    (ranges, overflow)
}

/// Packs VNs of the given sizes left to right into disjoint, ascending
/// healthy `spans` (see [`crate::fault::FaultPlan::healthy_spans`]),
/// returning the ranges that fit and the sizes that did not. A VN never
/// straddles a span boundary — it must sit on contiguous healthy
/// leaves.
///
/// Over a single span covering the whole array this is exactly
/// [`pack_vns`], so fault-free mappings are unchanged.
#[must_use]
pub fn pack_vns_into_spans(spans: &[VnRange], sizes: &[usize]) -> (Vec<VnRange>, Vec<usize>) {
    let mut ranges = Vec::new();
    let mut overflow = Vec::new();
    let mut cursor = SpanCursor::new(spans);
    for &size in sizes {
        if size == 0 {
            continue;
        }
        match cursor.place(size) {
            Some(range) => ranges.push(range),
            None => overflow.push(size),
        }
    }
    (ranges, overflow)
}

/// How many of `want` VNs of `size` leaves [`pack_vns_into_spans`]
/// places into `spans`: the packer's own cursor, run without collecting
/// the ranges. A VN that fits nowhere leaves the cursor where it was,
/// so the next one of the same size fits nowhere either and the count
/// stops there.
#[must_use]
pub fn packed_count(spans: &[VnRange], size: usize, want: usize) -> usize {
    pack_equal_vns(spans, size, want).count()
}

/// The ranges [`pack_vns_into_spans`] places of `want` VNs of `size`
/// leaves, in order, without collecting them: the cursor stops at the
/// first VN that fits nowhere, since none after it would fit.
pub(crate) fn pack_equal_vns(
    spans: &[VnRange],
    size: usize,
    want: usize,
) -> impl Iterator<Item = VnRange> + '_ {
    let mut cursor = SpanCursor::new(spans);
    let want = if size == 0 { 0 } else { want };
    (0..want).map_while(move |_| cursor.place(size))
}

/// The placement state of [`pack_vns_into_spans`]: where the next VN
/// may start. Placing VNs one at a time through a cursor yields exactly
/// the ranges `pack_vns_into_spans` returns for the same sizes, so a
/// caller growing a group VN by VN need not re-pack it from the left.
#[derive(Debug, Clone)]
pub(crate) struct SpanCursor<'a> {
    spans: &'a [VnRange],
    span_idx: usize,
    cursor: usize,
}

impl<'a> SpanCursor<'a> {
    /// A cursor at the left edge of the first span.
    pub(crate) fn new(spans: &'a [VnRange]) -> Self {
        SpanCursor {
            spans,
            span_idx: 0,
            cursor: spans.first().map_or(0, |s| s.start),
        }
    }

    /// Places a VN of `size` (> 0) leaves at the first span position
    /// that fits and advances past it. Returns `None`, leaving the
    /// cursor where it was, when it fits nowhere, so later, smaller
    /// VNs can still be placed (mirrors [`pack_vns`]'s overflow).
    pub(crate) fn place(&mut self, size: usize) -> Option<VnRange> {
        let mut si = self.span_idx;
        while let Some(span) = self.spans.get(si) {
            let at = if si == self.span_idx {
                self.cursor.max(span.start)
            } else {
                span.start
            };
            if at + size <= span.end() {
                self.span_idx = si;
                self.cursor = at + size;
                return Some(VnRange::new(at, size));
            }
            si += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_sim::SimRng;
    use std::collections::BTreeSet;

    fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
        ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
    }

    fn leaf_values(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i + 1) as f32).collect()
    }

    fn direct_sum(range: &VnRange, values: &[f32]) -> f32 {
        values[range.start..range.end()].iter().sum()
    }

    #[test]
    fn single_vn_whole_tree() {
        let cfg = ArtConfig::build(chubby(16, 8), &[VnRange::new(0, 16)]).unwrap();
        let values = leaf_values(16);
        let sums = cfg.reduce(&values);
        assert_eq!(sums, vec![136.0]);
        assert_eq!(cfg.output_nodes(), &[0]);
        assert!(cfg.forwarding_links().is_empty());
        assert_eq!(cfg.active_adders(), 15);
    }

    #[test]
    fn paper_figure6_three_vns_of_five() {
        // Figure 6: three neurons of five multipliers each on 16 leaves.
        let vns = [VnRange::new(0, 5), VnRange::new(5, 5), VnRange::new(10, 5)];
        let cfg = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        let values = leaf_values(16);
        let sums = cfg.reduce(&values);
        assert_eq!(sums, vec![15.0, 40.0, 65.0]);
        // Non-blocking with chubby bandwidth (Figure 6(c)/(d)).
        assert!((cfg.throughput_slowdown() - 1.0).abs() < 1e-12);
        // The middle VN straddles the tree's center boundary and needs
        // forwarding links.
        assert!(!cfg.forwarding_links().is_empty());
    }

    #[test]
    fn arbitrary_offset_vn_sums_correctly() {
        for start in 0..16usize {
            for len in 1..=(16 - start) {
                let range = VnRange::new(start, len);
                let cfg = ArtConfig::build(chubby(16, 8), &[range]).unwrap();
                let values = leaf_values(16);
                let sums = cfg.reduce(&values);
                assert_eq!(sums.len(), 1);
                let expected = direct_sum(&range, &values);
                assert!(
                    (sums[0] - expected).abs() < 1e-3,
                    "vn {start}+{len}: got {} want {expected}",
                    sums[0]
                );
            }
        }
    }

    #[test]
    fn many_disjoint_vns_all_correct() {
        // 12 VNs of 5 over 64 leaves (the Figure 15 ART case).
        let sizes = vec![5usize; 12];
        let (ranges, overflow) = pack_vns(64, &sizes);
        assert!(overflow.is_empty());
        let cfg = ArtConfig::build(chubby(64, 16), &ranges).unwrap();
        let values = leaf_values(64);
        let sums = cfg.reduce(&values);
        for (range, sum) in ranges.iter().zip(&sums) {
            assert!((sum - direct_sum(range, &values)).abs() < 1e-3);
        }
    }

    #[test]
    fn mixed_vn_sizes_sum_correctly() {
        let sizes = [3usize, 7, 1, 12, 9, 2, 16, 4];
        let (ranges, overflow) = pack_vns(64, &sizes);
        assert!(overflow.is_empty());
        let cfg = ArtConfig::build(chubby(64, 8), &ranges).unwrap();
        let values: Vec<f32> = (0..64).map(|i| ((i * 7919) % 23) as f32 - 11.0).collect();
        let sums = cfg.reduce(&values);
        for (range, sum) in ranges.iter().zip(&sums) {
            assert!((sum - direct_sum(range, &values)).abs() < 1e-3);
        }
    }

    #[test]
    fn reduce_max_pools() {
        let vns = [VnRange::new(0, 4), VnRange::new(4, 9)];
        let cfg = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        let values: Vec<f32> = vec![
            3.0, -1.0, 7.0, 2.0, // max 7
            5.0, 9.0, 1.0, 0.0, 4.0, 8.0, 2.0, 6.0, -3.0, // max 9
            0.0, 0.0, 0.0,
        ];
        let maxes = cfg.reduce_max(&values);
        assert_eq!(maxes, vec![7.0, 9.0]);
    }

    #[test]
    fn overlapping_vns_rejected() {
        let vns = [VnRange::new(0, 5), VnRange::new(4, 5)];
        let err = ArtConfig::build(chubby(16, 8), &vns).unwrap_err();
        assert!(err.to_string().contains("both cover leaf 4"), "{err}");
    }

    #[test]
    fn out_of_range_vn_rejected() {
        let err = ArtConfig::build(chubby(16, 8), &[VnRange::new(10, 8)]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn thin_root_slows_collection() {
        // 8 VNs of 2 over 16 leaves with a 1x root: collection is the
        // bottleneck -> slowdown = 8 outputs / 1 word per cycle.
        let sizes = vec![2usize; 8];
        let (ranges, _) = pack_vns(16, &sizes);
        let thin = ArtConfig::build(chubby(16, 1), &ranges).unwrap();
        assert!(thin.throughput_slowdown() >= 8.0);
        let wide = ArtConfig::build(chubby(16, 8), &ranges).unwrap();
        assert!(wide.throughput_slowdown() <= 2.0);
    }

    #[test]
    fn adder_modes_cover_paper_set() {
        // The Figure 6 mapping exercises adds, 3:1 adds and forwards.
        let vns = [VnRange::new(0, 5), VnRange::new(5, 5), VnRange::new(10, 5)];
        let cfg = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        let modes: std::collections::BTreeSet<String> = (0..cfg.tree().num_internal())
            .map(|n| format!("{:?}", cfg.adder_mode(n)))
            .collect();
        assert!(modes.contains("AddTwo"));
        assert!(modes.len() >= 3, "expected a variety of modes: {modes:?}");
    }

    #[test]
    fn pack_vns_reports_overflow() {
        let (ranges, overflow) = pack_vns(16, &[10, 5, 4]);
        assert_eq!(ranges.len(), 2);
        assert_eq!(overflow, vec![4]);
        assert_eq!(ranges[1], VnRange::new(10, 5));
    }

    #[test]
    fn pack_vns_skips_zero_sizes() {
        let (ranges, overflow) = pack_vns(8, &[0, 3, 0, 5]);
        assert_eq!(ranges.len(), 2);
        assert!(overflow.is_empty());
        assert_eq!(ranges[0], VnRange::new(0, 3));
        assert_eq!(ranges[1], VnRange::new(3, 5));
    }

    #[test]
    fn pack_into_spans_matches_pack_vns_on_full_span() {
        let sizes = [3usize, 7, 1, 12, 9, 2, 16, 4, 30];
        let full = [VnRange::new(0, 64)];
        assert_eq!(pack_vns_into_spans(&full, &sizes), pack_vns(64, &sizes));
        let tight = [VnRange::new(0, 16)];
        assert_eq!(
            pack_vns_into_spans(&tight, &[10, 5, 4, 0, 1]),
            pack_vns(16, &[10, 5, 4, 0, 1])
        );
    }

    #[test]
    fn pack_into_spans_skips_dead_gaps() {
        // Healthy spans 0..6 and 8..16 (leaves 6 and 7 dead).
        let spans = [VnRange::new(0, 6), VnRange::new(8, 8)];
        let (ranges, overflow) = pack_vns_into_spans(&spans, &[4, 4, 4]);
        assert!(overflow.is_empty());
        // The second VN cannot straddle the dead gap at 6..8, so it
        // hops to the next healthy span.
        assert_eq!(
            ranges,
            vec![VnRange::new(0, 4), VnRange::new(8, 4), VnRange::new(12, 4)]
        );
        // A fourth VN of 4 no longer fits anywhere.
        let (ranges, overflow) = pack_vns_into_spans(&spans, &[4, 4, 4, 4]);
        assert_eq!(ranges.len(), 3);
        assert_eq!(overflow, vec![4]);
    }

    #[test]
    fn pack_into_spans_overflow_leaves_cursor_for_smaller_vns() {
        // A 7-wide VN fits nowhere, but the 2-wide one after it still
        // lands in the remaining space of the first span.
        let spans = [VnRange::new(0, 3), VnRange::new(5, 3)];
        let (ranges, overflow) = pack_vns_into_spans(&spans, &[2, 7, 2]);
        assert_eq!(overflow, vec![7]);
        assert_eq!(ranges, vec![VnRange::new(0, 2), VnRange::new(5, 2)]);
    }

    #[test]
    fn packed_count_and_fabric_arts_follow_the_packer() {
        use crate::fault::FaultSpec;
        use crate::mapper::{ArtSource, FabricArts};
        use crate::MaeriConfig;
        // Random fabrics of 16-4,096 leaves with dead multipliers, dead
        // adders and severed links. For every VN size up to the largest
        // healthy span and every count from one to one past what fits,
        // `packed_count` is the number of ranges the packer places. For
        // four drawn sizes, the fabric's ART of all that fit, and of a
        // drawn count of them, is the one built on the packer's first
        // that many ranges.
        let mut rng = SimRng::seed(35);
        let (mut built, mut refused) = (0, 0);
        for case in 0..40 {
            let leaves = 16 << rng.next_below(9);
            let spec = FaultSpec::new(rng.next_below(1 << 16) as u64)
                .dead_multipliers(rng.next_below(301) as u16)
                .dead_adders(rng.next_below(101) as u16)
                .dead_forwarding_links(rng.next_below(1001) as u16);
            let cfg = MaeriConfig::builder(leaves).faults(spec).build().unwrap();
            let mut arts = FabricArts::new(&cfg);
            let spans = arts.spans().to_vec();
            let cap = spans.iter().map(|s| s.len).max().unwrap_or(0);
            if cap == 0 {
                continue;
            }
            let drawn: Vec<usize> = (0..4).map(|_| 1 + rng.next_below(cap)).collect();
            let what = |size| format!("case {case}: {leaves} leaves, {spec:?}, size {size}");
            for size in 1..=cap {
                let mut want = 1;
                let placed = loop {
                    let (ranges, _) = pack_vns_into_spans(&spans, &vec![size; want]);
                    assert_eq!(
                        packed_count(&spans, size, want),
                        ranges.len(),
                        "{}, want {want}",
                        what(size)
                    );
                    if ranges.len() < want {
                        break ranges;
                    }
                    want += 1;
                };
                if !drawn.contains(&size) {
                    continue;
                }
                for n in [placed.len(), 1 + rng.next_below(placed.len())] {
                    let fresh = ArtConfig::build_with_faults(
                        cfg.collection_chubby(),
                        &placed[..n],
                        cfg.fault_plan().as_ref(),
                    );
                    let art = arts.art(size, n);
                    assert_eq!(art.as_deref(), fresh.as_ref(), "{}, n {n}", what(size));
                    built += 1;
                    refused += usize::from(fresh.is_err());
                }
            }
        }
        assert!(
            refused > 0 && refused < built,
            "the ART refused {refused} of {built} packings"
        );
    }

    #[test]
    fn a_fabric_arts_walk_answers_a_request_sequence_as_fresh_builds() {
        use crate::fault::FaultSpec;
        use crate::mapper::{ArtSource, FabricArts};
        use crate::MaeriConfig;
        // Seeded fabrics of 16-512 leaves with dead multipliers and
        // severed links, where the ART refuses some packings. One
        // `FabricArts` answers 40 drawn (VN size, VN count) requests in a
        // row on its one walk; every answer, refusal or ART, is a fresh
        // build's on the packer's ranges, also right after a refusal
        // left the walk half-built.
        let mut rng = SimRng::seed(37);
        let (mut built, mut refused, mut after_refusal) = (0, 0, 0);
        for case in 0..30 {
            let leaves = 16 << rng.next_below(6);
            let spec = FaultSpec::new(rng.next_below(1 << 16) as u64)
                .dead_multipliers(rng.next_below(300) as u16)
                .dead_forwarding_links(200 + rng.next_below(801) as u16);
            let cfg = MaeriConfig::builder(leaves).faults(spec).build().unwrap();
            let (chubby, faults) = (cfg.collection_chubby(), cfg.fault_plan());
            let mut arts = FabricArts::new(&cfg);
            let spans = arts.spans().to_vec();
            let cap = spans.iter().map(|s| s.len).max().unwrap_or(0);
            if cap == 0 {
                continue;
            }
            let mut refused_last = false;
            for request in 0..40 {
                // Mostly small VNs, which lean on forwarding links.
                let widest = if rng.next_bool(0.8) { cap.min(9) } else { cap };
                let size = 1 + rng.next_below(widest);
                let fits = packed_count(&spans, size, leaves);
                let n = 1 + rng.next_below(fits);
                let (ranges, _) = pack_vns_into_spans(&spans, &vec![size; n]);
                let fresh = ArtConfig::build_with_faults(chubby, &ranges, faults.as_ref());
                let got = arts.art(size, n);
                assert_eq!(
                    got.as_deref(),
                    fresh.as_ref(),
                    "case {case}, request {request}: {leaves} leaves, {spec:?}, size {size}, n {n}"
                );
                after_refusal += usize::from(refused_last && fresh.is_ok());
                refused_last = fresh.is_err();
                built += usize::from(!refused_last);
                refused += usize::from(refused_last);
            }
        }
        assert!(
            built > 0 && refused > 0 && after_refusal > 0,
            "{built} built, {refused} refused, {after_refusal} built right after a refusal"
        );
    }

    /// The forwarding-link check before it recorded each link's first
    /// claimant: every activation against every earlier one.
    fn quadratic_link_check(walk: &ArtWalk) -> Option<ArtError> {
        let link = |fl: &FlActivation| (fl.from.min(fl.to), fl.from.max(fl.to));
        for (k, fl) in walk.fl_activations.iter().enumerate() {
            let earlier = &walk.fl_activations[..k];
            if let Some(first) = earlier.iter().find(|e| link(e) == link(fl)) {
                return Some(ArtError::LinkClaimedTwice {
                    level: fl.level,
                    from: fl.from,
                    to: fl.to,
                    first_vn: first.vn,
                    second_vn: fl.vn,
                });
            }
        }
        None
    }

    #[test]
    fn the_linear_link_check_finds_what_the_pairwise_scan_finds() {
        use crate::fault::FaultSpec;
        // Seeded packings on fabrics of 16-4,096 leaves, healthy or with
        // dead multipliers and severed links. A walk that builds claims
        // no link twice, so each case then injects up to three repeats of
        // links the walk activated (in either direction, by a drawn VN, at
        // drawn positions), or none. The check finds the conflict the
        // pairwise scan finds, first claimant included, and leaves no
        // claim behind for the walk's next run.
        let mut rng = SimRng::seed(37);
        let mut seen = [0usize; 2];
        for case in 0..300 {
            let leaves = 16 << rng.next_below(9);
            let seed = rng.next_below(1 << 16) as u64;
            let spec = match rng.next_below(3) {
                0 => None,
                1 => Some(FaultSpec::new(seed).dead_multipliers(rng.next_below(301) as u16)),
                _ => Some(FaultSpec::new(seed).dead_forwarding_links(rng.next_below(1001) as u16)),
            };
            let plan = spec.map(|spec| FaultPlan::materialize(spec, leaves));
            let spans = plan
                .as_ref()
                .map_or_else(|| vec![VnRange::new(0, leaves)], FaultPlan::healthy_spans);
            let draws: Vec<usize> = (0..leaves).map(|_| 1 + rng.next_below(9)).collect();
            let (vns, _) = pack_vns_into_spans(&spans, &draws);
            let mut walk = ArtWalk::new(BinaryTree::with_leaves(leaves).unwrap());
            let what = || format!("case {case}: {leaves} leaves, {spec:?}");
            let Ok(()) = walk.run(&vns, plan.as_ref()) else {
                continue;
            };
            for _ in 0..rng.next_below(4) {
                let count = walk.fl_activations.len();
                if count == 0 {
                    break;
                }
                let mut repeat = walk.fl_activations[rng.next_below(count)];
                if rng.next_bool(0.5) {
                    std::mem::swap(&mut repeat.from, &mut repeat.to);
                }
                repeat.vn = rng.next_below(vns.len());
                let at = rng.next_below(count + 1);
                walk.fl_activations.insert(at, repeat);
            }
            // The walk built, so no adder is overloaded.
            let want = quadratic_link_check(&walk).map_or(Ok(()), Err);
            let got = walk.check_link_exclusivity();
            assert_eq!(got, want, "{}", what());
            assert!(walk.link_claims.iter().all(|&c| c == 0), "{}", what());
            seen[usize::from(got.is_err())] += 1;
        }
        assert!(seen.iter().all(|&n| n >= 20), "clear, reclaimed: {seen:?}");
    }

    #[test]
    fn faulty_build_rejects_vn_over_dead_leaf() {
        use crate::fault::{FaultPlan, FaultSpec};
        let spec = FaultSpec::new(7).dead_multipliers(200);
        let plan = FaultPlan::materialize(spec, 16);
        let dead = *plan.dead_leaves().iter().next().unwrap();
        let err =
            ArtConfig::build_with_faults(chubby(16, 8), &[VnRange::new(dead, 1)], Some(&plan))
                .unwrap_err();
        assert!(err.to_string().contains("dead multiplier"), "{err}");
    }

    #[test]
    fn faulty_build_sums_correctly_on_healthy_spans() {
        use crate::fault::{FaultPlan, FaultSpec};
        // Kill links too: the ART must still reduce every healthy VN
        // exactly, climbing through parents where laterals are severed.
        let spec = FaultSpec::new(11)
            .dead_multipliers(150)
            .dead_forwarding_links(300);
        let plan = FaultPlan::materialize(spec, 64);
        let spans = plan.healthy_spans();
        assert!(!spans.is_empty());
        let sizes: Vec<usize> = spans.iter().map(|s| s.len).collect();
        let (ranges, overflow) = pack_vns_into_spans(&spans, &sizes);
        assert!(overflow.is_empty());
        let cfg = ArtConfig::build_with_faults(chubby(64, 8), &ranges, Some(&plan)).unwrap();
        let values = leaf_values(64);
        let sums = cfg.reduce(&values);
        for (range, sum) in ranges.iter().zip(&sums) {
            assert!(
                (sum - direct_sum(range, &values)).abs() < 1e-3,
                "vn {}..{}: got {sum}",
                range.start,
                range.end()
            );
        }
    }

    #[test]
    fn dead_forwarding_link_is_never_activated() {
        use crate::fault::{FaultPlan, FaultSpec};
        // A VN straddling the center of a 16-leaf tree normally uses
        // forwarding links; with every link dead it must still sum
        // correctly and activate none.
        let spec = FaultSpec::new(3).dead_forwarding_links(1000);
        let plan = FaultPlan::materialize(spec, 16);
        let range = VnRange::new(5, 6);
        let cfg = ArtConfig::build_with_faults(chubby(16, 8), &[range], Some(&plan)).unwrap();
        assert!(cfg.forwarding_links().is_empty());
        let values = leaf_values(16);
        let sums = cfg.reduce(&values);
        assert!((sums[0] - direct_sum(&range, &values)).abs() < 1e-3);
    }

    /// The slowdown as one float division per loaded up-link.
    fn per_link_slowdown(chubby: &ChubbyTree, edge_loads: &[u32], vns: usize) -> f64 {
        let mut worst: f64 = 1.0;
        for (child, &load) in edge_loads.iter().enumerate() {
            if load > 0 {
                let capacity = chubby.link_bandwidth(chubby.tree().level_of(child)) as f64;
                worst = worst.max(f64::from(load) / capacity);
            }
        }
        worst.max(vns as f64 / chubby.root_bandwidth() as f64)
    }

    /// Runs `vns` on the reused `walk` and checks its outcome against a
    /// fresh build: the same error, or the same walk results and the
    /// same slowdown bits, which also equal a division per link; the
    /// per-link loads, which a build does not keep, are a fresh walk's.
    /// `case` names the case index and the drawn fabric.
    fn check_reused_walk(
        case: &str,
        walk: &mut ArtWalk,
        chubby: ChubbyTree,
        vns: &[VnRange],
        faults: Option<&FaultPlan>,
    ) -> Result<(), ArtError> {
        let got = walk.run(vns, faults);
        match (&got, ArtConfig::build_with_faults(chubby, vns, faults)) {
            (Err(err), Err(want)) => assert_eq!(*err, want, "{case}: {vns:?}"),
            (Ok(()), Ok(cfg)) => {
                let mut fresh = ArtWalk::new(*chubby.tree());
                fresh.run(vns, faults).unwrap();
                assert_eq!(walk.edge_loads, fresh.edge_loads, "{case}: {vns:?}");
                assert_eq!(walk.node_uses, cfg.node_uses, "{case}: {vns:?}");
                assert_eq!(walk.ops, cfg.ops, "{case}: {vns:?}");
                assert_eq!(walk.op_ends, cfg.op_ends, "{case}: {vns:?}");
                assert_eq!(walk.output_nodes, cfg.output_nodes, "{case}: {vns:?}");
                assert_eq!(walk.fl_activations, cfg.fl_activations, "{case}: {vns:?}");
                let slowdown = walk.throughput_slowdown(&chubby).to_bits();
                assert_eq!(
                    slowdown,
                    cfg.throughput_slowdown().to_bits(),
                    "{case}: {vns:?}"
                );
                let per_link = per_link_slowdown(&chubby, &fresh.edge_loads, vns.len());
                assert_eq!(slowdown, per_link.to_bits(), "{case}: {vns:?}");
            }
            (got, fresh) => {
                panic!("{case}: reused walk {got:?}, fresh build {fresh:?} for {vns:?}")
            }
        }
        got
    }

    #[test]
    fn a_reused_walk_equals_fresh_builds() {
        use crate::fault::{FaultPlan, FaultSpec};
        let sizes = [16, 32, 64];
        let mut walks = sizes.map(|leaves| ArtWalk::new(BinaryTree::with_leaves(leaves).unwrap()));

        // The smallest severed-link counterexample of
        // `crates/verify/tests/differential.rs` fails mid-walk; the
        // healthy build after it must not see its partial state.
        let severed = FaultPlan::materialize(FaultSpec::new(2).dead_forwarding_links(250), 16);
        let vns = [VnRange::new(0, 2), VnRange::new(2, 7), VnRange::new(9, 7)];
        let overloaded = ArtError::AdderOverloaded {
            level: 2,
            node: 5,
            addends: 4,
            first_vn: 1,
            second_vn: 2,
        };
        let case = "case 0: 16 leaves, bw 8, severed links (seed 2, 250 permille)";
        let err = check_reused_walk(case, &mut walks[0], chubby(16, 8), &vns, Some(&severed));
        assert_eq!(err, Err(overloaded), "{case}");
        let case = "case 1: 16 leaves, bw 8, healthy";
        let ok = check_reused_walk(case, &mut walks[0], chubby(16, 8), &vns, None);
        assert_eq!(ok, Ok(()), "{case}");

        let mut rng = SimRng::seed(24);
        // Outcomes: built, out of range, overlap, dead leaf, overloaded,
        // link claimed twice. Two VNs cannot both hold fragments at
        // both ends of one link (their leaves would overlap), so the
        // last never occurs.
        let mut seen = [0usize; 6];
        for case in 2..2000 {
            let which = rng.next_below(sizes.len());
            let leaves = sizes[which];
            let bw = 1 << rng.next_below(leaves.trailing_zeros() as usize + 1);
            let seed = rng.next_below(1 << 16) as u64;
            let spec = match rng.next_below(3) {
                0 => None,
                1 => Some(FaultSpec::new(seed).dead_multipliers(rng.next_below(401) as u16)),
                _ => Some(
                    FaultSpec::new(seed).dead_forwarding_links(120 + rng.next_below(381) as u16),
                ),
            };
            let plan = spec.map(|spec| FaultPlan::materialize(spec, leaves));
            let spans = plan
                .as_ref()
                .map_or_else(|| vec![VnRange::new(0, leaves)], FaultPlan::healthy_spans);
            let draws: Vec<usize> = (0..=rng.next_below(leaves))
                .map(|_| 1 + rng.next_below(9))
                .collect();
            let (mut vns, _) = pack_vns_into_spans(&spans, &draws);
            // Most partitions stay gapless packings; the rest gain an
            // illegal VN: overlapping, out of range or on a dead leaf.
            match rng.next_below(6) {
                0 if !vns.is_empty() => {
                    let host = vns[rng.next_below(vns.len())];
                    let start = host.start + rng.next_below(host.len);
                    vns.push(VnRange::new(start, 1 + rng.next_below(4)));
                }
                1 => {
                    let start = leaves - rng.next_below(3);
                    vns.push(VnRange::new(start, leaves - start + 1 + rng.next_below(3)));
                }
                2 => {
                    let dead: Vec<usize> =
                        plan.iter().flat_map(|p| p.dead_leaves().clone()).collect();
                    if !dead.is_empty() {
                        vns.push(VnRange::new(dead[rng.next_below(dead.len())], 1));
                    }
                }
                _ => {}
            }
            if rng.next_bool(0.25) {
                let len = vns.len();
                rng.partial_shuffle(&mut vns, len);
            }
            let case = format!("case {case}: {leaves} leaves, bw {bw}, {spec:?}");
            let chubby = chubby(leaves, bw);
            let outcome = check_reused_walk(&case, &mut walks[which], chubby, &vns, plan.as_ref());
            seen[match outcome {
                Ok(()) => 0,
                Err(ArtError::OutOfRange { .. }) => 1,
                Err(ArtError::Overlap { .. }) => 2,
                Err(ArtError::DeadLeaf { .. }) => 3,
                Err(ArtError::AdderOverloaded { .. }) => 4,
                Err(ArtError::LinkClaimedTwice { .. }) => 5,
            }] += 1;
        }
        assert!(
            seen[..5].iter().all(|&n| n >= 20),
            "outcome counts {seen:?}"
        );
    }

    /// Every severed-link pattern of a 16-leaf tree, which has 4
    /// forwarding links (one at level 2, three at level 3), each with a
    /// fault plan that severs exactly it; the `FaultSpec` seeds reach
    /// all 16.
    fn severed_patterns_at_16_leaves() -> BTreeMap<BTreeSet<(usize, usize)>, FaultPlan> {
        use crate::fault::FaultSpec;
        let mut patterns = BTreeMap::new();
        for permille in [0, 250, 500, 750, 1000] {
            for seed in 0..32 {
                let plan = FaultPlan::materialize(
                    FaultSpec::new(seed).dead_forwarding_links(permille),
                    16,
                );
                patterns.entry(plan.dead_links().clone()).or_insert(plan);
            }
        }
        assert_eq!(patterns.len(), 16, "severed patterns {:?}", patterns.keys());
        patterns
    }

    /// The composition of 16 leaves that `cuts` names: bit `b` ends a VN
    /// after leaf `b`.
    fn composition_of_16(cuts: u32, vns: &mut Vec<VnRange>) {
        vns.clear();
        let mut start = 0;
        for end in 1..=16 {
            if end == 16 || cuts & 1 << (end - 1) != 0 {
                vns.push(VnRange::new(start, end - start));
                start = end;
            }
        }
    }

    /// For every node of `tree`, the index of the VN of `vns` (disjoint
    /// ranges) whose range holds the node's whole leaf span, if any.
    fn interior_owners(tree: BinaryTree, vns: &[VnRange]) -> Vec<Option<usize>> {
        let mut owners = vec![None; tree.num_nodes()];
        let leaf_level = tree.levels() - 1;
        for (vn, range) in vns.iter().enumerate() {
            for level in 0..=leaf_level {
                let shift = leaf_level - level;
                let first = range.start.div_ceil(1 << shift);
                for pos in first..range.end() >> shift {
                    owners[tree.node_at(level, pos)] = Some(vn);
                }
            }
        }
        owners
    }

    /// Checks `table`'s summed solo loads for the ascending, disjoint
    /// `vns` against `walk` run on the whole group. Where the walk
    /// builds, the sums rule out a conflict (no summed addends exceed 3,
    /// so the table takes no fallback), equal the walk's load on every
    /// up-link interior to no VN, and give the walk's slowdown bits
    /// under each of `bandwidths`; the walk loads every link interior
    /// to a VN, which the sums leave out, at most once. Where it fails,
    /// some summed addends exceed 3 and the table returns the walk's
    /// error through one fallback. Returns whether the walk built;
    /// `case` names the case.
    fn check_solo_sums(
        case: impl Fn() -> String,
        table: &mut SoloLoads,
        walk: &mut ArtWalk,
        bandwidths: &[ChubbyTree],
        vns: &[VnRange],
    ) -> bool {
        let clear = table.sum(vns);
        let group = table.group;
        let summed = |slot: (u32, u32)| if slot.0 == group { slot.1 } else { 0 };
        let overloaded = table.addends.iter().any(|&(g, a)| g == group && a > 3);
        match walk.run(vns, table.faults) {
            Ok(()) => {
                assert!(
                    clear && !overloaded,
                    "{}: {vns:?} builds, but the sums do not rule out a conflict: {:?}",
                    case(),
                    table.addends
                );
                let owners = interior_owners(walk.tree, vns);
                for (node, &load) in walk.edge_loads.iter().enumerate() {
                    let got = summed(table.loads[node]);
                    let kept = if owners[node].is_some() { 0 } else { load };
                    assert!(
                        got == kept && load <= kept.max(1),
                        "{}: link {node} loaded {load} times, summed {got}: {vns:?}",
                        case()
                    );
                }
                for chubby in bandwidths {
                    assert_eq!(
                        table.group_slowdown(chubby, vns).map(f64::to_bits),
                        Ok(walk.throughput_slowdown(chubby).to_bits()),
                        "{}, root bandwidth {}: {vns:?}",
                        case(),
                        chubby.root_bandwidth()
                    );
                }
                true
            }
            Err(err) => {
                assert!(
                    overloaded,
                    "{}: {vns:?} fails with {err:?}, but no summed addends exceed 3: {:?}",
                    case(),
                    table.addends
                );
                let fallbacks = || FALLBACKS.with(std::cell::Cell::get).0;
                let before = fallbacks();
                let got = table.group_slowdown(&ChubbyTree::new(walk.tree, 1).unwrap(), vns);
                assert_eq!(fallbacks() - before, 1, "{}: {vns:?}", case());
                assert_eq!(got, Err(err), "{}: {vns:?}", case());
                false
            }
        }
    }

    #[test]
    fn solo_sums_equal_the_walk_and_flag_exactly_its_rejections() {
        use crate::fault::FaultSpec;
        let tree = BinaryTree::with_leaves(16).unwrap();
        // The loads, asserted equal in every case, decide the slowdown;
        // its bits are compared at root bandwidths 1–16 in every 64th.
        let bandwidths = [1, 2, 4, 8, 16].map(|bw| chubby(16, bw));
        let mut walk = ArtWalk::new(tree);
        let mut outcomes = [0usize; 2];
        let mut vns = Vec::new();
        for (severed, plan) in &severed_patterns_at_16_leaves() {
            let mut table = SoloLoads::new(tree, Some(plan));
            for cuts in 0u32..1 << 15 {
                composition_of_16(cuts, &mut vns);
                let case = || format!("16 leaves, severed {severed:?}, cuts {cuts:#06x}");
                let slowdowns = if cuts % 64 == 0 { &bandwidths[..] } else { &[] };
                let built = check_solo_sums(case, &mut table, &mut walk, slowdowns, &vns);
                outcomes[usize::from(built)] += 1;
            }
        }
        // Severed links make the walk reject some of these legal
        // packings (see `crates/verify/tests/differential.rs`).
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "rejected, built: {outcomes:?}"
        );

        // Seeded fabrics at 32 and 64 leaves, several packings each
        // through one table, some with VNs left out so gaps separate
        // the rest.
        let mut rng = SimRng::seed(25);
        let mut outcomes = [0usize; 2];
        for fabric in 0..120 {
            let leaves = [32, 64][rng.next_below(2)];
            let seed = rng.next_below(1 << 16) as u64;
            let spec = match rng.next_below(3) {
                0 => None,
                1 => Some(FaultSpec::new(seed).dead_multipliers(rng.next_below(401) as u16)),
                _ => Some(FaultSpec::new(seed).dead_forwarding_links(rng.next_below(1001) as u16)),
            };
            let plan = spec.map(|spec| FaultPlan::materialize(spec, leaves));
            let spans = plan
                .as_ref()
                .map_or_else(|| vec![VnRange::new(0, leaves)], FaultPlan::healthy_spans);
            let bandwidths = [1, 2, 4, 8, 16].map(|bw| chubby(leaves, bw));
            let tree = *bandwidths[0].tree();
            let mut table = SoloLoads::new(tree, plan.as_ref());
            let mut walk = ArtWalk::new(tree);
            for packing in 0..25 {
                let draws: Vec<usize> = (0..leaves).map(|_| 1 + rng.next_below(9)).collect();
                let (mut vns, _) = pack_vns_into_spans(&spans, &draws);
                if packing % 2 == 1 {
                    vns.retain(|_| rng.next_bool(0.8));
                }
                let case =
                    || format!("fabric {fabric}, packing {packing}: {leaves} leaves, {spec:?}");
                let built = check_solo_sums(case, &mut table, &mut walk, &bandwidths, &vns);
                outcomes[usize::from(built)] += 1;
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "rejected, built: {outcomes:?}"
        );
    }

    #[test]
    fn solo_sums_survive_the_group_number_wrapping() {
        use crate::fault::FaultSpec;
        // Groups summed on both sides of the wrap, on severed links so
        // that some fall back; the slots cleared at the wrap hold no
        // stamp from before it.
        let plan = FaultPlan::materialize(FaultSpec::new(9).dead_forwarding_links(500), 64);
        let bandwidths = [1, 4, 16].map(|bw| chubby(64, bw));
        let tree = *bandwidths[0].tree();
        let mut table = SoloLoads::starting_at_group(tree, Some(&plan), u32::MAX - 5);
        let mut walk = ArtWalk::new(tree);
        let mut rng = SimRng::seed(27);
        let mut outcomes = [0usize; 2];
        for packing in 0..12 {
            let draws: Vec<usize> = (0..64).map(|_| 1 + rng.next_below(9)).collect();
            let (vns, _) = pack_vns_into_spans(&[VnRange::new(0, 64)], &draws);
            let group = table.group;
            let case = || format!("packing {packing}, after group {group}");
            let built = check_solo_sums(case, &mut table, &mut walk, &bandwidths, &vns);
            outcomes[usize::from(built)] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "rejected, built: {outcomes:?}"
        );
        let group = table.group;
        assert!(group < 64, "the group number never wrapped: {group}");
        assert!(
            table.loads.iter().all(|&(g, _)| g <= group)
                && table.addends.iter().all(|&(g, _)| g <= group),
            "a slot kept a stamp from before the wrap"
        );
    }

    /// Checks the interior-link lemma on the group `vns` under `faults`:
    /// where the walk builds, no VN loads the up-link of, or adds at, a
    /// node interior to another VN's range, and a VN loads each link
    /// interior to its own range at most once. Which VN loads what is
    /// read off each VN's steps and output climb, whose loads must add
    /// up to the walk's. Returns whether the walk built.
    fn check_interior_nodes(
        case: impl Fn() -> String,
        walk: &mut ArtWalk,
        vns: &[VnRange],
        faults: Option<&FaultPlan>,
    ) -> bool {
        if walk.run(vns, faults).is_err() {
            return false;
        }
        let tree = walk.tree;
        let owners = interior_owners(tree, vns);
        let mut loads = vec![0u32; tree.num_nodes()];
        for (vn, ops) in ops_per_vn(&walk.ops, &walk.op_ends).enumerate() {
            let mut touch = |node: NodeId, loaded: bool| {
                loads[node] += u32::from(loaded);
                match owners[node] {
                    Some(owner) if owner != vn => panic!(
                        "{}: vn {vn} {} node {node}, interior to vn {owner}: {vns:?}",
                        case(),
                        if loaded {
                            "loads the up-link of"
                        } else {
                            "adds at"
                        }
                    ),
                    Some(_) if loaded && loads[node] > 1 => {
                        panic!("{}: vn {vn} loads link {node} twice: {vns:?}", case())
                    }
                    _ => {}
                }
            };
            for op in ops {
                match *op {
                    Op::Combine { node, children } => {
                        touch(children[0], true);
                        touch(children[1], true);
                        touch(node, false);
                    }
                    Op::Up { from, .. } => touch(from, true),
                    Op::Lateral { to, .. } => touch(to, false),
                }
            }
            let mut node = walk.output_nodes[vn];
            while let Some(parent) = tree.parent(node) {
                touch(node, true);
                node = parent;
            }
        }
        assert_eq!(loads, walk.edge_loads, "{}: {vns:?}", case());
        true
    }

    #[test]
    fn only_its_own_vn_loads_or_adds_at_a_node_inside_a_vn_range() {
        use crate::fault::FaultSpec;
        // 4,096 seeded compositions of 16 leaves under each of the 16
        // severed-link patterns.
        let tree = BinaryTree::with_leaves(16).unwrap();
        let mut walk = ArtWalk::new(tree);
        let mut rng = SimRng::seed(28);
        let mut outcomes = [0usize; 2];
        let mut vns = Vec::new();
        for (severed, plan) in &severed_patterns_at_16_leaves() {
            for _ in 0..4096 {
                let cuts = rng.next_below(1 << 15) as u32;
                composition_of_16(cuts, &mut vns);
                let case = || format!("16 leaves, severed {severed:?}, cuts {cuts:#06x}");
                let built = check_interior_nodes(case, &mut walk, &vns, Some(plan));
                outcomes[usize::from(built)] += 1;
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "rejected, built: {outcomes:?}"
        );

        // Seeded packings at 32 and 64 leaves, and at 128-4096 leaves,
        // healthy or under dead multipliers with or without severed
        // links, some with VNs left out so gaps separate the rest.
        let mut outcomes = [0usize; 2];
        for case in 0..1500 {
            let leaves = if case < 1000 {
                [32, 64][case % 2]
            } else {
                128 << rng.next_below(6)
            };
            let seed = rng.next_below(1 << 16) as u64;
            let spec = match rng.next_below(3) {
                0 => None,
                1 => Some(FaultSpec::new(seed).dead_multipliers(rng.next_below(301) as u16)),
                _ => Some(
                    FaultSpec::new(seed)
                        .dead_multipliers(rng.next_below(301) as u16)
                        .dead_forwarding_links(rng.next_below(1001) as u16),
                ),
            };
            let plan = spec.map(|spec| FaultPlan::materialize(spec, leaves));
            let spans = plan
                .as_ref()
                .map_or_else(|| vec![VnRange::new(0, leaves)], FaultPlan::healthy_spans);
            let draws: Vec<usize> = (0..leaves)
                .map(|_| {
                    let widest = 1 << rng.next_below(6);
                    1 + rng.next_below(widest)
                })
                .collect();
            let (mut vns, _) = pack_vns_into_spans(&spans, &draws);
            if rng.next_bool(0.5) {
                vns.retain(|_| rng.next_bool(0.8));
            }
            let case = || format!("case {case}: {leaves} leaves, {spec:?}");
            let mut walk = ArtWalk::new(BinaryTree::with_leaves(leaves).unwrap());
            let built = check_interior_nodes(case, &mut walk, &vns, plan.as_ref());
            outcomes[usize::from(built)] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "rejected, built: {outcomes:?}"
        );
    }

    /// Checks that the lone VN `range` builds under `faults`, loads no
    /// up-link more than once, and gives a slowdown of exactly 1.0 at
    /// every root bandwidth of the tree.
    fn check_lone_vn(
        case: impl Fn() -> String,
        leaves: usize,
        range: VnRange,
        faults: Option<&FaultPlan>,
    ) {
        let cfg = ArtConfig::build_with_faults(chubby(leaves, 1), &[range], faults)
            .unwrap_or_else(|err| panic!("{}: {range:?} fails with {err:?}", case()));
        assert_eq!(
            cfg.throughput_slowdown().to_bits(),
            1f64.to_bits(),
            "{}: {range:?}",
            case()
        );
        // The walk reads nothing of the chubby profile and a build keeps
        // its walk's slowdown, so one walk gives the loads and the
        // slowdown of a build at every bandwidth.
        let mut walk = ArtWalk::new(cfg.tree);
        walk.run(&[range], faults).unwrap();
        assert!(
            walk.edge_loads.iter().all(|&load| load <= 1),
            "{}: {range:?} loads {:?}",
            case(),
            walk.edge_loads
        );
        for bw in (0..=leaves.trailing_zeros()).map(|k| 1 << k) {
            assert_eq!(
                walk.throughput_slowdown(&chubby(leaves, bw)).to_bits(),
                1f64.to_bits(),
                "{}, root bandwidth {bw}: {range:?}",
                case()
            );
        }
    }

    #[test]
    fn a_lone_vn_on_healthy_leaves_builds_and_never_slows_the_art() {
        use crate::fault::FaultSpec;
        // Every range at 16 leaves under all 16 severed-link patterns.
        for (severed, plan) in &severed_patterns_at_16_leaves() {
            for start in 0..16 {
                for len in 1..=16 - start {
                    let case = || format!("16 leaves, severed {severed:?}");
                    check_lone_vn(case, 16, VnRange::new(start, len), Some(plan));
                }
            }
        }

        // Every range at 32 and 64 leaves under dead multipliers and
        // severed links: a range on healthy leaves builds, and any other
        // covers a dead leaf.
        let mut rng = SimRng::seed(26);
        let mut dead = 0;
        for fabric in 0..12 {
            let leaves = [32, 64][fabric % 2];
            let spec = FaultSpec::new(rng.next_below(1 << 16) as u64)
                .dead_multipliers(rng.next_below(301) as u16)
                .dead_forwarding_links(rng.next_below(1001) as u16);
            let plan = FaultPlan::materialize(spec, leaves);
            for start in 0..leaves {
                for len in 1..=leaves - start {
                    let range = VnRange::new(start, len);
                    let case = || format!("fabric {fabric}: {leaves} leaves, {spec:?}");
                    if (start..range.end()).any(|leaf| plan.is_leaf_dead(leaf)) {
                        let built =
                            ArtConfig::build_with_faults(chubby(leaves, 1), &[range], Some(&plan));
                        assert!(
                            matches!(built, Err(ArtError::DeadLeaf { .. })),
                            "{}: {range:?} gives {built:?}",
                            case()
                        );
                        dead += 1;
                    } else {
                        check_lone_vn(case, leaves, range, Some(&plan));
                    }
                }
            }
        }
        assert!(dead > 0, "no range covered a dead leaf");

        // Seeded random ranges inside healthy spans at 128-4096 leaves.
        for case in 0..1000 {
            let leaves = 128 << rng.next_below(6);
            let seed = rng.next_below(1 << 16) as u64;
            let spec = match rng.next_below(3) {
                0 => None,
                1 => Some(FaultSpec::new(seed).dead_multipliers(rng.next_below(301) as u16)),
                _ => Some(FaultSpec::new(seed).dead_forwarding_links(rng.next_below(1001) as u16)),
            };
            let plan = spec.map(|spec| FaultPlan::materialize(spec, leaves));
            let spans = plan
                .as_ref()
                .map_or_else(|| vec![VnRange::new(0, leaves)], FaultPlan::healthy_spans);
            let span = spans[rng.next_below(spans.len())];
            let start = span.start + rng.next_below(span.len);
            let range = VnRange::new(start, 1 + rng.next_below(span.end() - start));
            let case = || format!("case {case}: {leaves} leaves, {spec:?}");
            check_lone_vn(case, leaves, range, plan.as_ref());
        }
    }

    #[test]
    fn vn_range_accessors() {
        let vn = VnRange::new(3, 4);
        assert_eq!(vn.end(), 7);
        assert!(vn.contains(3) && vn.contains(6));
        assert!(!vn.contains(2) && !vn.contains(7));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_vn_panics() {
        let _ = VnRange::new(0, 0);
    }
}
