//! The prune → score → validate search loop.

use maeri::cycle_sim::simulate_conv_layer;
use maeri::mapper::conv::ConvShape;
use maeri::mapper::{ArtSource, ConvPlan, FabricArts};
use maeri::{
    ArtConfig, ArtError, CandidateKind, ConvMapper, ConvMapping, FcMapper, LstmMapper, MaeriConfig,
    PlanError, SparseConvMapper, VectorPlan, VnPolicy, VnRange,
};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer, WeightMask};
use maeri_sim::{Result, SimError};
use maeri_verify::{reject_plan, statically_reject, VerifyLayer, VerifyPlan};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::space::{enumerate, space_size, SearchLayer, SearchSpec};

/// How many analytically best candidates survive to exact validation
/// (the heuristic point always joins them).
const FRONTIER: usize = 8;

/// Per-search telemetry: how much of the space was looked at and how
/// well the analytic ranking agreed with the exact trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchCounters {
    /// Candidates considered: the whole space.
    pub enumerated: u64,
    /// Considered candidates dropped as infeasible or as duplicates of
    /// an already-scored mapping shape.
    pub pruned: u64,
    /// The subset of `pruned` rejected by the static verifier
    /// (`maeri-verify`) before any analytic scoring ran. The gate is
    /// sound: it only rejects candidates scoring would reject too, so
    /// `pruned` and `scored` are unchanged by it — this counter just
    /// records how much scoring work the verifier saved. A repeat of a
    /// rejected dense CONV shape counts here without running it again.
    pub statically_rejected: u64,
    /// Candidates scored with the analytic model.
    pub scored: u64,
    /// Frontier members validated with an exact `cycle_sim` trace.
    pub validated: u64,
    /// Whether the analytic model and the exact trace agreed on which
    /// frontier member is best (`None` when nothing was trace-
    /// validated, e.g. FC/LSTM/sparse searches).
    pub rank_agreement: Option<bool>,
    /// ARTs the search built for its dense candidates' plans: one per
    /// distinct (VN size, VN count) packing they planned, the LSTM
    /// state-phase plan's included, whether or not the ART refused it.
    /// Sparse candidates walk their groups inside the sparse mapper and
    /// add none. Not part of [`SearchResult::canonical_text`].
    pub arts_built: u64,
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateOutcome {
    /// The mapping point's knobs.
    pub candidate: CandidateKind,
    /// Closed-form analytic cycle estimate.
    pub analytic_cycles: u64,
    /// Exact clocked-trace cycles, when the layer kind has a trace
    /// (dense CONV frontier members).
    pub validated_cycles: Option<u64>,
}

impl CandidateOutcome {
    /// The cycles the search judges this candidate by: validated when
    /// available, analytic otherwise.
    #[must_use]
    pub fn final_cycles(&self) -> u64 {
        self.validated_cycles.unwrap_or(self.analytic_cycles)
    }
}

/// Outcome of one mapping search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Tuned layer name.
    pub layer: String,
    /// Layer kind label (`conv`, `sparse`, `fc`, `lstm`).
    pub kind: String,
    /// Closed-form size of the exhaustive space.
    pub space: u64,
    /// The searched fabric's distribution-tree root bandwidth
    /// (words/cycle), which every candidate ran under.
    pub dist_bandwidth: usize,
    /// The searched fabric's collection (ART) root bandwidth
    /// (words/cycle).
    pub collect_bandwidth: usize,
    /// The legacy heuristic mapper's named point, evaluated with the
    /// same machinery as every other candidate.
    pub heuristic: CandidateOutcome,
    /// The winner (never worse than `heuristic` — the heuristic is
    /// always part of the validated frontier).
    pub best: CandidateOutcome,
    /// The validated frontier, best final cycles first.
    pub frontier: Vec<CandidateOutcome>,
    /// Search telemetry.
    pub counters: SearchCounters,
}

impl SearchResult {
    /// The winner's cycles.
    #[must_use]
    pub fn best_cycles(&self) -> u64 {
        self.best.final_cycles()
    }

    /// The heuristic point's cycles.
    #[must_use]
    pub fn heuristic_cycles(&self) -> u64 {
        self.heuristic.final_cycles()
    }

    /// Heuristic cycles over best cycles (`>= 1.0`).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.best_cycles() == 0 {
            1.0
        } else {
            self.heuristic_cycles() as f64 / self.best_cycles() as f64
        }
    }

    /// A stable human-readable label of `candidate` on the searched
    /// fabric, e.g. `conv ct=3 max_vns=64 filter-major bw=8/8`.
    #[must_use]
    pub fn describe(&self, candidate: &CandidateKind) -> String {
        let (dist, collect) = (self.dist_bandwidth, self.collect_bandwidth);
        format!("{} bw={dist}/{collect}", candidate.describe())
    }

    /// A byte-stable multi-line rendering (used as the runtime's
    /// canonical job output, so it must not depend on wall-clock,
    /// worker count, or hash-map iteration order).
    #[must_use]
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "search {} ({}, exhaustive): space={} considered={} pruned={} scored={} validated={}",
            self.layer,
            self.kind,
            self.space,
            self.counters.enumerated,
            self.counters.pruned,
            self.counters.scored,
            self.counters.validated
        );
        let _ = writeln!(
            s,
            "  heuristic: {} -> {} cycles",
            self.describe(&self.heuristic.candidate),
            self.heuristic.final_cycles()
        );
        let _ = writeln!(
            s,
            "  best:      {} -> {} cycles (speedup {:.3}x, rank agreement {})",
            self.describe(&self.best.candidate),
            self.best.final_cycles(),
            self.speedup(),
            match self.counters.rank_agreement {
                Some(true) => "yes",
                Some(false) => "no",
                None => "n/a",
            }
        );
        for entry in &self.frontier {
            let validated = entry
                .validated_cycles
                .map_or_else(|| "-".to_owned(), |v| v.to_string());
            let _ = writeln!(
                s,
                "  frontier: {} analytic={} validated={validated}",
                self.describe(&entry.candidate),
                entry.analytic_cycles
            );
        }
        s
    }
}

/// A scored candidate (stable sorts break `cycles` ties in consideration order).
struct Scored {
    candidate: CandidateKind,
    cycles: u64,
}

/// Shape fingerprint, the verdict memo's key: candidates that resolve to
/// one effective mapping (e.g. two replication caps above the packable
/// VN count) share it. The dense CONV key is exact: VN size and count fix
/// the packed ranges, and with the fault plan the ART; the gate's ledger
/// and `ConvMapper::cycles` read nothing it omits. It names the channel
/// tile, so only candidates of one tile can share it. Every candidate of
/// one search runs on the spec's fabric, so the key leaves out its
/// bandwidth pair.
type Fingerprint = [u64; 6];

/// What the gate and the scorer decided for a shape's first candidate.
enum Verdict {
    Rejected,
    Scored,
}

/// What the loop decides for one candidate.
#[derive(Clone, Copy)]
enum Outcome {
    /// The static gate refused it.
    Rejected,
    /// The gate passed it and the scorer refused it (only a sparse run
    /// can, when a later group's ART fails).
    Unscored,
    /// Analytic cycles and shape fingerprint.
    Scored(u64, Fingerprint),
}

/// The candidate loop's counters, verdict memo and scored candidates.
#[derive(Default)]
struct Tally {
    counters: SearchCounters,
    /// The verdict of every fingerprint seen so far, except that a dense
    /// CONV search keeps only the channel tile `tile`'s: a CONV
    /// fingerprint names its tile, and [`enumerate`] lists a tile's
    /// candidates together, so no later candidate can share an earlier
    /// tile's.
    verdicts: BTreeMap<Fingerprint, Verdict>,
    /// The channel tile of the dense CONV candidate considered last.
    tile: usize,
    scored: Vec<Scored>,
}

/// The candidate loop's body, one candidate at a time.
type Consider = fn(&mut Tally, &mut Planner, &SearchSpec, Option<&WeightMask>, CandidateKind);

/// Leaves' worth of ARTs one search's memo retains. Every ART holds
/// tree-sized arrays, so this bounds the memo's memory on any fabric. A
/// fabric of `N <= 64` leaves has at most `N * (log2(N) + 1) <= 448`
/// distinct packings, so its memo never forgets one.
const ART_MEMO_LEAVES: usize = 1 << 16;

/// The search's ART memo, which lives for one search. VNs of one size
/// pack left to right into the healthy spans, so on the search's one
/// fabric and fault plan a (VN size, VN count) request fixes the packed
/// ranges, and with them the ART, whichever candidate asks; the request
/// is the key, and the fabric packs its ranges only on a miss. Plans
/// share the memo's ARTs. Past [`ART_MEMO_LEAVES`] it forgets its oldest
/// packing: candidates that share a packing mostly come one after
/// another (one channel tile's replication caps and loop orders), so a
/// forgotten packing is seldom asked for again.
struct Arts {
    fabric: FabricArts,
    built: BTreeMap<(usize, usize), Result<Arc<ArtConfig>, ArtError>>,
    /// The packings in `built`, oldest first.
    order: VecDeque<(usize, usize)>,
    /// Most packings `built` holds.
    capacity: usize,
    /// ARTs built, a forgotten packing's again.
    builds: u64,
}

impl Arts {
    fn new(fabric: &MaeriConfig) -> Self {
        Arts {
            fabric: FabricArts::new(fabric),
            built: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: (ART_MEMO_LEAVES / fabric.num_mult_switches()).max(1),
            builds: 0,
        }
    }
}

impl ArtSource for Arts {
    fn spans(&self) -> &[VnRange] {
        self.fabric.spans()
    }

    /// The ART of the packing, built on its first request.
    fn art(&mut self, vn_size: usize, num_vns: usize) -> Result<Arc<ArtConfig>, ArtError> {
        let key = (vn_size, num_vns);
        if let Some(art) = self.built.get(&key) {
            return art.clone();
        }
        if self.order.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.built.remove(&oldest);
            }
        }
        let art = self.fabric.art(vn_size, num_vns);
        self.built.insert(key, art.clone());
        self.order.push_back(key);
        self.builds += 1;
        art
    }
}

/// What one search plans its dense candidates on, set up once per
/// search: the spec's fabric and the ART memo over its healthy spans.
struct Planner {
    fabric: MaeriConfig,
    arts: Arts,
}

/// A dense candidate's plan with its layer: the static gate checks it
/// and the analytic model costs it.
enum Plan<'a> {
    Conv(&'a ConvLayer, ConvPlan),
    Fc(&'a FcLayer, VectorPlan),
    /// The gate phase's plan and the state phase's.
    Lstm(&'a LstmLayer, VectorPlan, VectorPlan),
}

impl Plan<'_> {
    /// The gate's verdict on the plan and, when it passes, the plan's
    /// cost on `fabric` with the shape fingerprint `key`.
    fn judge(&self, fabric: MaeriConfig, key: Fingerprint) -> Outcome {
        let verify = match self {
            Plan::Conv(l, plan) => VerifyPlan::Conv(l, plan),
            Plan::Fc(l, plan) => VerifyPlan::Fc(l, plan),
            Plan::Lstm(l, gate, _) => VerifyPlan::Lstm(l, gate),
        };
        if reject_plan(verify).is_some() {
            Outcome::Rejected
        } else {
            Outcome::Scored(self.cycles(fabric), key)
        }
    }

    /// A vector plan's shape fingerprint: its fold.
    fn fingerprint(&self) -> Fingerprint {
        match self {
            Plan::Conv(..) => unreachable!("a dense CONV candidate's key is its shape's"),
            Plan::Fc(_, plan) => [plan.fold as u64, 0, 0, 0, 0, 2],
            Plan::Lstm(_, gate, _) => [gate.fold as u64, 0, 0, 0, 0, 3],
        }
    }

    /// The mapper's closed-form cycles on `fabric`.
    fn cycles(&self, fabric: MaeriConfig) -> u64 {
        match self {
            Plan::Conv(l, plan) => ConvMapper::new(fabric).cycles(l, plan),
            Plan::Fc(l, plan) => FcMapper::new(fabric).cost(l, plan).cycles.as_u64(),
            Plan::Lstm(l, gate, state) => {
                LstmMapper::new(fabric).cost(l, gate, state).cycles.as_u64()
            }
        }
    }
}

impl Planner {
    /// Materializes `fabric`'s fault plan and healthy spans.
    fn new(fabric: MaeriConfig) -> Self {
        Planner {
            fabric,
            arts: Arts::new(&fabric),
        }
    }

    /// A dense CONV candidate's shape: its plan up to the ART.
    fn conv_shape(&self, layer: &ConvLayer, mapping: ConvMapping) -> Result<ConvShape, PlanError> {
        ConvMapper::new(self.fabric).shape(layer, VnPolicy::Explicit(mapping), self.arts.spans())
    }

    /// A dense candidate's plan, as its mapper plans it, on the search's
    /// spans and ART memo; `None` for sparse candidates and kind
    /// mismatches.
    fn plan<'a>(
        &mut self,
        layer: &'a SearchLayer,
        kind: CandidateKind,
    ) -> Option<Result<Plan<'a>, PlanError>> {
        Some(match (layer, kind) {
            (SearchLayer::Conv(l), CandidateKind::Conv(m)) => self
                .conv_shape(l, m)
                .and_then(|shape| shape.into_plan(&mut self.arts))
                .map(|plan| Plan::Conv(l, plan)),
            (SearchLayer::Fc(l), CandidateKind::Fc { vn_size }) => {
                FcMapper::plan_with(&mut self.arts, l, vn_size).map(|plan| Plan::Fc(l, plan))
            }
            (SearchLayer::Lstm(l), CandidateKind::Lstm { gate_vn_size }) => {
                LstmMapper::gate_plan_with(&mut self.arts, l, gate_vn_size).and_then(|gate| {
                    let state = LstmMapper::state_plan_with(&mut self.arts)?;
                    Ok(Plan::Lstm(l, gate, state))
                })
            }
            _ => return None,
        })
    }

    /// The analytic cycles of `cand` without the gate: the heuristic
    /// point's score, with the mappers' own errors.
    fn score(
        &mut self,
        spec: &SearchSpec,
        mask: Option<&WeightMask>,
        cand: CandidateKind,
    ) -> Result<u64> {
        let fabric = self.fabric;
        if let Some(plan) = self.plan(&spec.layer, cand) {
            return Ok(plan?.cycles(fabric));
        }
        match (&spec.layer, cand) {
            (SearchLayer::SparseConv { layer, .. }, CandidateKind::SparseConv { channel_tile }) => {
                let mask = mask.expect("sparse search carries a mask");
                let run = SparseConvMapper::new(fabric).run(layer, mask, channel_tile)?;
                Ok(run.cycles.as_u64())
            }
            _ => Err(SimError::invalid_config(
                "candidate kind does not match the search layer",
            )),
        }
    }

    /// The gate's verdict on an FC, LSTM or sparse candidate and, when
    /// it passes, its score. An FC or LSTM candidate is planned once:
    /// `reject_plan` checks the plan and the mapper's cost model prices
    /// it; a plan the mapper refuses is the gate's refusal. Sparse
    /// candidates go through `statically_reject` and
    /// `SparseConvMapper::run`, which plan on their own.
    fn judge(
        &mut self,
        spec: &SearchSpec,
        mask: Option<&WeightMask>,
        cand: CandidateKind,
    ) -> Outcome {
        let fabric = self.fabric;
        match self.plan(&spec.layer, cand) {
            Some(Ok(plan)) => return plan.judge(fabric, plan.fingerprint()),
            Some(Err(_)) => return Outcome::Rejected,
            None => {}
        }
        if statically_reject(&spec.base, &verify_layer(spec, mask), &cand).is_some() {
            return Outcome::Rejected;
        }
        match self.score(spec, mask, cand) {
            Ok(cycles) => Outcome::Scored(cycles, sparse_fingerprint(cand)),
            Err(_) => Outcome::Unscored,
        }
    }
}

/// Runs the full search for `spec`.
///
/// # Errors
///
/// Propagates failures evaluating the heuristic point (a layer that
/// cannot map at all).
pub fn search(spec: &SearchSpec) -> Result<SearchResult> {
    search_with(spec, Tally::consider)
}

/// [`search`] with the candidate loop's body given.
fn search_with(spec: &SearchSpec, consider: Consider) -> Result<SearchResult> {
    let mask = match &spec.layer {
        SearchLayer::SparseConv {
            layer,
            zero_fraction,
            mask_seed,
        } => Some(WeightMask::seeded(layer, *zero_fraction, *mask_seed)),
        _ => None,
    };
    let mask = mask.as_deref();
    let heuristic_candidate = heuristic_candidate(spec, mask)?;
    let mut planner = Planner::new(spec.base);
    let heuristic_cycles = planner.score(spec, mask, heuristic_candidate)?;

    let mut tally = Tally::default();
    for cand in enumerate(spec) {
        consider(&mut tally, &mut planner, spec, mask, cand);
    }

    // The frontier by analytic rank, joined by the heuristic point.
    let (mut counters, mut scored) = (tally.counters, tally.scored);
    counters.arts_built = planner.arts.builds;
    scored.sort_by_key(|s| s.cycles);
    let mut frontier: Vec<CandidateOutcome> = scored
        .iter()
        .take(FRONTIER)
        .map(|s| CandidateOutcome {
            candidate: s.candidate,
            analytic_cycles: s.cycles,
            validated_cycles: None,
        })
        .collect();
    if !frontier.iter().any(|o| o.candidate == heuristic_candidate) {
        frontier.push(CandidateOutcome {
            candidate: heuristic_candidate,
            analytic_cycles: heuristic_cycles,
            validated_cycles: None,
        });
    }

    // Exact validation where a clocked trace exists (dense CONV).
    for entry in &mut frontier {
        if let Some(cycles) = validate(spec, &planner.fabric, entry.candidate) {
            entry.validated_cycles = Some(cycles);
            counters.validated += 1;
        }
    }
    if counters.validated > 0 {
        let by_analytic = argmin(&frontier, |o| o.analytic_cycles);
        let by_final = argmin(&frontier, CandidateOutcome::final_cycles);
        counters.rank_agreement = Some(by_analytic == by_final);
    }

    let best = frontier[argmin(&frontier, CandidateOutcome::final_cycles)].clone();
    let heuristic = frontier
        .iter()
        .find(|o| o.candidate == heuristic_candidate)
        .cloned()
        .expect("heuristic point always joins the frontier");
    // Ties break on the knobs' label, not on `CandidateKind`'s order,
    // which sorts `ct=9` before `ct=10`.
    frontier.sort_by(|a, b| {
        (a.final_cycles(), a.analytic_cycles, a.candidate.describe()).cmp(&(
            b.final_cycles(),
            b.analytic_cycles,
            b.candidate.describe(),
        ))
    });

    Ok(SearchResult {
        layer: spec.layer.name().to_owned(),
        kind: spec.layer.kind_label().to_owned(),
        space: space_size(spec),
        dist_bandwidth: spec.base.dist_bandwidth(),
        collect_bandwidth: spec.base.collect_bandwidth(),
        heuristic,
        best,
        frontier,
        counters,
    })
}

impl Tally {
    /// Takes one candidate through the loop, in [`enumerate`]'s order: a
    /// dense CONV shape's first verdict is recorded, and its later
    /// candidates replay it.
    fn consider(
        &mut self,
        planner: &mut Planner,
        spec: &SearchSpec,
        mask: Option<&WeightMask>,
        cand: CandidateKind,
    ) {
        self.counters.enumerated += 1;
        // A dense CONV candidate's shape names its verdict before any
        // ART is built. A shape the mapper refuses is the gate's refusal.
        let (key, outcome) = match (&spec.layer, cand) {
            (SearchLayer::Conv(l), CandidateKind::Conv(m)) => {
                if m.channel_tile != self.tile {
                    self.verdicts.clear();
                    self.tile = m.channel_tile;
                }
                match planner.conv_shape(l, m) {
                    Ok(shape) => {
                        let key = shape_fingerprint(l, &shape);
                        if let Some(verdict) = self.verdicts.get(&key) {
                            self.counters.pruned += 1;
                            self.counters.statically_rejected +=
                                u64::from(matches!(verdict, Verdict::Rejected));
                            return;
                        }
                        let outcome = match shape.into_plan(&mut planner.arts) {
                            Ok(plan) => Plan::Conv(l, plan).judge(planner.fabric, key),
                            Err(_) => Outcome::Rejected,
                        };
                        (Some(key), outcome)
                    }
                    Err(_) => (None, Outcome::Rejected),
                }
            }
            _ => (None, planner.judge(spec, mask, cand)),
        };
        self.record(key, outcome, cand);
    }

    /// Counts one candidate's outcome. A rejected shape's verdict is
    /// kept for its later candidates; a scored fingerprint already seen
    /// is a duplicate shape, pruned.
    fn record(&mut self, key: Option<Fingerprint>, outcome: Outcome, cand: CandidateKind) {
        let counters = &mut self.counters;
        match outcome {
            Outcome::Rejected => {
                counters.pruned += 1;
                counters.statically_rejected += 1;
                if let Some(k) = key {
                    self.verdicts.insert(k, Verdict::Rejected);
                }
            }
            Outcome::Unscored => counters.pruned += 1,
            Outcome::Scored(cycles, fp) => {
                if self.verdicts.insert(fp, Verdict::Scored).is_none() {
                    counters.scored += 1;
                    self.scored.push(Scored {
                        candidate: cand,
                        cycles,
                    });
                } else {
                    counters.pruned += 1;
                }
            }
        }
    }
}

/// A dense CONV candidate's fingerprint, read off its shape before the
/// gate and without an ART.
fn shape_fingerprint(layer: &ConvLayer, shape: &ConvShape) -> Fingerprint {
    [
        shape.vn_size as u64,
        shape.num_vns as u64,
        shape.channel_tile as u64,
        shape.subfold as u64,
        shape.loop_order.row_groups(shape.num_vns, layer),
        0,
    ]
}

/// A sparse candidate's fingerprint: its channel tile.
fn sparse_fingerprint(cand: CandidateKind) -> Fingerprint {
    let CandidateKind::SparseConv { channel_tile } = cand else {
        unreachable!("only sparse candidates pass the gate without a dense plan")
    };
    [channel_tile as u64, 0, 0, 0, 0, 1]
}

/// Index of the minimum of `key` over `entries` (first on ties, so the
/// analytic-sorted frontier order is the tie-break).
fn argmin<F: Fn(&CandidateOutcome) -> u64>(entries: &[CandidateOutcome], key: F) -> usize {
    let mut best = 0;
    for (i, entry) in entries.iter().enumerate() {
        if key(entry) < key(&entries[best]) {
            best = i;
        }
    }
    best
}

/// The spec's layer as the static verifier sees it.
fn verify_layer<'a>(spec: &'a SearchSpec, mask: Option<&'a WeightMask>) -> VerifyLayer<'a> {
    match &spec.layer {
        SearchLayer::Conv(l) => VerifyLayer::Conv(l),
        SearchLayer::SparseConv { layer, .. } => VerifyLayer::SparseConv {
            layer,
            mask: mask.expect("sparse search carries a mask"),
        },
        SearchLayer::Fc(l) => VerifyLayer::Fc(l),
        SearchLayer::Lstm(l) => VerifyLayer::Lstm(l),
    }
}

/// The legacy heuristic mapper's point in this spec's space.
fn heuristic_candidate(spec: &SearchSpec, mask: Option<&WeightMask>) -> Result<CandidateKind> {
    let base = &spec.base;
    Ok(match &spec.layer {
        SearchLayer::Conv(l) => CandidateKind::Conv(ConvMapper::new(*base).heuristic_mapping(l)?),
        SearchLayer::SparseConv { layer, .. } => CandidateKind::SparseConv {
            channel_tile: SparseConvMapper::new(*base)
                .auto_channel_tile(layer, mask.expect("sparse search carries a mask")),
        },
        SearchLayer::Fc(l) => CandidateKind::Fc {
            vn_size: FcMapper::new(*base).heuristic_vn_size(l)?,
        },
        SearchLayer::Lstm(l) => CandidateKind::Lstm {
            gate_vn_size: LstmMapper::new(*base).heuristic_gate_vn_size(l)?,
        },
    })
}

/// Exact clocked-trace cycles on `fabric` for candidates that have one.
fn validate(spec: &SearchSpec, fabric: &MaeriConfig, cand: CandidateKind) -> Option<u64> {
    if let (SearchLayer::Conv(l), CandidateKind::Conv(m)) = (&spec.layer, cand) {
        let trace = simulate_conv_layer(fabric, l, VnPolicy::Explicit(m)).ok()?;
        Some(trace.cycles.as_u64())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::art::pack_vns_into_spans;
    use maeri::fault::FaultSpec;
    use maeri_dnn::{zoo, Layer};
    use maeri_sim::util::ceil_div;
    use maeri_sim::SimRng;
    use maeri_verify::VerifyError;
    use std::collections::btree_map::Entry;
    use std::collections::BTreeSet;

    /// The candidate loop before the verdict and ART memos: the gate
    /// and the unshared score on every candidate, with `verdicts` only
    /// as the set of scored fingerprints (`seen`).
    fn consider_unmemoized(
        tally: &mut Tally,
        _: &mut Planner,
        spec: &SearchSpec,
        mask: Option<&WeightMask>,
        cand: CandidateKind,
    ) {
        tally.counters.enumerated += 1;
        let outcome = if statically_reject(&spec.base, &verify_layer(spec, mask), &cand).is_some() {
            Outcome::Rejected
        } else {
            match score_unshared(spec, mask, cand) {
                Ok((cycles, fp)) => Outcome::Scored(cycles, fp),
                Err(_) => Outcome::Unscored,
            }
        };
        tally.record(None, outcome, cand);
    }

    /// The score before the search shared its plans: analytic cycles
    /// and fingerprint from the mappers' own plans and runs on the
    /// spec's fabric.
    fn score_unshared(
        spec: &SearchSpec,
        mask: Option<&WeightMask>,
        cand: CandidateKind,
    ) -> Result<(u64, Fingerprint)> {
        let cfg = spec.base;
        match (&spec.layer, cand) {
            (SearchLayer::Conv(l), CandidateKind::Conv(m)) => {
                let mapper = ConvMapper::new(cfg);
                let plan = mapper.plan(l, VnPolicy::Explicit(m))?;
                Ok((
                    mapper.cost(l, &plan).cycles.as_u64(),
                    [
                        plan.vn_size as u64,
                        plan.num_vns as u64,
                        plan.channel_tile as u64,
                        plan.subfold as u64,
                        plan.row_groups(l),
                        0,
                    ],
                ))
            }
            (SearchLayer::SparseConv { layer, .. }, CandidateKind::SparseConv { channel_tile }) => {
                let run = SparseConvMapper::new(cfg).run(
                    layer,
                    mask.expect("sparse search carries a mask"),
                    channel_tile,
                )?;
                Ok((run.cycles.as_u64(), [channel_tile as u64, 0, 0, 0, 0, 1]))
            }
            (SearchLayer::Fc(l), CandidateKind::Fc { vn_size }) => {
                let run = FcMapper::new(cfg).run_with_vn_size(l, vn_size)?;
                let fold = ceil_div(l.inputs as u64, vn_size as u64);
                Ok((run.cycles.as_u64(), [fold, 0, 0, 0, 0, 2]))
            }
            (SearchLayer::Lstm(l), CandidateKind::Lstm { gate_vn_size }) => {
                let run = LstmMapper::new(cfg).run_with_gate_vn_size(l, gate_vn_size)?;
                let fold = ceil_div((l.input_dim + l.hidden_dim) as u64, gate_vn_size as u64);
                Ok((run.cycles.as_u64(), [fold, 0, 0, 0, 0, 3]))
            }
            _ => Err(SimError::invalid_config(
                "candidate kind does not match the search layer",
            )),
        }
    }

    /// `search` and the unmemoized loop agree on everything but the
    /// ART count, which the unmemoized loop builds outside the memo.
    fn assert_memo_is_exact(spec: &SearchSpec, what: &str) -> Result<SearchResult> {
        let memoized = search(spec);
        let mut unmemoized = search_with(spec, consider_unmemoized);
        if let (Ok(memoized), Ok(unmemoized)) = (&memoized, &mut unmemoized) {
            unmemoized.counters.arts_built = memoized.counters.arts_built;
        }
        assert_eq!(memoized, unmemoized, "{what}: {spec:?}");
        memoized
    }

    /// A fresh ART per request, recording each request's packing.
    struct Recording {
        fabric: FabricArts,
        packings: BTreeSet<(usize, usize)>,
    }

    impl ArtSource for Recording {
        fn spans(&self) -> &[VnRange] {
            self.fabric.spans()
        }

        fn art(&mut self, vn_size: usize, num_vns: usize) -> Result<Arc<ArtConfig>, ArtError> {
            self.packings.insert((vn_size, num_vns));
            self.fabric.art(vn_size, num_vns)
        }
    }

    /// The distinct (VN size, VN count) packings the mappers' own plans
    /// of a spec's dense candidates ask the ART for (an LSTM candidate
    /// adds its state plan's once its gate plan builds), whether or not
    /// the ART refuses them.
    fn distinct_packings(spec: &SearchSpec) -> u64 {
        let cfg = spec.base;
        let mut arts = Recording {
            fabric: FabricArts::new(&cfg),
            packings: BTreeSet::new(),
        };
        for cand in enumerate(spec) {
            match (&spec.layer, cand) {
                (SearchLayer::Conv(l), CandidateKind::Conv(m)) => {
                    let policy = VnPolicy::Explicit(m);
                    if let Ok(shape) = ConvMapper::new(cfg).shape(l, policy, arts.spans()) {
                        shape.into_plan(&mut arts).ok();
                    }
                }
                (SearchLayer::Fc(l), CandidateKind::Fc { vn_size }) => {
                    FcMapper::plan_with(&mut arts, l, vn_size).ok();
                }
                (SearchLayer::Lstm(l), CandidateKind::Lstm { gate_vn_size }) => {
                    if LstmMapper::gate_plan_with(&mut arts, l, gate_vn_size).is_ok() {
                        LstmMapper::state_plan_with(&mut arts).ok();
                    }
                }
                _ => unreachable!("dense specs only"),
            }
        }
        arts.packings.len() as u64
    }

    /// Runs `search` and checks that it built one ART per distinct
    /// packing of its dense candidates, as its counters report; returns
    /// that count (zero for a search whose heuristic point fails).
    fn assert_one_art_per_packing(spec: &SearchSpec, what: &str) -> u64 {
        let Ok(result) = search(spec) else {
            return 0;
        };
        assert_eq!(
            result.counters.arts_built,
            distinct_packings(spec),
            "{what}: {spec:?}"
        );
        result.counters.arts_built
    }

    /// A seeded random dense CONV search. Fabrics have 16, 32 or 64
    /// leaves and distribution and collection bandwidths of 1, 2, 4 or
    /// 8; by `case % 4` they are healthy, lose 0–399‰ of their
    /// multipliers, lose 100–599‰ of their forwarding links, or lose
    /// 0–149‰ of their adders and 0–199‰ of their multipliers.
    fn random_spec(rng: &mut SimRng, case: u64) -> SearchSpec {
        let leaves = [16, 32, 64][rng.next_below(3)];
        let permille =
            |rng: &mut SimRng, lo: usize, hi: usize| (lo + rng.next_below(hi - lo)) as u16;
        let faults = FaultSpec::new(case);
        let faults = match case % 4 {
            0 => None,
            1 => Some(faults.dead_multipliers(permille(rng, 0, 400))),
            2 => Some(faults.dead_forwarding_links(permille(rng, 100, 600))),
            _ => Some(
                faults
                    .dead_adders(permille(rng, 0, 150))
                    .dead_multipliers(permille(rng, 0, 200)),
            ),
        };
        let mut base = MaeriConfig::builder(leaves)
            .distribution_bandwidth(1 << rng.next_below(4))
            .collection_bandwidth(1 << rng.next_below(4));
        if let Some(faults) = faults {
            base = base.faults(faults);
        }
        let kernel = 1 + rng.next_below(5);
        let side = kernel + rng.next_below(10);
        let layer = ConvLayer::new(
            "conv",
            1 + rng.next_below(12),
            side,
            side,
            1 + rng.next_below(16),
            kernel,
            kernel,
            1 + rng.next_below(2),
            rng.next_below(2),
        );
        SearchSpec::new(SearchLayer::Conv(layer), base.build().unwrap())
    }

    /// How many fingerprints the ART refuses that two or more of the
    /// space's candidates share, so the search replays the refusal.
    fn repeated_art_refusals(spec: &SearchSpec) -> usize {
        let SearchLayer::Conv(layer) = &spec.layer else {
            unreachable!("random_spec draws dense CONV layers")
        };
        let spans = spec.base.healthy_spans();
        let mut refused: BTreeMap<Fingerprint, usize> = BTreeMap::new();
        for cand in enumerate(spec) {
            let CandidateKind::Conv(m) = cand else {
                continue;
            };
            let shape = ConvMapper::new(spec.base).shape(layer, VnPolicy::Explicit(m), &spans);
            let verdict = statically_reject(&spec.base, &verify_layer(spec, None), &cand);
            if let (Ok(shape), Some(VerifyError::Plan(PlanError::Partition(_)))) = (shape, verdict)
            {
                *refused.entry(shape_fingerprint(layer, &shape)).or_default() += 1;
            }
        }
        refused.values().filter(|&&n| n > 1).count()
    }

    #[test]
    fn memoized_search_equals_the_unmemoized_loop() {
        let mut rng = SimRng::seed(2026);
        let (mut rejecting_specs, mut replayed_refusals) = (0, 0);
        for case in 0..600 {
            let spec = random_spec(&mut rng, case);
            let what = format!("case {case}");
            let memoized = assert_memo_is_exact(&spec, &what);
            assert_one_art_per_packing(&spec, &what);
            if memoized.is_ok_and(|r| r.counters.statically_rejected > 0) {
                rejecting_specs += 1;
            }
            replayed_refusals += repeated_art_refusals(&spec);
        }
        // The draw reaches the gate, and the memo replays ART refusals.
        assert!(rejecting_specs > 0, "no spec rejects a candidate");
        assert!(replayed_refusals > 0, "no ART refusal repeats");
    }

    #[test]
    fn shared_vector_plans_equal_the_mappers_own() {
        // Seeded random FC and LSTM searches (reduction lengths 1–200)
        // on `random_spec`'s fabrics, and in a quarter of the cases on
        // 16 leaves with 900–999‰ of the multipliers dead, where plans
        // and heuristic points fail. The loop and the heuristic point
        // plan on the search's spans and ART memo, and must decide and
        // cost as the mappers' own plans and runs do, errors included.
        let mut rng = SimRng::seed(34);
        let (mut rejecting_specs, mut failing_heuristics) = (0, 0);
        for case in 0..200 {
            let mut base = random_spec(&mut rng, case).base;
            if case % 8 >= 6 {
                let dead = FaultSpec::new(case).dead_multipliers(900 + rng.next_below(100) as u16);
                base = MaeriConfig::builder(16).faults(dead).build().unwrap();
            }
            let d = 1 + rng.next_below(199);
            let layer = if case % 2 == 0 {
                SearchLayer::Fc(FcLayer::new("fc", d, 1 + rng.next_below(64)))
            } else {
                let input = 1 + rng.next_below(d);
                SearchLayer::Lstm(LstmLayer::new("lstm", input, 1 + d - input))
            };
            let spec = SearchSpec::new(layer, base);
            let what = format!("case {case}");
            let searched = assert_memo_is_exact(&spec, &what);
            assert_one_art_per_packing(&spec, &what);
            if let Ok(heuristic) = heuristic_candidate(&spec, None) {
                let score = Planner::new(base).score(&spec, None, heuristic);
                assert_eq!(
                    score,
                    score_unshared(&spec, None, heuristic).map(|(cycles, _)| cycles),
                    "{what}: {spec:?}"
                );
                failing_heuristics += usize::from(score.is_err());
            }
            if searched.is_ok_and(|r| r.counters.statically_rejected > 0) {
                rejecting_specs += 1;
            }
        }
        assert!(
            rejecting_specs > 0 && failing_heuristics > 0,
            "{rejecting_specs} rejecting specs, {failing_heuristics} failing heuristics"
        );
    }

    #[test]
    fn the_dense_report_searches_build_one_art_per_packing() {
        // The 13 dense searches of the `mapping_search` report: every
        // Figure 12 CONV layer, AlexNet's FC6 and FC7 and DeepSpeech2's
        // second recurrent layer, on the paper's 64-switch fabric.
        let cfg = MaeriConfig::paper_64();
        let mut specs: Vec<SearchSpec> = zoo::fig12_layers()
            .into_iter()
            .map(|layer| SearchSpec::new(SearchLayer::Conv(layer), cfg))
            .collect();
        let alexnet = zoo::alexnet();
        for name in ["alexnet_fc6", "alexnet_fc7"] {
            if let Some(Layer::Fc(l)) = alexnet.layer(name) {
                specs.push(SearchSpec::new(SearchLayer::Fc(l.clone()), cfg));
            }
        }
        if let Some(Layer::Lstm(l)) = zoo::deepspeech2().layer("ds2_rnn2") {
            specs.push(SearchSpec::new(SearchLayer::Lstm(l.clone()), cfg));
        }
        assert_eq!(specs.len(), 13);
        let built: u64 = specs
            .iter()
            .map(|spec| assert_one_art_per_packing(spec, spec.layer.name()))
            .sum();
        // `regen_all --json` reports this sum as `search_arts_built`.
        assert_eq!(built, 420);
    }

    #[test]
    fn the_art_memo_keeps_its_budget_at_the_wire_caps() {
        // The widest dense search the serve wire admits by input
        // channels x multipliers (2^22): a 1x1 layer with 1,024 input
        // channels and two output columns on 4,096 multipliers. Its first
        // four channel tiles ask for 13 + 12 + 12 + 11 packings, three
        // times what the memo keeps.
        let fabric = MaeriConfig::builder(4096).build().unwrap();
        let layer = ConvLayer::new("cap", 1024, 2, 2, 8, 1, 1, 1, 0);
        let spec = SearchSpec::new(SearchLayer::Conv(layer), fabric);
        let mut planner = Planner::new(fabric);
        assert_eq!(planner.arts.capacity * 4096, ART_MEMO_LEAVES);
        let (mut memoized, mut unmemoized) = (Tally::default(), Tally::default());
        for cand in enumerate(&spec).into_iter().take(4 * 13 * 2) {
            memoized.consider(&mut planner, &spec, None, cand);
            assert!(planner.arts.built.len() <= planner.arts.capacity);
            consider_unmemoized(&mut unmemoized, &mut planner, &spec, None, cand);
        }
        // Each packing was built once, and forgetting the old ones
        // changed no verdict or cost.
        assert_eq!(planner.arts.builds, 48);
        assert_eq!(memoized.counters, unmemoized.counters);
        let scored = |tally: &Tally| -> Vec<_> {
            tally
                .scored
                .iter()
                .map(|s| (s.candidate, s.cycles))
                .collect()
        };
        assert_eq!(scored(&memoized), scored(&unmemoized));
    }

    #[test]
    fn a_fingerprint_decides_the_verdict_and_the_cost() {
        let mut rng = SimRng::seed(22);
        let (mut repeats, mut refused) = (0, 0);
        for case in 0..200 {
            let spec = random_spec(&mut rng, case);
            let SearchLayer::Conv(layer) = &spec.layer else {
                unreachable!("random_spec draws dense CONV layers")
            };
            let mut groups = BTreeMap::new();
            let cfg = spec.base;
            for cand in enumerate(&spec) {
                let CandidateKind::Conv(m) = cand else {
                    continue;
                };
                let mapper = ConvMapper::new(cfg);
                let policy = VnPolicy::Explicit(m);
                let plan = mapper.plan(layer, policy);
                // `plan` is `shape` plus the ART of the ranges the packer
                // places of the VNs the budget and replication cap allow.
                let spans = cfg.healthy_spans();
                let shape = mapper.shape(layer, policy, &spans);
                match shape.clone() {
                    Err(err) => assert_eq!(plan.as_ref().err(), Some(&err)),
                    Ok(shape) => {
                        let budget: usize = spans.iter().map(|s| s.len).sum();
                        let want = (budget / shape.vn_size).min(m.max_vns).max(1);
                        let (ranges, _) = pack_vns_into_spans(&spans, &vec![shape.vn_size; want]);
                        assert_eq!(shape.num_vns, ranges.len(), "case {case}: {cand:?}");
                        let art = ArtConfig::build_with_faults(
                            cfg.collection_chubby(),
                            &ranges,
                            cfg.fault_plan().as_ref(),
                        );
                        match (&plan, art) {
                            (Ok(plan), Ok(_)) => {
                                assert_eq!(
                                    (plan.vn_size, plan.num_vns, plan.channel_tile, plan.segments),
                                    (
                                        shape.vn_size,
                                        shape.num_vns,
                                        shape.channel_tile,
                                        shape.segments
                                    )
                                );
                                assert_eq!(
                                    (plan.subfold, plan.iterations, plan.loop_order),
                                    (shape.subfold, shape.iterations, shape.loop_order)
                                );
                                assert_eq!(plan.art.vns(), ranges.as_slice());
                                assert_eq!(
                                    mapper.cycles(layer, plan),
                                    mapper.cost(layer, plan).cycles.as_u64(),
                                    "case {case}: {cand:?}"
                                );
                            }
                            (Err(err), Err(art)) => {
                                assert_eq!(err, &PlanError::Partition(art));
                                refused += 1;
                            }
                            (plan, art) => panic!("case {case}: plan {plan:?}, ART {art:?}"),
                        }
                    }
                }
                let Ok(shape) = shape else {
                    continue;
                };
                let key = shape_fingerprint(layer, &shape);
                // Everything the memo replays: the gate's verdict, and
                // the cost whenever the candidate plans.
                let outcome = (
                    statically_reject(&spec.base, &VerifyLayer::Conv(layer), &cand),
                    plan.ok().map(|plan| mapper.cost(layer, &plan)),
                );
                match groups.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert(outcome);
                    }
                    Entry::Occupied(first) => {
                        assert_eq!(first.get(), &outcome, "case {case}: {cand:?}");
                        repeats += 1;
                    }
                }
            }
        }
        assert!(
            repeats > 0 && refused > 0,
            "{repeats} repeats, {refused} refused"
        );
    }
}
