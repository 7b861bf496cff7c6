//! The prune → score → validate search loop.

use maeri::cycle_sim::simulate_conv_layer;
use maeri::{
    CandidateKind, ConvMapper, FcMapper, LstmMapper, MappingCandidate, SparseConvMapper, VnPolicy,
};
use maeri_dnn::WeightMask;
use maeri_sim::util::ceil_div;
use maeri_sim::{Result, SimError};
use maeri_verify::{statically_reject, VerifyLayer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateOutcome {
    /// The mapping point.
    pub candidate: MappingCandidate,
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
            self.heuristic.candidate.describe(),
            self.heuristic.final_cycles()
        );
        let _ = writeln!(
            s,
            "  best:      {} -> {} cycles (speedup {:.3}x, rank agreement {})",
            self.best.candidate.describe(),
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
                entry.candidate.describe(),
                entry.analytic_cycles
            );
        }
        s
    }
}

/// A scored candidate (stable sorts break `cycles` ties in consideration order).
struct Scored {
    candidate: MappingCandidate,
    cycles: u64,
}

/// Shape fingerprint, the verdict memo's key: candidates that resolve to
/// one effective mapping (e.g. two replication caps above the packable
/// VN count) share it. The dense CONV key is exact: VN size and count fix
/// the packed ranges, and with the fault plan the ART; the gate's ledger
/// and `ConvMapper::cost` read nothing it omits. Every candidate of one
/// search carries the spec's bandwidth pair, so the key leaves it out.
type Fingerprint = [u64; 6];

/// What the gate and `score` decided for a shape's first candidate.
enum Verdict {
    Rejected,
    Scored,
}

/// The candidate loop's counters, verdict memo and scored candidates.
#[derive(Default)]
struct Tally {
    counters: SearchCounters,
    verdicts: BTreeMap<Fingerprint, Verdict>,
    scored: Vec<Scored>,
}

/// The candidate loop's body, one candidate at a time.
type Consider = fn(&mut Tally, &SearchSpec, Option<&WeightMask>, MappingCandidate);

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
    let (heuristic_cycles, _) = score(spec, mask, &heuristic_candidate)?;

    let mut tally = Tally::default();
    for cand in enumerate(spec) {
        consider(&mut tally, spec, mask, cand);
    }

    // The frontier by analytic rank, joined by the heuristic point.
    let (mut counters, mut scored) = (tally.counters, tally.scored);
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
        if let Some(cycles) = validate(spec, &entry.candidate) {
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
        heuristic,
        best,
        frontier,
        counters,
    })
}

impl Tally {
    /// Takes one candidate through the loop: a dense CONV shape's first
    /// verdict is recorded, and its later candidates replay it.
    fn consider(&mut self, spec: &SearchSpec, mask: Option<&WeightMask>, cand: MappingCandidate) {
        let counters = &mut self.counters;
        counters.enumerated += 1;
        let key = shape_fingerprint(spec, &cand);
        if let Some(verdict) = key.and_then(|k| self.verdicts.get(&k)) {
            counters.pruned += 1;
            counters.statically_rejected += u64::from(matches!(verdict, Verdict::Rejected));
            return;
        }
        // Static pre-score gate, once per shape: candidates the verifier
        // proves illegal skip the analytic model. Scoring would reject
        // every one too, so `pruned`/`scored` (and the report text
        // derived from them) are byte-identical with the gate off.
        if statically_reject(&spec.base, &verify_layer(spec, mask), &cand).is_some() {
            counters.pruned += 1;
            counters.statically_rejected += 1;
            if let Some(k) = key {
                self.verdicts.insert(k, Verdict::Rejected);
            }
            return;
        }
        match score(spec, mask, &cand) {
            Err(_) => counters.pruned += 1,
            Ok((cycles, fp)) => {
                debug_assert!(key.is_none_or(|k| k == fp), "shape {key:?}, plan {fp:?}");
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
/// gate and without an ART; `None` for other kinds and for candidates
/// whose config or shape fails, which take the full path.
fn shape_fingerprint(spec: &SearchSpec, cand: &MappingCandidate) -> Option<Fingerprint> {
    let (SearchLayer::Conv(l), CandidateKind::Conv(m)) = (&spec.layer, cand.kind) else {
        return None;
    };
    let mapper = ConvMapper::new(cand.config(&spec.base).ok()?);
    let shape = mapper.shape(l, VnPolicy::Explicit(m)).ok()?;
    Some([
        shape.vn_size as u64,
        shape.num_vns as u64,
        shape.channel_tile as u64,
        shape.subfold as u64,
        shape.loop_order.row_groups(shape.num_vns, l),
        0,
    ])
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
fn heuristic_candidate(spec: &SearchSpec, mask: Option<&WeightMask>) -> Result<MappingCandidate> {
    let base = &spec.base;
    let kind = match &spec.layer {
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
    };
    Ok(MappingCandidate::with_base_bandwidth(kind, base))
}

/// Analytic score plus shape fingerprint. An `Err` marks the candidate
/// infeasible (pruned).
fn score(
    spec: &SearchSpec,
    mask: Option<&WeightMask>,
    cand: &MappingCandidate,
) -> Result<(u64, Fingerprint)> {
    let cfg = cand.config(&spec.base)?;
    match (&spec.layer, cand.kind) {
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

/// Exact clocked-trace cycles for candidates that have one.
fn validate(spec: &SearchSpec, cand: &MappingCandidate) -> Option<u64> {
    if let (SearchLayer::Conv(l), CandidateKind::Conv(m)) = (&spec.layer, cand.kind) {
        let cfg = cand.config(&spec.base).ok()?;
        let trace = simulate_conv_layer(&cfg, l, VnPolicy::Explicit(m)).ok()?;
        Some(trace.cycles.as_u64())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::fault::FaultSpec;
    use maeri::{ArtConfig, MaeriConfig, PlanError};
    use maeri_dnn::ConvLayer;
    use maeri_sim::SimRng;
    use maeri_verify::VerifyError;
    use std::collections::btree_map::Entry;

    /// The candidate loop before the verdict memo: the gate and `score`
    /// on every candidate, with `verdicts` only as the set of scored
    /// fingerprints (`seen`).
    fn consider_unmemoized(
        tally: &mut Tally,
        spec: &SearchSpec,
        mask: Option<&WeightMask>,
        cand: MappingCandidate,
    ) {
        let counters = &mut tally.counters;
        counters.enumerated += 1;
        if statically_reject(&spec.base, &verify_layer(spec, mask), &cand).is_some() {
            counters.pruned += 1;
            counters.statically_rejected += 1;
            return;
        }
        match score(spec, mask, &cand) {
            Err(_) => counters.pruned += 1,
            Ok((cycles, fp)) => {
                if tally.verdicts.insert(fp, Verdict::Scored).is_none() {
                    counters.scored += 1;
                    tally.scored.push(Scored {
                        candidate: cand,
                        cycles,
                    });
                } else {
                    counters.pruned += 1;
                }
            }
        }
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
        let mut refused: BTreeMap<Fingerprint, usize> = BTreeMap::new();
        for cand in enumerate(spec) {
            let verdict = statically_reject(&spec.base, &verify_layer(spec, None), &cand);
            if let (Some(key), Some(VerifyError::Plan(PlanError::Partition(_)))) =
                (shape_fingerprint(spec, &cand), verdict)
            {
                *refused.entry(key).or_default() += 1;
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
            let memoized = search(&spec);
            assert_eq!(
                memoized,
                search_with(&spec, consider_unmemoized),
                "case {case}: {spec:?}"
            );
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
    fn a_fingerprint_decides_the_verdict_and_the_cost() {
        let mut rng = SimRng::seed(22);
        let (mut repeats, mut refused) = (0, 0);
        for case in 0..200 {
            let spec = random_spec(&mut rng, case);
            let SearchLayer::Conv(layer) = &spec.layer else {
                unreachable!("random_spec draws dense CONV layers")
            };
            let mut groups = BTreeMap::new();
            for cand in enumerate(&spec) {
                let (CandidateKind::Conv(m), Ok(cfg)) = (cand.kind, cand.config(&spec.base)) else {
                    continue;
                };
                let mapper = ConvMapper::new(cfg);
                let policy = VnPolicy::Explicit(m);
                let plan = mapper.plan(layer, policy);
                // `plan` is `shape` plus the ART of its ranges.
                match mapper.shape(layer, policy) {
                    Err(err) => assert_eq!(plan.as_ref().err(), Some(&err)),
                    Ok(shape) => {
                        let art = ArtConfig::build_with_faults(
                            cfg.collection_chubby(),
                            &shape.ranges,
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
                                assert_eq!(plan.art.vns(), shape.ranges.as_slice());
                            }
                            (Err(err), Err(art)) => {
                                assert_eq!(err, &PlanError::Partition(art));
                                refused += 1;
                            }
                            (plan, art) => panic!("case {case}: plan {plan:?}, ART {art:?}"),
                        }
                    }
                }
                let Some(key) = shape_fingerprint(&spec, &cand) else {
                    continue;
                };
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
