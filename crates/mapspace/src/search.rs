//! The prune → score → validate search loop.

use maeri::cycle_sim::simulate_conv_layer;
use maeri::{
    CandidateKind, ConvMapper, ConvMapping, FcMapper, LoopOrder, LstmMapper, MappingCandidate,
    SparseConvMapper, VnPolicy,
};
use maeri_dnn::WeightMask;
use maeri_sim::util::ceil_div;
use maeri_sim::{Result, SimError, SimRng};
use maeri_verify::{statically_reject, VerifyLayer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::space::{enumerate, space_size, SearchLayer, SearchSpec};
use crate::strategy::Strategy;

/// Per-search telemetry: how much of the space was looked at and how
/// well the analytic ranking agreed with the exact trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchCounters {
    /// Candidates the strategy considered (exhaustive: the whole
    /// space; random: the sample; beam: every visited point).
    pub enumerated: u64,
    /// Considered candidates dropped as infeasible or as duplicates of
    /// an already-scored mapping shape.
    pub pruned: u64,
    /// The subset of `pruned` rejected by the static verifier
    /// (`maeri-verify`) before any analytic scoring ran. The gate is
    /// sound: it only rejects candidates scoring would reject too, so
    /// `pruned` and `scored` are unchanged by it — this counter just
    /// records how much scoring work the verifier saved.
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
    /// Strategy label.
    pub strategy: String,
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
            "search {} ({}, {}): space={} considered={} pruned={} scored={} validated={}",
            self.layer,
            self.kind,
            self.strategy,
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

/// A scored candidate with its stable position for tie-breaking.
struct Scored {
    idx: usize,
    candidate: MappingCandidate,
    cycles: u64,
}

/// Shape fingerprint for dedup: candidates that resolve to an
/// identical effective mapping (e.g. two replication caps above the
/// packable VN count) are scored once.
type Fingerprint = [u64; 8];

/// Runs the full search for `spec`.
///
/// # Errors
///
/// Returns [`SimError`] for a degenerate spec (zero `top_k`, zero-
/// sample random strategy, zero-width beam) and propagates failures
/// evaluating the heuristic point (a layer that cannot map at all).
pub fn search(spec: &SearchSpec) -> Result<SearchResult> {
    if spec.top_k == 0 {
        return Err(SimError::invalid_config("search needs top_k >= 1"));
    }
    let mask = match &spec.layer {
        SearchLayer::SparseConv {
            layer,
            zero_fraction,
            mask_seed,
        } => Some(WeightMask::generate(
            layer,
            *zero_fraction,
            &mut SimRng::seed(*mask_seed),
        )),
        _ => None,
    };
    let mask = mask.as_ref();
    let heuristic_candidate = heuristic_candidate(spec, mask)?;
    let (heuristic_cycles, _) = score(spec, mask, &heuristic_candidate)?;

    let mut counters = SearchCounters::default();
    let mut seen: BTreeSet<Fingerprint> = BTreeSet::new();
    let mut scored: Vec<Scored> = Vec::new();
    let consider = |cand: MappingCandidate,
                    counters: &mut SearchCounters,
                    seen: &mut BTreeSet<Fingerprint>,
                    scored: &mut Vec<Scored>|
     -> Option<u64> {
        counters.enumerated += 1;
        // Static pre-score gate: candidates the verifier proves illegal
        // skip the analytic model entirely. Scoring would reject every
        // one of them too, so `pruned`/`scored` (and the report text
        // derived from them) are byte-identical with the gate off.
        if statically_reject(&spec.base, &verify_layer(spec, mask), &cand).is_some() {
            counters.pruned += 1;
            counters.statically_rejected += 1;
            return None;
        }
        match score(spec, mask, &cand) {
            Err(_) => {
                counters.pruned += 1;
                None
            }
            Ok((cycles, fp)) => {
                if seen.insert(fp) {
                    counters.scored += 1;
                    scored.push(Scored {
                        idx: scored.len(),
                        candidate: cand,
                        cycles,
                    });
                } else {
                    counters.pruned += 1;
                }
                Some(cycles)
            }
        }
    };

    match spec.strategy {
        Strategy::Exhaustive => {
            for cand in enumerate(spec) {
                consider(cand, &mut counters, &mut seen, &mut scored);
            }
        }
        Strategy::Random { seed, samples } => {
            if samples == 0 {
                return Err(SimError::invalid_config(
                    "random strategy needs samples >= 1",
                ));
            }
            let all = enumerate(spec);
            let count = samples.min(all.len());
            let picks = SimRng::seed(seed).choose_indices(all.len(), count);
            for i in picks {
                consider(all[i], &mut counters, &mut seen, &mut scored);
            }
        }
        Strategy::Beam { width, rounds } => {
            if width == 0 {
                return Err(SimError::invalid_config("beam strategy needs width >= 1"));
            }
            let mut visited: BTreeSet<[u64; 6]> = BTreeSet::new();
            visited.insert(knob_key(&heuristic_candidate));
            consider(heuristic_candidate, &mut counters, &mut seen, &mut scored);
            let mut beam = vec![heuristic_candidate];
            for _ in 0..rounds {
                let mut fresh = Vec::new();
                for member in &beam {
                    for neighbor in neighbors(spec, member) {
                        if visited.insert(knob_key(&neighbor)) {
                            fresh.push(neighbor);
                        }
                    }
                }
                if fresh.is_empty() {
                    break;
                }
                for cand in fresh {
                    consider(cand, &mut counters, &mut seen, &mut scored);
                }
                let mut ranked: Vec<&Scored> = scored.iter().collect();
                ranked.sort_by_key(|s| (s.cycles, s.idx));
                beam = ranked
                    .into_iter()
                    .take(width)
                    .map(|s| s.candidate)
                    .collect();
            }
        }
    }

    // Top-K frontier by analytic rank, joined by the heuristic point.
    scored.sort_by_key(|s| (s.cycles, s.idx));
    let mut frontier: Vec<CandidateOutcome> = scored
        .iter()
        .take(spec.top_k)
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
        strategy: spec.strategy.label(),
        space: space_size(spec),
        heuristic,
        best,
        frontier,
        counters,
    })
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
    let bwd = cand.dist_bandwidth as u64;
    let bwc = cand.collect_bandwidth as u64;
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
                    bwd,
                    bwc,
                ],
            ))
        }
        (SearchLayer::SparseConv { layer, .. }, CandidateKind::SparseConv { channel_tile }) => {
            let run = SparseConvMapper::new(cfg).run(
                layer,
                mask.expect("sparse search carries a mask"),
                channel_tile,
            )?;
            Ok((
                run.cycles.as_u64(),
                [channel_tile as u64, 0, 0, 0, 0, 1, bwd, bwc],
            ))
        }
        (SearchLayer::Fc(l), CandidateKind::Fc { vn_size }) => {
            let run = FcMapper::new(cfg).run_with_vn_size(l, vn_size)?;
            let fold = ceil_div(l.inputs as u64, vn_size as u64);
            Ok((run.cycles.as_u64(), [fold, 0, 0, 0, 0, 2, bwd, bwc]))
        }
        (SearchLayer::Lstm(l), CandidateKind::Lstm { gate_vn_size }) => {
            let run = LstmMapper::new(cfg).run_with_gate_vn_size(l, gate_vn_size)?;
            let fold = ceil_div((l.input_dim + l.hidden_dim) as u64, gate_vn_size as u64);
            Ok((run.cycles.as_u64(), [fold, 0, 0, 0, 0, 3, bwd, bwc]))
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

/// Stable identity of a candidate's knobs (for the beam's visited set).
fn knob_key(cand: &MappingCandidate) -> [u64; 6] {
    let (tag, a, b, c) = match cand.kind {
        CandidateKind::Conv(m) => (
            0,
            m.channel_tile as u64,
            m.max_vns as u64,
            matches!(m.loop_order, LoopOrder::RowMajor) as u64,
        ),
        CandidateKind::SparseConv { channel_tile } => (1, channel_tile as u64, 0, 0),
        CandidateKind::Fc { vn_size } => (2, vn_size as u64, 0, 0),
        CandidateKind::Lstm { gate_vn_size } => (3, gate_vn_size as u64, 0, 0),
    };
    [
        tag,
        a,
        b,
        c,
        cand.dist_bandwidth as u64,
        cand.collect_bandwidth as u64,
    ]
}

/// Single-knob neighbors of a candidate within the spec's space.
fn neighbors(spec: &SearchSpec, cand: &MappingCandidate) -> Vec<MappingCandidate> {
    let n = spec.base.num_mult_switches();
    let pairs = spec.bandwidth_pairs();
    let mut out = Vec::new();
    let push_kind = |kind: CandidateKind, out: &mut Vec<MappingCandidate>| {
        out.push(MappingCandidate {
            kind,
            dist_bandwidth: cand.dist_bandwidth,
            collect_bandwidth: cand.collect_bandwidth,
        });
    };
    match cand.kind {
        CandidateKind::Conv(m) => {
            let c = match &spec.layer {
                SearchLayer::Conv(l) => l.in_channels,
                _ => m.channel_tile,
            };
            for ct in [m.channel_tile.saturating_sub(1), m.channel_tile + 1] {
                if (1..=c).contains(&ct) && ct != m.channel_tile {
                    push_kind(
                        CandidateKind::Conv(ConvMapping {
                            channel_tile: ct,
                            ..m
                        }),
                        &mut out,
                    );
                }
            }
            for max_vns in [m.max_vns / 2, m.max_vns * 2] {
                if (1..=n).contains(&max_vns) && max_vns != m.max_vns {
                    push_kind(CandidateKind::Conv(ConvMapping { max_vns, ..m }), &mut out);
                }
            }
            let flipped = match m.loop_order {
                LoopOrder::FilterMajor => LoopOrder::RowMajor,
                LoopOrder::RowMajor => LoopOrder::FilterMajor,
            };
            push_kind(
                CandidateKind::Conv(ConvMapping {
                    loop_order: flipped,
                    ..m
                }),
                &mut out,
            );
        }
        CandidateKind::SparseConv { channel_tile } => {
            let c = match &spec.layer {
                SearchLayer::SparseConv { layer, .. } => layer.in_channels,
                _ => channel_tile,
            };
            for ct in [channel_tile.saturating_sub(1), channel_tile + 1] {
                if (1..=c).contains(&ct) && ct != channel_tile {
                    push_kind(CandidateKind::SparseConv { channel_tile: ct }, &mut out);
                }
            }
        }
        CandidateKind::Fc { vn_size } => {
            let d = match &spec.layer {
                SearchLayer::Fc(l) => l.inputs.min(n),
                _ => vn_size,
            };
            for vn in [
                vn_size.saturating_sub(1),
                vn_size + 1,
                vn_size / 2,
                vn_size * 2,
            ] {
                if (1..=d).contains(&vn) && vn != vn_size {
                    push_kind(CandidateKind::Fc { vn_size: vn }, &mut out);
                }
            }
        }
        CandidateKind::Lstm { gate_vn_size } => {
            let d = match &spec.layer {
                SearchLayer::Lstm(l) => (l.input_dim + l.hidden_dim).min(n),
                _ => gate_vn_size,
            };
            for vn in [
                gate_vn_size.saturating_sub(1),
                gate_vn_size + 1,
                gate_vn_size / 2,
                gate_vn_size * 2,
            ] {
                if (1..=d).contains(&vn) && vn != gate_vn_size {
                    push_kind(CandidateKind::Lstm { gate_vn_size: vn }, &mut out);
                }
            }
        }
    }
    // Bandwidth moves: adjacent pairs in the spec's list (or every
    // listed pair when the current one is off-list, e.g. a beam seeded
    // from the base config while exploring a custom bandwidth set).
    let cur = (cand.dist_bandwidth, cand.collect_bandwidth);
    let bw_moves: Vec<(usize, usize)> = match pairs.iter().position(|p| *p == cur) {
        Some(i) => {
            let mut moves = Vec::new();
            if i > 0 {
                moves.push(pairs[i - 1]);
            }
            if i + 1 < pairs.len() {
                moves.push(pairs[i + 1]);
            }
            moves
        }
        None => pairs,
    };
    for (dist_bandwidth, collect_bandwidth) in bw_moves {
        out.push(MappingCandidate {
            kind: cand.kind,
            dist_bandwidth,
            collect_bandwidth,
        });
    }
    out
}
