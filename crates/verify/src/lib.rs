//! Static legality verification for MAERI mappings (`maeri-verify`).
//!
//! MAERI's central claim (Sections 4–5 of the paper) is that the ART's
//! forwarding and chubby links make arbitrary contiguous virtual-neuron
//! reductions *non-blocking*. The simulator checks this dynamically, by
//! clocking a full trace; this crate decides the same legality
//! **statically** — given only a [`maeri::MaeriConfig`] (with its
//! optional fault spec and bandwidth pair), a layer and the
//! [`maeri::CandidateKind`] knobs of a mapping, without clocking a
//! single cycle. The paper's invariants are:
//!
//! 1. **VN contiguity** over the multiplier leaves (ranges in bounds,
//!    pairwise disjoint),
//! 2. **ART link exclusivity** for the induced reduction forest across
//!    all levels, including forwarding links and chubby links,
//! 3. **per-level bandwidth** of the distribution and collection trees,
//! 4. **MAC conservation** (every weight×input pair assigned exactly
//!    once, none dropped on trailing idle switches),
//! 5. **fault consistency** (no VN cell on a dead multiplier, dead
//!    adder subtree, or severed forwarding link).
//!
//! Invariants 1, 2, 4 and 5 decide legality. Invariant 3 is a cost, not
//! a legality test: a thin chubby link is legal and slower (the 0.25×
//! fabric of Figure 13), and the mappers charge it through
//! [`maeri::art::ArtConfig::throughput_slowdown`] and
//! [`maeri::dist::Distributor`].
//!
//! Violations come back as structured values carrying a minimal
//! counterexample — the level, node ids, and conflicting VN pair —
//! never as a bare boolean.
//!
//! The crate keeps no copy of the mappers' algorithms: a candidate is
//! verified on the mapper's own plan, whose refusals come back as
//! [`VerifyError::Plan`]. Building the plan runs the one
//! VN-construction walk ([`maeri::art::ArtConfig::build_with_faults`]),
//! which decides invariants 1, 2 and 5 and reports a conflict as a
//! [`maeri::ArtError`]. Invariant 4 is the ledger over that plan.
//!
//! [`statically_reject`] is the one entry point. `maeri-mapspace` uses
//! it as a pre-score prune gate, `maeri-runtime` rejects illegal jobs
//! early with `JobError::InvalidMapping`, and `examples/perf` times it.
//! Its plan-level half, [`reject_plan`], checks a plan the caller
//! already built: the dense mapping search plans each candidate once
//! and gates the plan it then costs.
//! `tests/differential.rs` checks the walk against an independent
//! oracle (legality from the ranges and fault plan alone, exact sums
//! from the replay) over exhaustive small fabrics and seeded samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod error;

pub use candidate::{reject_plan, statically_reject, VerifyLayer, VerifyPlan};
pub use error::VerifyError;
