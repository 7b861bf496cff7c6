//! Static legality verification for MAERI mappings (`maeri-verify`).
//!
//! MAERI's central claim (Sections 4–5 of the paper) is that the ART's
//! forwarding and chubby links make arbitrary contiguous virtual-neuron
//! reductions *non-blocking*. The simulator checks this dynamically, by
//! clocking a full trace; this crate proves the same legality
//! invariants **statically** — given only a [`maeri::MaeriConfig`], an
//! optional [`maeri::fault::FaultPlan`], and a VN partition or
//! [`maeri::MappingCandidate`], without clocking a single cycle:
//!
//! 1. **VN contiguity** over the multiplier leaves (ranges in bounds,
//!    pairwise disjoint),
//! 2. **ART link exclusivity** for the induced reduction forest across
//!    all levels, including forwarding links and chubby links,
//! 3. **bandwidth feasibility** per level of both the distribution and
//!    the collection network,
//! 4. **MAC conservation** (every weight×input pair assigned exactly
//!    once, none dropped on trailing idle switches),
//! 5. **fault consistency** (no VN cell on a dead multiplier, dead
//!    adder subtree, or severed forwarding link).
//!
//! Violations come back as structured values carrying a minimal
//! counterexample — the level, node ids, and conflicting VN pair —
//! never as a bare boolean.
//!
//! The crate keeps no copy of the mappers' algorithms: invariants 1, 2
//! and 5 are decided by building the ART with the one VN-construction
//! walk ([`maeri::art::ArtConfig::build_with_faults`]), whose conflicts
//! come back as [`maeri::ArtError`], and a candidate is verified on the
//! mapper's own plan, whose refusals come back as
//! [`VerifyError::Plan`]. Invariant 4 is the ledger over that plan.
//!
//! The verifier is wired in three places: `maeri-mapspace` uses
//! [`statically_reject`] as a pre-score prune gate, `maeri-runtime`
//! rejects illegal jobs early with `JobError::InvalidMapping`, and
//! `tests/differential.rs` checks the walk against an independent
//! oracle (legality from the ranges and fault plan alone, exact sums
//! from the replay) over exhaustive small fabrics and seeded samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod error;
pub mod partition;

pub use candidate::{statically_reject, verify_mapping, MappingReport, VerifyLayer};
pub use error::{Network, VerifyError};
pub use partition::{
    verify_partition, verify_reduction, LevelLoad, PartitionReport, ReductionReport,
};
