//! Structured verification errors carrying minimal counterexamples.
//!
//! A violation is never reported as a bare boolean or prose string: each
//! variant names the level, node ids, and conflicting VN pair (or the
//! offending knob and its bounds) that demonstrate the illegality, so a
//! failed verification is directly actionable and testable. A candidate
//! the mapper cannot plan is the mapper's own [`PlanError`], wrapped
//! unchanged in [`VerifyError::Plan`]; a partition conflict inside it
//! is the ART builder's [`maeri::ArtError`].

use std::fmt;

use maeri::PlanError;

/// A statically proven legality violation.
///
/// The variants cover the four invariants of the paper that decide
/// legality (see DESIGN.md section 11):
///
/// - VN contiguity and disjointness over the multiplier leaves (1), ART
///   link exclusivity for the induced reduction forest (2) and fault
///   consistency (5) are the ART builder's own checks. Inside a
///   candidate they surface as [`PlanError::Partition`] under
///   [`VerifyError::Plan`], as do the knob bounds and the fully faulty
///   fabric the mapper refuses before any partition exists.
/// - MAC conservation (4) is [`VerifyError::MacMismatch`].
///
/// Per-level bandwidth (3) is a cost the mappers charge, not a legality
/// test, so no variant reports it.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The mapper refuses to plan the candidate.
    Plan(PlanError),
    /// Invariant 4: the plan assigns `assigned` of the `expected`
    /// units of work (each weight×input pair must be assigned exactly
    /// once; trailing idle switches drop none).
    MacMismatch {
        /// Units the layer defines.
        expected: u64,
        /// Units the plan assigns.
        assigned: u64,
        /// What is being counted (e.g. `"conv channel tiling"`).
        unit: &'static str,
    },
    /// The candidate kind does not match the layer kind.
    KindMismatch {
        /// The candidate's kind label.
        candidate: &'static str,
        /// The layer's kind label.
        layer: &'static str,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Plan(err) => err.fmt(f),
            VerifyError::MacMismatch {
                expected,
                assigned,
                unit,
            } => write!(
                f,
                "{unit} assigns {assigned} of {expected} weight-input pairs"
            ),
            VerifyError::KindMismatch { candidate, layer } => {
                write!(f, "candidate kind {candidate} does not match {layer} layer")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<PlanError> for VerifyError {
    fn from(err: PlanError) -> Self {
        VerifyError::Plan(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::ArtError;

    #[test]
    fn displays_are_stable() {
        let cases: Vec<(VerifyError, &str)> = vec![
            (
                VerifyError::Plan(PlanError::Partition(ArtError::OutOfRange {
                    vn: 2,
                    start: 60,
                    end: 68,
                    leaves: 64,
                })),
                "vn 2 covers leaves 60..68, out of range 0..64",
            ),
            (
                VerifyError::Plan(PlanError::Partition(ArtError::Overlap {
                    first_vn: 0,
                    second_vn: 1,
                    leaf: 4,
                })),
                "vn 0 and vn 1 both cover leaf 4",
            ),
            (
                VerifyError::Plan(PlanError::Partition(ArtError::DeadLeaf { vn: 3, leaf: 17 })),
                "vn 3 covers dead multiplier switch 17",
            ),
            (
                VerifyError::Plan(PlanError::KnobOutOfRange {
                    knob: "channel_tile",
                    value: 99,
                    min: 1,
                    max: 3,
                }),
                "channel_tile 99 out of range 1..=3",
            ),
            (
                VerifyError::KindMismatch {
                    candidate: "lstm",
                    layer: "fc",
                },
                "candidate kind lstm does not match fc layer",
            ),
            (
                VerifyError::MacMismatch {
                    expected: 4096,
                    assigned: 3072,
                    unit: "fc folding",
                },
                "fc folding assigns 3072 of 4096 weight-input pairs",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }
}
