//! Network-on-chip substrate for the MAERI reproduction.
//!
//! MAERI's contribution is a pair of specialized tree NoCs. This crate
//! provides the topology math and the comparative models they are
//! evaluated against:
//!
//! * [`topology::BinaryTree`] — complete-binary-tree node arithmetic
//!   (levels, parents, subtrees) shared by the distribution tree and the
//!   Augmented Reduction Tree,
//! * [`chubby::ChubbyTree`] — the paper's "chubby" bandwidth profile:
//!   wide links near the root, tapering to 1x below a configurable level,
//! * [`reduction`] — utilization models of ART vs. fat tree vs. fixed
//!   plain adder trees (Figure 15),
//! * [`ppa`] — analytical area/power of the MAERI trees vs. mesh,
//!   crossbar and bus NoCs (Figure 16).
//!
//! # Example
//!
//! ```
//! use maeri_noc::topology::BinaryTree;
//!
//! let tree = BinaryTree::with_leaves(16)?;
//! assert_eq!(tree.num_nodes(), 31);
//! assert_eq!(tree.levels(), 5); // root level 0 .. leaf level 4
//! # Ok::<(), maeri_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chubby;
pub mod ppa;
pub mod reduction;
pub mod topology;

pub use chubby::ChubbyTree;
pub use topology::BinaryTree;
