//! Simulation kernel for the MAERI reproduction.
//!
//! This crate provides the shared, accelerator-agnostic substrate used by
//! every other crate in the workspace:
//!
//! * [`Cycle`] — a newtype for cycle counts with saturating arithmetic,
//! * [`Stats`] — named event counters gathered during a simulation run,
//! * [`SimRng`] — a deterministic, seedable random-number generator so
//!   every experiment is reproducible bit-for-bit,
//! * [`table::Table`] — plain-text table rendering used by the figure
//!   binaries in `maeri-bench`,
//! * [`catalog!`] — closed enum catalogs whose `ALL` list and stable
//!   names are complete by construction.
//!
//! # Example
//!
//! ```
//! use maeri_sim::{Cycle, Stats};
//!
//! let mut stats = Stats::new();
//! stats.add("sram_reads", 516);
//! stats.add("sram_reads", 10);
//! assert_eq!(stats.get("sram_reads"), 526);
//!
//! let a = Cycle::new(100);
//! let b = a + Cycle::new(43);
//! assert_eq!(b.as_u64(), 143);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod cycle;
mod error;
mod rng;
mod stats;

pub mod histogram;
pub mod table;
pub mod util;

pub use cycle::Cycle;
pub use error::SimError;
pub use rng::SimRng;
pub use stats::Stats;

/// Result alias used across the simulation crates (errors default to
/// [`SimError`]).
pub type Result<T, E = SimError> = std::result::Result<T, E>;
