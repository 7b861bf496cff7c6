//! Baseline accelerators the MAERI paper compares against.
//!
//! Three comparators, each a documented cycle/traffic model at the same
//! abstraction level as the MAERI mappers:
//!
//! * [`systolic::SystolicArray`] — a TPU-style weight-stationary
//!   systolic array (Figures 12 and 17),
//! * [`row_stationary::RowStationary`] — an Eyeriss-style row-stationary
//!   spatial array (Figure 12),
//! * [`cluster::FixedClusterArray`] — an SCNN-style accelerator built
//!   from fixed 4x4 PE clusters with internal adder trees on a shared
//!   bus (Figures 13 and 14).
//!
//! All three reuse [`maeri::engine::RunStats`] so results are directly
//! comparable with the MAERI mappers.
//!
//! # Example
//!
//! ```
//! use maeri_baselines::systolic::SystolicArray;
//! use maeri_dnn::zoo;
//!
//! // The paper's Figure 17 walk-through: 156 cycles on an 8x8 array
//! // (the paper assumes the SRAM sustains all 16 streams).
//! let sa = SystolicArray::unconstrained(8, 8);
//! let run = sa.run_conv(&zoo::fig17_example());
//! assert_eq!(run.cycles.as_u64(), 156);
//! assert_eq!(run.sram_reads, 1323);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod row_stationary;
pub mod systolic;

pub use cluster::FixedClusterArray;
pub use row_stationary::RowStationary;
pub use systolic::SystolicArray;
