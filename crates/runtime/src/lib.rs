//! # maeri-runtime — parallel batch execution for the MAERI simulator
//!
//! Every evaluation in the paper (Figs. 11-17, Table 3) is a *sweep*:
//! many `(fabric config, layer, mapper policy)` points. The simulator
//! crates expose one-point functions; this crate turns them into a
//! service-shaped execution engine:
//!
//! * [`SimJob`] describes one simulation request — fabric config,
//!   workload and mapper policy;
//! * a worker pool built on `std::thread` + channels runs jobs behind a
//!   bounded queue with graceful shutdown and **panic isolation**: a
//!   panicking job is reported as a failed [`JobResult`], never a
//!   crashed process;
//! * every job runs exactly once: jobs are pure, so re-running a
//!   failure would only reproduce it. A per-request deadline
//!   ([`Runtime::run_one_with_deadline`]) runs the job on a watchdog
//!   thread and abandons it past the deadline as
//!   [`JobError::TimedOut`] instead of hanging the caller;
//! * a deterministic in-memory cache keyed by a content hash of the job
//!   ([`JobKey`]) computes identical points once, across batches and
//!   across callers sharing a [`Runtime`];
//! * [`RuntimeMetrics`] declares each counter (jobs submitted,
//!   executed and failed, cache hits, timeouts, queue high-water,
//!   telemetry and search counts) once, in a
//!   [`maeri_telemetry::metric_table!`], and logs the wall time of each
//!   named batch or noted phase;
//! * the traced entry point
//!   [`Runtime::run_one_traced_with_deadline`] additionally returns how
//!   long an executed job ran (`None` for a cache hit), so the serving
//!   layer's flight recorder can draw one classified
//!   ([`AttemptOutcome`]) attempt span per executed dispatch.
//!
//! Determinism is a hard guarantee: [`Runtime::run_batch`] returns
//! results **ordered by job index, never by completion order**, and
//! every job executes a pure function of its description, so a batch
//! run with one worker is byte-identical (see
//! [`SimOutput::canonical_text`]) to the same batch with N workers.
//!
//! # Quick start
//!
//! ```
//! use maeri::{MaeriConfig, VnPolicy};
//! use maeri_dnn::ConvLayer;
//! use maeri_runtime::{Runtime, SimJob};
//!
//! let runtime = Runtime::new(2);
//! let layer = ConvLayer::new("conv", 3, 32, 32, 16, 3, 3, 1, 1);
//! let jobs = vec![
//!     SimJob::dense_conv(MaeriConfig::paper_64(), layer.clone(), VnPolicy::Auto),
//!     SimJob::systolic_conv(8, 8, 8, layer),
//! ];
//! let results = runtime.run_batch(&jobs);
//! let maeri = results[0].as_ref().unwrap().run_stats().unwrap();
//! let systolic = results[1].as_ref().unwrap().run_stats().unwrap();
//! assert!(maeri.utilization() >= systolic.utilization());
//! assert_eq!(runtime.metrics().executed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod job;
mod metrics;
mod output;
mod pool;
mod runtime;
mod supervise;

pub use cache::ResultCache;
pub use job::{JobKey, SimJob};
pub use metrics::{MetricsSnapshot, PhaseStats, RuntimeMetrics};
pub use output::{canonical_result_text, JobError, JobResult, SimOutput, TelemetryRun};
pub use runtime::Runtime;
pub use supervise::AttemptOutcome;
