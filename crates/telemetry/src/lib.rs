//! # maeri-telemetry — cycle-level fabric observability
//!
//! The paper's evaluation is entirely about *where cycles go* inside
//! the fabric: distribution-tree bandwidth, ART reduction latency,
//! multiplier utilization under different virtual-neuron partitions.
//! The simulator crates clock those cycles; this crate watches them.
//!
//! The design is a classic probe/sink split:
//!
//! * [`TraceEvent`] is the event vocabulary — everything a clocked
//!   simulation can say about one cycle (words injected, flits dropped,
//!   reduction waves started/completed, stalls);
//! * [`TraceSink`] is the consumer interface. Simulation hot loops are
//!   generic over `S: TraceSink` and call [`TraceSink::emit`], which
//!   checks the sink's compile-time [`TraceSink::ENABLED`] flag
//!   *before* constructing the event. With [`NullSink`] the whole probe
//!   monomorphizes away — a disabled-telemetry run compiles to the same
//!   loop as an uninstrumented one;
//! * [`CountingSink`] tallies events by kind, [`TelemetrySink`]
//!   additionally accumulates the raw material for per-run
//!   [`FabricTelemetry`] aggregates, and [`ChromeTraceSink`] records
//!   the full event stream and exports it as Chrome trace-event JSON
//!   loadable in `chrome://tracing` / `ui.perfetto.dev`.
//!
//! The [`span`] module lifts the same trace-export machinery one
//! level up, from fabric cycles to *service request phases*: a closed
//! [`SpanKind`] catalog (admission → verify → queue wait → dispatch →
//! attempts → persistence → reply), [`SpanRecord`] intervals, a
//! per-job monotonicity validator, and a Chrome export sharing the
//! document shape of [`ChromeTraceSink`]. The serving stack's flight
//! recorder produces those spans; this crate owns their vocabulary so
//! recorder, load simulator, and reports all agree on it.
//!
//! The [`metrics`] module declares counter tables: the
//! [`metric_table!`] macro turns one row per counter into the shared
//! atomics, the snapshot struct and a static row array that every
//! renderer walks. The runtime's job, cache and search counters and
//! the service's request counters are both declared with it, so each
//! reaches JSON and Prometheus text from one declaration.
//!
//! # Example
//!
//! ```
//! use maeri_telemetry::{CountingSink, NullSink, TraceEvent, TraceSink};
//!
//! fn hot_loop<S: TraceSink>(sink: &mut S) {
//!     for cycle in 0..4u64 {
//!         sink.emit(|| TraceEvent::DistIssue { cycle, words: 8 });
//!     }
//! }
//!
//! hot_loop(&mut NullSink); // compiles to nothing
//! let mut counting = CountingSink::new();
//! hot_loop(&mut counting);
//! assert_eq!(counting.count("dist_issue"), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod fabric;
mod sink;

pub mod json;
pub mod metrics;
pub mod span;

pub use chrome::ChromeTraceSink;
pub use event::TraceEvent;
pub use fabric::FabricTelemetry;
pub use sink::{CountingSink, NullSink, TelemetrySink, TraceSink};
pub use span::{SpanKind, SpanRecord};
