//! # maeri-serve — a batch-inference simulation service
//!
//! The runtime crate executes sweeps for a single caller; this crate
//! wraps it in a long-running, multi-tenant *service*, the way a
//! shared MAERI evaluation box would actually be operated:
//!
//! * a framed-socket protocol ([`wire`]) — `u32` length-prefixed JSON
//!   frames with `submit` / `poll` / `result` / `stats` / `metrics`
//!   ops over the
//!   existing [`maeri_runtime::SimJob`] vocabulary (conv, fc, lstm,
//!   telemetry trace, mapping search, seeded random layers);
//! * per-tenant fair scheduling and admission control ([`service`]):
//!   round-robin across tenants, a bounded in-flight depth per tenant,
//!   and reject-with-backpressure instead of unbounded queueing;
//! * a `maeri-verify` pre-flight at admission: illegal mappings are
//!   refused before they occupy a queue slot;
//! * a crash-safe, content-addressed persistent result store
//!   ([`store`]): an in-memory index over an append-only log keyed by
//!   [`maeri_runtime::JobKey`] that survives restarts, trims torn
//!   appends, and reports — never panics on — corruption;
//! * a write-ahead admission journal ([`journal`]): every wire-level
//!   submit is written and flushed before its ticket is returned, so
//!   [`service::Service::start`] can replay orphaned jobs after a
//!   process crash — an acknowledged job is never lost. The store and
//!   the journal share one record log (`crates/serve/src/log.rs`): one
//!   framing, one replay, and one append path that refuses what replay
//!   would drop;
//! * per-request deadlines and a per-tenant circuit breaker: wedged
//!   jobs become structured timeouts, and a tenant whose jobs keep
//!   timing out is quarantined until a cooldown probe succeeds;
//! * service metrics ([`metrics`]): one declared table of every
//!   `stats` value — admission counters, queue depth, store/cache
//!   traffic, breaker/journal counters, recovery counts, recorder
//!   occupancy, and windowed wall-latency percentiles — rendered both
//!   as the `stats` JSON and, with the runtime's rows, as Prometheus
//!   samples;
//! * a seeded Poisson traffic generator ([`traffic`]) and a
//!   deterministic virtual-time load simulator ([`loadsim`]) that
//!   drive the `service_load` report and the CI smoke test;
//! * a deterministic chaos harness ([`chaos`]): seeded fault injection
//!   (torn journal tails, corrupted store records, wedged workers,
//!   malformed wire frames, kills around the journal append) behind
//!   the byte-stable `chaos_recovery` report;
//! * a flight recorder ([`recorder`]): per-job request-path trace
//!   spans (admission → verify → queue wait → dispatch/attempts →
//!   persistence → reply, vocabulary in [`maeri_telemetry::span`]) in
//!   a fixed-capacity ring with an eager crash-surviving span log, a
//!   postmortem dump on [`service::Service::crash`], and Chrome-trace
//!   export — off by default and byte-neutral to every report;
//! * a time-series metrics registry ([`registry`]): windowed latency
//!   histograms, per-tenant SLO scoring (deadline-hit rate, windowed
//!   p99 vs target, error-budget burn), and the Prometheus text
//!   exposition served by the `metrics` wire verb.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use maeri_runtime::{Runtime, SimJob};
//! use maeri_serve::service::{ServeConfig, Service};
//!
//! let service = Service::start(ServeConfig::default(), Arc::new(Runtime::new(2))).unwrap();
//! let id = service.submit("tenant0", SimJob::health_check()).unwrap();
//! let result = service.wait(id).unwrap();
//! assert!(result.ok);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod journal;
pub mod loadsim;
mod log;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod server;
pub mod service;
pub mod store;
pub mod traffic;
pub mod wire;

pub use chaos::{ChaosOutcome, FaultPoint};
pub use journal::{AdmitRecord, Journal, JournalRecovery};
pub use metrics::{ServiceMetrics, ServiceSnapshot};
pub use recorder::{FlightRecorder, Postmortem, RecorderConfig, SpanLog};
pub use registry::{MetricsRegistry, SloTracker, TenantSlo, WindowedHistogram};
pub use server::Server;
pub use service::{JobStatus, JobTicket, ServeConfig, Service, SubmitError};
pub use store::{RecoveryReport, ResultStore, StoreError, StoredResult};
pub use wire::{Client, FabricSpec, JobSpec, Request};
