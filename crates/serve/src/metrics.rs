//! Service-level metrics: one declared table of every `stats` value,
//! rendered both as the `stats` JSON object and as Prometheus text.
//!
//! These sit one layer above [`maeri_runtime::RuntimeMetrics`]: the
//! runtime counts what *executed*, this module counts what was
//! *requested* — including jobs that never reached the runtime because
//! admission control rejected them or the persistent store answered.
//!
//! Each row of the table ([`ROWS`]) names one metric once: its field
//! name, which is also its `stats` key; its Prometheus kind and family,
//! with an optional fixed label; and its help text. Counted rows are
//! [`ServiceMetrics`] atomics, bumped on the request path; sampled rows
//! are read when a snapshot is taken. [`ServiceSnapshot`] keeps one
//! named `u64` per row, and [`ServiceSnapshot::rows`] walks them in
//! table order for both [`ServiceSnapshot::to_json`] and
//! [`crate::service::Service::prometheus`], so a metric cannot reach
//! one output and miss the other.
//!
//! Wall-clock latencies are real time and therefore nondeterministic;
//! they are exposed only through the live `stats` and `metrics` verbs,
//! never in byte-stable reports (the `service_load` report uses the
//! virtual-time [`crate::loadsim`] instead). Their quantiles cover the
//! last [`LATENCY_WINDOW`] to `2 * LATENCY_WINDOW` completions (a
//! [`WindowedHistogram`]), so memory and the cost of a `stats` read
//! stay bounded however long the service runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use maeri_runtime::CacheStats;
use maeri_sim::histogram::Histogram;
use maeri_telemetry::json::JsonValue;

use crate::recorder::FlightRecorder;
use crate::registry::{MetricKind, WindowedHistogram};
use crate::store::ResultStore;

/// Completions per latency window: the quantiles in `stats` read the
/// current window plus the previous full one.
pub const LATENCY_WINDOW: usize = 1024;

/// One declared service metric: its `stats` key and its Prometheus
/// sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRow {
    /// The `stats` key, which is also the [`ServiceSnapshot`] field.
    pub key: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The Prometheus family the sample belongs to.
    pub family: &'static str,
    /// The sample's fixed label, when several rows share a family.
    pub label: Option<(&'static str, &'static str)>,
    /// The family's `# HELP` text.
    pub help: &'static str,
}

/// Declares the metric table: the [`ServiceMetrics`] atomics (one per
/// counted row), the [`ServiceSnapshot`] fields and their load, and
/// [`ROWS`]. Sampled rows carry the expression that reads them, over
/// the arguments named in the `sampled(..)` header.
macro_rules! service_metrics {
    (@label) => { None };
    (@label $key:ident $value:literal) => { Some((stringify!($key), $value)) };
    (@row $key:ident $kind:ident $family:literal $help:literal $($lk:ident $lv:literal)?) => {
        MetricRow {
            key: stringify!($key),
            kind: MetricKind::$kind,
            family: $family,
            label: service_metrics!(@label $($lk $lv)?),
            help: $help,
        }
    };
    (
        $(#[$table_attr:meta])*
        counted {
            $($c_key:ident: $c_kind:ident $c_family:literal $({ $c_lk:ident = $c_lv:literal })?
                => $c_help:literal,)+
        }
        sampled($($arg:ident: $arg_ty:ty),+) {
            $($s_key:ident: $s_kind:ident $s_family:literal $({ $s_lk:ident = $s_lv:literal })?
                => $s_help:literal = $s_value:expr,)+
        }
    ) => {
        /// Shared atomic counters for one service instance (one per
        /// counted row of [`ROWS`]), plus the windowed latency histogram.
        #[derive(Debug)]
        pub struct ServiceMetrics {
            $(#[doc = $c_help] pub $c_key: AtomicU64,)+
            latency_us: Mutex<WindowedHistogram>,
        }

        impl ServiceMetrics {
            /// Creates zeroed metrics.
            #[must_use]
            pub fn new() -> Self {
                ServiceMetrics {
                    $($c_key: AtomicU64::new(0),)+
                    latency_us: Mutex::new(WindowedHistogram::new(LATENCY_WINDOW)),
                }
            }

            fn read(&self, $($arg: $arg_ty),+) -> ServiceSnapshot {
                ServiceSnapshot {
                    $($c_key: self.$c_key.load(Ordering::Relaxed),)+
                    $($s_key: $s_value,)+
                }
            }
        }

        /// A point-in-time copy of every row of [`ROWS`].
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ServiceSnapshot {
            $(#[doc = $c_help] pub $c_key: u64,)+
            $(#[doc = $s_help] pub $s_key: u64,)+
        }

        impl ServiceSnapshot {
            /// Every row of [`ROWS`] with its value, in table order.
            pub fn rows(&self) -> impl Iterator<Item = (&'static MetricRow, u64)> {
                ROWS.iter().zip([$(self.$c_key,)+ $(self.$s_key,)+])
            }
        }

        $(#[$table_attr])*
        pub static ROWS: [MetricRow; [$(stringify!($c_key),)+ $(stringify!($s_key),)+].len()] = [
            $(service_metrics!(@row $c_key $c_kind $c_family $c_help $($c_lk $c_lv)?),)+
            $(service_metrics!(@row $s_key $s_kind $s_family $s_help $($s_lk $s_lv)?),)+
        ];
    };
}

service_metrics! {
    /// Every service metric, declared once, in `stats` key order. Rows
    /// sharing a family share its kind and help text.
    ///
    /// The per-tenant SLO families and `maeri_slo_target_p99_us`
    /// ([`crate::registry::SloTracker::expose`]) are exposition-only:
    /// a flat `stats` object cannot carry a tenant label whose values
    /// are only known at run time.
    counted {
        submitted: Counter "maeri_submitted_total"
            => "Submit requests received, including rejected ones.",
        admitted: Counter "maeri_admitted_total"
            => "Jobs accepted into the queue or answered from the store.",
        rejected_backpressure: Counter "maeri_rejected_total" { cause = "backpressure" }
            => "Submits rejected, by cause.",
        rejected_invalid: Counter "maeri_rejected_total" { cause = "invalid" }
            => "Submits rejected, by cause.",
        rejected_circuit: Counter "maeri_rejected_total" { cause = "circuit_open" }
            => "Submits rejected, by cause.",
        store_hits: Counter "maeri_store_hits_total"
            => "Jobs answered from the persistent store at admission.",
        completed: Counter "maeri_completed_total"
            => "Jobs that ran to a successful result.",
        failed: Counter "maeri_failed_total"
            => "Jobs that ran to a structured error.",
        timeouts: Counter "maeri_timeouts_total"
            => "Watchdog or deadline timeouts (a subset of failed).",
        store_put_errors: Counter "maeri_store_put_errors_total"
            => "Persistent-store appends that failed.",
        journal_appends: Counter "maeri_journal_appends_total"
            => "Durable write-ahead journal appends.",
        journal_append_errors: Counter "maeri_journal_append_errors_total"
            => "Journal appends that failed.",
        breaker_opened: Counter "maeri_breaker_transitions_total" { to = "open" }
            => "Circuit-breaker transitions, by the state entered.",
        breaker_half_open: Counter "maeri_breaker_transitions_total" { to = "half_open" }
            => "Circuit-breaker transitions, by the state entered.",
        breaker_closed: Counter "maeri_breaker_transitions_total" { to = "closed" }
            => "Circuit-breaker transitions, by the state entered.",
        queue_depth: Gauge "maeri_queue_depth"
            => "Jobs queued or running right now.",
        queue_high_water: Gauge "maeri_queue_high_water"
            => "Queue-depth high-water mark.",
        store_recovered_entries: Gauge "maeri_store_recovered_entries"
            => "Store entries replayed from disk at start.",
        store_truncated_bytes: Gauge "maeri_store_truncated_bytes"
            => "Bytes of torn store tail trimmed at start.",
        store_skipped_entries: Gauge "maeri_store_skipped_entries"
            => "Corrupt store entries skipped at start.",
        journal_orphans_replayed: Gauge "maeri_journal_orphans_replayed"
            => "Orphaned journal admits re-enqueued at start.",
        journal_recovered_from_store: Gauge "maeri_journal_recovered_from_store"
            => "Orphaned journal admits answered from the store at start.",
        journal_truncated_bytes: Gauge "maeri_journal_truncated_bytes"
            => "Bytes of torn journal tail trimmed at start.",
        journal_skipped_records: Gauge "maeri_journal_skipped_records"
            => "Corrupt or unrunnable journal records skipped at start.",
    }
    sampled(
        latency: &mut Histogram,
        cache: CacheStats,
        store: Option<&ResultStore>,
        recorder: Option<&FlightRecorder>
    ) {
        latency_p50_us: Gauge "maeri_latency_us" { quantile = "0.5" }
            => "Wall completion latency percentiles, microseconds."
            = latency.percentile(50.0).unwrap_or(0),
        latency_p99_us: Gauge "maeri_latency_us" { quantile = "0.99" }
            => "Wall completion latency percentiles, microseconds."
            = latency.percentile(99.0).unwrap_or(0),
        latency_p999_us: Gauge "maeri_latency_us" { quantile = "0.999" }
            => "Wall completion latency percentiles, microseconds."
            = latency.percentile(99.9).unwrap_or(0),
        cache_hits: Counter "maeri_cache_hits_total"
            => "Runtime result-cache hits." = cache.hits,
        cache_misses: Counter "maeri_cache_misses_total"
            => "Runtime result-cache misses." = cache.misses,
        cache_entries: Gauge "maeri_cache_entries"
            => "Results in the runtime result cache." = cache.entries as u64,
        store_entries: Gauge "maeri_store_entries"
            => "Results in the persistent store." = store.map_or(0, |s| s.len() as u64),
        recorder_spans: Gauge "maeri_recorder_spans"
            => "Spans currently held in the flight-recorder ring."
            = recorder.map_or(0, |r| r.len() as u64),
        recorder_dropped: Counter "maeri_recorder_dropped_total"
            => "Spans evicted from the flight-recorder ring."
            = recorder.map_or(0, FlightRecorder::dropped),
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// Notes a job entering the queue.
    pub fn job_queued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Notes a queued job finishing (successfully or not).
    pub fn job_finished(&self, latency_us: u64) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.latency_us
            .lock()
            .expect("latency mutex poisoned")
            .record(latency_us);
    }

    /// A point-in-time snapshot: every counter, plus the sampled rows
    /// read from the latency window, the runtime cache, the store
    /// (`None` when memory-only) and the flight recorder (`None` when
    /// tracing is off).
    #[must_use]
    pub fn snapshot(
        &self,
        cache: CacheStats,
        store: Option<&ResultStore>,
        recorder: Option<&FlightRecorder>,
    ) -> ServiceSnapshot {
        let mut latency = self
            .latency_us
            .lock()
            .expect("latency mutex poisoned")
            .merged();
        self.read(&mut latency, cache, store, recorder)
    }
}

impl ServiceSnapshot {
    /// Fraction of submits answered without simulating: persistent-store
    /// hits plus runtime-cache hits, over submits. `None` before any
    /// submit.
    #[must_use]
    pub fn service_hit_rate(&self) -> Option<f64> {
        if self.submitted == 0 {
            return None;
        }
        let hits = self.store_hits + self.cache_hits;
        Some(hits as f64 / self.submitted as f64)
    }

    /// The snapshot as a JSON object, one key per row (the `stats` wire
    /// response).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.rows()
                .map(|(row, value)| (row.key.to_owned(), JsonValue::UInt(value)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_tracks_high_water() {
        let m = ServiceMetrics::new();
        m.job_queued();
        m.job_queued();
        m.job_queued();
        m.job_finished(10);
        m.job_finished(20);
        let snap = m.snapshot(CacheStats::default(), None, None);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_high_water, 3);
        assert_eq!(snap.latency_p50_us, 10);
        assert_eq!(snap.latency_p99_us, 20);
    }

    #[test]
    fn hit_rate_counts_store_and_cache() {
        let m = ServiceMetrics::new();
        m.submitted.store(10, Ordering::Relaxed);
        m.store_hits.store(4, Ordering::Relaxed);
        let cache = CacheStats {
            hits: 1,
            misses: 5,
            entries: 5,
        };
        let snap = m.snapshot(cache, None, None);
        assert!((snap.service_hit_rate().unwrap() - 0.5).abs() < 1e-12);
        let rendered = snap.to_json().render();
        assert!(rendered.contains("\"store_hits\":4"));
        assert!(rendered.contains("\"cache_entries\":5"));
    }

    #[test]
    fn latency_quantiles_see_only_the_recent_windows() {
        let m = ServiceMetrics::new();
        let held = || m.latency_us.lock().unwrap().len();
        // One window of slow completions, then two of fast ones: the
        // slow window must age out, and memory never exceeds two
        // windows.
        for window in 0..3u64 {
            for i in 0..LATENCY_WINDOW as u64 {
                m.job_queued();
                m.job_finished(if window == 0 { 1_000_000 + i } else { 1 + i });
                assert!(held() <= 2 * LATENCY_WINDOW);
            }
        }
        assert_eq!(held(), 2 * LATENCY_WINDOW);
        let snap = m.snapshot(CacheStats::default(), None, None);
        assert!(
            snap.latency_p999_us <= LATENCY_WINDOW as u64,
            "the slow window aged out"
        );
        assert_eq!(snap.latency_p50_us, LATENCY_WINDOW as u64 / 2);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn rows_of_one_family_agree_on_kind_and_help() {
        for row in &ROWS {
            let twins: Vec<&MetricRow> = ROWS.iter().filter(|r| r.family == row.family).collect();
            assert!(
                twins
                    .iter()
                    .all(|t| t.kind == row.kind && t.help == row.help),
                "family `{}` is declared with two kinds or help texts",
                row.family
            );
            assert_eq!(
                twins.len() > 1,
                row.label.is_some(),
                "`{}`: a shared family needs a label on every row, a lone one none",
                row.key
            );
        }
    }
}
