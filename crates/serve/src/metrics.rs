//! Service-level metrics: one declared table of every `stats` value,
//! rendered both as the `stats` JSON object and as Prometheus text.
//!
//! These sit one layer above [`maeri_runtime::RuntimeMetrics`]: the
//! runtime counts what *executed*, this module counts what was
//! *requested* — including jobs that never reached the runtime because
//! admission control rejected them or the persistent store answered.
//!
//! The table ([`ROWS`]) is declared with
//! [`maeri_telemetry::metric_table!`], like the runtime's. Counted rows
//! are [`ServiceMetrics`] atomics, bumped on the request path; read
//! rows are evaluated when a snapshot is taken, the `cache_*` rows from
//! the runtime's own counters. [`ServiceSnapshot::to_json`] and
//! [`crate::service::Service::prometheus`] both walk
//! [`ServiceSnapshot::rows`]; the `metrics` verb then adds the
//! runtime's rows.
//!
//! Wall-clock latencies are real time and therefore nondeterministic;
//! they are exposed only through the live `stats` and `metrics` verbs,
//! never in byte-stable reports (the `service_load` report uses the
//! virtual-time [`crate::loadsim`] instead). Their quantiles cover the
//! last [`LATENCY_WINDOW`] to `2 * LATENCY_WINDOW` completions (a
//! [`WindowedHistogram`]), so memory and the cost of a `stats` read
//! stay bounded however long the service runs.

use std::sync::atomic::Ordering;
use std::sync::Mutex;

use maeri_runtime::MetricsSnapshot;
use maeri_sim::histogram::Histogram;
use maeri_telemetry::json::JsonValue;

use crate::recorder::FlightRecorder;
use crate::registry::WindowedHistogram;
use crate::store::ResultStore;

/// Completions per latency window: the quantiles in `stats` read the
/// current window plus the previous full one.
pub const LATENCY_WINDOW: usize = 1024;

maeri_telemetry::metric_table! {
    /// Shared atomic counters for one service instance (one per
    /// counted row of [`ROWS`]), plus the windowed latency histogram.
    pub struct ServiceMetrics {
        latency_us: Mutex<WindowedHistogram> = Mutex::new(WindowedHistogram::new(LATENCY_WINDOW)),
    }
    /// A point-in-time copy of every row of [`ROWS`].
    pub struct ServiceSnapshot {}
    /// Every service metric, declared once, in `stats` key order. Rows
    /// sharing a family share its kind and help text.
    ///
    /// The per-tenant SLO families and `maeri_slo_target_p99_us`
    /// ([`crate::registry::SloTracker::expose`]) are exposition-only:
    /// a flat `stats` object cannot carry a tenant label whose values
    /// are only known at run time.
    pub static ROWS;
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
    read(
        latency: &mut Histogram,
        runtime: &MetricsSnapshot,
        cache_entries: usize,
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
        // Single jobs only, never batches: each runtime cache hit is one
        // lookup that hit, and each miss executes exactly once.
        cache_hits: Counter "maeri_cache_hits_total"
            => "Runtime result-cache hits." = runtime.cache_hits,
        cache_misses: Counter "maeri_cache_misses_total"
            => "Runtime result-cache misses." = runtime.executed,
        cache_entries: Gauge "maeri_cache_entries"
            => "Results in the runtime result cache." = cache_entries as u64,
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

    /// A point-in-time snapshot: every counter, plus the read rows
    /// taken from the latency window, the runtime's counters and cache
    /// size, the store (`None` when memory-only) and the flight
    /// recorder (`None` when tracing is off).
    #[must_use]
    pub fn snapshot(
        &self,
        runtime: &MetricsSnapshot,
        cache_entries: usize,
        store: Option<&ResultStore>,
        recorder: Option<&FlightRecorder>,
    ) -> ServiceSnapshot {
        let mut latency = self
            .latency_us
            .lock()
            .expect("latency mutex poisoned")
            .merged();
        self.read(&mut latency, runtime, cache_entries, store, recorder)
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
        self.rows_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_runtime::RuntimeMetrics;
    use maeri_telemetry::metrics::{MetricKind, MetricRow};

    #[test]
    fn queue_depth_tracks_high_water() {
        let m = ServiceMetrics::new();
        m.job_queued();
        m.job_queued();
        m.job_queued();
        m.job_finished(10);
        m.job_finished(20);
        let snap = m.snapshot(&RuntimeMetrics::new().snapshot(), 0, None, None);
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
        let mut runtime = RuntimeMetrics::new().snapshot();
        (runtime.cache_hits, runtime.executed) = (1, 5);
        let snap = m.snapshot(&runtime, 5, None, None);
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
        let snap = m.snapshot(&RuntimeMetrics::new().snapshot(), 0, None, None);
        assert!(
            snap.latency_p999_us <= LATENCY_WINDOW as u64,
            "the slow window aged out"
        );
        assert_eq!(snap.latency_p50_us, LATENCY_WINDOW as u64 / 2);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn rows_of_one_family_agree_on_kind_and_help() {
        // The `metrics` verb renders both tables, so the check spans
        // the runtime's rows too.
        let runtime = RuntimeMetrics::new().snapshot();
        let rows: Vec<&MetricRow> = ROWS
            .iter()
            .chain(runtime.rows().map(|(row, _)| row))
            .collect();
        for row in &rows {
            let twins: Vec<&&MetricRow> = rows.iter().filter(|r| r.family == row.family).collect();
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
            assert_eq!(
                row.kind == MetricKind::Counter,
                row.family.ends_with("_total"),
                "`{}`: counter families, and only they, end in `_total`",
                row.family
            );
        }
    }
}
