//! Lightweight runtime metrics: one declared table of counters
//! ([`maeri_telemetry::metric_table!`]) plus per-phase wall times.
//! `to_json`, `render` and the service's `metrics` verb all walk
//! [`MetricsSnapshot::rows`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use maeri_telemetry::json::JsonValue;

/// Wall-clock accounting for one named batch (a "phase": e.g. one
/// figure's sweep inside `regen_all`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase label, as passed to [`crate::Runtime::run_phase`].
    pub name: String,
    /// Jobs submitted in the phase (including ones served from cache).
    pub jobs: usize,
    /// Jobs answered from the result cache or deduplicated in-batch.
    pub cache_hits: usize,
    /// Wall time from submission to full assembly.
    pub wall: Duration,
}

maeri_telemetry::metric_table! {
    /// Shared counters updated by the runtime and its workers: one
    /// atomic per row, the number of jobs in flight behind the
    /// high-water mark, and the phase log.
    pub struct RuntimeMetrics {
        in_flight: AtomicU64 = AtomicU64::new(0),
        phases: Mutex<Vec<PhaseStats>> = Mutex::new(Vec::new()),
    }
    /// Point-in-time copy of the runtime's counters, safe to print.
    pub struct MetricsSnapshot {
        /// Per-phase wall-time log, in submission order.
        pub phases: Vec<PhaseStats>,
    }
    /// Every runtime counter, declared once, in `regen_all --json` key
    /// order.
    static ROWS;
    counted {
        submitted: Counter "maeri_runtime_submitted_total"
            => "Jobs handed to the runtime (cache hits included).",
        executed: Counter "maeri_runtime_executed_total"
            => "Jobs actually executed on a worker.",
        failed: Counter "maeri_runtime_failed_total"
            => "Executed jobs that returned an error (rejection, panic or timeout).",
        cache_hits: Counter "maeri_runtime_cache_hits_total"
            => "Jobs answered without executing (cache or in-batch dedup).",
        timeouts: Counter "maeri_runtime_timeouts_total"
            => "Jobs abandoned past their per-request deadline.",
        queue_high_water: Gauge "maeri_runtime_queue_high_water"
            => "Highest number of jobs simultaneously in flight on the queue.",
        telemetry_runs: Counter "maeri_runtime_telemetry_runs_total"
            => "Freshly-executed jobs that carried fabric telemetry.",
        telemetry_events: Counter "maeri_runtime_telemetry_events_total"
            => "Total trace events those telemetry runs recorded.",
        searches: Counter "maeri_runtime_searches_total"
            => "Freshly-executed mapping-space searches.",
        search_candidates: Counter "maeri_runtime_search_candidates_total"
            => "Candidates those searches enumerated.",
        search_pruned: Counter "maeri_runtime_search_pruned_total"
            => "Enumerated candidates pruned as infeasible or duplicate shapes.",
        search_statically_rejected: Counter "maeri_runtime_search_statically_rejected_total"
            => "Pruned candidates the static verifier rejected before any analytic scoring.",
        search_validated: Counter "maeri_runtime_search_validated_total"
            => "Frontier members validated with an exact cycle trace.",
        search_rank_checks: Counter "maeri_runtime_search_rank_checks_total"
            => "Searches whose frontier was trace-validated (rank checkable).",
        search_rank_agreements: Counter "maeri_runtime_search_rank_agreements_total"
            => "Rank checks where analytic and exact ranking picked the same winner.",
        search_arts_built: Counter "maeri_runtime_search_arts_built_total"
            => "ARTs those searches built, one per distinct VN packing their dense candidates planned.",
    }
}

impl MetricsSnapshot {
    /// Total wall time across all recorded phases.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Renders the snapshot as plain text, one `key: value` line per
    /// row and then the phase table (the `regen_all` stderr summary).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("runtime metrics\n");
        for (row, value) in self.rows() {
            let _ = writeln!(out, "  {}: {value}", row.key);
        }
        if !self.phases.is_empty() {
            out.push_str("  phases:\n");
            let width = self.phases.iter().map(|p| p.name.len()).max().unwrap_or(0);
            for phase in &self.phases {
                let _ = writeln!(
                    out,
                    "    {:width$}  {:3} jobs  {:3} cached  {:8.2?}",
                    phase.name, phase.jobs, phase.cache_hits, phase.wall,
                );
            }
            let _ = writeln!(out, "  total wall: {:.2?}", self.total_wall());
        }
        out
    }

    /// The snapshot as a JSON document (used by `regen_all --json`):
    /// every row, then the total wall time and the phase log.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                JsonValue::object()
                    .with("name", JsonValue::Str(phase.name.clone()))
                    .with("jobs", JsonValue::UInt(phase.jobs as u64))
                    .with("cache_hits", JsonValue::UInt(phase.cache_hits as u64))
                    .with("wall_us", JsonValue::UInt(phase.wall.as_micros() as u64))
            })
            .collect();
        self.rows_json()
            .with(
                "total_wall_us",
                JsonValue::UInt(self.total_wall().as_micros() as u64),
            )
            .with("phases", JsonValue::Array(phases))
    }
}

impl RuntimeMetrics {
    pub(crate) fn record_submitted(&self, count: usize) {
        self.submitted.fetch_add(count as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_executed(&self, failed: bool) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_cache_hits(&self, count: usize) {
        self.cache_hits.fetch_add(count as u64, Ordering::Relaxed);
    }

    /// Counts one job abandoned by the deadline watchdog.
    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one freshly-executed telemetry run and its trace events.
    pub(crate) fn record_telemetry(&self, events: u64) {
        self.telemetry_runs.fetch_add(1, Ordering::Relaxed);
        self.telemetry_events.fetch_add(events, Ordering::Relaxed);
    }

    /// Counts one freshly-executed mapping search and its per-search
    /// counters (cache hits are deliberately not re-counted, like
    /// telemetry).
    pub(crate) fn record_search(&self, search: &maeri_mapspace::SearchCounters) {
        let add = |counter: &AtomicU64, n: u64| counter.fetch_add(n, Ordering::Relaxed);
        add(&self.searches, 1);
        add(&self.search_candidates, search.enumerated);
        add(&self.search_pruned, search.pruned);
        add(&self.search_statically_rejected, search.statically_rejected);
        add(&self.search_validated, search.validated);
        if let Some(agreed) = search.rank_agreement {
            add(&self.search_rank_checks, 1);
            add(&self.search_rank_agreements, u64::from(agreed));
        }
        add(&self.search_arts_built, search.arts_built);
    }

    /// Marks one job entering the queue and updates the high-water mark.
    pub(crate) fn job_enqueued(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Marks one job leaving a worker.
    pub(crate) fn job_drained(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_phase(&self, phase: PhaseStats) {
        self.phases
            .lock()
            .expect("metrics phase log poisoned")
            .push(phase);
    }

    /// Takes a consistent-enough snapshot for reporting. Counters are
    /// relaxed atomics; exact cross-counter consistency is only
    /// guaranteed while no batch is in flight.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let phases = self
            .phases
            .lock()
            .expect("metrics phase log poisoned")
            .clone();
        self.read(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let metrics = RuntimeMetrics::new();
        metrics.record_submitted(5);
        metrics.record_cache_hits(2);
        metrics.record_executed(false);
        metrics.record_executed(true);
        let snap = metrics.snapshot();
        assert_eq!(snap.submitted, 5);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.executed, 2);
        assert_eq!(snap.failed, 1);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let metrics = RuntimeMetrics::new();
        metrics.job_enqueued();
        metrics.job_enqueued();
        metrics.job_enqueued();
        metrics.job_drained();
        metrics.job_drained();
        assert_eq!(metrics.snapshot().queue_high_water, 3);
    }

    #[test]
    fn render_mentions_every_phase() {
        let metrics = RuntimeMetrics::new();
        metrics.record_phase(PhaseStats {
            name: "figure12".into(),
            jobs: 30,
            cache_hits: 0,
            wall: Duration::from_millis(12),
        });
        metrics.record_phase(PhaseStats {
            name: "headline".into(),
            jobs: 30,
            cache_hits: 30,
            wall: Duration::from_millis(1),
        });
        let text = metrics.snapshot().render();
        assert!(text.contains("figure12"));
        assert!(text.contains("headline"));
        assert!(text.contains("total wall"));
    }

    #[test]
    fn render_prints_every_row_in_table_order() {
        let metrics = RuntimeMetrics::new();
        metrics.record_telemetry(120);
        metrics.record_telemetry(80);
        metrics.record_timeout();
        let snap = metrics.snapshot();
        let text = snap.render();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let rows: Vec<String> = snap
            .rows()
            .map(|(row, value)| format!("  {}: {value}", row.key))
            .collect();
        assert_eq!(lines, rows, "one line per row, zero or not");
        for line in [
            "  telemetry_runs: 2",
            "  telemetry_events: 200",
            "  timeouts: 1",
        ] {
            assert!(lines.contains(&line), "missing `{line}` in\n{text}");
        }
    }

    #[test]
    fn snapshot_json_is_valid_and_complete() {
        let metrics = RuntimeMetrics::new();
        metrics.record_submitted(3);
        metrics.record_executed(false);
        metrics.record_telemetry(42);
        metrics.record_phase(PhaseStats {
            name: "fig\"12\"".into(), // exercises string escaping
            jobs: 3,
            cache_hits: 1,
            wall: Duration::from_millis(7),
        });
        let text = metrics.snapshot().to_json().render();
        maeri_telemetry::json::validate(&text).expect("snapshot JSON must parse");
        assert!(text.contains("\"telemetry_events\":42"));
        assert!(text.contains("\"phases\""));
        assert!(text.contains("\\\"12\\\""));
    }

    #[test]
    fn json_keys_keep_their_order() {
        let JsonValue::Object(fields) = RuntimeMetrics::new().snapshot().to_json() else {
            panic!("the snapshot renders as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        // Scripts and the benchmark read these `regen_all --json` keys.
        assert_eq!(
            keys.join(" "),
            "submitted executed failed cache_hits timeouts queue_high_water telemetry_runs \
             telemetry_events searches search_candidates search_pruned \
             search_statically_rejected search_validated search_rank_checks \
             search_rank_agreements search_arts_built total_wall_us phases"
        );
    }
}
