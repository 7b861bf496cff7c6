//! Lightweight runtime metrics: counters plus per-phase wall times.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// Point-in-time copy of the runtime's counters, safe to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs handed to the runtime (cache hits included).
    pub submitted: u64,
    /// Jobs actually executed on a worker.
    pub executed: u64,
    /// Executed jobs that returned an error (sim rejection or panic).
    pub failed: u64,
    /// Jobs answered without executing (cache or in-batch dedup).
    pub cache_hits: u64,
    /// Jobs abandoned past their per-request deadline.
    pub timeouts: u64,
    /// Highest number of jobs simultaneously in flight on the queue.
    pub queue_high_water: usize,
    /// Freshly-executed jobs that carried fabric telemetry.
    pub telemetry_runs: u64,
    /// Total trace events those telemetry runs recorded.
    pub telemetry_events: u64,
    /// Freshly-executed mapping-space searches.
    pub searches: u64,
    /// Candidates those searches enumerated.
    pub search_candidates: u64,
    /// Enumerated candidates pruned as infeasible or duplicate shapes.
    pub search_pruned: u64,
    /// The subset of pruned candidates rejected by the static verifier
    /// before any analytic scoring ran (see `maeri-verify`).
    pub search_statically_rejected: u64,
    /// Frontier members validated with an exact cycle trace.
    pub search_validated: u64,
    /// Searches whose frontier was trace-validated (rank checkable).
    pub search_rank_checks: u64,
    /// Rank checks where analytic and exact ranking picked the same
    /// winner.
    pub search_rank_agreements: u64,
    /// Per-phase wall-time log, in submission order.
    pub phases: Vec<PhaseStats>,
}

impl MetricsSnapshot {
    /// Total wall time across all recorded phases.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Renders the snapshot as an aligned plain-text report (used by
    /// the `regen_all` summary).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("runtime metrics\n");
        let _ = writeln!(
            out,
            "  jobs: {} submitted, {} executed, {} failed, {} cache hits",
            self.submitted, self.executed, self.failed, self.cache_hits
        );
        if self.timeouts > 0 {
            let _ = writeln!(out, "  timeouts: {}", self.timeouts);
        }
        let _ = writeln!(
            out,
            "  queue high-water: {} in flight",
            self.queue_high_water
        );
        if self.telemetry_runs > 0 {
            let _ = writeln!(
                out,
                "  telemetry: {} instrumented runs, {} trace events",
                self.telemetry_runs, self.telemetry_events
            );
        }
        if self.searches > 0 {
            let _ = writeln!(
                out,
                "  search: {} searches, {} candidates ({} pruned, {} statically rejected, {} validated), rank agreement {}/{}",
                self.searches,
                self.search_candidates,
                self.search_pruned,
                self.search_statically_rejected,
                self.search_validated,
                self.search_rank_agreements,
                self.search_rank_checks
            );
        }
        if !self.phases.is_empty() {
            out.push_str("  phases:\n");
            let width = self.phases.iter().map(|p| p.name.len()).max().unwrap_or(0);
            for phase in &self.phases {
                let _ = writeln!(
                    out,
                    "    {:width$}  {:3} jobs  {:3} cached  {:8.2?}",
                    phase.name,
                    phase.jobs,
                    phase.cache_hits,
                    phase.wall,
                    width = width
                );
            }
            let _ = writeln!(out, "  total wall: {:.2?}", self.total_wall());
        }
        out
    }

    /// The snapshot as a JSON document (used by `regen_all --json`).
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
        JsonValue::object()
            .with("submitted", JsonValue::UInt(self.submitted))
            .with("executed", JsonValue::UInt(self.executed))
            .with("failed", JsonValue::UInt(self.failed))
            .with("cache_hits", JsonValue::UInt(self.cache_hits))
            .with("timeouts", JsonValue::UInt(self.timeouts))
            .with(
                "queue_high_water",
                JsonValue::UInt(self.queue_high_water as u64),
            )
            .with("telemetry_runs", JsonValue::UInt(self.telemetry_runs))
            .with("telemetry_events", JsonValue::UInt(self.telemetry_events))
            .with("searches", JsonValue::UInt(self.searches))
            .with("search_candidates", JsonValue::UInt(self.search_candidates))
            .with("search_pruned", JsonValue::UInt(self.search_pruned))
            .with(
                "search_statically_rejected",
                JsonValue::UInt(self.search_statically_rejected),
            )
            .with("search_validated", JsonValue::UInt(self.search_validated))
            .with(
                "search_rank_checks",
                JsonValue::UInt(self.search_rank_checks),
            )
            .with(
                "search_rank_agreements",
                JsonValue::UInt(self.search_rank_agreements),
            )
            .with(
                "total_wall_us",
                JsonValue::UInt(self.total_wall().as_micros() as u64),
            )
            .with("phases", JsonValue::Array(phases))
    }
}

/// Shared counters updated by the runtime and its workers.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    submitted: AtomicU64,
    executed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    timeouts: AtomicU64,
    telemetry_runs: AtomicU64,
    telemetry_events: AtomicU64,
    searches: AtomicU64,
    search_candidates: AtomicU64,
    search_pruned: AtomicU64,
    search_statically_rejected: AtomicU64,
    search_validated: AtomicU64,
    search_rank_checks: AtomicU64,
    search_rank_agreements: AtomicU64,
    in_flight: AtomicUsize,
    queue_high_water: AtomicUsize,
    phases: Mutex<Vec<PhaseStats>>,
}

impl RuntimeMetrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

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
    pub(crate) fn record_search(&self, counters: &maeri_mapspace::SearchCounters) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.search_candidates
            .fetch_add(counters.enumerated, Ordering::Relaxed);
        self.search_pruned
            .fetch_add(counters.pruned, Ordering::Relaxed);
        self.search_statically_rejected
            .fetch_add(counters.statically_rejected, Ordering::Relaxed);
        self.search_validated
            .fetch_add(counters.validated, Ordering::Relaxed);
        if let Some(agreed) = counters.rank_agreement {
            self.search_rank_checks.fetch_add(1, Ordering::Relaxed);
            if agreed {
                self.search_rank_agreements.fetch_add(1, Ordering::Relaxed);
            }
        }
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
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            telemetry_runs: self.telemetry_runs.load(Ordering::Relaxed),
            telemetry_events: self.telemetry_events.load(Ordering::Relaxed),
            searches: self.searches.load(Ordering::Relaxed),
            search_candidates: self.search_candidates.load(Ordering::Relaxed),
            search_pruned: self.search_pruned.load(Ordering::Relaxed),
            search_statically_rejected: self.search_statically_rejected.load(Ordering::Relaxed),
            search_validated: self.search_validated.load(Ordering::Relaxed),
            search_rank_checks: self.search_rank_checks.load(Ordering::Relaxed),
            search_rank_agreements: self.search_rank_agreements.load(Ordering::Relaxed),
            phases: self
                .phases
                .lock()
                .expect("metrics phase log poisoned")
                .clone(),
        }
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
    fn telemetry_line_appears_only_with_instrumented_runs() {
        let metrics = RuntimeMetrics::new();
        assert!(!metrics.snapshot().render().contains("telemetry"));
        metrics.record_telemetry(120);
        metrics.record_telemetry(80);
        let snap = metrics.snapshot();
        assert_eq!(snap.telemetry_runs, 2);
        assert_eq!(snap.telemetry_events, 200);
        assert!(snap
            .render()
            .contains("telemetry: 2 instrumented runs, 200 trace events"));
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
    fn timeouts_line_appears_only_after_a_timeout() {
        let metrics = RuntimeMetrics::new();
        assert!(!metrics.snapshot().render().contains("timeouts"));
        metrics.record_timeout();
        let snap = metrics.snapshot();
        assert_eq!(snap.timeouts, 1);
        assert!(snap.render().contains("  timeouts: 1\n"));
    }
}
