//! Job outcomes: successful simulation outputs and isolated failures.

use std::fmt;

use maeri::analytic::AnalyticResult;
use maeri::cycle_sim::TraceStats;
use maeri::RunStats;
use maeri_mapspace::SearchResult;
use maeri_sim::SimError;
use maeri_telemetry::FabricTelemetry;

/// A clocked cycle-trace plus the fabric telemetry captured while it
/// ran: per-level link utilization, multiplier busy fraction, stall
/// fractions, ART configuration, and the VN-latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRun {
    /// The trace statistics of the run (cycles, waves, stalls).
    pub trace: TraceStats,
    /// The fabric-level telemetry reduced from the probe stream.
    pub fabric: FabricTelemetry,
}

/// What one completed [`crate::SimJob`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOutput {
    /// Cost-model statistics from a mapper or baseline run.
    Run(RunStats),
    /// A closed-form analytic walk-through (Figure 17 style).
    Analytic(AnalyticResult),
    /// A clocked cycle-trace with fabric telemetry attached (boxed:
    /// telemetry carries a histogram and per-kind event counts, much
    /// larger than the other outputs).
    Telemetry(Box<TelemetryRun>),
    /// A mapping-space search result (boxed: carries a whole validated
    /// frontier of candidates).
    Search(Box<SearchResult>),
}

impl SimOutput {
    /// The run statistics, if this output is a mapper/baseline run.
    #[must_use]
    pub fn run_stats(&self) -> Option<&RunStats> {
        match self {
            SimOutput::Run(stats) => Some(stats),
            _ => None,
        }
    }

    /// Unwraps run statistics.
    ///
    /// # Panics
    ///
    /// Panics if the output is not a [`SimOutput::Run`].
    #[must_use]
    pub fn into_run_stats(self) -> RunStats {
        match self {
            SimOutput::Run(stats) => stats,
            other => panic!("expected run statistics, got {}", other.kind()),
        }
    }

    /// The analytic result, if this output is a walk-through.
    #[must_use]
    pub fn analytic(&self) -> Option<&AnalyticResult> {
        match self {
            SimOutput::Analytic(result) => Some(result),
            _ => None,
        }
    }

    /// Unwraps an analytic result.
    ///
    /// # Panics
    ///
    /// Panics if the output is not a [`SimOutput::Analytic`].
    #[must_use]
    pub fn into_analytic(self) -> AnalyticResult {
        match self {
            SimOutput::Analytic(result) => result,
            other => panic!("expected analytic result, got {}", other.kind()),
        }
    }

    /// The telemetry run, if this output carries fabric telemetry.
    #[must_use]
    pub fn telemetry(&self) -> Option<&TelemetryRun> {
        match self {
            SimOutput::Telemetry(run) => Some(run),
            _ => None,
        }
    }

    /// The search result, if this output came from a mapping search.
    #[must_use]
    pub fn search(&self) -> Option<&SearchResult> {
        match self {
            SimOutput::Search(result) => Some(result),
            _ => None,
        }
    }

    /// Unwraps a search result.
    ///
    /// # Panics
    ///
    /// Panics if the output is not a [`SimOutput::Search`].
    #[must_use]
    pub fn into_search(self) -> SearchResult {
        match self {
            SimOutput::Search(result) => *result,
            other => panic!("expected search result, got {}", other.kind()),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            SimOutput::Run(_) => "run statistics",
            SimOutput::Analytic(_) => "analytic result",
            SimOutput::Telemetry(_) => "telemetry run",
            SimOutput::Search(_) => "search result",
        }
    }

    /// A canonical, field-stable text encoding.
    ///
    /// Two outputs are equal exactly when their canonical texts are
    /// byte-identical, which is what the determinism tests compare
    /// between single-worker and multi-worker batches.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        fn extras(stats: &maeri_sim::Stats) -> String {
            // Stats iterates in name order, so this is stable.
            stats
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect::<Vec<_>>()
                .join(",")
        }
        match self {
            SimOutput::Run(run) => format!(
                "run label={} units={} cycles={} macs={} sram_reads={} sram_writes={} extra=[{}]",
                run.label,
                run.compute_units,
                run.cycles.as_u64(),
                run.macs,
                run.sram_reads,
                run.sram_writes,
                extras(&run.extra),
            ),
            SimOutput::Analytic(result) => format!(
                "analytic design={} cycles={} sram_reads={} steps={}",
                result.design,
                result.cycles,
                result.sram_reads,
                result.breakdown.len(),
            ),
            SimOutput::Telemetry(run) => format!(
                "telemetry trace=[trace cycles={} waves={} busy={} dist_stalls={} \
                 coll_stalls={} extra=[{}]] fabric=[{}]",
                run.trace.cycles.as_u64(),
                run.trace.waves_completed,
                run.trace.busy_cycles,
                run.trace.distribution_stall_cycles,
                run.trace.collection_stall_cycles,
                extras(&run.trace.extra),
                // The fabric rendering is multi-line for human output;
                // flatten it so the canonical form stays one line.
                run.fabric.canonical_text().trim_end().replace('\n', "; "),
            ),
            SimOutput::Search(result) => format!(
                // Like telemetry: flatten the multi-line rendering so
                // the canonical form stays one line.
                "search [{}]",
                result.canonical_text().trim_end().replace('\n', "; "),
            ),
        }
    }
}

/// Why a job failed. Failures are values, not crashes: one bad point in
/// a sweep never takes down the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The simulator rejected the request (unmappable, bad config, ...).
    Sim(String),
    /// The static verifier (`maeri-verify`) proved the mapping illegal
    /// before execution; the message is the structured violation with
    /// its counterexample. Deterministic, like [`JobError::Sim`].
    InvalidMapping(String),
    /// The job panicked; the worker caught it and kept serving.
    Panicked(String),
    /// The job ran past its per-request deadline; the watchdog
    /// abandoned it and the caller kept serving.
    TimedOut(String),
}

impl JobError {
    /// Whether the failure is *transient* — a property of this
    /// execution (environment, scheduling, stack exhaustion) rather
    /// than of the job description.
    ///
    /// Transient failures are kept out of the result cache (and the
    /// serving layer's store), so a later request runs the job again;
    /// a deterministic [`JobError::Sim`] rejection would only reproduce
    /// itself, so it is cached.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            JobError::Sim(_) | JobError::InvalidMapping(_) => false,
            JobError::Panicked(_) | JobError::TimedOut(_) => true,
        }
    }

    /// A canonical, field-stable text encoding (see
    /// [`SimOutput::canonical_text`]).
    #[must_use]
    pub fn canonical_text(&self) -> String {
        match self {
            JobError::Sim(msg) => format!("error sim={msg}"),
            JobError::InvalidMapping(msg) => format!("error invalid_mapping={msg}"),
            JobError::Panicked(msg) => format!("error panic={msg}"),
            JobError::TimedOut(msg) => format!("error timeout={msg}"),
        }
    }
}

impl From<SimError> for JobError {
    fn from(err: SimError) -> Self {
        JobError::Sim(err.to_string())
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Sim(msg) => write!(f, "simulation error: {msg}"),
            JobError::InvalidMapping(msg) => write!(f, "invalid mapping: {msg}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::TimedOut(msg) => write!(f, "job timed out: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Outcome of one job: output or isolated failure.
pub type JobResult = Result<SimOutput, JobError>;

/// Canonical text for a whole result (success or failure).
#[must_use]
pub fn canonical_result_text(result: &JobResult) -> String {
    match result {
        Ok(output) => output.canonical_text(),
        Err(error) => error.canonical_text(),
    }
}
