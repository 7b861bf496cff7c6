//! Job execution: one attempt per job, under panic isolation and an
//! optional deadline watchdog.
//!
//! Every execution — on a pool worker or on the caller's thread via
//! [`crate::Runtime::run_one_with_deadline`] — funnels through
//! [`execute`]. Jobs are pure functions of their [`SimJob`]
//! description, so re-running a failed job would only reproduce the
//! failure; each job runs exactly once.
//!
//! * **Panics are values.** The attempt runs under `catch_unwind`; a
//!   panic becomes [`JobError::Panicked`].
//! * **Wedged jobs time out.** With a deadline, the attempt runs on a
//!   disposable watchdog thread; past the deadline it is reported as
//!   [`JobError::TimedOut`] and the thread is abandoned, never joined,
//!   so a livelocked simulation cannot hang its caller.

use std::sync::mpsc;
use std::time::Duration;

use crate::job::SimJob;
use crate::metrics::RuntimeMetrics;
use crate::output::{JobError, JobResult};

/// How one executed attempt ended, classified for observability: the
/// serving layer's flight recorder stamps this on each `attempt` and
/// `dispatch` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt produced a result.
    Ok,
    /// The simulator rejected the job deterministically.
    SimError,
    /// The pre-flight verifier proved the mapping illegal.
    InvalidMapping,
    /// The attempt panicked and was caught.
    Panic,
    /// The watchdog abandoned the attempt past its deadline.
    Timeout,
}

impl AttemptOutcome {
    /// Stable snake_case tag used as the span status string.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttemptOutcome::Ok => "ok",
            AttemptOutcome::SimError => "sim_error",
            AttemptOutcome::InvalidMapping => "invalid_mapping",
            AttemptOutcome::Panic => "panic",
            AttemptOutcome::Timeout => "timeout",
        }
    }

    /// Classifies a job result (the status of its `attempt` and
    /// `dispatch` spans).
    #[must_use]
    pub fn classify(result: &JobResult) -> AttemptOutcome {
        match result {
            Ok(_) => AttemptOutcome::Ok,
            Err(JobError::Sim(_)) => AttemptOutcome::SimError,
            Err(JobError::InvalidMapping(_)) => AttemptOutcome::InvalidMapping,
            Err(JobError::Panicked(_)) => AttemptOutcome::Panic,
            Err(JobError::TimedOut(_)) => AttemptOutcome::Timeout,
        }
    }
}

/// Runs one job once and counts it in `metrics`: inline under panic
/// isolation without a `timeout`, on a watchdog thread with one.
pub(crate) fn execute(
    job: &SimJob,
    timeout: Option<Duration>,
    metrics: &RuntimeMetrics,
) -> JobResult {
    let result = match timeout {
        Some(limit) => run_with_timeout(job, limit),
        None => crate::pool::run_isolated(job),
    };
    if matches!(result, Err(JobError::TimedOut(_))) {
        metrics.record_timeout();
    }
    metrics.record_executed(result.is_err());
    result
}

/// Runs one attempt on a disposable thread so the deadline can be
/// enforced from outside. A wedged attempt is *abandoned*: joining it
/// would re-inherit the hang, so the thread is left to finish (or spin)
/// on its own and its eventual result is dropped with the channel.
fn run_with_timeout(job: &SimJob, limit: Duration) -> JobResult {
    let (done_tx, done_rx) = mpsc::channel();
    let label = job.label();
    let job = job.clone();
    std::thread::Builder::new()
        .name("maeri-attempt".to_owned())
        .spawn(move || {
            let _ = done_tx.send(crate::pool::run_isolated(&job));
        })
        .expect("failed to spawn supervised attempt thread");
    match done_rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(_) => Err(JobError::TimedOut(format!(
            "{label} exceeded its {limit:?} deadline"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wedged_attempt_is_abandoned_as_timed_out() {
        let metrics = RuntimeMetrics::new();
        let result = execute(
            &SimJob::wedge(5_000),
            Some(Duration::from_millis(40)),
            &metrics,
        );
        assert!(matches!(result, Err(JobError::TimedOut(_))));
        let snap = metrics.snapshot();
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.executed, 1);
        assert_eq!(snap.failed, 1);
    }

    #[test]
    fn attempt_outcome_names_are_stable() {
        let all = [
            AttemptOutcome::Ok,
            AttemptOutcome::SimError,
            AttemptOutcome::InvalidMapping,
            AttemptOutcome::Panic,
            AttemptOutcome::Timeout,
        ];
        let names: Vec<&str> = all.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            ["ok", "sim_error", "invalid_mapping", "panic", "timeout"]
        );
    }

    #[test]
    fn healthy_jobs_pass_straight_through_the_watchdog() {
        let metrics = RuntimeMetrics::new();
        let result = execute(
            &SimJob::health_check(),
            Some(Duration::from_secs(5)),
            &metrics,
        );
        assert!(result.is_ok());
        let snap = metrics.snapshot();
        assert_eq!(snap.executed, 1);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.timeouts, 0);
    }
}
