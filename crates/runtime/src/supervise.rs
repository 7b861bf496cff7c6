//! Job supervision: bounded retry-with-backoff and a timeout watchdog.
//!
//! Every job attempt — on a pool worker or on the caller's thread via
//! [`crate::Runtime::run_one`] — funnels through
//! [`execute_supervised`], which applies the runtime's [`RetryPolicy`]:
//!
//! * **Transient failures retry.** A panic or a timeout says something
//!   about this execution, not the job; the supervisor re-attempts it
//!   up to [`RetryPolicy::max_attempts`] times with doubling backoff.
//!   A deterministic [`JobError::Sim`] rejection would only reproduce
//!   itself, so it never retries.
//! * **Wedged jobs time out.** With [`RetryPolicy::timeout`] set, each
//!   attempt runs on a disposable watchdog thread; past the deadline
//!   the attempt is reported as [`JobError::TimedOut`] and the thread
//!   is abandoned, never joined, so a livelocked simulation cannot hang
//!   the pool.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::job::SimJob;
use crate::metrics::RuntimeMetrics;
use crate::output::{JobError, JobResult};

/// How one supervised attempt ended, classified for observability:
/// the serving layer's flight recorder stamps this on each `attempt`
/// span instead of swallowing the distinction inside the retry loop.
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
    /// The watchdog abandoned the attempt past its budget.
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

/// One attempt's timing and classification, surfaced by the traced
/// execution path. Offsets are relative to the start of the dispatch
/// (the first attempt's `start_offset` is ~zero; later attempts start
/// after earlier attempts plus any backoff sleeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptRecord {
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// When the attempt started, measured from dispatch start.
    pub start_offset: Duration,
    /// How long the attempt ran (for a timeout: the watchdog budget,
    /// since the wedged thread itself is abandoned unmeasured).
    pub dur: Duration,
}

/// How hard the runtime fights transient failures before giving up.
///
/// The default policy is maximally conservative — one attempt, no
/// backoff, no watchdog — so a plain [`crate::Runtime::new`] behaves
/// exactly like a runtime without supervision: every job executes once
/// and deterministic counters stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (minimum 1; 1
    /// disables retries entirely).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles after every further
    /// transient failure.
    pub backoff: Duration,
    /// Per-attempt wall-clock budget. `None` disables the watchdog and
    /// runs attempts inline on the worker thread.
    pub timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy retrying transient failures up to `max_attempts` total
    /// attempts with doubling backoff starting at `backoff`.
    #[must_use]
    pub fn retrying(max_attempts: u32, backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts,
            backoff,
            ..RetryPolicy::default()
        }
    }

    /// The same policy with a per-attempt timeout watchdog.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Runs one job under the policy: attempts are executed (and counted in
/// `metrics`) until one succeeds, fails deterministically, or the
/// attempt budget runs out.
pub(crate) fn execute_supervised(
    job: &SimJob,
    policy: &RetryPolicy,
    metrics: &RuntimeMetrics,
) -> JobResult {
    execute_traced(job, policy, metrics, &mut None)
}

/// [`execute_supervised`], additionally appending one [`AttemptRecord`]
/// per attempt to `attempts` when it is `Some` (the untraced path pays
/// for no allocation and no clock reads beyond what it always did).
pub(crate) fn execute_traced(
    job: &SimJob,
    policy: &RetryPolicy,
    metrics: &RuntimeMetrics,
    attempts: &mut Option<Vec<AttemptRecord>>,
) -> JobResult {
    let epoch = attempts.as_ref().map(|_| Instant::now());
    let budget = policy.max_attempts.max(1);
    let mut delay = policy.backoff;
    let mut result = traced_attempt(job, policy, metrics, epoch, attempts);
    for _ in 1..budget {
        match &result {
            Err(error) if error.is_transient() => {
                metrics.record_retry();
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                result = traced_attempt(job, policy, metrics, epoch, attempts);
            }
            _ => break,
        }
    }
    result
}

fn traced_attempt(
    job: &SimJob,
    policy: &RetryPolicy,
    metrics: &RuntimeMetrics,
    epoch: Option<Instant>,
    attempts: &mut Option<Vec<AttemptRecord>>,
) -> JobResult {
    let start_offset = epoch.map(|e| e.elapsed());
    let result = run_attempt(job, policy, metrics);
    if let (Some(records), Some(epoch), Some(start_offset)) =
        (attempts.as_mut(), epoch, start_offset)
    {
        records.push(AttemptRecord {
            outcome: AttemptOutcome::classify(&result),
            start_offset,
            dur: epoch.elapsed().saturating_sub(start_offset),
        });
    }
    result
}

fn run_attempt(job: &SimJob, policy: &RetryPolicy, metrics: &RuntimeMetrics) -> JobResult {
    let result = match policy.timeout {
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
            "{label} exceeded the {limit:?} per-attempt budget"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_one_bare_attempt() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(policy.backoff, Duration::ZERO);
        assert_eq!(policy.timeout, None);
    }

    #[test]
    fn deterministic_errors_consume_one_attempt() {
        let metrics = RuntimeMetrics::new();
        let policy = RetryPolicy::retrying(5, Duration::ZERO);
        // Channel tile larger than the channel count: statically
        // rejected by the pre-flight verifier.
        let job = SimJob::sparse_conv(
            maeri::MaeriConfig::paper_64(),
            maeri_dnn::ConvLayer::new("k", 3, 8, 8, 4, 3, 3, 1, 1),
            0.0,
            99,
            1,
        );
        let result = execute_supervised(&job, &policy, &metrics);
        assert!(matches!(result, Err(JobError::InvalidMapping(_))));
        let snap = metrics.snapshot();
        assert_eq!(snap.executed, 1, "deterministic errors must not retry");
        assert_eq!(snap.retries, 0);
    }

    #[test]
    fn transient_failures_exhaust_the_attempt_budget() {
        let metrics = RuntimeMetrics::new();
        let policy = RetryPolicy::retrying(3, Duration::from_millis(1));
        let result = execute_supervised(&SimJob::poison("flaky"), &policy, &metrics);
        assert!(matches!(result, Err(JobError::Panicked(_))));
        let snap = metrics.snapshot();
        assert_eq!(snap.executed, 3);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.failed, 3);
    }

    #[test]
    fn wedged_attempt_is_abandoned_as_timed_out() {
        let metrics = RuntimeMetrics::new();
        let policy = RetryPolicy::default().with_timeout(Duration::from_millis(40));
        let result = execute_supervised(&SimJob::wedge(5_000), &policy, &metrics);
        assert!(matches!(result, Err(JobError::TimedOut(_))));
        assert_eq!(metrics.snapshot().timeouts, 1);
    }

    #[test]
    fn traced_execution_classifies_every_attempt() {
        let metrics = RuntimeMetrics::new();
        let policy = RetryPolicy::retrying(3, Duration::from_millis(1));
        let mut attempts = Some(Vec::new());
        let result = execute_traced(&SimJob::poison("flaky"), &policy, &metrics, &mut attempts);
        assert!(matches!(result, Err(JobError::Panicked(_))));
        let records = attempts.unwrap();
        assert_eq!(records.len(), 3, "one record per attempt");
        assert!(records.iter().all(|r| r.outcome == AttemptOutcome::Panic));
        // Attempts are ordered and non-overlapping within the dispatch:
        // each starts at or after the previous one ended.
        for pair in records.windows(2) {
            assert!(pair[1].start_offset >= pair[0].start_offset + pair[0].dur);
        }
        // The untraced path reports the identical result.
        let bare = execute_supervised(&SimJob::poison("flaky"), &policy, &metrics);
        assert_eq!(
            AttemptOutcome::classify(&bare),
            AttemptOutcome::Panic,
            "classification is pure over the result"
        );
        let healthy = execute_supervised(&SimJob::health_check(), &policy, &metrics);
        assert_eq!(AttemptOutcome::classify(&healthy), AttemptOutcome::Ok);
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
        let policy = RetryPolicy::retrying(3, Duration::ZERO).with_timeout(Duration::from_secs(5));
        let result = execute_supervised(&SimJob::health_check(), &policy, &metrics);
        assert!(result.is_ok());
        let snap = metrics.snapshot();
        assert_eq!(snap.executed, 1);
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.timeouts, 0);
    }
}
