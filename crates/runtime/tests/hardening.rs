//! Runtime hardening: every job runs exactly once. A wedged job must
//! surface as `TimedOut` within its deadline instead of hanging the
//! caller, a panic is one failed execution, and no transient result is
//! ever served from the cache.

use std::time::{Duration, Instant};

use maeri_runtime::{JobError, Runtime, SimJob};

#[test]
fn wedged_job_times_out_within_its_deadline() {
    let runtime = Runtime::new(1);
    let start = Instant::now();
    let result =
        runtime.run_one_with_deadline(&SimJob::wedge(10_000), Some(Duration::from_millis(50)));
    assert!(matches!(result, Err(JobError::TimedOut(_))));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the caller must not wait for the wedged job to finish"
    );
    let snapshot = runtime.metrics();
    assert_eq!(snapshot.executed, 1);
    assert_eq!(snapshot.timeouts, 1);
    assert_eq!(snapshot.failed, 1);
}

#[test]
fn panicking_job_executes_once() {
    let runtime = Runtime::new(1);
    let result =
        runtime.run_one_with_deadline(&SimJob::poison("once"), Some(Duration::from_secs(5)));
    assert!(matches!(result, Err(JobError::Panicked(_))));
    let snapshot = runtime.metrics();
    assert_eq!(snapshot.executed, 1, "one attempt, no more");
    assert_eq!(snapshot.failed, 1);
    assert_eq!(snapshot.timeouts, 0);
}

#[test]
fn timeouts_are_never_cached() {
    let runtime = Runtime::new(1);
    let job = SimJob::wedge(10_000);
    let deadline = Some(Duration::from_millis(40));
    for _ in 0..2 {
        assert!(matches!(
            runtime.run_one_with_deadline(&job, deadline),
            Err(JobError::TimedOut(_))
        ));
    }
    let snapshot = runtime.metrics();
    assert_eq!(snapshot.executed, 2, "each request ran the job again");
    assert_eq!(snapshot.cache_hits, 0, "a timeout must never be cached");
    assert!(runtime.cache().is_empty());
}

#[test]
fn deterministic_rejections_are_cached() {
    let runtime = Runtime::new(1);
    // Channel tile larger than the channel count: rejected up front by
    // the static verifier, deterministically.
    let job = SimJob::sparse_conv(
        maeri::MaeriConfig::paper_64(),
        maeri_dnn::ConvLayer::new("k", 3, 8, 8, 4, 3, 3, 1, 1),
        0.0,
        99,
        1,
    );
    for _ in 0..2 {
        assert!(matches!(
            runtime.run_one_with_deadline(&job, Some(Duration::from_secs(5))),
            Err(JobError::InvalidMapping(_))
        ));
    }
    let snapshot = runtime.metrics();
    assert_eq!(snapshot.executed, 1);
    assert_eq!(snapshot.cache_hits, 1, "the rejection is cached");
}
