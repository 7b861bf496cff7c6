//! The runtime facade: batch submission, caching, ordered assembly.

use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::job::{JobKey, SimJob};
use crate::metrics::{MetricsSnapshot, PhaseStats, RuntimeMetrics};
use crate::output::{JobResult, SimOutput};
use crate::pool::WorkerPool;

/// Environment variable overriding the global runtime's worker count.
pub const WORKERS_ENV: &str = "MAERI_RUNTIME_WORKERS";

/// The batch-simulation runtime: a worker pool, a result cache, and
/// metrics, behind a deterministic submission API.
///
/// # Determinism
///
/// [`Runtime::run_batch`] returns one result per job, **ordered by job
/// index** — never by completion order. Jobs are pure functions of
/// their [`SimJob`] description, so any worker count (including served
/// cache hits) produces byte-identical results.
pub struct Runtime {
    pool: WorkerPool,
    cache: ResultCache,
    metrics: Arc<RuntimeMetrics>,
}

impl Runtime {
    /// Creates a runtime with `workers` worker threads (minimum 1) and a
    /// job queue of four tasks per worker; submission blocks beyond
    /// that. Every job runs once, under panic isolation.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let metrics = Arc::new(RuntimeMetrics::new());
        Runtime {
            pool: WorkerPool::new(workers, workers.max(1) * 4, &metrics),
            cache: ResultCache::new(),
            metrics,
        }
    }

    /// The process-wide shared runtime. Sized from the
    /// `MAERI_RUNTIME_WORKERS` environment variable when set (parseable
    /// and nonzero), otherwise from `std::thread::available_parallelism`.
    ///
    /// Sharing one runtime is what lets separate reports hit each
    /// other's cached results — e.g. the headline summary reuses the
    /// figure sweeps it cites.
    #[must_use]
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime::new(default_workers()))
    }

    /// Number of worker threads.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// A point-in-time copy of the runtime's counters and phase log.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The runtime's result cache.
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Runs one job through the cache, on the calling thread. Unlike a
    /// batch, it adds no entry to the phase log.
    pub fn run_one(&self, job: &SimJob) -> JobResult {
        self.run_one_with_deadline(job, None)
    }

    /// Runs one job under a per-request deadline. Past the deadline the
    /// job is abandoned on its watchdog thread and reported as
    /// [`crate::JobError::TimedOut`] — a transient error, so it is never
    /// cached. `None` behaves exactly like [`Runtime::run_one`].
    pub fn run_one_with_deadline(&self, job: &SimJob, deadline: Option<Duration>) -> JobResult {
        self.run_one_inner(job, deadline, false).0
    }

    /// [`Runtime::run_one_with_deadline`], additionally returning how
    /// long the job ran, or `None` when the cache answered. The result
    /// (and every counter side effect) is identical to the untimed call.
    pub fn run_one_traced_with_deadline(
        &self,
        job: &SimJob,
        deadline: Option<Duration>,
    ) -> (JobResult, Option<Duration>) {
        self.run_one_inner(job, deadline, true)
    }

    fn run_one_inner(
        &self,
        job: &SimJob,
        deadline: Option<Duration>,
        timed: bool,
    ) -> (JobResult, Option<Duration>) {
        let key = job.key();
        self.metrics.record_submitted(1);
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.record_cache_hits(1);
            return (hit, None);
        }
        let start = timed.then(Instant::now);
        let result = crate::supervise::execute(job, deadline, &self.metrics);
        let ran = start.map(|start| start.elapsed());
        self.record_telemetry(&result);
        self.cache.insert(key, result.clone());
        (result, ran)
    }

    /// Appends an externally-measured phase to the metrics phase log —
    /// the hook layers above the runtime use to account work the
    /// runtime itself did not schedule (e.g. a report's virtual-time
    /// load simulation or a chaos sweep), so `regen_all --json`
    /// attributes their wall time alongside the batch phases.
    pub fn note_phase(&self, stats: PhaseStats) {
        self.metrics.record_phase(stats);
    }

    /// Accounts a freshly-executed result's fabric telemetry (cache
    /// hits are deliberately not re-counted).
    fn record_telemetry(&self, result: &JobResult) {
        match result {
            Ok(SimOutput::Telemetry(run)) => {
                self.metrics.record_telemetry(run.fabric.total_events());
            }
            Ok(SimOutput::Search(search)) => {
                self.metrics.record_search(&search.counters);
            }
            _ => {}
        }
    }

    /// Runs a batch under an anonymous phase label.
    ///
    /// See [`Runtime::run_phase`] for the full contract.
    pub fn run_batch(&self, jobs: &[SimJob]) -> Vec<JobResult> {
        self.run_phase("batch", jobs)
    }

    /// Runs a named batch of jobs and returns their results **in job
    /// order** (`results[i]` belongs to `jobs[i]`, regardless of which
    /// worker finished first).
    ///
    /// Previously-cached and intra-batch duplicate jobs are served
    /// without re-executing and counted as cache hits. The phase's
    /// job count, hit count, and wall time are appended to the metrics
    /// phase log under `name`.
    pub fn run_phase(&self, name: &str, jobs: &[SimJob]) -> Vec<JobResult> {
        let start = Instant::now();
        self.metrics.record_submitted(jobs.len());

        let keys: Vec<JobKey> = jobs.iter().map(SimJob::key).collect();
        let mut completed: BTreeMap<JobKey, JobResult> = BTreeMap::new();
        let mut misses: Vec<(JobKey, &SimJob)> = Vec::new();
        for (key, job) in keys.iter().zip(jobs) {
            if completed.contains_key(key) || misses.iter().any(|(k, _)| k == key) {
                continue; // intra-batch duplicate
            }
            if let Some(hit) = self.cache.get(key) {
                completed.insert(key.clone(), hit);
            } else {
                misses.push((key.clone(), job));
            }
        }
        let cache_hits = jobs.len() - misses.len();
        self.metrics.record_cache_hits(cache_hits);

        // Workers reply on an unbounded channel, so they never block on
        // us and we can safely block on the bounded task queue.
        let (reply_tx, reply_rx) = channel();
        for (ticket, (_, job)) in misses.iter().enumerate() {
            self.metrics.job_enqueued();
            self.pool
                .submit(ticket as u64, (*job).clone(), reply_tx.clone());
        }
        drop(reply_tx);
        for (ticket, result) in reply_rx {
            let key = misses[ticket as usize].0.clone();
            self.record_telemetry(&result);
            self.cache.insert(key.clone(), result.clone());
            completed.insert(key, result);
        }

        self.metrics.record_phase(PhaseStats {
            name: name.to_owned(),
            jobs: jobs.len(),
            cache_hits,
            wall: start.elapsed(),
        });
        keys.iter()
            .map(|key| {
                completed
                    .get(key)
                    .cloned()
                    .expect("every submitted job must resolve")
            })
            .collect()
    }
}

fn default_workers() -> usize {
    if let Ok(raw) = std::env::var(WORKERS_ENV) {
        if let Ok(workers) = raw.trim().parse::<usize>() {
            if workers > 0 {
                return workers;
            }
        }
        eprintln!("warning: ignoring invalid {WORKERS_ENV}={raw:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::{MaeriConfig, VnPolicy};
    use maeri_dnn::ConvLayer;

    fn layer(name: &str) -> ConvLayer {
        ConvLayer::new(name, 3, 16, 16, 8, 3, 3, 1, 1)
    }

    #[test]
    fn results_are_in_job_order() {
        let runtime = Runtime::new(4);
        let jobs: Vec<SimJob> = (0..8)
            .map(|i| {
                SimJob::dense_conv(
                    MaeriConfig::paper_64(),
                    layer(&format!("l{i}")),
                    VnPolicy::Auto,
                )
            })
            .collect();
        let results = runtime.run_batch(&jobs);
        assert_eq!(results.len(), jobs.len());
        for (i, result) in results.iter().enumerate() {
            let stats = result.as_ref().unwrap().run_stats().unwrap();
            assert_eq!(stats.label, format!("l{i}"));
        }
    }

    #[test]
    fn repeat_batches_hit_the_cache() {
        let runtime = Runtime::new(2);
        let jobs = vec![SimJob::dense_conv(
            MaeriConfig::paper_64(),
            layer("repeat"),
            VnPolicy::Auto,
        )];
        let first = runtime.run_phase("cold", &jobs);
        let second = runtime.run_phase("warm", &jobs);
        assert_eq!(first, second);
        let snapshot = runtime.metrics();
        assert_eq!(snapshot.executed, 1);
        assert_eq!(snapshot.cache_hits, 1);
        assert_eq!(snapshot.phases.len(), 2);
        assert_eq!(snapshot.phases[1].cache_hits, 1);
    }

    #[test]
    fn intra_batch_duplicates_execute_once() {
        let runtime = Runtime::new(2);
        let job = SimJob::dense_conv(MaeriConfig::paper_64(), layer("dup"), VnPolicy::Auto);
        let results = runtime.run_batch(&[job.clone(), job.clone(), job]);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        let snapshot = runtime.metrics();
        assert_eq!(snapshot.executed, 1);
        assert_eq!(snapshot.cache_hits, 2);
    }

    #[test]
    fn panic_poisons_one_result_not_the_batch() {
        let runtime = Runtime::new(2);
        let jobs = vec![
            SimJob::health_check(),
            SimJob::poison("deliberate failure"),
            SimJob::dense_conv(MaeriConfig::paper_64(), layer("survivor"), VnPolicy::Auto),
        ];
        let results = runtime.run_batch(&jobs);
        assert!(results[0].is_ok());
        assert!(matches!(
            &results[1],
            Err(crate::JobError::Panicked(message)) if message == "deliberate failure"
        ));
        assert!(results[2].is_ok());
        let snapshot = runtime.metrics();
        assert_eq!(snapshot.failed, 1);
    }

    #[test]
    fn deadline_turns_a_wedged_job_into_a_timeout() {
        let runtime = Runtime::new(1);
        let result =
            runtime.run_one_with_deadline(&SimJob::wedge(5_000), Some(Duration::from_millis(20)));
        assert!(matches!(result, Err(crate::JobError::TimedOut(_))));
        // The timeout is transient: it must not be cached, so a
        // deadline-free re-run executes the job for real.
        assert_eq!(runtime.metrics().timeouts, 1);
        assert!(runtime.cache().is_empty());
    }

    #[test]
    fn run_one_leaves_the_phase_log_empty() {
        let runtime = Runtime::new(1);
        let job = SimJob::dense_conv(MaeriConfig::paper_64(), layer("solo"), VnPolicy::Auto);
        let _ = runtime.run_one(&job);
        let _ = runtime.run_one(&job);
        let snapshot = runtime.metrics();
        assert_eq!((snapshot.executed, snapshot.cache_hits), (1, 1));
        assert!(
            snapshot.phases.is_empty(),
            "only named batches and noted phases enter the phase log"
        );
    }

    #[test]
    fn traced_run_times_executions_not_cache_hits() {
        let runtime = Runtime::new(1);
        let job = SimJob::health_check();
        let (first, ran) = runtime.run_one_traced_with_deadline(&job, None);
        assert!(first.is_ok());
        assert!(ran.is_some(), "an executed job reports its run time");
        let (second, ran) = runtime.run_one_traced_with_deadline(&job, None);
        assert_eq!(first, second);
        assert_eq!(ran, None, "a cache hit runs nothing");
        assert_eq!(runtime.metrics().executed, 1);
    }

    #[test]
    fn run_one_matches_batch_execution() {
        let runtime = Runtime::new(1);
        let job = SimJob::dense_conv(MaeriConfig::paper_64(), layer("solo"), VnPolicy::Auto);
        let solo = runtime.run_one(&job);
        let batched = Runtime::new(1).run_batch(std::slice::from_ref(&job));
        assert_eq!(solo, batched[0]);
    }

    #[test]
    fn telemetry_jobs_feed_the_telemetry_counters() {
        let runtime = Runtime::new(2);
        let job = SimJob::telemetry_conv(MaeriConfig::paper_64(), layer("probe"), VnPolicy::Auto);
        let results = runtime.run_batch(std::slice::from_ref(&job));
        let run = results[0].as_ref().unwrap().telemetry().unwrap();
        let snap = runtime.metrics();
        assert_eq!(snap.telemetry_runs, 1);
        assert_eq!(snap.telemetry_events, run.fabric.total_events());
        // A cache hit must not inflate the counters.
        let _ = runtime.run_one(&job);
        assert_eq!(runtime.metrics().telemetry_runs, 1);
    }

    #[test]
    fn env_override_parses_strictly() {
        // Do not mutate the process environment (tests run in
        // parallel); exercise the parser contract indirectly instead.
        assert!(Runtime::global().num_workers() >= 1);
    }
}
