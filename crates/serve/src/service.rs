//! The job-queue service: per-tenant fair scheduling, admission
//! control, verifier pre-flight, the persistent result store, and the
//! write-ahead admission journal.
//!
//! Lifecycle of one submit:
//!
//! 1. **verify** — `SimJob::verify()` (the `maeri-verify` static
//!    checker) runs on the caller's thread; an illegal mapping is
//!    rejected before it can occupy a queue slot.
//! 2. **store lookup** — a content-hash hit in the persistent store
//!    completes the job immediately, without queueing.
//! 3. **admission** — each tenant owns a bounded number of in-flight
//!    jobs (queued + running); at the bound the submit is rejected
//!    with backpressure rather than queued unboundedly. A tenant whose
//!    jobs repeatedly time out is quarantined by a circuit breaker
//!    ([`SubmitError::CircuitOpen`]) until a cooldown expires and a
//!    half-open probe succeeds.
//! 4. **journal** — wire-level submits ([`Service::submit_spec`]) are
//!    appended to the write-ahead journal *before* the ticket is
//!    returned, so an acknowledged job survives a process crash:
//!    [`Service::start`] replays admits without tombstones,
//!    deduplicating against the store and re-enqueueing the rest under
//!    their original ids.
//! 5. **dispatch** — worker threads drain tenants round-robin in
//!    first-submit order, so a flooding tenant cannot starve a quiet
//!    one; results are appended to the store (first write wins), the
//!    journal gets a tombstone, and the outcome is published on the
//!    job's ticket. A per-request `deadline_ms` rides into the runtime
//!    watchdog, so a wedged simulation is abandoned as a structured
//!    timeout instead of wedging the worker forever.
//!
//! Transient failures (panics, timeouts) are *not* persisted — only
//! deterministic outcomes enter the content-addressed log, mirroring
//! the runtime cache's policy. A published timeout still tombstones
//! the journal: the caller got a structured answer, so the job is not
//! an orphan.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use maeri_runtime::{AttemptOutcome, DispatchTrace, JobError, Runtime, SimJob};
use maeri_telemetry::span::{SpanKind, SpanRecord};

use crate::journal::{AdmitRecord, Journal};
use crate::metrics::{ServiceMetrics, ServiceSnapshot};
use crate::recorder::{FlightRecorder, RecorderConfig};
use crate::registry::{MetricsRegistry, SloTracker};
use crate::store::{ResultStore, StoreError, StoredResult};
use crate::wire::JobSpec;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Maximum in-flight (queued + running) jobs per tenant; submits
    /// beyond this are rejected with backpressure.
    pub per_tenant_depth: usize,
    /// Persistent store path; `None` runs memory-only.
    pub store_path: Option<std::path::PathBuf>,
    /// Write-ahead admission journal path; `None` disables journaling
    /// (and with it crash-safe replay) at zero overhead.
    pub journal_path: Option<std::path::PathBuf>,
    /// How long [`Service::shutdown`] (and `Drop`) waits for queued
    /// jobs to finish before abandoning them. Abandoned journaled jobs
    /// are re-run by the next [`Service::start`] on the same journal.
    pub close_grace: Duration,
    /// Consecutive per-tenant timeouts that open the circuit breaker;
    /// `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker quarantines its tenant before letting
    /// one half-open probe through.
    pub breaker_cooldown: Duration,
    /// Flight-recorder configuration; `None` (the default) disables
    /// request-path tracing entirely — no spans are built, stamped,
    /// or stored, so every byte-stable report is unaffected. Setting
    /// `MAERI_TRACE=1` flips the *default* to a memory-only ring
    /// ([`RecorderConfig::default`]) — CI uses this to prove tracing
    /// never perturbs report output.
    pub recorder: Option<RecorderConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            per_tenant_depth: 64,
            store_path: None,
            journal_path: None,
            close_grace: Duration::from_secs(5),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            recorder: std::env::var_os("MAERI_TRACE")
                .filter(|v| v != "0")
                .map(|_| RecorderConfig::default()),
        }
    }
}

/// Why a submit was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant is at its in-flight bound; retry after completions.
    Backpressure {
        /// The rejected tenant.
        tenant: String,
        /// The bound that was hit.
        depth: usize,
    },
    /// The static verifier proved the mapping illegal.
    InvalidMapping(String),
    /// The wire-level job spec could not be lowered into a runnable
    /// job (bad fabric geometry, malformed layer).
    InvalidSpec(String),
    /// The tenant's circuit breaker is open: its recent jobs kept
    /// timing out, so new work is quarantined until a cooldown probe
    /// succeeds.
    CircuitOpen {
        /// The quarantined tenant.
        tenant: String,
    },
    /// The service is shutting down.
    Closed,
    /// The scheduler lock was poisoned by a panicking worker: the
    /// queue state can no longer be trusted, so admission is refused
    /// instead of risking a half-updated schedule.
    Poisoned,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure { tenant, depth } => {
                write!(f, "tenant `{tenant}` is at its in-flight bound of {depth}")
            }
            SubmitError::InvalidMapping(msg) => write!(f, "invalid mapping: {msg}"),
            SubmitError::InvalidSpec(msg) => write!(f, "invalid job spec: {msg}"),
            SubmitError::CircuitOpen { tenant } => write!(
                f,
                "tenant `{tenant}` is quarantined: repeated timeouts opened the circuit breaker"
            ),
            SubmitError::Closed => write!(f, "service is shutting down"),
            SubmitError::Poisoned => {
                write!(
                    f,
                    "scheduler state is poisoned; the service must be restarted"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A job's position in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in its tenant's queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a successful result.
    Done,
    /// Finished with a structured error.
    Failed,
}

impl JobStatus {
    /// The wire-protocol status string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// A snapshot of one submitted job's state.
#[derive(Debug, Clone)]
pub struct JobTicket {
    /// The job id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// The job's display label.
    pub label: String,
    /// Current lifecycle position.
    pub status: JobStatus,
    /// The outcome, once `Done` or `Failed`.
    pub result: Option<StoredResult>,
    /// Completion order among finished jobs (1-based), for fairness
    /// assertions in tests.
    pub completion_seq: Option<u64>,
}

struct Ticket {
    tenant: String,
    label: String,
    status: JobStatus,
    result: Option<StoredResult>,
    completion_seq: Option<u64>,
    submitted_at: Instant,
}

/// The per-tenant circuit breaker's position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation.
    #[default]
    Closed,
    /// Quarantined: submits are rejected until the cooldown expires.
    Open,
    /// Cooldown expired; exactly one probe job is in flight and
    /// further submits stay rejected until it resolves.
    HalfOpen,
}

#[derive(Debug, Default)]
struct Breaker {
    state: BreakerState,
    consecutive_timeouts: u32,
    open_until: Option<Instant>,
}

/// One queued unit of work: ticket id, lowered job, the optional
/// per-request deadline that travels with it to the worker, and the
/// recorder timestamp (µs) at which admission finished — the start of
/// the job's `queue_wait` span (zero when tracing is off).
type QueuedJob = (u64, SimJob, Option<Duration>, u64);

struct Sched {
    /// Per-tenant queues in first-submit order; the ring is scanned
    /// round-robin from `cursor`.
    queues: Vec<(String, VecDeque<QueuedJob>)>,
    cursor: usize,
    /// Queued + running jobs per tenant (the admission-control gauge).
    inflight: BTreeMap<String, usize>,
    tickets: BTreeMap<u64, Ticket>,
    breakers: BTreeMap<String, Breaker>,
    shutdown: bool,
}

impl Sched {
    /// Pops the next job round-robin; `None` when every queue is empty.
    fn next_job(&mut self) -> Option<QueuedJob> {
        if self.queues.is_empty() {
            return None;
        }
        for step in 0..self.queues.len() {
            let idx = (self.cursor + step) % self.queues.len();
            if let Some(job) = self.queues[idx].1.pop_front() {
                self.cursor = (idx + 1) % self.queues.len();
                return Some(job);
            }
        }
        None
    }

    fn enqueue(&mut self, tenant: &str, entry: QueuedJob) {
        if let Some((_, queue)) = self.queues.iter_mut().find(|(name, _)| name == tenant) {
            queue.push_back(entry);
        } else {
            let mut queue = VecDeque::new();
            queue.push_back(entry);
            self.queues.push((tenant.to_owned(), queue));
        }
    }
}

struct Shared {
    sched: Mutex<Sched>,
    work_ready: Condvar,
    job_done: Condvar,
    metrics: ServiceMetrics,
    completion_counter: AtomicU64,
    runtime: Arc<Runtime>,
    store: Option<ResultStore>,
    journal: Option<Journal>,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    closing: AtomicBool,
    recorder: Option<FlightRecorder>,
    slo: SloTracker,
}

/// The two spans of a submit rejected after a clean verify: the
/// verify phase, then an admission phase carrying the reject cause.
fn reject_spans(
    rec: &FlightRecorder,
    tenant: &str,
    t0: u64,
    verify_end: u64,
    cause: &str,
) -> [SpanRecord; 2] {
    [
        SpanRecord::between(0, tenant, SpanKind::Verify, t0, verify_end, "ok"),
        SpanRecord::between(
            0,
            tenant,
            SpanKind::Admission,
            verify_end,
            rec.now_us(),
            cause,
        ),
    ]
}

/// `Duration` to whole microseconds, saturating.
fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The batch-inference simulation service.
///
/// Dropping the service shuts it down: workers finish in-flight jobs
/// up to [`ServeConfig::close_grace`], anything still queued past the
/// grace is abandoned (and, when journaled, re-run by the next start),
/// and threads are joined.
pub struct Service {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    config: ServeConfig,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Starts the service: opens (or creates) the persistent store and
    /// the write-ahead journal, replays orphaned admissions from the
    /// journal — answering those the store already holds, re-enqueueing
    /// the rest under their original ids — compacts the journal, and
    /// spawns the worker threads.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] when the store or journal log cannot
    /// be opened. On-disk corruption is never an error: both logs
    /// recover by trimming/skipping and report what they found in the
    /// `store_*` and `journal_*` rows of [`ServiceSnapshot`].
    pub fn start(config: ServeConfig, runtime: Arc<Runtime>) -> Result<Self, StoreError> {
        let metrics = ServiceMetrics::new();
        let set = |cell: &AtomicU64, value: u64| cell.store(value, Ordering::Relaxed);
        let store = match &config.store_path {
            Some(path) => {
                let (store, recovery) = ResultStore::open(path)?;
                set(&metrics.store_recovered_entries, recovery.entries as u64);
                set(&metrics.store_truncated_bytes, recovery.truncated_bytes);
                set(&metrics.store_skipped_entries, recovery.skipped as u64);
                Some(store)
            }
            None => None,
        };
        let journal_pair = match &config.journal_path {
            Some(path) => Some(Journal::open(path)?),
            None => None,
        };
        let recorder = match &config.recorder {
            Some(rc) => Some(FlightRecorder::open(rc)?),
            None => None,
        };
        let replay_us = recorder.as_ref().map_or(0, FlightRecorder::now_us);

        let mut sched = Sched {
            queues: Vec::new(),
            cursor: 0,
            inflight: BTreeMap::new(),
            tickets: BTreeMap::new(),
            breakers: BTreeMap::new(),
            shutdown: false,
        };
        let mut completions = 0u64;
        let mut next_id = 1u64;

        // Replay: every admit without a tombstone is a job some caller
        // was acknowledged for but never got an outcome on. Jobs whose
        // result already reached the store complete immediately; the
        // rest re-enter the queues under their original ids, before
        // any worker starts.
        let journal = if let Some((journal, recovery)) = journal_pair {
            set(&metrics.journal_truncated_bytes, recovery.truncated_bytes);
            set(&metrics.journal_skipped_records, recovery.skipped as u64);
            next_id = recovery.max_id + 1;
            let mut live: Vec<AdmitRecord> = Vec::new();
            for admit in &recovery.orphans {
                let Ok(job) = admit.spec.to_sim_job() else {
                    metrics
                        .journal_skipped_records
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let label = job.label();
                metrics.admitted.fetch_add(1, Ordering::Relaxed);
                let stored = store.as_ref().and_then(|s| s.get(&job.key()));
                if let Some(result) = stored {
                    // The crash landed between the store append and the
                    // tombstone: the work is done, only the ack is owed.
                    metrics.store_hits.fetch_add(1, Ordering::Relaxed);
                    metrics
                        .journal_recovered_from_store
                        .fetch_add(1, Ordering::Relaxed);
                    completions += 1;
                    let status = if result.ok {
                        JobStatus::Done
                    } else {
                        JobStatus::Failed
                    };
                    sched.tickets.insert(
                        admit.id,
                        Ticket {
                            tenant: admit.tenant.clone(),
                            label,
                            status,
                            result: Some(result),
                            completion_seq: Some(completions),
                            submitted_at: Instant::now(),
                        },
                    );
                } else {
                    metrics.job_queued();
                    metrics
                        .journal_orphans_replayed
                        .fetch_add(1, Ordering::Relaxed);
                    *sched.inflight.entry(admit.tenant.clone()).or_insert(0) += 1;
                    sched.tickets.insert(
                        admit.id,
                        Ticket {
                            tenant: admit.tenant.clone(),
                            label,
                            status: JobStatus::Queued,
                            result: None,
                            completion_seq: None,
                            submitted_at: Instant::now(),
                        },
                    );
                    sched.enqueue(
                        &admit.tenant,
                        (
                            admit.id,
                            job,
                            admit.deadline_ms.map(Duration::from_millis),
                            replay_us,
                        ),
                    );
                    live.push(admit.clone());
                }
            }
            journal.compact(&live)?;
            Some(journal)
        } else {
            None
        };

        let shared = Arc::new(Shared {
            sched: Mutex::new(sched),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            metrics,
            completion_counter: AtomicU64::new(completions),
            runtime,
            store,
            journal,
            breaker_threshold: config.breaker_threshold,
            breaker_cooldown: config.breaker_cooldown,
            closing: AtomicBool::new(false),
            recorder,
            slo: SloTracker::default(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("maeri-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| StoreError::io("spawn service worker thread", &e))
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        Ok(Service {
            shared,
            next_id: AtomicU64::new(next_id),
            config,
            workers: Mutex::new(workers),
        })
    }

    /// Submits one raw runtime job for `tenant`; returns its id.
    ///
    /// A persistent-store hit completes the job immediately (the
    /// returned id is already `Done`). Otherwise the job is queued,
    /// subject to the tenant's in-flight bound and circuit breaker.
    ///
    /// Raw `SimJob`s have no replayable wire encoding, so this path is
    /// **not** journaled; use [`Service::submit_spec`] for crash-safe
    /// admission.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidMapping`] from the verifier pre-flight,
    /// [`SubmitError::Backpressure`] at the bound,
    /// [`SubmitError::CircuitOpen`] for a quarantined tenant, or
    /// [`SubmitError::Closed`] during shutdown.
    pub fn submit(&self, tenant: &str, job: SimJob) -> Result<u64, SubmitError> {
        self.admit(tenant, job, None, None)
    }

    /// [`Service::submit`] with a per-request deadline: the runtime
    /// watchdog abandons the job past `deadline_ms` and publishes a
    /// structured timeout.
    ///
    /// # Errors
    ///
    /// Same as [`Service::submit`].
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        job: SimJob,
        deadline_ms: u64,
    ) -> Result<u64, SubmitError> {
        self.admit(tenant, job, Some(deadline_ms), None)
    }

    /// Submits one wire-level job spec for `tenant`, journaled: the
    /// admit record is durably appended *before* the id is returned,
    /// so an acknowledged job survives a crash (store fast-path hits
    /// complete at admission and need no journal entry). An optional
    /// `deadline_ms` is enforced by the runtime watchdog and preserved
    /// across replay.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidSpec`] when the spec cannot be lowered,
    /// plus everything [`Service::submit`] returns.
    pub fn submit_spec(
        &self,
        tenant: &str,
        spec: &JobSpec,
        deadline_ms: Option<u64>,
    ) -> Result<u64, SubmitError> {
        let job = spec.to_sim_job().map_err(SubmitError::InvalidSpec)?;
        self.admit(tenant, job, deadline_ms, Some(spec))
    }

    /// The shared admission path. `journal_spec` is the wire form to
    /// journal, when the caller has one.
    fn admit(
        &self,
        tenant: &str,
        job: SimJob,
        deadline_ms: Option<u64>,
        journal_spec: Option<&JobSpec>,
    ) -> Result<u64, SubmitError> {
        let metrics = &self.shared.metrics;
        metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let rec = self.shared.recorder.as_ref();
        let submit_started = Instant::now();
        // Spans of rejected submits carry job id 0: rejection happens
        // before an id is acknowledged, and concurrent rejects may
        // interleave (the validator exempts id 0 from the per-job
        // phase ordering for exactly this reason).
        let t0 = rec.map_or(0, FlightRecorder::now_us);
        if self.shared.closing.load(Ordering::Relaxed) {
            if let Some(rec) = rec {
                rec.record(&SpanRecord::between(
                    0,
                    tenant,
                    SpanKind::Admission,
                    t0,
                    rec.now_us(),
                    "closed",
                ));
            }
            return Err(SubmitError::Closed);
        }
        if let Err(err) = job.verify() {
            metrics.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = rec {
                rec.record(&SpanRecord::between(
                    0,
                    tenant,
                    SpanKind::Verify,
                    t0,
                    rec.now_us(),
                    "rejected_invalid",
                ));
            }
            return Err(SubmitError::InvalidMapping(err.canonical_text()));
        }
        let verify_end = rec.map_or(0, FlightRecorder::now_us);
        let label = job.label();
        // Store fast path: answer content-addressed repeats without a
        // queue slot (and without a journal record — nothing is owed).
        let stored = self
            .shared
            .store
            .as_ref()
            .and_then(|store| store.get(&job.key()));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut sched = self
            .shared
            .sched
            .lock()
            .map_err(|_| SubmitError::Poisoned)?;
        if sched.shutdown {
            if let Some(rec) = rec {
                rec.record_batch(&reject_spans(rec, tenant, t0, verify_end, "closed"));
            }
            return Err(SubmitError::Closed);
        }
        if let Some(result) = stored {
            metrics.admitted.fetch_add(1, Ordering::Relaxed);
            metrics.store_hits.fetch_add(1, Ordering::Relaxed);
            let seq = self
                .shared
                .completion_counter
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            let ok = result.ok;
            let status = if ok {
                JobStatus::Done
            } else {
                JobStatus::Failed
            };
            sched.tickets.insert(
                id,
                Ticket {
                    tenant: tenant.to_owned(),
                    label,
                    status,
                    result: Some(result),
                    completion_seq: Some(seq),
                    submitted_at: Instant::now(),
                },
            );
            let latency_us =
                u64::try_from(submit_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.shared.slo.observe(tenant, latency_us, ok);
            if let Some(rec) = rec {
                let answered = rec.now_us();
                rec.record_batch(&[
                    SpanRecord::between(id, tenant, SpanKind::Verify, t0, verify_end, "ok"),
                    SpanRecord::between(
                        id,
                        tenant,
                        SpanKind::Admission,
                        verify_end,
                        answered,
                        "store_hit",
                    ),
                    SpanRecord::between(
                        id,
                        tenant,
                        SpanKind::Reply,
                        answered,
                        rec.now_us(),
                        if ok { "ok" } else { "error" },
                    ),
                ]);
            }
            drop(sched);
            self.shared.job_done.notify_all();
            return Ok(id);
        }
        // Circuit breaker: a tenant whose jobs keep timing out is
        // quarantined; after the cooldown exactly one probe passes.
        if self.shared.breaker_threshold > 0 {
            if let Some(breaker) = sched.breakers.get_mut(tenant) {
                match breaker.state {
                    BreakerState::Open => {
                        let expired = breaker
                            .open_until
                            .is_some_and(|until| Instant::now() >= until);
                        if expired {
                            breaker.state = BreakerState::HalfOpen;
                            metrics.breaker_half_open.fetch_add(1, Ordering::Relaxed);
                        } else {
                            metrics.rejected_circuit.fetch_add(1, Ordering::Relaxed);
                            if let Some(rec) = rec {
                                rec.record_batch(&reject_spans(
                                    rec,
                                    tenant,
                                    t0,
                                    verify_end,
                                    "rejected_circuit",
                                ));
                            }
                            return Err(SubmitError::CircuitOpen {
                                tenant: tenant.to_owned(),
                            });
                        }
                    }
                    BreakerState::HalfOpen => {
                        metrics.rejected_circuit.fetch_add(1, Ordering::Relaxed);
                        if let Some(rec) = rec {
                            rec.record_batch(&reject_spans(
                                rec,
                                tenant,
                                t0,
                                verify_end,
                                "rejected_circuit",
                            ));
                        }
                        return Err(SubmitError::CircuitOpen {
                            tenant: tenant.to_owned(),
                        });
                    }
                    BreakerState::Closed => {}
                }
            }
        }
        let inflight = sched.inflight.entry(tenant.to_owned()).or_insert(0);
        if *inflight >= self.config.per_tenant_depth {
            metrics
                .rejected_backpressure
                .fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = rec {
                rec.record_batch(&reject_spans(
                    rec,
                    tenant,
                    t0,
                    verify_end,
                    "rejected_backpressure",
                ));
            }
            return Err(SubmitError::Backpressure {
                tenant: tenant.to_owned(),
                depth: self.config.per_tenant_depth,
            });
        }
        *inflight += 1;
        metrics.admitted.fetch_add(1, Ordering::Relaxed);
        metrics.job_queued();
        // Write-ahead: the admit record must be durable before the
        // caller sees the id. Appending under the scheduler lock keeps
        // journal order consistent with admission order (a worker
        // cannot tombstone this id before its admit is on disk).
        let admit_decided = rec.map_or(0, FlightRecorder::now_us);
        let mut journal_span: Option<SpanRecord> = None;
        if let (Some(journal), Some(spec)) = (&self.shared.journal, journal_spec) {
            let j_start = rec.map_or(0, FlightRecorder::now_us);
            let record = AdmitRecord {
                id,
                tenant: tenant.to_owned(),
                deadline_ms,
                spec: spec.clone(),
            };
            let appended = journal.append_admit(&record).is_ok();
            if appended {
                metrics.journal_appends.fetch_add(1, Ordering::Relaxed);
            } else {
                metrics
                    .journal_append_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            if let Some(rec) = rec {
                journal_span = Some(SpanRecord::between(
                    id,
                    tenant,
                    SpanKind::JournalAppend,
                    j_start,
                    rec.now_us(),
                    if appended { "ok" } else { "error" },
                ));
            }
        }
        sched.tickets.insert(
            id,
            Ticket {
                tenant: tenant.to_owned(),
                label,
                status: JobStatus::Queued,
                result: None,
                completion_seq: None,
                submitted_at: Instant::now(),
            },
        );
        // Record the admission spans while still holding the scheduler
        // lock: a worker cannot pop this job (and emit its queue_wait
        // span) before the enqueue below is visible, so each job's
        // spans land in phase order, and the span log is flushed
        // before the caller is acknowledged — the durability the
        // SIGKILL postmortem contract rests on.
        let admit_end = if let Some(rec) = rec {
            let mut spans = vec![
                SpanRecord::between(id, tenant, SpanKind::Verify, t0, verify_end, "ok"),
                SpanRecord::between(
                    id,
                    tenant,
                    SpanKind::Admission,
                    verify_end,
                    admit_decided,
                    "ok",
                ),
            ];
            spans.extend(journal_span);
            rec.record_batch(&spans);
            rec.now_us()
        } else {
            0
        };
        sched.enqueue(
            tenant,
            (id, job, deadline_ms.map(Duration::from_millis), admit_end),
        );
        drop(sched);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// A snapshot of one job's ticket; `None` for unknown ids.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobTicket> {
        let sched = self.shared.sched.lock().expect("scheduler mutex poisoned");
        sched.tickets.get(&id).map(|t| JobTicket {
            id,
            tenant: t.tenant.clone(),
            label: t.label.clone(),
            status: t.status,
            result: t.result.clone(),
            completion_seq: t.completion_seq,
        })
    }

    /// Blocks until job `id` finishes; returns its stored result, or
    /// `None` for unknown ids.
    #[must_use]
    pub fn wait(&self, id: u64) -> Option<StoredResult> {
        let mut sched = self.shared.sched.lock().expect("scheduler mutex poisoned");
        loop {
            match sched.tickets.get(&id) {
                None => return None,
                Some(ticket) if ticket.result.is_some() => return ticket.result.clone(),
                Some(_) => {
                    sched = self
                        .shared
                        .job_done
                        .wait(sched)
                        .expect("scheduler mutex poisoned");
                }
            }
        }
    }

    /// Blocks until every queued job has finished.
    pub fn drain(&self) {
        let mut sched = self.shared.sched.lock().expect("scheduler mutex poisoned");
        while self.shared.metrics.queue_depth.load(Ordering::Relaxed) > 0 {
            sched = self
                .shared
                .job_done
                .wait(sched)
                .expect("scheduler mutex poisoned");
        }
        drop(sched);
    }

    /// The service metrics snapshot: every row of the metric table,
    /// including the runtime cache counters, the store size, and what
    /// recovery found at start.
    #[must_use]
    pub fn stats(&self) -> ServiceSnapshot {
        let shared = &self.shared;
        shared.metrics.snapshot(
            shared.runtime.cache_stats(),
            shared.store.as_ref(),
            shared.recorder.as_ref(),
        )
    }

    /// The shared runtime executing this service's jobs.
    #[must_use]
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.shared.runtime
    }

    /// The flight recorder, when [`ServeConfig::recorder`] enabled one.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.shared.recorder.as_ref()
    }

    /// The per-tenant SLO tracker (always on; scoring one completion
    /// is a histogram record, not a trace).
    #[must_use]
    pub fn slo(&self) -> &SloTracker {
        &self.shared.slo
    }

    /// The service's full metric surface rendered as Prometheus text
    /// exposition: one sample per row of the metric table, then the
    /// SLO target and the per-tenant SLO scorecard. This is the body of
    /// the `metrics` wire verb.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut reg = MetricsRegistry::new();
        for (row, value) in self.stats().rows() {
            let labels = row.label.as_slice();
            reg.push(row.family, row.help, row.kind, labels, value as f64);
        }
        self.shared.slo.expose(&mut reg);
        reg.render()
    }

    /// Stops accepting work, waits up to [`ServeConfig::close_grace`]
    /// for queued and running jobs to finish, abandons whatever is
    /// still queued past the grace (journaled jobs are re-run by the
    /// next start), and joins the workers.
    pub fn shutdown(&self) {
        self.shutdown_with_grace(self.config.close_grace);
    }

    /// Shuts down with **zero** grace, like a crash with joined
    /// threads: running jobs finish (a thread cannot be killed), but
    /// everything queued is abandoned on the spot. The chaos harness
    /// and the crash-recovery tests use this to orphan admitted work
    /// deterministically. When the flight recorder has a postmortem
    /// path configured, the ring is dumped to it as the last act (a
    /// graceful [`Service::shutdown`] writes no dump — nothing died).
    pub fn crash(&self) {
        self.shutdown_with_grace(Duration::ZERO);
        if let Some(rec) = &self.shared.recorder {
            let _ = rec.postmortem_dump();
        }
    }

    fn shutdown_with_grace(&self, grace: Duration) {
        self.shared.closing.store(true, Ordering::Relaxed);
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().expect("worker-handle mutex poisoned");
            workers.drain(..).collect()
        };
        if handles.is_empty() {
            return; // already shut down (e.g. crash() followed by Drop)
        }
        let deadline = Instant::now() + grace;
        {
            let mut sched = self.shared.sched.lock().expect("scheduler mutex poisoned");
            // Grace drain: queue_depth counts queued + running, so this
            // waits for in-flight work too, bounded by the deadline.
            while self.shared.metrics.queue_depth.load(Ordering::Relaxed) > 0 {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self
                    .shared
                    .job_done
                    .wait_timeout(sched, deadline - now)
                    .expect("scheduler mutex poisoned");
                sched = guard;
            }
            sched.shutdown = true;
            // Abandon anything still queued: tickets stay Queued, and
            // journaled admits keep their records for the next replay.
            for (_, queue) in &mut sched.queues {
                queue.clear();
            }
        }
        self.shared.work_ready.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let ((id, job, deadline, admit_us), tenant) = {
            let mut sched = shared.sched.lock().expect("scheduler mutex poisoned");
            loop {
                // Shutdown outranks the queue: past the grace period
                // the remaining backlog is abandoned, not drained.
                if sched.shutdown {
                    return;
                }
                if let Some(work) = sched.next_job() {
                    let tenant = match sched.tickets.get_mut(&work.0) {
                        Some(ticket) => {
                            ticket.status = JobStatus::Running;
                            ticket.tenant.clone()
                        }
                        None => String::new(),
                    };
                    break (work, tenant);
                }
                sched = shared
                    .work_ready
                    .wait(sched)
                    .expect("scheduler mutex poisoned");
            }
        };
        let rec = shared.recorder.as_ref();
        let dispatch_start = rec.map_or(0, FlightRecorder::now_us);
        let (result, dispatch) = match rec {
            Some(_) => shared.runtime.run_one_traced_with_deadline(&job, deadline),
            None => (
                shared.runtime.run_one_with_deadline(&job, deadline),
                DispatchTrace::default(),
            ),
        };
        let dispatch_end = rec.map_or(0, FlightRecorder::now_us);
        let timed_out = matches!(&result, Err(JobError::TimedOut(_)));
        let stored = StoredResult::from_result(&job.label(), &result);
        let mut spans: Vec<SpanRecord> = Vec::new();
        if rec.is_some() {
            spans.push(SpanRecord::between(
                id,
                &tenant,
                SpanKind::QueueWait,
                admit_us,
                dispatch_start,
                "ok",
            ));
            spans.push(SpanRecord::between(
                id,
                &tenant,
                SpanKind::Dispatch,
                dispatch_start,
                dispatch_end,
                AttemptOutcome::classify(&result).name(),
            ));
            for attempt in &dispatch.attempts {
                spans.push(SpanRecord {
                    job: id,
                    tenant: tenant.clone(),
                    kind: SpanKind::Attempt,
                    start_us: dispatch_start + us(attempt.start_offset),
                    dur_us: us(attempt.dur),
                    status: attempt.outcome.name().to_owned(),
                });
            }
        }
        // Persist deterministic outcomes only: a panic or timeout may
        // succeed on the next submit, so it must not be replayable.
        let deterministic = match &result {
            Ok(_) => true,
            Err(err) => !err.is_transient(),
        };
        if deterministic {
            if let Some(store) = &shared.store {
                let put_start = rec.map_or(0, FlightRecorder::now_us);
                let put_ok = store.put(&job.key(), &stored).is_ok();
                if !put_ok {
                    shared
                        .metrics
                        .store_put_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                if let Some(rec) = rec {
                    spans.push(SpanRecord::between(
                        id,
                        &tenant,
                        SpanKind::StorePut,
                        put_start,
                        rec.now_us(),
                        if put_ok { "ok" } else { "error" },
                    ));
                }
            }
        }
        // Tombstone after the store append: a crash in between replays
        // the admit and dedupes it from the store; a crash before the
        // append re-runs the job. Either way nothing acknowledged is
        // lost. Transient outcomes are tombstoned too — the caller got
        // a structured answer, so the job is not an orphan.
        if let Some(journal) = &shared.journal {
            let tomb_start = rec.map_or(0, FlightRecorder::now_us);
            let tomb_ok = journal.append_tombstone(id).is_ok();
            if tomb_ok {
                shared
                    .metrics
                    .journal_appends
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                shared
                    .metrics
                    .journal_append_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            if let Some(rec) = rec {
                spans.push(SpanRecord::between(
                    id,
                    &tenant,
                    SpanKind::JournalAppend,
                    tomb_start,
                    rec.now_us(),
                    if tomb_ok { "ok" } else { "error" },
                ));
            }
        }
        let reply_start = rec.map_or(0, FlightRecorder::now_us);
        let seq = shared.completion_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut latency_us: Option<u64> = None;
        {
            let mut sched = shared.sched.lock().expect("scheduler mutex poisoned");
            if let Some(ticket) = sched.tickets.get_mut(&id) {
                ticket.status = if stored.ok {
                    JobStatus::Done
                } else {
                    JobStatus::Failed
                };
                let latency = ticket.submitted_at.elapsed();
                ticket.result = Some(stored.clone());
                ticket.completion_seq = Some(seq);
                let tenant = ticket.tenant.clone();
                if let Some(count) = sched.inflight.get_mut(&tenant) {
                    *count = count.saturating_sub(1);
                }
                let wall_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
                latency_us = Some(wall_us);
                shared.metrics.job_finished(wall_us);
                if shared.breaker_threshold > 0 {
                    let breaker = sched.breakers.entry(tenant).or_default();
                    if timed_out {
                        breaker.consecutive_timeouts += 1;
                        let trip = breaker.state == BreakerState::HalfOpen
                            || (breaker.state == BreakerState::Closed
                                && breaker.consecutive_timeouts >= shared.breaker_threshold);
                        if trip {
                            breaker.state = BreakerState::Open;
                            breaker.open_until = Some(Instant::now() + shared.breaker_cooldown);
                            shared
                                .metrics
                                .breaker_opened
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        breaker.consecutive_timeouts = 0;
                        if breaker.state == BreakerState::HalfOpen {
                            breaker.state = BreakerState::Closed;
                            breaker.open_until = None;
                            shared
                                .metrics
                                .breaker_closed
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        if timed_out {
            shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        if stored.ok {
            shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(wall_us) = latency_us {
            shared.slo.observe(&tenant, wall_us, stored.ok);
        }
        // The reply span closes the job's trace; record the worker's
        // whole batch before waking waiters so a crash() right after
        // wait() returns still finds the full trace in the ring.
        if let Some(rec) = rec {
            spans.push(SpanRecord::between(
                id,
                &tenant,
                SpanKind::Reply,
                reply_start,
                rec.now_us(),
                if stored.ok { "ok" } else { "error" },
            ));
            rec.record_batch(&spans);
        }
        shared.job_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::MaeriConfig;
    use maeri_dnn::ConvLayer;
    use maeri_runtime::SimJob;

    fn service(workers: usize, depth: usize) -> Service {
        Service::start(
            ServeConfig {
                workers,
                per_tenant_depth: depth,
                ..ServeConfig::default()
            },
            Arc::new(Runtime::new(1)),
        )
        .expect("memory-only service cannot fail to start")
    }

    #[test]
    fn submit_wait_round_trip() {
        let svc = service(2, 8);
        let layer = ConvLayer::new("t_conv", 3, 16, 16, 8, 3, 3, 1, 1);
        let id = svc
            .submit(
                "t0",
                SimJob::dense_conv(MaeriConfig::paper_64(), layer, maeri::VnPolicy::Auto),
            )
            .unwrap();
        let result = svc.wait(id).unwrap();
        assert!(result.ok);
        assert_eq!(result.kind, "run");
        assert!(result.cycles > 0);
        let snap = svc.stats();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn verifier_rejects_at_admission() {
        let svc = service(1, 8);
        let layer = ConvLayer::new("t_sparse", 3, 8, 8, 4, 3, 3, 1, 1);
        // channel_tile beyond the layer's channel count is illegal.
        let bad = SimJob::sparse_conv(MaeriConfig::paper_64(), layer, 0.5, 99, 1);
        let err = svc.submit("t0", bad).unwrap_err();
        assert!(matches!(err, SubmitError::InvalidMapping(_)));
        let snap = svc.stats();
        assert_eq!(snap.rejected_invalid, 1);
        assert_eq!(snap.admitted, 0);
    }

    #[test]
    fn backpressure_at_the_tenant_bound() {
        let svc = service(1, 2);
        // Wedge the single worker so queued jobs cannot drain.
        svc.submit("t0", SimJob::wedge(120)).unwrap();
        svc.submit("t0", SimJob::wedge(1)).unwrap();
        // Depth 2 reached (one running or queued + one queued); a
        // third submit may race the worker picking up the first, so
        // push until rejection — it must come within the bound + 1.
        let mut rejected = None;
        for _ in 0..3 {
            if let Err(err) = svc.submit("t0", SimJob::wedge(1)) {
                rejected = Some(err);
                break;
            }
        }
        let err = rejected.expect("the tenant bound must reject a flood");
        assert!(matches!(err, SubmitError::Backpressure { depth: 2, .. }));
        // A different tenant is not affected by t0's backpressure.
        svc.submit("t1", SimJob::health_check()).unwrap();
        svc.drain();
        assert!(svc.stats().rejected_backpressure >= 1);
    }

    #[test]
    fn round_robin_is_fair_across_tenants() {
        let svc = service(1, 16);
        // Wedge the single worker, then let a flooding tenant and a
        // quiet tenant race for the queue.
        let blocker = svc.submit("flood", SimJob::wedge(100)).unwrap();
        let flood: Vec<u64> = (0..4u64)
            .map(|i| svc.submit("flood", SimJob::wedge(1 + i)).unwrap())
            .collect();
        let quiet = svc.submit("quiet", SimJob::wedge(1)).unwrap();
        svc.drain();
        let _ = svc.wait(blocker);
        let quiet_seq = svc.status(quiet).unwrap().completion_seq.unwrap();
        let flood_last = svc.status(flood[3]).unwrap().completion_seq.unwrap();
        assert!(
            quiet_seq < flood_last,
            "round-robin must not let tenant `flood` starve tenant `quiet` \
             (quiet finished {quiet_seq}, flood's last {flood_last})"
        );
    }

    #[test]
    fn submit_after_shutdown_returns_closed() {
        let svc = service(1, 8);
        let id = svc.submit("t0", SimJob::health_check()).unwrap();
        assert!(svc.wait(id).unwrap().ok);
        svc.shutdown();
        let err = svc.submit("t0", SimJob::health_check()).unwrap_err();
        assert_eq!(err, SubmitError::Closed);
    }

    #[test]
    fn crash_abandons_queued_jobs_but_shutdown_grace_drains_them() {
        // Crash: zero grace, one worker wedged — queued jobs must stay
        // Queued, and crash() must return without draining them.
        let svc = service(1, 16);
        let running = svc.submit("t0", SimJob::wedge(150)).unwrap();
        let queued: Vec<u64> = (0..3)
            .map(|i| svc.submit("t0", SimJob::wedge(200 + i)).unwrap())
            .collect();
        // Don't crash until the worker has actually picked up the
        // first job, or it may be abandoned while still queued.
        while svc.status(running).unwrap().status == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(2));
        }
        svc.crash();
        assert!(
            svc.status(running).unwrap().result.is_some(),
            "the running job finishes (threads cannot be killed)"
        );
        for id in queued {
            assert_eq!(
                svc.status(id).unwrap().status,
                JobStatus::Queued,
                "queued work past the grace is abandoned, not run"
            );
        }

        // Graceful: the default close_grace comfortably covers this
        // backlog, so Drop/shutdown completes everything.
        let svc = service(1, 16);
        let ids: Vec<u64> = (0..3)
            .map(|i| svc.submit("t0", SimJob::wedge(5 + i)).unwrap())
            .collect();
        svc.shutdown();
        for id in ids {
            assert!(
                svc.status(id).unwrap().result.is_some(),
                "shutdown drains queued jobs within the grace period"
            );
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_timeouts() {
        let svc = Service::start(
            ServeConfig {
                workers: 1,
                per_tenant_depth: 8,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(30),
                ..ServeConfig::default()
            },
            Arc::new(Runtime::new(1)),
        )
        .expect("start");
        for _ in 0..2 {
            let id = svc
                .submit_with_deadline("hot", SimJob::wedge(30_000), 20)
                .unwrap();
            let result = svc.wait(id).unwrap();
            assert!(!result.ok, "the deadline turns the wedge into a timeout");
        }
        let err = svc.submit("hot", SimJob::health_check()).unwrap_err();
        assert!(matches!(err, SubmitError::CircuitOpen { .. }));
        // Another tenant is unaffected by `hot`'s quarantine.
        let ok = svc.submit("cool", SimJob::health_check()).unwrap();
        assert!(svc.wait(ok).unwrap().ok);
        let snap = svc.stats();
        assert_eq!(snap.timeouts, 2);
        assert_eq!(snap.breaker_opened, 1);
        assert_eq!(snap.rejected_circuit, 1);
    }

    #[test]
    fn breaker_half_open_probe_closes_the_circuit() {
        let svc = Service::start(
            ServeConfig {
                workers: 1,
                per_tenant_depth: 8,
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_millis(30),
                ..ServeConfig::default()
            },
            Arc::new(Runtime::new(1)),
        )
        .expect("start");
        let id = svc
            .submit_with_deadline("hot", SimJob::wedge(30_000), 20)
            .unwrap();
        assert!(!svc.wait(id).unwrap().ok);
        assert!(matches!(
            svc.submit("hot", SimJob::health_check()).unwrap_err(),
            SubmitError::CircuitOpen { .. }
        ));
        // After the cooldown one probe is admitted; its success closes
        // the breaker and normal service resumes.
        std::thread::sleep(Duration::from_millis(60));
        let probe = svc.submit("hot", SimJob::health_check()).unwrap();
        assert!(svc.wait(probe).unwrap().ok);
        let after = svc.submit("hot", SimJob::health_check()).unwrap();
        assert!(svc.wait(after).unwrap().ok);
        let snap = svc.stats();
        assert_eq!(snap.breaker_opened, 1);
        assert_eq!(snap.breaker_half_open, 1);
        assert_eq!(snap.breaker_closed, 1);
    }
}
