//! The worker pool: `std::thread` workers behind a bounded job queue.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::job::SimJob;
use crate::metrics::RuntimeMetrics;
use crate::output::{JobError, JobResult};

/// One unit of queued work: the job plus the ticket that routes its
/// result back to the submitting batch.
struct Task {
    ticket: u64,
    job: SimJob,
    reply: Sender<(u64, JobResult)>,
}

/// A fixed-size pool of worker threads consuming a bounded job queue.
///
/// * **Bounded queue** — submission blocks once `queue_depth` tasks are
///   waiting, so a huge batch cannot balloon memory.
/// * **Panic isolation** — each job runs under `catch_unwind`; a panic
///   becomes [`JobError::Panicked`] and the worker keeps serving.
/// * **Graceful shutdown** — dropping the pool closes the queue, lets
///   every in-flight job finish, and joins all workers.
pub(crate) struct WorkerPool {
    queue: Option<SyncSender<Task>>,
    workers: Vec<JoinHandle<()>>,
    num_workers: usize,
}

impl WorkerPool {
    /// Spawns `num_workers` workers (minimum 1) sharing a queue of at
    /// most `queue_depth` waiting tasks.
    pub(crate) fn new(
        num_workers: usize,
        queue_depth: usize,
        metrics: &Arc<RuntimeMetrics>,
    ) -> Self {
        let num_workers = num_workers.max(1);
        let (queue, task_rx) = sync_channel::<Task>(queue_depth.max(1));
        let task_rx = Arc::new(Mutex::new(task_rx));
        let workers = (0..num_workers)
            .map(|index| {
                let task_rx = Arc::clone(&task_rx);
                let metrics = Arc::clone(metrics);
                std::thread::Builder::new()
                    .name(format!("maeri-worker-{index}"))
                    .spawn(move || worker_loop(&task_rx, &metrics))
                    .expect("failed to spawn simulation worker")
            })
            .collect();
        WorkerPool {
            queue: Some(queue),
            workers,
            num_workers,
        }
    }

    /// Number of worker threads.
    pub(crate) fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Enqueues one job. Blocks while the queue is full; the reply
    /// `(ticket, result)` arrives on `reply` when a worker finishes.
    pub(crate) fn submit(&self, ticket: u64, job: SimJob, reply: Sender<(u64, JobResult)>) {
        self.queue
            .as_ref()
            .expect("worker pool already shut down")
            .send(Task { ticket, job, reply })
            .expect("all simulation workers exited");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue is the shutdown signal: workers drain what
        // is left, see the disconnect, and return.
        self.queue.take();
        for worker in self.workers.drain(..) {
            // A worker that somehow panicked outside catch_unwind has
            // nothing left to deliver; ignore its poisoned handle.
            let _ = worker.join();
        }
    }
}

fn worker_loop(task_rx: &Mutex<Receiver<Task>>, metrics: &RuntimeMetrics) {
    loop {
        // Hold the lock only to dequeue, never while executing.
        let task = match task_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(Task { ticket, job, reply }) = task else {
            return; // queue closed: graceful shutdown
        };
        // `execute` records the executed/failed counts.
        let result = crate::supervise::execute(&job, None, metrics);
        metrics.job_drained();
        // The batch may have been abandoned (receiver dropped); that is
        // not the worker's problem.
        let _ = reply.send((ticket, result));
    }
}

/// Executes one job, converting a panic into a failed result.
pub(crate) fn run_isolated(job: &SimJob) -> JobResult {
    match catch_unwind(AssertUnwindSafe(|| job.execute())) {
        Ok(result) => result,
        Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn pool(workers: usize) -> (WorkerPool, Arc<RuntimeMetrics>) {
        let metrics = Arc::new(RuntimeMetrics::new());
        (WorkerPool::new(workers, 8, &metrics), metrics)
    }

    #[test]
    fn replies_carry_the_submission_ticket() {
        let (pool, metrics) = pool(2);
        let (reply_tx, reply_rx) = channel();
        for ticket in 0..4 {
            metrics.job_enqueued();
            pool.submit(ticket, SimJob::health_check(), reply_tx.clone());
        }
        drop(reply_tx);
        let mut tickets: Vec<u64> = reply_rx.iter().map(|(t, _)| t).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, vec![0, 1, 2, 3]);
        assert_eq!(metrics.snapshot().executed, 4);
    }

    #[test]
    fn panicking_job_fails_without_killing_workers() {
        let (pool, metrics) = pool(1);
        let (reply_tx, reply_rx) = channel();
        metrics.job_enqueued();
        pool.submit(0, SimJob::poison("deliberate"), reply_tx.clone());
        metrics.job_enqueued();
        pool.submit(1, SimJob::health_check(), reply_tx.clone());
        drop(reply_tx);
        let mut results: Vec<(u64, JobResult)> = reply_rx.iter().collect();
        results.sort_by_key(|(t, _)| *t);
        assert!(matches!(
            &results[0].1,
            Err(JobError::Panicked(message)) if message == "deliberate"
        ));
        assert!(results[1].1.is_ok(), "worker died after a panic");
        assert_eq!(metrics.snapshot().failed, 1);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let (pool, metrics) = pool(0);
        assert_eq!(pool.num_workers(), 1);
        let (reply_tx, reply_rx) = channel();
        metrics.job_enqueued();
        pool.submit(7, SimJob::health_check(), reply_tx);
        assert_eq!(reply_rx.recv().unwrap().0, 7);
    }

    #[test]
    fn drop_joins_all_workers() {
        let (pool, metrics) = pool(4);
        let (reply_tx, reply_rx) = channel();
        for ticket in 0..16 {
            metrics.job_enqueued();
            pool.submit(ticket, SimJob::health_check(), reply_tx.clone());
        }
        drop(reply_tx);
        drop(pool); // must not hang or panic
        assert_eq!(reply_rx.iter().count(), 16);
    }
}
