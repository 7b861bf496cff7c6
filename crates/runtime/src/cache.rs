//! Deterministic in-memory result cache keyed by job content.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::job::JobKey;
use crate::output::JobResult;

/// Memoizes completed [`JobResult`]s by [`JobKey`].
///
/// The key is the job's full canonical encoding, so a hit is guaranteed
/// to be the result of an identical request — there is no hash-collision
/// risk. Because jobs are pure, serving a cached result is
/// indistinguishable from re-running the job, which keeps cached batches
/// bit-identical to cold ones.
///
/// Deterministic failures are cached too: an unmappable point stays
/// unmappable, and re-deriving the error wastes a worker slot.
/// *Transient* failures — panics and timeouts, see
/// [`JobError::is_transient`](crate::JobError::is_transient) — are the
/// exception: they describe one execution (out of stack, a saturated
/// machine), not the job, so they are re-attempted on the next request.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: Mutex<BTreeMap<JobKey, JobResult>>,
}

impl ResultCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the result for a job key.
    #[must_use]
    pub fn get(&self, key: &JobKey) -> Option<JobResult> {
        self.entries
            .lock()
            .expect("result cache poisoned")
            .get(key)
            .cloned()
    }

    /// Records a completed result. Transient failures (panics and
    /// timeouts) are not retained — they may not be deterministic
    /// properties of the job — all other results are. Returns whether
    /// the entry was stored.
    pub fn insert(&self, key: JobKey, result: JobResult) -> bool {
        if matches!(&result, Err(error) if error.is_transient()) {
            return false;
        }
        self.entries
            .lock()
            .expect("result cache poisoned")
            .insert(key, result);
        true
    }

    /// Number of cached results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("result cache poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{JobError, SimOutput};
    use crate::SimJob;

    fn key_of(job: &SimJob) -> JobKey {
        job.key()
    }

    #[test]
    fn round_trips_success_and_sim_error() {
        let cache = ResultCache::new();
        let ok_key = key_of(&SimJob::health_check());
        let ok = SimJob::health_check().execute();
        assert!(cache.insert(ok_key.clone(), ok.clone()));
        assert_eq!(cache.get(&ok_key), Some(ok));

        let err_key = key_of(&SimJob::poison("x"));
        let err: crate::JobResult = Err(JobError::Sim("unmappable".into()));
        assert!(cache.insert(err_key.clone(), err.clone()));
        assert_eq!(cache.get(&err_key), Some(err));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn panics_are_not_cached() {
        let cache = ResultCache::new();
        let key = key_of(&SimJob::poison("boom"));
        assert!(!cache.insert(key.clone(), Err(JobError::Panicked("boom".into()))));
        assert_eq!(cache.get(&key), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn timeouts_are_not_cached() {
        let cache = ResultCache::new();
        let key = key_of(&SimJob::wedge(10));
        assert!(!cache.insert(key.clone(), Err(JobError::TimedOut("wedged".into()))));
        assert_eq!(cache.get(&key), None);
        // A deterministic rejection under the same key is still kept.
        assert!(cache.insert(key.clone(), Err(JobError::Sim("unmappable".into()))));
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn hit_is_identical_to_recompute() {
        let cache = ResultCache::new();
        let job = SimJob::health_check();
        cache.insert(job.key(), job.execute());
        let hit = cache.get(&job.key()).unwrap();
        let fresh = job.execute();
        match (&hit, &fresh) {
            (Ok(SimOutput::Run(a)), Ok(SimOutput::Run(b))) => assert_eq!(a, b),
            other => panic!("unexpected results: {other:?}"),
        }
    }
}
