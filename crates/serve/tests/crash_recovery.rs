//! End-to-end crash-safety contract for the serving stack:
//!
//! * every submit acknowledged before a crash resolves after restart,
//!   under its **original id** — answered from the store when its
//!   result got there, re-run otherwise;
//! * tombstoned (completed) jobs never replay;
//! * the id counter resumes above everything the journal saw, so
//!   replayed and fresh ids cannot collide;
//! * restart compacts the journal down to the still-live admits.
//!
//! These tests crash for real — [`Service::crash`] abandons the queue
//! with zero grace, exactly what the chaos harness's constructed
//! wreckage models — so they assert the invariant (zero acknowledged
//! loss), not exact counts that depend on how far workers raced.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use maeri_dnn::ConvLayer;
use maeri_runtime::Runtime;
use maeri_serve::service::{ServeConfig, Service};
use maeri_serve::wire::{FabricSpec, JobSpec};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "maeri-crash-recovery-{}-{unique}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn config(dir: &std::path::Path, workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        per_tenant_depth: 64,
        store_path: Some(dir.join("store.log")),
        journal_path: Some(dir.join("journal.log")),
        ..ServeConfig::default()
    }
}

fn spec(i: u64) -> JobSpec {
    JobSpec::Conv {
        layer: ConvLayer::new(&format!("cr_job{i}"), 3, 8, 8, 4, 3, 3, 1, 1),
        fabric: FabricSpec::default(),
    }
}

#[test]
fn acknowledged_submits_survive_a_crash_under_their_original_ids() {
    let dir = scratch("ack");
    let acked: Vec<(u64, String)> = {
        let service =
            Service::start(config(&dir, 1), Arc::new(Runtime::new(1))).expect("cold start");
        // A non-journaled blocker occupies the single worker so the
        // journaled submits are still queued when the crash lands.
        let blocker = service
            .submit("blocker", maeri_runtime::SimJob::wedge(200))
            .expect("blocker");
        let acked: Vec<(u64, String)> = (1..=5u64)
            .map(|i| {
                let id = service
                    .submit_spec(&format!("t{}", i % 2), &spec(i), Some(10_000))
                    .expect("journaled submit");
                (id, format!("t{}", i % 2))
            })
            .collect();
        service.crash();
        let _ = service.status(blocker);
        acked
    };
    let service = Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("warm start");
    let replay = service.stats();
    assert_eq!(
        replay.journal_orphans_replayed + replay.journal_recovered_from_store,
        5,
        "every acknowledged job is accounted for at restart"
    );
    for (id, tenant) in &acked {
        let ticket = service
            .status(*id)
            .unwrap_or_else(|| panic!("acknowledged id {id} must exist after restart"));
        assert_eq!(&ticket.tenant, tenant, "replay preserves the tenant");
        let result = service
            .wait(*id)
            .unwrap_or_else(|| panic!("acknowledged id {id} must resolve after restart"));
        assert!(result.ok, "chaos-free conv jobs succeed");
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_jobs_tombstone_and_never_replay() {
    let dir = scratch("tombstone");
    {
        let service =
            Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("cold start");
        for i in 1..=3u64 {
            let id = service
                .submit_spec("t0", &spec(i), None)
                .expect("journaled submit");
            assert!(service.wait(id).expect("outcome").ok);
        }
        service.crash(); // all three completed: nothing is owed
    }
    let service = Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("warm start");
    let snap = service.stats();
    assert_eq!(snap.journal_orphans_replayed, 0);
    assert_eq!(snap.journal_recovered_from_store, 0);
    assert_eq!(snap.store_recovered_entries, 3, "results persisted");
    // A repeat submit is a store hit, not a re-run.
    let id = service.submit_spec("t0", &spec(1), None).expect("repeat");
    assert!(service.wait(id).expect("stored answer").ok);
    assert_eq!(service.stats().store_hits, 1);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn id_counter_resumes_above_every_journaled_id() {
    let dir = scratch("ids");
    let max_acked = {
        let service =
            Service::start(config(&dir, 1), Arc::new(Runtime::new(1))).expect("cold start");
        service
            .submit("blocker", maeri_runtime::SimJob::wedge(150))
            .expect("blocker");
        let ids: Vec<u64> = (1..=4u64)
            .map(|i| service.submit_spec("t0", &spec(i), None).expect("submit"))
            .collect();
        service.crash();
        *ids.iter().max().expect("non-empty")
    };
    let service = Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("warm start");
    let fresh = service
        .submit_spec("t0", &spec(99), None)
        .expect("fresh submit");
    assert!(
        fresh > max_acked,
        "fresh id {fresh} must not collide with replayed ids up to {max_acked}"
    );
    service.drain();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_compacts_the_journal_to_live_admits_only() {
    let dir = scratch("compact");
    let journal_path = dir.join("journal.log");
    {
        let service =
            Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("cold start");
        for i in 1..=6u64 {
            let id = service.submit_spec("t0", &spec(i), None).expect("submit");
            assert!(service.wait(id).is_some());
        }
        service.crash();
    }
    let grown = std::fs::metadata(&journal_path)
        .expect("journal exists")
        .len();
    assert!(grown > 0, "six admit/tombstone pairs fill the journal");
    {
        let service =
            Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("warm start");
        service.drain();
        drop(service);
    }
    let compacted = std::fs::metadata(&journal_path)
        .expect("journal exists")
        .len();
    assert_eq!(
        compacted, 0,
        "with nothing owed, restart compacts the journal to empty \
         (was {grown} bytes, now {compacted})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_burst_loses_nothing_acknowledged() {
    // The racy end-to-end version of the chaos harness's constructed
    // scenarios: crash while workers are mid-burst, restart, and
    // demand an outcome for every id that was ever acknowledged.
    let dir = scratch("burst");
    let acked: Vec<u64> = {
        let service =
            Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("cold start");
        let acked: Vec<u64> = (1..=12u64)
            .filter_map(|i| {
                service
                    .submit_spec(&format!("t{}", i % 3), &spec(i), None)
                    .ok()
            })
            .collect();
        service.crash(); // workers are somewhere in the middle of these
        acked
    };
    assert!(!acked.is_empty());
    let service = Service::start(config(&dir, 2), Arc::new(Runtime::new(1))).expect("warm start");
    for (slot, id) in acked.iter().enumerate() {
        if service.wait(*id).is_some() {
            continue; // still owed at the crash: the journal replayed it
        }
        // Completed and tombstoned before the crash: the tombstone is
        // only appended after the store write, so the outcome must
        // answer a content-identical resubmit from the store.
        let job = u64::try_from(slot).expect("small slot") + 1;
        let before = service.stats().store_hits;
        let resubmit = service
            .submit_spec("probe", &spec(job), None)
            .expect("probe resubmit");
        assert!(
            service.wait(resubmit).expect("probe resolves").ok,
            "acknowledged id {id} lost across the crash"
        );
        assert_eq!(
            service.stats().store_hits,
            before + 1,
            "tombstoned job {id} must be answered from the store, not re-run"
        );
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
