//! A deterministic chaos harness for the serving stack.
//!
//! Each [`FaultPoint`] names one place a real deployment gets hurt —
//! a kill around the journal append, a torn journal tail, a corrupted
//! store record, a wedged worker, a malformed wire frame — and
//! [`run_scenario`] injects exactly that fault and measures what
//! recovery does about it. The invariant under test is always the
//! same: **no acknowledged job is ever lost** ([`ChaosOutcome::lost`]
//! must be zero).
//!
//! Determinism is the point: scenarios are built from *constructed*
//! on-disk wreckage (journals and stores written to look exactly like
//! the moment after a crash) plus seeded RNG, never from racing live
//! threads against a killer. The same seed therefore produces the
//! same outcome on any host at any worker count, which is what lets
//! the `chaos_recovery` report be byte-identical in CI.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use maeri_dnn::ConvLayer;
use maeri_runtime::{Runtime, SimJob};
use maeri_sim::SimRng;

use crate::journal::{AdmitRecord, Journal};
use crate::service::{ServeConfig, Service, SubmitError};
use crate::store::{ResultStore, StoredResult};
use crate::wire::{read_frame, write_frame, FabricSpec, JobSpec, Request};

maeri_sim::catalog! {
    /// One injectable fault, in injection order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultPoint {
        /// The process dies *before* a submit's journal append completes:
        /// the caller never received a ticket, so nothing is owed — but
        /// every previously acknowledged job must still replay.
        KillBeforeJournalAppend => "kill_before_journal_append",
        /// The process dies mid-dispatch, after some results reached the
        /// store but before their tombstones: replay must answer those
        /// from the store and re-run the rest.
        KillMidDispatch => "kill_mid_dispatch",
        /// The journal's last record was half-written when the process
        /// died: the torn tail is trimmed and every complete admit
        /// replays.
        TornJournalTail => "torn_journal_tail",
        /// A store record rotted on disk: it is skipped (never served),
        /// and the journal replay re-runs that job instead.
        CorruptStoreRecord => "corrupt_store_record",
        /// A worker picks up a job that never finishes: the per-request
        /// deadline turns it into a structured timeout and the circuit
        /// breaker quarantines the offending tenant.
        WedgedWorker => "wedged_worker",
        /// A client sends seeded byte garbage: the frame decoder and
        /// request parser must answer every mutation with a structured
        /// error or a valid parse — never a panic.
        MalformedWireFrame => "malformed_wire_frame",
    }
}

/// What one scenario observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// The injected fault.
    pub fault: FaultPoint,
    /// Jobs the pre-fault world acknowledged (journaled admits, or
    /// live submits that returned a ticket).
    pub acknowledged: u64,
    /// Orphaned admits the recovery re-enqueued.
    pub orphans_replayed: u64,
    /// Orphaned admits the recovery answered from the result store.
    pub recovered_from_store: u64,
    /// Acknowledged jobs that held a published outcome after recovery.
    pub resolved: u64,
    /// Acknowledged jobs with no outcome after recovery — the zero-
    /// acknowledged-loss invariant says this is always `0`.
    pub lost: u64,
    /// Deterministic scenario-specific counters, rendered
    /// `key=value` space-separated.
    pub detail: String,
}

/// Runs one fault scenario inside `dir` (scratch space the caller
/// owns; scenario files are namespaced by the fault's name) with a
/// deterministic `seed`. Panics on environmental failure (scratch dir
/// not writable) — never on the injected fault itself.
#[must_use]
pub fn run_scenario(fault: FaultPoint, dir: &Path, seed: u64) -> ChaosOutcome {
    match fault {
        FaultPoint::KillBeforeJournalAppend => kill_before_journal_append(dir, seed),
        FaultPoint::KillMidDispatch => kill_mid_dispatch(dir, seed),
        FaultPoint::TornJournalTail => torn_journal_tail(dir, seed),
        FaultPoint::CorruptStoreRecord => corrupt_store_record(dir, seed),
        FaultPoint::WedgedWorker => wedged_worker(),
        FaultPoint::MalformedWireFrame => malformed_wire_frame(seed),
    }
}

/// A cheap, verifier-clean conv job; distinct `(seed, index)` pairs
/// yield distinct content keys via the layer name.
fn spec(seed: u64, index: u64) -> JobSpec {
    JobSpec::Conv {
        layer: ConvLayer::new(&format!("chaos_s{seed}_j{index}"), 3, 8, 8, 4, 3, 3, 1, 1),
        fabric: FabricSpec::default(),
    }
}

fn admit(seed: u64, id: u64) -> AdmitRecord {
    AdmitRecord {
        id,
        tenant: format!("t{}", id % 2),
        deadline_ms: None,
        spec: spec(seed, id),
    }
}

fn recovery_config(dir: &Path, fault: FaultPoint) -> ServeConfig {
    ServeConfig {
        workers: 2,
        store_path: Some(dir.join(format!("{}.store.log", fault.name()))),
        journal_path: Some(dir.join(format!("{}.journal.log", fault.name()))),
        ..ServeConfig::default()
    }
}

/// Restarts a service on the wreckage and counts how many of the
/// acknowledged ids `1..=acknowledged` resolve to a published outcome.
fn recover_and_count(
    config: ServeConfig,
    fault: FaultPoint,
    acknowledged: u64,
    detail: String,
) -> ChaosOutcome {
    let service = Service::start(config, Arc::new(Runtime::new(1)))
        .expect("recovery start must survive constructed wreckage");
    let replay = service.stats().journal_replay;
    let mut resolved = 0u64;
    for id in 1..=acknowledged {
        if service.wait(id).is_some() {
            resolved += 1;
        }
    }
    service.drain();
    ChaosOutcome {
        fault,
        acknowledged,
        orphans_replayed: replay.orphans_replayed,
        recovered_from_store: replay.recovered_from_store,
        resolved,
        lost: acknowledged - resolved,
        detail,
    }
}

/// Wreckage: four admits hit the journal; a fifth submit was racing
/// the crash and its append never completed, so its caller never got
/// an id back. Recovery owes exactly the four.
fn kill_before_journal_append(dir: &Path, seed: u64) -> ChaosOutcome {
    let fault = FaultPoint::KillBeforeJournalAppend;
    let config = recovery_config(dir, fault);
    let acknowledged = 4u64;
    {
        let journal_path = config
            .journal_path
            .as_deref()
            .expect("config has a journal");
        let _ = std::fs::remove_file(journal_path);
        let (journal, _) = Journal::open(journal_path).expect("scratch journal");
        for id in 1..=acknowledged {
            journal
                .append_admit(&admit(seed, id))
                .expect("scratch append");
        }
        // The fifth submit dies here — before its append — leaving no
        // record and no acknowledgement. Nothing to write is the fault.
    }
    let detail = format!("unacknowledged_submits=1 journaled_admits={acknowledged}");
    recover_and_count(config, fault, acknowledged, detail)
}

/// Wreckage: four admits journaled; the first two finished and their
/// results reached the store, but the crash landed before their
/// tombstones. Replay must answer those two from the store and re-run
/// the other two.
fn kill_mid_dispatch(dir: &Path, seed: u64) -> ChaosOutcome {
    let fault = FaultPoint::KillMidDispatch;
    let config = recovery_config(dir, fault);
    let acknowledged = 4u64;
    {
        let journal_path = config
            .journal_path
            .as_deref()
            .expect("config has a journal");
        let store_path = config.store_path.as_deref().expect("config has a store");
        let _ = std::fs::remove_file(journal_path);
        let _ = std::fs::remove_file(store_path);
        let (journal, _) = Journal::open(journal_path).expect("scratch journal");
        for id in 1..=acknowledged {
            journal
                .append_admit(&admit(seed, id))
                .expect("scratch append");
        }
        let (store, _) = ResultStore::open(store_path).expect("scratch store");
        let runtime = Runtime::new(1);
        for id in 1..=2u64 {
            let job = spec(seed, id).to_sim_job().expect("chaos specs lower");
            let result = runtime.run_one(&job);
            store
                .put(
                    &job.key(),
                    &StoredResult::from_result(&job.label(), &result),
                )
                .expect("scratch store put");
        }
    }
    let detail = "stored_before_crash=2 tombstoned=0".to_owned();
    recover_and_count(config, fault, acknowledged, detail)
}

/// Wreckage: three clean admits, then a record whose body never
/// finished hitting the disk. The torn bytes are trimmed and all
/// three admits replay.
fn torn_journal_tail(dir: &Path, seed: u64) -> ChaosOutcome {
    let fault = FaultPoint::TornJournalTail;
    let config = recovery_config(dir, fault);
    let acknowledged = 3u64;
    let torn = {
        let journal_path = config
            .journal_path
            .as_deref()
            .expect("config has a journal");
        let _ = std::fs::remove_file(journal_path);
        {
            let (journal, _) = Journal::open(journal_path).expect("scratch journal");
            for id in 1..=acknowledged {
                journal
                    .append_admit(&admit(seed, id))
                    .expect("scratch append");
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(journal_path)
            .expect("reopen journal raw");
        file.write_all(&crate::journal::MAGIC.to_le_bytes())
            .expect("torn magic");
        file.write_all(&96u32.to_le_bytes()).expect("torn length");
        file.write_all(b"half").expect("torn body");
        12u64
    };
    let detail = format!("torn_bytes={torn}");
    recover_and_count(config, fault, acknowledged, detail)
}

/// Wreckage: two admits journaled, both results in the store — but
/// the first store record rotted on disk. Recovery skips it (never
/// serves corrupt bytes), answers the second from the store, and
/// re-runs the first.
fn corrupt_store_record(dir: &Path, seed: u64) -> ChaosOutcome {
    let fault = FaultPoint::CorruptStoreRecord;
    let config = recovery_config(dir, fault);
    let acknowledged = 2u64;
    {
        let journal_path = config
            .journal_path
            .as_deref()
            .expect("config has a journal");
        let store_path = config.store_path.as_deref().expect("config has a store");
        let _ = std::fs::remove_file(journal_path);
        let _ = std::fs::remove_file(store_path);
        let (journal, _) = Journal::open(journal_path).expect("scratch journal");
        for id in 1..=acknowledged {
            journal
                .append_admit(&admit(seed, id))
                .expect("scratch append");
        }
        let first_len = {
            let (store, _) = ResultStore::open(store_path).expect("scratch store");
            let runtime = Runtime::new(1);
            let mut first_len = 0u64;
            for id in 1..=acknowledged {
                let job = spec(seed, id).to_sim_job().expect("chaos specs lower");
                let result = runtime.run_one(&job);
                store
                    .put(
                        &job.key(),
                        &StoredResult::from_result(&job.label(), &result),
                    )
                    .expect("scratch store put");
                if id == 1 {
                    first_len = std::fs::metadata(store_path).expect("stat store").len();
                }
            }
            first_len
        };
        // Rot one byte inside the first record's body; its framing
        // stays intact so only that record is lost.
        let mut bytes = std::fs::read(store_path).expect("read store");
        let target = usize::try_from(first_len / 2).expect("offset fits");
        bytes[target] ^= 0xff;
        std::fs::write(store_path, &bytes).expect("write rotted store");
    }
    let outcome = recover_and_count(config, fault, acknowledged, String::new());
    ChaosOutcome {
        detail: format!(
            "store_skipped=1 rerun={} answered_from_store={}",
            outcome.orphans_replayed, outcome.recovered_from_store
        ),
        ..outcome
    }
}

/// Live fault: one worker, a tenant whose jobs wedge forever. The
/// per-request deadline turns each into a structured timeout, and the
/// second consecutive timeout opens the tenant's circuit breaker.
fn wedged_worker() -> ChaosOutcome {
    let fault = FaultPoint::WedgedWorker;
    let service = Service::start(
        ServeConfig {
            workers: 1,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_hours(1),
            ..ServeConfig::default()
        },
        Arc::new(Runtime::new(1)),
    )
    .expect("memory-only service starts");
    let acknowledged = 2u64;
    let mut resolved = 0u64;
    for _ in 0..acknowledged {
        let id = service
            .submit_with_deadline("hot", SimJob::wedge(2_000), 10)
            .expect("wedge submits are admitted");
        let result = service.wait(id).expect("a deadline publishes an outcome");
        assert!(!result.ok, "a wedged job must surface as a failure");
        resolved += 1;
    }
    let quarantined = matches!(
        service.submit("hot", SimJob::health_check()),
        Err(SubmitError::CircuitOpen { .. })
    );
    let snap = service.stats();
    ChaosOutcome {
        fault,
        acknowledged,
        orphans_replayed: 0,
        recovered_from_store: 0,
        resolved,
        lost: acknowledged - resolved,
        detail: format!(
            "timeouts={} breaker_opened={} rejected_circuit={} quarantined={}",
            snap.timeouts, snap.breaker_opened, snap.rejected_circuit, quarantined
        ),
    }
}

/// Live fault: seeded byte mutations of a valid submit frame, fed to
/// the frame decoder and request parser. Every mutation must produce
/// a structured rejection or a valid parse — a panic fails the
/// scenario by crashing it.
fn malformed_wire_frame(seed: u64) -> ChaosOutcome {
    let fault = FaultPoint::MalformedWireFrame;
    let request = Request::Submit {
        tenant: "t0".to_owned(),
        spec: spec(seed, 1),
        deadline_ms: Some(100),
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.to_json()).expect("valid frame encodes");
    let mut rng = SimRng::seed(seed);
    let mutations = 64u64;
    let mut rejected = 0u64;
    let mut parsed = 0u64;
    for _ in 0..mutations {
        let mut mutated = frame.clone();
        let flips = 1 + rng.next_below(3);
        for _ in 0..flips {
            let pos = rng.next_below(mutated.len());
            mutated[pos] ^= 1u8 << rng.next_below(8);
        }
        match read_frame(&mut &mutated[..]) {
            Ok(Some(doc)) => match Request::from_json(&doc) {
                Ok(_) => parsed += 1,
                Err(_) => rejected += 1,
            },
            Ok(None) | Err(_) => rejected += 1,
        }
    }
    ChaosOutcome {
        fault,
        acknowledged: 0,
        orphans_replayed: 0,
        recovered_from_store: 0,
        resolved: 0,
        lost: 0,
        detail: format!("mutations={mutations} rejected={rejected} parsed={parsed}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("maeri-chaos-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn every_fault_point_upholds_zero_acknowledged_loss() {
        let dir = scratch("all");
        for fault in FaultPoint::ALL {
            let outcome = run_scenario(fault, &dir, 11);
            assert_eq!(
                outcome.lost,
                0,
                "fault {} lost an acknowledged job: {outcome:?}",
                fault.name()
            );
            assert_eq!(outcome.resolved, outcome.acknowledged);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenarios_are_deterministic_across_runs() {
        let dir_a = scratch("det-a");
        let dir_b = scratch("det-b");
        for fault in FaultPoint::ALL {
            let a = run_scenario(fault, &dir_a, 23);
            let b = run_scenario(fault, &dir_b, 23);
            assert_eq!(a, b, "fault {} must be seed-deterministic", fault.name());
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn kill_mid_dispatch_answers_stored_results_without_rerunning() {
        let dir = scratch("mid-dispatch");
        let outcome = run_scenario(FaultPoint::KillMidDispatch, &dir, 5);
        assert_eq!(outcome.recovered_from_store, 2);
        assert_eq!(outcome.orphans_replayed, 2);
        assert_eq!(outcome.resolved, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
