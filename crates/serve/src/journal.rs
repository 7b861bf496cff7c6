//! The write-ahead admission journal: the durable record of every
//! acknowledged submit that has not yet produced a published outcome.
//!
//! The service appends an **admit** record *before* returning a ticket
//! to the caller and a **tombstone** once the job's outcome is
//! published, so the set "admits minus tombstones" is exactly the jobs
//! a crash would otherwise lose. [`crate::service::Service::start`]
//! replays that set on open — deduplicating against the result store,
//! re-enqueueing the rest under their original ids — and compacts the
//! log down to the still-live admits.
//!
//! Each record is a one-field record of the record log in
//! `crates/serve/src/log.rs` under the magic word `"MAEJ"`, which also
//! owns recovery: a record that fails its checksum, or decodes as
//! neither an admit nor a tombstone, is skipped and counted. Payloads
//! are `{"kind":"admit","id":N,"tenant":...,"job":{...}}` (with an
//! optional `deadline_ms`) or `{"kind":"tombstone","id":N}`. The job
//! body is the wire-level [`JobSpec`] JSON — the only encoding in the
//! repo that round-trips, which is why plain
//! [`crate::service::Service::submit`] (a raw `SimJob`, no wire form)
//! is not journaled.

use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use maeri_telemetry::json::{self, JsonValue};

use crate::log::RecordLog;
use crate::store::StoreError;
use crate::wire::JobSpec;

/// Magic word opening every journal record (`"MAEJ"` little-endian) —
/// deliberately distinct from the store's `"MAER"` so a journal file
/// fed to the store (or vice versa) reads as zero valid records
/// instead of as silent garbage.
pub(crate) const MAGIC: u32 = 0x4A45_414D;

/// One journaled admission: everything needed to re-run the job after
/// a crash under its original identity.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitRecord {
    /// The job id the caller was acknowledged with.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// The per-request deadline, if one was set.
    pub deadline_ms: Option<u64>,
    /// The wire-level job description (replayable, unlike `SimJob`).
    pub spec: JobSpec,
}

impl AdmitRecord {
    fn to_json(&self) -> JsonValue {
        let doc = JsonValue::object()
            .with("kind", JsonValue::Str("admit".to_owned()))
            .with("id", JsonValue::UInt(self.id))
            .with("tenant", JsonValue::Str(self.tenant.clone()))
            .with("job", self.spec.to_json());
        match self.deadline_ms {
            Some(ms) => doc.with("deadline_ms", JsonValue::UInt(ms)),
            None => doc,
        }
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(AdmitRecord {
            id: value
                .get("id")
                .and_then(JsonValue::as_u64)
                .ok_or("admit record missing integer field `id`")?,
            tenant: value
                .get("tenant")
                .and_then(JsonValue::as_str)
                .ok_or("admit record missing string field `tenant`")?
                .to_owned(),
            deadline_ms: value.get("deadline_ms").and_then(JsonValue::as_u64),
            spec: JobSpec::from_json(
                value
                    .get("job")
                    .ok_or("admit record missing object field `job`")?,
            )?,
        })
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalRecovery {
    /// Admit records replayed (tombstoned or not).
    pub admits: usize,
    /// Tombstone records replayed.
    pub tombstones: usize,
    /// Admits with no matching tombstone — the jobs a crash orphaned,
    /// in id order.
    pub orphans: Vec<AdmitRecord>,
    /// Bytes of torn tail (or lost framing) trimmed from the log.
    pub truncated_bytes: u64,
    /// Complete-but-invalid records skipped during replay.
    pub skipped: usize,
    /// The largest job id seen in any record; the service resumes its
    /// id counter above this so replayed and fresh ids never collide.
    pub max_id: u64,
}

impl JournalRecovery {
    /// Folds one checksummed payload into the recovery. Returns `false`
    /// when it decodes as neither an admit nor a tombstone, which the
    /// log counts as skipped.
    fn apply(&mut self, payload: &[u8]) -> bool {
        let Some(doc) = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| json::parse(text).ok())
        else {
            return false;
        };
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some("admit") => match AdmitRecord::from_json(&doc) {
                Ok(admit) => {
                    self.admits += 1;
                    self.max_id = self.max_id.max(admit.id);
                    self.orphans.push(admit);
                    true
                }
                Err(_) => false,
            },
            Some("tombstone") => match doc.get("id").and_then(JsonValue::as_u64) {
                Some(id) => {
                    self.tombstones += 1;
                    self.max_id = self.max_id.max(id);
                    self.orphans.retain(|admit| admit.id != id);
                    true
                }
                None => false,
            },
            _ => false,
        }
    }
}

/// The append-only write-ahead journal. Thread-safe: appends take an
/// internal lock, so one journal is shared by the submit path and
/// every worker.
#[derive(Debug)]
pub struct Journal {
    log: Mutex<RecordLog<1>>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying every
    /// complete record, trimming torn or unframed tails, and skipping
    /// corrupt records.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures. Corruption is never
    /// an error here — it is reported in the [`JournalRecovery`].
    pub fn open(path: &Path) -> Result<(Self, JournalRecovery), StoreError> {
        let mut recovery = JournalRecovery::default();
        let (log, report) = RecordLog::open(path, MAGIC, |[payload]| recovery.apply(payload))?;
        recovery.truncated_bytes = report.truncated_bytes;
        recovery.skipped = report.skipped;
        recovery.orphans.sort_by_key(|admit| admit.id);
        let log = Mutex::new(log);
        Ok((Journal { log }, recovery))
    }

    /// Appends (and flushes) one admit record. The caller must not
    /// acknowledge the submit before this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails;
    /// [`StoreError::Poisoned`] when the file lock was poisoned.
    pub fn append_admit(&self, admit: &AdmitRecord) -> Result<(), StoreError> {
        self.append(&admit.to_json())
    }

    /// Appends (and flushes) one tombstone for a published outcome.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails;
    /// [`StoreError::Poisoned`] when the file lock was poisoned.
    pub fn append_tombstone(&self, id: u64) -> Result<(), StoreError> {
        let doc = JsonValue::object()
            .with("kind", JsonValue::Str("tombstone".to_owned()))
            .with("id", JsonValue::UInt(id));
        self.append(&doc)
    }

    fn append(&self, doc: &JsonValue) -> Result<(), StoreError> {
        self.lock()?.append([doc.render().as_bytes()])
    }

    /// Rewrites the log to contain exactly `live` (the admits still
    /// awaiting an outcome), dropping every resolved admit/tombstone
    /// pair. Written via a temp file and an atomic rename, so a crash
    /// mid-compaction leaves either the old or the new log — never a
    /// half-written one.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the rewrite fails;
    /// [`StoreError::Poisoned`] when the file lock was poisoned.
    pub fn compact(&self, live: &[AdmitRecord]) -> Result<(), StoreError> {
        let payloads: Vec<String> = live.iter().map(|admit| admit.to_json().render()).collect();
        self.lock()?
            .rewrite(payloads.iter().map(|payload| [payload.as_bytes()]))
    }

    fn lock(&self) -> Result<MutexGuard<'_, RecordLog<1>>, StoreError> {
        self.log
            .lock()
            .map_err(|_| StoreError::poisoned("journal file lock"))
    }
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::io::Write;

    use super::*;
    use crate::wire::FabricSpec;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "maeri-journal-unit-{}-{tag}.log",
            std::process::id()
        ))
    }

    fn admit(id: u64) -> AdmitRecord {
        AdmitRecord {
            id,
            tenant: format!("t{}", id % 2),
            deadline_ms: if id.is_multiple_of(2) {
                Some(250)
            } else {
                None
            },
            spec: JobSpec::Random {
                seed: id,
                fabric: FabricSpec::default(),
            },
        }
    }

    #[test]
    fn admits_minus_tombstones_are_the_orphans() {
        let path = temp_journal("orphans");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, recovery) = Journal::open(&path).unwrap();
            assert_eq!(recovery, JournalRecovery::default());
            for id in 1..=4 {
                journal.append_admit(&admit(id)).unwrap();
            }
            journal.append_tombstone(2).unwrap();
            journal.append_tombstone(4).unwrap();
            // Drop is the crash: no shutdown handshake.
        }
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.admits, 4);
        assert_eq!(recovery.tombstones, 2);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.skipped, 0);
        assert_eq!(recovery.max_id, 4);
        let ids: Vec<u64> = recovery.orphans.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(recovery.orphans[0], admit(1), "full record round-trips");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_trimmed_and_the_log_stays_appendable() {
        let path = temp_journal("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append_admit(&admit(1)).unwrap();
        }
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&MAGIC.to_le_bytes()).unwrap();
            file.write_all(&64u32.to_le_bytes()).unwrap();
            file.write_all(b"part").unwrap(); // body never finished
        }
        let (journal, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.orphans.len(), 1);
        assert_eq!(recovery.truncated_bytes, 12, "torn bytes are counted");
        journal.append_admit(&admit(2)).unwrap();
        drop(journal);
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.orphans.len(), 2, "append after trim is clean");
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_is_skipped_not_fatal() {
        let path = temp_journal("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append_admit(&admit(1)).unwrap();
            journal.append_admit(&admit(2)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's payload; its framing
        // stays intact so the second record must still replay.
        bytes[20] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.skipped, 1);
        assert_eq!(recovery.orphans.len(), 1);
        assert_eq!(recovery.orphans[0].id, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lost_framing_drops_the_rest_of_the_log() {
        let path = temp_journal("framing");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, b"this is not a maeri journal at all......").unwrap();
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.admits, 0);
        assert_eq!(recovery.truncated_bytes, 40);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_keeps_only_live_admits() {
        let path = temp_journal("compact");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        for id in 1..=3 {
            journal.append_admit(&admit(id)).unwrap();
        }
        journal.append_tombstone(1).unwrap();
        journal.append_tombstone(3).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        journal.compact(&[admit(2)]).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        // The handle survives compaction: further appends land in the
        // new log.
        journal.append_tombstone(2).unwrap();
        drop(journal);
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.admits, 1);
        assert_eq!(recovery.tombstones, 1);
        assert!(recovery.orphans.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
