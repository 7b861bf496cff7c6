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
//! The on-disk format is the same append-only magic/len/FNV-1a framing
//! as [`crate::store`], with a JSON payload per record:
//!
//! ```text
//! record := magic:u32le  payload_len:u32le
//!           payload bytes (canonical JSON)
//!           checksum:u64le   (FNV-1a over payload bytes)
//! ```
//!
//! Payloads are `{"kind":"admit","id":N,"tenant":...,"job":{...}}`
//! (with an optional `deadline_ms`) or `{"kind":"tombstone","id":N}`.
//! The job body is the wire-level [`JobSpec`] JSON — the only encoding
//! in the repo that round-trips, which is why plain
//! [`crate::service::Service::submit`] (a raw `SimJob`, no wire form)
//! is not journaled.
//!
//! Recovery policy mirrors the store's: a torn tail is trimmed and
//! counted; a complete-but-invalid record (checksum or JSON failure)
//! is skipped using its length framing and counted; a record whose
//! framing itself is implausible loses the rest of the log (counted as
//! truncated bytes). Nothing in this module panics on disk contents.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use maeri_telemetry::json::{self, JsonValue};

use crate::store::StoreError;
use crate::wire::JobSpec;

/// Magic word opening every journal record (`"MAEJ"` little-endian) —
/// deliberately distinct from the store's `"MAER"` so a journal file
/// fed to the store (or vice versa) reads as zero valid records
/// instead of as silent garbage.
pub(crate) const MAGIC: u32 = 0x4A45_414D;

/// Upper bound on a record payload; a length above this is treated as
/// lost framing rather than an allocation request.
const MAX_PAYLOAD_LEN: u32 = 16 * 1024 * 1024;

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

struct JournalInner {
    file: File,
}

/// The append-only write-ahead journal. Thread-safe: appends take an
/// internal lock, so one journal is shared by the submit path and
/// every worker.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<JournalInner>,
}

#[allow(clippy::missing_fields_in_debug)] // `inner` is a lock + raw file handle
impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
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
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| StoreError::io(format!("create {}", parent.display()), &e))?;
            }
        }
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)
                    .map_err(|e| StoreError::io(format!("read {}", path.display()), &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io(format!("open {}", path.display()), &e)),
        }
        let (recovery, valid_len) = replay(&bytes);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("open {} for append", path.display()), &e))?;
        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)
                .map_err(|e| StoreError::io("trim torn journal tail", &e))?;
        }
        Ok((
            Journal {
                path: path.to_owned(),
                inner: Mutex::new(JournalInner { file }),
            },
            recovery,
        ))
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends (and flushes) one admit record. The caller must not
    /// acknowledge the submit before this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails;
    /// [`StoreError::Poisoned`] when the file lock was poisoned.
    pub fn append_admit(&self, admit: &AdmitRecord) -> Result<(), StoreError> {
        self.append_payload(&admit.to_json())
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
        self.append_payload(&doc)
    }

    fn append_payload(&self, doc: &JsonValue) -> Result<(), StoreError> {
        let record = encode_record(&doc.render().into_bytes());
        let mut inner = self
            .inner
            .lock()
            .map_err(|_| StoreError::poisoned("journal file lock"))?;
        inner
            .file
            .write_all(&record)
            .and_then(|()| inner.file.flush())
            .map_err(|e| StoreError::io("append journal record", &e))
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
        let mut inner = self
            .inner
            .lock()
            .map_err(|_| StoreError::poisoned("journal file lock"))?;
        let tmp = self.path.with_extension("compact");
        {
            let mut out = File::create(&tmp)
                .map_err(|e| StoreError::io(format!("create {}", tmp.display()), &e))?;
            for admit in live {
                out.write_all(&encode_record(&admit.to_json().render().into_bytes()))
                    .map_err(|e| StoreError::io("write compacted journal", &e))?;
            }
            out.flush()
                .map_err(|e| StoreError::io("flush compacted journal", &e))?;
        }
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| StoreError::io(format!("rename {} over journal", tmp.display()), &e))?;
        inner.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io("reopen compacted journal", &e))?;
        Ok(())
    }
}

/// Serializes one journal record.
fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out
}

/// FNV-1a over the payload bytes (same parameters as the store).
fn checksum(payload: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in payload {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Replays the journal bytes into a [`JournalRecovery`] and the byte
/// length of the retained prefix. Never fails: corruption is counted,
/// not raised.
fn replay(bytes: &[u8]) -> (JournalRecovery, u64) {
    let mut recovery = JournalRecovery::default();
    let mut orphans: Vec<AdmitRecord> = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            break; // truncated header: a crash landed mid-append
        }
        let magic = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let payload_len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if magic != MAGIC || payload_len > MAX_PAYLOAD_LEN {
            break; // framing lost: everything from here is unreadable
        }
        let body_len = 8 + payload_len as usize + 8;
        if rest.len() < body_len {
            break; // truncated body
        }
        let payload = &rest[8..8 + payload_len as usize];
        let stored_sum =
            u64::from_le_bytes(rest[body_len - 8..body_len].try_into().unwrap_or([0u8; 8]));
        offset += body_len;
        if stored_sum != checksum(payload) {
            recovery.skipped += 1;
            continue; // complete but corrupt: framing is intact, skip it
        }
        let Some(doc) = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| json::parse(text).ok())
        else {
            recovery.skipped += 1;
            continue;
        };
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some("admit") => match AdmitRecord::from_json(&doc) {
                Ok(admit) => {
                    recovery.admits += 1;
                    recovery.max_id = recovery.max_id.max(admit.id);
                    orphans.push(admit);
                }
                Err(_) => recovery.skipped += 1,
            },
            Some("tombstone") => match doc.get("id").and_then(JsonValue::as_u64) {
                Some(id) => {
                    recovery.tombstones += 1;
                    recovery.max_id = recovery.max_id.max(id);
                    orphans.retain(|admit| admit.id != id);
                }
                None => recovery.skipped += 1,
            },
            _ => recovery.skipped += 1,
        }
    }
    recovery.truncated_bytes = bytes.len() as u64 - offset as u64;
    orphans.sort_by_key(|admit| admit.id);
    recovery.orphans = orphans;
    (recovery, offset as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FabricSpec;

    fn temp_journal(tag: &str) -> PathBuf {
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
