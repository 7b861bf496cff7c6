//! The append-only record log under both the result store and the
//! admission journal: one frame, one replay, one append path. What a
//! record *means* stays with its owner, as the callback handed to
//! [`RecordLog::open`].
//!
//! A log holds records of `N` byte fields under one magic word:
//!
//! ```text
//! record := magic:u32le  len:u32le × N
//!           field bytes × N
//!           checksum:u64le   (FNV-1a over the fields, concatenated)
//! ```
//!
//! One rule bounds the lengths: every field but the last is a key and
//! must be non-empty, and no field may exceed 16 MiB. Replay reads a
//! header that breaks the rule as lost framing; append refuses a
//! record that breaks it, so nothing written can be dropped on replay.
//!
//! Recovery never fails on disk contents:
//!
//! * a **torn tail** (the process died mid-append) is trimmed, so the
//!   next append lands on a clean frame;
//! * a **complete record** whose checksum fails, or whose contents
//!   the owner cannot decode, is skipped over its intact framing and
//!   counted: one flipped byte costs one record, not the log;
//! * a header with the wrong magic or lengths that break the rule
//!   means the frame boundaries are lost: the log is truncated from
//!   there and the bytes are counted as torn.
//!
//! Durability: an append is written in one `write_all` and flushed to
//! the OS before it returns, so it survives a process kill. Nothing is
//! fsynced, so a power loss can drop the tail, which the next open
//! trims as torn.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::store::{RecoveryReport, StoreError};

/// Upper bound on one field; a length above it is lost framing on
/// replay and a refused record on append.
const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// An open record log of `N`-field records.
#[derive(Debug)]
pub(crate) struct RecordLog<const N: usize> {
    path: PathBuf,
    magic: u32,
    file: File,
}

impl<const N: usize> RecordLog<N> {
    /// Opens (or creates) the log at `path` and replays it: each
    /// checksummed record goes to `on_record`, which returns `false`
    /// when it cannot decode the record. A torn or unframed tail is
    /// trimmed from the file. The report counts the records
    /// `on_record` accepted as entries, and the rest as skipped.
    pub(crate) fn open(
        path: &Path,
        magic: u32,
        on_record: impl FnMut([&[u8]; N]) -> bool,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let mut file = open_append(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StoreError::io(format!("read {}", path.display()), &e))?;
        let report = replay(&bytes, magic, on_record);
        if report.truncated_bytes > 0 {
            file.set_len(bytes.len() as u64 - report.truncated_bytes)
                .map_err(|e| StoreError::io(format!("trim torn tail of {}", path.display()), &e))?;
        }
        let log = RecordLog {
            path: path.to_owned(),
            magic,
            file,
        };
        Ok((log, report))
    }

    /// Appends one record and flushes it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write fails, or (of kind
    /// `InvalidInput`, with nothing written) when the record breaks
    /// the length rule replay applies.
    pub(crate) fn append(&mut self, record: [&[u8]; N]) -> Result<(), StoreError> {
        let context = || format!("append to {}", self.path.display());
        let bytes = encode(self.magic, [record]).map_err(|e| StoreError::io(context(), &e))?;
        self.file
            .write_all(&bytes)
            .and_then(|()| self.file.flush())
            .map_err(|e| StoreError::io(context(), &e))
    }

    /// Replaces the log with exactly `records`: writes them to a temp
    /// file, then renames it over the log, so a crash mid-rewrite
    /// leaves either the old log or the new one, never half of either.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] as for [`RecordLog::append`]; a refused
    /// record leaves the log untouched.
    pub(crate) fn rewrite<'a>(
        &mut self,
        records: impl IntoIterator<Item = [&'a [u8]; N]>,
    ) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("compact");
        let context = || format!("rewrite {} via {}", self.path.display(), tmp.display());
        let bytes = encode(self.magic, records).map_err(|e| StoreError::io(context(), &e))?;
        std::fs::write(&tmp, bytes)
            .and_then(|()| std::fs::rename(&tmp, &self.path))
            .map_err(|e| StoreError::io(context(), &e))?;
        self.file = open_append(&self.path)?;
        Ok(())
    }
}

/// Opens `path` for reading and appending, creating the file and its
/// parent directory when missing. Every write lands at end-of-file,
/// so an append can never overwrite an earlier record.
pub(crate) fn open_append(path: &Path) -> Result<File, StoreError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| StoreError::io(format!("create {}", parent.display()), &e))?;
    }
    OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
        .map_err(|e| StoreError::io(format!("open {} for append", path.display()), &e))
}

/// The length rule: every field but the last is a non-empty key, and
/// no field exceeds [`MAX_FIELD_LEN`].
fn fits_frame<const N: usize>(lens: [usize; N]) -> bool {
    lens.iter()
        .enumerate()
        .all(|(i, &len)| len <= MAX_FIELD_LEN && (len > 0 || i + 1 == N))
}

/// Frames `records`, or refuses them all if any breaks the length rule.
fn encode<'a, const N: usize>(
    magic: u32,
    records: impl IntoIterator<Item = [&'a [u8]; N]>,
) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    for fields in records {
        let lens = fields.map(<[u8]>::len);
        if !fits_frame(lens) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record has an empty key or a field over 16 MiB",
            ));
        }
        out.reserve(4 + 4 * N + lens.iter().sum::<usize>() + 8);
        out.extend_from_slice(&magic.to_le_bytes());
        out.extend(fields.iter().flat_map(|f| (f.len() as u32).to_le_bytes()));
        for field in fields {
            out.extend_from_slice(field);
        }
        out.extend_from_slice(&checksum(&fields).to_le_bytes());
    }
    Ok(out)
}

/// FNV-1a over the fields, concatenated.
fn checksum(fields: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in fields.iter().copied().flatten() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `W` bytes of `bytes` starting at `at`.
fn word<const W: usize>(bytes: &[u8], at: usize) -> [u8; W] {
    std::array::from_fn(|i| bytes[at + i])
}

/// Walks `bytes` record by record, handing each checksummed record to
/// `on_record`. The walk stops at a tail that ends mid-record or whose
/// header is no longer plausible; that tail is the report's truncated
/// bytes.
fn replay<const N: usize>(
    bytes: &[u8],
    magic: u32,
    mut on_record: impl FnMut([&[u8]; N]) -> bool,
) -> RecoveryReport {
    let header = 4 + 4 * N;
    let mut offset = 0;
    let mut report = RecoveryReport::default();
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < header || u32::from_le_bytes(word(rest, 0)) != magic {
            break;
        }
        let lens: [usize; N] =
            std::array::from_fn(|i| u32::from_le_bytes(word(rest, 4 + 4 * i)) as usize);
        if !fits_frame(lens) {
            break;
        }
        let sum_at = header + lens.iter().sum::<usize>();
        if rest.len() < sum_at + 8 {
            break;
        }
        let mut at = header;
        let fields: [&[u8]; N] = std::array::from_fn(|i| {
            at += lens[i];
            &rest[at - lens[i]..at]
        });
        offset += sum_at + 8;
        if u64::from_le_bytes(word(rest, sum_at)) == checksum(&fields) && on_record(fields) {
            report.entries += 1;
        } else {
            report.skipped += 1;
        }
    }
    report.truncated_bytes = (bytes.len() - offset) as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_runtime::JobKey;

    use crate::journal::{self, Journal};
    use crate::store::{ResultStore, StoredResult};

    /// The store's magic word (`"MAER"`).
    const STORE_MAGIC: u32 = 0x5245_414D;

    type Replayed<const N: usize> = (Vec<[Vec<u8>; N]>, usize, usize);

    /// The store's replay loop before the fold. Its JSON decoding moved
    /// unchanged into `ResultStore::open`, so where it decoded, this
    /// copy keeps the checksummed fields.
    fn legacy_store_replay(bytes: &[u8]) -> Replayed<2> {
        const MAX_FIELD_LEN: u32 = 16 * 1024 * 1024;
        let mut records = Vec::new();
        let mut offset = 0usize;
        let mut skipped = 0usize;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < 12 {
                break;
            }
            let magic = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
            let key_len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            let payload_len = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
            if magic != STORE_MAGIC
                || key_len == 0
                || key_len > MAX_FIELD_LEN
                || payload_len > MAX_FIELD_LEN
            {
                break;
            }
            let body_len = 12 + key_len as usize + payload_len as usize + 8;
            if rest.len() < body_len {
                break;
            }
            let key = &rest[12..12 + key_len as usize];
            let payload =
                &rest[12 + key_len as usize..12 + key_len as usize + payload_len as usize];
            let stored_sum =
                u64::from_le_bytes(rest[body_len - 8..body_len].try_into().unwrap_or([0u8; 8]));
            offset += body_len;
            if stored_sum != checksum(&[key, payload]) {
                skipped += 1;
                continue;
            }
            records.push([key.to_vec(), payload.to_vec()]);
        }
        (records, offset, skipped)
    }

    /// The framing part of the journal's replay loop before the fold.
    fn legacy_journal_replay(bytes: &[u8]) -> Replayed<1> {
        const MAX_PAYLOAD_LEN: u32 = 16 * 1024 * 1024;
        let mut records = Vec::new();
        let mut offset = 0usize;
        let mut skipped = 0usize;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < 8 {
                break;
            }
            let magic = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
            let payload_len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            if magic != journal::MAGIC || payload_len > MAX_PAYLOAD_LEN {
                break;
            }
            let body_len = 8 + payload_len as usize + 8;
            if rest.len() < body_len {
                break;
            }
            let payload = &rest[8..8 + payload_len as usize];
            let stored_sum =
                u64::from_le_bytes(rest[body_len - 8..body_len].try_into().unwrap_or([0u8; 8]));
            offset += body_len;
            if stored_sum != checksum(&[payload]) {
                skipped += 1;
                continue;
            }
            records.push([payload.to_vec()]);
        }
        (records, offset, skipped)
    }

    /// The new replay, keeping every checksummed record.
    fn replay_all<const N: usize>(bytes: &[u8], magic: u32) -> Replayed<N> {
        let mut records = Vec::new();
        let report = replay(bytes, magic, |fields: [&[u8]; N]| {
            records.push(fields.map(<[u8]>::to_vec));
            true
        });
        assert_eq!(report.entries, records.len());
        let kept = bytes.len() - report.truncated_bytes as usize;
        (records, kept, report.skipped)
    }

    /// Checks `check` on every prefix of `log`, then on `log` with each
    /// byte in turn flipped (`^0xff`, `^0x01`, `^0x80`) or zeroed.
    fn for_each_damage(log: &[u8], mut check: impl FnMut(&[u8])) {
        for len in 0..=log.len() {
            check(&log[..len]);
        }
        let mut bytes = log.to_vec();
        for at in 0..bytes.len() {
            let original = bytes[at];
            for damaged in [original ^ 0xff, original ^ 0x01, original ^ 0x80, 0] {
                bytes[at] = damaged;
                check(&bytes);
            }
            bytes[at] = original;
        }
    }

    fn stored(label: &str) -> StoredResult {
        StoredResult {
            ok: true,
            kind: "run".to_owned(),
            label: label.to_owned(),
            cycles: 1234,
            detail: format!("run label={label} cycles=1234"),
        }
    }

    fn payload(label: &str) -> Vec<u8> {
        stored(label).to_json().render().into_bytes()
    }

    #[test]
    fn replay_matches_the_legacy_loops_under_damage() {
        let keys: Vec<Vec<u8>> = (1..=6u8).map(|i| vec![i; usize::from(i)]).collect();
        let payloads: Vec<Vec<u8>> = (0..6).map(|i| payload(&"x".repeat(i))).collect();
        let records = keys.iter().zip(&payloads).map(|(k, p)| [&k[..], &p[..]]);
        let log = encode(STORE_MAGIC, records).unwrap();
        assert_eq!(legacy_store_replay(&log).0.len(), 6);
        for_each_damage(&log, |bytes| {
            assert_eq!(replay_all(bytes, STORE_MAGIC), legacy_store_replay(bytes));
        });
        // The journal's payload is its last field, so it may be empty.
        let payloads = ["", r#"{"kind":"tombstone","id":1}"#, "{}", "x", "", "[]"];
        let log = encode(journal::MAGIC, payloads.map(|p| [p.as_bytes()])).unwrap();
        assert_eq!(legacy_journal_replay(&log).0.len(), 6);
        for_each_damage(&log, |bytes| {
            assert_eq!(
                replay_all(bytes, journal::MAGIC),
                legacy_journal_replay(bytes)
            );
        });
    }

    #[test]
    fn store_and_journal_bytes_match_the_committed_format() {
        let dir = std::env::temp_dir().join(format!("maeri-log-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = ResultStore::open(&dir.join("store.log")).unwrap();
        let key = JobKey::from_bytes(b"golden".to_vec());
        store.put(&key, &stored("conv")).unwrap();
        let (journal, _) = Journal::open(&dir.join("journal.log")).unwrap();
        journal.append_tombstone(7).unwrap();
        drop((store, journal));
        let hex = |name: &str| -> String {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            bytes
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .concat()
        };
        assert_eq!(
            hex("store.log"),
            "4d414552060000005b000000676f6c64656e7b226f6b223a747275652c226b696e64223a22\
             72756e222c226c6162656c223a22636f6e76222c226379636c6573223a313233342c226465\
             7461696c223a2272756e206c6162656c3d636f6e76206379636c65733d31323334227dd3aa\
             a7bedb3f48de"
        );
        assert_eq!(
            hex("journal.log"),
            "4d41454a1b0000007b226b696e64223a22746f6d6273746f6e65222c226964223a377d443f\
             be93f9ffc026"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_treats_bad_magic_as_lost_framing() {
        let bytes = [0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let (records, kept, skipped) = replay_all::<2>(&bytes, STORE_MAGIC);
        assert!(records.is_empty());
        assert_eq!(kept, 0, "nothing after lost framing is retained");
        assert_eq!(skipped, 0);
    }

    #[test]
    fn replay_skips_a_checksum_mismatch_over_intact_framing() {
        let (a, b) = (payload("a"), payload("b"));
        let records = [[&b"key-a"[..], &a[..]], [&b"key-b"[..], &b[..]]];
        let mut bytes = encode(STORE_MAGIC, records).unwrap();
        bytes[12 + 2] ^= 0xff; // inside the first record's key bytes
        let (records, kept, skipped) = replay_all::<2>(&bytes, STORE_MAGIC);
        assert_eq!(skipped, 1);
        assert_eq!(kept, bytes.len());
        assert_eq!(records.len(), 1, "the record after the corrupt one replays");
        assert_eq!(records[0][0], b"key-b");
    }

    #[test]
    fn encode_refuses_what_replay_would_drop() {
        let huge = vec![b'x'; MAX_FIELD_LEN + 1];
        for fields in [[&b""[..], &b"{}"[..]], [&b"k"[..], &huge[..]]] {
            let err = encode(STORE_MAGIC, [fields]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }
}
