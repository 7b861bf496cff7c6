//! Crash-safe persistent result store: an in-memory index over an
//! append-only log, keyed by the runtime's content-hash [`JobKey`].
//!
//! Reopening replays every entry into the index, so a warm-restarted
//! service answers repeated requests without re-simulating. An entry is
//! a two-field record of the record log in `crates/serve/src/log.rs`
//! under the magic word `"MAER"`: the key, then the result as canonical
//! JSON. That module owns the framing and the recovery policy: torn
//! tails are trimmed, corrupt entries are skipped and counted, and
//! nothing panics or serves bad data. What recovery found is the
//! [`RecoveryReport`], surfaced through the service's `stats` verb.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use maeri_runtime::{JobKey, JobResult, SimOutput};
use maeri_telemetry::json::{self, JsonValue};

use crate::log::RecordLog;

/// Magic word opening every log entry (`"MAER"` little-endian).
const MAGIC: u32 = 0x5245_414D;

/// A store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O error, with the operation that failed.
    Io {
        /// What the store was doing when the error hit.
        context: String,
    },
    /// A lock was poisoned by a panicking writer: the in-memory state
    /// can no longer be trusted, so the operation is refused rather
    /// than served from a possibly half-updated structure.
    Poisoned {
        /// Which lock was found poisoned.
        context: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context } => write!(f, "store i/o error: {context}"),
            StoreError::Poisoned { context } => {
                write!(f, "store lock poisoned: {context}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    pub(crate) fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        StoreError::Io {
            context: format!("{}: {err}", context.into()),
        }
    }

    pub(crate) fn poisoned(context: impl Into<String>) -> Self {
        StoreError::Poisoned {
            context: context.into(),
        }
    }
}

/// What [`ResultStore::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete entries replayed into the index.
    pub entries: usize,
    /// Bytes of truncated tail trimmed from the log (a crash landed
    /// mid-append, or the frame boundaries were lost); zero on a
    /// clean shutdown.
    pub truncated_bytes: u64,
    /// Complete-but-corrupt entries skipped during replay (checksum
    /// mismatch or unparseable payload with intact framing).
    pub skipped: usize,
}

/// One stored job outcome — the durable, wire-friendly projection of a
/// [`JobResult`]. `detail` carries the canonical text encoding, which
/// is the repo-wide equality witness for outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredResult {
    /// Whether the job succeeded.
    pub ok: bool,
    /// Output kind: `run`, `analytic`, `telemetry`, `search`, or
    /// `error`.
    pub kind: String,
    /// The job's display label.
    pub label: String,
    /// Headline cycle count (zero for errors and cycle-free outputs).
    pub cycles: u64,
    /// Canonical text of the output (or the structured error text).
    pub detail: String,
}

impl StoredResult {
    /// Projects a runtime result into its durable form.
    #[must_use]
    pub fn from_result(label: &str, result: &JobResult) -> Self {
        match result {
            Ok(output) => StoredResult {
                ok: true,
                kind: output_kind(output).to_owned(),
                label: label.to_owned(),
                cycles: output_cycles(output),
                detail: output.canonical_text(),
            },
            Err(err) => StoredResult {
                ok: false,
                kind: "error".to_owned(),
                label: label.to_owned(),
                cycles: 0,
                detail: err.canonical_text(),
            },
        }
    }

    /// The JSON object written to the log and returned over the wire.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("ok", JsonValue::Bool(self.ok))
            .with("kind", JsonValue::Str(self.kind.clone()))
            .with("label", JsonValue::Str(self.label.clone()))
            .with("cycles", JsonValue::UInt(self.cycles))
            .with("detail", JsonValue::Str(self.detail.clone()))
    }

    /// Parses the JSON form back.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is missing or mistyped.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| format!("stored result missing field `{name}`"))
        };
        Ok(StoredResult {
            ok: field("ok")?
                .as_bool()
                .ok_or("stored result field `ok` is not a bool")?,
            kind: field("kind")?
                .as_str()
                .ok_or("stored result field `kind` is not a string")?
                .to_owned(),
            label: field("label")?
                .as_str()
                .ok_or("stored result field `label` is not a string")?
                .to_owned(),
            cycles: field("cycles")?
                .as_u64()
                .ok_or("stored result field `cycles` is not an integer")?,
            detail: field("detail")?
                .as_str()
                .ok_or("stored result field `detail` is not a string")?
                .to_owned(),
        })
    }
}

/// The headline kind tag for a stored output.
fn output_kind(output: &SimOutput) -> &'static str {
    match output {
        SimOutput::Run(_) => "run",
        SimOutput::Analytic(_) => "analytic",
        SimOutput::Telemetry(_) => "telemetry",
        SimOutput::Search(_) => "search",
    }
}

/// The headline cycle count for a stored output.
fn output_cycles(output: &SimOutput) -> u64 {
    match output {
        SimOutput::Run(stats) => stats.cycles.as_u64(),
        SimOutput::Analytic(result) => result.cycles,
        SimOutput::Telemetry(run) => run.trace.cycles.as_u64(),
        SimOutput::Search(search) => search.best_cycles(),
    }
}

struct StoreInner {
    log: RecordLog<2>,
    index: BTreeMap<Vec<u8>, StoredResult>,
}

/// The content-addressed persistent result store.
///
/// Thread-safe: `put`/`get` take one lock over the index and the log,
/// so one store can be shared by every service worker.
pub struct ResultStore {
    inner: Mutex<StoreInner>,
}

#[allow(clippy::missing_fields_in_debug)] // `inner` is a lock + raw file handle
impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("entries", &self.len())
            .finish()
    }
}

impl ResultStore {
    /// Opens (or creates) the log at `path`, replaying complete
    /// entries into the index, skipping corrupt ones, and trimming any
    /// truncated tail. What recovery found — entries replayed, bytes
    /// trimmed, entries skipped — is returned alongside the store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures. Corruption is never
    /// an error: it is counted in the [`RecoveryReport`].
    pub fn open(path: &Path) -> Result<(Self, RecoveryReport), StoreError> {
        let mut index = BTreeMap::new();
        let (log, report) = RecordLog::open(path, MAGIC, |[key, payload]| {
            let parsed = std::str::from_utf8(payload)
                .ok()
                .and_then(|text| json::parse(text).ok())
                .and_then(|doc| StoredResult::from_json(&doc).ok());
            let Some(result) = parsed else {
                return false;
            };
            index.insert(key.to_vec(), result);
            true
        })?;
        let inner = Mutex::new(StoreInner { log, index });
        Ok((ResultStore { inner }, report))
    }

    /// Looks up a result by job key.
    #[must_use]
    pub fn get(&self, key: &JobKey) -> Option<StoredResult> {
        let inner = self.inner.lock().expect("store mutex poisoned");
        inner.index.get(key.as_bytes()).cloned()
    }

    /// Appends `result` under `key`, unless the key is already stored
    /// (the log is content-addressed, so the first write wins). Returns
    /// whether a new entry was written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails, or when the key is
    /// empty or the result's JSON exceeds 16 MiB (replay could not read
    /// such an entry back, so nothing is written). The index is only
    /// updated after the entry is written and flushed.
    pub fn put(&self, key: &JobKey, result: &StoredResult) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock().expect("store mutex poisoned");
        if inner.index.contains_key(key.as_bytes()) {
            return Ok(false);
        }
        let payload = result.to_json().render().into_bytes();
        inner.log.append([key.as_bytes(), &payload])?;
        inner.index.insert(key.as_bytes().to_vec(), result.clone());
        Ok(true)
    }

    /// Number of stored results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store mutex poisoned").index.len()
    }

    /// Whether the store holds no results.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_runtime::JobError;

    fn sample(label: &str) -> StoredResult {
        StoredResult {
            ok: true,
            kind: "run".to_owned(),
            label: label.to_owned(),
            cycles: 1234,
            detail: format!("run label={label} cycles=1234"),
        }
    }

    fn temp_log(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("maeri-store-unit-{}-{tag}.log", std::process::id()))
    }

    #[test]
    fn put_get_round_trip_and_idempotence() {
        let path = temp_log("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (store, report) = ResultStore::open(&path).unwrap();
        assert_eq!(report, RecoveryReport::default());
        let key = JobKey::from_bytes(vec![1, 2, 3]);
        assert!(store.get(&key).is_none());
        assert!(store.put(&key, &sample("a")).unwrap());
        assert!(!store.put(&key, &sample("b")).unwrap(), "first write wins");
        assert_eq!(store.get(&key).unwrap().label, "a");
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stored_result_json_round_trip() {
        let original = StoredResult::from_result(
            "probe",
            &Err(JobError::Sim("too big \"quoted\"".to_owned())),
        );
        let parsed = StoredResult::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
        assert!(!parsed.ok);
        assert_eq!(parsed.kind, "error");
    }
}
