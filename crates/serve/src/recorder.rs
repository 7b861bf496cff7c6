//! The flight recorder: a fixed-capacity ring of request-path spans
//! with crash-surviving exports.
//!
//! Three artifacts, three failure modes:
//!
//! * the **ring** ([`FlightRecorder::spans`]) holds the most recent
//!   [`RecorderConfig::capacity`] spans in memory behind one short
//!   mutex — the always-available "what just happened" view. When
//!   full, the *oldest* span is overwritten and the drop is counted
//!   ([`FlightRecorder::dropped`]): after an incident the freshest
//!   history is the valuable part;
//! * the **span log** ([`RecorderConfig::span_log`]) eagerly appends
//!   every span as one JSON line and flushes *before*
//!   [`FlightRecorder::record_batch`] returns. Admission spans are
//!   recorded before a submit is acknowledged, so even a SIGKILL — no
//!   destructors, no grace — leaves a log whose admission spans cover
//!   every acknowledged job. A torn final line (the kill landed
//!   mid-write) is skipped and counted by [`read_span_log`], mirroring
//!   the store's torn-tail policy;
//! * the **postmortem dump** ([`RecorderConfig::postmortem`]) is the
//!   structured last-breath file [`crate::service::Service::crash`]
//!   writes: one JSON document with the drop counter and the full ring
//!   contents, parseable by [`read_postmortem`].
//!
//! The spans themselves — the [`SpanKind`](maeri_telemetry::span::SpanKind) catalog, the per-job
//! monotonicity contract, the Chrome export — live in
//! [`maeri_telemetry::span`]; this module only stores and persists
//! them.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use maeri_telemetry::json;
use maeri_telemetry::span::{chrome_trace, SpanRecord};

use crate::log::open_append;
use crate::store::StoreError;

/// Flight-recorder tuning knobs.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Ring capacity in spans; at capacity the oldest span is dropped
    /// (and counted) to admit the newest.
    pub capacity: usize,
    /// Eager JSON-line span log, flushed on every record; `None`
    /// keeps the recorder memory-only.
    pub span_log: Option<PathBuf>,
    /// Where [`crate::service::Service::crash`] writes the postmortem
    /// dump; `None` skips the dump.
    pub postmortem: Option<PathBuf>,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 4096,
            span_log: None,
            postmortem: None,
        }
    }
}

struct RecorderInner {
    ring: VecDeque<SpanRecord>,
    log: Option<File>,
}

/// A running flight recorder (see the module docs for the ring / span
/// log / postmortem split).
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
    epoch: Instant,
    dropped: AtomicU64,
    capacity: usize,
    postmortem: Option<PathBuf>,
}

impl FlightRecorder {
    /// Opens the recorder, creating (or appending to) the span log
    /// when one is configured.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the span log cannot be opened.
    pub fn open(config: &RecorderConfig) -> Result<FlightRecorder, StoreError> {
        let log = config.span_log.as_deref().map(open_append).transpose()?;
        Ok(FlightRecorder {
            inner: Mutex::new(RecorderInner {
                ring: VecDeque::with_capacity(config.capacity.max(1)),
                log,
            }),
            epoch: Instant::now(),
            dropped: AtomicU64::new(0),
            capacity: config.capacity.max(1),
            postmortem: config.postmortem.clone(),
        })
    }

    /// Microseconds since the recorder's epoch (its open time) — the
    /// clock every live-service span is stamped on.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records one span (see [`FlightRecorder::record_batch`]).
    pub fn record(&self, span: &SpanRecord) {
        self.record_batch(std::slice::from_ref(span));
    }

    /// Records a batch of spans: appends each to the ring (dropping
    /// and counting the oldest past capacity) and, when a span log is
    /// configured, writes one JSON line per span and flushes before
    /// returning — the durability the SIGKILL postmortem contract
    /// rests on.
    pub fn record_batch(&self, spans: &[SpanRecord]) {
        if spans.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder mutex poisoned");
        for span in spans {
            if inner.ring.len() == self.capacity {
                inner.ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            inner.ring.push_back(span.clone());
        }
        if let Some(log) = &mut inner.log {
            let mut chunk = String::new();
            for span in spans {
                chunk.push_str(&span.to_json().render());
                chunk.push('\n');
            }
            let _ = log.write_all(chunk.as_bytes());
            let _ = log.flush();
        }
    }

    /// A snapshot of the ring, oldest span first.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("recorder mutex poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// Spans currently held in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("recorder mutex poisoned")
            .ring
            .len()
    }

    /// Whether the ring holds no spans yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted from the ring so far (the overwrite counter; the
    /// span log, when enabled, still holds every one of them).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The ring rendered as a Chrome trace-event JSON document (see
    /// [`maeri_telemetry::span::chrome_trace`]).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        chrome_trace(&self.spans()).render()
    }

    /// Writes the postmortem dump — one JSON document with the drop
    /// counter and the full ring — to the configured path, returning
    /// the path written (or `None` when no path is configured).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the dump cannot be written.
    pub fn postmortem_dump(&self) -> Result<Option<PathBuf>, StoreError> {
        let Some(path) = &self.postmortem else {
            return Ok(None);
        };
        let spans: Vec<json::JsonValue> = self.spans().iter().map(SpanRecord::to_json).collect();
        let doc = json::JsonValue::object()
            .with("dropped", json::JsonValue::UInt(self.dropped()))
            .with("spans", json::JsonValue::Array(spans));
        std::fs::write(path, doc.render()).map_err(|err| StoreError::Io {
            context: format!("writing postmortem dump {}: {err}", path.display()),
        })?;
        Ok(Some(path.clone()))
    }
}

/// What [`read_span_log`] recovered from an on-disk span log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    /// Every parseable span, in append order.
    pub spans: Vec<SpanRecord>,
    /// Lines skipped as unparseable (a torn tail after SIGKILL, or
    /// external corruption).
    pub skipped: usize,
}

/// Reads a JSON-line span log back, skipping (and counting)
/// unparseable lines instead of failing on them — after a SIGKILL the
/// final line may be torn mid-write and the rest of the log is still
/// the evidence.
///
/// # Errors
///
/// [`StoreError::Io`] only when the file itself cannot be read.
pub fn read_span_log(path: &Path) -> Result<SpanLog, StoreError> {
    let text = std::fs::read_to_string(path).map_err(|err| StoreError::Io {
        context: format!("reading span log {}: {err}", path.display()),
    })?;
    let mut log = SpanLog::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line).ok().as_ref().map(SpanRecord::from_json) {
            Some(Ok(span)) => log.spans.push(span),
            _ => log.skipped += 1,
        }
    }
    Ok(log)
}

/// A parsed postmortem dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Postmortem {
    /// The recorder's overwrite counter at dump time.
    pub dropped: u64,
    /// The ring contents, oldest first.
    pub spans: Vec<SpanRecord>,
}

/// Parses a [`FlightRecorder::postmortem_dump`] file.
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be read or does not parse
/// as a postmortem document.
pub fn read_postmortem(path: &Path) -> Result<Postmortem, StoreError> {
    let text = std::fs::read_to_string(path).map_err(|err| StoreError::Io {
        context: format!("reading postmortem dump {}: {err}", path.display()),
    })?;
    let malformed = |detail: String| StoreError::Io {
        context: format!("postmortem dump {}: {detail}", path.display()),
    };
    let doc = json::parse(&text).map_err(|err| malformed(format!("bad json: {err}")))?;
    let dropped = doc
        .get("dropped")
        .and_then(json::JsonValue::as_u64)
        .ok_or_else(|| malformed("missing `dropped`".to_owned()))?;
    let raw_spans = doc
        .get("spans")
        .and_then(json::JsonValue::as_array)
        .ok_or_else(|| malformed("missing `spans`".to_owned()))?;
    let mut spans = Vec::with_capacity(raw_spans.len());
    for raw in raw_spans {
        spans.push(SpanRecord::from_json(raw).map_err(malformed)?);
    }
    Ok(Postmortem { dropped, spans })
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;

    use super::*;
    use maeri_telemetry::span::SpanKind;

    fn span(job: u64, start_us: u64) -> SpanRecord {
        SpanRecord {
            job,
            tenant: "t0".to_owned(),
            kind: SpanKind::Admission,
            start_us,
            dur_us: 1,
            status: "ok".to_owned(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maeri-recorder-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let recorder = FlightRecorder::open(&RecorderConfig {
            capacity: 3,
            ..RecorderConfig::default()
        })
        .unwrap();
        for i in 0..5 {
            recorder.record(&span(i, i));
        }
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].job, 2, "the oldest spans are evicted first");
        assert_eq!(spans[2].job, 4);
        assert_eq!(recorder.dropped(), 2);
    }

    #[test]
    fn span_log_survives_and_skips_a_torn_tail() {
        let dir = temp_dir("log");
        let log_path = dir.join("spans.log");
        let recorder = FlightRecorder::open(&RecorderConfig {
            capacity: 8,
            span_log: Some(log_path.clone()),
            postmortem: None,
        })
        .unwrap();
        recorder.record_batch(&[span(1, 10), span(2, 20)]);
        drop(recorder);
        // Simulate a SIGKILL mid-append: a torn, unparseable tail.
        let mut file = OpenOptions::new().append(true).open(&log_path).unwrap();
        file.write_all(b"{\"job\":3,\"tenant").unwrap();
        drop(file);
        let log = read_span_log(&log_path).unwrap();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[1].job, 2);
        assert_eq!(log.skipped, 1, "the torn tail is counted, not fatal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn postmortem_round_trips_through_disk() {
        let dir = temp_dir("dump");
        let dump_path = dir.join("postmortem.json");
        let recorder = FlightRecorder::open(&RecorderConfig {
            capacity: 2,
            span_log: None,
            postmortem: Some(dump_path.clone()),
        })
        .unwrap();
        for i in 0..3 {
            recorder.record(&span(i, i * 5));
        }
        let written = recorder.postmortem_dump().unwrap();
        assert_eq!(written.as_deref(), Some(dump_path.as_path()));
        let dump = read_postmortem(&dump_path).unwrap();
        assert_eq!(dump.dropped, 1);
        assert_eq!(dump.spans.len(), 2);
        assert_eq!(dump.spans, recorder.spans());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let recorder = FlightRecorder::open(&RecorderConfig::default()).unwrap();
        recorder.record(&span(1, 0));
        let text = recorder.chrome_json();
        maeri_telemetry::json::validate(&text).unwrap();
        assert!(text.contains("\"traceEvents\""));
    }

    #[test]
    fn memory_only_recorder_needs_no_paths() {
        let recorder = FlightRecorder::open(&RecorderConfig::default()).unwrap();
        recorder.record(&span(9, 1));
        assert_eq!(recorder.postmortem_dump().unwrap(), None);
        assert_eq!(recorder.spans().len(), 1);
        assert!(recorder.now_us() < 60_000_000, "epoch is recorder-local");
    }
}
