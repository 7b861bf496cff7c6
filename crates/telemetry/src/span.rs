//! Service-level trace spans: the request-path vocabulary shared by
//! the serving stack's flight recorder and the deterministic
//! virtual-time load simulator.
//!
//! The fabric probes in this crate speak in *cycles*; the serving
//! layer above them speaks in *request phases*: a job is admitted,
//! verified, waits in its tenant's queue, is dispatched (one runtime
//! attempt when the cache does not answer), has its result and journal
//! tombstone appended, and finally gets its reply published.
//! [`SpanKind`] is the closed catalog of those phases, [`SpanRecord`]
//! is one timed interval of one job's life, and [`chrome_trace`]
//! renders a span stream in the same Chrome trace-event JSON shape as
//! [`crate::ChromeTraceSink`] (one job per trace thread), reusing the
//! hand-rolled [`crate::json`] machinery.
//!
//! # Phase model
//!
//! Per job, the **phase** spans are sequential and non-overlapping, in
//! this order: `verify` → `admission` → `journal_append` →
//! `queue_wait` → `dispatch` → `store_put` → `journal_append`
//! (tombstone) → `reply`. The one **child** kind is `attempt`: the
//! runtime's execution of the job nests inside its `dispatch` span
//! ([`SpanKind::is_phase`] is the discriminator, and
//! [`validate_trace`] enforces the whole contract). Timestamps are
//! microseconds on whatever clock the producer uses — wall-clock since
//! a recorder epoch for the live service, the virtual clock for the
//! load simulator — which is why validation only ever compares spans
//! within one trace.

use crate::json::JsonValue;

maeri_sim::catalog! {
    /// The closed catalog of service request-path span kinds, in
    /// canonical phase order (children after the phase they nest in).
    ///
    /// The live trace test in `maeri-serve` requires every kind in
    /// [`SpanKind::ALL`] on each executed job's request path, so a kind
    /// no producer emits fails it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SpanKind {
        /// Verifier pre-flight on the caller's thread.
        Verify => "verify",
        /// The admission decision: store fast-path, circuit breaker, and
        /// the per-tenant in-flight bound. The span's status carries the
        /// accept/reject cause.
        Admission => "admission",
        /// One durable journal append — the write-ahead admit record at
        /// admission, or the tombstone after dispatch.
        JournalAppend => "journal_append",
        /// Time spent queued behind the tenant's earlier jobs, from
        /// admission to worker pickup.
        QueueWait => "queue_wait",
        /// The worker executing the job through the runtime (a cache
        /// lookup, then the attempt on a miss).
        Dispatch => "dispatch",
        /// The runtime's one execution of the job (a child of
        /// `dispatch`, absent on a cache hit; the status classifies it:
        /// ok / sim_error / invalid_mapping / timeout / panic).
        Attempt => "attempt",
        /// Appending the result to the persistent store.
        StorePut => "store_put",
        /// Publishing the outcome on the job's ticket and waking waiters.
        Reply => "reply",
    }
}

impl SpanKind {
    /// Whether the kind is a top-level phase (sequential and
    /// non-overlapping within one job) as opposed to a child span
    /// nested inside a phase (`attempt` inside `dispatch`).
    #[must_use]
    pub fn is_phase(self) -> bool {
        !matches!(self, SpanKind::Attempt)
    }
}

/// One completed, timed interval of one job's request path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The job (ticket) id the span belongs to; `0` for spans of
    /// submits rejected before an id was published.
    pub job: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// Which phase of the request path this is.
    pub kind: SpanKind,
    /// Start, in microseconds on the producer's clock.
    pub start_us: u64,
    /// Duration in microseconds (zero-length spans are legal: the
    /// virtual-time producer stamps instantaneous phases that way).
    pub dur_us: u64,
    /// Outcome tag: `ok`, a reject cause (`rejected_backpressure`,
    /// `rejected_invalid`, `rejected_circuit`, `closed`, `store_hit`),
    /// or an attempt classification (`sim_error`, `timeout`, `panic`).
    pub status: String,
}

impl SpanRecord {
    /// The span of `job`'s `kind` phase from `start_us` to `end_us`
    /// (a zero-length span if `end_us` is earlier).
    #[must_use]
    pub fn between(
        job: u64,
        tenant: &str,
        kind: SpanKind,
        start_us: u64,
        end_us: u64,
        status: &str,
    ) -> SpanRecord {
        SpanRecord {
            job,
            tenant: tenant.to_owned(),
            kind,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            status: status.to_owned(),
        }
    }

    /// The span's end (`start_us + dur_us`, saturating).
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }

    /// The span as one JSON object — the line format of the flight
    /// recorder's eager on-disk span log and the postmortem dump.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("job", JsonValue::UInt(self.job))
            .with("tenant", JsonValue::Str(self.tenant.clone()))
            .with("kind", JsonValue::Str(self.kind.name().to_owned()))
            .with("start_us", JsonValue::UInt(self.start_us))
            .with("dur_us", JsonValue::UInt(self.dur_us))
            .with("status", JsonValue::Str(self.status.clone()))
    }

    /// Parses one span back from its [`SpanRecord::to_json`] object.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing or malformed field.
    pub fn from_json(doc: &JsonValue) -> Result<SpanRecord, String> {
        let field_u64 = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("span record is missing numeric `{key}`"))
        };
        let field_str = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("span record is missing string `{key}`"))
        };
        let kind_name = field_str("kind")?;
        let kind = SpanKind::from_name(kind_name)
            .ok_or_else(|| format!("unknown span kind `{kind_name}`"))?;
        Ok(SpanRecord {
            job: field_u64("job")?,
            tenant: field_str("tenant")?.to_owned(),
            kind,
            start_us: field_u64("start_us")?,
            dur_us: field_u64("dur_us")?,
            status: field_str("status")?.to_owned(),
        })
    }
}

/// Renders a span stream as a Chrome trace-event document — the same
/// `{"traceEvents": [...]}` shape [`crate::ChromeTraceSink::to_json`]
/// produces for fabric events, loadable in `chrome://tracing` /
/// `ui.perfetto.dev`. Every span becomes a complete (`"X"`) slice in
/// category `service`, placed on a trace thread per job (`tid` = job
/// id) so one job's phases line up as one lane.
#[must_use]
pub fn chrome_trace(spans: &[SpanRecord]) -> JsonValue {
    let trace_events: Vec<JsonValue> = spans
        .iter()
        .map(|span| {
            JsonValue::object()
                .with("name", JsonValue::Str(span.kind.name().to_owned()))
                .with("cat", JsonValue::Str("service".to_owned()))
                .with("ph", JsonValue::Str("X".to_owned()))
                .with("ts", JsonValue::UInt(span.start_us))
                .with("dur", JsonValue::UInt(span.dur_us))
                .with("pid", JsonValue::UInt(1))
                .with("tid", JsonValue::UInt(span.job))
                .with(
                    "args",
                    JsonValue::object()
                        .with("tenant", JsonValue::Str(span.tenant.clone()))
                        .with("status", JsonValue::Str(span.status.clone())),
                )
        })
        .collect();
    JsonValue::object()
        .with("traceEvents", JsonValue::Array(trace_events))
        .with("displayTimeUnit", JsonValue::Str("ms".to_owned()))
        .with(
            "otherData",
            JsonValue::object()
                .with("source", JsonValue::Str("maeri-serve".to_owned()))
                .with("timeUnit", JsonValue::Str("us".to_owned())),
        )
}

/// Validates one trace's per-job span contract:
///
/// * within each job, **phase** spans must be monotonic and
///   non-overlapping in emission order (each starts at or after the
///   previous phase's end);
/// * every **child** span (`attempt`) must lie inside its job's
///   `dispatch` phase.
///
/// Spans of different jobs are independent. Job `0` — the sentinel
/// all rejected submits share, since no id was acknowledged — is
/// exempt from the phase-ordering rule: concurrent rejects interleave
/// freely on that lane.
///
/// # Errors
///
/// A human-readable message naming the first offending job and span.
pub fn validate_trace(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut last_phase_end: HashMap<u64, u64> = HashMap::new();
    let mut dispatch: HashMap<u64, (u64, u64)> = HashMap::new();
    for span in spans {
        if span.kind == SpanKind::Dispatch {
            dispatch.insert(span.job, (span.start_us, span.end_us()));
        }
        if !span.kind.is_phase() || span.job == 0 {
            continue;
        }
        let end = last_phase_end.entry(span.job).or_insert(0);
        if span.start_us < *end {
            return Err(format!(
                "job {}: phase `{}` starts at {}us, before the previous phase ended at {}us",
                span.job,
                span.kind.name(),
                span.start_us,
                *end
            ));
        }
        *end = span.end_us();
    }
    for span in spans {
        if span.kind.is_phase() {
            continue;
        }
        let Some(&(start, end)) = dispatch.get(&span.job) else {
            return Err(format!(
                "job {}: child span `{}` has no enclosing dispatch phase",
                span.job,
                span.kind.name()
            ));
        };
        if span.start_us < start || span.end_us() > end {
            return Err(format!(
                "job {}: child span `{}` [{}, {}]us escapes its dispatch phase [{start}, {end}]us",
                span.job,
                span.kind.name(),
                span.start_us,
                span.end_us()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate};

    fn span(job: u64, kind: SpanKind, start_us: u64, dur_us: u64, status: &str) -> SpanRecord {
        SpanRecord {
            job,
            tenant: "t0".to_owned(),
            kind,
            start_us,
            dur_us,
            status: status.to_owned(),
        }
    }

    #[test]
    fn catalog_names_are_stable_and_round_trip() {
        // Only some of these reach report bytes, so pin the whole list.
        assert_eq!(
            SpanKind::ALL.map(SpanKind::name),
            [
                "verify",
                "admission",
                "journal_append",
                "queue_wait",
                "dispatch",
                "attempt",
                "store_put",
                "reply"
            ]
        );
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("warp_drive"), None);
        assert!(SpanKind::Dispatch.is_phase());
        assert!(!SpanKind::Attempt.is_phase());
    }

    #[test]
    fn span_record_json_round_trips() {
        let original = span(7, SpanKind::QueueWait, 120, 35, "ok");
        let text = original.to_json().render();
        validate(&text).unwrap();
        let parsed = SpanRecord::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn malformed_span_json_is_an_error_not_a_panic() {
        let missing = JsonValue::object().with("job", JsonValue::UInt(1));
        assert!(SpanRecord::from_json(&missing).is_err());
        let bad_kind = JsonValue::object()
            .with("job", JsonValue::UInt(1))
            .with("tenant", JsonValue::Str("t0".to_owned()))
            .with("kind", JsonValue::Str("warp_drive".to_owned()))
            .with("start_us", JsonValue::UInt(0))
            .with("dur_us", JsonValue::UInt(0))
            .with("status", JsonValue::Str("ok".to_owned()));
        let err = SpanRecord::from_json(&bad_kind).unwrap_err();
        assert!(err.contains("warp_drive"));
    }

    #[test]
    fn chrome_trace_is_valid_and_one_lane_per_job() {
        let doc = chrome_trace(&[
            span(1, SpanKind::Admission, 0, 2, "ok"),
            span(2, SpanKind::Admission, 1, 2, "rejected_backpressure"),
        ]);
        let text = doc.render();
        validate(&text).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"cat\":\"service\""));
        assert!(text.contains("\"tid\":1"));
        assert!(text.contains("\"tid\":2"));
        assert!(text.contains("\"status\":\"rejected_backpressure\""));
    }

    #[test]
    fn validate_trace_accepts_a_full_job_and_nested_attempts() {
        let spans = vec![
            span(1, SpanKind::Verify, 0, 3, "ok"),
            span(1, SpanKind::Admission, 3, 2, "ok"),
            span(1, SpanKind::JournalAppend, 5, 1, "ok"),
            span(1, SpanKind::QueueWait, 6, 10, "ok"),
            span(1, SpanKind::Dispatch, 16, 40, "ok"),
            span(1, SpanKind::Attempt, 16, 20, "timeout"),
            span(1, SpanKind::Attempt, 36, 20, "ok"),
            span(1, SpanKind::StorePut, 56, 2, "ok"),
            span(1, SpanKind::JournalAppend, 58, 1, "ok"),
            span(1, SpanKind::Reply, 59, 1, "ok"),
            // A second, interleaved job does not disturb the first.
            span(2, SpanKind::Verify, 4, 0, "ok"),
            span(2, SpanKind::Admission, 4, 0, "ok"),
            // Concurrent rejects share the job-0 sentinel lane and may
            // interleave arbitrarily; the validator exempts that lane.
            span(0, SpanKind::Verify, 10, 5, "ok"),
            span(0, SpanKind::Verify, 8, 5, "ok"),
            span(0, SpanKind::Admission, 9, 1, "rejected_backpressure"),
        ];
        validate_trace(&spans).unwrap();
    }

    #[test]
    fn validate_trace_rejects_overlap_and_orphan_children() {
        let overlapping = vec![
            span(1, SpanKind::QueueWait, 0, 10, "ok"),
            span(1, SpanKind::Dispatch, 5, 10, "ok"),
        ];
        let err = validate_trace(&overlapping).unwrap_err();
        assert!(err.contains("before the previous phase ended"));

        let orphan = vec![span(3, SpanKind::Attempt, 0, 5, "ok")];
        let err = validate_trace(&orphan).unwrap_err();
        assert!(err.contains("no enclosing dispatch"));

        let escaping = vec![
            span(4, SpanKind::Dispatch, 10, 5, "ok"),
            span(4, SpanKind::Attempt, 8, 5, "ok"),
        ];
        let err = validate_trace(&escaping).unwrap_err();
        assert!(err.contains("escapes its dispatch phase"));
    }
}
