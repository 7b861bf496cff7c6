//! Chrome trace-event export.
//!
//! [`ChromeTraceSink`] records the full event stream and renders it in
//! the Chrome trace-event JSON format, loadable in `chrome://tracing`
//! or <https://ui.perfetto.dev>. The mapping treats one simulation
//! cycle as one microsecond of trace time, so the tracer's time axis
//! reads directly in cycles.

use crate::event::TraceEvent;
use crate::json::JsonValue;
use crate::sink::TraceSink;

/// Thread id used for events not tied to a particular lane.
const FABRIC_TID: u32 = 0;

/// Records every event and exports the stream as Chrome trace JSON.
///
/// Lane-scoped events (reduction waves, stalls) are placed on a trace
/// thread per lane (`tid = lane + 1`); fabric-wide events live on
/// `tid 0`. [`TraceEvent::VnReduceComplete`] becomes a complete (`"X"`)
/// slice spanning the wave's time in the ART, [`TraceEvent::DistIssue`]
/// becomes a counter (`"C"`) track, and everything else becomes
/// instants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeTraceSink {
    events: Vec<TraceEvent>,
}

impl ChromeTraceSink {
    /// Creates an empty trace recorder.
    #[must_use]
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// Number of events recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw recorded event stream, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Builds the trace document (`{"traceEvents": [...], ...}`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut trace_events: Vec<JsonValue> = Vec::with_capacity(self.events.len());
        for event in &self.events {
            trace_events.push(trace_event_json(event));
        }
        JsonValue::object()
            .with("traceEvents", JsonValue::Array(trace_events))
            .with("displayTimeUnit", JsonValue::Str("ms".to_owned()))
            .with(
                "otherData",
                JsonValue::object()
                    .with("source", JsonValue::Str("maeri-telemetry".to_owned()))
                    .with("timeUnit", JsonValue::Str("1 cycle = 1 us".to_owned())),
            )
    }

    /// Renders the trace document as compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Common envelope: name / category / phase / timestamp / pid / tid.
fn envelope(name: &str, ph: &str, ts: u64, tid: u32) -> JsonValue {
    JsonValue::object()
        .with("name", JsonValue::Str(name.to_owned()))
        .with("cat", JsonValue::Str("fabric".to_owned()))
        .with("ph", JsonValue::Str(ph.to_owned()))
        .with("ts", JsonValue::UInt(ts))
        .with("pid", JsonValue::UInt(1))
        .with("tid", JsonValue::UInt(u64::from(tid)))
}

fn instant(name: &str, ts: u64, tid: u32, args: JsonValue) -> JsonValue {
    envelope(name, "i", ts, tid)
        .with(
            "s",
            JsonValue::Str(if tid == FABRIC_TID { "g" } else { "t" }.to_owned()),
        )
        .with("args", args)
}

fn counter(name: &str, ts: u64, args: JsonValue) -> JsonValue {
    envelope(name, "C", ts, FABRIC_TID).with("args", args)
}

fn lane_tid(lane: u32) -> u32 {
    lane + 1
}

fn trace_event_json(event: &TraceEvent) -> JsonValue {
    match *event {
        TraceEvent::DistIssue { cycle, words } => counter(
            "dist_issue_words",
            cycle,
            JsonValue::object().with("words", JsonValue::UInt(words)),
        ),
        TraceEvent::FlitDropped { cycle } => {
            instant("flit_dropped", cycle, FABRIC_TID, JsonValue::object())
        }
        TraceEvent::DistDelivery {
            unique_words,
            cycles,
        } => instant(
            "dist_delivery",
            0,
            FABRIC_TID,
            JsonValue::object()
                .with("unique_words", JsonValue::UInt(unique_words))
                .with("cycles", JsonValue::UInt(cycles)),
        ),
        TraceEvent::DistStall { cycle, lane } => instant(
            "dist_stall",
            cycle,
            lane_tid(lane),
            JsonValue::object().with("lane", JsonValue::UInt(u64::from(lane))),
        ),
        TraceEvent::CollectStall { cycle, lane } => instant(
            "collect_stall",
            cycle,
            lane_tid(lane),
            JsonValue::object().with("lane", JsonValue::UInt(u64::from(lane))),
        ),
        TraceEvent::VnReduceStart { cycle, lane } => instant(
            "vn_reduce_start",
            cycle,
            lane_tid(lane),
            JsonValue::object().with("lane", JsonValue::UInt(u64::from(lane))),
        ),
        TraceEvent::VnReduceComplete {
            cycle,
            lane,
            latency,
        } => envelope(
            "vn_reduce",
            "X",
            cycle.saturating_sub(latency),
            lane_tid(lane),
        )
        .with("dur", JsonValue::UInt(latency))
        .with(
            "args",
            JsonValue::object()
                .with("lane", JsonValue::UInt(u64::from(lane)))
                .with("latency_cycles", JsonValue::UInt(latency)),
        ),
        TraceEvent::ArtConfigured {
            active_adders,
            forward_links,
        } => instant(
            "art_configured",
            0,
            FABRIC_TID,
            JsonValue::object()
                .with("active_adders", JsonValue::UInt(active_adders))
                .with("forward_links", JsonValue::UInt(forward_links)),
        ),
        TraceEvent::RunEnd { cycle } => instant("run_end", cycle, FABRIC_TID, JsonValue::object()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn records_and_renders_valid_json() {
        let mut sink = ChromeTraceSink::new();
        sink.emit(|| TraceEvent::ArtConfigured {
            active_adders: 60,
            forward_links: 2,
        });
        sink.emit(|| TraceEvent::DistIssue { cycle: 1, words: 8 });
        sink.emit(|| TraceEvent::VnReduceStart { cycle: 2, lane: 3 });
        sink.emit(|| TraceEvent::VnReduceComplete {
            cycle: 9,
            lane: 3,
            latency: 7,
        });
        sink.emit(|| TraceEvent::RunEnd { cycle: 12 });
        assert_eq!(sink.len(), 5);

        let text = sink.render();
        validate(&text).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        // The complete slice starts at cycle - latency and spans latency.
        assert!(text.contains("\"name\":\"vn_reduce\",\"cat\":\"fabric\",\"ph\":\"X\",\"ts\":2"));
        assert!(text.contains("\"dur\":7"));
        // Lane 3 lives on tid 4 (tid 0 is the fabric-wide thread).
        assert!(text.contains("\"tid\":4"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let sink = ChromeTraceSink::new();
        assert!(sink.is_empty());
        let text = sink.render();
        validate(&text).unwrap();
        assert!(text.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn counter_events_use_counter_phase() {
        let mut sink = ChromeTraceSink::new();
        sink.emit(|| TraceEvent::DistIssue { cycle: 4, words: 3 });
        let text = sink.render();
        validate(&text).unwrap();
        assert!(text.contains("\"name\":\"dist_issue_words\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"words\":3"));
    }
}
