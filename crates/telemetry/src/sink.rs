//! Trace sinks: where probe events go.

use maeri_sim::histogram::Histogram;
use maeri_sim::Stats;

use crate::event::TraceEvent;

/// Consumer of [`TraceEvent`]s.
///
/// Simulation hot loops are generic over `S: TraceSink` and call
/// [`TraceSink::emit`] with a closure. `emit` checks the associated
/// [`TraceSink::ENABLED`] constant before calling the closure, so for
/// [`NullSink`] (where it is `false`) the branch, the event
/// construction, and the record call all monomorphize away — probed
/// code with a `NullSink` is the uninstrumented loop.
pub trait TraceSink {
    /// Compile-time enable switch. `false` turns every probe in a
    /// monomorphized call path into nothing.
    const ENABLED: bool = true;

    /// Consumes one event. Only called while [`TraceSink::ENABLED`].
    fn record(&mut self, event: TraceEvent);

    /// Emits the event built by `make` if the sink is enabled. Probe
    /// sites call this so a disabled sink never pays for event
    /// construction.
    #[inline]
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if Self::ENABLED {
            self.record(make());
        }
    }
}

/// The no-op sink: telemetry compiled in but disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Counts events by [`TraceEvent::kind`]; the cheapest enabled sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    counts: Stats,
}

impl CountingSink {
    /// Creates an empty counter sink.
    #[must_use]
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Events of the given kind seen so far.
    #[must_use]
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind)
    }

    /// Total events across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, v)| v).sum()
    }

    /// The per-kind counters.
    #[must_use]
    pub fn counts(&self) -> &Stats {
        &self.counts
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        self.counts.incr(event.kind());
    }
}

/// The aggregating sink behind [`crate::FabricTelemetry`]: per-kind
/// counts plus the accumulators a per-run summary needs (issued words,
/// stall lane-cycles, wave count, VN completion latencies, ART
/// configuration usage, final cycle).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySink {
    counts: Stats,
    words_issued: u64,
    flit_drops: u64,
    dist_stall_lane_cycles: u64,
    collect_stall_lane_cycles: u64,
    waves_started: u64,
    art_active_adders: u64,
    art_forward_links: u64,
    vn_latency: Histogram,
    end_cycle: u64,
}

impl TelemetrySink {
    /// Creates an empty aggregating sink.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// Unique words injected at the distribution root.
    #[must_use]
    pub fn words_issued(&self) -> u64 {
        self.words_issued
    }

    /// Flits lost to faulty links.
    #[must_use]
    pub fn flit_drops(&self) -> u64 {
        self.flit_drops
    }

    /// Lane-cycles spent starved for inputs.
    #[must_use]
    pub fn dist_stall_lane_cycles(&self) -> u64 {
        self.dist_stall_lane_cycles
    }

    /// Lane-cycles spent blocked on collection back-pressure.
    #[must_use]
    pub fn collect_stall_lane_cycles(&self) -> u64 {
        self.collect_stall_lane_cycles
    }

    /// Reduction waves fired into the ART.
    #[must_use]
    pub fn waves_started(&self) -> u64 {
        self.waves_started
    }

    /// Active adders of the last [`TraceEvent::ArtConfigured`].
    #[must_use]
    pub fn art_active_adders(&self) -> u64 {
        self.art_active_adders
    }

    /// Forwarding-link activations of the last
    /// [`TraceEvent::ArtConfigured`].
    #[must_use]
    pub fn art_forward_links(&self) -> u64 {
        self.art_forward_links
    }

    /// Per-wave ART completion latencies.
    #[must_use]
    pub fn vn_latency(&self) -> &Histogram {
        &self.vn_latency
    }

    /// The highest cycle stamp seen (normally the
    /// [`TraceEvent::RunEnd`] marker).
    #[must_use]
    pub fn end_cycle(&self) -> u64 {
        self.end_cycle
    }

    /// Per-kind event counters.
    #[must_use]
    pub fn counts(&self) -> &Stats {
        &self.counts
    }

    /// Total events across all kinds.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.counts.iter().map(|(_, v)| v).sum()
    }
}

impl TraceSink for TelemetrySink {
    fn record(&mut self, event: TraceEvent) {
        self.counts.incr(event.kind());
        if let Some(cycle) = event.cycle() {
            self.end_cycle = self.end_cycle.max(cycle);
        }
        match event {
            TraceEvent::DistIssue { words, .. } => self.words_issued += words,
            TraceEvent::FlitDropped { .. } => self.flit_drops += 1,
            TraceEvent::DistStall { .. } => self.dist_stall_lane_cycles += 1,
            TraceEvent::CollectStall { .. } => self.collect_stall_lane_cycles += 1,
            TraceEvent::VnReduceStart { .. } => self.waves_started += 1,
            TraceEvent::VnReduceComplete { latency, .. } => self.vn_latency.record(latency),
            TraceEvent::ArtConfigured {
                active_adders,
                forward_links,
            } => {
                self.art_active_adders = active_adders;
                self.art_forward_links = forward_links;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed<S: TraceSink>(sink: &mut S) {
        sink.emit(|| TraceEvent::DistIssue { cycle: 1, words: 8 });
        sink.emit(|| TraceEvent::VnReduceStart { cycle: 1, lane: 0 });
        sink.emit(|| TraceEvent::VnReduceComplete {
            cycle: 7,
            lane: 0,
            latency: 6,
        });
        sink.emit(|| TraceEvent::DistStall { cycle: 2, lane: 1 });
        sink.emit(|| TraceEvent::ArtConfigured {
            active_adders: 60,
            forward_links: 2,
        });
        sink.emit(|| TraceEvent::RunEnd { cycle: 9 });
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) }
        // The closure must never run on a disabled sink.
        let mut sink = NullSink;
        sink.emit(|| unreachable!("NullSink must not build events"));
    }

    #[test]
    fn counting_sink_tallies_kinds() {
        let mut sink = CountingSink::new();
        feed(&mut sink);
        assert_eq!(sink.count("dist_issue"), 1);
        assert_eq!(sink.count("vn_reduce_start"), 1);
        assert_eq!(sink.count("never_seen"), 0);
        assert_eq!(sink.total(), 6);
        assert_eq!(sink.counts().len(), 6);
    }

    #[test]
    fn telemetry_sink_accumulates() {
        let mut sink = TelemetrySink::new();
        feed(&mut sink);
        assert_eq!(sink.words_issued(), 8);
        assert_eq!(sink.waves_started(), 1);
        assert_eq!(sink.dist_stall_lane_cycles(), 1);
        assert_eq!(sink.collect_stall_lane_cycles(), 0);
        assert_eq!(sink.art_active_adders(), 60);
        assert_eq!(sink.art_forward_links(), 2);
        assert_eq!(sink.vn_latency().len(), 1);
        assert_eq!(sink.vn_latency().max(), Some(6));
        assert_eq!(sink.end_cycle(), 9);
        assert_eq!(sink.total_events(), 6);
    }
}
