//! The time-series side of service metrics: windowed histograms,
//! per-tenant SLO accounting, and Prometheus-style text exposition.
//!
//! [`crate::metrics`] declares every `stats` value once, in one table;
//! this module adds what a flat counter table cannot express:
//!
//! * **windows** — [`WindowedHistogram`] keeps the current and the
//!   previous fixed-size sample window (merged with
//!   [`maeri_sim::histogram::Histogram::merge`]), so percentiles
//!   reflect *recent* behavior at bounded memory instead of averaging
//!   over the whole process lifetime;
//! * **SLOs** — [`SloTracker`] scores every completion per tenant
//!   against the [`SLO_TARGET_P99_US`] latency target: deadline-hit
//!   rate, windowed p99 vs the target, and burn of the
//!   [`SLO_ERROR_BUDGET`];
//!
//! and one exposition surface: [`MetricsRegistry`] renders counter
//! and gauge families as Prometheus text (`# HELP` / `# TYPE` /
//! samples with labels), served by the `metrics` wire verb. The
//! registry is rebuilt from a snapshot at render time — nothing here
//! touches the submit or dispatch hot paths beyond one histogram
//! record per completion.

use std::collections::BTreeMap;
use std::sync::Mutex;

use maeri_sim::histogram::Histogram;

/// The per-tenant latency target: a completion at or under this many
/// µs (and successful) hits its SLO.
pub const SLO_TARGET_P99_US: u64 = 50_000;

/// The tolerated SLO miss fraction: burn 1.0 means misses arrive
/// exactly at budget, above 1.0 the budget is being exceeded.
pub const SLO_ERROR_BUDGET: f64 = 0.01;

/// Completions per tenant latency window.
const SLO_WINDOW: usize = 64;

/// A two-window sample histogram: the currently-filling window plus
/// the previous completed one. Recording rotates the windows when the
/// current one reaches `window` samples; reads merge both, so
/// percentiles cover between `window` and `2 * window` recent samples
/// and old history ages out instead of dominating forever.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    window: usize,
    current: Histogram,
    previous: Histogram,
}

impl WindowedHistogram {
    /// Creates an empty pair of windows rotating every `window`
    /// samples (minimum 1).
    #[must_use]
    pub fn new(window: usize) -> Self {
        WindowedHistogram {
            window: window.max(1),
            current: Histogram::new(),
            previous: Histogram::new(),
        }
    }

    /// Records one sample, rotating the windows at capacity.
    pub fn record(&mut self, sample: u64) {
        if self.current.len() >= self.window {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.record(sample);
    }

    /// Samples currently held across both windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// Whether no sample has ever been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Both windows merged into one histogram (the read surface for
    /// percentiles).
    #[must_use]
    pub fn merged(&self) -> Histogram {
        let mut merged = self.previous.clone();
        merged.merge(&self.current);
        merged
    }
}

#[derive(Debug)]
struct TenantWindow {
    latency: WindowedHistogram,
    completed: u64,
    deadline_hits: u64,
    deadline_misses: u64,
}

/// One tenant's SLO position, as reported by [`SloTracker::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// The tenant.
    pub tenant: String,
    /// Completions observed.
    pub completed: u64,
    /// Completions that hit the SLO (successful, within target).
    pub deadline_hits: u64,
    /// Completions that missed it (failed, or over target).
    pub deadline_misses: u64,
    /// `deadline_hits / completed`; 1.0 before any completion.
    pub hit_rate: f64,
    /// 99th-percentile latency over the recent windows, µs.
    pub window_p99_us: u64,
    /// Miss fraction over the error budget: under 1.0 the tenant is
    /// within budget, above it the budget is being burned faster than
    /// tolerated.
    pub budget_burn: f64,
}

/// Per-tenant SLO accounting: feed it every completion, read back a
/// per-tenant scorecard. Latency is windowed over the last 64 to 128
/// completions per tenant.
#[derive(Debug, Default)]
pub struct SloTracker {
    tenants: Mutex<BTreeMap<String, TenantWindow>>,
}

impl SloTracker {
    /// Scores one completion: `ok` within [`SLO_TARGET_P99_US`] is a
    /// deadline hit, anything else a miss.
    pub fn observe(&self, tenant: &str, latency_us: u64, ok: bool) {
        let mut tenants = self.tenants.lock().expect("slo mutex poisoned");
        let entry = tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantWindow {
                latency: WindowedHistogram::new(SLO_WINDOW),
                completed: 0,
                deadline_hits: 0,
                deadline_misses: 0,
            });
        entry.latency.record(latency_us);
        entry.completed += 1;
        if ok && latency_us <= SLO_TARGET_P99_US {
            entry.deadline_hits += 1;
        } else {
            entry.deadline_misses += 1;
        }
    }

    /// The per-tenant scorecard, sorted by tenant name.
    #[must_use]
    pub fn report(&self) -> Vec<TenantSlo> {
        let tenants = self.tenants.lock().expect("slo mutex poisoned");
        tenants
            .iter()
            .map(|(tenant, window)| {
                let hit_rate = if window.completed == 0 {
                    1.0
                } else {
                    window.deadline_hits as f64 / window.completed as f64
                };
                TenantSlo {
                    tenant: tenant.clone(),
                    completed: window.completed,
                    deadline_hits: window.deadline_hits,
                    deadline_misses: window.deadline_misses,
                    hit_rate,
                    window_p99_us: window.latency.merged().percentile(99.0).unwrap_or(0),
                    budget_burn: (1.0 - hit_rate) / SLO_ERROR_BUDGET,
                }
            })
            .collect()
    }

    /// Pushes the SLO target and the per-tenant scorecard families:
    /// the exposition-only part of the `metrics` verb, since `stats`
    /// has no tenant label to carry them.
    pub fn expose(&self, reg: &mut MetricsRegistry) {
        use MetricKind::{Counter, Gauge};
        reg.push(
            "maeri_slo_target_p99_us",
            "Latency target completions are scored against, microseconds.",
            Gauge,
            &[],
            SLO_TARGET_P99_US as f64,
        );
        for tenant in self.report() {
            let labels = [("tenant", tenant.tenant.as_str())];
            for (name, help, kind, value) in [
                (
                    "maeri_slo_completions_total",
                    "Completions scored against the SLO, per tenant.",
                    Counter,
                    tenant.completed as f64,
                ),
                (
                    "maeri_slo_deadline_hits_total",
                    "Completions that hit the SLO (successful, within target).",
                    Counter,
                    tenant.deadline_hits as f64,
                ),
                (
                    "maeri_slo_deadline_misses_total",
                    "Completions that missed the SLO (failed or over target).",
                    Counter,
                    tenant.deadline_misses as f64,
                ),
                (
                    "maeri_slo_deadline_hit_ratio",
                    "Deadline hits over completions, per tenant.",
                    Gauge,
                    tenant.hit_rate,
                ),
                (
                    "maeri_slo_window_p99_us",
                    "Windowed p99 latency vs the target, per tenant.",
                    Gauge,
                    tenant.window_p99_us as f64,
                ),
                (
                    "maeri_slo_budget_burn",
                    "Recent miss fraction over the error budget, per tenant.",
                    Gauge,
                    tenant.budget_burn,
                ),
            ] {
                reg.push(name, help, kind, &labels, value);
            }
        }
    }
}

/// One sample of a metric family: `(name, value)` label pairs,
/// rendered as `{name="value"}`, plus the value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    labels: Vec<(String, String)>,
    value: f64,
}

/// The Prometheus metric kinds this registry exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One named metric family (`[a-zA-Z_:][a-zA-Z0-9_:]*`): help line,
/// kind, and its samples (one unlabeled, or many labeled).
#[derive(Debug, Clone, PartialEq)]
struct MetricFamily {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

/// An ordered collection of metric families rendered as Prometheus
/// text exposition format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    families: Vec<MetricFamily>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds one sample; samples with the same `name` collect into one
    /// family (the first call's `help` and `kind` win).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid Prometheus metric name.
    pub fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        assert!(
            valid_metric_name(name),
            "invalid Prometheus metric name `{name}`"
        );
        let labels = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let sample = Sample { labels, value };
        if let Some(family) = self.families.iter_mut().find(|f| f.name == name) {
            family.samples.push(sample);
        } else {
            self.families.push(MetricFamily {
                name: name.to_owned(),
                help: help.to_owned(),
                kind,
                samples: vec![sample],
            });
        }
    }

    /// Renders the registry as Prometheus text exposition: per family
    /// a `# HELP` line, a `# TYPE` line, and one line per sample.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for sample in &family.samples {
                out.push_str(&family.name);
                if !sample.labels.is_empty() {
                    out.push('{');
                    for (i, (key, value)) in sample.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{key}=\"{}\"", escape_label(value));
                    }
                    out.push('}');
                }
                out.push(' ');
                out.push_str(&render_value(sample.value));
                out.push('\n');
            }
        }
        out
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` per the Prometheus data model.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{value}")
    }
}

/// A lightweight shape check over Prometheus text exposition, used by
/// tests and the wire-level smoke: every non-comment line must be
/// `name[{labels}] value` with a valid metric name and a parseable
/// value, and every sample must be preceded by a `# TYPE` for its
/// family.
///
/// # Errors
///
/// A human-readable message naming the first offending line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            if !valid_metric_name(name) || !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {}: bad TYPE line `{line}`", lineno + 1));
            }
            typed.push(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let name_end = line.find([' ', '{']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {}: bad metric name `{name}`", lineno + 1));
        }
        if !typed.iter().any(|t| t == name) {
            return Err(format!("line {}: sample `{name}` has no TYPE", lineno + 1));
        }
        let value = line.rsplit(' ').next().unwrap_or_default();
        if !matches!(value, "NaN" | "+Inf" | "-Inf") && value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad sample value `{value}`", lineno + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_histogram_rotates_and_ages_out() {
        let mut w = WindowedHistogram::new(4);
        for i in 1..=4 {
            w.record(i);
        }
        assert_eq!(w.len(), 4);
        // The 5th sample rotates: previous = {1..4}, current = {5}.
        w.record(5);
        assert_eq!(w.len(), 5);
        assert_eq!(w.merged().percentile(100.0), Some(5));
        // Four more rotate again; the first window's samples are gone.
        for i in 6..=9 {
            w.record(i);
        }
        let mut merged = w.merged();
        assert_eq!(merged.min(), Some(5), "samples 1-4 aged out");
        assert_eq!(merged.percentile(100.0), Some(9));
    }

    #[test]
    fn slo_tracker_scores_hits_misses_and_burn() {
        let tracker = SloTracker::default();
        tracker.observe("a", 50, true); // hit
        tracker.observe("a", SLO_TARGET_P99_US, true); // hit: at target
        tracker.observe("a", SLO_TARGET_P99_US + 1, true); // miss: over target
        tracker.observe("a", 10, false); // miss: failed
        tracker.observe("b", 10, true); // hit
        let report = tracker.report();
        assert_eq!(report.len(), 2);
        let a = &report[0];
        assert_eq!(a.tenant, "a");
        assert_eq!(a.completed, 4);
        assert_eq!(a.deadline_hits, 2);
        assert_eq!(a.deadline_misses, 2);
        assert!((a.hit_rate - 0.5).abs() < 1e-12);
        // Miss fraction 0.5 over the 1 % budget → burning 50x the budget.
        assert!((a.budget_burn - 0.5 / SLO_ERROR_BUDGET).abs() < 1e-9);
        assert_eq!(a.window_p99_us, SLO_TARGET_P99_US + 1);
        let b = &report[1];
        assert!((b.hit_rate - 1.0).abs() < 1e-12);
        assert!((b.budget_burn).abs() < 1e-12);
    }

    #[test]
    fn registry_renders_valid_exposition() {
        let mut reg = MetricsRegistry::new();
        let (counter, gauge) = (MetricKind::Counter, MetricKind::Gauge);
        reg.push("maeri_submitted_total", "Submits.", counter, &[], 42.0);
        reg.push("maeri_queue_depth", "Jobs queued.", gauge, &[], 3.0);
        let completions = "maeri_slo_completions_total";
        reg.push(
            completions,
            "Per tenant.",
            counter,
            &[("tenant", "t\"0")],
            7.0,
        );
        reg.push(
            completions,
            "ignored duplicate",
            gauge,
            &[("tenant", "t1")],
            9.0,
        );
        let text = reg.render();
        validate_exposition(&text).unwrap();
        assert!(text.contains("# TYPE maeri_submitted_total counter\n"));
        assert!(text.contains("maeri_submitted_total 42\n"));
        assert!(text.contains("maeri_slo_completions_total{tenant=\"t\\\"0\"} 7\n"));
        assert!(text.contains("maeri_slo_completions_total{tenant=\"t1\"} 9\n"));
        // Labeled samples with the same name collect into one family:
        // exactly one TYPE line for it.
        assert_eq!(
            text.matches("# TYPE maeri_slo_completions_total").count(),
            1
        );
        assert!(text.contains("# TYPE maeri_slo_completions_total counter\n"));
        assert!(text.contains("# HELP maeri_slo_completions_total Per tenant.\n"));
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(validate_exposition("no_type_line 1\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate_exposition("# TYPE 9bad counter\n").is_err());
        assert!(validate_exposition("# TYPE ok gauge\nok 1.5\n").is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn bad_metric_name_panics_at_registration() {
        MetricsRegistry::new().push("bad name", "help", MetricKind::Counter, &[], 1.0);
    }
}
