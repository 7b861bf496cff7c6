//! Service trace: the request-path span vocabulary over a seeded
//! virtual-time replay.
//!
//! `maeri_serve::loadsim::simulate_traced` replays seeded Poisson
//! traffic through the real admission policy and runtime and emits the
//! same span kinds the live flight recorder records — verify,
//! admission, queue wait, dispatch, reply, with job-0 sentinels for
//! rejects — stamped on the virtual clock. Every printed number
//! (per-kind span counts and durations, per-tenant queueing, the
//! Chrome-export size) is therefore byte-identical on every host at
//! every worker count, while still exercising the exact export and
//! validation code paths the live service uses.

use std::time::Instant;

use maeri_runtime::{PhaseStats, Runtime};
use maeri_serve::loadsim::{self, LoadScenario};
use maeri_serve::traffic::{self, TrafficConfig};
use maeri_sim::histogram::Histogram;
use maeri_sim::table::Table;
use maeri_telemetry::span::{chrome_trace, validate_trace, SpanKind, SpanRecord};

use crate::report;

/// The traffic seed; changing it changes the trace, not the invariants.
const SEED: u64 = 0x0801;

/// Prints this report to stdout.
///
/// # Panics
///
/// Panics if the emitted trace fails span validation — monotonic
/// non-overlapping phases per job are an invariant, not a measurement.
pub fn run() {
    let phase_start = Instant::now();
    report::header(
        "Service trace — request-path spans over a virtual-time replay",
        "End-to-end observability: admission to reply, per job, on the virtual clock",
    );

    let arrivals = traffic::generate(&TrafficConfig {
        seed: SEED,
        arrivals: 200,
        tenants: 3,
        mean_interarrival_us: 2000,
        random_fraction: 0.3,
    });
    let scenario = LoadScenario {
        virtual_workers: 4,
        per_tenant_depth: 6,
    };
    let runtime = Runtime::new(1);
    let (outcome, spans) = loadsim::simulate_traced(&arrivals, &scenario, &runtime, None);
    validate_trace(&spans).expect("replay trace must validate");

    let mut kind_table = Table::new(vec!["span kind", "spans", "total virtual us", "mean us"]);
    for kind in SpanKind::ALL {
        let of_kind: Vec<&SpanRecord> = spans.iter().filter(|s| s.kind == kind).collect();
        if of_kind.is_empty() {
            continue; // virtual replays have no journal/store/attempt spans
        }
        let total: u64 = of_kind.iter().map(|s| s.dur_us).sum();
        kind_table.row(vec![
            kind.name().to_owned(),
            of_kind.len().to_string(),
            total.to_string(),
            (total / of_kind.len() as u64).to_string(),
        ]);
    }
    report::section("Spans by kind (4 virtual servers, depth 6)", &kind_table);

    let mut tenant_table = Table::new(vec![
        "tenant",
        "jobs",
        "queue p50 us",
        "queue p99 us",
        "dispatch p50 us",
        "dispatch p99 us",
    ]);
    let mut tenants: Vec<String> = spans
        .iter()
        .filter(|s| s.job != 0)
        .map(|s| s.tenant.clone())
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    for tenant in &tenants {
        let mut queue = Histogram::new();
        let mut dispatch = Histogram::new();
        let mut jobs = std::collections::HashSet::new();
        for span in spans.iter().filter(|s| s.job != 0 && &s.tenant == tenant) {
            jobs.insert(span.job);
            match span.kind {
                SpanKind::QueueWait => queue.record(span.dur_us),
                SpanKind::Dispatch => dispatch.record(span.dur_us),
                _ => {}
            }
        }
        let pct = |h: &mut Histogram, p: f64| h.percentile(p).unwrap_or(0).to_string();
        tenant_table.row(vec![
            tenant.clone(),
            jobs.len().to_string(),
            pct(&mut queue, 50.0),
            pct(&mut queue, 99.0),
            pct(&mut dispatch, 50.0),
            pct(&mut dispatch, 99.0),
        ]);
    }
    report::section(
        "Per-tenant queueing and dispatch (virtual us)",
        &tenant_table,
    );

    let chrome = chrome_trace(&spans).render();
    let sentinels = spans.iter().filter(|s| s.job == 0).count();
    let mut export_table = Table::new(vec![
        "arrivals",
        "admitted",
        "rejected",
        "job spans",
        "reject sentinels",
        "chrome events",
        "chrome bytes",
    ]);
    export_table.row(vec![
        outcome.arrivals.to_string(),
        outcome.admitted.to_string(),
        outcome.rejected.to_string(),
        (spans.len() - sentinels).to_string(),
        sentinels.to_string(),
        spans.len().to_string(),
        chrome.len().to_string(),
    ]);
    report::section("Chrome-trace export", &export_table);

    Runtime::global().note_phase(PhaseStats {
        name: "service_trace".to_owned(),
        jobs: outcome.arrivals,
        cache_hits: outcome.hits,
        wall: phase_start.elapsed(),
    });

    report::summary(&[
        format!(
            "every one of the {} admitted jobs traced admission -> reply with monotonic, \
             non-overlapping phases (validator-enforced)",
            outcome.admitted
        ),
        format!(
            "{} rejected arrivals left job-0 admission sentinels instead of vanishing",
            outcome.rejected
        ),
        format!(
            "the Chrome export carries {} events in {} bytes, byte-identical on every host",
            spans.len(),
            chrome.len()
        ),
        "timestamps are virtual (64 cycles/us drain): the trace is a stable artifact, \
         not a wall-clock profile"
            .to_owned(),
    ]);
}
