//! Service load: the batch-inference service under seeded Poisson
//! traffic, on a virtual clock.
//!
//! Three replays through the real verifier, persistent store, and
//! runtime — timed virtually so every number is deterministic. Their
//! admission is `maeri_serve::loadsim`'s re-implementation of the
//! per-tenant bound, not the live `Service::admit`: it checks the
//! bound before the store lookup (a store hit takes a tenant slot and
//! can be refused), serves arrivals in arrival order rather than
//! round-robin across tenants, and has no circuit breaker.
//!
//! * **cold** — an empty store; every distinct job simulates once;
//! * **warm restart** — the same traffic against a *new* runtime on
//!   the reopened store: repeats must be answered from disk;
//! * **burst** — one slow virtual server behind a tight per-tenant
//!   bound: admission control must shed load instead of queueing
//!   without bound.
//!
//! A final section drives the *live* `Service` (worker threads, store
//! fast path) sequentially over the same trace as a cross-check; only
//! its deterministic counters are printed, never wall-clock time.

use std::sync::Arc;
use std::time::Instant;

use maeri_runtime::{PhaseStats, Runtime};
use maeri_serve::loadsim::{self, LoadOutcome, LoadScenario};
use maeri_serve::service::{ServeConfig, Service};
use maeri_serve::store::ResultStore;
use maeri_serve::traffic::{self, TrafficConfig};
use maeri_sim::table::{fmt_pct, Table};

use crate::report;

/// The steady traffic trace replayed cold, warm, and live.
fn steady_traffic() -> Vec<traffic::Arrival> {
    traffic::generate(&TrafficConfig {
        seed: 0x0601,
        arrivals: 160,
        tenants: 4,
        mean_interarrival_us: 300,
        random_fraction: 0.25,
    })
}

/// The overload trace for the burst phase: one tenant, all random
/// layers, arrivals ~8x faster than the steady trace.
fn burst_traffic() -> Vec<traffic::Arrival> {
    traffic::generate(&TrafficConfig {
        seed: 0x0602,
        arrivals: 120,
        tenants: 2,
        mean_interarrival_us: 40,
        random_fraction: 1.0,
    })
}

fn phase_row(table: &mut Table, phase: &str, outcome: &LoadOutcome) {
    let mut latency = outcome.latency_us.clone();
    let mut pct = |p: f64| latency.percentile(p).unwrap_or(0).to_string();
    table.row(vec![
        phase.to_owned(),
        outcome.arrivals.to_string(),
        outcome.admitted.to_string(),
        outcome.rejected.to_string(),
        fmt_pct(outcome.hit_rate().unwrap_or(0.0)),
        pct(50.0),
        pct(99.0),
        pct(99.9),
        (outcome.makespan_us / 1000).to_string(),
    ]);
}

/// Prints this report to stdout.
///
/// # Panics
///
/// Panics if the scratch store directory cannot be created — the
/// report owns its own temp path.
pub fn run() {
    let phase_start = Instant::now();
    report::header(
        "Service load — async batch-inference serving",
        "Section 7 workloads served through admission control and a persistent result cache",
    );
    let store_dir = std::env::temp_dir().join(format!("maeri-service-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("creating the scratch store directory failed");
    let store_path = store_dir.join("results.log");

    let steady = steady_traffic();
    let scenario = LoadScenario::default();

    // Phase 1: cold store, fresh runtime.
    let (cold, cold_entries) = {
        let (store, _) = ResultStore::open(&store_path).expect("open cold store");
        let runtime = Runtime::new(1);
        let outcome = loadsim::simulate(&steady, &scenario, &runtime, Some(&store));
        (outcome, store.len())
    };

    // Phase 2: warm restart — new runtime (empty cache), reopened log.
    let (warm, recovery) = {
        let (store, recovery) = ResultStore::open(&store_path).expect("reopen store");
        let runtime = Runtime::new(1);
        let outcome = loadsim::simulate(&steady, &scenario, &runtime, Some(&store));
        (outcome, recovery)
    };

    // Phase 3: burst against one slow server, tight tenant bound, no
    // store — admission control is the only defence.
    let burst = loadsim::simulate(
        &burst_traffic(),
        &LoadScenario {
            virtual_workers: 1,
            per_tenant_depth: 4,
        },
        &Runtime::new(1),
        None,
    );

    let mut table = Table::new(vec![
        "phase",
        "arrivals",
        "admitted",
        "rejected",
        "hit rate",
        "p50 us",
        "p99 us",
        "p999 us",
        "makespan ms",
    ]);
    phase_row(&mut table, "cold", &cold);
    phase_row(&mut table, "warm restart", &warm);
    phase_row(&mut table, "burst (depth 4)", &burst);
    report::section(
        "Virtual-time replay: 4 servers, per-tenant depth 64 (burst: 1 server, depth 4)",
        &table,
    );

    // Cross-check: the live service (threads, condvars, store fast
    // path) driven sequentially over the same trace. Sequential
    // driving keeps every counter deterministic.
    let service = Service::start(
        ServeConfig {
            workers: 2,
            per_tenant_depth: 64,
            store_path: Some(store_path.clone()),
            ..ServeConfig::default()
        },
        Arc::new(Runtime::new(1)),
    )
    .expect("start live service");
    let mut live_done = 0u64;
    for arrival in &steady {
        let job = arrival
            .spec
            .to_sim_job()
            .expect("generated specs are valid");
        let id = service
            .submit(&arrival.tenant, job)
            .expect("steady traffic fits a depth-64 bound");
        if service.wait(id).expect("submitted ids resolve").ok {
            live_done += 1;
        }
    }
    let live = service.stats();
    let mut live_table = Table::new(vec![
        "submitted",
        "admitted",
        "rejected",
        "store hits",
        "hit rate",
        "ok",
        "store entries",
    ]);
    live_table.row(vec![
        live.submitted.to_string(),
        live.admitted.to_string(),
        (live.rejected_backpressure + live.rejected_invalid).to_string(),
        live.store_hits.to_string(),
        fmt_pct(live.service_hit_rate().unwrap_or(0.0)),
        live_done.to_string(),
        live.store_entries.to_string(),
    ]);
    report::section(
        "Live service cross-check (sequential drive over the warm store)",
        &live_table,
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&store_dir);

    // The replays ran on private runtimes; attribute the report's wall
    // time on the global one so `regen_all --json` surfaces it as a
    // phase alongside the figure sweeps.
    Runtime::global().note_phase(PhaseStats {
        name: "service_load".to_owned(),
        jobs: cold.arrivals + warm.arrivals + burst.arrivals + steady.len(),
        cache_hits: cold.hits + warm.hits + usize::try_from(live.store_hits).unwrap_or(0),
        wall: phase_start.elapsed(),
    });

    report::summary(&[
        format!(
            "cold phase simulated {} distinct jobs into the store ({} arrivals, {} repeat hits)",
            cold_entries,
            cold.arrivals,
            cold.hits
        ),
        format!(
            "warm restart recovered {} entries and answered {} of traffic from disk (target > 90%)",
            recovery.entries,
            fmt_pct(warm.hit_rate().unwrap_or(0.0))
        ),
        format!(
            "burst phase shed {} of {} arrivals via per-tenant backpressure instead of unbounded queues",
            burst.rejected, burst.arrivals
        ),
        format!(
            "live service agreed: {} served from store/cache at admission, zero backpressure rejects",
            fmt_pct(live.service_hit_rate().unwrap_or(0.0))
        ),
        "latencies are virtual-time (64 cycles/us drain): byte-identical on every host".to_owned(),
    ]);
}
