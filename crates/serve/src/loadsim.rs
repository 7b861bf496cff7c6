//! Deterministic virtual-time load simulation.
//!
//! Wall-clock service latency depends on host speed and thread
//! scheduling, so it can never appear in a byte-stable report. This
//! module replays a traffic trace through the *real* admission-control
//! policy, verifier, store, and runtime — but accounts time on a
//! virtual clock: each job's service cost is a pure function of its
//! simulated result (cycles simulated / a fixed drain rate), arrivals
//! come from the trace's virtual timestamps, and an M/G/c queue of
//! `virtual_workers` servers yields completion times. Latency
//! percentiles, hit rates, and reject counts are then exact integers,
//! identical on every machine and at every `MAERI_RUNTIME_WORKERS`
//! setting.
//!
//! [`simulate_traced`] additionally emits the same request-path span
//! vocabulary the live service records ([`maeri_telemetry::span`]),
//! stamped with *virtual* timestamps — so the `service_trace` report
//! can publish a byte-stable Chrome trace.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use maeri_runtime::{AttemptOutcome, JobResult, Runtime};
use maeri_sim::histogram::Histogram;
use maeri_telemetry::span::{SpanKind, SpanRecord};

use crate::store::{ResultStore, StoredResult};
use crate::traffic::Arrival;

/// Virtual-time queueing parameters.
#[derive(Debug, Clone)]
pub struct LoadScenario {
    /// Concurrent virtual servers (the simulated worker pool).
    pub virtual_workers: usize,
    /// Per-tenant in-flight bound; arrivals beyond it are rejected.
    pub per_tenant_depth: usize,
    /// Virtual cost of answering from the store or cache, in µs.
    pub hit_cost_us: u64,
}

impl Default for LoadScenario {
    fn default() -> Self {
        LoadScenario {
            virtual_workers: 4,
            per_tenant_depth: 64,
            hit_cost_us: 25,
        }
    }
}

/// What one replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadOutcome {
    /// Arrivals replayed.
    pub arrivals: usize,
    /// Jobs admitted and served.
    pub admitted: usize,
    /// Jobs rejected by admission control.
    pub rejected: usize,
    /// Jobs rejected by the verifier or spec lowering.
    pub invalid: usize,
    /// Served jobs answered from the store or the seen-set (no fresh
    /// simulation).
    pub hits: usize,
    /// Served jobs that ran a fresh simulation.
    pub misses: usize,
    /// Served jobs whose simulation returned a structured error.
    pub failed: usize,
    /// Completion latency (virtual µs) of every served job.
    pub latency_us: Histogram,
    /// Virtual time of the last completion.
    pub makespan_us: u64,
}

impl LoadOutcome {
    /// Hits over served jobs; `None` before any service.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let served = self.hits + self.misses;
        if served == 0 {
            None
        } else {
            Some(self.hits as f64 / served as f64)
        }
    }
}

/// Virtual service cost of a fresh simulation: a fixed dispatch
/// overhead plus the simulated cycles drained at 64 cycles/µs, capped
/// so one huge layer cannot dominate every percentile.
///
/// Public because the fleet simulator (`maeri-fleet`) accounts its
/// virtual clocks in the same currency — one cost function keeps
/// service-level and fleet-level latencies comparable.
#[must_use]
pub fn virtual_cost_us(result: &JobResult) -> u64 {
    virtual_cost_us_capped(result, 50_000)
}

/// [`virtual_cost_us`] with a caller-chosen cap on the cycle-drain
/// term. The service cap (50 ms) protects request-latency percentiles
/// from one huge layer; fleet scheduling raises it, because flattening
/// multi-million-cycle layers to one ceiling would erase exactly the
/// per-backend differences placement exists to exploit.
#[must_use]
pub fn virtual_cost_us_capped(result: &JobResult, cap_us: u64) -> u64 {
    if result.is_err() {
        return 100;
    }
    let cycles = StoredResult::from_result("", result).cycles;
    150 + (cycles / 64).min(cap_us)
}

/// Replays `arrivals` against `runtime` (and optionally a persistent
/// `store`) under the scenario's admission policy, on a virtual clock.
///
/// Misses execute for real through [`Runtime::run_one`] — results are
/// exact and cached — but their *time* is virtual, so the outcome is
/// deterministic.
#[must_use]
pub fn simulate(
    arrivals: &[Arrival],
    scenario: &LoadScenario,
    runtime: &Runtime,
    store: Option<&ResultStore>,
) -> LoadOutcome {
    replay(arrivals, scenario, runtime, store, &mut None)
}

/// [`simulate`], additionally emitting one virtual-time trace span per
/// request-path phase (verify → admission → queue wait → dispatch →
/// reply, with job-0 sentinels for rejects, matching the live
/// service's vocabulary). The returned outcome is bit-identical to
/// what [`simulate`] produces for the same inputs — tracing observes
/// the replay, it never steers it.
#[must_use]
pub fn simulate_traced(
    arrivals: &[Arrival],
    scenario: &LoadScenario,
    runtime: &Runtime,
    store: Option<&ResultStore>,
) -> (LoadOutcome, Vec<SpanRecord>) {
    let mut spans = Some(Vec::new());
    let outcome = replay(arrivals, scenario, runtime, store, &mut spans);
    (outcome, spans.unwrap_or_default())
}

fn replay(
    arrivals: &[Arrival],
    scenario: &LoadScenario,
    runtime: &Runtime,
    store: Option<&ResultStore>,
    spans: &mut Option<Vec<SpanRecord>>,
) -> LoadOutcome {
    let mut outcome = LoadOutcome {
        arrivals: arrivals.len(),
        admitted: 0,
        rejected: 0,
        invalid: 0,
        hits: 0,
        misses: 0,
        failed: 0,
        latency_us: Histogram::new(),
        makespan_us: 0,
    };
    // Earliest-free-first pool of virtual servers.
    let mut servers: BinaryHeap<Reverse<u64>> = (0..scenario.virtual_workers.max(1))
        .map(|_| Reverse(0u64))
        .collect();
    // Per-tenant completion times of in-flight jobs (the admission
    // gauge), and the keys already simulated in this replay.
    let mut inflight: BTreeMap<String, VecDeque<u64>> = BTreeMap::new();
    let mut seen: std::collections::BTreeSet<Vec<u8>> = std::collections::BTreeSet::new();
    for arrival in arrivals {
        let now = arrival.at_us;
        let tenant = arrival.tenant.as_str();
        let Ok(job) = arrival.spec.to_sim_job() else {
            outcome.invalid += 1;
            if let Some(out) = spans.as_mut() {
                out.push(SpanRecord::between(
                    0,
                    tenant,
                    SpanKind::Verify,
                    now,
                    now,
                    "rejected_invalid",
                ));
            }
            continue;
        };
        if job.verify().is_err() {
            outcome.invalid += 1;
            if let Some(out) = spans.as_mut() {
                out.push(SpanRecord::between(
                    0,
                    tenant,
                    SpanKind::Verify,
                    now,
                    now,
                    "rejected_invalid",
                ));
            }
            continue;
        }
        let tenant_jobs = inflight.entry(arrival.tenant.clone()).or_default();
        while tenant_jobs.front().is_some_and(|&done| done <= now) {
            tenant_jobs.pop_front();
        }
        if tenant_jobs.len() >= scenario.per_tenant_depth {
            outcome.rejected += 1;
            if let Some(out) = spans.as_mut() {
                out.push(SpanRecord::between(
                    0,
                    tenant,
                    SpanKind::Verify,
                    now,
                    now,
                    "ok",
                ));
                out.push(SpanRecord::between(
                    0,
                    tenant,
                    SpanKind::Admission,
                    now,
                    now,
                    "rejected_backpressure",
                ));
            }
            continue;
        }
        let key = job.key();
        let hit = store.is_some_and(|s| s.get(&key).is_some()) || seen.contains(key.as_bytes());
        let (cost, dispatch_status) = if hit {
            outcome.hits += 1;
            (scenario.hit_cost_us, "ok")
        } else {
            let result = runtime.run_one(&job);
            if let Err(err) = &result {
                if !err.is_transient() {
                    outcome.failed += 1;
                }
            }
            let cost = virtual_cost_us(&result);
            if let (Some(store), Ok(_)) = (store, &result) {
                let stored = StoredResult::from_result(&job.label(), &result);
                let _ = store.put(&key, &stored);
            }
            seen.insert(key.as_bytes().to_vec());
            outcome.misses += 1;
            (cost, AttemptOutcome::classify(&result).name())
        };
        let Reverse(free_at) = servers.pop().unwrap_or(Reverse(0));
        let start = now.max(free_at);
        let done = start + cost;
        servers.push(Reverse(done));
        tenant_jobs.push_back(done);
        outcome.admitted += 1;
        if let Some(out) = spans.as_mut() {
            // Jobs are numbered in admission order, 1-based; 0 stays
            // the reject sentinel, exactly as in the live service.
            let id = outcome.admitted as u64;
            let admit_status = if hit { "store_hit" } else { "ok" };
            out.push(SpanRecord::between(
                id,
                tenant,
                SpanKind::Verify,
                now,
                now,
                "ok",
            ));
            out.push(SpanRecord::between(
                id,
                tenant,
                SpanKind::Admission,
                now,
                now,
                admit_status,
            ));
            out.push(SpanRecord::between(
                id,
                tenant,
                SpanKind::QueueWait,
                now,
                start,
                "ok",
            ));
            out.push(SpanRecord::between(
                id,
                tenant,
                SpanKind::Dispatch,
                start,
                done,
                dispatch_status,
            ));
            out.push(SpanRecord::between(
                id,
                tenant,
                SpanKind::Reply,
                done,
                done,
                "ok",
            ));
        }
        outcome.latency_us.record(done - now);
        outcome.makespan_us = outcome.makespan_us.max(done);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{self, TrafficConfig};

    #[test]
    fn replay_is_deterministic() {
        let traffic = traffic::generate(&TrafficConfig {
            seed: 3,
            arrivals: 40,
            tenants: 2,
            mean_interarrival_us: 200,
            random_fraction: 0.5,
        });
        let scenario = LoadScenario::default();
        let a = simulate(&traffic, &scenario, &Runtime::new(1), None);
        let b = simulate(&traffic, &scenario, &Runtime::new(1), None);
        assert_eq!(a, b, "fresh runtimes must replay identically");
        assert_eq!(a.arrivals, 40);
        assert_eq!(a.admitted + a.rejected + a.invalid, 40);
        assert!(a.hits > 0, "repeats within 40 arrivals should hit");
    }

    #[test]
    fn tight_scenario_rejects_with_backpressure() {
        let traffic = traffic::generate(&TrafficConfig {
            seed: 9,
            arrivals: 60,
            tenants: 1,
            mean_interarrival_us: 10,
            random_fraction: 1.0,
        });
        let scenario = LoadScenario {
            virtual_workers: 1,
            per_tenant_depth: 3,
            hit_cost_us: 25,
        };
        let outcome = simulate(&traffic, &scenario, &Runtime::new(1), None);
        assert!(
            outcome.rejected > 0,
            "a single slow server at depth 3 must shed load"
        );
        assert_eq!(outcome.admitted + outcome.rejected, 60);
    }

    #[test]
    fn tracing_is_outcome_neutral_and_spans_are_well_formed() {
        let traffic = traffic::generate(&TrafficConfig {
            seed: 3,
            arrivals: 40,
            tenants: 2,
            mean_interarrival_us: 200,
            random_fraction: 0.5,
        });
        let scenario = LoadScenario {
            virtual_workers: 2,
            per_tenant_depth: 4,
            hit_cost_us: 25,
        };
        let plain = simulate(&traffic, &scenario, &Runtime::new(1), None);
        let (traced, spans) = simulate_traced(&traffic, &scenario, &Runtime::new(1), None);
        assert_eq!(plain, traced, "tracing must not steer the replay");
        maeri_telemetry::span::validate_trace(&spans).unwrap();
        // Every admitted job gets the full five-phase path.
        let per_job = spans.iter().filter(|s| s.job != 0).count();
        assert_eq!(per_job, traced.admitted * 5);
        let replies = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Reply)
            .map(|s| s.job)
            .collect::<std::collections::HashSet<_>>();
        assert_eq!(replies.len(), traced.admitted, "one reply per job");
        // Rejects surface as job-0 sentinels, same as the live path.
        let rejected_spans = spans
            .iter()
            .filter(|s| s.job == 0 && s.status == "rejected_backpressure")
            .count();
        assert_eq!(rejected_spans, traced.rejected);
    }

    #[test]
    fn traced_replay_is_deterministic_across_worker_counts() {
        let traffic = traffic::generate(&TrafficConfig {
            seed: 11,
            arrivals: 30,
            tenants: 2,
            mean_interarrival_us: 150,
            random_fraction: 0.4,
        });
        let scenario = LoadScenario::default();
        let (a, sa) = simulate_traced(&traffic, &scenario, &Runtime::new(1), None);
        let (b, sb) = simulate_traced(&traffic, &scenario, &Runtime::new(4), None);
        assert_eq!(a, b, "host worker count must not leak into the outcome");
        assert_eq!(sa, sb, "host worker count must not leak into the trace");
    }
}
