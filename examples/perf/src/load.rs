//! The serve workloads' load generator, run in the parent against a
//! serving child: an open-loop stream of arrivals, then a closed-loop
//! saturation phase, from one client thread per connection.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use maeri_serve::store::StoredResult;
use maeri_serve::traffic::zoo_pool;
use maeri_serve::wire::{Client, FabricSpec, JobSpec, Request};
use maeri_sim::SimRng;
use maeri_telemetry::json::JsonValue;

use crate::stats::{median, percentile};
use crate::Workload;

/// Client threads and connections: one per core of the two-core host.
const CONNECTIONS: usize = 2;
/// Tenants, assigned round-robin to arrivals.
const TENANTS: usize = 4;
/// Open-loop arrival rate over both connections. Every wire round trip
/// now costs about 88 ms (Nagle's algorithm meets delayed ACKs), so a
/// job (submit + poll) holds a connection for about 176 ms and two
/// connections top out near 11 jobs/s. 6 jobs/s keeps each connection
/// about half busy, so no request fails and the latency tail comes from
/// queueing on the connection, and 10 s of it leave more than ten
/// samples above the 80th percentile.
const RATE_PER_S: f64 = 6.0;
/// Seed of the arrival times. The schedule is fixed and only the jobs
/// depend on `--seed`: at that round-trip floor the latency of a few
/// dozen Poisson arrivals varies more from one schedule to the next
/// than between commits, which would hide a regression.
const SCHEDULE_SEED: u64 = 0x6d61_6572_692d_7366;
/// The closed-loop phase lasts this share of the open-loop window.
const SATURATION_SHARE: f64 = 0.3;
/// A request not answered within this long after it was due counts as
/// failed, and its latency is recorded as this value.
const LATENCY_CAP: Duration = Duration::from_secs(12);
/// Completed jobs per connection whose results are fetched and checked
/// against a local execution.
const CHECKED_PER_CONNECTION: usize = 4;
/// Size of `serve_warm`'s job pool.
const WARM_POOL: usize = 256;

/// `serve_cold`'s `index`-th job: a distinct seeded random layer.
pub fn cold_spec(seed: u64, index: u64) -> JobSpec {
    JobSpec::Random {
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index,
        fabric: FabricSpec::default(),
    }
}

/// `serve_warm`'s job pool: the traffic generator's zoo pool topped up
/// with seeded random layers.
pub fn warm_pool(seed: u64) -> Vec<JobSpec> {
    let mut pool = zoo_pool();
    let extra = (WARM_POOL - pool.len()) as u64;
    pool.extend((0..extra).map(|i| cold_spec(seed, (1 << 48) | i)));
    pool
}

/// Per-workload job source, deterministic in `--seed`.
enum Jobs {
    Cold { seed: u64, next: u64 },
    Warm { pool: Vec<JobSpec>, rng: SimRng },
}

impl Jobs {
    fn new(workload: Workload, seed: u64, stream: u64) -> Self {
        match workload {
            Workload::ServeWarm => Jobs::Warm {
                pool: warm_pool(seed),
                rng: SimRng::seed(seed ^ stream),
            },
            _ => Jobs::Cold {
                seed,
                next: stream << 32,
            },
        }
    }

    fn next_spec(&mut self) -> JobSpec {
        match self {
            Jobs::Cold { seed, next } => {
                *next += 1;
                cold_spec(*seed, *next)
            }
            Jobs::Warm { pool, rng } => pool[rng.next_below(pool.len())].clone(),
        }
    }
}

struct Arrival {
    due: Duration,
    tenant: String,
    spec: JobSpec,
}

/// The open-loop arrivals over `window`, dealt round-robin to the
/// connections: exponential gaps from the fixed schedule seed, jobs
/// from `--seed`.
fn schedule(workload: Workload, seed: u64, window: Duration) -> Vec<Vec<Arrival>> {
    let mut gaps = SimRng::seed(SCHEDULE_SEED);
    let mut jobs = Jobs::new(workload, seed, 0);
    let mut per_conn: Vec<Vec<Arrival>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    let mut at = 0.0;
    for index in 0.. {
        at += -(1.0 - gaps.next_unit_f64()).ln() / RATE_PER_S;
        if at >= window.as_secs_f64() {
            break;
        }
        per_conn[index % CONNECTIONS].push(Arrival {
            due: Duration::from_secs_f64(at),
            tenant: format!("t{}", index % TENANTS),
            spec: jobs.next_spec(),
        });
    }
    per_conn
}

/// What one connection saw.
#[derive(Default)]
struct ConnReport {
    scheduled: u64,
    sent: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    /// Offset from the start of the last open-loop answer.
    last_answer: Duration,
    lag_ms: Vec<f64>,
    submit_rtt_ms: Vec<f64>,
    poll_rtt_ms: Vec<f64>,
    polls: u64,
    answered: u64,
    sat_attempted: u64,
    sat_failed: u64,
    sat_completed: u64,
    sat_elapsed: Duration,
    /// Early completed jobs, for the result check.
    checks: Vec<(u64, JobSpec)>,
}

impl ConnReport {
    fn fail(&mut self) {
        self.failed += 1;
        self.latencies_ms.push(LATENCY_CAP.as_secs_f64() * 1e3);
    }

    /// Polls `id` once, timing the round trip when tracing.
    fn poll(&mut self, client: &mut Client, id: u64, trace: bool) -> Result<String, String> {
        let sent = Instant::now();
        let status = client.poll(id).map_err(|e| format!("poll: {e}"))?;
        if trace {
            self.poll_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        self.polls += 1;
        Ok(status)
    }

    fn submit(
        &mut self,
        client: &mut Client,
        tenant: &str,
        spec: &JobSpec,
        trace: bool,
    ) -> Result<Option<u64>, String> {
        let sent = Instant::now();
        let reply = client
            .submit(tenant, spec)
            .map_err(|e| format!("submit: {e}"))?;
        if trace {
            self.submit_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        Ok(reply.ok())
    }
}

struct Pending {
    due: Duration,
    id: u64,
    spec: JobSpec,
}

/// Sends each arrival when due (sends take priority over polls) and
/// polls the oldest pending job otherwise, until every arrival is
/// answered, failed, or past the cap.
fn open_loop(
    client: &mut Client,
    arrivals: Vec<Arrival>,
    start: Instant,
    window: Duration,
    trace: bool,
    report: &mut ConnReport,
) -> Result<(), String> {
    report.scheduled = arrivals.len() as u64;
    let mut arrivals: VecDeque<Arrival> = arrivals.into();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    loop {
        let now = start.elapsed();
        if arrivals.front().is_some_and(|a| a.due <= now) {
            let arrival = arrivals.pop_front().expect("front exists");
            if now >= window {
                report.fail(); // unsent when the window closed
                continue;
            }
            report
                .lag_ms
                .push(now.saturating_sub(arrival.due).as_secs_f64() * 1e3);
            report.sent += 1;
            match report.submit(client, &arrival.tenant, &arrival.spec, trace)? {
                Some(id) => pending.push_back(Pending {
                    due: arrival.due,
                    id,
                    spec: arrival.spec,
                }),
                None => report.fail(),
            }
            continue;
        }
        if let Some(job) = pending.pop_front() {
            if now >= job.due + LATENCY_CAP {
                report.fail();
                continue;
            }
            match report.poll(client, job.id, trace)?.as_str() {
                "done" => {
                    let answered = start.elapsed();
                    report
                        .latencies_ms
                        .push(answered.saturating_sub(job.due).as_secs_f64() * 1e3);
                    report.last_answer = report.last_answer.max(answered);
                    report.answered += 1;
                    if report.checks.len() < CHECKED_PER_CONNECTION {
                        report.checks.push((job.id, job.spec));
                    }
                }
                "failed" => report.fail(),
                _ => pending.push_back(job),
            }
            continue;
        }
        match arrivals.front() {
            Some(next) => std::thread::sleep(next.due.saturating_sub(now)),
            None => return Ok(()),
        }
    }
}

/// Back-to-back submit-and-poll until `duration` has passed.
fn closed_loop(
    client: &mut Client,
    jobs: &mut Jobs,
    duration: Duration,
    trace: bool,
    report: &mut ConnReport,
) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed() < duration {
        let spec = jobs.next_spec();
        let tenant = format!("t{}", report.sat_attempted as usize % TENANTS);
        report.sat_attempted += 1;
        let Some(id) = report.submit(client, &tenant, &spec, trace)? else {
            report.sat_failed += 1;
            continue;
        };
        let submitted = Instant::now();
        loop {
            match report.poll(client, id, trace)?.as_str() {
                "done" => {
                    report.sat_completed += 1;
                    report.answered += 1;
                    break;
                }
                "failed" => {
                    report.sat_failed += 1;
                    break;
                }
                _ if submitted.elapsed() >= LATENCY_CAP => {
                    report.sat_failed += 1;
                    break;
                }
                _ => {}
            }
        }
    }
    report.sat_elapsed = start.elapsed();
    Ok(())
}

/// Everything the generator measured against one serving child.
pub struct LoadResult {
    pub attempted: u64,
    pub failed: u64,
    /// Open-loop latency per request, due time to `done` poll.
    pub latencies_ms: Vec<f64>,
    /// Start of the schedule to the last open-loop answer.
    pub makespan: Duration,
    pub sat_jobs_per_s: f64,
    /// Per-layer numbers, empty unless tracing.
    pub layers: Vec<(String, f64)>,
}

/// Drives `seconds` of open-loop load and a closed-loop phase against
/// the server at `addr`, then checks early results against local
/// execution and reads the server's counters.
pub fn drive(
    workload: Workload,
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<LoadResult, String> {
    let window = Duration::from_secs_f64(seconds);
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let plan = schedule(workload, seed, window);
    let barrier = Barrier::new(CONNECTIONS);
    let start = Instant::now() + Duration::from_millis(50);
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .enumerate()
            .map(|(conn, (client, arrivals))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut report = ConnReport::default();
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    let open = open_loop(client, arrivals, start, window, trace, &mut report);
                    // Both connections enter the closed loop together,
                    // even when one of them failed.
                    barrier.wait();
                    open?;
                    let mut jobs = Jobs::new(workload, seed, conn as u64 + 1);
                    closed_loop(
                        client,
                        &mut jobs,
                        window.mul_f64(SATURATION_SHARE),
                        trace,
                        &mut report,
                    )?;
                    Ok::<_, String>(report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;

    for (client, report) in clients.iter_mut().zip(&reports) {
        for (id, spec) in &report.checks {
            check_result(client, *id, spec)?;
        }
    }
    let asked = Instant::now();
    let doc = clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let stats_rtt_ms = asked.elapsed().as_secs_f64() * 1e3;
    let counter = |name: &str| {
        doc.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("stats reply lacks `{name}`"))
    };
    let (submitted, admitted) = (counter("submitted")?, counter("admitted")?);
    let store_hits = counter("store_hits")?;
    drop(clients);

    let sum = |f: fn(&ConnReport) -> u64| reports.iter().map(f).sum::<u64>();
    let joined = |f: fn(&ConnReport) -> &Vec<f64>| {
        reports
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let sent = sum(|r| r.sent) + sum(|r| r.sat_attempted);
    if submitted != sent {
        return Err(format!(
            "server counted {submitted} submits, the generator sent {sent}"
        ));
    }
    if workload == Workload::ServeWarm && store_hits != admitted {
        return Err(format!(
            "serve_warm admitted {admitted} jobs but only {store_hits} were store hits"
        ));
    }
    let sat_elapsed = reports
        .iter()
        .map(|r| r.sat_elapsed)
        .max()
        .unwrap_or_default();
    let mut layers = Vec::new();
    if trace {
        let w = workload.name();
        let mut put = |name: &str, value: f64| layers.push((format!("{w}.{name}"), value));
        put("wire.submit_rtt_ms", median(&joined(|r| &r.submit_rtt_ms)));
        put("wire.poll_rtt_ms", median(&joined(|r| &r.poll_rtt_ms)));
        put(
            "wire.polls_per_job",
            sum(|r| r.polls) as f64 / sum(|r| r.answered).max(1) as f64,
        );
        put("wire.stats_rtt_ms", stats_rtt_ms);
        put("gen.lag_p99_ms", percentile(&joined(|r| &r.lag_ms), 99.0));
        put("gen.scheduled", sum(|r| r.scheduled) as f64);
        put("gen.sent", sum(|r| r.sent) as f64);
        if workload == Workload::ServeWarm {
            put("serve.store_hits", store_hits as f64);
        } else {
            put("serve.journal_appends", counter("journal_appends")? as f64);
            put(
                "serve.queue_high_water",
                counter("queue_high_water")? as f64,
            );
        }
    }
    Ok(LoadResult {
        attempted: sum(|r| r.scheduled) + sum(|r| r.sat_attempted),
        failed: sum(|r| r.failed) + sum(|r| r.sat_failed),
        latencies_ms: joined(|r| &r.latencies_ms),
        makespan: reports
            .iter()
            .map(|r| r.last_answer)
            .max()
            .unwrap_or_default(),
        sat_jobs_per_s: sum(|r| r.sat_completed) as f64 / sat_elapsed.as_secs_f64(),
        layers,
    })
}

/// Fetches job `id` and compares it with running its spec locally.
fn check_result(client: &mut Client, id: u64, spec: &JobSpec) -> Result<(), String> {
    let reply = client
        .request(&Request::Fetch { id })
        .map_err(|e| format!("fetch {id}: {e}"))?;
    let served = reply
        .get("result")
        .ok_or_else(|| format!("fetch {id}: {}", reply.render()))
        .and_then(StoredResult::from_json)?;
    let job = spec.to_sim_job()?;
    let local = StoredResult::from_result(&job.label(), &job.execute());
    if served == local {
        Ok(())
    } else {
        Err(format!(
            "job {id} ({}) served a result that differs from local execution",
            job.label()
        ))
    }
}
