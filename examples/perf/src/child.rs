//! The child side. Each workload's system runs in a fresh process,
//! `perf child <mode> --seed N --seconds S --dir PATH`, so the parent can
//! time it from outside and read its peak memory alone.
//!
//! Protocol: control lines go to stderr as `perf:<kind> <raw> <scaled>
//! [payload]`, stamped with the child's [`Clock`]: `ready [addr]`, `go`
//! (the measured part starts), `mark <label>`, `done`, and a closing
//! `result <json>`. Any other stderr line is passed through by the
//! parent. The parent writes `go` on stdin to start the measured part,
//! and closes stdin to end a serving child. End of input before `go`
//! means "set up only": the child reports and exits. Regen's report text
//! is the only stdout output.

use std::hint::black_box;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use maeri::analytic;
use maeri::art::{pack_vns, ArtConfig};
use maeri::cycle_sim::simulate_conv_layer;
use maeri::{SparseConvMapper, VnPolicy};
use maeri_bench::experiments::{mapping_search_specs, paper_config};
use maeri_bench::reports::REPORTS;
use maeri_dnn::{zoo, WeightMask};
use maeri_mapspace::{enumerate, search, SearchLayer, SearchSpec};
use maeri_runtime::Runtime;
use maeri_serve::journal::{AdmitRecord, Journal};
use maeri_serve::service::{ServeConfig, Service};
use maeri_serve::store::{ResultStore, StoredResult};
use maeri_serve::wire::{read_frame, write_frame, JobSpec, Request};
use maeri_serve::Server;
use maeri_sim::SimRng;
use maeri_telemetry::json::JsonValue;
use maeri_verify::{statically_reject, VerifyLayer};

use crate::clock::Clock;
use crate::load;
use crate::stats::Fnv;
use crate::Workload;

/// What a child process runs: one workload's system, or the kernel
/// probes of a traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Workload(Workload),
    Kernels,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Workload(w) => w.name(),
            Mode::Kernels => "kernels",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "kernels" => Some(Mode::Kernels),
            other => Workload::from_name(other).map(Mode::Workload),
        }
    }
}

/// The dense searches: every spec of the `mapping_search` report except
/// the sparse one.
pub fn dense_search_specs() -> Vec<SearchSpec> {
    mapping_search_specs()
        .into_iter()
        .filter(|spec| !matches!(spec.layer, SearchLayer::SparseConv { .. }))
        .collect()
}

pub fn main(args: &[String]) -> Result<(), String> {
    let mode = args
        .first()
        .and_then(|name| Mode::from_name(name))
        .ok_or("child: unknown mode")?;
    let (mut seed, mut seconds, mut dir) = (0u64, 0f64, None);
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or("child: flag without value")?;
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(|_| "child: bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "child: bad --seconds")?,
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("child: unknown flag {flag}")),
        }
    }
    let dir = dir.ok_or("child: missing --dir")?;
    let clock = Clock::start();
    let outcome = match mode {
        Mode::Workload(Workload::Regen) => regen(&clock),
        Mode::Workload(Workload::SearchDense) => search_dense(&clock, seconds),
        Mode::Workload(w) => serve(&clock, w, seed, &dir),
        Mode::Kernels => kernels(&clock, seed, &dir),
    };
    clock.stop();
    outcome
}

/// Sends a control line stamped with the clock.
fn control(clock: &Clock, kind: &str, payload: &str) {
    let now = clock.now();
    eprintln!("perf:{kind} {} {} {payload}", now.raw, now.scaled);
}

/// Waits for `go` and acknowledges it; `false` means set up only.
fn wait_go(clock: &Clock) -> bool {
    let mut line = String::new();
    let go = std::io::stdin().lock().read_line(&mut line).is_ok() && line.trim() == "go";
    if go {
        control(clock, "go", "");
    }
    go
}

/// Closes the conversation: peak resident memory plus `fields`.
fn finish(clock: &Clock, fields: Vec<(&str, JsonValue)>) -> Result<(), String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    let mut doc = JsonValue::object().with("peak_rss_mb", JsonValue::Num(kib / 1024.0));
    for (key, value) in fields {
        doc = doc.with(key, value);
    }
    control(clock, "result", &doc.render());
    Ok(())
}

/// The `regen_all` loop without `--json`, one mark per report.
fn regen(clock: &Clock) -> Result<(), String> {
    control(clock, "ready", "");
    if !wait_go(clock) {
        return finish(clock, Vec::new());
    }
    for (_, name, run) in REPORTS {
        run();
        println!();
        control(clock, "mark", name);
    }
    println!("regenerated all {} reports", REPORTS.len());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    control(clock, "done", "");
    let runtime = Runtime::global().metrics();
    finish(
        clock,
        vec![(
            "layers",
            JsonValue::object()
                .with("runtime.executed", JsonValue::UInt(runtime.executed))
                .with("runtime.cache_hits", JsonValue::UInt(runtime.cache_hits))
                .with(
                    "runtime.phase_entries",
                    JsonValue::UInt(runtime.phases.len() as u64),
                ),
        )],
    )
}

/// Repetitions of the dense searches, sequential on this thread, until
/// `seconds` have passed on the rescaled clock (at least one), so a slow
/// host runs the same repetitions for longer. One mark per search,
/// labelled with its layer kind, and a `rep` mark per repetition.
fn search_dense(clock: &Clock, seconds: f64) -> Result<(), String> {
    let specs = dense_search_specs();
    control(clock, "ready", "");
    if !wait_go(clock) {
        return finish(clock, Vec::new());
    }
    let start = clock.now().scaled;
    let mut digests = Vec::new();
    let mut counters = [0u64; 4];
    loop {
        let mut fnv = Fnv::new();
        for spec in &specs {
            let result = search(spec).map_err(|e| format!("search {}: {e}", spec.layer.name()))?;
            control(clock, "mark", spec.layer.kind_label());
            fnv.update(result.canonical_text().as_bytes());
            if digests.is_empty() {
                let c = result.counters;
                for (sum, n) in
                    counters
                        .iter_mut()
                        .zip([c.enumerated, c.pruned, c.scored, c.validated])
                {
                    *sum += n;
                }
            }
        }
        control(clock, "mark", "rep");
        digests.push(JsonValue::Str(format!("{:016x}", fnv.finish())));
        if clock.now().scaled - start >= seconds {
            break;
        }
    }
    control(clock, "done", "");
    let mut layers = JsonValue::object();
    for (name, n) in ["enumerated", "pruned", "scored", "validated"]
        .into_iter()
        .zip(counters)
    {
        layers = layers.with(&format!("mapspace.{name}"), JsonValue::UInt(n));
    }
    finish(
        clock,
        vec![("digests", JsonValue::Array(digests)), ("layers", layers)],
    )
}

/// A `Service` with a store and a journal in `dir`, behind a loopback
/// `Server`, until the parent closes stdin. `serve_warm` first answers
/// its whole job pool in-process and restarts on that store, so every
/// later admission is a store hit.
fn serve(clock: &Clock, workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let start = || {
        let config = ServeConfig {
            workers: 2,
            store_path: Some(dir.join("store.log")),
            journal_path: Some(dir.join("journal.log")),
            recorder: None,
            ..ServeConfig::default()
        };
        Service::start(config, Arc::new(Runtime::new(2))).map_err(|e| e.to_string())
    };
    let mut service = start()?;
    if workload == Workload::ServeWarm {
        for spec in load::warm_pool(seed) {
            let id = service
                .submit_spec("prefill", &spec, None)
                .map_err(|e| format!("prefill submit: {e}"))?;
            if !service.wait(id).is_some_and(|result| result.ok) {
                return Err(format!("prefill job {id} failed"));
            }
        }
        service.shutdown();
        drop(service);
        service = start()?;
    }
    let service = Arc::new(service);
    let mut server = Server::start(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("bind loopback server: {e}"))?;
    control(clock, "ready", &server.local_addr().to_string());
    let mut line = String::new();
    while std::io::stdin()
        .lock()
        .read_line(&mut line)
        .is_ok_and(|n| n > 0)
    {
        line.clear();
    }
    server.stop();
    service.shutdown();
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    finish(clock, Vec::new())
}

/// Journal and store records written by the kernel probes.
const RECORDS: usize = 500;

/// Times calls into each layer's public functions on fixed inputs: the
/// kernels behind the mapping search, the verifier, and the serving
/// stack's framing, journal and store.
fn kernels(clock: &Clock, seed: u64, dir: &Path) -> Result<(), String> {
    control(clock, "ready", "");
    if !wait_go(clock) {
        return finish(clock, Vec::new());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = paper_config();
    let mut layers: Vec<(&str, f64)> = Vec::new();

    // The sparse search's mapper on its own layer and mask, one run per
    // channel tile 1..=8.
    let (base, layer, zeros, mask_seed) = mapping_search_specs()
        .into_iter()
        .find_map(|spec| match spec.layer {
            SearchLayer::SparseConv {
                layer,
                zero_fraction,
                mask_seed,
            } => Some((spec.base, layer, zero_fraction, mask_seed)),
            _ => None,
        })
        .ok_or("no sparse spec in the mapping search")?;
    let mask = WeightMask::generate(&layer, zeros, &mut SimRng::seed(mask_seed));
    let mapper = SparseConvMapper::new(base);
    let secs = clock.mean_secs(8, |i| {
        black_box(mapper.run(black_box(&layer), &mask, i + 1)).expect("sparse run maps");
    });
    layers.push(("maeri.sparse_run_ms", secs * 1e3));

    // The dense CONV search's validator and scorer over Figure 12.
    let convs = zoo::fig12_layers();
    let secs = clock.mean_secs(convs.len(), |i| {
        black_box(simulate_conv_layer(&cfg, &convs[i], VnPolicy::Auto)).expect("layer traces");
    });
    layers.push(("maeri.cycle_sim_conv_ms", secs * 1e3));
    let secs = clock.mean_secs(convs.len() * 100, |i| {
        let layer = &convs[i % convs.len()];
        black_box(analytic::conv_mapping(&cfg, layer, VnPolicy::Auto)).expect("layer scores");
    });
    layers.push(("maeri.analytic_conv_us", secs * 1e6));

    // ART construction for an irregular VN mix on the 64-leaf fabric.
    let sizes: Vec<usize> = (0..64).map(|i| 3 + (i * 7) % 25).collect();
    let (ranges, _) = pack_vns(cfg.num_mult_switches(), &sizes);
    let chubby = cfg.collection_chubby();
    let secs = clock.mean_secs(2000, |_| {
        black_box(ArtConfig::build(chubby, black_box(&ranges))).expect("packed VNs build");
    });
    layers.push(("maeri.art_build_us", secs * 1e6));

    // Enumeration and static rejection over the dense CONV searches.
    let conv_specs: Vec<SearchSpec> = dense_search_specs()
        .into_iter()
        .filter(|spec| matches!(spec.layer, SearchLayer::Conv(_)))
        .collect();
    let start = clock.now().scaled;
    let spaces: Vec<_> = conv_specs.iter().map(enumerate).collect();
    layers.push(("mapspace.enumerate_ms", (clock.now().scaled - start) * 1e3));
    let candidates: usize = spaces.iter().map(Vec::len).sum();
    let start = clock.now().scaled;
    for (spec, space) in conv_specs.iter().zip(&spaces) {
        if let SearchLayer::Conv(conv) = &spec.layer {
            for cand in space {
                black_box(statically_reject(
                    &spec.base,
                    &VerifyLayer::Conv(conv),
                    cand,
                ));
            }
        }
    }
    let per_candidate = (clock.now().scaled - start) / candidates as f64;
    layers.push(("verify.reject_us", per_candidate * 1e6));

    // Admission-time verification over the serve pool.
    let jobs = load::warm_pool(seed)
        .iter()
        .map(JobSpec::to_sim_job)
        .collect::<Result<Vec<_>, _>>()?;
    let secs = clock.mean_secs(jobs.len(), |i| {
        black_box(jobs[i].verify()).expect("pool jobs verify");
    });
    layers.push(("verify.job_us", secs * 1e6));

    // One submit frame written and read back through memory.
    let frame = Request::Submit {
        tenant: "t0".to_owned(),
        spec: load::cold_spec(seed, 0),
        deadline_ms: None,
    }
    .to_json();
    let mut buf = Vec::new();
    let secs = clock.mean_secs(2000, |_| {
        buf.clear();
        write_frame(&mut buf, &frame).expect("frame fits");
        black_box(read_frame(&mut buf.as_slice())).expect("frame parses");
    });
    layers.push(("wire.frame_us", secs * 1e6));

    // The write path's durable appends and the read path's lookup.
    let specs: Vec<JobSpec> = (0..RECORDS as u64)
        .map(|i| load::cold_spec(seed, i))
        .collect();
    let (journal, _) = Journal::open(&dir.join("journal.log")).map_err(|e| e.to_string())?;
    let secs = clock.mean_secs(RECORDS, |i| {
        let admit = AdmitRecord {
            id: i as u64 + 1,
            tenant: "t0".to_owned(),
            deadline_ms: None,
            spec: specs[i].clone(),
        };
        journal.append_admit(&admit).expect("journal append");
        journal.append_tombstone(admit.id).expect("journal append");
    });
    layers.push(("journal.append_us", secs * 1e6));
    let (store, _) = ResultStore::open(&dir.join("store.log")).map_err(|e| e.to_string())?;
    let keys = specs
        .iter()
        .map(|spec| spec.to_sim_job().map(|job| job.key()))
        .collect::<Result<Vec<_>, _>>()?;
    let stored = StoredResult {
        ok: true,
        kind: "run".to_owned(),
        label: "perf".to_owned(),
        cycles: 1,
        detail: "x".repeat(256),
    };
    let secs = clock.mean_secs(RECORDS, |i| {
        store.put(&keys[i], &stored).expect("store append");
    });
    layers.push(("store.put_us", secs * 1e6));
    let secs = clock.mean_secs(RECORDS, |i| {
        black_box(store.get(&keys[i])).expect("stored key is found");
    });
    layers.push(("store.get_us", secs * 1e6));
    drop((journal, store));
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    control(clock, "done", "");

    let doc = layers
        .into_iter()
        .fold(JsonValue::object(), |doc, (name, value)| {
            doc.with(name, JsonValue::Num(value))
        });
    finish(clock, vec![("layers", doc)])
}
