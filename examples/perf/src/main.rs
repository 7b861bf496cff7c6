//! maeri-perf: one harness that times paper regeneration, mapping
//! search and live serving, end to end and per layer.
//!
//! ```text
//! perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! perf baseline
//! perf compare BASE NEW
//! ```
//!
//! The parent process is the timer and the load generator; each
//! workload's system runs in a child process that is this binary
//! re-executed (`perf child ...`, see [`child`]). `run` prints one JSON
//! record line; with `--workload` it then prints the workload's result
//! line (`correct`, `attempted`, `failed`, `metrics`) last. Metric and
//! workload names are checked against `BENCHMARK.json` at start-up.
//! See `README.md` next to this file.

mod child;
mod clock;
mod compare;
mod load;
mod parent;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use maeri_bench::reports::REPORTS;
use maeri_telemetry::json::{self, JsonValue};

use crate::parent::{Outcome, RunOpts};
use crate::stats::{median, spread};

/// The benchmark definition this harness must match, name for name.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The measured window of `run` and `baseline` unless `--seconds` says
/// otherwise.
const DEFAULT_SECONDS: f64 = 10.0;

/// Open-loop seconds of the serve workloads that are not the focus of
/// a traced run (the search then does one repetition).
const MINOR_SECONDS: f64 = 2.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    Regen,
    SearchDense,
    ServeCold,
    ServeWarm,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Regen,
        Workload::SearchDense,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Regen => "regen",
            Workload::SearchDense => "search_dense",
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics, in [`Outcome::e2e`] order.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p80_ms", "ms"),
    ("jobs_per_s", "1/s"),
];
const WALL: usize = 1;

/// Every per-layer metric a traced run emits, with its unit.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = REPORTS
        .iter()
        .map(|(_, name, _)| (format!("report.{name}_s"), "s"))
        .collect();
    let fixed = [
        ("runtime.executed", "count"),
        ("runtime.cache_hits", "count"),
        ("runtime.phase_entries", "count"),
        ("mapspace.search_conv_s", "s"),
        ("mapspace.search_fc_s", "s"),
        ("mapspace.search_lstm_s", "s"),
        ("mapspace.enumerated", "count"),
        ("mapspace.pruned", "count"),
        ("mapspace.scored", "count"),
        ("mapspace.validated", "count"),
        ("mapspace.enumerate_ms", "ms"),
        ("maeri.sparse_run_ms", "ms"),
        ("maeri.cycle_sim_conv_ms", "ms"),
        ("maeri.analytic_conv_us", "us"),
        ("maeri.art_build_us", "us"),
        ("verify.reject_us", "us"),
        ("verify.job_us", "us"),
        ("wire.frame_us", "us"),
        ("journal.append_us", "us"),
        ("store.put_us", "us"),
        ("store.get_us", "us"),
    ];
    out.extend(fixed.iter().map(|&(name, unit)| (name.to_owned(), unit)));
    for w in [Workload::ServeCold, Workload::ServeWarm] {
        let session = [
            ("wire.submit_rtt_ms", "ms"),
            ("wire.poll_rtt_ms", "ms"),
            ("wire.polls_per_job", "polls/job"),
            ("wire.stats_rtt_ms", "ms"),
            ("gen.lag_p99_ms", "ms"),
            ("gen.scheduled", "count"),
            ("gen.sent", "count"),
        ];
        out.extend(
            session
                .iter()
                .map(|&(name, unit)| (format!("{}.{name}", w.name()), unit)),
        );
    }
    out.push(("serve_cold.serve.journal_appends".to_owned(), "count"));
    out.push(("serve_cold.serve.queue_high_water".to_owned(), "count"));
    out.push(("serve_warm.serve.store_hits".to_owned(), "count"));
    out
}

/// One metric's entry in `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed regression as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, checked against what this harness emits.
pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text = |entry: &JsonValue, key: &str| {
            entry
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|entry| {
                    Ok(MetricSpec {
                        name: text(entry, "name")?,
                        unit: text(entry, "unit")?,
                        higher_is_better: text(entry, "better")? == "higher",
                        bound: entry.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|entry| text(entry, "name"))
            .collect::<Result<Vec<_>, _>>()?;
        let spec = Spec {
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };

        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        sync("workloads", &workloads, &ours)?;
        let listed = |metrics: &[MetricSpec]| -> Vec<String> {
            metrics
                .iter()
                .map(|m| format!("{} [{}]", m.name, m.unit))
                .collect()
        };
        let e2e: Vec<String> = E2E
            .iter()
            .map(|(name, unit)| format!("{name} [{unit}]"))
            .collect();
        sync("end_to_end", &listed(&spec.end_to_end), &e2e)?;
        let layers: Vec<String> = layer_metrics()
            .iter()
            .map(|(name, unit)| format!("{name} [{unit}]"))
            .collect();
        sync("per_layer", &listed(&spec.per_layer), &layers)?;
        Ok(spec)
    }
}

/// Refuses a mismatch between the names `BENCHMARK.json` lists and the
/// names this harness emits.
fn sync(what: &str, listed: &[String], emitted: &[String]) -> Result<(), String> {
    let missing: Vec<&String> = listed.iter().filter(|n| !emitted.contains(n)).collect();
    let extra: Vec<&String> = emitted.iter().filter(|n| !listed.contains(n)).collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json {what} out of sync with the harness: listed but not emitted {missing:?}, emitted but not listed {extra:?}"
        ))
    }
}

/// Where the children keep their stores and journals: beside this
/// binary in the build directory, one directory per process.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join(format!("perf-tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The commit being measured, read from `.git` in the working
/// directory without running git; `unknown` outside a checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(PathBuf::from(".git").join(path)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(name) => read(name).map(|r| r.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|line| line.strip_suffix(name).map(|r| r.trim().to_owned()))
        }),
    });
    rev.map_or_else(|| "unknown".to_owned(), |r| r.chars().take(12).collect())
}

fn host() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    JsonValue::object()
        .with("nproc", JsonValue::UInt(nproc as u64))
        .with(
            "profile",
            JsonValue::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        )
        .with(
            "rustc",
            JsonValue::Str(env!("PERF_RUSTC_VERSION").to_owned()),
        )
        .with("git_rev", JsonValue::Str(git_rev()))
        .with(
            "pinned_cpu",
            parent::pinned_cpu().map_or(JsonValue::Null, |cpu| JsonValue::Str(cpu.to_owned())),
        )
}

/// A result object: `correct`, `attempted`, `failed`, and `metrics`
/// (name → value and unit).
fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> JsonValue {
    let metrics = metrics
        .iter()
        .fold(JsonValue::object(), |doc, (name, value, unit)| {
            doc.with(
                name,
                JsonValue::object()
                    .with("value", JsonValue::Num(*value))
                    .with("unit", JsonValue::Str((*unit).to_owned())),
            )
        });
    JsonValue::object()
        .with("correct", JsonValue::Bool(true))
        .with("attempted", JsonValue::UInt(attempted))
        .with("failed", JsonValue::UInt(failed))
        .with("metrics", metrics)
}

fn e2e_json(outcome: &Outcome) -> JsonValue {
    let metrics: Vec<(String, f64, &str)> = E2E
        .iter()
        .zip(outcome.e2e)
        .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
        .collect();
    result_json(outcome.attempted, outcome.failed, &metrics)
}

/// What `run` measured: the record line and, for one workload, the
/// result line printed last.
struct Measured {
    record: JsonValue,
    result: Option<JsonValue>,
}

/// Runs the untraced pass over the chosen workloads and, with `trace`,
/// the traced pass over all of them (the chosen one at full length, the
/// others shortened) plus the kernel probes.
fn measure(
    focus: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: &std::path::Path,
) -> Result<Measured, String> {
    let opts = |seconds: f64, trace: bool| RunOpts {
        seed,
        seconds,
        trace,
        tmp: tmp.to_owned(),
    };
    let chosen: Vec<Workload> = focus.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut untraced = Vec::new();
    // A traced run of one workload skips the untraced pass.
    if !(trace && focus.is_some()) {
        for &w in &chosen {
            eprintln!("perf: {} (seed {seed})", w.name());
            untraced.push((w, parent::run(w, &opts(seconds, false))?));
        }
    }
    let mut record = JsonValue::object()
        .with("host", host())
        .with("seed", JsonValue::UInt(seed))
        .with("seconds", JsonValue::Num(seconds))
        .with("trace", JsonValue::Bool(trace));
    let mut workloads = JsonValue::object();
    for (w, outcome) in &untraced {
        let samples = outcome
            .samples
            .iter()
            .fold(JsonValue::object(), |doc, (name, n)| {
                doc.with(name, JsonValue::UInt(*n as u64))
            });
        let mut doc = e2e_json(outcome).with("samples", samples);
        if let Some(slowdown) = outcome.slowdown {
            doc = doc.with("slowdown", JsonValue::Num(slowdown));
        }
        workloads = workloads.with(w.name(), doc);
    }
    record = record.with("workloads", workloads);
    if !trace {
        let result = focus.and_then(|_| untraced.first().map(|(_, o)| e2e_json(o)));
        return Ok(Measured { record, result });
    }

    let (mut attempted, mut failed) = (0, 0);
    let mut layers = Vec::new();
    let mut overhead = JsonValue::object();
    for w in Workload::ALL {
        let full = focus.is_none_or(|f| f == w);
        eprintln!("perf: {} traced (seed {seed})", w.name());
        let outcome = parent::run(w, &opts(if full { seconds } else { MINOR_SECONDS }, true))?;
        attempted += outcome.attempted;
        failed += outcome.failed;
        if let Some((_, plain)) = untraced.iter().find(|(u, _)| *u == w) {
            let ratio = outcome.e2e[WALL] / plain.e2e[WALL] - 1.0;
            overhead = overhead.with(w.name(), JsonValue::Num(ratio));
        }
        layers.extend(outcome.layers);
    }
    eprintln!("perf: kernels");
    layers.extend(parent::kernels(&opts(seconds, true))?);

    let expected = layer_metrics();
    let emitted: Vec<String> = layers.iter().map(|(name, _)| name.clone()).collect();
    let names: Vec<String> = expected.iter().map(|(name, _)| name.clone()).collect();
    sync("per_layer", &names, &emitted)?;
    let metrics: Vec<(String, f64, &str)> = expected
        .into_iter()
        .map(|(name, unit)| {
            let value = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1);
            (name, value, unit)
        })
        .collect();
    let result = result_json(attempted, failed, &metrics);
    record = record.with("layers", result.clone());
    if focus.is_none() {
        record = record.with("trace_overhead", overhead);
    }
    Ok(Measured {
        record,
        result: focus.map(|_| result),
    })
}

/// Runs `measure` in a scratch directory that is removed afterwards.
fn measure_in_scratch(
    focus: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Measured, String> {
    let tmp = scratch_dir()?;
    let measured = measure(focus, seed, seconds, trace, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    measured
}

fn run_cmd(args: &[String]) -> Result<(), String> {
    let (mut focus, mut seed, mut seconds, mut trace) = (None, 1, DEFAULT_SECONDS, false);
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workload" => {
                let name = rest.next().ok_or("--workload needs a name")?;
                focus = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?;
            }
            "--seconds" => {
                seconds = rest
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| (0.5..=60.0).contains(s))
                    .ok_or("--seconds needs a number from 0.5 to 60")?;
            }
            "--trace" => {
                trace = true;
                if let Some(value) = rest.next_if(|v| *v == "0" || *v == "1") {
                    trace = value == "1";
                }
            }
            other => return Err(format!("run: unknown argument {other}")),
        }
    }
    let measured = measure_in_scratch(focus, seed, seconds, trace)?;
    println!("{}", measured.record.render());
    if let Some(result) = measured.result {
        println!("{}", result.render());
    }
    Ok(())
}

/// Two sets of five untraced runs (seeds 1–10) and one traced run, with
/// each end-to-end metric's per-set median and spread next to its bound.
fn baseline_cmd(args: &[String], spec: &Spec) -> Result<(), String> {
    if !args.is_empty() {
        return Err("usage: perf baseline".to_owned());
    }
    let seconds = DEFAULT_SECONDS;
    let mut sets = Vec::new();
    for set in 0..2u64 {
        let mut runs = Vec::new();
        for i in 0..5 {
            runs.push(measure_in_scratch(None, set * 5 + i + 1, seconds, false)?.record);
        }
        sets.push(runs);
    }
    let traced = measure_in_scratch(None, 1, seconds, true)?.record;

    // Spreads per set and over all ten runs (what the bound is checked
    // against), and each set's median (what a regression is judged by).
    let per_set: Vec<_> = sets.iter().map(|runs| compare::values(runs)).collect();
    let all = compare::values(&sets.concat());
    let mut spreads = JsonValue::object();
    for w in Workload::ALL {
        let mut doc = JsonValue::object();
        for metric in &spec.end_to_end {
            let key = (w.name().to_owned(), metric.name.clone());
            let sets: Vec<&Vec<f64>> = per_set.iter().filter_map(|v| v.get(&key)).collect();
            let nums = |f: fn(&[f64]) -> f64| {
                JsonValue::Array(sets.iter().map(|v| JsonValue::Num(f(v))).collect())
            };
            let spread_all = all.get(&key).and_then(|v| spread(v));
            doc = doc.with(
                &metric.name,
                JsonValue::object()
                    .with("set_medians", nums(median))
                    .with("set_spreads", nums(|v| spread(v).unwrap_or(f64::NAN)))
                    .with("spread", spread_all.map_or(JsonValue::Null, JsonValue::Num))
                    .with(
                        "bound",
                        metric.bound.map_or(JsonValue::Null, JsonValue::Num),
                    ),
            );
        }
        spreads = spreads.with(w.name(), doc);
    }
    let sets = sets.into_iter().map(JsonValue::Array).collect();
    let doc = JsonValue::object()
        .with("host", host())
        .with("seconds", JsonValue::Num(seconds))
        .with("sets", JsonValue::Array(sets))
        .with("traced", traced)
        .with("spread", spreads);
    println!("{}", doc.render());
    Ok(())
}

const USAGE: &str = "usage: perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n       perf baseline\n       perf compare BASE NEW";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let outcome = if command == "child" {
        child::main(rest)
    } else {
        Spec::load().and_then(|spec| match command {
            "run" => run_cmd(rest),
            "baseline" => baseline_cmd(rest, &spec),
            "compare" => compare::main(rest, &spec),
            _ => Err(USAGE.to_owned()),
        })
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::FAILURE
        }
    }
}
