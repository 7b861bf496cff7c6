//! The parent side: spawns the children, reads their stamped control
//! lines, and turns what it saw into each workload's metrics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maeri_telemetry::json::{self, JsonValue};

use crate::child::{dense_search_specs, Mode};
use crate::load;
use crate::stats::{median, percentile, Fnv};
use crate::Workload;

/// FNV-1a 64 of the regen child's stdout: all 19 reports, byte for byte
/// as `regen_all` prints them without `--json`.
const REGEN_STDOUT_FNV: u64 = 0x979e_f123_bc36_c415;
/// FNV-1a 64 of the 13 dense searches' `SearchResult::canonical_text()`,
/// concatenated in spec order.
const SEARCH_TEXT_FNV: u64 = 0x339a_4a1e_4f70_903f;

/// Children spawned per run to time set-up; the last one is measured.
const SETUP_SAMPLES: usize = 9;
/// Longest wait for any single control line.
const EVENT_TIMEOUT: Duration = Duration::from_mins(2);

/// A control line from a child: when the parent read it, and the
/// child's own clock reading when it was sent.
struct Event {
    at: Instant,
    /// Seconds since the child's clock started.
    raw: f64,
    /// The same span rescaled to the reference speed (see [`crate::clock`]).
    scaled: f64,
    kind: String,
    payload: String,
}

impl Event {
    /// Parses `<kind> <raw> <scaled> [payload]`.
    fn parse(at: Instant, line: &str) -> Option<Event> {
        let mut fields = line.splitn(4, ' ');
        let kind = fields.next()?.to_owned();
        let raw = fields.next()?.parse().ok()?;
        let scaled = fields.next()?.parse().ok()?;
        Some(Event {
            at,
            raw,
            scaled,
            kind,
            payload: fields.next().unwrap_or("").to_owned(),
        })
    }
}

/// The CPU every child is pinned to, the last one this process may use,
/// so that a child's clock samples the CPU its work runs on. `None` when
/// `taskset` is unavailable: children then run unpinned, and their clock
/// may miss a slowdown of the CPU the work runs on.
pub fn pinned_cpu() -> Option<&'static str> {
    static CPU: OnceLock<Option<String>> = OnceLock::new();
    CPU.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let allowed = status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
        let cpu = allowed.trim().rsplit([',', '-']).next()?.to_owned();
        let pins = Command::new("taskset")
            .args(["-c", &cpu, "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|status| status.success());
        if !pins {
            eprintln!("perf: taskset is unavailable; children run unpinned");
        }
        pins.then_some(cpu)
    })
    .as_deref()
}

/// A running child. Dropping it kills and reaps the process.
struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    events: Receiver<Event>,
    reader: Option<JoinHandle<()>>,
    stdout: Option<JoinHandle<u64>>,
}

/// What a child left behind: its closing report and its stdout digest.
struct Finished {
    result: JsonValue,
    stdout_fnv: u64,
}

impl ChildProc {
    fn spawn(mode: Mode, opts: &RunOpts, dir: &Path) -> Result<(Self, Instant), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
        let mut command = match pinned_cpu() {
            Some(cpu) => {
                let mut command = Command::new("taskset");
                command.args(["-c", cpu]).arg(exe);
                command
            }
            None => Command::new(exe),
        };
        let spawned = Instant::now();
        let mut child = command
            .args(["child", mode.name(), "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .arg("--dir")
            .arg(dir)
            .env("MAERI_RUNTIME_WORKERS", "2")
            .env_remove("MAERI_TRACE")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {} child: {e}", mode.name()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let at = Instant::now();
                let Some(event) = line
                    .strip_prefix("perf:")
                    .and_then(|control| Event::parse(at, control))
                else {
                    eprintln!("{line}");
                    continue;
                };
                if tx.send(event).is_err() {
                    break;
                }
            }
        });
        let drain = std::thread::spawn(move || {
            let (mut fnv, mut buf) = (Fnv::new(), vec![0u8; 1 << 16]);
            while let Ok(n @ 1..) = stdout.read(&mut buf) {
                fnv.update(&buf[..n]);
            }
            fnv.finish()
        });
        let stdin = child.stdin.take();
        Ok((
            ChildProc {
                child,
                stdin,
                events,
                reader: Some(reader),
                stdout: Some(drain),
            },
            spawned,
        ))
    }

    fn next(&self) -> Result<Event, String> {
        self.events
            .recv_timeout(EVENT_TIMEOUT)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => "child went silent".to_owned(),
                RecvTimeoutError::Disconnected => "child exited early".to_owned(),
            })
    }

    fn expect(&self, kind: &str) -> Result<Event, String> {
        let event = self.next()?;
        if event.kind == kind {
            Ok(event)
        } else {
            Err(format!(
                "child sent `{}` where `{kind}` was due",
                event.kind
            ))
        }
    }

    fn go(&mut self) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin already closed")?;
        writeln!(stdin, "go").map_err(|e| format!("start child: {e}"))
    }

    /// Closes stdin, collects the closing report, and reaps the child.
    fn finish(mut self) -> Result<Finished, String> {
        self.stdin = None;
        let result = self.expect("result")?;
        let result = json::parse(&result.payload).map_err(|e| format!("child result: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for child: {e}"))?;
        if !status.success() {
            return Err(format!("child exited with {status}"));
        }
        let stdout_fnv = self
            .stdout
            .take()
            .expect("stdout drain runs until finish")
            .join()
            .map_err(|_| "stdout drain panicked")?;
        Ok(Finished { result, stdout_fnv })
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.stdin = None;
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
    }
}

/// One workload run's knobs, shared with its children.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the children's stores and journals.
    pub tmp: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics, in [`crate::E2E`] order.
    pub e2e: [f64; 6],
    /// Sample counts behind the timing metrics.
    pub samples: Vec<(&'static str, usize)>,
    /// Raw over rescaled time of the measured part, where the child's
    /// clock times it: how much slower than the reference speed the
    /// child's CPU ran.
    pub slowdown: Option<f64>,
    /// Per-layer metrics; empty unless tracing.
    pub layers: Vec<(String, f64)>,
}

fn child_dir(opts: &RunOpts, mode: Mode, index: usize) -> PathBuf {
    opts.tmp.join(format!("{}-{index}", mode.name()))
}

/// Spawns [`SETUP_SAMPLES`] children and times each from spawn to
/// `ready`: the process launch as the parent saw it, plus the child's
/// own set-up on its rescaled clock. The launch stays raw: rescaling it
/// by the child's first speed sample, taken in a cold process, made it
/// noisier. All but the last child only set up and exit. Returns the
/// setup times, the live last child, and its `ready` line.
fn set_up(mode: Mode, opts: &RunOpts) -> Result<(Vec<f64>, ChildProc, Event), String> {
    let mut times = Vec::with_capacity(SETUP_SAMPLES);
    loop {
        let dir = child_dir(opts, mode, times.len());
        let (child, spawned) = ChildProc::spawn(mode, opts, &dir)?;
        let ready = child.expect("ready")?;
        let launch = (ready.at - spawned).as_secs_f64() - ready.raw;
        times.push(launch + ready.scaled);
        if times.len() == SETUP_SAMPLES {
            return Ok((times, child, ready));
        }
        child.finish()?;
    }
}

fn peak_rss_mb(finished: &Finished) -> Result<f64, String> {
    finished
        .result
        .get("peak_rss_mb")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| "child result lacks peak_rss_mb".to_owned())
}

/// The child's `layers` object as metrics.
fn child_layers(finished: &Finished) -> Vec<(String, f64)> {
    match finished.result.get("layers") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

fn gate(what: &str, actual: u64, committed: u64) -> Result<(), String> {
    if actual == committed {
        Ok(())
    } else {
        Err(format!(
            "{what} digest {actual:016x} differs from the committed {committed:016x}"
        ))
    }
}

/// Runs `workload` once: set-up samples, then the measured part.
pub fn run(workload: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    match workload {
        Workload::Regen => regen(opts),
        Workload::SearchDense => search_dense(opts),
        Workload::ServeCold | Workload::ServeWarm => serve(workload, opts),
    }
}

/// Starts the measured part and receives marks until `done`. Returns
/// the `go` acknowledgement, the marks, and `done`.
fn run_marks(child: &mut ChildProc) -> Result<(Event, Vec<Event>, Event), String> {
    child.go()?;
    let go = child.expect("go")?;
    let mut marks = Vec::new();
    loop {
        let event = child.next()?;
        match event.kind.as_str() {
            "mark" => marks.push(event),
            "done" => return Ok((go, marks, event)),
            other => return Err(format!("unexpected `{other}` from child")),
        }
    }
}

/// Requests issued together and answered in order (one regeneration
/// pass, one repetition of the searches), timed on the child's rescaled
/// clock from the batch start.
struct Batch {
    wall: f64,
    /// The same span on the child's raw clock.
    raw_wall: f64,
    /// Each request's completion time since the batch started, in ms.
    done_ms: Vec<f64>,
    /// Each request's label and its own duration in seconds.
    took: Vec<(String, f64)>,
}

impl Batch {
    fn new(start: &Event, end: &Event, marks: &[Event]) -> Batch {
        let mut prev = start.scaled;
        let (mut done_ms, mut took) = (Vec::new(), Vec::new());
        for mark in marks {
            done_ms.push((mark.scaled - start.scaled) * 1e3);
            took.push((mark.payload.clone(), mark.scaled - prev));
            prev = mark.scaled;
        }
        Batch {
            wall: end.scaled - start.scaled,
            raw_wall: end.raw - start.raw,
            done_ms,
            took,
        }
    }

    /// `setup_s` and `peak_rss_mb` come from elsewhere.
    fn e2e(&self, setup_s: f64, peak_rss_mb: f64) -> [f64; 6] {
        [
            setup_s,
            self.wall,
            peak_rss_mb,
            percentile(&self.done_ms, 50.0),
            percentile(&self.done_ms, 80.0),
            self.done_ms.len() as f64 / self.wall,
        ]
    }
}

fn regen(opts: &RunOpts) -> Result<Outcome, String> {
    let (setup, mut child, _) = set_up(Mode::Workload(Workload::Regen), opts)?;
    let (go, marks, done) = run_marks(&mut child)?;
    let finished = child.finish()?;
    gate("regen stdout", finished.stdout_fnv, REGEN_STDOUT_FNV)?;
    let pass = Batch::new(&go, &done, &marks);
    let mut layers = Vec::new();
    if opts.trace {
        layers.extend(
            pass.took
                .iter()
                .map(|(name, secs)| (format!("report.{name}_s"), *secs)),
        );
        layers.extend(child_layers(&finished));
    }
    Ok(Outcome {
        attempted: pass.took.len() as u64,
        failed: 0,
        e2e: pass.e2e(median(&setup), peak_rss_mb(&finished)?),
        samples: vec![("setup", setup.len()), ("requests", pass.took.len())],
        slowdown: Some(pass.raw_wall / pass.wall),
        layers,
    })
}

fn search_dense(opts: &RunOpts) -> Result<Outcome, String> {
    let (setup, mut child, _) = set_up(Mode::Workload(Workload::SearchDense), opts)?;
    let (mut start, marks, _) = run_marks(&mut child)?;
    let finished = child.finish()?;
    let digests = finished
        .result
        .get("digests")
        .and_then(JsonValue::as_array)
        .ok_or("search child reported no digests")?;
    for digest in digests {
        let digest = digest
            .as_str()
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("malformed search digest")?;
        gate("dense search text", digest, SEARCH_TEXT_FNV)?;
    }
    // A `rep` mark closes a repetition; the marks before it are its
    // searches, labelled by layer kind.
    let mut reps = Vec::new();
    let mut current = Vec::new();
    for mark in marks {
        if mark.payload == "rep" {
            reps.push(Batch::new(&start, &mark, &current));
            current.clear();
            start = mark;
        } else {
            current.push(mark);
        }
    }
    let per_rep = dense_search_specs().len();
    if reps.is_empty() || reps.iter().any(|rep| rep.took.len() != per_rep) {
        return Err(format!(
            "search child marked {} repetitions of other than {per_rep} searches",
            reps.len()
        ));
    }
    // Each metric is the median over the repetitions.
    let (setup_s, rss) = (median(&setup), peak_rss_mb(&finished)?);
    let per_rep_e2e: Vec<[f64; 6]> = reps.iter().map(|rep| rep.e2e(setup_s, rss)).collect();
    let e2e =
        std::array::from_fn(|i| median(&per_rep_e2e.iter().map(|m| m[i]).collect::<Vec<_>>()));
    let mut layers: Vec<(String, f64)> = Vec::new();
    if opts.trace {
        let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for rep in &reps {
            let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
            for (kind, secs) in &rep.took {
                *sums.entry(kind).or_default() += secs;
            }
            for (kind, total) in sums {
                by_kind.entry(kind).or_default().push(total);
            }
        }
        layers.extend(
            by_kind
                .iter()
                .map(|(kind, totals)| (format!("mapspace.search_{kind}_s"), median(totals))),
        );
        layers.extend(child_layers(&finished));
    }
    let raw: f64 = reps.iter().map(|rep| rep.raw_wall).sum();
    let scaled: f64 = reps.iter().map(|rep| rep.wall).sum();
    Ok(Outcome {
        attempted: (per_rep * reps.len()) as u64,
        failed: 0,
        e2e,
        samples: vec![
            ("setup", setup.len()),
            ("requests", per_rep),
            ("repetitions", reps.len()),
        ],
        slowdown: Some(raw / scaled),
        layers,
    })
}

fn serve(workload: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let (setup, child, ready) = set_up(Mode::Workload(workload), opts)?;
    let addr = ready
        .payload
        .parse()
        .map_err(|e| format!("serving child sent a bad address: {e}"))?;
    let load = load::drive(workload, addr, opts.seed, opts.seconds, opts.trace)?;
    let finished = child.finish()?;
    Ok(Outcome {
        attempted: load.attempted,
        failed: load.failed,
        e2e: [
            median(&setup),
            load.makespan.as_secs_f64(),
            peak_rss_mb(&finished)?,
            percentile(&load.latencies_ms, 50.0),
            percentile(&load.latencies_ms, 80.0),
            load.sat_jobs_per_s,
        ],
        samples: vec![
            ("setup", setup.len()),
            ("requests", load.latencies_ms.len()),
        ],
        slowdown: None,
        layers: load.layers,
    })
}

/// The kernel probes of a traced run, in their own child.
pub fn kernels(opts: &RunOpts) -> Result<Vec<(String, f64)>, String> {
    let (mut child, _) = ChildProc::spawn(Mode::Kernels, opts, &child_dir(opts, Mode::Kernels, 0))?;
    child.expect("ready")?;
    run_marks(&mut child)?;
    let finished = child.finish()?;
    Ok(child_layers(&finished))
}
