//! Kill-and-restart recovery smoke: spawn a victim copy of this
//! binary, SIGKILL it mid-burst — a real, unflushable process death,
//! not a polite shutdown — then restart the service on the victim's
//! journal and store and demand an outcome for every submit the victim
//! acknowledged before dying.
//!
//! The victim prints `ack <id> <job>` *after* each `submit_spec`
//! returns, so every acked id is covered by the write-ahead journal's
//! guarantee: the admit record is durable before the caller sees the
//! id. After restart every acked job must resolve one of two ways —
//! its id replays to a live ticket (it was still owed an outcome), or
//! it was tombstoned pre-kill, in which case its result must already
//! sit in the store and answer a content-identical resubmit without
//! re-running. Anything else is a real acknowledged loss and fails
//! the run.
//!
//! Run with: `cargo run --release --example crash_recovery`

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Arc;

use maeri_repro::dnn::ConvLayer;
use maeri_repro::runtime::Runtime;
use maeri_repro::serve::recorder::{read_span_log, RecorderConfig};
use maeri_repro::serve::service::{ServeConfig, Service};
use maeri_repro::serve::wire::{FabricSpec, JobSpec};
use maeri_repro::telemetry::span::SpanKind;

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: 2,
        per_tenant_depth: 64,
        store_path: Some(dir.join("store.log")),
        journal_path: Some(dir.join("journal.log")),
        // The flight recorder's span log is flushed before each submit
        // is acknowledged, so it survives the SIGKILL alongside the
        // journal and lets the parent audit the victim's request path.
        recorder: Some(RecorderConfig {
            span_log: Some(dir.join("spans.jsonl")),
            ..RecorderConfig::default()
        }),
        ..ServeConfig::default()
    }
}

fn spec(i: u64) -> JobSpec {
    JobSpec::Conv {
        layer: ConvLayer::new(&format!("crash_job{i}"), 3, 12, 12, 8, 3, 3, 1, 1),
        fabric: FabricSpec::default(),
    }
}

/// Victim mode: submit a burst of journaled jobs, acking each one on
/// stdout, until the parent kills us. Never exits on its own success —
/// the parent's SIGKILL is the only way out of the loop's tail sleep.
fn victim(dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    let service = Service::start(config(dir), Arc::new(Runtime::new(1)))?;
    let stdout = std::io::stdout();
    for i in 1..=200u64 {
        let id = service.submit_spec(&format!("t{}", i % 3), &spec(i), Some(30_000))?;
        // The ack must be flushed before the next submit: an id the
        // parent read is an id the journal already holds.
        let mut out = stdout.lock();
        writeln!(out, "ack {id} {i}")?;
        out.flush()?;
        std::thread::sleep(std::time::Duration::from_millis(3));
    }
    // 200 jobs at 3ms apiece outlives any plausible kill latency; if
    // we get here the parent failed to kill us and the run is broken.
    Err("victim was never killed".into())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--victim" {
        return victim(Path::new(&args[2]));
    }

    let dir = std::env::temp_dir().join(format!("maeri-crash-recovery-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // Phase 1: the victim submits journaled jobs and acks them until
    // SIGKILL lands mid-burst.
    let mut child = std::process::Command::new(std::env::current_exe()?)
        .arg("--victim")
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()?;
    let parse_ack = |line: &str| -> Option<(u64, u64)> {
        let mut parts = line.strip_prefix("ack ")?.split_whitespace();
        Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
    };
    let mut acked: Vec<(u64, u64)> = Vec::new();
    {
        let stdout = child.stdout.take().ok_or("victim stdout missing")?;
        let mut lines = BufReader::new(stdout).lines();
        for line in &mut lines {
            if let Some(ack) = parse_ack(&line?) {
                acked.push(ack);
            }
            if acked.len() >= 10 {
                child.kill()?; // SIGKILL: no Drop, no flush, no grace
                break;
            }
        }
        // Drain acks that were already in flight when the kill landed —
        // they were acknowledged too, and they count.
        for line in lines {
            let Ok(line) = line else { break };
            if let Some(ack) = parse_ack(&line) {
                acked.push(ack);
            }
        }
    }
    child.wait()?;
    println!(
        "crash recovery: victim killed after acknowledging {} submits",
        acked.len()
    );
    assert!(acked.len() >= 10, "the kill landed before the burst");

    // The span log is flushed before each submit_spec returns, so the
    // victim's request-path trace survives the SIGKILL too: every
    // acked id must already have its admission span on disk, matching
    // the journal's write-ahead admit record.
    let log = read_span_log(&dir.join("spans.jsonl"))?;
    let admitted_spans: std::collections::HashSet<u64> = log
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Admission && s.status == "ok")
        .map(|s| s.job)
        .collect();
    for &(id, job) in &acked {
        assert!(
            admitted_spans.contains(&id),
            "acked id {id} (job {job}) has no admission span in the flight log"
        );
    }
    println!(
        "crash recovery: span log kept {} spans across the kill ({} torn lines skipped), \
         covering all {} acked admissions",
        log.spans.len(),
        log.skipped,
        acked.len()
    );

    // Phase 2: restart on the victim's files. Every acked id must
    // resolve — replayed and re-run, or answered from the store.
    let service = Service::start(config(&dir), Arc::new(Runtime::new(1)))?;
    let snap = service.stats();
    println!(
        "crash recovery: restart replayed {} orphans, answered {} from the store \
         (journal trimmed {} torn bytes)",
        snap.journal_orphans_replayed,
        snap.journal_recovered_from_store,
        snap.journal_truncated_bytes
    );
    let mut replayed = 0u64;
    let mut store_answered = 0u64;
    let mut lost = 0u64;
    for &(id, job) in &acked {
        if let Some(result) = service.wait(id) {
            // Still owed at the kill: the journal replayed it.
            assert!(result.ok, "job {id} replayed to a failure");
            replayed += 1;
            continue;
        }
        // Tombstoned pre-kill: the tombstone is only written after the
        // store append, so a content-identical resubmit must be a
        // store hit — answered without re-running.
        let before = service.stats().store_hits;
        let resubmit = service.submit_spec("probe", &spec(job), None)?;
        let result = service.wait(resubmit).ok_or("resubmit must resolve")?;
        if result.ok && service.stats().store_hits == before + 1 {
            store_answered += 1;
        } else {
            eprintln!("crash recovery: acked id {id} (job {job}) lost its stored outcome");
            lost += 1;
        }
    }
    assert_eq!(lost, 0, "acknowledged jobs were lost across the kill");
    println!(
        "crash recovery: all {} acknowledged jobs resolved after restart \
         ({replayed} replayed, {store_answered} already stored)",
        acked.len()
    );

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    println!("crash recovery: OK");
    Ok(())
}
