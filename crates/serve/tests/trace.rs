//! End-to-end observability tests: live request-path tracing through
//! the flight recorder, the crash postmortem contract, the `metrics`
//! wire verb and its agreement with `stats` and the runtime's counters,
//! and reject-cause counter accounting under concurrency.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use maeri::{MaeriConfig, VnPolicy};
use maeri_dnn::ConvLayer;
use maeri_runtime::{Runtime, SimJob};
use maeri_serve::metrics::ROWS;
use maeri_serve::recorder::{read_postmortem, read_span_log, RecorderConfig};
use maeri_serve::registry::validate_exposition;
use maeri_serve::server::Server;
use maeri_serve::service::{ServeConfig, Service, SubmitError};
use maeri_serve::wire::{Client, FabricSpec, JobSpec};
use maeri_serve::Journal;
use maeri_telemetry::json::JsonValue;
use maeri_telemetry::metrics::MetricRow;
use maeri_telemetry::span::{validate_trace, SpanKind};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "maeri-trace-test-{}-{unique}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn conv_job(name: &str) -> SimJob {
    SimJob::dense_conv(
        MaeriConfig::paper_64(),
        ConvLayer::new(name, 3, 16, 16, 8, 3, 3, 1, 1),
        VnPolicy::Auto,
    )
}

#[test]
fn live_trace_covers_admission_to_reply() {
    let dir = temp_dir("live");
    let config = ServeConfig {
        workers: 2,
        per_tenant_depth: 32,
        store_path: Some(dir.join("store.log")),
        journal_path: Some(dir.join("journal.log")),
        recorder: Some(RecorderConfig::default()),
        ..ServeConfig::default()
    };
    let service = Service::start(config, Arc::new(Runtime::new(1))).expect("start");

    let mut miss_ids = Vec::new();
    for i in 0..3 {
        let id = service
            .submit("t0", conv_job(&format!("trace_conv{i}")))
            .expect("submit");
        assert!(service.wait(id).expect("result").ok);
        miss_ids.push(id);
    }
    // A content-identical resubmit is answered from the store at
    // admission: its trace is verify -> admission(store_hit) -> reply.
    let hit_id = service
        .submit("t0", conv_job("trace_conv0"))
        .expect("resubmit");
    assert!(service.wait(hit_id).expect("stored result").ok);
    service.drain();

    let recorder = service.recorder().expect("recorder enabled");
    let spans = recorder.spans();
    assert_eq!(recorder.dropped(), 0, "tiny run must not evict");
    validate_trace(&spans).expect("live trace must validate");

    for &id in &miss_ids {
        let kinds: HashSet<SpanKind> = spans
            .iter()
            .filter(|s| s.job == id)
            .map(|s| s.kind)
            .collect();
        for kind in SpanKind::ALL {
            assert!(
                kinds.contains(&kind),
                "job {id} is missing a {} span",
                kind.name()
            );
        }
        // The reply is the last phase: nothing may start after it ends.
        let reply_end = spans
            .iter()
            .filter(|s| s.job == id && s.kind == SpanKind::Reply)
            .map(maeri_telemetry::span::SpanRecord::end_us)
            .max()
            .expect("reply span");
        for span in spans.iter().filter(|s| s.job == id) {
            assert!(span.start_us <= reply_end, "span after reply for {id}");
        }
    }

    let hit_kinds: Vec<(SpanKind, String)> = spans
        .iter()
        .filter(|s| s.job == hit_id)
        .map(|s| (s.kind, s.status.clone()))
        .collect();
    assert!(hit_kinds.contains(&(SpanKind::Admission, "store_hit".to_owned())));
    assert!(
        !hit_kinds.iter().any(|(k, _)| *k == SpanKind::Dispatch),
        "a store hit never reaches a worker"
    );

    // The Chrome export is one valid JSON document.
    let chrome = recorder.chrome_json();
    let doc = maeri_telemetry::json::parse(&chrome).expect("chrome trace parses");
    assert!(doc.get("traceEvents").is_some());

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_submits_emit_job_zero_sentinels() {
    let service = Service::start(
        ServeConfig {
            workers: 1,
            per_tenant_depth: 2,
            recorder: Some(RecorderConfig::default()),
            ..ServeConfig::default()
        },
        Arc::new(Runtime::new(1)),
    )
    .expect("start");
    let mut rejected = 0u64;
    for i in 0..24 {
        match service.submit("t0", conv_job(&format!("flood{i}"))) {
            Ok(_) => {}
            Err(SubmitError::Backpressure { .. }) => rejected += 1,
            Err(err) => panic!("unexpected reject: {err}"),
        }
    }
    assert!(rejected > 0, "depth 2 must shed a 24-deep flood");
    service.drain();

    let spans = service.recorder().expect("recorder").spans();
    validate_trace(&spans).expect("sentinel spans must validate");
    let sentinel_rejects = spans
        .iter()
        .filter(|s| s.job == 0 && s.status == "rejected_backpressure")
        .count() as u64;
    assert_eq!(
        sentinel_rejects, rejected,
        "every backpressure reject leaves an admission sentinel"
    );
    assert_eq!(service.stats().rejected_backpressure, rejected);
}

#[test]
fn crash_leaves_postmortem_and_span_log_matching_the_journal() {
    let dir = temp_dir("crash");
    let journal_path = dir.join("journal.log");
    let config = ServeConfig {
        workers: 1,
        per_tenant_depth: 64,
        store_path: Some(dir.join("store.log")),
        journal_path: Some(journal_path.clone()),
        recorder: Some(RecorderConfig {
            span_log: Some(dir.join("spans.jsonl")),
            postmortem: Some(dir.join("postmortem.json")),
            ..RecorderConfig::default()
        }),
        ..ServeConfig::default()
    };
    let service = Service::start(config, Arc::new(Runtime::new(1))).expect("start");
    let mut acked = Vec::new();
    for i in 0..4 {
        // The journaled wire path: the admit record is durable before
        // the id comes back, exactly like a socket submit.
        let spec = JobSpec::Conv {
            layer: ConvLayer::new(&format!("pm_conv{i}"), 3, 16, 16, 8, 3, 3, 1, 1),
            fabric: FabricSpec::default(),
        };
        acked.push(service.submit_spec("t0", &spec, None).expect("submit"));
    }
    service.crash();

    let postmortem = read_postmortem(&dir.join("postmortem.json")).expect("postmortem parses");
    validate_trace(&postmortem.spans).expect("postmortem spans validate");

    // The span log was flushed before each submit was acknowledged, so
    // every acked id must already have its admission span on disk —
    // and each must be covered by a journal admit record.
    let log = read_span_log(&dir.join("spans.jsonl")).expect("span log parses");
    assert_eq!(log.skipped, 0, "no torn writes in a clean crash()");
    let admitted_in_log: HashSet<u64> = log
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Admission && s.status == "ok")
        .map(|s| s.job)
        .collect();
    drop(service);
    let (_journal, recovery) = Journal::open(&journal_path).expect("journal reopens");
    for &id in &acked {
        assert!(
            admitted_in_log.contains(&id),
            "acked id {id} missing from the span log"
        );
        assert!(
            id <= recovery.max_id,
            "acked id {id} missing from the journal"
        );
    }
    let journaled_spans = log
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::JournalAppend && s.status == "ok")
        .count();
    assert!(
        journaled_spans >= acked.len(),
        "every admit append must leave a journal_append span"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_wire_verb_serves_valid_prometheus() {
    let service = Arc::new(
        Service::start(
            ServeConfig {
                workers: 2,
                per_tenant_depth: 32,
                ..ServeConfig::default()
            },
            Arc::new(Runtime::new(1)),
        )
        .expect("start"),
    );
    let mut server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.local_addr()).expect("connect");

    for (tenant, i) in [("alpha", 0), ("alpha", 1), ("beta", 2)] {
        let id = service
            .submit(tenant, conv_job(&format!("prom_conv{i}")))
            .expect("submit");
        assert!(service.wait(id).expect("result").ok);
    }
    service.drain();

    let text = client.metrics_text().expect("metrics verb");
    validate_exposition(&text).expect("exposition must be valid");
    for needle in [
        "# TYPE maeri_submitted_total counter",
        "maeri_submitted_total 3",
        "maeri_rejected_total{cause=\"backpressure\"} 0",
        "maeri_slo_completions_total{tenant=\"alpha\"} 2",
        "maeri_slo_completions_total{tenant=\"beta\"} 1",
        "maeri_slo_target_p99_us",
        "maeri_latency_us{quantile=\"0.99\"}",
    ] {
        assert!(
            text.contains(needle),
            "exposition missing `{needle}`:\n{text}"
        );
    }

    // The SLO tracker behind the exposition agrees with it.
    let slo = service.slo().report();
    assert_eq!(slo.len(), 2);
    assert_eq!(slo.iter().map(|t| t.completed).sum::<u64>(), 3);

    server.stop();
}

/// The exposition series a metric-table row renders as:
/// `family` or `family{name="value"}`.
fn series(row: &MetricRow) -> String {
    match row.label {
        Some((name, value)) => format!("{}{{{name}=\"{value}\"}}", row.family),
        None => row.family.to_owned(),
    }
}

#[test]
fn every_stats_key_has_a_matching_exposition_sample() {
    let dir = temp_dir("drift");
    let config = ServeConfig {
        workers: 1,
        per_tenant_depth: 8,
        store_path: Some(dir.join("store.log")),
        journal_path: Some(dir.join("journal.log")),
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::start(config, Arc::new(Runtime::new(1))).expect("start"));
    let mut server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.local_addr()).expect("connect");
    // Two distinct jobs and one repeat, so the store answers once.
    for (tenant, name) in [("alpha", "drift0"), ("alpha", "drift1"), ("beta", "drift0")] {
        let id = service.submit(tenant, conv_job(name)).expect("submit");
        assert!(service.wait(id).expect("result").ok);
    }
    service.drain();

    let stats = client.stats().expect("stats verb");
    let text = client.metrics_text().expect("metrics verb");
    validate_exposition(&text).expect("exposition must be valid");
    server.stop();
    // Series → value, for every sample outside the per-tenant SLO
    // families (which `stats` cannot carry).
    let samples: BTreeMap<&str, &str> = text
        .lines()
        .filter(|line| !line.starts_with('#') && !line.starts_with("maeri_slo_"))
        .map(|line| line.rsplit_once(' ').expect("`series value` sample line"))
        .collect();
    let JsonValue::Object(fields) = &stats else {
        panic!("stats is not an object: {}", stats.render());
    };
    let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    let rows: Vec<&str> = ROWS.iter().map(|row| row.key).collect();
    assert_eq!(keys, rows, "`stats` carries exactly the table's rows");
    // Every service row with its `stats` value, then every runtime row
    // with its value in the runtime's own snapshot.
    let stats_values = fields
        .iter()
        .map(|(_, value)| value.as_u64().expect("stats values are integers"));
    let expected: Vec<(&MetricRow, u64)> = ROWS
        .iter()
        .zip(stats_values)
        .chain(service.runtime().metrics().rows())
        .collect();
    for (row, value) in &expected {
        assert_eq!(
            samples.get(series(row).as_str()),
            Some(&value.to_string().as_str()),
            "`{}` = {value} has no matching `{}` sample",
            row.key,
            series(row)
        );
    }
    for name in samples.keys() {
        assert!(
            expected.iter().any(|(row, _)| series(row) == *name),
            "sample `{name}` maps back to no stats key or runtime row"
        );
    }
    assert_eq!(stats.get("store_hits").and_then(JsonValue::as_u64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reject_cause_counters_account_for_every_concurrent_submit() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 12;
    let service = Arc::new(
        Service::start(
            ServeConfig {
                workers: 1,
                per_tenant_depth: 2,
                ..ServeConfig::default()
            },
            Arc::new(Runtime::new(1)),
        )
        .expect("start"),
    );
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let svc = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            let mut backpressure = 0u64;
            for i in 0..PER_THREAD {
                // All threads target one tenant, so the depth-2 bound
                // is contended from every thread at once.
                match svc.submit("hot", conv_job(&format!("cc_{t}_{i}"))) {
                    Ok(_) => ok += 1,
                    Err(SubmitError::Backpressure { .. }) => backpressure += 1,
                    Err(err) => panic!("unexpected reject: {err}"),
                }
            }
            (ok, backpressure)
        }));
    }
    let mut ok_total = 0u64;
    let mut rejected_total = 0u64;
    for handle in handles {
        let (ok, backpressure) = handle.join().expect("submitter thread");
        ok_total += ok;
        rejected_total += backpressure;
    }
    service.drain();
    let snap = service.stats();
    // Every observed outcome is counted: the counters never
    // under-report relative to what the callers were told.
    assert_eq!(snap.submitted, THREADS * PER_THREAD);
    assert_eq!(snap.admitted, ok_total);
    assert_eq!(snap.rejected_backpressure, rejected_total);
    assert_eq!(snap.rejected_invalid, 0);
    assert_eq!(snap.rejected_circuit, 0);
    assert_eq!(
        snap.submitted,
        snap.admitted + snap.rejected_backpressure,
        "no submit may vanish from the ledger"
    );
    assert_eq!(snap.completed + snap.failed, ok_total);
}
