//! End-to-end service tests: warm-restart store hits across service
//! instances, and the full socket round trip (client → framed wire →
//! server → scheduler → runtime → store → client).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use maeri::{MaeriConfig, VnPolicy};
use maeri_dnn::ConvLayer;
use maeri_runtime::{Runtime, SimJob};
use maeri_serve::server::Server;
use maeri_serve::service::{ServeConfig, Service};
use maeri_serve::wire::{Client, FabricSpec, JobSpec};
use maeri_telemetry::json::JsonValue;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_store(tag: &str) -> PathBuf {
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "maeri-service-test-{}-{unique}-{tag}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn conv_job(name: &str) -> SimJob {
    SimJob::dense_conv(
        MaeriConfig::paper_64(),
        ConvLayer::new(name, 3, 16, 16, 8, 3, 3, 1, 1),
        VnPolicy::Auto,
    )
}

#[test]
fn warm_restart_answers_from_the_store() {
    let path = temp_store("warm");
    let config = ServeConfig {
        workers: 1,
        per_tenant_depth: 16,
        store_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let first_result = {
        let service =
            Service::start(config.clone(), Arc::new(Runtime::new(1))).expect("start cold");
        let id = service.submit("t0", conv_job("warm_conv")).expect("submit");
        let result = service.wait(id).expect("wait");
        assert!(result.ok);
        assert_eq!(service.stats().store_hits, 0, "cold run simulates");
        result
        // Drop = kill: no store handshake.
    };
    // A brand-new service (fresh runtime, empty in-memory cache) on
    // the same log must answer the repeat without simulating.
    let service = Service::start(config, Arc::new(Runtime::new(1))).expect("start warm");
    let id = service
        .submit("t0", conv_job("warm_conv"))
        .expect("resubmit");
    let ticket = service.status(id).expect("ticket");
    assert_eq!(
        ticket.status,
        maeri_serve::service::JobStatus::Done,
        "store hits complete at admission, before any worker runs"
    );
    let result = service.wait(id).expect("stored result");
    assert_eq!(result, first_result, "byte-identical canonical output");
    let snap = service.stats();
    assert_eq!(snap.store_hits, 1);
    assert_eq!(snap.cache_misses, 0, "the runtime never saw the job");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn socket_round_trip_submit_poll_result_stats() {
    let path = temp_store("socket");
    let service = Arc::new(
        Service::start(
            ServeConfig {
                workers: 2,
                per_tenant_depth: 32,
                store_path: Some(path.clone()),
                ..ServeConfig::default()
            },
            Arc::new(Runtime::new(1)),
        )
        .expect("start service"),
    );
    let mut server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.local_addr()).expect("connect");

    let spec = JobSpec::Conv {
        layer: ConvLayer::new("sock_conv", 3, 16, 16, 8, 3, 3, 1, 1),
        fabric: FabricSpec::default(),
    };
    let id = client
        .submit("wire-tenant", &spec)
        .expect("transport")
        .expect("admitted");
    // Poll until the worker publishes the result.
    let mut status = client.poll(id).expect("poll");
    while status == "queued" || status == "running" {
        std::thread::sleep(std::time::Duration::from_millis(2));
        status = client.poll(id).expect("poll again");
    }
    assert_eq!(status, "done");
    let response = client
        .request(&maeri_serve::wire::Request::Fetch { id })
        .expect("fetch");
    let result = response.get("result").expect("result object");
    assert_eq!(
        result.get("kind").and_then(|v| v.as_str()),
        Some("run"),
        "conv jobs produce run statistics"
    );
    assert!(
        result
            .get("cycles")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0
    );

    // A duplicate submit is answered straight from the store.
    let dup = client
        .submit("wire-tenant", &spec)
        .expect("transport")
        .expect("admitted");
    assert_eq!(client.poll(dup).expect("poll dup"), "done");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("submitted").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(stats.get("store_hits").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        stats.get("store_entries").and_then(JsonValue::as_u64),
        Some(1)
    );

    // An unparseable job is a structured wire error, not a dropped
    // connection.
    let bad = client
        .submit(
            "wire-tenant",
            &JobSpec::Conv {
                layer: ConvLayer::new("zero_stride", 3, 16, 16, 8, 3, 3, 1, 1),
                fabric: FabricSpec {
                    num_ms: 3, // not a power of two >= 4: config build fails
                    dist_bw: 8,
                    collect_bw: 8,
                },
            },
        )
        .expect("transport");
    let err = bad.expect_err("bad fabric must be rejected");
    assert_eq!(err.code, "bad_request");

    server.stop();
    let _ = std::fs::remove_file(&path);
}
