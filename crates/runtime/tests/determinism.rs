//! Integration tests for the runtime's core contract: a batch run with
//! one worker is byte-identical to the same batch with many workers,
//! and one panicking job never poisons the rest.

use maeri::{MaeriConfig, VnPolicy};
use maeri_dnn::{zoo, FcLayer};
use maeri_runtime::{canonical_result_text, JobError, Runtime, SimJob};

/// A mixed CONV / FC / sparse / fused / baseline / trace batch — every
/// design the runtime schedules, closed-form and clocked.
fn mixed_jobs() -> Vec<SimJob> {
    let cfg = MaeriConfig::paper_64();
    let quarter = MaeriConfig::builder(64)
        .distribution_bandwidth(2)
        .collection_bandwidth(2)
        .build()
        .expect("valid configuration");
    // Mid-sized stand-in for VGG conv: big enough to fold and to make
    // sparsity interesting, small enough to keep the suite quick.
    let conv = maeri_dnn::ConvLayer::new("conv_mid", 32, 14, 14, 32, 3, 3, 1, 1);
    let small = maeri_dnn::ConvLayer::new("small", 8, 14, 14, 16, 3, 3, 1, 1);
    let alexnet = zoo::alexnet();
    let chain: Vec<maeri_dnn::ConvLayer> = alexnet
        .conv_layers()
        .iter()
        .take(3)
        .map(|l| (*l).clone())
        .collect();
    vec![
        SimJob::dense_conv(cfg, conv.clone(), VnPolicy::Auto),
        SimJob::dense_conv(cfg, small.clone(), VnPolicy::FullFilter),
        SimJob::dense_conv(quarter, small.clone(), VnPolicy::ChannelsPerVn(2)),
        SimJob::sparse_conv(cfg, conv.clone(), 0.3, 3, 42),
        SimJob::sparse_conv(cfg, conv.clone(), 0.5, 3, 42),
        SimJob::sparse_conv(cfg, conv.clone(), 0.5, 3, 7),
        SimJob::fused_chain(cfg, chain.clone()),
        SimJob::ClusterFusedChain {
            clusters: 4,
            cluster_size: 16,
            bus_bandwidth: 8,
            layers: chain,
        },
        SimJob::Fc {
            cfg,
            layer: FcLayer::new("fc6", 9216, 4096),
        },
        SimJob::systolic_conv(8, 8, 8, conv.clone()),
        SimJob::row_stationary_conv(8, 8, 8, conv.clone()),
        SimJob::ClusterSparseConv {
            clusters: 4,
            cluster_size: 16,
            bus_bandwidth: 8,
            layer: conv.clone(),
            zero_fraction: 0.4,
            channel_tile: 3,
            mask_seed: 42,
        },
        SimJob::AnalyticSystolic {
            layer: conv.clone(),
            rows: 256,
            cols: 256,
        },
        SimJob::AnalyticMaeri {
            layer: conv.clone(),
            num_ms: 64,
            dist_bw: 8,
        },
        SimJob::telemetry_conv(cfg, small.clone(), VnPolicy::Auto),
        // An unmappable point: channel tile larger than the channels.
        SimJob::sparse_conv(cfg, small, 0.0, 99, 1),
    ]
}

/// Serializes a whole batch result to one canonical string.
fn canonical_batch(results: &[maeri_runtime::JobResult]) -> String {
    results
        .iter()
        .map(canonical_result_text)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn one_worker_and_many_workers_are_byte_identical() {
    let jobs = mixed_jobs();
    let serial = canonical_batch(&Runtime::new(1).run_batch(&jobs));
    for workers in [2, 4, 8] {
        let parallel = canonical_batch(&Runtime::new(workers).run_batch(&jobs));
        assert_eq!(
            serial, parallel,
            "batch diverged between 1 and {workers} workers"
        );
    }
    // And a warm cache changes nothing either.
    let runtime = Runtime::new(4);
    let cold = canonical_batch(&runtime.run_batch(&jobs));
    let warm = canonical_batch(&runtime.run_batch(&jobs));
    assert_eq!(serial, cold);
    assert_eq!(cold, warm);
    assert_eq!(runtime.metrics().cache_hits, jobs.len() as u64);
}

#[test]
fn panicking_job_yields_job_error_while_the_rest_complete() {
    let runtime = Runtime::new(4);
    let mut jobs = mixed_jobs();
    let poison_index = 3;
    jobs.insert(poison_index, SimJob::poison("injected fault"));
    let results = runtime.run_batch(&jobs);
    assert_eq!(results.len(), jobs.len());
    for (index, result) in results.iter().enumerate() {
        if index == poison_index {
            assert!(
                matches!(result, Err(JobError::Panicked(m)) if m == "injected fault"),
                "poisoned job must fail with its panic message, got {result:?}"
            );
        } else if matches!(
            jobs[index],
            SimJob::SparseConv {
                channel_tile: 99,
                ..
            }
        ) {
            assert!(
                matches!(result, Err(JobError::InvalidMapping(_))),
                "unmappable point must be rejected by the pre-flight verifier, got {result:?}"
            );
        } else {
            assert!(result.is_ok(), "job {index} failed: {result:?}");
        }
    }
    let snapshot = runtime.metrics();
    assert_eq!(snapshot.failed, 2, "one panic + one static rejection");
    assert_eq!(snapshot.submitted, jobs.len() as u64);
}

#[test]
fn panicked_jobs_are_rerun_not_cached() {
    let runtime = Runtime::new(2);
    let poison = SimJob::poison("always fails");
    let first = runtime.run_batch(std::slice::from_ref(&poison));
    let second = runtime.run_batch(std::slice::from_ref(&poison));
    assert!(matches!(&first[0], Err(JobError::Panicked(_))));
    assert!(matches!(&second[0], Err(JobError::Panicked(_))));
    // Both requests executed the job (no cache hit for panics)...
    assert_eq!(runtime.metrics().executed, 2);
    // ...but deterministic sim errors ARE cached.
    let bad = SimJob::sparse_conv(
        MaeriConfig::paper_64(),
        maeri_dnn::ConvLayer::new("c", 4, 8, 8, 4, 3, 3, 1, 1),
        0.0,
        99,
        1,
    );
    runtime.run_batch(std::slice::from_ref(&bad));
    runtime.run_batch(std::slice::from_ref(&bad));
    assert_eq!(runtime.metrics().cache_hits, 1);
}
