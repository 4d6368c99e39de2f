//! The runtime's graph spine, end to end: multi-stage [`KernelGraph`]
//! jobs submitted through the pool must shard bit-identically to a
//! monolithic direct execution, share one result-cache namespace with the
//! kernel path (a single-node graph *is* a kernel job), split their
//! timeline's execute phase into stage sub-spans that still telescope
//! exactly to end-to-end, and report per-edge occupancy from the
//! dataflow model.

use std::sync::Arc;
use std::time::Duration;

use dwi_core::graph::{GraphPlan, KernelGraph};
use dwi_core::{
    credit_pipeline, Backend, ExecutionPlan, FunctionalDecoupled, SeverityExpMix, SeverityScale,
    TruncatedNormalKernel, WindowAggregate,
};
use dwi_rng::KernelConfig;
use dwi_runtime::{JobOutput, JobSpec, Runtime, RuntimeConfig};
use dwi_trace::metrics::parse_prometheus;
use dwi_trace::{runtime_metrics as fam, Recorder};

fn credit_graph(quota: u64, seed: u32) -> Arc<KernelGraph> {
    Arc::new(
        KernelGraph::pipeline(
            "credit-pipeline",
            Arc::new(SeverityExpMix::credit_severity(quota, seed)),
        )
        .then(Arc::new(WindowAggregate::new(4)))
        .then(Arc::new(SeverityScale::credit(seed))),
    )
}

#[test]
fn sharded_graph_job_matches_monolithic_execution() {
    // Pool path, 4-way shard split vs a direct single-shard run of the
    // same graph: per-stage samples must be bit-identical.
    let rt = Runtime::new(RuntimeConfig::new(4).cache_capacity(0));
    let plan = GraphPlan::new(ExecutionPlan::new(8));
    let pooled = rt
        .submit(JobSpec::graph(0, credit_graph(64, 3), plan.clone(), 3).shards(4))
        .expect("admitted")
        .wait()
        .expect("completes")
        .into_graph_report();
    let direct = FunctionalDecoupled.run(&credit_graph(64, 3), &plan);
    assert_eq!(pooled.stages.len(), direct.stages.len());
    for (k, (p, d)) in pooled.stages.iter().zip(&direct.stages).enumerate() {
        assert_eq!(p.samples, d.samples, "stage {k} diverged across sharding");
    }
    assert_eq!(pooled.final_samples(), direct.final_samples());
}

#[test]
fn single_node_graph_shares_the_kernel_cache_namespace() {
    // A kernel submission and the equivalent one-node graph submission
    // produce the same cache key: the second is served the first's Arc.
    let rt = Runtime::new(RuntimeConfig::new(2));
    let kernel = Arc::new(TruncatedNormalKernel::new(1.5, 64, 9));
    let first = rt.run_kernel(kernel.clone(), ExecutionPlan::new(2), 9);
    let out = rt
        .submit(JobSpec::graph(
            0,
            Arc::new(KernelGraph::single(kernel)),
            GraphPlan::new(ExecutionPlan::new(2)),
            9,
        ))
        .expect("admitted")
        .wait()
        .expect("completes");
    let JobOutput::Kernel(second) = out else {
        panic!("single-node graphs deliver the kernel output, got {out:?}");
    };
    assert!(
        Arc::ptr_eq(&first, &second),
        "one-node graph missed the kernel path's cache entry"
    );
}

#[test]
fn graph_results_are_cached_and_edge_depth_is_part_of_the_key() {
    let rt = Runtime::new(RuntimeConfig::new(2));
    let plan = GraphPlan::new(ExecutionPlan::new(2));
    let first = rt.run_graph(credit_graph(32, 7), plan.clone(), 7);
    let second = rt.run_graph(credit_graph(32, 7), plan.clone(), 7);
    assert!(Arc::ptr_eq(&first, &second), "repeat run is the cached Arc");
    // A different edge depth is a different execution plan: cache miss.
    let deeper = rt.run_graph(credit_graph(32, 7), plan.edge_depth(256), 7);
    assert!(
        !Arc::ptr_eq(&first, &deeper),
        "edge depth must key the cache"
    );
    assert_eq!(
        first.final_samples(),
        deeper.final_samples(),
        "depth changes scheduling, never values"
    );
}

#[test]
fn stage_sub_spans_telescope_exactly_to_e2e() {
    let rt = Runtime::new(RuntimeConfig::new(2).cache_capacity(0));
    let handle = rt
        .submit(JobSpec::graph(
            0,
            credit_graph(64, 11),
            GraphPlan::new(ExecutionPlan::new(4)),
            11,
        ))
        .expect("admitted");
    handle.wait().expect("completes");
    let tl = rt
        .flight_dump()
        .into_iter()
        .find(|t| t.phases().iter().any(|(n, _)| n.starts_with("stage")))
        .expect("the graph job's timeline carries stage sub-spans");
    let phases = tl.phases();
    let stage_names: Vec<_> = phases
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| n.starts_with("stage"))
        .collect();
    assert_eq!(stage_names, ["stage0", "stage1", "stage2"]);
    assert!(
        !phases.iter().any(|(n, _)| *n == "execute"),
        "stage sub-spans replace the execute phase, not augment it"
    );
    let sum: Duration = phases.iter().map(|(_, d)| *d).sum();
    assert_eq!(sum, tl.e2e().expect("terminal"), "telescoping broke");
}

#[test]
fn edge_high_water_metric_reports_modeled_occupancy() {
    // One work-item through the gamma → window-8 → scale pipeline at edge
    // depth 8: the model fills the first edge to its depth (the window
    // stage drains only once per eight tokens) while the second edge
    // holds one token at a time.
    let rec = Recorder::new();
    let rt = Runtime::new(RuntimeConfig::new(1).trace(rec.sink()));
    let kcfg = KernelConfig {
        limit_main: 512,
        limit_sec: 2,
        seed: 7,
        ..KernelConfig::default()
    };
    let report = rt.run_graph(
        Arc::new(credit_pipeline(kcfg, 8, 7)),
        GraphPlan::new(ExecutionPlan::new(1)).edge_depth(8),
        7,
    );
    let modeled = &report
        .dataflow
        .as_ref()
        .expect("multi-stage")
        .edge_high_water;
    assert_eq!(modeled[0], 8, "the first edge rides its depth");
    drop(rt);
    let samples = parse_prometheus(&rec.prometheus()).expect("valid exposition");
    let sample = |key: String| {
        samples
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("{key} missing"))
            .1
    };
    let name = fam::GRAPH_EDGE_HIGH_WATER;
    // Summaries are exact below five observations: the 0.99 quantile of
    // one job's two edges is their maximum.
    assert_eq!(sample(format!("{name}_count")), modeled.len() as f64);
    assert_eq!(
        sample(format!("{name}{{quantile=\"0.99\"}}")),
        modeled[0] as f64
    );
    assert_eq!(
        sample(format!("{name}_sum")),
        modeled.iter().sum::<usize>() as f64
    );
}
