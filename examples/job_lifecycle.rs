//! Job lifecycle attribution in action: run a small mixed workload, dump
//! the flight recorder, and print where each job's time went — phase by
//! phase, with the telescoping identity (phases sum exactly to the
//! end-to-end latency) checked on every timeline.
//!
//! Run with: `cargo run --example job_lifecycle`

use std::sync::Arc;
use std::time::Duration;

use decoupled_workitems::core::{ExecutionPlan, TruncatedNormalKernel};
use decoupled_workitems::runtime::{JobOutcome, JobSpec, Runtime, RuntimeConfig, SharedKernel};
use decoupled_workitems::trace::Recorder;

fn kernel(quota: u64, seed: u32) -> SharedKernel {
    Arc::new(TruncatedNormalKernel::new(1.5, quota, seed))
}

fn main() {
    let rec = Recorder::new();
    let rt = Runtime::new(RuntimeConfig::new(2).flight_capacity(64).trace(rec.sink()));

    // A mixed load: distinct kernel jobs, one exact repeat to exercise
    // the cache-hit fast path.
    let handles: Vec<_> = (0..8u32)
        .map(|seed| {
            rt.submit(JobSpec::kernel(
                seed % 3, // three tenants
                kernel(2048, seed),
                ExecutionPlan::new(4),
                seed as u64,
            ))
            .expect("queue has room")
        })
        .collect();
    for h in handles {
        h.wait().expect("no deadlines set");
    }
    rt.run_kernel(kernel(2048, 0), ExecutionPlan::new(4), 0); // cache hit

    // The flight recorder holds the last N closed timelines even with
    // tracing off; here tracing is on, so the same walk also landed in
    // `dwi_runtime_phase_seconds` and on per-job Chrome tracks.
    let dump = rt.flight_dump();
    println!("flight recorder: {} closed timelines\n", dump.len());
    for tl in &dump {
        let e2e = tl.e2e().expect("closed");
        let phases: Vec<String> = tl
            .phases()
            .iter()
            .map(|(p, d)| format!("{p} {:.1}us", d.as_secs_f64() * 1e6))
            .collect();
        let sum: Duration = tl.phases().iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, e2e, "telescoping identity violated");
        println!(
            "job {:>2} [{}] client {} shards {} -> {:.1}us = {}",
            tl.job_id,
            tl.outcome.label(),
            tl.client,
            tl.shards,
            e2e.as_secs_f64() * 1e6,
            phases.join(" + ")
        );
    }

    let hits = dump
        .iter()
        .filter(|t| t.outcome == JobOutcome::CacheHit)
        .count();
    println!("\n{hits} cache hit(s)");
    drop(rt);
    assert!(
        rec.prometheus().contains("dwi_runtime_phase_seconds"),
        "phase histograms exported"
    );
    println!("phase histograms exported to the Prometheus registry");
}
