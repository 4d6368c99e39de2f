//! Behavioural contract of the multi-tenant runtime: backpressure is a
//! rejection (never a block or a panic), cancellation and deadlines free
//! worker capacity, the cache serves repeats (a repeat submitted before
//! the first run finishes runs again), fairness interleaves
//! clients, and sharded execution over the pool is bit-identical to a
//! monolithic run on every backend.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use dwi_core::graph::{GraphPlan, GraphReport, KernelGraph};
use dwi_core::{Backend, ExecutionPlan, FunctionalDecoupled, RunReport, TruncatedNormalKernel};
use dwi_runtime::{
    named_backend, JobError, JobSpec, Priority, Runtime, RuntimeConfig, SharedKernel,
};
use dwi_trace::Recorder;

fn kernel(quota: u64, seed: u32) -> SharedKernel {
    Arc::new(TruncatedNormalKernel::new(1.5, quota, seed))
}

/// A task that parks a worker until the returned sender delivers — the
/// tool for building deterministic backlog. Returns only once the worker
/// has actually started it, so the admission queue is provably empty.
fn blocker(rt: &Runtime) -> (dwi_runtime::JobHandle, mpsc::Sender<()>) {
    let (release_tx, release_rx) = mpsc::channel();
    let (started_tx, started_rx) = mpsc::channel();
    let handle = rt
        .submit(JobSpec::task(99, move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
        }))
        .expect("blocker admitted");
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a worker picked up the blocker");
    (handle, release_tx)
}

#[test]
fn sharded_execution_matches_monolithic_on_every_backend() {
    for name in [
        "functional-decoupled",
        "lockstep-coupled",
        "ndrange",
        "cycle-sim",
        "simt-trace",
    ] {
        let monolithic = named_backend(name).execute(
            TruncatedNormalKernel::new(1.5, 512, 7).as_kernel(),
            &ExecutionPlan::new(8),
        );
        let rt = Runtime::with_backend_factory(RuntimeConfig::new(3), |_| named_backend(name));
        let sharded = rt.run_kernel(kernel(512, 7), ExecutionPlan::new(8), 7);
        assert_eq!(sharded.backend, monolithic.backend);
        assert_eq!(sharded.samples, monolithic.samples, "{name}: values differ");
        assert_eq!(sharded.cycles, monolithic.cycles, "{name}: cycles differ");
        assert_eq!(sharded.iterations, monolithic.iterations);
    }
}

#[test]
fn backpressure_rejects_with_retry_hint_and_recovers() {
    let rt = Runtime::new(RuntimeConfig::new(1).queue_bound(3).cache_capacity(0));
    let (gate, tx) = blocker(&rt);
    // The worker is busy and the queue empty: B=3 queued jobs admitted,
    // the (B+1)-th rejected.
    let queued: Vec<_> = (0..3u32)
        .map(|i| {
            rt.submit(JobSpec::kernel(
                i,
                kernel(64, i),
                ExecutionPlan::new(2),
                i as u64,
            ))
            .expect("within bound")
        })
        .collect();
    let overflow = rt.submit(JobSpec::task(9, || ()));
    let rejected = overflow.err().expect("queue at bound must reject");
    assert!(
        rejected.retry_after >= Duration::from_millis(1),
        "retry hint {:?} too small",
        rejected.retry_after
    );
    // Release the worker: everything queued completes, and new
    // submissions are admitted again.
    tx.send(()).unwrap();
    gate.wait().expect("blocker completes");
    for h in queued {
        h.wait().expect("queued jobs complete after release");
    }
    rt.submit(JobSpec::task(9, || ()))
        .expect("queue drained: admission resumes")
        .wait()
        .expect("runs");
}

#[test]
fn cancelled_job_fails_fast_and_frees_the_worker() {
    let rt = Runtime::new(RuntimeConfig::new(1).cache_capacity(0));
    let (gate, tx) = blocker(&rt);
    let doomed = rt
        .submit(JobSpec::kernel(
            0,
            kernel(4096, 3),
            ExecutionPlan::new(8),
            3,
        ))
        .expect("admitted");
    doomed.cancel();
    let survivor = rt
        .submit(JobSpec::kernel(1, kernel(64, 4), ExecutionPlan::new(2), 4))
        .expect("admitted");
    tx.send(()).unwrap();
    gate.wait().expect("blocker completes");
    let err = doomed.wait().expect_err("cancelled job must not complete");
    assert_eq!(err, JobError::Cancelled);
    // The worker was freed: the job behind the cancelled one completes.
    let report = survivor.wait().expect("survivor completes").into_report();
    assert_eq!(report.workitems, 2);
}

#[test]
fn deadline_expiry_fails_the_job_and_frees_the_worker() {
    let rt = Runtime::new(RuntimeConfig::new(1).cache_capacity(0));
    let (gate, tx) = blocker(&rt);
    let doomed = rt
        .submit(
            JobSpec::kernel(0, kernel(4096, 5), ExecutionPlan::new(8), 5)
                .deadline(Duration::from_millis(1)),
        )
        .expect("admitted");
    let survivor = rt
        .submit(JobSpec::kernel(1, kernel(64, 6), ExecutionPlan::new(2), 6))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(5)); // let the deadline lapse
    tx.send(()).unwrap();
    gate.wait().expect("blocker completes");
    assert_eq!(
        doomed.wait().expect_err("deadline must expire"),
        JobError::Expired
    );
    survivor.wait().expect("worker freed for the next job");
}

#[test]
fn result_cache_serves_repeats_without_reexecution() {
    let rec = Recorder::new();
    let rt = Runtime::new(RuntimeConfig::new(2).trace(rec.sink()));
    let first = rt.run_kernel(kernel(128, 11), ExecutionPlan::new(4), 11);
    let second = rt.run_kernel(kernel(128, 11), ExecutionPlan::new(4), 11);
    assert!(
        Arc::ptr_eq(&first, &second),
        "second run must be the cached Arc"
    );
    // A different seed is a different key.
    let third = rt.run_kernel(kernel(128, 12), ExecutionPlan::new(4), 12);
    assert!(!Arc::ptr_eq(&first, &third));
    let m = rec.metrics();
    assert_eq!(m.counter_value("dwi_runtime_cache_hits_total"), Some(1));
    assert_eq!(m.counter_value("dwi_runtime_cache_misses_total"), Some(2));
}

/// [`FunctionalDecoupled`] that counts its graph runs — one per shard.
struct CountingBackend(Arc<AtomicUsize>);

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        FunctionalDecoupled.name()
    }

    fn execute(&self, kernel: &dyn dwi_core::WorkItemKernel, plan: &ExecutionPlan) -> RunReport {
        FunctionalDecoupled.execute(kernel, plan)
    }

    fn run(&self, graph: &KernelGraph, plan: &GraphPlan) -> GraphReport {
        self.0.fetch_add(1, Ordering::Relaxed);
        FunctionalDecoupled.run(graph, plan)
    }
}

#[test]
fn concurrent_identical_jobs_each_run() {
    // Two identical jobs queued behind a blocker: neither finds a cache
    // entry at submission, so each runs on the backend — and, the
    // engines being deterministic per seed, both deliver the same bytes.
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = runs.clone();
    let rt = Runtime::with_backend_factory(RuntimeConfig::new(1), move |_| {
        Box::new(CountingBackend(counter.clone()))
    });
    let (gate, release) = blocker(&rt);
    let submit = || {
        rt.submit(JobSpec::kernel(0, kernel(64, 5), ExecutionPlan::new(2), 5))
            .expect("admitted")
    };
    let (a, b) = (submit(), submit());
    release.send(()).unwrap();
    gate.wait().expect("blocker completes");
    let a = a.wait().expect("first completes").into_report();
    let b = b.wait().expect("second completes").into_report();
    assert_eq!(runs.load(Ordering::Relaxed), 2, "one backend run per job");
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn clients_share_a_lane_round_robin() {
    let rt = Runtime::new(RuntimeConfig::new(1).cache_capacity(0));
    let (gate, tx) = blocker(&rt);
    let (done_tx, done_rx) = mpsc::channel();
    // Client 0 floods first; client 1 submits after. Fairness requires
    // completion to alternate 0,1,0,1,… rather than draining client 0.
    let mut handles = Vec::new();
    for client in [0u32, 1] {
        for _ in 0..3 {
            let done = done_tx.clone();
            handles.push(
                rt.submit(JobSpec::task(client, move || {
                    done.send(client).unwrap();
                }))
                .expect("admitted"),
            );
        }
    }
    tx.send(()).unwrap();
    gate.wait().expect("blocker completes");
    for h in handles {
        h.wait().expect("all fair-share jobs complete");
    }
    let order: Vec<u32> = done_rx.try_iter().collect();
    assert_eq!(order, vec![0, 1, 0, 1, 0, 1], "round-robin violated");
}

#[test]
fn priority_lanes_are_strict() {
    let rt = Runtime::new(RuntimeConfig::new(1).cache_capacity(0));
    let (gate, tx) = blocker(&rt);
    let (done_tx, done_rx) = mpsc::channel();
    let mut handles = Vec::new();
    for (tag, priority) in [
        ("low", Priority::Low),
        ("normal", Priority::Normal),
        ("high", Priority::High),
    ] {
        let done = done_tx.clone();
        handles.push(
            rt.submit(
                JobSpec::task(0, move || {
                    done.send(tag).unwrap();
                })
                .priority(priority),
            )
            .expect("admitted"),
        );
    }
    tx.send(()).unwrap();
    gate.wait().expect("blocker completes");
    for h in handles {
        h.wait().expect("all complete");
    }
    let order: Vec<&str> = done_rx.try_iter().collect();
    assert_eq!(order, vec!["high", "normal", "low"]);
}

#[test]
fn runtime_metrics_reach_the_prometheus_exporter() {
    let rec = Recorder::new();
    let rt = Runtime::new(RuntimeConfig::new(2).trace(rec.sink()));
    for seed in 0..4u32 {
        rt.run_kernel(kernel(64, seed), ExecutionPlan::new(4), seed as u64);
    }
    drop(rt);
    let prom = rec.prometheus();
    for family in [
        "dwi_runtime_queue_depth",
        "dwi_runtime_jobs_submitted_total",
        "dwi_runtime_jobs_completed_total",
        "dwi_runtime_shard_latency_seconds",
        "dwi_runtime_worker_utilization",
    ] {
        assert!(
            prom.contains(family),
            "{family} missing from exposition:\n{prom}"
        );
    }
}

#[test]
fn dropping_the_runtime_fails_unreached_jobs() {
    let rt = Runtime::new(RuntimeConfig::new(1).cache_capacity(0));
    let (_gate, tx) = blocker(&rt);
    let stranded = rt
        .submit(JobSpec::kernel(0, kernel(64, 8), ExecutionPlan::new(2), 8))
        .expect("admitted");
    tx.send(()).unwrap();
    drop(rt);
    // Either the worker got to it before shutdown, or it was failed as
    // cancelled — it must not hang.
    match stranded.wait() {
        Ok(_) | Err(JobError::Cancelled) => {}
        Err(e) => panic!("unexpected terminal state {e:?}"),
    }
}

/// Helper: view a concrete kernel as the trait object `execute` expects.
trait AsKernel {
    fn as_kernel(&self) -> &dyn dwi_core::WorkItemKernel;
}

impl AsKernel for TruncatedNormalKernel {
    fn as_kernel(&self) -> &dyn dwi_core::WorkItemKernel {
        self
    }
}
