//! Metric-accounting contract of the runtime: one mixed run — completions,
//! rejections, would-block refusals, blocking backoff, cancellations,
//! deadline expiries, cache hits, a multi-stage graph job,
//! durable-tier spills/promotions/rejections, and a session round trip —
//! leaves (a) the conservation identity
//! `submitted = completed + rejected + cancelled + expired` holding
//! exactly, and (b) no family in [`dwi_trace::runtime_metrics::ALL`]
//! silent in the Prometheus exposition.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use dwi_core::graph::{GraphPlan, GraphReport, KernelGraph};
use dwi_core::{
    ExecutionPlan, SeverityExpMix, SeverityScale, TruncatedNormalKernel, WindowAggregate,
};
use dwi_runtime::{
    named_backend, JobError, JobSpec, RemoteChannel, RemoteError, RemoteSpec, Runtime,
    RuntimeConfig, SharedKernel,
};
use dwi_trace::metrics::base_name;
use dwi_trace::{runtime_metrics as fam, Recorder};

fn kernel(quota: u64, seed: u32) -> SharedKernel {
    Arc::new(TruncatedNormalKernel::new(1.5, quota, seed))
}

/// Park the single worker until the sender delivers; returns after the
/// worker has provably started, so the queue is empty and bounded tests
/// are deterministic.
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

/// A remote pool whose connection is already dead: every dispatch fails,
/// requeueing the shard for local fallback and detaching the pool.
struct DeadRemote {
    tried: mpsc::Sender<()>,
}

impl RemoteChannel for DeadRemote {
    fn label(&self) -> &str {
        "dead"
    }

    fn run(
        &mut self,
        _spec: &RemoteSpec,
        _graph: &KernelGraph,
        _plan: &GraphPlan,
    ) -> Result<GraphReport, RemoteError> {
        self.tried.send(()).ok();
        Err(RemoteError::new("connection lost"))
    }
}

/// An in-process "remote" pool: runs the shard on the same backend a
/// local worker would, standing in for another host.
struct LoopbackRemote;

impl RemoteChannel for LoopbackRemote {
    fn label(&self) -> &str {
        "loopback"
    }

    fn run(
        &mut self,
        _spec: &RemoteSpec,
        graph: &KernelGraph,
        plan: &GraphPlan,
    ) -> Result<GraphReport, RemoteError> {
        Ok(named_backend("functional-decoupled").run(graph, plan))
    }
}

#[test]
fn mixed_run_conserves_jobs_and_touches_every_family() {
    let rec = Recorder::new();
    // A one-entry memory tier over a durable directory: every distinct
    // result evicts (and spills) the previous one, so the disk-tier
    // families go live from ordinary traffic.
    let disk_dir = std::env::temp_dir().join(format!("dwi_metrics_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let rt = Runtime::new(
        RuntimeConfig::new(1)
            .queue_bound(3)
            .cache_capacity(1)
            .disk_cache(disk_dir.clone())
            .trace(rec.sink()),
    );

    // --- Backpressure: reject, would-block, and blocking backoff. ---
    let (gate, release) = blocker(&rt);
    let queued: Vec<_> = (0..3u32)
        .map(|i| rt.submit(JobSpec::task(i, || ())).expect("within bound"))
        .collect();
    assert!(
        rt.submit(JobSpec::task(9, || ())).is_err(),
        "queue at bound rejects"
    );
    let mut session = rt.session(7);
    assert!(
        session.try_submit(JobSpec::task(7, || ())).is_err(),
        "try_submit would block at the bound"
    );
    // A blocking submission rides the backoff loop: let its first attempt
    // land (and get rejected) before the queue drains.
    std::thread::scope(|s| {
        let (ready_tx, ready_rx) = mpsc::channel();
        let rt = &rt;
        let rider = s.spawn(move || {
            ready_tx.send(()).unwrap();
            rt.submit_blocking(JobSpec::task(5, || ()))
        });
        ready_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        release.send(()).unwrap();
        let handle = rider.join().expect("rider thread");
        assert!(
            handle.total_backoff() > Duration::ZERO,
            "the rider must have slept out at least one rejection"
        );
        handle.wait().expect("backoff job completes");
    });
    gate.wait().expect("blocker completes");
    for h in queued {
        h.wait().expect("queued jobs complete after release");
    }

    // --- Cancellation and deadline expiry. ---
    let (gate, release) = blocker(&rt);
    let cancelled = rt
        .submit(JobSpec::kernel(0, kernel(256, 1), ExecutionPlan::new(4), 1))
        .expect("admitted");
    cancelled.cancel();
    let expired = rt
        .submit(
            JobSpec::kernel(0, kernel(256, 2), ExecutionPlan::new(4), 2)
                .deadline(Duration::from_millis(1)),
        )
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(5));
    release.send(()).unwrap();
    gate.wait().expect("blocker completes");
    assert_eq!(cancelled.wait().unwrap_err(), JobError::Cancelled);
    assert_eq!(expired.wait().unwrap_err(), JobError::Expired);

    // --- Cache miss then hit. ---
    let first = rt.run_kernel(kernel(64, 42), ExecutionPlan::new(2), 42);
    let second = rt.run_kernel(kernel(64, 42), ExecutionPlan::new(2), 42);
    assert!(Arc::ptr_eq(&first, &second), "second run is the cached Arc");

    // --- A multi-stage graph job (pipeline metric families). ---
    let graph = Arc::new(
        KernelGraph::pipeline(
            "metrics-credit",
            Arc::new(SeverityExpMix::credit_severity(32, 5)),
        )
        .then(Arc::new(WindowAggregate::new(4)))
        .then(Arc::new(SeverityScale::credit(5))),
    );
    let report = rt.run_graph(graph, GraphPlan::new(ExecutionPlan::new(2)), 5);
    assert_eq!(report.stages.len(), 3);

    // --- A repeat while the original is still queued: nothing is cached
    // yet, so the identical second submission is admitted and runs again,
    // delivering the same bytes. Both count as ordinary completions. ---
    let (gate, release) = blocker(&rt);
    let original = rt
        .submit(JobSpec::kernel(
            0,
            kernel(64, 300),
            ExecutionPlan::new(2),
            300,
        ))
        .expect("original admitted");
    let repeat = rt
        .submit(JobSpec::kernel(
            0,
            kernel(64, 300),
            ExecutionPlan::new(2),
            300,
        ))
        .expect("identical repeat admitted");
    release.send(()).unwrap();
    gate.wait().expect("blocker completes");
    let original = original.wait().expect("original completes").into_report();
    let repeat = repeat.wait().expect("repeat completes").into_report();
    assert_eq!(
        original.samples, repeat.samples,
        "a re-run repeats the bytes"
    );
    assert_eq!(original.cycles, repeat.cycles);
    assert_eq!(original.rejection.attempts, repeat.rejection.attempts);
    assert_eq!(original.rejection.accepted, repeat.rejection.accepted);

    // --- Remote dispatch, failure half: the channel dies on first use,
    // the shard requeues at the front, and the local pool finishes it —
    // conservation must hold with zero lost or duplicated jobs. ---
    let (gate, release) = blocker(&rt);
    let (tried_tx, tried_rx) = mpsc::channel();
    rt.attach_remote(Box::new(DeadRemote { tried: tried_tx }));
    let failed_over = rt
        .submit(
            JobSpec::kernel(0, kernel(64, 310), ExecutionPlan::new(2), 310)
                .remote(Arc::new(()) as RemoteSpec),
        )
        .expect("admitted");
    tried_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the dead channel saw the shard");
    release.send(()).unwrap();
    gate.wait().expect("blocker completes");
    failed_over
        .wait()
        .expect("requeued shard completed locally");

    // --- Remote dispatch, success half: with the local worker parked,
    // completion proves the attached pool executed the shard. ---
    let (gate, release) = blocker(&rt);
    rt.attach_remote(Box::new(LoopbackRemote));
    let remoted = rt
        .submit(
            JobSpec::kernel(0, kernel(64, 320), ExecutionPlan::new(2), 320)
                .remote(Arc::new(()) as RemoteSpec),
        )
        .expect("admitted");
    remoted.wait().expect("remote pool executed the shard");
    release.send(()).unwrap();
    gate.wait().expect("blocker completes");

    // --- Durable tier, promote half: seed 42's entry was long since
    // evicted from the one-slot memory tier (and spilled), so an
    // identical resubmission is a memory miss served from disk — an
    // overall cache hit to the submitter. ---
    let promoted = rt.run_kernel(kernel(64, 42), ExecutionPlan::new(2), 42);
    assert_eq!(
        format!("{promoted:?}"),
        format!("{first:?}"),
        "the disk promotion replays the original bytes"
    );

    // --- Durable tier, reject half: a garbage entry file under the key
    // a submission will look up must be discarded (and the job computed
    // fresh), never decoded. ---
    let poisoned_key = dwi_runtime::CacheKey::new(
        &KernelGraph::single(kernel(64, 555)),
        &GraphPlan::new(ExecutionPlan::new(2)),
        555,
    );
    std::fs::write(disk_dir.join(poisoned_key.file_name()), b"not a dwic entry")
        .expect("plant the corrupt entry");
    rt.run_kernel(kernel(64, 555), ExecutionPlan::new(2), 555);

    // --- A session round trip (in-flight / completion-queue gauges). ---
    let ticket = session.submit_blocking(JobSpec::kernel(
        7,
        kernel(64, 77),
        ExecutionPlan::new(2),
        77,
    ));
    let done = loop {
        let mut got = session.wait_any(Duration::from_secs(60));
        if let Some(d) = got.pop() {
            break d;
        }
    };
    assert_eq!(done.ticket, ticket);
    done.result.expect("session job completes");
    drop(session);

    // Join the workers so every terminal counter increment has landed.
    drop(rt);

    let m = rec.metrics();
    let total = |name: &str| -> u64 {
        m.counters()
            .iter()
            .filter(|(k, _)| base_name(k) == name)
            .map(|(_, v)| *v)
            .sum()
    };
    let submitted = total(fam::JOBS_SUBMITTED);
    let completed = total(fam::JOBS_COMPLETED);
    let rejected = total(fam::JOBS_REJECTED);
    let cancelled = total(fam::JOBS_CANCELLED);
    let expired = total(fam::JOBS_EXPIRED);
    assert!(submitted > 0 && completed > 0, "the run did real work");
    assert!(rejected >= 2, "explicit + would-block + rider rejections");
    assert_eq!(cancelled, 1);
    assert_eq!(expired, 1);
    assert_eq!(
        submitted,
        completed + rejected + cancelled + expired,
        "conservation identity violated: {submitted} submitted vs \
         {completed} completed + {rejected} rejected + {cancelled} \
         cancelled + {expired} expired"
    );
    // One memory hit (the back-to-back seed-42 pair) plus one disk
    // promotion (the post-eviction resubmission).
    assert_eq!(total(fam::CACHE_HITS), 2);
    assert_eq!(total(fam::CACHE_DISK_HITS), 1);
    assert_eq!(total(fam::CACHE_DISK_REJECTS), 1, "the planted garbage");
    assert!(
        total(fam::CACHE_DISK_SPILLS) >= 2,
        "the one-slot memory tier spilled its evictions"
    );
    assert!(
        total(fam::CACHE_DISK_MISSES) >= 1,
        "cold lookups consulted the directory"
    );
    assert_eq!(total(fam::REMOTE_DISCONNECTS), 1);
    assert_eq!(total(fam::REMOTE_REQUEUED), 1);
    assert_eq!(total(fam::REMOTE_SHARDS_EXECUTED), 1);

    let prom = rec.prometheus();
    for family in fam::ALL {
        assert!(
            prom.contains(family),
            "{family} missing from the exposition after a mixed run:\n{prom}"
        );
    }
    let _ = std::fs::remove_dir_all(&disk_dir);
}
