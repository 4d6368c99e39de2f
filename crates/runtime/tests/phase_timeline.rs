//! The telescoping contract of [`JobTimeline`], end to end through the
//! live scheduler: on every backend, and on the cache-hit fast path,
//! each closed timeline's phase durations sum to its
//! end-to-end latency (well within the 5% consistency bound the profile
//! report enforces — the walk is exact, so the tolerance only absorbs
//! float rounding).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use dwi_core::{ExecutionPlan, TruncatedNormalKernel};
use dwi_runtime::{
    named_backend, JobOutcome, JobSpec, JobTimeline, Runtime, RuntimeConfig, SharedKernel,
};

fn kernel(quota: u64, seed: u32) -> SharedKernel {
    Arc::new(TruncatedNormalKernel::new(1.5, quota, seed))
}

/// Phase sum vs e2e, as a relative deviation (the profile's 5% bound).
fn deviation(tl: &JobTimeline) -> f64 {
    let e2e = tl.e2e().expect("closed timeline").as_secs_f64();
    let sum: f64 = tl.phases().iter().map(|(_, d)| d.as_secs_f64()).sum();
    if e2e <= 0.0 {
        return 0.0;
    }
    (sum - e2e).abs() / e2e
}

fn assert_telescopes(tl: &JobTimeline, context: &str) {
    let dev = deviation(tl);
    assert!(
        dev < 0.05,
        "{context}: job {} ({:?}) phases sum {dev:.4} off its e2e",
        tl.job_id,
        tl.outcome
    );
}

#[test]
fn phases_sum_to_e2e_on_every_backend() {
    for name in [
        "functional-decoupled",
        "lockstep-coupled",
        "ndrange",
        "cycle-sim",
        "simt-trace",
    ] {
        let rt = Runtime::with_backend_factory(RuntimeConfig::new(2).flight_capacity(64), |_| {
            named_backend(name)
        });
        for seed in 0..4u32 {
            rt.run_kernel(kernel(128, seed), ExecutionPlan::new(4), seed as u64);
        }
        // Repeat seed 0: the cache-hit fast path closes a timeline too.
        rt.run_kernel(kernel(128, 0), ExecutionPlan::new(4), 0);
        let dump = rt.flight_dump();
        assert!(dump.len() >= 5, "{name}: flight recorder holds the run");
        let mut hits = 0;
        for tl in &dump {
            assert_telescopes(tl, name);
            if tl.outcome == JobOutcome::CacheHit {
                hits += 1;
                assert_eq!(tl.phases().len(), 1, "{name}: cache hit is one phase");
                assert_eq!(tl.phases()[0].0, "cache_lookup");
            } else {
                assert!(
                    tl.phases().iter().any(|(p, _)| *p == "execute"),
                    "{name}: pool job carries an execute phase"
                );
                assert!(tl.shards > 0, "{name}: dispatch recorded its shard count");
            }
        }
        assert_eq!(hits, 1, "{name}: exactly one cache-served timeline");
    }
}

#[test]
fn session_completions_carry_the_closed_timeline() {
    let rt = Runtime::new(RuntimeConfig::new(2).flight_capacity(16));
    let mut session = rt.session(3);
    let ticket =
        session.submit_blocking(JobSpec::kernel(3, kernel(64, 9), ExecutionPlan::new(2), 9));
    let done = loop {
        let mut got = session.wait_any(Duration::from_secs(60));
        if let Some(d) = got.pop() {
            break d;
        }
    };
    assert_eq!(done.ticket, ticket);
    done.result.expect("completes");
    assert_eq!(done.timeline.outcome, JobOutcome::Completed);
    assert_eq!(done.timeline.client, 3);
    assert_telescopes(&done.timeline, "session completion");
}

#[test]
fn early_deaths_telescope_too() {
    let rt = Runtime::new(RuntimeConfig::new(1).cache_capacity(0).flight_capacity(16));
    let (release_tx, release_rx) = mpsc::channel();
    let (started_tx, started_rx) = mpsc::channel();
    let gate = rt
        .submit(JobSpec::task(99, move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
        }))
        .expect("blocker admitted");
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker started the blocker");
    let doomed = rt
        .submit(JobSpec::kernel(0, kernel(256, 5), ExecutionPlan::new(4), 5))
        .expect("admitted");
    doomed.cancel();
    let late = rt
        .submit(
            JobSpec::kernel(0, kernel(256, 6), ExecutionPlan::new(4), 6)
                .deadline(Duration::from_millis(1)),
        )
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(5));
    release_tx.send(()).unwrap();
    gate.wait().expect("blocker completes");
    doomed.wait().expect_err("cancelled");
    late.wait().expect_err("expired");
    let dump = rt.flight_dump();
    let cancelled = dump
        .iter()
        .find(|tl| tl.outcome == JobOutcome::Cancelled)
        .expect("cancelled timeline recorded");
    let expired = dump
        .iter()
        .find(|tl| tl.outcome == JobOutcome::Expired)
        .expect("expired timeline recorded");
    for tl in [cancelled, expired] {
        assert_telescopes(tl, "early death");
        assert!(
            tl.phases().iter().any(|(p, _)| *p == "deliver"),
            "the unattributed remainder lands in deliver"
        );
    }
}
