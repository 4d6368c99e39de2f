//! Timing gates for two runtime overhead claims. Both time real work, so
//! they are `#[ignore]`d and meant to run in release, one at a time:
//!
//! ```text
//! cargo test --release -q -p dwi-runtime --test overhead_gates -- --ignored --test-threads 1
//! ```
//!
//! Both run the same configuration: 2 `functional-decoupled` workers,
//! queue bound 64, a [`Recorder`] attached, and one client submitting
//! single-work-item truncated-normal jobs whose quota cycles through
//! 256/512/1024 with every fourth job repeating a shared seed (a cache
//! hit after the first). A job is tens of microseconds of work, so
//! runtime overhead is a visible share of it.
//!
//! Each gate is sized to rise above scheduling noise on a shared 2-vCPU
//! host: the pipelining gate compares medians over alternating pairs of
//! 20,000-job runs, and the flight-recorder gate times the ring write
//! itself (best of 5 × 200,000 writes) against the median job, because a
//! whole-run A/B with and without the ring cannot resolve 2 %.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dwi_core::{ExecutionPlan, TruncatedNormalKernel};
use dwi_runtime::{named_backend, JobSpec, Runtime, RuntimeConfig, SharedKernel};
use dwi_trace::{FlightRecorder, Recorder};

/// Jobs per timed run (per side of a pair).
const JOBS: u32 = 20_000;

/// Jobs one session keeps in flight in the open loop.
const INFLIGHT: usize = 256;

/// Alternating closed/open pairs of the pipelining gate.
const PAIRS: usize = 5;

/// The gated configuration's runtime, tracing into `rec`.
fn runtime(rec: &Recorder) -> Runtime {
    Runtime::with_backend_factory(
        RuntimeConfig::new(2).queue_bound(64).trace(rec.sink()),
        |_| named_backend("functional-decoupled"),
    )
}

/// Job `index` of the mix.
fn job(index: u32) -> JobSpec {
    let quota = [256u64, 512, 1024][(index % 3) as usize];
    let seed = if index % 4 == 3 { quota as u32 } else { index };
    let kernel: SharedKernel = Arc::new(TruncatedNormalKernel::new(1.5, quota, seed));
    JobSpec::kernel(0, kernel, ExecutionPlan::new(1), seed as u64)
}

/// Closed loop: submit, wait, repeat. Returns the wall time and every
/// job's end-to-end latency as the client saw it.
fn closed_loop(rt: &Runtime) -> (Duration, Vec<Duration>) {
    let mut latencies = Vec::with_capacity(JOBS as usize);
    let t0 = Instant::now();
    for index in 0..JOBS {
        let t = Instant::now();
        rt.submit_blocking(job(index))
            .wait()
            .expect("job completes");
        latencies.push(t.elapsed());
    }
    (t0.elapsed(), latencies)
}

/// Open loop: one session keeps up to [`INFLIGHT`] jobs in flight,
/// sleeping out backpressure on its completion queue. Returns the wall
/// time.
fn open_loop(rt: &Runtime) -> Duration {
    let mut session = rt.session(0);
    let (mut next, mut done) = (0u32, 0u32);
    let t0 = Instant::now();
    while done < JOBS {
        for c in session.poll() {
            c.result.expect("job completes");
            done += 1;
        }
        if next == JOBS || session.in_flight() >= INFLIGHT {
            for c in session.wait_any(Duration::from_secs(30)) {
                c.result.expect("job completes");
                done += 1;
            }
            continue;
        }
        match session.try_submit(job(next)) {
            Ok(_) => next += 1,
            Err(rejected) => {
                for c in session.wait_any(rejected.retry_after) {
                    c.result.expect("job completes");
                    done += 1;
                }
            }
        }
    }
    t0.elapsed()
}

fn median<T: Copy + PartialOrd>(mut v: Vec<T>) -> T {
    v.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    v[v.len() / 2]
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads 1"]
fn session_pipelining_beats_the_closed_loop() {
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let closed = closed_loop(&runtime(&Recorder::new())).0;
            let open = open_loop(&runtime(&Recorder::new()));
            let ratio = closed.as_secs_f64() / open.as_secs_f64();
            println!(
                "closed {:.0} jobs/s, open {:.0} jobs/s: {ratio:.2}x",
                JOBS as f64 / closed.as_secs_f64(),
                JOBS as f64 / open.as_secs_f64()
            );
            ratio
        })
        .collect();
    let m = median(ratios.clone());
    println!("median open/closed throughput: {m:.2}x");
    assert!(
        m >= 1.5,
        "session pipelining is only {m:.2}x the closed loop (pairs {ratios:.2?}, bar 1.5x)"
    );
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads 1"]
fn flight_ring_write_is_under_two_percent_of_a_job() {
    let rt = runtime(&Recorder::new());
    let job_time = median(closed_loop(&rt).1);
    let timeline = rt
        .flight_dump()
        .pop()
        .expect("the runtime recorded a timeline");
    assert!(timeline.e2e().is_some(), "a closed timeline");

    let ring = FlightRecorder::new(4096);
    for _ in 0..ring.capacity() {
        ring.record(timeline.clone());
    }
    const WRITES: u32 = 200_000;
    let write = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..WRITES {
                ring.record(timeline.clone());
            }
            t.elapsed() / WRITES
        })
        .min()
        .expect("five rounds");
    let ratio = write.as_secs_f64() / job_time.as_secs_f64();
    println!(
        "ring write {} ns, median job {:.1} us: {:.3}%",
        write.as_nanos(),
        job_time.as_secs_f64() * 1e6,
        ratio * 100.0
    );
    assert!(
        ratio < 0.02,
        "a flight-ring write ({write:?}) is {:.2}% of a median job ({job_time:?}), bar 2%",
        ratio * 100.0
    );
}
