//! `serve-mix`: the in-process runtime with its default
//! `RuntimeConfig::new(2)`, driven by one generator thread through
//! `Runtime::session` as a closed loop with a fixed window of outstanding
//! jobs. The jobs are the `serve` mix of single-work-item truncated-normal
//! kernels; every fourth repeats one of three shared seeds.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dwi_core::{Backend, Digest, ExecutionPlan, FunctionalDecoupled, TruncatedNormalKernel};
use dwi_runtime::{JobOutcome, JobSpec, Priority, Runtime};

use crate::mix;
use crate::spans::SpanLog;
use crate::stats::{Samples, Windows};

/// Outstanding jobs the generator keeps in flight. In traced runs of
/// windows 2 to 256 (README.md) throughput and `runtime.worker_busy_ratio`
/// stop rising at 4; a deeper window only adds queue wait, and from 64 on
/// (the default queue bound; `serve --async` pipelines 256) the median
/// latency falls between priority lanes and moves by half from seed to
/// seed. 8 is twice the knee. It stays below the queue bound, so this
/// workload meets no backpressure.
pub const WINDOW: usize = 8;
/// Distinct job slots the generator cycles through. A multiple of 12, so
/// the quota (period 3) and shared-seed (period 4) patterns line up; far
/// larger than the runtime's 32-entry result cache, so only the shared
/// seeds ever hit it.
const POOL: usize = 3072;
const QUOTAS: [u64; 3] = [256, 512, 1024];
const TRUNCATION: f32 = 1.5;

/// Quota and kernel seed of slot `s`: every fourth slot repeats the
/// shared seed of its quota (three shared keys in all).
pub fn slot_shape(seed: u64, s: usize) -> (u64, u32) {
    let quota = QUOTAS[s % 3];
    let kseed = if s % 4 == 3 {
        mix(seed ^ 0x5A5A, quota) as u32
    } else {
        mix(seed, s as u64 + 1) as u32
    };
    (quota, kseed)
}

pub struct Slot {
    pub kernel: Arc<TruncatedNormalKernel>,
    pub seed: u64,
    pub priority: Priority,
}

/// The job inputs of one run.
pub fn pool(seed: u64) -> Vec<Slot> {
    (0..POOL)
        .map(|s| {
            let (quota, kseed) = slot_shape(seed, s);
            Slot {
                kernel: Arc::new(TruncatedNormalKernel::new(TRUNCATION, quota, kseed)),
                seed: kseed as u64,
                priority: [Priority::Normal, Priority::High, Priority::Low][(s / 3) % 3],
            }
        })
        .collect()
}

/// The inline `Backend::execute` result of one slot, kept as a hash of
/// its samples.
pub struct Expected {
    samples_hash: u64,
    len: usize,
    cycles: u64,
    attempts: u64,
    accepted: u64,
}

/// A hash of a sample stream's bits, four independent FNV-1a lanes over
/// 32-bit words: a fraction of a µs for the largest job, where the
/// byte-wise hash http-credit checks responses with costs µs in the loop.
fn samples_hash(samples: &[f32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut lanes = [0xCBF2_9CE4_8422_2325u64; 4];
    for chunk in samples.chunks(4) {
        for (h, v) in lanes.iter_mut().zip(chunk) {
            *h = (*h ^ v.to_bits() as u64).wrapping_mul(PRIME);
        }
    }
    lanes.iter().fold(samples.len() as u64, |h, &l| mix(h, l))
}

pub fn oracle(pool: &[Slot]) -> Vec<Expected> {
    pool.iter()
        .map(|s| {
            let r = FunctionalDecoupled.execute(s.kernel.as_ref(), &ExecutionPlan::new(1));
            let samples = &r.samples[0];
            Expected {
                samples_hash: samples_hash(samples),
                len: samples.len(),
                cycles: r.cycles,
                attempts: r.rejection.attempts,
                accepted: r.rejection.accepted,
            }
        })
        .collect()
}

pub fn sim_digest(oracle: &[Expected]) -> u64 {
    oracle
        .iter()
        .fold(Digest::new(), |d, e| {
            d.u64(e.cycles).u64(e.attempts).u64(e.accepted).usize(e.len)
        })
        .finish()
}

/// Per-job runtime phases, from the `JobTimeline` each completion carries
/// (collected when tracing).
#[derive(Default)]
pub struct Phases {
    /// Submit call duration, seconds.
    pub submit: Vec<f64>,
    /// Submitted → first shard start (admit + queue + coalesce + dispatch),
    /// for executed jobs.
    pub queue_wait: Vec<f64>,
    /// First shard start → last shard end, for executed jobs.
    pub execute: Vec<f64>,
    /// Timeline end-to-end minus execute, every job.
    pub overhead: Vec<f64>,
    /// Summed shard execution windows.
    pub busy_secs: f64,
    /// Summed timeline end-to-end.
    pub timeline_secs: f64,
    /// Jobs served from the result cache at submission.
    pub cache_hits: u64,
    /// Jobs attached to an identical in-flight job (dedup followers).
    pub dedup: u64,
}

/// Latency samples a timed loop keeps (about a minute at today's rate).
pub const SAMPLES: usize = 1 << 21;

pub struct ServeRun {
    /// Submit → harvest, seconds, per job.
    pub latencies: Samples,
    pub windows: Windows,
    pub wall_secs: f64,
    pub attempted: u64,
    pub failed: u64,
    pub would_block: u64,
    pub phases: Phases,
}

const PHASE_SPANS: [(&str, &str); 8] = [
    ("cache_lookup", "runtime.cache_lookup"),
    ("admit", "runtime.admit"),
    ("queue", "runtime.queue"),
    ("coalesce", "runtime.coalesce"),
    ("dispatch", "runtime.dispatch"),
    ("execute", "runtime.execute"),
    ("merge", "runtime.merge"),
    ("deliver", "runtime.deliver"),
];

/// Drive the closed loop for `dur` or `max_jobs` submissions, whichever
/// ends first, then drain the window. Every harvested report is compared
/// with the slot's inline result. Latencies go into `latencies`, built by
/// the caller so that its memory is the benchmark's, not the runtime's.
pub fn run(
    rt: &Runtime,
    pool: &[Slot],
    oracle: &[Expected],
    dur: Duration,
    max_jobs: u64,
    latencies: Samples,
    log: &mut SpanLog,
) -> ServeRun {
    let mut session = rt.session(0);
    let mut pending: HashMap<u64, (usize, Instant, u64)> = HashMap::new();
    let start = Instant::now();
    let deadline = start + dur;
    let mut out = ServeRun {
        latencies,
        windows: Windows::new(start, dur),
        wall_secs: dur.as_secs_f64(),
        attempted: 0,
        failed: 0,
        would_block: 0,
        phases: Phases::default(),
    };
    let mut next = 0u64;
    loop {
        let submitting = Instant::now() < deadline && next < max_jobs;
        if !submitting && pending.is_empty() {
            break;
        }
        while submitting && session.in_flight() < WINDOW {
            let slot = (next as usize) % pool.len();
            let s = &pool[slot];
            let spec = JobSpec::kernel(0, s.kernel.clone(), ExecutionPlan::new(1), s.seed)
                .priority(s.priority);
            let t0 = Instant::now();
            match session.try_submit(spec) {
                Ok(ticket) => {
                    if log.enabled() {
                        let t1 = Instant::now();
                        out.phases.submit.push((t1 - t0).as_secs_f64());
                        log.record("runtime.submit", t0, t1, None, next);
                    }
                    pending.insert(ticket.id(), (slot, t0, next));
                    out.attempted += 1;
                    next += 1;
                }
                Err(_) => {
                    out.would_block += 1;
                    break;
                }
            }
        }
        for done in session.wait_any(Duration::from_secs(10)) {
            let t = Instant::now();
            let (slot, t0, req) = pending
                .remove(&done.ticket.id())
                .expect("completion for a tracked ticket");
            out.latencies.push((t - t0).as_secs_f32());
            out.windows.hit(t);
            let e = &oracle[slot];
            let ok = match &done.result {
                Ok(output) => {
                    let r = output.report();
                    r.samples.len() == 1
                        && r.samples[0].len() == e.len
                        && samples_hash(&r.samples[0]) == e.samples_hash
                        && r.cycles == e.cycles
                        && r.rejection.attempts == e.attempts
                        && r.rejection.accepted == e.accepted
                }
                Err(_) => false,
            };
            if !ok {
                out.failed += 1;
            }
            if !log.enabled() {
                continue;
            }
            let tl = &done.timeline;
            // The same transitions the runtime's recorder counts: a cache
            // hit completes at submission, a dedup follower completes with
            // its leader's output.
            match (tl.cache_hit, tl.outcome) {
                (true, JobOutcome::CacheHit) => out.phases.cache_hits += 1,
                (true, _) => out.phases.dedup += 1,
                _ => {}
            }
            let root = log.open("serve.job", t0, req);
            let mut execute = 0.0;
            let mut e2e = 0.0;
            for (phase, seg_start, seg) in tl.segments() {
                let secs = seg.as_secs_f64();
                e2e += secs;
                if phase == "execute" || phase.starts_with("stage") {
                    execute += secs;
                }
                let name = PHASE_SPANS
                    .iter()
                    .find(|(p, _)| *p == phase)
                    .map_or("runtime.execute", |(_, span)| span);
                log.record(name, seg_start, seg_start + seg, root, req);
            }
            log.close(root, t);
            if let (Some(first), Some(_)) = (tl.first_shard_start(), tl.last_shard_end()) {
                out.phases
                    .queue_wait
                    .push(first.saturating_duration_since(tl.submitted).as_secs_f64());
                out.phases.execute.push(execute);
            }
            out.phases.overhead.push(e2e - execute);
            out.phases.timeline_secs += e2e;
            out.phases.busy_secs += tl
                .shard_spans
                .iter()
                .map(|s| s.end.saturating_duration_since(s.start).as_secs_f64())
                .sum::<f64>();
        }
    }
    out
}
