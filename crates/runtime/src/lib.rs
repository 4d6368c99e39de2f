//! # dwi-runtime — a multi-tenant host runtime over the Backend layer
//!
//! The paper's host side is an out-of-order OpenCL command queue: the host
//! enqueues kernel invocations and PCIe transfers, the runtime overlaps
//! them and keeps the device saturated (Section IV-F). This crate is that
//! runtime grown to many tenants: clients [`submit`](Runtime::submit)
//! jobs — a [`WorkItemKernel`](dwi_core::kernel::WorkItemKernel) +
//! [`ExecutionPlan`] + seed, or a multi-stage
//! [`KernelGraph`] + [`GraphPlan`] + seed,
//! with a priority and an optional deadline — and a pool of worker
//! threads, each owning its own [`Backend`] instance ("virtual device"),
//! executes them. Internally every kernel job is the trivial one-node
//! graph: the scheduler shards, caches, and merges graphs natively
//! ([`Backend::run`] per shard), and single-node graphs deliver the
//! familiar [`RunReport`] so the kernel API is unchanged.
//!
//! The pipeline per job:
//!
//! ```text
//! submit ──▶ admission queue ──▶ split(n) ──▶ shard queue ──▶ workers ──▶ merge ──▶ JobHandle::wait
//!   │   (bounded; reject +     (explicit or    (any worker     (Backend::run
//!   │    retry-after when       default shard   takes the       per graph shard)
//!   ▼    full)                  count)          next shard)
//! result cache (source kernel, graph fingerprint, seed) ── hit? return immediately
//! ```
//!
//! Each dispatch splits into the job's explicit [`JobSpec::shards`]
//! override — what the parity paths (`table3 --runtime`) pin on — or
//! else [`RuntimeConfig::default_shards`].
//!
//! Guarantees:
//!
//! * **Bit-identical sharding** — a job split across K workers merges to
//!   exactly the monolithic [`RunReport`]: values because every engine
//!   derives RNG streams from global work-item ids, cycles because
//!   [`RunReport::merge`] recombines per backend semantics (pinned by
//!   `tests/` here and `crates/core/tests/shard_determinism.rs`).
//! * **Backpressure, not blocking** — at the queue bound, [`Runtime::submit`]
//!   returns [`SubmitRejected`] with a service-time-derived retry hint;
//!   [`Runtime::submit_blocking`] rides it out with capped exponential
//!   backoff honoring that hint.
//! * **Async submission** — a [`Session`] ([`Runtime::session`]) lets one
//!   client thread keep thousands of jobs in flight: non-blocking
//!   [`try_submit`](Session::try_submit) until backpressure, completions
//!   harvested in batches from a completion queue
//!   ([`poll`](Session::poll) / [`wait_any`](Session::wait_any)),
//!   tickets with readiness state and cancel-on-drop semantics.
//! * **Fairness** — strict [`Priority`] lanes; round-robin across clients
//!   within a lane, so one tenant's flood cannot starve another.
//! * **Deadlines & cancellation free capacity** — pending shards of a
//!   cancelled or expired job are skipped, never executed.
//! * **Observability** — queue depth, shard latency, cache hit rate and
//!   per-worker utilization surface through the session's
//!   [`TraceSink`] under [`dwi_trace::runtime_metrics`] names, next to
//!   the engines' own metrics in the Prometheus and Chrome exporters.
//!
//! ```
//! use dwi_runtime::{JobSpec, Runtime, RuntimeConfig};
//! use dwi_core::{ExecutionPlan, TruncatedNormalKernel};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(RuntimeConfig::new(2));
//! let kernel = Arc::new(TruncatedNormalKernel::new(1.5, 64, 7));
//! let job = rt
//!     .submit(JobSpec::kernel(0, kernel, ExecutionPlan::new(4), 7))
//!     .expect("queue has room");
//! let report = job.wait().expect("no deadline set").into_report();
//! assert_eq!(report.workitems, 4);
//! ```

mod cache;
mod diskcache;
mod job;
mod metrics;
mod queue;
mod remote;
mod session;
mod shard;
mod timeline;
mod worker;

pub use job::{
    CacheKey, JobError, JobHandle, JobOutput, JobPayload, JobSpec, Priority, RemoteSpec,
    SharedKernel,
};
pub use queue::SubmitRejected;
pub use remote::{RemoteChannel, RemoteError};
pub use session::{Completion, Session, Ticket};
pub use timeline::{JobOutcome, JobTimeline, ShardSpan, PHASES, STAGE_PHASES};

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use dwi_core::backend::{
    Backend, CycleSim, ExecutionPlan, FunctionalDecoupled, LockstepCoupled, NdRange, RunReport,
    SimtTrace,
};
use dwi_core::graph::{GraphPlan, GraphReport, KernelGraph};
use dwi_trace::{FlightRecorder, TraceSink};

use crate::cache::LruCache;
use crate::diskcache::{DiskCache, DiskLookup};
use crate::job::{CachedOutput, JobState, Status};
use crate::metrics::RuntimeMetrics;
use crate::queue::{AdmissionQueue, JobWork, QueuedJob};
use crate::shard::ShardTask;

/// Runtime sizing and wiring.
pub struct RuntimeConfig {
    /// Worker threads (virtual devices). At least 1.
    pub workers: usize,
    /// Admission-queue bound B: the (B+1)-th queued job is rejected with a
    /// retry hint instead of blocking.
    pub queue_bound: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Default shard count for kernel jobs (`None`: the worker count).
    pub default_shards: Option<u32>,
    /// Flight-recorder capacity: the last N completed [`JobTimeline`]s
    /// are kept in an always-on ring (0 disables), dumpable via
    /// [`Runtime::flight_dump`] — the post-hoc answer to "what did the
    /// last breaching jobs actually spend their time on".
    pub flight_capacity: usize,
    /// Durable spill tier under the in-memory result cache: a directory
    /// of per-entry report files (`None` disables the tier). Entries
    /// evicted from the LRU are written behind; a memory miss consults
    /// the directory and promotes a verified hit; the remaining LRU
    /// contents flush on [`Runtime`] drop — so sweeps, serve runs, and
    /// gateway restarts keep their hit rate across processes.
    pub disk_cache_dir: Option<std::path::PathBuf>,
    /// Most entry files the durable tier keeps (oldest-modified evicted
    /// first; 0 = unbounded). Ignored without
    /// [`disk_cache_dir`](Self::disk_cache_dir).
    pub disk_cache_capacity: usize,
    /// Sink for runtime metrics and worker timeline tracks.
    pub sink: TraceSink,
}

impl RuntimeConfig {
    /// Defaults: 64-job queue, 32-entry cache, shard-per-worker, a
    /// 256-timeline flight recorder, tracing off.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            queue_bound: 64,
            cache_capacity: 32,
            default_shards: None,
            flight_capacity: 256,
            disk_cache_dir: None,
            disk_cache_capacity: 256,
            sink: TraceSink::disabled(),
        }
    }

    /// Set the admission-queue bound (≥ 1).
    pub fn queue_bound(mut self, bound: usize) -> Self {
        assert!(bound >= 1, "queue bound must be at least 1");
        self.queue_bound = bound;
        self
    }

    /// Set the result-cache capacity (0 disables).
    pub fn cache_capacity(mut self, cap: usize) -> Self {
        self.cache_capacity = cap;
        self
    }

    /// Set the default shard count for kernel jobs.
    pub fn default_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1);
        self.default_shards = Some(shards);
        self
    }

    /// Set the flight-recorder capacity (0 disables it).
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }

    /// Attach the durable spill tier under the given directory (created
    /// if absent).
    pub fn disk_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.disk_cache_dir = Some(dir.into());
        self
    }

    /// Set the durable tier's entry-count cap (0 = unbounded).
    pub fn disk_cache_capacity(mut self, capacity: usize) -> Self {
        self.disk_cache_capacity = capacity;
        self
    }

    /// Attach a trace sink.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }
}

pub(crate) struct SchedState {
    pub queue: AdmissionQueue,
    pub shards: VecDeque<ShardTask>,
    pub shutdown: bool,
    /// EMA of shard service time in seconds (0 until the first shard).
    pub ema_shard_secs: f64,
}

/// Shared scheduler core (workers hold an `Arc` of it).
pub(crate) struct Core {
    pub state: Mutex<SchedState>,
    pub work_cv: Condvar,
    pub sink: TraceSink,
    pub metrics: RuntimeMetrics,
    pub cache: Mutex<LruCache>,
    /// Durable spill tier under the LRU (`None` = memory-only caching).
    pub disk: Option<Mutex<DiskCache>>,
    pub queue_bound: usize,
    pub workers: usize,
    pub default_shards: u32,
    /// Always-on ring of the last N completed job timelines.
    pub flight: FlightRecorder<JobTimeline>,
    /// Job-id mint.
    pub next_id: AtomicU64,
    /// Remote worker pools currently attached (drives the gauge).
    pub remote_workers: AtomicUsize,
    /// In-flight dedup index: cache key → the job currently queued or
    /// running under it. A submission that finds a live, non-terminal
    /// entry attaches as a follower instead of enqueueing. `Weak` so a
    /// rejected or torn-down leader never pins the map.
    pub inflight: Mutex<HashMap<CacheKey, Weak<JobState>>>,
}

impl Core {
    pub fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn lock_cache(&self) -> MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Two-tier result lookup: the in-memory LRU first, then the durable
    /// directory. A verified disk hit is promoted into the LRU (whatever
    /// that displaces spills back — idempotent, the entry is already on
    /// disk) and counts toward `dwi_runtime_cache_disk_hits_total`; an
    /// absent or corrupt entry counts a disk miss (plus a reject when
    /// corrupt). The memory-tier hit/miss counters stay the caller's job,
    /// so `cache_misses_total` keeps meaning "no result *anywhere*".
    pub(crate) fn lookup_cached(&self, key: &CacheKey) -> Option<CachedOutput> {
        if let Some(hit) = self.lock_cache().get(key) {
            return Some(hit);
        }
        let disk = self.disk.as_ref()?;
        let looked_up = disk.lock().unwrap_or_else(|e| e.into_inner()).load(key);
        match looked_up {
            DiskLookup::Hit(out) => {
                self.metrics.cache_disk_hit();
                let evicted = self.lock_cache().put(key.clone(), out.clone());
                self.spill(evicted);
                Some(out)
            }
            DiskLookup::Miss => {
                self.metrics.cache_disk_miss();
                None
            }
            DiskLookup::Reject => {
                self.metrics.cache_disk_reject();
                self.metrics.cache_disk_miss();
                None
            }
        }
    }

    /// Write-behind evicted (or drained) cache entries to the durable
    /// tier. Call with no job-inner lock held — disk I/O under a job's
    /// critical section would serialize completions behind the filesystem.
    pub(crate) fn spill(&self, entries: Vec<(CacheKey, CachedOutput)>) {
        let Some(disk) = self.disk.as_ref() else {
            return;
        };
        for (key, out) in entries {
            let stored = disk
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .store(&key, &out);
            if stored {
                self.metrics.cache_disk_spill();
            }
        }
    }

    pub fn wait_for_work<'a>(&self, st: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner())
    }

    pub fn lock_inflight(&self) -> MutexGuard<'_, HashMap<CacheKey, Weak<JobState>>> {
        self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drop `state`'s in-flight dedup registration, if it still owns the
    /// entry (a later identical submission may have replaced it). Call
    /// with the job's inner lock **released** — the lock order is always
    /// inflight-map → job-inner, never reversed.
    pub(crate) fn unregister_inflight(&self, key: &CacheKey, state: &Arc<JobState>) {
        let mut map = self.lock_inflight();
        if let Some(weak) = map.get(key) {
            let stale = match weak.upgrade() {
                Some(owner) => Arc::ptr_eq(&owner, state),
                None => true,
            };
            if stale {
                map.remove(key);
            }
        }
    }

    /// Deliver a finished leader's shared output to its dedup followers:
    /// each live follower gets the same `Arc`-shared report (abort-checked
    /// — a follower cancelled or expired while waiting still fails), plus
    /// its own completion metrics and timeline, exactly as if it had run.
    pub(crate) fn deliver_followers(&self, followers: Vec<Arc<JobState>>, cached: &CachedOutput) {
        let now = std::time::Instant::now();
        for f in followers {
            if let Some(e) = f.abort_error(now) {
                self.finalize_failed(&f, e);
                continue;
            }
            let mut inner = f.lock();
            let latency = inner.admitted.elapsed().as_secs_f64();
            inner.timeline.cache_hit = true;
            let tl = inner.timeline.finish(timeline::JobOutcome::Completed);
            self.export_timeline(tl);
            inner.status = Status::Done(Some(cached.to_output()));
            drop(inner);
            f.cv.notify_all();
            f.fire_completion();
            self.metrics.inflight_dedup();
            self.metrics.job_completed(latency);
        }
    }

    /// Close `state`'s timeline with `outcome`, returning the snapshot
    /// to export once the job's locks are released.
    pub(crate) fn close_timeline(
        &self,
        state: &JobState,
        outcome: timeline::JobOutcome,
    ) -> JobTimeline {
        state.lock().timeline.finish(outcome)
    }

    /// Export one terminal timeline: per-phase + end-to-end histograms
    /// and Chrome spans on the job's `ProcessKind::Job` track when
    /// tracing is attached, and the always-on flight recorder either
    /// way. Call *before* the job's completion becomes observable
    /// (status write / waking waiters), so that by the time a client
    /// sees a job finish its timeline is already dumpable — sink and
    /// flight locks nest safely inside the job's inner lock.
    pub(crate) fn export_timeline(&self, tl: JobTimeline) {
        if self.sink.is_enabled() {
            if let Some(e2e) = tl.e2e() {
                self.metrics.job_e2e(tl.lane, e2e.as_secs_f64());
            }
            let track = self
                .sink
                .track(tl.job_id as u32, dwi_trace::ProcessKind::Job);
            for (phase, start, dur) in tl.segments() {
                self.metrics.phase(phase, tl.lane, dur.as_secs_f64());
                track.span_at(phase, self.sink.instant_ns(start), dur.as_nanos() as u64);
            }
            if self.flight.capacity() > 0 {
                self.metrics.flight_recorded();
            }
        }
        self.flight.record(tl);
    }

    /// Suggested resubmission delay when the queue is full: the backlog's
    /// expected drain time across the pool, floored at 1 ms.
    fn retry_after(&self, st: &SchedState) -> Duration {
        let ema = if st.ema_shard_secs > 0.0 {
            st.ema_shard_secs
        } else {
            0.002
        };
        let backlog = (st.queue.len() + st.shards.len() + 1) as f64;
        Duration::from_secs_f64((ema * backlog / self.workers.max(1) as f64).max(0.001))
    }
}

/// The multi-tenant job scheduler. Dropping it stops the workers; queued
/// jobs that never ran fail with [`JobError::Cancelled`].
pub struct Runtime {
    core: Arc<Core>,
    handles: Vec<JoinHandle<()>>,
    /// Dispatch threads of attached remote pools ([`attach_remote`]);
    /// behind a mutex so pools can join a running gateway through `&self`.
    ///
    /// [`attach_remote`]: Runtime::attach_remote
    remote_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Runtime {
    /// A runtime whose workers each own a [`FunctionalDecoupled`] engine —
    /// the paper's design, one virtual device per worker.
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_backend_factory(config, |_| Box::new(FunctionalDecoupled))
    }

    /// A runtime with a custom per-worker backend factory (`worker index →
    /// engine instance`).
    pub fn with_backend_factory<F>(config: RuntimeConfig, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn Backend + Send>,
    {
        let core = Arc::new(Core {
            state: Mutex::new(SchedState {
                queue: AdmissionQueue::default(),
                shards: VecDeque::new(),
                shutdown: false,
                ema_shard_secs: 0.0,
            }),
            work_cv: Condvar::new(),
            sink: config.sink.clone(),
            metrics: RuntimeMetrics::new(config.sink),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            disk: config.disk_cache_dir.map(|dir| {
                Mutex::new(
                    DiskCache::open(dir, config.disk_cache_capacity)
                        .expect("create disk cache directory"),
                )
            }),
            queue_bound: config.queue_bound,
            workers: config.workers,
            default_shards: config
                .default_shards
                .unwrap_or(config.workers as u32)
                .max(1),
            flight: FlightRecorder::new(config.flight_capacity),
            next_id: AtomicU64::new(0),
            remote_workers: AtomicUsize::new(0),
            inflight: Mutex::new(HashMap::new()),
        });
        let handles = (0..config.workers)
            .map(|idx| {
                let core = core.clone();
                let backend = factory(idx);
                std::thread::Builder::new()
                    .name(format!("dwi-worker-{idx}"))
                    .spawn(move || worker::worker_loop(idx, core, backend))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            core,
            handles,
            remote_handles: Mutex::new(Vec::new()),
        }
    }

    /// Attach a remote worker pool: spawns a dispatch thread that drains
    /// remote-eligible shards (jobs submitted with [`JobSpec::remote`])
    /// through `channel`, one at a time, merging results through the same
    /// bit-identical shard-merge path the local workers use. The pool is
    /// pure extra capacity — local workers keep taking those shards too.
    /// On any channel error the in-flight shard is requeued at the front
    /// of the shard queue (no job is lost) and the pool detaches.
    pub fn attach_remote(&self, channel: Box<dyn RemoteChannel>) {
        let core = self.core.clone();
        let idx = self.core.remote_workers.load(Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("dwi-remote-{idx}"))
            .spawn(move || remote::remote_loop(core, channel))
            .expect("spawn remote dispatch thread");
        self.remote_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
        // A remote-eligible shard may already be parked in the queue.
        self.core.work_cv.notify_all();
    }

    /// Remote worker pools currently attached (a detached pool — channel
    /// error — no longer counts).
    pub fn remote_workers(&self) -> usize {
        self.core.remote_workers.load(Ordering::Relaxed)
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Snapshot the flight recorder: the last
    /// [`flight_capacity`](RuntimeConfig::flight_capacity) terminal
    /// [`JobTimeline`]s (completed, cache-hit, cancelled or expired), in
    /// completion order. Always on — works with tracing disabled — so a
    /// live incident can be diagnosed after the fact without a restart.
    pub fn flight_dump(&self) -> Vec<JobTimeline> {
        self.core.flight.dump()
    }

    /// Open an async submission [`Session`] for tenant `client`: a
    /// non-blocking front-end where one thread pipelines thousands of
    /// jobs — [`try_submit`](Session::try_submit) until backpressure,
    /// harvest completions in batches via [`poll`](Session::poll) /
    /// [`wait_any`](Session::wait_any).
    pub fn session(&self, client: u32) -> Session<'_> {
        Session::new(self, client)
    }

    /// Submit a job. Returns immediately: a [`JobHandle`] on admission (or
    /// cache hit), or [`SubmitRejected`] with a retry hint when the queue
    /// is at its bound.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitRejected> {
        self.submit_inner(spec, None)
            .map(JobHandle::new)
            .map_err(|(rejected, _, _)| rejected)
    }

    /// The shared admission path under [`Runtime::submit`],
    /// [`Runtime::submit_blocking`] and the [`Session`] front-end. A
    /// rejection hands the built job back so the blocking retry loop can
    /// resubmit without rebuilding it (task closures are not rebuildable,
    /// hence the large-but-internal `Err`). `hook`, when given, is armed
    /// before the cache lookup so a session never misses a completion —
    /// even one delivered synchronously by a cache hit.
    #[allow(clippy::type_complexity, clippy::result_large_err)]
    pub(crate) fn submit_inner(
        &self,
        spec: JobSpec,
        hook: Option<Weak<session::CompletionShared>>,
    ) -> Result<Arc<JobState>, (SubmitRejected, Arc<JobState>, QueuedJob)> {
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(JobState::new(id, spec.client, spec.priority, spec.deadline));
        if let Some(hook) = hook {
            state.set_completion_hook(hook);
        }
        let job = match spec.payload {
            JobPayload::Task(f) => QueuedJob {
                state: state.clone(),
                work: JobWork::Task(f),
                shards: Some(1),
                remote: None,
            },
            payload => {
                // Kernel submissions become the trivial one-node graph
                // here: past admission the scheduler speaks graphs only.
                let (graph, plan, seed) = match payload {
                    JobPayload::Kernel { kernel, plan, seed } => (
                        Arc::new(KernelGraph::single(kernel)),
                        GraphPlan::new(plan),
                        seed,
                    ),
                    JobPayload::Graph { graph, plan, seed } => (graph, plan, seed),
                    JobPayload::Task(_) => unreachable!("task payloads matched above"),
                };
                let cache_key = (self.core.cache_capacity() > 0 || self.core.disk.is_some())
                    .then(|| CacheKey::new(&graph, &plan, seed));
                if let Some(key) = &cache_key {
                    let hit = self.core.lookup_cached(key);
                    if let Some(cached) = hit {
                        self.core.metrics.cache_hit();
                        self.core.metrics.job_submitted(spec.priority);
                        self.core.metrics.job_completed(0.0);
                        let tl = {
                            let mut inner = state.lock();
                            inner.timeline.cache_hit = true;
                            inner.timeline.finish(timeline::JobOutcome::CacheHit)
                        };
                        self.core.export_timeline(tl);
                        // finish() (not a bare status write) so a session
                        // hook sees the synchronous completion too.
                        state.finish(Status::Done(Some(cached.to_output())));
                        return Ok(state);
                    }
                    self.core.metrics.cache_miss();
                }
                // In-flight dedup: an identical (kernel, plan, seed)
                // submission already queued or running becomes the leader
                // and this one attaches as a follower — it never enters
                // the admission queue and is delivered the leader's
                // shared output when the leader turns terminal. The map
                // lock is taken before the leader's inner lock (the
                // delivery sites release the inner lock before touching
                // the map, so the order never inverts).
                if let Some(key) = &cache_key {
                    let mut map = self.core.lock_inflight();
                    let leader = map.get(key).and_then(Weak::upgrade);
                    if let Some(leader) = leader {
                        let mut li = leader.lock();
                        if matches!(li.status, Status::Queued | Status::Running) {
                            li.followers.push(state.clone());
                            drop(li);
                            drop(map);
                            // Followers count as submissions so the
                            // conservation identity holds per attempt;
                            // their completion lands at delivery.
                            self.core.metrics.job_submitted(spec.priority);
                            return Ok(state);
                        }
                        // Terminal leader that has not unregistered yet
                        // (delivery races the map cleanup): replace it.
                    }
                    map.insert(key.clone(), Arc::downgrade(&state));
                }
                state.lock().cache_key = cache_key;
                QueuedJob {
                    state: state.clone(),
                    work: JobWork::Graph { graph, plan },
                    shards: spec.shards,
                    remote: spec.remote,
                }
            }
        };
        match self.enqueue(job) {
            Ok(()) => Ok(state),
            Err((rejected, job)) => Err((rejected, state, job)),
        }
    }

    /// Submit, sleeping out backpressure rejections until admitted — the
    /// closed-loop client pattern (the overhead gates and the figure
    /// binaries use this). Retries honor the queue's retry-after hint
    /// with capped exponential backoff; the total time slept is exposed
    /// through [`JobHandle::total_backoff`] and the
    /// `dwi_runtime_submit_backoff_seconds` summary.
    pub fn submit_blocking(&self, spec: JobSpec) -> JobHandle {
        match self.submit_inner(spec, None) {
            Ok(state) => JobHandle::new(state),
            Err((rejected, state, job)) => {
                JobHandle::new(self.ride_backpressure(state, job, rejected))
            }
        }
    }

    /// Sleep out backpressure until `job` is admitted: capped exponential
    /// backoff seeded by — and never shorter than — the queue's live
    /// retry-after hint. Records the total backoff on the job (for
    /// [`JobHandle::total_backoff`]) and in the
    /// `dwi_runtime_submit_backoff_seconds` summary.
    pub(crate) fn ride_backpressure(
        &self,
        state: Arc<JobState>,
        mut job: QueuedJob,
        rejected: SubmitRejected,
    ) -> Arc<JobState> {
        /// Upper bound on any single backoff sleep: bounded staleness of
        /// the retry decision beats exact hint obedience on a deep queue.
        const BACKOFF_CAP: Duration = Duration::from_millis(100);
        let mut delay = rejected.retry_after.min(BACKOFF_CAP);
        let mut total = Duration::ZERO;
        loop {
            std::thread::sleep(delay);
            total += delay;
            match self.enqueue(job) {
                Ok(()) => break,
                Err((again, returned)) => {
                    job = returned;
                    delay = delay
                        .saturating_mul(2)
                        .max(again.retry_after)
                        .min(BACKOFF_CAP);
                }
            }
        }
        {
            let mut inner = state.lock();
            inner.backoff = total;
            inner.timeline.backoff = total;
        }
        self.core.metrics.submit_backoff(total.as_secs_f64());
        state
    }

    /// Run one kernel job to completion: submit (riding out backpressure),
    /// wait, return the merged report. Panics if the job is cancelled or
    /// expires (callers that need those paths use [`Runtime::submit`]).
    pub fn run_kernel(
        &self,
        kernel: SharedKernel,
        plan: ExecutionPlan,
        seed: u64,
    ) -> Arc<RunReport> {
        // submit_blocking retries with the *same* built job, so riding
        // out backpressure never re-clones the kernel or the plan.
        self.submit_blocking(JobSpec::kernel(0, kernel, plan, seed))
            .wait()
            .expect("kernel job without deadline cannot fail")
            .into_report()
    }

    /// Run one multi-stage graph job to completion: submit (riding out
    /// backpressure), wait, return the merged [`GraphReport`]. Single-node
    /// graphs deliver through the kernel path ([`JobOutput::Kernel`]) —
    /// use [`Runtime::run_kernel`] for those. Panics if the job is
    /// cancelled or expires.
    pub fn run_graph(
        &self,
        graph: Arc<KernelGraph>,
        plan: GraphPlan,
        seed: u64,
    ) -> Arc<GraphReport> {
        assert!(
            !graph.is_single(),
            "single-node graphs deliver a RunReport; use run_kernel"
        );
        self.submit_blocking(JobSpec::graph(0, graph, plan, seed))
            .wait()
            .expect("graph job without deadline cannot fail")
            .into_graph_report()
    }

    #[allow(clippy::result_large_err)] // internal: the job rides the Err back to the retry loop
    fn enqueue(&self, job: QueuedJob) -> Result<(), (SubmitRejected, QueuedJob)> {
        let lane = job.state.priority;
        let mut st = self.core.lock_state();
        if st.queue.len() >= self.core.queue_bound {
            let rejected = SubmitRejected {
                retry_after: self.core.retry_after(&st),
            };
            drop(st);
            // Rejections count as submission attempts too, so the
            // conservation identity `submitted = completed + rejected +
            // cancelled + expired` holds per attempt.
            self.core.metrics.job_submitted(lane);
            self.core.metrics.job_rejected();
            return Err((rejected, job));
        }
        job.state.lock().timeline.mark_admitted();
        st.queue.push(job);
        self.core.metrics.job_submitted(lane);
        self.core
            .metrics
            .queue_depth(lane, st.queue.lane_depth(lane));
        drop(st);
        self.core.work_cv.notify_one();
        Ok(())
    }
}

impl Core {
    fn cache_capacity(&self) -> usize {
        self.lock_cache().capacity()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.core.lock_state().shutdown = true;
        self.core.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let remote = std::mem::take(
            &mut *self
                .remote_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in remote {
            let _ = h.join();
        }
        // Unblock any waiters on work the pool never reached.
        let mut st = self.core.lock_state();
        while let Some(job) = st.queue.pop() {
            crate::job::fail_tree(&job.state, JobError::Cancelled);
        }
        while let Some(shard) = st.shards.pop_front() {
            crate::job::fail_tree(&shard.state, JobError::Cancelled);
        }
        drop(st);
        // Flush the surviving LRU contents to the durable tier: short
        // runs never evict, so without this a warm restart would find an
        // empty directory. Workers are already joined — no lock contention.
        if self.core.disk.is_some() {
            let remaining = self.core.lock_cache().drain();
            self.core.spill(remaining);
        }
    }
}

/// One of the five engines by report name (`"functional-decoupled"`,
/// `"lockstep-coupled"`, `"ndrange"`, `"cycle-sim"`, `"simt-trace"`) — the
/// worker-factory building block for CLI `--backend` flags and tests.
pub fn named_backend(name: &str) -> Box<dyn Backend + Send> {
    match name {
        "functional-decoupled" => Box::new(FunctionalDecoupled),
        "lockstep-coupled" => Box::new(LockstepCoupled),
        "ndrange" => Box::new(NdRange),
        "cycle-sim" => Box::new(CycleSim),
        "simt-trace" => Box::new(SimtTrace),
        other => panic!("unknown backend {other:?}"),
    }
}
