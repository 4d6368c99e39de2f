//! Job model: what clients submit to the [`Runtime`](crate::Runtime) and
//! what they get back.
//!
//! A job is a *kernel* job — a [`WorkItemKernel`] plus an
//! [`ExecutionPlan`] and a seed — a *graph* job — a [`KernelGraph`] of
//! pipe-connected stages plus a [`GraphPlan`] — or an opaque *task*
//! closure that a worker runs whole (the escape hatch for host-side work
//! like the transfers-only cycle simulations of Fig. 7, which have no
//! kernel to shard). Internally kernel jobs are the trivial one-node
//! graph: the scheduler shards, merges, and caches graphs natively, and
//! a single-node graph delivers the familiar [`RunReport`].

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::session::CompletionShared;
use crate::timeline::{JobOutcome, JobTimeline};

use dwi_core::backend::{ExecutionPlan, RunReport};
use dwi_core::graph::{GraphPlan, GraphReport, KernelGraph};
use dwi_core::kernel::WorkItemKernel;

/// A kernel shared across worker threads.
pub type SharedKernel = Arc<dyn WorkItemKernel + Send + Sync>;

/// An opaque host-side task: runs whole on one worker, returns anything.
pub type TaskFn = Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>;

/// Scheduling lane of a job. Lanes are strict: a queued high-priority job
/// always dispatches before a normal one, which always beats a low one;
/// *within* a lane clients share round-robin (see `queue`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Dispatches before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Background work; runs when the other lanes are empty.
    Low,
}

impl Priority {
    /// Metric label (`lane="high"`).
    pub fn label(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    pub(crate) fn index(&self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// What a job executes.
pub enum JobPayload {
    /// A shardable kernel execution: `plan` is
    /// [`split`](ExecutionPlan::split) across workers and the shard
    /// reports [`merge`](RunReport::merge)d bit-identically to a
    /// monolithic run. `seed` is the caller's RNG seed, used only as the
    /// third component of the result-cache key (the kernel object already
    /// embeds it).
    Kernel {
        /// The kernel to execute.
        kernel: SharedKernel,
        /// Geometry + platform parameters.
        plan: ExecutionPlan,
        /// Cache-key seed component.
        seed: u64,
    },
    /// A multi-kernel dataflow execution: the [`GraphPlan`] is
    /// [`split`](GraphPlan::split) across workers (every stage shards on
    /// the same work-item range) and the shard [`GraphReport`]s merge
    /// bit-identically to a monolithic run.
    Graph {
        /// The stage DAG to execute.
        graph: Arc<KernelGraph>,
        /// Geometry + platform parameters + edge depth.
        plan: GraphPlan,
        /// Cache-key seed component.
        seed: u64,
    },
    /// An opaque closure: single shard, never cached.
    Task(TaskFn),
}

/// An opaque wire-expressible description of a kernel/graph job that a
/// remote worker pool can rebuild and execute. The runtime never looks
/// inside it — the attached [`RemoteChannel`](crate::RemoteChannel)
/// downcasts it to whatever its wire protocol ships.
pub type RemoteSpec = Arc<dyn Any + Send + Sync>;

/// One submission: who, how urgent, what.
pub struct JobSpec {
    /// Submitting client id (fair-share unit).
    pub client: u32,
    /// Scheduling lane.
    pub priority: Priority,
    /// Time budget from admission; the job is dropped (shards skipped,
    /// waiter unblocked with [`JobError::Expired`]) once it elapses.
    pub deadline: Option<Duration>,
    /// Shard count override for kernel jobs (default: the runtime's
    /// worker count; always clamped to the plan's group count).
    pub shards: Option<u32>,
    /// Wire-expressible job description making the job's shards eligible
    /// for remote dispatch ([`Runtime::attach_remote`]); `None` keeps the
    /// job local-only. Results are bit-identical either way — sharding
    /// already made placement irrelevant to values.
    ///
    /// [`Runtime::attach_remote`]: crate::Runtime::attach_remote
    pub remote: Option<RemoteSpec>,
    /// The work itself.
    pub payload: JobPayload,
}

impl JobSpec {
    /// A kernel job with default priority, no deadline, default sharding.
    pub fn kernel(client: u32, kernel: SharedKernel, plan: ExecutionPlan, seed: u64) -> Self {
        Self {
            client,
            priority: Priority::Normal,
            deadline: None,
            shards: None,
            remote: None,
            payload: JobPayload::Kernel { kernel, plan, seed },
        }
    }

    /// A graph job with default priority, no deadline, default sharding.
    pub fn graph(client: u32, graph: Arc<KernelGraph>, plan: GraphPlan, seed: u64) -> Self {
        Self {
            client,
            priority: Priority::Normal,
            deadline: None,
            shards: None,
            remote: None,
            payload: JobPayload::Graph { graph, plan, seed },
        }
    }

    /// An opaque task job with default priority and no deadline.
    pub fn task<T, F>(client: u32, f: F) -> Self
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        Self {
            client,
            priority: Priority::Normal,
            deadline: None,
            shards: None,
            remote: None,
            payload: JobPayload::Task(Box::new(move || Box::new(f()) as Box<dyn Any + Send>)),
        }
    }

    /// Set the scheduling lane.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the time budget from admission.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Override the shard count (kernel jobs only).
    pub fn shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = Some(shards);
        self
    }

    /// Attach a wire-expressible job description, making the job's shards
    /// eligible for dispatch to attached remote worker pools. Ignored for
    /// task payloads (closures cannot cross the wire).
    pub fn remote(mut self, spec: RemoteSpec) -> Self {
        self.remote = Some(spec);
        self
    }
}

/// What a completed job delivers.
pub enum JobOutput {
    /// A kernel job's merged report (shared with the result cache).
    /// Single-node graph jobs also deliver this variant, so the kernel
    /// API is unchanged by the graph spine.
    Kernel(Arc<RunReport>),
    /// A multi-stage graph job's merged report, with per-stage
    /// sub-reports and inter-stage edge accounting.
    Graph(Arc<GraphReport>),
    /// An opaque task's return value.
    Task(Box<dyn Any + Send>),
}

impl std::fmt::Debug for JobOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOutput::Kernel(r) => write!(f, "JobOutput::Kernel({}/{})", r.backend, r.kernel),
            JobOutput::Graph(g) => {
                write!(f, "JobOutput::Graph({}/{} stages)", g.graph, g.stages.len())
            }
            JobOutput::Task(_) => write!(f, "JobOutput::Task(..)"),
        }
    }
}

impl JobOutput {
    /// The merged report; for a graph output, the final stage's report.
    /// Panics on a task output.
    pub fn report(&self) -> &RunReport {
        match self {
            JobOutput::Kernel(r) => r,
            JobOutput::Graph(g) => g.final_report(),
            JobOutput::Task(_) => panic!("task job has no RunReport"),
        }
    }

    /// The merged report by value; panics on a task or graph output.
    pub fn into_report(self) -> Arc<RunReport> {
        match self {
            JobOutput::Kernel(r) => r,
            JobOutput::Graph(_) => panic!("graph job delivers a GraphReport"),
            JobOutput::Task(_) => panic!("task job has no RunReport"),
        }
    }

    /// The merged graph report by value; panics unless this is a graph
    /// output.
    pub fn into_graph_report(self) -> Arc<GraphReport> {
        match self {
            JobOutput::Graph(g) => g,
            JobOutput::Kernel(_) => panic!("single-node jobs deliver a RunReport"),
            JobOutput::Task(_) => panic!("task job has no GraphReport"),
        }
    }

    /// Downcast a task output; panics on a kernel or graph output or
    /// wrong type.
    pub fn into_task<T: 'static>(self) -> T {
        match self {
            JobOutput::Task(b) => *b.downcast::<T>().expect("task output type mismatch"),
            JobOutput::Kernel(_) => panic!("kernel job output is a RunReport"),
            JobOutput::Graph(_) => panic!("graph job output is a GraphReport"),
        }
    }
}

/// Why a job did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The client cancelled it.
    Cancelled,
    /// Its deadline elapsed before completion.
    Expired,
}

impl JobError {
    /// The timeline outcome this failure maps to.
    pub(crate) fn outcome(&self) -> JobOutcome {
        match self {
            JobError::Cancelled => JobOutcome::Cancelled,
            JobError::Expired => JobOutcome::Expired,
        }
    }
}

/// Result-cache key: `(source kernel id, graph fingerprint, seed)`.
///
/// The fingerprint ([`KernelGraph::fingerprint`]) equals the bare plan
/// fingerprint for single-node graphs (so pre-graph cache keys are
/// byte-identical), appends the stage topology and edge depth for
/// multi-stage graphs, and folds every node's
/// [`param_digest`](WorkItemKernel::param_digest) so two kernels sharing
/// a name but built with different constructor parameters never collide.
///
/// This is the *one* constructor for the key — the in-memory LRU, the
/// disk spill tier, and the server gateway all key off values built
/// here, which is what makes a warm disk entry written by one process
/// trustworthy to another.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    kernel: &'static str,
    fingerprint: String,
    seed: u64,
}

impl CacheKey {
    /// Build the canonical key for a job: source kernel id, the graph's
    /// plan-extended fingerprint, and the seed.
    pub fn new(graph: &KernelGraph, plan: &GraphPlan, seed: u64) -> Self {
        Self {
            kernel: graph.source().name(),
            fingerprint: graph.fingerprint(plan),
            seed,
        }
    }

    /// Fold a canonical job-spec byte representation into a seed — the
    /// server gateway's defense-in-depth for spec fields that reach the
    /// runtime but not the fingerprint. Identical specs keep identical
    /// effective seeds (so resubmissions still hit the cache); distinct
    /// specs can no longer collide on a key.
    pub fn fold_spec_seed(seed: u64, canonical_spec: &[u8]) -> u64 {
        seed ^ dwi_core::digest::fnv1a(canonical_spec)
    }

    /// Source kernel id (echoed into durable cache entries).
    pub fn kernel(&self) -> &'static str {
        self.kernel
    }

    /// Graph fingerprint (echoed into durable cache entries).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Seed (echoed into durable cache entries).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw constructor for unit tests that need synthetic keys.
    #[cfg(test)]
    pub(crate) fn synthetic(kernel: &'static str, fingerprint: &str, seed: u64) -> Self {
        Self {
            kernel,
            fingerprint: fingerprint.to_string(),
            seed,
        }
    }

    /// Stable file name for this key's disk-cache entry: the FNV-1a
    /// digest of all three fields (length-framed, so `("ab", "c")` and
    /// `("a", "bc")` differ) plus the `.dwic` extension.
    pub fn file_name(&self) -> String {
        let digest = dwi_core::Digest::new()
            .str(self.kernel)
            .str(&self.fingerprint)
            .u64(self.seed)
            .finish();
        format!("{digest:016x}.dwic")
    }
}

/// What the result cache stores: the same report the job delivered.
#[derive(Clone)]
pub(crate) enum CachedOutput {
    /// Single-node (kernel) jobs cache the merged [`RunReport`].
    Single(Arc<RunReport>),
    /// Multi-stage graph jobs cache the merged [`GraphReport`].
    Graph(Arc<GraphReport>),
}

impl CachedOutput {
    /// The [`JobOutput`] a cache hit delivers.
    pub fn to_output(&self) -> JobOutput {
        match self {
            CachedOutput::Single(r) => JobOutput::Kernel(r.clone()),
            CachedOutput::Graph(g) => JobOutput::Graph(g.clone()),
        }
    }
}

pub(crate) enum Status {
    Queued,
    Running,
    /// Output taken exactly once by [`JobHandle::wait`].
    Done(Option<JobOutput>),
    Failed(JobError),
}

pub(crate) struct JobInner {
    pub status: Status,
    /// Per-shard reports, filled as workers finish (graph jobs —
    /// single-node for plain kernels).
    pub reports: Vec<Option<GraphReport>>,
    /// Shards not yet finished (meaningful once exploded).
    pub remaining: usize,
    /// True once any shard was skipped (cancel/expiry) — blocks merging.
    pub aborted: Option<JobError>,
    /// The unsplit plan, kept for the merge (graph jobs).
    pub plan: Option<GraphPlan>,
    /// The stage DAG, kept for the merge (graph jobs).
    pub graph: Option<Arc<KernelGraph>>,
    /// Result-cache key (graph jobs with caching enabled).
    pub cache_key: Option<CacheKey>,
    /// Admission time, for the job-latency summary.
    pub admitted: Instant,
    /// Total backpressure backoff the submitting thread slept out before
    /// this job was admitted (zero for first-try admissions).
    pub backoff: Duration,
    /// Lifecycle milestones, marked at every scheduler transition and
    /// exported (histograms / Chrome spans / flight recorder) when the
    /// job turns terminal.
    pub timeline: JobTimeline,
}

/// Shared scheduler-side state of one job.
pub(crate) struct JobState {
    pub id: u64,
    pub client: u32,
    pub priority: Priority,
    pub deadline: Option<Instant>,
    pub cancelled: AtomicBool,
    pub inner: Mutex<JobInner>,
    pub cv: Condvar,
    /// Completion hook: when set, the job's id is pushed to this session
    /// completion queue exactly once, on the transition to a terminal
    /// state. `Weak` so an abandoned session never outlives its drop.
    completion: Mutex<Option<Weak<CompletionShared>>>,
}

impl JobState {
    pub fn new(id: u64, spec_client: u32, priority: Priority, deadline: Option<Duration>) -> Self {
        let now = Instant::now();
        Self {
            id,
            client: spec_client,
            priority,
            deadline: deadline.map(|d| now + d),
            cancelled: AtomicBool::new(false),
            inner: Mutex::new(JobInner {
                status: Status::Queued,
                reports: Vec::new(),
                remaining: 0,
                aborted: None,
                plan: None,
                graph: None,
                cache_key: None,
                admitted: now,
                backoff: Duration::ZERO,
                timeline: JobTimeline::new(id, spec_client, priority.label()),
            }),
            cv: Condvar::new(),
            completion: Mutex::new(None),
        }
    }

    /// Attach a session completion hook. Must happen before the job can
    /// reach a terminal state (i.e. before enqueue or cache lookup), so a
    /// completion is never missed.
    pub(crate) fn set_completion_hook(&self, hook: Weak<CompletionShared>) {
        *self.completion.lock().unwrap_or_else(|e| e.into_inner()) = Some(hook);
    }

    /// Fire the completion hook, if any — exactly once (the hook is
    /// taken). Call after every transition to a terminal status, with the
    /// job's inner lock released.
    pub(crate) fn fire_completion(&self) {
        let hook = self
            .completion
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(weak) = hook {
            if let Some(queue) = weak.upgrade() {
                queue.push(self.id);
            }
        }
    }

    /// Request cancellation (idempotent; checked at every dispatch point).
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Why this job must be dropped right now, if at all.
    pub fn abort_error(&self, now: Instant) -> Option<JobError> {
        if self.cancelled.load(Ordering::Relaxed) {
            Some(JobError::Cancelled)
        } else if self.deadline.is_some_and(|d| now > d) {
            Some(JobError::Expired)
        } else {
            None
        }
    }

    /// Move to a terminal state, wake all waiters, and deliver the
    /// session completion (when the job rides one).
    pub fn finish(&self, status: Status) {
        let mut inner = self.lock();
        inner.status = status;
        drop(inner);
        self.cv.notify_all();
        self.fire_completion();
    }
}

/// Client-side handle to a submitted job.
///
/// Dropping a handle without harvesting it **cancels the job** (pending
/// shards are skipped, the result slot is released) — an abandoned handle
/// never leaks queued work or a parked result. Call
/// [`detach`](JobHandle::detach) to drop the handle while letting the job
/// run to completion (feeding the result cache as usual).
pub struct JobHandle {
    state: Arc<JobState>,
    /// Cleared by [`detach`](JobHandle::detach); checked by `Drop`.
    cancel_on_drop: bool,
}

impl JobHandle {
    pub(crate) fn new(state: Arc<JobState>) -> Self {
        Self {
            state,
            cancel_on_drop: true,
        }
    }

    /// The runtime-assigned job id.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Request cancellation. Already-running shards finish; pending shards
    /// are skipped and the worker moves on — cancellation frees capacity,
    /// it never wedges it.
    pub fn cancel(&self) {
        self.state.cancel();
    }

    /// Drop the handle without cancelling: the job runs to completion
    /// unobserved (its report still feeds the result cache). The opposite
    /// of the default drop behavior, which cancels.
    pub fn detach(mut self) {
        self.cancel_on_drop = false;
    }

    /// Total backpressure backoff [`Runtime::submit_blocking`] slept out
    /// before this job was admitted (zero for first-try admissions and
    /// non-blocking submissions).
    ///
    /// [`Runtime::submit_blocking`]: crate::Runtime::submit_blocking
    pub fn total_backoff(&self) -> Duration {
        self.state.lock().backoff
    }

    /// Snapshot of the job's lifecycle timeline — live milestones while
    /// the job is in flight, the full phase record once terminal. (The
    /// runtime's flight recorder keeps the last N of these after the
    /// handle is gone; see [`Runtime::flight_dump`].)
    ///
    /// [`Runtime::flight_dump`]: crate::Runtime::flight_dump
    pub fn timeline(&self) -> JobTimeline {
        self.state.lock().timeline.clone()
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(self) -> Result<JobOutput, JobError> {
        let mut inner = self.state.lock();
        loop {
            match &mut inner.status {
                Status::Done(out) => {
                    return Ok(out.take().expect("job output already taken"));
                }
                Status::Failed(e) => return Err(*e),
                Status::Queued | Status::Running => {
                    inner = self.state.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// The terminal result if the job already finished, without blocking.
    pub fn try_wait(&self) -> Option<Result<(), JobError>> {
        let inner = self.state.lock();
        match &inner.status {
            Status::Done(_) => Some(Ok(())),
            Status::Failed(e) => Some(Err(*e)),
            _ => None,
        }
    }

    /// Block until the job reaches a terminal state or `timeout` elapses,
    /// without consuming the handle or the output — the bounded long-poll
    /// primitive (`GET /v1/jobs/{id}/wait` maps `None` to HTTP 204).
    /// Returns `None` on expiry with the job still in flight.
    pub fn wait_ready(&self, timeout: Duration) -> Option<Result<(), JobError>> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.state.lock();
        loop {
            match &inner.status {
                Status::Done(_) => return Some(Ok(())),
                Status::Failed(e) => return Some(Err(*e)),
                Status::Queued | Status::Running => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .state
                .cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Take the output of an already-terminal job without blocking or
    /// consuming the handle: `None` while in flight, `Some(Ok(output))`
    /// exactly once after completion (a second call panics — callers
    /// cache the first extraction), `Some(Err)` after failure.
    pub fn harvest(&self) -> Option<Result<JobOutput, JobError>> {
        let mut inner = self.state.lock();
        match &mut inner.status {
            Status::Done(out) => Some(Ok(out.take().expect("job output already taken"))),
            Status::Failed(e) => Some(Err(*e)),
            Status::Queued | Status::Running => None,
        }
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        if self.cancel_on_drop && self.try_wait().is_none() {
            self.state.cancel();
        }
    }
}
