//! Async submission front-end: one client thread, thousands of in-flight
//! jobs.
//!
//! The paper's host hides latency by keeping the out-of-order command
//! queue full while the decoupled pipelines drain it (Section IV-F). A
//! [`Session`] is that pattern for tenants of the
//! [`Runtime`](crate::Runtime): instead of parking one OS thread per
//! in-flight job (`submit_blocking` + `wait`), a client opens a session,
//! pumps [`try_submit`](Session::try_submit) until backpressure answers
//! [`SubmitRejected`] (a would-block, never a parked thread), and harvests
//! finished jobs in batches from the session's **completion queue** via
//! [`poll`](Session::poll) (non-blocking) or
//! [`wait_any`](Session::wait_any) (bounded block). Submissions come back
//! as pollable [`Ticket`]s — futures-like tokens with readiness state
//! ([`is_ready`](Session::is_ready)), per-job deadlines (through
//! [`JobSpec::deadline`](crate::JobSpec::deadline), surfacing as
//! [`JobError::Expired`] completions), and cancel-on-drop semantics
//! (dropping the session cancels everything still in flight).
//!
//! Everything behind admission is unchanged: session jobs ride the same
//! bounded queue, priority lanes, shard dispatch and result cache as
//! blocking submissions.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::job::{JobError, JobOutput, JobSpec, JobState, Status};
use crate::metrics::RuntimeMetrics;
use crate::queue::SubmitRejected;
use crate::Runtime;

/// A pollable token for one session submission. Copyable and hashable —
/// the client-side key for correlating completions with submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub(crate) u64);

impl Ticket {
    /// The runtime-assigned job id this ticket tracks.
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// One harvested completion: which submission finished, and how.
#[derive(Debug)]
pub struct Completion {
    /// The token [`Session::try_submit`] returned for this job.
    pub ticket: Ticket,
    /// The job's terminal outcome — its output, or why it failed.
    pub result: Result<JobOutput, JobError>,
    /// The job's closed lifecycle record: where its end-to-end latency
    /// went, phase by phase (see [`crate::JobTimeline`]).
    pub timeline: crate::JobTimeline,
}

/// The half of a session the scheduler writes to: a bounded-by-in-flight
/// queue of finished job ids plus the condvar [`Session::wait_any`] parks
/// on. Jobs hold a [`Weak`] to it, so a dropped session never strands a
/// worker mid-delivery.
pub(crate) struct CompletionShared {
    ready: Mutex<VecDeque<u64>>,
    cv: Condvar,
    metrics: RuntimeMetrics,
    /// Pre-rendered `client="<id>"` label for the session's gauges.
    client_label: String,
}

impl CompletionShared {
    /// Deliver one finished job id and wake any harvester. Called by
    /// whichever thread drove the job terminal (worker, canceller, or the
    /// submitting thread itself on a cache hit).
    pub(crate) fn push(&self, id: u64) {
        let mut q = self.ready.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(id);
        let depth = q.len();
        drop(q);
        self.metrics
            .completion_queue_depth(&self.client_label, depth);
        self.cv.notify_all();
    }
}

/// A non-blocking submission handle pinned to one tenant: submit until
/// backpressure, harvest completions in batches, never park a thread per
/// job. Created by [`Runtime::session`]; dropping it cancels whatever is
/// still in flight (harvest first — or keep the session alive — for
/// results you care about).
///
/// ```
/// use dwi_runtime::{JobSpec, Runtime, RuntimeConfig};
/// use dwi_core::{ExecutionPlan, TruncatedNormalKernel};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let rt = Runtime::new(RuntimeConfig::new(2));
/// let mut session = rt.session(0);
/// // Pipeline a burst of jobs from this one thread...
/// for seed in 0..32u32 {
///     let kernel = Arc::new(TruncatedNormalKernel::new(1.5, 64, seed));
///     session.submit_blocking(JobSpec::kernel(0, kernel, ExecutionPlan::new(2), seed as u64));
/// }
/// // ...then harvest completions in batches.
/// let mut done = 0;
/// while session.in_flight() > 0 {
///     done += session.wait_any(Duration::from_secs(30)).len();
/// }
/// assert_eq!(done, 32);
/// ```
pub struct Session<'rt> {
    rt: &'rt Runtime,
    client: u32,
    shared: Arc<CompletionShared>,
    /// Tickets submitted and not yet harvested, by job id.
    pending: HashMap<u64, Arc<JobState>>,
}

impl<'rt> Session<'rt> {
    pub(crate) fn new(rt: &'rt Runtime, client: u32) -> Self {
        Self {
            rt,
            client,
            shared: Arc::new(CompletionShared {
                ready: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                metrics: rt.core.metrics.clone(),
                client_label: client.to_string(),
            }),
            pending: HashMap::new(),
        }
    }

    /// The tenant id every submission through this session carries.
    pub fn client(&self) -> u32 {
        self.client
    }

    /// Jobs submitted and not yet harvested (queued, running, or sitting
    /// in the completion queue).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Submit without blocking. Returns a [`Ticket`] on admission (or an
    /// immediate cache hit — the completion is already harvestable), or
    /// [`SubmitRejected`] when the admission queue is at its bound: the
    /// would-block answer, carrying a service-time-derived
    /// [`retry_after`](SubmitRejected::retry_after) hint. On rejection the
    /// job is *not* tracked — harvest some completions (freeing queue
    /// capacity) and resubmit.
    ///
    /// The spec's `client` field is overridden with the session's tenant
    /// id, so fairness accounting sees one client regardless of what the
    /// spec said.
    ///
    /// ```
    /// use dwi_runtime::{JobSpec, Runtime, RuntimeConfig};
    /// use dwi_core::{ExecutionPlan, TruncatedNormalKernel};
    /// use std::sync::Arc;
    ///
    /// let rt = Runtime::new(RuntimeConfig::new(1).queue_bound(4));
    /// let mut session = rt.session(7);
    /// let spec = || {
    ///     let kernel = Arc::new(TruncatedNormalKernel::new(1.5, 64, 1));
    ///     JobSpec::kernel(7, kernel, ExecutionPlan::new(2), 1)
    /// };
    /// match session.try_submit(spec()) {
    ///     Ok(ticket) => assert!(!session.is_ready(ticket) || true),
    ///     Err(rejected) => {
    ///         // Would block: back off roughly this long, then retry.
    ///         assert!(rejected.retry_after.as_nanos() > 0);
    ///     }
    /// }
    /// ```
    pub fn try_submit(&mut self, mut spec: JobSpec) -> Result<Ticket, SubmitRejected> {
        spec.client = self.client;
        match self
            .rt
            .submit_inner(spec, Some(Arc::downgrade(&self.shared)))
        {
            Ok(state) => Ok(self.track(state)),
            Err((rejected, _state, _job)) => {
                self.shared.metrics.submit_would_block();
                Err(rejected)
            }
        }
    }

    /// Submit, sleeping out backpressure with the runtime's capped
    /// exponential backoff (same policy as
    /// [`Runtime::submit_blocking`](crate::Runtime::submit_blocking)) —
    /// the convenience path for callers that want session harvesting but
    /// not open-loop admission control.
    pub fn submit_blocking(&mut self, mut spec: JobSpec) -> Ticket {
        spec.client = self.client;
        let state = match self
            .rt
            .submit_inner(spec, Some(Arc::downgrade(&self.shared)))
        {
            Ok(state) => state,
            Err((rejected, state, job)) => self.rt.ride_backpressure(state, job, rejected),
        };
        self.track(state)
    }

    fn track(&mut self, state: Arc<JobState>) -> Ticket {
        let id = state.id;
        self.pending.insert(id, state);
        self.shared
            .metrics
            .jobs_in_flight(&self.shared.client_label, self.pending.len());
        Ticket(id)
    }

    /// Harvest every completion currently in the queue, without blocking.
    /// Completions come back in the order jobs finished, not the order
    /// they were submitted — this is the out-of-order half of the design.
    ///
    /// ```
    /// use dwi_runtime::{JobSpec, Runtime, RuntimeConfig};
    /// use dwi_core::{ExecutionPlan, TruncatedNormalKernel};
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let rt = Runtime::new(RuntimeConfig::new(2));
    /// let mut session = rt.session(0);
    /// let kernel = Arc::new(TruncatedNormalKernel::new(1.5, 64, 3));
    /// let ticket = session
    ///     .try_submit(JobSpec::kernel(0, kernel, ExecutionPlan::new(2), 3))
    ///     .expect("queue has room");
    /// let mut harvested = session.poll(); // may be empty: non-blocking
    /// while harvested.is_empty() {
    ///     harvested = session.wait_any(Duration::from_secs(30));
    /// }
    /// assert_eq!(harvested[0].ticket, ticket);
    /// let report = harvested.remove(0).result.expect("no deadline").into_report();
    /// assert_eq!(report.workitems, 2);
    /// ```
    pub fn poll(&mut self) -> Vec<Completion> {
        let ids: Vec<u64> = {
            let mut q = self.shared.ready.lock().unwrap_or_else(|e| e.into_inner());
            q.drain(..).collect()
        };
        if ids.is_empty() {
            return Vec::new();
        }
        self.shared
            .metrics
            .completion_queue_depth(&self.shared.client_label, 0);
        let out: Vec<Completion> = ids
            .into_iter()
            .map(|id| {
                let state = self
                    .pending
                    .remove(&id)
                    .expect("completion queue delivered an untracked job");
                Self::extract(&state)
            })
            .collect();
        self.shared
            .metrics
            .jobs_in_flight(&self.shared.client_label, self.pending.len());
        out
    }

    /// Harvest at least one completion, blocking up to `timeout` for the
    /// first to arrive (then draining everything ready, as [`poll`]).
    /// Returns empty when the timeout elapses first — or immediately when
    /// nothing is in flight at all.
    ///
    /// [`poll`]: Session::poll
    pub fn wait_any(&mut self, timeout: Duration) -> Vec<Completion> {
        let deadline = Instant::now() + timeout;
        loop {
            let out = self.poll();
            if !out.is_empty() || self.pending.is_empty() {
                return out;
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            let q = self.shared.ready.lock().unwrap_or_else(|e| e.into_inner());
            if q.is_empty() {
                let _ = self
                    .shared
                    .cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Block until *one specific* submission completes, up to `timeout`:
    /// the per-ticket combinator for callers that pipeline a burst but
    /// need one result on the critical path (a closed-loop probe inside
    /// an open-loop stream, a dependency the next submission's spec
    /// needs). Parks on the session's completion condvar — no polling —
    /// and harvests *only* the requested ticket: every other completion
    /// stays queued, in arrival order, for a later [`poll`] /
    /// [`wait_any`] to return.
    ///
    /// Returns `None` when the timeout elapses first, or when the ticket
    /// is not in flight on this session (already harvested, or foreign).
    ///
    /// ```
    /// use dwi_runtime::{JobSpec, Runtime, RuntimeConfig};
    /// use dwi_core::{ExecutionPlan, TruncatedNormalKernel};
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let rt = Runtime::new(RuntimeConfig::new(2));
    /// let mut session = rt.session(0);
    /// let kernel = Arc::new(TruncatedNormalKernel::new(1.5, 64, 9));
    /// let ticket = session
    ///     .try_submit(JobSpec::kernel(0, kernel, ExecutionPlan::new(2), 9))
    ///     .expect("queue has room");
    /// let done = session
    ///     .wait_ticket(ticket, Duration::from_secs(30))
    ///     .expect("completes well within the timeout");
    /// assert_eq!(done.ticket, ticket);
    /// ```
    ///
    /// [`poll`]: Session::poll
    /// [`wait_any`]: Session::wait_any
    pub fn wait_ticket(&mut self, ticket: Ticket, timeout: Duration) -> Option<Completion> {
        if !self.pending.contains_key(&ticket.0) {
            return None;
        }
        let deadline = Instant::now() + timeout;
        let mut q = self.shared.ready.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(pos) = q.iter().position(|&id| id == ticket.0) {
                q.remove(pos);
                let depth = q.len();
                drop(q);
                self.shared
                    .metrics
                    .completion_queue_depth(&self.shared.client_label, depth);
                let state = self
                    .pending
                    .remove(&ticket.0)
                    .expect("ticket membership checked above");
                self.shared
                    .metrics
                    .jobs_in_flight(&self.shared.client_label, self.pending.len());
                return Some(Self::extract(&state));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            q = self
                .shared
                .cv
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Readiness state of one ticket: `true` once the job reached a
    /// terminal state (even if its completion has not been harvested yet),
    /// and for tickets already harvested.
    pub fn is_ready(&self, ticket: Ticket) -> bool {
        match self.pending.get(&ticket.0) {
            Some(state) => matches!(state.lock().status, Status::Done(_) | Status::Failed(_)),
            None => true,
        }
    }

    /// Request cancellation of one in-flight submission. The completion
    /// still arrives — as [`JobError::Cancelled`] if the pool had not
    /// finished it first — so the ticket always resolves exactly once.
    pub fn cancel(&self, ticket: Ticket) {
        if let Some(state) = self.pending.get(&ticket.0) {
            state.cancel();
        }
    }

    fn extract(state: &JobState) -> Completion {
        let mut inner = state.lock();
        let result = match &mut inner.status {
            Status::Done(out) => Ok(out.take().expect("job output already taken")),
            Status::Failed(e) => Err(*e),
            Status::Queued | Status::Running => {
                unreachable!("completion queue only carries terminal jobs")
            }
        };
        Completion {
            ticket: Ticket(state.id),
            result,
            timeline: inner.timeline.clone(),
        }
    }
}

impl Drop for Session<'_> {
    /// Cancel-on-drop: whatever is still in flight is cancelled (pending
    /// shards skipped, capacity freed) and its result slot released — an
    /// abandoned session never leaks queued work into the pool.
    fn drop(&mut self) {
        for state in self.pending.values() {
            state.cancel();
        }
        if !self.pending.is_empty() {
            self.shared
                .metrics
                .jobs_in_flight(&self.shared.client_label, 0);
            self.shared
                .metrics
                .completion_queue_depth(&self.shared.client_label, 0);
        }
    }
}
