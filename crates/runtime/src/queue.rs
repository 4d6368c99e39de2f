//! The admission queue: three strict priority lanes, each sharing
//! capacity round-robin across clients — the multi-tenant analogue of the
//! paper's out-of-order OpenCL command queue (one queue, many enqueuers,
//! dispatch order decoupled from submission order).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crate::job::{JobState, Priority, TaskFn};
use dwi_core::graph::{GraphPlan, KernelGraph};

/// A submission the queue holds until a worker pops it.
pub(crate) struct QueuedJob {
    pub state: Arc<JobState>,
    pub work: JobWork,
    /// Explicit shard-count override ([`JobSpec::shards`]); `None` takes
    /// the runtime's default shard count at dispatch time.
    ///
    /// [`JobSpec::shards`]: crate::JobSpec::shards
    pub shards: Option<u32>,
    /// Wire-expressible job description carried down to every shard,
    /// making them eligible for remote dispatch ([`JobSpec::remote`]).
    ///
    /// [`JobSpec::remote`]: crate::JobSpec::remote
    pub remote: Option<crate::job::RemoteSpec>,
}

/// The work half of a queued job. Kernel submissions are normalized to
/// single-node graphs at admission, so the scheduler speaks graphs only.
pub(crate) enum JobWork {
    Graph {
        graph: Arc<KernelGraph>,
        plan: GraphPlan,
    },
    Task(TaskFn),
}

/// One lane: per-client FIFOs, popped round-robin so a flood from one
/// client cannot starve the others.
#[derive(Default)]
struct Lane {
    clients: Vec<(u32, VecDeque<QueuedJob>)>,
    /// Index of the client to serve next.
    next: usize,
    len: usize,
}

impl Lane {
    fn push(&mut self, job: QueuedJob) {
        let client = job.state.client;
        self.len += 1;
        if let Some((_, q)) = self.clients.iter_mut().find(|(c, _)| *c == client) {
            q.push_back(job);
        } else {
            self.clients.push((client, VecDeque::from([job])));
        }
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        let n = self.clients.len();
        for i in 0..n {
            let idx = (self.next + i) % n;
            if let Some(job) = self.clients[idx].1.pop_front() {
                self.next = (idx + 1) % n;
                self.len -= 1;
                return Some(job);
            }
        }
        None
    }
}

/// The bounded, fair, prioritized admission queue. Bounds are enforced by
/// the runtime (it rejects before pushing); the queue itself just orders.
#[derive(Default)]
pub(crate) struct AdmissionQueue {
    lanes: [Lane; 3],
}

impl AdmissionQueue {
    pub fn push(&mut self, job: QueuedJob) {
        self.lanes[job.state.priority.index()].push(job);
    }

    /// Next job to dispatch: strict lane priority, round-robin within.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        self.lanes.iter_mut().find_map(Lane::pop)
    }

    /// Queued jobs across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len).sum()
    }

    /// Queued jobs in one lane (the queue-depth gauge).
    pub fn lane_depth(&self, p: Priority) -> usize {
        self.lanes[p.index()].len
    }
}

/// Backpressure rejection: the queue is at its bound. Resubmit after
/// roughly [`retry_after`](SubmitRejected::retry_after) — an estimate of
/// when a slot frees up, derived from the observed shard service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitRejected {
    /// Suggested resubmission delay.
    pub retry_after: Duration,
}

impl std::fmt::Display for SubmitRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submission queue full; retry after {:?}",
            self.retry_after
        )
    }
}

impl std::error::Error for SubmitRejected {}
