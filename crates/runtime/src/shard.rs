//! Shard explosion: turning one admitted job into the work-item slices
//! the worker pool actually executes.

use std::sync::Arc;

use crate::job::{JobState, Status, TaskFn};
use crate::queue::{JobWork, QueuedJob};
use dwi_core::graph::{GraphPlan, KernelGraph};

/// One unit of worker work: a contiguous work-item slice of a graph job,
/// or a whole opaque task.
pub(crate) struct ShardTask {
    pub state: Arc<JobState>,
    /// Position in the job's shard order (merge is order-sensitive).
    pub index: usize,
    pub work: ShardWork,
    /// Wire-expressible job description ([`JobSpec::remote`]): when set
    /// (graph shards only), an attached remote worker pool may take this
    /// shard instead of a local worker. Local workers still pop these
    /// normally — remote pools are *extra* capacity, never a constraint.
    ///
    /// [`JobSpec::remote`]: crate::JobSpec::remote
    pub remote: Option<crate::job::RemoteSpec>,
}

pub(crate) enum ShardWork {
    Graph {
        graph: Arc<KernelGraph>,
        plan: GraphPlan,
    },
    Task(TaskFn),
}

/// Split a popped job into `shards` shard tasks and initialize its merge
/// bookkeeping. Graph jobs shard along [`GraphPlan::split`] — every stage
/// slices on the same work-item range, so the global work-item ids (and
/// every derived RNG stream, in every stage) are unchanged; task jobs are
/// a single shard by construction.
pub(crate) fn explode(job: QueuedJob, shards: u32) -> Vec<ShardTask> {
    match job.work {
        JobWork::Graph { graph, plan } => {
            let shard_plans = plan.split(shards);
            let n = shard_plans.len();
            {
                let mut inner = job.state.lock();
                inner.status = Status::Running;
                inner.reports = (0..n).map(|_| None).collect();
                inner.remaining = n;
                inner.plan = Some(plan);
                inner.graph = Some(graph.clone());
                inner.timeline.shards = n as u32;
            }
            shard_plans
                .into_iter()
                .enumerate()
                .map(|(index, plan)| ShardTask {
                    state: job.state.clone(),
                    index,
                    work: ShardWork::Graph {
                        graph: graph.clone(),
                        plan,
                    },
                    remote: job.remote.clone(),
                })
                .collect()
        }
        JobWork::Task(f) => {
            {
                let mut inner = job.state.lock();
                inner.status = Status::Running;
                inner.remaining = 1;
                inner.timeline.shards = 1;
            }
            vec![ShardTask {
                state: job.state,
                index: 0,
                work: ShardWork::Task(f),
                // Task closures cannot cross the wire.
                remote: None,
            }]
        }
    }
}
