//! Remote shard dispatch: attached worker pools on other hosts drain the
//! same shard queue the local workers do.
//!
//! The scheduler stays transport-agnostic: a [`RemoteChannel`] is
//! anything that can take one shard's wire-expressible job description
//! ([`JobSpec::remote`](crate::JobSpec::remote)) plus its
//! [`GraphPlan`] slice and come back with the shard's [`GraphReport`] —
//! `dwi-server` implements it over a framed TCP protocol, the runtime
//! tests with an in-process mock. Because every engine derives its RNG
//! streams from global work-item ids and [`GraphReport::merge`] already
//! recombines shard reports bit-identically, a shard executed on another
//! host merges into exactly the report a local worker would have
//! produced — placement is irrelevant to values by construction.
//!
//! Failure is the important half: a channel error (connection loss,
//! response timeout, undecodable frame) pushes the in-flight shard back
//! to the **front** of the shard queue and detaches the pool. The local
//! workers pick it up next — no job is ever lost, and a dead connection
//! cannot deliver a late duplicate because the remote loop owned the
//! shard for the whole round trip.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dwi_core::graph::{GraphPlan, GraphReport, KernelGraph};

use crate::job::RemoteSpec;
use crate::shard::{ShardTask, ShardWork};
use crate::Core;

/// Why a remote execution failed. Any error detaches the pool and
/// requeues the shard locally.
#[derive(Debug)]
pub struct RemoteError {
    /// Human-readable cause (connection loss, timeout, protocol error).
    pub reason: String,
}

impl RemoteError {
    /// A remote failure with the given cause.
    pub fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "remote shard dispatch failed: {}", self.reason)
    }
}

impl std::error::Error for RemoteError {}

/// One attached remote worker pool: executes one shard at a time, in
/// order, on another host. `run` owns the full round trip — serialize
/// the job description and plan slice, await the result, decode — and
/// must enforce its own response timeout (the runtime treats any `Err`
/// as a disconnect).
///
/// `spec` is the [`RemoteSpec`](crate::RemoteSpec) the submitter
/// attached ([`JobSpec::remote`](crate::JobSpec::remote)); the channel
/// downcasts it to its own wire type. `graph` is the same stage DAG a
/// local worker would run — in-process channels (tests) may execute it
/// directly and ignore `spec`.
pub trait RemoteChannel: Send {
    /// Stable label for metrics (`remote="<label>"`).
    fn label(&self) -> &str;

    /// Execute one shard remotely and return its merged-back report.
    fn run(
        &mut self,
        spec: &RemoteSpec,
        graph: &KernelGraph,
        plan: &GraphPlan,
    ) -> Result<GraphReport, RemoteError>;
}

/// The remote dispatch loop — one thread per attached channel, the
/// remote analogue of `worker_loop`. Takes only remote-eligible graph
/// shards (the submitter attached a wire-expressible description), keeps
/// ownership of the shard across the round trip, and merges successes
/// through the exact same [`finish_kernel_shard`](Core::finish_kernel_shard)
/// path local workers use. On any channel error the shard returns to the
/// front of the queue and the thread exits.
pub(crate) fn remote_loop(core: Arc<Core>, mut channel: Box<dyn RemoteChannel>) {
    let attached = core.remote_workers.fetch_add(1, Ordering::Relaxed) + 1;
    core.metrics.remote_workers(attached);
    let label = channel.label().to_string();
    // Remote shard spans use worker ids above the local pool's range.
    let worker_id = (core.workers + attached) as u32;
    loop {
        let shard: ShardTask =
            {
                let mut st = core.lock_state();
                loop {
                    if st.shutdown {
                        let left = core.remote_workers.fetch_sub(1, Ordering::Relaxed) - 1;
                        core.metrics.remote_workers(left);
                        return;
                    }
                    if let Some(pos) = st.shards.iter().position(|s| {
                        s.remote.is_some() && matches!(s.work, ShardWork::Graph { .. })
                    }) {
                        break st.shards.remove(pos).expect("position was in bounds");
                    }
                    // Dispatch queued jobs exactly like a local worker would —
                    // otherwise a saturated local pool starves an idle remote
                    // pool (shards only exist once someone pops the queue).
                    if let Some(job) = st.queue.pop() {
                        let lane = job.state.priority;
                        core.metrics.queue_depth(lane, st.queue.lane_depth(lane));
                        job.state.lock().timeline.mark_dequeued();
                        if let Some(err) = job.state.abort_error(Instant::now()) {
                            core.finalize_failed(&job.state, err);
                            continue;
                        }
                        st = core.dispatch(st, job);
                        // The exploded shards may be local-only: wake the
                        // local pool unconditionally.
                        core.work_cv.notify_all();
                        continue;
                    }
                    st = core.wait_for_work(st);
                }
            };
        if let Some(err) = shard.state.abort_error(Instant::now()) {
            core.finish_kernel_shard(&shard.state, shard.index, None, None, Some(err));
            continue;
        }
        let ShardWork::Graph { graph, plan } = &shard.work else {
            unreachable!("remote loop only takes graph shards");
        };
        let spec = shard.remote.as_ref().expect("remote loop checked the spec");
        let t_start = Instant::now();
        match channel.run(spec, graph, plan) {
            Ok(report) => {
                let t_end = Instant::now();
                core.metrics
                    .remote_shard_executed(&label, (t_end - t_start).as_secs_f64());
                core.finish_kernel_shard(
                    &shard.state,
                    shard.index,
                    Some((worker_id, t_start, t_end)),
                    Some(report),
                    None,
                );
            }
            Err(_) => {
                // The pool is gone: requeue the shard at the front so the
                // local workers run it next, and detach. The shard never
                // left this thread's ownership, so a late result from the
                // dead connection cannot double-deliver.
                core.metrics.remote_disconnect(&label);
                core.metrics.remote_requeued();
                let mut st = core.lock_state();
                st.shards.push_front(shard);
                drop(st);
                core.work_cv.notify_all();
                let left = core.remote_workers.fetch_sub(1, Ordering::Relaxed) - 1;
                core.metrics.remote_workers(left);
                return;
            }
        }
    }
}
