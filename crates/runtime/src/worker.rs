//! The worker pool: each worker thread owns one [`Backend`] instance (a
//! "virtual device") and drains the shared shard queue — the Rust shape of
//! the paper's host keeping every compute unit fed through an out-of-order
//! command queue (Section IV-F).
//!
//! Dispatch is one path per job: pop, resolve the shard count, explode,
//! and merge once the last shard lands. The execute hot path allocates
//! nothing: worker labels are rendered once, span labels only
//! materialize when a trace sink is actually attached.

use std::sync::{Arc, MutexGuard};
use std::time::Instant;

use dwi_core::backend::Backend;
use dwi_core::graph::GraphReport;
use dwi_trace::ProcessKind;

use crate::job::{CachedOutput, JobError, JobState, Status};
use crate::queue::QueuedJob;
use crate::shard::{ShardTask, ShardWork};
use crate::timeline::JobOutcome;
use crate::{Core, SchedState};

pub(crate) fn worker_loop(idx: usize, core: Arc<Core>, backend: Box<dyn Backend + Send>) {
    let track = core.sink.track(idx as u32, ProcessKind::Worker);
    // Rendered once: the metric label for every shard this worker runs.
    let worker_label = idx.to_string();
    let started = Instant::now();
    let mut busy_s = 0.0f64;

    loop {
        // Acquire the next shard, dispatching queued jobs as needed.
        let shard: ShardTask = {
            let mut st = core.lock_state();
            loop {
                if let Some(s) = st.shards.pop_front() {
                    break s;
                }
                if let Some(job) = st.queue.pop() {
                    let lane = job.state.priority;
                    core.metrics.queue_depth(lane, st.queue.lane_depth(lane));
                    job.state.lock().timeline.mark_dequeued();
                    // A job cancelled or expired while queued never
                    // reaches a backend: drop it here and keep draining.
                    if let Some(err) = job.state.abort_error(Instant::now()) {
                        core.finalize_failed(&job.state, err);
                        continue;
                    }
                    st = core.dispatch(st, job);
                    continue;
                }
                if st.shutdown {
                    return;
                }
                st = core.wait_for_work(st);
            }
        };

        // A shard of a cancelled/expired job is skipped, not executed —
        // cancellation frees the worker for the next job immediately.
        if let Some(err) = shard.state.abort_error(Instant::now()) {
            core.finish_kernel_shard(&shard.state, shard.index, None, None, Some(err));
            continue;
        }

        let t0 = track.now_ns();
        let t_start = Instant::now();
        match shard.work {
            ShardWork::Graph { graph, plan } => {
                let report = backend.run(graph.as_ref(), &plan);
                if track.keeps_events() {
                    track.span_since(format!("job{} shard{}", shard.state.id, shard.index), t0);
                }
                let t_end = Instant::now();
                let dt = (t_end - t_start).as_secs_f64();
                busy_s += dt;
                core.record_shard(&worker_label, dt);
                core.metrics.worker_utilization(
                    &worker_label,
                    busy_s / started.elapsed().as_secs_f64().max(1e-9),
                );
                core.finish_kernel_shard(
                    &shard.state,
                    shard.index,
                    Some((idx as u32, t_start, t_end)),
                    Some(report),
                    None,
                );
            }
            ShardWork::Task(f) => {
                let out = f();
                if track.keeps_events() {
                    track.span_since(format!("job{} task", shard.state.id), t0);
                }
                let t_end = Instant::now();
                let dt = (t_end - t_start).as_secs_f64();
                busy_s += dt;
                core.record_shard(&worker_label, dt);
                core.metrics.worker_utilization(
                    &worker_label,
                    busy_s / started.elapsed().as_secs_f64().max(1e-9),
                );
                // One last abort check: a deadline may have expired while
                // the task ran, and expiry must win over delivery.
                if let Some(err) = shard.state.abort_error(Instant::now()) {
                    core.finalize_failed(&shard.state, err);
                } else {
                    let (latency, tl) = {
                        let mut inner = shard.state.lock();
                        inner
                            .timeline
                            .record_shard_span(0, idx as u32, t_start, t_end);
                        inner.timeline.mark_merged();
                        (
                            inner.admitted.elapsed().as_secs_f64(),
                            inner.timeline.finish(JobOutcome::Completed),
                        )
                    };
                    core.metrics.job_completed(latency);
                    core.export_timeline(tl);
                    shard
                        .state
                        .finish(Status::Done(Some(crate::job::JobOutput::Task(out))));
                }
            }
        }
    }
}

impl Core {
    /// Turn one popped job into shard-queue entries: resolve the shard
    /// count (explicit override, else one per worker) and explode.
    /// Called with the scheduler lock held; returns it.
    pub(crate) fn dispatch<'a>(
        &self,
        mut st: MutexGuard<'a, SchedState>,
        job: QueuedJob,
    ) -> MutexGuard<'a, SchedState> {
        let shards = job.shards.unwrap_or(self.workers as u32);
        self.metrics.shards_per_job(shards);
        let tasks = crate::shard::explode(job, shards);
        let fanout = tasks.len();
        st.shards.extend(tasks);
        if fanout > 1 {
            // Siblings can start the other shards right away.
            self.work_cv.notify_all();
        }
        st
    }

    /// Record one executed shard: latency summary and the service-time
    /// EMA behind the backpressure retry hint.
    pub(crate) fn record_shard(&self, worker: &str, dt_s: f64) {
        self.metrics.shard_executed(worker, dt_s);
        let mut st = self.lock_state();
        st.ema_shard_secs = if st.ema_shard_secs > 0.0 {
            0.8 * st.ema_shard_secs + 0.2 * dt_s
        } else {
            dt_s
        };
    }

    /// Terminal failure for a whole job (never exploded, or a task).
    pub(crate) fn finalize_failed(&self, state: &JobState, err: JobError) {
        match err {
            JobError::Cancelled => self.metrics.job_cancelled(),
            JobError::Expired => self.metrics.job_expired(),
        }
        let tl = self.close_timeline(state, err.outcome());
        self.export_timeline(tl);
        state.finish(Status::Failed(err));
    }

    /// Account one finished (or skipped) graph shard; the last one
    /// finalizes the job — merging bit-identically when all shards ran,
    /// failing when any was skipped. `span` is the executed shard's
    /// `(worker, start, end)` for the timeline (`None` when skipped).
    pub(crate) fn finish_kernel_shard(
        &self,
        state: &JobState,
        index: usize,
        span: Option<(u32, Instant, Instant)>,
        report: Option<GraphReport>,
        err: Option<JobError>,
    ) {
        let mut inner = state.lock();
        if let Some((worker, start, end)) = span {
            inner
                .timeline
                .record_shard_span(index as u32, worker, start, end);
        }
        if let Some(r) = report {
            inner.reports[index] = Some(r);
        }
        if let Some(e) = err {
            inner.aborted.get_or_insert(e);
        }
        inner.remaining -= 1;
        if inner.remaining > 0 {
            return;
        }
        // Last shard: finalize. Expiry during the final shard still wins
        // over delivery, matching the queued-job and task paths.
        if let Some(e) = inner.aborted.or_else(|| state.abort_error(Instant::now())) {
            drop(inner);
            self.finalize_failed(state, e);
            return;
        }
        let plan = inner.plan.take().expect("graph job lost its plan");
        let graph = inner.graph.take().expect("graph job lost its graph");
        let shards: Vec<_> = inner
            .reports
            .drain(..)
            .map(|r| r.expect("unskipped shard missing its report"))
            .collect();
        let merged = GraphReport::merge(&graph, &plan, shards);
        if merged.stages.len() > 1 {
            // Stage sub-spans for the timeline's execute phase; recorded
            // before mark_merged so finish() sees a consistent record.
            inner.timeline.record_stage_marks(&merged.stage_elapsed);
        }
        inner.timeline.mark_merged();
        // Per-stage stall and per-edge occupancy observations for the
        // pipeline metric families, both from the dataflow model and
        // emitted after the locks drop.
        let graph_obs = merged.dataflow.as_ref().map(|d| {
            let stalls: Vec<(&'static str, f64)> = graph
                .node_names()
                .into_iter()
                .zip(d.stage_stalls.iter())
                .map(|(n, &s)| (n, s as f64 / plan.base.freq_hz))
                .collect();
            let high_water: Vec<f64> = d.edge_high_water.iter().map(|&h| h as f64).collect();
            (stalls, high_water)
        });
        let (output, cached) = if merged.is_single() {
            let report = Arc::new(merged.into_single());
            (
                crate::job::JobOutput::Kernel(report.clone()),
                CachedOutput::Single(report),
            )
        } else {
            let report = Arc::new(merged);
            (
                crate::job::JobOutput::Graph(report.clone()),
                CachedOutput::Graph(report),
            )
        };
        let latency = inner.admitted.elapsed().as_secs_f64();
        // Cache before waking waiters, so a waiter's immediate
        // resubmit hits. Lock order is always job-inner → cache,
        // never reversed. Evictions spill to disk only after the
        // job-inner lock drops — file I/O never runs under a
        // job's critical section.
        let spill = match inner.cache_key.take() {
            Some(k) => self.lock_cache().put(k, cached),
            None => Vec::new(),
        };
        let tl = inner.timeline.finish(JobOutcome::Completed);
        // Export while the completion is not yet observable, so
        // a waiter that sees Done can immediately flight-dump
        // this job (sink locks nest inside the inner lock).
        self.export_timeline(tl);
        inner.status = Status::Done(Some(output));
        drop(inner);
        self.spill(spill);
        state.cv.notify_all();
        state.fire_completion();
        self.metrics.job_completed(latency);
        if let Some((stalls, high_water)) = graph_obs {
            self.metrics.graph_job_completed();
            for (stage, secs) in stalls {
                self.metrics.graph_stage_stall(stage, secs);
            }
            for hw in high_water {
                self.metrics.graph_edge_high_water(hw);
            }
        }
    }
}
