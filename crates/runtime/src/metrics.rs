//! Runtime health metrics, published through the session's
//! [`TraceSink`] under the family names of
//! [`dwi_trace::runtime_metrics`] — they land in the same Prometheus
//! text exposition and Chrome timeline as the engines' own metrics.

use dwi_trace::{runtime_metrics as fam, TraceSink};

use crate::job::Priority;

/// Cheap recording facade; every method is a no-op on a disabled sink.
#[derive(Clone)]
pub(crate) struct RuntimeMetrics {
    sink: TraceSink,
}

impl RuntimeMetrics {
    pub fn new(sink: TraceSink) -> Self {
        Self { sink }
    }

    pub fn job_submitted(&self, lane: Priority) {
        self.sink
            .counter(fam::JOBS_SUBMITTED, &[("lane", lane.label())])
            .inc();
    }

    pub fn job_completed(&self, latency_s: f64) {
        self.sink.counter(fam::JOBS_COMPLETED, &[]).inc();
        self.sink
            .observe_histogram(fam::JOB_LATENCY, &[], latency_s);
    }

    pub fn job_rejected(&self) {
        self.sink.counter(fam::JOBS_REJECTED, &[]).inc();
    }

    pub fn job_cancelled(&self) {
        self.sink.counter(fam::JOBS_CANCELLED, &[]).inc();
    }

    pub fn job_expired(&self) {
        self.sink.counter(fam::JOBS_EXPIRED, &[]).inc();
    }

    pub fn cache_hit(&self) {
        self.sink.counter(fam::CACHE_HITS, &[]).inc();
    }

    pub fn cache_miss(&self) {
        self.sink.counter(fam::CACHE_MISSES, &[]).inc();
    }

    pub fn cache_disk_hit(&self) {
        self.sink.counter(fam::CACHE_DISK_HITS, &[]).inc();
    }

    pub fn cache_disk_miss(&self) {
        self.sink.counter(fam::CACHE_DISK_MISSES, &[]).inc();
    }

    pub fn cache_disk_spill(&self) {
        self.sink.counter(fam::CACHE_DISK_SPILLS, &[]).inc();
    }

    pub fn cache_disk_reject(&self) {
        self.sink.counter(fam::CACHE_DISK_REJECTS, &[]).inc();
    }

    pub fn queue_depth(&self, lane: Priority, depth: usize) {
        self.sink
            .set_gauge(fam::QUEUE_DEPTH, &[("lane", lane.label())], depth as f64);
    }

    /// `worker` is the worker's pre-rendered index label — workers format
    /// it once at startup so the dispatch hot path allocates nothing here.
    pub fn shard_executed(&self, worker: &str, latency_s: f64) {
        self.sink
            .counter(fam::SHARDS_EXECUTED, &[("worker", worker)])
            .inc();
        self.sink
            .observe_histogram(fam::SHARD_LATENCY, &[], latency_s);
    }

    /// One lifecycle phase duration for a finished job, attributed by
    /// the telescoping model of [`crate::JobTimeline`].
    pub fn phase(&self, phase: &'static str, lane: &'static str, secs: f64) {
        self.sink.observe_histogram(
            fam::PHASE_SECONDS,
            &[("phase", phase), ("lane", lane)],
            secs,
        );
    }

    /// End-to-end submitted→terminal latency for a finished job.
    pub fn job_e2e(&self, lane: &'static str, secs: f64) {
        self.sink
            .observe_histogram(fam::JOB_E2E, &[("lane", lane)], secs);
    }

    /// One timeline written into the flight recorder ring.
    pub fn flight_recorded(&self) {
        self.sink.counter(fam::FLIGHT_RECORDS, &[]).inc();
    }

    pub fn worker_utilization(&self, worker: &str, frac: f64) {
        self.sink
            .set_gauge(fam::WORKER_UTILIZATION, &[("worker", worker)], frac);
    }

    /// Shard count chosen for one kernel dispatch.
    pub fn shards_per_job(&self, shards: u32) {
        self.sink.observe(fam::SHARDS_PER_JOB, &[], shards as f64);
    }

    /// Jobs a session currently has in flight (submitted, unharvested).
    /// `client` is the session's pre-rendered tenant label.
    pub fn jobs_in_flight(&self, client: &str, n: usize) {
        self.sink
            .set_gauge(fam::JOBS_IN_FLIGHT, &[("client", client)], n as f64);
    }

    /// Completions parked in a session's completion queue, unharvested.
    pub fn completion_queue_depth(&self, client: &str, depth: usize) {
        self.sink.set_gauge(
            fam::COMPLETION_QUEUE_DEPTH,
            &[("client", client)],
            depth as f64,
        );
    }

    /// One `try_submit` refused with would-block backpressure.
    pub fn submit_would_block(&self) {
        self.sink.counter(fam::SUBMIT_WOULD_BLOCK, &[]).inc();
    }

    /// Total backoff one blocking submission slept out before admission.
    pub fn submit_backoff(&self, total_s: f64) {
        self.sink.observe(fam::SUBMIT_BACKOFF, &[], total_s);
    }

    /// One completed multi-stage graph job.
    pub fn graph_job_completed(&self) {
        self.sink.counter(fam::GRAPH_JOBS, &[]).inc();
    }

    /// Modeled seconds one pipeline stage spent stalled, from the merged
    /// graph report's dataflow accounting. `stage` is the stage kernel's
    /// static name.
    pub fn graph_stage_stall(&self, stage: &'static str, secs: f64) {
        self.sink
            .observe_histogram(fam::GRAPH_STAGE_STALL_SECONDS, &[("stage", stage)], secs);
    }

    /// Modeled peak occupancy of one inter-stage FIFO over a completed
    /// graph job (tokens), from the merged report's dataflow model.
    pub fn graph_edge_high_water(&self, tokens: f64) {
        self.sink.observe(fam::GRAPH_EDGE_HIGH_WATER, &[], tokens);
    }

    /// Remote worker pools currently attached.
    pub fn remote_workers(&self, n: usize) {
        self.sink.set_gauge(fam::REMOTE_WORKERS, &[], n as f64);
    }

    /// One shard executed on a remote pool and merged back. `remote` is
    /// the channel's pre-rendered label.
    pub fn remote_shard_executed(&self, remote: &str, latency_s: f64) {
        self.sink
            .counter(fam::REMOTE_SHARDS_EXECUTED, &[("remote", remote)])
            .inc();
        self.sink
            .observe_histogram(fam::REMOTE_SHARD_LATENCY, &[], latency_s);
    }

    /// One remote-pool connection loss (send/receive failure or timeout).
    pub fn remote_disconnect(&self, remote: &str) {
        self.sink
            .counter(fam::REMOTE_DISCONNECTS, &[("remote", remote)])
            .inc();
    }

    /// One shard requeued to the local pool after a remote failure.
    pub fn remote_requeued(&self) {
        self.sink.counter(fam::REMOTE_REQUEUED, &[]).inc();
    }
}
