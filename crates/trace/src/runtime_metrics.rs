//! Canonical metric-family names emitted by the `dwi-runtime` scheduler.
//!
//! The runtime publishes its health through the same [`Registry`]
//! (Prometheus) and [`Track`](crate::Track) (Chrome) paths the engines
//! use. Family names live here — next to the exporters — so the runtime,
//! the benchmark, and the tests agree on the exposition format
//! without string drift.
//!
//! [`Registry`]: crate::metrics::Registry

/// Gauge: jobs currently queued (admitted, not yet fully dispatched),
/// labelled by priority lane (`lane="high"|"normal"|"low"`).
pub const QUEUE_DEPTH: &str = "dwi_runtime_queue_depth";

/// Counter: submission attempts, labelled by priority lane. Incremented
/// for admissions, cache-served submissions, *and* backpressure
/// rejections, so the conservation identity holds exactly:
/// `submitted = completed + rejected + cancelled + expired`.
pub const JOBS_SUBMITTED: &str = "dwi_runtime_jobs_submitted_total";

/// Counter: jobs that completed and delivered a report.
pub const JOBS_COMPLETED: &str = "dwi_runtime_jobs_completed_total";

/// Counter: submissions rejected by backpressure (queue full).
pub const JOBS_REJECTED: &str = "dwi_runtime_jobs_rejected_total";

/// Counter: jobs cancelled by their client before completion.
pub const JOBS_CANCELLED: &str = "dwi_runtime_jobs_cancelled_total";

/// Counter: jobs dropped because their deadline expired in queue or
/// mid-execution.
pub const JOBS_EXPIRED: &str = "dwi_runtime_jobs_expired_total";

/// Counter: result-cache hits (job served without touching a worker).
pub const CACHE_HITS: &str = "dwi_runtime_cache_hits_total";

/// Counter: result-cache misses (job went to the shard queue).
pub const CACHE_MISSES: &str = "dwi_runtime_cache_misses_total";

/// Histogram (log-scale buckets): wall-clock seconds from admission to
/// completion, per job.
pub const JOB_LATENCY: &str = "dwi_runtime_job_latency_seconds";

/// Histogram (log-scale buckets): wall-clock seconds a worker spent
/// executing one shard.
pub const SHARD_LATENCY: &str = "dwi_runtime_shard_latency_seconds";

/// Histogram (log-scale buckets): seconds one job spent in one lifecycle
/// phase, labelled `phase="admit"|"queue"|"dispatch"|"execute"|
/// "merge"|"deliver"|"cache_lookup"` and `lane`. Phases
/// telescope: a job's phase durations sum to its end-to-end latency.
pub const PHASE_SECONDS: &str = "dwi_runtime_phase_seconds";

/// Histogram (log-scale buckets): end-to-end seconds from submission
/// (before any backpressure backoff) to terminal state, labelled `lane`.
pub const JOB_E2E: &str = "dwi_runtime_job_e2e_seconds";

/// Counter: completed-job timelines pushed into the flight recorder.
pub const FLIGHT_RECORDS: &str = "dwi_runtime_flight_records_total";

/// Gauge: per-worker utilization over the runtime's lifetime so far —
/// busy seconds / elapsed seconds, labelled `worker="<index>"`.
pub const WORKER_UTILIZATION: &str = "dwi_runtime_worker_utilization";

/// Counter: shards executed, labelled `worker="<index>"` — the device-
/// saturation view (Section IV-F: keep every compute unit fed).
pub const SHARDS_EXECUTED: &str = "dwi_runtime_shards_executed_total";

/// Summary: shard count chosen per kernel job — the explicit per-job
/// override, or the runtime's default shard count.
pub const SHARDS_PER_JOB: &str = "dwi_runtime_shards_per_job";

/// Gauge: jobs a client currently has in flight through an async
/// submission session — submitted (admitted or cache-served) but not yet
/// harvested from the completion queue. Labelled `client="<id>"`.
pub const JOBS_IN_FLIGHT: &str = "dwi_runtime_jobs_in_flight";

/// Gauge: completions delivered to a session's completion queue but not
/// yet harvested by `poll`/`wait_any`. Labelled `client="<id>"`.
pub const COMPLETION_QUEUE_DEPTH: &str = "dwi_runtime_completion_queue_depth";

/// Counter: non-blocking submissions refused with would-block
/// backpressure (`Session::try_submit` at the queue bound).
pub const SUBMIT_WOULD_BLOCK: &str = "dwi_runtime_submit_would_block_total";

/// Summary: total seconds a blocking submission spent backing off before
/// admission (capped exponential, seeded by the queue's retry-after hint).
pub const SUBMIT_BACKOFF: &str = "dwi_runtime_submit_backoff_seconds";

/// Counter: completed multi-stage graph jobs (single-node graphs — plain
/// kernel jobs — count only under `dwi_runtime_jobs_completed_total`).
pub const GRAPH_JOBS: &str = "dwi_runtime_graph_jobs_total";

/// Histogram (log-scale buckets): modeled seconds one pipeline stage
/// spent stalled (blocked pushing to a full downstream FIFO or starved
/// waiting on an empty upstream one), labelled `stage="<kernel name>"`.
/// Derived from the dataflow stepper's per-stage stall cycles at the
/// plan's clock — the runtime-level view of the paper's decoupling
/// argument: a well-balanced pipeline shows near-zero stall here.
pub const GRAPH_STAGE_STALL_SECONDS: &str = "dwi_runtime_graph_stage_stall_seconds";

/// Summary: modeled peak occupancy of one inter-stage FIFO (tokens), one
/// observation per edge per completed graph job. Read from the dataflow
/// stepper — the same model as [`GRAPH_STAGE_STALL_SECONDS`] — so an
/// edge riding its configured depth is the back-pressure bottleneck and
/// an edge near zero is starved.
pub const GRAPH_EDGE_HIGH_WATER: &str = "dwi_runtime_graph_edge_high_water";

/// Gauge: remote worker pools currently attached to the scheduler (each
/// connected `dwi-server --worker` counts once).
pub const REMOTE_WORKERS: &str = "dwi_runtime_remote_workers";

/// Counter: shards executed on a remote worker pool and merged back,
/// labelled `remote="<label>"`.
pub const REMOTE_SHARDS_EXECUTED: &str = "dwi_runtime_remote_shards_executed_total";

/// Histogram (log-scale buckets): round-trip seconds one shard spent on a
/// remote pool — dispatch, remote execution, and the result frame back.
pub const REMOTE_SHARD_LATENCY: &str = "dwi_runtime_remote_shard_latency_seconds";

/// Counter: remote-pool connection losses (send/receive failure or
/// response timeout), labelled `remote="<label>"`. Every disconnect
/// requeues the in-flight shard locally — no job is lost.
pub const REMOTE_DISCONNECTS: &str = "dwi_runtime_remote_disconnects_total";

/// Counter: shards requeued to the local pool after a remote failure.
pub const REMOTE_REQUEUED: &str = "dwi_runtime_remote_requeued_shards_total";

/// Counter: durable-tier (disk) cache hits — a memory-tier miss rescued
/// by a verified on-disk entry, promoted back into the LRU. Nonzero on a
/// warm restart is the "the cache survived the process" signal.
pub const CACHE_DISK_HITS: &str = "dwi_runtime_cache_disk_hits_total";

/// Counter: durable-tier lookups that produced no usable entry — absent
/// files *and* entries discarded by verification. With the tier enabled,
/// `disk_hits + disk_misses` equals the memory tier's miss count.
pub const CACHE_DISK_MISSES: &str = "dwi_runtime_cache_disk_misses_total";

/// Counter: cache entries written behind to the durable tier (LRU
/// evictions, zero-capacity pass-through, and the shutdown flush).
pub const CACHE_DISK_SPILLS: &str = "dwi_runtime_cache_disk_spills_total";

/// Counter: on-disk entries that failed verification (checksum, magic,
/// version, key echo, or payload decode) and were deleted. Every reject
/// also counts a disk miss; a reject is never trusted or retried.
pub const CACHE_DISK_REJECTS: &str = "dwi_runtime_cache_disk_rejects_total";

/// Every family the runtime exports — the conservation test walks this
/// list to assert a mixed run leaves no family silent, and the README's
/// observability table documents exactly these names.
pub const ALL: &[&str] = &[
    QUEUE_DEPTH,
    JOBS_SUBMITTED,
    JOBS_COMPLETED,
    JOBS_REJECTED,
    JOBS_CANCELLED,
    JOBS_EXPIRED,
    CACHE_HITS,
    CACHE_MISSES,
    JOB_LATENCY,
    SHARD_LATENCY,
    PHASE_SECONDS,
    JOB_E2E,
    FLIGHT_RECORDS,
    WORKER_UTILIZATION,
    SHARDS_EXECUTED,
    SHARDS_PER_JOB,
    JOBS_IN_FLIGHT,
    COMPLETION_QUEUE_DEPTH,
    SUBMIT_WOULD_BLOCK,
    SUBMIT_BACKOFF,
    GRAPH_JOBS,
    GRAPH_STAGE_STALL_SECONDS,
    GRAPH_EDGE_HIGH_WATER,
    REMOTE_WORKERS,
    REMOTE_SHARDS_EXECUTED,
    REMOTE_SHARD_LATENCY,
    REMOTE_DISCONNECTS,
    REMOTE_REQUEUED,
    CACHE_DISK_HITS,
    CACHE_DISK_MISSES,
    CACHE_DISK_SPILLS,
    CACHE_DISK_REJECTS,
];
