//! Canonical metric-family names emitted by the `dwi-server` gateway.
//!
//! Like [`runtime_metrics`](crate::runtime_metrics), the names live next
//! to the exporters so the gateway, the benchmark, and the CI
//! smoke agree on the exposition format without string drift. The gateway
//! shares one [`Registry`](crate::metrics::Registry) with the runtime it
//! fronts, so `/metrics` exposes both the `dwi_server_*` families below
//! and the full `dwi_runtime_*` set in a single scrape.

/// Counter: HTTP requests served, labelled `route` (the route pattern,
/// e.g. `"/v1/jobs/{id}"`, never the raw path — unbounded label values
/// would blow up the registry) and `code` (the numeric status).
pub const HTTP_REQUESTS: &str = "dwi_server_http_requests_total";

/// Histogram (log-scale buckets): wall-clock seconds from the first
/// request byte parsed to the last response byte written, labelled
/// `route`.
pub const HTTP_REQUEST_SECONDS: &str = "dwi_server_http_request_seconds";

/// Counter: jobs accepted through `POST /v1/jobs`, labelled
/// `tenant="<client id>"`.
pub const JOBS_SUBMITTED: &str = "dwi_server_jobs_submitted_total";

/// Counter: submissions refused before reaching the runtime, labelled
/// `tenant` and `reason="auth"|"rate"|"quota"|"backpressure"|"bad_request"`.
/// Runtime-level backpressure (`SubmitRejected`) counts here *and* in
/// `dwi_runtime_jobs_rejected_total` — the server row is the client-facing
/// view, the runtime row keeps the conservation identity.
pub const JOBS_REJECTED: &str = "dwi_server_jobs_rejected_total";

/// Gauge: TCP connections currently being served by handler threads.
pub const ACTIVE_CONNECTIONS: &str = "dwi_server_active_connections";

/// Counter: long-polls (`GET /v1/jobs/{id}/wait`) that hit their bounded
/// timeout and returned `204 No Content` with the job still in flight.
pub const LONGPOLL_EXPIRED: &str = "dwi_server_longpoll_expired_total";

/// Counter: shard frames executed on behalf of a coordinator by this
/// process in `--worker` mode, labelled `backend`.
pub const WORKER_SHARDS: &str = "dwi_server_worker_shards_total";

/// Every family the server exports — the gateway smoke walks this list
/// (minus the worker-mode family) to assert a mixed HTTP run leaves no
/// family silent.
pub const ALL: &[&str] = &[
    HTTP_REQUESTS,
    HTTP_REQUEST_SECONDS,
    JOBS_SUBMITTED,
    JOBS_REJECTED,
    ACTIVE_CONNECTIONS,
    LONGPOLL_EXPIRED,
    WORKER_SHARDS,
];
