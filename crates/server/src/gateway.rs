//! The HTTP gateway: a network front door over the runtime.
//!
//! One [`Gateway`] owns a [`Runtime`], a shared metrics [`Recorder`]
//! (so `/metrics` exposes the `dwi_runtime_*` and `dwi_server_*`
//! families in a single scrape), the tenant table, and the job registry
//! mapping HTTP-visible job ids to live [`JobHandle`]s.
//!
//! Routes:
//!
//! | Method | Path                  | Action |
//! |--------|-----------------------|--------|
//! | POST   | `/v1/jobs`            | submit a JSON job spec → `202` + id |
//! | GET    | `/v1/jobs/{id}`       | poll → `pending` / `done` + result / `failed` |
//! | GET    | `/v1/jobs/{id}/wait`  | long-poll (`timeout_ms` query, capped); `204` on expiry |
//! | DELETE | `/v1/jobs/{id}`       | cancel |
//! | GET    | `/healthz`            | liveness |
//! | GET    | `/metrics`            | Prometheus text exposition |
//!
//! Admission control happens in layers, cheapest first: bearer-token
//! auth (`401`), per-tenant token-bucket rate limit (`429` +
//! `Retry-After`), per-tenant in-flight quota (`429`), spec validation
//! (`400`), and finally the runtime's own bounded admission queue —
//! [`dwi_runtime::SubmitRejected::retry_after`] maps to `429` +
//! `Retry-After`, making
//! runtime backpressure a first-class HTTP signal.
//!
//! Connections are kept alive (see [`crate::http`]): each open connection
//! holds one handler thread, spawned when it is accepted, and at most
//! [`MAX_CONNECTIONS`] are open at once. A connection past that gets
//! `503` + `Retry-After` from the accept thread. Thread-per-connection
//! under this cap bounds the handler threads with no accept queue:
//! a kept-alive client holds its connection and its thread for many
//! requests. Since [`crate::http`] bounds every request and response in
//! time, no peer keeps a slot past one timeout by being slow, and
//! [`RunningGateway::stop`] closes the connections still open.
//!
//! The gateway also owns the cluster listener: a remote worker process
//! (`dwi-server --worker --join <addr>`) connects, sends HELLO, and is
//! attached to the runtime as a [`RemoteChannel`] — from then on the
//! scheduler treats it as extra capacity for remote-eligible shards,
//! falling back to local execution the moment the connection dies.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dwi_core::graph::{GraphPlan, GraphReport, KernelGraph};
use dwi_core::RunReport;
use dwi_hls::sim::SimResult;
use dwi_runtime::{
    CacheKey, JobError, JobHandle, JobOutput, JobSpec, RemoteChannel, RemoteError, RemoteSpec,
    Runtime, RuntimeConfig,
};
use dwi_trace::json::{escape_str, Json};
use dwi_trace::server_metrics as sm;
use dwi_trace::{Recorder, TraceSink};

use crate::http::{
    read_request, respond, respond_error, HttpError, Request, MAX_REQUESTS_PER_CONNECTION,
    READ_TIMEOUT, WRITE_TIMEOUT,
};
use crate::spec::{parse_job, ParsedJob};
use crate::wire;

/// Long-poll default and hard cap.
const WAIT_DEFAULT: Duration = Duration::from_secs(10);
const WAIT_CAP: Duration = Duration::from_secs(30);
/// Registry size above which finished jobs are evicted oldest-first.
const REGISTRY_SOFT_CAP: usize = 4096;
/// How long the coordinator waits for a remote worker's RESULT before
/// declaring the connection dead and falling back to local execution.
const REMOTE_RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);
/// How long the cluster listener waits for a connecting worker's HELLO.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);
/// Most HTTP connections served at once. Each keeps one handler thread
/// for its whole life, kept-alive idle ones included, so this also bounds
/// the handler threads. Past it the accept thread answers `503` +
/// `Retry-After` itself and closes.
pub const MAX_CONNECTIONS: usize = 64;
/// How long a refused connection's already-sent request is read before
/// the socket closes, so the close does not reset the connection under
/// the `503` (at most [`REFUSE_DRAIN_READS`] reads of this).
const REFUSE_DRAIN: Duration = Duration::from_millis(5);
const REFUSE_DRAIN_READS: usize = 4;
/// A long-poll checks for shutdown this often, so a stopping gateway does
/// not wait out a client's `timeout_ms`.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// One configured tenant.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Display name (metrics label).
    pub name: String,
    /// Bearer token.
    pub token: String,
    /// Token-bucket refill rate, submissions per second.
    pub rate: f64,
    /// Token-bucket capacity (burst size).
    pub burst: f64,
    /// Max in-flight jobs.
    pub quota: usize,
}

impl Tenant {
    /// A tenant with the default limits (20 submissions/s, burst 40,
    /// 64 in flight).
    pub fn new(token: impl Into<String>, name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            token: token.into(),
            rate: 20.0,
            burst: 40.0,
            quota: 64,
        }
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// What kind of output the registry entry will harvest.
enum JobKind {
    Graph,
    Sim,
    Transfers,
}

struct GatewayJob {
    tenant: String,
    kind: JobKind,
    handle: Arc<JobHandle>,
    /// Rendered terminal response body, cached at first harvest (the
    /// handle's output can be taken exactly once).
    done: Option<String>,
    created: u64,
}

/// Gateway configuration.
pub struct GatewayConfig {
    /// Local worker threads for the embedded runtime.
    pub workers: usize,
    /// Admission-queue bound.
    pub queue_bound: usize,
    /// Tenant table; empty = anonymous access (no auth, no limits).
    pub tenants: Vec<Tenant>,
    /// Durable result-cache directory for the embedded runtime: a
    /// restarted gateway reads its predecessor's spilled reports and
    /// serves repeat submissions warm (`None` = memory-only cache).
    pub cache_dir: Option<std::path::PathBuf>,
}

impl GatewayConfig {
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            queue_bound: 64,
            tenants: Vec::new(),
            cache_dir: None,
        }
    }
}

/// The shared gateway state. Handler threads hold an `Arc<Gateway>`.
/// One routed response: (route label, status, extra headers, content
/// type, body). The label is the route *pattern* — never the raw path —
/// so the `dwi_server_http_requests_total{route}` label set stays
/// bounded.
type Routed = (
    &'static str,
    u16,
    Vec<(&'static str, String)>,
    &'static str,
    Vec<u8>,
);

pub struct Gateway {
    rt: Runtime,
    rec: Recorder,
    tenants: Vec<Tenant>,
    buckets: Mutex<Vec<Bucket>>,
    jobs: Mutex<HashMap<u64, GatewayJob>>,
    seq: std::sync::atomic::AtomicU64,
    /// The open HTTP connections.
    conns: Arc<Connections>,
    shutdown: AtomicBool,
}

impl Gateway {
    /// Build a gateway and its embedded runtime. All metrics — the
    /// runtime's and the server's — share one recorder. It keeps metrics
    /// only: a long-lived server must not accumulate every job's timeline
    /// spans, which nothing reads; the runtime's bounded flight recorder
    /// still keeps the recent timelines.
    pub fn new(config: GatewayConfig) -> Self {
        let rec = Recorder::metrics_only();
        let mut rt_cfg = RuntimeConfig::new(config.workers).queue_bound(config.queue_bound);
        if let Some(dir) = config.cache_dir {
            rt_cfg = rt_cfg.disk_cache(dir);
        }
        rt_cfg.sink = rec.sink();
        let rt = Runtime::new(rt_cfg);
        let buckets = config
            .tenants
            .iter()
            .map(|t| Bucket {
                tokens: t.burst,
                last: Instant::now(),
            })
            .collect();
        Self {
            rt,
            rec,
            tenants: config.tenants,
            buckets: Mutex::new(buckets),
            jobs: Mutex::new(HashMap::new()),
            seq: std::sync::atomic::AtomicU64::new(0),
            conns: Arc::new(Connections::default()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The embedded runtime (tests attach probes; the cluster listener
    /// attaches remote channels).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The shared metrics recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    fn sink(&self) -> TraceSink {
        self.rec.sink()
    }

    /// Signal every serving loop to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    // -----------------------------------------------------------------
    // Admission layers
    // -----------------------------------------------------------------

    /// Resolve the tenant a request authenticates as. `Ok(None)` is the
    /// anonymous tenant (only when no tenants are configured).
    fn authenticate(&self, req: &Request) -> Result<Option<usize>, HttpError> {
        if self.tenants.is_empty() {
            return Ok(None);
        }
        let token = req
            .header("authorization")
            .and_then(|v| v.strip_prefix("Bearer "))
            .ok_or(HttpError {
                status: 401,
                reason: "missing bearer token",
            })?;
        self.tenants
            .iter()
            .position(|t| t.token == token)
            .map(Some)
            .ok_or(HttpError {
                status: 401,
                reason: "unknown bearer token",
            })
    }

    fn tenant_name(&self, idx: Option<usize>) -> &str {
        idx.map(|i| self.tenants[i].name.as_str()).unwrap_or("anon")
    }

    /// Take one token from the tenant's bucket, or compute the retry
    /// hint.
    fn take_rate_token(&self, idx: usize) -> Result<(), Duration> {
        let t = &self.tenants[idx];
        let mut buckets = self.buckets.lock().unwrap();
        let b = &mut buckets[idx];
        let now = Instant::now();
        let elapsed = now.duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + elapsed * t.rate).min(t.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            let wait = (1.0 - b.tokens) / t.rate;
            Err(Duration::from_secs_f64(wait))
        }
    }

    /// Jobs this tenant still has in flight (not yet terminal).
    fn in_flight(&self, tenant: &str) -> usize {
        let jobs = self.jobs.lock().unwrap();
        jobs.values()
            .filter(|j| j.tenant == tenant && j.done.is_none())
            .filter(|j| j.handle.wait_ready(Duration::ZERO).is_none())
            .count()
    }

    // -----------------------------------------------------------------
    // Submission
    // -----------------------------------------------------------------

    /// Client id for the runtime's per-client fairness lanes: tenants
    /// get stable small ids, anonymous gets 0.
    fn client_id(idx: Option<usize>) -> u32 {
        idx.map(|i| i as u32 + 1).unwrap_or(0)
    }

    fn submit(
        &self,
        body: &str,
        tenant_idx: Option<usize>,
    ) -> (u16, Vec<(&'static str, String)>, String) {
        let tenant = self.tenant_name(tenant_idx).to_string();
        let sink = self.sink();

        if let Some(idx) = tenant_idx {
            if let Err(wait) = self.take_rate_token(idx) {
                sink.counter(
                    sm::JOBS_REJECTED,
                    &[("tenant", &tenant), ("reason", "rate")],
                )
                .inc();
                return (
                    429,
                    vec![("Retry-After", wait.as_secs().max(1).to_string())],
                    err_body("rate limit exceeded"),
                );
            }
            if self.in_flight(&tenant) >= self.tenants[idx].quota {
                sink.counter(
                    sm::JOBS_REJECTED,
                    &[("tenant", &tenant), ("reason", "quota")],
                )
                .inc();
                return (
                    429,
                    vec![("Retry-After", "1".to_string())],
                    err_body("in-flight quota exceeded"),
                );
            }
        }

        let parsed = match parse_job(body) {
            Ok(p) => p,
            Err(msg) => {
                sink.counter(
                    sm::JOBS_REJECTED,
                    &[("tenant", &tenant), ("reason", "bad_request")],
                )
                .inc();
                return (400, Vec::new(), err_body(&msg));
            }
        };

        let client = Self::client_id(tenant_idx);
        let (spec, kind) = match parsed {
            ParsedJob::Graph {
                graph,
                plan,
                seed,
                shards,
                priority,
                deadline,
                graph_json,
            } => {
                // The runtime's cache key now folds every node's
                // constructor-parameter digest into the fingerprint;
                // folding the canonical spec hash into the seed stays as
                // defense in depth for spec fields outside the
                // fingerprint, while identical resubmissions keep
                // identical keys (so they still hit the cache).
                let seed = CacheKey::fold_spec_seed(seed, graph_json.as_bytes());
                let mut spec = JobSpec::graph(client, graph, plan, seed)
                    .priority(priority)
                    .remote(Arc::new(WireJobSpec {
                        graph_json,
                        backend: "functional-decoupled".to_string(),
                    }) as RemoteSpec);
                if let Some(s) = shards {
                    spec = spec.shards(s);
                }
                if let Some(d) = deadline {
                    spec = spec.deadline(d);
                }
                (spec, JobKind::Graph)
            }
            ParsedJob::Sim(cfg) => (
                JobSpec::task(client, move || dwi_hls::sim::run(&cfg)),
                JobKind::Sim,
            ),
            ParsedJob::Transfers {
                channel,
                total,
                burst,
                workitems,
            } => (
                JobSpec::task(client, move || {
                    (
                        channel.transfers_only_runtime(total, burst, workitems),
                        channel.effective_bandwidth(burst, workitems),
                    )
                }),
                JobKind::Transfers,
            ),
        };

        match self.rt.submit(spec) {
            Ok(handle) => {
                let id = handle.id();
                let created = self.seq.fetch_add(1, Ordering::Relaxed);
                let mut jobs = self.jobs.lock().unwrap();
                if jobs.len() >= REGISTRY_SOFT_CAP {
                    evict_finished(&mut jobs);
                }
                jobs.insert(
                    id,
                    GatewayJob {
                        tenant: tenant.clone(),
                        kind,
                        handle: Arc::new(handle),
                        done: None,
                        created,
                    },
                );
                drop(jobs);
                sink.counter(sm::JOBS_SUBMITTED, &[("tenant", &tenant)])
                    .inc();
                (
                    202,
                    Vec::new(),
                    format!("{{\"id\":{id},\"state\":\"pending\"}}\n"),
                )
            }
            Err(rejected) => {
                sink.counter(
                    sm::JOBS_REJECTED,
                    &[("tenant", &tenant), ("reason", "backpressure")],
                )
                .inc();
                let secs = rejected.retry_after.as_secs_f64().ceil().max(1.0) as u64;
                (
                    429,
                    vec![("Retry-After", secs.to_string())],
                    err_body("runtime admission queue full"),
                )
            }
        }
    }

    // -----------------------------------------------------------------
    // Poll / wait / cancel
    // -----------------------------------------------------------------

    /// Render the job's current state, harvesting and caching the
    /// terminal body on first sight. Must be called with the registry
    /// lock held by the caller via the jobs mutex (this takes it).
    fn job_status(&self, id: u64) -> Option<String> {
        let mut jobs = self.jobs.lock().unwrap();
        let job = jobs.get_mut(&id)?;
        if let Some(body) = &job.done {
            return Some(body.clone());
        }
        match job.handle.harvest() {
            None => Some(format!("{{\"id\":{id},\"state\":\"pending\"}}\n")),
            Some(Ok(output)) => {
                let body = render_done(id, &job.kind, output);
                job.done = Some(body.clone());
                Some(body)
            }
            Some(Err(e)) => {
                let body = render_failed(id, &e);
                job.done = Some(body.clone());
                Some(body)
            }
        }
    }

    fn handle_for(&self, id: u64) -> Option<Arc<JobHandle>> {
        self.jobs.lock().unwrap().get(&id).map(|j| j.handle.clone())
    }

    fn cancel(&self, id: u64) -> Option<String> {
        let handle = self.handle_for(id)?;
        handle.cancel();
        // Cancellation is lazy: the runtime finalizes the job when a
        // worker next dequeues it. Until then, report "cancelling"; once
        // terminal, report what actually happened (cancel can race a
        // completion, and the truth wins).
        match self.job_status(id)? {
            body if body.contains("\"state\":\"pending\"") => {
                Some(format!("{{\"id\":{id},\"state\":\"cancelling\"}}\n"))
            }
            body => Some(body),
        }
    }

    // -----------------------------------------------------------------
    // Request dispatch
    // -----------------------------------------------------------------

    /// Route one parsed request. Returns (route label, status, extra
    /// headers, content type, body).
    fn route(&self, req: &Request) -> Routed {
        let path = req.path();
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => (
                "/healthz",
                200,
                Vec::new(),
                "application/json",
                b"{\"ok\":true}\n".to_vec(),
            ),
            ("GET", "/metrics") => {
                // Read at scrape time: one value, never a stale write
                // from a racing handler.
                let active = self.conns.count();
                self.sink()
                    .set_gauge(sm::ACTIVE_CONNECTIONS, &[], active as f64);
                (
                    "/metrics",
                    200,
                    Vec::new(),
                    "text/plain; version=0.0.4",
                    self.rec.prometheus().into_bytes(),
                )
            }
            ("POST", "/v1/jobs") => {
                let tenant_idx = match self.authenticate(req) {
                    Ok(t) => t,
                    Err(e) => {
                        self.sink()
                            .counter(
                                sm::JOBS_REJECTED,
                                &[("tenant", "unknown"), ("reason", "auth")],
                            )
                            .inc();
                        return (
                            "/v1/jobs",
                            e.status,
                            Vec::new(),
                            "application/json",
                            err_body(e.reason).into_bytes(),
                        );
                    }
                };
                let body = match std::str::from_utf8(&req.body) {
                    Ok(s) => s,
                    Err(_) => {
                        return (
                            "/v1/jobs",
                            400,
                            Vec::new(),
                            "application/json",
                            err_body("body is not UTF-8").into_bytes(),
                        )
                    }
                };
                let (status, headers, body) = self.submit(body, tenant_idx);
                (
                    "/v1/jobs",
                    status,
                    headers,
                    "application/json",
                    body.into_bytes(),
                )
            }
            _ => self.route_job(req, path),
        }
    }

    fn route_job(&self, req: &Request, path: &str) -> Routed {
        let not_found = |route: &'static str| {
            (
                route,
                404,
                Vec::new(),
                "application/json",
                err_body("no such job").into_bytes(),
            )
        };
        if let Some(rest) = path.strip_prefix("/v1/jobs/") {
            // Auth gates job-state routes too, so one tenant cannot poll
            // or cancel another's jobs by guessing ids. (Per-tenant
            // ownership checks ride on the registry's tenant field.)
            let tenant_idx = match self.authenticate(req) {
                Ok(t) => t,
                Err(e) => {
                    return (
                        "/v1/jobs/{id}",
                        e.status,
                        Vec::new(),
                        "application/json",
                        err_body(e.reason).into_bytes(),
                    )
                }
            };
            let (id_str, is_wait) = match rest.strip_suffix("/wait") {
                Some(prefix) => (prefix, true),
                None => (rest, false),
            };
            let Ok(id) = id_str.parse::<u64>() else {
                return (
                    "/v1/jobs/{id}",
                    400,
                    Vec::new(),
                    "application/json",
                    err_body("job id must be an integer").into_bytes(),
                );
            };
            // Ownership check. A finished job can still be evicted from
            // the registry before a route below re-locks it; that route
            // then answers 404 too.
            let route = if is_wait {
                "/v1/jobs/{id}/wait"
            } else {
                "/v1/jobs/{id}"
            };
            match self.jobs.lock().unwrap().get(&id) {
                Some(j) if j.tenant == self.tenant_name(tenant_idx) => {}
                _ => return not_found(route),
            }
            let done = |status, body: String| {
                (
                    route,
                    status,
                    Vec::new(),
                    "application/json",
                    body.into_bytes(),
                )
            };
            return match (req.method.as_str(), is_wait) {
                ("GET", false) => match self.job_status(id) {
                    Some(body) => done(200, body),
                    None => not_found(route),
                },
                ("GET", true) => {
                    let timeout = req
                        .query("timeout_ms")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_millis)
                        .unwrap_or(WAIT_DEFAULT)
                        .min(WAIT_CAP);
                    let Some(handle) = self.handle_for(id) else {
                        return not_found(route);
                    };
                    // Block OUTSIDE the registry lock; render under it.
                    match self.wait_ready(&handle, timeout) {
                        None => {
                            self.sink().counter(sm::LONGPOLL_EXPIRED, &[]).inc();
                            done(204, String::new())
                        }
                        Some(_) => match self.job_status(id) {
                            Some(body) => done(200, body),
                            None => not_found(route),
                        },
                    }
                }
                ("DELETE", false) => match self.cancel(id) {
                    Some(body) => done(200, body),
                    None => not_found(route),
                },
                _ => done(405, err_body("method not allowed")),
            };
        }
        not_found("other")
    }

    /// Long-poll `handle` for up to `timeout`, waking every
    /// [`SHUTDOWN_POLL`] to give up once the gateway shuts down.
    fn wait_ready(&self, handle: &JobHandle, timeout: Duration) -> Option<Result<(), JobError>> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let ready = handle.wait_ready(left.min(SHUTDOWN_POLL));
            if ready.is_some() || left <= SHUTDOWN_POLL || self.is_shutting_down() {
                return ready;
            }
        }
    }

    /// Serve one connection, request after request, until the peer
    /// closes it or asks to (`Connection: close`, or HTTP/1.0 without
    /// `keep-alive`), it idles past [`READ_TIMEOUT`], a request is
    /// malformed or late (answered, then closed), a response is not taken
    /// within [`WRITE_TIMEOUT`], [`MAX_REQUESTS_PER_CONNECTION`] is
    /// reached (the last response says `Connection: close`), or the
    /// gateway shuts down. A panic in [`Gateway::route`] answers `500`
    /// and closes this connection only.
    fn handle_connection(&self, mut stream: TcpStream) {
        let sink = self.sink();
        // Responses go out in one write each; no Nagle delay on top.
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
            || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        {
            respond_error(
                &mut stream,
                &HttpError {
                    status: 500,
                    reason: "socket configuration failed",
                },
            );
            return;
        }
        let mut buf = Vec::new();
        for served in 1..=MAX_REQUESTS_PER_CONNECTION {
            let req = match read_request(&mut stream, &mut buf) {
                Ok(Some(req)) => req,
                Ok(None) => return,
                Err(e) => {
                    respond_error(&mut stream, &e);
                    let code = e.status.to_string();
                    sink.counter(
                        sm::HTTP_REQUESTS,
                        &[("route", "malformed"), ("code", &code)],
                    )
                    .inc();
                    return;
                }
            };
            // A stopped gateway routes nothing more. The request is
            // dropped unanswered and unrouted, so the client may resend
            // it on a new connection.
            if self.is_shutting_down() {
                return;
            }
            let routed = catch_unwind(AssertUnwindSafe(|| self.route(&req)));
            let keep_alive =
                routed.is_ok() && req.keep_alive && served < MAX_REQUESTS_PER_CONNECTION;
            let (route, status, headers, ctype, body) = routed.unwrap_or_else(|_| {
                (
                    "internal",
                    500,
                    Vec::new(),
                    "application/json",
                    err_body("internal error").into_bytes(),
                )
            });
            let sent = respond(&mut stream, status, ctype, &headers, &body, keep_alive);
            let code = status.to_string();
            sink.counter(sm::HTTP_REQUESTS, &[("route", route), ("code", &code)])
                .inc();
            sink.observe_histogram(
                sm::HTTP_REQUEST_SECONDS,
                &[("route", route)],
                req.arrived.elapsed().as_secs_f64(),
            );
            if !keep_alive || sent.is_err() {
                return;
            }
        }
    }

    /// Answer a connection past [`MAX_CONNECTIONS`] from the accept
    /// thread: `503` + `Retry-After`, then close. The request a client
    /// sent on connecting is read first, briefly: closing a socket with
    /// unread bytes resets the connection, and the client may then see
    /// the reset instead of the `503`.
    fn refuse(&self, mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let _ = respond(
            &mut stream,
            503,
            "application/json",
            &[("Retry-After", "1".to_string())],
            err_body("connection limit reached").as_bytes(),
            false,
        );
        self.sink()
            .counter(sm::HTTP_REQUESTS, &[("route", "refused"), ("code", "503")])
            .inc();
        let _ = stream.shutdown(Shutdown::Write);
        if stream.set_read_timeout(Some(REFUSE_DRAIN)).is_ok() {
            let mut scratch = [0u8; 4096];
            for _ in 0..REFUSE_DRAIN_READS {
                if !matches!(stream.read(&mut scratch), Ok(n) if n > 0) {
                    break;
                }
            }
        }
    }

    /// Accept loop for the HTTP listener. Returns when shutdown is
    /// requested (the requester must poke the listener with a
    /// self-connection to unblock `accept`; [`RunningGateway::stop`]
    /// does). Each accepted connection gets its own handler thread,
    /// spawned on demand, for as long as it stays open; at
    /// [`MAX_CONNECTIONS`] open, new ones are refused.
    pub fn serve_http(self: &Arc<Self>, listener: TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.is_shutting_down() {
                        return;
                    }
                    let Some(slot) = ConnectionSlot::claim(self, &stream) else {
                        self.refuse(stream);
                        continue;
                    };
                    std::thread::Builder::new()
                        .name("dwi-http".into())
                        .spawn(move || slot.gateway().handle_connection(stream))
                        .ok();
                }
                Err(_) => {
                    if self.is_shutting_down() {
                        return;
                    }
                }
            }
        }
    }

    /// Accept loop for the cluster listener: each connecting worker that
    /// presents a valid HELLO becomes an attached remote channel.
    pub fn serve_cluster(self: &Arc<Self>, listener: TcpListener) {
        loop {
            match listener.accept() {
                Ok((mut stream, peer)) => {
                    if self.is_shutting_down() {
                        return;
                    }
                    match wire::read_frame(&mut stream, Some(HELLO_TIMEOUT)) {
                        Ok(Some((wire::FrameType::Hello, payload))) => {
                            match wire::decode_hello(&payload) {
                                Ok(hello) => {
                                    let label = if hello.label.is_empty() {
                                        peer.to_string()
                                    } else {
                                        hello.label
                                    };
                                    self.rt.attach_remote(Box::new(TcpRemoteChannel {
                                        label,
                                        stream,
                                        seq: 0,
                                    }));
                                }
                                Err(_) => drop(stream),
                            }
                        }
                        // Anything but a prompt, valid HELLO: hang up.
                        _ => drop(stream),
                    }
                }
                Err(_) => {
                    if self.is_shutting_down() {
                        return;
                    }
                }
            }
        }
    }
}

/// The open HTTP connections: [`MAX_CONNECTIONS`] slots, each holding a
/// handle to its connection's socket so [`RunningGateway::stop`] can
/// close it.
struct Connections {
    slots: Mutex<Vec<Option<TcpStream>>>,
    /// Signalled whenever a slot is freed.
    freed: Condvar,
}

impl Default for Connections {
    fn default() -> Self {
        Self {
            slots: Mutex::new(
                std::iter::repeat_with(|| None)
                    .take(MAX_CONNECTIONS)
                    .collect(),
            ),
            freed: Condvar::new(),
        }
    }
}

impl Connections {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Option<TcpStream>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn count(&self) -> usize {
        self.lock().iter().filter(|s| s.is_some()).count()
    }

    /// Shut every open connection's socket down, which ends its handler's
    /// read or write at once, and wait until every slot is free.
    fn close_all(&self) {
        let mut slots = self.lock();
        for s in slots.iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
        while slots.iter().any(Option::is_some) {
            slots = self.freed.wait(slots).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One of the [`MAX_CONNECTIONS`] slots, held by a connection's handler
/// thread. Dropping it gives the slot back, also when a panic unwinds
/// the thread, so the count cannot creep up until every connection is
/// refused.
struct ConnectionSlot {
    /// `None` only while the slot is dropped.
    gw: Option<Arc<Gateway>>,
    conns: Arc<Connections>,
    index: usize,
}

impl ConnectionSlot {
    /// `None` when every slot is taken, or the socket cannot be shared.
    fn claim(gw: &Arc<Gateway>, stream: &TcpStream) -> Option<Self> {
        let mut slots = gw.conns.lock();
        let index = slots.iter().position(Option::is_none)?;
        slots[index] = Some(stream.try_clone().ok()?);
        Some(Self {
            gw: Some(Arc::clone(gw)),
            conns: Arc::clone(&gw.conns),
            index,
        })
    }

    fn gateway(&self) -> &Gateway {
        self.gw.as_ref().expect("held until drop")
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        // The gateway goes before the slot: once every slot is free,
        // `stop` holds the last handle the serving threads had.
        drop(self.gw.take());
        self.conns.lock()[self.index] = None;
        self.conns.freed.notify_all();
    }
}

fn evict_finished(jobs: &mut HashMap<u64, GatewayJob>) {
    let mut finished: Vec<(u64, u64)> = jobs
        .iter()
        .filter(|(_, j)| j.done.is_some())
        .map(|(id, j)| (j.created, *id))
        .collect();
    finished.sort_unstable();
    for (_, id) in finished.into_iter().take(jobs.len() / 4) {
        jobs.remove(&id);
    }
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":{}}}\n", escape_str(msg))
}

// ---------------------------------------------------------------------
// Result rendering
// ---------------------------------------------------------------------

/// FNV-1a over the bit patterns of a sample stream: a compact,
/// placement-independent identity for "these are the exact same floats".
/// Raw byte folding (not the framed [`dwi_core::Digest`] builder) so the
/// rendered `fnv64:` identity is stable across releases.
fn fnv64_samples(samples: &[Vec<f32>]) -> u64 {
    let mut h = dwi_core::digest::FNV_OFFSET;
    for wi in samples {
        for v in wi {
            h = dwi_core::digest::fnv1a_fold(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

fn report_json(r: &RunReport) -> Json {
    let mut o = std::collections::BTreeMap::new();
    o.insert("backend".into(), Json::Str(r.backend.into()));
    o.insert("kernel".into(), Json::Str(r.kernel.into()));
    o.insert("workitems".into(), Json::Num(r.workitems as f64));
    o.insert("quota".into(), Json::Num(r.quota as f64));
    o.insert("attempts".into(), Json::Num(r.rejection.attempts as f64));
    o.insert("accepted".into(), Json::Num(r.rejection.accepted as f64));
    o.insert(
        "iterations".into(),
        Json::Num(r.iterations.iter().sum::<u64>() as f64),
    );
    o.insert(
        "samples".into(),
        Json::Num(r.samples.iter().map(Vec::len).sum::<usize>() as f64),
    );
    o.insert(
        "sample_hash".into(),
        Json::Str(format!("fnv64:{:016x}", fnv64_samples(&r.samples))),
    );
    o.insert("cycles".into(), Json::Num(r.cycles as f64));
    Json::Obj(o)
}

fn graph_json(g: &GraphReport) -> Json {
    let mut o = std::collections::BTreeMap::new();
    o.insert("graph".into(), Json::Str(g.graph.clone()));
    o.insert("backend".into(), Json::Str(g.backend.into()));
    o.insert("cycles".into(), Json::Num(g.cycles as f64));
    o.insert(
        "stages".into(),
        Json::Arr(g.stages.iter().map(report_json).collect()),
    );
    o.insert(
        "edge_depths".into(),
        Json::Arr(g.edges.iter().map(|e| Json::Num(e.depth as f64)).collect()),
    );
    Json::Obj(o)
}

fn render_done(id: u64, kind: &JobKind, output: JobOutput) -> String {
    let result = match (kind, output) {
        (JobKind::Graph, JobOutput::Kernel(r)) => report_json(&r),
        (JobKind::Graph, JobOutput::Graph(g)) => graph_json(&g),
        (JobKind::Sim, out) => {
            let sim: SimResult = out.into_task();
            let mut o = std::collections::BTreeMap::new();
            o.insert("cycles".into(), Json::Num(sim.cycles as f64));
            o.insert("channel_busy".into(), Json::Num(sim.channel_busy as f64));
            Json::Obj(o)
        }
        (JobKind::Transfers, out) => {
            let (runtime_s, bandwidth): (f64, f64) = out.into_task();
            let mut o = std::collections::BTreeMap::new();
            o.insert("runtime_s".into(), Json::Num(runtime_s));
            o.insert("bandwidth_rns_per_s".into(), Json::Num(bandwidth));
            Json::Obj(o)
        }
        (JobKind::Graph, JobOutput::Task(_)) => unreachable!("graph jobs never deliver tasks"),
    };
    format!(
        "{{\"id\":{id},\"state\":\"done\",\"result\":{}}}\n",
        crate::spec::render_json(&result)
    )
}

fn render_failed(id: u64, e: &JobError) -> String {
    let reason = match e {
        JobError::Cancelled => "cancelled",
        JobError::Expired => "expired",
    };
    format!("{{\"id\":{id},\"state\":\"failed\",\"error\":\"{reason}\"}}\n")
}

// ---------------------------------------------------------------------
// Remote channel over TCP
// ---------------------------------------------------------------------

/// The wire-expressible job description a gateway attaches to every
/// remote-eligible graph job ([`JobSpec::remote`]); the TCP channel
/// downcasts to this and ships it in a SHARD frame.
pub struct WireJobSpec {
    /// Canonical graph spec JSON ([`crate::spec::build_graph`] input).
    pub graph_json: String,
    /// Backend name the worker should run (`named_backend` input).
    pub backend: String,
}

/// One attached remote worker connection on the coordinator side.
struct TcpRemoteChannel {
    label: String,
    stream: TcpStream,
    seq: u64,
}

impl RemoteChannel for TcpRemoteChannel {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(
        &mut self,
        spec: &RemoteSpec,
        _graph: &KernelGraph,
        plan: &GraphPlan,
    ) -> Result<GraphReport, RemoteError> {
        let wire_spec = spec
            .downcast_ref::<WireJobSpec>()
            .ok_or_else(|| RemoteError::new("job carries no wire-expressible spec"))?;
        self.seq += 1;
        let msg = wire::ShardMsg {
            seq: self.seq,
            graph_json: wire_spec.graph_json.clone(),
            backend: wire_spec.backend.clone(),
            plan: plan.clone(),
        };
        wire::write_frame(
            &mut self.stream,
            wire::FrameType::Shard,
            &wire::encode_shard(&msg),
        )
        .map_err(|e| RemoteError::new(e.to_string()))?;
        match wire::read_frame(&mut self.stream, Some(REMOTE_RESPONSE_TIMEOUT)) {
            Ok(Some((wire::FrameType::Result, payload))) => {
                let result =
                    wire::decode_result(&payload).map_err(|e| RemoteError::new(e.to_string()))?;
                if result.seq != self.seq {
                    return Err(RemoteError::new("out-of-order RESULT"));
                }
                Ok(result.report)
            }
            Ok(Some((wire::FrameType::Error, payload))) => {
                let err = wire::decode_error(&payload)
                    .map(|e| e.message)
                    .unwrap_or_else(|_| "undecodable ERROR frame".to_string());
                Err(RemoteError::new(format!("worker reported: {err}")))
            }
            Ok(Some(_)) => Err(RemoteError::new("unexpected frame type")),
            Ok(None) => Err(RemoteError::new("worker closed the connection")),
            Err(e) => Err(RemoteError::new(e.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// Process harness
// ---------------------------------------------------------------------

/// A gateway serving in background threads — what the binary, the load
/// generator, and the tests all use.
pub struct RunningGateway {
    /// Bound HTTP address.
    pub addr: SocketAddr,
    /// Bound cluster address (when a cluster listener was requested).
    pub cluster_addr: Option<SocketAddr>,
    gateway: Arc<Gateway>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl RunningGateway {
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// Stop serving: flips the shutdown flag, pokes both listeners with
    /// throwaway connections to unblock their accept loops, then closes
    /// every HTTP connection still open — kept-alive ones included — and
    /// waits for their handler threads to let go of the gateway. A
    /// request in flight is dropped unanswered, and a long-poll gives up
    /// within 100 ms. So the gateway and its runtime (whose drop flushes
    /// the disk cache) are dropped before this returns, unless the caller
    /// holds a clone of [`RunningGateway::gateway`].
    pub fn stop(mut self) {
        self.gateway.request_shutdown();
        let _ = TcpStream::connect(self.addr);
        if let Some(c) = self.cluster_addr {
            let _ = TcpStream::connect(c);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.gateway.conns.close_all();
    }
}

/// Bind the listeners and start the serving threads. `listen`/`cluster`
/// accept `"host:0"` for OS-assigned ports (tests always do).
pub fn start(
    config: GatewayConfig,
    listen: &str,
    cluster: Option<&str>,
) -> io::Result<RunningGateway> {
    let gateway = Arc::new(Gateway::new(config));
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    let mut threads = Vec::new();
    {
        let gw = Arc::clone(&gateway);
        threads.push(
            std::thread::Builder::new()
                .name("dwi-gateway".into())
                .spawn(move || gw.serve_http(listener))?,
        );
    }
    let cluster_addr = match cluster {
        Some(spec) => {
            let cl = TcpListener::bind(spec)?;
            let caddr = cl.local_addr()?;
            let gw = Arc::clone(&gateway);
            threads.push(
                std::thread::Builder::new()
                    .name("dwi-cluster".into())
                    .spawn(move || gw.serve_cluster(cl))?,
            );
            Some(caddr)
        }
        None => None,
    };
    Ok(RunningGateway {
        addr,
        cluster_addr,
        gateway,
        threads,
    })
}
