//! `serve` — closed-loop load generator for the `dwi-runtime` scheduler.
//!
//! Spawns `--clients N` tenant threads, each submitting `--jobs M` kernel
//! jobs back-to-back (closed loop: submit, ride out backpressure, wait,
//! repeat) against a pool of `--workers K` virtual devices. Reports
//! latency percentiles and throughput, writes them to
//! `BENCH_runtime.json` (override with `--out`), and — like every figure
//! binary — exports the session's Prometheus / Chrome-trace snapshots via
//! `--metrics` / `--trace`, where the runtime's queue-depth, shard-latency
//! and worker-utilization families appear next to the engines' own
//! metrics.
//!
//! `--async [--inflight N] [--rate R]` switches the clients to an
//! *open-loop* arrival process through the `Session` front-end: each
//! client thread pipelines up to N jobs (default 256) via `try_submit`,
//! harvesting completions in batches from the session's completion queue
//! instead of parking on every handle. `--rate R` paces submissions to a
//! target aggregate arrival rate in jobs/s (default unthrottled). The
//! closed-loop pass still runs first on the same configuration, the async
//! numbers are embedded as an `"async"` object in the JSON next to it, and
//! the printed `async speedup` line is the open-loop/closed-loop
//! throughput ratio — the pipelining win of not round-tripping per job.
//!
//! The attribution flags ride on the runtime's job-lifecycle timelines:
//! `--profile` prints the per-phase latency breakdown (p50/p99 + share of
//! end-to-end, overall and per lane; `--profile-out` writes it as JSON),
//! `--slo-ms X` auto-snapshots the flight recorder when any job's
//! end-to-end latency breaches X ms (`--flight N` sizes the ring,
//! `--flight-out` dumps it unconditionally).
//!
//! `--http` drives the same closed-loop mix through a loopback
//! `dwi-server` gateway instead: every submission is a real HTTP POST of
//! the JSON job spec, `429` backpressure is ridden out with the server's
//! `Retry-After`, and completions are harvested by long-polling
//! `/v1/jobs/{id}/wait`. The summary lands in `BENCH_runtime_http.json`
//! (same `jobs_per_s` / `p99_ms` fields as the in-process summary),
//! measuring the network service tier — connection setup,
//! parsing, admission layers and the registry — on top of the same
//! runtime.
//!
//! `--cache-dir <DIR>` puts the durable disk tier under the result
//! cache: evictions spill to versioned, checksummed `.dwic` files and
//! later runs (or restarts) promote them back, so the repeated-seed
//! fraction of the mix keeps its hit rate across processes. The summary
//! gains the `cache_disk_*` counters; running the same command twice
//! against one directory is the warm-restart parity check CI performs.
//!
//! The workload mixes quotas, priorities and a deliberate fraction of
//! repeated `(kernel, plan, seed)` submissions, so one run exercises the
//! admission queue, the priority lanes, the shard fan-out and the result
//! cache together. `--graph` additionally turns every third submission
//! into a three-stage [`KernelGraph`] pipeline job (gamma severity →
//! window aggregate → severity scale), driving the graph spine — stage
//! timeline sub-spans, the `dwi_runtime_graph_*` metric families — under
//! the same load.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dwi_bench::obs::ObsArgs;
use dwi_bench::profile::{timelines_json, Profile};
use dwi_core::graph::{GraphPlan, KernelGraph};
use dwi_core::{
    ExecutionPlan, SeverityExpMix, SeverityScale, TruncatedNormalKernel, WindowAggregate,
};
use dwi_runtime::{
    Completion, JobSpec, JobTimeline, Priority, Runtime, RuntimeConfig, SharedKernel,
};
use dwi_stats::Ecdf;
use dwi_trace::Recorder;

struct ServeArgs {
    clients: u32,
    jobs: u32,
    workers: usize,
    queue_bound: usize,
    async_mode: bool,
    graph: bool,
    http: bool,
    inflight: usize,
    rate: f64,
    out: Option<std::path::PathBuf>,
    profile: bool,
    profile_out: Option<std::path::PathBuf>,
    slo_ms: Option<f64>,
    flight: Option<usize>,
    flight_out: Option<std::path::PathBuf>,
    cache_dir: Option<std::path::PathBuf>,
}

impl ServeArgs {
    fn from_env() -> Self {
        let mut out = Self {
            clients: 4,
            jobs: 32,
            workers: 4,
            queue_bound: 64,
            async_mode: false,
            graph: false,
            http: false,
            inflight: 256,
            rate: 0.0,
            out: None,
            profile: false,
            profile_out: None,
            slo_ms: None,
            flight: None,
            flight_out: None,
            cache_dir: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut next = |what: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{what} needs a value"))
            };
            match a.as_str() {
                "--clients" => out.clients = next("--clients").parse().expect("count"),
                "--jobs" => out.jobs = next("--jobs").parse().expect("count"),
                "--workers" => out.workers = next("--workers").parse().expect("count"),
                "--queue-bound" => out.queue_bound = next("--queue-bound").parse().expect("count"),
                "--async" => out.async_mode = true,
                "--graph" => out.graph = true,
                "--http" => out.http = true,
                "--inflight" => out.inflight = next("--inflight").parse().expect("job count"),
                "--rate" => out.rate = next("--rate").parse().expect("jobs per second"),
                "--out" => out.out = Some(next("--out").into()),
                "--profile" => out.profile = true,
                "--profile-out" => out.profile_out = Some(next("--profile-out").into()),
                "--slo-ms" => out.slo_ms = Some(next("--slo-ms").parse().expect("milliseconds")),
                "--flight" => out.flight = Some(next("--flight").parse().expect("capacity")),
                "--flight-out" => out.flight_out = Some(next("--flight-out").into()),
                "--cache-dir" => out.cache_dir = Some(next("--cache-dir").into()),
                _ => {} // --trace/--metrics handled by ObsArgs
            }
        }
        out
    }

    /// Output path: `--out`, else the transport's default artifact.
    fn out_path(&self) -> std::path::PathBuf {
        self.out.clone().unwrap_or_else(|| {
            if self.http {
                "BENCH_runtime_http.json".into()
            } else {
                "BENCH_runtime.json".into()
            }
        })
    }

    /// Whether the run needs every job's timeline in the flight ring
    /// (profile report, SLO watch, or an explicit dump).
    fn wants_timelines(&self) -> bool {
        self.profile
            || self.profile_out.is_some()
            || self.slo_ms.is_some()
            || self.flight_out.is_some()
    }

    /// The pool configuration of a pass: the default runtime at the
    /// requested width and queue bound, plus the durable tier when
    /// `--cache-dir` asks for it, with a flight ring large enough for the
    /// attribution paths.
    fn config(&self) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::new(self.workers).queue_bound(self.queue_bound);
        if let Some(dir) = &self.cache_dir {
            cfg = cfg.disk_cache(dir.clone());
        }
        let mut capacity = self.flight.unwrap_or(256);
        if self.wants_timelines() {
            // The attribution paths fold over *every* job of the run, so
            // the ring must hold them all.
            capacity = capacity.max((self.clients * self.jobs) as usize);
        }
        cfg.flight_capacity(capacity)
    }
}

/// The job mix of one (client, index) slot: quota cycles through three
/// sizes, every fourth submission repeats a shared seed (cache traffic),
/// and priorities rotate per client so all three lanes carry load. Each
/// job is one independent work-item — the paper's natural unit.
fn job_for(client: u32, index: u32, graph_mix: bool) -> JobSpec {
    let quota = [256u64, 512, 1024][(index % 3) as usize];
    let seed = if index % 4 == 3 {
        quota as u32 // shared across clients: a cache hit after the first
    } else {
        client * 10_000 + index
    };
    let priority = [Priority::Normal, Priority::High, Priority::Low][(client % 3) as usize];
    if graph_mix && index % 3 == 1 {
        let graph = Arc::new(
            KernelGraph::pipeline(
                "serve-credit",
                Arc::new(SeverityExpMix::credit_severity(quota, seed)),
            )
            .then(Arc::new(WindowAggregate::new(8)))
            .then(Arc::new(SeverityScale::credit(seed))),
        );
        return JobSpec::graph(
            client,
            graph,
            GraphPlan::new(ExecutionPlan::new(1)),
            seed as u64,
        )
        .priority(priority);
    }
    let kernel: SharedKernel = Arc::new(TruncatedNormalKernel::new(1.5, quota, seed));
    JobSpec::kernel(client, kernel, ExecutionPlan::new(1), seed as u64).priority(priority)
}

/// Nearest-rank `(p50, p99)` of a latency sample, `(0, 0)` when empty.
fn p50_p99(latencies_ms: Vec<f64>) -> (f64, f64) {
    if latencies_ms.is_empty() {
        return (0.0, 0.0);
    }
    let ecdf = Ecdf::new(latencies_ms);
    (ecdf.quantile(0.5), ecdf.quantile(0.99))
}

/// What one load pass measured.
struct Summary {
    wall_s: f64,
    jobs_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
    rejections: u64,
    /// Completed multi-stage graph jobs (0 unless `--graph`).
    graph_jobs: u64,
    /// `try_submit` backpressure rejections (0 for closed-loop passes,
    /// which ride backpressure inside `submit_blocking` instead).
    would_blocks: u64,
    /// Durable-tier promotions: results served from `--cache-dir` after
    /// a memory-tier miss (0 without a cache directory).
    cache_disk_hits: u64,
    /// Memory-tier misses the disk tier could not serve either.
    cache_disk_misses: u64,
    /// Evicted (or shutdown-flushed) entries written to the disk tier.
    cache_disk_spills: u64,
    /// Corrupt or stale on-disk entries discarded instead of trusted.
    cache_disk_rejects: u64,
}

/// Run the full closed loop once against a fresh pool and recorder.
fn run_load(args: &ServeArgs) -> (Summary, Recorder, Vec<JobTimeline>) {
    let rec = Recorder::new();
    let rt = Arc::new(Runtime::with_backend_factory(
        args.config().trace(rec.sink()),
        |_| dwi_runtime::named_backend("functional-decoupled"),
    ));

    let t0 = Instant::now();
    let mut threads = Vec::new();
    for client in 0..args.clients {
        let rt = rt.clone();
        let (jobs, graph_mix) = (args.jobs, args.graph);
        threads.push(std::thread::spawn(move || {
            let mut latencies_ms = Vec::with_capacity(jobs as usize);
            for index in 0..jobs {
                let t = Instant::now();
                let handle = rt.submit_blocking(job_for(client, index, graph_mix));
                handle.wait().expect("load-gen jobs have no deadline");
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            latencies_ms
        }));
    }
    let latencies_ms: Vec<f64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread panicked"))
        .collect();
    let wall = t0.elapsed();

    // Harvest the flight ring before teardown, then shut the pool down
    // so every counter is flushed.
    let timelines = rt.flight_dump();
    drop(Arc::try_unwrap(rt).ok().expect("all clients joined"));
    (summarize(args, wall, latencies_ms, &rec), rec, timelines)
}

/// Run the open loop once: every client pipelines up to `--inflight` jobs
/// through a `Session`, harvesting completions in batches from the
/// completion queue; `--rate` paces the aggregate arrival process.
fn run_load_async(args: &ServeArgs) -> (Summary, Recorder, Vec<JobTimeline>) {
    let rec = Recorder::new();
    let rt = Arc::new(Runtime::with_backend_factory(
        args.config().trace(rec.sink()),
        |_| dwi_runtime::named_backend("functional-decoupled"),
    ));

    // Per-client inter-arrival gap hitting the aggregate `--rate`.
    let interval =
        (args.rate > 0.0).then(|| Duration::from_secs_f64(args.clients as f64 / args.rate));
    let t0 = Instant::now();
    let mut threads = Vec::new();
    for client in 0..args.clients {
        let rt = rt.clone();
        let (jobs, inflight, graph_mix) = (args.jobs, args.inflight, args.graph);
        threads.push(std::thread::spawn(move || {
            let mut session = rt.session(client);
            let mut submitted_at: HashMap<u64, Instant> = HashMap::new();
            let mut latencies_ms = Vec::with_capacity(jobs as usize);
            let absorb = |batch: Vec<Completion>,
                          submitted_at: &mut HashMap<u64, Instant>,
                          latencies_ms: &mut Vec<f64>| {
                for done in batch {
                    let t = submitted_at
                        .remove(&done.ticket.id())
                        .expect("completion for a tracked ticket");
                    done.result.expect("load-gen jobs have no deadline");
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            };
            let start = Instant::now();
            let mut next = 0u32;
            while next < jobs || session.in_flight() > 0 {
                absorb(session.poll(), &mut submitted_at, &mut latencies_ms);
                if next >= jobs || session.in_flight() >= inflight {
                    // Done submitting or at the pipelining cap: block on
                    // the completion queue until something finishes.
                    if session.in_flight() > 0 {
                        let done = session.wait_any(Duration::from_secs(30));
                        absorb(done, &mut submitted_at, &mut latencies_ms);
                    }
                    continue;
                }
                if let Some(gap) = interval {
                    let due = start + gap * next;
                    let now = Instant::now();
                    if now < due {
                        // Ahead of the arrival clock: harvest while waiting.
                        let done = session.wait_any(due - now);
                        absorb(done, &mut submitted_at, &mut latencies_ms);
                        continue;
                    }
                }
                match session.try_submit(job_for(client, next, graph_mix)) {
                    Ok(ticket) => {
                        submitted_at.insert(ticket.id(), Instant::now());
                        next += 1;
                    }
                    Err(rejected) => {
                        // Backpressure: sleep out the hint on the
                        // completion queue — harvesting is what frees
                        // queue capacity.
                        let done = session.wait_any(rejected.retry_after);
                        absorb(done, &mut submitted_at, &mut latencies_ms);
                    }
                }
            }
            latencies_ms
        }));
    }
    let latencies_ms: Vec<f64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread panicked"))
        .collect();
    let wall = t0.elapsed();
    let timelines = rt.flight_dump();
    drop(Arc::try_unwrap(rt).ok().expect("all clients joined"));
    (summarize(args, wall, latencies_ms, &rec), rec, timelines)
}

/// The HTTP mirror of [`job_for`]: the same quota/seed/priority mix as a
/// JSON job spec. Repeat submissions keep hitting the runtime's result
/// cache through the gateway — identical canonical specs map to identical
/// cache keys by construction.
fn http_job_spec(client: u32, index: u32, graph_mix: bool) -> String {
    let quota = [256u64, 512, 1024][(index % 3) as usize];
    let seed = if index % 4 == 3 {
        quota as u32
    } else {
        client * 10_000 + index
    };
    let priority = ["normal", "high", "low"][(client % 3) as usize];
    if graph_mix && index % 3 == 1 {
        return format!(
            r#"{{"kernel":{{"type":"severity-exp-mix","w":0.5,"lambda1":2.0,"lambda2":0.5,"quota":{quota},"seed":{seed}}},"stages":[{{"type":"window-aggregate","window":8}},{{"type":"severity-scale","w":0.5,"lambda1":2.0,"lambda2":0.5,"seed":{seed}}}],"name":"serve-credit","plan":{{"workitems":1}},"priority":"{priority}"}}"#
        );
    }
    format!(
        r#"{{"kernel":{{"type":"truncated-normal","a":1.5,"quota":{quota},"seed":{seed}}},"plan":{{"workitems":1}},"priority":"{priority}"}}"#
    )
}

/// `--http`: the same closed loop, but every submission is a real HTTP
/// exchange against a loopback `dwi-server` gateway — POST the spec, ride
/// out `429` backpressure with the server's `Retry-After`, long-poll the
/// job to completion. What this measures is the *network service tier*:
/// connection setup, parsing, admission layers and the registry on top of
/// the same runtime the in-process loop drives.
fn run_load_http(args: &ServeArgs) -> Summary {
    use dwi_server::client;
    use dwi_server::gateway::{start, GatewayConfig};

    let mut cfg = GatewayConfig::new(args.workers);
    cfg.queue_bound = args.queue_bound;
    let gw = start(cfg, "127.0.0.1:0", None).expect("loopback gateway binds");
    let addr = gw.addr;

    let t0 = Instant::now();
    let mut threads = Vec::new();
    for client_id in 0..args.clients {
        let (jobs, graph_mix) = (args.jobs, args.graph);
        threads.push(std::thread::spawn(move || {
            let mut latencies_ms = Vec::with_capacity(jobs as usize);
            let mut blocked = 0u64;
            for index in 0..jobs {
                let spec = http_job_spec(client_id, index, graph_mix);
                let t = Instant::now();
                let id = loop {
                    let r = client::post_json(addr, "/v1/jobs", None, &spec)
                        .expect("gateway reachable");
                    match r.status {
                        202 => {
                            break dwi_trace::json::parse(r.text())
                                .expect("submit body")
                                .get("id")
                                .and_then(|v| v.as_f64())
                                .expect("id field") as u64;
                        }
                        429 => {
                            blocked += 1;
                            let secs = r
                                .header("Retry-After")
                                .and_then(|v| v.parse::<u64>().ok())
                                .unwrap_or(1);
                            std::thread::sleep(Duration::from_secs(secs.min(2)));
                        }
                        other => panic!("submit failed with {other}: {}", r.text()),
                    }
                };
                loop {
                    let r =
                        client::get(addr, &format!("/v1/jobs/{id}/wait?timeout_ms=30000"), None)
                            .expect("gateway reachable");
                    if r.status == 200 {
                        break;
                    }
                    assert_eq!(r.status, 204, "unexpected wait status");
                }
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            (latencies_ms, blocked)
        }));
    }
    let mut latencies_ms = Vec::new();
    let mut would_blocks = 0u64;
    for t in threads {
        let (lat, blocked) = t.join().expect("client thread panicked");
        latencies_ms.extend(lat);
        would_blocks += blocked;
    }
    let wall = t0.elapsed();

    let total_jobs = args.clients as u64 * args.jobs as u64;
    assert_eq!(latencies_ms.len() as u64, total_jobs, "every job harvested");
    let (p50_ms, p99_ms) = p50_p99(latencies_ms);
    let m = gw.gateway().recorder().metrics();
    let counter = |key: &str| m.counter_value(key).unwrap_or(0);
    let summary = Summary {
        wall_s: wall.as_secs_f64(),
        jobs_per_s: total_jobs as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms,
        p99_ms,
        cache_hits: counter("dwi_runtime_cache_hits_total"),
        rejections: counter("dwi_runtime_jobs_rejected_total"),
        graph_jobs: counter("dwi_runtime_graph_jobs_total"),
        would_blocks,
        cache_disk_hits: counter("dwi_runtime_cache_disk_hits_total"),
        cache_disk_misses: counter("dwi_runtime_cache_disk_misses_total"),
        cache_disk_spills: counter("dwi_runtime_cache_disk_spills_total"),
        cache_disk_rejects: counter("dwi_runtime_cache_disk_rejects_total"),
    };
    gw.stop();
    summary
}

/// Fold one pass's wall clock, latencies and counters into a [`Summary`].
fn summarize(args: &ServeArgs, wall: Duration, latencies_ms: Vec<f64>, rec: &Recorder) -> Summary {
    let total_jobs = args.clients as u64 * args.jobs as u64;
    assert_eq!(latencies_ms.len() as u64, total_jobs, "every job harvested");
    let (p50_ms, p99_ms) = p50_p99(latencies_ms);
    let m = rec.metrics();
    let counter = |key: &str| m.counter_value(key).unwrap_or(0);
    Summary {
        wall_s: wall.as_secs_f64(),
        jobs_per_s: total_jobs as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms,
        p99_ms,
        cache_hits: counter("dwi_runtime_cache_hits_total"),
        rejections: counter("dwi_runtime_jobs_rejected_total"),
        graph_jobs: counter("dwi_runtime_graph_jobs_total"),
        would_blocks: counter("dwi_runtime_submit_would_block_total"),
        cache_disk_hits: counter("dwi_runtime_cache_disk_hits_total"),
        cache_disk_misses: counter("dwi_runtime_cache_disk_misses_total"),
        cache_disk_spills: counter("dwi_runtime_cache_disk_spills_total"),
        cache_disk_rejects: counter("dwi_runtime_cache_disk_rejects_total"),
    }
}

fn report(label: &str, args: &ServeArgs, s: &Summary) {
    println!(
        "{label}: {} jobs in {:.2}s: {:.1} jobs/s, p50 {:.2} ms, p99 {:.2} ms, \
         {} cache hits, {} rejections, {} would-blocks, {} graph jobs, \
         disk cache {} hits / {} misses ({} spills, {} rejects)",
        args.clients as u64 * args.jobs as u64,
        s.wall_s,
        s.jobs_per_s,
        s.p50_ms,
        s.p99_ms,
        s.cache_hits,
        s.rejections,
        s.would_blocks,
        s.graph_jobs,
        s.cache_disk_hits,
        s.cache_disk_misses,
        s.cache_disk_spills,
        s.cache_disk_rejects
    );
}

fn main() {
    let args = ServeArgs::from_env();
    let obs = ObsArgs::from_env();

    println!(
        "serve: {} clients x {} jobs on {} workers (queue bound {}, async {}, graph {}, \
         inflight {}, rate {})",
        args.clients,
        args.jobs,
        args.workers,
        args.queue_bound,
        args.async_mode,
        args.graph,
        args.inflight,
        args.rate
    );

    // `--http`: the whole load rides a loopback `dwi-server` gateway —
    // one closed-loop pass, its own artifact, and none of the in-process
    // attribution machinery (phase timelines live server-side).
    if args.http {
        let s = run_load_http(&args);
        report("http closed-loop", &args, &s);
        let json = format!(
            "{{\n  \"transport\": \"http\",\n  \"clients\": {},\n  \"jobs_per_client\": {},\n  \
             \"workers\": {},\n  \"queue_bound\": {},\n  \"total_jobs\": {},\n  \
             \"wall_s\": {:.6},\n  \"jobs_per_s\": {:.3},\n  \"p50_ms\": {:.4},\n  \
             \"p99_ms\": {:.4},\n  \"cache_hits\": {},\n  \"rejections\": {},\n  \
             \"http_429s\": {},\n  \"graph_jobs\": {}\n}}\n",
            args.clients,
            args.jobs,
            args.workers,
            args.queue_bound,
            args.clients as u64 * args.jobs as u64,
            s.wall_s,
            s.jobs_per_s,
            s.p50_ms,
            s.p99_ms,
            s.cache_hits,
            s.rejections,
            s.would_blocks,
            s.graph_jobs
        );
        let out = args.out_path();
        std::fs::write(&out, json).expect("write benchmark summary");
        println!("summary written to {}", out.display());
        return;
    }

    let (closed, rec, closed_timelines) = run_load(&args);
    report("closed-loop", &args, &closed);

    // `--async`: run the same load open-loop through the session
    // front-end; its recorder (session + runtime metric families) becomes
    // the exported one.
    let async_pass = args.async_mode.then(|| run_load_async(&args));
    if let Some((a, _, _)) = &async_pass {
        report("async", &args, a);
        println!(
            "async speedup vs closed-loop: {:.2}x jobs/s ({} in flight, rate {})",
            a.jobs_per_s / closed.jobs_per_s.max(1e-9),
            args.inflight,
            if args.rate > 0.0 {
                format!("{:.0} jobs/s", args.rate)
            } else {
                "unthrottled".into()
            }
        );
    }

    // Attribution paths fold over the async pass's timelines when one ran
    // (that is the pass whose latency needs explaining), else the closed
    // loop's.
    let timelines: &[JobTimeline] = async_pass
        .as_ref()
        .map(|(_, _, t)| t.as_slice())
        .unwrap_or(&closed_timelines);

    // `--profile`: the per-phase latency breakdown, text and/or JSON.
    if args.profile || args.profile_out.is_some() {
        let profile = Profile::from_timelines(timelines);
        if args.profile {
            println!("\n{}", profile.render_text());
        }
        if let Some(path) = &args.profile_out {
            std::fs::write(path, profile.to_json()).expect("write profile report");
            println!("profile written to {}", path.display());
        }
    }

    // `--slo-ms`: auto-snapshot the flight ring when any job breached the
    // threshold; `--flight-out` dumps it unconditionally.
    let slo_breaches = args
        .slo_ms
        .map(|slo| {
            timelines
                .iter()
                .filter(|t| t.e2e().is_some_and(|d| d.as_secs_f64() * 1e3 > slo))
                .count()
        })
        .unwrap_or(0);
    if slo_breaches > 0 || args.flight_out.is_some() {
        let path = args
            .flight_out
            .clone()
            .unwrap_or_else(|| "BENCH_flight.json".into());
        std::fs::write(&path, timelines_json(timelines)).expect("write flight dump");
        if slo_breaches > 0 {
            println!(
                "SLO breach: {} jobs over {:.2} ms — flight recorder snapshot written to {}",
                slo_breaches,
                args.slo_ms.unwrap_or(0.0),
                path.display()
            );
        } else {
            println!("flight recorder dump written to {}", path.display());
        }
    }

    let async_json = async_pass
        .as_ref()
        .map(|(a, _, _)| {
            format!(
                "  \"async\": {{\n    \"inflight\": {},\n    \"rate\": {:.3},\n    \
                 \"wall_s\": {:.6},\n    \"jobs_per_s\": {:.3},\n    \"p50_ms\": {:.4},\n    \
                 \"p99_ms\": {:.4},\n    \"would_blocks\": {},\n    \
                 \"speedup_vs_closed_loop\": {:.3}\n  }},\n",
                args.inflight,
                args.rate,
                a.wall_s,
                a.jobs_per_s,
                a.p50_ms,
                a.p99_ms,
                a.would_blocks,
                a.jobs_per_s / closed.jobs_per_s.max(1e-9)
            )
        })
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"clients\": {},\n  \"jobs_per_client\": {},\n  \"workers\": {},\n  \
         \"queue_bound\": {},\n{}  \"total_jobs\": {},\n  \"wall_s\": {:.6},\n  \
         \"jobs_per_s\": {:.3},\n  \"p50_ms\": {:.4},\n  \"p99_ms\": {:.4},\n  \
         \"cache_hits\": {},\n  \"rejections\": {},\n  \"cache_disk_hits\": {},\n  \
         \"cache_disk_misses\": {},\n  \"cache_disk_spills\": {},\n  \
         \"cache_disk_rejects\": {},\n  \"graph_jobs\": {}\n}}\n",
        args.clients,
        args.jobs,
        args.workers,
        args.queue_bound,
        async_json,
        args.clients as u64 * args.jobs as u64,
        closed.wall_s,
        closed.jobs_per_s,
        closed.p50_ms,
        closed.p99_ms,
        closed.cache_hits,
        closed.rejections,
        closed.cache_disk_hits,
        closed.cache_disk_misses,
        closed.cache_disk_spills,
        closed.cache_disk_rejects,
        closed.graph_jobs
    );
    let out = args.out_path();
    std::fs::write(&out, json).expect("write benchmark summary");
    println!("summary written to {}", out.display());

    // Export the async pass's recorder when one ran — it carries the
    // session metric families on top of the runtime's.
    obs.write(async_pass.as_ref().map(|(_, r, _)| r).unwrap_or(&rec));
}
