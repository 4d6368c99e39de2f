//! `http-credit`: a loopback `dwi-server` gateway (`GatewayConfig::new(2)`,
//! anonymous) driven by two client threads, each a closed loop of
//! POST `/v1/jobs` + long-poll `/v1/jobs/{id}/wait`, honouring
//! `429 Retry-After`. Two thirds of the specs are single truncated-normal
//! kernels, one third the 3-stage CreditRisk+ pipeline. Also the graph and
//! spec-parse layer replays on the same spec bodies.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dwi_core::digest::{fnv1a, fnv1a_fold, FNV_OFFSET};
use dwi_core::graph::{GraphPlan, GraphReport, KernelGraph};
use dwi_core::{Backend, Digest, FunctionalDecoupled, RunReport};
use dwi_server::client;
use dwi_server::gateway::RunningGateway;
use dwi_server::spec::{parse_job, ParsedJob};
use dwi_trace::json::{parse, Json};

use crate::serve::slot_shape;
use crate::spans::SpanLog;
use crate::stats::{Block, Quantiles, Samples, Windows};

/// Load-generating client threads (and so connections in flight).
pub const CLIENTS: usize = 2;
/// Distinct spec bodies the clients cycle through (a multiple of 12, far
/// beyond the runtime's 32-entry result cache).
const POOL: usize = 600;
/// Latency samples a client keeps in a timed loop (far beyond a 60 s run
/// at today's rate).
pub const SAMPLES: usize = 1 << 18;
/// Empty latency buffers for the clients of one loop.
pub fn samples(cap: usize) -> [Samples; CLIENTS] {
    std::array::from_fn(|_| Samples::with_capacity(cap))
}

/// Graph specs the graph-layer replay runs.
const GRAPH_REPLAYS: usize = 16;

/// The `serve --http --graph` mix: slot `s` is the 3-stage CreditRisk+
/// pipeline when `s % 3 == 1`, a single truncated-normal kernel otherwise,
/// with the serve mix's quotas, shared seeds and rotating priorities.
pub fn pool(seed: u64) -> Vec<String> {
    (0..POOL)
        .map(|s| {
            let (quota, kseed) = slot_shape(seed, s);
            let priority = ["normal", "high", "low"][(s / 3) % 3];
            if s % 3 == 1 {
                format!(
                    r#"{{"kernel":{{"type":"severity-exp-mix","w":0.5,"lambda1":2.0,"lambda2":0.5,"quota":{quota},"seed":{kseed}}},"stages":[{{"type":"window-aggregate","window":8}},{{"type":"severity-scale","w":0.5,"lambda1":2.0,"lambda2":0.5,"seed":{kseed}}}],"name":"serve-credit","plan":{{"workitems":1}},"priority":"{priority}"}}"#
                )
            } else {
                format!(
                    r#"{{"kernel":{{"type":"truncated-normal","a":1.5,"quota":{quota},"seed":{kseed}}},"plan":{{"workitems":1}},"priority":"{priority}"}}"#
                )
            }
        })
        .collect()
}

fn parse_graph(body: &str) -> (Arc<KernelGraph>, GraphPlan) {
    match parse_job(body) {
        Ok(ParsedJob::Graph { graph, plan, .. }) => (graph, plan),
        _ => panic!("pool specs are graph specs"),
    }
}

fn sample_hash(samples: &[Vec<f32>]) -> u64 {
    samples
        .iter()
        .flatten()
        .fold(FNV_OFFSET, |h, v| fnv1a_fold(h, &v.to_bits().to_le_bytes()))
}

/// One stage's identity as the gateway renders it.
fn stage_line(r: &RunReport) -> String {
    format!(
        "fnv64:{:016x}|{}|{}|{}|{}|{};",
        sample_hash(&r.samples),
        r.cycles,
        r.rejection.attempts,
        r.rejection.accepted,
        r.iterations.iter().sum::<u64>(),
        r.samples.iter().map(Vec::len).sum::<usize>()
    )
}

/// The response fingerprint of one done body: every stage's sample hash
/// and counters, hashed. `None` for anything but a `done` body.
fn response_fingerprint(body: &str) -> Option<u64> {
    let v = parse(body).ok()?;
    if v.get("state").and_then(Json::as_str) != Some("done") {
        return None;
    }
    let result = v.get("result")?;
    let stages: Vec<&Json> = match result.get("stages").and_then(Json::as_arr) {
        Some(stages) => stages.iter().collect(),
        None => vec![result],
    };
    let mut line = String::new();
    for st in stages {
        let num = |k: &str| st.get(k).and_then(Json::as_f64).map(|x| x as u64);
        line.push_str(&format!(
            "{}|{}|{}|{}|{}|{};",
            st.get("sample_hash").and_then(Json::as_str)?,
            num("cycles")?,
            num("attempts")?,
            num("accepted")?,
            num("iterations")?,
            num("samples")?
        ));
    }
    Some(fnv1a(line.as_bytes()))
}

/// The inline `Backend::run` of every pool spec, computed before the
/// loop: the response fingerprint each spec must produce, and the
/// simulated-statistics digest (cycles, iterations, rejection counters,
/// graph edge ledgers) of the pool.
pub struct Oracle {
    fingerprints: Vec<u64>,
    pub digest: u64,
}

pub fn oracle(pool: &[String]) -> Oracle {
    let mut fingerprints = Vec::with_capacity(pool.len());
    let mut d = Digest::new();
    for body in pool {
        let (graph, plan) = parse_graph(body);
        let report = FunctionalDecoupled.run(&graph, &plan);
        let line: String = report.stages.iter().map(stage_line).collect();
        fingerprints.push(fnv1a(line.as_bytes()));
        d = d.u64(graph_digest(&report));
    }
    Oracle {
        fingerprints,
        digest: d.finish(),
    }
}

fn graph_digest(g: &GraphReport) -> u64 {
    let mut d = Digest::new().u64(g.cycles);
    for r in &g.stages {
        d = d
            .u64(r.cycles)
            .u64(r.rejection.attempts)
            .u64(r.rejection.accepted)
            .u64(r.iterations.iter().sum());
    }
    for e in &g.edges {
        d = d
            .u64(e.pushed)
            .u64(e.pulled)
            .u64(e.residue)
            .u64(e.dropped)
            .u64(e.write_stalls)
            .u64(e.read_stalls)
            .usize(e.high_water);
    }
    d.finish()
}

/// What one client thread saw.
pub struct ClientRun {
    /// POST start → final wait response, seconds, per job.
    pub latencies: Samples,
    pub windows: Windows,
    /// Duration of every POST exchange, seconds (when tracing).
    pub post_secs: Vec<f32>,
    /// Summed duration of the POST and wait exchanges.
    pub exchange_secs: f64,
    pub posts: u64,
    pub http_429: u64,
    pub waits: u64,
    pub jobs: u64,
    pub failed: u64,
    /// (runtime job id, instant the final wait response arrived).
    pub final_waits: Vec<(u64, Instant)>,
    /// Job completion instants from the gateway runtime's flight recorder
    /// (traced runs only).
    pub completed_in_runtime: HashMap<u64, Instant>,
}

/// One load pass, shared by its client threads.
struct Load<'a> {
    gw: &'a RunningGateway,
    pool: &'a [String],
    oracle: &'a Oracle,
    start: Instant,
    deadline: Instant,
    max_jobs: usize,
}

impl Load<'_> {
    /// Job completion instants from the gateway runtime's flight recorder.
    fn record_completions(&self, into: &mut HashMap<u64, Instant>) {
        for tl in self.gw.gateway().runtime().flight_dump() {
            if let Some(done) = tl.completed {
                into.insert(tl.job_id, done);
            }
        }
    }
}

fn client_loop(load: &Load, c: usize, latencies: Samples, log: &mut SpanLog) -> ClientRun {
    let (pool, deadline) = (load.pool, load.deadline);
    let addr: SocketAddr = load.gw.addr;
    let mut out = ClientRun {
        latencies,
        windows: Windows::new(load.start, deadline - load.start),
        post_secs: Vec::new(),
        exchange_secs: 0.0,
        posts: 0,
        http_429: 0,
        waits: 0,
        jobs: 0,
        failed: 0,
        final_waits: Vec::new(),
        completed_in_runtime: HashMap::new(),
    };
    let mut k = 0usize;
    while Instant::now() < deadline && k < load.max_jobs {
        let job = k * CLIENTS + c;
        let slot = job % pool.len();
        let req = job as u64;
        let t0 = Instant::now();
        let root = log.open("http.job", t0, req);
        let mut id = None;
        while id.is_none() {
            let tp = Instant::now();
            let r = client::post_json(addr, "/v1/jobs", None, &pool[slot]);
            let tp1 = Instant::now();
            log.record("server.post", tp, tp1, root, req);
            if log.enabled() {
                out.post_secs.push((tp1 - tp).as_secs_f32());
            }
            out.exchange_secs += (tp1 - tp).as_secs_f64();
            out.posts += 1;
            match r {
                Ok(r) if r.status == 202 => {
                    id = parse(r.text())
                        .ok()
                        .and_then(|v| v.get("id").and_then(Json::as_f64))
                        .map(|x| x as u64);
                    if id.is_none() {
                        break;
                    }
                }
                Ok(r) if r.status == 429 => {
                    out.http_429 += 1;
                    let secs = r
                        .header("Retry-After")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(1);
                    std::thread::sleep(Duration::from_secs(secs.min(2)));
                }
                _ => break,
            }
        }
        let mut fingerprint = None;
        if let Some(id) = id {
            loop {
                let tw = Instant::now();
                let r = client::get(addr, &format!("/v1/jobs/{id}/wait?timeout_ms=10000"), None);
                let tw1 = Instant::now();
                log.record("server.wait", tw, tw1, root, req);
                out.exchange_secs += (tw1 - tw).as_secs_f64();
                out.waits += 1;
                match r {
                    Ok(r) if r.status == 200 => {
                        fingerprint = response_fingerprint(r.text());
                        if log.enabled() {
                            out.final_waits.push((id, tw1));
                        }
                        break;
                    }
                    Ok(r) if r.status == 204 => continue,
                    _ => break,
                }
            }
        }
        let t1 = Instant::now();
        log.close(root, t1);
        out.jobs += 1;
        if fingerprint == Some(load.oracle.fingerprints[slot]) {
            out.latencies.push((t1 - t0).as_secs_f32());
            out.windows.hit(t1);
        } else {
            out.failed += 1;
        }
        if log.enabled() && k % 32 == 31 {
            // The flight ring keeps the last 256 jobs; 2 × 32 is well inside.
            load.record_completions(&mut out.completed_in_runtime);
        }
        k += 1;
    }
    if log.enabled() {
        load.record_completions(&mut out.completed_in_runtime);
    }
    out
}

pub struct HttpRun {
    pub clients: Vec<ClientRun>,
    pub wall_secs: f64,
}

impl HttpRun {
    /// POST exchange durations of both clients, seconds.
    pub fn post_secs(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.post_secs.iter().map(|&v| v as f64))
            .collect()
    }

    pub fn sum(&self, f: impl Fn(&ClientRun) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// Completions per second over both clients' windows.
    pub fn rate(&self) -> Option<f64> {
        let mut all = Windows::new(Instant::now(), Duration::from_secs_f64(self.wall_secs));
        for c in &self.clients {
            all.absorb(&c.windows);
        }
        all.rate()
    }

    /// Jobs that failed or whose response disagreed with the inline run.
    pub fn failures(&self) -> u64 {
        self.sum(|c| c.failed)
    }

    /// Both clients' latency blocks.
    pub fn blocks(&self) -> Vec<Block> {
        self.clients
            .iter()
            .flat_map(|c| c.latencies.blocks())
            .collect()
    }

    /// Summed job latency of both clients, seconds.
    pub fn latency_secs(&self) -> f64 {
        self.clients.iter().map(|c| c.latencies.sum()).sum()
    }

    /// Final wait response − job completion in the runtime, per job seen
    /// in the flight recorder.
    pub fn wait_overheads(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| {
                c.final_waits.iter().filter_map(|(id, got)| {
                    c.completed_in_runtime
                        .get(id)
                        .map(|done| got.saturating_duration_since(*done).as_secs_f64())
                })
            })
            .collect()
    }
}

/// Run the client threads for `dur` or `max_jobs` jobs per client,
/// whichever ends first; client `c` keeps its latencies in
/// `latencies[c]`, built by the caller.
pub fn run(
    gw: &RunningGateway,
    pool: &[String],
    oracle: &Oracle,
    dur: Duration,
    max_jobs: usize,
    latencies: [Samples; CLIENTS],
    log: &mut SpanLog,
) -> HttpRun {
    let start = Instant::now();
    let load = &Load {
        gw,
        pool,
        oracle,
        start,
        deadline: start + dur,
        max_jobs,
    };
    let mut logs: Vec<SpanLog> = (0..CLIENTS).map(|_| log.fork()).collect();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter_mut()
            .zip(latencies)
            .enumerate()
            .map(|(c, (l, lat))| scope.spawn(move || client_loop(load, c, lat, l)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for l in logs {
        log.absorb(l);
    }
    HttpRun {
        clients,
        wall_secs: dur.as_secs_f64(),
    }
}

/// Graph-layer replay: `Backend::run` of the pool's graph specs vs the
/// source kernel's `Backend::execute` alone.
pub struct GraphCosts {
    pub run_us_per_job: f64,
    pub self_us_per_job: f64,
    pub edge_stalls: u64,
    pub spec_parse_us: f64,
}

pub fn replay(pool: &[String], reps: u64, log: &mut SpanLog) -> GraphCosts {
    let graphs: Vec<_> = pool
        .iter()
        .enumerate()
        .filter(|(s, _)| s % 3 == 1)
        .take(GRAPH_REPLAYS)
        .map(|(_, body)| parse_graph(body))
        .collect();
    let (mut run_us, mut self_us, mut parse_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut edge_stalls = 0u64;
    for rep in 0..reps {
        let (mut run_ns, mut src_ns) = (0u128, 0u128);
        for (graph, plan) in &graphs {
            let t0 = Instant::now();
            let report = FunctionalDecoupled.run(graph, plan);
            let t1 = Instant::now();
            black_box(FunctionalDecoupled.execute(graph.source().as_ref(), &plan.base));
            let t2 = Instant::now();
            log.record("replay.graph.run", t0, t1, None, rep);
            log.record("replay.graph.source", t1, t2, None, rep);
            run_ns += (t1 - t0).as_nanos();
            src_ns += (t2 - t1).as_nanos();
            if rep == 0 {
                edge_stalls += report
                    .edges
                    .iter()
                    .map(|e| e.write_stalls + e.read_stalls)
                    .sum::<u64>();
            }
        }
        let n = graphs.len() as f64;
        run_us.push(run_ns as f64 / n / 1e3);
        self_us.push((run_ns as f64 - src_ns as f64) / n / 1e3);

        let t0 = Instant::now();
        let parsed: Vec<_> = pool.iter().map(|b| parse_job(b)).collect();
        let t1 = Instant::now();
        log.record("replay.server.spec_parse", t0, t1, None, rep);
        if parsed.iter().any(Result::is_err) {
            panic!("pool specs parse");
        }
        drop(parsed);
        parse_us.push((t1 - t0).as_secs_f64() * 1e6 / pool.len() as f64);
    }
    let med = |v: Vec<f64>| Quantiles::new(v).median().expect("at least one repetition");
    GraphCosts {
        run_us_per_job: med(run_us),
        self_us_per_job: med(self_us),
        edge_stalls,
        spec_parse_us: med(parse_us),
    }
}
