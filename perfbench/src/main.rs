//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-gamma|serve-mix|http-credit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it measures every per-layer metric (see README.md for
//! the layer-to-metric table). Every output is checked against an inline
//! oracle; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero on any mismatch.

mod gamma;
mod http;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dwi_runtime::{Runtime, RuntimeConfig};
use dwi_server::gateway::{start, GatewayConfig, RunningGateway};

use spans::SpanLog;
use stats::{Block, Quantiles, Samples};

/// Seed used while the benchmark is developed and changes are tuned.
const DEFAULT_SEED: u64 = 1;
/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPS: usize = 21;
/// Length of the serve-mix and http-credit loops a traced run of another
/// workload runs for the runtime and server layers.
const PROBE_SECS: f64 = 1.5;
/// Repetitions of each layer replay; the median is reported.
const REPLAY_REPS: u64 = 3;
/// Jobs pushed through the runtime or gateway (per client) after set-up
/// and before the timed loop, untimed: first-job costs belong to neither.
const SERVE_WARMUP_JOBS: u64 = 2048;
const HTTP_WARMUP_JOBS: usize = 64;
/// "No time limit" for loops bounded by a job count.
const LONG: Duration = Duration::from_secs(3600);

const WORKLOADS: [&str; 3] = ["paper-gamma", "serve-mix", "http-credit"];

/// SplitMix64 over `a ⊕ b·φ`: derives every generated input from the seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bit-for-bit equality of two sample streams.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// Everything one invocation measured.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Metrics that could not be measured (e.g. a p99 without ten samples
    /// beyond it); any entry fails the run.
    missing: Vec<&'static str>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push((name, v, unit)),
            _ => self.missing.push(name),
        }
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// A `/proc/self/status` field of this process (`VmRSS`, `VmHWM`), MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Called once the benchmark's own inputs, oracle and latency buffers are
/// built: resets this process's memory high-water mark to its resident
/// memory now (Linux `clear_refs` 5) and returns that resident size, MB.
fn memory_baseline() -> Option<f64> {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        println!("memory: high-water mark not reset; peak_rss_mb includes the oracle's build");
    }
    status_mb("VmRSS")
}

/// The memory high-water mark above `baseline`, MB: what the runtime,
/// gateway or backends add to the benchmark's own memory.
fn added_peak_mb(baseline: Option<f64>) -> Option<f64> {
    let (peak, base) = status_mb("VmHWM").zip(baseline)?;
    println!("memory: high-water mark {peak:.2} MB, {base:.2} MB resident before set-up");
    Some(peak - base)
}

/// Run `build` [`SETUP_REPS`] times, handing each superseded result to
/// `teardown` outside the timed region; return the last result and the
/// median build time.
fn set_up<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(v) = last.take() {
            teardown(v);
        }
        let t0 = Instant::now();
        let v = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (
        last.expect("at least one set-up"),
        Quantiles::new(times).median().expect("set-up timed"),
    )
}

fn gateway() -> RunningGateway {
    start(GatewayConfig::new(2), "127.0.0.1:0", None).expect("loopback gateway binds")
}

fn latency_metrics(r: &mut Report, blocks: &[Block], ops: u64) {
    let p50 = stats::quiet_median(blocks, Quantiles::median).map(|v| v * 1e3);
    let p99 = stats::quiet_median(blocks, |b| b.tail(0.99)).map(|v| v * 1e3);
    let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4} ms"));
    println!(
        "latency: p50={} p99={}, medians over the {} of {} blocks of {} with the least host steal \
         ({:.2} s in all blocks), {ops} operations",
        show(p50),
        show(p99),
        blocks.len().div_ceil(2),
        blocks.len(),
        stats::BLOCK,
        blocks.iter().map(|b| b.steal_secs).sum::<f64>()
    );
    r.put("op_p50_ms", p50, "ms");
    r.put("op_p99_ms", p99, "ms");
}

fn table3_metric(r: &mut Report, seed: u64) {
    let (err, worst) = gamma::table3_max_rel_err(seed);
    println!("table3: worst cell {worst} ({:.2}% off)", err * 100.0);
    r.put("table3_max_rel_err", Some(err), "ratio");
}

/// The end-to-end run: tracing off. Each workload builds its oracle and
/// latency buffers first, then times [`SETUP_REPS`] set-ups, warms the
/// last one up untimed, and runs the timed loop.
fn end_to_end(args: &Args) -> Report {
    let mut r = Report::default();
    // First, and untimed: half a second of compute that also brings the
    // CPU out of idle before set-up is timed.
    table3_metric(&mut r, args.seed);
    let dur = Duration::from_secs_f64(args.seconds);
    let mut off = SpanLog::new(Instant::now(), false);
    let (setup_s, peak_mb, digest);
    match args.workload.as_str() {
        "paper-gamma" => {
            let oracle = gamma::oracle(&gamma::GammaBench::new(args.seed));
            let op_secs = Samples::with_capacity(gamma::SAMPLES);
            let base = memory_baseline();
            let (bench, s) = set_up(|| gamma::GammaBench::new(args.seed), drop);
            let bench = bench.warm_up();
            let run = gamma::run(&bench, &oracle, dur, op_secs, &mut off);
            peak_mb = added_peak_mb(base);
            setup_s = s;
            r.count(run.attempted, run.failed);
            println!(
                "paper-gamma: {} sweeps, {} samples, Configs 1-4 x (functional, cycle-sim)",
                run.sweeps, run.samples
            );
            r.put(
                "ops_per_s",
                stats::rate_quantile("samples per unstolen second, per sweep", run.sweep_rates),
                "1/s",
            );
            latency_metrics(&mut r, &run.op_secs.blocks(), run.op_secs.count());
            digest = bench.sim_digest();
        }
        "serve-mix" => {
            let oracle = serve::oracle(&serve::pool(args.seed));
            let latencies = Samples::with_capacity(serve::SAMPLES);
            let base = memory_baseline();
            let ((pool, rt), s) = set_up(
                || (serve::pool(args.seed), Runtime::new(RuntimeConfig::new(2))),
                drop,
            );
            let none = Samples::with_capacity(0);
            let warm = serve::run(&rt, &pool, &oracle, LONG, SERVE_WARMUP_JOBS, none, &mut off);
            r.count(warm.attempted, warm.failed);
            let run = serve::run(&rt, &pool, &oracle, dur, u64::MAX, latencies, &mut off);
            peak_mb = added_peak_mb(base);
            drop(rt);
            setup_s = s;
            r.count(run.attempted, run.failed);
            println!(
                "serve-mix: window {}, {} would-blocks on {} submissions",
                serve::WINDOW,
                run.would_block,
                run.attempted
            );
            r.put("ops_per_s", run.windows.rate(), "1/s");
            latency_metrics(&mut r, &run.latencies.blocks(), run.latencies.count());
            digest = serve::sim_digest(&oracle);
        }
        _ => {
            let oracle = http::oracle(&http::pool(args.seed));
            let latencies = http::samples(http::SAMPLES);
            let base = memory_baseline();
            let ((pool, gw), s) = set_up(
                || (http::pool(args.seed), gateway()),
                |(_, gw): (Vec<String>, RunningGateway)| gw.stop(),
            );
            let none = http::samples(0);
            let warm = http::run(&gw, &pool, &oracle, LONG, HTTP_WARMUP_JOBS, none, &mut off);
            r.count(warm.sum(|c| c.jobs), warm.failures());
            let run = http::run(&gw, &pool, &oracle, dur, usize::MAX, latencies, &mut off);
            peak_mb = added_peak_mb(base);
            gw.stop();
            setup_s = s;
            r.count(run.sum(|c| c.jobs), run.failures());
            println!(
                "http-credit: {} clients, {} POSTs, {} 429s",
                http::CLIENTS,
                run.sum(|c| c.posts),
                run.sum(|c| c.http_429)
            );
            r.put("ops_per_s", run.rate(), "1/s");
            latency_metrics(&mut r, &run.blocks(), run.sum(|c| c.latencies.count()));
            digest = oracle.digest;
        }
    }
    println!("sim_digest {} {digest:016x}", args.workload);
    r.put("setup_s", Some(setup_s), "s");
    r.put("peak_rss_mb", peak_mb, "MB");
    r
}

/// Runtime-layer metrics from a traced serve-mix loop.
fn runtime_metrics(r: &mut Report, run: &serve::ServeRun, workers: usize) {
    let p = &run.phases;
    let q = |v: &Vec<f64>| Quantiles::new(v.clone());
    let jobs = run.latencies.count().max(1) as f64;
    r.put(
        "runtime.submit_us",
        q(&p.submit).median().map(|v| v * 1e6),
        "us",
    );
    r.put(
        "runtime.queue_wait_us_p50",
        q(&p.queue_wait).median().map(|v| v * 1e6),
        "us",
    );
    r.put(
        "runtime.queue_wait_us_p99",
        q(&p.queue_wait).tail(0.99).map(|v| v * 1e6),
        "us",
    );
    r.put(
        "runtime.execute_us_p50",
        q(&p.execute).median().map(|v| v * 1e6),
        "us",
    );
    r.put(
        "runtime.overhead_us_per_job",
        q(&p.overhead).mean().map(|v| v * 1e6),
        "us",
    );
    r.put(
        "runtime.worker_busy_ratio",
        Some(p.busy_secs / (workers as f64 * run.wall_secs)),
        "ratio",
    );
    r.put(
        "runtime.cache_hit_ratio",
        Some(p.cache_hits as f64 / jobs),
        "ratio",
    );
    r.put("runtime.dedup_ratio", Some(p.dedup as f64 / jobs), "ratio");
    r.put(
        "runtime.backpressure_ratio",
        Some(run.would_block as f64 / (run.attempted + run.would_block).max(1) as f64),
        "ratio",
    );
}

/// Server-layer metrics from a traced http-credit loop.
fn server_metrics(r: &mut Report, run: &http::HttpRun) {
    let posts = run.post_secs();
    r.put(
        "server.post_us_p50",
        Quantiles::new(posts).median().map(|v| v * 1e6),
        "us",
    );
    r.put(
        "server.wait_overhead_us_p50",
        Quantiles::new(run.wait_overheads())
            .median()
            .map(|v| v * 1e6),
        "us",
    );
    let jobs = run.sum(|c| c.jobs).max(1) as f64;
    r.put(
        "server.polls_per_job",
        Some(run.sum(|c| c.waits) as f64 / jobs),
        "count",
    );
    r.put(
        "server.http_429_ratio",
        Some(run.sum(|c| c.http_429) as f64 / run.sum(|c| c.posts).max(1) as f64),
        "ratio",
    );
}

/// The traced run: the workload's own loop untraced and then traced (their
/// gap is the tracing overhead), short traced loops of the other
/// workloads for the runtime and server layers off this workload's path,
/// and the layer replays on this seed's inputs.
fn traced(args: &Args) -> Report {
    let mut r = Report::default();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let probe = Duration::from_secs_f64(PROBE_SECS);
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, true);
    let mut off = SpanLog::new(epoch, false);

    let bench = gamma::GammaBench::new(args.seed).warm_up();
    let gamma_oracle = gamma::oracle(&bench);
    let serve_pool = serve::pool(args.seed);
    let serve_oracle = serve::oracle(&serve_pool);
    let http_pool = http::pool(args.seed);
    let http_oracle = http::oracle(&http_pool);

    let (rate_off, rate_on);
    let mut gamma_run = None;
    let mut serve_run = None;
    let mut http_run = None;
    match args.workload.as_str() {
        "paper-gamma" => {
            let lat = || Samples::with_capacity(gamma::SAMPLES);
            let a = gamma::run(&bench, &gamma_oracle, half, lat(), &mut off);
            let b = gamma::run(&bench, &gamma_oracle, half, lat(), &mut log);
            r.count(a.attempted + b.attempted, a.failed + b.failed);
            let what = "samples per unstolen second, per sweep";
            rate_off = stats::rate_quantile(what, a.sweep_rates);
            rate_on = stats::rate_quantile(what, b.sweep_rates.clone());
            gamma_run = Some(b);
        }
        "serve-mix" => {
            let lat = || Samples::with_capacity(serve::SAMPLES);
            let rt = Runtime::new(RuntimeConfig::new(2));
            let a = serve::run(
                &rt,
                &serve_pool,
                &serve_oracle,
                half,
                u64::MAX,
                lat(),
                &mut off,
            );
            drop(rt);
            let rt = Runtime::new(RuntimeConfig::new(2));
            let b = serve::run(
                &rt,
                &serve_pool,
                &serve_oracle,
                half,
                u64::MAX,
                lat(),
                &mut log,
            );
            drop(rt);
            r.count(a.attempted + b.attempted, a.failed + b.failed);
            rate_off = a.windows.rate();
            rate_on = b.windows.rate();
            serve_run = Some(b);
        }
        _ => {
            let gw = gateway();
            let lat = || http::samples(http::SAMPLES);
            let a = http::run(
                &gw,
                &http_pool,
                &http_oracle,
                half,
                usize::MAX,
                lat(),
                &mut off,
            );
            let b = http::run(
                &gw,
                &http_pool,
                &http_oracle,
                half,
                usize::MAX,
                lat(),
                &mut log,
            );
            gw.stop();
            r.count(
                a.sum(|c| c.jobs) + b.sum(|c| c.jobs),
                a.failures() + b.failures(),
            );
            rate_off = a.rate();
            rate_on = b.rate();
            http_run = Some(b);
        }
    }
    // Replays right after the workload's own loop, so the paper-gamma
    // residual compares measurements taken under the same host conditions.
    let costs = gamma::replay(&bench, &gamma_oracle, REPLAY_REPS, &mut log);
    r.count(costs.checked, costs.failed);
    let graph = http::replay(&http_pool, REPLAY_REPS, &mut log);
    let serve = serve_run.unwrap_or_else(|| {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let lat = Samples::with_capacity(serve::SAMPLES);
        let run = serve::run(
            &rt,
            &serve_pool,
            &serve_oracle,
            probe,
            u64::MAX,
            lat,
            &mut log,
        );
        r.count(run.attempted, run.failed);
        run
    });
    let http = http_run.unwrap_or_else(|| {
        let gw = gateway();
        let lat = http::samples(http::SAMPLES);
        let run = http::run(
            &gw,
            &http_pool,
            &http_oracle,
            probe,
            usize::MAX,
            lat,
            &mut log,
        );
        gw.stop();
        r.count(run.sum(|c| c.jobs), run.failures());
        run
    });

    let residual = match gamma_run {
        Some(g) => 1.0 - g.sweeps as f64 * costs.execute_ns_per_sweep / (g.busy_secs * 1e9),
        None if args.workload == "serve-mix" => {
            1.0 - serve.phases.timeline_secs / serve.latencies.sum()
        }
        None => {
            let exchanged: f64 = http.clients.iter().map(|c| c.exchange_secs).sum();
            1.0 - exchanged / http.latency_secs()
        }
    };

    r.put("rng.mt_ns_per_word", Some(costs.mt_ns_per_word), "ns");
    r.put(
        "rng.normal_ns_per_attempt",
        Some(costs.normal_ns_per_attempt),
        "ns",
    );
    r.put(
        "rng.gamma_ns_per_sample",
        Some(costs.gamma_ns_per_sample),
        "ns",
    );
    r.put("rng.accept_ratio", Some(costs.accept_ratio), "ratio");
    r.put(
        "kernel.step_ns_per_sample",
        Some(costs.step_ns_per_sample),
        "ns",
    );
    r.put(
        "backend.functional_ns_per_sample",
        Some(costs.functional_ns_per_sample),
        "ns",
    );
    r.put(
        "backend.cyclesim_ns_per_sample",
        Some(costs.cyclesim_ns_per_sample),
        "ns",
    );
    r.put(
        "backend.self_ns_per_sample",
        Some(costs.functional_ns_per_sample - costs.step_ns_per_sample),
        "ns",
    );
    r.put("hls.sim_ns_per_cycle", Some(costs.sim_ns_per_cycle), "ns");
    r.put("hls.sim_cycles", Some(costs.sim_cycles as f64), "count");
    r.put("graph.run_us_per_job", Some(graph.run_us_per_job), "us");
    r.put("graph.self_us_per_job", Some(graph.self_us_per_job), "us");
    r.put("graph.edge_stalls", Some(graph.edge_stalls as f64), "count");
    runtime_metrics(&mut r, &serve, 2);
    server_metrics(&mut r, &http);
    r.put("server.spec_parse_us", Some(graph.spec_parse_us), "us");
    r.put("attr.residual_ratio", Some(residual), "ratio");
    r.put(
        "trace.overhead_ratio",
        rate_off.zip(rate_on).map(|(off, on)| off / on - 1.0),
        "ratio",
    );

    println!("layer self time (traced spans):");
    for (name, (n, total, own)) in log.self_times() {
        println!(
            "  {name:<28} n={n:<8} total={:>10.3} ms  self={:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    println!(
        "attr.residual_ratio {} {residual:.4} (share of end-to-end time no layer accounts for)",
        args.workload
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match log.write_chrome(&path) {
        Ok(n) => println!("trace written: {} ({n} spans)", path.display()),
        Err(e) => println!("trace not written: {e}"),
    }
    let digest = match args.workload.as_str() {
        "paper-gamma" => bench.sim_digest(),
        "serve-mix" => serve::sim_digest(&serve_oracle),
        _ => http_oracle.digest,
    };
    println!("sim_digest {} {digest:016x}", args.workload);
    r
}

fn json_result(r: &Report, correct: bool) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed {} for {} s, tracing {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let steal0 = stats::host_steal_secs();
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    // Time the hypervisor ran something else on this machine's CPUs: runs
    // with much of it are slowed by the host, not by the code.
    println!(
        "host steal during run: {:.2} s",
        stats::host_steal_secs() - steal0
    );
    for (name, v, unit) in &report.metrics {
        println!("metric {} {name} = {v:.6} {unit}", args.workload);
    }
    println!(
        "error_rate {} = {} / {} = {:.6}",
        args.workload,
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for name in &report.missing {
        println!("not measured: {name}");
    }
    let correct = report.failed == 0 && report.attempted > 0 && report.missing.is_empty();
    println!("{}", json_result(&report, correct));
    if !correct {
        std::process::exit(1);
    }
}
