//! JSON job specifications: the wire-expressible description of every
//! job the gateway accepts, shared verbatim with remote shard workers.
//!
//! The same canonical spec string builds the graph on both sides of the
//! wire protocol, so a remotely executed shard instantiates *exactly*
//! the kernels the gateway's runtime would — every RNG stream derives
//! from the global work-item id, making placement irrelevant to values.
//! Floats survive the JSON round trip exactly: Rust's `{}` formatting
//! prints shortest-round-trip decimal strings, and every `f32` parameter
//! passes through `f64` losslessly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dwi_core::graph::{GraphPlan, KernelGraph};
use dwi_core::{
    calibration_kernel, ExecutionPlan, SeverityExpMix, SeverityScale, TruncatedNormalKernel,
    WindowAggregate,
};
use dwi_hls::memory::BurstChannel;
use dwi_hls::sim::SimConfig;
use dwi_rng::{MtParams, NormalMethod, MT19937, MT521};
use dwi_runtime::Priority;
use dwi_trace::json::{escape_str, parse, Json};

/// The most samples one kernel or graph job may ask for: `workitems ×
/// quota` of every node (a calibration kernel's quota is its `samples`).
/// Backends allocate a node's whole output buffer before the first step,
/// so an unbounded product aborts the process on a failed allocation
/// instead of failing the job. 2^26 `f32` samples is 256 MiB per buffer,
/// several hundred times the largest job a table, figure or benchmark
/// pool submits (a 100,000-sample calibration).
const MAX_JOB_SAMPLES: u64 = 1 << 26;

/// One parsed submission, ready for the runtime's front door.
pub enum ParsedJob {
    /// A kernel or multi-stage graph job (the shardable, remote-eligible
    /// kind).
    Graph {
        graph: Arc<KernelGraph>,
        plan: GraphPlan,
        seed: u64,
        shards: Option<u32>,
        priority: Priority,
        deadline: Option<Duration>,
        /// Canonical graph spec (kernel + stages + name + edge depth):
        /// what the wire protocol ships so a remote worker rebuilds the
        /// identical graph.
        graph_json: String,
    },
    /// A cycle-level transfer simulation ([`dwi_hls::sim::run`]), riding
    /// the runtime's task lane.
    Sim(SimConfig),
    /// An analytic transfers-only model point
    /// ([`BurstChannel::transfers_only_runtime`] +
    /// [`BurstChannel::effective_bandwidth`]), riding the task lane.
    Transfers {
        channel: BurstChannel,
        total: u64,
        burst: u64,
        workitems: u64,
    },
}

/// Render a [`Json`] value canonically: object keys sorted (the parser's
/// `BTreeMap` already is), numbers via `f64`'s shortest-round-trip
/// display, strings escaped. `parse(render(v)) == v`.
pub fn render_json(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => escape_str(s),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{}:{}", escape_str(k), render_json(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn num(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn num_or(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("non-numeric field '{key}'")),
    }
}

fn uint(obj: &Json, key: &str) -> Result<u64, String> {
    let v = num(obj, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("field '{key}' must be a non-negative integer"));
    }
    Ok(v as u64)
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn normal_method(name: &str) -> Result<NormalMethod, String> {
    match name {
        "marsaglia-bray" => Ok(NormalMethod::MarsagliaBray),
        "icdf-fpga" => Ok(NormalMethod::IcdfFpga),
        "icdf-cuda" => Ok(NormalMethod::IcdfCuda),
        other => Err(format!("unknown normal method '{other}'")),
    }
}

fn mt_params(v: &Json) -> Result<MtParams, String> {
    let mt = match v {
        Json::Str(s) if s == "mt19937" => MT19937,
        Json::Str(s) if s == "mt521" => MT521,
        Json::Obj(_) => MtParams {
            exponent: uint(v, "exponent")? as u32,
            n: uint(v, "n")? as usize,
            m: uint(v, "m")? as usize,
            r: uint(v, "r")? as u32,
            a: uint(v, "a")? as u32,
            u: uint(v, "u")? as u32,
            d: uint(v, "d")? as u32,
            s: uint(v, "s")? as u32,
            b: uint(v, "b")? as u32,
            t: uint(v, "t")? as u32,
            c: uint(v, "c")? as u32,
            l: uint(v, "l")? as u32,
            f: uint(v, "f")? as u32,
        },
        _ => return Err("field 'mt' must be \"mt19937\", \"mt521\", or a parameter object".into()),
    };
    mt.validate().map_err(|e| format!("invalid 'mt': {e}"))?;
    Ok(mt)
}

/// A per-work-item output quota: a positive integer.
fn quota(k: &Json) -> Result<u64, String> {
    match uint(k, "quota")? {
        0 => Err("quota must be at least 1".into()),
        q => Ok(q),
    }
}

/// The `(w, lambda1, lambda2)` of a two-component exponential mixture,
/// checked against the constructors' preconditions: `w` in (0, 1) and
/// `lambda1 >= lambda2 > 0`.
fn mixture(obj: &Json) -> Result<(f32, f32, f32), String> {
    let w = num(obj, "w")? as f32;
    let lambda1 = num(obj, "lambda1")? as f32;
    let lambda2 = num(obj, "lambda2")? as f32;
    if !(0.0..1.0).contains(&w) || w == 0.0 {
        return Err("w must be in (0, 1)".into());
    }
    if lambda2.is_nan() || lambda2 <= 0.0 {
        return Err("lambda2 must be positive".into());
    }
    if lambda1.is_nan() || lambda1 < lambda2 {
        return Err("lambda1 must be at least lambda2".into());
    }
    Ok((w, lambda1, lambda2))
}

/// Serialize an [`MtParams`] back to its spec object — the exact inverse
/// of the spec parser's `mt_params` on the object form.
pub fn mt_params_json(mt: &MtParams) -> String {
    format!(
        "{{\"a\":{},\"b\":{},\"c\":{},\"d\":{},\"exponent\":{},\"f\":{},\"l\":{},\"m\":{},\"n\":{},\"r\":{},\"s\":{},\"t\":{},\"u\":{}}}",
        mt.a, mt.b, mt.c, mt.d, mt.exponent, mt.f, mt.l, mt.m, mt.n, mt.r, mt.s, mt.t, mt.u
    )
}

/// Build the source kernel a `"kernel"` object describes. Every
/// parameter a constructor would `assert!` on is checked here first, so a
/// bad spec is rejected at the boundary instead of panicking the handler
/// or, later, the worker that instantiates it.
fn build_source(k: &Json) -> Result<dwi_core::SharedWorkItemKernel, String> {
    match str_field(k, "type")? {
        "truncated-normal" => {
            let a = num(k, "a")? as f32;
            if !a.is_finite() || a < 0.0 {
                return Err("a must be finite and non-negative".into());
            }
            Ok(Arc::new(TruncatedNormalKernel::new(
                a,
                quota(k)?,
                uint(k, "seed")? as u32,
            )))
        }
        "severity-exp-mix" => {
            let (w, lambda1, lambda2) = mixture(k)?;
            Ok(Arc::new(SeverityExpMix::new(
                w,
                lambda1,
                lambda2,
                quota(k)?,
                uint(k, "seed")? as u32,
            )))
        }
        "calibration" => {
            let mt = mt_params(
                k.get("mt")
                    .ok_or_else(|| "missing field 'mt'".to_string())?,
            )?;
            let sector_variance = num(k, "sector_variance")? as f32;
            if !sector_variance.is_finite() || sector_variance <= 0.0 {
                return Err("sector_variance must be finite and positive".into());
            }
            let samples = uint32(k, "samples")?;
            if samples == 0 {
                return Err("samples must be at least 1".into());
            }
            Ok(Arc::new(calibration_kernel(
                normal_method(str_field(k, "normal")?)?,
                mt,
                sector_variance,
                samples,
            )))
        }
        other => Err(format!("unknown kernel type '{other}'")),
    }
}

/// Build the [`KernelGraph`] a graph spec object (`kernel` + optional
/// `stages` + optional `name`) describes. Shared by the gateway and the
/// wire worker — both sides of a remote dispatch call exactly this.
pub fn build_graph(spec: &Json) -> Result<KernelGraph, String> {
    let kernel = spec
        .get("kernel")
        .ok_or_else(|| "missing field 'kernel'".to_string())?;
    let source = build_source(kernel)?;
    let stages = match spec.get("stages") {
        None | Some(Json::Null) => &[][..],
        Some(v) => v
            .as_arr()
            .ok_or_else(|| "field 'stages' must be an array".to_string())?,
    };
    if stages.is_empty() {
        return Ok(KernelGraph::single(source));
    }
    let name = spec
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("pipeline");
    let mut graph = KernelGraph::pipeline(name, source);
    for stage in stages {
        graph = match str_field(stage, "type")? {
            "window-aggregate" => {
                let w = uint(stage, "window")? as u32;
                if w < 1 {
                    return Err("window must be at least 1".into());
                }
                graph.then(Arc::new(WindowAggregate::new(w)))
            }
            "severity-scale" => {
                let (w, lambda1, lambda2) = mixture(stage)?;
                graph.then(Arc::new(SeverityScale::new(
                    w,
                    lambda1,
                    lambda2,
                    uint(stage, "seed")? as u32,
                )))
            }
            other => return Err(format!("unknown stage type '{other}'")),
        };
    }
    Ok(graph)
}

fn burst_channel(v: Option<&Json>) -> Result<BurstChannel, String> {
    match v {
        None | Some(Json::Null) => Ok(BurstChannel::config12()),
        Some(Json::Str(s)) if s == "config12" => Ok(BurstChannel::config12()),
        Some(Json::Str(s)) if s == "config34" => Ok(BurstChannel::config34()),
        Some(obj @ Json::Obj(_)) => {
            let freq_hz = num(obj, "freq_hz")?;
            if !(freq_hz.is_finite() && freq_hz > 0.0) {
                return Err("channel freq_hz must be positive and finite".into());
            }
            Ok(BurstChannel {
                freq_hz,
                cycles_per_beat: u64::from(positive_u32(obj, "cycles_per_beat")?),
                arb_cycles: u64::from(uint32(obj, "arb_cycles")?),
                pack_cycles_per_rn: u64::from(uint32(obj, "pack_cycles_per_rn")?),
            })
        }
        _ => Err("field 'channel' must be \"config12\", \"config34\", or an object".into()),
    }
}

/// A non-negative integer field that fits in a `u32`.
fn uint32(obj: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(uint(obj, key)?).map_err(|_| format!("field '{key}' exceeds {}", u32::MAX))
}

/// [`uint32`] that must also be at least 1.
fn positive_u32(obj: &Json, key: &str) -> Result<u32, String> {
    match uint32(obj, key)? {
        0 => Err(format!("field '{key}' must be at least 1")),
        v => Ok(v),
    }
}

/// [`uint32`], or `default` when the field is absent.
fn uint32_or(obj: &Json, key: &str, default: u32) -> Result<u32, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(_) => uint32(obj, key),
    }
}

/// Build the [`ExecutionPlan`] a `"plan"` object describes: `workitems`
/// required, everything else the library default. Every geometry field
/// is checked here, so no plan that parses can trip an engine assert.
fn build_plan(p: &Json) -> Result<ExecutionPlan, String> {
    let workitems = uint32(p, "workitems")?;
    if workitems < 1 {
        return Err("plan needs at least one work-item".into());
    }
    let local_size = uint32_or(p, "local_size", 1)?;
    if local_size < 1 || !workitems.is_multiple_of(local_size) {
        return Err(format!(
            "local_size must be at least 1 and divide workitems ({workitems})"
        ));
    }
    let stream_depth = uint32_or(p, "stream_depth", 64)?;
    if stream_depth < 1 {
        return Err("stream_depth must be at least 1".into());
    }
    let burst = uint32_or(p, "burst_rns", 256)?;
    if burst < 16 || !burst.is_multiple_of(16) {
        return Err("burst_rns must be a multiple of 16, at least 16".into());
    }
    let wid_base = uint32_or(p, "wid_base", 0)?;
    if u64::from(wid_base) + u64::from(workitems) > u64::from(u32::MAX) {
        return Err(format!("wid_base + workitems exceeds {}", u32::MAX));
    }
    let mut plan = ExecutionPlan::new(workitems)
        .local_size(local_size)
        .stream_depth(stream_depth as usize)
        .burst_rns(u64::from(burst))
        .wid_base(wid_base);
    match p.get("combining").and_then(Json::as_str) {
        None | Some("device-level") => {}
        Some("host-level") => plan = plan.combining(dwi_core::Combining::HostLevel),
        Some(other) => return Err(format!("unknown combining '{other}'")),
    }
    if p.get("freq_hz").is_some() {
        let f = num(p, "freq_hz")?;
        if !(f.is_finite() && f > 0.0) {
            return Err("freq_hz must be positive and finite".into());
        }
        plan = plan.freq_hz(f);
    }
    plan = plan.channel(burst_channel(p.get("channel"))?);
    Ok(plan)
}

/// Build the [`SimConfig`] a `"sim"` object describes, checking every
/// field [`dwi_hls::sim::run`] asserts on.
fn sim_config(s: &Json) -> Result<SimConfig, String> {
    let reject_prob = num_or(s, "reject_prob", 0.0)?;
    if !(0.0..1.0).contains(&reject_prob) {
        return Err("reject_prob must be in [0, 1)".into());
    }
    let burst = uint32_or(s, "burst_rns", 256)?;
    if burst < 16 || !burst.is_multiple_of(16) {
        return Err("burst_rns must be a multiple of 16, at least 16".into());
    }
    let fifo_depth = uint32_or(s, "fifo_depth", 64)?;
    if fifo_depth < 1 {
        return Err("fifo_depth must be at least 1".into());
    }
    let seed = match s.get("seed") {
        None | Some(Json::Null) => 1,
        Some(_) => uint(s, "seed")?,
    };
    Ok(SimConfig {
        n_workitems: positive_u32(s, "workitems")? as usize,
        rns_per_workitem: uint(s, "rns_per_workitem")?,
        reject_prob,
        fifo_depth: fifo_depth as usize,
        burst_rns: u64::from(burst),
        channel: burst_channel(s.get("channel"))?,
        compute_enabled: matches!(s.get("compute"), Some(Json::Bool(true))),
        seed,
        trace: false,
    })
}

/// Parse one `POST /v1/jobs` body. Exactly one of `kernel`, `sim`, or
/// `transfers` selects the job kind; `kernel` takes the shardable path
/// with optional `stages`, `plan`, `seed`, `shards`, `priority`,
/// `deadline_ms`, and `edge_depth` (omitted: picked by
/// [`GraphPlan::auto_edge_depth`] from the dataflow cost model).
pub fn parse_job(body: &str) -> Result<ParsedJob, String> {
    let root = parse(body)?;
    if !matches!(root, Json::Obj(_)) {
        return Err("job spec must be a JSON object".into());
    }

    if let Some(s) = root.get("sim") {
        return Ok(ParsedJob::Sim(sim_config(s)?));
    }
    if let Some(t) = root.get("transfers") {
        return Ok(ParsedJob::Transfers {
            channel: burst_channel(t.get("channel"))?,
            total: u64::from(uint32(t, "total")?),
            burst: u64::from(positive_u32(t, "burst")?),
            workitems: u64::from(positive_u32(t, "workitems")?),
        });
    }

    let graph = Arc::new(build_graph(&root)?);
    let plan_obj = root
        .get("plan")
        .ok_or_else(|| "missing field 'plan'".to_string())?;
    let base = build_plan(plan_obj)?;
    let workitems = u64::from(base.workitems);
    if graph
        .quotas()
        .iter()
        .any(|&q| q.saturating_mul(workitems) > MAX_JOB_SAMPLES)
    {
        return Err(format!(
            "workitems x quota exceeds the per-job budget of {MAX_JOB_SAMPLES} samples"
        ));
    }
    let mut plan = GraphPlan::new(base);
    plan = match root.get("edge_depth") {
        None | Some(Json::Null) => plan.auto_edge_depth(&graph),
        Some(_) => plan.edge_depth(positive_u32(&root, "edge_depth")? as usize),
    };
    let seed = num_or(&root, "seed", 0.0)? as u64;
    let shards = match root.get("shards") {
        None | Some(Json::Null) => None,
        Some(_) => Some(positive_u32(&root, "shards")?),
    };
    let priority = match root.get("priority").and_then(Json::as_str) {
        None | Some("normal") => Priority::Normal,
        Some("high") => Priority::High,
        Some("low") => Priority::Low,
        Some(other) => return Err(format!("unknown priority '{other}'")),
    };
    let deadline = match root.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(_) => Some(Duration::from_millis(
            positive_u32(&root, "deadline_ms")?.into(),
        )),
    };

    // Canonical wire form of the graph half: only the fields that decide
    // values, re-rendered with sorted keys. Edge depth rides along so a
    // remote worker's report carries identical edge accounting.
    let mut wire = BTreeMap::new();
    for key in ["kernel", "stages", "name"] {
        if let Some(v) = root.get(key) {
            wire.insert(key.to_string(), v.clone());
        }
    }
    wire.insert("edge_depth".to_string(), Json::Num(plan.depth() as f64));
    let graph_json = render_json(&Json::Obj(wire));

    Ok(ParsedJob::Graph {
        graph,
        plan,
        seed,
        shards,
        priority,
        deadline,
        graph_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_render_round_trips() {
        let src = r#"{"b": 2, "a": [1.5, "x\"y", null, true], "z": {"k": 256}}"#;
        let v = parse(src).unwrap();
        let canon = render_json(&v);
        assert_eq!(parse(&canon).unwrap(), v);
        // Canonical form is a fixpoint.
        assert_eq!(render_json(&parse(&canon).unwrap()), canon);
        // Keys come out sorted.
        assert!(canon.find("\"a\"").unwrap() < canon.find("\"b\"").unwrap());
    }

    #[test]
    fn kernel_spec_builds_the_same_graph_on_both_sides() {
        let body = r#"{
            "kernel": {"type": "severity-exp-mix", "w": 0.5, "lambda1": 2.0,
                       "lambda2": 0.5, "quota": 32, "seed": 5},
            "stages": [{"type": "window-aggregate", "window": 4},
                       {"type": "severity-scale", "w": 0.5, "lambda1": 2.0,
                        "lambda2": 0.5, "seed": 5}],
            "name": "credit",
            "plan": {"workitems": 2},
            "seed": 5
        }"#;
        let ParsedJob::Graph {
            graph,
            plan,
            seed,
            graph_json,
            ..
        } = parse_job(body).expect("valid spec")
        else {
            panic!("kernel spec parses to a graph job");
        };
        assert_eq!(seed, 5);
        assert_eq!(graph.len(), 3);
        assert_eq!(graph.name(), "credit");
        // Omitted edge_depth went through the auto pick and is pinned in
        // the wire form, so the worker sees the same effective plan.
        let remote = build_graph(&parse(&graph_json).unwrap()).expect("wire form rebuilds");
        assert_eq!(remote.topology(), graph.topology());
        assert_eq!(
            parse(&graph_json)
                .unwrap()
                .get("edge_depth")
                .unwrap()
                .as_f64(),
            Some(plan.depth() as f64)
        );
    }

    #[test]
    fn calibration_spec_builds() {
        let body = r#"{
            "kernel": {"type": "calibration", "normal": "marsaglia-bray",
                       "mt": "mt19937", "sector_variance": 4.0, "samples": 1000},
            "plan": {"workitems": 1}
        }"#;
        let ParsedJob::Graph { graph, .. } = parse_job(body).expect("valid") else {
            panic!("calibration is a kernel job");
        };
        assert_eq!(graph.source().name(), "gamma-listing2");
    }

    #[test]
    fn task_specs_build() {
        let sim = r#"{"sim": {"workitems": 4, "rns_per_workitem": 4096,
                              "channel": "config34"}}"#;
        assert!(matches!(parse_job(sim), Ok(ParsedJob::Sim(_))));
        let tr = r#"{"transfers": {"total": 1000000, "burst": 256, "workitems": 6}}"#;
        assert!(matches!(parse_job(tr), Ok(ParsedJob::Transfers { .. })));
    }

    #[test]
    fn malformed_specs_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[]",
            r#"{"kernel": {"type": "nope"}, "plan": {"workitems": 1}}"#,
            r#"{"kernel": {"type": "truncated-normal"}, "plan": {"workitems": 1}}"#,
            r#"{"kernel": {"type": "truncated-normal", "a": 1.5, "quota": 8, "seed": 1}}"#,
            r#"{"kernel": {"type": "truncated-normal", "a": 1.5, "quota": 8, "seed": 1},
                "plan": {"workitems": 0}}"#,
            r#"{"kernel": {"type": "truncated-normal", "a": 1.5, "quota": 8, "seed": 1},
                "plan": {"workitems": 1, "burst_rns": 7}}"#,
            r#"{"kernel": {"type": "truncated-normal", "a": 1.5, "quota": 8, "seed": 1},
                "plan": {"workitems": 1}, "shards": 1.5}"#,
            r#"{"kernel": {"type": "truncated-normal", "a": 1.5, "quota": 8, "seed": 1},
                "plan": {"workitems": 1}, "deadline_ms": 1e300}"#,
            r#"{"transfers": {"total": 100, "burst": 256, "workitems": 0}}"#,
            r#"{"transfers": {"total": 1e300, "burst": 256, "workitems": 1}}"#,
            r#"{"transfers": {"total": 100, "burst": 1e300, "workitems": 1}}"#,
            r#"{"transfers": {"total": 100, "burst": 256, "workitems": 1,
                "channel": {"freq_hz": 0, "cycles_per_beat": 3, "arb_cycles": 9,
                            "pack_cycles_per_rn": 1}}}"#,
            r#"{"transfers": {"total": 100, "burst": 256, "workitems": 1,
                "channel": {"freq_hz": 2e8, "cycles_per_beat": 0, "arb_cycles": 9,
                            "pack_cycles_per_rn": 1}}}"#,
        ] {
            assert!(parse_job(bad).is_err(), "accepted: {bad}");
        }
    }

    /// `body` must come back as an `Err` naming `needle`.
    fn rejected(body: &str, needle: &str) {
        match parse_job(body) {
            Err(e) => assert!(e.contains(needle), "{body}: error {e:?} lacks {needle:?}"),
            Ok(_) => panic!("accepted: {body}"),
        }
    }

    fn tn(a: &str, quota: &str) -> String {
        format!(
            r#"{{"kernel": {{"type": "truncated-normal", "a": {a}, "quota": {quota},
                "seed": 1}}, "plan": {{"workitems": 1}}}}"#
        )
    }

    fn mix(w: &str, lambda1: &str, lambda2: &str) -> String {
        format!(
            r#"{{"kernel": {{"type": "severity-exp-mix", "w": {w}, "lambda1": {lambda1},
                "lambda2": {lambda2}, "quota": 8, "seed": 1}}, "plan": {{"workitems": 1}}}}"#
        )
    }

    #[test]
    fn negative_truncation_point_is_rejected() {
        rejected(&tn("-1", "8"), "a must be");
    }

    #[test]
    fn non_finite_truncation_point_is_rejected() {
        // 1e999 overflows f64 to infinity in the parser.
        rejected(&tn("1e999", "8"), "a must be");
    }

    #[test]
    fn zero_quota_is_rejected() {
        rejected(&tn("1.5", "0"), "quota must be at least 1");
        let body = mix("0.5", "2", "0.5").replace(r#""quota": 8"#, r#""quota": 0"#);
        rejected(&body, "quota must be at least 1");
    }

    #[test]
    fn mixture_weight_outside_the_open_unit_interval_is_rejected() {
        for w in ["0", "1", "-0.5", "1.5"] {
            rejected(&mix(w, "2", "0.5"), "w must be in (0, 1)");
        }
    }

    #[test]
    fn inverted_mixture_rates_are_rejected() {
        rejected(&mix("0.5", "0.5", "2"), "lambda1 must be at least lambda2");
    }

    #[test]
    fn non_positive_tail_rate_is_rejected() {
        rejected(&mix("0.5", "2", "0"), "lambda2 must be positive");
        rejected(&mix("0.5", "2", "-1"), "lambda2 must be positive");
    }

    #[test]
    fn severity_scale_stage_rates_are_checked_too() {
        let body = r#"{"kernel": {"type": "severity-exp-mix", "w": 0.5, "lambda1": 2.0,
            "lambda2": 0.5, "quota": 8, "seed": 1},
            "stages": [{"type": "severity-scale", "w": 0.5, "lambda1": 0.5,
                        "lambda2": 2.0, "seed": 1}],
            "plan": {"workitems": 1}}"#;
        rejected(body, "lambda1 must be at least lambda2");
    }

    #[test]
    fn invalid_mt_parameter_objects_are_rejected() {
        let with_mt = |mt: MtParams| {
            format!(
                r#"{{"kernel": {{"type": "calibration", "normal": "marsaglia-bray",
                    "mt": {}, "sector_variance": 4.0, "samples": 100}},
                    "plan": {{"workitems": 1}}}}"#,
                mt_params_json(&mt)
            )
        };
        // A valid object form parses.
        assert!(parse_job(&with_mt(MT521)).is_ok());
        // n = 0 would index an empty state vector inside `AdaptedMt::new`.
        rejected(&with_mt(MtParams { n: 0, ..MT19937 }), "invalid 'mt'");
        // m outside 1..n would silently produce garbage streams.
        rejected(
            &with_mt(MtParams {
                n: 1,
                m: 5,
                ..MT19937
            }),
            "invalid 'mt'",
        );
        rejected(&with_mt(MtParams { m: 624, ..MT19937 }), "invalid 'mt'");
        rejected(&with_mt(MtParams { r: 32, ..MT19937 }), "invalid 'mt'");
        rejected(
            &with_mt(MtParams {
                exponent: 1,
                ..MT19937
            }),
            "invalid 'mt'",
        );
    }

    #[test]
    fn degenerate_calibration_parameters_are_rejected() {
        let calib = |sv: &str, samples: &str| {
            format!(
                r#"{{"kernel": {{"type": "calibration", "normal": "marsaglia-bray",
                    "mt": "mt19937", "sector_variance": {sv}, "samples": {samples}}},
                    "plan": {{"workitems": 1}}}}"#
            )
        };
        rejected(&calib("0", "100"), "sector_variance must be");
        rejected(&calib("-2", "100"), "sector_variance must be");
        rejected(&calib("4.0", "0"), "samples must be at least 1");
        rejected(&calib("4.0", "134217728"), "per-job budget");
        rejected(&calib("4.0", "1e15"), "exceeds");
    }

    #[test]
    fn jobs_over_the_sample_budget_are_rejected() {
        rejected(&tn("1.5", "1e15"), "per-job budget");
        let wide = tn("1.5", "65536").replace(r#""workitems": 1"#, r#""workitems": 1025"#);
        rejected(&wide, "per-job budget");
        let at_budget = tn("1.5", "65536").replace(r#""workitems": 1"#, r#""workitems": 1024"#);
        assert!(parse_job(&at_budget).is_ok());
    }
}
