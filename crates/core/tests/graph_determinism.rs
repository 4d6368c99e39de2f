//! The graph layer's contract, checked as properties over every backend:
//!
//! 1. **Degenerate-case identity** — a one-node [`KernelGraph`] is the
//!    bare kernel: same samples, same cycles, and a cache fingerprint
//!    that extends the plan's with the kernel's own quota/phase shape
//!    (so jobs differing only in quota can never collide), on all five
//!    backends. The graph spine may
//!    therefore carry single-kernel jobs without any observable change.
//! 2. **Composition parity** — a pipe-connected pipeline run produces,
//!    stage by stage, exactly the samples of an explicit host-mediated
//!    composition (execute a stage, record its streams, feed the next)
//!    on each of the five backends.
//!    On `FunctionalDecoupled` the graph executor builds every stage's
//!    report from the pipe-connected pass instead of running the stage,
//!    so the composition is the oracle for the whole report there: every
//!    `RunReport` field and every `Decoupled` detail vector, over a
//!    seeded sweep of graphs and plans.
//! 3. **Conservation** — every inter-stage FIFO's token accounting
//!    balances (`pushed = pulled + residue + dropped`), occupancy respects
//!    the configured depth, and the dataflow cost model agrees with the
//!    edge ledger.
//! 4. **Depth independence** — FIFO depth changes scheduling and stalls,
//!    never values.

use std::sync::Arc;

use dwi_core::graph::{GraphPlan, KernelGraph, StagedKernel};
use dwi_core::{
    all_backends, credit_pipeline, Backend, BackendDetail, Combining, ExecutionPlan,
    FunctionalDecoupled, GammaListing2, RunReport, SeverityExpMix, SeverityScale,
    SharedWorkItemKernel, TruncatedNormalKernel, WindowAggregate, WorkItemKernel,
};
use dwi_rng::KernelConfig;
use dwi_testkit::{cases, Rng};

fn credit_cfg(limit_main: u32, seed: u64) -> KernelConfig {
    KernelConfig {
        limit_main,
        limit_sec: 2,
        seed,
        ..KernelConfig::default()
    }
}

#[test]
fn one_node_graph_is_the_bare_kernel_on_every_backend() {
    let kernels: Vec<Arc<dyn WorkItemKernel + Send + Sync>> = vec![
        Arc::new(TruncatedNormalKernel::new(1.5, 96, 21)),
        Arc::new(SeverityExpMix::credit_severity(96, 21)),
    ];
    for kernel in kernels {
        let plan = ExecutionPlan::new(4);
        let gplan = GraphPlan::new(plan.clone());
        let graph = KernelGraph::single(kernel.clone());
        assert!(
            graph.fingerprint(&gplan).starts_with(&plan.fingerprint()),
            "one-node graphs extend the plan cache identity"
        );
        assert_ne!(
            graph.fingerprint(&gplan),
            KernelGraph::single(Arc::new(SeverityExpMix::credit_severity(192, 21)))
                .fingerprint(&gplan),
            "jobs differing only in quota must not share a cache identity"
        );
        for backend in all_backends() {
            let bare = backend.execute(kernel.as_ref(), &plan);
            let via_graph = backend.run(&graph, &gplan);
            assert!(via_graph.is_single());
            assert_eq!(via_graph.stages.len(), 1);
            assert_eq!(
                via_graph.final_samples(),
                &bare.samples[..],
                "{}: one-node graph diverged from the bare kernel",
                backend.name()
            );
            assert_eq!(via_graph.cycles, bare.cycles, "{}", backend.name());
            assert!(via_graph.edges.is_empty() && via_graph.dataflow.is_none());
        }
    }
}

#[test]
fn pipeline_matches_host_mediated_composition_on_every_backend() {
    let graph = credit_pipeline(credit_cfg(32, 7), 8, 7);
    let plan = ExecutionPlan::new(4);
    let gplan = GraphPlan::new(plan.clone());
    // The pipe-connected pass does not depend on the backend, and
    // FunctionalDecoupled's stage reports carry its samples (the other
    // backends re-run each stage for their reports).
    let piped = FunctionalDecoupled.run(&graph, &gplan);
    for backend in all_backends() {
        let report = backend.run(&graph, &gplan);
        assert_eq!(report.stages.len(), graph.len());

        // Independent reference: run each stage as its own backend
        // dispatch, feeding it the previous stage's recorded streams.
        let mut composed = vec![backend.execute(graph.source().as_ref(), &plan)];
        for (k, stage) in graph.stage_kernels().iter().enumerate() {
            let feed = Arc::new(composed[k].samples.clone());
            let staged = StagedKernel::new(stage.clone(), feed, plan.wid_base, graph.quotas()[k]);
            composed.push(backend.execute(&staged, &plan));
        }
        for (k, host) in composed.iter().enumerate() {
            assert_eq!(
                piped.stages[k].samples,
                host.samples,
                "{} stage {k}: pipe-connected pass diverged from the \
                 host-mediated composition",
                backend.name()
            );
            assert_eq!(
                report.stages[k].samples,
                host.samples,
                "{} stage {k}: graph report diverged from the host-mediated \
                 composition",
                backend.name()
            );
        }
    }
}

#[test]
fn edge_accounting_conserves_tokens_on_every_backend() {
    for depth in [1usize, 3, 64] {
        let graph = credit_pipeline(credit_cfg(24, 11), 4, 11);
        let plan = GraphPlan::new(ExecutionPlan::new(2)).edge_depth(depth);
        for backend in all_backends() {
            let report = backend.run(&graph, &plan);
            assert_eq!(report.edges.len(), graph.len() - 1);
            for e in &report.edges {
                assert_eq!(
                    e.pushed,
                    e.pulled + e.residue + e.dropped,
                    "{} edge {}->{} at depth {depth}: token ledger out of \
                     balance",
                    backend.name(),
                    e.from,
                    e.to
                );
                assert_eq!(e.depth, depth);
                assert!(
                    e.high_water <= depth,
                    "{}: FIFO occupancy {} exceeded depth {depth}",
                    backend.name(),
                    e.high_water
                );
            }
            let df = report.dataflow.as_ref().expect("multi-stage dataflow");
            assert_eq!(df.stage_stalls.len(), graph.len());
            assert_eq!(df.edge_tokens.len(), report.edges.len());
            assert!(df.cycles > 0);
        }
    }
}

#[test]
fn fifo_depth_never_changes_values() {
    let graph = Arc::new(
        KernelGraph::pipeline(
            "depth-sweep",
            Arc::new(SeverityExpMix::credit_severity(48, 3)),
        )
        .then(Arc::new(WindowAggregate::new(6)))
        .then(Arc::new(SeverityScale::credit(3))),
    );
    for backend in all_backends() {
        let mut baseline: Option<Vec<Vec<f32>>> = None;
        let mut stalls = Vec::new();
        for depth in [1usize, 2, 16, 512] {
            let plan = GraphPlan::new(ExecutionPlan::new(2)).edge_depth(depth);
            let report = backend.run(&graph, &plan);
            let samples = report.final_samples().to_vec();
            match &baseline {
                None => baseline = Some(samples),
                Some(b) => assert_eq!(
                    &samples,
                    b,
                    "{} at depth {depth}: FIFO depth leaked into values",
                    backend.name()
                ),
            }
            stalls.push(report.dataflow.expect("dataflow").stage_stalls);
        }
        // Depth is allowed (expected, even) to move the stall profile —
        // that is the whole point of modeling it.
        assert!(stalls.iter().all(|s| s.len() == graph.len()));
    }
}

/// Every field of two `FunctionalDecoupled` stage reports, detail
/// included; values compare bit for bit.
fn assert_same_report(got: &RunReport, want: &RunReport, case: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.backend, want.backend, "{case}: backend");
    assert_eq!(got.kernel, want.kernel, "{case}: kernel");
    assert_eq!(got.workitems, want.workitems, "{case}: workitems");
    assert_eq!(got.wid_base, want.wid_base, "{case}: wid_base");
    assert_eq!(got.quota, want.quota, "{case}: quota");
    let got_samples: Vec<_> = got.samples.iter().map(|s| bits(s)).collect();
    let want_samples: Vec<_> = want.samples.iter().map(|s| bits(s)).collect();
    assert_eq!(got_samples, want_samples, "{case}: samples");
    assert_eq!(got.iterations, want.iterations, "{case}: iterations");
    assert_eq!(got.divergence, want.divergence, "{case}: divergence");
    assert_eq!(got.rejection, want.rejection, "{case}: rejection");
    assert_eq!(got.cycles, want.cycles, "{case}: cycles");
    let (
        BackendDetail::Decoupled {
            host_buffer: got_host,
            transfers: got_transfers,
            stream_high_water: got_high_water,
            stream_stalls: got_stalls,
        },
        BackendDetail::Decoupled {
            host_buffer: want_host,
            transfers: want_transfers,
            stream_high_water: want_high_water,
            stream_stalls: want_stalls,
        },
    ) = (&got.detail, &want.detail)
    else {
        panic!("{case}: FunctionalDecoupled reports carry Decoupled detail");
    };
    assert_eq!(bits(got_host), bits(want_host), "{case}: host_buffer");
    assert_eq!(got_transfers, want_transfers, "{case}: transfers");
    assert_eq!(got_high_water, want_high_water, "{case}: stream_high_water");
    assert_eq!(got_stalls, want_stalls, "{case}: stream_stalls");
}

/// The work-item FIFO's telemetry in closed form. Derived and composed
/// stage reports share one FIFO, so this pins the rule itself: a
/// work-item emitting `e` values buffers at most `min(e, depth)` of them
/// and stalls on every write that finds the FIFO full, `(e - 1) / depth`
/// times.
fn assert_fifo_rule(report: &RunReport, depth: usize, case: &str) {
    let BackendDetail::Decoupled {
        stream_high_water,
        stream_stalls,
        ..
    } = &report.detail
    else {
        panic!("{case}: FunctionalDecoupled reports carry Decoupled detail");
    };
    for (w, s) in report.samples.iter().enumerate() {
        let e = s.len();
        assert_eq!(
            stream_high_water[w],
            e.min(depth),
            "{case} work-item {w}: stream_high_water"
        );
        let stalls = (e.saturating_sub(1) / depth) as u64;
        assert_eq!(
            stream_stalls[w],
            (stalls, 0),
            "{case} work-item {w}: stream_stalls"
        );
    }
}

/// One sweep case: a random source and stage chain under a random plan,
/// executed as `shards` work-item shards.
struct Case {
    graph: KernelGraph,
    plan: GraphPlan,
    shards: u32,
}

fn random_case(r: &mut Rng) -> Case {
    // Quota 1001 leaves a remainder under every window but 7, 11 and 13.
    let quota = if r.u32_range(0, 4) == 0 {
        1001
    } else {
        r.u64_range(1, 200)
    };
    let seed = r.next_u32();
    let source: SharedWorkItemKernel = match r.u32_range(0, 3) {
        0 => Arc::new(SeverityExpMix::credit_severity(quota, seed)),
        1 => Arc::new(TruncatedNormalKernel::new(
            r.f32_range(0.5, 2.5),
            quota,
            seed,
        )),
        // A tight `limitMax` truncates some work-items' streams short of
        // their quota.
        _ => Arc::new(GammaListing2::new(KernelConfig {
            limit_main: quota.div_ceil(2) as u32,
            limit_sec: 2,
            limit_max_factor: r.u32_range(1, 3),
            seed: seed as u64,
            ..KernelConfig::default()
        })),
    };
    let mut graph = KernelGraph::pipeline("sweep", source);
    for _ in 0..r.u32_range(1, 4) {
        let upstream = graph.final_quota();
        graph = if r.bool() && upstream >= 2 {
            let window = r.u64_range(1, upstream.min(16) + 1) as u32;
            graph.then(Arc::new(WindowAggregate::new(window)))
        } else {
            graph.then(Arc::new(SeverityScale::credit(r.next_u32())))
        };
    }
    let stream_depth = if r.bool() { 1 } else { r.usize_range(1, 65) };
    let combining = if r.bool() {
        Combining::HostLevel
    } else {
        Combining::DeviceLevel
    };
    let base = ExecutionPlan::new(r.u32_range(1, 7))
        .stream_depth(stream_depth)
        // Bursts of one to eight words: most streams end in a short one.
        .burst_rns(16 * r.u64_range(1, 9))
        .combining(combining);
    Case {
        graph,
        plan: GraphPlan::new(base).edge_depth(r.usize_range(1, 65)),
        shards: r.u32_range(1, 4),
    }
}

/// What a sweep exercised, so a sweep that stops reaching a case the
/// oracle must see fails instead of passing vacuously.
#[derive(Default)]
struct Reach {
    shard_offset: bool,
    truncated: bool,
    host_level: bool,
    capped_high_water: bool,
    stall_at_depth_multiple: bool,
}

/// Run `n` cases: each shard's `FunctionalDecoupled.run` stage reports
/// against the host-mediated composition, every field.
fn derived_reports_sweep(n: u64) -> Reach {
    let backend = FunctionalDecoupled;
    let mut reach = Reach::default();
    let mut i = 0;
    cases(n, |r| {
        let c = random_case(r);
        for shard in c.plan.split(c.shards) {
            let plan = &shard.base;
            let case = format!(
                "case {i} ({}, {} wi @ {}, stream depth {}, edge depth {}, burst {}, {:?})",
                c.graph.topology(),
                plan.workitems,
                plan.wid_base,
                plan.stream_depth,
                shard.depth(),
                plan.burst_rns,
                plan.combining,
            );
            let report = backend.run(&c.graph, &shard);
            let mut composed = vec![backend.execute(c.graph.source().as_ref(), plan)];
            for (k, stage) in c.graph.stage_kernels().iter().enumerate() {
                let feed = Arc::new(composed[k].samples.clone());
                let staged =
                    StagedKernel::new(stage.clone(), feed, plan.wid_base, c.graph.quotas()[k]);
                composed.push(backend.execute(&staged, plan));
            }
            assert_eq!(report.stages.len(), composed.len(), "{case}");
            for (k, (derived, host)) in report.stages.iter().zip(&composed).enumerate() {
                let case = format!("{case} stage {k}");
                assert_same_report(derived, host, &case);
                assert_fifo_rule(host, plan.stream_depth, &case);
                reach.truncated |= !host.complete();
                for s in &host.samples {
                    let e = s.len();
                    reach.capped_high_water |= e > plan.stream_depth;
                    reach.stall_at_depth_multiple |= e > 0 && e % plan.stream_depth == 0;
                }
            }
            reach.shard_offset |= plan.wid_base > 0;
            reach.host_level |= plan.combining == Combining::HostLevel;
        }
        i += 1;
    });
    reach
}

#[test]
fn derived_stage_reports_match_host_mediated_composition() {
    let reach = derived_reports_sweep(300);
    assert!(reach.shard_offset, "no shard with a non-zero wid_base");
    assert!(reach.truncated, "no truncated stream");
    assert!(reach.host_level, "no host-level combining");
    assert!(reach.capped_high_water, "no stream longer than its FIFO");
    assert!(
        reach.stall_at_depth_multiple,
        "no stream a multiple of its FIFO depth"
    );
}

/// The same oracle over 20,000 cases:
/// `cargo test --release -p dwi-core --test graph_determinism -- --ignored`.
#[test]
#[ignore = "large sweep, run in release"]
fn derived_stage_reports_match_host_mediated_composition_at_scale() {
    derived_reports_sweep(20_000);
}
