//! The graph layer's contract, checked as properties over every backend:
//!
//! 1. **Degenerate-case identity** — a one-node [`KernelGraph`] is the
//!    bare kernel: same samples, same cycles, and a cache fingerprint
//!    that extends the plan's with the kernel's own quota/phase shape
//!    (so jobs differing only in quota can never collide), on all five
//!    backends. The graph spine may
//!    therefore carry single-kernel jobs without any observable change.
//! 2. **Composition parity** — a pipe-connected pipeline run produces
//!    exactly the samples of an explicit host-mediated stage-by-stage
//!    composition (execute a stage, record its streams, feed the next).
//! 3. **Conservation** — every inter-stage FIFO's token accounting
//!    balances (`pushed = pulled + residue + dropped`), occupancy respects
//!    the configured depth, and the dataflow cost model agrees with the
//!    edge ledger.
//! 4. **Depth independence** — FIFO depth changes scheduling and stalls,
//!    never values.

use std::sync::Arc;

use dwi_core::graph::{GraphPlan, KernelGraph, StagedKernel};
use dwi_core::{
    all_backends, credit_pipeline, ExecutionPlan, SeverityExpMix, SeverityScale,
    TruncatedNormalKernel, WindowAggregate, WorkItemKernel,
};
use dwi_rng::KernelConfig;

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
    for backend in all_backends() {
        let report = backend.run(&graph, &GraphPlan::new(plan.clone()));
        assert_eq!(report.stages.len(), graph.len());

        // Independent reference: run each stage as its own backend
        // dispatch, feeding it the previous stage's recorded streams.
        let mut composed = vec![backend.execute(graph.source().as_ref(), &plan)];
        for (k, stage) in graph.stage_kernels().iter().enumerate() {
            let feed = Arc::new(composed[k].samples.clone());
            let staged = StagedKernel::new(stage.clone(), feed, plan.wid_base, graph.quotas()[k]);
            composed.push(backend.execute(&staged, &plan));
        }
        for (k, (piped, host)) in report.stages.iter().zip(&composed).enumerate() {
            assert_eq!(
                piped.samples,
                host.samples,
                "{} stage {k}: pipe-connected run diverged from the \
                 host-mediated composition",
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
