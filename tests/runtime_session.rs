//! End-to-end multi-tenant session through the facade crate: several
//! clients drive paper kernels through the `dwi-runtime` scheduler with
//! tracing on, and the session delivers (1) reports bit-identical to
//! monolithic single-device runs, (2) runtime metric families in the
//! Prometheus exposition, and (3) worker timeline tracks in the Chrome
//! trace — the whole PR's surface exercised in one sitting.

use std::sync::Arc;

use decoupled_workitems::core::graph::{GraphPlan, KernelGraph};
use decoupled_workitems::core::{
    Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, SeverityExpMix,
    SeverityScale, TruncatedNormalKernel, WindowAggregate, Workload,
};
use decoupled_workitems::runtime::{JobSpec, Priority, Runtime, RuntimeConfig, SharedKernel};
use decoupled_workitems::trace::{ProcessKind, Recorder};

#[test]
fn multi_tenant_session_matches_monolithic_and_exports_observability() {
    let rec = Recorder::new();
    let rt = Runtime::new(RuntimeConfig::new(3).trace(rec.sink()));

    let cfg = PaperConfig::config1();
    let w = Workload {
        num_scenarios: 512,
        num_sectors: 2,
        sector_variance: 1.39,
    };
    // Three tenants, three kernels, three priorities — submitted together.
    let tenants: Vec<(u32, SharedKernel, ExecutionPlan, Priority)> = vec![
        (
            0,
            Arc::new(GammaListing2::for_config(&cfg, &w, 42)),
            ExecutionPlan::for_config(&cfg),
            Priority::High,
        ),
        (
            1,
            Arc::new(TruncatedNormalKernel::new(1.5, 400, 9)),
            ExecutionPlan::new(4),
            Priority::Normal,
        ),
        (
            2,
            Arc::new(SeverityExpMix::credit_severity(400, 77)),
            ExecutionPlan::new(4),
            Priority::Low,
        ),
    ];
    let handles: Vec<_> = tenants
        .iter()
        .map(|(client, kernel, plan, priority)| {
            rt.submit(
                JobSpec::kernel(*client, kernel.clone(), plan.clone(), *client as u64)
                    .priority(*priority),
            )
            .expect("queue has room for three tenants")
        })
        .collect();
    for (handle, (_, kernel, plan, _)) in handles.into_iter().zip(&tenants) {
        let merged = handle.wait().expect("no deadlines set").into_report();
        let whole = FunctionalDecoupled.execute(kernel.as_ref(), plan);
        assert_eq!(merged.samples, whole.samples, "{}", kernel.name());
        assert_eq!(merged.cycles, whole.cycles, "{}", kernel.name());
        assert_eq!(merged.rejection, whole.rejection, "{}", kernel.name());
    }
    drop(rt); // join the pool so worker tracks are flushed

    let prom = rec.prometheus();
    for family in [
        "dwi_runtime_jobs_submitted_total",
        "dwi_runtime_jobs_completed_total",
        "dwi_runtime_shards_executed_total",
        "dwi_runtime_job_latency_seconds",
        "dwi_runtime_phase_seconds",
        "dwi_runtime_job_e2e_seconds",
    ] {
        assert!(prom.contains(family), "{family} missing:\n{prom}");
    }
    // Every lifecycle phase of a pool job shows up as a labelled series.
    for phase in ["admit", "queue", "dispatch", "execute", "merge", "deliver"] {
        assert!(
            prom.contains(&format!("phase=\"{phase}\"")),
            "phase {phase} missing from the exposition:\n{prom}"
        );
    }
    assert!(
        rec.events()
            .iter()
            .any(|e| e.track.kind == ProcessKind::Worker),
        "worker timeline tracks missing from the session trace"
    );
    assert!(
        rec.events()
            .iter()
            .any(|e| e.track.kind == ProcessKind::Job),
        "per-job phase spans missing from the trace"
    );
    let chrome = rec.chrome_trace();
    assert!(
        chrome.contains("worker"),
        "worker tracks missing from Chrome export"
    );
}

#[test]
fn async_session_pipelines_paper_kernels_bit_identically() {
    // The async front-end through the facade: one client thread keeps a
    // mixed bag of paper kernels and credit-pipeline graphs in flight via
    // try_submit, harvests them from the completion queue, and every
    // report is bit-identical to a monolithic single-device run.
    let rec = Recorder::new();
    let rt = Runtime::new(RuntimeConfig::new(2).cache_capacity(0).trace(rec.sink()));

    let cfg = PaperConfig::config1();
    let w = Workload {
        num_scenarios: 256,
        num_sectors: 2,
        sector_variance: 1.39,
    };
    let jobs: Vec<(SharedKernel, ExecutionPlan)> = (0..24u32)
        .map(|i| match i % 3 {
            0 => (
                Arc::new(GammaListing2::for_config(&cfg, &w, 42 + i as u64)) as SharedKernel,
                ExecutionPlan::new(1 + (i % 4)),
            ),
            1 => (
                Arc::new(TruncatedNormalKernel::new(1.5, 200 + i as u64, i)) as SharedKernel,
                ExecutionPlan::new(2),
            ),
            _ => (
                Arc::new(SeverityExpMix::credit_severity(150, i)) as SharedKernel,
                ExecutionPlan::new(3),
            ),
        })
        .collect();

    // Credit-pipeline graph jobs ride the same session: severity →
    // window aggregate → severity scale.
    let graphs: Vec<(Arc<KernelGraph>, GraphPlan)> = (0..6u32)
        .map(|i| {
            let graph = KernelGraph::pipeline(
                "credit-pipeline",
                Arc::new(SeverityExpMix::credit_severity(128, i)),
            )
            .then(Arc::new(WindowAggregate::new(8)))
            .then(Arc::new(SeverityScale::credit(i)));
            (
                Arc::new(graph),
                GraphPlan::new(ExecutionPlan::new(1 + i % 3)),
            )
        })
        .collect();

    let mut session = rt.session(0);
    let tickets: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, (kernel, plan))| {
            session
                .try_submit(JobSpec::kernel(0, kernel.clone(), plan.clone(), i as u64))
                .expect("default queue bound admits 30 pipelined jobs")
        })
        .collect();
    let graph_tickets: Vec<_> = graphs
        .iter()
        .enumerate()
        .map(|(i, (graph, plan))| {
            session
                .try_submit(JobSpec::graph(
                    0,
                    graph.clone(),
                    plan.clone(),
                    100 + i as u64,
                ))
                .expect("default queue bound admits 30 pipelined jobs")
        })
        .collect();
    assert_eq!(session.in_flight(), jobs.len() + graphs.len());

    let mut results = std::collections::HashMap::new();
    while session.in_flight() > 0 {
        for done in session.wait_any(std::time::Duration::from_secs(30)) {
            results.insert(done.ticket, done.result.expect("no deadlines set"));
        }
    }
    for (ticket, (kernel, plan)) in tickets.iter().zip(&jobs) {
        let merged = results.remove(ticket).expect("harvested").into_report();
        let whole = FunctionalDecoupled.execute(kernel.as_ref(), plan);
        assert_eq!(merged.samples, whole.samples, "{}", kernel.name());
        assert_eq!(merged.cycles, whole.cycles, "{}", kernel.name());
        assert_eq!(merged.rejection, whole.rejection, "{}", kernel.name());
    }
    for (ticket, (graph, plan)) in graph_tickets.iter().zip(&graphs) {
        let merged = results
            .remove(ticket)
            .expect("harvested")
            .into_graph_report();
        let whole = FunctionalDecoupled.run(graph, plan);
        let name = graph.topology();
        assert_eq!(whole.edges.len(), 2, "{name}");
        assert_eq!(merged.final_samples(), whole.final_samples(), "{name}");
        assert_eq!(
            format!("{:?}", merged.edges),
            format!("{:?}", whole.edges),
            "{name}"
        );
        assert_eq!(merged.cycles, whole.cycles, "{name}");
    }
    drop(session);
    drop(rt);

    let prom = rec.prometheus();
    for family in [
        "dwi_runtime_jobs_in_flight",
        "dwi_runtime_completion_queue_depth",
        "dwi_runtime_jobs_completed_total",
    ] {
        assert!(prom.contains(family), "{family} missing:\n{prom}");
    }
}
