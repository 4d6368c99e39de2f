//! The `.cl` NDRange formulation on the unified layer: `groups` pipelines,
//! each time-multiplexing `local_size` work-items.

use super::{Backend, BackendDetail, ExecutionPlan, RunReport};
use crate::kernel::{DivergenceCounts, WorkItemKernel};
use dwi_rng::RejectionStats;
use dwi_trace::{Counter, ProcessKind};

/// Section III-A's alternative formulation: SDAccel maps each work-group to
/// one pipeline, so `plan.groups()` pipelines run in parallel and each
/// serves its `plan.local_size` work-items sequentially, phase by phase.
/// At `local_size = 1` the per-work-item streams are identical to
/// [`FunctionalDecoupled`](super::FunctionalDecoupled)'s — what directly
/// affects runtime is the number of pipelines, not the grouping.
pub struct NdRange;

impl Backend for NdRange {
    fn name(&self) -> &'static str {
        "ndrange"
    }

    fn execute(&self, kernel: &dyn WorkItemKernel, plan: &ExecutionPlan) -> RunReport {
        let groups = plan.groups();
        let local = plan.local_size as usize;
        let n = plan.workitems as usize;
        let quota = kernel.outputs_per_workitem();
        let phases = kernel.phases();

        let mut outputs = Vec::new();
        let mut samples: Vec<Vec<f32>> = vec![Vec::new(); n];
        let mut iterations = vec![0u64; n];
        let mut divergence = vec![DivergenceCounts::default(); n];
        let mut rejection = RejectionStats::new();
        let mut group_iterations = Vec::with_capacity(groups as usize);

        for g in 0..groups {
            // Global group/work-item ids: a shard's groups keep their
            // design-time identity for instantiation and tracing.
            let global_g = plan.wid_base / plan.local_size + g;
            let track = plan.sink.track(global_g, ProcessKind::Pipeline);
            let g_label = global_g.to_string();
            // One pipeline: its work-items execute as nested loops (the
            // SDAccel mapping), i.e. sequentially multiplexed.
            let mut lanes: Vec<_> = (0..local)
                .map(|l| {
                    let wid = g * plan.local_size + l as u32;
                    let gwid = plan.wid_base + wid;
                    let wid_label = gwid.to_string();
                    let c_rej = if track.is_enabled() {
                        track.counter("dwi_rejection_retries_total", &[("wid", &wid_label)])
                    } else {
                        Counter::disabled()
                    };
                    (wid as usize, kernel.instantiate(gwid), c_rej, false)
                })
                .collect();
            let mut iters = 0u64;
            for phase in 0..phases {
                let t0 = track.now_ns();
                for (wid, inst, c_rej, done) in lanes.iter_mut() {
                    if *done {
                        continue;
                    }
                    loop {
                        let st = inst.step();
                        iters += 1;
                        iterations[*wid] += 1;
                        divergence[*wid].record(st.divergence);
                        if let Some(v) = st.emit {
                            outputs.push(v);
                            samples[*wid].push(v);
                        } else if !st.divergence.is_accepted() {
                            c_rej.inc();
                            track.instant("rejection");
                        }
                        if st.done {
                            *done = true;
                        }
                        if st.phase_end == Some(phase) || *done {
                            break;
                        }
                    }
                }
                track.span_since(format!("sector {phase}"), t0);
                track.observe(
                    "dwi_sector_latency_seconds",
                    &[("group", &g_label)],
                    (track.now_ns() - t0) as f64 * 1e-9,
                );
            }
            for (_, inst, _, _) in &lanes {
                rejection.merge(&inst.stats());
            }
            track
                .counter("dwi_group_iterations_total", &[("group", &g_label)])
                .add(iters);
            group_iterations.push(iters);
        }

        let cycles = group_iterations.iter().copied().max().unwrap_or(0);

        RunReport {
            backend: self.name(),
            kernel: kernel.name(),
            workitems: plan.workitems,
            wid_base: plan.wid_base,
            quota,
            samples,
            iterations,
            divergence,
            rejection,
            cycles,
            detail: BackendDetail::NdRange {
                outputs,
                group_iterations,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaperConfig, Workload};
    use crate::kernel::GammaListing2;

    fn workload() -> Workload {
        Workload {
            num_scenarios: 2048,
            num_sectors: 2,
            sector_variance: 1.39,
        }
    }

    /// `groups` pipelines of `local_size` work-items each, with the quota
    /// re-derived for that many work-items.
    fn run(cfg: &PaperConfig, seed: u64, groups: u32, local_size: u32) -> RunReport {
        let n = groups * local_size;
        let kernel = GammaListing2::for_workitems(cfg, &workload(), seed, n);
        NdRange.execute(&kernel, &ExecutionPlan::new(n).local_size(local_size))
    }

    #[test]
    fn runtime_depends_on_pipelines_not_grouping() {
        // 6 pipelines × 1 WI vs 3 pipelines × 2 WIs: same work-items, but
        // half the pipelines → ~double the runtime (Section III-A).
        let cfg = PaperConfig::config1();
        let six = run(&cfg, 4, 6, 1);
        let three = run(&cfg, 4, 3, 2);
        let ratio = three.runtime_s(200e6) / six.runtime_s(200e6);
        assert!(
            (1.7..2.3).contains(&ratio),
            "halving pipelines should ~double runtime, got {ratio}"
        );
        assert_eq!(six.samples.concat().len(), three.samples.concat().len());
    }

    #[test]
    fn grouped_outputs_are_valid_gammas() {
        let report = run(&PaperConfig::config3(), 2, 2, 4);
        let BackendDetail::NdRange { outputs, .. } = &report.detail else {
            unreachable!("NdRange reports NdRange detail")
        };
        assert!(outputs.iter().all(|&g| g >= 0.0 && g.is_finite()));
        let mut s = dwi_stats::Summary::new();
        s.extend_f32(outputs);
        assert!((s.mean() - 1.0).abs() < 0.05, "mean {}", s.mean());
    }

    #[test]
    fn rejection_stats_aggregate_all_workitems() {
        let report = run(&PaperConfig::config1(), 1, 2, 3);
        let quota = workload().scenarios_per_workitem(6) as u64;
        // The delayed loop-exit counter can accept (but not write) up to one
        // extra output per sector run, so `accepted` may slightly exceed the
        // written quota.
        let written = 6 * quota * 2;
        assert!(report.rejection.accepted >= written);
        assert!(report.rejection.accepted <= written + 6 * 2 * 2);
        let BackendDetail::NdRange { outputs, .. } = &report.detail else {
            unreachable!("NdRange reports NdRange detail")
        };
        assert_eq!(outputs.len() as u64, written);
    }
}
