//! The cycle-level dataflow simulation on the unified layer: the kernel
//! runs functionally once to record its per-iteration emission trace, then
//! `dwi-hls::sim` replays that trace to the cycle — FIFOs, bursts,
//! channel arbitration and all.

use super::{Backend, BackendDetail, ExecutionPlan, RunReport};
use crate::kernel::{DivergenceCounts, WorkItemKernel};
use dwi_hls::sim::{run_from_traces, SimConfig};
use dwi_rng::RejectionStats;

/// Safety bound on iterations per work-item in the recording pass.
const MAX_ITERATIONS: u64 = 1_000_000_000;

/// Fig. 3 with real kernel behaviour: each work-item's compute stage
/// produces an RN exactly on the iterations where *this* kernel emitted
/// one, instead of the simulator's built-in Bernoulli rejection model.
/// Cycle counts therefore reflect the kernel's actual burst-by-burst
/// rejection clustering, not just its average rate.
pub struct CycleSim;

impl Backend for CycleSim {
    fn name(&self) -> &'static str {
        "cycle-sim"
    }

    fn execute(&self, kernel: &dyn WorkItemKernel, plan: &ExecutionPlan) -> RunReport {
        let n = plan.workitems as usize;
        let quota = kernel.outputs_per_workitem();

        // Recording pass: run every work-item functionally, keeping one
        // emission flag per main-loop iteration.
        let mut traces: Vec<Vec<bool>> = Vec::with_capacity(n);
        let mut samples: Vec<Vec<f32>> = Vec::with_capacity(n);
        let mut iterations = vec![0u64; n];
        let mut divergence = vec![DivergenceCounts::default(); n];
        let mut rejection = RejectionStats::new();
        for wid in 0..n {
            let mut inst = kernel.instantiate(plan.wid_base + wid as u32);
            // Every emission is one iteration, so the trace holds at
            // least `quota` flags.
            let mut trace = Vec::with_capacity(quota as usize);
            let mut vals = Vec::with_capacity(quota as usize);
            let mut div = DivergenceCounts::default();
            loop {
                let st = inst.step();
                trace.push(st.emit.is_some());
                if let Some(v) = st.emit {
                    vals.push(v);
                }
                div.record(st.divergence);
                if st.done {
                    break;
                }
                assert!(
                    (trace.len() as u64) < MAX_ITERATIONS,
                    "runaway kernel in recording pass (wid {wid})"
                );
            }
            iterations[wid] = trace.len() as u64;
            rejection.merge(&inst.stats());
            divergence[wid] = div;
            traces.push(trace);
            samples.push(vals);
        }

        // Replay pass: the cycle-level engine consumes the recorded traces.
        let sim = run_from_traces(&sim_config(plan, n, quota), &traces);
        let cycles = sim.cycles;

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
            detail: BackendDetail::CycleSim { sim, traces },
        }
    }
}

/// The cycle-level simulator configuration this backend derives from a
/// plan — shared with [`RunReport::merge`], which re-simulates the shared
/// memory channel over concatenated shard traces.
pub(super) fn sim_config(plan: &ExecutionPlan, n: usize, quota: u64) -> SimConfig {
    SimConfig {
        n_workitems: n,
        rns_per_workitem: quota,
        fifo_depth: plan.stream_depth,
        burst_rns: plan.burst_rns,
        channel: plan.channel,
        compute_enabled: true,
        trace: plan.sink.is_enabled(),
        ..SimConfig::default()
    }
}
