//! The coupled counterfactual on the unified layer: every work-item a lane
//! of one vectorized pipeline that reconverges after each output round.

use super::{Backend, BackendDetail, ExecutionPlan, RunReport};
use crate::kernel::{DivergenceCounts, WorkItemKernel};
use dwi_rng::RejectionStats;

/// Fig. 2b executed over real kernel state: `plan.workitems` lanes step
/// in lockstep rounds; each round ends only when *every* active lane has
/// emitted its next output, so the round costs `max_i attempts_i` while
/// early-accepting lanes idle. The per-lane sample sequences are still
/// identical to the decoupled engine's — coupling changes scheduling,
/// never values.
pub struct LockstepCoupled;

/// Safety bound on attempts within one output round.
const MAX_ATTEMPTS_PER_ROUND: u64 = 100_000_000;

impl Backend for LockstepCoupled {
    fn name(&self) -> &'static str {
        "lockstep-coupled"
    }

    fn execute(&self, kernel: &dyn WorkItemKernel, plan: &ExecutionPlan) -> RunReport {
        let width = plan.workitems as usize;
        let quota = kernel.outputs_per_workitem();

        let mut insts: Vec<_> = (0..width)
            .map(|wid| kernel.instantiate(plan.wid_base + wid as u32))
            .collect();
        let mut samples: Vec<Vec<f32>> = (0..width)
            .map(|_| Vec::with_capacity(quota as usize))
            .collect();
        let mut iterations = vec![0u64; width];
        let mut divergence = vec![DivergenceCounts::default(); width];
        let mut done = vec![false; width];
        let mut lockstep = 0u64;
        let mut rounds = 0u64;
        let mut round_maxima = Vec::with_capacity(quota as usize);
        let mut lane_attempts: Vec<Vec<u64>> = vec![Vec::with_capacity(quota as usize); width];

        for _round in 0..quota {
            let mut round_max = 0u64;
            for (lane, inst) in insts.iter_mut().enumerate() {
                if done[lane] {
                    lane_attempts[lane].push(0); // truncated lane: idles
                    continue; // truncated lane: owes no further outputs
                }
                let mut attempts = 0u64;
                loop {
                    attempts += 1;
                    let st = inst.step();
                    divergence[lane].record(st.divergence);
                    if st.done {
                        done[lane] = true;
                    }
                    if let Some(v) = st.emit {
                        samples[lane].push(v);
                        break;
                    }
                    if done[lane] {
                        break; // lane finished without emitting (limitMax)
                    }
                    assert!(
                        attempts < MAX_ATTEMPTS_PER_ROUND,
                        "runaway rejection loop in lane {lane}"
                    );
                }
                iterations[lane] += attempts;
                lane_attempts[lane].push(attempts);
                round_max = round_max.max(attempts);
            }
            lockstep += round_max;
            round_maxima.push(round_max);
            rounds += 1;
        }

        let mut rejection = RejectionStats::new();
        for inst in &insts {
            rejection.merge(&inst.stats());
        }

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
            cycles: lockstep,
            detail: BackendDetail::Lockstep {
                lockstep_iterations: lockstep,
                rounds,
                round_max: round_maxima,
                lane_attempts,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaperConfig, Workload};
    use crate::kernel::GammaListing2;
    use dwi_ocl::simt::divergence_factor;

    /// Lockstep run of `cfg`'s gamma kernel at `width` lanes, each lane
    /// keeping the quota the paper configuration gives it.
    fn run(cfg: &PaperConfig, seed: u64, width: u32) -> RunReport {
        let w = Workload {
            num_scenarios: 8192,
            num_sectors: 1,
            sector_variance: 1.39,
        };
        let kernel = GammaListing2::for_config(cfg, &w, seed);
        LockstepCoupled.execute(&kernel, &ExecutionPlan::new(width))
    }

    /// Coupled over decoupled runtime on the same area: lockstep cycles
    /// over the slowest lane's own iterations.
    fn decoupling_gain(r: &RunReport) -> f64 {
        r.cycles as f64 / *r.iterations.iter().max().unwrap() as f64
    }

    #[test]
    fn lockstep_cost_matches_divergence_factor() {
        // The functional lockstep run must land on the closed-form D(q, W).
        let r = run(&PaperConfig::config1(), 3, 8);
        let per_output = r.cycles as f64 / r.quota as f64;
        let d = divergence_factor(0.2334, 8);
        assert!(
            (per_output - d).abs() / d < 0.05,
            "lockstep {per_output} vs D {d}"
        );
    }

    #[test]
    fn decoupling_gain_in_paper_band() {
        // At W = 8 and the Marsaglia-Bray chain, coupling costs ~1.8× the
        // decoupled design on the same area.
        let gain = decoupling_gain(&run(&PaperConfig::config1(), 7, 8));
        assert!((1.5..2.2).contains(&gain), "decoupling gain {gain}");
    }

    #[test]
    fn icdf_chain_couples_almost_freely() {
        // Low rejection ⇒ little divergence ⇒ decoupling buys little — the
        // Config3/4 crossover of Table III in miniature.
        let gain = decoupling_gain(&run(&PaperConfig::config3(), 5, 8));
        assert!(gain < 1.2, "ICDF coupling gain should be small, got {gain}");
    }

    #[test]
    fn coupling_overhead_grows_with_width() {
        // Fraction of lockstep cycles an average lane spends idle.
        let overhead = |r: RunReport| {
            let per_lane = r.total_iterations() as f64 / r.workitems as f64;
            1.0 - per_lane / r.cycles as f64
        };
        let cfg = PaperConfig::config1();
        assert!(overhead(run(&cfg, 1, 16)) > overhead(run(&cfg, 1, 2)));
    }
}
