//! The functional decoupled engine: threaded work-item pipelines vs the
//! scalar reference, and the two buffer-combining strategies.

use dwi_bench::microbench::{black_box, Bench};
use dwi_core::{
    Backend, Combining, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, Workload,
};
use dwi_rng::GammaKernel;

fn workload() -> Workload {
    Workload {
        num_scenarios: 49_152,
        num_sectors: 2,
        sector_variance: 1.39,
    }
}

fn main() {
    let mut b = Bench::from_args("decoupled_engine");
    let w = workload();
    let cfg = PaperConfig::config1();
    let total = w.scenarios_per_workitem(cfg.fpga_workitems) as u64
        * w.num_sectors as u64
        * cfg.fpga_workitems as u64;
    let kernel = GammaListing2::for_config(&cfg, &w, 1);
    let plan = ExecutionPlan::for_config(&cfg);
    b.bench_elements("decoupled_6wi_device_combining", total, || {
        black_box(FunctionalDecoupled.execute(&kernel, &plan).cycles)
    });
    let host_plan = plan.clone().combining(Combining::HostLevel);
    b.bench_elements("decoupled_6wi_host_combining", total, || {
        black_box(FunctionalDecoupled.execute(&kernel, &host_plan).cycles)
    });
    let kcfg = cfg.kernel_config(&w, 1);
    b.bench_elements("scalar_reference_6_kernels", total, || {
        let mut out = Vec::new();
        for wid in 0..cfg.fpga_workitems {
            GammaKernel::new(&kcfg, wid).run_all(&mut out);
        }
        black_box(out.len())
    });
}
