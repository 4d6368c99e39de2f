//! Quickstart: run the decoupled-work-items gamma generator on the
//! simulated FPGA and validate the output distribution.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use decoupled_workitems::core::{
    Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, Workload,
};
use decoupled_workitems::stats::{ks_test, Gamma, Summary};

fn main() {
    // Config1: Marsaglia-Bray + MT19937, 6 decoupled work-items.
    let cfg = PaperConfig::config1();
    // A laptop-sized slice of the paper's workload (same structure).
    let workload = Workload {
        num_scenarios: 65_536,
        num_sectors: 4,
        sector_variance: 1.39,
    };

    println!(
        "running {} with {} decoupled work-items: {} scenarios x {} sectors (v = {})",
        cfg.name(),
        cfg.fpga_workitems,
        workload.num_scenarios,
        workload.num_sectors,
        workload.sector_variance
    );

    let kernel = GammaListing2::for_config(&cfg, &workload, 2024);
    let run = FunctionalDecoupled.execute(&kernel, &ExecutionPlan::for_config(&cfg));

    println!(
        "generated {} gamma RNs ({} per work-item)",
        run.quota * run.workitems as u64,
        run.quota
    );
    println!(
        "combined rejection overhead r = {:.4} (paper: 0.303 at v = 1.39)",
        run.rejection.overhead()
    );
    println!("per-work-item main-loop iterations: {:?}", run.iterations);

    // Validate: moments + KS test against the analytic Gamma(1/v, v).
    let mut s = Summary::new();
    s.extend_f32(&run.samples[0]);
    println!(
        "work-item 0 sample: mean = {:.4} (expect 1.0), var = {:.4} (expect 1.39)",
        s.mean(),
        s.variance()
    );

    let sample: Vec<f64> = run.samples[0][..20_000].iter().map(|&x| x as f64).collect();
    let dist = Gamma::from_sector_variance(1.39);
    let ks = ks_test(&sample, |x| dist.cdf(x));
    println!(
        "KS vs Gamma(1/1.39, 1.39): D = {:.5}, p = {:.3} -> {}",
        ks.statistic,
        ks.p_value,
        if ks.accepts(0.01) { "ACCEPT" } else { "REJECT" }
    );
}
