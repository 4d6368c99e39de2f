//! The complete paper pipeline, end to end: decoupled FPGA work-items
//! generate the sector gamma variables, the host reads one combined buffer
//! back, and CreditRisk+ turns it into a portfolio loss distribution that
//! matches the analytic oracle.

use decoupled_workitems::core::{
    Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, RunReport, Workload,
};
use decoupled_workitems::creditrisk::{
    loss_distribution, loss_mean, losses_from_sector_buffer, Portfolio,
};

/// Reshape the FPGA output (per work-item, `sectors` back-to-back
/// per-sector streams of `quota` draws) into a scenario-major matrix of
/// `n_sectors` columns.
fn scenario_major(run: &RunReport, sectors: usize, scenarios: usize) -> Vec<f32> {
    let quota = run.quota as usize / sectors;
    // Sector pools: concatenate every work-item's slice of sector k.
    let mut pools: Vec<Vec<f32>> = vec![Vec::new(); sectors];
    for wi in &run.samples {
        for (k, pool) in pools.iter_mut().enumerate() {
            pool.extend_from_slice(&wi[k * quota..(k + 1) * quota]);
        }
    }
    let mut out = Vec::with_capacity(scenarios * sectors);
    for s in 0..scenarios {
        for pool in &pools {
            out.push(pool[s]);
        }
    }
    out
}

#[test]
fn fpga_generated_sectors_drive_creditrisk_to_the_analytic_answer() {
    let sectors = 4usize;
    let cfg = PaperConfig::config1();
    let workload = Workload {
        num_scenarios: 24_576,
        num_sectors: sectors as u32,
        sector_variance: 1.39,
    };
    // (1) Accelerator: generate all sector draws with decoupled work-items.
    let run = FunctionalDecoupled.execute(
        &GammaListing2::for_config(&cfg, &workload, 31_337),
        &ExecutionPlan::for_config(&cfg),
    );

    // (2) Host: reshape the read-back buffer into scenarios × sectors.
    let scenarios = 24_000usize;
    let buffer = scenario_major(&run, sectors, scenarios);

    // (3) CreditRisk+: portfolio losses from the accelerator's draws.
    let portfolio = Portfolio::synthetic(150, sectors, 1.39);
    let losses = losses_from_sector_buffer(&portfolio, &buffer, scenarios as u64, 5);

    // (4) The loss distribution matches the analytic oracle.
    let mean = losses.iter().map(|&l| l as f64).sum::<f64>() / scenarios as f64;
    let want = loss_mean(&portfolio);
    assert!(
        (mean - want).abs() / want < 0.05,
        "pipeline mean {mean} vs analytic {want}"
    );
    let pmf = loss_distribution(&portfolio, 60);
    // Compare P(L = 0): sensitive to both the gamma marginals and the
    // Poisson mixing.
    let p0_mc = losses.iter().filter(|&&l| l == 0).count() as f64 / scenarios as f64;
    assert!(
        (p0_mc - pmf[0]).abs() < 0.01,
        "P(L=0): pipeline {p0_mc} vs analytic {}",
        pmf[0]
    );
}

#[test]
fn all_configs_feed_the_same_financial_result() {
    // Config choice changes the RNG micro-architecture, not the statistics:
    // every config's buffer must produce the same loss distribution within
    // Monte-Carlo error.
    let sectors = 2usize;
    let scenarios = 12_000usize;
    let portfolio = Portfolio::synthetic(80, sectors, 1.39);
    let want = loss_mean(&portfolio);
    for cfg in PaperConfig::all() {
        let workload = Workload {
            num_scenarios: 12_288,
            num_sectors: sectors as u32,
            sector_variance: 1.39,
        };
        let run = FunctionalDecoupled.execute(
            &GammaListing2::for_config(&cfg, &workload, 99),
            &ExecutionPlan::for_config(&cfg),
        );
        let buffer = scenario_major(&run, sectors, scenarios);
        let losses = losses_from_sector_buffer(&portfolio, &buffer, scenarios as u64, 3);
        let mean = losses.iter().map(|&l| l as f64).sum::<f64>() / scenarios as f64;
        assert!(
            (mean - want).abs() / want < 0.08,
            "{}: mean {mean} vs {want}",
            cfg.name()
        );
    }
}
