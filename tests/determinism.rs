//! Reproducibility: every experiment artifact must be bit-for-bit
//! deterministic across invocations — the property that makes the tables in
//! EXPERIMENTS.md regenerable. (Simulated time comes from cycle models, not
//! wall clocks, so nothing here may vary between runs.)

use decoupled_workitems::core::{
    table3, Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, Workload,
};
use decoupled_workitems::creditrisk::{MonteCarloEngine, Portfolio};
use decoupled_workitems::energy::trace::{PowerTrace, TraceConfig};
use decoupled_workitems::hls::sim::{run, SimConfig};

#[test]
fn decoupled_runs_are_bitwise_reproducible() {
    let cfg = PaperConfig::config1();
    let w = Workload {
        num_scenarios: 4096,
        num_sectors: 2,
        sector_variance: 1.39,
    };
    let kernel = GammaListing2::for_config(&cfg, &w, 123);
    let plan = ExecutionPlan::for_config(&cfg);
    let a = FunctionalDecoupled.execute(&kernel, &plan);
    let b = FunctionalDecoupled.execute(&kernel, &plan);
    // Scheduling must not leak into results.
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.rejection, b.rejection);
}

#[test]
fn table3_is_reproducible() {
    let t1 = table3(&Workload::paper(), 10_000);
    let t2 = table3(&Workload::paper(), 10_000);
    for (a, b) in t1.rows.iter().zip(&t2.rows) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.cpu.ms.to_bits(), b.cpu.ms.to_bits());
        assert_eq!(a.gpu.ms.to_bits(), b.gpu.ms.to_bits());
        assert_eq!(a.phi.ms.to_bits(), b.phi.ms.to_bits());
        assert_eq!(
            a.fpga.map(|f| f.ms.to_bits()),
            b.fpga.map(|f| f.ms.to_bits())
        );
    }
}

#[test]
fn cycle_simulator_is_reproducible() {
    let cfg = SimConfig {
        n_workitems: 6,
        rns_per_workitem: 8192,
        trace: true,
        ..SimConfig::default()
    };
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.bursts, b.bursts);
    assert_eq!(a.per_wi_done, b.per_wi_done);
}

#[test]
fn power_traces_are_reproducible() {
    let c = TraceConfig::paper_session(40.0, 0.701);
    let a = PowerTrace::synthesize(&c);
    let b = PowerTrace::synthesize(&c);
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.1.to_bits(), y.1.to_bits());
    }
}

#[test]
fn monte_carlo_is_reproducible() {
    let p = Portfolio::synthetic(40, 2, 1.39);
    let a = MonteCarloEngine::new(p.clone(), 9).run(2000);
    let b = MonteCarloEngine::new(p, 9).run(2000);
    assert_eq!(a.losses, b.losses);
}
