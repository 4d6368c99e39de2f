//! One test per headline claim in the paper's abstract and conclusion —
//! the reproduction's contract, stated in the paper's own words.

use decoupled_workitems::core::{
    table3, Backend, ExecutionPlan, GammaListing2, LockstepCoupled, PaperConfig, Workload,
};
use decoupled_workitems::energy::energy::dynamic_energy_per_invocation_j;
use decoupled_workitems::energy::profiles::{all_devices, FPGA_POWER};
use decoupled_workitems::ocl::profiles::DeviceKind;
use decoupled_workitems::ocl::simt::divergence_factor;

/// "Our results show that FPGAs can deliver up to 5.5x speedup" (abstract).
#[test]
fn claim_up_to_5_5x_speedup() {
    let t = table3(&Workload::paper(), 40_000);
    let mut best = 0.0f64;
    for row in &t.rows {
        for kind in [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Phi] {
            if let Some(s) = row.fpga_speedup_vs(kind) {
                best = best.max(s);
            }
        }
    }
    assert!(
        (5.0..6.5).contains(&best),
        "max speedup {best} should be ≈5.5x"
    );
}

/// "the system-level energy efficiency increases between 2x and 9.5x in all
/// cases" (abstract).
#[test]
fn claim_energy_efficiency_between_2x_and_9_5x() {
    let t = table3(&Workload::paper(), 40_000);
    let rows = [
        (&t.rows[0], true),
        (&t.rows[1], false),
        (&t.rows[2], true),
        (&t.rows[4], false),
    ];
    let devices = all_devices();
    for (row, big) in rows {
        let runtimes = [row.cpu.ms, row.gpu.ms, row.phi.ms, row.fpga.unwrap().ms];
        let e_fpga = dynamic_energy_per_invocation_j(&FPGA_POWER, big, runtimes[3] / 1e3);
        for (d, ms) in devices.iter().take(3).zip(runtimes) {
            let ratio = dynamic_energy_per_invocation_j(d, big, ms / 1e3) / e_fpga;
            assert!(
                (1.8..10.5).contains(&ratio),
                "{}: ratio {ratio} outside the claimed 2x..9.5x envelope",
                d.name
            );
        }
    }
}

/// "the parallel implementation of applications containing data-dependent
/// branches usually experiences an important loss in performance"
/// (introduction) — quantified by the functional lockstep counterfactual.
#[test]
fn claim_divergence_loss_on_fixed_architectures() {
    let w = Workload {
        num_scenarios: 4096,
        num_sectors: 1,
        sector_variance: 1.39,
    };
    let kernel = GammaListing2::for_config(&PaperConfig::config1(), &w, 1);
    let run = LockstepCoupled.execute(&kernel, &ExecutionPlan::new(16));
    // Same area, decoupled: 16 independent pipelines, the slowest binds.
    let decoupled = *run.iterations.iter().max().unwrap();
    assert!(
        run.cycles as f64 / decoupled as f64 > 1.8,
        "16-wide coupling must cost ≳2x at the M-Bray rejection rate"
    );
}

/// "whereas fixed architectures ... cannot efficiently cope with this
/// divergent execution, the flexibility offered by FPGAs ... can be
/// exploited" — the decoupled cost equals the ideal serial cost.
#[test]
fn claim_decoupled_workitems_pay_no_divergence() {
    let q = 0.2334;
    let d1 = divergence_factor(q, 1);
    assert!((d1 - 1.0 / (1.0 - q)).abs() < 1e-9);
    for w in [8, 16, 32, 64] {
        assert!(divergence_factor(q, w) > d1);
    }
}

/// "only slightly underperforming the latter [Xeon Phi] when the memory
/// transfers become the bottleneck" (conclusion).
#[test]
fn claim_phi_wins_only_when_fpga_is_transfer_bound() {
    let t = table3(&Workload::paper(), 40_000);
    // Config3/4 (low rejection): PHI at or ahead of the FPGA.
    assert!(t.rows[2].fpga_speedup_vs(DeviceKind::Phi).unwrap() <= 1.05);
    assert!(t.rows[4].fpga_speedup_vs(DeviceKind::Phi).unwrap() < 1.0);
    // Config1 (high rejection): FPGA ahead.
    assert!(t.rows[0].fpga_speedup_vs(DeviceKind::Phi).unwrap() > 1.2);
}

/// Table I structure: "four configurations of the test case application".
#[test]
fn claim_four_configurations() {
    let all = PaperConfig::all();
    assert_eq!(all.len(), 4);
    assert_eq!(all.iter().filter(|c| c.is_bray()).count(), 2);
    // 6 work-items for Config1,2 and 8 for Config3,4 (Section IV-B).
    assert_eq!(all[0].fpga_workitems, 6);
    assert_eq!(all[3].fpga_workitems, 8);
}
