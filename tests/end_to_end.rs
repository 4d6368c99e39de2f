//! Cross-crate integration tests: the full decoupled pipeline against the
//! reference kernels, distribution validation, and the host buffer
//! combining strategies.

use decoupled_workitems::core::{
    Backend, BackendDetail, Combining, ExecutionPlan, FunctionalDecoupled, GammaListing2,
    PaperConfig, RunReport, Workload,
};
use decoupled_workitems::rng::GammaKernel;
use decoupled_workitems::stats::{ks_test, Gamma, Summary};

fn run_decoupled(cfg: &PaperConfig, w: &Workload, seed: u64, combining: Combining) -> RunReport {
    FunctionalDecoupled.execute(
        &GammaListing2::for_config(cfg, w, seed),
        &ExecutionPlan::for_config(cfg).combining(combining),
    )
}

fn host_buffer(run: &RunReport) -> &[f32] {
    let BackendDetail::Decoupled { host_buffer, .. } = &run.detail else {
        unreachable!("FunctionalDecoupled reports Decoupled detail")
    };
    host_buffer
}

fn workload() -> Workload {
    Workload {
        num_scenarios: 8192,
        num_sectors: 3,
        sector_variance: 1.39,
    }
}

#[test]
fn every_config_matches_its_reference_kernels() {
    // The threaded decoupled engine must be sample-for-sample identical to
    // the scalar reference for all four paper configurations.
    for cfg in PaperConfig::all() {
        let w = workload();
        let run = run_decoupled(&cfg, &w, 99, Combining::DeviceLevel);
        let kcfg = cfg.kernel_config(&w, 99);
        for wid in 0..cfg.fpga_workitems {
            let mut reference = Vec::new();
            GammaKernel::new(&kcfg, wid).run_all(&mut reference);
            let got = &run.samples[wid as usize];
            assert_eq!(got, &reference, "{} work-item {wid}", cfg.name());
        }
    }
}

#[test]
fn combining_strategies_agree_for_all_configs() {
    for cfg in PaperConfig::all() {
        let w = workload();
        let dev = run_decoupled(&cfg, &w, 5, Combining::DeviceLevel);
        let host = run_decoupled(&cfg, &w, 5, Combining::HostLevel);
        assert_eq!(host_buffer(&dev), host_buffer(&host), "{}", cfg.name());
    }
}

#[test]
fn distributions_validate_across_variances() {
    // Fig. 6 as a test: the generated sequences pass KS against the
    // analytic gamma for both plotted variances.
    for v in [1.39f32, 13.9] {
        let cfg = PaperConfig::config1();
        let w = Workload {
            num_scenarios: 30_000,
            num_sectors: 1,
            sector_variance: v,
        };
        let run = run_decoupled(&cfg, &w, 1234, Combining::DeviceLevel);
        let mut sample: Vec<f64> = run.samples.concat().iter().map(|&x| x as f64).collect();
        let dist = Gamma::from_sector_variance(v as f64);
        sample.truncate(40_000);
        let ks = ks_test(&sample, |x| dist.cdf(x));
        assert!(ks.accepts(1e-4), "v={v}: KS p = {}", ks.p_value);
        let mut s = Summary::new();
        s.extend(&sample);
        assert!((s.mean() - 1.0).abs() < 0.03, "v={v}: mean {}", s.mean());
        assert!(
            (s.variance() - v as f64).abs() / (v as f64) < 0.12,
            "v={v}: var {}",
            s.variance()
        );
    }
}

#[test]
fn mt521_and_mt19937_configs_differ_only_statistically() {
    // Config1 and Config2 share everything but the MT: both must produce
    // valid gamma samples with matching moments yet different streams.
    let w = workload();
    let a = run_decoupled(&PaperConfig::config1(), &w, 7, Combining::DeviceLevel);
    let b = run_decoupled(&PaperConfig::config2(), &w, 7, Combining::DeviceLevel);
    assert_ne!(a.samples, b.samples);
    let (mut sa, mut sb) = (Summary::new(), Summary::new());
    sa.extend_f32(&a.samples[0]);
    sb.extend_f32(&b.samples[0]);
    assert!((sa.mean() - sb.mean()).abs() < 0.05);
    assert!((sa.variance() - sb.variance()).abs() < 0.2);
}

#[test]
fn rejection_overheads_separate_the_config_families() {
    let w = workload();
    let bray = run_decoupled(&PaperConfig::config1(), &w, 3, Combining::DeviceLevel);
    let icdf = run_decoupled(&PaperConfig::config3(), &w, 3, Combining::DeviceLevel);
    assert!(
        bray.rejection.overhead() > 3.0 * icdf.rejection.overhead(),
        "M-Bray {} vs ICDF {}",
        bray.rejection.overhead(),
        icdf.rejection.overhead()
    );
}
