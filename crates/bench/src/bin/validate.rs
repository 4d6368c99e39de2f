//! Full distribution-validation battery (the Fig. 6 methodology) across
//! all four configurations and several sector variances.

use dwi_bench::obs::ObsArgs;
use dwi_bench::render::TextTable;
use dwi_core::{
    validate_report, Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig,
    Workload,
};
use dwi_trace::Recorder;

fn main() {
    let obs = ObsArgs::from_env();
    let rec = Recorder::new();
    let sink = if obs.enabled() {
        rec.sink()
    } else {
        dwi_trace::TraceSink::disabled()
    };
    let mut t = TextTable::new(&["Config", "v", "n", "mean", "var", "KS p", "AD p", "verdict"]);
    for cfg in PaperConfig::all() {
        for v in [0.5f32, 1.39, 13.9] {
            let w = Workload {
                num_scenarios: 24_576,
                num_sectors: 1,
                sector_variance: v,
            };
            let run = FunctionalDecoupled.execute(
                &GammaListing2::for_config(&cfg, &w, 0xC0FFEE),
                &ExecutionPlan::for_config(&cfg).trace(sink.clone()),
            );
            let report = validate_report(&run, v as f64, 40_000);
            t.row(&[
                cfg.name(),
                format!("{v}"),
                report.n.to_string(),
                format!("{:.4}", report.summary.mean()),
                format!("{:.4}", report.summary.variance()),
                format!("{:.3}", report.ks.p_value),
                format!("{:.3}", report.ad.p_value),
                if report.passes(1e-4) { "PASS" } else { "FAIL" }.into(),
            ]);
        }
    }
    println!("Distribution validation (Fig. 6 methodology, KS + Anderson-Darling):\n");
    println!("{}", t.render());
    println!("expected: mean 1.0 and variance v for every cell (Gamma(1/v, v)).");
    obs.write(&rec);
}
