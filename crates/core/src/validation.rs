//! Distribution validation machinery (the Fig. 6 methodology as a library).
//!
//! The paper validates visually against Matlab's `gamrnd`; this module
//! packages the reproduction's stronger check — moments, KS, Anderson-
//! Darling and a histogram against the analytic Gamma(1/v, v) — into one
//! report over a run's emitted samples.

use crate::backend::RunReport;
use dwi_stats::{ad_test, ks_test, AdResult, Gamma, Histogram, KsResult, Summary};

/// Validation report of one generated gamma sequence.
#[derive(Debug)]
pub struct ValidationReport {
    /// Sector variance validated against.
    pub sector_variance: f64,
    /// Sample moments.
    pub summary: Summary,
    /// Kolmogorov-Smirnov result.
    pub ks: KsResult,
    /// Anderson-Darling result (tail-weighted).
    pub ad: AdResult,
    /// Histogram over [0, q_{0.999}).
    pub histogram: Histogram,
    /// Samples validated.
    pub n: usize,
}

impl ValidationReport {
    /// Overall verdict at significance `alpha` for each test: moments
    /// within 3σ-ish bands, KS and AD not rejecting.
    pub fn passes(&self, alpha: f64) -> bool {
        let v = self.sector_variance;
        let n = self.n as f64;
        let mean_tol = 4.0 * (v / n).sqrt();
        self.ks.accepts(alpha)
            && self.ad.accepts(alpha)
            && (self.summary.mean() - 1.0).abs() < mean_tol.max(0.02)
            && (self.summary.variance() - v).abs() / v < 0.15
    }

    /// One-line summary for reports.
    pub fn render(&self) -> String {
        format!(
            "n={} mean={:.4} var={:.4} KS(D={:.4}, p={:.3}) AD(A2={:.3}, p={:.3})",
            self.n,
            self.summary.mean(),
            self.summary.variance(),
            self.ks.statistic,
            self.ks.p_value,
            self.ad.statistic,
            self.ad.p_value
        )
    }
}

/// Validate a unified-layer [`RunReport`]'s sample streams against
/// Gamma(1/v, v), using up to `max_samples` values (every work-item's
/// emitted sequence, in work-item order). Works with any backend — the
/// report's `samples` are already the valid prefixes.
pub fn validate_report(
    report: &RunReport,
    sector_variance: f64,
    max_samples: usize,
) -> ValidationReport {
    let mut sample: Vec<f64> = Vec::new();
    for wi in &report.samples {
        sample.extend(wi.iter().map(|&x| x as f64));
        if sample.len() >= max_samples {
            sample.truncate(max_samples);
            break;
        }
    }
    assert!(sample.len() >= 64, "not enough samples to validate");
    let dist = Gamma::from_sector_variance(sector_variance);
    let mut summary = Summary::new();
    summary.extend(&sample);
    let hi = dist.quantile(0.999);
    let mut histogram = Histogram::new(0.0, hi, 60);
    histogram.extend(&sample);
    let ks = ks_test(&sample, |x| dist.cdf(x));
    let ad = ad_test(&sample, |x| dist.cdf(x));
    ValidationReport {
        sector_variance,
        summary,
        ks,
        ad,
        histogram,
        n: sample.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, ExecutionPlan, FunctionalDecoupled};
    use crate::config::{PaperConfig, Workload};
    use crate::kernel::GammaListing2;

    fn run(v: f32, scenarios: u64) -> RunReport {
        let cfg = PaperConfig::config1();
        let w = Workload {
            num_scenarios: scenarios,
            num_sectors: 1,
            sector_variance: v,
        };
        let kernel = GammaListing2::for_config(&cfg, &w, 31);
        FunctionalDecoupled.execute(&kernel, &ExecutionPlan::for_config(&cfg))
    }

    #[test]
    fn valid_sequences_pass_all_tests() {
        for v in [1.39f32, 13.9] {
            let report = validate_report(&run(v, 24_576), v as f64, 30_000);
            assert!(report.passes(1e-4), "v={v}: {}", report.render());
        }
    }

    #[test]
    fn corrupted_samples_fail_validation() {
        let mut r = run(1.39, 8192);
        // Corrupt: scale the first work-item's samples.
        for x in r.samples[0].iter_mut() {
            *x *= 2.0;
        }
        let report = validate_report(&r, 1.39, 20_000);
        assert!(!report.passes(1e-4), "corruption must be detected");
    }

    #[test]
    fn wrong_variance_hypothesis_rejected() {
        let report = validate_report(&run(1.39, 8192), 5.0, 20_000);
        assert!(!report.passes(1e-4));
    }

    #[test]
    fn render_contains_key_stats() {
        let s = validate_report(&run(1.39, 4096), 1.39, 10_000).render();
        assert!(s.contains("KS(") && s.contains("AD(") && s.contains("mean="));
    }
}
