//! Data builders for every table and figure.

use dwi_core::experiment::{measure_rejection_overhead, table3};
use dwi_core::{
    Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, IcdfStyle, PaperConfig, Workload,
};
use dwi_energy::profiles::{all_devices, FPGA_POWER};
use dwi_hls::memory::BurstChannel;
use dwi_hls::resources::{design_cost, ResourceReport, XC7VX690T};
use dwi_ocl::profiles::{DeviceKind, DeviceProfile, CPU, GPU, PHI};
use dwi_rng::{NormalMethod, MT19937, MT521};

/// Table I rows: (name, transform, exponent, state words).
pub fn table1_rows() -> Vec<(String, &'static str, u32, usize)> {
    PaperConfig::all()
        .iter()
        .map(|c| {
            (
                c.name(),
                if c.is_bray() {
                    "Marsaglia-Bray"
                } else {
                    "ICDF"
                },
                c.mt.exponent,
                c.mt.n,
            )
        })
        .collect()
}

/// Table II rows: (config name, work-items, slice %, DSP %, BRAM %,
/// corrected slice %, binding resource).
pub fn table2_rows() -> Vec<(String, u32, f64, f64, f64, f64, &'static str)> {
    PaperConfig::all()
        .iter()
        .map(|c| {
            let report = ResourceReport {
                used: design_cost(&c.workitem_blocks(), c.fpga_workitems),
                device: XC7VX690T,
                workitems: c.fpga_workitems,
            };
            let (s, d, b) = report.utilization();
            (
                c.name(),
                c.fpga_workitems,
                s,
                d,
                b,
                report.corrected_slice_utilization(),
                report.binding_resource(),
            )
        })
        .collect()
}

/// Eq. 1 rows: (config, work-items, measured r, Eq.1 ms, transfer-bound ms,
/// modeled ms).
pub fn eq1_rows(calibration_samples: u32) -> Vec<(String, u32, f64, f64, f64, f64)> {
    let w = Workload::paper();
    PaperConfig::all()
        .iter()
        .map(|c| {
            let r = measure_rejection_overhead(
                c.normal_fpga,
                c.mt,
                w.sector_variance,
                calibration_samples,
            );
            let model = dwi_core::FpgaRuntimeModel::for_config(c, r);
            (
                c.name(),
                c.fpga_workitems,
                r,
                model.compute_bound_s(&w) * 1e3,
                model.transfer_bound_s(&w) * 1e3,
                model.runtime_s(&w) * 1e3,
            )
        })
        .collect()
}

/// Fig. 5a: runtime \[ms\] vs localSize for the three fixed platforms
/// (Config1 cell and Config3-CUDA cell, like the paper's plot).
/// Returns (device name, config label, Vec<(localSize, ms)>).
/// (device, config, series of (localSize, runtime ms)).
pub type Fig5aSeries = (&'static str, &'static str, Vec<(u64, f64)>);

pub fn fig5a_data() -> Vec<Fig5aSeries> {
    let w = Workload::paper();
    let mut out = Vec::new();
    for (cfg, label, r) in [
        (PaperConfig::config1(), "Config1", 0.304),
        (PaperConfig::config3(), "Config3", 0.024),
    ] {
        let q = r / (1.0 + r);
        for dev in [&CPU, &GPU, &PHI] {
            let cell = cfg.ocl_cell(IcdfStyle::Cuda, q);
            let mut series = Vec::new();
            let mut l = 1u64;
            while l <= 512 {
                series.push((
                    l,
                    dev.kernel_runtime_s(&cell, w.total_outputs(), 65_536, l) * 1e3,
                ));
                l *= 2;
            }
            out.push((dev.name, label, series));
        }
    }
    out
}

/// Fig. 5b: runtime \[ms\] vs globalSize at the optimal localSize.
pub fn fig5b_data() -> Vec<(&'static str, Vec<(u64, f64)>)> {
    let w = Workload::paper();
    let cfg = PaperConfig::config1();
    let q = 0.304 / 1.304;
    let mut out = Vec::new();
    for dev in [&CPU, &GPU, &PHI] {
        let cell = cfg.ocl_cell(IcdfStyle::Cuda, q);
        let local = optimal_local(dev);
        let mut series = Vec::new();
        let mut g = 1024u64;
        while g <= 1_048_576 {
            series.push((
                g,
                dev.kernel_runtime_s(&cell, w.total_outputs(), g, local.min(g)) * 1e3,
            ));
            g *= 4;
        }
        out.push((dev.name, series));
    }
    out
}

/// The Fig. 5a optima (paper: 8 / 64 / 16).
pub fn optimal_local(dev: &DeviceProfile) -> u64 {
    match dev.kind {
        DeviceKind::Cpu => 8,
        DeviceKind::Gpu => 64,
        DeviceKind::Phi => 16,
    }
}

/// Fig. 6 data: FPGA-generated gamma histogram vs analytic pdf for a
/// sector variance. Returns (histogram, analytic distribution, KS result).
pub fn fig6_data(
    v: f32,
    samples: u32,
    seed: u64,
) -> (dwi_stats::Histogram, dwi_stats::Gamma, dwi_stats::KsResult) {
    let cfg = PaperConfig::config1();
    let workload = Workload {
        num_scenarios: samples as u64,
        num_sectors: 1,
        sector_variance: v,
    };
    let kernel = GammaListing2::for_config(&cfg, &workload, seed);
    let report = FunctionalDecoupled.execute(&kernel, &ExecutionPlan::for_config(&cfg));
    let dist = dwi_stats::Gamma::from_sector_variance(v as f64);
    let hi = dist.quantile(0.999);
    let mut hist = dwi_stats::Histogram::new(0.0, hi, 60);
    let mut sample = Vec::new();
    for wi in &report.samples {
        hist.extend_f32(wi);
        sample.extend(wi.iter().map(|&x| x as f64));
    }
    // KS on a subsample to keep the p-value meaningful at huge n.
    sample.truncate(50_000);
    let ks = dwi_stats::ks_test(&sample, |x| dist.cdf(x));
    (hist, dist, ks)
}

/// Fig. 7: transfers-only runtime \[ms\] for the paper's full output volume,
/// per burst length and work-item count. Returns
/// (burst RNs, Vec<(workitems, runtime ms, bandwidth GB/s)>).
/// (burst RNs, rows of (work-items, runtime ms, bandwidth GB/s)).
pub type Fig7Row = (u64, Vec<(u64, f64, f64)>);

pub fn fig7_data(channel: &BurstChannel) -> Vec<Fig7Row> {
    fig7_data_with(|total, burst, n| {
        (
            channel.transfers_only_runtime(total, burst, n),
            channel.effective_bandwidth(burst, n),
        )
    })
}

/// [`fig7_data`] with a pluggable model-point evaluator. The driver calls
/// `point(total, burst, workitems)` once per grid cell and expects
/// (runtime s, bandwidth RNs/s); everything else is unit conversion, so
/// two evaluators that agree bit-for-bit — the in-process
/// [`BurstChannel`] methods and a `dwi-server` gateway computing the same
/// pure functions on its task lane — produce byte-identical tables.
pub fn fig7_data_with<F>(mut point: F) -> Vec<Fig7Row>
where
    F: FnMut(u64, u64, u64) -> (f64, f64),
{
    let total = Workload::paper().total_outputs();
    let mut out = Vec::new();
    for burst in [16u64, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
        let mut row = Vec::new();
        for n in [1u64, 2, 4, 6, 8] {
            let (t, bw) = point(total, burst, n);
            row.push((n, t * 1e3, bw / 1e9));
        }
        out.push((burst, row));
    }
    out
}

/// Fig. 9: dynamic energy per kernel invocation \[J\] per platform and
/// config, plus the FPGA efficiency ratio. Returns
/// (config, Vec<(device, energy J, fpga ratio)>).
/// (config, rows of (device, energy J, ratio vs FPGA)).
pub type Fig9Row = (String, Vec<(&'static str, f64, f64)>);

pub fn fig9_data(calibration_samples: u32) -> Vec<Fig9Row> {
    let w = Workload::paper();
    let t = table3(&w, calibration_samples);
    // Collapse the style split: fixed platforms use their best (CUDA) rows.
    let rows: Vec<(String, [f64; 4], bool)> = vec![
        ("Config1".into(), row_ms(&t.rows[0]), true),
        ("Config2".into(), row_ms(&t.rows[1]), false),
        ("Config3".into(), row_ms(&t.rows[2]), true),
        ("Config4".into(), row_ms(&t.rows[4]), false),
    ];
    let devices = all_devices();
    rows.into_iter()
        .map(|(name, ms, big)| {
            let energies: Vec<(&'static str, f64)> = devices
                .iter()
                .zip(ms)
                .map(|(d, t_ms)| (d.name, d.dynamic_w(big) * t_ms / 1e3))
                .collect();
            let fpga_e = energies
                .iter()
                .find(|(n, _)| *n == FPGA_POWER.name)
                .expect("fpga row")
                .1;
            (
                name,
                energies
                    .into_iter()
                    .map(|(n, e)| (n, e, e / fpga_e))
                    .collect(),
            )
        })
        .collect()
}

fn row_ms(row: &dwi_core::Table3Row) -> [f64; 4] {
    [
        row.cpu.ms,
        row.gpu.ms,
        row.phi.ms,
        row.fpga.expect("fpga cell").ms,
    ]
}

/// Section IV-E rejection-rate sweep: (v, M-Bray overhead, ICDF overhead).
pub fn rejection_sweep(samples: u32) -> Vec<(f32, f64, f64)> {
    [0.1f32, 1.39, 13.9, 100.0]
        .into_iter()
        .map(|v| {
            let bray = measure_rejection_overhead(NormalMethod::MarsagliaBray, MT19937, v, samples);
            let icdf = measure_rejection_overhead(NormalMethod::IcdfFpga, MT521, v, samples);
            (v, bray, icdf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1, "Marsaglia-Bray");
        assert_eq!(rows[0].2, 19937);
        assert_eq!(rows[0].3, 624);
        assert_eq!(rows[3].1, "ICDF");
        assert_eq!(rows[3].2, 521);
        assert_eq!(rows[3].3, 17);
    }

    #[test]
    fn table2_slice_bound_everywhere() {
        for (name, wi, s, _, _, corrected, binding) in table2_rows() {
            assert!(binding == "slices", "{name}");
            assert!((52.0..54.0).contains(&s), "{name}: slices {s}");
            assert!(
                (77.0..83.0).contains(&corrected),
                "{name}: corrected {corrected}"
            );
            assert!(wi == 6 || wi == 8);
        }
    }

    #[test]
    fn eq1_rows_reproduce_section_4e() {
        let rows = eq1_rows(40_000);
        // Config1: Eq.1 ≈ 683 ms, modeled = transfer-bound ≈ 701 ms.
        let (_, wi, r, eq1, xfer, modeled) = rows[0].clone();
        assert_eq!(wi, 6);
        assert!((0.27..0.34).contains(&r));
        assert!((eq1 - 683.0).abs() < 12.0, "Eq.1 {eq1}");
        assert!((xfer - 701.0).abs() < 12.0, "transfer {xfer}");
        assert!((modeled - xfer).abs() < 1e-9, "transfer-bound");
    }

    #[test]
    fn fig5a_minima_at_paper_local_sizes() {
        for (dev, _, series) in fig5a_data() {
            let best = series
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
                .0;
            let expect = match dev {
                d if d.contains("Xeon Phi") => 16,
                d if d.contains("K80") => 64,
                _ => 8,
            };
            assert_eq!(best, expect, "{dev}");
        }
    }

    #[test]
    fn fig7_runtime_monotone_in_burst_and_wi() {
        let data = fig7_data(&BurstChannel::config34());
        // Runtime decreases (weakly) along both axes.
        for rows in data.windows(2) {
            for (a, b) in rows[0].1.iter().zip(&rows[1].1) {
                assert!(b.1 <= a.1 + 1e-9, "burst growth must not slow transfers");
            }
        }
        for (_, row) in &data {
            for pair in row.windows(2) {
                assert!(pair[1].1 <= pair[0].1 + 1e-9);
            }
        }
    }

    #[test]
    fn fig9_fpga_always_best() {
        for (config, rows) in fig9_data(30_000) {
            for (dev, _, ratio) in &rows {
                if *dev != "FPGA" {
                    assert!(*ratio > 1.0, "{config}: {dev} beat the FPGA");
                }
            }
        }
    }

    #[test]
    fn rejection_sweep_monotone_in_v() {
        let rows = rejection_sweep(20_000);
        // Paper: 27.8% (v=0.1) → 33.7% (v=100) for the M-Bray chain.
        assert!(rows[0].1 < rows[3].1, "M-Bray overhead must grow with v");
        assert!((0.24..0.30).contains(&rows[0].1), "v=0.1: {}", rows[0].1);
        assert!((0.29..0.38).contains(&rows[3].1), "v=100: {}", rows[3].1);
    }
}
