//! The nested gamma-RNG kernel — the *algorithm* of the paper's Listing 2,
//! platform-independent.
//!
//! Every platform implementation in this reproduction (decoupled FPGA
//! work-items, SIMT lockstep partitions, plain host loops) executes this
//! exact per-iteration semantics, so their output streams are comparable
//! sample-for-sample. Structure of one `MAINLOOP` iteration:
//!
//! 1. the normal source always advances (`MT0(true, …)`) and produces
//!    `(n0, n0_valid)`,
//! 2. the rejection uniform `u1` comes from MT1 *gated on* `n0_valid`,
//! 3. the Marsaglia-Tsang test yields `g_valid`; `gRN_ok = n0_valid && g_valid`,
//! 4. the correction uniform `u2` comes from MT2 *gated on* `gRN_ok`,
//! 5. for α ≤ 1 the corrected value is selected (`alphaFlag`),
//! 6. the output is written only when `gRN_ok && counter < limitMain`.
//!
//! The loop-exit test uses a **delayed copy** of the counter
//! (`prevCounter[breakId]`, Listing 2) so a pipelined implementation keeps
//! II = 1; the reference kernel reproduces that delay faithfully, including
//! the up-to-one extra trailing iteration it causes.

use crate::gamma::{correct_alpha_le_one, gamma_attempt};
use crate::mt::{AdaptedMt, MtParams};
use crate::rejection::RejectionStats;
use crate::transforms::{IcdfCuda, IcdfFpga, MarsagliaBray, NormalTransform};
use crate::uniform::uint2float;
use dwi_trace::{Counter, Track};

/// Which uniform→normal transform the kernel uses (Table I column
/// "Uniform to Normal Transformation", plus the CUDA-style variant the
/// paper uses on fixed architectures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormalMethod {
    /// Marsaglia-Bray polar rejection (Config1, Config2).
    MarsagliaBray,
    /// Bit-level fixed-point ICDF — optimal on FPGA (Config3, Config4).
    IcdfFpga,
    /// Giles-erfinv ICDF — the fixed-architecture variant of Config3/4.
    IcdfCuda,
}

impl NormalMethod {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            NormalMethod::MarsagliaBray => "Marsaglia-Bray",
            NormalMethod::IcdfFpga => "ICDF FPGA-style",
            NormalMethod::IcdfCuda => "ICDF CUDA-style",
        }
    }
}

/// Full configuration of one kernel instance.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Uniform→normal transform.
    pub normal: NormalMethod,
    /// Mersenne-Twister parameter set for all underlying generators.
    pub mt: MtParams,
    /// Sector variance v: the output is Gamma(1/v, v) (Section II-D4).
    pub sector_variance: f32,
    /// `limitSec`: number of sectors (outer loop trips).
    pub limit_sec: u32,
    /// `limitMain`: accepted gamma RNs per sector.
    pub limit_main: u32,
    /// `limitMax = limit_main × this`: safety bound of the main loop.
    pub limit_max_factor: u32,
    /// Base seed; per-work-item per-stream seeds are derived from it.
    pub seed: u64,
    /// The `breakId` pipeline delay of the loop-exit counter (Listing 2
    /// uses 0, i.e. a delay of one iteration).
    pub break_id: u8,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            normal: NormalMethod::MarsagliaBray,
            mt: crate::mt::MT19937,
            sector_variance: 1.39,
            limit_sec: 1,
            limit_main: 1024,
            limit_max_factor: 8,
            seed: 0x5EED_0000_CAFE_F00D,
            break_id: 0,
        }
    }
}

/// Per-iteration trace record, consumed by the SIMT divergence model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationTrace {
    /// Normal transform produced a valid variate this iteration.
    pub n0_valid: bool,
    /// Marsaglia-Tsang accepted (given a valid normal).
    pub accepted: bool,
}

/// Statistics of one sector run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectorRun {
    /// Main-loop iterations executed (including the delayed-counter tail).
    pub iterations: u64,
    /// Gamma RNs written.
    pub produced: u64,
    /// True when the `limitMax` safety bound cut the loop short.
    pub truncated: bool,
}

enum Transform {
    Bray(MarsagliaBray),
    Fpga(IcdfFpga),
    Cuda(IcdfCuda),
}

impl Transform {
    #[inline]
    fn attempt(&mut self, u0: u32, u1: u32) -> (f32, bool) {
        match self {
            Transform::Bray(t) => t.attempt(u0, u1),
            Transform::Fpga(t) => t.attempt(u0, u1),
            Transform::Cuda(t) => t.attempt(u0, u1),
        }
    }

    fn uniforms(&self) -> usize {
        match self {
            Transform::Bray(_) => 2,
            Transform::Fpga(_) | Transform::Cuda(_) => 1,
        }
    }
}

/// One work-item's nested gamma generator (the paper's `GammaRNG`).
pub struct GammaKernel {
    cfg: KernelConfig,
    wid: u32,
    mt0a: AdaptedMt,
    /// Second normal-input generator; present only for two-uniform
    /// transforms (the paper splits MT0 into two parallel Mersenne-Twisters
    /// following ref [18]).
    mt0b: Option<AdaptedMt>,
    mt1: AdaptedMt,
    mt2: AdaptedMt,
    transform: Transform,
    /// `1/α`, the exponent of the α ≤ 1 correction.
    inv_alpha: f32,
    beta: f32,
    alpha_flag: bool,
    d: f32,
    c: f32,
    combined: RejectionStats,
}

impl GammaKernel {
    /// Build the kernel for work-item `wid`.
    pub fn new(cfg: &KernelConfig, wid: u32) -> Self {
        assert!(
            cfg.sector_variance > 0.0,
            "sector variance must be positive"
        );
        assert!(cfg.limit_max_factor >= 1, "limit_max_factor must be >= 1");
        let transform = match cfg.normal {
            NormalMethod::MarsagliaBray => Transform::Bray(MarsagliaBray::new()),
            NormalMethod::IcdfFpga => Transform::Fpga(IcdfFpga::new()),
            NormalMethod::IcdfCuda => Transform::Cuda(IcdfCuda::new()),
        };
        let alpha = 1.0 / cfg.sector_variance;
        let beta = cfg.sector_variance;
        let alpha_flag = alpha <= 1.0;
        let eff = if alpha_flag { alpha + 1.0 } else { alpha };
        let d = eff - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let needs_b = transform.uniforms() == 2;
        Self {
            cfg: *cfg,
            wid,
            mt0a: AdaptedMt::new(cfg.mt, derive_seed(cfg.seed, wid, 0)),
            mt0b: needs_b.then(|| AdaptedMt::new(cfg.mt, derive_seed(cfg.seed, wid, 1))),
            mt1: AdaptedMt::new(cfg.mt, derive_seed(cfg.seed, wid, 2)),
            mt2: AdaptedMt::new(cfg.mt, derive_seed(cfg.seed, wid, 3)),
            transform,
            inv_alpha: 1.0 / alpha,
            beta,
            alpha_flag,
            d,
            c,
            combined: RejectionStats::new(),
        }
    }

    /// The work-item id this kernel was instantiated with.
    pub fn wid(&self) -> u32 {
        self.wid
    }

    /// Re-derive the shape constants for a new sector variance — Listing 2
    /// recomputes `alpha`/`alphaFlag` at the top of `SECLOOP`, so one kernel
    /// can serve heterogeneous CreditRisk+ sectors (per-sector `v_k`)
    /// without re-instantiation.
    pub fn set_sector_variance(&mut self, v: f32) {
        assert!(v > 0.0, "sector variance must be positive");
        let alpha = 1.0 / v;
        self.inv_alpha = 1.0 / alpha;
        self.beta = v;
        self.alpha_flag = alpha <= 1.0;
        let eff = if self.alpha_flag { alpha + 1.0 } else { alpha };
        self.d = eff - 1.0 / 3.0;
        self.c = 1.0 / (9.0 * self.d).sqrt();
    }

    /// Run all sectors with per-sector variances (heterogeneous CreditRisk+
    /// economy): `variances[k]` applies to sector `k`; the count must equal
    /// `limit_sec`.
    pub fn run_all_with_variances(&mut self, variances: &[f32], out: &mut Vec<f32>) -> SectorRun {
        assert_eq!(
            variances.len(),
            self.cfg.limit_sec as usize,
            "one variance per sector"
        );
        let mut total = SectorRun::default();
        for &v in variances {
            self.set_sector_variance(v);
            let r = self.run_sector(|g| out.push(g));
            total.iterations += r.iterations;
            total.produced += r.produced;
            total.truncated |= r.truncated;
        }
        total
    }

    /// The configuration in use.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Combined rejection statistics over all iterations so far — this is
    /// the paper's Section IV-E "combined rejection rate" (≈ 30.3 % for the
    /// Marsaglia-Bray configs at v = 1.39, ≈ 7.4 % for ICDF).
    pub fn combined_stats(&self) -> &RejectionStats {
        &self.combined
    }

    /// One main-loop iteration: returns the accepted gamma (if any) plus the
    /// branch trace.
    #[inline]
    pub fn step(&mut self) -> (Option<f32>, IterationTrace) {
        // (1) normal source always advances.
        let u0a = self.mt0a.next(true);
        let u0b = match &mut self.mt0b {
            Some(mt) => mt.next(true),
            None => 0,
        };
        let (n0, n0_valid) = self.transform.attempt(u0a, u0b);
        // (2) rejection uniform, gated on n0_valid.
        let u1 = uint2float(self.mt1.next(n0_valid));
        // (3) Marsaglia-Tsang test (computed unconditionally, as in hardware).
        let (g_unscaled, g_valid) = gamma_attempt(n0, u1, self.d, self.c);
        let ok = n0_valid && g_valid;
        // (4) correction uniform, gated on gRN_ok.
        let u2 = uint2float(self.mt2.next(ok));
        // (5) correction + alphaFlag select. Only an accepted attempt's
        // value is written, so the correction is evaluated for those alone.
        let g_scaled = g_unscaled * self.beta;
        let gamma = if ok && self.alpha_flag {
            correct_alpha_le_one(g_scaled, u2, self.inv_alpha)
        } else {
            g_scaled
        };
        self.combined.record(ok);
        (
            ok.then_some(gamma),
            IterationTrace {
                n0_valid,
                accepted: ok,
            },
        )
    }

    /// Run one sector (`MAINLOOP`): produce `limit_main` gammas into `sink`,
    /// honouring the delayed loop-exit counter and the `limitMax` bound.
    pub fn run_sector(&mut self, sink: impl FnMut(f32)) -> SectorRun {
        self.run_sector_traced(sink, &Track::disabled())
    }

    /// [`GammaKernel::run_sector`] with a timeline track: every rejected
    /// iteration drops a `rejection` instant on the track and bumps
    /// `dwi_rejection_retries_total{wid}` — the paper's Section IV-E
    /// combined-rejection behaviour, observable per work-item. With a
    /// disabled track the per-iteration cost is one predictable branch.
    pub fn run_sector_traced(&mut self, mut sink: impl FnMut(f32), track: &Track) -> SectorRun {
        let c_rej = if track.is_enabled() {
            let wid = self.wid.to_string();
            track.counter("dwi_rejection_retries_total", &[("wid", &wid)])
        } else {
            Counter::disabled()
        };
        let limit_main = self.cfg.limit_main as u64;
        let limit_max = limit_main.saturating_mul(self.cfg.limit_max_factor as u64);
        let delay = self.cfg.break_id as usize + 1;
        // prevCounter shift register (completely partitioned array in HLS).
        let mut prev_counter = vec![0u64; delay];
        let mut counter = 0u64;
        let mut run = SectorRun::default();
        let mut k = 0u64;
        while k < limit_max && prev_counter[delay - 1] < limit_main {
            // UpdateRegUI: shift the delayed counter.
            for i in (1..delay).rev() {
                prev_counter[i] = prev_counter[i - 1];
            }
            prev_counter[0] = counter;
            let (out, trace) = self.step();
            if let Some(g) = out {
                if counter < limit_main {
                    sink(g);
                    counter += 1;
                }
            } else if !trace.accepted {
                c_rej.inc();
                track.instant("rejection");
            }
            k += 1;
        }
        run.iterations = k;
        run.produced = counter;
        run.truncated = counter < limit_main;
        run
    }

    /// Run all `limit_sec` sectors, appending to `out`. Returns the
    /// accumulated per-sector stats.
    pub fn run_all(&mut self, out: &mut Vec<f32>) -> SectorRun {
        let mut total = SectorRun::default();
        for _ in 0..self.cfg.limit_sec {
            let r = self.run_sector(|g| out.push(g));
            total.iterations += r.iterations;
            total.produced += r.produced;
            total.truncated |= r.truncated;
        }
        total
    }
}

/// SplitMix64-style per-(work-item, stream) seed derivation.
fn derive_seed(base: u64, wid: u32, stream: u32) -> u32 {
    let mut z = base ^ ((wid as u64) << 32) ^ ((stream as u64) << 16);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mt::{MT19937, MT521};

    fn cfg(normal: NormalMethod) -> KernelConfig {
        KernelConfig {
            normal,
            limit_main: 2000,
            limit_sec: 2,
            ..KernelConfig::default()
        }
    }

    #[test]
    fn produces_exactly_limit_main_per_sector() {
        let mut k = GammaKernel::new(&cfg(NormalMethod::MarsagliaBray), 0);
        let mut out = Vec::new();
        let r = k.run_all(&mut out);
        assert_eq!(out.len(), 4000);
        assert_eq!(r.produced, 4000);
        assert!(!r.truncated);
        assert!(r.iterations >= 4000, "rejections imply extra iterations");
    }

    #[test]
    fn combined_rejection_rate_mbray_config() {
        // Section IV-E: 27.8 %, 30.3 % and 33.7 % at v = 0.1, 1.39 and 100
        // for the Marsaglia-Bray chain.
        for (v, paper) in [(0.1f32, 0.278), (1.39, 0.303), (100.0, 0.337)] {
            let mut k = GammaKernel::new(
                &KernelConfig {
                    normal: NormalMethod::MarsagliaBray,
                    sector_variance: v,
                    limit_main: 100_000,
                    limit_sec: 1,
                    ..KernelConfig::default()
                },
                0,
            );
            let mut out = Vec::new();
            k.run_all(&mut out);
            // The paper's r is extra iterations per accepted output (the
            // (1+r) factor of Eq. 1): 1/(π/4 · gamma-acceptance) − 1.
            let r = k.combined_stats().overhead();
            assert!(
                (r - paper).abs() < 0.01,
                "v={v}: combined M-Bray overhead {r} vs the paper's {paper}"
            );
        }
    }

    #[test]
    fn combined_rejection_rate_icdf_config() {
        // Section IV-E: ~7.4% at v = 1.39 for the ICDF chain.
        for normal in [NormalMethod::IcdfFpga, NormalMethod::IcdfCuda] {
            let mut k = GammaKernel::new(
                &KernelConfig {
                    normal,
                    limit_main: 50_000,
                    ..KernelConfig::default()
                },
                0,
            );
            let mut out = Vec::new();
            k.run_all(&mut out);
            // Our exact (fully combinational) ICDF only rejects u = 0, so the
            // chain overhead is the Marsaglia-Tsang rejection alone, ≈ 2.4 %.
            // The paper reports 7.4 % — its hardware ICDF re-draws ~5 % of
            // inputs intrinsically (see EXPERIMENTS.md for the deviation
            // analysis; a bit-pattern guard would bias the distribution, so
            // we keep the transform exact).
            let r = k.combined_stats().overhead();
            assert!(
                (0.005..0.09).contains(&r),
                "{normal:?}: combined ICDF overhead {r} outside the band"
            );
        }
    }

    #[test]
    fn outputs_are_gamma_distributed() {
        // MT19937 (Configs 1/3) and MT521 (Configs 2/4) under every transform.
        for mt in [MT19937, MT521] {
            for normal in [
                NormalMethod::MarsagliaBray,
                NormalMethod::IcdfFpga,
                NormalMethod::IcdfCuda,
            ] {
                let mut k = GammaKernel::new(
                    &KernelConfig {
                        normal,
                        mt,
                        limit_main: 20_000,
                        limit_sec: 1,
                        ..KernelConfig::default()
                    },
                    0,
                );
                let mut out = Vec::new();
                k.run_all(&mut out);
                let xs: Vec<f64> = out.iter().map(|&x| x as f64).collect();
                let dist = dwi_stats::Gamma::from_sector_variance(1.39);
                let r = dwi_stats::ks_test(&xs, |x| dist.cdf(x));
                assert!(
                    r.accepts(1e-4),
                    "{normal:?} on MT{}: KS p = {} D = {}",
                    mt.exponent,
                    r.p_value,
                    r.statistic
                );
            }
        }
    }

    #[test]
    fn work_items_produce_independent_streams() {
        let c = cfg(NormalMethod::MarsagliaBray);
        let mut k0 = GammaKernel::new(&c, 0);
        let mut k1 = GammaKernel::new(&c, 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        k0.run_all(&mut a);
        k1.run_all(&mut b);
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(
            same < a.len() / 100,
            "streams look correlated: {same} equal"
        );
    }

    #[test]
    fn deterministic_given_seed_and_wid() {
        let c = cfg(NormalMethod::IcdfCuda);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        GammaKernel::new(&c, 3).run_all(&mut a);
        GammaKernel::new(&c, 3).run_all(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn mt521_configuration_works() {
        let mut k = GammaKernel::new(
            &KernelConfig {
                mt: MT521,
                limit_main: 5000,
                ..KernelConfig::default()
            },
            0,
        );
        let mut out = Vec::new();
        let r = k.run_all(&mut out);
        assert_eq!(r.produced, 5000);
        let mut s = dwi_stats::Summary::new();
        s.extend_f32(&out);
        assert!((s.mean() - 1.0).abs() < 0.05, "mean {}", s.mean());
    }

    #[test]
    fn delayed_counter_adds_at_most_delay_iterations() {
        // Compare break_id = 0 (delay 1) with a hypothetical undelayed exit:
        // the delayed version may run at most delay extra iterations but must
        // produce identical output.
        let base = KernelConfig {
            limit_main: 1000,
            ..KernelConfig::default()
        };
        let mut k0 = GammaKernel::new(&base, 0);
        let mut out0 = Vec::new();
        let r0 = k0.run_sector(|g| out0.push(g));

        let delayed = KernelConfig {
            break_id: 3,
            ..base
        };
        let mut k1 = GammaKernel::new(&delayed, 0);
        let mut out1 = Vec::new();
        let r1 = k1.run_sector(|g| out1.push(g));

        assert_eq!(out0, out1, "delay must not change the output stream");
        assert!(r1.iterations >= r0.iterations);
        assert!(
            r1.iterations - r0.iterations <= 3,
            "extra iterations {} > breakId delta",
            r1.iterations - r0.iterations
        );
    }

    #[test]
    fn limit_max_truncates_pathological_runs() {
        // With factor 1 and ~30% rejection, a sector cannot finish.
        let mut k = GammaKernel::new(
            &KernelConfig {
                limit_main: 10_000,
                limit_max_factor: 1,
                ..KernelConfig::default()
            },
            0,
        );
        let mut out = Vec::new();
        let r = k.run_sector(|g| out.push(g));
        assert!(r.truncated);
        assert_eq!(r.iterations, 10_000);
        assert!(out.len() < 10_000);
    }

    #[test]
    fn per_sector_variances_produce_matching_marginals() {
        // Heterogeneous economy: each sector's slice must follow its own
        // Gamma(1/v_k, v_k).
        let variances = [0.5f32, 1.39, 4.0];
        let mut k = GammaKernel::new(
            &KernelConfig {
                limit_sec: 3,
                limit_main: 20_000,
                ..KernelConfig::default()
            },
            0,
        );
        let mut out = Vec::new();
        let r = k.run_all_with_variances(&variances, &mut out);
        assert_eq!(r.produced, 60_000);
        for (sec, &v) in variances.iter().enumerate() {
            let slice = &out[sec * 20_000..(sec + 1) * 20_000];
            let mut s = dwi_stats::Summary::new();
            s.extend_f32(slice);
            assert!(
                (s.mean() - 1.0).abs() < 0.03,
                "sector {sec}: mean {}",
                s.mean()
            );
            assert!(
                (s.variance() - v as f64).abs() / (v as f64) < 0.1,
                "sector {sec}: var {} vs {v}",
                s.variance()
            );
        }
    }

    #[test]
    fn set_sector_variance_flips_alpha_flag() {
        let mut k = GammaKernel::new(&KernelConfig::default(), 0);
        k.set_sector_variance(0.5); // alpha = 2 > 1
        let mut out = Vec::new();
        let r = k.run_sector(|g| out.push(g));
        assert_eq!(r.produced, 1024);
        let mut s = dwi_stats::Summary::new();
        s.extend_f32(&out);
        assert!((s.variance() - 0.5).abs() < 0.1, "var {}", s.variance());
    }

    #[test]
    #[should_panic(expected = "one variance per sector")]
    fn variance_count_mismatch_panics() {
        let mut k = GammaKernel::new(&KernelConfig::default(), 0);
        let mut out = Vec::new();
        k.run_all_with_variances(&[1.0, 2.0], &mut out);
    }

    #[test]
    fn seed_derivation_separates_streams() {
        let s1 = derive_seed(1, 0, 0);
        let s2 = derive_seed(1, 0, 1);
        let s3 = derive_seed(1, 1, 0);
        let s4 = derive_seed(2, 0, 0);
        assert!(s1 != s2 && s1 != s3 && s1 != s4 && s2 != s3);
    }
}
