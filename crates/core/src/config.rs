//! The paper's four evaluation configurations (Table I) and the workload
//! parameters of Section IV-B.

use dwi_hls::memory::BurstChannel;
use dwi_hls::resources::{Block, WorkItemBlocks};
use dwi_ocl::profiles::{KernelCell, Transform};
use dwi_rng::mt::{MtParams, MT19937, MT521};
use dwi_rng::{KernelConfig, NormalMethod};

/// Which ICDF implementation a *fixed* platform runs (Section II-D3 /
/// Table III footnote: both are measured; CUDA-style wins on CPU/GPU/PHI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcdfStyle {
    /// Giles-erfinv ICDF, the fixed-architecture default.
    Cuda,
    /// The bit-level formulation ported as 32-bit integer chains.
    Fpga,
}

/// One of the paper's four configurations (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperConfig {
    /// 1..=4.
    pub id: u8,
    /// Uniform→normal transform on the FPGA.
    pub normal_fpga: NormalMethod,
    /// Mersenne-Twister parameter set (MT19937 or MT521).
    pub mt: MtParams,
    /// Work-items achieved on the FPGA (Section IV-B: 6 for Config1,2 and
    /// 8 for Config3,4).
    pub fpga_workitems: u32,
    /// RNs per burst in the transfer engine (LTRANSF × 16).
    pub burst_rns: u64,
}

impl PaperConfig {
    /// Config1: Marsaglia-Bray + MT19937.
    pub fn config1() -> Self {
        Self {
            id: 1,
            normal_fpga: NormalMethod::MarsagliaBray,
            mt: MT19937,
            fpga_workitems: 6,
            burst_rns: 256,
        }
    }

    /// Config2: Marsaglia-Bray + MT521.
    pub fn config2() -> Self {
        Self {
            mt: MT521,
            id: 2,
            ..Self::config1()
        }
    }

    /// Config3: ICDF + MT19937.
    pub fn config3() -> Self {
        Self {
            id: 3,
            normal_fpga: NormalMethod::IcdfFpga,
            mt: MT19937,
            fpga_workitems: 8,
            burst_rns: 256,
        }
    }

    /// Config4: ICDF + MT521.
    pub fn config4() -> Self {
        Self {
            mt: MT521,
            id: 4,
            ..Self::config3()
        }
    }

    /// All four, in Table I order.
    pub fn all() -> [Self; 4] {
        [
            Self::config1(),
            Self::config2(),
            Self::config3(),
            Self::config4(),
        ]
    }

    /// Display name.
    pub fn name(&self) -> String {
        format!("Config{}", self.id)
    }

    /// True for the Marsaglia-Bray configurations (1, 2).
    pub fn is_bray(&self) -> bool {
        self.normal_fpga == NormalMethod::MarsagliaBray
    }

    /// The memory channel as place-and-routed for this bitstream.
    pub fn channel(&self) -> BurstChannel {
        if self.is_bray() {
            BurstChannel::config12()
        } else {
            BurstChannel::config34()
        }
    }

    /// Per-work-item synthesizable block list (Table II resource model).
    pub fn workitem_blocks(&self) -> WorkItemBlocks {
        let mt_block = if self.mt.n == MT19937.n {
            Block::Mt19937
        } else {
            Block::Mt521
        };
        let (transform, mt_count) = if self.is_bray() {
            (Block::MarsagliaBray, 4)
        } else {
            (Block::IcdfFpga, 3)
        };
        WorkItemBlocks {
            blocks: vec![
                (Block::TransferEngine, 1),
                (transform, 1),
                (Block::GammaCore, 1),
                (Block::CorrectionCore, 1),
                (mt_block, mt_count),
            ],
        }
    }

    /// The `dwi-rng` kernel configuration for one FPGA work-item.
    pub fn kernel_config(&self, workload: &Workload, seed: u64) -> KernelConfig {
        KernelConfig {
            normal: self.normal_fpga,
            mt: self.mt,
            sector_variance: workload.sector_variance,
            limit_sec: workload.num_sectors,
            limit_main: workload.scenarios_per_workitem(self.fpga_workitems),
            limit_max_factor: 8,
            seed,
            break_id: 0,
        }
    }

    /// The `dwi-ocl` cost cell for a fixed platform, given the measured
    /// chain rejection probability.
    pub fn ocl_cell(&self, style: IcdfStyle, reject_prob: f64) -> KernelCell {
        let transform = if self.is_bray() {
            Transform::MarsagliaBray
        } else {
            match style {
                IcdfStyle::Cuda => Transform::IcdfCuda,
                IcdfStyle::Fpga => Transform::IcdfFpga,
            }
        };
        KernelCell {
            transform,
            big_state: self.mt.n == MT19937.n,
            reject_prob,
        }
    }
}

/// The simulation workload (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Monte-Carlo scenarios per sector.
    pub num_scenarios: u64,
    /// Financial sectors.
    pub num_sectors: u32,
    /// Sector variance v (shape 1/v, scale v).
    pub sector_variance: f32,
}

impl Workload {
    /// The paper's full-size run: 2,621,440 scenarios × 240 sectors at
    /// v = 1.39 ⇒ ≈ 2.5 GB of single-precision output.
    pub fn paper() -> Self {
        Self {
            num_scenarios: 2_621_440,
            num_sectors: 240,
            sector_variance: 1.39,
        }
    }

    /// A scaled-down workload with the same structure, for functional runs
    /// and tests. `scale` divides the scenario count.
    pub fn scaled(scale: u64) -> Self {
        let p = Self::paper();
        Self {
            num_scenarios: (p.num_scenarios / scale).max(16),
            num_sectors: 4,
            sector_variance: p.sector_variance,
        }
    }

    /// Total gamma RNs produced per run.
    pub fn total_outputs(&self) -> u64 {
        self.num_scenarios * self.num_sectors as u64
    }

    /// Output volume in bytes (single precision).
    pub fn total_bytes(&self) -> u64 {
        self.total_outputs() * 4
    }

    /// Scenarios each of `n` work-items generates per sector, rounded up to
    /// a whole number of 512-bit words so the per-work-item memory regions
    /// stay aligned (Section III-E).
    pub fn scenarios_per_workitem(&self, n: u32) -> u32 {
        let per = self.num_scenarios.div_ceil(n as u64);
        per.div_ceil(16).checked_mul(16).expect("workload overflow") as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_layout() {
        let all = PaperConfig::all();
        assert!(all[0].is_bray() && all[1].is_bray());
        assert!(!all[2].is_bray() && !all[3].is_bray());
        assert_eq!(all[0].mt.n, 624);
        assert_eq!(all[1].mt.n, 17);
        assert_eq!(all[2].mt.n, 624);
        assert_eq!(all[3].mt.n, 17);
        assert_eq!(all[0].fpga_workitems, 6);
        assert_eq!(all[2].fpga_workitems, 8);
    }

    #[test]
    fn workitem_counts_match_resource_fit() {
        // The per-config block lists must independently re-derive the
        // paper's achieved work-item counts through the resource model.
        use dwi_hls::resources::{max_workitems, XC7VX690T};
        for cfg in PaperConfig::all() {
            let fit = max_workitems(&cfg.workitem_blocks(), &XC7VX690T);
            assert_eq!(
                fit,
                cfg.fpga_workitems,
                "{}: fit {fit} vs paper {}",
                cfg.name(),
                cfg.fpga_workitems
            );
        }
    }

    #[test]
    fn paper_workload_volume() {
        let w = Workload::paper();
        assert_eq!(w.total_outputs(), 629_145_600);
        // "~2.5 GB of generated data per simulation run"
        assert!((w.total_bytes() as f64 / 1e9 - 2.5166).abs() < 0.01);
    }

    #[test]
    fn scenarios_per_workitem_aligned() {
        let w = Workload::paper();
        let per6 = w.scenarios_per_workitem(6);
        assert_eq!(per6 % 16, 0);
        assert!(per6 as u64 * 6 >= w.num_scenarios);
        assert!((per6 as u64 * 6 - w.num_scenarios) < 6 * 16);
        let per8 = w.scenarios_per_workitem(8);
        assert_eq!(per8 as u64, 2_621_440 / 8); // divides exactly
    }

    #[test]
    fn channels_differ_by_bitstream() {
        assert_eq!(PaperConfig::config1().channel(), BurstChannel::config12());
        assert_eq!(PaperConfig::config4().channel(), BurstChannel::config34());
    }

    #[test]
    fn scaled_workload_shrinks() {
        let w = Workload::scaled(1000);
        assert!(w.total_outputs() < Workload::paper().total_outputs());
        assert_eq!(w.sector_variance, 1.39);
    }
}
