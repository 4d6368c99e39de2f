//! Calibrated device profiles and the fixed-architecture runtime model.
//!
//! A kernel cell (transform × Mersenne-Twister size, optionally with the
//! CUDA- or FPGA-style ICDF) costs a fixed number of cycles per lockstep
//! partition iteration, assembled from per-component costs. The end-to-end
//! runtime of a generation run is then
//!
//! `t = total_outputs · D(q, W) · c / (W · P · f)` (+ scheduling effects,
//! see [`crate::ndrange`]),
//!
//! with `D` the divergence factor of [`crate::simt`], `W` the hardware
//! partition width, `P` the number of partitions the device executes
//! concurrently and `f` the clock.
//!
//! ## Calibration
//!
//! `W`, `P` and `f` come from the data sheets of the paper's test machines
//! (Section IV-A). The per-component cycle costs are **calibrated** so the
//! model reproduces the paper's Table III within a few percent; they encode
//! real architectural effects the paper discusses:
//!
//! * `state_big` ≫ `state_small` on GPU and Phi: four/three 624-word MT19937
//!   states per work-item blow past registers and local memory, while the
//!   17-word MT521 state stays resident — exactly why Config2/4 are so much
//!   faster than Config1/3 on those devices but not on the CPU with its
//!   large caches.
//! * `icdf_fpga` ≫ `icdf_cuda` on CPU and Phi: the bit-level ICDF's long
//!   shift/mask/integer-multiply chains serialize badly in their SIMD
//!   units (Table III's "ICDF FPGA-style" rows: 2794 ms vs 807 ms on CPU),
//!   while the GPU handles integer chains as well as the float path
//!   (1181 ms ≈ 1177 ms).
//! * `bray` on the CPU absorbs the scalarization penalty Intel's OpenCL
//!   compiler pays for the divergent polar-rejection loop.

use crate::simt::divergence_factor;

/// Which physical accelerator a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Dual-socket Intel Xeon E5-2670 v3 used as an OpenCL accelerator.
    Cpu,
    /// Nvidia Tesla K80 (one GK210).
    Gpu,
    /// Intel Xeon Phi 7120P.
    Phi,
}

/// Per-component iteration costs, in device cycles per lockstep partition
/// iteration (the whole partition advances together).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// One Mersenne-Twister draw: twist logic + tempering.
    pub mt_logic: f64,
    /// State-array traffic per draw, 624-word MT19937.
    pub state_big: f64,
    /// State-array traffic per draw, 17-word MT521.
    pub state_small: f64,
    /// Marsaglia-Bray transform: ln, sqrt, divide, multipliers.
    pub bray: f64,
    /// CUDA-style ICDF: Giles erfinv polynomial.
    pub icdf_cuda: f64,
    /// FPGA-style ICDF ported as 32-bit shift/mask/multiply chains.
    pub icdf_fpga: f64,
    /// Marsaglia-Tsang test: cube, squeeze, ln path.
    pub gamma: f64,
    /// α ≤ 1 correction: `u^(1/α)` via ln/exp.
    pub correct: f64,
}

/// A fixed-architecture device profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name (reports).
    pub name: &'static str,
    /// Device family.
    pub kind: DeviceKind,
    /// Hardware partition width W (SIMD lanes / warp size).
    pub native_width: u32,
    /// Partitions executing concurrently at full throughput.
    pub parallel_partitions: u32,
    /// Clock frequency (Hz).
    pub freq_hz: f64,
    /// Component costs.
    pub costs: OpCosts,
    /// Cycles of scheduling overhead per work-group.
    pub group_overhead_cycles: f64,
    /// Partitions-per-group needed to hide memory/issue latency (GPU: 2
    /// warps ⇒ the Fig. 5a optimum localSize 64); extra exposure multiplies
    /// runtime below this.
    pub latency_hiding_partitions: u32,
    /// Runtime penalty factor when latency is fully exposed.
    pub latency_exposure_penalty: f64,
    /// Relative runtime growth per doubling of localSize beyond the native
    /// width (barrier cost, register pressure — the shallow right side of
    /// the Fig. 5a U-curves).
    pub oversize_penalty_per_doubling: f64,
    /// Partition oversubscription needed to reach peak throughput (Fig. 5b
    /// saturation).
    pub oversubscription: u32,
}

/// The paper's CPU platform: 2× Xeon E5-2670 v3 (24 cores, AVX2 8-wide,
/// 2.3 GHz).
pub const CPU: DeviceProfile = DeviceProfile {
    name: "2x Intel Xeon E5-2670 v3 (OpenCL accelerator)",
    kind: DeviceKind::Cpu,
    native_width: 8,
    parallel_partitions: 24,
    freq_hz: 2.3e9,
    costs: OpCosts {
        mt_logic: 25.0,
        state_big: 10.0,
        state_small: 15.0,
        bray: 853.0,
        icdf_cuda: 238.0,
        icdf_fpga: 1428.0,
        gamma: 80.0,
        correct: 60.0,
    },
    group_overhead_cycles: 4000.0,
    latency_hiding_partitions: 1,
    latency_exposure_penalty: 1.0,
    oversize_penalty_per_doubling: 0.06,
    oversubscription: 2,
};

/// The paper's GPU platform: Nvidia Tesla K80, one GK210 (13 SMX, 32-wide
/// warps, 78 resident warp slots at full issue, 562 MHz).
pub const GPU: DeviceProfile = DeviceProfile {
    name: "Nvidia Tesla K80 (GK210)",
    kind: DeviceKind::Gpu,
    native_width: 32,
    parallel_partitions: 78,
    freq_hz: 0.562e9,
    costs: OpCosts {
        mt_logic: 12.0,
        state_big: 280.0,
        state_small: 8.0,
        bray: 385.0,
        icdf_cuda: 500.0,
        icdf_fpga: 500.0,
        gamma: 120.0,
        correct: 100.0,
    },
    group_overhead_cycles: 1200.0,
    latency_hiding_partitions: 2,
    latency_exposure_penalty: 1.3,
    oversize_penalty_per_doubling: 0.04,
    oversubscription: 4,
};

/// The paper's MIC platform: Intel Xeon Phi 7120P (61 cores, 512-bit SIMD =
/// 16 float lanes, ~2 issue threads per core, 1.238 GHz).
pub const PHI: DeviceProfile = DeviceProfile {
    name: "Intel Xeon Phi 7120P",
    kind: DeviceKind::Phi,
    native_width: 16,
    parallel_partitions: 120,
    freq_hz: 1.238e9,
    costs: OpCosts {
        mt_logic: 20.0,
        state_big: 100.0,
        state_small: 5.0,
        bray: 561.0,
        icdf_cuda: 976.0,
        icdf_fpga: 6373.0,
        gamma: 150.0,
        correct: 120.0,
    },
    group_overhead_cycles: 3000.0,
    latency_hiding_partitions: 1,
    latency_exposure_penalty: 1.15,
    oversize_penalty_per_doubling: 0.05,
    oversubscription: 2,
};

/// One Table III cell: the algorithmic variant a platform runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCell {
    /// Uniform→normal transform: 0 = Marsaglia-Bray, 1 = ICDF CUDA-style,
    /// 2 = ICDF FPGA-style (kept as a plain enum-free code so this crate
    /// stays independent of `dwi-rng`; `dwi-core` maps its `NormalMethod`).
    pub transform: Transform,
    /// True for the 624-word MT19937, false for the 17-word MT521.
    pub big_state: bool,
    /// Measured rejection probability per attempt of the full nested chain
    /// (≈ 0.233 for the Marsaglia-Bray chain at v = 1.39, ≈ 0.023 for the
    /// exact ICDF chain).
    pub reject_prob: f64,
}

/// Transform variant of a kernel cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transform {
    /// Marsaglia-Bray polar method (2 input uniforms → 4 MT draws/iter).
    MarsagliaBray,
    /// Giles-erfinv ICDF (1 input uniform → 3 MT draws/iter).
    IcdfCuda,
    /// Bit-level ICDF as integer chains (1 input uniform → 3 MT draws/iter).
    IcdfFpga,
}

impl DeviceProfile {
    /// Cycles per lockstep partition iteration for a kernel cell.
    pub fn iteration_cost(&self, cell: &KernelCell) -> f64 {
        let c = &self.costs;
        let (draws, transform) = match cell.transform {
            Transform::MarsagliaBray => (4.0, c.bray),
            Transform::IcdfCuda => (3.0, c.icdf_cuda),
            Transform::IcdfFpga => (3.0, c.icdf_fpga),
        };
        let state = if cell.big_state {
            c.state_big
        } else {
            c.state_small
        };
        draws * (c.mt_logic + state) + transform + c.gamma + c.correct
    }

    /// Peak partition throughput (partitions·Hz) once saturated.
    fn peak_partition_rate(&self) -> f64 {
        self.parallel_partitions as f64 * self.freq_hz
    }

    /// End-to-end kernel runtime (seconds) to generate `total_outputs`
    /// gamma RNs with the given NDRange.
    ///
    /// This is the model behind Table III (at the optimal localSize and
    /// globalSize = 65536) and both Fig. 5 sweeps.
    pub fn kernel_runtime_s(
        &self,
        cell: &KernelCell,
        total_outputs: u64,
        global_size: u64,
        local_size: u64,
    ) -> f64 {
        assert!(global_size >= local_size && local_size >= 1);
        assert!(total_outputs > 0);
        // Active lanes per partition: underfilled groups waste lanes.
        let w_active = local_size.min(self.native_width as u64) as u32;
        // Partitions in flight: one per `w_active` work-items.
        let partitions = global_size.div_ceil(w_active as u64);
        let d = divergence_factor(cell.reject_prob, w_active);
        let c = self.iteration_cost(cell);
        // Total lockstep partition-iterations to produce everything.
        let outputs_per_wi = total_outputs as f64 / global_size as f64;
        let total_iters = partitions as f64 * outputs_per_wi * d;
        // Latency exposure: too few partitions per group to hide latency.
        let parts_per_group = local_size.div_ceil(self.native_width as u64) as u32;
        let latency = if parts_per_group < self.latency_hiding_partitions {
            self.latency_exposure_penalty
        } else {
            1.0
        };
        // Oversized groups: barriers / register pressure.
        let oversize = if local_size > self.native_width as u64 {
            let doublings = (local_size as f64 / self.native_width as f64).log2();
            1.0 + self.oversize_penalty_per_doubling * doublings
        } else {
            1.0
        };
        // Device saturation (Fig. 5b): need `oversubscription` partitions
        // per slot to reach the peak rate.
        let slots = (self.parallel_partitions as u64 * self.oversubscription as u64) as f64;
        let utilization = (partitions as f64 / slots).min(1.0);
        let rate = self.peak_partition_rate() * utilization;
        let groups = global_size.div_ceil(local_size) as f64;
        let group_overhead =
            groups * self.group_overhead_cycles / (self.parallel_partitions as f64 * self.freq_hz);
        total_iters * c * latency * oversize / rate + group_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's workload: 2,621,440 scenarios × 240 sectors.
    const N: u64 = 2_621_440 * 240;
    const GLOBAL: u64 = 65_536;

    /// Our measured chain rejection probabilities (see dwi-rng kernel tests).
    const Q_BRAY: f64 = 0.2334;
    const Q_ICDF: f64 = 0.0227;

    fn cell(t: Transform, big: bool) -> KernelCell {
        KernelCell {
            transform: t,
            big_state: big,
            reject_prob: match t {
                Transform::MarsagliaBray => Q_BRAY,
                _ => Q_ICDF,
            },
        }
    }

    fn t_ms(dev: &DeviceProfile, c: &KernelCell) -> f64 {
        let local = match dev.kind {
            DeviceKind::Cpu => 8,
            DeviceKind::Gpu => 64,
            DeviceKind::Phi => 16,
        };
        dev.kernel_runtime_s(c, N, GLOBAL, local) * 1e3
    }

    #[test]
    fn table3_cpu_column() {
        let paper = [
            (cell(Transform::MarsagliaBray, true), 3825.0),
            (cell(Transform::MarsagliaBray, false), 3883.0),
            (cell(Transform::IcdfCuda, true), 807.0),
            (cell(Transform::IcdfCuda, false), 839.0),
            (cell(Transform::IcdfFpga, true), 2794.0),
            (cell(Transform::IcdfFpga, false), 2776.0),
        ];
        for (c, want) in paper {
            let got = t_ms(&CPU, &c);
            assert!(
                (got - want).abs() / want < 0.15,
                "CPU {c:?}: {got:.0} ms vs paper {want} ms"
            );
        }
    }

    #[test]
    fn table3_gpu_column() {
        let paper = [
            (cell(Transform::MarsagliaBray, true), 2479.0),
            (cell(Transform::MarsagliaBray, false), 1011.0),
            (cell(Transform::IcdfCuda, true), 1177.0),
            (cell(Transform::IcdfCuda, false), 522.0),
            (cell(Transform::IcdfFpga, true), 1181.0),
            (cell(Transform::IcdfFpga, false), 521.0),
        ];
        for (c, want) in paper {
            let got = t_ms(&GPU, &c);
            assert!(
                (got - want).abs() / want < 0.15,
                "GPU {c:?}: {got:.0} ms vs paper {want} ms"
            );
        }
    }

    #[test]
    fn table3_phi_column() {
        let paper = [
            (cell(Transform::MarsagliaBray, true), 996.0),
            (cell(Transform::MarsagliaBray, false), 696.0),
            (cell(Transform::IcdfCuda, true), 555.0),
            (cell(Transform::IcdfCuda, false), 460.0),
            (cell(Transform::IcdfFpga, true), 2435.0),
            (cell(Transform::IcdfFpga, false), 2294.0),
        ];
        for (c, want) in paper {
            let got = t_ms(&PHI, &c);
            assert!(
                (got - want).abs() / want < 0.15,
                "PHI {c:?}: {got:.0} ms vs paper {want} ms"
            );
        }
    }

    /// The Fig. 5a-optimal localSize of `dev`, found by sweeping the model
    /// over powers of two.
    fn optimal_local_size(dev: &DeviceProfile, cell: &KernelCell, total: u64, global: u64) -> u64 {
        let mut best = (f64::INFINITY, 1u64);
        let mut l = 1u64;
        while l <= 512 {
            let t = dev.kernel_runtime_s(cell, total, global, l);
            if t < best.0 {
                best = (t, l);
            }
            l *= 2;
        }
        best.1
    }

    #[test]
    fn optimal_local_sizes_match_fig5a() {
        // Fig. 5a: localSize_CPU = 8, localSize_GPU = 64, localSize_PHI = 16.
        let c1 = cell(Transform::MarsagliaBray, true);
        assert_eq!(optimal_local_size(&CPU, &c1, N, GLOBAL), 8);
        assert_eq!(optimal_local_size(&GPU, &c1, N, GLOBAL), 64);
        assert_eq!(optimal_local_size(&PHI, &c1, N, GLOBAL), 16);
        // The optima are properties of the architecture, not the transform.
        let c3 = cell(Transform::IcdfCuda, true);
        assert_eq!(optimal_local_size(&CPU, &c3, N, GLOBAL), 8);
        assert_eq!(optimal_local_size(&GPU, &c3, N, GLOBAL), 64);
        assert_eq!(optimal_local_size(&PHI, &c3, N, GLOBAL), 16);
    }

    #[test]
    fn runtime_decreases_then_flattens_with_global_size() {
        // Fig. 5b: globalSize 65536 sits on the flat part of the curve.
        let c = cell(Transform::MarsagliaBray, true);
        for dev in [CPU, GPU, PHI] {
            let local = match dev.kind {
                DeviceKind::Cpu => 8,
                DeviceKind::Gpu => 64,
                DeviceKind::Phi => 16,
            };
            // 128 work-items starve every platform (CPU saturates earliest,
            // at 24 cores × 8 lanes × oversubscription 2 = 384).
            let t_small = dev.kernel_runtime_s(&c, N, 128, local.min(128));
            let t_mid = dev.kernel_runtime_s(&c, N, 16_384, local);
            let t_paper = dev.kernel_runtime_s(&c, N, 65_536, local);
            let t_large = dev.kernel_runtime_s(&c, N, 262_144, local);
            assert!(t_small > t_mid, "{}: small global must be slower", dev.name);
            assert!(t_mid >= t_paper * 0.999, "{}", dev.name);
            // Beyond 65536 the curve is flat within a few percent.
            assert!(
                (t_large - t_paper).abs() / t_paper < 0.05,
                "{}: not flat beyond 65536",
                dev.name
            );
        }
    }

    #[test]
    fn underfilled_partitions_waste_lanes() {
        let c = cell(Transform::MarsagliaBray, true);
        // localSize 1 on the GPU wastes 31 of 32 lanes → ~32× slower than 64.
        let t1 = GPU.kernel_runtime_s(&c, N, GLOBAL, 1);
        let t64 = GPU.kernel_runtime_s(&c, N, GLOBAL, 64);
        let ratio = t1 / t64;
        assert!(
            (10.0..60.0).contains(&ratio),
            "underfill penalty {ratio} out of range"
        );
    }

    #[test]
    fn iteration_cost_orderings() {
        // FPGA-style ICDF must be the slow path on CPU and PHI but not GPU.
        let fp = cell(Transform::IcdfFpga, true);
        let cu = cell(Transform::IcdfCuda, true);
        assert!(CPU.iteration_cost(&fp) > 2.0 * CPU.iteration_cost(&cu));
        assert!(PHI.iteration_cost(&fp) > 3.0 * PHI.iteration_cost(&cu));
        let g_ratio = GPU.iteration_cost(&fp) / GPU.iteration_cost(&cu);
        assert!((0.95..1.05).contains(&g_ratio), "GPU ICDF ratio {g_ratio}");
        // Big MT states hurt GPU/PHI far more than CPU.
        let big = cell(Transform::MarsagliaBray, true);
        let small = cell(Transform::MarsagliaBray, false);
        let gpu_gap = GPU.iteration_cost(&big) / GPU.iteration_cost(&small);
        let cpu_gap = CPU.iteration_cost(&big) / CPU.iteration_cost(&small);
        assert!(gpu_gap > 2.0, "GPU big-state gap {gpu_gap}");
        assert!((0.9..1.1).contains(&cpu_gap), "CPU big-state gap {cpu_gap}");
    }
}
