//! Component throughput: Mersenne-Twisters, normal transforms, the nested
//! gamma kernel. These are real-code benchmarks (the simulated-time numbers
//! live in the table/figure binaries).

use dwi_bench::microbench::{black_box, Bench};
use dwi_core::{GammaListing2, PaperConfig, WorkItemKernel, Workload};
use dwi_rng::transforms::NormalTransform;
use dwi_rng::{
    AdaptedMt, BlockMt, GammaKernel, IcdfCuda, IcdfFpga, KernelConfig, MarsagliaBray, NormalMethod,
    MT19937, MT521,
};

const N: u64 = 100_000;

fn bench_mt(b: &mut Bench) {
    let mut mt = BlockMt::new(MT19937, 1);
    b.bench_elements("mersenne_twister/block_mt19937", N, || {
        let mut acc = 0u32;
        for _ in 0..N {
            acc ^= mt.next_u32();
        }
        black_box(acc)
    });
    let mut mt = BlockMt::new(MT521, 1);
    b.bench_elements("mersenne_twister/block_mt521", N, || {
        let mut acc = 0u32;
        for _ in 0..N {
            acc ^= mt.next_u32();
        }
        black_box(acc)
    });
    let mut mt = AdaptedMt::new(MT19937, 1);
    b.bench_elements("mersenne_twister/adapted_mt19937_enabled", N, || {
        let mut acc = 0u32;
        for _ in 0..N {
            acc ^= mt.next(true);
        }
        black_box(acc)
    });
}

fn bench_transforms(b: &mut Bench) {
    let mut mt = BlockMt::new(MT19937, 2);
    let mut t = MarsagliaBray::new();
    b.bench_elements("normal_transforms/marsaglia_bray", N, || {
        let mut acc = 0.0f32;
        for _ in 0..N {
            let (n, ok) = t.attempt(mt.next_u32(), mt.next_u32());
            if ok {
                acc += n;
            }
        }
        black_box(acc)
    });
    let mut mt = BlockMt::new(MT19937, 2);
    let mut t = IcdfCuda::new();
    b.bench_elements("normal_transforms/icdf_cuda", N, || {
        let mut acc = 0.0f32;
        for _ in 0..N {
            let (n, ok) = t.attempt(mt.next_u32(), 0);
            if ok {
                acc += n;
            }
        }
        black_box(acc)
    });
    let mut mt = BlockMt::new(MT19937, 2);
    let mut t = IcdfFpga::new();
    b.bench_elements("normal_transforms/icdf_fpga_bitlevel", N, || {
        let mut acc = 0.0f32;
        for _ in 0..N {
            let (n, ok) = t.attempt(mt.next_u32(), 0);
            if ok {
                acc += n;
            }
        }
        black_box(acc)
    });
}

fn bench_kernel(b: &mut Bench) {
    let outputs = 50_000u32;
    for (name, normal) in [
        (
            "gamma_kernel/config1_mbray_mt19937",
            NormalMethod::MarsagliaBray,
        ),
        ("gamma_kernel/config3_icdf_mt19937", NormalMethod::IcdfFpga),
    ] {
        b.bench_elements(name, outputs as u64, || {
            let cfg = KernelConfig {
                normal,
                limit_main: outputs,
                limit_sec: 1,
                ..KernelConfig::default()
            };
            let mut k = GammaKernel::new(&cfg, 0);
            let mut out = Vec::with_capacity(outputs as usize);
            k.run_all(&mut out);
            black_box(out.len())
        });
    }
}

/// One Config3 work-item from kernel construction to its last step, at the
/// FPGA geometry of the `paper-gamma` workload (12,288 samples): unlike
/// `gamma_kernel/*`, the per-work-item set-up is inside the timed region.
fn bench_workitem(b: &mut Bench) {
    let cfg = PaperConfig::config3();
    let workload = Workload {
        num_scenarios: 49_152,
        num_sectors: 2,
        sector_variance: Workload::paper().sector_variance,
    };
    let outputs = GammaListing2::for_config(&cfg, &workload, 1).outputs_per_workitem();
    b.bench_elements("gamma_listing2/config3_workitem", outputs, || {
        let mut item = GammaListing2::for_config(&cfg, &workload, 1).instantiate(0);
        let mut emitted = 0u64;
        loop {
            let step = item.step();
            emitted += step.emit.is_some() as u64;
            if step.done {
                break black_box(emitted);
            }
        }
    });
}

fn main() {
    let mut b = Bench::from_args("rng_throughput");
    bench_mt(&mut b);
    bench_transforms(&mut b);
    bench_kernel(&mut b);
    bench_workitem(&mut b);
}
