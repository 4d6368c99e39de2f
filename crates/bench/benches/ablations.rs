//! Ablation benchmarks on real code paths: the cost of the design choices
//! DESIGN.md calls out, measured in software (the *modeled hardware* effect
//! of each choice is printed by `cargo run -p dwi-bench --bin ablations`).

use dwi_bench::microbench::{black_box, Bench};
use dwi_core::{
    Backend, Combining, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, Workload,
};
use dwi_hls::pipeline::DelayedCounter;
use dwi_hls::wide::Packer;
use dwi_rng::{AdaptedMt, BlockMt, MT19937};

/// Listing 3 ablation: the enable-gated adapted MT vs the block MT.
fn bench_mt_enable(b: &mut Bench) {
    let mut mt = AdaptedMt::new(MT19937, 1);
    let mut lcg = 1u64;
    b.bench("ablation_mt_enable/adapted_gated_75pct", || {
        let mut acc = 0u32;
        for _ in 0..50_000 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc ^= mt.next(lcg >> 62 != 0);
        }
        black_box(acc)
    });
    let mut mt = BlockMt::new(MT19937, 1);
    b.bench("ablation_mt_enable/block_ungated", || {
        let mut acc = 0u32;
        for _ in 0..50_000 {
            acc ^= mt.next_u32();
        }
        black_box(acc)
    });
}

/// Listing 2 ablation: delayed-counter bookkeeping vs a plain counter.
fn bench_delayed_counter(b: &mut Bench) {
    for delay in [1usize, 4] {
        b.bench(&format!("ablation_delayed_counter/delayed/{delay}"), || {
            let mut dc = DelayedCounter::new(delay);
            while dc.delayed() < 100_000 {
                dc.update(true);
            }
            black_box(dc.current())
        });
    }
    b.bench("ablation_delayed_counter/plain_counter", || {
        let mut c = 0u64;
        while black_box(c) < 100_000 {
            c += 1;
        }
        black_box(c)
    });
}

/// Section III-D ablation: 512-bit packing vs per-value copies.
fn bench_pack_width(b: &mut Bench) {
    let data: Vec<f32> = (0..65_536).map(|i| i as f32).collect();
    b.bench("ablation_pack_width/packed_512bit_words", || {
        let mut p = Packer::new();
        let mut words = 0u64;
        for &v in &data {
            if p.push(v).is_some() {
                words += 1;
            }
        }
        black_box(words)
    });
    b.bench("ablation_pack_width/scalar_copy", || {
        let mut out = Vec::with_capacity(data.len());
        for &v in &data {
            out.push(v);
        }
        black_box(out.len())
    });
}

/// Section III-E ablation: buffer-combining strategies, full engine.
fn bench_combining(b: &mut Bench) {
    let w = Workload {
        num_scenarios: 12_288,
        num_sectors: 1,
        sector_variance: 1.39,
    };
    let cfg = PaperConfig::config3();
    let kernel = GammaListing2::for_config(&cfg, &w, 1);
    let plan = ExecutionPlan::for_config(&cfg);
    b.bench("ablation_buffer_combining/device_level", || {
        black_box(FunctionalDecoupled.execute(&kernel, &plan).cycles)
    });
    let host_plan = plan.clone().combining(Combining::HostLevel);
    b.bench("ablation_buffer_combining/host_level", || {
        black_box(FunctionalDecoupled.execute(&kernel, &host_plan).cycles)
    });
}

fn main() {
    let mut b = Bench::from_args("ablations");
    bench_mt_enable(&mut b);
    bench_delayed_counter(&mut b);
    bench_pack_width(&mut b);
    bench_combining(&mut b);
}
