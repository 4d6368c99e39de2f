//! Golden bits: FNV-1a digests of the exact samples the kernels emit.
//!
//! Backend equivalence, shard determinism and the benchmark oracles all
//! compare one execution of this build against another execution of the
//! same build, so a change that moves every value consistently (a
//! reordered generator, a different rounding) would pass them all. These
//! constants pin the emitted bit patterns themselves. A change that is
//! meant to keep the output identical must pass this file unchanged; one
//! that is meant to change the output must say so and record new values.

use dwi_core::graph::GraphPlan;
use dwi_core::kernel::reference_samples;
use dwi_core::{
    credit_pipeline, Backend, Digest, ExecutionPlan, FunctionalDecoupled, GammaListing2,
    PaperConfig, TruncatedNormalKernel, Workload,
};
use dwi_rng::KernelConfig;

fn fold(d: Digest, samples: &[f32]) -> Digest {
    samples
        .iter()
        .fold(d.usize(samples.len()), |d, &x| d.f32(x))
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

#[test]
fn listing2_samples_for_configs_1_to_4() {
    // Shape α = 1/v: v = 1.39 takes the α ≤ 1 correction (the paper's
    // workload), v = 0.5 skips it. 2,560 scenarios over 6 or 8 work-items
    // run every MT19937 stream across at least one 624-word refill.
    const GOLDEN: [[u64; 2]; 4] = [
        [0x2819_0851_5a40_ac76, 0x82b8_5c25_9ebc_7932],
        [0x6dfc_59fb_a01a_e33f, 0x2291_72b8_c65d_0a6f],
        [0xf0c0_5e19_26bb_4c06, 0x7a13_52ac_8b8f_049e],
        [0x96af_9183_2ed7_ba52, 0x5271_aeae_aea3_61e6],
    ];
    let mut got = [[0u64; 2]; 4];
    for (ci, cfg) in PaperConfig::all().iter().enumerate() {
        for (vi, v) in [1.39f32, 0.5].into_iter().enumerate() {
            let workload = Workload {
                sector_variance: v,
                ..Workload::scaled(1024)
            };
            let kernel = GammaListing2::for_config(cfg, &workload, 0x6011_DE4B);
            let d = [0u32, 5].iter().fold(Digest::new(), |d, &wid| {
                fold(d.u32(wid), &reference_samples(&kernel, wid))
            });
            got[ci][vi] = d.finish();
        }
    }
    assert_eq!(
        got.map(|r| r.map(hex)),
        GOLDEN.map(|r| r.map(hex)),
        "Listing 2 output bits moved"
    );
}

#[test]
fn truncated_normal_samples() {
    const GOLDEN: u64 = 0x63e0_f9ff_a4a3_f8ad;
    let kernel = TruncatedNormalKernel::new(1.5, 2_000, 1_234);
    let d = [0u32, 5].iter().fold(Digest::new(), |d, &wid| {
        fold(d.u32(wid), &reference_samples(&kernel, wid))
    });
    assert_eq!(
        hex(d.finish()),
        hex(GOLDEN),
        "truncated-normal output bits moved"
    );
}

#[test]
fn creditrisk_pipeline_stage_samples() {
    // Gamma source → window aggregate → severity scale, one digest per
    // stage over every work-item's stream.
    const GOLDEN: [u64; 3] = [
        0x5284_20ed_3d05_b864,
        0x052f_b9d1_82ef_e1e5,
        0x6d91_f77c_569d_0113,
    ];
    let kcfg = KernelConfig {
        limit_main: 512,
        limit_sec: 2,
        seed: 7,
        ..KernelConfig::default()
    };
    let graph = credit_pipeline(kcfg, 8, 7);
    let report = FunctionalDecoupled.run(&graph, &GraphPlan::new(ExecutionPlan::new(4)));
    assert_eq!(report.stages.len(), 3);
    let got: Vec<String> = report
        .stages
        .iter()
        .map(|stage| {
            let d = stage
                .samples
                .iter()
                .fold(Digest::new(), |d, wi| fold(d, wi));
            hex(d.finish())
        })
        .collect();
    assert_eq!(
        got,
        GOLDEN.map(hex).to_vec(),
        "CreditRisk+ stage output bits moved"
    );
}
