//! Golden bits: FNV-1a digests of the exact samples the kernels emit.
//!
//! Backend equivalence, shard determinism and the benchmark oracles all
//! compare one execution of this build against another execution of the
//! same build, so a change that moves every value consistently (a
//! reordered generator, a different rounding) would pass them all. These
//! constants pin the emitted bit patterns themselves. A change that is
//! meant to keep the output identical must pass this file unchanged; one
//! that is meant to change the output must say so and record new values.

use std::sync::Arc;

use dwi_core::graph::GraphPlan;
use dwi_core::kernel::reference_samples;
use dwi_core::{
    credit_pipeline, Backend, Digest, ExecutionPlan, FunctionalDecoupled, GammaListing2,
    GraphReport, KernelGraph, PaperConfig, SeverityExpMix, SeverityScale, TruncatedNormalKernel,
    WindowAggregate, Workload,
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

/// The serving path's CreditRisk+ graph: severity mixture → window-8
/// aggregate → severity scale, one seed for source and scale.
fn serve_credit(quota: u64) -> KernelGraph {
    KernelGraph::pipeline(
        "serve-credit",
        Arc::new(SeverityExpMix::credit_severity(quota, 0x00C4_ED17)),
    )
    .then(Arc::new(WindowAggregate::new(8)))
    .then(Arc::new(SeverityScale::credit(0x00C4_ED17)))
}

/// Everything a graph report accounts besides the samples: each edge's
/// ledger, the dataflow model and the modeled cycles.
fn accounting(r: &GraphReport) -> u64 {
    let mut d = Digest::new().usize(r.edges.len());
    for e in &r.edges {
        d = [e.pushed, e.pulled, e.residue, e.dropped]
            .into_iter()
            .chain([e.write_stalls, e.read_stalls])
            .fold(d.usize(e.depth), Digest::u64)
            .usize(e.high_water);
    }
    let df = r.dataflow.as_ref().expect("multi-stage report");
    d = d.u64(df.cycles);
    for v in [
        &df.stage_ii,
        &df.stage_firings,
        &df.stage_stalls,
        &df.edge_tokens,
    ] {
        d = v.iter().fold(d.usize(v.len()), |d, &x| d.u64(x));
    }
    d = df
        .edge_high_water
        .iter()
        .fold(d.usize(df.edge_high_water.len()), |d, &x| d.usize(x));
    d.u64(r.cycles).finish()
}

#[test]
fn creditrisk_graph_accounting() {
    // Quotas 256/512/1024 are the HTTP benchmark's; 1001 leaves a window
    // remainder on the first edge. Three work-items, so the edge
    // high-water is a maximum over chains.
    const QUOTAS: [u64; 4] = [256, 512, 1024, 1001];
    const DEPTHS: [usize; 5] = [1, 2, 8, 16, 64];
    const GOLDEN: [[u64; 5]; 4] = [
        [
            0x1607_e627_6c5d_6ebc,
            0x585b_6ea5_949c_8957,
            0xb04a_406d_156c_1fc7,
            0x502c_a95b_8beb_cfd7,
            0x5bbd_5f66_cdfb_dfd7,
        ],
        [
            0x4b20_de46_f29f_b21b,
            0x2b65_ea42_4d07_9b07,
            0xdca4_6eb7_e421_8517,
            0x7f54_1df5_fd41_2c97,
            0x6a6c_be94_8f6a_9cb7,
        ],
        [
            0xf7e9_874e_0f6b_e12b,
            0xbdf2_c24e_9923_2189,
            0x8bd5_fdff_4294_e1ed,
            0x0c25_85eb_6b44_ca7d,
            0x842b_9f4c_d806_0c9d,
        ],
        [
            0x182d_1597_4cba_e04d,
            0x9d4b_3834_c89f_c436,
            0xf04a_7d99_e7a4_4ae2,
            0xd70b_4494_37f9_1402,
            0x695d_7f02_0942_98c2,
        ],
    ];
    const GOLDEN_AUTO: [usize; 4] = [16; 4];
    // The auto pick is depth 16, so the merge must equal the monolithic
    // depth-16 column above.
    const GOLDEN_MERGED: [u64; 4] = [
        0x502c_a95b_8beb_cfd7,
        0x7f54_1df5_fd41_2c97,
        0x0c25_85eb_6b44_ca7d,
        0xd70b_4494_37f9_1402,
    ];
    let plan = GraphPlan::new(ExecutionPlan::new(3));
    let mut got = [[0u64; 5]; 4];
    let mut auto = [0usize; 4];
    let mut merged = [0u64; 4];
    for (qi, &quota) in QUOTAS.iter().enumerate() {
        let graph = serve_credit(quota);
        for (di, &depth) in DEPTHS.iter().enumerate() {
            let r = FunctionalDecoupled.run(&graph, &plan.clone().edge_depth(depth));
            got[qi][di] = accounting(&r);
        }
        let picked = plan.clone().auto_edge_depth(&graph);
        auto[qi] = picked.depth();
        let shards = picked
            .split(3)
            .iter()
            .map(|p| FunctionalDecoupled.run(&graph, p))
            .collect();
        merged[qi] = accounting(&GraphReport::merge(&graph, &picked, shards));
    }
    assert_eq!(auto, GOLDEN_AUTO, "auto_edge_depth picks moved");
    assert_eq!(
        got.map(|r| r.map(hex)),
        GOLDEN.map(|r| r.map(hex)),
        "graph accounting moved"
    );
    assert_eq!(
        merged.map(hex),
        GOLDEN_MERGED.map(hex),
        "3-shard merged graph accounting moved"
    );
}
