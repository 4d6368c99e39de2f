//! Fig. 2 rendered from *real* kernel traces: (a) a rejection-free kernel
//! keeps every lane busy; (b) the divergent gamma kernel idles lanes on a
//! fixed architecture; (c) decoupled work-items never idle.

use dwi_bench::obs::ObsArgs;
use dwi_ocl::masked::{listing2_blocks, run_masked, LaneMask};
use dwi_ocl::simt::run_lockstep;
use dwi_rng::{GammaKernel, KernelConfig, NormalMethod};

/// Record per-iteration predicate masks (n0_valid, gRN_ok) for W lanes.
fn record_masks(w: usize, iters: usize, normal: NormalMethod) -> Vec<Vec<LaneMask>> {
    let mut kernels: Vec<GammaKernel> = (0..w)
        .map(|wid| {
            GammaKernel::new(
                &KernelConfig {
                    normal,
                    limit_main: u32::MAX,
                    limit_sec: 1,
                    ..KernelConfig::default()
                },
                wid as u32,
            )
        })
        .collect();
    (0..iters)
        .map(|_| {
            kernels
                .iter_mut()
                .map(|k| {
                    let (_, t) = k.step();
                    vec![t.n0_valid, t.accepted]
                })
                .collect()
        })
        .collect()
}

/// Render a lane-occupancy strip: rows = lanes, columns = iterations,
/// '#' = lane produced its output this round, '.' = idle retry slot.
fn render_rounds(traces: &[Vec<u32>], rounds: usize) -> String {
    let mut rows = vec![String::new(); traces.len()];
    for j in 0..rounds {
        let round_max = traces.iter().map(|t| t[j]).max().unwrap();
        for (lane, t) in traces.iter().enumerate() {
            for k in 0..round_max {
                rows[lane].push(if k < t[j] {
                    if k + 1 == t[j] {
                        '#'
                    } else {
                        'o'
                    }
                } else {
                    '.'
                });
            }
            rows[lane].push(' ');
        }
    }
    rows.iter()
        .enumerate()
        .map(|(i, r)| format!("lane{i}: {r}\n"))
        .collect()
}

fn main() {
    let w = 4;

    println!("Fig. 2(b) — divergent work-items on a lockstep architecture");
    println!("(o = retry, # = accept, . = idle waiting for slower lanes)\n");
    let mut kernels: Vec<GammaKernel> = (0..w)
        .map(|wid| {
            GammaKernel::new(
                &KernelConfig {
                    limit_main: u32::MAX,
                    limit_sec: 1,
                    ..KernelConfig::default()
                },
                wid as u32,
            )
        })
        .collect();
    let traces: Vec<Vec<u32>> = kernels
        .iter_mut()
        .map(|k| {
            let mut t = Vec::new();
            let mut attempts = 0;
            while t.len() < 12 {
                attempts += 1;
                if k.step().0.is_some() {
                    t.push(attempts);
                    attempts = 0;
                }
            }
            t
        })
        .collect();
    print!("{}", render_rounds(&traces, 12));
    let r = run_lockstep(&traces);
    println!(
        "\nlockstep: {:.2} iterations/output, {:.0}% lane-cycles idle",
        r.cost_per_output(),
        100.0 * r.idle_fraction()
    );
    println!(
        "decoupled (Fig. 2c): {:.2} iterations/output, 0% idle\n",
        r.decoupled_cost_per_output()
    );

    println!("within-iteration predication (Listing 2's gated blocks):");
    for (label, normal) in [
        ("Marsaglia-Bray chain", NormalMethod::MarsagliaBray),
        ("ICDF chain", NormalMethod::IcdfCuda),
    ] {
        let masks = record_masks(16, 4000, normal);
        let m = run_masked(&listing2_blocks(), &masks);
        println!(
            "  {label}: issue utilization {:.1}% (red-dot fraction {:.1}%)",
            100.0 * m.utilization(),
            100.0 * m.idle_fraction()
        );
        for (spec, (issues, frac)) in listing2_blocks().iter().zip(&m.block_stats) {
            println!(
                "    {:<18} issued {:>4}x, mean active lanes {:>5.1}%",
                spec.name,
                issues,
                100.0 * frac
            );
        }
    }

    // --trace / --metrics: run the functional decoupled engine traced and
    // export the Fig. 2(c) behaviour as a real timeline — every work-item's
    // compute and transfer process on its own track, no lockstep idling.
    let obs = ObsArgs::from_env();
    if obs.enabled() {
        use dwi_core::{
            Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, Workload,
        };
        let rec = dwi_trace::Recorder::new();
        let cfg = PaperConfig::config1();
        let workload = Workload {
            num_scenarios: 24_576,
            num_sectors: 2,
            sector_variance: 1.39,
        };
        FunctionalDecoupled.execute(
            &GammaListing2::for_config(&cfg, &workload, 2),
            &ExecutionPlan::for_config(&cfg).trace(rec.sink()),
        );
        obs.write(&rec);
    }
}
