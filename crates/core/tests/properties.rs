//! Randomized case-sweep tests for the decoupled-work-items core
//! (deterministic `dwi-testkit` generator).

use dwi_core::kernel::reference_samples;
use dwi_core::transfer::transfer;
use dwi_core::{
    Backend, BackendDetail, Combining, ExecutionPlan, FunctionalDecoupled, GammaListing2,
    PaperConfig, RunReport, TruncatedNormalKernel, Workload,
};
use dwi_hls::stream::Stream;
use dwi_hls::wide::{unpack_words, Wide512};
use dwi_testkit::cases;

#[test]
fn transfer_round_trips_any_stream() {
    cases(24, |r| {
        let len = r.usize_range(1, 800);
        let data = r.vec_f32(len, -1e9, 1e9);
        let burst_words = r.usize_range(1, 8);
        let words_needed = data.len().div_ceil(16);
        let (tx, rx) = Stream::with_depth(32);
        let mut region = vec![Wide512::zero(); words_needed];
        let sent = data.clone();
        let producer = std::thread::spawn(move || {
            for v in sent {
                tx.write(v);
            }
        });
        let stats = transfer(&rx, &mut region, burst_words);
        producer.join().unwrap();
        assert_eq!(stats.rns, data.len() as u64);
        assert_eq!(stats.words, words_needed as u64);
        let mut out = Vec::new();
        unpack_words(&region, &mut out);
        assert_eq!(&out[..data.len()], &data[..]);
    });
}

fn host_buffer(run: &RunReport) -> &[f32] {
    let BackendDetail::Decoupled { host_buffer, .. } = &run.detail else {
        unreachable!("FunctionalDecoupled reports Decoupled detail")
    };
    host_buffer
}

#[test]
fn decoupled_quota_always_met() {
    cases(24, |r| {
        let scenarios = r.u64_range(64, 2048);
        let sectors = r.u32_range(1, 4);
        let seed = r.next_u64();
        let cfg = PaperConfig::config2(); // small MT: fastest
        let w = Workload {
            num_scenarios: scenarios,
            num_sectors: sectors,
            sector_variance: 1.39,
        };
        let kernel = GammaListing2::for_config(&cfg, &w, seed);
        let run = FunctionalDecoupled.execute(&kernel, &ExecutionPlan::for_config(&cfg));
        let quota = w.scenarios_per_workitem(cfg.fpga_workitems) as u64 * sectors as u64;
        assert_eq!(run.quota, quota);
        assert!(run.complete());
        assert!(run.iterations.iter().all(|&i| i >= quota));
        assert!(host_buffer(&run).iter().all(|x| x.is_finite() && *x >= 0.0));
    });
}

#[test]
fn combining_equivalence_any_workload() {
    cases(24, |r| {
        let scenarios = r.u64_range(64, 1024);
        let seed = r.next_u64();
        let cfg = PaperConfig::config4();
        let w = Workload {
            num_scenarios: scenarios,
            num_sectors: 1,
            sector_variance: 1.39,
        };
        let kernel = GammaListing2::for_config(&cfg, &w, seed);
        let plan = ExecutionPlan::for_config(&cfg);
        let a = FunctionalDecoupled.execute(&kernel, &plan);
        let b = FunctionalDecoupled.execute(&kernel, &plan.combining(Combining::HostLevel));
        assert_eq!(host_buffer(&a), host_buffer(&b));
    });
}

#[test]
fn truncated_normal_never_violates_bound() {
    cases(24, |r| {
        let a = r.f32_range(0.0, 3.0);
        let seed = r.next_u32();
        let samples = reference_samples(&TruncatedNormalKernel::new(a, 500, seed), 0);
        let min = samples.iter().copied().fold(f32::INFINITY, f32::min);
        assert!(min >= a, "sample {min} below the truncation point {a}");
    });
}
