//! The paper's engine on the unified layer: one compute thread + one
//! transfer thread per work-item, coupled by a blocking `hls::stream`.

use super::{Backend, BackendDetail, Combining, ExecutionPlan, RunReport};
use crate::device_memory::DeviceMemory;
use crate::graph::StageRun;
use crate::kernel::{DivergenceCounts, WorkItemKernel};
use crate::transfer::{transfer_traced, TransferEngine, TransferStats};
use dwi_hls::stream::Stream;
use dwi_rng::RejectionStats;
use dwi_trace::{Counter, ProcessKind, Track};

/// Listing 1, executed functionally: `plan.workitems` independent
/// compute/transfer pairs, each pair coupled by a bounded blocking FIFO,
/// each work-item bursting into its own region of device memory. No
/// work-item ever waits on another's data-dependent branches.
///
/// With a live [`ExecutionPlan::sink`] the run records one compute and
/// one transfer track per work-item (`wi{k}/compute`, `wi{k}/transfer`):
/// sector spans, rejection instants, burst spans, stream stalls and the
/// `dwi_*` metrics set.
///
/// Two schedulers, one result: with a live trace sink each pair runs as
/// real OS threads (so the Fig. 3 interleaving is observable on the
/// timeline); untraced runs use a cooperative scheduler on the calling
/// thread — the compute loop fills the bounded FIFO, the transfer engine
/// drains it on overflow — which produces bit-identical samples, host
/// buffer, transfer stats and cycle counts without any spawn/join or
/// context-switch cost. The cooperative path is what makes the
/// `dwi-runtime` dispatch hot path cheap.
///
/// A graph stage needs no run of its own: every field of a cooperative
/// report is a function of each work-item's emitted stream, step count,
/// divergence outcomes and final rejection statistics, which the graph's
/// pipe-connected pass records, so [`stage_report`](Backend::stage_report)
/// replays that record through the same FIFO, transfer engines, host
/// buffer and report as [`execute`](Backend::execute).
pub struct FunctionalDecoupled;

/// The compute side of a run: a kernel to step, or a graph stage's record
/// of the pipe-connected pass.
#[derive(Clone, Copy)]
enum Compute<'a> {
    Kernel(&'a dyn WorkItemKernel),
    Recorded(&'a StageRun),
}

impl Backend for FunctionalDecoupled {
    fn name(&self) -> &'static str {
        "functional-decoupled"
    }

    fn execute(&self, kernel: &dyn WorkItemKernel, plan: &ExecutionPlan) -> RunReport {
        let quota = kernel.outputs_per_workitem();
        self.run_pairs(kernel.name(), quota, plan, Compute::Kernel(kernel))
    }

    /// `None` for traced plans: their `wi{k}/compute` and `wi{k}/transfer`
    /// tracks come from a run.
    fn stage_report(&self, stage: &StageRun, plan: &ExecutionPlan) -> Option<RunReport> {
        let compute = Compute::Recorded(stage);
        (!plan.sink.is_enabled()).then(|| self.run_pairs(stage.kernel, stage.quota, plan, compute))
    }
}

impl FunctionalDecoupled {
    /// Run `plan.workitems` compute/transfer pairs and assemble the report.
    fn run_pairs(
        &self,
        kernel_name: &'static str,
        quota: u64,
        plan: &ExecutionPlan,
        compute: Compute,
    ) -> RunReport {
        let n = plan.workitems as usize;
        let words_per_wi = (quota as usize).div_ceil(16).max(1);
        let burst_words = ((plan.burst_rns as usize) / 16).max(1);

        let mut memory = DeviceMemory::new(n, words_per_wi);
        let mut rejection = RejectionStats::new();
        let mut iterations = vec![0u64; n];
        let mut divergence = vec![DivergenceCounts::default(); n];
        let mut emitted = vec![0u64; n];
        let mut transfers = vec![TransferStats::default(); n];
        let mut high_water = vec![0usize; n];
        let mut stalls = vec![(0u64, 0u64); n];

        if let (Compute::Kernel(kernel), true) = (compute, plan.sink.is_enabled()) {
            let regions = memory.split_regions();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(n);
                for (wid, region) in regions.into_iter().enumerate() {
                    let sink = &plan.sink;
                    // Global design-time id: sharding moves where a
                    // work-item runs, never which streams it draws.
                    let gwid = plan.wid_base + wid as u32;
                    let (mut tx, mut rx) =
                        Stream::<f32>::with_depth_reserving(plan.stream_depth, quota as usize);
                    tx.attach_track(sink.track(gwid, ProcessKind::Compute));
                    rx.attach_track(sink.track(gwid, ProcessKind::Transfer));
                    let compute = scope.spawn(move || {
                        let track = sink.track(gwid, ProcessKind::Compute);
                        let wid_label = gwid.to_string();
                        let c_rej = if track.is_enabled() {
                            track.counter("dwi_rejection_retries_total", &[("wid", &wid_label)])
                        } else {
                            Counter::disabled()
                        };
                        let mut inst = kernel.instantiate(gwid);
                        let mut iters = 0u64;
                        let mut emits = 0u64;
                        let mut div = DivergenceCounts::default();
                        let mut t0 = track.now_ns();
                        loop {
                            let st = inst.step();
                            iters += 1;
                            div.record(st.divergence);
                            if let Some(v) = st.emit {
                                tx.write(v);
                                emits += 1;
                            } else if !st.divergence.is_accepted() {
                                c_rej.inc();
                                track.instant("rejection");
                            }
                            if let Some(p) = st.phase_end {
                                track.span_since(format!("sector {p}"), t0);
                                track.observe(
                                    "dwi_sector_latency_seconds",
                                    &[("wid", &wid_label)],
                                    (track.now_ns() - t0) as f64 * 1e-9,
                                );
                                t0 = track.now_ns();
                            }
                            if st.done {
                                break;
                            }
                        }
                        track
                            .counter("dwi_workitem_iterations_total", &[("wid", &wid_label)])
                            .add(iters);
                        let stats = inst.stats();
                        drop(tx); // close the stream: transfer drains and exits
                        (iters, emits, div, stats)
                    });
                    let xfer = scope.spawn(move || {
                        let track = sink.track(gwid, ProcessKind::Transfer);
                        let stats = transfer_traced(&rx, region, burst_words, &track);
                        (stats, rx.high_water(), rx.stalls())
                    });
                    handles.push((wid, compute, xfer));
                }
                for (wid, compute, xfer) in handles {
                    let (iters, emits, div, stats) =
                        compute.join().expect("compute thread panicked");
                    let (tstats, hw, st) = xfer.join().expect("transfer thread panicked");
                    iterations[wid] = iters;
                    emitted[wid] = emits;
                    divergence[wid] = div;
                    rejection.merge(&stats);
                    transfers[wid] = tstats;
                    high_water[wid] = hw;
                    stalls[wid] = st;
                }
            });
        } else {
            // Cooperative fast path: no threads to observe, so run each
            // compute/transfer pair on this thread. The bounded FIFO is a
            // reusable scratch buffer: a write into a full buffer is one
            // recorded stall, upon which the transfer engine drains the
            // backlog — the deterministic analogue of back-pressure. A
            // recorded graph stage replays its emissions through the same
            // FIFO.
            let track = Track::disabled();
            let mut scratch: Vec<f32> = Vec::with_capacity(plan.stream_depth.min(quota as usize));
            let regions = memory.split_regions();
            for (wid, region) in regions.into_iter().enumerate() {
                let mut engine = TransferEngine::new(region, burst_words, &track);
                let mut emits = 0u64;
                let mut write_stalls = 0u64;
                let mut hw = 0usize;
                let mut emit = |v: f32| {
                    if scratch.len() == plan.stream_depth {
                        write_stalls += 1;
                        for &q in &scratch {
                            engine.push(q);
                        }
                        scratch.clear();
                    }
                    scratch.push(v);
                    hw = hw.max(scratch.len());
                    emits += 1;
                };
                match compute {
                    Compute::Kernel(kernel) => {
                        let mut inst = kernel.instantiate(plan.wid_base + wid as u32);
                        let mut iters = 0u64;
                        let mut div = DivergenceCounts::default();
                        loop {
                            let st = inst.step();
                            iters += 1;
                            div.record(st.divergence);
                            if let Some(v) = st.emit {
                                emit(v);
                            }
                            if st.done {
                                break;
                            }
                        }
                        iterations[wid] = iters;
                        divergence[wid] = div;
                        rejection.merge(&inst.stats());
                    }
                    Compute::Recorded(stage) => {
                        stage.samples[wid].iter().for_each(|&v| emit(v));
                        iterations[wid] = stage.iterations[wid];
                        divergence[wid] = stage.divergence[wid];
                        rejection.merge(&stage.stats[wid]);
                    }
                }
                for &q in &scratch {
                    engine.push(q);
                }
                scratch.clear();
                emitted[wid] = emits;
                transfers[wid] = engine.finish();
                high_water[wid] = hw;
                stalls[wid] = (write_stalls, 0);
            }
        }

        let host_track = plan.sink.track(plan.wid_base, ProcessKind::Host);
        let t_combine = host_track.now_ns();
        let host_buffer = match plan.combining {
            Combining::DeviceLevel => memory.read_to_host(),
            Combining::HostLevel => {
                let mut host = vec![0f32; memory.len_f32()];
                let region_len = words_per_wi * 16;
                for wid in 0..n {
                    let part = memory.read_region(wid);
                    host[wid * region_len..(wid + 1) * region_len].copy_from_slice(&part);
                }
                host
            }
        };
        host_track.span_since("combine", t_combine);
        drop(host_track);

        let region_f32 = words_per_wi * 16;
        let samples: Vec<Vec<f32>> = (0..n)
            .map(|wid| {
                let base = wid * region_f32;
                host_buffer[base..base + emitted[wid] as usize].to_vec()
            })
            .collect();
        let cycles = iterations.iter().copied().max().unwrap_or(0);

        RunReport {
            backend: self.name(),
            kernel: kernel_name,
            workitems: plan.workitems,
            wid_base: plan.wid_base,
            quota,
            samples,
            iterations,
            divergence,
            rejection,
            cycles,
            detail: BackendDetail::Decoupled {
                host_buffer,
                transfers,
                stream_high_water: high_water,
                stream_stalls: stalls,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaperConfig, Workload};
    use crate::kernel::GammaListing2;
    use dwi_rng::GammaKernel;
    use dwi_trace::{Recorder, TrackId};

    fn small_workload() -> Workload {
        Workload {
            num_scenarios: 4096,
            num_sectors: 3,
            sector_variance: 1.39,
        }
    }

    fn run(cfg: &PaperConfig, w: &Workload, seed: u64, plan: ExecutionPlan) -> RunReport {
        FunctionalDecoupled.execute(&GammaListing2::for_config(cfg, w, seed), &plan)
    }

    fn host_buffer(report: &RunReport) -> &[f32] {
        let BackendDetail::Decoupled { host_buffer, .. } = &report.detail else {
            unreachable!("FunctionalDecoupled reports Decoupled detail")
        };
        host_buffer
    }

    #[test]
    fn regions_match_reference_kernels_exactly() {
        // Each work-item's host-buffer region must equal the scalar
        // reference kernel's stream sample-for-sample.
        let cfg = PaperConfig::config1();
        let w = small_workload();
        let report = run(&cfg, &w, 7, ExecutionPlan::for_config(&cfg));
        let buffer = host_buffer(&report);
        let kcfg = cfg.kernel_config(&w, 7);
        let region = buffer.len() / cfg.fpga_workitems as usize;
        for wid in 0..cfg.fpga_workitems {
            let mut reference = Vec::new();
            GammaKernel::new(&kcfg, wid).run_all(&mut reference);
            let base = wid as usize * region;
            assert_eq!(
                &buffer[base..base + reference.len()],
                &reference[..],
                "work-item {wid} diverged"
            );
        }
    }

    #[test]
    fn all_configs_meet_quota_and_transfer_every_rn() {
        let w = Workload {
            num_scenarios: 1024,
            num_sectors: 2,
            sector_variance: 1.39,
        };
        for cfg in PaperConfig::all() {
            let report = run(&cfg, &w, 1, ExecutionPlan::for_config(&cfg));
            assert!(report.complete(), "{}", cfg.name());
            let quota = w.scenarios_per_workitem(cfg.fpga_workitems) as u64;
            assert_eq!(report.quota, quota * 2);
            let BackendDetail::Decoupled { transfers, .. } = &report.detail else {
                unreachable!()
            };
            assert_eq!(
                transfers.iter().map(|t| t.rns).sum::<u64>(),
                report.quota * cfg.fpga_workitems as u64,
                "{}: transfer engines must see every RN",
                cfg.name()
            );
        }
    }

    #[test]
    fn outputs_are_gamma_distributed() {
        let cfg = PaperConfig::config2();
        let w = Workload {
            num_scenarios: 16_384,
            num_sectors: 1,
            sector_variance: 1.39,
        };
        let report = run(&cfg, &w, 13, ExecutionPlan::for_config(&cfg));
        let valid: Vec<f64> = report.samples[0].iter().map(|&x| x as f64).collect();
        let dist = dwi_stats::Gamma::from_sector_variance(1.39);
        let r = dwi_stats::ks_test(&valid, |x| dist.cdf(x));
        assert!(r.accepts(1e-4), "KS p = {}", r.p_value);
    }

    #[test]
    fn combining_strategies_are_byte_identical() {
        // Section III-E: both strategies must produce the same host buffer.
        let cfg = PaperConfig::config3();
        let w = small_workload();
        let plan = ExecutionPlan::for_config(&cfg);
        let dev = run(&cfg, &w, 3, plan.clone());
        let host = run(&cfg, &w, 3, plan.combining(Combining::HostLevel));
        assert_eq!(host_buffer(&dev), host_buffer(&host));
    }

    #[test]
    fn rejection_overhead_in_paper_band() {
        let w = Workload {
            num_scenarios: 16_384,
            num_sectors: 2,
            sector_variance: 1.39,
        };
        let overhead = |cfg: PaperConfig| {
            run(&cfg, &w, 5, ExecutionPlan::for_config(&cfg))
                .rejection
                .overhead()
        };
        let bray = overhead(PaperConfig::config1());
        assert!((0.27..0.34).contains(&bray), "M-Bray overhead {bray}");
        let icdf = overhead(PaperConfig::config3());
        assert!(icdf < 0.09, "ICDF overhead {icdf}");
    }

    #[test]
    fn work_items_progress_independently() {
        // Iteration counts differ across work-items (independent rejection
        // streams) — none of them is quantized to the slowest.
        let cfg = PaperConfig::config1();
        let report = run(&cfg, &small_workload(), 11, ExecutionPlan::for_config(&cfg));
        let min = report.iterations.iter().min().unwrap();
        let max = report.iterations.iter().max().unwrap();
        assert!(max > min, "{:?}", report.iterations);
    }

    #[test]
    fn depth1_stream_surfaces_write_stalls() {
        // With a depth-1 FIFO the transfer engine back-pressures the
        // compute side, and the run must report it.
        let cfg = PaperConfig::config1();
        let plan = ExecutionPlan::for_config(&cfg).stream_depth(1);
        let report = run(&cfg, &small_workload(), 2, plan);
        let BackendDetail::Decoupled { stream_stalls, .. } = &report.detail else {
            unreachable!()
        };
        assert_eq!(stream_stalls.len(), 6);
        let write_stalls: u64 = stream_stalls.iter().map(|&(w, _)| w).sum();
        assert!(write_stalls > 0, "depth-1 streams must stall writes");
    }

    #[test]
    fn traced_run_records_all_tracks_and_metrics() {
        let rec = Recorder::new();
        let cfg = PaperConfig::config1();
        let w = small_workload();
        let plan = ExecutionPlan::for_config(&cfg);
        let traced = run(&cfg, &w, 4, plan.clone().trace(rec.sink()));
        // Identical output to the untraced (cooperative) scheduler.
        assert_eq!(host_buffer(&traced), host_buffer(&run(&cfg, &w, 4, plan)));
        // Every work-item contributes a compute and a transfer track.
        let events = rec.events();
        for wid in 0..cfg.fpga_workitems {
            for kind in [ProcessKind::Compute, ProcessKind::Transfer] {
                assert!(
                    events.iter().any(|e| e.track == TrackId::new(wid, kind)),
                    "missing {kind:?} track for wi{wid}"
                );
            }
        }
        // Metrics: iterations and bursts accounted per work-item.
        let BackendDetail::Decoupled { transfers, .. } = &traced.detail else {
            unreachable!()
        };
        for (wid, (iters, t)) in traced.iterations.iter().zip(transfers).enumerate() {
            let key = format!("dwi_workitem_iterations_total{{wid=\"{wid}\"}}");
            assert_eq!(rec.metrics().counter_value(&key), Some(*iters), "{key}");
            let key = format!("dwi_transfer_bursts_total{{wid=\"{wid}\"}}");
            assert_eq!(rec.metrics().counter_value(&key), Some(t.bursts), "{key}");
        }
        let prom = rec.prometheus();
        assert!(prom.contains("dwi_rejection_retries_total"));
        assert!(prom.contains("dwi_sector_latency_seconds"));
    }
}
