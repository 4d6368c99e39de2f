//! The backend layer: five execution engines behind one trait.
//!
//! A [`Backend`] consumes any [`WorkItemKernel`]
//! and an [`ExecutionPlan`] (geometry + platform parameters) and produces a
//! [`RunReport`] — the uniform result every engine shares: per-work-item
//! sample sequences, iteration counts, divergence outcome counters, and a
//! backend-specific cycle count, plus a [`BackendDetail`] with whatever the
//! engine uniquely knows (host buffers, burst schedules, lockstep rounds).
//!
//! The five engines:
//!
//! * [`FunctionalDecoupled`] — the paper's design executed functionally:
//!   one compute thread + one transfer thread per work-item, coupled by a
//!   blocking `hls::stream`, bursting into device memory (Listing 1 + 4).
//! * [`LockstepCoupled`] — the counterfactual: all work-items vectorized
//!   into one pipeline that reconverges every output round (Fig. 2b).
//! * [`NdRange`] — the `.cl` NDRange formulation: `workitems/local_size`
//!   pipelines, each time-multiplexing `local_size` work-items.
//! * [`CycleSim`] — the cycle-level dataflow simulation of `dwi-hls::sim`,
//!   fed the *recorded* iteration traces of this very kernel instead of its
//!   built-in rejection model.
//! * [`SimtTrace`] — `dwi-ocl`'s lockstep partition replay, fed branch
//!   traces the same kernel object produced.
//!
//! Because every engine instantiates per-work-item state through the same
//! `instantiate(wid)` call, the emitted sample sequences are identical
//! across backends — coupling changes *scheduling*, never *values* (the
//! cross-engine equivalence test in `tests/backend_equivalence.rs` pins
//! this).

mod cyclesim;
mod functional;
mod lockstep;
mod ndrange;
mod simt;

pub use cyclesim::CycleSim;
pub use functional::FunctionalDecoupled;
pub use lockstep::LockstepCoupled;
pub use ndrange::NdRange;
pub use simt::SimtTrace;

use crate::config::PaperConfig;
use crate::kernel::{DivergenceCounts, WorkItemKernel};
use crate::model::iterations_runtime_s;
use crate::transfer::TransferStats;
use dwi_hls::memory::BurstChannel;
use dwi_hls::sim::SimResult;
use dwi_ocl::simt::LockstepResult;
use dwi_rng::RejectionStats;
use dwi_trace::TraceSink;

/// How the host combines per-work-item output buffers (Section III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combining {
    /// One device buffer, per-work-item offsets, a single read request —
    /// the paper's chosen strategy (III-E-2).
    DeviceLevel,
    /// N device buffers, N read requests, merged into one host buffer at
    /// per-work-item offsets (III-E-1).
    HostLevel,
}

/// Geometry and platform parameters of one execution — everything a
/// backend needs besides the kernel itself.
#[derive(Clone)]
pub struct ExecutionPlan {
    /// Work-items instantiated by this plan (ids
    /// `wid_base..wid_base + workitems`).
    pub workitems: u32,
    /// First work-item id of the plan. 0 for a whole execution; a
    /// [`split`](ExecutionPlan::split) shard carries the offset of its
    /// slice so every engine instantiates the *global* design-time ids —
    /// sharding changes where a work-item runs, never which streams it
    /// draws.
    pub wid_base: u32,
    /// Work-items per pipeline for the NDRange formulation (1 elsewhere).
    pub local_size: u32,
    /// Depth of each compute→transfer FIFO.
    pub stream_depth: usize,
    /// RNs per burst in the transfer engine (LTRANSF × 16).
    pub burst_rns: u64,
    /// Host buffer-combining strategy (Section III-E).
    pub combining: Combining,
    /// Kernel clock for modeled runtimes (SDAccel: 200 MHz).
    pub freq_hz: f64,
    /// The shared memory channel (used by the cycle-level backend).
    pub channel: BurstChannel,
    /// Trace sink; [`TraceSink::disabled`] costs one branch per site.
    pub sink: TraceSink,
}

impl ExecutionPlan {
    /// A plan with the engines' historical defaults: depth-64 streams,
    /// 256-RN bursts, device-level combining, 200 MHz, Config1/2 channel,
    /// tracing off.
    pub fn new(workitems: u32) -> Self {
        assert!(workitems >= 1, "need at least one work-item");
        Self {
            workitems,
            wid_base: 0,
            local_size: 1,
            stream_depth: 64,
            burst_rns: 256,
            combining: Combining::DeviceLevel,
            freq_hz: 200e6,
            channel: BurstChannel::config12(),
            sink: TraceSink::disabled(),
        }
    }

    /// The plan a paper configuration implies: its work-item count, burst
    /// length and place-and-routed memory channel.
    pub fn for_config(cfg: &PaperConfig) -> Self {
        Self {
            burst_rns: cfg.burst_rns,
            channel: cfg.channel(),
            ..Self::new(cfg.fpga_workitems)
        }
    }

    /// Work-items per pipeline (NDRange formulation); must divide
    /// `workitems`.
    pub fn local_size(mut self, local_size: u32) -> Self {
        assert!(local_size >= 1);
        self.local_size = local_size;
        self
    }

    /// Depth of each compute→transfer FIFO (must be positive).
    pub fn stream_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "stream depth must be positive");
        self.stream_depth = depth;
        self
    }

    /// RNs per burst (whole 512-bit words).
    pub fn burst_rns(mut self, burst_rns: u64) -> Self {
        assert!(burst_rns >= 16 && burst_rns.is_multiple_of(16));
        self.burst_rns = burst_rns;
        self
    }

    /// Host buffer-combining strategy.
    pub fn combining(mut self, combining: Combining) -> Self {
        self.combining = combining;
        self
    }

    /// Kernel clock in Hz.
    pub fn freq_hz(mut self, freq_hz: f64) -> Self {
        assert!(freq_hz > 0.0);
        self.freq_hz = freq_hz;
        self
    }

    /// The shared memory channel.
    pub fn channel(mut self, channel: BurstChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Attach a trace sink.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// First global work-item id (sharding offset).
    pub fn wid_base(mut self, wid_base: u32) -> Self {
        self.wid_base = wid_base;
        self
    }

    /// Pipelines the NDRange formulation instantiates.
    pub fn groups(&self) -> u32 {
        assert!(
            self.workitems.is_multiple_of(self.local_size),
            "local_size {} must divide workitems {}",
            self.local_size,
            self.workitems
        );
        self.workitems / self.local_size
    }

    /// Split the plan into at most `n` contiguous work-item shards for
    /// parallel dispatch. Shard boundaries respect `local_size` (whole
    /// NDRange groups only), sizes differ by at most one group, and each
    /// shard carries its [`wid_base`](Self::wid_base) so the global
    /// work-item ids — and therefore every RNG stream — are unchanged.
    /// Executing the shards on any backend and
    /// [`RunReport::merge`]-ing the results is bit-identical to executing
    /// the unsplit plan (pinned by `tests/shard_determinism.rs`).
    ///
    /// Fewer than `n` shards come back when the plan has fewer groups.
    pub fn split(&self, n: u32) -> Vec<ExecutionPlan> {
        assert!(n >= 1, "need at least one shard");
        let groups = self.groups();
        let shards = n.min(groups);
        let per = groups / shards;
        let extra = groups % shards;
        let mut out = Vec::with_capacity(shards as usize);
        let mut group_off = 0u32;
        for s in 0..shards {
            let g = per + u32::from(s < extra);
            out.push(ExecutionPlan {
                workitems: g * self.local_size,
                wid_base: self.wid_base + group_off * self.local_size,
                ..self.clone()
            });
            group_off += g;
        }
        out
    }

    /// The geometry-free half of [`fingerprint`](Self::fingerprint):
    /// local size, stream depth, burst length, combining, clock and
    /// channel, but **not** the work-item count or offset.
    pub fn shape_fingerprint(&self) -> String {
        format!(
            "l{}/d{}/b{}/{:?}/f{}/ch{:?}",
            self.local_size,
            self.stream_depth,
            self.burst_rns,
            self.combining,
            self.freq_hz,
            self.channel,
        )
    }

    /// A stable textual digest of everything that affects the *values* a
    /// run produces and the cycles a backend reports — the plan half of a
    /// result-cache key. The trace sink is deliberately excluded:
    /// observability must never change results.
    pub fn fingerprint(&self) -> String {
        format!(
            "wi{}+{}x{}",
            self.workitems,
            self.wid_base,
            self.shape_fingerprint(),
        )
    }
}

/// Engine-specific results a backend reports beyond the uniform fields.
#[derive(Debug)]
pub enum BackendDetail {
    /// [`FunctionalDecoupled`]: the combined host buffer plus the per-work-
    /// item transfer/stream telemetry.
    Decoupled {
        /// Host buffer: per-work-item regions at `wid`-derived offsets,
        /// 512-bit aligned and zero-padded.
        host_buffer: Vec<f32>,
        /// Transfer statistics per work-item.
        transfers: Vec<TransferStats>,
        /// Stream depth high-water marks per work-item.
        stream_high_water: Vec<usize>,
        /// Per-work-item `(write stalls, read stalls)` of the stream.
        stream_stalls: Vec<(u64, u64)>,
    },
    /// [`LockstepCoupled`]: the shared pipeline's cost.
    Lockstep {
        /// Iterations the lockstep pipeline executed (round maxima summed).
        lockstep_iterations: u64,
        /// Output rounds executed.
        rounds: u64,
        /// Per-round maximum attempts over this report's lanes. Kept so
        /// shard reports merge exactly: the monolithic round cost is the
        /// max over all lanes, which is the max over shards of these
        /// per-shard maxima.
        round_max: Vec<u64>,
        /// Attempts per round for every lane (lane-major, `quota` entries
        /// each; 0 once a truncated lane idles).
        lane_attempts: Vec<Vec<u64>>,
    },
    /// [`NdRange`]: the flat output stream and per-group pipeline cost.
    NdRange {
        /// Outputs concatenated in (group, sector, local) order.
        outputs: Vec<f32>,
        /// Pipeline iterations per group.
        group_iterations: Vec<u64>,
    },
    /// [`CycleSim`]: the full cycle-level simulation result.
    CycleSim {
        /// Cycle-accurate schedule, stalls, FIFO high-water and bursts.
        sim: SimResult,
        /// Per-work-item per-iteration emission flags recorded in the
        /// functional pass. Kept because the memory channel is *shared*:
        /// merging shard reports re-simulates the full channel over the
        /// concatenated traces, which is exactly the monolithic run.
        traces: Vec<Vec<bool>>,
    },
    /// [`SimtTrace`]: the lockstep partition replay.
    Simt {
        /// Lockstep vs lane iteration accounting.
        result: LockstepResult,
        /// Attempts-per-output trace per lane. Kept because the partition
        /// reconverges over *all* lanes: merging shard reports replays the
        /// concatenated traces, which is exactly the monolithic partition.
        traces: Vec<Vec<u32>>,
    },
}

/// Uniform result of executing one kernel on one backend.
#[derive(Debug)]
pub struct RunReport {
    /// Executing backend's name.
    pub backend: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Work-items instantiated.
    pub workitems: u32,
    /// First global work-item id ([`ExecutionPlan::wid_base`]); per-work-
    /// item vectors below are indexed relative to it.
    pub wid_base: u32,
    /// Outputs each work-item owes ([`WorkItemKernel::outputs_per_workitem`]).
    pub quota: u64,
    /// Emitted sample sequence per work-item — identical across backends
    /// for the same kernel and seed.
    pub samples: Vec<Vec<f32>>,
    /// Main-loop iterations executed per work-item.
    pub iterations: Vec<u64>,
    /// Divergence outcome counters per work-item.
    pub divergence: Vec<DivergenceCounts>,
    /// Combined rejection statistics (Section IV-E accounting).
    pub rejection: RejectionStats,
    /// The backend's runtime-determining cycle count at II = 1: slowest
    /// work-item (decoupled/NDRange), lockstep iterations (coupled/SIMT),
    /// or simulated cycles (cycle-level).
    pub cycles: u64,
    /// Engine-specific extras.
    pub detail: BackendDetail,
}

impl RunReport {
    /// Modeled runtime at `freq_hz` — `cycles` at II = 1.
    pub fn runtime_s(&self, freq_hz: f64) -> f64 {
        iterations_runtime_s(self.cycles as f64, freq_hz)
    }

    /// True when every work-item emitted its full quota (no `limitMax`
    /// truncation).
    pub fn complete(&self) -> bool {
        self.samples.iter().all(|s| s.len() as u64 == self.quota)
    }

    /// Iterations summed over work-items.
    pub fn total_iterations(&self) -> u64 {
        self.iterations.iter().sum()
    }

    /// Divergence counters merged over work-items.
    pub fn divergence_total(&self) -> DivergenceCounts {
        let mut total = DivergenceCounts::default();
        for d in &self.divergence {
            total.merge(d);
        }
        total
    }

    /// Merge shard reports (from executing [`ExecutionPlan::split`] shards
    /// of `plan` on one backend) into the report of the unsplit run —
    /// **bit-identical** to executing `plan` monolithically.
    ///
    /// Values merge by concatenation in work-item order (they were never
    /// affected by sharding in the first place: every engine derives all
    /// streams from the global `wid`). Cycle counts merge per backend
    /// semantics:
    ///
    /// * decoupled / NDRange — the slowest work-item / group, so the max
    ///   over shards;
    /// * lockstep — per-round maxima recombine across shards before
    ///   summing;
    /// * cycle-sim — the shared memory channel is re-simulated over the
    ///   concatenated emission traces;
    /// * SIMT — the full-width partition replays the concatenated attempt
    ///   traces.
    ///
    /// Panics if the shards are not a complete, contiguous, in-order
    /// partition of `plan`'s work-items, or mix backends or kernels.
    pub fn merge(plan: &ExecutionPlan, shards: Vec<RunReport>) -> RunReport {
        assert!(!shards.is_empty(), "nothing to merge");
        if shards.len() == 1 {
            let only = shards.into_iter().next().expect("len checked");
            assert_eq!(only.wid_base, plan.wid_base, "shard offset mismatch");
            assert_eq!(only.workitems, plan.workitems, "shard count mismatch");
            return only;
        }
        let backend = shards[0].backend;
        let kernel = shards[0].kernel;
        let quota = shards[0].quota;
        let mut next_wid = plan.wid_base;
        let mut samples = Vec::with_capacity(plan.workitems as usize);
        let mut iterations = Vec::with_capacity(plan.workitems as usize);
        let mut divergence = Vec::with_capacity(plan.workitems as usize);
        let mut rejection = RejectionStats::new();
        let mut details = Vec::with_capacity(shards.len());
        let mut shard_cycles = Vec::with_capacity(shards.len());
        for shard in shards {
            assert_eq!(shard.backend, backend, "shards from different backends");
            assert_eq!(shard.kernel, kernel, "shards from different kernels");
            assert_eq!(shard.quota, quota, "shards with different quotas");
            assert_eq!(
                shard.wid_base, next_wid,
                "shards must partition the plan contiguously and in order"
            );
            next_wid += shard.workitems;
            samples.extend(shard.samples);
            iterations.extend(shard.iterations);
            divergence.extend(shard.divergence);
            rejection.merge(&shard.rejection);
            shard_cycles.push(shard.cycles);
            details.push(shard.detail);
        }
        assert_eq!(
            next_wid,
            plan.wid_base + plan.workitems,
            "shards do not cover the whole plan"
        );
        let (cycles, detail) = merge_details(plan, quota, &shard_cycles, details);
        RunReport {
            backend,
            kernel,
            workitems: plan.workitems,
            wid_base: plan.wid_base,
            quota,
            samples,
            iterations,
            divergence,
            rejection,
            cycles,
            detail,
        }
    }
}

/// Backend-specific half of [`RunReport::merge`]: recombine the shard
/// details and recompute the runtime-determining cycle count.
fn merge_details(
    plan: &ExecutionPlan,
    quota: u64,
    shard_cycles: &[u64],
    details: Vec<BackendDetail>,
) -> (u64, BackendDetail) {
    let slowest_shard = shard_cycles.iter().copied().max().unwrap_or(0);
    match &details[0] {
        BackendDetail::Decoupled { .. } => {
            let mut host_buffer = Vec::new();
            let mut transfers = Vec::new();
            let mut stream_high_water = Vec::new();
            let mut stream_stalls = Vec::new();
            for d in details {
                let BackendDetail::Decoupled {
                    host_buffer: hb,
                    transfers: t,
                    stream_high_water: hw,
                    stream_stalls: st,
                } = d
                else {
                    panic!("mixed backend details");
                };
                host_buffer.extend(hb);
                transfers.extend(t);
                stream_high_water.extend(hw);
                stream_stalls.extend(st);
            }
            // Decoupled work-items never wait on each other: the run is as
            // slow as its slowest work-item, wherever that work-item ran.
            (
                slowest_shard,
                BackendDetail::Decoupled {
                    host_buffer,
                    transfers,
                    stream_high_water,
                    stream_stalls,
                },
            )
        }
        BackendDetail::Lockstep { .. } => {
            let mut round_max = vec![0u64; quota as usize];
            let mut lane_attempts = Vec::new();
            for d in details {
                let BackendDetail::Lockstep {
                    round_max: rm,
                    lane_attempts: la,
                    ..
                } = d
                else {
                    panic!("mixed backend details");
                };
                assert_eq!(rm.len(), quota as usize, "lockstep shard round count");
                for (acc, r) in round_max.iter_mut().zip(rm) {
                    *acc = (*acc).max(r);
                }
                lane_attempts.extend(la);
            }
            let lockstep_iterations: u64 = round_max.iter().sum();
            (
                lockstep_iterations,
                BackendDetail::Lockstep {
                    lockstep_iterations,
                    rounds: quota,
                    round_max,
                    lane_attempts,
                },
            )
        }
        BackendDetail::NdRange { .. } => {
            let mut outputs = Vec::new();
            let mut group_iterations = Vec::new();
            for d in details {
                let BackendDetail::NdRange {
                    outputs: o,
                    group_iterations: gi,
                } = d
                else {
                    panic!("mixed backend details");
                };
                outputs.extend(o);
                group_iterations.extend(gi);
            }
            (
                slowest_shard,
                BackendDetail::NdRange {
                    outputs,
                    group_iterations,
                },
            )
        }
        BackendDetail::CycleSim { .. } => {
            let mut traces = Vec::new();
            for d in details {
                let BackendDetail::CycleSim { traces: t, .. } = d else {
                    panic!("mixed backend details");
                };
                traces.extend(t);
            }
            // The memory channel is shared by *all* work-items: shard-local
            // simulations cannot see cross-shard arbitration, so the merge
            // re-simulates the whole channel over the recorded traces —
            // which is exactly what the monolithic run simulates.
            let sim = dwi_hls::sim::run_from_traces(
                &cyclesim::sim_config(plan, plan.workitems as usize, quota),
                &traces,
            );
            (sim.cycles, BackendDetail::CycleSim { sim, traces })
        }
        BackendDetail::Simt { .. } => {
            let mut traces = Vec::new();
            for d in details {
                let BackendDetail::Simt { traces: t, .. } = d else {
                    panic!("mixed backend details");
                };
                traces.extend(t);
            }
            // Reconvergence spans the full partition width: replay the
            // concatenated lanes, exactly as the monolithic run does.
            let result = dwi_ocl::simt::run_lockstep(&traces);
            (
                result.lockstep_iterations,
                BackendDetail::Simt { result, traces },
            )
        }
    }
}

/// One execution engine: consumes any kernel plus a plan, produces the
/// uniform report. Adding an engine to the repository means implementing
/// this trait — not editing the applications.
pub trait Backend: Sync {
    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Execute `kernel` under `plan`.
    fn execute(&self, kernel: &dyn WorkItemKernel, plan: &ExecutionPlan) -> RunReport;

    /// Execute a whole [`KernelGraph`](crate::graph::KernelGraph) under
    /// `plan` — the universal entry point: a single-kernel job is the
    /// trivial one-node graph (and produces exactly the report
    /// [`execute`](Backend::execute) would), a multi-stage graph runs
    /// once, pipe-connected through bounded FIFOs, with per-stage
    /// sub-reports and inter-stage stall accounting (see
    /// [`crate::graph::execute`]).
    fn run(
        &self,
        graph: &crate::graph::KernelGraph,
        plan: &crate::graph::GraphPlan,
    ) -> crate::graph::GraphReport {
        crate::graph::execute(self, graph, plan)
    }

    /// The report [`execute`](Backend::execute) would give for one node
    /// of a graph, built from what that node did in the pipe-connected
    /// pass, or `None` when this backend's report needs a run of its own
    /// (round maxima, lane traces, a shared-channel simulation): the
    /// graph executor then re-runs the node as its own dispatch on the
    /// previous node's streams. The default is `None`.
    fn stage_report(
        &self,
        stage: &crate::graph::StageRun,
        plan: &ExecutionPlan,
    ) -> Option<RunReport> {
        let _ = (stage, plan);
        None
    }
}

/// All five engines, in documentation order.
pub fn all_backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(FunctionalDecoupled),
        Box::new(LockstepCoupled),
        Box::new(NdRange),
        Box::new(CycleSim),
        Box::new(SimtTrace),
    ]
}
