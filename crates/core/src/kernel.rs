//! The kernel layer: one application definition, every execution engine.
//!
//! The paper's conclusion claims the decoupled-work-item infrastructure is
//! reusable — "the designer just needs to rewrite the application function
//! in Listing 2". This module makes that claim a *contract*: a
//! [`WorkItemKernel`] describes one rejection-style application (how to seed
//! per-work-item state, how many outputs each work-item owes, how many
//! program phases it runs), a [`KernelInstance`] executes it one pipeline
//! attempt at a time, and every execution engine in the repository — the
//! functional decoupled engine, the lockstep-coupled counterfactual, the
//! NDRange formulation, the cycle-level dataflow simulator and the SIMT
//! trace replayer — consumes the *same* kernel object through
//! [`crate::backend::Backend`].
//!
//! The contract is deliberately minimal and hardware-shaped:
//!
//! * [`KernelInstance::step`] is **one main-loop iteration** (one pipeline
//!   attempt at II = 1). Every generator advances exactly as the hardware
//!   would — enable-flag gating included — and the step reports its
//!   divergence outcome so lockstep architectures can be costed from the
//!   very same execution.
//! * Output emission is part of the step result, already gated the way the
//!   hardware gates it (e.g. Listing 2's `gRN_ok && counter < limitMain`).
//! * State seeding is explicit: [`WorkItemKernel::instantiate`] receives the
//!   work-item id and derives all RNG streams from it, so any engine that
//!   instantiates work-item `wid` gets the *identical* value sequence —
//!   coupling changes scheduling, never values.
//!
//! [`GammaListing2`] is the paper's Listing 2 (nested gamma generator with
//! enable-flag Mersenne-Twisters and the delayed loop-exit counter) behind
//! this trait; see [`crate::apps`] for the further applications that prove
//! the reuse claim.

use dwi_rng::{GammaKernel, IterationTrace, KernelConfig, NormalMethod, RejectionStats};

use crate::config::{PaperConfig, Workload};

/// Divergence outcome of one pipeline attempt — the information a lockstep
/// (SIMT) architecture needs to cost the red dots of Fig. 2b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// The attempt validated an output (whether or not it was emitted —
    /// Listing 2's delayed counter can accept without writing).
    Accepted,
    /// Rejected inside the uniform→normal stage (e.g. Marsaglia-Bray polar
    /// rejection produced no valid normal).
    RejectedNormal,
    /// The normal was valid but the application-level rejection test failed
    /// (e.g. Marsaglia-Tsang, or an app's accept-probability test).
    RejectedApp,
}

impl Divergence {
    /// Collapse an [`IterationTrace`] of the reference gamma kernel.
    pub fn from_trace(t: &IterationTrace) -> Self {
        if t.accepted {
            Divergence::Accepted
        } else if t.n0_valid {
            Divergence::RejectedApp
        } else {
            Divergence::RejectedNormal
        }
    }

    /// True when the attempt validated an output.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Divergence::Accepted)
    }
}

/// Per-outcome attempt counters, accumulated by every backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DivergenceCounts {
    /// Attempts that validated an output.
    pub accepted: u64,
    /// Attempts rejected in the normal stage.
    pub rejected_normal: u64,
    /// Attempts rejected by the application test.
    pub rejected_app: u64,
}

impl DivergenceCounts {
    /// Record one outcome.
    #[inline]
    pub fn record(&mut self, d: Divergence) {
        match d {
            Divergence::Accepted => self.accepted += 1,
            Divergence::RejectedNormal => self.rejected_normal += 1,
            Divergence::RejectedApp => self.rejected_app += 1,
        }
    }

    /// Total attempts.
    pub fn attempts(&self) -> u64 {
        self.accepted + self.rejected_normal + self.rejected_app
    }

    /// Rejected attempts, both stages combined.
    pub fn rejected(&self) -> u64 {
        self.rejected_normal + self.rejected_app
    }

    /// Merge another counter set (work-items each keep their own).
    pub fn merge(&mut self, other: &Self) {
        self.accepted += other.accepted;
        self.rejected_normal += other.rejected_normal;
        self.rejected_app += other.rejected_app;
    }

    /// View as the Eq. 1 rejection accounting.
    pub fn as_rejection_stats(&self) -> RejectionStats {
        RejectionStats {
            attempts: self.attempts(),
            accepted: self.accepted,
        }
    }

    /// The Eq. 1 overhead `r = attempts/accepted − 1`.
    pub fn overhead(&self) -> f64 {
        self.as_rejection_stats().overhead()
    }
}

/// Result of one [`KernelInstance::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Output written this iteration, already gated exactly as the hardware
    /// gates it (`None` on rejection *and* on accepted-but-not-written tail
    /// iterations of a delayed loop-exit counter).
    pub emit: Option<f32>,
    /// Divergence outcome of the attempt.
    pub divergence: Divergence,
    /// `Some(p)` when this iteration completed program phase `p` (a sector
    /// in Listing 2 terms). Engines that schedule phase-by-phase (the
    /// NDRange pipeline multiplexing) and the trace layer (sector spans)
    /// key off this.
    pub phase_end: Option<u32>,
    /// True when the work-item's whole program is complete; no further
    /// `step` calls are allowed.
    pub done: bool,
}

/// Per-work-item execution state of a kernel: one main-loop iteration per
/// [`step`](KernelInstance::step) call.
pub trait KernelInstance: Send {
    /// Execute one pipeline attempt (all generators advance, enable-flag
    /// gating included) and report what happened.
    fn step(&mut self) -> Step;

    /// Combined rejection statistics over all iterations so far.
    fn stats(&self) -> RejectionStats;
}

/// One decoupled work-item application — the rewritable "Listing 2 slot",
/// shared by all five execution backends.
pub trait WorkItemKernel: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Outputs each work-item emits over its whole program.
    fn outputs_per_workitem(&self) -> u64;

    /// Program phases (Listing 2's sectors; 1 for single-loop applications).
    fn phases(&self) -> u32 {
        1
    }

    /// Stable digest of the kernel's constructor parameters — everything
    /// that changes emitted values but is visible neither in
    /// [`name`](WorkItemKernel::name) nor in the quota/phase shape
    /// (truncation points, mixture rates, RNG parameter sets, the
    /// kernel's own base seed). Folded into
    /// [`KernelGraph::fingerprint`](crate::graph::KernelGraph::fingerprint),
    /// so two configurations of one kernel type can never collide in the
    /// result cache — the guarantee the durable disk tier relies on
    /// across process restarts. Must be a pure function of the
    /// constructor state, built with [`crate::digest::Digest`] so the
    /// value is identical on every platform and build. The default 0 is
    /// only for kernels that genuinely carry no parameters beyond their
    /// shape; any kernel with constructor state must override it.
    fn param_digest(&self) -> u64 {
        0
    }

    /// Build the per-work-item state, deriving every RNG stream from `wid`
    /// — the design-time unique id of Listing 1.
    fn instantiate(&self, wid: u32) -> Box<dyn KernelInstance>;
}

/// A shareable kernel object — what the runtime dispatches and what a
/// [`KernelGraph`](crate::graph::KernelGraph) sources from.
pub type SharedWorkItemKernel = std::sync::Arc<dyn WorkItemKernel + Send + Sync>;

/// The paper's Listing 2 as a [`WorkItemKernel`]: the nested gamma
/// generator (Mersenne-Twisters with enable flags, Marsaglia-Tsang
/// rejection, α ≤ 1 correction) wrapped in the `SECLOOP`/`MAINLOOP`
/// program with the **delayed loop-exit counter** (`prevCounter[breakId]`)
/// that keeps the pipelined hardware at II = 1 — including the up-to-one
/// extra trailing iteration per sector that delay causes.
#[derive(Debug, Clone, Copy)]
pub struct GammaListing2 {
    kcfg: KernelConfig,
}

impl GammaListing2 {
    /// Wrap a reference-kernel configuration.
    pub fn new(kcfg: KernelConfig) -> Self {
        assert!(kcfg.limit_main >= 1 && kcfg.limit_sec >= 1);
        Self { kcfg }
    }

    /// The kernel for one paper configuration and workload: quota per
    /// work-item derived from `cfg.fpga_workitems` exactly as the FPGA
    /// design divides the scenarios.
    pub fn for_config(cfg: &PaperConfig, workload: &Workload, seed: u64) -> Self {
        Self::new(cfg.kernel_config(workload, seed))
    }

    /// As [`GammaListing2::for_config`], but dividing the workload over an
    /// explicit work-item count (the NDRange geometry re-derivation).
    pub fn for_workitems(
        cfg: &PaperConfig,
        workload: &Workload,
        seed: u64,
        workitems: u32,
    ) -> Self {
        let mut kcfg = cfg.kernel_config(workload, seed);
        kcfg.limit_main = workload.scenarios_per_workitem(workitems);
        Self::new(kcfg)
    }

    /// The underlying reference-kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.kcfg
    }
}

impl WorkItemKernel for GammaListing2 {
    fn name(&self) -> &'static str {
        "gamma-listing2"
    }

    fn outputs_per_workitem(&self) -> u64 {
        self.kcfg.limit_main as u64 * self.kcfg.limit_sec as u64
    }

    fn phases(&self) -> u32 {
        self.kcfg.limit_sec
    }

    fn param_digest(&self) -> u64 {
        let k = &self.kcfg;
        crate::digest::Digest::new()
            .u8(match k.normal {
                NormalMethod::MarsagliaBray => 0,
                NormalMethod::IcdfFpga => 1,
                NormalMethod::IcdfCuda => 2,
            })
            .mt(&k.mt)
            .f32(k.sector_variance)
            .u32(k.limit_sec)
            .u32(k.limit_main)
            .u32(k.limit_max_factor)
            .u64(k.seed)
            .u8(k.break_id)
            .finish()
    }

    fn instantiate(&self, wid: u32) -> Box<dyn KernelInstance> {
        Box::new(GammaListing2Instance::new(&self.kcfg, wid))
    }
}

/// Steppable execution of Listing 2 for one work-item. Each `step` is one
/// `MAINLOOP` iteration; sector roll-over and program completion follow the
/// exact loop conditions of [`GammaKernel::run_sector`], so the emitted
/// value sequence, iteration count and rejection statistics are
/// bit-identical to the scalar reference kernel (tested below).
struct GammaListing2Instance {
    kernel: GammaKernel,
    limit_main: u64,
    limit_max: u64,
    limit_sec: u32,
    /// `prevCounter` shift register (delay = breakId + 1).
    prev_counter: Vec<u64>,
    counter: u64,
    k: u64,
    sector: u32,
    done: bool,
}

impl GammaListing2Instance {
    fn new(kcfg: &KernelConfig, wid: u32) -> Self {
        let limit_main = kcfg.limit_main as u64;
        Self {
            kernel: GammaKernel::new(kcfg, wid),
            limit_main,
            limit_max: limit_main.saturating_mul(kcfg.limit_max_factor as u64),
            limit_sec: kcfg.limit_sec,
            prev_counter: vec![0; kcfg.break_id as usize + 1],
            counter: 0,
            k: 0,
            sector: 0,
            done: false,
        }
    }
}

impl KernelInstance for GammaListing2Instance {
    fn step(&mut self) -> Step {
        assert!(!self.done, "stepped a completed work-item");
        // UpdateRegUI: shift the delayed counter.
        let delay = self.prev_counter.len();
        for i in (1..delay).rev() {
            self.prev_counter[i] = self.prev_counter[i - 1];
        }
        self.prev_counter[0] = self.counter;
        let (out, trace) = self.kernel.step();
        let mut emit = None;
        if let Some(g) = out {
            if self.counter < self.limit_main {
                emit = Some(g);
                self.counter += 1;
            }
        }
        self.k += 1;
        // MAINLOOP exit test for the *next* iteration — Listing 2's
        // `k < limitMax && prevCounter[breakId] < limitMain`.
        let mut phase_end = None;
        if !(self.k < self.limit_max && self.prev_counter[delay - 1] < self.limit_main) {
            phase_end = Some(self.sector);
            self.sector += 1;
            if self.sector < self.limit_sec {
                // SECLOOP: next sector starts with fresh loop state (the
                // generators keep running — they are free-running hardware).
                self.prev_counter.iter_mut().for_each(|c| *c = 0);
                self.counter = 0;
                self.k = 0;
            } else {
                self.done = true;
            }
        }
        Step {
            emit,
            divergence: Divergence::from_trace(&trace),
            phase_end,
            done: self.done,
        }
    }

    fn stats(&self) -> RejectionStats {
        *self.kernel.combined_stats()
    }
}

/// Drive a fresh instance of `kernel` for work-item `wid` to completion,
/// collecting the emitted samples — the scalar reference execution every
/// backend must reproduce sample-for-sample.
pub fn reference_samples(kernel: &dyn WorkItemKernel, wid: u32) -> Vec<f32> {
    let mut inst = kernel.instantiate(wid);
    let mut out = Vec::with_capacity(kernel.outputs_per_workitem() as usize);
    loop {
        let st = inst.step();
        if let Some(v) = st.emit {
            out.push(v);
        }
        if st.done {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwi_rng::NormalMethod;

    fn kcfg(limit_main: u32, limit_sec: u32, break_id: u8) -> KernelConfig {
        KernelConfig {
            limit_main,
            limit_sec,
            break_id,
            ..KernelConfig::default()
        }
    }

    #[test]
    fn instance_matches_reference_kernel_bit_for_bit() {
        // The steppable Listing 2 must equal GammaKernel::run_all exactly:
        // same values, same iteration count, same rejection statistics.
        for (normal, break_id) in [
            (NormalMethod::MarsagliaBray, 0u8),
            (NormalMethod::IcdfFpga, 0),
            (NormalMethod::MarsagliaBray, 3),
        ] {
            let cfg = KernelConfig {
                normal,
                ..kcfg(1500, 3, break_id)
            };
            for wid in [0u32, 5] {
                let mut reference = Vec::new();
                let mut ref_kernel = GammaKernel::new(&cfg, wid);
                let ref_run = ref_kernel.run_all(&mut reference);

                let kernel = GammaListing2::new(cfg);
                let mut inst = kernel.instantiate(wid);
                let mut out = Vec::new();
                let mut iters = 0u64;
                let mut phases = 0u32;
                loop {
                    let st = inst.step();
                    iters += 1;
                    if let Some(v) = st.emit {
                        out.push(v);
                    }
                    if st.phase_end.is_some() {
                        phases += 1;
                    }
                    if st.done {
                        break;
                    }
                }
                assert_eq!(out, reference, "values diverged (wid {wid})");
                assert_eq!(iters, ref_run.iterations, "iteration count (wid {wid})");
                assert_eq!(phases, cfg.limit_sec, "phase count (wid {wid})");
                assert_eq!(
                    inst.stats(),
                    *ref_kernel.combined_stats(),
                    "rejection stats (wid {wid})"
                );
            }
        }
    }

    #[test]
    fn divergence_counts_equal_rejection_stats() {
        let kernel = GammaListing2::new(kcfg(2000, 2, 0));
        let mut inst = kernel.instantiate(1);
        let mut div = DivergenceCounts::default();
        loop {
            let st = inst.step();
            div.record(st.divergence);
            if st.done {
                break;
            }
        }
        assert_eq!(div.as_rejection_stats(), inst.stats());
        assert!(
            div.rejected_normal > 0,
            "M-Bray rejects in the normal stage"
        );
        assert!(div.rejected_app > 0, "Marsaglia-Tsang rejects too");
    }

    #[test]
    fn quota_and_phases_reported() {
        let kernel = GammaListing2::new(kcfg(512, 4, 0));
        assert_eq!(kernel.outputs_per_workitem(), 2048);
        assert_eq!(kernel.phases(), 4);
        assert_eq!(reference_samples(&kernel, 0).len(), 2048);
    }

    #[test]
    fn for_workitems_rederives_quota() {
        let cfg = PaperConfig::config1();
        let w = Workload {
            num_scenarios: 2048,
            num_sectors: 2,
            sector_variance: 1.39,
        };
        let k6 = GammaListing2::for_workitems(&cfg, &w, 1, 6);
        let k3 = GammaListing2::for_workitems(&cfg, &w, 1, 3);
        assert_eq!(k6.config().limit_main, w.scenarios_per_workitem(6));
        assert_eq!(k3.config().limit_main, w.scenarios_per_workitem(3));
        assert!(k3.outputs_per_workitem() > k6.outputs_per_workitem());
    }

    #[test]
    fn truncated_program_still_terminates() {
        // limit_max_factor 1 with ~30% rejection: each sector is cut short
        // at limitMax, but the program must still complete with fewer
        // emissions than the quota.
        let kernel = GammaListing2::new(KernelConfig {
            limit_max_factor: 1,
            ..kcfg(4096, 2, 0)
        });
        let out = reference_samples(&kernel, 0);
        assert!(out.len() < kernel.outputs_per_workitem() as usize);
    }

    #[test]
    #[should_panic(expected = "completed work-item")]
    fn stepping_past_done_panics() {
        let kernel = GammaListing2::new(kcfg(16, 1, 0));
        let mut inst = kernel.instantiate(0);
        loop {
            if inst.step().done {
                break;
            }
        }
        inst.step();
    }
}
