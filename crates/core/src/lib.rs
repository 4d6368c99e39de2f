//! # dwi-core — decoupled OpenCL work-items on FPGAs
//!
//! The paper's primary contribution, executable end to end on the simulated
//! substrates:
//!
//! * [`config`] — the four evaluation configurations of Table I and their
//!   platform mappings,
//! * [`kernel`] — the rewritable Listing 2 slot: [`WorkItemKernel`] and the
//!   paper's gamma chain, [`GammaListing2`]; [`apps`] holds two more
//!   applications,
//! * [`backend`] — the engines that run any kernel under an
//!   [`ExecutionPlan`]; [`FunctionalDecoupled`] is Listing 1,
//!   `DecoupledWorkItems`, running each work-item as an independent
//!   compute → `hls::stream` → `Transfer` pipeline, and [`LockstepCoupled`]
//!   and [`NdRange`] are the coupled counterfactual and the `.cl` NDRange
//!   formulation,
//! * [`transfer`] — Listing 4: 512-bit packing and fixed-length bursts into
//!   device global memory, plus the two host buffer-combining strategies of
//!   Section III-E,
//! * [`device_memory`] — the shared device-global-memory buffer with
//!   per-work-item offset regions (device-level combining),
//! * [`model`] — Eq. 1 and the full FPGA runtime model
//!   (max of compute bound and transfer bound),
//! * [`experiment`] — the cross-platform driver that regenerates Table III
//!   and the derived speedups,
//! * [`graph`] and [`stages`] — pipe-connected multi-kernel dataflow and
//!   the bundled CreditRisk+ stages,
//! * [`validation`] — the Fig. 6 distribution checks as a library,
//! * [`serial`] and [`digest`] — the plan/report byte codec and the FNV-1a
//!   digests behind the result-cache keys.
//!
//! The decoupling claim, in one sentence: a rejection chain with per-attempt
//! rejection probability `q` costs a *lockstep* architecture
//! `D(q, W) > 1/(1−q)` iterations per output (see `dwi-ocl::simt`), while
//! each decoupled FPGA work-item pays exactly `1/(1−q)` — and this crate's
//! engine demonstrates the decoupled execution *functionally*, not just in
//! the cost model.

pub mod apps;
pub mod backend;
pub mod config;
pub mod device_memory;
pub mod digest;
pub mod experiment;
pub mod graph;
pub mod kernel;
pub mod model;
pub mod serial;
pub mod stages;
pub mod transfer;
pub mod validation;

pub use apps::{SeverityExpMix, TruncatedNormalKernel};
pub use backend::{
    all_backends, Backend, BackendDetail, Combining, CycleSim, ExecutionPlan, FunctionalDecoupled,
    LockstepCoupled, NdRange, RunReport, SimtTrace,
};
pub use config::{IcdfStyle, PaperConfig, Workload};
pub use device_memory::DeviceMemory;
pub use digest::Digest;
pub use experiment::{
    calibration_kernel, measure_rejection_overhead, table3, table3_with, PlatformRuntime, Table3,
    Table3Row,
};
pub use graph::{
    EdgeReport, GraphDataflow, GraphPlan, GraphReport, KernelGraph, SharedStageKernel, StageInput,
    StageInstance, StageKernel, StagedKernel,
};
pub use kernel::{
    Divergence, DivergenceCounts, GammaListing2, KernelInstance, SharedWorkItemKernel, Step,
    WorkItemKernel,
};
pub use model::{eq1_runtime_s, iterations_runtime_s, FpgaRuntimeModel};
pub use stages::{credit_pipeline, SeverityScale, WindowAggregate};
pub use validation::{validate_report, ValidationReport};
