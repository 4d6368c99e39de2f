//! # dwi-core — decoupled OpenCL work-items on FPGAs
//!
//! The paper's primary contribution, executable end to end on the simulated
//! substrates:
//!
//! * [`config`] — the four evaluation configurations of Table I and their
//!   platform mappings,
//! * [`decoupled`] — Listing 1: `DecoupledWorkItems`, running each
//!   work-item as an independent `GammaRNG` → `hls::stream` → `Transfer`
//!   pipeline (threads in the functional simulation),
//! * [`transfer`] — Listing 4: 512-bit packing and fixed-length bursts into
//!   device global memory, plus the two host buffer-combining strategies of
//!   Section III-E,
//! * [`device_memory`] — the shared device-global-memory buffer with
//!   per-work-item offset regions (device-level combining),
//! * [`model`] — Eq. 1 and the full FPGA runtime model
//!   (max of compute bound and transfer bound),
//! * [`experiment`] — the cross-platform driver that regenerates Table III
//!   and the derived speedups.
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
pub mod coupled;
pub mod decoupled;
pub mod device_memory;
pub mod digest;
pub mod experiment;
pub mod generic;
pub mod graph;
pub mod icdf_fixed;
pub mod kernel;
pub mod model;
pub mod ndrange_variant;
pub mod serial;
pub mod stages;
pub mod transfer;
pub mod validation;

pub use apps::{SeverityExpMix, TruncatedNormalKernel};
pub use backend::{
    all_backends, Backend, BackendDetail, CycleSim, ExecutionPlan, FunctionalDecoupled,
    LockstepCoupled, NdRange, RunReport, SimtTrace,
};
pub use config::{IcdfStyle, PaperConfig, Workload};
pub use coupled::{lockstep_counterfactual, CoupledRun};
pub use decoupled::{Combining, DecoupledRun, DecoupledRunner};
pub use device_memory::DeviceMemory;
pub use digest::Digest;
pub use experiment::{
    calibration_kernel, measure_rejection_overhead, table3, table3_with, PlatformRuntime, Table3,
    Table3Row,
};
pub use generic::{TruncatedNormal, WorkItemApp};
pub use graph::{
    EdgeReport, GraphDataflow, GraphPlan, GraphReport, KernelGraph, SharedStageKernel, StageInput,
    StageInstance, StageKernel, StagedKernel,
};
pub use kernel::{
    Divergence, DivergenceCounts, GammaListing2, KernelInstance, SharedWorkItemKernel, Step,
    WorkItemKernel,
};
pub use model::{eq1_runtime_s, iterations_runtime_s, FpgaRuntimeModel};
pub use ndrange_variant::{ndrange_runtime_s, NdRangeRun, NdRangeRunner};
pub use stages::{credit_pipeline, SeverityScale, WindowAggregate};
pub use validation::{validate_report, validate_run, ValidationReport};
