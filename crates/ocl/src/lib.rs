//! # dwi-ocl — OpenCL fixed-architecture platform model
//!
//! The paper compares its decoupled-FPGA design against *optimized* OpenCL
//! implementations on CPU, GPU and Xeon Phi (Section IV). Those platforms
//! execute work-items in **hardware partitions of fixed width** — warps,
//! SIMD vectors — so data-dependent branches serialize and rejection loops
//! force all lanes of a partition to retry until the *slowest* lane accepts
//! (Fig. 2b). This crate models that execution style:
//!
//! * [`simt`] — a lockstep partition executor over per-lane attempt traces,
//!   plus the closed-form divergence factor it converges to,
//! * [`masked`] — the same lockstep execution at instruction-block
//!   granularity,
//! * [`profiles`] — calibrated device profiles (dual Xeon E5-2670 v3,
//!   Tesla K80, Xeon Phi 7120P) with per-component iteration costs and the
//!   kernel runtime model that regenerates Table III's CPU/GPU/PHI columns,
//! * [`ndrange`] — `localSize` / `globalSize` scheduling effects
//!   (underfilled partitions, latency hiding, work-group overhead) behind
//!   the Fig. 5 sweeps,
//! * [`host`] — an OpenCL-style host API (buffers, command queues, events)
//!   over simulated time,
//! * [`pcie`] — the host↔device link model.
//!
//! The *algorithm* executed by every platform lives in `dwi-rng`; this crate
//! deliberately only models *architecture cost*, so the comparison isolates
//! exactly what the paper isolates.

pub mod host;
pub mod masked;
pub mod ndrange;
pub mod pcie;
pub mod profiles;
pub mod simt;

pub use host::{Buffer, CommandQueue, Event};
pub use ndrange::NdRange;
pub use pcie::PcieLink;
pub use profiles::{DeviceKind, DeviceProfile, KernelCell, OpCosts, CPU, GPU, PHI};
pub use simt::{divergence_factor, run_lockstep, LockstepResult};
