//! # decoupled-workitems
//!
//! A full reproduction of *"Exploiting Decoupled OpenCL Work-Items with Data
//! Dependencies on FPGAs: A Case Study"* (Varela, Wehn, Liang, Tang —
//! IPDPS Workshops 2017) as a Rust workspace. The FPGA, the fixed
//! SIMD/SIMT platforms and the wall-plug power meter are *simulated*; every
//! algorithm — the Mersenne-Twisters (including a real Dynamic-Creation
//! parameter search), the Marsaglia-Bray and ICDF normal transforms, the
//! Marsaglia-Tsang gamma sampler, the CreditRisk+ portfolio model — is
//! implemented for real.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`stats`] | special functions, distributions, goodness-of-fit tests |
//! | [`rng`] | GF(2) algebra, Mersenne-Twisters with Dynamic Creation and jump-ahead, normal transforms, gamma sampler, the nested kernel |
//! | [`hls`] | HLS substrate: 512-bit words, blocking streams, pipeline/memory/resource models, cycle simulator |
//! | [`ocl`] | fixed-architecture platform model: SIMT divergence, device profiles, NDRange scheduling |
//! | [`core`] | the paper's contribution: decoupled work-items, transfers, Eq. 1, Table III driver |
//! | [`energy`] | wall-plug power traces and dynamic-energy integration |
//! | [`creditrisk`] | CreditRisk+ Monte-Carlo engine and analytic Panjer oracle |
//! | [`trace`] | timeline tracing (Chrome/Perfetto export) + Prometheus metrics |
//! | [`runtime`] | multi-tenant job scheduler: command queues, sharding, backpressure, result cache |
//!
//! ## Quickstart
//!
//! Any [`WorkItemKernel`](dwi_core::WorkItemKernel) runs on any of the five
//! execution backends; here the paper's Listing 2 gamma chain runs on the
//! functional decoupled engine (threads + blocking streams):
//!
//! ```
//! use decoupled_workitems::core::{
//!     Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, Workload,
//! };
//!
//! let cfg = PaperConfig::config1();
//! let workload = Workload { num_scenarios: 1024, num_sectors: 2, sector_variance: 1.39 };
//! let kernel = GammaListing2::for_config(&cfg, &workload, 42);
//! let report = FunctionalDecoupled.execute(&kernel, &ExecutionPlan::for_config(&cfg));
//! assert!(report.complete());
//! assert!(report.rejection.overhead() > 0.25); // the Marsaglia-Bray chain
//! ```

pub use dwi_core as core;
pub use dwi_creditrisk as creditrisk;
pub use dwi_energy as energy;
pub use dwi_hls as hls;
pub use dwi_ocl as ocl;
pub use dwi_rng as rng;
pub use dwi_runtime as runtime;
pub use dwi_stats as stats;
pub use dwi_trace as trace;
