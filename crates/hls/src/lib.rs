//! # dwi-hls — HLS substrate simulator
//!
//! The paper builds on Xilinx SDAccel / Vivado HLS primitives; this crate
//! provides faithful Rust equivalents so the decoupled-work-item design can
//! be *executed* and *timed* without an FPGA:
//!
//! * [`wide`] — an `ap_uint<512>`-like packing word ([`wide::Wide512`]) for
//!   the full-width memory interface (16 single-precision floats per word,
//!   Section III-D),
//! * [`stream`] — `hls::stream`-style bounded blocking FIFOs used to couple
//!   each work-item's compute process to its transfer process (Listing 1),
//! * [`pipeline`] — initiation-interval / depth / trip-count cycle math,
//!   including the II cost of Listing 2's loop-exit dependency,
//! * [`memory`] — the burst-mode device-global-memory channel model
//!   (calibrated to the paper's measured 3.58 / 3.94 GB/s, Fig. 7),
//! * [`sim`] — a cycle-level discrete-event dataflow engine used to observe
//!   compute/transfer interleaving (Fig. 3) and arbitration effects,
//! * [`dataflow`] — general `DATAFLOW` graphs of named processes and FIFOs
//!   on the same cycle-level engine,
//! * [`resources`] — the additive slice/DSP/BRAM model behind Table II,
//! * [`report`] — Vivado-HLS-style synthesis reports.

pub mod dataflow;
pub mod memory;
pub mod pipeline;
pub mod report;
pub mod resources;
pub mod sim;
pub mod stream;
pub mod wide;

pub use memory::BurstChannel;
pub use pipeline::PipelineModel;
pub use resources::{ResourceCost, ResourceReport};
pub use stream::Stream;
pub use wide::Wide512;
