//! # dwi-rng — random number generation substrate
//!
//! Everything the paper's case-study application (Section II-D) needs,
//! implemented from scratch:
//!
//! * [`gf2`] — GF(2)\[x\] polynomial algebra and Berlekamp-Massey, powering a
//!   real *Dynamic Creation* (Matsumoto-Nishimura, paper ref \[18\]) parameter
//!   search for small-period Mersenne-Twisters,
//! * [`mt`] — a generic Mersenne-Twister over arbitrary (w,n,m,r,a,…)
//!   parameters with the classic **MT19937** set and the **MT521** set used by
//!   the paper's Config2/Config4, in both the textbook block form and the
//!   paper's *adapted* form with an external enable flag (Listing 3),
//!   plus polynomial jump-ahead,
//! * [`uniform`] — the `uint2float` conversions used by the kernels,
//! * [`transforms`] — uniform→normal transforms: Marsaglia-Bray polar
//!   rejection (ref \[17\]), the bit-level *FPGA-style* ICDF
//!   (after de Schryver et al., ref \[19\]) and the *CUDA-style* ICDF built on
//!   Giles' single-precision `erfinv` polynomial (ref \[20\]) with the
//!   `erfcinv(x) = erfinv(1-x)` identity,
//! * [`gamma`] — the Marsaglia-Tsang rejection sampler (ref \[14\]) with the
//!   α ≤ 1 correction step,
//! * [`kernel`] — the scalar *reference* nested gamma generator with the exact
//!   per-iteration semantics of the paper's Listing 2 (all platform
//!   implementations must match it sample-for-sample),
//! * [`rejection`] — rejection-rate accounting (Section IV-E reports combined
//!   rates of 30.3 % for the Marsaglia-Bray configs and 7.4 % for the ICDF
//!   configs at sector variance v = 1.39).

pub mod gamma;
pub mod gf2;
pub mod kernel;
pub mod mt;
pub mod rejection;
pub mod transforms;
pub mod uniform;

pub use gamma::{correct_alpha_le_one, MarsagliaTsang};
pub use kernel::{GammaKernel, IterationTrace, KernelConfig, NormalMethod};
pub use mt::{AdaptedMt, BlockMt, MtParams, MT19937, MT521};
pub use rejection::RejectionStats;
pub use transforms::{IcdfCuda, IcdfFpga, MarsagliaBray, NormalTransform};
pub use uniform::{uint2float, uint2float_signed};
