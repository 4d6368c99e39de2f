//! Uniform → normal transforms (paper Sections II-D2 and II-D3).
//!
//! All three produce a `(value, valid)` pair per pipeline *attempt*, matching
//! the hardware: an invalid attempt still occupies a pipeline slot (that is
//! the whole point of the paper's decoupling — on fixed architectures the
//! invalid lanes idle, on the FPGA each work-item simply retries on its own).

pub mod icdf_cuda;
pub mod icdf_fpga;
pub mod marsaglia_bray;

pub use icdf_cuda::IcdfCuda;
pub use icdf_fpga::IcdfFpga;
pub use marsaglia_bray::MarsagliaBray;

/// A uniform-to-normal transform with rejection semantics.
///
/// `attempt` consumes this iteration's raw 32-bit uniform draw(s) and returns
/// the candidate normal variate plus its validity flag (`n0_valid` in
/// Listing 2). Transforms that only need one uniform ignore `u1`.
pub trait NormalTransform {
    /// One pipeline attempt.
    fn attempt(&mut self, u0: u32, u1: u32) -> (f32, bool);

    /// Number of 32-bit uniform inputs consumed per attempt (1 or 2).
    fn uniforms_per_attempt(&self) -> usize;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}
