//! # dwi-stats — statistical substrate
//!
//! Self-contained numerical/statistical routines used throughout the
//! decoupled-workitems reproduction:
//!
//! * special functions (`erf`, `erfc`, `erfinv`, `lgamma`, regularized
//!   incomplete gamma) implemented from scratch (the Rust standard library
//!   does not expose them),
//! * normal and gamma distributions (pdf / cdf / quantile),
//! * descriptive statistics, histograms, empirical CDFs and P² streaming
//!   quantiles,
//! * goodness-of-fit tests (Kolmogorov-Smirnov, Anderson-Darling,
//!   chi-square).
//!
//! The paper validates its FPGA-generated gamma sequences against Matlab's
//! `gamrnd` (Fig. 6); this crate provides the trusted reference distribution
//! and the tests used for that validation in the reproduction.

pub mod anderson_darling;
pub mod chi2;
pub mod ecdf;
pub mod gamma_dist;
pub mod histogram;
pub mod ks;
pub mod normal;
pub mod p2_quantile;
pub mod special;
pub mod summary;

pub use anderson_darling::{ad_test, AdResult};
pub use chi2::{chi_square_cdf, chi_square_gof, Chi2Result};
pub use ecdf::Ecdf;
pub use gamma_dist::Gamma;
pub use histogram::Histogram;
pub use ks::{ks_statistic, ks_test, KsResult};
pub use normal::Normal;
pub use p2_quantile::P2Quantile;
pub use special::{
    erf, erfc, erfinv, lgamma, lower_incomplete_gamma_regularized,
    upper_incomplete_gamma_regularized,
};
pub use summary::Summary;
