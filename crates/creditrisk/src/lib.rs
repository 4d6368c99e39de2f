//! # dwi-creditrisk — CreditRisk+ substrate
//!
//! The paper's gamma RNs exist for a reason: **CreditRisk+** (Credit Suisse
//! First Boston, 1997 — paper ref \[21\]), "the only such model that focuses
//! on the event of default". The economy is driven by `N` stochastically
//! independent gamma-distributed sector variables `S_k` with `E[S_k] = 1`,
//! `Var[S_k] = v_k`; conditional on the sectors, each obligor defaults with
//! a Poisson intensity scaled by its sector weights; the portfolio loss
//! distribution is the object of interest ("the larger the simulated gamma
//! variable is, the worse is this financial sector in the current
//! simulation run", Section II-D4).
//!
//! This crate implements the full model:
//!
//! * [`portfolio`] — obligors, exposure bands, sectors,
//! * [`montecarlo`] — the Monte-Carlo engine driven by the *same* nested
//!   gamma generator stack the FPGA kernels run (`dwi-rng`),
//! * [`panjer`] — the analytic loss distribution via truncated power-series
//!   exp/ln (the modern formulation of the CreditRisk+ / Panjer recursion),
//!   used as the correctness oracle for the Monte-Carlo path,
//! * [`moments`] — closed-form loss mean and variance,
//! * [`from_buffer`] — losses driven by an accelerator-generated sector
//!   buffer,
//! * [`risk`] — Value-at-Risk and Expected Shortfall.

pub mod from_buffer;
pub mod moments;
pub mod montecarlo;
pub mod panjer;
pub mod portfolio;
pub mod risk;

pub use from_buffer::losses_from_sector_buffer;
pub use moments::{loss_mean, loss_variance};
pub use montecarlo::{MonteCarloEngine, SimulationResult};
pub use panjer::loss_distribution;
pub use portfolio::{Obligor, Portfolio, Sector};
pub use risk::{expected_shortfall, value_at_risk};
