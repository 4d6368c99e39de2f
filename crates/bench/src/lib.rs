//! # dwi-bench — experiment harness
//!
//! Shared assembly code for the binaries that
//! regenerate every table and figure of the paper:
//!
//! | Artifact | Binary | Data builder |
//! |---|---|---|
//! | Table I | `table1` | [`figures::table1_rows`] |
//! | Table II | `table2` | [`figures::table2_rows`] |
//! | Table III | `table3` | `dwi_core::experiment::table3` |
//! | Eq. 1 | `eq1` | [`figures::eq1_rows`] |
//! | Fig. 5a | `fig5a` | [`figures::fig5a_data`] |
//! | Fig. 5b | `fig5b` | [`figures::fig5b_data`] |
//! | Fig. 6 | `fig6` | [`figures::fig6_data`] |
//! | Fig. 7 | `fig7` | [`figures::fig7_data`] |
//! | Fig. 8 | `fig8` | `dwi_energy::trace` |
//! | Fig. 9 | `fig9` | [`figures::fig9_data`] |
//! | §IV-E rates | `rejection_rates` | [`figures::rejection_sweep`] |

pub mod figures;
pub mod httpgate;
pub mod obs;
pub mod render;
pub mod runtime_args;
