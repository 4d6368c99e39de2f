//! Mersenne-Twister generators.
//!
//! * [`params`] — the generic parameter set, with [`MT19937`] and the
//!   dynamically-created [`MT521`] (paper Table I: exponent 521, period
//!   2^521−1, 17 state words),
//! * [`block`] — the textbook block-twist implementation ([`BlockMt`]), used
//!   as the correctness reference (validated against the canonical MT19937
//!   seed-5489 output vector),
//! * [`adapted`] — the paper's Listing 3 *adapted* generator
//!   ([`AdaptedMt`]): every call yields the next word and an external
//!   `enable` flag gates its commit, so a rejection upstream never discards
//!   a state (Section II-E: "we would be incorrectly discarding RNs,
//!   causing a distortion in the uniform distributions"); in software the
//!   words are generated a block at a time,
//! * [`dynamic_creation`] — a real Dynamic Creation search (paper ref \[18\]):
//!   candidate twist coefficients are certified by recovering the
//!   characteristic polynomial with Berlekamp-Massey and testing
//!   irreducibility (primitivity, since 2^521−1 is a Mersenne prime),
//! * [`jump`] — polynomial jump-ahead over the canonical state
//!   ([`CanonicalState`]).

pub mod adapted;
pub mod block;
pub mod dynamic_creation;
pub mod jump;
pub mod params;

pub use adapted::AdaptedMt;
pub use block::BlockMt;
pub use jump::CanonicalState;
pub use params::{MtParams, MT19937, MT521};
