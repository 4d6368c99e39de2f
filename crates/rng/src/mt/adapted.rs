//! The paper's *adapted* Mersenne-Twister (Listing 3).
//!
//! In the FPGA pipeline the three Mersenne-Twisters must conceptually "stop"
//! whenever a rejection upstream invalidates the iteration — otherwise valid
//! uniform numbers would be discarded and the distributions distorted
//! (Section II-E). Stalling a pipeline stage would break the initiation
//! interval of 1, so Listing 3 instead lets the block *run every cycle* and
//! gates only the **state commit** with an external `enable` flag: when
//! `enable` is low the same state word is read again on the next cycle and
//! nothing is consumed.

use super::block::temper;
use super::params::MtParams;

/// Streaming one-word-at-a-time Mersenne-Twister with an external enable
/// flag, after Listing 3 of the paper.
///
/// With `enable == true` on every call the output sequence is identical to
/// [`super::BlockMt`] (tested below); with `enable == false` the generator
/// still produces its output combinationally but performs no state update,
/// so the stream is *paused*, not skipped.
#[derive(Debug, Clone)]
pub struct AdaptedMt {
    params: MtParams,
    state: Vec<u32>,
    idx: usize,
    /// Total committed draws (telemetry for interleaving analysis).
    committed: u64,
    /// Total gated (enable = false) evaluations.
    gated: u64,
}

impl AdaptedMt {
    /// Create and seed exactly like [`super::BlockMt`].
    pub fn new(params: MtParams, seed: u32) -> Self {
        debug_assert!(params.validate().is_ok(), "invalid MT parameters");
        let mut state = vec![0u32; params.n];
        state[0] = seed;
        for i in 1..params.n {
            state[i] = params
                .f
                .wrapping_mul(state[i - 1] ^ (state[i - 1] >> 30))
                .wrapping_add(i as u32);
        }
        Self {
            params,
            state,
            idx: 0,
            committed: 0,
            gated: 0,
        }
    }

    /// One pipeline cycle: always computes the next output word; commits the
    /// state update (and advances) only when `enable` is true.
    ///
    /// This mirrors Listing 3: "these blocks are allowed to run continuously,
    /// using an external flag to enable the internal state update. Once the
    /// current state is finally used and updated, the state index is
    /// incremented by one."
    ///
    /// The state indices wrap by comparison rather than `% n`; both forms
    /// visit the same words because `1 <= m < n` ([`MtParams::validate`]).
    #[inline]
    pub fn next(&mut self, enable: bool) -> u32 {
        let p = &self.params;
        let n = p.n;
        let i = self.idx;
        let i1 = if i + 1 == n { 0 } else { i + 1 };
        let im = if i + p.m >= n { i + p.m - n } else { i + p.m };
        let y = (self.state[i] & p.upper_mask()) | (self.state[i1] & p.lower_mask());
        let mut next = self.state[im] ^ (y >> 1);
        if y & 1 == 1 {
            next ^= p.a;
        }
        if enable {
            self.state[i] = next;
            self.idx = i1;
            self.committed += 1;
        } else {
            self.gated += 1;
        }
        temper(next, p)
    }

    /// Number of committed (consumed) draws so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Number of gated (enable = false) evaluations so far.
    pub fn gated(&self) -> u64 {
        self.gated
    }

    /// The parameter set in use.
    pub fn params(&self) -> &MtParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mt::params::{MT19937, MT521};
    use crate::mt::BlockMt;

    #[test]
    fn always_enabled_matches_block_mt19937() {
        let mut a = AdaptedMt::new(MT19937, 5489);
        let mut b = BlockMt::new(MT19937, 5489);
        for i in 0..5000 {
            assert_eq!(a.next(true), b.next_u32(), "diverged at draw {i}");
        }
    }

    #[test]
    fn always_enabled_matches_block_mt521() {
        let mut a = AdaptedMt::new(MT521, 123);
        let mut b = BlockMt::new(MT521, 123);
        for i in 0..5000 {
            assert_eq!(a.next(true), b.next_u32(), "diverged at draw {i}");
        }
    }

    #[test]
    fn gated_cycle_repeats_same_output() {
        let mut a = AdaptedMt::new(MT19937, 1);
        let v1 = a.next(false);
        let v2 = a.next(false);
        let v3 = a.next(true);
        assert_eq!(v1, v2, "gated evaluations must not consume state");
        assert_eq!(v2, v3, "the committed draw is the one that was gated");
        assert_eq!(a.gated(), 2);
        assert_eq!(a.committed(), 1);
    }

    #[test]
    fn gating_pattern_preserves_committed_stream() {
        // The committed outputs of an arbitrarily-gated generator equal the
        // plain sequence — exactly the paper's "no RNs are discarded"
        // requirement (Section II-E). Three full passes over the state
        // cross every index wrap; `m = n - 1` takes the `i + m >= n` branch
        // on all but the first draw of each pass.
        let late_m = MtParams {
            m: MT521.n - 1,
            ..MT521
        };
        assert!(late_m.validate().is_ok());
        for params in [MT19937, MT521, late_m] {
            let mut gated = AdaptedMt::new(params, 77);
            let mut plain = BlockMt::new(params, 77);
            let mut committed = Vec::new();
            // Pseudo-random but deterministic gate pattern.
            let mut lcg = 12345u64;
            while committed.len() < 3 * params.n + 1000 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let enable = (lcg >> 62) != 0; // ~75% enabled
                let v = gated.next(enable);
                if enable {
                    committed.push(v);
                }
            }
            for (i, v) in committed.iter().enumerate() {
                assert_eq!(
                    *v,
                    plain.next_u32(),
                    "committed draw {i} diverged (n = {}, m = {})",
                    params.n,
                    params.m
                );
            }
        }
    }

    #[test]
    fn wraparound_across_state_boundary() {
        // Cross the n-word boundary several times and compare with block form.
        let mut a = AdaptedMt::new(MT521, 9);
        let mut b = BlockMt::new(MT521, 9);
        for _ in 0..(17 * 7 + 3) {
            assert_eq!(a.next(true), b.next_u32());
        }
    }

    #[test]
    fn telemetry_counts() {
        let mut a = AdaptedMt::new(MT521, 5);
        for i in 0..100 {
            a.next(i % 3 == 0);
        }
        assert_eq!(a.committed() + a.gated(), 100);
        assert_eq!(a.committed(), 34);
    }
}
