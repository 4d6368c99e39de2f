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

/// Mersenne-Twister with an external enable flag, after Listing 3 of the
/// paper.
///
/// With `enable == true` on every call the output sequence is identical to
/// [`super::BlockMt`] (tested below); with `enable == false` the generator
/// still returns the word it would commit but performs no state update,
/// so the stream is *paused*, not skipped.
///
/// This is a software realisation of Listing 3's *peek/commit semantics*,
/// not of its per-cycle datapath: instead of recomputing one twisted word
/// and its tempering on every call, the generator twists all `n` state
/// words at once into a second buffer and tempers them into an output
/// block, then serves that block word by word. Each call peeks at the next
/// committed word and commits it iff `enable` is high. The block is
/// refilled on the first call after its last word was committed, so
/// [`AdaptedMt::new`] does no twist; a generator holds `3n` words.
#[derive(Debug, Clone)]
pub struct AdaptedMt {
    params: MtParams,
    /// `3n` words: the tempered output block, then two state buffers whose
    /// roles swap on every refill. One allocation per generator.
    words: Box<[u32]>,
    /// The current state (the one the block was tempered from) is the
    /// second buffer.
    second: bool,
    /// Block index of the next committed word; `n` when the block is used
    /// up (and before the first draw).
    idx: usize,
}

impl AdaptedMt {
    /// Create and seed exactly like [`super::BlockMt`].
    pub fn new(params: MtParams, seed: u32) -> Self {
        debug_assert!(params.validate().is_ok(), "invalid MT parameters");
        let n = params.n;
        let mut words = vec![0u32; 3 * n].into_boxed_slice();
        let state = &mut words[n..2 * n];
        state[0] = seed;
        for i in 1..n {
            state[i] = params
                .f
                .wrapping_mul(state[i - 1] ^ (state[i - 1] >> 30))
                .wrapping_add(i as u32);
        }
        Self {
            params,
            words,
            second: false,
            idx: n,
        }
    }

    /// One pipeline cycle: returns the next output word; commits it (and
    /// advances) only when `enable` is true.
    ///
    /// This mirrors Listing 3: "these blocks are allowed to run continuously,
    /// using an external flag to enable the internal state update. Once the
    /// current state is finally used and updated, the state index is
    /// incremented by one."
    #[inline]
    pub fn next(&mut self, enable: bool) -> u32 {
        let word = match self.words[..self.params.n].get(self.idx) {
            Some(&word) => word,
            None => self.refill(),
        };
        self.idx += enable as usize;
        word
    }

    /// Twist the current state into the other state buffer, make that the
    /// current state, temper it into the block and return the block's first
    /// word.
    ///
    /// Word `i` of the new state reads old words `i` and `i + 1` and word
    /// `(i + m) mod n`, which for `i + m >= n` is already a *new* word, as in
    /// the in-place twist of [`super::BlockMt`]. Below `n - m` every read is
    /// of the old state; above it the words go in chunks of `n - m`, each
    /// reading only new words an earlier chunk finished. No loop below
    /// carries a dependence from one word to the next, so each vectorizes.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> u32 {
        let p = &self.params;
        let (n, m) = (p.n, p.m);
        let (upper, lower, a) = (p.upper_mask(), p.lower_mask(), p.a);
        let twist = |cur: u32, succ: u32, mid: u32| {
            let y = (cur & upper) | (succ & lower);
            mid ^ (y >> 1) ^ ((y & 1).wrapping_neg() & a)
        };
        // `out[k] = twist(cur[k], succ[k], mid[k])` over `out`'s length.
        let twist_range = |out: &mut [u32], cur: &[u32], succ: &[u32], mid: &[u32]| {
            for ((w, (&c, &s)), &md) in out.iter_mut().zip(cur.iter().zip(succ)).zip(mid) {
                *w = twist(c, s, md);
            }
        };
        let (block, states) = self.words.split_at_mut(n);
        let (first, second) = states.split_at_mut(n);
        let (old, new) = if self.second {
            (&*second, first)
        } else {
            (&*first, second)
        };
        twist_range(&mut new[..n - m], &old[..n - m], &old[1..], &old[m..]);
        let mut start = n - m;
        while start < n - 1 {
            let end = (start + n - m).min(n - 1);
            let (done, rest) = new.split_at_mut(start);
            twist_range(
                &mut rest[..end - start],
                &old[start..end],
                &old[start + 1..],
                &done[start + m - n..],
            );
            start = end;
        }
        new[n - 1] = twist(old[n - 1], new[0], new[m - 1]);
        for (out, &w) in block.iter_mut().zip(new.iter()) {
            *out = temper(w, p);
        }
        self.second = !self.second;
        self.idx = 0;
        block[0]
    }

    /// The parameter set in use.
    pub fn params(&self) -> &MtParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mt::dynamic_creation::find_twist_coefficient;
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
    }

    #[test]
    fn gating_pattern_preserves_committed_stream() {
        // Every word of an arbitrarily-gated generator, gated or committed,
        // is the next word of the plain sequence — exactly the paper's "no
        // RNs are discarded" requirement (Section II-E). Three full passes
        // over the state cross every block boundary; the gate is held low
        // for three calls on the first draw after `new` and on the first
        // and last word of every block, so refills happen under a low gate.
        // The parameter sets cover m = n - 1 (every twist word after the
        // first reads a new word), m = 1, m < n/2, and a Dynamic Creation
        // result.
        let with = |n: usize, m: usize| MtParams {
            exponent: 32 * n as u32 - MT521.r,
            n,
            m,
            ..MT521
        };
        let (a, _) = find_twist_coefficient(89, 3, 1, 7, 0).expect("MT89 search succeeds");
        let dc89 = MtParams {
            exponent: 89,
            n: 3,
            m: 1,
            r: 7,
            a,
            ..MT19937
        };
        let late_m = with(MT521.n, MT521.n - 1);
        for params in [MT19937, MT521, late_m, with(17, 1), with(17, 3), dc89] {
            assert!(params.validate().is_ok());
            let mut gated = AdaptedMt::new(params, 77);
            let mut plain = BlockMt::new(params, 77);
            let mut expect = plain.next_u32();
            let (mut committed, mut held) = (0usize, 0);
            // Pseudo-random but deterministic gate pattern.
            let mut lcg = 12345u64;
            while committed < 3 * params.n + 1000 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pos = committed % params.n;
                let boundary = pos == 0 || pos == params.n - 1;
                let enable = !(boundary && held < 3) && (lcg >> 62) != 0; // ~75% enabled
                assert_eq!(
                    gated.next(enable),
                    expect,
                    "draw {committed} diverged (n = {}, m = {}, enable = {enable})",
                    params.n,
                    params.m
                );
                if enable {
                    committed += 1;
                    held = 0;
                    expect = plain.next_u32();
                } else {
                    held += 1;
                }
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
}
