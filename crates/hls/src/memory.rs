//! Burst-mode device-global-memory channel model (Sections III-D/III-E,
//! Fig. 7).
//!
//! The board exposes one 512-bit memory channel. Each work-item's `Transfer`
//! process packs 16 single-precision RNs per 512-bit word, accumulates
//! `LTRANSF` words in a local buffer, and ships them with `memcpy` as one
//! burst. The channel model charges each burst an arbitration/setup cost
//! plus a per-beat streaming cost; the packing loop (`TLOOP`, II = 1) costs
//! one cycle per RN and — because `LOOP_FLATTEN` is off — runs *sequentially*
//! with the burst within one work-item, while other work-items keep the
//! channel busy (the shifting schedule of Fig. 3).
//!
//! ## Calibration
//!
//! `cycles_per_beat = 3` and per-configuration arbitration costs reproduce
//! the paper's measured transfers-only bandwidths (Section IV-E): 3.58 GB/s
//! for the 6-work-item Config1,2 bitstreams (`arb_cycles = 9`) and
//! 3.94 GB/s for the 8-work-item Config3,4 bitstreams (`arb_cycles = 4`) —
//! the two bitstreams place-and-route differently, giving different
//! interconnect latencies. Both saturate well below the 12.8 GB/s raw pin
//! bandwidth, matching the paper's remark that "further customizations of
//! the memory controller inside the tool would improve the performance".

/// Single-precision RNs per beat.
pub const RNS_PER_BEAT: u64 = 16;

/// A single burst-mode memory channel.
///
/// ```
/// use dwi_hls::memory::BurstChannel;
/// // The paper's Config3,4 bitstream moves 2.5 GB in ~642 ms:
/// let ch = BurstChannel::config34();
/// let t = ch.transfer_bound_s(2_516_582_400, 256, 8);
/// assert!((t - 0.642).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstChannel {
    /// Kernel clock frequency in Hz (SDAccel clock: 200 MHz).
    pub freq_hz: f64,
    /// Streaming cost per 512-bit beat, in cycles.
    pub cycles_per_beat: u64,
    /// Fixed arbitration + AXI setup cost per burst, in cycles.
    pub arb_cycles: u64,
    /// Packing-loop cost per RN (TLOOP at II = 1 ⇒ 1).
    pub pack_cycles_per_rn: u64,
}

impl BurstChannel {
    /// The channel as place-and-routed for Config1/Config2 (6 work-items).
    pub fn config12() -> Self {
        Self {
            freq_hz: 200e6,
            cycles_per_beat: 3,
            arb_cycles: 9,
            pack_cycles_per_rn: 1,
        }
    }

    /// The channel as place-and-routed for Config3/Config4 (8 work-items).
    pub fn config34() -> Self {
        Self {
            freq_hz: 200e6,
            cycles_per_beat: 3,
            arb_cycles: 4,
            pack_cycles_per_rn: 1,
        }
    }

    /// Beats needed for `rns` single-precision values (rounded up to whole
    /// 512-bit words, as the packer zero-pads).
    pub fn beats(rns: u64) -> u64 {
        rns.div_ceil(RNS_PER_BEAT)
    }

    /// Channel occupancy of one burst of `rns_per_burst` RNs, in cycles.
    pub fn burst_occupancy(&self, rns_per_burst: u64) -> u64 {
        assert!(rns_per_burst > 0, "burst must carry data");
        self.arb_cycles + Self::beats(rns_per_burst) * self.cycles_per_beat
    }

    /// Upper bound on channel throughput at this burst size (bytes/s):
    /// back-to-back bursts with no requester gaps.
    pub fn channel_cap(&self, rns_per_burst: u64) -> f64 {
        let bytes = (rns_per_burst * 4) as f64;
        bytes * self.freq_hz / self.burst_occupancy(rns_per_burst) as f64
    }

    /// One work-item's transfer-engine period per burst. The
    /// `DEPENDENCE variable=transfBuf false` pragma (Listing 4) lets HLS
    /// overlap the packing loop with the in-flight `memcpy` burst
    /// (double-buffering), so the steady-state period is the *maximum* of
    /// the two phases, not their sum.
    pub fn workitem_period(&self, rns_per_burst: u64) -> u64 {
        (rns_per_burst * self.pack_cycles_per_rn).max(self.burst_occupancy(rns_per_burst))
    }

    /// Aggregate transfers-only bandwidth of `n_workitems` engines sharing
    /// the channel (bytes/s): per-work-item-bound until the channel
    /// saturates.
    pub fn effective_bandwidth(&self, rns_per_burst: u64, n_workitems: u64) -> f64 {
        assert!(n_workitems > 0);
        let bytes = (rns_per_burst * 4) as f64;
        let per_wi = bytes * self.freq_hz / self.workitem_period(rns_per_burst) as f64;
        (n_workitems as f64 * per_wi).min(self.channel_cap(rns_per_burst))
    }

    /// Transfers-only runtime (seconds) to move `total_rns` values split
    /// evenly across `n_workitems` engines at the given burst size — the
    /// quantity Fig. 7 plots.
    pub fn transfers_only_runtime(
        &self,
        total_rns: u64,
        rns_per_burst: u64,
        n_workitems: u64,
    ) -> f64 {
        let bytes = (total_rns * 4) as f64;
        bytes / self.effective_bandwidth(rns_per_burst, n_workitems)
    }

    /// Time (seconds) to stream `bytes` at the effective bandwidth — the
    /// transfer bound of the full kernel (Table III's FPGA rows are this
    /// bound: 2.5 GB / 3.58 GB/s ≈ 701 ms).
    pub fn transfer_bound_s(&self, bytes: u64, rns_per_burst: u64, n_workitems: u64) -> f64 {
        bytes as f64 / self.effective_bandwidth(rns_per_burst, n_workitems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's standard burst: LTRANSF = 16 words = 256 RNs.
    const BURST: u64 = 256;

    #[test]
    fn beats_round_up() {
        assert_eq!(BurstChannel::beats(16), 1);
        assert_eq!(BurstChannel::beats(17), 2);
        assert_eq!(BurstChannel::beats(256), 16);
        assert_eq!(BurstChannel::beats(1), 1);
    }

    #[test]
    fn config12_bandwidth_matches_paper() {
        // Section IV-E: 3.58 GB/s measured for Config1,2 at 6 work-items.
        let ch = BurstChannel::config12();
        let bw = ch.effective_bandwidth(BURST, 6);
        assert!(
            (bw - 3.58e9).abs() < 0.05e9,
            "Config1,2 bandwidth {bw:.3e} vs paper 3.58 GB/s"
        );
    }

    #[test]
    fn config34_bandwidth_matches_paper() {
        // Section IV-E: 3.94 GB/s measured for Config3,4 at 8 work-items.
        let ch = BurstChannel::config34();
        let bw = ch.effective_bandwidth(BURST, 8);
        assert!(
            (bw - 3.94e9).abs() < 0.05e9,
            "Config3,4 bandwidth {bw:.3e} vs paper 3.94 GB/s"
        );
    }

    #[test]
    fn table3_fpga_transfer_bounds() {
        // 2.5 GB of gamma RNs: 701 ms (Config1,2) and 642 ms (Config3,4).
        let total_rns = 2_621_440u64 * 240;
        let bytes = total_rns * 4;
        let t12 = BurstChannel::config12().transfer_bound_s(bytes, BURST, 6);
        let t34 = BurstChannel::config34().transfer_bound_s(bytes, BURST, 8);
        assert!((t12 - 0.701).abs() < 0.012, "Config1,2 bound {t12}");
        assert!((t34 - 0.642).abs() < 0.012, "Config3,4 bound {t34}");
    }

    #[test]
    fn bandwidth_increases_with_burst_length() {
        // Fig. 7: longer bursts amortize arbitration.
        let ch = BurstChannel::config34();
        let mut prev = 0.0;
        for burst in [16u64, 32, 64, 128, 256, 512, 1024, 4096] {
            let bw = ch.effective_bandwidth(burst, 8);
            assert!(bw >= prev, "bandwidth must not decrease with burst size");
            prev = bw;
        }
    }

    #[test]
    fn bandwidth_increases_with_workitems_until_saturation() {
        // Fig. 7: more work-items hide per-engine packing time.
        let ch = BurstChannel::config34();
        let mut prev = 0.0;
        for n in 1..=8 {
            let bw = ch.effective_bandwidth(BURST, n);
            assert!(bw >= prev);
            prev = bw;
        }
        // Saturated: doubling work-items cannot exceed the channel cap.
        let cap = ch.channel_cap(BURST);
        assert!(ch.effective_bandwidth(BURST, 64) <= cap * 1.0001);
    }

    #[test]
    fn single_workitem_is_period_bound() {
        let ch = BurstChannel::config34();
        let bw = ch.effective_bandwidth(BURST, 1);
        let expect = (BURST * 4) as f64 * ch.freq_hz / ch.workitem_period(BURST) as f64;
        assert!((bw - expect).abs() / expect < 1e-12);
        assert!(bw < ch.channel_cap(BURST));
    }

    #[test]
    fn asymptotic_cap_is_beat_limited() {
        // As bursts grow, cap → 64 B / 3 cycles ≈ 4.27 GB/s at 200 MHz.
        let ch = BurstChannel::config34();
        let cap = ch.channel_cap(1 << 20);
        let ideal = 64.0 * 200e6 / 3.0;
        assert!((cap - ideal) / ideal < 0.01);
        assert!(cap < 12.8e9, "well below raw pin bandwidth, as measured");
    }

    #[test]
    fn transfers_only_runtime_scales_linearly() {
        let ch = BurstChannel::config12();
        let t1 = ch.transfers_only_runtime(1_000_000, BURST, 6);
        let t2 = ch.transfers_only_runtime(2_000_000, BURST, 6);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "burst must carry data")]
    fn zero_burst_panics() {
        BurstChannel::config12().burst_occupancy(0);
    }
}
