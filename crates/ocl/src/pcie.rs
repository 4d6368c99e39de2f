//! Host ↔ device PCIe link model.
//!
//! All four accelerators return the generated gamma RNs to the host
//! (Section IV-B), so the read-back of ~2.5 GB rides on PCIe. The paper
//! focuses on kernel runtime (the read-back is common to all platforms and
//! overlapped across kernel repetitions); this model quantifies that
//! common term and the host-side buffer-combining trade-off of
//! Section III-E.

/// A PCIe link between host and accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Sustained bandwidth, bytes/s (PCIe 3.0 x8 ≈ 6.0 GB/s effective).
    pub bandwidth: f64,
    /// Fixed per-request latency, seconds (driver + DMA descriptor setup).
    pub request_latency: f64,
}

impl PcieLink {
    /// The test machine's effective link (PCIe 3.0 x8 for the FPGA card).
    pub fn gen3_x8() -> Self {
        Self {
            bandwidth: 6.0e9,
            request_latency: 30e-6,
        }
    }

    /// Time to move `bytes` in `requests` equal read requests.
    ///
    /// Section III-E: *combining buffers at host level* needs `N` read
    /// requests (one per work-item buffer); *combining at device level*
    /// needs a single request — the chosen approach.
    pub fn transfer_s(&self, bytes: u64, requests: u32) -> f64 {
        assert!(requests >= 1, "need at least one request");
        bytes as f64 / self.bandwidth + requests as f64 * self.request_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_transfer_is_bandwidth_bound() {
        let link = PcieLink::gen3_x8();
        let t = link.transfer_s(2_516_582_400, 1);
        assert!(
            (t - 0.4194).abs() < 0.01,
            "2.5 GB over 6 GB/s ≈ 0.42 s, got {t}"
        );
    }

    #[test]
    fn request_latency_only_matters_for_small_payloads() {
        let link = PcieLink::gen3_x8();
        // Section III-E: device-level combining loses <1% even at 8 requests
        // for the full 2.5 GB payload.
        // Overhead of host-level combining (8 requests) vs device-level
        // combining (1 request) for the same payload.
        let combining_overhead =
            |bytes| link.transfer_s(bytes, 8) / link.transfer_s(bytes, 1) - 1.0;
        let overhead = combining_overhead(2_516_582_400);
        assert!(overhead < 0.01, "overhead {overhead}");
        // For a tiny payload, per-request latency dominates.
        let small = combining_overhead(4096);
        assert!(small > 1.0, "small-payload overhead {small}");
    }

    #[test]
    fn more_requests_never_faster() {
        let link = PcieLink::gen3_x8();
        let t1 = link.transfer_s(1 << 20, 1);
        let t6 = link.transfer_s(1 << 20, 6);
        assert!(t6 > t1);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_requests_panics() {
        PcieLink::gen3_x8().transfer_s(1024, 0);
    }
}
