//! Device global memory with per-work-item offset regions.
//!
//! Section III-E-2 (the chosen strategy): the host allocates **one** buffer
//! in device global memory and assigns it to the kernel once per work-item;
//! each work-item derives its own offset from its `wid` (Listing 4's
//! `blockOffset * wid`). The regions are disjoint by construction, so the
//! functional simulation hands each transfer thread an exclusive slice —
//! the same guarantee the hardware gets from the address arithmetic.

use dwi_hls::wide::Wide512;

/// A device-global-memory buffer of 512-bit words, divided into equal
/// per-work-item regions.
#[derive(Debug)]
pub struct DeviceMemory {
    words: Vec<Wide512>,
    words_per_workitem: usize,
    workitems: usize,
}

impl DeviceMemory {
    /// Allocate for `workitems` regions of `words_per_workitem` words each.
    pub fn new(workitems: usize, words_per_workitem: usize) -> Self {
        assert!(workitems > 0 && words_per_workitem > 0);
        Self {
            words: vec![Wide512::zero(); workitems * words_per_workitem],
            words_per_workitem,
            workitems,
        }
    }

    /// Capacity in single-precision values.
    pub fn len_f32(&self) -> usize {
        self.words.len() * 16
    }

    /// The `blockOffset` of Listing 4: first word index of a work-item's
    /// region.
    pub fn block_offset(&self, wid: usize) -> usize {
        assert!(wid < self.workitems, "wid {wid} out of range");
        wid * self.words_per_workitem
    }

    /// Split into per-work-item exclusive regions (device-level combining).
    pub fn split_regions(&mut self) -> Vec<&mut [Wide512]> {
        self.words.chunks_mut(self.words_per_workitem).collect()
    }

    /// Read the whole buffer back to the host as a flat `f32` vector — the
    /// single `read` request of Section III-E-2.
    pub fn read_to_host(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len_f32());
        dwi_hls::wide::unpack_words(&self.words, &mut out);
        out
    }

    /// Read one work-item's region (used by tests and the host-level
    /// combining comparison).
    pub fn read_region(&self, wid: usize) -> Vec<f32> {
        let off = self.block_offset(wid);
        let mut out = Vec::with_capacity(self.words_per_workitem * 16);
        dwi_hls::wide::unpack_words(&self.words[off..off + self.words_per_workitem], &mut out);
        out
    }

    /// Number of work-item regions.
    pub fn workitems(&self) -> usize {
        self.workitems
    }

    /// Words per region.
    pub fn words_per_workitem(&self) -> usize {
        self.words_per_workitem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_cover() {
        let mut m = DeviceMemory::new(4, 8);
        let regions = m.split_regions();
        assert_eq!(regions.len(), 4);
        assert!(regions.iter().all(|r| r.len() == 8));
    }

    #[test]
    fn block_offsets() {
        let m = DeviceMemory::new(6, 100);
        assert_eq!(m.block_offset(0), 0);
        assert_eq!(m.block_offset(5), 500);
        assert_eq!(m.len_f32(), 6 * 100 * 16);
    }

    #[test]
    fn writes_land_in_the_right_region() {
        let mut m = DeviceMemory::new(3, 2);
        {
            let mut regions = m.split_regions();
            regions[1][0] = Wide512::from_f32([7.0; 16]);
            regions[2][1] = Wide512::from_f32([9.0; 16]);
        }
        let host = m.read_to_host();
        assert_eq!(host[2 * 16], 7.0); // region 1, word 0, lane 0
        assert_eq!(host[5 * 16 + 3], 9.0); // region 2, word 1
        assert_eq!(host[0], 0.0);
        assert_eq!(m.read_region(1)[0], 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_wid_panics() {
        DeviceMemory::new(2, 4).block_offset(2);
    }
}
