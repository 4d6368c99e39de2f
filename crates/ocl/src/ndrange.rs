//! NDRange geometry (OpenCL work decomposition).
//!
//! The host enqueues kernels as an N-Dimensional Range of `globalSize`
//! work-items grouped into work-groups of `localSize` (Section II). This
//! module carries the 1-D geometry used throughout the paper and its
//! partition math for a given hardware width.

/// A 1-D NDRange: `global_size` work-items in groups of `local_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NdRange {
    /// Total work-items.
    pub global_size: u64,
    /// Work-items per work-group.
    pub local_size: u64,
}

impl NdRange {
    /// Create a validated NDRange: `local_size` must divide `global_size`
    /// (the OpenCL 1.x rule SDAccel and the paper's hosts follow).
    pub fn new(global_size: u64, local_size: u64) -> Self {
        assert!(local_size >= 1, "localSize must be at least 1");
        assert!(
            global_size >= local_size && global_size.is_multiple_of(local_size),
            "globalSize ({global_size}) must be a positive multiple of localSize ({local_size})"
        );
        Self {
            global_size,
            local_size,
        }
    }

    /// Number of work-groups.
    pub fn groups(&self) -> u64 {
        self.global_size / self.local_size
    }

    /// Hardware partitions per group for a device of width `w` (e.g. two
    /// warps per group at localSize 64 on a 32-wide GPU).
    pub fn partitions_per_group(&self, w: u32) -> u64 {
        self.local_size.div_ceil(w as u64)
    }

    /// Total hardware partitions in flight.
    pub fn partitions(&self, w: u32) -> u64 {
        self.groups() * self.partitions_per_group(w)
    }

    /// Outputs each work-item must produce to reach `total` outputs.
    pub fn outputs_per_workitem(&self, total: u64) -> f64 {
        total as f64 / self.global_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let r = NdRange::new(65_536, 64);
        assert_eq!(r.groups(), 1024);
        assert_eq!(r.partitions_per_group(32), 2);
        assert_eq!(r.partitions(32), 2048);
    }

    #[test]
    fn underfilled_group_partition_math() {
        let r = NdRange::new(120, 12);
        assert_eq!(r.groups(), 10);
        assert_eq!(r.partitions_per_group(8), 2);
    }

    #[test]
    fn outputs_per_workitem_paper_setup() {
        // 629,145,600 outputs over 65,536 work-items = 9600 each.
        let r = NdRange::new(65_536, 64);
        assert_eq!(r.outputs_per_workitem(2_621_440 * 240), 9600.0);
    }

    #[test]
    #[should_panic(expected = "multiple of localSize")]
    fn non_divisible_panics() {
        NdRange::new(100, 64);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_local_panics() {
        NdRange::new(64, 0);
    }
}
