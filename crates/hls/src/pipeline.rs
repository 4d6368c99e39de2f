//! Pipeline cycle math.
//!
//! `#pragma HLS pipeline II=1` turns a loop body into a pipeline that accepts
//! a new iteration every `II` cycles after a fill latency of `depth` cycles.
//! The central performance claim of the paper rests on keeping II = 1 despite
//! the data-dependent loop-exit condition; Listing 2's `prevCounter[breakId]`
//! delay line is the workaround, and
//! [`PipelineModel::ii_for_exit_dependency`] quantifies what happens
//! without it.

/// Cycle model of a pipelined loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineModel {
    /// Initiation interval: cycles between consecutive iteration starts.
    pub ii: u64,
    /// Pipeline depth (fill latency in cycles).
    pub depth: u64,
}

impl PipelineModel {
    /// A model with the given II and depth.
    pub fn new(ii: u64, depth: u64) -> Self {
        assert!(ii >= 1, "II must be at least 1");
        assert!(depth >= 1, "depth must be at least 1");
        Self { ii, depth }
    }

    /// Total cycles to run `trips` iterations: `depth + (trips − 1)·II`
    /// (zero trips cost nothing).
    pub fn cycles(&self, trips: u64) -> u64 {
        if trips == 0 {
            0
        } else {
            self.depth + (trips - 1) * self.ii
        }
    }

    /// The II forced by a loop-exit condition that reads a value produced
    /// `result_latency` cycles into the body, when the exit test is delayed
    /// by `delay` iterations (the `breakId + 1` of Listing 2).
    ///
    /// Without delay (`delay = 0`) the next iteration cannot issue until the
    /// counter update is known: II = `result_latency`. Each iteration of
    /// delay tolerates one II of slack, so
    /// `II = max(1, result_latency − delay)`.
    pub fn ii_for_exit_dependency(result_latency: u64, delay: u64) -> u64 {
        result_latency.saturating_sub(delay).max(1)
    }

    /// Runtime in seconds at clock frequency `freq_hz`.
    pub fn runtime_s(&self, trips: u64, freq_hz: f64) -> f64 {
        assert!(freq_hz > 0.0);
        self.cycles(trips) as f64 / freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_formula() {
        let p = PipelineModel::new(1, 10);
        assert_eq!(p.cycles(0), 0);
        assert_eq!(p.cycles(1), 10);
        assert_eq!(p.cycles(100), 109);
        let p2 = PipelineModel::new(3, 10);
        assert_eq!(p2.cycles(100), 10 + 99 * 3);
    }

    #[test]
    fn exit_dependency_ii() {
        // Counter available 2 cycles into the body, no delay ⇒ II = 2.
        assert_eq!(PipelineModel::ii_for_exit_dependency(2, 0), 2);
        // breakId = 0 ⇒ delay 1 ⇒ II = 1 — the paper's workaround.
        assert_eq!(PipelineModel::ii_for_exit_dependency(2, 1), 1);
        // Deeper counters need more delay.
        assert_eq!(PipelineModel::ii_for_exit_dependency(5, 1), 4);
        assert_eq!(PipelineModel::ii_for_exit_dependency(5, 4), 1);
        // Delay can't push II below 1.
        assert_eq!(PipelineModel::ii_for_exit_dependency(1, 7), 1);
    }

    #[test]
    fn runtime_at_200mhz() {
        // One pipelined loop of 629,145,600 trips at II=1, 200 MHz ≈ 3.15 s —
        // the single-work-item version of Eq. 1's numerator.
        let p = PipelineModel::new(1, 50);
        let t = p.runtime_s(629_145_600, 200e6);
        assert!((t - 3.1457).abs() < 0.001, "t = {t}");
    }
}
