//! Event model: one [`TraceEvent`] per span / instant, attributed to a
//! [`TrackId`] — a (work-item, process-kind) pair that renders as one
//! horizontal track in Perfetto / `chrome://tracing`.

use std::borrow::Cow;

/// Which dataflow process a track belongs to. The paper's `DATAFLOW`
/// region runs 2·N processes: N `GammaRNG` computes and N `Transfer`
/// engines (Listing 1); the NDRange formulation adds per-group pipelines,
/// and the host combining step gets its own track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcessKind {
    /// A work-item's `GammaRNG` (or generic app) compute process.
    Compute,
    /// A work-item's `Transfer` burst engine.
    Transfer,
    /// An NDRange pipeline (one per work-group).
    Pipeline,
    /// Host-side work (buffer combining, validation).
    Host,
    /// A runtime worker thread (one per virtual device in `dwi-runtime`).
    Worker,
    /// One logical runtime job's lifecycle (`wid` carries the job id):
    /// the per-phase attribution spans exported from a completed
    /// `JobTimeline`.
    Job,
}

impl ProcessKind {
    /// Short label used in track names (`wi3/transfer`).
    pub fn label(&self) -> &'static str {
        match self {
            ProcessKind::Compute => "compute",
            ProcessKind::Transfer => "transfer",
            ProcessKind::Pipeline => "pipeline",
            ProcessKind::Host => "host",
            ProcessKind::Worker => "worker",
            ProcessKind::Job => "job",
        }
    }

    fn index(&self) -> u64 {
        match self {
            ProcessKind::Compute => 0,
            ProcessKind::Transfer => 1,
            ProcessKind::Pipeline => 2,
            ProcessKind::Host => 3,
            ProcessKind::Worker => 4,
            ProcessKind::Job => 5,
        }
    }
}

/// One timeline track: a (work-item id, process kind) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId {
    /// Work-item (or work-group) id; 0 for host tracks.
    pub wid: u32,
    /// The process kind.
    pub kind: ProcessKind,
}

impl TrackId {
    /// Build a track id.
    pub fn new(wid: u32, kind: ProcessKind) -> Self {
        Self { wid, kind }
    }

    /// Deterministic Chrome `tid`: work-items grouped, compute above its
    /// transfer partner — the Fig. 3 stacking. The stride leaves room for
    /// every [`ProcessKind`] per work-item.
    pub fn tid(&self) -> u64 {
        self.wid as u64 * 8 + self.kind.index()
    }

    /// Human-readable track name (`wi0/compute`; job-lifecycle tracks
    /// read `job17`, since their `wid` is a job id, not a work-item).
    pub fn name(&self) -> String {
        match self.kind {
            ProcessKind::Job => format!("job{}", self.wid),
            _ => format!("wi{}/{}", self.wid, self.kind.label()),
        }
    }
}

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A complete span of `dur_ns` nanoseconds starting at the event's ts.
    Span {
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A zero-duration marker.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The track the event belongs to.
    pub track: TrackId,
    /// Event name (span or marker name).
    pub name: Cow<'static, str>,
    /// Start timestamp, nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Span or instant payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_unique_per_track() {
        let mut tids = Vec::new();
        for wid in 0..8 {
            for kind in [
                ProcessKind::Compute,
                ProcessKind::Transfer,
                ProcessKind::Pipeline,
                ProcessKind::Host,
                ProcessKind::Worker,
                ProcessKind::Job,
            ] {
                tids.push(TrackId::new(wid, kind).tid());
            }
        }
        let n = tids.len();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), n);
    }

    #[test]
    fn compute_stacks_directly_above_its_transfer() {
        let c = TrackId::new(3, ProcessKind::Compute);
        let t = TrackId::new(3, ProcessKind::Transfer);
        assert_eq!(t.tid(), c.tid() + 1);
        assert_eq!(c.name(), "wi3/compute");
    }
}
