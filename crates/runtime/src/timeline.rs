//! The job-lifecycle timeline: monotonic timestamps at every scheduler
//! transition one job goes through, carried on the job itself and
//! exported when it reaches a terminal state.
//!
//! The phase model **telescopes**: each milestone is attributed the gap
//! since the previous *present* milestone, so the per-phase durations of
//! one job sum exactly to its end-to-end latency — no double counting,
//! no unattributed remainder. The phases, in lifecycle order:
//!
//! | phase          | interval                                  | what it measures |
//! |----------------|-------------------------------------------|------------------|
//! | `admit`        | submitted → admitted                      | backpressure backoff + admission bookkeeping |
//! | `queue`        | admitted → dequeued                       | residency in the admission queue, until a worker pops it for dispatch |
//! | `dispatch`     | dequeued → first shard start              | shard split + shard-queue residency |
//! | `execute`      | first shard start → last shard end        | backend execution (all shards) |
//! | `merge`        | last shard end → merged                   | report merge |
//! | `deliver`      | merged → completed                        | caching, waking waiters, completion delivery |
//! | `cache_lookup` | submitted → completed (cache hits only)   | the whole fast path |
//!
//! A job that dies early (cancelled in queue, expired mid-run) simply
//! lacks the later milestones; the walk attributes the remaining time to
//! the first absent milestone's predecessor-to-terminal gap, keeping the
//! telescoping identity intact on every path.
//!
//! Multi-stage graph jobs additionally split the `execute` phase into
//! `stage0..stageN` sub-segments (one per pipeline stage, proportioned by
//! the merged report's per-stage elapsed times) — the sub-segments still
//! sum exactly to the execute window, so the telescoping identity is
//! untouched.

use std::time::{Duration, Instant};

/// Every phase name the timeline can emit, in lifecycle order — the
/// label vocabulary of `dwi_runtime_phase_seconds`.
pub const PHASES: &[&str] = &[
    "cache_lookup",
    "admit",
    "queue",
    "dispatch",
    "execute",
    "merge",
    "deliver",
];

/// Static labels for the per-stage execute sub-spans of multi-stage graph
/// jobs (`stage0`..). Pipelines deeper than this vocabulary fall back to
/// the plain `execute` phase rather than minting dynamic labels.
pub const STAGE_PHASES: &[&str] = &[
    "stage0", "stage1", "stage2", "stage3", "stage4", "stage5", "stage6", "stage7",
];

/// How one job left the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Still in flight (only visible on snapshots of live jobs).
    Pending,
    /// Completed and delivered a report / task output.
    Completed,
    /// Served synchronously from the result cache.
    CacheHit,
    /// Cancelled by its client.
    Cancelled,
    /// Deadline elapsed before completion.
    Expired,
}

impl JobOutcome {
    /// Stable lowercase label (`"completed"`), for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Pending => "pending",
            JobOutcome::Completed => "completed",
            JobOutcome::CacheHit => "cache_hit",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::Expired => "expired",
        }
    }
}

/// One shard's execution window on one worker.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpan {
    /// Shard index in the job's split order.
    pub index: u32,
    /// Executing worker.
    pub worker: u32,
    /// Execution start.
    pub start: Instant,
    /// Execution end.
    pub end: Instant,
}

/// The lifecycle record of one logical job. Cheap to clone (the only
/// heap parts are the shard-span and stage-mark vectors), so
/// completed timelines can be snapshotted into the flight recorder and
/// handed to profiling code without touching the job again.
#[derive(Debug, Clone)]
pub struct JobTimeline {
    /// Runtime-assigned job id.
    pub job_id: u64,
    /// Submitting tenant.
    pub client: u32,
    /// Priority-lane label (`"high"`/`"normal"`/`"low"`).
    pub lane: &'static str,
    /// Submission time — before any backpressure backoff.
    pub submitted: Instant,
    /// Admitted into the bounded queue.
    pub admitted: Option<Instant>,
    /// Popped from the admission queue by a worker for dispatch.
    pub dequeued: Option<Instant>,
    /// Merged report ready (kernel) / task closure returned.
    pub merged: Option<Instant>,
    /// Terminal state reached.
    pub completed: Option<Instant>,
    /// Per-shard execution windows, in completion order.
    pub shard_spans: Vec<ShardSpan>,
    /// Shards the dispatch split into (0 until dispatched).
    pub shards: u32,
    /// Served from the result cache without touching a worker.
    pub cache_hit: bool,
    /// Terminal outcome.
    pub outcome: JobOutcome,
    /// Backpressure backoff included in the `admit` phase.
    pub backoff: Duration,
    /// Per-stage elapsed times of a multi-stage graph job (element-wise
    /// max across shards), used to proportion the `execute` phase into
    /// `stage{i}` sub-segments. Empty for single-node jobs.
    pub stage_marks: Vec<Duration>,
}

impl JobTimeline {
    /// A fresh timeline stamped `submitted = now`.
    pub fn new(job_id: u64, client: u32, lane: &'static str) -> Self {
        Self {
            job_id,
            client,
            lane,
            submitted: Instant::now(),
            admitted: None,
            dequeued: None,
            merged: None,
            completed: None,
            shard_spans: Vec::new(),
            shards: 0,
            cache_hit: false,
            outcome: JobOutcome::Pending,
            backoff: Duration::ZERO,
            stage_marks: Vec::new(),
        }
    }

    /// Mark admission (idempotent: blocking resubmissions keep the first
    /// admission only — earlier rejected attempts are part of `admit`).
    pub fn mark_admitted(&mut self) {
        self.admitted.get_or_insert_with(Instant::now);
    }

    /// Mark removal from the admission queue (idempotent).
    pub fn mark_dequeued(&mut self) {
        self.dequeued.get_or_insert_with(Instant::now);
    }

    /// Record one shard's execution window.
    pub fn record_shard_span(&mut self, index: u32, worker: u32, start: Instant, end: Instant) {
        self.shard_spans.push(ShardSpan {
            index,
            worker,
            start,
            end,
        });
    }

    /// Record the per-stage elapsed times of a multi-stage graph job
    /// (element-wise max across shards: each stage's segment covers the
    /// slowest shard's time in it, matching how the execute phase covers
    /// the slowest shard overall).
    pub fn record_stage_marks(&mut self, stage_elapsed: &[Duration]) {
        if self.stage_marks.len() < stage_elapsed.len() {
            self.stage_marks.resize(stage_elapsed.len(), Duration::ZERO);
        }
        for (mark, &e) in self.stage_marks.iter_mut().zip(stage_elapsed) {
            *mark = (*mark).max(e);
        }
    }

    /// Mark the merged report (or task output) ready.
    pub fn mark_merged(&mut self) {
        self.merged.get_or_insert_with(Instant::now);
    }

    /// First shard execution start, if any ran.
    pub fn first_shard_start(&self) -> Option<Instant> {
        self.shard_spans.iter().map(|s| s.start).min()
    }

    /// Last shard execution end, if any ran.
    pub fn last_shard_end(&self) -> Option<Instant> {
        self.shard_spans.iter().map(|s| s.end).max()
    }

    /// Close the timeline: stamp `completed = now`, set the outcome, and
    /// return a snapshot for export. Call under the job's inner lock at
    /// the terminal transition; export the snapshot after releasing it.
    pub fn finish(&mut self, outcome: JobOutcome) -> JobTimeline {
        self.completed.get_or_insert_with(Instant::now);
        self.outcome = outcome;
        self.clone()
    }

    /// End-to-end latency (`submitted → completed`), when terminal.
    pub fn e2e(&self) -> Option<Duration> {
        self.completed
            .map(|c| c.saturating_duration_since(self.submitted))
    }

    /// The telescoping phase walk: `(phase, start, duration)` per present
    /// milestone, summing exactly to [`e2e`](Self::e2e). Empty until the
    /// job is terminal. Multi-stage graph jobs replace the `execute`
    /// segment with per-stage `stage{i}` sub-segments that sum exactly to
    /// it (see [`STAGE_PHASES`]).
    pub fn segments(&self) -> Vec<(&'static str, Instant, Duration)> {
        let Some(completed) = self.completed else {
            return Vec::new();
        };
        if self.cache_hit {
            return vec![(
                "cache_lookup",
                self.submitted,
                completed.saturating_duration_since(self.submitted),
            )];
        }
        let milestones: [(&'static str, Option<Instant>); 6] = [
            ("admit", self.admitted),
            ("queue", self.dequeued),
            ("dispatch", self.first_shard_start()),
            ("execute", self.last_shard_end()),
            ("merge", self.merged),
            ("deliver", Some(completed)),
        ];
        let mut out = Vec::with_capacity(milestones.len());
        let mut prev = self.submitted;
        for (name, at) in milestones {
            if let Some(at) = at {
                out.push((name, prev, at.saturating_duration_since(prev)));
                prev = prev.max(at);
            }
        }
        let stages = self.stage_marks.len();
        if (2..=STAGE_PHASES.len()).contains(&stages) {
            if let Some(i) = out.iter().position(|(n, _, _)| *n == "execute") {
                let (_, exec_start, total) = out[i];
                out.splice(i..=i, self.stage_segments(exec_start, total));
            }
        }
        out
    }

    /// Split one execute window of length `total` into per-stage
    /// sub-segments proportioned by [`stage_marks`](Self::stage_marks).
    /// The cumulative cut points are clamped nondecreasing and the last
    /// is pinned to `total`, so the sub-durations always sum *exactly* to
    /// the execute window — the telescoping identity survives rounding
    /// (and stage overlap: concurrent stages' marks may sum to more than
    /// the window; they are normalized, not truncated).
    fn stage_segments(
        &self,
        exec_start: Instant,
        total: Duration,
    ) -> Vec<(&'static str, Instant, Duration)> {
        let n = self.stage_marks.len();
        let marks_total: Duration = self.stage_marks.iter().sum();
        let mut subs = Vec::with_capacity(n);
        let mut cumsum = Duration::ZERO;
        let mut prev_cum = Duration::ZERO;
        for (k, &mark) in self.stage_marks.iter().enumerate() {
            cumsum += mark;
            let cum = if k + 1 == n {
                total
            } else if marks_total.is_zero() {
                Duration::from_secs_f64(total.as_secs_f64() * (k + 1) as f64 / n as f64)
            } else {
                Duration::from_secs_f64(
                    total.as_secs_f64() * (cumsum.as_secs_f64() / marks_total.as_secs_f64()),
                )
            }
            .clamp(prev_cum, total);
            subs.push((STAGE_PHASES[k], exec_start + prev_cum, cum - prev_cum));
            prev_cum = cum;
        }
        subs
    }

    /// Per-phase durations (the [`segments`](Self::segments) walk without
    /// the start instants).
    pub fn phases(&self) -> Vec<(&'static str, Duration)> {
        self.segments()
            .into_iter()
            .map(|(name, _, dur)| (name, dur))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn phases_telescope_to_e2e() {
        let mut tl = JobTimeline::new(1, 0, "normal");
        let t0 = tl.submitted;
        tl.admitted = Some(at(t0, 1));
        tl.dequeued = Some(at(t0, 4));
        tl.record_shard_span(0, 0, at(t0, 5), at(t0, 9));
        tl.record_shard_span(1, 1, at(t0, 5), at(t0, 11));
        tl.merged = Some(at(t0, 12));
        tl.completed = Some(at(t0, 13));
        tl.outcome = JobOutcome::Completed;
        let phases = tl.phases();
        let names: Vec<_> = phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["admit", "queue", "dispatch", "execute", "merge", "deliver"]
        );
        let sum: Duration = phases.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, tl.e2e().unwrap());
        assert_eq!(sum, Duration::from_millis(13));
        // Execute covers first shard start → last shard end.
        let exec = phases.iter().find(|(n, _)| *n == "execute").unwrap().1;
        assert_eq!(exec, Duration::from_millis(6));
        for (name, _) in &phases {
            assert!(PHASES.contains(name), "{name} not in the vocabulary");
        }
    }

    #[test]
    fn cache_hit_is_one_phase() {
        let mut tl = JobTimeline::new(2, 0, "high");
        tl.cache_hit = true;
        let t0 = tl.submitted;
        tl.completed = Some(at(t0, 2));
        tl.outcome = JobOutcome::CacheHit;
        let phases = tl.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "cache_lookup");
        assert_eq!(phases[0].1, tl.e2e().unwrap());
    }

    #[test]
    fn early_death_still_telescopes() {
        // Cancelled while queued: no dispatch/execute/merge milestones.
        let mut tl = JobTimeline::new(3, 1, "low");
        let t0 = tl.submitted;
        tl.admitted = Some(at(t0, 1));
        tl.dequeued = Some(at(t0, 6));
        tl.completed = Some(at(t0, 7));
        tl.outcome = JobOutcome::Cancelled;
        let phases = tl.phases();
        let names: Vec<_> = phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["admit", "queue", "deliver"]);
        let sum: Duration = phases.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, tl.e2e().unwrap());
    }

    #[test]
    fn stage_marks_split_execute_exactly() {
        let mut tl = JobTimeline::new(7, 0, "normal");
        let t0 = tl.submitted;
        tl.admitted = Some(at(t0, 1));
        tl.dequeued = Some(at(t0, 3));
        tl.record_shard_span(0, 0, at(t0, 4), at(t0, 16));
        // Concurrent stages: marks sum past the 12 ms window on purpose.
        tl.record_stage_marks(&[
            Duration::from_millis(9),
            Duration::from_millis(6),
            Duration::from_millis(3),
        ]);
        tl.merged = Some(at(t0, 17));
        tl.completed = Some(at(t0, 18));
        tl.outcome = JobOutcome::Completed;
        let phases = tl.phases();
        let names: Vec<_> = phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["admit", "queue", "dispatch", "stage0", "stage1", "stage2", "merge", "deliver"]
        );
        // The stage sub-spans sum exactly to the execute window...
        let stage_sum: Duration = phases
            .iter()
            .filter(|(n, _)| n.starts_with("stage"))
            .map(|(_, d)| *d)
            .sum();
        assert_eq!(stage_sum, Duration::from_millis(12));
        // ...and the full walk still telescopes exactly to e2e.
        let sum: Duration = phases.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, tl.e2e().unwrap());
        // Proportioning follows the marks: stage0 gets 9/18 of 12 ms.
        let s0 = phases.iter().find(|(n, _)| *n == "stage0").unwrap().1;
        assert_eq!(s0, Duration::from_millis(6));
    }

    #[test]
    fn single_stage_jobs_keep_the_plain_execute_phase() {
        let mut tl = JobTimeline::new(8, 0, "normal");
        let t0 = tl.submitted;
        tl.admitted = Some(at(t0, 1));
        tl.dequeued = Some(at(t0, 3));
        tl.record_shard_span(0, 0, at(t0, 4), at(t0, 8));
        tl.record_stage_marks(&[Duration::from_millis(4)]);
        tl.merged = Some(at(t0, 9));
        tl.completed = Some(at(t0, 10));
        tl.outcome = JobOutcome::Completed;
        assert!(tl.phases().iter().any(|(n, _)| *n == "execute"));
        assert!(!tl.phases().iter().any(|(n, _)| n.starts_with("stage")));
    }

    #[test]
    fn marks_are_idempotent() {
        let mut tl = JobTimeline::new(5, 0, "normal");
        tl.mark_admitted();
        let first = tl.admitted;
        std::thread::sleep(Duration::from_millis(1));
        tl.mark_admitted();
        assert_eq!(tl.admitted, first);
    }
}
