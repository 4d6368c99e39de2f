//! `serve --profile` — the job-lifecycle attribution report.
//!
//! Folds a run's closed [`JobTimeline`]s into a latency breakdown:
//! per-phase p50/p99 attributions, mean, and each phase's share of
//! end-to-end time, grouped overall and per priority lane. End-to-end percentiles are computed exactly
//! from the raw per-job durations (not from histogram buckets), and
//! shares come from phase *sums* — the telescoping timeline model
//! guarantees each job's phases sum exactly to its end-to-end latency,
//! so the shares always add up to 100%.
//!
//! The per-phase `p50`/`p99` columns are **cohort attributions**, not
//! independent per-phase quantiles: each is the mean phase duration over
//! the jobs whose end-to-end latency sits around that percentile (the
//! p40–p60 band for p50, the top 2% for p99). Independent per-phase
//! medians answer "how long is a typical queue wait" but do not sum to
//! anything meaningful — phases anti-correlate, so the sum of medians
//! can sit far from the median job. The cohort attribution answers the
//! question a latency investigation actually asks — *where did the
//! median (or tail) job's time go* — and telescopes: each column sums
//! to its cohort's mean end-to-end latency, which is within a few
//! percent of the exact percentile it is named after.

use std::collections::BTreeMap;

use dwi_runtime::{JobOutcome, JobTimeline};
use dwi_stats::Ecdf;
use dwi_trace::json::escape_str;

use crate::render::TextTable;

/// Exact-percentile statistics over one duration series, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Observations folded in.
    pub count: usize,
    /// Exact 50th percentile (ms).
    pub p50_ms: f64,
    /// Exact 99th percentile (ms).
    pub p99_ms: f64,
    /// Mean (ms).
    pub mean_ms: f64,
    /// Sum (ms) — the share numerator.
    pub sum_ms: f64,
}

impl Stats {
    fn from_ms(v: Vec<f64>) -> Self {
        if v.is_empty() {
            return Self::default();
        }
        let sum: f64 = v.iter().sum();
        let ecdf = Ecdf::new(v);
        Self {
            count: ecdf.len(),
            p50_ms: ecdf.quantile(0.5),
            p99_ms: ecdf.quantile(0.99),
            mean_ms: sum / ecdf.len() as f64,
            sum_ms: sum,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"mean_ms\": {:.6}}}",
            self.count, self.p50_ms, self.p99_ms, self.mean_ms
        )
    }
}

/// One lifecycle phase's statistics within a [`Breakdown`] group.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name (one of [`dwi_runtime::PHASES`], or a
    /// [`dwi_runtime::STAGE_PHASES`] execute sub-span for multi-stage
    /// graph jobs).
    pub phase: &'static str,
    /// Median-job attribution (ms): mean duration of this phase over the
    /// p40–p60 end-to-end cohort. The group's p50 attributions sum to
    /// the cohort's mean end-to-end latency (≈ the exact e2e p50).
    pub p50_ms: f64,
    /// Tail-job attribution (ms): mean duration of this phase over the
    /// slowest 2% of jobs by end-to-end latency.
    pub p99_ms: f64,
    /// Mean duration over every job in the group (ms).
    pub mean_ms: f64,
    /// This phase's share of the group's total end-to-end time
    /// (`phase sum / e2e sum`; the group's shares add up to 1).
    pub share: f64,
}

/// The latency breakdown of one group of jobs.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Group label (`"all"` or a lane name).
    pub label: String,
    /// Jobs in the group.
    pub jobs: usize,
    /// End-to-end (submitted → terminal) stats.
    pub e2e: Stats,
    /// Per-phase rows, in lifecycle order, phases that occurred only.
    pub phases: Vec<PhaseRow>,
}

impl Breakdown {
    fn build(label: impl Into<String>, tls: &[&JobTimeline]) -> Self {
        // Per-job phase maps sorted by end-to-end latency, so percentile
        // cohorts are contiguous index bands.
        let mut jobs: Vec<(f64, BTreeMap<&'static str, f64>)> = tls
            .iter()
            .filter_map(|tl| {
                let e2e = tl.e2e()?.as_secs_f64() * 1e3;
                let phases = tl
                    .phases()
                    .iter()
                    .map(|&(p, d)| (p, d.as_secs_f64() * 1e3))
                    .collect();
                Some((e2e, phases))
            })
            .collect();
        jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let e2e = Stats::from_ms(jobs.iter().map(|(e, _)| *e).collect());
        let n = jobs.len();
        let band = |lo: f64, hi: f64| {
            if n == 0 {
                return &jobs[0..0];
            }
            let i = (lo * (n - 1) as f64).floor() as usize;
            let j = ((hi * (n - 1) as f64).ceil() as usize).min(n - 1);
            &jobs[i..=j]
        };
        let med = band(0.40, 0.60);
        let tail = band(0.98, 1.0);
        // Mean phase duration over a cohort, counting jobs that skipped
        // the phase as 0 — that keeps the telescoping: summing these over
        // all phases gives exactly the cohort's mean e2e.
        let cohort_mean = |cohort: &[(f64, BTreeMap<&'static str, f64>)], phase: &str| {
            if cohort.is_empty() {
                return 0.0;
            }
            cohort
                .iter()
                .map(|(_, p)| p.get(phase).copied().unwrap_or(0.0))
                .sum::<f64>()
                / cohort.len() as f64
        };
        // The stage sub-span labels slot in right after "execute" in the
        // vocabulary order; rows only materialize for phases that occurred,
        // so single-kernel runs are unchanged.
        let mut vocabulary: Vec<&'static str> = Vec::new();
        for &p in dwi_runtime::PHASES {
            vocabulary.push(p);
            if p == "execute" {
                vocabulary.extend(dwi_runtime::STAGE_PHASES.iter().copied());
            }
        }
        let phases = vocabulary
            .into_iter()
            .filter_map(|phase| {
                let sum: f64 = jobs.iter().filter_map(|(_, p)| p.get(phase)).sum();
                let seen = jobs.iter().any(|(_, p)| p.contains_key(phase));
                seen.then(|| PhaseRow {
                    phase,
                    p50_ms: cohort_mean(med, phase),
                    p99_ms: cohort_mean(tail, phase),
                    mean_ms: sum / (n.max(1)) as f64,
                    share: sum / e2e.sum_ms.max(f64::MIN_POSITIVE),
                })
            })
            .collect();
        Self {
            label: label.into(),
            jobs: tls.len(),
            e2e,
            phases,
        }
    }

    /// Sum of the per-phase p50 attributions (ms) — the median cohort's
    /// mean e2e, compared against the exact `e2e.p50_ms` by the profile's
    /// consistency check.
    pub fn phase_p50_sum_ms(&self) -> f64 {
        self.phases.iter().map(|p| p.p50_ms).sum()
    }

    fn json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\": {}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \
                     \"mean_ms\": {:.6}, \"share\": {:.6}}}",
                    escape_str(p.phase),
                    p.p50_ms,
                    p.p99_ms,
                    p.mean_ms,
                    p.share
                )
            })
            .collect();
        format!(
            "{{\"label\": {}, \"jobs\": {}, \"e2e\": {}, \"phases\": [{}]}}",
            escape_str(&self.label),
            self.jobs,
            self.e2e.json(),
            phases.join(", ")
        )
    }
}

/// The full attribution report of one run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Every pool job (cache hits excluded — they never reach the pool).
    pub overall: Breakdown,
    /// Pool jobs grouped by priority lane.
    pub lanes: Vec<Breakdown>,
    /// Cache hits, as their own single-phase group (absent when none).
    pub cache_hits: Option<Breakdown>,
}

impl Profile {
    /// Fold a run's closed timelines (e.g. [`dwi_runtime::Runtime::flight_dump`])
    /// into the report. Unclosed (still-pending) timelines are skipped.
    pub fn from_timelines(timelines: &[JobTimeline]) -> Self {
        let closed: Vec<&JobTimeline> = timelines
            .iter()
            .filter(|t| t.outcome != JobOutcome::Pending)
            .collect();
        let (hits, pool): (Vec<&JobTimeline>, Vec<&JobTimeline>) =
            closed.iter().partition(|t| t.cache_hit);

        let mut by_lane: BTreeMap<&str, Vec<&JobTimeline>> = BTreeMap::new();
        for &tl in &pool {
            by_lane.entry(tl.lane).or_default().push(tl);
        }
        Self {
            overall: Breakdown::build("all", &pool),
            lanes: by_lane
                .into_iter()
                .map(|(lane, tls)| Breakdown::build(lane, &tls))
                .collect(),
            cache_hits: (!hits.is_empty()).then(|| Breakdown::build("cache-hit", &hits)),
        }
    }

    /// Relative deviation between the sum of the per-phase p50
    /// attributions (the median cohort's mean e2e) and the exact
    /// end-to-end p50 — the consistency check CI pins under 5%.
    /// 0 when the run had no jobs.
    pub fn p50_deviation(&self) -> f64 {
        if self.overall.e2e.p50_ms <= 0.0 {
            return 0.0;
        }
        (self.overall.phase_p50_sum_ms() - self.overall.e2e.p50_ms).abs() / self.overall.e2e.p50_ms
    }

    /// The rendered text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "phase breakdown — {} pool jobs (p50 attribution sum {:.4} ms vs e2e p50 \
             {:.4} ms, deviation {:.2}%):\n",
            self.overall.jobs,
            self.overall.phase_p50_sum_ms(),
            self.overall.e2e.p50_ms,
            self.p50_deviation() * 100.0
        ));
        let mut t = TextTable::new(&["phase", "p50 ms", "p99 ms", "mean ms", "share"]);
        for p in &self.overall.phases {
            t.row(&[
                p.phase.to_string(),
                format!("{:.4}", p.p50_ms),
                format!("{:.4}", p.p99_ms),
                format!("{:.4}", p.mean_ms),
                format!("{:.1}%", p.share * 100.0),
            ]);
        }
        t.row(&[
            "e2e".into(),
            format!("{:.4}", self.overall.e2e.p50_ms),
            format!("{:.4}", self.overall.e2e.p99_ms),
            format!("{:.4}", self.overall.e2e.mean_ms),
            "100.0%".into(),
        ]);
        out.push_str(&t.render());

        out.push_str("\nby lane:\n");
        let mut t = TextTable::new(&["group", "jobs", "e2e p50 ms", "e2e p99 ms", "top phase"]);
        for g in &self.lanes {
            let top = g
                .phases
                .iter()
                .max_by(|a, b| a.share.total_cmp(&b.share))
                .map(|p| format!("{} ({:.0}%)", p.phase, p.share * 100.0))
                .unwrap_or_else(|| "-".into());
            t.row(&[
                g.label.clone(),
                g.jobs.to_string(),
                format!("{:.4}", g.e2e.p50_ms),
                format!("{:.4}", g.e2e.p99_ms),
                top,
            ]);
        }
        out.push_str(&t.render());
        if let Some(h) = &self.cache_hits {
            out.push_str(&format!(
                "\ncache hits: {} (lookup p50 {:.4} ms, p99 {:.4} ms)\n",
                h.jobs, h.e2e.p50_ms, h.e2e.p99_ms
            ));
        }
        out
    }

    /// The report as JSON (hand-rendered; this build is hermetic).
    pub fn to_json(&self) -> String {
        let lanes: Vec<String> = self.lanes.iter().map(Breakdown::json).collect();
        format!(
            "{{\n  \"consistency\": {{\"phase_p50_sum_ms\": {:.6}, \"e2e_p50_ms\": {:.6}, \
             \"deviation\": {:.6}}},\n  \"overall\": {},\n  \"lanes\": [{}],\n  \
             \"cache_hits\": {}\n}}\n",
            self.overall.phase_p50_sum_ms(),
            self.overall.e2e.p50_ms,
            self.p50_deviation(),
            self.overall.json(),
            lanes.join(", "),
            self.cache_hits
                .as_ref()
                .map(Breakdown::json)
                .unwrap_or_else(|| "null".into())
        )
    }
}

/// Serialize closed timelines as a JSON array — the flight-recorder dump
/// format `serve` writes on an SLO breach (or on `--flight-out`). Offsets
/// are milliseconds since the earliest submission in the dump.
pub fn timelines_json(timelines: &[JobTimeline]) -> String {
    let epoch = timelines.iter().map(|t| t.submitted).min();
    let rows: Vec<String> = timelines
        .iter()
        .map(|t| {
            let offset_ms = epoch
                .map(|e| t.submitted.saturating_duration_since(e).as_secs_f64() * 1e3)
                .unwrap_or(0.0);
            let phases: Vec<String> = t
                .phases()
                .iter()
                .map(|(p, d)| format!("{}: {:.6}", escape_str(p), d.as_secs_f64() * 1e3))
                .collect();
            format!(
                "{{\"job_id\": {}, \"client\": {}, \"lane\": {}, \"outcome\": {}, \
                 \"cache_hit\": {}, \"shards\": {}, \"offset_ms\": {:.6}, \"e2e_ms\": {:.6}, \"phases\": {{{}}}}}",
                t.job_id,
                t.client,
                escape_str(t.lane),
                escape_str(t.outcome.label()),
                t.cache_hit,
                t.shards,
                offset_ms,
                t.e2e().map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
                phases.join(", ")
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    /// A closed timeline that spent real (slept-out) time in each phase.
    fn timeline(lane: &'static str) -> JobTimeline {
        let mut tl = JobTimeline::new(1, 0, lane);
        sleep(Duration::from_millis(2));
        tl.mark_admitted();
        sleep(Duration::from_millis(1));
        tl.mark_dequeued();
        tl.shards = 1;
        let start = std::time::Instant::now();
        sleep(Duration::from_millis(1));
        tl.record_shard_span(0, 0, start, std::time::Instant::now());
        tl.mark_merged();
        tl.finish(JobOutcome::Completed)
    }

    #[test]
    fn shares_sum_to_one_and_groups_split() {
        let tls = vec![timeline("normal"), timeline("high")];
        let p = Profile::from_timelines(&tls);
        assert_eq!(p.overall.jobs, 2);
        let share_sum: f64 = p.overall.phases.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
        assert_eq!(p.lanes.len(), 2);
        assert!(p.cache_hits.is_none());
        // The report parses back as JSON.
        let parsed = dwi_trace::json::parse(&p.to_json()).expect("profile JSON parses");
        assert!(parsed.get("consistency").is_some());
    }

    #[test]
    fn p50_attribution_telescopes_to_the_median_job() {
        // With one job the median cohort is that job, and its phases sum
        // exactly to its e2e — the deviation is zero up to float rounding.
        let p = Profile::from_timelines(&[timeline("normal")]);
        assert!(
            p.p50_deviation() < 1e-9,
            "deviation {} on a single job",
            p.p50_deviation()
        );
        // And with several jobs the attribution sum tracks the cohort.
        let tls: Vec<_> = (0..9).map(|_| timeline("normal")).collect();
        let p = Profile::from_timelines(&tls);
        let sum = p.overall.phase_p50_sum_ms();
        assert!(sum > 0.0, "attribution sum is positive");
    }

    #[test]
    fn cache_hits_are_their_own_group() {
        let mut hit = JobTimeline::new(9, 0, "normal");
        hit.cache_hit = true;
        let hit = hit.finish(JobOutcome::CacheHit);
        let p = Profile::from_timelines(&[hit, timeline("normal")]);
        assert_eq!(p.overall.jobs, 1, "cache hit excluded from pool jobs");
        assert_eq!(p.cache_hits.as_ref().map(|h| h.jobs), Some(1));
    }

    #[test]
    fn timelines_json_parses_back() {
        let tls = vec![timeline("low")];
        let parsed = dwi_trace::json::parse(&timelines_json(&tls)).expect("dump parses");
        let rows = parsed.as_arr().expect("array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("lane").and_then(|l| l.as_str()), Some("low"));
        assert!(rows[0].get("phases").unwrap().get("queue").is_some());
    }
}
